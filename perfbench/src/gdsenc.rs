//! A minimal GDSII stream encoder for the `hier_grid` input.
//!
//! The workspace writer emits one `SREF` per instance; real hierarchical
//! streams also carry `AREF` arrays, which the reader must expand. This
//! encoder writes leaf cells as `BOUNDARY` rectangles and the top cell as
//! `AREF` rows plus single `SREF`s, so decoding exercises both paths.

use aapsm_geom::{Point, Rect};
use aapsm_layout::{HierLayout, Orient, Placement, Rot};

const HEADER: (u8, u8) = (0x00, 0x02);
const BGNLIB: (u8, u8) = (0x01, 0x02);
const LIBNAME: (u8, u8) = (0x02, 0x06);
const UNITS: (u8, u8) = (0x03, 0x05);
const ENDLIB: (u8, u8) = (0x04, 0x00);
const BGNSTR: (u8, u8) = (0x05, 0x02);
const STRNAME: (u8, u8) = (0x06, 0x06);
const ENDSTR: (u8, u8) = (0x07, 0x00);
const BOUNDARY: (u8, u8) = (0x08, 0x00);
const SREF: (u8, u8) = (0x0a, 0x00);
const AREF: (u8, u8) = (0x0b, 0x00);
const LAYER: (u8, u8) = (0x0d, 0x02);
const DATATYPE: (u8, u8) = (0x0e, 0x02);
const XY: (u8, u8) = (0x10, 0x03);
const ENDEL: (u8, u8) = (0x11, 0x00);
const SNAME: (u8, u8) = (0x12, 0x06);
const COLROW: (u8, u8) = (0x13, 0x02);
const STRANS: (u8, u8) = (0x1a, 0x01);
const ANGLE: (u8, u8) = (0x1c, 0x05);

/// One row of an `AREF`: `cols` placements of `cell` at `origin + c·col_step`.
#[derive(Clone, Debug)]
pub struct ArrayRef {
    /// Referenced structure name.
    pub cell: String,
    /// Orientation shared by every element.
    pub orient: Orient,
    /// Placement translation of element 0.
    pub origin: Point,
    /// Number of columns (one row).
    pub cols: i64,
    /// Translation between neighbouring columns.
    pub col_step: Point,
}

/// Encodes `hier`'s non-top cells as geometry and the top cell
/// `top` as the given arrays and single references.
pub fn encode(
    hier: &HierLayout,
    top: usize,
    arrays: &[ArrayRef],
    singles: &[(String, Placement)],
) -> Vec<u8> {
    let mut out = Vec::new();
    record(&mut out, HEADER, &600i16.to_be_bytes());
    record(&mut out, BGNLIB, &[0u8; 24]);
    ascii(&mut out, LIBNAME, "PERFBENCH");
    let mut units = Vec::with_capacity(16);
    units.extend_from_slice(&real(1e-3));
    units.extend_from_slice(&real(1e-9));
    record(&mut out, UNITS, &units);
    for (ci, cell) in hier.cells.iter().enumerate() {
        record(&mut out, BGNSTR, &[0u8; 24]);
        ascii(&mut out, STRNAME, &cell.name);
        if ci == top {
            for a in arrays {
                record(&mut out, AREF, &[]);
                ascii(&mut out, SNAME, &a.cell);
                strans(&mut out, a.orient);
                let mut colrow = Vec::with_capacity(4);
                colrow.extend_from_slice(&(a.cols as i16).to_be_bytes());
                colrow.extend_from_slice(&1i16.to_be_bytes());
                record(&mut out, COLROW, &colrow);
                let end = Point::new(
                    a.origin.x + a.cols * a.col_step.x,
                    a.origin.y + a.cols * a.col_step.y,
                );
                let row_end = Point::new(a.origin.x, a.origin.y + 1);
                xy(&mut out, &[a.origin, end, row_end]);
                record(&mut out, ENDEL, &[]);
            }
            for (name, placement) in singles {
                record(&mut out, SREF, &[]);
                ascii(&mut out, SNAME, name);
                strans(&mut out, placement.orient);
                xy(&mut out, &[placement.delta]);
                record(&mut out, ENDEL, &[]);
            }
        } else {
            for r in &cell.rects {
                boundary(&mut out, r);
            }
        }
        record(&mut out, ENDSTR, &[]);
    }
    record(&mut out, ENDLIB, &[]);
    out
}

fn record(out: &mut Vec<u8>, kind: (u8, u8), data: &[u8]) {
    out.extend_from_slice(&((4 + data.len()) as u16).to_be_bytes());
    out.push(kind.0);
    out.push(kind.1);
    out.extend_from_slice(data);
}

fn ascii(out: &mut Vec<u8>, kind: (u8, u8), s: &str) {
    let mut data: Vec<u8> = s.bytes().collect();
    if data.len() % 2 == 1 {
        data.push(0);
    }
    record(out, kind, &data);
}

fn xy(out: &mut Vec<u8>, points: &[Point]) {
    let mut data = Vec::with_capacity(points.len() * 8);
    for p in points {
        data.extend_from_slice(&(p.x as i32).to_be_bytes());
        data.extend_from_slice(&(p.y as i32).to_be_bytes());
    }
    record(out, XY, &data);
}

fn boundary(out: &mut Vec<u8>, r: &Rect) {
    record(out, BOUNDARY, &[]);
    record(out, LAYER, &1i16.to_be_bytes());
    record(out, DATATYPE, &0i16.to_be_bytes());
    let pts = [
        Point::new(r.x_lo(), r.y_lo()),
        Point::new(r.x_hi(), r.y_lo()),
        Point::new(r.x_hi(), r.y_hi()),
        Point::new(r.x_lo(), r.y_hi()),
        Point::new(r.x_lo(), r.y_lo()),
    ];
    xy(out, &pts);
    record(out, ENDEL, &[]);
}

fn strans(out: &mut Vec<u8>, orient: Orient) {
    if orient.is_identity() {
        return;
    }
    let flags: u16 = if orient.reflect { 0x8000 } else { 0 };
    record(out, STRANS, &flags.to_be_bytes());
    if orient.rotation != Rot::R0 {
        record(out, ANGLE, &real(f64::from(orient.rotation.degrees())));
    }
}

/// An 8-byte GDSII excess-64 base-16 real.
fn real(value: f64) -> [u8; 8] {
    if value == 0.0 {
        return [0; 8];
    }
    let sign = if value < 0.0 { 0x80u8 } else { 0 };
    let mut v = value.abs();
    let mut exp = 64i32;
    while v >= 1.0 {
        v /= 16.0;
        exp += 1;
    }
    while v < 1.0 / 16.0 {
        v *= 16.0;
        exp -= 1;
    }
    let mantissa = (v * 2f64.powi(56)) as u64;
    let mut out = [0u8; 8];
    out[0] = sign | (exp as u8);
    out[1..8].copy_from_slice(&mantissa.to_be_bytes()[1..8]);
    out
}
