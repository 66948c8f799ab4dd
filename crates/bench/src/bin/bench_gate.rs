//! Regression gate over the committed benchmark snapshots.
//!
//! Usage: `bench_gate <committed.json> <fresh.json> [...]` — paths come
//! in pairs. Every numeric `*_ms` field present in both snapshots (per
//! design, per stage, plus the totals) is compared; the gate **fails**
//! (exit 1) when a fresh timing exceeds the committed one by more than
//! `BENCH_GATE_PCT` percent (default 25). Fields whose committed value
//! is under the noise floor [`GATE_FLOOR_MS`] (10 ms; override
//! `BENCH_GATE_FLOOR_MS`, and the active value is logged in each gate
//! header) are reported but never gated — small timings are scheduler
//! noise, not signal. Throughput (`req_per_sec`) gates in the opposite
//! direction: a drop beyond the threshold fails. Behavior counters are
//! gated for **exact equality**: `*_picks` (the T-join engine choices the
//! auto-selection made) and the correction planner's `plan_weight`,
//! `grid_lines`, `cover_optimal_components` and `cover_nodes` (the cover
//! branch-and-bound's deterministic work). A drift in any of them is a
//! behavior change, not timing noise, so no threshold or floor applies.
//!
//! The parser below is a minimal recursive-descent JSON reader (the
//! build environment has no registry access for serde); it accepts
//! exactly the subset our own `bench_json` writer emits.

use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn arr(&self) -> &[Value] {
        match self {
            Value::Arr(v) => v,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| format!("non-utf8 number: {e}"))?;
        text.parse()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // Our writer never escapes anything but this keeps
                    // the reader honest on valid JSON.
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(&c) => out.push(c as char),
                        None => return Err("truncated escape".to_string()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| format!("non-utf8 string: {e}"))?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found '{}'", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                other => return Err(format!("expected ',' or '}}', found '{}'", other as char)),
            }
        }
    }
}

fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// How one flattened metric is judged.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Gate {
    /// A timing: fresh may not exceed committed by the threshold.
    SmallerBetter,
    /// A throughput: fresh may not drop below committed by the threshold.
    LargerBetter,
    /// A behavior counter: fresh must equal committed exactly.
    Exact,
}

/// Correction-plan counters gated for exact equality beside `*_picks`.
const EXACT_FIELDS: [&str; 4] = [
    "plan_weight",
    "grid_lines",
    "cover_optimal_components",
    "cover_nodes",
];

/// Flattens every gateable metric of a snapshot into `path → (value, gate)`.
fn metrics(root: &Value) -> BTreeMap<String, (f64, Gate)> {
    let mut out = BTreeMap::new();
    let field_gate = |key: &str| {
        if key.ends_with("_ms") {
            Some(Gate::SmallerBetter)
        } else if key.ends_with("_picks") || EXACT_FIELDS.contains(&key) {
            Some(Gate::Exact)
        } else {
            None
        }
    };
    for design in root.get("designs").map(Value::arr).unwrap_or(&[]) {
        let name = design
            .get("design")
            .and_then(Value::str)
            .unwrap_or("?")
            .to_string();
        for (key, value) in match design {
            Value::Obj(map) => map.iter(),
            _ => continue,
        } {
            match value {
                Value::Num(n) => {
                    if let Some(gate) = field_gate(key) {
                        out.insert(format!("{name}.{key}"), (*n, gate));
                    }
                }
                Value::Obj(stages) if key == "stages" => {
                    for (stage, fields) in stages {
                        if let Value::Obj(fields) = fields {
                            for (field, v) in fields {
                                if let (Some(gate), Some(n)) = (field_gate(field), v.num()) {
                                    out.insert(format!("{name}.{stage}.{field}"), (n, gate));
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    if let Some(tp) = root.get("throughput") {
        if let Some(n) = tp.get("req_per_sec").and_then(Value::num) {
            out.insert(
                "throughput.req_per_sec".to_string(),
                (n, Gate::LargerBetter),
            );
        }
        for field in ["p50_ms", "p99_ms"] {
            if let Some(n) = tp.get(field).and_then(Value::num) {
                out.insert(format!("throughput.{field}"), (n, Gate::SmallerBetter));
            }
        }
    }
    if let Some(h) = root.get("hier") {
        for field in ["flat_ms", "hier_ms"] {
            if let Some(n) = h.get(field).and_then(Value::num) {
                out.insert(format!("hier.{field}"), (n, Gate::SmallerBetter));
            }
        }
        // Reuse accounting is behavior, not timing: a drop in
        // `instances_reused` (or any miss at all on the isolated bench
        // grid) means the coordinate-free cache keys regressed.
        for field in [
            "cells_detected",
            "instances",
            "instances_reused",
            "solve_misses",
        ] {
            if let Some(n) = h.get(field).and_then(Value::num) {
                out.insert(format!("hier.{field}"), (n, Gate::Exact));
            }
        }
    }
    out
}

/// Timings whose committed value is below this are noise, not signal:
/// sub-10ms stages swing well past any sane threshold between two
/// back-to-back runs on an idle machine (override: `BENCH_GATE_FLOOR_MS`).
const GATE_FLOOR_MS: f64 = 10.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!("usage: bench_gate <committed.json> <fresh.json> [<committed> <fresh> ...]");
        std::process::exit(2);
    }
    let pct: f64 = std::env::var("BENCH_GATE_PCT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(25.0);
    let floor_ms: f64 = std::env::var("BENCH_GATE_FLOOR_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(GATE_FLOOR_MS);
    let mut failures = 0u32;
    let mut gated = 0u32;
    for pair in args.chunks(2) {
        let (committed_path, fresh_path) = (&pair[0], &pair[1]);
        let read_metrics = |path: &str| {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            metrics(&parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}")))
        };
        let committed = read_metrics(committed_path);
        let fresh = read_metrics(fresh_path);
        println!(
            "== {committed_path} vs {fresh_path} (threshold {pct}%, noise floor {floor_ms} ms)"
        );
        for (path, &(old, gate)) in &committed {
            let Some(&(new, _)) = fresh.get(path) else {
                println!("  MISSING  {path} (in committed, not in fresh)");
                failures += 1;
                continue;
            };
            if gate == Gate::Exact {
                let verdict = if new == old {
                    gated += 1;
                    "ok"
                } else {
                    failures += 1;
                    "FAIL"
                };
                println!("  {verdict:>7}  {path}: {old} -> {new} (exact)");
                continue;
            }
            let delta_pct = if old.abs() < 1e-12 {
                0.0
            } else if gate == Gate::LargerBetter {
                (old - new) / old * 100.0 // positive = regression (slower)
            } else {
                (new - old) / old * 100.0
            };
            let gateable = gate == Gate::LargerBetter || old >= floor_ms;
            let verdict = if !gateable {
                "noise"
            } else if delta_pct > pct {
                failures += 1;
                "FAIL"
            } else {
                gated += 1;
                "ok"
            };
            println!("  {verdict:>7}  {path}: {old:.3} -> {new:.3} ({delta_pct:+.1}%)");
        }
    }
    println!("{gated} metrics gated, {failures} regressions beyond {pct}%");
    if failures > 0 {
        eprintln!("bench gate FAILED");
        std::process::exit(1);
    }
    println!("bench gate passed");
}
