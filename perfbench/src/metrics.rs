//! Metric catalog, summary statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports on an untraced run:
/// `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("conflict_weight", "weight"),
    ("area_increase_pct", "%"),
    ("proven_frac", "ratio"),
];

/// Per-layer metrics every traced run reports: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("layout.extract_ms", "ms"),
    ("layout.extract_exponent", "exponent"),
    ("layout.shifters", "count"),
    ("layout.merge_constraints", "count"),
    ("core.graph_build_ms", "ms"),
    ("core.graph_nodes", "count"),
    ("core.graph_edges", "count"),
    ("graph.crossings_ms", "ms"),
    ("graph.crossings", "count"),
    ("graph.planarize_ms", "ms"),
    ("graph.planarize_removed", "count"),
    ("graph.face_dual_ms", "ms"),
    ("core.bipartize_ms", "ms"),
    ("core.bipartize_conflicts", "count"),
    ("tjoin.closure_picks", "count"),
    ("tjoin.gadget_picks", "count"),
    ("core.detect_full_ms", "ms"),
    ("core.correct_plan_ms", "ms"),
    ("cover.components", "count"),
    ("cover.unproven_components", "count"),
    ("core.plan_cuts", "count"),
    ("core.grid_lines", "count"),
    ("core.flow_exact_frac", "ratio"),
    ("layout.apply_cuts_ms", "ms"),
    ("layout.assign_check_ms", "ms"),
    ("core.redetect_ms", "ms"),
    ("core.redetect_fallback_frac", "ratio"),
    ("core.overlaps_reused", "count"),
    ("core.pairs_rescanned", "count"),
    ("core.tiles_reused", "count"),
    ("core.tiles_rebuilt", "count"),
    ("core.solve_hit_ratio", "ratio"),
    ("service.detect_ms_p50", "ms"),
    ("service.apply_cuts_ms_p50", "ms"),
    ("service.request_ms_tail", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.queue_depth_mean", "count"),
    ("service.retries", "count"),
    ("service.rejected", "count"),
    ("service.cache_evictions", "count"),
    ("core.hier_detect_ms", "ms"),
    ("core.hier_flat_ms", "ms"),
    ("layout.flatten_ms", "ms"),
    ("core.hier_instances_reused", "count"),
    ("core.hier_solve_misses", "count"),
    ("gds.read_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Measured metric values by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Records `value` under `name` (the name must be in a catalog).
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Adds `value` to `name` (missing counts start at zero).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Merges `other` in, overwriting equal names.
    pub fn extend(&mut self, other: Metrics) {
        self.values.extend(other.values);
    }

    /// Recorded names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// Catalog entries missing from this set.
    pub fn missing(&self, catalog: &[(&str, &str)]) -> Vec<String> {
        catalog
            .iter()
            .filter(|(n, _)| !self.values.contains_key(*n))
            .map(|(n, _)| (*n).to_string())
            .collect()
    }
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Whether every output passed its oracle.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were shed, flagged unverified, or failed
    /// an oracle.
    pub failed: u64,
    /// Metric values.
    pub metrics: Metrics,
    /// Human-readable reasons for every failure (first few kept).
    pub failures: Vec<String>,
}

impl RunResult {
    /// Records a failed operation with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(reason);
        }
    }

    /// The final result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, with the catalog's units. A metric missing from the run
    /// or not finite makes the run incorrect.
    pub fn to_json(&self, catalog: &[(&str, &str)]) -> String {
        let mut correct = self.correct && self.failed == 0 && self.attempted > 0;
        let mut body = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    correct = false;
                    0.0
                }
            };
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        // A run that attempted nothing reports one failed attempt, so the
        // line never claims an empty success.
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
        )
    }
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of the p90/p95/p99/p99.9 percentiles that still has at
/// least ten samples above it, as `(percentile, value)`; `None` when even
/// p90 lacks them (fewer than 100 samples).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let q = [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|q| n * (1.0 - q / 100.0) >= 10.0)?;
    // Nearest-rank percentile.
    let rank = ((q / 100.0) * n).ceil().max(1.0) as usize;
    Some((q, v[rank - 1]))
}

/// Least-squares slope of `ln y` against `ln x`: the growth exponent of
/// `y` in `x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    sxy / sxx
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
