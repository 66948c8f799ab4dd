//! The four workloads and their untraced, end-to-end runs.
//!
//! A run sets up once, times operations for the requested number of
//! seconds, samples peak memory, and then repeats the set-up to report
//! its median time: the repeats come after the window so that their
//! memory does not count as the workload's. Every output is checked with
//! an oracle from [`crate::oracle`] once the window is over. The timings
//! are calibrated against a reference kernel sampled between operations
//! and set-ups ([`crate::calib`]); standard error carries the raw ones.

use crate::calib::Calibrator;
use crate::inputs::{self, Profile};
use crate::metrics::{mean, median, peak_rss_mb, RunResult};
use crate::oracle;
use crate::service_loop::{self, Cursors, Kind};
use crate::{detect_config, flow_config, PIPELINE_PARALLELISM};
use aapsm_core::{detect_hier, run_flow, FlowError, FlowResult, HierDetectReport};
use aapsm_gds::read_gds_hier;
use aapsm_layout::{extract_phase_geometry_par, DesignRules, HierLayout, Layout};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Set-ups per run for workloads whose set-up is short.
const SHORT_SETUP_REPS: usize = 9;

/// Fewest operations a run times, however short `--seconds` is.
pub const MIN_OPS: usize = 3;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Serial `run_flow` on one sparse-conflict ~80K-polygon chip.
    ChipFlow,
    /// Serial `run_flow` over conflict-dense mid-size suite designs.
    DenseFlow,
    /// A resident service applying cuts one at a time across sessions.
    EcoSession,
    /// `detect_hier` on a decoded hierarchical GDSII stream.
    HierGrid,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ChipFlow,
        Workload::DenseFlow,
        Workload::EcoSession,
        Workload::HierGrid,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChipFlow => "chip_flow",
            Workload::DenseFlow => "dense_flow",
            Workload::EcoSession => "eco_session",
            Workload::HierGrid => "hier_grid",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The flat designs the workload's flows run on (for `eco_session` the
    /// first session designs, for `hier_grid` the flattened stream).
    pub fn flat_designs(self, seed: u64, p: &Profile, rules: &DesignRules) -> Vec<Layout> {
        match self {
            Workload::ChipFlow => vec![inputs::chip_design(seed, p, p.chip_rows, rules)],
            Workload::DenseFlow => inputs::dense_pool(seed, p, rules),
            Workload::EcoSession => {
                let mut d = inputs::eco_designs(seed, p, rules);
                d.truncate(2);
                d
            }
            Workload::HierGrid => {
                let h = inputs::hier_input(seed, p, rules);
                h.expected.flatten().map(|l| vec![l]).unwrap_or_default()
            }
        }
    }
}

/// Runs `workload` untraced for about `seconds` and reports every
/// end-to-end metric.
pub fn run(workload: Workload, seed: u64, seconds: f64, p: &Profile) -> RunResult {
    let rules = DesignRules::default();
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let mut calib = Calibrator::new();
    let c = &mut calib;
    match workload {
        Workload::ChipFlow | Workload::DenseFlow => {
            run_flows(workload, seed, seconds, p, &rules, c, &mut result)
        }
        Workload::EcoSession => run_eco(seed, seconds, p, &rules, c, &mut result),
        Workload::HierGrid => run_hier(seed, seconds, p, &rules, c, &mut result),
    }
    result
}

/// Durations of one class of operations: when each ended, and its ms.
type Class = Vec<(Instant, f64)>;

/// Times operations round-robin over `n` inputs until `seconds` have
/// passed, at least [`MIN_OPS`] ran and every input ran equally often,
/// sampling the calibration kernel between operations. Returns the
/// operations of each input and the window length without the kernel
/// samples.
fn timed_cycles(
    n: usize,
    seconds: f64,
    calib: &mut Calibrator,
    mut op: impl FnMut(usize) -> f64,
) -> (Vec<Class>, Duration) {
    let t0 = Instant::now();
    let spent0 = calib.spent();
    let mut times = vec![Vec::new(); n];
    let mut i = 0usize;
    while t0.elapsed().as_secs_f64() < seconds || i < MIN_OPS || !i.is_multiple_of(n) {
        let ms = op(i % n) * 1e3;
        times[i % n].push((Instant::now(), ms));
        i += 1;
        calib.tick();
    }
    (times, t0.elapsed() - (calib.spent() - spent0))
}

/// Records the window's metrics: `op_ms_p50` is the median calibrated
/// operation time of each class (a design of the pool, a request kind),
/// averaged over the classes, since a plain median over a mix of classes
/// with unlike costs jumps between them as the mix shifts by one
/// operation. `ops_per_s` is calibrated by the kernel samples taken in
/// the window. Peak memory is sampled here, before the set-up repeats and
/// the oracles.
fn record_window(result: &mut RunResult, classes: &[Class], window: Duration, calib: &Calibrator) {
    let mut all: Vec<f64> = classes.iter().flatten().map(|&(_, ms)| ms).collect();
    all.sort_by(f64::total_cmp);
    let q = |f: f64| all[((all.len() - 1) as f64 * f).round() as usize];
    eprintln!(
        "ops {} over {:.2} s: min {:.3} p10 {:.3} p50 {:.3} p90 {:.3} max {:.3} ms",
        all.len(),
        window.as_secs_f64(),
        q(0.0),
        q(0.1),
        q(0.5),
        q(0.9),
        q(1.0),
    );
    let medians = |scaled: bool| -> Vec<f64> {
        classes
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| {
                let ms: Vec<f64> = c
                    .iter()
                    .map(|&(end, ms)| {
                        if scaled {
                            ms * calib.factor_at(end)
                        } else {
                            ms
                        }
                    })
                    .collect();
                median(&ms)
            })
            .collect()
    };
    let (raw, calibrated) = (medians(false), medians(true));
    let ends = classes.iter().flatten().map(|&(end, _)| end);
    let factor = match (ends.clone().min(), ends.max()) {
        (Some(from), Some(to)) => calib.factor_over(from, to),
        _ => 1.0,
    };
    let raw_rate = all.len() as f64 / window.as_secs_f64();
    eprintln!(
        "per-class medians raw {raw:?} ms, calibrated {calibrated:?} ms; raw ops_per_s \
         {raw_rate:?}, window factor {factor:.4}"
    );
    let m = &mut result.metrics;
    m.set("op_ms_p50", mean(&calibrated));
    m.set("ops_per_s", raw_rate / factor);
    m.set("peak_rss_mb", peak_rss_mb());
}

/// Records `setup_s`, the median calibrated set-up: when each ended, and
/// its seconds.
fn record_setups(result: &mut RunResult, setups: &[(Instant, f64)], calib: &Calibrator) {
    let raw: Vec<f64> = setups.iter().map(|&(_, s)| s).collect();
    let calibrated: Vec<f64> = setups
        .iter()
        .map(|&(end, s)| s * calib.factor_at(end))
        .collect();
    eprintln!("set-ups raw {raw:?} s, calibrated {calibrated:?} s");
    result.metrics.set("setup_s", median(&calibrated));
}

/// Seconds `f` takes, with its output.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Checks a flow against its design's verified reference.
fn check_flow_op(
    i: usize,
    outcome: Result<FlowResult, FlowError>,
    reference: Option<&FlowResult>,
    result: &mut RunResult,
) {
    match (outcome, reference) {
        (Ok(r), Some(reference)) => {
            if let Err(e) = oracle::check_same_flow(reference, &r) {
                result.fail(format!("design {i}: {e}"));
            }
        }
        (Ok(_), None) => result.fail(format!("design {i}: no verified reference")),
        (Err(e), _) => result.fail(format!("design {i}: run_flow: {e}")),
    }
}

fn run_flows(
    workload: Workload,
    seed: u64,
    seconds: f64,
    p: &Profile,
    rules: &DesignRules,
    calib: &mut Calibrator,
    result: &mut RunResult,
) {
    let config = flow_config();
    // Set-up: generate the designs and warm up. A `dense_flow` set-up runs
    // one untimed flow per design, and the first set-up's results are the
    // references every later flow must repeat. A `chip_flow` flow takes
    // seconds, so its set-up warms up with one extraction and the first
    // timed flow becomes the reference.
    let warm_flows = workload == Workload::DenseFlow;
    let setup = || -> (Vec<Layout>, Vec<Result<FlowResult, FlowError>>) {
        let designs = workload.flat_designs(seed, p, rules);
        let warm = if warm_flows {
            designs
                .iter()
                .map(|d| run_flow(d, rules, &config))
                .collect()
        } else {
            for d in &designs {
                black_box(extract_phase_geometry_par(d, rules, PIPELINE_PARALLELISM));
            }
            Vec::new()
        };
        (designs, warm)
    };
    let (first, (designs, warm)) = timed(setup);
    let mut setups = vec![(Instant::now(), first)];
    calib.tick();
    let mut refs: Vec<Option<FlowResult>> = vec![None; designs.len()];
    for (i, r) in warm.into_iter().enumerate() {
        match r {
            Ok(flow) => refs[i] = Some(flow),
            Err(e) => result.fail(format!("design {i}: warm-up run_flow: {e}")),
        }
    }

    let (classes, window) = timed_cycles(designs.len(), seconds, calib, |i| {
        let (took, outcome) = timed(|| run_flow(&designs[i], rules, &config));
        result.attempted += 1;
        match outcome {
            Ok(flow) if !warm_flows && refs[i].is_none() => refs[i] = Some(flow),
            outcome => check_flow_op(i, outcome, refs[i].as_ref(), result),
        }
        took
    });
    record_window(result, &classes, window, calib);

    let reps = if workload == Workload::DenseFlow {
        SHORT_SETUP_REPS
    } else {
        SETUP_REPS
    };
    for _ in 1..reps {
        let (secs, (again, warm)) = timed(setup);
        setups.push((Instant::now(), secs));
        calib.tick();
        if again != designs {
            result.fail("inputs differ between set-ups".into());
        }
        for (i, outcome) in warm.into_iter().enumerate() {
            check_flow_op(i, outcome, refs[i].as_ref(), result);
        }
    }
    record_setups(result, &setups, calib);

    // Every flow repeated its design's reference; verify the references.
    let (mut weight, mut area, mut comps, mut proven) = (0.0, 0.0, 0usize, 0usize);
    for (i, r) in refs.iter().enumerate() {
        let Some(r) = r else { continue };
        if let Err(e) = oracle::check_flow(r, rules) {
            result.fail(format!("design {i}: {e}"));
        }
        if let Err(e) =
            oracle::check_detection(&designs[i], &r.detection.conflicts, rules, &detect_config())
        {
            result.fail(format!("design {i}: first-round detection: {e}"));
        }
        weight += r.detection.total_weight() as f64;
        area += r.correction.area_increase_pct;
        comps += r.plan.cover_components;
        proven += r.plan.cover_optimal_components;
    }
    let n = designs.len().max(1) as f64;
    result.metrics.set("conflict_weight", weight / n);
    result.metrics.set("area_increase_pct", area / n);
    result
        .metrics
        .set("proven_frac", proven as f64 / comps.max(1) as f64);
}

fn run_eco(
    seed: u64,
    seconds: f64,
    p: &Profile,
    rules: &DesignRules,
    calib: &mut Calibrator,
    result: &mut RunResult,
) {
    let (secs, sessions) =
        timed(|| service_loop::prepare(inputs::eco_designs(seed, p, rules), rules));
    eprintln!("eco: planned {} sessions in {secs:.2} s", sessions.len());
    // Set-up: generate the inputs (they must repeat), start the service,
    // open every session and warm it with one checked `Detect`.
    let setup = |result: &mut RunResult| {
        if inputs::eco_designs(seed, p, rules)
            .iter()
            .zip(&sessions)
            .any(|(d, s)| *d != s.design)
        {
            result.fail("eco_session inputs differ between set-ups".into());
        }
        service_loop::start(&sessions, rules, result)
    };
    let (first, eco) = timed(|| setup(result));
    let mut setups = vec![(Instant::now(), first)];
    let Some(eco) = eco else {
        result.correct = false;
        return;
    };
    let warm = eco.service.cache_stats();
    let mut cursors = Cursors::new(sessions.len());
    let (answers, window) = service_loop::drive(
        &eco,
        &sessions,
        &mut cursors,
        result,
        Some(calib),
        |n, t| t.as_secs_f64() >= seconds && n >= MIN_OPS,
    );
    let classes: Vec<Class> = [Kind::Detect, Kind::ApplyCuts]
        .iter()
        .map(|k| {
            answers
                .iter()
                .filter(|a| a.kind == *k)
                .map(|a| (a.end, a.ms()))
                .collect()
        })
        .collect();
    record_window(result, &classes, window, calib);
    let end = eco.service.cache_stats();
    eprintln!(
        "eco: solve cache {} of {} entries after warm-up; window hits {} misses {} evictions {}",
        warm.entries,
        warm.capacity,
        end.hits - warm.hits,
        end.misses - warm.misses,
        end.evictions - warm.evictions
    );
    let (secs, ()) = timed(|| service_loop::verify(&eco, &sessions, &answers, rules, result));
    eprintln!("eco: verified {} answers in {secs:.2} s", answers.len());
    service_loop::stop(eco, result);

    for _ in 1..SETUP_REPS {
        let (secs, eco) = timed(|| setup(result));
        setups.push((Instant::now(), secs));
        match eco {
            Some(eco) => service_loop::stop(eco, result),
            None => result.correct = false,
        }
        calib.tick();
    }
    record_setups(result, &setups, calib);

    let (weight, area, proven) = service_loop::qor(&sessions);
    result.metrics.set("conflict_weight", weight);
    result.metrics.set("area_increase_pct", area);
    result.metrics.set("proven_frac", proven);
}

/// Decodes the `hier_grid` stream and checks it against the hierarchy it
/// was built from.
pub fn decode_hier(input: &inputs::HierInput, result: &mut RunResult) -> Option<HierLayout> {
    match read_gds_hier(&input.stream) {
        Ok(read) => {
            if read.total_skipped() != 0 {
                result.fail(format!(
                    "GDS reader skipped {} records",
                    read.total_skipped()
                ));
            }
            if let Err(e) = oracle::check_same_geometry(&read.hier, &input.expected) {
                result.fail(e);
            }
            Some(read.hier)
        }
        Err(e) => {
            result.fail(format!("GDS decode: {e}"));
            None
        }
    }
}

fn run_hier(
    seed: u64,
    seconds: f64,
    p: &Profile,
    rules: &DesignRules,
    calib: &mut Calibrator,
    result: &mut RunResult,
) {
    let config = detect_config();
    // Set-up: encode the stream, decode it, and warm up with one
    // `detect_hier`; the first set-up's result is the reference.
    let setup = |result: &mut RunResult| -> Option<(HierLayout, HierDetectReport)> {
        let input = inputs::hier_input(seed, p, rules);
        let hier = decode_hier(&input, result)?;
        match detect_hier(&hier, rules, &config) {
            Ok(report) => Some((hier, report)),
            Err(e) => {
                result.fail(format!("warm-up detect_hier: {e}"));
                None
            }
        }
    };
    let (first, outcome) = timed(|| setup(result));
    let mut setups = vec![(Instant::now(), first)];
    calib.tick();
    let Some((hier, reference)) = outcome else {
        result.correct = false;
        return;
    };
    let (classes, window) = timed_cycles(1, seconds, calib, |_| {
        let (took, outcome) = timed(|| detect_hier(&hier, rules, &config));
        result.attempted += 1;
        match outcome {
            Ok(r) if r.report.conflicts == reference.report.conflicts => {}
            Ok(_) => result.fail("detect_hier differs from the verified reference".into()),
            Err(e) => result.fail(format!("detect_hier: {e}")),
        }
        took
    });
    record_window(result, &classes, window, calib);

    for _ in 1..SHORT_SETUP_REPS {
        let (secs, outcome) = timed(|| setup(result));
        setups.push((Instant::now(), secs));
        calib.tick();
        match outcome {
            Some((_, r)) if r.report.conflicts == reference.report.conflicts => {}
            _ => result.fail("set-up did not repeat the reference detection".into()),
        }
    }
    record_setups(result, &setups, calib);

    if let Err(e) = oracle::check_hier(&hier, &reference, rules, &config) {
        result.fail(e);
    }
    result
        .metrics
        .set("conflict_weight", reference.report.total_weight() as f64);
    // QoR of correcting the decoded design: one untimed, verified flow on
    // the flattened layout.
    match hier
        .flatten()
        .map(|flat| run_flow(&flat, rules, &flow_config()))
    {
        Ok(Ok(flow)) => {
            if let Err(e) = oracle::check_flow(&flow, rules) {
                result.fail(format!("hier_grid correction: {e}"));
            }
            result
                .metrics
                .set("area_increase_pct", flow.correction.area_increase_pct);
            result.metrics.set(
                "proven_frac",
                flow.plan.cover_optimal_components as f64
                    / flow.plan.cover_components.max(1) as f64,
            );
        }
        Ok(Err(e)) => result.fail(format!("hier_grid correction: {e}")),
        Err(e) => result.fail(format!("hier_grid flatten: {e}")),
    }
}
