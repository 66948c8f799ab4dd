//! The benchmark's own tests: metric naming, declared-vs-emitted metrics,
//! oracle sensitivity, run-to-run determinism of counts and QoR, and the
//! host-speed calibration.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use aapsm_core::{run_flow, ConstraintKind, DetectConfig};
use aapsm_geom::Rect;
use aapsm_layout::{extract_phase_geometry, DesignRules, Layout};
use aapsm_perfbench::calib::{self, Calibrator};
use aapsm_perfbench::inputs::{self, Profile};
use aapsm_perfbench::metrics::{self, valid_name, Metrics, RunResult, END_TO_END, PER_LAYER};
use aapsm_perfbench::service_loop::{self, Cursors};
use aapsm_perfbench::workloads::{self, Workload};
use aapsm_perfbench::{detect_config, flow_config, oracle, tour};

const SEED: u64 = 5;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(seen.insert(*name), "duplicate metric name {name}");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
            "bad unit {unit} of {name}"
        );
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
    }
    assert!(!valid_name("bad name"));
    assert!(!valid_name(".leading_dot"));
    assert!(!valid_name(""));
}

#[test]
fn benchmark_json_declares_exactly_the_catalog() {
    let json = benchmark_json();
    let declared = json.matches("\"name\": ").count();
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .chain(Workload::ALL.iter().map(|w| w.name()))
        .collect();
    for n in &names {
        assert!(
            json.contains(&format!("\"name\": \"{n}\"")),
            "{n} is not declared in BENCHMARK.json"
        );
    }
    assert_eq!(declared, names.len(), "BENCHMARK.json declares extra names");
    for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
            "{n} is declared with another unit than {u}"
        );
    }
}

fn assert_complete(result: &RunResult, catalog: &[(&str, &str)], what: &str) {
    assert!(
        result.failures.is_empty() && result.failed == 0 && result.correct,
        "{what}: {:?}",
        result.failures
    );
    assert!(result.attempted > 0, "{what}: nothing attempted");
    assert_eq!(
        result.metrics.missing(catalog),
        Vec::<String>::new(),
        "{what}"
    );
    let line = result.to_json(catalog);
    assert!(line.starts_with("{\"correct\": true, "), "{what}: {line}");
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let p = Profile::tiny();
    for w in Workload::ALL {
        let run = workloads::run(w, SEED, 0.05, &p);
        assert_complete(&run, END_TO_END, w.name());
        let (traced, tracer) = tour::run(w, SEED, &p);
        assert_complete(&traced, PER_LAYER, w.name());
        assert!(!tracer.spans().is_empty());
    }
}

/// Metrics that must repeat exactly for one seed: counts and QoR, not
/// times or scheduling-dependent service figures.
fn deterministic(m: &Metrics) -> Vec<(String, f64)> {
    m.names()
        .filter(|n| {
            !n.ends_with("_ms")
                && !n.ends_with("_ms_p50")
                && !n.ends_with("_ms_tail")
                && !n.ends_with("_pct")
                && !n.starts_with("service.")
                && !matches!(
                    *n,
                    "layout.extract_exponent" | "ops_per_s" | "setup_s" | "peak_rss_mb"
                )
        })
        .map(|n| (n.to_string(), m.get(n).unwrap_or(f64::NAN)))
        .collect()
}

#[test]
fn same_seed_repeats_counts_and_qor_exactly() {
    let p = Profile::tiny();
    for w in Workload::ALL {
        let a = workloads::run(w, SEED, 0.05, &p);
        let b = workloads::run(w, SEED, 0.05, &p);
        for name in ["conflict_weight", "area_increase_pct", "proven_frac"] {
            assert_eq!(
                a.metrics.get(name),
                b.metrics.get(name),
                "{}: {name}",
                w.name()
            );
        }
        let (ta, _) = tour::run(w, SEED, &p);
        let (tb, _) = tour::run(w, SEED, &p);
        let da = deterministic(&ta.metrics);
        assert!(da.len() > 20, "{}: {da:?}", w.name());
        assert_eq!(da, deterministic(&tb.metrics), "{}", w.name());
    }
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let p = Profile::tiny();
    let rules = DesignRules::default();
    for w in Workload::ALL {
        assert_eq!(w.flat_designs(1, &p, &rules), w.flat_designs(1, &p, &rules));
    }
    assert_ne!(
        inputs::eco_designs(1, &p, &rules),
        inputs::eco_designs(2, &p, &rules)
    );
    assert_eq!(
        inputs::hier_input(1, &p, &rules).stream,
        inputs::hier_input(1, &p, &rules).stream
    );
}

fn small_design() -> Layout {
    let rules = DesignRules::default();
    inputs::dense_pool(SEED, &Profile::tiny(), &rules).swap_remove(0)
}

#[test]
fn flow_oracles_reject_corrupted_results() {
    let rules = DesignRules::default();
    let design = small_design();
    let good = run_flow(&design, &rules, &flow_config()).expect("flow");
    assert!(good.detection.conflict_count() > 0);
    assert_eq!(oracle::check_flow(&good, &rules), Ok(()));
    assert_eq!(oracle::check_same_flow(&good, &good.clone()), Ok(()));

    // The uncorrected input as "corrected" layout: not assignable.
    let mut bad = good.clone();
    bad.correction.modified = design.clone();
    assert!(oracle::check_flow(&bad, &rules).is_err());
    assert!(oracle::check_same_flow(&good, &bad).is_err());

    let mut unverified = good.clone();
    unverified.verified = false;
    assert!(oracle::check_flow(&unverified, &rules).is_err());
    assert!(oracle::check_same_flow(&good, &unverified).is_err());

    let mut other_plan = good.clone();
    other_plan.plan.cuts.pop();
    assert!(oracle::check_same_flow(&good, &other_plan).is_err());
}

#[test]
fn detection_oracle_rejects_corrupted_conflicts() {
    let rules = DesignRules::default();
    let config = detect_config();
    let design = small_design();
    let report = aapsm_core::detect_conflicts(&extract_phase_geometry(&design, &rules), &config);
    assert_eq!(
        oracle::check_detection(&design, &report.conflicts, &rules, &config),
        Ok(())
    );
    let mut dropped = report.conflicts.clone();
    dropped.pop();
    assert!(oracle::check_detection(&design, &dropped, &rules, &config).is_err());
    let mut reweighted = report.conflicts.clone();
    reweighted[0].weight += 1;
    assert!(oracle::check_detection(&design, &reweighted, &rules, &config).is_err());
    let mut moved = report.conflicts.clone();
    moved[0].constraint = ConstraintKind::Direct(usize::MAX);
    assert!(oracle::check_detection(&design, &moved, &rules, &config).is_err());
}

#[test]
fn hier_oracles_reject_corrupted_results() {
    let rules = DesignRules::default();
    let config = DetectConfig {
        parallelism: 1,
        ..DetectConfig::default()
    };
    let input = inputs::hier_input(SEED, &Profile::tiny(), &rules);
    let mut result = RunResult::default();
    let hier = workloads::decode_hier(&input, &mut result).expect("decodes");
    assert!(result.failures.is_empty(), "{:?}", result.failures);
    let report = aapsm_core::detect_hier(&hier, &rules, &config).expect("valid");
    assert_eq!(oracle::check_hier(&hier, &report, &rules, &config), Ok(()));
    let mut bad = report.clone();
    bad.report.conflicts.pop();
    assert!(oracle::check_hier(&hier, &bad, &rules, &config).is_err());

    // A decoded hierarchy missing one rectangle.
    let mut lossy = hier.clone();
    let leaf = lossy
        .cells
        .iter_mut()
        .find(|c| !c.rects.is_empty())
        .expect("a leaf cell");
    leaf.rects.pop();
    assert!(oracle::check_same_geometry(&lossy, &input.expected).is_err());
    let mut moved = hier.clone();
    let leaf = moved
        .cells
        .iter_mut()
        .find(|c| !c.rects.is_empty())
        .expect("a leaf cell");
    let r = leaf.rects[0];
    leaf.rects[0] = Rect::new(r.x_lo() + 1, r.y_lo(), r.x_hi() + 1, r.y_hi());
    assert!(oracle::check_same_geometry(&moved, &input.expected).is_err());
}

#[test]
fn service_oracle_rejects_a_corrupted_answer() {
    let rules = DesignRules::default();
    let sessions =
        service_loop::prepare(inputs::eco_designs(SEED, &Profile::tiny(), &rules), &rules);
    let mut result = RunResult::default();
    let eco = service_loop::start(&sessions, &rules, &mut result).expect("service starts");
    let mut cursors = Cursors::new(sessions.len());
    let (mut answers, _) =
        service_loop::drive(&eco, &sessions, &mut cursors, &mut result, None, |n, _| {
            n >= 12
        });
    assert!(answers.len() >= 12);
    service_loop::verify(&eco, &sessions, &answers, &rules, &mut result);
    assert_eq!(result.failed, 0, "{:?}", result.failures);

    answers[5].digest ^= 1;
    service_loop::verify(&eco, &sessions, &answers, &rules, &mut result);
    assert_eq!(result.failed, 1, "{:?}", result.failures);

    // An answer claiming a state the session never reached in that form.
    answers[5].digest ^= 1;
    let cut_answer = answers
        .iter()
        .position(|a| a.state > 0)
        .expect("a cut was applied");
    answers[cut_answer].state -= 1;
    let before = result.failed;
    service_loop::verify(&eco, &sessions, &answers, &rules, &mut result);
    assert!(result.failed > before, "{:?}", result.failures);
    service_loop::stop(eco, &mut result);
}

#[test]
fn result_line_has_exactly_the_declared_keys() {
    let mut r = RunResult {
        correct: true,
        attempted: 3,
        ..RunResult::default()
    };
    for (n, _) in END_TO_END {
        r.metrics.set(n, 1.5);
    }
    let line = r.to_json(END_TO_END);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"op_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}"));
    // A missing or non-finite metric makes the run incorrect.
    r.metrics.set("op_ms_p50", f64::NAN);
    assert!(r.to_json(END_TO_END).starts_with("{\"correct\": false"));
    let empty = RunResult::default();
    assert!(empty.to_json(END_TO_END).starts_with("{\"correct\": false"));
}

#[test]
fn calibration_factors_follow_the_nearby_samples() {
    let mut calib = Calibrator::new();
    std::thread::sleep(2 * calib::LOCAL + calib::INTERVAL);
    calib.tick();
    let samples = calib.samples();
    assert_eq!(samples.len(), 1 + 8, "one sample, then a full tick");
    let now = std::time::Instant::now();
    // Only the tick's samples are within LOCAL of now.
    let recent = calib::REFERENCE_MS / metrics::median(&samples[1..]);
    assert!((calib.factor_at(now) - recent).abs() < 1e-12);
    // Far from every sample, the nearest one calibrates.
    let later = now + 10 * calib::LOCAL;
    assert!((calib.factor_at(later) - calib::REFERENCE_MS / samples[8]).abs() < 1e-12);
    // A span holding no sample falls back to all of them.
    let all = calib::REFERENCE_MS / metrics::median(&samples);
    assert!((calib.factor_over(later, later) - all).abs() < 1e-12);
    assert!(calib.factor_at(now).is_finite() && calib.factor_at(now) > 0.0);
}

#[test]
fn calibrated_service_loop_samples_between_requests_and_stays_correct() {
    let rules = DesignRules::default();
    let sessions =
        service_loop::prepare(inputs::eco_designs(SEED, &Profile::tiny(), &rules), &rules);
    let mut result = RunResult::default();
    let eco = service_loop::start(&sessions, &rules, &mut result).expect("service starts");
    let mut cursors = Cursors::new(sessions.len());
    let mut calib = Calibrator::new();
    let before = calib.samples().len();
    let t0 = std::time::Instant::now();
    let (answers, window) = service_loop::drive(
        &eco,
        &sessions,
        &mut cursors,
        &mut result,
        Some(&mut calib),
        |n, t| n >= 12 && t >= 2 * calib::INTERVAL,
    );
    assert!(calib.samples().len() > before, "no sample was taken");
    assert!(window < t0.elapsed(), "the window must exclude the samples");
    service_loop::verify(&eco, &sessions, &answers, &rules, &mut result);
    assert_eq!(result.failed, 0, "{:?}", result.failures);
    service_loop::stop(eco, &mut result);
}
