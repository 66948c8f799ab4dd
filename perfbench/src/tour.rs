//! The traced run: the flow reassembled from public calls, with a span
//! around each call into a layer.
//!
//! Every traced run reports every per-layer metric. Layers the workload
//! drives are measured on the workload's own inputs; the others on the
//! input of the workload that owns them, generated from the same seed:
//!
//! * flow layers (extraction, graph build, crossings, planarize, face/dual,
//!   bipartize, detection, correction planning, cut application,
//!   re-detection, assignment check) — on the workload's flat designs;
//! * the extraction growth exponent — on row halvings of the `chip_flow`
//!   design;
//! * the service layer — on the `eco_session` sessions (all of them, over
//!   [`ECO_TRACED_REQUESTS`] requests, for `eco_session`; the first
//!   [`PROBE_SESSIONS`] over [`PROBE_REQUESTS`] requests otherwise);
//! * hierarchy and GDS layers — on the `hier_grid` stream.
//!
//! For `eco_session` the re-detection metrics come from its own cut
//! requests replayed on bare engines; for the other workloads from the
//! flows' re-detection rounds.

use crate::inputs::{self, Profile};
use crate::metrics::{loglog_slope, mean, median, tail, Metrics, RunResult};
use crate::oracle;
use crate::service_loop::{self, Answer, Cursors, Kind};
use crate::trace::Tracer;
use crate::workloads::{self, Workload};
use crate::{detect_config, flow_config, tiles_per_axis, PIPELINE_PARALLELISM};
use aapsm_core::{
    bipartize_with, build_conflict_graph_par, detect_conflicts, detect_hier, plan_correction,
    run_flow, tjoin_method_census, BipartizeMethod, FlowResult, GraphKind, RedetectEngine,
    RedetectStats,
};
use aapsm_gds::read_gds_hier;
use aapsm_graph::{component_embeddings, crossing_pairs_par, planarize_with_crossings};
use aapsm_layout::{apply_cuts, check_assignable, extract_phase_geometry_par, DesignRules, Layout};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Requests traced on the full `eco_session` service.
pub const ECO_TRACED_REQUESTS: usize = 300;
/// Sessions of the service probe run for the other workloads.
pub const PROBE_SESSIONS: usize = 4;
/// Requests of the service probe run for the other workloads.
pub const PROBE_REQUESTS: usize = 40;
/// Untraced flows per design for the overhead comparison.
const UNTRACED_FLOWS: usize = 2;

/// Runs the traced tour for `workload` and returns every per-layer metric
/// with the spans it recorded.
pub fn run(workload: Workload, seed: u64, p: &Profile) -> (RunResult, Tracer) {
    let rules = DesignRules::default();
    let mut t = Tracer::new();
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let designs = workload.flat_designs(seed, p, &rules);
    let mut redetects = flow_layers(&designs, &rules, &mut t, &mut result);
    exponent(seed, p, &rules, &mut t, &mut result.metrics);
    let eco = workload == Workload::EcoSession;
    let service_redetects = service_layer(seed, p, eco, &rules, &mut t, &mut result);
    if eco {
        redetects = service_redetects;
    }
    redetect_metrics(&redetects, &mut result.metrics);
    hier_layers(seed, p, &rules, &mut t, &mut result);
    (result, t)
}

/// Sum of each span's duration per operation, for spans named `name`.
fn per_op(t: &Tracer, name: &str) -> Vec<f64> {
    let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in t.spans().iter().filter(|s| s.name == name) {
        *by_op.entry(s.op).or_insert(0.0) += s.ms();
    }
    by_op.into_values().collect()
}

/// One re-detection: its time and engine statistics.
struct Redetect {
    ms: f64,
    stats: RedetectStats,
}

/// Stage replay plus a traced, reassembled flow on every design, and
/// untraced `run_flow`s for the overhead comparison and the oracle.
fn flow_layers(
    designs: &[Layout],
    rules: &DesignRules,
    t: &mut Tracer,
    result: &mut RunResult,
) -> Vec<Redetect> {
    let config = detect_config();
    let flow_cfg = flow_config();
    let options = crate::correction_options();
    let mut metrics = Metrics::default();
    let m = &mut metrics;
    let mut redetects = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut exact = Vec::new();
    for (i, design) in designs.iter().enumerate() {
        // Stage replay: the detection front and back end, call by call.
        let op = t.new_op();
        t.span("stages", op, |t| {
            let geom = t.span("layout.extract", op, |_| {
                extract_phase_geometry_par(design, rules, PIPELINE_PARALLELISM)
            });
            m.add("layout.shifters", geom.shifters.len() as f64);
            m.add("layout.merge_constraints", geom.overlaps.len() as f64);
            let mut cg = t.span("core.graph_build", op, |_| {
                build_conflict_graph_par(&geom, GraphKind::PhaseConflict, PIPELINE_PARALLELISM)
            });
            m.add("core.graph_nodes", cg.graph.node_count() as f64);
            m.add("core.graph_edges", cg.graph.alive_edge_count() as f64);
            let crossings = t.span("graph.crossings", op, |_| {
                crossing_pairs_par(&cg.graph, PIPELINE_PARALLELISM)
            });
            m.add("graph.crossings", crossings.pairs.len() as f64);
            let removed = t.span("graph.planarize", op, |_| {
                planarize_with_crossings(&mut cg.graph, config.planarize_order, &crossings)
            });
            m.add("graph.planarize_removed", removed.removed.len() as f64);
            t.span("graph.face_dual", op, |_| {
                black_box(component_embeddings(&cg.graph, PIPELINE_PARALLELISM))
            });
            let census = tjoin_method_census(&cg.graph, config.blocks);
            m.add("tjoin.closure_picks", census.closure as f64);
            m.add("tjoin.gadget_picks", census.gadget as f64);
            t.span("core.bipartize", op, |_| {
                black_box(bipartize_with(
                    &cg.graph,
                    BipartizeMethod::OptimalDual {
                        tjoin: config.tjoin,
                        blocks: config.blocks,
                    },
                    PIPELINE_PARALLELISM,
                ))
            });
        });

        // The flow, reassembled: detect, then plan → apply → re-detect
        // until no conflict is left, then the assignment check.
        let op = t.new_op();
        let start = Instant::now();
        let (corrected, first, verified) = t.span("flow", op, |t| {
            let mut engine = RedetectEngine::with_tiles(*rules, config.clone(), tiles_per_axis());
            let mut current = design.clone();
            let mut report = t.span("core.detect_full", op, |_| engine.detect_full(&current));
            let first = report.clone();
            m.add(
                "core.bipartize_conflicts",
                report.stats.bipartize_conflicts as f64,
            );
            for round in 0..flow_cfg.max_rounds {
                let Some(geometry) = engine.geometry() else {
                    break;
                };
                let plan = t.span("core.correct_plan", op, |_| {
                    plan_correction(geometry, &report.conflicts, rules, &options)
                });
                if round == 0 {
                    m.add("cover.components", plan.cover_components as f64);
                    m.add(
                        "cover.unproven_components",
                        (plan.cover_components - plan.cover_optimal_components) as f64,
                    );
                    m.add("core.plan_cuts", plan.cuts.len() as f64);
                    m.add("core.grid_lines", plan.grid_line_count() as f64);
                }
                if report.conflict_count() == 0 || !plan.uncorrectable.is_empty() {
                    break;
                }
                current = t.span("layout.apply_cuts", op, |_| {
                    apply_cuts(&current, &plan.cuts)
                });
                let r0 = Instant::now();
                report = t.span("core.redetect", op, |_| {
                    engine.redetect_after_correction(&current, &plan.cuts)
                });
                redetects.push(Redetect {
                    ms: crate::ms(r0.elapsed()),
                    stats: *engine.last_stats(),
                });
            }
            let verified = t.span("layout.assign_check", op, |_| {
                engine
                    .geometry()
                    .is_some_and(|g| check_assignable(g).is_ok())
            });
            (current, first, verified && report.conflict_count() == 0)
        });
        traced_ms.push(crate::ms(start.elapsed()));
        result.attempted += 1;

        // Untraced baseline and oracle: the same flow through `run_flow`.
        // The first is verified from scratch, the others must repeat it,
        // and the reassembled flow must agree with it.
        let mut times = Vec::new();
        let mut reference: Option<FlowResult> = None;
        for _ in 0..UNTRACED_FLOWS {
            let start = Instant::now();
            let outcome = run_flow(design, rules, &flow_cfg);
            times.push(crate::ms(start.elapsed()));
            result.attempted += 1;
            let flow = match outcome {
                Ok(flow) => flow,
                Err(e) => {
                    result.fail(format!("design {i}: run_flow: {e}"));
                    continue;
                }
            };
            exact.push(if flow.all_exact() { 1.0 } else { 0.0 });
            let checked = match &reference {
                Some(r) => oracle::check_same_flow(r, &flow),
                None => oracle::check_flow(&flow, rules),
            };
            if let Err(e) = checked {
                result.fail(format!("design {i}: {e}"));
            }
            if flow.correction.modified != corrected
                || flow.detection.conflicts != first.conflicts
                || !verified
            {
                result.fail(format!(
                    "design {i}: reassembled flow differs from run_flow"
                ));
            }
            reference.get_or_insert(flow);
        }
        untraced_ms.push(median(&times));
    }
    for name in [
        "layout.extract",
        "core.graph_build",
        "graph.crossings",
        "graph.planarize",
        "graph.face_dual",
        "core.bipartize",
        "core.detect_full",
        "core.correct_plan",
        "layout.apply_cuts",
        "layout.assign_check",
    ] {
        m.set(&format!("{name}_ms"), median(&per_op(t, name)));
    }
    m.set("core.flow_exact_frac", mean(&exact));
    let untraced: f64 = untraced_ms.iter().sum();
    let traced: f64 = traced_ms.iter().sum();
    m.set(
        "trace.overhead_pct",
        (traced / untraced.max(1e-9) - 1.0) * 100.0,
    );
    result.metrics.extend(metrics);
    redetects
}

/// Extraction time over row halvings of the `chip_flow` design, fitted to
/// a growth exponent in polygon count.
fn exponent(seed: u64, p: &Profile, rules: &DesignRules, t: &mut Tracer, m: &mut Metrics) {
    let mut points = Vec::new();
    let mut rows = p.chip_rows;
    for k in 0..p.exponent_points {
        let layout = inputs::chip_design(seed, p, rows.max(1), rules);
        // Smaller designs are timed more often so each point weighs alike.
        let reps = 1usize << k.min(2);
        let op = t.new_op();
        for _ in 0..reps {
            t.span("layout.extract_sweep", op, |_| {
                black_box(extract_phase_geometry_par(
                    &layout,
                    rules,
                    PIPELINE_PARALLELISM,
                ))
            });
        }
        let times: Vec<f64> = t
            .spans()
            .iter()
            .filter(|s| s.op == op)
            .map(crate::trace::Span::ms)
            .collect();
        points.push((layout.len() as f64, median(&times)));
        rows /= 2;
    }
    m.set("layout.extract_exponent", loglog_slope(&points));
}

/// Traced requests on a resident service; returns the re-detections of
/// the cut requests replayed on bare engines.
fn service_layer(
    seed: u64,
    p: &Profile,
    full: bool,
    rules: &DesignRules,
    t: &mut Tracer,
    result: &mut RunResult,
) -> Vec<Redetect> {
    let mut designs = inputs::eco_designs(seed, p, rules);
    let requests = if full {
        ECO_TRACED_REQUESTS
    } else {
        designs.truncate(PROBE_SESSIONS);
        PROBE_REQUESTS
    };
    let sessions = service_loop::prepare(designs, rules);
    let Some(eco) = service_loop::start(&sessions, rules, result) else {
        result.correct = false;
        return Vec::new();
    };
    let before = eco.service.cache_stats();
    let mut cursors = Cursors::new(sessions.len());
    let (answers, _) = service_loop::drive(&eco, &sessions, &mut cursors, result, None, |n, _| {
        n >= requests
    });
    let after = eco.service.cache_stats();
    let snapshot = eco.service.metrics();
    service_loop::verify(&eco, &sessions, &answers, rules, result);
    service_loop::stop(eco, result);

    for a in &answers {
        let op = t.new_op();
        let name = match a.kind {
            Kind::Detect => "service.detect",
            Kind::ApplyCuts => "service.apply_cuts",
        };
        t.record(name, op, a.start, a.end);
    }
    let m = &mut result.metrics;
    let of = |k: Kind| -> Vec<f64> {
        answers
            .iter()
            .filter(|a| a.kind == k)
            .map(Answer::ms)
            .collect()
    };
    m.set("service.detect_ms_p50", median(&of(Kind::Detect)));
    m.set("service.apply_cuts_ms_p50", median(&of(Kind::ApplyCuts)));
    let all: Vec<f64> = answers.iter().map(Answer::ms).collect();
    // Fewer than 100 requests leave no percentile with ten samples beyond
    // it; the maximum stands in.
    let (label, value) = match tail(&all) {
        Some((q, v)) => (format!("p{q}"), v),
        None => ("max".to_string(), all.iter().copied().fold(0.0, f64::max)),
    };
    eprintln!(
        "service tail: {label} of {} requests = {value:.3} ms",
        all.len()
    );
    m.set("service.request_ms_tail", value);
    let depths: Vec<f64> = answers.iter().map(|a| a.depth as f64).collect();
    m.set("service.queue_depth_mean", mean(&depths));
    m.set("service.retries", snapshot.retries as f64);
    m.set(
        "service.rejected",
        (snapshot.rejected_overload + snapshot.rejected_breaker + snapshot.rejected_shutdown)
            as f64,
    );
    m.set(
        "service.cache_evictions",
        (after.evictions - before.evictions) as f64,
    );
    let replayed = service_loop::replay(&sessions, &answers, rules);
    let overhead: Vec<f64> = answers
        .iter()
        .zip(&replayed)
        .map(|(a, r)| a.ms() - r)
        .collect();
    m.set("service.overhead_ms", median(&overhead));
    answers
        .iter()
        .zip(&replayed)
        .filter(|(a, _)| a.kind == Kind::ApplyCuts)
        .map(|(a, &ms)| Redetect { ms, stats: a.stats })
        .collect()
}

fn redetect_metrics(redetects: &[Redetect], m: &mut Metrics) {
    let ms: Vec<f64> = redetects.iter().map(|r| r.ms).collect();
    m.set("core.redetect_ms", median(&ms));
    let n = redetects.len().max(1) as f64;
    let fallbacks = redetects
        .iter()
        .filter(|r| r.stats.extraction_fallback || !r.stats.incremental)
        .count();
    m.set("core.redetect_fallback_frac", fallbacks as f64 / n);
    let sum = |f: fn(&RedetectStats) -> usize| -> f64 {
        redetects.iter().map(|r| f(&r.stats) as f64).sum()
    };
    m.set("core.overlaps_reused", sum(|s| s.reused_overlaps));
    m.set("core.pairs_rescanned", sum(|s| s.rescanned_pairs));
    m.set("core.tiles_reused", sum(|s| s.tiles_reused));
    m.set("core.tiles_rebuilt", sum(|s| s.tiles_rebuilt));
    let hits = sum(|s| s.solve_hits);
    let misses = sum(|s| s.solve_misses);
    m.set(
        "core.solve_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
}

/// GDS decode, flatten, hierarchical detection and its flat comparator on
/// the `hier_grid` stream.
fn hier_layers(
    seed: u64,
    p: &Profile,
    rules: &DesignRules,
    t: &mut Tracer,
    result: &mut RunResult,
) {
    let config = detect_config();
    let input = inputs::hier_input(seed, p, rules);
    for _ in 0..workloads::SETUP_REPS {
        let op = t.new_op();
        if let Err(e) = t.span("gds.read", op, |_| read_gds_hier(&input.stream)) {
            result.fail(format!("GDS decode: {e}"));
        }
    }
    let Some(hier) = workloads::decode_hier(&input, result) else {
        result.correct = false;
        return;
    };
    for _ in 0..workloads::SETUP_REPS {
        let op = t.new_op();
        let _ = t.span("layout.flatten", op, |_| black_box(hier.flatten()));
    }
    let mut reports = Vec::new();
    let mut flats = Vec::new();
    for _ in 0..2 {
        let op = t.new_op();
        result.attempted += 1;
        match t.span("core.hier_detect", op, |_| {
            detect_hier(&hier, rules, &config)
        }) {
            Ok(r) => reports.push(r),
            Err(e) => result.fail(format!("detect_hier: {e}")),
        }
        let op = t.new_op();
        let flat = t.span("core.hier_flat", op, |_| {
            hier.flatten().map(|flat| {
                let geom = extract_phase_geometry_par(&flat, rules, PIPELINE_PARALLELISM);
                detect_conflicts(&geom, &config)
            })
        });
        match flat {
            Ok(r) => flats.push(r),
            Err(e) => result.fail(format!("flatten: {e}")),
        }
    }
    for (h, f) in reports.iter().zip(&flats) {
        if h.report.conflicts != f.conflicts {
            result.fail("detect_hier differs from flatten → extract → detect".into());
        }
    }
    let m = &mut result.metrics;
    if let Some(r) = reports.first() {
        m.set("core.hier_instances_reused", r.hier.instances_reused as f64);
        m.set("core.hier_solve_misses", r.hier.solve_misses as f64);
    }
    for name in [
        "gds.read",
        "layout.flatten",
        "core.hier_detect",
        "core.hier_flat",
    ] {
        m.set(&format!("{name}_ms"), median(&per_op(t, name)));
    }
}
