//! Property tests of the decompose-then-solve correction planner:
//!
//! * **Parallel equivalence** — `plan_correction` is bit-identical (the
//!   whole [`CorrectionPlan`], not merely the weight) across `parallelism`
//!   ∈ {0, 1, 2, 4} on fixtures and random synthetic layouts, mirroring
//!   the detection-side suites in `parallel_equivalence.rs`.
//! * **Coverage soundness** — every conflict the plan claims in
//!   [`CorrectionPlan::corrected`] is actually resolved: after
//!   `apply_correction` + re-extraction of the modified layout, no overlap
//!   between the same two shifters (identified by their stable
//!   `(feature, side)` keys — cuts never change feature order or
//!   criticality) survives. Cut-*created* conflicts are legal (the
//!   multi-round flow handles them); covered-but-surviving ones are not.
//! * **Truth-telling** — `cover_optimal` is monotone in the node budget
//!   and never `true` when any component was truncated or solved greedily.

use aapsm_core::{
    detect_conflicts, plan_correction, ConstraintKind, CorrectionOptions, CorrectionPlan,
    DetectConfig,
};
use aapsm_geom::Axis;
use aapsm_layout::synth::{generate, scaling_suite, SynthParams};
use aapsm_layout::{
    apply_cuts, extract_phase_geometry, fixtures, DesignRules, Layout, PhaseGeometry, Side,
};
use proptest::prelude::*;

const DEGREES: [usize; 4] = [0, 1, 2, 4];

/// A random conflict-rich synthetic layout.
fn synth_layout() -> impl Strategy<Value = Layout> {
    (0u64..1_000_000, 1usize..=3, 10usize..=30).prop_map(|(seed, rows, gates)| {
        generate(
            &SynthParams {
                rows,
                gates_per_row: gates,
                strap_frac: 0.7,
                jog_frac: 0.08,
                short_mid_frac: 0.06,
                seed,
                ..SynthParams::default()
            },
            &DesignRules::default(),
        )
    })
}

fn fixture_layouts(rules: &DesignRules) -> Vec<(&'static str, Layout)> {
    vec![
        ("gate_over_strap", fixtures::gate_over_strap(rules)),
        ("stacked_jog", fixtures::stacked_jog(rules)),
        ("short_middle_wire", fixtures::short_middle_wire(rules)),
        ("strap_under_bus", fixtures::strap_under_bus(6, rules)),
        ("diagonal_jog", fixtures::diagonal_jog(rules)),
        (
            "corridor_unblock",
            fixtures::corridor_unblock_two_round(rules),
        ),
    ]
}

/// Plans at every parallelism degree and asserts bit-identical plans;
/// returns the serial plan.
fn plan_all_degrees(
    geom: &PhaseGeometry,
    conflicts: &[aapsm_core::Conflict],
    rules: &DesignRules,
    name: &str,
) -> CorrectionPlan {
    let base = plan_correction(
        geom,
        conflicts,
        rules,
        &CorrectionOptions {
            parallelism: 1,
            ..CorrectionOptions::default()
        },
    );
    for parallelism in DEGREES {
        let plan = plan_correction(
            geom,
            conflicts,
            rules,
            &CorrectionOptions {
                parallelism,
                ..CorrectionOptions::default()
            },
        );
        assert_eq!(plan, base, "{name}: parallelism {parallelism} diverged");
    }
    base
}

/// Asserts that no conflict claimed as corrected survives re-extraction of
/// the cut layout. Shifters are identified by `(feature, side)`: cuts
/// preserve rect order and criticality, so feature indices are stable.
fn assert_corrected_conflicts_resolved(
    layout: &Layout,
    geom: &PhaseGeometry,
    conflicts: &[aapsm_core::Conflict],
    plan: &CorrectionPlan,
    rules: &DesignRules,
    name: &str,
) {
    if plan.cuts.is_empty() {
        return;
    }
    let modified = apply_cuts(layout, &plan.cuts);
    let new_geom = extract_phase_geometry(&modified, rules);
    assert_eq!(
        geom.features.len(),
        new_geom.features.len(),
        "{name}: cuts must not change the feature set"
    );
    let key = |g: &PhaseGeometry, s: usize| -> (usize, Side) {
        (g.shifters[s].feature, g.shifters[s].side)
    };
    let surviving: std::collections::HashSet<((usize, Side), (usize, Side))> = new_geom
        .overlaps
        .iter()
        .map(|o| (key(&new_geom, o.a), key(&new_geom, o.b)))
        .collect();
    for &ci in &plan.corrected {
        let ConstraintKind::Overlap(oi) = conflicts[ci].constraint else {
            panic!("{name}: only overlaps are correctable");
        };
        let o = &geom.overlaps[oi];
        let pair = (key(geom, o.a), key(geom, o.b));
        assert!(
            !surviving.contains(&pair) && !surviving.contains(&(pair.1, pair.0)),
            "{name}: corrected conflict {ci} (shifters {:?}) survives the cuts",
            pair
        );
    }
}

#[test]
fn planner_parallel_equivalence_and_coverage_on_fixtures() {
    let rules = DesignRules::default();
    for (name, layout) in fixture_layouts(&rules) {
        let geom = extract_phase_geometry(&layout, &rules);
        let report = detect_conflicts(&geom, &DetectConfig::default());
        let plan = plan_all_degrees(&geom, &report.conflicts, &rules, name);
        assert_corrected_conflicts_resolved(&layout, &geom, &report.conflicts, &plan, &rules, name);
    }
}

#[test]
fn cover_optimality_is_monotone_in_the_node_budget_on_fixtures() {
    let rules = DesignRules::default();
    for (name, layout) in fixture_layouts(&rules) {
        let geom = extract_phase_geometry(&layout, &rules);
        let report = detect_conflicts(&geom, &DetectConfig::default());
        let mut prev_proven = 0usize;
        for budget in [1u64, 16, 256, 200_000] {
            let plan = plan_correction(
                &geom,
                &report.conflicts,
                &rules,
                &CorrectionOptions {
                    exact_node_limit: budget,
                    ..CorrectionOptions::default()
                },
            );
            assert!(
                plan.cover_optimal_components >= prev_proven,
                "{name}: raising the budget to {budget} lost proven components"
            );
            assert_eq!(
                plan.cover_optimal,
                plan.cover_optimal_components == plan.cover_components,
                "{name}: cover_optimal must equal all-components-proven"
            );
            prev_proven = plan.cover_optimal_components;
        }
    }
}

/// The scaling suite's mid-size designs carry large components full of
/// duplicate grid-line candidates; sibling dominance proves them at the
/// default node limit with the plans a truncated search used to return.
#[test]
fn scaling_suite_plans_are_proven_at_default_options() {
    let rules = DesignRules::default();
    let suite = scaling_suite();
    for (name, plan_weight, grid_lines) in [("rows_x4", 18097, 107), ("rows_x16", 55824, 285)] {
        let design = suite
            .iter()
            .find(|d| d.name == name)
            .expect("design is in the scaling suite");
        let layout = generate(&design.params, &rules);
        let geom = extract_phase_geometry(&layout, &rules);
        let report = detect_conflicts(&geom, &DetectConfig::default());
        let plan = plan_correction(
            &geom,
            &report.conflicts,
            &rules,
            &CorrectionOptions::default(),
        );
        assert!(
            plan.cover_optimal,
            "{name}: {} of {} cover components proven",
            plan.cover_optimal_components, plan.cover_components
        );
        assert_eq!(
            plan.inserted_width(Axis::X) + plan.inserted_width(Axis::Y),
            plan_weight,
            "{name}: plan weight"
        );
        assert_eq!(plan.grid_line_count(), grid_lines, "{name}: grid lines");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random synthetic layouts: plans are bit-identical at every
    /// parallelism degree, and no corrected conflict survives the cuts.
    #[test]
    fn planner_equivalence_and_coverage_on_synth(layout in synth_layout()) {
        let rules = DesignRules::default();
        let geom = extract_phase_geometry(&layout, &rules);
        let report = detect_conflicts(&geom, &DetectConfig::default());
        let plan = plan_all_degrees(&geom, &report.conflicts, &rules, "synth");
        prop_assert!(plan.cover_optimal_components <= plan.cover_components);
        assert_corrected_conflicts_resolved(
            &layout,
            &geom,
            &report.conflicts,
            &plan,
            &rules,
            "synth",
        );
    }

    /// The end-to-end flow stays bit-identical across parallelism degrees
    /// now that the planner (not only detection) honors the knob.
    #[test]
    fn flow_bit_identical_across_degrees(layout in synth_layout()) {
        use aapsm_core::{run_flow, FlowConfig};
        let rules = DesignRules::default();
        let base = run_flow(&layout, &rules, &FlowConfig::default());
        for parallelism in DEGREES {
            let config = FlowConfig {
                detect: DetectConfig { parallelism, ..DetectConfig::default() },
                ..FlowConfig::default()
            };
            let res = run_flow(&layout, &rules, &config);
            match (&base, &res) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.plan, &b.plan);
                    prop_assert_eq!(&a.correction.modified, &b.correction.modified);
                    prop_assert_eq!(a.verified, b.verified);
                    prop_assert_eq!(a.round_count(), b.round_count());
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "flow feasibility diverged across degrees"),
            }
        }
    }
}
