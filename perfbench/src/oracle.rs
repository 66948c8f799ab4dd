//! Output oracles. Each check recomputes the answer independently of the
//! call under test and returns why it disagrees.

use aapsm_core::{detect_conflicts, Conflict, DetectConfig, FlowResult, HierDetectReport};
use aapsm_layout::{check_assignable, extract_phase_geometry, DesignRules, HierLayout, Layout};
use std::hash::{Hash, Hasher};

/// A corrected layout must re-extract to phase-assignable geometry that
/// the flow's own assignment satisfies, and the flow must say it verified.
///
/// # Errors
///
/// Describes the first violated condition.
pub fn check_flow(result: &FlowResult, rules: &DesignRules) -> Result<(), String> {
    if !result.verified {
        return Err(format!(
            "flow reports verified == false after {} rounds",
            result.round_count()
        ));
    }
    let geom = extract_phase_geometry(&result.correction.modified, rules);
    if let Err(w) = check_assignable(&geom) {
        return Err(format!("corrected layout is not phase-assignable: {w:?}"));
    }
    if !result.assignment.satisfies(&geom) {
        return Err("flow's phase assignment violates the re-extracted geometry".into());
    }
    let area = result.correction.area_increase_pct;
    if !(area.is_finite() && area >= 0.0) {
        return Err(format!(
            "area increase {area} is not a finite non-negative %"
        ));
    }
    Ok(())
}

/// A flow result must repeat a verified reference result for the same
/// input exactly: the same first-round conflicts, plan and corrected
/// layout.
///
/// # Errors
///
/// Names the first differing part.
pub fn check_same_flow(reference: &FlowResult, result: &FlowResult) -> Result<(), String> {
    if !result.verified {
        return Err("flow reports verified == false".into());
    }
    if result.detection.conflicts != reference.detection.conflicts {
        return Err("first-round conflicts differ from the verified reference".into());
    }
    if result.plan.cuts != reference.plan.cuts {
        return Err("correction plan differs from the verified reference".into());
    }
    if result.correction.modified != reference.correction.modified {
        return Err("corrected layout differs from the verified reference".into());
    }
    Ok(())
}

/// Conflicts reported for `layout` must equal a direct, from-scratch
/// `detect_conflicts` on it.
///
/// # Errors
///
/// Reports both conflict counts and weights.
pub fn check_detection(
    layout: &Layout,
    conflicts: &[Conflict],
    rules: &DesignRules,
    config: &DetectConfig,
) -> Result<(), String> {
    let direct = detect_conflicts(&extract_phase_geometry(layout, rules), config);
    if direct.conflicts == conflicts {
        Ok(())
    } else {
        Err(format!(
            "answer has {} conflicts (weight {}), direct detection {} (weight {})",
            conflicts.len(),
            total_weight(conflicts),
            direct.conflict_count(),
            direct.total_weight()
        ))
    }
}

/// `detect_hier` must equal flatten → extract → detect.
///
/// # Errors
///
/// Reports both conflict counts, or the flatten error.
pub fn check_hier(
    hier: &HierLayout,
    report: &HierDetectReport,
    rules: &DesignRules,
    config: &DetectConfig,
) -> Result<(), String> {
    let flat = hier.flatten().map_err(|e| format!("flatten failed: {e}"))?;
    check_detection(&flat, &report.report.conflicts, rules, config)
        .map_err(|e| format!("detect_hier disagrees with the flat pipeline: {e}"))
}

/// Two hierarchies must flatten to the same rectangles (in any order).
///
/// # Errors
///
/// Reports the rectangle counts, or a flatten error.
pub fn check_same_geometry(decoded: &HierLayout, expected: &HierLayout) -> Result<(), String> {
    let sorted = |h: &HierLayout| {
        h.flatten().map(|l| {
            let mut r = l.rects().to_vec();
            r.sort_by_key(|r| (r.x_lo(), r.y_lo(), r.x_hi(), r.y_hi()));
            r
        })
    };
    let a = sorted(decoded).map_err(|e| format!("decoded stream does not flatten: {e}"))?;
    let b = sorted(expected).map_err(|e| format!("expected hierarchy does not flatten: {e}"))?;
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "decoded stream flattens to {} rects, expected {}",
            a.len(),
            b.len()
        ))
    }
}

/// Total weight of a conflict set.
pub fn total_weight(conflicts: &[Conflict]) -> i64 {
    conflicts.iter().map(|c| c.weight).sum()
}

/// A fixed-key digest of a conflict set, so answers can be kept cheaply
/// and checked after the timed window.
pub fn digest(conflicts: &[Conflict]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    conflicts.hash(&mut h);
    h.finish()
}
