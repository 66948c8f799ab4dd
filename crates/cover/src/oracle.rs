//! Reference solvers the production paths are checked against.
//!
//! * [`solve_exact_undominated`] — the branch-and-bound of
//!   [`solve_exact`] without sibling dominance pruning. With an unlimited
//!   node limit both must return the same cover, and `solve_exact` may
//!   never visit more nodes.
//! * [`solve_auto`] — the pre-decomposition monolithic entry point:
//!   exact when the instance is small enough, greedy otherwise. It is the
//!   baseline [`crate::solve_decomposed`] is cross-validated against, and
//!   the regression surface for the truncation-reporting fix.

use crate::{solve_exact, solve_greedy, CoverInstance, CoverSolution, ExactCover, ExactOptions};

/// Solves exactly when the instance is small (≤ `exact_limit` sets and
/// elements), greedily otherwise.
///
/// Returns the solution and whether it is **provably** optimal: `true`
/// requires the exact search to have completed — an incumbent returned by
/// a node-limit-truncated search is feasible but unproven, so it reports
/// `false` exactly like the greedy fallback does.
pub(crate) fn solve_auto(inst: &CoverInstance, exact_limit: usize) -> (CoverSolution, bool) {
    if inst.set_count() <= exact_limit && inst.universe_size() <= 4 * exact_limit {
        if let Some(out) = solve_exact(inst, &ExactOptions::default()) {
            return (out.solution, out.proven);
        }
    }
    (solve_greedy(inst), false)
}

/// The branch-and-bound of [`solve_exact`] (same pivot rule, candidate
/// order, lower bound and greedy warm start) with every candidate explored:
/// no dominance skip, no work budget.
pub(crate) fn solve_exact_undominated(inst: &CoverInstance, node_limit: u64) -> Option<ExactCover> {
    if !inst.is_coverable() {
        return None;
    }
    let warm = solve_greedy(inst);
    let mut search = Search {
        inst,
        best_weight: warm.weight,
        best: warm.chosen,
        nodes: 0,
        node_limit,
        truncated: false,
    };
    let mut covered = vec![false; inst.universe_size()];
    let mut banned = vec![false; inst.set_count()];
    search.dfs(&mut covered, &mut banned, &mut Vec::new(), 0);
    Some(ExactCover {
        solution: CoverSolution::from_sets(inst, search.best),
        proven: !search.truncated,
        nodes: search.nodes,
    })
}

struct Search<'a> {
    inst: &'a CoverInstance,
    best: Vec<usize>,
    best_weight: i64,
    nodes: u64,
    node_limit: u64,
    truncated: bool,
}

impl Search<'_> {
    fn lower_bound(&self, covered: &[bool], banned: &[bool]) -> i64 {
        let mut used_set = vec![false; self.inst.set_count()];
        let mut bound = 0i64;
        for (e, &cov) in covered.iter().enumerate() {
            if cov {
                continue;
            }
            let sets = self.inst.covering_sets(e);
            if sets.iter().any(|&s| !banned[s] && used_set[s]) {
                continue;
            }
            let mut min_w = i64::MAX;
            for &s in sets {
                if !banned[s] {
                    min_w = min_w.min(self.inst.weight(s));
                    used_set[s] = true;
                }
            }
            if min_w < i64::MAX {
                bound += min_w;
            }
        }
        bound
    }

    fn dfs(
        &mut self,
        covered: &mut [bool],
        banned: &mut [bool],
        chosen: &mut Vec<usize>,
        weight: i64,
    ) {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.truncated = true;
            return;
        }
        if weight >= self.best_weight {
            return;
        }
        let mut pivot: Option<(usize, usize)> = None;
        for (e, &cov) in covered.iter().enumerate() {
            if cov {
                continue;
            }
            let avail = self
                .inst
                .covering_sets(e)
                .iter()
                .filter(|&&s| !banned[s])
                .count();
            if avail == 0 {
                return;
            }
            if pivot.is_none_or(|(_, a)| avail < a) {
                pivot = Some((e, avail));
                if avail == 1 {
                    break;
                }
            }
        }
        let Some((pivot_elem, _)) = pivot else {
            self.best_weight = weight;
            self.best = chosen.clone();
            return;
        };
        if weight + self.lower_bound(covered, banned) >= self.best_weight {
            return;
        }
        let mut candidates: Vec<usize> = self
            .inst
            .covering_sets(pivot_elem)
            .iter()
            .copied()
            .filter(|&s| !banned[s])
            .collect();
        candidates.sort_by_key(|&s| (self.inst.weight(s), s));
        let mut newly_banned = Vec::new();
        for &s in &candidates {
            let newly_covered: Vec<usize> = self
                .inst
                .elements(s)
                .iter()
                .copied()
                .filter(|&e| !covered[e])
                .collect();
            for &e in &newly_covered {
                covered[e] = true;
            }
            chosen.push(s);
            self.dfs(covered, banned, chosen, weight + self.inst.weight(s));
            chosen.pop();
            for &e in &newly_covered {
                covered[e] = false;
            }
            if self.truncated {
                break;
            }
            banned[s] = true;
            newly_banned.push(s);
        }
        for s in newly_banned {
            banned[s] = false;
        }
    }
}
