use crate::{solve_greedy, CoverInstance, CoverSolution};
use aapsm_fault::{Budget, Stage};

/// Outcome of the exact branch-and-bound solver.
///
/// `proven` tells the truth about optimality: it is `true` only when the
/// search ran to completion. When the node budget truncates the search the
/// incumbent is still returned (it is never worse than the greedy warm
/// start), but `proven` is `false` — callers deciding whether a cover is
/// "provably optimal" must consult it instead of treating `Some` as proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactCover {
    /// The best cover found.
    pub solution: CoverSolution,
    /// Whether the search completed, proving `solution` optimal.
    pub proven: bool,
    /// Search nodes visited, each charged one [`Stage::Cover`] tick. A
    /// deterministic work counter: a truncated search counts the node that
    /// hit the limit.
    pub nodes: u64,
}

/// Tuning knobs for the exact branch-and-bound solver.
#[derive(Clone, Debug)]
pub struct ExactOptions {
    /// Give up after this many search nodes: the incumbent is returned
    /// with [`ExactCover::proven`] `== false`. The default is generous for
    /// the per-component grid-line instances produced by the correction
    /// planner.
    pub node_limit: u64,
    /// Work budget: every search node charges one [`Stage::Cover`] tick.
    /// A budget trip truncates the search exactly like the node limit —
    /// the incumbent is returned with [`ExactCover::proven`] `== false`,
    /// never a silent claim of optimality.
    pub budget: Budget,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            node_limit: 2_000_000,
            budget: Budget::unlimited(),
        }
    }
}

struct Search<'a> {
    inst: &'a CoverInstance,
    best: Option<Vec<usize>>,
    best_weight: i64,
    nodes: u64,
    node_limit: u64,
    budget: &'a Budget,
    truncated: bool,
}

impl Search<'_> {
    /// Lower bound on the weight needed to cover `uncovered`: greedily pick
    /// "independent" uncovered elements whose covering sets are disjoint
    /// from those of previously picked elements; their cheapest covering
    /// sets are pairwise distinct, so the bound is the sum of the minima.
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

    /// Sibling dominance: whether some banned set `t` covering `pivot` has
    /// `w(t) ≤ w(s)` and covers every still-uncovered element of `s`.
    ///
    /// Every banned set was banned after its include-subtree was fully
    /// searched — or, if it was itself skipped, after a set dominating it
    /// was. So any cover through `s` here maps (swap `s` for `t`) to a
    /// cover of no greater weight that the search has already found or
    /// bounded away. The search keeps only strict improvements, so `s`'s
    /// subtree cannot change the incumbent. A dominating `t` must cover the
    /// pivot (an uncovered element of `s`), so only the pivot's sets are
    /// scanned.
    fn dominated(&self, s: usize, pivot: usize, covered: &[bool], banned: &[bool]) -> bool {
        let w = self.inst.weight(s);
        self.inst.covering_sets(pivot).iter().any(|&t| {
            banned[t]
                && self.inst.weight(t) <= w
                && self
                    .inst
                    .elements(s)
                    .iter()
                    .all(|&e| covered[e] || self.inst.elements(t).binary_search(&e).is_ok())
        })
    }

    fn dfs(
        &mut self,
        covered: &mut [bool],
        banned: &mut [bool],
        chosen: &mut Vec<usize>,
        weight: i64,
    ) {
        self.nodes += 1;
        if self.nodes > self.node_limit || self.budget.charge(Stage::Cover, 1).is_err() {
            self.truncated = true;
            return;
        }
        if weight >= self.best_weight {
            return;
        }
        // Find the uncovered element with the fewest available covering
        // sets (fail-first).
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
                return; // infeasible branch
            }
            if pivot.is_none_or(|(_, a)| avail < a) {
                pivot = Some((e, avail));
                if avail == 1 {
                    break;
                }
            }
        }
        let Some((pivot_elem, _)) = pivot else {
            // Everything covered: record incumbent.
            self.best_weight = weight;
            self.best = Some(chosen.clone());
            return;
        };
        if weight + self.lower_bound(covered, banned) >= self.best_weight {
            return;
        }
        // Branch on the sets covering the pivot element, cheapest first.
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
            // A dominated candidate is skipped, not explored: see
            // `dominated` for why its subtree cannot change the incumbent.
            if !self.dominated(s, pivot_elem, covered, banned) {
                // Include s.
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
            }
            // Exclude s in all later branches (standard pivot branching).
            banned[s] = true;
            newly_banned.push(s);
        }
        for s in newly_banned {
            banned[s] = false;
        }
    }
}

/// Exact minimum-weight set cover by branch-and-bound (mincov-style:
/// fail-first pivot selection, essential sets implicit via unit pivots, an
/// independent-element lower bound, greedy incumbent warm start, sibling
/// dominance pruning).
///
/// Sibling dominance: a candidate `s` for the pivot is skipped (and banned
/// for its later siblings, like an explored one) when a banned set `t`
/// covering the pivot has `w(t) ≤ w(s)` and covers every still-uncovered
/// element of `s`. The skipped subtree could only hold covers no lighter
/// than one already searched, and only strict improvements replace the
/// incumbent, so the returned cover is exactly the one the same search
/// without the skip returns with an unlimited node limit — it just gets
/// there in far fewer nodes when the instance has duplicate or dominated
/// candidates.
///
/// Returns `None` when the instance is not coverable. Otherwise the
/// incumbent is always feasible (the greedy warm start guarantees one) and
/// [`ExactCover::proven`] records whether the search completed inside the
/// node budget — a truncated search returns its (possibly suboptimal)
/// incumbent with `proven == false` rather than silently posing as exact.
pub fn solve_exact(inst: &CoverInstance, options: &ExactOptions) -> Option<ExactCover> {
    if !inst.is_coverable() {
        return None;
    }
    let warm = solve_greedy(inst);
    let mut search = Search {
        inst,
        best_weight: warm.weight,
        best: Some(warm.chosen),
        nodes: 0,
        node_limit: options.node_limit,
        budget: &options.budget,
        truncated: false,
    };
    let mut covered = vec![false; inst.universe_size()];
    let mut banned = vec![false; inst.set_count()];
    let mut chosen = Vec::new();
    search.dfs(&mut covered, &mut banned, &mut chosen, 0);
    let (truncated, nodes) = (search.truncated, search.nodes);
    search.best.map(|chosen| ExactCover {
        solution: CoverSolution::from_sets(inst, chosen),
        proven: !truncated,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::solve_exact_undominated;
    use rand::{Rng, SeedableRng};

    /// A random instance plus injected twins: exact duplicates, heavier
    /// copies and lighter-or-equal-weight subsets of earlier sets, the
    /// shapes the correction planner's grid-line candidates take. The
    /// injected sets land at random positions so dominators appear both
    /// before and after the sets they dominate in candidate order.
    fn instance_with_twins(rng: &mut impl Rng) -> CoverInstance {
        let n = rng.gen_range(1..=12);
        let base = rng.gen_range(1..=10);
        let mut sets: Vec<(i64, Vec<usize>)> = (0..base)
            .map(|_| {
                let elems = (0..n).filter(|_| rng.gen_bool(0.35)).collect();
                (rng.gen_range(1..20), elems)
            })
            .collect();
        for _ in 0..rng.gen_range(0..=12) {
            let (w, elems) = sets[rng.gen_range(0..sets.len())].clone();
            let twin = match rng.gen_range(0..3) {
                0 => (w, elems),
                1 => (w + rng.gen_range(1..5), elems),
                _ => {
                    let sub: Vec<usize> = elems.into_iter().filter(|_| rng.gen_bool(0.7)).collect();
                    (rng.gen_range(1..=w), sub)
                }
            };
            let at = rng.gen_range(0..=sets.len());
            sets.insert(at, twin);
        }
        CoverInstance::new(n, sets)
    }

    #[test]
    fn dominance_returns_the_unlimited_undominated_cover() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let unlimited = ExactOptions {
            node_limit: u64::MAX,
            ..ExactOptions::default()
        };
        for trial in 0..600 {
            let inst = instance_with_twins(&mut rng);
            let got = solve_exact(&inst, &unlimited);
            let want = solve_exact_undominated(&inst, u64::MAX);
            match (got, want) {
                (None, None) => {}
                (Some(got), Some(want)) => {
                    assert_eq!(got.solution, want.solution, "trial {trial}");
                    assert_eq!(got.proven, want.proven, "trial {trial}");
                    assert!(got.proven, "trial {trial}");
                    assert!(
                        got.nodes <= want.nodes,
                        "trial {trial}: {} nodes > oracle's {}",
                        got.nodes,
                        want.nodes
                    );
                }
                (got, want) => panic!(
                    "trial {trial}: coverability disagrees ({} vs {})",
                    got.is_some(),
                    want.is_some()
                ),
            }
        }
    }

    #[test]
    fn twin_candidates_collapse_the_search() {
        // Three disjoint rings of five elements; each ring edge is offered
        // by three identical candidates. The independent-element bound
        // leaves a gap on every odd ring, so the search must branch deep:
        // without the skip every twin re-searches the same subtree.
        let sets = (0..15)
            .flat_map(|e| {
                let edge = vec![e, e - e % 5 + (e + 1) % 5];
                (0..3).map(move |_| (2, edge.clone()))
            })
            .collect();
        let inst = CoverInstance::new(15, sets);
        let unlimited = ExactOptions {
            node_limit: u64::MAX,
            ..ExactOptions::default()
        };
        let got = solve_exact(&inst, &unlimited).unwrap();
        let want = solve_exact_undominated(&inst, u64::MAX).unwrap();
        assert_eq!(got.solution, want.solution);
        assert_eq!(got.solution.weight, 18);
        assert!(got.proven);
        assert!(
            got.nodes * 1_000 <= want.nodes,
            "{} nodes vs the undominated search's {}",
            got.nodes,
            want.nodes
        );
        // At a small node limit only the pruned search gets to a proof.
        let capped = ExactOptions {
            node_limit: 1_000,
            ..ExactOptions::default()
        };
        assert_eq!(solve_exact(&inst, &capped).unwrap(), got);
        assert!(!solve_exact_undominated(&inst, 1_000).unwrap().proven);
    }

    #[test]
    fn beats_greedy_on_the_disjoint_pair_trap() {
        // Greedy would take the ratio-attractive big set when it is
        // slightly cheaper per element; exact must find the disjoint pair.
        let inst = CoverInstance::new(
            4,
            vec![
                (5, vec![0, 1, 2, 3]), // ratio 1.25
                (2, vec![0, 1]),       // ratio 1.0
                (2, vec![2, 3]),       // ratio 1.0
            ],
        );
        let out = solve_exact(&inst, &ExactOptions::default()).unwrap();
        assert!(out.proven);
        assert_eq!(out.solution.weight, 4);
        assert_eq!(out.solution.chosen, vec![1, 2]);
    }

    #[test]
    fn uncoverable_returns_none() {
        let inst = CoverInstance::new(2, vec![(1, vec![0])]);
        assert!(solve_exact(&inst, &ExactOptions::default()).is_none());
    }

    #[test]
    fn essential_sets_are_forced() {
        let inst = CoverInstance::new(
            3,
            vec![(100, vec![0]), (1, vec![1, 2])], // set 0 essential
        );
        let out = solve_exact(&inst, &ExactOptions::default()).unwrap();
        assert!(out.proven);
        assert_eq!(out.solution.chosen, vec![0, 1]);
        assert_eq!(out.solution.weight, 101);
    }

    #[test]
    fn node_limit_still_returns_feasible_but_unproven() {
        let inst = CoverInstance::new(
            6,
            vec![
                (3, vec![0, 1, 2]),
                (3, vec![3, 4, 5]),
                (2, vec![0, 3]),
                (2, vec![1, 4]),
                (2, vec![2, 5]),
            ],
        );
        let out = solve_exact(
            &inst,
            &ExactOptions {
                node_limit: 1,
                ..ExactOptions::default()
            },
        )
        .unwrap();
        assert!(out.solution.is_feasible(&inst));
        assert!(
            !out.proven,
            "a truncated search must not claim proven optimality"
        );
        // A generous budget proves the same instance.
        let full = solve_exact(&inst, &ExactOptions::default()).unwrap();
        assert!(full.proven);
        assert!(full.solution.weight <= out.solution.weight);
    }

    #[test]
    fn work_budget_trip_truncates_truthfully() {
        let inst = CoverInstance::new(
            6,
            vec![
                (3, vec![0, 1, 2]),
                (3, vec![3, 4, 5]),
                (2, vec![0, 3]),
                (2, vec![1, 4]),
                (2, vec![2, 5]),
            ],
        );
        let budget = aapsm_fault::BudgetSpec {
            cover_ticks: Some(1),
            ..aapsm_fault::BudgetSpec::default()
        }
        .build();
        let out = solve_exact(
            &inst,
            &ExactOptions {
                budget,
                ..ExactOptions::default()
            },
        )
        .unwrap();
        assert!(out.solution.is_feasible(&inst));
        assert!(!out.proven, "a budget-tripped search must not claim proof");
    }
}
