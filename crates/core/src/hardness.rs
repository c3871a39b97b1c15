//! NP-hardness of SLADE: the Unbounded-Knapsack reduction (Theorem 1 of the
//! paper).
//!
//! ## The reduction
//!
//! The decision version of the *unbounded min-knapsack* problem — given item
//! sizes `s_1..s_m`, item costs `c_1..c_m` (unlimited copies), a demand `W`,
//! and a budget `C`, is there a multiset of items of total size `≥ W` and
//! total cost `≤ C`? — is NP-complete. It embeds into SLADE with a **single
//! atomic task**:
//!
//! * item `i` becomes a task bin with confidence `r_i = 1 − e^{−s_i}`
//!   (so its transformed weight `-ln(1 − r_i)` is exactly `s_i`), cost
//!   `c_i`, and an arbitrary distinct cardinality (capacity is irrelevant
//!   when only one task exists);
//! * the demand becomes the task's threshold `t = 1 − e^{−W}` (transformed
//!   threshold exactly `W`).
//!
//! A bin multiset satisfies the task iff its weights sum to at least `W`, and
//! its posting cost equals the knapsack cost — so the optimal SLADE cost
//! equals the optimal knapsack cost, and a polynomial SLADE solver would
//! decide unbounded min-knapsack. Hence SLADE is NP-hard **even with one
//! task and homogeneous thresholds**; the hardness lives entirely in
//! choosing the bin combination, which is why the OPQ machinery
//! ([`crate::opq`]) only *enumerates* combinations best-first instead of
//! pretending to pick the optimum in polynomial time.
//!
//! Contrast with the relaxed case (§4.2, [`crate::relaxed`]): when one bin
//! suffices per task the combination choice disappears and the rod-cutting
//! DP is exact in `O(n·m)` — the reduction's weight-stacking is exactly what
//! relaxed instances forbid.
//!
//! [`knapsack_to_slade`] makes the embedding executable; the tests solve
//! reduced instances with [`ExactSolver`](crate::exact::ExactSolver) and
//! check them against a direct knapsack brute force.

use crate::bin_set::BinSet;
use crate::error::SladeError;
use crate::reliability::confidence_from_weight;
use crate::task::Workload;

/// One unbounded-knapsack item: a positive size and a positive cost,
/// available in unlimited copies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnapsackItem {
    /// Item size (maps to a bin's transformed weight).
    pub size: f64,
    /// Item cost (maps to the bin's posting cost).
    pub cost: f64,
}

/// Embeds an unbounded min-knapsack instance into SLADE; see the module
/// docs. Returns the single-task workload and the bin menu whose optimal
/// decomposition cost equals the knapsack optimum.
///
/// Errors with [`SladeError::InvalidBinSet`] / [`SladeError::InvalidWorkload`]
/// if a size, cost, or the demand is non-positive or non-finite.
pub fn knapsack_to_slade(
    items: &[KnapsackItem],
    demand: f64,
) -> Result<(Workload, BinSet), SladeError> {
    if demand <= 0.0 || !demand.is_finite() {
        return Err(SladeError::InvalidWorkload(format!(
            "knapsack demand must be positive and finite, got {demand}"
        )));
    }
    let bins = BinSet::new(items.iter().enumerate().map(|(i, item)| {
        (
            i as u32 + 1, // distinct, arbitrary cardinalities
            confidence_from_weight(item.size),
            item.cost,
        )
    }))?;
    let workload = Workload::homogeneous(1, confidence_from_weight(demand))?;
    Ok((workload, bins))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactSolver;
    use crate::solver::PreparedSolver;

    /// Direct brute force for unbounded min-knapsack (cover `demand` at
    /// minimum cost), via DFS with a cost bound.
    fn knapsack_opt(items: &[KnapsackItem], demand: f64) -> f64 {
        fn dfs(items: &[KnapsackItem], remaining: f64, spent: f64, best: &mut f64) {
            if remaining <= 1e-12 {
                *best = best.min(spent);
                return;
            }
            // Bound: cheapest cost per unit size finishes the cover.
            let best_rate = items
                .iter()
                .map(|i| i.cost / i.size)
                .fold(f64::INFINITY, f64::min);
            if spent + remaining * best_rate >= *best - 1e-12 {
                return;
            }
            for item in items {
                dfs(items, remaining - item.size, spent + item.cost, best);
            }
        }
        let mut best = f64::INFINITY;
        dfs(items, demand, 0.0, &mut best);
        best
    }

    #[test]
    fn reduced_instance_matches_knapsack_bruteforce() {
        // Sizes/costs chosen so the optimum (two mediums: cost 0.5,
        // size 2.4 >= 2.2) beats both the big item (0.65) and small-item
        // stacks (3 x 0.2 = 0.6 only reaches 2.1 < 2.2; 4 x 0.2 = 0.8).
        let items = [
            KnapsackItem {
                size: 0.7,
                cost: 0.2,
            },
            KnapsackItem {
                size: 1.2,
                cost: 0.25,
            },
            KnapsackItem {
                size: 2.3,
                cost: 0.65,
            },
        ];
        let demand = 2.2;
        let (workload, bins) = knapsack_to_slade(&items, demand).unwrap();
        let plan = ExactSolver::default().solve(&workload, &bins).unwrap();
        let expect = knapsack_opt(&items, demand);
        assert!((expect - 0.5).abs() < 1e-12);
        assert!(
            (plan.total_cost() - expect).abs() < 1e-9,
            "SLADE said {}, knapsack says {expect}",
            plan.total_cost()
        );
        assert!(plan.validate(&workload, &bins).unwrap().feasible);
    }

    #[test]
    fn weights_survive_the_confidence_round_trip() {
        let items = [
            KnapsackItem {
                size: 0.5,
                cost: 1.0,
            },
            KnapsackItem {
                size: 3.0,
                cost: 2.0,
            },
        ];
        let (_, bins) = knapsack_to_slade(&items, 1.0).unwrap();
        // BinSet sorts by cardinality, which here preserves item order.
        for (bin, item) in bins.bins().iter().zip(&items) {
            assert!((bin.weight() - item.size).abs() < 1e-12);
            assert!((bin.cost() - item.cost).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let good = KnapsackItem {
            size: 1.0,
            cost: 1.0,
        };
        assert!(knapsack_to_slade(&[good], 0.0).is_err());
        assert!(knapsack_to_slade(&[good], f64::NAN).is_err());
        assert!(knapsack_to_slade(&[], 1.0).is_err());
        assert!(knapsack_to_slade(
            &[KnapsackItem {
                size: 1.0,
                cost: -1.0
            }],
            1.0
        )
        .is_err());
        assert!(knapsack_to_slade(
            &[KnapsackItem {
                size: 0.0,
                cost: 1.0
            }],
            1.0
        )
        .is_err());
    }
}
