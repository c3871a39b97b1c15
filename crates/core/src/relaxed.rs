//! The relaxed SLADE problem and its exact rod-cutting DP (§4.2 of the
//! paper).
//!
//! When every bin confidence satisfies `r_l ≥ t_max`, a *single* bin already
//! pushes any task past its threshold, so an optimal plan assigns each task
//! exactly one bin and the problem collapses to: cover `n` task slots with
//! bins of capacities `l` and costs `c_l` at minimum cost. That is the
//! classic rod-cutting / coin-change recurrence
//!
//! ```text
//! f(0) = 0,    f(j) = min_l  f(max(j - l, 0)) + c_l
//! ```
//!
//! solved exactly in `O(n·m)` time and `O(n)` space by [`solve_relaxed`].
//! Instances violating the precondition are rejected with
//! [`SladeError::NotRelaxed`]; the general solvers
//! ([`OpqBased`](crate::opq_based::OpqBased),
//! [`OpqExtended`](crate::hetero::OpqExtended)) handle them instead.
//!
//! ```
//! use slade_core::prelude::*;
//! use slade_core::relaxed::solve_relaxed;
//!
//! // All confidences (0.9, 0.85, 0.8) meet t_max = 0.8, so the instance is
//! // relaxed: each of the 7 tasks needs exactly one bin.
//! let bins = BinSet::paper_example();
//! let workload = Workload::homogeneous(7, 0.8).unwrap();
//! let plan = solve_relaxed(&workload, &bins).unwrap();
//! // Optimal covering of 7 slots: 2×b3 + 1×b1 = 0.58.
//! assert!((plan.total_cost() - 0.58).abs() < 1e-9);
//! assert!(plan.validate(&workload, &bins).unwrap().feasible);
//! ```

use crate::bin_set::BinSet;
use crate::error::SladeError;
use crate::plan::DecompositionPlan;
use crate::reliability::satisfies;
use crate::solver::PreparedSolver;
use crate::task::{TaskId, Workload};

/// Solves a relaxed instance exactly; see the module docs.
///
/// Errors with [`SladeError::NotRelaxed`] if some bin confidence falls below
/// the workload's maximum threshold.
pub fn solve_relaxed(workload: &Workload, bins: &BinSet) -> Result<DecompositionPlan, SladeError> {
    let t_max = workload.max_threshold();
    let theta_max = crate::reliability::theta(t_max);
    for b in bins.bins() {
        if !satisfies(b.weight(), theta_max) {
            return Err(SladeError::NotRelaxed {
                cardinality: b.cardinality(),
                confidence: b.confidence(),
                t_max,
            });
        }
    }

    let n = workload.len() as usize;
    // f[j] = min cost to cover j tasks; choice[j] = bin index realizing it.
    let mut f = vec![f64::INFINITY; n + 1];
    let mut choice = vec![usize::MAX; n + 1];
    f[0] = 0.0;
    for j in 1..=n {
        for (i, b) in bins.bins().iter().enumerate() {
            let prev = j.saturating_sub(b.cardinality() as usize);
            let c = f[prev] + b.cost();
            if c < f[j] {
                f[j] = c;
                choice[j] = i;
            }
        }
    }

    let mut plan = DecompositionPlan::empty("Relaxed");
    let mut j = n;
    while j > 0 {
        let bin = &bins.bins()[choice[j]];
        let take = (bin.cardinality() as usize).min(j);
        plan.push(bin, ((j - take)..j).map(|t| t as TaskId));
        j -= take;
    }
    Ok(plan)
}

/// [`PreparedSolver`] adapter over [`solve_relaxed`], used by
/// [`Algorithm::Relaxed`](crate::solver::Algorithm::Relaxed).
#[derive(Debug, Clone, Copy, Default)]
pub struct Relaxed;

// The rod-cutting DP is `O(n·m)` with no workload-independent prefix worth
// caching, so the two-phase pipeline is the trait's trivial pass-through.
impl PreparedSolver for Relaxed {
    fn name(&self) -> &'static str {
        "Relaxed"
    }

    fn solve(&self, workload: &Workload, bins: &BinSet) -> Result<DecompositionPlan, SladeError> {
        solve_relaxed(workload, bins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_relaxed_instances_are_rejected_with_context() {
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(4, 0.95).unwrap();
        let err = solve_relaxed(&w, &bins).unwrap_err();
        match err {
            SladeError::NotRelaxed {
                cardinality,
                confidence,
                t_max,
            } => {
                // b2 <2, 0.85, 0.18> is the first offender in cardinality
                // order (b1's 0.90 < 0.95 too — but b1 fails first).
                assert_eq!(cardinality, 1);
                assert!((confidence - 0.90).abs() < 1e-12);
                assert!((t_max - 0.95).abs() < 1e-12);
            }
            other => panic!("expected NotRelaxed, got {other}"),
        }
    }

    #[test]
    fn dp_beats_naive_single_bin_type_choices() {
        // Capacities 3 and 4 with a price break on the 4: n = 6 is cheapest
        // as 3 + 3 (0.40) rather than 4 + 3 (0.42) or 4 + 4 (0.44).
        let bins = BinSet::new([(3, 0.9, 0.20), (4, 0.9, 0.22)]).unwrap();
        let w = Workload::homogeneous(6, 0.85).unwrap();
        let plan = solve_relaxed(&w, &bins).unwrap();
        assert!((plan.total_cost() - 0.40).abs() < 1e-9);
        assert_eq!(plan.num_bins(), 2);
        assert!(plan.validate(&w, &bins).unwrap().feasible);
    }

    #[test]
    fn every_task_gets_exactly_one_bin() {
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(10, 0.8).unwrap();
        let plan = solve_relaxed(&w, &bins).unwrap();
        let mut coverage = vec![0u32; 10];
        for b in plan.bins() {
            for &t in b.tasks() {
                coverage[t as usize] += 1;
            }
        }
        assert!(coverage.iter().all(|&c| c == 1), "{coverage:?}");
    }

    #[test]
    fn heterogeneous_relaxed_instances_are_supported() {
        let bins = BinSet::paper_example();
        // t_max = 0.8 == the smallest confidence, so still relaxed.
        let w = Workload::heterogeneous(vec![0.5, 0.8, 0.3, 0.75, 0.6]).unwrap();
        let plan = solve_relaxed(&w, &bins).unwrap();
        assert!(plan.validate(&w, &bins).unwrap().feasible);
        // 5 slots: b3 + b2 = 0.42 beats b3 + 2×b1 (0.44) and b3 + b3 (0.48).
        assert!((plan.total_cost() - 0.42).abs() < 1e-9);
    }

    #[test]
    fn boundary_confidence_equal_to_threshold_counts_as_relaxed() {
        let bins = BinSet::new([(2, 0.8, 0.1)]).unwrap();
        let w = Workload::homogeneous(3, 0.8).unwrap();
        let plan = solve_relaxed(&w, &bins).unwrap();
        assert!((plan.total_cost() - 0.2).abs() < 1e-12);
        assert!(plan.validate(&w, &bins).unwrap().feasible);
    }
}
