//! The covering-integer-program baseline (§4.3 of the paper).
//!
//! The paper's baseline reduces task decomposition to a *covering integer
//! program*: one row per atomic task demanding `θ_i = -ln(1 - t_i)`, one
//! column per candidate bin instance contributing `w_l = -ln(1 - r_l)` to
//! each contained task, and unbounded integer multiplicities (a bin instance
//! may be re-posted). Columns here are generated by chunking the tasks —
//! sorted by descending threshold, so that similarly-demanding tasks share
//! bins — into consecutive groups of each cardinality `l`.
//!
//! The CIP is then solved with the substrate in [`slade_lp::covering`],
//! following Vazirani's recipe the paper cites:
//!
//! 1. a fractional solution — the exact LP relaxation via the dense simplex
//!    on small instances, the scalable fractional greedy otherwise;
//! 2. randomized rounding with inflation `O(ln n)` and greedy repair, taking
//!    the best of a few seeded attempts.
//!
//! The result is feasible by construction and `O(log n)`-approximate with
//! high probability.
//!
//! ```
//! use slade_core::prelude::*;
//!
//! let bins = BinSet::paper_example();
//! let workload = Workload::homogeneous(4, 0.95).unwrap();
//! let plan = Baseline::default().solve(&workload, &bins).unwrap();
//! assert!(plan.validate(&workload, &bins).unwrap().feasible);
//! ```

use crate::bin_set::BinSet;
use crate::error::SladeError;
use crate::plan::DecompositionPlan;
use crate::solver::PreparedSolver;
use crate::task::{TaskId, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use slade_lp::covering::{suggested_inflation, CoveringProblem, SparseColumn};
use slade_lp::simplex::LpOutcome;

/// Tuning knobs for the [`Baseline`] solver.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Use the exact simplex LP relaxation when `rows × columns` is at most
    /// this large; beyond it, the sparse fractional greedy stands in.
    pub exact_lp_max_cells: usize,
    /// Base seed for the randomized rounding.
    pub seed: u64,
    /// Number of independently seeded rounding attempts; the cheapest
    /// feasible one wins.
    pub rounding_attempts: u32,
    /// Inflation factor for the rounding; `None` tries both `1.0` and the
    /// standard `ln(n) + 2` from [`suggested_inflation`] and keeps the
    /// cheaper feasible result.
    pub inflation: Option<f64>,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            exact_lp_max_cells: 4_096,
            seed: 0x51ade,
            rounding_attempts: 4,
            inflation: None,
        }
    }
}

/// The §4.3 CIP baseline solver.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Solver configuration.
    pub config: BaselineConfig,
}

/// A generated column: which bin type, which tasks.
struct ColumnSpec {
    bin_index: usize,
    tasks: Vec<TaskId>,
}

impl Baseline {
    /// Generates the CIP columns: tasks sorted by descending θ, chunked into
    /// consecutive groups of each bin cardinality.
    fn columns(workload: &Workload, bins: &BinSet) -> Vec<ColumnSpec> {
        let mut order: Vec<TaskId> = (0..workload.len()).collect();
        // A homogeneous workload sorts to the identity (all keys equal, ties
        // by ascending id — the initial order), so skip the O(n log n) pass.
        if !workload.is_homogeneous() {
            order.sort_by(|&a, &b| {
                workload
                    .theta(b)
                    .partial_cmp(&workload.theta(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.cmp(&b))
            });
        }
        let mut specs = Vec::new();
        for (bin_index, bin) in bins.bins().iter().enumerate() {
            for chunk in order.chunks(bin.cardinality() as usize) {
                specs.push(ColumnSpec {
                    bin_index,
                    tasks: chunk.to_vec(),
                });
            }
        }
        specs
    }

    /// Computes a fractional covering solution: exact LP on small instances,
    /// fractional greedy at scale.
    fn fractional(&self, problem: &CoveringProblem) -> Result<Vec<f64>, SladeError> {
        let cells = problem.n_rows() * problem.n_cols();
        if cells <= self.config.exact_lp_max_cells {
            match problem.to_linear_program().solve() {
                Ok(LpOutcome::Optimal(sol)) => return Ok(sol.variables),
                Ok(other) => {
                    // Singleton-covering columns exist for every row, so the
                    // LP cannot be infeasible or unbounded; treat anything
                    // else as a substrate failure.
                    return Err(SladeError::Covering(format!(
                        "LP relaxation unexpectedly returned {other:?}"
                    )));
                }
                Err(e) => return Err(SladeError::Covering(e.to_string())),
            }
        }
        Ok(problem.fractional_greedy()?.counts)
    }
}

/// The pass-through pipeline: the covering program's columns and its
/// LP/rounding state are shaped by the workload (`n` rows, `O(n·m)`
/// columns), so — unlike the OPQ family — none of the baseline's work can
/// move into `prepare`, and its requests take no artifact-cache entry.
impl PreparedSolver for Baseline {
    fn name(&self) -> &'static str {
        "Baseline"
    }

    fn solve(&self, workload: &Workload, bins: &BinSet) -> Result<DecompositionPlan, SladeError> {
        let specs = Self::columns(workload, bins);
        let demands: Vec<f64> = workload.thetas().collect();
        let columns: Vec<SparseColumn> = specs
            .iter()
            .map(|s| {
                let w = bins.bins()[s.bin_index].weight();
                SparseColumn::new(
                    bins.bins()[s.bin_index].cost(),
                    s.tasks.iter().map(|&t| (t, w)).collect(),
                )
            })
            .collect();
        let problem = CoveringProblem::new(demands, columns)?;

        let fractional = self.fractional(&problem)?;
        // The `ln(n) + 2` inflation backs the O(log n) w.h.p. guarantee, but
        // the greedy repair inside `randomized_rounding` makes every attempt
        // feasible regardless of inflation — so also try inflation 1.0
        // (plain floor-plus-Bernoulli), which wins whenever the fractional
        // solution is already near-integral. Taking the cheapest feasible
        // attempt can only improve on the guaranteed one.
        let inflations: Vec<f64> = match self.config.inflation {
            Some(f) => vec![f],
            None => vec![1.0, suggested_inflation(problem.n_rows())],
        };

        let mut best: Option<slade_lp::covering::CoveringSolution> = None;
        for attempt in 0..self.config.rounding_attempts.max(1) {
            for &inflation in &inflations {
                let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(attempt.into()));
                let rounded = problem.randomized_rounding(&fractional, inflation, &mut rng)?;
                if best.as_ref().map_or(true, |b| rounded.cost < b.cost) {
                    best = Some(rounded);
                }
            }
        }
        let best = best.expect("at least one rounding attempt runs");

        let mut plan = DecompositionPlan::empty(self.name());
        for (spec, &count) in specs.iter().zip(&best.counts) {
            debug_assert!(count.fract() == 0.0, "rounded counts must be integral");
            for _ in 0..count as u64 {
                plan.push(&bins.bins()[spec.bin_index], spec.tasks.iter().copied());
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::Greedy;

    #[test]
    fn homogeneous_plans_are_feasible() {
        let bins = BinSet::paper_example();
        for n in [1u32, 4, 25] {
            let w = Workload::homogeneous(n, 0.95).unwrap();
            let plan = Baseline::default().solve(&w, &bins).unwrap();
            let audit = plan.validate(&w, &bins).unwrap();
            assert!(audit.feasible, "n = {n}");
        }
    }

    #[test]
    fn heterogeneous_plans_are_feasible() {
        let bins = BinSet::paper_example();
        let w = Workload::heterogeneous(vec![0.5, 0.6, 0.7, 0.86, 0.95, 0.2]).unwrap();
        let plan = Baseline::default().solve(&w, &bins).unwrap();
        assert!(plan.validate(&w, &bins).unwrap().feasible);
    }

    #[test]
    fn large_instance_routes_through_fractional_greedy() {
        let bins = BinSet::paper_example();
        // 600 rows × ~1100 columns blows past exact_lp_max_cells.
        let w = Workload::homogeneous(600, 0.9).unwrap();
        let plan = Baseline::default().solve(&w, &bins).unwrap();
        let audit = plan.validate(&w, &bins).unwrap();
        assert!(audit.feasible);
        // Stay within a generous logarithmic band of the greedy heuristic.
        let greedy = Greedy.solve(&w, &bins).unwrap();
        assert!(plan.total_cost() <= greedy.total_cost() * (600f64).ln());
    }

    #[test]
    fn prepared_pipeline_matches_one_shot_exactly() {
        let bins = BinSet::paper_example();
        let solver = Baseline::default();
        for n in [1u32, 4, 25] {
            let w = Workload::homogeneous(n, 0.95).unwrap();
            let artifacts = solver.prepare(&bins, w.theta(0)).unwrap();
            let two_phase = solver.solve_with(artifacts.as_ref(), &w, &bins).unwrap();
            assert_eq!(two_phase, solver.solve(&w, &bins).unwrap(), "n = {n}");
        }
        let w = Workload::heterogeneous(vec![0.5, 0.6, 0.7, 0.86, 0.95, 0.2]).unwrap();
        let theta_max = w.thetas().fold(f64::MIN, f64::max);
        let artifacts = solver.prepare(&bins, theta_max).unwrap();
        let two_phase = solver.solve_with(artifacts.as_ref(), &w, &bins).unwrap();
        assert_eq!(two_phase, solver.solve(&w, &bins).unwrap());
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(10, 0.95).unwrap();
        let a = Baseline::default().solve(&w, &bins).unwrap();
        let b = Baseline::default().solve(&w, &bins).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_can_change_the_plan_but_not_feasibility() {
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(12, 0.9).unwrap();
        for seed in 0..5u64 {
            let solver = Baseline {
                config: BaselineConfig {
                    seed,
                    ..BaselineConfig::default()
                },
            };
            let plan = solver.solve(&w, &bins).unwrap();
            assert!(plan.validate(&w, &bins).unwrap().feasible, "seed {seed}");
        }
    }

    #[test]
    fn explicit_inflation_is_honored() {
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(6, 0.9).unwrap();
        let solver = Baseline {
            config: BaselineConfig {
                inflation: Some(1.0),
                ..BaselineConfig::default()
            },
        };
        // Inflation 1.0 leans on the greedy repair; the plan must still be
        // feasible.
        let plan = solver.solve(&w, &bins).unwrap();
        assert!(plan.validate(&w, &bins).unwrap().feasible);
    }
}
