//! Brute-force exact solver for tiny instances (validation only).
//!
//! SLADE is NP-hard (see [`crate::hardness`]), so no polynomial exact solver
//! exists unless P = NP. For instances of a handful of tasks, however, a
//! branch-and-bound over *posted bins* is perfectly tractable and gives the
//! test suite ground truth to compare the approximation algorithms against.
//!
//! Search shape: at every node, pick the unsatisfied task with the largest
//! residual demand (the *pivot*) and branch over every way to post one more
//! bin covering it — each bin type, filled with the pivot plus other
//! currently-unsatisfied tasks up to capacity. Two classical reductions keep
//! this exact while pruning hard:
//!
//! * **restriction to unsatisfied tasks** — any optimal plan can be rewritten
//!   (without cost change) so that each bin only contains tasks still short
//!   of their threshold when the bin is posted;
//! * **maximal filling** — adding an unsatisfied task to a non-full bin never
//!   hurts, so only maximal fillings are branched on.
//!
//! Nodes are cut with the lower bound `cost + Σ residual_i · min_l c_l/(l·w_l)`
//! (a bin of type `l` delivers at most `l·w_l` useful weight for `c_l`), with
//! the greedy heuristic seeding the incumbent. The node budget and task cap
//! guard against misuse on large instances
//! ([`SladeError::ExactBudgetExceeded`]).

use crate::bin_set::BinSet;
use crate::error::SladeError;
use crate::greedy::Greedy;
use crate::plan::DecompositionPlan;
use crate::reliability::WEIGHT_EPS;
use crate::solver::PreparedSolver;
use crate::task::{TaskId, Workload};

/// Exhaustive branch-and-bound solver; see the module docs.
#[derive(Debug, Clone)]
pub struct ExactSolver {
    /// Hard cap on workload size; larger instances error immediately.
    pub max_tasks: u32,
    /// Budget on branch-and-bound nodes expanded before giving up.
    pub node_budget: u64,
}

impl Default for ExactSolver {
    fn default() -> Self {
        ExactSolver {
            max_tasks: 10,
            node_budget: 20_000_000,
        }
    }
}

struct Search<'a> {
    bins: &'a BinSet,
    unit_cost: f64,
    node_budget: u64,
    nodes: u64,
    best_cost: f64,
    best: Branch,
    stack: Branch,
}

/// The bins posted along one search path, flat: each bin's menu index and
/// the offset one past its last task in `tasks`.
#[derive(Clone, Default)]
struct Branch {
    bins: Vec<(usize, usize)>,
    tasks: Vec<TaskId>,
}

impl Search<'_> {
    /// Lower bound on the cost to clear `residual`.
    fn bound(&self, residual: &[f64]) -> f64 {
        residual.iter().map(|r| r.max(0.0)).sum::<f64>() * self.unit_cost
    }

    fn dfs(&mut self, residual: &mut [f64], cost: f64) -> Result<(), SladeError> {
        self.nodes += 1;
        if self.nodes > self.node_budget {
            return Err(SladeError::ExactBudgetExceeded { nodes: self.nodes });
        }

        // Pivot: unsatisfied task with the largest residual.
        let pivot = residual
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > WEIGHT_EPS)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i);
        let Some(pivot) = pivot else {
            // Feasible leaf.
            if cost < self.best_cost {
                self.best_cost = cost;
                self.best.clone_from(&self.stack);
            }
            return Ok(());
        };

        if cost + self.bound(residual) >= self.best_cost - 1e-12 {
            return Ok(());
        }

        // Other unsatisfied tasks, most deprived first (a good heuristic
        // filling order *and* a canonical one: maximal fillings are the
        // lexicographic prefixes of this ordering).
        let mut others: Vec<usize> = residual
            .iter()
            .enumerate()
            .filter(|&(i, &r)| i != pivot && r > WEIGHT_EPS)
            .map(|(i, _)| i)
            .collect();
        others.sort_by(|&a, &b| {
            residual[b]
                .partial_cmp(&residual[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });

        for (bi, bin) in self.bins.bins().iter().enumerate() {
            let room = (bin.cardinality() as usize - 1).min(others.len());
            // Branch over every maximal filling: the pivot plus each subset
            // of `others` of size exactly `room` (smaller fillings are
            // dominated — adding an unsatisfied task to spare capacity never
            // hurts).
            let mut subset: Vec<usize> = (0..room).collect();
            loop {
                let start = self.stack.tasks.len();
                self.stack.tasks.push(pivot as TaskId);
                self.stack
                    .tasks
                    .extend(subset.iter().map(|&s| others[s] as TaskId));
                for &t in &self.stack.tasks[start..] {
                    residual[t as usize] -= bin.weight();
                }
                self.stack.bins.push((bi, self.stack.tasks.len()));
                self.dfs(residual, cost + bin.cost())?;
                self.stack.bins.pop();
                for &t in &self.stack.tasks[start..] {
                    residual[t as usize] += bin.weight();
                }
                self.stack.tasks.truncate(start);
                if !next_combination(&mut subset, others.len()) {
                    break;
                }
            }
        }
        Ok(())
    }
}

/// Advances `subset` to the next size-`|subset|` combination of `0..n` in
/// lexicographic order; returns `false` when exhausted.
fn next_combination(subset: &mut [usize], n: usize) -> bool {
    let k = subset.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if subset[i] < n - (k - i) {
            subset[i] += 1;
            for j in i + 1..k {
                subset[j] = subset[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

// Branch-and-bound state is dominated by the workload's residual vector, so
// the two-phase pipeline is the trait's trivial pass-through.
impl PreparedSolver for ExactSolver {
    fn name(&self) -> &'static str {
        "Exact"
    }

    fn solve(&self, workload: &Workload, bins: &BinSet) -> Result<DecompositionPlan, SladeError> {
        if workload.len() > self.max_tasks {
            return Err(SladeError::ExactBudgetExceeded { nodes: 0 });
        }
        // Incumbent: the greedy plan (always feasible).
        let incumbent = Greedy.solve(workload, bins)?;

        let mut residual: Vec<f64> = workload.thetas().collect();
        let mut search = Search {
            bins,
            unit_cost: bins.min_unit_weight_cost(),
            node_budget: self.node_budget,
            nodes: 0,
            best_cost: incumbent.total_cost() + 1e-12,
            best: Branch::default(),
            stack: Branch::default(),
        };
        search.dfs(&mut residual, 0.0)?;

        if search.best.bins.is_empty() {
            // The greedy incumbent was never improved upon.
            return Ok(incumbent);
        }
        let mut plan = DecompositionPlan::empty(self.name());
        let mut start = 0;
        for &(bi, end) in &search.best.bins {
            plan.push(
                &bins.bins()[bi],
                search.best.tasks[start..end].iter().copied(),
            );
            start = end;
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_task_optimum_is_cheapest_feasible_combination() {
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(1, 0.95).unwrap();
        let plan = ExactSolver::default().solve(&w, &bins).unwrap();
        // Cheapest by total cost: two b1 bins (0.20).
        assert!((plan.total_cost() - 0.20).abs() < 1e-9);
        assert!(plan.validate(&w, &bins).unwrap().feasible);
    }

    #[test]
    fn paper_instance_true_optimum_beats_example9() {
        // Example 9's OPQ-Based answer is 0.68 but the true optimum of the
        // n = 4, t = 0.95 instance is 0.66: b3{0,1,2}, b3{0,1,3}, b2{2,3}
        // (tasks 0,1 get two b3s; tasks 2,3 get one b3 + the shared b2).
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(4, 0.95).unwrap();
        let plan = ExactSolver::default().solve(&w, &bins).unwrap();
        assert!(
            (plan.total_cost() - 0.66).abs() < 1e-9,
            "{}",
            plan.total_cost()
        );
        assert!(plan.validate(&w, &bins).unwrap().feasible);
    }

    #[test]
    fn never_worse_than_greedy_or_opq_based() {
        let bins = BinSet::paper_example();
        for n in 1..=5u32 {
            for t in [0.6, 0.9, 0.95] {
                let w = Workload::homogeneous(n, t).unwrap();
                let exact = ExactSolver::default().solve(&w, &bins).unwrap();
                let greedy = Greedy.solve(&w, &bins).unwrap();
                assert!(exact.total_cost() <= greedy.total_cost() + 1e-9);
                assert!(exact.validate(&w, &bins).unwrap().feasible);
            }
        }
    }

    #[test]
    fn heterogeneous_tiny_instance() {
        let bins = BinSet::paper_example();
        let w = Workload::heterogeneous(vec![0.5, 0.95]).unwrap();
        let plan = ExactSolver::default().solve(&w, &bins).unwrap();
        assert!(plan.validate(&w, &bins).unwrap().feasible);
        // Optimum 0.28: task 1 (t = 0.95) takes b2 + b1, and task 0
        // (t = 0.5) rides in the b2's spare slot for free. The no-sharing
        // alternative (2×b1 for task 1, b1 for task 0) costs 0.30.
        assert!(
            (plan.total_cost() - 0.28).abs() < 1e-9,
            "{}",
            plan.total_cost()
        );
    }

    #[test]
    fn task_cap_is_enforced() {
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(11, 0.9).unwrap();
        assert!(matches!(
            ExactSolver::default().solve(&w, &bins),
            Err(SladeError::ExactBudgetExceeded { nodes: 0 })
        ));
    }

    #[test]
    fn node_budget_is_enforced() {
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(6, 0.999).unwrap();
        let solver = ExactSolver {
            max_tasks: 10,
            node_budget: 5,
        };
        assert!(matches!(
            solver.solve(&w, &bins),
            Err(SladeError::ExactBudgetExceeded { nodes: 6 })
        ));
    }
}
