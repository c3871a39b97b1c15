//! Decomposition plans and their audits.
//!
//! A [`DecompositionPlan`] is the output of every SLADE solver: a list of
//! *posted bins*, each a concrete instance of a [`TaskBin`] type filled with
//! up to `l` distinct atomic tasks. Plans are plain data —
//! they carry no proof of feasibility. [`DecompositionPlan::validate`]
//! re-derives everything from the instance and returns a [`PlanAudit`], the
//! single source of truth used by tests, benchmarks, and the `slade-crowd`
//! simulator.

use crate::bin_set::{BinSet, TaskBin};
use crate::error::SladeError;
use crate::reliability;
use crate::task::{TaskId, Workload};

/// One posted bin: a bin type (identified by cardinality) plus the atomic
/// tasks assigned to it — a borrowed view into its
/// [`DecompositionPlan`]'s flat task array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedBin<'a> {
    cardinality: u32,
    tasks: &'a [TaskId],
}

impl<'a> PlannedBin<'a> {
    /// Cardinality of the bin type this instance was posted as.
    #[inline]
    pub fn cardinality(&self) -> u32 {
        self.cardinality
    }

    /// Tasks assigned to this bin instance.
    #[inline]
    pub fn tasks(&self) -> &'a [TaskId] {
        self.tasks
    }
}

/// Where one posted bin lives in its plan: its type, and the offset one
/// past its last task in the plan's flat task array (it starts where the
/// previous bin ends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BinHeader {
    cardinality: u32,
    end: u32,
}

/// A complete decomposition: the multiset of posted bins plus the
/// task-to-bin assignment, as produced by one solver run.
///
/// Storage is flat — one task array holding every bin's tasks back to
/// back, plus one `(cardinality, end offset)` header per posted bin — so
/// building a plan allocates a handful of times however many bins it
/// posts. [`DecompositionPlan::bins`] yields borrowed [`PlannedBin`] views.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompositionPlan {
    algorithm: &'static str,
    tasks: Vec<TaskId>,
    headers: Vec<BinHeader>,
    total_cost: f64,
}

impl DecompositionPlan {
    /// Creates an empty plan attributed to `algorithm`.
    pub fn empty(algorithm: &'static str) -> Self {
        Self::restored(algorithm, 0.0)
    }

    /// Starts reassembling a plan read off an existing one — the decode
    /// half of the engine's durable plan codec: an empty plan whose
    /// `total_cost` is the recorded one, restored verbatim (not recomputed)
    /// so a decoded plan is bit-identical to the encoded one. Fill it with
    /// [`DecompositionPlan::push_restored`];
    /// [`DecompositionPlan::validate`] still audits the recorded cost
    /// against the recomputed one like any other plan, so a corrupted cost
    /// cannot slip through as valid.
    pub fn restored(algorithm: &'static str, total_cost: f64) -> Self {
        DecompositionPlan {
            algorithm,
            tasks: Vec::new(),
            headers: Vec::new(),
            total_cost,
        }
    }

    /// Appends one posted instance of `bin` holding `tasks`, accumulating its
    /// cost.
    ///
    /// Validation (capacity, duplicates, unknown cardinality) is deferred to
    /// [`DecompositionPlan::validate`] so solvers can build plans cheaply.
    pub fn push(&mut self, bin: &TaskBin, tasks: impl IntoIterator<Item = TaskId>) {
        let start = self.tasks.len();
        self.push_restored(bin.cardinality(), tasks);
        debug_assert!(
            self.tasks.len() - start <= bin.cardinality() as usize,
            "bin of cardinality {} overfilled with {} tasks",
            bin.cardinality(),
            self.tasks.len() - start
        );
        self.total_cost += bin.cost();
    }

    /// Appends one posted bin of type `cardinality` holding `tasks` without
    /// touching the recorded cost — the fill step after
    /// [`DecompositionPlan::restored`].
    ///
    /// # Panics
    /// Panics if the plan would hold more than `u32::MAX` task slots.
    pub fn push_restored(&mut self, cardinality: u32, tasks: impl IntoIterator<Item = TaskId>) {
        self.tasks.extend(tasks);
        let end = slot_offset(self.tasks.len());
        self.headers.push(BinHeader { cardinality, end });
    }

    /// Name of the solver that produced the plan.
    #[inline]
    pub fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    /// The posted bins, in posting order, as views into the plan.
    #[inline]
    pub fn bins(&self) -> Bins<'_> {
        Bins {
            tasks: &self.tasks,
            headers: self.headers.iter(),
            start: 0,
        }
    }

    /// Number of posted bins.
    #[inline]
    pub fn num_bins(&self) -> usize {
        self.headers.len()
    }

    /// Total posting cost `Σ c_l` over all posted bins.
    #[inline]
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Appends every bin of `other` with its task ids rewritten through
    /// `map` (e.g. from bucket-local indices back to global ids), and adds
    /// `other`'s recorded cost, leaving `other` untouched. Both
    /// [`OpqExtended`](crate::hetero::OpqExtended) and the engine merge
    /// per-bucket sub-plans this way.
    ///
    /// # Panics
    /// Panics if the plan would hold more than `u32::MAX` task slots.
    pub fn merge_mapped(&mut self, other: &DecompositionPlan, map: impl Fn(TaskId) -> TaskId) {
        let base = slot_offset(self.tasks.len());
        // Every shifted offset is at most the merged length, so one check
        // of that length covers all of them.
        slot_offset(self.tasks.len() + other.tasks.len());
        self.tasks.extend(other.tasks.iter().map(|&t| map(t)));
        self.headers.extend(other.headers.iter().map(|h| BinHeader {
            cardinality: h.cardinality,
            end: h.end + base,
        }));
        self.total_cost += other.total_cost;
    }

    /// Audits the plan against an instance.
    ///
    /// Structural inconsistencies — a cardinality absent from `bins`, an
    /// out-of-range task id, a duplicated task inside one bin, an overfilled
    /// bin, or a recorded cost that disagrees with the recomputed one —
    /// return [`SladeError::InvalidPlan`]. A structurally sound plan that
    /// merely fails to reach some thresholds is *not* an error: it yields an
    /// audit with [`PlanAudit::feasible`] `== false` and the offenders listed
    /// in [`PlanAudit::unsatisfied`].
    pub fn validate(&self, workload: &Workload, bins: &BinSet) -> Result<PlanAudit, SladeError> {
        let n = workload.len() as usize;
        let mut weight_sums = vec![0.0f64; n];
        let mut recomputed_cost = 0.0f64;
        let mut seen: Vec<u32> = vec![u32::MAX; n];

        for (idx, posted) in self.bins().enumerate() {
            let Some(bin) = bins.get(posted.cardinality) else {
                return Err(SladeError::InvalidPlan(format!(
                    "bin {idx} has cardinality {} which is not in the bin set",
                    posted.cardinality
                )));
            };
            if posted.tasks.len() > bin.cardinality() as usize {
                return Err(SladeError::InvalidPlan(format!(
                    "bin {idx} holds {} tasks but cardinality is {}",
                    posted.tasks.len(),
                    bin.cardinality()
                )));
            }
            recomputed_cost += bin.cost();
            for &t in posted.tasks {
                let Some(sum) = weight_sums.get_mut(t as usize) else {
                    return Err(SladeError::InvalidPlan(format!(
                        "bin {idx} references task {t}, but the workload has only {n} tasks"
                    )));
                };
                if seen[t as usize] == idx as u32 {
                    return Err(SladeError::InvalidPlan(format!(
                        "bin {idx} contains task {t} more than once"
                    )));
                }
                seen[t as usize] = idx as u32;
                *sum += bin.weight();
            }
        }

        if (recomputed_cost - self.total_cost).abs() > 1e-6 * (1.0 + recomputed_cost.abs()) {
            return Err(SladeError::InvalidPlan(format!(
                "plan records cost {} but its bins cost {recomputed_cost}",
                self.total_cost
            )));
        }

        let mut unsatisfied = Vec::new();
        let mut min_slack = f64::INFINITY;
        for ((i, &sum), theta) in (0..).zip(&weight_sums).zip(workload.thetas()) {
            min_slack = min_slack.min(sum - theta);
            if !reliability::satisfies(sum, theta) {
                unsatisfied.push(i);
            }
        }

        Ok(PlanAudit {
            feasible: unsatisfied.is_empty(),
            total_cost: recomputed_cost,
            bins_posted: self.num_bins(),
            min_slack,
            unsatisfied,
        })
    }
}

/// A task-array length as a header offset. Checked, never wrapped: a plan
/// past `u32::MAX` task slots (16 GiB of ids) is a bug upstream.
fn slot_offset(len: usize) -> u32 {
    u32::try_from(len).expect("a plan holds at most u32::MAX task slots")
}

/// Iterator over a plan's posted bins; see [`DecompositionPlan::bins`].
#[derive(Debug, Clone)]
pub struct Bins<'a> {
    tasks: &'a [TaskId],
    headers: std::slice::Iter<'a, BinHeader>,
    start: usize,
}

impl<'a> Iterator for Bins<'a> {
    type Item = PlannedBin<'a>;

    #[inline]
    fn next(&mut self) -> Option<PlannedBin<'a>> {
        let header = self.headers.next()?;
        let end = header.end as usize;
        let tasks = &self.tasks[self.start..end];
        self.start = end;
        Some(PlannedBin {
            cardinality: header.cardinality,
            tasks,
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.headers.size_hint()
    }
}

impl ExactSizeIterator for Bins<'_> {}

/// The result of auditing a [`DecompositionPlan`] against an instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAudit {
    /// Whether every task reaches its reliability threshold (within
    /// [`reliability::WEIGHT_EPS`]).
    pub feasible: bool,
    /// Recomputed total posting cost.
    pub total_cost: f64,
    /// Number of bins the plan posts.
    pub bins_posted: usize,
    /// Minimum over tasks of `accumulated weight − θ_i`; negative iff some
    /// task is under-covered.
    pub min_slack: f64,
    /// Tasks whose reliability threshold is not met, in id order.
    pub unsatisfied: Vec<TaskId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> (Workload, BinSet) {
        (
            Workload::homogeneous(4, 0.95).unwrap(),
            BinSet::paper_example(),
        )
    }

    /// The hand-built plan from Example 9 of the paper: tasks {0,1,2} in two
    /// b3 bins, task 3 in two b1 bins, total cost 0.68.
    fn example9_plan(bins: &BinSet) -> DecompositionPlan {
        let mut plan = DecompositionPlan::empty("hand");
        let b3 = bins.get(3).unwrap();
        let b1 = bins.get(1).unwrap();
        plan.push(b3, vec![0, 1, 2]);
        plan.push(b3, vec![0, 1, 2]);
        plan.push(b1, vec![3]);
        plan.push(b1, vec![3]);
        plan
    }

    #[test]
    fn example9_plan_is_feasible_at_cost_068() {
        let (w, b) = instance();
        let plan = example9_plan(&b);
        assert!((plan.total_cost() - 0.68).abs() < 1e-12);
        let audit = plan.validate(&w, &b).unwrap();
        assert!(audit.feasible);
        assert!(audit.unsatisfied.is_empty());
        assert_eq!(audit.bins_posted, 4);
        assert!((audit.total_cost - 0.68).abs() < 1e-12);
        assert!(audit.min_slack > 0.0);
    }

    #[test]
    fn under_covered_plan_audits_infeasible_without_error() {
        let (w, b) = instance();
        let mut plan = DecompositionPlan::empty("hand");
        // One b3 per task group is not enough weight for t = 0.95.
        plan.push(b.get(3).unwrap(), vec![0, 1, 2]);
        plan.push(b.get(3).unwrap(), vec![3]);
        let audit = plan.validate(&w, &b).unwrap();
        assert!(!audit.feasible);
        assert_eq!(audit.unsatisfied, vec![0, 1, 2, 3]);
        assert!(audit.min_slack < 0.0);
    }

    #[test]
    fn unknown_cardinality_is_structural_error() {
        let (w, b) = instance();
        let mut plan = DecompositionPlan::empty("hand");
        plan.push_restored(7, [0]);
        assert!(matches!(
            plan.validate(&w, &b),
            Err(SladeError::InvalidPlan(_))
        ));
    }

    #[test]
    fn duplicate_task_in_one_bin_is_structural_error() {
        let (w, b) = instance();
        let mut plan = DecompositionPlan::empty("hand");
        plan.push_restored(3, [0, 0]);
        plan.total_cost = 0.24;
        let err = plan.validate(&w, &b).unwrap_err();
        assert!(err.to_string().contains("more than once"), "{err}");
    }

    #[test]
    fn same_task_in_two_bins_is_fine() {
        let (w, b) = instance();
        let mut plan = DecompositionPlan::empty("hand");
        plan.push(b.get(1).unwrap(), vec![0]);
        plan.push(b.get(1).unwrap(), vec![0]);
        let audit = plan.validate(&w, &b).unwrap();
        assert_eq!(audit.unsatisfied, vec![1, 2, 3]); // 0 is satisfied
    }

    #[test]
    fn out_of_range_task_is_structural_error() {
        let (w, b) = instance();
        let mut plan = DecompositionPlan::empty("hand");
        plan.push(b.get(1).unwrap(), vec![9]);
        assert!(matches!(
            plan.validate(&w, &b),
            Err(SladeError::InvalidPlan(_))
        ));
    }

    #[test]
    fn overfilled_bin_is_structural_error() {
        let (w, b) = instance();
        let mut plan = DecompositionPlan::empty("hand");
        plan.push_restored(1, [0, 1]);
        plan.total_cost = 0.10;
        assert!(matches!(
            plan.validate(&w, &b),
            Err(SladeError::InvalidPlan(_))
        ));
    }

    #[test]
    fn cost_mismatch_is_structural_error() {
        let (w, b) = instance();
        let mut plan = example9_plan(&b);
        plan.total_cost = 0.50;
        let err = plan.validate(&w, &b).unwrap_err();
        assert!(err.to_string().contains("cost"), "{err}");
    }

    #[test]
    fn remap_and_merge_compose_sub_plans() {
        let (w, b) = instance();
        let mut left = DecompositionPlan::empty("hand");
        left.push(b.get(1).unwrap(), vec![0]);
        left.push(b.get(1).unwrap(), vec![0]);
        let mut right = DecompositionPlan::empty("hand");
        right.push(b.get(1).unwrap(), vec![0]);
        right.push(b.get(1).unwrap(), vec![0]);
        // `right` covers bucket-local task 0 -> global task 3.
        left.merge_mapped(&right, |t| t + 3);
        assert_eq!(left.num_bins(), 4);
        assert!((left.total_cost() - 0.40).abs() < 1e-12);
        let audit = left.validate(&w, &b).unwrap();
        assert_eq!(audit.unsatisfied, vec![1, 2]);
    }

    #[test]
    fn empty_plan_on_nonempty_workload_is_infeasible() {
        let (w, b) = instance();
        let plan = DecompositionPlan::empty("hand");
        let audit = plan.validate(&w, &b).unwrap();
        assert!(!audit.feasible);
        assert_eq!(audit.unsatisfied.len(), 4);
        assert_eq!(audit.bins_posted, 0);
        assert_eq!(audit.total_cost, 0.0);
    }
}
