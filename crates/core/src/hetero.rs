//! The OPQ-Extended solver for heterogeneous workloads
//! (Algorithms 4–5 of the paper).
//!
//! Heterogeneous thresholds break the OPQ-Based solver's premise that all
//! tasks are interchangeable. The paper's fix is geometric *threshold
//! bucketing*: round every transformed threshold `θ_i` up to the nearest
//! value in `{θ_max, θ_max/2, θ_max/4, …}`, which
//!
//! 1. at most doubles any task's demand (the factor 2 in the guarantee), and
//! 2. leaves at most `⌈log₂(θ_max/θ_min)⌉` distinct demands, each of which is
//!    a homogeneous sub-problem solved by [`OpqBased`] (its `log n` factor).
//!
//! Stitching the per-bucket plans back together (bucket-local task ids are
//! remapped to global ids) yields the paper's
//! `2⌈log(θ_max/θ_min)⌉·log n`-approximate heterogeneous solver. Workloads
//! that are actually homogeneous form one identity bucket at their own
//! threshold, so no demand is rounded up.
//!
//! ```
//! use slade_core::prelude::*;
//!
//! let bins = BinSet::paper_example();
//! // Example 10's thresholds (with the paper's θ(0.7) typo corrected).
//! let workload = Workload::heterogeneous(vec![0.5, 0.6, 0.7, 0.86]).unwrap();
//! let plan = OpqExtended::default().solve(&workload, &bins).unwrap();
//! assert!(plan.validate(&workload, &bins).unwrap().feasible);
//! ```

use crate::bin_set::BinSet;
use crate::error::SladeError;
use crate::opq_based::OpqBased;
use crate::plan::DecompositionPlan;
use crate::reliability::confidence_from_weight;
use crate::solver::PreparedSolver;
use crate::task::{TaskId, Workload};

/// The OPQ-Extended solver: threshold bucketing on top of [`OpqBased`].
#[derive(Debug, Clone, Default)]
pub struct OpqExtended {
    /// Configuration of the per-bucket homogeneous solver.
    pub inner: OpqBased,
}

/// One geometric threshold bucket of Algorithm 5: an independent homogeneous
/// sub-instance of the heterogeneous problem.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdBucket {
    /// The geometric level `k` of this bucket: its ceiling is `θ_max / 2^k`.
    /// `0` for the single bucket of a homogeneous workload.
    pub level: u32,
    /// The bucket-ceiling confidence. Solving the members homogeneously at
    /// this threshold satisfies every member (each sits at or below the
    /// ceiling) while over-demanding by at most a factor 2 in θ.
    pub confidence: f64,
    /// Global ids of the member tasks, in ascending order. Bucket-local task
    /// `j` of the sub-plan corresponds to global task `members[j]`.
    pub members: Vec<TaskId>,
}

/// Partitions a workload into the geometric threshold buckets of
/// Algorithm 5, skipping empty buckets. A homogeneous workload yields a
/// single bucket holding every task at its own threshold (no rounding).
///
/// Each bucket is a self-contained homogeneous sub-problem, which makes this
/// the sharding boundary `slade-engine` parallelizes heterogeneous requests
/// over: buckets can be solved on different threads and the sub-plans merged
/// in bucket order, with a result independent of scheduling.
pub fn partition(workload: &Workload) -> Vec<ThresholdBucket> {
    if workload.is_homogeneous() {
        return vec![ThresholdBucket {
            level: 0,
            confidence: workload.threshold(0),
            members: (0..workload.len()).collect(),
        }];
    }

    let thetas: Vec<f64> = workload.thetas().collect();
    let theta_max = thetas.iter().copied().fold(f64::MIN, f64::max);
    let theta_min = thetas.iter().copied().fold(f64::MAX, f64::min);
    // Bucket k collects tasks with θ ∈ (θ_max/2^{k+1}, θ_max/2^k]; every
    // task lands in 0..=last_bucket.
    let last_bucket = (theta_max / theta_min).log2().ceil() as u32;

    let mut buckets: Vec<Vec<TaskId>> = vec![Vec::new(); last_bucket as usize + 1];
    for (i, &theta) in (0..).zip(&thetas) {
        let k = bucket_of(theta, theta_max, last_bucket);
        buckets[k as usize].push(i);
    }

    buckets
        .into_iter()
        .enumerate()
        .filter(|(_, members)| !members.is_empty())
        .map(|(k, members)| {
            // The bucket ceiling θ_max/2^k, rounded back to a confidence;
            // every member's threshold is ≤ it and ≥ half of it.
            let theta_bucket = theta_max / f64::powi(2.0, k as i32);
            ThresholdBucket {
                level: k as u32,
                confidence: confidence_from_weight(theta_bucket),
                members,
            }
        })
        .collect()
}

/// The pass-through pipeline: the engine never prepares an `OpqExtended`
/// request as a whole. It splits one into per-bucket homogeneous shards,
/// which run and cache as [`OpqBased`] prepares.
impl PreparedSolver for OpqExtended {
    fn name(&self) -> &'static str {
        "OpqExtended"
    }

    fn solve(&self, workload: &Workload, bins: &BinSet) -> Result<DecompositionPlan, SladeError> {
        let mut plan = DecompositionPlan::empty(self.name());
        // A homogeneous workload is one identity bucket at its own
        // threshold: Algorithm 5 degenerates to Algorithm 3.
        for bucket in partition(workload) {
            let sub_workload =
                Workload::homogeneous(bucket.members.len() as u32, bucket.confidence)?;
            let sub = self.inner.solve(&sub_workload, bins)?;
            plan.merge_mapped(&sub, |local| bucket.members[local as usize]);
        }
        Ok(plan)
    }
}

/// Index of the geometric bucket holding transformed threshold `theta`.
fn bucket_of(theta: f64, theta_max: f64, last_bucket: u32) -> u32 {
    debug_assert!(theta > 0.0 && theta <= theta_max * (1.0 + 1e-12));
    let raw = (theta_max / theta).log2();
    // A task exactly on a bucket ceiling belongs to that bucket; guard the
    // float error around integer boundaries before flooring.
    let k = (raw + 1e-12).floor() as u32;
    k.min(last_bucket)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::theta;

    #[test]
    fn homogeneous_workloads_delegate_to_opq_based() {
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(4, 0.95).unwrap();
        let plan = OpqExtended::default().solve(&w, &bins).unwrap();
        // Same structure and cost as OPQ-Based's Example 9 answer.
        assert!((plan.total_cost() - 0.68).abs() < 1e-9);
        assert_eq!(plan.algorithm(), "OpqExtended");
        assert!(plan.validate(&w, &bins).unwrap().feasible);
    }

    #[test]
    fn example10_style_instance_is_feasible() {
        let bins = BinSet::paper_example();
        let w = Workload::heterogeneous(vec![0.5, 0.6, 0.7, 0.86]).unwrap();
        let plan = OpqExtended::default().solve(&w, &bins).unwrap();
        let audit = plan.validate(&w, &bins).unwrap();
        assert!(audit.feasible);
        // Rounding up to bucket ceilings can at most double every demand, so
        // the cost can be at most that of serving every task at θ_max twice
        // — loosely bounded here by 4 tasks × cheapest θ(0.86)-combination.
        assert!(plan.total_cost() <= 4.0 * 0.40);
    }

    #[test]
    fn bucketing_respects_ceilings_and_ranges() {
        let tmax = theta(0.95);
        // θ exactly at a ceiling joins that bucket.
        assert_eq!(bucket_of(tmax, tmax, 5), 0);
        assert_eq!(bucket_of(tmax / 2.0, tmax, 5), 1);
        assert_eq!(bucket_of(tmax / 4.0, tmax, 5), 2);
        // Just below a ceiling falls into the next bucket.
        assert_eq!(bucket_of(tmax / 2.0 * 0.999, tmax, 5), 1);
        assert_eq!(bucket_of(tmax * 0.999, tmax, 5), 0);
        // Clamped at the last bucket.
        assert_eq!(bucket_of(tmax / 100.0, tmax, 3), 3);
    }

    #[test]
    fn wide_threshold_spread_stays_feasible() {
        let bins = BinSet::new([(1, 0.9, 0.1), (2, 0.85, 0.18), (3, 0.8, 0.24)]).unwrap();
        let thresholds: Vec<f64> = (0..40)
            .map(|i| 0.05 + 0.93 * (f64::from(i) / 39.0))
            .collect();
        let w = Workload::heterogeneous(thresholds).unwrap();
        let plan = OpqExtended::default().solve(&w, &bins).unwrap();
        let audit = plan.validate(&w, &bins).unwrap();
        assert!(audit.feasible, "unsatisfied: {:?}", audit.unsatisfied);
    }

    #[test]
    fn bucketed_cost_is_within_factor_two_of_per_bucket_lower_bound() {
        // Σ_i θ_i · min_unit_weight_cost is a global lower bound; bucketing
        // pays at most 2× on each θ_i before OPQ-Based's own gap. This is a
        // sanity band, not the formal guarantee.
        let bins = BinSet::paper_example();
        let w = Workload::heterogeneous(vec![0.3, 0.55, 0.72, 0.9, 0.95]).unwrap();
        let plan = OpqExtended::default().solve(&w, &bins).unwrap();
        let lower: f64 = w.thetas().sum::<f64>() * bins.min_unit_weight_cost();
        assert!(plan.total_cost() >= lower - 1e-9);
        assert!(plan.validate(&w, &bins).unwrap().feasible);
    }

    #[test]
    fn partition_covers_every_task_exactly_once() {
        let w = Workload::heterogeneous(vec![0.3, 0.55, 0.72, 0.9, 0.95]).unwrap();
        let buckets = partition(&w);
        let mut seen: Vec<TaskId> = buckets.iter().flat_map(|b| b.members.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        for bucket in &buckets {
            assert!(bucket.confidence > 0.0 && bucket.confidence < 1.0);
            // The ceiling dominates every member's own threshold.
            for &t in &bucket.members {
                assert!(w.threshold(t) <= bucket.confidence + 1e-12);
            }
        }
    }

    #[test]
    fn partition_of_homogeneous_workload_is_one_identity_bucket() {
        let w = Workload::homogeneous(5, 0.9).unwrap();
        let buckets = partition(&w);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].confidence, 0.9);
        assert_eq!(buckets[0].members, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn prepared_pipeline_matches_one_shot_on_hetero_workloads() {
        let bins = BinSet::paper_example();
        let solver = OpqExtended::default();
        let cases = [
            vec![0.5, 0.6, 0.7, 0.86],
            vec![0.3, 0.55, 0.72, 0.9, 0.95],
            vec![0.95, 0.94],
        ];
        for thresholds in cases {
            let w = Workload::heterogeneous(thresholds.clone()).unwrap();
            let theta_max = w.thetas().fold(f64::MIN, f64::max);
            let artifacts = solver.prepare(&bins, theta_max).unwrap();
            let two_phase = solver.solve_with(artifacts.as_ref(), &w, &bins).unwrap();
            let one_shot = solver.solve(&w, &bins).unwrap();
            assert_eq!(two_phase, one_shot, "{thresholds:?}");
        }
    }

    #[test]
    fn two_tasks_same_bucket_share_bins() {
        let bins = BinSet::paper_example();
        // Both thresholds land in bucket 0 (θ within a factor 2), so the
        // sub-problem is a 2-task homogeneous instance at t = 0.95 and the
        // tasks share bins: two b2 bins at 0.36 total.
        let w = Workload::heterogeneous(vec![0.95, 0.94]).unwrap();
        let plan = OpqExtended::default().solve(&w, &bins).unwrap();
        assert!((plan.total_cost() - 0.36).abs() < 1e-9);
        assert!(plan.validate(&w, &bins).unwrap().feasible);
    }
}
