//! The OPQ-Based decomposition solver for homogeneous workloads
//! (Algorithm 3 of the paper, built on the Algorithm-2 queue in [`crate::opq`]).
//!
//! ## How it works
//!
//! With one shared threshold `t`, every atomic task must receive bins whose
//! weights sum to `θ = -ln(1 - t)`, so any solution assigns each task a
//! feasible *combination* of bin types. Tasks using the same combination can
//! share physical bins: a group of `g` tasks all using combination
//! `q = {k_l × b_l}` needs `max(k_l, ⌈g·k_l / l⌉)` bins of each type `l`
//! (round-robin placement), which for fully shared groups costs the per-task
//! *price* `p(q) = Σ k_l · c_l / l`.
//!
//! The solver pulls the cheapest combinations from the OPQ under both of its
//! keys, then optimizes the group structure:
//!
//! * **small `n`** — an exact dynamic program over group splits:
//!   `R(j) = min_{q, 1 ≤ g ≤ j} R(j − g) + cost(g, q)`;
//! * **large `n`** — one bulk group of `n − j` tasks (the per-task price of
//!   the best combination is a lower bound on `OPT / n`, and a single bulk
//!   group pays at most `c(q*)` over it) plus the same DP for the tail `j`.
//!
//! This reproduces the paper's Example 9 and carries its `O(log n)`
//! approximation guarantee (Theorem 4); the bulk-group bound above is in
//! fact much tighter — `OPT + c(q*)` — for large `n`.
//!
//! ## Example 9 of the paper
//!
//! ```
//! use slade_core::prelude::*;
//!
//! let bins = BinSet::paper_example();
//! let workload = Workload::homogeneous(4, 0.95).unwrap();
//! let plan = OpqBased::default().solve(&workload, &bins).unwrap();
//! // Three tasks share two 3-cardinality bins (0.48) and the leftover task
//! // takes two 1-cardinality bins (0.20): 0.68 in total.
//! assert!((plan.total_cost() - 0.68).abs() < 1e-9);
//! assert!(plan.validate(&workload, &bins).unwrap().feasible);
//! ```

use crate::bin_set::BinSet;
use crate::error::SladeError;
use crate::fingerprint::KnobSink;
use crate::opq::{Combination, CombinationKey, OpqConfig, OptimalPriorityQueue};
use crate::plan::DecompositionPlan;
use crate::solver::{expect_artifacts, PreparedSolver, SolveArtifacts};
use crate::task::{TaskId, Workload};
use std::any::Any;
use std::sync::Arc;

/// The OPQ-Based solver (homogeneous workloads only).
#[derive(Debug, Clone)]
pub struct OpqBased {
    /// Enumeration bounds forwarded to the [`OptimalPriorityQueue`].
    pub opq: OpqConfig,
    /// How many candidate combinations to pull from the OPQ *per key*
    /// (per-task price and total cost); the union forms the DP's menu.
    pub pool_size: usize,
    /// Largest task count optimized by the exact group DP; instances beyond
    /// it use one bulk group plus a DP tail of this size.
    pub dp_cap: u32,
}

impl Default for OpqBased {
    fn default() -> Self {
        OpqBased {
            opq: OpqConfig::default(),
            pool_size: 24,
            dp_cap: 256,
        }
    }
}

/// Reusable solve artifacts for one `(BinSet, θ)` pair: the OPQ candidate
/// pool plus the group-DP tables, computed once up to a task-count cap.
///
/// Artifacts are *instance-size independent*: the DP tables are bottom-up,
/// so `best[j]`/`choice[j]` for `j ≤ cap` do not depend on `cap`, and any
/// homogeneous workload against the same menu and threshold can be planned
/// from the same artifacts via [`OpqBased::solve_with_artifacts`] — with a
/// plan identical to what [`OpqBased::solve`] would build from scratch.
/// `slade-engine`'s `ArtifactCache` shares them across requests behind an
/// `Arc`, which is why the type is plain owned data (`Send + Sync`).
#[derive(Debug, Clone, PartialEq)]
pub struct OpqArtifacts {
    /// Candidate combination pool (union of both OPQ keys, deduplicated).
    pool: Vec<Combination>,
    /// `best[j]` — cheapest cost of serving `j` tasks with DP groups.
    best: Vec<f64>,
    /// `(group size, pool index)` realizing each `best[j]`.
    choice: Vec<(u32, usize)>,
    /// The transformed threshold the artifacts were enumerated against.
    theta: f64,
    /// Signature of the bin menu the pool indices refer to; `solve_with`
    /// rejects a different menu (pool/DP indices would silently misapply).
    bins_signature: u64,
}

impl OpqArtifacts {
    /// The transformed threshold `θ` these artifacts serve.
    #[inline]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The candidate combinations the group DP optimizes over.
    #[inline]
    pub fn pool(&self) -> &[Combination] {
        &self.pool
    }

    /// Largest task count the DP tables cover exactly.
    #[inline]
    pub fn dp_cap(&self) -> u32 {
        (self.best.len() - 1) as u32
    }
}

/// One group in the solver's internal plan sketch.
struct Group {
    /// First task id in the group (tasks are assigned contiguously).
    base: TaskId,
    /// Number of tasks in the group.
    size: u32,
    /// Index into the candidate pool.
    combo: usize,
}

impl OpqBased {
    /// Cost of serving a group of `g` tasks that all use combination `q`:
    /// `Σ_l c_l · max(k_l, ⌈g·k_l / l⌉)`.
    fn group_cost(q: &Combination, bins: &BinSet, g: u64) -> f64 {
        debug_assert!(g >= 1);
        q.counts()
            .iter()
            .enumerate()
            .filter(|(_, &k)| k > 0)
            .map(|(i, &k)| {
                let b = &bins.bins()[i];
                let needed = bins_needed(g, k, b.cardinality());
                b.cost() * needed as f64
            })
            .sum()
    }

    /// Runs the exact group DP for `cap` tasks over the candidate `pool`.
    /// Returns per-size best costs `R[0..=cap]` and the `(group size, combo)`
    /// choice realizing each.
    ///
    /// `R(j)` takes the smallest `(value, qi, g)` over the candidates
    /// `R(j − g) + cost(g, q_qi)`: the pick of a `qi`-major, `g`-minor scan
    /// that keeps the first strict minimum. Each group size's costs are
    /// computed once, keeping the least cost, the first `qi` attaining it,
    /// and the least cost above it. Float addition is monotone, so for every
    /// `j` the least cost attains row `g`'s least sum and the first `qi`
    /// wins the row, unless the next cost up rounds to the same sum; only
    /// then is the row recomputed to find its first entry with that sum.
    /// That is `O(cap²)` additions instead of `O(cap² · |pool|)`
    /// `group_cost` calls, in `O(cap)` memory.
    fn group_dp(pool: &[Combination], bins: &BinSet, cap: u32) -> (Vec<f64>, Vec<(u32, usize)>) {
        let cap = cap as usize;
        // Per group size g: (least cost, first qi attaining it, least cost
        // above it).
        let rows: Vec<(f64, usize, f64)> = (1..=cap as u64)
            .map(|g| {
                let mut row = (f64::INFINITY, 0, f64::INFINITY);
                for (qi, q) in pool.iter().enumerate() {
                    let cost = Self::group_cost(q, bins, g);
                    if cost < row.0 {
                        row = (cost, qi, row.0);
                    } else if cost > row.0 && cost < row.2 {
                        row.2 = cost;
                    }
                }
                row
            })
            .collect();
        let mut best = vec![f64::INFINITY; cap + 1];
        let mut choice = vec![(0u32, 0usize); cap + 1];
        best[0] = 0.0;
        for j in 1..=cap {
            let (mut value, mut pick) = (f64::INFINITY, (0u32, 0usize));
            for (g, &(least, first, next)) in (1..=j).zip(&rows) {
                let rest = best[j - g];
                let sum = rest + least;
                if sum > value {
                    continue;
                }
                let qi = if rest + next == sum {
                    pool.iter()
                        .position(|q| rest + Self::group_cost(q, bins, g as u64) == sum)
                        .expect("the least cost attains the row's least sum")
                } else {
                    first
                };
                if sum < value || qi < pick.1 {
                    value = sum;
                    pick = (g as u32, qi);
                }
            }
            best[j] = value;
            choice[j] = pick;
        }
        (best, choice)
    }

    /// Reconstructs the DP's group list for `j` tasks starting at `base`.
    fn unroll(choice: &[(u32, usize)], mut j: u32, mut base: TaskId, groups: &mut Vec<Group>) {
        while j > 0 {
            let (g, qi) = choice[j as usize];
            groups.push(Group {
                base,
                size: g,
                combo: qi,
            });
            base += g;
            j -= g;
        }
    }

    /// Materializes a group as physical bins via round-robin placement:
    /// the group's `g·k` placement entries `e` (task `base + e/k`, each task
    /// `k` times in a row) are dealt out over `n_bins` bins, so bin `s`
    /// holds the entries `e ≡ s (mod n_bins)` in increasing order. `k ≤
    /// n_bins` keeps a task's `k` entries in distinct bins.
    fn emit_group(
        group: &Group,
        pool: &[Combination],
        bins: &BinSet,
        plan: &mut DecompositionPlan,
    ) {
        let q = &pool[group.combo];
        let g = group.size as u64;
        for (i, &k) in q.counts().iter().enumerate() {
            if k == 0 {
                continue;
            }
            let bin = &bins.bins()[i];
            let n_bins = bins_needed(g, k, bin.cardinality());
            let k = u64::from(k);
            for slot in 0..n_bins {
                let entries = (slot..g * k).step_by(n_bins as usize);
                plan.push(bin, entries.map(|e| group.base + (e / k) as TaskId));
            }
        }
    }

    /// Precomputes the enumeration pool and group-DP tables for transformed
    /// threshold `theta` up to this configuration's full `dp_cap`, so the
    /// result can serve workloads of any size (see [`OpqArtifacts`]).
    ///
    /// This is the expensive, workload-independent part of
    /// [`OpqBased::solve`]; callers that face repeated `(BinSet, θ)` pairs
    /// (the `slade-engine` service) compute it once and share it.
    pub fn artifacts(&self, bins: &BinSet, theta: f64) -> Result<OpqArtifacts, SladeError> {
        self.artifacts_up_to(bins, theta, self.dp_cap.max(1))
    }

    /// [`OpqBased::artifacts`] with an explicit DP cap (the one-shot solve
    /// path trims it to `n` so tiny instances don't pay for the full table).
    fn artifacts_up_to(
        &self,
        bins: &BinSet,
        theta: f64,
        cap: u32,
    ) -> Result<OpqArtifacts, SladeError> {
        let pool = self.candidate_pool(bins, theta);
        if pool.is_empty() {
            return Err(SladeError::EmptyEnumeration);
        }
        let (best, choice) = Self::group_dp(&pool, bins, cap);
        Ok(OpqArtifacts {
            pool,
            best,
            choice,
            theta,
            bins_signature: bins.signature(),
        })
    }

    /// Plans `n` tasks (dense ids `0..n`) from precomputed `artifacts`.
    ///
    /// Produces exactly the plan [`OpqBased::solve`] would produce for a
    /// homogeneous workload of `n` tasks at the artifacts' threshold,
    /// provided `artifacts` came from [`OpqBased::artifacts`] on the same
    /// solver configuration and bin set — the caller's contract.
    pub fn solve_with_artifacts(
        &self,
        n: u32,
        artifacts: &OpqArtifacts,
        bins: &BinSet,
    ) -> DecompositionPlan {
        let mut plan = DecompositionPlan::empty(self.name());
        for group in &Self::groups(n, artifacts, bins) {
            Self::emit_group(group, &artifacts.pool, bins, &mut plan);
        }
        plan
    }

    /// The group structure planned for `n` tasks: the DP's groups when `n`
    /// is within the tables, else one bulk group plus the best DP tail.
    fn groups(n: u32, artifacts: &OpqArtifacts, bins: &BinSet) -> Vec<Group> {
        debug_assert!(n >= 1);
        let mut groups: Vec<Group> = Vec::new();
        let cap = artifacts.dp_cap();
        if n <= cap {
            Self::unroll(&artifacts.choice, n, 0, &mut groups);
        } else {
            // One bulk group of n - tail tasks plus the best DP tail.
            let (tail, qi) = Self::bulk_pick(n, artifacts, bins);
            groups.push(Group {
                base: 0,
                size: n - tail,
                combo: qi,
            });
            Self::unroll(&artifacts.choice, tail, n - tail, &mut groups);
        }
        groups
    }

    /// The bulk split for `n > dp_cap` tasks: the `(tail, qi)` minimizing
    /// `R(tail) + cost(n − tail, q_qi)`, the first strict minimum in
    /// `(tail, qi)` order.
    ///
    /// Each bin's cost splits over at most `l` tasks, so `cost(g, q) ≥
    /// g · p(q)`, and `R(j) + (n − j) · p(q) · (1 − 1e-9)` bounds a
    /// candidate's total from below (the margin absorbs the rounding in
    /// `p(q)` and in `group_cost`; float addition is monotone). A candidate
    /// whose bound already exceeds the running best could never be a strict
    /// improvement, nor could a row `j` whose bound at the pool's least
    /// price does, so both are skipped unevaluated. Survivors are evaluated
    /// by the same expression in the same order, so the pick is the
    /// exhaustive scan's.
    fn bulk_pick(n: u32, artifacts: &OpqArtifacts, bins: &BinSet) -> (u32, usize) {
        const MARGIN: f64 = 1.0 - 1e-9;
        let pool = &artifacts.pool;
        let least_price = pool
            .iter()
            .map(Combination::price)
            .fold(f64::INFINITY, f64::min);
        let mut best_total = f64::INFINITY;
        let mut pick = (0u32, 0usize);
        for (j, &rest) in (0u32..).zip(&artifacts.best) {
            let bulk = u64::from(n - j);
            let scale = bulk as f64 * MARGIN;
            if rest + scale * least_price > best_total {
                continue;
            }
            for (qi, q) in pool.iter().enumerate() {
                if rest + scale * q.price() > best_total {
                    continue;
                }
                let total = rest + Self::group_cost(q, bins, bulk);
                if total < best_total {
                    best_total = total;
                    pick = (j, qi);
                }
            }
        }
        pick
    }

    /// Gathers the candidate combination pool: the `pool_size` cheapest
    /// combinations under each OPQ key, deduplicated.
    fn candidate_pool(&self, bins: &BinSet, theta: f64) -> Vec<Combination> {
        let mut pool: Vec<Combination> = Vec::new();
        for key in [CombinationKey::PerTaskPrice, CombinationKey::TotalCost] {
            let mut opq = OptimalPriorityQueue::new(bins, theta, key, self.opq.clone());
            for combo in opq.take_feasible(self.pool_size) {
                if !pool.iter().any(|c| c.counts() == combo.counts()) {
                    pool.push(combo);
                }
            }
        }
        pool
    }
}

/// Physical bins of one type needed so that each of `g` tasks sits in `k`
/// distinct bins of cardinality `l`: `max(k, ⌈g·k / l⌉)`.
fn bins_needed(g: u64, k: u32, l: u32) -> u64 {
    let slots = g * u64::from(k);
    u64::from(k).max(slots.div_ceil(u64::from(l)))
}

impl SolveArtifacts for OpqArtifacts {
    fn theta(&self) -> f64 {
        self.theta
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl PreparedSolver for OpqBased {
    fn name(&self) -> &'static str {
        "OpqBased"
    }

    fn supports_heterogeneous(&self) -> bool {
        false
    }

    fn solve(&self, workload: &Workload, bins: &BinSet) -> Result<DecompositionPlan, SladeError> {
        if !workload.is_homogeneous() {
            return Err(SladeError::HeterogeneousUnsupported { solver: "OpqBased" });
        }
        let n = workload.len();
        let theta = workload.theta(0);
        let cap = n.min(self.dp_cap.max(1));
        let artifacts = self.artifacts_up_to(bins, theta, cap)?;
        Ok(self.solve_with_artifacts(n, &artifacts, bins))
    }

    fn prepare(&self, bins: &BinSet, theta: f64) -> Result<Arc<dyn SolveArtifacts>, SladeError> {
        Ok(Arc::new(self.artifacts(bins, theta)?))
    }

    fn solve_with(
        &self,
        artifacts: &dyn SolveArtifacts,
        workload: &Workload,
        bins: &BinSet,
    ) -> Result<DecompositionPlan, SladeError> {
        if !workload.is_homogeneous() {
            return Err(SladeError::HeterogeneousUnsupported { solver: "OpqBased" });
        }
        let artifacts = expect_artifacts::<OpqArtifacts>(self.name(), artifacts)?;
        if artifacts.bins_signature != bins.signature() {
            return Err(SladeError::ArtifactMismatch {
                solver: self.name(),
                detail: "artifacts were prepared for a different bin menu".into(),
            });
        }
        let theta = workload.theta(0);
        if theta.to_bits() != artifacts.theta.to_bits() {
            return Err(SladeError::ArtifactMismatch {
                solver: self.name(),
                detail: format!(
                    "artifacts prepared for θ = {}, workload demands θ = {theta}",
                    artifacts.theta
                ),
            });
        }
        Ok(self.solve_with_artifacts(workload.len(), artifacts, bins))
    }

    fn fingerprint_knobs(&self, sink: &mut KnobSink) {
        sink.write_usize(self.pool_size);
        sink.write_u64(u64::from(self.dp_cap));
        sink.write_opt_usize(self.opq.max_combination_size);
        sink.write_usize(self.opq.max_expansions);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reliability;

    #[test]
    fn example9_cost_is_068() {
        let bins = BinSet::paper_example();
        let workload = Workload::homogeneous(4, 0.95).unwrap();
        let plan = OpqBased::default().solve(&workload, &bins).unwrap();
        assert!(
            (plan.total_cost() - 0.68).abs() < 1e-9,
            "{}",
            plan.total_cost()
        );
        let audit = plan.validate(&workload, &bins).unwrap();
        assert!(audit.feasible);
        // Example 9's structure: two b3 bins + two b1 bins.
        assert_eq!(audit.bins_posted, 4);
    }

    #[test]
    fn tiny_instances_match_hand_computation() {
        let bins = BinSet::paper_example();
        // n = 1: two b1 bins (0.20) beat every other feasible combination.
        let w1 = Workload::homogeneous(1, 0.95).unwrap();
        let p1 = OpqBased::default().solve(&w1, &bins).unwrap();
        assert!((p1.total_cost() - 0.20).abs() < 1e-9);
        // n = 2: both tasks in two shared b2 bins (0.36).
        let w2 = Workload::homogeneous(2, 0.95).unwrap();
        let p2 = OpqBased::default().solve(&w2, &bins).unwrap();
        assert!((p2.total_cost() - 0.36).abs() < 1e-9);
        // n = 3: the Example-8 group — three tasks in two b3 bins (0.48).
        let w3 = Workload::homogeneous(3, 0.95).unwrap();
        let p3 = OpqBased::default().solve(&w3, &bins).unwrap();
        assert!((p3.total_cost() - 0.48).abs() < 1e-9);
    }

    #[test]
    fn large_instance_is_feasible_and_near_price_bound() {
        let bins = BinSet::paper_example();
        let n = 10_000u32;
        let workload = Workload::homogeneous(n, 0.95).unwrap();
        let plan = OpqBased::default().solve(&workload, &bins).unwrap();
        let audit = plan.validate(&workload, &bins).unwrap();
        assert!(audit.feasible);
        // Best per-task price for t = 0.95 is 0.16 ({b3, b3}); the plan must
        // stay within one combination's posting cost of n times that.
        let lower = f64::from(n) * 0.16;
        assert!(plan.total_cost() >= lower - 1e-6);
        assert!(
            plan.total_cost() <= lower + 0.48 + 1e-6,
            "{}",
            plan.total_cost()
        );
    }

    #[test]
    fn bulk_path_matches_dp_path_at_the_boundary() {
        let bins = BinSet::paper_example();
        let n = 300u32;
        let workload = Workload::homogeneous(n, 0.95).unwrap();
        let small_dp = OpqBased {
            dp_cap: 64,
            ..OpqBased::default()
        };
        let big_dp = OpqBased {
            dp_cap: 512,
            ..OpqBased::default()
        };
        let a = small_dp.solve(&workload, &bins).unwrap();
        let b = big_dp.solve(&workload, &bins).unwrap();
        assert!((a.total_cost() - b.total_cost()).abs() < 1e-9);
    }

    #[test]
    fn artifact_path_reproduces_one_shot_solve_exactly() {
        // Cached artifacts carry the FULL dp_cap table; the one-shot path
        // trims the DP to n. The plans must still be identical because the
        // DP is bottom-up (a prefix of a longer table is the shorter table).
        let bins = BinSet::paper_example();
        let solver = OpqBased::default();
        let artifacts = solver.artifacts(&bins, reliability::theta(0.95)).unwrap();
        assert_eq!(artifacts.dp_cap(), solver.dp_cap);
        assert!(!artifacts.pool().is_empty());
        for n in [1u32, 4, 100, 256, 300, 5_000] {
            let w = Workload::homogeneous(n, 0.95).unwrap();
            let one_shot = solver.solve(&w, &bins).unwrap();
            let from_artifacts = solver.solve_with_artifacts(n, &artifacts, &bins);
            assert_eq!(one_shot, from_artifacts, "n = {n}");
        }
    }

    #[test]
    fn prepared_pipeline_matches_one_shot_and_rejects_mismatches() {
        let bins = BinSet::paper_example();
        let solver = OpqBased::default();
        let theta95 = reliability::theta(0.95);
        let artifacts = solver.prepare(&bins, theta95).unwrap();
        for n in [1u32, 4, 300, 5_000] {
            let w = Workload::homogeneous(n, 0.95).unwrap();
            let two_phase = solver.solve_with(artifacts.as_ref(), &w, &bins).unwrap();
            assert_eq!(two_phase, solver.solve(&w, &bins).unwrap(), "n = {n}");
        }
        // θ mismatch: artifacts for 0.95 cannot serve a 0.9 workload.
        let w90 = Workload::homogeneous(4, 0.9).unwrap();
        assert!(matches!(
            solver.solve_with(artifacts.as_ref(), &w90, &bins),
            Err(SladeError::ArtifactMismatch {
                solver: "OpqBased",
                ..
            })
        ));
        // Heterogeneous workloads are rejected before any downcast.
        let hetero = Workload::heterogeneous(vec![0.5, 0.9]).unwrap();
        assert!(matches!(
            solver.solve_with(artifacts.as_ref(), &hetero, &bins),
            Err(SladeError::HeterogeneousUnsupported { solver: "OpqBased" })
        ));
    }

    #[test]
    fn artifacts_surface_empty_enumeration() {
        let bins = BinSet::paper_example();
        let solver = OpqBased {
            opq: OpqConfig {
                max_combination_size: Some(1),
                ..OpqConfig::default()
            },
            ..OpqBased::default()
        };
        assert!(matches!(
            solver.artifacts(&bins, reliability::theta(0.95)),
            Err(SladeError::EmptyEnumeration)
        ));
    }

    #[test]
    fn rejects_heterogeneous_workloads() {
        let bins = BinSet::paper_example();
        let w = Workload::heterogeneous(vec![0.5, 0.9]).unwrap();
        assert!(matches!(
            OpqBased::default().solve(&w, &bins),
            Err(SladeError::HeterogeneousUnsupported { solver: "OpqBased" })
        ));
    }

    #[test]
    fn empty_enumeration_is_reported() {
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(4, 0.95).unwrap();
        let solver = OpqBased {
            opq: OpqConfig {
                max_combination_size: Some(1),
                ..OpqConfig::default()
            },
            ..OpqBased::default()
        };
        assert!(matches!(
            solver.solve(&w, &bins),
            Err(SladeError::EmptyEnumeration)
        ));
    }

    #[test]
    fn single_bin_type_reduces_to_ceiling_formula() {
        // One bin type <2, 0.9, 0.3>, t = 0.8: one bin per task suffices
        // (w = 2.30 >= θ = 1.61), so OPT = ⌈n/2⌉ · 0.3.
        let bins = BinSet::new([(2, 0.9, 0.3)]).unwrap();
        for n in [1u32, 2, 3, 7, 100] {
            let w = Workload::homogeneous(n, 0.8).unwrap();
            let plan = OpqBased::default().solve(&w, &bins).unwrap();
            let expect = f64::from(n.div_ceil(2)) * 0.3;
            assert!(
                (plan.total_cost() - expect).abs() < 1e-9,
                "n = {n}: {} != {expect}",
                plan.total_cost()
            );
            assert!(plan.validate(&w, &bins).unwrap().feasible);
        }
    }

    #[test]
    fn round_robin_respects_capacity_and_distinctness() {
        let bins = BinSet::new([(3, 0.7, 0.2), (5, 0.6, 0.25)]).unwrap();
        for n in [1u32, 4, 5, 6, 11, 50] {
            for t in [0.9, 0.99, 0.999] {
                let w = Workload::homogeneous(n, t).unwrap();
                let plan = OpqBased::default().solve(&w, &bins).unwrap();
                // validate() errors on capacity violations / duplicates.
                let audit = plan.validate(&w, &bins).unwrap();
                assert!(audit.feasible, "n = {n}, t = {t}");
            }
        }
    }

    #[test]
    fn reported_cost_is_consistent_with_min_price_lower_bound() {
        // OPT >= n · p(q*) (each bin's cost splits over at most l tasks), so
        // the solver must never report less.
        let bins = BinSet::new([(1, 0.9, 0.1), (4, 0.75, 0.22)]).unwrap();
        let w = Workload::homogeneous(37, 0.97).unwrap();
        let theta = reliability::theta(0.97);
        let plan = OpqBased::default().solve(&w, &bins).unwrap();
        let mut opq = OptimalPriorityQueue::new(
            &bins,
            theta,
            CombinationKey::PerTaskPrice,
            OpqConfig::default(),
        );
        let best_price = opq.pop_feasible().unwrap().price();
        assert!(plan.total_cost() >= 37.0 * best_price - 1e-9);
        assert!(plan.validate(&w, &bins).unwrap().feasible);
    }

    /// The nested-`Vec` round-robin placement the flat `emit_group`
    /// replaced: one task list per physical bin, filled entry by entry.
    /// Kept as the reference the flat placement must reproduce exactly.
    fn reference_emit_group(
        group: &Group,
        pool: &[Combination],
        bins: &BinSet,
        out: &mut Vec<(u32, Vec<TaskId>)>,
    ) {
        let q = &pool[group.combo];
        let g = group.size as u64;
        for (i, &k) in q.counts().iter().enumerate() {
            if k == 0 {
                continue;
            }
            let bin = &bins.bins()[i];
            let n_bins = bins_needed(g, k, bin.cardinality()) as usize;
            let mut members: Vec<Vec<TaskId>> = vec![Vec::new(); n_bins];
            for t in 0..g {
                for j in 0..u64::from(k) {
                    let slot = (t * u64::from(k) + j) as usize % n_bins;
                    members[slot].push(group.base + t as TaskId);
                }
            }
            out.extend(members.into_iter().map(|tasks| (bin.cardinality(), tasks)));
        }
    }

    /// A synthetic `|B|` sweep menu of width `m` (`slade-bench`'s
    /// `instances::synthetic_bins`, which this crate cannot depend on).
    pub(crate) fn synthetic_menu(m: u32) -> BinSet {
        BinSet::new((1..=m).map(|l| {
            let lf = f64::from(l);
            let confidence = 0.92 - 0.04 * (lf - 1.0) / (1.0 + 0.2 * (lf - 1.0));
            let cost = 0.10 * lf * (1.0 - 0.05 * (lf - 1.0).min(8.0) / 8.0);
            (l, confidence, cost)
        }))
        .unwrap()
    }

    /// The fig6 menus: the paper's Table 1 and the synthetic `|B|` sweep
    /// menus of widths 2–32.
    fn fig6_menus() -> Vec<BinSet> {
        let mut menus = vec![BinSet::paper_example()];
        menus.extend([2, 4, 8, 16, 32].map(synthetic_menu));
        menus
    }

    /// Checks every fig6 threshold and the pinned sizes on one menu.
    fn check_round_robin_against_reference(bins: &BinSet) {
        let solver = OpqBased::default();
        let sizes = (1..=300).chain([5_000, 100_000]);
        for t in [0.85, 0.90, 0.95, 0.99] {
            let artifacts = solver.artifacts(bins, reliability::theta(t)).unwrap();
            for n in sizes.clone() {
                let plan = solver.solve_with_artifacts(n, &artifacts, bins);
                let mut nested = Vec::new();
                for group in &OpqBased::groups(n, &artifacts, bins) {
                    reference_emit_group(group, &artifacts.pool, bins, &mut nested);
                }
                let at = || format!("|B| = {}, t = {t}, n = {n}", bins.len());
                assert_eq!(plan.num_bins(), nested.len(), "{}", at());
                for (posted, (cardinality, tasks)) in plan.bins().zip(&nested) {
                    assert_eq!(posted.cardinality(), *cardinality, "{}", at());
                    assert_eq!(posted.tasks(), &tasks[..], "{}", at());
                }
                // Pushed in the same order, the reference's cost sums
                // identically, so the whole plans agree bit for bit.
                let mut reference = DecompositionPlan::empty(solver.name());
                for (cardinality, tasks) in nested {
                    reference.push(bins.get(cardinality).unwrap(), tasks);
                }
                assert_eq!(plan, reference, "{}", at());
                assert_eq!(
                    plan.total_cost().to_bits(),
                    reference.total_cost().to_bits(),
                    "{}",
                    at()
                );
            }
        }
    }

    #[test]
    fn flat_round_robin_matches_nested_reference_exactly() {
        // n = 1..=300 crosses the default `dp_cap` (256) into bulk groups.
        let menus = fig6_menus();
        std::thread::scope(|scope| {
            for bins in &menus {
                scope.spawn(move || check_round_robin_against_reference(bins));
            }
        });
    }

    /// The exhaustive group DP that [`OpqBased::group_dp`] replaced: a
    /// `qi`-major, `g`-minor scan calling `group_cost` per candidate and
    /// keeping the first strict minimum. Kept as the reference the tabulated
    /// DP must reproduce bit for bit.
    fn reference_group_dp(
        pool: &[Combination],
        bins: &BinSet,
        cap: u32,
    ) -> (Vec<f64>, Vec<(u32, usize)>) {
        let cap = cap as usize;
        let mut best = vec![f64::INFINITY; cap + 1];
        let mut choice = vec![(0u32, 0usize); cap + 1];
        best[0] = 0.0;
        for j in 1..=cap {
            for (qi, q) in pool.iter().enumerate() {
                for g in 1..=j {
                    let c = best[j - g] + OpqBased::group_cost(q, bins, g as u64);
                    if c < best[j] {
                        best[j] = c;
                        choice[j] = (g as u32, qi);
                    }
                }
            }
        }
        (best, choice)
    }

    /// The exhaustive bulk scan that [`OpqBased::bulk_pick`] replaced: every
    /// `(tail, qi)` evaluated, first strict minimum kept.
    fn reference_bulk_pick(n: u32, artifacts: &OpqArtifacts, bins: &BinSet) -> (u32, usize) {
        let cap = artifacts.dp_cap();
        let mut best_total = f64::INFINITY;
        let mut pick = (0u32, 0usize);
        for j in 0..=cap {
            let bulk = u64::from(n - j);
            for (qi, q) in artifacts.pool.iter().enumerate() {
                let total = artifacts.best[j as usize] + OpqBased::group_cost(q, bins, bulk);
                if total < best_total {
                    best_total = total;
                    pick = (j, qi);
                }
            }
        }
        pick
    }

    /// Release runs (the CI reference step) sweep everything; debug runs a
    /// share that keeps the default test suite fast.
    const FULL_SWEEP: bool = !cfg!(debug_assertions);

    /// Seeded random menus with coarse prices and confidences, so equal
    /// group costs (and equal DP sums) are common: 1–5 distinct
    /// cardinalities from 1..=8, confidences on a 0.05 grid, costs on a
    /// 0.05 grid.
    fn coarse_random_menus(count: usize) -> Vec<(BinSet, f64)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0DD5_EED5);
        (0..count)
            .map(|_| {
                let m = rng.random_range(1..6usize);
                let mut cards: Vec<u32> = Vec::new();
                while cards.len() < m {
                    let c = rng.random_range(1..9u32);
                    if !cards.contains(&c) {
                        cards.push(c);
                    }
                }
                let bins = BinSet::new(cards.into_iter().map(|c| {
                    let confidence = 0.05 * f64::from(rng.random_range(12..20u32));
                    let cost = 0.05 * f64::from(rng.random_range(1..4 * c + 2));
                    (c, confidence, cost)
                }))
                .expect("coarse menus are valid by construction");
                let t = [0.85, 0.90, 0.95, 0.99][rng.random_range(0..4usize)];
                (bins, t)
            })
            .collect()
    }

    /// Bulk-path sizes: every `n` just past the default cap up to 700 plus
    /// a few large ones (debug runs the first few and the large ones).
    fn bulk_sizes() -> Vec<u32> {
        let last = if FULL_SWEEP { 700 } else { 262 };
        (257..=last).chain([1_000, 2_345, 5_000, 100_000]).collect()
    }

    /// Checks the tabulated DP and the price-bounded bulk pick against
    /// their exhaustive references on one `(menu, t)`; returns the number
    /// of bulk picks compared.
    ///
    /// The DP is bottom-up, so a reference table shorter than the default
    /// `dp_cap` checks a prefix of the artifacts' table.
    fn check_against_references(bins: &BinSet, t: f64, cap: u32) -> usize {
        let solver = OpqBased::default();
        let theta = reliability::theta(t);
        let artifacts = solver.artifacts(bins, theta).unwrap();
        let (best, choice) = reference_group_dp(&artifacts.pool, bins, cap);
        let (fast_best, fast_choice) = OpqBased::group_dp(&artifacts.pool, bins, cap);
        let at = || format!("|B| = {}, t = {t}", bins.len());
        assert_eq!(fast_choice, choice, "{}", at());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast_best), bits(&best), "{}", at());
        assert_eq!(
            bits(&artifacts.best[..=cap as usize]),
            bits(&best),
            "{}",
            at()
        );
        let sizes = bulk_sizes();
        for &n in &sizes {
            assert_eq!(
                OpqBased::bulk_pick(n, &artifacts, bins),
                reference_bulk_pick(n, &artifacts, bins),
                "{}, n = {n}",
                at()
            );
        }
        sizes.len()
    }

    /// Runs `check` over `cases` on four scoped threads; sums the counts.
    fn sweep<T: Sync>(cases: &[T], check: impl Fn(&T) -> usize + Sync) -> usize {
        let check = &check;
        std::thread::scope(|scope| {
            let handles: Vec<_> = cases
                .chunks(cases.len().div_ceil(4))
                .map(|chunk| scope.spawn(move || chunk.iter().map(check).sum::<usize>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
    }

    #[test]
    fn fast_kernels_match_the_references_on_fig6_menus() {
        let cases: Vec<(BinSet, f64)> = fig6_menus()
            .into_iter()
            .flat_map(|bins| [0.85, 0.90, 0.95, 0.99].map(|t| (bins.clone(), t)))
            .collect();
        // The widest menus make the reference DP slow in debug builds.
        let cap = if FULL_SWEEP { 256 } else { 48 };
        let picks = sweep(&cases, |(bins, t)| check_against_references(bins, *t, cap));
        assert_eq!(picks, cases.len() * bulk_sizes().len());
    }

    #[test]
    fn fast_kernels_match_the_references_on_tie_prone_random_menus() {
        let cases = coarse_random_menus(if FULL_SWEEP { 160 } else { 80 });
        let picks = sweep(&cases, |(bins, t)| check_against_references(bins, *t, 256));
        assert_eq!(picks, cases.len() * bulk_sizes().len());
    }

    #[test]
    fn bulk_plans_stay_within_one_posting_of_the_price_bound() {
        // Algorithm 3's bound for n > dp_cap: n·p(q*) ≤ OPT ≤ cost ≤
        // n·p(q*) + c(q*), where q* is the per-task-price OPQ's first pop
        // (the bulk pick can always take q* alone for all n tasks).
        let solver = OpqBased::default();
        let menus = coarse_random_menus(if FULL_SWEEP { 160 } else { 24 });
        for (m, (bins, t)) in menus.iter().enumerate() {
            let theta = reliability::theta(*t);
            let artifacts = solver.artifacts(bins, theta).unwrap();
            let mut opq = OptimalPriorityQueue::new(
                bins,
                theta,
                CombinationKey::PerTaskPrice,
                solver.opq.clone(),
            );
            let q_star = opq.pop_feasible().unwrap();
            for n in [solver.dp_cap + 1, 700, 5_000, 100_000] {
                let cost = solver
                    .solve_with_artifacts(n, &artifacts, bins)
                    .total_cost();
                let lower = f64::from(n) * q_star.price();
                let upper = lower + q_star.total_cost();
                let tol = 1e-9 * upper;
                let at = format!("menu {m} (|B| = {}), t = {t}, n = {n}", bins.len());
                assert!(cost >= lower - tol, "{at}: {cost} < n·p(q*) = {lower}");
                assert!(
                    cost <= upper + tol,
                    "{at}: {cost} > n·p(q*) + c(q*) = {upper}"
                );
            }
        }
    }
}
