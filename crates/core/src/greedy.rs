//! The greedy decomposition heuristic (Algorithm 1 of the paper).
//!
//! A set-cover-style heuristic that works for both homogeneous and
//! heterogeneous workloads and carries no approximation guarantee: while any
//! task is short of its threshold, post the single bin with the best
//! *cost-effectiveness* — the bin type `l` whose cost `c_l`, divided by the
//! useful weight it delivers to the `l` currently most-deprived tasks
//! (`Σ min(w_l, residual_i)` over the top-`l` residuals), is smallest — and
//! assign exactly those tasks to it.
//!
//! The top-`l` residuals come from a *lazy max-heap* with versioned entries:
//! each open task keeps exactly one live entry keyed by its current residual
//! (descending, ties by ascending id); superseded entries stay in the heap
//! and are discarded when popped. One round pops `O(l_max)` entries and
//! pushes back the untouched ones, so a full solve is
//! `O((n + A + rounds·l_max) log n)` for `A` total task-to-bin assignments —
//! versus the `O(n log n)` *per round* of the naive re-sort it replaced
//! (DESIGN.md scaling seam #1). The pop order equals the old sort order, so
//! plans are bit-for-bit identical to the previous implementation.
//!
//! Each solve first walks a *uniform-level ladder* from the workload's
//! largest `θ`: the bin a round would elect when a full top of tasks sits at
//! one residual level. Interior rounds of a homogeneous solve are exactly
//! that case and take their bin from the ladder instead of scanning the
//! menu; every other round scans, so the ladder changes no plan bit. The
//! walk is cheap next to the solve, so the greedy has no artifacts to
//! prepare or cache.
//!
//! Fast in practice and the reference point the paper's experiments compare
//! against; OPQ-Based/OPQ-Extended dominate it on cost in the homogeneous
//! and heterogeneous settings respectively.
//!
//! ```
//! use slade_core::prelude::*;
//!
//! let bins = BinSet::paper_example();
//! let workload = Workload::heterogeneous(vec![0.5, 0.6, 0.7, 0.86]).unwrap();
//! let plan = Greedy::default().solve(&workload, &bins).unwrap();
//! assert!(plan.validate(&workload, &bins).unwrap().feasible);
//! ```

use crate::bin_set::BinSet;
use crate::error::SladeError;
use crate::plan::DecompositionPlan;
use crate::reliability::{self, satisfies, WEIGHT_EPS};
use crate::solver::PreparedSolver;
use crate::task::{TaskId, Workload};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The Algorithm-1 greedy heuristic. Stateless; the unit struct is its own
/// default configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy;

/// Upper bound on ladder rungs; extreme `θ / min-weight` ratios stop early
/// (deeper levels just fall back to the per-round scan).
const LADDER_CAP: usize = 4_096;

/// The *uniform-level ladder* from one `θ`: for every residual level `r`
/// reachable from `θ` by repeatedly applying the most cost-effective bin,
/// the winner of the per-round bin scan when at least `max_cardinality`
/// open tasks all sit at residual `r`, as `(residual bit pattern, winning
/// bin index)` in descent order.
///
/// In a homogeneous solve every interior round (all popped tasks at the
/// same residual, enough tasks open) is exactly that situation, so the
/// solve answers it from the ladder instead of rescanning the menu. Rounds
/// that mix residual levels (bucket boundaries, the endgame, most rounds of
/// a heterogeneous workload) take the ordinary scan, and the ladder is
/// consulted only when its precondition — identical inputs to the scan —
/// holds by bit comparison, so plans are bit-for-bit those of a scan-only
/// loop.
#[derive(Debug)]
struct Ladder(Vec<(u64, usize)>);

impl Ladder {
    /// Walks the uniform descent from `theta` over `bins`, up to
    /// [`LADDER_CAP`] rungs.
    fn walk(bins: &BinSet, theta: f64) -> Ladder {
        let max_card = bins.max_cardinality() as usize;
        let mut rungs = Vec::new();
        let mut r = theta;
        while !satisfies(0.0, r) && rungs.len() < LADDER_CAP {
            let Some(bin) = scan_bins(bins, max_card, |_| r) else {
                break; // no effective bin at this level: let the rounds scan
            };
            debug_assert!(
                rungs.last().map_or(true, |&(bits, _)| bits > r.to_bits()),
                "ladder must descend strictly (lookup binary-searches it)"
            );
            rungs.push((r.to_bits(), bin));
            let next = r - bins.bins()[bin].weight();
            if next.to_bits() == r.to_bits() {
                break; // denormal-small weight: no progress, stop the walk
            }
            r = next;
        }
        Ladder(rungs)
    }

    /// The precomputed scan winner for a uniform top at `residual_bits`.
    ///
    /// The ladder descends strictly (each rung subtracts a positive bin
    /// weight from a positive residual), and positive `f64` bit patterns
    /// order like the values, so this is a binary search over the
    /// descending `bits` — `O(log rungs)` per round even for deep ladders.
    fn lookup(&self, residual_bits: u64) -> Option<usize> {
        self.0
            .binary_search_by(|&(bits, _)| residual_bits.cmp(&bits))
            .ok()
            .map(|i| self.0[i].1)
    }
}

/// The per-round bin election: the bin minimizing `c / Σ_{j<min(l,count)}
/// min(w, residual(j))`, ties to the earlier menu index; `None` when no bin
/// is effective. This is the ONE copy of the scan — both the in-solve round
/// (per-entry residuals) and the ladder walk (uniform residual) call it, so
/// the float operations are identical by construction and a rung's winner
/// is bit-for-bit the winner a live scan would elect.
fn scan_bins(bins: &BinSet, count: usize, residual: impl Fn(usize) -> f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, b) in bins.bins().iter().enumerate() {
        let take = (b.cardinality() as usize).min(count);
        let useful: f64 = (0..take).map(|j| b.weight().min(residual(j))).sum();
        if useful <= WEIGHT_EPS {
            continue;
        }
        let ratio = b.cost() / useful;
        if best.map_or(true, |(_, r)| ratio < r) {
            best = Some((i, ratio));
        }
    }
    best.map(|(i, _)| i)
}

/// One heap entry: a task at the residual it had when pushed. `version`
/// invalidates superseded entries (lazy deletion): an entry is live iff its
/// version matches the task's current one.
#[derive(Debug)]
struct Entry {
    residual: f64,
    task: TaskId,
    version: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.residual == other.residual && self.task == other.task
    }
}
impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: larger residual pops first; ties pop the smaller id, so
        // the pop order matches a sort by (residual desc, id asc). Residuals
        // are finite, so partial_cmp never actually falls back.
        self.residual
            .partial_cmp(&other.residual)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.task.cmp(&self.task))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Greedy {
    /// The greedy loop. It walks the [`Ladder`] from the workload's largest
    /// `θ` (a homogeneous workload's only one, so every uniform level of its
    /// solve is a rung) and lets it answer the rounds whose scan inputs
    /// provably (by bit comparison) match a rung.
    fn run(&self, workload: &Workload, bins: &BinSet) -> DecompositionPlan {
        let n = workload.len();
        let ladder = Ladder::walk(bins, reliability::theta(workload.max_threshold()));
        // Residual transformed demand per task.
        let mut residual: Vec<f64> = workload.thetas().collect();
        // Current entry version per task; heap entries with an older version
        // are stale and dropped when popped.
        let mut version: Vec<u32> = vec![0; n as usize];
        let mut open_count = n as usize;
        let mut heap: BinaryHeap<Entry> = (0..n)
            .map(|t| Entry {
                residual: residual[t as usize],
                task: t,
                version: 0,
            })
            .collect();
        let max_card = bins.max_cardinality() as usize;
        let mut top: Vec<Entry> = Vec::with_capacity(max_card);
        let mut plan = DecompositionPlan::empty(self.name());

        while open_count > 0 {
            // Most-deprived open tasks first; ties by id for determinism.
            top.clear();
            while top.len() < max_card.min(open_count) {
                let entry = heap.pop().expect("every open task has a live heap entry");
                if entry.version != version[entry.task as usize] {
                    continue; // superseded by a later residual update
                }
                top.push(entry);
            }

            // Interior fast path: a full top whose residuals are all
            // bit-equal is exactly the situation a rung precomputed — the
            // scan's winner is already known.
            let bits = top[0].residual.to_bits();
            let uniform = top.len() == max_card && top.iter().all(|e| e.residual.to_bits() == bits);

            // Pick the most cost-effective bin type for the current top
            // residuals.
            let i = match uniform.then(|| ladder.lookup(bits)).flatten() {
                Some(i) => i,
                // Residuals of open tasks are strictly positive and weights
                // are strictly positive, so some bin is always effective.
                None => scan_bins(bins, top.len(), |j| top[j].residual)
                    .expect("positive residuals admit an effective bin"),
            };
            let bin = &bins.bins()[i];
            let take = (bin.cardinality() as usize).min(top.len());
            plan.push(bin, top[..take].iter().map(|e| e.task));
            for &Entry { task: t, .. } in &top[..take] {
                let r = residual[t as usize] - bin.weight();
                residual[t as usize] = r;
                version[t as usize] += 1;
                if satisfies(0.0, r) {
                    open_count -= 1; // done; its stale entries die lazily
                } else {
                    heap.push(Entry {
                        residual: r,
                        task: t,
                        version: version[t as usize],
                    });
                }
            }
            // Untouched popped entries are still live; put them back as-is.
            for entry in top.drain(take..) {
                heap.push(entry);
            }
        }

        plan
    }
}

impl PreparedSolver for Greedy {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn solve(&self, workload: &Workload, bins: &BinSet) -> Result<DecompositionPlan, SladeError> {
        Ok(self.run(workload, bins))
    }

    // No `prepare` override: the ladder walk is cheap next to the rounds
    // it answers, so every solve builds its own and the greedy takes the
    // pass-through `prepare`/`solve_with` defaults.
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pre-heap reference implementation: full re-sort of the open list
    /// every round. Kept verbatim so the lazy-heap rework is pinned to
    /// produce bit-for-bit identical plans.
    fn reference_solve(workload: &Workload, bins: &BinSet) -> DecompositionPlan {
        let n = workload.len();
        let mut residual: Vec<f64> = workload.thetas().collect();
        let mut open: Vec<TaskId> = (0..n).collect();
        let mut plan = DecompositionPlan::empty("Greedy");
        while !open.is_empty() {
            open.sort_unstable_by(|&a, &b| {
                residual[b as usize]
                    .partial_cmp(&residual[a as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.cmp(&b))
            });
            let mut best: Option<(usize, f64)> = None;
            for (i, b) in bins.bins().iter().enumerate() {
                let take = (b.cardinality() as usize).min(open.len());
                let useful: f64 = open[..take]
                    .iter()
                    .map(|&t| b.weight().min(residual[t as usize]))
                    .sum();
                if useful <= WEIGHT_EPS {
                    continue;
                }
                let ratio = b.cost() / useful;
                if best.map_or(true, |(_, r)| ratio < r) {
                    best = Some((i, ratio));
                }
            }
            let (i, _) = best.expect("positive residuals admit an effective bin");
            let bin = &bins.bins()[i];
            let take = (bin.cardinality() as usize).min(open.len());
            let members: Vec<TaskId> = open[..take].to_vec();
            for &t in &members {
                residual[t as usize] -= bin.weight();
            }
            plan.push(bin, members);
            open.retain(|&t| !satisfies(0.0, residual[t as usize]));
        }
        plan
    }

    /// Release runs (the CI reference step) take homogeneous sizes up to
    /// 2 000; debug runs a share that keeps the default test suite fast.
    const FULL_SWEEP: bool = !cfg!(debug_assertions);

    #[test]
    fn lazy_heap_matches_resort_reference_exactly() {
        let menus = [
            BinSet::paper_example(),
            BinSet::new([(1, 0.9, 0.1), (3, 0.55, 0.12), (5, 0.6, 0.22)]).unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(0x9eed);
        for bins in &menus {
            for n in [1u32, 2, 7, 40, 300] {
                // Homogeneous (many residual ties) and heterogeneous spreads.
                let homo = Workload::homogeneous(n, 0.95).unwrap();
                assert_eq!(
                    Greedy.solve(&homo, bins).unwrap(),
                    reference_solve(&homo, bins)
                );
                let thresholds: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..0.995)).collect();
                let hetero = Workload::heterogeneous(thresholds).unwrap();
                assert_eq!(
                    Greedy.solve(&hetero, bins).unwrap(),
                    reference_solve(&hetero, bins),
                    "n = {n}"
                );
            }
        }
        // Ladder-heavy inputs: homogeneous workloads over the fig6
        // thresholds on the paper menu and the synthetic 4-, 6- and 8-wide
        // menus, where the ladder answers nearly every round (all but 3 of
        // 2 667 at n = 2 000, t = 0.95 on the paper menu).
        let wide = [4, 6, 8].map(crate::opq_based::tests::synthetic_menu);
        let sizes: &[u32] = if FULL_SWEEP {
            &[3, 16, 129, 500, 2_000]
        } else {
            &[3, 16, 129]
        };
        for bins in std::iter::once(&menus[0]).chain(&wide) {
            for t in [0.85, 0.90, 0.95, 0.99] {
                for &n in sizes {
                    let w = Workload::homogeneous(n, t).unwrap();
                    assert_eq!(
                        Greedy.solve(&w, bins).unwrap(),
                        reference_solve(&w, bins),
                        "|B| = {}, t = {t}, n = {n}",
                        bins.len()
                    );
                }
            }
        }
        // Tie-prone inputs. A confidence 1 - 2^-k weighs k·ln 2 up to
        // rounding, so on these menus tasks at different thresholds reach
        // bit-equal residuals through different bin sequences, and only the
        // id tie-break orders them. The second menu adds a bin of tiny
        // weight (≈0.001) that tops off the small residuals the offset
        // thresholds leave. Flipping the tie-break in `Entry::cmp` fails
        // every one of these cases.
        let dyadic = BinSet::new([(1, 0.5, 0.1), (2, 0.75, 0.3), (3, 0.875, 0.55)]).unwrap();
        let tiny = BinSet::new([(1, 0.5, 0.1), (2, 0.75, 0.3), (4, 1.0 / 1024.0, 0.078)]).unwrap();
        let levels = [0.75, 0.875, 0.9375, 0.96875, 0.984375];
        for n in [7usize, 40, 300] {
            // Equal thresholds sit at scattered ids.
            let grid: Vec<f64> = (0..n).map(|i| levels[(3 * i + i / 5) % 5]).collect();
            let offset: Vec<f64> = grid.iter().map(|t| t + 0.0005).collect();
            for (bins, thresholds) in [(&dyadic, &grid), (&tiny, &grid), (&tiny, &offset)] {
                let w = Workload::heterogeneous(thresholds.clone()).unwrap();
                assert_eq!(
                    Greedy.solve(&w, bins).unwrap(),
                    reference_solve(&w, bins),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    fn ladder_walks_the_uniform_descent() {
        // t = 0.95 over the paper menu: level θ(0.95) elects b1 (ratio
        // 0.0434 beats b2's 0.0474 and b3's 0.0497), then level
        // θ - w(0.9) = 0.693 elects b3 (0.115 beats b1's 0.144 and b2's
        // 0.130), after which one b3 weight clears the residual.
        let bins = BinSet::paper_example();
        let theta = crate::reliability::theta(0.95);
        let ladder = Ladder::walk(&bins, theta);
        assert_eq!(ladder.0.len(), 2);
        assert_eq!(ladder.lookup(theta.to_bits()), Some(0));
        let level1 = theta - bins.bins()[0].weight();
        assert_eq!(ladder.lookup(level1.to_bits()), Some(2));
        assert_eq!(ladder.lookup(1.0f64.to_bits()), None);
    }

    #[test]
    fn homogeneous_plans_are_feasible() {
        let bins = BinSet::paper_example();
        for n in [1u32, 4, 17, 100] {
            for t in [0.5, 0.95, 0.999] {
                let w = Workload::homogeneous(n, t).unwrap();
                let plan = Greedy.solve(&w, &bins).unwrap();
                let audit = plan.validate(&w, &bins).unwrap();
                assert!(audit.feasible, "n = {n}, t = {t}");
            }
        }
    }

    #[test]
    fn heterogeneous_plans_are_feasible() {
        let bins = BinSet::paper_example();
        let w = Workload::heterogeneous(vec![0.5, 0.6, 0.7, 0.86, 0.99, 0.31]).unwrap();
        let plan = Greedy.solve(&w, &bins).unwrap();
        assert!(plan.validate(&w, &bins).unwrap().feasible);
    }

    #[test]
    fn single_cheap_wide_bin_is_preferred() {
        // b3 delivers 3 × 1.609 weight units for 0.24 (ratio 0.0497) versus
        // b1's 0.10 / 2.30 = 0.0434 — for t = 0.8 one b1 per task wins on
        // effectiveness only when few tasks remain; with three tasks open the
        // greedy grabs the wide bin first.
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(3, 0.8).unwrap();
        let plan = Greedy.solve(&w, &bins).unwrap();
        assert!(plan.validate(&w, &bins).unwrap().feasible);
        // Never more than one bin per task here: θ = 1.609 <= every weight.
        assert!(plan.num_bins() <= 3);
    }

    #[test]
    fn greedy_cost_is_bounded_by_singleton_cover() {
        // Upper-bound sanity: the greedy never exceeds the trivial plan that
        // covers each task with copies of the cheapest single bin.
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(20, 0.95).unwrap();
        let plan = Greedy.solve(&w, &bins).unwrap();
        // Trivial plan: 2 × b1 per task = 0.20 each.
        assert!(plan.total_cost() <= 20.0 * 0.20 + 1e-9);
    }

    #[test]
    fn residual_aware_choice_mixes_bin_types() {
        // One straggler with a tall threshold among easy tasks: the greedy
        // must still terminate and satisfy it with stacked bins.
        let bins = BinSet::new([(1, 0.9, 0.1), (3, 0.55, 0.12)]).unwrap();
        let w = Workload::heterogeneous(vec![0.9999, 0.3, 0.3, 0.3]).unwrap();
        let plan = Greedy.solve(&w, &bins).unwrap();
        assert!(plan.validate(&w, &bins).unwrap().feasible);
    }
}
