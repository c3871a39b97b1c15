//! Determinism under *forced* work stealing.
//!
//! The 1-vs-8-thread pins in `determinism.rs` exercise the scheduler, but
//! on a fast machine the shards may drain before anyone needs to steal.
//! This suite removes the luck: each schedule interleaves solver-override
//! requests that **stall their worker** (seed-derived stall lengths) with
//! multi-shard requests whose jobs land round-robin in every deque —
//! including the stalled workers' — so the free workers must steal them.
//! Across 100 seeded schedules, every plan from the stealing pool must be
//! byte-identical to a single-thread solve of the same request, and the
//! cumulative steal counter must show that stealing actually happened.

use slade_core::prelude::*;
use slade_core::solver::PreparedSolver;
use slade_engine::{Engine, EngineConfig, EngineRequest, ResolvedHandle, Submit};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A solver that sleeps before delegating to Greedy: pins one worker down
/// long enough for its deque to fill with stealable shard jobs. The sleep
/// affects scheduling only — the produced plan is Greedy's, deterministic.
#[derive(Debug)]
struct StallSolver {
    millis: u64,
}

impl PreparedSolver for StallSolver {
    fn name(&self) -> &'static str {
        "Stall"
    }

    fn solve(&self, workload: &Workload, bins: &BinSet) -> Result<DecompositionPlan, SladeError> {
        thread::sleep(Duration::from_millis(self.millis));
        slade_core::greedy::Greedy.solve(workload, bins)
    }
}

/// Splitmix64: a tiny, dependency-free generator good enough to derive
/// schedules from a seed. Each call advances the state.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Submits every request up front (so their shards interleave in the
/// pool), keeping the handles in request order.
fn submit_all(engine: &Engine, requests: Vec<EngineRequest>) -> Vec<ResolvedHandle> {
    requests
        .into_iter()
        .map(|request| engine.submit(request, Submit::default()))
        .collect()
}

/// One seeded schedule: a few stalling override requests (grabbed first,
/// pinning their workers) followed by a seed-derived mix of wide and
/// narrow bucket-sharded heterogeneous requests.
fn schedule(seed: u64, bins: &Arc<BinSet>) -> Vec<EngineRequest> {
    // Well-separated levels under θ_max so heterogeneous workloads bucket
    // into several shards: each level of WIDE is its own bucket.
    const LEVELS: [f64; 4] = [0.95, 0.72, 0.3, 0.11];
    const WIDE: [f64; 8] = [0.999, 0.95, 0.8, 0.5, 0.3, 0.15, 0.08, 0.04];
    let mut rng = seed;
    let mut requests = Vec::new();
    for _ in 0..2 {
        let millis = 1 + next_u64(&mut rng) % 6;
        requests.push(
            EngineRequest::new(
                Algorithm::Greedy,
                Workload::homogeneous(3 + (next_u64(&mut rng) % 5) as u32, 0.95).unwrap(),
                Arc::clone(bins),
            )
            .with_solver(Arc::new(StallSolver { millis })),
        );
    }
    for _ in 0..6 {
        if next_u64(&mut rng) % 2 == 0 {
            // Wide: 24–64 tasks cycling over the first 3–8 levels of WIDE
            // → 3–8 shard jobs.
            let levels = 3 + (next_u64(&mut rng) % 6) as usize;
            let n = 24 + (next_u64(&mut rng) % 41) as usize;
            let thresholds: Vec<f64> = (0..n).map(|i| WIDE[i % levels]).collect();
            requests.push(EngineRequest::new(
                Algorithm::OpqExtended,
                Workload::heterogeneous(thresholds).unwrap(),
                Arc::clone(bins),
            ));
        } else {
            // Bucket-sharded heterogeneous: 8–20 tasks over the 4 levels.
            let n = 8 + next_u64(&mut rng) % 13;
            let thresholds: Vec<f64> = (0..n)
                .map(|_| LEVELS[(next_u64(&mut rng) % LEVELS.len() as u64) as usize])
                .collect();
            requests.push(EngineRequest::new(
                Algorithm::OpqExtended,
                Workload::heterogeneous(thresholds).unwrap(),
                Arc::clone(bins),
            ));
        }
    }
    requests
}

fn config(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        queue_capacity: 64,
        // Fresh engines per seed keep solves cold across schedules; within
        // one schedule the cache is live, as in production — byte-identity
        // must hold with or without artifact reuse.
        cache_capacity: 16,
        ..EngineConfig::default()
    }
}

#[test]
fn steal_heavy_schedules_match_single_thread_plans_across_100_seeds() {
    let bins = Arc::new(BinSet::paper_example());
    let mut total_steals = 0u64;
    for seed in 0..100u64 {
        let stealing = Engine::new(config(4));
        let handles = submit_all(&stealing, schedule(seed, &bins));
        let stolen: Vec<DecompositionPlan> = handles
            .into_iter()
            .map(|h| {
                h.wait()
                    .expect("every scheduled request solves")
                    .into_plan()
            })
            .collect();
        total_steals += stealing.steals();

        let single = Engine::new(config(1));
        let baseline: Vec<DecompositionPlan> = submit_all(&single, schedule(seed, &bins))
            .into_iter()
            .map(|h| {
                h.wait()
                    .expect("the single-thread baseline solves")
                    .into_plan()
            })
            .collect();

        assert_eq!(stolen.len(), baseline.len());
        for (i, (a, b)) in stolen.iter().zip(&baseline).enumerate() {
            assert_eq!(a, b, "seed {seed} request {i} diverged under stealing");
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "seed {seed} request {i} rendered bytes diverged"
            );
        }
    }
    // The whole point of the stalls: the schedules must actually have
    // exercised the steal path, not just the own-deque fast path.
    assert!(
        total_steals > 0,
        "100 stall-laden schedules never stole a job"
    );
}

#[test]
fn a_single_thread_pool_never_steals() {
    let bins = Arc::new(BinSet::paper_example());
    let engine = Engine::new(config(1));
    for handle in submit_all(&engine, schedule(7, &bins)) {
        handle.wait().unwrap();
    }
    assert_eq!(engine.steals(), 0, "one worker has no victims");
}
