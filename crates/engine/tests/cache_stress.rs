//! Seeded multi-threaded stress for the [`ArtifactCache`], pinning the
//! invariants the sharded rewrite must not bend:
//!
//! 1. under concurrent get/insert/evict at capacity pressure, no entry is
//!    lost or aliased — every resident key still maps to the artifacts *its*
//!    compute produced, the relaxed entry counter agrees with actual shard
//!    occupancy, and every lookup is accounted as exactly one hit or miss;
//! 2. single-flight actually deduplicates: N workers racing one cold
//!    fingerprint run the (counting) compute once, round after round;
//! 3. plans stay byte-identical warm-vs-cold and 1-vs-8-thread, and equal
//!    those of an engine that bypasses the cache entirely — including under
//!    forced single-flight races, where identical requests submitted
//!    together hit the same cold fingerprint from every worker at once.

use slade_core::prelude::*;
use slade_core::reliability::theta;
use slade_core::solver::SolveArtifacts;
use slade_engine::{
    ArtifactCache, Engine, EngineConfig, EngineRequest, Fingerprint, ResolvedHandle, Submit,
    CACHE_SHARDS,
};
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

/// Fake artifacts tagged with the key index that computed them, so the
/// integrity sweep can detect cross-key aliasing.
#[derive(Debug)]
struct Tagged {
    theta: f64,
    key_index: usize,
}

impl SolveArtifacts for Tagged {
    fn theta(&self) -> f64 {
        self.theta
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// xorshift64* — a tiny seeded PRNG so the schedule-shaping choices (which
/// key each op touches) are reproducible run to run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Distinct cache keys: one per threshold, each with the threshold's own
/// fingerprint (distinct θ ⇒ distinct digest material).
fn stress_keys(count: usize) -> Vec<(Fingerprint, f64)> {
    let bins = Arc::new(BinSet::paper_example());
    let solver = slade_core::opq_based::OpqBased::default();
    (0..count)
        .map(|i| {
            let t = 0.50 + 0.49 * (i as f64 / (count - 1) as f64);
            let key = Fingerprint::new(Arc::clone(&bins), theta(t), &solver);
            (key, theta(t))
        })
        .collect()
}

#[test]
fn concurrent_get_insert_evict_is_consistent_at_capacity_pressure() {
    const THREADS: usize = 8;
    const OPS_PER_THREAD: usize = 2_000;
    const KEYS: usize = 48;
    const CAPACITY: usize = 8; // far fewer than KEYS: constant eviction

    let cache = Arc::new(ArtifactCache::new(CAPACITY));
    let keys = Arc::new(stress_keys(KEYS));
    thread::scope(|scope| {
        for worker in 0..THREADS {
            let cache = Arc::clone(&cache);
            let keys = Arc::clone(&keys);
            scope.spawn(move || {
                let mut rng = Rng(0x5EED_0000 + worker as u64);
                for _ in 0..OPS_PER_THREAD {
                    let index = (rng.next() as usize) % keys.len();
                    let (key, key_theta) = &keys[index];
                    let artifacts = cache
                        .get_or_try_insert_with::<SladeError>(key.clone(), || {
                            Ok(Arc::new(Tagged {
                                theta: *key_theta,
                                key_index: index,
                            }))
                        })
                        .unwrap();
                    // Whatever we got back — freshly computed, cached,
                    // or adopted from a single-flight leader — it must
                    // be THIS key's artifacts.
                    let tagged = artifacts
                        .as_any()
                        .downcast_ref::<Tagged>()
                        .expect("stress artifacts are Tagged");
                    assert_eq!(tagged.key_index, index, "aliased entry");
                }
            });
        }
    });

    let stats = cache.stats();
    // Every lookup is exactly one hit or one miss — no double counting,
    // none dropped (waiters served by a leader count as hits).
    assert_eq!(
        stats.hits + stats.misses,
        (THREADS * OPS_PER_THREAD) as u64,
        "{stats:?}"
    );
    // The relaxed entry counter agrees with actual occupancy.
    let occupancy: usize = cache.shard_occupancy().iter().sum();
    assert_eq!(stats.entries, occupancy, "{stats:?}");
    // Capacity is enforced within the documented one-entry-per-shard
    // overshoot.
    let bound = CAPACITY + CACHE_SHARDS;
    assert!(
        stats.entries <= bound,
        "{} entries > bound {bound}",
        stats.entries
    );
    assert!(stats.evictions > 0, "must have evicted");
    assert!(stats.hits > 0 && stats.misses > 0);

    // Integrity sweep: every still-resident key answers with its own
    // artifacts (lost entries would recompute; aliased ones would
    // carry a foreign tag). The probe's compute returns `Err`, so a
    // miss inserts nothing — the sweep observes the cache without
    // perturbing it (a computing probe would evict the very survivors
    // it is about to visit and see an arbitrarily cold cache).
    let mut resident = 0;
    for (index, (key, key_theta)) in keys.iter().enumerate() {
        match cache.get_or_try_insert_with::<SladeError>(key.clone(), || {
            Err(SladeError::InvalidWorkload("probe only".into()))
        }) {
            Ok(artifacts) => {
                resident += 1;
                let tagged = artifacts.as_any().downcast_ref::<Tagged>().unwrap();
                assert_eq!(tagged.key_index, index, "aliased");
                assert_eq!(tagged.theta, *key_theta);
            }
            Err(SladeError::InvalidWorkload(_)) => {}
            Err(other) => panic!("unexpected probe error {other:?}"),
        }
    }
    assert_eq!(resident, occupancy, "every counted entry answers warm");
}

#[test]
fn single_flight_computes_once_per_cold_key_round_after_round() {
    const RACERS: usize = 8;
    const ROUNDS: usize = 12;

    let cache = Arc::new(ArtifactCache::new(ROUNDS * 2));
    let keys = stress_keys(ROUNDS);
    let computes = Arc::new(AtomicUsize::new(0));

    for (index, (key, key_theta)) in keys.iter().enumerate() {
        let barrier = Arc::new(Barrier::new(RACERS));
        thread::scope(|scope| {
            for _ in 0..RACERS {
                let cache = Arc::clone(&cache);
                let computes = Arc::clone(&computes);
                let barrier = Arc::clone(&barrier);
                let key = key.clone();
                scope.spawn(move || {
                    barrier.wait();
                    let artifacts = cache
                        .get_or_try_insert_with::<SladeError>(key, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open so the other racers
                            // must park on it rather than win by luck.
                            thread::sleep(std::time::Duration::from_millis(10));
                            Ok(Arc::new(Tagged {
                                theta: *key_theta,
                                key_index: index,
                            }))
                        })
                        .unwrap();
                    let tagged = artifacts.as_any().downcast_ref::<Tagged>().unwrap();
                    assert_eq!(tagged.key_index, index);
                });
            }
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            index + 1,
            "round {index}: every cold key computes exactly once"
        );
    }

    let stats = cache.stats();
    assert_eq!(stats.misses as usize, ROUNDS, "{stats:?}");
    assert_eq!(stats.hits as usize, ROUNDS * (RACERS - 1), "{stats:?}");
    assert_eq!(
        stats.singleflight_waits as usize,
        ROUNDS * (RACERS - 1),
        "{stats:?}"
    );
}

/// Submits every request up front (so their shards interleave in the
/// pool), keeping the handles in request order.
fn submit_all(engine: &Engine, requests: Vec<EngineRequest>) -> Vec<ResolvedHandle> {
    requests
        .into_iter()
        .map(|request| engine.submit(request, Submit::default()))
        .collect()
}

/// Identical homogeneous OPQ requests at the head of [`mixed_batch`]: their
/// shards all share one (menu, θ) fingerprint — the forced single-flight
/// race (8 workers, one cold key).
const SAME_KEY_REQUESTS: usize = 11;

/// A mixed batch of every algorithm, led by [`SAME_KEY_REQUESTS`]
/// identical homogeneous OPQ requests.
fn mixed_batch(bins: &Arc<BinSet>) -> Vec<EngineRequest> {
    let same_key = EngineRequest::new(
        Algorithm::OpqBased,
        Workload::homogeneous(64, 0.95).unwrap(),
        Arc::clone(bins),
    );
    let mut batch = vec![same_key; SAME_KEY_REQUESTS];
    batch.extend([
        EngineRequest::new(
            Algorithm::OpqExtended,
            Workload::heterogeneous(vec![0.3, 0.55, 0.72, 0.9, 0.95]).unwrap(),
            Arc::clone(bins),
        ),
        EngineRequest::new(
            Algorithm::Greedy,
            Workload::heterogeneous(vec![0.5, 0.6, 0.7, 0.86, 0.99, 0.31]).unwrap(),
            Arc::clone(bins),
        ),
        EngineRequest::new(
            Algorithm::Baseline,
            Workload::homogeneous(30, 0.9).unwrap(),
            Arc::clone(bins),
        )
        .with_seed(0xC0FFEE),
        EngineRequest::new(
            Algorithm::Relaxed,
            Workload::homogeneous(9, 0.7).unwrap(),
            Arc::clone(bins),
        ),
        EngineRequest::new(
            Algorithm::Exact,
            Workload::homogeneous(3, 0.9).unwrap(),
            Arc::clone(bins),
        ),
    ]);
    batch
}

/// The OPQ solver's DP cap in the byte-identity test. The cold `prepare`
/// fills the exact group DP for every size up to the cap, each size a
/// minimum over all smaller ones, so it is Θ(cap²) work whatever the
/// kernel's speed: at this cap it takes milliseconds (tens in release,
/// hundreds in debug), far longer than the few hand-offs the same-key
/// requests need to pile their shards up on the leader's flight.
const PILE_UP_DP_CAP: u32 = 4_096;

fn config(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        cache_capacity: 16,
        solver: slade_core::opq_based::OpqBased {
            dp_cap: PILE_UP_DP_CAP,
            ..slade_core::opq_based::OpqBased::default()
        },
        ..EngineConfig::default()
    }
}

/// Cold passes `plans_are_byte_identical_across_threads_and_warmth`
/// may spend waiting for a single-flight pile-up. A pass misses one only
/// if the first worker finishes the cold prepare before any other reaches
/// the key, which [`PILE_UP_DP_CAP`] makes rare (none in 50 release runs on
/// a 2-core host), so this many misses in a row means single-flight is
/// broken, not unlucky.
const MAX_COLD_PASSES: usize = 50;

#[test]
fn plans_are_byte_identical_across_threads_and_warmth() {
    let bins = Arc::new(BinSet::paper_example());
    // The reference: single-threaded with the cache disabled, so every
    // shard runs its own `prepare` and no cache path is exercised — the
    // most boring possible schedule.
    let reference: Vec<DecompositionPlan> = {
        let engine = Engine::new(EngineConfig {
            cache_capacity: 0,
            ..config(1)
        });
        mixed_batch(&bins)
            .into_iter()
            .map(|r| engine.solve(r).unwrap())
            .collect()
    };

    let solve_batch = |engine: &Engine| -> Vec<DecompositionPlan> {
        submit_all(engine, mixed_batch(&bins))
            .into_iter()
            .map(|h| h.wait().unwrap().into_plan())
            .collect()
    };
    let check = |plans: &[DecompositionPlan], what: &str| {
        assert_eq!(plans.len(), reference.len());
        for (i, (plan, reference)) in plans.iter().zip(&reference).enumerate() {
            assert_eq!(plan, reference, "{what} request {i}");
            assert_eq!(
                format!("{plan:?}"),
                format!("{reference:?}"),
                "{what} request {i} bytes"
            );
        }
    };

    // Cold, 8 threads: the same-key requests send their shards through the
    // cold path at once. The pile-up is only as likely as the workers are
    // to reach the key while the first one is still computing it, so retry
    // the cold pass on a fresh engine until a single-flight wait is seen —
    // every pass's plans checked against the reference.
    let mut passes = 0;
    let engine = loop {
        passes += 1;
        let engine = Engine::new(config(8));
        check(&solve_batch(&engine), &format!("cold pass {passes}"));
        let raced = engine.cache_stats().singleflight_waits > 0;
        if raced || passes == MAX_COLD_PASSES {
            break engine;
        }
    };
    // Warm: same batch again, artifacts now resident.
    check(&solve_batch(&engine), "warm");

    let stats = engine.cache_stats();
    assert!(
        stats.singleflight_waits > 0,
        "the same-key requests must have raced the cold key within \
         {MAX_COLD_PASSES} cold passes: {stats:?}"
    );
}

#[test]
fn forced_single_flight_race_still_matches_the_direct_solver() {
    // Belt and braces on the interchangeable-winner argument: a solve on an
    // 8-worker engine with a live cache, cold on each fresh engine, equals
    // the sequential solver's answer exactly.
    let bins = Arc::new(BinSet::paper_example());
    let workload = Workload::homogeneous(40, 0.95).unwrap();
    let direct = Algorithm::OpqBased.solve(&workload, &bins).unwrap();
    for _ in 0..5 {
        let engine = Engine::new(EngineConfig {
            threads: 8,
            cache_capacity: 16,
            ..EngineConfig::default()
        });
        let via_engine = engine
            .solve(EngineRequest::new(
                Algorithm::OpqBased,
                workload.clone(),
                Arc::clone(&bins),
            ))
            .unwrap();
        assert_eq!(via_engine, direct);
    }
}
