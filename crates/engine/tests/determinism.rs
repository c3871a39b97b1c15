//! The engine's determinism contracts, pinned end to end:
//!
//! 1. the same request batch produces byte-identical plans at `threads = 1`
//!    and `threads = 8`, sharding and all;
//! 2. a warm-cache solve returns a plan identical to the cold solve for the
//!    same fingerprint — for **every** algorithm, not just OpqBased;
//! 3. a [`WorkloadDelta`] resubmission returns a plan byte-identical to a
//!    cold solve of the resulting workload.

use slade_core::prelude::*;
use slade_engine::{Engine, EngineConfig, EngineRequest, Submit, WorkloadDelta};
use std::sync::Arc;

/// A mixed batch exercising every sharding path: small and large
/// homogeneous OPQ (one shard each), bucket-sharded heterogeneous OPQ, the
/// direct path (greedy), and the seeded randomized baseline.
fn mixed_batch(bins: &Arc<BinSet>) -> Vec<EngineRequest> {
    let spread: Vec<f64> = (0..60)
        .map(|i| 0.08 + 0.9 * (f64::from(i) / 59.0))
        .collect();
    vec![
        EngineRequest::new(
            Algorithm::OpqBased,
            Workload::homogeneous(4, 0.95).unwrap(),
            Arc::clone(bins),
        ),
        EngineRequest::new(
            Algorithm::OpqBased,
            Workload::homogeneous(700, 0.99).unwrap(),
            Arc::clone(bins),
        ),
        EngineRequest::new(
            Algorithm::OpqExtended,
            Workload::heterogeneous(spread).unwrap(),
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
    ]
}

fn config(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        queue_capacity: 8,
        cache_capacity: 16,
        ..EngineConfig::default()
    }
}

fn run_batch(threads: usize, bins: &Arc<BinSet>) -> Vec<DecompositionPlan> {
    let engine = Engine::new(config(threads));
    let handles: Vec<_> = mixed_batch(bins)
        .into_iter()
        .map(|r| engine.submit(r, Submit::default()))
        .collect();
    handles
        .into_iter()
        .map(|h| {
            h.wait()
                .expect("every request in the batch solves")
                .into_plan()
        })
        .collect()
}

#[test]
fn unsharded_engine_plans_equal_direct_solver_plans() {
    // The engine's pass-through/wrapper labeling must make its results
    // compare equal — label included — to the sequential solvers: the
    // engine shards a request only where the solver itself splits it.
    let bins = Arc::new(BinSet::paper_example());
    let engine = Engine::new(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    });
    let homo = Workload::homogeneous(40, 0.95).unwrap();
    let hetero = Workload::heterogeneous(vec![0.3, 0.55, 0.72, 0.9, 0.95]).unwrap();
    let cases = [
        (Algorithm::OpqBased, homo.clone()),
        (Algorithm::OpqExtended, homo.clone()),
        (Algorithm::OpqExtended, hetero.clone()),
        (Algorithm::Greedy, hetero),
        (Algorithm::Relaxed, Workload::homogeneous(9, 0.7).unwrap()),
        (Algorithm::Exact, Workload::homogeneous(3, 0.9).unwrap()),
    ];
    for (algorithm, workload) in cases {
        let direct = algorithm.solve(&workload, &bins).unwrap();
        let via_engine = engine
            .solve(EngineRequest::new(algorithm, workload, Arc::clone(&bins)))
            .unwrap();
        assert_eq!(via_engine, direct, "{algorithm}");
    }
}

#[test]
fn plans_are_byte_identical_at_1_and_8_threads() {
    let bins = Arc::new(BinSet::paper_example());
    let single = run_batch(1, &bins);
    let eight = run_batch(8, &bins);
    assert_eq!(single.len(), eight.len());
    for (i, (a, b)) in single.iter().zip(&eight).enumerate() {
        assert_eq!(a, b, "request {i} diverged between 1 and 8 threads");
        // Structural equality AND the rendered bytes, belt and braces.
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "request {i}");
    }
    // The plans are not merely equal to each other but actually feasible.
    for (plan, request) in single.iter().zip(mixed_batch(&bins)) {
        let audit = plan.validate(&request.workload, &bins).unwrap();
        assert!(audit.feasible, "{} infeasible", plan.algorithm());
    }
}

#[test]
fn warm_cache_solve_is_identical_to_cold_solve() {
    let bins = Arc::new(BinSet::paper_example());
    let engine = Engine::new(config(4));
    let request = EngineRequest::new(
        Algorithm::OpqBased,
        Workload::homogeneous(300, 0.95).unwrap(),
        Arc::clone(&bins),
    );

    let cold = engine.solve(request.clone()).unwrap();
    let after_cold = engine.cache_stats();
    assert!(after_cold.misses >= 1);

    let warm = engine.solve(request).unwrap();
    let after_warm = engine.cache_stats();
    assert_eq!(cold, warm);
    assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
    assert!(
        after_warm.hits > after_cold.hits,
        "second solve must hit the cache: {after_warm:?}"
    );
}

#[test]
fn warm_cache_solves_are_identical_to_cold_for_every_algorithm() {
    // The cache is algorithm-agnostic now: every algorithm's prepared
    // artifacts round-trip through it, and warm results must stay
    // byte-identical to cold ones in all cases.
    let bins = Arc::new(BinSet::paper_example());
    let homo = Workload::homogeneous(60, 0.95).unwrap();
    let hetero = Workload::heterogeneous(vec![0.3, 0.55, 0.72, 0.9, 0.95]).unwrap();
    let relaxed = Workload::homogeneous(9, 0.7).unwrap();
    let tiny = Workload::homogeneous(3, 0.9).unwrap();
    let cases = [
        (Algorithm::OpqBased, homo.clone()),
        (Algorithm::OpqExtended, hetero.clone()),
        (Algorithm::Greedy, homo.clone()),
        (Algorithm::Greedy, hetero.clone()),
        (Algorithm::Baseline, homo),
        (Algorithm::Relaxed, relaxed),
        (Algorithm::Exact, tiny),
    ];
    for (algorithm, workload) in cases {
        let engine = Engine::new(config(3));
        let request = EngineRequest::new(algorithm, workload, Arc::clone(&bins));
        let cold = engine.solve(request.clone()).unwrap();
        let warm = engine.solve(request).unwrap();
        assert_eq!(cold, warm, "{algorithm} warm plan diverged from cold");
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"), "{algorithm}");
    }
}

#[test]
fn cacheable_algorithms_hit_the_shared_cache_when_warm() {
    let bins = Arc::new(BinSet::paper_example());
    let homo = Workload::homogeneous(40, 0.95).unwrap();
    let hetero = Workload::heterogeneous(vec![0.3, 0.55, 0.72, 0.9, 0.95]).unwrap();
    for (algorithm, workload) in [
        (Algorithm::OpqBased, homo.clone()),
        (Algorithm::OpqExtended, hetero),
        (Algorithm::Greedy, homo),
    ] {
        let engine = Engine::new(config(2));
        let request = EngineRequest::new(algorithm, workload, Arc::clone(&bins));
        engine.solve(request.clone()).unwrap();
        let cold = engine.cache_stats();
        engine.solve(request).unwrap();
        let warm = engine.cache_stats();
        assert!(
            warm.hits > cold.hits,
            "{algorithm} second solve must hit the cache: {warm:?}"
        );
        assert_eq!(warm.misses, cold.misses, "{algorithm} warmed twice");
    }
}

#[test]
fn baseline_solves_take_no_cache_entry() {
    // The baseline has no workload-independent prepare step, so its
    // pass-through artifacts are never inserted: a resident OPQ entry is
    // all the cache holds before, between and after baseline solves.
    let bins = Arc::new(BinSet::paper_example());
    let engine = Engine::new(config(2));
    let opq = EngineRequest::new(
        Algorithm::OpqBased,
        Workload::homogeneous(40, 0.95).unwrap(),
        Arc::clone(&bins),
    );
    engine.solve(opq).unwrap();
    assert_eq!(engine.cache_stats().entries, 1);
    for seed in [1, 1, 2] {
        let request = EngineRequest::new(
            Algorithm::Baseline,
            Workload::homogeneous(40, 0.95).unwrap(),
            Arc::clone(&bins),
        )
        .with_seed(seed);
        engine.solve(request).unwrap();
        assert_eq!(engine.cache_stats().entries, 1, "seed {seed}");
    }
}

#[test]
fn resize_resubmit_equals_cold_solve_of_final_workload() {
    let bins = Arc::new(BinSet::paper_example());
    for algorithm in [Algorithm::OpqBased, Algorithm::Greedy, Algorithm::Baseline] {
        let engine = Engine::new(config(3));
        let request = EngineRequest::new(
            algorithm,
            Workload::homogeneous(300, 0.95).unwrap(),
            Arc::clone(&bins),
        )
        .with_seed(11);
        let resolved = engine.solve_resolved(request).unwrap();
        assert_eq!(resolved.reused_shards(), 0);
        for n in [500u32, 120, 300] {
            let resubmitted = engine
                .resubmit(&resolved, &WorkloadDelta::Resize(n))
                .unwrap();
            let cold = engine
                .solve(
                    EngineRequest::new(
                        algorithm,
                        Workload::homogeneous(n, 0.95).unwrap(),
                        Arc::clone(&bins),
                    )
                    .with_seed(11),
                )
                .unwrap();
            assert_eq!(*resubmitted.plan(), cold, "{algorithm} n = {n}");
            assert_eq!(
                format!("{:?}", resubmitted.plan()),
                format!("{cold:?}"),
                "{algorithm} n = {n}"
            );
        }
        // A no-op resize reuses everything.
        let unchanged = engine
            .resubmit(&resolved, &WorkloadDelta::Resize(300))
            .unwrap();
        assert_eq!(unchanged.reused_shards(), unchanged.shards());
        assert_eq!(*unchanged.plan(), *resolved.plan());
    }
}

#[test]
fn rethreshold_resubmit_rebuckets_and_reuses_untouched_buckets() {
    let bins = Arc::new(BinSet::paper_example());
    let engine = Engine::new(config(4));
    // Four well-separated θ levels under θ_max = θ(0.95); moving one task
    // between the two bottom buckets leaves every other bucket's (n, θ)
    // shard unchanged.
    let thresholds = vec![0.95, 0.95, 0.72, 0.72, 0.3, 0.3, 0.11, 0.11];
    let request = EngineRequest::new(
        Algorithm::OpqExtended,
        Workload::heterogeneous(thresholds.clone()).unwrap(),
        Arc::clone(&bins),
    );
    let resolved = engine.solve_resolved(request).unwrap();
    let shards = resolved.shards();
    assert!(shards >= 3, "spread must bucket into several shards");

    let delta = WorkloadDelta::SetThresholds(vec![(6, 0.3)]);
    let resubmitted = engine.resubmit(&resolved, &delta).unwrap();
    // Only the buckets whose (size, ceiling) changed were re-solved.
    assert!(
        resubmitted.reused_shards() >= shards - 2,
        "expected most buckets reused: {} of {}",
        resubmitted.reused_shards(),
        resubmitted.shards()
    );
    let mut final_thresholds = thresholds;
    final_thresholds[6] = 0.3;
    let cold = engine
        .solve(EngineRequest::new(
            Algorithm::OpqExtended,
            Workload::heterogeneous(final_thresholds).unwrap(),
            Arc::clone(&bins),
        ))
        .unwrap();
    assert_eq!(*resubmitted.plan(), cold);
    assert_eq!(format!("{:?}", resubmitted.plan()), format!("{cold:?}"));
}

#[test]
fn resubmit_never_splices_sub_plans_from_a_differently_configured_engine() {
    // A ResolvedPlan can outlive the engine that produced it. Handing it to
    // an engine whose OPQ solver knobs differ must recompute every shard —
    // splicing the foreign sub-plans in would break the
    // byte-identical-to-cold-solve contract.
    let bins = Arc::new(BinSet::paper_example());
    let tight = Engine::new(EngineConfig {
        threads: 2,
        solver: OpqBased {
            pool_size: 2,
            dp_cap: 8,
            ..OpqBased::default()
        },
        ..EngineConfig::default()
    });
    let default_knobs = Engine::new(config(2));
    let request = EngineRequest::new(
        Algorithm::OpqBased,
        Workload::homogeneous(300, 0.95).unwrap(),
        Arc::clone(&bins),
    );
    let from_tight = tight.solve_resolved(request.clone()).unwrap();

    // No-op delta: on the SAME engine everything is reused...
    let same = tight
        .resubmit(&from_tight, &WorkloadDelta::Resize(300))
        .unwrap();
    assert_eq!(same.reused_shards(), same.shards());

    // ...but a differently-knobbed engine must not reuse a single shard,
    // and must return ITS OWN cold plan.
    let cross = default_knobs
        .resubmit(&from_tight, &WorkloadDelta::Resize(300))
        .unwrap();
    assert_eq!(
        cross.reused_shards(),
        0,
        "foreign sub-plans were spliced in"
    );
    let cold = default_knobs.solve(request).unwrap();
    assert_eq!(*cross.plan(), cold);
}

#[test]
fn append_resubmit_equals_cold_solve_and_chains() {
    let bins = Arc::new(BinSet::paper_example());
    let engine = Engine::new(config(2));
    let request = EngineRequest::new(
        Algorithm::OpqExtended,
        Workload::heterogeneous(vec![0.95, 0.5, 0.3]).unwrap(),
        Arc::clone(&bins),
    );
    let resolved = engine.solve_resolved(request).unwrap();
    // Chain two deltas: append tasks, then re-threshold one of them.
    let appended = engine
        .resubmit(&resolved, &WorkloadDelta::Append(vec![0.5, 0.95]))
        .unwrap();
    let retargeted = engine
        .resubmit(&appended, &WorkloadDelta::SetThresholds(vec![(3, 0.3)]))
        .unwrap();
    let final_workload = Workload::heterogeneous(vec![0.95, 0.5, 0.3, 0.3, 0.95]).unwrap();
    assert_eq!(retargeted.workload(), &final_workload);
    let cold = engine
        .solve(EngineRequest::new(
            Algorithm::OpqExtended,
            final_workload.clone(),
            Arc::clone(&bins),
        ))
        .unwrap();
    assert_eq!(*retargeted.plan(), cold);
    assert!(cold.validate(&final_workload, &bins).unwrap().feasible);
}

#[test]
fn requests_sharing_a_fingerprint_share_cached_artifacts() {
    let bins = Arc::new(BinSet::paper_example());
    let engine = Engine::new(config(2));
    // Same menu and threshold, different sizes: one artifact computation.
    for n in [10u32, 100, 1_000, 40] {
        engine
            .solve(EngineRequest::new(
                Algorithm::OpqBased,
                Workload::homogeneous(n, 0.95).unwrap(),
                Arc::clone(&bins),
            ))
            .unwrap();
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1, "{stats:?}");
    // 4 shard lookups in total: a homogeneous request is one shard at any
    // size, so each request looks the key up once, and all but the first
    // hit.
    assert_eq!(stats.hits, 3, "{stats:?}");
    assert_eq!(stats.entries, 1, "{stats:?}");
}
