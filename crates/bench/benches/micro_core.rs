//! Micro-benchmarks of the hot paths in `slade-core`: the log-space
//! reliability transform, OPQ enumeration, the solvers on a mid-size
//! homogeneous instance, the two-phase `prepare`/`solve_with` split, and
//! the engine's journal codec (`codec::encode_into` and `codec::decode`).
//! This is the workspace's primary regression benchmark; the `fig*` targets
//! mirror the paper's figures instead. Results also land in
//! `BENCH_core.json` (see `slade_bench::report`) so CI tracks the
//! trajectory across PRs.

use slade_bench::harness::{black_box, full_sweep, Harness};
use slade_bench::report::{write_json, BenchRecord};
use slade_bench::{instances, sweeps};
use slade_core::opq::{CombinationKey, OpqConfig, OptimalPriorityQueue};
use slade_core::prelude::*;
use slade_core::reliability;
use slade_engine::{codec, Engine, EngineConfig, EngineRequest, WorkloadDelta};
use std::sync::Arc;

fn main() {
    let harness = if full_sweep() {
        Harness::default()
    } else {
        Harness::quick()
    };
    let bins = instances::paper_bins();
    let n: u32 = if full_sweep() { 100_000 } else { 2_000 };
    let workload = instances::homogeneous(n, 0.95);
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut record = |name: &str, n: u32, result: &slade_bench::harness::BenchResult| {
        records.push(BenchRecord::per_item(name, u64::from(n), result.median_ns));
    };

    let r = harness.bench("reliability::weight x1000", || {
        let mut acc = 0.0;
        for i in 1..1_000 {
            acc += reliability::weight(black_box(f64::from(i) / 1_000.0));
        }
        black_box(acc);
    });
    record("core/reliability-weight-x1000", 1_000, &r);

    let r = harness.bench("opq::enumerate_16(t=0.999)", || {
        let mut opq = OptimalPriorityQueue::new(
            black_box(&bins),
            reliability::theta(0.999),
            CombinationKey::PerTaskPrice,
            OpqConfig::default(),
        );
        black_box(opq.take_feasible(16));
    });
    record("core/opq-enumerate-16", 16, &r);

    let r = harness.bench(&format!("opq_based::solve(n={n})"), || {
        black_box(OpqBased::default().solve(black_box(&workload), &bins)).unwrap();
    });
    record("core/opq-based-solve", n, &r);

    // The two-phase split: what `prepare` pays once, and what a prepared
    // `solve_with` still pays per workload.
    let theta = workload.theta(0);
    let solver = OpqBased::default();
    let r = harness.bench("opq_based::prepare", || {
        black_box(solver.prepare(black_box(&bins), theta)).unwrap();
    });
    // Prepare is workload-independent; its scale is the DP cap it fills,
    // not the workload size (which differs between quick and full mode).
    record("core/opq-based-prepare", solver.dp_cap, &r);
    let artifacts = solver.prepare(&bins, theta).unwrap();
    let r = harness.bench(&format!("opq_based::solve_with(n={n})"), || {
        black_box(solver.solve_with(black_box(artifacts.as_ref()), &workload, &bins)).unwrap();
    });
    record("core/opq-based-solve-with", n, &r);

    // The widest key in the service benchmark's traffic: the 6-type
    // synthetic menu at t = 0.99, where `prepare` fills the largest pool's
    // DP and a solve above `dp_cap` takes the bulk path.
    let wide_bins = instances::synthetic_bins(6);
    let wide_theta = reliability::theta(0.99);
    let r = harness.bench("opq_based::prepare(|B|=6, t=0.99)", || {
        black_box(solver.prepare(black_box(&wide_bins), wide_theta)).unwrap();
    });
    record("core/opq-based-prepare-wide", solver.dp_cap, &r);
    let wide_artifacts = solver.prepare(&wide_bins, wide_theta).unwrap();
    let wide_n = 5_000;
    let wide_workload = instances::homogeneous(wide_n, 0.99);
    let r = harness.bench(
        &format!("opq_based::solve_with(|B|=6, t=0.99, n={wide_n})"),
        || {
            black_box(solver.solve_with(
                black_box(wide_artifacts.as_ref()),
                &wide_workload,
                &wide_bins,
            ))
            .unwrap();
        },
    );
    record("core/opq-based-solve-with-wide", wide_n, &r);

    // Pins the DESIGN.md seam-#1 rework: the lazy max-heap greedy runs the
    // full grid (the old full-re-sort loop was ~68 ms at n = 2 000; the heap
    // version is ~n log n and still caps at QUADRATIC_SOLVER_MAX_N only as a
    // safety net for pathological menus).
    let greedy_n = n.min(sweeps::QUADRATIC_SOLVER_MAX_N);
    let greedy_workload = instances::homogeneous(greedy_n, 0.95);
    let r = harness.bench(&format!("greedy::solve(n={greedy_n})"), || {
        black_box(Greedy.solve(black_box(&greedy_workload), &bins)).unwrap();
    });
    record("core/greedy-solve", greedy_n, &r);

    let greedy_artifacts = Greedy.prepare(&bins, theta).unwrap();
    let r = harness.bench(&format!("greedy::solve_with(n={greedy_n})"), || {
        black_box(Greedy.solve_with(
            black_box(greedy_artifacts.as_ref()),
            &greedy_workload,
            &bins,
        ))
        .unwrap();
    });
    record("core/greedy-solve-with", greedy_n, &r);

    // All-distinct random thresholds: no two tasks share a residual, the
    // opposite extreme to the homogeneous rows above. A loop that groups
    // open tasks by residual pays most here.
    let distinct = instances::heterogeneous(greedy_n, 0.05, 0.995, 0x9eed);
    let distinct_theta = distinct.thetas().fold(f64::MIN, f64::max);
    let distinct_artifacts = Greedy.prepare(&bins, distinct_theta).unwrap();
    let r = harness.bench(
        &format!("greedy::solve_with(n={greedy_n}, distinct thresholds)"),
        || {
            black_box(Greedy.solve_with(black_box(distinct_artifacts.as_ref()), &distinct, &bins))
                .unwrap();
        },
    );
    record("core/greedy-solve-with-distinct", greedy_n, &r);

    let plan = OpqBased::default().solve(&workload, &bins).unwrap();
    let r = harness.bench(&format!("plan::validate(n={n})"), || {
        black_box(plan.validate(black_box(&workload), &bins)).unwrap();
    });
    record("core/plan-validate", n, &r);

    // The journal codec on a plan shaped like journaled resubmit traffic:
    // a heterogeneous opq-extended plan of ~2 000 tasks, several bucket
    // shards, after an append and a threshold change.
    let engine = Engine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let solved = engine
        .solve_resolved(EngineRequest::new(
            Algorithm::OpqExtended,
            instances::homogeneous(1_990, 0.9),
            Arc::new(bins.clone()),
        ))
        .unwrap();
    let appended = engine
        .resubmit(&solved, &WorkloadDelta::Append(vec![0.99; 10]))
        .unwrap();
    let journaled = engine
        .resubmit(
            &appended,
            &WorkloadDelta::SetThresholds((0..20).map(|i| (i * 97, 0.8)).collect()),
        )
        .unwrap();
    engine.shutdown();
    assert!(
        journaled.shards() > 1,
        "the codec plan should be multi-shard"
    );
    let codec_n = journaled.workload().len();
    let mut record_buf = String::new();
    let r = harness.bench(&format!("codec::encode_into(n={codec_n})"), || {
        record_buf.clear();
        codec::encode_into(black_box(&journaled), &mut record_buf);
        black_box(record_buf.len());
    });
    record("engine/codec-encode-into", codec_n, &r);
    let parsed = codec::encode(&journaled);
    let r = harness.bench(&format!("codec::decode(n={codec_n})"), || {
        black_box(codec::decode(black_box(&parsed))).unwrap();
    });
    record("engine/codec-decode", codec_n, &r);

    write_json("BENCH_core.json", &records).expect("writing BENCH_core.json");
}
