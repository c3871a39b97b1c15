//! Fig. 6a/6b (homogeneous): cost and running time versus task count `n`.
//! Wired-but-minimal: small `n` grid by default; `SLADE_BENCH_FULL=1`
//! restores the paper-scale sweep.

use slade_bench::harness::{black_box, full_sweep, Harness};
use slade_bench::{instances, sweeps};
use slade_core::prelude::*;

fn main() {
    let harness = Harness::quick();
    let bins = instances::paper_bins();

    for &n in sweeps::scale_grid(full_sweep()) {
        let workload = instances::homogeneous(n, 0.95);
        for algorithm in [Algorithm::OpqBased, Algorithm::Greedy] {
            if algorithm == Algorithm::Greedy && n > sweeps::GREEDY_MAX_N {
                println!("fig6-scale n={n} algorithm={algorithm} skipped (see DESIGN.md seam #1)");
                continue;
            }
            let plan = algorithm.solve(&workload, &bins).unwrap();
            println!(
                "fig6-scale n={n} algorithm={algorithm} cost={:.4}",
                plan.total_cost()
            );
            harness.bench(&format!("fig6-scale/{algorithm}/n={n}"), || {
                black_box(algorithm.solve(black_box(&workload), &bins)).unwrap();
            });
        }
    }
}
