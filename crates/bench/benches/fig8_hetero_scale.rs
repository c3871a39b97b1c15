//! Fig. 8 (heterogeneous): running time versus task count for the
//! heterogeneous-capable solvers. Wired-but-minimal.

use slade_bench::harness::{black_box, full_sweep, Harness};
use slade_bench::{instances, sweeps};
use slade_core::prelude::*;

fn main() {
    let harness = Harness::quick();
    let bins = instances::paper_bins();
    for &n in sweeps::hetero_scale_grid(full_sweep()) {
        let workload = instances::heterogeneous(n, 0.3, 0.99, 7);
        for algorithm in [Algorithm::OpqExtended, Algorithm::Greedy] {
            if algorithm == Algorithm::Greedy && n > sweeps::GREEDY_MAX_N {
                println!("fig8 n={n} algorithm={algorithm} skipped (see DESIGN.md seam #1)");
                continue;
            }
            harness.bench(&format!("fig8/{algorithm}/n={n}"), || {
                black_box(algorithm.solve(black_box(&workload), &bins)).unwrap();
            });
        }
    }
}
