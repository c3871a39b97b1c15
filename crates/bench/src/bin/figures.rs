//! `figures` — reproduce the paper's experiment tables as CSV on stdout.
//!
//! Runs the cost sweeps behind Figs. 3, 6, 7 (the timing sweeps live in the
//! bench targets) and prints `figure,parameter,algorithm,n,cost` rows,
//! ready for any plotting tool. Grids are shared with the bench targets via
//! [`slade_bench::sweeps`], so both entry points print the same experiment
//! points. `SLADE_BENCH_FULL=1` switches to paper-scale instance sizes.

use slade_bench::harness::full_sweep;
use slade_bench::{instances, sweeps};
use slade_core::prelude::*;

fn emit(figure: &str, parameter: String, algorithm: Algorithm, n: u32, cost: f64) {
    println!("{figure},{parameter},{algorithm},{n},{cost:.6}");
}

fn main() {
    println!("figure,parameter,algorithm,n,cost");
    let full = full_sweep();
    let scale: u32 = if full { 10_000 } else { 200 };
    let bins = instances::paper_bins();

    // Fig. 3: single-cardinality strategies vs the SLADE mix.
    let workload = instances::homogeneous(scale, 0.95);
    for max_card in 1..=bins.max_cardinality() {
        let restricted = bins.truncated(max_card).unwrap();
        let plan = OpqBased::default().solve(&workload, &restricted).unwrap();
        emit(
            "fig3",
            format!("card<={max_card}"),
            Algorithm::OpqBased,
            scale,
            plan.total_cost(),
        );
    }

    // Fig. 6 (a, b): cost vs n.
    for &n in sweeps::scale_grid(full) {
        let workload = instances::homogeneous(n, 0.95);
        for algorithm in [Algorithm::OpqBased, Algorithm::Greedy, Algorithm::Baseline] {
            let cap = match algorithm {
                Algorithm::Greedy => sweeps::GREEDY_MAX_N,
                Algorithm::Baseline => sweeps::BASELINE_SOLVER_MAX_N, // seam #6
                _ => u32::MAX,
            };
            if n > cap {
                continue;
            }
            let plan = algorithm.solve(&workload, &bins).unwrap();
            emit(
                "fig6-scale",
                format!("n={n}"),
                algorithm,
                n,
                plan.total_cost(),
            );
        }
    }

    // Fig. 6 (c, d): cost vs threshold.
    for t in sweeps::THRESHOLDS {
        let workload = instances::homogeneous(scale, t);
        for algorithm in [Algorithm::OpqBased, Algorithm::Greedy, Algorithm::Baseline] {
            let plan = algorithm.solve(&workload, &bins).unwrap();
            emit(
                "fig6-threshold",
                format!("t={t}"),
                algorithm,
                scale,
                plan.total_cost(),
            );
        }
    }

    // Fig. 6 (e–h): cost vs |B|.
    let workload = instances::homogeneous(scale, 0.95);
    for &m in sweeps::cardinality_grid(full) {
        let menu = instances::synthetic_bins(m);
        for algorithm in [Algorithm::OpqBased, Algorithm::Greedy] {
            let plan = algorithm.solve(&workload, &menu).unwrap();
            emit(
                "fig6-cardinality",
                format!("|B|={m}"),
                algorithm,
                scale,
                plan.total_cost(),
            );
        }
    }

    // Fig. 7: heterogeneous cost.
    for (lo, hi) in sweeps::HETERO_RANGES {
        let workload = instances::heterogeneous(scale, lo, hi, 42);
        for algorithm in [
            Algorithm::OpqExtended,
            Algorithm::Greedy,
            Algorithm::Baseline,
        ] {
            let plan = algorithm.solve(&workload, &bins).unwrap();
            emit(
                "fig7",
                format!("t={lo}..{hi}"),
                algorithm,
                scale,
                plan.total_cost(),
            );
        }
    }
}
