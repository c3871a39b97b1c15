//! Throughput of the `slade-engine` service layer on the fig6 scale grid:
//!
//! * **thread scaling** — the same request batch at 1 worker versus N
//!   workers with the artifact cache *disabled*, so every request performs
//!   real enumeration + DP work and the comparison isolates the pool;
//! * **per-algorithm cache effect** — cold versus warm batches at fixed
//!   threads for every cacheable algorithm (OpqBased, OpqExtended, Greedy,
//!   Baseline), isolating what the two-phase `prepare`/`solve_with`
//!   pipeline reuses for each.
//!
//! Quick mode (the default, used by the CI smoke step) keeps the batch
//! small; `SLADE_BENCH_FULL=1` sweeps the paper-scale grid. Reported
//! numbers are requests/sec over the best of `RUNS` timed repetitions, and
//! the whole grid lands in `BENCH_engine.json` (see
//! `slade_bench::report`) so CI tracks the trajectory across PRs.

use slade_bench::harness::full_sweep;
use slade_bench::report::{write_json, BenchRecord};
use slade_bench::{instances, sweeps};
use slade_core::prelude::*;
use slade_engine::{Engine, EngineConfig, EngineRequest, ResolvedHandle, Submit};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed repetitions per configuration; the best run is reported.
const RUNS: u32 = 3;

/// One batch over the fig6 scale grid × the fig6 threshold grid.
fn grid_batch(full: bool, bins: &Arc<BinSet>, copies: u32) -> Vec<EngineRequest> {
    let mut requests = Vec::new();
    for _ in 0..copies {
        for &n in sweeps::scale_grid(full) {
            for &t in &sweeps::THRESHOLDS {
                requests.push(EngineRequest::new(
                    Algorithm::OpqBased,
                    instances::homogeneous(n, t),
                    Arc::clone(bins),
                ));
            }
        }
    }
    requests
}

/// The warm/cold batch for one algorithm: the shapes its artifact reuse is
/// sensitive to (homogeneous grids for the homogeneous-threshold solvers,
/// the fig7 heterogeneous ranges for OpqExtended; the column-heavy baseline
/// keeps its own smaller cap). The greedy runs over the fig6e synthetic
/// 8-cardinality menu instead of the 3-bin paper menu: its cached ladder
/// skips the per-round `O(m·l)` menu scan, whose weight grows with the
/// menu, so the wider menu is where the reuse it offers actually shows.
fn algorithm_batch(algorithm: Algorithm, full: bool, bins: &Arc<BinSet>) -> Vec<EngineRequest> {
    let mut requests = Vec::new();
    match algorithm {
        Algorithm::OpqExtended => {
            for &n in sweeps::hetero_scale_grid(full) {
                for (i, &(lo, hi)) in sweeps::HETERO_RANGES.iter().enumerate() {
                    requests.push(EngineRequest::new(
                        algorithm,
                        instances::heterogeneous(n, lo, hi, 42 + i as u64),
                        Arc::clone(bins),
                    ));
                }
            }
        }
        Algorithm::Baseline => {
            for n in [50u32, 100, 200] {
                for &t in &sweeps::THRESHOLDS {
                    requests.push(EngineRequest::new(
                        algorithm,
                        instances::homogeneous(n.min(sweeps::BASELINE_SOLVER_MAX_N), t),
                        Arc::clone(bins),
                    ));
                }
            }
        }
        Algorithm::Greedy => {
            let wide = Arc::new(instances::synthetic_bins(8));
            for &n in sweeps::scale_grid(full) {
                for &t in &sweeps::THRESHOLDS {
                    requests.push(EngineRequest::new(
                        algorithm,
                        instances::homogeneous(n, t),
                        Arc::clone(&wide),
                    ));
                }
            }
        }
        _ => {
            for &n in sweeps::scale_grid(full) {
                for &t in &sweeps::THRESHOLDS {
                    requests.push(EngineRequest::new(
                        algorithm,
                        instances::homogeneous(n, t),
                        Arc::clone(bins),
                    ));
                }
            }
        }
    }
    requests
}

/// Submits every request up front, keeping the handles in request order.
fn submit_all(engine: &Engine, requests: &[EngineRequest]) -> Vec<ResolvedHandle> {
    requests
        .iter()
        .map(|request| engine.submit(request.clone(), Submit::default()))
        .collect()
}

/// Submits `requests` to a fresh engine and waits for every plan; returns
/// the wall-clock of the best of `RUNS` repetitions.
fn best_batch_time(config: &EngineConfig, requests: &[EngineRequest]) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..RUNS {
        let engine = Engine::new(config.clone());
        let start = Instant::now();
        for handle in submit_all(&engine, requests) {
            handle.wait().expect("grid requests solve");
        }
        best = best.min(start.elapsed());
    }
    best
}

fn req_per_sec(requests: usize, elapsed: Duration) -> f64 {
    requests as f64 / elapsed.as_secs_f64()
}

fn per_request_ns(requests: usize, elapsed: Duration) -> f64 {
    elapsed.as_nanos() as f64 / requests as f64
}

/// Times one algorithm's batch cold (fresh engine per run, nothing resident)
/// and warm (same engine, cache fully resident), returning trajectory
/// records and printing the human-readable grid lines.
fn warm_cold_grid(
    algorithm: Algorithm,
    full: bool,
    bins: &Arc<BinSet>,
    threads: usize,
) -> Vec<BenchRecord> {
    let batch = algorithm_batch(algorithm, full, bins);
    let config = EngineConfig {
        threads,
        cache_capacity: 64,
        ..EngineConfig::default()
    };
    let cold = best_batch_time(&config, &batch);

    let engine = Engine::new(config);
    for handle in submit_all(&engine, &batch) {
        handle.wait().expect("grid requests solve"); // warm-up, untimed
    }
    let mut warm = Duration::MAX;
    for _ in 0..RUNS {
        let start = Instant::now();
        for handle in submit_all(&engine, &batch) {
            handle.wait().expect("grid requests solve");
        }
        warm = warm.min(start.elapsed());
    }
    let stats = engine.cache_stats();
    let speedup = cold.as_secs_f64() / warm.as_secs_f64();
    println!(
        "{algorithm:<14} cache=cold  {:>9.1} req/s  ({cold:.1?})",
        req_per_sec(batch.len(), cold),
    );
    println!(
        "{algorithm:<14} cache=warm  {:>9.1} req/s  ({warm:.1?})  warm/cold speedup {speedup:.2}x  \
         [hits={} misses={}]",
        req_per_sec(batch.len(), warm),
        stats.hits,
        stats.misses,
    );
    let n = batch.len() as u64;
    vec![
        BenchRecord::per_item(
            format!("engine/{algorithm}/cold"),
            n,
            per_request_ns(batch.len(), cold),
        ),
        BenchRecord::per_item(
            format!("engine/{algorithm}/warm"),
            n,
            per_request_ns(batch.len(), warm),
        )
        .with_speedup(speedup),
    ]
}

fn main() {
    let full = full_sweep();
    let bins = Arc::new(instances::paper_bins());
    let copies = if full { 8 } else { 4 };
    let batch = grid_batch(full, &bins, copies);
    let n_threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut records: Vec<BenchRecord> = Vec::new();
    println!(
        "engine_throughput: {} requests (fig6 scale grid × thresholds × {copies}), \
         host parallelism = {n_threads}",
        batch.len()
    );

    // Thread scaling, cache off: every request is a full cold solve.
    let cold = |threads: usize| EngineConfig {
        threads,
        cache_capacity: 0,
        ..EngineConfig::default()
    };
    let t1 = best_batch_time(&cold(1), &batch);
    println!(
        "threads=1           cache=off   {:>9.1} req/s  ({:.1?})",
        req_per_sec(batch.len(), t1),
        t1
    );
    records.push(BenchRecord::per_item(
        "engine/threads-1/cache-off",
        batch.len() as u64,
        per_request_ns(batch.len(), t1),
    ));
    let tn = best_batch_time(&cold(n_threads), &batch);
    let thread_speedup = t1.as_secs_f64() / tn.as_secs_f64();
    println!(
        "threads={n_threads:<11}cache=off   {:>9.1} req/s  ({:.1?})  speedup {:.2}x",
        req_per_sec(batch.len(), tn),
        tn,
        thread_speedup
    );
    records.push(
        BenchRecord::per_item(
            format!("engine/threads-{n_threads}/cache-off"),
            batch.len() as u64,
            per_request_ns(batch.len(), tn),
        )
        .with_speedup(thread_speedup),
    );

    // Per-algorithm warm/cold grids: what the two-phase pipeline actually
    // reuses, per solver.
    for algorithm in [
        Algorithm::OpqBased,
        Algorithm::OpqExtended,
        Algorithm::Greedy,
        Algorithm::Baseline,
    ] {
        records.extend(warm_cold_grid(algorithm, full, &bins, n_threads));
    }

    write_json("BENCH_engine.json", &records).expect("writing BENCH_engine.json");
}
