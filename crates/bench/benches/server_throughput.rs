//! Loopback throughput of the `slade-server` network frontend:
//!
//! * **cold grid** — artifact cache disabled, every request performs real
//!   enumeration + DP work: the floor the protocol adds its framing to;
//! * **warm grid** — cache enabled and pre-warmed, so requests measure the
//!   wire + session + `solve_with` path that a steady-state server runs;
//! * **batch verb** — the whole grid as one `batch` request, amortizing
//!   per-line round trips into a single protocol exchange;
//! * **pipelined** — the same grid on **one connection** with a window of
//!   `seq`-tagged requests in flight (DESIGN seam #11): no synchronous
//!   round-trip waits, so a single connection approaches the worker pool's
//!   saturation throughput instead of being round-trip-bound. Reported
//!   cold (same work as the cold grid, minus the waiting) and warm (the
//!   steady-state serving rate); both speedups are against the cold
//!   sequential baseline, the number the sequential protocol pinned us to.
//!
//! Requests go through a real TCP connection on 127.0.0.1. Quick mode
//! keeps the grid small for the CI smoke step; `SLADE_BENCH_FULL=1` sweeps
//! the paper-scale grid. Results land in `BENCH_server.json` (see
//! `slade_bench::report`) next to the engine and core trajectories.

use slade_bench::harness::full_sweep;
use slade_bench::report::{write_json, BenchRecord};
use slade_bench::sweeps;
use slade_engine::EngineConfig;
use slade_server::{Client, ObsOptions, Server, ServerConfig};
use std::time::{Duration, Instant};

/// Timed repetitions per configuration; the best run is reported.
const RUNS: u32 = 3;

/// One solve line per (n, threshold) grid point.
fn request_lines(full: bool) -> Vec<String> {
    let mut lines = Vec::new();
    for &n in sweeps::scale_grid(full) {
        for &t in &sweeps::THRESHOLDS {
            lines.push(format!("{{\"tasks\":{n},\"threshold\":{t}}}"));
        }
    }
    lines
}

fn start_server(cache: usize, obs: ObsOptions) -> (Server, std::net::SocketAddr) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            cache_capacity: cache,
            ..EngineConfig::default()
        },
        request_timeout: Duration::from_secs(600),
        obs,
        ..ServerConfig::default()
    })
    .expect("binding a loopback port");
    let addr = server.local_addr();
    (server, addr)
}

/// Requests/sec of the given mode, best of [`RUNS`] timed passes.
fn bench_mode(cache: usize, warm: bool, lines: &[String]) -> f64 {
    let (server, addr) = start_server(cache, ObsOptions::default());
    let shutdown = server.shutdown_handle();
    let running = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connecting to the bench server");
    client
        .set_read_timeout(Some(Duration::from_secs(600)))
        .unwrap();
    if warm {
        // Untimed pass filling the artifact cache.
        for line in lines {
            let response = client.roundtrip(line).expect("warm-up round trip");
            assert!(response.contains("\"ok\":true"), "{response}");
        }
    }

    let mut best_rps: f64 = 0.0;
    for _ in 0..RUNS {
        let start = Instant::now();
        for line in lines {
            let response = client.roundtrip(line).expect("timed round trip");
            debug_assert!(response.contains("\"ok\":true"), "{response}");
        }
        let rps = lines.len() as f64 / start.elapsed().as_secs_f64();
        best_rps = best_rps.max(rps);
    }

    shutdown.shutdown();
    running
        .join()
        .expect("server thread must not panic")
        .expect("server must shut down cleanly");
    best_rps
}

/// Requests/sec with the whole grid sent as a single `batch` verb.
fn bench_batch_verb(lines: &[String]) -> f64 {
    let (server, addr) = start_server(64, ObsOptions::default());
    let shutdown = server.shutdown_handle();
    let running = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connecting to the bench server");
    client
        .set_read_timeout(Some(Duration::from_secs(600)))
        .unwrap();
    let request = format!("{{\"op\":\"batch\",\"requests\":[{}]}}", lines.join(","));

    let mut best_rps: f64 = 0.0;
    for run in 0..=RUNS {
        let start = Instant::now();
        let response = client.roundtrip(&request).expect("batch round trip");
        assert!(response.contains("\"ok\":true"), "{response}");
        if run == 0 {
            continue; // warm-up pass
        }
        let rps = lines.len() as f64 / start.elapsed().as_secs_f64();
        best_rps = best_rps.max(rps);
    }

    shutdown.shutdown();
    running
        .join()
        .expect("server thread must not panic")
        .expect("server must shut down cleanly");
    best_rps
}

/// Requests/sec with `window` tagged requests kept in flight on a single
/// connection (the seam #11 scenario; `window` plays the role of the CLI's
/// `--pipeline N`).
fn bench_pipelined(cache: usize, warm: bool, lines: &[String], window: usize) -> f64 {
    bench_pipelined_obs(cache, warm, lines, window, true)
}

/// The pipelined scenario with observability switched on or off — the A/B
/// pair quantifying what the always-on instrumentation (registry counters,
/// latency histograms) costs on the hottest path.
fn bench_pipelined_obs(
    cache: usize,
    warm: bool,
    lines: &[String],
    window: usize,
    obs_enabled: bool,
) -> f64 {
    bench_pipelined_opts(
        cache,
        warm,
        lines,
        window,
        ObsOptions {
            enabled: obs_enabled,
            ..ObsOptions::default()
        },
    )
}

/// The pipelined scenario with arbitrary [`ObsOptions`] — the shared body
/// behind the obs on/off and window on/off A/B pairs.
fn bench_pipelined_opts(
    cache: usize,
    warm: bool,
    lines: &[String],
    window: usize,
    obs: ObsOptions,
) -> f64 {
    let (server, addr) = start_server(cache, obs);
    let shutdown = server.shutdown_handle();
    let running = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connecting to the bench server");
    client
        .set_read_timeout(Some(Duration::from_secs(600)))
        .unwrap();
    if warm {
        // Untimed pass filling the artifact cache.
        for line in lines {
            let response = client.roundtrip(line).expect("warm-up round trip");
            assert!(response.contains("\"ok\":true"), "{response}");
        }
    }

    let mut best_rps: f64 = 0.0;
    for _ in 0..RUNS {
        let start = Instant::now();
        let responses = client
            .pipeline(lines, window)
            .expect("pipelined round trips");
        let rps = lines.len() as f64 / start.elapsed().as_secs_f64();
        best_rps = best_rps.max(rps);
        // A real assert (not debug_assert — benches build with
        // debug_assertions off): it runs outside the timed region, and a
        // regression answering errors must not report as throughput.
        assert!(
            responses.iter().all(|r| r.contains("\"ok\":true")),
            "pipelined responses must succeed"
        );
    }

    shutdown.shutdown();
    running
        .join()
        .expect("server thread must not panic")
        .expect("server must shut down cleanly");
    best_rps
}

fn record(name: &str, n: u64, rps: f64) -> BenchRecord {
    BenchRecord::per_item(name, n, 1e9 / rps.max(f64::MIN_POSITIVE))
}

/// Window used for the pipelined scenarios (the acceptance bar is ≥ 8).
const PIPELINE_WINDOW: usize = 32;

fn main() {
    let full = full_sweep();
    let lines = request_lines(full);
    let n = lines.len() as u64;

    let cold = bench_mode(0, false, &lines);
    println!("server/solve/cold   {cold:>10.0} req/s over {n} loopback requests");
    let warm = bench_mode(64, true, &lines);
    println!(
        "server/solve/warm   {warm:>10.0} req/s (warm/cold {:.2}x)",
        warm / cold
    );
    let batch = bench_batch_verb(&lines);
    println!("server/batch/warm   {batch:>10.0} req/s via one batch verb");
    let pipelined_cold = bench_pipelined(0, false, &lines, PIPELINE_WINDOW);
    println!(
        "server/solve/pipelined-cold {pipelined_cold:>10.0} req/s \
         (window {PIPELINE_WINDOW}, vs cold {:.2}x)",
        pipelined_cold / cold
    );
    let pipelined = bench_pipelined(64, true, &lines, PIPELINE_WINDOW);
    println!(
        "server/solve/pipelined      {pipelined:>10.0} req/s \
         (window {PIPELINE_WINDOW}, steady state, vs cold sequential {:.2}x)",
        pipelined / cold
    );
    // The observability A/B: the same steady-state pipelined scenario with
    // metrics and tracing disabled. `overhead` below is obs-off/obs-on —
    // how much throughput the always-on instrumentation costs (the
    // acceptance bar is ≤ 3%, i.e. a ratio ≤ 1.03 modulo run noise).
    let pipelined_obs_off = bench_pipelined_obs(64, true, &lines, PIPELINE_WINDOW, false);
    println!(
        "server/solve/pipelined-obs-off {pipelined_obs_off:>7.0} req/s \
         (obs off; obs-on/off throughput ratio {:.3})",
        pipelined / pipelined_obs_off
    );
    // The window A/B: the same steady-state pipelined scenario with obs on
    // but the sliding window disabled (`window: Duration::ZERO`). The record
    // path is bit-identical either way — windowing only adds reader-driven
    // work on `metrics`/`health` — so this pair must hold at parity (the
    // acceptance bar is ≤ 3%, gated in CI via the window-on record's
    // speedup, which is on/off and drops if windowing ever regresses).
    let window_off = bench_pipelined_opts(
        64,
        true,
        &lines,
        PIPELINE_WINDOW,
        ObsOptions {
            window: Duration::ZERO,
            ..ObsOptions::default()
        },
    );
    println!(
        "server/solve/pipelined-window-off {window_off:>4.0} req/s \
         (window off; window-on/off throughput ratio {:.3})",
        pipelined / window_off
    );

    let records = vec![
        record("server/solve/cold", n, cold),
        record("server/solve/warm", n, warm).with_speedup(warm / cold),
        record("server/batch/warm", n, batch).with_speedup(batch / cold),
        record("server/solve/pipelined-cold", n, pipelined_cold)
            .with_speedup(pipelined_cold / cold),
        record("server/solve/pipelined", n, pipelined).with_speedup(pipelined / cold),
        record("server/solve/pipelined-obs-off", n, pipelined_obs_off)
            .with_speedup(pipelined_obs_off / pipelined),
        // Both sides of the window A/B land as records: `-window-off`
        // mirrors the obs-off convention (speedup = off/on), while
        // `-window-on` carries the on/off ratio — the number that DROPS if
        // sliding-window accounting slows the hot path, so it is the one
        // the CI gate holds (≤ 3% regression).
        record("server/solve/pipelined-window-off", n, window_off)
            .with_speedup(window_off / pipelined),
        record("server/solve/pipelined-window-on", n, pipelined)
            .with_speedup(pipelined / window_off),
    ];

    write_json("BENCH_server.json", &records).expect("writing BENCH_server.json");
}
