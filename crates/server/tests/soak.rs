//! Multi-connection soak: N concurrent sessions, each pipelining windows
//! of solves, resubmits, batches, and lease moves against the shared
//! engine and plan store, with **every** response pinned byte-for-byte
//! (modulo the session-specific `seq`/`id`/`session` members) against a
//! sequential single-connection baseline of the same script.
//!
//! The script is windowed: each session first solves its own ids
//! sequentially, then runs the same window script three times at widening
//! pipeline windows (2, 4, 8). Within a window every tagged line touches a
//! distinct plan id, so responses are deterministic — pending-producer
//! races are pinned separately in `pipeline.rs`. Across windows the plans
//! evolve (a resize recomputes in window one and fully reuses in window
//! two), so the baseline records each window separately.
//!
//! Everything is deadline-bounded: client reads time out, worker threads
//! report through a channel with a timeout, and the whole soak asserts a
//! wall-clock budget — a wedged session fails fast instead of hanging CI.

use slade_engine::EngineConfig;
use slade_json::{self as json, Json};
use slade_server::{Client, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long any single test step may block before the test fails.
const STEP: Duration = Duration::from_secs(20);
/// Concurrent worker sessions.
const WORKERS: usize = 4;
/// Pipeline window sizes, one soak round per entry.
const WINDOWS: [usize; 3] = [2, 4, 8];

fn start_server() -> (
    SocketAddr,
    slade_server::ShutdownHandle,
    mpsc::Receiver<std::io::Result<()>>,
) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            threads: 3,
            cache_capacity: 64,
            ..EngineConfig::default()
        },
        request_timeout: STEP,
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral loopback port");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    (addr, shutdown, rx)
}

fn connect(addr: SocketAddr) -> Client {
    let client = Client::connect(addr).expect("connecting to the test server");
    client.set_read_timeout(Some(STEP)).unwrap();
    client
}

/// Sequential per-session setup: four plans under the session's own ids.
fn setup_lines(prefix: &str) -> Vec<String> {
    vec![
        format!(r#"{{"op":"solve","id":"{prefix}0","tasks":10,"threshold":0.95}}"#),
        format!(
            r#"{{"op":"solve","id":"{prefix}1","algorithm":"opq-extended","thresholds":[0.95,0.72,0.3,0.11,0.3,0.72]}}"#
        ),
        format!(
            r#"{{"op":"solve","id":"{prefix}2","algorithm":"greedy","tasks":9,"threshold":0.9}}"#
        ),
        format!(r#"{{"op":"solve","id":"{prefix}3","tasks":25,"threshold":0.8}}"#),
    ]
}

/// One pipelined window: every tagged line touches a distinct id, plus
/// id-less solves and a batch riding along, plus lease-move barriers.
fn window_lines(prefix: &str) -> Vec<String> {
    vec![
        format!(r#"{{"op":"resubmit","id":"{prefix}0","delta":{{"resize":40}}}}"#),
        r#"{"tasks":30,"threshold":0.9}"#.to_string(),
        format!(r#"{{"op":"resubmit","id":"{prefix}1","delta":{{"set_thresholds":[[0,0.3]]}}}}"#),
        r#"{"op":"batch","requests":[{"tasks":5,"threshold":0.9},{"algorithm":"greedy","tasks":7,"threshold":0.9}]}"#
            .to_string(),
        // Lease moves are un-pipelinable: the client runs them as barriers,
        // draining the window first — exactly like stats.
        format!(r#"{{"op":"claim","id":"{prefix}0"}}"#),
        format!(r#"{{"op":"resubmit","id":"{prefix}2","delta":{{"resize":18}}}}"#),
        // Appending per-task thresholds to an OpqBased plan is a
        // deterministic error response; errors soak like plans do.
        format!(r#"{{"op":"resubmit","id":"{prefix}3","delta":{{"append":[0.5,0.9]}}}}"#),
        format!(r#"{{"op":"release","id":"{prefix}0"}}"#),
        format!(r#"{{"op":"claim","id":"{prefix}0"}}"#),
        format!(r#"{{"algorithm":"greedy","tasks":11,"threshold":0.85}}"#),
    ]
}

/// Strips the members that legitimately differ between sessions running
/// the same script — the pipelining tag, the session-scoped plan id, and
/// the acting session number — and re-serializes.
fn comparable(line: &str) -> String {
    let value = json::parse(line).expect("responses are valid JSON");
    let Json::Object(members) = value else {
        panic!("response is not an object: {line}");
    };
    Json::Object(
        members
            .into_iter()
            .filter(|(k, _)| k != "seq" && k != "id" && k != "session")
            .collect(),
    )
    .to_string()
}

#[test]
fn soak_pipelined_sessions_match_the_sequential_baseline() {
    let started = Instant::now();
    let (addr, shutdown, done) = start_server();

    // Baseline: one connection runs the whole script sequentially,
    // recording each window's responses separately (plans evolve across
    // windows, deterministically).
    let mut baseline_conn = connect(addr);
    for line in setup_lines("b") {
        let response = baseline_conn.roundtrip(&line).expect("baseline setup");
        assert!(response.contains("\"ok\":true"), "{response}");
    }
    let mut baseline: Vec<Vec<String>> = Vec::new();
    for _ in WINDOWS {
        baseline.push(
            window_lines("b")
                .iter()
                .map(|line| comparable(&baseline_conn.roundtrip(line).expect("baseline window")))
                .collect(),
        );
    }
    let baseline = Arc::new(baseline);

    // Workers: pipelined sessions running the same script under their own
    // id prefixes, all concurrently.
    let (tx, rx) = mpsc::channel();
    for worker in 0..WORKERS {
        let tx = tx.clone();
        let baseline = Arc::clone(&baseline);
        thread::spawn(move || {
            let run = || -> Result<(), String> {
                let prefix = format!("c{worker}-");
                let mut conn = connect(addr);
                for line in setup_lines(&prefix) {
                    let response = conn
                        .roundtrip(&line)
                        .map_err(|e| format!("worker {worker} setup: {e}"))?;
                    if !response.contains("\"ok\":true") {
                        return Err(format!("worker {worker} setup failed: {response}"));
                    }
                }
                for (round, window) in WINDOWS.iter().enumerate() {
                    let lines = window_lines(&prefix);
                    let responses = conn
                        .pipeline(&lines, *window)
                        .map_err(|e| format!("worker {worker} window {window}: {e}"))?;
                    for (i, response) in responses.iter().enumerate() {
                        let got = comparable(response);
                        let want = &baseline[round][i];
                        if got != *want {
                            return Err(format!(
                                "worker {worker} window {window} line {i} diverged:\n  \
                                 got  {got}\n  want {want}"
                            ));
                        }
                    }
                }
                Ok(())
            };
            let _ = tx.send(run());
        });
    }
    drop(tx);
    for _ in 0..WORKERS {
        rx.recv_timeout(STEP * 3)
            .expect("every worker must finish within the deadline")
            .unwrap_or_else(|e| panic!("{e}"));
    }

    shutdown.shutdown();
    done.recv_timeout(STEP)
        .expect("server must shut down within the deadline")
        .expect("server run() must exit cleanly");
    // The whole soak is budgeted: a scheduler regression that serializes
    // sessions or wedges parking shows up as a blown deadline, not a hang.
    assert!(
        started.elapsed() < STEP * 6,
        "soak exceeded its wall-clock budget: {:?}",
        started.elapsed()
    );
}
