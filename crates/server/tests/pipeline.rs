//! End-to-end tests of session pipelining (DESIGN seam #11) over real
//! loopback sockets, pinning the contracts of the session's writer — its
//! one completion site:
//!
//! 1. **byte determinism** — every tagged response, with its echoed `seq`
//!    member stripped, is byte-identical to the same request's sequential
//!    (untagged) response, regardless of completion order, window size, or
//!    how the tags are shuffled;
//! 2. **out-of-order completion** — a slow request does not block the
//!    responses of fast requests pipelined behind it;
//! 3. **no wedging** — a slow (fault-injected) solver costs at most its
//!    deadline: the session keeps serving, concurrently and afterwards;
//! 4. **ordering hazards** — `resubmit` against a plan id whose producing
//!    `seq` has not completed is a structured error (not a race), `stats`
//!    rejects `seq` and answers in stream position, and `shutdown` drains
//!    every tagged in-flight request before acking and closing;
//! 5. **bounded backlog** — a client that never reads stalls its own
//!    session's completions, so admitted work stops at the in-flight cap
//!    instead of piling up answers in memory.
//!
//! Fault injection goes through [`ServerConfig::request_middleware`]: a
//! sentinel request (`greedy` with exactly 13 tasks) is wrapped with a
//! deliberately slow solver override.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slade_core::bin_set::BinSet;
use slade_core::plan::DecompositionPlan;
use slade_core::solver::PreparedSolver;
use slade_core::task::Workload;
use slade_core::SladeError;
use slade_engine::EngineConfig;
use slade_json::{self as json, Json};
use slade_server::{Client, Server, ServerConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long any single test step may block before the test fails.
const STEP: Duration = Duration::from_secs(20);

/// A solver that sleeps before delegating to the greedy — the
/// fault-injection vehicle for the slow-request tests.
#[derive(Debug)]
struct SlowSolver {
    delay: Duration,
}

impl PreparedSolver for SlowSolver {
    fn name(&self) -> &'static str {
        "SlowGreedy"
    }

    fn solve(&self, workload: &Workload, bins: &BinSet) -> Result<DecompositionPlan, SladeError> {
        thread::sleep(self.delay);
        slade_core::greedy::Greedy.solve(workload, bins)
    }
}

/// Middleware slowing every greedy request of exactly `tasks` tasks by the
/// paired delay.
fn slow_by_size_middleware(delays: Vec<(u32, Duration)>) -> slade_server::RequestMiddleware {
    Arc::new(move |request: slade_engine::EngineRequest| {
        let delay = delays
            .iter()
            .find(|(tasks, _)| *tasks == request.workload.len())
            .map(|&(_, delay)| delay);
        match delay {
            Some(delay) if request.algorithm == slade_core::solver::Algorithm::Greedy => {
                request.with_solver(Arc::new(SlowSolver { delay }))
            }
            _ => request,
        }
    })
}

/// Middleware wrapping the sentinel request (greedy, exactly 13 tasks)
/// with a [`SlowSolver`] of the given delay.
fn slow_sentinel_middleware(delay: Duration) -> slade_server::RequestMiddleware {
    slow_by_size_middleware(vec![(13, delay)])
}

/// The sentinel request line the middleware slows down.
fn slow_line(seq: &str) -> String {
    format!(r#"{{"algorithm":"greedy","tasks":13,"seq":"{seq}"}}"#)
}

fn start_server(
    config: ServerConfig,
) -> (
    SocketAddr,
    slade_server::ShutdownHandle,
    mpsc::Receiver<std::io::Result<()>>,
) {
    let server = Server::bind(config).expect("binding an ephemeral loopback port");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    (addr, shutdown, rx)
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            threads: 3,
            cache_capacity: 32,
            ..EngineConfig::default()
        },
        request_timeout: STEP,
        ..ServerConfig::default()
    }
}

fn connect(addr: SocketAddr) -> Client {
    let client = Client::connect(addr).expect("connecting to the test server");
    client.set_read_timeout(Some(STEP)).unwrap();
    client
}

/// Parses a response line and removes the echoed `seq` member, returning
/// the re-serialized bytes — what the same request's untagged response
/// must equal, byte for byte.
fn strip_seq(line: &str) -> String {
    let value = json::parse(line).expect("responses are valid JSON");
    let Json::Object(members) = value else {
        panic!("response is not an object: {line}");
    };
    Json::Object(members.into_iter().filter(|(k, _)| k != "seq").collect()).to_string()
}

/// The echoed `seq` of a response line, serialized.
fn seq_of(line: &str) -> String {
    json::parse(line)
        .expect("responses are valid JSON")
        .get("seq")
        .unwrap_or_else(|| panic!("response without seq: {line}"))
        .to_string()
}

fn expect_clean_exit(done: &mpsc::Receiver<std::io::Result<()>>) {
    done.recv_timeout(STEP)
        .expect("server must shut down within the deadline")
        .expect("server run() must exit cleanly");
}

/// A mixed bag of pipelinable request lines (no ids — stateless, so their
/// responses are position-independent).
fn mixed_solve_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for n in [1u32, 4, 17, 40] {
        lines.push(format!(r#"{{"tasks":{n},"threshold":0.95}}"#));
    }
    lines.push(r#"{"algorithm":"greedy","tasks":9,"threshold":0.9}"#.to_string());
    lines.push(r#"{"algorithm":"opq-extended","thresholds":[0.95,0.72,0.3,0.11]}"#.to_string());
    lines.push(r#"{"algorithm":"baseline","tasks":25,"threshold":0.9,"seed":11}"#.to_string());
    lines.push(r#"{"algorithm":"opq-extended","tasks":30,"threshold":0.99}"#.to_string());
    lines.push(
        r#"{"op":"batch","requests":[{"tasks":6},{"algorithm":"greedy","tasks":3}]}"#.to_string(),
    );
    lines.push(r#"{"tasks":17,"threshold":0.95,"plan":true}"#.to_string());
    lines
}

#[test]
fn pipelined_responses_are_byte_identical_to_sequential_ones() {
    let (addr, shutdown, done) = start_server(test_config());
    let lines = mixed_solve_lines();

    // Sequential baseline on one connection.
    let mut sequential = connect(addr);
    let baseline: Vec<String> = lines
        .iter()
        .map(|line| sequential.roundtrip(line).expect("sequential round trip"))
        .collect();

    // The same lines pipelined on a fresh connection, in a seeded shuffle,
    // across several window sizes.
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for window in [2usize, 8, 64] {
        let mut order: Vec<usize> = (0..lines.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }
        let shuffled: Vec<&str> = order.iter().map(|&i| lines[i].as_str()).collect();
        let mut pipelined = connect(addr);
        let responses = pipelined
            .pipeline(&shuffled, window)
            .expect("pipelined round trips");
        for (slot, &orig) in order.iter().enumerate() {
            assert_eq!(
                strip_seq(&responses[slot]),
                baseline[orig],
                "window {window}: response {slot} (request {orig}) diverged"
            );
        }
    }

    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn server_rejected_tagged_lines_become_per_slot_errors_not_aborts() {
    let (addr, shutdown, done) = start_server(test_config());
    let mut client = connect(addr);

    // Line 1 is JSON-valid (so the client tags and streams it) but the
    // server rejects its engine fields; the structured error must land in
    // its slot — with the echoed tag — while the rest of the window
    // completes normally.
    let lines = [
        r#"{"tasks":4,"threshold":0.95}"#,
        r#"{"algorithm":"frobnicate","tasks":4}"#,
        r#"{"tasks":4,"frob":1}"#,
        r#"{"tasks":7,"threshold":0.9}"#,
    ];
    let responses = client.pipeline(&lines, 4).expect("pipeline must not abort");
    assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
    assert!(
        responses[1].contains("\"ok\":false")
            && responses[1].contains("\"seq\":1")
            && responses[1].contains("unknown algorithm"),
        "{}",
        responses[1]
    );
    assert!(
        responses[2].contains("\"ok\":false")
            && responses[2].contains("\"seq\":2")
            && responses[2].contains("unknown field `frob`"),
        "{}",
        responses[2]
    );
    assert!(
        responses[3].contains("\"ok\":true") && responses[3].contains("\"tasks\":7"),
        "{}",
        responses[3]
    );

    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn concurrency_soak_many_connections_interleaving_solves_and_resubmits() {
    let (addr, shutdown, done) = start_server(test_config());

    // Per-connection script: retain PLANS ids untagged, then resubmit each
    // (tagged, shuffled seqs) interleaved with tagged solves and an
    // untagged stats probe. Plan ids live in the server-wide store now, so
    // every connection prefixes its ids with its own tag — a shared id
    // would be a lease conflict, which cross_session.rs pins separately —
    // and comparisons against the baseline strip the id echo along with
    // the seq. Resubmits still target distinct ids, so each id sees
    // exactly one producer and the responses are order-independent.
    const PLANS: usize = 4;
    const DELTAS: [&str; PLANS] = [
        r#"{"resize":30}"#,
        r#"{"append":[0.5,0.9]}"#,
        r#"{"set_thresholds":[[0,0.6]]}"#,
        r#"{"resize":3}"#,
    ];
    fn resubmit(prefix: &str, j: usize, seq: &str) -> String {
        format!(
            r#"{{"op":"resubmit","id":"{prefix}{j}","delta":{},"seq":"{seq}"}}"#,
            DELTAS[j]
        )
    }
    fn setup_lines(prefix: &str) -> Vec<String> {
        (0..PLANS)
            .map(|j| {
                format!(
                    r#"{{"op":"solve","id":"{prefix}{j}","tasks":{},"threshold":0.95}}"#,
                    10 + j
                )
            })
            .collect()
    }
    /// Strips the echoed `seq` and the connection-specific `id` before a
    /// cross-connection comparison.
    fn comparable(line: &str) -> String {
        let value = json::parse(line).expect("responses are valid JSON");
        let Json::Object(members) = value else {
            panic!("response is not an object: {line}");
        };
        Json::Object(
            members
                .into_iter()
                .filter(|(k, _)| k != "seq" && k != "id")
                .collect(),
        )
        .to_string()
    }

    // Baseline, untagged, on its own connection (same session shape).
    let mut baseline_conn = connect(addr);
    for line in &setup_lines("b") {
        let response = baseline_conn.roundtrip(line).expect("baseline setup");
        assert!(response.contains("\"ok\":true"), "{response}");
    }
    let mut baseline_resubmits = Vec::new();
    for (j, delta) in DELTAS.iter().enumerate() {
        let line = format!(r#"{{"op":"resubmit","id":"b{j}","delta":{delta}}}"#);
        // Some deltas intentionally produce error responses (appending
        // per-task thresholds to an OpqBased plan); those are part of the
        // baseline too — errors must be as deterministic as plans.
        let response = baseline_conn.roundtrip(&line).expect("baseline resubmit");
        baseline_resubmits.push(comparable(&response));
    }
    let solve_line = r#"{"tasks":21,"threshold":0.9}"#;
    let baseline_solve = comparable(&baseline_conn.roundtrip(solve_line).expect("baseline solve"));

    let workers: Vec<_> = (0..3u64)
        .map(|worker| {
            let baseline_resubmits = baseline_resubmits.clone();
            let baseline_solve = baseline_solve.clone();
            thread::spawn(move || {
                let prefix = format!("c{worker}-");
                let mut client = connect(addr);
                for line in &setup_lines(&prefix) {
                    let response = client.roundtrip(line).expect("soak setup");
                    assert!(response.contains("\"ok\":true"), "{response}");
                }
                // Interleave tagged resubmits and tagged solves with
                // shuffled string seqs; drive the wire manually so the tag
                // values (not just the order) are scrambled.
                let mut rng = StdRng::seed_from_u64(2019 + worker);
                let mut requests: Vec<(String, String)> = Vec::new(); // (seq, expected)
                for (j, expected) in baseline_resubmits.iter().enumerate() {
                    let seq = format!("r{worker}-{j}");
                    requests.push((resubmit(&prefix, j, &seq), expected.clone()));
                }
                for k in 0..PLANS {
                    let seq = format!("s{worker}-{k}");
                    requests.push((
                        format!(r#"{{"tasks":21,"threshold":0.9,"seq":"{seq}"}}"#),
                        baseline_solve.clone(),
                    ));
                }
                for i in (1..requests.len()).rev() {
                    requests.swap(i, rng.random_range(0..i + 1));
                }
                for (line, _) in &requests {
                    client.send_line(line).expect("soak send");
                }
                // An untagged stats at the end of the stream: answered in
                // stream position? No — tagged responses interleave freely;
                // just assert it arrives and is well-formed.
                client.send_line(r#"{"op":"stats"}"#).expect("stats send");
                let mut seen = std::collections::HashMap::new();
                let mut stats_seen = false;
                for _ in 0..=requests.len() {
                    let line = client.recv_line().expect("soak recv");
                    if line.contains("\"op\":\"stats\"") {
                        stats_seen = true;
                        continue;
                    }
                    seen.insert(seq_of(&line), comparable(&line));
                }
                assert!(stats_seen, "stats response must arrive");
                for (line, expected) in &requests {
                    let request = json::parse(line).unwrap();
                    let seq = request.get("seq").unwrap().to_string();
                    let got = seen
                        .get(&seq)
                        .unwrap_or_else(|| panic!("no response for seq {seq}"));
                    assert_eq!(got, expected, "seq {seq} diverged from baseline");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("soak worker must not panic");
    }

    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn fast_requests_overtake_a_slow_one_and_nothing_wedges() {
    let mut config = test_config();
    config.request_middleware = Some(slow_sentinel_middleware(Duration::from_secs(2)));
    let (addr, shutdown, done) = start_server(config);
    let mut client = connect(addr);

    client.send_line(&slow_line("slow")).unwrap();
    for i in 0..3 {
        client
            .send_line(&format!(r#"{{"tasks":4,"seq":"fast{i}"}}"#))
            .unwrap();
    }
    let order: Vec<String> = (0..4)
        .map(|_| seq_of(&client.recv_line().unwrap()))
        .collect();
    assert_eq!(
        order[3], "\"slow\"",
        "the slow request must complete last, after the fast ones overtook it: {order:?}"
    );
    for fast in &order[..3] {
        assert!(fast.starts_with("\"fast"), "{order:?}");
    }

    // The session still serves strict request/response traffic.
    let after = client.roundtrip(r#"{"tasks":4}"#).unwrap();
    assert!(after.contains("\"ok\":true"), "{after}");

    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn a_stuck_solver_costs_its_deadline_not_the_session() {
    let mut config = test_config();
    config.request_timeout = Duration::from_millis(300);
    config.request_middleware = Some(slow_sentinel_middleware(Duration::from_secs(5)));
    let (addr, shutdown, done) = start_server(config);
    let mut client = connect(addr);

    client.send_line(&slow_line("stuck")).unwrap();
    let response = client.recv_line().unwrap();
    assert_eq!(seq_of(&response), "\"stuck\"");
    assert!(
        response.contains("\"ok\":false") && response.contains("did not finish within"),
        "{response}"
    );

    // An untagged stuck solve runs into the same deadline, in line.
    let untagged = client
        .roundtrip(r#"{"algorithm":"greedy","tasks":13}"#)
        .unwrap();
    assert!(
        untagged.contains("\"ok\":false") && untagged.contains("did not finish within"),
        "{untagged}"
    );

    // The deadline freed the in-flight slot and the session keeps serving
    // (the abandoned shard finishes in the pool, invisible here).
    let after = client.roundtrip(r#"{"tasks":4}"#).unwrap();
    assert!(after.contains("\"ok\":true"), "{after}");

    // Both expiries are counted, tagged and untagged alike.
    let stats = json::parse(&client.roundtrip(r#"{"op":"stats"}"#).unwrap()).unwrap();
    let count = |section: &str, key: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
    };
    assert_eq!(count("timeouts", "solve"), Some(2.0), "{stats}");
    assert_eq!(count("ops", "timeouts"), Some(2.0), "{stats}");

    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn resubmit_against_a_pending_producer_is_a_structured_error_not_a_race() {
    let mut config = test_config();
    config.request_middleware = Some(slow_sentinel_middleware(Duration::from_secs(2)));
    let (addr, shutdown, done) = start_server(config);
    let mut client = connect(addr);

    // The slow tagged solve will retain its plan under "w" — eventually.
    client
        .send_line(r#"{"op":"solve","id":"w","algorithm":"greedy","tasks":13,"seq":1}"#)
        .unwrap();
    // Tagged and untagged requests racing the pending id both get
    // structured errors naming the producing seq.
    client
        .send_line(r#"{"op":"resubmit","id":"w","delta":{"resize":20},"seq":2}"#)
        .unwrap();
    let race = client.recv_line().unwrap();
    assert_eq!(
        seq_of(&race),
        "2",
        "the race must be answered first: {race}"
    );
    assert!(
        race.contains("\"ok\":false") && race.contains("still being produced by in-flight seq 1"),
        "{race}"
    );
    let untagged_race = client
        .roundtrip(r#"{"op":"resubmit","id":"w","delta":{"resize":20}}"#)
        .unwrap();
    assert!(
        untagged_race.contains("still being produced by in-flight seq 1"),
        "{untagged_race}"
    );
    let untagged_solve_race = client
        .roundtrip(r#"{"op":"solve","id":"w","tasks":4}"#)
        .unwrap();
    assert!(
        untagged_solve_race.contains("still being produced by in-flight seq 1"),
        "{untagged_solve_race}"
    );

    // Once the producer answers, the id resolves normally.
    let produced = client.recv_line().unwrap();
    assert_eq!(seq_of(&produced), "1");
    assert!(produced.contains("\"ok\":true"), "{produced}");
    let resubmit = client
        .roundtrip(r#"{"op":"resubmit","id":"w","delta":{"resize":20}}"#)
        .unwrap();
    assert!(
        resubmit.contains("\"ok\":true") && resubmit.contains("\"tasks\":20"),
        "{resubmit}"
    );

    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn shutdown_drains_tagged_inflight_work_before_acking_and_closing() {
    let mut config = test_config();
    config.request_middleware = Some(slow_sentinel_middleware(Duration::from_millis(800)));
    let (addr, _shutdown, done) = start_server(config);
    let mut client = connect(addr);

    for i in 0..3 {
        client.send_line(&slow_line(&format!("d{i}"))).unwrap();
    }
    client.send_line(r#"{"op":"shutdown"}"#).unwrap();

    // All three tagged responses arrive (ok, not timeouts), and the
    // shutdown ack comes strictly last.
    let mut seqs = Vec::new();
    for _ in 0..3 {
        let line = client.recv_line().unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        seqs.push(seq_of(&line));
    }
    seqs.sort();
    assert_eq!(seqs, ["\"d0\"", "\"d1\"", "\"d2\""]);
    let ack = client.recv_line().unwrap();
    assert!(
        ack.contains("\"op\":\"shutdown\"") && ack.contains("\"ok\":true"),
        "drained responses must precede the ack: {ack}"
    );
    // Then the connection closes and the server exits.
    assert!(
        client.recv_line().is_err(),
        "connection must close after the ack"
    );
    expect_clean_exit(&done);
}

#[test]
fn inflight_cap_backpressure_and_duplicate_seqs() {
    let mut config = test_config();
    config.max_inflight = 2;
    config.request_middleware = Some(slow_sentinel_middleware(Duration::from_millis(200)));
    let (addr, shutdown, done) = start_server(config);
    let mut client = connect(addr);

    // Six slow tagged requests through a cap of 2: the reader blocks at
    // the cap (TCP backpressure), everything still completes correctly.
    for i in 0..6 {
        client.send_line(&slow_line(&format!("c{i}"))).unwrap();
    }
    let mut seqs: Vec<String> = (0..6)
        .map(|_| {
            let line = client.recv_line().unwrap();
            assert!(line.contains("\"ok\":true"), "{line}");
            seq_of(&line)
        })
        .collect();
    seqs.sort();
    assert_eq!(
        seqs,
        ["\"c0\"", "\"c1\"", "\"c2\"", "\"c3\"", "\"c4\"", "\"c5\""]
    );

    // A duplicate of an in-flight seq is rejected with a structured error.
    client.send_line(&slow_line("dup")).unwrap();
    client.send_line(&slow_line("dup")).unwrap();
    let first = client.recv_line().unwrap();
    let second = client.recv_line().unwrap();
    let (rejected, completed) = if first.contains("\"ok\":false") {
        (first, second)
    } else {
        (second, first)
    };
    assert!(
        rejected.contains("already in flight"),
        "duplicate must be named: {rejected}"
    );
    assert!(completed.contains("\"ok\":true"), "{completed}");

    // The stats verb reports the pipelining counters and rejects seq.
    let stats = client.roundtrip(r#"{"op":"stats"}"#).unwrap();
    let value = json::parse(&stats).unwrap();
    let ops = value.get("ops").unwrap();
    // 6 capped + the first "dup": the rejected duplicate never counts as
    // admitted pipelined work.
    assert_eq!(
        ops.get("pipelined").and_then(Json::as_f64),
        Some(7.0),
        "{stats}"
    );
    assert_eq!(
        value.get("max_inflight").and_then(Json::as_f64),
        Some(2.0),
        "{stats}"
    );
    let tagged_stats = client.roundtrip(r#"{"op":"stats","seq":9}"#).unwrap();
    assert!(
        tagged_stats.contains("\"ok\":false") && tagged_stats.contains("unknown field `seq`"),
        "{tagged_stats}"
    );

    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn tagged_answers_interleave_around_an_untagged_request_in_flight() {
    let mut config = test_config();
    config.request_middleware = Some(slow_by_size_middleware(vec![
        (13, Duration::from_secs(2)),
        (14, Duration::from_millis(300)),
    ]));
    let (addr, shutdown, done) = start_server(config);
    let mut client = connect(addr);

    // The reader waits the slow untagged request out; the tagged one
    // pipelined before it must still be answered as soon as it finishes.
    client
        .send_line(r#"{"algorithm":"greedy","tasks":14,"seq":"t"}"#)
        .unwrap();
    client
        .send_line(r#"{"algorithm":"greedy","tasks":13}"#)
        .unwrap();
    let first = client.recv_line().unwrap();
    assert_eq!(
        seq_of(&first),
        "\"t\"",
        "the tagged answer comes first: {first}"
    );
    assert!(first.contains("\"tasks\":14"), "{first}");
    let second = client.recv_line().unwrap();
    assert!(
        second.contains("\"ok\":true") && second.contains("\"tasks\":13"),
        "{second}"
    );
    assert!(!second.contains("\"seq\""), "{second}");

    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn a_client_that_never_reads_holds_a_bounded_backlog() {
    let mut config = test_config();
    config.max_inflight = 4;
    let (addr, shutdown, done) = start_server(config);

    // 400 tagged requests whose answers run to ~590 KB each, from a client
    // that never reads: the writer stalls once the socket buffers fill,
    // and with it every completion of this session, so the reader stops
    // admitting at the in-flight cap.
    let mut hog = TcpStream::connect(addr).expect("connecting the hog");
    let lines: String = (0..400)
        .map(|i| format!("{{\"tasks\":20000,\"threshold\":0.95,\"plan\":true,\"seq\":{i}}}\n"))
        .collect();
    hog.write_all(lines.as_bytes())
        .expect("writing the hog's requests");
    let written = Instant::now();

    let mut probe = connect(addr);
    let mut pipelined = |at: Duration| {
        thread::sleep(at.saturating_sub(written.elapsed()));
        let stats = json::parse(&probe.roundtrip(r#"{"op":"stats"}"#).unwrap()).unwrap();
        let ops = stats.get("ops").unwrap();
        ops.get("pipelined").and_then(Json::as_f64).unwrap()
    };
    let first = pipelined(Duration::from_secs(2));
    let second = pipelined(Duration::from_secs(3));
    // Both probes fall inside the 10 s write timeout, after which the
    // server would give the stalled connection up.
    assert!(written.elapsed() < Duration::from_secs(10));
    assert_eq!(first, second, "admissions must stop while nobody reads");
    assert!(
        second < 100.0,
        "backlog of {second} requests is not bounded"
    );

    drop(hog);
    shutdown.shutdown();
    expect_clean_exit(&done);
}
