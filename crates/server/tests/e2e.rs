//! End-to-end tests over a real loopback socket, pinning the server's two
//! core contracts:
//!
//! 1. a session's over-the-wire `solve → resubmit → resubmit` chain
//!    returns a plan **byte-identical** to a cold in-process solve of the
//!    final workload;
//! 2. malformed requests get structured error responses and never cost
//!    the connection.
//!
//! Every blocking step is bounded — client reads carry timeouts and the
//! server thread is joined through `recv_timeout` — so a hung accept loop
//! or a wedged session fails the test instead of stalling it.

use slade_core::prelude::*;
use slade_engine::{Engine, EngineConfig, EngineRequest};
use slade_json::Json;
use slade_server::{protocol, Client, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How long any single test step may block before the test fails.
const STEP: Duration = Duration::from_secs(20);

fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: 3,
        cache_capacity: 32,
        ..EngineConfig::default()
    }
}

/// Starts a server on an ephemeral port; returns its address, a shutdown
/// handle, and the channel `run()`'s result lands on.
fn start_server() -> (
    SocketAddr,
    slade_server::ShutdownHandle,
    mpsc::Receiver<std::io::Result<()>>,
) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: engine_config(),
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

/// Sends `line`, expects an `ok: true` response, and returns it parsed.
fn ok_roundtrip(client: &mut Client, line: &str) -> Json {
    let response = client.roundtrip(line).expect("protocol round trip");
    let value = slade_json::parse(&response).expect("responses are valid JSON");
    assert_eq!(
        value.get("ok"),
        Some(&Json::Bool(true)),
        "expected success for {line}, got {response}"
    );
    value
}

fn field_f64(value: &Json, key: &str) -> f64 {
    value
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric `{key}` in {value}"))
}

/// Joins the server thread with a deadline and asserts a clean exit.
fn expect_clean_exit(done: &mpsc::Receiver<std::io::Result<()>>) {
    done.recv_timeout(STEP)
        .expect("server must shut down within the deadline")
        .expect("server run() must exit cleanly");
}

#[test]
fn wire_resubmit_chain_is_byte_identical_to_cold_solve_of_final_workload() {
    let (addr, _shutdown, done) = start_server();
    let mut client = connect(addr);

    // Four well-separated threshold levels (same shape the engine's own
    // reuse tests pin): θ_max stays put across the deltas below, so
    // untouched buckets must be reused rather than recomputed.
    let solve = ok_roundtrip(
        &mut client,
        concat!(
            r#"{"op":"solve","id":"w","algorithm":"opq-extended","#,
            r#""thresholds":[0.95,0.95,0.72,0.72,0.3,0.3,0.11,0.11]}"#
        ),
    );
    assert_eq!(field_f64(&solve, "tasks"), 8.0);
    assert_eq!(field_f64(&solve, "reused_shards"), 0.0);
    assert!(field_f64(&solve, "shards") >= 3.0, "{solve}");

    // Grow one bucket in place; the others ride along untouched.
    let appended = ok_roundtrip(
        &mut client,
        r#"{"op":"resubmit","id":"w","delta":{"append":[0.3]}}"#,
    );
    assert_eq!(field_f64(&appended, "tasks"), 9.0);
    assert!(
        field_f64(&appended, "reused_shards") >= 1.0,
        "append must reuse untouched buckets over the wire: {appended}"
    );

    // Move a task between the two bottom buckets and fetch the full plan.
    let retargeted = ok_roundtrip(
        &mut client,
        r#"{"op":"resubmit","id":"w","delta":{"set_thresholds":[[6,0.3]]},"plan":true}"#,
    );
    assert!(
        field_f64(&retargeted, "reused_shards") >= 1.0,
        "{retargeted}"
    );
    let wire_plan = retargeted.get("plan").expect("plan requested").clone();

    // Cold in-process solve of the final workload on a fresh engine.
    let final_thresholds = vec![0.95, 0.95, 0.72, 0.72, 0.3, 0.3, 0.3, 0.11, 0.3];
    let engine = Engine::new(engine_config());
    let cold = engine
        .solve_resolved(EngineRequest::new(
            Algorithm::OpqExtended,
            Workload::heterogeneous(final_thresholds).unwrap(),
            Arc::new(BinSet::paper_example()),
        ))
        .unwrap();
    let cold_json = protocol::plan_to_json(cold.plan());

    // Identical as JSON values AND as serialized bytes: the wire format
    // round-trips floats exactly, so this is the full byte-identity pin.
    assert_eq!(wire_plan, cold_json);
    assert_eq!(wire_plan.to_string(), cold_json.to_string());

    ok_roundtrip(&mut client, r#"{"op":"shutdown"}"#);
    expect_clean_exit(&done);
}

#[test]
fn malformed_requests_get_structured_errors_and_the_connection_survives() {
    let (addr, shutdown, done) = start_server();
    let mut client = connect(addr);

    let cases = [
        ("{not json", "invalid JSON"),
        (r#"{"op":"frobnicate"}"#, "unknown op `frobnicate`"),
        (r#"{"op":"solve","frob":1}"#, "unknown field `frob`"),
        (
            r#"{"op":"resubmit","id":"ghost","delta":{"resize":10}}"#,
            "unknown plan id `ghost`",
        ),
        // Well-formed but unsolvable: OPQ-Based rejects heterogeneous
        // workloads; the solver error comes back structured too.
        (r#"{"thresholds":[0.5,0.9]}"#, "homogeneous"),
    ];
    for (line, needle) in cases {
        let response = client.roundtrip(line).expect("connection must survive");
        let value = slade_json::parse(&response).expect("errors are valid JSON");
        assert_eq!(value.get("ok"), Some(&Json::Bool(false)), "{response}");
        let error = value.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(needle), "{line} → {error}");
    }

    // After all that abuse the same connection still solves.
    let solved = ok_roundtrip(&mut client, "{}");
    assert_eq!(field_f64(&solved, "tasks"), 4.0);
    assert_eq!(solved.get("feasible"), Some(&Json::Bool(true)), "{solved}");

    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn batch_and_stats_verbs_work_over_the_wire() {
    let (addr, shutdown, done) = start_server();
    let mut client = connect(addr);

    let batch = ok_roundtrip(
        &mut client,
        concat!(
            r#"{"op":"batch","requests":[{"tasks":30,"threshold":0.95},"#,
            r#"{"algorithm":"greedy","tasks":7,"threshold":0.9},"#,
            r#"{"tasks":30,"threshold":0.95}]}"#
        ),
    );
    let results = batch.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), 3);
    for (i, result) in results.iter().enumerate() {
        assert_eq!(field_f64(result, "request") as usize, i);
        assert_eq!(result.get("feasible"), Some(&Json::Bool(true)), "{result}");
    }
    // A sequential replay of request 0's fingerprint after the batch has
    // fully drained must hit the artifact cache (batch-internal repeats
    // may legitimately race the same cold key instead).
    ok_roundtrip(&mut client, r#"{"tasks":30,"threshold":0.95}"#);
    let stats = ok_roundtrip(&mut client, r#"{"op":"stats"}"#);
    let cache = stats.get("cache").unwrap();
    assert!(field_f64(cache, "hits") >= 1.0, "{stats}");
    let ops = stats.get("ops").unwrap();
    assert_eq!(field_f64(ops, "batch"), 1.0);
    assert_eq!(field_f64(ops, "solve"), 1.0);
    assert_eq!(field_f64(ops, "stats"), 1.0, "stats counts itself");
    let algorithms = stats.get("algorithms").unwrap();
    assert_eq!(field_f64(algorithms, "opq-based"), 3.0);
    assert_eq!(field_f64(algorithms, "greedy"), 1.0);

    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn plan_ids_are_shared_but_leased_to_their_producing_session() {
    let (addr, shutdown, done) = start_server();
    let mut alice = connect(addr);
    let mut bob = connect(addr);

    ok_roundtrip(&mut alice, r#"{"op":"solve","id":"w","tasks":10}"#);
    // The plan lives in the server-wide store, but producing it leased the
    // id to Alice: Bob's resubmit is a structured lease conflict, never a
    // race on Alice's retained state.
    let response = bob
        .roundtrip(r#"{"op":"resubmit","id":"w","delta":{"resize":20}}"#)
        .unwrap();
    assert!(
        response.contains("\"ok\":false")
            && response.contains("\"code\":\"lease_conflict\"")
            && response.contains("is leased by session"),
        "{response}"
    );
    // Alice still can.
    let grown = ok_roundtrip(
        &mut alice,
        r#"{"op":"resubmit","id":"w","delta":{"resize":20}}"#,
    );
    assert_eq!(field_f64(&grown, "tasks"), 20.0);

    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn shutdown_handle_unblocks_an_idle_accept_loop() {
    let (_addr, shutdown, done) = start_server();
    // No client ever connects; the handle alone must stop the server.
    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn in_band_shutdown_drains_other_connected_sessions() {
    let (addr, _shutdown, done) = start_server();
    let mut worker = connect(addr);
    ok_roundtrip(&mut worker, r#"{"op":"solve","id":"w","tasks":50}"#);

    let mut admin = connect(addr);
    ok_roundtrip(&mut admin, r#"{"op":"shutdown"}"#);
    expect_clean_exit(&done);
}
