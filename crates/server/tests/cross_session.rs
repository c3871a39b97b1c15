//! End-to-end tests of the cross-session plan store (DESIGN seam #12)
//! over real loopback sockets:
//!
//! 1. **cross-session resubmit** — a plan produced on connection A,
//!    released, claimed by connection B, and resubmitted there returns a
//!    plan **byte-identical** to a cold in-process solve of the final
//!    workload;
//! 2. **structured conflicts** — touching a plan leased by another session
//!    is a `lease_conflict`, touching one whose producer is still in
//!    flight (on *another* connection) is a `pending_producer`, and both
//!    carry machine-readable `code` members, never races;
//! 3. **session teardown** — dropping a connection releases its leases
//!    (the plans survive), so another session can claim its ids.
//!
//! Fault injection reuses the pipeline suite's middleware: a sentinel
//! request (`greedy` with exactly 13 tasks) is wrapped with a slow solver.

use slade_core::bin_set::BinSet;
use slade_core::plan::DecompositionPlan;
use slade_core::solver::{Algorithm, PreparedSolver};
use slade_core::task::Workload;
use slade_core::SladeError;
use slade_engine::{Engine, EngineConfig, EngineRequest};
use slade_json::{self as json, Json};
use slade_server::{protocol, Client, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long any single test step may block before the test fails.
const STEP: Duration = Duration::from_secs(20);

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

fn slow_sentinel_middleware(delay: Duration) -> slade_server::RequestMiddleware {
    Arc::new(move |request: EngineRequest| {
        if request.algorithm == Algorithm::Greedy && request.workload.len() == 13 {
            request.with_solver(Arc::new(SlowSolver { delay }))
        } else {
            request
        }
    })
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

fn connect(addr: SocketAddr) -> Client {
    let client = Client::connect(addr).expect("connecting to the test server");
    client.set_read_timeout(Some(STEP)).unwrap();
    client
}

fn ok_roundtrip(client: &mut Client, line: &str) -> Json {
    let response = client.roundtrip(line).expect("protocol round trip");
    let value = json::parse(&response).expect("responses are valid JSON");
    assert_eq!(
        value.get("ok"),
        Some(&Json::Bool(true)),
        "expected success for {line}, got {response}"
    );
    value
}

/// Asserts an `ok:false` response carrying the given `code`, returning the
/// `error` message.
fn expect_code(client: &mut Client, line: &str, code: &str) -> String {
    let response = client.roundtrip(line).expect("protocol round trip");
    let value = json::parse(&response).expect("errors are valid JSON");
    assert_eq!(value.get("ok"), Some(&Json::Bool(false)), "{response}");
    assert_eq!(
        value.get("code").and_then(Json::as_str),
        Some(code),
        "expected code `{code}`: {response}"
    );
    value
        .get("error")
        .and_then(Json::as_str)
        .expect("coded errors carry a message")
        .to_string()
}

fn expect_clean_exit(done: &mpsc::Receiver<std::io::Result<()>>) {
    done.recv_timeout(STEP)
        .expect("server must shut down within the deadline")
        .expect("server run() must exit cleanly");
}

#[test]
fn released_plan_resubmitted_from_another_session_equals_cold_solve() {
    let (addr, shutdown, done) = start_server(test_config());
    let mut alice = connect(addr);
    let mut bob = connect(addr);

    // Alice produces the plan; the id now lives in the server-wide store,
    // leased to her.
    ok_roundtrip(
        &mut alice,
        concat!(
            r#"{"op":"solve","id":"w","algorithm":"opq-extended","#,
            r#""thresholds":[0.95,0.95,0.72,0.72,0.3,0.3,0.11,0.11]}"#
        ),
    );
    // Explicit hand-over: Alice releases, Bob claims. Both report the
    // acting session so a client can log who holds what.
    let released = ok_roundtrip(&mut alice, r#"{"op":"release","id":"w"}"#);
    assert_eq!(released.get("op"), Some(&Json::string("release")));
    let claimed = ok_roundtrip(&mut bob, r#"{"op":"claim","id":"w"}"#);
    assert_eq!(claimed.get("id"), Some(&Json::string("w")));
    assert!(claimed.get("session").is_some(), "{claimed}");

    // Bob evolves the plan he never produced.
    let retargeted = ok_roundtrip(
        &mut bob,
        r#"{"op":"resubmit","id":"w","delta":{"set_thresholds":[[6,0.3]]},"plan":true}"#,
    );
    assert!(
        retargeted
            .get("reused_shards")
            .and_then(Json::as_f64)
            .unwrap()
            >= 1.0,
        "cross-session resubmit must reuse Alice's untouched shards: {retargeted}"
    );
    let wire_plan = retargeted.get("plan").expect("plan requested").clone();

    // Byte-identity against a cold in-process solve of the final workload.
    let final_thresholds = vec![0.95, 0.95, 0.72, 0.72, 0.3, 0.3, 0.3, 0.11];
    let engine = Engine::new(test_config().engine);
    let cold = engine
        .solve_resolved(EngineRequest::new(
            Algorithm::OpqExtended,
            Workload::heterogeneous(final_thresholds).unwrap(),
            Arc::new(BinSet::paper_example()),
        ))
        .unwrap();
    let cold_json = protocol::plan_to_json(cold.plan());
    assert_eq!(wire_plan, cold_json);
    assert_eq!(wire_plan.to_string(), cold_json.to_string());

    // And now the lease is Bob's: Alice gets the conflict.
    expect_code(
        &mut alice,
        r#"{"op":"resubmit","id":"w","delta":{"resize":9}}"#,
        "lease_conflict",
    );

    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn lease_and_pending_conflicts_are_coded_errors_across_sessions() {
    let mut config = test_config();
    config.request_middleware = Some(slow_sentinel_middleware(Duration::from_secs(2)));
    let (addr, shutdown, done) = start_server(config);
    let mut alice = connect(addr);
    let mut bob = connect(addr);

    ok_roundtrip(&mut alice, r#"{"op":"solve","id":"w","tasks":10}"#);

    // Every verb that would move or evolve Alice's id from Bob's session is
    // the same typed conflict.
    for line in [
        r#"{"op":"resubmit","id":"w","delta":{"resize":20}}"#,
        r#"{"op":"claim","id":"w"}"#,
        r#"{"op":"release","id":"w"}"#,
    ] {
        let message = expect_code(&mut bob, line, "lease_conflict");
        assert!(
            message.contains("is leased by session"),
            "{line}: {message}"
        );
    }
    // Unknown ids name themselves and the store's population.
    let message = expect_code(&mut bob, r#"{"op":"claim","id":"ghost"}"#, "unknown_plan");
    assert!(message.contains("unknown plan id `ghost`"), "{message}");

    // Lease moves are idempotent for their holder: claiming a held id and
    // releasing an unleased one both succeed.
    ok_roundtrip(&mut alice, r#"{"op":"claim","id":"w"}"#);
    ok_roundtrip(&mut alice, r#"{"op":"release","id":"w"}"#);
    ok_roundtrip(&mut alice, r#"{"op":"release","id":"w"}"#);
    ok_roundtrip(&mut alice, r#"{"op":"claim","id":"w"}"#);

    // A producer still in flight on Alice's connection: Bob's touch is a
    // `pending_producer` naming her session, not a race. The sentinel
    // (greedy, 13 tasks) is slowed 2 s by the middleware; Alice pipelines
    // it so the test can talk to Bob while it runs.
    alice
        .send_line(r#"{"algorithm":"greedy","tasks":13,"id":"p","seq":"slow-1"}"#)
        .expect("sending the pipelined slow solve");
    // Give the server a beat to admit the request and mark the id pending.
    let deadline = Instant::now() + STEP;
    loop {
        let response = bob
            .roundtrip(r#"{"op":"resubmit","id":"p","delta":{"resize":20}}"#)
            .expect("bob's probe");
        if response.contains("\"code\":\"pending_producer\"") {
            assert!(
                response.contains("is still being produced by session"),
                "{response}"
            );
            break;
        }
        // Not admitted yet: the only acceptable other answer is unknown.
        assert!(response.contains("\"code\":\"unknown_plan\""), "{response}");
        assert!(Instant::now() < deadline, "pending state never observed");
        thread::yield_now();
    }
    let message = expect_code(&mut bob, r#"{"op":"claim","id":"p"}"#, "pending_producer");
    assert!(message.contains("by session"), "{message}");

    // Alice's slow solve lands fine; the id is hers afterwards.
    let response = alice.recv_line().expect("the slow solve completes");
    assert!(response.contains("\"ok\":true"), "{response}");
    ok_roundtrip(
        &mut alice,
        r#"{"op":"resubmit","id":"p","delta":{"resize":26}}"#,
    );

    shutdown.shutdown();
    expect_clean_exit(&done);
}

#[test]
fn dropping_a_session_releases_its_leases_but_keeps_its_plans() {
    let (addr, shutdown, done) = start_server(test_config());
    let mut alice = connect(addr);
    ok_roundtrip(&mut alice, r#"{"op":"solve","id":"w","tasks":12}"#);
    drop(alice);

    // The disconnect races the store cleanup; retry until the lease frees.
    let mut bob = connect(addr);
    let deadline = Instant::now() + STEP;
    loop {
        let response = bob
            .roundtrip(r#"{"op":"claim","id":"w"}"#)
            .expect("bob's claim");
        if response.contains("\"ok\":true") {
            break;
        }
        assert!(
            response.contains("\"code\":\"lease_conflict\""),
            "{response}"
        );
        assert!(Instant::now() < deadline, "alice's lease never released");
        thread::sleep(Duration::from_millis(10));
    }
    // The plan itself survived its producing connection.
    let grown = ok_roundtrip(
        &mut bob,
        r#"{"op":"resubmit","id":"w","delta":{"resize":30}}"#,
    );
    assert_eq!(grown.get("tasks").and_then(Json::as_f64), Some(30.0));

    // Stats agree: one plan retained, one lease (Bob's).
    let stats = ok_roundtrip(&mut bob, r#"{"op":"stats"}"#);
    assert_eq!(stats.get("plans").and_then(Json::as_f64), Some(1.0));
    assert_eq!(stats.get("leases").and_then(Json::as_f64), Some(1.0));

    shutdown.shutdown();
    expect_clean_exit(&done);
}
