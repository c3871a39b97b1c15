//! End-to-end observability tests over a real loopback socket:
//!
//! 1. the `metrics` snapshot is **self-consistent** after a
//!    multi-connection soak — for every latency-tracked verb, the
//!    histogram's derived count equals the verb's op counter (the one
//!    structural exception: the reporting `metrics` request itself is
//!    still in flight when the snapshot is taken, so its own histogram
//!    trails its op counter by exactly one);
//! 2. a traced, pipelined request's span comes back over the `trace` verb
//!    with monotone stage timestamps, the full queued → … → written
//!    lifecycle, per-shard worker/steal provenance, and a `stolen_shards`
//!    count that agrees with the engine's `steals` counter delta;
//! 3. the windowed metrics demonstrably decay: a burst shows up in the
//!    sliding-window view, and after idling past the window the windowed
//!    counts read zero while the lifetime numbers hold;
//! 4. the `health` verb flips `ok` → `degraded` → `ok` under injected
//!    queue saturation (a condvar-gated solver on a one-worker engine);
//! 5. the HTTP `GET /metrics` responder serves parseable Prometheus text
//!    (every line a `# TYPE` comment or a `name value` sample) and 404s
//!    anything else.
//! 6. `stats` is a projection of `metrics`: at quiescence every number it
//!    reports equals its `metrics` counterpart, and its member names and
//!    order are the historical ones.

use slade_core::bin_set::BinSet;
use slade_core::plan::DecompositionPlan;
use slade_core::solver::{DecompositionSolver, PreparedSolver};
use slade_core::task::Workload;
use slade_core::SladeError;
use slade_engine::EngineConfig;
use slade_json::Json;
use slade_server::{Client, ObsOptions, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// How long any single test step may block before the test fails.
const STEP: Duration = Duration::from_secs(20);

fn start_server_with(
    config: ServerConfig,
) -> (
    SocketAddr,
    Option<SocketAddr>,
    mpsc::Receiver<std::io::Result<()>>,
) {
    let server = Server::bind(config).expect("binding an ephemeral loopback port");
    let addr = server.local_addr();
    let metrics_addr = server.metrics_local_addr();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    (addr, metrics_addr, rx)
}

fn start_server(engine: EngineConfig) -> (SocketAddr, mpsc::Receiver<std::io::Result<()>>) {
    let (addr, _, rx) = start_server_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine,
        request_timeout: STEP,
        ..ServerConfig::default()
    });
    (addr, rx)
}

fn connect(addr: SocketAddr) -> Client {
    let client = Client::connect(addr).expect("connecting to the test server");
    client.set_read_timeout(Some(STEP)).unwrap();
    client
}

fn parse(response: &str) -> Json {
    slade_json::parse(response).expect("responses are valid JSON")
}

fn field_f64(value: &Json, key: &str) -> f64 {
    value
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric `{key}` in {value}"))
}

#[test]
fn metrics_snapshot_is_self_consistent_after_a_multi_connection_soak() {
    let (addr, done) = start_server(EngineConfig {
        threads: 3,
        cache_capacity: 16,
        ..EngineConfig::default()
    });

    // Four concurrent connections, each mixing untagged, tagged, and
    // traced requests, plus store traffic and read-only verbs — every
    // response is consumed, so each client quiesces before it exits.
    let clients: Vec<_> = (0..4)
        .map(|c| {
            thread::spawn(move || {
                let mut client = connect(addr);
                for i in 0..3 {
                    let line = format!("{{\"tasks\":{},\"threshold\":0.9}}", 2 + i);
                    client.roundtrip(&line).expect("untagged solve");
                }
                // A traced solve retained under a per-connection plan id,
                // then an (also traced) resubmit against it.
                let id = format!("plan-{c}");
                client
                    .roundtrip(&format!(
                        "{{\"op\":\"solve\",\"id\":\"{id}\",\"tasks\":4,\"trace\":true}}"
                    ))
                    .expect("traced solve");
                client
                    .roundtrip(&format!(
                        "{{\"op\":\"resubmit\",\"id\":\"{id}\",\"delta\":{{\"resize\":8}},\"trace\":true}}"
                    ))
                    .expect("traced resubmit");
                // Pipelined window (tagged solves answered out of line).
                let lines: Vec<String> = (1..=4)
                    .map(|n| format!("{{\"tasks\":{n},\"threshold\":0.85}}"))
                    .collect();
                client.pipeline(&lines, 4).expect("pipelined solves");
                // Read-only verbs and a deliberate error (unknown plan id).
                client.roundtrip("{\"op\":\"stats\"}").expect("stats");
                client.roundtrip("{\"op\":\"trace\"}").expect("trace");
                client
                    .roundtrip("{\"op\":\"claim\",\"id\":\"nope\"}")
                    .expect("claim error response");
                let batch = "{\"op\":\"batch\",\"requests\":[{\"tasks\":2},{\"tasks\":3}]}";
                client.roundtrip(batch).expect("batch");
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    let mut client = connect(addr);
    // Session teardown is asynchronous (a reader notices EOF on its poll),
    // so wait until the four soak sessions have counted themselves out
    // before pinning the snapshot. Polling is safe for the consistency
    // check below: each poll's sample is recorded before its response is
    // read, so the metrics off-by-one stays exactly one.
    let deadline = std::time::Instant::now() + STEP;
    let metrics = loop {
        let metrics = parse(&client.roundtrip("{\"op\":\"metrics\"}").unwrap());
        let sessions = metrics.get("sessions").expect("sessions section");
        if field_f64(sessions, "active") == 1.0 {
            break metrics;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "soak sessions never drained: {metrics}"
        );
        thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(metrics.get("ok"), Some(&Json::Bool(true)), "{metrics}");
    let ops = metrics.get("ops").expect("metrics carries ops");
    let latency = metrics.get("latency").expect("metrics carries latency");

    // The soak is quiescent: every earlier response was read by its
    // client, and the writer records the latency sample *before* the
    // response bytes go out — so every counted request has its histogram
    // sample. The `metrics` verb reporting this snapshot is the one
    // structural exception: its own sample lands only when its response
    // is written, after the snapshot.
    for verb in [
        "solve", "batch", "resubmit", "claim", "release", "stats", "metrics", "trace",
    ] {
        let counted = field_f64(ops, verb);
        let sampled = field_f64(latency.get(verb).expect(verb), "count");
        let expected = if verb == "metrics" {
            counted - 1.0
        } else {
            counted
        };
        assert_eq!(
            sampled, expected,
            "latency.{verb}.count vs ops.{verb} in {metrics}"
        );
    }
    assert_eq!(
        field_f64(ops, "solve"),
        4.0 * (3.0 + 1.0 + 4.0),
        "{metrics}"
    );
    assert_eq!(
        field_f64(ops, "timeouts"),
        0.0,
        "nothing expired: {metrics}"
    );
    assert_eq!(field_f64(ops, "errors"), 4.0, "one claim error per client");

    // The cache section carries the sharded-cache fields, consistent with
    // each other: occupancy sums over the per-shard array, and the registry
    // gauges the verb mirrors agree with the section. There is one cache
    // implementation, so the section names none.
    let cache = metrics.get("cache").expect("cache section");
    assert!(cache.get("impl").is_none(), "{metrics}");
    assert_eq!(field_f64(cache, "capacity"), 16.0, "{metrics}");
    let per_shard = cache
        .get("shard_occupancy")
        .and_then(Json::as_array)
        .expect("per-shard occupancy array");
    assert_eq!(per_shard.len() as f64, field_f64(cache, "shards"));
    let occupancy_sum: f64 = per_shard.iter().filter_map(Json::as_f64).sum();
    assert_eq!(occupancy_sum, field_f64(cache, "entries"), "{metrics}");
    assert!(
        field_f64(cache, "hits") > 0.0,
        "repeated (bins, θ) pairs must hit: {metrics}"
    );

    // Engine/store/session/trace sections are present and sane.
    let engine = metrics.get("engine").expect("engine section");
    assert_eq!(field_f64(engine, "threads"), 3.0);
    assert!(field_f64(engine, "parks") >= 1.0, "idle workers park");
    let store = metrics.get("store").expect("store section");
    assert_eq!(
        field_f64(store, "plans"),
        4.0,
        "one retained plan per client"
    );
    let sessions = metrics.get("sessions").expect("sessions section");
    assert_eq!(field_f64(sessions, "opened"), 5.0);
    let traces = metrics.get("traces").expect("traces section");
    assert_eq!(field_f64(traces, "recorded"), 8.0, "two traced per client");

    // Latency quantiles come off real samples: p50 ≤ p99 and both > 0
    // for a verb that did work.
    let solve = latency.get("solve").unwrap();
    assert!(field_f64(solve, "p50_ns") > 0.0, "{metrics}");
    assert!(field_f64(solve, "p50_ns") <= field_f64(solve, "p99_ns"));

    client.roundtrip("{\"op\":\"shutdown\"}").unwrap();
    done.recv_timeout(STEP)
        .expect("server must shut down")
        .expect("clean exit");
}

#[test]
fn traced_pipelined_request_reports_its_full_lifecycle_and_steal_provenance() {
    // 64 homogeneous tasks shard into 8 jobs on 2 workers: every job is
    // submitted from the session reader, so workers must pull — and
    // frequently steal — to run them.
    let (addr, done) = start_server(EngineConfig {
        threads: 2,
        homogeneous_shard: Some(8),
        cache_capacity: 16,
        ..EngineConfig::default()
    });
    let mut client = connect(addr);

    let stats_before = parse(&client.roundtrip("{\"op\":\"stats\"}").unwrap());
    let steals_before = field_f64(&stats_before, "steals");

    let response = parse(
        &client
            .roundtrip("{\"op\":\"solve\",\"tasks\":64,\"threshold\":0.9,\"seq\":7,\"trace\":true}")
            .unwrap(),
    );
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
    assert_eq!(field_f64(&response, "seq"), 7.0, "tag echoed");
    let trace_id = field_f64(&response, "trace");
    assert!(trace_id >= 1.0, "a minted trace id is echoed: {response}");

    let stats_after = parse(&client.roundtrip("{\"op\":\"stats\"}").unwrap());
    let steal_delta = field_f64(&stats_after, "steals") - steals_before;

    // The client has read the solve response, so its span is already in
    // the ring (the writer sinks the span before writing the response).
    let traces = parse(&client.roundtrip("{\"op\":\"trace\",\"limit\":1}").unwrap());
    let spans = traces
        .get("spans")
        .and_then(Json::as_array)
        .expect("trace returns spans");
    assert_eq!(spans.len(), 1, "{traces}");
    let span = &spans[0];
    assert_eq!(field_f64(span, "id"), trace_id);
    assert_eq!(span.get("op").and_then(Json::as_str), Some("solve"));
    assert_eq!(span.get("seq").and_then(Json::as_str), Some("7"));

    let events = span.get("events").and_then(Json::as_array).unwrap();
    let stages: Vec<&str> = events
        .iter()
        .map(|e| e.get("stage").and_then(Json::as_str).unwrap())
        .collect();
    // Lifecycle order: the plain stages appear exactly once, in order,
    // with the 8 shard start/finish pairs in between.
    for stage in ["queued", "admitted", "dispatched", "merged", "written"] {
        assert_eq!(
            stages.iter().filter(|s| **s == stage).count(),
            1,
            "stage {stage} in {stages:?}"
        );
    }
    let position = |stage: &str| stages.iter().position(|s| *s == stage).unwrap();
    assert!(position("queued") < position("admitted"));
    assert!(position("admitted") < position("dispatched"));
    assert!(position("dispatched") < position("merged"));
    assert!(position("merged") < position("written"));
    assert_eq!(*stages.last().unwrap(), "written");
    assert_eq!(stages.iter().filter(|s| **s == "shard_start").count(), 8);
    assert_eq!(stages.iter().filter(|s| **s == "shard_finish").count(), 8);

    // Timestamps are monotone across all threads that stamped them.
    let at_ns: Vec<f64> = events.iter().map(|e| field_f64(e, "at_ns")).collect();
    assert!(
        at_ns.windows(2).all(|w| w[0] <= w[1]),
        "stage timestamps must be monotone: {at_ns:?}"
    );

    // Every shard stage carries provenance, and the span's stolen count
    // agrees with both its own events and the engine's steal counter
    // delta (this request was the only work in the pool).
    let stolen_starts = events
        .iter()
        .filter(|e| {
            e.get("stage").and_then(Json::as_str) == Some("shard_start")
                && e.get("stolen") == Some(&Json::Bool(true))
        })
        .count() as f64;
    for event in events
        .iter()
        .filter(|e| e.get("stage").and_then(Json::as_str) == Some("shard_start"))
    {
        assert!(event.get("shard").is_some() && event.get("worker").is_some());
    }
    assert_eq!(field_f64(span, "stolen_shards"), stolen_starts, "{span}");
    assert_eq!(steal_delta, stolen_starts, "span vs engine steal counter");

    client.roundtrip("{\"op\":\"shutdown\"}").unwrap();
    done.recv_timeout(STEP)
        .expect("server must shut down")
        .expect("clean exit");
}

#[test]
fn windowed_metrics_decay_while_lifetime_numbers_hold() {
    // A short 400ms window so the test can outlive it: burst ten solves,
    // see them in the windowed view, idle past the window, see the
    // windowed counts at zero with the lifetime histogram untouched.
    let window = Duration::from_millis(400);
    let (addr, _, done) = start_server_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            threads: 2,
            cache_capacity: 16,
            ..EngineConfig::default()
        },
        request_timeout: STEP,
        obs: ObsOptions {
            window,
            window_slots: 8,
            ..ObsOptions::default()
        },
        ..ServerConfig::default()
    });
    let mut client = connect(addr);
    for i in 0..10u32 {
        let line = format!("{{\"tasks\":{},\"threshold\":0.9}}", 2 + i);
        client.roundtrip(&line).expect("burst solve");
    }

    let metrics = parse(&client.roundtrip("{\"op\":\"metrics\"}").unwrap());
    let latency = metrics.get("latency").expect("latency section");
    let solve = latency.get("solve").expect("solve row");
    assert_eq!(field_f64(solve, "count"), 10.0, "{metrics}");
    // The whole burst just happened; on a grossly overloaded machine the
    // oldest samples may already have aged, but some must be visible.
    assert!(
        field_f64(solve, "window_count") > 0.0,
        "burst must show in the window: {metrics}"
    );
    assert!(field_f64(solve, "window_p50_ns") > 0.0, "{metrics}");
    let window_section = metrics.get("window").expect("window section");
    assert_eq!(
        window_section.get("enabled"),
        Some(&Json::Bool(true)),
        "{metrics}"
    );
    assert!(field_f64(window_section, "requests") > 0.0, "{metrics}");

    // Idle past the window (plus a sub-window of slack for boundary skew).
    thread::sleep(window + Duration::from_millis(200));

    let metrics = parse(&client.roundtrip("{\"op\":\"metrics\"}").unwrap());
    let solve = metrics
        .get("latency")
        .expect("latency section")
        .get("solve")
        .expect("solve row");
    assert_eq!(
        field_f64(solve, "count"),
        10.0,
        "lifetime count holds: {metrics}"
    );
    assert!(
        field_f64(solve, "p50_ns") > 0.0,
        "lifetime quantiles hold: {metrics}"
    );
    assert_eq!(
        field_f64(solve, "window_count"),
        0.0,
        "the burst aged out of the window: {metrics}"
    );
    assert_eq!(
        field_f64(solve, "window_per_sec"),
        0.0,
        "no windowed rate without windowed samples: {metrics}"
    );

    client.roundtrip("{\"op\":\"shutdown\"}").unwrap();
    done.recv_timeout(STEP)
        .expect("server must shut down")
        .expect("clean exit");
}

/// A solver that parks on a test-controlled gate: it announces it started,
/// then blocks until the test releases it — the vehicle for holding the
/// engine's one worker busy while a second request saturates the queue.
#[derive(Debug)]
struct GatedSolver {
    gate: Arc<(Mutex<(usize, bool)>, Condvar)>,
}

impl DecompositionSolver for GatedSolver {
    fn name(&self) -> &'static str {
        "GatedGreedy"
    }

    fn solve(&self, workload: &Workload, bins: &BinSet) -> Result<DecompositionPlan, SladeError> {
        let (lock, condvar) = &*self.gate;
        let mut state = lock.lock().unwrap();
        state.0 += 1;
        condvar.notify_all();
        while !state.1 {
            state = condvar.wait(state).unwrap();
        }
        drop(state);
        slade_core::greedy::Greedy.solve(workload, bins)
    }
}

impl PreparedSolver for GatedSolver {}

#[test]
fn health_flips_to_degraded_under_queue_saturation_and_recovers() {
    // One worker, queue capacity 2: one gated solve occupies the worker,
    // a second waits in the queue — depth 1 of capacity 2 is exactly the
    // 0.5 degraded threshold. Releasing the gate drains the queue and
    // health returns to ok.
    let gate: Arc<(Mutex<(usize, bool)>, Condvar)> =
        Arc::new((Mutex::new((0, false)), Condvar::new()));
    let middleware_gate = Arc::clone(&gate);
    let (addr, _, done) = start_server_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            threads: 1,
            queue_capacity: 2,
            cache_capacity: 16,
            ..EngineConfig::default()
        },
        request_timeout: STEP,
        request_middleware: Some(Arc::new(move |request: slade_engine::EngineRequest| {
            if request.algorithm == slade_core::solver::Algorithm::Greedy
                && request.workload.len() == 13
            {
                request.with_solver(Arc::new(GatedSolver {
                    gate: Arc::clone(&middleware_gate),
                }))
            } else {
                request
            }
        })),
        ..ServerConfig::default()
    });

    let mut watcher = connect(addr);
    let health = parse(&watcher.roundtrip("{\"op\":\"health\"}").unwrap());
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)), "{health}");
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("ok"),
        "an idle server is ready: {health}"
    );

    // Two gated solves pipelined on their own connection (the client tags
    // them with seq itself — a pre-tagged line would be a pipeline
    // barrier): the first parks in the solver, the second sits in the
    // engine queue.
    let solver_thread = thread::spawn(move || {
        let mut client = connect(addr);
        let lines = [
            r#"{"algorithm":"greedy","tasks":13}"#,
            r#"{"algorithm":"greedy","tasks":13}"#,
        ];
        client.pipeline(&lines, 2).expect("gated solves")
    });
    // Wait until the first solve actually occupies the worker.
    {
        let (lock, condvar) = &*gate;
        let state = lock.lock().unwrap();
        let (state, timeout) = condvar
            .wait_timeout_while(state, STEP, |(started, _)| *started == 0)
            .unwrap();
        assert!(!timeout.timed_out(), "gated solver never started");
        drop(state);
    }

    // The queued second request pushes saturation to 0.5: degraded, with
    // the queue signal named in the reasons.
    let deadline = std::time::Instant::now() + STEP;
    let degraded = loop {
        let health = parse(&watcher.roundtrip("{\"op\":\"health\"}").unwrap());
        if health.get("status").and_then(Json::as_str) == Some("degraded") {
            break health;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "health never degraded: {health}"
        );
        thread::sleep(Duration::from_millis(10));
    };
    let queue = degraded
        .get("signals")
        .and_then(|s| s.get("queue"))
        .expect("queue signal");
    assert_eq!(
        queue.get("status").and_then(Json::as_str),
        Some("degraded"),
        "{degraded}"
    );
    assert_eq!(field_f64(queue, "depth"), 1.0, "{degraded}");
    assert_eq!(field_f64(queue, "capacity"), 2.0, "{degraded}");
    let reasons = degraded
        .get("reasons")
        .and_then(Json::as_array)
        .expect("reasons array");
    assert!(
        reasons
            .iter()
            .filter_map(Json::as_str)
            .any(|r| r.contains("queue saturation")),
        "{degraded}"
    );

    // Release the gate: both solves complete and health recovers.
    {
        let (lock, condvar) = &*gate;
        lock.lock().unwrap().1 = true;
        condvar.notify_all();
    }
    let responses = solver_thread.join().expect("solver client thread");
    assert_eq!(responses.len(), 2);
    for response in &responses {
        assert!(response.contains("\"ok\":true"), "{response}");
    }

    let deadline = std::time::Instant::now() + STEP;
    loop {
        let health = parse(&watcher.roundtrip("{\"op\":\"health\"}").unwrap());
        if health.get("status").and_then(Json::as_str) == Some("ok") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "health never recovered: {health}"
        );
        thread::sleep(Duration::from_millis(10));
    }

    watcher.roundtrip("{\"op\":\"shutdown\"}").unwrap();
    done.recv_timeout(STEP)
        .expect("server must shut down")
        .expect("clean exit");
}

/// One raw HTTP GET against the metrics responder; returns (status line,
/// headers, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connecting to the metrics listener");
    stream.set_read_timeout(Some(STEP)).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("writing the request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("reading the response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

#[test]
fn prometheus_exposition_serves_parseable_text_over_http() {
    let (addr, metrics_addr, done) = start_server_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            threads: 2,
            cache_capacity: 16,
            ..EngineConfig::default()
        },
        request_timeout: STEP,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    });
    let metrics_addr = metrics_addr.expect("a metrics listener must bind when configured");

    let mut client = connect(addr);
    client
        .roundtrip("{\"tasks\":4,\"threshold\":0.95}")
        .expect("solve");

    let (status, headers, body) = http_get(metrics_addr, "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(
        headers.contains("text/plain; version=0.0.4"),
        "Prometheus content type: {headers}"
    );
    for expected in [
        "# TYPE slade_build_info gauge",
        "slade_build_info{version=\"",
        "slade_ops_solve_total 1",
        "# TYPE slade_latency_solve histogram",
        "slade_latency_solve_bucket{le=\"+Inf\"} 1",
        "slade_latency_solve_count 1",
        "# TYPE slade_health_status gauge",
        "slade_health_status 0",
        "slade_process_uptime_seconds",
        "slade_ops_solve_window",
        "slade_latency_solve_window_p99_ns",
    ] {
        assert!(body.contains(expected), "missing `{expected}` in:\n{body}");
    }
    // Parseability: every line is a `# TYPE` comment or a `name value`
    // sample with a sanitized name and a numeric value.
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            assert!(parts.next().is_some(), "TYPE line names a metric: {line}");
            assert!(
                matches!(parts.next(), Some("counter" | "gauge" | "histogram")),
                "known kind: {line}"
            );
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line: `name value`");
        let bare = name.split('{').next().unwrap();
        assert!(
            bare.starts_with("slade_")
                && bare
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "sanitized slade_-prefixed name: {line}"
        );
        assert!(value.parse::<f64>().is_ok(), "numeric value: {line}");
    }

    // A second scrape works (connections are one-shot), and anything but
    // GET /metrics is a 404.
    let (status, _, _) = http_get(metrics_addr, "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let (status, _, _) = http_get(metrics_addr, "/nope");
    assert!(status.starts_with("HTTP/1.1 404"), "{status}");

    client.roundtrip("{\"op\":\"shutdown\"}").unwrap();
    done.recv_timeout(STEP)
        .expect("server must shut down")
        .expect("clean exit");
}

/// The `metrics` member behind a `stats` member, as a `/`-separated path
/// from the document root (`max_inflight` is configuration, not a metric).
fn metrics_counterpart(stats_path: &str) -> Option<String> {
    let (section, key) = match stats_path.split_once('/') {
        Some((section, key)) => (section, Some(key)),
        None => (stats_path, None),
    };
    Some(match (section, key) {
        ("cache" | "ops" | "algorithms" | "timeouts", Some(key)) => format!("{section}/{key}"),
        ("connections", None) => "sessions/active".to_string(),
        ("plans" | "leases", None) => format!("store/{section}"),
        ("steals" | "threads" | "queue_depth", None) => format!("engine/{section}"),
        ("sessions", None) => "sessions/opened".to_string(),
        ("max_inflight", None) => return None,
        _ => panic!("stats member `{stats_path}` has no metrics counterpart"),
    })
}

fn member_names(value: &Json) -> Vec<&str> {
    value
        .members()
        .unwrap_or_else(|| panic!("expected an object, got {value}"))
        .iter()
        .map(|(name, _)| name.as_str())
        .collect()
}

#[test]
fn stats_is_a_projection_of_metrics() {
    const MAX_INFLIGHT: usize = 7;
    let (addr, _, done) = start_server_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            threads: 2,
            cache_capacity: 16,
            ..EngineConfig::default()
        },
        request_timeout: STEP,
        max_inflight: MAX_INFLIGHT,
        ..ServerConfig::default()
    });
    let mut client = connect(addr);
    // Traffic that moves every kind of number stats reports: several
    // algorithms, a retained, resubmitted and released plan, a batch, a
    // failing claim, a pipelined solve, and the read-only verbs.
    for line in [
        "{\"tasks\":4,\"threshold\":0.95}",
        "{\"algorithm\":\"greedy\",\"tasks\":9,\"threshold\":0.9}",
        "{\"op\":\"solve\",\"id\":\"w\",\"tasks\":8}",
        "{\"op\":\"resubmit\",\"id\":\"w\",\"delta\":{\"resize\":16}}",
        "{\"op\":\"batch\",\"requests\":[{},{\"algorithm\":\"opq-extended\",\"thresholds\":[0.5,0.9]}]}",
        "{\"op\":\"claim\",\"id\":\"nope\"}",
        "{\"op\":\"release\",\"id\":\"w\"}",
        "{\"op\":\"trace\"}",
        "{\"op\":\"health\"}",
        "{\"op\":\"profile\"}",
    ] {
        client.roundtrip(line).expect("scripted request");
    }
    client
        .pipeline(&["{\"tasks\":12,\"trace\":true}"], 1)
        .expect("pipelined solve");

    // Quiescent: every response has been read. `metrics` counts itself;
    // the `stats` after it adds one `stats` and nothing else.
    let metrics = parse(&client.roundtrip("{\"op\":\"metrics\"}").unwrap());
    let stats = parse(&client.roundtrip("{\"op\":\"stats\"}").unwrap());

    // Member names and order are the historical ones, at every level.
    let section = |name: &str| stats.get(name).expect("stats section");
    for (names, expected) in [
        (
            member_names(&stats),
            "ok,op,cache,ops,algorithms,connections,plans,leases,steals,threads,\
             max_inflight,queue_depth,sessions,timeouts",
        ),
        (
            member_names(section("cache")),
            "hits,misses,entries,capacity",
        ),
        (
            member_names(section("ops")),
            "solve,batch,resubmit,claim,release,stats,shutdown,pipelined,errors,\
             metrics,trace,timeouts,health,profile",
        ),
        (
            member_names(section("algorithms")),
            "greedy,opq-based,opq-extended,baseline,relaxed,exact",
        ),
        (member_names(section("timeouts")), "solve,batch,resubmit"),
    ] {
        assert_eq!(names.join(","), expected, "{stats}");
    }

    // Every number stats reports equals its metrics counterpart.
    let mut leaves = Vec::new();
    for (name, value) in stats.members().unwrap() {
        match value.members() {
            Some(members) => leaves.extend(
                members
                    .iter()
                    .map(|(key, value)| (format!("{name}/{key}"), value)),
            ),
            None => leaves.push((name.clone(), value)),
        }
    }
    for (path, value) in leaves {
        if path == "ok" || path == "op" {
            continue;
        }
        let got = value
            .as_f64()
            .unwrap_or_else(|| panic!("stats `{path}` is not a number: {stats}"));
        let Some(counterpart) = metrics_counterpart(&path) else {
            assert_eq!(got, MAX_INFLIGHT as f64, "max_inflight is the config");
            continue;
        };
        let (section, key) = counterpart.split_once('/').unwrap();
        let expected = metrics
            .get(section)
            .and_then(|section| section.get(key))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("metrics lacks `{counterpart}`: {metrics}"));
        let expected = if path == "ops/stats" {
            expected + 1.0
        } else {
            expected
        };
        assert_eq!(got, expected, "stats `{path}` vs metrics `{counterpart}`");
    }

    // The traffic moved the numbers, so the equalities are not all zeros.
    let ops = section("ops");
    assert_eq!(field_f64(ops, "solve"), 4.0);
    assert_eq!(field_f64(ops, "pipelined"), 1.0);
    assert_eq!(field_f64(ops, "errors"), 1.0);
    let algorithms = section("algorithms");
    assert_eq!(field_f64(algorithms, "greedy"), 1.0);
    assert_eq!(field_f64(algorithms, "opq-based"), 5.0);
    assert_eq!(field_f64(algorithms, "opq-extended"), 1.0);
    assert_eq!(field_f64(&stats, "plans"), 1.0);
    assert_eq!(field_f64(&stats, "leases"), 0.0, "w was released");
    assert!(field_f64(section("cache"), "hits") > 0.0, "{stats}");

    client.roundtrip("{\"op\":\"shutdown\"}").unwrap();
    done.recv_timeout(STEP)
        .expect("server must shut down")
        .expect("clean exit");
}
