//! End-to-end tests of the durable plan journal over real loopback
//! sockets:
//!
//! 1. **restart recovery** — a resubmit chain continued on a restarted
//!    server (same journal file) returns bytes identical to the same
//!    chain run uninterrupted on one server;
//! 2. **replay idempotence** — a journal concatenated with itself
//!    replays to the same store as the original (last record wins);
//! 3. **torn-tail tolerance** — a partial final record (the SIGKILL
//!    shape) is skipped on replay and truncated away by the boot-time
//!    compaction;
//! 4. **corruption fuzz** — seeded byte flips and truncations of a real
//!    journal must never panic the boot replay, and every plan the replay
//!    recovers must answer a resubmission;
//! 5. **lease TTL** — an expired lease is reclaimable by a second
//!    session while the first is still connected, and the expiry counts;
//! 6. **compaction** — re-landing one id hundreds of times leaves a
//!    journal bounded by [`COMPACT_EVERY`], not by the append count;
//! 7. **exposition** — store and journal gauges reach the Prometheus
//!    text endpoint and the `health`/`metrics` verbs.

use slade_json::{self as json, Json};
use slade_server::{Client, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// How long any single test step may block before the test fails.
const STEP: Duration = Duration::from_secs(20);

/// A fresh journal path in the temp dir, unique per test and process;
/// stale files from a previous run are removed so replays start clean.
fn journal_path(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("slade-journal-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    let _ = std::fs::remove_file(PathBuf::from(tmp));
    path
}

fn config(journal: Option<PathBuf>, lease_ttl: Option<Duration>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: slade_engine::EngineConfig {
            threads: 2,
            cache_capacity: 16,
            ..slade_engine::EngineConfig::default()
        },
        request_timeout: STEP,
        journal,
        lease_ttl,
        ..ServerConfig::default()
    }
}

fn start_server(
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

fn connect(addr: SocketAddr) -> Client {
    let client = Client::connect(addr).expect("connecting to the test server");
    client.set_read_timeout(Some(STEP)).unwrap();
    client
}

/// Round-trips `line` expecting success; returns the raw response string
/// (for byte-identity comparisons) and its parsed form.
fn ok_roundtrip(client: &mut Client, line: &str) -> (String, Json) {
    let response = client.roundtrip(line).expect("protocol round trip");
    let value = json::parse(&response).expect("responses are valid JSON");
    assert_eq!(
        value.get("ok"),
        Some(&Json::Bool(true)),
        "expected success for {line}, got {response}"
    );
    (response, value)
}

fn shutdown(client: &mut Client, done: &mpsc::Receiver<std::io::Result<()>>) {
    client.roundtrip("{\"op\":\"shutdown\"}").expect("shutdown");
    done.recv_timeout(STEP)
        .expect("server must shut down within the deadline")
        .expect("server run() must exit cleanly");
}

/// Digs a numeric member out of a nested metrics object.
fn metric(value: &Json, section: &str, key: &str) -> f64 {
    value
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metrics member {section}.{key} in {value}"))
}

#[test]
fn restarted_server_resumes_the_resubmit_chain_byte_identically() {
    // Control: the whole chain on one uninterrupted server.
    let (addr, _, done) = start_server(config(None, None));
    let mut control = connect(addr);
    ok_roundtrip(
        &mut control,
        "{\"op\":\"solve\",\"id\":\"w\",\"tasks\":4,\"threshold\":0.95}",
    );
    ok_roundtrip(
        &mut control,
        "{\"op\":\"resubmit\",\"id\":\"w\",\"delta\":{\"resize\":9}}",
    );
    let (expected, _) = ok_roundtrip(
        &mut control,
        "{\"op\":\"resubmit\",\"id\":\"w\",\"delta\":{\"resize\":100},\"plan\":true}",
    );
    shutdown(&mut control, &done);

    // Journaled: the first two links, then a restart on the same file.
    let path = journal_path("restart");
    let (addr, _, done) = start_server(config(Some(path.clone()), None));
    let mut first = connect(addr);
    ok_roundtrip(
        &mut first,
        "{\"op\":\"solve\",\"id\":\"w\",\"tasks\":4,\"threshold\":0.95}",
    );
    ok_roundtrip(
        &mut first,
        "{\"op\":\"resubmit\",\"id\":\"w\",\"delta\":{\"resize\":9}}",
    );
    shutdown(&mut first, &done);

    let (addr, _, done) = start_server(config(Some(path.clone()), None));
    let mut resumed = connect(addr);
    // Replayed plans are unleased: the resubmit claims implicitly.
    let (actual, _) = ok_roundtrip(
        &mut resumed,
        "{\"op\":\"resubmit\",\"id\":\"w\",\"delta\":{\"resize\":100},\"plan\":true}",
    );
    assert_eq!(
        actual, expected,
        "the resumed chain must be byte-identical to the uninterrupted one"
    );

    // The replay is visible: two land records recovered into one plan,
    // compacted back down to one record at boot.
    let (_, metrics) = ok_roundtrip(&mut resumed, "{\"op\":\"metrics\"}");
    assert_eq!(metric(&metrics, "journal", "replayed"), 2.0, "{metrics}");
    assert!(
        metric(&metrics, "journal", "compactions") >= 1.0,
        "{metrics}"
    );
    shutdown(&mut resumed, &done);
    let _ = std::fs::remove_file(path);
}

#[test]
fn doubled_journal_replays_idempotently() {
    let path = journal_path("idempotent");
    let (addr, _, done) = start_server(config(Some(path.clone()), None));
    let mut client = connect(addr);
    ok_roundtrip(
        &mut client,
        "{\"op\":\"solve\",\"id\":\"w\",\"tasks\":4,\"threshold\":0.95}",
    );
    ok_roundtrip(
        &mut client,
        "{\"op\":\"solve\",\"id\":\"v\",\"tasks\":7,\"threshold\":0.9}",
    );
    shutdown(&mut client, &done);

    // Replaying the journal twice over must land exactly the same store.
    // Between the copies sits a `release` audit line, which older builds
    // wrote after a lease release: replay counts and skips it.
    let bytes = std::fs::read(&path).expect("journal exists after shutdown");
    let doubled = journal_path("idempotent-doubled");
    let mut twice = bytes.clone();
    twice.extend_from_slice(b"{\"record\":\"release\",\"id\":\"w\"}\n");
    twice.extend_from_slice(&bytes);
    std::fs::write(&doubled, &twice).unwrap();

    let (addr, _, done) = start_server(config(Some(doubled.clone()), None));
    let mut client = connect(addr);
    let (_, metrics) = ok_roundtrip(&mut client, "{\"op\":\"metrics\"}");
    assert_eq!(metric(&metrics, "store", "plans"), 2.0, "{metrics}");
    assert_eq!(metric(&metrics, "journal", "replayed"), 5.0, "{metrics}");
    // Boot-time compaction rewrote the doubled file to the two live plans.
    assert_eq!(metric(&metrics, "journal", "records"), 2.0, "{metrics}");
    ok_roundtrip(
        &mut client,
        "{\"op\":\"resubmit\",\"id\":\"w\",\"delta\":{\"resize\":9}}",
    );
    shutdown(&mut client, &done);
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(doubled);
}

#[test]
fn torn_final_record_is_skipped_and_truncated_at_boot() {
    let path = journal_path("torn");
    let (addr, _, done) = start_server(config(Some(path.clone()), None));
    let mut client = connect(addr);
    ok_roundtrip(
        &mut client,
        "{\"op\":\"solve\",\"id\":\"w\",\"tasks\":4,\"threshold\":0.95}",
    );
    ok_roundtrip(
        &mut client,
        "{\"op\":\"solve\",\"id\":\"v\",\"tasks\":7,\"threshold\":0.9}",
    );
    shutdown(&mut client, &done);

    // The SIGKILL shape: a final record cut off mid-write.
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(b"{\"record\":\"land\",\"id\":\"torn\",\"plan\":{\"v\":1,\"alg")
            .unwrap();
    }

    let (addr, _, done) = start_server(config(Some(path.clone()), None));
    let mut client = connect(addr);
    let (_, metrics) = ok_roundtrip(&mut client, "{\"op\":\"metrics\"}");
    assert_eq!(metric(&metrics, "store", "plans"), 2.0, "{metrics}");
    assert_eq!(metric(&metrics, "journal", "replayed"), 2.0, "{metrics}");
    shutdown(&mut client, &done);

    // Boot-time compaction truncated the torn tail: every line in the
    // rewritten journal parses as a complete record.
    let rewritten = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = rewritten.lines().collect();
    assert_eq!(lines.len(), 2, "{rewritten}");
    for line in lines {
        json::parse(line).expect("compacted journals hold only whole records");
    }

    // A `drop` record is not in the grammar: it ends replay like any
    // unknown record — it is neither applied nor counted.
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(b"{\"record\":\"drop\",\"id\":\"w\"}\n")
            .unwrap();
    }
    let (addr, _, done) = start_server(config(Some(path.clone()), None));
    let mut client = connect(addr);
    let (_, metrics) = ok_roundtrip(&mut client, "{\"op\":\"metrics\"}");
    assert_eq!(metric(&metrics, "store", "plans"), 2.0, "{metrics}");
    assert_eq!(metric(&metrics, "journal", "replayed"), 2.0, "{metrics}");
    shutdown(&mut client, &done);
    let _ = std::fs::remove_file(path);
}

/// The deterministic LCG the engine's property tests use; failures quote
/// their seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The id and task count of every plan in a journal that holds only
/// `land` records (as it does right after the boot compaction).
fn landed_plans(path: &PathBuf) -> Vec<(String, usize)> {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines()
        .map(|line| {
            let record = json::parse(line).expect("compacted journals hold only whole records");
            let id = record.get("id").and_then(Json::as_str).unwrap().to_string();
            let workload = record.get("plan").and_then(|p| p.get("workload")).unwrap();
            let tasks = match workload.get("thresholds").and_then(Json::as_array) {
                Some(thresholds) => thresholds.len(),
                None => workload.get("tasks").and_then(Json::as_f64).unwrap() as usize,
            };
            (id, tasks)
        })
        .collect()
}

#[test]
fn corrupt_journal_bytes_never_panic_the_boot_replay() {
    // A real journal to mutate, shut down cleanly: a plan in four
    // threshold buckets, whose record carries four sub-plans besides the
    // merged plan, then three single-shard plans. The multi-bucket record
    // comes first so replay still reaches it when a later record breaks.
    let path = journal_path("fuzz-seed");
    let (addr, _, done) = start_server(config(Some(path.clone()), None));
    let mut client = connect(addr);
    ok_roundtrip(
        &mut client,
        "{\"op\":\"solve\",\"id\":\"d\",\"algorithm\":\"opq-extended\",\
         \"thresholds\":[0.999,0.95,0.8,0.5,0.999,0.95,0.8,0.5,0.999,0.95]}",
    );
    for (id, tasks) in [("a", 4), ("b", 7), ("c", 9)] {
        ok_roundtrip(
            &mut client,
            &format!("{{\"op\":\"solve\",\"id\":\"{id}\",\"tasks\":{tasks},\"threshold\":0.9}}"),
        );
    }
    shutdown(&mut client, &done);
    let bytes = std::fs::read(&path).unwrap();
    assert!(!bytes.is_empty());

    let target = journal_path("fuzz-target");
    let mut rng = Lcg(0x5EED_F00D);
    for round in 0..40 {
        let mut mutant = bytes.clone();
        match rng.pick(3) {
            // Truncate anywhere — mid-record, mid-number, mid-escape.
            0 => mutant.truncate(rng.pick(bytes.len() as u64) as usize),
            // Flip one byte anywhere.
            1 => {
                let at = rng.pick(bytes.len() as u64) as usize;
                mutant[at] ^= 1 << rng.pick(8);
            }
            // Both: flip then truncate after the flip.
            _ => {
                let at = rng.pick(bytes.len() as u64) as usize;
                mutant[at] = rng.next() as u8;
                let keep = at + rng.pick((bytes.len() - at) as u64 + 1) as usize;
                mutant.truncate(keep);
            }
        }
        std::fs::write(&target, &mutant).unwrap();
        let mut corrupted = config(Some(target.clone()), None);
        corrupted.engine.threads = 1;
        // Bind replays (and compacts) the mutant; it must come up clean —
        // possibly with fewer plans, never with a panic or an error.
        let server = Server::bind(corrupted)
            .unwrap_or_else(|e| panic!("round {round}: bind must survive corruption: {e}"));
        // Every recovered plan must serve a no-op resubmission, which
        // splices its decoded sub-plans back in.
        let addr = server.local_addr();
        let (tx, done) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(server.run());
        });
        let mut client = connect(addr);
        for (id, tasks) in landed_plans(&target) {
            let mut line = String::from("{\"op\":\"resubmit\",\"id\":");
            Json::string(id).write_into(&mut line);
            line.push_str(&format!(",\"delta\":{{\"resize\":{tasks}}}}}"));
            ok_roundtrip(&mut client, &line);
        }
        shutdown(&mut client, &done);
    }
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(target);
}

#[test]
fn expired_lease_is_reclaimable_by_a_second_session() {
    // TTL zero: every lease expires the instant its holder goes idle.
    let (addr, _, done) = start_server(config(None, Some(Duration::ZERO)));
    let mut alice = connect(addr);
    ok_roundtrip(
        &mut alice,
        "{\"op\":\"solve\",\"id\":\"w\",\"tasks\":4,\"threshold\":0.95}",
    );

    // Alice is still connected and never released — Bob takes the id
    // anyway, because the lease aged out.
    let mut bob = connect(addr);
    ok_roundtrip(&mut bob, "{\"op\":\"claim\",\"id\":\"w\"}");
    ok_roundtrip(
        &mut bob,
        "{\"op\":\"resubmit\",\"id\":\"w\",\"delta\":{\"resize\":9}}",
    );

    let (_, metrics) = ok_roundtrip(&mut bob, "{\"op\":\"metrics\"}");
    assert!(
        metric(&metrics, "store", "lease_expiries") >= 1.0,
        "{metrics}"
    );
    drop(alice);
    shutdown(&mut bob, &done);
}

#[test]
fn compaction_bounds_the_journal_by_live_plans_not_appends() {
    let path = journal_path("compact");
    let (addr, _, done) = start_server(config(Some(path.clone()), None));
    let mut client = connect(addr);
    ok_roundtrip(
        &mut client,
        "{\"op\":\"solve\",\"id\":\"w\",\"tasks\":4,\"threshold\":0.9}",
    );
    // Re-land the one id well past the compaction budget.
    for round in 0..300 {
        let tasks = 4 + (round % 2);
        ok_roundtrip(
            &mut client,
            &format!("{{\"op\":\"resubmit\",\"id\":\"w\",\"delta\":{{\"resize\":{tasks}}}}}"),
        );
    }

    let (_, metrics) = ok_roundtrip(&mut client, "{\"op\":\"metrics\"}");
    let records = metric(&metrics, "journal", "records");
    assert!(
        records < 300.0,
        "301 appends must have compacted, journal still holds {records} records"
    );
    let compactions = metric(&metrics, "journal", "compactions");
    assert!(compactions >= 2.0, "boot + automatic: {metrics}");
    // Every compaction is timed into `journal.compact_us`, and the time it
    // holds the file mutex into `journal.compact_hold_us`.
    for histogram in ["compact_us", "compact_hold_us"] {
        let timed = metrics
            .get("journal")
            .and_then(|journal| journal.get(histogram))
            .and_then(|histogram| histogram.get("count"))
            .and_then(Json::as_f64);
        assert_eq!(timed, Some(compactions), "{histogram}: {metrics}");
    }
    assert_eq!(metric(&metrics, "store", "plans"), 1.0, "{metrics}");
    shutdown(&mut client, &done);

    let lines = std::fs::read_to_string(&path).unwrap().lines().count();
    assert_eq!(lines as f64, records, "file and counter must agree");
    let _ = std::fs::remove_file(path);
}

#[test]
fn store_and_journal_gauges_reach_health_and_prometheus() {
    let path = journal_path("gauges");
    let mut cfg = config(Some(path.clone()), None);
    cfg.metrics_addr = Some("127.0.0.1:0".to_string());
    let (addr, metrics_addr, done) = start_server(cfg);
    let metrics_addr = metrics_addr.expect("a metrics listener must bind when configured");
    let mut client = connect(addr);
    ok_roundtrip(
        &mut client,
        "{\"op\":\"solve\",\"id\":\"w\",\"tasks\":4,\"threshold\":0.95}",
    );

    // The health verb grew a `store` signal.
    let (_, health) = ok_roundtrip(&mut client, "{\"op\":\"health\"}");
    let store_signal = health
        .get("signals")
        .and_then(|s| s.get("store"))
        .unwrap_or_else(|| panic!("health carries a store signal: {health}"));
    assert_eq!(
        store_signal.get("status").and_then(Json::as_str),
        Some("ok"),
        "{health}"
    );

    // Prometheus sees the same numbers under sanitized names.
    let mut stream = TcpStream::connect(metrics_addr).expect("metrics listener");
    stream.set_read_timeout(Some(STEP)).unwrap();
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut body = String::new();
    stream.read_to_string(&mut body).unwrap();
    for expected in [
        "slade_store_plans 1",
        "slade_store_leases 1",
        "slade_store_lease_conflicts 0",
        "slade_store_lease_expiries 0",
        "slade_journal_records 1",
        "slade_journal_append_errors 0",
        // The boot-time compaction, timed.
        "slade_journal_compact_us_count 1",
        "# TYPE slade_journal_compact_us_window_p50 gauge",
        "slade_journal_compact_hold_us_count 1",
        "# TYPE slade_journal_compact_hold_us_window_p50 gauge",
    ] {
        assert!(body.contains(expected), "missing `{expected}` in:\n{body}");
    }
    shutdown(&mut client, &done);
    let _ = std::fs::remove_file(path);
}
