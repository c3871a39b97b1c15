//! `slade-cli` — drive the SLADE decomposer from the command line.
//!
//! ```text
//! slade-cli solve    [--algorithm NAME] [--tasks N] [--threshold T]
//!                    [--thresholds T1,T2,...] [--bins l:r:c,l:r:c,...]
//! slade-cli simulate [same flags] [--trials K] [--seed S]
//! slade-cli batch    [--threads N] [--cache N]   (JSONL requests on stdin)
//! slade-cli serve    [--addr HOST:PORT] [--threads N] [--cache N]
//!                    [--max-inflight N] [--trace-log FILE] [--slow-ms N]
//! slade-cli client   --connect HOST:PORT [--pipeline N]
//!                                                 (JSONL requests on stdin)
//! slade-cli top      --connect HOST:PORT [--interval-ms N] [--iterations N]
//! slade-cli algorithms
//! ```
//!
//! Defaults: the paper's Table-1 bin menu, 4 tasks, threshold 0.95, the
//! OPQ-Based solver — i.e. Example 9 of the paper.
//!
//! JSON parsing and printing live in `slade_json` (shared with the
//! server's wire protocol), so `batch` lines, `client` requests, and
//! server responses all speak one dialect.

use slade_core::prelude::*;
use slade_crowd::{simulate, SimulationConfig};
use slade_engine::{Engine, EngineConfig, EngineRequest, Submit};
use slade_json::{member, Json};
use slade_server::{protocol, Client, Server, ServerConfig};
use std::io::Read;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
slade-cli — SLADE: smart large-scale task decomposition in crowdsourcing

USAGE:
    slade-cli <COMMAND> [OPTIONS]

COMMANDS:
    solve        Decompose a workload and print the plan and its audit
    simulate     Solve, then execute the plan on the marketplace simulator
    batch        Solve a stream of JSONL requests from stdin concurrently
    serve        Run the decomposition server (line-delimited JSON over TCP)
    client       Send JSONL requests from stdin to a running server
    top          Live one-screen ops dashboard for a running server
    algorithms   List available algorithms

OPTIONS (solve, simulate):
    --algorithm NAME        Solver to use, case-insensitive [default: opq-based]
    --tasks N               Homogeneous workload size [default: 4]
    --threshold T           Homogeneous reliability threshold [default: 0.95]
    --thresholds T1,T2,...  Per-task thresholds (overrides --tasks/--threshold)
    --bins l:r:c,...        Bin menu as cardinality:confidence:cost triples
                            [default: the paper's 1:0.9:0.1,2:0.85:0.18,3:0.8:0.24]
    --trials K              Simulation trials [default: 4000]
    --seed S                Simulation seed [default: 12648430]
    -h, --help              Print this help

OPTIONS (batch):
    --threads N             Worker threads [default: available parallelism]
    --cache N               Artifact-cache capacity in entries, 0 disables
                            [default: 64]
    --reuse                 Append a final JSON line with artifact-reuse
                            statistics (cache hits/misses/entries)

OPTIONS (serve):
    --addr HOST:PORT        Address to bind [default: 127.0.0.1:7878];
                            port 0 picks an ephemeral port
    --threads N             Engine worker threads [default: available parallelism]
    --cache N               Artifact-cache capacity in entries, 0 disables
                            [default: 64]
    --timeout-secs S        Per-request solve deadline [default: 60]
    --max-inflight N        Cap on seq-tagged (pipelined) requests one
                            session may have in flight; the reader blocks
                            at the cap (TCP backpressure) [default: 32]
    --trace-log FILE        Append every completed traced span (requests
                            sent with \"trace\":true) to FILE as JSON lines
    --slow-ms N             Log any traced request slower than N ms
                            end-to-end to stderr
    --metrics-addr HOST:PORT
                            Also serve Prometheus text metrics over HTTP
                            GET /metrics on this address; port 0 picks an
                            ephemeral port [default: off]
    --journal FILE          Append every stored plan to FILE as JSON lines
                            and replay it at boot, so retained plans (and
                            their resubmit chains) survive a crash or
                            restart [default: off]
    --lease-ttl-secs S      Reclaim a plan lease S seconds after its
                            holder's last touch; 0 expires immediately
                            [default: leases last until session end]

OPTIONS (client):
    --connect HOST:PORT     Server to talk to (required). Requests are read
                            from stdin (one JSON object per line — the same
                            lines `batch` accepts, plus the protocol verbs
                            solve/batch/resubmit/stats/shutdown); responses
                            print one per line in request order.
    --pipeline N            Keep up to N requests in flight on the one
                            connection (tagging them with `seq`); responses
                            still print in request order. stats/shutdown
                            lines act as barriers. [default: off]

OPTIONS (top):
    --connect HOST:PORT     Server to watch (required). Polls the `metrics`
                            and `health` verbs and repaints a one-screen
                            dashboard: status, windowed req/s and latency
                            quantiles per verb, queue/cache/session signals.
    --interval-ms N         Refresh interval in milliseconds [default: 2000]
    --iterations N          Stop after N frames; 0 runs until interrupted
                            (or the server goes away) [default: 0]

Each batch request is one JSON object per line; all fields optional:
    {\"algorithm\": \"opq-extended\", \"tasks\": 1000, \"threshold\": 0.95,
     \"thresholds\": [0.5, 0.9], \"bins\": [[1, 0.9, 0.1]], \"seed\": 7}
One JSON result per request is printed in input order, e.g.
    {\"request\":0,\"algorithm\":\"opq-based\",\"tasks\":1000,
     \"bins_posted\":667,\"cost\":160.1,\"feasible\":true}
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Solve(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Debug, PartialEq)]
enum CliError {
    /// Bad invocation: exit code 2 plus usage.
    Usage(String),
    /// Well-formed invocation that failed while solving: exit code 1.
    Solve(String),
}

#[derive(Debug)]
struct Options {
    algorithm: Algorithm,
    bins: BinSet,
    workload: Workload,
    trials: u32,
    seed: u64,
}

fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    // `--help` anywhere succeeds with usage, matching CLI convention.
    if args.iter().any(|a| a == "-h" || a == "--help") {
        return Ok(USAGE.to_string());
    }
    match command.as_str() {
        "algorithms" => {
            if let Some(extra) = args.get(1) {
                return Err(CliError::Usage(format!(
                    "`algorithms` takes no arguments, got `{extra}`"
                )));
            }
            Ok(Algorithm::ALL
                .iter()
                .map(|a| a.name())
                .collect::<Vec<_>>()
                .join("\n"))
        }
        "solve" => {
            let opts = parse_options(&args[1..])?;
            let plan = solve(&opts)?;
            Ok(render_plan(&plan, &opts))
        }
        "batch" => {
            // Validate flags before touching stdin, so a bad invocation on a
            // TTY errors immediately instead of blocking for EOF.
            parse_batch_options(&args[1..])?;
            run_batch(&args[1..], &read_stdin()?)
        }
        "serve" => run_serve(&args[1..], &|addr| {
            // Announced up front (run_serve blocks until shutdown), on
            // stderr so stdout stays clean for scripting.
            eprintln!("slade-server listening on {addr}");
        }),
        "client" => {
            parse_client_options(&args[1..])?;
            run_client(&args[1..], &read_stdin()?)
        }
        "top" => run_top(&args[1..]),
        "simulate" => {
            let opts = parse_options(&args[1..])?;
            let plan = solve(&opts)?;
            let config = SimulationConfig {
                trials: opts.trials,
                seed: opts.seed,
                ..SimulationConfig::default()
            };
            let report = simulate(&plan, &opts.workload, &opts.bins, &config)
                .map_err(|e| CliError::Solve(e.to_string()))?;
            let mut out = render_plan(&plan, &opts);
            out.push_str(&format!(
                "\nsimulation: trials = {}, min empirical reliability = {:.4}, \
                 unreliable tasks = {}",
                report.trials, report.min_reliability, report.unreliable_tasks
            ));
            Ok(out)
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Runs the `batch` subcommand over `input` (stdin, injectable for tests):
/// parse every JSONL request up front (malformed input aborts before any
/// solving), submit them all to a `slade-engine` pool, and print one JSON
/// result line per request in input order. Individual solver failures
/// become `{"request":i,"error":"..."}` lines rather than aborting the
/// stream.
fn run_batch(args: &[String], input: &str) -> Result<String, CliError> {
    let (threads, cache, reuse) = parse_batch_options(args)?;
    let default_bins = Arc::new(BinSet::paper_example());

    let mut requests: Vec<EngineRequest> = Vec::new();
    for (line_index, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        requests.push(parse_request(line_index + 1, line, &default_bins)?);
    }

    let engine = Engine::new(EngineConfig {
        threads,
        cache_capacity: cache,
        ..EngineConfig::default()
    });
    let handles: Vec<_> = requests
        .iter()
        .map(|request| engine.submit(request.clone(), Submit::default()))
        .collect();

    let mut out = String::new();
    for (i, handle) in handles.into_iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        // Result lines are the server's batch entries, printed through the
        // same serializer.
        out.push_str(&protocol::batch_entry(i, &handle.wait()).to_string());
    }
    if reuse {
        // How much instance-independent work the two-phase pipeline shared
        // across the stream: every hit is one prepare step skipped.
        let stats = engine.cache_stats();
        if !requests.is_empty() {
            out.push('\n');
        }
        let line = Json::Object(vec![member(
            "reuse",
            Json::Object(vec![
                member("cache_hits", Json::number(stats.hits as f64)),
                member("cache_misses", Json::number(stats.misses as f64)),
                member("cache_entries", Json::number(stats.entries as f64)),
                member("cache_capacity", Json::number(stats.capacity as f64)),
                member("requests", Json::number(requests.len() as f64)),
            ]),
        )]);
        out.push_str(&line.to_string());
    }
    Ok(out)
}

fn read_stdin() -> Result<String, CliError> {
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| CliError::Solve(format!("reading stdin: {e}")))?;
    Ok(input)
}

/// Runs the `serve` subcommand: bind, announce the (possibly ephemeral)
/// address through `announce`, then block in the accept loop until a
/// client sends the `shutdown` verb.
fn run_serve(args: &[String], announce: &dyn Fn(SocketAddr)) -> Result<String, CliError> {
    let config = parse_serve_options(args)?;
    let addr = config.addr.clone();
    let server =
        Server::bind(config).map_err(|e| CliError::Solve(format!("binding {addr}: {e}")))?;
    announce(server.local_addr());
    if let Some(metrics) = server.metrics_local_addr() {
        eprintln!("slade-server metrics on http://{metrics}/metrics");
    }
    server
        .run()
        .map_err(|e| CliError::Solve(format!("server error: {e}")))?;
    Ok("server: drained and shut down cleanly".to_string())
}

fn parse_serve_options(args: &[String]) -> Result<ServerConfig, CliError> {
    let defaults = EngineConfig::default();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut threads = defaults.threads;
    let mut cache = defaults.cache_capacity;
    let mut timeout_secs: u64 = 60;
    let mut max_inflight = ServerConfig::default().max_inflight;
    let mut obs = slade_server::ObsOptions::default();
    let mut metrics_addr: Option<String> = None;
    let mut journal: Option<std::path::PathBuf> = None;
    let mut lease_ttl: Option<Duration> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--threads" => {
                threads = parse_num(&value("--threads")?, "--threads")?;
                if threads == 0 {
                    return Err(CliError::Usage("--threads must be at least 1".into()));
                }
            }
            "--cache" => cache = parse_num(&value("--cache")?, "--cache")?,
            "--timeout-secs" => {
                timeout_secs = parse_num(&value("--timeout-secs")?, "--timeout-secs")?;
                if timeout_secs == 0 {
                    return Err(CliError::Usage("--timeout-secs must be at least 1".into()));
                }
            }
            "--max-inflight" => {
                max_inflight = parse_num(&value("--max-inflight")?, "--max-inflight")?;
                if max_inflight == 0 {
                    return Err(CliError::Usage("--max-inflight must be at least 1".into()));
                }
            }
            "--trace-log" => {
                obs.trace_log = Some(std::path::PathBuf::from(value("--trace-log")?));
            }
            "--slow-ms" => {
                obs.slow_ms = Some(parse_num::<u64>(&value("--slow-ms")?, "--slow-ms")?);
            }
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")?),
            "--journal" => {
                journal = Some(std::path::PathBuf::from(value("--journal")?));
            }
            "--lease-ttl-secs" => {
                // 0 is allowed: it expires leases immediately, which is
                // how the recovery tests exercise reclamation.
                lease_ttl = Some(Duration::from_secs(parse_num::<u64>(
                    &value("--lease-ttl-secs")?,
                    "--lease-ttl-secs",
                )?));
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown flag `{other}` for `serve`"
                )))
            }
        }
    }
    Ok(ServerConfig {
        addr,
        engine: EngineConfig {
            threads,
            cache_capacity: cache,
            ..EngineConfig::default()
        },
        request_timeout: Duration::from_secs(timeout_secs),
        max_inflight,
        obs,
        metrics_addr,
        journal,
        lease_ttl,
        ..ServerConfig::default()
    })
}

fn parse_client_options(args: &[String]) -> Result<(String, Option<usize>), CliError> {
    let mut connect: Option<String> = None;
    let mut pipeline: Option<usize> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--connect" => connect = Some(value("--connect")?),
            "--pipeline" => {
                let window: usize = parse_num(&value("--pipeline")?, "--pipeline")?;
                if window == 0 {
                    return Err(CliError::Usage("--pipeline must be at least 1".into()));
                }
                pipeline = Some(window);
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown flag `{other}` for `client`"
                )))
            }
        }
    }
    let connect =
        connect.ok_or_else(|| CliError::Usage("`client` needs --connect HOST:PORT".into()))?;
    Ok((connect, pipeline))
}

/// Runs the `client` subcommand over `input` (stdin, injectable for
/// tests): every nonempty line goes to the server, every response line
/// prints in request order — the network twin of `batch`. With
/// `--pipeline N` the lines are seq-tagged and up to N kept in flight on
/// the one connection (the output order is unchanged; each response then
/// carries its echoed `seq`).
fn run_client(args: &[String], input: &str) -> Result<String, CliError> {
    let (addr, pipeline) = parse_client_options(args)?;
    let mut client = Client::connect(&addr)
        .map_err(|e| CliError::Solve(format!("connecting to {addr}: {e}")))?;
    let lines: Vec<&str> = input
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .collect();
    let responses = match pipeline {
        Some(window) => client
            .pipeline(&lines, window)
            .map_err(|e| CliError::Solve(format!("talking to {addr}: {e}")))?,
        None => {
            let mut responses = Vec::with_capacity(lines.len());
            for line in &lines {
                responses.push(
                    client
                        .roundtrip(line)
                        .map_err(|e| CliError::Solve(format!("talking to {addr}: {e}")))?,
                );
            }
            responses
        }
    };
    Ok(responses.join("\n"))
}

fn parse_top_options(args: &[String]) -> Result<(String, Duration, u64), CliError> {
    let mut connect: Option<String> = None;
    let mut interval = Duration::from_millis(2000);
    let mut iterations: u64 = 0;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--connect" => connect = Some(value("--connect")?),
            "--interval-ms" => {
                let ms: u64 = parse_num(&value("--interval-ms")?, "--interval-ms")?;
                if ms == 0 {
                    return Err(CliError::Usage("--interval-ms must be at least 1".into()));
                }
                interval = Duration::from_millis(ms);
            }
            "--iterations" => {
                iterations = parse_num(&value("--iterations")?, "--iterations")?;
            }
            other => return Err(CliError::Usage(format!("unknown flag `{other}` for `top`"))),
        }
    }
    let connect =
        connect.ok_or_else(|| CliError::Usage("`top` needs --connect HOST:PORT".into()))?;
    Ok((connect, interval, iterations))
}

/// Runs the `top` subcommand: poll the `metrics` and `health` verbs on one
/// connection and repaint a one-screen dashboard every interval. With
/// `--iterations N` the loop stops after N frames and the final frame is
/// returned (so `--iterations 1` is a scriptable point-in-time snapshot);
/// the default runs until interrupted or the server goes away.
fn run_top(args: &[String]) -> Result<String, CliError> {
    let (addr, interval, iterations) = parse_top_options(args)?;
    let mut client = Client::connect(&addr)
        .map_err(|e| CliError::Solve(format!("connecting to {addr}: {e}")))?;
    let mut frames: u64 = 0;
    loop {
        let mut poll = |line: &str| -> Result<Json, CliError> {
            let response = client
                .roundtrip(line)
                .map_err(|e| CliError::Solve(format!("talking to {addr}: {e}")))?;
            slade_json::parse(&response)
                .map_err(|e| CliError::Solve(format!("unparseable response from {addr}: {e}")))
        };
        let metrics = poll(r#"{"op":"metrics"}"#)?;
        let health = poll(r#"{"op":"health"}"#)?;
        let frame = render_top(&addr, &metrics, &health);
        frames += 1;
        if iterations != 0 && frames >= iterations {
            return Ok(frame);
        }
        // Live repaint: clear the screen, home the cursor, draw. The final
        // frame is printed by `main` when the loop ever ends.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}

/// Renders one `top` frame from a `metrics` and a `health` response.
/// Missing members render as zeros/dashes rather than erroring, so a newer
/// CLI degrades gracefully against an older server.
fn render_top(addr: &str, metrics: &Json, health: &Json) -> String {
    let num = |root: &Json, path: &[&str]| -> f64 {
        let mut node = root;
        for key in path {
            match node.get(key) {
                Some(next) => node = next,
                None => return 0.0,
            }
        }
        node.as_f64().unwrap_or(0.0)
    };
    let status = health.get("status").and_then(Json::as_str).unwrap_or("?");
    let version = metrics
        .get("process")
        .and_then(|p| p.get("version"))
        .and_then(Json::as_str)
        .unwrap_or("?");
    let mut out = format!(
        "slade top — {addr} · status: {status} · v{version} · up {:.0}s\n",
        num(metrics, &["process", "uptime_seconds"])
    );
    out.push_str(&format!(
        "window {:.0}s: {:.0} req, {:.1} req/s · lifetime errors {:.0}, timeouts {:.0}\n",
        num(metrics, &["window", "seconds"]),
        num(metrics, &["window", "requests"]),
        num(metrics, &["window", "req_per_sec"]),
        num(metrics, &["ops", "errors"]),
        num(metrics, &["ops", "timeouts"]),
    ));
    out.push_str(&format!(
        "engine: queue {:.0}, threads {:.0}, steals {:.0} · cache: {:.0}/{:.0} entries, \
         hit rate {:.2}, evictions {:.0} · sessions {:.0}\n",
        num(metrics, &["engine", "queue_depth"]),
        num(metrics, &["engine", "threads"]),
        num(metrics, &["engine", "steals"]),
        num(metrics, &["cache", "entries"]),
        num(metrics, &["cache", "capacity"]),
        num(metrics, &["cache", "hit_rate"]),
        num(metrics, &["cache", "evictions"]),
        num(metrics, &["sessions", "active"]),
    ));
    out.push_str(&format!(
        "{:<10} {:>8} {:>8} {:>10} {:>10} {:>10}\n",
        "verb", "total", "win", "win p50", "win p90", "win p99"
    ));
    if let Some(latency) = metrics.get("latency").and_then(Json::members) {
        for (verb, stats) in latency {
            let total = num(stats, &["count"]);
            let windowed = num(stats, &["window_count"]);
            if total == 0.0 && windowed == 0.0 {
                continue;
            }
            out.push_str(&format!(
                "{verb:<10} {total:>8.0} {windowed:>8.0} {:>10} {:>10} {:>10}\n",
                fmt_ns(num(stats, &["window_p50_ns"])),
                fmt_ns(num(stats, &["window_p90_ns"])),
                fmt_ns(num(stats, &["window_p99_ns"])),
            ));
        }
    }
    if let Some(signals) = health.get("signals").and_then(Json::members) {
        let line: Vec<String> = signals
            .iter()
            .map(|(name, signal)| {
                let status = signal.get("status").and_then(Json::as_str).unwrap_or("?");
                format!("{name}:{status}")
            })
            .collect();
        out.push_str(&format!("health: {}\n", line.join(" ")));
    }
    if let Some(reasons) = health.get("reasons").and_then(Json::as_array) {
        for reason in reasons.iter().filter_map(Json::as_str) {
            out.push_str(&format!("  ! {reason}\n"));
        }
    }
    out
}

/// Human-scaled duration for the dashboard: ns → µs → ms → s.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn parse_batch_options(args: &[String]) -> Result<(usize, usize, bool), CliError> {
    let defaults = EngineConfig::default();
    let mut threads = defaults.threads;
    let mut cache = defaults.cache_capacity;
    let mut reuse = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--threads" => {
                threads = parse_num(&value("--threads")?, "--threads")?;
                if threads == 0 {
                    return Err(CliError::Usage("--threads must be at least 1".into()));
                }
            }
            "--cache" => {
                cache = parse_num(&value("--cache")?, "--cache")?;
            }
            "--reuse" => {
                reuse = true;
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown flag `{other}` for `batch`"
                )))
            }
        }
    }
    Ok((threads, cache, reuse))
}

/// Parses one JSONL request through the shared protocol parser
/// (`slade_server::protocol` — the same code the server runs). `line_no`
/// is 1-based and names the offending line in every error.
fn parse_request(
    line_no: usize,
    line: &str,
    default_bins: &Arc<BinSet>,
) -> Result<EngineRequest, CliError> {
    let value = slade_json::parse(line)
        .map_err(|e| CliError::Usage(format!("line {line_no}: invalid JSON: {e}")))?;
    protocol::parse_engine_request(&value, default_bins, &[])
        .map_err(|e| CliError::Usage(format!("line {line_no}: {e}")))
}

fn solve(opts: &Options) -> Result<DecompositionPlan, CliError> {
    opts.algorithm
        .solve(&opts.workload, &opts.bins)
        .map_err(|e| CliError::Solve(e.to_string()))
}

fn render_plan(plan: &DecompositionPlan, opts: &Options) -> String {
    let audit = plan
        .validate(&opts.workload, &opts.bins)
        .expect("solver plans are structurally valid");
    let mut out = format!(
        "algorithm = {}\ntasks = {}\nbins posted = {}\ntotal cost = {:.4}\n\
         feasible = {}\nmin slack = {:.4}",
        plan.algorithm(),
        opts.workload.len(),
        audit.bins_posted,
        audit.total_cost,
        audit.feasible,
        audit.min_slack,
    );
    if !audit.unsatisfied.is_empty() {
        out.push_str(&format!("\nunsatisfied tasks = {:?}", audit.unsatisfied));
    }
    out
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut algorithm = Algorithm::OpqBased;
    let mut tasks: u32 = 4;
    let mut threshold: f64 = 0.95;
    let mut thresholds: Option<Vec<f64>> = None;
    let mut bins: Option<String> = None;
    let mut trials: u32 = 4_000;
    let mut seed: u64 = 0xC0FFEE;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--algorithm" => {
                algorithm = value("--algorithm")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("{e}")))?;
            }
            "--tasks" => {
                tasks = parse_num(&value("--tasks")?, "--tasks")?;
            }
            "--threshold" => {
                threshold = parse_num(&value("--threshold")?, "--threshold")?;
            }
            "--thresholds" => {
                let raw = value("--thresholds")?;
                thresholds = Some(
                    raw.split(',')
                        .map(|s| parse_num(s, "--thresholds"))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--bins" => {
                bins = Some(value("--bins")?);
            }
            "--trials" => {
                trials = parse_num(&value("--trials")?, "--trials")?;
            }
            "--seed" => {
                seed = parse_num(&value("--seed")?, "--seed")?;
            }
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }

    let bins = match bins {
        Some(raw) => parse_bins(&raw)?,
        None => BinSet::paper_example(),
    };
    let workload = match thresholds {
        Some(ts) => Workload::heterogeneous(ts),
        None => Workload::homogeneous(tasks, threshold),
    }
    .map_err(|e| CliError::Usage(e.to_string()))?;

    Ok(Options {
        algorithm,
        bins,
        workload,
        trials,
        seed,
    })
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, CliError> {
    raw.trim()
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag}: cannot parse `{raw}`")))
}

/// Parses `l:r:c,l:r:c,...` into a validated bin set.
fn parse_bins(raw: &str) -> Result<BinSet, CliError> {
    let mut triples = Vec::new();
    for part in raw.split(',') {
        let fields: Vec<&str> = part.split(':').collect();
        let [l, r, c] = fields.as_slice() else {
            return Err(CliError::Usage(format!(
                "--bins: `{part}` is not a cardinality:confidence:cost triple"
            )));
        };
        triples.push((
            parse_num::<u32>(l, "--bins")?,
            parse_num::<f64>(r, "--bins")?,
            parse_num::<f64>(c, "--bins")?,
        ));
    }
    BinSet::new(triples).map_err(|e| CliError::Usage(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn default_solve_reproduces_example9() {
        let out = run(&argv("solve")).unwrap();
        assert!(out.contains("algorithm = OpqBased"), "{out}");
        assert!(out.contains("total cost = 0.6800"), "{out}");
        assert!(out.contains("feasible = true"), "{out}");
    }

    #[test]
    fn explicit_flags_are_honored() {
        let out = run(&argv(
            "solve --algorithm greedy --tasks 7 --threshold 0.9 --bins 1:0.8:0.1,4:0.7:0.3",
        ))
        .unwrap();
        assert!(out.contains("algorithm = Greedy"), "{out}");
        assert!(out.contains("tasks = 7"), "{out}");
        assert!(out.contains("feasible = true"), "{out}");
    }

    #[test]
    fn heterogeneous_thresholds_flag() {
        let out = run(&argv(
            "solve --algorithm opq-extended --thresholds 0.5,0.6,0.7,0.86",
        ))
        .unwrap();
        assert!(out.contains("tasks = 4"), "{out}");
        assert!(out.contains("feasible = true"), "{out}");
    }

    #[test]
    fn simulate_reports_empirical_reliability() {
        let out = run(&argv("simulate --trials 500 --seed 7")).unwrap();
        assert!(out.contains("simulation: trials = 500"), "{out}");
        assert!(out.contains("unreliable tasks = 0"), "{out}");
    }

    #[test]
    fn algorithms_lists_all() {
        let out = run(&argv("algorithms")).unwrap();
        for a in Algorithm::ALL {
            assert!(out.contains(a.name()));
        }
    }

    #[test]
    fn algorithm_flag_is_case_insensitive() {
        let out = run(&argv("solve --algorithm GREEDY --tasks 3")).unwrap();
        assert!(out.contains("algorithm = Greedy"), "{out}");
        let out = run(&argv("solve --algorithm Opq_Extended")).unwrap();
        assert!(out.contains("algorithm = OpqExtended"), "{out}");
    }

    #[test]
    fn unknown_algorithm_error_names_flag_and_lists_choices() {
        let err = run(&argv("solve --algorithm simplex")).unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("expected usage error");
        };
        assert!(msg.contains("`simplex`"), "{msg}");
        for a in Algorithm::ALL {
            assert!(msg.contains(a.name()), "missing {a} in: {msg}");
        }
    }

    #[test]
    fn unknown_flags_are_named() {
        let CliError::Usage(msg) = run(&argv("solve --frobnicate 3")).unwrap_err() else {
            panic!("expected usage error");
        };
        assert!(msg.contains("`--frobnicate`"), "{msg}");
        let CliError::Usage(msg) = run_batch(&argv("--tasks 4"), "").unwrap_err() else {
            panic!("expected usage error");
        };
        assert!(msg.contains("`--tasks`") && msg.contains("batch"), "{msg}");
    }

    #[test]
    fn batch_default_request_reproduces_example9() {
        // The cost prints in shortest-round-trip form — the exact
        // accumulated double (0.24+0.24+0.1+0.1), not a rounded 0.680000:
        // parse(output) gives back the bit-identical value.
        let out = run_batch(&argv("--threads 2"), "{}\n").unwrap();
        assert_eq!(
            out,
            "{\"request\":0,\"algorithm\":\"opq-based\",\"tasks\":4,\
             \"bins_posted\":4,\"cost\":0.6799999999999999,\"feasible\":true}"
        );
    }

    #[test]
    fn batch_mixed_stream_solves_in_input_order() {
        let input = r#"
            {"algorithm": "greedy", "tasks": 7, "threshold": 0.9}
            {"algorithm": "OPQ-EXTENDED", "thresholds": [0.5, 0.6, 0.7, 0.86]}
            {"tasks": 50, "threshold": 0.99, "bins": [[1, 0.8, 0.1], [4, 0.7, 0.3]], "seed": 3}
        "#;
        let out = run_batch(&argv("--threads 3 --cache 8"), input).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].contains("\"request\":0") && lines[0].contains("greedy"),
            "{out}"
        );
        assert!(lines[1].contains("\"request\":1") && lines[1].contains("opq-extended"));
        assert!(lines[2].contains("\"request\":2") && lines[2].contains("\"tasks\":50"));
        for line in &lines {
            assert!(line.contains("\"feasible\":true"), "{line}");
        }
    }

    #[test]
    fn batch_output_is_identical_across_thread_counts() {
        let input = r#"
            {"tasks": 300, "threshold": 0.95}
            {"algorithm": "opq-extended", "thresholds": [0.3, 0.55, 0.72, 0.9, 0.95]}
            {"algorithm": "baseline", "tasks": 25, "threshold": 0.9, "seed": 11}
            {"tasks": 300, "threshold": 0.95}
        "#;
        let one = run_batch(&argv("--threads 1"), input).unwrap();
        let eight = run_batch(&argv("--threads 8"), input).unwrap();
        assert_eq!(one, eight);
    }

    #[test]
    fn batch_solver_failures_become_error_lines() {
        // OPQ-Based rejects heterogeneous workloads; the stream continues.
        let input = "{\"thresholds\": [0.5, 0.9]}\n{\"tasks\": 2}\n";
        let out = run_batch(&argv(""), input).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("\"error\""), "{out}");
        assert!(lines[0].contains("homogeneous"), "{out}");
        assert!(lines[1].contains("\"feasible\":true"), "{out}");
    }

    #[test]
    fn batch_rejects_malformed_input_with_line_numbers() {
        let not_json = run_batch(&argv(""), "{}\n{oops}\n").unwrap_err();
        let CliError::Usage(msg) = not_json else {
            panic!("expected usage error")
        };
        assert!(msg.contains("line 2"), "{msg}");

        let unknown_field = run_batch(&argv(""), "{\"task\": 4}").unwrap_err();
        let CliError::Usage(msg) = unknown_field else {
            panic!("expected usage error")
        };
        assert!(msg.contains("`task`") && msg.contains("line 1"), "{msg}");

        let bad_type = run_batch(&argv(""), "{\"tasks\": \"four\"}").unwrap_err();
        let CliError::Usage(msg) = bad_type else {
            panic!("expected usage error")
        };
        assert!(msg.contains("tasks"), "{msg}");

        let duplicate = run_batch(&argv(""), "{\"tasks\": 5, \"tasks\": 9}").unwrap_err();
        let CliError::Usage(msg) = duplicate else {
            panic!("expected usage error")
        };
        assert!(msg.contains("duplicate"), "{msg}");

        let conflict =
            run_batch(&argv(""), "{\"thresholds\": [0.5, 0.9], \"tasks\": 1000}").unwrap_err();
        let CliError::Usage(msg) = conflict else {
            panic!("expected usage error")
        };
        assert!(
            msg.contains("conflicts") && msg.contains("`tasks`"),
            "{msg}"
        );

        let not_object = run_batch(&argv(""), "[1, 2]").unwrap_err();
        assert!(matches!(not_object, CliError::Usage(_)));
    }

    #[test]
    fn batch_parser_edge_cases_carry_precise_line_numbers() {
        // Overflowing exponent on line 3 of a stream.
        let overflow = "{}\n{\"tasks\": 2}\n{\"threshold\": 1e999}\n";
        let CliError::Usage(msg) = run_batch(&argv(""), overflow).unwrap_err() else {
            panic!("expected usage error");
        };
        assert!(msg.contains("line 3") && msg.contains("overflows"), "{msg}");

        // Pathologically nested bins payload on line 2: a depth error, not
        // a stack overflow.
        let deep = format!(
            "{{}}\n{{\"bins\": {}1{}}}\n",
            "[".repeat(5_000),
            "]".repeat(5_000)
        );
        let CliError::Usage(msg) = run_batch(&argv(""), &deep).unwrap_err() else {
            panic!("expected usage error");
        };
        assert!(
            msg.contains("line 2") && msg.contains("nesting deeper"),
            "{msg}"
        );

        // Lone surrogate in a string on line 1.
        let surrogate = "{\"algorithm\": \"\\ud800\"}\n";
        let CliError::Usage(msg) = run_batch(&argv(""), surrogate).unwrap_err() else {
            panic!("expected usage error");
        };
        assert!(msg.contains("line 1") && msg.contains("surrogate"), "{msg}");

        // Duplicate key at top level on line 2; blank lines do not advance
        // the reported number past the physical line.
        let duplicate = "\n{\"seed\": 1, \"seed\": 2}\n";
        let CliError::Usage(msg) = run_batch(&argv(""), duplicate).unwrap_err() else {
            panic!("expected usage error");
        };
        assert!(msg.contains("line 2") && msg.contains("duplicate"), "{msg}");
    }

    #[test]
    fn batch_reuse_flag_appends_cache_statistics() {
        // Three requests sharing one (BinSet, θ) fingerprint: one miss, the
        // rest hits, all visible in the trailing stats line. One thread, so
        // the stats are deterministic (two workers racing the same cold
        // fingerprint may legitimately both record a miss).
        let input = "{\"tasks\": 10}\n{\"tasks\": 40}\n{\"tasks\": 25}\n";
        let out = run_batch(&argv("--threads 1 --reuse"), input).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        let stats = lines[3];
        assert!(stats.contains("\"reuse\""), "{stats}");
        assert!(stats.contains("\"cache_misses\":1"), "{stats}");
        assert!(stats.contains("\"cache_hits\":2"), "{stats}");
        assert!(stats.contains("\"requests\":3"), "{stats}");
        // Without the flag the stream is unchanged.
        let plain = run_batch(&argv("--threads 2"), input).unwrap();
        assert_eq!(plain.lines().count(), 3);
        // An empty stream still reports (empty) stats.
        let empty = run_batch(&argv("--reuse"), "").unwrap();
        assert!(empty.starts_with("{\"reuse\""), "{empty}");
    }

    #[test]
    fn serve_and_client_round_trip_over_a_real_socket() {
        use std::sync::mpsc;
        use std::thread;
        use std::time::Duration;

        // Start the server through the CLI path on an ephemeral port; the
        // announce hook hands the bound address to the test.
        let (tx, rx) = mpsc::channel();
        let serving = thread::spawn(move || {
            run_serve(
                &argv("--addr 127.0.0.1:0 --threads 2 --cache 8"),
                &move |a| {
                    tx.send(a).unwrap();
                },
            )
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("server must announce its address");

        // The same JSONL lines `batch` accepts, plus protocol verbs; the
        // shutdown verb also stops the server, so `run_serve` returns.
        let input = format!(
            "{}\n{}\n{}\n{}\n",
            r#"{"tasks": 4, "threshold": 0.95}"#,
            r#"{"op":"solve","id":"w","algorithm":"greedy","tasks":6}"#,
            r#"{"op":"resubmit","id":"w","delta":{"resize":12}}"#,
            r#"{"op":"shutdown"}"#,
        );
        let out = run_client(&argv(&format!("--connect {addr}")), &input).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(
            lines[0].contains("\"tasks\":4") && lines[0].contains("\"feasible\":true"),
            "{out}"
        );
        assert!(lines[1].contains("\"id\":\"w\"") && lines[1].contains("greedy"));
        assert!(lines[2].contains("\"tasks\":12"), "{out}");
        assert!(lines[3].contains("\"op\":\"shutdown\""), "{out}");

        let summary = serving.join().unwrap().unwrap();
        assert!(summary.contains("shut down cleanly"), "{summary}");
    }

    #[test]
    fn serve_and_client_pipeline_round_trip_over_a_real_socket() {
        use std::sync::mpsc;
        use std::thread;
        use std::time::Duration;

        let (tx, rx) = mpsc::channel();
        let serving = thread::spawn(move || {
            run_serve(
                &argv("--addr 127.0.0.1:0 --threads 2 --cache 8 --max-inflight 4"),
                &move |a| {
                    tx.send(a).unwrap();
                },
            )
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("server must announce its address");

        // Eight pipelined solves, then the shutdown barrier: responses
        // print in request order with their echoed seq tags.
        let mut input = String::new();
        for n in 1..=8u32 {
            input.push_str(&format!("{{\"tasks\":{n},\"threshold\":0.9}}\n"));
        }
        input.push_str("{\"op\":\"shutdown\"}\n");
        let out = run_client(&argv(&format!("--connect {addr} --pipeline 4")), &input).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 9, "{out}");
        for (i, line) in lines[..8].iter().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i}")), "{i}: {line}");
            assert!(line.contains(&format!("\"tasks\":{}", i + 1)), "{line}");
            assert!(line.contains("\"feasible\":true"), "{line}");
        }
        assert!(lines[8].contains("\"op\":\"shutdown\""), "{out}");

        let summary = serving.join().unwrap().unwrap();
        assert!(summary.contains("shut down cleanly"), "{summary}");
    }

    #[test]
    fn serve_trace_log_round_trip_writes_jsonl_spans() {
        use std::sync::mpsc;
        use std::thread;
        use std::time::Duration;

        let log_path =
            std::env::temp_dir().join(format!("slade-cli-trace-log-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&log_path);

        let (tx, rx) = mpsc::channel();
        let flags = format!(
            "--addr 127.0.0.1:0 --threads 2 --cache 8 --trace-log {}",
            log_path.display()
        );
        let serving = thread::spawn(move || {
            run_serve(&argv(&flags), &move |a| {
                tx.send(a).unwrap();
            })
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("server must announce its address");

        let input = concat!(
            "{\"op\":\"solve\",\"tasks\":4,\"threshold\":0.95,\"trace\":true}\n",
            "{\"op\":\"shutdown\"}\n"
        );
        let out = run_client(&argv(&format!("--connect {addr}")), input).unwrap();
        assert!(
            out.contains("\"trace\":1"),
            "trace id must be echoed: {out}"
        );
        serving.join().unwrap().unwrap();

        let log = std::fs::read_to_string(&log_path).expect("trace log must exist");
        let spans: Vec<&str> = log.lines().collect();
        assert_eq!(spans.len(), 1, "one traced request, one JSONL span: {log}");
        let span = slade_json::parse(spans[0]).expect("span lines are JSON");
        assert_eq!(span.get("op").and_then(Json::as_str), Some("solve"));
        let events = span
            .get("events")
            .and_then(Json::as_array)
            .expect("span has events");
        let stages: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("stage").and_then(Json::as_str))
            .collect();
        assert!(stages.contains(&"queued"), "{stages:?}");
        assert!(stages.contains(&"written"), "{stages:?}");
        let _ = std::fs::remove_file(&log_path);
    }

    #[test]
    fn serve_and_client_flag_errors_are_usage_errors() {
        for bad in [
            "serve --frobnicate",
            "serve --threads 0",
            "serve --timeout-secs 0",
            "serve --max-inflight 0",
            "serve --cache-impl sharded",
            "serve --scheduler work-steal",
            "serve --addr",
            "serve --trace-log",
            "serve --slow-ms",
            "serve --slow-ms fast",
            "serve --journal",
            "serve --lease-ttl-secs",
            "serve --lease-ttl-secs x",
            "client",
            "client --port 80",
            "client --connect 127.0.0.1:9 --pipeline 0",
            "client --pipeline",
            "top",
            "top --connect",
            "top --connect 127.0.0.1:9 --interval-ms 0",
            "top --connect 127.0.0.1:9 --interval-ms",
            "top --connect 127.0.0.1:9 --iterations x",
            "top --frobnicate",
        ] {
            assert!(
                matches!(run(&argv(bad)), Err(CliError::Usage(_))),
                "`{bad}` must be a usage error"
            );
        }
        // A client pointed at nothing is a solve-stage failure, not usage.
        let err = run_client(&argv("--connect 127.0.0.1:9"), "{}\n").unwrap_err();
        assert!(matches!(err, CliError::Solve(_)), "{err:?}");
    }

    #[test]
    fn top_renders_a_dashboard_frame_from_canned_responses() {
        let metrics = slade_json::parse(
            r#"{"ok":true,"op":"metrics",
                "ops":{"solve":12,"errors":1,"timeouts":0},
                "cache":{"entries":3,"capacity":64,"hit_rate":0.5,"evictions":2},
                "engine":{"queue_depth":1,"threads":4,"steals":9},
                "sessions":{"active":2},
                "latency":{"solve":{"count":12,"window_count":5,
                    "window_p50_ns":1500,"window_p90_ns":2000000,
                    "window_p99_ns":3000000000},
                  "claim":{"count":0,"window_count":0}},
                "window":{"enabled":true,"seconds":60,"requests":5,"req_per_sec":0.25},
                "process":{"uptime_seconds":42,"version":"0.1.0"}}"#,
        )
        .unwrap();
        let health = slade_json::parse(
            r#"{"ok":true,"op":"health","status":"degraded",
                "reasons":["queue saturation 0.50 (depth 1 of capacity 2)"],
                "signals":{"queue":{"status":"degraded"},"timeouts":{"status":"ok"},
                           "errors":{"status":"ok"},"cache":{"status":"ok"},
                           "sessions":{"status":"ok"}}}"#,
        )
        .unwrap();
        let frame = render_top("127.0.0.1:7878", &metrics, &health);
        assert!(frame.contains("status: degraded"), "{frame}");
        assert!(frame.contains("v0.1.0"), "{frame}");
        assert!(frame.contains("window 60s: 5 req, 0.2 req/s"), "{frame}");
        assert!(frame.contains("queue 1, threads 4, steals 9"), "{frame}");
        // The per-verb table scales units and hides all-zero verbs.
        assert!(frame.contains("1.5µs"), "{frame}");
        assert!(frame.contains("2.0ms"), "{frame}");
        assert!(frame.contains("3.00s"), "{frame}");
        assert!(!frame.contains("claim"), "{frame}");
        assert!(frame.contains("health: queue:degraded"), "{frame}");
        assert!(frame.contains("! queue saturation 0.50"), "{frame}");
    }

    #[test]
    fn top_snapshots_a_live_server_and_metrics_addr_serves_prometheus() {
        use std::sync::mpsc;
        use std::thread;
        use std::time::Duration;

        let (tx, rx) = mpsc::channel();
        let serving = thread::spawn(move || {
            run_serve(
                &argv("--addr 127.0.0.1:0 --threads 2 --metrics-addr 127.0.0.1:0"),
                &move |a| {
                    tx.send(a).unwrap();
                },
            )
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("server must announce its address");

        // Some traffic, then a point-in-time dashboard frame.
        run_client(
            &argv(&format!("--connect {addr}")),
            "{\"tasks\":4,\"threshold\":0.95}\n",
        )
        .unwrap();
        let frame = run_top(&argv(&format!("--connect {addr} --iterations 1"))).unwrap();
        assert!(frame.contains("slade top"), "{frame}");
        assert!(frame.contains("status: ok"), "{frame}");
        assert!(frame.contains("solve"), "{frame}");
        assert!(frame.contains("health: queue:ok"), "{frame}");

        // The ephemeral metrics port is announced on stderr (not capturable
        // here); the HTTP responder itself is pinned by the server's e2e
        // tests. This test verifies the flag threads through `serve` and
        // the server runs and shuts down cleanly with the listener up.
        run_client(
            &argv(&format!("--connect {addr}")),
            "{\"op\":\"shutdown\"}\n",
        )
        .unwrap();
        let summary = serving.join().unwrap().unwrap();
        assert!(summary.contains("shut down cleanly"), "{summary}");
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run(&argv("frobnicate")), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&argv("solve --algorithm simplex")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv("solve --bins 1:0.9")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv("solve --tasks")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn solver_failures_use_the_solve_error_path() {
        // OPQ-Based rejects heterogeneous workloads.
        let err = run(&argv("solve --algorithm opq-based --thresholds 0.5,0.9")).unwrap_err();
        assert!(matches!(err, CliError::Solve(_)));
    }
}
