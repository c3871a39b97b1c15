//! The SLADE service benchmark. See `README.md` beside this crate for what
//! it measures and why; `run.sh` builds the server and this binary and
//! forwards its arguments here.

mod check;
mod layers;
mod loadgen;
mod rng;
mod server;
mod stats;
mod workload;

use check::UP_PROBE as SETUP_PROBE;
use layers::{Layers, StepTimes};
use loadgen::{answer_ok, closed_loop, number_member, open_loop, Keep, Ledger, PhaseSpec, Stream};
use server::{remove_file_if_present, Conn, ServerProcess, ServerSpec};
use slade_json::{member, Json};
use stats::{highest_supported_percentile, mean, median, quantile, windowed_quantile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Chain, Mix, CACHE_CAPACITY};

const USAGE: &str = "usage: perfbench --server-bin PATH --scratch DIR \
    --workload steady-mix|cold-menus|resubmit-journal|all \
    [--seed N] [--seconds S] [--trace 0|1]";

/// A seed kept out of every tuning run, for confirming later claims.
const HELD_OUT_SEED: u64 = 20_261_016;

/// Server spawns per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 21;

/// Kill-and-restart cycles per run; `recovery_s` is their lower quartile
/// (the host's quieter moments, as for the latency windows).
const RECOVERY_CYCLES: usize = 15;

/// Open-loop latency quantiles are taken per window of at least this many
/// requests, so p99 has ten samples beyond it in every window; see
/// [`windowed_quantile`] for how windows combine.
const MIN_WINDOW_SAMPLES: f64 = 1000.0;

/// Tagged requests each closed-loop connection keeps in flight (below the
/// server's default per-session cap of 32).
const WINDOW_PER_CONNECTION: usize = 8;

/// Low-load chains of the traced run start here in the stream, clear of
/// every chain the other phases reach.
const LOW_LOAD_BASE: u64 = 1 << 32;

/// End-to-end metrics printed by name but kept out of the result line:
/// their run-to-run spread on the 2-core host the benchmark was defined on
/// (p99 0.84 on steady-mix, recovery 0.29 on resubmit-journal, as IQR over
/// median across ten seeds) is wider than any usable regression bound.
const UNGATED: [&str; 2] = ["p99_ms", "recovery_s"];

/// The traced run's layer budget must land within this share of the
/// measured low-load median round trip.
const RECONCILE_TOLERANCE: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        server_bin: PathBuf::new(),
        scratch: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--server-bin" => args.server_bin = PathBuf::from(value()?),
            "--scratch" => args.scratch = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() || args.server_bin.as_os_str().is_empty() {
        return Err("--workload and --server-bin are required".into());
    }
    if args.scratch.as_os_str().is_empty() {
        return Err("--scratch is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mixes = if args.workload == "all" {
        Mix::ALL.to_vec()
    } else if let Some(mix) = Mix::parse(&args.workload) {
        vec![mix]
    } else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: creating {}: {e}", args.scratch.display());
        return ExitCode::FAILURE;
    }
    let mut code = ExitCode::SUCCESS;
    for mix in mixes {
        match run(mix, &args) {
            Ok(result) => println!("{result}"),
            Err(e) => {
                eprintln!("perfbench: {}: FAILED: {e}", mix.name());
                code = ExitCode::FAILURE;
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&args.scratch);
    code
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Counters the server exposes through its `metrics` verb.
#[derive(Debug, Default, Clone, Copy)]
struct ServerCounters {
    hits: f64,
    misses: f64,
    evictions: f64,
    singleflight_waits: f64,
    steals: f64,
    parks: f64,
    wakes: f64,
    lease_conflicts: f64,
}

fn server_counters(conn: &mut Conn) -> Result<ServerCounters, String> {
    let response = conn
        .roundtrip("{\"op\":\"metrics\"}")
        .map_err(|e| format!("metrics: {e}"))?;
    let json = slade_json::parse(&response).map_err(|e| format!("metrics: {e}"))?;
    let get = |section: &str, key: &str| {
        json.get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .ok_or(format!("metrics response lacks {section}.{key}"))
    };
    Ok(ServerCounters {
        hits: get("cache", "hits")?,
        misses: get("cache", "misses")?,
        evictions: get("cache", "evictions")?,
        singleflight_waits: get("cache", "singleflight_waits")?,
        steals: get("engine", "steals")?,
        parks: get("engine", "parks")?,
        wakes: get("engine", "wakes")?,
        lease_conflicts: get("store", "lease_conflicts")?,
    })
}

/// Waits until `conn` is the server's only session, so leases held by a
/// finished phase's connections are gone before the next phase starts.
fn wait_sole_session(conn: &mut Conn) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let response = conn
            .roundtrip("{\"op\":\"metrics\"}")
            .map_err(|e| format!("metrics: {e}"))?;
        let json = slade_json::parse(&response).map_err(|e| format!("metrics: {e}"))?;
        let active = json
            .get("sessions")
            .and_then(|s| s.get("active"))
            .and_then(Json::as_f64)
            .ok_or("metrics response lacks sessions.active")?;
        if active <= 1.0 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!("{active} sessions still open after a phase ended"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Mean wall time per phase (µs) from the `profile` verb.
fn profile_phases(conn: &mut Conn) -> Result<Vec<(&'static str, f64)>, String> {
    let response = conn
        .roundtrip("{\"op\":\"profile\"}")
        .map_err(|e| format!("profile: {e}"))?;
    let json = slade_json::parse(&response).map_err(|e| format!("profile: {e}"))?;
    ["queued", "dispatch", "solve", "merge", "write"]
        .into_iter()
        .map(|phase| {
            json.get("phases")
                .and_then(|p| p.get(phase))
                .and_then(|p| p.get("mean_ns"))
                .and_then(Json::as_f64)
                .map(|ns| (phase, ns / 1e3))
                .ok_or(format!("profile response lacks phases.{phase}"))
        })
        .collect()
}

/// Sends every step of `chains` untagged, one at a time, on an otherwise
/// idle server; returns each step's round trip (µs).
fn low_load(conn: &mut Conn, chains: &[Chain], ledger: &Ledger) -> Result<Vec<Vec<f64>>, String> {
    let mut rtts = Vec::with_capacity(chains.len());
    for chain in chains {
        let mut chain_rtts = Vec::with_capacity(chain.steps.len());
        for (step, line) in chain.steps.iter().enumerate() {
            let started = Instant::now();
            let response = conn.roundtrip(line).map_err(|e| format!("low load: {e}"))?;
            chain_rtts.push(started.elapsed().as_secs_f64() * 1e6);
            let ok = answer_ok(line, &response);
            ledger.count(ok);
            if !ok {
                return Err(format!("low load: {line} failed: {response}"));
            }
            ledger.landed(chain, step + 1);
        }
        rtts.push(chain_rtts);
    }
    Ok(rtts)
}

fn spawn_checked(spec: &ServerSpec, ledger: &Ledger) -> Result<(ServerProcess, f64), String> {
    let started = Instant::now();
    let server = ServerProcess::spawn(spec)?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connecting: {e}"))?;
    let response = conn
        .roundtrip(SETUP_PROBE)
        .map_err(|e| format!("setup probe: {e}"))?;
    let elapsed = started.elapsed().as_secs_f64();
    let ok = answer_ok(SETUP_PROBE, &response);
    ledger.count(ok);
    if !ok {
        return Err(format!("setup probe failed: {response}"));
    }
    Ok((server, elapsed))
}

fn run(mix: Mix, args: &Args) -> Result<String, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let connections = threads.min(2);
    let seed = args.seed;
    let journal = mix
        .journaled()
        .then(|| args.scratch.join(format!("{}.journal", mix.name())));
    let spec = ServerSpec {
        binary: args.server_bin.clone(),
        threads,
        cache: CACHE_CAPACITY,
        journal: journal.clone(),
    };
    // The open loop gets the larger share: its quantiles need the samples.
    let (open_secs, closed_secs) = if args.trace {
        (args.seconds / 4.0, args.seconds / 4.0)
    } else {
        (args.seconds * 0.6, args.seconds * 0.4)
    };
    let settings = Json::Object(vec![
        member("workload", Json::string(mix.name())),
        member("nproc", Json::number(threads as f64)),
        member("engine_threads", Json::number(threads as f64)),
        member("generator_threads", Json::number(connections.max(2) as f64)),
        member("connections", Json::number(connections as f64)),
        member(
            "window",
            Json::number((connections * WINDOW_PER_CONNECTION) as f64),
        ),
        member("offered_rps", Json::number(mix.offered_rps())),
        member("cache_entries", Json::number(CACHE_CAPACITY as f64)),
        member("seed", Json::number(seed as f64)),
        member("held_out_seed", Json::number(HELD_OUT_SEED as f64)),
        member("seconds", Json::number(args.seconds)),
        member("trace", Json::Bool(args.trace)),
        member("build", Json::string("release")),
    ]);
    println!("settings {settings}");
    if threads < 2 {
        println!("note: 1 CPU — parallel effects are not measurable on this host");
    }

    let ledger = Ledger::default();
    let offered_rps = mix.offered_rps();

    // Set-up: spawn → first answer of a fresh server (on a fresh journal,
    // if journaled), sampled in three groups spread over the run so that
    // one slow moment of the host does not set the median.
    let setup_spec = ServerSpec {
        journal: journal.as_ref().map(|_| args.scratch.join("setup.journal")),
        ..spec.clone()
    };
    let sample_setup = |setup_s: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_SAMPLES / 3 {
            if let Some(journal) = &setup_spec.journal {
                remove_file_if_present(journal)?;
            }
            let (server, elapsed) = spawn_checked(&setup_spec, &ledger)?;
            setup_s.push(elapsed);
            server.kill()?;
        }
        Ok(())
    };
    let mut setup_s = Vec::with_capacity(SETUP_SAMPLES);
    sample_setup(&mut setup_s)?;
    if let Some(journal) = &journal {
        remove_file_if_present(journal)?;
    }
    let (mut server, _) = spawn_checked(&spec, &ledger)?;
    let addr = server.addr;

    // The fixed seeded list: warm-up, plan-quality basis, checked sample.
    let stream = Stream::new(mix, seed);
    let window = WINDOW_PER_CONNECTION;
    closed_loop(
        addr,
        connections,
        window,
        &stream,
        &ledger,
        PhaseSpec {
            end: Some(mix.fixed_chains()),
            deadline: None,
            trace: false,
            keep: Keep::All,
        },
    )?;
    let (mut cost, mut tasks) = (0.0, 0.0);
    for response in ledger.recorded().values() {
        if let (Some(c), Some(n)) = (
            number_member(response, "cost"),
            number_member(response, "tasks"),
        ) {
            cost += c;
            tasks += n;
        }
    }
    ledger.keep_sampled(seed);
    let cost_per_task = cost / tasks;

    let mut admin = Conn::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    wait_sole_session(&mut admin)?;
    let before = server_counters(&mut admin)?;
    let answers_before = ledger
        .plan_answers
        .load(std::sync::atomic::Ordering::SeqCst);

    let open = open_loop(
        addr,
        &stream,
        &ledger,
        offered_rps,
        Duration::from_secs_f64(open_secs),
        Keep::Sampled,
    )?;
    sample_setup(&mut setup_s)?;
    wait_sole_session(&mut admin)?;
    let closed_ok = closed_loop(
        addr,
        connections,
        window,
        &stream,
        &ledger,
        PhaseSpec {
            end: None,
            deadline: Some(Instant::now() + Duration::from_secs_f64(closed_secs)),
            trace: false,
            keep: Keep::Sampled,
        },
    )?;
    let throughput_rps = closed_ok as f64 / closed_secs;
    let after = server_counters(&mut admin)?;
    let answers = ledger
        .plan_answers
        .load(std::sync::atomic::Ordering::SeqCst)
        - answers_before;
    let server_rss_mb = server
        .peak_rss_mb()
        .ok_or("reading the server's peak RSS from /proc")?;

    let mut per_layer: Metrics = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    if args.trace {
        wait_sole_session(&mut admin)?;
        let traced_ok = closed_loop(
            addr,
            connections,
            window,
            &stream,
            &ledger,
            PhaseSpec {
                end: None,
                deadline: Some(Instant::now() + Duration::from_secs_f64(closed_secs)),
                trace: true,
                keep: Keep::Nothing,
            },
        )?;
        let profile = profile_phases(&mut admin)?;
        wait_sole_session(&mut admin)?;
        trace_layers(
            mix,
            seed,
            threads,
            args.seconds / 4.0,
            &mut admin,
            &ledger,
            &mut per_layer,
            &mut notes,
        )?;
        let per_req = |x: f64| x / answers.max(1) as f64;
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        per_layer.extend([
            ("engine.hit_rate", hits / (hits + misses).max(1.0), "ratio"),
            (
                "engine.singleflight_waits",
                after.singleflight_waits - before.singleflight_waits,
                "count",
            ),
            (
                "engine.evictions",
                after.evictions - before.evictions,
                "count",
            ),
            (
                "engine.shards_per_req",
                ledger.shards.load(std::sync::atomic::Ordering::SeqCst) as f64
                    / ledger
                        .plan_answers
                        .load(std::sync::atomic::Ordering::SeqCst)
                        .max(1) as f64,
                "count",
            ),
            (
                "engine.steals_per_req",
                per_req(after.steals - before.steals),
                "count",
            ),
            (
                "engine.parks_per_req",
                per_req(after.parks - before.parks),
                "count",
            ),
            (
                "engine.wakes_per_req",
                per_req(after.wakes - before.wakes),
                "count",
            ),
            ("engine.lease_conflicts", after.lease_conflicts, "count"),
            (
                "obs.trace_overhead",
                closed_ok as f64 / traced_ok.max(1) as f64,
                "ratio",
            ),
            ("loadgen.late_ms", quantile(&open.late_ms, 0.99), "ms"),
        ]);
        for (phase, us) in profile {
            let name: &'static str = match phase {
                "queued" => "obs.profile.queued_us",
                "dispatch" => "obs.profile.dispatch_us",
                "solve" => "obs.profile.solve_us",
                "merge" => "obs.profile.merge_us",
                _ => "obs.profile.write_us",
            };
            per_layer.push((name, us, "us"));
        }
    }
    drop(admin);

    // Recovery: SIGKILL, restart (on the journal, if any), and time until
    // the probes are answered byte-identically (journaled: the first one).
    sample_setup(&mut setup_s)?;
    let check_engine = check::engine(threads);
    let probes = check::recovery_probes(&check_engine, mix, &ledger.slot_last(), seed)?;
    let timed = if mix.journaled() { 1 } else { probes.len() };
    let ask = |conn: &mut Conn, line: &str, expected: &str, when: &str| {
        let answer = conn.roundtrip(line).map_err(|e| format!("probe: {e}"))?;
        ledger.count(answer_ok(line, &answer));
        if answer != expected {
            return Err(format!(
                "{when}, {line} was answered\n  {answer}\nnot\n  {expected}"
            ));
        }
        Ok::<(), String>(())
    };
    let mut conn = Conn::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    wait_sole_session(&mut conn)?;
    for probe in &probes {
        ask(
            &mut conn,
            &probe.line,
            &probe.expected,
            "before the restart",
        )?;
    }
    drop(conn);
    let mut recovery_s = Vec::with_capacity(RECOVERY_CYCLES);
    for cycle in 0..RECOVERY_CYCLES {
        let killed = Instant::now();
        server.kill()?;
        server = ServerProcess::spawn(&spec)?;
        let mut conn = Conn::connect(server.addr).map_err(|e| format!("connecting: {e}"))?;
        for (i, probe) in probes.iter().enumerate() {
            ask(&mut conn, &probe.line, &probe.expected, "after a restart")?;
            if i + 1 == timed {
                recovery_s.push(killed.elapsed().as_secs_f64());
            }
        }
        if cycle + 1 == RECOVERY_CYCLES {
            for probe in &probes {
                ask(
                    &mut conn,
                    &probe.plan_line,
                    &probe.plan_expected,
                    "after a restart",
                )?;
            }
        }
    }
    println!("recovery cycles (s): {recovery_s:?}; setup samples (s): {setup_s:?}");
    if let Some(journal) = &journal {
        println!(
            "journal bytes at exit: {:?}",
            std::fs::metadata(journal).map(|m| m.len())
        );
    }
    server.shutdown()?;

    let compared = check::check_recorded(&check_engine, mix, seed, &ledger.recorded())?;
    let attempted = ledger.attempted.load(std::sync::atomic::Ordering::SeqCst);
    let failed = ledger.failed.load(std::sync::atomic::Ordering::SeqCst);

    let latencies = &open.latencies_ms;
    let tail = highest_supported_percentile(latencies.len());
    let per_window = MIN_WINDOW_SAMPLES.max(offered_rps).round() as usize;
    let mut e2e: Metrics = vec![
        ("throughput_rps", throughput_rps, "1/s"),
        (
            "p50_ms",
            windowed_quantile(latencies, per_window, 0.5),
            "ms",
        ),
        (
            "p99_ms",
            windowed_quantile(latencies, per_window, 0.99),
            "ms",
        ),
        ("setup_s", median(&setup_s), "s"),
        ("recovery_s", quantile(&recovery_s, 0.25), "s"),
        ("server_rss_mb", server_rss_mb, "MiB"),
        ("cost_per_task", cost_per_task, "cost/task"),
    ];
    println!(
        "{}: {attempted} requests attempted, {failed} failed, {compared} responses compared byte for byte",
        mix.name()
    );
    println!(
        "error_rate = {} (failed / attempted; carried by the result's `failed` and `attempted`)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "open loop quantiles: p50={} p90={} p99={} p99.9={} max={}",
        median(latencies),
        quantile(latencies, 0.9),
        quantile(latencies, 0.99),
        quantile(latencies, 0.999),
        quantile(latencies, 1.0)
    );
    if let Some(p) = tail {
        println!(
            "open loop: {} samples; highest percentile with >= 10 samples beyond it: p{p} = {} ms",
            latencies.len(),
            quantile(latencies, p / 100.0)
        );
    }
    if latencies.len() < 1000 {
        println!("note: fewer than 1000 open-loop samples; p99_ms has fewer than 10 beyond it");
    }
    for note in &notes {
        println!("{note}");
    }
    let reported = if args.trace { &mut per_layer } else { &mut e2e };
    for (name, value, unit) in reported.iter_mut() {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number ({value})"));
        }
        println!("{name} = {value} {unit}");
    }
    let metrics = Json::Object(
        reported
            .iter()
            .filter(|(name, _, _)| !UNGATED.contains(name))
            .map(|(name, value, unit)| {
                member(
                    name,
                    Json::Object(vec![
                        member("value", Json::number(*value)),
                        member("unit", Json::string(*unit)),
                    ]),
                )
            })
            .collect(),
    );
    Ok(Json::Object(vec![
        member("correct", Json::Bool(failed == 0)),
        member("attempted", Json::number(attempted as f64)),
        member("failed", Json::number(failed as f64)),
        member("metrics", metrics),
    ])
    .to_string())
}

/// The traced run's layer budget: low-load round trips on the idle server,
/// the same requests through every layer in-process, and the
/// reconciliation of the two.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    mix: Mix,
    seed: u64,
    threads: usize,
    seconds: f64,
    conn: &mut Conn,
    ledger: &Ledger,
    per_layer: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    // Transport: a trivial warm request's round trip minus its layers.
    let tiny = Chain {
        index: 0,
        id: None,
        steps: vec![SETUP_PROBE.to_string()],
        handoff: false,
    };
    let mut probe_layers = Layers::new(threads, false);
    let mut tiny_rtt = Vec::new();
    let mut tiny_budget = Vec::new();
    for _ in 0..200 {
        tiny_rtt.extend(low_load(conn, std::slice::from_ref(&tiny), ledger)?.concat());
        tiny_budget.push(probe_layers.measure_chain(&tiny, false)?[0].budget());
    }
    let transport = median(&tiny_rtt) - median(&tiny_budget);

    // Low-load round trips for a time-boxed sample of fresh chains.
    let started = Instant::now();
    let mut chains = Vec::new();
    let mut rtts = Vec::new();
    for index in LOW_LOAD_BASE.. {
        if started.elapsed().as_secs_f64() > seconds / 2.0 || chains.len() >= 400 {
            break;
        }
        let chain = mix.chain(seed, index);
        rtts.extend(low_load(conn, std::slice::from_ref(&chain), ledger)?);
        chains.push(chain);
    }

    // The same requests through every layer in-process, after the same
    // warm-up the server had (the fixed list).
    let mut layers = Layers::new(threads, mix.journaled());
    if mix != Mix::Cold {
        for index in 0..mix.fixed_chains() {
            layers.measure_chain(&mix.chain(seed, index), false)?;
        }
    }
    let mut rtt = Vec::new();
    let mut budget = Vec::new();
    let mut wire = Vec::new();
    for (chain, chain_rtts) in chains.iter().zip(&rtts) {
        for (times, &round_trip) in layers.measure_chain(chain, true)?.iter().zip(chain_rtts) {
            rtt.push(round_trip);
            budget.push(times.budget() + transport);
            wire.push(round_trip - times.engine);
        }
    }

    let steps: &[StepTimes] = &layers.steps;
    let over = |f: &dyn Fn(&StepTimes) -> Option<f64>| {
        mean(&steps.iter().filter_map(f).collect::<Vec<_>>())
    };
    // A solver the sample never reached reads 0 (noted below).
    let per_solver = |samples: &std::collections::BTreeMap<&'static str, Vec<f64>>, name: &str| {
        samples.get(name).map_or(0.0, |v| mean(v))
    };
    for solver in ["opq-based", "greedy"] {
        if !layers.prepare.contains_key(solver) || !layers.solve_with.contains_key(solver) {
            notes.push(format!("note: the traced sample reached no {solver} shard"));
        }
    }
    let unattributed = median(&rtt) - median(&budget);
    let reconciled = unattributed.abs() <= RECONCILE_TOLERANCE * median(&rtt);
    notes.push(format!(
        "reconciliation: low-load p50 {:.1} us over {} steps, layer budget p50 {:.1} us \
         (transport {:.1} us), unattributed {:.1} us — {} within {}%",
        median(&rtt),
        rtt.len(),
        median(&budget),
        transport,
        unattributed,
        if reconciled {
            "reconciled"
        } else {
            "NOT reconciled"
        },
        RECONCILE_TOLERANCE * 100.0,
    ));
    for (solver, samples) in &layers.prepare {
        notes.push(format!(
            "core.prepare_us.{solver} = {} us over {} keys",
            mean(samples),
            samples.len()
        ));
    }
    for (solver, samples) in &layers.solve_with {
        notes.push(format!(
            "core.solve_with_us.{solver} = {} us over {} shards",
            mean(samples),
            samples.len()
        ));
    }
    per_layer.extend([
        ("json.parse_us", over(&|t| Some(t.json_parse)), "us"),
        ("json.render_us", over(&|t| Some(t.render)), "us"),
        (
            "protocol.parse_request_us",
            over(&|t| Some(t.parse_request)),
            "us",
        ),
        (
            "core.prepare_us.opq-based",
            per_solver(&layers.prepare, "opq-based"),
            "us",
        ),
        (
            "core.prepare_us.greedy",
            per_solver(&layers.prepare, "greedy"),
            "us",
        ),
        (
            "core.solve_with_us.opq-based",
            per_solver(&layers.solve_with, "opq-based"),
            "us",
        ),
        (
            "core.solve_with_us.greedy",
            per_solver(&layers.solve_with, "greedy"),
            "us",
        ),
        ("core.validate_us", over(&|t| Some(t.validate)), "us"),
        (
            "core.prepare_share",
            over(&|t| t.core.map(|core| t.prepare / core.max(f64::MIN_POSITIVE))),
            "ratio",
        ),
        (
            "engine.overhead_us",
            over(&|t| t.core.map(|core| t.engine - core)),
            "us",
        ),
        ("engine.resubmit_us", mean(&layers.resubmit), "us"),
        (
            "engine.reuse_ratio",
            layers.reused_shards as f64 / layers.resubmit_shards.max(1) as f64,
            "ratio",
        ),
        ("engine.codec.encode_us", mean(&layers.encode), "us"),
        ("engine.codec.decode_us", mean(&layers.decode), "us"),
        ("server.wire_overhead_us", median(&wire), "us"),
        (
            "server.journal_bytes_per_op",
            mean(&layers.record_bytes),
            "bytes",
        ),
        ("unattributed_us", unattributed, "us"),
    ]);
    notes.push(format!("lowload.p50_ms = {} ms", median(&rtt) / 1e3));
    Ok(())
}
