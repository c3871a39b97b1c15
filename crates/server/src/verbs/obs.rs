//! The observability verbs — `stats`, `metrics`, `trace`, `health` and
//! `profile` — with the health evaluation and the gauge refresh that the
//! Prometheus exposition shares.

use crate::server::{latency_verbs, Shared, ENGINE_VERBS};
use crate::session::Session;
use slade_core::solver::Algorithm;
use slade_json::{member, Json};
use slade_obs::{RegistrySnapshot, SpanRecord};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// The `ops` members of a `stats` response, in their wire order: the
/// original nine, then the later ones appended.
const STATS_OPS: [&str; 14] = [
    "solve",
    "batch",
    "resubmit",
    "claim",
    "release",
    "stats",
    "shutdown",
    "pipelined",
    "errors",
    "metrics",
    "trace",
    "timeouts",
    "health",
    "profile",
];

impl Session<'_> {
    /// The `stats` verb: a reshaped subset of the `metrics` document. Every
    /// number comes from one `metrics` render except `max_inflight`, which
    /// is configuration. Members keep their historical names and order
    /// (new ones were only ever appended), so the bytes are stable.
    pub(crate) fn stats_response(&self) -> Json {
        let metrics = self.metrics_response();
        let section = |name: &str| metrics.get(name).expect("metrics renders every section");
        let value = |name: &str, key: &str| {
            section(name)
                .get(key)
                .cloned()
                .expect("metrics renders every member stats reports")
        };
        let pick = |name: &str, keys: &[&str]| {
            Json::Object(
                keys.iter()
                    .map(|key| member(key, value(name, key)))
                    .collect(),
            )
        };
        Json::Object(vec![
            member("ok", Json::Bool(true)),
            member("op", Json::string("stats")),
            member(
                "cache",
                pick("cache", &["hits", "misses", "entries", "capacity"]),
            ),
            member("ops", pick("ops", &STATS_OPS)),
            member("algorithms", section("algorithms").clone()),
            member("connections", value("sessions", "active")),
            member("plans", value("store", "plans")),
            member("leases", value("store", "leases")),
            member("steals", value("engine", "steals")),
            member("threads", value("engine", "threads")),
            member(
                "max_inflight",
                Json::number(self.shared.max_inflight as f64),
            ),
            member("queue_depth", value("engine", "queue_depth")),
            member("sessions", value("sessions", "opened")),
            member("timeouts", section("timeouts").clone()),
        ])
    }

    /// The `metrics` verb: a self-consistent JSON snapshot of every
    /// registered metric plus engine / store / session state, and the one
    /// renderer of those numbers (`stats` reshapes this document). The op
    /// counters come from the same registry snapshot as the histograms, so
    /// at quiescence `latency.<verb>.count == ops.<verb>` for every verb in
    /// [`latency_verbs`].
    pub(crate) fn metrics_response(&self) -> Json {
        let shared = self.shared;
        let cache = shared.engine.cache_stats();
        let shard_occupancy = refresh_gauges(shared);
        let snapshot = shared.obs.registry.snapshot();
        let ops: Vec<(String, Json)> = snapshot
            .counters
            .iter()
            .filter_map(|(name, value)| {
                name.strip_prefix("ops.")
                    .map(|verb| member(verb, Json::number(*value as f64)))
            })
            .collect();
        let latency: Vec<(String, Json)> = latency_verbs()
            .map(|verb| {
                let snap = snapshot
                    .histograms
                    .get(&format!("latency.{verb}"))
                    .cloned()
                    .unwrap_or_default();
                let window = snapshot
                    .windows
                    .get(&format!("latency.{verb}"))
                    .cloned()
                    .unwrap_or_default();
                member(
                    verb,
                    Json::Object(vec![
                        member("count", Json::number(snap.count() as f64)),
                        member("p50_ns", Json::number(snap.quantile(0.50) as f64)),
                        member("p90_ns", Json::number(snap.quantile(0.90) as f64)),
                        member("p99_ns", Json::number(snap.quantile(0.99) as f64)),
                        member("mean_ns", Json::number(snap.mean() as f64)),
                        // Windowed members append after the lifetime ones
                        // (wire compatibility): the same quantiles over
                        // roughly the last `window.seconds`.
                        member("window_count", Json::number(window.snapshot.count() as f64)),
                        member(
                            "window_p50_ns",
                            Json::number(window.snapshot.quantile(0.50) as f64),
                        ),
                        member(
                            "window_p90_ns",
                            Json::number(window.snapshot.quantile(0.90) as f64),
                        ),
                        member(
                            "window_p99_ns",
                            Json::number(window.snapshot.quantile(0.99) as f64),
                        ),
                        member("window_per_sec", Json::number(window.per_sec())),
                    ]),
                )
            })
            .collect();
        // Aggregate req/s across the latency-tracked verbs: total windowed
        // samples over the longest covered span (the per-verb rings share
        // one configuration, so spans agree to within a rotation).
        let latency_windows = || {
            snapshot
                .windows
                .iter()
                .filter(|(name, _)| name.starts_with("latency."))
                .map(|(_, view)| view)
        };
        let window_requests: u64 = latency_windows().map(|view| view.snapshot.count()).sum();
        let window_span = latency_windows()
            .map(|view| view.span)
            .max()
            .unwrap_or(Duration::ZERO);
        let window_req_per_sec = if window_span.as_secs_f64() > 0.0 {
            window_requests as f64 / window_span.as_secs_f64()
        } else {
            0.0
        };
        Json::Object(vec![
            member("ok", Json::Bool(true)),
            member("op", Json::string("metrics")),
            member("ops", Json::Object(ops)),
            member(
                "cache",
                Json::Object(vec![
                    member("hits", Json::number(cache.hits as f64)),
                    member("misses", Json::number(cache.misses as f64)),
                    member("hit_rate", Json::number(cache.hit_rate())),
                    // Fields below append after the original three, so
                    // clients reading the original fields see identical
                    // bytes (same rule as the stats `ops` object).
                    member("entries", Json::number(cache.entries as f64)),
                    member("capacity", Json::number(cache.capacity as f64)),
                    member("evictions", Json::number(cache.evictions as f64)),
                    member(
                        "singleflight_waits",
                        Json::number(cache.singleflight_waits as f64),
                    ),
                    member("shards", Json::number(shard_occupancy.len() as f64)),
                    member(
                        "shard_occupancy",
                        Json::Array(
                            shard_occupancy
                                .iter()
                                .map(|&occupancy| Json::number(occupancy as f64))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            member(
                "engine",
                Json::Object(vec![
                    member(
                        "queue_depth",
                        Json::number(shared.engine.queue_depth() as f64),
                    ),
                    member("steals", Json::number(shared.engine.steals() as f64)),
                    member("parks", Json::number(shared.engine.parks() as f64)),
                    member("wakes", Json::number(shared.engine.wakes() as f64)),
                    member("threads", Json::number(shared.engine.threads() as f64)),
                ]),
            ),
            member(
                "store",
                Json::Object(vec![
                    member("plans", Json::number(shared.store.count() as f64)),
                    member("leases", Json::number(shared.store.leases() as f64)),
                    member(
                        "lease_conflicts",
                        Json::number(shared.store.lease_conflicts() as f64),
                    ),
                    // Appended members (wire compatibility: new members
                    // land after every pre-existing one).
                    member(
                        "lease_expiries",
                        Json::number(shared.store.lease_expiries() as f64),
                    ),
                ]),
            ),
            member(
                "sessions",
                Json::Object(vec![
                    member(
                        "active",
                        Json::number(shared.connections.load(Ordering::SeqCst) as f64),
                    ),
                    member(
                        "opened",
                        Json::number((shared.next_session.load(Ordering::SeqCst) - 1) as f64),
                    ),
                ]),
            ),
            member("latency", Json::Object(latency)),
            member(
                "traces",
                Json::Object(vec![
                    member("recorded", Json::number(shared.obs.ring.pushed() as f64)),
                    member("capacity", Json::number(shared.obs.ring.capacity() as f64)),
                ]),
            ),
            // Sections below append after every pre-existing one (wire
            // compatibility, same rule as the nested objects above).
            member(
                "window",
                Json::Object(vec![
                    member("enabled", Json::Bool(!shared.window.is_zero())),
                    member("seconds", Json::number(shared.window.as_secs_f64())),
                    member("requests", Json::number(window_requests as f64)),
                    member("req_per_sec", Json::number(window_req_per_sec)),
                ]),
            ),
            member(
                "timeouts",
                Json::Object(
                    ENGINE_VERBS
                        .iter()
                        .zip(&shared.counters.verb_timeouts)
                        .map(|(verb, c)| member(verb, Json::number(c.get() as f64)))
                        .collect(),
                ),
            ),
            member(
                "process",
                Json::Object(vec![
                    member(
                        "uptime_seconds",
                        Json::number(shared.started.elapsed().as_secs_f64()),
                    ),
                    member("version", Json::string(env!("CARGO_PKG_VERSION"))),
                ]),
            ),
            member(
                "journal",
                match &shared.journal {
                    None => Json::Object(vec![member("enabled", Json::Bool(false))]),
                    Some(journal) => Json::Object(vec![
                        member("enabled", Json::Bool(true)),
                        member("records", Json::number(journal.records() as f64)),
                        member("replayed", Json::number(journal.replayed() as f64)),
                        member(
                            "append_errors",
                            Json::number(journal.append_errors() as f64),
                        ),
                        member("compactions", Json::number(journal.compactions() as f64)),
                        member(
                            "compact_us",
                            journal_us_json(&snapshot, "journal.compact_us"),
                        ),
                        member(
                            "compact_hold_us",
                            journal_us_json(&snapshot, "journal.compact_hold_us"),
                        ),
                    ]),
                },
            ),
            member(
                "algorithms",
                Json::Object(
                    Algorithm::ALL
                        .iter()
                        .zip(&shared.counters.algorithms)
                        .map(|(a, c)| member(a.name(), Json::number(c.get() as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The `trace` verb: the retained completed spans, oldest first;
    /// `limit` keeps only the newest N.
    pub(crate) fn trace_response(&self, limit: Option<usize>) -> Json {
        let mut spans = self.shared.obs.ring.snapshot();
        if let Some(limit) = limit {
            if spans.len() > limit {
                spans.drain(..spans.len() - limit);
            }
        }
        Json::Object(vec![
            member("ok", Json::Bool(true)),
            member("op", Json::string("trace")),
            member(
                "spans",
                Json::Array(spans.iter().map(span_to_json).collect()),
            ),
        ])
    }

    /// The `health` verb: readiness computed from live signals, with
    /// per-signal status and human-readable reasons for anything that is
    /// not `ok`. Also refreshes the `health.*` gauges, so a Prometheus
    /// scrape between health checks reports the last evaluation.
    pub(crate) fn health_response(&self) -> Json {
        let report = evaluate_health(self.shared);
        let signals = report
            .signals
            .iter()
            .map(|signal| {
                let mut members = vec![member("status", Json::string(signal.status))];
                members.extend(signal.detail.iter().cloned());
                member(signal.name, Json::Object(members))
            })
            .collect();
        let reasons = report
            .signals
            .iter()
            .filter_map(|signal| signal.reason.as_ref())
            .map(Json::string)
            .collect();
        Json::Object(vec![
            member("ok", Json::Bool(true)),
            member("op", Json::string("health")),
            member("status", Json::string(report.status)),
            member("reasons", Json::Array(reasons)),
            member("signals", Json::Object(signals)),
        ])
    }

    /// The `profile` verb: the `SpanRing`'s completed spans aggregated
    /// into a per-phase wall-time breakdown — queued, admitted→dispatched,
    /// per-shard solve (split by steal provenance), merge, and write.
    /// `limit` aggregates only the newest N spans. Only traced requests
    /// land in the ring, so the profile covers what `trace` covers.
    pub(crate) fn profile_response(&self, limit: Option<usize>) -> Json {
        let mut spans = self.shared.obs.ring.snapshot();
        if let Some(limit) = limit {
            if spans.len() > limit {
                spans.drain(..spans.len() - limit);
            }
        }
        let mut queued = PhaseAgg::default();
        let mut dispatch = PhaseAgg::default();
        let mut solve = PhaseAgg::default();
        let mut solve_local = PhaseAgg::default();
        let mut solve_stolen = PhaseAgg::default();
        let mut merge = PhaseAgg::default();
        let mut write = PhaseAgg::default();
        let mut expired = 0u64;
        for span in &spans {
            let first = |stage: &str| {
                span.events
                    .iter()
                    .find(|e| e.stage == stage)
                    .map(|e| e.at_ns)
            };
            let last = |stage: &str| {
                span.events
                    .iter()
                    .rev()
                    .find(|e| e.stage == stage)
                    .map(|e| e.at_ns)
            };
            if span.events.iter().any(|e| e.stage == "expired") {
                expired += 1;
            }
            if let (Some(q), Some(a)) = (first("queued"), first("admitted")) {
                queued.add(a.saturating_sub(q));
            }
            if let (Some(a), Some(d)) = (first("admitted"), first("dispatched")) {
                dispatch.add(d.saturating_sub(a));
            }
            // Pair shard_start/shard_finish FIFO per shard index (a batch
            // span legitimately reuses shard indices across sub-requests).
            let mut open: BTreeMap<usize, std::collections::VecDeque<&slade_obs::StageEvent>> =
                BTreeMap::new();
            for event in &span.events {
                let Some(shard) = event.shard else { continue };
                match event.stage {
                    "shard_start" => open.entry(shard).or_default().push_back(event),
                    "shard_finish" => {
                        let Some(start) = open.get_mut(&shard).and_then(|q| q.pop_front()) else {
                            continue;
                        };
                        let ns = event.at_ns.saturating_sub(start.at_ns);
                        solve.add(ns);
                        if start.stolen == Some(true) {
                            solve_stolen.add(ns);
                        } else {
                            solve_local.add(ns);
                        }
                    }
                    _ => {}
                }
            }
            if let Some(m) = last("merged") {
                let solved = last("shard_finish").or_else(|| first("dispatched"));
                if let Some(s) = solved {
                    merge.add(m.saturating_sub(s));
                }
                if let Some(w) = first("written") {
                    write.add(w.saturating_sub(m));
                }
            }
        }
        Json::Object(vec![
            member("ok", Json::Bool(true)),
            member("op", Json::string("profile")),
            member("spans", Json::number(spans.len() as f64)),
            member("expired", Json::number(expired as f64)),
            member(
                "phases",
                Json::Object(vec![
                    member("queued", queued.to_json()),
                    member("dispatch", dispatch.to_json()),
                    member("solve", solve.to_json()),
                    member("solve_local", solve_local.to_json()),
                    member("solve_stolen", solve_stolen.to_json()),
                    member("merge", merge.to_json()),
                    member("write", write.to_json()),
                ]),
            ),
        ])
    }
}

/// Serializes one completed span — the shape shared by the `trace` verb's
/// `spans` entries and the `--trace-log` JSONL lines.
pub(crate) fn span_to_json(record: &SpanRecord) -> Json {
    let mut members = vec![
        member("id", Json::number(record.id as f64)),
        member("op", Json::string(record.op)),
    ];
    if let Some(seq) = &record.seq {
        members.push(member("seq", Json::string(seq)));
    }
    members.push(member("total_ns", Json::number(record.total_ns as f64)));
    members.push(member(
        "stolen_shards",
        Json::number(record.stolen_shards as f64),
    ));
    let events: Vec<Json> = record
        .events
        .iter()
        .map(|event| {
            let mut fields = vec![
                member("stage", Json::string(event.stage)),
                member("at_ns", Json::number(event.at_ns as f64)),
            ];
            if let Some(shard) = event.shard {
                fields.push(member("shard", Json::number(shard as f64)));
            }
            if let Some(worker) = event.worker {
                fields.push(member("worker", Json::number(worker as f64)));
            }
            if let Some(stolen) = event.stolen {
                fields.push(member("stolen", Json::Bool(stolen)));
            }
            Json::Object(fields)
        })
        .collect();
    members.push(member("events", Json::Array(events)));
    Json::Object(members)
}

/// One wall-time phase aggregated across spans by the `profile` verb.
#[derive(Default)]
struct PhaseAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl PhaseAgg {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    fn to_json(&self) -> Json {
        let mean = self.total_ns.checked_div(self.count).unwrap_or(0);
        Json::Object(vec![
            member("count", Json::number(self.count as f64)),
            member("total_ns", Json::number(self.total_ns as f64)),
            member("mean_ns", Json::number(mean as f64)),
            member("max_ns", Json::number(self.max_ns as f64)),
        ])
    }
}

/// A journal histogram (`journal.compact_us`, `journal.compact_hold_us`)
/// as the `metrics` verb's member of the same name under `journal`:
/// lifetime count, quantiles (log₂-bucket upper bounds) and mean, then the
/// windowed count and quantiles — all in microseconds.
fn journal_us_json(snapshot: &RegistrySnapshot, name: &str) -> Json {
    let lifetime = snapshot.histograms.get(name).cloned().unwrap_or_default();
    let window = snapshot
        .windows
        .get(name)
        .map(|view| view.snapshot.clone())
        .unwrap_or_default();
    Json::Object(vec![
        member("count", Json::number(lifetime.count() as f64)),
        member("p50", Json::number(lifetime.quantile(0.50) as f64)),
        member("p90", Json::number(lifetime.quantile(0.90) as f64)),
        member("p99", Json::number(lifetime.quantile(0.99) as f64)),
        member("mean", Json::number(lifetime.mean() as f64)),
        member("window_count", Json::number(window.count() as f64)),
        member("window_p50", Json::number(window.quantile(0.50) as f64)),
        member("window_p99", Json::number(window.quantile(0.99) as f64)),
    ])
}

/// Refreshes the registry gauges that mirror externally-owned state — the
/// engine's cache counters, the process uptime, the plan store's O(1)
/// counters and, when journaling is on, the journal's — and returns the
/// per-shard cache occupancy for callers that also report it. Reader-driven
/// like the window rings: the `metrics` verb and the health evaluation
/// (which every Prometheus scrape runs) call this; nothing on the solve
/// path does.
fn refresh_gauges(shared: &Shared) -> Vec<usize> {
    let registry = &shared.obs.registry;
    let cache = shared.engine.cache_stats();
    registry.gauge("cache.entries").set(cache.entries as i64);
    registry
        .gauge("cache.evictions")
        .set(cache.evictions as i64);
    registry
        .gauge("cache.singleflight_waits")
        .set(cache.singleflight_waits as i64);
    let shard_occupancy = shared.engine.cache_shard_occupancy();
    for (i, occupancy) in shard_occupancy.iter().enumerate() {
        registry
            .gauge(&format!("cache.shard.{i}.entries"))
            .set(*occupancy as i64);
    }
    registry
        .gauge("process.uptime_seconds")
        .set(shared.started.elapsed().as_secs() as i64);
    let store = &shared.store;
    registry.gauge("store.plans").set(store.count() as i64);
    registry.gauge("store.leases").set(store.leases() as i64);
    registry
        .gauge("store.lease_conflicts")
        .set(store.lease_conflicts() as i64);
    registry
        .gauge("store.lease_expiries")
        .set(store.lease_expiries() as i64);
    if let Some(journal) = &shared.journal {
        registry
            .gauge("journal.records")
            .set(journal.records() as i64);
        registry
            .gauge("journal.replayed")
            .set(journal.replayed() as i64);
        registry
            .gauge("journal.append_errors")
            .set(journal.append_errors() as i64);
        registry
            .gauge("journal.compactions")
            .set(journal.compactions() as i64);
    }
    shard_occupancy
}

/// Saturation thresholds for the health verb's signals: a signal is
/// `degraded` at its first bound and `unhealthy` at its second. Queue
/// saturation is depth/capacity; timeout and error rates are windowed
/// ratios of the windowed request total; cache pressure is windowed
/// evictions per cache-capacity's worth of entries.
const QUEUE_DEGRADED: f64 = 0.5;
const QUEUE_UNHEALTHY: f64 = 1.0;
const RATIO_DEGRADED: f64 = 0.10;
const RATIO_UNHEALTHY: f64 = 0.50;
const CACHE_DEGRADED: f64 = 1.0;
const CACHE_UNHEALTHY: f64 = 4.0;

/// One evaluated health signal: its name, verdict, an explanation when the
/// verdict is not `ok`, and the raw numbers behind it.
struct HealthSignal {
    name: &'static str,
    status: &'static str,
    reason: Option<String>,
    detail: Vec<(String, Json)>,
}

/// The health verb's full verdict: overall status (the worst signal) plus
/// every signal.
pub(crate) struct HealthReport {
    status: &'static str,
    signals: Vec<HealthSignal>,
}

fn status_for(value: f64, degraded: f64, unhealthy: f64) -> &'static str {
    if value >= unhealthy {
        "unhealthy"
    } else if value >= degraded {
        "degraded"
    } else {
        "ok"
    }
}

fn status_rank(status: &str) -> u8 {
    match status {
        "unhealthy" => 2,
        "degraded" => 1,
        _ => 0,
    }
}

/// Computes readiness from live signals and mirrors the verdict into
/// `health.*` gauges (status encoded 0=ok / 1=degraded / 2=unhealthy,
/// ratios as integer percent). Called by the `health` verb and by every
/// Prometheus scrape, so the gauges track the most recent evaluation.
pub(crate) fn evaluate_health(shared: &Shared) -> HealthReport {
    shared.mirror_evictions();
    refresh_gauges(shared);
    let registry = &shared.obs.registry;
    let mut signals = Vec::with_capacity(6);

    // Queue saturation: admission queue depth against its configured
    // capacity. At 1.0 submissions block (or time out) — unhealthy.
    let depth = shared.engine.queue_depth();
    let capacity = shared.engine.queue_capacity();
    let saturation = depth as f64 / capacity.max(1) as f64;
    let queue_status = status_for(saturation, QUEUE_DEGRADED, QUEUE_UNHEALTHY);
    signals.push(HealthSignal {
        name: "queue",
        status: queue_status,
        reason: (queue_status != "ok").then(|| {
            format!("queue saturation {saturation:.2} (depth {depth} of capacity {capacity})")
        }),
        detail: vec![
            member("depth", Json::number(depth as f64)),
            member("capacity", Json::number(capacity as f64)),
            member("saturation", Json::number(saturation)),
        ],
    });

    // Windowed timeout and error rates against the windowed request total.
    // With no recent traffic both ratios are 0 — an idle server is ready.
    let counters = &shared.counters;
    let window_requests: u64 = counters.ops.iter().map(|c| c.windowed().count).sum();
    for (name, count) in [
        ("timeouts", counters.timeouts.windowed().count),
        ("errors", counters.errors.windowed().count),
    ] {
        let ratio = if window_requests == 0 {
            0.0
        } else {
            count as f64 / window_requests as f64
        };
        let status = status_for(ratio, RATIO_DEGRADED, RATIO_UNHEALTHY);
        signals.push(HealthSignal {
            name,
            status,
            reason: (status != "ok").then(|| {
                format!("windowed {name} rate {ratio:.2} ({count} of {window_requests} requests)")
            }),
            detail: vec![
                member("window_count", Json::number(count as f64)),
                member("window_requests", Json::number(window_requests as f64)),
                member("ratio", Json::number(ratio)),
            ],
        });
    }

    // Cache-eviction pressure: windowed evictions per cache-capacity's
    // worth of entries. ≥1.0 means the window churned the whole cache at
    // least once. An uncached engine (capacity 0) has no pressure to
    // report.
    let cache_capacity = shared.engine.cache_stats().capacity;
    let window_evictions = shared.evictions_window.windowed().count;
    let pressure = if cache_capacity == 0 {
        0.0
    } else {
        window_evictions as f64 / cache_capacity as f64
    };
    let cache_status = status_for(pressure, CACHE_DEGRADED, CACHE_UNHEALTHY);
    signals.push(HealthSignal {
        name: "cache",
        status: cache_status,
        reason: (cache_status != "ok").then(|| {
            format!(
                "cache churned {pressure:.2}x its capacity in the window \
                 ({window_evictions} evictions, capacity {cache_capacity})"
            )
        }),
        detail: vec![
            member("window_evictions", Json::number(window_evictions as f64)),
            member("capacity", Json::number(cache_capacity as f64)),
            member("pressure", Json::number(pressure)),
        ],
    });

    // Durable-state pressure: the plan store's live counters, plus the
    // journal's append-error count when journaling is on. A nonzero
    // append-error count means recently landed plans may not survive a
    // restart — the server still answers, but readiness degrades so an
    // operator sees the durability gap before a crash makes it matter.
    let mut store_detail = vec![
        member("plans", Json::number(shared.store.count() as f64)),
        member("leases", Json::number(shared.store.leases() as f64)),
        member(
            "lease_expiries",
            Json::number(shared.store.lease_expiries() as f64),
        ),
    ];
    let mut store_status = "ok";
    let mut store_reason = None;
    if let Some(journal) = &shared.journal {
        let append_errors = journal.append_errors();
        store_detail.push(member(
            "journal_records",
            Json::number(journal.records() as f64),
        ));
        store_detail.push(member(
            "journal_append_errors",
            Json::number(append_errors as f64),
        ));
        if append_errors > 0 {
            store_status = "degraded";
            store_reason = Some(format!(
                "{append_errors} journal append failures — recently landed plans \
                 may not be durable"
            ));
        }
    }
    signals.push(HealthSignal {
        name: "store",
        status: store_status,
        reason: store_reason,
        detail: store_detail,
    });

    // Informational: how many sessions are connected. Never degrades on
    // its own — admission control is the queue signal's job.
    let active = shared.connections.load(Ordering::SeqCst);
    signals.push(HealthSignal {
        name: "sessions",
        status: "ok",
        reason: None,
        detail: vec![member("active", Json::number(active as f64))],
    });

    let status = signals
        .iter()
        .max_by_key(|signal| status_rank(signal.status))
        .map(|signal| signal.status)
        .unwrap_or("ok");

    registry
        .gauge("health.status")
        .set(status_rank(status) as i64);
    registry
        .gauge("health.queue.saturation_pct")
        .set((saturation * 100.0) as i64);
    let pct = |name: &'static str| -> i64 {
        signals
            .iter()
            .find(|signal| signal.name == name)
            .and_then(|signal| signal.detail.iter().find(|(key, _)| key == "ratio"))
            .map(|(_, value)| match value {
                Json::Number(ratio) => (ratio * 100.0) as i64,
                _ => 0,
            })
            .unwrap_or(0)
    };
    registry
        .gauge("health.timeouts.window_ratio_pct")
        .set(pct("timeouts"));
    registry
        .gauge("health.errors.window_ratio_pct")
        .set(pct("errors"));
    registry
        .gauge("health.cache.pressure_pct")
        .set((pressure * 100.0) as i64);
    registry.gauge("health.sessions.active").set(active as i64);

    HealthReport { status, signals }
}
