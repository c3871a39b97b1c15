//! The TCP frontend: a thread-per-connection acceptor over one shared
//! [`Engine`], with resolved plans held in a server-wide [`PlanStore`]
//! leased per session.
//!
//! Std-only by construction (the build environment has no async runtime):
//! the acceptor blocks in `accept`, each connection gets a session, and
//! shutdown is cooperative — a `shutdown` request (or a [`ShutdownHandle`])
//! sets the flag, wakes the acceptor with a loopback connect, sessions
//! notice via their read-timeout poll, and the engine drains
//! deterministically before [`Server::run`] returns.
//!
//! The rest of the server lives in sibling modules: `accept` (the accept
//! loops), `session` (the reader, the writer and their anatomy) and
//! `verbs` (one module per verb family of [`protocol::VERBS`]).

use crate::accept::trigger_shutdown;
use crate::journal::Journal;
use crate::protocol;
use crate::verbs::span_to_json;
use slade_core::solver::Algorithm;
use slade_engine::{
    Engine, EngineConfig, EngineRequest, FinishOutcome, PlanStore, ResolvedPlan, SessionId,
};
use slade_obs::{Counter, Registry, SpanRecord, SpanRing, WindowedCounter, WindowedHistogram};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of registered algorithms, for the per-algorithm counter array.
const ALGORITHMS: usize = Algorithm::ALL.len();

/// Completed traced spans retained for the `trace` and `profile` verbs
/// (newest wins).
const TRACE_RING: usize = 256;

/// A hook applied to every parsed [`EngineRequest`] before it reaches the
/// engine — an extension seam for embedding policy (quotas, rewrites,
/// per-tenant solver configuration) and the fault-injection vehicle for the
/// crate's own concurrency tests (wrap a sentinel request with a slow or
/// panicking [`with_solver`](EngineRequest::with_solver) override).
pub type RequestMiddleware = Arc<dyn Fn(EngineRequest) -> EngineRequest + Send + Sync>;

/// Configuration of a [`Server`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:7878"`; port `0` picks an
    /// ephemeral port (read it back with [`Server::local_addr`]).
    pub addr: String,
    /// Configuration of the shared [`Engine`] the sessions solve on.
    pub engine: EngineConfig,
    /// Deadline for one request's solving work. A request that exceeds it
    /// gets a structured error response (the connection survives); the
    /// abandoned shards finish in the pool.
    pub request_timeout: Duration,
    /// Maximum `seq`-tagged requests one session may have in flight
    /// (clamped to at least 1). At the cap the reader stops draining the
    /// socket until a slot frees — TCP backpressure, never an unbounded
    /// queue.
    pub max_inflight: usize,
    /// Optional per-request hook; see [`RequestMiddleware`].
    pub request_middleware: Option<RequestMiddleware>,
    /// Observability knobs; see [`ObsOptions`].
    pub obs: ObsOptions,
    /// When set, also bind a minimal HTTP listener on this address and
    /// answer `GET /metrics` with the Prometheus text exposition of the
    /// registry (port `0` picks an ephemeral port; read it back with
    /// [`Server::metrics_local_addr`]). Hand-rolled and thread-per-
    /// connection like the main server; no other path is served.
    pub metrics_addr: Option<String>,
    /// When set, every plan-store mutation (plan landed, lease released)
    /// is appended to this JSONL journal, and the file is replayed into
    /// the store at bind — retained plans survive a restart, recovering
    /// byte-identical resubmit chains. Compacted atomically (rewrite to a
    /// temp file beside it + rename) at bind and every 256 appends; the
    /// periodic compaction holds the journal's lock only to snapshot the
    /// store and to swap the files, so lands continue while it writes. See
    /// the `journal` module docs for the record grammar, the torn-tail rule
    /// and the compaction steps.
    pub journal: Option<PathBuf>,
    /// When set, an idle plan lease expires this long after its holder's
    /// last store operation on the id and becomes reclaimable by any
    /// session (`claim`/`resubmit`) — a wedged client cannot pin a plan
    /// forever. `None` (the default) keeps leases until released or the
    /// session drops; a lease with a producer in flight never expires.
    pub lease_ttl: Option<Duration>,
}

/// Observability configuration: latency histograms, request tracing, and
/// their export surfaces. All of it is lock-cheap by construction (relaxed
/// sharded counters, per-span mutexes around a timestamp-and-push) — the
/// `enabled: false` switch exists for A/B overhead measurement, not because
/// the instrumentation is expensive.
#[derive(Debug, Clone)]
pub struct ObsOptions {
    /// Master switch for latency recording and request tracing. Off, the
    /// server neither mints spans nor records histogram samples (the
    /// `metrics` verb still answers, with zeroed latency sections).
    pub enabled: bool,
    /// When set, every completed traced span is appended to this file as
    /// one JSON line (same shape as the `trace` verb's `spans` entries).
    pub trace_log: Option<PathBuf>,
    /// When set, any traced request slower than this many milliseconds
    /// end-to-end is logged to stderr.
    pub slow_ms: Option<u64>,
    /// Width of the sliding window behind the `metrics` verb's windowed
    /// p50/p90/p99 + req/s and the `health` verb's windowed rates.
    /// [`Duration::ZERO`] disables windowing (the windowed sections report
    /// zeros) — the knob the obs-window A/B benchmark flips; the record
    /// path is identical either way. The window is split into
    /// [`slade_obs::WINDOW_SLOTS`] sub-windows.
    pub window: Duration,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            enabled: true,
            trace_log: None,
            slow_ms: None,
            window: Duration::from_secs(60),
        }
    }
}

impl fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("engine", &self.engine)
            .field("request_timeout", &self.request_timeout)
            .field("max_inflight", &self.max_inflight)
            .field(
                "request_middleware",
                &self.request_middleware.as_ref().map(|_| "<hook>"),
            )
            .field("obs", &self.obs)
            .field("metrics_addr", &self.metrics_addr)
            .field("journal", &self.journal)
            .field("lease_ttl", &self.lease_ttl)
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineConfig::default(),
            request_timeout: Duration::from_secs(60),
            max_inflight: 32,
            request_middleware: None,
            obs: ObsOptions::default(),
            metrics_addr: None,
            journal: None,
            lease_ttl: None,
        }
    }
}

/// Per-op and per-algorithm request counters, reported by the `metrics`
/// verb (and through it by `stats`). The op counters are
/// [`WindowedCounter`]s living in the server's [`Registry`] (named
/// `ops.<name>`): lifetime values plus the windowed rates the `health` verb
/// and the `metrics` windowed sections read. Per-algorithm counters stay
/// plain [`Counter`]s.
pub(crate) struct Counters {
    /// One per protocol verb, index-aligned with [`protocol::VERBS`].
    pub(crate) ops: Vec<Arc<WindowedCounter>>,
    /// Requests that arrived with a `seq` tag (also counted under their op).
    pub(crate) pipelined: Arc<WindowedCounter>,
    /// Requests answered with a deadline-expiry timeout, tagged or not
    /// (also counted under their op, under `errors` like every error
    /// response, and per verb under `verb_timeouts`).
    pub(crate) timeouts: Arc<WindowedCounter>,
    /// The per-verb split of `timeouts` (`timeouts.<verb>`), index-aligned
    /// with [`ENGINE_VERBS`].
    pub(crate) verb_timeouts: Vec<Arc<WindowedCounter>>,
    pub(crate) errors: Arc<WindowedCounter>,
    pub(crate) algorithms: [Arc<Counter>; ALGORITHMS],
}

/// The verbs that wait on the engine, and so the only ones that can time
/// out.
pub(crate) const ENGINE_VERBS: [&str; 3] = ["solve", "batch", "resubmit"];

impl Counters {
    pub(crate) fn new(registry: &Registry, window: Duration) -> Counters {
        let op = |name: &str| registry.windowed_counter(&format!("ops.{name}"), window);
        Counters {
            ops: protocol::VERBS.into_iter().map(op).collect(),
            pipelined: op("pipelined"),
            timeouts: op("timeouts"),
            verb_timeouts: ENGINE_VERBS
                .iter()
                .map(|verb| registry.windowed_counter(&format!("timeouts.{verb}"), window))
                .collect(),
            errors: op("errors"),
            algorithms: std::array::from_fn(|i| {
                registry.counter(&format!("algorithms.{}", Algorithm::ALL[i].name()))
            }),
        }
    }

    /// The counter of protocol verb `verb`.
    pub(crate) fn op(&self, verb: &str) -> &WindowedCounter {
        let index = protocol::VERBS
            .iter()
            .position(|v| *v == verb)
            .expect("every request verb is in VERBS");
        &self.ops[index]
    }

    pub(crate) fn count_algorithm(&self, algorithm: Algorithm) {
        let index = Algorithm::ALL
            .iter()
            .position(|a| *a == algorithm)
            .expect("every algorithm is in the registry");
        self.algorithms[index].inc();
    }

    pub(crate) fn count_error(&self) {
        self.errors.inc();
    }

    /// Counts one request that ran past its deadline — tagged or untagged:
    /// the global counter plus the per-verb `timeouts.<verb>` split.
    pub(crate) fn count_timeout(&self, verb: &str) {
        self.timeouts.inc();
        match ENGINE_VERBS.iter().position(|v| *v == verb) {
            Some(index) => self.verb_timeouts[index].inc(),
            // Only the verbs that wait on the engine can expire; any other
            // verb here would be a dispatch bug, not a counter miss.
            None => debug_assert!(false, "unexpected timeout verb `{verb}`"),
        }
    }
}

/// The verbs whose end-to-end latency is histogrammed, in
/// [`ServerObs::latency`] order: every protocol verb but `shutdown`, whose
/// ack is written mid-drain while the server is stopping, so a sample
/// would measure the drain, not the request.
pub(crate) fn latency_verbs() -> impl Iterator<Item = &'static str> {
    protocol::VERBS
        .into_iter()
        .filter(|verb| *verb != "shutdown")
}

/// The server's observability sink: the metric registry, per-verb latency
/// histograms, the completed-span ring the `trace` verb reads, and the
/// optional JSONL trace log / slow-request stderr log.
pub(crate) struct ServerObs {
    pub(crate) enabled: bool,
    pub(crate) registry: Registry,
    /// Completed traced spans, newest `capacity` retained.
    pub(crate) ring: SpanRing,
    /// Per-verb latency histograms, in [`latency_verbs`] order.
    /// Windowed: lifetime behavior identical to the plain histograms they
    /// replaced, plus the sliding-window view behind the `metrics` verb's
    /// windowed quantiles/rates.
    pub(crate) latency: Vec<Arc<WindowedHistogram>>,
    /// JSONL export of every completed traced span. The mutex is on the
    /// trace-log file only — never on the request path; only session
    /// writer threads take it.
    pub(crate) trace_log: Option<Mutex<File>>,
    pub(crate) slow_ms: Option<u64>,
    /// Trace id allocator; ids start at 1.
    pub(crate) next_trace: AtomicU64,
}

impl ServerObs {
    pub(crate) fn new(options: &ObsOptions, registry: Registry) -> io::Result<ServerObs> {
        let latency = latency_verbs()
            .map(|verb| registry.windowed_histogram(&format!("latency.{verb}"), options.window))
            .collect();
        let trace_log = match &options.trace_log {
            None => None,
            Some(path) => Some(Mutex::new(
                OpenOptions::new().create(true).append(true).open(path)?,
            )),
        };
        Ok(ServerObs {
            enabled: options.enabled,
            registry,
            ring: SpanRing::new(TRACE_RING),
            latency,
            trace_log,
            slow_ms: options.slow_ms,
            next_trace: AtomicU64::new(1),
        })
    }

    /// The latency histogram for `op`, when `op` is a [`latency_verbs`]
    /// member.
    pub(crate) fn latency_for(&self, op: &str) -> Option<&Arc<WindowedHistogram>> {
        latency_verbs()
            .position(|verb| verb == op)
            .map(|i| &self.latency[i])
    }

    /// Records one end-to-end latency sample for `op`. Every counted
    /// request contributes exactly one sample on exactly one path (response
    /// written, discarded on a dead connection, or dropped by an aborting
    /// gate), so at quiescence `latency.<verb>.count == ops.<verb>`.
    pub(crate) fn record_latency(&self, op: &str, started: Instant) {
        if !self.enabled {
            return;
        }
        if let Some(histogram) = self.latency_for(op) {
            histogram.record_duration(started.elapsed());
        }
    }

    /// Sinks one completed span: slow-request stderr line, JSONL trace log,
    /// then the ring. Called by the writer thread *before* the response
    /// bytes reach the socket, so a client that has read its response is
    /// guaranteed to find the span in a subsequent `trace` request. The
    /// trace-log line is rendered into the writer's `scratch` buffer before
    /// the file lock is taken, and goes out in one write.
    pub(crate) fn sink_span(&self, record: &SpanRecord, scratch: &mut String) {
        if let Some(slow_ms) = self.slow_ms {
            let total_ms = record.total_ns / 1_000_000;
            if total_ms >= slow_ms {
                eprintln!(
                    "slade-server: slow request: op={} trace_id={} total_ms={} \
                     stolen_shards={}",
                    record.op, record.id, total_ms, record.stolen_shards
                );
            }
        }
        if let Some(log) = &self.trace_log {
            scratch.clear();
            span_to_json(record).write_into(scratch);
            scratch.push('\n');
            let _ = lock(log).write_all(scratch.as_bytes());
        }
        self.ring.push(record.clone());
    }
}

/// State shared by the acceptor, every session thread, and shutdown
/// handles.
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) shutdown: AtomicBool,
    pub(crate) local_addr: SocketAddr,
    /// Bound address of the Prometheus `/metrics` HTTP listener, when
    /// [`ServerConfig::metrics_addr`] was set.
    pub(crate) metrics_addr: Option<SocketAddr>,
    pub(crate) request_timeout: Duration,
    pub(crate) max_inflight: usize,
    pub(crate) middleware: Option<RequestMiddleware>,
    pub(crate) counters: Counters,
    pub(crate) obs: ServerObs,
    /// Sessions currently connected.
    pub(crate) connections: AtomicUsize,
    /// Resolved plans retained server-wide, leased per session.
    pub(crate) store: PlanStore,
    /// Session id allocator; ids start at 1 and are never reused.
    pub(crate) next_session: AtomicU64,
    /// When the server came up — the `process.uptime_seconds` anchor.
    pub(crate) started: Instant,
    /// The configured sliding window, echoed by the `metrics` response's
    /// `window` section.
    pub(crate) window: Duration,
    /// Cache evictions mirrored into [`Shared::evictions_window`] so far.
    /// The engine owns the lifetime eviction counter; health/metrics
    /// readers feed the delta into the windowed counter — reader-driven,
    /// never on the solve path.
    pub(crate) evictions_seen: AtomicU64,
    /// Windowed view of cache evictions, for the health verb's
    /// cache-pressure signal.
    pub(crate) evictions_window: WindowedCounter,
    /// The durable plan journal, when [`ServerConfig::journal`] was set.
    pub(crate) journal: Option<Journal>,
}

impl Shared {
    pub(crate) fn apply_middleware(&self, request: EngineRequest) -> EngineRequest {
        match &self.middleware {
            Some(hook) => hook(request),
            None => request,
        }
    }

    /// Feeds the engine's lifetime eviction count into the windowed
    /// eviction counter. Called by health/metrics/exposition readers; the
    /// `fetch_max` makes concurrent readers attribute each delta exactly
    /// once.
    pub(crate) fn mirror_evictions(&self) {
        let current = self.engine.cache_stats().evictions;
        let previous = self.evictions_seen.fetch_max(current, Ordering::Relaxed);
        if current > previous {
            self.evictions_window.add(current - previous);
        }
    }

    /// Applies a producer's result to the store and journals a landed
    /// plan — both in one step under the journal's lock, so records land
    /// in store order. The [`FinishOutcome`] flows back so response
    /// builders can distinguish a stored plan from one that lost its id
    /// while solving (see `Session::complete`) — a discarded plan is never
    /// journaled and never answered with success.
    pub(crate) fn finish_store(
        &self,
        session: SessionId,
        id: &str,
        produced: Option<Arc<ResolvedPlan>>,
    ) -> FinishOutcome {
        match (&self.journal, produced) {
            (Some(journal), Some(plan)) => journal.land(&self.store, session, id, plan),
            (_, produced) => self.store.finish(session, id, produced),
        }
    }
}

/// Stops a running [`Server`] from outside a session (embedding code,
/// tests, signal handlers). Clonable and cheap; the protocol's `shutdown`
/// verb is the in-band equivalent.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Requests a graceful shutdown: the acceptor stops, sessions finish
    /// their current request and close, the engine drains.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }
}

/// A bound (but not yet running) decomposition server. See the
/// [crate docs](crate) for the protocol and an example.
pub struct Server {
    pub(crate) listener: TcpListener,
    /// The `GET /metrics` HTTP listener, when configured.
    pub(crate) metrics_listener: Option<TcpListener>,
    pub(crate) shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener(s) and spawns the engine's worker pool.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics_listener = match &config.metrics_addr {
            None => None,
            Some(addr) => Some(TcpListener::bind(addr)?),
        };
        let metrics_addr = match &metrics_listener {
            None => None,
            Some(listener) => Some(listener.local_addr()?),
        };
        let registry = Registry::new();
        let counters = Counters::new(&registry, config.obs.window);
        // Satellite identity/uptime gauges: `build.info` is the
        // conventional constant-1 gauge (the exposition attaches the
        // version as a label); uptime is refreshed at read time.
        registry.gauge("build.info").set(1);
        registry.gauge("process.uptime_seconds").set(0);
        let obs = ServerObs::new(&config.obs, registry)?;
        // Recovery happens at bind, before any session exists: replay the
        // journal into the fresh store (tolerating a torn tail), then let
        // `Journal::open`'s boot-time compaction rewrite the file clean.
        let store = PlanStore::new();
        store.set_lease_ttl(config.lease_ttl);
        let journal = match config.journal {
            None => None,
            Some(path) => {
                let histogram = |name| obs.registry.windowed_histogram(name, config.obs.window);
                Some(Journal::open(
                    path,
                    &store,
                    histogram("journal.compact_us"),
                    histogram("journal.compact_hold_us"),
                )?)
            }
        };
        let shared = Arc::new(Shared {
            engine: Engine::new(config.engine),
            shutdown: AtomicBool::new(false),
            local_addr,
            metrics_addr,
            request_timeout: config.request_timeout,
            max_inflight: config.max_inflight.max(1),
            middleware: config.request_middleware,
            counters,
            obs,
            connections: AtomicUsize::new(0),
            store,
            next_session: AtomicU64::new(1),
            started: Instant::now(),
            window: config.obs.window,
            evictions_seen: AtomicU64::new(0),
            evictions_window: WindowedCounter::new(config.obs.window),
            journal,
        });
        Ok(Server {
            listener,
            metrics_listener,
            shared,
        })
    }

    /// The bound address (resolves the ephemeral port of `addr: …:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The bound address of the `GET /metrics` HTTP listener, when
    /// [`ServerConfig::metrics_addr`] was set.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
    }

    /// A handle that can stop the server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Locks a mutex, shrugging off poisoning: session state stays usable even
/// if a sibling thread panicked mid-update (the panic still fails tests).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
