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
//! ## Session anatomy (pipelining)
//!
//! A session is two cooperating threads over one connection:
//!
//! * the **reader** owns the read half: it frames request lines, answers
//!   the inline verbs in line, and starts every `solve`, `resubmit`, and
//!   `batch` on the engine, registering it with the writer as an
//!   in-flight entry. A `seq`-tagged request passes the in-flight gate and
//!   the reader moves on; an untagged one holds no gate slot, and the
//!   reader blocks until the writer has written its answer (strict
//!   request/response, exactly the pre-pipelining behavior). Both kinds
//!   start and complete through the same per-verb functions;
//! * the **writer** owns the write half and is the session's only
//!   completion site. One channel carries everything it does: response
//!   lines, registrations, and the pings engine workers send (via
//!   [`ShardNotify`]) as shards complete. It polls a pinged entry with a
//!   non-blocking `try_wait` and answers finished requests *in completion
//!   order*, a tagged response echoing its `seq`. It also enforces the
//!   per-request deadline (an overdue request gets a structured timeout
//!   error; its shards are abandoned to the pool) and drains remaining
//!   work at session end. Response lines never interleave mid-line, and a
//!   stalled client (write timeout) kills at most this connection.
//!
//! In-flight tagged requests are capped by [`ServerConfig::max_inflight`]:
//! the reader blocks once the cap is reached (it stops draining the
//! socket, which is TCP backpressure), and a slot frees whenever the
//! writer completes, expires, or discards an entry — so the cap is an
//! invariant, not a best effort. A client that stops reading stalls the
//! writer in its write, so no slot frees and its backlog stays bounded
//! too. Duplicate in-flight `seq` tags are rejected with a structured
//! error (responses would be unattributable).
//!
//! Ordering rules, also documented on [`protocol`]:
//!
//! * untagged requests are answered in request order, at their position in
//!   the stream (tagged responses may interleave around them);
//! * `stats`, `claim`, and `release` execute when the reader reaches them:
//!   stats counters reflect every request *dispatched* before it (not
//!   necessarily completed), and lease moves land between the surrounding
//!   requests' store operations;
//! * `shutdown` first drains every tagged in-flight request of this
//!   session (each gets its normal response, bounded by its deadline),
//!   then acks, then stops the server. A session that ends any other way
//!   (EOF, server shutdown, over-long line) drains the same way; only a
//!   dead connection (write failure) discards in-flight responses.

use crate::journal::Journal;
use crate::line::LineBuffer;
use crate::protocol::{self, Request};
use slade_core::bin_set::BinSet;
use slade_core::solver::Algorithm;
use slade_engine::{
    Engine, EngineConfig, EngineError, EngineRequest, FinishOutcome, PlanStore, RequestTrace,
    ResolvedHandle, ResolvedPlan, SessionId, ShardNotify, StoreError, Submit, WorkloadDelta,
};
use slade_json::{member, Json};
use slade_obs::{
    Counter, Registry, RequestSpan, SpanRecord, SpanRing, WindowedCounter, WindowedHistogram,
    PROMETHEUS_CONTENT_TYPE,
};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often blocked session reads wake up to check the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long a response write to a stalled client may block before the
/// session gives the connection up.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Back-off after a transient `accept` failure, so an error storm (fd
/// exhaustion, say) cannot hot-spin the acceptor.
const ACCEPT_RETRY: Duration = Duration::from_millis(50);

/// Longest request line a session accepts. Generous — a million-task
/// thresholds array fits severalfold — but finite, so one connection
/// streaming newline-free bytes cannot grow a buffer without bound.
const MAX_REQUEST_LINE: usize = 64 * 1024 * 1024;

/// Number of registered algorithms, for the per-algorithm counter array.
const ALGORITHMS: usize = Algorithm::ALL.len();

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
    /// byte-identical resubmit chains. Compacted atomically (rewrite to
    /// `<path>.tmp` + rename) at bind and periodically. See the `journal`
    /// module docs for the record grammar and the torn-tail rule.
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
    /// Completed traced spans retained for the `trace` verb (newest wins;
    /// clamped to at least 1).
    pub trace_ring: usize,
    /// Width of the sliding window behind the `metrics` verb's windowed
    /// p50/p90/p99 + req/s and the `health` verb's windowed rates.
    /// [`Duration::ZERO`] disables windowing (the windowed sections report
    /// zeros) — the knob the obs-window A/B benchmark flips; the record
    /// path is identical either way.
    pub window: Duration,
    /// Sub-windows the sliding window is split into (clamped to at least
    /// 1). More slots track decay more smoothly at slightly more reader-
    /// side work per rotation.
    pub window_slots: usize,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            enabled: true,
            trace_log: None,
            slow_ms: None,
            trace_ring: 256,
            window: Duration::from_secs(60),
            window_slots: slade_obs::WINDOW_SLOTS,
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
struct Counters {
    /// One per protocol verb, index-aligned with [`protocol::VERBS`].
    ops: Vec<Arc<WindowedCounter>>,
    /// Requests that arrived with a `seq` tag (also counted under their op).
    pipelined: Arc<WindowedCounter>,
    /// Requests answered with a deadline-expiry timeout, tagged or not
    /// (also counted under their op, under `errors` like every error
    /// response, and per verb under `verb_timeouts`).
    timeouts: Arc<WindowedCounter>,
    /// The per-verb split of `timeouts` (`timeouts.<verb>`), index-aligned
    /// with [`ENGINE_VERBS`].
    verb_timeouts: Vec<Arc<WindowedCounter>>,
    errors: Arc<WindowedCounter>,
    algorithms: [Arc<Counter>; ALGORITHMS],
}

/// The verbs that wait on the engine, and so the only ones that can time
/// out.
const ENGINE_VERBS: [&str; 3] = ["solve", "batch", "resubmit"];

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

impl Counters {
    fn new(registry: &Registry, window: Duration, slots: usize) -> Counters {
        let op = |name: &str| registry.windowed_counter(&format!("ops.{name}"), window, slots);
        Counters {
            ops: protocol::VERBS.into_iter().map(op).collect(),
            pipelined: op("pipelined"),
            timeouts: op("timeouts"),
            verb_timeouts: ENGINE_VERBS
                .iter()
                .map(|verb| registry.windowed_counter(&format!("timeouts.{verb}"), window, slots))
                .collect(),
            errors: op("errors"),
            algorithms: std::array::from_fn(|i| {
                registry.counter(&format!("algorithms.{}", Algorithm::ALL[i].name()))
            }),
        }
    }

    /// The counter of protocol verb `verb`.
    fn op(&self, verb: &str) -> &WindowedCounter {
        let index = protocol::VERBS
            .iter()
            .position(|v| *v == verb)
            .expect("every request verb is in VERBS");
        &self.ops[index]
    }

    fn count_algorithm(&self, algorithm: Algorithm) {
        let index = Algorithm::ALL
            .iter()
            .position(|a| *a == algorithm)
            .expect("every algorithm is in the registry");
        self.algorithms[index].inc();
    }

    fn count_error(&self) {
        self.errors.inc();
    }

    /// Counts one request that ran past its deadline — tagged or untagged:
    /// the global counter plus the per-verb `timeouts.<verb>` split.
    fn count_timeout(&self, verb: &str) {
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
fn latency_verbs() -> impl Iterator<Item = &'static str> {
    protocol::VERBS
        .into_iter()
        .filter(|verb| *verb != "shutdown")
}

/// The server's observability sink: the metric registry, per-verb latency
/// histograms, the completed-span ring the `trace` verb reads, and the
/// optional JSONL trace log / slow-request stderr log.
struct ServerObs {
    enabled: bool,
    registry: Registry,
    /// Completed traced spans, newest `capacity` retained.
    ring: SpanRing,
    /// Per-verb latency histograms, in [`latency_verbs`] order.
    /// Windowed: lifetime behavior identical to the plain histograms they
    /// replaced, plus the sliding-window view behind the `metrics` verb's
    /// windowed quantiles/rates.
    latency: Vec<Arc<WindowedHistogram>>,
    /// JSONL export of every completed traced span. The mutex is on the
    /// trace-log file only — never on the request path; only session
    /// writer threads take it.
    trace_log: Option<Mutex<File>>,
    slow_ms: Option<u64>,
    /// Trace id allocator; ids start at 1.
    next_trace: AtomicU64,
}

impl ServerObs {
    fn new(options: &ObsOptions, registry: Registry) -> io::Result<ServerObs> {
        let latency = latency_verbs()
            .map(|verb| {
                registry.windowed_histogram(
                    &format!("latency.{verb}"),
                    options.window,
                    options.window_slots,
                )
            })
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
            ring: SpanRing::new(options.trace_ring),
            latency,
            trace_log,
            slow_ms: options.slow_ms,
            next_trace: AtomicU64::new(1),
        })
    }

    /// The latency histogram for `op`, when `op` is a [`latency_verbs`]
    /// member.
    fn latency_for(&self, op: &str) -> Option<&Arc<WindowedHistogram>> {
        latency_verbs()
            .position(|verb| verb == op)
            .map(|i| &self.latency[i])
    }

    /// Records one end-to-end latency sample for `op`. Every counted
    /// request contributes exactly one sample on exactly one path (response
    /// written, discarded on a dead connection, or dropped by an aborting
    /// gate), so at quiescence `latency.<verb>.count == ops.<verb>`.
    fn record_latency(&self, op: &str, started: Instant) {
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
    fn sink_span(&self, record: &SpanRecord, scratch: &mut String) {
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
struct Shared {
    engine: Engine,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    /// Bound address of the Prometheus `/metrics` HTTP listener, when
    /// [`ServerConfig::metrics_addr`] was set.
    metrics_addr: Option<SocketAddr>,
    request_timeout: Duration,
    max_inflight: usize,
    middleware: Option<RequestMiddleware>,
    counters: Counters,
    obs: ServerObs,
    /// Sessions currently connected.
    connections: AtomicUsize,
    /// Resolved plans retained server-wide, leased per session.
    store: PlanStore,
    /// Session id allocator; ids start at 1 and are never reused.
    next_session: AtomicU64,
    /// When the server came up — the `process.uptime_seconds` anchor.
    started: Instant,
    /// The configured sliding window, echoed by the `metrics` response's
    /// `window` section.
    window: Duration,
    /// Cache evictions mirrored into [`Shared::evictions_window`] so far.
    /// The engine owns the lifetime eviction counter; health/metrics
    /// readers feed the delta into the windowed counter — reader-driven,
    /// never on the solve path.
    evictions_seen: AtomicU64,
    /// Windowed view of cache evictions, for the health verb's
    /// cache-pressure signal.
    evictions_window: WindowedCounter,
    /// The durable plan journal, when [`ServerConfig::journal`] was set.
    journal: Option<Journal>,
}

impl Shared {
    fn apply_middleware(&self, request: EngineRequest) -> EngineRequest {
        match &self.middleware {
            Some(hook) => hook(request),
            None => request,
        }
    }

    /// Feeds the engine's lifetime eviction count into the windowed
    /// eviction counter. Called by health/metrics/exposition readers; the
    /// `fetch_max` makes concurrent readers attribute each delta exactly
    /// once.
    fn mirror_evictions(&self) {
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
    fn finish_store(
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

/// Flips the shutdown flag and wakes the blocked acceptors with loopback
/// connections (std's `accept` has no cancellation of its own). The
/// metrics listener, when bound, is woken the same way as the main one.
fn trigger_shutdown(shared: &Shared) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect(shared.local_addr);
        if let Some(metrics_addr) = shared.metrics_addr {
            let _ = TcpStream::connect(metrics_addr);
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
    listener: TcpListener,
    /// The `GET /metrics` HTTP listener, when configured.
    metrics_listener: Option<TcpListener>,
    shared: Arc<Shared>,
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
        let counters = Counters::new(&registry, config.obs.window, config.obs.window_slots);
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
            Some(path) => Some(Journal::open(path, &store)?),
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
            evictions_window: WindowedCounter::new(config.obs.window, config.obs.window_slots),
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

    /// Runs the accept loop until a shutdown is requested (in-band
    /// `shutdown` verb or [`ShutdownHandle`]), then drains: stops
    /// accepting, joins every session thread, and shuts the engine down so
    /// all queued shards finish before this returns.
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            metrics_listener,
            shared,
        } = self;
        let metrics_thread = metrics_listener.map(|metrics_listener| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("slade-metrics-http".to_string())
                .spawn(move || metrics_http_loop(&metrics_listener, &shared))
                .expect("spawning the metrics HTTP thread")
        });
        let mut sessions: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let accepted = listener.accept();
            if shared.shutdown.load(Ordering::SeqCst) {
                break; // the wake-up connection (or a late client): drop it
            }
            let stream = match accepted {
                Ok((stream, _)) => stream,
                // Transient accept failures (a client resetting mid-
                // handshake → ECONNABORTED, fd exhaustion → EMFILE, a
                // signal → EINTR) must not kill a long-running server:
                // back off briefly and keep accepting.
                Err(_) => {
                    thread::sleep(ACCEPT_RETRY);
                    continue;
                }
            };
            let session_shared = Arc::clone(&shared);
            let spawned = thread::Builder::new()
                .name("slade-session".to_string())
                .spawn(move || session(stream, &session_shared));
            match spawned {
                Ok(handle) => sessions.push(handle),
                // Out of threads (EAGAIN) is transient too: the failed
                // spawn dropped the connection; back off as above.
                Err(e) => {
                    eprintln!("slade-server: dropped a connection: cannot spawn its session: {e}");
                    thread::sleep(ACCEPT_RETRY);
                }
            }
            sessions.retain(|handle| !handle.is_finished());
        }
        drop(listener); // refuse new connections while draining
        for handle in sessions {
            let _ = handle.join();
        }
        if let Some(handle) = metrics_thread {
            // `trigger_shutdown` poked the metrics listener too, so its
            // accept loop has observed the flag and is exiting.
            let _ = handle.join();
        }
        shared.engine.shutdown();
        Ok(())
    }
}

/// The `GET /metrics` accept loop: thread-per-connection like the main
/// server, hand-rolled HTTP/1.1, closing each connection after one
/// response. Woken at shutdown by [`trigger_shutdown`]'s loopback connect.
fn metrics_http_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connection (or a late scraper): drop it
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(_) => {
                thread::sleep(ACCEPT_RETRY);
                continue;
            }
        };
        let conn_shared = Arc::clone(shared);
        let _ = thread::Builder::new()
            .name("slade-metrics-conn".to_string())
            .spawn(move || serve_metrics_connection(stream, &conn_shared));
    }
}

/// Serves one scrape connection: reads the request head, answers
/// `GET /metrics` with the Prometheus text exposition of the registry
/// snapshot, everything else with a 404. Read errors or malformed requests
/// just drop the connection — a scraper retries, and nothing here may
/// disturb the protocol listener.
fn serve_metrics_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the end of the request head (CRLF CRLF). GET requests
    // carry no body, so nothing else needs draining.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > 16 * 1024 {
            return; // not a plausible scrape request
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
        }
    }
    let request_line = match head.split(|&b| b == b'\r').next() {
        Some(line) => String::from_utf8_lossy(line).into_owned(),
        None => return,
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method == "GET" && (path == "/metrics" || path.starts_with("/metrics?")) {
        let body = render_exposition(shared);
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {PROMETHEUS_CONTENT_TYPE}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    } else {
        let body = "only GET /metrics is served here\n";
        format!(
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Renders the Prometheus text body: refresh the mirrored and derived
/// gauges (the health evaluation refreshes cache, uptime and store gauges,
/// then sets the health ones), then snapshot and render. Scrapes are a
/// reader, so each one also rotates the window rings.
fn render_exposition(shared: &Shared) -> String {
    evaluate_health(shared);
    slade_obs::render_prometheus(
        &shared.obs.registry.snapshot(),
        Some(env!("CARGO_PKG_VERSION")),
    )
}

/// One connection: counts itself in, serves lines, counts itself out. At
/// exit the session's store state is dropped — its leases and pending
/// markers go away, the plans it produced stay claimable by any session.
fn session(stream: TcpStream, shared: &Shared) {
    shared.connections.fetch_add(1, Ordering::SeqCst);
    let sid = shared.next_session.fetch_add(1, Ordering::SeqCst);
    let state = Session {
        shared,
        sid,
        gate: Gate::default(),
        default_bins: Arc::new(BinSet::paper_example()),
    };
    let _ = state.serve(&stream);
    shared.store.drop_session(sid);
    shared.connections.fetch_sub(1, Ordering::SeqCst);
}

/// Locks a mutex, shrugging off poisoning: session state stays usable even
/// if a sibling thread panicked mid-update (the panic still fails tests).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The in-flight admission gate: counts tagged requests and remembers
/// their serialized `seq` tags (duplicates among in-flight tags are
/// rejected). The reader blocks in [`Gate::acquire`] at the cap; the
/// writer frees slots as entries complete.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    freed: Condvar,
}

#[derive(Default)]
struct GateState {
    count: usize,
    seqs: HashSet<String>,
}

enum Admission {
    Admitted,
    /// The tag is already in flight on this session.
    Duplicate,
    /// The session is going away; the request is dropped.
    Aborted,
}

impl Gate {
    /// Blocks until a slot is free (or `abort` turns true), then admits
    /// `seq_key`.
    fn acquire(&self, seq_key: &str, cap: usize, abort: impl Fn() -> bool) -> Admission {
        let mut state = lock(&self.state);
        loop {
            if state.seqs.contains(seq_key) {
                return Admission::Duplicate;
            }
            if state.count < cap {
                state.count += 1;
                state.seqs.insert(seq_key.to_string());
                return Admission::Admitted;
            }
            if abort() {
                return Admission::Aborted;
            }
            let (next, _timed_out) = self
                .freed
                .wait_timeout(state, READ_POLL)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = next;
        }
    }

    fn release(&self, seq_key: &str) {
        let mut state = lock(&self.state);
        state.count = state.count.saturating_sub(1);
        state.seqs.remove(seq_key);
        self.freed.notify_all();
    }
}

/// A started `solve`, `resubmit`, or `batch`: the engine handles it waits
/// on plus what its completion needs. `solve` and `resubmit` hold one
/// handle, `batch` one per sub-request.
struct PendingWork {
    op: &'static str,
    /// Plan id this request produces (always the request id for
    /// `resubmit`, the optional retain id for `solve`, never for `batch`).
    id: Option<String>,
    want_plan: bool,
    handles: Vec<ResolvedHandle>,
    /// Index-aligned with `handles`: each handle's result once delivered
    /// (`try_wait` hands a result out exactly once, so it is kept here on
    /// the way to the response builder).
    results: Vec<Option<Result<ResolvedPlan, EngineError>>>,
}

impl PendingWork {
    fn new(
        op: &'static str,
        id: Option<String>,
        want_plan: bool,
        handles: Vec<ResolvedHandle>,
    ) -> PendingWork {
        let results = handles.iter().map(|_| None).collect();
        PendingWork {
            op,
            id,
            want_plan,
            handles,
            results,
        }
    }

    /// Collects whatever results have arrived, without blocking; `true`
    /// once every handle has delivered.
    fn poll(&mut self) -> bool {
        let mut done = true;
        for (handle, slot) in self.handles.iter_mut().zip(&mut self.results) {
            if slot.is_none() {
                *slot = handle.try_wait();
                done &= slot.is_some();
            }
        }
        done
    }
}

/// What [`Session::dispatch`] hands a verb's start function: the request's
/// tag (both `None` when untagged), its span, and the completion callback
/// that pings the session's writer.
struct Start<'a> {
    seq: Option<&'a Json>,
    seq_key: Option<&'a str>,
    span: &'a Option<RequestTrace>,
    notify: ShardNotify,
}

impl Start<'_> {
    /// The submit options of a fresh (non-resubmit) request.
    fn submit(&self) -> Submit<'static> {
        Submit {
            prior: None,
            notify: Some(Arc::clone(&self.notify)),
        }
    }
}

/// Attaches `span` (when the client opted in) to an engine request.
fn traced(request: EngineRequest, span: &Option<RequestTrace>) -> EngineRequest {
    match span {
        Some(span) => request.with_trace(Arc::clone(span)),
        None => request,
    }
}

/// One started request in flight on a session, owned by its writer.
struct InFlight {
    /// The `seq` tag and its serialized gate key; `None` when untagged (no
    /// gate slot: the reader itself waits for the answer).
    seq: Option<(Json, String)>,
    /// When the reader pulled the request off the wire (latency samples
    /// measure from here to the response write).
    started: Instant,
    /// The request's trace span, when the client opted in.
    span: Option<RequestTrace>,
    deadline: Option<Instant>,
    work: PendingWork,
}

/// Messages into the session's writer thread.
enum Msg {
    /// A response to write as is (inline verbs, errors).
    Line(Outgoing),
    /// The reader started a request.
    Register { token: u64, entry: Box<InFlight> },
    /// An engine worker finished a shard of the tokened request (sent via
    /// [`ShardNotify`]; may arrive before the matching `Register` — the
    /// writer polls at registration, so early pings are never lost).
    Ping(u64),
    /// The reader is done: answer (or `discard`) everything still in
    /// flight, then write the optional `ack` (the shutdown response) last.
    Drain { ack: Option<Json>, discard: bool },
}

/// How the reader half ended.
enum Exit {
    /// Client EOF / over-long line / server shutdown: drain, then close.
    Drain,
    /// In-band `shutdown` verb: drain, ack, then stop the whole server.
    ShutdownVerb(Json),
    /// The connection is dead (write failure or read error): discard.
    Dead,
}

/// Per-connection state shared by the reader and writer threads.
struct Session<'a> {
    shared: &'a Shared,
    /// This connection's identity in the shared [`PlanStore`].
    sid: SessionId,
    gate: Gate,
    default_bins: Arc<BinSet>,
}

/// Completion metadata riding along with a response to the writer, which
/// finalizes it (latency sample, span sink, trace-id echo) just before the
/// bytes hit the socket.
struct Done {
    op: &'static str,
    started: Instant,
    span: Option<RequestTrace>,
}

/// One queued response line. `done: None` marks lines outside the request
/// accounting (parse errors have no verb; the shutdown ack is excluded by
/// design).
struct Outgoing {
    response: Json,
    done: Option<Done>,
}

/// The reader's handles to the session's writer.
struct SessionIo {
    out: Sender<Msg>,
    /// Signalled by the writer once an untagged response is written; the
    /// reader waits on it, so that answer lands at its stream position.
    answered: Receiver<()>,
    /// Next in-flight token; tokens order [`Msg::Drain`]'s discard
    /// deterministically (dispatch order).
    next_token: u64,
}

impl SessionIo {
    fn respond(&self, response: Json) {
        let _ = self.out.send(Msg::Line(Outgoing {
            response,
            done: None,
        }));
    }

    fn respond_done(&self, response: Json, done: Done) {
        let _ = self.out.send(Msg::Line(Outgoing {
            response,
            done: Some(done),
        }));
    }
}

impl Session<'_> {
    /// Runs the session: spawns the writer, reads request lines until EOF
    /// / shutdown / a fatal error, then drains.
    fn serve(&self, stream: &TcpStream) -> io::Result<()> {
        stream.set_read_timeout(Some(READ_POLL))?;
        let _ = stream.set_nodelay(true);
        let writer_stream = stream.try_clone()?;
        writer_stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let dead = AtomicBool::new(false);
        let (out_tx, out_rx) = channel::<Msg>();
        let (answered_tx, answered_rx) = channel::<()>();

        thread::scope(|scope| {
            let writer = Writer {
                session: self,
                stream: writer_stream,
                buf: String::new(),
                dead: &dead,
                inflight: BTreeMap::new(),
                answered: answered_tx,
            };
            let writer = thread::Builder::new()
                .name("slade-writer".to_string())
                .spawn_scoped(scope, move || writer.run(out_rx))?;

            let mut io = SessionIo {
                out: out_tx,
                answered: answered_rx,
                next_token: 0,
            };
            let outcome = self.read_loop(stream, &mut io, &dead);
            let (ack, discard) = match &outcome {
                Ok(Exit::ShutdownVerb(ack)) => (Some(ack.clone()), false),
                Ok(Exit::Drain) => (None, false),
                Ok(Exit::Dead) | Err(_) => (None, true),
            };
            let _ = io.out.send(Msg::Drain { ack, discard });
            drop(io);
            let _ = writer.join();
            if let Ok(Exit::ShutdownVerb(_)) = &outcome {
                // Only now — after this session's tagged work is answered
                // and the ack is on the wire — stop the whole server.
                trigger_shutdown(self.shared);
            }
            outcome.map(|_| ())
        })
    }

    /// The reader half: frames lines, answers inline verbs, and starts
    /// every request (waiting out the answer of an untagged one).
    fn read_loop(
        &self,
        stream: &TcpStream,
        io: &mut SessionIo,
        dead: &AtomicBool,
    ) -> io::Result<Exit> {
        let mut lines = LineBuffer::new(MAX_REQUEST_LINE);
        let mut chunk = [0u8; 8192];
        loop {
            while let Some(line) = lines.next_line() {
                if let Some(exit) = self.serve_line(&line, io, dead) {
                    return Ok(exit);
                }
            }
            if lines.over_limit() {
                // A newline-free flood can only keep growing; refuse it
                // with a structured error and close this connection.
                self.shared.counters.count_error();
                io.respond(protocol::error_response(
                    None,
                    None,
                    &format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                ));
                return Ok(Exit::Drain);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Ok(Exit::Drain);
            }
            if dead.load(Ordering::SeqCst) {
                return Ok(Exit::Dead);
            }
            match (&mut (&*stream)).read(&mut chunk) {
                Ok(0) => {
                    // EOF; a trailing line without a newline still counts.
                    if !lines.is_empty() {
                        let line = lines.take_rest();
                        if let Some(exit) = self.serve_line(&line, io, dead) {
                            return Ok(exit);
                        }
                    }
                    return Ok(Exit::Drain);
                }
                Ok(n) => lines.extend(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Mints a trace span for one request, when the client opted in
    /// (`"trace": true`) and tracing is enabled. The `queued` stage is
    /// stamped immediately: the request has been read off the wire and is
    /// about to contend for admission.
    fn mint_span(
        &self,
        op: &'static str,
        requested: bool,
        seq: Option<&Json>,
    ) -> Option<RequestTrace> {
        let obs = &self.shared.obs;
        if !(requested && obs.enabled) {
            return None;
        }
        let id = obs.next_trace.fetch_add(1, Ordering::Relaxed);
        let span = Arc::new(RequestSpan::new(id, op, seq.map(|s| s.to_string())));
        span.record("queued");
        Some(span)
    }

    /// Serves one raw request line; `Some(exit)` ends the reader.
    fn serve_line(&self, raw: &[u8], io: &mut SessionIo, dead: &AtomicBool) -> Option<Exit> {
        let started = Instant::now();
        let counters = &self.shared.counters;
        let Ok(text) = std::str::from_utf8(raw) else {
            counters.count_error();
            io.respond(protocol::error_response(
                None,
                None,
                "request line is not valid UTF-8",
            ));
            return None;
        };
        let line = text.trim();
        if line.is_empty() {
            return None; // blank lines are JSONL padding, not requests
        }
        let request = match protocol::parse_request(line, &self.default_bins) {
            Ok(request) => request,
            Err(message) => {
                counters.count_error();
                // Echo the tag when one is recoverable, so a pipelining
                // client can attribute the error to its request instead of
                // losing the correlation (the response is still written at
                // this position in the stream — a parse failure never
                // enters the in-flight window).
                let seq = protocol::recover_seq(line);
                io.respond(protocol::error_response(None, seq.as_ref(), &message));
                return None;
            }
        };
        let verb = request.verb();
        counters.op(verb).inc();
        // `solve`, `resubmit` and `batch` start on the engine and complete
        // on the writer; `shutdown` ends the reader; every other verb is
        // answered in line.
        let response = match request {
            Request::Solve {
                request,
                id,
                want_plan,
                seq,
                trace,
            } => {
                counters.count_algorithm(request.algorithm);
                let span = self.mint_span(verb, trace, seq.as_ref());
                self.dispatch(io, dead, verb, seq, started, span, |at| {
                    self.start_solve(at, request, id, want_plan)
                });
                return None;
            }
            Request::Resubmit {
                id,
                delta,
                want_plan,
                seq,
                trace,
            } => {
                let span = self.mint_span(verb, trace, seq.as_ref());
                self.dispatch(io, dead, verb, seq, started, span, |at| {
                    self.start_resubmit(at, id, &delta, want_plan)
                });
                return None;
            }
            Request::Batch {
                requests,
                seq,
                trace,
            } => {
                for request in &requests {
                    counters.count_algorithm(request.algorithm);
                }
                let span = self.mint_span(verb, trace, seq.as_ref());
                self.dispatch(io, dead, verb, seq, started, span, |at| {
                    Ok(self.start_batch(at, requests))
                });
                return None;
            }
            Request::Shutdown => {
                let ack = Json::Object(vec![
                    member("ok", Json::Bool(true)),
                    member("op", Json::string(verb)),
                ]);
                return Some(Exit::ShutdownVerb(ack));
            }
            Request::Claim { id } | Request::Release { id } => self.run_lease_move(verb, &id),
            Request::Stats => self.stats_response(),
            Request::Metrics => self.metrics_response(),
            Request::Trace { limit } => self.trace_response(limit),
            Request::Health => self.health_response(),
            Request::Profile { limit } => self.profile_response(limit),
        };
        let done = Done {
            op: verb,
            started,
            span: None,
        };
        io.respond_done(response, done);
        None
    }

    // ---- solve / resubmit / batch: one start and one completion each ----

    /// Runs one `solve`, `resubmit`, or `batch` request. `start` is the
    /// verb's start function; whatever it starts is registered with the
    /// writer and completes there through [`Session::complete`]. A tagged
    /// request is first admitted through the in-flight gate; for an
    /// untagged one the reader waits here until the writer has written its
    /// answer, so it is answered at its position in the stream.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        io: &mut SessionIo,
        dead: &AtomicBool,
        op: &'static str,
        seq: Option<Json>,
        started: Instant,
        span: Option<RequestTrace>,
        start: impl FnOnce(Start<'_>) -> Result<PendingWork, Json>,
    ) {
        let seq = match seq {
            None => None,
            Some(seq) => {
                let seq_key = seq.to_string();
                let abort =
                    || dead.load(Ordering::SeqCst) || self.shared.shutdown.load(Ordering::SeqCst);
                match self.gate.acquire(&seq_key, self.shared.max_inflight, abort) {
                    Admission::Admitted => self.shared.counters.pipelined.inc(),
                    Admission::Duplicate => {
                        self.shared.counters.count_error();
                        let message = format!("seq {seq_key} is already in flight on this session");
                        let response = protocol::error_response(None, Some(&seq), &message);
                        io.respond_done(response, Done { op, started, span });
                        return;
                    }
                    Admission::Aborted => {
                        // The request is dropped — no response will ever be
                        // written. Record its latency sample here so the
                        // books still balance (one sample per counted
                        // request).
                        self.shared.obs.record_latency(op, started);
                        return;
                    }
                }
                Some((seq, seq_key))
            }
        };
        record_stage(&span, "admitted");
        // Worker pings that race ahead of the registration below are
        // covered by the poll the writer performs at registration.
        let token = io.next_token;
        let out = io.out.clone();
        let at = Start {
            seq: seq.as_ref().map(|(seq, _)| seq),
            seq_key: seq.as_ref().map(|(_, key)| key.as_str()),
            span: &span,
            notify: Arc::new(move || {
                let _ = out.send(Msg::Ping(token));
            }),
        };
        match start(at) {
            Err(response) => {
                if let Some((_, seq_key)) = &seq {
                    self.gate.release(seq_key);
                }
                io.respond_done(response, Done { op, started, span });
            }
            Ok(work) => {
                io.next_token += 1;
                let untagged = seq.is_none();
                let entry = InFlight {
                    seq,
                    started,
                    span,
                    deadline: Instant::now().checked_add(self.shared.request_timeout),
                    work,
                };
                let _ = io.out.send(Msg::Register {
                    token,
                    entry: Box::new(entry),
                });
                if untagged {
                    let _ = io.answered.recv();
                }
            }
        }
    }

    /// Starts a `solve`: marks a retained id pending, then submits the
    /// request through the middleware. `Err` is the (counted) error
    /// response.
    fn start_solve(
        &self,
        at: Start<'_>,
        request: EngineRequest,
        id: Option<String>,
        want_plan: bool,
    ) -> Result<PendingWork, Json> {
        if let Some(id) = &id {
            // An untagged producer marks the id pending too: its session
            // is blocked until the response, but *other* sessions race
            // freely and must see the same structured error.
            if let Err(e) = self.shared.store.begin_produce(self.sid, id, at.seq_key) {
                return Err(self.store_error("solve", at.seq, &e));
            }
        }
        let request = traced(self.shared.apply_middleware(request), at.span);
        record_stage(at.span, "dispatched");
        let handle = self.shared.engine.submit(request, at.submit());
        Ok(PendingWork::new("solve", id, want_plan, vec![handle]))
    }

    /// Starts a `resubmit`: becomes the id's producer, then submits the
    /// prior plan's request with `delta` applied, reusing its unchanged
    /// shards. `Err` is the (counted) error response.
    fn start_resubmit(
        &self,
        at: Start<'_>,
        id: String,
        delta: &WorkloadDelta,
        want_plan: bool,
    ) -> Result<PendingWork, Json> {
        // This request becomes the id's producer: concurrent resubmits of
        // one id — from this session or any other — would race each
        // other's retained state, so they queue behind the response.
        let prior = match self.shared.store.begin_resubmit(self.sid, &id, at.seq_key) {
            Ok(prior) => prior,
            Err(e) => return Err(self.store_error("resubmit", at.seq, &e)),
        };
        self.shared.counters.count_algorithm(prior.algorithm());
        record_stage(at.span, "dispatched");
        let request = match prior.resubmission(delta) {
            Ok(request) => traced(request, at.span),
            Err(e) => {
                let _ = self.shared.finish_store(self.sid, &id, None);
                self.shared.counters.count_error();
                let message = e.to_string();
                return Err(protocol::error_response(Some("resubmit"), at.seq, &message));
            }
        };
        let options = Submit {
            prior: Some(&prior),
            ..at.submit()
        };
        let handle = self.shared.engine.submit(request, options);
        Ok(PendingWork::new(
            "resubmit",
            Some(id),
            want_plan,
            vec![handle],
        ))
    }

    /// Starts a `batch`: submits every sub-request through the middleware
    /// up front, so their shards interleave freely in the pool.
    fn start_batch(&self, at: Start<'_>, requests: Vec<EngineRequest>) -> PendingWork {
        record_stage(at.span, "dispatched");
        let handles = requests
            .into_iter()
            .map(|request| {
                // Sub-requests share the batch's span: their shard stages
                // interleave on one timeline.
                let request = traced(self.shared.apply_middleware(request), at.span);
                self.shared.engine.submit(request, at.submit())
            })
            .collect();
        PendingWork::new("batch", None, false, handles)
    }

    /// Answers one started request from whatever its handles delivered —
    /// the one completion path of tagged and untagged `solve`, `resubmit`,
    /// and `batch` alike. A handle that has not delivered by now ran past
    /// the request deadline: its result is a timeout, counted in
    /// `ops.timeouts` and `timeouts.<verb>`.
    fn complete(&self, work: PendingWork, seq: Option<&Json>, span: &Option<RequestTrace>) -> Json {
        let shared = self.shared;
        let PendingWork {
            op,
            id,
            want_plan,
            results,
            ..
        } = work;
        if results.iter().any(Option::is_none) {
            shared.counters.count_timeout(op);
            record_stage(span, "expired");
        } else {
            record_stage(span, "merged");
        }
        let timeout = EngineError::Timeout {
            after: shared.request_timeout,
        };
        let mut results = results
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| Err(timeout.clone())));
        if op == "batch" {
            return batch_response(shared, results, seq);
        }
        match results.next().expect("solve and resubmit hold one handle") {
            Ok(resolved) => match id {
                None => resolved_response(op, None, seq, &resolved, want_plan),
                Some(id) => {
                    // Chained resubmits build on the latest state of the
                    // id — and the store's verdict shapes the response, so
                    // a producer that lost the id mid-solve never reports a
                    // false success.
                    let resolved = Arc::new(resolved);
                    let outcome = shared.finish_store(self.sid, &id, Some(Arc::clone(&resolved)));
                    self.outcome_response(op, &id, seq, outcome, &resolved, want_plan)
                }
            },
            Err(e) => {
                if let Some(id) = &id {
                    // A failed producer releases the id; the previously
                    // retained plan (if any) stays the id's current state.
                    let _ = shared.finish_store(self.sid, id, None);
                }
                shared.counters.count_error();
                protocol::error_response(Some(op), seq, &e.to_string())
            }
        }
    }

    /// Runs a `claim` or `release` verb against the shared store.
    fn run_lease_move(&self, op: &'static str, id: &str) -> Json {
        let moved = match op {
            "claim" => self.shared.store.claim(self.sid, id),
            _ => self.shared.store.release(self.sid, id),
        };
        match moved {
            Err(e) => self.store_error(op, None, &e),
            Ok(()) => {
                if op == "release" {
                    if let Some(journal) = &self.shared.journal {
                        journal.release(&self.shared.store, id);
                    }
                }
                Json::Object(vec![
                    member("ok", Json::Bool(true)),
                    member("op", Json::string(op)),
                    member("id", Json::string(id)),
                    member("session", Json::number(self.sid as f64)),
                ])
            }
        }
    }

    /// Maps a [`StoreError`] onto a coded error response. Same-session
    /// pending conflicts name the producing request's `seq` tag (the
    /// pipelining client should wait for that response); cross-session
    /// conflicts name the producing session instead.
    fn store_error(&self, op: &str, seq: Option<&Json>, error: &StoreError) -> Json {
        self.shared.counters.count_error();
        let (code, message) = match error {
            StoreError::Pending {
                id,
                producer,
                seq: producer_seq,
            } => {
                let message = match producer_seq {
                    Some(tag) if *producer == self.sid => {
                        format!("plan id `{id}` is still being produced by in-flight seq {tag}")
                    }
                    _ => format!("plan id `{id}` is still being produced by session {producer}"),
                };
                ("pending_producer", message)
            }
            StoreError::LeaseHeld { .. } => ("lease_conflict", error.to_string()),
            StoreError::UnknownPlan { .. } => ("unknown_plan", error.to_string()),
        };
        protocol::coded_error_response(Some(op), seq, Some(code), &message)
    }

    /// Shapes a producer's response from the store's verdict on the plan it
    /// just landed. A normally applied plan answers as before; a plan that
    /// landed *unleased* (the producer lost the id to its own session drop
    /// mid-solve) still answers success but carries `"unleased":true` so
    /// the client knows its lease is gone; a discarded plan (the id was
    /// reassigned to another producer in the meantime) is a coded
    /// `plan_not_stored` error — reporting success would be a lie.
    fn outcome_response(
        &self,
        op: &'static str,
        id: &str,
        seq: Option<&Json>,
        outcome: FinishOutcome,
        resolved: &ResolvedPlan,
        want_plan: bool,
    ) -> Json {
        match outcome {
            FinishOutcome::Discarded => {
                self.shared.counters.count_error();
                protocol::coded_error_response(
                    Some(op),
                    seq,
                    Some("plan_not_stored"),
                    &format!(
                        "plan id `{id}` was reassigned while this request was solving; \
                         the result was not stored"
                    ),
                )
            }
            outcome => {
                let mut response = resolved_response(op, Some(id), seq, resolved, want_plan);
                if outcome == FinishOutcome::LandedUnleased {
                    if let Json::Object(members) = &mut response {
                        members.push(member("unleased", Json::Bool(true)));
                    }
                }
                response
            }
        }
    }

    /// The `stats` verb: a reshaped subset of the `metrics` document. Every
    /// number comes from one `metrics` render except `max_inflight`, which
    /// is configuration. Members keep their historical names and order
    /// (new ones were only ever appended), so the bytes are stable.
    fn stats_response(&self) -> Json {
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
    fn metrics_response(&self) -> Json {
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
        let window_requests: u64 = snapshot
            .windows
            .values()
            .map(|view| view.snapshot.count())
            .sum();
        let window_span = snapshot
            .windows
            .values()
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
    fn trace_response(&self, limit: Option<usize>) -> Json {
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
    fn health_response(&self) -> Json {
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
    fn profile_response(&self, limit: Option<usize>) -> Json {
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

/// Stamps `stage` on a span, when there is one.
fn record_stage(span: &Option<RequestTrace>, stage: &'static str) {
    if let Some(span) = span {
        span.record(stage);
    }
}

/// Serializes one completed span — the shape shared by the `trace` verb's
/// `spans` entries and the `--trace-log` JSONL lines.
fn span_to_json(record: &SpanRecord) -> Json {
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
struct HealthReport {
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
fn evaluate_health(shared: &Shared) -> HealthReport {
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

/// Assembles a solve/resubmit success response from a resolved plan; the
/// one builder for tagged and untagged requests alike, so their responses
/// cannot drift (a tagged response is the untagged bytes plus the echoed
/// `seq`).
fn resolved_response(
    op: &str,
    id: Option<&str>,
    seq: Option<&Json>,
    resolved: &ResolvedPlan,
    want_plan: bool,
) -> Json {
    let audit = resolved
        .plan()
        .validate(resolved.workload(), resolved.bins())
        .expect("engine plans are structurally valid");
    let mut members = vec![
        member("ok", Json::Bool(true)),
        member("op", Json::string(op)),
    ];
    if let Some(seq) = seq {
        members.push(member("seq", seq.clone()));
    }
    if let Some(id) = id {
        members.push(member("id", Json::string(id)));
    }
    members.extend(protocol::plan_summary_members(
        resolved.algorithm(),
        resolved.workload(),
        &audit,
    ));
    members.push(member("shards", Json::number(resolved.shards() as f64)));
    members.push(member(
        "reused_shards",
        Json::number(resolved.reused_shards() as f64),
    ));
    if want_plan {
        members.push(member("plan", protocol::plan_to_json(resolved.plan())));
    }
    Json::Object(members)
}

/// Assembles a batch response from per-request results (counting failures).
fn batch_response(
    shared: &Shared,
    results: impl Iterator<Item = Result<ResolvedPlan, EngineError>>,
    seq: Option<&Json>,
) -> Json {
    let mut entries = Vec::with_capacity(results.size_hint().0);
    for (i, result) in results.enumerate() {
        let mut members = vec![member("request", Json::number(i as f64))];
        match result {
            Ok(resolved) => {
                let audit = resolved
                    .plan()
                    .validate(resolved.workload(), resolved.bins())
                    .expect("engine plans are structurally valid");
                members.extend(protocol::plan_summary_members(
                    resolved.algorithm(),
                    resolved.workload(),
                    &audit,
                ));
            }
            Err(e) => {
                shared.counters.count_error();
                members.push(member("error", Json::string(e.to_string())));
            }
        }
        entries.push(Json::Object(members));
    }
    let mut members = vec![
        member("ok", Json::Bool(true)),
        member("op", Json::string("batch")),
    ];
    if let Some(seq) = seq {
        members.push(member("seq", seq.clone()));
    }
    members.push(member("results", Json::Array(entries)));
    Json::Object(members)
}

/// Capacity the writer's buffer is trimmed back to after a larger response
/// (a `plan: true` answer can run to hundreds of KiB; a typical response is
/// a few hundred bytes), so one big answer does not pin memory for the rest
/// of the session.
const WRITE_BUF_KEEP: usize = 16 * 1024;

/// Finalizes one response and writes it. On a write failure (stalled or
/// gone client) it flags the connection dead; later calls only finalize,
/// so the writer never blocks on a dead peer.
///
/// The response is rendered, newline included, into `buf` — one buffer
/// reused for the whole session — and handed to the stream in a single
/// `write_all`: one `write(2)` per response rather than one per JSON
/// token, which under `TCP_NODELAY` would also mean one segment per token.
///
/// Finalizing happens strictly before the bytes reach the socket: a traced
/// span gets its `written` stage, is snapshotted, and is sunk (ring /
/// trace log / slow log), and the latency sample is recorded. A client
/// that has read its response can therefore always retrieve its span with
/// a `trace` request, and the trace id is echoed on the response itself.
/// Finalization happens even on a dead connection (only the write is
/// skipped), so the books balance no matter how the session ends.
fn write_response<W: Write>(
    stream: &mut W,
    buf: &mut String,
    outgoing: Outgoing,
    dead: &AtomicBool,
    obs: &ServerObs,
) {
    let Outgoing { mut response, done } = outgoing;
    if let Some(done) = done {
        if let Some(span) = &done.span {
            span.record("written");
            let record = span.finish();
            if let Json::Object(members) = &mut response {
                members.push(member("trace", Json::number(record.id as f64)));
            }
            obs.sink_span(&record, buf);
        }
        obs.record_latency(done.op, done.started);
    }
    if dead.load(Ordering::SeqCst) {
        return;
    }
    buf.clear();
    response.write_into(buf);
    buf.push('\n');
    if stream
        .write_all(buf.as_bytes())
        .and_then(|()| stream.flush())
        .is_err()
    {
        dead.store(true, Ordering::SeqCst);
    }
    if buf.capacity() > WRITE_BUF_KEEP {
        buf.clear();
        buf.shrink_to(WRITE_BUF_KEEP);
    }
}

/// The writer half: the session's only completion site. It owns the write
/// half and every in-flight request; see the module docs for the protocol.
struct Writer<'a, 'b> {
    session: &'a Session<'b>,
    stream: TcpStream,
    buf: String,
    dead: &'a AtomicBool,
    /// In-flight entries by dispatch token (a `BTreeMap` so a discarding
    /// drain releases them in dispatch order, deterministically).
    inflight: BTreeMap<u64, InFlight>,
    /// Tells the reader an untagged response is written.
    answered: Sender<()>,
}

impl Writer<'_, '_> {
    fn run(mut self, inbox: Receiver<Msg>) {
        // Set by `Drain`: the loop runs on until nothing is in flight, then
        // writes the optional ack (the shutdown response) last.
        let mut draining = None;
        loop {
            match inbox.recv_timeout(self.poll_interval()) {
                Ok(Msg::Line(outgoing)) => self.write(outgoing),
                Ok(Msg::Register { token, entry }) => {
                    self.inflight.insert(token, *entry);
                    // Cover shard pings that raced ahead of registration
                    // (and zero-outstanding work, e.g. an all-reused
                    // resubmit that will never ping).
                    self.try_complete(token);
                }
                Ok(Msg::Ping(token)) => self.try_complete(token),
                Ok(Msg::Drain { ack, discard }) => {
                    if discard {
                        self.discard_all();
                    }
                    draining = Some(ack);
                }
                Err(RecvTimeoutError::Timeout) => {}
                // The reader vanished without a Drain (a panic); there is
                // nobody left to answer, so just stop.
                Err(RecvTimeoutError::Disconnected) => return,
            }
            self.expire_overdue();
            if self.inflight.is_empty() {
                if let Some(ack) = draining.take() {
                    if let Some(response) = ack {
                        // The shutdown ack is deliberately outside the
                        // latency accounting (see [`latency_verbs`]).
                        self.write(Outgoing {
                            response,
                            done: None,
                        });
                    }
                    return;
                }
            }
        }
    }

    /// Sleep no longer than the nearest in-flight deadline (clamped to the
    /// standard poll), so expiry is noticed promptly even on a silent
    /// connection.
    fn poll_interval(&self) -> Duration {
        let now = Instant::now();
        self.inflight
            .values()
            .filter_map(|e| e.deadline)
            .map(|d| d.saturating_duration_since(now))
            .min()
            .map_or(READ_POLL, |d| d.clamp(Duration::from_millis(1), READ_POLL))
    }

    /// Polls the tokened entry; answers and retires it if it finished.
    fn try_complete(&mut self, token: u64) {
        let Some(entry) = self.inflight.get_mut(&token) else {
            return; // early ping, or the entry already expired
        };
        if entry.work.poll() {
            let entry = self.inflight.remove(&token).expect("present above");
            self.finish(entry);
        }
    }

    /// Turns every overdue entry into a structured timeout response; the
    /// abandoned shards finish in the pool (the engine's standard timeout
    /// posture).
    fn expire_overdue(&mut self) {
        let now = Instant::now();
        let due: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, e)| e.deadline.is_some_and(|d| now >= d))
            .map(|(&t, _)| t)
            .collect();
        for token in due {
            let entry = self.inflight.remove(&token).expect("collected above");
            self.finish(entry);
        }
    }

    /// Dead connection: nobody can read responses. Releases the bookkeeping
    /// of everything in flight; dropping the handles abandons the shards.
    fn discard_all(&mut self) {
        let session = self.session;
        while let Some((_token, entry)) = self.inflight.pop_first() {
            if let Some(id) = &entry.work.id {
                let _ = session.shared.finish_store(session.sid, id, None);
            }
            if let Some((_, seq_key)) = &entry.seq {
                session.gate.release(seq_key);
            }
            // No response will ever be written; record the latency sample
            // directly so every counted request still has exactly one.
            session
                .shared
                .obs
                .record_latency(entry.work.op, entry.started);
        }
    }

    /// Answers one retired entry through the shared completion path.
    fn finish(&mut self, entry: InFlight) {
        let InFlight {
            seq,
            started,
            span,
            work,
            ..
        } = entry;
        let op = work.op;
        let response = self
            .session
            .complete(work, seq.as_ref().map(|(seq, _)| seq), &span);
        if let Some((_, seq_key)) = &seq {
            self.session.gate.release(seq_key);
        }
        self.write(Outgoing {
            response,
            done: Some(Done { op, started, span }),
        });
        if seq.is_none() {
            let _ = self.answered.send(());
        }
    }

    fn write(&mut self, outgoing: Outgoing) {
        let obs = &self.session.shared.obs;
        write_response(&mut self.stream, &mut self.buf, outgoing, self.dead, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One `write` call as `write_response` issued it, with the obs state
    /// observed at that moment.
    struct Observed {
        bytes: Vec<u8>,
        spans_sunk: u64,
        solve_latencies: u64,
    }

    /// An `io::Write` that records every call and what had already been
    /// finalized when it arrived.
    struct CountingWriter<'a> {
        obs: &'a ServerObs,
        writes: Vec<Observed>,
    }

    impl Write for CountingWriter<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(Observed {
                bytes: buf.to_vec(),
                spans_sunk: self.obs.ring.pushed(),
                solve_latencies: self.obs.latency_for("solve").unwrap().lifetime().count(),
            });
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_issues_one_write_per_response_after_finalizing_it() {
        let trace_log =
            std::env::temp_dir().join(format!("slade-writer-loop-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&trace_log);
        let options = ObsOptions {
            trace_log: Some(trace_log.clone()),
            ..ObsOptions::default()
        };
        let obs = ServerObs::new(&options, Registry::new()).unwrap();
        let solved = |cost: f64| {
            Json::Object(vec![
                member("ok", Json::Bool(true)),
                member("op", Json::string("solve")),
                member("cost", Json::number(cost)),
                member("note", Json::string("quote \" and\nnewline")),
            ])
        };
        let big = Json::Object(vec![
            member("ok", Json::Bool(true)),
            member(
                "plan",
                Json::Array((0..20_000).map(|i| Json::number(f64::from(i))).collect()),
            ),
        ]);
        let span = |id| Some(Arc::new(slade_obs::RequestSpan::new(id, "solve", None)));
        let done = |span| {
            Some(Done {
                op: "solve",
                started: Instant::now(),
                span,
            })
        };
        let queued = vec![
            (solved(0.68), done(span(1))),
            (solved(0.1 + 0.2), done(None)),
            (protocol::error_response(None, None, "bad line"), None),
            (big.clone(), done(None)),
            (solved(-0.0), done(span(2))),
        ];
        let traced = |mut response: Json, id: f64| {
            if let Json::Object(members) = &mut response {
                members.push(member("trace", Json::number(id)));
            }
            response
        };
        let expected: Vec<String> = [
            traced(solved(0.68), 1.0),
            solved(0.1 + 0.2),
            protocol::error_response(None, None, "bad line"),
            big,
            traced(solved(-0.0), 2.0),
        ]
        .iter()
        .map(|response| format!("{response}\n"))
        .collect();
        let mut writer = CountingWriter {
            obs: &obs,
            writes: Vec::new(),
        };
        let mut buf = String::new();
        let dead = AtomicBool::new(false);
        for (response, done) in queued {
            let outgoing = Outgoing { response, done };
            write_response(&mut writer, &mut buf, outgoing, &dead, &obs);
        }

        // Exactly one write per response, each carrying one whole line.
        assert_eq!(writer.writes.len(), expected.len());
        for (observed, line) in writer.writes.iter().zip(&expected) {
            assert_eq!(String::from_utf8_lossy(&observed.bytes), line.as_str());
        }
        // Each response's span was sunk and its latency recorded before
        // the write that carries it.
        let spans: Vec<u64> = writer.writes.iter().map(|w| w.spans_sunk).collect();
        assert_eq!(spans, [1, 1, 1, 1, 2]);
        let latencies: Vec<u64> = writer.writes.iter().map(|w| w.solve_latencies).collect();
        assert_eq!(latencies, [1, 2, 2, 3, 4]);
        // The trace log got one whole line per traced span.
        let logged = std::fs::read_to_string(&trace_log).unwrap();
        let _ = std::fs::remove_file(&trace_log);
        let ids: Vec<f64> = logged
            .lines()
            .map(|line| {
                slade_json::parse(line)
                    .unwrap()
                    .get("id")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert_eq!(ids, [1.0, 2.0]);
    }

    #[test]
    fn a_dead_connection_still_finalizes_but_never_writes() {
        let obs = ServerObs::new(&ObsOptions::default(), Registry::new()).unwrap();
        let outgoing = Outgoing {
            response: Json::Null,
            done: Some(Done {
                op: "solve",
                started: Instant::now(),
                span: Some(Arc::new(slade_obs::RequestSpan::new(7, "solve", None))),
            }),
        };
        let mut writer = CountingWriter {
            obs: &obs,
            writes: Vec::new(),
        };
        let dead = AtomicBool::new(true);
        write_response(&mut writer, &mut String::new(), outgoing, &dead, &obs);
        assert!(writer.writes.is_empty());
        assert_eq!(obs.ring.pushed(), 1);
        assert_eq!(obs.latency_for("solve").unwrap().lifetime().count(), 1);
    }
}
