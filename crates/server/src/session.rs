//! A session: the reader and the writer of one connection.
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
//!
//! [`ShardNotify`]: slade_engine::ShardNotify
//! [`ServerConfig::max_inflight`]: crate::ServerConfig::max_inflight

use crate::accept::trigger_shutdown;
use crate::line::LineBuffer;
use crate::protocol::{self, Request};
use crate::server::{lock, ServerObs, Shared};
use crate::verbs::Start;
use slade_core::bin_set::BinSet;
use slade_engine::{EngineError, RequestTrace, ResolvedHandle, ResolvedPlan, SessionId};
use slade_json::{member, Json};
use slade_obs::RequestSpan;
use std::collections::{BTreeMap, HashSet};
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How often blocked session reads wake up to check the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long a response write to a stalled client may block before the
/// session gives the connection up.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest request line a session accepts. Generous — a million-task
/// thresholds array fits severalfold — but finite, so one connection
/// streaming newline-free bytes cannot grow a buffer without bound.
const MAX_REQUEST_LINE: usize = 64 * 1024 * 1024;

/// One connection: counts itself in, serves lines, counts itself out. At
/// exit the session's store state is dropped — its leases and pending
/// markers go away, the plans it produced stay claimable by any session.
pub(crate) fn session(stream: TcpStream, shared: &Shared) {
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
pub(crate) struct PendingWork {
    pub(crate) op: &'static str,
    /// Plan id this request produces (always the request id for
    /// `resubmit`, the optional retain id for `solve`, never for `batch`).
    pub(crate) id: Option<String>,
    pub(crate) want_plan: bool,
    pub(crate) handles: Vec<ResolvedHandle>,
    /// Index-aligned with `handles`: each handle's result once delivered
    /// (`try_wait` hands a result out exactly once, so it is kept here on
    /// the way to the response builder).
    pub(crate) results: Vec<Option<Result<ResolvedPlan, EngineError>>>,
}

impl PendingWork {
    pub(crate) fn new(
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
    /// [`ShardNotify`](slade_engine::ShardNotify); may arrive before the matching `Register` — the
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
pub(crate) struct Session<'a> {
    pub(crate) shared: &'a Shared,
    /// This connection's identity in the shared [`PlanStore`](slade_engine::PlanStore).
    pub(crate) sid: SessionId,
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
}

/// Stamps `stage` on a span, when there is one.
pub(crate) fn record_stage(span: &Option<RequestTrace>, stage: &'static str) {
    if let Some(span) = span {
        span.record(stage);
    }
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
    use crate::server::ObsOptions;
    use slade_obs::Registry;

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
