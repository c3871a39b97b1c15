//! The load generator: an open loop at a fixed offered rate (one pipelined
//! connection, a sender and a receiver thread) and a closed loop with a
//! fixed window of `seq`-tagged requests (one thread per connection).
//!
//! Both drive the mix's chain stream with one invariant: a chain's next step
//! is sent only after its previous step was answered, and a chain starts
//! only once the previous chain on its plan id has finished — so no id ever
//! has two steps in flight.

use crate::rng::mix;
use crate::server::{is_timeout, Conn};
use crate::stats::Schedule;
use crate::workload::{Chain, Mix, ID_POOL};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One in every `SAMPLE_EVERY` chains (chosen by a hash of the seed) has
/// all of its responses kept for the correctness gate.
const SAMPLE_EVERY: u64 = 16;

/// How long the generator waits for stragglers after a phase ends.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

pub fn sampled(seed: u64, chain: u64) -> bool {
    mix(seed ^ mix(chain ^ 0x5eed)).is_multiple_of(SAMPLE_EVERY)
}

/// `line` with a `seq` tag as its first member.
pub fn with_seq(line: &str, seq: u64) -> String {
    format!("{{\"seq\":{seq},{}", &line[1..])
}

fn with_trace(line: &str) -> String {
    format!("{{\"trace\":true,{}", &line[1..])
}

/// The `seq` tag a response echoes, if any.
pub fn seq_of(response: &str) -> Option<u64> {
    let at = response.find("\"seq\":")? + 6;
    let digits = response[at..]
        .bytes()
        .take_while(u8::is_ascii_digit)
        .count();
    response[at..at + digits].parse().ok()
}

/// A response with its echoed `seq` member removed — the untagged bytes.
pub fn strip_seq(response: &str) -> String {
    match seq_of(response) {
        Some(seq) => response.replacen(&format!(",\"seq\":{seq}"), "", 1),
        None => response.to_string(),
    }
}

/// Whether `response` is a success for request `line`: every answer must
/// be `ok:true`, and every plan-producing answer also `feasible:true`.
pub fn answer_ok(line: &str, response: &str) -> bool {
    let ok = response.starts_with("{\"ok\":true");
    let plan_producing =
        !line.starts_with("{\"op\":\"claim\"") && !line.starts_with("{\"op\":\"release\"");
    ok && (!plan_producing || response.contains("\"feasible\":true"))
}

/// The numeric value of member `key` in a flat response, if present.
pub fn number_member(response: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let at = response.find(&pattern)? + pattern.len();
    let len = response[at..]
        .bytes()
        .take_while(|b| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'e' | b'E' | b'+'))
        .count();
    response[at..at + len].parse().ok()
}

/// The chain stream of one run, shared by its phases so the timed phases
/// continue where the fixed list ended.
pub struct Stream {
    pub mix: Mix,
    pub seed: u64,
    next: AtomicU64,
}

impl Stream {
    pub fn new(mix: Mix, seed: u64) -> Stream {
        Stream {
            mix,
            seed,
            next: AtomicU64::new(0),
        }
    }

    pub fn position(&self) -> u64 {
        self.next.load(Ordering::SeqCst)
    }
}

/// What the run's phases accumulate: request counts, the responses kept
/// for the correctness gate, and each plan id's last landed step.
#[derive(Default)]
pub struct Ledger {
    pub attempted: AtomicU64,
    pub failed: AtomicU64,
    /// Sum of the `shards` members of plan-producing answers, and their
    /// count.
    pub shards: AtomicU64,
    pub plan_answers: AtomicU64,
    recorded: Mutex<BTreeMap<(u64, usize), String>>,
    slot_last: Mutex<BTreeMap<usize, (u64, usize)>>,
}

impl Ledger {
    /// Kept responses, `(chain, step) → response without seq`.
    pub fn recorded(&self) -> BTreeMap<(u64, usize), String> {
        self.recorded.lock().expect("ledger lock").clone()
    }

    /// For each plan id slot: the chain that last used it and how many of
    /// its steps landed.
    pub fn slot_last(&self) -> BTreeMap<usize, (u64, usize)> {
        self.slot_last.lock().expect("ledger lock").clone()
    }

    /// Drops every kept response whose chain is not in the checked sample.
    pub fn keep_sampled(&self, seed: u64) {
        self.recorded
            .lock()
            .expect("ledger lock")
            .retain(|(chain, _), _| sampled(seed, *chain));
    }

    /// Notes that the first `steps` steps of `chain` landed.
    pub fn landed(&self, chain: &Chain, steps: usize) {
        if let Some(slot) = chain.slot() {
            self.slot_last
                .lock()
                .expect("ledger lock")
                .insert(slot, (chain.index, steps));
        }
    }

    pub fn count(&self, ok: bool) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Which responses a phase keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    All,
    Sampled,
    Nothing,
}

/// One phase's limits.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    /// Start no chain at or beyond this stream position.
    pub end: Option<u64>,
    /// Start no chain after this instant.
    pub deadline: Option<Instant>,
    /// Send every request with `"trace":true`.
    pub trace: bool,
    pub keep: Keep,
}

/// A phase in progress: the shared chain bookkeeping of its threads.
struct Phase<'a> {
    stream: &'a Stream,
    ledger: &'a Ledger,
    spec: PhaseSpec,
    busy: Mutex<Vec<bool>>,
    /// Plan id slots with a step in flight: the generator's own invariant,
    /// checked on every send.
    in_flight: Mutex<HashSet<usize>>,
    /// Chains started and not yet finished, across all threads.
    open: AtomicUsize,
    /// Successful answers received before the deadline.
    ok_in_time: AtomicU64,
}

impl<'a> Phase<'a> {
    fn new(stream: &'a Stream, ledger: &'a Ledger, spec: PhaseSpec) -> Phase<'a> {
        Phase {
            stream,
            ledger,
            spec,
            busy: Mutex::new(vec![false; ID_POOL as usize]),
            in_flight: Mutex::new(HashSet::new()),
            open: AtomicUsize::new(0),
            ok_in_time: AtomicU64::new(0),
        }
    }

    fn stopping(&self) -> bool {
        self.spec.deadline.is_some_and(|d| Instant::now() >= d)
            || self
                .spec
                .end
                .is_some_and(|end| self.stream.position() >= end)
    }

    /// Starts the next chain of the stream, unless the phase is stopping or
    /// the chain's id is still in use (then it waits in `blocked`).
    fn start_chain(&self, blocked: &mut Option<Arc<Chain>>) -> Option<Arc<Chain>> {
        if blocked.is_none() {
            if self.spec.deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            let end = self.spec.end.unwrap_or(u64::MAX);
            let index = self
                .stream
                .next
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < end).then_some(n + 1)
                })
                .ok()?;
            self.open.fetch_add(1, Ordering::SeqCst);
            *blocked = Some(Arc::new(self.stream.mix.chain(self.stream.seed, index)));
        }
        let chain = blocked.as_ref().expect("set above");
        if let Some(slot) = chain.slot() {
            let mut busy = self.busy.lock().expect("slot lock");
            if busy[slot] {
                return None;
            }
            busy[slot] = true;
        }
        blocked.take()
    }

    fn finish_chain(&self, chain: &Chain) {
        if let Some(slot) = chain.slot() {
            self.busy.lock().expect("slot lock")[slot] = false;
        }
        self.open.fetch_sub(1, Ordering::SeqCst);
    }

    /// The wire line for step `step` of `chain`, tagged `seq`. Fails if
    /// the chain's plan id already has a step in flight.
    fn line(&self, chain: &Chain, step: usize, seq: u64) -> Result<String, String> {
        if let Some(slot) = chain.slot() {
            if !self.in_flight.lock().expect("in-flight lock").insert(slot) {
                return Err(format!(
                    "generator bug: two steps of plan id p{slot} in flight"
                ));
            }
        }
        let line = with_seq(&chain.steps[step], seq);
        Ok(if self.spec.trace {
            with_trace(&line)
        } else {
            line
        })
    }

    /// Books one answer to step `step` of `chain`; returns whether it
    /// succeeded.
    fn answer(&self, chain: &Chain, step: usize, response: &str) -> bool {
        if let Some(slot) = chain.slot() {
            self.in_flight.lock().expect("in-flight lock").remove(&slot);
        }
        let ok = answer_ok(&chain.steps[step], response);
        self.ledger.count(ok);
        if ok {
            if self.spec.deadline.is_none_or(|d| Instant::now() < d) {
                self.ok_in_time.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(shards) = number_member(response, "shards") {
                self.ledger
                    .shards
                    .fetch_add(shards as u64, Ordering::Relaxed);
                self.ledger.plan_answers.fetch_add(1, Ordering::Relaxed);
            }
            self.ledger.landed(chain, step + 1);
        }
        let keep = match self.spec.keep {
            Keep::All => true,
            Keep::Sampled => sampled(self.stream.seed, chain.index),
            Keep::Nothing => false,
        };
        if keep {
            self.ledger
                .recorded
                .lock()
                .expect("ledger lock")
                .insert((chain.index, step), strip_seq(response));
        }
        ok
    }
}

/// What one open-loop phase measured.
pub struct OpenLoop {
    /// Latency from due time (ms), indexed by schedule position; failures
    /// are `∞`.
    pub latencies_ms: Vec<f64>,
    /// How late each request was written, behind its due time (ms).
    pub late_ms: Vec<f64>,
}

/// Offers `rate` requests per second for `duration` on one pipelined
/// connection, timing each answer from its due time.
pub fn open_loop(
    addr: SocketAddr,
    stream: &Stream,
    ledger: &Ledger,
    rate: f64,
    duration: Duration,
    keep: Keep,
) -> Result<OpenLoop, String> {
    let phase = Phase::new(
        stream,
        ledger,
        PhaseSpec {
            end: None,
            deadline: None,
            trace: false,
            keep,
        },
    );
    let mut conn = Conn::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    conn.set_read_timeout(Duration::from_millis(20))
        .map_err(|e| e.to_string())?;
    let mut writer = conn.writer().map_err(|e| e.to_string())?;
    let total = (duration.as_secs_f64() * rate).round() as u64;
    let schedule = Schedule {
        start: Instant::now() + Duration::from_millis(10),
        interval: Duration::from_secs_f64(1.0 / rate),
    };
    let inflight: Mutex<HashMap<u64, (Arc<Chain>, usize)>> = Mutex::new(HashMap::new());
    let ready: Mutex<VecDeque<(Arc<Chain>, usize)>> = Mutex::new(VecDeque::new());
    let sent = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late_ms = Vec::with_capacity(total as usize);
            let mut blocked = None;
            let result = (|| {
                for i in 0..total {
                    let due = schedule.due(i);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let (chain, step) = loop {
                        if let Some(next) = ready.lock().expect("ready lock").pop_front() {
                            break next;
                        }
                        if let Some(chain) = phase.start_chain(&mut blocked) {
                            break (chain, 0);
                        }
                        std::thread::sleep(Duration::from_micros(50));
                    };
                    let line = phase.line(&chain, step, i)?;
                    inflight
                        .lock()
                        .expect("inflight lock")
                        .insert(i, (chain, step));
                    writer
                        .write_all(format!("{line}\n").as_bytes())
                        .map_err(|e| format!("sending: {e}"))?;
                    late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                    sent.store(i + 1, Ordering::SeqCst);
                }
                Ok::<(), String>(())
            })();
            sender_done.store(true, Ordering::SeqCst);
            result.map(|()| late_ms)
        });

        let mut latencies_ms = vec![f64::INFINITY; total as usize];
        let mut received = 0u64;
        let mut drain_deadline = None;
        let mut error = None;
        loop {
            let done = sender_done.load(Ordering::SeqCst);
            if done && received == sent.load(Ordering::SeqCst) {
                break;
            }
            if done {
                let deadline = *drain_deadline.get_or_insert(Instant::now() + DRAIN_TIMEOUT);
                if Instant::now() >= deadline {
                    for _ in received..sent.load(Ordering::SeqCst) {
                        ledger.count(false);
                    }
                    break;
                }
            }
            let response = match conn.recv() {
                Ok(response) => response,
                Err(e) if is_timeout(&e) => continue,
                Err(e) => {
                    error = Some(format!("receiving: {e}"));
                    break;
                }
            };
            let now = Instant::now();
            let Some(seq) = seq_of(&response) else {
                error = Some(format!("untagged response in the open loop: {response}"));
                break;
            };
            let Some((chain, step)) = inflight.lock().expect("inflight lock").remove(&seq) else {
                error = Some(format!("response for unknown seq {seq}"));
                break;
            };
            let ok = phase.answer(&chain, step, &response);
            received += 1;
            if ok {
                latencies_ms[seq as usize] = schedule.latency_ms(seq, now);
            }
            if ok && step + 1 < chain.steps.len() {
                ready
                    .lock()
                    .expect("ready lock")
                    .push_back((chain, step + 1));
            } else {
                phase.finish_chain(&chain);
            }
        }
        let late_ms = sender
            .join()
            .expect("the open-loop sender must not panic")?;
        if let Some(error) = error {
            return Err(error);
        }
        // Chains cut off by the end of the schedule stop at their last
        // answered step; the ledger already holds how far each got.
        for (chain, _) in ready.lock().expect("ready lock").drain(..) {
            phase.finish_chain(&chain);
        }
        Ok(OpenLoop {
            latencies_ms,
            late_ms,
        })
    })
}

/// A request the closed loop sent without a tag (lease moves), answered at
/// its stream position.
enum Untagged {
    /// Releasing a chain's id so the other connection can claim it.
    HandOff(Arc<Chain>),
    Claim(Arc<Chain>),
    /// Releasing a finished chain's id, so the next chain on that id may
    /// run on either connection.
    Done(Arc<Chain>),
}

/// Keeps `window` tagged requests in flight on each of `connections`
/// connections until the phase's end or deadline, then finishes every
/// started chain. With two connections, every `HANDOFF_EVERY`-th chain
/// moves to the other connection after its first step (`release`, then
/// `claim`), and every chain releases its id when it ends. Returns the
/// successful answers received before the deadline.
pub fn closed_loop(
    addr: SocketAddr,
    connections: usize,
    window: usize,
    stream: &Stream,
    ledger: &Ledger,
    spec: PhaseSpec,
) -> Result<u64, String> {
    let phase = Phase::new(stream, ledger, spec);
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..connections).map(|_| channel()).unzip();
    std::thread::scope(|scope| {
        let workers: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| {
                let outbox = (connections > 1).then(|| senders[(i + 1) % connections].clone());
                let phase = &phase;
                scope.spawn(move || closed_worker(addr, window, phase, inbox, outbox))
            })
            .collect();
        let mut result = Ok(());
        for worker in workers {
            let outcome = worker.join().expect("closed-loop workers must not panic");
            if result.is_ok() {
                result = outcome;
            }
        }
        result
    })?;
    Ok(phase.ok_in_time.load(Ordering::SeqCst))
}

fn closed_worker(
    addr: SocketAddr,
    window: usize,
    phase: &Phase,
    inbox: Receiver<Arc<Chain>>,
    outbox: Option<Sender<Arc<Chain>>>,
) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    conn.set_read_timeout(Duration::from_millis(1))
        .map_err(|e| e.to_string())?;
    let mut inflight: HashMap<u64, (Arc<Chain>, usize)> = HashMap::new();
    let mut untagged: VecDeque<Untagged> = VecDeque::new();
    let mut ready: VecDeque<(Arc<Chain>, usize)> = VecDeque::new();
    let mut blocked = None;
    let mut next_seq = 0u64;
    let mut idle_since: Option<Instant> = None;
    let send = |conn: &mut Conn, line: &str| conn.send(line).map_err(|e| format!("sending: {e}"));
    loop {
        while let Ok(chain) = inbox.try_recv() {
            let id = chain.id.as_deref().expect("handed-off chains carry an id");
            send(&mut conn, &format!("{{\"op\":\"claim\",\"id\":\"{id}\"}}"))?;
            untagged.push_back(Untagged::Claim(chain));
        }
        while inflight.len() < window {
            let (chain, step) = match ready.pop_front() {
                Some(next) => next,
                None => match phase.start_chain(&mut blocked) {
                    Some(chain) => (chain, 0),
                    None => break,
                },
            };
            send(&mut conn, &phase.line(&chain, step, next_seq)?)?;
            inflight.insert(next_seq, (chain, step));
            next_seq += 1;
        }
        let quiet = inflight.is_empty() && untagged.is_empty() && ready.is_empty();
        if quiet && blocked.is_none() && phase.stopping() && phase.open.load(Ordering::SeqCst) == 0
        {
            return Ok(());
        }
        let response = match conn.recv() {
            Ok(response) => {
                idle_since = None;
                response
            }
            Err(e) if is_timeout(&e) => {
                if inflight.is_empty() && untagged.is_empty() {
                    continue;
                }
                let since = *idle_since.get_or_insert_with(Instant::now);
                if since.elapsed() > DRAIN_TIMEOUT {
                    return Err("the server stopped answering".to_string());
                }
                continue;
            }
            Err(e) => return Err(format!("receiving: {e}")),
        };
        match seq_of(&response) {
            Some(seq) => {
                let (chain, step) = inflight
                    .remove(&seq)
                    .ok_or_else(|| format!("response for unknown seq {seq}"))?;
                let ok = phase.answer(&chain, step, &response);
                let last = !ok || step + 1 == chain.steps.len();
                match (&chain.id, &outbox) {
                    (Some(id), Some(_)) if last || (chain.handoff && step == 0) => {
                        send(
                            &mut conn,
                            &format!("{{\"op\":\"release\",\"id\":\"{id}\"}}"),
                        )?;
                        untagged.push_back(if last {
                            Untagged::Done(chain)
                        } else {
                            Untagged::HandOff(chain)
                        });
                    }
                    _ if last => phase.finish_chain(&chain),
                    _ => ready.push_back((chain, step + 1)),
                }
            }
            None => {
                let ok = response.starts_with("{\"ok\":true");
                phase.ledger.count(ok);
                match untagged
                    .pop_front()
                    .ok_or_else(|| format!("unexpected untagged response: {response}"))?
                {
                    Untagged::HandOff(chain) if ok => {
                        let outbox = outbox.as_ref().expect("only two-connection loops hand off");
                        outbox
                            .send(chain)
                            .map_err(|_| "the other connection is gone".to_string())?;
                    }
                    Untagged::Claim(chain) if ok => ready.push_back((chain, 1)),
                    Untagged::HandOff(chain) | Untagged::Claim(chain) | Untagged::Done(chain) => {
                        phase.finish_chain(&chain)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_tags_round_trip_through_responses() {
        let line = with_seq("{\"tasks\":4}", 42);
        assert_eq!(line, "{\"seq\":42,\"tasks\":4}");
        let response = "{\"ok\":true,\"op\":\"solve\",\"seq\":42,\"algorithm\":\"opq-based\"}";
        assert_eq!(seq_of(response), Some(42));
        assert_eq!(
            strip_seq(response),
            "{\"ok\":true,\"op\":\"solve\",\"algorithm\":\"opq-based\"}"
        );
        assert_eq!(seq_of("{\"ok\":true,\"op\":\"claim\"}"), None);
    }

    #[test]
    fn resubmit_chains_reuse_ids_without_overlap_and_hand_off_cleanly() {
        let server = slade_server::Server::bind(slade_server::ServerConfig::default())
            .expect("binding a loopback port");
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let running = std::thread::spawn(move || server.run());
        // Twice the id pool: every plan id is reused by a later chain, and
        // every HANDOFF_EVERY-th chain moves between the two connections.
        // A second step of one id in flight fails `Phase::line`; a lease
        // left behind fails the next chain on that id.
        let stream = Stream::new(Mix::Journaled, 9);
        let ledger = Ledger::default();
        let spec = PhaseSpec {
            end: Some(2 * ID_POOL),
            deadline: None,
            trace: false,
            keep: Keep::Nothing,
        };
        closed_loop(addr, 2, 8, &stream, &ledger, spec).expect("the closed loop completes");
        assert_eq!(ledger.failed.load(Ordering::SeqCst), 0);
        assert!(ledger.attempted.load(Ordering::SeqCst) >= 2 * ID_POOL * 5);
        assert_eq!(ledger.slot_last().len(), ID_POOL as usize);
        shutdown.shutdown();
        running
            .join()
            .expect("the server thread must not panic")
            .expect("the server shuts down cleanly");
    }

    #[test]
    fn answers_must_be_ok_and_feasible() {
        let solve = "{\"tasks\":4}";
        assert!(answer_ok(solve, "{\"ok\":true,\"feasible\":true}"));
        assert!(!answer_ok(solve, "{\"ok\":true,\"feasible\":false}"));
        assert!(!answer_ok(solve, "{\"ok\":false,\"error\":\"x\"}"));
        let claim = "{\"op\":\"claim\",\"id\":\"p1\"}";
        assert!(answer_ok(claim, "{\"ok\":true,\"op\":\"claim\"}"));
        assert_eq!(
            number_member("{\"shards\":3,\"cost\":1.25e2}", "cost"),
            Some(125.0)
        );
    }
}
