//! Request spans and the bounded ring completed spans land in.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Locks a mutex, shrugging off poisoning: span state is a vec of plain
/// events, valid at every instruction boundary.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One stamped stage of a request's life. `at_ns` is nanoseconds since the
/// span was minted; shard stages additionally carry which shard ran, on
/// which worker, and whether the job was stolen from another worker's
/// deque.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageEvent {
    /// Stage name (`queued`, `admitted`, `dispatched`, `shard_start`,
    /// `shard_finish`, `merged`, `expired`, `written`, …) — the span does
    /// not interpret it.
    pub stage: &'static str,
    /// Nanoseconds since the span started.
    pub at_ns: u64,
    /// Shard index, for `shard_*` stages.
    pub shard: Option<usize>,
    /// Worker that ran the shard, for `shard_*` stages.
    pub worker: Option<usize>,
    /// Whether the shard's job was stolen from another worker's deque.
    pub stolen: Option<bool>,
}

/// A live trace of one request. Stages are recorded from several threads
/// (session reader, engine workers, session writer); each record takes the
/// span's event mutex *and stamps the clock inside it*, so the event list
/// is monotone in `at_ns` by construction — no cross-thread clock races.
/// The critical section is a timestamp and a push; recording never blocks
/// a worker behind slow I/O.
#[derive(Debug)]
pub struct RequestSpan {
    id: u64,
    op: &'static str,
    /// The request's `seq` tag (serialized), when it was pipelined.
    seq: Option<String>,
    start: Instant,
    events: Mutex<Vec<StageEvent>>,
}

impl RequestSpan {
    /// Mints a span; the clock starts now.
    pub fn new(id: u64, op: &'static str, seq: Option<String>) -> RequestSpan {
        RequestSpan {
            id,
            op,
            seq,
            start: Instant::now(),
            events: Mutex::new(Vec::with_capacity(8)),
        }
    }

    /// The trace id the frontend minted (echoed to opted-in clients).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The request's protocol verb.
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// Stamps a plain stage.
    pub fn record(&self, stage: &'static str) {
        self.push(StageEvent {
            stage,
            at_ns: 0,
            shard: None,
            worker: None,
            stolen: None,
        });
    }

    /// Stamps a per-shard stage with its scheduling provenance.
    pub fn record_shard(&self, stage: &'static str, shard: usize, worker: usize, stolen: bool) {
        self.push(StageEvent {
            stage,
            at_ns: 0,
            shard: Some(shard),
            worker: Some(worker),
            stolen: Some(stolen),
        });
    }

    fn push(&self, mut event: StageEvent) {
        let mut events = lock(&self.events);
        // The timestamp is taken while holding the lock: two racing
        // recorders cannot append out of timestamp order.
        event.at_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        events.push(event);
    }

    /// Snapshots the span into an immutable record (total time measured
    /// now). The span stays usable; the frontend calls this once, when the
    /// response has been handed to the socket.
    pub fn finish(&self) -> SpanRecord {
        let events = lock(&self.events).clone();
        SpanRecord {
            id: self.id,
            op: self.op,
            seq: self.seq.clone(),
            total_ns: u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            stolen_shards: events
                .iter()
                .filter(|e| e.stage == "shard_start" && e.stolen == Some(true))
                .count() as u64,
            events,
        }
    }
}

/// A completed [`RequestSpan`], ready for a ring slot or a JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The minted trace id.
    pub id: u64,
    /// The request's protocol verb.
    pub op: &'static str,
    /// The request's serialized `seq` tag, when it was pipelined.
    pub seq: Option<String>,
    /// Nanoseconds from minting to completion.
    pub total_ns: u64,
    /// How many of the request's shards ran on a stolen job.
    pub stolen_shards: u64,
    /// The stamped stages, monotone in `at_ns`.
    pub events: Vec<StageEvent>,
}

/// A bounded ring of completed spans: the newest `capacity` records, old
/// ones overwritten in arrival order. A push is one atomic slot claim plus
/// one uncontended per-slot mutex (two pushes contend only when they land
/// on the same slot, i.e. a full `capacity` apart in arrival order) — the
/// ring can never block the request path behind a reader.
#[derive(Debug)]
pub struct SpanRing {
    slots: Box<[Mutex<Option<SpanRecord>>]>,
    /// Total pushes ever; the next slot is `head % capacity`.
    head: AtomicU64,
}

impl SpanRing {
    /// A ring holding the newest `capacity` (≥ 1) spans.
    pub fn new(capacity: usize) -> SpanRing {
        SpanRing {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans pushed since construction (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Adds `record`, overwriting the oldest entry once full.
    pub fn push(&self, record: SpanRecord) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len() as u64;
        *lock(&self.slots[slot as usize]) = Some(record);
    }

    /// The retained spans, oldest first. Under concurrent pushes a slot may
    /// show a record newer than the claimed window — a benign race: every
    /// returned record is a real, complete span.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let head = self.head.load(Ordering::Relaxed);
        let len = self.slots.len() as u64;
        let oldest = head.saturating_sub(len);
        (oldest..head)
            .filter_map(|i| lock(&self.slots[(i % len) as usize]).clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn span_with(id: u64, stages: &[&'static str]) -> SpanRecord {
        let span = RequestSpan::new(id, "solve", None);
        for stage in stages {
            span.record(stage);
        }
        span.finish()
    }

    #[test]
    fn recorded_stages_are_monotone_even_across_threads() {
        let span = Arc::new(RequestSpan::new(7, "solve", Some("3".to_string())));
        span.record("queued");
        thread::scope(|scope| {
            for worker in 0..4 {
                let span = Arc::clone(&span);
                scope.spawn(move || {
                    for shard in 0..50 {
                        span.record_shard("shard_start", shard, worker, worker % 2 == 1);
                        span.record_shard("shard_finish", shard, worker, worker % 2 == 1);
                    }
                });
            }
        });
        span.record("written");
        let record = span.finish();
        assert_eq!(record.id, 7);
        assert_eq!(record.seq.as_deref(), Some("3"));
        assert_eq!(record.events.len(), 2 + 4 * 100);
        assert!(
            record.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "event timestamps must be monotone"
        );
        assert_eq!(record.stolen_shards, 2 * 50, "odd workers stole");
        assert!(record.total_ns >= record.events.last().unwrap().at_ns);
    }

    #[test]
    fn ring_wraps_around_keeping_the_newest_records() {
        let ring = SpanRing::new(4);
        assert_eq!(ring.capacity(), 4);
        assert!(ring.snapshot().is_empty());

        for id in 0..3 {
            ring.push(span_with(id, &["queued"]));
        }
        let ids = |spans: Vec<SpanRecord>| spans.iter().map(|s| s.id).collect::<Vec<_>>();
        assert_eq!(ids(ring.snapshot()), [0, 1, 2], "not yet full: in order");

        for id in 3..11 {
            ring.push(span_with(id, &["queued"]));
        }
        assert_eq!(ring.pushed(), 11);
        assert_eq!(
            ids(ring.snapshot()),
            [7, 8, 9, 10],
            "wrapped: newest capacity records, oldest first"
        );
    }

    #[test]
    fn ring_capacity_is_clamped_to_one() {
        let ring = SpanRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(span_with(1, &[]));
        ring.push(span_with(2, &[]));
        assert_eq!(ring.snapshot().len(), 1);
        assert_eq!(ring.snapshot()[0].id, 2);
    }
}
