//! Sharded atomic counters, gauges, log-bucketed histograms, and their
//! sliding-window variants.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Shards per metric. Each shard sits on its own cache line, so writers on
/// different threads do not bounce one line between cores. A small fixed
/// power of two: threads hash onto shards by a process-wide registration
/// order, and 16 lines cover far more concurrency than the engine's pool.
const SHARDS: usize = 16;

/// Histogram bucket count. Bucket `i < BUCKETS-1` covers `[2^i, 2^(i+1))`
/// (bucket 0 additionally absorbs the value 0); the final bucket is the
/// overflow sink for everything at or above `2^(BUCKETS-1)` — about 9.2
/// minutes when values are nanoseconds, far beyond any request deadline.
pub const BUCKETS: usize = 40;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's registration number; its metric shard is `number %
    /// SHARDS`. Stable for the thread's lifetime, so a thread always hits
    /// the same cache line.
    static THREAD_TICKET: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn shard_index() -> usize {
    THREAD_TICKET.with(|t| *t) % SHARDS
}

/// One atomic on its own cache line.
#[derive(Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// A monotone event counter: relaxed sharded adds, summed on read.
///
/// Relaxed ordering is the point, not a shortcut: a concurrent reader may
/// observe a sum that lags in-flight increments, but increments are never
/// lost, and once writers quiesce the sum is exact.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` — one relaxed `fetch_add` on this thread's shard.
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The sum across shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A point-in-time signed level (queue depth, live sessions). Gauges are
/// read-mostly and never request-hot, so one atomic suffices.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (negative to decrease).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// One histogram shard: a bucket array plus the running value sum.
#[repr(align(64))]
struct HistShard {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for HistShard {
    fn default() -> Self {
        HistShard {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed histogram with fixed power-of-two bucket edges; see
/// [`BUCKETS`] for the edge layout. Values are plain `u64`s — the stack
/// records latencies as nanoseconds.
#[derive(Default)]
pub struct Histogram {
    shards: [HistShard; SHARDS],
}

/// The bucket a value lands in: `floor(log2(v))` clamped to the overflow
/// bucket, with 0 in bucket 0.
pub(crate) fn bucket_index(value: u64) -> usize {
    let floor_log2 = (63 - (value | 1).leading_zeros()) as usize;
    floor_log2.min(BUCKETS - 1)
}

/// The largest value bucket `i` holds (inclusive).
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one value — two relaxed `fetch_add`s on this thread's shard.
    pub fn record(&self, value: u64) {
        let shard = &self.shards[shard_index()];
        shard.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, duration: Duration) {
        self.record(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Merges every shard into one immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for shard in &self.shards {
            for (slot, count) in merged.counts.iter_mut().zip(&shard.counts) {
                *slot += count.load(Ordering::Relaxed);
            }
            merged.sum = merged.sum.saturating_add(shard.sum.load(Ordering::Relaxed));
        }
        merged
    }
}

/// A merged, immutable view of a [`Histogram`]. The total count is derived
/// from the buckets (never tracked separately), so a snapshot can never
/// disagree with its own bucket contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; see [`BUCKETS`] for the edges.
    pub counts: [u64; BUCKETS],
    /// Sum of every recorded value (saturating).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total recorded values — the sum of the buckets.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Folds `other` into `self` element-wise. Merging is commutative and
    /// associative (it is vector addition), so shards, threads, and
    /// processes can be combined in any grouping.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (slot, count) in self.counts.iter_mut().zip(&other.counts) {
            *slot += count;
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the upper edge of
    /// the bucket containing the rank-`⌈q·count⌉` sample — a deterministic
    /// upper bound with log₂-bucket resolution. Returns 0 for an empty
    /// snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Mean recorded value, 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// The element-wise difference `self − earlier`, saturating at zero.
    /// This is how windowed views are formed: subtract an older cumulative
    /// snapshot from a newer one. Saturation (rather than wrapping) covers
    /// the benign relaxed-ordering race where two snapshots taken by
    /// different threads momentarily disagree by an in-flight increment.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut delta = HistogramSnapshot::default();
        for ((slot, newer), older) in delta
            .counts
            .iter_mut()
            .zip(&self.counts)
            .zip(&earlier.counts)
        {
            *slot = newer.saturating_sub(*older);
        }
        delta.sum = self.sum.saturating_sub(earlier.sum);
        delta
    }
}

/// Sub-windows per sliding window — the ring length `N`. With the default
/// 60-second window each sub-window covers 7.5 s, so the windowed view
/// spans "the last minute" give or take one sub-window.
pub const WINDOW_SLOTS: usize = 8;

/// Reader-side ring state of one sliding window.
struct WindowState<T> {
    /// First epoch whose end-of-epoch cumulative snapshot has not been
    /// stamped yet.
    next_boundary: u64,
    /// `(epoch, cumulative-at-end-of-epoch)` entries: oldest first,
    /// consecutive epochs, at most `slots` entries.
    boundaries: VecDeque<(u64, T)>,
}

/// The rotation clockwork shared by [`WindowedCounter`] and
/// [`WindowedHistogram`]: a ring of `slots` sub-windows over a monotone
/// cumulative view, rotated by **reader-driven lazy advance**.
///
/// Nothing here ever runs on the record path — writers touch only the
/// underlying relaxed-atomic shards. When a *reader* asks for the windowed
/// view, it stamps the cumulative snapshot onto every sub-window boundary
/// that has passed since the last read, then reports `now − boundary[-N]`.
/// Because boundaries are snapshots of monotone counters, a sample racing
/// a rotation lands either before the boundary stamp (and ages with it) or
/// after (and stays in the window) — never both, never neither, so no
/// sample is ever lost at a rotation boundary.
///
/// The flip side of laziness: sub-windows that pass while no reader looks
/// are stamped late, with a cumulative view that already includes the gap's
/// samples — those samples age out as if they were *older* than the whole
/// window. That is the conservative direction for a recency surface (idle
/// systems decay to zero; nothing stale lingers), and any steady reader —
/// `slade top`, a Prometheus scraper — keeps the boundaries current.
struct WindowClock<T> {
    started: Instant,
    /// Sub-window length; `ZERO` disables windowing entirely.
    sub: Duration,
    slots: u64,
    state: Mutex<WindowState<T>>,
}

impl<T: Clone> WindowClock<T> {
    fn new(window: Duration, slots: usize) -> WindowClock<T> {
        let slots = slots.max(1);
        WindowClock {
            started: Instant::now(),
            sub: window / slots as u32,
            slots: slots as u64,
            state: Mutex::new(WindowState {
                next_boundary: 0,
                boundaries: VecDeque::new(),
            }),
        }
    }

    /// Rotates the ring up to `elapsed` and returns `(cumulative-now,
    /// baseline, covered-span)`; `None` when windowing is disabled. The
    /// baseline is the cumulative view from one full window ago (absent
    /// while the metric is younger than its window — the span says how
    /// much time the view actually covers).
    fn view_at(
        &self,
        elapsed: Duration,
        cumulative: impl FnOnce() -> T,
    ) -> Option<(T, Option<T>, Duration)> {
        if self.sub.is_zero() {
            return None;
        }
        let sub_ns = self.sub.as_nanos();
        let epoch = (elapsed.as_nanos() / sub_ns) as u64;
        let now = cumulative();
        let mut state = lock(&self.state);
        if epoch > state.next_boundary + self.slots {
            // The readers slept through more than a full window: every
            // retained boundary is stale, so restart the ring at the
            // newest `slots` epochs instead of stamping each missed one.
            state.boundaries.clear();
            state.next_boundary = epoch - self.slots;
        }
        while state.next_boundary < epoch {
            let k = state.next_boundary;
            state.boundaries.push_back((k, now.clone()));
            state.next_boundary += 1;
            if state.boundaries.len() as u64 > self.slots {
                state.boundaries.pop_front();
            }
        }
        // Boundaries hold consecutive epochs ending at `epoch - 1`, so the
        // front entry is exactly `epoch - slots` when the ring is full —
        // the baseline one window back.
        let baseline = if state.boundaries.len() as u64 == self.slots {
            let (k, snap) = state.boundaries.front().expect("ring is full");
            debug_assert_eq!(*k, epoch - self.slots);
            let boundary_end_ns = (*k as u128 + 1) * sub_ns;
            let span_ns = elapsed.as_nanos().saturating_sub(boundary_end_ns);
            Some((snap.clone(), Duration::from_nanos(span_ns as u64)))
        } else {
            None
        };
        match baseline {
            Some((snap, span)) => Some((now, Some(snap), span)),
            None => Some((now, None, elapsed)),
        }
    }

    fn view(&self, cumulative: impl FnOnce() -> T) -> Option<(T, Option<T>, Duration)> {
        self.view_at(self.started.elapsed(), cumulative)
    }
}

/// A windowed count: how many events the last window saw, and how much
/// wall time that view actually covers (shorter than the configured window
/// while the metric is young; zero when windowing is disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RateView {
    /// Events inside the window.
    pub count: u64,
    /// Wall time the view covers.
    pub span: Duration,
}

impl RateView {
    /// Events per second over the covered span; 0.0 when nothing was
    /// covered.
    pub fn per_sec(&self) -> f64 {
        let secs = self.span.as_secs_f64();
        if secs > 0.0 {
            self.count as f64 / secs
        } else {
            0.0
        }
    }
}

/// A [`Counter`] that additionally answers "how many in the last ~window?"
///
/// The record path is *identical* to a plain counter — one relaxed
/// `fetch_add`, never a lock; the window ring is consulted and rotated
/// only by readers (see `WindowClock`).
pub struct WindowedCounter {
    live: Counter,
    window: WindowClock<u64>,
}

impl WindowedCounter {
    /// A windowed counter over `window`, split into `slots` sub-windows.
    /// A zero `window` disables windowing: [`WindowedCounter::windowed`]
    /// reports an empty view while the lifetime counter works as usual.
    pub fn new(window: Duration, slots: usize) -> WindowedCounter {
        WindowedCounter {
            live: Counter::new(),
            window: WindowClock::new(window, slots),
        }
    }

    /// Adds `n` — one relaxed `fetch_add`, exactly like [`Counter::add`].
    pub fn add(&self, n: u64) {
        self.live.add(n);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The lifetime sum.
    pub fn get(&self) -> u64 {
        self.live.get()
    }

    /// The windowed count and rate (rotating the ring as a side effect).
    pub fn windowed(&self) -> RateView {
        match self.window.view(|| self.live.get()) {
            None => RateView::default(),
            Some((now, baseline, span)) => RateView {
                count: now.saturating_sub(baseline.unwrap_or(0)),
                span,
            },
        }
    }

    /// [`WindowedCounter::windowed`] at an explicit elapsed time — the
    /// deterministic entry point the rotation tests drive.
    #[cfg(test)]
    fn windowed_at(&self, elapsed: Duration) -> RateView {
        match self.window.view_at(elapsed, || self.live.get()) {
            None => RateView::default(),
            Some((now, baseline, span)) => RateView {
                count: now.saturating_sub(baseline.unwrap_or(0)),
                span,
            },
        }
    }
}

/// A windowed histogram view: the samples of roughly the last window, plus
/// the wall time the view covers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowView {
    /// The in-window samples, in the usual bucket layout.
    pub snapshot: HistogramSnapshot,
    /// Wall time the view covers.
    pub span: Duration,
}

impl WindowView {
    /// In-window samples per second over the covered span.
    pub fn per_sec(&self) -> f64 {
        let secs = self.span.as_secs_f64();
        if secs > 0.0 {
            self.snapshot.count() as f64 / secs
        } else {
            0.0
        }
    }
}

/// A [`Histogram`] that additionally answers "what did the last ~window
/// look like?" — windowed quantiles next to the lifetime ones.
///
/// The record path is *identical* to a plain histogram — two relaxed
/// `fetch_add`s on this thread's shard, never a lock. The ring holds
/// cumulative boundary snapshots and is rotated only by readers (see
/// `WindowClock`); the windowed view is `lifetime_now −
/// lifetime_one_window_ago`, element-wise over the buckets.
pub struct WindowedHistogram {
    live: Histogram,
    window: WindowClock<HistogramSnapshot>,
}

impl WindowedHistogram {
    /// A windowed histogram over `window`, split into `slots` sub-windows.
    /// A zero `window` disables windowing (lifetime behavior unchanged).
    pub fn new(window: Duration, slots: usize) -> WindowedHistogram {
        WindowedHistogram {
            live: Histogram::new(),
            window: WindowClock::new(window, slots),
        }
    }

    /// Records one value — two relaxed `fetch_add`s, exactly like
    /// [`Histogram::record`]; the window ring is not touched.
    pub fn record(&self, value: u64) {
        self.live.record(value);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, duration: Duration) {
        self.live.record_duration(duration);
    }

    /// The lifetime snapshot, exactly as a plain histogram would report.
    pub fn lifetime(&self) -> HistogramSnapshot {
        self.live.snapshot()
    }

    /// The windowed view (rotating the ring as a side effect).
    pub fn windowed(&self) -> WindowView {
        self.view_from(self.window.view(|| self.live.snapshot()))
    }

    /// [`WindowedHistogram::windowed`] at an explicit elapsed time — the
    /// deterministic entry point the rotation tests drive.
    #[cfg(test)]
    fn windowed_at(&self, elapsed: Duration) -> WindowView {
        self.view_from(self.window.view_at(elapsed, || self.live.snapshot()))
    }

    fn view_from(
        &self,
        raw: Option<(HistogramSnapshot, Option<HistogramSnapshot>, Duration)>,
    ) -> WindowView {
        match raw {
            None => WindowView::default(),
            Some((now, baseline, span)) => WindowView {
                snapshot: match baseline {
                    Some(base) => now.delta_since(&base),
                    None => now,
                },
                span,
            },
        }
    }
}

/// Locks a mutex, shrugging off poisoning: registry state is maps of
/// `Arc`s, valid at every instruction boundary.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Named get-or-register access to counters, gauges, and windowed counters
/// and histograms.
///
/// The registry's mutex guards only the name → handle maps: callers
/// register once (at startup, typically) and keep the returned `Arc` for
/// the hot path, so steady-state recording never touches the registry.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    windowed_counters: Mutex<BTreeMap<String, Arc<WindowedCounter>>>,
    windowed_histograms: Mutex<BTreeMap<String, Arc<WindowedHistogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            lock(&self.counters)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            lock(&self.gauges)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The windowed counter named `name`, created on first use; `window`
    /// and `slots` apply only at creation (later callers get the existing
    /// handle regardless of the parameters they pass).
    pub fn windowed_counter(
        &self,
        name: &str,
        window: Duration,
        slots: usize,
    ) -> Arc<WindowedCounter> {
        Arc::clone(
            lock(&self.windowed_counters)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(WindowedCounter::new(window, slots))),
        )
    }

    /// The windowed histogram named `name`, created on first use; `window`
    /// and `slots` apply only at creation, like
    /// [`Registry::windowed_counter`].
    pub fn windowed_histogram(
        &self,
        name: &str,
        window: Duration,
        slots: usize,
    ) -> Arc<WindowedHistogram> {
        Arc::clone(
            lock(&self.windowed_histograms)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(WindowedHistogram::new(window, slots))),
        )
    }

    /// A point-in-time view of every registered metric, names sorted.
    ///
    /// Windowed metrics contribute twice: their lifetime values land in
    /// `counters`/`histograms` under their own name (overwriting a plain
    /// counter that shares the name), and their windowed views land in
    /// `rates`/`windows`. Taking a snapshot is what rotates the window
    /// rings — reader-driven advance, see `WindowClock`.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters: BTreeMap<String, u64> = lock(&self.counters)
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let mut rates = BTreeMap::new();
        for (name, c) in lock(&self.windowed_counters).iter() {
            counters.insert(name.clone(), c.get());
            rates.insert(name.clone(), c.windowed());
        }
        let mut histograms = BTreeMap::new();
        let mut windows = BTreeMap::new();
        for (name, h) in lock(&self.windowed_histograms).iter() {
            histograms.insert(name.clone(), h.lifetime());
            windows.insert(name.clone(), h.windowed());
        }
        RegistrySnapshot {
            counters,
            gauges: lock(&self.gauges)
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms,
            rates,
            windows,
        }
    }
}

/// A [`Registry::snapshot`]: plain values, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter sums by name (lifetime values; windowed counters included).
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Lifetime values of the [`WindowedHistogram`]s, by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Windowed counts/rates of the [`WindowedCounter`]s, by name.
    pub rates: BTreeMap<String, RateView>,
    /// Windowed views of the [`WindowedHistogram`]s, by name.
    pub windows: BTreeMap<String, WindowView>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bucket_edges_are_exact_powers_of_two() {
        // 0 and 1 share bucket 0; each boundary 2^i starts bucket i.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        for i in 1..BUCKETS - 1 {
            let edge = 1u64 << i;
            assert_eq!(bucket_index(edge - 1), i - 1, "below edge 2^{i}");
            assert_eq!(bucket_index(edge), i, "at edge 2^{i}");
            assert_eq!(bucket_index(edge + 1), i, "above edge 2^{i}");
        }
    }

    #[test]
    fn overflow_bucket_absorbs_everything_at_and_beyond_its_edge() {
        let overflow_edge = 1u64 << (BUCKETS - 1);
        assert_eq!(bucket_index(overflow_edge - 1), BUCKETS - 2);
        for v in [overflow_edge, overflow_edge + 1, u64::MAX / 2, u64::MAX] {
            assert_eq!(bucket_index(v), BUCKETS - 1, "value {v}");
        }
        let h = Histogram::new();
        h.record(overflow_edge);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.counts[BUCKETS - 1], 2);
        assert_eq!(snap.count(), 2);
        // Both samples sit in the overflow bucket, whose upper edge is
        // u64::MAX — so is every quantile.
        assert_eq!(snap.quantile(0.5), u64::MAX);
    }

    #[test]
    fn snapshot_merge_is_associative_and_commutative() {
        let make = |values: &[u64]| {
            let h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let (a, b, c) = (make(&[1, 5, 900]), make(&[2, 2, 1 << 20]), make(&[0]));

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "(a+b)+c == a+(b+c)");

        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "a+b == b+a");
        assert_eq!(ab_c.count(), 7);
    }

    #[test]
    fn quantiles_read_off_the_merged_buckets() {
        let h = Histogram::new();
        // 90 fast samples in [64, 128), 10 slow in [65536, 131072).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.quantile(0.5), 127);
        assert_eq!(snap.quantile(0.9), 127);
        assert_eq!(snap.quantile(0.99), 131_071);
        assert_eq!(snap.mean(), (90 * 100 + 10 * 100_000) / 100);
    }

    #[test]
    fn concurrent_writers_never_lose_counts_and_snapshots_stay_consistent() {
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 10_000;
        let counter = Arc::new(Counter::new());
        let histogram = Arc::new(Histogram::new());

        thread::scope(|scope| {
            for w in 0..WRITERS {
                let counter = Arc::clone(&counter);
                let histogram = Arc::clone(&histogram);
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        counter.inc();
                        histogram.record(w as u64 * 1000 + i % 7);
                    }
                });
            }
            // Mid-flight snapshots: totals are monotone non-decreasing and
            // never exceed what has been written (nothing is invented).
            let cap = WRITERS as u64 * PER_WRITER;
            let mut last = 0;
            for _ in 0..50 {
                let seen = histogram.snapshot().count();
                assert!(seen >= last, "snapshot count went backwards");
                assert!(seen <= cap, "snapshot invented samples");
                last = seen;
            }
        });

        // Quiesced: both views are exact and agree with each other.
        assert_eq!(counter.get(), WRITERS as u64 * PER_WRITER);
        assert_eq!(histogram.snapshot().count(), WRITERS as u64 * PER_WRITER);
    }

    #[test]
    fn registry_hands_out_stable_handles_and_sorted_snapshots() {
        let registry = Registry::new();
        let c1 = registry.counter("ops.solve");
        let c2 = registry.counter("ops.solve");
        assert!(Arc::ptr_eq(&c1, &c2), "same name, same counter");
        c1.add(3);
        registry.counter("ops.batch").inc();
        registry.gauge("queue_depth").set(5);
        registry
            .windowed_histogram("latency.solve", Duration::from_secs(60), 8)
            .record(42);

        let snap = registry.snapshot();
        assert_eq!(
            snap.counters.keys().collect::<Vec<_>>(),
            ["ops.batch", "ops.solve"]
        );
        assert_eq!(snap.counters["ops.solve"], 3);
        assert_eq!(snap.gauges["queue_depth"], 5);
        assert_eq!(snap.histograms["latency.solve"].count(), 1);
    }

    #[test]
    fn quantile_edges_empty_single_bucket_and_extreme_q() {
        // Empty snapshot: every quantile is 0, including the extremes and
        // out-of-range inputs.
        let empty = HistogramSnapshot::default();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(empty.quantile(q), 0, "empty at q={q}");
        }
        assert_eq!(empty.mean(), 0);

        // All mass in one bucket: every quantile reads that bucket's upper
        // edge, and out-of-range q clamps instead of panicking or indexing
        // out of bounds.
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(100); // bucket [64, 128)
        }
        let snap = h.snapshot();
        for q in [-1.0, 0.0, 1e-9, 0.5, 0.999, 1.0, 2.0] {
            assert_eq!(snap.quantile(q), 127, "single bucket at q={q}");
        }

        // Two buckets: q=0.0 clamps to rank 1 (the first sample), q=1.0 to
        // rank=count (the last).
        let h = Histogram::new();
        h.record(1); // bucket 0, upper edge 1
        h.record(1 << 20); // bucket 20, upper edge 2^21 - 1
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.0), 1);
        assert_eq!(snap.quantile(1.0), (1 << 21) - 1);
    }

    #[test]
    fn windowed_views_decay_while_lifetime_holds() {
        const WINDOW: Duration = Duration::from_secs(64);
        let h = WindowedHistogram::new(WINDOW, WINDOW_SLOTS);
        let c = WindowedCounter::new(WINDOW, WINDOW_SLOTS);
        for v in [10, 20, 30, 40] {
            h.record(v);
            c.inc();
        }

        // Inside the first sub-window: everything is recent.
        let t0 = Duration::from_secs(1);
        assert_eq!(h.windowed_at(t0).snapshot.count(), 4);
        assert_eq!(h.windowed_at(t0).span, t0);
        assert_eq!(c.windowed_at(t0).count, 4);

        // Rotate steadily, one read per sub-window, well past the window:
        // the burst ages out while the lifetime view keeps it.
        let sub = WINDOW / WINDOW_SLOTS as u32;
        for step in 1..=2 * WINDOW_SLOTS as u32 {
            h.windowed_at(sub * step + Duration::from_secs(1));
            c.windowed_at(sub * step + Duration::from_secs(1));
        }
        let late = WINDOW * 2;
        assert_eq!(h.windowed_at(late).snapshot.count(), 0, "burst aged out");
        assert_eq!(h.lifetime().count(), 4, "lifetime keeps the burst");
        assert_eq!(c.windowed_at(late).count, 0);
        assert_eq!(c.get(), 4);
        // A full ring covers slightly less than the whole window.
        let span = h.windowed_at(late).span;
        assert!(span <= WINDOW && span >= WINDOW - 2 * sub, "span {span:?}");

        // New samples after the decay show up again.
        h.record(50);
        assert_eq!(
            h.windowed_at(late + Duration::from_secs(1))
                .snapshot
                .count(),
            1
        );
        assert_eq!(h.lifetime().count(), 5);
    }

    #[test]
    fn sparse_readers_rotate_lazily_without_unbounded_catchup() {
        let h = WindowedHistogram::new(Duration::from_secs(8), 4);
        h.record(7);
        // First read happens years of sub-windows later: the ring restarts
        // at the newest epochs in O(slots) instead of stamping each missed
        // boundary, and the old burst reads as aged out.
        let view = h.windowed_at(Duration::from_secs(60 * 60 * 24 * 30));
        assert_eq!(view.snapshot.count(), 0);
        assert_eq!(h.lifetime().count(), 1);
    }

    #[test]
    fn zero_window_disables_windowing_but_not_lifetime() {
        let h = WindowedHistogram::new(Duration::ZERO, WINDOW_SLOTS);
        let c = WindowedCounter::new(Duration::ZERO, WINDOW_SLOTS);
        h.record(9);
        c.add(9);
        assert_eq!(h.windowed(), WindowView::default());
        assert_eq!(c.windowed(), RateView::default());
        assert_eq!(c.windowed().per_sec(), 0.0);
        assert_eq!(h.lifetime().count(), 1);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn rate_views_report_events_per_covered_second() {
        let c = WindowedCounter::new(Duration::from_secs(64), 8);
        c.add(100);
        let young = c.windowed_at(Duration::from_secs(4));
        assert_eq!(young.count, 100);
        assert_eq!(young.span, Duration::from_secs(4));
        assert!((young.per_sec() - 25.0).abs() < 1e-9, "{}", young.per_sec());
    }

    #[test]
    fn window_rotation_under_concurrent_writers_loses_no_samples() {
        // Seeded writers hammer the histogram while a rotator advances the
        // ring through many epochs. The invariant under test: a sample
        // racing a rotation lands either in the windowed view or in the
        // aged-out baseline — never nowhere, never twice.
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 20_000;
        const SEED: u64 = 0x5EED_CAFE;
        let sub = Duration::from_millis(10);
        let slots = 4u32;
        let h = Arc::new(WindowedHistogram::new(sub * slots, slots as usize));

        thread::scope(|scope| {
            for w in 0..WRITERS {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    let mut x = SEED ^ (w + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for _ in 0..PER_WRITER {
                        // xorshift64* — deterministic per-writer values.
                        x ^= x >> 12;
                        x ^= x << 25;
                        x ^= x >> 27;
                        h.record(x % 1_000_000);
                    }
                });
            }
            // Rotate concurrently: a third of a sub-window per step, far
            // past one full ring, while asserting the windowed view never
            // invents samples.
            for step in 0..12 * slots {
                let view = h.windowed_at(sub * step / 3);
                assert!(
                    view.snapshot.count() <= h.lifetime().count(),
                    "windowed view invented samples at step {step}"
                );
            }
        });

        // Quiesced: rotate once more without advancing time, then account
        // for every sample: in-window + aged-out-baseline == written.
        let total = WRITERS * PER_WRITER;
        assert_eq!(h.lifetime().count(), total);
        let elapsed = sub * (12 * slots) / 3;
        let view = h.windowed_at(elapsed);
        let aged = {
            let state = lock(&h.window.state);
            assert_eq!(state.boundaries.len(), slots as usize, "ring is full");
            state.boundaries.front().expect("full ring").1.count()
        };
        assert_eq!(
            view.snapshot.count() + aged,
            total,
            "every sample is either windowed or aged out"
        );
    }

    #[test]
    fn registry_snapshot_folds_windowed_metrics_into_both_surfaces() {
        let registry = Registry::new();
        let wc = registry.windowed_counter("ops.solve", Duration::from_secs(60), 8);
        let wh = registry.windowed_histogram("latency.solve", Duration::from_secs(60), 8);
        assert!(
            Arc::ptr_eq(
                &wc,
                &registry.windowed_counter("ops.solve", Duration::ZERO, 1)
            ),
            "same name, same handle — later params are ignored"
        );
        wc.add(5);
        wh.record(1000);

        let snap = registry.snapshot();
        assert_eq!(snap.counters["ops.solve"], 5, "lifetime in counters");
        assert_eq!(snap.rates["ops.solve"].count, 5, "window in rates");
        assert_eq!(snap.histograms["latency.solve"].count(), 1);
        assert_eq!(snap.windows["latency.solve"].snapshot.count(), 1);
    }
}
