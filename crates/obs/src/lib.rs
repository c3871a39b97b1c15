//! # slade-obs — lock-cheap observability for the SLADE stack
//!
//! The engine and server are built around one discipline: nothing on the
//! request hot path may take a contended lock. This crate gives the stack
//! a measurement substrate under the same discipline, std-only and
//! dependency-free (hand-rolled like `slade_json`):
//!
//! * **[`Counter`]** — a monotone event counter sharded across
//!   cache-line-padded atomics. The hot path is one relaxed `fetch_add` on
//!   the caller's thread-affine shard; readers sum the shards. Relaxed
//!   ordering means a reader racing writers may transiently undercount,
//!   but every count is eventually visible and never lost.
//! * **[`Gauge`]** — a point-in-time signed level (queue depth, open
//!   sessions); set/add on one atomic.
//! * **[`Histogram`]** — a log-bucketed latency histogram with fixed
//!   power-of-two bucket edges: bucket *i* < [`BUCKETS`]−1 holds values in
//!   `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes 0), and the last
//!   bucket is the overflow sink for everything ≥ `2^(BUCKETS-1)`.
//!   Recording is a relaxed `fetch_add` on a per-thread shard — never a
//!   mutex; shards merge at [`Histogram::snapshot`] time, and quantiles
//!   (p50/p90/p99) are read off the merged buckets. A snapshot's total
//!   count is *derived from its buckets*, so "histogram counts sum to the
//!   op counters" is checkable by construction.
//! * **[`WindowedCounter`] / [`WindowedHistogram`]** — the same counters
//!   and histograms plus a sliding ~window view (windowed p50/p99, req/s
//!   "over the last minute"). The record path is *bit-identical* to the
//!   plain variants — relaxed `fetch_add`s, never a lock; the window is a
//!   ring of cumulative boundary snapshots rotated by **reader-driven lazy
//!   advance**: whoever reads the windowed view stamps the sub-window
//!   boundaries that have passed, and the view is `now − one_window_ago`.
//!   No background thread, and a sample racing a rotation is never lost —
//!   it ages with the boundary or stays in the window.
//! * **[`Registry`]** — named get-or-register access to the above. The
//!   mutex inside is touched only at registration and snapshot time;
//!   callers hold the returned `Arc` handles on the hot path.
//! * **[`render_prometheus`]** — a std-only Prometheus text-format
//!   (version 0.0.4) renderer over a [`RegistrySnapshot`]: `# TYPE` lines,
//!   cumulative `_bucket{le="…"}` series off the log₂ bucket edges,
//!   `_sum`/`_count`, and windowed quantiles/rates as plain gauges.
//! * **[`RequestSpan`] / [`SpanRing`]** — end-to-end request tracing. A
//!   frontend mints a span per opted-in request and stamps stage events
//!   (queued, admitted, dispatched, per-shard start/finish with the worker
//!   index and a `stolen` flag, merged, written); timestamps are taken
//!   *inside* the span's event lock, so the recorded sequence is monotone
//!   by construction. Completed spans land in a bounded [`SpanRing`] — one
//!   tiny per-slot mutex per push, never a growing buffer, never blocking
//!   the pool.
//!
//! Nothing here knows about solvers, sockets, or JSON: the stack's crates
//! attach meaning (and serialization) to these primitives.

mod expo;
mod metrics;
mod trace;

pub use expo::{render_prometheus, PROMETHEUS_CONTENT_TYPE};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, RateView, Registry, RegistrySnapshot, WindowView,
    WindowedCounter, WindowedHistogram, BUCKETS, WINDOW_SLOTS,
};
pub use trace::{RequestSpan, SpanRecord, SpanRing, StageEvent};
