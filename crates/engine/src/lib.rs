//! # slade-engine — a concurrent, caching decomposition service layer
//!
//! The solvers in `slade-core` are one-shot functions: one thread, one
//! instance, one plan. A production decomposition service faces a different
//! shape of load — many requesters posting workloads against a shared bin
//! marketplace, with heavy repetition in `(bin menu, threshold)` pairs and
//! workloads that evolve in place. This crate closes that gap, std-only:
//!
//! * **a work-stealing worker pool** ([`Engine`]) — `std::thread` workers,
//!   each draining its own deque LIFO and stealing the oldest job from a
//!   loaded sibling when idle. Admission is counted against a bound, so
//!   [`Engine::submit`] exerts backpressure instead of queueing
//!   unboundedly, and an idle pool parks — it costs nothing;
//! * **a cross-session plan store** ([`PlanStore`]) — named
//!   [`ResolvedPlan`]s with per-session leases and pending-producer
//!   markers, so a frontend can let one connection resubmit a plan another
//!   connection produced, with conflicts surfaced as typed
//!   [`StoreError`]s instead of races;
//! * **sharded solves** — heterogeneous `OpqExtended` requests split into
//!   their [`slade_core::hetero::partition`] threshold buckets, each an
//!   independent job (every other request, homogeneous ones included, runs
//!   as one shard, as the paper's algorithms plan it); sub-plans are merged
//!   in shard order, so the result is a function of the request alone,
//!   never of thread count or scheduling;
//! * **an algorithm-agnostic artifact cache** ([`ArtifactCache`]) — a
//!   sharded concurrent table keyed by `(Algorithm, `[`Fingerprint`]`)`
//!   over type-erased [`slade_core::solver::SolveArtifacts`], whose warm
//!   hits take no process-global lock (shard-local `RwLock` read + relaxed
//!   atomics), with approximate-LRU eviction off the hot path and
//!   single-flight cold misses. Every worker routes every shard through
//!   the core's two-phase
//!   [`PreparedSolver`](slade_core::solver::PreparedSolver) pipeline
//!   (`prepare` once per fingerprint, `solve_with` per workload), so
//!   repeated `(BinSet, θ)` pairs skip the expensive prepare step — OPQ
//!   enumeration + group DP, the greedy's ladder. (OpqExtended requests
//!   are first decomposed into their per-bucket homogeneous shards, which
//!   then run — and cache — as `OpqBased` prepares, maximizing sharing
//!   across the two request types; `OpqExtended` itself has no prepare
//!   step of its own);
//! * **incremental deltas** ([`Engine::resubmit`]) — a solved request can be
//!   retained as a [`ResolvedPlan`] and re-solved under a
//!   [`WorkloadDelta`] (grow/shrink `n`, per-task threshold changes,
//!   appends); only the shards whose inputs changed are recomputed, and the
//!   result is byte-identical to a cold solve of the final workload.
//!
//! ## Determinism
//!
//! Every job is a pure function of the request (solver configurations are
//! data; the randomized Baseline takes its seed from
//! [`EngineRequest::seed`]), sharding is decided at submit time from the
//! request alone, and every [`ResolvedHandle`] wait merges shard results
//! in shard order. Hence the same request produces byte-identical plans at
//! `threads = 1` and `threads = N` — *including under steal-heavy
//! schedules, where jobs run on arbitrary workers in arbitrary order* — a
//! warm-cache solve equals the cold solve for the same fingerprint (for
//! every algorithm), and a delta resubmission equals the cold solve of the
//! resulting workload — all pinned by this crate's tests
//! (`tests/steal_determinism.rs` forces stealing with stalled shards
//! across 100 seeded schedules).
//!
//! A panicking solver cannot wedge a handle: workers catch unwinds at the
//! job boundary and surface them as [`EngineError::WorkerPanicked`].
//!
//! ## Lifecycle
//!
//! Services built on top (the `slade-server` network frontend) share the
//! engine behind an `Arc` and need bounded waits: [`Engine::shutdown`]
//! drains already-queued shards deterministically and then rejects new
//! work with [`EngineError::ShutDown`].
//!
//! There is one entry point, [`Engine::submit`], and one handle,
//! [`ResolvedHandle`]. A resubmission is an ordinary request built by
//! [`ResolvedPlan::resubmission`] and submitted with the prior plan as
//! [`Submit::prior`]. The handle is waited on in one of two ways, both
//! delivering the same plan: [`ResolvedHandle::wait`], or
//! [`ResolvedHandle::try_wait`] polled on each [`Submit::notify`] ping. A
//! caller that polls keeps its own deadline (the server answers an overdue
//! request with [`EngineError::Timeout`]); the abandoned shards finish in
//! the pool, so a stuck request costs at most that deadline, never a
//! thread. [`Engine::solve`], [`Engine::solve_resolved`], and
//! [`Engine::resubmit`] are the blocking conveniences, each
//! `submit(..).wait()`.
//!
//! ## Quickstart
//!
//! ```
//! use slade_core::prelude::*;
//! use slade_engine::{Engine, EngineConfig, EngineRequest, WorkloadDelta};
//! use std::sync::Arc;
//!
//! let engine = Engine::new(EngineConfig::default());
//! let bins = Arc::new(BinSet::paper_example());
//! let request = EngineRequest::new(
//!     Algorithm::OpqBased,
//!     Workload::homogeneous(4, 0.95).unwrap(),
//!     bins,
//! );
//! let resolved = engine.solve_resolved(request).unwrap();
//! assert!((resolved.plan().total_cost() - 0.68).abs() < 1e-9); // Example 9
//!
//! // The workload grows: re-solve incrementally from the same artifacts.
//! let grown = engine.resubmit(&resolved, &WorkloadDelta::Resize(1_000)).unwrap();
//! assert_eq!(grown.workload().len(), 1_000);
//! ```

mod cache;
pub mod codec;
mod sched;
mod service;
mod store;

pub use cache::{ArtifactCache, CacheKey, CacheStats, CACHE_SHARDS};
pub use service::{
    Engine, EngineConfig, EngineError, EngineRequest, RequestTrace, ResolvedHandle, ResolvedPlan,
    ShardNotify, Submit, WorkloadDelta,
};
pub use store::{FinishOutcome, PlanStore, SessionId, StoreError};
// The fingerprint type cache keys are built from now lives in `slade_core`,
// next to the signatures and solver knobs it hashes; re-exported here for
// engine-facing callers.
pub use slade_core::fingerprint::Fingerprint;
