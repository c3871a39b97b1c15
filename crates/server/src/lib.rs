//! # slade-server — a network frontend with stateful resubmit sessions
//!
//! `slade-engine` turned the one-shot solvers into a concurrent, caching
//! service; this crate puts that service on a socket. It is std-only (no
//! async runtime exists in the offline build environment): a
//! thread-per-connection acceptor over one shared [`Engine`], speaking a
//! line-delimited JSON protocol — one request object per line, one
//! response object per line (see [`protocol`] for the verb table).
//!
//! The piece that makes this more than a remote `batch` pipe is the
//! **plan store**: `solve` requests land their [`ResolvedPlan`]s in the
//! engine's server-wide [`PlanStore`] under client-chosen plan ids, so a
//! `resubmit` round-trip over the wire reuses cached artifacts and
//! unchanged shard sub-plans exactly like the in-process
//! [`Engine::resubmit`] — and inherits its guarantee: the returned plan
//! is **byte-identical to a cold solve of the final workload** (pinned
//! over a real socket by this crate's e2e tests, down to the serialized
//! bytes — the shared [`slade_json`] serializer prints floats in
//! shortest-round-trip form precisely so that contract is testable).
//!
//! Plan ids are global but **leased**: producing a plan leases its id to
//! the producing session, and another session touching a leased id gets a
//! structured `lease_conflict` error rather than a race. The `claim` and
//! `release` verbs move a lease explicitly, so a plan produced on one
//! connection can be resubmitted from another — handover, reconnect-and-
//! resume, load-balanced clients — with the same byte-identity guarantee
//! (pinned by `tests/cross_session.rs`). A dropped connection releases
//! its leases; its plans outlive it. Store conflicts carry
//! machine-readable `code` members (`unknown_plan`, `lease_conflict`,
//! `pending_producer`); see [`protocol`] for the table.
//!
//! Sessions are **pipelined and multiplexed**: a `solve`/`batch`/
//! `resubmit` carrying a client-chosen `"seq"` tag is dispatched without
//! blocking the session's read loop and answered as it completes —
//! possibly out of request order, the response echoing the tag — so one
//! connection can keep the whole worker pool saturated instead of paying
//! a round trip per request. Untagged traffic keeps the strict
//! request/response protocol unchanged; [`ServerConfig::max_inflight`]
//! caps the tagged window with real backpressure. [`Client::pipeline`] is
//! the client-side counterpart; see [`protocol`] for the `seq` rules
//! (each session runs two threads, a reader and a writer that is the
//! session's one completion site — `src/session.rs` documents the
//! anatomy and its invariants, mirrored in DESIGN.md; the verb handlers
//! live under `src/verbs/`, one module per verb family).
//!
//! Robustness posture:
//!
//! * malformed input (bad JSON, unknown verbs/fields, a `resubmit`
//!   against a missing plan id, a `resubmit` racing the in-flight tagged
//!   request that produces its plan id) gets a structured
//!   `{"ok":false,…}` error and the connection survives;
//! * solves run under the engine's timeout-aware waits and session reads
//!   poll with a short timeout, so neither a stuck request nor a silent
//!   client can wedge the acceptor or a shutdown drain; an overdue
//!   request is expired by the session's writer with a structured error
//!   while the rest of the window keeps serving;
//! * shutdown (the in-band `shutdown` verb or a [`ShutdownHandle`]) is
//!   graceful: the acceptor stops, sessions drain their tagged in-flight
//!   requests and finish their current request, and [`Engine::shutdown`]
//!   drains the worker pool deterministically.
//!
//! The server is **observable**: every request is counted on a sharded
//! relaxed metric registry (`slade-obs`), per-verb end-to-end latency is
//! histogrammed, and a client can opt any `solve`/`batch`/`resubmit` into
//! end-to-end tracing with `"trace": true` — the response echoes a minted
//! trace id and the `trace` verb returns the request's staged timeline
//! (queued → admitted → dispatched → per-shard start/finish with worker
//! and steal provenance → merged → written). The `metrics` verb exports a
//! self-consistent JSON snapshot — lifetime numbers plus a sliding-window
//! view (windowed p50/p90/p99 and req/s over roughly the last minute,
//! [`ObsOptions::window`]); the `health` verb computes readiness from live
//! signals (queue saturation, windowed timeout/error rates, cache-eviction
//! pressure, connected sessions) as `ok|degraded|unhealthy` with
//! per-signal reasons; the `profile` verb aggregates the traced spans into
//! a per-phase wall-time breakdown (queued / dispatch / per-shard solve
//! split by steal provenance / merge / write); and
//! [`ServerConfig::metrics_addr`] starts a minimal HTTP `GET /metrics`
//! responder rendering the same registry in Prometheus text format. See
//! [`protocol`] and [`ObsOptions`] for the knobs (JSONL trace log,
//! slow-request log, window width).
//!
//! ## Quickstart
//!
//! ```
//! use slade_server::{client::Client, Server, ServerConfig};
//! use std::thread;
//!
//! let server = Server::bind(ServerConfig::default()).unwrap(); // 127.0.0.1:0
//! let addr = server.local_addr();
//! let running = thread::spawn(move || server.run().unwrap());
//!
//! let mut client = Client::connect(addr).unwrap();
//! // Example 9 of the paper, retained under plan id "w".
//! let reply = client
//!     .roundtrip(r#"{"op":"solve","id":"w","tasks":4,"threshold":0.95}"#)
//!     .unwrap();
//! assert!(reply.contains("\"ok\":true"), "{reply}");
//! // The workload grows in place; unchanged shards are reused server-side.
//! let reply = client
//!     .roundtrip(r#"{"op":"resubmit","id":"w","delta":{"resize":100}}"#)
//!     .unwrap();
//! assert!(reply.contains("\"tasks\":100"), "{reply}");
//!
//! // Pipelined: four solves in flight at once on this one connection;
//! // responses come back in request order, each echoing its seq tag.
//! let lines: Vec<String> = (1..=4)
//!     .map(|n| format!(r#"{{"tasks":{n},"threshold":0.9}}"#))
//!     .collect();
//! let replies = client.pipeline(&lines, 4).unwrap();
//! for (i, reply) in replies.iter().enumerate() {
//!     assert!(reply.contains(&format!("\"seq\":{i}")), "{reply}");
//!     assert!(reply.contains("\"feasible\":true"), "{reply}");
//! }
//! client.roundtrip(r#"{"op":"shutdown"}"#).unwrap();
//! running.join().unwrap();
//! ```
//!
//! [`Engine`]: slade_engine::Engine
//! [`Engine::resubmit`]: slade_engine::Engine::resubmit
//! [`Engine::shutdown`]: slade_engine::Engine::shutdown
//! [`PlanStore`]: slade_engine::PlanStore
//! [`ResolvedPlan`]: slade_engine::ResolvedPlan

mod accept;
pub mod client;
mod journal;
mod line;
pub mod protocol;
mod server;
mod session;
mod verbs;

pub use client::Client;
pub use server::{ObsOptions, RequestMiddleware, Server, ServerConfig, ShutdownHandle};
