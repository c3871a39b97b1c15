//! An engine-owned, cross-session store of named [`ResolvedPlan`]s.
//!
//! Frontends used to keep plan namespaces per connection: a plan retained
//! on connection A simply did not exist for connection B, and the pending
//! marker that kept a pipelined `resubmit` from racing its producer lived
//! in the same per-connection map. This module promotes both to one shared
//! store with an ownership discipline, so a plan produced on one
//! connection can be claimed and resubmitted from another (load-balanced
//! clients, session failover) without giving up the race protection:
//!
//! * **plans** are stored under caller-chosen string ids, engine-wide;
//! * **leases** — at most one session holds a plan id at a time. Producing
//!   under an id takes the lease implicitly, resubmitting an unleased id
//!   claims it implicitly, and [`PlanStore::claim`] /
//!   [`PlanStore::release`] move it explicitly. A second session touching
//!   a leased id gets [`StoreError::LeaseHeld`] — a typed conflict, not a
//!   silent overwrite;
//! * **lease expiry** — with a TTL configured
//!   ([`PlanStore::set_lease_ttl`]), an idle lease expires once the TTL
//!   has elapsed since its holder's last store operation on the id, and
//!   the next toucher reclaims it — a wedged or vanished client cannot
//!   pin a plan forever. A lease with a producer in flight never expires
//!   (the result still needs the lease to land under); expiries are
//!   counted ([`PlanStore::lease_expiries`]);
//! * **pending producers** — while a solve or resubmit for an id is in
//!   flight, the id is marked pending; anyone else touching it (including
//!   the producing session's own later pipelined requests) gets
//!   [`StoreError::Pending`] until the producer finishes. A failed
//!   producer releases the id;
//! * **session drop** ([`PlanStore::drop_session`]) releases everything
//!   the session held — leases and pending markers — but keeps the stored
//!   plans: plans outlive their producing connection by design.
//!
//! [`PlanStore::finish`] reports a [`FinishOutcome`] instead of silently
//! swallowing a late result: a producer that lost its marker to a
//! `drop_session` while solving either lands its plan unleased (the id is
//! free) or learns the plan was discarded (the id has moved on), so a
//! frontend never has to answer "ok" for a plan that was never stored.
//!
//! For durability, [`PlanStore::restore`] re-inserts a recovered plan at
//! boot (unleased, no producer) and [`PlanStore::snapshot_plans`] lists
//! the retained plans for journal compaction; the journal itself lives in
//! the frontend (`slade-server`), which appends a record per mutation.
//!
//! The store never blocks on the engine: every operation is a short
//! critical section over one mutex, and the actual solving happens outside
//! with only the pending marker held. Plan and lease counts are maintained
//! live, so [`PlanStore::count`], [`PlanStore::leases`], and the
//! `retained` hint in [`StoreError::UnknownPlan`] are O(1) — no operation
//! on the hot path scans the table ([`PlanStore::scans`] counts the ones
//! that do, so a test can pin that claim).
//!
//! ## Lease state machine (per plan id)
//!
//! ```text
//!                 begin_produce(A)
//!    (absent) ───────────────────────▶ leased(A) + pending(A)
//!                                          │ finish(A, Some(plan))
//!                                          ▼
//!              claim(B) after A ──▶   leased(A) + plan
//!              releases/drops/   ◀──       │ release(A) / drop_session(A)
//!              expires                     │ / TTL elapses idle
//!                                          ▼
//!                                     unleased + plan ──▶ begin_resubmit(B)
//!                                                         re-enters leased(B)
//!                                                         + pending(B)
//! ```
//!
//! Invariant: whenever an id is pending, the pending session also holds
//! the lease — producing *is* the strongest form of holding. Expiry
//! preserves it: a pending lease is never expired.

use crate::service::ResolvedPlan;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Identifies one frontend session (connection) to the store. `0` is
/// reserved for "no session" by convention, but the store does not treat
/// any value specially.
pub type SessionId = u64;

/// A typed conflict from the [`PlanStore`]; frontends map these onto
/// structured protocol errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The id names no stored plan. Carries the store's current plan count
    /// so error messages can hint at what *is* retained.
    UnknownPlan {
        /// The id that was looked up.
        id: String,
        /// Plans currently retained in the store.
        retained: usize,
    },
    /// Another session holds the id's lease.
    LeaseHeld {
        /// The contested id.
        id: String,
        /// The session holding the lease.
        owner: SessionId,
    },
    /// A producer (solve or resubmit) for the id is still in flight.
    Pending {
        /// The contested id.
        id: String,
        /// The session whose request is producing the plan.
        producer: SessionId,
        /// The producing request's `seq` tag, when it was pipelined.
        seq: Option<String>,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownPlan { id, retained } => {
                write!(
                    f,
                    "unknown plan id `{id}`; the store retains {retained} plan(s)"
                )
            }
            StoreError::LeaseHeld { id, owner } => {
                write!(f, "plan id `{id}` is leased by session {owner}")
            }
            StoreError::Pending { id, producer, .. } => {
                write!(
                    f,
                    "plan id `{id}` is still being produced by session {producer}"
                )
            }
        }
    }
}

/// What happened to the result a producer handed to [`PlanStore::finish`].
///
/// The interesting cases arise when the producing session lost its pending
/// marker to a [`PlanStore::drop_session`] while the solve was in flight;
/// a frontend uses the outcome to answer the client truthfully instead of
/// reporting success for a plan that was never stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a producer that lost its id must not report false success"]
pub enum FinishOutcome {
    /// The normal path: the session was the id's pending producer (or had
    /// nothing to roll back) and its result was applied.
    Applied,
    /// The session had lost the pending marker but the id was free, so the
    /// produced plan landed **unleased** — the work is preserved and any
    /// session (including the producer) can claim or resubmit it.
    LandedUnleased,
    /// The session had lost the pending marker and the id has since moved
    /// on (another plan, lease, or producer now owns it); the produced
    /// plan was discarded rather than clobbering newer state.
    Discarded,
}

/// The in-flight producer of a plan id.
#[derive(Debug, Clone)]
struct Producer {
    session: SessionId,
    /// The producing request's `seq` tag, echoed in conflict errors so a
    /// pipelining client can tell *which* of its requests to wait for.
    seq: Option<String>,
}

/// A held lease: the owner plus the instant of the owner's last store
/// operation on the id — the expiry clock when a TTL is configured.
#[derive(Debug, Clone)]
struct Lease {
    owner: SessionId,
    refreshed: Instant,
}

#[derive(Default)]
struct Entry {
    /// The stored plan; `None` while the id's first producer is in flight.
    plan: Option<Arc<ResolvedPlan>>,
    /// The session holding the id, if any.
    lease: Option<Lease>,
    /// Set while a solve/resubmit for the id is in flight.
    pending: Option<Producer>,
}

/// Everything behind the store's one mutex. `plans` and `leased` are live
/// counters maintained by every mutation, so reads never scan the table.
#[derive(Default)]
struct State {
    entries: HashMap<String, Entry>,
    /// Entries whose `plan` is `Some` — kept exact by every mutation.
    plans: usize,
    /// Entries whose `lease` is `Some` — kept exact by every mutation.
    leased: usize,
    /// When set, idle leases expire this long after their last refresh.
    ttl: Option<Duration>,
}

/// The shared store; see the module docs for the ownership discipline.
#[derive(Default)]
pub struct PlanStore {
    state: Mutex<State>,
    /// Operations rejected with [`StoreError::LeaseHeld`] — how often
    /// sessions actually contend for the same plan id.
    lease_conflicts: AtomicU64,
    /// Leases reclaimed because their TTL elapsed.
    lease_expiries: AtomicU64,
    /// Full-table scans performed (diagnostics/compaction paths only);
    /// pinned at zero across hot-path operations by a regression test.
    scans: AtomicU64,
}

/// Takes the id's lease for `session`, refreshing the expiry clock when
/// the session already holds it, and keeps the live lease count exact.
fn set_lease(entry: &mut Entry, session: SessionId, leased: &mut usize) {
    if entry.lease.is_none() {
        *leased += 1;
    }
    entry.lease = Some(Lease {
        owner: session,
        refreshed: Instant::now(),
    });
}

/// Drops the entry's lease, if any, keeping the live lease count exact.
fn clear_lease(entry: &mut Entry, leased: &mut usize) {
    if entry.lease.take().is_some() {
        *leased -= 1;
    }
}

/// The id's *live* lease owner: an expired lease (TTL elapsed since its
/// last refresh, no producer in flight) is reclaimed here — cleared and
/// counted — so every conflict check observes post-expiry state. Pending
/// leases never expire.
fn live_owner(
    entry: &mut Entry,
    ttl: Option<Duration>,
    leased: &mut usize,
    expiries: &AtomicU64,
) -> Option<SessionId> {
    let lease = entry.lease.as_ref()?;
    if entry.pending.is_none() {
        if let Some(ttl) = ttl {
            if lease.refreshed.elapsed() >= ttl {
                clear_lease(entry, leased);
                expiries.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
    }
    Some(entry.lease.as_ref().expect("lease checked above").owner)
}

impl PlanStore {
    /// An empty store. Leases do not expire until a TTL is configured with
    /// [`PlanStore::set_lease_ttl`].
    pub fn new() -> PlanStore {
        PlanStore::default()
    }

    // Store state is plain data, valid at every instruction boundary; a
    // panicking holder cannot leave an entry half-written.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Sets (or clears) the lease TTL: with `Some(ttl)`, an idle lease
    /// expires once `ttl` has elapsed since its holder's last store
    /// operation on the id and becomes reclaimable by any session;
    /// `Some(Duration::ZERO)` expires idle leases immediately (a
    /// deterministic test hook). `None` — the default — keeps leases until
    /// released or dropped. Leases with a producer in flight never expire.
    pub fn set_lease_ttl(&self, ttl: Option<Duration>) {
        self.lock().ttl = ttl;
    }

    /// Builds the [`StoreError::LeaseHeld`] rejection, counting it — every
    /// lease conflict the store ever reports flows through here.
    fn lease_held(&self, id: &str, owner: SessionId) -> StoreError {
        self.lease_conflicts.fetch_add(1, Ordering::Relaxed);
        StoreError::LeaseHeld {
            id: id.to_string(),
            owner,
        }
    }

    /// Marks `id` as being produced by `session`'s in-flight solve, taking
    /// the lease. Call [`PlanStore::finish`] when the solve completes (or
    /// fails). Fails with [`StoreError::Pending`] while another producer is
    /// in flight and [`StoreError::LeaseHeld`] when another session holds
    /// the id (and the lease has not expired).
    pub fn begin_produce(
        &self,
        session: SessionId,
        id: &str,
        seq: Option<&str>,
    ) -> Result<(), StoreError> {
        let mut guard = self.lock();
        let state = &mut *guard;
        let entry = state.entries.entry(id.to_string()).or_default();
        if let Some(producer) = &entry.pending {
            return Err(StoreError::Pending {
                id: id.to_string(),
                producer: producer.session,
                seq: producer.seq.clone(),
            });
        }
        if let Some(owner) = live_owner(entry, state.ttl, &mut state.leased, &self.lease_expiries) {
            if owner != session {
                return Err(self.lease_held(id, owner));
            }
        }
        set_lease(entry, session, &mut state.leased);
        entry.pending = Some(Producer {
            session,
            seq: seq.map(str::to_string),
        });
        Ok(())
    }

    /// Fetches `id`'s plan for a resubmit by `session`, claiming the lease
    /// if the id is unleased (or its lease expired) and marking the id
    /// pending until [`PlanStore::finish`]. Fails with
    /// [`StoreError::UnknownPlan`] for an absent id, [`StoreError::Pending`]
    /// while a producer is in flight, and [`StoreError::LeaseHeld`] when
    /// another session holds the id.
    pub fn begin_resubmit(
        &self,
        session: SessionId,
        id: &str,
        seq: Option<&str>,
    ) -> Result<Arc<ResolvedPlan>, StoreError> {
        let mut guard = self.lock();
        let state = &mut *guard;
        let retained = state.plans;
        let Some(entry) = state.entries.get_mut(id) else {
            return Err(StoreError::UnknownPlan {
                id: id.to_string(),
                retained,
            });
        };
        if let Some(producer) = &entry.pending {
            return Err(StoreError::Pending {
                id: id.to_string(),
                producer: producer.session,
                seq: producer.seq.clone(),
            });
        }
        if let Some(owner) = live_owner(entry, state.ttl, &mut state.leased, &self.lease_expiries) {
            if owner != session {
                return Err(self.lease_held(id, owner));
            }
        }
        let Some(plan) = entry.plan.clone() else {
            // A lease without plan or producer only arises if a producer's
            // finish(None) raced a concurrent claim; treat it as unknown.
            return Err(StoreError::UnknownPlan {
                id: id.to_string(),
                retained,
            });
        };
        set_lease(entry, session, &mut state.leased);
        entry.pending = Some(Producer {
            session,
            seq: seq.map(str::to_string),
        });
        Ok(plan)
    }

    /// Completes `session`'s in-flight production of `id`: stores the plan
    /// (replacing any previous version) on success, or — when `produced` is
    /// `None` — rolls the marker back, removing the entry entirely if the
    /// failed producer was the id's first.
    ///
    /// The returned [`FinishOutcome`] tells the caller what happened when
    /// the session is *not* the pending producer (it lost the id to a
    /// [`PlanStore::drop_session`] while solving): a produced plan lands
    /// unleased if the id is free, and is discarded — reported, never
    /// silent — if the id has moved on. A `None` result with no marker to
    /// roll back is a harmless no-op (`Applied`).
    pub fn finish(
        &self,
        session: SessionId,
        id: &str,
        produced: Option<Arc<ResolvedPlan>>,
    ) -> FinishOutcome {
        let mut guard = self.lock();
        let state = &mut *guard;
        match state.entries.get_mut(id) {
            Some(entry) if matches!(&entry.pending, Some(p) if p.session == session) => {
                entry.pending = None;
                if let Some(plan) = produced {
                    if entry.plan.replace(plan).is_none() {
                        state.plans += 1;
                    }
                    // Landing the result is a holder operation: refresh the
                    // lease's expiry clock.
                    if let Some(lease) = &mut entry.lease {
                        if lease.owner == session {
                            lease.refreshed = Instant::now();
                        }
                    }
                } else if entry.plan.is_none() {
                    clear_lease(entry, &mut state.leased);
                    state.entries.remove(id);
                }
                FinishOutcome::Applied
            }
            existing => match produced {
                // Nothing to roll back: the marker is already gone.
                None => FinishOutcome::Applied,
                Some(plan) => {
                    if existing.is_some() {
                        // The id has moved on (a newer plan, lease, or
                        // producer); never clobber it with a stale result.
                        return FinishOutcome::Discarded;
                    }
                    state.entries.insert(
                        id.to_string(),
                        Entry {
                            plan: Some(plan),
                            lease: None,
                            pending: None,
                        },
                    );
                    state.plans += 1;
                    FinishOutcome::LandedUnleased
                }
            },
        }
    }

    /// Takes `id`'s lease for `session` (idempotent when already held,
    /// refreshing the expiry clock; an expired lease is reclaimed). Fails
    /// with [`StoreError::UnknownPlan`] for an absent id,
    /// [`StoreError::Pending`] while a producer is in flight, and
    /// [`StoreError::LeaseHeld`] when another session holds a live lease —
    /// claiming never steals.
    pub fn claim(&self, session: SessionId, id: &str) -> Result<(), StoreError> {
        let mut guard = self.lock();
        let state = &mut *guard;
        let retained = state.plans;
        let Some(entry) = state.entries.get_mut(id) else {
            return Err(StoreError::UnknownPlan {
                id: id.to_string(),
                retained,
            });
        };
        if let Some(producer) = &entry.pending {
            if producer.session != session {
                return Err(StoreError::Pending {
                    id: id.to_string(),
                    producer: producer.session,
                    seq: producer.seq.clone(),
                });
            }
        }
        if let Some(owner) = live_owner(entry, state.ttl, &mut state.leased, &self.lease_expiries) {
            if owner != session {
                return Err(self.lease_held(id, owner));
            }
        }
        set_lease(entry, session, &mut state.leased);
        Ok(())
    }

    /// Releases `session`'s lease on `id` so another session can claim it
    /// (idempotent when the id is already unleased or its lease expired).
    /// Fails with [`StoreError::UnknownPlan`] for an absent id,
    /// [`StoreError::Pending`] while a producer is in flight (the producer
    /// must finish first — its result still needs the lease to land under),
    /// and [`StoreError::LeaseHeld`] when the lease belongs to someone
    /// else.
    pub fn release(&self, session: SessionId, id: &str) -> Result<(), StoreError> {
        let mut guard = self.lock();
        let state = &mut *guard;
        let retained = state.plans;
        let Some(entry) = state.entries.get_mut(id) else {
            return Err(StoreError::UnknownPlan {
                id: id.to_string(),
                retained,
            });
        };
        if let Some(producer) = &entry.pending {
            return Err(StoreError::Pending {
                id: id.to_string(),
                producer: producer.session,
                seq: producer.seq.clone(),
            });
        }
        if let Some(owner) = live_owner(entry, state.ttl, &mut state.leased, &self.lease_expiries) {
            if owner != session {
                return Err(self.lease_held(id, owner));
            }
        }
        clear_lease(entry, &mut state.leased);
        Ok(())
    }

    /// Releases everything `session` holds — leases and pending markers —
    /// keeping the stored plans (plans outlive their producing connection).
    /// Entries that never got a plan (the session disconnected mid-produce)
    /// are removed. This is the store's one remaining full-table scan; it
    /// runs once per disconnecting session, never on the request path.
    pub fn drop_session(&self, session: SessionId) {
        self.scans.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.lock();
        let state = &mut *guard;
        let mut released = 0usize;
        state.entries.retain(|_, entry| {
            if matches!(&entry.pending, Some(p) if p.session == session) {
                entry.pending = None;
            }
            if matches!(&entry.lease, Some(l) if l.owner == session) {
                entry.lease = None;
                released += 1;
            }
            let keep = entry.plan.is_some() || entry.pending.is_some();
            if !keep && entry.lease.take().is_some() {
                // Defensive: a removed entry must not leak its lease count.
                released += 1;
            }
            keep
        });
        state.leased -= released;
    }

    /// Re-inserts a recovered plan at boot — the journal-replay path. The
    /// plan lands unleased with no producer (the sessions that held it
    /// died with the previous process); an existing plan under `id` is
    /// replaced (last journal record wins), leases and markers untouched.
    pub fn restore(&self, id: &str, plan: Arc<ResolvedPlan>) {
        let mut guard = self.lock();
        let state = &mut *guard;
        let entry = state.entries.entry(id.to_string()).or_default();
        if entry.plan.replace(plan).is_none() {
            state.plans += 1;
        }
    }

    /// The retained plans, id-sorted — the journal-compaction snapshot.
    /// Scans the table under the store lock. Compaction is rare (every few
    /// hundred journal appends) but not off the request path: it runs on
    /// the request of whichever append spends the budget, and blocks the
    /// other requests' store updates while it scans.
    pub fn snapshot_plans(&self) -> Vec<(String, Arc<ResolvedPlan>)> {
        self.scans.fetch_add(1, Ordering::Relaxed);
        let guard = self.lock();
        let mut plans: Vec<(String, Arc<ResolvedPlan>)> = guard
            .entries
            .iter()
            .filter_map(|(id, entry)| entry.plan.clone().map(|plan| (id.clone(), plan)))
            .collect();
        plans.sort_by(|a, b| a.0.cmp(&b.0));
        plans
    }

    /// Plans currently retained (pending-only entries don't count). O(1):
    /// maintained live, never recounted.
    pub fn count(&self) -> usize {
        self.lock().plans
    }

    /// Ids currently leased by some session. O(1): maintained live. An
    /// expired-but-unreclaimed lease still counts until an operation on its
    /// id observes the expiry (expiry is lazy).
    pub fn leases(&self) -> usize {
        self.lock().leased
    }

    /// Operations rejected with [`StoreError::LeaseHeld`] since the store
    /// was created — a monotone contention counter.
    pub fn lease_conflicts(&self) -> u64 {
        self.lease_conflicts.load(Ordering::Relaxed)
    }

    /// Leases reclaimed because their TTL elapsed — a monotone counter.
    pub fn lease_expiries(&self) -> u64 {
        self.lease_expiries.load(Ordering::Relaxed)
    }

    /// Full-table scans performed since the store was created. A
    /// diagnostic: the regression test pins this at zero across
    /// `begin_resubmit`/`claim`/`release` so the O(1) claim stays true.
    pub fn scans(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }

    /// Test-support snapshot of each entry's ownership state:
    /// `(id, has_plan, lease owner, pending producer)`, id-sorted. Takes
    /// the lock and scans — property tests and diagnostics only. Reading
    /// does not trigger lazy expiry.
    #[doc(hidden)]
    pub fn debug_ownership(&self) -> Vec<(String, bool, Option<SessionId>, Option<SessionId>)> {
        self.scans.fetch_add(1, Ordering::Relaxed);
        let guard = self.lock();
        let mut rows: Vec<(String, bool, Option<SessionId>, Option<SessionId>)> = guard
            .entries
            .iter()
            .map(|(id, entry)| {
                (
                    id.clone(),
                    entry.plan.is_some(),
                    entry.lease.as_ref().map(|l| l.owner),
                    entry.pending.as_ref().map(|p| p.session),
                )
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}
