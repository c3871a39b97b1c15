//! The engine's job scheduler: per-worker deques with work stealing.
//!
//! The engine's first five iterations fed the worker pool from one bounded
//! `mpsc` channel behind a mutex — correct, but every dequeue contended on
//! one lock and an idle worker could never help a loaded one. This module
//! replaces it, std-only:
//!
//! * **per-worker deques** — submissions are placed round-robin across one
//!   `VecDeque` per worker; a worker drains its own deque LIFO (freshest
//!   job first, the classic locality heuristic) and, when its own deque is
//!   empty, **steals** the oldest job from a victim's deque (FIFO — the
//!   victim keeps its freshest work);
//! * **counting admission** — a shared atomic counter tracks jobs submitted
//!   but not yet claimed. Submitters reserve a slot (blocking at
//!   `capacity`, which is the engine's backpressure) *before* pushing;
//!   workers claim a slot *before* scanning the deques. A claim therefore
//!   guarantees a job is pushed or about to be pushed, so the scan may spin
//!   only across a submitter's reserve→push window, never indefinitely;
//! * **parking** — an idle pool costs nothing: workers park on a condvar
//!   once the claim counter reads zero, and submitters wake exactly one
//!   parked worker per job. The parked/waiting counters are incremented
//!   under the same lock the notifier takes, which (with the SeqCst
//!   counter operations) rules out missed wakeups;
//! * **deterministic drain** — [`Scheduler::shutdown`] sets the flag and
//!   wakes everyone; a worker only exits once the claim counter is zero,
//!   so every job submitted before shutdown runs before the pool dies.
//!
//! Stealing is *legal* because the engine's results never depend on which
//! worker runs which shard: sharding is decided at submit time from the
//! request alone, every job is a pure function of its request, and shard
//! results merge in shard order. The scheduler only changes *when and
//! where* jobs run — the tests in `tests/steal_determinism.rs` pin that
//! plans stay byte-identical under steal-heavy schedules.
//!
//! A one-worker pool has a single deque, which it drains FIFO, so a
//! single-threaded engine runs its jobs in submit order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread;

/// One queued unit of work (a shard solve, boxed with its result channel).
/// The worker hands the job its [`JobCtx`] — which worker ran it and how it
/// was dequeued — so jobs can stamp scheduling provenance into request
/// traces without the scheduler knowing what a trace is.
pub(crate) type Job = Box<dyn FnOnce(JobCtx) + Send + 'static>;

/// How a job reached the worker running it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobCtx {
    /// Index of the worker executing the job.
    pub worker: usize,
    /// Whether the job was stolen from another worker's deque.
    pub stolen: bool,
}

/// The work-stealing scheduler shared by every worker of one [`Engine`].
///
/// [`Engine`]: crate::Engine
pub(crate) struct Scheduler {
    /// One deque per worker.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs submitted (slot reserved) but not yet claimed by a worker.
    queued: AtomicUsize,
    shut_down: AtomicBool,
    /// Guards the park/wake protocol of both condvars below. Counters are
    /// bumped while holding it and notifiers take it before notifying, so a
    /// checked-then-waited thread cannot miss its wakeup.
    sleep: Mutex<()>,
    /// Workers park here when nothing is claimable.
    work: Condvar,
    /// Submitters park here while the queue is at capacity.
    room: Condvar,
    /// Workers currently parked on `work` (notify only when > 0).
    parked: AtomicUsize,
    /// Submitters currently parked on `room` (notify only when > 0).
    waiting_room: AtomicUsize,
    /// Reserve bound for `queued`; submission blocks at the bound.
    capacity: usize,
    /// Round-robin placement cursor for submissions.
    next: AtomicUsize,
    /// Jobs taken from a deque other than the claiming worker's own.
    steals: AtomicU64,
    /// Park episodes: times a worker went to sleep on `work` because the
    /// claim counter read zero (spurious condvar wakeups inside one
    /// episode are not re-counted).
    parks: AtomicU64,
    /// Wakeups: times a submitter notified a parked worker.
    wakes: AtomicU64,
}

/// Locks a mutex, shrugging off poisoning: scheduler state is a deque of
/// boxed closures plus counters, all valid at every instruction boundary.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Scheduler {
    pub(crate) fn new(workers: usize, capacity: usize) -> Scheduler {
        Scheduler {
            deques: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            queued: AtomicUsize::new(0),
            shut_down: AtomicBool::new(false),
            sleep: Mutex::new(()),
            work: Condvar::new(),
            room: Condvar::new(),
            parked: AtomicUsize::new(0),
            waiting_room: AtomicUsize::new(0),
            capacity: capacity.max(1),
            next: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        }
    }

    /// Queues `job`, returning whether it was accepted (`false` once the
    /// scheduler is shut down). Blocks while `capacity` jobs are already
    /// queued — the engine's backpressure.
    pub(crate) fn submit(&self, job: Job) -> bool {
        // Reserve a slot in `queued` before touching any deque.
        loop {
            if self.shut_down.load(Ordering::SeqCst) {
                return false;
            }
            let queued = self.queued.load(Ordering::SeqCst);
            if queued >= self.capacity {
                let mut guard = lock(&self.sleep);
                self.waiting_room.fetch_add(1, Ordering::SeqCst);
                while self.queued.load(Ordering::SeqCst) >= self.capacity
                    && !self.shut_down.load(Ordering::SeqCst)
                {
                    guard = self
                        .room
                        .wait(guard)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                self.waiting_room.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            if self
                .queued
                .compare_exchange(queued, queued + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break;
            }
        }
        // A worker only exits once `queued` is zero, so a reservation made
        // before it observed zero pins the pool alive until our push lands.
        // But if the flag was already set when we reserved, the last worker
        // may have exited before the reservation: satisfy the claim protocol
        // with a no-op push (some worker, or nobody, runs it) and reject.
        let (job, accepted): (Job, bool) = if self.shut_down.load(Ordering::SeqCst) {
            (Box::new(|_| {}), false)
        } else {
            (job, true)
        };
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.deques.len();
        lock(&self.deques[slot]).push_back(job);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = lock(&self.sleep);
            self.wakes.fetch_add(1, Ordering::Relaxed);
            self.work.notify_one();
        }
        accepted
    }

    /// Claims and returns the next job for `worker` along with whether it
    /// was stolen, parking while the pool is idle. `None` means the
    /// scheduler has shut down *and* every queued job has been claimed —
    /// the worker should exit.
    pub(crate) fn next_job(&self, worker: usize) -> Option<(Job, bool)> {
        // Claim one queued slot (or park, or exit).
        loop {
            let queued = self.queued.load(Ordering::SeqCst);
            if queued == 0 {
                if self.shut_down.load(Ordering::SeqCst) {
                    return None;
                }
                let mut guard = lock(&self.sleep);
                self.parked.fetch_add(1, Ordering::SeqCst);
                self.parks.fetch_add(1, Ordering::Relaxed);
                while self.queued.load(Ordering::SeqCst) == 0
                    && !self.shut_down.load(Ordering::SeqCst)
                {
                    guard = self
                        .work
                        .wait(guard)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                self.parked.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            if self
                .queued
                .compare_exchange(queued, queued - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break;
            }
        }
        // The claim freed a capacity slot; release a blocked submitter.
        if self.waiting_room.load(Ordering::SeqCst) > 0 {
            let _guard = lock(&self.sleep);
            self.room.notify_all();
        }
        // Find the claimed job: own deque LIFO first, then steal FIFO from
        // victims. A miss on every deque means some submitter is between
        // its reserve and its push — yield and rescan; the push is coming.
        let own = worker % self.deques.len();
        loop {
            if let Some(job) = self.pop(own, true) {
                return Some((job, false));
            }
            for offset in 1..self.deques.len() {
                let victim = (own + offset) % self.deques.len();
                if let Some(job) = self.pop(victim, false) {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    return Some((job, true));
                }
            }
            thread::yield_now();
        }
    }

    /// Pops from deque `index`: LIFO for a worker's own deque (when there
    /// is more than one — a one-worker pool stays FIFO, so it runs jobs in
    /// submit order), FIFO when stealing.
    fn pop(&self, index: usize, own: bool) -> Option<Job> {
        let mut deque = lock(&self.deques[index]);
        if own && self.deques.len() > 1 {
            deque.pop_back()
        } else {
            deque.pop_front()
        }
    }

    /// Sets the shutdown flag and wakes every parked worker and blocked
    /// submitter. Workers drain the claim counter to zero before exiting,
    /// so everything submitted before this call still runs.
    pub(crate) fn shutdown(&self) {
        self.shut_down.store(true, Ordering::SeqCst);
        let _guard = lock(&self.sleep);
        self.work.notify_all();
        self.room.notify_all();
    }

    pub(crate) fn is_shut_down(&self) -> bool {
        self.shut_down.load(Ordering::SeqCst)
    }

    /// Jobs a worker took from another worker's deque since construction.
    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Jobs submitted but not yet claimed by a worker — the queue depth.
    pub(crate) fn depth(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    /// Worker park episodes since construction.
    pub(crate) fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Submitter-to-worker wakeups since construction.
    pub(crate) fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    /// What a job saw when it ran: its submit index and the context the
    /// worker loop handed it.
    type Log = Arc<Mutex<Vec<(usize, JobCtx)>>>;

    fn submit_logged(sched: &Scheduler, log: &Log, index: usize) -> bool {
        let log = Arc::clone(log);
        sched.submit(Box::new(move |ctx| lock(&log).push((index, ctx))))
    }

    /// One turn of the engine's worker loop: claim, then run with the
    /// context the claim produced. Returns whether a job ran.
    fn run_next(sched: &Scheduler, worker: usize) -> bool {
        match sched.next_job(worker) {
            Some((job, stolen)) => {
                job(JobCtx { worker, stolen });
                true
            }
            None => false,
        }
    }

    fn ran(log: &Log) -> Vec<(usize, usize, bool)> {
        lock(log)
            .iter()
            .map(|&(index, ctx)| (index, ctx.worker, ctx.stolen))
            .collect()
    }

    #[test]
    fn one_worker_runs_jobs_in_submit_order() {
        let sched = Scheduler::new(1, 16);
        let log = Log::default();
        for index in 0..5 {
            assert!(submit_logged(&sched, &log, index));
        }
        for _ in 0..5 {
            assert!(run_next(&sched, 0));
        }
        let order: Vec<usize> = ran(&log).iter().map(|&(index, _, _)| index).collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
        assert!(ran(&log).iter().all(|&(_, _, stolen)| !stolen));
        assert_eq!(sched.steals(), 0);
    }

    #[test]
    fn own_deque_pops_lifo_and_a_steal_takes_the_victims_oldest_job() {
        // Round-robin placement: jobs 0, 2, 4 land on deque 0 and jobs 1, 3
        // on deque 1.
        let sched = Scheduler::new(2, 16);
        let log = Log::default();
        for index in 0..5 {
            assert!(submit_logged(&sched, &log, index));
        }
        for _ in 0..5 {
            assert!(run_next(&sched, 0));
        }
        assert_eq!(
            ran(&log),
            [
                (4, 0, false),
                (2, 0, false),
                (0, 0, false),
                (1, 0, true),
                (3, 0, true),
            ]
        );
        assert_eq!(sched.steals(), 2);
        assert_eq!(sched.depth(), 0);
    }

    #[test]
    fn submit_blocks_at_capacity_until_a_claim_frees_a_slot() {
        let sched = Scheduler::new(1, 2);
        let log = Log::default();
        assert!(submit_logged(&sched, &log, 0));
        assert!(submit_logged(&sched, &log, 1));
        let (accepted_tx, accepted_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let accepted = submit_logged(&sched, &log, 2);
                accepted_tx.send(accepted).unwrap();
            });
            assert_eq!(
                accepted_rx.recv_timeout(Duration::from_millis(100)),
                Err(mpsc::RecvTimeoutError::Timeout),
                "a submit past capacity must block"
            );
            assert_eq!(sched.depth(), 2);
            assert!(run_next(&sched, 0));
            assert_eq!(
                accepted_rx.recv_timeout(Duration::from_secs(10)),
                Ok(true),
                "a claim must release the blocked submit"
            );
        });
        assert_eq!(sched.depth(), 2);
        while sched.depth() > 0 {
            assert!(run_next(&sched, 0));
        }
        let order: Vec<usize> = ran(&log).iter().map(|&(index, _, _)| index).collect();
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    fn shutdown_runs_every_queued_job_before_next_job_returns_none() {
        let sched = Scheduler::new(2, 16);
        let log = Log::default();
        for index in 0..4 {
            assert!(submit_logged(&sched, &log, index));
        }
        sched.shutdown();
        assert!(sched.is_shut_down());
        assert!(
            !submit_logged(&sched, &log, 99),
            "a submit after shutdown is rejected"
        );
        let mut turns = 0;
        while run_next(&sched, turns % 2) {
            turns += 1;
        }
        assert_eq!(turns, 4);
        assert!(sched.next_job(0).is_none());
        assert!(sched.next_job(1).is_none());
        let mut indices: Vec<usize> = ran(&log).iter().map(|&(index, _, _)| index).collect();
        indices.sort_unstable();
        assert_eq!(
            indices,
            [0, 1, 2, 3],
            "every queued job ran, the rejected one did not"
        );
    }
}
