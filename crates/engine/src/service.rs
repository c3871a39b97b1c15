//! The engine: a work-stealing worker pool, request sharding, blocking
//! handles, and incremental workload deltas.

use crate::cache::{ArtifactCache, CacheStats};
use crate::sched::{Job, JobCtx, Scheduler};
use slade_core::baseline::{Baseline, BaselineConfig};
use slade_core::bin_set::BinSet;
use slade_core::fingerprint::Fingerprint;
use slade_core::hetero;
use slade_core::opq_based::OpqBased;
use slade_core::plan::DecompositionPlan;
use slade_core::reliability;
use slade_core::solver::{Algorithm, PreparedSolver};
use slade_core::task::{TaskId, Workload};
use slade_core::SladeError;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Configuration of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads in the pool (clamped to at least 1). The default is
    /// the machine's available parallelism.
    pub threads: usize,
    /// Bound on jobs queued but not yet claimed by a worker;
    /// [`Engine::submit`] blocks when it is reached, which is the engine's
    /// backpressure. Clamped to at least 1.
    pub queue_capacity: usize,
    /// [`ArtifactCache`] capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Configuration used for every artifact-accelerated (OPQ) shard; its
    /// knobs enter those shards' cache [`Fingerprint`]s through
    /// [`PreparedSolver::fingerprint_knobs`].
    pub solver: OpqBased,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: thread::available_parallelism().map_or(4, |n| n.get()),
            queue_capacity: 256,
            cache_capacity: 64,
            solver: OpqBased::default(),
        }
    }
}

/// A request span shards record their scheduling provenance into: the
/// engine stamps `shard_start` / `shard_finish` stages (with shard index,
/// worker index, and whether the job was stolen) as each shard runs.
/// Recording is one short mutex around a timestamp and a push — it never
/// blocks a worker behind I/O. Attached via [`EngineRequest::with_trace`].
pub type RequestTrace = Arc<slade_obs::RequestSpan>;

/// One decomposition request, self-contained and cheap to move across
/// threads (the bin menu is shared by `Arc`).
#[derive(Clone)]
pub struct EngineRequest {
    /// The solver to run.
    pub algorithm: Algorithm,
    /// The instance's workload.
    pub workload: Workload,
    /// The instance's bin menu.
    pub bins: Arc<BinSet>,
    /// Per-request seed for randomized solvers (only [`Algorithm::Baseline`]
    /// consumes it today). Deterministic solvers ignore it.
    pub seed: u64,
    /// When set, this solver runs instead of the registry default for
    /// `algorithm` — see [`EngineRequest::with_solver`].
    solver_override: Option<Arc<dyn PreparedSolver + Send + Sync>>,
    /// When set, shard jobs record their stages into this span — see
    /// [`EngineRequest::with_trace`].
    trace: Option<RequestTrace>,
}

impl fmt::Debug for EngineRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineRequest")
            .field("algorithm", &self.algorithm)
            .field("workload", &self.workload)
            .field("bins", &self.bins)
            .field("seed", &self.seed)
            .field(
                "solver_override",
                &self.solver_override.as_ref().map(|s| s.name()),
            )
            .field("trace", &self.trace.as_ref().map(|t| t.id()))
            .finish()
    }
}

impl EngineRequest {
    /// A request with the default seed `0`.
    pub fn new(algorithm: Algorithm, workload: Workload, bins: Arc<BinSet>) -> Self {
        EngineRequest {
            algorithm,
            workload,
            bins,
            seed: 0,
            solver_override: None,
            trace: None,
        }
    }

    /// Sets the seed consumed by randomized solvers.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs `solver` instead of the registry default for the request's
    /// algorithm. Override requests are never sharded and never touch the
    /// artifact cache (a custom solver has no registry identity to key
    /// entries under); they exist for embedding experimental solvers — and
    /// for the engine's own fault-injection tests.
    #[must_use]
    pub fn with_solver(mut self, solver: Arc<dyn PreparedSolver + Send + Sync>) -> Self {
        self.solver_override = Some(solver);
        self
    }

    /// Attaches a [`RequestTrace`]: every shard job of this request records
    /// a `shard_start` stage before it computes and a `shard_finish` stage
    /// after (both carrying the shard index, the worker that ran it, and
    /// whether the job was stolen from another worker's deque). Tracing
    /// changes nothing about the plan; an untraced request skips all
    /// recording.
    #[must_use]
    pub fn with_trace(mut self, trace: RequestTrace) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// Errors surfaced by [`ResolvedHandle`] waits and the blocking entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A shard's solver failed; the underlying error.
    Solve(SladeError),
    /// A shard's solver panicked inside a worker. The worker caught the
    /// unwind at the job boundary and kept serving; the panic payload (when
    /// it was a string) is carried here instead of wedging the handle.
    WorkerPanicked {
        /// The panic payload, if it was a `&str`/`String` panic.
        message: String,
    },
    /// A shard's worker disappeared before delivering a result (the engine
    /// shut down underneath the handle).
    ShardLost,
    /// The engine had already been [shut down](Engine::shutdown) when the
    /// request was submitted, so no shard was ever queued.
    ShutDown,
    /// A caller's own deadline around [`ResolvedHandle::try_wait`] passed
    /// before every shard reported. The shards keep running in the pool;
    /// only this wait abandoned them.
    Timeout {
        /// The deadline that elapsed.
        after: Duration,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Solve(e) => write!(f, "shard solve failed: {e}"),
            EngineError::WorkerPanicked { message } => {
                write!(f, "a solver panicked while solving a shard: {message}")
            }
            EngineError::ShardLost => {
                write!(f, "a worker disappeared before delivering its shard")
            }
            EngineError::ShutDown => {
                write!(f, "the engine was shut down before the request could run")
            }
            EngineError::Timeout { after } => {
                write!(f, "the solve did not finish within {after:?}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SladeError> for EngineError {
    fn from(e: SladeError) -> Self {
        EngineError::Solve(e)
    }
}

/// Which request tasks a shard solves: `None` for the whole workload
/// (shard-local id `j` is global id `j`), or a threshold bucket's members
/// (shard-local id `j` is global id `members[j]`).
type Members = Option<Arc<Vec<TaskId>>>;

/// What one shard computes. Equality is what [`Engine::resubmit`] uses to
/// recognize unchanged work: a shard's *raw* (pre-remap) sub-plan is a pure
/// function of this value (plus the request-level bins/solver state, which
/// resubmission holds fixed).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ShardWork {
    /// A homogeneous OPQ solve of `n` tasks at `threshold`, accelerated by
    /// the artifact cache.
    Opq { n: u32, threshold: f64 },
    /// Run the request's algorithm on its full workload with its one-shot
    /// `solve`; no artifact cache is involved. (The name predates that and
    /// is kept because it is codec v1's wire name for this shard kind.)
    Prepared,
}

struct Shard {
    work: ShardWork,
    members: Members,
}

type ShardResult = (usize, Result<DecompositionPlan, EngineError>);

/// A completion callback cloned into every shard job of one request: it runs
/// on the worker thread **after** that shard's result has been delivered to
/// the handle's channel, once per shard. A caller multiplexing many handles
/// on one thread (the `slade-server` session writer) uses it to learn
/// *when* to poll [`ResolvedHandle::try_wait`] without blocking on any
/// single handle; the callback itself must be cheap and must not panic (a
/// channel send, a thread unpark).
pub type ShardNotify = Arc<dyn Fn() + Send + Sync>;

/// The options of one [`Engine::submit`] call; `Submit::default()` is a
/// plain fresh solve.
#[derive(Clone, Default)]
pub struct Submit<'a> {
    /// A prior resolve whose shard results may be reused: every shard whose
    /// inputs match one of `prior`'s is spliced in instead of recomputed.
    /// Pair it with the request [`ResolvedPlan::resubmission`] builds.
    pub prior: Option<&'a ResolvedPlan>,
    /// Runs after each queued shard's result is delivered, so a caller can
    /// sleep until [`ResolvedHandle::try_wait`] has something to drain.
    pub notify: Option<ShardNotify>,
}

/// The label the requested algorithm's own solver stamps on its plans —
/// taken from the solver registry itself so it can never drift — so wrapped
/// engine results compare equal to direct `solve` calls (the derived
/// `PartialEq` on [`DecompositionPlan`] includes the label). Only OPQ
/// requests are ever wrapped; every other algorithm runs as a single
/// pass-through shard carrying whatever label its solver chose.
fn plan_label(algorithm: Algorithm) -> &'static str {
    algorithm.solver().name()
}

/// Merges raw shard outputs in shard order under `label`, mapping each
/// sub-plan's task ids to global ones while copying it — one pass, and the
/// shared raw sub-plans stay untouched for later resubmissions.
fn merge_subs(
    label: &'static str,
    subs: &[Arc<DecompositionPlan>],
    members: &[Members],
) -> DecompositionPlan {
    let mut plan = DecompositionPlan::empty(label);
    for (sub, members) in subs.iter().zip(members) {
        match members {
            None => plan.merge_mapped(sub, |t| t),
            Some(members) => plan.merge_mapped(sub, |t| members[t as usize]),
        }
    }
    plan
}

/// An incremental change to a previously solved workload, consumed by
/// [`Engine::resubmit`]. Deltas only reshape the *workload*; the bin menu,
/// algorithm, and seed stay those of the prior request.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadDelta {
    /// Grow or shrink the workload to `n` tasks. Growth replicates the
    /// shared threshold (and therefore requires a homogeneous workload);
    /// shrinking truncates the highest task ids of either kind.
    Resize(u32),
    /// Replace the thresholds of individual tasks (`(task id, new
    /// threshold)`); the workload is re-bucketed accordingly.
    SetThresholds(Vec<(TaskId, f64)>),
    /// Append tasks with the given thresholds after the existing ids.
    Append(Vec<f64>),
}

impl WorkloadDelta {
    /// The workload that results from applying this delta to `workload`.
    pub fn apply(&self, workload: &Workload) -> Result<Workload, SladeError> {
        match self {
            WorkloadDelta::Resize(n) => {
                if workload.is_homogeneous() {
                    Workload::homogeneous(*n, workload.threshold(0))
                } else if *n <= workload.len() {
                    Workload::heterogeneous((0..*n).map(|i| workload.threshold(i)).collect())
                } else {
                    Err(SladeError::InvalidWorkload(format!(
                        "cannot grow a heterogeneous workload of {} tasks to {n} \
                         without thresholds; use WorkloadDelta::Append",
                        workload.len()
                    )))
                }
            }
            WorkloadDelta::SetThresholds(changes) => {
                let mut thresholds: Vec<f64> =
                    (0..workload.len()).map(|i| workload.threshold(i)).collect();
                for &(task, threshold) in changes {
                    let Some(slot) = thresholds.get_mut(task as usize) else {
                        return Err(SladeError::InvalidWorkload(format!(
                            "threshold change targets task {task}, but the workload \
                             has only {} tasks",
                            workload.len()
                        )));
                    };
                    *slot = threshold;
                }
                Workload::heterogeneous(thresholds)
            }
            WorkloadDelta::Append(extra) => {
                let mut thresholds: Vec<f64> =
                    (0..workload.len()).map(|i| workload.threshold(i)).collect();
                thresholds.extend_from_slice(extra);
                Workload::heterogeneous(thresholds)
            }
        }
    }
}

/// A solved request that retains its per-shard results, enabling
/// [`Engine::resubmit`] to re-solve only the shards a [`WorkloadDelta`]
/// actually changes.
#[derive(Debug)]
pub struct ResolvedPlan {
    request: EngineRequest,
    works: Vec<ShardWork>,
    /// The OPQ-shard solver knob words of the engine that produced `subs`
    /// ([`PreparedSolver::fingerprint_knobs`] of `EngineConfig::solver`).
    /// Resubmission on an engine with different knobs must not splice these
    /// sub-plans in, or the byte-identical-to-cold-solve contract breaks.
    solver_knobs: slade_core::fingerprint::KnobSink,
    /// Raw (pre-remap) shard outputs, index-aligned with `works`; behind
    /// `Arc` so chained resubmissions share rather than deep-copy them.
    subs: Vec<Arc<DecompositionPlan>>,
    /// The merged plan; in the unwrapped single-shard case this shares
    /// `subs[0]`'s allocation instead of duplicating it.
    plan: Arc<DecompositionPlan>,
    reused_shards: usize,
}

impl ResolvedPlan {
    /// The merged decomposition plan.
    pub fn plan(&self) -> &DecompositionPlan {
        &self.plan
    }

    /// Consumes the resolved state, keeping only the plan.
    pub fn into_plan(self) -> DecompositionPlan {
        let ResolvedPlan { plan, subs, .. } = self;
        // Release the shard handles first so a plan sharing `subs[0]` can
        // usually be unwrapped instead of cloned.
        drop(subs);
        Arc::try_unwrap(plan).unwrap_or_else(|shared| (*shared).clone())
    }

    /// The workload this plan decomposes (after any deltas).
    pub fn workload(&self) -> &Workload {
        &self.request.workload
    }

    /// The bin menu the plan was solved against (deltas never change it).
    pub fn bins(&self) -> &Arc<BinSet> {
        &self.request.bins
    }

    /// The algorithm that produced the plan.
    pub fn algorithm(&self) -> Algorithm {
        self.request.algorithm
    }

    /// How many shards of this solve were reused verbatim from the prior
    /// resolve instead of being recomputed (always `0` for a fresh
    /// [`Engine::solve_resolved`]).
    pub fn reused_shards(&self) -> usize {
        self.reused_shards
    }

    /// Total shards of this solve.
    pub fn shards(&self) -> usize {
        self.works.len()
    }

    /// The request this plan was solved from with `delta` applied to its
    /// workload — the request to [`Engine::submit`] with this plan as
    /// [`Submit::prior`]. Bins, algorithm, and seed stay the prior's; the
    /// request carries no trace (attach one with
    /// [`EngineRequest::with_trace`]). Fails when the delta is invalid for
    /// the prior workload.
    pub fn resubmission(&self, delta: &WorkloadDelta) -> Result<EngineRequest, EngineError> {
        let mut request = self.request.clone();
        request.workload = delta.apply(&self.request.workload)?;
        Ok(request)
    }

    // ---- durable-codec access (crate-private; see `crate::codec`) ----

    /// The request's seed (randomized solvers consume it).
    pub(crate) fn seed(&self) -> u64 {
        self.request.seed
    }

    /// The per-shard work descriptors, index-aligned with `subs`.
    pub(crate) fn works(&self) -> &[ShardWork] {
        &self.works
    }

    /// The producing engine's solver knob words, verbatim.
    pub(crate) fn knob_words(&self) -> &[u64] {
        self.solver_knobs.words()
    }

    /// The raw (pre-remap) shard outputs.
    pub(crate) fn subs(&self) -> &[Arc<DecompositionPlan>] {
        &self.subs
    }

    /// The merged plan's shared handle (to detect the unwrapped
    /// single-shard case, where it aliases `subs[0]`).
    pub(crate) fn merged(&self) -> &Arc<DecompositionPlan> {
        &self.plan
    }

    /// Reassembles a resolved plan from decoded parts — the codec's decode
    /// half. The caller (only `crate::codec`) is responsible for handing
    /// back exactly what the encode half read: index-aligned `works`/`subs`
    /// and a `plan` that aliases `subs[0]` in the unwrapped single-shard
    /// case, so a decoded plan resubmits byte-identically to the original.
    pub(crate) fn from_codec_parts(
        request: EngineRequest,
        works: Vec<ShardWork>,
        solver_knobs: slade_core::fingerprint::KnobSink,
        subs: Vec<Arc<DecompositionPlan>>,
        plan: Arc<DecompositionPlan>,
        reused_shards: usize,
    ) -> ResolvedPlan {
        ResolvedPlan {
            request,
            works,
            solver_knobs,
            subs,
            plan,
            reused_shards,
        }
    }
}

/// Everything a [`ResolvedHandle`] needs besides the live shard channel to
/// assemble its [`ResolvedPlan`]; taken out of the handle exactly once when
/// the last shard reports.
struct ResolvedCore {
    request: EngineRequest,
    works: Vec<ShardWork>,
    /// Index-aligned with `works`: each shard's tasks in the request.
    members: Vec<Members>,
    /// `None`: a single shard whose result is already exactly what a
    /// direct `solve` call would return — pass it through untouched.
    /// `Some(label)`: wrap the merged shards under this label, mirroring
    /// how `OpqExtended` itself wraps its per-bucket `OpqBased` sub-plans —
    /// so engine results compare equal (label included) to the sequential
    /// solver's.
    wrap: Option<&'static str>,
    solver_knobs: slade_core::fingerprint::KnobSink,
    /// Index-aligned with `works`; shards reused from a prior resolve are
    /// prefilled, queued shards land as their results arrive.
    subs: Vec<Option<Arc<DecompositionPlan>>>,
    reused_shards: usize,
}

impl ResolvedCore {
    /// Merges the collected sub-plans into a [`ResolvedPlan`].
    fn finish(self) -> ResolvedPlan {
        let subs: Vec<Arc<DecompositionPlan>> = self
            .subs
            .into_iter()
            .map(|sub| sub.expect("every shard either reused or reported"))
            .collect();
        let plan = match self.wrap {
            // Unwrapped single shard: the merged plan IS the raw sub-plan —
            // share it instead of deep-copying (resubmit chains hold many
            // of these).
            None => Arc::clone(&subs[0]),
            Some(label) => Arc::new(merge_subs(label, &subs, &self.members)),
        };
        ResolvedPlan {
            request: self.request,
            works: self.works,
            solver_knobs: self.solver_knobs,
            subs,
            plan,
            reused_shards: self.reused_shards,
        }
    }
}

/// The handle to one request submitted with [`Engine::submit`]: wait on it
/// ([`ResolvedHandle::wait`]) or poll it ([`ResolvedHandle::try_wait`]) —
/// both deliver the same [`ResolvedPlan`].
///
/// Dropping the handle abandons the result; the shards still run to
/// completion (they are already queued) but their plans are discarded.
#[must_use = "a ResolvedHandle does nothing until wait()ed on"]
pub struct ResolvedHandle {
    rx: Receiver<ShardResult>,
    /// Shards actually queued (not reused); completion = this many receipts.
    outstanding: usize,
    received: usize,
    /// Set when the engine was already shut down at submit time: at least
    /// one shard was never queued, so the handle can only fail.
    shut_down: bool,
    /// `Some` until the result (or error) is handed out; `None` = spent.
    core: Option<ResolvedCore>,
}

impl ResolvedHandle {
    /// Blocks until every queued shard has reported, then merges the
    /// sub-plans in shard order (never in completion order — that is what
    /// keeps the result independent of scheduling).
    pub fn wait(mut self) -> Result<ResolvedPlan, EngineError> {
        self.receive(true)
            .expect("a blocking receive on a live handle delivers")
    }

    /// Non-blocking poll: drains whatever shard results have arrived and
    /// returns `Some` exactly once — when the last shard reports (the
    /// result [`ResolvedHandle::wait`] would return) or when a shard fails.
    /// Returns `None` while work is still in flight, and `None` forever
    /// after the result has been handed out (the handle is *spent*).
    ///
    /// Pair it with a [`ShardNotify`] ([`Submit::notify`]) to multiplex many
    /// handles on one thread without polling in a busy loop: each
    /// notification means one more shard result is ready to drain.
    pub fn try_wait(&mut self) -> Option<Result<ResolvedPlan, EngineError>> {
        self.receive(false)
    }

    /// The one receive loop behind both wait modes: a blocking wait
    /// (`block`) or a poll (return `None` as soon as no result is ready).
    /// Returns `None` on a spent handle; after any `Some`, the handle is
    /// spent.
    fn receive(&mut self, block: bool) -> Option<Result<ResolvedPlan, EngineError>> {
        let core = self.core.as_mut()?;
        let outcome = loop {
            if self.shut_down {
                break Err(EngineError::ShutDown);
            }
            if self.received == self.outstanding {
                break Ok(());
            }
            let next = if block {
                self.rx.recv().map_err(|_| EngineError::ShardLost)
            } else {
                match self.rx.try_recv() {
                    Ok(next) => Ok(next),
                    Err(TryRecvError::Empty) => return None,
                    Err(TryRecvError::Disconnected) => Err(EngineError::ShardLost),
                }
            };
            match next {
                Ok((index, Ok(plan))) => {
                    core.subs[index] = Some(Arc::new(plan));
                    self.received += 1;
                }
                Ok((_, Err(e))) | Err(e) => break Err(e),
            }
        };
        let core = self.core.take().expect("checked live above");
        Some(outcome.map(|()| core.finish()))
    }
}

/// The concurrent decomposition service; see the crate docs for the design.
///
/// [`Engine::shutdown`] (or dropping the engine) stops the scheduler and
/// joins every worker, so already-queued shards finish first (outstanding
/// [`ResolvedHandle`]s stay valid across the shutdown).
pub struct Engine {
    sched: Arc<Scheduler>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
    cache: Arc<ArtifactCache>,
    config: EngineConfig,
}

impl Engine {
    /// Spawns the worker pool described by `config`.
    pub fn new(config: EngineConfig) -> Self {
        let threads = config.threads.max(1);
        let sched = Arc::new(Scheduler::new(threads, config.queue_capacity.max(1)));
        let workers = (0..threads)
            .map(|i| {
                let sched = Arc::clone(&sched);
                thread::Builder::new()
                    .name(format!("slade-worker-{i}"))
                    .spawn(move || worker_loop(&sched, i))
                    .expect("spawning an engine worker thread")
            })
            .collect();
        let cache = Arc::new(ArtifactCache::new(config.cache_capacity));
        Engine {
            sched,
            workers: Mutex::new(workers),
            threads,
            cache,
            config,
        }
    }

    /// Number of worker threads the pool was spawned with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Stops the scheduler and joins every worker, draining already queued
    /// shards first — so the drain is deterministic: everything submitted
    /// before the call completes, and outstanding [`ResolvedHandle`]s deliver
    /// their results as usual. Requests submitted *after* shutdown fail
    /// with [`EngineError::ShutDown`]. Idempotent, and callable through a
    /// shared `Arc<Engine>` (it only needs `&self`).
    pub fn shutdown(&self) {
        self.sched.shutdown();
        let mut workers = self.workers.lock().unwrap_or_else(|p| p.into_inner());
        for worker in workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Whether [`Engine::shutdown`] has run.
    pub fn is_shut_down(&self) -> bool {
        self.sched.is_shut_down()
    }

    /// Jobs a worker took from another worker's deque — the scheduler's
    /// work-stealing counter. Always `0` on a one-worker pool (a single
    /// deque has no victims).
    pub fn steals(&self) -> u64 {
        self.sched.steals()
    }

    /// Jobs submitted but not yet claimed by a worker — the scheduler's
    /// queue depth at this instant.
    pub fn queue_depth(&self) -> usize {
        self.sched.depth()
    }

    /// The job-queue capacity the scheduler was built with (the submit
    /// backpressure bound), clamped to at least 1 exactly as
    /// [`Engine::new`] clamps it. Together with [`Engine::queue_depth`]
    /// this is the saturation signal health checks page on.
    pub fn queue_capacity(&self) -> usize {
        self.config.queue_capacity.max(1)
    }

    /// Worker park episodes since the pool was spawned: times a worker went
    /// to sleep because no work was queued.
    pub fn parks(&self) -> u64 {
        self.sched.parks()
    }

    /// Submitter-to-worker wakeups since the pool was spawned: times a
    /// submission notified a parked worker.
    pub fn wakes(&self) -> u64 {
        self.sched.wakes()
    }

    /// Snapshot of the artifact cache's hit/miss/occupancy counters.
    /// Reads only relaxed atomics — never contends with the solve path.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resident cache entries per shard. Diagnostic, for the `metrics`
    /// surface; takes each shard's read lock briefly.
    pub fn cache_shard_occupancy(&self) -> Vec<usize> {
        self.cache.shard_occupancy()
    }

    /// Submits one request — a fresh solve, or a resubmission built with
    /// [`ResolvedPlan::resubmission`] — and returns its [`ResolvedHandle`].
    ///
    /// Sharding is decided here, from the request alone; shards that
    /// [`Submit::prior`] already computed are reused, the rest are queued.
    /// Blocks while the job queue is full (backpressure).
    pub fn submit(&self, mut request: EngineRequest, options: Submit<'_>) -> ResolvedHandle {
        let Submit { prior, notify } = options;
        let shards = Self::shard(&request);
        let wrap = Self::wrap_of(&shards, &request);
        let solver_knobs = self.solver_knobs();
        let mut works = Vec::with_capacity(shards.len());
        let mut members = Vec::with_capacity(shards.len());
        let mut subs: Vec<Option<Arc<DecompositionPlan>>> =
            (0..shards.len()).map(|_| None).collect();
        let (result_tx, result_rx) = channel::<ShardResult>();
        let mut reused_shards = 0;
        let mut outstanding = 0;
        let mut shut_down = false;

        for (index, shard) in shards.into_iter().enumerate() {
            let reusable = prior.and_then(|p| {
                // A prior resolve is only a valid donor when everything that
                // shapes raw sub-plans besides the shard work itself agrees:
                // algorithm, solver override, bin menu, and the engine's OPQ
                // solver knobs (a `ResolvedPlan` may come from a
                // differently-configured engine).
                let same_solver = match (&p.request.solver_override, &request.solver_override) {
                    (None, None) => true,
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                    _ => false,
                };
                if p.request.algorithm != request.algorithm
                    || !same_solver
                    || !Arc::ptr_eq(&p.request.bins, &request.bins)
                    || p.solver_knobs != solver_knobs
                {
                    return None;
                }
                match &shard.work {
                    // Raw OPQ sub-plans depend only on (n, threshold).
                    ShardWork::Opq { .. } => p.works.iter().position(|w| *w == shard.work),
                    // A pass-through shard recomputes from the full workload
                    // (and, for the baseline, the seed).
                    ShardWork::Prepared => p
                        .works
                        .iter()
                        .position(|w| *w == ShardWork::Prepared)
                        .filter(|_| {
                            p.request.workload == request.workload && p.request.seed == request.seed
                        }),
                }
            });
            if let Some(prior_index) = reusable {
                subs[index] = Some(Arc::clone(
                    &prior.expect("reusable implies prior").subs[prior_index],
                ));
                reused_shards += 1;
            } else if shut_down {
                // A previous shard already failed to queue; don't bother.
            } else if self.enqueue(self.make_job(
                index,
                shard.work.clone(),
                &request,
                result_tx.clone(),
                notify.clone(),
            )) {
                outstanding += 1;
            } else {
                shut_down = true;
            }
            works.push(shard.work);
            members.push(shard.members);
        }

        // The stored request seeds future resubmissions via `prior.request
        // .clone()`. Drop the span first: a clone must never write stages
        // into a trace that finished with an earlier response.
        request.trace = None;

        ResolvedHandle {
            rx: result_rx,
            outstanding,
            received: 0,
            shut_down,
            core: Some(ResolvedCore {
                request,
                works,
                members,
                wrap,
                solver_knobs,
                subs,
                reused_shards,
            }),
        }
    }

    /// Submits one request and blocks for its plan.
    pub fn solve(&self, request: EngineRequest) -> Result<DecompositionPlan, EngineError> {
        self.submit(request, Submit::default())
            .wait()
            .map(ResolvedPlan::into_plan)
    }

    /// Solves `request` while retaining per-shard results, so follow-up
    /// [`WorkloadDelta`]s can be applied incrementally with
    /// [`Engine::resubmit`]. The plan is identical to [`Engine::solve`]'s.
    pub fn solve_resolved(&self, request: EngineRequest) -> Result<ResolvedPlan, EngineError> {
        self.submit(request, Submit::default()).wait()
    }

    /// Applies `delta` to `prior`'s workload and re-solves, reusing every
    /// shard whose inputs the delta left unchanged (same task count and
    /// threshold for OPQ shards — membership may shift, the raw sub-plan is
    /// id-agnostic — and an untouched workload for pass-through shards).
    ///
    /// The returned plan is **byte-identical to a cold solve** of the
    /// resulting workload: raw shard outputs are deterministic functions of
    /// their inputs, so reuse is indistinguishable from recomputation.
    pub fn resubmit(
        &self,
        prior: &ResolvedPlan,
        delta: &WorkloadDelta,
    ) -> Result<ResolvedPlan, EngineError> {
        let request = prior.resubmission(delta)?;
        let options = Submit {
            prior: Some(prior),
            notify: None,
        };
        self.submit(request, options).wait()
    }

    /// The knob words of this engine's OPQ-shard solver; raw OPQ sub-plans
    /// are only interchangeable between engines whose words agree.
    fn solver_knobs(&self) -> slade_core::fingerprint::KnobSink {
        let mut knobs = slade_core::fingerprint::KnobSink::new();
        self.config.solver.fingerprint_knobs(&mut knobs);
        knobs
    }

    /// Queues `job`, returning whether it was accepted (`false` once the
    /// engine is shut down). Blocks while the queue is full (backpressure).
    fn enqueue(&self, job: Job) -> bool {
        self.sched.submit(job)
    }

    /// Wrap under the requested algorithm's label only an `OpqExtended`
    /// request that ran as OPQ shards. Every other shard list is one shard
    /// that already produces what a direct `solve` would: a Prepared shard
    /// (which runs `solve` itself), or the whole-workload OPQ shard of an
    /// `OpqBased` request (`solve_with` reproduces `solve` byte-identically
    /// — the core contract).
    fn wrap_of(shards: &[Shard], request: &EngineRequest) -> Option<&'static str> {
        let opq_shards = shards
            .first()
            .is_some_and(|s| matches!(s.work, ShardWork::Opq { .. }));
        (request.algorithm == Algorithm::OpqExtended && opq_shards)
            .then(|| plan_label(request.algorithm))
    }

    /// Splits a request into independent shards (see the crate docs): one
    /// OPQ shard for a homogeneous OPQ request, one per threshold bucket
    /// for a heterogeneous `OpqExtended` request, and one pass-through
    /// shard for everything else.
    fn shard(request: &EngineRequest) -> Vec<Shard> {
        let workload = &request.workload;
        let whole = |work| {
            vec![Shard {
                work,
                members: None,
            }]
        };
        match request.algorithm {
            // Custom solvers have unknown sharding semantics: run them whole.
            _ if request.solver_override.is_some() => whole(ShardWork::Prepared),
            Algorithm::OpqBased | Algorithm::OpqExtended if workload.is_homogeneous() => {
                whole(ShardWork::Opq {
                    n: workload.len(),
                    threshold: workload.threshold(0),
                })
            }
            Algorithm::OpqExtended => hetero::partition(workload)
                .into_iter()
                .map(|bucket| Shard {
                    work: ShardWork::Opq {
                        n: bucket.members.len() as u32,
                        threshold: bucket.confidence,
                    },
                    members: Some(Arc::new(bucket.members)),
                })
                .collect(),
            // Every other algorithm, and OpqBased on a heterogeneous
            // workload, whose solver reports HeterogeneousUnsupported
            // through the normal result path.
            _ => whole(ShardWork::Prepared),
        }
    }

    /// Builds the closure one worker will run for `work`: the per-kind
    /// inputs are captured here, and [`shard_job`] wraps the plan they
    /// produce in the one job body every shard shares.
    fn make_job(
        &self,
        index: usize,
        work: ShardWork,
        request: &EngineRequest,
        result_tx: Sender<ShardResult>,
        notify: Option<ShardNotify>,
    ) -> Job {
        let bins = Arc::clone(&request.bins);
        let trace = request.trace.clone();
        match work {
            ShardWork::Opq { n, threshold } => {
                let solver = self.config.solver.clone();
                let cache = Arc::clone(&self.cache);
                shard_job(index, trace, result_tx, notify, move || {
                    let theta = reliability::theta(threshold);
                    let key = Fingerprint::new(Arc::clone(&bins), theta, &solver);
                    let artifacts =
                        cache.get_or_try_insert_with(key, || solver.prepare(&bins, theta))?;
                    let workload = Workload::homogeneous(n, threshold)?;
                    Ok(solver.solve_with(artifacts.as_ref(), &workload, &bins)?)
                })
            }
            ShardWork::Prepared => {
                let algorithm = request.algorithm;
                let workload = request.workload.clone();
                let seed = request.seed;
                let solver_override = request.solver_override.clone();
                shard_job(index, trace, result_tx, notify, move || {
                    let solver: Arc<dyn PreparedSolver + Send + Sync> = match solver_override {
                        Some(solver) => solver,
                        // The one randomized solver takes the request's
                        // seed.
                        None => match algorithm {
                            Algorithm::Baseline => Arc::new(Baseline {
                                config: BaselineConfig {
                                    seed,
                                    ..BaselineConfig::default()
                                },
                            }),
                            other => Arc::from(other.solver()),
                        },
                    };
                    Ok(solver.solve(&workload, &bins)?)
                })
            }
        }
    }
}

/// The one body of every shard job: stamps the shard's start and finish
/// on the request's trace, runs `plan` unwind-safe (a panicking solver
/// becomes an [`EngineError::WorkerPanicked`] result, never a wedged
/// handle), sends the result, then runs the optional `notify` — so by the
/// time a notification is observed the result is ready to `try_recv`.
/// `plan` is a generic capture of the job's one box, not a second one.
fn shard_job(
    index: usize,
    trace: Option<RequestTrace>,
    result_tx: Sender<ShardResult>,
    notify: Option<ShardNotify>,
    plan: impl FnOnce() -> Result<DecompositionPlan, EngineError> + Send + 'static,
) -> Job {
    Box::new(move |ctx: JobCtx| {
        if let Some(trace) = &trace {
            trace.record_shard("shard_start", index, ctx.worker, ctx.stolen);
        }
        let result = guard_panics(AssertUnwindSafe(plan));
        // Stamp the finish before the send: whoever observes the result
        // (and therefore "merged") sees it after this.
        if let Some(trace) = &trace {
            trace.record_shard("shard_finish", index, ctx.worker, ctx.stolen);
        }
        let _ = result_tx.send((index, result));
        if let Some(notify) = &notify {
            notify();
        }
    })
}

/// Runs `work`, converting an unwind into [`EngineError::WorkerPanicked`].
fn guard_panics(
    work: AssertUnwindSafe<impl FnOnce() -> Result<DecompositionPlan, EngineError>>,
) -> Result<DecompositionPlan, EngineError> {
    match catch_unwind(work) {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(EngineError::WorkerPanicked { message })
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(sched: &Scheduler, worker: usize) {
    // Jobs guard their own unwinds (guard_panics), but a panic anywhere
    // else in a job closure must still not take the worker down: swallow
    // the unwind and move to the next job. `None` means the scheduler shut
    // down and every queued job has been claimed.
    while let Some((job, stolen)) = sched.next_job(worker) {
        let ctx = JobCtx { worker, stolen };
        drop(catch_unwind(AssertUnwindSafe(move || job(ctx))));
    }
}

// The engine is shared across threads by services built on top of it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<EngineRequest>();
    assert_send_sync::<ArtifactCache>();
    assert_send_sync::<ResolvedPlan>();
    assert_send_sync::<WorkloadDelta>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_bins() -> Arc<BinSet> {
        Arc::new(BinSet::paper_example())
    }

    /// Submits every request in order, keeping the handles in order.
    fn submit_all(
        engine: &Engine,
        requests: impl IntoIterator<Item = EngineRequest>,
    ) -> Vec<ResolvedHandle> {
        requests
            .into_iter()
            .map(|request| engine.submit(request, Submit::default()))
            .collect()
    }

    #[test]
    fn example9_through_the_engine() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let request = EngineRequest::new(
            Algorithm::OpqBased,
            Workload::homogeneous(4, 0.95).unwrap(),
            paper_bins(),
        );
        let plan = engine.solve(request).unwrap();
        assert!((plan.total_cost() - 0.68).abs() < 1e-9);
    }

    #[test]
    fn engine_plan_equals_direct_solve_for_unsharded_requests() {
        let engine = Engine::new(EngineConfig {
            threads: 3,
            ..EngineConfig::default()
        });
        let bins = paper_bins();
        for n in [1u32, 100, 2_000, 5_000] {
            let workload = Workload::homogeneous(n, 0.95).unwrap();
            for algorithm in [Algorithm::OpqBased, Algorithm::OpqExtended] {
                let direct = algorithm.solve(&workload, &bins).unwrap();
                let request = EngineRequest::new(algorithm, workload.clone(), Arc::clone(&bins));
                let resolved = engine.solve_resolved(request).unwrap();
                // A homogeneous request is one OPQ shard, at any size.
                assert_eq!(resolved.shards(), 1, "{algorithm} n = {n}");
                assert_eq!(*resolved.plan(), direct, "{algorithm} n = {n}");
            }
        }
    }

    #[test]
    fn hetero_requests_shard_across_buckets_and_stay_feasible() {
        let engine = Engine::new(EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        });
        let bins = paper_bins();
        let workload =
            Workload::heterogeneous(vec![0.3, 0.55, 0.72, 0.9, 0.95, 0.11, 0.64]).unwrap();
        let request =
            EngineRequest::new(Algorithm::OpqExtended, workload.clone(), Arc::clone(&bins));
        let plan = engine.solve(request).unwrap();
        let audit = plan.validate(&workload, &bins).unwrap();
        assert!(audit.feasible, "unsatisfied: {:?}", audit.unsatisfied);
        // The whole plan — bins, assignment, label — equals the sequential
        // solver's (same buckets in the same order, same sub-solves).
        let direct = Algorithm::OpqExtended.solve(&workload, &bins).unwrap();
        assert_eq!(plan, direct);
    }

    #[test]
    fn engine_plans_carry_the_requested_algorithm_label() {
        let engine = Engine::new(EngineConfig::default());
        let bins = paper_bins();
        // Homogeneous OpqExtended: one OPQ shard internally, but the result
        // must still read (and compare) as the requested algorithm's plan.
        let workload = Workload::homogeneous(4, 0.95).unwrap();
        let request =
            EngineRequest::new(Algorithm::OpqExtended, workload.clone(), Arc::clone(&bins));
        let plan = engine.solve(request).unwrap();
        assert_eq!(plan.algorithm(), "OpqExtended");
        let direct = Algorithm::OpqExtended.solve(&workload, &bins).unwrap();
        assert_eq!(plan, direct);
    }

    #[test]
    fn opq_based_heterogeneous_error_propagates() {
        let engine = Engine::new(EngineConfig::default());
        let request = EngineRequest::new(
            Algorithm::OpqBased,
            Workload::heterogeneous(vec![0.5, 0.9]).unwrap(),
            paper_bins(),
        );
        assert_eq!(
            engine.solve(request),
            Err(EngineError::Solve(SladeError::HeterogeneousUnsupported {
                solver: "OpqBased"
            }))
        );
    }

    #[test]
    fn tiny_queue_exerts_backpressure_without_deadlock() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            queue_capacity: 1,
            ..EngineConfig::default()
        });
        let bins = paper_bins();
        let handles = submit_all(
            &engine,
            (0..32).map(|i| {
                EngineRequest::new(
                    Algorithm::OpqBased,
                    Workload::homogeneous(10 + i, 0.95).unwrap(),
                    Arc::clone(&bins),
                )
            }),
        );
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
    }

    #[test]
    fn per_request_seeds_reach_the_baseline() {
        let engine = Engine::new(EngineConfig::default());
        let bins = paper_bins();
        let workload = Workload::homogeneous(40, 0.95).unwrap();
        let plan_a = engine
            .solve(
                EngineRequest::new(Algorithm::Baseline, workload.clone(), bins.clone())
                    .with_seed(7),
            )
            .unwrap();
        let plan_a_again = engine
            .solve(
                EngineRequest::new(Algorithm::Baseline, workload.clone(), bins.clone())
                    .with_seed(7),
            )
            .unwrap();
        assert_eq!(plan_a, plan_a_again);
        assert!(plan_a.validate(&workload, &bins).unwrap().feasible);
    }

    /// A solver that panics on solve: the fault-injection vehicle for the
    /// worker-panic tests.
    #[derive(Debug)]
    struct PanickingSolver;

    impl PreparedSolver for PanickingSolver {
        fn name(&self) -> &'static str {
            "Panicking"
        }

        fn solve(
            &self,
            _workload: &Workload,
            _bins: &BinSet,
        ) -> Result<DecompositionPlan, SladeError> {
            panic!("injected solver panic");
        }
    }

    #[test]
    fn solver_panics_surface_as_worker_panicked_not_a_hang() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let bins = paper_bins();
        let request = EngineRequest::new(
            Algorithm::Greedy,
            Workload::homogeneous(4, 0.95).unwrap(),
            Arc::clone(&bins),
        )
        .with_solver(Arc::new(PanickingSolver));
        match engine.solve(request) {
            Err(EngineError::WorkerPanicked { message }) => {
                assert!(message.contains("injected solver panic"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The worker survived the unwind and keeps serving real requests.
        let plan = engine
            .solve(EngineRequest::new(
                Algorithm::Greedy,
                Workload::homogeneous(4, 0.95).unwrap(),
                bins,
            ))
            .unwrap();
        assert_eq!(plan.algorithm(), "Greedy");
    }

    #[test]
    fn shutdown_drains_queued_jobs_then_rejects_new_requests() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            queue_capacity: 4,
            ..EngineConfig::default()
        });
        let bins = paper_bins();
        let handles = submit_all(
            &engine,
            (0..16).map(|i| {
                EngineRequest::new(
                    Algorithm::OpqBased,
                    Workload::homogeneous(10 + i, 0.95).unwrap(),
                    Arc::clone(&bins),
                )
            }),
        );
        assert!(!engine.is_shut_down());
        engine.shutdown();
        assert!(engine.is_shut_down());
        // Everything submitted before the shutdown still delivers: the drain
        // is deterministic, never lossy.
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
        // New work is rejected explicitly, by the handle and the blocking
        // conveniences alike.
        let request = EngineRequest::new(
            Algorithm::OpqBased,
            Workload::homogeneous(4, 0.95).unwrap(),
            Arc::clone(&bins),
        );
        assert_eq!(
            engine
                .submit(request.clone(), Submit::default())
                .wait()
                .map(ResolvedPlan::into_plan),
            Err(EngineError::ShutDown)
        );
        match engine.solve_resolved(request) {
            Err(EngineError::ShutDown) => {}
            other => panic!("expected ShutDown, got {other:?}"),
        }
        // Shutdown is idempotent.
        engine.shutdown();
    }

    /// A solver that blocks until released through a channel: the
    /// fault-injection vehicle for the timeout tests.
    #[derive(Debug)]
    struct BlockingSolver {
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl PreparedSolver for BlockingSolver {
        fn name(&self) -> &'static str {
            "Blocking"
        }

        fn solve(
            &self,
            workload: &Workload,
            bins: &BinSet,
        ) -> Result<DecompositionPlan, SladeError> {
            let guard = self.release.lock().unwrap_or_else(|p| p.into_inner());
            // Bounded so a broken test cannot wedge the worker forever.
            let _ = guard.recv_timeout(Duration::from_secs(10));
            slade_core::greedy::Greedy.solve(workload, bins)
        }
    }

    #[test]
    fn try_wait_surfaces_a_stuck_solve_without_wedging() {
        let engine = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let bins = paper_bins();
        let (release, blocked) = std::sync::mpsc::channel();
        let request = EngineRequest::new(
            Algorithm::Greedy,
            Workload::homogeneous(4, 0.95).unwrap(),
            Arc::clone(&bins),
        )
        .with_solver(Arc::new(BlockingSolver {
            release: Mutex::new(blocked),
        }));
        let mut handle = engine.submit(request, Submit::default());
        // While the solver is stuck, every poll comes back empty-handed
        // and the caller's thread stays free.
        for _ in 0..4 {
            assert!(
                handle.try_wait().is_none(),
                "the stuck solve cannot deliver"
            );
            thread::sleep(Duration::from_millis(10));
        }
        // Release the stuck solver: the handle delivers, and the worker
        // survives to serve the next request.
        release.send(()).unwrap();
        assert_eq!(handle.wait().unwrap().into_plan().algorithm(), "Greedy");
        let plan = engine
            .submit(
                EngineRequest::new(
                    Algorithm::Greedy,
                    Workload::homogeneous(4, 0.95).unwrap(),
                    bins,
                ),
                Submit::default(),
            )
            .wait()
            .unwrap()
            .into_plan();
        assert_eq!(plan.algorithm(), "Greedy");
    }

    /// The two ways to wait on a [`ResolvedHandle`].
    #[derive(Debug, Clone, Copy)]
    enum WaitMode {
        Wait,
        /// `try_wait`, polled once per [`Submit::notify`] ping.
        TryWait,
    }

    /// Submits `request` (reusing `prior`'s shards) and collects the
    /// result under `mode`.
    fn run_mode(
        engine: &Engine,
        request: EngineRequest,
        prior: Option<&ResolvedPlan>,
        mode: WaitMode,
    ) -> Result<ResolvedPlan, EngineError> {
        let plain = Submit {
            prior,
            notify: None,
        };
        match mode {
            WaitMode::Wait => engine.submit(request, plain).wait(),
            WaitMode::TryWait => {
                let (notify, pings) = pinger();
                let options = Submit {
                    prior,
                    notify: Some(notify),
                };
                poll_on_pings(&mut engine.submit(request, options), &pings)
            }
        }
    }

    /// A [`ShardNotify`] and the channel its pings land on.
    fn pinger() -> (ShardNotify, std::sync::mpsc::Receiver<()>) {
        let (ping_tx, ping_rx) = std::sync::mpsc::channel::<()>();
        let notify: ShardNotify = Arc::new(move || {
            let _ = ping_tx.send(());
        });
        (notify, ping_rx)
    }

    /// Polls `handle` once per ping until it delivers, then checks that
    /// every queued shard pinged exactly once — no ping missing, and none
    /// extra within a grace period — and that the handle is spent.
    fn poll_on_pings(
        handle: &mut ResolvedHandle,
        pings: &std::sync::mpsc::Receiver<()>,
    ) -> Result<ResolvedPlan, EngineError> {
        let mut count = 0;
        let result = loop {
            if let Some(result) = handle.try_wait() {
                break result;
            }
            pings
                .recv_timeout(Duration::from_secs(20))
                .expect("a shard must notify");
            count += 1;
        };
        assert!(handle.try_wait().is_none(), "spent after delivering");
        if let Ok(resolved) = &result {
            // The last pings may still be on their way: a shard notifies
            // after its result is already receivable.
            let queued = resolved.shards() - resolved.reused_shards();
            while count < queued {
                pings
                    .recv_timeout(Duration::from_secs(20))
                    .expect("one notification per queued shard");
                count += 1;
            }
            assert_eq!(count, queued, "one notification per queued shard");
            assert!(
                pings.recv_timeout(Duration::from_millis(50)).is_err(),
                "a shard notified more than once"
            );
        }
        result
    }

    /// The requests every wait mode is checked on: a cold solve, a
    /// sharded hetero solve (five thresholds in four buckets, so wrapped)
    /// and a resubmission of the cold solve resized by `RESUBMIT_DELTA`.
    fn wait_table_requests(bins: &Arc<BinSet>) -> (EngineRequest, EngineRequest) {
        let cold = EngineRequest::new(
            Algorithm::OpqBased,
            Workload::homogeneous(40, 0.95).unwrap(),
            Arc::clone(bins),
        );
        let hetero = EngineRequest::new(
            Algorithm::OpqExtended,
            Workload::heterogeneous(vec![0.95, 0.72, 0.3, 0.11, 0.55]).unwrap(),
            Arc::clone(bins),
        );
        (cold, hetero)
    }

    const RESUBMIT_DELTA: WorkloadDelta = WorkloadDelta::Resize(60);

    /// The wait-mode table: every request kind under every mode in `modes`
    /// on 1 and 4 threads must deliver byte-identical results. Returns the
    /// `(plan, shards, reused_shards)` of each kind — cold solve, hetero
    /// solve, resubmit — in that order.
    fn assert_wait_modes_agree(modes: &[WaitMode]) -> Vec<(DecompositionPlan, usize, usize)> {
        let bins = paper_bins();
        let (cold, hetero) = wait_table_requests(&bins);
        let mut reference: Vec<(DecompositionPlan, usize, usize)> = Vec::new();
        for threads in [1, 4] {
            let engine = Engine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            let prior = engine.solve_resolved(cold.clone()).unwrap();
            let resubmission = prior.resubmission(&RESUBMIT_DELTA).unwrap();
            let kinds = [
                ("cold solve", cold.clone(), None),
                ("hetero solve", hetero.clone(), None),
                ("resubmit", resubmission, Some(&prior)),
            ];
            for (k, (kind, request, prior)) in kinds.into_iter().enumerate() {
                for &mode in modes {
                    let resolved = run_mode(&engine, request.clone(), prior, mode)
                        .unwrap_or_else(|e| panic!("{kind} {mode:?} at {threads}: {e}"));
                    let got = (
                        resolved.plan().clone(),
                        resolved.shards(),
                        resolved.reused_shards(),
                    );
                    if reference.len() == k {
                        reference.push(got);
                    } else {
                        assert_eq!(got, reference[k], "{kind} {mode:?} at {threads} threads");
                    }
                }
            }
        }
        reference
    }

    #[test]
    fn blocking_waits_agree_across_thread_counts_and_match_the_direct_solver() {
        // Every request kind waits out identically on 1 and 4 threads, and
        // the sharded solve equals the sequential solver's.
        let reference = assert_wait_modes_agree(&[WaitMode::Wait]);
        let bins = paper_bins();
        let (_, hetero) = wait_table_requests(&bins);
        let direct_hetero = Algorithm::OpqExtended
            .solve(&hetero.workload, &bins)
            .unwrap();
        assert_eq!(reference[1].0, direct_hetero);
        assert!(reference[1].1 > 1, "the hetero request must shard");
    }

    #[test]
    fn try_wait_completes_without_blocking_and_matches_wait() {
        // The polling mode also checks one ping per queued shard and that
        // the handle is spent after delivering.
        assert_wait_modes_agree(&[WaitMode::Wait, WaitMode::TryWait]);
    }

    #[test]
    fn submit_resolved_and_resubmit_submit_match_their_blocking_twins() {
        let reference = assert_wait_modes_agree(&[WaitMode::Wait, WaitMode::TryWait]);
        // The resubmission equals a cold solve of the resized workload.
        let bins = paper_bins();
        let resized = Workload::homogeneous(60, 0.95).unwrap();
        let direct_resized = OpqBased::default().solve(&resized, &bins).unwrap();
        assert_eq!(reference[2].0, direct_resized);

        // An invalid delta fails when the request is built, before anything
        // queues.
        let engine = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let (_, hetero) = wait_table_requests(&bins);
        let hetero_prior = engine.solve_resolved(hetero).unwrap();
        assert!(matches!(
            hetero_prior.resubmission(&WorkloadDelta::Resize(10)),
            Err(EngineError::Solve(_))
        ));
    }

    #[test]
    fn shard_notify_and_try_wait_agree_when_shards_are_stolen() {
        // Four buckets queued behind two pinned workers; once one gate
        // opens, its worker drains one deque and steals from the other, and
        // the polled result is still the sequential solver's.
        let bins = paper_bins();
        let pinned = Engine::new(EngineConfig {
            threads: 2,
            queue_capacity: 64,
            ..EngineConfig::default()
        });
        let (gated, releases) = gate_both_workers(&pinned, &bins);
        let workload = Workload::heterogeneous(vec![0.95, 0.72, 0.3, 0.11]).unwrap();
        let direct = Algorithm::OpqExtended.solve(&workload, &bins).unwrap();
        let (notify, pings) = pinger();
        let options = Submit {
            prior: None,
            notify: Some(notify),
        };
        let request = EngineRequest::new(Algorithm::OpqExtended, workload, Arc::clone(&bins));
        let mut handle = pinned.submit(request, options);
        assert!(handle.try_wait().is_none(), "nothing can be done yet");
        let _ = releases[0].send(());
        let stolen = poll_on_pings(&mut handle, &pings).unwrap();
        assert_eq!(*stolen.plan(), direct, "stolen shards changed the plan");
        let _ = releases[1].send(());
        for handle in gated {
            assert!(handle.wait().is_ok());
        }
    }

    #[test]
    fn handles_surface_shutdown_through_try_wait() {
        // A shut-down engine surfaces ShutDown through every mode (the
        // polling mode also checks the handle is spent afterwards).
        let engine = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let (cold, _) = wait_table_requests(&paper_bins());
        engine.shutdown();
        for mode in [WaitMode::Wait, WaitMode::TryWait] {
            match run_mode(&engine, cold.clone(), None, mode) {
                Err(EngineError::ShutDown) => {}
                other => panic!("{mode:?}: expected ShutDown, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn a_prior_donates_shards_only_to_requests_it_could_have_produced() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let request = EngineRequest::new(
            Algorithm::Greedy,
            Workload::homogeneous(9, 0.9).unwrap(),
            paper_bins(),
        );
        let prior = engine.solve_resolved(request.clone()).unwrap();
        let with_prior = |request: EngineRequest| {
            let options = Submit {
                prior: Some(&prior),
                notify: None,
            };
            engine.submit(request, options).wait().unwrap()
        };
        // The unchanged request reuses its one pass-through shard...
        assert_eq!(with_prior(request.clone()).reused_shards(), 1);
        // ...but a solver override or another seed recomputes it.
        let overridden = request
            .clone()
            .with_solver(Arc::new(slade_core::greedy::Greedy));
        assert_eq!(with_prior(overridden).reused_shards(), 0);
        assert_eq!(with_prior(request.with_seed(1)).reused_shards(), 0);
    }

    #[test]
    fn shard_notify_fires_once_per_shard_after_the_result_is_ready() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let bins = paper_bins();
        // Four well-separated thresholds = four threshold-bucket shards.
        let workload = Workload::heterogeneous(vec![0.95, 0.72, 0.3, 0.11]).unwrap();
        let request = EngineRequest::new(Algorithm::OpqExtended, workload, Arc::clone(&bins));
        let (notify, ping_rx) = pinger();
        let options = Submit {
            prior: None,
            notify: Some(notify),
        };
        let mut handle = engine.submit(request, options);
        // The last shards notify after sending their result, so the result
        // can be drained before their pings land: the helper waits for all
        // of them, then checks exactly one per shard.
        let resolved = poll_on_pings(&mut handle, &ping_rx).unwrap();
        assert_eq!(resolved.shards(), 4, "one shard per threshold bucket");
        assert_eq!(resolved.reused_shards(), 0);
    }

    #[test]
    fn delta_apply_validates_and_rewrites_workloads() {
        let homo = Workload::homogeneous(10, 0.9).unwrap();
        let grown = WorkloadDelta::Resize(25).apply(&homo).unwrap();
        assert_eq!(grown.len(), 25);
        assert!(grown.is_homogeneous());

        let hetero = Workload::heterogeneous(vec![0.5, 0.9, 0.7]).unwrap();
        let shrunk = WorkloadDelta::Resize(2).apply(&hetero).unwrap();
        assert_eq!(shrunk.len(), 2);
        assert!(WorkloadDelta::Resize(5).apply(&hetero).is_err());

        let retargeted = WorkloadDelta::SetThresholds(vec![(0, 0.9), (2, 0.9)])
            .apply(&hetero)
            .unwrap();
        assert!(retargeted.is_homogeneous(), "all thresholds now 0.9");
        assert!(WorkloadDelta::SetThresholds(vec![(9, 0.5)])
            .apply(&hetero)
            .is_err());

        let appended = WorkloadDelta::Append(vec![0.6, 0.65]).apply(&homo).unwrap();
        assert_eq!(appended.len(), 12);
        assert_eq!(appended.threshold(11), 0.65);
        assert!(WorkloadDelta::SetThresholds(vec![(0, 1.5)])
            .apply(&homo)
            .is_err());
    }

    /// A solver that announces entry and then blocks until released: lets a
    /// test pin down *both* workers so queued jobs pile up in the deques.
    #[derive(Debug)]
    struct GatedSolver {
        started: std::sync::mpsc::Sender<()>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl PreparedSolver for GatedSolver {
        fn name(&self) -> &'static str {
            "Gated"
        }

        fn solve(
            &self,
            workload: &Workload,
            bins: &BinSet,
        ) -> Result<DecompositionPlan, SladeError> {
            let _ = self.started.send(());
            let guard = self.release.lock().unwrap_or_else(|p| p.into_inner());
            // Bounded so a broken test cannot wedge the worker forever.
            let _ = guard.recv_timeout(Duration::from_secs(10));
            slade_core::greedy::Greedy.solve(workload, bins)
        }
    }

    /// Pins both workers of a two-thread engine behind gates; returns the
    /// blocked handles and the senders that release them.
    fn gate_both_workers(
        engine: &Engine,
        bins: &Arc<BinSet>,
    ) -> (Vec<ResolvedHandle>, Vec<std::sync::mpsc::Sender<()>>) {
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let mut gated = Vec::new();
        let mut releases = Vec::new();
        for _ in 0..2 {
            let (release_tx, release_rx) = std::sync::mpsc::channel();
            releases.push(release_tx);
            let request = EngineRequest::new(
                Algorithm::Greedy,
                Workload::homogeneous(4, 0.95).unwrap(),
                Arc::clone(bins),
            )
            .with_solver(Arc::new(GatedSolver {
                started: started_tx.clone(),
                release: Mutex::new(release_rx),
            }));
            gated.push(engine.submit(request, Submit::default()));
        }
        for _ in 0..2 {
            started_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("both workers must pick up their gate");
        }
        (gated, releases)
    }

    /// A heterogeneous workload of `n` tasks cycling over four
    /// well-separated thresholds, so it buckets into four shards.
    fn four_bucket_workload(n: u32) -> Workload {
        const LEVELS: [f64; 4] = [0.95, 0.72, 0.3, 0.11];
        Workload::heterogeneous((0..n).map(|i| LEVELS[i as usize % 4]).collect()).unwrap()
    }

    #[test]
    fn shutdown_while_jobs_are_queued_for_stealing_drains_deterministically() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            queue_capacity: 64,
            ..EngineConfig::default()
        });
        let bins = paper_bins();
        let (gated, releases) = gate_both_workers(&engine, &bins);

        // With both workers pinned, these multi-bucket requests sit in the
        // deques — some in the pinned workers' own deques, reachable only
        // by stealing once a worker frees up.
        let queued = submit_all(
            &engine,
            (0..4).map(|i| {
                EngineRequest::new(
                    Algorithm::OpqExtended,
                    four_bucket_workload(20 + 8 * i),
                    Arc::clone(&bins),
                )
            }),
        );
        engine.shutdown();
        assert!(engine.is_shut_down());
        for release in &releases {
            let _ = release.send(());
        }

        // Everything admitted before the shutdown still delivers, and the
        // drained plans match a fresh single-thread engine's solves.
        for handle in gated {
            assert!(handle.wait().is_ok());
        }
        let reference = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        for (i, handle) in queued.into_iter().enumerate() {
            let drained = handle.wait().expect("queued jobs drain, never drop");
            assert_eq!(drained.shards(), 4, "request {i} buckets");
            let cold = reference
                .solve(EngineRequest::new(
                    Algorithm::OpqExtended,
                    four_bucket_workload(20 + 8 * i as u32),
                    Arc::clone(&bins),
                ))
                .unwrap();
            assert_eq!(
                *drained.plan(),
                cold,
                "request {i} diverged during the drain"
            );
        }
        let late = EngineRequest::new(
            Algorithm::OpqBased,
            Workload::homogeneous(4, 0.95).unwrap(),
            bins,
        );
        assert_eq!(
            engine
                .submit(late, Submit::default())
                .wait()
                .map(ResolvedPlan::into_plan),
            Err(EngineError::ShutDown)
        );
    }

    #[test]
    fn a_panicking_job_is_caught_even_when_stolen() {
        // Whether the panicking job is stolen or own-popped depends on which
        // pinned worker frees first, so run several rounds: every round must
        // surface WorkerPanicked and keep the pool alive, and across the
        // rounds at least one job must actually have been stolen.
        let bins = paper_bins();
        let mut total_steals = 0u64;
        for round in 0..20 {
            let engine = Engine::new(EngineConfig {
                threads: 2,
                queue_capacity: 16,
                ..EngineConfig::default()
            });
            let (gated, releases) = gate_both_workers(&engine, &bins);
            let doomed = engine.submit(
                EngineRequest::new(
                    Algorithm::Greedy,
                    Workload::homogeneous(4, 0.95).unwrap(),
                    Arc::clone(&bins),
                )
                .with_solver(Arc::new(PanickingSolver)),
                Submit::default(),
            );
            // Alternate which gate opens first so both the own-pop and the
            // steal path run the panicking job across the rounds.
            let _ = releases[round % 2].send(());
            match doomed.wait().map(ResolvedPlan::into_plan) {
                Err(EngineError::WorkerPanicked { message }) => {
                    assert!(message.contains("injected solver panic"), "{message}");
                }
                other => panic!("round {round}: expected WorkerPanicked, got {other:?}"),
            }
            let _ = releases[(round + 1) % 2].send(());
            for handle in gated {
                assert!(handle.wait().is_ok());
            }
            // The worker that ran the panic survived the unwind.
            let plan = engine
                .solve(EngineRequest::new(
                    Algorithm::Greedy,
                    Workload::homogeneous(4, 0.95).unwrap(),
                    Arc::clone(&bins),
                ))
                .unwrap();
            assert_eq!(plan.algorithm(), "Greedy");
            total_steals += engine.steals();
        }
        assert!(
            total_steals > 0,
            "20 rounds with pinned workers never stole a job"
        );
    }
}
