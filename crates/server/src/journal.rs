//! The durable plan journal: an append-only JSONL log of plan-store
//! mutations, replayed at boot so retained plans survive a server crash.
//!
//! ## Record grammar
//!
//! One JSON object per line, identified by its `record` member:
//!
//! ```text
//! {"record":"land","id":"<plan id>","plan":{<codec v1 object>}}
//! ```
//!
//! `land` is written together with the store update that lands the plan
//! (re-lands under the same id overwrite — last record wins on replay).
//! Journals written by older builds may also hold
//! `{"record":"release","id":"<plan id>"}` audit lines, written after an
//! explicit lease release; replay still accepts and skips them (compaction
//! then drops them), but nothing writes them any more. Any other record
//! kind is corrupt and ends replay. Leases and claims are deliberately
//! **not** journaled: they are session-scoped, a restart has no sessions,
//! and so replayed plans are always unleased.
//!
//! ## Torn-tail rule
//!
//! The writer appends whole lines but a crash (SIGKILL, power loss) can
//! leave a torn final record. The replayer is tolerant exactly once: it
//! applies records in order and stops at the **first** line that fails to
//! parse or decode — everything after a corrupt record is untrusted, even
//! if later lines happen to parse, because a single-writer append-only log
//! only corrupts at the tail. Decoding includes [`codec::decode`]'s audits
//! of the merged plan and of every sub-plan against its own shard, so a
//! record that would later make a resubmission splice in a foreign task id
//! fails here, at replay. Replay never panics on arbitrary bytes, and
//! every plan it recovers can be resubmitted (the journal fuzz suite
//! byte-flips and truncates real journals, then resubmits each recovered
//! plan, to pin this).
//!
//! A live writer keeps the tail-only property itself. An append that fails
//! (ENOSPC, EIO) may have written part of its record, and a later append
//! would land behind that torn line, where replay never reaches it. So
//! after a failed append (or a failed compaction, which may have swapped
//! the file out from under the handle) the journal stops appending: the
//! next `land` rewrites the file from the store by compaction
//! instead, under the same file mutex (the store already holds the plan
//! being landed, and compaction reopens the append handle). Appends resume
//! only once a compaction succeeds.
//!
//! ## Lock order and record order
//!
//! The journal's file mutex is taken **before** the plan store's lock,
//! never after. A landing plan is stored *and* appended under the file
//! mutex ([`Journal::land`]), so the order of `land` records for an id is
//! the order in which the store accepted its versions: a pipelined
//! resubmit that starts the moment the previous version lands cannot get
//! its record in ahead of that version's. Records are rendered before the
//! mutex is taken (streamed straight from the plan by
//! [`codec::encode_into`], with no intermediate JSON tree), so the
//! critical section is one store update and one `write(2)`.
//!
//! ## Compaction atomicity
//!
//! Compaction rewrites the retained plans as fresh `land` records into
//! `<path>.tmp`, fsyncs, then atomically renames over the journal — a
//! crash during compaction leaves either the old complete journal or the
//! new complete journal, never a mix. The store snapshot is taken under
//! the file mutex, so no land can slip between the snapshot and the swap:
//! every land is either in the snapshot or appended to the new file. It
//! runs at every boot (which also truncates any torn tail before new
//! appends could land behind it), after a failed append (above), and
//! automatically every [`COMPACT_EVERY`] appended records, on the request
//! path of whichever request makes that append. Each compaction's
//! duration is recorded in the `journal.compact_us` histogram.

use slade_engine::{codec, FinishOutcome, PlanStore, ResolvedPlan, SessionId};
use slade_json::{parse, write_string, Json};
use slade_obs::WindowedHistogram;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Appends between automatic compactions. Small enough that the journal
/// stays within a couple hundred records of the live plan count, large
/// enough that compaction cost (a full snapshot rewrite) stays rare.
pub(crate) const COMPACT_EVERY: u64 = 256;

/// Compaction flushes its rendered records to the temp file whenever this
/// many bytes have accumulated, bounding its buffer independently of the
/// number of retained plans.
const COMPACT_FLUSH: usize = 64 * 1024;

/// An open journal; see the module docs for the format and guarantees.
pub(crate) struct Journal {
    path: PathBuf,
    /// The append handle. The mutex also orders store updates with their
    /// appends and serializes compaction's snapshot-rewrite-and-swap
    /// against both (see the module docs for the lock order).
    file: Mutex<File>,
    /// Records currently in the file (surviving replay + appended since).
    records: AtomicU64,
    /// Records recovered by the boot-time replay.
    replayed: AtomicU64,
    /// Appends or compactions that failed with an I/O error — plans landed
    /// after a nonzero value here may not be durable (health degrades).
    append_errors: AtomicU64,
    /// Completed compactions (the boot-time one included).
    compactions: AtomicU64,
    /// Appends since the last compaction, driving [`COMPACT_EVERY`].
    since_compact: AtomicU64,
    /// Set (under the file mutex) when an append or a compaction fails,
    /// cleared when a compaction succeeds: while set, the file may end in a
    /// torn record, so lands compact instead of appending behind it.
    torn: AtomicBool,
    /// The duration of every successful compaction, in microseconds.
    compact_us: Arc<WindowedHistogram>,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`: replays every
    /// valid record into `store` — stopping at the first torn or corrupt
    /// line — then compacts, so the file holds exactly the recovered plans
    /// before any new record is appended. Compaction durations go to
    /// `compact_us`.
    pub(crate) fn open(
        path: PathBuf,
        store: &PlanStore,
        compact_us: Arc<WindowedHistogram>,
    ) -> io::Result<Journal> {
        let mut replayed: u64 = 0;
        if path.exists() {
            for (id, plan) in replay(&std::fs::read(&path)?, &mut replayed) {
                store.restore(&id, plan);
            }
        }
        let journal = Journal {
            file: Mutex::new(OpenOptions::new().create(true).append(true).open(&path)?),
            path,
            records: AtomicU64::new(0),
            replayed: AtomicU64::new(replayed),
            append_errors: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            since_compact: AtomicU64::new(0),
            torn: AtomicBool::new(false),
            compact_us,
        };
        journal.compact(store)?;
        Ok(journal)
    }

    /// Completes `session`'s production of `id` in `store` with `plan` and
    /// journals the result, compacting if the append budget is spent. The
    /// store update and the append happen under the file mutex, so records
    /// for an id are appended in the order the store accepted them; a
    /// [`FinishOutcome::Discarded`] plan is never journaled. I/O errors are
    /// counted, never raised: the plan is already live in memory and the
    /// client already paid for it — degraded durability is a health
    /// signal, not a request failure.
    pub(crate) fn land(
        &self,
        store: &PlanStore,
        session: SessionId,
        id: &str,
        plan: Arc<ResolvedPlan>,
    ) -> FinishOutcome {
        let mut line = String::new();
        render_land(id, &plan, &mut line);
        let file = self.lock();
        let outcome = store.finish(session, id, Some(plan));
        if outcome != FinishOutcome::Discarded {
            self.append(file, store, &line);
        }
        outcome
    }

    /// Appends `line` under the held file mutex — or, when an earlier
    /// append failed and may have left a torn record, rewrites the file
    /// from `store` instead (see the module docs). A failed append is
    /// counted and marks the file torn; a success counts toward the record
    /// total and compacts, after the mutex is released, when the
    /// [`COMPACT_EVERY`] budget is spent.
    fn append(&self, mut file: MutexGuard<'_, File>, store: &PlanStore, line: &str) {
        if self.torn.load(Ordering::Relaxed) {
            if self.rewrite(&mut file, store).is_err() {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        if file.write_all(line.as_bytes()).is_err() {
            self.torn.store(true, Ordering::Relaxed);
            self.append_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        drop(file);
        self.records.fetch_add(1, Ordering::Relaxed);
        if self.since_compact.fetch_add(1, Ordering::Relaxed) + 1 >= COMPACT_EVERY
            && self.compact(store).is_err()
        {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Rewrites the journal to exactly the store's retained plans:
    /// snapshot → write `<path>.tmp` → fsync → rename → swap the append
    /// handle, all under the file mutex — so the swap is atomic with
    /// respect to concurrent appends, and no land can fall between the
    /// snapshot and the swap.
    pub(crate) fn compact(&self, store: &PlanStore) -> io::Result<()> {
        self.rewrite(&mut self.lock(), store)
    }

    /// [`Journal::compact`]'s work, under the already-held file mutex. The
    /// file counts as torn until the rewrite succeeds: a failure after the
    /// rename would leave the handle on the replaced file.
    fn rewrite(&self, file: &mut File, store: &PlanStore) -> io::Result<()> {
        let started = Instant::now();
        self.torn.store(true, Ordering::Relaxed);
        let snapshot = store.snapshot_plans();
        let mut tmp_path = self.path.clone().into_os_string();
        tmp_path.push(".tmp");
        let tmp_path = PathBuf::from(tmp_path);
        {
            let mut tmp = File::create(&tmp_path)?;
            let mut buf = String::with_capacity(COMPACT_FLUSH);
            for (id, plan) in &snapshot {
                render_land(id, plan, &mut buf);
                if buf.len() >= COMPACT_FLUSH {
                    tmp.write_all(buf.as_bytes())?;
                    buf.clear();
                }
            }
            tmp.write_all(buf.as_bytes())?;
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        *file = OpenOptions::new().append(true).open(&self.path)?;
        self.records.store(snapshot.len() as u64, Ordering::Relaxed);
        self.since_compact.store(0, Ordering::Relaxed);
        self.torn.store(false, Ordering::Relaxed);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.compact_us
            .record(started.elapsed().as_micros().try_into().unwrap_or(u64::MAX));
        Ok(())
    }

    fn lock(&self) -> MutexGuard<'_, File> {
        self.file
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Records currently in the file.
    pub(crate) fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Records recovered by the boot-time replay.
    pub(crate) fn replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Failed appends/compactions since boot (durability at risk when > 0).
    pub(crate) fn append_errors(&self) -> u64 {
        self.append_errors.load(Ordering::Relaxed)
    }

    /// Completed compactions since boot.
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }
}

/// Appends the `land` record for `id`'s `plan`, newline included: the
/// envelope around [`codec::encode_into`]'s bytes, streamed with no JSON
/// tree.
fn render_land(id: &str, plan: &ResolvedPlan, out: &mut String) {
    out.push_str("{\"record\":\"land\",\"id\":");
    write_string(id, out);
    out.push_str(",\"plan\":");
    codec::encode_into(plan, out);
    out.push_str("}\n");
}

/// Applies the journal bytes record by record, last-wins per id, stopping
/// at the first torn or corrupt line (see the torn-tail rule in the module
/// docs). Returns the surviving plans in first-seen order and counts the
/// applied records into `replayed`. Total over arbitrary bytes.
fn replay(bytes: &[u8], replayed: &mut u64) -> Vec<(String, Arc<ResolvedPlan>)> {
    let mut order: Vec<String> = Vec::new();
    let mut plans: std::collections::HashMap<String, Arc<ResolvedPlan>> =
        std::collections::HashMap::new();
    for line in bytes.split(|&b| b == b'\n') {
        if line.is_empty() {
            // The final newline leaves one empty tail element — normal end
            // of file. A blank line anywhere else is malformed, and the
            // torn-tail rule stops at the first malformed line either way.
            break;
        }
        let Some(record) = std::str::from_utf8(line)
            .ok()
            .and_then(|text| parse(text).ok())
        else {
            break;
        };
        let (Some(kind), Some(id)) = (
            record.get("record").and_then(Json::as_str),
            record.get("id").and_then(Json::as_str),
        ) else {
            break;
        };
        match kind {
            "land" => {
                let Some(plan) = record.get("plan").and_then(|p| codec::decode(p).ok()) else {
                    break;
                };
                if plans.insert(id.to_string(), Arc::new(plan)).is_none() {
                    order.push(id.to_string());
                }
            }
            // Audit lines of older builds: accepted and skipped.
            "release" => {}
            _ => break,
        }
        *replayed += 1;
    }
    order
        .into_iter()
        .filter_map(|id| {
            let plan = plans.remove(&id)?;
            Some((id, plan))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slade_core::prelude::*;
    use slade_engine::{Engine, EngineConfig, EngineRequest, StoreError};
    use slade_json::member;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicUsize;
    use std::thread;
    use std::time::Duration;

    /// `algorithm` on `workload` and the paper's bin menu, resolved.
    fn resolve(algorithm: Algorithm, workload: Workload) -> Arc<ResolvedPlan> {
        let engine = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let request = EngineRequest::new(algorithm, workload, Arc::new(BinSet::paper_example()));
        Arc::new(engine.solve_resolved(request).unwrap())
    }

    /// A resolved homogeneous plan for `tasks` tasks.
    fn resolved(tasks: u32) -> Arc<ResolvedPlan> {
        resolve(
            Algorithm::OpqBased,
            Workload::homogeneous(tasks, 0.95).unwrap(),
        )
    }

    /// A resolved 2 000-task plan in five threshold buckets. Its record
    /// holds the five sub-plans besides the merged plan, which makes it
    /// large and slow to render — the lever the race tests use to widen
    /// the windows they probe.
    fn big() -> Arc<ResolvedPlan> {
        const LEVELS: [f64; 5] = [0.999, 0.95, 0.8, 0.5, 0.3];
        let thresholds = (0..2_000).map(|i| LEVELS[i % 5]).collect();
        resolve(
            Algorithm::OpqExtended,
            Workload::heterogeneous(thresholds).unwrap(),
        )
    }

    fn temp_journal(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "slade-journal-unit-{}-{name}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn open(path: &std::path::Path, store: &PlanStore) -> Journal {
        let compact_us = Arc::new(WindowedHistogram::new(Duration::from_secs(60)));
        Journal::open(path.to_path_buf(), store, compact_us).unwrap()
    }

    fn encoded(plans: Vec<(String, Arc<ResolvedPlan>)>) -> HashMap<String, String> {
        plans
            .into_iter()
            .map(|(id, plan)| (id, codec::encode(&plan).to_string()))
            .collect()
    }

    /// What a restart would recover from the journal file right now.
    fn recovered(path: &PathBuf) -> HashMap<String, String> {
        encoded(replay(&std::fs::read(path).unwrap(), &mut 0))
    }

    /// Produces `id` for `session` once the previous producer is done.
    fn begin(store: &PlanStore, session: SessionId, id: &str) {
        loop {
            match store.begin_produce(session, id, None) {
                Ok(()) => return,
                Err(StoreError::Pending { .. }) => thread::yield_now(),
                Err(e) => panic!("unexpected store error: {e}"),
            }
        }
    }

    fn land(journal: &Journal, store: &PlanStore, id: &str, plan: &Arc<ResolvedPlan>) {
        let outcome = journal.land(store, 1, id, Arc::clone(plan));
        assert_eq!(outcome, FinishOutcome::Applied);
    }

    /// Runs `work` while another thread compacts `journal` in a loop.
    fn with_compactions(journal: &Journal, store: &PlanStore, work: impl FnOnce() + Send) {
        let stop = AtomicBool::new(false);
        thread::scope(|scope| {
            let compactor = scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    journal.compact(store).unwrap();
                    // Let the landers at the lock between compactions.
                    thread::sleep(std::time::Duration::from_millis(1));
                }
            });
            work();
            stop.store(true, Ordering::Relaxed);
            compactor.join().unwrap();
        });
    }

    #[test]
    fn chained_lands_replay_to_the_store_under_forced_compaction() {
        // Per id, a large version lands and a small one chains right behind
        // it, the shape of a pipelined resubmit that starts the moment the
        // previous version lands, with compactions forced in between. The
        // small record renders far faster than the large one, so if the
        // store update and the append were not one step the small record
        // would be appended first and replay would resurrect the large one.
        const IDS: usize = 24;
        let path = temp_journal("chained");
        let store = PlanStore::new();
        let journal = open(&path, &store);
        let (large, small) = (big(), resolved(4));
        // Lockstep: the large land of id `i` starts once the small land of
        // id `i - 1` is done, so every id sees the chained race.
        let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let wait_for = |counter: &AtomicUsize, at_least: usize| {
            while counter.load(Ordering::SeqCst) < at_least {
                thread::yield_now();
            }
        };
        thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..IDS {
                    wait_for(&finished, i);
                    let id = format!("plan-{i:02}");
                    begin(&store, 1, &id);
                    started.store(i + 1, Ordering::SeqCst);
                    land(&journal, &store, &id, &large);
                }
            });
            scope.spawn(|| {
                for i in 0..IDS {
                    wait_for(&started, i + 1);
                    let id = format!("plan-{i:02}");
                    begin(&store, 1, &id);
                    land(&journal, &store, &id, &small);
                    // Forced compactions between the chains; none after the
                    // last few, whose records replay has to order itself.
                    if i % 8 == 0 {
                        journal.compact(&store).unwrap();
                    }
                    finished.store(i + 1, Ordering::SeqCst);
                }
            });
        });
        assert_eq!(journal.append_errors(), 0);
        let store_plans = encoded(store.snapshot_plans());
        assert_eq!(store_plans.len(), IDS);
        assert_eq!(recovered(&path), store_plans);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_land_racing_compaction_is_never_lost() {
        // Small plans land once each under their own ids while a large plan
        // is re-landed and the journal compacts in a loop. A small land that
        // falls between a compaction's snapshot and its rename must still be
        // in the journal afterwards. The window is a scheduling race, so
        // the scenario runs for several rounds.
        const ROUNDS: usize = 10;
        const SMALL: usize = 1_000;
        let (large, small) = (big(), resolved(4));
        for round in 0..ROUNDS {
            let path = temp_journal(&format!("compaction-{round}"));
            let store = PlanStore::new();
            let journal = open(&path, &store);
            let done = AtomicBool::new(false);
            with_compactions(&journal, &store, || {
                thread::scope(|scope| {
                    scope.spawn(|| {
                        while !done.load(Ordering::Relaxed) {
                            begin(&store, 1, "large");
                            land(&journal, &store, "large", &large);
                        }
                    });
                    let landers: Vec<_> = (0..4)
                        .map(|lander| {
                            let (store, journal, small) = (&store, &journal, &small);
                            scope.spawn(move || {
                                for i in (lander..SMALL).step_by(4) {
                                    let id = format!("small-{i:04}");
                                    begin(store, 1, &id);
                                    land(journal, store, &id, small);
                                }
                            })
                        })
                        .collect();
                    for lander in landers {
                        lander.join().unwrap();
                    }
                    done.store(true, Ordering::Relaxed);
                });
            });
            assert_eq!(journal.append_errors(), 0);
            let store_plans = encoded(store.snapshot_plans());
            assert_eq!(store_plans.len(), SMALL + 1);
            assert_eq!(recovered(&path), store_plans, "round {round}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn a_failed_append_never_strands_later_records_behind_a_torn_line() {
        let plan = resolved(4);
        for restore_append_handle in [false, true] {
            let path = temp_journal(&format!("torn-{restore_append_handle}"));
            let store = PlanStore::new();
            let journal = open(&path, &store);
            let land_next = |id: &str| {
                begin(&store, 1, id);
                land(&journal, &store, id, &plan);
            };
            land_next("a");
            // The disk fills mid-append: the handle stops taking writes
            // (read-only here), and half a record made it into the file.
            *journal.lock() = File::open(&path).unwrap();
            let mut half = String::new();
            render_land("torn", &plan, &mut half);
            OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap()
                .write_all(&half.as_bytes()[..half.len() / 2])
                .unwrap();
            land_next("b");
            assert_eq!(journal.append_errors(), 1);
            if restore_append_handle {
                *journal.lock() = OpenOptions::new().append(true).open(&path).unwrap();
            }
            // The next land rewrites the file from the store instead of
            // appending behind the torn line, and reopens the handle.
            land_next("c");
            assert_eq!(journal.append_errors(), 1);
            let store_plans = encoded(store.snapshot_plans());
            assert_eq!(store_plans.len(), 3);
            assert_eq!(recovered(&path), store_plans);
            // Appends resume once the rewrite succeeded.
            land_next("d");
            assert_eq!(recovered(&path), encoded(store.snapshot_plans()));
            assert_eq!(journal.records(), 4);
            assert_eq!(journal.compactions(), 2);
            assert_eq!(journal.compact_us.lifetime().count(), 2);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn records_render_byte_identically_to_the_value_serializer() {
        let plan = resolved(4);
        let mut line = String::new();
        render_land("we\"ird\nid", &plan, &mut line);
        let expected = Json::Object(vec![
            member("record", Json::string("land")),
            member("id", Json::string("we\"ird\nid")),
            member("plan", codec::encode(&plan)),
        ]);
        assert_eq!(line, format!("{expected}\n"));
    }
}
