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
//! next `land` rewrites the file from the store instead, entirely under
//! the same file mutex (the store already holds the plan being landed,
//! and the rewrite reopens the append handle). Appends resume only once a
//! rewrite succeeds.
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
//! critical section is one store update, one `write(2)` and one index
//! update. The mutex also guards the file's length and an index that maps
//! each id to the byte range of its latest `land` line and a [`Weak`]
//! reference to the plan that line was rendered from. A successful append
//! updates the index, a failed one (which marks the file torn) clears it,
//! and every rewrite rebuilds it.
//!
//! ## Compaction atomicity
//!
//! Compaction rewrites the retained plans as `land` records, in id order,
//! into a temp file, fsyncs it, then atomically renames it over the
//! journal — a crash during compaction leaves either the old complete
//! journal or the new complete journal, never a mix. Every compaction
//! writes its records through one writer: a record whose index entry
//! points at the very plan the store holds (the `Weak` and the store's
//! `Arc` share an allocation) is copied from the live file with
//! `copy_file_range(2)`, since its bytes are already there; any other
//! plan is rendered. Either way the output has the same bytes.
//!
//! Compaction runs at every boot (nothing is indexed yet, so it renders
//! every record, seeds the index, and truncates any torn tail before new
//! appends could land behind it), after a failed append (above), and every
//! [`COMPACT_EVERY`] appended records. The first two rewrite into
//! `<path>.tmp` with the file mutex held throughout. The budget-triggered
//! one runs on the request path of whichever append spends the budget,
//! one at a time, and holds the mutex only at its two ends:
//!
//! 1. **Snapshot**, under the mutex: take the store's plans, note for each
//!    the line the index vouches for (or keep its `Arc` to render it), the
//!    file's length `L0`, and open a read handle on the file. The store and
//!    the file agree here, because every land stores and appends under
//!    this same mutex.
//! 2. **Write**, without the mutex: copy or render the snapshot into
//!    `<path>.compact.tmp` and fsync it. Lands keep appending to the live
//!    file meanwhile.
//! 3. **Swap**, under the mutex: if an append failed or a rewrite ran
//!    since the snapshot, the live file is no longer the one the snapshot
//!    read, so the temp file is deleted and the journal stays as it is.
//!    Otherwise the bytes `[L0, len)` — exactly the lands since the
//!    snapshot, in their order — are copied onto the temp file, which is
//!    renamed over the journal. The append handle is reopened and the
//!    index rebuilt, with the copied tail's ranges shifted.
//!
//! Every land is therefore either in the snapshot or in the copied tail,
//! and replay's last-record-wins recovers each id's latest version. The
//! tail is **not** fsynced again: those records were appended to the old
//! file without an fsync and keep exactly that durability in the new one,
//! while the fsynced prefix holds every plan of the snapshot, and an
//! unflushed tail at worst tears, which the torn-tail rule handles. The
//! two temp names differ so that a rewrite never renames a file the
//! budget compaction still writes into the live journal's place. Each
//! compaction's duration is recorded in the `journal.compact_us`
//! histogram and the time it holds the file mutex in
//! `journal.compact_hold_us`.

use slade_engine::{codec, FinishOutcome, PlanStore, ResolvedPlan, SessionId};
use slade_json::{parse, write_string, Json};
use slade_obs::WindowedHistogram;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

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
    /// The append handle and what the journal knows of the file's bytes.
    /// The mutex also orders store updates with their appends and brackets
    /// compaction's snapshot and swap (see the module docs for the lock
    /// order).
    log: Mutex<Log>,
    /// Records currently in the file (surviving replay + appended since).
    /// Changed only under the file mutex, like `compactions` and
    /// `since_compact`.
    records: AtomicU64,
    /// Records recovered by the boot-time replay.
    replayed: AtomicU64,
    /// Appends or compactions that failed with an I/O error — plans landed
    /// after a nonzero value here may not be durable (health degrades).
    append_errors: AtomicU64,
    /// Completed compactions (the boot-time one included). A budget
    /// compaction swaps only if this has not moved since its snapshot.
    compactions: AtomicU64,
    /// Appends since the last compaction, driving [`COMPACT_EVERY`].
    since_compact: AtomicU64,
    /// Set (under the file mutex) when an append or a compaction fails,
    /// cleared when a compaction succeeds: while set, the file may end in a
    /// torn record, so lands compact instead of appending behind it.
    torn: AtomicBool,
    /// Set while a budget compaction runs: one at a time.
    compacting: AtomicBool,
    /// The duration of every successful compaction, in microseconds.
    compact_us: Arc<WindowedHistogram>,
    /// How long every successful compaction held the file mutex, in
    /// microseconds.
    compact_hold_us: Arc<WindowedHistogram>,
}

/// The journal file as the file mutex guards it.
struct Log {
    file: File,
    /// The file's length: the last rewrite's bytes plus every append since.
    len: u64,
    /// Per id, its latest `land` line; empty while the file is torn.
    index: HashMap<String, Line>,
}

/// Where an id's latest `land` line lies, and the plan it was rendered
/// from. The `Weak` keeps the plan's allocation, so no later plan can share
/// its address while the entry lives.
struct Line {
    range: Range<u64>,
    plan: Weak<ResolvedPlan>,
}

/// Where a compacted record's bytes come from.
enum Source {
    /// The record's line in the live file, rendered from this plan.
    Copy(Range<u64>, Weak<ResolvedPlan>),
    /// A plan the index does not vouch for, rendered afresh.
    Render(Arc<ResolvedPlan>),
}

/// A compaction's view of the store and of the live file, taken under the
/// file mutex.
struct Snapshot {
    /// The retained plans in id order, each with its source.
    records: Vec<(String, Source)>,
    /// A read handle on the file the snapshot's ranges point into.
    live: File,
    /// The file's length, [`Journal::compactions`] and the appends since
    /// the last compaction, all at the snapshot.
    len: u64,
    compactions: u64,
    appended: u64,
}

/// A budget compaction between its steps: [`Journal::begin_compaction`],
/// [`Compaction::write`] and [`Compaction::swap`]. Dropping it removes its
/// temp file (gone already after a swap) and lets the next one begin.
struct Compaction<'a> {
    journal: &'a Journal,
    snapshot: Snapshot,
    /// The fsynced temp file, once written: its handle, length and index.
    written: Option<(File, u64, HashMap<String, Line>)>,
    started: Instant,
    /// How long the snapshot held the file mutex.
    held: Duration,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`: replays every
    /// valid record into `store` — stopping at the first torn or corrupt
    /// line — then compacts, so the file holds exactly the recovered plans
    /// before any new record is appended. Compaction durations go to
    /// `compact_us`, and the time each holds the file mutex to
    /// `compact_hold_us`.
    pub(crate) fn open(
        path: PathBuf,
        store: &PlanStore,
        compact_us: Arc<WindowedHistogram>,
        compact_hold_us: Arc<WindowedHistogram>,
    ) -> io::Result<Journal> {
        let mut replayed: u64 = 0;
        if path.exists() {
            for (id, plan) in replay(&std::fs::read(&path)?, &mut replayed) {
                store.restore(&id, plan);
            }
        }
        let journal = Journal {
            log: Mutex::new(Log {
                file: OpenOptions::new().create(true).append(true).open(&path)?,
                len: 0,
                index: HashMap::new(),
            }),
            path,
            records: AtomicU64::new(0),
            replayed: AtomicU64::new(replayed),
            append_errors: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            since_compact: AtomicU64::new(0),
            torn: AtomicBool::new(false),
            compacting: AtomicBool::new(false),
            compact_us,
            compact_hold_us,
        };
        journal.rewrite(&mut journal.lock(), store)?;
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
        let rendered_from = Arc::downgrade(&plan);
        let log = self.lock();
        let outcome = store.finish(session, id, Some(plan));
        if outcome != FinishOutcome::Discarded {
            self.append(log, store, id, rendered_from, &line);
        }
        outcome
    }

    /// Appends `line`, `id`'s record rendered from `plan`, under the held
    /// file mutex — or, when an earlier append failed and may have left a
    /// torn record, rewrites the file from `store` instead (see the module
    /// docs). A failed append is counted and marks the file torn; a success
    /// is indexed, counts toward the record total and compacts, after the
    /// mutex is released, when the [`COMPACT_EVERY`] budget is spent.
    fn append(
        &self,
        mut log: MutexGuard<'_, Log>,
        store: &PlanStore,
        id: &str,
        plan: Weak<ResolvedPlan>,
        line: &str,
    ) {
        if self.torn.load(Ordering::Relaxed) {
            if self.rewrite(&mut log, store).is_err() {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        if log.file.write_all(line.as_bytes()).is_err() {
            self.mark_torn(&mut log);
            self.append_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let start = log.len;
        log.len += line.len() as u64;
        let indexed = Line {
            range: start..log.len,
            plan,
        };
        match log.index.get_mut(id) {
            Some(entry) => *entry = indexed,
            None => {
                log.index.insert(id.to_owned(), indexed);
            }
        }
        self.records.fetch_add(1, Ordering::Relaxed);
        let due = self.since_compact.fetch_add(1, Ordering::Relaxed) + 1 >= COMPACT_EVERY;
        drop(log);
        if due && self.compact(store).is_err() {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Rewrites the journal to the store's retained plans plus whatever
    /// lands meanwhile, holding the file mutex only for the snapshot and
    /// the swap (see the module docs). Returns `false` without compacting
    /// when another compaction is running, or when the live file changed
    /// under this one (a failed append, a rewrite) — the next land then
    /// decides again.
    pub(crate) fn compact(&self, store: &PlanStore) -> io::Result<bool> {
        let Some(mut compaction) = self.begin_compaction(store)? else {
            return Ok(false);
        };
        compaction.write()?;
        compaction.swap()
    }

    /// Step 1 of [`Journal::compact`]: the snapshot, under the file mutex.
    /// `None` when another compaction is running.
    fn begin_compaction(&self, store: &PlanStore) -> io::Result<Option<Compaction<'_>>> {
        if self.compacting.swap(true, Ordering::Acquire) {
            return Ok(None);
        }
        let started = Instant::now();
        let log = self.lock();
        let locked = Instant::now();
        let snapshot = self.snapshot(&log, store);
        drop(log);
        let held = locked.elapsed();
        match snapshot {
            Ok(snapshot) => Ok(Some(Compaction {
                journal: self,
                snapshot,
                written: None,
                started,
                held,
            })),
            Err(e) => {
                self.compacting.store(false, Ordering::Release);
                Err(e)
            }
        }
    }

    /// Rewrites the journal to exactly the store's retained plans under the
    /// already-held file mutex: snapshot → write `<path>.tmp` → fsync →
    /// rename → swap the append handle. The boot and torn paths (see the
    /// module docs). The file counts as torn until the rewrite succeeds: a
    /// failure after the rename would leave the handle on the replaced
    /// file.
    fn rewrite(&self, log: &mut Log, store: &PlanStore) -> io::Result<()> {
        let started = Instant::now();
        self.mark_torn(log);
        let snapshot = self.snapshot(log, store)?;
        let records = snapshot.records.len() as u64;
        let tmp = self.temp_path(".tmp");
        let (_, len, index) = write_records(&tmp, snapshot.records, &snapshot.live)?;
        std::fs::rename(&tmp, &self.path)?;
        log.file = OpenOptions::new().append(true).open(&self.path)?;
        log.len = len;
        log.index = index;
        let elapsed = started.elapsed();
        self.count_compaction(records, 0, elapsed, elapsed);
        Ok(())
    }

    /// Takes a compaction's snapshot under the held file mutex: a plan
    /// whose latest line the index vouches for — rendered from the very
    /// `Arc` the store holds — is copied from that line, any other plan is
    /// rendered.
    fn snapshot(&self, log: &Log, store: &PlanStore) -> io::Result<Snapshot> {
        let live = File::open(&self.path)?;
        let records = store
            .snapshot_plans()
            .into_iter()
            .map(|(id, plan)| {
                let source = match log.index.get(&id) {
                    Some(line) if std::ptr::eq(line.plan.as_ptr(), Arc::as_ptr(&plan)) => {
                        Source::Copy(line.range.clone(), line.plan.clone())
                    }
                    _ => Source::Render(plan),
                };
                (id, source)
            })
            .collect();
        Ok(Snapshot {
            records,
            live,
            len: log.len,
            compactions: self.compactions.load(Ordering::Relaxed),
            appended: self.since_compact.load(Ordering::Relaxed),
        })
    }

    /// Counts a successful compaction, under the held file mutex: the new
    /// file holds `records` records, of which the last `tail` were appended
    /// after the snapshot.
    fn count_compaction(&self, records: u64, tail: u64, elapsed: Duration, held: Duration) {
        self.records.store(records, Ordering::Relaxed);
        self.since_compact.store(tail, Ordering::Relaxed);
        self.torn.store(false, Ordering::Relaxed);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.compact_us.record(micros(elapsed));
        self.compact_hold_us.record(micros(held));
    }

    /// Marks the file torn under the held file mutex: its tail may be a
    /// partial record, so nothing in it is vouched for any more.
    fn mark_torn(&self, log: &mut Log) {
        self.torn.store(true, Ordering::Relaxed);
        log.index.clear();
    }

    /// `<path><suffix>`.
    fn temp_path(&self, suffix: &str) -> PathBuf {
        let mut path = self.path.clone().into_os_string();
        path.push(suffix);
        PathBuf::from(path)
    }

    fn lock(&self) -> MutexGuard<'_, Log> {
        self.log
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

impl Compaction<'_> {
    /// Step 2: writes and fsyncs the temp file, without the file mutex.
    fn write(&mut self) -> io::Result<()> {
        let records = std::mem::take(&mut self.snapshot.records);
        let tmp = self.journal.temp_path(".compact.tmp");
        self.written = Some(write_records(&tmp, records, &self.snapshot.live)?);
        Ok(())
    }

    /// Step 3: under the file mutex, appends the records landed since the
    /// snapshot to the written temp file and renames it over the journal —
    /// or returns `false`, leaving the journal as it is, when an append
    /// failed or a rewrite ran since the snapshot.
    fn swap(mut self) -> io::Result<bool> {
        let journal = self.journal;
        let Some((mut out, len, mut index)) = self.written.take() else {
            return Ok(false);
        };
        let mut log = journal.lock();
        let locked = Instant::now();
        let snapshot = &self.snapshot;
        if journal.torn.load(Ordering::Relaxed)
            || journal.compactions.load(Ordering::Relaxed) != snapshot.compactions
        {
            return Ok(false);
        }
        let tail = journal.since_compact.load(Ordering::Relaxed) - snapshot.appended;
        let records = index.len() as u64 + tail;
        let live_index = std::mem::take(&mut log.index);
        // Torn until the swap completes, as in `rewrite`.
        journal.torn.store(true, Ordering::Relaxed);
        copy_range(&snapshot.live, snapshot.len..log.len, &mut out)?;
        std::fs::rename(journal.temp_path(".compact.tmp"), &journal.path)?;
        log.file = OpenOptions::new().append(true).open(&journal.path)?;
        // Tail lines moved from `snapshot.len` to `len`; older lines are
        // superseded by the written records.
        for (id, line) in live_index {
            if line.range.start >= snapshot.len {
                let start = line.range.start - snapshot.len + len;
                let end = line.range.end - snapshot.len + len;
                index.insert(
                    id,
                    Line {
                        range: start..end,
                        plan: line.plan,
                    },
                );
            }
        }
        log.len = len + (log.len - snapshot.len);
        log.index = index;
        journal.count_compaction(
            records,
            tail,
            self.started.elapsed(),
            self.held + locked.elapsed(),
        );
        Ok(true)
    }
}

impl Drop for Compaction<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.journal.temp_path(".compact.tmp"));
        self.journal.compacting.store(false, Ordering::Release);
    }
}

/// The one record writer of every compaction: writes `records` in order to
/// a fresh file at `tmp` — copying a [`Source::Copy`] line from `live`,
/// rendering a [`Source::Render`] plan — and fsyncs it. Returns the file,
/// its length and the index of its lines.
fn write_records(
    tmp: &Path,
    records: Vec<(String, Source)>,
    live: &File,
) -> io::Result<(File, u64, HashMap<String, Line>)> {
    let mut out = File::create(tmp)?;
    let mut buf = String::with_capacity(COMPACT_FLUSH);
    let mut index = HashMap::with_capacity(records.len());
    // Bytes written to `out` plus bytes buffered.
    let mut len: u64 = 0;
    for (id, source) in records {
        let start = len;
        let plan = match source {
            Source::Copy(range, plan) => {
                out.write_all(buf.as_bytes())?;
                buf.clear();
                len += range.end - range.start;
                copy_range(live, range, &mut out)?;
                plan
            }
            Source::Render(plan) => {
                let before = buf.len();
                render_land(&id, &plan, &mut buf);
                len += (buf.len() - before) as u64;
                if buf.len() >= COMPACT_FLUSH {
                    out.write_all(buf.as_bytes())?;
                    buf.clear();
                }
                Arc::downgrade(&plan)
            }
        };
        index.insert(
            id,
            Line {
                range: start..len,
                plan,
            },
        );
    }
    out.write_all(buf.as_bytes())?;
    out.sync_all()?;
    Ok((out, len, index))
}

/// Appends `from`'s bytes in `range` to `to` — `copy_file_range(2)` on
/// Linux, through `io::copy`'s specialization for `Take<&File>`.
fn copy_range(mut from: &File, range: Range<u64>, to: &mut File) -> io::Result<()> {
    let want = range.end - range.start;
    from.seek(SeekFrom::Start(range.start))?;
    if io::copy(&mut from.take(want), to)? != want {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

fn micros(elapsed: Duration) -> u64 {
    elapsed.as_micros().try_into().unwrap_or(u64::MAX)
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
        let histogram = || Arc::new(WindowedHistogram::new(Duration::from_secs(60)));
        Journal::open(path.to_path_buf(), store, histogram(), histogram()).unwrap()
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

    /// The file a compaction of `store` with no land racing it must write:
    /// every retained plan rendered afresh, in id order.
    fn rendered(store: &PlanStore) -> String {
        let mut out = String::new();
        for (id, plan) in store.snapshot_plans() {
            render_land(&id, &plan, &mut out);
        }
        out
    }

    fn lines(path: &PathBuf) -> u64 {
        std::fs::read_to_string(path).unwrap().lines().count() as u64
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

    /// Runs `work` while another thread runs budget compactions of
    /// `journal` in a loop.
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
                    // At least once, however late this thread is scheduled.
                    scope.spawn(|| loop {
                        begin(&store, 1, "large");
                        land(&journal, &store, "large", &large);
                        if done.load(Ordering::Relaxed) {
                            break;
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
            assert_eq!(journal.records(), lines(&path), "round {round}");
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
            journal.lock().file = File::open(&path).unwrap();
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
                journal.lock().file = OpenOptions::new().append(true).open(&path).unwrap();
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
            assert_eq!(journal.compact_hold_us.lifetime().count(), 2);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn compaction_copies_exactly_what_it_would_render() {
        let path = temp_journal("copy");
        let store = PlanStore::new();
        let journal = open(&path, &store);
        let land_next = |id: &str, plan: &Arc<ResolvedPlan>| {
            begin(&store, 1, id);
            land(&journal, &store, id, plan);
        };
        let plans: Vec<_> = (4..9).map(resolved).collect();
        for (i, plan) in plans.iter().enumerate() {
            land_next(&format!("id-{i}"), plan);
        }
        for i in [0, 2, 4] {
            land_next(&format!("id-{i}"), &plans[(i + 1) % plans.len()]);
        }
        // Every retained plan's latest line is indexed, so all are copied.
        assert!(journal.compact(&store).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), rendered(&store));
        assert_eq!(journal.records(), 5);
        // A plan that changes without an append leaves its indexed line
        // stale: the next compaction must render it, not copy that line.
        store.restore("id-1", resolved(9));
        assert!(journal.compact(&store).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), rendered(&store));
        assert_eq!(recovered(&path), encoded(store.snapshot_plans()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lands_in_the_compaction_window_reach_the_new_file() {
        let path = temp_journal("window");
        let store = PlanStore::new();
        let journal = open(&path, &store);
        let land_next = |id: &str, plan: &Arc<ResolvedPlan>| {
            begin(&store, 1, id);
            land(&journal, &store, id, plan);
        };
        let (four, five, six) = (resolved(4), resolved(5), resolved(6));
        land_next("a", &four);
        land_next("b", &four);
        let mut compaction = journal.begin_compaction(&store).unwrap().unwrap();
        // One compaction at a time.
        assert!(journal.begin_compaction(&store).unwrap().is_none());
        assert!(!journal.compact(&store).unwrap());
        // A new id lands before the snapshot is written, and an id of the
        // snapshot is re-landed twice after.
        land_next("c", &five);
        compaction.write().unwrap();
        land_next("a", &five);
        land_next("a", &six);
        assert!(compaction.swap().unwrap());
        let recovered_plans = recovered(&path);
        assert_eq!(recovered_plans, encoded(store.snapshot_plans()));
        assert_eq!(recovered_plans["a"], codec::encode(&six).to_string());
        // The snapshot's two records, then the three of the tail.
        assert_eq!(journal.records(), 5);
        assert_eq!(journal.records(), lines(&path));
        assert_eq!(journal.since_compact.load(Ordering::Relaxed), 3);
        assert_eq!(journal.compactions(), 2);
        assert_eq!(journal.compact_hold_us.lifetime().count(), 2);
        assert!(!journal.temp_path(".compact.tmp").exists());
        // The rebuilt index, the tail's ranges shifted, vouches for the
        // right lines: the next compaction copies them to a fresh render.
        assert!(journal.compact(&store).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), rendered(&store));
        assert_eq!(journal.records(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_append_in_the_compaction_window_abandons_the_swap() {
        // The off-lock twin of the torn-line test above: the append fails
        // between a compaction's snapshot and its swap, and the land after
        // it rewrites the file under the lock — before the swap is tried,
        // or after.
        let plan = resolved(4);
        for rewrite_first in [false, true] {
            let path = temp_journal(&format!("window-torn-{rewrite_first}"));
            let store = PlanStore::new();
            let journal = open(&path, &store);
            let land_next = |id: &str| {
                begin(&store, 1, id);
                land(&journal, &store, id, &plan);
            };
            land_next("a");
            land_next("b");
            let mut compaction = journal.begin_compaction(&store).unwrap().unwrap();
            compaction.write().unwrap();
            let tmp = journal.temp_path(".compact.tmp");
            assert!(tmp.exists());
            journal.lock().file = File::open(&path).unwrap();
            let mut half = String::new();
            render_land("torn", &plan, &mut half);
            OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap()
                .write_all(&half.as_bytes()[..half.len() / 2])
                .unwrap();
            land_next("c");
            assert_eq!(journal.append_errors(), 1);
            if rewrite_first {
                land_next("d");
            }
            assert!(!compaction.swap().unwrap());
            assert!(!tmp.exists());
            if !rewrite_first {
                land_next("d");
            }
            assert_eq!(journal.append_errors(), 1);
            let store_plans = encoded(store.snapshot_plans());
            assert_eq!(store_plans.len(), 4);
            assert_eq!(recovered(&path), store_plans);
            // Appends resume after the rewrite; boot and it compacted.
            land_next("e");
            assert_eq!(recovered(&path), encoded(store.snapshot_plans()));
            assert_eq!(journal.records(), 5);
            assert_eq!(journal.records(), lines(&path));
            assert_eq!(journal.compactions(), 2);
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
