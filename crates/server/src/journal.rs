//! The durable plan journal: an append-only JSONL log of plan-store
//! mutations, replayed at boot so retained plans survive a server crash.
//!
//! ## Record grammar
//!
//! One JSON object per line, identified by its `record` member:
//!
//! ```text
//! {"record":"land","id":"<plan id>","plan":{<codec v1 object>}}
//! {"record":"release","id":"<plan id>"}
//! ```
//!
//! `land` is written after a producer's plan is stored (re-lands under the
//! same id overwrite — last record wins on replay); `release` after an
//! explicit lease release (an audit record: replayed plans are always
//! unleased, because the sessions that held them died with the process).
//! Any other record kind is corrupt and ends replay. Leases and claims are
//! deliberately **not** journaled as state: they are session-scoped, and a
//! restart has no sessions.
//!
//! ## Torn-tail rule
//!
//! The writer appends whole lines but a crash (SIGKILL, power loss) can
//! leave a torn final record. The replayer is tolerant exactly once: it
//! applies records in order and stops at the **first** line that fails to
//! parse or decode — everything after a corrupt record is untrusted, even
//! if later lines happen to parse, because a single-writer append-only log
//! only corrupts at the tail. Replay never panics on arbitrary bytes (the
//! journal fuzz suite byte-flips and truncates real journals to pin this).
//!
//! ## Compaction atomicity
//!
//! Compaction rewrites the retained plans as fresh `land` records into
//! `<path>.tmp`, fsyncs, then atomically renames over the journal — a
//! crash during compaction leaves either the old complete journal or the
//! new complete journal, never a mix. It runs at every boot (which also
//! truncates any torn tail before new appends could land behind it) and
//! automatically every [`COMPACT_EVERY`] appended records.

use slade_engine::{codec, PlanStore, ResolvedPlan};
use slade_json::{member, parse, Json};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Appends between automatic compactions. Small enough that the journal
/// stays within a couple hundred records of the live plan count, large
/// enough that compaction cost (a full snapshot rewrite) stays rare.
pub(crate) const COMPACT_EVERY: u64 = 256;

/// An open journal; see the module docs for the format and guarantees.
pub(crate) struct Journal {
    path: PathBuf,
    /// The append handle. The mutex also serializes compaction's
    /// rewrite-and-swap against concurrent appends.
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
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`: replays every
    /// valid record into `store` — stopping at the first torn or corrupt
    /// line — then compacts, so the file holds exactly the recovered plans
    /// before any new record is appended.
    pub(crate) fn open(path: PathBuf, store: &PlanStore) -> io::Result<Journal> {
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
        };
        journal.compact(store)?;
        Ok(journal)
    }

    /// Journals a landed plan (after the store accepted it), compacting if
    /// the append budget is spent. I/O errors are counted, never raised:
    /// the plan is already live in memory and the client already paid for
    /// it — degraded durability is a health signal, not a request failure.
    pub(crate) fn land(&self, store: &PlanStore, id: &str, plan: &ResolvedPlan) {
        let record = Json::Object(vec![
            member("record", Json::string("land")),
            member("id", Json::string(id)),
            member("plan", codec::encode(plan)),
        ]);
        self.append(store, &record);
    }

    /// Journals an explicit lease release (an audit record; see the module
    /// docs for why leases are not replayed as state).
    pub(crate) fn release(&self, store: &PlanStore, id: &str) {
        let record = Json::Object(vec![
            member("record", Json::string("release")),
            member("id", Json::string(id)),
        ]);
        self.append(store, &record);
    }

    fn append(&self, store: &PlanStore, record: &Json) {
        {
            let mut file = self.lock();
            if file.write_all(format!("{record}\n").as_bytes()).is_err() {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.records.fetch_add(1, Ordering::Relaxed);
        if self.since_compact.fetch_add(1, Ordering::Relaxed) + 1 >= COMPACT_EVERY
            && self.compact(store).is_err()
        {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Rewrites the journal to exactly the store's retained plans:
    /// snapshot → write `<path>.tmp` → fsync → rename → swap the append
    /// handle. Holding the file mutex throughout makes the swap atomic
    /// with respect to concurrent appends.
    pub(crate) fn compact(&self, store: &PlanStore) -> io::Result<()> {
        let snapshot = store.snapshot_plans();
        let mut file = self.lock();
        let mut tmp_path = self.path.clone().into_os_string();
        tmp_path.push(".tmp");
        let tmp_path = PathBuf::from(tmp_path);
        {
            let mut tmp = File::create(&tmp_path)?;
            for (id, plan) in &snapshot {
                let record = Json::Object(vec![
                    member("record", Json::string("land")),
                    member("id", Json::string(id)),
                    member("plan", codec::encode(plan)),
                ]);
                tmp.write_all(format!("{record}\n").as_bytes())?;
            }
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        *file = OpenOptions::new().append(true).open(&self.path)?;
        self.records.store(snapshot.len() as u64, Ordering::Relaxed);
        self.since_compact.store(0, Ordering::Relaxed);
        self.compactions.fetch_add(1, Ordering::Relaxed);
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
