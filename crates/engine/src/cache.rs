//! The artifact cache: a sharded, lock-free-on-the-read-path table of
//! `Arc`-shared solve artifacts with single-flight cold misses.

use slade_core::fingerprint::Fingerprint;
use slade_core::solver::{Algorithm, SolveArtifacts};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// The cache key: which algorithm's `prepare` ran, over which
/// [`Fingerprint`] (bin-menu signature, θ bits, and the solver's own knob
/// digest). One cache serves every request type; the `Algorithm` component
/// keeps two solvers' artifacts apart even when their knob words coincide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The algorithm whose [`prepare`](slade_core::solver::PreparedSolver)
    /// produced (or will produce) the entry.
    pub algorithm: Algorithm,
    /// The canonical identity of the prepare computation.
    pub fingerprint: Fingerprint,
}

/// Shards of the [`ArtifactCache`] table. A small fixed power of two:
/// shard choice is the fingerprint digest's low bits, and 16 independent
/// locks already out-number the worker pool on every deployment target.
pub const CACHE_SHARDS: usize = 16;

/// A thread-safe cache from [`CacheKey`] to type-erased [`SolveArtifacts`],
/// shared by every worker of an [`Engine`].
///
/// Keys hash by the fingerprint's 64-bit digest but compare by full key
/// material (`Fingerprint`'s `Eq` checks the bin menu by content), so an FNV
/// digest collision between two distinct instances lands in the same shard
/// and hash bucket yet can never alias entries — the `HashMap` probe rejects
/// the mismatched key and the second instance simply computes its own
/// artifacts.
///
/// ## Design
///
/// * **Warm hits take no process-global lock.** The shard is chosen from
///   the fingerprint digest, the lookup takes that shard's `RwLock` *read*
///   half (shared — readers never serialize each other), and recency is a
///   relaxed store into the entry's atomic access stamp. Nothing on the hit
///   path writes to memory any other shard's hits touch, except the sharded
///   global clock and the stats counters — all relaxed atomics.
/// * **Eviction is approximate LRU, off the hot path.** Only an inserting
///   thread evicts, only within its own shard, by scanning that shard's
///   entries for the coldest stamp while the *global* (relaxed-atomic)
///   entry count exceeds capacity. Hits never rewrite an ordering
///   structure. A shard holding nothing but the fresh entry yields no
///   victim, so occupancy may overshoot capacity by up to
///   [`CACHE_SHARDS`]` − 1` entries when residents spread one-per-shard —
///   a documented approximation, not a leak (any shard reaching two
///   entries while over capacity sheds its coldest). Evicting an
///   approximately-coldest entry instead of the globally-coldest one can
///   cost an extra `prepare` later; it can never change plan bytes,
///   because artifacts for equal fingerprints are interchangeable by the
///   determinism of `prepare`.
/// * **Cold misses are single-flight.** The first worker to miss a key
///   becomes its *leader* and computes; workers racing the same key park on
///   a per-key flight entry and adopt the leader's artifacts instead of
///   burning N−1 redundant `prepare`s. Any winner is interchangeable —
///   `prepare` is a pure function of the key — so warm==cold byte-identity
///   is preserved no matter which racer leads. A leader's *error* releases
///   the waiters to compute individually (errors pass through, nothing is
///   cached, and no caller inherits another's failure context).
///
/// Values are `Arc`ed, so a hit hands out a shared reference while the entry
/// may be concurrently evicted — readers are never invalidated.
///
/// Artifacts reporting [`SolveArtifacts::cacheable`]` == false`
/// (pass-through solvers) are computed but never inserted, so trivial
/// entries cannot evict expensive ones; under single-flight the leader's
/// value is still handed to the waiters of that one race.
///
/// A capacity of `0` disables caching (every lookup computes); the engine
/// uses that for apples-to-apples cold benchmarks.
///
/// [`Engine`]: crate::Engine
#[derive(Debug)]
pub struct ArtifactCache {
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Resident entries, kept relaxed-atomically current by insert/evict so
    /// [`ArtifactCache::stats`] and [`ArtifactCache::len`] never take any
    /// table lock (the `stats`/`metrics` verbs must not contend with the
    /// solve path).
    entries: AtomicU64,
    evictions: AtomicU64,
    singleflight_waits: AtomicU64,
    shards: Vec<Shard>,
    /// Monotone logical clock stamping every access. Relaxed: ties or
    /// slightly stale stamps only blur *which* cold entry eviction picks,
    /// never correctness.
    clock: AtomicU64,
}

/// One shard of the table. The `map` lock is the only thing a warm
/// hit takes (read half); `flights` is a cold-miss-only side table.
#[derive(Debug, Default)]
struct Shard {
    map: RwLock<HashMap<CacheKey, Slot>>,
    /// In-flight cold computations, keyed like `map`. Only missing lookups
    /// touch this mutex, so it cannot contend with warm hits.
    flights: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

#[derive(Debug)]
struct Slot {
    artifacts: Arc<dyn SolveArtifacts>,
    /// Last-access stamp from the cache clock, stored relaxed on every
    /// hit — the entire recency bookkeeping of the hot path.
    stamp: AtomicU64,
}

/// A single-flight rendezvous: the leader computes, waiters park here.
#[derive(Debug)]
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

#[derive(Debug, Clone)]
enum FlightState {
    Pending,
    /// The leader's artifacts (published whether or not they were
    /// cacheable — the racers of this one key still share the value).
    Ready(Arc<dyn SolveArtifacts>),
    /// The leader's compute failed; waiters fall back to computing
    /// individually, so each caller sees its own error.
    Failed,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        })
    }

    /// Publishes the outcome and wakes every waiter.
    fn finish(&self, state: FlightState) {
        *lock(&self.state) = state;
        self.done.notify_all();
    }

    /// Parks until the leader publishes.
    fn wait(&self) -> FlightState {
        let mut state = lock(&self.state);
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self
                        .done
                        .wait(state)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                resolved => return resolved.clone(),
            }
        }
    }
}

/// A point-in-time snapshot of cache effectiveness. Every field is read
/// from relaxed atomics — taking a snapshot never contends with the solve
/// path on any lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (including single-flight waiters
    /// adopting a leader's artifacts).
    pub hits: u64,
    /// Lookups that computed (includes every lookup when disabled, and
    /// waiters that recomputed after a leader's failure).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries (`0` = caching disabled), enforced
    /// approximately — occupancy may overshoot by up to
    /// [`CACHE_SHARDS`]` − 1` when residents spread one-per-shard.
    pub capacity: usize,
    /// Entries evicted to stay within capacity since construction.
    pub evictions: u64,
    /// Times a lookup parked on another worker's in-flight computation
    /// instead of redundantly computing.
    pub singleflight_waits: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups, `0.0` when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Locks a mutex, shrugging off poisoning: cache state is `Arc`s and plain
/// maps, valid at every instruction boundary (and no lock here is ever held
/// across a solver call).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl ArtifactCache {
    /// Creates a cache holding at most `capacity` artifact sets.
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            singleflight_waits: AtomicU64::new(0),
            shards: (0..CACHE_SHARDS).map(|_| Shard::default()).collect(),
            clock: AtomicU64::new(0),
        }
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently resident entries (relaxed read — never locks).
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/occupancy counters. Reads only relaxed atomics, so the
    /// `stats`/`metrics` verbs never contend with the solve path.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
            evictions: self.evictions.load(Ordering::Relaxed),
            singleflight_waits: self.singleflight_waits.load(Ordering::Relaxed),
        }
    }

    /// Resident entries per shard. Diagnostic — takes each shard's read
    /// lock briefly, so it belongs on the `metrics` path, not the hot one.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .map
                    .read()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .len()
            })
            .collect()
    }

    /// Returns the artifacts for `key`, computing and caching them with
    /// `compute` on a miss. Errors from `compute` are passed through and
    /// nothing is cached; non-[`cacheable`](SolveArtifacts::cacheable)
    /// results are returned without being inserted. Concurrent misses on
    /// the same key compute **once** (single-flight); `compute` runs
    /// outside every table lock.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> Result<Arc<dyn SolveArtifacts>, E>,
    ) -> Result<Arc<dyn SolveArtifacts>, E> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return compute();
        }
        // Warm hit = shard read lock + relaxed atomics; see the type-level
        // docs for the full protocol.
        let shard = self.shard_of(&key);
        if let Some(found) = self.probe(shard, &key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(found);
        }

        // Cold: join or found the key's flight.
        let (flight, leader) = {
            let mut flights = lock(&shard.flights);
            // Re-probe under the flights lock: a leader that just published
            // has already left `flights`, so only the map can answer.
            if let Some(found) = self.probe(shard, &key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(found);
            }
            match flights.get(&key) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Flight::new();
                    flights.insert(key.clone(), Arc::clone(&flight));
                    (flight, true)
                }
            }
        };

        if !leader {
            self.singleflight_waits.fetch_add(1, Ordering::Relaxed);
            match flight.wait() {
                FlightState::Ready(artifacts) => {
                    // Served without computing: a hit, same as if the
                    // leader's insert had landed a moment earlier.
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(artifacts);
                }
                // The leader failed; compute individually so this caller
                // gets its own error (or its own success — transient
                // failures must not infect unrelated requests).
                FlightState::Failed => return self.compute_and_publish(shard, None, key, compute),
                FlightState::Pending => unreachable!("wait() only returns resolved states"),
            }
        }

        self.compute_and_publish(shard, Some(flight), key, compute)
    }

    /// The shard `key` lives in: the fingerprint digest's low bits (the
    /// digest already mixes every key component except the algorithm, whose
    /// co-residence in one shard is harmless).
    fn shard_of(&self, key: &CacheKey) -> &Shard {
        &self.shards[(key.fingerprint.as_u64() as usize) % self.shards.len()]
    }

    /// Leader (or post-failure fallback) compute: run `compute` outside all
    /// locks, publish to the map and to any waiters.
    fn compute_and_publish<E>(
        &self,
        shard: &Shard,
        flight: Option<Arc<Flight>>,
        key: CacheKey,
        compute: impl FnOnce() -> Result<Arc<dyn SolveArtifacts>, E>,
    ) -> Result<Arc<dyn SolveArtifacts>, E> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = match compute() {
            Ok(artifacts) => artifacts,
            Err(e) => {
                if let Some(flight) = flight {
                    lock(&shard.flights).remove(&key);
                    flight.finish(FlightState::Failed);
                }
                return Err(e);
            }
        };

        if computed.cacheable() {
            let mut map = shard
                .map
                .write()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            // A fallback (non-leader) compute may race another fallback;
            // first insert wins.
            if !map.contains_key(&key) {
                map.insert(
                    key.clone(),
                    Slot {
                        artifacts: Arc::clone(&computed),
                        stamp: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
                    },
                );
                self.entries.fetch_add(1, Ordering::Relaxed);
                // Approximate LRU: while the *global* count is over
                // capacity, the inserting thread (and only it) sheds the
                // coldest-stamped entries of its own shard — never the one
                // it just inserted. A shard down to just the fresh entry
                // yields no victim, leaving the bounded overshoot the
                // type-level docs describe.
                while self.entries.load(Ordering::Relaxed) as usize > self.capacity {
                    let Some(coldest) = map
                        .iter()
                        .filter(|(k, _)| **k != key)
                        .min_by_key(|(_, slot)| slot.stamp.load(Ordering::Relaxed))
                        .map(|(k, _)| k.clone())
                    else {
                        break;
                    };
                    map.remove(&coldest);
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        if let Some(flight) = flight {
            // Publish to waiters *after* the map insert: a waiter that
            // wakes and re-looks-up will find the entry. Remove the flight
            // first so late arrivals miss into the map, not a spent flight.
            lock(&shard.flights).remove(&key);
            flight.finish(FlightState::Ready(Arc::clone(&computed)));
        }
        Ok(computed)
    }

    /// One warm probe: shard read lock, stamp bump, `Arc` clone.
    fn probe(&self, shard: &Shard, key: &CacheKey) -> Option<Arc<dyn SolveArtifacts>> {
        let map = shard
            .map
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let slot = map.get(key)?;
        slot.stamp.store(
            self.clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        Some(Arc::clone(&slot.artifacts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slade_core::bin_set::BinSet;
    use slade_core::opq_based::OpqBased;
    use slade_core::reliability::theta;
    use slade_core::solver::{PassThroughArtifacts, PreparedSolver};
    use slade_core::SladeError;

    fn key_and_artifacts(t: f64) -> (CacheKey, Arc<dyn SolveArtifacts>) {
        let bins = Arc::new(BinSet::paper_example());
        let solver = OpqBased::default();
        let key = CacheKey {
            algorithm: Algorithm::OpqBased,
            fingerprint: Fingerprint::new(Arc::clone(&bins), theta(t), &solver),
        };
        let artifacts = solver.prepare(&bins, theta(t)).unwrap();
        (key, artifacts)
    }

    #[test]
    fn hit_returns_the_cached_arc() {
        let cache = ArtifactCache::new(4);
        let (key, artifacts) = key_and_artifacts(0.95);
        let first = cache
            .get_or_try_insert_with::<SladeError>(key.clone(), || Ok(artifacts))
            .unwrap();
        let second = cache
            .get_or_try_insert_with::<SladeError>(key, || panic!("must not recompute"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn same_fingerprint_under_two_algorithms_is_two_entries() {
        // Greedy and OpqExtended can share a fingerprint digest shape; the
        // Algorithm component must still keep their artifacts apart.
        let cache = ArtifactCache::new(4);
        let (key, artifacts) = key_and_artifacts(0.95);
        let other_key = CacheKey {
            algorithm: Algorithm::OpqExtended,
            fingerprint: key.fingerprint.clone(),
        };
        cache
            .get_or_try_insert_with::<SladeError>(key, || Ok(artifacts))
            .unwrap();
        let mut recomputed = false;
        let (_, other) = key_and_artifacts(0.95);
        cache
            .get_or_try_insert_with::<SladeError>(other_key, || {
                recomputed = true;
                Ok(other)
            })
            .unwrap();
        assert!(recomputed);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sharded_eviction_keeps_a_shard_within_budget_and_prefers_cold_entries() {
        // Capacity 1 with two keys in one shard: the insert that takes the
        // cache over capacity must shed the colder co-resident.
        let cache = ArtifactCache::new(1);
        // Find two thresholds whose fingerprints share a shard.
        let thresholds = [0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.99];
        let shard_of = |t: f64| {
            let (key, _) = key_and_artifacts(t);
            (key.fingerprint.as_u64() as usize) % CACHE_SHARDS
        };
        let (a, b) = 'found: {
            for (i, &ta) in thresholds.iter().enumerate() {
                for &tb in &thresholds[i + 1..] {
                    if shard_of(ta) == shard_of(tb) {
                        break 'found (ta, tb);
                    }
                }
            }
            // 9 digests over 16 shards always collide somewhere (pigeonhole
            // needs 17, but FNV spreads these; assert instead of looping).
            panic!("no two test thresholds landed in one shard");
        };
        let (ka, aa) = key_and_artifacts(a);
        let (kb, ab) = key_and_artifacts(b);
        cache
            .get_or_try_insert_with::<SladeError>(ka.clone(), || Ok(aa))
            .unwrap();
        cache
            .get_or_try_insert_with::<SladeError>(kb.clone(), || Ok(ab))
            .unwrap();
        // Inserting b took the cache over capacity; a (the colder stamp,
        // same shard) was the victim.
        assert_eq!(cache.stats().evictions, 1);
        cache
            .get_or_try_insert_with::<SladeError>(kb, || panic!("the fresh entry must survive"))
            .unwrap();
        let mut recomputed = false;
        let (_, aa_again) = key_and_artifacts(a);
        cache
            .get_or_try_insert_with::<SladeError>(ka, || {
                recomputed = true;
                Ok(aa_again)
            })
            .unwrap();
        assert!(recomputed, "the cold entry was the victim");
    }

    #[test]
    fn sharded_occupancy_overshoot_is_bounded_by_one_entry_per_shard() {
        // Residents spread across shards can overshoot a tiny capacity
        // (each shard keeps at least its own fresh entry), but never beyond
        // one entry per shard — the approximation the docs pin.
        let cache = ArtifactCache::new(1);
        let thresholds = [0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.99];
        for t in thresholds {
            let (key, artifacts) = key_and_artifacts(t);
            cache
                .get_or_try_insert_with::<SladeError>(key, || Ok(artifacts))
                .unwrap();
        }
        assert!(cache.len() <= CACHE_SHARDS);
        assert!(cache
            .shard_occupancy()
            .iter()
            .all(|&occupancy| occupancy <= 1));
        let stats = cache.stats();
        assert_eq!(
            stats.entries as u64 + stats.evictions,
            thresholds.len() as u64,
            "every insert is either resident or accounted an eviction"
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ArtifactCache::new(0);
        let (key, artifacts) = key_and_artifacts(0.95);
        let other = Arc::clone(&artifacts);
        cache
            .get_or_try_insert_with::<SladeError>(key.clone(), || Ok(artifacts))
            .unwrap();
        let mut recomputed = false;
        cache
            .get_or_try_insert_with::<SladeError>(key, || {
                recomputed = true;
                Ok(other)
            })
            .unwrap();
        assert!(recomputed);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn pass_through_artifacts_are_never_inserted() {
        let cache = ArtifactCache::new(4);
        let (key, _) = key_and_artifacts(0.95);
        for expected_misses in 1..=2u64 {
            cache
                .get_or_try_insert_with::<SladeError>(key.clone(), || {
                    Ok(Arc::new(PassThroughArtifacts::new(theta(0.95))))
                })
                .unwrap();
            assert!(cache.is_empty());
            assert_eq!(cache.stats().misses, expected_misses);
        }
    }

    #[test]
    fn compute_errors_pass_through_and_cache_nothing() {
        let cache = ArtifactCache::new(4);
        let (key, artifacts) = key_and_artifacts(0.95);
        let err = cache
            .get_or_try_insert_with(key.clone(), || {
                Err::<Arc<dyn SolveArtifacts>, _>(SladeError::EmptyEnumeration)
            })
            .unwrap_err();
        assert_eq!(err, SladeError::EmptyEnumeration);
        assert!(cache.is_empty());
        // The next lookup can still succeed (in particular, a failed
        // single-flight leader must not wedge the key).
        cache
            .get_or_try_insert_with::<SladeError>(key, || Ok(artifacts))
            .unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn single_flight_dedups_concurrent_cold_misses() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        const RACERS: usize = 8;
        let cache = Arc::new(ArtifactCache::new(8));
        let computes = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(RACERS));
        let results: Vec<Arc<dyn SolveArtifacts>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..RACERS)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let computes = Arc::clone(&computes);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        let (key, _) = key_and_artifacts(0.95);
                        barrier.wait();
                        cache
                            .get_or_try_insert_with::<SladeError>(key, || {
                                computes.fetch_add(1, Ordering::SeqCst);
                                // Hold the flight open long enough that the
                                // other racers must park on it.
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                let (_, artifacts) = key_and_artifacts(0.95);
                                Ok(artifacts)
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "exactly one racer computes"
        );
        // Everyone shares the winner's allocation.
        assert!(results.iter().all(|a| Arc::ptr_eq(a, &results[0])));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits as usize, RACERS - 1);
        assert_eq!(stats.singleflight_waits as usize, RACERS - 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn a_failed_leader_releases_waiters_to_compute_individually() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        const RACERS: usize = 4;
        let cache = Arc::new(ArtifactCache::new(8));
        let computes = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(RACERS));
        let outcomes: Vec<Result<(), SladeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..RACERS)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let computes = Arc::clone(&computes);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        let (key, _) = key_and_artifacts(0.95);
                        barrier.wait();
                        cache
                            .get_or_try_insert_with::<SladeError>(key, || {
                                let n = computes.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                if n == 0 {
                                    // Whoever leads first fails...
                                    Err(SladeError::EmptyEnumeration)
                                } else {
                                    // ...fallback computes succeed.
                                    let (_, artifacts) = key_and_artifacts(0.95);
                                    Ok(artifacts)
                                }
                            })
                            .map(|_| ())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let failures = outcomes.iter().filter(|o| o.is_err()).count();
        assert_eq!(failures, 1, "exactly the failing leader sees its error");
        assert!(computes.load(Ordering::SeqCst) >= 2, "waiters recomputed");
        // The key is not wedged: it is resident (some fallback inserted it).
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shard_occupancy_sums_to_len() {
        let cache = ArtifactCache::new(64);
        for t in [0.90, 0.93, 0.95, 0.97, 0.99] {
            let (key, artifacts) = key_and_artifacts(t);
            cache
                .get_or_try_insert_with::<SladeError>(key, || Ok(artifacts))
                .unwrap();
        }
        let occupancy = cache.shard_occupancy();
        assert_eq!(occupancy.len(), CACHE_SHARDS);
        assert_eq!(occupancy.iter().sum::<usize>(), cache.len());
        assert_eq!(cache.len(), 5);
    }
}
