//! Sharded multi-client aggregating cache — the server-position tier.
//!
//! The paper's server deployment (§4.3) funnels *many* clients' miss
//! streams into one aggregating cache. A single-threaded
//! [`AggregatingCache`] serializes that convergence; this module
//! partitions both the residency directory and the successor table
//! across `N` shards so concurrent clients contend only on the shard
//! their requested file hashes to.
//!
//! # Shard layout
//!
//! Every [`FileId`] is assigned to exactly one shard by a fixed
//! SplitMix64-finalizer hash ([`ShardedAggregatingCache::shard_of`]).
//! Each shard owns a complete [`AggregatingCache`] — an LRU residency
//! slice plus its own successor table — guarded by one
//! [`std::sync::Mutex`]. The hash-partitioning invariant follows
//! directly: a file's residency entry *and* its successor list live on
//! exactly one shard, so no operation ever takes more than one lock and
//! lock order cannot deadlock.
//!
//! Each shard therefore learns successor relationships from the
//! sub-stream of requests that hash to it. With `shards == 1` the
//! composition degenerates to a plain [`AggregatingCache`] and is
//! bit-identical to it (same hit/miss sequence, same statistics) — the
//! differential fuzzer in `tests/sharded_differential.rs` pins both
//! this and the general `N`-shard equivalence to `N` independent
//! per-partition caches.
//!
//! The shard boundary is where a networked fetch transport will later
//! plug in: a shard is a self-contained server tier for its slice of
//! the id space.
//!
//! # Examples
//!
//! ```
//! use fgcache_core::ShardedAggregatingCacheBuilder;
//! use fgcache_types::FileId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = ShardedAggregatingCacheBuilder::new(400)
//!     .shards(4)
//!     .group_size(5)
//!     .build()?;
//! std::thread::scope(|scope| {
//!     for client in 0..4u64 {
//!         let server = &server;
//!         scope.spawn(move || {
//!             for i in 0..100u64 {
//!                 server.handle_access(FileId(client * 1000 + i % 10));
//!             }
//!         });
//!     }
//! });
//! assert_eq!(server.stats().accesses, 400);
//! server.check_invariants()?;
//! # Ok(())
//! # }
//! ```

use std::sync::Mutex;

use fgcache_types::sync::{AtomicU64, Ordering};

use fgcache_cache::{Cache as _, CacheStats};
use fgcache_types::hash::mix64;
use fgcache_types::sizing::SizeCostAssigner;
use fgcache_types::{AccessOutcome, FileId, InvariantViolation, ValidationError};

use crate::aggregating::{AggregatingCache, GroupFetchStats, InsertionPolicy, MetadataSource};
use crate::builder::{AggregatingCacheBuilder, DEFAULT_SUCCESSOR_CAPACITY};

/// One shard: the locked aggregating cache plus its acquisition counter.
#[derive(Debug)]
struct Shard {
    cache: Mutex<AggregatingCache>,
    /// Times this shard's mutex was acquired (relaxed counter) — the
    /// contention metric the hot-path bench reports as locks/event.
    lock_acquisitions: AtomicU64,
}

/// Maps a file to its shard with the SplitMix64 finalizer — deterministic
/// across runs and platforms, and well-mixed even for sequential ids.
fn shard_index(file: FileId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (mix64(file.as_u64()) % shards as u64) as usize
}

/// Splits a total capacity across `shards` slices: every shard gets
/// `total / shards`, and the remainder goes to the first shards so the
/// slice sizes differ by at most one file.
pub fn partition_capacities(total: usize, shards: usize) -> Vec<usize> {
    let base = total / shards.max(1);
    let rem = total % shards.max(1);
    (0..shards.max(1))
        .map(|i| base + usize::from(i < rem))
        .collect()
}

/// Debug-build witness for the shard-lock ordering discipline: a thread
/// holding several shard locks of one cache must have acquired them in
/// ascending shard order (deadlock freedom for [`ShardedAggregatingCache::snapshot`]
/// and any future multi-shard operation). Every acquisition routes
/// through [`ShardGuard`], which records the `(cache, shard)` pair in a
/// thread-local stack and `debug_assert`s the ordering before blocking
/// on the mutex. Release builds compile all of this away.
#[cfg(debug_assertions)]
mod lock_witness {
    use std::cell::RefCell;

    thread_local! {
        /// `(cache identity, shard index)` pairs this thread holds.
        static HELD: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
    }

    /// Records acquiring shard `idx` of the cache identified by `cache`;
    /// panics if this thread already holds a shard of the same cache
    /// whose index is not strictly below `idx`.
    pub(super) fn acquire(cache: usize, idx: usize) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            let worst = held
                .iter()
                .filter(|&&(c, _)| c == cache)
                .map(|&(_, i)| i)
                .max();
            if let Some(worst) = worst {
                debug_assert!(
                    worst < idx,
                    "lock-order violation: acquiring shard {idx} while holding shard {worst} \
                     (shard locks must be taken in ascending order)"
                );
            }
            held.push((cache, idx));
        });
    }

    /// Records releasing shard `idx` of cache `cache`.
    pub(super) fn release(cache: usize, idx: usize) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            let pos = held
                .iter()
                .rposition(|&e| e == (cache, idx))
                .expect("releasing a shard lock the witness never saw acquired");
            held.remove(pos);
        });
    }
}

/// RAII guard over one shard's cache mutex. Dereferences to the locked
/// [`AggregatingCache`] and keeps the debug-build lock-order witness in
/// sync with the guard's lifetime.
struct ShardGuard<'a> {
    guard: std::sync::MutexGuard<'a, AggregatingCache>,
    #[cfg(debug_assertions)]
    witness: (usize, usize),
}

impl std::ops::Deref for ShardGuard<'_> {
    type Target = AggregatingCache;

    fn deref(&self) -> &AggregatingCache {
        &self.guard
    }
}

impl std::ops::DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut AggregatingCache {
        &mut self.guard
    }
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        lock_witness::release(self.witness.0, self.witness.1);
    }
}

/// A hash-partitioned aggregating cache safe for concurrent clients.
///
/// Construct via [`ShardedAggregatingCacheBuilder`]. All request-path
/// methods take `&self`; each locks exactly the one shard the file
/// hashes to. A request — hit or miss — runs start to finish in one
/// critical section on that shard's mutex, so the locked state never
/// lags the request stream and nothing is left for a later lock holder
/// to apply.
///
/// # Consistency model
///
/// [`snapshot`] acquires **all** shard locks in ascending shard order
/// (the only multi-lock operation besides itself being re-entered —
/// ascending order on both sides, so no deadlock) and reads a single
/// consistent cut. The aggregate accessors
/// ([`stats`], [`group_stats`], [`len`], [`metadata_entries`],
/// [`shard_accesses`], …) are built on that snapshot, so each call is a
/// consistent cut on its own — but two *separate* calls are two
/// different cuts and may disagree under concurrent traffic.
/// The relaxed telemetry counter [`lock_acquisitions`] is sampled with
/// `Relaxed` loads and may be torn across shards / lag the snapshot
/// cut; treat it as a monotonic approximation, exact only after client
/// threads have joined.
///
/// [`snapshot`]: ShardedAggregatingCache::snapshot
/// [`stats`]: ShardedAggregatingCache::stats
/// [`group_stats`]: ShardedAggregatingCache::group_stats
/// [`len`]: ShardedAggregatingCache::len
/// [`metadata_entries`]: ShardedAggregatingCache::metadata_entries
/// [`shard_accesses`]: ShardedAggregatingCache::shard_accesses
/// [`lock_acquisitions`]: ShardedAggregatingCache::lock_acquisitions
#[derive(Debug)]
pub struct ShardedAggregatingCache {
    shards: Vec<Shard>,
    capacity: usize,
}

/// One consistent cut of the whole sharded cache, taken with every shard
/// locked simultaneously (see [`ShardedAggregatingCache::snapshot`]).
#[derive(Debug, Clone)]
pub struct ShardedSnapshot {
    /// Summed cache statistics across all shards.
    pub stats: CacheStats,
    /// Summed group-fetch statistics across all shards.
    pub group_stats: GroupFetchStats,
    /// Total resident files across all shards.
    pub len: usize,
    /// Total successor-table entries across all shards.
    pub metadata_entries: usize,
    /// Requests handled per shard, in shard order.
    pub shard_accesses: Vec<u64>,
    /// Mutex acquisitions across all shards (relaxed sample, including
    /// the acquisitions this snapshot itself performed).
    pub lock_acquisitions: u64,
}

impl ShardedAggregatingCache {
    fn from_shards(shards: Vec<AggregatingCache>, capacity: usize) -> Self {
        ShardedAggregatingCache {
            shards: shards
                .into_iter()
                .map(|cache| Shard {
                    cache: Mutex::new(cache),
                    lock_acquisitions: AtomicU64::new(0),
                })
                .collect(),
            capacity,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total residency capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shard `file` is assigned to.
    pub fn shard_of(&self, file: FileId) -> usize {
        shard_index(file, self.shards.len())
    }

    /// Acquires shard `i`'s mutex, counting the acquisition. Every
    /// locked entry point routes through here.
    fn shard(&self, i: usize) -> ShardGuard<'_> {
        let shard = &self.shards[i];
        shard.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        // Witness before blocking: an out-of-order acquisition is
        // reported as the discipline violation it is, not as the
        // deadlock it may eventually cause.
        #[cfg(debug_assertions)]
        lock_witness::acquire(self.shards.as_ptr() as usize, i);
        ShardGuard {
            guard: shard
                .cache
                .lock()
                .expect("a shard panicked while holding its lock"),
            #[cfg(debug_assertions)]
            witness: (self.shards.as_ptr() as usize, i),
        }
    }

    /// Handles one demand request on the owning shard, under that
    /// shard's mutex (one lock, never more).
    pub fn handle_access(&self, file: FileId) -> AccessOutcome {
        self.shard(self.shard_of(file)).handle_access(file)
    }

    /// Feeds a metadata-only observation to the owning shard's successor
    /// table without touching residency (piggy-backed client statistics).
    pub fn observe_metadata(&self, file: FileId) {
        self.shard(self.shard_of(file)).observe_metadata(file);
    }

    /// Runs `f` against the shard owning `file` — the escape hatch for
    /// tests and future transports that need the full per-shard API.
    pub fn with_shard_of<R>(&self, file: FileId, f: impl FnOnce(&AggregatingCache) -> R) -> R {
        f(&self.shard(self.shard_of(file)))
    }

    /// Returns `true` if no shard holds any file.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `file` is resident (on its owning shard).
    pub fn contains(&self, file: FileId) -> bool {
        self.shard(self.shard_of(file)).contains(file)
    }

    /// Every resident file, in ascending shard order (each shard's own
    /// residency order within). Takes one shard lock at a time, so the
    /// result is per-shard consistent rather than a global cut — enough
    /// for the cluster rebalance report, which counts residents that a
    /// new membership view assigns to a different owner.
    pub fn resident_files(&self) -> Vec<FileId> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            let guard = self.shard(i);
            out.extend(guard.residents());
        }
        out
    }

    /// Always 0: every hit takes its shard's mutex. Kept only because
    /// the stack benchmark's per-layer ledger still reads it (as
    /// `core.sharded_fast_hit_frac`).
    pub fn fast_path_hits(&self) -> u64 {
        0
    }

    /// Total shard-mutex acquisitions: one per request, plus those the
    /// inspection calls take. Relaxed sample.
    pub fn lock_acquisitions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock_acquisitions.load(Ordering::Relaxed))
            .sum()
    }

    /// Takes one consistent cut of the whole cache: acquires every shard
    /// lock in ascending shard order and reads every aggregate in a
    /// single pass while all locks are held. This is the only operation
    /// that holds more than one lock; the ascending order makes
    /// concurrent snapshots deadlock-free.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let guards: Vec<_> = (0..self.shards.len()).map(|i| self.shard(i)).collect();
        let mut stats = CacheStats::new();
        let mut group_stats = GroupFetchStats::default();
        let mut len = 0;
        let mut metadata_entries = 0;
        let mut shard_accesses = Vec::with_capacity(guards.len());
        for guard in &guards {
            let s = *guard.stats();
            stats.accesses += s.accesses;
            stats.hits += s.hits;
            stats.misses += s.misses;
            stats.speculative_inserts += s.speculative_inserts;
            stats.speculative_hits += s.speculative_hits;
            stats.evictions += s.evictions;
            let g = *guard.group_stats();
            group_stats.demand_fetches += g.demand_fetches;
            group_stats.files_transferred += g.files_transferred;
            group_stats.members_already_resident += g.members_already_resident;
            group_stats.size_units_transferred += g.size_units_transferred;
            len += guard.len();
            metadata_entries += guard.metadata_entries();
            shard_accesses.push(guard.accesses());
        }
        ShardedSnapshot {
            stats,
            group_stats,
            len,
            metadata_entries,
            shard_accesses,
            lock_acquisitions: self.lock_acquisitions(),
        }
    }

    /// Total resident files across all shards (one [`snapshot`] cut).
    ///
    /// [`snapshot`]: Self::snapshot
    pub fn len(&self) -> usize {
        self.snapshot().len
    }

    /// Summed cache statistics across all shards (one [`snapshot`] cut).
    ///
    /// [`snapshot`]: Self::snapshot
    pub fn stats(&self) -> CacheStats {
        self.snapshot().stats
    }

    /// Summed group-fetch statistics across all shards (one
    /// [`snapshot`] cut).
    ///
    /// [`snapshot`]: Self::snapshot
    pub fn group_stats(&self) -> GroupFetchStats {
        self.snapshot().group_stats
    }

    /// Total demand fetches (misses) across all shards.
    pub fn demand_fetches(&self) -> u64 {
        self.group_stats().demand_fetches
    }

    /// Aggregate demand hit rate across all shards.
    pub fn hit_rate(&self) -> f64 {
        self.stats().hit_rate()
    }

    /// Total successor-table entries across all shards (one
    /// [`snapshot`] cut).
    ///
    /// [`snapshot`]: Self::snapshot
    pub fn metadata_entries(&self) -> usize {
        self.snapshot().metadata_entries
    }

    /// Requests handled per shard, in shard order — the load profile the
    /// hash produced (one [`snapshot`] cut).
    ///
    /// [`snapshot`]: Self::snapshot
    pub fn shard_accesses(&self) -> Vec<u64> {
        self.snapshot().shard_accesses
    }

    /// Load imbalance: the busiest shard's request count divided by the
    /// mean per-shard count (1.0 = perfectly balanced; 0 with no
    /// requests).
    pub fn shard_imbalance(&self) -> f64 {
        let loads = self.shard_accesses();
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / loads.len() as f64;
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }

    /// Drops all resident files, successor metadata, statistics, and
    /// the lock counters.
    pub fn clear(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            self.shard(i).clear();
            shard.lock_acquisitions.store(0, Ordering::Relaxed);
        }
    }

    /// Audits every shard's internal invariants plus the cross-shard
    /// partition invariants: each shard's resident files *and* tracked
    /// successor-list keys hash to that shard, and no file is resident
    /// on two shards.
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantViolation`] describing the first violated
    /// invariant.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let err = |detail: String| Err(InvariantViolation::new("ShardedAggregatingCache", detail));
        let mut total_capacity = 0;
        for i in 0..self.shards.len() {
            let guard = self.shard(i);
            guard.check_invariants()?;
            total_capacity += guard.capacity();
            for file in guard.residents() {
                let owner = shard_index(file, self.shards.len());
                if owner != i {
                    return err(format!(
                        "resident file {file} found on shard {i}, hashes to shard {owner}"
                    ));
                }
            }
            for file in guard.tracked_files() {
                let owner = shard_index(file, self.shards.len());
                if owner != i {
                    return err(format!(
                        "successor list for {file} found on shard {i}, hashes to shard {owner}"
                    ));
                }
            }
        }
        if total_capacity != self.capacity {
            return err(format!(
                "shard capacities sum to {total_capacity}, configured total is {}",
                self.capacity
            ));
        }
        Ok(())
    }
}

/// Configures and constructs a [`ShardedAggregatingCache`].
///
/// ```
/// use fgcache_core::ShardedAggregatingCacheBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let server = ShardedAggregatingCacheBuilder::new(300)
///     .shards(2)
///     .group_size(5)
///     .successor_capacity(8)
///     .build()?;
/// assert_eq!(server.shard_count(), 2);
/// assert_eq!(server.capacity(), 300);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedAggregatingCacheBuilder {
    capacity: usize,
    shards: usize,
    group_size: usize,
    successor_capacity: usize,
    insertion: InsertionPolicy,
    metadata: MetadataSource,
    sizes: Option<SizeCostAssigner>,
    bundle_eviction: bool,
}

impl ShardedAggregatingCacheBuilder {
    /// Starts a builder for a sharded cache of `capacity` total files.
    /// Defaults: 1 shard, group size 5, successor capacity
    /// [`DEFAULT_SUCCESSOR_CAPACITY`], tail insertion, metadata from
    /// requests — matching [`AggregatingCacheBuilder`].
    pub fn new(capacity: usize) -> Self {
        ShardedAggregatingCacheBuilder {
            capacity,
            shards: 1,
            group_size: 5,
            successor_capacity: DEFAULT_SUCCESSOR_CAPACITY,
            insertion: InsertionPolicy::default(),
            metadata: MetadataSource::default(),
            sizes: None,
            bundle_eviction: false,
        }
    }

    /// Gives files sizes and retrieval costs (see
    /// [`AggregatingCacheBuilder::sizes`]). Each shard accounts its own
    /// capacity slice in size units.
    pub fn sizes(mut self, assigner: SizeCostAssigner) -> Self {
        self.sizes = Some(assigner);
        self
    }

    /// Enables whole-group (bundle) eviction on every shard (see
    /// [`AggregatingCacheBuilder::bundle_eviction`]); requires
    /// [`Self::sizes`].
    pub fn bundle_eviction(mut self, enabled: bool) -> Self {
        self.bundle_eviction = enabled;
        self
    }

    /// Sets the shard count `N`.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the group size `g` (1 = plain sharded LRU).
    pub fn group_size(mut self, g: usize) -> Self {
        self.group_size = g;
        self
    }

    /// Sets the per-file successor list capacity.
    pub fn successor_capacity(mut self, capacity: usize) -> Self {
        self.successor_capacity = capacity;
        self
    }

    /// Sets where speculative group members are placed.
    pub fn insertion_policy(mut self, policy: InsertionPolicy) -> Self {
        self.insertion = policy;
        self
    }

    /// Sets where successor observations come from.
    pub fn metadata_source(mut self, source: MetadataSource) -> Self {
        self.metadata = source;
        self
    }

    /// Validates the configuration and constructs the sharded cache.
    ///
    /// Feasibility is judged against the **total** capacity: a group
    /// must fit in the cache as a whole (`group_size <= capacity`), not
    /// in every shard's slice. Shards whose slice is smaller than the
    /// group size get their per-shard group size clamped to the slice —
    /// exactly the members such a shard could retain anyway (the
    /// aggregating cache never admits more than `slice - 1` speculative
    /// members alongside the requested file).
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] if the shard count is zero, the
    /// capacity cannot give every shard at least one file
    /// (`capacity < shards`), the group size exceeds the **total**
    /// capacity, or any shard's configuration fails
    /// [`AggregatingCacheBuilder`] validation.
    pub fn build(&self) -> Result<ShardedAggregatingCache, ValidationError> {
        if self.shards == 0 {
            return Err(ValidationError::new(
                "shards",
                "at least one shard is required",
            ));
        }
        if self.capacity < self.shards {
            return Err(ValidationError::new(
                "capacity",
                format!(
                    "capacity {} cannot give each of {} shards at least one file",
                    self.capacity, self.shards
                ),
            ));
        }
        if self.group_size > self.capacity {
            return Err(ValidationError::new(
                "group_size",
                "a whole group must fit in the cache (group_size <= total capacity)",
            ));
        }
        let slices = partition_capacities(self.capacity, self.shards);
        let mut shards = Vec::with_capacity(self.shards);
        for slice in slices {
            let mut builder = AggregatingCacheBuilder::new(slice)
                .group_size(self.group_size.min(slice))
                .successor_capacity(self.successor_capacity)
                .insertion_policy(self.insertion)
                .metadata_source(self.metadata)
                .bundle_eviction(self.bundle_eviction);
            if let Some(assigner) = self.sizes {
                builder = builder.sizes(assigner);
            }
            shards.push(builder.build()?);
        }
        Ok(ShardedAggregatingCache::from_shards(shards, self.capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(capacity: usize, shards: usize) -> ShardedAggregatingCache {
        ShardedAggregatingCacheBuilder::new(capacity)
            .shards(shards)
            .group_size(3)
            .build()
            .unwrap()
    }

    #[test]
    fn snapshot_and_invariants_respect_lock_order() {
        let c = sharded(64, 4);
        for i in 0..200 {
            c.handle_access(FileId(i));
        }
        // snapshot() holds all four shard locks at once (ascending);
        // check_invariants() takes them one at a time. Both leave the
        // witness stack empty, so back-to-back passes keep working.
        let snap = c.snapshot();
        assert_eq!(snap.len, c.len());
        c.check_invariants().unwrap();
        let _ = c.snapshot();
        c.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_snapshots_are_deadlock_free() {
        let c = std::sync::Arc::new(sharded(64, 4));
        let mut handles = Vec::new();
        for t in 0..2 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..300u64 {
                    c.handle_access(FileId(t * 1000 + i));
                    if i % 50 == 0 {
                        let _ = c.snapshot();
                        c.check_invariants().unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        c.check_invariants().unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn descending_shard_acquisition_is_caught() {
        let c = sharded(64, 4);
        let _held = c.shard(1);
        let _violation = c.shard(0); // descending: the witness must fire
    }

    #[test]
    fn validation() {
        assert!(ShardedAggregatingCacheBuilder::new(10)
            .shards(0)
            .build()
            .is_err());
        // 10 files over 4 shards slices to [3, 3, 2, 2]: slices below
        // the group size are fine as long as the *total* holds a group
        // (the per-shard group size is clamped to the slice).
        assert!(ShardedAggregatingCacheBuilder::new(10)
            .shards(4)
            .group_size(3)
            .build()
            .is_ok());
        assert!(ShardedAggregatingCacheBuilder::new(12)
            .shards(4)
            .group_size(3)
            .build()
            .is_ok());
        // The total capacity is still a hard bound for the group...
        let err = ShardedAggregatingCacheBuilder::new(10)
            .shards(4)
            .group_size(11)
            .build()
            .unwrap_err();
        assert_eq!(err.parameter(), "group_size");
        // ...and every shard still needs at least one file.
        let err = ShardedAggregatingCacheBuilder::new(3)
            .shards(4)
            .build()
            .unwrap_err();
        assert_eq!(err.parameter(), "capacity");
        assert!(ShardedAggregatingCacheBuilder::new(0).build().is_err());
    }

    #[test]
    fn valid_configs_with_small_slices_build() {
        // Regression: capacity 10 over 4 shards slices to [3, 3, 2, 2];
        // with group size 5 every slice is below g even though the total
        // capacity holds two whole groups. The builder used to hand each
        // shard its raw slice and fail the per-shard `group_size <=
        // capacity` check, rejecting a perfectly valid configuration.
        let c = ShardedAggregatingCacheBuilder::new(10)
            .shards(4)
            .group_size(5)
            .build()
            .expect("total capacity 10 holds a group of 5");
        assert_eq!(c.capacity(), 10);
        assert_eq!(c.shard_count(), 4);
        for i in 0..200u64 {
            c.handle_access(FileId(i % 20));
        }
        c.check_invariants().unwrap();
        assert!(c.len() <= 10);
        // Per-shard group size is clamped to the slice, so no shard can
        // transfer more than its slice per fetch.
        let g = c.group_stats();
        assert!(g.files_transferred <= g.demand_fetches * 3);
    }

    #[test]
    fn capacity_partition_differs_by_at_most_one() {
        assert_eq!(partition_capacities(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(partition_capacities(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(partition_capacities(7, 1), vec![7]);
        assert_eq!(partition_capacities(3, 3), vec![1, 1, 1]);
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        let c = sharded(40, 4);
        for id in 0..1000u64 {
            let s = c.shard_of(FileId(id));
            assert!(s < 4);
            assert_eq!(s, c.shard_of(FileId(id)), "assignment must be stable");
        }
        let single = sharded(40, 1);
        assert!((0..1000u64).all(|id| single.shard_of(FileId(id)) == 0));
    }

    #[test]
    fn hash_spreads_sequential_ids() {
        let c = sharded(40, 4);
        let mut counts = [0usize; 4];
        for id in 0..4000u64 {
            counts[c.shard_of(FileId(id))] += 1;
        }
        for (i, &n) in counts.iter().enumerate() {
            assert!(
                (800..1200).contains(&n),
                "shard {i} got {n} of 4000 sequential ids"
            );
        }
    }

    #[test]
    fn basic_accounting_sums_across_shards() {
        let c = sharded(40, 4);
        for round in 0..3 {
            for id in 0..20u64 {
                let outcome = c.handle_access(FileId(id));
                if round == 0 {
                    assert!(outcome.is_miss());
                }
            }
        }
        let stats = c.stats();
        assert_eq!(stats.accesses, 60);
        assert_eq!(stats.hits + stats.misses, 60);
        assert!(c.contains(FileId(0)));
        assert!(!c.contains(FileId(999)));
        assert_eq!(c.len(), 20);
        assert_eq!(c.demand_fetches(), stats.misses);
        assert!(c.hit_rate() > 0.0);
        assert!(c.metadata_entries() > 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn shard_loads_and_imbalance() {
        let c = sharded(40, 4);
        assert_eq!(c.shard_imbalance(), 0.0); // no requests yet
        for id in 0..400u64 {
            c.handle_access(FileId(id));
        }
        let loads = c.shard_accesses();
        assert_eq!(loads.iter().sum::<u64>(), 400);
        let imb = c.shard_imbalance();
        assert!((1.0..2.0).contains(&imb), "imbalance {imb}");
    }

    #[test]
    fn concurrent_clients_agree_on_totals() {
        let c = sharded(64, 4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..2000u64 {
                        c.handle_access(FileId((t * 13 + i) % 80));
                    }
                });
            }
        });
        // Joined: the relaxed lock counter is exact, one per access.
        assert_eq!(c.lock_acquisitions(), 8000);
        let stats = c.stats();
        assert_eq!(stats.accesses, 8000);
        assert_eq!(stats.hits + stats.misses, 8000);
        assert_eq!(c.shard_accesses().iter().sum::<u64>(), 8000);
        c.check_invariants().unwrap();
    }

    #[test]
    fn observe_metadata_feeds_owning_shard_only() {
        let c = ShardedAggregatingCacheBuilder::new(40)
            .shards(4)
            .group_size(3)
            .metadata_source(MetadataSource::External)
            .build()
            .unwrap();
        for id in 0..50u64 {
            c.observe_metadata(FileId(id));
        }
        assert_eq!(c.len(), 0); // metadata only, no residency
        c.check_invariants().unwrap();
    }

    #[test]
    fn clear_resets_everything() {
        let c = sharded(40, 2);
        for id in 0..30u64 {
            c.handle_access(FileId(id));
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.metadata_entries(), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn with_shard_of_reaches_per_shard_state() {
        let c = sharded(40, 4);
        c.handle_access(FileId(5));
        let (resident, accesses) =
            c.with_shard_of(FileId(5), |s| (s.contains(FileId(5)), s.accesses()));
        assert!(resident);
        assert_eq!(accesses, 1);
    }

    #[test]
    fn every_access_takes_exactly_one_lock() {
        // A hit-heavy stream (10 hot files, one cold miss in ten) on a
        // fresh cache: hits and misses alike run under the shard mutex,
        // so the lock count equals the access count exactly.
        let c = sharded(40, 4);
        let mut state = 5u64;
        let accesses = 5000u64;
        for i in 0..accesses {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let file = if i % 10 == 9 {
                100 + (state >> 33) % 1000
            } else {
                (state >> 33) % 10
            };
            c.handle_access(FileId(file));
        }
        // Read before any inspection call: those take the locks too.
        assert_eq!(c.lock_acquisitions(), accesses);
        assert_eq!(c.fast_path_hits(), 0);
        let stats = c.stats();
        assert_eq!(stats.accesses, accesses);
        assert!(
            stats.hits * 10 > accesses * 8,
            "stream must be hit-heavy: {stats:?}"
        );
        c.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_is_one_consistent_cut() {
        let c = sharded(40, 4);
        for id in 0..100u64 {
            c.handle_access(FileId(id % 30));
        }
        let snap = c.snapshot();
        assert_eq!(snap.stats.accesses, 100);
        assert_eq!(snap.stats, c.stats());
        assert_eq!(snap.group_stats, c.group_stats());
        assert_eq!(snap.len, c.len());
        assert_eq!(snap.metadata_entries, c.metadata_entries());
        assert_eq!(snap.shard_accesses.iter().sum::<u64>(), 100);
        assert!(snap.lock_acquisitions > 0);
    }
}
