//! The aggregating cache implementation.

mod directory;

use std::fmt;

use fgcache_cache::{Cache, CacheStats};
use fgcache_types::sizing::SizeCostAssigner;
use fgcache_types::{AccessOutcome, FileId, InvariantViolation};

use directory::Directory;

/// Where speculative group members are placed in the LRU order.
///
/// The paper appends them to the tail and reports that "exact placement of
/// the remaining group members was found to have little effect if the
/// cache is several times the group size" — [`InsertionPolicy::Head`]
/// exists to reproduce that ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InsertionPolicy {
    /// Append group members at the LRU tail (the paper's choice).
    #[default]
    Tail,
    /// Insert group members directly below the requested file at the MRU
    /// head (aggressive placement).
    Head,
}

impl fmt::Display for InsertionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InsertionPolicy::Tail => "tail",
            InsertionPolicy::Head => "head",
        })
    }
}

/// Where the successor table gets its observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MetadataSource {
    /// Every request handled by this cache feeds the table (client
    /// deployment on the raw stream, or an uncooperative server on the
    /// miss stream).
    #[default]
    Requests,
    /// The table is fed externally via
    /// [`AggregatingCache::observe_metadata`] (piggy-backed client
    /// statistics at the server); handled requests do *not* feed it.
    External,
}

impl fmt::Display for MetadataSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MetadataSource::Requests => "requests",
            MetadataSource::External => "external",
        })
    }
}

/// Counters describing the group-fetch behaviour of an
/// [`AggregatingCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupFetchStats {
    /// Demand fetches performed (equals cache misses).
    pub demand_fetches: u64,
    /// Total files transferred across all group fetches (requested +
    /// speculative members actually brought in).
    pub files_transferred: u64,
    /// Speculative members that were already resident and therefore not
    /// re-fetched.
    pub members_already_resident: u64,
    /// Total size units moved across all group fetches. Zero in the
    /// fixed-cost configuration (no size assigner), where every file is
    /// implicitly one unit and `files_transferred` already is the
    /// payload; in sized configurations this is what
    /// `CostModel::total_sized` prices.
    pub size_units_transferred: u64,
}

impl GroupFetchStats {
    /// Mean number of files per demand fetch (≥ 1); 0 with no fetches.
    pub fn mean_group_size(&self) -> f64 {
        if self.demand_fetches == 0 {
            0.0
        } else {
            self.files_transferred as f64 / self.demand_fetches as f64
        }
    }
}

/// The aggregating cache: LRU residency + successor-driven group fetching.
///
/// Construct via [`AggregatingCacheBuilder`](crate::AggregatingCacheBuilder).
/// With `group_size == 1` the cache degenerates to plain LRU, which is how
/// the experiments obtain their baseline from identical code paths.
///
/// A file's residency and its successor list share one record in a
/// private per-file directory, so every access makes exactly one hash
/// probe — for the requested file — and a group fetch walks the
/// successor chain by slot index.
#[derive(Debug, Clone)]
pub struct AggregatingCache {
    dir: Directory,
    group_size: usize,
    insertion: InsertionPolicy,
    metadata: MetadataSource,
    accesses: u64,
    group_stats: GroupFetchStats,
    // Size/cost awareness. `None` is the paper's fixed-cost model: every
    // file is one unit and no unit is ever counted. `Some(assigner)`
    // switches residency accounting to size units (the count capacity
    // doubles as the unit capacity); with a uniform assigner the sized
    // configuration is bit-identical to the fixed-cost one (the
    // differential fuzzers enforce this, residency order included).
    assigner: Option<SizeCostAssigner>,
    units_used: u64,
    // Scratch buffers reused across misses so steady-state group
    // assembly performs zero heap allocation (group sizes are single
    // digits, so these reach their high-water mark almost immediately).
    members: Vec<u32>,
    batch: Vec<u32>,
    fetched: Vec<FileId>,
}

impl AggregatingCache {
    /// An empty cache. The builder has validated every argument: all
    /// three sizes are non-zero and `group_size <= capacity`.
    pub(crate) fn new(
        capacity: usize,
        group_size: usize,
        successor_capacity: usize,
        insertion: InsertionPolicy,
        metadata: MetadataSource,
        assigner: Option<SizeCostAssigner>,
    ) -> Self {
        AggregatingCache {
            dir: Directory::new(capacity, successor_capacity),
            group_size,
            insertion,
            metadata,
            accesses: 0,
            group_stats: GroupFetchStats::default(),
            assigner,
            units_used: 0,
            members: Vec::new(),
            batch: Vec::new(),
            fetched: Vec::new(),
        }
    }

    /// Handles one demand request.
    ///
    /// Updates the successor lists (when the metadata source is
    /// [`MetadataSource::Requests`]), then serves the request: a hit
    /// refreshes LRU position; a miss performs a *group fetch* — the
    /// requested file enters at the MRU head and the group's speculative
    /// members are inserted per the configured [`InsertionPolicy`].
    pub fn handle_access(&mut self, file: FileId) -> AccessOutcome {
        self.handle_access_with_fetch(file).0
    }

    /// Like [`Self::handle_access`], but additionally returns the exact
    /// list of files a demand miss transferred (the requested file first,
    /// then the speculative members actually brought in — already-resident
    /// members and capacity-truncated ones excluded). `None` on a hit.
    ///
    /// This is the hook a fetch transport uses to carry *real* group
    /// fetches over a wire: the returned list's length always equals the
    /// increment to [`GroupFetchStats::files_transferred`], so transport
    /// counters and cache counters share one source of truth.
    ///
    /// The list borrows an internal scratch buffer (overwritten by the
    /// next miss), so the steady-state miss path allocates nothing;
    /// callers that need to keep the list copy it out (`to_vec`).
    pub fn handle_access_with_fetch(&mut self, file: FileId) -> (AccessOutcome, Option<&[FileId]>) {
        self.accesses += 1;
        let slot = self.dir.slot(file);
        if self.metadata == MetadataSource::Requests {
            self.dir.record(slot);
        }
        if self.dir.is_resident(slot) {
            self.dir.hit(slot);
            return (AccessOutcome::Hit, None);
        }
        self.group_fetch(file, slot);
        (AccessOutcome::Miss, Some(&self.fetched))
    }

    /// The demand-miss path: fetch the requested file plus up to `g − 1`
    /// chained successors that are not yet resident.
    ///
    /// The operation order is the same in both cost models — walk the
    /// chain, admit the requested file (evicting for it), scan the
    /// members, make room for the member batch, insert the batch — so a
    /// uniform assigner reproduces the fixed-cost victim sequence
    /// exactly. Sized, admission and the transfer ledger run in size
    /// units and a fetched group is charged as a unit; fixed-cost, every
    /// unit count below is zero.
    fn group_fetch(&mut self, file: FileId, slot: u32) {
        self.group_stats.demand_fetches += 1;
        self.fetched.clear();
        self.fetched.push(file);
        self.batch.clear();
        let file_units = self.units_of(slot);
        if file_units > self.unit_capacity() {
            // Larger than the whole cache: the fetch happens (and is
            // charged) but admission is impossible, and speculating on
            // group members of a file we cannot even keep is pointless.
            self.dir.record_miss();
            self.group_stats.files_transferred += 1;
            self.group_stats.size_units_transferred += file_units;
            return;
        }
        let mut members = std::mem::take(&mut self.members);
        self.dir.chain_into(slot, self.group_size - 1, &mut members);
        self.make_units_room(file_units);
        self.dir.admit(slot);
        self.units_used += file_units;
        self.group_stats.files_transferred += 1;
        // A group never displaces its own requested file, so at most
        // capacity − 1 speculative members enter. Sized, members join
        // while the group's cumulative footprint still fits alongside the
        // requested file; the rest of the group is trimmed, not force-fit.
        let max_members = self.dir.capacity() - 1;
        let mut batch_units = 0u64;
        for &m in &members {
            if self.dir.is_resident(m) {
                self.group_stats.members_already_resident += 1;
            } else if self.batch.len() < max_members {
                let m_units = self.units_of(m);
                if file_units + batch_units + m_units <= self.unit_capacity() {
                    self.batch.push(m);
                    batch_units += m_units;
                }
            }
        }
        self.members = members;
        self.group_stats.files_transferred += self.batch.len() as u64;
        self.group_stats.size_units_transferred += file_units + batch_units;
        // Room for the whole batch up front (the group is charged as a
        // unit), so batch members cannot displace each other — or the
        // requested file, which sits at the MRU head.
        self.make_units_room(batch_units);
        self.dir.insert_speculative_batch(&self.batch);
        if self.insertion == InsertionPolicy::Head {
            // Place members directly below the requested file: promote
            // least-confident first, then re-assert the requested file at
            // the MRU head. Promoting resident entries cannot evict, so
            // the requested file survives its own group fetch at any
            // capacity >= group size.
            for &m in self.batch.iter().rev() {
                self.dir.promote(m);
            }
            self.dir.promote(slot);
        }
        self.units_used += batch_units;
        let dir = &self.dir;
        self.fetched.extend(self.batch.iter().map(|&m| dir.file(m)));
    }

    /// The capacity in size units. The count capacity doubles as the
    /// unit capacity: with uniform sizes (one unit per file) the two
    /// accountings coincide, which is what makes the sized configuration
    /// degenerate bit-identically to the fixed-cost one.
    fn unit_capacity(&self) -> u64 {
        self.dir.capacity() as u64
    }

    /// The slot's size in units; 0 in the fixed-cost configuration.
    fn units_of(&self, slot: u32) -> u64 {
        self.assigner
            .map_or(0, |a| u64::from(a.size_of(self.dir.file(slot))))
    }

    /// Evicts LRU tail victims until `need` more units fit. Never loops
    /// in the fixed-cost configuration, where no unit is counted.
    fn make_units_room(&mut self, need: u64) {
        while self.units_used + need > self.unit_capacity() {
            let Some(victim) = self.dir.lru() else {
                break;
            };
            if self.dir.evict(victim) {
                self.units_used -= self.units_of(victim);
            }
        }
    }

    /// Feeds one access observation into the successor lists without
    /// touching residency — piggy-backed client statistics arriving at a
    /// server-deployed aggregating cache.
    pub fn observe_metadata(&mut self, file: FileId) {
        let slot = self.dir.slot(file);
        self.dir.record(slot);
    }

    /// Demand fetches performed so far (the paper's Figure 3 metric;
    /// equal to the miss count).
    pub fn demand_fetches(&self) -> u64 {
        self.group_stats.demand_fetches
    }

    /// Demand hit rate over all handled requests.
    pub fn hit_rate(&self) -> f64 {
        self.dir.stats().hit_rate()
    }

    /// Requests handled.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Group-fetch statistics.
    pub fn group_stats(&self) -> &GroupFetchStats {
        &self.group_stats
    }

    /// The size/cost assigner, if this cache runs in sized mode.
    pub fn size_assigner(&self) -> Option<SizeCostAssigner> {
        self.assigner
    }

    /// Size units currently resident. Only meaningful in sized mode
    /// (always 0 in the fixed-cost configuration, where [`Self::len`]
    /// is the occupancy).
    pub fn units_used(&self) -> u64 {
        self.units_used
    }

    /// The configured group size `g`.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Files with at least one recorded successor, in unspecified order
    /// (for metadata accounting and partition audits).
    pub fn tracked_files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.dir.tracked_files()
    }

    /// Metadata footprint: total successor entries tracked.
    pub fn metadata_entries(&self) -> usize {
        self.dir.metadata_entries()
    }

    /// Resident files in MRU→LRU order (for partition audits and tests).
    pub fn residents(&self) -> impl Iterator<Item = FileId> + '_ {
        self.dir.iter_mru()
    }
}

impl Cache for AggregatingCache {
    fn access(&mut self, file: FileId) -> AccessOutcome {
        self.handle_access(file)
    }

    fn insert_speculative(&mut self, file: FileId) -> bool {
        let slot = self.dir.slot(file);
        if self.dir.is_resident(slot) {
            return false;
        }
        let units = self.units_of(slot);
        if units > self.unit_capacity() {
            return false;
        }
        self.make_units_room(units);
        self.units_used += units;
        self.dir.insert_speculative(slot)
    }

    fn contains(&self, file: FileId) -> bool {
        self.dir.find(file).is_some_and(|s| self.dir.is_resident(s))
    }

    fn len(&self) -> usize {
        self.dir.len()
    }

    fn capacity(&self) -> usize {
        self.dir.capacity()
    }

    fn stats(&self) -> &CacheStats {
        self.dir.stats()
    }

    fn name(&self) -> &'static str {
        "agg"
    }

    fn clear(&mut self) {
        self.dir.clear();
        self.accesses = 0;
        self.group_stats = GroupFetchStats::default();
        self.units_used = 0;
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let err = |detail: String| Err(InvariantViolation::new("AggregatingCache", detail));
        self.dir.check_invariants()?;
        let gs = &self.group_stats;
        let stats = self.dir.stats();
        // Every demand fetch is an LRU miss and moves at least the
        // requested file, at most the whole group.
        if gs.demand_fetches != stats.misses {
            return err(format!(
                "{} demand fetches but {} recorded misses",
                gs.demand_fetches, stats.misses
            ));
        }
        if gs.files_transferred < gs.demand_fetches {
            return err(format!(
                "{} files transferred across {} fetches (requested file must always move)",
                gs.files_transferred, gs.demand_fetches
            ));
        }
        let g = self.group_size as u64;
        if gs.files_transferred > gs.demand_fetches.saturating_mul(g) {
            return err(format!(
                "{} files transferred exceeds {} fetches x group size {g}",
                gs.files_transferred, gs.demand_fetches
            ));
        }
        match self.assigner {
            None => {
                // Fixed-cost configuration: none of the sized machinery
                // may have been engaged.
                if self.units_used != 0 {
                    return err(format!(
                        "{} units used without a size assigner",
                        self.units_used
                    ));
                }
                if gs.size_units_transferred != 0 {
                    return err(format!(
                        "{} size units transferred without a size assigner",
                        gs.size_units_transferred
                    ));
                }
            }
            Some(assigner) => {
                if self.units_used > self.unit_capacity() {
                    return err(format!(
                        "{} units used exceeds unit capacity {}",
                        self.units_used,
                        self.unit_capacity()
                    ));
                }
                let resident: u64 = self
                    .dir
                    .iter_mru()
                    .map(|f| u64::from(assigner.size_of(f)))
                    .sum();
                if resident != self.units_used {
                    return err(format!(
                        "residents occupy {resident} units but the ledger says {}",
                        self.units_used
                    ));
                }
                // Every file moved carries at least one unit.
                if gs.size_units_transferred < gs.files_transferred {
                    return err(format!(
                        "{} size units transferred across {} files (each is >= 1 unit)",
                        gs.size_units_transferred, gs.files_transferred
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AggregatingCacheBuilder;
    use fgcache_cache::LruCache;
    use fgcache_types::sizing::SizeDistribution;

    fn agg(capacity: usize, g: usize) -> AggregatingCache {
        AggregatingCacheBuilder::new(capacity)
            .group_size(g)
            .build()
            .unwrap()
    }

    #[test]
    fn group_size_one_equals_plain_lru() {
        let mut plain = LruCache::new(4);
        let mut a = agg(4, 1);
        let seq: Vec<u64> = (0..200)
            .map(|i| [1, 2, 3, 1, 4, 5, 1, 2][(i % 8) as usize])
            .collect();
        for &id in &seq {
            let expected = plain.access(FileId(id));
            let got = a.handle_access(FileId(id));
            assert_eq!(expected, got, "diverged at file {id}");
        }
        assert_eq!(plain.stats().misses, a.demand_fetches());
    }

    #[test]
    fn grouping_reduces_fetches_on_repetitive_workload() {
        let seq: Vec<u64> = (0..400).map(|i| (i % 20) as u64).collect();
        let run = |g: usize| {
            let mut a = agg(10, g); // cache smaller than the 20-file loop
            for &id in &seq {
                a.handle_access(FileId(id));
            }
            a.demand_fetches()
        };
        let lru = run(1);
        let g5 = run(5);
        assert!(
            g5 < lru / 2,
            "g5 fetches {g5} not well below LRU fetches {lru}"
        );
    }

    #[test]
    fn requested_file_is_mru_members_at_tail() {
        // Warm residents 10, 11; then a cold miss on 1 with the known
        // chain 1→2→3 puts 1 at the MRU head and appends the members at
        // the LRU tail in chain order, below every confirmed entry.
        let mut a = AggregatingCacheBuilder::new(10)
            .group_size(3)
            .metadata_source(MetadataSource::External)
            .build()
            .unwrap();
        for id in [1u64, 2, 3, 1, 2, 3] {
            a.observe_metadata(FileId(id));
        }
        a.handle_access(FileId(10));
        a.handle_access(FileId(11));
        assert!(a.handle_access(FileId(1)).is_miss());
        let order: Vec<FileId> = a.residents().collect();
        assert_eq!(
            order,
            vec![FileId(1), FileId(11), FileId(10), FileId(2), FileId(3)]
        );
        a.check_invariants().unwrap();
    }

    #[test]
    fn miss_triggers_group_prefetch() {
        let mut a = AggregatingCacheBuilder::new(10)
            .group_size(3)
            .metadata_source(MetadataSource::External)
            .build()
            .unwrap();
        for id in [1u64, 2, 3, 1, 2, 3] {
            a.observe_metadata(FileId(id));
        }
        assert!(a.handle_access(FileId(1)).is_miss());
        // Group {1,2,3} fetched: 2 and 3 now resident.
        assert!(a.contains(FileId(2)));
        assert!(a.contains(FileId(3)));
        assert!(a.handle_access(FileId(2)).is_hit());
        assert_eq!(a.stats().speculative_hits, 1);
        assert_eq!(a.group_stats().files_transferred, 3);
    }

    #[test]
    fn fetch_list_matches_transfer_counter() {
        let mut a = AggregatingCacheBuilder::new(10)
            .group_size(3)
            .metadata_source(MetadataSource::External)
            .build()
            .unwrap();
        for id in [1u64, 2, 3, 1, 2, 3] {
            a.observe_metadata(FileId(id));
        }
        let before = a.group_stats().files_transferred;
        let (outcome, fetch) = a.handle_access_with_fetch(FileId(1));
        assert!(outcome.is_miss());
        let fetched = fetch.expect("a miss always fetches").to_vec();
        // Requested file first, then the speculative members brought in;
        // length equals the files_transferred increment exactly.
        assert_eq!(fetched[0], FileId(1));
        assert_eq!(
            fetched.len() as u64,
            a.group_stats().files_transferred - before
        );
        for &f in &fetched {
            assert!(a.contains(f), "{f} was fetched but is not resident");
        }
        // A hit fetches nothing.
        let (outcome, fetch) = a.handle_access_with_fetch(FileId(1));
        assert!(outcome.is_hit());
        assert!(fetch.is_none());
    }

    #[test]
    fn already_resident_members_not_transferred() {
        let mut a = AggregatingCacheBuilder::new(10)
            .group_size(3)
            .metadata_source(MetadataSource::External)
            .build()
            .unwrap();
        for id in [1u64, 2, 1, 2] {
            a.observe_metadata(FileId(id));
        }
        a.handle_access(FileId(1)); // fetches group {1, 2}
        assert!(a.contains(FileId(2)));
        // Teach 3 → 2, then request 3: its group member 2 is already
        // resident and must not be transferred again.
        for id in [3u64, 2, 3, 2] {
            a.observe_metadata(FileId(id));
        }
        let before = a.group_stats().files_transferred;
        a.handle_access(FileId(3));
        let transferred = a.group_stats().files_transferred - before;
        assert_eq!(transferred, 1, "only the requested file moves");
        assert!(a.group_stats().members_already_resident > 0);
    }

    #[test]
    fn head_insertion_policy_works() {
        let mut a = AggregatingCacheBuilder::new(10)
            .group_size(3)
            .insertion_policy(InsertionPolicy::Head)
            .build()
            .unwrap();
        for id in [1u64, 2, 3, 1, 2, 3, 1] {
            a.handle_access(FileId(id));
        }
        assert!(a.len() <= 10);
        assert!(a.hit_rate() > 0.0);
    }

    #[test]
    fn head_insertion_requested_file_survives_tiny_capacity() {
        // Regression guard for the Head-insertion ordering hazard: at
        // capacities barely above the group size, inserting/promoting
        // speculative members after the requested file must never evict
        // the file that was just demand-fetched. Exercised at capacity 2
        // and 3 with every admissible group size and a dense cyclic
        // workload so every miss carries a full group.
        for capacity in [2usize, 3] {
            for g in 2..=capacity {
                let mut a = AggregatingCacheBuilder::new(capacity)
                    .group_size(g)
                    .insertion_policy(InsertionPolicy::Head)
                    .build()
                    .unwrap();
                for i in 0..400u64 {
                    let f = FileId(i % 5);
                    a.handle_access(FileId(f.as_u64()));
                    assert!(
                        a.contains(f),
                        "requested file {f} evicted by its own group fetch \
                         (capacity {capacity}, group size {g})"
                    );
                    a.check_invariants().unwrap();
                }
            }
        }
    }

    #[test]
    fn head_insertion_members_sit_below_requested_file() {
        // After a cold miss with a known chain 1→2→3, Head insertion must
        // leave the requested file at the MRU head with the members
        // directly below it, most-confident first.
        let mut a = AggregatingCacheBuilder::new(10)
            .group_size(3)
            .insertion_policy(InsertionPolicy::Head)
            .metadata_source(MetadataSource::External)
            .build()
            .unwrap();
        for id in [1u64, 2, 3, 1, 2, 3] {
            a.observe_metadata(FileId(id));
        }
        a.handle_access(FileId(1));
        let order: Vec<FileId> = a.residents().collect();
        assert_eq!(order, vec![FileId(1), FileId(2), FileId(3)]);
    }

    #[test]
    fn mean_group_size_bounded_by_g() {
        let mut a = agg(50, 5);
        for i in 0..500u64 {
            a.handle_access(FileId(i % 25));
        }
        let mean = a.group_stats().mean_group_size();
        assert!((1.0..=5.0).contains(&mean), "mean group size {mean}");
    }

    #[test]
    fn cache_trait_roundtrip() {
        let mut a = agg(4, 2);
        assert_eq!(a.name(), "agg");
        assert_eq!(a.capacity(), 4);
        assert!(a.access(FileId(1)).is_miss());
        assert!(a.contains(FileId(1)));
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.accesses(), 0);
        assert_eq!(a.metadata_entries(), 0);
    }

    #[test]
    fn uniform_sized_path_is_bit_identical_to_legacy() {
        // The acceptance bar for the whole size/cost feature: with the
        // uniform assigner (size = cost = 1) the sized code path must
        // replay exactly like the fixed-cost path — outcomes, fetch
        // lists, residency order, statistics, everything.
        use fgcache_types::rng::RandomSource;
        use fgcache_types::SeededRng;
        for (capacity, g) in [(4usize, 2usize), (10, 3), (10, 5), (64, 8)] {
            let mut legacy = agg(capacity, g);
            let mut sized = AggregatingCacheBuilder::new(capacity)
                .group_size(g)
                .sizes(SizeCostAssigner::uniform())
                .build()
                .unwrap();
            let mut rng = SeededRng::new(0xC057_C057 ^ capacity as u64);
            for step in 0..3000 {
                let f = FileId(rng.gen_range_inclusive(0, capacity as u64 + 10));
                let (lo, lf) = legacy.handle_access_with_fetch(f);
                let lf = lf.map(<[FileId]>::to_vec);
                let (so, sf) = sized.handle_access_with_fetch(f);
                assert_eq!(
                    lo, so,
                    "outcome diverged at step {step} (cap {capacity} g {g})"
                );
                assert_eq!(
                    lf.as_deref(),
                    sf,
                    "fetch list diverged at step {step} (cap {capacity} g {g})"
                );
                sized.check_invariants().unwrap();
            }
            let l: Vec<FileId> = legacy.residents().collect();
            let r: Vec<FileId> = sized.residents().collect();
            assert_eq!(l, r, "residency order diverged (cap {capacity} g {g})");
            assert_eq!(legacy.stats(), sized.stats());
            assert_eq!(
                legacy.group_stats().demand_fetches,
                sized.group_stats().demand_fetches
            );
            assert_eq!(
                legacy.group_stats().files_transferred,
                sized.group_stats().files_transferred
            );
            assert_eq!(
                sized.group_stats().size_units_transferred,
                sized.group_stats().files_transferred,
                "uniform files are one unit each"
            );
            assert_eq!(sized.units_used(), sized.len() as u64);
        }
    }

    #[test]
    fn sized_admission_trims_group_to_unit_budget() {
        // Bimodal sizes with seed 3: file 27 is the first large (64-unit)
        // file. A cache of 10 units cannot admit it, but small group
        // members still fit — the group is trimmed, not force-fit.
        let a = SizeCostAssigner::new(SizeDistribution::Bimodal, 3);
        let large = (0u64..).map(FileId).find(|&f| a.size_of(f) == 64).unwrap();
        let mut c = AggregatingCacheBuilder::new(10)
            .group_size(3)
            .sizes(a)
            .metadata_source(MetadataSource::External)
            .build()
            .unwrap();
        // Teach requested → {large, small}: small ids 0 and 1 are size 1.
        assert_eq!(a.size_of(FileId(0)), 1);
        assert_eq!(a.size_of(FileId(1)), 1);
        for id in [0u64, large.as_u64(), 1, 0, large.as_u64(), 1] {
            c.observe_metadata(FileId(id));
        }
        let (outcome, fetched) = c.handle_access_with_fetch(FileId(0));
        assert!(outcome.is_miss());
        let fetched = fetched.unwrap().to_vec();
        assert!(fetched.contains(&FileId(1)), "small member admitted");
        assert!(
            !fetched.contains(&large),
            "64-unit member must be trimmed from a 10-unit cache"
        );
        assert!(!c.contains(large));
        assert!(c.units_used() <= 10);
        c.check_invariants().unwrap();
    }

    #[test]
    fn oversized_file_is_served_but_never_admitted() {
        let a = SizeCostAssigner::new(SizeDistribution::Bimodal, 3);
        let large = (0u64..).map(FileId).find(|&f| a.size_of(f) == 64).unwrap();
        let mut c = AggregatingCacheBuilder::new(10)
            .group_size(3)
            .sizes(a)
            .build()
            .unwrap();
        let before = c.group_stats().size_units_transferred;
        let (outcome, fetched) = c.handle_access_with_fetch(large);
        assert!(outcome.is_miss());
        assert_eq!(fetched.unwrap(), &[large]);
        assert!(!c.contains(large), "larger than the whole cache");
        assert_eq!(c.len(), 0);
        // ...but the fetch is charged at full size.
        assert_eq!(c.group_stats().size_units_transferred - before, 64);
        assert_eq!(c.demand_fetches(), 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn sized_invariants_catch_corrupted_unit_ledger() {
        // The PR-1 auditor pattern: corrupt the redundant sized state and
        // prove check_invariants notices.
        let a = SizeCostAssigner::new(SizeDistribution::Pareto, 7);
        let mut c = AggregatingCacheBuilder::new(64)
            .group_size(3)
            .sizes(a)
            .build()
            .unwrap();
        for id in 0..40u64 {
            c.handle_access(FileId(id % 12));
        }
        assert!(c.check_invariants().is_ok());
        c.units_used += 1;
        assert!(
            c.check_invariants().is_err(),
            "unit ledger drift undetected"
        );
        c.units_used -= 1;
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn metadata_footprint_is_bounded() {
        let mut a = AggregatingCacheBuilder::new(16)
            .group_size(4)
            .successor_capacity(3)
            .build()
            .unwrap();
        for i in 0..2000u64 {
            a.handle_access(FileId(i % 100));
        }
        // ≤ 100 files × 3 successors.
        assert!(a.metadata_entries() <= 300);
        assert_eq!(a.tracked_files().count(), 100);
    }
}
