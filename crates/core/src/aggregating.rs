//! The aggregating cache implementation.

use std::fmt;

use fgcache_cache::{Cache, CacheStats, LruCache};
use fgcache_successor::{GroupBuilder, LruSuccessorList, SuccessorTable};
use fgcache_types::hash::FastMap;
use fgcache_types::sizing::SizeCostAssigner;
use fgcache_types::{AccessOutcome, FileId, InvariantViolation};

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
#[derive(Debug, Clone)]
pub struct AggregatingCache {
    cache: LruCache,
    table: SuccessorTable<LruSuccessorList>,
    builder: GroupBuilder,
    insertion: InsertionPolicy,
    metadata: MetadataSource,
    accesses: u64,
    group_stats: GroupFetchStats,
    // Size/cost awareness. `None` is the paper's fixed-cost model: every
    // file is one unit and the code below takes the legacy path
    // untouched. `Some(assigner)` switches residency accounting to size
    // units (the count capacity doubles as the unit capacity); with a
    // uniform assigner the sized path is bit-identical to the legacy one
    // (the differential fuzzers enforce this, residency order included).
    assigner: Option<SizeCostAssigner>,
    units_used: u64,
    // Whole-group (bundle) eviction: reclaiming an LRU victim also
    // reclaims its still-resident co-fetched group members. A demand hit
    // detaches a file from its fetch group (it has proven independent
    // worth), so bundles shrink to the members that never did.
    bundle_eviction: bool,
    group_of: FastMap<FileId, u64>,
    group_members: FastMap<u64, Vec<FileId>>,
    // Scratch buffers reused across misses so steady-state group
    // assembly performs zero heap allocation (group sizes are single
    // digits, so these reach their high-water mark almost immediately).
    scratch_members: Vec<FileId>,
    scratch_ranked: Vec<FileId>,
    fetched: Vec<FileId>,
}

impl AggregatingCache {
    pub(crate) fn from_parts(
        cache: LruCache,
        table: SuccessorTable<LruSuccessorList>,
        builder: GroupBuilder,
        insertion: InsertionPolicy,
        metadata: MetadataSource,
        assigner: Option<SizeCostAssigner>,
        bundle_eviction: bool,
    ) -> Self {
        AggregatingCache {
            cache,
            table,
            builder,
            insertion,
            metadata,
            accesses: 0,
            group_stats: GroupFetchStats::default(),
            assigner,
            units_used: 0,
            bundle_eviction,
            group_of: FastMap::default(),
            group_members: FastMap::default(),
            scratch_members: Vec::new(),
            scratch_ranked: Vec::new(),
            fetched: Vec::new(),
        }
    }

    /// Handles one demand request.
    ///
    /// Updates the successor table (when the metadata source is
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
        if self.metadata == MetadataSource::Requests {
            self.table.record(file);
        }
        if self.cache.contains(file) {
            if self.bundle_eviction {
                // The file proved independent worth: detach it from its
                // fetch group so a bundle eviction no longer reclaims it.
                self.group_of.remove(&file);
            }
            return (self.cache.access(file), None);
        }
        if let Some(assigner) = self.assigner {
            return self.sized_miss(file, assigner);
        }
        // Demand miss → group fetch. The buffers are taken out of self
        // so the builder and cache can be borrowed alongside them.
        self.group_stats.demand_fetches += 1;
        let mut members = std::mem::take(&mut self.scratch_members);
        let mut ranked = std::mem::take(&mut self.scratch_ranked);
        self.builder
            .build_into(&self.table, file, &mut members, &mut ranked);
        let outcome = self.cache.access(file); // inserts requested at MRU
        self.group_stats.files_transferred += 1;
        let mut fetched = std::mem::take(&mut self.fetched);
        fetched.clear();
        fetched.push(file);
        // A group never displaces its own requested file, so at most
        // capacity − 1 speculative members enter.
        let max_members = self.cache.capacity().saturating_sub(1);
        for &m in &members {
            if self.cache.contains(m) {
                self.group_stats.members_already_resident += 1;
            } else if fetched.len() - 1 < max_members {
                fetched.push(m);
            }
        }
        self.group_stats.files_transferred += (fetched.len() - 1) as u64;
        match self.insertion {
            InsertionPolicy::Tail => self.cache.insert_speculative_batch(&fetched[1..]),
            InsertionPolicy::Head => {
                // Place members directly below the requested file. Insert
                // the whole batch at the tail first — the batch insert
                // evicts only tail entries and never the just-fetched
                // requested file — then promote least-confident first and
                // finally re-assert the requested file at the MRU head.
                // Promoting resident entries cannot evict, so the
                // requested file survives its own group fetch at any
                // capacity ≥ group size.
                self.cache.insert_speculative_batch(&fetched[1..]);
                for &m in fetched[1..].iter().rev() {
                    self.cache.promote_to_head(m);
                }
                self.cache.promote_to_head(file);
            }
        }
        self.scratch_members = members;
        self.scratch_ranked = ranked;
        self.fetched = fetched;
        (outcome, Some(&self.fetched))
    }

    /// The capacity in size units. The count capacity doubles as the
    /// unit capacity: with uniform sizes (one unit per file) the two
    /// accountings coincide, which is what makes the sized path
    /// degenerate bit-identically to the legacy one.
    fn unit_capacity(&self) -> u64 {
        self.cache.capacity() as u64
    }

    /// Evicts `file`, keeping the unit and group accounting in sync.
    fn evict_sized(&mut self, file: FileId, assigner: SizeCostAssigner) {
        if self.cache.evict_file(file) {
            self.units_used -= u64::from(assigner.size_of(file));
            self.group_of.remove(&file);
        }
    }

    /// Evicts until `need` more units fit, mirroring the legacy victim
    /// sequence: always the LRU tail next — except under bundle
    /// eviction, where the tail victim's whole still-attached fetch
    /// group goes with it.
    ///
    /// Callers guarantee `need` fits the cache with the current fetch's
    /// already-admitted files untagged, so the loop never reclaims them.
    fn make_units_room(&mut self, need: u64, assigner: SizeCostAssigner) {
        while self.units_used + need > self.unit_capacity() {
            let Some(victim) = self.cache.lru() else {
                break;
            };
            if self.bundle_eviction {
                if let Some(&gid) = self.group_of.get(&victim) {
                    if let Some(members) = self.group_members.remove(&gid) {
                        for m in members {
                            // Only still-attached members: files re-fetched
                            // under a later group (or demand-hit, which
                            // detaches) stay resident.
                            if self.group_of.get(&m) == Some(&gid) {
                                self.evict_sized(m, assigner);
                            }
                        }
                        continue; // the tagged victim was in its own group
                    }
                }
            }
            self.evict_sized(victim, assigner);
        }
    }

    /// The demand-miss path when files carry sizes: admission, eviction
    /// and the transfer ledger all run in size units, and a fetched
    /// group is charged and (optionally) evicted as a unit.
    ///
    /// The operation order deliberately mirrors the legacy path step for
    /// step — room for the requested file, admit it, member scan, room
    /// for the member batch, batch insert — so a uniform assigner
    /// reproduces the legacy victim sequence exactly.
    fn sized_miss(
        &mut self,
        file: FileId,
        assigner: SizeCostAssigner,
    ) -> (AccessOutcome, Option<&[FileId]>) {
        self.group_stats.demand_fetches += 1;
        let file_units = u64::from(assigner.size_of(file));
        let mut fetched = std::mem::take(&mut self.fetched);
        fetched.clear();
        fetched.push(file);
        if file_units > self.unit_capacity() {
            // Larger than the whole cache: the fetch happens (and is
            // charged) but admission is impossible, and speculating on
            // group members of a file we cannot even keep is pointless.
            self.cache.record_bypass_miss();
            self.group_stats.files_transferred += 1;
            self.group_stats.size_units_transferred += file_units;
            self.fetched = fetched;
            return (AccessOutcome::Miss, Some(&self.fetched));
        }
        let mut members = std::mem::take(&mut self.scratch_members);
        let mut ranked = std::mem::take(&mut self.scratch_ranked);
        self.builder
            .build_into(&self.table, file, &mut members, &mut ranked);
        self.make_units_room(file_units, assigner);
        let outcome = self.cache.access(file);
        self.units_used += file_units;
        self.group_stats.files_transferred += 1;
        // Bundle-aware admission: members join while the group's
        // cumulative footprint still fits alongside the requested file;
        // the rest of the group is trimmed, not force-fit.
        let max_members = self.cache.capacity().saturating_sub(1);
        let mut batch_units = 0u64;
        for &m in &members {
            if self.cache.contains(m) {
                self.group_stats.members_already_resident += 1;
            } else if fetched.len() - 1 < max_members {
                let m_units = u64::from(assigner.size_of(m));
                if file_units + batch_units + m_units <= self.unit_capacity() {
                    fetched.push(m);
                    batch_units += m_units;
                }
            }
        }
        self.group_stats.files_transferred += (fetched.len() - 1) as u64;
        self.group_stats.size_units_transferred += file_units + batch_units;
        // Room for the whole batch up front (the group is charged as a
        // unit), so the inner cache never evicts on its own and batch
        // members cannot displace each other — or the requested file,
        // which is still untagged and sits at the MRU head.
        self.make_units_room(batch_units, assigner);
        match self.insertion {
            InsertionPolicy::Tail => self.cache.insert_speculative_batch(&fetched[1..]),
            InsertionPolicy::Head => {
                self.cache.insert_speculative_batch(&fetched[1..]);
                for &m in fetched[1..].iter().rev() {
                    self.cache.promote_to_head(m);
                }
                self.cache.promote_to_head(file);
            }
        }
        self.units_used += batch_units;
        if self.bundle_eviction {
            let gid = self.group_stats.demand_fetches;
            for &f in &fetched {
                self.group_of.insert(f, gid);
            }
            self.group_members.insert(gid, fetched.clone());
        }
        self.scratch_members = members;
        self.scratch_ranked = ranked;
        self.fetched = fetched;
        (outcome, Some(&self.fetched))
    }

    /// Feeds one access observation into the successor table without
    /// touching the cache — piggy-backed client statistics arriving at a
    /// server-deployed aggregating cache.
    pub fn observe_metadata(&mut self, file: FileId) {
        self.table.record(file);
    }

    /// Demand fetches performed so far (the paper's Figure 3 metric;
    /// equal to the miss count).
    pub fn demand_fetches(&self) -> u64 {
        self.group_stats.demand_fetches
    }

    /// Demand hit rate over all handled requests.
    pub fn hit_rate(&self) -> f64 {
        self.cache.stats().hit_rate()
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

    /// Whether whole-group (bundle) eviction is enabled.
    pub fn bundle_eviction(&self) -> bool {
        self.bundle_eviction
    }

    /// The configured group size `g`.
    pub fn group_size(&self) -> usize {
        self.builder.group_size()
    }

    /// The successor table (for inspection and analysis).
    pub fn successor_table(&self) -> &SuccessorTable<LruSuccessorList> {
        &self.table
    }

    /// Metadata footprint: total successor entries tracked.
    pub fn metadata_entries(&self) -> usize {
        self.table.metadata_entries()
    }

    /// Resident files in MRU→LRU order (for partition audits and tests).
    pub fn residents(&self) -> impl Iterator<Item = FileId> + '_ {
        self.cache.iter_mru()
    }
}

impl Cache for AggregatingCache {
    fn access(&mut self, file: FileId) -> AccessOutcome {
        self.handle_access(file)
    }

    fn insert_speculative(&mut self, file: FileId) -> bool {
        let Some(assigner) = self.assigner else {
            return self.cache.insert_speculative(file);
        };
        if self.cache.contains(file) {
            return false;
        }
        let units = u64::from(assigner.size_of(file));
        if units > self.unit_capacity() {
            return false;
        }
        self.make_units_room(units, assigner);
        let inserted = self.cache.insert_speculative(file);
        if inserted {
            self.units_used += units;
        }
        inserted
    }

    fn contains(&self, file: FileId) -> bool {
        self.cache.contains(file)
    }

    fn len(&self) -> usize {
        self.cache.len()
    }

    fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    fn name(&self) -> &'static str {
        "agg"
    }

    fn clear(&mut self) {
        self.table = self.table.fresh_like();
        self.cache.clear();
        self.accesses = 0;
        self.group_stats = GroupFetchStats::default();
        self.units_used = 0;
        self.group_of.clear();
        self.group_members.clear();
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let err = |detail: String| Err(InvariantViolation::new("AggregatingCache", detail));
        self.cache.check_invariants()?;
        self.table.check_invariants()?;
        let gs = &self.group_stats;
        // Every demand fetch is an LRU miss and moves at least the
        // requested file, at most the whole group.
        if gs.demand_fetches != self.cache.stats().misses {
            return err(format!(
                "{} demand fetches but {} recorded misses",
                gs.demand_fetches,
                self.cache.stats().misses
            ));
        }
        if gs.files_transferred < gs.demand_fetches {
            return err(format!(
                "{} files transferred across {} fetches (requested file must always move)",
                gs.files_transferred, gs.demand_fetches
            ));
        }
        let g = self.builder.group_size() as u64;
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
                if !self.group_of.is_empty() || !self.group_members.is_empty() {
                    return err("group tags present without a size assigner".to_string());
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
                    .cache
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
                for &f in self.group_of.keys() {
                    if !self.cache.contains(f) {
                        return err(format!("group tag for non-resident {f}"));
                    }
                }
                if !self.bundle_eviction && !self.group_of.is_empty() {
                    return err("group tags present without bundle eviction".to_string());
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
        let mut a = agg(10, 3);
        for id in [1u64, 2, 3, 1, 2, 3] {
            a.handle_access(FileId(id));
        }
        // Access a cold file with a known chain 1→2→3.
        let mut a2 = agg(10, 3);
        for id in [1u64, 2, 3, 1, 2, 3] {
            a2.observe_metadata(FileId(id));
        }
        // metadata external; no residency yet
        assert_eq!(a2.len(), 0);
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
    fn bundle_eviction_reclaims_whole_group() {
        // External metadata, uniform sizes, bundle eviction on: fetch the
        // group {1, 2, 3} cold, fill the cache with unrelated files, and
        // watch the group leave together when its LRU-most member is
        // victimised.
        let mut c = AggregatingCacheBuilder::new(6)
            .group_size(3)
            .sizes(SizeCostAssigner::uniform())
            .bundle_eviction(true)
            .metadata_source(MetadataSource::External)
            .build()
            .unwrap();
        for id in [1u64, 2, 3, 1, 2, 3] {
            c.observe_metadata(FileId(id));
        }
        c.handle_access(FileId(1)); // fetches {1, 2, 3}, all tagged
        assert!(c.contains(FileId(2)) && c.contains(FileId(3)));
        // Three unrelated misses fill the cache to 6/6; the group sits at
        // the LRU end (members 2, 3 at the tail, then 1).
        for id in [10u64, 11, 12] {
            c.handle_access(FileId(id));
            c.check_invariants().unwrap();
        }
        assert_eq!(c.len(), 6);
        // One more miss needs one unit, but the tail victim (3) drags its
        // whole still-attached group out with it.
        c.handle_access(FileId(13));
        assert!(
            !c.contains(FileId(1)),
            "group member 1 evicted with its bundle"
        );
        assert!(
            !c.contains(FileId(2)),
            "group member 2 evicted with its bundle"
        );
        assert!(
            !c.contains(FileId(3)),
            "group member 3 evicted with its bundle"
        );
        assert!(c.contains(FileId(13)));
        c.check_invariants().unwrap();
    }

    #[test]
    fn demand_hit_detaches_file_from_its_bundle() {
        let mut c = AggregatingCacheBuilder::new(6)
            .group_size(3)
            .sizes(SizeCostAssigner::uniform())
            .bundle_eviction(true)
            .metadata_source(MetadataSource::External)
            .build()
            .unwrap();
        for id in [1u64, 2, 3, 1, 2, 3] {
            c.observe_metadata(FileId(id));
        }
        c.handle_access(FileId(1)); // fetches {1, 2, 3}
        assert!(c.handle_access(FileId(2)).is_hit()); // 2 proves its worth
        for id in [10u64, 11, 12] {
            c.handle_access(FileId(id));
        }
        // Victimising the remaining bundle (3 at the tail, with 1) must
        // not reclaim the detached 2.
        c.handle_access(FileId(13));
        assert!(!c.contains(FileId(1)));
        assert!(!c.contains(FileId(3)));
        assert!(
            c.contains(FileId(2)),
            "a demand hit detaches a file from its bundle"
        );
        c.check_invariants().unwrap();
    }

    #[test]
    fn bundle_eviction_requires_sizes() {
        let err = AggregatingCacheBuilder::new(10)
            .bundle_eviction(true)
            .build()
            .unwrap_err();
        assert_eq!(err.parameter(), "bundle_eviction");
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
        // Group tags without bundle eviction are a contract violation.
        c.group_of.insert(FileId(0), 1);
        assert!(c.check_invariants().is_err(), "stray group tag undetected");
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
        assert_eq!(a.successor_table().tracked_files(), 100);
    }
}
