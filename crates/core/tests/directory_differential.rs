//! Differential fuzzer for the aggregating cache's per-file directory.
//!
//! `AggregatingCache` keeps each file's LRU residency and successor list
//! in one record behind one hash map. The reference below is the
//! composition that layout replaced — an `LruCache` for residency, a
//! `SuccessorTable<LruSuccessorList>` for the successor lists and
//! `GroupBuilder::build_into` for the chain walk — kept as it was apart
//! from its name. After every operation both must agree on the outcome,
//! the fetch list, the residency order (MRU→LRU), `CacheStats`,
//! `GroupFetchStats`, `units_used`, `metadata_entries` and the set of
//! tracked files, and `check_invariants` must pass.
//!
//! Each seed draws a batch of random configurations: capacity 1–40,
//! group size 1–min(7, capacity), successor capacity 1–16, `Tail` or
//! `Head` insertion, `Requests` or `External` metadata (with
//! `observe_metadata` interleaved), and no size assigner (a quarter of
//! the draws), a uniform one (a quarter) or a Pareto one (half, so the
//! sized admission and trimming paths get the most streams). Streams mix
//! demand accesses, `Cache::insert_speculative` calls and, in half the runs, a
//! mid-stream `clear()`.
//!
//! Everything is seeded. `cargo xtask fuzz` re-runs this suite over a
//! bounded deterministic seed set by exporting
//! `FGCACHE_FUZZ_SEEDS=<comma-separated u64s>`; without it the built-in
//! seeds run.

use fgcache_cache::Cache;
use fgcache_core::{AggregatingCache, AggregatingCacheBuilder, InsertionPolicy, MetadataSource};
use fgcache_types::rng::RandomSource;
use fgcache_types::sizing::{SizeCostAssigner, SizeDistribution};
use fgcache_types::{FileId, SeededRng};

use reference::ReferenceCache;

const BUILTIN_SEEDS: [u64; 2] = [0xD1EC_7081, 0x5EED_CAFE];
const CONFIGS_PER_SEED: usize = 48;
const OPS: usize = 600;

/// The seed set: `FGCACHE_FUZZ_SEEDS` (comma-separated u64s, decimal or
/// `0x`-prefixed hex) when set, the built-in pair otherwise.
fn seeds() -> Vec<u64> {
    match std::env::var("FGCACHE_FUZZ_SEEDS") {
        Ok(raw) => raw
            .split(',')
            .map(|s| s.trim())
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.strip_prefix("0x")
                    .map(|hex| u64::from_str_radix(hex, 16))
                    .unwrap_or_else(|| s.parse())
                    .unwrap_or_else(|e| panic!("FGCACHE_FUZZ_SEEDS entry {s:?}: {e}"))
            })
            .collect(),
        Err(_) => BUILTIN_SEEDS.to_vec(),
    }
}

#[derive(Debug, Clone, Copy)]
struct Config {
    capacity: usize,
    group_size: usize,
    successor_capacity: usize,
    insertion: InsertionPolicy,
    metadata: MetadataSource,
    sizes: Option<SizeCostAssigner>,
    clear_at: Option<usize>,
}

impl Config {
    fn draw(rng: &mut SeededRng) -> Self {
        let capacity = rng.gen_range_inclusive(1, 40) as usize;
        let group_size = rng.gen_range_inclusive(1, capacity.min(7) as u64) as usize;
        let successor_capacity = rng.gen_range_inclusive(1, 16) as usize;
        let insertion = *rng
            .choose(&[InsertionPolicy::Tail, InsertionPolicy::Head])
            .expect("non-empty");
        let metadata = *rng
            .choose(&[MetadataSource::Requests, MetadataSource::External])
            .expect("non-empty");
        let pareto = SizeCostAssigner::new(SizeDistribution::Pareto, rng.next_u64());
        let sizes = match rng.gen_index(4) {
            0 => None,
            1 => Some(SizeCostAssigner::uniform()),
            _ => Some(pareto),
        };
        let clear_at = rng.chance(0.5).then(|| rng.gen_index(OPS));
        Config {
            capacity,
            group_size,
            successor_capacity,
            insertion,
            metadata,
            sizes,
            clear_at,
        }
    }

    fn build(&self) -> AggregatingCache {
        let mut b = AggregatingCacheBuilder::new(self.capacity)
            .group_size(self.group_size)
            .successor_capacity(self.successor_capacity)
            .insertion_policy(self.insertion)
            .metadata_source(self.metadata);
        if let Some(sizes) = self.sizes {
            b = b.sizes(sizes);
        }
        b.build().expect("fuzz config must be valid")
    }
}

/// Compares every observable of the two caches.
fn assert_same(got: &AggregatingCache, want: &ReferenceCache, ctx: &dyn Fn(&str) -> String) {
    let residents: Vec<FileId> = got.residents().collect();
    let want_residents: Vec<FileId> = want.residents().collect();
    assert_eq!(want_residents, residents, "{}", ctx("residency order"));
    assert_eq!(want.stats(), got.stats(), "{}", ctx("CacheStats"));
    assert_eq!(
        want.group_stats(),
        got.group_stats(),
        "{}",
        ctx("GroupFetchStats")
    );
    assert_eq!(want.units_used(), got.units_used(), "{}", ctx("units_used"));
    assert_eq!(
        want.metadata_entries(),
        got.metadata_entries(),
        "{}",
        ctx("metadata_entries")
    );
    let mut tracked: Vec<FileId> = got.tracked_files().collect();
    tracked.sort_unstable();
    let mut want_tracked: Vec<FileId> = want.successor_table().iter().map(|(f, _)| f).collect();
    want_tracked.sort_unstable();
    assert_eq!(want_tracked, tracked, "{}", ctx("tracked files"));
    assert_eq!(want.len(), got.len(), "{}", ctx("len"));
    assert_eq!(want.accesses(), got.accesses(), "{}", ctx("accesses"));
    assert_eq!(
        want.demand_fetches(),
        got.demand_fetches(),
        "{}",
        ctx("demand fetches")
    );
    assert_eq!(want.hit_rate(), got.hit_rate(), "{}", ctx("hit rate"));
    got.check_invariants()
        .unwrap_or_else(|e| panic!("{}", ctx(&format!("invariant violated: {e}"))));
    want.check_invariants()
        .unwrap_or_else(|e| panic!("{}", ctx(&format!("reference invariant violated: {e}"))));
}

/// How often the paths that matter ran, summed over a seed's streams, so
/// a change to the generator cannot quietly stop exercising them.
#[derive(Debug, Default)]
struct Coverage {
    group_fetches: u64,
    bypasses: u64,
    evictions: u64,
    already_resident: u64,
}

/// Replays one seeded stream through both caches.
fn fuzz_one(cfg: &Config, seed: u64, cov: &mut Coverage) {
    let mut got = cfg.build();
    let mut want = reference::build(cfg);
    assert_eq!(want.group_size(), got.group_size());
    assert_eq!(want.size_assigner(), got.size_assigner());
    let mut rng = SeededRng::new(seed);
    let universe = cfg.capacity as u64 * 3 + 8;
    let observe_p = match cfg.metadata {
        MetadataSource::Requests => 0.05,
        MetadataSource::External => 0.4,
    };
    let mut f = FileId(0);
    for step in 0..OPS {
        // Sequential runs build successor chains; jumps break them.
        f = if rng.chance(0.5) {
            FileId((f.as_u64() + 1) % universe)
        } else {
            FileId(rng.gen_range_inclusive(0, universe - 1))
        };
        let ctx = |what: &str| format!("{cfg:?} seed {seed} step {step} file {f}: {what}");
        if cfg.clear_at == Some(step) {
            cov.evictions += got.stats().evictions;
            cov.already_resident += got.group_stats().members_already_resident;
            got.clear();
            want.clear();
        } else if rng.chance(observe_p) {
            got.observe_metadata(f);
            want.observe_metadata(f);
        } else if rng.chance(0.05) {
            assert_eq!(
                want.insert_speculative(f),
                got.insert_speculative(f),
                "{}",
                ctx("insert_speculative")
            );
        } else {
            let (want_outcome, want_fetch) = want.handle_access_with_fetch(f);
            let want_fetch = want_fetch.map(<[FileId]>::to_vec);
            let (outcome, fetch) = got.handle_access_with_fetch(f);
            assert_eq!(want_outcome, outcome, "{}", ctx("outcome"));
            assert_eq!(want_fetch.as_deref(), fetch, "{}", ctx("fetch list"));
            cov.group_fetches += u64::from(fetch.is_some_and(|f| f.len() > 1));
            cov.bypasses += u64::from(outcome.is_miss() && !got.contains(f));
        }
        assert_eq!(want.contains(f), got.contains(f), "{}", ctx("contains"));
        assert_same(&got, &want, &ctx);
    }
    cov.evictions += got.stats().evictions;
    cov.already_resident += got.group_stats().members_already_resident;
}

#[test]
fn directory_replays_the_lru_and_successor_table_composition() {
    for seed in seeds() {
        let mut rng = SeededRng::new(seed);
        let mut cov = Coverage::default();
        for _ in 0..CONFIGS_PER_SEED {
            let cfg = Config::draw(&mut rng);
            fuzz_one(&cfg, rng.next_u64(), &mut cov);
        }
        assert!(
            cov.group_fetches > 0
                && cov.bypasses > 0
                && cov.evictions > 0
                && cov.already_resident > 0,
            "seed {seed} left a path unexercised: {cov:?}"
        );
    }
}

/// The composition the directory replaced.
mod reference {
    use fgcache_cache::{Cache, CacheStats, LruCache};
    use fgcache_core::{GroupFetchStats, InsertionPolicy, MetadataSource};
    use fgcache_successor::{GroupBuilder, LruSuccessorList, SuccessorTable};
    use fgcache_types::sizing::SizeCostAssigner;
    use fgcache_types::{AccessOutcome, FileId, InvariantViolation};

    /// Builds the reference for a fuzz configuration.
    pub(crate) fn build(cfg: &super::Config) -> ReferenceCache {
        ReferenceCache::from_parts(
            LruCache::new(cfg.capacity),
            SuccessorTable::new(
                LruSuccessorList::new(cfg.successor_capacity).expect("valid successor capacity"),
            ),
            GroupBuilder::new(cfg.group_size).expect("valid group size"),
            cfg.insertion,
            cfg.metadata,
            cfg.sizes,
        )
    }

    /// The aggregating cache: LRU residency + successor-driven group fetching.
    ///
    /// Construct via [`reference`].
    /// With `group_size == 1` the cache degenerates to plain LRU, which is how
    /// the experiments obtain their baseline from identical code paths.
    #[derive(Debug, Clone)]
    pub struct ReferenceCache {
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
        // Scratch buffers reused across misses so steady-state group
        // assembly performs zero heap allocation (group sizes are single
        // digits, so these reach their high-water mark almost immediately).
        scratch_members: Vec<FileId>,
        scratch_ranked: Vec<FileId>,
        fetched: Vec<FileId>,
    }

    impl ReferenceCache {
        pub(crate) fn from_parts(
            cache: LruCache,
            table: SuccessorTable<LruSuccessorList>,
            builder: GroupBuilder,
            insertion: InsertionPolicy,
            metadata: MetadataSource,
            assigner: Option<SizeCostAssigner>,
        ) -> Self {
            ReferenceCache {
                cache,
                table,
                builder,
                insertion,
                metadata,
                accesses: 0,
                group_stats: GroupFetchStats::default(),
                assigner,
                units_used: 0,
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
        pub fn handle_access_with_fetch(
            &mut self,
            file: FileId,
        ) -> (AccessOutcome, Option<&[FileId]>) {
            self.accesses += 1;
            if self.metadata == MetadataSource::Requests {
                self.table.record(file);
            }
            if self.cache.contains(file) {
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

        /// Evicts LRU tail victims until `need` more units fit, mirroring
        /// the legacy victim sequence.
        fn make_units_room(&mut self, need: u64, assigner: SizeCostAssigner) {
            while self.units_used + need > self.unit_capacity() {
                let Some(victim) = self.cache.lru() else {
                    break;
                };
                if self.cache.evict_file(victim) {
                    self.units_used -= u64::from(assigner.size_of(victim));
                }
            }
        }

        /// The demand-miss path when files carry sizes: admission, eviction
        /// and the transfer ledger all run in size units, and a fetched
        /// group is charged as a unit.
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
            // which sits at the MRU head.
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

    impl Cache for ReferenceCache {
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
        }

        fn check_invariants(&self) -> Result<(), InvariantViolation> {
            let err = |detail: String| Err(InvariantViolation::new("ReferenceCache", detail));
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
                }
            }
            Ok(())
        }
    }
}
