//! Differential fuzzer for the sharded aggregating cache.
//!
//! Two equivalences are pinned, with `check_invariants()` (the per-shard
//! audits plus the cross-shard partition invariant) after every step:
//!
//! 1. **shards = 1 is bit-identical to `AggregatingCache`** — same
//!    hit/miss outcome on every access, same cache statistics, same
//!    group-fetch statistics, same residency.
//! 2. **shards = N is bit-identical to N independent `AggregatingCache`
//!    partitions** routed by the same hash with the same per-shard
//!    capacity slices — the sharded composition adds concurrency, never
//!    behaviour.
//!
//! Everything is seeded. `ci.sh` (via `cargo xtask fuzz`) re-runs this
//! suite over a bounded deterministic seed set by exporting
//! `FGCACHE_FUZZ_SEEDS=<comma-separated u64s>`; without it the built-in
//! seeds run.

use fgcache_cache::Cache;
use fgcache_core::sharded::partition_capacities;
use fgcache_core::{
    AggregatingCache, AggregatingCacheBuilder, InsertionPolicy, MetadataSource,
    ShardedAggregatingCacheBuilder,
};
use fgcache_types::rng::RandomSource;
use fgcache_types::sizing::SizeCostAssigner;
use fgcache_types::{FileId, SeededRng};

const BUILTIN_SEEDS: [u64; 2] = [0xFEED_FACE, 0xBADC_0FFE];
const OPS: usize = 1_500;

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

struct Config {
    capacity: usize,
    shards: usize,
    group_size: usize,
    insertion: InsertionPolicy,
}

const CONFIGS: [Config; 6] = [
    // shards = 1: the bit-identity baseline, tiny and roomy.
    Config {
        capacity: 6,
        shards: 1,
        group_size: 3,
        insertion: InsertionPolicy::Tail,
    },
    Config {
        capacity: 48,
        shards: 1,
        group_size: 5,
        insertion: InsertionPolicy::Head,
    },
    // shards > 1: partition equivalence, including a non-even split.
    Config {
        capacity: 16,
        shards: 2,
        group_size: 3,
        insertion: InsertionPolicy::Tail,
    },
    Config {
        capacity: 27, // 7/7/7/6 split: exercises the remainder path
        shards: 4,
        group_size: 4,
        insertion: InsertionPolicy::Tail,
    },
    Config {
        capacity: 40,
        shards: 4,
        group_size: 5,
        insertion: InsertionPolicy::Head,
    },
    Config {
        capacity: 64,
        shards: 8,
        group_size: 3,
        insertion: InsertionPolicy::Tail,
    },
];

fn reference_partitions(cfg: &Config) -> Vec<AggregatingCache> {
    partition_capacities(cfg.capacity, cfg.shards)
        .into_iter()
        .map(|slice| {
            AggregatingCacheBuilder::new(slice)
                .group_size(cfg.group_size)
                .insertion_policy(cfg.insertion)
                .metadata_source(MetadataSource::Requests)
                .build()
                .expect("reference partition config must be valid")
        })
        .collect()
}

/// Runs one config for `ops` seeded operations against the reference
/// composition, comparing outcome, residency, aggregate stats and
/// invariants after every step.
fn fuzz_sharded(cfg: &Config, ops: usize, seed: u64) {
    let sharded = ShardedAggregatingCacheBuilder::new(cfg.capacity)
        .shards(cfg.shards)
        .group_size(cfg.group_size)
        .insertion_policy(cfg.insertion)
        .build()
        .expect("fuzz config must be valid");
    let mut reference = reference_partitions(cfg);
    let mut rng = SeededRng::new(seed);
    let universe = (cfg.capacity as u64) * 3 + 8;
    for step in 0..ops {
        let f = FileId(rng.gen_range_inclusive(0, universe));
        let ctx = |what: &str| {
            format!(
                "capacity {} shards {} g {} {} seed {seed} step {step} file {f}: {what}",
                cfg.capacity, cfg.shards, cfg.group_size, cfg.insertion
            )
        };
        let owner = sharded.shard_of(f);
        if rng.chance(0.9) {
            let got = sharded.handle_access(f);
            let want = reference[owner].handle_access(f);
            assert_eq!(want, got, "{}", ctx("hit/miss outcome diverged"));
        } else {
            sharded.observe_metadata(f);
            reference[owner].observe_metadata(f);
        }
        let probe = FileId(rng.gen_range_inclusive(0, universe));
        assert_eq!(
            reference[sharded.shard_of(probe)].contains(probe),
            sharded.contains(probe),
            "{}",
            ctx("membership diverged")
        );
        sharded
            .check_invariants()
            .unwrap_or_else(|v| panic!("{}", ctx(&v.to_string())));
    }
    // Aggregate statistics must equal the sum over reference partitions.
    let mut accesses = 0;
    let mut hits = 0;
    let mut fetches = 0;
    let mut transferred = 0;
    let mut len = 0;
    for part in &reference {
        accesses += part.stats().accesses;
        hits += part.stats().hits;
        fetches += part.group_stats().demand_fetches;
        transferred += part.group_stats().files_transferred;
        len += part.len();
    }
    let stats = sharded.stats();
    assert_eq!(stats.accesses, accesses, "aggregate accesses diverged");
    assert_eq!(stats.hits, hits, "aggregate hits diverged");
    assert_eq!(
        sharded.group_stats().demand_fetches,
        fetches,
        "aggregate demand fetches diverged"
    );
    assert_eq!(
        sharded.group_stats().files_transferred,
        transferred,
        "aggregate files transferred diverged"
    );
    assert_eq!(sharded.len(), len, "aggregate residency diverged");
}

#[test]
fn sharded_matches_partitioned_reference() {
    for seed in seeds() {
        for cfg in &CONFIGS {
            fuzz_sharded(cfg, OPS, seed);
        }
    }
}

/// The shards = 1 identity holds against the *monolithic* cache too, not
/// just a one-element partition vector: same outcome sequence, same
/// stats, same MRU→LRU residency order after every step.
#[test]
fn single_shard_is_bit_identical_to_monolith() {
    for seed in seeds() {
        for (capacity, g, insertion) in [
            (2, 2, InsertionPolicy::Head),
            (3, 3, InsertionPolicy::Head),
            (10, 4, InsertionPolicy::Tail),
            (32, 5, InsertionPolicy::Tail),
        ] {
            let sharded = ShardedAggregatingCacheBuilder::new(capacity)
                .shards(1)
                .group_size(g)
                .insertion_policy(insertion)
                .build()
                .expect("valid config");
            let mut mono = AggregatingCacheBuilder::new(capacity)
                .group_size(g)
                .insertion_policy(insertion)
                .build()
                .expect("valid config");
            let mut rng = SeededRng::new(seed);
            let universe = (capacity as u64) * 3 + 8;
            for step in 0..OPS {
                let f = FileId(rng.gen_range_inclusive(0, universe));
                let got = sharded.handle_access(f);
                let want = mono.handle_access(f);
                assert_eq!(
                    want, got,
                    "capacity {capacity} g {g} seed {seed} step {step} file {f}: diverged"
                );
                let order: Vec<FileId> = sharded.with_shard_of(f, |s| s.residents().collect());
                let mono_order: Vec<FileId> = mono.residents().collect();
                assert_eq!(mono_order, order, "residency order diverged at step {step}");
                sharded.check_invariants().expect("sharded invariants");
                mono.check_invariants().expect("monolith invariants");
            }
            assert_eq!(mono.stats(), &sharded.stats(), "stats diverged");
            assert_eq!(
                mono.group_stats(),
                &sharded.group_stats(),
                "group stats diverged"
            );
        }
    }
}

/// The uniform size/cost assigner is observably invisible: a sharded
/// cache built with `.sizes(SizeCostAssigner::uniform())` — the
/// Landlord-capable sized code path, where admission, eviction and the
/// transfer ledger all run in size units — replays bit-identically to
/// the fixed-cost path on every config: same per-access outcomes, same
/// statistics, same per-shard MRU→LRU residency order after every step.
#[test]
fn uniform_sized_path_is_bit_identical_to_fixed_cost_path() {
    for seed in seeds() {
        for cfg in &CONFIGS {
            let legacy = ShardedAggregatingCacheBuilder::new(cfg.capacity)
                .shards(cfg.shards)
                .group_size(cfg.group_size)
                .insertion_policy(cfg.insertion)
                .build()
                .expect("fuzz config must be valid");
            let sized = ShardedAggregatingCacheBuilder::new(cfg.capacity)
                .shards(cfg.shards)
                .group_size(cfg.group_size)
                .insertion_policy(cfg.insertion)
                .sizes(SizeCostAssigner::uniform())
                .build()
                .expect("fuzz config must be valid");
            let mut rng = SeededRng::new(seed);
            let universe = (cfg.capacity as u64) * 3 + 8;
            for step in 0..OPS {
                let f = FileId(rng.gen_range_inclusive(0, universe));
                let ctx = |what: &str| {
                    format!(
                        "capacity {} shards {} g {} seed {seed} step {step} file {f}: {what}",
                        cfg.capacity, cfg.shards, cfg.group_size
                    )
                };
                if rng.chance(0.9) {
                    assert_eq!(
                        legacy.handle_access(f),
                        sized.handle_access(f),
                        "{}",
                        ctx("hit/miss outcome diverged")
                    );
                } else {
                    legacy.observe_metadata(f);
                    sized.observe_metadata(f);
                }
                let order_legacy: Vec<FileId> =
                    legacy.with_shard_of(f, |s| s.residents().collect());
                let order_sized: Vec<FileId> = sized.with_shard_of(f, |s| s.residents().collect());
                assert_eq!(
                    order_legacy,
                    order_sized,
                    "{}",
                    ctx("residency order diverged")
                );
                sized
                    .check_invariants()
                    .unwrap_or_else(|v| panic!("{}", ctx(&v.to_string())));
            }
            assert_eq!(
                legacy.stats(),
                sized.stats(),
                "stats diverged (seed {seed})"
            );
            let lg = legacy.group_stats();
            let sg = sized.group_stats();
            assert_eq!(lg.demand_fetches, sg.demand_fetches);
            assert_eq!(lg.files_transferred, sg.files_transferred);
            assert_eq!(lg.members_already_resident, sg.members_already_resident);
            assert_eq!(
                sg.size_units_transferred, sg.files_transferred,
                "uniform files are one unit each"
            );
        }
    }
}
