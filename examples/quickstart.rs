//! Quickstart: the aggregating cache versus plain LRU in 60 lines.
//!
//! Generates a deterministic, server-like synthetic workload, runs the
//! same access stream through a plain LRU client cache and through
//! aggregating caches of several group sizes, and prints demand-fetch
//! counts — the paper's Figure 3 metric, at a single capacity.
//!
//! Run with: `cargo run --release --example quickstart`

use fgcache::core::AggregatingCacheBuilder;
use fgcache::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A deterministic synthetic workload shaped like the paper's
    //    `server` trace: highly repetitive, application-driven.
    let trace = SynthConfig::profile(WorkloadProfile::Server)
        .events(50_000)
        .seed(1)
        .build()?
        .generate();
    println!(
        "workload: {} events, {} distinct files\n",
        trace.len(),
        fgcache::trace::stats::TraceStats::compute(&trace).unique_files
    );

    // 2. Drive the same stream through caches of identical capacity but
    //    different group sizes. Group size 1 IS plain LRU.
    let capacity = 300;
    println!("client cache capacity: {capacity} files");
    println!(
        "{:>6}  {:>14}  {:>9}  {:>10}",
        "group", "demand fetches", "hit rate", "reduction"
    );
    let mut lru_fetches = None;
    for g in [1usize, 2, 3, 5, 7, 10] {
        let mut cache = AggregatingCacheBuilder::new(capacity)
            .group_size(g)
            .build()?;
        for ev in trace.events() {
            cache.handle_access(ev.file);
        }
        let fetches = cache.demand_fetches();
        let baseline = *lru_fetches.get_or_insert(fetches);
        println!(
            "{:>6}  {:>14}  {:>8.1}%  {:>9.1}%",
            if g == 1 {
                "lru".to_string()
            } else {
                format!("g{g}")
            },
            fetches,
            cache.hit_rate() * 100.0,
            (1.0 - fetches as f64 / baseline as f64) * 100.0,
        );
    }

    // 3. Peek at the metadata that made this possible: per-file successor
    //    lists, a few entries each.
    let mut cache = AggregatingCacheBuilder::new(capacity)
        .group_size(5)
        .build()?;
    for ev in trace.events() {
        cache.handle_access(ev.file);
    }
    let tracked = cache.tracked_files().count();
    println!(
        "\nmetadata footprint: {} files tracked, {} successor entries total \
         ({:.2} per file)",
        tracked,
        cache.metadata_entries(),
        cache.metadata_entries() as f64 / tracked.max(1) as f64,
    );
    println!(
        "prefetch accuracy: {:.1}% of speculative fetches were used",
        Cache::stats(&cache).speculative_accuracy() * 100.0
    );
    Ok(())
}
