//! Server-side caching behind an intervening client cache (paper §4.3).
//!
//! Demonstrates the paper's most dramatic result: once the client cache
//! is as large as the server cache, plain LRU/LFU server caches become
//! useless — all locality has been filtered away — while the aggregating
//! cache keeps working because *inter-file relationships* survive
//! filtering. Also shows that the strong scan-resistant baseline (2Q)
//! cannot close the gap: the problem is information, not policy.
//!
//! Run with: `cargo run --release --example server_cache_analysis`

use fgcache::cache::PolicyKind;
use fgcache::prelude::*;
use fgcache::sim::server::{hit_rate_table, two_level_sweep, ServerScheme, TwoLevelConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = SynthConfig::profile(WorkloadProfile::Workstation)
        .events(80_000)
        .seed(11)
        .build()?
        .generate();

    let config = TwoLevelConfig {
        filter_capacities: vec![50, 100, 200, 300, 400, 500],
        server_capacity: 300,
        schemes: vec![
            ServerScheme::Aggregating { group_size: 5 },
            ServerScheme::Policy(PolicyKind::Lru),
            ServerScheme::Policy(PolicyKind::Lfu),
            ServerScheme::Policy(PolicyKind::TwoQ),
        ],
        successor_capacity: 8,
    };
    let points = two_level_sweep(&trace, &config)?;
    println!(
        "{}",
        hit_rate_table(
            "server hit rate vs client filter capacity (server cache = 300 files)",
            &points
        )
    );

    // Narrate the crossover the paper highlights.
    let at = |filter: usize, scheme: &str| {
        points
            .iter()
            .find(|p| p.filter_capacity == filter && p.scheme == scheme)
            .map(|p| p.server_hit_rate)
            .unwrap_or(0.0)
    };
    for filter in [50, 500] {
        println!(
            "with a {filter}-file client cache: lru {:.1}%  2q {:.1}%  vs aggregating {:.1}%",
            at(filter, "lru") * 100.0,
            at(filter, "2q") * 100.0,
            at(filter, "g5") * 100.0
        );
    }
    println!(
        "\nthe aggregating cache keeps a useful hit rate even when the client\n\
         cache is larger than the server cache; 2q's scan resistance keeps\n\
         more than lru but cannot recover the filtered locality."
    );
    Ok(())
}
