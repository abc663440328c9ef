//! End-to-end pipelines across crates: generate → persist → reload →
//! simulate → analyse, plus manual compositions of the building blocks
//! (filter adapters, aggregating server caches, baselines).

use fgcache::cache::filter::{miss_stream, FilterCache};
use fgcache::cache::{Cache, LruCache, PolicyKind};
use fgcache::core::{AggregatingCacheBuilder, MetadataSource};
use fgcache::prelude::*;
use fgcache::successor::{LruSuccessorList, ProbabilityGraph};
use fgcache::trace::io;
use fgcache::trace::stats::TraceStats;

fn workload() -> Trace {
    SynthConfig::profile(WorkloadProfile::Workstation)
        .events(30_000)
        .seed(123)
        .build()
        .unwrap()
        .generate()
}

#[test]
fn persist_reload_and_simulate_identically() {
    let trace = workload();
    // Text round-trip.
    let mut text = Vec::new();
    io::write_text(&trace, &mut text).unwrap();
    let from_text = io::read_text(text.as_slice()).unwrap();
    assert_eq!(from_text, trace);
    // Binary round-trip.
    let mut bin = Vec::new();
    io::write_binary(&trace, &mut bin).unwrap();
    let from_bin = io::read_binary(bin.as_slice()).unwrap();
    assert_eq!(from_bin, trace);
    // Simulation over the reloaded trace is identical to the original.
    let run = |t: &Trace| {
        let mut agg = AggregatingCacheBuilder::new(200)
            .group_size(5)
            .build()
            .unwrap();
        for ev in t.events() {
            agg.handle_access(ev.file);
        }
        (agg.demand_fetches(), agg.hit_rate().to_bits())
    };
    assert_eq!(run(&trace), run(&from_text));
    assert_eq!(run(&trace), run(&from_bin));
}

#[test]
fn manual_two_level_composition_matches_sweep() {
    let trace = workload();
    // Hand-rolled: LRU client filter + aggregating server.
    let mut filter = FilterCache::new(LruCache::new(150));
    let mut server = AggregatingCacheBuilder::new(300)
        .group_size(5)
        .build()
        .unwrap();
    for ev in trace.events() {
        if let Some(fwd) = filter.offer(ev) {
            server.handle_access(fwd.file);
        }
    }
    // Driver: same parameters through the sweep API.
    let points = fgcache::sim::server::two_level_sweep(
        &trace,
        &fgcache::sim::server::TwoLevelConfig {
            filter_capacities: vec![150],
            server_capacity: 300,
            schemes: vec![fgcache::sim::server::ServerScheme::Aggregating { group_size: 5 }],
            successor_capacity: 8,
        },
    )
    .unwrap();
    let sweep_hit = points[0].server_hit_rate;
    let manual_hit = Cache::stats(&server).hit_rate();
    assert!(
        (sweep_hit - manual_hit).abs() < 1e-12,
        "sweep {sweep_hit} vs manual {manual_hit}"
    );
    assert_eq!(points[0].server_accesses, filter.forwarded());
}

#[test]
fn piggybacked_metadata_beats_miss_stream_metadata_at_the_server() {
    // The §4.3 ablation: a server whose successor table is fed the FULL
    // client access stream (cooperative clients piggy-backing stats)
    // should do at least as well as one that only sees its own misses.
    let trace = workload();
    let run = |cooperative: bool| {
        let mut filter = LruCache::new(200);
        let mut server = AggregatingCacheBuilder::new(300)
            .group_size(5)
            .metadata_source(if cooperative {
                MetadataSource::External
            } else {
                MetadataSource::Requests
            })
            .build()
            .unwrap();
        for ev in trace.events() {
            if cooperative {
                server.observe_metadata(ev.file);
            }
            if filter.access(ev.file).is_miss() {
                server.handle_access(ev.file);
            }
        }
        Cache::stats(&server).hit_rate()
    };
    let uncooperative = run(false);
    let cooperative = run(true);
    // The paper's point (§4.3) is that the aggregating server cache works
    // WITHOUT client cooperation. Piggy-backed full-stream statistics are
    // competitive but not strictly better: the full stream teaches the
    // server transitions its clients will absorb, while the miss stream
    // is a model of exactly the requests the server will see.
    assert!(
        cooperative >= uncooperative * 0.80,
        "cooperative {cooperative} vs uncooperative {uncooperative}"
    );
    // Both modes must beat a plain LRU server cache handily.
    let plain = {
        let mut filter = LruCache::new(200);
        let mut server = LruCache::new(300);
        for ev in trace.events() {
            if filter.access(ev.file).is_miss() {
                server.access(ev.file);
            }
        }
        server.stats().hit_rate()
    };
    assert!(
        uncooperative > plain * 1.5,
        "uncooperative {uncooperative} vs plain {plain}"
    );
    assert!(
        cooperative > plain * 1.5,
        "cooperative {cooperative} vs plain {plain}"
    );
}

#[test]
fn aggregating_cache_beats_probability_graph_baseline_on_drifting_workload() {
    // The related-work comparison: same group size, same cache capacity;
    // groups from recency successor chains vs from a lookahead-window
    // frequency graph (Griffioen–Appleton).
    let trace = workload();
    let capacity = 200;
    let g = 5;

    let mut agg = AggregatingCacheBuilder::new(capacity)
        .group_size(g)
        .build()
        .unwrap();
    for ev in trace.events() {
        agg.handle_access(ev.file);
    }

    let mut pg = ProbabilityGraph::new(g - 1, 0.05).unwrap();
    let mut cache = LruCache::new(capacity);
    let mut pg_fetches = 0u64;
    for ev in trace.events() {
        pg.record(ev.file);
        if cache.access(ev.file).is_miss() {
            pg_fetches += 1;
            let group = pg.group_for(ev.file, g);
            let members: Vec<FileId> = group.members().to_vec();
            cache.insert_speculative_batch(&members);
        }
    }

    let lru_fetches = {
        let mut lru = LruCache::new(capacity);
        trace
            .events()
            .iter()
            .filter(|ev| lru.access(ev.file).is_miss())
            .count() as u64
    };

    // Both predictors beat plain LRU...
    assert!(agg.demand_fetches() < lru_fetches);
    assert!(pg_fetches < lru_fetches);
    // ...and successor chaining is competitive with the window graph
    // (the paper's claimed advantages are generality and minimal
    // metadata, not strictly fewer fetches).
    assert!(
        (agg.demand_fetches() as f64) <= pg_fetches as f64 * 1.05,
        "agg {} vs probgraph {}",
        agg.demand_fetches(),
        pg_fetches
    );
    // The metadata argument, made concrete: the aggregating cache keeps a
    // small bounded list per file, while the lookahead graph accumulates
    // unbounded windowed edges — several times the footprint here.
    assert!(agg.metadata_entries() <= agg.tracked_files().count() * 8);
    assert!(
        pg.edge_count() > 2 * agg.metadata_entries(),
        "probgraph edges {} vs successor entries {}",
        pg.edge_count(),
        agg.metadata_entries()
    );
}

#[test]
fn filtered_stream_stats_are_consistent() {
    let trace = workload();
    let mut client = LruCache::new(100);
    let misses = miss_stream(&mut client, &trace);
    let raw = TraceStats::compute(&trace);
    let filtered = TraceStats::compute(&misses);
    assert_eq!(misses.len() as u64, client.stats().misses);
    assert!(filtered.events < raw.events);
    // Filtering preserves the file universe subset property.
    assert!(filtered.unique_files <= raw.unique_files);
    // Every cold (first) access misses, so the filtered stream contains
    // every distinct file of the raw trace.
    assert_eq!(filtered.unique_files, raw.unique_files);
}

#[test]
fn all_policies_run_the_full_workload_through_trait_objects() {
    let trace = workload();
    for kind in PolicyKind::ALL {
        let mut cache = kind.build(128);
        for ev in trace.events() {
            cache.access(ev.file);
        }
        let s = cache.stats();
        assert_eq!(s.accesses as usize, trace.len(), "{kind}");
        assert!(s.hit_rate() > 0.0, "{kind} got zero hits");
        assert!(cache.len() <= 128, "{kind}");
    }
}

#[test]
fn successor_table_metadata_stays_tiny() {
    // The paper's "minimal metadata" claim: entries ≤ files × capacity,
    // and in practice far less.
    let trace = workload();
    let mut table = SuccessorTable::new(LruSuccessorList::new(4).unwrap());
    for ev in trace.events() {
        table.record(ev.file);
    }
    let stats = TraceStats::compute(&trace);
    assert!(table.tracked_files() <= stats.unique_files);
    assert!(table.metadata_entries() <= table.tracked_files() * 4);
    let per_file = table.metadata_entries() as f64 / table.tracked_files() as f64;
    assert!(per_file < 3.0, "mean successors per file {per_file}");
}
