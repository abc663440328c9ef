//! Regenerates the paper's evaluation, one figure or table per name, at
//! the standard scale: each prints aligned tables and writes their CSVs
//! under `results/`. Every run is deterministic (fixed seed, fixed event
//! counts).
//!
//! ```text
//! repro <fig3|fig4|fig5|fig7|fig8|headline|ablations|extensions|all>
//! ```
//!
//! | name | reproduces | expected shape (paper) |
//! |------|------------|------------------------|
//! | `fig3` | Figure 3 — client demand fetches vs cache capacity (100–800) per group size, all four workloads | every group size beats LRU at every capacity; g2/g3 cut misses by over 40 % on `server`, g5+ by over 60 %; gains taper beyond g5; `write` gains least |
//! | `fig4` | Figure 4 — server hit rate vs filter capacity (50–500), server cache 300, g5 vs LRU/LFU | LRU/LFU collapse as the filter nears the server's size; the aggregating cache keeps 30–60 %; LRU ≥ LFU |
//! | `fig5` | Figure 5 — P(miss future successor) vs list capacity (1–10), Oracle/LRU/LFU | steep fall over the first few entries; LRU ≤ LFU; both near the oracle by a handful |
//! | `fig7` | Figure 7 — successor entropy vs sequence length (1–20), all four workloads | rises with length; `server` lowest (< 1 bit at length 1); `users` highest |
//! | `fig8` | Figure 8 — entropy of miss streams filtered by LRU caches of 1–1000 files | a tiny filter (10) makes the stream less predictable, 50–1000 more |
//! | `headline` | the §1/§6 headline claims over all four workloads | 50–60 % fewer client fetches with g5; 20–1200 % server hit-rate gains; 30–60 % where LRU collapses |
//! | `ablations` | the design choices the paper makes or defers (below) | |
//! | `extensions` | §6 future work: group placement and hoarding | grouped placement seeks less than frequency placement; group-closure hoards match or beat frequency hoards |
//! | `all` | `fig3` … `headline`, in paper order | |
//!
//! The ablations:
//!
//! 1. **Group-member insertion position** (head vs tail) across cache
//!    sizes — the paper claims placement "was found to have little effect
//!    if the cache is several times the group size" (§3).
//! 2. **Successor-list capacity** — how much metadata is actually needed
//!    (§4.4 says "only a very small number of successors").
//! 3. **Server metadata source** — miss-stream-only vs piggy-backed full
//!    client statistics (§4.3).
//! 4. **Group sizes beyond 10** — does group construction ever start
//!    polluting the cache?
//! 5. **Hybrid recency/frequency successor scoring** — the paper's stated
//!    future work, swept over the decay factor (1.0 = pure frequency).
//! 6. **Predictor comparison** — successor chaining vs the
//!    Griffioen–Appleton probability graph at equal group size.
//! 7. **I/O cost model** — latency-vs-bandwidth pricing of group
//!    fetching under remote and LAN regimes (the §1 motivation and the
//!    §6 note that practical group sizes depend on the medium).
//! 8. **Cost/size-aware caching** — the paper's fixed-cost model vs
//!    Landlord (Young) and unit-accounted group fetching (g = 1 and
//!    g = 5), under seeded Pareto sizes.

use std::error::Error;
use std::process::ExitCode;

use fgcache_bench::{emit, standard_trace};
use fgcache_cache::{filter::miss_stream, Cache, LandlordCache, LruCache};
use fgcache_core::{AggregatingCacheBuilder, InsertionPolicy, MetadataSource};
use fgcache_placement::hoard::{
    evaluate, frequency_hoard, group_hoard, recency_hoard, split_at_fraction,
};
use fgcache_placement::layout::Layout;
use fgcache_placement::seek;
use fgcache_sim::client::{client_sweep, fetches_table, ClientSweepConfig};
use fgcache_sim::cost::{cost_sweep_via_transport, cost_table, CostModel};
use fgcache_sim::entropy_exp::{entropy_sweep, entropy_table, filtered_entropy_sweep};
use fgcache_sim::headline::headline_summary;
use fgcache_sim::report::{fmt2, pct, Table};
use fgcache_sim::server::{hit_rate_table, two_level_sweep, TwoLevelConfig};
use fgcache_sim::successors::{
    miss_probability_table, successor_eval, ReplacementScheme, SuccessorEvalConfig,
};
use fgcache_successor::ProbabilityGraph;
use fgcache_trace::synth::WorkloadProfile;
use fgcache_trace::Trace;
use fgcache_types::sizing::{SizeCostAssigner, SizeDistribution};
use fgcache_types::FileId;

type Run = fn() -> Result<(), Box<dyn Error>>;

/// Every reproduction by name; the first [`PAPER_FIGURES`] are the
/// paper's own evaluation, in paper order.
const FIGURES: [(&str, Run); 8] = [
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig7", fig7),
    ("fig8", fig8),
    ("headline", headline),
    ("ablations", ablations),
    ("extensions", extensions),
];

/// How many of [`FIGURES`] `all` runs: E1–E6, without the ablations and
/// extensions.
const PAPER_FIGURES: usize = 6;

/// The reproductions `name` selects, or `None` for an unknown name.
fn select(name: &str) -> Option<&'static [(&'static str, Run)]> {
    if name == "all" {
        return Some(&FIGURES[..PAPER_FIGURES]);
    }
    let i = FIGURES.iter().position(|(n, _)| *n == name)?;
    Some(&FIGURES[i..=i])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figures = match args.as_slice() {
        [name] => select(name),
        _ => None,
    };
    let Some(figures) = figures else {
        let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: repro <{}|all>", names.join("|"));
        return ExitCode::FAILURE;
    };
    for (name, run) in figures {
        if figures.len() > 1 {
            eprintln!("=== {name} ===");
        }
        if let Err(e) = run() {
            eprintln!("repro {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Each workload's standard trace, labelled with the profile's name.
fn labelled_traces() -> Vec<(String, Trace)> {
    WorkloadProfile::ALL
        .iter()
        .map(|&p| (p.name().to_string(), standard_trace(p)))
        .collect()
}

fn fig3() -> Result<(), Box<dyn Error>> {
    // The paper shows `server` and `write`; the extra two back the §4.2
    // prose claims.
    for profile in [
        WorkloadProfile::Server,
        WorkloadProfile::Write,
        WorkloadProfile::Workstation,
        WorkloadProfile::Users,
    ] {
        let trace = standard_trace(profile);
        let points = client_sweep(&trace, &ClientSweepConfig::paper())?;
        let table = fetches_table(
            &format!("Figure 3 ({profile}): demand fetches vs cache capacity"),
            &points,
        );
        emit(&format!("fig3_{profile}"), &table)?;
    }
    Ok(())
}

fn fig4() -> Result<(), Box<dyn Error>> {
    for profile in [
        WorkloadProfile::Workstation,
        WorkloadProfile::Users,
        WorkloadProfile::Server,
    ] {
        let trace = standard_trace(profile);
        let points = two_level_sweep(&trace, &TwoLevelConfig::paper())?;
        let table = hit_rate_table(
            &format!(
                "Figure 4 ({profile}): server hit rate vs filter capacity (server cache = 300)"
            ),
            &points,
        );
        emit(&format!("fig4_{profile}"), &table)?;
    }
    Ok(())
}

fn fig5() -> Result<(), Box<dyn Error>> {
    for profile in [WorkloadProfile::Workstation, WorkloadProfile::Server] {
        let trace = standard_trace(profile);
        let points = successor_eval(&trace, &SuccessorEvalConfig::paper())?;
        let table = miss_probability_table(
            &format!("Figure 5 ({}): P(miss future successor)", profile),
            &points,
        );
        emit(&format!("fig5_{profile}"), &table)?;
    }
    Ok(())
}

fn fig7() -> Result<(), Box<dyn Error>> {
    let traces = labelled_traces();
    let labelled: Vec<(String, &Trace)> = traces.iter().map(|(l, t)| (l.clone(), t)).collect();
    let ks: Vec<usize> = (1..=20).collect();
    let series = entropy_sweep(&labelled, &ks)?;
    let table = entropy_table(
        "Figure 7: successor entropy (bits) vs successor sequence length",
        &series,
    );
    emit("fig7", &table)?;
    Ok(())
}

fn fig8() -> Result<(), Box<dyn Error>> {
    let filter_capacities = [1usize, 10, 50, 100, 500, 1000];
    let ks: Vec<usize> = (1..=20).collect();
    for profile in [WorkloadProfile::Write, WorkloadProfile::Users] {
        let trace = standard_trace(profile);
        let series = filtered_entropy_sweep(&trace, &filter_capacities, &ks)?;
        let table = entropy_table(
            &format!("Figure 8 ({profile}): successor entropy of filtered miss streams"),
            &series,
        );
        emit(&format!("fig8_{profile}"), &table)?;
    }
    Ok(())
}

fn headline() -> Result<(), Box<dyn Error>> {
    let traces = labelled_traces();
    let labelled: Vec<(String, &Trace)> = traces.iter().map(|(l, t)| (l.clone(), t)).collect();
    let summary = headline_summary(&labelled)?;
    emit("headline", &summary.table())?;
    Ok(())
}

fn ablations() -> Result<(), Box<dyn Error>> {
    let server = standard_trace(WorkloadProfile::Server);
    let workstation = standard_trace(WorkloadProfile::Workstation);
    emit("ablation1_insertion", &ablate_insertion_position(&server))?;
    emit(
        "ablation2_successor_capacity",
        &ablate_successor_capacity(&server),
    )?;
    emit(
        "ablation3_metadata_source",
        &ablate_metadata_source(&workstation),
    )?;
    emit("ablation4_large_groups", &ablate_large_groups(&server))?;
    emit("ablation5_decay", &ablate_decay(&workstation))?;
    emit("ablation6_predictors", &ablate_predictors(&workstation))?;
    let (remote, lan) = ablate_cost(&workstation)?;
    emit("ablation7a_cost_remote", &remote)?;
    emit("ablation7b_cost_lan", &lan)?;
    emit("ablation8_cost_aware", &ablate_cost_aware(&workstation)?)?;
    Ok(())
}

fn extensions() -> Result<(), Box<dyn Error>> {
    // Placement: learn a layout from the first half of the trace, then
    // replay the second half's MISS STREAM against it — storage layout
    // matters for the requests that reach the disk, not for cache hits,
    // and the server's disk sees a filtered stream (paper §4.3).
    let mut placement = Table::new(
        "extension A: mean seek distance on the disk-request stream (client cache = 300)",
        [
            "workload",
            "hashed",
            "frequency",
            "organ-pipe",
            "grouped(g=5)",
        ],
    );
    for profile in WorkloadProfile::ALL {
        let trace = standard_trace(profile);
        let (history, future_raw) = split_at_fraction(&trace, 0.5);
        let mut client = LruCache::new(300);
        let future = miss_stream(&mut client, &future_raw);
        let row = [
            seek::mean_seek(&Layout::hashed(&history), &future),
            seek::mean_seek(&Layout::by_frequency(&history), &future),
            seek::mean_seek(&Layout::organ_pipe(&history), &future),
            seek::mean_seek(&Layout::grouped(&history, 5), &future),
        ];
        placement.push_row([
            profile.name().to_string(),
            fmt2(row[0]),
            fmt2(row[1]),
            fmt2(row[2]),
            fmt2(row[3]),
        ]);
    }
    emit("extensionA_placement", &placement)?;

    // Hoarding: build hoards from the first 70 %, score on the last 30 %.
    let mut hoarding = Table::new(
        "extension B: disconnected-period hit rate by hoarding strategy (budget = 500 files)",
        ["workload", "frequency", "recency", "group-closure(g=5)"],
    );
    for profile in WorkloadProfile::ALL {
        let trace = standard_trace(profile);
        let (history, future) = split_at_fraction(&trace, 0.7);
        let budget = 500;
        hoarding.push_row([
            profile.name().to_string(),
            pct(evaluate(&frequency_hoard(&history, budget), &future).hit_rate()),
            pct(evaluate(&recency_hoard(&history, budget), &future).hit_rate()),
            pct(evaluate(&group_hoard(&history, budget, 5), &future).hit_rate()),
        ]);
    }
    emit("extensionB_hoarding", &hoarding)?;
    Ok(())
}

fn run_client(trace: &Trace, capacity: usize, g: usize, policy: InsertionPolicy) -> u64 {
    let mut cache = AggregatingCacheBuilder::new(capacity)
        .group_size(g)
        .insertion_policy(policy)
        .build()
        .expect("valid config");
    for ev in trace.events() {
        cache.handle_access(ev.file);
    }
    cache.demand_fetches()
}

/// Relative change of `head` vs `tail`, or an em-dash when the
/// baseline is zero (a `0/0` here would print `NaN%` and poison the
/// published CSV).
fn fmt_delta(head: u64, tail: u64) -> String {
    if tail == 0 {
        return "\u{2014}".to_string();
    }
    let delta = (head as f64 - tail as f64) / tail as f64;
    format!("{:+.1}%", delta * 100.0)
}

fn ablate_insertion_position(trace: &Trace) -> Table {
    let mut t = Table::new(
        "ablation 1: group-member insertion position (g = 5, server workload)",
        ["capacity", "cap/g", "tail fetches", "head fetches", "delta"],
    );
    for capacity in [5usize, 10, 25, 50, 150, 400] {
        let tail = run_client(trace, capacity, 5, InsertionPolicy::Tail);
        let head = run_client(trace, capacity, 5, InsertionPolicy::Head);
        t.push_row([
            capacity.to_string(),
            format!("{}x", capacity / 5),
            tail.to_string(),
            head.to_string(),
            fmt_delta(head, tail),
        ]);
    }
    t
}

fn ablate_successor_capacity(trace: &Trace) -> Table {
    let mut t = Table::new(
        "ablation 2: successor-list capacity (g = 5, cache = 300)",
        ["list capacity", "demand fetches", "metadata entries"],
    );
    for cap in [1usize, 2, 3, 4, 6, 8, 12, 16] {
        let mut cache = AggregatingCacheBuilder::new(300)
            .group_size(5)
            .successor_capacity(cap)
            .build()
            .expect("valid config");
        for ev in trace.events() {
            cache.handle_access(ev.file);
        }
        t.push_row([
            cap.to_string(),
            cache.demand_fetches().to_string(),
            cache.metadata_entries().to_string(),
        ]);
    }
    t
}

fn ablate_metadata_source(trace: &Trace) -> Table {
    let mut t = Table::new(
        "ablation 3: server metadata source (filter = 200, server = 300, g = 5)",
        ["source", "server hit rate", "server requests"],
    );
    for (label, cooperative) in [
        ("miss stream only", false),
        ("piggy-backed full stream", true),
    ] {
        let mut filter = LruCache::new(200);
        let mut server = AggregatingCacheBuilder::new(300)
            .group_size(5)
            .metadata_source(if cooperative {
                MetadataSource::External
            } else {
                MetadataSource::Requests
            })
            .build()
            .expect("valid config");
        for ev in trace.events() {
            if cooperative {
                server.observe_metadata(ev.file);
            }
            if filter.access(ev.file).is_miss() {
                server.handle_access(ev.file);
            }
        }
        let stats = Cache::stats(&server);
        t.push_row([
            label.to_string(),
            pct(stats.hit_rate()),
            stats.accesses.to_string(),
        ]);
    }
    t
}

fn ablate_large_groups(trace: &Trace) -> Table {
    let mut t = Table::new(
        "ablation 4: group sizes beyond the paper's 10 (cache = 300)",
        [
            "group size",
            "demand fetches",
            "files/fetch",
            "prefetch accuracy",
        ],
    );
    for g in [1usize, 5, 10, 15, 20, 30] {
        let mut cache = AggregatingCacheBuilder::new(300)
            .group_size(g)
            .build()
            .expect("valid config");
        for ev in trace.events() {
            cache.handle_access(ev.file);
        }
        t.push_row([
            g.to_string(),
            cache.demand_fetches().to_string(),
            fmt2(cache.group_stats().mean_group_size()),
            pct(Cache::stats(&cache).speculative_accuracy()),
        ]);
    }
    t
}

fn ablate_decay(trace: &Trace) -> Table {
    let mut t = Table::new(
        "ablation 5: hybrid recency/frequency successor scoring (list capacity = 4)",
        ["decay", "P(miss future successor)"],
    );
    let mut schemes = vec![ReplacementScheme::Lru, ReplacementScheme::Lfu];
    for d in [1.0f64, 0.99, 0.9, 0.7, 0.5, 0.2] {
        schemes.push(ReplacementScheme::Decayed(d));
    }
    let points = successor_eval(
        trace,
        &SuccessorEvalConfig {
            capacities: vec![4],
            schemes,
        },
    )
    .expect("valid config");
    for p in points {
        t.push_row([p.scheme, fmt2(p.miss_probability)]);
    }
    t
}

fn ablate_predictors(trace: &Trace) -> Table {
    let mut t = Table::new(
        "ablation 6: predictor comparison (cache = 300, g = 5)",
        ["predictor", "demand fetches", "metadata entries"],
    );
    // Plain LRU baseline.
    let lru = run_client(trace, 300, 1, InsertionPolicy::Tail);
    t.push_row(["plain lru".to_string(), lru.to_string(), "0".to_string()]);
    // Aggregating cache.
    let mut agg = AggregatingCacheBuilder::new(300)
        .group_size(5)
        .build()
        .expect("valid config");
    for ev in trace.events() {
        agg.handle_access(ev.file);
    }
    t.push_row([
        "successor chains (paper)".to_string(),
        agg.demand_fetches().to_string(),
        agg.metadata_entries().to_string(),
    ]);
    // Griffioen–Appleton probability graph at equal group size.
    let mut pg = ProbabilityGraph::new(4, 0.05).expect("valid config");
    let mut cache = LruCache::new(300);
    let mut fetches = 0u64;
    for ev in trace.events() {
        pg.record(ev.file);
        if cache.access(ev.file).is_miss() {
            fetches += 1;
            let members: Vec<FileId> = pg.group_for(ev.file, 5).members().to_vec();
            cache.insert_speculative_batch(&members);
        }
    }
    t.push_row([
        "probability graph (G&A '94)".to_string(),
        fetches.to_string(),
        pg.edge_count().to_string(),
    ]);
    t
}

fn ablate_cost(trace: &Trace) -> Result<(Table, Table), Box<dyn Error>> {
    let sizes = [1usize, 2, 5, 10, 20];
    // Priced from the transport layer's own counters — the layer that
    // moved the files — which also cross-checks them against the cache's
    // analytic counters and errors on any divergence.
    let remote = cost_sweep_via_transport(trace, 300, &sizes, CostModel::remote())?;
    let lan = cost_sweep_via_transport(trace, 300, &sizes, CostModel::lan())?;
    Ok((
        cost_table(
            "ablation 7a: I/O cost, remote regime (request = 10x transfer)",
            &remote,
        ),
        cost_table(
            "ablation 7b: I/O cost, LAN regime (request = 2x transfer)",
            &lan,
        ),
    ))
}

fn ablate_cost_aware(trace: &Trace) -> Result<Table, Box<dyn Error>> {
    // Seeded Pareto sizes (mean ≈ 7 units/file), so the legacy 300-file
    // baseline and the 2048-unit size-aware caches hold roughly the same
    // byte budget. Everything is priced under the sized remote regime.
    let assigner = SizeCostAssigner::new(SizeDistribution::Pareto, 42);
    let units = 2048usize;
    let model = CostModel::remote_sized();
    let mut t = Table::new(
        "ablation 8: cost/size-aware caching (pareto sizes, seed 42, ~2048-unit budget)",
        [
            "config",
            "fetches",
            "files moved",
            "units moved",
            "time (remote)",
        ],
    );
    let mut row = |label: &str, fetches: u64, files: u64, moved: u64| {
        t.push_row([
            label.to_string(),
            fetches.to_string(),
            files.to_string(),
            moved.to_string(),
            fmt2(model.total_sized(fetches, files, moved)),
        ]);
    };
    // The paper's fixed-cost model: a count-based LRU that cannot see
    // sizes. Its misses still move real bytes, priced honestly here.
    let mut lru = LruCache::new(300);
    let mut fetches = 0u64;
    let mut moved = 0u64;
    for ev in trace.events() {
        if lru.access(ev.file).is_miss() {
            fetches += 1;
            moved += u64::from(assigner.size_of(ev.file));
        }
    }
    row("lru 300 files (size-blind)", fetches, fetches, moved);
    // Landlord: cost/size-aware replacement over the same byte budget.
    let mut landlord = LandlordCache::with_assigner(units, assigner);
    let mut fetches = 0u64;
    let mut moved = 0u64;
    for ev in trace.events() {
        if landlord.access(ev.file).is_miss() {
            fetches += 1;
            moved += u64::from(assigner.size_of(ev.file));
        }
    }
    row("landlord 2048 units", fetches, fetches, moved);
    // Unit-accounted group fetching: g = 1 isolates the size accounting
    // (an LRU over units), g = 5 adds grouping.
    for (label, g) in [
        ("sized lru (agg g=1) 2048 units", 1usize),
        ("agg g=5 sized 2048 units", 5),
    ] {
        let mut cache = AggregatingCacheBuilder::new(units)
            .group_size(g)
            .sizes(assigner)
            .build()?;
        for ev in trace.events() {
            cache.handle_access(ev.file);
        }
        let gs = cache.group_stats();
        row(
            label,
            gs.demand_fetches,
            gs.files_transferred,
            gs.size_units_transferred,
        );
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(name: &str) -> Option<Vec<&'static str>> {
        select(name).map(|figures| figures.iter().map(|(n, _)| *n).collect())
    }

    #[test]
    fn every_figure_name_selects_itself_alone() {
        for name in [
            "fig3",
            "fig4",
            "fig5",
            "fig7",
            "fig8",
            "headline",
            "ablations",
            "extensions",
        ] {
            assert_eq!(names(name), Some(vec![name]));
        }
    }

    #[test]
    fn all_runs_the_paper_figures_in_paper_order() {
        assert_eq!(
            names("all"),
            Some(vec!["fig3", "fig4", "fig5", "fig7", "fig8", "headline"])
        );
    }

    #[test]
    fn unknown_names_are_rejected() {
        for name in ["", "fig6", "repro_fig3", "Fig3", "all ", "ablation"] {
            assert_eq!(names(name), None, "{name:?}");
        }
    }

    #[test]
    fn delta_renders_dash_instead_of_nan_on_zero_baseline() {
        assert_eq!(fmt_delta(5, 0), "\u{2014}");
        assert_eq!(fmt_delta(0, 0), "\u{2014}");
        assert_eq!(fmt_delta(11, 10), "+10.0%");
        assert_eq!(fmt_delta(9, 10), "-10.0%");
    }
}
