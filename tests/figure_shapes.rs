//! Integration tests asserting the *shape* of every reproduced figure at
//! reduced scale — the acceptance criteria from DESIGN.md §5.
//!
//! These run the same drivers as the `repro` binary, on smaller
//! traces, and check the qualitative claims of the paper: who wins, by
//! roughly what factor, and where the crossovers fall.

use fgcache::cache::PolicyKind;
use fgcache::prelude::*;
use fgcache::sim::client::{client_sweep, ClientSweepConfig};
use fgcache::sim::entropy_exp::{entropy_sweep, filtered_entropy_sweep};
use fgcache::sim::headline::headline_summary;
use fgcache::sim::server::{two_level_sweep, ServerScheme, TwoLevelConfig};
use fgcache::sim::successors::{successor_eval, ReplacementScheme, SuccessorEvalConfig};

const EVENTS: usize = 60_000;
const SEED: u64 = 77;

fn trace(profile: WorkloadProfile) -> Trace {
    SynthConfig::profile(profile)
        .events(EVENTS)
        .seed(SEED)
        .build()
        .expect("profiles are valid")
        .generate()
}

#[test]
fn fig3_shape_grouping_cuts_fetches_with_diminishing_returns() {
    let t = trace(WorkloadProfile::Server);
    let points = client_sweep(
        &t,
        &ClientSweepConfig {
            capacities: vec![100, 400],
            group_sizes: vec![1, 2, 3, 5, 7, 10],
            successor_capacity: 8,
        },
    )
    .unwrap();
    for &capacity in &[100usize, 400] {
        let fetches = |g: usize| {
            points
                .iter()
                .find(|p| p.capacity == capacity && p.group_size == g)
                .unwrap()
                .demand_fetches
        };
        let lru = fetches(1);
        // Every group size beats plain LRU.
        for g in [2, 3, 5, 7, 10] {
            assert!(fetches(g) < lru, "cap {capacity}: g{g} did not beat LRU");
        }
        // Substantial reduction by g5 (paper: > 60 % on server). At the
        // larger capacity the compulsory-miss floor leaves less headroom,
        // so the bar is lower there.
        let bar = if capacity == 100 { 0.55 } else { 0.70 };
        assert!(
            (fetches(5) as f64) < bar * lru as f64,
            "cap {capacity}: g5 {} vs lru {lru}",
            fetches(5)
        );
        // Monotone in group size: larger groups never fetch more.
        assert!(fetches(3) <= fetches(2));
        assert!(fetches(5) <= fetches(3));
        assert!(fetches(7) <= fetches(5));
        assert!(fetches(10) <= fetches(7));
        // Diminishing returns past g5: the g5→g10 step is smaller than
        // the LRU→g5 step.
        let early_gain = lru - fetches(5);
        let late_gain = fetches(5) - fetches(10);
        assert!(
            late_gain * 4 < early_gain,
            "no taper: {early_gain} vs {late_gain}"
        );
    }
}

#[test]
fn fig3_shape_write_workload_gains_least() {
    let reduction = |profile: WorkloadProfile| {
        let t = trace(profile);
        let points = client_sweep(
            &t,
            &ClientSweepConfig {
                capacities: vec![200],
                group_sizes: vec![1, 5],
                successor_capacity: 8,
            },
        )
        .unwrap();
        let lru = points
            .iter()
            .find(|p| p.group_size == 1)
            .unwrap()
            .demand_fetches;
        let g5 = points
            .iter()
            .find(|p| p.group_size == 5)
            .unwrap()
            .demand_fetches;
        1.0 - g5 as f64 / lru as f64
    };
    let write = reduction(WorkloadProfile::Write);
    let server = reduction(WorkloadProfile::Server);
    assert!(
        write < server,
        "write workload should gain least: write {write:.2} vs server {server:.2}"
    );
}

#[test]
fn fig4_shape_plain_caches_collapse_aggregating_survives() {
    let t = trace(WorkloadProfile::Workstation);
    let points = two_level_sweep(
        &t,
        &TwoLevelConfig {
            filter_capacities: vec![50, 300, 450],
            server_capacity: 300,
            schemes: vec![
                ServerScheme::Aggregating { group_size: 5 },
                ServerScheme::Policy(PolicyKind::Lru),
                ServerScheme::Policy(PolicyKind::Lfu),
                ServerScheme::Policy(PolicyKind::TwoQ),
            ],
            successor_capacity: 8,
        },
    )
    .unwrap();
    let hit = |filter: usize, scheme: &str| {
        points
            .iter()
            .find(|p| p.filter_capacity == filter && p.scheme == scheme)
            .unwrap()
            .server_hit_rate
    };
    // LRU degrades sharply as the filter grows toward the server size.
    assert!(hit(50, "lru") > 3.0 * hit(450, "lru").max(0.01));
    // The aggregating cache wins at every filter size...
    for f in [50usize, 300, 450] {
        assert!(hit(f, "g5") > hit(f, "lru"), "filter {f}");
        assert!(hit(f, "g5") > hit(f, "lfu"), "filter {f}");
    }
    // ...and stays genuinely useful (paper: 30-60 %) where LRU is dead.
    assert!(
        hit(450, "g5") > 0.30,
        "aggregating hit rate {} at filter 450",
        hit(450, "g5")
    );
    assert!(hit(450, "lru") < 0.10);
    // LRU >= LFU ("it is no surprise that LRU outperforms LFU").
    assert!(hit(50, "lru") >= hit(50, "lfu"));
    // 2Q is kept as the one strong plain baseline: its scan resistance
    // beats LRU at every filter size (measured 0.403/0.356, 0.124/0.033,
    // 0.046/0.001), yet grouping still wins by a wide margin (measured
    // g5 - 2q = 0.221, 0.315, 0.361), so the gain is information, not
    // replacement policy.
    for f in [50usize, 300, 450] {
        assert!(hit(f, "2q") >= hit(f, "lru"), "filter {f}");
        assert!(
            hit(f, "g5") - hit(f, "2q") >= 0.15,
            "filter {f}: g5 {} vs 2q {}",
            hit(f, "g5"),
            hit(f, "2q")
        );
    }
}

#[test]
fn fig5_shape_sharp_drop_lru_tracks_oracle() {
    let t = trace(WorkloadProfile::Server);
    let points = successor_eval(
        &t,
        &SuccessorEvalConfig {
            capacities: vec![1, 2, 4, 10],
            schemes: vec![
                ReplacementScheme::Oracle,
                ReplacementScheme::Lru,
                ReplacementScheme::Lfu,
            ],
        },
    )
    .unwrap();
    let p = |cap: usize, s: &str| {
        points
            .iter()
            .find(|x| x.capacity == cap && x.scheme == s)
            .unwrap()
            .miss_probability
    };
    // Sharp drop from one to a few entries.
    assert!(p(2, "lru") < 0.6 * p(1, "lru"));
    // Oracle bounds everything at every capacity.
    for cap in [1usize, 2, 4, 10] {
        assert!(p(cap, "oracle") <= p(cap, "lru") + 1e-12);
        assert!(p(cap, "oracle") <= p(cap, "lfu") + 1e-12);
    }
    // A handful of recency-managed entries lands near the oracle.
    assert!(
        p(10, "lru") - p(10, "oracle") < 0.05,
        "lru@10 {} vs oracle {}",
        p(10, "lru"),
        p(10, "oracle")
    );
    // Recency is never materially worse than frequency.
    for cap in [1usize, 2, 4, 10] {
        assert!(p(cap, "lru") <= p(cap, "lfu") + 0.02, "cap {cap}");
    }
}

#[test]
fn fig7_shape_single_successors_most_predictable_server_lowest() {
    let traces: Vec<(String, Trace)> = WorkloadProfile::ALL
        .iter()
        .map(|&p| (p.name().to_string(), trace(p)))
        .collect();
    let labelled: Vec<(String, &Trace)> = traces.iter().map(|(l, t)| (l.clone(), t)).collect();
    let series = entropy_sweep(&labelled, &[1, 2, 4, 8, 16]).unwrap();
    let get = |label: &str| &series.iter().find(|s| s.label == label).unwrap().points;
    // Monotone non-decreasing in k for every workload.
    for s in &series {
        for pair in s.points.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1 - 0.02,
                "{}: entropy fell from k={} to k={}",
                s.label,
                pair[0].0,
                pair[1].0
            );
        }
    }
    // Server is the most predictable at k = 1, below one bit; users least.
    let at1 = |label: &str| get(label)[0].1;
    assert!(at1("server") < 1.0, "server {}", at1("server"));
    for other in ["workstation", "users", "write"] {
        assert!(at1("server") < at1(other), "server vs {other}");
    }
    assert!(at1("users") > at1("workstation"));
}

#[test]
fn fig8_shape_small_filters_hurt_large_filters_help_predictability() {
    let t = trace(WorkloadProfile::Write);
    let raw = fgcache::entropy::successor_entropy(&t.file_sequence());
    let series = filtered_entropy_sweep(&t, &[10, 50, 500, 1000], &[1]).unwrap();
    let h = |label: &str| series.iter().find(|s| s.label == label).unwrap().points[0].1;
    // A tiny filter strips the predictable immediate re-accesses → the
    // miss stream is LESS predictable than the raw workload.
    assert!(
        h("filter=10") > raw,
        "filter=10 {} vs raw {raw}",
        h("filter=10")
    );
    // Large filters expose the orderly first-access structure → MORE
    // predictable than raw, and monotonically so.
    assert!(h("filter=500") < raw);
    assert!(h("filter=1000") < h("filter=500"));
    assert!(h("filter=50") < h("filter=10"));
}

#[test]
fn headline_shape_all_claims_in_direction() {
    let traces: Vec<(String, Trace)> = WorkloadProfile::ALL
        .iter()
        .map(|&p| (p.name().to_string(), trace(p)))
        .collect();
    let labelled: Vec<(String, &Trace)> = traces.iter().map(|(l, t)| (l.clone(), t)).collect();
    let summary = headline_summary(&labelled).unwrap();
    assert_eq!(summary.rows.len(), 4);
    for row in &summary.rows {
        assert!(
            row.fetch_reduction > 0.15,
            "{}: reduction {}",
            row.workload,
            row.fetch_reduction
        );
        assert!(row.small_filter_g5_hit > row.small_filter_lru_hit);
        assert!(row.large_filter_g5_hit > row.large_filter_lru_hit);
        // Behind the large filter LRU is (near) dead while grouping lives.
        assert!(row.large_filter_lru_hit < 0.10, "{}", row.workload);
        assert!(row.large_filter_g5_hit > 0.15, "{}", row.workload);
        if let Some(gain) = row.small_filter_gain() {
            assert!(gain > 0.20, "{}: gain {gain}", row.workload);
        }
    }
    // The server workload gains the most from grouping on the client.
    let server = summary
        .rows
        .iter()
        .find(|r| r.workload == "server")
        .unwrap();
    for row in &summary.rows {
        assert!(server.fetch_reduction >= row.fetch_reduction - 1e-9);
    }
}
