//! Cluster mode at fleet scale: a 100-virtual-node cluster replaying a
//! streamed trace with membership churn is byte-identical, per node, to
//! the single-process routing oracle. This is the in-process fleet's
//! only end-to-end check; the multi-process TCP fleet is checked by the
//! `fgcache bench-cluster` smoke in `ci.sh`.

use fgcache_sim::cluster::{
    oracle_replay, zipf_stream, MembershipChange, MembershipEvent, VirtualCluster,
    VirtualClusterConfig,
};

#[test]
fn hundred_node_cluster_matches_the_oracle_under_churn() {
    let config = VirtualClusterConfig {
        nodes: 100,
        node_capacity: 80,
        shards: 2,
        group_size: 4,
        successor_capacity: 4,
    };
    let total = 60_000u64;
    // Nodes leave and rejoin mid-replay; every change moves keys.
    let schedule = vec![
        MembershipEvent {
            at_event: total / 4,
            change: MembershipChange::Leave(17),
        },
        MembershipEvent {
            at_event: total * 2 / 5,
            change: MembershipChange::Leave(63),
        },
        MembershipEvent {
            at_event: total * 7 / 10,
            change: MembershipChange::Join(17),
        },
    ];
    let events = || zipf_stream(4_000, 0.85, 2002, total).expect("valid zipf");

    let mut cluster = VirtualCluster::build(&config).expect("valid config");
    let report = cluster.replay(events(), &schedule);
    let oracle = oracle_replay(&config, events(), &schedule).expect("valid config");

    // The headline assertion: 100 nodes, byte-identical stats per node.
    for (i, (got, want)) in report.per_node.iter().zip(&oracle).enumerate() {
        assert_eq!(got, want, "node {i} diverged from the oracle");
    }
    assert_eq!(report.per_node.len(), 100);
    assert_eq!(report.events, total);
    assert_eq!(report.load.iter().sum::<u64>(), total);

    // The load distribution reflects the Zipf *access* skew (hot files
    // concentrate on their owners), not a hash defect — so the bound is
    // loose. What matters: the metric is sane and no node is starved of
    // ownership entirely.
    let imbalance = report.imbalance.expect("live fleet with traffic");
    assert!((1.0..15.0).contains(&imbalance), "imbalance {imbalance}");
    assert!(
        report.load.iter().all(|&l| l > 0),
        "every node should serve something over 60k events"
    );

    // With 100 nodes, ~99% of events enter at a non-owner: proxying
    // dominates, and none of it failed or fell back.
    let proxied: u64 = report.node_stats.iter().map(|s| s.proxied).sum();
    assert!(proxied > total / 2, "proxied only {proxied} of {total}");
    assert_eq!(report.upstream.requests, proxied);
    assert_eq!(
        report
            .node_stats
            .iter()
            .map(|s| s.proxy_failures)
            .sum::<u64>(),
        0
    );
    // Sequential replay: no two concurrent misses, so nothing collapsed
    // and nothing hit a reply cache.
    assert_eq!(
        report.node_stats.iter().map(|s| s.collapsed).sum::<u64>(),
        0
    );
    assert_eq!(report.upstream.reply_cache_hits, 0);
}
