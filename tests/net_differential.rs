//! The PR's acceptance property, end to end through the facade crate: a
//! multi-client replay over real loopback TCP produces hit/miss and
//! group-fetch counters **byte-identical** to direct in-process calls on
//! the same `ShardedAggregatingCache` — the wire protocol, request-id
//! dedup, pooling and batching must all be observationally transparent,
//! also with hundreds of idle connections held open beside the replay.

use std::ops::Range;
use std::sync::Arc;

use fgcache::core::{ShardedAggregatingCache, ShardedAggregatingCacheBuilder};
use fgcache::net::{BoundServer, DirectTransport, NetClient, ServerHandle, WireStats};
use fgcache::sim::run_multiclient_transport;
use fgcache::trace::synth::{SynthConfig, WorkloadProfile};
use fgcache::trace::Trace;

const CLIENTS: usize = 3;
const FILTER: usize = 80;
/// Mostly-idle connections the crowd test holds open during its replay.
const IDLE_CONNS: usize = 256;
/// Bound on resident-set growth across the crowd test: 256 idle
/// connections plus replay state must stay far below it.
const MAX_RSS_GROWTH_KB: u64 = 128 * 1024;

fn workloads() -> Vec<Trace> {
    (0..CLIENTS)
        .map(|i| {
            SynthConfig::profile(WorkloadProfile::Server)
                .events(8_000)
                .seed(2002 + i as u64)
                .build()
                .unwrap()
                .generate()
        })
        .collect()
}

fn server_cache() -> ShardedAggregatingCache {
    ShardedAggregatingCacheBuilder::new(300)
        .shards(3)
        .group_size(5)
        .successor_capacity(8)
        .build()
        .unwrap()
}

#[test]
fn loopback_tcp_replay_is_byte_identical_to_in_process_calls() {
    let traces = workloads();
    let direct = direct_replay(&traces);

    // The same replay over a live TCP server at batch 1 — the identical
    // server-side interleave, so every counter must be byte-identical.
    let (point, wire) = tcp_replay(&traces, 1);
    let stats = direct.stats();
    let group = direct.group_stats();
    assert_eq!(wire.accesses, stats.accesses);
    assert_eq!(wire.hits, stats.hits);
    assert_eq!(wire.misses, stats.misses);
    assert_eq!(wire.speculative_inserts, stats.speculative_inserts);
    assert_eq!(wire.speculative_hits, stats.speculative_hits);
    assert_eq!(wire.evictions, stats.evictions);
    assert_eq!(wire.demand_fetches, group.demand_fetches);
    assert_eq!(wire.files_transferred, group.files_transferred);
    assert_eq!(
        wire.members_already_resident,
        group.members_already_resident
    );

    // The client-side view agrees with the server's: every executed
    // request moved its files through the transport layer exactly once.
    assert_eq!(point.transport.requests, wire.accesses);
    assert_eq!(point.transport.files_moved, wire.accesses);
    assert_eq!(point.transport.hits, wire.hits);
    assert_eq!(point.transport.misses, wire.misses);
    assert_eq!(point.transport.retries, 0);
    assert_eq!(point.transport.timeouts, 0);
}

#[test]
fn batched_pipelining_changes_interleave_but_never_workload_totals() {
    // Batching reorders how the clients' requests interleave at the shared
    // server (so hit/miss counts may differ), but the client filter tier is
    // upstream of batching: the *set* of requests — and therefore every
    // order-independent counter — is invariant.
    let traces = workloads();
    let (single, wire_single) = tcp_replay(&traces, 1);
    let (batched, wire_batched) = tcp_replay(&traces, 16);

    assert_eq!(wire_batched.accesses, wire_single.accesses);
    assert_eq!(batched.transport.requests, single.transport.requests);
    assert_eq!(batched.events, single.events);
    assert_eq!(batched.client_hit_rate, single.client_hit_rate);
    // The point of pipelining: far fewer wire exchanges for the same work.
    assert!(batched.transport.round_trips < single.transport.round_trips / 4);
}

#[test]
fn replay_beside_hundreds_of_idle_connections_is_byte_identical_and_bounded() {
    let traces = workloads();
    let direct = direct_replay(&traces);

    let rss_before = rss_kb();
    let (served, handle) = spawn_server();
    let mut idle = connect(&handle, 10_000..10_000 + IDLE_CONNS as u64);
    let clients = connect(&handle, 0..CLIENTS as u64);
    run_multiclient_transport(&traces, FILTER, clients, 1).unwrap();

    // The crowd changes nothing: the served cache ends in exactly the
    // state the in-process replay left the oracle in.
    assert_eq!(served.stats(), direct.stats());
    assert_eq!(served.group_stats(), direct.group_stats());

    // Every idle connection is still live and served through the event
    // loop: its stats reply matches every other's.
    let expected = idle[0].server_stats().unwrap();
    for (i, client) in idle.iter_mut().enumerate().skip(1) {
        assert_eq!(
            client.server_stats().unwrap(),
            expected,
            "idle connection {i}"
        );
    }

    // Not a procfs platform: the structural bounds still hold.
    if let (Some(before), Some(after)) = (rss_before, rss_kb()) {
        let growth = after.saturating_sub(before);
        assert!(
            growth < MAX_RSS_GROWTH_KB,
            "RSS grew {growth} KiB over the run (bound {MAX_RSS_GROWTH_KB} KiB)"
        );
    }
    drop(idle);
    handle.stop();
}

/// The batch-1 round-robin replay over direct in-process calls: the
/// byte-identity oracle every TCP replay is compared with.
fn direct_replay(traces: &[Trace]) -> ShardedAggregatingCache {
    let direct = server_cache();
    let transports: Vec<DirectTransport<'_>> = (0..traces.len())
        .map(|_| DirectTransport::new(&direct))
        .collect();
    run_multiclient_transport(traces, FILTER, transports, 1).unwrap();
    direct
}

/// A fresh loopback server over [`server_cache`], and the cache it serves.
fn spawn_server() -> (Arc<ShardedAggregatingCache>, ServerHandle) {
    let served = Arc::new(server_cache());
    let handle = BoundServer::bind("127.0.0.1:0", Arc::clone(&served))
        .unwrap()
        .spawn();
    (served, handle)
}

/// One client of `server` per request-id namespace in `namespaces`.
fn connect(server: &ServerHandle, namespaces: Range<u64>) -> Vec<NetClient> {
    namespaces
        .map(|ns| {
            NetClient::connect(server.addr())
                .unwrap()
                .with_id_namespace(ns)
        })
        .collect()
}

/// Resident set size in KiB from `/proc/self/status`, if readable.
fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Replays `traces` against a fresh loopback server and returns the
/// client-side replay point plus the server's counters read over the wire.
fn tcp_replay(traces: &[Trace], batch: usize) -> (fgcache::sim::TransportReplayPoint, WireStats) {
    let (_, handle) = spawn_server();
    let clients = connect(&handle, 0..CLIENTS as u64);
    let (point, mut clients) = run_multiclient_transport(traces, FILTER, clients, batch).unwrap();
    let wire = clients[0].server_stats().unwrap();
    handle.stop();
    (point, wire)
}
