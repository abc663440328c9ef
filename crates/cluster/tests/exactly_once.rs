//! Exactly-once for a cluster node lives at its *server*: a
//! [`ClusterNode`] is routing plus single-flight and remembers nothing, so
//! these tests put each node behind a real [`BoundServer`] on loopback and
//! retry over TCP — local serves, owned serves, proxies and the
//! proxy-failure fallback all deduplicate in one reply cache per process.

use std::sync::{Arc, Barrier};
use std::thread;

use fgcache_cluster::{ClusterNode, ClusterView, NodeId, PeerConnector};
use fgcache_core::ShardedAggregatingCacheBuilder;
use fgcache_net::{BoundServer, GroupRequest, NetClient, ServerHandle, Transport};
use fgcache_types::{FileId, TransportError, TransportErrorKind};

/// Nodes `1..=n`, each behind its own server, dialling peers through
/// `connector(id)` and all holding one epoch-1 view of the fleet.
fn fleet(
    n: u64,
    connector: impl Fn(u64) -> PeerConnector,
) -> Vec<(Arc<ClusterNode>, ServerHandle)> {
    let fleet: Vec<_> = (1..=n)
        .map(|id| {
            let cache = ShardedAggregatingCacheBuilder::new(64)
                .shards(2)
                .group_size(1)
                .build()
                .expect("valid config");
            let node = Arc::new(ClusterNode::new(NodeId(id), Arc::new(cache), connector(id)));
            let server = BoundServer::bind_backend("127.0.0.1:0", Arc::clone(&node))
                .expect("ephemeral bind")
                .spawn();
            (node, server)
        })
        .collect();
    let members: Vec<(NodeId, String)> = fleet
        .iter()
        .map(|(node, server)| (node.id(), server.addr().to_string()))
        .collect();
    for (node, _) in &fleet {
        node.apply_view(ClusterView::new(1, members.clone()));
    }
    fleet
}

fn tcp_connector(_id: u64) -> PeerConnector {
    Box::new(|_peer, addr| Ok(Box::new(NetClient::connect(addr)?) as Box<dyn Transport + Send>))
}

/// The first `count` files the shared view assigns to `owner`.
fn owned_by(node: &ClusterNode, owner: NodeId, count: usize) -> Vec<FileId> {
    let ring = node.view().ring();
    (0..)
        .map(FileId)
        .filter(|&f| ring.owner(f) == Some(owner))
        .take(count)
        .collect()
}

fn stop(fleet: Vec<(Arc<ClusterNode>, ServerHandle)>) {
    for (_, server) in fleet {
        server.stop();
    }
}

#[test]
fn retries_execute_once_and_count_one_hit_at_the_server_they_reach() {
    let fleet = fleet(2, tcp_connector);
    let (one, two) = (&fleet[0].0, &fleet[1].0);
    let mut client = NetClient::connect(fleet[0].1.addr()).expect("connect");
    let local = GroupRequest::new(1, owned_by(one, NodeId(1), 1));
    let remote = owned_by(one, NodeId(2), 2);
    let owned = GroupRequest::new(2, vec![remote[0]]);
    let proxied = GroupRequest::new(3, vec![remote[1]]);

    // A locally-owned `Fetch`, retried.
    let first = client.fetch_group(&local).expect("fetch");
    assert_eq!(first, client.fetch_group(&local).expect("retry"));
    assert_eq!(
        one.cache().stats().accesses,
        1,
        "the retry executed nothing"
    );
    assert_eq!(
        client.server_stats().expect("stats").reply_cache_hits,
        1,
        "one retry is one hit: nothing below the server counts it again"
    );

    // A `FetchOwned`, retried: served locally whatever the ring says.
    let first = client.fetch_owned(&owned).expect("owned fetch");
    assert_eq!(first, client.fetch_owned(&owned).expect("owned retry"));
    assert_eq!(one.cache().stats().accesses, 2);
    assert_eq!(client.server_stats().expect("stats").reply_cache_hits, 2);

    // A proxied `Fetch`, retried: the entry server remembers the reply,
    // so the retry never reaches the owner at all.
    let first = client.fetch_group(&proxied).expect("proxied fetch");
    assert_eq!(first, client.fetch_group(&proxied).expect("proxied retry"));
    assert_eq!(
        one.cache().stats().accesses,
        2,
        "the entry node served none"
    );
    assert_eq!(two.cache().stats().accesses, 1, "the owner executed once");
    assert_eq!(client.server_stats().expect("stats").reply_cache_hits, 3);
    let owner_stats = NetClient::connect(fleet[1].1.addr())
        .expect("connect")
        .server_stats()
        .expect("stats");
    assert_eq!(owner_stats.reply_cache_hits, 0);

    let routed = one.stats();
    assert_eq!(
        (routed.local_serves, routed.owned_serves, routed.proxied),
        (1, 1, 1),
        "each request was routed once; retries never reached the node"
    );
    stop(fleet);
}

/// Each server executes with no reply-cache lock held, so a node blocked
/// on its peer still serves that peer's owned fetches: the cross-proxy
/// that would deadlock under a lock-across-execution rule completes,
/// inside the clients' (default, 2 s) timeout.
#[test]
fn nodes_proxying_to_each_other_concurrently_complete() {
    const FETCHES: usize = 200;
    let fleet = fleet(2, tcp_connector);
    let start = Barrier::new(2);
    thread::scope(|scope| {
        for (entry, owner) in [(0, 1), (1, 0)] {
            let files = owned_by(&fleet[entry].0, fleet[owner].0.id(), FETCHES);
            let addr = fleet[entry].1.addr();
            let start = &start;
            scope.spawn(move || {
                let mut client = NetClient::connect(addr)
                    .expect("connect")
                    .with_id_namespace(entry as u64 + 1);
                start.wait();
                for file in files {
                    let request = client.next_request(vec![file]);
                    let reply = client.fetch_group(&request).expect("cross-proxied fetch");
                    assert_eq!(reply.files[0].file, file);
                }
            });
        }
    });
    for (node, _) in &fleet {
        let stats = node.stats();
        assert_eq!(stats.proxy_failures, 0);
        assert_eq!(stats.proxied as usize, FETCHES);
        assert_eq!(stats.owned_serves as usize, FETCHES);
        assert_eq!(stats.local_serves, 0);
        assert_eq!(node.cache().stats().accesses as usize, FETCHES);
    }
    stop(fleet);
}

#[test]
fn proxy_failure_fallback_is_covered_by_the_entry_servers_claim() {
    // Node 1 cannot reach node 2, so a group node 2 owns falls back to a
    // local serve — under the id the entry server claimed for the fetch.
    let fleet = fleet(2, |_id| {
        Box::new(|_peer, _addr| {
            Err(TransportError::new(
                TransportErrorKind::ConnectionLost,
                "peer unreachable",
            ))
        })
    });
    let one = &fleet[0].0;
    let mut client = NetClient::connect(fleet[0].1.addr()).expect("connect");
    let request = GroupRequest::new(9, owned_by(one, NodeId(2), 1));
    let first = client.fetch_group(&request).expect("fallback serve");
    assert_eq!(first, client.fetch_group(&request).expect("retry"));
    assert_eq!(one.stats().proxy_failures, 1, "the retry never re-proxied");
    assert_eq!(one.stats().local_serves, 1);
    assert_eq!(
        one.cache().stats().accesses,
        1,
        "the fallback executed once"
    );
    assert_eq!(client.server_stats().expect("stats").reply_cache_hits, 1);
    stop(fleet);
}
