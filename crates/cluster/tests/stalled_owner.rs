//! A cluster node's server serves self-owned groups on its readiness
//! loop and proxies only from its worker pool, so a proxy stalled at its
//! owner cannot delay a fetch the entry node owns — even with the node's
//! only worker tied up in that proxy.

use std::net::TcpListener;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fgcache_cluster::{ClusterNode, ClusterView, NodeId};
use fgcache_core::ShardedAggregatingCacheBuilder;
use fgcache_net::wire::{read_frame, write_frame};
use fgcache_net::{BoundServer, FileReply, GroupRequest, Message, NetClient, Transport};
use fgcache_types::{AccessOutcome, FileId};

#[test]
fn a_proxy_stalled_at_its_owner_does_not_delay_a_self_owned_fetch() {
    // Node 2 is a socket that takes the proxied fetch and answers only
    // when the test says so.
    let owner = TcpListener::bind("127.0.0.1:0").expect("bind");
    let owner_addr = owner.local_addr().expect("owner addr").to_string();
    let (received_tx, received_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let stalled_owner = thread::spawn(move || {
        // The entry node's client dials once to validate the address and
        // hangs that connection up; the proxy comes on another.
        let (mut stream, request_id, files) = owner
            .incoming()
            .find_map(|stream| {
                let mut stream = stream.expect("the entry node dials");
                match read_frame(&mut stream) {
                    Ok(Message::FetchOwned { request_id, files }) => {
                        Some((stream, request_id, files))
                    }
                    Ok(other) => panic!("a proxy sends FetchOwned, not {other:?}"),
                    Err(_) => None,
                }
            })
            .expect("the proxy arrives");
        received_tx.send(()).expect("test alive");
        release_rx.recv().expect("test alive");
        let files = files
            .into_iter()
            .map(|file| FileReply {
                file,
                outcome: AccessOutcome::Miss,
            })
            .collect();
        write_frame(&mut stream, &Message::FetchReply { request_id, files }).expect("reply");
        stream
    });

    let cache = ShardedAggregatingCacheBuilder::new(64)
        .shards(2)
        .group_size(1)
        .build()
        .expect("valid config");
    let node = Arc::new(ClusterNode::new(
        NodeId(1),
        Arc::new(cache),
        Box::new(|_peer, addr| {
            let client = NetClient::connect(addr)?.with_timeout(Duration::from_secs(60));
            Ok(Box::new(client) as Box<dyn Transport + Send>)
        }),
    ));
    let server = BoundServer::bind_backend("127.0.0.1:0", Arc::clone(&node))
        .expect("ephemeral bind")
        .with_workers(1)
        .spawn();
    node.apply_view(ClusterView::new(
        1,
        [
            (NodeId(1), server.addr().to_string()),
            (NodeId(2), owner_addr),
        ],
    ));
    let ring = node.view().ring();
    let owned_by = |id| {
        (0..)
            .map(FileId)
            .find(|&f| ring.owner(f) == Some(NodeId(id)))
            .expect("rendezvous spreads ownership")
    };
    let (foreign, own) = (owned_by(2), owned_by(1));

    let mut proxied_client = NetClient::connect(server.addr())
        .expect("connect")
        .with_timeout(Duration::from_secs(60));
    let proxied = thread::spawn(move || {
        proxied_client
            .fetch_group(&GroupRequest::new(1, vec![foreign]))
            .expect("proxied fetch")
    });
    received_rx.recv().expect("the proxy reached the owner");

    // The only worker is waiting on node 2; the loop is not.
    let mut local_client = NetClient::connect(server.addr())
        .expect("connect")
        .with_timeout(Duration::from_secs(5));
    let reply = local_client
        .fetch_group(&GroupRequest::new(2, vec![own]))
        .expect("a self-owned fetch is served while the proxy stalls");
    assert_eq!(reply.files[0].file, own);
    assert!(!proxied.is_finished(), "the proxy is still stalled");

    release_tx.send(()).expect("owner alive");
    let reply = proxied.join().expect("proxied thread");
    assert_eq!(reply.files[0].file, foreign);
    let stats = node.stats();
    assert_eq!(
        (stats.local_serves, stats.proxied, stats.proxy_failures),
        (1, 1, 0)
    );
    server.stop();
    drop(stalled_owner.join().expect("owner thread"));
}
