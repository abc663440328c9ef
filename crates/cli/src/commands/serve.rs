//! `fgcache serve` — run a TCP group-fetch server over a sharded
//! aggregating cache, standalone or as one cluster node.
//!
//! ```text
//! fgcache serve --capacity 400 [--addr 127.0.0.1:0] [--shards 4]
//!               [--group 5] [--successors 8] [--dedup 1024]
//!               [--max-conns 1024] [--workers 4]
//!               [--node-id 1 [--peers 1=HOST:PORT,2=HOST:PORT,...]]
//! ```
//!
//! The server prints `listening on HOST:PORT` (useful with port 0, which
//! binds an ephemeral port) and then blocks until a client sends the
//! wire-protocol `Shutdown` message — which `fgcache bench-cluster` does
//! to stop its nodes, and which any `NetClient::send_shutdown` call can
//! do.
//!
//! With `--node-id` the server becomes a cluster node: fetches for
//! groups another node owns (by the rendezvous ring over the current
//! membership view) are proxied to that owner over TCP as depth-bounded
//! owned fetches. `--peers` seeds the membership view at epoch 1;
//! without it the node starts alone at epoch 0 and waits for a
//! `ClusterUpdate` push (this is how `bench-cluster` starts nodes, since
//! ephemeral ports are unknowable before bind).

use std::error::Error;
use std::sync::Arc;

use fgcache_cluster::{ClusterNode, ClusterView, NodeId};
use fgcache_core::{ShardedAggregatingCache, ShardedAggregatingCacheBuilder};
use fgcache_net::{BoundServer, NetClient, Transport};

use crate::args::Args;

/// Validates the event-loop sizing flags: both are hard bounds the
/// server relies on, so zero is a configuration error, not a "no limit".
pub(crate) fn validate_serving_limits(
    max_conns: usize,
    workers: usize,
) -> Result<(), Box<dyn Error>> {
    if max_conns == 0 {
        return Err("--max-conns must be at least 1".into());
    }
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    Ok(())
}

/// Builds the server-side cache from the parsed flags (separated from
/// `run` so validation is unit-testable without binding sockets).
pub(crate) fn build_cache(
    capacity: usize,
    shards: usize,
    group: usize,
    successors: usize,
) -> Result<ShardedAggregatingCache, Box<dyn Error>> {
    Ok(ShardedAggregatingCacheBuilder::new(capacity)
        .shards(shards)
        .group_size(group)
        .successor_capacity(successors)
        .build()?)
}

/// Parses `--peers` (`"1=host:port,2=host:port"`) into view members.
pub(crate) fn parse_peers(raw: &str) -> Result<Vec<(NodeId, String)>, Box<dyn Error>> {
    raw.split(',')
        .map(|tok| {
            let tok = tok.trim();
            let (id, addr) = tok
                .split_once('=')
                .ok_or_else(|| format!("invalid peer {tok:?} in --peers (want ID=HOST:PORT)"))?;
            let id: u64 = id
                .trim()
                .parse()
                .map_err(|_| format!("invalid peer id {id:?} in --peers"))?;
            let addr = addr.trim();
            if addr.is_empty() {
                return Err(format!("empty address for peer {id} in --peers").into());
            }
            Ok((NodeId(id), addr.to_string()))
        })
        .collect()
}

/// Builds the cluster node for `--node-id` mode: peers are dialled
/// lazily over TCP on first proxy.
pub(crate) fn build_cluster_node(
    node_id: u64,
    cache: Arc<ShardedAggregatingCache>,
    peers: Option<Vec<(NodeId, String)>>,
) -> ClusterNode {
    let node = ClusterNode::new(
        NodeId(node_id),
        cache,
        Box::new(
            |_peer, addr| Ok(Box::new(NetClient::connect(addr)?) as Box<dyn Transport + Send>),
        ),
    );
    if let Some(members) = peers {
        node.apply_view(ClusterView::new(1, members));
    }
    node
}

pub fn run(tokens: &[String]) -> Result<(), Box<dyn Error>> {
    let args = Args::parse(tokens.iter().cloned())?;
    args.check_known(&[
        "addr",
        "capacity",
        "shards",
        "group",
        "successors",
        "dedup",
        "max-conns",
        "workers",
        "node-id",
        "peers",
    ])?;
    let capacity: usize = args.require_flag("capacity")?;
    let shards = args.flag_or("shards", 4usize)?;
    let group = args.flag_or("group", 5usize)?;
    let successors = args.flag_or("successors", 8usize)?;
    let addr = args.flag("addr").unwrap_or("127.0.0.1:0");
    let dedup = args.flag_or("dedup", fgcache_net::DEFAULT_REPLY_CACHE_CAPACITY)?;
    let max_conns = args.flag_or("max-conns", fgcache_net::DEFAULT_MAX_CONNS)?;
    let workers = args.flag_or("workers", fgcache_net::DEFAULT_WORKERS)?;
    validate_serving_limits(max_conns, workers)?;
    let node_id: Option<u64> = match args.flag("node-id") {
        Some(_) => Some(args.require_flag("node-id")?),
        None => None,
    };
    let peers = match args.flag("peers") {
        Some(raw) => Some(parse_peers(raw)?),
        None => None,
    };
    match (node_id, &peers) {
        (None, Some(_)) => return Err("--peers requires --node-id (cluster mode)".into()),
        // A ring without this node owns nothing here: every fetch the
        // node received would be silently proxied away.
        (Some(id), Some(members)) if !members.iter().any(|(peer, _)| *peer == NodeId(id)) => {
            return Err(format!("--peers must list this node itself (--node-id {id})").into());
        }
        _ => {}
    }

    let cache = Arc::new(build_cache(capacity, shards, group, successors)?);
    let server = match node_id {
        Some(id) => {
            let node = Arc::new(build_cluster_node(id, cache, peers));
            BoundServer::bind_backend(addr, node)
        }
        None => BoundServer::bind(addr, cache),
    }
    .map_err(|e| format!("cannot bind {addr}: {e}"))?
    .with_dedup_capacity(dedup)
    .with_max_conns(max_conns)
    .with_workers(workers);
    println!("listening on {}", server.local_addr());
    server.run();
    println!("server stopped");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_flags_are_validated() {
        assert!(build_cache(400, 4, 5, 8).is_ok());
        // Slices below the group size are fine (each shard clamps its
        // group size to what it can hold); only configs where the total
        // capacity cannot fit a group, or a shard cannot hold one file,
        // are rejected.
        assert!(build_cache(30, 16, 5, 8).is_ok());
        assert!(build_cache(30, 16, 31, 8).is_err());
        assert!(build_cache(8, 16, 5, 8).is_err());
    }

    #[test]
    fn serving_limits_reject_zero() {
        assert!(validate_serving_limits(1024, 4).is_ok());
        assert!(validate_serving_limits(1, 1).is_ok());
        let err = validate_serving_limits(0, 4).expect_err("zero max-conns");
        assert!(err.to_string().contains("--max-conns"), "{err}");
        let err = validate_serving_limits(1024, 0).expect_err("zero workers");
        assert!(err.to_string().contains("--workers"), "{err}");

        // Through the full flag path, without binding a socket: the
        // validation error must win over any bind attempt.
        let tokens: Vec<String> = vec![
            "--capacity".into(),
            "100".into(),
            "--max-conns".into(),
            "0".into(),
        ];
        let err = run(&tokens).expect_err("zero max-conns via flags");
        assert!(err.to_string().contains("--max-conns"), "{err}");
        let tokens: Vec<String> = vec![
            "--capacity".into(),
            "100".into(),
            "--workers".into(),
            "0".into(),
        ];
        let err = run(&tokens).expect_err("zero workers via flags");
        assert!(err.to_string().contains("--workers"), "{err}");
    }

    #[test]
    fn unknown_flags_rejected() {
        let tokens: Vec<String> = vec![
            "--capacity".into(),
            "10".into(),
            "--oops".into(),
            "1".into(),
        ];
        assert!(run(&tokens).is_err());
    }

    #[test]
    fn capacity_is_required() {
        let tokens: Vec<String> = vec![];
        assert!(run(&tokens).is_err());
    }

    #[test]
    fn peers_parse_and_validate() {
        let peers = parse_peers("1=127.0.0.1:7001, 2 = 127.0.0.1:7002").unwrap();
        assert_eq!(
            peers,
            vec![
                (NodeId(1), "127.0.0.1:7001".to_string()),
                (NodeId(2), "127.0.0.1:7002".to_string()),
            ]
        );
        assert!(parse_peers("1").is_err());
        assert!(parse_peers("x=127.0.0.1:1").is_err());
        assert!(parse_peers("3=").is_err());
    }

    #[test]
    fn peers_without_node_id_rejected() {
        let tokens: Vec<String> = vec![
            "--capacity".into(),
            "100".into(),
            "--peers".into(),
            "1=127.0.0.1:7001".into(),
        ];
        let err = run(&tokens).expect_err("peers without node-id");
        assert!(err.to_string().contains("--node-id"), "{err}");
    }

    #[test]
    fn peers_omitting_the_node_itself_rejected() {
        let tokens: Vec<String> = vec![
            "--capacity".into(),
            "100".into(),
            "--node-id".into(),
            "3".into(),
            "--peers".into(),
            "1=127.0.0.1:7001,2=127.0.0.1:7002".into(),
        ];
        let err = run(&tokens).expect_err("peer list without node 3");
        let message = err.to_string();
        assert!(
            message.contains("--peers") && message.contains("--node-id 3"),
            "{message}"
        );
    }

    #[test]
    fn cluster_node_seeds_the_view_from_peers() {
        let cache = Arc::new(build_cache(100, 2, 3, 4).unwrap());
        let node = build_cluster_node(
            1,
            cache,
            Some(vec![
                (NodeId(1), "a:1".to_string()),
                (NodeId(2), "b:2".to_string()),
            ]),
        );
        let view = node.view();
        assert_eq!(view.epoch(), 1);
        assert_eq!(view.addr_of(NodeId(2)), Some("b:2"));
        // Without peers: self-only at epoch 0, so any push applies.
        let cache = Arc::new(build_cache(100, 2, 3, 4).unwrap());
        assert_eq!(build_cluster_node(7, cache, None).view().epoch(), 0);
    }
}
