//! [`ClusterNode`]: one cache server participating in a cluster.
//!
//! A node owns a [`ShardedAggregatingCache`] and a membership view. A
//! group fetch entering the node is routed by the [ownership
//! ring](crate::ring): if this node owns the group's demand file (or the
//! ring is empty), the fetch is served from the local cache; otherwise it
//! is proxied to the owner over a [`Transport`] as a depth-bounded
//! `FetchOwned` — the owner must answer locally and never forwards
//! onward, so proxy chains cannot loop even while membership views
//! disagree mid-update.
//!
//! Behind a server, a fetch the node serves from its own cache runs on
//! the server's readiness loop ([`ServeBackend::serve_inline`]); only a
//! proxy, which waits on a peer, goes to the server's worker pool.
//!
//! Concurrent proxied misses for the same group collapse through
//! [`SingleFlight`]. The node is routing plus single-flight in front of
//! the cache and holds no exactly-once state of its own: retries reuse
//! their request id and deduplicate in the reply cache of whichever
//! *server* they reach — the entry server's for a `Fetch` (covering
//! local serves, proxies and the fallback below alike), the owner
//! server's for a `FetchOwned` (see [`fgcache_net::dedup`]).
//!
//! If a proxy fails after the transport's own retries are exhausted, the
//! node serves the group from its local cache instead — availability
//! over strict ownership, the same fallback groupcache ships with. The
//! fallback is counted in [`ClusterNodeStats::proxy_failures`].

use std::sync::{Arc, Mutex};

use fgcache_core::ShardedAggregatingCache;
use fgcache_net::{GroupReply, GroupRequest, ServeBackend, Transport, TransportStats, WireStats};
use fgcache_types::hash::FastMap;
use fgcache_types::{FileId, TransportError};

use crate::ring::{ClusterView, NodeId, OwnershipRing};
use crate::single_flight::{flight_key, SingleFlight};

/// Builds the transport to a peer, given its id and advertised address.
/// The node calls this lazily, once per (peer, view) lifetime, and
/// caches the connection.
pub type PeerConnector =
    Box<dyn Fn(NodeId, &str) -> Result<Box<dyn Transport + Send>, TransportError> + Send + Sync>;

/// Counters of what a [`ClusterNode`] did with the fetches it saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterNodeStats {
    /// Groups this node served from its own cache because it owned them
    /// (or the ring was empty).
    pub local_serves: u64,
    /// Owned (`FetchOwned`) groups this node served for peers.
    pub owned_serves: u64,
    /// Groups proxied to their owner (single-flight leaders).
    pub proxied: u64,
    /// Concurrent proxied fetches served from another caller's flight.
    pub collapsed: u64,
    /// Proxied fetches that failed and fell back to a local serve.
    pub proxy_failures: u64,
}

/// What `rebalance` found: which resident files this node still owns
/// under the current view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    /// The epoch the report was computed under.
    pub epoch: u64,
    /// Resident files this node still owns.
    pub owned: Vec<FileId>,
    /// Resident files now owned by another node. They stay resident
    /// (they will age out through normal eviction) but new misses for
    /// them route to their new owner.
    pub foreign: Vec<FileId>,
}

/// The mutable membership half of a node, behind one lock: the view, its
/// ring, and the cached peer transports.
struct Membership {
    view: ClusterView,
    ring: OwnershipRing,
    peers: FastMap<u64, Arc<Mutex<Box<dyn Transport + Send>>>>,
    /// Stats of transports retired by view changes, so
    /// `transport_stats` never loses history.
    retired: TransportStats,
}

/// One cluster participant. See the [module docs](self).
pub struct ClusterNode {
    id: NodeId,
    cache: Arc<ShardedAggregatingCache>,
    connector: PeerConnector,
    membership: Mutex<Membership>,
    flights: SingleFlight,
    counters: Mutex<ClusterNodeStats>,
}

impl std::fmt::Debug for ClusterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterNode")
            .field("id", &self.id)
            .field("epoch", &self.view().epoch())
            .field("flights", &self.flights)
            .finish_non_exhaustive()
    }
}

impl ClusterNode {
    /// Creates a node serving `cache`, starting from a self-only view at
    /// epoch 0 (so any pushed view applies). `connector` builds peer
    /// transports on demand.
    pub fn new(id: NodeId, cache: Arc<ShardedAggregatingCache>, connector: PeerConnector) -> Self {
        let view = ClusterView::new(0, [(id, String::new())]);
        let ring = view.ring();
        ClusterNode {
            id,
            cache,
            connector,
            membership: Mutex::new(Membership {
                view,
                ring,
                peers: FastMap::default(),
                retired: TransportStats::default(),
            }),
            flights: SingleFlight::new(),
            counters: Mutex::new(ClusterNodeStats::default()),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The cache this node serves.
    pub fn cache(&self) -> &Arc<ShardedAggregatingCache> {
        &self.cache
    }

    /// The membership view this node currently holds.
    pub fn view(&self) -> ClusterView {
        self.lock_membership().view.clone()
    }

    fn lock_membership(&self) -> std::sync::MutexGuard<'_, Membership> {
        self.membership
            .lock()
            .expect("a cluster routing path panicked while holding the membership")
    }

    fn lock_counters(&self) -> std::sync::MutexGuard<'_, ClusterNodeStats> {
        self.counters
            .lock()
            .expect("a cluster routing path panicked while holding the counters")
    }

    /// Applies `view` if its epoch is newer than the held one, returning
    /// the epoch the node holds afterwards. Stale or equal epochs are
    /// ignored (idempotent redelivery). Transports to peers that left
    /// are retired; their stats are folded into
    /// [`transport_stats`](Self::transport_stats).
    pub fn apply_view(&self, view: ClusterView) -> u64 {
        let mut m = self.lock_membership();
        if view.epoch() <= m.view.epoch() {
            return m.view.epoch();
        }
        let ring = view.ring();
        let mut departed = Vec::new();
        m.peers.retain(|&id, peer| {
            let stays = ring.contains(NodeId(id));
            if !stays {
                departed.push(Arc::clone(peer));
            }
            stays
        });
        m.ring = ring;
        m.view = view;
        let epoch = m.view.epoch();
        drop(m);
        // A departed peer's transport may be mid-proxy on another thread:
        // wait for it with the membership unlocked, so routing — a
        // server's readiness loop included — never waits on a peer.
        for peer in departed {
            let stats = lock_peer(&peer).stats();
            self.lock_membership().retired.merge(&stats);
        }
        epoch
    }

    /// Convenience for the membership driver: the next view with `node`
    /// added, applied locally. The caller is responsible for pushing the
    /// returned view to the other members.
    pub fn join(&self, node: NodeId, addr: &str) -> ClusterView {
        let next = self.view().with_member(node, addr);
        self.apply_view(next.clone());
        next
    }

    /// Convenience for the membership driver: the next view with `node`
    /// removed, applied locally. The caller pushes it to the others.
    pub fn leave(&self, node: NodeId) -> ClusterView {
        let next = self.view().without_member(node);
        self.apply_view(next.clone());
        next
    }

    /// Serves one group fetch entering at this node, routing by
    /// ownership of the group's first (demand) file. This is the
    /// [`ServeBackend::serve_group`] entry point.
    pub fn serve(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        match self.serve_if_owned(request_id, files) {
            Ok(reply) => reply,
            Err((owner, addr)) => self.proxy(owner, &addr, request_id, files),
        }
    }

    /// The one routing decision: serves the group from the local cache
    /// if this node owns its demand file (or the ring is empty, or the
    /// owner has no address), or returns the owner and its address.
    fn serve_if_owned(
        &self,
        request_id: u64,
        files: &[FileId],
    ) -> Result<GroupReply, (NodeId, String)> {
        let target = files.first().and_then(|&demand| {
            let m = self.lock_membership();
            match m.ring.owner(demand) {
                Some(owner) if owner != self.id => {
                    m.view.addr_of(owner).map(|addr| (owner, addr.to_string()))
                }
                _ => None,
            }
        });
        match target {
            None => Ok(self.serve_counted_local(request_id, files)),
            Some(target) => Err(target),
        }
    }

    /// A local serve of a `Fetch`, counted in
    /// [`ClusterNodeStats::local_serves`] — owned by this node, or a
    /// proxy's fallback.
    fn serve_counted_local(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        self.lock_counters().local_serves += 1;
        self.serve_local(request_id, files)
    }

    /// Serves a group from the local cache, exactly as a standalone
    /// server would.
    pub fn serve_local(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        self.cache.serve_group(request_id, files)
    }

    /// Proxies a group fetch to `owner`, collapsing concurrent misses
    /// for the same group through single-flight.
    fn proxy(&self, owner: NodeId, addr: &str, request_id: u64, files: &[FileId]) -> GroupReply {
        let key = flight_key(owner, files);
        let (result, collapsed) = self.flights.run(key, files, || {
            let peer = self.peer_transport(owner, addr)?;
            let mut transport = lock_peer(&peer);
            transport.fetch_owned(&GroupRequest::new(request_id, files.to_vec()))
        });
        {
            let mut c = self.lock_counters();
            if collapsed {
                c.collapsed += 1;
            } else {
                c.proxied += 1;
            }
        }
        match result {
            Ok(mut reply) => {
                // A collapsed waiter gets the leader's reply; re-stamp it
                // with this caller's id so retries still match.
                reply.request_id = request_id;
                reply
            }
            Err(_) => {
                // The owner is unreachable after the transport's own
                // retries: serve locally rather than fail the client.
                self.lock_counters().proxy_failures += 1;
                self.serve_counted_local(request_id, files)
            }
        }
    }

    /// The cached transport to `owner`, connecting through the
    /// [`PeerConnector`] on first use. The membership lock is *not* held
    /// while connecting (connects can block).
    fn peer_transport(
        &self,
        owner: NodeId,
        addr: &str,
    ) -> Result<Arc<Mutex<Box<dyn Transport + Send>>>, TransportError> {
        if let Some(peer) = self.lock_membership().peers.get(&owner.0) {
            return Ok(Arc::clone(peer));
        }
        let fresh = (self.connector)(owner, addr)?;
        let mut m = self.lock_membership();
        Ok(Arc::clone(
            m.peers
                .entry(owner.0)
                .or_insert_with(|| Arc::new(Mutex::new(fresh))),
        ))
    }

    /// Number of callers currently parked on another caller's in-flight
    /// proxy fetch (a deterministic-test hook; see
    /// [`SingleFlight::waiting`]).
    pub fn flight_waiters(&self) -> usize {
        self.flights.waiting()
    }

    /// What this node did with the fetches it saw.
    pub fn stats(&self) -> ClusterNodeStats {
        *self.lock_counters()
    }

    /// Merged upstream traffic: every live peer transport plus the
    /// retired ones. Peers are read with the membership unlocked (see
    /// [`apply_view`](Self::apply_view)), so a reading taken during a
    /// view change may miss a departing peer until the change completes.
    pub fn transport_stats(&self) -> TransportStats {
        let (mut merged, peers) = {
            let m = self.lock_membership();
            (m.retired, m.peers.values().cloned().collect::<Vec<_>>())
        };
        for peer in peers {
            merged.merge(&lock_peer(&peer).stats());
        }
        merged
    }

    /// Splits this node's resident files into still-owned and
    /// now-foreign under the current view. Reporting only: foreign files
    /// stay resident and age out through normal eviction, which keeps
    /// rebalancing O(moved keys) on the fetch path rather than an
    /// eager mass eviction.
    pub fn rebalance(&self) -> RebalanceReport {
        let resident = self.cache.resident_files();
        let m = self.lock_membership();
        let epoch = m.view.epoch();
        let mut owned = Vec::new();
        let mut foreign = Vec::new();
        for file in resident {
            match m.ring.owner(file) {
                Some(o) if o != self.id => foreign.push(file),
                _ => owned.push(file),
            }
        }
        RebalanceReport {
            epoch,
            owned,
            foreign,
        }
    }
}

/// Locks a peer's transport, which a proxy holds across its round trip.
fn lock_peer(
    peer: &Mutex<Box<dyn Transport + Send>>,
) -> std::sync::MutexGuard<'_, Box<dyn Transport + Send>> {
    peer.lock()
        .expect("a proxy fetch panicked while holding a peer transport")
}

impl ServeBackend for ClusterNode {
    fn serve_group(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        self.serve(request_id, files)
    }

    /// The depth-1 bound: an owned fetch is always served locally, never
    /// re-forwarded, even if this node's view says someone else owns it.
    fn serve_owned(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        self.lock_counters().owned_serves += 1;
        self.serve_local(request_id, files)
    }

    /// Owned fetches and self-owned groups: a local serve never waits on
    /// a peer. A group another node owns is declined, and proxied from
    /// the server's worker pool.
    fn serve_inline(&self, request_id: u64, files: &[FileId], owned: bool) -> Option<GroupReply> {
        if owned {
            return Some(self.serve_owned(request_id, files));
        }
        self.serve_if_owned(request_id, files).ok()
    }

    fn wire_stats(&self) -> WireStats {
        self.cache.wire_stats()
    }

    fn apply_cluster_update(&self, epoch: u64, members: &[(u64, String)]) -> Result<u64, String> {
        Ok(self.apply_view(ClusterView::from_wire(epoch, members)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcache_core::{CostModel, ShardedAggregatingCacheBuilder};
    use fgcache_net::SimTransport;

    fn cache(capacity: usize) -> Arc<ShardedAggregatingCache> {
        Arc::new(
            ShardedAggregatingCacheBuilder::new(capacity)
                .shards(2)
                .group_size(3)
                .build()
                .expect("valid config"),
        )
    }

    /// A two-node rig: node 1 local, node 2 reachable over a
    /// SimTransport to a shared cache.
    fn two_nodes() -> (ClusterNode, Arc<ShardedAggregatingCache>) {
        let remote = cache(64);
        let remote_for_connector = Arc::clone(&remote);
        let node = ClusterNode::new(
            NodeId(1),
            cache(64),
            Box::new(move |_peer, _addr| {
                Ok(Box::new(SimTransport::to_shared_arc(
                    Arc::clone(&remote_for_connector),
                    CostModel::remote(),
                )))
            }),
        );
        node.apply_view(ClusterView::new(
            1,
            [
                (NodeId(1), "sim://1".to_string()),
                (NodeId(2), "sim://2".to_string()),
            ],
        ));
        (node, remote)
    }

    fn owned_by(node: &ClusterNode, want: NodeId) -> FileId {
        let view = node.view();
        let ring = view.ring();
        (0..)
            .map(FileId)
            .find(|&f| ring.owner(f) == Some(want))
            .expect("rendezvous spreads ownership")
    }

    #[test]
    fn self_owned_groups_are_served_locally() {
        let (node, remote) = two_nodes();
        let file = owned_by(&node, NodeId(1));
        let reply = node.serve(1, &[file]);
        assert_eq!(reply.request_id, 1);
        assert_eq!(node.stats().local_serves, 1);
        assert_eq!(node.stats().proxied, 0);
        assert_eq!(node.cache().stats().accesses, 1);
        assert_eq!(remote.stats().accesses, 0);
    }

    #[test]
    fn foreign_groups_are_proxied_to_the_owner() {
        let (node, remote) = two_nodes();
        let file = owned_by(&node, NodeId(2));
        let reply = node.serve(1, &[file]);
        assert_eq!(reply.request_id, 1);
        assert_eq!(node.stats().proxied, 1);
        assert_eq!(node.stats().local_serves, 0);
        assert_eq!(node.cache().stats().accesses, 0, "must not touch local");
        assert_eq!(remote.stats().accesses, 1);
        assert_eq!(node.transport_stats().requests, 1);
    }

    #[test]
    fn owned_fetches_never_reforward() {
        let (node, remote) = two_nodes();
        // A file this node does NOT own still gets served locally when it
        // arrives as an owned fetch — the depth-1 bound.
        let file = owned_by(&node, NodeId(2));
        let reply = node.serve_owned(1, &[file]);
        assert_eq!(reply.request_id, 1);
        assert_eq!(node.stats().owned_serves, 1);
        assert_eq!(node.cache().stats().accesses, 1);
        assert_eq!(remote.stats().accesses, 0, "no forwarding");
    }

    #[test]
    fn stale_views_are_ignored() {
        let (node, _remote) = two_nodes();
        assert_eq!(node.view().epoch(), 1);
        let held = node.apply_view(ClusterView::new(1, [(NodeId(9), "x".to_string())]));
        assert_eq!(held, 1, "equal epoch ignored");
        assert!(node.view().addr_of(NodeId(9)).is_none());
        let held = node.apply_view(ClusterView::new(0, []));
        assert_eq!(held, 1, "older epoch ignored");
    }

    #[test]
    fn view_change_retires_departed_peer_transports() {
        let (node, _remote) = two_nodes();
        let file = owned_by(&node, NodeId(2));
        node.serve(1, &[file]);
        assert_eq!(node.transport_stats().requests, 1);
        // Node 2 leaves; its transport's stats must survive retirement.
        node.leave(NodeId(2));
        assert_eq!(node.view().epoch(), 2);
        assert_eq!(node.transport_stats().requests, 1);
        // The file is now self-owned (only member), so it serves locally.
        let _ = node.serve(2, &[file]);
        assert_eq!(node.stats().local_serves, 1);
    }

    #[test]
    fn proxy_failure_falls_back_to_a_local_serve() {
        let node = ClusterNode::new(
            NodeId(1),
            cache(64),
            Box::new(|_peer, _addr| {
                Err(TransportError::new(
                    fgcache_types::TransportErrorKind::ConnectionLost,
                    "peer unreachable",
                ))
            }),
        );
        node.apply_view(ClusterView::new(
            1,
            [(NodeId(1), "a".to_string()), (NodeId(2), "b".to_string())],
        ));
        let file = owned_by(&node, NodeId(2));
        let reply = node.serve(1, &[file]);
        assert_eq!(reply.files.len(), 1);
        assert_eq!(node.stats().proxy_failures, 1);
        assert_eq!(node.stats().local_serves, 1);
        assert_eq!(node.cache().stats().accesses, 1);
    }

    #[test]
    fn rebalance_reports_foreign_residents_without_evicting() {
        let (node, _remote) = two_nodes();
        // Fill the local cache while this node owns everything...
        node.leave(NodeId(2));
        for f in 0..20u64 {
            node.serve(f, &[FileId(f)]);
        }
        let before = node.rebalance();
        assert!(before.foreign.is_empty(), "sole member owns everything");
        let resident_before = before.owned.len();
        // ...then node 2 rejoins: some residents become foreign, none
        // are evicted.
        node.join(NodeId(2), "sim://2");
        let after = node.rebalance();
        assert_eq!(after.owned.len() + after.foreign.len(), resident_before);
        assert!(
            !after.foreign.is_empty(),
            "a 2-node ring must claim some of 20 files"
        );
        assert_eq!(after.epoch, node.view().epoch());
    }
}
