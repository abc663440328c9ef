//! The [`Transport`] trait: the seam between cache logic and the fetch
//! path.
//!
//! A transport executes *group fetches*: each [`GroupRequest`] names one
//! or more files to be served in a single round trip, and the matching
//! [`GroupReply`] reports per-file hit/miss provenance. Implementations
//! range from a zero-cost in-process call ([`DirectTransport`]) through a
//! virtual-clock simulation ([`SimTransport`](crate::SimTransport)) to a
//! real TCP client ([`NetClient`](crate::NetClient)); simulators and
//! benchmarks are written against the trait so the fetch path can be
//! swapped without touching replay logic.
//!
//! # Request identity and idempotency
//!
//! Every request carries a caller-assigned `request_id`. Servers keep a
//! bounded reply cache keyed by that id, so a *retry* of a request whose
//! reply was lost re-delivers the original reply instead of re-executing
//! the fetch (which would corrupt cache statistics and residency). Ids
//! must therefore be unique per server within the dedup window; drivers
//! with several clients namespace them via [`request_id`].

use fgcache_core::ShardedAggregatingCache;
use fgcache_types::{AccessOutcome, FileId, TransportError};

use crate::server::ServeBackend as _;

/// Builds a namespaced request id: client `namespace` in the top 16 bits,
/// per-client sequence number below. Keeps concurrent clients' ids
/// disjoint so server-side reply deduplication never collides.
pub fn request_id(namespace: u64, seq: u64) -> u64 {
    (namespace << 48) | (seq & ((1u64 << 48) - 1))
}

/// One group fetch: a caller-assigned id plus the files to serve in a
/// single round trip (the demand-requested file first, by convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupRequest {
    /// Caller-assigned id; retries reuse it so servers can deduplicate.
    pub request_id: u64,
    /// Files to serve, in order.
    pub files: Vec<FileId>,
}

impl GroupRequest {
    /// Creates a group request.
    pub fn new(request_id: u64, files: Vec<FileId>) -> Self {
        GroupRequest { request_id, files }
    }
}

/// Per-file provenance in a [`GroupReply`]: was the file resident at the
/// server ([`AccessOutcome::Hit`]) or fetched on demand
/// ([`AccessOutcome::Miss`])?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileReply {
    /// The file served.
    pub file: FileId,
    /// Whether the server had it resident.
    pub outcome: AccessOutcome,
}

/// The reply to one [`GroupRequest`]: per-file provenance, echoing the
/// request id so callers can match pipelined replies and detect stale
/// duplicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupReply {
    /// Echo of [`GroupRequest::request_id`].
    pub request_id: u64,
    /// One entry per requested file, in request order.
    pub files: Vec<FileReply>,
}

impl GroupReply {
    /// Number of files the server had resident.
    pub fn hits(&self) -> u64 {
        self.files.iter().filter(|f| f.outcome.is_hit()).count() as u64
    }

    /// Number of files the server fetched on demand.
    pub fn misses(&self) -> u64 {
        self.files.len() as u64 - self.hits()
    }
}

/// Counters a transport maintains about its own traffic.
///
/// `requests`/`files_moved` count fetches actually *executed* at the
/// backend — deduplicated retries increment `dedup_hits` and
/// `round_trips` instead, which is what keeps these counters equal to the
/// served cache's own statistics even under fault injection.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportStats {
    /// Group fetches executed at the backend.
    pub requests: u64,
    /// Wire round trips, including deduplicated re-serves and batched
    /// submissions (a pipelined batch is one round trip).
    pub round_trips: u64,
    /// File payloads delivered by executed fetches.
    pub files_moved: u64,
    /// Per-file hit provenance tally across executed fetches.
    pub hits: u64,
    /// Per-file miss provenance tally across executed fetches.
    pub misses: u64,
    /// Requests answered from the server-side reply cache (idempotent
    /// retries).
    pub dedup_hits: u64,
    /// Hits in a reply cache *owned by this transport stack* — the
    /// server-side view of `dedup_hits`, populated by transports that
    /// embed a reply cache (e.g. `SimTransport`); real servers export
    /// theirs via
    /// [`WireStats::reply_cache_hits`](crate::WireStats::reply_cache_hits).
    pub reply_cache_hits: u64,
    /// Retry attempts made by a retrying decorator.
    pub retries: u64,
    /// Attempts that ended in a timeout or dropped reply.
    pub timeouts: u64,
    /// Stale (mismatched-id) replies discarded by the caller.
    pub duplicates_discarded: u64,
    /// Virtual time elapsed, in cost-model units (simulated transports
    /// only; 0 for real ones, which are measured by wall clock).
    pub virtual_time: f64,
}

impl TransportStats {
    /// Adds `other`'s counters into `self` (for summing per-client
    /// transports into a fleet total).
    pub fn merge(&mut self, other: &TransportStats) {
        self.requests += other.requests;
        self.round_trips += other.round_trips;
        self.files_moved += other.files_moved;
        self.hits += other.hits;
        self.misses += other.misses;
        self.dedup_hits += other.dedup_hits;
        self.reply_cache_hits += other.reply_cache_hits;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.duplicates_discarded += other.duplicates_discarded;
        self.virtual_time += other.virtual_time;
    }
}

/// A fetch path that executes group fetches.
///
/// Implementations must be *idempotent by request id*: fetching the same
/// `request_id` twice executes the fetch once and re-delivers the first
/// reply (see the module docs). `fetch_batch` submits several outstanding
/// group fetches as one pipelined round trip where the implementation
/// supports it; the default executes them sequentially.
pub trait Transport {
    /// Executes one group fetch.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] classifying the failure; retryable
    /// kinds may be re-attempted with the *same* request id.
    fn fetch_group(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError>;

    /// Submits `batch` as one pipelined round trip, returning one result
    /// per request in request order. The default implementation executes
    /// the batch sequentially (no pipelining win).
    fn fetch_batch(&mut self, batch: &[GroupRequest]) -> Vec<Result<GroupReply, TransportError>> {
        batch.iter().map(|r| self.fetch_group(r)).collect()
    }

    /// Executes one group fetch that the *receiving node must serve
    /// itself* — the depth-bounded cluster proxy call. A cluster node
    /// answering this never forwards it onward, which caps proxy chains
    /// at depth 1 even when membership views disagree. For transports
    /// with no notion of ownership the default is identical to
    /// [`Transport::fetch_group`].
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] classifying the failure; retryable
    /// kinds may be re-attempted with the *same* request id.
    fn fetch_owned(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError> {
        self.fetch_group(request)
    }

    /// This transport's traffic counters.
    fn stats(&self) -> TransportStats;
}

/// The zero-cost transport: group fetches become direct in-process calls
/// against a shared [`ShardedAggregatingCache`]. This is the baseline
/// every other transport is differentially tested against — by
/// construction it produces exactly the access sequence the cache would
/// see without any transport at all.
#[derive(Debug)]
pub struct DirectTransport<'a> {
    cache: &'a ShardedAggregatingCache,
    stats: TransportStats,
}

impl<'a> DirectTransport<'a> {
    /// Creates a direct transport serving from `cache`.
    pub fn new(cache: &'a ShardedAggregatingCache) -> Self {
        DirectTransport {
            cache,
            stats: TransportStats::default(),
        }
    }
}

impl Transport for DirectTransport<'_> {
    fn fetch_group(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError> {
        let reply = self.cache.serve_group(request.request_id, &request.files);
        self.stats.requests += 1;
        self.stats.round_trips += 1;
        self.stats.files_moved += reply.files.len() as u64;
        self.stats.hits += reply.hits();
        self.stats.misses += reply.misses();
        Ok(reply)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcache_core::ShardedAggregatingCacheBuilder;

    #[test]
    fn request_id_namespacing_is_disjoint() {
        assert_eq!(request_id(0, 5), 5);
        assert_ne!(request_id(1, 5), request_id(2, 5));
        assert_ne!(request_id(1, 5), request_id(1, 6));
        // Sequence numbers never bleed into the namespace bits.
        assert_eq!(request_id(3, 0) >> 48, 3);
        assert_eq!(request_id(3, (1 << 48) - 1) >> 48, 3);
    }

    #[test]
    fn reply_provenance_tallies() {
        let reply = GroupReply {
            request_id: 1,
            files: vec![
                FileReply {
                    file: FileId(1),
                    outcome: AccessOutcome::Hit,
                },
                FileReply {
                    file: FileId(2),
                    outcome: AccessOutcome::Miss,
                },
                FileReply {
                    file: FileId(3),
                    outcome: AccessOutcome::Miss,
                },
            ],
        };
        assert_eq!(reply.hits(), 1);
        assert_eq!(reply.misses(), 2);
    }

    #[test]
    fn direct_transport_mirrors_cache_counters() {
        let cache = ShardedAggregatingCacheBuilder::new(40)
            .shards(2)
            .group_size(3)
            .build()
            .unwrap();
        let mut t = DirectTransport::new(&cache);
        for (i, id) in [1u64, 2, 3, 1, 2, 3].into_iter().enumerate() {
            t.fetch_group(&GroupRequest::new(i as u64, vec![FileId(id)]))
                .unwrap();
        }
        let ts = t.stats();
        assert_eq!(ts.requests, 6);
        assert_eq!(ts.files_moved, 6);
        assert_eq!(ts.hits + ts.misses, 6);
        let cs = cache.stats();
        assert_eq!(ts.hits, cs.hits);
        assert_eq!(ts.misses, cs.misses);
        assert_eq!(cs.accesses, 6);
    }

    #[test]
    fn default_batch_is_sequential() {
        let cache = ShardedAggregatingCacheBuilder::new(40)
            .shards(1)
            .group_size(3)
            .build()
            .unwrap();
        let mut t = DirectTransport::new(&cache);
        let batch: Vec<GroupRequest> = (0..4u64)
            .map(|i| GroupRequest::new(i, vec![FileId(i % 2)]))
            .collect();
        let replies = t.fetch_batch(&batch);
        assert_eq!(replies.len(), 4);
        for (r, req) in replies.iter().zip(&batch) {
            assert_eq!(r.as_ref().unwrap().request_id, req.request_id);
        }
        assert_eq!(t.stats().requests, 4);
    }

    #[test]
    fn stats_merge_sums_fields() {
        let mut a = TransportStats {
            requests: 1,
            round_trips: 2,
            files_moved: 3,
            hits: 1,
            misses: 2,
            dedup_hits: 1,
            reply_cache_hits: 1,
            retries: 1,
            timeouts: 1,
            duplicates_discarded: 1,
            virtual_time: 1.5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.requests, 2);
        assert_eq!(a.round_trips, 4);
        assert_eq!(a.files_moved, 6);
        assert_eq!(a.reply_cache_hits, 2);
        assert_eq!(a.virtual_time, 3.0);
    }
}
