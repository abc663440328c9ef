//! [`SimTransport`]: a transport driven by a deterministic virtual clock.
//!
//! Instead of real sockets, each fetch advances an `f64` clock by the
//! [`CostModel`]'s per-request latency (optionally jittered by a seeded
//! [`SplitMix64`] stream) plus per-file transfer time — the same pricing
//! the analytic cost tables use, so a zero-jitter simulated run is
//! bit-identical to the analytic sweep. Batched submission models
//! pipelining: the whole batch pays one request latency.
//!
//! The backend is pluggable: [`SimBackend::Origin`] models the
//! authoritative store (every file served, no provenance of interest),
//! while [`SimBackend::Shared`] routes each file through a
//! [`ShardedAggregatingCache`], which is how the multi-client simulator
//! interposes a transport between filter caches and the shared server.
//!
//! Like a real server, the transport deduplicates retried request ids
//! through a bounded [`ReplyCache`], so it composes with
//! [`FaultyTransport`](crate::FaultyTransport) and
//! [`RetryingTransport`](crate::RetryingTransport) without double-counting
//! executed fetches.

use std::sync::Arc;

use fgcache_core::{CostModel, ShardedAggregatingCache};
use fgcache_types::rng::{RandomSource, SplitMix64};
use fgcache_types::{AccessOutcome, TransportError};

use crate::dedup::{ReplyCache, DEFAULT_REPLY_CACHE_CAPACITY};
use crate::server::ServeBackend as _;
use crate::transport::{FileReply, GroupReply, GroupRequest, Transport, TransportStats};

/// What a [`SimTransport`] fetches from.
#[derive(Debug)]
pub enum SimBackend<'a> {
    /// The authoritative origin store: every file is served by a demand
    /// fetch (reported as [`AccessOutcome::Miss`], i.e. not cache-resident).
    Origin,
    /// A shared server-side cache: each file becomes a
    /// [`ShardedAggregatingCache::handle_access`] call and the reply
    /// carries the cache's real hit/miss provenance.
    Shared(&'a ShardedAggregatingCache),
    /// Like [`SimBackend::Shared`] but owning the cache through an
    /// [`Arc`], so the transport is `'static` — what a virtual cluster
    /// needs to hand hundreds of peer transports around without
    /// borrowing from each node.
    SharedOwned(Arc<ShardedAggregatingCache>),
}

/// A simulated transport: virtual clock + seeded jitter + pluggable
/// backend. See the [module docs](self).
#[derive(Debug)]
pub struct SimTransport<'a> {
    backend: SimBackend<'a>,
    model: CostModel,
    jitter_frac: f64,
    jitter: SplitMix64,
    dedup: ReplyCache,
    stats: TransportStats,
}

impl<'a> SimTransport<'a> {
    /// A zero-jitter transport over `backend` with a default-window reply
    /// cache of its own — it *is* the simulated server.
    fn over(backend: SimBackend<'a>, model: CostModel) -> Self {
        SimTransport {
            backend,
            model,
            jitter_frac: 0.0,
            jitter: SplitMix64::new(0),
            dedup: ReplyCache::new(DEFAULT_REPLY_CACHE_CAPACITY),
            stats: TransportStats::default(),
        }
    }

    /// A transport fetching from the origin store, with zero jitter.
    pub fn to_origin(model: CostModel) -> SimTransport<'static> {
        SimTransport::over(SimBackend::Origin, model)
    }

    /// A transport fetching through a shared server cache, with zero
    /// jitter.
    pub fn to_shared(cache: &'a ShardedAggregatingCache, model: CostModel) -> SimTransport<'a> {
        SimTransport::over(SimBackend::Shared(cache), model)
    }

    /// A `'static` transport fetching through a shared, `Arc`-owned
    /// server cache, with zero jitter (the virtual-cluster peer wiring).
    pub fn to_shared_arc(
        cache: Arc<ShardedAggregatingCache>,
        model: CostModel,
    ) -> SimTransport<'static> {
        SimTransport::over(SimBackend::SharedOwned(cache), model)
    }

    /// Enables per-request latency jitter: each request's latency is
    /// scaled by a factor drawn uniformly from `[1 − frac, 1 + frac]`
    /// using a [`SplitMix64`] stream seeded with `seed`. Deterministic for
    /// a fixed seed; `frac` is clamped to `[0, 1]`.
    #[must_use]
    pub fn with_jitter(mut self, frac: f64, seed: u64) -> Self {
        self.jitter_frac = frac.clamp(0.0, 1.0);
        self.jitter = SplitMix64::new(seed);
        self
    }

    /// The virtual clock, in cost-model time units.
    pub fn virtual_time(&self) -> f64 {
        self.stats.virtual_time
    }

    /// The cost model pricing this transport's traffic.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// One jittered request latency.
    fn request_latency(&mut self) -> f64 {
        if self.jitter_frac == 0.0 {
            return self.model.request_latency;
        }
        let scale = 1.0 + self.jitter_frac * (2.0 * self.jitter.next_f64() - 1.0);
        self.model.request_latency * scale
    }

    /// Executes one request at the backend (no dedup, no clock), returning
    /// the reply and updating executed-fetch counters.
    fn execute(&mut self, request: &GroupRequest) -> GroupReply {
        let (id, files) = (request.request_id, &request.files[..]);
        let reply = match self.backend {
            SimBackend::Origin => GroupReply {
                request_id: id,
                files: files
                    .iter()
                    .map(|&file| FileReply {
                        file,
                        outcome: AccessOutcome::Miss,
                    })
                    .collect(),
            },
            SimBackend::Shared(cache) => cache.serve_group(id, files),
            SimBackend::SharedOwned(ref cache) => cache.serve_group(id, files),
        };
        self.stats.requests += 1;
        self.stats.files_moved += reply.files.len() as u64;
        self.stats.hits += reply.hits();
        self.stats.misses += reply.misses();
        reply
    }

    /// Serves one request: dedup-check first, then execute. Advances the
    /// clock by `transfer` time units (the caller decides how much request
    /// latency the round trip pays — one per request, or one per batch).
    fn serve(&mut self, request: &GroupRequest) -> GroupReply {
        if let Some(cached) = self.dedup.get(request.request_id) {
            // An idempotent retry: re-deliver, pay the wire cost again,
            // but leave executed-fetch counters untouched.
            let reply = cached.clone();
            self.stats.dedup_hits += 1;
            self.stats.reply_cache_hits += 1;
            self.stats.virtual_time += self.model.transfer_time * reply.files.len() as f64;
            return reply;
        }
        let reply = self.execute(request);
        self.stats.virtual_time += self.model.transfer_time * reply.files.len() as f64;
        self.dedup.insert(reply.clone());
        reply
    }
}

impl Transport for SimTransport<'_> {
    fn fetch_group(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError> {
        let latency = self.request_latency();
        self.stats.round_trips += 1;
        self.stats.virtual_time += latency;
        Ok(self.serve(request))
    }

    /// Pipelined: the whole batch pays **one** request latency, then each
    /// request's transfer time. This is the simulated analogue of writing
    /// every frame before reading any reply.
    fn fetch_batch(&mut self, batch: &[GroupRequest]) -> Vec<Result<GroupReply, TransportError>> {
        if batch.is_empty() {
            return Vec::new();
        }
        let latency = self.request_latency();
        self.stats.round_trips += 1;
        self.stats.virtual_time += latency;
        batch.iter().map(|r| Ok(self.serve(r))).collect()
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcache_core::ShardedAggregatingCacheBuilder;
    use fgcache_types::FileId;

    fn req(id: u64, files: &[u64]) -> GroupRequest {
        GroupRequest::new(id, files.iter().map(|&f| FileId(f)).collect())
    }

    #[test]
    fn origin_fetch_prices_exactly_like_the_model() {
        let model = CostModel {
            request_latency: 10.0,
            transfer_time: 2.0,
            transfer_per_unit: 0.0,
        };
        let mut t = SimTransport::to_origin(model);
        t.fetch_group(&req(0, &[1, 2, 3])).expect("sim cannot fail");
        t.fetch_group(&req(1, &[4])).expect("sim cannot fail");
        // 2 requests × 10 + 4 files × 2 = 28, exactly CostModel::total.
        assert_eq!(t.virtual_time(), model.total(2, 4));
        let s = t.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.files_moved, 4);
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn batched_fetch_pays_one_latency() {
        let model = CostModel {
            request_latency: 10.0,
            transfer_time: 1.0,
            transfer_per_unit: 0.0,
        };
        let requests = [req(0, &[1]), req(1, &[2]), req(2, &[3])];

        let mut sequential = SimTransport::to_origin(model);
        for r in &requests {
            sequential.fetch_group(r).expect("sim cannot fail");
        }
        let mut pipelined = SimTransport::to_origin(model);
        let replies = pipelined.fetch_batch(&requests);
        assert_eq!(replies.len(), 3);

        // Same files moved, two round trips' latency saved.
        assert_eq!(
            pipelined.stats().files_moved,
            sequential.stats().files_moved
        );
        assert_eq!(
            sequential.virtual_time() - pipelined.virtual_time(),
            2.0 * model.request_latency
        );
        assert_eq!(pipelined.stats().round_trips, 1);
        assert!(pipelined.fetch_batch(&[]).is_empty());
    }

    #[test]
    fn retried_request_id_is_deduplicated() {
        let cache = ShardedAggregatingCacheBuilder::new(40)
            .shards(2)
            .group_size(3)
            .build()
            .expect("valid build");
        let mut t = SimTransport::to_shared(&cache, CostModel::remote());
        let first = t.fetch_group(&req(7, &[1, 2])).expect("sim cannot fail");
        let again = t.fetch_group(&req(7, &[1, 2])).expect("sim cannot fail");
        // Byte-identical reply, including provenance (a re-execution would
        // report hits the second time).
        assert_eq!(first, again);
        let s = t.stats();
        assert_eq!(s.requests, 1, "retry must not re-execute");
        assert_eq!(s.dedup_hits, 1);
        assert_eq!(s.reply_cache_hits, 1, "the embedded reply cache hit once");
        assert_eq!(s.round_trips, 2);
        assert_eq!(cache.stats().accesses, 2, "cache saw the files once");
    }

    #[test]
    fn arc_owned_backend_matches_borrowed_shared_backend() {
        let build = || {
            ShardedAggregatingCacheBuilder::new(40)
                .shards(2)
                .group_size(3)
                .build()
                .expect("valid build")
        };
        let borrowed_cache = build();
        let mut borrowed = SimTransport::to_shared(&borrowed_cache, CostModel::remote());
        let owned_cache = Arc::new(build());
        let mut owned = SimTransport::to_shared_arc(Arc::clone(&owned_cache), CostModel::remote());
        for i in 0..50u64 {
            let r = req(i, &[i % 7, (i + 1) % 7]);
            let a = borrowed.fetch_group(&r).expect("sim cannot fail");
            let b = owned.fetch_group(&r).expect("sim cannot fail");
            assert_eq!(a, b, "backends must be indistinguishable");
        }
        assert_eq!(borrowed.stats(), owned.stats());
        assert_eq!(borrowed_cache.stats(), owned_cache.stats());
    }

    #[test]
    fn shared_backend_reports_real_provenance() {
        let cache = ShardedAggregatingCacheBuilder::new(40)
            .shards(1)
            .group_size(1)
            .build()
            .expect("valid build");
        let mut t = SimTransport::to_shared(&cache, CostModel::lan());
        let cold = t.fetch_group(&req(0, &[5])).expect("sim cannot fail");
        let warm = t.fetch_group(&req(1, &[5])).expect("sim cannot fail");
        assert!(cold.files[0].outcome.is_miss());
        assert!(warm.files[0].outcome.is_hit());
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let model = CostModel {
            request_latency: 100.0,
            transfer_time: 0.0,
            transfer_per_unit: 0.0,
        };
        let run = |seed: u64| {
            let mut t = SimTransport::to_origin(model).with_jitter(0.25, seed);
            for i in 0..50 {
                t.fetch_group(&req(i, &[i])).expect("sim cannot fail");
            }
            t.virtual_time()
        };
        assert_eq!(run(42), run(42), "same seed, same clock");
        assert_ne!(run(42), run(43), "different seed, different clock");
        // 50 requests in [75, 125] each.
        let total = run(42);
        assert!((50.0 * 75.0..=50.0 * 125.0).contains(&total));
        // Zero jitter stays exactly on the model.
        let mut flat = SimTransport::to_origin(model).with_jitter(0.0, 9);
        flat.fetch_group(&req(0, &[0])).expect("sim cannot fail");
        assert_eq!(flat.virtual_time(), 100.0);
    }
}
