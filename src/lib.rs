//! # fgcache — Group-Based Management of Distributed File Caches
//!
//! A production-quality reproduction of *Amer, Long & Burns, "Group-Based
//! Management of Distributed File Caches" (ICDCS 2002)*.
//!
//! The paper's idea: instead of prefetching single files on predictions,
//! build **dynamic groups** of files observed to be accessed together —
//! using nothing but per-file lists of *immediate successors*, managed by
//! recency — and fetch whole groups on every cache miss. The resulting
//! **aggregating cache** cuts client demand fetches by 50–60 % and keeps a
//! server cache useful even when an intervening client cache filters away
//! all conventional locality.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`types`] — identifiers and events ([`types::FileId`],
//!   [`types::AccessEvent`], …).
//! * [`trace`] — workload traces, trace IO and the synthetic DFSTrace-like
//!   workload generator.
//! * [`cache`] — the cache simulation substrate (LRU, LFU, 2Q,
//!   Landlord) and the intervening-cache filter.
//! * [`successor`] — per-file successor lists (LRU/LFU/Oracle/decayed
//!   replacement), the relationship graph and the group builder.
//! * [`core`] — the aggregating cache itself: client-side and server-side
//!   variants.
//! * [`entropy`] — successor entropy, the paper's predictability metric.
//! * [`net`] — pluggable fetch transports: a simulated network, fault
//!   injection with retries, and a real TCP group-fetch server/client.
//! * [`sim`] — experiment drivers, parameter sweeps and report formatting.
//! * [`placement`] — the paper's future-work applications: group-based
//!   data placement on linear storage and mobile file hoarding.
//! * [`plan`] — the analytic capacity planner: Che/Fagin characteristic
//!   times, the Berthet closed form and the Kesidis LRU-MRU model.
//!
//! # Quickstart
//!
//! ```
//! use fgcache::core::AggregatingCacheBuilder;
//! use fgcache::trace::synth::{SynthConfig, WorkloadProfile};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a small, deterministic "server-like" workload.
//! let trace = SynthConfig::profile(WorkloadProfile::Server)
//!     .events(20_000)
//!     .seed(7)
//!     .build()?
//!     .generate();
//!
//! // A plain LRU client cache of 300 files...
//! let mut lru = AggregatingCacheBuilder::new(300).group_size(1).build()?;
//! // ...versus an aggregating cache fetching groups of 5.
//! let mut agg = AggregatingCacheBuilder::new(300).group_size(5).build()?;
//!
//! for ev in trace.events() {
//!     lru.handle_access(ev.file);
//!     agg.handle_access(ev.file);
//! }
//!
//! // Grouping strictly reduces demand fetches on a predictable workload.
//! assert!(agg.demand_fetches() < lru.demand_fetches());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use fgcache_cache as cache;
pub use fgcache_cluster as cluster;
pub use fgcache_core as core;
pub use fgcache_entropy as entropy;
pub use fgcache_net as net;
pub use fgcache_placement as placement;
pub use fgcache_plan as plan;
pub use fgcache_sim as sim;
pub use fgcache_successor as successor;
pub use fgcache_trace as trace;
pub use fgcache_types as types;

/// The most commonly used items, for glob import.
///
/// ```
/// use fgcache::prelude::*;
/// let _ = FileId(3);
/// ```
pub mod prelude {
    pub use fgcache_cache::{Cache, CacheStats, LfuCache, LruCache};
    pub use fgcache_core::{AggregatingCache, AggregatingCacheBuilder};
    pub use fgcache_entropy::successor_entropy;
    pub use fgcache_successor::{GroupBuilder, SuccessorTable};
    pub use fgcache_trace::synth::{SynthConfig, WorkloadProfile};
    pub use fgcache_trace::Trace;
    pub use fgcache_types::{AccessEvent, AccessKind, AccessOutcome, ClientId, FileId, SeqNo};
}
