//! **fgcache-net** — the pluggable fetch transport for the fgcache
//! workspace.
//!
//! The paper's aggregating cache turns demand misses into *group fetches*
//! (§3); everything upstream of the cache — simulator, benchmarks, a real
//! server — only needs a way to execute those fetches. This crate is that
//! seam, in three layers:
//!
//! 1. **The [`Transport`] trait** ([`transport`]): `fetch_group` /
//!    pipelined `fetch_batch` over explicit [`GroupRequest`]s, with
//!    [`DirectTransport`] as the zero-cost in-process baseline.
//! 2. **Simulated transports**: [`SimTransport`] ([`sim`]) advances a
//!    deterministic virtual clock priced by
//!    [`CostModel`](fgcache_core::CostModel) with seeded latency jitter;
//!    [`FaultyTransport`] ([`fault`]) injects drops, duplicates and
//!    timeouts from a seeded schedule; [`RetryingTransport`] ([`retry`])
//!    adds bounded exponential backoff. The decorators compose:
//!    `Retrying(Faulty(Sim))` is the fault-injection test rig.
//! 3. **A real TCP path**: a length-prefixed binary [wire protocol](wire),
//!    an event-driven [`BoundServer`] ([`server`]) wrapping a
//!    [`ShardedAggregatingCache`](fgcache_core::ShardedAggregatingCache)
//!    behind a readiness loop that serves what cannot block and a bounded
//!    worker pool for what can, and a pooled [`NetClient`] ([`client`]).
//!
//! # Idempotency by request id
//!
//! The invariant the whole crate is built around: **a fetch executes at
//! most once per request id**. Retries re-send the same id; servers (real
//! and simulated) remember recent replies in a bounded [`ReplyCache`]
//! ([`dedup`]) and re-deliver rather than re-execute, and a real server's
//! loop and workers share it as an [`ExactlyOnce`], so a retry racing its
//! original waits for it instead of executing beside it. This is what
//! makes a networked run produce *byte-identical* cache statistics to an
//! in-process run even when the network loses replies — which the
//! loopback differential test demands.
//!
//! # Examples
//!
//! A retrying client over a lossy simulated network:
//!
//! ```
//! use fgcache_core::CostModel;
//! use fgcache_net::{
//!     FaultConfig, FaultyTransport, GroupRequest, RetryPolicy, RetryingTransport,
//!     SimTransport, Transport,
//! };
//! use fgcache_types::FileId;
//!
//! let sim = SimTransport::to_origin(CostModel::remote());
//! let lossy = FaultyTransport::new(sim, FaultConfig::lossy(42));
//! let mut client = RetryingTransport::new(lossy, RetryPolicy::virtual_time(4, 42));
//! for i in 0..100u64 {
//!     let request = GroupRequest::new(i, vec![FileId(i)]);
//!     client.fetch_group(&request).expect("4 attempts beat a 9% fault rate");
//! }
//! // Faults happened, retries happened — but every fetch executed exactly
//! // once at the backend, and every round trip was either an execution or
//! // an idempotent re-delivery.
//! assert_eq!(client.stats().requests, 100);
//! assert_eq!(client.stats().requests + client.stats().dedup_hits,
//!            client.stats().round_trips);
//! ```

// One audited FFI call lives in `poller`; `xtask lint` holds the crate to
// exactly that one `unsafe` block.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod dedup;
pub mod fault;
mod poller;
pub mod retry;
pub mod server;
pub mod sim;
pub mod transport;
pub mod wire;

pub use client::NetClient;
pub use dedup::{ExactlyOnce, ReplyCache, DEFAULT_REPLY_CACHE_CAPACITY};
pub use fault::{FaultConfig, FaultStats, FaultyTransport};
pub use retry::{RetryPolicy, RetryingTransport};
pub use server::{
    BoundServer, ServeBackend, ServerHandle, DEFAULT_MAX_CONNS, DEFAULT_MAX_OUTBOUND_BYTES,
    DEFAULT_MAX_PENDING, DEFAULT_WORKERS,
};
pub use sim::{SimBackend, SimTransport};
pub use transport::{
    request_id, DirectTransport, FileReply, GroupReply, GroupRequest, Transport, TransportStats,
};
pub use wire::{
    decode_fetch_into, FetchFrame, Message, WireStats, MAX_FRAME_LEN, MAX_MEMBER_ADDR_LEN,
    WIRE_VERSION,
};
