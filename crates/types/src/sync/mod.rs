//! Atomics facade for the workspace's concurrent code.
//!
//! Every atomic the event loop's wake protocol and the sharded cache's
//! lock counter touch goes through this module instead of
//! `std::sync::atomic` directly. The indirection buys one thing: a
//! build with the `fgcache_model` feature can route every load, store
//! and RMW through a deterministic interleaving model (the `model`
//! module, compiled only with the feature) that explores bounded
//! schedules of small concurrent scenarios and checks their
//! memory-ordering claims — machine-checked instead of prose.
//!
//! # Production builds (default)
//!
//! Without the feature, [`AtomicU64`] is a `#[repr(transparent)]`
//! newtype over [`std::sync::atomic::AtomicU64`] whose methods are
//! `#[inline]` one-liners: the facade compiles to exactly the code the
//! direct `std` calls would produce. [`Ordering`] is re-exported from
//! `std` unchanged.
//!
//! # Model builds (`--features fgcache_model`)
//!
//! With the feature, each [`AtomicU64`] additionally registers itself
//! as a *location* with the currently running model execution (if any)
//! and forwards every operation to the model runtime, which tracks
//! per-location store histories and Acquire/Release happens-before
//! edges in shadow memory. Outside a model execution the instrumented
//! type falls back to the real atomic, so ordinary tests keep working
//! with the feature enabled.
//!
//! The discipline the static gate (`xtask analyze`) enforces on code
//! that imports this module: stores `Release`, loads `Acquire`,
//! `Relaxed` only on an explicit allowlist of diagnostic counters,
//! `SeqCst` never.

pub use std::sync::atomic::Ordering;

#[cfg(not(feature = "fgcache_model"))]
mod real;
#[cfg(not(feature = "fgcache_model"))]
pub use real::AtomicU64;

#[cfg(feature = "fgcache_model")]
mod instrumented;
#[cfg(feature = "fgcache_model")]
pub mod model;
#[cfg(feature = "fgcache_model")]
pub use instrumented::AtomicU64;
