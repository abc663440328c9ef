//! The fgcache stack benchmark: five workloads, seven bounded end-to-end
//! metrics plus the failure count, and a per-layer ledger from a client
//! fetch to a three-node fleet. `README.md` beside this package says why
//! each workload and metric exists; `BENCHMARK.json` at the repository
//! root is the contract the names below must match.
//!
//! Everything here measures the serving stack from outside, by timing
//! calls into public functions of the `fgcache-*` crates.

#![deny(missing_docs)]

pub mod alloc;
pub mod args;
pub mod ledger;
pub mod metrics;
pub mod procstat;
pub mod sched;
pub mod stats;
pub mod stream;
pub mod tracer;
pub mod workload;
