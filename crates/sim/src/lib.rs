//! Experiment drivers, parameter sweeps and report formatting.
//!
//! Each module reproduces one of the paper's evaluation experiments
//! against a [`Trace`](fgcache_trace::Trace) — usually one generated by
//! `fgcache-trace`'s synthetic profiles, but any trace works:
//!
//! | module | paper figure | experiment |
//! |--------|--------------|------------|
//! | [`client`] | Figure 3 | demand fetches vs client cache capacity, per group size |
//! | [`server`] | Figure 4 | server hit rate vs intervening-filter capacity, per scheme |
//! | [`successors`] | Figure 5 | P(missing a future successor) vs successor-list capacity |
//! | [`entropy_exp`] | Figures 7 & 8 | successor entropy vs symbol length, raw and filtered |
//! | [`headline`] | §1/§6 claims | fetch-reduction and server-gain summary table |
//! | [`cost`] | §1 motivation | latency-vs-bandwidth pricing of group fetching |
//! | [`multiclient`] | §4.3 topology | K filtered clients replayed round-robin into one sharded server |
//! | [`cluster`] | beyond the paper | N-node virtual cluster vs a single-process routing oracle |
//! | [`plan_validation`] | beyond the paper | analytic planner (`fgcache plan`) vs streamed replay |
//!
//! Sweeps fan out over their parameter grid with [`parallel::parallel_map`]
//! (scoped threads; deterministic output order), and results render as
//! aligned text or CSV via [`report::Table`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod cluster;
pub mod cost;
pub mod entropy_exp;
pub mod headline;
pub mod multiclient;
pub mod parallel;
pub mod plan_validation;
pub mod report;
pub mod server;
pub mod successors;

pub use client::{client_sweep, ClientSweepConfig, ClientSweepPoint};
pub use cluster::{
    oracle_replay, zipf_run_stream, zipf_stream, ClusterReplayReport, MembershipChange,
    MembershipEvent, VirtualCluster, VirtualClusterConfig,
};
pub use cost::{cost_sweep_via_transport, CostModel, CostPoint};
pub use entropy_exp::{entropy_sweep, filtered_entropy_sweep, EntropySeries};
pub use headline::{headline_summary, HeadlineRow, HeadlineSummary};
pub use multiclient::{
    run_multiclient_transport, MultiClientPoint, TransportReplayError, TransportReplayPoint,
};
pub use plan_validation::{
    compare_grouping, default_validation_cases, validate_lru, validate_lru_mru, validate_lru_sweep,
    GroupingCompareConfig, GroupingComparePoint, LruValidationCase, LruValidationPoint,
    PLAN_TOLERANCE,
};
pub use report::Table;
pub use server::{two_level_sweep, ServerScheme, TwoLevelConfig, TwoLevelPoint};
pub use successors::{successor_eval, ReplacementScheme, SuccessorEvalConfig, SuccessorEvalPoint};
