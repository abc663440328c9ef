//! A simple I/O cost model for group fetching.
//!
//! The paper's motivation for grouping is latency: every remote fetch
//! pays a per-request round trip, so fetching `g` related files in one
//! request amortises it — at the price of transferring speculative files
//! that may never be used. This module quantifies that trade:
//!
//! ```text
//! total_time = demand_fetches × request_latency
//!            + files_transferred × transfer_time
//! ```
//!
//! which is the standard first-order model for fixed-size whole-file
//! transfers over a network with per-request overhead. With
//! `request_latency ≫ transfer_time` (the distributed-file-system regime
//! the paper targets), grouping wins decisively; as transfer cost grows,
//! large groups stop paying.

use fgcache_core::AggregatingCacheBuilder;
use fgcache_net::{GroupRequest, SimTransport, Transport as _};
use fgcache_trace::Trace;
use fgcache_types::{FileId, ValidationError};

use crate::report::{fmt2, Table};

pub use fgcache_core::cost::CostModel;

/// Measured I/O cost of one aggregating-cache run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPoint {
    /// Group size `g` (1 = plain LRU).
    pub group_size: usize,
    /// Demand fetches (requests issued).
    pub demand_fetches: u64,
    /// Files transferred (requested + speculative).
    pub files_transferred: u64,
    /// Total time under the cost model.
    pub total_time: f64,
}

impl CostPoint {
    /// Prices a run from its raw counters. The transport-backed sweep and
    /// the analytic reference its tests compare it with both build their
    /// points through this one constructor, so they cannot silently
    /// diverge in how they price counters.
    pub fn from_counters(group_size: usize, fetches: u64, files: u64, model: &CostModel) -> Self {
        CostPoint {
            group_size,
            demand_fetches: fetches,
            files_transferred: files,
            total_time: model.total(fetches, files),
        }
    }
}

/// Replays `trace` through aggregating caches of each group size with
/// every demand miss routed through a [`SimTransport`] fetching from the
/// origin, and prices the runs **from the transport's own counters** —
/// the layer that actually moved the files. When the transport is active
/// it is the one source of truth: this function errors (rather than
/// silently diverging) if the cache's analytic counters and the
/// transport's measured counters ever disagree.
///
/// With zero jitter the returned points are identical to pricing the
/// cache's own counters — pinned by a test against an analytic reference
/// sweep — because both derive from the same fetch stream and price
/// through [`CostPoint::from_counters`].
///
/// # Errors
///
/// Returns a [`ValidationError`] if the model is invalid, `group_sizes`
/// is empty or a group size exceeds `capacity`, or for a counter
/// divergence between the cache and the transport.
pub fn cost_sweep_via_transport(
    trace: &Trace,
    capacity: usize,
    group_sizes: &[usize],
    model: CostModel,
) -> Result<Vec<CostPoint>, ValidationError> {
    model.validate()?;
    if group_sizes.is_empty() {
        return Err(ValidationError::new("group_sizes", "must not be empty"));
    }
    let mut points = Vec::with_capacity(group_sizes.len());
    for &g in group_sizes {
        let mut cache = AggregatingCacheBuilder::new(capacity)
            .group_size(g)
            .build()?;
        let mut transport = SimTransport::to_origin(model);
        let mut next_request_id = 0u64;
        for ev in trace.events() {
            let (_, fetch) = cache.handle_access_with_fetch(ev.file);
            // Copy out of the cache's scratch buffer: the wire request
            // owns its file list (and this is the priced path, not the
            // steady-state simulation loop).
            let fetch = fetch.map(<[FileId]>::to_vec);
            if let Some(files) = fetch {
                let request = GroupRequest::new(next_request_id, files);
                next_request_id += 1;
                transport
                    .fetch_group(&request)
                    .map_err(|e| ValidationError::new("transport", e.to_string()))?;
            }
        }
        let measured = transport.stats();
        let analytic = cache.group_stats();
        if measured.requests != analytic.demand_fetches
            || measured.files_moved != analytic.files_transferred
        {
            return Err(ValidationError::new(
                "transport counters",
                format!(
                    "transport measured {} fetches / {} files but the cache recorded {} / {}",
                    measured.requests,
                    measured.files_moved,
                    analytic.demand_fetches,
                    analytic.files_transferred
                ),
            ));
        }
        points.push(CostPoint::from_counters(
            g,
            measured.requests,
            measured.files_moved,
            &model,
        ));
    }
    Ok(points)
}

/// Renders a cost sweep as a table, normalising times to the `g = 1` row
/// when present.
pub fn cost_table(title: &str, points: &[CostPoint]) -> Table {
    let baseline = points
        .iter()
        .find(|p| p.group_size == 1)
        .map(|p| p.total_time);
    let mut t = Table::new(
        title,
        ["group", "fetches", "files moved", "total time", "vs lru"],
    );
    for p in points {
        let rel = baseline
            .filter(|b| *b > 0.0)
            .map(|b| format!("{:+.1}%", (p.total_time / b - 1.0) * 100.0))
            .unwrap_or_default();
        t.push_row([
            if p.group_size == 1 {
                "lru".to_string()
            } else {
                format!("g{}", p.group_size)
            },
            p.demand_fetches.to_string(),
            p.files_transferred.to_string(),
            fmt2(p.total_time),
            rel,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcache_trace::synth::{SynthConfig, WorkloadProfile};

    /// Replays `trace` through aggregating caches of each group size and
    /// prices the cache's own counters under `model`: the analytic
    /// reference for [`cost_sweep_via_transport`].
    fn cost_sweep(
        trace: &Trace,
        capacity: usize,
        group_sizes: &[usize],
        model: CostModel,
    ) -> Result<Vec<CostPoint>, ValidationError> {
        model.validate()?;
        if group_sizes.is_empty() {
            return Err(ValidationError::new("group_sizes", "must not be empty"));
        }
        let mut points = Vec::with_capacity(group_sizes.len());
        for &g in group_sizes {
            let mut cache = AggregatingCacheBuilder::new(capacity)
                .group_size(g)
                .build()?;
            for ev in trace.events() {
                cache.handle_access(ev.file);
            }
            let stats = cache.group_stats();
            points.push(CostPoint::from_counters(
                g,
                stats.demand_fetches,
                stats.files_transferred,
                &model,
            ));
        }
        Ok(points)
    }

    fn trace() -> Trace {
        SynthConfig::profile(WorkloadProfile::Server)
            .events(20_000)
            .seed(8)
            .build()
            .unwrap()
            .generate()
    }

    #[test]
    fn model_is_reexported_from_core() {
        // The definition moved to `fgcache_core::cost`; the historical
        // `fgcache_sim::cost::CostModel` path must keep working.
        let m: fgcache_core::CostModel = CostModel::remote();
        assert!(m.validate().is_ok());
    }

    #[test]
    fn from_counters_prices_through_the_model() {
        let m = CostModel {
            request_latency: 10.0,
            transfer_time: 2.0,
            transfer_per_unit: 0.0,
        };
        let p = CostPoint::from_counters(5, 3, 7, &m);
        assert_eq!(p.group_size, 5);
        assert_eq!(p.demand_fetches, 3);
        assert_eq!(p.files_transferred, 7);
        assert_eq!(p.total_time, 44.0);
    }

    #[test]
    fn sweep_validates_inputs() {
        let t = trace();
        assert!(cost_sweep(&t, 100, &[], CostModel::remote()).is_err());
        assert!(cost_sweep(&t, 4, &[9], CostModel::remote()).is_err());
        let bad = CostModel {
            request_latency: -1.0,
            transfer_time: 0.0,
            transfer_per_unit: 0.0,
        };
        assert!(cost_sweep(&t, 100, &[1], bad).is_err());
        assert!(cost_sweep_via_transport(&t, 100, &[], CostModel::remote()).is_err());
        assert!(cost_sweep_via_transport(&t, 4, &[9], CostModel::remote()).is_err());
    }

    #[test]
    fn transport_sweep_matches_analytic_sweep_exactly() {
        // One source of truth: pricing the transport's counters yields
        // bit-identical points to pricing the cache's counters.
        let t = trace();
        let groups = [1usize, 3, 5];
        let analytic = cost_sweep(&t, 300, &groups, CostModel::remote()).unwrap();
        let measured = cost_sweep_via_transport(&t, 300, &groups, CostModel::remote()).unwrap();
        assert_eq!(analytic, measured);
    }

    #[test]
    fn grouping_wins_when_latency_dominates() {
        let t = trace();
        let points = cost_sweep(&t, 300, &[1, 5], CostModel::remote()).unwrap();
        let lru = points.iter().find(|p| p.group_size == 1).unwrap();
        let g5 = points.iter().find(|p| p.group_size == 5).unwrap();
        assert!(
            g5.total_time < lru.total_time,
            "g5 {} vs lru {}",
            g5.total_time,
            lru.total_time
        );
        // ...even though it moves more data.
        assert!(g5.files_transferred > lru.files_transferred);
    }

    #[test]
    fn pure_bandwidth_model_penalises_grouping() {
        // With zero request latency, every speculative transfer is pure
        // overhead, so LRU must be at least as cheap.
        let t = trace();
        let model = CostModel {
            request_latency: 0.0,
            transfer_time: 1.0,
            transfer_per_unit: 0.0,
        };
        let points = cost_sweep(&t, 300, &[1, 10], model).unwrap();
        let lru = points.iter().find(|p| p.group_size == 1).unwrap();
        let g10 = points.iter().find(|p| p.group_size == 10).unwrap();
        assert!(lru.total_time <= g10.total_time);
    }

    #[test]
    fn table_renders_relative_column() {
        let t = trace();
        let points = cost_sweep(&t, 200, &[1, 5], CostModel::lan()).unwrap();
        let table = cost_table("cost", &points);
        let text = table.render();
        assert!(text.contains("vs lru"));
        assert!(text.contains('%'));
    }
}
