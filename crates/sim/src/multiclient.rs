//! Multi-client replay against the server tier.
//!
//! The paper's server deployment (§4.3) aggregates *many* clients, each
//! behind its own cache, with no client cooperation. These drivers build
//! that topology end to end: `K` clients, each with a private
//! [`FilterCache`] front-end, send their misses to one shared server.
//! [`run_multiclient_transport`] replays one materialised trace per
//! client through a [`Transport`] each (in process, simulated or over
//! TCP), either concurrently (one scoped thread per client) or as a
//! deterministic round-robin interleave. [`run_multiclient_stream`]
//! replays a single event stream too large to hold in memory against an
//! in-process [`ShardedAggregatingCache`], dealing its events to the
//! clients round-robin ([`split_round_robin`] does the same split on a
//! materialised trace).

use std::fmt;
use std::time::{Duration, Instant};

use fgcache_cache::{FilterCache, LruCache};
use fgcache_core::ShardedAggregatingCache;
use fgcache_net::{request_id, GroupRequest, Transport, TransportStats};
use fgcache_trace::Trace;
use fgcache_types::{AccessEvent, TransportError, ValidationError};

/// The measured outcome of a streaming multi-client replay.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClientPoint {
    /// Shard count for this point.
    pub shards: usize,
    /// Number of clients replayed.
    pub clients: usize,
    /// Total events replayed across all clients.
    pub events: u64,
    /// Exact aggregate client-side (filter) hits.
    pub client_hits: u64,
    /// Exact aggregate client-side misses (`events − client_hits`) —
    /// kept as a counter so consumers never have to reconstruct it from
    /// the hit rate (a lossy float round-trip at large event counts).
    pub client_misses: u64,
    /// Aggregate client-side (filter) hit rate, derived from the exact
    /// counters.
    pub client_hit_rate: f64,
    /// Server hit rate over the requests that reached it.
    pub server_hit_rate: f64,
    /// Requests that reached the server (sum of client misses).
    pub server_accesses: u64,
    /// Server demand fetches (misses) — the paper's cost metric.
    pub demand_fetches: u64,
    /// Per-shard load imbalance (busiest / mean; 1.0 = balanced).
    pub imbalance: f64,
    /// Wall-clock replay time (excludes trace generation).
    pub elapsed: Duration,
}

/// Why a transport-backed replay failed: the inputs were invalid, or the
/// fetch path itself failed (and retries, if configured, were exhausted).
#[derive(Debug)]
pub enum TransportReplayError {
    /// The replay inputs were rejected before any fetch.
    Invalid(ValidationError),
    /// A group fetch failed terminally.
    Transport(TransportError),
}

impl fmt::Display for TransportReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportReplayError::Invalid(e) => write!(f, "invalid replay inputs: {e}"),
            TransportReplayError::Transport(e) => write!(f, "transport failure: {e}"),
        }
    }
}

impl std::error::Error for TransportReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportReplayError::Invalid(e) => Some(e),
            TransportReplayError::Transport(e) => Some(e),
        }
    }
}

impl From<ValidationError> for TransportReplayError {
    fn from(e: ValidationError) -> Self {
        TransportReplayError::Invalid(e)
    }
}

impl From<TransportError> for TransportReplayError {
    fn from(e: TransportError) -> Self {
        TransportReplayError::Transport(e)
    }
}

/// The measured outcome of a transport-backed multi-client replay.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportReplayPoint {
    /// Number of clients replayed.
    pub clients: usize,
    /// Total events replayed across all clients.
    pub events: u64,
    /// Exact aggregate client-side (filter) hits.
    pub client_hits: u64,
    /// Exact aggregate client-side misses (`events − client_hits`).
    pub client_misses: u64,
    /// Aggregate client-side (filter) hit rate, derived from the exact
    /// counters.
    pub client_hit_rate: f64,
    /// Merged traffic counters across every client's transport. When the
    /// transport layer is active it is the one source of truth for
    /// files-moved and fetch counts: `transport.requests` is the demand
    /// fetch count and `transport.files_moved` the files-transferred
    /// count that cost models should price.
    pub transport: TransportStats,
    /// Wall-clock replay time (excludes trace generation).
    pub elapsed: Duration,
}

/// Replays `traces` (one per client) with every filter-cache miss routed
/// through that client's own [`Transport`]. `transports` supplies one fetch path per client
/// (e.g. a `NetClient` each for a TCP run, or a `SimTransport` each over
/// one shared cache for a virtual-clock run) and is returned so callers
/// can inspect per-client stats or reuse the connections.
///
/// Misses accumulate into per-client batches of `batch` requests,
/// submitted pipelined via [`Transport::fetch_batch`]; `batch == 1`
/// submits every miss immediately. Request ids are namespaced per client
/// with [`request_id`], so the streams stay
/// idempotency-safe against one shared server.
///
/// With `concurrent = false` clients take turns, one event per turn, so
/// at `batch == 1` every transport backed by the same
/// [`ShardedAggregatingCache`] configuration — in process, simulated or
/// over TCP — produces **byte-identical** server statistics: the
/// differential property the loopback tests pin. Larger batches and
/// concurrent replay reorder server arrivals, changing (only) the
/// order-dependent statistics.
///
/// # Errors
///
/// Returns [`TransportReplayError::Invalid`] for empty/mismatched inputs
/// and [`TransportReplayError::Transport`] on the first terminal fetch
/// failure.
pub fn run_multiclient_transport<T: Transport + Send>(
    traces: &[Trace],
    filter_capacity: usize,
    mut transports: Vec<T>,
    batch: usize,
    concurrent: bool,
) -> Result<(TransportReplayPoint, Vec<T>), TransportReplayError> {
    if traces.is_empty() {
        return Err(ValidationError::new("traces", "at least one client trace").into());
    }
    if filter_capacity == 0 {
        return Err(ValidationError::new("filter_capacity", "must be greater than zero").into());
    }
    if transports.len() != traces.len() {
        return Err(ValidationError::new(
            "transports",
            format!(
                "need exactly one transport per client ({} traces, {} transports)",
                traces.len(),
                transports.len()
            ),
        )
        .into());
    }
    let batch = batch.max(1);
    let start = Instant::now();
    let (client_hits, client_accesses) = if concurrent {
        replay_transport_concurrent(traces, filter_capacity, &mut transports, batch)?
    } else {
        replay_transport_round_robin(traces, filter_capacity, &mut transports, batch)?
    };
    let elapsed = start.elapsed();
    let mut merged = TransportStats::default();
    for t in &transports {
        merged.merge(&t.stats());
    }
    let point = TransportReplayPoint {
        clients: traces.len(),
        events: client_accesses,
        client_hits,
        client_misses: client_accesses - client_hits,
        client_hit_rate: if client_accesses == 0 {
            0.0
        } else {
            client_hits as f64 / client_accesses as f64
        },
        transport: merged,
        elapsed,
    };
    Ok((point, transports))
}

/// Per-client replay state for the transport-backed modes: the private
/// filter, the pending batch, and the client's request-id sequence.
struct TransportClient<'t, T> {
    index: u64,
    filter: FilterCache<LruCache>,
    transport: &'t mut T,
    pending: Vec<GroupRequest>,
    next_seq: u64,
}

impl<'t, T: Transport> TransportClient<'t, T> {
    fn new(index: usize, filter_capacity: usize, transport: &'t mut T) -> Self {
        TransportClient {
            index: index as u64,
            filter: FilterCache::new(LruCache::new(filter_capacity)),
            transport,
            pending: Vec::new(),
            next_seq: 0,
        }
    }

    /// Offers one event to the filter; a miss joins the pending batch,
    /// which is flushed at `batch` requests.
    fn offer(&mut self, file: fgcache_types::FileId, batch: usize) -> Result<(), TransportError> {
        if self.filter.offer_file(file) {
            let id = request_id(self.index, self.next_seq);
            self.next_seq += 1;
            self.pending.push(GroupRequest::new(id, vec![file]));
            if self.pending.len() >= batch {
                self.flush()?;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.pending);
        for result in self.transport.fetch_batch(&batch) {
            result?;
        }
        Ok(())
    }

    fn finish(mut self) -> Result<(u64, u64), TransportError> {
        self.flush()?;
        let stats = *self.filter.stats();
        Ok((stats.hits, stats.accesses))
    }
}

/// Deterministic round-robin interleave over one shared fetch order —
/// clients take turns, one event per turn, until every trace is drained.
fn replay_transport_round_robin<T: Transport>(
    traces: &[Trace],
    filter_capacity: usize,
    transports: &mut [T],
    batch: usize,
) -> Result<(u64, u64), TransportError> {
    let mut clients: Vec<TransportClient<'_, T>> = transports
        .iter_mut()
        .enumerate()
        .map(|(i, t)| TransportClient::new(i, filter_capacity, t))
        .collect();
    let longest = traces.iter().map(Trace::len).max().unwrap_or(0);
    for i in 0..longest {
        for (client, trace) in clients.iter_mut().zip(traces) {
            if let Some(ev) = trace.events().get(i) {
                client.offer(ev.file, batch)?;
            }
        }
    }
    let mut totals = (0, 0);
    for client in clients {
        let (hits, accesses) = client.finish()?;
        totals.0 += hits;
        totals.1 += accesses;
    }
    Ok(totals)
}

/// One scoped thread per client, each driving its own transport.
fn replay_transport_concurrent<T: Transport + Send>(
    traces: &[Trace],
    filter_capacity: usize,
    transports: &mut [T],
    batch: usize,
) -> Result<(u64, u64), TransportError> {
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = traces
            .iter()
            .zip(transports.iter_mut())
            .enumerate()
            .map(|(index, (trace, transport))| {
                scope.spawn(move || {
                    let mut client = TransportClient::new(index, filter_capacity, transport);
                    for ev in trace.events() {
                        client.offer(ev.file, batch)?;
                    }
                    client.finish()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client replay thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut totals = (0, 0);
    for result in results {
        let (hits, accesses) = result?;
        totals.0 += hits;
        totals.1 += accesses;
    }
    Ok(totals)
}

/// Why a streaming multi-client replay stopped: the inputs were invalid,
/// or the event source itself failed mid-stream.
#[derive(Debug)]
pub enum StreamReplayError<E> {
    /// The replay inputs were rejected before any event was consumed.
    Invalid(ValidationError),
    /// The event source failed; the replay stops at the first error.
    Source(E),
}

impl<E: fmt::Display> fmt::Display for StreamReplayError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamReplayError::Invalid(e) => write!(f, "invalid replay inputs: {e}"),
            StreamReplayError::Source(e) => write!(f, "event source failure: {e}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for StreamReplayError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamReplayError::Invalid(e) => Some(e),
            StreamReplayError::Source(e) => Some(e),
        }
    }
}

impl<E> From<ValidationError> for StreamReplayError<E> {
    fn from(e: ValidationError) -> Self {
        StreamReplayError::Invalid(e)
    }
}

/// Single-pass streaming twin of [`split_round_robin`] +
/// [`run_multiclient_transport`] (round-robin, `batch == 1`, one
/// `DirectTransport` per client): event `i` of the stream is attributed
/// to client `i % clients`, whose private filter decides whether it
/// reaches the shared server.
///
/// The round-robin interleave replays split traces in exactly original
/// stream order (turn `t` plays events `t·k .. t·k + k` in client order),
/// so this leaves the server in the **identical** state without ever
/// materializing the trace — the replay path for event streams too
/// large to hold in memory. Memory is bounded by the `clients` filter
/// caches; the stream is consumed once.
///
/// # Errors
///
/// Returns [`StreamReplayError::Invalid`] for a zero client count or
/// filter capacity, and [`StreamReplayError::Source`] with the source's
/// error if the stream yields one (the replay stops at that point).
pub fn run_multiclient_stream<I, E>(
    server: &ShardedAggregatingCache,
    events: I,
    clients: usize,
    filter_capacity: usize,
) -> Result<MultiClientPoint, StreamReplayError<E>>
where
    I: IntoIterator<Item = Result<AccessEvent, E>>,
{
    if clients == 0 {
        return Err(ValidationError::new("clients", "at least one client").into());
    }
    if filter_capacity == 0 {
        return Err(ValidationError::new("filter_capacity", "must be greater than zero").into());
    }
    let shards = server.shard_count();
    let start = Instant::now();
    let mut filters: Vec<FilterCache<LruCache>> = (0..clients)
        .map(|_| FilterCache::new(LruCache::new(filter_capacity)))
        .collect();
    for (index, ev) in (0_u64..).zip(events) {
        let ev = ev.map_err(StreamReplayError::Source)?;
        let client = (index % clients as u64) as usize;
        if filters[client].offer_file(ev.file) {
            server.handle_access(ev.file);
        }
    }
    let elapsed = start.elapsed();
    let (client_hits, client_accesses) = filters.iter().fold((0, 0), |(h, a), f| {
        (h + f.stats().hits, a + f.stats().accesses)
    });
    let stats = server.stats();
    debug_assert!(server.check_invariants().is_ok());
    Ok(MultiClientPoint {
        shards,
        clients,
        events: client_accesses,
        client_hits,
        client_misses: client_accesses - client_hits,
        client_hit_rate: if client_accesses == 0 {
            0.0
        } else {
            client_hits as f64 / client_accesses as f64
        },
        server_hit_rate: stats.hit_rate(),
        server_accesses: stats.accesses,
        demand_fetches: server.demand_fetches(),
        imbalance: server.shard_imbalance(),
        elapsed,
    })
}

/// Splits one trace into `k` interleaved client streams (event `i` goes
/// to client `i % k`) — how the CLI turns a single recorded trace into a
/// multi-client workload.
pub fn split_round_robin(trace: &Trace, k: usize) -> Vec<Trace> {
    let k = k.max(1);
    (0..k)
        .map(|client| {
            trace
                .events()
                .iter()
                .skip(client)
                .step_by(k)
                .copied()
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcache_core::{CostModel, ShardedAggregatingCacheBuilder};
    use fgcache_net::{DirectTransport, SimTransport};
    use fgcache_trace::synth::{SynthConfig, WorkloadProfile};

    const CLIENTS: usize = 2;
    const FILTER: usize = 50;

    /// `CLIENTS` independent server-profile traces (client `i` seeded
    /// with `7 + i`).
    fn client_traces() -> Vec<Trace> {
        (0..CLIENTS)
            .map(|i| {
                SynthConfig::profile(WorkloadProfile::Server)
                    .events(2_000)
                    .seed(7 + i as u64)
                    .build()
                    .unwrap()
                    .generate()
            })
            .collect()
    }

    fn server(shards: usize) -> ShardedAggregatingCache {
        ShardedAggregatingCacheBuilder::new(120)
            .shards(shards)
            .group_size(3)
            .successor_capacity(4)
            .build()
            .unwrap()
    }

    /// The round-robin, batch-1 replay over in-process calls: the oracle
    /// every other replay mode is compared with.
    fn direct_replay(server: &ShardedAggregatingCache, traces: &[Trace]) -> TransportReplayPoint {
        let transports: Vec<DirectTransport<'_>> = traces
            .iter()
            .map(|_| DirectTransport::new(server))
            .collect();
        run_multiclient_transport(traces, FILTER, transports, 1, false)
            .unwrap()
            .0
    }

    fn stream_of(
        trace: &Trace,
    ) -> impl Iterator<Item = Result<AccessEvent, std::convert::Infallible>> + '_ {
        trace.events().iter().map(|ev| Ok(*ev))
    }

    #[test]
    fn hit_rate_round_trip_is_lossy_at_scale() {
        // Regression for the reconstruction this suite used to do:
        // `events − round(client_hit_rate · events)`. Above 2^53 the
        // counters stop being representable in f64, the rate quantizes
        // to 1.0, and the round trip silently erases real misses — at
        // this pinned pair it reports 0 where the truth is 1. The exact
        // counters carried on the point are immune by construction.
        let events: u64 = 10_000_000_000_000_000; // 10^16 > 2^53
        let hits: u64 = events - 1;
        let misses = events - hits;
        let hit_rate = hits as f64 / events as f64;
        let reconstructed = events - (hit_rate * events as f64).round() as u64;
        assert_eq!(misses, 1);
        assert_ne!(
            reconstructed, misses,
            "the float round trip should diverge here — if this starts \
             passing, f64 grew mantissa bits"
        );
    }

    #[test]
    fn exact_counters_match_the_rate_and_the_server() {
        let traces = client_traces();
        let direct = server(2);
        let p = direct_replay(&direct, &traces);
        assert_eq!(p.client_hits + p.client_misses, p.events);
        assert_eq!(p.transport.requests, p.client_misses);
        assert_eq!(direct.stats().accesses, p.client_misses);
        assert!((p.client_hit_rate - p.client_hits as f64 / p.events as f64).abs() < 1e-15);

        let streamed = server(2);
        let s = run_multiclient_stream(&streamed, stream_of(&traces[0]), CLIENTS, FILTER).unwrap();
        assert_eq!(s.client_hits + s.client_misses, s.events);
        assert_eq!(s.server_accesses, s.client_misses);
        assert_eq!(streamed.stats().accesses, s.client_misses);
        assert!((s.client_hit_rate - s.client_hits as f64 / s.events as f64).abs() < 1e-15);
    }

    #[test]
    fn transport_replay_validates_inputs() {
        let traces = client_traces();
        let none: Vec<SimTransport<'static>> = Vec::new();
        assert!(matches!(
            run_multiclient_transport(&[], 10, none, 1, false),
            Err(TransportReplayError::Invalid(_))
        ));
        let one = vec![SimTransport::to_origin(CostModel::remote())];
        assert!(matches!(
            run_multiclient_transport(&traces, 0, one, 1, false),
            Err(TransportReplayError::Invalid(_))
        ));
        let one = vec![SimTransport::to_origin(CostModel::remote())];
        assert!(
            matches!(
                run_multiclient_transport(&traces, 10, one, 1, false),
                Err(TransportReplayError::Invalid(_))
            ),
            "two traces need two transports"
        );
    }

    #[test]
    fn transport_round_robin_matches_direct_replay_byte_for_byte() {
        let traces = client_traces();
        let direct_server = server(2);
        let direct = direct_replay(&direct_server, &traces);

        // The same interleave, but every miss crosses a simulated link.
        let transport_server = server(2);
        let transports: Vec<SimTransport<'_>> = (0..traces.len())
            .map(|_| SimTransport::to_shared(&transport_server, CostModel::remote()))
            .collect();
        let (point, transports) =
            run_multiclient_transport(&traces, FILTER, transports, 1, false).unwrap();

        assert_eq!(point.events, direct.events);
        assert_eq!(point.client_hits, direct.client_hits);
        assert_eq!(point.client_hit_rate, direct.client_hit_rate);
        // Byte-exact server equivalence: same stats, same group stats.
        assert_eq!(transport_server.stats(), direct_server.stats());
        assert_eq!(transport_server.group_stats(), direct_server.group_stats());
        // One source of truth: the transports' merged counters equal the
        // server's own view of the traffic.
        assert_eq!(point.transport.requests, transport_server.stats().accesses);
        assert_eq!(
            point.transport.files_moved,
            transport_server.stats().accesses
        );
        assert_eq!(point.transport.hits, transport_server.stats().hits);
        assert_eq!(transports.len(), traces.len());
    }

    #[test]
    fn transport_batching_preserves_client_totals_and_saves_latency() {
        let traces = client_traces();
        let run = |batch: usize| {
            let server = server(2);
            let transports: Vec<SimTransport<'_>> = (0..traces.len())
                .map(|_| SimTransport::to_shared(&server, CostModel::remote()))
                .collect();
            let (point, _) =
                run_multiclient_transport(&traces, FILTER, transports, batch, false).unwrap();
            point
        };
        let single = run(1);
        let batched = run(16);
        // The client tier is upstream of batching: identical totals.
        assert_eq!(single.events, batched.events);
        assert_eq!(single.client_hit_rate, batched.client_hit_rate);
        assert_eq!(single.transport.requests, batched.transport.requests);
        // Pipelining pays one latency per batch instead of one per
        // request: strictly fewer round trips, strictly less virtual time.
        assert!(batched.transport.round_trips < single.transport.round_trips);
        assert!(batched.transport.virtual_time < single.transport.virtual_time);
    }

    #[test]
    fn transport_concurrent_replay_agrees_on_client_totals() {
        let traces = client_traces();
        let server_conc = server(2);
        let transports: Vec<SimTransport<'_>> = (0..traces.len())
            .map(|_| SimTransport::to_shared(&server_conc, CostModel::remote()))
            .collect();
        let (conc, _) = run_multiclient_transport(&traces, FILTER, transports, 4, true).unwrap();

        let rr = direct_replay(&server(2), &traces);
        // Client filters are private: totals match the round-robin replay
        // regardless of interleaving, batching or the transport seam.
        assert_eq!(conc.events, rr.events);
        assert_eq!(conc.client_hits, rr.client_hits);
        assert!((conc.client_hit_rate - rr.client_hit_rate).abs() < 1e-12);
        assert_eq!(conc.transport.requests, rr.transport.requests);
        assert_eq!(server_conc.stats().accesses, rr.client_misses);
    }

    #[test]
    fn stream_replay_matches_split_round_robin_byte_for_byte() {
        let trace = SynthConfig::profile(WorkloadProfile::Server)
            .events(4_001) // not a multiple of k: exercises the ragged tail
            .seed(7)
            .build()
            .unwrap()
            .generate();
        for k in [1usize, 2, 3] {
            let split_server = server(2);
            let split = direct_replay(&split_server, &split_round_robin(&trace, k));

            let stream_server = server(2);
            let streamed =
                run_multiclient_stream(&stream_server, stream_of(&trace), k, FILTER).unwrap();

            assert_eq!(streamed.shards, 2, "k={k}");
            assert_eq!(streamed.clients, split.clients, "k={k}");
            assert_eq!(streamed.events, split.events, "k={k}");
            assert_eq!(streamed.client_hits, split.client_hits, "k={k}");
            assert_eq!(streamed.client_misses, split.client_misses, "k={k}");
            assert_eq!(streamed.server_accesses, split.transport.requests, "k={k}");
            assert_eq!(stream_server.stats(), split_server.stats(), "k={k}");
            assert_eq!(
                stream_server.group_stats(),
                split_server.group_stats(),
                "k={k}"
            );
            assert_eq!(streamed.demand_fetches, split_server.demand_fetches());
            assert_eq!(streamed.imbalance, split_server.shard_imbalance());
        }
    }

    #[test]
    fn stream_replay_validates_inputs_and_propagates_source_errors() {
        let server = server(1);
        let ok = |n: u64| {
            (0..n)
                .map(|i| Ok::<AccessEvent, std::io::Error>(fgcache_types::AccessEvent::read(i, i)))
        };
        assert!(matches!(
            run_multiclient_stream(&server, ok(4), 0, 10),
            Err(StreamReplayError::Invalid(_))
        ));
        assert!(matches!(
            run_multiclient_stream(&server, ok(4), 2, 0),
            Err(StreamReplayError::Invalid(_))
        ));
        let failing = ok(2).chain(std::iter::once(Err(std::io::Error::other("boom"))));
        let err = run_multiclient_stream(&server, failing, 2, 10).unwrap_err();
        assert!(matches!(err, StreamReplayError::Source(_)));
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    fn split_round_robin_partitions_without_loss() {
        let trace = Trace::from_files((0..10u64).collect::<Vec<_>>());
        let parts = split_round_robin(&trace, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(Trace::len).sum::<usize>(), trace.len());
        assert_eq!(
            parts[0].file_sequence(),
            vec![0, 3, 6, 9]
                .into_iter()
                .map(fgcache_types::FileId)
                .collect::<Vec<_>>()
        );
        // k = 0 clamps to one client holding everything.
        let whole = split_round_robin(&trace, 0);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].len(), trace.len());
    }
}
