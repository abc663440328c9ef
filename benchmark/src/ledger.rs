//! The traced run: one fetch stream pushed through every layer of the
//! stack in turn, each stage timed from outside and recorded as spans.
//!
//! Stages, bottom up: `trace` (generation) → `sim` (client filter) →
//! `cache` (LRU policy alone) → `successor` → `core` (the monolithic
//! aggregating cache) → `core.sharded` → `net.transport`
//! (`DirectTransport`) → `net.wire` (codec round trip) → `net.server`
//! (one connection over loopback TCP) → `cluster` (the three-node fleet).
//! A stage's cost minus the cost of the stage beneath it is attributed to
//! the layer the stage adds; the closing table prints that attribution.
//!
//! Every number here is a *per-layer* metric: it explains, it is never
//! gated. End-to-end metrics come from the untraced `bench` binary.

use std::hint::black_box;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fgcache_cache::{Cache as _, LruCache};
use fgcache_cluster::{ClusterNode, NodeId, OwnershipRing};
use fgcache_core::AggregatingCacheBuilder;
use fgcache_net::{
    decode_fetch_into, BoundServer, DirectTransport, FileReply, GroupReply, Message, NetClient,
};
use fgcache_successor::{GroupBuilder, LruSuccessorList, SuccessorTable};
use fgcache_types::{AccessOutcome, FileId, TransportError, TransportErrorKind};

use crate::alloc::allocations;
use crate::metrics::{fetch_p99, Metric};
use crate::procstat::{cpu_ns, ctx_switches};
use crate::sched::Clock as _;
use crate::stats::{median, percentile, spread};
use crate::stream::{fetch_stream, filter_misses, raw_events, StreamKind, RAW_EVENTS};
use crate::tracer::Tracer;
use crate::workload::{
    measure, server_cache, Fetcher, Measured, Rig, Workload, CAPACITY, FLEET_NODES, GROUP_SIZE,
    SUCCESSOR_CAPACITY,
};

/// Fetches each in-process stage replays.
pub const STAGE_FETCHES: usize = 1_000_000;

/// Calls covered by one span in the in-process stages: timing every call
/// would cost more than the calls.
const BATCH: usize = 4096;

/// What the traced run is asked to do.
#[derive(Debug)]
pub struct LedgerInput<'a> {
    /// The workload whose stream the single-stream stages replay and
    /// whose own traced run closes the ledger.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// `--seconds`: the timed stages scale with it (a twentieth each, so
    /// the default 20 gives one-second units).
    pub seconds: f64,
    /// `inproc-cold` throughput of the untraced binary, if known.
    pub untraced_fetch_per_s: Option<f64>,
    /// Where the spans go.
    pub tracer: &'a Tracer,
}

/// What the traced run found.
#[derive(Debug, Default)]
pub struct LedgerOutput {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Fetches sent over a transport by the TCP and fleet stages.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Correctness violations.
    pub errors: Vec<String>,
}

struct Ledger<'a> {
    input: &'a LedgerInput<'a>,
    out: LedgerOutput,
}

/// Runs `f(i)` for `i` in `0..calls`, one span per [`BATCH`] calls;
/// returns the summed span time in nanoseconds.
fn timed_calls(
    tracer: &Tracer,
    name: &'static str,
    parent: u32,
    calls: usize,
    mut f: impl FnMut(usize),
) -> u64 {
    let mut total = 0;
    let mut next = 0;
    while next < calls {
        let end = (next + BATCH).min(calls);
        let ((), ns) = tracer.time(name, parent, (end - next) as u64, || {
            for i in next..end {
                f(i);
            }
        });
        total += ns;
        next = end;
    }
    total
}

fn per(total: u64, count: u64) -> f64 {
    total as f64 / count.max(1) as f64
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

impl Ledger<'_> {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, samples: u64) {
        self.out
            .metrics
            .push(Metric::new(name, unit, value, samples));
    }

    fn push_unstable(&mut self, name: &'static str, unit: &'static str, windows: &[f64], n: u64) {
        let s = spread(windows).unwrap_or(crate::stats::Spread {
            min: 0.0,
            median: 0.0,
            max: 0.0,
        });
        self.out.metrics.push(
            Metric::new(name, unit, s.median, n)
                .note(format!("unstable: min {:.4} max {:.4}", s.min, s.max)),
        );
    }

    fn absorb(&mut self, stage: &str, measured: &Measured) {
        self.out.attempted += measured.attempted;
        self.out.failed += measured.failed;
        for error in &measured.errors {
            self.out.errors.push(format!("{stage}: {error}"));
        }
    }

    /// One unit of stage time: a twentieth of `--seconds`.
    fn unit(&self) -> Duration {
        Duration::from_secs_f64(self.input.seconds / 20.0)
    }

    /// `trace` and `sim`: generate the raw events, then filter them.
    fn stream_stages(&mut self, kind: StreamKind) -> Vec<FileId> {
        let tracer = self.input.tracer;
        let stage = tracer.open("trace", 0);
        let (events, gen_ns) = tracer.time("trace.zipf_run_stream", stage, RAW_EVENTS, || {
            raw_events(kind, self.input.seed, RAW_EVENTS).collect::<Vec<FileId>>()
        });
        tracer.close(stage, RAW_EVENTS);
        self.push(
            "trace.gen_events_per_s",
            "1/s",
            RAW_EVENTS as f64 * 1e9 / gen_ns.max(1) as f64,
            RAW_EVENTS,
        );
        let stage = tracer.open("sim", 0);
        let ((stream, hit_rate), filter_ns) =
            tracer.time("sim.filter_cache.offer_file", stage, RAW_EVENTS, || {
                filter_misses(events.into_iter())
            });
        tracer.close(stage, RAW_EVENTS);
        self.push(
            "sim.filter_ns_per_event",
            "ns",
            per(filter_ns, RAW_EVENTS),
            RAW_EVENTS,
        );
        self.push("sim.filter_hit_rate", "fraction", hit_rate, RAW_EVENTS);
        stream
    }

    /// `cache`: the replacement policy alone. Returns its ns/fetch and
    /// which fetches missed (the misses the `successor` stage builds
    /// groups for).
    fn cache_stage(&mut self, fetches: &[FileId]) -> (f64, Vec<bool>) {
        let tracer = self.input.tracer;
        let n = fetches.len() as u64;
        let stage = tracer.open("cache", 0);
        let mut lru = LruCache::new(CAPACITY);
        let mut missed = Vec::with_capacity(fetches.len());
        let ns = timed_calls(tracer, "cache.lru.access", stage, fetches.len(), |i| {
            missed.push(lru.access(fetches[i]).is_miss());
        });
        tracer.close(stage, n);
        let stats = *lru.stats();
        self.push("cache.lru_ns_per_fetch", "ns", per(ns, n), n);
        self.push("cache.lru_hit_rate", "fraction", stats.hit_rate(), n);
        self.push(
            "cache.lru_evictions_per_fetch",
            "count",
            per(stats.evictions, n),
            n,
        );
        (per(ns, n), missed)
    }

    /// `successor`: observing every fetch, then (second pass) also
    /// building a group for every fetch the policy missed; the difference
    /// is the group-building cost. Returns the observe ns/fetch.
    fn successor_stage(&mut self, fetches: &[FileId], missed: &[bool]) -> f64 {
        let tracer = self.input.tracer;
        let n = fetches.len() as u64;
        let stage = tracer.open("successor", 0);
        let table = || {
            SuccessorTable::new(
                LruSuccessorList::new(SUCCESSOR_CAPACITY).expect("fixed capacity is valid"),
            )
        };
        let mut observe_only = table();
        let observe_ns = timed_calls(
            tracer,
            "successor.table.record",
            stage,
            fetches.len(),
            |i| {
                observe_only.record(fetches[i]);
            },
        );
        let builder = GroupBuilder::new(GROUP_SIZE).expect("fixed group size is valid");
        let mut learning = table();
        let (mut members, mut scratch) = (Vec::new(), Vec::new());
        let mut group_files = 0u64;
        let both_ns = timed_calls(
            tracer,
            "successor.record+group_builder.build_into",
            stage,
            fetches.len(),
            |i| {
                learning.record(fetches[i]);
                if missed[i] {
                    builder.build_into(&learning, fetches[i], &mut members, &mut scratch);
                    group_files += 1 + members.len() as u64;
                }
            },
        );
        tracer.close(stage, 2 * n);
        let misses = missed.iter().filter(|&&m| m).count() as u64;
        self.push(
            "successor.observe_ns_per_fetch",
            "ns",
            per(observe_ns, n),
            n,
        );
        self.push(
            "successor.group_build_ns_per_miss",
            "ns",
            per(both_ns.saturating_sub(observe_ns), misses),
            misses,
        );
        self.push(
            "successor.mean_group_size",
            "count",
            per(group_files, misses),
            misses,
        );
        per(observe_ns, n)
    }

    /// `core`: the monolithic aggregating cache on both streams, so that
    /// the cost of a hit and of a miss can be separated. Returns ns/fetch
    /// on the workload's own stream.
    fn core_stage(&mut self, own: &[FileId], other: &[FileId]) -> f64 {
        let tracer = self.input.tracer;
        let stage = tracer.open("core", 0);
        let run = |fetches: &[FileId]| {
            let mut agg = AggregatingCacheBuilder::new(CAPACITY)
                .group_size(GROUP_SIZE)
                .successor_capacity(SUCCESSOR_CAPACITY)
                .build()
                .expect("fixed configuration is valid");
            let allocs = allocations();
            let ns = timed_calls(
                tracer,
                "core.agg.handle_access",
                stage,
                fetches.len(),
                |i| {
                    black_box(agg.handle_access(fetches[i]));
                },
            );
            let allocs = allocations() - allocs;
            (
                per(ns, fetches.len() as u64),
                allocs,
                *agg.stats(),
                *agg.group_stats(),
            )
        };
        let (own_ns, allocs, stats, groups) = run(own);
        let (other_ns, _, other_stats, _) = run(other);
        tracer.close(stage, (own.len() + other.len()) as u64);
        let n = own.len() as u64;
        // own_ns = h1·hit + (1 − h1)·miss and other_ns likewise with h2:
        // two equations, two unknowns.
        let (h1, h2) = (stats.hit_rate(), other_stats.hit_rate());
        let (hit_ns, miss_ns) = if (h1 - h2).abs() > 0.05 {
            (
                (own_ns * (1.0 - h2) - other_ns * (1.0 - h1)) / (h1 - h2),
                (other_ns * h1 - own_ns * h2) / (h1 - h2),
            )
        } else {
            (own_ns, own_ns)
        };
        self.push("core.agg_ns_per_fetch", "ns", own_ns, n);
        self.push(
            "core.agg_ns_per_hit",
            "ns",
            hit_ns,
            stats.hits + other_stats.hits,
        );
        self.push(
            "core.agg_ns_per_miss",
            "ns",
            miss_ns,
            stats.misses + other_stats.misses,
        );
        self.push("core.agg_allocs_per_fetch", "count", per(allocs, n), n);
        self.push(
            "core.spec_hit_frac",
            "fraction",
            per(stats.speculative_hits, stats.speculative_inserts),
            stats.speculative_inserts,
        );
        self.push(
            "core.files_per_demand_fetch",
            "count",
            per(groups.files_transferred, groups.demand_fetches),
            groups.demand_fetches,
        );
        own_ns
    }

    /// `core.sharded`: the sharded wrapper, one thread then two. Returns
    /// the one-thread ns/fetch.
    fn sharded_stage(&mut self, fetches: &[FileId], agg_ns: f64) -> f64 {
        let tracer = self.input.tracer;
        let n = fetches.len() as u64;
        let stage = tracer.open("core.sharded", 0);
        let cache = server_cache();
        let ns = timed_calls(
            tracer,
            "core.sharded.handle_access",
            stage,
            fetches.len(),
            |i| {
                black_box(cache.handle_access(fetches[i]));
            },
        );
        // Read before any inspection call: those take the locks too.
        let locks = cache.lock_acquisitions();
        let fast_hits = cache.fast_path_hits();
        let hits = cache.stats().hits;
        let imbalance = cache.shard_imbalance();

        let shared = server_cache();
        let half = fetches.len() / 2;
        let ((), t2_ns) = tracer.time("core.sharded.handle_access.t2", stage, 2 * n, || {
            thread::scope(|scope| {
                for offset in [0, half] {
                    let shared = &shared;
                    scope.spawn(move || {
                        for i in 0..fetches.len() {
                            black_box(shared.handle_access(fetches[(i + offset) % fetches.len()]));
                        }
                    });
                }
            });
        });
        tracer.close(stage, 3 * n);
        let sharded_ns = per(ns, n);
        self.push("core.sharded_ns_per_fetch", "ns", sharded_ns, n);
        self.push("core.sharded_overhead_ns", "ns", sharded_ns - agg_ns, n);
        self.push("core.sharded_locks_per_fetch", "count", per(locks, n), n);
        self.push(
            "core.sharded_fast_hit_frac",
            "fraction",
            per(fast_hits, hits),
            hits,
        );
        self.push("core.sharded_imbalance", "ratio", imbalance, n);
        self.out.metrics.push(
            Metric::new(
                "core.sharded_t2_ns_per_fetch",
                "ns",
                per(t2_ns, 2 * n),
                2 * n,
            )
            .note("unstable: wall clock per fetch with 2 threads"),
        );
        sharded_ns
    }

    /// `net.transport`: `DirectTransport` over the sharded cache.
    fn direct_stage(&mut self, fetches: &[FileId]) -> f64 {
        let tracer = self.input.tracer;
        let n = fetches.len() as u64;
        let stage = tracer.open("net.transport", 0);
        let cache = server_cache();
        let mut direct = DirectTransport::new(&cache);
        let mut fetcher = Fetcher::new(fetches, 0, 1, 0, 0);
        let allocs = allocations();
        let ns = timed_calls(
            tracer,
            "net.direct.fetch_group",
            stage,
            fetches.len(),
            |_| {
                fetcher.fetch_one(&mut direct);
            },
        );
        let allocs = allocations() - allocs;
        tracer.close(stage, n);
        if fetcher.failed > 0 {
            self.out
                .errors
                .push(format!("net.transport: {} fetches failed", fetcher.failed));
        }
        self.push("net.direct_ns_per_fetch", "ns", per(ns, n), n);
        self.push("net.direct_allocs_per_fetch", "count", per(allocs, n), n);
        per(ns, n)
    }

    /// `net.wire`: what one fetch costs in the codec — encode the
    /// request, decode it the way the server does, build and encode the
    /// reply, decode it the way the client does.
    fn wire_stage(&mut self, fetches: &[FileId]) -> f64 {
        let tracer = self.input.tracer;
        let n = fetches.len() as u64;
        let stage = tracer.open("net.wire", 0);
        let mut request = Message::Fetch {
            request_id: 0,
            files: vec![FileId(0)],
        };
        let (mut request_frame, mut reply_frame) = (Vec::new(), Vec::new());
        let mut decoded_files = Vec::new();
        let (mut bytes, mut bad) = (0u64, 0u64);
        let allocs = allocations();
        let ns = timed_calls(tracer, "net.wire.roundtrip", stage, fetches.len(), |i| {
            if let Message::Fetch { request_id, files } = &mut request {
                *request_id = i as u64;
                files[0] = fetches[i];
            }
            request.encode_into(&mut request_frame);
            let header = decode_fetch_into(&request_frame[4..], &mut decoded_files);
            let reply = GroupReply {
                request_id: header.ok().flatten().map_or(u64::MAX, |h| h.request_id),
                files: decoded_files
                    .iter()
                    .map(|&file| FileReply {
                        file,
                        outcome: AccessOutcome::Hit,
                    })
                    .collect(),
            };
            Message::reply_for(&reply).encode_into(&mut reply_frame);
            match Message::decode(&reply_frame[4..]) {
                Ok(Message::FetchReply { request_id, files })
                    if request_id == i as u64
                        && files.len() == 1
                        && files[0].file == fetches[i] => {}
                _ => bad += 1,
            }
            bytes += (request_frame.len() + reply_frame.len()) as u64;
        });
        let allocs = allocations() - allocs;
        tracer.close(stage, n);
        if bad > 0 {
            self.out.errors.push(format!(
                "net.wire: {bad} round trips did not echo the request"
            ));
        }
        self.push("net.wire_ns_per_roundtrip", "ns", per(ns, n), n);
        self.push("net.wire_allocs_per_roundtrip", "count", per(allocs, n), n);
        self.push("net.wire_bytes_per_fetch", "bytes", per(bytes, n), n);
        per(ns, n)
    }

    /// `net.server` (+ `net.client`): one server, one connection.
    fn tcp_stage(&mut self, fetches: &[FileId], direct_ns: f64, wire_ns: f64) {
        let tracer = self.input.tracer;
        let stage = tracer.open("net.server", 0);
        let cache = Arc::new(server_cache());
        let server = match BoundServer::bind("127.0.0.1:0", Arc::clone(&cache)) {
            Ok(bound) => bound.spawn(),
            Err(e) => {
                self.out
                    .errors
                    .push(format!("net.server: bind failed: {e}"));
                return;
            }
        };
        let addr = server.addr().to_string();
        let connect = |errors: &mut Vec<String>| match NetClient::connect(&addr) {
            Ok(client) => Some(client),
            Err(e) => {
                errors.push(format!("net.server: connect failed: {e}"));
                None
            }
        };

        let mut connect_ns = Vec::new();
        for _ in 0..20 {
            let (client, ns) = tracer.time("net.client.connect", stage, 1, || {
                connect(&mut self.out.errors)
            });
            drop(client);
            connect_ns.push(ns as f64);
        }
        let (Some(mut client), Some(silent)) =
            (connect(&mut self.out.errors), connect(&mut self.out.errors))
        else {
            server.stop();
            return;
        };

        // Closed loop, batch 1: the sequential round trip. Four windows,
        // because the same code runs at either of two speeds.
        let window = self.unit() * 3 / 8;
        let mut fetcher = Fetcher::new(fetches, 0, 1, 0, 0);
        let mut rtts = Vec::new();
        let mut b1_windows = Vec::new();
        let (allocs, cpu, switches) = (allocations(), cpu_ns(), ctx_switches());
        for _ in 0..4 {
            let (start, mut done) = (Instant::now(), 0u64);
            while start.elapsed() < window {
                let t0 = tracer.clock.now_ns();
                fetcher.fetch_one(&mut client);
                let t1 = tracer.clock.now_ns();
                tracer.record("net.client.fetch_group", stage, t0, t1, 1);
                rtts.push(t1 - t0);
                done += 1;
            }
            b1_windows.push(done as f64 / start.elapsed().as_secs_f64());
        }
        let sequential = fetcher.attempted;
        let (allocs, cpu, switches) = (
            allocations() - allocs,
            cpu_ns() - cpu,
            ctx_switches() - switches,
        );
        rtts.sort_unstable();
        let p50_us = us(percentile(&rtts, 0.5));
        self.push("net.tcp_seq_rtt_p50_us", "us", p50_us, sequential);
        self.push(
            "net.tcp_seq_rtt_p99_us",
            "us",
            us(percentile(&rtts, 0.99)),
            sequential,
        );
        self.push(
            "net.tcp_self_us",
            "us",
            p50_us - (direct_ns + wire_ns) / 1e3,
            sequential,
        );
        self.push(
            "net.tcp_allocs_per_fetch",
            "count",
            per(allocs, sequential),
            sequential,
        );
        self.push(
            "net.tcp_cpu_us_per_fetch",
            "us",
            per(cpu, sequential) / 1e3,
            sequential,
        );
        self.push(
            "net.tcp_ctx_switches_per_fetch",
            "count",
            per(switches, sequential),
            sequential,
        );

        // Closed loop, batch 8.
        let mut burst = Fetcher::new(fetches, 1, 8, 0, 0);
        let mut b8_windows = Vec::new();
        for _ in 0..4 {
            let (start, before) = (Instant::now(), burst.attempted);
            while start.elapsed() < window {
                let t0 = tracer.clock.now_ns();
                burst.fetch_burst(&mut client);
                tracer.record(
                    "net.client.fetch_batch",
                    stage,
                    t0,
                    tracer.clock.now_ns(),
                    8,
                );
            }
            b8_windows.push((burst.attempted - before) as f64 / start.elapsed().as_secs_f64());
        }

        // Both connections silent: what an idle server costs.
        let idle = self.unit();
        let cpu = cpu_ns();
        let ((), idle_ns) = tracer.time("net.server.idle", stage, 0, || thread::sleep(idle));
        let idle_cpu = cpu_ns() - cpu;
        drop(silent);

        let dedup_hits = match client.server_stats() {
            Ok(stats) => stats.reply_cache_hits,
            Err(e) => {
                self.out
                    .errors
                    .push(format!("net.server: stats failed: {e}"));
                0
            }
        };
        drop(client);
        server.stop();
        tracer.close(stage, fetcher.attempted + burst.attempted);

        self.out.attempted += fetcher.attempted + burst.attempted;
        self.out.failed += fetcher.failed + burst.failed;
        if dedup_hits != 0 {
            self.out.errors.push(format!(
                "net.server: {dedup_hits} replies came from the reply cache"
            ));
        }
        if let Err(violation) = cache.check_invariants() {
            self.out.errors.push(format!("net.server: {violation}"));
        }
        self.push(
            "net.tcp_idle_cpu_frac",
            "fraction",
            per(idle_cpu, idle_ns),
            1,
        );
        self.push(
            "net.connect_us",
            "us",
            median(&connect_ns).unwrap_or(0.0) / 1e3,
            connect_ns.len() as u64,
        );
        self.push("net.dedup_hits", "count", dedup_hits as f64, sequential);
        self.push_unstable(
            "net.tcp_closed_b1_fetch_per_s",
            "1/s",
            &b1_windows,
            sequential,
        );
        self.push_unstable(
            "net.tcp_closed_b8_fetch_per_s",
            "1/s",
            &b8_windows,
            burst.attempted,
        );
    }

    /// `cluster`: ownership lookup, a one-member node in process, then
    /// the paced three-node fleet with every fetch classified as local or
    /// proxied by who owns its file. Returns the fleet's measured phase
    /// when the traced workload is the fleet itself.
    fn cluster_stage(&mut self, fetches: &[FileId]) -> Option<Measured> {
        let tracer = self.input.tracer;
        let n = fetches.len() as u64;
        let stage = tracer.open("cluster", 0);
        let ring = OwnershipRing::new((0..FLEET_NODES as u64).map(NodeId));
        let ns = timed_calls(tracer, "cluster.ring.owner", stage, fetches.len(), |i| {
            black_box(ring.owner(fetches[i]));
        });
        self.push("cluster.ring_owner_ns", "ns", per(ns, n), n);

        // A node whose view holds only itself serves everything locally.
        let alone = ClusterNode::new(
            NodeId(0),
            Arc::new(server_cache()),
            Box::new(|_, _| {
                Err(TransportError::new(
                    TransportErrorKind::ConnectionLost,
                    "a one-member view has no peers",
                ))
            }),
        );
        let ns = timed_calls(tracer, "cluster.node.serve", stage, fetches.len(), |i| {
            black_box(alone.serve(i as u64, &[fetches[i]]));
        });
        self.push("cluster.serve_local_ns_per_fetch", "ns", per(ns, n), n);

        let workload = Workload::Cluster3Paced;
        let mut rig = match Rig::build(workload, self.input.seed)
            .and_then(|mut rig| rig.verify_prefix().map(|()| rig))
        {
            Ok(rig) => rig,
            Err(e) => {
                self.out.errors.push(format!("cluster: {e}"));
                tracer.close(stage, 2 * n);
                return None;
            }
        };
        let routed_before: Vec<_> = rig.nodes.iter().map(|node| node.stats()).collect();
        let served_before: Vec<u64> = rig.caches.iter().map(|c| c.stats().accesses).collect();
        let window_ns = (self.unit() * 4).as_nanos() as u64;
        let measured = measure(&mut rig, tracer.clock, window_ns, 1, Some((tracer, stage)));
        self.absorb("cluster", &measured);

        let (mut local, mut proxied) = (Vec::new(), Vec::new());
        for (conn, latencies) in measured.per_connection_latency_ns.iter().enumerate() {
            let stream = &rig.streams[conn];
            let cursor = workload.start_cursor(conn);
            for (k, &latency) in latencies.iter().enumerate() {
                let file = stream[(cursor + k) % stream.len()];
                if ring.owner(file) == Some(NodeId(conn as u64)) {
                    local.push(latency);
                } else {
                    proxied.push(latency);
                }
            }
        }
        local.sort_unstable();
        proxied.sort_unstable();
        let quantile = |sorted: &[u64], q: f64| match sorted.is_empty() {
            true => 0.0,
            false => us(percentile(sorted, q)),
        };
        let (mut routed, mut forwarded, mut collapsed, mut failures) = (0u64, 0u64, 0u64, 0u64);
        for (node, before) in rig.nodes.iter().zip(&routed_before) {
            let after = node.stats();
            forwarded += after.proxied - before.proxied;
            collapsed += after.collapsed - before.collapsed;
            failures += after.proxy_failures;
            routed += (after.local_serves - before.local_serves)
                + (after.proxied - before.proxied)
                + (after.collapsed - before.collapsed);
        }
        let served: Vec<u64> = rig
            .caches
            .iter()
            .zip(&served_before)
            .map(|(cache, before)| cache.stats().accesses - before)
            .collect();
        let mean_served = served.iter().sum::<u64>() as f64 / served.len() as f64;
        let busiest = served.iter().copied().max().unwrap_or(0) as f64;
        let window = measured.windows.first().cloned().unwrap_or_default();
        rig.teardown();
        tracer.close(stage, 2 * n + measured.attempted);

        let samples = (local.len() + proxied.len()) as u64;
        self.push(
            "cluster.local_rtt_p50_us",
            "us",
            quantile(&local, 0.5),
            local.len() as u64,
        );
        self.push(
            "cluster.proxied_rtt_p50_us",
            "us",
            quantile(&proxied, 0.5),
            proxied.len() as u64,
        );
        self.push(
            "cluster.proxied_rtt_p99_us",
            "us",
            quantile(&proxied, 0.99),
            proxied.len() as u64,
        );
        self.push(
            "cluster.proxied_frac",
            "fraction",
            per(forwarded + collapsed, routed),
            routed,
        );
        self.push(
            "cluster.collapsed_frac",
            "fraction",
            per(collapsed, routed),
            routed,
        );
        self.push("cluster.proxy_failures", "count", failures as f64, routed);
        self.push(
            "cluster.imbalance",
            "ratio",
            busiest / mean_served.max(1.0),
            samples,
        );
        self.push(
            "cluster.cpu_us_per_fetch",
            "us",
            per(window.cpu_ns, window.fetches) / 1e3,
            window.fetches,
        );
        (self.input.workload == workload).then_some(measured)
    }

    /// Sets `workload` up, checks it and runs one traced window of it.
    fn traced_run(&mut self, workload: Workload, window: Duration) -> Option<Measured> {
        let tracer = self.input.tracer;
        let stage = tracer.open(workload.name(), 0);
        let built = Rig::build(workload, self.input.seed)
            .and_then(|mut rig| rig.verify_prefix().map(|()| rig));
        let measured = match built {
            Ok(mut rig) => {
                let window_ns = window.as_nanos() as u64;
                let measured = measure(&mut rig, tracer.clock, window_ns, 1, Some((tracer, stage)));
                rig.teardown();
                self.absorb(workload.name(), &measured);
                Some(measured)
            }
            Err(e) => {
                self.out.errors.push(format!("{}: {e}", workload.name()));
                None
            }
        };
        tracer.close(stage, measured.as_ref().map_or(0, |m| m.attempted));
        measured
    }

    /// The harness's own numbers: how late the workload's generator ran
    /// under tracing, how many samples it took, and what tracing costs.
    fn harness_stage(&mut self, fleet_run: Option<Measured>) {
        let workload = self.input.workload;
        let own = match fleet_run {
            Some(measured) => Some(measured),
            None => self.traced_run(workload, self.unit() * 2),
        };
        let cold = match (&own, workload) {
            (Some(measured), Workload::InprocCold) => Some(measured.clone()),
            _ => self.traced_run(Workload::InprocCold, self.unit() * 2),
        };
        let (lag_p99_us, samples) = own.as_ref().map_or((0.0, 0), |m| {
            let lag = match m.lag_ns.is_empty() {
                true => 0.0,
                false => us(percentile(&m.lag_ns, 0.99)),
            };
            (lag, m.windows.iter().map(|w| w.samples).sum())
        });
        let traced_fetch_per_s = cold
            .as_ref()
            .and_then(|m| m.windows.first())
            .map_or(0.0, |w| w.fetch_per_s);
        self.push("bench.gen_lag_p99_us", "us", lag_p99_us, samples);
        let overhead = match self.input.untraced_fetch_per_s {
            Some(untraced) if untraced > 0.0 => Metric::new(
                "bench.trace_overhead_frac",
                "fraction",
                1.0 - traced_fetch_per_s / untraced,
                1,
            )
            .note(format!(
                "inproc-cold fetch_per_s traced {traced_fetch_per_s:.0} vs untraced {untraced:.0}"
            )),
            _ => Metric::new("bench.trace_overhead_frac", "fraction", 0.0, 0)
                .note("no --untraced-fetch-per-s given"),
        };
        self.out.metrics.push(overhead);
        self.push("bench.samples", "count", samples as f64, samples);
        self.out.metrics.push(match &own {
            Some(measured) => fetch_p99(measured),
            None => Metric::new("fetch_p99_us", "us", f64::NAN, 0),
        });
    }
}

/// Runs every stage and returns every per-layer metric.
pub fn run(input: &LedgerInput<'_>) -> LedgerOutput {
    let mut ledger = Ledger {
        input,
        out: LedgerOutput::default(),
    };
    let own_kind = input.workload.stream();
    let other_kind = match own_kind {
        StreamKind::Hot => StreamKind::Cold,
        StreamKind::Cold => StreamKind::Hot,
    };
    let stream = ledger.stream_stages(own_kind);
    let fetches = &stream[..stream.len().min(STAGE_FETCHES)];
    let other = fetch_stream(other_kind, input.seed);
    let other = &other[..other.len().min(STAGE_FETCHES)];

    let (lru_ns, missed) = ledger.cache_stage(fetches);
    let observe_ns = ledger.successor_stage(fetches, &missed);
    let agg_ns = ledger.core_stage(fetches, other);
    let sharded_ns = ledger.sharded_stage(fetches, agg_ns);
    let direct_ns = ledger.direct_stage(fetches);
    let wire_ns = ledger.wire_stage(fetches);
    ledger.tcp_stage(fetches, direct_ns, wire_ns);
    let fleet_run = ledger.cluster_stage(fetches);
    ledger.harness_stage(fleet_run);

    let value = |name: &str| {
        ledger
            .out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let tcp_ns = value("net.tcp_seq_rtt_p50_us") * 1e3;
    let local_ns = value("cluster.local_rtt_p50_us") * 1e3;
    let proxied_ns = value("cluster.proxied_rtt_p50_us") * 1e3;
    println!(
        "ledger ({} stream, {} fetches per in-process stage): cost of one fetch through each stage, and the share the stage's own layer adds",
        own_kind.name(),
        fetches.len()
    );
    println!(
        "  {:<44} {:>14} {:>14}",
        "stage", "ns/fetch", "layer self ns"
    );
    for (stage, total, own) in [
        ("cache: LruCache::access", lru_ns, lru_ns),
        ("successor: SuccessorTable::record", observe_ns, observe_ns),
        (
            "core: AggregatingCache::handle_access",
            agg_ns,
            agg_ns - lru_ns - observe_ns,
        ),
        (
            "core.sharded: ShardedAggregatingCache",
            sharded_ns,
            sharded_ns - agg_ns,
        ),
        (
            "net.transport: DirectTransport",
            direct_ns,
            direct_ns - sharded_ns,
        ),
        (
            "net.wire: codec round trip (beside, not above)",
            wire_ns,
            wire_ns,
        ),
        (
            "net.server: 1 connection, sequential (p50)",
            tcp_ns,
            tcp_ns - direct_ns - wire_ns,
        ),
        (
            "cluster: paced fleet, local fetch (p50)",
            local_ns,
            local_ns - tcp_ns,
        ),
        (
            "cluster: paced fleet, proxied fetch (p50)",
            proxied_ns,
            proxied_ns - local_ns,
        ),
    ] {
        println!("  {stage:<44} {total:>14.1} {own:>14.1}");
    }
    ledger.out
}
