//! The five workloads: what each one sets up, how it checks itself, and
//! how its measured phase runs.
//!
//! Every workload drives the stack `fgcache serve` runs — the sharded
//! aggregating cache at [`CAPACITY`] files behind [`DirectTransport`], one
//! [`BoundServer`], or three [`ClusterNode`]s — from outside, through
//! public functions only.

use std::sync::Arc;
use std::thread;

use fgcache_cluster::{ClusterNode, ClusterView, NodeId, OwnershipRing};
use fgcache_core::{ShardedAggregatingCache, ShardedAggregatingCacheBuilder};
use fgcache_net::{
    request_id, BoundServer, DirectTransport, GroupReply, GroupRequest, NetClient, ServeBackend,
    ServerHandle, Transport, WireStats,
};
use fgcache_sim::cluster::{oracle_replay, VirtualClusterConfig};
use fgcache_types::FileId;

use crate::procstat;
use crate::sched::{run_open_loop, Clock as _, MonoClock, OpSample, Schedule};
use crate::stats::percentile;
use crate::stream::{fetch_stream, StreamKind};
use crate::tracer::Tracer;

/// Server-tier capacity in files, the same in every workload.
pub const CAPACITY: usize = 8192;
/// Shards of the server-tier cache.
pub const SHARDS: usize = 4;
/// Files per group fetch.
pub const GROUP_SIZE: usize = 5;
/// Successors remembered per file.
pub const SUCCESSOR_CAPACITY: usize = 8;
/// Fetches replayed by direct `handle_access` before anything is timed.
pub const WARM_UP: usize = 200_000;
/// Nodes in the fleet workload.
pub const FLEET_NODES: usize = 3;
/// In the closed-loop workloads one fetch in this many is timed on its
/// own; the rest run back to back, so the clock costs under 1 % of a run.
pub const SAMPLE_EVERY: u64 = 64;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One thread, closed loop, hot stream, `DirectTransport`.
    InprocHot,
    /// One thread, closed loop, cold stream, `DirectTransport`.
    InprocCold,
    /// One TCP server, two connections, one fetch per millisecond each.
    TcpPaced,
    /// One TCP server, two connections, a pipelined batch of eight per
    /// millisecond each.
    TcpBurst,
    /// Three cluster nodes over TCP, two connections, one fetch per
    /// twenty milliseconds each.
    Cluster3Paced,
}

impl Workload {
    /// Every workload, in the order a full set runs them.
    pub const ALL: [Workload; 5] = [
        Workload::InprocHot,
        Workload::InprocCold,
        Workload::TcpPaced,
        Workload::TcpBurst,
        Workload::Cluster3Paced,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InprocHot => "inproc-hot",
            Workload::InprocCold => "inproc-cold",
            Workload::TcpPaced => "tcp-paced",
            Workload::TcpBurst => "tcp-burst",
            Workload::Cluster3Paced => "cluster3-paced",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Which input stream the workload replays.
    pub fn stream(self) -> StreamKind {
        match self {
            Workload::InprocHot => StreamKind::Hot,
            _ => StreamKind::Cold,
        }
    }

    /// Generator connections (one thread each). Never more than the two
    /// cores of the reference host.
    pub fn connections(self) -> usize {
        match self {
            Workload::InprocHot | Workload::InprocCold => 1,
            _ => 2,
        }
    }

    /// Gap between a connection's due times; `None` for a closed loop.
    pub fn period_ns(self) -> Option<u64> {
        match self {
            Workload::InprocHot | Workload::InprocCold => None,
            Workload::TcpPaced | Workload::TcpBurst => Some(1_000_000),
            Workload::Cluster3Paced => Some(20_000_000),
        }
    }

    /// Fetches pipelined per operation.
    pub fn burst(self) -> usize {
        match self {
            Workload::TcpBurst => 8,
            _ => 1,
        }
    }

    /// Fetches replayed sequentially through the workload's transport and
    /// compared with a reference before anything is timed. Over TCP the
    /// prefix is shorter: a sequential replay runs at either ~50 000 or
    /// ~1 800 fetch/s depending on where the scheduler put the server's
    /// threads, and the slow case must still fit the run's time budget.
    pub fn verify_prefix(self) -> usize {
        match self {
            Workload::InprocHot | Workload::InprocCold => 20_000,
            Workload::TcpPaced | Workload::TcpBurst => 5_000,
            Workload::Cluster3Paced => 600,
        }
    }

    /// Stream position of a connection's first measured fetch: connection
    /// 0 already replayed the verify prefix, the others start at 0.
    pub fn start_cursor(self, conn: usize) -> usize {
        if conn == 0 {
            self.verify_prefix()
        } else {
            0
        }
    }

    fn is_fleet(self) -> bool {
        self == Workload::Cluster3Paced
    }
}

/// Builds the server-tier cache every workload serves from.
///
/// # Panics
///
/// Panics if the fixed configuration is rejected (a bug in this file).
pub fn server_cache() -> ShardedAggregatingCache {
    ShardedAggregatingCacheBuilder::new(CAPACITY)
        .shards(SHARDS)
        .group_size(GROUP_SIZE)
        .successor_capacity(SUCCESSOR_CAPACITY)
        .build()
        .expect("the benchmark's fixed cache configuration is valid")
}

/// The fetches a rig is warmed with: the *tail* of the stream, so that the
/// cyclic replay starting at index 0 continues where the warm-up ended.
fn warm_up_tail(stream: &[FileId]) -> &[FileId] {
    &stream[stream.len().saturating_sub(WARM_UP)..]
}

/// Warms `caches` by direct `handle_access`, each fetch at the cache of
/// the node that owns its file (a single cache owns every file).
///
/// # Panics
///
/// Panics if `caches` is empty.
pub fn warm_up(caches: &[Arc<ShardedAggregatingCache>], stream: &[FileId]) {
    let ring = OwnershipRing::new((0..caches.len() as u64).map(NodeId));
    for &file in warm_up_tail(stream) {
        let owner = ring.owner(file).expect("at least one cache").as_u64();
        caches[owner as usize].handle_access(file);
    }
}

/// One connection's request generator: walks its stream cyclically,
/// stamps never-reused request ids, and checks that every reply echoes
/// its request. The requests are reused, so generating a fetch allocates
/// nothing.
#[derive(Debug)]
pub struct Fetcher<'s> {
    stream: &'s [FileId],
    cursor: usize,
    namespace: u64,
    seq: u64,
    requests: Vec<GroupRequest>,
    /// Fetches sent.
    pub attempted: u64,
    /// Fetches that errored, timed out, or whose reply did not echo the
    /// request's id, length and file.
    pub failed: u64,
}

fn echoes(reply: &GroupReply, request: &GroupRequest) -> bool {
    reply.request_id == request.request_id
        && reply.files.len() == request.files.len()
        && reply
            .files
            .iter()
            .zip(&request.files)
            .all(|(r, f)| r.file == *f)
}

impl<'s> Fetcher<'s> {
    /// A generator for connection `conn` (0-based) sending `burst` fetches
    /// per operation, starting at stream position `cursor` with sequence
    /// number `seq`.
    pub fn new(stream: &'s [FileId], conn: usize, burst: usize, cursor: usize, seq: u64) -> Self {
        assert!(!stream.is_empty(), "a fetch stream is never empty");
        Fetcher {
            stream,
            cursor: cursor % stream.len(),
            namespace: conn as u64 + 1,
            seq,
            requests: (0..burst)
                .map(|_| GroupRequest::new(0, vec![FileId(0)]))
                .collect(),
            attempted: 0,
            failed: 0,
        }
    }

    fn fill(&mut self, slot: usize) {
        let request = &mut self.requests[slot];
        request.request_id = request_id(self.namespace, self.seq);
        request.files[0] = self.stream[self.cursor];
        self.seq += 1;
        self.cursor += 1;
        if self.cursor == self.stream.len() {
            self.cursor = 0;
        }
    }

    /// Sends the next fetch through `transport`.
    #[inline]
    pub fn fetch_one<T: Transport>(&mut self, transport: &mut T) {
        self.fill(0);
        self.attempted += 1;
        match transport.fetch_group(&self.requests[0]) {
            Ok(reply) if echoes(&reply, &self.requests[0]) => {}
            _ => self.failed += 1,
        }
    }

    /// Sends the next `burst` fetches as one pipelined batch.
    pub fn fetch_burst<T: Transport>(&mut self, transport: &mut T) {
        for slot in 0..self.requests.len() {
            self.fill(slot);
        }
        self.attempted += self.requests.len() as u64;
        let replies = transport.fetch_batch(&self.requests);
        let echoed = replies
            .iter()
            .zip(&self.requests)
            .filter(|(reply, request)| matches!(reply, Ok(r) if echoes(r, request)))
            .count();
        self.failed += (self.requests.len() - echoed) as u64;
    }

    /// Sends the next operation: a single fetch or a burst.
    pub fn fetch_op<T: Transport>(&mut self, transport: &mut T) {
        if self.requests.len() == 1 {
            self.fetch_one(transport);
        } else {
            self.fetch_burst(transport);
        }
    }
}

/// Everything a workload needs before its first measured fetch.
pub struct Rig {
    /// The workload this rig serves.
    pub workload: Workload,
    /// One fetch stream per connection (connection `c` uses `seed + c`).
    pub streams: Vec<Vec<FileId>>,
    /// The server-tier caches: one, or one per fleet node.
    pub caches: Vec<Arc<ShardedAggregatingCache>>,
    /// The fleet's nodes (empty otherwise).
    pub nodes: Vec<Arc<ClusterNode>>,
    /// Running TCP servers (none in process, one, or one per node).
    pub servers: Vec<ServerHandle>,
    /// One client per connection (empty in process).
    pub clients: Vec<NetClient>,
}

impl std::fmt::Debug for Rig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rig")
            .field("workload", &self.workload)
            .field("servers", &self.servers.len())
            .field("clients", &self.clients.len())
            .finish_non_exhaustive()
    }
}

fn bind<B: ServeBackend + 'static>(backend: Arc<B>) -> Result<BoundServer, String> {
    BoundServer::bind_backend("127.0.0.1:0", backend).map_err(|e| format!("bind failed: {e}"))
}

/// Asks the server at `addr` for its counters over a fresh connection.
fn wire_stats_at(addr: &str) -> Result<WireStats, String> {
    NetClient::connect(addr)
        .and_then(|mut client| client.server_stats())
        .map_err(|e| format!("stats request to {addr} failed: {e}"))
}

impl Rig {
    /// Sets the workload up: generates its streams, builds and warms its
    /// caches, binds its servers and connects its clients.
    ///
    /// # Errors
    ///
    /// Returns a description of the first set-up failure.
    pub fn build(workload: Workload, seed: u64) -> Result<Rig, String> {
        let streams: Vec<Vec<FileId>> = (0..workload.connections())
            .map(|c| fetch_stream(workload.stream(), seed + c as u64))
            .collect();
        let mut rig = Rig {
            workload,
            streams,
            caches: Vec::new(),
            nodes: Vec::new(),
            servers: Vec::new(),
            clients: Vec::new(),
        };
        if workload.is_fleet() {
            rig.build_fleet()?;
        } else {
            let cache = Arc::new(server_cache());
            if workload.period_ns().is_some() {
                rig.servers.push(bind(Arc::clone(&cache))?.spawn());
            }
            rig.caches.push(cache);
        }
        warm_up(&rig.caches, &rig.streams[0]);
        if !rig.servers.is_empty() {
            for conn in 0..workload.connections() {
                // Connection c enters at node c of the fleet, and at the
                // one server otherwise.
                let addr = rig.servers[conn % rig.servers.len()].addr();
                let client = NetClient::connect(addr)
                    .map_err(|e| format!("connect to {addr} failed: {e}"))?;
                rig.clients.push(client);
            }
        }
        Ok(rig)
    }

    /// Three nodes, each behind its own server, all holding one epoch-1
    /// view; peers are dialled lazily over TCP on the first proxy.
    fn build_fleet(&mut self) -> Result<(), String> {
        for id in 0..FLEET_NODES as u64 {
            let cache = Arc::new(server_cache());
            let node = Arc::new(ClusterNode::new(
                NodeId(id),
                Arc::clone(&cache),
                Box::new(|_peer, addr| {
                    Ok(Box::new(NetClient::connect(addr)?) as Box<dyn Transport + Send>)
                }),
            ));
            self.servers.push(bind(Arc::clone(&node))?.spawn());
            self.caches.push(cache);
            self.nodes.push(node);
        }
        let members: Vec<(NodeId, String)> = self
            .servers
            .iter()
            .enumerate()
            .map(|(id, server)| (NodeId(id as u64), server.addr().to_string()))
            .collect();
        for node in &self.nodes {
            node.apply_view(ClusterView::new(1, members.clone()));
        }
        Ok(())
    }

    /// Server counters as a client sees them: over the wire where there
    /// is a wire (one entry per server), from `wire_stats()` in process.
    ///
    /// # Errors
    ///
    /// Returns a description of a failed stats request.
    pub fn wire_stats(&self) -> Result<Vec<WireStats>, String> {
        if self.servers.is_empty() {
            return Ok(self.caches.iter().map(|c| c.wire_stats()).collect());
        }
        self.servers
            .iter()
            .map(|s| wire_stats_at(s.addr()))
            .collect()
    }

    /// Replays the first [`Workload::verify_prefix`] fetches of stream 0
    /// sequentially over connection 0 and requires the server counters to
    /// be byte-identical to a reference: the same prefix through
    /// `DirectTransport` on an identically built and warmed cache, or, for
    /// the fleet, per node against `sim::cluster::oracle_replay`. Call it
    /// once, on a freshly built rig, before [`measure`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first failed fetch or diverging
    /// counter.
    pub fn verify_prefix(&mut self) -> Result<(), String> {
        let prefix = self.workload.verify_prefix();
        let stream = &self.streams[0];
        let mut fetcher = Fetcher::new(stream, 0, 1, 0, 0);
        let expected: Vec<WireStats> = if self.workload.is_fleet() {
            let config = VirtualClusterConfig {
                nodes: FLEET_NODES,
                node_capacity: CAPACITY,
                shards: SHARDS,
                group_size: GROUP_SIZE,
                successor_capacity: SUCCESSOR_CAPACITY,
            };
            let events = warm_up_tail(stream)
                .iter()
                .chain(&stream[..prefix.min(stream.len())])
                .copied();
            oracle_replay(&config, events, &[]).map_err(|e| format!("oracle replay: {e}"))?
        } else {
            let twin = [Arc::new(server_cache())];
            warm_up(&twin, stream);
            let twin = &twin[0];
            let mut reference = Fetcher::new(stream, 0, 1, 0, 0);
            let mut direct = DirectTransport::new(twin);
            for _ in 0..prefix {
                reference.fetch_one(&mut direct);
            }
            vec![twin.wire_stats()]
        };
        match self.clients.first_mut() {
            Some(client) => (0..prefix).for_each(|_| fetcher.fetch_one(client)),
            None => {
                let mut direct = DirectTransport::new(&self.caches[0]);
                (0..prefix).for_each(|_| fetcher.fetch_one(&mut direct));
            }
        }
        if fetcher.failed > 0 {
            return Err(format!(
                "{} of {prefix} verify-prefix fetches failed",
                fetcher.failed
            ));
        }
        let observed = self.wire_stats()?;
        if observed != expected {
            return Err(format!(
                "verify prefix diverged from its reference:\n  observed {observed:?}\n  expected {expected:?}"
            ));
        }
        Ok(())
    }

    /// Stops every server and waits for its threads.
    pub fn teardown(self) {
        drop(self.clients);
        for server in self.servers {
            server.stop();
        }
    }
}

/// One measurement window, reduced to the statistics a run reports: the
/// raw samples are dropped as soon as a window ends, so the memory the
/// harness holds does not grow with how fast the program ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    /// Fetches completed.
    pub fetches: u64,
    /// Fetches completed per second of wall clock. A closed loop divides
    /// by the window's measured length; an open loop by the measured span
    /// between its first and last completion (the delivered rate).
    pub fetch_per_s: f64,
    /// Process CPU time spent.
    pub cpu_ns: u64,
    /// Latency samples taken: in an open loop one per operation, from its
    /// due time; in a closed loop one per block of [`SAMPLE_EVERY`]
    /// back-to-back fetches.
    pub samples: u64,
    /// Median latency per fetch in µs (a burst's latency is the burst's;
    /// a closed-loop block's is divided by its [`SAMPLE_EVERY`] fetches).
    /// NaN in a window without samples.
    pub p50_us: f64,
    /// 90th-percentile latency, likewise.
    pub p90_us: f64,
    /// 99th-percentile latency, likewise.
    pub p99_us: f64,
}

impl Window {
    /// Fills in the sample count and the latency percentiles from the
    /// window's samples, sorting them in place; one sample covers
    /// `fetches_per_sample` fetches.
    pub fn summarise(&mut self, samples_ns: &mut [u64], fetches_per_sample: u64) {
        samples_ns.sort_unstable();
        let at = |q: f64| match samples_ns.is_empty() {
            true => f64::NAN,
            false => percentile(samples_ns, q) as f64 / fetches_per_sample as f64 / 1e3,
        };
        self.samples = samples_ns.len() as u64;
        self.p50_us = at(0.50);
        self.p90_us = at(0.90);
        self.p99_us = at(0.99);
    }
}

/// What the measured phase observed.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// The windows, in order.
    pub windows: Vec<Window>,
    /// Fetches sent.
    pub attempted: u64,
    /// Fetches failed.
    pub failed: u64,
    /// Ascending generator lags (open loop only).
    pub lag_ns: Vec<u64>,
    /// Open loop only: each connection's latencies in the order its
    /// operations were due. Operation `k` of connection `c` fetched
    /// stream position [`Workload::start_cursor`]`(c) + k·burst`, so a
    /// caller can tell which file each latency belongs to.
    pub per_connection_latency_ns: Vec<Vec<u64>>,
    /// Server-tier hits ÷ accesses over the phase, summed over nodes.
    pub hit_rate: f64,
    /// Correctness violations found after the phase.
    pub errors: Vec<String>,
}

fn sum(stats: &[WireStats], field: impl Fn(&WireStats) -> u64) -> u64 {
    stats.iter().map(field).sum()
}

/// Runs the measured phase: `windows` windows of `window_ns` each. With a
/// tracer, every timed call is also recorded as a span under `parent`.
pub fn measure(
    rig: &mut Rig,
    clock: MonoClock,
    window_ns: u64,
    windows: usize,
    tracer: Option<(&Tracer, u32)>,
) -> Measured {
    let mut out = Measured::default();
    let before = match rig.wire_stats() {
        Ok(stats) => stats,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    match rig.workload.period_ns() {
        None => closed_loop(rig, clock, window_ns, windows, tracer, &mut out),
        Some(period) => open_loop(rig, clock, window_ns, windows, period, tracer, &mut out),
    }
    match rig.wire_stats() {
        Ok(after) => check_counters(rig, &before, &after, &mut out),
        Err(e) => out.errors.push(e),
    }
    out
}

fn closed_loop(
    rig: &Rig,
    clock: MonoClock,
    window_ns: u64,
    windows: usize,
    tracer: Option<(&Tracer, u32)>,
    out: &mut Measured,
) {
    let mut transport = DirectTransport::new(&rig.caches[0]);
    let cursor = rig.workload.start_cursor(0);
    let mut fetcher = Fetcher::new(&rig.streams[0], 0, 1, cursor, cursor as u64);
    // One buffer, reused: a window's samples are reduced when it ends.
    let mut samples = Vec::with_capacity(1 << 18);
    for _ in 0..windows {
        let mut window = Window::default();
        samples.clear();
        let cpu_start = procstat::cpu_ns();
        let start = clock.now_ns();
        let mut block_start = start;
        let end = loop {
            for _ in 0..SAMPLE_EVERY {
                fetcher.fetch_one(&mut transport);
            }
            let now = clock.now_ns();
            samples.push(now - block_start);
            if let Some((tracer, parent)) = tracer {
                tracer.record(
                    "net.direct.fetch_group",
                    parent,
                    block_start,
                    now,
                    SAMPLE_EVERY,
                );
            }
            block_start = now;
            if now >= start + window_ns {
                break now;
            }
        };
        window.cpu_ns = procstat::cpu_ns() - cpu_start;
        window.fetches = samples.len() as u64 * SAMPLE_EVERY;
        window.fetch_per_s = window.fetches as f64 * 1e9 / (end - start) as f64;
        window.summarise(&mut samples, SAMPLE_EVERY);
        out.windows.push(window);
    }
    out.attempted = fetcher.attempted;
    out.failed = fetcher.failed;
}

fn open_loop(
    rig: &mut Rig,
    clock: MonoClock,
    window_ns: u64,
    windows: usize,
    period_ns: u64,
    tracer: Option<(&Tracer, u32)>,
    out: &mut Measured,
) {
    let workload = rig.workload;
    let burst = workload.burst();
    let span_name = match rig.workload {
        Workload::TcpBurst => "net.client.fetch_batch",
        _ => "net.client.fetch_group",
    };
    let connections = rig.clients.len() as u64;
    // Leave the generator threads time to start before anything is due.
    let origin_ns = clock.now_ns() + 20_000_000;
    let end_ns = origin_ns + windows as u64 * window_ns;
    let streams = &rig.streams;
    let mut cpu_marks = Vec::with_capacity(windows + 1);
    let per_connection: Vec<(u64, u64, Vec<OpSample>)> = thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                // Connection c is offset by c/connections of a period, so
                // arrivals interleave instead of colliding.
                let schedule = Schedule {
                    start_ns: origin_ns + conn as u64 * period_ns / connections,
                    period_ns,
                    window_ns,
                    end_ns,
                    origin_ns,
                };
                let cursor = workload.start_cursor(conn);
                let mut fetcher = Fetcher::new(&streams[conn], conn, burst, cursor, cursor as u64);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    run_open_loop(
                        &clock,
                        &schedule,
                        |_| fetcher.fetch_op(client),
                        |sample| samples.push(sample),
                    );
                    (fetcher.attempted, fetcher.failed, samples)
                })
            })
            .collect();
        for w in 0..=windows as u64 {
            clock.sleep_until(origin_ns + w * window_ns);
            cpu_marks.push(procstat::cpu_ns());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a generator thread panicked"))
            .collect()
    });
    out.windows = vec![Window::default(); windows];
    let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); windows];
    // First and last completion seen in each window.
    let mut span = vec![(u64::MAX, 0u64); windows];
    for (attempted, failed, samples) in per_connection {
        out.attempted += attempted;
        out.failed += failed;
        out.per_connection_latency_ns
            .push(samples.iter().map(|s| s.latency_ns).collect());
        for sample in samples {
            out.windows[sample.window].fetches += burst as u64;
            latencies[sample.window].push(sample.latency_ns);
            let (first, last) = &mut span[sample.window];
            *first = (*first).min(sample.done_ns);
            *last = (*last).max(sample.done_ns);
            out.lag_ns.push(sample.lag_ns);
            if let Some((tracer, parent)) = tracer {
                tracer.record(
                    span_name,
                    parent,
                    sample.woke_ns,
                    sample.done_ns,
                    burst as u64,
                );
            }
        }
    }
    for (w, window) in out.windows.iter_mut().enumerate() {
        let (first, last) = span[w];
        // n completions span n − 1 gaps.
        let gaps = window.fetches.saturating_sub(burst as u64);
        window.fetch_per_s = gaps as f64 * 1e9 / last.saturating_sub(first).max(1) as f64;
        window.cpu_ns = cpu_marks[w + 1] - cpu_marks[w];
        window.summarise(&mut latencies[w], 1);
    }
    out.lag_ns.sort_unstable();
}

/// The identities that must hold after a measured phase: every
/// acknowledged fetch was executed exactly once somewhere, hits and
/// misses add up, no reply came from a reply cache, no proxy fell back,
/// and every cache's internal invariants hold.
fn check_counters(rig: &Rig, before: &[WireStats], after: &[WireStats], out: &mut Measured) {
    let accesses = sum(after, |s| s.accesses) - sum(before, |s| s.accesses);
    let hits = sum(after, |s| s.hits) - sum(before, |s| s.hits);
    out.hit_rate = hits as f64 / accesses.max(1) as f64;
    let acknowledged = out.attempted - out.failed;
    // A failed fetch may or may not have executed; an acknowledged one did.
    if accesses < acknowledged || accesses > out.attempted {
        out.errors.push(format!(
            "server accesses grew by {accesses}, but {acknowledged} of {} fetches were acknowledged",
            out.attempted
        ));
    }
    for (node, stats) in after.iter().enumerate() {
        if stats.hits + stats.misses != stats.accesses {
            out.errors.push(format!(
                "server {node}: hits + misses != accesses in {stats:?}"
            ));
        }
        if stats.reply_cache_hits != 0 {
            out.errors.push(format!(
                "server {node}: {} replies came from a reply cache; request ids must never repeat",
                stats.reply_cache_hits
            ));
        }
    }
    for node in &rig.nodes {
        let stats = node.stats();
        if stats.proxy_failures != 0 {
            out.errors.push(format!(
                "{:?}: {} proxy failures",
                node.id(),
                stats.proxy_failures
            ));
        }
    }
    for (i, cache) in rig.caches.iter().enumerate() {
        if let Err(violation) = cache.check_invariants() {
            out.errors.push(format!("cache {i}: {violation}"));
        }
    }
}
