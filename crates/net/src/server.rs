//! An event-driven TCP group-fetch server over any [`ServeBackend`].
//!
//! [`BoundServer::bind`] takes an address (use port 0 for an ephemeral
//! loopback port) and a shared [`ShardedAggregatingCache`];
//! [`BoundServer::bind_backend`] accepts any [`ServeBackend`] (a cluster
//! node, for instance). [`BoundServer::run`] then serves the
//! [wire protocol](crate::wire) until asked to stop.
//!
//! # Architecture
//!
//! One **readiness loop** owns every socket. The listener and all
//! connections are nonblocking; each pass accepts new connections (up to
//! [`DEFAULT_MAX_CONNS`] or the [`BoundServer::with_max_conns`]
//! override), collects finished work, flushes partially-written replies,
//! and takes new frames. Each connection reads into its own buffer (a few
//! KiB, allocated by its first read), so one `read` brings in every frame
//! of a pipelined burst; complete frames are dispatched from the buffer
//! whether or not the socket is readable, and the socket is read only
//! when no complete frame is left. The replies to what a pass took are
//! released and flushed in that same pass — a burst's replies leave in
//! one `write`. Connection count is not bounded by thread count, and an
//! idle connection costs its buffers, not a stack.
//!
//! A pass that makes no progress **blocks in `poll(2)`** (the private
//! `poller` module) on exactly what could change that: the waker; the
//! listener, while below the connection cap; and per connection, input
//! iff the loop is willing to read it (see *Backpressure*) and output iff
//! reply bytes are queued. A connection with neither is left out, so a
//! backpressured peer that hangs up cannot spin the loop. Whatever the
//! kernel reports — hang-up and error bits included — marks the
//! connection readable, and the next `read` finds out which it was; the
//! mark is cleared when a `read` would block or comes back short. Workers
//! wake the loop through the waker after queueing a completion, as does
//! [`ServerHandle::stop`]. Nothing else needs the loop's attention
//! between events except a [`BoundServer::shutdown_flag`] stored from
//! outside and the drain deadline, which it notices by waking every
//! 50 ms regardless.
//!
//! **A fetch runs to completion on the loop** when it cannot block: the
//! backend's [`ServeBackend::serve_inline`] serves it (a plain cache
//! always does; a cluster node does for groups it owns), and its request
//! id is not executing elsewhere. Everything that may block goes to a
//! **bounded worker pool** (a `Mutex<VecDeque>` + `Condvar` job queue;
//! [`DEFAULT_WORKERS`] threads by default): fetches a backend declines —
//! a cluster proxy waits on a peer — and retries of an id still
//! executing, which park there; `Stats` and `ClusterUpdate` too, since
//! they read or rewrite backend state a worker may hold. Workers finish
//! out of order, so every inbound frame gets a per-connection sequence
//! number and completions sit in a small reorder buffer until they can be
//! released *in request order* — the pipelined client matches replies to
//! requests positionally, and that contract survives the worker pool.
//!
//! # Backpressure
//!
//! Per connection, two bounds gate *taking frames* (never writing): at
//! most [`DEFAULT_MAX_PENDING`] requests may be in flight, and at most
//! [`DEFAULT_MAX_OUTBOUND_BYTES`] reply bytes may sit unwritten. A slow
//! reader's connection simply stops being read — its bytes stay in kernel
//! buffers and the peer's send window closes — while every other
//! connection proceeds untouched. Queued replies are always released and
//! flushed, so total buffered output per connection is bounded by the
//! outbound cap plus the replies to the (capped) in-flight requests;
//! buffered input, by the read buffer — its few KiB, or one frame larger
//! than that while it is assembled.
//!
//! # Exactly-once fetches
//!
//! All connections share one [`ExactlyOnce`] — the process's only
//! exactly-once mechanism, the same for every backend. The first arrival
//! of a request id claims it and executes with no lock held; a retry
//! racing it, possibly on a different pooled connection or a different
//! worker, parks until the claim completes and receives the remembered
//! reply, never double-executing. The loop claims with
//! [`ExactlyOnce::try_serve`], which never parks: it hands a retry of a
//! claimed id to the pool instead. Fetches of different ids never wait on
//! each other here, so a backend may block on a *peer's* server (a
//! cluster node proxying) without two servers deadlocking.
//!
//! # Shutdown
//!
//! Stopping is cooperative: a client sends `Shutdown` (or the owner calls
//! [`ServerHandle::stop`], or sets the [`BoundServer::shutdown_flag`]).
//! `stop` and `Shutdown` take effect at once; a bare store to the flag is
//! seen within one 50 ms tick.
//! The loop then stops accepting and stops reading, drains in-flight jobs
//! and flushes every queued reply (bounded by a two-second drain
//! deadline), closes the job queue so the workers exit, and returns. The
//! `ShutdownAck` is sequenced like any reply, so it is delivered after
//! every reply the same connection pipelined ahead of it.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use fgcache_core::ShardedAggregatingCache;
use fgcache_types::FileId;

use crate::dedup::{ExactlyOnce, ReplyCache, DEFAULT_REPLY_CACHE_CAPACITY};
use crate::poller::{self, PollFd, Waker};
use crate::transport::{FileReply, GroupReply};
use crate::wire::{decode_fetch_into, FetchFrame, FrameReader, Message, WireStats};

/// Default hard cap on concurrently-held connections; accepts beyond it
/// are deferred to the kernel backlog until a slot frees.
pub const DEFAULT_MAX_CONNS: usize = 1024;

/// Default worker-pool size: the threads that run what may block, off
/// the I/O loop (see the [module docs](self)).
pub const DEFAULT_WORKERS: usize = 4;

/// Default per-connection bound on requests in flight (dispatched but not
/// yet released to the write buffer). Reading stops at the bound.
pub const DEFAULT_MAX_PENDING: usize = 128;

/// Default per-connection bound on unwritten reply bytes. Reading stops
/// at the bound; see the [module docs](self) for the true total bound.
pub const DEFAULT_MAX_OUTBOUND_BYTES: usize = 256 * 1024;

/// How long a blocked loop waits with nothing ready before it looks up
/// anyway. Sockets, completions and `stop()` all wake it; the tick exists
/// for the two things that cannot — a shutdown flag stored from outside
/// and the drain deadline.
const TICK_MS: i32 = 50;

/// Upper bound on the shutdown drain (in-flight jobs + queued replies).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// Cap on pooled scratch buffers retained for reuse.
const POOL_CAP: usize = 256;

/// Compact the write buffer once this many flushed bytes accumulate at
/// its front.
const COMPACT_THRESHOLD: usize = 32 * 1024;

/// What a [`BoundServer`] serves fetches from: a plain cache or anything
/// cache-shaped (a cluster node that routes to peers, say). The server
/// owns framing, connection handling, retry deduplication and shutdown;
/// the backend owns what a fetch *means*.
pub trait ServeBackend: Send + Sync {
    /// Serves one group fetch, returning per-file provenance.
    fn serve_group(&self, request_id: u64, files: &[FileId]) -> GroupReply;

    /// Serves one *owned* group fetch — the depth-bounded cluster proxy
    /// frame, which the backend must answer locally and never forward
    /// onward. The default treats it like any other fetch, which is
    /// correct for backends with no notion of ownership.
    fn serve_owned(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        self.serve_group(request_id, files)
    }

    /// Serves a fetch (an owned one if `owned`) on the calling thread —
    /// the server's readiness loop — only if doing so cannot block: no
    /// peer round trip, no wait on another thread. `None` sends the fetch
    /// to the worker pool instead, and is the default, because a backend
    /// the server knows nothing about may block.
    fn serve_inline(&self, request_id: u64, files: &[FileId], owned: bool) -> Option<GroupReply> {
        let _ = (request_id, files, owned);
        None
    }

    /// This backend's cache counters, for `StatsReply` (the server adds
    /// its own reply-cache hits on top).
    fn wire_stats(&self) -> WireStats;

    /// Applies a pushed membership view, returning the epoch the backend
    /// now holds (its current one if `epoch` was stale).
    ///
    /// # Errors
    ///
    /// The default rejects the update: a plain cache has no membership.
    fn apply_cluster_update(&self, epoch: u64, members: &[(u64, String)]) -> Result<u64, String> {
        let _ = (epoch, members);
        Err("this server is not a cluster node".to_string())
    }
}

impl ServeBackend for ShardedAggregatingCache {
    /// The one place a group fetch executes against a local cache: the
    /// in-process and simulated transports and a cluster node's local
    /// serve all call this, so they cannot drift from what a server runs.
    /// (`#[inline]` because those callers sit in other codegen units and
    /// the in-process loop is ~120 ns per fetch: a real call shows.)
    #[inline]
    fn serve_group(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        let files: Vec<FileReply> = files
            .iter()
            .map(|&file| FileReply {
                file,
                outcome: self.handle_access(file),
            })
            .collect();
        GroupReply { request_id, files }
    }

    /// Always: even a miss is bounded CPU work under one shard lock.
    fn serve_inline(&self, request_id: u64, files: &[FileId], _owned: bool) -> Option<GroupReply> {
        Some(self.serve_group(request_id, files))
    }

    fn wire_stats(&self) -> WireStats {
        let stats = self.stats();
        let group = self.group_stats();
        WireStats {
            accesses: stats.accesses,
            hits: stats.hits,
            misses: stats.misses,
            speculative_inserts: stats.speculative_inserts,
            speculative_hits: stats.speculative_hits,
            evictions: stats.evictions,
            demand_fetches: group.demand_fetches,
            files_transferred: group.files_transferred,
            members_already_resident: group.members_already_resident,
            reply_cache_hits: 0,
        }
    }
}

/// A TCP group-fetch server bound to an address but not yet running.
pub struct BoundServer {
    listener: TcpListener,
    backend: Arc<dyn ServeBackend>,
    shutdown: Arc<AtomicBool>,
    shared: Arc<Shared>,
    dedup_capacity: usize,
    max_conns: usize,
    workers: usize,
    max_pending: usize,
    max_outbound: usize,
}

impl std::fmt::Debug for BoundServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundServer")
            .field("addr", &self.local_addr())
            .field("dedup_capacity", &self.dedup_capacity)
            .field("max_conns", &self.max_conns)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl BoundServer {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port), serving fetches from `cache`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, cache: Arc<ShardedAggregatingCache>) -> std::io::Result<Self> {
        Self::bind_backend(addr, cache)
    }

    /// Binds to `addr`, serving fetches from an arbitrary
    /// [`ServeBackend`] (e.g. a cluster node).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (or the failure to create the loop's
    /// wake-up socket pair).
    pub fn bind_backend(
        addr: &str,
        backend: Arc<impl ServeBackend + 'static>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(BoundServer {
            listener,
            backend,
            shutdown: Arc::new(AtomicBool::new(false)),
            shared: Arc::new(Shared::new()?),
            dedup_capacity: DEFAULT_REPLY_CACHE_CAPACITY,
            max_conns: DEFAULT_MAX_CONNS,
            workers: DEFAULT_WORKERS,
            max_pending: DEFAULT_MAX_PENDING,
            max_outbound: DEFAULT_MAX_OUTBOUND_BYTES,
        })
    }

    /// Overrides the reply-cache window (see
    /// [`ReplyCache`]); 0 disables retry deduplication.
    #[must_use]
    pub fn with_dedup_capacity(mut self, capacity: usize) -> Self {
        self.dedup_capacity = capacity;
        self
    }

    /// Overrides the connection cap (clamped to at least 1). Accepts
    /// beyond the cap wait in the kernel backlog until a slot frees.
    #[must_use]
    pub fn with_max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns.max(1);
        self
    }

    /// Overrides the worker-pool size (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the per-connection backpressure bounds (each clamped to
    /// at least 1): requests in flight, and unwritten reply bytes.
    #[must_use]
    pub fn with_queue_limits(mut self, max_pending: usize, max_outbound_bytes: usize) -> Self {
        self.max_pending = max_pending.max(1);
        self.max_outbound = max_outbound_bytes.max(1);
        self
    }

    /// The bound address, as a `host:port` string clients can connect to.
    pub fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_string())
    }

    /// The shared shutdown flag (for embedding the server under an
    /// external signal handler). A store to it is noticed within one
    /// 50 ms tick; [`ServerHandle::stop`] does not wait for the tick.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Runs the readiness loop on the calling thread until shut down,
    /// with the worker pool on scoped threads beside it.
    pub fn run(self) {
        let BoundServer {
            listener,
            backend,
            shutdown,
            shared,
            dedup_capacity,
            max_conns,
            workers,
            max_pending,
            max_outbound,
        } = self;
        if listener.set_nonblocking(true).is_err() {
            return; // cannot serve readiness-style without it
        }
        let dedup = ExactlyOnce::new(ReplyCache::new(dedup_capacity));
        let backend = &*backend;
        let shutdown = &*shutdown;
        let dedup = &dedup;
        let shared = &*shared;
        thread::scope(|scope| {
            for _ in 0..workers.max(1) {
                scope.spawn(move || worker_loop(shared, backend, dedup));
            }
            let mut event_loop = EventLoop {
                listener,
                slots: Vec::new(),
                free: Vec::new(),
                live: 0,
                accept_pending: true,
                accept_failed: false,
                fds: Vec::new(),
                polled: Vec::new(),
                max_conns: max_conns.max(1),
                dispatch: Dispatcher {
                    shared,
                    backend,
                    dedup,
                    shutdown,
                    files: Vec::new(),
                    max_pending: max_pending.max(1),
                    max_outbound: max_outbound.max(1),
                },
            };
            event_loop.run();
            // Unblock the workers so the scope can join them. Jobs still
            // queued (only possible past the drain deadline) are executed
            // and their completions dropped.
            shared.close();
        });
    }

    /// Runs the server on a background thread, returning a handle that
    /// can stop it.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let shutdown = Arc::clone(&self.shutdown);
        let shared = Arc::clone(&self.shared);
        let join = thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shutdown,
            shared,
            join,
        }
    }
}

/// A running server on a background thread (from [`BoundServer::spawn`]).
pub struct ServerHandle {
    addr: String,
    shutdown: Arc<AtomicBool>,
    shared: Arc<Shared>,
    join: thread::JoinHandle<()>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The server's `host:port` address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops the server: sets the flag, wakes the loop, waits for it to
    /// drain in-flight replies and for the workers to exit.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::Release);
        self.shared.waker.wake();
        self.join.join().expect("server thread panicked");
    }

    /// A view of the loop's counters that outlives [`stop`](Self::stop).
    #[doc(hidden)]
    pub fn loop_counters(&self) -> LoopCounters {
        LoopCounters(Arc::clone(&self.shared))
    }
}

/// Test hook: what the readiness loop has done, in units that do not
/// depend on the host's speed.
#[doc(hidden)]
#[derive(Clone)]
pub struct LoopCounters(Arc<Shared>);

impl LoopCounters {
    /// Passes the loop has made over its connection table.
    pub fn passes(&self) -> u64 {
        self.0.passes.load(Ordering::Relaxed)
    }

    /// Times the blocked loop woke with nothing ready: one per idle tick.
    pub fn poll_timeouts(&self) -> u64 {
        self.0.poll_timeouts.load(Ordering::Relaxed)
    }
}

/// One unit of backend work, tagged with enough to route its completion:
/// connection slot, that slot's generation (stale completions for a
/// reused slot are discarded), and the per-connection sequence number
/// that fixes the reply's position in the outbound order.
struct Job {
    slot: usize,
    generation: u64,
    seq: u64,
    kind: JobKind,
}

enum JobKind {
    Fetch {
        request_id: u64,
        files: Vec<FileId>,
        owned: bool,
    },
    Stats {
        request_id: u64,
    },
    ClusterUpdate {
        request_id: u64,
        epoch: u64,
        members: Vec<(u64, String)>,
    },
}

/// A finished job: the encoded reply frame, routed by slot + generation.
struct Done {
    slot: usize,
    generation: u64,
    seq: u64,
    frame: Vec<u8>,
}

struct JobQueue {
    queue: VecDeque<Job>,
    closed: bool,
}

/// State shared between the readiness loop, the worker pool and the
/// server's handle: the job queue, the completion queue and the waker
/// that announces it, scratch-buffer pools that keep the per-frame steady
/// state allocation-free, and two counters of what the loop has done.
struct Shared {
    jobs: Mutex<JobQueue>,
    jobs_ready: Condvar,
    done: Mutex<Vec<Done>>,
    waker: Waker,
    frame_bufs: Mutex<Vec<Vec<u8>>>,
    file_bufs: Mutex<Vec<Vec<FileId>>>,
    /// Passes the loop has made over the connection table.
    passes: AtomicU64,
    /// Waits that ended with nothing ready (the tick).
    poll_timeouts: AtomicU64,
}

impl Shared {
    fn new() -> std::io::Result<Self> {
        Ok(Shared {
            jobs: Mutex::new(JobQueue {
                queue: VecDeque::new(),
                closed: false,
            }),
            jobs_ready: Condvar::new(),
            done: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            frame_bufs: Mutex::new(Vec::new()),
            file_bufs: Mutex::new(Vec::new()),
            passes: AtomicU64::new(0),
            poll_timeouts: AtomicU64::new(0),
        })
    }

    fn push_job(&self, job: Job) {
        self.lock_jobs().queue.push_back(job);
        self.jobs_ready.notify_one();
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// empty (remaining jobs are still drained after close).
    fn next_job(&self) -> Option<Job> {
        let mut guard = self.lock_jobs();
        loop {
            if let Some(job) = guard.queue.pop_front() {
                return Some(job);
            }
            if guard.closed {
                return None;
            }
            guard = self
                .jobs_ready
                .wait(guard)
                .expect("a worker panicked while holding the job queue");
        }
    }

    fn close(&self) {
        self.lock_jobs().closed = true;
        self.jobs_ready.notify_all();
    }

    fn lock_jobs(&self) -> MutexGuard<'_, JobQueue> {
        self.jobs
            .lock()
            .expect("a worker panicked while holding the job queue")
    }

    /// Queues a completion, then wakes the loop to collect it.
    fn push_done(&self, done: Done) {
        self.done
            .lock()
            .expect("the server loop panicked while holding the completion queue")
            .push(done);
        self.waker.wake();
    }

    /// Swaps the completion queue into `into` (reusing its storage).
    fn drain_done(&self, into: &mut Vec<Done>) {
        into.clear();
        let mut guard = self
            .done
            .lock()
            .expect("a worker panicked while holding the completion queue");
        std::mem::swap(&mut *guard, into);
    }

    fn take_frame_buf(&self) -> Vec<u8> {
        self.frame_bufs
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    fn recycle_frame_buf(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut pool = self.frame_bufs.lock().expect("scratch pool poisoned");
        if pool.len() < POOL_CAP {
            pool.push(buf);
        }
    }

    fn take_file_buf(&self) -> Vec<FileId> {
        self.file_bufs
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    fn recycle_file_buf(&self, mut buf: Vec<FileId>) {
        buf.clear();
        let mut pool = self.file_bufs.lock().expect("scratch pool poisoned");
        if pool.len() < POOL_CAP {
            pool.push(buf);
        }
    }
}

/// One worker: pops jobs, executes them against the backend (fetches
/// exactly-once per request id, through `dedup`), encodes the reply into
/// a pooled buffer, and posts the completion (which wakes the loop).
fn worker_loop(shared: &Shared, backend: &dyn ServeBackend, dedup: &ExactlyOnce) {
    while let Some(job) = shared.next_job() {
        let reply = match job.kind {
            JobKind::Fetch {
                request_id,
                files,
                owned,
            } => {
                // `owned` selects the depth-bounded cluster proxy path.
                let reply = dedup.serve(request_id, || {
                    if owned {
                        backend.serve_owned(request_id, &files)
                    } else {
                        backend.serve_group(request_id, &files)
                    }
                });
                shared.recycle_file_buf(files);
                Message::FetchReply {
                    request_id: reply.request_id,
                    files: reply.files,
                }
            }
            JobKind::Stats { request_id } => {
                let mut stats = backend.wire_stats();
                stats.reply_cache_hits += dedup.hits();
                Message::StatsReply { request_id, stats }
            }
            JobKind::ClusterUpdate {
                request_id,
                epoch,
                members,
            } => match backend.apply_cluster_update(epoch, &members) {
                Ok(held) => Message::ClusterUpdateAck {
                    request_id,
                    epoch: held,
                },
                Err(reason) => Message::Error {
                    request_id,
                    message: reason,
                },
            },
        };
        let mut frame = shared.take_frame_buf();
        reply.encode_into(&mut frame);
        shared.push_done(Done {
            slot: job.slot,
            generation: job.generation,
            seq: job.seq,
            frame,
        });
    }
}

/// Per-connection state owned by the readiness loop.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet dispatched: whole frames of a burst, and
    /// the head of one split across reads (down to one byte each).
    inbound: FrameReader,
    /// Sequence number assigned to the next inbound frame.
    next_seq: u64,
    /// Sequence number of the next reply to release into `outbound`.
    next_release: u64,
    /// Frames dispatched (or completed inline) but not yet released.
    pending: usize,
    /// Out-of-order completions waiting for their turn, `(seq, frame)`.
    completed: Vec<(u64, Vec<u8>)>,
    /// Released-but-unwritten reply bytes; `write_pos` marks progress.
    outbound: Vec<u8>,
    write_pos: usize,
    /// The socket may have bytes (or an EOF or error) to read: set when
    /// `poll` reports anything for it, cleared when a `read` would block
    /// or comes back short.
    readable: bool,
    read_eof: bool,
    close_after_flush: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            inbound: FrameReader::default(),
            next_seq: 0,
            next_release: 0,
            pending: 0,
            completed: Vec::new(),
            outbound: Vec::new(),
            write_pos: 0,
            // A new client usually sends at once: try before polling.
            readable: true,
            read_eof: false,
            close_after_flush: false,
            dead: false,
        }
    }

    /// Unwritten reply bytes currently queued.
    fn backlog(&self) -> usize {
        self.outbound.len() - self.write_pos
    }
}

/// Whether the loop may take more frames from a connection: both
/// backpressure bounds must have room. Taking — never writing — is what
/// stops, so a slow reader throttles itself without unbounded buffering.
fn may_read(pending: usize, backlog_bytes: usize, max_pending: usize, max_outbound: usize) -> bool {
    pending < max_pending && backlog_bytes < max_outbound
}

/// A connection slot; `generation` increments on reuse so completions
/// for a previous occupant are recognised and dropped.
struct Slot {
    generation: u64,
    conn: Option<Conn>,
}

struct EventLoop<'a> {
    listener: TcpListener,
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
    /// The listener may have a connection waiting: set from its `revents`,
    /// cleared when `accept` would block.
    accept_pending: bool,
    /// `accept` failed for a reason waiting on the listener cannot cure
    /// (e.g. `EMFILE`): it sits out the next wait, so the failure costs a
    /// tick at most instead of a busy loop.
    accept_failed: bool,
    /// The wait set (reused across waits) and, for its connection
    /// entries, their slots.
    fds: Vec<PollFd>,
    polled: Vec<usize>,
    max_conns: usize,
    dispatch: Dispatcher<'a>,
}

/// What serving a connection's frames needs besides the connection.
struct Dispatcher<'a> {
    shared: &'a Shared,
    backend: &'a dyn ServeBackend,
    dedup: &'a ExactlyOnce,
    shutdown: &'a AtomicBool,
    /// The file list of the fetch being dispatched. It stays here when the
    /// fetch runs on the loop; a fetch handed to the pool takes it along
    /// and a pooled buffer replaces it.
    files: Vec<FileId>,
    max_pending: usize,
    max_outbound: usize,
}

impl EventLoop<'_> {
    fn run(&mut self) {
        let (shared, shutdown) = (self.dispatch.shared, self.dispatch.shutdown);
        let mut done_batch: Vec<Done> = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            shared.passes.fetch_add(1, Ordering::Relaxed);
            let draining = shutdown.load(Ordering::Acquire);
            if draining && drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + DRAIN_TIMEOUT);
            }
            let mut progress = false;
            if !draining && self.accept_pending {
                progress |= self.accept_ready();
            }
            progress |= self.route_completions(shared, &mut done_batch);
            progress |= self.pump_connections(draining);
            self.reap_dead(shared);
            if draining
                && (self.fully_drained() || drain_deadline.is_some_and(|d| Instant::now() >= d))
            {
                break;
            }
            if !progress {
                self.wait_for_events(draining, shared);
            }
        }
    }

    /// Blocks until something the loop could act on happens, or a tick
    /// passes, and records what the kernel reported.
    fn wait_for_events(&mut self, draining: bool, shared: &Shared) {
        self.fds.clear();
        self.polled.clear();
        self.fds.push(shared.waker.poll_fd());
        let listening = !draining && !self.accept_failed && self.live < self.max_conns;
        if listening {
            self.fds.push(PollFd::new(&self.listener, poller::READ));
        }
        for (idx, slot) in self.slots.iter().enumerate() {
            let Some(conn) = &slot.conn else { continue };
            let mut events = 0;
            if !draining
                && !conn.read_eof
                && !conn.close_after_flush
                && self.dispatch.may_read(conn)
            {
                events |= poller::READ;
            }
            if conn.backlog() > 0 {
                events |= poller::WRITE;
            }
            // No interest, no entry: `poll` reports hang-ups whether asked
            // or not, and this connection could do nothing about one.
            if events != 0 {
                self.fds.push(PollFd::new(&conn.stream, events));
                self.polled.push(idx);
            }
        }

        if poller::wait(&mut self.fds, TICK_MS) == 0 {
            shared.poll_timeouts.fetch_add(1, Ordering::Relaxed);
        }

        let mut entries = self.fds.iter();
        if entries.next().is_some_and(PollFd::ready) {
            shared.waker.reset();
        }
        if listening {
            self.accept_pending = entries.next().is_some_and(PollFd::ready);
        } else if self.accept_failed {
            self.accept_failed = false;
            self.accept_pending = true;
        }
        for (entry, &idx) in entries.zip(&self.polled) {
            if entry.ready() {
                if let Some(conn) = self.slots[idx].conn.as_mut() {
                    conn.readable = true;
                }
            }
        }
    }

    /// Accepts until the listener would block or the cap is reached.
    /// At the cap, accepting simply stops: pending connections wait in
    /// the kernel backlog (deferred, not refused) until a slot frees.
    fn accept_ready(&mut self) -> bool {
        let mut progress = false;
        while self.live < self.max_conns {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // cannot serve it; drop cleanly
                    }
                    let _ = stream.set_nodelay(true);
                    let conn = Conn::new(stream);
                    match self.free.pop() {
                        Some(slot) => self.slots[slot].conn = Some(conn),
                        None => self.slots.push(Slot {
                            generation: 0,
                            conn: Some(conn),
                        }),
                    }
                    self.live += 1;
                    progress = true;
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => {
                    self.accept_pending = false;
                    break;
                }
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.accept_pending = false;
                    self.accept_failed = true;
                    break;
                }
            }
        }
        progress
    }

    /// Drains worker completions into their connections' reorder
    /// buffers, dropping any whose slot generation no longer matches.
    fn route_completions(&mut self, shared: &Shared, batch: &mut Vec<Done>) -> bool {
        shared.drain_done(batch);
        let progress = !batch.is_empty();
        for done in batch.drain(..) {
            let slot = &mut self.slots[done.slot];
            match slot.conn.as_mut() {
                Some(conn) if slot.generation == done.generation && !conn.dead => {
                    conn.completed.push((done.seq, done.frame));
                }
                _ => shared.recycle_frame_buf(done.frame),
            }
        }
        progress
    }

    /// Per connection: release in-order completions and flush them, take
    /// new frames (unless draining or backpressured), and if any were
    /// taken, release and flush again — so the replies to a burst leave
    /// in the pass that read it, in one `write`.
    fn pump_connections(&mut self, draining: bool) -> bool {
        let shared = self.dispatch.shared;
        let mut progress = false;
        for (slot, Slot { generation, conn }) in self.slots.iter_mut().enumerate() {
            let Some(conn) = conn.as_mut() else { continue };
            progress |= release_ready(conn, shared);
            progress |= write_ready(conn);
            let took = !draining && self.dispatch.take_input(conn, slot, *generation);
            if took {
                release_ready(conn, shared);
                write_ready(conn);
            }
            // A peer that closed its write side is parted with once every
            // reply it is owed has been flushed and nothing it sent is
            // left to take.
            if conn.read_eof && !took && conn.pending == 0 && conn.backlog() == 0 {
                conn.dead = true;
            }
            progress |= took;
        }
        progress
    }

    fn reap_dead(&mut self, shared: &Shared) {
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let Some(conn) = slot.conn.as_ref() else {
                continue;
            };
            if !conn.dead {
                continue;
            }
            let Some(conn) = slot.conn.take() else {
                continue;
            };
            for (_, frame) in conn.completed {
                shared.recycle_frame_buf(frame);
            }
            slot.generation += 1;
            self.free.push(idx);
            self.live -= 1;
        }
    }

    /// Everything owed has been delivered: no in-flight requests and no
    /// unwritten bytes on any live connection.
    fn fully_drained(&self) -> bool {
        self.slots.iter().all(|slot| match &slot.conn {
            Some(conn) => conn.pending == 0 && conn.backlog() == 0,
            None => true,
        })
    }
}

/// Appends completions to the write buffer strictly in sequence order,
/// so replies leave in the order their requests arrived even when
/// workers finish out of order.
fn release_ready(conn: &mut Conn, shared: &Shared) -> bool {
    let mut progress = false;
    loop {
        let next = conn.next_release;
        let Some(idx) = conn.completed.iter().position(|&(seq, _)| seq == next) else {
            break;
        };
        let (_, frame) = conn.completed.swap_remove(idx);
        conn.outbound.extend_from_slice(&frame);
        shared.recycle_frame_buf(frame);
        conn.next_release += 1;
        conn.pending -= 1;
        progress = true;
    }
    progress
}

/// Writes as much of the outbound buffer as the socket will take,
/// resuming mid-frame across calls. Compacts the buffer when fully
/// flushed (or once enough dead bytes accumulate), so capacity is reused
/// rather than regrown.
fn write_ready(conn: &mut Conn) -> bool {
    let mut progress = false;
    loop {
        if conn.backlog() == 0 {
            conn.outbound.clear();
            conn.write_pos = 0;
            if conn.close_after_flush && conn.pending == 0 {
                conn.dead = true;
            }
            break;
        }
        match conn.stream.write(&conn.outbound[conn.write_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.write_pos += n;
                progress = true;
            }
            Err(err) if err.kind() == ErrorKind::WouldBlock => break,
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.write_pos >= COMPACT_THRESHOLD && conn.backlog() > 0 {
        conn.outbound.drain(..conn.write_pos);
        conn.write_pos = 0;
    }
    progress
}

/// An inbound frame, decoded.
enum Request {
    /// A fetch; its files are in [`Dispatcher::files`].
    Fetch(FetchFrame),
    /// Anything else (the cold, allocating decode).
    Other(Message),
}

impl Dispatcher<'_> {
    /// Whether the loop may take more frames from `conn` (see
    /// [`may_read`]).
    fn may_read(&self, conn: &Conn) -> bool {
        may_read(
            conn.pending,
            conn.backlog(),
            self.max_pending,
            self.max_outbound,
        )
    }

    /// Dispatches every complete buffered frame while both bounds allow,
    /// reading from the socket only when none is left — so the frames of
    /// a burst that arrived together cost one `read`. A read that leaves
    /// the buffer room drained the socket, so it clears `readable` as a
    /// read that would block does. Stops with `readable` still set when a
    /// bound, not the socket, ended it.
    fn take_input(&mut self, conn: &mut Conn, slot: usize, generation: u64) -> bool {
        let mut progress = false;
        while !conn.dead && !conn.close_after_flush && self.may_read(conn) {
            let request = match conn.inbound.next_frame() {
                Ok(Some(payload)) => decode_request(payload, &mut self.files),
                Ok(None) if conn.readable && !conn.read_eof => {
                    match conn.inbound.read_from(&mut conn.stream) {
                        Ok(0) => conn.read_eof = true,
                        Ok(_) => {
                            progress = true;
                            conn.readable = !conn.inbound.has_room();
                            continue;
                        }
                        Err(err) if err.kind() == ErrorKind::WouldBlock => conn.readable = false,
                        Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => conn.dead = true,
                    }
                    break;
                }
                Ok(None) => break,
                // A length prefix no frame can carry: unframeable garbage.
                Err(_) => None,
            };
            let Some(request) = request else {
                // A desynced stream cannot be re-framed; hang up.
                conn.dead = true;
                break;
            };
            self.dispatch(conn, slot, generation, request);
            progress = true;
        }
        progress
    }

    /// Routes one frame, consuming one sequence number so replies
    /// release in order. A fetch runs to completion here when its id is
    /// not executing elsewhere and the backend can serve it without
    /// blocking; the rest — proxies, declined fetches, stats and cluster
    /// updates — become worker jobs. Shutdown and unexpected messages are
    /// answered here.
    fn dispatch(&mut self, conn: &mut Conn, slot: usize, generation: u64, request: Request) {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.pending += 1;
        let kind = match request {
            Request::Fetch(FetchFrame { request_id, owned }) => {
                let (backend, files) = (self.backend, &self.files);
                let inline = self.dedup.try_serve(request_id, || {
                    backend.serve_inline(request_id, files, owned)
                });
                if let Some(reply) = inline {
                    let reply = Message::FetchReply {
                        request_id: reply.request_id,
                        files: reply.files,
                    };
                    return self.complete(conn, seq, &reply);
                }
                let files = std::mem::replace(&mut self.files, self.shared.take_file_buf());
                JobKind::Fetch {
                    request_id,
                    files,
                    owned,
                }
            }
            Request::Other(Message::StatsRequest { request_id }) => JobKind::Stats { request_id },
            Request::Other(Message::ClusterUpdate {
                request_id,
                epoch,
                members,
            }) => JobKind::ClusterUpdate {
                request_id,
                epoch,
                members,
            },
            Request::Other(Message::Shutdown { request_id }) => {
                conn.close_after_flush = true;
                self.shutdown.store(true, Ordering::Release);
                return self.complete(conn, seq, &Message::ShutdownAck { request_id });
            }
            Request::Other(other) => {
                let reply = Message::Error {
                    request_id: other.request_id(),
                    message: format!("unexpected client message: {other:?}"),
                };
                return self.complete(conn, seq, &reply);
            }
        };
        self.shared.push_job(Job {
            slot,
            generation,
            seq,
            kind,
        });
    }

    /// Queues a reply completed on the loop: straight onto the write
    /// buffer when every earlier reply has been released (no worker holds
    /// one), into the reorder buffer otherwise.
    fn complete(&self, conn: &mut Conn, seq: u64, reply: &Message) {
        if seq == conn.next_release {
            reply.append_to(&mut conn.outbound);
            conn.next_release += 1;
            conn.pending -= 1;
        } else {
            let mut frame = self.shared.take_frame_buf();
            reply.encode_into(&mut frame);
            conn.completed.push((seq, frame));
        }
    }
}

/// Decodes one frame payload, `None` if it does not decode. Fetch frames
/// take the allocation-free path into the reused `files`; everything else
/// takes the full decode.
fn decode_request(payload: &[u8], files: &mut Vec<FileId>) -> Option<Request> {
    match decode_fetch_into(payload, files) {
        Ok(Some(header)) => Some(Request::Fetch(header)),
        Ok(None) => Message::decode(payload).ok().map(Request::Other),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn may_read_gates_on_both_bounds() {
        // Room on both bounds: read.
        assert!(may_read(0, 0, 8, 1024));
        assert!(may_read(7, 1023, 8, 1024));
        // Pending at the cap: stop, regardless of outbound room.
        assert!(!may_read(8, 0, 8, 1024));
        // Outbound at the cap: stop, regardless of pending room.
        assert!(!may_read(0, 1024, 8, 1024));
        // Both saturated.
        assert!(!may_read(8, 1024, 8, 1024));
    }

    #[test]
    fn builder_knobs_clamp_zero_to_one() {
        let cache = Arc::new(
            fgcache_core::ShardedAggregatingCacheBuilder::new(20)
                .build()
                .expect("valid build"),
        );
        let server = BoundServer::bind("127.0.0.1:0", cache)
            .expect("ephemeral bind")
            .with_max_conns(0)
            .with_workers(0)
            .with_queue_limits(0, 0);
        assert_eq!(server.max_conns, 1);
        assert_eq!(server.workers, 1);
        assert_eq!(server.max_pending, 1);
        assert_eq!(server.max_outbound, 1);
    }
}
