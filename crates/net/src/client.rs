//! [`NetClient`]: the TCP side of the [`Transport`] trait.
//!
//! A client holds a small pool of connections to one server. Group
//! fetches become `Fetch` frames; [`Transport::fetch_batch`] pipelines a
//! whole batch on one connection — every frame encoded into one reused
//! buffer and sent in one `write`, then every reply read back — which is
//! where the latency win of batching comes from on a real socket.
//! Replies are read through a buffer each connection keeps, so a batch's
//! replies usually arrive in one `read`, and a steady exchange allocates
//! nothing but the decoded reply.
//!
//! # Timeouts and pooling
//!
//! Every connection carries a read/write timeout. A connection that
//! errors or times out is **dropped, not pooled**: a late reply to a
//! timed-out request would otherwise desync the frame stream for the next
//! request on that connection. For the same reason, so is a connection
//! holding bytes no request of the exchange accounted for. Retrying is
//! the job of [`RetryingTransport`](crate::RetryingTransport) layered on
//! top — the retried request reuses its request id, so the server's reply
//! cache makes the retry idempotent even though the original may have
//! executed.

use std::io::{ErrorKind, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use fgcache_types::{FileId, TransportError, TransportErrorKind};

use crate::transport::{request_id, GroupReply, GroupRequest, Transport, TransportStats};
use crate::wire::{append_fetch, io_to_transport, FrameReader, Message, WireStats};

/// Default per-operation socket timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(2);

/// Default connection-pool size.
pub const DEFAULT_POOL_SIZE: usize = 2;

/// A pooled TCP client for a group-fetch server. See the
/// [module docs](self).
pub struct NetClient {
    addr: String,
    pool: Vec<Conn>,
    pool_size: usize,
    timeout: Duration,
    namespace: u64,
    next_seq: u64,
    stats: TransportStats,
    /// The frames of the exchange being sent; reused across exchanges.
    out: Vec<u8>,
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("addr", &self.addr)
            .field("pooled", &self.pool.len())
            .field("timeout", &self.timeout)
            .field("namespace", &self.namespace)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// One pooled connection and the bytes read from it but not yet decoded.
struct Conn {
    stream: TcpStream,
    inbound: FrameReader,
}

impl Conn {
    /// Reads and decodes the next reply, blocking up to the timeout.
    fn read_reply(&mut self) -> Result<Message, TransportError> {
        loop {
            if let Some(payload) = self.inbound.next_frame()? {
                return Message::decode(payload);
            }
            match self.inbound.read_from(&mut self.stream) {
                Ok(0) => {
                    return Err(TransportError::new(
                        TransportErrorKind::ConnectionLost,
                        "the server closed the connection mid-reply",
                    ))
                }
                Ok(_) => {}
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(err) => return Err(io_to_transport(err)),
            }
        }
    }
}

impl NetClient {
    /// Connects to a server at `addr` (`host:port`), eagerly establishing
    /// one connection to validate the address.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportErrorKind::ConnectionLost`] error if the
    /// server is unreachable.
    pub fn connect(addr: &str) -> Result<Self, TransportError> {
        let mut client = NetClient {
            addr: addr.to_string(),
            pool: Vec::new(),
            pool_size: DEFAULT_POOL_SIZE,
            timeout: DEFAULT_TIMEOUT,
            namespace: 0,
            next_seq: 0,
            stats: TransportStats::default(),
            out: Vec::new(),
        };
        let probe = client.open_connection()?;
        client.check_in(probe);
        Ok(client)
    }

    /// Overrides the per-operation socket timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self.pool.clear(); // re-open with the new timeout on next use
        self
    }

    /// Overrides the connection-pool size (minimum 1).
    #[must_use]
    pub fn with_pool_size(mut self, size: usize) -> Self {
        self.pool_size = size.max(1);
        self.pool.truncate(self.pool_size);
        self
    }

    /// Namespaces this client's request ids (see
    /// [`request_id`]); concurrent clients of one
    /// server must use distinct namespaces.
    #[must_use]
    pub fn with_id_namespace(mut self, namespace: u64) -> Self {
        self.namespace = namespace;
        self
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Builds the next [`GroupRequest`] in this client's id sequence.
    pub fn next_request(&mut self, files: Vec<FileId>) -> GroupRequest {
        GroupRequest::new(self.next_id(), files)
    }

    fn next_id(&mut self) -> u64 {
        let id = request_id(self.namespace, self.next_seq);
        self.next_seq += 1;
        id
    }

    /// Asks the server for its cache counters — the remote equivalent of
    /// reading `stats()`/`group_stats()` in process.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] on connection or protocol failure.
    pub fn server_stats(&mut self) -> Result<WireStats, TransportError> {
        let request_id = self.next_id();
        match self.round_trip(&Message::StatsRequest { request_id })? {
            Message::StatsReply { stats, .. } => Ok(stats),
            other => Err(unexpected(&other).with_request_id(request_id)),
        }
    }

    /// Pushes a membership view to the server (a cluster node), waiting
    /// for the acknowledgement. Returns the epoch the node now holds —
    /// its current one if `epoch` was stale.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] on connection or protocol failure,
    /// including the server rejecting the update (not a cluster node).
    pub fn send_cluster_update(
        &mut self,
        epoch: u64,
        members: &[(u64, String)],
    ) -> Result<u64, TransportError> {
        let request_id = self.next_id();
        let reply = self.round_trip(&Message::ClusterUpdate {
            request_id,
            epoch,
            members: members.to_vec(),
        })?;
        match reply {
            Message::ClusterUpdateAck { epoch, .. } => Ok(epoch),
            Message::Error { message, .. } => Err(TransportError::new(
                TransportErrorKind::Protocol,
                format!("cluster update rejected: {message}"),
            )
            .with_request_id(request_id)),
            other => Err(unexpected(&other).with_request_id(request_id)),
        }
    }

    /// Asks the server to shut down, waiting for the acknowledgement.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] on connection or protocol failure.
    pub fn send_shutdown(&mut self) -> Result<(), TransportError> {
        let request_id = self.next_id();
        match self.round_trip(&Message::Shutdown { request_id })? {
            Message::ShutdownAck { .. } => Ok(()),
            other => Err(unexpected(&other).with_request_id(request_id)),
        }
    }

    fn open_connection(&self) -> Result<Conn, TransportError> {
        let stream = TcpStream::connect(&self.addr).map_err(io_to_transport)?;
        stream.set_nodelay(true).map_err(io_to_transport)?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(io_to_transport)?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(io_to_transport)?;
        Ok(Conn {
            stream,
            inbound: FrameReader::default(),
        })
    }

    /// Takes a pooled connection (or opens one) and writes the frames in
    /// `out` to it in one `write`: one round trip, however many frames.
    fn send(&mut self) -> Result<Conn, TransportError> {
        let mut conn = match self.pool.pop() {
            Some(conn) => conn,
            None => self.open_connection()?,
        };
        self.stats.round_trips += 1;
        conn.stream.write_all(&self.out).map_err(io_to_transport)?;
        Ok(conn)
    }

    /// Pools `conn` after a successful exchange, unless the pool is full
    /// or the connection holds bytes the exchange did not account for.
    fn check_in(&mut self, conn: Conn) {
        if conn.inbound.is_drained() && self.pool.len() < self.pool_size {
            self.pool.push(conn);
        }
    }

    /// One request/reply exchange. The connection returns to the pool
    /// only on success; any failure drops it (see the module docs).
    fn round_trip(&mut self, message: &Message) -> Result<Message, TransportError> {
        message.encode_into(&mut self.out);
        self.exchange(message.request_id())
    }

    /// Sends the one frame in `out` and reads its reply.
    fn exchange(&mut self, request_id: u64) -> Result<Message, TransportError> {
        let reply = self.send().and_then(|mut conn| {
            let reply = conn.read_reply()?;
            self.check_in(conn);
            Ok(reply)
        });
        reply.map_err(|err| err.with_request_id(request_id))
    }

    /// One fetch exchange: `Fetch`, or `FetchOwned` if `owned`.
    fn fetch(&mut self, request: &GroupRequest, owned: bool) -> Result<GroupReply, TransportError> {
        self.out.clear();
        append_fetch(&mut self.out, request.request_id, &request.files, owned);
        let reply = self.exchange(request.request_id)?;
        self.accept_fetch_reply(request, reply)
    }

    /// Interprets a server reply to a fetch, updating counters when it is
    /// the matching `FetchReply`.
    fn accept_fetch_reply(
        &mut self,
        request: &GroupRequest,
        reply: Message,
    ) -> Result<GroupReply, TransportError> {
        match reply {
            Message::FetchReply { request_id, files } => {
                let reply = GroupReply { request_id, files };
                if reply.request_id == request.request_id {
                    self.stats.requests += 1;
                    self.stats.files_moved += reply.files.len() as u64;
                    self.stats.hits += reply.hits();
                    self.stats.misses += reply.misses();
                }
                // A mismatched id (stale duplicate) is returned as-is;
                // the retry layer discards and re-asks.
                Ok(reply)
            }
            Message::Error { message, .. } => Err(TransportError::new(
                TransportErrorKind::Protocol,
                format!("server error: {message}"),
            )
            .with_request_id(request.request_id)),
            other => Err(unexpected(&other).with_request_id(request.request_id)),
        }
    }
}

fn unexpected(reply: &Message) -> TransportError {
    TransportError::new(
        TransportErrorKind::Protocol,
        format!("unexpected reply: {reply:?}"),
    )
}

impl Transport for NetClient {
    fn fetch_group(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError> {
        self.fetch(request, false)
    }

    /// Sends the v2 `FetchOwned` frame, telling the receiving node to
    /// serve the group itself rather than proxy it onward.
    fn fetch_owned(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError> {
        self.fetch(request, true)
    }

    /// Pipelines the whole batch on one connection: every `Fetch` frame is
    /// written, in one `write`, before any reply is read, so the batch
    /// pays one round-trip's worth of latency instead of one per request.
    fn fetch_batch(&mut self, batch: &[GroupRequest]) -> Vec<Result<GroupReply, TransportError>> {
        if batch.is_empty() {
            return Vec::new();
        }
        self.out.clear();
        for request in batch {
            append_fetch(&mut self.out, request.request_id, &request.files, false);
        }
        let mut conn = match self.send() {
            Ok(conn) => conn,
            Err(err) => {
                // No connection, or it is gone: every request fails.
                return batch
                    .iter()
                    .map(|r| {
                        Err(TransportError::new(err.kind(), err.detail())
                            .with_request_id(r.request_id))
                    })
                    .collect();
            }
        };
        let mut results = Vec::with_capacity(batch.len());
        let mut broken = false;
        for request in batch {
            if broken {
                results.push(Err(TransportError::new(
                    TransportErrorKind::ConnectionLost,
                    "connection failed earlier in this batch",
                )
                .with_request_id(request.request_id)));
                continue;
            }
            match conn.read_reply() {
                Ok(reply) => results.push(self.accept_fetch_reply(request, reply)),
                Err(err) => {
                    broken = true;
                    results.push(Err(err.with_request_id(request.request_id)));
                }
            }
        }
        if !broken {
            self.check_in(conn);
        }
        results
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}
