//! The length-prefixed binary wire protocol for group fetches.
//!
//! Every message is one *frame*:
//!
//! ```text
//! [u32 payload_len] [u8 version] [u8 msg_type] [u64 request_id] [body…]
//! └── little-endian ┴────────────── payload (payload_len bytes) ──────┘
//! ```
//!
//! * `payload_len` counts everything after the 4-byte prefix and is
//!   bounded by [`MAX_FRAME_LEN`] (a malformed or hostile peer cannot make
//!   the reader allocate unboundedly).
//! * `version` is [`WIRE_VERSION`]; a reader rejects frames from any other
//!   version rather than guessing at their layout.
//! * `request_id` appears in **every** message so replies can be matched
//!   to requests and retries deduplicated; see the crate docs on
//!   idempotency.
//!
//! Bodies by message type:
//!
//! | type | message        | body |
//! |------|----------------|------|
//! | 1    | `Fetch`        | `u32 count`, then `count × u64` file ids |
//! | 2    | `FetchReply`   | `u32 count`, then `count × (u64 id, u8 hit=0/miss=1)` |
//! | 3    | `StatsRequest` | empty |
//! | 4    | `StatsReply`   | `10 × u64` counters ([`WireStats`]) |
//! | 5    | `Shutdown`     | empty |
//! | 6    | `ShutdownAck`  | empty |
//! | 7    | `Error`        | `u32 len`, then `len` bytes of UTF-8 |
//! | 8    | `ClusterUpdate` | `u64 epoch`, `u32 count`, then `count × (u64 node, u16 len, len bytes)` |
//! | 9    | `ClusterUpdateAck` | `u64 epoch` |
//! | 10   | `FetchOwned`   | `u32 count`, then `count × u64` file ids |
//!
//! All integers are little-endian. Encoding and decoding are pinned by
//! round-trip and golden byte-layout tests below.
//!
//! # Version history
//!
//! * **v1** — messages 1–7, `StatsReply` carried 9 counters.
//! * **v2** — `StatsReply` gained `reply_cache_hits` (10th counter) and
//!   the cluster messages arrived: `ClusterUpdate`/`ClusterUpdateAck`
//!   (epoch'd membership pushes) and `FetchOwned`, the depth-bounded
//!   cluster proxy frame (the receiver must serve it locally and never
//!   re-forward, which is what keeps proxy chains at depth 1 even under
//!   inconsistent membership views).

use std::io::{Read, Write};

use fgcache_types::{AccessOutcome, FileId, TransportError, TransportErrorKind};

use crate::transport::{FileReply, GroupReply};

/// Current protocol version, the first payload byte of every frame.
/// Version 2 added the cluster messages and the `reply_cache_hits`
/// counter (see the module docs' version history).
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on a frame payload (16 MiB) — far above any real fetch,
/// low enough to reject garbage length prefixes before allocating.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

const MSG_FETCH: u8 = 1;
const MSG_FETCH_REPLY: u8 = 2;
const MSG_STATS_REQUEST: u8 = 3;
const MSG_STATS_REPLY: u8 = 4;
const MSG_SHUTDOWN: u8 = 5;
const MSG_SHUTDOWN_ACK: u8 = 6;
const MSG_ERROR: u8 = 7;
const MSG_CLUSTER_UPDATE: u8 = 8;
const MSG_CLUSTER_UPDATE_ACK: u8 = 9;
const MSG_FETCH_OWNED: u8 = 10;

/// Longest member address accepted in a `ClusterUpdate` (u16 length
/// prefix on the wire).
pub const MAX_MEMBER_ADDR_LEN: usize = u16::MAX as usize;

/// Server-side cache counters carried by a `StatsReply` — the remote
/// analogue of reading `ShardedAggregatingCache::stats` and
/// `group_stats` in process, which is what the differential loopback test
/// compares byte for byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Demand accesses processed.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Files inserted speculatively.
    pub speculative_inserts: u64,
    /// Demand hits on still-speculative entries.
    pub speculative_hits: u64,
    /// Evictions.
    pub evictions: u64,
    /// Demand fetches (group fetches issued upstream).
    pub demand_fetches: u64,
    /// Files transferred by those fetches.
    pub files_transferred: u64,
    /// Group members skipped because already resident.
    pub members_already_resident: u64,
    /// Requests answered from the server's reply cache (idempotent
    /// retries re-served without re-execution). Added in wire v2.
    pub reply_cache_hits: u64,
}

impl WireStats {
    fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [
            self.accesses,
            self.hits,
            self.misses,
            self.speculative_inserts,
            self.speculative_hits,
            self.evictions,
            self.demand_fetches,
            self.files_transferred,
            self.members_already_resident,
            self.reply_cache_hits,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(reader: &mut SliceReader<'_>) -> Result<Self, TransportError> {
        Ok(WireStats {
            accesses: reader.u64()?,
            hits: reader.u64()?,
            misses: reader.u64()?,
            speculative_inserts: reader.u64()?,
            speculative_hits: reader.u64()?,
            evictions: reader.u64()?,
            demand_fetches: reader.u64()?,
            files_transferred: reader.u64()?,
            members_already_resident: reader.u64()?,
            reply_cache_hits: reader.u64()?,
        })
    }
}

/// A decoded protocol message. Every variant carries the frame's request
/// id (see the [module docs](self) for bodies and framing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client → server: fetch this group of files.
    Fetch {
        /// Idempotency key; retries reuse it.
        request_id: u64,
        /// Files to serve, in order.
        files: Vec<FileId>,
    },
    /// Server → client: the group, with per-file provenance.
    FetchReply {
        /// Echo of the request's id.
        request_id: u64,
        /// Per-file outcome, in request order.
        files: Vec<FileReply>,
    },
    /// Client → server: report your cache counters.
    StatsRequest {
        /// Id echoed in the `StatsReply`.
        request_id: u64,
    },
    /// Server → client: cache counters.
    StatsReply {
        /// Echo of the request's id.
        request_id: u64,
        /// The counters.
        stats: WireStats,
    },
    /// Client → server: finish in-flight work and stop accepting.
    Shutdown {
        /// Id echoed in the `ShutdownAck`.
        request_id: u64,
    },
    /// Server → client: shutdown acknowledged.
    ShutdownAck {
        /// Echo of the request's id.
        request_id: u64,
    },
    /// Either direction: the peer could not serve the request.
    Error {
        /// Id of the offending request (0 if unattributable).
        request_id: u64,
        /// Human-readable reason.
        message: String,
    },
    /// Admin → node: replace your membership view (wire v2). Stale
    /// epochs must be ignored by the receiver.
    ClusterUpdate {
        /// Id echoed in the `ClusterUpdateAck`.
        request_id: u64,
        /// Monotonic view epoch; the receiver keeps the highest seen.
        epoch: u64,
        /// The full member list: `(node id, host:port)` per node.
        members: Vec<(u64, String)>,
    },
    /// Node → admin: membership view acknowledged (wire v2).
    ClusterUpdateAck {
        /// Echo of the request's id.
        request_id: u64,
        /// The epoch the node now holds (its current view if the update
        /// was stale).
        epoch: u64,
    },
    /// Peer → owner: fetch this group and serve it **locally** — the
    /// depth-bounded cluster proxy frame (wire v2). The receiver must
    /// never re-forward it, even if its own view disagrees about
    /// ownership.
    FetchOwned {
        /// Idempotency key; retries reuse it.
        request_id: u64,
        /// Files to serve, in order.
        files: Vec<FileId>,
    },
}

impl Message {
    /// The request id carried by this message.
    pub fn request_id(&self) -> u64 {
        match *self {
            Message::Fetch { request_id, .. }
            | Message::FetchReply { request_id, .. }
            | Message::StatsRequest { request_id }
            | Message::StatsReply { request_id, .. }
            | Message::Shutdown { request_id }
            | Message::ShutdownAck { request_id }
            | Message::Error { request_id, .. }
            | Message::ClusterUpdate { request_id, .. }
            | Message::ClusterUpdateAck { request_id, .. }
            | Message::FetchOwned { request_id, .. } => request_id,
        }
    }

    /// Builds the `FetchReply` for a served group.
    pub fn reply_for(reply: &GroupReply) -> Message {
        Message::FetchReply {
            request_id: reply.request_id,
            files: reply.files.clone(),
        }
    }

    /// Encodes this message as one complete frame (length prefix
    /// included).
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(32);
        self.encode_into(&mut frame);
        frame
    }

    /// Encodes this message as one complete frame into a reused buffer.
    ///
    /// The buffer is cleared first, so repeated calls with the same
    /// buffer are allocation-free once its capacity has warmed up — the
    /// event-driven server leans on this for its per-frame steady state.
    /// Byte-for-byte identical to [`Message::encode`] (pinned by a test).
    pub fn encode_into(&self, frame: &mut Vec<u8>) {
        frame.clear();
        self.append_to(frame);
    }

    /// Appends this message as one complete frame after whatever `out`
    /// already holds — how the server queues a reply straight behind the
    /// ones before it.
    pub(crate) fn append_to(&self, out: &mut Vec<u8>) {
        let start = match self {
            Message::Fetch { request_id, files } => {
                return append_fetch(out, *request_id, files, false)
            }
            Message::FetchOwned { request_id, files } => {
                return append_fetch(out, *request_id, files, true)
            }
            _ => begin_frame(out, self.msg_type(), self.request_id()),
        };
        match self {
            // Returned above: `append_fetch` writes the whole frame.
            Message::Fetch { .. } | Message::FetchOwned { .. } => {}
            Message::FetchReply { files, .. } => {
                out.extend_from_slice(&(files.len() as u32).to_le_bytes());
                for f in files {
                    out.extend_from_slice(&f.file.as_u64().to_le_bytes());
                    out.push(if f.outcome.is_hit() { 0 } else { 1 });
                }
            }
            Message::StatsReply { stats, .. } => stats.encode_into(out),
            Message::Error { message, .. } => {
                out.extend_from_slice(&(message.len() as u32).to_le_bytes());
                out.extend_from_slice(message.as_bytes());
            }
            Message::ClusterUpdate { epoch, members, .. } => {
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&(members.len() as u32).to_le_bytes());
                for (node, addr) in members {
                    out.extend_from_slice(&node.to_le_bytes());
                    let len = addr.len().min(MAX_MEMBER_ADDR_LEN) as u16;
                    out.extend_from_slice(&len.to_le_bytes());
                    out.extend_from_slice(&addr.as_bytes()[..len as usize]);
                }
            }
            Message::ClusterUpdateAck { epoch, .. } => {
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            Message::StatsRequest { .. }
            | Message::Shutdown { .. }
            | Message::ShutdownAck { .. } => {}
        }
        finish_frame(out, start);
    }

    /// Decodes one frame payload (everything after the length prefix).
    ///
    /// # Errors
    ///
    /// Returns a [`TransportErrorKind::Protocol`] error for truncated
    /// bodies, unknown versions or message types, and invalid field
    /// values.
    pub fn decode(payload: &[u8]) -> Result<Message, TransportError> {
        let mut r = SliceReader::new(payload);
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(protocol(format!(
                "unsupported wire version {version} (expected {WIRE_VERSION})"
            )));
        }
        let msg_type = r.u8()?;
        let request_id = r.u64()?;
        let message = match msg_type {
            MSG_FETCH | MSG_FETCH_OWNED => {
                let count = r.u32()? as usize;
                r.check_remaining(count.checked_mul(8), "fetch file list")?;
                let files = (0..count)
                    .map(|_| r.u64().map(FileId))
                    .collect::<Result<Vec<_>, _>>()?;
                if msg_type == MSG_FETCH_OWNED {
                    Message::FetchOwned { request_id, files }
                } else {
                    Message::Fetch { request_id, files }
                }
            }
            MSG_FETCH_REPLY => {
                let count = r.u32()? as usize;
                r.check_remaining(count.checked_mul(9), "fetch reply list")?;
                let files = (0..count)
                    .map(|_| {
                        let file = FileId(r.u64()?);
                        let outcome = match r.u8()? {
                            0 => AccessOutcome::Hit,
                            1 => AccessOutcome::Miss,
                            other => {
                                return Err(protocol(format!("invalid provenance byte {other}")))
                            }
                        };
                        Ok(FileReply { file, outcome })
                    })
                    .collect::<Result<Vec<_>, TransportError>>()?;
                Message::FetchReply { request_id, files }
            }
            MSG_STATS_REQUEST => Message::StatsRequest { request_id },
            MSG_STATS_REPLY => Message::StatsReply {
                request_id,
                stats: WireStats::decode(&mut r)?,
            },
            MSG_SHUTDOWN => Message::Shutdown { request_id },
            MSG_SHUTDOWN_ACK => Message::ShutdownAck { request_id },
            MSG_ERROR => {
                let len = r.u32()? as usize;
                let bytes = r.bytes(len, "error message")?;
                let message = String::from_utf8(bytes.to_vec())
                    .map_err(|_| protocol("error message is not UTF-8"))?;
                Message::Error {
                    request_id,
                    message,
                }
            }
            MSG_CLUSTER_UPDATE => {
                let epoch = r.u64()?;
                let count = r.u32()? as usize;
                // Each member needs at least 10 bytes (u64 id + u16 len).
                r.check_remaining(count.checked_mul(10), "cluster member list")?;
                let members = (0..count)
                    .map(|_| {
                        let node = r.u64()?;
                        let len = u16::from_le_bytes([r.u8()?, r.u8()?]) as usize;
                        let bytes = r.bytes(len, "member address")?;
                        let addr = String::from_utf8(bytes.to_vec())
                            .map_err(|_| protocol("member address is not UTF-8"))?;
                        Ok((node, addr))
                    })
                    .collect::<Result<Vec<_>, TransportError>>()?;
                Message::ClusterUpdate {
                    request_id,
                    epoch,
                    members,
                }
            }
            MSG_CLUSTER_UPDATE_ACK => Message::ClusterUpdateAck {
                request_id,
                epoch: r.u64()?,
            },
            other => return Err(protocol(format!("unknown message type {other}"))),
        };
        if !r.is_empty() {
            return Err(protocol("trailing bytes after message body"));
        }
        Ok(message)
    }

    fn msg_type(&self) -> u8 {
        match self {
            Message::Fetch { .. } => MSG_FETCH,
            Message::FetchReply { .. } => MSG_FETCH_REPLY,
            Message::StatsRequest { .. } => MSG_STATS_REQUEST,
            Message::StatsReply { .. } => MSG_STATS_REPLY,
            Message::Shutdown { .. } => MSG_SHUTDOWN,
            Message::ShutdownAck { .. } => MSG_SHUTDOWN_ACK,
            Message::Error { .. } => MSG_ERROR,
            Message::ClusterUpdate { .. } => MSG_CLUSTER_UPDATE,
            Message::ClusterUpdateAck { .. } => MSG_CLUSTER_UPDATE_ACK,
            Message::FetchOwned { .. } => MSG_FETCH_OWNED,
        }
    }
}

/// Header of a fetch frame decoded by [`decode_fetch_into`]: everything
/// but the file list, which lands in the caller's reused buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchFrame {
    /// Idempotency key carried by the frame.
    pub request_id: u64,
    /// `true` for the depth-bounded `FetchOwned` proxy frame.
    pub owned: bool,
}

/// Decodes a `Fetch`/`FetchOwned` payload into a reused file buffer —
/// the event-driven server's allocation-free hot path for inbound
/// frames. `files` is cleared and refilled; once its capacity covers the
/// largest group seen, repeated calls allocate nothing.
///
/// Returns `Ok(None)` (with `files` left cleared) when the payload is a
/// well-framed message of any *other* type, so callers can fall back to
/// [`Message::decode`] for the cold paths.
///
/// # Errors
///
/// Returns a [`TransportErrorKind::Protocol`] error on the same inputs
/// [`Message::decode`] rejects: wrong version, truncated body, a
/// declared count overrunning the frame, or trailing bytes.
pub fn decode_fetch_into(
    payload: &[u8],
    files: &mut Vec<FileId>,
) -> Result<Option<FetchFrame>, TransportError> {
    files.clear();
    let mut r = SliceReader::new(payload);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(protocol(format!(
            "unsupported wire version {version} (expected {WIRE_VERSION})"
        )));
    }
    let msg_type = r.u8()?;
    if msg_type != MSG_FETCH && msg_type != MSG_FETCH_OWNED {
        return Ok(None);
    }
    let request_id = r.u64()?;
    let count = r.u32()? as usize;
    r.check_remaining(count.checked_mul(8), "fetch file list")?;
    files.reserve(count);
    for _ in 0..count {
        files.push(FileId(r.u64()?));
    }
    if !r.is_empty() {
        return Err(protocol("trailing bytes after message body"));
    }
    Ok(Some(FetchFrame {
        request_id,
        owned: msg_type == MSG_FETCH_OWNED,
    }))
}

/// Appends one `Fetch` frame (`FetchOwned` if `owned`) for a borrowed
/// file list — the one fetch encoder: [`Message::encode_into`] calls it,
/// and so does the client, which encodes a whole pipelined batch into one
/// buffer without building a `Message` per request.
pub(crate) fn append_fetch(out: &mut Vec<u8>, request_id: u64, files: &[FileId], owned: bool) {
    let msg_type = if owned { MSG_FETCH_OWNED } else { MSG_FETCH };
    let start = begin_frame(out, msg_type, request_id);
    out.extend_from_slice(&(files.len() as u32).to_le_bytes());
    for f in files {
        out.extend_from_slice(&f.as_u64().to_le_bytes());
    }
    finish_frame(out, start);
}

/// Opens a frame at the end of `out` — a length placeholder, then the
/// version, type and request id — returning where it starts.
fn begin_frame(out: &mut Vec<u8>, msg_type: u8, request_id: u64) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(WIRE_VERSION);
    out.push(msg_type);
    out.extend_from_slice(&request_id.to_le_bytes());
    start
}

/// Patches the length prefix of the frame opened at `start`.
fn finish_frame(out: &mut [u8], start: usize) {
    let payload_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
}

/// What a connection's reader holds before its first frame outgrows it:
/// a pipelined burst of small frames arrives in one `read`.
pub(crate) const READ_BUF: usize = 4 * 1024;

/// A connection's inbound bytes, cut into frames in place:
/// `buf[head..filled]` has been read but not yet consumed. The server
/// (nonblocking, every frame of a burst from one `read`) and the client
/// (blocking, every reply of a batch) share it. The buffer is allocated
/// by the first read at [`READ_BUF`] bytes, grows only to fit one frame
/// larger than that, and shrinks back once that frame is consumed.
#[derive(Default)]
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    head: usize,
    filled: usize,
}

impl FrameReader {
    /// Consumes the next frame and returns its payload, or `None` until
    /// its last byte has been read.
    ///
    /// # Errors
    ///
    /// A length prefix no frame can carry (0, or over
    /// [`MAX_FRAME_LEN`]): the stream cannot be re-framed.
    pub(crate) fn next_frame(&mut self) -> Result<Option<&[u8]>, TransportError> {
        let Some(len) = self.frame_len()? else {
            return Ok(None);
        };
        let end = self.head + 4 + len;
        if end > self.filled {
            return Ok(None);
        }
        let payload = &self.buf[self.head + 4..end];
        self.head = end;
        Ok(Some(payload))
    }

    /// Payload length of the frame at `head`, once its prefix is in.
    fn frame_len(&self) -> Result<Option<usize>, TransportError> {
        let Some(prefix) = self.buf[self.head..self.filled].first_chunk::<4>() else {
            return Ok(None);
        };
        match u32::from_le_bytes(*prefix) {
            0 => Err(protocol("empty frame")),
            len if len > MAX_FRAME_LEN => Err(protocol(format!(
                "frame length {len} exceeds maximum {MAX_FRAME_LEN}"
            ))),
            len => Ok(Some(len as usize)),
        }
    }

    /// One `read` from `r` into free space, after moving the unconsumed
    /// bytes to the front and sizing the buffer for the frame being
    /// assembled. `Ok(0)` is end of stream. Call it only when
    /// [`next_frame`](Self::next_frame) has returned `None`.
    pub(crate) fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        let unread = self.filled - self.head;
        self.buf.copy_within(self.head..self.filled, 0);
        (self.head, self.filled) = (0, unread);
        let frame = self.frame_len().ok().flatten().map_or(0, |len| 4 + len);
        let size = frame.max(READ_BUF).max(unread);
        if self.buf.len() > size {
            self.buf.truncate(size);
            self.buf.shrink_to_fit();
        } else {
            self.buf.resize(size, 0);
        }
        let n = r.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// Whether the last read left free space — it was short, so the
    /// socket had nothing more at that moment.
    pub(crate) fn has_room(&self) -> bool {
        self.filled < self.buf.len()
    }

    /// Whether every byte read has been consumed.
    pub(crate) fn is_drained(&self) -> bool {
        self.head == self.filled
    }
}

/// Writes one message as a frame to `w` (single `write_all` so a frame is
/// never interleaved mid-write by the caller's own buffering).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, message: &Message) -> std::io::Result<()> {
    w.write_all(&message.encode())
}

/// Reads one complete frame from `r` and decodes it.
///
/// # Errors
///
/// Returns a [`TransportError`]: `Protocol` for malformed frames,
/// `ConnectionLost` for EOF mid-frame, `Timeout` if the reader's deadline
/// expires.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Message, TransportError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf).map_err(io_to_transport)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(protocol(format!(
            "frame length {len} exceeds maximum {MAX_FRAME_LEN}"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(io_to_transport)?;
    Message::decode(&payload)
}

/// Maps an I/O error to the transport-error taxonomy: would-block and
/// timed-out become retryable [`TransportErrorKind::Timeout`]s, invalid
/// data becomes [`TransportErrorKind::Protocol`], and everything else
/// (EOF included) is a [`TransportErrorKind::ConnectionLost`].
pub fn io_to_transport(err: std::io::Error) -> TransportError {
    use std::io::ErrorKind as K;
    let kind = match err.kind() {
        K::WouldBlock | K::TimedOut => TransportErrorKind::Timeout,
        K::InvalidData => TransportErrorKind::Protocol,
        _ => TransportErrorKind::ConnectionLost,
    };
    TransportError::new(kind, err.to_string())
}

fn protocol(detail: impl Into<String>) -> TransportError {
    TransportError::new(TransportErrorKind::Protocol, detail)
}

/// A bounds-checked little-endian cursor over a frame payload.
struct SliceReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        SliceReader { data, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos == self.data.len()
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], TransportError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| protocol(format!("truncated frame: {what}")))?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Rejects a declared element count larger than the remaining bytes
    /// *before* any allocation sized by it.
    fn check_remaining(&self, need: Option<usize>, what: &str) -> Result<(), TransportError> {
        match need {
            Some(n) if n <= self.data.len() - self.pos => Ok(()),
            _ => Err(protocol(format!("declared size overruns frame: {what}"))),
        }
    }

    fn u8(&mut self) -> Result<u8, TransportError> {
        Ok(self.bytes(1, "u8")?[0])
    }

    fn u32(&mut self) -> Result<u32, TransportError> {
        let b = self.bytes(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, TransportError> {
        let b = self.bytes(8, "u64")?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcache_types::rng::RandomSource;
    use fgcache_types::SeededRng;

    fn roundtrip(m: Message) {
        let frame = m.encode();
        let (len, payload) = frame.split_at(4);
        assert_eq!(
            u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize,
            payload.len()
        );
        assert_eq!(Message::decode(payload).expect("well-formed"), m);
    }

    #[test]
    fn all_message_types_roundtrip() {
        roundtrip(Message::Fetch {
            request_id: 0xDEAD_BEEF,
            files: vec![FileId(1), FileId(u64::MAX)],
        });
        roundtrip(Message::FetchReply {
            request_id: 2,
            files: vec![
                FileReply {
                    file: FileId(9),
                    outcome: AccessOutcome::Hit,
                },
                FileReply {
                    file: FileId(10),
                    outcome: AccessOutcome::Miss,
                },
            ],
        });
        roundtrip(Message::StatsRequest { request_id: 3 });
        roundtrip(Message::StatsReply {
            request_id: 4,
            stats: WireStats {
                accesses: 1,
                hits: 2,
                misses: 3,
                speculative_inserts: 4,
                speculative_hits: 5,
                evictions: 6,
                demand_fetches: 7,
                files_transferred: 8,
                members_already_resident: 9,
                reply_cache_hits: 10,
            },
        });
        roundtrip(Message::Shutdown { request_id: 5 });
        roundtrip(Message::ShutdownAck { request_id: 6 });
        roundtrip(Message::Error {
            request_id: 7,
            message: "no such thing".to_string(),
        });
        roundtrip(Message::ClusterUpdate {
            request_id: 8,
            epoch: 3,
            members: vec![
                (1, "127.0.0.1:7001".to_string()),
                (2, "127.0.0.1:7002".to_string()),
            ],
        });
        roundtrip(Message::ClusterUpdate {
            request_id: 9,
            epoch: 0,
            members: Vec::new(),
        });
        roundtrip(Message::ClusterUpdateAck {
            request_id: 10,
            epoch: 3,
        });
        roundtrip(Message::FetchOwned {
            request_id: 11,
            files: vec![FileId(42)],
        });
    }

    #[test]
    fn golden_fetch_frame_layout() {
        // Pins the wire layout: changing it is a protocol version bump.
        let m = Message::Fetch {
            request_id: 0x0102_0304_0506_0708,
            files: vec![FileId(0x11), FileId(0x22)],
        };
        let frame = m.encode();
        let expected: Vec<u8> = [
            &[30, 0, 0, 0][..],               // payload length
            &[2, 1][..],                      // version, msg type
            &[8, 7, 6, 5, 4, 3, 2, 1][..],    // request id LE
            &[2, 0, 0, 0][..],                // file count
            &[0x11, 0, 0, 0, 0, 0, 0, 0][..], // file 0
            &[0x22, 0, 0, 0, 0, 0, 0, 0][..], // file 1
        ]
        .concat();
        assert_eq!(frame, expected);
    }

    #[test]
    fn golden_cluster_update_frame_layout() {
        // Pins the v2 membership frame: changing it is a version bump.
        let m = Message::ClusterUpdate {
            request_id: 1,
            epoch: 2,
            members: vec![(7, "a:1".to_string())],
        };
        let frame = m.encode();
        let expected: Vec<u8> = [
            &[35, 0, 0, 0][..],            // payload length
            &[2, 8][..],                   // version, msg type
            &[1, 0, 0, 0, 0, 0, 0, 0][..], // request id LE
            &[2, 0, 0, 0, 0, 0, 0, 0][..], // epoch LE
            &[1, 0, 0, 0][..],             // member count
            &[7, 0, 0, 0, 0, 0, 0, 0][..], // node id LE
            &[3, 0][..],                   // addr length
            b"a:1",                        // addr bytes
        ]
        .concat();
        assert_eq!(frame, expected);
    }

    #[test]
    fn rejects_wrong_version_and_unknown_type() {
        let mut frame = Message::StatsRequest { request_id: 1 }.encode();
        frame[4] = 9; // version byte
        let err = Message::decode(&frame[4..]).expect_err("bad version");
        assert_eq!(err.kind(), TransportErrorKind::Protocol);
        assert!(err.to_string().contains("version"));

        let mut frame = Message::StatsRequest { request_id: 1 }.encode();
        frame[5] = 200; // msg type byte
        let err = Message::decode(&frame[4..]).expect_err("bad type");
        assert_eq!(err.kind(), TransportErrorKind::Protocol);
    }

    #[test]
    fn rejects_invalid_provenance_byte() {
        let mut frame = Message::FetchReply {
            request_id: 1,
            files: vec![FileReply {
                file: FileId(1),
                outcome: AccessOutcome::Hit,
            }],
        }
        .encode();
        let last = frame.len() - 1;
        frame[last] = 7;
        assert!(Message::decode(&frame[4..]).is_err());
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let messages = [
            Message::Fetch {
                request_id: 1,
                files: vec![FileId(4)],
            },
            Message::Shutdown { request_id: 2 },
        ];
        let mut buf = Vec::new();
        for m in &messages {
            write_frame(&mut buf, m).expect("vec write");
        }
        let mut cursor = std::io::Cursor::new(buf);
        for m in &messages {
            assert_eq!(&read_frame(&mut cursor).expect("well-formed"), m);
        }
        // EOF at a frame boundary surfaces as ConnectionLost.
        let err = read_frame(&mut cursor).expect_err("eof");
        assert_eq!(err.kind(), TransportErrorKind::ConnectionLost);
    }

    #[test]
    fn read_frame_rejects_oversized_length_prefix() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(buf)).expect_err("too big");
        assert_eq!(err.kind(), TransportErrorKind::Protocol);
    }

    /// One message of every type, each list non-empty — the golden set
    /// the round-trip and adversarial tests below start from.
    fn golden_messages() -> Vec<Message> {
        vec![
            Message::Fetch {
                request_id: 1,
                files: vec![FileId(1), FileId(2)],
            },
            Message::FetchOwned {
                request_id: 2,
                files: vec![FileId(3)],
            },
            Message::FetchReply {
                request_id: 3,
                files: vec![
                    FileReply {
                        file: FileId(4),
                        outcome: AccessOutcome::Miss,
                    },
                    FileReply {
                        file: FileId(5),
                        outcome: AccessOutcome::Hit,
                    },
                ],
            },
            Message::StatsRequest { request_id: 4 },
            Message::StatsReply {
                request_id: 5,
                stats: WireStats {
                    hits: 7,
                    reply_cache_hits: 1,
                    ..WireStats::default()
                },
            },
            Message::Shutdown { request_id: 6 },
            Message::ShutdownAck { request_id: 7 },
            Message::Error {
                request_id: 8,
                message: "nope".to_string(),
            },
            Message::ClusterUpdate {
                request_id: 9,
                epoch: 2,
                members: vec![(1, "a:1".to_string()), (2, "b:22".to_string())],
            },
            Message::ClusterUpdateAck {
                request_id: 10,
                epoch: 2,
            },
        ]
    }

    #[test]
    fn encode_into_matches_encode_for_every_message_type() {
        // One reused buffer across all messages: encode_into must clear
        // stale contents and produce bytes identical to encode().
        let mut scratch = Vec::new();
        for m in &golden_messages() {
            m.encode_into(&mut scratch);
            assert_eq!(scratch, m.encode(), "{m:?}");
        }
    }

    #[test]
    fn decode_fetch_into_agrees_with_full_decode() {
        let mut files = Vec::new();
        for m in [
            Message::Fetch {
                request_id: 7,
                files: vec![FileId(1), FileId(99)],
            },
            Message::FetchOwned {
                request_id: 8,
                files: vec![FileId(5)],
            },
            Message::Fetch {
                request_id: 9,
                files: Vec::new(),
            },
        ] {
            let frame = m.encode();
            let header = decode_fetch_into(&frame[4..], &mut files)
                .expect("well-formed")
                .expect("a fetch frame");
            match Message::decode(&frame[4..]).expect("well-formed") {
                Message::Fetch {
                    request_id,
                    files: want,
                } => {
                    assert_eq!(
                        header,
                        FetchFrame {
                            request_id,
                            owned: false
                        }
                    );
                    assert_eq!(files, want);
                }
                Message::FetchOwned {
                    request_id,
                    files: want,
                } => {
                    assert_eq!(
                        header,
                        FetchFrame {
                            request_id,
                            owned: true
                        }
                    );
                    assert_eq!(files, want);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn decode_fetch_into_passes_on_other_types_and_rejects_garbage() {
        let mut files = vec![FileId(123)];
        let frame = Message::StatsRequest { request_id: 1 }.encode();
        assert_eq!(
            decode_fetch_into(&frame[4..], &mut files).expect("well-formed"),
            None
        );
        assert!(files.is_empty(), "scratch cleared even on a pass");

        // Same malformed inputs Message::decode rejects.
        let frame = Message::Fetch {
            request_id: 1,
            files: vec![FileId(1)],
        }
        .encode();
        let payload = &frame[4..];
        assert!(decode_fetch_into(&payload[..payload.len() - 1], &mut files).is_err());
        let mut huge = payload.to_vec();
        huge[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_fetch_into(&huge, &mut files).is_err());
        let mut wrong_version = payload.to_vec();
        wrong_version[0] = 9;
        assert!(decode_fetch_into(&wrong_version, &mut files).is_err());
        let mut trailing = payload.to_vec();
        trailing.push(0);
        assert!(decode_fetch_into(&trailing, &mut files).is_err());
    }

    /// A stream handing out at most `chunk` bytes per read.
    struct Trickle<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn next_message(reader: &mut FrameReader, src: &mut impl Read) -> Message {
        loop {
            if let Some(payload) = reader.next_frame().expect("well framed") {
                return Message::decode(payload).expect("well formed");
            }
            assert!(reader.read_from(src).expect("read") > 0, "ended mid-frame");
        }
    }

    #[test]
    fn frame_reader_cuts_bursts_and_frames_split_across_reads() {
        let messages: Vec<Message> = (0..50u64)
            .map(|i| Message::Fetch {
                request_id: i,
                files: (0..i % 3).map(FileId).collect(),
            })
            .collect();
        let mut stream = Vec::new();
        for m in &messages {
            m.append_to(&mut stream);
        }
        for chunk in [1, 7, READ_BUF] {
            let mut src = Trickle {
                data: &stream,
                chunk,
            };
            let mut reader = FrameReader::default();
            for m in &messages {
                assert_eq!(&next_message(&mut reader, &mut src), m, "chunk {chunk}");
            }
            assert!(reader.is_drained());
        }
    }

    #[test]
    fn frame_reader_grows_for_one_large_frame_then_shrinks_back() {
        let big = Message::Fetch {
            request_id: 1,
            files: (0..2_000).map(FileId).collect(),
        };
        let small = Message::StatsRequest { request_id: 2 };
        let mut stream = big.encode();
        let big_len = stream.len();
        small.append_to(&mut stream);
        let mut src = Trickle {
            data: &stream,
            chunk: usize::MAX,
        };
        let mut reader = FrameReader::default();
        assert_eq!(next_message(&mut reader, &mut src), big);
        assert_eq!(reader.buf.len(), big_len, "grown to fit the frame, no more");
        assert_eq!(next_message(&mut reader, &mut src), small);
        assert_eq!(reader.buf.len(), READ_BUF);
    }

    #[test]
    fn io_error_taxonomy() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            io_to_transport(Error::new(ErrorKind::TimedOut, "t")).kind(),
            TransportErrorKind::Timeout
        );
        assert_eq!(
            io_to_transport(Error::new(ErrorKind::WouldBlock, "w")).kind(),
            TransportErrorKind::Timeout
        );
        assert_eq!(
            io_to_transport(Error::new(ErrorKind::InvalidData, "d")).kind(),
            TransportErrorKind::Protocol
        );
        assert_eq!(
            io_to_transport(Error::new(ErrorKind::ConnectionReset, "r")).kind(),
            TransportErrorKind::ConnectionLost
        );
    }

    // Adversarial inputs: every golden frame truncated at every byte,
    // with lying length fields, with seeded bit flips, and split across
    // every read boundary. Each case ends in `Err` or in the identical
    // frame — never a panic — and no buffer or decoded list outgrows
    // the bytes that justify it, so nothing is allocated past the
    // MAX_FRAME_LEN cap.

    /// A decoded list of `capacity` elements, each at least `min_wire`
    /// bytes on the wire, must fit the payload it came from: the
    /// decoders check a declared count against the bytes left before
    /// allocating, and growth at most doubles.
    fn assert_list_bounded(capacity: usize, payload: &[u8], min_wire: usize, what: &str) {
        assert!(
            capacity <= 2 * (payload.len() / min_wire).max(4),
            "{what}: capacity {capacity} for a {}-byte payload",
            payload.len()
        );
    }

    /// Decodes one payload with both decoders and checks the contract:
    /// they agree, every error is a protocol error, a decoded message
    /// re-encodes to the identical frame, and no list outgrows the
    /// payload. Returns the message, or `None` if it was rejected.
    fn check_payload(payload: &[u8]) -> Option<Message> {
        let full = Message::decode(payload);
        let mut files = Vec::new();
        let fetch = decode_fetch_into(payload, &mut files);
        assert_list_bounded(files.capacity(), payload, 8, "decode_fetch_into");
        let fetch_type = matches!(payload.get(1), Some(&(MSG_FETCH | MSG_FETCH_OWNED)));
        match (&full, &fetch) {
            (
                Ok(
                    Message::Fetch {
                        request_id,
                        files: want,
                    }
                    | Message::FetchOwned {
                        request_id,
                        files: want,
                    },
                ),
                Ok(Some(header)),
            ) => {
                assert_eq!(header.request_id, *request_id);
                assert_eq!(header.owned, payload[1] == MSG_FETCH_OWNED);
                assert_eq!(&files, want);
            }
            (_, Ok(None)) => assert!(!fetch_type, "a fetch frame was passed over"),
            (Err(_), Err(_)) => {}
            _ => panic!("decoders disagree on {payload:?}: {full:?} vs {fetch:?}"),
        }
        for err in [full.as_ref().err(), fetch.as_ref().err()]
            .into_iter()
            .flatten()
        {
            assert_eq!(err.kind(), TransportErrorKind::Protocol, "{err}");
        }
        let message = full.ok()?;
        assert_eq!(
            &message.encode()[4..],
            payload,
            "a decoded frame must re-encode identically"
        );
        match &message {
            Message::Fetch { files, .. } | Message::FetchOwned { files, .. } => {
                assert_list_bounded(files.capacity(), payload, 8, "fetch files")
            }
            Message::FetchReply { files, .. } => {
                assert_list_bounded(files.capacity(), payload, 9, "reply files")
            }
            Message::ClusterUpdate { members, .. } => {
                assert_list_bounded(members.capacity(), payload, 10, "members")
            }
            Message::Error { message, .. } => {
                assert!(message.capacity() <= payload.len(), "error text")
            }
            _ => {}
        }
        Some(message)
    }

    /// What a `FrameReader` made of a whole stream.
    #[derive(Debug, PartialEq)]
    struct Cut {
        /// Each frame it cut, decoded (`None`: rejected by the decoders).
        frames: Vec<Option<Message>>,
        /// Whether it refused an unframeable length prefix.
        refused: bool,
    }

    /// Runs `src` through a `FrameReader` until end of stream or an
    /// unframeable prefix, checking every frame it cuts and that its
    /// buffer never grows past one maximal frame.
    fn drive(src: &mut impl Read) -> Cut {
        let mut reader = FrameReader::default();
        let mut frames = Vec::new();
        loop {
            match reader.next_frame() {
                Ok(Some(payload)) => {
                    frames.push(check_payload(payload));
                    continue;
                }
                Ok(None) => {}
                Err(err) => {
                    assert_eq!(err.kind(), TransportErrorKind::Protocol);
                    return Cut {
                        frames,
                        refused: true,
                    };
                }
            }
            if reader.read_from(src).expect("in-memory read") == 0 {
                return Cut {
                    frames,
                    refused: false,
                };
            }
            assert!(
                reader.buf.len() <= 4 + MAX_FRAME_LEN as usize,
                "reader buffer grew past the frame cap"
            );
        }
    }

    fn frame_with_payload(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn adversarial_truncation_at_every_byte() {
        let nothing = Cut {
            frames: Vec::new(),
            refused: false,
        };
        for m in golden_messages() {
            let frame = m.encode();
            let payload = &frame[4..];
            for cut in 0..frame.len() {
                // The stream ends mid-frame: the reader waits for bytes
                // that never come and yields nothing.
                assert_eq!(drive(&mut &frame[..cut]), nothing, "{m:?} cut at {cut}");
            }
            for cut in 0..payload.len() {
                // An honest prefix around a truncated body: framed fine,
                // rejected by both decoders (an empty one by the reader).
                let want = Cut {
                    frames: if cut == 0 { Vec::new() } else { vec![None] },
                    refused: cut == 0,
                };
                let got = drive(&mut frame_with_payload(&payload[..cut]).as_slice());
                assert_eq!(got, want, "{m:?} body cut at {cut}");
            }
        }
    }

    #[test]
    fn adversarial_length_field_lies() {
        let sentinel = Message::StatsRequest { request_id: 0xABCD }.encode();
        let refused = Cut {
            frames: Vec::new(),
            refused: true,
        };
        for m in golden_messages() {
            let frame = m.encode();
            let len = (frame.len() - 4) as u32;
            for lie in [0, len - 1, len + 1, MAX_FRAME_LEN + 1] {
                let mut stream = frame.clone();
                stream[..4].copy_from_slice(&lie.to_le_bytes());
                stream.extend_from_slice(&sentinel);
                for chunk in [1, 7, usize::MAX] {
                    let got = drive(&mut Trickle {
                        data: &stream,
                        chunk,
                    });
                    if lie == 0 || lie > MAX_FRAME_LEN {
                        assert_eq!(got, refused, "{m:?} length {lie}");
                    } else {
                        // One byte short leaves the body truncated; one
                        // byte long swallows the next frame's first byte.
                        assert_eq!(got.frames.first(), Some(&None), "{m:?} length {lie}");
                    }
                }
            }
            // Lies in the body's own count or length field (its offset
            // in the frame, prefix included).
            let field = match m {
                Message::Fetch { .. }
                | Message::FetchOwned { .. }
                | Message::FetchReply { .. }
                | Message::Error { .. } => 14,
                Message::ClusterUpdate { .. } => 22,
                _ => continue,
            };
            let truth = u32::from_le_bytes(frame[field..field + 4].try_into().expect("4 bytes"));
            for lie in [0, truth - 1, truth + 1, u32::MAX] {
                let mut lying = frame[4..].to_vec();
                lying[field - 4..field].copy_from_slice(&lie.to_le_bytes());
                assert_eq!(check_payload(&lying), None, "{m:?} count {lie}");
            }
        }
        // A prefix declaring exactly the cap is legal: the reader sizes
        // its buffer to that one frame while it waits, and no further.
        let mut reader = FrameReader::default();
        reader
            .read_from(&mut &MAX_FRAME_LEN.to_le_bytes()[..])
            .expect("read");
        assert_eq!(reader.next_frame().expect("legal length"), None);
        reader.read_from(&mut &[][..]).expect("read");
        assert_eq!(reader.buf.len(), 4 + MAX_FRAME_LEN as usize);
    }

    #[test]
    fn adversarial_seeded_byte_flips() {
        let sentinel = Message::StatsRequest { request_id: 0xABCD };
        for seed in [0xFEED_FACE, 42, 20020702] {
            let mut rng = SeededRng::new(seed);
            for m in golden_messages() {
                let frame = m.encode();
                for round in 0..128 {
                    let mut stream = frame.clone();
                    let mut prefix_intact = true;
                    // 1–3 deterministic bit flips inside the frame.
                    for _ in 0..=rng.gen_index(3) {
                        let pos = rng.gen_index(frame.len());
                        stream[pos] ^= 1 << rng.gen_index(8);
                        prefix_intact &= pos >= 4;
                    }
                    sentinel.append_to(&mut stream);
                    let chunk = [1, 1 + rng.gen_index(16), usize::MAX][rng.gen_index(3)];
                    let got = drive(&mut Trickle {
                        data: &stream,
                        chunk,
                    });
                    if prefix_intact {
                        // The flips stay inside one frame, which decodes
                        // to an error or to a message that re-encodes to
                        // these very bytes; the next frame is untouched.
                        let context = format!("seed {seed} round {round} {m:?}");
                        assert!(!got.refused, "{context}");
                        assert_eq!(got.frames.len(), 2, "{context}");
                        assert_eq!(got.frames[1], Some(sentinel.clone()), "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn adversarial_split_at_every_read_boundary() {
        let messages = golden_messages();
        let mut stream = Vec::new();
        for m in &messages {
            m.append_to(&mut stream);
        }
        let want = Cut {
            frames: messages.into_iter().map(Some).collect(),
            refused: false,
        };
        for split in 0..=stream.len() {
            let mut src = (&stream[..split]).chain(&stream[split..]);
            assert_eq!(drive(&mut src), want, "split at {split}");
        }
        for chunk in 1..=9 {
            let mut src = Trickle {
                data: &stream,
                chunk,
            };
            assert_eq!(drive(&mut src), want, "chunk {chunk}");
        }
    }
}
