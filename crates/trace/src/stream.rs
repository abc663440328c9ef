//! Streaming trace I/O: iterator readers and incremental sinks.
//!
//! The materialized readers in [`crate::io`] collect a whole [`Trace`]
//! into memory, which caps the workloads they can replay at the host's
//! RAM. This module provides the scale path the ROADMAP's ingestion item
//! asks for: both formats get an iterator of
//! `Result<AccessEvent, TraceIoError>` whose memory use is **bounded by a
//! constant** (one line / one record plus a fixed read buffer), so a
//! multi-GB trace replays without a `Vec<AccessEvent>`.
//!
//! Validation is *incremental*: sequence-number monotonicity
//! ([`SeqValidator`]) and id bounds are checked as each event is decoded,
//! so a violation surfaces at the offending event instead of after the
//! whole file has been buffered. The [`crate::io`] functions are thin
//! collect-adapters over these readers ([`collect_trace`]), so the two
//! paths cannot drift apart.
//!
//! Readers are **fused on error**: after yielding one `Err` they yield
//! `None` forever, so a `for` loop cannot spin on a persistently failing
//! source.
//!
//! Writing is symmetric: [`TextSink`] and [`BinarySink`] emit events one
//! at a time. Each format has one encoder: [`crate::io::write_text`] is an
//! adapter over [`TextSink`], and [`crate::io::write_binary`] shares
//! [`BinarySink`]'s record writer (the sink alone needs `Seek`, to patch
//! the record count).
//!
//! ```
//! use fgcache_trace::stream::{collect_trace, TextSink, TraceReader};
//! use fgcache_trace::Trace;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let t = Trace::from_files([1, 2, 1]);
//! let mut sink = TextSink::new(Vec::new())?;
//! for ev in t.events() {
//!     sink.push(ev)?;
//! }
//! let bytes = sink.finish()?;
//! let back = collect_trace(TraceReader::text(bytes.as_slice()))?;
//! assert_eq!(back, t);
//! # Ok(())
//! # }
//! ```

use std::io::{BufRead, BufReader, ErrorKind, Read, Seek, SeekFrom, Write};

use fgcache_types::{AccessEvent, AccessKind, ClientId, FileId, SeqNo, ValidationError};

use crate::io::{parse_line, write_binary_record, TraceIoError, BINARY_MAGIC};
use crate::Trace;

/// Bytes per record of the binary format: `seq u64 + client u32 + kind u8 +
/// file u64`.
pub const BINARY_RECORD_LEN: usize = 21;

/// Bytes of the binary header: 8-byte magic plus a little-endian `u64`
/// record count.
pub const BINARY_HEADER_LEN: usize = 16;

/// Incremental check of the [`Trace`] sequence-number invariant.
///
/// Feeding events in order must produce strictly increasing sequence
/// numbers; the error message matches [`Trace::new`]'s so streaming and
/// materialized ingestion report violations identically.
#[derive(Debug, Clone, Default)]
pub struct SeqValidator {
    last: Option<SeqNo>,
}

impl SeqValidator {
    /// A validator that accepts any first event.
    pub fn new() -> Self {
        SeqValidator::default()
    }

    /// Checks `ev` against the previously accepted event.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] if `ev.seq` does not strictly exceed
    /// the last accepted sequence number.
    pub fn check(&mut self, ev: &AccessEvent) -> Result<(), ValidationError> {
        if let Some(last) = self.last {
            if ev.seq <= last {
                return Err(ValidationError::new(
                    "events",
                    format!(
                        "sequence numbers must be strictly increasing, found {} after {}",
                        ev.seq, last
                    ),
                ));
            }
        }
        self.last = Some(ev.seq);
        Ok(())
    }
}

/// Collects a streaming reader into an in-memory [`Trace`].
///
/// This is the adapter the materialized [`crate::io`] readers are built
/// on; call it directly to materialize any event stream (e.g. a
/// converter's output).
///
/// # Errors
///
/// Propagates the first error the stream yields.
pub fn collect_trace<I>(events: I) -> Result<Trace, TraceIoError>
where
    I: IntoIterator<Item = Result<AccessEvent, TraceIoError>>,
{
    let mut out = Vec::new();
    for ev in events {
        out.push(ev?);
    }
    Ok(Trace::new(out)?)
}

// ---------------------------------------------------------------------------
// Text
// ---------------------------------------------------------------------------

/// Streaming reader for the line-oriented text format.
///
/// Memory use is bounded by the longest single line (the line buffer is
/// reused across iterations). Comment and blank lines are skipped but
/// still counted, so reported line numbers always match the physical
/// 1-based line of the input — including files using CRLF line endings or
/// missing the trailing newline.
#[derive(Debug)]
pub struct TextEvents<R> {
    reader: R,
    line: String,
    lineno: usize,
    validator: SeqValidator,
    done: bool,
}

impl<R: BufRead> TextEvents<R> {
    /// Wraps a buffered reader positioned at the start of the input.
    pub fn new(reader: R) -> Self {
        TextEvents {
            reader,
            line: String::new(),
            lineno: 0,
            validator: SeqValidator::new(),
            done: false,
        }
    }

    /// Physical 1-based line number of the most recently read line (0
    /// before the first read).
    pub fn line_number(&self) -> usize {
        self.lineno
    }
}

impl<R: BufRead> Iterator for TextEvents<R> {
    type Item = Result<AccessEvent, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(TraceIoError::Io(e)));
                }
            }
            self.lineno += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let parsed = parse_line(trimmed).map_err(|message| TraceIoError::Parse {
                line: self.lineno,
                message,
            });
            return Some(match parsed {
                Ok(ev) => match self.validator.check(&ev) {
                    Ok(()) => Ok(ev),
                    Err(e) => {
                        self.done = true;
                        Err(e.into())
                    }
                },
                Err(e) => {
                    self.done = true;
                    Err(e)
                }
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Binary
// ---------------------------------------------------------------------------

/// Streaming reader for the binary format.
///
/// Reads one 21-byte record at a time — the record count in the header
/// never drives an allocation, so a corrupt header cannot cause a
/// multi-GiB `Vec::with_capacity`. When the total input length is known
/// ([`BinaryEvents::with_len`]), the header's record count is checked
/// against it *before* any record is read; either way, truncation and
/// trailing garbage surface as [`TraceIoError::Corrupt`] with the exact
/// byte offset.
#[derive(Debug)]
pub struct BinaryEvents<R> {
    reader: R,
    total_len: Option<u64>,
    remaining: u64,
    index: u64,
    offset: u64,
    started: bool,
    done: bool,
    validator: SeqValidator,
}

impl<R: Read> BinaryEvents<R> {
    /// Wraps a reader positioned at the magic bytes.
    pub fn new(reader: R) -> Self {
        Self::build(reader, None)
    }

    /// Like [`BinaryEvents::new`], but additionally validates the header's
    /// record count against the known total input size (e.g. file
    /// metadata) before reading any record.
    pub fn with_len(reader: R, total_len: u64) -> Self {
        Self::build(reader, Some(total_len))
    }

    fn build(reader: R, total_len: Option<u64>) -> Self {
        BinaryEvents {
            reader,
            total_len,
            remaining: 0,
            index: 0,
            offset: 0,
            started: false,
            done: false,
            validator: SeqValidator::new(),
        }
    }

    fn corrupt(offset: u64, message: impl Into<String>) -> TraceIoError {
        TraceIoError::Corrupt {
            offset,
            message: message.into(),
        }
    }

    fn read_header(&mut self) -> Result<(), TraceIoError> {
        let mut magic = [0u8; 8];
        self.reader.read_exact(&mut magic).map_err(|e| {
            if e.kind() == ErrorKind::UnexpectedEof {
                Self::corrupt(0, "truncated header: missing 8-byte magic")
            } else {
                TraceIoError::Io(e)
            }
        })?;
        if &magic != BINARY_MAGIC {
            return Err(Self::corrupt(0, "bad magic: not an fgcache binary trace"));
        }
        let mut count_buf = [0u8; 8];
        self.reader.read_exact(&mut count_buf).map_err(|e| {
            if e.kind() == ErrorKind::UnexpectedEof {
                Self::corrupt(8, "truncated header: missing record count")
            } else {
                TraceIoError::Io(e)
            }
        })?;
        let count = u64::from_le_bytes(count_buf);
        if let Some(total) = self.total_len {
            match count
                .checked_mul(BINARY_RECORD_LEN as u64)
                .and_then(|body| body.checked_add(BINARY_HEADER_LEN as u64))
            {
                Some(expected) if expected == total => {}
                Some(expected) => {
                    return Err(Self::corrupt(
                        8,
                        format!(
                            "header claims {count} records ({expected} bytes) \
                             but input is {total} bytes"
                        ),
                    ));
                }
                None => {
                    return Err(Self::corrupt(
                        8,
                        format!("header claims {count} records, larger than any real input"),
                    ));
                }
            }
        }
        self.remaining = count;
        self.offset = BINARY_HEADER_LEN as u64;
        Ok(())
    }

    fn step(&mut self) -> Result<Option<AccessEvent>, TraceIoError> {
        if !self.started {
            self.read_header()?;
            self.started = true;
        }
        if self.remaining == 0 {
            // The header's count is authoritative: probe one byte so that
            // trailing garbage after the declared records is an error even
            // when the total input size was unknown up front.
            let mut probe = [0u8; 1];
            loop {
                match self.reader.read(&mut probe) {
                    Ok(0) => return Ok(None),
                    Ok(_) => {
                        return Err(Self::corrupt(
                            self.offset,
                            format!("trailing bytes after the {} declared records", self.index),
                        ));
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(TraceIoError::Io(e)),
                }
            }
        }
        let mut record = [0u8; BINARY_RECORD_LEN];
        self.reader.read_exact(&mut record).map_err(|e| {
            if e.kind() == ErrorKind::UnexpectedEof {
                Self::corrupt(
                    self.offset,
                    format!(
                        "truncated record {}: need {BINARY_RECORD_LEN} bytes",
                        self.index
                    ),
                )
            } else {
                TraceIoError::Io(e)
            }
        })?;
        let seq = u64::from_le_bytes(record[0..8].try_into().expect("slice is 8 bytes"));
        let client = u32::from_le_bytes(record[8..12].try_into().expect("slice is 4 bytes"));
        let kind = AccessKind::from_code(record[12] as char)
            .map_err(|e| Self::corrupt(self.offset + 12, format!("record {}: {e}", self.index)))?;
        let file = u64::from_le_bytes(record[13..21].try_into().expect("slice is 8 bytes"));
        let ev = AccessEvent::new(SeqNo(seq), ClientId(client), FileId(file), kind);
        self.validator.check(&ev)?;
        self.offset += BINARY_RECORD_LEN as u64;
        self.index += 1;
        self.remaining -= 1;
        Ok(Some(ev))
    }
}

impl<R: Read> Iterator for BinaryEvents<R> {
    type Item = Result<AccessEvent, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.step() {
            Ok(Some(ev)) => Some(Ok(ev)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Format dispatch
// ---------------------------------------------------------------------------

/// A streaming trace reader over either on-disk format.
///
/// One enum so callers (the CLI, the sim drivers) can hold "some trace
/// stream" without a generic parameter per format.
#[derive(Debug)]
pub enum TraceReader<R: Read> {
    /// Line-oriented text format.
    Text(TextEvents<BufReader<R>>),
    /// Fixed-width binary format.
    Binary(BinaryEvents<BufReader<R>>),
}

impl<R: Read> TraceReader<R> {
    /// Streams the text format.
    pub fn text(reader: R) -> Self {
        TraceReader::Text(TextEvents::new(BufReader::new(reader)))
    }

    /// Streams the binary format.
    pub fn binary(reader: R) -> Self {
        TraceReader::Binary(BinaryEvents::new(BufReader::new(reader)))
    }

    /// Streams the binary format, validating the header's record count
    /// against the known total input size before reading any record.
    pub fn binary_with_len(reader: R, total_len: u64) -> Self {
        TraceReader::Binary(BinaryEvents::with_len(BufReader::new(reader), total_len))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<AccessEvent, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            TraceReader::Text(r) => r.next(),
            TraceReader::Binary(r) => r.next(),
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Incremental writer of the text format — the format's one encoder:
/// [`crate::io::write_text`] is an adapter over it.
#[derive(Debug)]
pub struct TextSink<W: Write> {
    w: W,
    validator: SeqValidator,
}

impl<W: Write> TextSink<W> {
    /// Writes the header comment and returns the sink.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on writer failure.
    pub fn new(mut w: W) -> Result<Self, TraceIoError> {
        writeln!(w, "# fgcache trace v1: seq client kind file")?;
        Ok(TextSink {
            w,
            validator: SeqValidator::new(),
        })
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Validation`] if `ev` breaks sequence-number
    /// monotonicity, or [`TraceIoError::Io`] on writer failure.
    pub fn push(&mut self, ev: &AccessEvent) -> Result<(), TraceIoError> {
        self.validator.check(ev)?;
        writeln!(
            self.w,
            "{} {} {} {}",
            ev.seq.as_u64(),
            ev.client.as_u32(),
            ev.kind.code(),
            ev.file.as_u64()
        )?;
        Ok(())
    }

    /// Flushes and returns the writer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on flush failure.
    pub fn finish(mut self) -> Result<W, TraceIoError> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Incremental writer of the binary format; byte-identical to
/// [`crate::io::write_binary`] over the same events.
///
/// The record count is not known up front, so a zero placeholder is
/// written first and patched on [`BinarySink::finish`] — hence the `Seek`
/// bound (files and `io::Cursor` both qualify).
#[derive(Debug)]
pub struct BinarySink<W: Write + Seek> {
    w: W,
    count: u64,
    validator: SeqValidator,
}

impl<W: Write + Seek> BinarySink<W> {
    /// Writes the magic and a placeholder count, returning the sink.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on writer failure.
    pub fn new(mut w: W) -> Result<Self, TraceIoError> {
        w.write_all(BINARY_MAGIC)?;
        w.write_all(&0u64.to_le_bytes())?;
        Ok(BinarySink {
            w,
            count: 0,
            validator: SeqValidator::new(),
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Validation`] if `ev` breaks sequence-number
    /// monotonicity, or [`TraceIoError::Io`] on writer failure.
    pub fn push(&mut self, ev: &AccessEvent) -> Result<(), TraceIoError> {
        self.validator.check(ev)?;
        write_binary_record(&mut self.w, ev)?;
        self.count += 1;
        Ok(())
    }

    /// Patches the record count into the header, flushes, and returns the
    /// writer (positioned at the end).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on writer failure.
    pub fn finish(mut self) -> Result<W, TraceIoError> {
        self.w.seek(SeekFrom::Start(8))?;
        self.w.write_all(&self.count.to_le_bytes())?;
        self.w.seek(SeekFrom::End(0))?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// An incremental sink over either format — the writing twin of
/// [`TraceReader`], used by `fgcache gen` and `fgcache convert` to pick
/// the output format at runtime.
#[derive(Debug)]
pub enum TraceSink<W: Write + Seek> {
    /// Line-oriented text format.
    Text(TextSink<W>),
    /// Fixed-width binary format.
    Binary(BinarySink<W>),
}

impl<W: Write + Seek> TraceSink<W> {
    /// Text-format sink.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on writer failure.
    pub fn text(w: W) -> Result<Self, TraceIoError> {
        Ok(TraceSink::Text(TextSink::new(w)?))
    }

    /// Binary-format sink.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on writer failure.
    pub fn binary(w: W) -> Result<Self, TraceIoError> {
        Ok(TraceSink::Binary(BinarySink::new(w)?))
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Validation`] on a sequence-number
    /// violation, or [`TraceIoError::Io`] on writer failure.
    pub fn push(&mut self, ev: &AccessEvent) -> Result<(), TraceIoError> {
        match self {
            TraceSink::Text(s) => s.push(ev),
            TraceSink::Binary(s) => s.push(ev),
        }
    }

    /// Completes the output and returns the writer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on writer failure.
    pub fn finish(self) -> Result<W, TraceIoError> {
        match self {
            TraceSink::Text(s) => s.finish(),
            TraceSink::Binary(s) => s.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io;
    use std::io::Cursor;

    fn sample() -> Trace {
        Trace::new(vec![
            AccessEvent::new(SeqNo(0), ClientId(3), FileId(7), AccessKind::Read),
            AccessEvent::new(SeqNo(1), ClientId(0), FileId(u64::MAX), AccessKind::Create),
            AccessEvent::new(SeqNo(9), ClientId(u32::MAX), FileId(0), AccessKind::Delete),
            AccessEvent::new(SeqNo(10), ClientId(1), FileId(4), AccessKind::Write),
        ])
        .expect("strictly increasing")
    }

    #[test]
    fn seq_validator_matches_trace_new_semantics() {
        let mut v = SeqValidator::new();
        v.check(&AccessEvent::read(0, 1)).unwrap();
        v.check(&AccessEvent::read(5, 2)).unwrap();
        let err = v.check(&AccessEvent::read(5, 3)).unwrap_err();
        assert!(err.to_string().contains("strictly increasing"));
        assert!(v.check(&AccessEvent::read(4, 3)).is_err());
    }

    #[test]
    fn text_stream_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        io::write_text(&t, &mut buf).unwrap();
        let back = collect_trace(TraceReader::text(buf.as_slice())).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_stream_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        io::write_binary(&t, &mut buf).unwrap();
        let len = buf.len() as u64;
        let back = collect_trace(TraceReader::binary_with_len(buf.as_slice(), len)).unwrap();
        assert_eq!(back, t);
        let back = collect_trace(TraceReader::binary(buf.as_slice())).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn text_reports_physical_line_numbers_through_noise() {
        // Comments and blank lines before the bad line must not desync
        // the reported line number: the bad line is physically line 5.
        let input = "# header\n\n0 0 R 1\n\n1 0 Q 2\n";
        let mut r = TextEvents::new(BufReader::new(input.as_bytes()));
        assert!(r.next().unwrap().is_ok());
        let err = r.next().unwrap().unwrap_err();
        match err {
            TraceIoError::Parse { line, .. } => assert_eq!(line, 5),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(r.next().is_none(), "reader fuses after an error");
    }

    #[test]
    fn text_handles_crlf_and_missing_trailing_newline() {
        let input = "0 0 R 1\r\n1 0 W 2"; // CRLF + no final newline
        let t = collect_trace(TraceReader::text(input.as_bytes())).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[1].kind, AccessKind::Write);
    }

    #[test]
    fn text_stream_rejects_out_of_order_incrementally() {
        let input = "5 0 R 1\n3 0 R 2\n9 0 R 3\n";
        let mut r = TextEvents::new(BufReader::new(input.as_bytes()));
        assert!(r.next().unwrap().is_ok());
        assert!(matches!(
            r.next().unwrap().unwrap_err(),
            TraceIoError::Validation(_)
        ));
        assert!(r.next().is_none());
    }

    #[test]
    fn binary_header_length_mismatch_is_rejected_before_reading_records() {
        let t = Trace::from_files([1, 2, 3]);
        let mut buf = Vec::new();
        io::write_binary(&t, &mut buf).unwrap();
        // Forge the count to a huge value; with the real input length the
        // header is rejected immediately.
        buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let len = buf.len() as u64;
        let err = collect_trace(TraceReader::binary_with_len(buf.as_slice(), len)).unwrap_err();
        match err {
            TraceIoError::Corrupt {
                offset,
                ref message,
            } => {
                assert_eq!(offset, 8);
                assert!(message.contains("records"), "{message}");
            }
            other => panic!("expected corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn binary_truncation_mid_record_reports_byte_offset() {
        let t = Trace::from_files([1, 2, 3]);
        let mut buf = Vec::new();
        io::write_binary(&t, &mut buf).unwrap();
        buf.truncate(16 + 21 + 5); // header + record 0 + 5 bytes of record 1
        let mut r = BinaryEvents::new(buf.as_slice());
        assert!(r.next().unwrap().is_ok());
        let err = r.next().unwrap().unwrap_err();
        match err {
            TraceIoError::Corrupt {
                offset,
                ref message,
            } => {
                assert_eq!(offset, 16 + 21);
                assert!(message.contains("truncated record 1"), "{message}");
            }
            other => panic!("expected corrupt error, got {other:?}"),
        }
        assert!(r.next().is_none());
    }

    #[test]
    fn binary_trailing_bytes_are_rejected() {
        let t = Trace::from_files([1, 2]);
        let mut buf = Vec::new();
        io::write_binary(&t, &mut buf).unwrap();
        buf.push(0xAB);
        let err = collect_trace(TraceReader::binary(buf.as_slice())).unwrap_err();
        assert!(matches!(err, TraceIoError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn binary_sink_matches_materialized_writer_byte_for_byte() {
        let t = sample();
        let mut whole = Vec::new();
        io::write_binary(&t, &mut whole).unwrap();
        let mut sink = BinarySink::new(Cursor::new(Vec::new())).unwrap();
        for ev in t.events() {
            sink.push(ev).unwrap();
        }
        assert_eq!(sink.finish().unwrap().into_inner(), whole);
    }

    #[test]
    fn empty_trace_through_sinks_and_streams() {
        let bin = BinarySink::new(Cursor::new(Vec::new()))
            .unwrap()
            .finish()
            .unwrap()
            .into_inner();
        assert!(collect_trace(TraceReader::binary(bin.as_slice()))
            .unwrap()
            .is_empty());
        let text = TextSink::new(Vec::new()).unwrap().finish().unwrap();
        assert!(collect_trace(TraceReader::text(text.as_slice()))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn sink_rejects_non_monotone_seq() {
        let mut sink = TextSink::new(Vec::new()).unwrap();
        sink.push(&AccessEvent::read(4, 1)).unwrap();
        assert!(matches!(
            sink.push(&AccessEvent::read(4, 2)).unwrap_err(),
            TraceIoError::Validation(_)
        ));
    }

    #[test]
    fn trace_sink_dispatch_roundtrips() {
        let t = sample();
        for make in [TraceSink::text, TraceSink::binary] {
            let mut sink = make(Cursor::new(Vec::new())).unwrap();
            for ev in t.events() {
                sink.push(ev).unwrap();
            }
            let bytes = sink.finish().unwrap().into_inner();
            // Detect format by first byte: '#' text, 'F' binary.
            let back = match bytes[0] {
                b'#' => collect_trace(TraceReader::text(bytes.as_slice())),
                _ => collect_trace(TraceReader::binary(bytes.as_slice())),
            }
            .unwrap();
            assert_eq!(back, t);
        }
    }
}
