//! Reading and writing traces.
//!
//! Two formats are supported:
//!
//! * **Text** — one event per line, `seq client kind file`, where `kind` is
//!   the one-character code from
//!   [`AccessKind::code`](fgcache_types::AccessKind::code). Lines starting
//!   with `#` and blank lines are ignored. This format is easy to produce
//!   from real trace data and to inspect by eye.
//! * **Binary** — fixed-width little-endian records behind a magic header
//!   ([`write_binary`]/[`read_binary`]), for fast bulk storage.
//!
//! The functions here are whole-trace adapters over the streaming readers
//! and sinks of [`crate::stream`], so each format has one decoder and one
//! encoder.
//!
//! ```
//! use fgcache_trace::{io, Trace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let t = Trace::from_files([1, 2, 1]);
//! let mut buf = Vec::new();
//! io::write_text(&t, &mut buf)?;
//! let back = io::read_text(buf.as_slice())?;
//! assert_eq!(back, t);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

use fgcache_types::{AccessEvent, AccessKind, ClientId, FileId, SeqNo, ValidationError};

use crate::Trace;

/// Error produced while reading or writing a trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A line of the text format failed to parse.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
    /// The parsed events violated a [`Trace`] invariant.
    Validation(ValidationError),
    /// The binary format was structurally invalid at a byte offset.
    Corrupt {
        /// Byte offset of the malformed construct.
        offset: u64,
        /// Explanation of the failure.
        message: String,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            TraceIoError::Validation(e) => write!(f, "trace validation failed: {e}"),
            TraceIoError::Corrupt { offset, message } => {
                write!(f, "trace corrupt at byte {offset}: {message}")
            }
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Validation(e) => Some(e),
            TraceIoError::Parse { .. } | TraceIoError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<ValidationError> for TraceIoError {
    fn from(e: ValidationError) -> Self {
        TraceIoError::Validation(e)
    }
}

/// Writes `trace` in the line-oriented text format.
///
/// A `&mut` writer can be passed as well, since `Write` is implemented for
/// mutable references.
///
/// This is an adapter over the streaming
/// [`TextSink`](crate::stream::TextSink), the format's one encoder.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the underlying writer fails.
pub fn write_text<W: Write>(trace: &Trace, w: W) -> Result<(), TraceIoError> {
    let mut sink = crate::stream::TextSink::new(w)?;
    for ev in trace.events() {
        sink.push(ev)?;
    }
    sink.finish()?;
    Ok(())
}

/// Reads a trace in the line-oriented text format.
///
/// A `&mut` reader can be passed as well, since `Read` is implemented for
/// mutable references.
///
/// This is a collect-adapter over the streaming
/// [`TextEvents`](crate::stream::TextEvents) reader — see
/// [`crate::stream`] for the bounded-memory path.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] on a malformed line,
/// [`TraceIoError::Validation`] if the events are out of order, or
/// [`TraceIoError::Io`] on reader failure.
pub fn read_text<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    crate::stream::collect_trace(crate::stream::TraceReader::text(r))
}

pub(crate) fn parse_line(line: &str) -> Result<AccessEvent, String> {
    let mut parts = line.split_ascii_whitespace();
    let seq: u64 = parts
        .next()
        .ok_or("missing seq field")?
        .parse()
        .map_err(|e| format!("bad seq: {e}"))?;
    let client: u32 = parts
        .next()
        .ok_or("missing client field")?
        .parse()
        .map_err(|e| format!("bad client: {e}"))?;
    let kind_str = parts.next().ok_or("missing kind field")?;
    let mut kind_chars = kind_str.chars();
    let kind_char = kind_chars.next().ok_or("empty kind field")?;
    if kind_chars.next().is_some() {
        return Err(format!("kind must be a single character, got {kind_str:?}"));
    }
    let kind = AccessKind::from_code(kind_char).map_err(|e| e.to_string())?;
    let file: u64 = parts
        .next()
        .ok_or("missing file field")?
        .parse()
        .map_err(|e| format!("bad file: {e}"))?;
    if parts.next().is_some() {
        return Err("trailing fields after file id".to_string());
    }
    Ok(AccessEvent::new(
        SeqNo(seq),
        ClientId(client),
        FileId(file),
        kind,
    ))
}

/// Magic bytes opening the binary trace format.
pub(crate) const BINARY_MAGIC: &[u8; 8] = b"FGTRACE1";

/// Writes the fixed-width little-endian record of one event — shared by
/// [`write_binary`] and the streaming
/// [`BinarySink`](crate::stream::BinarySink).
pub(crate) fn write_binary_record<W: Write>(
    w: &mut W,
    ev: &AccessEvent,
) -> Result<(), TraceIoError> {
    w.write_all(&ev.seq.as_u64().to_le_bytes())?;
    w.write_all(&ev.client.as_u32().to_le_bytes())?;
    w.write_all(&[ev.kind.code() as u8])?;
    w.write_all(&ev.file.as_u64().to_le_bytes())?;
    Ok(())
}

/// Writes `trace` in the compact binary format: an 8-byte magic, a u64
/// event count, then fixed-width little-endian records of
/// `(seq: u64, client: u32, kind: u8, file: u64)` — 21 bytes per event.
/// Comparable in size to the text format but constant-time to parse and
/// immune to whitespace/locale concerns.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the underlying writer fails.
pub fn write_binary<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceIoError> {
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for ev in trace.events() {
        write_binary_record(&mut w, ev)?;
    }
    Ok(())
}

/// Reads a trace in the binary format produced by [`write_binary`].
///
/// This is a collect-adapter over the streaming
/// [`BinaryEvents`](crate::stream::BinaryEvents) reader — see
/// [`crate::stream`] for the bounded-memory path. Records arrive one at a
/// time, so a corrupt header's record count can never drive a huge
/// allocation; truncation and trailing garbage are rejected with the
/// exact byte offset.
///
/// # Errors
///
/// Returns [`TraceIoError::Corrupt`] if the magic, header or any record
/// is malformed, [`TraceIoError::Validation`] if the events are out of
/// order, or [`TraceIoError::Io`] on reader failure.
pub fn read_binary<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    crate::stream::collect_trace(crate::stream::TraceReader::binary(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip() {
        let t = Trace::from_files([10, 20, 10, 30]);
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let back = read_text(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let input = "# header\n\n0 0 R 5\n  \n1 1 W 6\n";
        let t = read_text(input.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[1].kind, AccessKind::Write);
        assert_eq!(t.events()[1].client, ClientId(1));
    }

    #[test]
    fn text_rejects_bad_kind() {
        let err = read_text("0 0 Z 5".as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains('Z'), "message was {message:?}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn text_rejects_missing_fields() {
        assert!(read_text("0 0 R".as_bytes()).is_err());
        assert!(read_text("0".as_bytes()).is_err());
    }

    #[test]
    fn text_rejects_trailing_fields() {
        assert!(read_text("0 0 R 5 junk".as_bytes()).is_err());
    }

    #[test]
    fn text_rejects_multichar_kind() {
        assert!(read_text("0 0 RW 5".as_bytes()).is_err());
    }

    #[test]
    fn text_rejects_out_of_order_seq() {
        let err = read_text("5 0 R 1\n3 0 R 2".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Validation(_)));
    }

    #[test]
    fn text_rejects_non_numeric() {
        assert!(read_text("x 0 R 5".as_bytes()).is_err());
        assert!(read_text("0 y R 5".as_bytes()).is_err());
        assert!(read_text("0 0 R z".as_bytes()).is_err());
    }

    #[test]
    fn error_display_mentions_line() {
        let err = TraceIoError::Parse {
            line: 7,
            message: "boom".into(),
        };
        assert!(err.to_string().contains("line 7"));
    }

    #[test]
    fn empty_input_gives_empty_trace() {
        let t = read_text("".as_bytes()).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn binary_roundtrip() {
        let t: Trace = vec![
            AccessEvent::new(SeqNo(0), ClientId(3), FileId(7), AccessKind::Read),
            AccessEvent::new(SeqNo(1), ClientId(0), FileId(u64::MAX), AccessKind::Create),
            AccessEvent::new(SeqNo(9), ClientId(u32::MAX), FileId(0), AccessKind::Delete),
        ]
        .into_iter()
        .collect();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), 16 + 21 * 3);
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_empty_trace() {
        let mut buf = Vec::new();
        write_binary(&Trace::default(), &mut buf).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), Trace::default());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTMAGIC\x00\x00\x00\x00\x00\x00\x00\x00"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn binary_rejects_truncation() {
        let t = Trace::from_files([1, 2, 3]);
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn binary_rejects_bad_kind_byte() {
        let t = Trace::from_files([1]);
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        buf[16 + 12] = b'Z'; // corrupt the kind byte of record 0
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn binary_size_is_exactly_fixed_width() {
        let t = Trace::from_files((0..1000u64).map(|i| 1_000_000_000 + i));
        let mut bin = Vec::new();
        write_binary(&t, &mut bin).unwrap();
        assert_eq!(bin.len(), 16 + 21 * 1000);
    }
}
