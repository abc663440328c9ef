//! Subcommand implementations.
//!
//! Each module exposes `run(tokens) -> Result<(), Box<dyn Error>>` and a
//! pure core function that returns its report as a `String`, so the logic
//! is unit-testable without spawning processes.

pub mod bench_cluster;
pub mod convert;
pub mod entropy;
pub mod gen;
pub mod groups;
pub mod plan;
pub mod serve;
pub mod simulate;
pub mod stats;
pub mod two_level;

use std::error::Error;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

use fgcache_trace::stream::{collect_trace, TraceReader, TraceSink};
use fgcache_trace::Trace;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceFormat {
    Text,
    Binary,
}

/// Resolves the trace format from an explicit `--format`/`--to` value
/// (`"text"` or `"bin"`), falling back to the path's extension (`.bin`,
/// else text).
pub(crate) fn detect_format(
    path: &str,
    format: Option<&str>,
) -> Result<TraceFormat, Box<dyn Error>> {
    Ok(match format {
        Some("text") => TraceFormat::Text,
        Some("bin" | "binary") => TraceFormat::Binary,
        Some(other) => return Err(format!("unknown trace format {other:?} (text|bin)").into()),
        None => {
            let ext = Path::new(path).extension().and_then(|e| e.to_str());
            match ext {
                Some(e) if e.eq_ignore_ascii_case("bin") => TraceFormat::Binary,
                _ => TraceFormat::Text,
            }
        }
    })
}

/// Opens `path` as a streaming event reader — the O(1)-memory entry point
/// every replay command uses. Binary inputs get the file length so the
/// header's record count is validated against the actual size before any
/// record is read.
pub(crate) fn open_trace_events(
    path: &str,
    format: Option<&str>,
) -> Result<TraceReader<File>, Box<dyn Error>> {
    let fmt = detect_format(path, format)?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Ok(match fmt {
        TraceFormat::Text => TraceReader::text(file),
        TraceFormat::Binary => {
            let len = file.metadata().map(|m| m.len()).ok();
            match len {
                Some(len) => TraceReader::binary_with_len(file, len),
                None => TraceReader::binary(file),
            }
        }
    })
}

/// Creates `path` and returns a buffered sink writing `fmt` into it — the
/// one write path of `gen` and `convert`. [`TraceSink::finish`] flushes
/// it.
pub(crate) fn create_trace_sink(
    path: &str,
    fmt: TraceFormat,
) -> Result<TraceSink<BufWriter<File>>, Box<dyn Error>> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let w = BufWriter::new(file);
    Ok(match fmt {
        TraceFormat::Text => TraceSink::text(w)?,
        TraceFormat::Binary => TraceSink::binary(w)?,
    })
}

/// Loads a whole trace into memory — for commands whose analyses need
/// random access (e.g. `groups`, `two-level`). Streaming commands use
/// [`open_trace_events`] instead.
pub(crate) fn load_trace(path: &str, format: Option<&str>) -> Result<Trace, Box<dyn Error>> {
    Ok(collect_trace(open_trace_events(path, format)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_an_unknown_format() {
        // A `.json` path is an unknown extension like any other: text.
        assert_eq!(detect_format("t.json", None).unwrap(), TraceFormat::Text);
        let err = detect_format("t.txt", Some("json"))
            .unwrap_err()
            .to_string();
        assert_eq!(err, "unknown trace format \"json\" (text|bin)");
    }
}
