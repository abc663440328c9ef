//! `fgcache convert` — translate foreign trace logs into fgcache traces.
//!
//! Supports two source dialects:
//!
//! * `--from dfstrace` — DFSTrace-style text (`timestamp client op path`
//!   per line), the format of the paper's CMU traces;
//! * `--from strace` — `strace -f` output (`[pid N] syscall("path", …) = r`),
//!   for turning a live system call log into a workload.
//!
//! Conversion is fully streaming: events flow from the source reader
//! through the [`Remapper`](fgcache_trace::convert::Remapper) into a
//! [`TraceSink`], so arbitrarily large logs convert in O(1) memory. File
//! paths and client tokens are renumbered densely in first-seen order and
//! sequence numbers are assigned consecutively from zero, so the output
//! always satisfies the trace invariant.

use std::error::Error;
use std::fs::File;
use std::io::{BufReader, Read, Seek, Write};

use fgcache_trace::convert::{ConvertReport, DfstraceEvents, StraceEvents};
use fgcache_trace::io::TraceIoError;
use fgcache_trace::stream::TraceSink;

use crate::args::Args;
use crate::commands::{create_trace_sink, detect_format};

/// Streams every event from `events` into `sink`; [`TraceSink::finish`]
/// flushes, so sink errors surface instead of being swallowed on drop.
fn pump<I, W>(events: &mut I, mut sink: TraceSink<W>) -> Result<(), TraceIoError>
where
    I: Iterator<Item = Result<fgcache_types::AccessEvent, TraceIoError>>,
    W: Write + Seek,
{
    for ev in events {
        sink.push(&ev?)?;
    }
    sink.finish()?;
    Ok(())
}

/// A source dialect `--from` names.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Dialect {
    Dfstrace,
    Strace,
}

impl Dialect {
    fn parse(from: &str) -> Result<Self, Box<dyn Error>> {
        match from {
            "dfstrace" => Ok(Dialect::Dfstrace),
            "strace" => Ok(Dialect::Strace),
            other => Err(format!("unknown --from {other:?} (dfstrace|strace)").into()),
        }
    }
}

/// Converts `input` (in dialect `from`) into `sink`, returning the
/// human-readable summary.
pub(crate) fn convert<R: Read, W: Write + Seek>(
    input: R,
    from: Dialect,
    sink: TraceSink<W>,
) -> Result<String, Box<dyn Error>> {
    let reader = BufReader::new(input);
    let report: ConvertReport = match from {
        Dialect::Dfstrace => {
            let mut src = DfstraceEvents::new(reader);
            pump(&mut src, sink)?;
            src.report()
        }
        Dialect::Strace => {
            let mut src = StraceEvents::new(reader);
            pump(&mut src, sink)?;
            src.report()
        }
    };
    Ok(format!("{}\n", report.summary()))
}

/// Every flag and the input are checked before `--out` is created, and a
/// conversion that fails after that removes it: a failed run leaves no
/// output file, never a valid but truncated trace.
pub fn run(tokens: &[String]) -> Result<(), Box<dyn Error>> {
    let args = Args::parse(tokens.iter().cloned())?;
    args.check_known(&["from", "out", "to"])?;
    let input_path = args.require_positional(0, "input")?;
    let from = Dialect::parse(&args.require_flag::<String>("from")?)?;
    let out_path: String = args.require_flag("out")?;
    let out_fmt = detect_format(&out_path, args.flag("to"))?;
    let input = File::open(input_path).map_err(|e| format!("cannot open {input_path}: {e}"))?;
    let sink = create_trace_sink(&out_path, out_fmt)?;
    let summary = convert(input, from, sink).inspect_err(|_| {
        let _ = std::fs::remove_file(&out_path);
    })?;
    print!("{summary}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{load_trace, TraceFormat};
    use std::io::Cursor;

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("fgcache-convert-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn text_sink() -> TraceSink<Cursor<Vec<u8>>> {
        TraceSink::text(Cursor::new(Vec::new())).unwrap()
    }

    #[test]
    fn dfstrace_to_text_roundtrips_through_load() {
        let log = "0.1 alice open /a\n0.2 bob read /b\n0.3 alice write /a\n";
        let out_path = tmp("d.txt");
        let sink = create_trace_sink(&out_path, TraceFormat::Text).unwrap();
        let summary = convert(log.as_bytes(), Dialect::Dfstrace, sink).unwrap();
        assert!(summary.contains("3 events"), "{summary}");
        let trace = load_trace(&out_path, None).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.clients().len(), 2);
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn strace_to_binary_roundtrips_through_load() {
        let log = "\
[pid 10] openat(AT_FDCWD, \"/etc/passwd\", O_RDONLY) = 3\n\
[pid 10] openat(AT_FDCWD, \"/tmp/x\", O_WRONLY|O_CREAT, 0644) = 4\n\
[pid 11] unlink(\"/tmp/x\") = 0\n";
        let out_path = tmp("s.bin");
        let sink = create_trace_sink(&out_path, TraceFormat::Binary).unwrap();
        let summary = convert(log.as_bytes(), Dialect::Strace, sink).unwrap();
        assert!(summary.contains("3 events"), "{summary}");
        let trace = load_trace(&out_path, None).unwrap();
        assert_eq!(trace.len(), 3);
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn unknown_dialect_is_rejected() {
        let err = Dialect::parse("ltrace").unwrap_err();
        assert!(err.to_string().contains("dfstrace|strace"));
    }

    #[test]
    fn malformed_dfstrace_reports_line_number() {
        let log = "0.1 alice open /a\nnot a line\n";
        let err = convert(log.as_bytes(), Dialect::Dfstrace, text_sink()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn missing_flags_are_reported() {
        assert!(run(&["in.log".into()]).is_err());
        assert!(run(&["in.log".into(), "--from".into(), "strace".into()]).is_err());
    }
}
