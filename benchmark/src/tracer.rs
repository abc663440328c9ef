//! In-memory spans for the traced run, written out when it ends.
//!
//! A span brackets one public call the harness makes into a layer (or a
//! batch of identical calls, with `calls` saying how many). Spans nest by
//! `parent`; a layer's self time is its span minus what its children
//! cover. Nothing is written until [`Tracer::write_jsonl`], so recording
//! costs one clock read pair and one `Vec` push.

use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;

use crate::sched::{Clock as _, MonoClock};

/// One recorded span. `id` is its 1-based position in the tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.agg.handle_access`.
    pub name: &'static str,
    /// Id of the span that caused this one; 0 for a stage root.
    pub parent: u32,
    /// Start, in nanoseconds since the tracer's clock epoch.
    pub start_ns: u64,
    /// End, likewise.
    pub end_ns: u64,
    /// Calls the span covers (1 for a single call).
    pub calls: u64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    /// The clock every span is stamped with; measured code that records
    /// its own timestamps must read this clock.
    pub clock: MonoClock,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            clock: MonoClock::new(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Records a finished span, returning its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) -> u32 {
        let mut spans = self.lock();
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
            calls,
        });
        spans.len() as u32
    }

    /// Opens a span that [`close`](Self::close) will finish — for a stage
    /// whose children must name it as their parent while it runs.
    pub fn open(&self, name: &'static str, parent: u32) -> u32 {
        let now = self.clock.now_ns();
        self.record(name, parent, now, now, 0)
    }

    /// Finishes a span from [`open`](Self::open), returning its duration.
    pub fn close(&self, id: u32, calls: u64) -> u64 {
        let now = self.clock.now_ns();
        let mut spans = self.lock();
        let span = &mut spans[id as usize - 1];
        span.end_ns = now;
        span.calls = calls;
        now - span.start_ns
    }

    /// Runs `f` inside a span covering `calls` calls; returns `f`'s result
    /// and the span's duration in nanoseconds.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u32,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = self.clock.now_ns();
        let result = f();
        let end = self.clock.now_ns();
        self.record(name, parent, start, end, calls);
        (result, end - start)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every span to `dir/trace-<stage>.jsonl`, one file per root
    /// span, each line `{id, parent, name, start_ns, end_ns, calls}`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write_jsonl(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let spans = self.lock();
        // Root of each span, resolved through its (earlier) parent.
        let mut root = vec![0usize; spans.len()];
        for (i, span) in spans.iter().enumerate() {
            root[i] = match span.parent {
                0 => i,
                p => root[p as usize - 1],
            };
        }
        let mut files: Vec<(usize, BufWriter<fs::File>)> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            let slot = match files.iter().position(|(r, _)| *r == root[i]) {
                Some(slot) => slot,
                None => {
                    let path = dir.join(format!("trace-{}.jsonl", spans[root[i]].name));
                    files.push((root[i], BufWriter::new(fs::File::create(path)?)));
                    files.len() - 1
                }
            };
            writeln!(
                files[slot].1,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                i + 1,
                span.parent,
                span.name,
                span.start_ns,
                span.end_ns,
                span.calls
            )?;
        }
        for (_, mut file) in files {
            file.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_files_split_by_root() {
        let tracer = Tracer::new();
        let stage = tracer.open("stage-a", 0);
        let ((), ns) = tracer.time("layer.call", stage, 3, || {});
        let total = tracer.close(stage, 3);
        assert!(total >= ns);
        let other = tracer.record("stage-b", 0, 5, 9, 1);
        tracer.record("layer.other", other, 6, 7, 1);
        assert_eq!(tracer.len(), 4);

        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("tracer-test-{}", std::process::id()));
        tracer.write_jsonl(&dir).expect("write spans");
        let a = fs::read_to_string(dir.join("trace-stage-a.jsonl")).expect("stage a");
        let b = fs::read_to_string(dir.join("trace-stage-b.jsonl")).expect("stage b");
        fs::remove_dir_all(&dir).expect("clean up");
        assert_eq!(a.lines().count(), 2);
        assert!(a.contains("\"id\":2,\"parent\":1,\"name\":\"layer.call\""));
        assert!(a.contains("\"calls\":3"));
        assert_eq!(b.lines().count(), 2);
        assert!(b.contains(
            "\"id\":4,\"parent\":3,\"name\":\"layer.other\",\"start_ns\":6,\"end_ns\":7"
        ));
    }
}
