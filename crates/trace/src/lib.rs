//! Workload traces and the synthetic workload generator.
//!
//! The paper evaluates everything against CMU DFSTrace traces (`mozart`,
//! `ives`, `dvorak`, `barber` — referred to as *workstation*, *users*,
//! *write* and *server*). Those traces are not redistributable, so this
//! crate provides:
//!
//! * [`Trace`] — an in-memory, validated sequence of
//!   [`AccessEvent`]s, the unit every simulator
//!   in the workspace consumes;
//! * [`io`] — the text and binary formats for traces;
//! * [`synth`] — a deterministic synthetic generator whose four
//!   [`WorkloadProfile`](synth::WorkloadProfile)s mirror the structural
//!   properties of the paper's four systems (see `DESIGN.md` §4 for the
//!   substitution argument);
//! * [`stats`] — descriptive statistics used to sanity-check workloads.
//!
//! # Examples
//!
//! ```
//! use fgcache_trace::synth::{SynthConfig, WorkloadProfile};
//! use fgcache_trace::stats::TraceStats;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = SynthConfig::profile(WorkloadProfile::Workstation)
//!     .events(5_000)
//!     .seed(1)
//!     .build()?
//!     .generate();
//! let stats = TraceStats::compute(&trace);
//! assert_eq!(stats.events, 5_000);
//! assert!(stats.unique_files > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;

use fgcache_types::{AccessEvent, ClientId, FileId, SeqNo, ValidationError};

pub mod convert;
pub mod io;
pub mod stats;
pub mod stream;
pub mod synth;

/// A validated, in-memory access trace.
///
/// Invariants (checked by [`Trace::new`]):
///
/// * sequence numbers are strictly increasing;
/// * the trace may be empty, but never contains duplicate sequence numbers.
///
/// `Trace` is cheap to share by reference; simulators only ever read it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    events: Vec<AccessEvent>,
}

impl Trace {
    /// Creates a trace from events, validating the sequence-number
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] if sequence numbers are not strictly
    /// increasing.
    pub fn new(events: Vec<AccessEvent>) -> Result<Self, ValidationError> {
        for pair in events.windows(2) {
            if pair[1].seq <= pair[0].seq {
                return Err(ValidationError::new(
                    "events",
                    format!(
                        "sequence numbers must be strictly increasing, found {} after {}",
                        pair[1].seq, pair[0].seq
                    ),
                ));
            }
        }
        Ok(Trace { events })
    }

    /// Builds a read-only trace over the given raw file ids, numbering
    /// events consecutively from zero and attributing them to client 0.
    ///
    /// This is the idiomatic way to express a file sequence in tests and
    /// examples:
    ///
    /// ```
    /// use fgcache_trace::Trace;
    /// let t = Trace::from_files([1, 2, 1, 3]);
    /// assert_eq!(t.len(), 4);
    /// ```
    pub fn from_files<I>(ids: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let events = ids
            .into_iter()
            .enumerate()
            .map(|(i, id)| AccessEvent::read(i as u64, id))
            .collect();
        Trace { events }
    }

    /// The events of the trace, in sequence order.
    pub fn events(&self) -> &[AccessEvent] {
        &self.events
    }

    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the trace contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the accessed [`FileId`]s in sequence order.
    pub fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.events.iter().map(|e| e.file)
    }

    /// Collects the file sequence into a `Vec` (convenient for the entropy
    /// analyses, which operate on plain file sequences).
    pub fn file_sequence(&self) -> Vec<FileId> {
        self.files().collect()
    }

    /// Returns a new trace containing only the events for which `keep`
    /// returns `true`, renumbered consecutively from zero.
    ///
    /// This is how intervening-cache *miss streams* become traces again:
    /// the paper's server-side analyses treat the filtered stream as a
    /// first-class workload.
    pub fn filtered<F>(&self, mut keep: F) -> Trace
    where
        F: FnMut(&AccessEvent) -> bool,
    {
        let events = self
            .events
            .iter()
            .filter(|e| keep(e))
            .enumerate()
            .map(|(i, e)| AccessEvent::new(SeqNo(i as u64), e.client, e.file, e.kind))
            .collect();
        Trace { events }
    }

    /// Returns the distinct clients appearing in the trace, sorted.
    pub fn clients(&self) -> Vec<ClientId> {
        let mut ids: Vec<ClientId> = self.events.iter().map(|e| e.client).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Trace({} events)", self.events.len())
    }
}

impl FromIterator<AccessEvent> for Trace {
    /// Collects events into a trace **renumbering them consecutively**.
    ///
    /// Unlike [`Trace::new`], which validates caller-supplied sequence
    /// numbers, collecting assigns fresh numbers — the common case when
    /// synthesising or transforming streams.
    fn from_iter<I: IntoIterator<Item = AccessEvent>>(iter: I) -> Self {
        let events = iter
            .into_iter()
            .enumerate()
            .map(|(i, e)| AccessEvent::new(SeqNo(i as u64), e.client, e.file, e.kind))
            .collect();
        Trace { events }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a AccessEvent;
    type IntoIter = std::slice::Iter<'a, AccessEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcache_types::AccessKind;

    #[test]
    fn new_accepts_strictly_increasing() {
        let t = Trace::new(vec![AccessEvent::read(0, 1), AccessEvent::read(1, 2)]).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn new_rejects_duplicate_seq() {
        let err = Trace::new(vec![AccessEvent::read(3, 1), AccessEvent::read(3, 2)]).unwrap_err();
        assert_eq!(err.parameter(), "events");
    }

    #[test]
    fn new_rejects_decreasing_seq() {
        assert!(Trace::new(vec![AccessEvent::read(5, 1), AccessEvent::read(4, 2)]).is_err());
    }

    #[test]
    fn empty_trace_is_valid() {
        let t = Trace::new(Vec::new()).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_string(), "Trace(0 events)");
    }

    #[test]
    fn from_files_numbers_consecutively() {
        let t = Trace::from_files([9, 8, 9]);
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq.as_u64()).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(t.file_sequence(), vec![FileId(9), FileId(8), FileId(9)]);
    }

    #[test]
    fn filtered_renumbers_and_preserves_payload() {
        let t = Trace::from_files([1, 2, 3, 2]);
        let odd = t.filtered(|e| e.file.as_u64() % 2 == 1);
        assert_eq!(odd.file_sequence(), vec![FileId(1), FileId(3)]);
        assert_eq!(odd.events()[1].seq, SeqNo(1));
    }

    #[test]
    fn collect_renumbers() {
        let t: Trace = vec![
            AccessEvent::new(SeqNo(10), ClientId(2), FileId(5), AccessKind::Write),
            AccessEvent::new(SeqNo(99), ClientId(2), FileId(6), AccessKind::Read),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.events()[0].seq, SeqNo(0));
        assert_eq!(t.events()[1].seq, SeqNo(1));
        assert_eq!(t.events()[0].client, ClientId(2));
    }

    #[test]
    fn clients_sorted_unique() {
        let t: Trace = vec![
            AccessEvent::new(SeqNo(0), ClientId(3), FileId(1), AccessKind::Read),
            AccessEvent::new(SeqNo(1), ClientId(1), FileId(2), AccessKind::Read),
            AccessEvent::new(SeqNo(2), ClientId(3), FileId(3), AccessKind::Read),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.clients(), vec![ClientId(1), ClientId(3)]);
    }

    #[test]
    fn iterate_by_reference() {
        let t = Trace::from_files([4, 5]);
        let files: Vec<FileId> = (&t).into_iter().map(|e| e.file).collect();
        assert_eq!(files, vec![FileId(4), FileId(5)]);
    }
}
