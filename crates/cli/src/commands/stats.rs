//! `fgcache stats` — summarise a trace.
//!
//! Statistics are computed in a single streaming pass
//! ([`TraceStatsBuilder`]) so multi-gigabyte traces summarise in memory
//! bounded by their distinct-file count, not their length.

use std::error::Error;

use fgcache_trace::io::TraceIoError;
use fgcache_trace::stats::{TraceStats, TraceStatsBuilder};
#[cfg(test)]
use fgcache_trace::Trace;
use fgcache_types::AccessEvent;

use crate::args::Args;
use crate::commands::open_trace_events;

#[cfg(test)] // the materialized twin survives as the differential-test oracle
pub(crate) fn report(trace: &Trace) -> String {
    render(&TraceStats::compute(trace))
}

/// Streaming twin of the test-only `report`: consumes the events once, never holding
/// more than the builder's distinct-file table.
pub(crate) fn report_events<I>(events: I) -> Result<String, TraceIoError>
where
    I: IntoIterator<Item = Result<AccessEvent, TraceIoError>>,
{
    let mut builder = TraceStatsBuilder::new();
    for ev in events {
        builder.push(&ev?);
    }
    Ok(render(&builder.finish()))
}

fn render(s: &TraceStats) -> String {
    let mut out = String::new();
    out.push_str(&format!("events            {}\n", s.events));
    out.push_str(&format!("unique files      {}\n", s.unique_files));
    out.push_str(&format!("clients           {}\n", s.clients));
    out.push_str(&format!(
        "kinds             R {} / W {} / C {} / D {}\n",
        s.reads, s.writes, s.creates, s.deletes
    ));
    out.push_str(&format!(
        "repeat fraction   {:.1}%\n",
        s.repeat_fraction() * 100.0
    ));
    out.push_str(&format!(
        "mutation fraction {:.1}%\n",
        s.mutation_fraction() * 100.0
    ));
    out.push_str(&format!("singleton files   {}\n", s.singleton_files));
    out.push_str(&format!("hottest file hits {}\n", s.max_file_accesses));
    out.push_str(&format!(
        "top-1% share      {:.1}%\n",
        s.top_percent_share * 100.0
    ));
    out
}

pub fn run(tokens: &[String]) -> Result<(), Box<dyn Error>> {
    let args = Args::parse(tokens.iter().cloned())?;
    args.check_known(&["format"])?;
    let path = args.require_positional(0, "trace")?;
    let events = open_trace_events(path, args.flag("format"))?;
    print!("{}", report_events(events)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_key_lines() {
        let trace = Trace::from_files([1, 2, 1, 3]);
        let text = report(&trace);
        assert!(text.contains("events            4"));
        assert!(text.contains("unique files      3"));
    }

    #[test]
    fn report_events_matches_materialized_report() {
        let trace = Trace::from_files((0..200u64).map(|i| i % 13));
        let streamed = report_events(
            trace
                .events()
                .iter()
                .map(|ev| Ok::<AccessEvent, TraceIoError>(*ev)),
        )
        .unwrap();
        assert_eq!(streamed, report(&trace));
    }

    #[test]
    fn report_events_propagates_reader_errors() {
        let events = vec![
            Ok(AccessEvent::read(0, 1)),
            Err(TraceIoError::Validation(
                fgcache_types::ValidationError::new("events", "boom"),
            )),
        ];
        assert!(report_events(events).is_err());
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = run(&["/nonexistent/trace.txt".to_string()]).unwrap_err();
        assert!(err.to_string().contains("cannot open"));
    }

    #[test]
    fn missing_positional_is_reported() {
        let err = run(&[]).unwrap_err();
        assert!(err.to_string().contains("<trace>"));
    }
}
