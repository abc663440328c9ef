//! `fgcache entropy` — successor-entropy analysis (figures 7/8).
//!
//! All symbol lengths are accumulated in one streaming pass
//! ([`EntropyAccumulator`]); the optional `--filter` LRU runs inline on
//! the same pass, so even the figure-8 miss-stream analysis never
//! materializes the trace.

use std::error::Error;

use fgcache_cache::{Cache, LruCache};
use fgcache_entropy::EntropyAccumulator;
use fgcache_trace::io::TraceIoError;
#[cfg(test)]
use fgcache_trace::Trace;
use fgcache_types::AccessEvent;

use crate::args::Args;
use crate::commands::open_trace_events;

#[cfg(test)] // the materialized twin survives as the differential-test oracle
pub(crate) fn report(
    trace: &Trace,
    max_k: usize,
    filter: Option<usize>,
) -> Result<String, Box<dyn Error>> {
    report_events(
        trace
            .events()
            .iter()
            .map(|ev| Ok::<AccessEvent, TraceIoError>(*ev)),
        max_k,
        filter,
    )
}

/// Streaming twin of the test-only `report`: one pass over the events
/// for every symbol length (and the filter cache, when present) at once.
pub(crate) fn report_events<I>(
    events: I,
    max_k: usize,
    filter: Option<usize>,
) -> Result<String, Box<dyn Error>>
where
    I: IntoIterator<Item = Result<AccessEvent, TraceIoError>>,
{
    let ks: Vec<usize> = (1..=max_k.max(1)).collect();
    let mut acc = EntropyAccumulator::new(&ks)?;
    let mut out = String::new();
    match filter {
        Some(capacity) => {
            if capacity == 0 {
                return Err("--filter must be greater than zero".into());
            }
            out.push_str(&format!(
                "successor entropy of the miss stream behind an LRU filter of {capacity} files\n"
            ));
            let mut cache = LruCache::new(capacity);
            for ev in events {
                let file = ev?.file;
                if cache.access(file).is_miss() {
                    acc.push(file);
                }
            }
        }
        None => {
            out.push_str("successor entropy of the raw access stream\n");
            for ev in events {
                acc.push(ev?.file);
            }
        }
    }
    let analyses = acc.analyses();
    out.push_str(" k   bits\n");
    for a in &analyses {
        out.push_str(&format!("{:>2}  {:5.2}\n", a.symbol_length, a.entropy));
    }
    if filter.is_none() {
        let analysis = &analyses[0]; // ks starts at 1: the single-successor detail
        out.push_str(&format!(
            "\nrepeating files {} | singleton files {} | top unpredictable contexts:\n",
            analysis.repeating_files, analysis.singleton_files
        ));
        for e in analysis.per_file.iter().take(5) {
            out.push_str(&format!(
                "  {}  weight {:.3}  H {:.2} bits  ({} successors over {} transitions)\n",
                e.file, e.weight, e.conditional_entropy, e.distinct_successors, e.transitions
            ));
        }
    }
    Ok(out)
}

pub fn run(tokens: &[String]) -> Result<(), Box<dyn Error>> {
    let args = Args::parse(tokens.iter().cloned())?;
    args.check_known(&["format", "max-k", "filter"])?;
    let path = args.require_positional(0, "trace")?;
    let max_k = args.flag_or("max-k", 8usize)?;
    let filter = match args.flag("filter") {
        Some(raw) => Some(raw.parse().map_err(|_| "invalid --filter")?),
        None => None,
    };
    let events = open_trace_events(path, args.flag("format"))?;
    print!("{}", report_events(events, max_k, filter)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_report_lists_all_k() {
        let trace = Trace::from_files([1, 2, 3].repeat(30));
        let text = report(&trace, 4, None).unwrap();
        assert!(text.contains(" 1   0.00"));
        assert!(text.contains(" 4 "));
        assert!(text.contains("repeating files"));
    }

    #[test]
    fn filtered_report_mentions_filter() {
        let trace = Trace::from_files([1, 2, 3, 4].repeat(30));
        let text = report(&trace, 2, Some(2)).unwrap();
        assert!(text.contains("LRU filter of 2 files"));
    }

    #[test]
    fn zero_filter_is_a_clean_error() {
        let trace = Trace::from_files([1, 2, 3]);
        let err = report(&trace, 2, Some(0)).unwrap_err();
        assert!(err.to_string().contains("--filter"));
    }

    #[test]
    fn streaming_report_matches_materialized_profiles() {
        // The report now streams through the accumulator; pin its table
        // to the materialized library profile, raw and filtered.
        let trace = Trace::from_files((0..600u64).map(|i| (i * 7) % 41));
        let ks: Vec<usize> = (1..=5).collect();

        let raw = report(&trace, 5, None).unwrap();
        let profile = fgcache_entropy::entropy_profile(&trace.file_sequence(), &ks).unwrap();
        for (k, h) in profile {
            assert!(
                raw.contains(&format!("{k:>2}  {h:5.2}")),
                "k={k} in:\n{raw}"
            );
        }

        let filtered = report(&trace, 5, Some(8)).unwrap();
        let profile = fgcache_entropy::filtered_entropy_profile(&trace, 8, &ks).unwrap();
        for (k, h) in profile {
            assert!(
                filtered.contains(&format!("{k:>2}  {h:5.2}")),
                "k={k} in:\n{filtered}"
            );
        }
    }
}
