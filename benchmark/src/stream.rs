//! The benchmark's inputs: seeded fetch streams.
//!
//! A *fetch* is the one file a client's private LRU filter just missed
//! (the paper's §4.3 topology), so a stream is a Zipf-run access stream
//! passed through a small LRU and reduced to its misses. The program
//! under test receives only these file ids; the same seed always yields
//! the same stream.

use fgcache_cache::{FilterCache, LruCache};
use fgcache_sim::cluster::zipf_run_stream;
use fgcache_types::FileId;

/// Raw accesses generated per stream, before the client filter.
pub const RAW_EVENTS: u64 = 2_000_000;

/// Sequential run emitted per Zipf draw: the successor structure the
/// server's grouping can learn.
pub const RUN_LENGTH: usize = 6;

/// Capacity of the client-side LRU filter in front of the server.
pub const FILTER_CAPACITY: usize = 64;

/// Which of the two input distributions a stream draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Small universe, steep Zipf: the server tier hits ≈95 % of fetches,
    /// so the `core` hit path does nearly all the work.
    Hot,
    /// Large universe, shallow Zipf: under half the fetches hit, and every
    /// miss builds a group, inserts speculatively and evicts.
    Cold,
}

impl StreamKind {
    /// Number of distinct files.
    pub fn universe(self) -> usize {
        match self {
            StreamKind::Hot => 12_000,
            StreamKind::Cold => 200_000,
        }
    }

    /// Zipf exponent.
    pub fn exponent(self) -> f64 {
        match self {
            StreamKind::Hot => 1.1,
            StreamKind::Cold => 0.8,
        }
    }

    /// Short name used in ledger output.
    pub fn name(self) -> &'static str {
        match self {
            StreamKind::Hot => "hot",
            StreamKind::Cold => "cold",
        }
    }
}

/// The raw (unfiltered) access stream of `kind` for `seed`.
///
/// # Panics
///
/// Panics if the fixed generator parameters are rejected, which would be
/// a bug in this file.
pub fn raw_events(kind: StreamKind, seed: u64, events: u64) -> impl Iterator<Item = FileId> {
    zipf_run_stream(kind.universe(), kind.exponent(), RUN_LENGTH, seed, events)
        .expect("the benchmark's fixed Zipf parameters are valid")
}

/// Passes `events` through the client filter and keeps the misses: the
/// fetch stream a server behind that client sees. Returns the stream and
/// the filter's hit rate.
pub fn filter_misses(events: impl Iterator<Item = FileId>) -> (Vec<FileId>, f64) {
    let mut filter = FilterCache::new(LruCache::new(FILTER_CAPACITY));
    let fetches: Vec<FileId> = events.filter(|&file| filter.offer_file(file)).collect();
    (fetches, filter.stats().hit_rate())
}

/// The fetch stream of `kind` for `seed`, replayed cyclically by the
/// workloads.
pub fn fetch_stream(kind: StreamKind, seed: u64) -> Vec<FileId> {
    filter_misses(raw_events(kind, seed, RAW_EVENTS)).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(stream: &[FileId]) -> Vec<u64> {
        stream.iter().take(16).map(|f| f.0).collect()
    }

    #[test]
    fn streams_are_pinned_by_seed() {
        let hot = fetch_stream(StreamKind::Hot, 2002);
        let cold = fetch_stream(StreamKind::Cold, 2002);
        assert_eq!(hot.len(), HOT_LEN_SEED_2002);
        assert_eq!(cold.len(), COLD_LEN_SEED_2002);
        assert_eq!(head(&hot), HOT_HEAD_SEED_2002);
        assert_eq!(head(&cold), COLD_HEAD_SEED_2002);
        // Same seed, same stream; another seed, another stream.
        assert_eq!(fetch_stream(StreamKind::Hot, 2002), hot);
        let other = fetch_stream(StreamKind::Hot, 2003);
        assert_ne!(head(&other), head(&hot));
        assert_ne!(other.len(), hot.len());
        let other = fetch_stream(StreamKind::Cold, 7);
        assert_ne!(head(&other), head(&cold));
        assert_ne!(other.len(), cold.len());
    }

    #[test]
    fn every_fetch_is_inside_the_universe() {
        for kind in [StreamKind::Hot, StreamKind::Cold] {
            let stream = fetch_stream(kind, 5);
            assert!(stream.iter().all(|f| (f.0 as usize) < kind.universe()));
        }
    }

    const HOT_LEN_SEED_2002: usize = 1_092_836;
    const COLD_LEN_SEED_2002: usize = 1_941_090;
    const HOT_HEAD_SEED_2002: [u64; 16] =
        [26, 27, 28, 29, 30, 31, 0, 1, 2, 3, 4, 5, 79, 80, 81, 82];
    const COLD_HEAD_SEED_2002: [u64; 16] = [
        9774, 9775, 9776, 9777, 9778, 9779, 3, 4, 5, 6, 7, 8, 22974, 22975, 22976, 22977,
    ];
}
