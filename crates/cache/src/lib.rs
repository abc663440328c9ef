//! Cache simulation substrate.
//!
//! The paper evaluates whole-file caches driven by access traces. This
//! crate provides the [`Cache`] trait those simulations are written
//! against, plus four replacement policies:
//!
//! * [`LruCache`] — least-recently-used; the paper's client cache and the
//!   base of the aggregating cache.
//! * [`LfuCache`] — least-frequently-used; the paper's server baseline.
//! * [`TwoQCache`] (2Q) — the scan-resistant strong baseline: within 2.6
//!   points of the best of eight plain policies at every Fig. 4 point
//!   (EXPERIMENTS.md), and still far below the aggregating cache.
//! * [`LandlordCache`] — Young's size/cost-aware Landlord algorithm;
//!   with uniform sizes and costs it is bit-identical to LRU.
//!
//! All policies support **speculative insertion** — placing a file at the
//! lowest retention priority without counting a demand access — which is
//! how group members enter a cache in the paper's §3 ("the remaining
//! members of the group appended to the end" of the LRU list).
//!
//! [`filter::miss_stream`] runs a trace through an *intervening cache* and
//! returns the miss stream, the workload a file server actually observes
//! (paper §4.3).
//!
//! # Examples
//!
//! ```
//! use fgcache_cache::{Cache, LruCache};
//! use fgcache_types::FileId;
//!
//! let mut cache = LruCache::new(2);
//! assert!(cache.access(FileId(1)).is_miss());
//! assert!(cache.access(FileId(2)).is_miss());
//! assert!(cache.access(FileId(1)).is_hit());
//! assert!(cache.access(FileId(3)).is_miss()); // evicts 2, the LRU entry
//! assert!(!cache.contains(FileId(2)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod filter;
mod landlord;
mod lfu;
mod list;
mod lru;
mod policy;
mod stats;
mod twoq;

pub use filter::FilterCache;
pub use landlord::LandlordCache;
pub use lfu::LfuCache;
pub use lru::LruCache;
pub use policy::{ParsePolicyError, PolicyKind};
pub use stats::CacheStats;
pub use twoq::TwoQCache;

use fgcache_types::{AccessOutcome, FileId, InvariantViolation};

/// A whole-file cache with a fixed capacity (in files).
///
/// Implementations maintain [`CacheStats`] and never exceed their capacity.
/// The trait is object-safe; experiment drivers use `Box<dyn Cache>` to
/// sweep across policies (see [`PolicyKind::build`]).
pub trait Cache {
    /// Processes a demand access to `file`.
    ///
    /// On a hit the entry's retention priority is refreshed according to
    /// the policy; on a miss the file is fetched into the cache (evicting
    /// if full). Statistics are updated either way.
    fn access(&mut self, file: FileId) -> AccessOutcome;

    /// Inserts `file` speculatively at the lowest retention priority the
    /// policy supports, without recording a demand access.
    ///
    /// Used for group members fetched alongside a requested file. If the
    /// file is already resident its priority is left unchanged. Returns
    /// `true` if the file was newly inserted.
    fn insert_speculative(&mut self, file: FileId) -> bool;

    /// Inserts a batch of speculative entries, preserving `files` order as
    /// the retention order among the batch (first = retained longest).
    ///
    /// The default implementation simply inserts one by one **in reverse**,
    /// which gives the same relative order for policies whose speculative
    /// inserts go to the eviction end. Policies may override this to make
    /// room for the whole batch up front so that batch members do not
    /// evict each other (see [`LruCache`]).
    fn insert_speculative_batch(&mut self, files: &[FileId]) {
        for &f in files.iter().rev() {
            self.insert_speculative(f);
        }
    }

    /// Returns `true` if `file` is resident.
    fn contains(&self, file: FileId) -> bool;

    /// Number of resident files.
    fn len(&self) -> usize;

    /// Returns `true` if no files are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of resident files.
    fn capacity(&self) -> usize;

    /// Accumulated statistics.
    fn stats(&self) -> &CacheStats;

    /// Short, stable policy name (e.g. `"lru"`).
    fn name(&self) -> &'static str;

    /// Drops all resident files and resets statistics.
    fn clear(&mut self);

    /// Audits the cache's internal redundant state (index maps vs ordered
    /// structures, size bounds, statistics arithmetic) and reports the
    /// first inconsistency found.
    ///
    /// This is a debug facility: it may walk every entry and is not meant
    /// for hot paths. The workspace's differential fuzzer calls it after
    /// every operation; `xtask lint` requires every policy to provide it.
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantViolation`] describing the first violated
    /// structural invariant.
    fn check_invariants(&self) -> Result<(), InvariantViolation>;
}

impl<C: Cache + ?Sized> Cache for Box<C> {
    fn access(&mut self, file: FileId) -> AccessOutcome {
        (**self).access(file)
    }
    fn insert_speculative(&mut self, file: FileId) -> bool {
        (**self).insert_speculative(file)
    }
    fn insert_speculative_batch(&mut self, files: &[FileId]) {
        (**self).insert_speculative_batch(files)
    }
    fn contains(&self, file: FileId) -> bool {
        (**self).contains(file)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn capacity(&self) -> usize {
        (**self).capacity()
    }
    fn stats(&self) -> &CacheStats {
        (**self).stats()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn clear(&mut self) {
        (**self).clear()
    }
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        (**self).check_invariants()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared conformance tests run against every policy.

    use super::*;

    /// Exercises the invariants every `Cache` implementation must uphold.
    pub(crate) fn check_cache_conformance<C: Cache>(make: impl Fn(usize) -> C) {
        // Capacity is never exceeded and len tracks contents.
        let mut c = make(3);
        for i in 0..10 {
            c.access(FileId(i));
            assert!(c.len() <= 3, "{}: len exceeded capacity", c.name());
            c.check_invariants()
                .unwrap_or_else(|v| panic!("{}: {v}", c.name()));
        }
        // Some policies (e.g. 2Q) intentionally hold fewer residents than
        // capacity under a pure sequential scan, so only bound the size.
        assert!(
            c.len() >= 1 && c.len() <= 3,
            "{}: len {} out of range",
            c.name(),
            c.len()
        );
        assert_eq!(c.capacity(), 3);

        // Hit/miss accounting adds up.
        let s = c.stats();
        assert_eq!(s.accesses, 10);
        assert_eq!(s.hits + s.misses, s.accesses);

        // A resident file hits; contains() agrees with access outcomes.
        let mut c = make(2);
        assert!(c.access(FileId(7)).is_miss());
        assert!(c.contains(FileId(7)));
        assert!(c.access(FileId(7)).is_hit());

        // Speculative insertion does not count accesses, does hold the file.
        let mut c = make(4);
        assert!(c.insert_speculative(FileId(1)));
        assert!(c.contains(FileId(1)));
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().speculative_inserts, 1);
        // Re-inserting an already-resident file reports false.
        assert!(!c.insert_speculative(FileId(1)));

        // A demand hit on a speculative entry is counted as a speculative hit.
        let mut c = make(4);
        c.insert_speculative(FileId(9));
        assert!(c.access(FileId(9)).is_hit(), "{}", c.name());
        assert_eq!(c.stats().speculative_hits, 1);
        // Only the first hit counts as speculative.
        c.access(FileId(9));
        assert_eq!(c.stats().speculative_hits, 1);

        // clear() empties the cache and resets statistics.
        let mut c = make(2);
        c.access(FileId(1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.contains(FileId(1)));

        // Batch speculative insertion never exceeds capacity.
        let mut c = make(2);
        c.insert_speculative_batch(&[FileId(1), FileId(2), FileId(3)]);
        assert!(c.len() <= 2, "{}: batch overflowed", c.name());

        // Eviction accounting: inserted-but-not-resident files were evicted.
        let mut c = make(2);
        for i in 0..6 {
            c.access(FileId(i));
        }
        let s = c.stats();
        assert_eq!(
            s.misses as usize - c.len(),
            s.evictions as usize,
            "{}: eviction accounting",
            c.name()
        );
    }
}
