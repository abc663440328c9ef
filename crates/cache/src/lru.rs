//! Least-recently-used cache over an intrusive doubly-linked list.
//!
//! This is the workhorse of the workspace: the paper's client caches and
//! the intervening filter caches are LRU, and the aggregating cache keeps
//! the same order in its own per-file directory (`fgcache-core`), which
//! its differential fuzzer checks against this type. The implementation
//! keeps nodes in a slab (`Vec`) with index links, giving O(1) access,
//! insertion at either end and eviction without any unsafe code.

use fgcache_types::hash::FastMap;
use fgcache_types::{AccessOutcome, FileId, InvariantViolation};

use crate::{Cache, CacheStats};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    file: FileId,
    prev: usize,
    next: usize,
    speculative: bool,
}

/// An LRU cache of [`FileId`]s.
///
/// Demand accesses promote to the MRU head; speculative inserts go to the
/// LRU tail ("appended to the end" — paper §3), so unconfirmed group
/// members never displace confirmed working-set entries' priority.
///
/// ```
/// use fgcache_cache::{Cache, LruCache};
/// use fgcache_types::FileId;
///
/// let mut c = LruCache::new(3);
/// c.access(FileId(1));
/// c.access(FileId(2));
/// c.insert_speculative(FileId(3));
/// // The speculative entry is the first to go.
/// c.access(FileId(4));
/// assert!(!c.contains(FileId(3)));
/// assert!(c.contains(FileId(1)) && c.contains(FileId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    map: FastMap<FileId, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    stats: CacheStats,
    // Reused by insert_speculative_batch so steady-state batch inserts
    // allocate nothing (batches are group-sized: single digits).
    batch_scratch: Vec<FileId>,
}

impl LruCache {
    /// Creates an LRU cache holding at most `capacity` files.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be greater than zero");
        LruCache {
            capacity,
            map: FastMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::new(),
            batch_scratch: Vec::new(),
        }
    }

    /// Returns the resident files from most- to least-recently used.
    pub fn iter_mru(&self) -> IterMru<'_> {
        IterMru {
            cache: self,
            cursor: self.head,
        }
    }

    /// The file currently at the MRU head, if any.
    pub fn mru(&self) -> Option<FileId> {
        (self.head != NIL).then(|| self.nodes[self.head].file)
    }

    /// The file currently at the LRU tail (the next eviction victim), if
    /// any.
    pub fn lru(&self) -> Option<FileId> {
        (self.tail != NIL).then(|| self.nodes[self.tail].file)
    }

    fn alloc(&mut self, file: FileId, speculative: bool) -> usize {
        let node = Node {
            file,
            prev: NIL,
            next: NIL,
            speculative,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_head(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn push_tail(&mut self, idx: usize) {
        self.nodes[idx].next = NIL;
        self.nodes[idx].prev = self.tail;
        if self.tail != NIL {
            self.nodes[self.tail].next = idx;
        }
        self.tail = idx;
        if self.head == NIL {
            self.head = idx;
        }
    }

    /// Moves `file` to the MRU head **without** recording an access or
    /// clearing its speculative flag. Returns whether the file was
    /// resident.
    ///
    /// Supports a head-insertion placement, where speculative group
    /// members are placed directly below the requested file instead of at
    /// the tail.
    pub fn promote_to_head(&mut self, file: FileId) -> bool {
        match self.map.get(&file).copied() {
            Some(idx) => {
                self.detach(idx);
                self.push_head(idx);
                true
            }
            None => false,
        }
    }

    /// Evicts `file` regardless of its recency position, recording the
    /// eviction exactly as a tail eviction would. Returns whether the
    /// file was resident.
    ///
    /// Supports whole-group (bundle) eviction, where reclaiming the LRU
    /// victim also reclaims its still-resident co-fetched group members,
    /// wherever they sit in the recency order.
    pub fn evict_file(&mut self, file: FileId) -> bool {
        match self.map.remove(&file) {
            Some(idx) => {
                self.detach(idx);
                self.free.push(idx);
                self.stats.record_eviction();
                true
            }
            None => false,
        }
    }

    /// Records a miss in the statistics **without** admitting the file —
    /// the demand was served but nothing entered the cache.
    ///
    /// Used by size-aware wrappers for files larger than the entire
    /// cache: the fetch happens (and is charged), but admission is
    /// impossible. The count-based model has no such case, so plain LRU
    /// never calls this.
    pub fn record_bypass_miss(&mut self) {
        self.stats.record_miss();
    }

    /// Evicts the LRU tail entry, returning its file.
    fn evict_tail(&mut self) -> Option<FileId> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let file = self.nodes[idx].file;
        self.detach(idx);
        self.map.remove(&file);
        self.free.push(idx);
        self.stats.record_eviction();
        Some(file)
    }
}

impl Cache for LruCache {
    fn access(&mut self, file: FileId) -> AccessOutcome {
        if let Some(&idx) = self.map.get(&file) {
            let was_speculative = std::mem::replace(&mut self.nodes[idx].speculative, false);
            self.detach(idx);
            self.push_head(idx);
            self.stats.record_hit(was_speculative);
            AccessOutcome::Hit
        } else {
            self.stats.record_miss();
            if self.map.len() == self.capacity {
                self.evict_tail();
            }
            let idx = self.alloc(file, false);
            self.push_head(idx);
            self.map.insert(file, idx);
            AccessOutcome::Miss
        }
    }

    fn insert_speculative(&mut self, file: FileId) -> bool {
        if self.map.contains_key(&file) {
            return false;
        }
        if self.map.len() == self.capacity {
            self.evict_tail();
        }
        let idx = self.alloc(file, true);
        self.push_tail(idx);
        self.map.insert(file, idx);
        self.stats.record_speculative_insert();
        true
    }

    /// Appends the batch at the LRU tail in `files` order (first member of
    /// the batch is evicted last among the batch), making room for the
    /// whole batch **before** inserting so batch members never evict each
    /// other.
    fn insert_speculative_batch(&mut self, files: &[FileId]) {
        // Dedup by linear scan into a reused scratch buffer: batches are
        // group-sized (single digits), where a scan beats a hash set and
        // a reused Vec means zero steady-state allocation.
        let mut fresh = std::mem::take(&mut self.batch_scratch);
        fresh.clear();
        for &file in files {
            if fresh.len() == self.capacity {
                break;
            }
            if !self.map.contains_key(&file) && !fresh.contains(&file) {
                fresh.push(file);
            }
        }
        let needed = (self.map.len() + fresh.len()).saturating_sub(self.capacity);
        for _ in 0..needed {
            self.evict_tail();
        }
        for &file in &fresh {
            let idx = self.alloc(file, true);
            self.push_tail(idx);
            self.map.insert(file, idx);
            self.stats.record_speculative_insert();
        }
        self.batch_scratch = fresh;
    }

    fn contains(&self, file: FileId) -> bool {
        self.map.contains_key(&file)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "lru"
    }

    fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.stats = CacheStats::new();
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let err = |detail: String| Err(InvariantViolation::new("LruCache", detail));
        if self.map.len() > self.capacity {
            return err(format!(
                "len {} exceeds capacity {}",
                self.map.len(),
                self.capacity
            ));
        }
        if self.map.len() + self.free.len() != self.nodes.len() {
            return err(format!(
                "slab accounting: {} mapped + {} free != {} slots",
                self.map.len(),
                self.free.len(),
                self.nodes.len()
            ));
        }
        // Walk head→tail checking link symmetry and map agreement.
        let mut seen = 0usize;
        let mut prev = NIL;
        let mut cursor = self.head;
        while cursor != NIL {
            if cursor >= self.nodes.len() {
                return err(format!("link points to out-of-slab index {cursor}"));
            }
            let node = &self.nodes[cursor];
            if node.prev != prev {
                return err(format!(
                    "broken back-link at slot {cursor} ({} != expected {})",
                    node.prev, prev
                ));
            }
            if self.map.get(&node.file) != Some(&cursor) {
                return err(format!("map disagrees with chain for {}", node.file));
            }
            seen += 1;
            if seen > self.map.len() {
                return err("chain longer than map (cycle or stray node)".to_string());
            }
            prev = cursor;
            cursor = node.next;
        }
        if seen != self.map.len() {
            return err(format!(
                "chain has {seen} nodes, map has {}",
                self.map.len()
            ));
        }
        if prev != self.tail {
            return err(format!("tail is {}, walk ended at {prev}", self.tail));
        }
        for &idx in &self.free {
            if idx >= self.nodes.len() {
                return err(format!("free list holds out-of-slab index {idx}"));
            }
            if self.map.get(&self.nodes[idx].file) == Some(&idx) {
                return err(format!("slot {idx} is both free and mapped"));
            }
        }
        self.stats.check("LruCache")
    }
}

/// Iterator over resident files from MRU to LRU, produced by
/// [`LruCache::iter_mru`].
#[derive(Debug)]
pub struct IterMru<'a> {
    cache: &'a LruCache,
    cursor: usize,
}

impl Iterator for IterMru<'_> {
    type Item = FileId;

    fn next(&mut self) -> Option<FileId> {
        if self.cursor == NIL {
            return None;
        }
        let node = &self.cache.nodes[self.cursor];
        self.cursor = node.next;
        Some(node.file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::check_cache_conformance;

    fn files(c: &LruCache) -> Vec<u64> {
        c.iter_mru().map(|f| f.as_u64()).collect()
    }

    #[test]
    fn conformance() {
        check_cache_conformance(LruCache::new);
    }

    #[test]
    fn corrupted_index_is_detected() {
        let mut c = LruCache::new(3);
        c.access(FileId(1));
        c.access(FileId(2));
        assert!(c.check_invariants().is_ok());
        // Point the index at the wrong slab slot.
        let idx = c.map[&FileId(1)];
        c.map.insert(FileId(1), (idx + 1) % c.nodes.len());
        assert!(c.check_invariants().is_err());
    }

    #[test]
    fn corrupted_stats_are_detected() {
        let mut c = LruCache::new(3);
        c.access(FileId(1));
        assert!(c.check_invariants().is_ok());
        c.stats.hits += 1;
        assert!(c.check_invariants().is_err());
    }

    #[test]
    #[should_panic(expected = "capacity must be greater than zero")]
    fn zero_capacity_panics() {
        let _ = LruCache::new(0);
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut c = LruCache::new(3);
        c.access(FileId(1));
        c.access(FileId(2));
        c.access(FileId(3));
        c.access(FileId(1)); // refresh 1; LRU is now 2
        c.access(FileId(4)); // evicts 2
        assert!(!c.contains(FileId(2)));
        assert_eq!(files(&c), vec![4, 1, 3]);
    }

    #[test]
    fn mru_and_lru_accessors() {
        let mut c = LruCache::new(3);
        assert_eq!(c.mru(), None);
        assert_eq!(c.lru(), None);
        c.access(FileId(1));
        c.access(FileId(2));
        assert_eq!(c.mru(), Some(FileId(2)));
        assert_eq!(c.lru(), Some(FileId(1)));
    }

    #[test]
    fn speculative_goes_to_tail() {
        let mut c = LruCache::new(3);
        c.access(FileId(1));
        c.insert_speculative(FileId(9));
        assert_eq!(c.lru(), Some(FileId(9)));
        assert_eq!(c.mru(), Some(FileId(1)));
    }

    #[test]
    fn speculative_hit_promotes_to_head() {
        let mut c = LruCache::new(3);
        c.access(FileId(1));
        c.insert_speculative(FileId(9));
        assert!(c.access(FileId(9)).is_hit());
        assert_eq!(c.mru(), Some(FileId(9)));
        assert_eq!(c.stats().speculative_hits, 1);
    }

    #[test]
    fn batch_members_do_not_evict_each_other() {
        let mut c = LruCache::new(4);
        c.access(FileId(1));
        c.access(FileId(2));
        c.access(FileId(3));
        c.access(FileId(4));
        // Batch of 3 into a full cache of 4: evicts the 3 LRU entries
        // (1, 2, 3), keeps the whole batch.
        c.insert_speculative_batch(&[FileId(10), FileId(11), FileId(12)]);
        assert_eq!(c.len(), 4);
        assert!(c.contains(FileId(4)));
        assert!(c.contains(FileId(10)));
        assert!(c.contains(FileId(11)));
        assert!(c.contains(FileId(12)));
    }

    #[test]
    fn batch_order_determines_eviction_order() {
        let mut c = LruCache::new(3);
        c.insert_speculative_batch(&[FileId(1), FileId(2), FileId(3)]);
        // Tail is the last batch member.
        assert_eq!(c.lru(), Some(FileId(3)));
        c.access(FileId(4)); // evicts 3
        assert!(!c.contains(FileId(3)));
        assert!(c.contains(FileId(1)));
    }

    #[test]
    fn batch_skips_resident_and_duplicates() {
        let mut c = LruCache::new(5);
        c.access(FileId(1));
        c.insert_speculative_batch(&[FileId(1), FileId(2), FileId(2), FileId(3)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().speculative_inserts, 2);
    }

    #[test]
    fn batch_larger_than_capacity_keeps_prefix() {
        let mut c = LruCache::new(2);
        c.insert_speculative_batch(&[FileId(1), FileId(2), FileId(3), FileId(4)]);
        assert_eq!(c.len(), 2);
        assert!(c.contains(FileId(1)));
        assert!(c.contains(FileId(2)));
    }

    #[test]
    fn capacity_one_behaves() {
        let mut c = LruCache::new(1);
        c.access(FileId(1));
        c.access(FileId(2));
        assert!(!c.contains(FileId(1)));
        assert!(c.contains(FileId(2)));
        assert_eq!(c.len(), 1);
        assert!(c.access(FileId(2)).is_hit());
    }

    #[test]
    fn slab_reuse_after_eviction() {
        let mut c = LruCache::new(2);
        for i in 0..100 {
            c.access(FileId(i));
        }
        // Slab should not grow beyond capacity + O(1).
        assert!(c.nodes.len() <= 3, "slab grew to {}", c.nodes.len());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn iter_mru_full_order() {
        let mut c = LruCache::new(4);
        for i in [1, 2, 3] {
            c.access(FileId(i));
        }
        c.access(FileId(2));
        assert_eq!(files(&c), vec![2, 3, 1]);
    }
}
