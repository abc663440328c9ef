//! The aggregating cache's per-file directory: every file's LRU residency
//! and its recency-ranked successor list, behind one hash map.
//!
//! The paper keeps two pieces of state per file (§3): its place in the
//! LRU order and a short list of immediate successors, most recent
//! first. Both live here in one record per file, reached through a
//! single `FileId → slot` map:
//!
//! * `records[slot]` holds the file, its LRU links (slot indices), its
//!   resident and speculative bits and its successor count;
//! * `rows[slot * stride..][..count]` holds its successors as **slot
//!   indices**, most recent first; `stride` is the successor capacity.
//!
//! An access therefore hashes once, for the requested file. Recording
//! the transition from the previous file writes that file's row by
//! index; a hit relinks the record; a miss walks the successor chain
//! through rows by index and reads each member's residency from its
//! record. A record outlives its residency — a file's successors are
//! remembered after it is evicted — so only [`Directory::clear`] frees
//! records, and a slot names the same file until then.

use std::collections::hash_map::Entry;

use fgcache_cache::CacheStats;
use fgcache_types::hash::FastMap;
use fgcache_types::{FileId, InvariantViolation};

/// The null link; never a valid slot.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Record {
    file: FileId,
    prev: u32,
    next: u32,
    successors: u32,
    resident: bool,
    speculative: bool,
}

/// LRU residency plus per-file successor rows for one aggregating cache.
///
/// The LRU half behaves exactly like `fgcache_cache::LruCache` (demand
/// misses enter at the MRU head, speculative inserts at the LRU tail, a
/// full cache evicts its tail) and the successor half exactly like a
/// `SuccessorTable<LruSuccessorList>`; the aggregating cache composes
/// them operation for operation as it composed those two types.
#[derive(Debug, Clone)]
pub(crate) struct Directory {
    capacity: usize,
    stride: usize,
    slots: FastMap<FileId, u32>,
    records: Vec<Record>,
    rows: Vec<u32>,
    head: u32,
    tail: u32,
    resident: usize,
    last: Option<u32>,
    transitions: u64,
    stats: CacheStats,
}

impl Directory {
    /// An empty directory holding at most `capacity` resident files and
    /// `successor_capacity` successors per file (both non-zero).
    pub(crate) fn new(capacity: usize, successor_capacity: usize) -> Self {
        // Every resident file needs a record, so a cache that fills up
        // holds at least `capacity` of them.
        let reserve = capacity.min(1 << 20);
        Directory {
            capacity,
            stride: successor_capacity,
            slots: FastMap::with_capacity_and_hasher(reserve, Default::default()),
            records: Vec::with_capacity(reserve),
            rows: Vec::with_capacity(reserve.saturating_mul(successor_capacity)),
            head: NIL,
            tail: NIL,
            resident: 0,
            last: None,
            transitions: 0,
            stats: CacheStats::new(),
        }
    }

    /// The slot of `file`, creating its record on first sight. This is
    /// the one hash probe an access makes.
    pub(crate) fn slot(&mut self, file: FileId) -> u32 {
        let fresh = self.records.len();
        match self.slots.entry(file) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let slot = u32::try_from(fresh)
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("a directory holds fewer than 2^32 - 1 files");
                e.insert(slot);
                self.records.push(Record {
                    file,
                    prev: NIL,
                    next: NIL,
                    successors: 0,
                    resident: false,
                    speculative: false,
                });
                self.rows.resize(self.rows.len() + self.stride, NIL);
                slot
            }
        }
    }

    /// The slot of `file` if it has a record.
    pub(crate) fn find(&self, file: FileId) -> Option<u32> {
        self.slots.get(&file).copied()
    }

    /// The file a slot names.
    pub(crate) fn file(&self, slot: u32) -> FileId {
        self.records[slot as usize].file
    }

    /// Whether the slot's file is resident.
    pub(crate) fn is_resident(&self, slot: u32) -> bool {
        self.records[slot as usize].resident
    }

    /// Records an access to `slot` in the successor lists: the previously
    /// recorded file gains `slot` as its most recent successor.
    pub(crate) fn record(&mut self, slot: u32) {
        if let Some(prev) = self.last.replace(slot) {
            self.transitions += 1;
            self.observe(prev, slot);
        }
    }

    /// Moves `succ` to the front of `owner`'s row, dropping the least
    /// recent successor when the row is full and `succ` is new.
    fn observe(&mut self, owner: u32, succ: u32) {
        let record = &mut self.records[owner as usize];
        let len = record.successors as usize;
        let start = owner as usize * self.stride;
        let row = &mut self.rows[start..start + self.stride];
        let shift = match row[..len].iter().position(|&s| s == succ) {
            Some(pos) => pos,
            None => {
                if len < self.stride {
                    record.successors += 1;
                }
                len.min(self.stride - 1)
            }
        };
        row.copy_within(..shift, 1);
        row[0] = succ;
    }

    /// The slot's successors, most recent first.
    fn successors(&self, slot: u32) -> &[u32] {
        let start = slot as usize * self.stride;
        let len = self.records[slot as usize].successors as usize;
        &self.rows[start..start + len]
    }

    /// The transitive successor chain of §3: from `start`, repeatedly
    /// follow the most recent successor, collecting up to `n` distinct
    /// slots other than `start` into `chain`. A successor already
    /// collected falls back to the next-ranked one; the walk stops when
    /// none is left.
    pub(crate) fn chain_into(&self, start: u32, n: usize, chain: &mut Vec<u32>) {
        chain.clear();
        let mut current = start;
        while chain.len() < n {
            let next = self
                .successors(current)
                .iter()
                .copied()
                .find(|&s| s != start && !chain.contains(&s));
            match next {
                Some(s) => {
                    chain.push(s);
                    current = s;
                }
                None => break,
            }
        }
    }

    fn detach(&mut self, slot: u32) {
        let Record { prev, next, .. } = self.records[slot as usize];
        if prev != NIL {
            self.records[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.records[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_head(&mut self, slot: u32) {
        let head = self.head;
        let record = &mut self.records[slot as usize];
        record.prev = NIL;
        record.next = head;
        if head != NIL {
            self.records[head as usize].prev = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
    }

    fn push_tail(&mut self, slot: u32) {
        let tail = self.tail;
        let record = &mut self.records[slot as usize];
        record.prev = tail;
        record.next = NIL;
        if tail != NIL {
            self.records[tail as usize].next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
    }

    /// Marks a non-resident slot resident (linking is the caller's).
    fn admit_record(&mut self, slot: u32, speculative: bool) {
        let record = &mut self.records[slot as usize];
        debug_assert!(!record.resident, "{} admitted twice", record.file);
        record.resident = true;
        record.speculative = speculative;
        self.resident += 1;
    }

    /// A demand hit on a resident slot: moves it to the MRU head and
    /// confirms it if it was speculative.
    pub(crate) fn hit(&mut self, slot: u32) {
        let was_speculative =
            std::mem::replace(&mut self.records[slot as usize].speculative, false);
        self.detach(slot);
        self.push_head(slot);
        self.stats.accesses += 1;
        self.stats.hits += 1;
        self.stats.speculative_hits += u64::from(was_speculative);
    }

    /// A demand miss admitted at the MRU head; a full cache evicts its
    /// LRU tail first.
    pub(crate) fn admit(&mut self, slot: u32) {
        self.record_miss();
        if self.resident == self.capacity {
            self.evict_tail();
        }
        self.admit_record(slot, false);
        self.push_head(slot);
    }

    /// A demand miss served without admission (a file larger than the
    /// whole cache).
    pub(crate) fn record_miss(&mut self) {
        self.stats.accesses += 1;
        self.stats.misses += 1;
    }

    /// Appends distinct non-resident slots at the LRU tail in `batch`
    /// order, evicting room for all of them first so batch members never
    /// evict each other.
    pub(crate) fn insert_speculative_batch(&mut self, batch: &[u32]) {
        debug_assert!(batch.len() <= self.capacity);
        let needed = (self.resident + batch.len()).saturating_sub(self.capacity);
        for _ in 0..needed {
            self.evict_tail();
        }
        for &slot in batch {
            self.admit_record(slot, true);
            self.push_tail(slot);
            self.stats.speculative_inserts += 1;
        }
    }

    /// Inserts one slot speculatively at the LRU tail, evicting the tail
    /// first when full. Returns `false` if it was already resident.
    pub(crate) fn insert_speculative(&mut self, slot: u32) -> bool {
        if self.is_resident(slot) {
            return false;
        }
        if self.resident == self.capacity {
            self.evict_tail();
        }
        self.admit_record(slot, true);
        self.push_tail(slot);
        self.stats.speculative_inserts += 1;
        true
    }

    /// Moves a resident slot to the MRU head without recording an access
    /// or confirming it.
    pub(crate) fn promote(&mut self, slot: u32) {
        self.detach(slot);
        self.push_head(slot);
    }

    /// Evicts `slot` wherever it sits in the LRU order. Returns whether
    /// it was resident.
    pub(crate) fn evict(&mut self, slot: u32) -> bool {
        if !self.is_resident(slot) {
            return false;
        }
        self.detach(slot);
        let record = &mut self.records[slot as usize];
        record.resident = false;
        record.speculative = false;
        self.resident -= 1;
        self.stats.evictions += 1;
        true
    }

    fn evict_tail(&mut self) {
        if self.tail != NIL {
            self.evict(self.tail);
        }
    }

    /// The LRU tail slot (the next eviction victim), if any.
    pub(crate) fn lru(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Resident files from MRU to LRU.
    pub(crate) fn iter_mru(&self) -> impl Iterator<Item = FileId> + '_ {
        let mut cursor = self.head;
        std::iter::from_fn(move || {
            let record = self.records.get(cursor as usize)?;
            cursor = record.next;
            Some(record.file)
        })
    }

    /// Files with at least one recorded successor.
    pub(crate) fn tracked_files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.records
            .iter()
            .filter(|r| r.successors > 0)
            .map(|r| r.file)
    }

    /// Successor entries across all rows.
    pub(crate) fn metadata_entries(&self) -> usize {
        self.records.iter().map(|r| r.successors as usize).sum()
    }

    /// Resident files.
    pub(crate) fn len(&self) -> usize {
        self.resident
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Forgets every file, successor and statistic; slots are reissued.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.records.clear();
        self.rows.clear();
        self.head = NIL;
        self.tail = NIL;
        self.resident = 0;
        self.last = None;
        self.transitions = 0;
        self.stats = CacheStats::new();
    }

    /// Audits the redundant state: map and records agree one to one, the
    /// LRU chain is a consistent walk over exactly the resident records,
    /// every row holds distinct in-range slots within the successor
    /// capacity, and the statistics add up.
    pub(crate) fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let err = |detail: String| Err(InvariantViolation::new("Directory", detail));
        if self.resident > self.capacity {
            return err(format!(
                "{} resident exceeds capacity {}",
                self.resident, self.capacity
            ));
        }
        if self.slots.len() != self.records.len() {
            return err(format!(
                "map holds {} files, slab {} records",
                self.slots.len(),
                self.records.len()
            ));
        }
        if self.rows.len() != self.records.len() * self.stride {
            return err(format!(
                "{} row entries for {} records of stride {}",
                self.rows.len(),
                self.records.len(),
                self.stride
            ));
        }
        // Equal sizes plus every entry landing on a record of its own
        // file make the map a bijection onto the slab.
        for (&file, &slot) in &self.slots {
            match self.records.get(slot as usize) {
                Some(r) if r.file == file => {}
                Some(r) => {
                    return err(format!(
                        "map points {file} at slot {slot}, which holds {}",
                        r.file
                    ))
                }
                None => return err(format!("map points {file} at out-of-slab slot {slot}")),
            }
        }
        // Walk head→tail checking link symmetry and residency.
        let mut seen = 0usize;
        let mut prev = NIL;
        let mut cursor = self.head;
        while cursor != NIL {
            let Some(record) = self.records.get(cursor as usize) else {
                return err(format!("link points to out-of-slab slot {cursor}"));
            };
            if record.prev != prev {
                return err(format!(
                    "broken back-link at slot {cursor} ({} != expected {prev})",
                    record.prev
                ));
            }
            if !record.resident {
                return err(format!("non-resident {} on the LRU chain", record.file));
            }
            seen += 1;
            if seen > self.resident {
                return err(format!(
                    "chain longer than the resident count {} (cycle or stray record)",
                    self.resident
                ));
            }
            prev = cursor;
            cursor = record.next;
        }
        if seen != self.resident {
            return err(format!(
                "chain has {seen} records, resident count is {}",
                self.resident
            ));
        }
        if prev != self.tail {
            return err(format!("tail is {}, walk ended at {prev}", self.tail));
        }
        let mut tracked = 0u64;
        let mut resident_bits = 0usize;
        for (slot, record) in self.records.iter().enumerate() {
            resident_bits += usize::from(record.resident);
            if record.speculative && !record.resident {
                return err(format!("non-resident {} marked speculative", record.file));
            }
            let len = record.successors as usize;
            if len > self.stride {
                return err(format!(
                    "{} holds {len} successors, capacity {}",
                    record.file, self.stride
                ));
            }
            let row = &self.rows[slot * self.stride..][..len];
            for (i, &s) in row.iter().enumerate() {
                if s as usize >= self.records.len() {
                    return err(format!("row of {} names out-of-slab slot {s}", record.file));
                }
                if row[..i].contains(&s) {
                    return err(format!("row of {} names slot {s} twice", record.file));
                }
            }
            tracked += u64::from(len > 0);
        }
        if resident_bits != self.resident {
            return err(format!(
                "{resident_bits} records marked resident, resident count is {}",
                self.resident
            ));
        }
        // Every row was started by a transition.
        if tracked > self.transitions {
            return err(format!(
                "{tracked} tracked files but only {} transitions",
                self.transitions
            ));
        }
        if self.last.is_some_and(|s| s as usize >= self.records.len()) {
            return err("last recorded slot is out of the slab".to_string());
        }
        self.stats.check("Directory")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregating::AggregatingCache;
    use crate::AggregatingCacheBuilder;
    use fgcache_cache::Cache as _;

    /// A cache whose directory has residents, evicted records and full
    /// rows: a 5-file loop over a 4-file cache, successor capacity 3.
    fn warmed() -> AggregatingCache {
        let mut c = AggregatingCacheBuilder::new(4)
            .group_size(3)
            .successor_capacity(3)
            .build()
            .unwrap();
        for i in 0..60u64 {
            c.handle_access(FileId([1, 2, 3, 4, 5, 1, 3, 5][(i % 8) as usize]));
        }
        c.check_invariants().unwrap();
        c
    }

    /// A slot whose row holds at least two successors.
    fn busy_slot(d: &Directory) -> usize {
        d.records.iter().position(|r| r.successors >= 2).unwrap()
    }

    #[test]
    fn invariants_catch_a_broken_back_link() {
        let mut c = warmed();
        let second = c.dir.records[c.dir.head as usize].next as usize;
        c.dir.records[second].prev = NIL;
        let e = c.check_invariants().unwrap_err();
        assert!(e.to_string().contains("back-link"), "{e}");
        c.dir.records[second].prev = c.dir.head;
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn invariants_catch_resident_count_drift() {
        let mut c = warmed();
        c.dir.resident -= 1;
        assert!(c.check_invariants().is_err(), "resident drift undetected");
        c.dir.resident += 1;
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn invariants_catch_an_out_of_range_row_entry() {
        let mut c = warmed();
        let at = busy_slot(&c.dir) * c.dir.stride;
        let saved = c.dir.rows[at];
        c.dir.rows[at] = u32::try_from(c.dir.records.len()).unwrap();
        let e = c.check_invariants().unwrap_err();
        assert!(e.to_string().contains("out-of-slab"), "{e}");
        c.dir.rows[at] = saved;
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn invariants_catch_a_duplicated_row_entry() {
        let mut c = warmed();
        let at = busy_slot(&c.dir) * c.dir.stride;
        let saved = c.dir.rows[at + 1];
        c.dir.rows[at + 1] = c.dir.rows[at];
        let e = c.check_invariants().unwrap_err();
        assert!(e.to_string().contains("twice"), "{e}");
        c.dir.rows[at + 1] = saved;
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn invariants_catch_a_map_entry_on_the_wrong_record() {
        let mut c = warmed();
        let slot = c.dir.slots[&FileId(1)];
        let other = (slot + 1) % u32::try_from(c.dir.records.len()).unwrap();
        c.dir.slots.insert(FileId(1), other);
        let e = c.check_invariants().unwrap_err();
        assert!(e.to_string().contains("map points"), "{e}");
        c.dir.slots.insert(FileId(1), slot);
        assert!(c.check_invariants().is_ok());
    }
}
