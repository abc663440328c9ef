//! Internal slab-backed LRU list behind 2Q's three queues. Front = most
//! recent, back = eviction end.

use fgcache_types::hash::FastMap;

use fgcache_types::{FileId, InvariantViolation};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    file: FileId,
    prev: usize,
    next: usize,
}

/// An ordered set of files with O(1) push/pop at both ends and O(1)
/// removal by id. Not a cache by itself — no capacity, no stats.
#[derive(Debug, Clone, Default)]
pub(crate) struct LruList {
    map: FastMap<FileId, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl LruList {
    pub(crate) fn new() -> Self {
        LruList {
            map: FastMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub(crate) fn contains(&self, file: FileId) -> bool {
        self.map.contains_key(&file)
    }

    /// Back (eviction-end) element.
    pub(crate) fn back(&self) -> Option<FileId> {
        (self.tail != NIL).then(|| self.nodes[self.tail].file)
    }

    fn alloc(&mut self, file: FileId) -> usize {
        let node = Node {
            file,
            prev: NIL,
            next: NIL,
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
    }

    fn attach_front(&mut self, idx: usize) {
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

    fn attach_back(&mut self, idx: usize) {
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

    /// Inserts at the front. Returns `false` (and leaves the list
    /// unchanged) if already present.
    pub(crate) fn push_front(&mut self, file: FileId) -> bool {
        if self.map.contains_key(&file) {
            return false;
        }
        let idx = self.alloc(file);
        self.attach_front(idx);
        self.map.insert(file, idx);
        true
    }

    /// Inserts at the back. Returns `false` if already present.
    pub(crate) fn push_back(&mut self, file: FileId) -> bool {
        if self.map.contains_key(&file) {
            return false;
        }
        let idx = self.alloc(file);
        self.attach_back(idx);
        self.map.insert(file, idx);
        true
    }

    /// Removes and returns the back element.
    pub(crate) fn pop_back(&mut self) -> Option<FileId> {
        let file = self.back()?;
        self.remove(file);
        Some(file)
    }

    /// Removes `file` if present; returns whether it was present.
    pub(crate) fn remove(&mut self, file: FileId) -> bool {
        match self.map.remove(&file) {
            Some(idx) => {
                self.detach(idx);
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// Moves `file` to the front; returns whether it was present.
    pub(crate) fn touch(&mut self, file: FileId) -> bool {
        match self.map.get(&file).copied() {
            Some(idx) => {
                self.detach(idx);
                self.attach_front(idx);
                true
            }
            None => false,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Audits the list's redundant state: the doubly-linked chain must be
    /// a single consistent walk over exactly the mapped nodes, and the
    /// free list must account for every unmapped slab slot.
    ///
    /// `where_` names the owning structure and list (e.g. `"TwoQCache.am"`)
    /// in the violation report.
    pub(crate) fn audit(&self, where_: &str) -> Result<(), InvariantViolation> {
        let err = |detail: String| Err(InvariantViolation::new(where_, detail));
        if self.map.len() + self.free.len() != self.nodes.len() {
            return err(format!(
                "slab accounting: {} mapped + {} free != {} slots",
                self.map.len(),
                self.free.len(),
                self.nodes.len()
            ));
        }
        // Walk head→tail checking link symmetry and uniqueness.
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
            match self.map.get(&node.file) {
                Some(&idx) if idx == cursor => {}
                Some(&idx) => {
                    return err(format!(
                        "map points {} at slot {idx}, chain has it at {cursor}",
                        node.file
                    ))
                }
                None => return err(format!("chained file {} missing from map", node.file)),
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
        // Free slots must not be mapped.
        for &idx in &self.free {
            if idx >= self.nodes.len() {
                return err(format!("free list holds out-of-slab index {idx}"));
            }
            if self.map.get(&self.nodes[idx].file) == Some(&idx) {
                return err(format!("slot {idx} is both free and mapped"));
            }
        }
        Ok(())
    }

    /// Iterates front (most recent) to back.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = FileId> + '_ {
        let mut cursor = self.head;
        std::iter::from_fn(move || {
            if cursor == NIL {
                return None;
            }
            let node = &self.nodes[cursor];
            cursor = node.next;
            Some(node.file)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_order() {
        let mut l = LruList::new();
        assert!(l.push_front(FileId(1)));
        assert!(l.push_front(FileId(2)));
        assert!(l.push_back(FileId(3)));
        assert_eq!(
            l.iter().collect::<Vec<_>>(),
            vec![FileId(2), FileId(1), FileId(3)]
        );
        assert_eq!(l.pop_back(), Some(FileId(3)));
        assert_eq!(l.pop_back(), Some(FileId(1)));
        assert_eq!(l.pop_back(), Some(FileId(2)));
        assert_eq!(l.pop_back(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn duplicate_push_rejected() {
        let mut l = LruList::new();
        assert!(l.push_front(FileId(1)));
        assert!(!l.push_front(FileId(1)));
        assert!(!l.push_back(FileId(1)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn remove_middle() {
        let mut l = LruList::new();
        for i in 1..=3 {
            l.push_back(FileId(i));
        }
        assert!(l.remove(FileId(2)));
        assert!(!l.remove(FileId(2)));
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![FileId(1), FileId(3)]);
    }

    #[test]
    fn touch_moves_to_front() {
        let mut l = LruList::new();
        for i in 1..=3 {
            l.push_back(FileId(i));
        }
        assert!(l.touch(FileId(3)));
        assert_eq!(l.iter().next(), Some(FileId(3)));
        assert_eq!(l.back(), Some(FileId(2)));
        assert!(!l.touch(FileId(99)));
    }

    #[test]
    fn slab_reuse() {
        let mut l = LruList::new();
        for i in 0..100u64 {
            l.push_front(FileId(i));
            if i >= 2 {
                l.pop_back();
            }
        }
        assert!(l.nodes.len() <= 4, "slab grew to {}", l.nodes.len());
    }

    #[test]
    fn clear_resets() {
        let mut l = LruList::new();
        l.push_front(FileId(1));
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.iter().next(), None);
        assert_eq!(l.back(), None);
    }
}
