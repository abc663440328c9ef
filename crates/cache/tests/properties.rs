//! Deterministic model-based tests for the cache substrate.
//!
//! The key oracle: [`LruCache`] must behave identically to a trivially
//! correct reference model (a `Vec` ordered MRU→LRU). The other policies
//! are checked against their structural invariants under seeded random
//! operation sequences; the heavier cross-policy differential fuzzer lives
//! in `tests/differential.rs`.

use fgcache_cache::{Cache, LfuCache, LruCache, PolicyKind, TwoQCache};
use fgcache_types::rng::RandomSource;
use fgcache_types::{FileId, SeededRng};

/// Seeds used by every randomized test in this file.
const SEEDS: [u64; 6] = [0, 1, 7, 42, 999, 0xF00D];

/// A trivially-correct LRU model: index 0 = MRU, last = LRU victim.
#[derive(Debug, Default)]
struct ModelLru {
    capacity: usize,
    order: Vec<FileId>,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        ModelLru {
            capacity,
            order: Vec::new(),
        }
    }

    fn access(&mut self, f: FileId) -> bool {
        if let Some(i) = self.order.iter().position(|&x| x == f) {
            self.order.remove(i);
            self.order.insert(0, f);
            true
        } else {
            if self.order.len() == self.capacity {
                self.order.pop();
            }
            self.order.insert(0, f);
            false
        }
    }

    fn insert_speculative(&mut self, f: FileId) {
        if self.order.contains(&f) {
            return;
        }
        if self.order.len() == self.capacity {
            self.order.pop();
        }
        self.order.push(f);
    }
}

/// One step of a cache workout.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    Speculative(u64),
}

/// Generates a random script of up to 400 demand/speculative steps over
/// files `0..max_file`.
fn ops(rng: &mut SeededRng, max_file: u64) -> Vec<Op> {
    let n = rng.gen_index(400);
    (0..n)
        .map(|_| {
            let f = rng.gen_range_inclusive(0, max_file - 1);
            if rng.chance(0.5) {
                Op::Access(f)
            } else {
                Op::Speculative(f)
            }
        })
        .collect()
}

#[test]
fn lru_matches_reference_model() {
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        for _ in 0..8 {
            let capacity = 1 + rng.gen_index(19);
            let script = ops(&mut rng, 30);
            let mut real = LruCache::new(capacity);
            let mut model = ModelLru::new(capacity);
            for op in &script {
                match *op {
                    Op::Access(f) => {
                        let hit = real.access(FileId(f)).is_hit();
                        let model_hit = model.access(FileId(f));
                        assert_eq!(hit, model_hit, "divergent hit for {op:?} (seed {seed})");
                    }
                    Op::Speculative(f) => {
                        real.insert_speculative(FileId(f));
                        model.insert_speculative(FileId(f));
                    }
                }
                assert_eq!(real.len(), model.order.len());
                let real_order: Vec<FileId> = real.iter_mru().collect();
                assert_eq!(&real_order, &model.order);
                assert_eq!(real.lru(), model.order.last().copied());
                assert_eq!(real.mru(), model.order.first().copied());
            }
        }
    }
}

#[test]
fn every_policy_respects_capacity_and_accounting() {
    for seed in SEEDS {
        for kind in PolicyKind::ALL {
            let mut rng = SeededRng::new(seed);
            for _ in 0..4 {
                let capacity = 1 + rng.gen_index(15);
                let script = ops(&mut rng, 40);
                let mut cache = kind.build(capacity);
                let mut demand = 0u64;
                for op in &script {
                    match *op {
                        Op::Access(f) => {
                            cache.access(FileId(f));
                            demand += 1;
                            // An accessed file must be resident immediately after.
                            assert!(cache.contains(FileId(f)), "{kind}: lost fresh access");
                        }
                        Op::Speculative(f) => {
                            cache.insert_speculative(FileId(f));
                        }
                    }
                    assert!(cache.len() <= capacity, "{kind}: capacity exceeded");
                }
                let s = cache.stats();
                assert_eq!(s.accesses, demand);
                assert_eq!(s.hits + s.misses, s.accesses);
                assert!(s.speculative_hits <= s.speculative_inserts);
                assert!(s.speculative_hits <= s.hits);
            }
        }
    }
}

#[test]
fn contains_agrees_with_hit_outcome() {
    for seed in SEEDS {
        for kind in PolicyKind::ALL {
            let mut rng = SeededRng::new(seed);
            let capacity = 1 + rng.gen_index(11);
            let mut cache = kind.build(capacity);
            for _ in 0..300 {
                let f = rng.gen_range_inclusive(0, 24);
                let pre = cache.contains(FileId(f));
                let hit = cache.access(FileId(f)).is_hit();
                assert_eq!(pre, hit, "{kind}: contains() disagreed with access outcome");
            }
        }
    }
}

#[test]
fn clear_resets_everything() {
    for seed in SEEDS {
        for kind in PolicyKind::ALL {
            let mut rng = SeededRng::new(seed);
            let script: Vec<u64> = (0..100).map(|_| rng.gen_range_inclusive(0, 19)).collect();
            let mut cache = kind.build(8);
            for &f in &script {
                cache.access(FileId(f));
            }
            cache.clear();
            assert_eq!(cache.len(), 0);
            assert!(cache.is_empty());
            assert_eq!(cache.stats().accesses, 0);
            for &f in &script {
                assert!(!cache.contains(FileId(f)));
            }
        }
    }
}

#[test]
fn lru_batch_equals_sequence_of_tail_inserts_when_room() {
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        for _ in 0..16 {
            // With enough free room, a batch insert must equal one-by-one
            // tail insertion.
            let capacity = 8 + rng.gen_index(16);
            let batch_len = rng.gen_index(8);
            let files: Vec<FileId> = (0..batch_len)
                .map(|_| FileId(rng.gen_range_inclusive(0, 39)))
                .collect();
            let mut a = LruCache::new(capacity);
            a.insert_speculative_batch(&files);
            let mut b = LruCache::new(capacity);
            let mut seen = std::collections::HashSet::new();
            for &f in &files {
                if seen.insert(f) {
                    b.insert_speculative(f);
                }
            }
            let order_a: Vec<FileId> = a.iter_mru().collect();
            let order_b: Vec<FileId> = b.iter_mru().collect();
            assert_eq!(order_a, order_b);
        }
    }
}

#[test]
fn lfu_never_evicts_the_heaviest_hitter() {
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        // File 0 is accessed before every script step: it always has the
        // strictly highest count, so it must never be evicted.
        let mut cache = LfuCache::new(4);
        cache.access(FileId(0));
        for _ in 0..300 {
            let f = rng.gen_range_inclusive(1, 11);
            cache.access(FileId(0));
            cache.access(FileId(f));
            assert!(cache.contains(FileId(0)), "heavy hitter evicted");
        }
    }
}

#[test]
fn twoq_survives_arbitrary_churn() {
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        let mut twoq = TwoQCache::new(7);
        for _ in 0..500 {
            twoq.access(FileId(rng.gen_range_inclusive(0, 59)));
        }
        assert!(twoq.len() <= 7);
        assert!(twoq.len() >= 1);
    }
}

#[test]
fn miss_stream_is_exactly_the_misses() {
    use fgcache_cache::filter::miss_stream;
    use fgcache_trace::Trace;
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        for _ in 0..8 {
            let capacity = 1 + rng.gen_index(11);
            let n = rng.gen_index(300);
            let files: Vec<u64> = (0..n).map(|_| rng.gen_range_inclusive(0, 19)).collect();
            let trace = Trace::from_files(files.clone());
            let mut cache = LruCache::new(capacity);
            let misses = miss_stream(&mut cache, &trace);
            assert_eq!(misses.len() as u64, cache.stats().misses);
            // Replaying the same trace through a fresh cache and collecting
            // misses by hand gives the same stream.
            let mut fresh = LruCache::new(capacity);
            let manual: Vec<FileId> = files
                .iter()
                .map(|&f| FileId(f))
                .filter(|&f| fresh.access(f).is_miss())
                .collect();
            assert_eq!(misses.file_sequence(), manual);
        }
    }
}
