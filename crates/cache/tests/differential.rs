//! Deterministic differential fuzzer for the four replacement policies.
//!
//! Each policy is cross-validated against a trivially-correct reference
//! model: plain `Vec`s, linear searches, no slabs, no hash maps, no
//! ordered mirrors. The real implementations earn their complexity (O(1)
//! lists, BTree mirrors, ghost slabs) only if they stay bit-for-bit
//! behaviourally equal to these models over long randomized operation
//! sequences — and `check_invariants` must hold after every single step.
//!
//! Everything is seeded: a failure reproduces from the printed seed and
//! step, never from a lost RNG state.

use fgcache_cache::{Cache, FilterCache, LandlordCache, LruCache, PolicyKind};
use fgcache_types::rng::RandomSource;
use fgcache_types::sizing::{SizeCostAssigner, SizeDistribution};
use fgcache_types::{FileId, SeededRng};

const CAPACITIES: [usize; 5] = [1, 2, 5, 16, 64];
const OPS_PER_CAPACITY: usize = 2_500;
const SEED: u64 = 0xFEED_FACE;

/// Behavioural interface of a reference model.
trait Model {
    /// Returns `true` on a hit.
    fn access(&mut self, f: FileId) -> bool;
    fn insert_speculative(&mut self, f: FileId);
    fn contains(&self, f: FileId) -> bool;
    fn len(&self) -> usize;
}

// ---------------------------------------------------------------- LRU ----

/// MRU at index 0, victim at the back.
struct ModelLru {
    capacity: usize,
    order: Vec<FileId>,
}

impl Model for ModelLru {
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

    fn contains(&self, f: FileId) -> bool {
        self.order.contains(&f)
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

// ---------------------------------------------------------------- LFU ----

/// Linear-scan LFU with LRU (stamp) tie-break; speculative entries carry
/// frequency 0.
struct ModelLfu {
    capacity: usize,
    clock: u64,
    entries: Vec<(FileId, u64, u64)>, // (file, freq, stamp)
}

impl ModelLfu {
    fn evict_min(&mut self) {
        if let Some(victim) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, &(f, freq, stamp))| (freq, stamp, f))
            .map(|(i, _)| i)
        {
            self.entries.remove(victim);
        }
    }
}

impl Model for ModelLfu {
    fn access(&mut self, f: FileId) -> bool {
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == f) {
            e.1 += 1;
            e.2 = self.clock;
            true
        } else {
            if self.entries.len() == self.capacity {
                self.evict_min();
            }
            self.entries.push((f, 1, self.clock));
            false
        }
    }

    fn insert_speculative(&mut self, f: FileId) {
        if self.entries.iter().any(|e| e.0 == f) {
            return;
        }
        self.clock += 1;
        if self.entries.len() == self.capacity {
            self.evict_min();
        }
        self.entries.push((f, 0, self.clock));
    }

    fn contains(&self, f: FileId) -> bool {
        self.entries.iter().any(|e| e.0 == f)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

// ----------------------------------------------------------------- 2Q ----

/// Three plain-`Vec` LRU lists (front = most recent) following Johnson &
/// Shasha's simplified 2Q with Kin = c/4 and Kout = c/2.
struct ModelTwoQ {
    capacity: usize,
    kin: usize,
    kout: usize,
    a1in: Vec<FileId>,
    am: Vec<FileId>,
    a1out: Vec<FileId>,
}

impl ModelTwoQ {
    fn new(capacity: usize) -> Self {
        ModelTwoQ {
            capacity,
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
            a1in: Vec::new(),
            am: Vec::new(),
            a1out: Vec::new(),
        }
    }

    fn reclaim(&mut self) {
        let from_a1in = self.a1in.len() > self.kin || self.am.is_empty();
        if from_a1in {
            if let Some(victim) = self.a1in.pop() {
                self.a1out.insert(0, victim);
                if self.a1out.len() > self.kout {
                    self.a1out.pop();
                }
            }
        } else {
            self.am.pop();
        }
    }
}

impl Model for ModelTwoQ {
    fn access(&mut self, f: FileId) -> bool {
        if let Some(i) = self.am.iter().position(|&x| x == f) {
            self.am.remove(i);
            self.am.insert(0, f);
            return true;
        }
        if self.a1in.contains(&f) {
            return true;
        }
        if self.a1in.len() + self.am.len() >= self.capacity {
            self.reclaim();
        }
        if let Some(i) = self.a1out.iter().position(|&x| x == f) {
            self.a1out.remove(i);
            self.am.insert(0, f);
        } else {
            self.a1in.insert(0, f);
        }
        false
    }

    fn insert_speculative(&mut self, f: FileId) {
        if self.a1in.contains(&f) || self.am.contains(&f) {
            return;
        }
        if self.a1in.len() + self.am.len() >= self.capacity {
            self.reclaim();
        }
        self.a1out.retain(|&x| x != f);
        self.a1in.push(f);
    }

    fn contains(&self, f: FileId) -> bool {
        self.a1in.contains(&f) || self.am.contains(&f)
    }

    fn len(&self) -> usize {
        self.a1in.len() + self.am.len()
    }
}

// ----------------------------------------------------------- Landlord ----

/// Naive Landlord (Young): a plain `Vec` in MRU→LRU order carrying
/// `(file, credit)`, with sizes and costs re-derived from the assigner
/// on every step. Victim selection and the credit tax are spelled out
/// exactly as in the paper; the real implementation must reproduce the
/// arithmetic bit-for-bit (same f64 operations per entry), so outcomes,
/// membership AND residency order must all agree.
struct ModelLandlord {
    capacity: u64,
    assigner: SizeCostAssigner,
    /// MRU at index 0; `(file, credit)`.
    entries: Vec<(FileId, f64)>,
}

impl ModelLandlord {
    fn new(capacity: usize, assigner: SizeCostAssigner) -> Self {
        ModelLandlord {
            capacity: capacity as u64,
            assigner,
            entries: Vec::new(),
        }
    }

    fn used(&self) -> u64 {
        self.entries
            .iter()
            .map(|&(f, _)| u64::from(self.assigner.size_of(f)))
            .sum()
    }

    fn make_room(&mut self, need: u64) {
        while self.used() + need > self.capacity {
            // Victim: minimum credit density, ties to the LRU end
            // (scan back-to-front, strict <).
            let mut best: Option<(usize, f64)> = None;
            for i in (0..self.entries.len()).rev() {
                let (f, credit) = self.entries[i];
                let density = credit / f64::from(self.assigner.size_of(f));
                if best.is_none_or(|(_, d)| density < d) {
                    best = Some((i, density));
                }
            }
            let Some((victim, delta)) = best else { break };
            if delta > 0.0 {
                for (f, credit) in self.entries.iter_mut() {
                    *credit = (*credit - delta * f64::from(self.assigner.size_of(*f))).max(0.0);
                }
            }
            self.entries.remove(victim);
        }
    }
}

impl Model for ModelLandlord {
    fn access(&mut self, f: FileId) -> bool {
        if let Some(i) = self.entries.iter().position(|&(x, _)| x == f) {
            self.entries.remove(i);
            self.entries
                .insert(0, (f, f64::from(self.assigner.cost_of(f))));
            true
        } else {
            let size = u64::from(self.assigner.size_of(f));
            if size <= self.capacity {
                self.make_room(size);
                self.entries
                    .insert(0, (f, f64::from(self.assigner.cost_of(f))));
            }
            false
        }
    }

    fn insert_speculative(&mut self, f: FileId) {
        if self.entries.iter().any(|&(x, _)| x == f) {
            return;
        }
        let size = u64::from(self.assigner.size_of(f));
        if size > self.capacity {
            return;
        }
        self.make_room(size);
        self.entries.push((f, 0.0));
    }

    fn contains(&self, f: FileId) -> bool {
        self.entries.iter().any(|&(x, _)| x == f)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

// -------------------------------------------------------------- driver ----

fn model_for(kind: PolicyKind, capacity: usize) -> Box<dyn Model> {
    match kind {
        PolicyKind::Lru => Box::new(ModelLru {
            capacity,
            order: Vec::new(),
        }),
        PolicyKind::Lfu => Box::new(ModelLfu {
            capacity,
            clock: 0,
            entries: Vec::new(),
        }),
        PolicyKind::TwoQ => Box::new(ModelTwoQ::new(capacity)),
        PolicyKind::Landlord => Box::new(ModelLandlord::new(capacity, SizeCostAssigner::uniform())),
    }
}

/// Runs one policy against its model for `ops` randomized operations,
/// checking outcome equality, membership agreement on random probes, size
/// agreement and structural invariants after every step.
fn fuzz_policy(kind: PolicyKind, capacity: usize, ops: usize, seed: u64) {
    let mut rng = SeededRng::new(seed);
    let mut real = kind.build(capacity);
    let mut model = model_for(kind, capacity);
    // A universe a few times the capacity keeps both hits and evictions
    // frequent at every tested size.
    let universe = (capacity as u64) * 3 + 8;
    for step in 0..ops {
        let f = FileId(rng.gen_range_inclusive(0, universe));
        let ctx = |what: &str| {
            format!("{kind} capacity {capacity} seed {seed} step {step} file {f}: {what}")
        };
        if rng.chance(0.8) {
            let real_hit = real.access(f).is_hit();
            let model_hit = model.access(f);
            assert_eq!(real_hit, model_hit, "{}", ctx("hit/miss diverged"));
        } else {
            real.insert_speculative(f);
            model.insert_speculative(f);
        }
        assert_eq!(real.len(), model.len(), "{}", ctx("len diverged"));
        let probe = FileId(rng.gen_range_inclusive(0, universe));
        assert_eq!(
            real.contains(probe),
            model.contains(probe),
            "{}",
            ctx("membership diverged")
        );
        real.check_invariants()
            .unwrap_or_else(|v| panic!("{}", ctx(&v.to_string())));
    }
    assert!(real.stats().accesses > 0);
}

#[test]
fn lru_differential() {
    for capacity in CAPACITIES {
        fuzz_policy(PolicyKind::Lru, capacity, OPS_PER_CAPACITY, SEED);
    }
}

#[test]
fn lfu_differential() {
    for capacity in CAPACITIES {
        fuzz_policy(PolicyKind::Lfu, capacity, OPS_PER_CAPACITY, SEED);
    }
}

#[test]
fn twoq_differential() {
    for capacity in CAPACITIES {
        fuzz_policy(PolicyKind::TwoQ, capacity, OPS_PER_CAPACITY, SEED);
    }
}

#[test]
fn landlord_differential() {
    for capacity in CAPACITIES {
        fuzz_policy(PolicyKind::Landlord, capacity, OPS_PER_CAPACITY, SEED);
    }
}

/// The seed set for the sized-Landlord fuzzer: `FGCACHE_FUZZ_SEEDS`
/// (comma-separated u64s, decimal or `0x`-prefixed hex) when set — the
/// hook `xtask fuzz` and its soak mode use to widen coverage — or a
/// built-in pair otherwise.
fn fuzz_seeds() -> Vec<u64> {
    match std::env::var("FGCACHE_FUZZ_SEEDS") {
        Ok(raw) => raw
            .split(',')
            .map(|s| s.trim())
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.strip_prefix("0x")
                    .map(|hex| u64::from_str_radix(hex, 16))
                    .unwrap_or_else(|| s.parse())
                    .unwrap_or_else(|e| panic!("FGCACHE_FUZZ_SEEDS entry {s:?}: {e}"))
            })
            .collect(),
        Err(_) => vec![SEED, 0xBADC_0FFE],
    }
}

/// Landlord under seeded size/cost distributions: the real slab/list
/// implementation against the naive Vec reference, checking outcome,
/// length, membership, occupancy AND full residency order every step,
/// with `check_invariants` (credit bounds, byte accounting) after each.
fn fuzz_landlord_sized(dist: SizeDistribution, capacity: usize, ops: usize, seed: u64) {
    let assigner = SizeCostAssigner::new(dist, seed ^ 0x5EED);
    let mut rng = SeededRng::new(seed);
    let mut real = LandlordCache::with_assigner(capacity, assigner);
    let mut model = ModelLandlord::new(capacity, assigner);
    let universe = (capacity as u64) / 2 + 32;
    for step in 0..ops {
        let f = FileId(rng.gen_range_inclusive(0, universe));
        let ctx = |what: &str| {
            format!("landlord {dist} capacity {capacity} seed {seed} step {step} file {f}: {what}")
        };
        if rng.chance(0.8) {
            let real_hit = real.access(f).is_hit();
            let model_hit = model.access(f);
            assert_eq!(real_hit, model_hit, "{}", ctx("hit/miss diverged"));
        } else {
            real.insert_speculative(f);
            model.insert_speculative(f);
        }
        assert_eq!(real.len(), model.len(), "{}", ctx("len diverged"));
        assert_eq!(
            real.used_units(),
            model.used(),
            "{}",
            ctx("occupancy diverged")
        );
        let real_order: Vec<FileId> = real.residents().collect();
        let model_order: Vec<FileId> = model.entries.iter().map(|&(f, _)| f).collect();
        assert_eq!(
            real_order,
            model_order,
            "{}",
            ctx("residency order diverged")
        );
        real.check_invariants()
            .unwrap_or_else(|v| panic!("{}", ctx(&v.to_string())));
    }
}

#[test]
fn landlord_sized_differential() {
    for seed in fuzz_seeds() {
        for dist in [
            SizeDistribution::Uniform,
            SizeDistribution::Pareto,
            SizeDistribution::Bimodal,
        ] {
            for capacity in [8usize, 64, 300, 4096] {
                fuzz_landlord_sized(dist, capacity, 1_500, seed);
            }
        }
    }
}

#[test]
fn second_seed_sweep() {
    // A second, shorter sweep under a different seed for every policy.
    for kind in PolicyKind::ALL {
        for capacity in [3, 9] {
            fuzz_policy(kind, capacity, 1_000, 0xBADC_0FFE);
        }
    }
}

// ------------------------------------------------- two-level system ----

/// Cross-validates the filter → server two-level composition: a
/// `FilterCache<LruCache>` client forwarding misses to an `LruCache`
/// server, against the same composition built from reference models. The
/// *composition* is what's under test — the client's absorption decides
/// which accesses the server ever sees, so a single divergence cascades.
/// `FilterCache::check_invariants` runs after every step.
fn fuzz_two_level(client_capacity: usize, server_capacity: usize, ops: usize, seed: u64) {
    let mut rng = SeededRng::new(seed);
    let mut real_client = FilterCache::new(LruCache::new(client_capacity));
    let mut real_server = LruCache::new(server_capacity);
    let mut model_client = ModelLru {
        capacity: client_capacity,
        order: Vec::new(),
    };
    let mut model_server = ModelLru {
        capacity: server_capacity,
        order: Vec::new(),
    };
    let universe = (client_capacity.max(server_capacity) as u64) * 3 + 8;
    for step in 0..ops {
        let f = FileId(rng.gen_range_inclusive(0, universe));
        let ctx = |what: &str| {
            format!(
                "two-level client {client_capacity} server {server_capacity} \
                 seed {seed} step {step} file {f}: {what}"
            )
        };
        let real_forwarded = real_client.offer_file(f);
        let model_forwarded = !model_client.access(f);
        assert_eq!(
            model_forwarded,
            real_forwarded,
            "{}",
            ctx("client absorb/forward diverged")
        );
        if real_forwarded {
            let real_hit = real_server.access(f).is_hit();
            let model_hit = model_server.access(f);
            assert_eq!(model_hit, real_hit, "{}", ctx("server hit/miss diverged"));
        }
        let probe = FileId(rng.gen_range_inclusive(0, universe));
        assert_eq!(
            model_server.contains(probe),
            real_server.contains(probe),
            "{}",
            ctx("server membership diverged")
        );
        real_client
            .check_invariants()
            .unwrap_or_else(|v| panic!("{}", ctx(&v.to_string())));
        real_server
            .check_invariants()
            .unwrap_or_else(|v| panic!("{}", ctx(&v.to_string())));
    }
    assert_eq!(real_client.forwarded(), real_server.stats().accesses);
}

#[test]
fn two_level_differential() {
    // Client smaller, equal and larger than the server, plus degenerate
    // 1-entry tiers.
    for (client, server) in [(1, 4), (4, 16), (8, 8), (16, 4), (5, 1)] {
        fuzz_two_level(client, server, OPS_PER_CAPACITY, SEED);
        fuzz_two_level(client, server, 1_000, 0xBADC_0FFE);
    }
}
