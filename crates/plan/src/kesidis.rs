//! The Kesidis LRU-MRU stationary model (arXiv:1704.04849) — an *exact*
//! small-universe anchor for the approximate large-universe solvers.
//!
//! The generalized LRU-MRU cache is an ordered list of capacity `C`
//! under IRM requests in which every item is typed:
//!
//! * an **LRU-typed** item moves to the protected *front* on a hit and
//!   inserts at the front on a miss (the back item is evicted when
//!   full) — classic move-to-front;
//! * an **MRU-typed** item moves to the *eviction end* (the back) on a
//!   hit and inserts there on a miss — it is always the next eviction
//!   candidate, i.e. a probationary, scan-resistant tenant.
//!
//! The cache state is the ordered tuple of resident items; under IRM
//! the state is a finite ergodic Markov chain, and this module computes
//! its stationary law **numerically by power iteration** over the full
//! tuple space rather than via the paper's product-form algebra. For
//! the pure-LRU special case the classical Hendricks (1972) product
//! form
//!
//! ```text
//!     π(x₁,…,x_C) = Π_k  p_{x_k} / (1 − p_{x₁} − … − p_{x_{k−1}})
//! ```
//!
//! is implemented as an independent cross-check: the two computations
//! agree to ~1e-10 on every tested instance, which pins the transition
//! dynamics themselves. The state space is `N·(N−1)⋯(N−C+1)` tuples, so
//! this model is exact but small — its job in the planner is to anchor
//! the Che approximation (and the simulator) at universes where
//! exactness is affordable, not to size fleets directly.
//!
//! [`LruMruCacheSim`] is the matching trace-driven reference cache; the
//! validation harness in `fgcache-sim` replays multi-million-event Zipf
//! streams through it and asserts agreement with the stationary model.

use fgcache_types::hash::FastMap;
use fgcache_types::ValidationError;

/// Hard cap on the ordered-tuple state count — power iteration is
/// `O(states · N)` per sweep, and the model is meant as a small exact
/// anchor, not a production solver.
const MAX_STATES: u64 = 200_000;

/// Largest capacity the `u64` state packing supports (8 bits per slot).
const MAX_CAPACITY: usize = 8;

/// The exact stationary model of the generalized LRU-MRU list cache.
#[derive(Debug, Clone)]
pub struct LruMruModel {
    probs: Vec<f64>,
    capacity: usize,
    mru: Vec<bool>,
}

/// Packs an ordered tuple of items (front first) into a `u64`, 8 bits
/// per slot, item `i` stored as `i + 1` so 0 means "empty slot".
fn pack(tuple: &[usize]) -> u64 {
    let mut s = 0u64;
    for (k, &item) in tuple.iter().enumerate() {
        s |= ((item as u64) + 1) << (8 * k);
    }
    s
}

impl LruMruModel {
    /// Builds the model for `probs` (all strictly positive, summing to
    /// 1), a cache of `capacity` slots, and per-item `mru` typing
    /// (`mru[i]` ⇒ item `i` is MRU-typed).
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] if the vectors are empty or
    /// mismatched, a probability is non-positive or the sum is off 1, the
    /// capacity is 0 or above 8 (the `u64` state packing), or the
    /// ordered-tuple state space would exceed the enumeration cap.
    pub fn new(probs: &[f64], capacity: usize, mru: &[bool]) -> Result<Self, ValidationError> {
        if probs.is_empty() {
            return Err(ValidationError::new("probs", "must not be empty"));
        }
        if mru.len() != probs.len() {
            return Err(ValidationError::new(
                "mru",
                "need exactly one MRU flag per item",
            ));
        }
        let mut total = 0.0;
        for &p in probs {
            if !p.is_finite() || p <= 0.0 {
                return Err(ValidationError::new(
                    "probs",
                    "probabilities must be finite and strictly positive \
                     (a never-requested item has no stationary role)",
                ));
            }
            total += p;
        }
        if (total - 1.0).abs() > 1e-6 {
            return Err(ValidationError::new(
                "probs",
                format!("probabilities must sum to 1 (got {total})"),
            ));
        }
        if capacity == 0 || capacity > MAX_CAPACITY {
            return Err(ValidationError::new(
                "capacity",
                format!("must be in 1..={MAX_CAPACITY} (u64 state packing)"),
            ));
        }
        if capacity < probs.len() {
            let mut states = 1u64;
            for k in 0..capacity {
                states = states.saturating_mul((probs.len() - k) as u64);
                if states > MAX_STATES {
                    return Err(ValidationError::new(
                        "capacity",
                        format!(
                            "ordered state space exceeds {MAX_STATES} tuples — \
                             this exact model is a small-universe anchor; use the \
                             Che approximation for fleet-sized inputs"
                        ),
                    ));
                }
            }
        }
        Ok(LruMruModel {
            probs: probs.to_vec(),
            capacity,
            mru: mru.to_vec(),
        })
    }

    /// The pure-LRU special case (every item LRU-typed).
    ///
    /// # Errors
    ///
    /// Propagates [`LruMruModel::new`] validation.
    pub fn pure_lru(probs: &[f64], capacity: usize) -> Result<Self, ValidationError> {
        let mru = vec![false; probs.len()];
        LruMruModel::new(probs, capacity, &mru)
    }

    /// Applies one request for `item` to the ordered state in `tuple`
    /// (front first, always full). Mirrors [`LruMruCacheSim::access`].
    fn step(&self, tuple: &mut Vec<usize>, item: usize) {
        let pos = tuple.iter().position(|&x| x == item);
        match pos {
            Some(i) => {
                // Hit: re-rank according to the item's type.
                tuple.remove(i);
                if self.mru[item] {
                    tuple.push(item);
                } else {
                    tuple.insert(0, item);
                }
            }
            None => {
                // Miss on a full cache: evict the back, insert by type.
                tuple.pop();
                if self.mru[item] {
                    tuple.push(item);
                } else {
                    tuple.insert(0, item);
                }
            }
        }
    }

    /// Enumerates every ordered `capacity`-tuple of distinct items.
    fn enumerate_states(&self) -> Vec<Vec<usize>> {
        let n = self.probs.len();
        let mut out = Vec::new();
        let mut tuple = Vec::with_capacity(self.capacity);
        let mut used = vec![false; n];
        fn rec(
            n: usize,
            depth: usize,
            tuple: &mut Vec<usize>,
            used: &mut [bool],
            out: &mut Vec<Vec<usize>>,
        ) {
            if tuple.len() == depth {
                out.push(tuple.clone());
                return;
            }
            for i in 0..n {
                if !used[i] {
                    used[i] = true;
                    tuple.push(i);
                    rec(n, depth, tuple, used, out);
                    tuple.pop();
                    used[i] = false;
                }
            }
        }
        rec(n, self.capacity, &mut tuple, &mut used, &mut out);
        out
    }

    /// The stationary hit rate, computed by power iteration of the
    /// request chain over the ordered-tuple state space.
    ///
    /// When the whole universe fits (`capacity ≥ items`) the stationary
    /// cache holds everything and the hit rate is exactly 1.
    pub fn stationary_hit_rate(&self) -> f64 {
        let n = self.probs.len();
        if self.capacity >= n {
            return 1.0;
        }
        let states = self.enumerate_states();
        let index: FastMap<u64, u32> = states
            .iter()
            .enumerate()
            .map(|(i, s)| (pack(s), i as u32))
            .collect();
        // Precompute the transition target for every (state, item).
        let mut next = vec![0u32; states.len() * n];
        let mut scratch = Vec::with_capacity(self.capacity);
        for (si, s) in states.iter().enumerate() {
            for item in 0..n {
                scratch.clone_from(s);
                self.step(&mut scratch, item);
                next[si * n + item] = *index
                    .get(&pack(&scratch))
                    .expect("transitions stay inside the full-tuple space");
            }
        }
        // Power-iterate from a single reachable state. Transient mass
        // (states the typed dynamics cannot revisit) drains into the
        // recurrent class; self-loops (a hit on the front item) make the
        // chain aperiodic, so the iteration converges geometrically.
        let mut pi = vec![0.0f64; states.len()];
        pi[0] = 1.0;
        let mut nxt = vec![0.0f64; states.len()];
        for _ in 0..200_000 {
            for v in nxt.iter_mut() {
                *v = 0.0;
            }
            for (si, &mass) in pi.iter().enumerate() {
                if mass == 0.0 {
                    continue;
                }
                for (item, &p) in self.probs.iter().enumerate() {
                    nxt[next[si * n + item] as usize] += mass * p;
                }
            }
            let delta: f64 = pi.iter().zip(&nxt).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut pi, &mut nxt);
            if delta < 1e-13 {
                break;
            }
        }
        states
            .iter()
            .zip(&pi)
            .map(|(s, &mass)| mass * s.iter().map(|&i| self.probs[i]).sum::<f64>())
            .sum()
    }

    /// The Hendricks (1972) product-form stationary hit rate — **pure
    /// LRU only**. `π(x₁,…,x_C) = Π p_{x_k}/(1 − Σ_{j<k} p_{x_j})`,
    /// summed over every ordered tuple weighted by its resident mass.
    ///
    /// This is an algebraically independent computation from
    /// [`Self::stationary_hit_rate`]'s power iteration; the two agreeing is
    /// the model's own correctness gate.
    ///
    /// Returns `None` if any item is MRU-typed (the product form does
    /// not apply).
    pub fn product_form_hit_rate(&self) -> Option<f64> {
        if self.mru.iter().any(|&m| m) {
            return None;
        }
        let n = self.probs.len();
        if self.capacity >= n {
            return Some(1.0);
        }
        fn rec(
            probs: &[f64],
            used: &mut [bool],
            depth_left: usize,
            tuple_prob: f64,
            prefix_mass: f64,
            resident_mass: f64,
        ) -> f64 {
            if depth_left == 0 {
                return tuple_prob * resident_mass;
            }
            let mut acc = 0.0;
            for i in 0..probs.len() {
                if used[i] {
                    continue;
                }
                used[i] = true;
                let p = probs[i];
                acc += rec(
                    probs,
                    used,
                    depth_left - 1,
                    tuple_prob * p / (1.0 - prefix_mass),
                    prefix_mass + p,
                    resident_mass + p,
                );
                used[i] = false;
            }
            acc
        }
        let mut used = vec![false; n];
        Some(rec(&self.probs, &mut used, self.capacity, 1.0, 0.0, 0.0))
    }
}

/// The trace-driven reference implementation of the generalized LRU-MRU
/// cache — the simulator twin of [`LruMruModel`], with byte-for-byte
/// identical dynamics (the model's private `step` is the spec for both).
///
/// Items are dense ranks `0..universe`. The ordered list keeps the
/// front at index 0; eviction removes the back. Below capacity, misses
/// insert without evicting (the transient the stationary model skips —
/// it washes out of the measured hit rate over a long replay).
#[derive(Debug, Clone)]
pub struct LruMruCacheSim {
    capacity: usize,
    mru: Vec<bool>,
    list: Vec<usize>,
    hits: u64,
    accesses: u64,
}

impl LruMruCacheSim {
    /// Creates an empty cache over `universe` ranks with per-rank MRU
    /// typing.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] for a zero capacity or universe, or
    /// a flag vector of the wrong length.
    pub fn new(universe: usize, capacity: usize, mru: &[bool]) -> Result<Self, ValidationError> {
        if universe == 0 {
            return Err(ValidationError::new(
                "universe",
                "must be greater than zero",
            ));
        }
        if capacity == 0 {
            return Err(ValidationError::new(
                "capacity",
                "must be greater than zero",
            ));
        }
        if mru.len() != universe {
            return Err(ValidationError::new(
                "mru",
                "need exactly one MRU flag per rank",
            ));
        }
        Ok(LruMruCacheSim {
            capacity,
            mru: mru.to_vec(),
            list: Vec::with_capacity(capacity),
            hits: 0,
            accesses: 0,
        })
    }

    /// A pure-LRU reference cache (every rank LRU-typed).
    ///
    /// # Errors
    ///
    /// Propagates [`LruMruCacheSim::new`] validation.
    pub fn pure_lru(universe: usize, capacity: usize) -> Result<Self, ValidationError> {
        let mru = vec![false; universe];
        LruMruCacheSim::new(universe, capacity, &mru)
    }

    /// Processes one request; returns `true` on a hit.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is outside the universe the cache was built for.
    pub fn access(&mut self, rank: usize) -> bool {
        assert!(rank < self.mru.len(), "rank {rank} outside universe");
        self.accesses += 1;
        let pos = self.list.iter().position(|&x| x == rank);
        let hit = pos.is_some();
        match pos {
            Some(i) => {
                self.list.remove(i);
                self.hits += 1;
            }
            None if self.list.len() == self.capacity => {
                self.list.pop();
            }
            None => {}
        }
        if self.mru[rank] {
            self.list.push(rank);
        } else {
            self.list.insert(0, rank);
        }
        hit
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Hit rate so far (0 before any request).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Resident ranks, front (most protected) first.
    pub fn residents(&self) -> &[usize] {
        &self.list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::zipf_popularities;
    use fgcache_types::rng::{RandomSource, SeededRng};

    /// Inverse-CDF sampling over an explicit popularity vector.
    fn sample(probs: &[f64], rng: &mut SeededRng) -> usize {
        let u = rng.next_f64();
        let mut acc = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return i;
            }
        }
        probs.len() - 1
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        assert!(LruMruModel::new(&[], 2, &[]).is_err());
        assert!(LruMruModel::new(&[0.5, 0.5], 2, &[false]).is_err());
        assert!(LruMruModel::new(&[0.5, 0.0, 0.5], 2, &[false; 3]).is_err());
        assert!(LruMruModel::new(&[0.6, 0.6], 2, &[false; 2]).is_err());
        assert!(LruMruModel::new(&[0.5, 0.5], 0, &[false; 2]).is_err());
        assert!(LruMruModel::new(&[0.5, 0.5], 9, &[false; 2]).is_err());
        // State-space cap: 40·39·38·37·36·35·34·33 ≫ the enumeration cap.
        let p = zipf_popularities(40, 0.7).unwrap();
        assert!(LruMruModel::new(&p, 8, &[false; 40]).is_err());
        assert!(LruMruCacheSim::new(0, 2, &[]).is_err());
        assert!(LruMruCacheSim::new(2, 0, &[false; 2]).is_err());
        assert!(LruMruCacheSim::new(2, 2, &[false; 3]).is_err());
    }

    #[test]
    fn whole_universe_fits() {
        let p = zipf_popularities(3, 1.0).unwrap();
        let m = LruMruModel::new(&p, 3, &[false, true, false]).unwrap();
        assert_eq!(m.stationary_hit_rate(), 1.0);
        assert_eq!(
            LruMruModel::pure_lru(&p, 3)
                .unwrap()
                .product_form_hit_rate(),
            Some(1.0)
        );
    }

    #[test]
    fn power_iteration_matches_product_form_for_pure_lru() {
        // The model's own correctness gate: two algebraically independent
        // computations of the same stationary law.
        for &(n, c, alpha) in &[(5usize, 2usize, 0.8f64), (6, 3, 1.2), (7, 3, 0.0)] {
            let p = zipf_popularities(n, alpha).unwrap();
            let m = LruMruModel::pure_lru(&p, c).unwrap();
            let power = m.stationary_hit_rate();
            let product = m.product_form_hit_rate().expect("pure LRU");
            assert!(
                (power - product).abs() < 1e-9,
                "N={n} C={c} α={alpha}: power {power} vs product {product}"
            );
        }
    }

    #[test]
    fn mru_typing_changes_the_stationary_law() {
        let p = zipf_popularities(6, 0.9).unwrap();
        let lru = LruMruModel::pure_lru(&p, 3).unwrap().stationary_hit_rate();
        // Typing the most popular item MRU leaves it permanently on the
        // eviction seat: the hit rate must drop.
        let mut mru = vec![false; 6];
        mru[0] = true;
        let mixed = LruMruModel::new(&p, 3, &mru).unwrap().stationary_hit_rate();
        assert!(
            mixed < lru - 0.01,
            "MRU-typing the hottest item should hurt: {mixed} vs {lru}"
        );
        assert!(m_in_unit(mixed) && m_in_unit(lru));
    }

    fn m_in_unit(x: f64) -> bool {
        (0.0..=1.0).contains(&x)
    }

    #[test]
    fn simulator_converges_to_the_stationary_model() {
        // 400k seeded IRM requests: simulated hit rate within 5e-3 of the
        // exact stationary law, for pure LRU and for a mixed typing.
        let p = zipf_popularities(8, 1.0).unwrap();
        let mut typings = vec![vec![false; 8]];
        let mut mixed = vec![false; 8];
        mixed[1] = true;
        mixed[4] = true;
        typings.push(mixed);
        for mru in typings {
            let model = LruMruModel::new(&p, 4, &mru).unwrap();
            let expect = model.stationary_hit_rate();
            let mut sim = LruMruCacheSim::new(8, 4, &mru).unwrap();
            let mut rng = SeededRng::new(20020702);
            for _ in 0..400_000 {
                sim.access(sample(&p, &mut rng));
            }
            let got = sim.hit_rate();
            assert!(
                (got - expect).abs() < 5e-3,
                "mru={mru:?}: simulated {got} vs stationary {expect}"
            );
        }
    }

    #[test]
    fn mru_items_sit_on_the_eviction_seat() {
        let mru = vec![false, false, true];
        let mut sim = LruMruCacheSim::new(3, 2, &mru).unwrap();
        sim.access(2); // MRU rank fills from the back
        sim.access(0);
        assert_eq!(sim.residents(), &[0, 2]);
        sim.access(2); // hit: stays at the back
        assert_eq!(sim.residents(), &[0, 2]);
        sim.access(1); // miss: evicts the MRU tenant
        assert_eq!(sim.residents(), &[1, 0]);
    }

    #[test]
    fn che_approximation_is_anchored_by_the_exact_model() {
        // The point of the exact model: at small universes it certifies
        // the Che approximation the planner actually uses at scale.
        let p = zipf_popularities(10, 0.8).unwrap();
        let exact = LruMruModel::pure_lru(&p, 4).unwrap().stationary_hit_rate();
        let che = crate::che::solve(&p, 4.0).unwrap().hit_rate;
        assert!(
            (exact - che).abs() < 0.02,
            "exact {exact} vs Che {che} — approximation outside its pinned band"
        );
    }
}
