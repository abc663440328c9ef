//! Deterministic per-file size and retrieval-cost assignment.
//!
//! The paper's experiments treat every file as one uniform-cost unit.
//! Generalising to Young's *On-Line File Caching* (Landlord) requires
//! each file to carry a **size** (how much cache capacity it occupies)
//! and a **retrieval cost** (what a miss on it costs). Traces in this
//! workspace do not record sizes, so sizes are *assigned*: a pure
//! function of `(seed, file id)` built on the SplitMix64 finalizer, the
//! same mixer that routes files to shards. The assignment is therefore
//!
//! * **deterministic** — the same seed yields the same size for a file
//!   on every platform, forever (golden values are pinned in tests);
//! * **stateless** — no table to build or ship; any component (cache,
//!   transport, pricing sweep) derives the identical size on demand;
//! * **backwards compatible** — [`SizeDistribution::Uniform`] assigns
//!   size = cost = 1 to every file, under which every size-aware code
//!   path must degenerate bit-identically to the fixed-cost behaviour
//!   (the differential fuzzers enforce this).
//!
//! # Examples
//!
//! ```
//! use fgcache_types::sizing::{SizeCostAssigner, SizeDistribution};
//! use fgcache_types::FileId;
//!
//! let uniform = SizeCostAssigner::uniform();
//! assert_eq!(uniform.size_of(FileId(7)), 1);
//! assert_eq!(uniform.cost_of(FileId(7)), 1);
//!
//! let sized = SizeCostAssigner::new(SizeDistribution::Pareto, 42);
//! let s = sized.size_of(FileId(7));
//! assert!((1..=4096).contains(&s));
//! // Same seed, same file → same size, every time.
//! assert_eq!(s, SizeCostAssigner::new(SizeDistribution::Pareto, 42).size_of(FileId(7)));
//! ```

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::hash::mix64;
use crate::FileId;

/// Largest size (in units) any distribution assigns: 2¹².
pub const MAX_FILE_SIZE: u32 = 4096;

/// Fixed per-request component of a non-uniform retrieval cost, in the
/// same units as file sizes. Mirrors the distributed-file-system regime
/// of `CostModel::remote` (a round trip worth several size units), so
/// small files are latency-dominated and large files transfer-dominated.
pub const COST_BASE: u32 = 8;

/// The shape of the per-file size population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SizeDistribution {
    /// Every file has size 1 and cost 1 — the paper's fixed-cost model.
    /// Size-aware paths must be bit-identical to the legacy ones here.
    #[default]
    Uniform,
    /// Heavy-tailed power-of-two sizes: `P(size = 2^k) = 2^-(k+1)` for
    /// `k < 12` (the remaining mass lands on 4096), i.e. a discrete
    /// Pareto with tail exponent ≈ 1 — the classic file-size shape.
    Pareto,
    /// 15/16 of files are small (size 1), 1/16 are large (size 64) —
    /// the bimodal "config files and media blobs" caricature that
    /// stresses group trimming hardest.
    Bimodal,
}

impl SizeDistribution {
    /// Stable lowercase name (round-trips through [`FromStr`]).
    pub fn name(self) -> &'static str {
        match self {
            SizeDistribution::Uniform => "uniform",
            SizeDistribution::Pareto => "pareto",
            SizeDistribution::Bimodal => "bimodal",
        }
    }
}

impl fmt::Display for SizeDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing a [`SizeDistribution`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSizeDistributionError {
    /// The string that failed to parse.
    pub found: String,
}

impl fmt::Display for ParseSizeDistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unrecognised size distribution {:?}, expected one of uniform, pareto, bimodal",
            self.found
        )
    }
}

impl Error for ParseSizeDistributionError {}

impl FromStr for SizeDistribution {
    type Err = ParseSizeDistributionError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "uniform" => Ok(SizeDistribution::Uniform),
            "pareto" => Ok(SizeDistribution::Pareto),
            "bimodal" => Ok(SizeDistribution::Bimodal),
            other => Err(ParseSizeDistributionError {
                found: other.to_string(),
            }),
        }
    }
}

/// A pure `(seed, file) → (size, cost)` function.
///
/// Copyable and tiny: components that need sizes hold their own copy
/// rather than sharing a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeCostAssigner {
    dist: SizeDistribution,
    seed: u64,
}

impl SizeCostAssigner {
    /// An assigner over `dist`, keyed by `seed`.
    pub fn new(dist: SizeDistribution, seed: u64) -> Self {
        SizeCostAssigner { dist, seed }
    }

    /// The fixed-cost assigner: size = cost = 1 for every file.
    pub fn uniform() -> Self {
        SizeCostAssigner::new(SizeDistribution::Uniform, 0)
    }

    /// The configured distribution.
    pub fn distribution(self) -> SizeDistribution {
        self.dist
    }

    /// `true` for the fixed-cost assigner (size = cost = 1 everywhere).
    pub fn is_uniform(self) -> bool {
        self.dist == SizeDistribution::Uniform
    }

    /// The per-file random word: independent of everything except
    /// `(seed, file)`.
    fn draw(self, file: FileId) -> u64 {
        mix64(self.seed ^ mix64(file.as_u64()))
    }

    /// The file's size in capacity units, in `[1, MAX_FILE_SIZE]`.
    pub fn size_of(self, file: FileId) -> u32 {
        match self.dist {
            SizeDistribution::Uniform => 1,
            SizeDistribution::Pareto => {
                // Exponent k = number of trailing one-bits, capped at 12:
                // geometric over k, so P(size ≥ s) ≈ 1/s.
                let k = self.draw(file).trailing_ones().min(12);
                1u32 << k
            }
            SizeDistribution::Bimodal => {
                if self.draw(file) & 0xF == 0 {
                    64
                } else {
                    1
                }
            }
        }
    }

    /// The file's retrieval cost: what one demand miss on it is worth.
    ///
    /// Uniform files cost exactly 1 (the legacy fixed-cost model); sized
    /// files cost [`COST_BASE`]` + size`, the first-order request-plus-
    /// transfer price every other cost accounting in the workspace uses.
    pub fn cost_of(self, file: FileId) -> u32 {
        match self.dist {
            SizeDistribution::Uniform => 1,
            _ => COST_BASE + self.size_of(file),
        }
    }

    /// Total size of `files` in capacity units (u64 to survive large
    /// groups of maximal files).
    pub fn total_size(self, files: impl IntoIterator<Item = FileId>) -> u64 {
        files.into_iter().map(|f| u64::from(self.size_of(f))).sum()
    }
}

impl Default for SizeCostAssigner {
    fn default() -> Self {
        SizeCostAssigner::uniform()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_all_ones() {
        let a = SizeCostAssigner::uniform();
        for id in 0..1000u64 {
            assert_eq!(a.size_of(FileId(id)), 1);
            assert_eq!(a.cost_of(FileId(id)), 1);
        }
        assert!(a.is_uniform());
        assert_eq!(a.total_size((0..5).map(FileId)), 5);
    }

    #[test]
    fn assignment_is_deterministic_and_seed_keyed() {
        let a = SizeCostAssigner::new(SizeDistribution::Pareto, 7);
        let b = SizeCostAssigner::new(SizeDistribution::Pareto, 7);
        let c = SizeCostAssigner::new(SizeDistribution::Pareto, 8);
        let mut diverged = false;
        for id in 0..500u64 {
            assert_eq!(a.size_of(FileId(id)), b.size_of(FileId(id)));
            diverged |= a.size_of(FileId(id)) != c.size_of(FileId(id));
        }
        assert!(diverged, "different seeds must yield different populations");
    }

    #[test]
    fn pareto_sizes_are_powers_of_two_with_heavy_tail() {
        let a = SizeCostAssigner::new(SizeDistribution::Pareto, 20020702);
        let mut ones = 0usize;
        let mut large = 0usize;
        for id in 0..10_000u64 {
            let s = a.size_of(FileId(id));
            assert!(s.is_power_of_two() && s <= MAX_FILE_SIZE, "size {s}");
            ones += usize::from(s == 1);
            large += usize::from(s >= 64);
        }
        // Roughly half the mass at size 1, a small but present tail.
        assert!((4000..6000).contains(&ones), "{ones} size-1 files");
        assert!(large > 20, "tail too thin: {large} files ≥ 64");
    }

    #[test]
    fn bimodal_mixes_small_and_large() {
        let a = SizeCostAssigner::new(SizeDistribution::Bimodal, 1);
        let mut big = 0usize;
        for id in 0..10_000u64 {
            let s = a.size_of(FileId(id));
            assert!(s == 1 || s == 64);
            big += usize::from(s == 64);
        }
        // 1/16 expected → ~625.
        assert!((400..900).contains(&big), "{big} large files");
    }

    #[test]
    fn cost_is_base_plus_size_for_sized_files() {
        let a = SizeCostAssigner::new(SizeDistribution::Bimodal, 3);
        for id in 0..100u64 {
            let f = FileId(id);
            assert_eq!(a.cost_of(f), COST_BASE + a.size_of(f));
        }
    }

    #[test]
    fn golden_values_pin_the_assignment() {
        // Changing the mixer or the derivation silently changes every
        // published ablation; these pins make that a visible test break.
        let p = SizeCostAssigner::new(SizeDistribution::Pareto, 42);
        let golden: Vec<u32> = (0..8).map(|id| p.size_of(FileId(id))).collect();
        assert_eq!(golden, [4, 2, 4, 1, 8, 1, 1, 1]);
    }

    #[test]
    fn distribution_parse_roundtrip() {
        for d in [
            SizeDistribution::Uniform,
            SizeDistribution::Pareto,
            SizeDistribution::Bimodal,
        ] {
            assert_eq!(d.name().parse::<SizeDistribution>().unwrap(), d);
        }
        assert_eq!(
            "PARETO".parse::<SizeDistribution>().unwrap(),
            SizeDistribution::Pareto
        );
        let err = "zipf".parse::<SizeDistribution>().unwrap_err();
        assert!(err.to_string().contains("zipf"));
    }
}
