//! Replacement-policy selection for experiment drivers.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::{Cache, LandlordCache, LfuCache, LruCache, TwoQCache};

/// The replacement policies available to sweeps and examples.
///
/// ```
/// use fgcache_cache::{Cache, PolicyKind};
/// use fgcache_types::FileId;
///
/// let mut cache = PolicyKind::Lru.build(10);
/// cache.access(FileId(1));
/// assert_eq!(cache.name(), "lru");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least recently used.
    Lru,
    /// Least frequently used (LRU tie-break).
    Lfu,
    /// 2Q (Johnson & Shasha): the scan-resistant strong baseline.
    TwoQ,
    /// Landlord (Young) — size/cost-aware; uniform sizes degenerate to
    /// LRU. Built here with the uniform assigner; use
    /// [`LandlordCache::with_assigner`] for sized populations.
    Landlord,
}

impl PolicyKind {
    /// All policies, in a stable presentation order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::TwoQ,
        PolicyKind::Landlord,
    ];

    /// Constructs a boxed cache of this policy with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (each policy validates its capacity).
    pub fn build(self, capacity: usize) -> Box<dyn Cache + Send> {
        match self {
            PolicyKind::Lru => Box::new(LruCache::new(capacity)),
            PolicyKind::Lfu => Box::new(LfuCache::new(capacity)),
            PolicyKind::TwoQ => Box::new(TwoQCache::new(capacity)),
            PolicyKind::Landlord => Box::new(LandlordCache::new(capacity)),
        }
    }

    /// The policy's short stable name (matches
    /// [`Cache::name`](crate::Cache::name)).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Lfu => "lfu",
            PolicyKind::TwoQ => "2q",
            PolicyKind::Landlord => "landlord",
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing a [`PolicyKind`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    /// The string that failed to parse.
    pub found: String,
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unrecognised policy {:?}, expected one of ", self.found)?;
        for (i, kind) in PolicyKind::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(kind.name())?;
        }
        Ok(())
    }
}

impl Error for ParsePolicyError {}

impl FromStr for PolicyKind {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Ok(PolicyKind::Lru),
            "lfu" => Ok(PolicyKind::Lfu),
            "2q" | "twoq" => Ok(PolicyKind::TwoQ),
            "landlord" => Ok(PolicyKind::Landlord),
            other => Err(ParsePolicyError {
                found: other.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcache_types::FileId;

    #[test]
    fn build_produces_matching_names() {
        for kind in PolicyKind::ALL {
            let cache = kind.build(4);
            assert_eq!(cache.name(), kind.name());
            assert_eq!(cache.capacity(), 4);
        }
    }

    #[test]
    fn all_policies_work_through_trait_objects() {
        for kind in PolicyKind::ALL {
            let mut cache = kind.build(3);
            assert!(cache.access(FileId(1)).is_miss(), "{kind}");
            assert!(cache.access(FileId(1)).is_hit(), "{kind}");
            assert!(cache.contains(FileId(1)), "{kind}");
        }
    }

    #[test]
    fn parse_roundtrip() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.name().parse::<PolicyKind>().unwrap(), kind);
        }
        assert_eq!("LRU".parse::<PolicyKind>().unwrap(), PolicyKind::Lru);
        assert_eq!("twoq".parse::<PolicyKind>().unwrap(), PolicyKind::TwoQ);
    }

    #[test]
    fn parse_rejects_unknown() {
        let err = "belady".parse::<PolicyKind>().unwrap_err();
        assert!(err.to_string().contains("belady"));
    }

    #[test]
    fn parse_error_lists_exactly_the_policies() {
        let msg = "belady".parse::<PolicyKind>().unwrap_err().to_string();
        let (_, listed) = msg
            .split_once("expected one of ")
            .expect("the message lists the valid names");
        let listed: Vec<&str> = listed.split(", ").collect();
        let all: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(listed, all);
    }

    #[test]
    fn boxed_caches_are_send() {
        fn assert_send<T: Send>(_: T) {}
        assert_send(PolicyKind::Lru.build(2));
    }
}
