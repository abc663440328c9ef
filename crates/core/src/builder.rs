//! Builder for [`AggregatingCache`].

use fgcache_types::sizing::SizeCostAssigner;
use fgcache_types::ValidationError;

use crate::aggregating::{AggregatingCache, InsertionPolicy, MetadataSource};

/// Default number of successors tracked per file. The paper's Figure 5
/// shows a recency list of a handful of entries already sits close to the
/// oracle; eight is comfortably inside that regime while keeping metadata
/// tiny.
pub const DEFAULT_SUCCESSOR_CAPACITY: usize = 8;

/// Configures and constructs an [`AggregatingCache`].
///
/// ```
/// use fgcache_core::{AggregatingCacheBuilder, InsertionPolicy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cache = AggregatingCacheBuilder::new(300)
///     .group_size(5)
///     .successor_capacity(4)
///     .insertion_policy(InsertionPolicy::Tail)
///     .build()?;
/// assert_eq!(cache.group_size(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AggregatingCacheBuilder {
    capacity: usize,
    group_size: usize,
    successor_capacity: usize,
    insertion: InsertionPolicy,
    metadata: MetadataSource,
    sizes: Option<SizeCostAssigner>,
    bundle_eviction: bool,
}

impl AggregatingCacheBuilder {
    /// Starts a builder for a cache of `capacity` files. Defaults: group
    /// size 5 (the paper's sweet spot), successor capacity
    /// [`DEFAULT_SUCCESSOR_CAPACITY`], tail insertion, metadata from
    /// requests.
    pub fn new(capacity: usize) -> Self {
        AggregatingCacheBuilder {
            capacity,
            group_size: 5,
            successor_capacity: DEFAULT_SUCCESSOR_CAPACITY,
            insertion: InsertionPolicy::default(),
            metadata: MetadataSource::default(),
            sizes: None,
            bundle_eviction: false,
        }
    }

    /// Gives files sizes and retrieval costs: residency is accounted in
    /// size units (the capacity doubles as the unit budget) and group
    /// admission trims members that do not fit. With a uniform assigner
    /// the cache behaves bit-identically to the default fixed-cost
    /// configuration.
    pub fn sizes(mut self, assigner: SizeCostAssigner) -> Self {
        self.sizes = Some(assigner);
        self
    }

    /// Enables whole-group (bundle) eviction: reclaiming an LRU victim
    /// also reclaims its still-attached co-fetched group members.
    /// Requires [`Self::sizes`] (bundle accounting rides on the sized
    /// path); [`Self::build`] rejects the combination otherwise.
    pub fn bundle_eviction(mut self, enabled: bool) -> Self {
        self.bundle_eviction = enabled;
        self
    }

    /// Sets the group size `g` (1 = plain LRU).
    pub fn group_size(mut self, g: usize) -> Self {
        self.group_size = g;
        self
    }

    /// Sets the per-file successor list capacity.
    pub fn successor_capacity(mut self, capacity: usize) -> Self {
        self.successor_capacity = capacity;
        self
    }

    /// Sets where speculative group members are placed.
    pub fn insertion_policy(mut self, policy: InsertionPolicy) -> Self {
        self.insertion = policy;
        self
    }

    /// Sets where successor observations come from.
    pub fn metadata_source(mut self, source: MetadataSource) -> Self {
        self.metadata = source;
        self
    }

    /// Validates the configuration and constructs the cache.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] if the cache capacity or group size
    /// is zero, the successor capacity is zero, the group size exceeds
    /// the cache capacity (a group must fit in the cache), or bundle
    /// eviction is requested without a size assigner.
    pub fn build(&self) -> Result<AggregatingCache, ValidationError> {
        if self.capacity == 0 {
            return Err(ValidationError::new(
                "capacity",
                "cache capacity must be greater than zero",
            ));
        }
        if self.group_size > self.capacity {
            return Err(ValidationError::new(
                "group_size",
                "a whole group must fit in the cache (group_size <= capacity)",
            ));
        }
        if self.bundle_eviction && self.sizes.is_none() {
            return Err(ValidationError::new(
                "bundle_eviction",
                "bundle eviction requires a size assigner (use .sizes())",
            ));
        }
        if self.group_size == 0 {
            return Err(ValidationError::new(
                "group_size",
                "groups contain at least the requested file",
            ));
        }
        if self.successor_capacity == 0 {
            return Err(ValidationError::new(
                "capacity",
                "successor list capacity must be at least 1",
            ));
        }
        Ok(AggregatingCache::new(
            self.capacity,
            self.group_size,
            self.successor_capacity,
            self.insertion,
            self.metadata,
            self.sizes,
            self.bundle_eviction,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = AggregatingCacheBuilder::new(100).build().unwrap();
        assert_eq!(c.group_size(), 5);
        assert_eq!(c.capacity(), 100);
    }

    #[test]
    fn validation() {
        assert!(AggregatingCacheBuilder::new(0).build().is_err());
        assert!(AggregatingCacheBuilder::new(10)
            .group_size(0)
            .build()
            .is_err());
        assert!(AggregatingCacheBuilder::new(10)
            .successor_capacity(0)
            .build()
            .is_err());
        assert!(AggregatingCacheBuilder::new(4)
            .group_size(5)
            .build()
            .is_err());
        assert!(AggregatingCacheBuilder::new(5)
            .group_size(5)
            .build()
            .is_ok());
    }

    #[test]
    fn error_names_parameter() {
        let err = AggregatingCacheBuilder::new(4)
            .group_size(9)
            .build()
            .unwrap_err();
        assert_eq!(err.parameter(), "group_size");
    }

    use fgcache_cache::Cache as _;
}
