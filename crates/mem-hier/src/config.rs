//! Geometry and timing configuration for the memory hierarchy.

use tlb::TlbConfig;

/// The widest associativity a data cache serves.
pub(crate) const MAX_WAYS: usize = 64;

/// Geometry of a data cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Associativity.
    pub associativity: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Creates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` divides evenly into at least one whole set
    /// of `associativity` lines: a zero field, a capacity that is not a
    /// whole number of lines, or one smaller than a single set would
    /// otherwise surface later as an out-of-range set index. (Set counts
    /// need not be powers of two: the cache indexes by modulo, matching a
    /// sliced L2 whose 12 partitions each hold a power-of-two number of
    /// sets.) Panics too on more than 64 ways, the widest set the
    /// cache's probe serves (its match mask is a `u64`).
    pub fn new(bytes: usize, associativity: usize, line_bytes: usize) -> Self {
        assert!(
            bytes > 0 && associativity > 0 && line_bytes > 0,
            "cache geometry fields must be non-zero"
        );
        assert!(
            associativity <= MAX_WAYS,
            "cache associativity above {MAX_WAYS} ways"
        );
        let lines = bytes / line_bytes;
        assert!(
            lines >= associativity,
            "capacity must hold at least one set"
        );
        assert!(
            bytes.is_multiple_of(line_bytes),
            "capacity must be a whole number of lines"
        );
        assert!(
            lines.is_multiple_of(associativity),
            "lines must fill whole sets"
        );
        CacheConfig {
            bytes,
            associativity,
            line_bytes,
        }
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        self.bytes / self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.lines() / self.associativity
    }
}

/// Multi-tenant organization of the shared L2 TLB when applications
/// co-run (DESIGN.md §6b). With a single resident app every variant
/// behaves like [`L2Policy::Shared`] in the limit; the variants matter
/// under cross-ASID contention.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum L2Policy {
    /// Baseline: one ASID-tagged set-associative structure per slice,
    /// apps compete freely for every way.
    #[default]
    Shared,
    /// MASK-style L2 TLB-fill tokens: an app holding `quota` or more
    /// resident entries in a slice has exhausted its tokens there, and
    /// further fills *bypass* the slice (the translation still resolves,
    /// it just isn't cached), protecting co-runners from fill floods.
    MaskTokens {
        /// Resident-entry budget per app per slice.
        quota: usize,
    },
    /// MIG-style sub-entry sharing: ways are tagged by VPN alone and hold
    /// `subs` per-ASID sub-entries, so co-runners mapping the same pages
    /// share tag space without seeing each other's frames.
    SubEntry {
        /// Sub-entries per shared tag.
        subs: usize,
    },
}

/// Everything [`HierarchyBuilder`](crate::HierarchyBuilder) needs to
/// assemble the baseline translation + data pipeline of the paper's
/// Figure 1. The engine derives this from its own `GpuConfig`; variant
/// hierarchies (MASK-style TLB-aware caches, Mosaic-style multi-page-size
/// levels) reuse the same fields and swap stages.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of SMs (one private L1 TLB and L1 data cache each).
    pub num_sms: usize,
    /// Per-SM private L1 data cache.
    pub l1_cache: CacheConfig,
    /// Shared L2 data cache.
    pub l2_cache: CacheConfig,
    /// Shared L2 TLB geometry (divided evenly over the slices).
    pub l2_tlb: TlbConfig,
    /// VPN-interleaved L2 TLB slices (1 = monolithic).
    pub l2_tlb_slices: usize,
    /// Lookup ports per L2 TLB slice.
    pub l2_tlb_ports: usize,
    /// Cycles a granted lookup holds an L2 TLB port.
    pub l2_tlb_port_occupancy: u64,
    /// Shared page-table walkers.
    pub walkers: usize,
    /// Base page-table-walk latency in cycles.
    pub walk_latency: u64,
    /// Additional walk cycles per radix level touched (0 = flat walks).
    pub walk_latency_per_level: u64,
    /// L1 data-cache hit latency.
    pub l1_hit_latency: u64,
    /// One-way SM-to-partition interconnect latency.
    pub icnt_latency: u64,
    /// L2 data-cache access latency.
    pub l2_hit_latency: u64,
    /// DRAM access latency beyond L2.
    pub dram_latency: u64,
    /// One-time UVM first-touch (demand-paging) penalty per page.
    pub demand_fault_latency: u64,
    /// Multi-tenant organization of the shared L2 TLB.
    pub l2_policy: L2Policy,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_geometry() {
        let c = CacheConfig::new(16 * 1024, 4, 128);
        assert_eq!(c.lines(), 128);
        assert_eq!(c.sets(), 32);
    }

    #[test]
    #[should_panic(expected = "whole sets")]
    fn bad_cache_geometry_rejected() {
        let _ = CacheConfig::new(129 * 3, 2, 129 /* 3 lines, assoc 2 */);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn cache_smaller_than_a_line_rejected() {
        // 64 bytes of 128-byte lines: zero lines, which `is_multiple_of`
        // alone would accept.
        let _ = CacheConfig::new(64, 2, 128);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn cache_smaller_than_a_set_rejected() {
        let _ = CacheConfig::new(256, 4, 128 /* 2 lines, assoc 4 */);
    }

    #[test]
    #[should_panic(expected = "whole number of lines")]
    fn partial_line_capacity_rejected() {
        // 1000 bytes is 7.8 lines; truncating to 7 would be silent.
        let _ = CacheConfig::new(1000, 1, 128);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_field_rejected() {
        let _ = CacheConfig::new(1024, 0, 128);
    }

    #[test]
    fn l2_policy_defaults_to_shared() {
        assert_eq!(L2Policy::default(), L2Policy::Shared);
        // The variants carry their own knobs and compare structurally.
        assert_ne!(
            L2Policy::MaskTokens { quota: 8 },
            L2Policy::MaskTokens { quota: 9 }
        );
        assert_ne!(L2Policy::SubEntry { subs: 2 }, L2Policy::Shared);
    }

    #[test]
    fn l2_slice_geometry_is_non_pow2_sets() {
        let c = CacheConfig::new(1536 * 1024, 8, 128);
        assert_eq!(c.sets(), 1536);
    }
}
