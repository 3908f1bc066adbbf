//! Way-partitioning comparator.
//!
//! The classic alternative to the paper's TB-id *set* indexing: keep the
//! baseline VPN set index, but give each TB a private subset of the
//! *ways* for replacement (way `w` belongs to TB slots with `slot ≡ w mod
//! G`). Lookups still search every way (tags disambiguate), so there is
//! no multi-set probe overhead and no full-VPN storage requirement — but
//! each TB's effective associativity shrinks and, unlike the paper's
//! design, hot sets cannot borrow capacity from cold ones. Used by the
//! partitioning-strategy ablation.

use tlb::{first_min, recency_key, TlbConfig, TlbOutcome, TlbRequest, TlbStats, TranslationBuffer};
use vmem::{Ppn, Vpn};

#[derive(Copy, Clone, Debug, Default)]
struct Way {
    valid: bool,
    vpn: Vpn,
    ppn: Ppn,
    stamp: u64,
}

/// A VPN-indexed TLB whose ways are statically partitioned among TB
/// slots.
///
/// # Example
///
/// ```
/// use orchestrated_tlb::WayPartitionedTlb;
/// use tlb::{TlbConfig, TlbRequest, TranslationBuffer};
/// use vmem::{Ppn, Vpn};
///
/// let mut t = WayPartitionedTlb::new(TlbConfig::dac23_l1());
/// t.set_concurrent_tbs(4);
/// t.insert(&TlbRequest::new(Vpn::new(7), 0), Ppn::new(9));
/// // Any TB can *hit* on the entry (tags disambiguate)...
/// assert!(t.lookup(&TlbRequest::new(Vpn::new(7), 3)).hit);
/// ```
#[derive(Debug, Clone)]
pub struct WayPartitionedTlb {
    config: TlbConfig,
    ways: Vec<Way>,
    concurrent_tbs: u8,
    clock: u64,
    stats: TlbStats,
}

impl WayPartitionedTlb {
    /// Creates an empty way-partitioned TLB.
    pub fn new(config: TlbConfig) -> Self {
        WayPartitionedTlb {
            ways: vec![Way::default(); config.entries],
            config,
            concurrent_tbs: 16,
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// Way-owner groups: one per TB up to the associativity.
    fn groups(&self) -> usize {
        (self.concurrent_tbs as usize).clamp(1, self.config.associativity)
    }

    fn set_of(&self, vpn: Vpn) -> usize {
        // Mask in u64 before narrowing so the set index is identical on
        // 32-bit hosts.
        (vpn.raw() & (self.config.sets() as u64 - 1)) as usize
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let a = self.config.associativity;
        set * a..(set + 1) * a
    }

    /// Ways of `set` that TB `slot` may replace into.
    fn owned_ways(&self, set: usize, slot: u8) -> impl Iterator<Item = usize> + '_ {
        let g = self.groups();
        let owner = slot as usize % g;
        self.set_range(set).filter(move |w| w % g == owner)
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

impl TranslationBuffer for WayPartitionedTlb {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        self.clock += 1;
        let set = self.set_of(req.vpn);
        let range = self.set_range(set);
        let clock = self.clock;
        for way in &mut self.ways[range] {
            if way.valid && way.vpn == req.vpn {
                way.stamp = clock;
                self.stats.record(true);
                return TlbOutcome::hit(way.ppn, self.config.lookup_latency);
            }
        }
        self.stats.record(false);
        TlbOutcome::miss(self.config.lookup_latency)
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        self.clock += 1;
        let set = self.set_of(req.vpn);
        let clock = self.clock;
        // Refresh anywhere if present.
        let range = self.set_range(set);
        if let Some(way) = self.ways[range]
            .iter_mut()
            .find(|w| w.valid && w.vpn == req.vpn)
        {
            way.ppn = ppn;
            way.stamp = clock;
            return;
        }
        self.stats.insertions += 1;
        // Replace only within the TB's own ways (LRU, invalid first).
        let victim = first_min(
            self.owned_ways(set, req.tb_slot)
                .map(|w| (w, recency_key(self.ways[w].valid, self.ways[w].stamp))),
        )
        .expect("every slot owns at least one way"); // simlint: allow(hot-unwrap, reason = "way_range clamps to at least one way per slot")
        if self.ways[victim].valid {
            self.stats.evictions += 1;
        }
        self.ways[victim] = Way {
            valid: true,
            vpn: req.vpn,
            ppn,
            stamp: clock,
        };
    }

    fn stats(&self) -> TlbStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
        }
    }

    fn capacity(&self) -> usize {
        self.config.entries
    }

    fn set_concurrent_tbs(&mut self, tbs: u8) {
        self.concurrent_tbs = tbs.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(vpn: u64, slot: u8) -> TlbRequest {
        TlbRequest::new(Vpn::new(vpn), slot)
    }

    #[test]
    fn cross_tb_hits_allowed() {
        let mut t = WayPartitionedTlb::new(TlbConfig::dac23_l1());
        t.set_concurrent_tbs(16);
        t.insert(&req(5, 0), Ppn::new(1));
        for slot in 0..16 {
            assert!(t.lookup(&req(5, slot)).hit, "slot {slot}");
        }
    }

    #[test]
    fn replacement_is_confined_to_owned_ways() {
        // 1 set x 4 ways, 4 TBs: each TB owns exactly one way.
        let mut t = WayPartitionedTlb::new(TlbConfig::new(4, 4, 1));
        t.set_concurrent_tbs(4);
        for slot in 0..4u8 {
            t.insert(&req(100 + slot as u64, slot), Ppn::new(slot as u64));
        }
        assert_eq!(t.occupancy(), 4);
        // TB 0 inserting more pages can only evict its own way; the other
        // TBs' entries survive arbitrarily many TB-0 insertions.
        for i in 0..10u64 {
            t.insert(&req(200 + i, 0), Ppn::new(i));
        }
        for slot in 1..4u8 {
            assert!(
                t.lookup(&req(100 + slot as u64, slot)).hit,
                "TB {slot}'s entry must survive TB 0's thrashing"
            );
        }
        assert!(!t.lookup(&req(100, 0)).hit, "TB 0 evicted its own entry");
    }

    #[test]
    fn more_tbs_than_ways_share_way_groups() {
        let mut t = WayPartitionedTlb::new(TlbConfig::dac23_l1()); // 4-way
        t.set_concurrent_tbs(16);
        // Slots 0 and 4 own the same way group (4-way: owner = slot % 4).
        t.insert(&req(1, 0), Ppn::new(1));
        // Fill slot 4's (same) way with conflicting pages in the same set.
        t.insert(&req(1 + 16, 4), Ppn::new(2));
        // Slot 0's entry was the only occupant of way 0 in that set; the
        // second insert used the same group but the set has one way per
        // group... both pages map to the same set (vpn % 16 == 1).
        let hits = [t.lookup(&req(1, 0)).hit, t.lookup(&req(17, 0)).hit];
        assert_eq!(
            hits.iter().filter(|&&h| h).count(),
            1,
            "shared way holds one"
        );
    }

    #[test]
    fn lookup_latency_is_base() {
        let mut t = WayPartitionedTlb::new(TlbConfig::dac23_l1());
        t.set_concurrent_tbs(2);
        assert_eq!(t.lookup(&req(9, 0)).latency, 1);
    }

    #[test]
    fn flush_and_stats() {
        let mut t = WayPartitionedTlb::new(TlbConfig::dac23_l1());
        t.insert(&req(1, 0), Ppn::new(1));
        assert!(t.lookup(&req(1, 0)).hit);
        t.flush();
        assert!(!t.lookup(&req(1, 0)).hit);
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
        t.reset_stats();
        assert_eq!(t.stats(), TlbStats::default());
        assert_eq!(t.capacity(), 64);
    }
}
