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
//!
//! On [`tlb::Ways`], the index policy is the low VPN bits, the payload
//! the PPN, and replacement is restricted to a way mask per TB slot.

use tlb::{
    InvariantViolation, TlbConfig, TlbOutcome, TlbRequest, TlbStats, TranslationBuffer, Ways,
};
use vmem::{Asid, Ppn, Vpn};

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
    ways: Ways<Ppn>,
    concurrent_tbs: u8,
}

impl WayPartitionedTlb {
    /// Creates an empty way-partitioned TLB.
    pub fn new(config: TlbConfig) -> Self {
        WayPartitionedTlb {
            ways: Ways::new(config),
            config,
            concurrent_tbs: 16,
        }
    }

    /// The way holding `asid`'s translation of `vpn`, if any.
    fn find(&self, asid: Asid, vpn: Vpn) -> Option<usize> {
        let set = self.ways.set(self.ways.set_of(vpn, 0));
        self.ways.find(set, asid, vpn, |_| true)
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.ways.occupancy()
    }
}

impl TranslationBuffer for WayPartitionedTlb {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        self.ways.tick();
        let Some(w) = self.find(req.asid, req.vpn) else {
            self.ways.record(req.asid, false);
            return TlbOutcome::miss(self.config.lookup_latency);
        };
        self.ways.touch(w);
        self.ways.record(req.asid, true);
        TlbOutcome::hit(*self.ways.payload(w), self.config.lookup_latency)
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        self.ways.tick();
        // Refresh anywhere if present.
        if let Some(w) = self.find(req.asid, req.vpn) {
            *self.ways.payload_mut(w) = ppn;
            self.ways.touch(w);
            return;
        }
        self.ways.inserted(req.asid);
        // Replace only within the TB's own ways (LRU, invalid first): one
        // owner group per TB up to the associativity.
        let groups = (self.concurrent_tbs as usize).clamp(1, self.config.associativity);
        let owner = req.tb_slot as usize % groups;
        let set = self.ways.set(self.ways.set_of(req.vpn, 0));
        let w = self.ways.victim(set.filter(|w| w % groups == owner));
        self.ways.evict(w);
        self.ways.fill(w, req.asid, req.vpn, ppn);
    }

    fn stats(&self) -> TlbStats {
        self.ways.stats()
    }

    fn reset_stats(&mut self) {
        self.ways.reset_stats();
    }

    fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        self.ways.stats_by_asid()
    }

    fn flush(&mut self) {
        self.ways.flush();
    }

    fn capacity(&self) -> usize {
        self.config.entries
    }

    fn set_concurrent_tbs(&mut self, tbs: u8) {
        self.concurrent_tbs = tbs.max(1);
    }

    fn probe(&self, req: &TlbRequest) -> Option<Option<Ppn>> {
        Some(self.find(req.asid, req.vpn).map(|w| *self.ways.payload(w)))
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.ways
            .check(|_, _| true, |_, _| Ok(()))
            .map_err(|e| InvariantViolation::new("WayPartitionedTlb", e, self.dump_state()))
    }

    fn dump_state(&self) -> String {
        let name = format!("WayPartitionedTlb ({} TBs)", self.concurrent_tbs);
        self.ways.dump(&name, |s, _, ppn| {
            s.push_str(&format!(" ppn={:#x}", ppn.raw()));
        })
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

    fn areq(asid: u16, vpn: u64, slot: u8) -> TlbRequest {
        req(vpn, slot).with_asid(Asid::new(asid))
    }

    #[test]
    fn same_vpn_different_asid_never_hits() {
        let mut t = WayPartitionedTlb::new(TlbConfig::dac23_l1());
        t.insert(&areq(1, 9, 0), Ppn::new(100));
        assert!(!t.lookup(&areq(2, 9, 0)).hit, "cross-ASID lookup must miss");
        assert_eq!(t.probe(&areq(2, 9, 0)), Some(None));
        // Both apps hold the same VPN with their own frames.
        t.insert(&areq(2, 9, 1), Ppn::new(200));
        assert_eq!(t.occupancy(), 2);
        assert_eq!(t.lookup(&areq(1, 9, 3)).ppn, Some(Ppn::new(100)));
        assert_eq!(t.lookup(&areq(2, 9, 3)).ppn, Some(Ppn::new(200)));
        let by: std::collections::HashMap<_, _> = t.stats_by_asid().into_iter().collect();
        assert_eq!((by[&Asid::new(1)].hits, by[&Asid::new(2)].misses), (1, 1));
        t.check_invariants()
            .expect("mixed-ASID state is consistent");
    }

    #[test]
    fn check_invariants_reports_a_broken_lru_order_with_dump() {
        let mut t = WayPartitionedTlb::new(TlbConfig::dac23_l1());
        t.insert(&req(1, 0), Ppn::new(1));
        t.insert(&req(17, 1), Ppn::new(2)); // same set, stamped now
        t.check_invariants()
            .expect("fills keep the way array consistent");
        // Restamp the older entry with the current time: the set's two
        // ways now tie in LRU order.
        let w = t.find(Asid::default(), Vpn::new(1)).unwrap();
        t.ways.touch(w);
        let v = t.check_invariants().unwrap_err();
        assert!(v.detail.contains("duplicate LRU stamp"), "{}", v.detail);
        assert!(v.dump.contains("WayPartitionedTlb (16 TBs)"), "{}", v.dump);
        assert!(v.dump.contains("vpn=0x11 ppn=0x2"), "{}", v.dump);
    }

    #[test]
    fn evictions_are_charged_to_the_displaced_app() {
        // 1 set x 4 ways, 2 TBs: each TB owns two ways.
        let mut t = WayPartitionedTlb::new(TlbConfig::new(4, 4, 1));
        t.set_concurrent_tbs(2);
        for i in 0..6u64 {
            t.insert(&areq((i % 2) as u16, i, 0), Ppn::new(i));
            t.check_invariants()
                .expect("fills keep the way array consistent");
        }
        let by: std::collections::HashMap<_, _> = t.stats_by_asid().into_iter().collect();
        assert_eq!(by[&Asid::new(0)].evictions, 2, "pages 0 and 2 displaced");
        assert_eq!(by[&Asid::new(1)].evictions, 2, "pages 1 and 3 displaced");
        assert_eq!(t.occupancy(), 2);
    }
}
