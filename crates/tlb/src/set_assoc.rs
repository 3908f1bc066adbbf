//! The baseline set-associative, VPN-indexed TLB with true-LRU
//! replacement.
//!
//! This is the organization the paper's Table III assumes for both the
//! per-SM private L1 TLB and the shared L2 TLB: the set index comes from
//! the low VPN bits, the remaining bits form the tag, and replacement is
//! LRU within a set.
//!
//! On [`Ways`], the index policy is the low VPN bits and the payload the
//! PPN.

use crate::config::TlbConfig;
use crate::memo::Memo;
use crate::request::{TlbOutcome, TlbRequest, TranslationBuffer};
use crate::sanitize::InvariantViolation;
use crate::stats::TlbStats;
use crate::ways::Ways;
use vmem::{Asid, Ppn, Vpn};

/// A VPN-indexed, set-associative TLB with LRU replacement.
///
/// # Example
///
/// ```
/// use tlb::{SetAssocTlb, TlbConfig, TlbRequest, TranslationBuffer};
/// use vmem::{Ppn, Vpn};
///
/// let mut tlb = SetAssocTlb::new(TlbConfig::new(8, 2, 1));
/// for i in 0..8 {
///     tlb.insert(&TlbRequest::new(Vpn::new(i), 0), Ppn::new(i));
/// }
/// assert!(tlb.lookup(&TlbRequest::new(Vpn::new(3), 0)).hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocTlb {
    config: TlbConfig,
    ways: Ways<Ppn>,
    /// Last hitting way per set.
    memo: Memo<()>,
}

impl SetAssocTlb {
    /// Creates an empty TLB with the given geometry.
    pub fn new(config: TlbConfig) -> Self {
        SetAssocTlb {
            config,
            ways: Ways::new(config),
            memo: Memo::new(config.sets()),
        }
    }

    /// Enables or disables the lookup memo: a wall-clock knob only, as
    /// `crates/core/tests/fastpath_diff.rs` proves.
    pub fn set_fastpath(&mut self, on: bool) {
        self.memo.set_enabled(on);
    }

    /// Number of valid entries currently resident (O(1)).
    pub fn occupancy(&self) -> usize {
        self.ways.occupancy()
    }

    /// Probes for `(asid, vpn)` without updating stats or LRU state
    /// (diagnostics).
    pub fn peek(&self, asid: Asid, vpn: Vpn) -> Option<Ppn> {
        let set = self.ways.set(self.ways.set_of(vpn, 0));
        let w = self.ways.find(set, asid, vpn, |_| true)?;
        Some(*self.ways.payload(w))
    }

    /// Number of valid entries currently owned by `asid` (O(1)); the
    /// MASK-style L2 token policy gates fills on this count.
    pub fn resident_of(&self, asid: Asid) -> usize {
        self.ways.resident_of(asid)
    }
}

impl TranslationBuffer for SetAssocTlb {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        self.ways.tick();
        let set = self.ways.set_of(req.vpn, 0);
        // The memoized way is trusted only if its tag still matches (the
        // tag packs the ASID, so another app's hit never serves this one).
        let found = self
            .ways
            .find_memo(&mut self.memo, set, req.asid, req.vpn, |_| true);
        let Some(w) = found else {
            self.ways.record(req.asid, false);
            return TlbOutcome::miss(self.config.lookup_latency);
        };
        self.ways.touch(w);
        self.ways.record(req.asid, true);
        TlbOutcome::hit(*self.ways.payload(w), self.config.lookup_latency)
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        self.ways.tick();
        let set = self.ways.set(self.ways.set_of(req.vpn, 0));
        // Refresh in place if already present (fill races are benign).
        if let Some(w) = self.ways.find(set.clone(), req.asid, req.vpn, |_| true) {
            *self.ways.payload_mut(w) = ppn;
            self.ways.touch(w);
            return;
        }
        self.ways.inserted(req.asid);
        let w = self.ways.victim(set);
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

    fn probe(&self, req: &TlbRequest) -> Option<Option<Ppn>> {
        Some(self.peek(req.asid, req.vpn))
    }

    fn flush(&mut self) {
        self.ways.flush();
        // The cleared tags already fail validation (hygiene only).
        self.memo.reset(self.config.sets());
    }

    fn fastpath_hits(&self) -> u64 {
        self.memo.served()
    }

    fn capacity(&self) -> usize {
        self.config.entries
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let ways = &self.ways;
        ways.check(|_, _| true, |_, _| Ok(()))
            .and_then(|()| {
                let sets = self.config.sets();
                self.memo.check(sets, |set, w| ways.set(set).contains(&w))
            })
            .map_err(|e| InvariantViolation::new("SetAssocTlb", e, self.dump_state()))
    }

    fn dump_state(&self) -> String {
        self.ways.dump("SetAssocTlb", |s, _, ppn| {
            s.push_str(&format!(" ppn={:#x}", ppn.raw()));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(vpn: u64) -> TlbRequest {
        TlbRequest::new(Vpn::new(vpn), 0)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut t = SetAssocTlb::new(TlbConfig::dac23_l1());
        assert!(!t.lookup(&req(1)).hit);
        t.insert(&req(1), Ppn::new(100));
        let out = t.lookup(&req(1));
        assert!(out.hit);
        assert_eq!(out.ppn, Some(Ppn::new(100)));
        assert_eq!(out.latency, 1);
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways.
        let mut t = SetAssocTlb::new(TlbConfig::new(2, 2, 1));
        t.insert(&req(0), Ppn::new(0));
        t.insert(&req(1), Ppn::new(1));
        // Touch 0 so 1 becomes LRU.
        assert!(t.lookup(&req(0)).hit);
        t.insert(&req(2), Ppn::new(2));
        assert!(t.lookup(&req(0)).hit, "recently used entry survives");
        assert!(!t.lookup(&req(1)).hit, "LRU entry evicted");
        assert!(t.lookup(&req(2)).hit);
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn sets_are_independent() {
        // 4 sets x 1 way; VPNs 0..4 map to distinct sets.
        let mut t = SetAssocTlb::new(TlbConfig::new(4, 1, 1));
        for i in 0..4 {
            t.insert(&req(i), Ppn::new(i));
        }
        for i in 0..4 {
            assert!(t.lookup(&req(i)).hit);
        }
        // VPN 4 conflicts with VPN 0 only.
        t.insert(&req(4), Ppn::new(4));
        assert!(!t.lookup(&req(0)).hit);
        assert!(t.lookup(&req(1)).hit);
    }

    #[test]
    fn reinsert_updates_ppn_without_eviction() {
        let mut t = SetAssocTlb::new(TlbConfig::new(2, 2, 1));
        t.insert(&req(0), Ppn::new(1));
        t.insert(&req(0), Ppn::new(2));
        assert_eq!(t.lookup(&req(0)).ppn, Some(Ppn::new(2)));
        assert_eq!(t.stats().evictions, 0);
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut t = SetAssocTlb::new(TlbConfig::dac23_l1());
        for i in 0..64 {
            t.insert(&req(i), Ppn::new(i));
        }
        assert_eq!(t.occupancy(), 64);
        t.flush();
        assert_eq!(t.occupancy(), 0);
        assert!(!t.lookup(&req(0)).hit);
    }

    #[test]
    fn peek_does_not_perturb_state() {
        let mut t = SetAssocTlb::new(TlbConfig::dac23_l1());
        t.insert(&req(9), Ppn::new(3));
        assert_eq!(t.peek(Asid::default(), Vpn::new(9)), Some(Ppn::new(3)));
        assert_eq!(t.peek(Asid::default(), Vpn::new(10)), None);
        assert_eq!(t.stats().accesses(), 0);
    }

    #[test]
    fn probe_matches_peek_and_does_not_perturb() {
        let mut t = SetAssocTlb::new(TlbConfig::dac23_l1());
        t.insert(&req(9), Ppn::new(3));
        assert_eq!(t.probe(&req(9)), Some(Some(Ppn::new(3))));
        assert_eq!(t.probe(&req(10)), Some(None));
        assert_eq!(t.stats().accesses(), 0);
    }

    #[test]
    fn capacity_matches_config() {
        let t = SetAssocTlb::new(TlbConfig::dac23_l2());
        assert_eq!(t.capacity(), 512);
    }

    #[test]
    fn working_set_within_capacity_never_misses_after_warmup() {
        let mut t = SetAssocTlb::new(TlbConfig::dac23_l1());
        // 64 sequential pages fill the TLB exactly (4 per set).
        for i in 0..64 {
            t.insert(&req(i), Ppn::new(i));
        }
        t.reset_stats();
        for round in 0..10 {
            for i in 0..64 {
                assert!(t.lookup(&req(i)).hit, "round {round} vpn {i}");
            }
        }
        assert_eq!(t.stats().misses, 0);
    }

    #[test]
    fn fastpath_serves_repeated_hits_and_stays_exact() {
        let mut t = SetAssocTlb::new(TlbConfig::new(8, 2, 1));
        t.insert(&req(3), Ppn::new(30));
        assert_eq!(t.fastpath_hits(), 0);
        // First hit walks the tags and arms the memo; repeats ride it.
        assert!(t.lookup(&req(3)).hit);
        assert_eq!(t.fastpath_hits(), 0);
        for _ in 0..5 {
            let out = t.lookup(&req(3));
            assert_eq!(out, TlbOutcome::hit(Ppn::new(30), 1));
        }
        assert_eq!(t.fastpath_hits(), 5);
        // Evicting the memoized way (1 set pair, force conflict) must
        // drop silently to the slow path, never serve stale state.
        let mut small = SetAssocTlb::new(TlbConfig::new(2, 2, 1));
        small.insert(&req(0), Ppn::new(0));
        assert!(small.lookup(&req(0)).hit);
        assert!(small.lookup(&req(0)).hit); // memo armed + used
        small.insert(&req(2), Ppn::new(2));
        small.insert(&req(4), Ppn::new(4)); // vpn 0 evicted
        assert!(
            !small.lookup(&req(0)).hit,
            "stale memo must not resurrect an evicted entry"
        );
        small.check_invariants().expect("memo stays inside its set");
    }

    #[test]
    fn invariants_hold_through_a_mixed_workload() {
        let mut t = SetAssocTlb::new(TlbConfig::new(8, 2, 1));
        for i in 0..40u64 {
            let r = req(i % 13);
            if !t.lookup(&r).hit {
                t.insert(&r, Ppn::new(i));
            }
            t.check_invariants().expect("workload keeps invariants");
        }
    }

    #[test]
    fn resident_counter_tracks_churn() {
        let mut t = SetAssocTlb::new(TlbConfig::new(4, 2, 1));
        assert_eq!(t.occupancy(), 0);
        for i in 0..4 {
            t.insert(&req(i), Ppn::new(i));
        }
        assert_eq!(t.occupancy(), 4);
        // Conflict evictions replace; occupancy must not grow past what
        // the geometry holds.
        for i in 0..32 {
            t.insert(&req(i), Ppn::new(i));
        }
        assert_eq!(t.occupancy(), 4, "2 sets x 2 ways stay full, not overfull");
        t.flush();
        assert_eq!(t.occupancy(), 0);
        t.insert(&req(7), Ppn::new(7));
        t.insert(&req(7), Ppn::new(8)); // refresh, not a new resident
        assert_eq!(t.occupancy(), 1);
    }

    fn areq(asid: u16, vpn: u64) -> TlbRequest {
        TlbRequest::new(Vpn::new(vpn), 0).with_asid(Asid::new(asid))
    }

    #[test]
    fn same_vpn_different_asid_never_hits() {
        let mut t = SetAssocTlb::new(TlbConfig::dac23_l1());
        t.insert(&areq(1, 9), Ppn::new(100));
        assert!(!t.lookup(&areq(2, 9)).hit, "cross-ASID lookup must miss");
        assert!(t.lookup(&areq(1, 9)).hit);
        // Both apps can hold the same VPN with different frames.
        t.insert(&areq(2, 9), Ppn::new(200));
        assert_eq!(t.lookup(&areq(1, 9)).ppn, Some(Ppn::new(100)));
        assert_eq!(t.lookup(&areq(2, 9)).ppn, Some(Ppn::new(200)));
        t.check_invariants()
            .expect("mixed-ASID state is consistent");
    }

    #[test]
    fn fastpath_memo_respects_asid() {
        let mut t = SetAssocTlb::new(TlbConfig::new(8, 2, 1));
        t.insert(&areq(1, 3), Ppn::new(30));
        // Arm the memo with app 1's hit, then probe the same set/VPN as
        // app 2: the packed-tag compare must reject the memo and miss.
        assert!(t.lookup(&areq(1, 3)).hit);
        assert!(t.lookup(&areq(1, 3)).hit);
        assert_eq!(t.fastpath_hits(), 1);
        assert!(!t.lookup(&areq(2, 3)).hit);
        assert_eq!(
            t.fastpath_hits(),
            1,
            "cross-ASID probe must not ride the memo"
        );
    }

    #[test]
    fn per_asid_stats_and_residency_sum_to_aggregate() {
        let mut t = SetAssocTlb::new(TlbConfig::new(4, 2, 1));
        for i in 0..12u64 {
            let r = areq((i % 3) as u16, i % 5);
            if !t.lookup(&r).hit {
                t.insert(&r, Ppn::new(1000 + i));
            }
        }
        let by_asid = t.stats_by_asid();
        let sum = by_asid.iter().fold(TlbStats::default(), |a, (_, s)| a + *s);
        assert_eq!(sum, t.stats());
        let resident_sum: usize = (0..3).map(|a| t.resident_of(Asid::new(a))).sum();
        assert_eq!(resident_sum, t.occupancy());
        t.check_invariants()
            .expect("per-ASID accounting is consistent");
    }

    #[test]
    fn eviction_attributed_to_victim_asid() {
        // 1 set x 2 ways: app 2's insert evicts app 1's LRU entry.
        let mut t = SetAssocTlb::new(TlbConfig::new(2, 2, 1));
        t.insert(&areq(1, 0), Ppn::new(0));
        t.insert(&areq(1, 1), Ppn::new(1));
        t.insert(&areq(2, 2), Ppn::new(2));
        assert_eq!(t.resident_of(Asid::new(1)), 1);
        assert_eq!(t.resident_of(Asid::new(2)), 1);
        let by: std::collections::HashMap<_, _> = t.stats_by_asid().into_iter().collect();
        assert_eq!(
            by[&Asid::new(1)].evictions,
            1,
            "victim's ASID owns the eviction"
        );
        assert_eq!(by[&Asid::new(2)].evictions, 0);
        assert_eq!(by[&Asid::new(2)].insertions, 1);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut t = SetAssocTlb::new(TlbConfig::dac23_l1());
        // 128 sequential pages, cyclic: classic LRU thrash, hit rate 0.
        for _ in 0..4 {
            for i in 0..128u64 {
                let r = req(i);
                if !t.lookup(&r).hit {
                    t.insert(&r, Ppn::new(i));
                }
            }
        }
        assert_eq!(
            t.stats().hits,
            0,
            "cyclic overcapacity scan never hits under LRU"
        );
    }
}
