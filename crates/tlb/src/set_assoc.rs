//! The baseline set-associative, VPN-indexed TLB with true-LRU
//! replacement.
//!
//! This is the organization the paper's Table III assumes for both the
//! per-SM private L1 TLB and the shared L2 TLB: the set index comes from
//! the low VPN bits, the remaining bits form the tag, and replacement is
//! LRU within a set.
//!
//! Storage is split structure-of-arrays style: the probe tags live in one
//! packed `u64` slice (scanned by `lookup` without touching the ppn/stamp
//! payload), and the payload lives in a parallel vector read only on a
//! hit or when replacement runs.

use crate::config::TlbConfig;
use crate::memo::Memo;
use crate::replace::{first_min, recency_key};
use crate::request::{TlbOutcome, TlbRequest, TranslationBuffer};
use crate::sanitize::InvariantViolation;
use crate::stats::{PerAsidStats, TlbStats};
use crate::tag::{tag_asid, tag_of, tag_vpn};
use std::fmt::Write as _;
use vmem::{Asid, Ppn, Vpn};

/// Payload of one way; the probe tag is stored separately in
/// [`SetAssocTlb::tags`].
#[derive(Copy, Clone, Debug, Default)]
struct WayMeta {
    ppn: Ppn,
    /// Monotone use-stamp for LRU (larger = more recent).
    stamp: u64,
}

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
    /// `sets() - 1`: the set index is the low VPN bits under this mask.
    set_mask: u64,
    /// `sets() * associativity` packed probe tags, set-major (see
    /// [`crate::tag_of`]).
    tags: Vec<u64>,
    /// Payload parallel to `tags`. Kept (stamps included) across flushes,
    /// matching the pre-SoA `Way` layout, so victim tie-breaking among
    /// invalid ways is unchanged.
    meta: Vec<WayMeta>,
    clock: u64,
    stats: TlbStats,
    /// Per-ASID breakdown of `stats` (evictions attributed to the
    /// victim's ASID, everything else to the requester's); sums to the
    /// aggregate exactly.
    per_asid: PerAsidStats,
    /// Count of valid ways, maintained on insert/evict/flush; equals the
    /// full-`tags` scan (debug-asserted in [`SetAssocTlb::occupancy`]).
    resident: usize,
    /// Per-ASID split of `resident`, indexed by raw ASID (victim ASIDs
    /// are recovered from the packed tag on eviction). The MASK-style
    /// token policy reads this to bound how many entries an app may hold.
    resident_by_asid: Vec<u32>,
    /// Last hitting way per set.
    memo: Memo<()>,
}

impl SetAssocTlb {
    /// Creates an empty TLB with the given geometry.
    pub fn new(config: TlbConfig) -> Self {
        SetAssocTlb {
            config,
            set_mask: config.sets() as u64 - 1,
            tags: vec![0; config.entries],
            meta: vec![WayMeta::default(); config.entries],
            clock: 0,
            stats: TlbStats::default(),
            per_asid: PerAsidStats::default(),
            resident: 0,
            resident_by_asid: Vec::new(),
            memo: Memo::new(config.sets()),
        }
    }

    /// The TLB's configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Enables or disables the lookup memo: a wall-clock knob only, as
    /// `crates/core/tests/fastpath_diff.rs` proves.
    pub fn set_fastpath(&mut self, on: bool) {
        self.memo.set_enabled(on);
    }

    fn set_of(&self, vpn: Vpn) -> usize {
        // Mask in u64 before narrowing so the set index is identical on
        // 32-bit hosts.
        // simlint: allow(lossy-cast, reason = "masked to the set count before narrowing")
        (vpn.raw() & self.set_mask) as usize
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let a = self.config.associativity;
        set * a..(set + 1) * a
    }

    /// Number of valid entries currently resident. O(1): returns the
    /// maintained counter, cross-checked against the scan in debug
    /// builds (the sanitizer calls this every event cycle).
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.resident,
            self.tags.iter().filter(|&&t| t != 0).count(),
            "resident counter diverged from the valid-way scan"
        );
        self.resident
    }

    /// Probes for `(asid, vpn)` without updating stats or LRU state
    /// (diagnostics).
    pub fn peek(&self, asid: Asid, vpn: Vpn) -> Option<Ppn> {
        let set = self.set_of(vpn);
        let range = self.set_range(set);
        let tag = tag_of(asid, vpn);
        self.tags[range.clone()]
            .iter()
            .position(|&t| t == tag)
            .map(|i| self.meta[range.start + i].ppn)
    }

    /// Number of valid entries currently owned by `asid` (O(1)); the
    /// MASK-style L2 token policy gates fills on this count.
    pub fn resident_of(&self, asid: Asid) -> usize {
        self.resident_by_asid
            .get(asid.index())
            .map_or(0, |&c| c as usize)
    }

    fn bump_resident(&mut self, asid: Asid, delta: i32) {
        let i = asid.index();
        if i >= self.resident_by_asid.len() {
            self.resident_by_asid.resize(i + 1, 0);
        }
        let c = &mut self.resident_by_asid[i];
        // Saturate instead of panicking on the hot path: an underflow
        // desyncs the counter from the tag scan, which
        // `check_invariants` reports with a full state dump.
        *c = c.saturating_add_signed(delta);
    }
}

impl TranslationBuffer for SetAssocTlb {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        self.clock += 1;
        let set = self.set_of(req.vpn);
        let tag = tag_of(req.asid, req.vpn);
        // The memoized way is trusted only if its tag still matches (the
        // tag packs the ASID, so another app's hit never serves this one).
        let tags = &self.tags;
        let w = match self.memo.serve(set, |w, ()| tags[w] == tag) {
            Some((w, ())) => w,
            None => {
                let range = self.set_range(set);
                // Hot probe loop: compare against the contiguous tag slice
                // only; the ppn/stamp payload is touched solely on a hit.
                let Some(i) = self.tags[range.clone()].iter().position(|&t| t == tag) else {
                    self.stats.record(false);
                    self.per_asid.entry(req.asid).record(false);
                    return TlbOutcome::miss(self.config.lookup_latency);
                };
                self.memo.arm(set, range.start + i, ());
                range.start + i
            }
        };
        let way = &mut self.meta[w];
        way.stamp = self.clock;
        self.stats.record(true);
        self.per_asid.entry(req.asid).record(true);
        TlbOutcome::hit(way.ppn, self.config.lookup_latency)
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        self.clock += 1;
        let set = self.set_of(req.vpn);
        let range = self.set_range(set);
        let tag = tag_of(req.asid, req.vpn);
        // Refresh in place if already present (fill races are benign).
        if let Some(i) = self.tags[range.clone()].iter().position(|&t| t == tag) {
            let way = &mut self.meta[range.start + i];
            way.ppn = ppn;
            way.stamp = self.clock;
            return;
        }
        self.stats.insertions += 1;
        self.per_asid.entry(req.asid).insertions += 1;
        // Prefer an invalid way; otherwise evict LRU.
        let keys = self.tags[range.clone()]
            .iter()
            .zip(&self.meta[range.clone()])
            .map(|(&t, m)| recency_key(t != 0, m.stamp));
        let victim = range.start + first_min(keys.enumerate()).expect("associativity is non-zero"); // simlint: allow(hot-unwrap, reason = "TlbConfig validates associativity > 0 at construction")
        if self.tags[victim] != 0 {
            self.stats.evictions += 1;
            let victim_asid = tag_asid(self.tags[victim]);
            self.per_asid.entry(victim_asid).evictions += 1;
            self.bump_resident(victim_asid, -1);
        } else {
            self.resident += 1;
        }
        self.bump_resident(req.asid, 1);
        self.tags[victim] = tag;
        self.meta[victim] = WayMeta {
            ppn,
            stamp: self.clock,
        };
    }

    fn stats(&self) -> TlbStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
        self.per_asid.clear();
    }

    fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        self.per_asid.non_empty()
    }

    fn probe(&self, req: &TlbRequest) -> Option<Option<Ppn>> {
        Some(self.peek(req.asid, req.vpn))
    }

    fn flush(&mut self) {
        for t in &mut self.tags {
            *t = 0;
        }
        self.resident = 0;
        self.resident_by_asid.clear();
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
        let fail = |detail: String| {
            Err(InvariantViolation::new(
                "SetAssocTlb",
                detail,
                self.dump_state(),
            ))
        };
        if let Err(e) = self.stats.check() {
            return fail(e);
        }
        // Check the counter against the scan before anything calls
        // `occupancy()` (whose debug assert would panic, not report).
        let scanned = self.tags.iter().filter(|&&t| t != 0).count();
        if self.resident != scanned {
            return fail(format!(
                "resident counter {} != valid-way scan {scanned}",
                self.resident
            ));
        }
        if scanned > self.capacity() {
            return fail(format!(
                "occupancy {scanned} exceeds capacity {}",
                self.capacity()
            ));
        }
        // Multi-tenant accounting: the per-ASID splits must sum to the
        // aggregates exactly and the per-ASID resident counters must
        // match a tag scan keyed on the packed ASID field.
        let asid_sum = self.per_asid.sum();
        if asid_sum != self.stats {
            return fail(format!(
                "per-ASID stats sum {asid_sum:?} != aggregate {:?}",
                self.stats
            ));
        }
        let by_asid_total: u64 = self.resident_by_asid.iter().map(|&c| u64::from(c)).sum();
        if by_asid_total != scanned as u64 {
            return fail(format!(
                "per-ASID resident counters sum to {by_asid_total}, expected {scanned}"
            ));
        }
        for (i, &c) in self.resident_by_asid.iter().enumerate() {
            let owned = self
                .tags
                .iter()
                .filter(|&&t| t != 0 && tag_asid(t) == Asid::new(i as u16))
                .count();
            if owned != c as usize {
                return fail(format!(
                    "ASID {i}: resident counter {c} != tag scan {owned}"
                ));
            }
        }
        if let Err(e) = self.memo.check(self.config.sets(), |set, w| {
            self.set_range(set).contains(&w)
        }) {
            return fail(e);
        }
        for set in 0..self.config.sets() {
            let range = self.set_range(set);
            for i in range.clone() {
                if self.tags[i] == 0 {
                    continue;
                }
                let w = &self.meta[i];
                if w.stamp > self.clock {
                    return fail(format!(
                        "set {set} way {}: stamp {} ahead of clock {}",
                        i - range.start,
                        w.stamp,
                        self.clock
                    ));
                }
                // Distinct stamps per set make LRU a total order: ties
                // would leave the victim choice to iteration order.
                if (range.start..i)
                    .any(|j| self.tags[j] != 0 && self.meta[j].stamp == w.stamp)
                {
                    return fail(format!(
                        "set {set}: duplicate LRU stamp {} breaks the recency total order",
                        w.stamp
                    ));
                }
                if (range.start..i).any(|j| self.tags[j] == self.tags[i]) {
                    return fail(format!(
                        "set {set}: (asid {}, VPN {:#x}) resident twice",
                        tag_asid(self.tags[i]),
                        tag_vpn(self.tags[i])
                    ));
                }
            }
        }
        Ok(())
    }

    fn dump_state(&self) -> String {
        let mut s = format!(
            "SetAssocTlb: {} entries, {}-way, clock {}, resident {}, stats {{{:?}}}\n",
            self.config.entries, self.config.associativity, self.clock, self.resident, self.stats
        );
        for set in 0..self.config.sets() {
            let range = self.set_range(set);
            if self.tags[range.clone()].iter().all(|&t| t == 0) {
                continue;
            }
            let _ = write!(s, "  set {set:3}:");
            for i in range {
                if self.tags[i] == 0 {
                    continue;
                }
                let _ = write!(
                    s,
                    " [asid={} vpn={:#x} ppn={:#x} @{}]",
                    tag_asid(self.tags[i]),
                    tag_vpn(self.tags[i]),
                    self.meta[i].ppn.raw(),
                    self.meta[i].stamp
                );
            }
            s.push('\n');
        }
        s
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
        assert!(!small.lookup(&req(0)).hit, "stale memo must not resurrect an evicted entry");
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

    #[test]
    fn corrupted_stamp_is_reported_with_dump() {
        let mut t = SetAssocTlb::new(TlbConfig::new(2, 2, 1));
        t.insert(&req(0), Ppn::new(0));
        t.insert(&req(1), Ppn::new(1));
        // Force a duplicate stamp: LRU order is no longer total.
        let s = t.meta[0].stamp;
        t.meta[1].stamp = s;
        let v = t.check_invariants().unwrap_err();
        assert!(v.detail.contains("duplicate LRU stamp"), "{}", v.detail);
        assert!(v.dump.contains("set   0"), "dump missing state:\n{}", v.dump);
    }

    #[test]
    fn corrupted_resident_counter_is_reported() {
        let mut t = SetAssocTlb::new(TlbConfig::new(2, 2, 1));
        t.insert(&req(0), Ppn::new(0));
        t.resident = 2; // bypass insert accounting
        let v = t.check_invariants().unwrap_err();
        assert!(v.detail.contains("resident counter"), "{}", v.detail);
    }

    #[test]
    fn broken_stats_identity_is_reported() {
        let mut t = SetAssocTlb::new(TlbConfig::dac23_l1());
        t.lookup(&req(0));
        t.stats.hits += 1; // bypass record()
        assert!(t.check_invariants().is_err());
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
        t.check_invariants().expect("mixed-ASID state is consistent");
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
        assert_eq!(t.fastpath_hits(), 1, "cross-ASID probe must not ride the memo");
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
        let sum = by_asid
            .iter()
            .fold(TlbStats::default(), |a, (_, s)| a + *s);
        assert_eq!(sum, t.stats());
        let resident_sum: usize = (0..3).map(|a| t.resident_of(Asid::new(a))).sum();
        assert_eq!(resident_sum, t.occupancy());
        t.check_invariants().expect("per-ASID accounting is consistent");
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
        assert_eq!(by[&Asid::new(1)].evictions, 1, "victim's ASID owns the eviction");
        assert_eq!(by[&Asid::new(2)].evictions, 0);
        assert_eq!(by[&Asid::new(2)].insertions, 1);
    }

    #[test]
    fn corrupted_per_asid_counter_is_reported() {
        let mut t = SetAssocTlb::new(TlbConfig::new(2, 2, 1));
        t.insert(&areq(1, 0), Ppn::new(0));
        t.resident_by_asid[1] = 9; // bypass insert accounting
        let v = t.check_invariants().unwrap_err();
        assert!(v.detail.contains("resident counter"), "{}", v.detail);
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
        assert_eq!(t.stats().hits, 0, "cyclic overcapacity scan never hits under LRU");
    }
}
