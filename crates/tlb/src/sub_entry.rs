//! A sub-entry-sharing TLB for multi-tenant L2s, after the MIG-TLB
//! direction (arxiv 2404.18361): co-running applications frequently map
//! the *same virtual page numbers* (same binaries, same library layouts,
//! mirrored input buffers), so a conventional ASID-tagged L2 stores one
//! full entry per (asid, vpn) pair even when the tags are identical. The
//! sub-entry organization tags a way by VPN alone and hangs up to
//! `subs` per-ASID sub-entries — each carrying its own PPN — off the
//! shared tag. Isolation is preserved (a lookup only ever returns the
//! sub-entry matching its own ASID) while the tag array is shared, so
//! the effective reach under ASID-striped working sets grows by up to
//! the sub-entry count.

use crate::config::TlbConfig;
use crate::request::{TlbOutcome, TlbRequest, TranslationBuffer};
use crate::sanitize::InvariantViolation;
use crate::stats::{PerAsidStats, TlbStats};
use std::fmt::Write as _;
use vmem::{Asid, Ppn, Vpn};

/// One per-ASID translation hanging off a shared VPN tag.
#[derive(Copy, Clone, Debug, Default)]
struct SubSlot {
    valid: bool,
    asid: Asid,
    ppn: Ppn,
}

/// One way: a VPN tag shared by up to `subs` per-ASID sub-entries.
#[derive(Clone, Debug)]
struct SubWay {
    valid: bool,
    vpn: Vpn,
    /// Monotone use-stamp for LRU among ways (larger = more recent).
    stamp: u64,
    /// Round-robin sub-entry victim cursor (deterministic).
    next_victim: u8,
    slots: Vec<SubSlot>,
}

impl SubWay {
    fn empty(subs: usize) -> Self {
        SubWay {
            valid: false,
            vpn: Vpn::default(),
            stamp: 0,
            next_victim: 0,
            slots: vec![SubSlot::default(); subs],
        }
    }

    fn live_subs(&self) -> usize {
        self.slots.iter().filter(|s| s.valid).count()
    }

    fn slot_of(&self, asid: Asid) -> Option<usize> {
        self.slots.iter().position(|s| s.valid && s.asid == asid)
    }
}

/// A set-associative TLB whose ways are VPN-tagged and shared between
/// address spaces through per-ASID sub-entries.
///
/// # Example
///
/// ```
/// use tlb::{SubEntryTlb, TlbConfig, TlbRequest, TranslationBuffer};
/// use vmem::{Asid, Ppn, Vpn};
///
/// let mut t = SubEntryTlb::new(TlbConfig::new(8, 2, 1), 4);
/// let a1 = TlbRequest::new(Vpn::new(5), 0).with_asid(Asid::new(1));
/// let a2 = TlbRequest::new(Vpn::new(5), 0).with_asid(Asid::new(2));
/// t.insert(&a1, Ppn::new(100));
/// t.insert(&a2, Ppn::new(200));
/// // Both apps share one tag but each sees only its own frame.
/// assert_eq!(t.lookup(&a1).ppn, Some(Ppn::new(100)));
/// assert_eq!(t.lookup(&a2).ppn, Some(Ppn::new(200)));
/// assert_eq!(t.occupancy(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SubEntryTlb {
    config: TlbConfig,
    /// Sub-entries per shared tag.
    subs: usize,
    ways: Vec<SubWay>,
    clock: u64,
    stats: TlbStats,
    /// Per-ASID breakdown of `stats` (sub-entry displacements attributed
    /// to the victim's ASID); sums to the aggregate exactly.
    per_asid: PerAsidStats,
    /// Hits on a way whose tag is shared by more than one ASID — the
    /// organization's raison d'être, reported as a repro figure input.
    shared_hits: u64,
    /// Inserts that displaced another app's sub-entry inside a shared
    /// way (intra-tag contention).
    sub_conflicts: u64,
    /// Count of valid ways, maintained on insert/evict/flush.
    resident: usize,
}

impl SubEntryTlb {
    /// Creates an empty sub-entry TLB with `subs` sub-entries per way.
    ///
    /// # Panics
    ///
    /// Panics if `subs` is zero.
    pub fn new(config: TlbConfig, subs: usize) -> Self {
        assert!(subs > 0, "sub-entry count must be non-zero");
        SubEntryTlb {
            config,
            subs,
            ways: (0..config.entries).map(|_| SubWay::empty(subs)).collect(),
            clock: 0,
            stats: TlbStats::default(),
            per_asid: PerAsidStats::default(),
            shared_hits: 0,
            sub_conflicts: 0,
            resident: 0,
        }
    }

    /// The geometry configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Sub-entries per shared tag.
    pub fn subs(&self) -> usize {
        self.subs
    }

    /// Hits served from a way shared by more than one ASID.
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits
    }

    /// Inserts that displaced another app's sub-entry within a way.
    pub fn sub_conflicts(&self) -> u64 {
        self.sub_conflicts
    }

    fn set_of(&self, vpn: Vpn) -> usize {
        (vpn.raw() & (self.config.sets() as u64 - 1)) as usize
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let a = self.config.associativity;
        set * a..(set + 1) * a
    }

    /// Number of valid ways (shared tags) currently resident.
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.resident,
            self.ways.iter().filter(|w| w.valid).count(),
            "resident counter diverged from the valid-way scan"
        );
        self.resident
    }

    /// Probes for `(asid, vpn)` without updating stats or LRU state
    /// (diagnostics).
    pub fn peek(&self, asid: Asid, vpn: Vpn) -> Option<Ppn> {
        let range = self.set_range(self.set_of(vpn));
        self.ways[range]
            .iter()
            .find(|w| w.valid && w.vpn == vpn)
            .and_then(|w| w.slot_of(asid).map(|i| w.slots[i].ppn))
    }

    /// Number of valid sub-entries currently owned by `asid` (token
    /// accounting parity with [`crate::SetAssocTlb::resident_of`]).
    pub fn resident_of(&self, asid: Asid) -> usize {
        self.ways
            .iter()
            .filter(|w| w.valid)
            .flat_map(|w| w.slots.iter())
            .filter(|s| s.valid && s.asid == asid)
            .count()
    }
}

impl TranslationBuffer for SubEntryTlb {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        self.clock += 1;
        let range = self.set_range(self.set_of(req.vpn));
        let clock = self.clock;
        if let Some(way) = self.ways[range]
            .iter_mut()
            .find(|w| w.valid && w.vpn == req.vpn)
        {
            if let Some(i) = way.slot_of(req.asid) {
                way.stamp = clock;
                if way.live_subs() > 1 {
                    self.shared_hits += 1;
                }
                self.stats.record(true);
                self.per_asid.entry(req.asid).record(true);
                return TlbOutcome::hit(way.slots[i].ppn, self.config.lookup_latency);
            }
        }
        self.stats.record(false);
        self.per_asid.entry(req.asid).record(false);
        TlbOutcome::miss(self.config.lookup_latency)
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        self.clock += 1;
        let range = self.set_range(self.set_of(req.vpn));
        let clock = self.clock;
        // Shared tag already resident: land in a sub-entry.
        if let Some(wi) = self.ways[range.clone()]
            .iter()
            .position(|w| w.valid && w.vpn == req.vpn)
        {
            let widx = range.start + wi;
            // Refresh in place if this app already holds a sub-entry.
            if let Some(i) = self.ways[widx].slot_of(req.asid) {
                self.ways[widx].slots[i].ppn = ppn;
                self.ways[widx].stamp = clock;
                return;
            }
            self.stats.insertions += 1;
            self.per_asid.entry(req.asid).insertions += 1;
            let slot = if let Some(free) = self.ways[widx].slots.iter().position(|s| !s.valid) {
                free
            } else {
                // All sub-entries taken: round-robin displacement,
                // charged to the displaced app.
                let v = self.ways[widx].next_victim as usize % self.subs;
                self.ways[widx].next_victim = ((v + 1) % self.subs) as u8;
                let victim_asid = self.ways[widx].slots[v].asid;
                self.stats.evictions += 1;
                self.per_asid.entry(victim_asid).evictions += 1;
                self.sub_conflicts += 1;
                v
            };
            self.ways[widx].slots[slot] = SubSlot {
                valid: true,
                asid: req.asid,
                ppn,
            };
            self.ways[widx].stamp = clock;
            return;
        }
        // Fresh tag: allocate a way, evicting the LRU tag (and every
        // sub-entry hanging off it, each charged to its owner).
        self.stats.insertions += 1;
        self.per_asid.entry(req.asid).insertions += 1;
        let widx = range
            .clone()
            .min_by_key(|&i| (self.ways[i].valid, self.ways[i].stamp))
            .expect("associativity is non-zero"); // simlint: allow(hot-unwrap, reason = "TlbConfig validates associativity > 0 at construction")
        if self.ways[widx].valid {
            let victims: Vec<Asid> = self.ways[widx]
                .slots
                .iter()
                .filter(|s| s.valid)
                .map(|s| s.asid)
                .collect();
            self.stats.evictions += victims.len() as u64;
            for a in victims {
                self.per_asid.entry(a).evictions += 1;
            }
        } else {
            self.resident += 1;
        }
        let way = &mut self.ways[widx];
        way.valid = true;
        way.vpn = req.vpn;
        way.stamp = clock;
        way.next_victim = 0;
        for s in &mut way.slots {
            s.valid = false;
        }
        way.slots[0] = SubSlot {
            valid: true,
            asid: req.asid,
            ppn,
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

    fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
            for s in &mut w.slots {
                s.valid = false;
            }
        }
        self.resident = 0;
    }

    fn capacity(&self) -> usize {
        self.config.entries
    }

    fn probe(&self, req: &TlbRequest) -> Option<Option<Ppn>> {
        Some(self.peek(req.asid, req.vpn))
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let fail = |detail: String| {
            Err(InvariantViolation::new(
                "SubEntryTlb",
                detail,
                self.dump_state(),
            ))
        };
        if let Err(e) = self.stats.check() {
            return fail(e);
        }
        let asid_sum = self.per_asid.sum();
        if asid_sum != self.stats {
            return fail(format!(
                "per-ASID stats sum {asid_sum:?} != aggregate {:?}",
                self.stats
            ));
        }
        let scanned = self.ways.iter().filter(|w| w.valid).count();
        if self.resident != scanned {
            return fail(format!(
                "resident counter {} != valid-way scan {scanned}",
                self.resident
            ));
        }
        for set in 0..self.config.sets() {
            let range = self.set_range(set);
            let ways = &self.ways[range];
            for (i, w) in ways.iter().enumerate().filter(|(_, w)| w.valid) {
                if w.live_subs() == 0 {
                    return fail(format!(
                        "set {set} way {i}: valid tag with no valid sub-entries"
                    ));
                }
                if w.stamp > self.clock {
                    return fail(format!(
                        "set {set} way {i}: stamp {} ahead of clock {}",
                        w.stamp, self.clock
                    ));
                }
                if ways[..i].iter().any(|o| o.valid && o.stamp == w.stamp) {
                    return fail(format!(
                        "set {set}: duplicate LRU stamp {} breaks the recency total order",
                        w.stamp
                    ));
                }
                if ways[..i].iter().any(|o| o.valid && o.vpn == w.vpn) {
                    return fail(format!("set {set}: VPN {:#x} tagged twice", w.vpn.raw()));
                }
                for (j, s) in w.slots.iter().enumerate().filter(|(_, s)| s.valid) {
                    if w.slots[..j].iter().any(|o| o.valid && o.asid == s.asid) {
                        return fail(format!(
                            "set {set} way {i}: ASID {} holds two sub-entries under one tag",
                            s.asid
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn dump_state(&self) -> String {
        let mut s = format!(
            "SubEntryTlb: {} ways x {} subs, clock {}, resident {}, shared_hits {}, stats {{{:?}}}\n",
            self.config.entries, self.subs, self.clock, self.resident, self.shared_hits, self.stats
        );
        for set in 0..self.config.sets() {
            let ways = &self.ways[self.set_range(set)];
            if ways.iter().all(|w| !w.valid) {
                continue;
            }
            let _ = write!(s, "  set {set:3}:");
            for w in ways.iter().filter(|w| w.valid) {
                let _ = write!(s, " [vpn={:#x} @{}", w.vpn.raw(), w.stamp);
                for sub in w.slots.iter().filter(|s| s.valid) {
                    let _ = write!(s, " {}→{:#x}", sub.asid, sub.ppn.raw());
                }
                let _ = write!(s, "]");
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn areq(asid: u16, vpn: u64) -> TlbRequest {
        TlbRequest::new(Vpn::new(vpn), 0).with_asid(Asid::new(asid))
    }

    #[test]
    fn shared_tag_serves_each_asid_its_own_frame() {
        let mut t = SubEntryTlb::new(TlbConfig::new(8, 2, 1), 4);
        t.insert(&areq(1, 5), Ppn::new(100));
        t.insert(&areq(2, 5), Ppn::new(200));
        t.insert(&areq(3, 5), Ppn::new(300));
        assert_eq!(t.occupancy(), 1, "one shared tag for three apps");
        assert_eq!(t.lookup(&areq(1, 5)).ppn, Some(Ppn::new(100)));
        assert_eq!(t.lookup(&areq(2, 5)).ppn, Some(Ppn::new(200)));
        assert_eq!(t.lookup(&areq(3, 5)).ppn, Some(Ppn::new(300)));
        assert_eq!(t.shared_hits(), 3);
        assert!(!t.lookup(&areq(4, 5)).hit, "app without a sub-entry misses");
        t.check_invariants().expect("shared-tag state is consistent");
    }

    #[test]
    fn sub_entry_displacement_is_round_robin_and_charged_to_victim() {
        let mut t = SubEntryTlb::new(TlbConfig::new(8, 2, 1), 2);
        t.insert(&areq(1, 5), Ppn::new(100));
        t.insert(&areq(2, 5), Ppn::new(200));
        // Third app displaces the cursor's victim (slot 0 = app 1).
        t.insert(&areq(3, 5), Ppn::new(300));
        assert_eq!(t.sub_conflicts(), 1);
        assert!(!t.lookup(&areq(1, 5)).hit, "displaced app misses");
        assert!(t.lookup(&areq(2, 5)).hit);
        assert!(t.lookup(&areq(3, 5)).hit);
        let by: std::collections::HashMap<_, _> = t.stats_by_asid().into_iter().collect();
        assert_eq!(by[&Asid::new(1)].evictions, 1, "victim owns the eviction");
        t.check_invariants().expect("post-displacement state is consistent");
    }

    #[test]
    fn way_eviction_clears_all_subs() {
        // 1 set x 1 way: any new tag evicts the whole shared entry.
        let mut t = SubEntryTlb::new(TlbConfig::new(1, 1, 1), 4);
        t.insert(&areq(1, 5), Ppn::new(100));
        t.insert(&areq(2, 5), Ppn::new(200));
        t.insert(&areq(1, 9), Ppn::new(900));
        assert_eq!(t.stats().evictions, 2, "one per displaced sub-entry");
        assert!(!t.lookup(&areq(1, 5)).hit);
        assert!(!t.lookup(&areq(2, 5)).hit);
        assert!(t.lookup(&areq(1, 9)).hit);
        t.check_invariants().expect("post-eviction state is consistent");
    }

    #[test]
    fn refresh_in_place_updates_frame_without_insertion() {
        let mut t = SubEntryTlb::new(TlbConfig::new(8, 2, 1), 4);
        t.insert(&areq(1, 5), Ppn::new(100));
        t.insert(&areq(1, 5), Ppn::new(101));
        assert_eq!(t.stats().insertions, 1);
        assert_eq!(t.lookup(&areq(1, 5)).ppn, Some(Ppn::new(101)));
    }

    #[test]
    fn reach_grows_under_asid_striped_working_sets() {
        // 4 apps x 16 shared VPNs in a 16-way structure: everything fits
        // because tags are shared; an ASID-tagged TLB would need 64 ways.
        let mut t = SubEntryTlb::new(TlbConfig::new(16, 4, 1), 4);
        for vpn in 0..16u64 {
            for app in 1..=4u16 {
                t.insert(&areq(app, vpn), Ppn::new(u64::from(app) * 1000 + vpn));
            }
        }
        t.reset_stats();
        for vpn in 0..16u64 {
            for app in 1..=4u16 {
                let out = t.lookup(&areq(app, vpn));
                assert_eq!(out.ppn, Some(Ppn::new(u64::from(app) * 1000 + vpn)));
            }
        }
        assert_eq!(t.stats().misses, 0);
        assert_eq!(t.resident_of(Asid::new(1)), 16);
        let sum = t
            .stats_by_asid()
            .iter()
            .fold(TlbStats::default(), |a, (_, s)| a + *s);
        assert_eq!(sum, t.stats());
    }

    #[test]
    fn duplicate_sub_asid_is_reported() {
        let mut t = SubEntryTlb::new(TlbConfig::new(4, 2, 1), 2);
        t.insert(&areq(1, 5), Ppn::new(100));
        let range = t.set_range(t.set_of(Vpn::new(5)));
        let way = t.ways[range]
            .iter_mut()
            .find(|w| w.valid)
            .expect("inserted way");
        way.slots[1] = SubSlot {
            valid: true,
            asid: Asid::new(1),
            ppn: Ppn::new(200),
        };
        let v = t.check_invariants().unwrap_err();
        assert!(v.detail.contains("two sub-entries"), "{}", v.detail);
        assert!(v.dump.contains("SubEntryTlb"), "{}", v.dump);
    }

    #[test]
    fn flush_clears_everything() {
        let mut t = SubEntryTlb::new(TlbConfig::new(8, 2, 1), 4);
        t.insert(&areq(1, 5), Ppn::new(100));
        t.insert(&areq(2, 5), Ppn::new(200));
        t.flush();
        assert_eq!(t.occupancy(), 0);
        assert!(!t.lookup(&areq(1, 5)).hit);
    }
}
