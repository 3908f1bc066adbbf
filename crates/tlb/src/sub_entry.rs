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
//!
//! On [`Ways`], the index policy is the low VPN bits, every tag carries
//! the VPN under ASID 0 (the tag is shared), the payload is the way's
//! round-robin sub-entry cursor, and the sub-entries live in a flat side
//! array, `subs` per way.

use crate::config::TlbConfig;
use crate::request::{TlbOutcome, TlbRequest, TranslationBuffer};
use crate::sanitize::InvariantViolation;
use crate::stats::TlbStats;
use crate::ways::Ways;
use std::fmt::Write as _;
use std::ops::Range;
use vmem::{Asid, Ppn, Vpn};

/// The ASID every shared tag is packed under.
const SHARED: Asid = Asid::new(0);

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
    /// VPN tags; the payload is the next sub-entry to displace.
    ways: Ways<u8>,
    /// `subs` sub-entries per way, way-major: `(owner, frame)`.
    slots: Vec<Option<(Asid, Ppn)>>,
    /// Hits on a way whose tag is shared by more than one ASID — the
    /// organization's raison d'être, reported as a repro figure input.
    shared_hits: u64,
    /// Inserts that displaced another app's sub-entry inside a shared
    /// way (intra-tag contention).
    sub_conflicts: u64,
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
            ways: Ways::new(config),
            slots: vec![None; config.entries * subs],
            shared_hits: 0,
            sub_conflicts: 0,
        }
    }

    /// Hits served from a way shared by more than one ASID.
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits
    }

    /// Inserts that displaced another app's sub-entry within a way.
    pub fn sub_conflicts(&self) -> u64 {
        self.sub_conflicts
    }

    /// Way `w`'s sub-entries in the side array.
    fn subs_of(&self, w: usize) -> Range<usize> {
        w * self.subs..(w + 1) * self.subs
    }

    /// The valid way tagged `vpn`, if any.
    fn way_of(&self, vpn: Vpn) -> Option<usize> {
        let set = self.ways.set(self.ways.set_of(vpn, 0));
        self.ways.find(set, SHARED, vpn, |_| true)
    }

    /// `asid`'s sub-entry of way `w` and its frame.
    fn slot_of(&self, w: usize, asid: Asid) -> Option<(usize, Ppn)> {
        self.subs_of(w).find_map(|i| match self.slots[i] {
            Some((a, ppn)) if a == asid => Some((i, ppn)),
            _ => None,
        })
    }

    /// Number of valid ways (shared tags) currently resident.
    pub fn occupancy(&self) -> usize {
        self.ways.occupancy()
    }

    /// Probes for `(asid, vpn)` without updating stats or LRU state
    /// (diagnostics).
    pub fn peek(&self, asid: Asid, vpn: Vpn) -> Option<Ppn> {
        Some(self.slot_of(self.way_of(vpn)?, asid)?.1)
    }

    /// Number of valid sub-entries currently owned by `asid` (token
    /// accounting parity with [`crate::SetAssocTlb::resident_of`]).
    pub fn resident_of(&self, asid: Asid) -> usize {
        let valid = (0..self.ways.capacity()).filter(|&w| self.ways.is_valid(w));
        let slots = valid.flat_map(|w| &self.slots[self.subs_of(w)]);
        slots
            .filter(|s| matches!(s, Some((a, _)) if *a == asid))
            .count()
    }
}

impl TranslationBuffer for SubEntryTlb {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        self.ways.tick();
        let hit = self
            .way_of(req.vpn)
            .and_then(|w| Some((w, self.slot_of(w, req.asid)?)));
        let Some((w, (_, ppn))) = hit else {
            self.ways.record(req.asid, false);
            return TlbOutcome::miss(self.config.lookup_latency);
        };
        self.ways.touch(w);
        if self.slots[self.subs_of(w)].iter().flatten().count() > 1 {
            self.shared_hits += 1;
        }
        self.ways.record(req.asid, true);
        TlbOutcome::hit(ppn, self.config.lookup_latency)
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        self.ways.tick();
        let entry = Some((req.asid, ppn));
        // Shared tag already resident: land in a sub-entry.
        if let Some(w) = self.way_of(req.vpn) {
            self.ways.touch(w);
            // Refresh in place if this app already holds a sub-entry.
            if let Some((i, _)) = self.slot_of(w, req.asid) {
                self.slots[i] = entry;
                return;
            }
            self.ways.inserted(req.asid);
            let subs = self.subs_of(w);
            let i = match subs.clone().find(|&i| self.slots[i].is_none()) {
                Some(free) => free,
                None => {
                    // All sub-entries taken: round-robin displacement,
                    // charged to the displaced app.
                    let cursor = self.ways.payload_mut(w);
                    let v = *cursor as usize % self.subs;
                    *cursor = ((v + 1) % self.subs) as u8;
                    if let Some((victim, _)) = self.slots[subs.start + v] {
                        self.ways.evicted(victim);
                    }
                    self.sub_conflicts += 1;
                    subs.start + v
                }
            };
            self.slots[i] = entry;
            return;
        }
        // Fresh tag: allocate a way, evicting the LRU tag (and every
        // sub-entry hanging off it, each charged to its owner).
        self.ways.inserted(req.asid);
        let w = self
            .ways
            .victim(self.ways.set(self.ways.set_of(req.vpn, 0)));
        let subs = self.subs_of(w);
        if self.ways.is_valid(w) {
            for &(victim, _) in self.slots[subs.clone()].iter().flatten() {
                self.ways.evicted(victim);
            }
        }
        self.ways.fill(w, SHARED, req.vpn, 0);
        self.slots[subs.clone()].fill(None);
        self.slots[subs.start] = entry;
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
        self.slots.fill(None);
    }

    fn capacity(&self) -> usize {
        self.config.entries
    }

    fn probe(&self, req: &TlbRequest) -> Option<Option<Ppn>> {
        Some(self.peek(req.asid, req.vpn))
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.ways
            .check(
                |_, _| true,
                |w, _| {
                    let slots = &self.slots[self.subs_of(w)];
                    if slots.iter().all(Option::is_none) {
                        return Err("valid tag with no valid sub-entries".into());
                    }
                    for (j, s) in slots.iter().enumerate() {
                        let Some((asid, _)) = s else { continue };
                        if slots[..j].iter().flatten().any(|(a, _)| a == asid) {
                            return Err(format!("ASID {asid} holds two sub-entries under one tag"));
                        }
                    }
                    Ok(())
                },
            )
            .map_err(|e| InvariantViolation::new("SubEntryTlb", e, self.dump_state()))
    }

    fn dump_state(&self) -> String {
        let name = format!(
            "SubEntryTlb ({} subs, shared_hits {}, sub_conflicts {})",
            self.subs, self.shared_hits, self.sub_conflicts
        );
        self.ways.dump(&name, |s, w, _| {
            for (asid, ppn) in self.slots[self.subs_of(w)].iter().flatten() {
                let _ = write!(s, " {asid}→{:#x}", ppn.raw());
            }
        })
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
        t.check_invariants()
            .expect("shared-tag state is consistent");
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
        t.check_invariants()
            .expect("post-displacement state is consistent");
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
        t.check_invariants()
            .expect("post-eviction state is consistent");
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
        let w = t.way_of(Vpn::new(5)).expect("inserted way");
        let second = t.subs_of(w).start + 1;
        t.slots[second] = Some((Asid::new(1), Ppn::new(200)));
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
