//! The way array every TLB organization is built on (DESIGN.md §6, "Way
//! arrays").
//!
//! An organization is an index policy (which ways a translation may live
//! in) and a payload `P` (what a way holds besides its tag). Everything
//! else lives in [`Ways`]: packed tags, LRU stamps, the clock, the
//! aggregate and per-ASID stats, the valid-way and per-ASID resident
//! counts, the victim order, and the invariant checks and dump every
//! organization shares.

use crate::config::TlbConfig;
use crate::memo::Memo;
use crate::replace::{first_min, recency_key};
use crate::stats::{PerAsidStats, TlbStats};
use std::fmt::Write as _;
use std::ops::Range;
use vmem::{Asid, Vpn};

/// Bit position of the ASID field inside a packed tag.
const TAG_ASID_SHIFT: u32 = 53;

/// Packed tag: `(asid << 53) | (vpn << 1) | 1` for a valid way, `0` for an
/// invalid one. VPNs are at most 52 bits (64-bit VA minus the 12-bit
/// small-page offset) and ASIDs at most 11 bits ([`Asid::MAX_ASIDS`]), so
/// one integer compare covers validity, the page and the owning address
/// space: a cross-ASID hit is impossible by construction.
#[inline]
fn tag_of(asid: Asid, vpn: Vpn) -> u64 {
    debug_assert_eq!(
        vpn.raw() >> (TAG_ASID_SHIFT - 1),
        0,
        "VPN uses bits above 52; tag encoding would alias with the ASID field"
    );
    ((asid.raw() as u64) << TAG_ASID_SHIFT) | (vpn.raw() << 1) | 1
}

#[inline]
fn tag_asid(tag: u64) -> Asid {
    Asid::new((tag >> TAG_ASID_SHIFT) as u16)
}

#[inline]
fn tag_vpn(tag: u64) -> u64 {
    (tag & ((1u64 << TAG_ASID_SHIFT) - 1)) >> 1
}

/// Set-major TLB ways stored structure-of-arrays: a packed `(valid, ASID,
/// VPN)` tag per way (the only array a probe scans), an LRU stamp per way
/// and a payload `P` per way, plus the clock, the stats and the residency
/// counts that every organization keeps the same way.
///
/// A way's tag is the sole record of its validity. Invalidating a way
/// keeps its stamp and payload, so [`Ways::victim`] orders invalid ways
/// by their stale stamps, least recently used first. Stats move only when the organization records
/// them: a fill counts neither the insertion nor what it displaced.
///
/// # Example
///
/// ```
/// use tlb::{TlbConfig, Ways};
/// use vmem::{Asid, Ppn, Vpn};
///
/// let mut ways: Ways<Ppn> = Ways::new(TlbConfig::new(8, 2, 1));
/// let (asid, vpn) = (Asid::new(1), Vpn::new(5));
/// let set = ways.set(ways.set_of(vpn, 0));
/// ways.tick();
/// let w = ways.victim(set.clone());
/// ways.inserted(asid);
/// ways.fill(w, asid, vpn, Ppn::new(9));
/// assert_eq!(ways.find(set, asid, vpn, |_| true), Some(w));
/// assert!(ways.check(|_, _| true, |_, _| Ok(())).is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct Ways<P> {
    assoc: usize,
    /// `sets - 1`: a set index is the low index bits under this mask.
    set_mask: u64,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    payload: Vec<P>,
    clock: u64,
    stats: TlbStats,
    /// Per-ASID split of `stats`; sums to it exactly.
    per_asid: PerAsidStats,
    /// Valid ways, equal to a scan of `tags`.
    valid: usize,
    /// Valid ways per tag ASID, indexed by raw ASID.
    resident: Vec<u32>,
}

impl<P: Copy + Default> Ways<P> {
    /// Empty ways in `config`'s geometry, at clock 0.
    pub fn new(config: TlbConfig) -> Self {
        Ways {
            assoc: config.associativity,
            set_mask: config.sets() as u64 - 1,
            tags: vec![0; config.entries],
            stamps: vec![0; config.entries],
            payload: vec![P::default(); config.entries],
            clock: 0,
            stats: TlbStats::default(),
            per_asid: PerAsidStats::default(),
            valid: 0,
            resident: Vec::new(),
        }
    }

    /// Number of ways.
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.tags.len() / self.assoc
    }

    /// The set `vpn >> shift` indexes: its low bits under the set mask.
    #[inline]
    pub fn set_of(&self, vpn: Vpn, shift: u32) -> usize {
        // Mask in u64 before narrowing so the set index is identical on
        // 32-bit hosts.
        // simlint: allow(lossy-cast, reason = "masked to the set count before narrowing")
        ((vpn.raw() >> shift) & self.set_mask) as usize
    }

    /// The ways of set `set`.
    #[inline]
    pub fn set(&self, set: usize) -> Range<usize> {
        self.span(set..set + 1)
    }

    /// The ways of the contiguous sets `sets`.
    #[inline]
    pub fn span(&self, sets: Range<usize>) -> Range<usize> {
        sets.start * self.assoc..sets.end * self.assoc
    }

    /// Advances the clock by one event.
    #[inline]
    pub fn tick(&mut self) {
        self.clock += 1;
    }

    /// Whether way `w` holds an entry.
    #[inline]
    pub fn is_valid(&self, w: usize) -> bool {
        self.tags[w] != 0
    }

    /// The address space owning valid way `w`.
    #[inline]
    pub fn asid_of(&self, w: usize) -> Asid {
        tag_asid(self.tags[w])
    }

    /// The VPN valid way `w` is tagged with.
    pub fn vpn_of(&self, w: usize) -> Vpn {
        Vpn::new(tag_vpn(self.tags[w]))
    }

    /// Way `w`'s LRU stamp (stale if the way is invalid).
    #[inline]
    pub fn stamp(&self, w: usize) -> u64 {
        self.stamps[w]
    }

    /// Way `w`'s payload.
    #[inline]
    pub fn payload(&self, w: usize) -> &P {
        &self.payload[w]
    }

    /// Way `w`'s payload, for an in-place update.
    #[inline]
    pub fn payload_mut(&mut self, w: usize) -> &mut P {
        &mut self.payload[w]
    }

    /// Whether way `w` is valid and tagged `(asid, vpn)`.
    #[inline]
    pub fn matches(&self, w: usize, asid: Asid, vpn: Vpn) -> bool {
        self.tags[w] == tag_of(asid, vpn)
    }

    /// The first way of `ways` tagged `(asid, vpn)` whose payload `hit`
    /// accepts.
    #[inline]
    pub fn find(
        &self,
        ways: Range<usize>,
        asid: Asid,
        vpn: Vpn,
        hit: impl Fn(&P) -> bool,
    ) -> Option<usize> {
        let tag = tag_of(asid, vpn);
        let tags = &self.tags[ways.clone()];
        // Most probes on the miss path match nothing: one branch-free
        // pass over the tags rules the range out.
        if !tags.iter().fold(false, |any, &t| any | (t == tag)) {
            return None;
        }
        let i = tags
            .iter()
            .zip(&self.payload[ways.clone()])
            .position(|(&t, p)| t == tag && hit(p))?;
        Some(ways.start + i)
    }

    /// The way of set `set` tagged `(asid, vpn)` whose payload `hit`
    /// accepts: the way `memo` holds for the set if it still qualifies,
    /// else the one a tag walk finds, which then arms the memo. Either
    /// way it is the same way, so the memo changes no outcome.
    #[inline]
    pub fn find_memo(
        &self,
        memo: &mut Memo<()>,
        set: usize,
        asid: Asid,
        vpn: Vpn,
        hit: impl Fn(&P) -> bool,
    ) -> Option<usize> {
        let valid = |w: usize, _: &()| self.matches(w, asid, vpn) && hit(&self.payload[w]);
        if let Some((w, ())) = memo.serve(set, valid) {
            return Some(w);
        }
        let w = self.find(self.set(set), asid, vpn, &hit)?;
        memo.arm(set, w, ());
        Some(w)
    }

    /// The first invalid way of `ways`, by index.
    pub fn first_invalid(&self, ways: Range<usize>) -> Option<usize> {
        let i = self.tags[ways.clone()].iter().position(|&t| t == 0)?;
        Some(ways.start + i)
    }

    /// The LRU victim among `ways`: the first way with the smallest
    /// [`recency_key`], so an invalid way before any valid one, then the
    /// oldest stamp (invalid ways by their stale stamps), then the first
    /// way in `ways` order on a tie.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is empty.
    #[inline]
    pub fn victim(&self, ways: impl IntoIterator<Item = usize>) -> usize {
        let keys = ways
            .into_iter()
            .map(|w| (w, recency_key(self.tags[w] != 0, self.stamps[w])));
        first_min(keys).expect("a victim is chosen among at least one way") // simlint: allow(hot-unwrap, reason = "callers pass a set, a TB's ways of a set or a non-empty spill span; TlbConfig validates associativity > 0")
    }

    /// Stamps way `w` with the current time (an LRU touch).
    #[inline]
    pub fn touch(&mut self, w: usize) {
        self.stamps[w] = self.clock;
    }

    /// Overwrites way `w` with `asid`'s entry for `vpn`, stamped now. The
    /// residency counts follow; the stats do not: counting the insertion
    /// and whatever the fill displaced is the organization's call.
    #[inline]
    pub fn fill(&mut self, w: usize, asid: Asid, vpn: Vpn, payload: P) {
        self.put(w, tag_of(asid, vpn), self.clock, payload);
    }

    /// Overwrites way `to` with way `from`'s tag and stamp and `payload`,
    /// leaving `from` as it is (a spill).
    #[inline]
    pub fn copy(&mut self, from: usize, to: usize, payload: P) {
        self.put(to, self.tags[from], self.stamps[from], payload);
    }

    #[inline]
    fn put(&mut self, w: usize, tag: u64, stamp: u64, payload: P) {
        self.forget(w);
        self.tags[w] = tag;
        self.stamps[w] = stamp;
        self.payload[w] = payload;
        self.valid += 1;
        self.bump(tag_asid(tag), 1);
    }

    /// Invalidates way `w`, keeping its stamp and payload.
    #[inline]
    pub fn invalidate(&mut self, w: usize) {
        self.forget(w);
        self.tags[w] = 0;
    }

    /// Removes way `w`'s entry, if any, from the residency counts.
    #[inline]
    fn forget(&mut self, w: usize) {
        if self.tags[w] != 0 {
            self.valid -= 1;
            self.bump(tag_asid(self.tags[w]), -1);
        }
    }

    #[inline]
    fn bump(&mut self, asid: Asid, delta: i32) {
        let i = asid.index();
        if i >= self.resident.len() {
            self.resident.resize(i + 1, 0);
        }
        // Saturate instead of panicking on the hot path: an underflow
        // desyncs the counter from the tag scan, which `check` reports.
        self.resident[i] = self.resident[i].saturating_add_signed(delta);
    }

    /// Invalidates every way, keeping stamps and payloads.
    pub fn flush(&mut self) {
        self.tags.fill(0);
        self.valid = 0;
        self.resident.clear();
    }

    /// Records one lookup by `asid`.
    #[inline]
    pub fn record(&mut self, asid: Asid, hit: bool) {
        self.stats.record(hit);
        self.per_asid.entry(asid).record(hit);
    }

    /// Counts one translation inserted by `asid`.
    #[inline]
    pub fn inserted(&mut self, asid: Asid) {
        self.stats.insertions += 1;
        self.per_asid.entry(asid).insertions += 1;
    }

    /// Counts way `w`'s entry, if it holds one, as displaced.
    #[inline]
    pub fn evict(&mut self, w: usize) {
        if self.tags[w] != 0 {
            self.evicted(tag_asid(self.tags[w]));
        }
    }

    /// Counts one of `asid`'s translations displaced.
    #[inline]
    pub fn evicted(&mut self, asid: Asid) {
        self.stats.evictions += 1;
        self.per_asid.entry(asid).evictions += 1;
    }

    /// The aggregate stats.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// `(asid, stats)` for every ASID with traffic; sums to
    /// [`Ways::stats`].
    pub fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        self.per_asid.non_empty()
    }

    /// Clears the stats, keeping the contents.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
        self.per_asid.clear();
    }

    /// Number of valid ways (O(1)).
    pub fn occupancy(&self) -> usize {
        self.valid
    }

    /// Number of valid ways tagged with `asid` (O(1)).
    pub fn resident_of(&self, asid: Asid) -> usize {
        self.resident.get(asid.index()).map_or(0, |&c| c as usize)
    }

    /// Checks the invariants every organization shares and returns the
    /// first violation:
    /// - `hits + misses == lookups`, and the per-ASID stats sum to the
    ///   aggregate;
    /// - the valid-way and per-ASID resident counts equal a tag scan;
    /// - a valid tag carries its valid bit and a stamp no later than the
    ///   clock;
    /// - valid stamps are distinct within a set, so LRU is a total order;
    /// - no two valid ways of a set share a tag while `clash` holds for
    ///   their payloads;
    /// - `way` accepts every valid way (the organization's own arms).
    pub fn check(
        &self,
        clash: impl Fn(&P, &P) -> bool,
        way: impl Fn(usize, &P) -> Result<(), String>,
    ) -> Result<(), String> {
        self.stats.check()?;
        let sum = self.per_asid.sum();
        if sum != self.stats {
            return Err(format!(
                "per-ASID stats sum {sum:?} != aggregate {:?}",
                self.stats
            ));
        }
        let scanned = self.tags.iter().filter(|&&t| t != 0).count();
        if self.valid != scanned {
            return Err(format!(
                "resident counter {} != valid-way scan {scanned}",
                self.valid
            ));
        }
        let asids = self
            .tags
            .iter()
            .filter(|&&t| t != 0)
            .map(|&t| tag_asid(t).index());
        for i in 0..asids.max().map_or(0, |i| i + 1).max(self.resident.len()) {
            let scan = self
                .tags
                .iter()
                .filter(|&&t| t != 0 && tag_asid(t).index() == i);
            let (c, n) = (self.resident.get(i).copied().unwrap_or(0), scan.count());
            if c as usize != n {
                return Err(format!("ASID {i}: resident counter {c} != tag scan {n}"));
            }
        }
        for set in 0..self.sets() {
            let ways = self.set(set);
            for w in ways.clone().filter(|&w| self.tags[w] != 0) {
                let at = |e: String| format!("set {set} way {}: {e}", w - ways.start);
                let (tag, stamp) = (self.tags[w], self.stamps[w]);
                if tag & 1 == 0 {
                    return Err(at(format!("packed tag {tag:#x} lacks the valid bit")));
                }
                if stamp > self.clock {
                    return Err(at(format!("stamp {stamp} ahead of clock {}", self.clock)));
                }
                let earlier = (ways.start..w).filter(|&o| self.tags[o] != 0);
                if earlier.clone().any(|o| self.stamps[o] == stamp) {
                    return Err(at(format!(
                        "duplicate LRU stamp {stamp} breaks the recency total order"
                    )));
                }
                let (p, vpn) = (&self.payload[w], tag_vpn(tag));
                if earlier
                    .filter(|&o| self.tags[o] == tag)
                    .any(|o| clash(&self.payload[o], p))
                {
                    let asid = tag_asid(tag);
                    return Err(at(format!("(asid {asid}, VPN {vpn:#x}) resident twice")));
                }
                way(w, p).map_err(at)?;
            }
        }
        Ok(())
    }

    /// A dump for invariant reports: a header line naming the
    /// organization, then one line per set holding an entry, each valid
    /// way as `[asid=.. vpn=..{entry} @stamp]` with `entry` writing the
    /// payload of way `w`.
    pub fn dump(&self, name: &str, entry: impl Fn(&mut String, usize, &P)) -> String {
        let mut s = format!(
            "{name}: {} entries, {}-way, clock {}, valid {}, stats {{{:?}}}\n",
            self.tags.len(),
            self.assoc,
            self.clock,
            self.valid,
            self.stats
        );
        for set in 0..self.sets() {
            let ways = self.set(set);
            if self.tags[ways.clone()].iter().all(|&t| t == 0) {
                continue;
            }
            let _ = write!(s, "  set {set:3}:");
            for w in ways.filter(|&w| self.tags[w] != 0) {
                let t = self.tags[w];
                let _ = write!(s, " [asid={} vpn={:#x}", tag_asid(t), tag_vpn(t));
                entry(&mut s, w, &self.payload[w]);
                let _ = write!(s, " @{}]", self.stamps[w]);
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmem::Ppn;

    /// One set of four ways.
    fn set4() -> Ways<Ppn> {
        Ways::new(TlbConfig::new(4, 4, 1))
    }

    fn fill(ways: &mut Ways<Ppn>, w: usize, asid: u16, vpn: u64) {
        ways.tick();
        ways.inserted(Asid::new(asid));
        ways.fill(w, Asid::new(asid), Vpn::new(vpn), Ppn::new(vpn));
    }

    fn check(ways: &Ways<Ppn>) -> Result<(), String> {
        ways.check(|_, _| true, |_, _| Ok(()))
    }

    #[test]
    fn packed_tags_round_trip() {
        let t = tag_of(Asid::new(3), Vpn::new(0x42));
        assert_ne!(t, 0);
        assert_eq!((tag_asid(t), tag_vpn(t)), (Asid::new(3), 0x42));
        let max = Vpn::new((1 << 52) - 1);
        let t = tag_of(Asid::new(Asid::MAX_ASIDS - 1), max);
        assert_eq!(tag_asid(t), Asid::new(Asid::MAX_ASIDS - 1));
        assert_eq!(tag_vpn(t), max.raw());
    }

    #[test]
    fn victim_takes_an_invalid_way_before_any_valid_one() {
        let mut ways = set4();
        for w in 0..4 {
            fill(&mut ways, w, 0, w as u64);
        }
        assert_eq!(ways.victim(0..4), 0, "all valid: the oldest stamp");
        ways.invalidate(3);
        assert_eq!(ways.victim(0..4), 3, "invalid beats every valid way");
    }

    #[test]
    fn victim_orders_invalid_ways_by_their_stale_stamps() {
        let mut ways = set4();
        for w in [2, 0, 3, 1] {
            fill(&mut ways, w, 0, w as u64);
        }
        ways.flush();
        // Stamps survive the flush: way 2 was filled first.
        assert_eq!(ways.victim(0..4), 2);
        ways.invalidate(2);
        ways.tick();
        ways.touch(2);
        assert_eq!(
            ways.victim(0..4),
            0,
            "way 2's stale stamp is now the newest"
        );
    }

    #[test]
    fn victim_takes_the_first_way_on_a_tie() {
        let ways = set4();
        assert_eq!(ways.victim(0..4), 0, "never-used ways all key 0");
        assert_eq!(ways.victim([3, 1, 2]), 3, "first in the given order");
    }

    #[test]
    fn find_matches_the_asid_and_the_payload() {
        let mut ways = set4();
        fill(&mut ways, 1, 1, 9);
        assert_eq!(
            ways.find(0..4, Asid::new(1), Vpn::new(9), |_| true),
            Some(1)
        );
        assert_eq!(ways.find(0..4, Asid::new(2), Vpn::new(9), |_| true), None);
        assert_eq!(ways.find(0..4, Asid::new(1), Vpn::new(9), |_| false), None);
        assert_eq!(ways.find(2..4, Asid::new(1), Vpn::new(9), |_| true), None);
        assert_eq!(ways.first_invalid(0..4), Some(0));
        assert_eq!(ways.first_invalid(1..2), None);
    }

    #[test]
    fn residency_counts_follow_fills_copies_and_invalidations() {
        let mut ways = set4();
        fill(&mut ways, 0, 1, 5);
        fill(&mut ways, 1, 2, 6);
        fill(&mut ways, 1, 1, 7); // replaces asid 2's entry
        assert_eq!(ways.occupancy(), 2);
        assert_eq!(ways.resident_of(Asid::new(1)), 2);
        assert_eq!(ways.resident_of(Asid::new(2)), 0);
        ways.copy(0, 2, Ppn::new(5));
        assert_eq!(
            (ways.stamp(2), ways.vpn_of(2)),
            (ways.stamp(0), Vpn::new(5))
        );
        ways.invalidate(0);
        assert_eq!((ways.occupancy(), ways.resident_of(Asid::new(1))), (2, 2));
        check(&ways).expect("counts match the scan");
        ways.flush();
        assert_eq!((ways.occupancy(), ways.resident_of(Asid::new(1))), (0, 0));
    }

    #[test]
    fn check_reports_a_broken_stats_identity() {
        let mut ways = set4();
        ways.record(Asid::new(0), true);
        check(&ways).expect("recorded lookups keep the identity");
        ways.stats.hits += 1;
        assert!(check(&ways).unwrap_err().contains("lookups"));
        ways.stats.hits -= 1;
        ways.per_asid.entry(Asid::new(2)).misses += 1;
        assert!(check(&ways).unwrap_err().contains("per-ASID stats sum"));
    }

    #[test]
    fn check_reports_resident_counters_that_left_the_scan() {
        let mut ways = set4();
        fill(&mut ways, 0, 1, 5);
        ways.valid = 2;
        let e = check(&ways).unwrap_err();
        assert!(e.contains("resident counter 2"), "{e}");
        ways.valid = 1;
        ways.resident[1] = 9;
        let e = check(&ways).unwrap_err();
        assert!(e.contains("ASID 1: resident counter 9"), "{e}");
        ways.resident[1] = 0;
        ways.resident.push(1);
        let e = check(&ways).unwrap_err();
        assert!(e.contains("ASID 1: resident counter 0"), "{e}");
    }

    #[test]
    fn check_reports_a_duplicate_stamp_with_the_way() {
        let mut ways = set4();
        fill(&mut ways, 0, 0, 5);
        fill(&mut ways, 1, 0, 6);
        ways.stamps[1] = ways.stamps[0];
        let e = check(&ways).unwrap_err();
        assert!(e.contains("set 0 way 1: duplicate LRU stamp"), "{e}");
        // An invalid way's stale stamp is no duplicate.
        ways.invalidate(1);
        check(&ways).expect("stale stamps may repeat");
        ways.stamps[0] = 99;
        assert!(check(&ways).unwrap_err().contains("ahead of clock"));
    }

    #[test]
    fn check_reports_a_tag_without_its_valid_bit() {
        let mut ways = set4();
        fill(&mut ways, 2, 0, 5);
        ways.tags[2] &= !1;
        let e = check(&ways).unwrap_err();
        assert!(e.contains("set 0 way 2: packed tag"), "{e}");
        assert!(e.contains("lacks the valid bit"), "{e}");
    }

    #[test]
    fn check_reports_clashing_duplicate_tags_only() {
        let mut ways = set4();
        fill(&mut ways, 0, 3, 5);
        fill(&mut ways, 1, 3, 6);
        ways.tags[1] = ways.tags[0];
        let e = check(&ways).unwrap_err();
        assert!(e.contains("(asid 3, VPN 0x5) resident twice"), "{e}");
        ways.check(|_, _| false, |_, _| Ok(()))
            .expect("payloads that never clash may share a tag");
    }

    #[test]
    fn check_prefixes_the_organizations_arm_with_the_way() {
        let mut ways: Ways<Ppn> = Ways::new(TlbConfig::new(8, 2, 1));
        fill(&mut ways, 3, 0, 5);
        let e = ways
            .check(
                |_, _| true,
                |w, p| Err(format!("way {w} holds {:#x}", p.raw())),
            )
            .unwrap_err();
        assert_eq!(e, "set 1 way 1: way 3 holds 0x5");
    }

    #[test]
    fn dump_lists_valid_ways_by_set() {
        let mut ways: Ways<Ppn> = Ways::new(TlbConfig::new(8, 2, 1));
        fill(&mut ways, 3, 2, 5);
        let d = ways.dump("T", |s, _, p| s.push_str(&format!(" ppn={:#x}", p.raw())));
        assert!(
            d.starts_with("T: 8 entries, 2-way, clock 1, valid 1"),
            "{d}"
        );
        assert!(
            d.contains("  set   1: [asid=2 vpn=0x5 ppn=0x5 @1]\n"),
            "{d}"
        );
        assert!(!d.contains("set   0"), "{d}");
    }
}
