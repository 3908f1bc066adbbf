//! The paper's TB-id-partitioned L1 TLB with dynamic adjacent set sharing
//! (§IV-B, Figures 8 and 9).
//!
//! Instead of indexing sets with VPN bits, the set index is derived from
//! the hardware TB id (`tb_slot`): with `S` sets and `N` concurrent TBs,
//! TB `i` owns sets `⌊i·S/N⌋ .. ⌊(i+1)·S/N⌋` (one set each when `N = S =
//! 16`, the paper's common case; multiple TBs alias onto one set when `N >
//! S`, footnote 1). Because the set index no longer comes from the
//! address, every entry stores the **full VPN**.
//!
//! **Lookup** probes every set mapped to the TB (each probed set costs one
//! extra base latency when `per_set_lookup_overhead` is on — the paper
//! includes this overhead in its results). **Insertion** fills the TB's
//! own sets; when they are full, the LRU victim *spills* into an empty way
//! of the **adjacent TB's** sets and that TB's 1-bit sharing flag is set,
//! after which lookups also probe the neighbour's sets (Figure 9). Flags
//! reset when the TB occupying the shared sets finishes. Entries are
//! deliberately **not** flushed on TB completion, preserving inter-TB
//! reuse.
//!
//! With [`PartitionedTlbConfig::compression`] set, each way additionally
//! holds a PACT'20-style compressed run (the Figure 12 "ours +
//! compression" configuration); `None` gives plain single-page entries.
//!
//! # Storage
//!
//! The ways are a [`tlb::Ways`]: the tag holds the app and the run base
//! VPN, and the payload is a [`tlb::Run`] (one page when compression is
//! off) plus the TB slot that owns the entry's placement. This module adds
//! the index policy only: TB-id set groups, the adjacent spill, the
//! per-app sharing registers, a lookup memo per TB slot and the miss hint.
//! A probe is a scan of at most two contiguous tag slices (the TB's own
//! group and, when sharing is engaged, its neighbour's). A lookup that
//! misses remembers what it missed, so the fill that follows it — same
//! app, page and TB, nothing structural changed in between — skips the
//! refresh probe it would repeat.

use std::fmt::Write as _;
use std::ops::Range;
use tlb::{
    CompressionConfig, InvariantViolation, Memo, Run, TlbConfig, TlbOutcome, TlbRequest, TlbStats,
    TranslationBuffer, Ways,
};
use vmem::{Asid, Ppn, Vpn};

/// How TBs may share each other's TLB sets (paper §IV-B).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum SharingPolicy {
    /// No sharing: strict TB-id partitioning.
    None,
    /// The paper's design: a 1-bit flag per TB; an oversubscribed TB
    /// spills its victim into the adjacent TB's sets and the flag makes
    /// its lookups search there too.
    #[default]
    Adjacent,
    /// The paper's discussed-but-deferred alternative: a per-TB counter;
    /// the neighbour's sets are searched only after `threshold` spills,
    /// filtering one-off spills out of the lookup path.
    AdjacentCounter {
        /// Spills required before the sharing flag engages.
        threshold: u8,
    },
    /// The paper's *rejected* alternative: any TB may spill anywhere and
    /// every lookup searches all sets — maximal capacity, but the
    /// multi-set probe overhead grows with the whole TLB (the reason the
    /// paper sticks to adjacent sharing). Provided for the ablation.
    AllToAll,
}

impl SharingPolicy {
    /// Whether spilling is enabled at all.
    fn spills(self) -> bool {
        self != SharingPolicy::None
    }
}

/// Configuration of the partitioned TLB.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PartitionedTlbConfig {
    /// Underlying geometry (entries, ways, base latency) — Table III's
    /// 64-entry 4-way L1 by default.
    pub geometry: TlbConfig,
    /// Dynamic set-sharing policy (the paper's full design uses
    /// [`SharingPolicy::Adjacent`]).
    pub sharing: SharingPolicy,
    /// Charge one base latency per probed set (the multi-set lookup
    /// overhead the paper discusses); `false` models ideal compactors.
    pub per_set_lookup_overhead: bool,
    /// A spilled victim may displace a neighbour entry only when that
    /// entry has been idle at least this many TLB events longer than the
    /// victim — so sharing balances *under-used* sets (Figure 9) without
    /// letting two busy neighbours cannibalize each other.
    pub displacement_margin: u64,
    /// Optionally compress contiguous translations within each way
    /// (PACT'20 model) for the Figure 12 combination study.
    pub compression: Option<CompressionConfig>,
}

impl PartitionedTlbConfig {
    /// Partitioning only (the paper's "TLB partitioning" bar).
    pub fn partition_only() -> Self {
        PartitionedTlbConfig {
            geometry: TlbConfig::dac23_l1(),
            sharing: SharingPolicy::None,
            per_set_lookup_overhead: true,
            displacement_margin: 512,
            compression: None,
        }
    }

    /// Partitioning plus dynamic adjacent set sharing (the paper's full
    /// design).
    pub fn with_sharing() -> Self {
        PartitionedTlbConfig {
            sharing: SharingPolicy::Adjacent,
            ..Self::partition_only()
        }
    }
}

impl Default for PartitionedTlbConfig {
    fn default() -> Self {
        Self::with_sharing()
    }
}

/// What a TB slot's memo stores beside the hitting way. The way is
/// trusted only while `epoch` still equals the TLB's `struct_epoch`:
/// everything a tag walk observes — residency, sharing flags, spill
/// counters, set groups — bumps the epoch when it changes.
#[derive(Copy, Clone, Debug)]
struct MemoHint {
    /// The app and page the walk hit for.
    asid: Asid,
    vpn: Vpn,
    /// `searchable_sets(asid, tb).len()`: the probe count the walk
    /// charged.
    sets_probed: u32,
    /// `struct_epoch` at arming time.
    epoch: u64,
}

/// What the latest lookup miss proved: no way TB `tb` can probe holds
/// app `asid`'s translation of `vpn`. It stays true while `epoch` equals
/// `struct_epoch`, for the same reason a [`MemoHint`] does, so the fill
/// for the same key skips its refresh probe.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct MissHint {
    asid: Asid,
    vpn: Vpn,
    /// Normalized TB slot.
    tb: u8,
    /// `struct_epoch` at the miss.
    epoch: u64,
}

/// A set of TLB sets as at most two ascending, disjoint ranges, iterated
/// `lo` then `hi`. Set groups are contiguous and any two are identical or
/// disjoint, so a TB's own group plus its neighbour's — or everything
/// outside one group — is always expressible without allocating.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SetSpan {
    lo: Range<usize>,
    hi: Range<usize>,
}

impl SetSpan {
    fn one(sets: Range<usize>) -> Self {
        SetSpan { lo: sets, hi: 0..0 }
    }

    /// The union of two set groups, ordered by start (a group united
    /// with itself is probed once; adjacent groups form one range, so
    /// one scan covers them).
    fn union(a: Range<usize>, b: Range<usize>) -> Self {
        let (lo, hi) = if a.start <= b.start { (a, b) } else { (b, a) };
        if lo == hi {
            SetSpan::one(lo)
        } else if lo.end == hi.start {
            SetSpan::one(lo.start..hi.end)
        } else {
            SetSpan { lo, hi }
        }
    }

    fn len(&self) -> usize {
        self.lo.len() + self.hi.len()
    }

    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = usize> {
        self.lo.clone().chain(self.hi.clone())
    }
}

/// Sets owned by TB `tb` out of `sets` when `n` TBs run concurrently:
/// `⌊tb·S/N⌋ .. ⌊(tb+1)·S/N⌋`, or the single set `tb % S` once TBs alias
/// onto sets (footnote 1).
fn group_span(sets: usize, n: usize, tb: usize) -> Range<usize> {
    if n >= sets {
        let s = tb % sets;
        s..s + 1
    } else {
        (tb * sets / n)..((tb + 1) * sets / n)
    }
}

/// Per-ASID dynamic-sharing state: the paper's 1-bit-per-TB sharing
/// register, replicated per address space. Keying the register by
/// `(asid, tb)` instead of bare TB id means one app's spills never widen
/// another app's lookup reach, and a finished TB only releases its own
/// app's licences — cross-app spill rescue is impossible by construction.
#[derive(Copy, Clone, Debug)]
struct ShareState {
    asid: Asid,
    /// Bit `i` set ⇒ this app's TB `i` spilled into TB `i+1 (mod N)`.
    flags: u16,
    /// Per-TB spill counters for [`SharingPolicy::AdjacentCounter`].
    counters: [u8; 16],
}

/// The payload of a way: its run and the TB slot responsible for its
/// placement — the inserting TB, the spilling TB for rescued victims, or
/// the set's natural owner after adoption (see `on_tb_finish`). The
/// sanitizer checks that every entry sits inside its owner's set group
/// unless the owner's sharing flag licenses the neighbour placement.
#[derive(Copy, Clone, Debug, Default)]
struct Entry {
    run: Run,
    owner: u8,
}

/// The TB-id-partitioned, full-VPN-tagged L1 TLB with dynamic adjacent
/// set sharing.
///
/// # Example
///
/// ```
/// use orchestrated_tlb::{PartitionedTlb, PartitionedTlbConfig};
/// use tlb::{TlbRequest, TranslationBuffer};
/// use vmem::{Ppn, Vpn};
///
/// let mut tlb = PartitionedTlb::new(PartitionedTlbConfig::with_sharing());
/// tlb.set_concurrent_tbs(16); // one set per TB
/// let req = TlbRequest::new(Vpn::new(0x1234), 3);
/// tlb.insert(&req, Ppn::new(7));
/// assert!(tlb.lookup(&req).hit);
/// // A different TB probing the same page misses: its sets are disjoint.
/// assert!(!tlb.lookup(&TlbRequest::new(Vpn::new(0x1234), 4)).hit);
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedTlb {
    cfg: PartitionedTlbConfig,
    ways: Ways<Entry>,
    /// `group_span` of every live TB slot (index = normalized slot); its
    /// length is the number of concurrent TBs.
    groups: Vec<Range<usize>>,
    /// log2 of the compression degree (0 without compression).
    degree_shift: u32,
    /// Per-app sharing registers, sorted by ASID (see [`ShareState`]).
    share: Vec<ShareState>,
    /// Victims rescued into a neighbour's way.
    spills: u64,
    /// Bumped by every structural mutation (insert, flush, TB lifecycle);
    /// guards the memo and miss hints.
    struct_epoch: u64,
    /// Last hitting way per TB slot (index = normalized slot).
    memo: Memo<MemoHint>,
    /// The latest lookup miss; used only while the memo is enabled.
    miss: Option<MissHint>,
}

impl PartitionedTlb {
    /// Creates an empty partitioned TLB.
    ///
    /// # Panics
    ///
    /// Panics if a compression degree larger than 32 or not a power of two
    /// is configured.
    pub fn new(cfg: PartitionedTlbConfig) -> Self {
        if let Some(c) = cfg.compression {
            assert!(
                c.degree.is_power_of_two() && c.degree <= 32,
                "compression degree must be a power of two <= 32"
            );
        }
        PartitionedTlb {
            ways: Ways::new(cfg.geometry),
            groups: Self::group_table(&cfg, 16),
            degree_shift: cfg.compression.map_or(0, |c| c.degree.trailing_zeros()),
            cfg,
            share: Vec::new(),
            spills: 0,
            struct_epoch: 0,
            memo: Memo::new(16),
            miss: None,
        }
    }

    fn group_table(cfg: &PartitionedTlbConfig, tbs: u8) -> Vec<Range<usize>> {
        let sets = cfg.geometry.sets();
        let n = tbs as usize;
        (0..n).map(|tb| group_span(sets, n, tb)).collect()
    }

    /// Enables or disables the lookup memo, and with it the fill's use of
    /// the miss hint: a wall-clock knob only, as
    /// `crates/core/tests/fastpath_diff.rs` proves.
    pub fn set_fastpath(&mut self, on: bool) {
        self.memo.set_enabled(on);
    }

    /// Union of every app's sharing register (bit `i` = some app's TB `i`
    /// shares into its neighbour). Single-app callers see exactly the
    /// pre-multi-tenant value.
    pub fn sharing_flags(&self) -> u16 {
        self.share.iter().fold(0, |acc, s| acc | s.flags)
    }

    /// One app's sharing register word (0 if the app never spilled).
    pub fn sharing_flags_of(&self, asid: Asid) -> u16 {
        self.share_of(asid).map_or(0, |s| s.flags)
    }

    fn share_of(&self, asid: Asid) -> Option<&ShareState> {
        self.share.iter().find(|s| s.asid == asid)
    }

    fn share_mut(&mut self, asid: Asid) -> &mut ShareState {
        if let Some(i) = self.share.iter().position(|s| s.asid == asid) {
            return &mut self.share[i];
        }
        let at = self.share.partition_point(|s| s.asid < asid);
        self.share.insert(
            at,
            ShareState {
                asid,
                flags: 0,
                counters: [0; 16],
            },
        );
        &mut self.share[at]
    }

    /// Victim entries rescued into a neighbour's sets so far.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Number of valid ways.
    pub fn occupancy(&self) -> usize {
        self.ways.occupancy()
    }

    /// Probes for `vpn` as app `asid`'s TB `tb_slot` would, without
    /// updating stats, stamps, or sharing state (diagnostics; the
    /// differential harness uses it to compare resident contents against
    /// the oracle).
    pub fn peek(&self, asid: Asid, vpn: Vpn, tb_slot: u8) -> Option<Ppn> {
        let tb = self.norm_slot(tb_slot);
        let sets = self.searchable_sets(asid, tb);
        let w = self.find(asid, &sets, vpn)?;
        let (_, off) = Run::locate(vpn, self.degree_shift);
        Some(self.ways.payload(w).run.ppn_at(off))
    }

    fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Folds a hardware slot id onto the live TB groups. The engine only
    /// issues slots in `0..concurrent_tbs`, but the TLB is also driven
    /// directly (tests, sanitizer reproducers); an out-of-range id aliases
    /// onto the groups — mirroring the footnote-1 `tb % sets` aliasing —
    /// instead of indexing past the geometry.
    fn norm_slot(&self, tb: u8) -> u8 {
        if (tb as usize) < self.groups() {
            tb
        } else {
            (tb as usize % self.groups()) as u8
        }
    }

    /// The sets owned by TB `tb` under the current concurrency. Only a
    /// corrupted owner (the sanitizer's concern) lies outside the table.
    fn group_of(&self, tb: u8) -> Range<usize> {
        match self.groups.get(tb as usize) {
            Some(g) => g.clone(),
            None => group_span(self.ways.sets(), self.groups(), tb as usize),
        }
    }

    /// The normalized slot after `tb` (wrapping), whose group receives
    /// `tb`'s spills.
    fn neighbour(&self, tb: u8) -> u8 {
        if tb as usize + 1 < self.groups() {
            tb + 1
        } else {
            0
        }
    }

    /// Ways of every set in `sets`, in span order.
    fn ways_of_span(&self, sets: &SetSpan) -> impl Iterator<Item = usize> {
        self.ways
            .span(sets.lo.clone())
            .chain(self.ways.span(sets.hi.clone()))
    }

    /// The set holding way `w`.
    fn set_of_way(&self, w: usize) -> usize {
        w / self.cfg.geometry.associativity
    }

    /// The TB slot that naturally owns `set` under the current concurrency
    /// (the smallest slot whose group contains it). Used when re-homing
    /// entries whose placing TB can no longer reach them.
    fn home_tb(&self, set: usize) -> u8 {
        let n = self.groups();
        if n >= self.ways.sets() {
            set as u8
        } else {
            (0..n as u8)
                .find(|&tb| self.group_of(tb).contains(&set))
                .unwrap_or(0)
        }
    }

    /// Whether app `asid`'s flag for TB `tb` is currently engaged.
    fn flag_engaged(&self, asid: Asid, tb: u8) -> bool {
        match self.cfg.sharing {
            SharingPolicy::None => false,
            SharingPolicy::Adjacent => self.sharing_flags_of(asid) & (1 << (tb as u16 % 16)) != 0,
            SharingPolicy::AdjacentCounter { threshold } => {
                let s = self.share_of(asid);
                s.map_or(0, |s| s.counters[tb as usize % 16]) >= threshold
            }
            SharingPolicy::AllToAll => true,
        }
    }

    /// Sets probed by a lookup from app `asid`'s TB `tb`: its own group,
    /// plus the neighbour's when this app's sharing flag is engaged (or
    /// every set under all-to-all sharing).
    /// `tb` must be a normalized slot.
    fn searchable_sets(&self, asid: Asid, tb: u8) -> SetSpan {
        if self.cfg.sharing == SharingPolicy::AllToAll {
            return SetSpan::one(0..self.ways.sets());
        }
        let own = self.group_of(tb);
        if self.flag_engaged(asid, tb) {
            SetSpan::union(own, self.group_of(self.neighbour(tb)))
        } else {
            SetSpan::one(own)
        }
    }

    /// The set a fill into group `own` targets, sub-indexed by run number
    /// so runs spread across a multi-set group. Power-of-two groups (one
    /// set in the paper's 16-TB case) need no division.
    fn candidate_set(&self, own: &Range<usize>, vpn: Vpn) -> usize {
        let run = vpn.raw() >> self.degree_shift;
        let len = own.len() as u64;
        // The remainder is taken in u64 *before* narrowing so the chosen
        // set is identical on 32-bit targets; it is below the group size,
        // so the narrowing is lossless.
        let sub = if len.is_power_of_two() {
            run & (len - 1)
        } else {
            run % len
        };
        own.start + sub as usize
    }

    /// Sets a victim evicted by normalized slot `tb` may be rescued into:
    /// the neighbour's group under adjacent sharing, every set outside
    /// `tb`'s own group under all-to-all.
    fn spill_sets(&self, tb: u8) -> SetSpan {
        if self.cfg.sharing == SharingPolicy::AllToAll {
            let own = self.group_of(tb);
            SetSpan {
                lo: 0..own.start,
                hi: own.end..self.ways.sets(),
            }
        } else {
            SetSpan::one(self.group_of(self.neighbour(tb)))
        }
    }

    fn lookup_latency(&self, sets_probed: usize, compressed_hit: bool) -> u64 {
        let base = self.cfg.geometry.lookup_latency;
        let probe = if self.cfg.per_set_lookup_overhead {
            base * sets_probed.max(1) as u64
        } else {
            base
        };
        let decompress = self.cfg.compression.map_or(0, |c| c.decompress_latency);
        probe + u64::from(compressed_hit) * decompress
    }

    /// Finds the way holding app `asid`'s translation of `vpn` among
    /// `sets`. The ASID is part of the packed tag: another app's entry
    /// for the same VPN never matches.
    fn find(&self, asid: Asid, sets: &SetSpan, vpn: Vpn) -> Option<usize> {
        let (base, off) = Run::locate(vpn, self.degree_shift);
        let holds = |e: &Entry| e.run.holds(off);
        let find = |sets: &Range<usize>| {
            self.ways
                .find(self.ways.span(sets.clone()), asid, base, holds)
        };
        find(&sets.lo).or_else(|| find(&sets.hi))
    }

    /// The way of `sets` a victim stamped `victim_stamp` is rescued into:
    /// the LRU victim of the span (an invalid way before any valid one,
    /// then the oldest, the first in span order on a tie), provided it is
    /// invalid or has been idle `displacement_margin` events longer than
    /// the victim.
    fn spill_slot(&self, sets: SetSpan, victim_stamp: u64) -> Option<usize> {
        if sets.len() == 0 {
            return None;
        }
        let slot = self.ways.victim(self.ways_of_span(&sets));
        let idle = self
            .ways
            .stamp(slot)
            .saturating_add(self.cfg.displacement_margin)
            < victim_stamp;
        (!self.ways.is_valid(slot) || idle).then_some(slot)
    }

    /// Places a new entry for `req`'s TB, tagged with run base `base` and
    /// stamped now: an empty way in the candidate set (then the first
    /// empty way of the group), else evict the candidate set's LRU way —
    /// first trying to rescue the victim into a neighbour's sets (dynamic
    /// sharing, Figure 9). Everything here is payload-independent: the
    /// inserted PPN travels inside `entry` but is never inspected.
    fn place(&mut self, req: &TlbRequest, base: Vpn, entry: Entry) {
        let own = self.group_of(req.tb_slot);
        let candidate = self.ways.set(self.candidate_set(&own, req.vpn));
        // 1. An invalid way in the candidate set, then anywhere in the
        //    group (which is the candidate set itself in a one-set
        //    group).
        let empty = match self.ways.first_invalid(candidate.clone()) {
            None if own.len() > 1 => self.ways.first_invalid(self.ways.span(own)),
            w => w,
        };
        let w = match empty {
            Some(w) => w,
            None => {
                // 2. Evict the LRU way of the candidate set.
                let victim = self.ways.victim(candidate);
                self.rescue_or_evict(req, victim);
                victim
            }
        };
        self.ways.fill(w, req.asid, base, entry);
    }

    /// Before `victim` is overwritten, tries to rescue it into another
    /// TB's sets (dynamic sharing, Figure 9): an empty way if one exists,
    /// otherwise a way holding an entry *older* than the victim — the
    /// paper's "balance the number of translations across multiple sets"
    /// between oversubscribed and under-used neighbours. Rescue is gated
    /// on the victim belonging to the spilling app: the licence it would
    /// be placed under is `(req.asid, req.tb_slot)`, and another app's
    /// lookups never consult that flag, so a cross-app rescue would be
    /// permanently unreachable. Cross-app victims die in place instead.
    fn rescue_or_evict(&mut self, req: &TlbRequest, victim: usize) {
        let victim_asid = self.ways.asid_of(victim);
        let slot = if self.cfg.sharing.spills() && victim_asid == req.asid {
            self.spill_slot(self.spill_sets(req.tb_slot), self.ways.stamp(victim))
        } else {
            None
        };
        let Some(w) = slot else {
            self.ways.evict(victim);
            return;
        };
        self.ways.evict(w);
        // The rescued entry is now placed under the spiller's `(asid,
        // tb)` sharing licence, not wherever its previous owner could
        // reach.
        let entry = Entry {
            owner: req.tb_slot,
            ..*self.ways.payload(victim)
        };
        self.ways.copy(victim, w, entry);
        let tb = req.tb_slot;
        let s = self.share_mut(req.asid);
        s.flags |= 1 << (tb as u16 % 16);
        s.counters[tb as usize % 16] = s.counters[tb as usize % 16].saturating_add(1);
        self.spills += 1;
    }

    /// The invariants beyond the way array: sharing registers, memo and
    /// miss hints.
    fn check_registers(&self) -> Result<(), String> {
        let n = self.groups();
        // Flag bits and spill counters for slots that cannot exist must
        // stay clear (on_tb_finish / set_concurrent_tbs reset them), for
        // every app's register word.
        for s in self.share.iter().filter(|_| n < 16) {
            if s.flags >> n != 0 {
                return Err(format!(
                    "ASID {}: sharing flags {:#018b} have bits set for TB slots >= {n}",
                    s.asid, s.flags
                ));
            }
            if let Some(i) = (n..16).find(|&i| s.counters[i] != 0) {
                return Err(format!(
                    "ASID {}: spill counter {i} nonzero with only {n} TB slots",
                    s.asid
                ));
            }
        }
        if self.share.windows(2).any(|w| w[0].asid >= w[1].asid) {
            return Err("sharing register table not strictly sorted by ASID".into());
        }
        if self.cfg.sharing == SharingPolicy::None && self.sharing_flags() != 0 {
            return Err(format!(
                "sharing flags {:#018b} set under SharingPolicy::None",
                self.sharing_flags()
            ));
        }
        // A TB's hint points into the sets its lookups can probe: its own
        // group or its neighbour's, or anywhere under all-to-all.
        let reachable = |tb: usize, w: usize| match self.cfg.sharing {
            SharingPolicy::AllToAll => w < self.ways.capacity(),
            _ => [tb as u8, self.neighbour(tb as u8)]
                .iter()
                .any(|&g| self.group_of(g).contains(&self.set_of_way(w))),
        };
        self.memo.check(n, reachable)?;
        // Only a hint from the current epoch is ever trusted; it must
        // point at a valid way still holding its VPN.
        for (tb, w, h) in self.memo.armed() {
            let (base, _) = Run::locate(h.vpn, self.degree_shift);
            if h.epoch == self.struct_epoch && !self.ways.matches(w, h.asid, base) {
                return Err(format!(
                    "live memo for TB {tb} (asid {} vpn {:#x}) points at way {w} \
                     which no longer holds it",
                    h.asid,
                    h.vpn.raw()
                ));
            }
        }
        // A current miss hint lets the next fill skip its refresh probe:
        // that probe must indeed find nothing.
        if let Some(h) = self.miss.filter(|h| h.epoch == self.struct_epoch) {
            let sets = self.searchable_sets(h.asid, h.tb);
            if let Some(w) = self.find(h.asid, &sets, h.vpn) {
                return Err(format!(
                    "live miss hint for TB {} (asid {} vpn {:#x}) but way {w} holds it",
                    h.tb,
                    h.asid,
                    h.vpn.raw()
                ));
            }
        }
        Ok(())
    }

    /// §IV-B placement: an entry lives in its owner's group, or in
    /// territory licensed by the owner's `(asid, tb)` sharing flag (the
    /// adjacent group — or anywhere under all-to-all). The licence is
    /// looked up in the entry's own app's register word: another app's
    /// spills never license this entry's placement.
    fn check_placement(&self, w: usize, owner: u8) -> Result<(), String> {
        let set = self.set_of_way(w);
        if self.group_of(owner).contains(&set) {
            return Ok(());
        }
        let asid = self.ways.asid_of(w);
        let bit = self.sharing_flags_of(asid) & (1 << (u16::from(owner) % 16)) != 0;
        let licensed = bit
            && match self.cfg.sharing {
                SharingPolicy::None => false,
                SharingPolicy::Adjacent | SharingPolicy::AdjacentCounter { .. } => {
                    let neighbour = ((owner as usize + 1) % self.groups()) as u8;
                    self.group_of(neighbour).contains(&set)
                }
                SharingPolicy::AllToAll => true,
            };
        if licensed {
            return Ok(());
        }
        Err(format!(
            "entry asid={asid} vpn={:#x} owned by TB {owner} is outside group {:?} and its \
             app's sharing flag does not license set {set}",
            self.ways.vpn_of(w).raw(),
            self.group_of(owner),
        ))
    }
}

impl TranslationBuffer for PartitionedTlb {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        let req = &TlbRequest {
            tb_slot: self.norm_slot(req.tb_slot),
            ..*req
        };
        self.ways.tick();
        let tb = req.tb_slot as usize;
        // Nothing structural changed since the walk that armed the hint
        // hit this VPN for this app's TB: the walk would find the same way
        // after probing the same set list. The PPN is re-read from the
        // way, so an in-place refresh is observed exactly.
        let epoch = self.struct_epoch;
        let valid =
            |_: usize, h: &MemoHint| h.epoch == epoch && h.asid == req.asid && h.vpn == req.vpn;
        let (w, sets_probed) = match self.memo.serve(tb, valid) {
            Some((w, h)) => (w, h.sets_probed as usize),
            None => {
                let sets = self.searchable_sets(req.asid, req.tb_slot);
                let Some(w) = self.find(req.asid, &sets, req.vpn) else {
                    self.miss = Some(MissHint {
                        asid: req.asid,
                        vpn: req.vpn,
                        tb: req.tb_slot,
                        epoch,
                    });
                    self.ways.record(req.asid, false);
                    return TlbOutcome::miss(self.lookup_latency(sets.len(), false));
                };
                let hint = MemoHint {
                    asid: req.asid,
                    vpn: req.vpn,
                    sets_probed: sets.len() as u32,
                    epoch,
                };
                self.memo.arm(tb, w, hint);
                (w, sets.len())
            }
        };
        let run = self.ways.payload(w).run;
        let latency = self.lookup_latency(sets_probed, run.compressed());
        self.ways.touch(w);
        self.ways.record(req.asid, true);
        let (_, off) = Run::locate(req.vpn, self.degree_shift);
        TlbOutcome::hit(run.ppn_at(off), latency)
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        let req = &TlbRequest {
            tb_slot: self.norm_slot(req.tb_slot),
            ..*req
        };
        // The lookup that just missed for this app, page and TB probed
        // the same sets over the same residency: the refresh probe would
        // miss too.
        let known_absent = self.memo.enabled()
            && self.miss
                == Some(MissHint {
                    asid: req.asid,
                    vpn: req.vpn,
                    tb: req.tb_slot,
                    epoch: self.struct_epoch,
                });
        self.ways.tick();
        self.struct_epoch += 1;
        let (base, off) = Run::locate(req.vpn, self.degree_shift);
        let present = if known_absent {
            None
        } else {
            let searchable = self.searchable_sets(req.asid, req.tb_slot);
            self.find(req.asid, &searchable, req.vpn)
        };
        let compressed = self.cfg.compression.is_some();
        if let Some(w) = present {
            let run = &mut self.ways.payload_mut(w).run;
            if !compressed || run.coherent(ppn, off) {
                // Refresh in place. Without compression this is
                // unconditional: fill races for one page are benign (last
                // writer wins, as in the set-associative baseline), so
                // victim choice and placement never depend on `ppn`.
                if !compressed {
                    run.ppn = ppn;
                }
                self.ways.touch(w);
                return;
            }
            // Remap: clear the stale page; it is placed anew below.
            run.mask &= !(1 << off);
            if run.mask == 0 {
                self.ways.invalidate(w);
            }
        }
        if compressed {
            // Merge into a compatible run in the TB's own sets. Runs never
            // compress across address spaces: the tag carries the
            // requester's ASID.
            let own = self.ways.span(self.group_of(req.tb_slot));
            let absorbs = |e: &Entry| e.run.absorbs(ppn, off);
            if let Some(w) = self.ways.find(own, req.asid, base, absorbs) {
                self.ways.payload_mut(w).run.mask |= 1 << off;
                self.ways.touch(w);
                return;
            }
        }
        self.ways.inserted(req.asid);
        let entry = Entry {
            run: Run::new(ppn, off),
            owner: req.tb_slot,
        };
        self.place(req, base, entry);
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
        Some(self.peek(req.asid, req.vpn, req.tb_slot))
    }

    fn flush(&mut self) {
        self.ways.flush();
        self.share.clear();
        self.struct_epoch += 1;
    }

    fn fastpath_hits(&self) -> u64 {
        self.memo.served()
    }

    fn capacity(&self) -> usize {
        self.cfg.geometry.entries
    }

    fn on_tb_finish(&mut self, asid: Asid, tb_slot: u8) {
        let tb_slot = self.norm_slot(tb_slot);
        self.struct_epoch += 1;
        // "We reset the sharing flag of a particular TLB set when a TB
        // that is currently indexed to that TLB set finishes": the flag
        // cleared is the *predecessor's* — the TB spilling INTO the
        // finished TB's sets. Only the finishing app's own register word
        // is touched: another app's licences into the same sets survive
        // (its TBs are still running). Entries are kept (the paper
        // explicitly avoids flushing to preserve inter-TB reuse).
        let n = (self.groups() as u16).max(1);
        let pred = (tb_slot as u16 + n - 1) % n;
        if let Some(i) = self.share.iter().position(|s| s.asid == asid) {
            self.share[i].flags &= !(1 << (pred % 16));
            self.share[i].counters[(pred % 16) as usize] = 0;
            if self.share[i].flags == 0 && self.share[i].counters.iter().all(|&c| c == 0) {
                self.share.remove(i);
            }
        }
        // With the flag gone, the spiller can no longer reach entries it
        // parked outside its own group; hand those to each set's natural
        // owner so entry ownership keeps matching lookup reachability.
        // Only this app's entries are affected — a licence is keyed by
        // `(asid, tb)`, so other apps' parked entries stay licensed.
        // (When more than 16 TBs alias one flag bit, every aliasing owner
        // is covered.)
        for w in 0..self.ways.capacity() {
            let owner = self.ways.payload(w).owner;
            if !self.ways.is_valid(w)
                || self.ways.asid_of(w) != asid
                || u16::from(owner) % 16 != pred % 16
            {
                continue;
            }
            let set = self.set_of_way(w);
            if !self.group_of(owner).contains(&set) {
                self.ways.payload_mut(w).owner = self.home_tb(set);
            }
        }
    }

    fn set_concurrent_tbs(&mut self, tbs: u8) {
        let tbs = tbs.max(1);
        if tbs as usize != self.groups() {
            self.groups = Self::group_table(&self.cfg, tbs);
            self.struct_epoch += 1;
            self.memo.reset(self.groups());
            // Geometry changed: sharing relationships are stale, and set
            // groups moved under the resident entries — re-home everything
            // to its set's natural owner.
            self.share.clear();
            for w in 0..self.ways.capacity() {
                if self.ways.is_valid(w) {
                    self.ways.payload_mut(w).owner = self.home_tb(self.set_of_way(w));
                }
            }
        }
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        // A page may sit in two ways of one set: a victim parked below its
        // spill counter's threshold, or re-homed by a TB finish, is not
        // reachable by its TB, which refills it.
        let shift = self.degree_shift;
        self.ways
            .check(
                |_, _| false,
                |w, e| {
                    e.run.check(shift, self.ways.vpn_of(w))?;
                    self.check_placement(w, e.owner)
                },
            )
            .and_then(|()| self.check_registers())
            .map_err(|e| InvariantViolation::new("PartitionedTlb", e, self.dump_state()))
    }

    fn dump_state(&self) -> String {
        let mut s = self.ways.dump("PartitionedTlb", |s, _, e| {
            let _ = write!(s, "{} owner={}", e.run, e.owner);
        });
        let _ = writeln!(
            s,
            "  {:?}, concurrent_tbs={}, sharing_flags={:#018b} (union), spills={}",
            self.cfg.sharing,
            self.groups(),
            self.sharing_flags(),
            self.spills,
        );
        for sh in &self.share {
            let _ = writeln!(
                s,
                "  asid {:4}: flags={:#018b} spill_counters={:?}",
                sh.asid, sh.flags, sh.counters
            );
        }
        for tb in 0..self.groups().min(self.ways.sets()) as u8 {
            let _ = write!(s, "  tb {tb:2} owns sets {:?}", self.group_of(tb));
            if tb % 4 == 3 {
                s.push('\n');
            }
        }
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(vpn: u64, tb: u8) -> TlbRequest {
        TlbRequest::new(Vpn::new(vpn), tb)
    }

    fn tlb(sharing: bool) -> PartitionedTlb {
        let mut t = PartitionedTlb::new(PartitionedTlbConfig {
            geometry: TlbConfig::dac23_l1(),
            sharing: if sharing {
                SharingPolicy::Adjacent
            } else {
                SharingPolicy::None
            },
            per_set_lookup_overhead: true,
            displacement_margin: 512,
            compression: None,
        });
        t.set_concurrent_tbs(16);
        t
    }

    #[test]
    fn tb_partitions_are_isolated() {
        let mut t = tlb(false);
        t.insert(&req(100, 0), Ppn::new(1));
        assert!(t.lookup(&req(100, 0)).hit);
        // Same VPN from every other TB misses: disjoint sets.
        for tb in 1..16 {
            assert!(!t.lookup(&req(100, tb)).hit, "tb {tb}");
        }
    }

    #[test]
    fn full_vpn_tags_prevent_aliasing() {
        let mut t = tlb(false);
        // VPNs that would alias under index-bit selection coexist in one
        // TB's set (up to associativity).
        for i in 0..4u64 {
            t.insert(&req(16 * i, 5), Ppn::new(i));
        }
        for i in 0..4u64 {
            let out = t.lookup(&req(16 * i, 5));
            assert!(out.hit);
            assert_eq!(out.ppn, Some(Ppn::new(i)));
        }
    }

    #[test]
    fn per_tb_capacity_is_one_set_at_full_concurrency() {
        let mut t = tlb(false);
        // 16 TBs over 16 sets: TB 0 owns 4 ways. A 5th distinct page
        // evicts.
        for i in 0..5u64 {
            t.insert(&req(1000 + i, 0), Ppn::new(i));
        }
        let hits = (0..5u64)
            .filter(|&i| t.lookup(&req(1000 + i, 0)).hit)
            .count();
        assert_eq!(hits, 4);
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn sharing_spills_into_neighbour() {
        let mut t = tlb(true);
        // Fill TB 0's set (4 ways) and overflow: the victim moves to TB
        // 1's empty set instead of dying.
        for i in 0..5u64 {
            t.insert(&req(2000 + i, 0), Ppn::new(i));
        }
        assert_eq!(t.spills(), 1);
        assert_ne!(t.sharing_flags() & 1, 0, "TB 0's flag set");
        // All 5 translations still reachable by TB 0 (own + shared set).
        for i in 0..5u64 {
            assert!(t.lookup(&req(2000 + i, 0)).hit, "page {i}");
        }
        assert_eq!(t.stats().evictions, 0);
    }

    #[test]
    fn sharing_flag_reset_on_tb_finish() {
        let mut t = tlb(true);
        for i in 0..5u64 {
            t.insert(&req(2000 + i, 0), Ppn::new(i));
        }
        assert_ne!(t.sharing_flags(), 0);
        // Neighbour TB 1 finishing resets the flag into its sets.
        t.on_tb_finish(Asid::default(), 1);
        assert_eq!(t.sharing_flags() & 1, 0);
        // Entries are NOT flushed.
        assert!(t.occupancy() >= 4);
    }

    #[test]
    fn lookup_overhead_scales_with_group_size() {
        let mut t = tlb(false);
        // 4 concurrent TBs over 16 sets: 4 sets per TB -> 4x latency.
        t.set_concurrent_tbs(4);
        let out = t.lookup(&req(1, 0));
        assert_eq!(out.latency, 4);
        // 16 TBs -> 1 set -> 1x.
        t.set_concurrent_tbs(16);
        let out = t.lookup(&req(1, 0));
        assert_eq!(out.latency, 1);
    }

    #[test]
    fn no_overhead_mode() {
        let mut t = PartitionedTlb::new(PartitionedTlbConfig {
            geometry: TlbConfig::dac23_l1(),
            sharing: SharingPolicy::None,
            per_set_lookup_overhead: false,
            displacement_margin: 64,
            compression: None,
        });
        t.set_concurrent_tbs(2); // 8 sets per TB
        assert_eq!(t.lookup(&req(1, 0)).latency, 1);
    }

    #[test]
    fn more_tbs_than_sets_alias() {
        let mut t = PartitionedTlb::new(PartitionedTlbConfig::partition_only());
        t.set_concurrent_tbs(16);
        // Force the aliasing path with a tiny geometry: 4 sets, 16 TBs.
        let mut small = PartitionedTlb::new(PartitionedTlbConfig {
            geometry: TlbConfig::new(16, 4, 1),
            sharing: SharingPolicy::None,
            per_set_lookup_overhead: true,
            displacement_margin: 512,
            compression: None,
        });
        small.set_concurrent_tbs(16);
        small.insert(&req(42, 0), Ppn::new(9));
        // TB 4 aliases onto TB 0's set (4 % 4 == 0) and can see the entry.
        assert!(small.lookup(&req(42, 4)).hit);
        // TB 1 cannot.
        assert!(!small.lookup(&req(42, 1)).hit);
        drop(t);
    }

    #[test]
    fn sharing_preserved_capacity_beats_partition_only() {
        // Workload: TB 0 cycles through 8 pages; TB 1 idle. With sharing,
        // TB 0 effectively has 8 ways and stops thrashing.
        let run = |sharing: bool| -> f64 {
            let mut t = PartitionedTlb::new(PartitionedTlbConfig {
                geometry: TlbConfig::new(8, 4, 1), // 2 sets
                sharing: if sharing {
                    SharingPolicy::Adjacent
                } else {
                    SharingPolicy::None
                },
                per_set_lookup_overhead: true,
                displacement_margin: 512,
                compression: None,
            });
            t.set_concurrent_tbs(2);
            for _ in 0..20 {
                for p in 0..8u64 {
                    let r = req(p, 0);
                    if !t.lookup(&r).hit {
                        t.insert(&r, Ppn::new(p));
                    }
                }
            }
            t.stats().hit_rate()
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with > without + 0.3,
            "sharing {with:.2} should beat partition-only {without:.2}"
        );
    }

    #[test]
    fn compression_merges_contiguous_runs() {
        let mut t = PartitionedTlb::new(PartitionedTlbConfig {
            geometry: TlbConfig::dac23_l1(),
            sharing: SharingPolicy::Adjacent,
            per_set_lookup_overhead: true,
            displacement_margin: 64,
            compression: Some(CompressionConfig::pact20()),
        });
        t.set_concurrent_tbs(16);
        for i in 0..8u64 {
            t.insert(&req(i, 2), Ppn::new(100 + i));
        }
        assert_eq!(t.occupancy(), 1, "8 contiguous pages in one way");
        for i in 0..8u64 {
            let out = t.lookup(&req(i, 2));
            assert!(out.hit);
            assert_eq!(out.ppn, Some(Ppn::new(100 + i)));
            // +1 decompression cycle.
            assert_eq!(out.latency, 2);
        }
    }

    #[test]
    fn peek_sees_exactly_what_lookup_reaches_without_perturbing() {
        let mut t = tlb(true);
        for i in 0..5u64 {
            t.insert(&req(2000 + i, 0), Ppn::new(i));
        }
        t.reset_stats();
        // The spilled page is reachable through TB 0's engaged flag, and
        // invisible to TB 2 whose sets are elsewhere.
        for i in 0..5u64 {
            assert_eq!(
                t.peek(Asid::default(), Vpn::new(2000 + i), 0),
                Some(Ppn::new(i)),
                "page {i}"
            );
            assert_eq!(t.peek(Asid::default(), Vpn::new(2000 + i), 2), None);
        }
        assert_eq!(t.stats().accesses(), 0, "peek must not touch stats");
        assert_eq!(
            t.probe(&req(2000, 0)),
            Some(Some(Ppn::new(0))),
            "probe delegates to peek"
        );
    }

    #[test]
    fn flush_clears_everything() {
        let mut t = tlb(true);
        for i in 0..5u64 {
            t.insert(&req(i * 100, 0), Ppn::new(i));
        }
        t.flush();
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.sharing_flags(), 0);
    }

    #[test]
    fn remap_is_coherent() {
        let mut t = tlb(false);
        t.insert(&req(7, 3), Ppn::new(1));
        t.insert(&req(7, 3), Ppn::new(2));
        let out = t.lookup(&req(7, 3));
        assert!(out.hit);
        assert_eq!(out.ppn, Some(Ppn::new(2)));
    }

    fn counter_tlb(threshold: u8) -> PartitionedTlb {
        let mut t = PartitionedTlb::new(PartitionedTlbConfig {
            geometry: TlbConfig::new(8, 4, 1), // 2 sets x 4 ways
            sharing: SharingPolicy::AdjacentCounter { threshold },
            per_set_lookup_overhead: true,
            displacement_margin: 512,
            compression: None,
        });
        t.set_concurrent_tbs(2); // TB 0 owns set 0, TB 1 owns set 1
        t
    }

    #[test]
    fn adjacent_counter_engages_only_at_threshold() {
        let mut t = counter_tlb(3);
        // Fill TB 0's set, then overflow three times: each overflow spills
        // the LRU victim into TB 1's (empty) set and bumps the counter.
        for i in 0..5u64 {
            t.insert(&req(100 + i, 0), Ppn::new(i));
        }
        assert_eq!(t.spills(), 1);
        // One spill < threshold: the spilled page is parked in the
        // neighbour's set but TB 0's lookups do not search there yet.
        assert!(
            !t.lookup(&req(100, 0)).hit,
            "below threshold: not searchable"
        );
        t.check_invariants()
            .expect("parked entry is still licensed");
        t.insert(&req(105, 0), Ppn::new(5));
        assert_eq!(t.spills(), 2);
        assert!(!t.lookup(&req(101, 0)).hit, "still below threshold");
        t.insert(&req(106, 0), Ppn::new(6));
        assert_eq!(t.spills(), 3);
        // Third spill reaches the threshold: the flag engages and all
        // parked pages become reachable again.
        assert!(
            t.lookup(&req(100, 0)).hit,
            "threshold reached: neighbour searched"
        );
        assert!(t.lookup(&req(101, 0)).hit);
        assert!(t.lookup(&req(102, 0)).hit);
        t.check_invariants()
            .expect("engaged sharing keeps invariants");
    }

    #[test]
    fn adjacent_counter_disengages_when_neighbour_finishes() {
        let mut t = counter_tlb(2);
        for i in 0..6u64 {
            t.insert(&req(200 + i, 0), Ppn::new(i));
        }
        assert!(t.spills() >= 2);
        assert!(t.lookup(&req(200, 0)).hit, "engaged before TB finish");
        // TB 1 finishing resets its predecessor's (TB 0's) counter and
        // flag: sharing disengages and the parked pages go dark for TB 0.
        t.on_tb_finish(Asid::default(), 1);
        assert_eq!(t.sharing_flags() & 1, 0);
        assert!(!t.lookup(&req(200, 0)).hit, "disengaged after TB finish");
        // The parked entries were adopted by the set's natural owner, so
        // the ownership invariant still holds.
        t.check_invariants().expect("adoption keeps invariants");
        // TB 1 itself can now hit the adopted entries in its own set.
        assert!(
            t.lookup(&req(200, 1)).hit,
            "neighbour inherits parked entry"
        );
    }

    fn all_to_all_tlb() -> PartitionedTlb {
        let mut t = PartitionedTlb::new(PartitionedTlbConfig {
            geometry: TlbConfig::new(16, 4, 1), // 4 sets x 4 ways
            sharing: SharingPolicy::AllToAll,
            per_set_lookup_overhead: true,
            displacement_margin: 512,
            compression: None,
        });
        t.set_concurrent_tbs(4);
        t
    }

    #[test]
    fn all_to_all_spills_anywhere_and_probes_every_set() {
        let mut t = all_to_all_tlb();
        // TB 0 owns 4 ways but streams 12 distinct pages: the 8 overflow
        // victims spill into the other TBs' sets instead of dying.
        for i in 0..12u64 {
            t.insert(&req(300 + i, 0), Ppn::new(i));
            t.check_invariants().expect("spill placement is licensed");
        }
        assert_eq!(t.spills(), 8);
        assert_eq!(t.occupancy(), 12);
        assert_eq!(t.stats().evictions, 0);
        for i in 0..12u64 {
            let out = t.lookup(&req(300 + i, 0));
            assert!(out.hit, "page {i}");
            // The cost of all-to-all: every lookup probes all 4 sets.
            assert_eq!(out.latency, 4);
        }
        // Spilled entries landed outside TB 0's single-set group.
        let own: Vec<usize> = t.group_of(0).collect();
        let foreign = (0..t.ways.sets())
            .filter(|s| !own.contains(s))
            .flat_map(|s| t.ways.set(s))
            .filter(|&w| t.ways.is_valid(w))
            .count();
        assert_eq!(foreign, 8);
    }

    #[test]
    fn all_to_all_respects_displacement_margin() {
        let mut t = all_to_all_tlb();
        // Fill the whole TLB with recently-used entries from all TBs.
        for tb in 0..4u8 {
            for i in 0..4u64 {
                t.insert(&req(1000 + u64::from(tb) * 16 + i, tb), Ppn::new(i));
            }
        }
        assert_eq!(t.occupancy(), 16);
        let spills_before = t.spills();
        // TB 0 overflows, but every foreign entry is fresher than the
        // margin: the victim must die in place, not displace a neighbour.
        t.insert(&req(2000, 0), Ppn::new(99));
        assert_eq!(t.spills(), spills_before);
        assert_eq!(t.stats().evictions, 1);
        t.check_invariants()
            .expect("margin-blocked spill keeps invariants");
    }

    #[test]
    fn corrupted_owner_is_caught_with_state_dump() {
        let mut t = tlb(true);
        t.insert(&req(500, 2), Ppn::new(1));
        let w = (0..t.ways.capacity())
            .find(|&w| t.ways.is_valid(w))
            .unwrap();
        // Deliberate corruption: claim the entry belongs to TB 9, whose
        // group is elsewhere and whose sharing flag is clear.
        t.ways.payload_mut(w).owner = 9;
        let v = t.check_invariants().unwrap_err();
        assert!(v.detail.contains("owned by TB 9"), "{}", v.detail);
        assert!(
            v.dump.contains("sharing_flags"),
            "dump lacks flags:\n{}",
            v.dump
        );
        assert!(v.dump.contains("owner=9"), "dump lacks entry:\n{}", v.dump);
    }

    /// Two sets of four ways, two TBs, adjacent sharing with a short
    /// margin, and every way valid.
    fn full_two_set_tlb() -> PartitionedTlb {
        let mut t = PartitionedTlb::new(PartitionedTlbConfig {
            geometry: TlbConfig::new(8, 4, 1),
            sharing: SharingPolicy::Adjacent,
            per_set_lookup_overhead: true,
            displacement_margin: 4,
            compression: None,
        });
        t.set_concurrent_tbs(2);
        // TB 1 fills its set and goes idle; TB 0 fills the other.
        for i in 0..4u64 {
            t.insert(&req(100 + i, 1), Ppn::new(i));
        }
        for i in 0..4u64 {
            t.insert(&req(200 + i, 0), Ppn::new(i));
        }
        assert_eq!(t.occupancy(), 8);
        t
    }

    #[test]
    fn full_tlb_still_displaces_idle_neighbours() {
        let mut t = full_two_set_tlb();
        // Each of TB 0's victims is newer than TB 1's idle entries by
        // more than the margin, so a full TLB must still spill.
        for i in 0..8u64 {
            t.insert(&req(300 + i, 0), Ppn::new(i));
            t.check_invariants().expect("displacing fills");
        }
        // TB 1's four idle entries go first, then two of TB 0's own
        // parked victims once they have aged past the margin.
        assert_eq!(t.spills(), 6);
        assert_eq!(t.stats().evictions, 8);
    }

    #[test]
    fn miss_hint_covers_only_the_fill_right_after_the_miss() {
        let mut t = tlb(true);
        assert!(!t.lookup(&req(42, 3)).hit);
        let hint = t.miss.expect("a walk miss arms the hint");
        assert_eq!((hint.vpn, hint.tb), (Vpn::new(42), 3));
        // Another TB's fill of the same page neither uses nor stales
        // the hint; the structural change it makes does.
        t.insert(&req(42, 4), Ppn::new(7));
        assert_ne!(t.miss.unwrap().epoch, t.struct_epoch);
        t.insert(&req(42, 3), Ppn::new(7));
        assert_eq!(t.occupancy(), 2, "each TB holds its own copy");
        assert_eq!(t.peek(Asid::default(), Vpn::new(42), 3), Some(Ppn::new(7)));
        t.check_invariants().expect("hint-free fills");
        // A hint that claims a resident page is absent is reported.
        t.miss = Some(MissHint {
            epoch: t.struct_epoch,
            ..hint
        });
        let v = t.check_invariants().unwrap_err();
        assert!(v.detail.contains("live miss hint"), "{}", v.detail);
    }

    #[test]
    fn invariants_hold_through_mixed_sharing_workload() {
        for sharing in [
            SharingPolicy::None,
            SharingPolicy::Adjacent,
            SharingPolicy::AdjacentCounter { threshold: 2 },
            SharingPolicy::AllToAll,
        ] {
            let mut t = PartitionedTlb::new(PartitionedTlbConfig {
                geometry: TlbConfig::new(16, 2, 1), // 8 sets x 2 ways
                sharing,
                per_set_lookup_overhead: true,
                displacement_margin: 8,
                compression: None,
            });
            t.set_concurrent_tbs(8);
            for step in 0..200u64 {
                let tb = (step % 8) as u8;
                let r = req(step * 7 % 31, tb);
                if !t.lookup(&r).hit {
                    t.insert(&r, Ppn::new(r.vpn.raw() + 1000));
                }
                if step % 37 == 0 {
                    t.on_tb_finish(Asid::default(), tb);
                }
                if let Err(v) = t.check_invariants() {
                    panic!("{sharing:?} step {step}: {v}");
                }
            }
        }
    }

    #[test]
    fn concurrency_change_resets_flags_keeps_entries() {
        let mut t = tlb(true);
        for i in 0..5u64 {
            t.insert(&req(3000 + i, 0), Ppn::new(i));
        }
        assert_ne!(t.sharing_flags(), 0);
        let occ = t.occupancy();
        t.set_concurrent_tbs(8);
        assert_eq!(t.sharing_flags(), 0);
        assert_eq!(t.occupancy(), occ);
    }

    #[test]
    fn fastpath_serves_repeated_hits_and_epoch_guard_invalidates() {
        let mut t = tlb(true);
        t.insert(&req(42, 0), Ppn::new(7));
        // First lookup walks the sets and arms the memo; the next four
        // ride it. Outcomes are identical either way.
        for i in 0..5 {
            let out = t.lookup(&req(42, 0));
            assert!(out.hit);
            assert_eq!(out.ppn, Some(Ppn::new(7)));
            assert_eq!(out.latency, 1);
            assert_eq!(t.fastpath_hits(), i.max(1) as u64 - u64::from(i == 0));
        }
        assert_eq!(t.fastpath_hits(), 4);
        t.check_invariants().expect("armed memo keeps invariants");
        // Any structural mutation bumps the epoch: the next lookup walks
        // again (and re-arms).
        t.insert(&req(43, 0), Ppn::new(8));
        assert!(t.lookup(&req(42, 0)).hit);
        assert_eq!(
            t.fastpath_hits(),
            4,
            "post-insert lookup took the slow path"
        );
        assert!(t.lookup(&req(42, 0)).hit);
        assert_eq!(t.fastpath_hits(), 5, "slow path re-armed the memo");
        // TB lifecycle events invalidate too (sharing flags may change the
        // probe count).
        t.on_tb_finish(Asid::default(), 1);
        assert!(t.lookup(&req(42, 0)).hit);
        assert_eq!(t.fastpath_hits(), 5);
        // The memo is per TB slot: TB 1 probing its own sets never sees
        // TB 0's memo.
        assert!(!t.lookup(&req(42, 1)).hit);
        assert_eq!(t.fastpath_hits(), 5);
    }

    fn areq(asid: u16, vpn: u64, tb: u8) -> TlbRequest {
        TlbRequest::new(Vpn::new(vpn), tb).with_asid(Asid::new(asid))
    }

    #[test]
    fn asid_is_part_of_the_tag() {
        let mut t = tlb(true);
        t.insert(&areq(1, 700, 0), Ppn::new(11));
        t.insert(&areq(2, 700, 0), Ppn::new(22));
        // Same VPN, same TB slot: each app sees only its own frame.
        assert_eq!(t.lookup(&areq(1, 700, 0)).ppn, Some(Ppn::new(11)));
        assert_eq!(t.lookup(&areq(2, 700, 0)).ppn, Some(Ppn::new(22)));
        assert_eq!(t.peek(Asid::new(3), Vpn::new(700), 0), None);
        t.check_invariants().expect("two apps coexist in one set");
    }

    #[test]
    fn fastpath_memo_never_serves_another_asid() {
        let mut t = tlb(true);
        t.insert(&areq(1, 900, 0), Ppn::new(5));
        assert!(t.lookup(&areq(1, 900, 0)).hit); // arms the memo for asid 1
        let before = t.fastpath_hits();
        // App 2 probing the same (vpn, tb) must take the slow path and
        // miss — the armed memo belongs to app 1.
        assert!(!t.lookup(&areq(2, 900, 0)).hit);
        assert_eq!(t.fastpath_hits(), before, "memo must not cross ASIDs");
    }

    #[test]
    fn cross_app_victims_are_never_spill_rescued() {
        let mut t = tlb(true);
        // App 1 fills TB 0's set (4 ways at 16-TB concurrency)...
        for i in 0..4u64 {
            t.insert(&areq(1, 100 + i, 0), Ppn::new(i));
        }
        // ...then app 2 overflows the same slot. The LRU victim belongs
        // to app 1, so rescue is forbidden: it dies in place, no flag is
        // set for either app, and the eviction is charged to app 1.
        t.insert(&areq(2, 500, 0), Ppn::new(99));
        assert_eq!(t.spills(), 0, "cross-app rescue must not happen");
        assert_eq!(t.sharing_flags(), 0);
        assert_eq!(t.stats().evictions, 1);
        let by_asid = t.stats_by_asid();
        let of = |a: u16| {
            by_asid
                .iter()
                .find(|(asid, _)| *asid == Asid::new(a))
                .map(|(_, s)| *s)
                .unwrap_or_default()
        };
        assert_eq!(of(1).evictions, 1, "victim's app is charged");
        assert_eq!(of(2).evictions, 0);
        assert_eq!(of(2).insertions, 1);
        t.check_invariants()
            .expect("cross-app eviction keeps invariants");
    }

    #[test]
    fn sharing_flags_are_keyed_by_asid_and_tb() {
        let mut t = tlb(true);
        // App 1 overflows TB 0 into its neighbour: only app 1's word has
        // the flag, so only app 1's lookups gain the neighbour's sets.
        for i in 0..5u64 {
            t.insert(&areq(1, 2000 + i, 0), Ppn::new(i));
        }
        assert_ne!(t.sharing_flags_of(Asid::new(1)) & 1, 0);
        assert_eq!(t.sharing_flags_of(Asid::new(2)), 0);
        for i in 0..5u64 {
            assert!(t.lookup(&areq(1, 2000 + i, 0)).hit, "page {i}");
        }
        // App 2's TB 1 finishing must not release app 1's licence...
        t.on_tb_finish(Asid::new(2), 1);
        assert_ne!(t.sharing_flags_of(Asid::new(1)) & 1, 0);
        assert!(t.lookup(&areq(1, 2000, 0)).hit, "licence survives");
        // ...but app 1's own TB 1 finishing does.
        t.on_tb_finish(Asid::new(1), 1);
        assert_eq!(t.sharing_flags_of(Asid::new(1)), 0);
        t.check_invariants()
            .expect("adoption after per-app flag reset keeps invariants");
    }

    #[test]
    fn per_asid_stats_sum_to_aggregate_under_mixed_traffic() {
        let mut t = tlb(true);
        for step in 0..300u64 {
            let asid = (step % 3) as u16;
            let tb = (step % 16) as u8;
            let r = areq(asid, step * 11 % 40, tb);
            if !t.lookup(&r).hit {
                t.insert(&r, Ppn::new(step + 1));
            }
            if step % 41 == 0 {
                t.on_tb_finish(Asid::new(asid), tb);
            }
            if let Err(v) = t.check_invariants() {
                panic!("step {step}: {v}");
            }
        }
        let sum = t
            .stats_by_asid()
            .iter()
            .fold(TlbStats::default(), |a, (_, s)| a + *s);
        assert_eq!(sum, t.stats());
        assert!(t.stats_by_asid().len() >= 3, "all three apps recorded");
    }

    /// Set group of TB `tb` as the formula in the module docs states it,
    /// computed from scratch (the reference for the precomputed table).
    fn reference_group(sets: usize, n: usize, tb: usize) -> Vec<usize> {
        if n >= sets {
            vec![tb % sets]
        } else {
            ((tb * sets / n)..((tb + 1) * sets / n)).collect()
        }
    }

    /// Reference probe list: own group, plus the neighbour's when the
    /// flag is engaged, sorted and deduplicated.
    fn reference_searchable(t: &PartitionedTlb, asid: Asid, tb: u8) -> Vec<usize> {
        let sets = t.cfg.geometry.sets();
        let n = t.groups();
        if t.cfg.sharing == SharingPolicy::AllToAll {
            return (0..sets).collect();
        }
        let mut v = reference_group(sets, n, tb as usize);
        if t.flag_engaged(asid, tb) {
            v.extend(reference_group(sets, n, (tb as usize + 1) % n));
            v.sort_unstable();
            v.dedup();
        }
        v
    }

    /// Reference spill candidates: every set outside the own group under
    /// all-to-all, else the neighbour's group.
    fn reference_spill_sets(t: &PartitionedTlb, tb: u8) -> Vec<usize> {
        let sets = t.cfg.geometry.sets();
        let n = t.groups();
        let own = reference_group(sets, n, tb as usize);
        if t.cfg.sharing == SharingPolicy::AllToAll {
            (0..sets).filter(|s| !own.contains(s)).collect()
        } else {
            reference_group(sets, n, (tb as usize + 1) % n)
        }
    }

    /// Checks one geometry/policy/concurrency combination: the group
    /// table, the probe span (flag engaged and not), the spill span and
    /// its way order, and the fill's candidate set all match the
    /// reference construction.
    fn check_set_selection(geometry: TlbConfig, sharing: SharingPolicy, n: u8, compressed: bool) {
        let mut t = PartitionedTlb::new(PartitionedTlbConfig {
            geometry,
            sharing,
            per_set_lookup_overhead: true,
            displacement_margin: 512,
            compression: compressed.then(CompressionConfig::pact20),
        });
        t.set_concurrent_tbs(n);
        let sets = geometry.sets();
        for raw in 0..=255u8 {
            assert_eq!(t.norm_slot(raw), raw % n);
        }
        // Slots beyond the table (only a corrupted owner) still resolve.
        for tb in 0..=40u8 {
            let want = reference_group(sets, n as usize, tb as usize);
            assert_eq!(t.group_of(tb).collect::<Vec<_>>(), want, "group of TB {tb}");
        }
        let asid = Asid::new(3);
        let vpns = (0..64u64).chain([255, 256, 1_000_003, u64::MAX >> 12, u64::MAX]);
        for tb in 0..n {
            for engaged in [false, true] {
                let s = t.share_mut(asid);
                let bit = 1 << (tb % 16);
                s.flags = (s.flags & !bit) | if engaged { bit } else { 0 };
                s.counters[tb as usize % 16] = if engaged { 2 } else { 0 };
                let ctx = format!("{geometry:?} {sharing:?} n={n} tb={tb} engaged={engaged}");
                let licensed = match sharing {
                    SharingPolicy::None => false,
                    SharingPolicy::AllToAll => true,
                    _ => engaged,
                };
                assert_eq!(t.flag_engaged(asid, tb), licensed, "{ctx}");
                let span = t.searchable_sets(asid, tb);
                let want = reference_searchable(&t, asid, tb);
                assert_eq!(span.iter().collect::<Vec<_>>(), want, "{ctx}");
                assert_eq!(span.len(), want.len(), "{ctx}");
                let spill = t.spill_sets(tb);
                let want = reference_spill_sets(&t, tb);
                assert_eq!(spill.iter().collect::<Vec<_>>(), want, "{ctx}");
                let want: Vec<usize> = want.iter().flat_map(|&s| t.ways.set(s)).collect();
                assert_eq!(t.ways_of_span(&spill).collect::<Vec<_>>(), want, "{ctx}");
            }
            let own = reference_group(sets, n as usize, tb as usize);
            for v in vpns.clone() {
                let want = own[((v / (1 << t.degree_shift)) % own.len() as u64) as usize];
                let got = t.candidate_set(&t.group_of(tb), Vpn::new(v));
                assert_eq!(got, want, "n={n} tb={tb} vpn {v:#x}");
            }
        }
    }

    #[test]
    fn set_selection_matches_reference_construction() {
        let policies = [
            SharingPolicy::None,
            SharingPolicy::Adjacent,
            SharingPolicy::AdjacentCounter { threshold: 2 },
            SharingPolicy::AllToAll,
        ];
        let mut aliased = 0;
        for entries in [16usize, 64, 256] {
            for assoc in [1usize, 2, 4] {
                let geometry = TlbConfig::new(entries, assoc, 1);
                for sharing in policies {
                    for n in 1..=32u8 {
                        aliased += usize::from(n as usize >= geometry.sets());
                        for compressed in [false, true] {
                            check_set_selection(geometry, sharing, n, compressed);
                        }
                    }
                }
            }
        }
        assert!(aliased > 0, "the sweep covers TBs aliasing onto sets");
    }
}
