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

use std::fmt::Write as _;
use tlb::{
    CompressionConfig, InvariantViolation, PerAsidStats, TlbConfig, TlbOutcome, TlbRequest,
    TlbStats, TranslationBuffer,
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

/// Per-TB-slot record of the last slow-path lookup hit. The memo is only
/// trusted while `epoch` still equals the TLB's `struct_epoch`: every
/// operation that can change *anything* a tag walk observes — residency,
/// sharing flags, spill counters, set groups — bumps the epoch, so a
/// matching memo proves the walk would find the same way with the same
/// probe count. Purely a host-side accelerator; never architectural.
#[derive(Copy, Clone, Debug)]
struct LookupMemo {
    /// Address space the memo was armed for; a slot re-used by another
    /// app must never replay a stale memo.
    asid: Asid,
    vpn: Vpn,
    way: u32,
    /// `searchable_sets(asid, tb).len()` at memo time (reproduces the
    /// multi-set probe latency without recomputing the set list).
    sets_probed: u32,
    /// `struct_epoch` at memo time; 0 never matches (epochs start at 1).
    epoch: u64,
}

impl LookupMemo {
    fn invalid() -> Self {
        LookupMemo {
            asid: Asid::default(),
            vpn: Vpn::new(0),
            way: 0,
            sets_probed: 0,
            epoch: 0,
        }
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

#[derive(Copy, Clone, Debug, Default)]
struct Way {
    valid: bool,
    /// Address space this translation belongs to; included in the tag
    /// compare so co-running apps never hit each other's entries.
    asid: Asid,
    /// Run base VPN (the full VPN itself when compression is off).
    base_vpn: Vpn,
    /// PPN of the run's base page (or the literal PPN, see `literal`).
    base_ppn: Ppn,
    /// Valid pages within the run (bit 0 alone when compression is off).
    mask: u32,
    /// Entry holds exactly one translation whose PPN is `base_ppn`
    /// verbatim (PPN not expressible as run base + offset).
    literal: bool,
    stamp: u64,
    /// TB slot responsible for this entry's placement: the inserting TB,
    /// the spilling TB for rescued victims, or the set's natural owner
    /// after adoption (see `on_tb_finish`). The sanitizer checks that
    /// every entry sits inside its owner's set group unless the owner's
    /// sharing flag licenses the neighbour placement.
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
    ways: Vec<Way>,
    concurrent_tbs: u8,
    /// Per-app sharing registers, sorted by ASID (see [`ShareState`]).
    share: Vec<ShareState>,
    clock: u64,
    stats: TlbStats,
    /// Per-app stats; evictions are attributed to the victim's ASID,
    /// everything else to the requester's. Sums to `stats`.
    per_asid: PerAsidStats,
    /// Victims rescued into a neighbour's way.
    spills: u64,
    /// Bumped by every structural mutation (insert, flush, TB lifecycle);
    /// guards the per-TB lookup memos. Starts at 1 so the all-zero
    /// [`LookupMemo::invalid`] never matches.
    struct_epoch: u64,
    /// Last slow-path hit per TB slot (index = normalized slot).
    memo: Vec<LookupMemo>,
    /// Lookups served by the memo fast path.
    fastpath: u64,
    /// Fast path enable (the differential twin runs with it off).
    fastpath_on: bool,
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
            ways: vec![Way::default(); cfg.geometry.entries],
            cfg,
            concurrent_tbs: 16,
            share: Vec::new(),
            clock: 0,
            stats: TlbStats::default(),
            per_asid: PerAsidStats::default(),
            spills: 0,
            struct_epoch: 1,
            memo: vec![LookupMemo::invalid(); 16],
            fastpath: 0,
            fastpath_on: true,
        }
    }

    /// Enables or disables the exact MRU lookup fast path (on by default;
    /// the differential proptest drives a disabled twin to prove the two
    /// paths are bit-identical).
    pub fn set_fastpath(&mut self, on: bool) {
        self.fastpath_on = on;
    }

    /// The configuration in use.
    pub fn config(&self) -> &PartitionedTlbConfig {
        &self.cfg
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
        self.ways.iter().filter(|w| w.valid).count()
    }

    /// Probes for `vpn` as app `asid`'s TB `tb_slot` would, without
    /// updating stats, stamps, or sharing state (diagnostics; the
    /// differential harness uses it to compare resident contents against
    /// the oracle).
    pub fn peek(&self, asid: Asid, vpn: Vpn, tb_slot: u8) -> Option<Ppn> {
        let tb = self.norm_slot(tb_slot);
        let sets = self.searchable_sets(asid, tb);
        self.find(asid, &sets, vpn).map(|w| {
            let way = &self.ways[w];
            if way.literal {
                way.base_ppn
            } else {
                Ppn::new(way.base_ppn.raw() + self.run_offset(vpn) as u64)
            }
        })
    }

    fn degree(&self) -> u64 {
        self.cfg.compression.map(|c| c.degree as u64).unwrap_or(1)
    }

    fn run_base(&self, vpn: Vpn) -> Vpn {
        Vpn::new(vpn.raw() & !(self.degree() - 1))
    }

    fn run_offset(&self, vpn: Vpn) -> u32 {
        // simlint: allow(lossy-cast, reason = "masked to the compression degree (<= 32) before the cast")
        (vpn.raw() & (self.degree() - 1)) as u32
    }

    fn groups(&self) -> usize {
        self.concurrent_tbs.max(1) as usize
    }

    /// Folds a hardware slot id onto the live TB groups. The engine only
    /// issues slots in `0..concurrent_tbs`, but the TLB is also driven
    /// directly (tests, sanitizer reproducers); an out-of-range id aliases
    /// onto the groups — mirroring the footnote-1 `tb % sets` aliasing —
    /// instead of indexing past the geometry.
    fn norm_slot(&self, tb: u8) -> u8 {
        (tb as usize % self.groups()) as u8
    }

    /// The sets owned by TB `tb` under the current concurrency.
    fn group_of(&self, tb: u8) -> std::ops::Range<usize> {
        let sets = self.cfg.geometry.sets();
        let n = self.groups();
        let tb = tb as usize;
        if n >= sets {
            // More TBs than sets: TBs alias onto single sets (footnote 1).
            let s = tb % sets;
            s..s + 1
        } else {
            (tb * sets / n)..((tb + 1) * sets / n)
        }
    }

    fn ways_of_set(&self, set: usize) -> std::ops::Range<usize> {
        let a = self.cfg.geometry.associativity;
        set * a..(set + 1) * a
    }

    /// The TB slot that naturally owns `set` under the current concurrency
    /// (the smallest slot whose group contains it). Used when re-homing
    /// entries whose placing TB can no longer reach them.
    fn home_tb(&self, set: usize) -> u8 {
        let sets = self.cfg.geometry.sets();
        let n = self.groups();
        if n >= sets {
            set as u8
        } else {
            (0..n as u8)
                .find(|&tb| self.group_of(tb).contains(&set))
                .unwrap_or(0)
        }
    }

    /// Whether app `asid`'s flag for TB `tb` is currently engaged.
    fn flag_engaged(&self, asid: Asid, tb: u8) -> bool {
        let s = self.share_of(asid);
        let bit = s.map_or(0, |s| s.flags) & (1 << (tb as u16 % 16)) != 0;
        match self.cfg.sharing {
            SharingPolicy::None => false,
            SharingPolicy::Adjacent => bit,
            SharingPolicy::AdjacentCounter { threshold } => {
                s.map_or(0, |s| s.counters[tb as usize % 16]) >= threshold
            }
            SharingPolicy::AllToAll => true,
        }
    }

    /// Sets probed by a lookup from app `asid`'s TB `tb`: its own group,
    /// plus the neighbour's when this app's sharing flag is engaged (or
    /// every set under all-to-all sharing).
    fn searchable_sets(&self, asid: Asid, tb: u8) -> Vec<usize> {
        if self.cfg.sharing == SharingPolicy::AllToAll {
            return (0..self.cfg.geometry.sets()).collect();
        }
        let mut sets: Vec<usize> = self.group_of(tb).collect();
        if self.flag_engaged(asid, tb) {
            let neighbour = ((tb as usize + 1) % self.groups()) as u8;
            sets.extend(self.group_of(neighbour));
            sets.sort_unstable();
            sets.dedup();
        }
        sets
    }

    fn lookup_latency(&self, sets_probed: usize, compressed_hit: bool) -> u64 {
        let base = self.cfg.geometry.lookup_latency;
        let probe = if self.cfg.per_set_lookup_overhead {
            base * sets_probed.max(1) as u64
        } else {
            base
        };
        probe
            + if compressed_hit {
                self.cfg
                    .compression
                    .map(|c| c.decompress_latency)
                    .unwrap_or(0)
            } else {
                0
            }
    }

    /// Finds the way holding app `asid`'s translation of `vpn` among
    /// `sets`. The ASID is part of the tag compare: another app's entry
    /// for the same VPN never matches.
    fn find(&self, asid: Asid, sets: &[usize], vpn: Vpn) -> Option<usize> {
        let base = self.run_base(vpn);
        let off = self.run_offset(vpn);
        for &set in sets {
            for w in self.ways_of_set(set) {
                let way = &self.ways[w];
                if way.valid
                    && way.asid == asid
                    && way.base_vpn == base
                    && way.mask & (1 << off) != 0
                {
                    return Some(w);
                }
            }
        }
        None
    }

    /// Places a fully-built entry for `req`'s TB: an empty way in the
    /// candidate set (then anywhere in the group), else evict the
    /// candidate set's LRU way — first trying to rescue the victim into a
    /// neighbour's sets (dynamic sharing, Figure 9). Everything here is
    /// payload-independent: the inserted PPN travels inside `way` but is
    /// never inspected.
    fn place(&mut self, req: &TlbRequest, way: Way) {
        // Candidate set inside the TB's own group, sub-indexed by VPN so
        // runs spread across a multi-set group. The modulo happens in u64
        // *before* narrowing so the chosen set is identical on 32-bit
        // targets.
        let own: Vec<usize> = self.group_of(req.tb_slot).collect();
        let candidate = own[((req.vpn.raw() / self.degree()) % own.len() as u64) as usize];
        // 1. An invalid way in the candidate set, then anywhere in the
        //    group.
        let empty = self
            .ways_of_set(candidate)
            .find(|&w| !self.ways[w].valid)
            .or_else(|| {
                own.iter()
                    .flat_map(|&s| self.ways_of_set(s))
                    .find(|&w| !self.ways[w].valid)
            });
        if let Some(w) = empty {
            self.ways[w] = way;
            return;
        }
        // 2. Evict the LRU way of the candidate set...
        let victim = self
            .ways_of_set(candidate)
            .min_by_key(|&w| self.ways[w].stamp)
            .expect("associativity is non-zero"); // simlint: allow(hot-unwrap, reason = "TlbConfig validates associativity > 0 at construction")
        // ...but first try to rescue it into another TB's sets (dynamic
        // sharing, Figure 9): an empty way if one exists, otherwise a way
        // holding an entry *older* than the victim — the paper's "balance
        // the number of translations across multiple sets" between
        // oversubscribed and under-used neighbours. Rescue is gated on the
        // victim belonging to the spilling app: the licence it would be
        // placed under is `(req.asid, req.tb_slot)`, and another app's
        // lookups never consult that flag, so a cross-app rescue would be
        // permanently unreachable. Cross-app victims die in place instead.
        if self.cfg.sharing.spills() && self.ways[victim].asid == req.asid {
            // Adjacent policies spill into the next TB's group; all-to-all
            // may spill anywhere outside the own group.
            let candidate_sets: Vec<usize> = if self.cfg.sharing == SharingPolicy::AllToAll {
                (0..self.cfg.geometry.sets())
                    .filter(|s| !own.contains(s))
                    .collect()
            } else {
                let neighbour = ((req.tb_slot as usize + 1) % self.groups()) as u8;
                self.group_of(neighbour).collect()
            };
            let slot = candidate_sets
                .iter()
                .flat_map(|&s| self.ways_of_set(s))
                .min_by_key(|&w| (self.ways[w].valid, self.ways[w].stamp));
            let displaceable = slot.is_some_and(|w| {
                !self.ways[w].valid
                    || self.ways[w]
                        .stamp
                        .saturating_add(self.cfg.displacement_margin)
                        < self.ways[victim].stamp
            });
            if displaceable {
                let w = slot.expect("checked by displaceable"); // simlint: allow(hot-unwrap, reason = "displaceable is only true when slot is Some")
                if self.ways[w].valid {
                    let victim_asid = self.ways[w].asid;
                    self.stats.evictions += 1;
                    self.per_asid.entry(victim_asid).evictions += 1;
                }
                self.ways[w] = self.ways[victim];
                // The rescued entry is now placed under the spiller's
                // `(asid, tb)` sharing licence, not wherever its previous
                // owner could reach.
                self.ways[w].owner = req.tb_slot;
                let tb = req.tb_slot;
                let s = self.share_mut(req.asid);
                s.flags |= 1 << (tb as u16 % 16);
                s.counters[tb as usize % 16] = s.counters[tb as usize % 16].saturating_add(1);
                self.spills += 1;
            } else {
                let victim_asid = self.ways[victim].asid;
                self.stats.evictions += 1;
                self.per_asid.entry(victim_asid).evictions += 1;
            }
        } else {
            let victim_asid = self.ways[victim].asid;
            self.stats.evictions += 1;
            self.per_asid.entry(victim_asid).evictions += 1;
        }
        self.ways[victim] = way;
    }
}

impl TranslationBuffer for PartitionedTlb {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        let req = &TlbRequest {
            tb_slot: self.norm_slot(req.tb_slot),
            ..*req
        };
        self.clock += 1;
        let tb = req.tb_slot as usize;
        if self.fastpath_on {
            let m = self.memo[tb];
            if m.epoch == self.struct_epoch && m.asid == req.asid && m.vpn == req.vpn {
                // Nothing structural changed since the slow path hit this
                // VPN for this TB: the tag walk would find the same way
                // after probing the same set list. Replay the identical
                // bookkeeping (LRU touch, stats, latency, PPN decode) and
                // skip the walk. The PPN is re-read from the way below, so
                // an in-place refresh is observed exactly as the slow path
                // would observe it.
                let w = m.way as usize;
                let compressed = self.ways[w].mask.count_ones() > 1;
                let latency = self.lookup_latency(m.sets_probed as usize, compressed);
                self.ways[w].stamp = self.clock;
                let way = &self.ways[w];
                let off = self.run_offset(req.vpn);
                let ppn = if way.literal {
                    way.base_ppn
                } else {
                    Ppn::new(way.base_ppn.raw() + off as u64)
                };
                self.stats.record(true);
                self.per_asid.entry(req.asid).record(true);
                self.fastpath += 1;
                return TlbOutcome::hit(ppn, latency);
            }
        }
        let sets = self.searchable_sets(req.asid, req.tb_slot);
        match self.find(req.asid, &sets, req.vpn) {
            Some(w) => {
                let compressed = self.ways[w].mask.count_ones() > 1;
                let latency = self.lookup_latency(sets.len(), compressed);
                self.ways[w].stamp = self.clock;
                let way = &self.ways[w];
                let off = self.run_offset(req.vpn);
                let ppn = if way.literal {
                    way.base_ppn
                } else {
                    Ppn::new(way.base_ppn.raw() + off as u64)
                };
                self.stats.record(true);
                self.per_asid.entry(req.asid).record(true);
                self.memo[tb] = LookupMemo {
                    asid: req.asid,
                    vpn: req.vpn,
                    way: w as u32,
                    sets_probed: sets.len() as u32,
                    epoch: self.struct_epoch,
                };
                TlbOutcome::hit(ppn, latency)
            }
            None => {
                self.stats.record(false);
                self.per_asid.entry(req.asid).record(false);
                TlbOutcome::miss(self.lookup_latency(sets.len(), false))
            }
        }
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        let req = &TlbRequest {
            tb_slot: self.norm_slot(req.tb_slot),
            ..*req
        };
        self.clock += 1;
        self.struct_epoch += 1;
        let clock = self.clock;
        let base = self.run_base(req.vpn);
        let off = self.run_offset(req.vpn);
        let searchable = self.searchable_sets(req.asid, req.tb_slot);

        if self.cfg.compression.is_some() {
            // Compressed runs are payload-dependent: the base-delta
            // predicate compares the PPN against run bases.
            //
            // Refresh in place if the translation is already reachable
            // (and coherent-remap any stale run bit).
            let expected_base_ppn = ppn.raw().checked_sub(off as u64);
            if let Some(w) = self.find(req.asid, &searchable, req.vpn) {
                let way = &mut self.ways[w];
                let coherent = if way.literal {
                    way.mask == 1 << off && way.base_ppn == ppn
                } else {
                    Some(way.base_ppn.raw()) == expected_base_ppn
                };
                if coherent {
                    way.stamp = clock;
                    return;
                }
                way.mask &= !(1 << off);
                if way.mask == 0 {
                    way.valid = false;
                }
            }

            // Merge into a compatible run in the TB's own sets. Runs
            // never compress across address spaces: the candidate must
            // carry the requester's ASID.
            if let Some(expected) = expected_base_ppn {
                let own: Vec<usize> = self.group_of(req.tb_slot).collect();
                for &set in &own {
                    for w in self.ways_of_set(set) {
                        let way = &mut self.ways[w];
                        if way.valid
                            && way.asid == req.asid
                            && !way.literal
                            && way.base_vpn == base
                            && way.base_ppn == Ppn::new(expected)
                        {
                            way.mask |= 1 << off;
                            way.stamp = clock;
                            return;
                        }
                    }
                }
            }

            self.stats.insertions += 1;
            self.per_asid.entry(req.asid).insertions += 1;
            let (new_ppn, literal) = match expected_base_ppn {
                Some(expected) => (Ppn::new(expected), false),
                None => (ppn, true), // underflow under compression: literal
            };
            self.place(
                req,
                Way {
                    valid: true,
                    asid: req.asid,
                    base_vpn: base,
                    base_ppn: new_ppn,
                    mask: 1 << off,
                    literal,
                    stamp: clock,
                    owner: req.tb_slot,
                },
            );
            return;
        }

        // Compression off: victim choice and placement depend only on the
        // VPN, the set geometry, and recency — never on `ppn`.
        if let Some(w) = self.find(req.asid, &searchable, req.vpn) {
            // Unconditional refresh-in-place: concurrent fill races for
            // the same page are benign (last writer wins, matching the
            // set-associative baseline), and no payload comparison decides
            // the replacement outcome.
            let way = &mut self.ways[w];
            way.base_ppn = ppn;
            way.stamp = clock;
            return;
        }
        self.stats.insertions += 1;
        self.per_asid.entry(req.asid).insertions += 1;
        self.place(
            req,
            Way {
                valid: true,
                asid: req.asid,
                base_vpn: base,
                base_ppn: ppn,
                mask: 1 << off,
                literal: true,
                stamp: clock,
                owner: req.tb_slot,
            },
        );
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
        Some(self.peek(req.asid, req.vpn, req.tb_slot))
    }

    fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
            w.mask = 0;
        }
        self.share.clear();
        self.struct_epoch += 1;
    }

    fn fastpath_hits(&self) -> u64 {
        self.fastpath
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
        let assoc = self.cfg.geometry.associativity;
        for i in 0..self.ways.len() {
            let w = self.ways[i];
            if !w.valid || w.asid != asid || u16::from(w.owner) % 16 != pred % 16 {
                continue;
            }
            let set = i / assoc;
            if !self.group_of(w.owner).contains(&set) {
                self.ways[i].owner = self.home_tb(set);
            }
        }
    }

    fn set_concurrent_tbs(&mut self, tbs: u8) {
        let tbs = tbs.max(1);
        if tbs != self.concurrent_tbs {
            self.concurrent_tbs = tbs;
            self.struct_epoch += 1;
            self.memo = vec![LookupMemo::invalid(); self.groups()];
            // Geometry changed: sharing relationships are stale, and set
            // groups moved under the resident entries — re-home everything
            // to its set's natural owner.
            self.share.clear();
            let assoc = self.cfg.geometry.associativity;
            for i in 0..self.ways.len() {
                if self.ways[i].valid {
                    self.ways[i].owner = self.home_tb(i / assoc);
                }
            }
        }
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let fail = |detail: String| {
            Err(InvariantViolation::new(
                "PartitionedTlb",
                detail,
                self.dump_state(),
            ))
        };
        if let Err(e) = self.stats.check() {
            return fail(e);
        }
        if self.occupancy() > self.capacity() {
            return fail(format!(
                "occupancy {} exceeds capacity {}",
                self.occupancy(),
                self.capacity()
            ));
        }
        let agg = self.per_asid.sum();
        if agg != self.stats {
            return fail(format!(
                "per-ASID stats sum {agg:?} != aggregate {:?}",
                self.stats
            ));
        }
        let n = self.groups();
        // Flag bits and spill counters for slots that cannot exist must
        // stay clear (on_tb_finish / set_concurrent_tbs reset them), for
        // every app's register word.
        for s in &self.share {
            if n < 16 {
                if s.flags >> n != 0 {
                    return fail(format!(
                        "ASID {}: sharing flags {:#018b} have bits set for TB slots >= {n}",
                        s.asid, s.flags
                    ));
                }
                if let Some(i) = (n..16).find(|&i| s.counters[i] != 0) {
                    return fail(format!(
                        "ASID {}: spill counter {i} nonzero with only {n} TB slots",
                        s.asid
                    ));
                }
            }
        }
        if self.share.windows(2).any(|w| w[0].asid >= w[1].asid) {
            return fail("sharing register table not strictly sorted by ASID".into());
        }
        if self.memo.len() != n {
            return fail(format!(
                "memo table has {} slots for {n} TB groups",
                self.memo.len()
            ));
        }
        for (tb, m) in self.memo.iter().enumerate() {
            if m.epoch > self.struct_epoch {
                return fail(format!(
                    "memo for TB {tb} claims epoch {} ahead of struct epoch {}",
                    m.epoch, self.struct_epoch
                ));
            }
            // Only a memo from the *current* epoch is ever trusted; it
            // must point at a valid way still holding its VPN.
            if m.epoch == self.struct_epoch {
                let w = m.way as usize;
                if w >= self.ways.len()
                    || !self.ways[w].valid
                    || self.ways[w].asid != m.asid
                    || self.ways[w].base_vpn != self.run_base(m.vpn)
                {
                    return fail(format!(
                        "live memo for TB {tb} (asid {} vpn {:#x}) points at way {w} \
                         which no longer holds it",
                        m.asid,
                        m.vpn.raw()
                    ));
                }
            }
        }
        if self.cfg.sharing == SharingPolicy::None && self.sharing_flags() != 0 {
            return fail(format!(
                "sharing flags {:#018b} set under SharingPolicy::None",
                self.sharing_flags()
            ));
        }
        let degree_bits = if self.degree() >= 32 {
            u32::MAX
        } else {
            (1u32 << self.degree()) - 1
        };
        for set in 0..self.cfg.geometry.sets() {
            let range = self.ways_of_set(set);
            for w in range.clone() {
                let way = &self.ways[w];
                if !way.valid {
                    continue;
                }
                if way.mask == 0 {
                    return fail(format!("set {set}: valid entry with empty run mask"));
                }
                if way.mask & !degree_bits != 0 {
                    return fail(format!(
                        "set {set}: mask {:#x} has bits beyond compression degree {}",
                        way.mask,
                        self.degree()
                    ));
                }
                if way.literal && way.mask.count_ones() != 1 {
                    return fail(format!(
                        "set {set}: literal entry covers {} pages (must be 1)",
                        way.mask.count_ones()
                    ));
                }
                if way.base_vpn.raw() & (self.degree() - 1) != 0 {
                    return fail(format!(
                        "set {set}: base VPN {:#x} not aligned to run degree",
                        way.base_vpn.raw()
                    ));
                }
                if way.stamp > self.clock {
                    return fail(format!(
                        "set {set}: stamp {} ahead of clock {}",
                        way.stamp, self.clock
                    ));
                }
                // Distinct stamps per set keep LRU victim selection a
                // total order.
                if self.ways[range.start..w]
                    .iter()
                    .any(|o| o.valid && o.stamp == way.stamp)
                {
                    return fail(format!(
                        "set {set}: duplicate LRU stamp {} breaks the recency total order",
                        way.stamp
                    ));
                }
                // §IV-B placement: an entry lives in its owner's group, or
                // in territory licensed by the owner's `(asid, tb)`
                // sharing flag (the adjacent group — or anywhere under
                // all-to-all). The licence is looked up in the entry's own
                // app's register word: another app's spills never license
                // this entry's placement.
                let owner = way.owner;
                if self.group_of(owner).contains(&set) {
                    continue;
                }
                let bit = self.sharing_flags_of(way.asid) & (1 << (u16::from(owner) % 16)) != 0;
                let licensed = bit
                    && match self.cfg.sharing {
                        SharingPolicy::None => false,
                        SharingPolicy::Adjacent | SharingPolicy::AdjacentCounter { .. } => {
                            let neighbour = ((owner as usize + 1) % n) as u8;
                            self.group_of(neighbour).contains(&set)
                        }
                        SharingPolicy::AllToAll => true,
                    };
                if !licensed {
                    return fail(format!(
                        "set {set}: entry asid={} vpn={:#x} owned by TB {owner} is outside \
                         group {:?} and its app's sharing flag does not license set {set}",
                        way.asid,
                        way.base_vpn.raw(),
                        self.group_of(owner),
                    ));
                }
            }
        }
        Ok(())
    }

    fn dump_state(&self) -> String {
        let mut s = format!(
            "PartitionedTlb: {} entries, {}-way, {:?}, concurrent_tbs={}, clock={}\n\
             sharing_flags={:#018b} (union) spills={}\n\
             stats {{{:?}}}\n",
            self.cfg.geometry.entries,
            self.cfg.geometry.associativity,
            self.cfg.sharing,
            self.concurrent_tbs,
            self.clock,
            self.sharing_flags(),
            self.spills,
            self.stats
        );
        for sh in &self.share {
            let _ = writeln!(
                s,
                "  asid {:4}: flags={:#018b} spill_counters={:?}",
                sh.asid, sh.flags, sh.counters
            );
        }
        for tb in 0..self.groups().min(self.cfg.geometry.sets()) as u8 {
            let _ = write!(s, "  tb {tb:2} owns sets {:?}", self.group_of(tb));
            if tb % 4 == 3 {
                s.push('\n');
            }
        }
        s.push('\n');
        for set in 0..self.cfg.geometry.sets() {
            let ways = &self.ways[self.ways_of_set(set)];
            if ways.iter().all(|w| !w.valid) {
                continue;
            }
            let _ = write!(s, "  set {set:3}:");
            for w in ways.iter().filter(|w| w.valid) {
                let _ = write!(
                    s,
                    " [asid={} vpn={:#x} ppn={:#x} mask={:#b}{} owner={} @{}]",
                    w.asid,
                    w.base_vpn.raw(),
                    w.base_ppn.raw(),
                    w.mask,
                    if w.literal { " literal" } else { "" },
                    w.owner,
                    w.stamp
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
                sharing: if sharing { SharingPolicy::Adjacent } else { SharingPolicy::None },
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
        assert!(!t.lookup(&req(100, 0)).hit, "below threshold: not searchable");
        t.check_invariants().expect("parked entry is still licensed");
        t.insert(&req(105, 0), Ppn::new(5));
        assert_eq!(t.spills(), 2);
        assert!(!t.lookup(&req(101, 0)).hit, "still below threshold");
        t.insert(&req(106, 0), Ppn::new(6));
        assert_eq!(t.spills(), 3);
        // Third spill reaches the threshold: the flag engages and all
        // parked pages become reachable again.
        assert!(t.lookup(&req(100, 0)).hit, "threshold reached: neighbour searched");
        assert!(t.lookup(&req(101, 0)).hit);
        assert!(t.lookup(&req(102, 0)).hit);
        t.check_invariants().expect("engaged sharing keeps invariants");
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
        assert!(t.lookup(&req(200, 1)).hit, "neighbour inherits parked entry");
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
        let foreign = (0..t.cfg.geometry.sets())
            .filter(|s| !own.contains(s))
            .flat_map(|s| t.ways_of_set(s))
            .filter(|&w| t.ways[w].valid)
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
        t.check_invariants().expect("margin-blocked spill keeps invariants");
    }

    #[test]
    fn corrupted_owner_is_caught_with_state_dump() {
        let mut t = tlb(true);
        t.insert(&req(500, 2), Ppn::new(1));
        let w = t.ways.iter().position(|w| w.valid).unwrap();
        // Deliberate corruption: claim the entry belongs to TB 9, whose
        // group is elsewhere and whose sharing flag is clear.
        t.ways[w].owner = 9;
        let v = t.check_invariants().unwrap_err();
        assert!(v.detail.contains("owned by TB 9"), "{}", v.detail);
        assert!(v.dump.contains("sharing_flags"), "dump lacks flags:\n{}", v.dump);
        assert!(v.dump.contains("owner=9"), "dump lacks entry:\n{}", v.dump);
    }

    #[test]
    fn corrupted_stats_identity_is_caught() {
        let mut t = tlb(false);
        t.lookup(&req(1, 0));
        t.stats.misses += 1; // bypass record()
        assert!(t.check_invariants().is_err());
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
        assert_eq!(t.fastpath_hits(), 4, "post-insert lookup took the slow path");
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
        t.check_invariants().expect("cross-app eviction keeps invariants");
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
}
