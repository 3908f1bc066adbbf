//! A model of the PACT'20 TLB-compression comparator (Tang et al.,
//! *Enhancing Address Translations in Throughput Processors via
//! Compression*), used by the paper's Figure 12 study.
//!
//! The compression scheme coalesces translations for runs of virtually
//! *and* physically contiguous pages into one TLB entry: an entry stores a
//! compression-aligned base VPN, the PPN the base page would map to, and a
//! bitmask of which pages in the run are valid. A page hits if its run is
//! resident, its bit is set, and its PPN is the base PPN plus its offset in
//! the run — i.e. only contiguous/stride-friendly access patterns actually
//! compress, which is exactly the property the DAC'23 paper contrasts
//! against. Decompression adds latency on the hit path, also per the
//! paper's discussion.

use crate::config::TlbConfig;
use crate::memo::Memo;
use crate::replace::{first_min, recency_key};
use crate::request::{TlbOutcome, TlbRequest, TranslationBuffer};
use crate::sanitize::InvariantViolation;
use crate::stats::{PerAsidStats, TlbStats};
use std::fmt::Write as _;
use std::ops::Range;
use vmem::{Asid, Ppn, Vpn};

/// Parameters of the compression scheme.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CompressionConfig {
    /// Pages per compressed entry (a power of two; PACT'20 uses runs of 8
    /// to 16 4 KiB pages per entry).
    pub degree: usize,
    /// Extra cycles added to every hit for decompression (critical path).
    pub decompress_latency: u64,
}

impl CompressionConfig {
    /// The configuration used for the Figure 12 comparison: 8 pages per
    /// entry, 1 extra cycle to decompress.
    pub fn pact20() -> Self {
        CompressionConfig {
            degree: 8,
            decompress_latency: 1,
        }
    }
}

impl Default for CompressionConfig {
    fn default() -> Self {
        Self::pact20()
    }
}

#[derive(Copy, Clone, Debug, Default)]
struct CompressedWay {
    valid: bool,
    /// Address space owning the run; part of the match condition, so a
    /// run never serves (or compresses) another app's translations.
    asid: Asid,
    /// Base VPN of the run, aligned to `degree`.
    base_vpn: Vpn,
    /// PPN the base page of the run maps to (pages in the run map to
    /// `base_ppn + offset`).
    base_ppn: Ppn,
    /// Which pages of the run are resident.
    mask: u32,
    /// When `true`, the entry holds exactly one translation and `base_ppn`
    /// is that page's PPN verbatim (used when the PPN cannot be expressed
    /// as `base + offset`, e.g. it would underflow).
    literal: bool,
    stamp: u64,
}

impl CompressedWay {
    /// Whether this way holds `asid`'s translation of page `off` of the
    /// run based at `base`.
    fn holds(&self, asid: Asid, base: Vpn, off: u32) -> bool {
        self.valid && self.asid == asid && self.base_vpn == base && self.mask & (1 << off) != 0
    }
}

/// Position of the LRU victim within one set's ways: an invalid way
/// first, else the oldest stamp, the first way on ties.
fn lru_way(set: &[CompressedWay]) -> usize {
    first_min(
        set.iter()
            .map(|w| recency_key(w.valid, w.stamp))
            .enumerate(),
    )
    .expect("associativity is non-zero") // simlint: allow(hot-unwrap, reason = "TlbConfig validates associativity > 0 at construction")
}

/// A set-associative TLB whose entries each cover a run of contiguous
/// translations (PACT'20 compression model).
///
/// # Example
///
/// ```
/// use tlb::{CompressedTlb, CompressionConfig, TlbConfig, TlbRequest, TranslationBuffer};
/// use vmem::{Ppn, Vpn};
///
/// let mut t = CompressedTlb::new(TlbConfig::dac23_l1(), CompressionConfig::pact20());
/// // Eight contiguous translations compress into a single entry...
/// for i in 0..8 {
///     t.insert(&TlbRequest::new(Vpn::new(i), 0), Ppn::new(100 + i));
/// }
/// assert_eq!(t.occupied_entries(), 1);
/// // ...and all of them hit.
/// assert!(t.lookup(&TlbRequest::new(Vpn::new(5), 0)).hit);
/// ```
#[derive(Debug, Clone)]
pub struct CompressedTlb {
    config: TlbConfig,
    compression: CompressionConfig,
    /// log2 of the compression degree: a VPN's run number is `vpn >>
    /// run_shift`.
    run_shift: u32,
    /// `sets() - 1`: the set index is the low run-number bits under this
    /// mask.
    set_mask: u64,
    ways: Vec<CompressedWay>,
    clock: u64,
    stats: TlbStats,
    /// Per-ASID breakdown of `stats` (evictions attributed to the
    /// victim's ASID); sums to the aggregate exactly.
    per_asid: PerAsidStats,
    /// Translations stored that share an entry with at least one other
    /// translation (a measure of achieved compression).
    compressed_fills: u64,
    /// Count of valid entries, maintained on insert/evict/flush; equals
    /// the full-`ways` scan (debug-asserted in
    /// [`CompressedTlb::occupied_entries`]).
    occupied: usize,
    /// Count of resident page translations (set mask bits over valid
    /// entries), maintained alongside `occupied`.
    resident: u32,
    /// Last hitting way per set.
    memo: Memo<()>,
}

impl CompressedTlb {
    /// Creates an empty compressed TLB.
    ///
    /// # Panics
    ///
    /// Panics if the compression degree is not a power of two.
    pub fn new(config: TlbConfig, compression: CompressionConfig) -> Self {
        assert!(
            compression.degree.is_power_of_two() && compression.degree > 0,
            "compression degree must be a power of two"
        );
        CompressedTlb {
            config,
            compression,
            run_shift: compression.degree.trailing_zeros(),
            set_mask: config.sets() as u64 - 1,
            ways: vec![CompressedWay::default(); config.entries],
            clock: 0,
            stats: TlbStats::default(),
            per_asid: PerAsidStats::default(),
            compressed_fills: 0,
            occupied: 0,
            resident: 0,
            memo: Memo::new(config.sets()),
        }
    }

    /// The geometry configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Enables or disables the lookup memo: a wall-clock knob only, as
    /// `crates/core/tests/fastpath_diff.rs` proves.
    pub fn set_fastpath(&mut self, on: bool) {
        self.memo.set_enabled(on);
    }

    /// The compression parameters.
    pub fn compression(&self) -> &CompressionConfig {
        &self.compression
    }

    fn run_base(&self, vpn: Vpn) -> Vpn {
        Vpn::new(vpn.raw() & !(self.compression.degree as u64 - 1))
    }

    fn run_offset(&self, vpn: Vpn) -> u32 {
        (vpn.raw() & (self.compression.degree as u64 - 1)) as u32
    }

    /// Sets are indexed by the run number so a run always lands in one set.
    fn set_of(&self, vpn: Vpn) -> usize {
        // Mask in u64 before narrowing so the set index is identical on
        // 32-bit hosts.
        // simlint: allow(lossy-cast, reason = "masked to the set count before narrowing")
        ((vpn.raw() >> self.run_shift) & self.set_mask) as usize
    }

    fn set_range(&self, set: usize) -> Range<usize> {
        let a = self.config.associativity;
        set * a..(set + 1) * a
    }

    /// Number of valid (possibly multi-page) entries resident. O(1): the
    /// maintained counter, cross-checked against the scan in debug
    /// builds (the sanitizer calls this every event cycle).
    pub fn occupied_entries(&self) -> usize {
        debug_assert_eq!(
            self.occupied,
            self.ways.iter().filter(|w| w.valid).count(),
            "occupied counter diverged from the valid-entry scan"
        );
        self.occupied
    }

    /// Number of page translations resident across all entries. O(1),
    /// cross-checked like [`CompressedTlb::occupied_entries`].
    pub fn resident_translations(&self) -> u32 {
        debug_assert_eq!(
            self.resident,
            self.ways
                .iter()
                .filter(|w| w.valid)
                .map(|w| w.mask.count_ones())
                .sum::<u32>(),
            "resident counter diverged from the mask-population scan"
        );
        self.resident
    }

    /// Fills that compressed into an existing entry (shared an entry).
    pub fn compressed_fills(&self) -> u64 {
        self.compressed_fills
    }
}

impl TranslationBuffer for CompressedTlb {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        self.clock += 1;
        let base = self.run_base(req.vpn);
        let off = self.run_offset(req.vpn);
        let set = self.set_of(req.vpn);
        // The memoized way is trusted only if it still holds the page.
        // Insert's coherence scan keeps at most one valid way per (asid,
        // base, offset), so a revalidated memo and the walk agree.
        let ways = &self.ways;
        let w = match self
            .memo
            .serve(set, |w, ()| ways[w].holds(req.asid, base, off))
        {
            Some((w, ())) => w,
            None => {
                let range = self.set_range(set);
                let Some(i) = self.ways[range.clone()]
                    .iter()
                    .position(|w| w.holds(req.asid, base, off))
                else {
                    self.stats.record(false);
                    self.per_asid.entry(req.asid).record(false);
                    return TlbOutcome::miss(self.config.lookup_latency);
                };
                self.memo.arm(set, range.start + i, ());
                range.start + i
            }
        };
        let way = &mut self.ways[w];
        way.stamp = self.clock;
        self.stats.record(true);
        self.per_asid.entry(req.asid).record(true);
        let ppn = if way.literal {
            way.base_ppn
        } else {
            Ppn::new(way.base_ppn.raw() + off as u64)
        };
        // Only a run holding more than one page needs decompressing.
        let decompress = u64::from(way.mask.count_ones() > 1) * self.compression.decompress_latency;
        TlbOutcome::hit(ppn, self.config.lookup_latency + decompress)
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        self.clock += 1;
        let base = self.run_base(req.vpn);
        let off = self.run_offset(req.vpn);
        // PPN the base page must map to for this fill to compress.
        let Some(expected_base_ppn) = ppn.raw().checked_sub(off as u64) else {
            // Physically impossible to express as a contiguous run member;
            // store as a singleton run below by falling through with a
            // degenerate base equal to the page itself.
            return self.insert_singleton(req.asid, req.vpn, ppn);
        };
        let set = self.set_of(req.vpn);
        let range = self.set_range(set);
        let clock = self.clock;
        // Invalidate any stale translation for this page held under a
        // different PPN (coherence on remap): clear its run bit and drop
        // the entry entirely when it empties. Scoped to the requesting
        // ASID — another app's identical VPN is a distinct translation.
        self.clear_page(range.clone(), req.asid, base, off, |w| {
            w.literal || w.base_ppn != Ppn::new(expected_base_ppn)
        });
        // Try to compress into an existing compatible entry (same app
        // only: runs never span address spaces).
        if let Some(way) = self.ways[range.clone()].iter_mut().find(|w| {
            w.valid
                && !w.literal
                && w.asid == req.asid
                && w.base_vpn == base
                && w.base_ppn == Ppn::new(expected_base_ppn)
        }) {
            if way.mask & (1 << off) == 0 {
                way.mask |= 1 << off;
                self.compressed_fills += 1;
                self.resident += 1;
            }
            way.stamp = clock;
            return;
        }
        // Allocate a fresh entry for this run.
        self.allocate(
            range,
            CompressedWay {
                valid: true,
                asid: req.asid,
                base_vpn: base,
                base_ppn: Ppn::new(expected_base_ppn),
                mask: 1 << off,
                literal: false,
                stamp: clock,
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

    fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
            w.mask = 0;
        }
        self.occupied = 0;
        self.resident = 0;
        // The invalidated ways already fail validation (hygiene only).
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
                "CompressedTlb",
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
        let degree_mask = if self.compression.degree >= 64 {
            u64::MAX
        } else {
            (1u64 << self.compression.degree) - 1
        };
        if let Err(e) = self.memo.check(self.config.sets(), |set, w| {
            self.set_range(set).contains(&w)
        }) {
            return fail(e);
        }
        for set in 0..self.config.sets() {
            let ways = &self.ways[self.set_range(set)];
            for (i, w) in ways.iter().enumerate().filter(|(_, w)| w.valid) {
                if w.mask == 0 {
                    return fail(format!("set {set} way {i}: valid entry with empty run mask"));
                }
                if u64::from(w.mask) & !degree_mask != 0 {
                    return fail(format!(
                        "set {set} way {i}: mask {:#x} has bits beyond compression degree {}",
                        w.mask, self.compression.degree
                    ));
                }
                if w.literal && w.mask.count_ones() != 1 {
                    return fail(format!(
                        "set {set} way {i}: literal entry covers {} pages (must be 1)",
                        w.mask.count_ones()
                    ));
                }
                if w.base_vpn.raw() & (self.compression.degree as u64 - 1) != 0 {
                    return fail(format!(
                        "set {set} way {i}: base VPN {:#x} not aligned to run degree",
                        w.base_vpn.raw()
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
            }
        }
        // Counters against the scans, after the per-way structure checks
        // (those give the more precise diagnosis) and checked here
        // directly because the accessors' debug asserts panic rather
        // than report.
        let scanned_entries = self.ways.iter().filter(|w| w.valid).count();
        if self.occupied != scanned_entries {
            return fail(format!(
                "occupied counter {} != valid-entry scan {scanned_entries}",
                self.occupied
            ));
        }
        let scanned_pages: u32 = self
            .ways
            .iter()
            .filter(|w| w.valid)
            .map(|w| w.mask.count_ones())
            .sum();
        if self.resident != scanned_pages {
            return fail(format!(
                "resident counter {} != mask-population scan {scanned_pages}",
                self.resident
            ));
        }
        Ok(())
    }

    fn dump_state(&self) -> String {
        let mut s = format!(
            "CompressedTlb: {} entries, degree {}, clock {}, stats {{{:?}}}\n",
            self.config.entries, self.compression.degree, self.clock, self.stats
        );
        for set in 0..self.config.sets() {
            let ways = &self.ways[self.set_range(set)];
            if ways.iter().all(|w| !w.valid) {
                continue;
            }
            let _ = write!(s, "  set {set:3}:");
            for w in ways.iter().filter(|w| w.valid) {
                let _ = write!(
                    s,
                    " [asid={} base_vpn={:#x} base_ppn={:#x} mask={:#010b}{} @{}]",
                    w.asid,
                    w.base_vpn.raw(),
                    w.base_ppn.raw(),
                    w.mask,
                    if w.literal { " literal" } else { "" },
                    w.stamp
                );
            }
            s.push('\n');
        }
        s
    }
}

impl CompressedTlb {
    /// Stores a translation that cannot participate in any run (its PPN
    /// underflows the run base) as a single-page entry keyed at its own
    /// VPN.
    fn insert_singleton(&mut self, asid: Asid, vpn: Vpn, ppn: Ppn) {
        self.clock += 1;
        let set = self.set_of(vpn);
        let range = self.set_range(set);
        // Coherence on remap: clear any existing translation this app
        // holds for the page.
        let base = self.run_base(vpn);
        let off = self.run_offset(vpn);
        self.clear_page(range.clone(), asid, base, off, |_| true);
        let stamp = self.clock;
        self.allocate(
            range,
            CompressedWay {
                valid: true,
                asid,
                base_vpn: base,
                base_ppn: ppn,
                mask: 1 << off,
                literal: true,
                stamp,
            },
        );
    }

    /// Clears `asid`'s page `off` of the run at `base` from every way in
    /// `range` that `stale` selects, dropping entries that empty.
    fn clear_page(
        &mut self,
        range: Range<usize>,
        asid: Asid,
        base: Vpn,
        off: u32,
        stale: impl Fn(&CompressedWay) -> bool,
    ) {
        for way in &mut self.ways[range] {
            if way.holds(asid, base, off) && stale(way) {
                way.mask &= !(1 << off);
                self.resident -= 1;
                if way.mask == 0 {
                    way.valid = false;
                    self.occupied -= 1;
                }
            }
        }
    }

    /// Stores the one-page `entry` over the LRU way of `range`, counting
    /// the insertion and any eviction.
    fn allocate(&mut self, range: Range<usize>, entry: CompressedWay) {
        self.stats.insertions += 1;
        self.per_asid.entry(entry.asid).insertions += 1;
        let widx = range.start + lru_way(&self.ways[range]);
        let victim = self.ways[widx];
        if victim.valid {
            self.stats.evictions += 1;
            self.resident -= victim.mask.count_ones();
            self.per_asid.entry(victim.asid).evictions += 1;
        } else {
            self.occupied += 1;
        }
        self.resident += 1;
        self.ways[widx] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(vpn: u64) -> TlbRequest {
        TlbRequest::new(Vpn::new(vpn), 0)
    }

    fn tlb() -> CompressedTlb {
        CompressedTlb::new(TlbConfig::dac23_l1(), CompressionConfig::pact20())
    }

    #[test]
    fn contiguous_run_compresses_to_one_entry() {
        let mut t = tlb();
        for i in 0..8 {
            t.insert(&req(i), Ppn::new(1000 + i));
        }
        assert_eq!(t.occupied_entries(), 1);
        assert_eq!(t.resident_translations(), 8);
        assert_eq!(t.compressed_fills(), 7);
        for i in 0..8 {
            let out = t.lookup(&req(i));
            assert!(out.hit);
            assert_eq!(out.ppn, Some(Ppn::new(1000 + i)));
        }
    }

    #[test]
    fn decompression_adds_latency_only_for_compressed_entries() {
        let mut t = tlb();
        t.insert(&req(0), Ppn::new(50));
        // Singleton entry: no decompression cost.
        assert_eq!(t.lookup(&req(0)).latency, 1);
        t.insert(&req(1), Ppn::new(51));
        // Now compressed (two pages in the run): +1 cycle.
        assert_eq!(t.lookup(&req(0)).latency, 2);
    }

    #[test]
    fn non_contiguous_ppns_do_not_compress() {
        let mut t = tlb();
        // Same run, but scrambled frames (irregular demand-paging order).
        t.insert(&req(0), Ppn::new(500));
        t.insert(&req(1), Ppn::new(77)); // not 501 -> incompatible
        assert_eq!(t.occupied_entries(), 2);
        assert!(t.lookup(&req(0)).hit);
        assert!(t.lookup(&req(1)).hit);
        assert_eq!(t.lookup(&req(1)).ppn, Some(Ppn::new(77)));
    }

    #[test]
    fn compression_extends_reach_beyond_entry_count() {
        // 4-entry TLB but 4 runs x 8 pages = 32 translations resident.
        let mut t = CompressedTlb::new(TlbConfig::new(4, 4, 1), CompressionConfig::pact20());
        for run in 0..4u64 {
            for i in 0..8u64 {
                let vpn = run * 8 + i;
                t.insert(&req(vpn), Ppn::new(1000 * run + i));
            }
        }
        assert_eq!(t.occupied_entries(), 4);
        t.reset_stats();
        for vpn in 0..32u64 {
            assert!(t.lookup(&req(vpn)).hit, "vpn {vpn}");
        }
        assert_eq!(t.stats().misses, 0);
    }

    #[test]
    fn different_runs_with_same_base_dont_alias() {
        let mut t = tlb();
        t.insert(&req(0), Ppn::new(100));
        // Lookup of another page in the run whose bit is clear misses.
        assert!(!t.lookup(&req(3)).hit);
    }

    #[test]
    fn ppn_underflow_stored_as_singleton() {
        let mut t = tlb();
        // vpn 5 -> ppn 2 would imply base_ppn = -3; stored as singleton.
        t.insert(&req(5), Ppn::new(2));
        let out = t.lookup(&req(5));
        assert!(out.hit);
        assert_eq!(out.ppn, Some(Ppn::new(2)));
        // No other offset in the run hits.
        assert!(!t.lookup(&req(4)).hit);
    }

    #[test]
    fn flush_clears_masks() {
        let mut t = tlb();
        for i in 0..8 {
            t.insert(&req(i), Ppn::new(i));
        }
        t.flush();
        assert_eq!(t.occupied_entries(), 0);
        assert_eq!(t.resident_translations(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_degree_rejected() {
        let _ = CompressedTlb::new(
            TlbConfig::dac23_l1(),
            CompressionConfig {
                degree: 6,
                decompress_latency: 1,
            },
        );
    }

    #[test]
    fn invariants_hold_through_compression_workload() {
        let mut t = tlb();
        for i in 0..64u64 {
            let r = req(i % 21);
            if !t.lookup(&r).hit {
                t.insert(&r, Ppn::new(1000 + i % 21));
            }
            t.check_invariants().expect("workload keeps invariants");
        }
    }

    #[test]
    fn occupancy_counters_track_remap_churn() {
        let mut t = tlb();
        for i in 0..8 {
            t.insert(&req(i), Ppn::new(1000 + i));
        }
        assert_eq!(t.occupied_entries(), 1);
        assert_eq!(t.resident_translations(), 8);
        // Remap one page out of the run: coherence clears its bit, then a
        // fresh singleton-run entry is allocated.
        t.insert(&req(3), Ppn::new(77));
        assert_eq!(t.occupied_entries(), 2);
        assert_eq!(t.resident_translations(), 8);
        t.check_invariants().expect("counters match scans");
        // Remap to a PPN that underflows the run base: literal path.
        t.insert(&req(3), Ppn::new(1));
        assert_eq!(t.resident_translations(), 8);
        t.check_invariants().expect("counters match scans");
        t.flush();
        assert_eq!(t.occupied_entries(), 0);
        assert_eq!(t.resident_translations(), 0);
    }

    #[test]
    fn corrupted_occupancy_counter_is_reported() {
        let mut t = tlb();
        t.insert(&req(0), Ppn::new(100));
        t.occupied = 5; // bypass insert accounting
        let v = t.check_invariants().unwrap_err();
        assert!(v.detail.contains("occupied counter"), "{}", v.detail);
    }

    #[test]
    fn empty_mask_on_valid_entry_is_reported() {
        let mut t = tlb();
        t.insert(&req(0), Ppn::new(100));
        let w = t.ways.iter_mut().find(|w| w.valid).unwrap();
        w.mask = 0;
        let v = t.check_invariants().unwrap_err();
        assert!(v.detail.contains("empty run mask"), "{}", v.detail);
    }

    #[test]
    fn fastpath_rides_the_memo_and_survives_remap() {
        let mut t = tlb();
        for i in 0..8 {
            t.insert(&req(i), Ppn::new(1000 + i));
        }
        assert!(t.lookup(&req(3)).hit); // walk arms the memo
        assert_eq!(t.fastpath_hits(), 0);
        let fast = t.lookup(&req(3));
        assert_eq!(fast, TlbOutcome::hit(Ppn::new(1003), 2));
        assert_eq!(t.fastpath_hits(), 1);
        // Remap page 3 out of the run: the memoized way's bit clears, so
        // the next lookup of vpn 3 must revalidate and find the new
        // singleton entry — never the stale compressed frame.
        t.insert(&req(3), Ppn::new(77));
        assert_eq!(t.lookup(&req(3)).ppn, Some(Ppn::new(77)));
        t.check_invariants().expect("memo stays inside its set");
    }

    fn areq(asid: u16, vpn: u64) -> TlbRequest {
        TlbRequest::new(Vpn::new(vpn), 0).with_asid(Asid::new(asid))
    }

    #[test]
    fn runs_never_compress_across_asids() {
        let mut t = tlb();
        // Identical VPN/PPN pattern from two apps: must occupy two
        // entries, and each app only ever sees its own frames.
        for i in 0..8 {
            t.insert(&areq(1, i), Ppn::new(1000 + i));
            t.insert(&areq(2, i), Ppn::new(2000 + i));
        }
        assert_eq!(t.occupied_entries(), 2);
        for i in 0..8 {
            assert_eq!(t.lookup(&areq(1, i)).ppn, Some(Ppn::new(1000 + i)));
            assert_eq!(t.lookup(&areq(2, i)).ppn, Some(Ppn::new(2000 + i)));
        }
        t.check_invariants().expect("mixed-ASID runs stay consistent");
    }

    #[test]
    fn cross_asid_lookup_misses_even_after_memo() {
        let mut t = tlb();
        for i in 0..8 {
            t.insert(&areq(1, i), Ppn::new(1000 + i));
        }
        assert!(t.lookup(&areq(1, 3)).hit); // arm memo
        assert!(!t.lookup(&areq(2, 3)).hit, "memo must not serve another app");
        let by: std::collections::HashMap<_, _> = t.stats_by_asid().into_iter().collect();
        assert_eq!(by[&Asid::new(1)].hits, 1);
        assert_eq!(by[&Asid::new(2)].misses, 1);
        let sum = t
            .stats_by_asid()
            .iter()
            .fold(TlbStats::default(), |a, (_, s)| a + *s);
        assert_eq!(sum, t.stats());
    }

    #[test]
    fn lru_among_runs() {
        // 1 set x 2 ways, runs of 8.
        let mut t = CompressedTlb::new(TlbConfig::new(2, 2, 1), CompressionConfig::pact20());
        t.insert(&req(0), Ppn::new(0)); // run 0
        t.insert(&req(8), Ppn::new(8)); // run 1
        assert!(t.lookup(&req(0)).hit); // run 0 recently used
        t.insert(&req(16), Ppn::new(16)); // run 2 evicts run 1
        assert!(t.lookup(&req(0)).hit);
        assert!(!t.lookup(&req(8)).hit);
        assert!(t.lookup(&req(16)).hit);
    }
}
