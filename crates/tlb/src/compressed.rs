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
//!
//! On [`Ways`], the index policy is the low bits of the run number and
//! the payload a [`Run`]: the tag holds the app and the run's base VPN.
//! The partitioned TLB in `orchestrated-tlb` compresses with the same
//! [`Run`].

use crate::config::TlbConfig;
use crate::memo::Memo;
use crate::request::{TlbOutcome, TlbRequest, TranslationBuffer};
use crate::sanitize::InvariantViolation;
use crate::stats::TlbStats;
use crate::ways::Ways;
use std::fmt;
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

/// The payload of a compressed way: which pages of the run its tag names
/// are resident, and the frames they map to.
///
/// # Example
///
/// ```
/// use tlb::Run;
/// use vmem::Ppn;
///
/// let mut run = Run::new(Ppn::new(103), 3); // page 3 -> frame 103
/// assert!(run.absorbs(Ppn::new(105), 5)); // contiguous: base 100
/// run.mask |= 1 << 5;
/// assert_eq!(run.ppn_at(5), Ppn::new(105));
/// assert!(run.coherent(Ppn::new(103), 3) && !run.coherent(Ppn::new(7), 3));
/// assert!(Run::new(Ppn::new(1), 3).literal); // no base frame exists
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Run {
    /// PPN of the run's base page, or of its one page when `literal`.
    pub ppn: Ppn,
    /// Resident pages: bit `i` is the page at offset `i` of the run.
    pub mask: u32,
    /// The run holds one page whose PPN is `ppn` verbatim, because the
    /// frame is below the page's offset and no base frame exists.
    pub literal: bool,
}

impl Run {
    /// A run holding only page `off`, mapped to `ppn`: based at `ppn -
    /// off`, or literal when that underflows.
    pub fn new(ppn: Ppn, off: u32) -> Self {
        let (ppn, literal) = match ppn.raw().checked_sub(off as u64) {
            Some(base) => (Ppn::new(base), false),
            None => (ppn, true),
        };
        Run {
            ppn,
            mask: 1 << off,
            literal,
        }
    }

    /// Where `vpn` sits in runs of `1 << shift` pages: the run's base VPN
    /// (the tag) and the page's offset in the run.
    #[inline]
    pub fn locate(vpn: Vpn, shift: u32) -> (Vpn, u32) {
        let (raw, last) = (vpn.raw(), (1u64 << shift) - 1);
        // simlint: allow(lossy-cast, reason = "masked to the run degree before narrowing")
        (Vpn::new(raw & !last), (raw & last) as u32)
    }

    /// Whether page `off` is resident.
    #[inline]
    pub fn holds(&self, off: u32) -> bool {
        self.mask & (1 << off) != 0
    }

    /// The frame page `off` maps to.
    #[inline]
    pub fn ppn_at(&self, off: u32) -> Ppn {
        if self.literal {
            self.ppn
        } else {
            Ppn::new(self.ppn.raw() + off as u64)
        }
    }

    /// Whether the run already maps page `off` to `ppn`.
    pub fn coherent(&self, ppn: Ppn, off: u32) -> bool {
        self.holds(off) && self.ppn_at(off) == ppn
    }

    /// Whether page `off` mapped to `ppn` compresses into this run: the
    /// run is base-relative and its base frame is `ppn - off`.
    pub fn absorbs(&self, ppn: Ppn, off: u32) -> bool {
        !self.literal && ppn.raw().checked_sub(off as u64) == Some(self.ppn.raw())
    }

    /// Whether a hit must decompress (more than one page resident).
    #[inline]
    pub fn compressed(&self) -> bool {
        self.mask.count_ones() > 1
    }

    /// Checks a valid run tagged with run base `base` in runs of `1 <<
    /// shift` pages: a non-empty mask within the run, one page if literal,
    /// a base aligned to the run.
    pub fn check(&self, shift: u32, base: Vpn) -> Result<(), String> {
        let degree = 1u64 << shift;
        let within = if degree >= 32 {
            u32::MAX
        } else {
            (1u32 << degree) - 1
        };
        if self.mask == 0 {
            return Err("valid entry with empty run mask".into());
        }
        if self.mask & !within != 0 {
            return Err(format!(
                "mask {:#x} has bits beyond compression degree {degree}",
                self.mask
            ));
        }
        if self.literal && self.mask.count_ones() != 1 {
            return Err(format!(
                "literal entry covers {} pages (must be 1)",
                self.mask.count_ones()
            ));
        }
        if base.raw() & (degree - 1) != 0 {
            return Err(format!(
                "base VPN {:#x} not aligned to run degree",
                base.raw()
            ));
        }
        Ok(())
    }
}

impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let literal = if self.literal { " literal" } else { "" };
        write!(
            f,
            " ppn={:#x} mask={:#b}{literal}",
            self.ppn.raw(),
            self.mask
        )
    }
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
    ways: Ways<Run>,
    /// Translations stored that share an entry with at least one other
    /// translation (a measure of achieved compression).
    compressed_fills: u64,
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
            ways: Ways::new(config),
            compressed_fills: 0,
            memo: Memo::new(config.sets()),
        }
    }

    /// Enables or disables the lookup memo: a wall-clock knob only, as
    /// `crates/core/tests/fastpath_diff.rs` proves.
    pub fn set_fastpath(&mut self, on: bool) {
        self.memo.set_enabled(on);
    }

    /// Number of valid (possibly multi-page) entries resident.
    pub fn occupied_entries(&self) -> usize {
        self.ways.occupancy()
    }

    /// Number of page translations resident across all entries.
    pub fn resident_translations(&self) -> u32 {
        let valid = (0..self.ways.capacity()).filter(|&w| self.ways.is_valid(w));
        valid.map(|w| self.ways.payload(w).mask.count_ones()).sum()
    }

    /// Fills that compressed into an existing entry (shared an entry).
    pub fn compressed_fills(&self) -> u64 {
        self.compressed_fills
    }
}

impl TranslationBuffer for CompressedTlb {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        self.ways.tick();
        let (base, off) = Run::locate(req.vpn, self.run_shift);
        // Sets are indexed by the run number so a run always lands in one
        // set.
        let set = self.ways.set_of(req.vpn, self.run_shift);
        // The memoized way is trusted only if it still holds the page.
        // Insert's coherence scan keeps at most one valid way per (asid,
        // base, offset), so a revalidated memo and the walk agree.
        let holds = |r: &Run| r.holds(off);
        let found = self
            .ways
            .find_memo(&mut self.memo, set, req.asid, base, holds);
        let Some(w) = found else {
            self.ways.record(req.asid, false);
            return TlbOutcome::miss(self.config.lookup_latency);
        };
        self.ways.touch(w);
        self.ways.record(req.asid, true);
        let run = self.ways.payload(w);
        // Only a run holding more than one page needs decompressing.
        let decompress = u64::from(run.compressed()) * self.compression.decompress_latency;
        TlbOutcome::hit(run.ppn_at(off), self.config.lookup_latency + decompress)
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        self.ways.tick();
        let (base, off) = Run::locate(req.vpn, self.run_shift);
        // A frame below the page's offset has no base frame: the page is
        // stored as a literal one-page run, and that path runs one more
        // clock event.
        let literal = ppn.raw() < off as u64;
        if literal {
            self.ways.tick();
        }
        let range = self.ways.set(self.ways.set_of(req.vpn, self.run_shift));
        // Coherence on remap: clear this app's copy of the page wherever
        // it maps elsewhere (every copy, on the literal path), dropping
        // entries that empty. Another app's identical VPN is a distinct
        // translation.
        for w in range.clone() {
            let run = self.ways.payload(w);
            let stale = run.holds(off) && (literal || !run.coherent(ppn, off));
            if stale && self.ways.matches(w, req.asid, base) {
                let run = self.ways.payload_mut(w);
                run.mask &= !(1 << off);
                if run.mask == 0 {
                    self.ways.invalidate(w);
                }
            }
        }
        // Try to compress into a compatible run of the same app.
        let absorbs = |r: &Run| r.absorbs(ppn, off);
        if let Some(w) = self.ways.find(range.clone(), req.asid, base, absorbs) {
            let run = self.ways.payload_mut(w);
            if !run.holds(off) {
                run.mask |= 1 << off;
                self.compressed_fills += 1;
            }
            self.ways.touch(w);
            return;
        }
        // Allocate a fresh entry over the LRU way.
        self.ways.inserted(req.asid);
        let w = self.ways.victim(range);
        self.ways.evict(w);
        self.ways.fill(w, req.asid, base, Run::new(ppn, off));
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
        let shift = self.run_shift;
        // Two ways of one run may coexist (different base frames), but
        // never both hold one page.
        let clash = |a: &Run, b: &Run| a.mask & b.mask != 0;
        let ways = &self.ways;
        ways.check(clash, |w, run| run.check(shift, ways.vpn_of(w)))
            .and_then(|()| {
                let sets = self.config.sets();
                self.memo.check(sets, |set, w| ways.set(set).contains(&w))
            })
            .map_err(|e| InvariantViolation::new("CompressedTlb", e, self.dump_state()))
    }

    fn dump_state(&self) -> String {
        let name = format!("CompressedTlb (degree {})", self.compression.degree);
        self.ways
            .dump(&name, |s, _, run| s.push_str(&run.to_string()))
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
    fn run_arms_are_reported_with_dump() {
        let mut t = tlb();
        t.insert(&req(0), Ppn::new(100));
        let w = (0..t.ways.capacity())
            .find(|&w| t.ways.is_valid(w))
            .unwrap();
        t.ways.payload_mut(w).mask = 1 << 9;
        let v = t.check_invariants().unwrap_err();
        assert!(
            v.detail.contains("beyond compression degree 8"),
            "{}",
            v.detail
        );
        assert!(v.dump.contains("CompressedTlb (degree 8)"), "{}", v.dump);
        t.ways.payload_mut(w).mask = 0;
        let v = t.check_invariants().unwrap_err();
        assert!(v.detail.contains("empty run mask"), "{}", v.detail);
    }

    #[test]
    fn two_ways_holding_one_page_are_reported() {
        let mut t = tlb();
        t.insert(&req(0), Ppn::new(500));
        t.insert(&req(1), Ppn::new(77)); // same run, another base frame
        t.check_invariants()
            .expect("one run, two bases, disjoint pages");
        let w = (0..t.ways.capacity())
            .rfind(|&w| t.ways.is_valid(w))
            .unwrap();
        t.ways.payload_mut(w).mask |= 1;
        let v = t.check_invariants().unwrap_err();
        assert!(v.detail.contains("resident twice"), "{}", v.detail);
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
        t.check_invariants()
            .expect("mixed-ASID runs stay consistent");
    }

    #[test]
    fn cross_asid_lookup_misses_even_after_memo() {
        let mut t = tlb();
        for i in 0..8 {
            t.insert(&areq(1, i), Ppn::new(1000 + i));
        }
        assert!(t.lookup(&areq(1, 3)).hit); // arm memo
        assert!(
            !t.lookup(&areq(2, 3)).hit,
            "memo must not serve another app"
        );
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
