//! Composition of the split pipeline ([`PerSmFront`]s + [`SharedBack`])
//! behind one `translate` / `data_access` call per access.

use crate::breakdown::{LatencyBreakdown, TranslationBreakdown};
use crate::config::HierarchyConfig;
use crate::split::{PerSmFront, SharedBack};
use crate::stage::{Access, StageStats};
use crate::stages::L2Slice;
use tlb::{TlbStats, TranslationBuffer};
use vmem::{AddressSpace, Asid, PageSize, PhysAddr, Ppn, WalkerStats};

/// The hierarchy level that resolved a translation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HitLevel {
    /// Resolved by the SM's private L1 TLB (no fill happened).
    L1Tlb,
    /// Resolved by the shared L2 TLB (the L1 was filled).
    L2Tlb,
    /// Resolved by a page-table walk (L2 and L1 were filled).
    Walk,
}

/// The result of one translation through the hierarchy.
#[derive(Copy, Clone, Debug)]
pub struct Translation {
    /// Resolved physical frame.
    pub ppn: Ppn,
    /// Cycle at which the PPN is available back at the SM.
    pub ready_at: u64,
    /// Which level resolved it.
    pub level: HitLevel,
    /// Where the cycles went.
    pub breakdown: TranslationBreakdown,
}

/// The composed memory hierarchy: the translation path (L1 TLB ->
/// icnt -> L2 TLB -> walkers) and the data path (VIPT L1 -> L2 ->
/// DRAM), with per-level latency attribution for every translation.
///
/// Internally this is the [`PerSmFront`]/[`SharedBack`] split: each SM's
/// private L1 TLB and L1 data cache, and the shared stages behind them.
/// The timing engine owns one `Hierarchy` and calls
/// [`Hierarchy::translate`] and [`Hierarchy::data_access`] as each warp
/// instruction issues, so SM `i`'s calls reach its own front and then
/// the shared back in program order.
///
/// Stage timing contract: each stage's outcome satisfies
/// `ready_at == access.at + queue + service + fault` (debug-asserted
/// along the path), so chaining stages makes the end-to-end latency
/// equal the sum of per-stage contributions by construction — the
/// identity [`LatencyBreakdown::check`] verifies against an
/// independently accumulated end-to-end count.
pub struct Hierarchy {
    fronts: Vec<PerSmFront>,
    back: SharedBack,
}

impl Hierarchy {
    /// Joins split halves, as built by
    /// [`HierarchyBuilder::build_split_multi`], into one hierarchy.
    pub fn from_split(fronts: Vec<PerSmFront>, back: SharedBack) -> Self {
        Hierarchy { fronts, back }
    }

    /// Translates one page access; returns the frame, the cycle it is
    /// available, and the per-level attribution. Exactly reproduces the
    /// paper's Figure 1 path: L1 TLB, then (on miss) the interconnect to
    /// the VPN-owning L2 slice, a port grant, the L2 lookup, and (on
    /// miss) a page-table walk with UVM first-touch faulting, with fills
    /// propagating back up.
    pub fn translate(&mut self, acc: &Access) -> Translation {
        let front = &mut self.fronts[acc.sm];
        let l1 = front.probe_translate(acc);
        if let Some(ppn) = l1.ppn {
            return Translation {
                ppn,
                ready_at: l1.ready_at,
                level: HitLevel::L1Tlb,
                breakdown: TranslationBreakdown {
                    l1_tlb: l1.service_cycles,
                    ..Default::default()
                },
            };
        }
        self.back
            .translate_miss(front, acc, l1.ready_at, l1.service_cycles)
    }

    /// One coalesced line transaction through the data path.
    pub fn data_access(&mut self, start: u64, sm: usize, pa: PhysAddr, write: bool) -> u64 {
        match self.fronts[sm].probe_data(start, pa, write) {
            Some(done) => done,
            None => self.back.data_miss(start, pa, write),
        }
    }

    /// The per-SM fronts, in SM index order.
    pub fn fronts(&self) -> &[PerSmFront] {
        &self.fronts
    }

    /// Mutable access to the per-SM fronts (kernel-launch flush,
    /// TB-slot retirement).
    pub fn fronts_mut(&mut self) -> &mut [PerSmFront] {
        &mut self.fronts
    }

    /// One SM's private L1 TLB.
    pub fn l1_tlb(&self, sm: usize) -> &dyn TranslationBuffer {
        self.fronts[sm].tlb()
    }

    /// The shared back half.
    pub fn back(&self) -> &SharedBack {
        &self.back
    }

    /// The L2 TLB slices, in interleave order.
    pub fn l2_slices(&self) -> &[L2Slice] {
        self.back.l2_slices()
    }

    /// Aggregate L2 TLB counters summed over slices.
    pub fn l2_tlb_stats(&self) -> TlbStats {
        self.back.l2_tlb_stats()
    }

    /// Per-ASID L2 TLB counters merged over slices, sorted by ASID.
    pub fn l2_tlb_stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        self.back.l2_tlb_stats_by_asid()
    }

    /// Per-SM L1 data-cache counters.
    pub fn l1_cache_stats(&self) -> Vec<crate::CacheStats> {
        self.fronts.iter().map(PerSmFront::l1_cache_stats).collect()
    }

    /// Shared L2 data-cache counters.
    pub fn l2_cache_stats(&self) -> crate::CacheStats {
        self.back.l2_cache_stats()
    }

    /// Walker-pool activity counters.
    pub fn walker_stats(&self) -> WalkerStats {
        self.back.walker_stats()
    }

    /// UVM demand faults taken.
    pub fn demand_faults(&self) -> u64 {
        self.back.demand_faults()
    }

    /// Coalesced line transactions issued on the data path.
    pub fn transactions(&self) -> u64 {
        self.fronts.iter().map(PerSmFront::transactions).sum()
    }

    /// Page size of the address space being translated.
    pub fn page_size(&self) -> PageSize {
        self.back.page_size()
    }

    /// The address space being translated.
    pub fn space(&self) -> &AddressSpace {
        self.back.space()
    }

    /// Aggregate per-level latency attribution over every translation so
    /// far: the fronts' L1-hit share merged with the back's miss-path
    /// share (an order-independent counter sum).
    pub fn breakdown(&self) -> LatencyBreakdown {
        self.fronts
            .iter()
            .fold(*self.back.breakdown(), |acc, f| acc + *f.breakdown())
    }

    /// Activity counters per translation stage, in pipeline order. The
    /// `l1_tlb` entry is the fronts' per-SM stage stats merged.
    pub fn stage_stats(&self) -> Vec<(&'static str, StageStats)> {
        let l1 = self
            .fronts
            .iter()
            .fold(StageStats::default(), |acc, f| acc.merged(f.l1_stage_stats()));
        let mut stats = vec![("l1_tlb", l1)];
        stats.extend(self.back.stage_stats());
        stats
    }
}

/// Config-driven constructor for the baseline [`Hierarchy`] and its
/// split halves.
///
/// Variant hierarchies (a MASK-style TLB-aware L2, a Mosaic-style
/// multi-page-size level) are built by swapping one stage here; the
/// engine and every other stage are untouched. See DESIGN.md, "The
/// mem-hier stage model".
pub struct HierarchyBuilder {
    config: HierarchyConfig,
}

impl HierarchyBuilder {
    /// Starts a builder from the hierarchy geometry and latencies.
    pub fn new(config: HierarchyConfig) -> Self {
        HierarchyBuilder { config }
    }

    /// Assembles the pipeline as its private/shared halves around a
    /// workload's address space and externally built per-SM L1 TLBs (one
    /// per SM — the engine's pluggable-organization hook).
    ///
    /// # Panics
    ///
    /// Panics if `l1_tlbs.len()` differs from the configured SM count.
    pub fn build_split(
        self,
        space: AddressSpace,
        l1_tlbs: Vec<Box<dyn TranslationBuffer>>,
    ) -> (Vec<PerSmFront>, SharedBack) {
        self.build_split_multi(vec![space], l1_tlbs)
    }

    /// [`HierarchyBuilder::build_split`] for co-runs: one address space
    /// per application, ASID `i` owning `spaces[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `l1_tlbs.len()` differs from the configured SM count, or
    /// if `spaces` is empty / mixes page sizes.
    pub fn build_split_multi(
        self,
        spaces: Vec<AddressSpace>,
        l1_tlbs: Vec<Box<dyn TranslationBuffer>>,
    ) -> (Vec<PerSmFront>, SharedBack) {
        assert_eq!(
            l1_tlbs.len(),
            self.config.num_sms,
            "one L1 TLB per SM required"
        );
        let fronts = l1_tlbs
            .into_iter()
            .enumerate()
            .map(|(sm, tlb)| PerSmFront::new(sm, tlb, &self.config))
            .collect();
        let back = SharedBack::new_multi(&self.config, spaces);
        (fronts, back)
    }

    /// [`HierarchyBuilder::build_split`] joined into one [`Hierarchy`].
    ///
    /// # Panics
    ///
    /// Panics if `l1_tlbs.len()` differs from the configured SM count.
    pub fn build(self, space: AddressSpace, l1_tlbs: Vec<Box<dyn TranslationBuffer>>) -> Hierarchy {
        let (fronts, back) = self.build_split(space, l1_tlbs);
        Hierarchy::from_split(fronts, back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, L2Policy};
    use tlb::TlbConfig;
    use vmem::VirtAddr;

    fn test_config(num_sms: usize) -> HierarchyConfig {
        HierarchyConfig {
            num_sms,
            l1_cache: CacheConfig::new(16 * 1024, 4, 128),
            l2_cache: CacheConfig::new(1536 * 1024, 8, 128),
            l2_tlb: TlbConfig::dac23_l2(),
            l2_tlb_slices: 1,
            l2_tlb_ports: 2,
            l2_tlb_port_occupancy: 1,
            walkers: 8,
            walk_latency: 500,
            walk_latency_per_level: 0,
            l1_hit_latency: 1,
            icnt_latency: 20,
            l2_hit_latency: 30,
            dram_latency: 200,
            demand_fault_latency: 2000,
            l2_policy: L2Policy::Shared,
        }
    }

    fn build(num_sms: usize) -> (Hierarchy, VirtAddr) {
        let mut space = AddressSpace::new(PageSize::Small);
        let buf = space.allocate("b", 1 << 20).expect("fresh space");
        let va = buf.addr_of(0);
        let tlbs: Vec<Box<dyn TranslationBuffer>> = (0..num_sms)
            .map(|_| {
                Box::new(tlb::SetAssocTlb::new(TlbConfig::dac23_l1()))
                    as Box<dyn TranslationBuffer>
            })
            .collect();
        (
            HierarchyBuilder::new(test_config(num_sms)).build(space, tlbs),
            va,
        )
    }

    fn access(va: VirtAddr, at: u64, sm: usize) -> Access {
        Access {
            at,
            sm,
            asid: Asid::default(),
            tb_slot: 0,
            va,
            vpn: va.vpn(PageSize::Small),
            page_size: PageSize::Small,
        }
    }

    #[test]
    fn walk_then_l1_hit_with_exact_baseline_timing() {
        let (mut h, va) = build(1);
        // Cold: L1 miss (1) + icnt (20) + L2 lookup (10) + walk (500) +
        // fault (2000) + icnt back (20).
        let t = h.translate(&access(va, 0, 0));
        assert_eq!(t.level, HitLevel::Walk);
        assert_eq!(t.ready_at, 1 + 20 + 10 + 500 + 2000 + 20);
        assert_eq!(t.breakdown.total(), t.ready_at);
        assert_eq!(t.breakdown.fault, 2000);
        assert_eq!(t.breakdown.walk, 500);
        // Warm: L1 hit, 1 cycle.
        let t2 = h.translate(&access(va, 10_000, 0));
        assert_eq!(t2.level, HitLevel::L1Tlb);
        assert_eq!(t2.ready_at, 10_001);
        assert_eq!(t2.breakdown.total(), 1);
        assert!(h.breakdown().check().is_ok());
        assert_eq!(h.breakdown().translations, 2);
    }

    #[test]
    fn l2_hit_path_fills_l1() {
        let (mut h, va) = build(2);
        // SM 0 walks the page in; the L2 TLB now holds it.
        h.translate(&access(va, 0, 0));
        // SM 1 misses its own L1 but hits the shared L2.
        let t = h.translate(&access(va, 5000, 1));
        assert_eq!(t.level, HitLevel::L2Tlb);
        assert_eq!(t.ready_at, 5000 + 1 + 20 + 10 + 20);
        assert_eq!(t.breakdown.walk + t.breakdown.fault, 0);
        // And SM 1's L1 was filled.
        let t2 = h.translate(&access(va, 9000, 1));
        assert_eq!(t2.level, HitLevel::L1Tlb);
        assert!(h.breakdown().check().is_ok());
    }

    #[test]
    fn port_contention_shows_up_as_queue_cycles() {
        let (mut h, va) = build(4);
        // Four SMs miss at the same cycle onto one slice with 2 ports:
        // grants at 21, 21, 22, 22 -> queue cycles 0, 0, 1, 1.
        let queued: u64 = (0..4)
            .map(|sm| h.translate(&access(va, 0, sm)).breakdown.l2_tlb_queue)
            .sum();
        assert_eq!(queued, 2);
        assert_eq!(h.breakdown().l2_tlb_queue_cycles, queued);
        assert!(h.breakdown().check().is_ok());
    }

    #[test]
    fn stage_stats_cover_the_pipeline() {
        let (mut h, va) = build(1);
        h.translate(&access(va, 0, 0));
        h.translate(&access(va, 5000, 0));
        let stats = h.stage_stats();
        let names: Vec<&str> = stats.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["l1_tlb", "icnt", "l2_tlb", "walker"]);
        assert_eq!(stats[0].1.accesses, 2, "both translations probe L1");
        assert_eq!(stats[3].1.accesses, 1, "only the cold one walks");
        // Two icnt hops for the one L1 miss.
        assert_eq!(stats[1].1.accesses, 2);
    }

    #[test]
    fn facade_and_split_agree_per_sm() {
        // The same accesses through the hierarchy and through explicit
        // split halves produce identical timing and identically merged
        // stats.
        let mut space_a = AddressSpace::new(PageSize::Small);
        let mut space_b = AddressSpace::new(PageSize::Small);
        let va = space_a.allocate("b", 1 << 20).expect("fresh space").addr_of(0);
        let _ = space_b.allocate("b", 1 << 20).expect("fresh space");
        let mk_tlbs = || -> Vec<Box<dyn TranslationBuffer>> {
            (0..2)
                .map(|_| {
                    Box::new(tlb::SetAssocTlb::new(TlbConfig::dac23_l1()))
                        as Box<dyn TranslationBuffer>
                })
                .collect()
        };
        let mut fused = HierarchyBuilder::new(test_config(2)).build(space_a, mk_tlbs());
        let (mut fronts, mut back) =
            HierarchyBuilder::new(test_config(2)).build_split(space_b, mk_tlbs());
        let accs = [access(va, 0, 0), access(va, 40, 1), access(va, 9000, 0)];
        for a in &accs {
            let t_fused = fused.translate(a);
            let front = &mut fronts[a.sm];
            let l1 = front.probe_translate(a);
            let t_split = match l1.ppn {
                Some(ppn) => Translation {
                    ppn,
                    ready_at: l1.ready_at,
                    level: HitLevel::L1Tlb,
                    breakdown: TranslationBreakdown {
                        l1_tlb: l1.service_cycles,
                        ..Default::default()
                    },
                },
                None => back.translate_miss(front, a, l1.ready_at, l1.service_cycles),
            };
            assert_eq!(t_fused.ready_at, t_split.ready_at);
            assert_eq!(t_fused.level, t_split.level);
        }
        let merged = fronts
            .iter()
            .fold(*back.breakdown(), |acc, f| acc + *f.breakdown());
        assert_eq!(fused.breakdown(), merged);
        assert!(merged.check().is_ok());
    }

    #[test]
    #[should_panic(expected = "one L1 TLB per SM")]
    fn builder_rejects_mismatched_tlb_count() {
        let space = AddressSpace::new(PageSize::Small);
        let _ = HierarchyBuilder::new(test_config(2)).build(space, Vec::new());
    }
}
