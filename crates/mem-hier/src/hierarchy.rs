//! The composed hierarchy and its private/shared state split.
//!
//! The paper's design keeps L1 TLBs SM-private while contention
//! concentrates at the shared L2 TLB and walker pool. This module draws
//! that ownership line and composes the two halves behind one call per
//! translation or data access:
//!
//! * [`PerSmFront`] — everything one SM touches exclusively: its private
//!   L1 TLB (plus that stage's activity stats and the L1-hit latency
//!   attribution) and its private VIPT L1 data cache.
//! * [`SharedBack`] — the order-sensitive shared stages: the
//!   interconnect, the sliced L2 TLB with port arbitration, the walker
//!   pool over the (mutating, PPN-allocating) address spaces, and the
//!   L2/DRAM data path. The order in which SMs reach it is part of what
//!   the goldens pin.
//! * [`Hierarchy`] — the fronts and the back joined, and the one
//!   accessor layer over both.
//!
//! Per-front accumulators ([`StageStats`], [`LatencyBreakdown`]) are
//! plain counter sums, so merging them over SMs is order-independent and
//! deterministic by construction.

use crate::breakdown::{LatencyBreakdown, TranslationBreakdown};
use crate::cache::{Cache, CacheStats};
use crate::config::HierarchyConfig;
use crate::stage::{request, Access, Outcome, StageStats};
use crate::stages::{IcntLink, L2Slice, L2TlbStage, WalkerStage};
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
        &self.back.l2_tlb.slices
    }

    /// Aggregate L2 TLB counters summed over slices.
    pub fn l2_tlb_stats(&self) -> TlbStats {
        self.back.l2_tlb.tlb_stats()
    }

    /// Per-ASID L2 TLB counters merged over slices, sorted by ASID.
    pub fn l2_tlb_stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        self.back.l2_tlb.tlb_stats_by_asid()
    }

    /// Per-SM L1 data-cache counters.
    pub fn l1_cache_stats(&self) -> Vec<CacheStats> {
        self.fronts.iter().map(|f| f.l1_data.stats()).collect()
    }

    /// Shared L2 data-cache counters.
    pub fn l2_cache_stats(&self) -> CacheStats {
        self.back.l2_data.stats()
    }

    /// Walker-pool activity counters.
    pub fn walker_stats(&self) -> WalkerStats {
        self.back.walker.pool.stats()
    }

    /// UVM demand faults taken.
    pub fn demand_faults(&self) -> u64 {
        self.back.walker.demand_faults
    }

    /// Coalesced line transactions issued on the data path.
    pub fn transactions(&self) -> u64 {
        self.fronts.iter().map(|f| f.transactions).sum()
    }

    /// Page size of the address spaces being translated (identical
    /// across co-running apps).
    pub fn page_size(&self) -> PageSize {
        self.back.walker.spaces[0].page_size()
    }

    /// Aggregate per-level latency attribution over every translation so
    /// far: the fronts' L1-hit share merged with the back's miss-path
    /// share (an order-independent counter sum).
    pub fn breakdown(&self) -> LatencyBreakdown {
        self.fronts
            .iter()
            .fold(self.back.breakdown, |acc, f| acc + f.breakdown)
    }
}

/// Config-driven constructor for the split halves of a [`Hierarchy`].
pub struct HierarchyBuilder {
    config: HierarchyConfig,
}

impl HierarchyBuilder {
    /// Starts a builder from the hierarchy geometry and latencies.
    pub fn new(config: HierarchyConfig) -> Self {
        HierarchyBuilder { config }
    }

    /// Assembles the pipeline as its private/shared halves, which
    /// [`Hierarchy::from_split`] joins: one front per externally built
    /// L1 TLB (the engine's pluggable-organization hook) and one shared
    /// back over one address space per application, ASID `i` owning
    /// `spaces[i]`.
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
}

/// One SM's private slice of the hierarchy: its L1 TLB and L1 data
/// cache, with the stats and latency attribution they generate. Owns no
/// shared state.
pub struct PerSmFront {
    sm: usize,
    l1_tlb: Box<dyn TranslationBuffer>,
    l1_stats: StageStats,
    l1_data: Cache,
    l1_hit_latency: u64,
    transactions: u64,
    /// L1-hit translations are attributed here; miss paths are
    /// attributed by the back. [`Hierarchy::breakdown`] sums the two
    /// shares (u64 sums are order-independent).
    breakdown: LatencyBreakdown,
}

impl PerSmFront {
    fn new(sm: usize, l1_tlb: Box<dyn TranslationBuffer>, config: &HierarchyConfig) -> Self {
        PerSmFront {
            sm,
            l1_tlb,
            l1_stats: StageStats::default(),
            l1_data: Cache::new(config.l1_cache),
            l1_hit_latency: config.l1_hit_latency,
            transactions: 0,
            breakdown: LatencyBreakdown::default(),
        }
    }

    /// The SM index this front belongs to.
    pub fn sm(&self) -> usize {
        self.sm
    }

    /// Probes the private L1 TLB. On a hit the translation is complete
    /// (and attributed); on a miss the caller completes it with
    /// [`SharedBack::translate_miss`], passing this outcome.
    fn probe_translate(&mut self, acc: &Access) -> Outcome {
        debug_assert_eq!(acc.sm, self.sm, "access routed to the wrong SM front");
        let out = self.l1_tlb.lookup(&request(acc));
        let ppn = if out.hit {
            Some(out.ppn.expect("hit carries ppn")) // simlint: allow(hot-unwrap, reason = "TlbOutcome::hit always carries a ppn")
        } else {
            None
        };
        let o = Outcome {
            ppn,
            ready_at: acc.at + out.latency,
            queue_cycles: 0,
            service_cycles: out.latency,
            fault_cycles: 0,
        };
        self.l1_stats.record(&o);
        debug_assert_eq!(o.ready_at, acc.at + o.latency());
        if o.ppn.is_some() {
            let b = TranslationBreakdown {
                l1_tlb: o.service_cycles,
                ..Default::default()
            };
            self.breakdown.record(&b, o.ready_at - acc.at);
        }
        o
    }

    /// Fills the private L1 TLB after a downstream resolution.
    fn fill(&mut self, acc: &Access, ppn: Ppn) {
        self.l1_tlb.insert(&request(acc), ppn);
    }

    /// Probes the private VIPT L1 data cache (in parallel with
    /// translation: `start` already accounts for PPN availability).
    /// Returns the completion cycle on a hit; `None` means the caller
    /// must take the shared L2/DRAM leg ([`SharedBack::data_miss`]).
    fn probe_data(&mut self, start: u64, pa: PhysAddr, write: bool) -> Option<u64> {
        self.transactions += 1;
        if self.l1_data.access(pa.raw(), write) {
            Some(start + self.l1_hit_latency)
        } else {
            None
        }
    }

    /// The private L1 TLB.
    pub fn tlb(&self) -> &dyn TranslationBuffer {
        self.l1_tlb.as_ref()
    }

    /// Mutable access to the private L1 TLB (kernel-launch flush,
    /// TB-slot retirement).
    pub fn tlb_mut(&mut self) -> &mut dyn TranslationBuffer {
        self.l1_tlb.as_mut()
    }

    /// Cross-checks the front's accounting: the latency attribution
    /// identity, the L1 TLB's own counter identity, and the structural
    /// couplings between the three independent accumulators (stage stats,
    /// TLB stats, breakdown). The sanitizer runs this at end of kernel;
    /// the differential harness leans on it to catch lost or
    /// double-counted translations.
    pub fn check_accounting(&self) -> Result<(), String> {
        self.breakdown.check()?;
        self.l1_tlb.stats().check()?;
        if self.l1_stats.resolved > self.l1_stats.accesses {
            return Err(format!(
                "L1 stage resolved {} of only {} accesses",
                self.l1_stats.resolved, self.l1_stats.accesses
            ));
        }
        // The front attributes exactly the L1-hit translations: one
        // breakdown entry per resolved stage access, with every cycle in
        // the l1_tlb component (miss paths are attributed by the back).
        if self.breakdown.translations != self.l1_stats.resolved {
            return Err(format!(
                "front attributed {} translations but the L1 stage resolved {}",
                self.breakdown.translations, self.l1_stats.resolved
            ));
        }
        if self.breakdown.stage_sum() != self.breakdown.l1_tlb_cycles {
            return Err(format!(
                "front attribution leaked {} cycles outside the l1_tlb component",
                self.breakdown.stage_sum() - self.breakdown.l1_tlb_cycles
            ));
        }
        // Every stage access is one TLB lookup and vice versa (lookups
        // survive kernel-launch flushes: neither accumulator resets).
        let lookups = self.l1_tlb.stats().lookups;
        if lookups != self.l1_stats.accesses {
            return Err(format!(
                "L1 TLB counted {lookups} lookups but the stage recorded {} accesses",
                self.l1_stats.accesses
            ));
        }
        Ok(())
    }
}

/// The shared, order-sensitive half of the hierarchy: interconnect,
/// sliced L2 TLB, walker pool (owning the address spaces), and the
/// L2/DRAM data path.
pub struct SharedBack {
    icnt: IcntLink,
    l2_tlb: L2TlbStage,
    walker: WalkerStage,
    l2_data: Cache,
    l2_hit_latency: u64,
    dram_latency: u64,
    /// Miss-path translations are attributed here (the fronts hold the
    /// L1-hit share).
    breakdown: LatencyBreakdown,
}

impl SharedBack {
    /// Assembles the shared stages around one address space per
    /// co-running app (ASID `i` owns `spaces[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `spaces` is empty or disagrees on page size (via
    /// [`WalkerStage::new_multi`]).
    fn new_multi(config: &HierarchyConfig, spaces: Vec<AddressSpace>) -> Self {
        SharedBack {
            icnt: IcntLink::new(config.icnt_latency),
            l2_tlb: L2TlbStage::new(
                config.l2_tlb,
                config.l2_tlb_slices,
                config.l2_tlb_ports,
                config.l2_tlb_port_occupancy,
                config.l2_policy,
            ),
            walker: WalkerStage::new_multi(
                spaces,
                config.walkers,
                config.walk_latency,
                config.walk_latency_per_level,
                config.demand_fault_latency,
            ),
            l2_data: Cache::new(config.l2_cache),
            l2_hit_latency: config.l2_hit_latency,
            dram_latency: config.dram_latency,
            breakdown: LatencyBreakdown::default(),
        }
    }

    /// Completes a translation after `front`'s L1 probe missed: icnt hop
    /// to the owning L2 slice, port grant + lookup, a walk (with UVM
    /// first-touch faulting) on L2 miss, fills propagating back up (L2
    /// slice first, then the requesting SM's L1 — fill order matters for
    /// eviction stats), and the icnt hop back.
    fn translate_miss(
        &mut self,
        front: &mut PerSmFront,
        acc: &Access,
        l1_ready_at: u64,
        l1_service_cycles: u64,
    ) -> Translation {
        let hop = self.icnt.access(&acc.arriving_at(l1_ready_at));
        let l2 = self.l2_tlb.access(&acc.arriving_at(hop.ready_at));
        debug_assert_eq!(l2.ready_at, hop.ready_at + l2.latency());
        let mut breakdown = TranslationBreakdown {
            l1_tlb: l1_service_cycles,
            l2_tlb_queue: l2.queue_cycles,
            l2_tlb_lookup: l2.service_cycles,
            ..Default::default()
        };
        let (ppn, resolved_at, level) = match l2.ppn {
            Some(ppn) => (ppn, l2.ready_at, HitLevel::L2Tlb),
            None => {
                let walk = self.walker.access(&acc.arriving_at(l2.ready_at));
                debug_assert_eq!(walk.ready_at, l2.ready_at + walk.latency());
                let ppn = walk.ppn.expect("completed walks always resolve a frame"); // simlint: allow(hot-unwrap, reason = "WalkerStage::access always returns Some per its panic contract")
                self.l2_tlb.fill(acc, ppn);
                breakdown.walk = walk.queue_cycles + walk.service_cycles;
                breakdown.fault = walk.fault_cycles;
                (ppn, walk.ready_at, HitLevel::Walk)
            }
        };
        front.fill(acc, ppn);
        let back = self.icnt.access(&acc.arriving_at(resolved_at));
        breakdown.icnt = hop.service_cycles + back.service_cycles;
        self.breakdown.record(&breakdown, back.ready_at - acc.at);
        Translation {
            ppn,
            ready_at: back.ready_at,
            level,
            breakdown,
        }
    }

    /// The shared L2/DRAM leg of a data transaction that missed its
    /// private L1.
    fn data_miss(&mut self, start: u64, pa: PhysAddr, write: bool) -> u64 {
        let hops = 2 * self.icnt.latency + self.l2_hit_latency;
        if self.l2_data.access(pa.raw(), write) {
            start + hops
        } else {
            start + hops + self.dram_latency
        }
    }

    /// Activity counters of the shared translation stages, in pipeline
    /// order (the `l1_tlb` stage lives on the fronts).
    fn stage_stats(&self) -> [(&'static str, StageStats); 3] {
        [
            ("icnt", self.icnt.stats),
            ("l2_tlb", self.l2_tlb.stats),
            ("walker", self.walker.stats),
        ]
    }

    /// Cross-checks the back's accounting: the miss-path latency
    /// attribution identity, every L2 TLB slice's counter identity, and
    /// each shared stage's resolution bound. Companion to
    /// [`PerSmFront::check_accounting`]; the sanitizer runs both at end
    /// of kernel.
    pub fn check_accounting(&self) -> Result<(), String> {
        let slices: Vec<TlbStats> = self.l2_tlb.slices.iter().map(L2Slice::stats).collect();
        check_shared(&self.breakdown, &slices, &self.stage_stats())
    }
}

/// The body of [`SharedBack::check_accounting`], over the accumulators
/// it reads: the miss-path breakdown, each L2 TLB slice's counters, and
/// the shared stages' stats in pipeline order.
fn check_shared(
    breakdown: &LatencyBreakdown,
    slices: &[TlbStats],
    stages: &[(&'static str, StageStats)],
) -> Result<(), String> {
    breakdown.check()?;
    for (i, stats) in slices.iter().enumerate() {
        stats
            .check()
            .map_err(|e| format!("L2 TLB slice {i}: {e}"))?;
    }
    for (name, s) in stages {
        if s.resolved > s.accesses {
            return Err(format!(
                "stage '{name}' resolved {} of only {} accesses",
                s.resolved, s.accesses
            ));
        }
        if *name == "icnt" && s.resolved != 0 {
            return Err(format!(
                "interconnect is a pure forwarding stage but resolved {} accesses",
                s.resolved
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, L2Policy};
    use tlb::{SetAssocTlb, TlbConfig};
    use vmem::{VirtAddr, Vpn};

    fn config(num_sms: usize) -> HierarchyConfig {
        HierarchyConfig {
            num_sms,
            l1_cache: CacheConfig::new(512, 2, 128),
            l2_cache: CacheConfig::new(1024, 2, 128),
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

    fn front(sm: usize) -> PerSmFront {
        PerSmFront::new(
            sm,
            Box::new(SetAssocTlb::new(TlbConfig::dac23_l1())),
            &config(1),
        )
    }

    fn acc(at: u64, vpn: u64) -> Access {
        Access {
            at,
            sm: 0,
            asid: Asid::default(),
            tb_slot: 0,
            va: Vpn::new(vpn).base_addr(PageSize::Small),
            vpn: Vpn::new(vpn),
            page_size: PageSize::Small,
        }
    }

    #[test]
    fn front_probe_miss_then_hit_after_fill() {
        let mut f = front(0);
        let a = acc(0, 7);
        let miss = f.probe_translate(&a);
        assert!(miss.ppn.is_none());
        assert_eq!(miss.ready_at, 1, "1-cycle lookup");
        f.fill(&a, Ppn::new(3));
        let hit = f.probe_translate(&a.arriving_at(10));
        assert_eq!(hit.ppn, Some(Ppn::new(3)));
        assert_eq!(hit.ready_at, 11);
        assert_eq!(f.l1_stats.accesses, 2);
        assert_eq!(f.l1_stats.resolved, 1);
        // Only the hit was attributed (the miss path attributes at the
        // back).
        assert_eq!(f.breakdown.translations, 1);
        assert_eq!(f.breakdown.l1_tlb_cycles, 1);
    }

    #[test]
    fn front_data_probe_hits_after_first_touch() {
        let mut f = front(0);
        let pa = PhysAddr::new(0);
        assert_eq!(f.probe_data(0, pa, false), None, "cold miss");
        assert_eq!(f.probe_data(10, pa, false), Some(11), "L1 hit, +1 cycle");
        assert_eq!(f.transactions, 2);
        assert_eq!(f.l1_data.stats().accesses(), 2);
    }

    #[test]
    fn back_data_miss_latencies_by_level() {
        let mut space = AddressSpace::new(PageSize::Small);
        let _ = space.allocate("b", 1 << 16).expect("fresh space");
        let mut b = SharedBack::new_multi(&config(1), vec![space]);
        let pa = PhysAddr::new(0);
        // Cold: L2 miss -> DRAM.
        assert_eq!(b.data_miss(0, pa, false), 20 + 30 + 200 + 20);
        // L2 now holds the line.
        assert_eq!(b.data_miss(0, pa, false), 20 + 30 + 20);
    }

    #[test]
    fn translate_miss_walks_fills_and_attributes() {
        let mut space = AddressSpace::new(PageSize::Small);
        let buf = space.allocate("b", 1 << 20).expect("fresh space");
        let va = buf.addr_of(0);
        let mut f = front(0);
        let mut b = SharedBack::new_multi(&config(1), vec![space]);
        let a = Access {
            va,
            vpn: va.vpn(PageSize::Small),
            ..acc(0, 0)
        };
        let l1 = f.probe_translate(&a);
        assert!(l1.ppn.is_none());
        let t = b.translate_miss(&mut f, &a, l1.ready_at, l1.service_cycles);
        assert_eq!(t.level, HitLevel::Walk);
        assert_eq!(t.ready_at, 1 + 20 + 10 + 500 + 2000 + 20);
        assert_eq!(t.breakdown.total(), t.ready_at);
        // The fill landed in the front's L1.
        let warm = f.probe_translate(&a.arriving_at(10_000));
        assert_eq!(warm.ppn, Some(t.ppn));
        // Front holds the hit attribution, back holds the miss path;
        // together they cover both translations.
        let merged = f.breakdown + b.breakdown;
        assert_eq!(merged.translations, 2);
        assert!(merged.check().is_ok());
    }

    #[test]
    fn co_run_back_keeps_address_spaces_apart() {
        // Two apps with twin layouts translate the same VA through one
        // shared back: each walks its own page table (two demand faults)
        // and the L2 TLB never serves one app the other's entry.
        let mut spaces = Vec::new();
        let mut va = None;
        for _ in 0..2 {
            let mut s = AddressSpace::new(PageSize::Small);
            let buf = s.allocate("b", 1 << 20).expect("fresh space");
            va = Some(buf.addr_of(0));
            spaces.push(s);
        }
        let va = va.expect("allocated");
        let mut b = SharedBack::new_multi(&config(1), spaces);
        let mut f = front(0);
        let mk = |asid: u16, at: u64| Access {
            va,
            vpn: va.vpn(PageSize::Small),
            asid: Asid::new(asid),
            ..acc(at, 0)
        };
        let a0 = mk(0, 0);
        let l1 = f.probe_translate(&a0);
        let t0 = b.translate_miss(&mut f, &a0, l1.ready_at, l1.service_cycles);
        let a1 = mk(1, 0);
        let l1 = f.probe_translate(&a1);
        let t1 = b.translate_miss(&mut f, &a1, l1.ready_at, l1.service_cycles);
        assert_eq!(
            b.walker.demand_faults, 2,
            "each app first-touches its own page"
        );
        assert_eq!(t1.level, HitLevel::Walk, "no cross-ASID L2 hit");
        // Warm lookups resolve per-app from the tagged L1.
        assert_eq!(f.probe_translate(&mk(0, 9_000)).ppn, Some(t0.ppn));
        assert_eq!(f.probe_translate(&mk(1, 9_500)).ppn, Some(t1.ppn));
        let by = b.l2_tlb.tlb_stats_by_asid();
        assert_eq!(by.len(), 2);
        let agg = by.iter().fold(TlbStats::default(), |s, (_, t)| s + *t);
        assert_eq!(agg, b.l2_tlb.tlb_stats());
        f.check_accounting().expect("front accounting holds");
        b.check_accounting().expect("back accounting holds");
    }

    #[test]
    fn accounting_holds_through_a_cold_walk_and_warm_hit() {
        let mut space = AddressSpace::new(PageSize::Small);
        let buf = space.allocate("b", 1 << 20).expect("fresh space");
        let va = buf.addr_of(0);
        let mut f = front(0);
        let mut b = SharedBack::new_multi(&config(1), vec![space]);
        let a = Access {
            va,
            vpn: va.vpn(PageSize::Small),
            ..acc(0, 0)
        };
        let l1 = f.probe_translate(&a);
        b.translate_miss(&mut f, &a, l1.ready_at, l1.service_cycles);
        f.probe_translate(&a.arriving_at(10_000));
        f.check_accounting().expect("front accounting holds");
        b.check_accounting().expect("back accounting holds");
    }

    /// A back after one cold walk, with every accumulator non-zero.
    fn walked_back() -> SharedBack {
        let mut space = AddressSpace::new(PageSize::Small);
        let va = space
            .allocate("b", 1 << 20)
            .expect("fresh space")
            .addr_of(0);
        let mut f = front(0);
        let mut b = SharedBack::new_multi(&config(1), vec![space]);
        let a = Access {
            va,
            vpn: va.vpn(PageSize::Small),
            ..acc(0, 0)
        };
        let l1 = f.probe_translate(&a);
        b.translate_miss(&mut f, &a, l1.ready_at, l1.service_cycles);
        b.check_accounting().expect("back accounting holds");
        b
    }

    #[test]
    fn back_accounting_catches_a_broken_breakdown() {
        let mut b = walked_back();
        b.breakdown.end_to_end_cycles += 1;
        let e = b.check_accounting().unwrap_err();
        assert!(e.contains("per-level sums"), "{e}");
    }

    #[test]
    fn back_accounting_catches_a_broken_l2_slice() {
        let b = walked_back();
        let mut slice = TlbStats::default();
        slice.record(false);
        slice.hits += 1;
        let e = check_shared(
            &b.breakdown,
            &[TlbStats::default(), slice],
            &b.stage_stats(),
        )
        .unwrap_err();
        assert!(
            e.starts_with("L2 TLB slice 1: hits (1) + misses (1)"),
            "{e}"
        );
    }

    #[test]
    fn back_accounting_catches_a_stage_resolving_too_much() {
        let mut b = walked_back();
        b.walker.stats.resolved = b.walker.stats.accesses + 1;
        let e = b.check_accounting().unwrap_err();
        assert!(
            e.contains("stage 'walker' resolved 2 of only 1 accesses"),
            "{e}"
        );
    }

    #[test]
    fn back_accounting_catches_an_interconnect_that_resolved() {
        let mut b = walked_back();
        b.icnt.stats.resolved = 1;
        let e = b.check_accounting().unwrap_err();
        assert!(
            e.contains("interconnect is a pure forwarding stage but resolved 1"),
            "{e}"
        );
    }

    #[test]
    fn front_accounting_catches_a_lost_translation() {
        let mut f = front(0);
        let a = acc(0, 7);
        f.probe_translate(&a);
        f.fill(&a, Ppn::new(3));
        f.probe_translate(&a.arriving_at(10));
        // Corrupt the coupling: pretend the hit was never attributed.
        f.breakdown = LatencyBreakdown::default();
        let e = f.check_accounting().unwrap_err();
        assert!(e.contains("attributed 0 translations"), "{e}");
    }

    #[test]
    fn routing_to_the_wrong_front_is_caught_in_debug() {
        let mut f = front(3);
        let a = acc(0, 1); // access says SM 0, front is SM 3
        let probe =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.probe_translate(&a)));
        if cfg!(debug_assertions) {
            assert!(probe.is_err(), "wrong-front routing must be caught");
        } else {
            assert!(probe.is_ok());
        }
    }

    #[test]
    fn virt_addr_page_offset_helper_consistency() {
        // The engine builds each line's PA from its ppn + page offset;
        // confirm the offset round-trips through VirtAddr.
        let va = VirtAddr::new(0x1234);
        assert_eq!(va.page_offset(PageSize::Small), 0x234);
    }

    fn build(num_sms: usize) -> (Hierarchy, VirtAddr) {
        let mut space = AddressSpace::new(PageSize::Small);
        let buf = space.allocate("b", 1 << 20).expect("fresh space");
        let va = buf.addr_of(0);
        let tlbs: Vec<Box<dyn TranslationBuffer>> = (0..num_sms)
            .map(|_| {
                Box::new(tlb::SetAssocTlb::new(TlbConfig::dac23_l1())) as Box<dyn TranslationBuffer>
            })
            .collect();
        let (fronts, back) =
            HierarchyBuilder::new(config(num_sms)).build_split_multi(vec![space], tlbs);
        (Hierarchy::from_split(fronts, back), va)
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

    /// Activity counters per translation stage, in pipeline order, the
    /// per-SM L1 TLB counters summed into one `l1_tlb` entry.
    fn stage_stats(h: &Hierarchy) -> Vec<(&'static str, StageStats)> {
        let l1 = h.fronts.iter().fold(StageStats::default(), |acc, f| {
            let s = f.l1_stats;
            StageStats {
                accesses: acc.accesses + s.accesses,
                resolved: acc.resolved + s.resolved,
                queue_cycles: acc.queue_cycles + s.queue_cycles,
                service_cycles: acc.service_cycles + s.service_cycles,
            }
        });
        let mut stats = vec![("l1_tlb", l1)];
        stats.extend(h.back.stage_stats());
        stats
    }

    #[test]
    fn stage_stats_cover_the_pipeline() {
        let (mut h, va) = build(1);
        h.translate(&access(va, 0, 0));
        h.translate(&access(va, 5000, 0));
        let stats = stage_stats(&h);
        let names: Vec<&str> = stats.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["l1_tlb", "icnt", "l2_tlb", "walker"]);
        assert_eq!(stats[0].1.accesses, 2, "both translations probe L1");
        assert_eq!(stats[3].1.accesses, 1, "only the cold one walks");
        // Two icnt hops for the one L1 miss.
        assert_eq!(stats[1].1.accesses, 2);
    }

    #[test]
    #[should_panic(expected = "one L1 TLB per SM")]
    fn builder_rejects_mismatched_tlb_count() {
        let space = AddressSpace::new(PageSize::Small);
        let _ = HierarchyBuilder::new(config(2)).build_split_multi(vec![space], Vec::new());
    }
}
