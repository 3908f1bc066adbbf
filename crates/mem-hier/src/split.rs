//! The private/shared state split of the hierarchy.
//!
//! The paper's design keeps L1 TLBs SM-private while contention
//! concentrates at the shared L2 TLB and walker pool. The engine's
//! two-phase event loop follows that split, and this module factors the
//! pipeline into:
//!
//! * [`PerSmFront`] — everything one SM touches exclusively: its private
//!   L1 TLB (plus that stage's activity stats and the L1-hit latency
//!   attribution) and its private VIPT L1 data cache. Phase A steps it.
//! * [`SharedBack`] — the order-sensitive shared stages: the
//!   interconnect, the sliced L2 TLB with port arbitration, the walker
//!   pool over the (mutating, PPN-allocating) address space, and the
//!   L2/DRAM data path. Phase B applies these in SM-index order; that
//!   order is part of what the goldens pin.
//! * [`SharedRequest`] — the explicit boundary type: the work a phase-A
//!   step defers to phase B.
//!
//! Per-front accumulators ([`StageStats`], [`LatencyBreakdown`]) are
//! plain counter sums, so merging them over SMs is order-independent and
//! deterministic by construction.

use crate::breakdown::{LatencyBreakdown, TranslationBreakdown};
use crate::cache::{Cache, CacheStats};
use crate::config::HierarchyConfig;
use crate::hierarchy::{HitLevel, Translation};
use crate::stage::{Access, Outcome, Stage, StageStats};
use crate::stages::{IcntLink, L2Slice, L2TlbStage, WalkerStage};
use tlb::{TlbRequest, TlbStats, TranslationBuffer};
use vmem::{AddressSpace, Asid, PageSize, PhysAddr, Ppn, WalkerStats};

fn request(acc: &Access) -> TlbRequest {
    TlbRequest::with_page_size(acc.vpn, acc.tb_slot, acc.page_size).with_asid(acc.asid)
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
    /// attributed by the back. The merged sum equals the serial engine's
    /// single accumulator exactly (u64 sums are order-independent).
    breakdown: LatencyBreakdown,
}

impl PerSmFront {
    /// Builds SM `sm`'s front around an externally built L1 TLB.
    pub fn new(sm: usize, l1_tlb: Box<dyn TranslationBuffer>, config: &HierarchyConfig) -> Self {
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
    /// (and attributed); on a miss the caller routes a
    /// [`SharedRequest::TranslateMiss`] carrying this outcome to the
    /// back.
    pub fn probe_translate(&mut self, acc: &Access) -> Outcome {
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
    pub fn fill(&mut self, acc: &Access, ppn: Ppn) {
        self.l1_tlb.insert(&request(acc), ppn);
    }

    /// Probes the private VIPT L1 data cache (in parallel with
    /// translation: `start` already accounts for PPN availability).
    /// Returns the completion cycle on a hit; `None` means the caller
    /// must take the shared L2/DRAM leg ([`SharedBack::data_miss`]).
    pub fn probe_data(&mut self, start: u64, pa: PhysAddr, write: bool) -> Option<u64> {
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

    /// This front's share of the `l1_tlb` stage activity.
    pub fn l1_stage_stats(&self) -> StageStats {
        self.l1_stats
    }

    /// This front's L1 data-cache counters.
    pub fn l1_cache_stats(&self) -> CacheStats {
        self.l1_data.stats()
    }

    /// Coalesced line transactions this front issued.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// This front's share of the latency attribution (L1-hit
    /// translations).
    pub fn breakdown(&self) -> &LatencyBreakdown {
        &self.breakdown
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

/// Reference to a translation a deferred data access depends on: either
/// already resolved in phase A (an L1 TLB hit or a same-instruction
/// duplicate), or the index of an earlier translate request in the same
/// outbox.
#[derive(Copy, Clone, Debug)]
pub enum TranslationRef {
    /// Resolved in phase A: the frame and the cycle it became available.
    Resolved {
        /// Translated frame.
        ppn: Ppn,
        /// Cycle the PPN was available back at the SM.
        ready_at: u64,
    },
    /// Index into the outbox's translate-request results, in push order.
    Pending(u32),
}

/// One unit of shared-stage work a phase-A SM step defers to phase B.
/// Drained in SM-index order (and in push order within an SM), which
/// reproduces the serial engine's operation order on every shared
/// structure exactly.
#[derive(Copy, Clone, Debug)]
pub enum SharedRequest {
    /// Complete a translation whose private L1 probe already ran (and
    /// missed) in phase A: icnt hop, L2 TLB, walk if needed, fills, icnt
    /// back.
    TranslateMiss {
        /// The original access.
        acc: Access,
        /// When the phase-A L1 probe's miss verdict was ready.
        l1_ready_at: u64,
        /// Service cycles the phase-A L1 probe consumed.
        l1_service_cycles: u64,
    },
    /// Replay a translation in full (its L1 probe was deferred behind an
    /// earlier miss in the same SM step, preserving per-TLB operation
    /// order).
    TranslateReplay {
        /// The original access.
        acc: Access,
    },
    /// The shared L2/DRAM leg of a data access whose private L1 probe
    /// missed in phase A.
    DataBack {
        /// Cycle the transaction left the SM.
        start: u64,
        /// Translated line address.
        pa: PhysAddr,
        /// Store (true) or load.
        write: bool,
    },
    /// Replay a data access in full: its start cycle depends on a
    /// translation resolved in phase B.
    DataReplay {
        /// The translation this line waits on.
        translation: TranslationRef,
        /// Lower bound on the start cycle (the LSU's one-per-cycle
        /// transaction slot).
        min_start: u64,
        /// Byte offset of the line within its page.
        page_offset: u64,
        /// Store (true) or load.
        write: bool,
    },
}

impl SharedRequest {
    /// The access of a translate request (`None` for data requests);
    /// used by the engine's phase-B sanitizer hook.
    pub fn translate_acc(&self) -> Option<&Access> {
        match self {
            SharedRequest::TranslateMiss { acc, .. } | SharedRequest::TranslateReplay { acc } => {
                Some(acc)
            }
            _ => None,
        }
    }
}

/// What applying one [`SharedRequest`] produced.
#[derive(Copy, Clone, Debug)]
pub struct SharedResponse {
    /// Resolved frame for translate requests, `None` for data requests.
    pub ppn: Option<Ppn>,
    /// Completion cycle: PPN availability for translations, transaction
    /// completion for data accesses.
    pub ready_at: u64,
    /// Whether this request filled the SM's private L1 TLB (drives the
    /// engine's post-fill sanitizer check, exactly as the serial path).
    pub filled_l1: bool,
}

/// The shared, order-sensitive half of the hierarchy: interconnect,
/// sliced L2 TLB, walker pool (owning the address space), and the
/// L2/DRAM data path. Phase B applies it in SM-index order.
pub struct SharedBack {
    icnt: IcntLink,
    l2_tlb: L2TlbStage,
    walker: WalkerStage,
    l2_data: Cache,
    icnt_latency: u64,
    l2_hit_latency: u64,
    dram_latency: u64,
    /// Miss-path translations are attributed here (the fronts hold the
    /// L1-hit share).
    breakdown: LatencyBreakdown,
}

impl SharedBack {
    /// Assembles the shared stages from the hierarchy geometry around a
    /// single address space (the solo-run shape).
    pub fn new(config: &HierarchyConfig, space: AddressSpace) -> Self {
        Self::new_multi(config, vec![space])
    }

    /// Assembles the shared stages around one address space per
    /// co-running app (ASID `i` owns `spaces[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `spaces` is empty or disagrees on page size (via
    /// [`WalkerStage::new_multi`]).
    pub fn new_multi(config: &HierarchyConfig, spaces: Vec<AddressSpace>) -> Self {
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
            icnt_latency: config.icnt_latency,
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
    pub fn translate_miss(
        &mut self,
        front: &mut PerSmFront,
        acc: &Access,
        l1_ready_at: u64,
        l1_service_cycles: u64,
    ) -> Translation {
        let hop = self.icnt.access(&acc.arriving_at(l1_ready_at));
        let l2 = self.l2_tlb.access(&acc.arriving_at(hop.ready_at));
        debug_assert_eq!(l2.ready_at, hop.ready_at + l2.latency());
        if let Some(ppn) = l2.ppn {
            front.fill(acc, ppn);
            let back = self.icnt.access(&acc.arriving_at(l2.ready_at));
            let breakdown = TranslationBreakdown {
                l1_tlb: l1_service_cycles,
                icnt: hop.service_cycles + back.service_cycles,
                l2_tlb_queue: l2.queue_cycles,
                l2_tlb_lookup: l2.service_cycles,
                ..Default::default()
            };
            self.breakdown.record(&breakdown, back.ready_at - acc.at);
            return Translation {
                ppn,
                ready_at: back.ready_at,
                level: HitLevel::L2Tlb,
                breakdown,
            };
        }

        let walk = self.walker.access(&acc.arriving_at(l2.ready_at));
        debug_assert_eq!(walk.ready_at, l2.ready_at + walk.latency());
        let ppn = walk.ppn.expect("completed walks always resolve a frame"); // simlint: allow(hot-unwrap, reason = "WalkerStage::access always returns Some per its panic contract")
        self.l2_tlb.fill(acc, ppn);
        front.fill(acc, ppn);
        let back = self.icnt.access(&acc.arriving_at(walk.ready_at));
        let breakdown = TranslationBreakdown {
            l1_tlb: l1_service_cycles,
            icnt: hop.service_cycles + back.service_cycles,
            l2_tlb_queue: l2.queue_cycles,
            l2_tlb_lookup: l2.service_cycles,
            walk: walk.queue_cycles + walk.service_cycles,
            fault: walk.fault_cycles,
        };
        self.breakdown.record(&breakdown, back.ready_at - acc.at);
        Translation {
            ppn,
            ready_at: back.ready_at,
            level: HitLevel::Walk,
            breakdown,
        }
    }

    /// The shared L2/DRAM leg of a data transaction that missed its
    /// private L1.
    pub fn data_miss(&mut self, start: u64, pa: PhysAddr, write: bool) -> u64 {
        let at_l2 = start + self.icnt_latency;
        if self.l2_data.access(pa.raw(), write) {
            at_l2 + self.l2_hit_latency + self.icnt_latency
        } else {
            at_l2 + self.l2_hit_latency + self.dram_latency + self.icnt_latency
        }
    }

    /// Applies one deferred request against this back and the issuing
    /// SM's front. `resolved` holds the results of this outbox's earlier
    /// translate requests, in push order (the engine appends each
    /// translate response before applying later requests).
    pub fn apply(
        &mut self,
        front: &mut PerSmFront,
        req: &SharedRequest,
        resolved: &[(Ppn, u64)],
    ) -> SharedResponse {
        match *req {
            SharedRequest::TranslateMiss {
                ref acc,
                l1_ready_at,
                l1_service_cycles,
            } => {
                let t = self.translate_miss(front, acc, l1_ready_at, l1_service_cycles);
                SharedResponse {
                    ppn: Some(t.ppn),
                    ready_at: t.ready_at,
                    filled_l1: true,
                }
            }
            SharedRequest::TranslateReplay { ref acc } => {
                let l1 = front.probe_translate(acc);
                match l1.ppn {
                    Some(ppn) => SharedResponse {
                        ppn: Some(ppn),
                        ready_at: l1.ready_at,
                        filled_l1: false,
                    },
                    None => {
                        let t =
                            self.translate_miss(front, acc, l1.ready_at, l1.service_cycles);
                        SharedResponse {
                            ppn: Some(t.ppn),
                            ready_at: t.ready_at,
                            filled_l1: true,
                        }
                    }
                }
            }
            SharedRequest::DataBack { start, pa, write } => SharedResponse {
                ppn: None,
                ready_at: self.data_miss(start, pa, write),
                filled_l1: false,
            },
            SharedRequest::DataReplay {
                translation,
                min_start,
                page_offset,
                write,
            } => {
                let (ppn, t_ready) = match translation {
                    TranslationRef::Resolved { ppn, ready_at } => (ppn, ready_at),
                    TranslationRef::Pending(i) => resolved[i as usize],
                };
                let start = t_ready.max(min_start);
                let page_size = self.page_size();
                let pa = PhysAddr::from_parts(ppn, page_offset, page_size);
                let done = match front.probe_data(start, pa, write) {
                    Some(done) => done,
                    None => self.data_miss(start, pa, write),
                };
                SharedResponse {
                    ppn: None,
                    ready_at: done,
                    filled_l1: false,
                }
            }
        }
    }

    /// The L2 TLB slices, in interleave order.
    pub fn l2_slices(&self) -> &[L2Slice] {
        self.l2_tlb.slices()
    }

    /// Aggregate L2 TLB counters summed over slices.
    pub fn l2_tlb_stats(&self) -> TlbStats {
        self.l2_tlb.tlb_stats()
    }

    /// Per-ASID L2 TLB counters merged over slices, sorted by ASID.
    pub fn l2_tlb_stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        self.l2_tlb.tlb_stats_by_asid()
    }

    /// L2 fills that bypassed their slice on exhausted MASK tokens.
    pub fn l2_token_bypasses(&self) -> u64 {
        self.l2_tlb.token_bypasses()
    }

    /// Shared L2 data-cache counters.
    pub fn l2_cache_stats(&self) -> CacheStats {
        self.l2_data.stats()
    }

    /// Walker-pool activity counters.
    pub fn walker_stats(&self) -> WalkerStats {
        self.walker.walker_stats()
    }

    /// UVM demand faults taken.
    pub fn demand_faults(&self) -> u64 {
        self.walker.demand_faults()
    }

    /// Page size of the address space being translated.
    pub fn page_size(&self) -> PageSize {
        self.walker.page_size()
    }

    /// The address space being translated (ASID 0's in a co-run).
    pub fn space(&self) -> &AddressSpace {
        self.walker.space()
    }

    /// All address spaces, indexed by ASID.
    pub fn spaces(&self) -> &[AddressSpace] {
        self.walker.spaces()
    }

    /// The back's share of the latency attribution (miss-path
    /// translations).
    pub fn breakdown(&self) -> &LatencyBreakdown {
        &self.breakdown
    }

    /// Activity counters of the shared translation stages, in pipeline
    /// order (the `l1_tlb` stage lives on the fronts).
    pub fn stage_stats(&self) -> Vec<(&'static str, StageStats)> {
        vec![
            (self.icnt.name(), self.icnt.stats()),
            (self.l2_tlb.name(), self.l2_tlb.stats()),
            (self.walker.name(), self.walker.stats()),
        ]
    }

    /// Cross-checks the back's accounting: the miss-path latency
    /// attribution identity, every L2 TLB slice's counter identity, and
    /// each shared stage's resolution bound. Companion to
    /// [`PerSmFront::check_accounting`]; the sanitizer runs both at end
    /// of kernel.
    pub fn check_accounting(&self) -> Result<(), String> {
        self.breakdown.check()?;
        for (i, slice) in self.l2_slices().iter().enumerate() {
            slice
                .stats()
                .check()
                .map_err(|e| format!("L2 TLB slice {i}: {e}"))?;
        }
        for (name, s) in self.stage_stats() {
            if s.resolved > s.accesses {
                return Err(format!(
                    "stage '{name}' resolved {} of only {} accesses",
                    s.resolved, s.accesses
                ));
            }
            if name == "icnt" && s.resolved != 0 {
                return Err(format!(
                    "interconnect is a pure forwarding stage but resolved {} accesses",
                    s.resolved
                ));
            }
        }
        Ok(())
    }
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
        assert_eq!(f.l1_stage_stats().accesses, 2);
        assert_eq!(f.l1_stage_stats().resolved, 1);
        // Only the hit was attributed (the miss path attributes at the
        // back).
        assert_eq!(f.breakdown().translations, 1);
        assert_eq!(f.breakdown().l1_tlb_cycles, 1);
    }

    #[test]
    fn front_data_probe_hits_after_first_touch() {
        let mut f = front(0);
        let pa = PhysAddr::new(0);
        assert_eq!(f.probe_data(0, pa, false), None, "cold miss");
        assert_eq!(f.probe_data(10, pa, false), Some(11), "L1 hit, +1 cycle");
        assert_eq!(f.transactions(), 2);
        assert_eq!(f.l1_cache_stats().accesses(), 2);
    }

    #[test]
    fn back_data_miss_latencies_by_level() {
        let mut space = AddressSpace::new(PageSize::Small);
        let _ = space.allocate("b", 1 << 16).expect("fresh space");
        let mut b = SharedBack::new(&config(1), space);
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
        let mut b = SharedBack::new(&config(1), space);
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
        let merged = *f.breakdown() + *b.breakdown();
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
        assert_eq!(b.demand_faults(), 2, "each app first-touches its own page");
        assert_eq!(t1.level, HitLevel::Walk, "no cross-ASID L2 hit");
        // Warm lookups resolve per-app from the tagged L1.
        assert_eq!(f.probe_translate(&mk(0, 9_000)).ppn, Some(t0.ppn));
        assert_eq!(f.probe_translate(&mk(1, 9_500)).ppn, Some(t1.ppn));
        let by = b.l2_tlb_stats_by_asid();
        assert_eq!(by.len(), 2);
        let agg = by.iter().fold(TlbStats::default(), |s, (_, t)| s + *t);
        assert_eq!(agg, b.l2_tlb_stats());
        f.check_accounting().expect("front accounting holds");
        b.check_accounting().expect("back accounting holds");
    }

    #[test]
    fn apply_replay_reproduces_the_direct_path() {
        let mut space = AddressSpace::new(PageSize::Small);
        let buf = space.allocate("b", 1 << 20).expect("fresh space");
        let va = buf.addr_of(0);
        let mut f = front(0);
        let mut b = SharedBack::new(&config(1), space);
        let a = Access {
            va,
            vpn: va.vpn(PageSize::Small),
            ..acc(0, 0)
        };
        // A deferred full replay of a cold translation resolves and
        // fills exactly like probe + translate_miss would.
        let r = b.apply(&mut f, &SharedRequest::TranslateReplay { acc: a }, &[]);
        assert!(r.filled_l1);
        assert_eq!(r.ready_at, 1 + 20 + 10 + 500 + 2000 + 20);
        let ppn = r.ppn.expect("translations resolve");
        // A data replay waiting on it starts at max(ready, min_start).
        let d = b.apply(
            &mut f,
            &SharedRequest::DataReplay {
                translation: TranslationRef::Pending(0),
                min_start: 3,
                page_offset: va.page_offset(PageSize::Small),
                write: false,
            },
            &[(ppn, r.ready_at)],
        );
        assert!(d.ppn.is_none());
        assert_eq!(d.ready_at, r.ready_at + 20 + 30 + 200 + 20, "cold data line");
        // Warm replay: front hit, no fill.
        let warm = b.apply(
            &mut f,
            &SharedRequest::TranslateReplay {
                acc: a.arriving_at(10_000),
            },
            &[],
        );
        assert!(!warm.filled_l1);
        assert_eq!(warm.ready_at, 10_001);
    }

    #[test]
    fn accounting_holds_through_a_cold_walk_and_warm_hit() {
        let mut space = AddressSpace::new(PageSize::Small);
        let buf = space.allocate("b", 1 << 20).expect("fresh space");
        let va = buf.addr_of(0);
        let mut f = front(0);
        let mut b = SharedBack::new(&config(1), space);
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
        let probe = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.probe_translate(&a)
        }));
        if cfg!(debug_assertions) {
            assert!(probe.is_err(), "wrong-front routing must be caught");
        } else {
            assert!(probe.is_ok());
        }
    }

    #[test]
    fn virt_addr_page_offset_helper_consistency() {
        // DataReplay reconstructs the PA from ppn + page offset; confirm
        // the offset round-trips through VirtAddr the way the engine
        // computes it.
        let va = VirtAddr::new(0x1234);
        assert_eq!(va.page_offset(PageSize::Small), 0x234);
    }
}
