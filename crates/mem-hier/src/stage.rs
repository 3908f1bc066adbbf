//! What flows between the levels of the translation path: an [`Access`]
//! in, an [`Outcome`] out, and the [`StageStats`] each level keeps.
//!
//! Every level — the per-SM L1 TLB, the interconnect hop, the sliced L2
//! TLB, the walker pool — answers an access with an outcome carrying the
//! level's *own* latency contribution split into queueing / service /
//! fault cycles, so the hierarchy can attribute every cycle of a
//! translation to exactly one level (the invariant checked by
//! [`LatencyBreakdown`](crate::LatencyBreakdown)).

use tlb::TlbRequest;
use vmem::{Asid, PageSize, Ppn, VirtAddr, Vpn};

/// One translation request traversing the hierarchy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Access {
    /// Cycle at which the request enters the stage.
    pub at: u64,
    /// Issuing SM.
    pub sm: usize,
    /// Address space (co-running application) issuing the request; every
    /// TLB stage includes it in the tag compare and the walker stage
    /// selects the matching page table.
    pub asid: Asid,
    /// Hardware TB slot of the requesting thread block (the paper's
    /// TB id used by the partitioned L1 TLB).
    pub tb_slot: u8,
    /// Line virtual address (the walker resolves it against the page
    /// table; TLB stages only need the page).
    pub va: VirtAddr,
    /// Virtual page being translated.
    pub vpn: Vpn,
    /// Page size of the mapping.
    pub page_size: PageSize,
}

impl Access {
    /// The same request arriving at a downstream stage at `at`.
    pub fn arriving_at(&self, at: u64) -> Access {
        Access { at, ..*self }
    }
}

/// The TLB request an access makes at every TLB level.
pub(crate) fn request(acc: &Access) -> TlbRequest {
    TlbRequest::with_page_size(acc.vpn, acc.tb_slot, acc.page_size).with_asid(acc.asid)
}

/// What a stage did with an access.
///
/// `ready_at` must equal `at + queue_cycles + service_cycles +
/// fault_cycles` — the hierarchy debug-asserts it, which is what makes
/// the per-level breakdown sum to the end-to-end latency by
/// construction rather than by bookkeeping luck.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Frame the stage resolved, if it terminated the translation
    /// (TLB hit, completed walk). `None` means "forward downstream".
    pub ppn: Option<Ppn>,
    /// Cycle at which the stage's result is available.
    pub ready_at: u64,
    /// Cycles spent waiting for a stage resource (L2 TLB port, free
    /// walker).
    pub queue_cycles: u64,
    /// Cycles spent in service (lookup, hop, walk).
    pub service_cycles: u64,
    /// Cycles added by a UVM demand fault (walker stage only).
    pub fault_cycles: u64,
}

impl Outcome {
    /// Total cycles this stage added to the translation.
    pub fn latency(&self) -> u64 {
        self.queue_cycles + self.service_cycles + self.fault_cycles
    }
}

/// Aggregate activity counters every stage maintains.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Accesses that entered the stage.
    pub accesses: u64,
    /// Accesses the stage resolved itself (TLB hits, walks); pure
    /// forwarding stages such as the interconnect leave this 0.
    pub resolved: u64,
    /// Total cycles accesses spent queueing at this stage.
    pub queue_cycles: u64,
    /// Total cycles accesses spent in service at this stage.
    pub service_cycles: u64,
}

impl StageStats {
    /// Folds one outcome into the counters.
    pub fn record(&mut self, out: &Outcome) {
        self.accesses += 1;
        if out.ppn.is_some() {
            self.resolved += 1;
        }
        self.queue_cycles += out.queue_cycles;
        self.service_cycles += out.service_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_latency_sums_components() {
        let o = Outcome {
            ppn: None,
            ready_at: 130,
            queue_cycles: 10,
            service_cycles: 20,
            fault_cycles: 0,
        };
        assert_eq!(o.latency(), 30);
    }

    #[test]
    fn stage_stats_record_counts_resolution() {
        let mut s = StageStats::default();
        s.record(&Outcome {
            ppn: Some(Ppn::new(1)),
            ready_at: 5,
            queue_cycles: 2,
            service_cycles: 3,
            fault_cycles: 0,
        });
        s.record(&Outcome {
            ppn: None,
            ready_at: 1,
            queue_cycles: 0,
            service_cycles: 1,
            fault_cycles: 0,
        });
        assert_eq!(s.accesses, 2);
        assert_eq!(s.resolved, 1);
        assert_eq!(s.queue_cycles, 2);
        assert_eq!(s.service_cycles, 4);
    }

    #[test]
    fn arriving_at_rewrites_only_the_cycle() {
        let a = Access {
            at: 10,
            sm: 3,
            asid: Asid::new(1),
            tb_slot: 2,
            va: VirtAddr::new(0x1000),
            vpn: Vpn::new(1),
            page_size: PageSize::Small,
        };
        let b = a.arriving_at(99);
        assert_eq!(b.at, 99);
        assert_eq!(b.sm, 3);
        assert_eq!(b.asid, Asid::new(1));
        assert_eq!(b.vpn, a.vpn);
    }
}
