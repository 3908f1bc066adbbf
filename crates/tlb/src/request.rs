//! The request/outcome types and the [`TranslationBuffer`] trait that all
//! L1 TLB organizations implement.

use crate::sanitize::InvariantViolation;
use crate::stats::TlbStats;
use vmem::{Asid, PageSize, Ppn, Vpn};

/// A translation request presented to a TLB.
///
/// In addition to the virtual page, the request carries the hardware TB
/// slot (the paper's `TB_id`) of the requesting thread block: the baseline
/// TLB ignores it, while the paper's partitioned TLB uses it as the set
/// index. Co-running applications are distinguished by the request's
/// [`Asid`]: every organization includes the ASID in its tag compare, so
/// one app can never hit on another app's translations.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TlbRequest {
    /// Virtual page number being translated.
    pub vpn: Vpn,
    /// Hardware TB slot of the requesting thread block on this SM
    /// (0..max concurrent TBs, reused as TBs finish — the paper's `TB_id`).
    pub tb_slot: u8,
    /// Address space (application) issuing the request.
    pub asid: Asid,
    /// Page size of the mapping (affects VPN width, not indexing).
    pub page_size: PageSize,
}

impl TlbRequest {
    /// Creates a 4 KiB-page request in the default address space (ASID 0).
    pub fn new(vpn: Vpn, tb_slot: u8) -> Self {
        TlbRequest {
            vpn,
            tb_slot,
            asid: Asid::default(),
            page_size: PageSize::Small,
        }
    }

    /// Creates a request with an explicit page size (ASID 0).
    pub fn with_page_size(vpn: Vpn, tb_slot: u8, page_size: PageSize) -> Self {
        TlbRequest {
            vpn,
            tb_slot,
            asid: Asid::default(),
            page_size,
        }
    }

    /// Returns the request re-targeted at `asid`'s address space.
    #[must_use]
    pub fn with_asid(mut self, asid: Asid) -> Self {
        self.asid = asid;
        self
    }
}

/// The result of a TLB lookup.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TlbOutcome {
    /// Whether the translation was present.
    pub hit: bool,
    /// The translated frame number on a hit.
    pub ppn: Option<Ppn>,
    /// Cycles the lookup occupied the TLB, including any multi-set probe
    /// or decompression overhead the organization incurs.
    pub latency: u64,
}

impl TlbOutcome {
    /// A hit returning `ppn` after `latency` cycles.
    #[inline]
    pub fn hit(ppn: Ppn, latency: u64) -> Self {
        TlbOutcome {
            hit: true,
            ppn: Some(ppn),
            latency,
        }
    }

    /// A miss detected after `latency` cycles.
    #[inline]
    pub fn miss(latency: u64) -> Self {
        TlbOutcome {
            hit: false,
            ppn: None,
            latency,
        }
    }
}

/// Interface implemented by every L1 TLB organization.
///
/// The GPU simulator is generic over this trait so the baseline
/// VPN-indexed TLB, the enlarged Figure 2 TLB, the PACT'20 compressed TLB
/// and the paper's TB-id-partitioned TLB (in `orchestrated-tlb`) are
/// interchangeable.
///
/// `Send` is a supertrait, so a simulator owning its TLBs can be handed
/// to another thread (every TLB here is plain owned data, so this costs
/// implementors nothing).
pub trait TranslationBuffer: Send {
    /// Probes the TLB; records a hit or miss in the stats.
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome;

    /// Installs a translation (called on fill after an L2/walk completes).
    fn insert(&mut self, req: &TlbRequest, ppn: Ppn);

    /// Cumulative statistics.
    fn stats(&self) -> TlbStats;

    /// Resets statistics (keeps contents).
    fn reset_stats(&mut self);

    /// Per-address-space breakdown of the cumulative statistics, as
    /// `(asid, stats)` pairs for every ASID that issued traffic. The
    /// per-ASID entries always sum to [`TranslationBuffer::stats`]
    /// (evictions are attributed to the *victim's* ASID, everything else
    /// to the requester's). The default covers single-tenant
    /// organizations: all traffic under ASID 0.
    fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        vec![(Asid::default(), self.stats())]
    }

    /// Invalidates all entries.
    fn flush(&mut self);

    /// Total entry capacity.
    fn capacity(&self) -> usize;

    /// Notification that the TB occupying `tb_slot` (running on behalf of
    /// address space `asid`) finished and released its resources. The
    /// baseline ignores this; the partitioned TLB uses it to reset sharing
    /// flags — keyed by `(asid, tb_slot)` so one app's completion never
    /// clears a licence another app's spill established (the entries
    /// themselves are *kept* — the paper explicitly avoids flushing on TB
    /// completion).
    fn on_tb_finish(&mut self, asid: Asid, tb_slot: u8) {
        let _ = (asid, tb_slot);
    }

    /// Notification of how many TBs can run concurrently on this SM
    /// (determined at kernel launch). The partitioned TLB uses this to
    /// size its per-TB set groups.
    fn set_concurrent_tbs(&mut self, tbs: u8) {
        let _ = tbs;
    }

    /// Probes for `req` without perturbing any state (no stats, no LRU
    /// update) — the diagnostics window the differential harness in
    /// `sim-oracle` uses to compare resident contents (and thereby
    /// eviction-victim choices) against its reference models.
    ///
    /// Returns `None` when the organization does not support
    /// non-perturbing probes (content comparison is then skipped),
    /// `Some(None)` when the translation is absent, and `Some(Some(ppn))`
    /// when it is resident.
    fn probe(&self, req: &TlbRequest) -> Option<Option<Ppn>> {
        let _ = req;
        None
    }

    /// Never called: the engine is serial and fills every TLB with its
    /// final frame. Retained for the benchmark harness, whose decorators
    /// forward it; the next benchmark change removes it (see DESIGN.md,
    /// "Retained for the benchmark harness"). No organization overrides
    /// it.
    fn supports_deferred_fill(&self) -> bool {
        false
    }

    /// Never called, and retained for the same reason as
    /// [`TranslationBuffer::supports_deferred_fill`]. No organization
    /// overrides it.
    fn patch_ppn(&mut self, req: &TlbRequest, old: Ppn, new: Ppn) -> bool {
        let _ = (req, old, new);
        false
    }

    /// Lookups served by the organization's lookup memo ([`crate::Memo`]:
    /// the last hitting way per set, or per TB slot in the partitioned
    /// TLB) instead of a tag walk. A served lookup is byte-identical to
    /// the walk in every architectural observable — outcome,
    /// [`TlbStats`], LRU state — so this counter is pure host-side
    /// observability and is deliberately *not* part of [`TlbStats`].
    /// Organizations without a memo report 0.
    fn fastpath_hits(&self) -> u64 {
        0
    }

    /// Validates the organization's internal invariants (LRU recency is a
    /// total order per set, stats identities hold, occupancy ≤ capacity,
    /// entries live where their owner may place them, ...). Called by the
    /// simulator's sanitizer after TLB operations; the default assumes
    /// nothing can go wrong.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        Ok(())
    }

    /// Human-readable dump of the full internal state, embedded in
    /// [`InvariantViolation`] reports.
    fn dump_state(&self) -> String {
        String::from("<no state dump implemented for this TLB organization>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_constructors() {
        let h = TlbOutcome::hit(Ppn::new(1), 2);
        assert!(h.hit);
        assert_eq!(h.ppn, Some(Ppn::new(1)));
        assert_eq!(h.latency, 2);
        let m = TlbOutcome::miss(1);
        assert!(!m.hit);
        assert_eq!(m.ppn, None);
    }

    #[test]
    fn request_defaults_to_small_pages() {
        let r = TlbRequest::new(Vpn::new(5), 3);
        assert_eq!(r.page_size, PageSize::Small);
        assert_eq!(r.tb_slot, 3);
        let r2 = TlbRequest::with_page_size(Vpn::new(5), 3, PageSize::Large);
        assert_eq!(r2.page_size, PageSize::Large);
    }

    #[test]
    fn request_defaults_to_asid_zero_and_retargets() {
        let r = TlbRequest::new(Vpn::new(5), 3);
        assert_eq!(r.asid, Asid::default());
        let r2 = r.with_asid(Asid::new(7));
        assert_eq!(r2.asid, Asid::new(7));
        assert_eq!(r2.vpn, r.vpn);
        assert_eq!(r2.tb_slot, r.tb_slot);
    }
}
