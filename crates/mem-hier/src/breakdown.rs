//! Per-level latency attribution for address translation.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Where one translation's cycles went, level by level.
///
/// Produced by [`Hierarchy::translate`](crate::Hierarchy::translate) for
/// every L1 TLB lookup; the fields sum to the translation's end-to-end
/// latency (L1 hits spend everything in `l1_tlb`; walks accumulate every
/// field).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TranslationBreakdown {
    /// L1 TLB lookup cycles.
    pub l1_tlb: u64,
    /// Interconnect hop cycles (both directions on an L1 miss).
    pub icnt: u64,
    /// Cycles queued for an L2 TLB slice port.
    pub l2_tlb_queue: u64,
    /// L2 TLB lookup cycles.
    pub l2_tlb_lookup: u64,
    /// Page-table-walk cycles (walker queueing + the walk itself).
    pub walk: u64,
    /// UVM demand-fault (first-touch) cycles.
    pub fault: u64,
}

impl TranslationBreakdown {
    /// Total cycles attributed across all levels.
    pub fn total(&self) -> u64 {
        self.l1_tlb + self.icnt + self.l2_tlb_queue + self.l2_tlb_lookup + self.walk + self.fault
    }
}

/// Aggregate per-level latency attribution over every translation of a
/// run — the report section that lets Figure-10-style results be
/// *explained* ("bfs loses its cycles to L2 TLB port queueing, not to
/// walks") instead of just totaled.
///
/// `end_to_end_cycles` is accumulated independently of the per-level
/// fields (from each translation's issue/completion cycles), so
/// [`LatencyBreakdown::check`] is a genuine cross-check of the
/// attribution, not an identity by construction.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Translations attributed (one per L1 TLB lookup).
    pub translations: u64,
    /// Cycles spent in L1 TLB lookups.
    pub l1_tlb_cycles: u64,
    /// Cycles spent on the interconnect (SM <-> partition, both ways).
    pub icnt_cycles: u64,
    /// Cycles spent queueing for L2 TLB slice ports.
    pub l2_tlb_queue_cycles: u64,
    /// Cycles spent in L2 TLB lookups.
    pub l2_tlb_lookup_cycles: u64,
    /// Cycles spent walking page tables (including walker queueing).
    pub walk_cycles: u64,
    /// Cycles spent on UVM demand faults.
    pub fault_cycles: u64,
    /// Independently accumulated end-to-end translation cycles.
    pub end_to_end_cycles: u64,
}

impl LatencyBreakdown {
    /// Folds one translation into the aggregate.
    pub fn record(&mut self, b: &TranslationBreakdown, end_to_end: u64) {
        self.translations += 1;
        self.l1_tlb_cycles += b.l1_tlb;
        self.icnt_cycles += b.icnt;
        self.l2_tlb_queue_cycles += b.l2_tlb_queue;
        self.l2_tlb_lookup_cycles += b.l2_tlb_lookup;
        self.walk_cycles += b.walk;
        self.fault_cycles += b.fault;
        self.end_to_end_cycles += end_to_end;
        debug_assert_eq!(
            b.total(),
            end_to_end,
            "translation breakdown must attribute every end-to-end cycle: {b:?}"
        );
    }

    /// Sum of the per-level fields.
    pub fn stage_sum(&self) -> u64 {
        self.l1_tlb_cycles
            + self.icnt_cycles
            + self.l2_tlb_queue_cycles
            + self.l2_tlb_lookup_cycles
            + self.walk_cycles
            + self.fault_cycles
    }

    /// Verifies the attribution identity: the per-level sums must equal
    /// the independently accumulated end-to-end cycles.
    pub fn check(&self) -> Result<(), String> {
        if self.stage_sum() == self.end_to_end_cycles {
            Ok(())
        } else {
            Err(format!(
                "per-level sums ({}) != end-to-end translation cycles ({})",
                self.stage_sum(),
                self.end_to_end_cycles
            ))
        }
    }

    /// Mean end-to-end translation latency in cycles (0 with no
    /// translations).
    pub fn mean_latency(&self) -> f64 {
        if self.translations == 0 {
            0.0
        } else {
            self.end_to_end_cycles as f64 / self.translations as f64
        }
    }
}

impl Add for LatencyBreakdown {
    type Output = LatencyBreakdown;
    fn add(mut self, rhs: LatencyBreakdown) -> LatencyBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for LatencyBreakdown {
    fn add_assign(&mut self, rhs: LatencyBreakdown) {
        self.translations += rhs.translations;
        self.l1_tlb_cycles += rhs.l1_tlb_cycles;
        self.icnt_cycles += rhs.icnt_cycles;
        self.l2_tlb_queue_cycles += rhs.l2_tlb_queue_cycles;
        self.l2_tlb_lookup_cycles += rhs.l2_tlb_lookup_cycles;
        self.walk_cycles += rhs.walk_cycles;
        self.fault_cycles += rhs.fault_cycles;
        self.end_to_end_cycles += rhs.end_to_end_cycles;
    }
}

impl fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} translations, {:.1} cyc mean (L1 TLB {} | icnt {} | L2q {} | L2 {} | walk {} | fault {})",
            self.translations,
            self.mean_latency(),
            self.l1_tlb_cycles,
            self.icnt_cycles,
            self.l2_tlb_queue_cycles,
            self.l2_tlb_lookup_cycles,
            self.walk_cycles,
            self.fault_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk_breakdown() -> TranslationBreakdown {
        TranslationBreakdown {
            l1_tlb: 1,
            icnt: 40,
            l2_tlb_queue: 3,
            l2_tlb_lookup: 10,
            walk: 500,
            fault: 2000,
        }
    }

    #[test]
    fn record_keeps_the_identity() {
        let mut agg = LatencyBreakdown::default();
        let b = walk_breakdown();
        agg.record(&b, b.total());
        agg.record(
            &TranslationBreakdown {
                l1_tlb: 1,
                ..Default::default()
            },
            1,
        );
        assert_eq!(agg.translations, 2);
        assert_eq!(agg.stage_sum(), b.total() + 1);
        assert!(agg.check().is_ok());
        assert!((agg.mean_latency() - (b.total() + 1) as f64 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn check_catches_unattributed_cycles() {
        let agg = LatencyBreakdown {
            translations: 1,
            l1_tlb_cycles: 1,
            end_to_end_cycles: 5,
            ..Default::default()
        };
        let err = agg.check().unwrap_err();
        assert!(err.contains("(1)") && err.contains("(5)"), "{err}");
    }

    #[test]
    fn addition_is_fieldwise() {
        let mut a = LatencyBreakdown::default();
        let b = walk_breakdown();
        a.record(&b, b.total());
        let sum = a + a;
        assert_eq!(sum.translations, 2);
        assert_eq!(sum.walk_cycles, 1000);
        assert_eq!(sum.end_to_end_cycles, 2 * b.total());
        assert!(sum.check().is_ok());
    }

    #[test]
    fn display_names_every_level() {
        let mut agg = LatencyBreakdown::default();
        let b = walk_breakdown();
        agg.record(&b, b.total());
        let s = agg.to_string();
        for needle in ["L1 TLB", "icnt", "L2q", "walk", "fault"] {
            assert!(s.contains(needle), "{s}");
        }
    }
}
