//! Per-level translation-latency attribution (mem-hier breakdown).

use mem_hier::LatencyBreakdown;

/// Names of the breakdown components, in pipeline order. Matches the
/// order of the fractions returned by [`latency_shares`].
pub const LATENCY_COMPONENTS: [&str; 6] = [
    "l1_tlb",
    "icnt",
    "l2_tlb_queue",
    "l2_tlb_lookup",
    "walk",
    "fault",
];

/// Splits an accumulated [`LatencyBreakdown`] into per-component
/// fractions of total translation latency, in [`LATENCY_COMPONENTS`]
/// order. An idle breakdown (no translations) yields all zeros; otherwise
/// the fractions sum to 1 (the breakdown's stage-sum identity guarantees
/// the components cover every end-to-end cycle).
pub fn latency_shares(b: &LatencyBreakdown) -> [f64; 6] {
    let total = b.stage_sum();
    if total == 0 {
        return [0.0; 6];
    }
    let frac = |c: u64| c as f64 / total as f64;
    [
        frac(b.l1_tlb_cycles),
        frac(b.icnt_cycles),
        frac(b.l2_tlb_queue_cycles),
        frac(b.l2_tlb_lookup_cycles),
        frac(b.walk_cycles),
        frac(b.fault_cycles),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_cover_the_whole_latency() {
        let b = LatencyBreakdown {
            translations: 2,
            l1_tlb_cycles: 2,
            icnt_cycles: 40,
            l2_tlb_queue_cycles: 3,
            l2_tlb_lookup_cycles: 10,
            walk_cycles: 500,
            fault_cycles: 2000,
            end_to_end_cycles: 2555,
        };
        let shares = latency_shares(&b);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // The fault term dominates this synthetic example.
        assert!(shares[5] > 0.7);
        assert_eq!(shares.len(), LATENCY_COMPONENTS.len());
    }

    #[test]
    fn idle_breakdown_is_all_zero() {
        assert_eq!(latency_shares(&LatencyBreakdown::default()), [0.0; 6]);
    }
}
