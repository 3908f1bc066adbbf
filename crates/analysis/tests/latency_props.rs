//! Property-based tests for the per-level latency attribution
//! ([`analysis::latency_shares`]): for *any* accumulated breakdown, the
//! shares are non-negative, cover the whole latency (sum to 1, or are
//! all zero for an idle breakdown), and attribute each component
//! independently of the others (permuting component magnitudes permutes
//! the shares).

use analysis::{latency_shares, LATENCY_COMPONENTS};
use mem_hier::LatencyBreakdown;
use proptest::prelude::*;

/// Builds a breakdown from six per-component cycle counts, keeping the
/// stage-sum identity intact (end-to-end = sum of stages).
fn breakdown(c: &[u64]) -> LatencyBreakdown {
    LatencyBreakdown {
        translations: 1,
        l1_tlb_cycles: c[0],
        icnt_cycles: c[1],
        l2_tlb_queue_cycles: c[2],
        l2_tlb_lookup_cycles: c[3],
        walk_cycles: c[4],
        fault_cycles: c[5],
        end_to_end_cycles: c.iter().sum(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Shares are a probability vector: each in [0, 1], summing to 1
    /// within float epsilon — or exactly all-zero when no cycle was
    /// attributed anywhere.
    #[test]
    fn shares_form_a_probability_vector(c in proptest::collection::vec(0u64..1_000_000, 6..7)) {
        let shares = latency_shares(&breakdown(&c));
        prop_assert_eq!(shares.len(), LATENCY_COMPONENTS.len());
        for (i, s) in shares.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(s), "{}: share {s} out of range", LATENCY_COMPONENTS[i]);
        }
        let total: f64 = shares.iter().sum();
        if c.iter().all(|&x| x == 0) {
            prop_assert_eq!(total, 0.0, "idle breakdown must be all zeros");
        } else {
            prop_assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}, not 1");
        }
    }

    /// Attribution is component-local: swapping two components' cycle
    /// counts swaps exactly their shares and leaves the rest untouched.
    #[test]
    fn shares_are_permutation_stable(
        c in proptest::collection::vec(0u64..1_000_000, 6..7),
        i in 0usize..6,
        j in 0usize..6,
    ) {
        let base = latency_shares(&breakdown(&c));
        let mut swapped = c;
        swapped.swap(i, j);
        let mut expected = base;
        expected.swap(i, j);
        let got = latency_shares(&breakdown(&swapped));
        for k in 0..6 {
            prop_assert!(
                (got[k] - expected[k]).abs() < 1e-12,
                "component {k}: swapped ({i},{j}) share {} != permuted original {}",
                got[k],
                expected[k]
            );
        }
    }

    /// Scaling every component by the same factor leaves the shares
    /// unchanged (they are fractions, not magnitudes).
    #[test]
    fn shares_are_scale_invariant(
        c in proptest::collection::vec(1u64..10_000, 6..7),
        k in 1u64..1000,
    ) {
        let base = latency_shares(&breakdown(&c));
        let scaled: [f64; 6] =
            latency_shares(&breakdown(&c.iter().map(|x| x * k).collect::<Vec<u64>>()));
        for (a, b) in base.iter().zip(&scaled) {
            prop_assert!((a - b).abs() < 1e-9, "share moved under uniform scaling: {a} vs {b}");
        }
    }
}
