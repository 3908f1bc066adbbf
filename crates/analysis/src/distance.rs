//! Translation reuse distance (the paper's §III-D, Figures 5 and 6).
//!
//! The paper defines reuse distance as *"the number of unique translations
//! between two memory accesses to the same page"*. Distances are measured
//! on each SM's L1 TLB access stream (the interleaving of all TBs resident
//! on that SM), and a sample is recorded for each re-access of a page *by
//! the TB that last touched it* — so the metric captures **intra-TB** reuse
//! while exposing how **inter-TB interference** stretches it.
//!
//! Computation uses the classic last-occurrence/Fenwick-tree technique:
//! each page keeps only its most recent position marked in a bit-indexed
//! tree, so "distinct pages in the window" is a prefix-sum query, giving
//! `O(n log n)` overall.

use gpu_sim::TranslationEvent;

/// Options for distance extraction.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DistanceOptions {
    /// Record a sample only when the previous access to the page came from
    /// the same TB (the paper's intra-TB distances). When `false`, every
    /// page re-access is sampled regardless of which TB touched it last.
    pub same_tb_only: bool,
    /// Additionally require the previous access to come from the same
    /// *warp* — the warp-granularity analysis the paper's §VII names as
    /// future work. Implies TB matching.
    pub same_warp_only: bool,
}

impl DistanceOptions {
    /// The paper's Figures 5/6 setting.
    pub fn intra_tb() -> Self {
        DistanceOptions {
            same_tb_only: true,
            same_warp_only: false,
        }
    }

    /// Warp-granularity reuse distances (§VII future work).
    pub fn intra_warp() -> Self {
        DistanceOptions {
            same_tb_only: true,
            same_warp_only: true,
        }
    }
}

/// Fenwick tree over event positions; a set bit marks "most recent
/// occurrence of some page lives here".
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, delta: i32) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of marks in positions `0..=i`.
    fn prefix(&self, mut i: usize) -> u32 {
        i += 1;
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Computes reuse-distance samples from a simulator translation trace.
///
/// The trace is partitioned by SM (L1 TLBs are private); within each SM
/// stream, the distance for a re-access at position `t` of a page last
/// seen at `t'` is the number of *distinct* pages accessed strictly
/// between them.
///
/// # Example
///
/// ```
/// use analysis::{reuse_distance_samples, DistanceOptions};
/// use gpu_sim::TranslationEvent;
///
/// let ev = |vpn| TranslationEvent { sm: 0, tb_global: 0, warp: 0, kernel: 0, vpn };
/// // Page 1 is re-accessed with pages 2 and 3 in between: distance 2.
/// let trace = vec![ev(1), ev(2), ev(3), ev(2), ev(1)];
/// let d = reuse_distance_samples(&trace, DistanceOptions::intra_tb());
/// assert_eq!(d, vec![1, 2]); // page 2 at distance 1, page 1 at distance 2
/// ```
pub fn reuse_distance_samples(trace: &[TranslationEvent], options: DistanceOptions) -> Vec<u64> {
    let mut samples = Vec::new();
    let max_sm = trace.iter().map(|e| e.sm).max().map(|m| m as usize + 1);
    let Some(num_sms) = max_sm else {
        return samples;
    };
    // Split positions per SM, preserving order.
    let mut per_sm: Vec<Vec<&TranslationEvent>> = vec![Vec::new(); num_sms];
    for e in trace {
        per_sm[e.sm as usize].push(e);
    }
    for events in per_sm {
        if events.is_empty() {
            continue;
        }
        let n = events.len();
        let mut fen = Fenwick::new(n);
        // page -> (last position, last (kernel, tb, warp)).
        // simlint: allow(hash-iter, reason = "keyed get/insert only, never iterated; hot loop over the full event trace")
        let mut last: std::collections::HashMap<u64, (usize, (u16, u32, u16))> =
            std::collections::HashMap::new(); // simlint: allow(hash-iter, reason = "keyed get/insert only, never iterated")
        for (t, e) in events.iter().enumerate() {
            let key = (e.kernel, e.tb_global, e.warp);
            if let Some(&(t_prev, prev)) = last.get(&e.vpn) {
                // Distinct pages strictly between t_prev and t: marked
                // positions in (t_prev, t). The page itself is marked at
                // t_prev, so subtract it out of the closed range.
                let distinct = fen.prefix(t - 1) - fen.prefix(t_prev);
                let matches = if options.same_warp_only {
                    prev == key
                } else if options.same_tb_only {
                    (prev.0, prev.1) == (key.0, key.1)
                } else {
                    true
                };
                if matches {
                    samples.push(distinct as u64);
                }
                fen.add(t_prev, -1);
            }
            fen.add(t, 1);
            last.insert(e.vpn, (t, key));
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(sm: u8, tb: u32, vpn: u64) -> TranslationEvent {
        TranslationEvent {
            sm,
            tb_global: tb,
            warp: 0,
            kernel: 0,
            vpn,
        }
    }

    #[test]
    fn immediate_reuse_has_distance_zero() {
        let trace = vec![ev(0, 0, 5), ev(0, 0, 5)];
        assert_eq!(
            reuse_distance_samples(&trace, DistanceOptions::intra_tb()),
            vec![0]
        );
    }

    #[test]
    fn distance_counts_distinct_not_total() {
        // Between the two accesses to page 1: pages 2,2,2,3 -> 2 distinct.
        let trace = vec![
            ev(0, 0, 1),
            ev(0, 0, 2),
            ev(0, 0, 2),
            ev(0, 0, 2),
            ev(0, 0, 3),
            ev(0, 0, 1),
        ];
        let d = reuse_distance_samples(&trace, DistanceOptions::intra_tb());
        // Samples: page2@d0, page2@d0, page3? no reuse, page1@d2.
        assert_eq!(d, vec![0, 0, 2]);
    }

    #[test]
    fn interference_stretches_distances() {
        // TB 0 re-touches page 1; TB 1's pages intervene.
        let with_interference = vec![
            ev(0, 0, 1),
            ev(0, 1, 100),
            ev(0, 1, 101),
            ev(0, 1, 102),
            ev(0, 0, 1),
        ];
        let isolated = vec![ev(0, 0, 1), ev(0, 0, 1)];
        let d1 = reuse_distance_samples(&with_interference, DistanceOptions::intra_tb());
        let d2 = reuse_distance_samples(&isolated, DistanceOptions::intra_tb());
        assert_eq!(d1, vec![3]);
        assert_eq!(d2, vec![0]);
    }

    #[test]
    fn same_tb_only_filters_cross_tb_pairs() {
        // Page 1 touched by TB 0 then TB 1.
        let trace = vec![ev(0, 0, 1), ev(0, 1, 1)];
        assert!(reuse_distance_samples(&trace, DistanceOptions::intra_tb()).is_empty());
        let all = reuse_distance_samples(
            &trace,
            DistanceOptions {
                same_tb_only: false,
                same_warp_only: false,
            },
        );
        assert_eq!(all, vec![0]);
    }

    #[test]
    fn sms_are_independent_streams() {
        // The same page on two SMs never produces a cross-SM sample.
        let trace = vec![ev(0, 0, 1), ev(1, 0, 1)];
        assert!(reuse_distance_samples(&trace, DistanceOptions::intra_tb()).is_empty());
        // And interleaved SM streams do not pollute each other's windows.
        let trace = vec![ev(0, 0, 1), ev(1, 0, 50), ev(1, 0, 51), ev(0, 0, 1)];
        assert_eq!(
            reuse_distance_samples(&trace, DistanceOptions::intra_tb()),
            vec![0]
        );
    }

    #[test]
    fn empty_trace() {
        assert!(reuse_distance_samples(&[], DistanceOptions::intra_tb()).is_empty());
    }

    #[test]
    fn kernel_id_distinguishes_tbs() {
        // Same tb_global in different kernels is a different TB.
        let mut e1 = ev(0, 7, 9);
        let mut e2 = ev(0, 7, 9);
        e1.kernel = 0;
        e2.kernel = 1;
        assert!(reuse_distance_samples(&[e1, e2], DistanceOptions::intra_tb()).is_empty());
    }

    #[test]
    fn warp_granularity_filters_cross_warp_pairs() {
        let mut e1 = ev(0, 0, 9);
        let mut e2 = ev(0, 0, 9);
        e1.warp = 0;
        e2.warp = 1;
        // Same TB, different warps: counts at TB granularity only.
        let trace = vec![e1, e2];
        assert_eq!(
            reuse_distance_samples(&trace, DistanceOptions::intra_tb()),
            vec![0]
        );
        assert!(reuse_distance_samples(&trace, DistanceOptions::intra_warp()).is_empty());
        // Same warp: counts at both granularities.
        let trace = vec![e1, e1];
        assert_eq!(
            reuse_distance_samples(&trace, DistanceOptions::intra_warp()),
            vec![0]
        );
    }

    #[test]
    fn long_stream_matches_naive() {
        // Cross-check the Fenwick implementation against a naive O(n^2)
        // recomputation on a pseudo-random stream.
        let mut x = 12345u64;
        let mut trace = Vec::new();
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            trace.push(ev(0, 0, (x >> 33) % 40));
        }
        let fast = reuse_distance_samples(&trace, DistanceOptions::intra_tb());
        // Naive.
        let mut naive = Vec::new();
        let mut last: std::collections::HashMap<u64, usize> = Default::default();
        for (t, e) in trace.iter().enumerate() {
            if let Some(&tp) = last.get(&e.vpn) {
                let distinct: std::collections::HashSet<u64> =
                    trace[tp + 1..t].iter().map(|e| e.vpn).collect();
                naive.push(distinct.len() as u64);
            }
            last.insert(e.vpn, t);
        }
        assert_eq!(fast, naive);
    }
}
