//! The paper's TLB-thrashing-aware TB scheduler (§IV-A, Figure 7).
//!
//! The TB scheduler keeps a hardware table with one `<TLB_hits,
//! TLB_total>` entry per SM (136 bytes for 16 SMs), updated by the SMs.
//! When a TB is to be dispatched, the scheduler walks the SMs in
//! round-robin order but only accepts a candidate whose *instantaneous L1
//! TLB miss rate* is low compared to the other SMs; if no SM qualifies it
//! falls back to plain round-robin. Parallelism is never throttled: a TB
//! is always placed as long as any SM has free resources.

use gpu_sim::{SmSnapshot, TbScheduler};

/// TLB-thrashing-aware TB scheduling policy.
///
/// # Example
///
/// ```
/// use gpu_sim::{SmSnapshot, TbScheduler};
/// use orchestrated_tlb::TlbAwareScheduler;
///
/// let mut sched = TlbAwareScheduler::new();
/// // First observation establishes the counter baseline.
/// let idle = vec![SmSnapshot { free_slots: 1, ..Default::default() }; 2];
/// sched.pick_sm(&idle);
/// let sms = vec![
///     SmSnapshot { free_slots: 1, tlb_hits: 10, tlb_accesses: 100 }, // 90% miss
///     SmSnapshot { free_slots: 1, tlb_hits: 90, tlb_accesses: 100 }, // 10% miss
/// ];
/// // The thrashing SM 0 is now skipped even though round-robin order
/// // would pick it next.
/// assert_eq!(sched.pick_sm(&sms), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct TlbAwareScheduler {
    next: usize,
    /// Slack over the mean miss rate a candidate may have and still count
    /// as "low".
    tolerance: f64,
    /// Last observed `<hits, accesses>` per SM, for windowed rates.
    last_seen: Vec<(u64, u64)>,
    /// Exponentially-weighted *instantaneous* miss rate per SM (the
    /// paper probes the "instant L1 TLB miss rate", not the lifetime
    /// average).
    ewma: Vec<f64>,
}

/// EWMA smoothing factor for the windowed miss rate.
const EWMA_ALPHA: f64 = 0.5;

impl TlbAwareScheduler {
    /// Creates the scheduler with the default tolerance (a candidate
    /// qualifies if its miss rate is at most the cross-SM mean).
    pub fn new() -> Self {
        Self::with_tolerance(0.0)
    }

    /// Creates the scheduler with an explicit tolerance: a candidate SM
    /// qualifies when `miss_rate <= mean_miss_rate + tolerance`.
    pub fn with_tolerance(tolerance: f64) -> Self {
        TlbAwareScheduler {
            next: 0,
            tolerance,
            last_seen: Vec::new(),
            ewma: Vec::new(),
        }
    }

    /// Folds the counter deltas since the previous decision into the
    /// per-SM instantaneous miss-rate estimates.
    fn observe(&mut self, sms: &[SmSnapshot]) {
        if self.last_seen.len() != sms.len() {
            self.last_seen = sms.iter().map(|s| (s.tlb_hits, s.tlb_accesses)).collect();
            self.ewma = vec![0.0; sms.len()];
            return;
        }
        for (i, s) in sms.iter().enumerate() {
            let (h0, a0) = self.last_seen[i];
            let (dh, da) = (
                s.tlb_hits.saturating_sub(h0),
                s.tlb_accesses.saturating_sub(a0),
            );
            if da > 0 {
                let inst = 1.0 - dh as f64 / da as f64;
                self.ewma[i] = EWMA_ALPHA * inst + (1.0 - EWMA_ALPHA) * self.ewma[i];
            }
            self.last_seen[i] = (s.tlb_hits, s.tlb_accesses);
        }
    }

    /// Size in bytes of the hardware TLB-status table for `num_sms` SMs:
    /// a 4-bit SM id plus two 32-bit counters per entry (136 bytes for
    /// the paper's 16 SMs).
    pub fn status_table_bytes(num_sms: usize) -> usize {
        (num_sms * (4 + 32 + 32)).div_ceil(8)
    }
}

impl Default for TlbAwareScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl TbScheduler for TlbAwareScheduler {
    fn pick_sm(&mut self, sms: &[SmSnapshot]) -> Option<usize> {
        if sms.is_empty() {
            return None;
        }
        self.observe(sms);
        let mean: f64 = self.ewma.iter().sum::<f64>() / self.ewma.len() as f64;
        // First pass: round-robin order, but only low-miss-rate SMs.
        for i in 0..sms.len() {
            let sm = (self.next + i) % sms.len();
            if sms[sm].has_room() && self.ewma[sm] <= mean + self.tolerance {
                self.next = (sm + 1) % sms.len();
                return Some(sm);
            }
        }
        // Fallback: plain round-robin (never throttles parallelism).
        for i in 0..sms.len() {
            let sm = (self.next + i) % sms.len();
            if sms[sm].has_room() {
                self.next = (sm + 1) % sms.len();
                return Some(sm);
            }
        }
        None
    }

    fn name(&self) -> &str {
        "tlb-aware"
    }

    fn reset(&mut self) {
        self.next = 0;
        // Keep the miss-rate estimates: the hardware table persists
        // across kernel launches.
    }

    fn check_invariants(&self, num_sms: usize) -> Result<(), String> {
        if self.ewma.len() != self.last_seen.len() {
            return Err(format!(
                "status table split-brained: {} rate estimates vs {} counter pairs \
                 (table: {:?}, ewma: {:?})",
                self.ewma.len(),
                self.last_seen.len(),
                self.last_seen,
                self.ewma
            ));
        }
        // One <TLB_hits, TLB_total> entry per SM; the paper's hardware
        // budget is a 16-entry table (136 bytes, §IV-A).
        let budget = num_sms.max(16);
        if self.last_seen.len() > budget {
            return Err(format!(
                "status table grew to {} entries, beyond the {budget}-entry hardware \
                 budget for {num_sms} SMs (table: {:?})",
                self.last_seen.len(),
                self.last_seen
            ));
        }
        if !self.last_seen.is_empty() && self.last_seen.len() != num_sms {
            return Err(format!(
                "status table has {} entries for {num_sms} SMs (table: {:?})",
                self.last_seen.len(),
                self.last_seen
            ));
        }
        for (i, (&e, &(h, a))) in self.ewma.iter().zip(&self.last_seen).enumerate() {
            if !(0.0..=1.0).contains(&e) {
                return Err(format!(
                    "SM {i}: EWMA miss-rate estimate {e} outside [0, 1] (ewma: {:?})",
                    self.ewma
                ));
            }
            if h > a {
                return Err(format!(
                    "SM {i}: observed {h} hits out of only {a} accesses (table: {:?})",
                    self.last_seen
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(free: u8, hits: u64, total: u64) -> SmSnapshot {
        SmSnapshot {
            free_slots: free,
            tlb_hits: hits,
            tlb_accesses: total,
        }
    }

    #[test]
    fn prefers_low_miss_rate_sms() {
        let mut s = TlbAwareScheduler::new();
        // Establish the counter baseline, then show loaded counters.
        s.pick_sm(&[snap(0, 0, 0), snap(0, 0, 0), snap(0, 0, 0)]);
        let sms = vec![
            snap(1, 0, 100),  // 100% miss
            snap(1, 95, 100), // 5% miss
            snap(1, 90, 100), // 10% miss
        ];
        assert_eq!(s.pick_sm(&sms), Some(1));
        assert_eq!(s.pick_sm(&sms), Some(2));
        // Round-robin wraps; SM 0 still disqualified, SM 1 picked again.
        assert_eq!(s.pick_sm(&sms), Some(1));
    }

    #[test]
    fn miss_rate_window_is_instantaneous() {
        let mut s = TlbAwareScheduler::new();
        s.pick_sm(&[snap(0, 0, 0), snap(0, 0, 0)]);
        // SM 0 historically awful, SM 1 historically perfect.
        s.pick_sm(&[snap(0, 0, 1000), snap(0, 1000, 1000)]);
        // Recent window reverses: SM 0 now hits, SM 1 now thrashes. After
        // a couple of windows the EWMA catches up and SM 0 qualifies
        // first (it is also first in round-robin order).
        for _ in 0..4 {
            s.pick_sm(&[snap(0, 500, 1500), snap(0, 1000, 2000)]);
        }
        let pick = s.pick_sm(&[snap(1, 1000, 2000), snap(1, 1000, 3000)]);
        assert_eq!(pick, Some(0));
    }

    #[test]
    fn falls_back_to_round_robin_when_none_qualify() {
        let mut s = TlbAwareScheduler::new();
        s.pick_sm(&[snap(0, 0, 0), snap(0, 0, 0), snap(0, 0, 0)]);
        // Only the thrashing SM has room: fallback must still place.
        let sms = vec![snap(1, 0, 100), snap(0, 100, 100), snap(0, 100, 100)];
        assert_eq!(s.pick_sm(&sms), Some(0));
    }

    #[test]
    fn idle_sms_look_attractive() {
        let mut s = TlbAwareScheduler::new();
        s.pick_sm(&[snap(0, 0, 0), snap(0, 0, 0)]);
        // An SM with no TLB traffic keeps a zero instantaneous estimate
        // and should be chosen over one that is thrashing.
        let sms = vec![snap(1, 10, 100), snap(1, 0, 0)];
        assert_eq!(s.pick_sm(&sms), Some(1));
    }

    #[test]
    fn uniform_miss_rates_degenerate_to_round_robin() {
        let mut s = TlbAwareScheduler::new();
        let sms = vec![snap(2, 50, 100); 4];
        let picks: Vec<_> = (0..4).map(|_| s.pick_sm(&sms).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn none_when_all_full() {
        let mut s = TlbAwareScheduler::new();
        assert_eq!(s.pick_sm(&[snap(0, 0, 0)]), None);
        assert_eq!(s.pick_sm(&[]), None);
    }

    #[test]
    fn status_table_matches_paper_overhead() {
        // 16 entries x (4-bit SM id + two 32-bit counters) = 136 bytes.
        assert_eq!(TlbAwareScheduler::status_table_bytes(16), 136);
    }

    #[test]
    fn tolerance_admits_marginal_sms() {
        let mut strict = TlbAwareScheduler::new();
        let mut lax = TlbAwareScheduler::with_tolerance(0.5);
        let zero = [snap(0, 0, 0), snap(0, 0, 0)];
        strict.pick_sm(&zero);
        lax.pick_sm(&zero);
        let sms = vec![snap(1, 40, 100), snap(1, 60, 100)];
        // Windowed miss: SM0 60%, SM1 40%, mean 50%. Strict skips SM0,
        // lax takes it (first in round-robin order).
        assert_eq!(strict.pick_sm(&sms), Some(1));
        assert_eq!(lax.pick_sm(&sms), Some(0));
    }

    #[test]
    fn invariants_hold_through_normal_operation() {
        let mut s = TlbAwareScheduler::new();
        let sms = vec![snap(1, 50, 100); 4];
        for _ in 0..10 {
            s.pick_sm(&sms);
            s.check_invariants(4).expect("table stays consistent");
        }
    }

    #[test]
    fn oversized_status_table_is_reported() {
        let mut s = TlbAwareScheduler::new();
        // Observe a 32-SM machine, then claim the GPU only has 4 SMs: the
        // 32-entry table no longer matches the hardware.
        s.pick_sm(&vec![snap(1, 0, 0); 32]);
        let err = s.check_invariants(4).unwrap_err();
        assert!(err.contains("32"), "unexpected message: {err}");
    }

    #[test]
    fn corrupted_ewma_is_reported() {
        let mut s = TlbAwareScheduler::new();
        s.pick_sm(&[snap(1, 0, 0); 2]);
        s.ewma[1] = f64::NAN;
        assert!(s.check_invariants(2).is_err());
    }

    #[test]
    fn reset_restarts() {
        let mut s = TlbAwareScheduler::new();
        let sms = vec![snap(2, 0, 0); 3];
        s.pick_sm(&sms);
        s.reset();
        assert_eq!(s.pick_sm(&sms), Some(0));
    }
}
