//! Translation-reuse-aware warp scheduling — the paper's §VII future
//! work ("we aim to study translation reuse at warp granularity and
//! explore potential translation reuse-aware warp scheduling policies").
//!
//! The characterization shows translation reuse is overwhelmingly
//! intra-TB, and the reuse-distance analysis shows that *time-interleaving*
//! other TBs' warps is what stretches those reuses past the L1 reach. A
//! warp scheduler can therefore shrink reuse distances without any TLB
//! change by clustering issue slots by thread block:
//! [`TbClusteredWarpScheduler`] is greedy at TB granularity — while any
//! warp of the last-issued TB is ready it issues from that TB (oldest
//! first), falling back to the oldest ready warp otherwise. Combined with
//! the partitioned TLB it concentrates each set group's traffic in time.

use gpu_sim::{WarpScheduler, WarpView};

/// Greedy-then-oldest at thread-block granularity.
///
/// # Example
///
/// ```
/// use gpu_sim::{WarpScheduler, WarpView};
/// use orchestrated_tlb::TbClusteredWarpScheduler;
///
/// let mut s = TbClusteredWarpScheduler::new();
/// let w = |id, tb, ready| WarpView { id, tb_slot: tb, ready };
/// // Last issue came from TB 1...
/// s.issued_from(2, 1); // warp 2 of TB slot 1
/// // ...so TB 1's ready warp wins over the older TB-0 warp.
/// assert_eq!(s.pick(&[w(0, 0, true), w(2, 1, false), w(3, 1, true)]), Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TbClusteredWarpScheduler {
    /// Last issued (warp id, TB slot).
    last: Option<(u32, u8)>,
}

impl TbClusteredWarpScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds the greedy state (mainly for tests; the engine reports
    /// issues via [`WarpScheduler::issued`]).
    pub fn issued_from(&mut self, warp_id: u32, tb_slot: u8) {
        self.last = Some((warp_id, tb_slot));
    }
}

impl WarpScheduler for TbClusteredWarpScheduler {
    fn pick(&mut self, warps: &[WarpView]) -> Option<usize> {
        if let Some((last_id, last_tb)) = self.last {
            // Greedy on the exact warp first (preserves GTO's per-warp
            // row/line locality)...
            if let Some(i) = warps.iter().position(|w| w.id == last_id && w.ready) {
                return Some(i);
            }
            // ...then on any ready warp of the same TB, oldest first.
            if let Some(i) = warps.iter().position(|w| w.tb_slot == last_tb && w.ready) {
                return Some(i);
            }
        }
        // Fall back to the oldest ready warp.
        warps.iter().position(|w| w.ready)
    }

    fn issued(&mut self, warp: WarpView) {
        self.last = Some((warp.id, warp.tb_slot));
    }

    fn name(&self) -> &str {
        "tb-clustered"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(id: u32, tb: u8, ready: bool) -> WarpView {
        WarpView {
            id,
            tb_slot: tb,
            ready,
        }
    }

    #[test]
    fn stays_on_tb_when_warp_stalls() {
        let mut s = TbClusteredWarpScheduler::new();
        s.issued_from(4, 2);
        // Warp 4 stalled but TB 2 has another ready warp (id 5): prefer it
        // over the older TB-0 warp.
        let warps = [w(0, 0, true), w(4, 2, false), w(5, 2, true)];
        assert_eq!(s.pick(&warps), Some(2));
    }

    #[test]
    fn greedy_on_exact_warp_first() {
        let mut s = TbClusteredWarpScheduler::new();
        s.issued_from(4, 2);
        let warps = [w(3, 2, true), w(4, 2, true)];
        assert_eq!(s.pick(&warps), Some(1), "exact warp beats same-TB sibling");
    }

    #[test]
    fn falls_back_to_oldest_when_tb_drained() {
        let mut s = TbClusteredWarpScheduler::new();
        s.issued_from(9, 3);
        let warps = [w(0, 0, true), w(1, 1, true)];
        assert_eq!(s.pick(&warps), Some(0));
    }

    #[test]
    fn cold_start_is_oldest_first() {
        let mut s = TbClusteredWarpScheduler::new();
        let warps = [w(0, 0, false), w(1, 1, true)];
        assert_eq!(s.pick(&warps), Some(1));
        assert_eq!(s.pick(&[]), None);
    }
}
