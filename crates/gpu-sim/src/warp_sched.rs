//! Warp scheduling policies.
//!
//! Table III specifies a Greedy-then-Oldest (GTO) dual warp scheduler;
//! [`GtoWarpScheduler`] is the default. [`LrrWarpScheduler`] (loose round
//! robin) is the classic contrast. The paper's §VII future work —
//! *translation reuse-aware warp scheduling* — is implemented in the
//! `orchestrated-tlb` crate on top of this trait.

/// What a warp scheduler can see about one resident warp at issue time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WarpView {
    /// Stable per-SM warp id (monotonically assigned in launch order, so
    /// lower id = older warp).
    pub id: u32,
    /// Hardware TB slot the warp belongs to.
    pub tb_slot: u8,
    /// Whether the warp can issue this cycle.
    pub ready: bool,
}

/// A per-SM warp scheduling policy.
///
/// `pick` receives the SM's live warps (unfinished, unretired) in launch
/// order and returns the index of a *ready* warp to issue, or `None` when
/// no warp is ready; the engine panics on a stalled or out-of-range pick.
/// The engine reports each actual issue back through
/// [`WarpScheduler::issued`] so stateful policies (greedy, round-robin
/// pointers) can track it.
///
/// `Send` is a supertrait, so a simulator owning its schedulers can be
/// handed to another thread (schedulers are plain owned data, so this
/// costs implementors nothing).
pub trait WarpScheduler: Send {
    /// Chooses the next warp to issue from `warps` (an index into the
    /// slice), or `None` if none is ready.
    fn pick(&mut self, warps: &[WarpView]) -> Option<usize>;

    /// Notification that `warp` issued.
    fn issued(&mut self, warp: WarpView) {
        let _ = warp;
    }

    /// Policy name for reports.
    fn name(&self) -> &str;
}

/// Greedy-then-Oldest: keep issuing from the last-issued warp while it is
/// ready; otherwise fall back to the oldest ready warp (Table III's
/// baseline policy).
///
/// # Example
///
/// ```
/// use gpu_sim::{GtoWarpScheduler, WarpScheduler, WarpView};
///
/// let mut gto = GtoWarpScheduler::new();
/// let w = |id, ready| WarpView { id, tb_slot: 0, ready };
/// // Oldest ready warp first.
/// assert_eq!(gto.pick(&[w(0, false), w(1, true), w(2, true)]), Some(1));
/// gto.issued(w(1, true));
/// // Greedy: stays on warp 1 while it remains ready.
/// assert_eq!(gto.pick(&[w(0, true), w(1, true), w(2, true)]), Some(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GtoWarpScheduler {
    last: Option<u32>,
}

impl GtoWarpScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WarpScheduler for GtoWarpScheduler {
    fn pick(&mut self, warps: &[WarpView]) -> Option<usize> {
        if let Some(last) = self.last {
            // Launch order means ascending (unique) ids, so the greedy
            // warp — the common case — is found by binary search rather
            // than a scan.
            debug_assert!(warps.windows(2).all(|w| w[0].id < w[1].id));
            if let Ok(i) = warps.binary_search_by_key(&last, |w| w.id) {
                if warps[i].ready {
                    return Some(i);
                }
            }
        }
        // Oldest = lowest stable id; launch order preserves it.
        warps.iter().position(|w| w.ready)
    }

    fn issued(&mut self, warp: WarpView) {
        self.last = Some(warp.id);
    }

    fn name(&self) -> &str {
        "gto"
    }
}

/// Loose round robin: rotate through ready warps starting after the last
/// issued one — maximal fairness, minimal locality.
#[derive(Debug, Clone, Default)]
pub struct LrrWarpScheduler {
    last: Option<u32>,
}

impl LrrWarpScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WarpScheduler for LrrWarpScheduler {
    fn pick(&mut self, warps: &[WarpView]) -> Option<usize> {
        if warps.is_empty() {
            return None;
        }
        let start = self
            .last
            .and_then(|last| warps.iter().position(|w| w.id > last))
            .unwrap_or(0);
        (0..warps.len())
            .map(|k| (start + k) % warps.len())
            .find(|&i| warps[i].ready)
    }

    fn issued(&mut self, warp: WarpView) {
        self.last = Some(warp.id);
    }

    fn name(&self) -> &str {
        "lrr"
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
    fn gto_prefers_last_issued() {
        let mut s = GtoWarpScheduler::new();
        let warps = [w(0, 0, true), w(1, 0, true), w(2, 1, true)];
        assert_eq!(s.pick(&warps), Some(0));
        s.issued(w(2, 1, true));
        assert_eq!(s.pick(&warps), Some(2), "greedy on warp 2");
        // Warp 2 stalls: oldest ready wins.
        let warps = [w(0, 0, true), w(1, 0, true), w(2, 1, false)];
        assert_eq!(s.pick(&warps), Some(0));
    }

    #[test]
    fn gto_survives_compaction() {
        let mut s = GtoWarpScheduler::new();
        s.issued(w(5, 0, true));
        // Warp 5 finished and left the views: fall back to oldest.
        let warps = [w(6, 0, true), w(7, 0, true)];
        assert_eq!(s.pick(&warps), Some(0));
    }

    #[test]
    fn lrr_rotates() {
        let mut s = LrrWarpScheduler::new();
        let warps = [w(0, 0, true), w(1, 0, true), w(2, 0, true)];
        assert_eq!(s.pick(&warps), Some(0));
        s.issued(w(0, 0, true));
        assert_eq!(s.pick(&warps), Some(1));
        s.issued(w(1, 0, true));
        assert_eq!(s.pick(&warps), Some(2));
        s.issued(w(2, 1, true));
        assert_eq!(s.pick(&warps), Some(0), "wraps around");
    }

    #[test]
    fn lrr_skips_stalled() {
        let mut s = LrrWarpScheduler::new();
        s.issued(w(0, 0, true));
        let warps = [w(0, 0, true), w(1, 0, false), w(2, 0, true)];
        assert_eq!(s.pick(&warps), Some(2));
    }

    #[test]
    fn none_when_nothing_ready() {
        let mut gto = GtoWarpScheduler::new();
        let mut lrr = LrrWarpScheduler::new();
        let warps = [w(0, 0, false)];
        assert_eq!(gto.pick(&warps), None);
        assert_eq!(lrr.pick(&warps), None);
        assert_eq!(gto.pick(&[]), None);
        assert_eq!(lrr.pick(&[]), None);
    }
}
