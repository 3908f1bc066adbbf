//! Needleman-Wunsch (Rodinia `nw`): wavefront dynamic programming over a
//! score matrix.
//!
//! The alignment matrix is processed in 16×16 blocks along anti-diagonals:
//! one kernel launch per diagonal, one TB per block on that diagonal (the
//! upper-left triangle is swept first, then the lower-right). Each TB
//! reads its block's top halo row, its left halo column (one page per row
//! — the score matrix row pitch exceeds a 4 KiB page at evaluation scale),
//! and its reference-matrix tile, then runs the serial in-block diagonal
//! recurrence (modeled as heavy compute — the paper notes `nw` is
//! compute-bound, which is why its L1 TLB hit-rate gain does not translate
//! into speedup).

use crate::gen::{elem_addr, ELEM};
use crate::scale::Scale;
use crate::trace::{KernelTrace, LaneAccesses, TbTrace, WarpOp, LANES_PER_WARP};
use crate::Workload;
use vmem::{AddressSpace, Buffer, PageSize};

/// DP block edge (Rodinia's BLOCK_SIZE).
const BLOCK: usize = 16;

/// Emits the trace of one 16×16 DP block at block coordinates (bi, bj).
fn block_tb(score: &Buffer, reference: &Buffer, n: usize, bi: usize, bj: usize) -> TbTrace {
    let pitch = n + 1; // score matrix is (n+1) x (n+1)
    let mut tb = TbTrace::with_warps(1);
    let warp = tb.warp_mut(0);
    let r0 = bi * BLOCK; // halo row index
    let c0 = bj * BLOCK;

    // Top halo row: score[r0][c0 .. c0+17] — contiguous.
    warp.push(WarpOp::Load(LaneAccesses::contiguous(
        elem_addr(score, (r0 * pitch + c0) as u64),
        ELEM,
        (BLOCK + 1) as u8,
    )));
    // Left halo column: score[r0+1 .. r0+17][c0] — one page per row at
    // evaluation scale (row pitch > 4 KiB).
    warp.push(WarpOp::Load(LaneAccesses::Strided {
        base: elem_addr(score, ((r0 + 1) * pitch + c0) as u64),
        stride: (pitch * ELEM as usize) as i64,
        active_lanes: BLOCK as u8,
    }));
    // Reference tile rows.
    for r in 0..BLOCK {
        warp.push(WarpOp::Load(LaneAccesses::contiguous(
            elem_addr(reference, ((r0 + r) * n + c0) as u64),
            ELEM,
            BLOCK as u8,
        )));
    }
    // The 2*BLOCK-1 in-block anti-diagonals execute serially.
    warp.push(WarpOp::Compute {
        cycles: (2 * BLOCK as u32 - 1) * 8,
    });
    // Write back the block, one row per store.
    for r in 1..=BLOCK {
        warp.push(WarpOp::Store(LaneAccesses::contiguous(
            elem_addr(score, ((r0 + r) * pitch + c0 + 1) as u64),
            ELEM,
            BLOCK as u8,
        )));
    }
    tb
}

/// Generates the `nw` workload over an `n × n` alignment problem.
///
/// # Panics
///
/// Panics if the scale's matrix dimension is not a multiple of the DP
/// block size (all presets are).
pub fn generate(scale: Scale, _seed: u64, page_size: PageSize) -> Workload {
    let n = scale.matrix_dim();
    assert!(
        n.is_multiple_of(BLOCK),
        "dim {n} must be a multiple of {BLOCK}"
    );
    let nb = n / BLOCK;

    let mut space = AddressSpace::new(page_size);
    let score = space
        .allocate("nw_score", ((n + 1) * (n + 1)) as u64 * ELEM as u64)
        .expect("fresh space");
    let reference = space
        .allocate("nw_ref", (n * n) as u64 * ELEM as u64)
        .expect("fresh space");

    let mut kernels = Vec::with_capacity(2 * nb - 1);
    // Upper-left triangle: diagonals with 1..=nb blocks.
    for d in 1..=nb {
        let tbs: Vec<TbTrace> = (0..d)
            .map(|t| block_tb(&score, &reference, n, t, d - 1 - t))
            .collect();
        kernels.push(KernelTrace {
            name: format!("nw_diag_up_{d}"),
            tbs,
            max_concurrent_tbs_per_sm: 16,
            threads_per_tb: LANES_PER_WARP as u32,
        });
    }
    // Lower-right triangle: diagonals with nb-1..=1 blocks.
    for d in (1..nb).rev() {
        let tbs: Vec<TbTrace> = (0..d)
            .map(|t| block_tb(&score, &reference, n, nb - d + t, nb - 1 - t))
            .collect();
        kernels.push(KernelTrace {
            name: format!("nw_diag_down_{d}"),
            tbs,
            max_concurrent_tbs_per_sm: 16,
            threads_per_tb: LANES_PER_WARP as u32,
        });
    }
    Workload::new("nw", kernels, space)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_kernel_structure() {
        let wl = generate(Scale::Test, 0, PageSize::Small);
        let nb = Scale::Test.matrix_dim() / BLOCK;
        assert_eq!(wl.kernels().len(), 2 * nb - 1);
        // Diagonal sizes: 1, 2, ..., nb, nb-1, ..., 1.
        let sizes: Vec<usize> = wl.kernels().iter().map(|k| k.tbs.len()).collect();
        let mut expected: Vec<usize> = (1..=nb).collect();
        expected.extend((1..nb).rev());
        assert_eq!(sizes, expected);
        // Total blocks = nb^2.
        assert_eq!(sizes.iter().sum::<usize>(), nb * nb);
    }

    #[test]
    fn addresses_valid() {
        let wl = generate(Scale::Test, 0, PageSize::Small);
        for k in wl.kernels() {
            for tb in &k.tbs {
                for va in tb.all_addresses() {
                    assert!(wl.space().is_covered(va));
                }
            }
        }
    }

    #[test]
    fn blocks_are_compute_heavy() {
        let wl = generate(Scale::Test, 0, PageSize::Small);
        let tb = &wl.kernels()[0].tbs[0];
        let compute: u32 = tb.warps()[0]
            .ops()
            .iter()
            .map(|o| match o {
                WarpOp::Compute { cycles } => *cycles,
                _ => 0,
            })
            .sum();
        assert!(compute >= 200, "nw must be compute-bound, got {compute}");
    }

    #[test]
    fn wavefront_neighbors_share_halo_pages() {
        // A block's store region overlaps the next diagonal's halo reads.
        let wl = generate(Scale::Test, 0, PageSize::Small);
        let k1 = &wl.kernels()[0]; // diagonal 1: block (0,0)
        let k2 = &wl.kernels()[1]; // diagonal 2: blocks (0,1), (1,0)
        let pages = |tb: &TbTrace| -> std::collections::HashSet<u64> {
            tb.all_addresses().map(|a| a.raw() >> 12).collect()
        };
        let p1 = pages(&k1.tbs[0]);
        assert!(k2.tbs.iter().any(|tb| !pages(tb).is_disjoint(&p1)));
    }
}
