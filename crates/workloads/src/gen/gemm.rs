//! Tiled dense matrix multiply (PolyBench `gemm`): `C = A * B`.
//!
//! Each 16×16-thread TB computes a 16×16 tile of `C`, looping over 16-wide
//! `k` tiles of `A` and `B`. Thread blocks along the same tile row share
//! the pages of `A`'s rows, and blocks along the same tile column share
//! `B`'s pages — the intrinsic inter-TB translation reuse the paper's
//! Observation 2 reports for `gemm`.

use crate::gen::{elem_addr, ELEM};
use crate::scale::Scale;
use crate::trace::{KernelTrace, LaneAccesses, TbTrace, WarpOp};
use crate::Workload;
use vmem::{AddressSpace, PageSize};

/// Tile edge (threads per TB = TILE * TILE = 256; 8 warps).
const TILE: usize = 16;

/// Generates the `gemm` workload.
///
/// # Panics
///
/// Panics if the scale's matrix dimension is not a multiple of the 16-wide
/// tile (all presets are).
pub fn generate(scale: Scale, _seed: u64, page_size: PageSize) -> Workload {
    let n = scale.gemm_dim();
    assert!(
        n.is_multiple_of(TILE),
        "matrix dim {n} must be a multiple of {TILE}"
    );
    let tiles = n / TILE;

    let mut space = AddressSpace::new(page_size);
    let bytes = (n * n) as u64 * ELEM as u64;
    let a = space.allocate("gemm_a", bytes).expect("fresh space");
    let b = space.allocate("gemm_b", bytes).expect("fresh space");
    let c = space.allocate("gemm_c", bytes).expect("fresh space");

    let mut tbs = Vec::with_capacity(tiles * tiles);
    for ti in 0..tiles {
        for tj in 0..tiles {
            let mut tb = TbTrace::with_warps(TILE * TILE / 32);
            for w in 0..(TILE * TILE / 32) {
                // Warp `w` owns rows `2w` and `2w + 1` of the tile
                // (16 lanes per row).
                let warp = tb.warp_mut(w);
                let r0 = ti * TILE + 2 * w;
                let r1 = r0 + 1;
                for kk in 0..tiles {
                    let k0 = kk * TILE;
                    // A tile rows for this warp: A[r0][k0..k0+16],
                    // A[r1][k0..k0+16].
                    for r in [r0, r1] {
                        warp.push(WarpOp::Load(LaneAccesses::contiguous(
                            elem_addr(&a, (r * n + k0) as u64),
                            ELEM,
                            TILE as u8,
                        )));
                    }
                    // B tile rows this warp loads into shared memory:
                    // B[k0 + 2w][tj*16..], B[k0 + 2w + 1][tj*16..].
                    for kr in [k0 + 2 * w, k0 + 2 * w + 1] {
                        warp.push(WarpOp::Load(LaneAccesses::contiguous(
                            elem_addr(&b, (kr * n + tj * TILE) as u64),
                            ELEM,
                            TILE as u8,
                        )));
                    }
                    // 16 multiply-accumulates per lane on the tile.
                    warp.push(WarpOp::Compute { cycles: 16 });
                }
                // Store the finished C rows.
                for r in [r0, r1] {
                    warp.push(WarpOp::Store(LaneAccesses::contiguous(
                        elem_addr(&c, (r * n + tj * TILE) as u64),
                        ELEM,
                        TILE as u8,
                    )));
                }
            }
            tbs.push(tb);
        }
    }

    let kernel = KernelTrace {
        name: "gemm_tile".into(),
        tbs,
        // Register pressure bounds occupancy: ~16 registers/thread x 256
        // threads against Table III's 64 KB register file leaves four
        // resident TBs per SM.
        max_concurrent_tbs_per_sm: 4,
        threads_per_tb: (TILE * TILE) as u32,
    };
    Workload::new("gemm", vec![kernel], space)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_tiling() {
        let wl = generate(Scale::Test, 0, PageSize::Small);
        let n = Scale::Test.gemm_dim();
        let tiles = n / TILE;
        assert_eq!(wl.kernels().len(), 1);
        assert_eq!(wl.kernels()[0].tbs.len(), tiles * tiles);
        assert_eq!(wl.kernels()[0].threads_per_tb, 256);
    }

    #[test]
    fn all_addresses_fall_in_buffers() {
        let wl = generate(Scale::Test, 0, PageSize::Small);
        for tb in &wl.kernels()[0].tbs {
            for va in tb.all_addresses() {
                assert!(wl.space().is_covered(va), "address {va} outside buffers");
            }
        }
    }

    #[test]
    fn row_sharing_across_tile_row() {
        // Two TBs in the same tile row touch common A pages.
        let wl = generate(Scale::Test, 0, PageSize::Small);
        let n = Scale::Test.gemm_dim();
        let tiles = n / TILE;
        let pages = |tb: &TbTrace| -> std::collections::HashSet<u64> {
            tb.all_addresses().map(|a| a.raw() >> 12).collect()
        };
        let tb0 = &wl.kernels()[0].tbs[0]; // (ti=0, tj=0)
        let tb1 = &wl.kernels()[0].tbs[1]; // (ti=0, tj=1)
        let tb_other_row = &wl.kernels()[0].tbs[tiles * (tiles / 2)];
        let common_same_row = pages(tb0).intersection(&pages(tb1)).count();
        let common_diff_row = pages(tb0).intersection(&pages(tb_other_row)).count();
        assert!(
            common_same_row > common_diff_row,
            "same-tile-row TBs should share more pages ({common_same_row} vs {common_diff_row})"
        );
    }

    #[test]
    fn deterministic() {
        let a = generate(Scale::Test, 1, PageSize::Small);
        let b = generate(Scale::Test, 2, PageSize::Small);
        assert_eq!(a.total_warp_ops(), b.total_warp_ops());
        assert_eq!(a.kernels()[0].tbs, b.kernels()[0].tbs);
    }
}
