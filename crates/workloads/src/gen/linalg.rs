//! The PolyBench matrix-vector family: `atax`, `bicg`, `mvt`.
//!
//! All three benchmarks alternate two sweeps over a tall matrix `A`:
//!
//! * a **row sweep** (`tmp = A·x`): one thread per row walks its row while
//!   a warp's 32 lanes stride `cols * 4` bytes apart — every warp
//!   instruction touches a multi-page column slice of `A`, and the same
//!   slice is re-touched for every 16-column chunk. This is the
//!   stride-access TLB-thrasher whose intra-TB reuses the paper's Figure 5
//!   shows stretched far past the 64-entry L1 reach by inter-TB
//!   interference.
//! * a **column sweep** (`y = Aᵀ·tmp`): one thread per column; warps read
//!   contiguous 32-element row segments while walking down the rows.
//!
//! The vectors (`x`, `tmp`, …) are tiny and shared by *all* TBs — the
//! sizable inter-TB translation reuse the paper's Observation 2 reports
//! for exactly these benchmarks.
//!
//! The column sweep walks rows at page granularity (one representative
//! warp access per page-worth of rows) to bound trace size; the page
//! stream — which is what the TLB sees — is unchanged.

use crate::gen::{elem_addr, ELEM};
use crate::scale::Scale;
use crate::trace::{KernelTrace, LaneAccesses, TbTrace, WarpOp, LANES_PER_WARP};
use crate::Workload;
use vmem::{AddressSpace, Buffer, PageSize};

/// Columns processed per row-sweep inner-loop chunk.
const COL_CHUNK: usize = 16;

/// Threads per TB in the row-sweep kernels (one warp; the real kernels
/// use small 1D blocks, and one warp per TB gives each TB a hot set of a
/// handful of A pages plus the shared vector page — the regime in which
/// the paper reports TB-id partitioning itself helps these benchmarks).
const ROW_TB_THREADS: usize = 32;

/// Threads per TB in the column-sweep kernels.
const COL_TB_THREADS: usize = 64;

/// Emits the row-sweep kernel `out[i] = Σ_j a[i][j] * x[j]`.
fn row_sweep(
    name: &str,
    a: &Buffer,
    x: &Buffer,
    out: &Buffer,
    rows: usize,
    cols: usize,
) -> KernelTrace {
    let warps_per_tb = ROW_TB_THREADS / LANES_PER_WARP;
    let num_tbs = rows.div_ceil(ROW_TB_THREADS);
    let mut tbs = Vec::with_capacity(num_tbs);
    for tb_idx in 0..num_tbs {
        let mut tb = TbTrace::with_warps(warps_per_tb);
        for w in 0..warps_per_tb {
            let warp = tb.warp_mut(w);
            let i0 = tb_idx * ROW_TB_THREADS + w * LANES_PER_WARP;
            if i0 >= rows {
                break;
            }
            let lanes = LANES_PER_WARP.min(rows - i0) as u8;
            for jc in (0..cols).step_by(COL_CHUNK) {
                // 32 lanes read A[i0 + lane][jc]: a column slice strided by
                // the row pitch.
                warp.push(WarpOp::Load(LaneAccesses::Strided {
                    base: elem_addr(a, (i0 * cols + jc) as u64),
                    stride: (cols * ELEM as usize) as i64,
                    active_lanes: lanes,
                }));
                // The 16 x-elements of this chunk live on one page: a
                // broadcast-style read.
                warp.push(WarpOp::Load(LaneAccesses::broadcast(elem_addr(
                    x, jc as u64,
                ))));
                warp.push(WarpOp::Compute {
                    cycles: COL_CHUNK as u32 / 4,
                });
            }
            warp.push(WarpOp::Store(LaneAccesses::contiguous(
                elem_addr(out, i0 as u64),
                ELEM,
                lanes,
            )));
        }
        tbs.push(tb);
    }
    KernelTrace {
        name: name.into(),
        tbs,
        max_concurrent_tbs_per_sm: 16,
        threads_per_tb: ROW_TB_THREADS as u32,
    }
}

/// Emits the column-sweep kernel `out[j] = Σ_i a[i][j] * x[i]`, walking
/// rows at page granularity.
fn col_sweep(
    name: &str,
    a: &Buffer,
    x: &Buffer,
    out: &Buffer,
    rows: usize,
    cols: usize,
    page_size: PageSize,
) -> KernelTrace {
    let warps_per_tb = COL_TB_THREADS / LANES_PER_WARP;
    let num_tbs = cols.div_ceil(COL_TB_THREADS);
    // One representative access per page-worth of rows.
    let rows_per_page = (page_size.bytes() as usize / (cols * ELEM as usize)).max(1);
    let mut tbs = Vec::with_capacity(num_tbs);
    for tb_idx in 0..num_tbs {
        let mut tb = TbTrace::with_warps(warps_per_tb);
        for w in 0..warps_per_tb {
            let warp = tb.warp_mut(w);
            let j0 = tb_idx * COL_TB_THREADS + w * LANES_PER_WARP;
            if j0 >= cols {
                break;
            }
            let lanes = LANES_PER_WARP.min(cols - j0) as u8;
            for i in (0..rows).step_by(rows_per_page) {
                warp.push(WarpOp::Load(LaneAccesses::contiguous(
                    elem_addr(a, (i * cols + j0) as u64),
                    ELEM,
                    lanes,
                )));
                warp.push(WarpOp::Load(LaneAccesses::broadcast(elem_addr(
                    x, i as u64,
                ))));
                warp.push(WarpOp::Compute { cycles: 4 });
            }
            warp.push(WarpOp::Store(LaneAccesses::contiguous(
                elem_addr(out, j0 as u64),
                ELEM,
                lanes,
            )));
        }
        tbs.push(tb);
    }
    KernelTrace {
        name: name.into(),
        tbs,
        max_concurrent_tbs_per_sm: 16,
        threads_per_tb: COL_TB_THREADS as u32,
    }
}

fn dims(scale: Scale) -> (usize, usize) {
    (scale.tall_rows(), scale.narrow_cols())
}

/// Generates `atax`: `y = Aᵀ(A·x)` — a row sweep producing `tmp`, then a
/// column sweep consuming it.
pub fn atax(scale: Scale, _seed: u64, page_size: PageSize) -> Workload {
    let (rows, cols) = dims(scale);
    let mut space = AddressSpace::new(page_size);
    let a = space
        .allocate("atax_a", (rows * cols) as u64 * ELEM as u64)
        .expect("fresh space");
    let x = space
        .allocate("atax_x", cols as u64 * ELEM as u64)
        .expect("fresh space");
    let tmp = space
        .allocate("atax_tmp", rows as u64 * ELEM as u64)
        .expect("fresh space");
    let y = space
        .allocate("atax_y", cols as u64 * ELEM as u64)
        .expect("fresh space");
    let k1 = row_sweep("atax_k1_ax", &a, &x, &tmp, rows, cols);
    let k2 = col_sweep("atax_k2_aty", &a, &tmp, &y, rows, cols, page_size);
    Workload::new("atax", vec![k1, k2], space)
}

/// Generates `bicg`: the BiCGStab sub-kernels `q = A·p` and `s = Aᵀ·r`
/// (two independent sweeps over the same matrix).
pub fn bicg(scale: Scale, _seed: u64, page_size: PageSize) -> Workload {
    let (rows, cols) = dims(scale);
    let mut space = AddressSpace::new(page_size);
    let a = space
        .allocate("bicg_a", (rows * cols) as u64 * ELEM as u64)
        .expect("fresh space");
    let p = space
        .allocate("bicg_p", cols as u64 * ELEM as u64)
        .expect("fresh space");
    let q = space
        .allocate("bicg_q", rows as u64 * ELEM as u64)
        .expect("fresh space");
    let r = space
        .allocate("bicg_r", rows as u64 * ELEM as u64)
        .expect("fresh space");
    let s = space
        .allocate("bicg_s", cols as u64 * ELEM as u64)
        .expect("fresh space");
    let k1 = row_sweep("bicg_k1_q", &a, &p, &q, rows, cols);
    let k2 = col_sweep("bicg_k2_s", &a, &r, &s, rows, cols, page_size);
    Workload::new("bicg", vec![k1, k2], space)
}

/// Generates `mvt`: `x1 += A·y1` and `x2 += Aᵀ·y2`.
pub fn mvt(scale: Scale, _seed: u64, page_size: PageSize) -> Workload {
    let (rows, cols) = dims(scale);
    let mut space = AddressSpace::new(page_size);
    let a = space
        .allocate("mvt_a", (rows * cols) as u64 * ELEM as u64)
        .expect("fresh space");
    let y1 = space
        .allocate("mvt_y1", cols as u64 * ELEM as u64)
        .expect("fresh space");
    let x1 = space
        .allocate("mvt_x1", rows as u64 * ELEM as u64)
        .expect("fresh space");
    let y2 = space
        .allocate("mvt_y2", rows as u64 * ELEM as u64)
        .expect("fresh space");
    let x2 = space
        .allocate("mvt_x2", cols as u64 * ELEM as u64)
        .expect("fresh space");
    let k1 = row_sweep("mvt_k1_x1", &a, &y1, &x1, rows, cols);
    let k2 = col_sweep("mvt_k2_x2", &a, &y2, &x2, rows, cols, page_size);
    Workload::new("mvt", vec![k1, k2], space)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atax_has_two_kernels_with_valid_addresses() {
        let wl = atax(Scale::Test, 0, PageSize::Small);
        assert_eq!(wl.kernels().len(), 2);
        for k in wl.kernels() {
            for tb in &k.tbs {
                for va in tb.all_addresses() {
                    assert!(wl.space().is_covered(va));
                }
            }
        }
    }

    #[test]
    fn row_sweep_grid_size() {
        let wl = atax(Scale::Test, 0, PageSize::Small);
        let rows = Scale::Test.tall_rows();
        assert_eq!(wl.kernels()[0].tbs.len(), rows.div_ceil(ROW_TB_THREADS));
        assert_eq!(wl.kernels()[0].max_concurrent_tbs_per_sm, 16);
    }

    #[test]
    fn row_sweep_strides_across_pages() {
        let wl = atax(Scale::Test, 0, PageSize::Small);
        let k1 = &wl.kernels()[0];
        // The first op of the first warp is a strided load across rows.
        let first = &k1.tbs[0].warps()[0].ops()[0];
        match first {
            WarpOp::Load(LaneAccesses::Strided { stride, .. }) => {
                assert_eq!(*stride, (Scale::Test.narrow_cols() * ELEM as usize) as i64);
            }
            other => panic!("expected strided load, got {other:?}"),
        }
    }

    #[test]
    fn vectors_are_shared_across_tbs() {
        // Every TB of the row sweep touches the same x-vector pages.
        let wl = bicg(Scale::Test, 0, PageSize::Small);
        let p_base = wl.space().buffer("bicg_p").unwrap().base();
        let k1 = &wl.kernels()[0];
        for tb in &k1.tbs {
            assert!(
                tb.all_addresses()
                    .any(|a| a.align_down(PageSize::Small) == p_base.align_down(PageSize::Small)),
                "every TB reads the shared vector page"
            );
        }
    }

    #[test]
    fn all_three_benchmarks_generate() {
        for (wl, nkernels) in [
            (atax(Scale::Test, 0, PageSize::Small), 2),
            (bicg(Scale::Test, 0, PageSize::Small), 2),
            (mvt(Scale::Test, 0, PageSize::Small), 2),
        ] {
            assert_eq!(wl.kernels().len(), nkernels);
            assert!(wl.total_warp_ops() > 100);
        }
    }

    #[test]
    fn col_sweep_walks_page_granular() {
        let wl = mvt(Scale::Test, 0, PageSize::Small);
        let k2 = &wl.kernels()[1];
        assert!(!k2.tbs.is_empty());
        // Distinct A pages touched by warp 0 should cover the whole column
        // extent of the matrix.
        let rows = Scale::Test.tall_rows();
        let cols = Scale::Test.narrow_cols();
        let a = wl.space().buffer("mvt_a").unwrap();
        let a_pages: std::collections::HashSet<u64> = k2.tbs[0].warps()[0]
            .ops()
            .iter()
            .filter_map(WarpOp::accesses)
            .flat_map(LaneAccesses::addresses)
            .filter(|v| a.contains(*v))
            .map(|v| v.raw() >> 12)
            .collect();
        let matrix_pages = (rows * cols * ELEM as usize) / 4096;
        assert!(
            a_pages.len() >= matrix_pages / 2,
            "column sweep should touch most matrix pages: {} of {}",
            a_pages.len(),
            matrix_pages
        );
    }
}
