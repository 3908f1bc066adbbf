//! CSR graph-traversal benchmarks: `bfs` (Rodinia) and `color`, `mis`,
//! `pagerank` (Pannotia).
//!
//! All four share the same skeleton — one thread per node scans its CSR
//! adjacency list and gathers a per-neighbor value — and differ in which
//! arrays they read/write and which nodes are active each iteration. The
//! power-law degree distribution of the synthetic citation graph gives
//! them exactly the properties the paper observes: highly reused hub
//! pages, irregular gathers that defeat stride-based TLB techniques, and
//! strong inter-TB imbalance in translation counts.

use crate::gen::{elem_addr, ELEM};
use crate::graph::{CsrGraph, RmatParams};
use crate::scale::Scale;
use crate::trace::{KernelTrace, LaneAccesses, TbTrace, WarpOp, LANES_PER_WARP};
use crate::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vmem::{AddressSpace, Buffer, PageSize, VirtAddr};

/// Threads per TB for the graph kernels (2 warps).
const TB_THREADS: usize = 64;

/// What one traversal kernel reads and writes.
struct TraversalSpec<'a> {
    /// Kernel name.
    name: String,
    /// Per-node array read contiguously at the start (flags, ranks, …).
    node_read: Option<&'a Buffer>,
    /// Per-neighbor array gathered through `col_idx` values.
    gather_read: &'a Buffer,
    /// Whether gathered neighbors are also written (e.g. BFS relaxation).
    gather_write: bool,
    /// Per-node array written contiguously at the end.
    node_write: Option<&'a Buffer>,
    /// Which nodes are active this iteration.
    active: &'a [bool],
}

/// Builds one level/iteration kernel over the CSR graph.
fn traversal_kernel(
    graph: &CsrGraph,
    row_ptr_buf: &Buffer,
    col_idx_buf: &Buffer,
    node_stride: u64,
    spec: TraversalSpec<'_>,
) -> KernelTrace {
    let n = graph.num_nodes();
    let warps_per_tb = TB_THREADS / LANES_PER_WARP;
    let num_tbs = n.div_ceil(TB_THREADS);
    let mut tbs = Vec::with_capacity(num_tbs);
    for tb_idx in 0..num_tbs {
        let mut tb = TbTrace::with_warps(warps_per_tb);
        for w in 0..warps_per_tb {
            let n0 = tb_idx * TB_THREADS + w * LANES_PER_WARP;
            if n0 >= n {
                break;
            }
            let lanes = LANES_PER_WARP.min(n - n0) as u8;
            let warp = tb.warp_mut(w);
            // Read the per-node status array for the warp's nodes.
            if let Some(buf) = spec.node_read {
                warp.push(WarpOp::Load(LaneAccesses::Strided {
                    base: buf.addr_of(n0 as u64 * node_stride),
                    stride: node_stride as i64,
                    active_lanes: lanes,
                }));
            }
            // Row pointers for the warp's nodes (plus the fencepost).
            warp.push(WarpOp::Load(LaneAccesses::contiguous(
                elem_addr(row_ptr_buf, n0 as u64),
                ELEM,
                lanes,
            )));
            // Gather the adjacency lists of the *active* nodes.
            let mut edge_addrs: Vec<VirtAddr> = Vec::new();
            let mut neigh_addrs: Vec<VirtAddr> = Vec::new();
            let mut edges = 0usize;
            for node in n0..(n0 + lanes as usize) {
                if !spec.active[node] {
                    continue;
                }
                let start = graph.row_ptr()[node] as u64;
                for (e, &nb) in graph.neighbors(node as u32).iter().enumerate() {
                    edge_addrs.push(elem_addr(col_idx_buf, start + e as u64));
                    neigh_addrs.push(spec.gather_read.addr_of(nb as u64 * node_stride));
                    edges += 1;
                }
            }
            for acc in LaneAccesses::gather_chunks(&edge_addrs) {
                warp.push(WarpOp::Load(acc));
            }
            for acc in LaneAccesses::gather_chunks(&neigh_addrs) {
                warp.push(WarpOp::Load(acc));
            }
            if spec.gather_write {
                for acc in LaneAccesses::gather_chunks(&neigh_addrs) {
                    warp.push(WarpOp::Store(acc));
                }
            }
            if edges > 0 {
                warp.push(WarpOp::Compute {
                    cycles: (edges as u32).max(4),
                });
            }
            if let Some(buf) = spec.node_write {
                warp.push(WarpOp::Store(LaneAccesses::Strided {
                    base: buf.addr_of(n0 as u64 * node_stride),
                    stride: node_stride as i64,
                    active_lanes: lanes,
                }));
            }
        }
        tbs.push(tb);
    }
    KernelTrace {
        name: spec.name,
        tbs,
        max_concurrent_tbs_per_sm: 16,
        threads_per_tb: TB_THREADS as u32,
    }
}

/// Allocates the shared CSR buffers and builds the graph.
fn graph_setup(
    prefix: &str,
    scale: Scale,
    seed: u64,
    page_size: PageSize,
) -> (CsrGraph, AddressSpace, Buffer, Buffer) {
    let n = scale.graph_nodes();
    let e = n * scale.graph_avg_degree();
    // Citation-graph-like structure: clustered destinations with R-MAT
    // hubs (see CsrGraph::clustered_rmat and DESIGN.md).
    let window = (n / 128).max(64);
    let graph = CsrGraph::clustered_rmat(n, e, RmatParams::default(), 0.6, window, seed);
    let mut space = AddressSpace::new(page_size);
    let row_ptr = space
        .allocate(&format!("{prefix}_row_ptr"), (n as u64 + 1) * ELEM as u64)
        .expect("fresh space");
    let col_idx = space
        .allocate(&format!("{prefix}_col_idx"), e as u64 * ELEM as u64)
        .expect("fresh space");
    (graph, space, row_ptr, col_idx)
}

/// Generates `bfs`: level-synchronous breadth-first search from node 0,
/// one kernel per frontier level (real frontiers computed on the graph).
pub fn bfs(scale: Scale, seed: u64, page_size: PageSize) -> Workload {
    let (graph, mut space, row_ptr, col_idx) = graph_setup("bfs", scale, seed, page_size);
    let n = graph.num_nodes();
    let stride = scale.node_stride();
    let level_buf = space
        .allocate("bfs_level", n as u64 * stride)
        .expect("fresh space");

    // Real BFS to obtain the per-level frontiers.
    let mut level = vec![u32::MAX; n];
    level[0] = 0;
    let mut frontier = vec![0u32];
    let mut kernels = Vec::new();
    let max_levels = 5;
    for l in 0..max_levels {
        if frontier.is_empty() {
            break;
        }
        let mut active = vec![false; n];
        for &f in &frontier {
            active[f as usize] = true;
        }
        kernels.push(traversal_kernel(
            &graph,
            &row_ptr,
            &col_idx,
            stride,
            TraversalSpec {
                name: format!("bfs_level_{l}"),
                node_read: Some(&level_buf),
                gather_read: &level_buf,
                gather_write: true,
                node_write: None,
                active: &active,
            },
        ));
        let mut next = Vec::new();
        for &f in &frontier {
            for &nb in graph.neighbors(f) {
                if level[nb as usize] == u32::MAX {
                    level[nb as usize] = l as u32 + 1;
                    next.push(nb);
                }
            }
        }
        frontier = next;
    }
    Workload::new("bfs", kernels, space)
}

/// Generates `pagerank`: every node gathers its neighbors' ranks each
/// iteration (dense traversal, double-buffered rank arrays).
pub fn pagerank(scale: Scale, seed: u64, page_size: PageSize) -> Workload {
    let (graph, mut space, row_ptr, col_idx) = graph_setup("pagerank", scale, seed, page_size);
    let n = graph.num_nodes();
    let stride = scale.node_stride();
    let rank_a = space
        .allocate("pagerank_rank_a", n as u64 * stride)
        .expect("fresh space");
    let rank_b = space
        .allocate("pagerank_rank_b", n as u64 * stride)
        .expect("fresh space");
    let active = vec![true; n];
    let mut kernels = Vec::new();
    for it in 0..scale.graph_iterations() {
        let (src, dst) = if it % 2 == 0 {
            (&rank_a, &rank_b)
        } else {
            (&rank_b, &rank_a)
        };
        kernels.push(traversal_kernel(
            &graph,
            &row_ptr,
            &col_idx,
            stride,
            TraversalSpec {
                name: format!("pagerank_iter_{it}"),
                node_read: Some(src),
                gather_read: src,
                gather_write: false,
                node_write: Some(dst),
                active: &active,
            },
        ));
    }
    Workload::new("pagerank", kernels, space)
}

/// Generates `color` (graph coloring): each iteration, the still-uncolored
/// nodes gather their neighbors' colors; the active set shrinks.
pub fn color(scale: Scale, seed: u64, page_size: PageSize) -> Workload {
    let (graph, mut space, row_ptr, col_idx) = graph_setup("color", scale, seed, page_size);
    let n = graph.num_nodes();
    let stride = scale.node_stride();
    let color_buf = space
        .allocate("color_colors", n as u64 * stride)
        .expect("fresh space");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc01);
    let mut active = vec![true; n];
    let mut kernels = Vec::new();
    for it in 0..=scale.graph_iterations() {
        kernels.push(traversal_kernel(
            &graph,
            &row_ptr,
            &col_idx,
            stride,
            TraversalSpec {
                name: format!("color_iter_{it}"),
                node_read: Some(&color_buf),
                gather_read: &color_buf,
                gather_write: false,
                node_write: Some(&color_buf),
                active: &active,
            },
        ));
        // Roughly 60% of the remaining nodes get colored each round
        // (seeded, deterministic).
        for a in active.iter_mut() {
            if *a && rng.gen::<f64>() < 0.6 {
                *a = false;
            }
        }
    }
    Workload::new("color", kernels, space)
}

/// Generates `mis` (maximal independent set): nodes compare random
/// priorities with their neighbors; winners and their neighbors drop out.
pub fn mis(scale: Scale, seed: u64, page_size: PageSize) -> Workload {
    let (graph, mut space, row_ptr, col_idx) = graph_setup("mis", scale, seed, page_size);
    let n = graph.num_nodes();
    let stride = scale.node_stride();
    let priority = space
        .allocate("mis_priority", n as u64 * stride)
        .expect("fresh space");
    let state = space
        .allocate("mis_state", n as u64 * stride)
        .expect("fresh space");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x315);
    let prios: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
    let mut in_set = vec![false; n];
    let mut removed = vec![false; n];
    let mut kernels = Vec::new();
    for it in 0..=scale.graph_iterations() {
        let active: Vec<bool> = (0..n).map(|i| !in_set[i] && !removed[i]).collect();
        if !active.iter().any(|&a| a) {
            break;
        }
        kernels.push(traversal_kernel(
            &graph,
            &row_ptr,
            &col_idx,
            stride,
            TraversalSpec {
                name: format!("mis_iter_{it}"),
                node_read: Some(&priority),
                gather_read: &priority,
                gather_write: false,
                node_write: Some(&state),
                active: &active,
            },
        ));
        // Luby step: a node joins the set if it beats all live neighbors.
        let winners: Vec<usize> = (0..n)
            .filter(|&i| {
                active[i]
                    && graph.neighbors(i as u32).iter().all(|&nb| {
                        let j = nb as usize;
                        in_set[j] || removed[j] || (prios[i], i) > (prios[j], j)
                    })
            })
            .collect();
        for i in winners {
            in_set[i] = true;
            for &nb in graph.neighbors(i as u32) {
                removed[nb as usize] = true;
            }
        }
    }
    Workload::new("mis", kernels, space)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_levels_grow_then_shrink() {
        let wl = bfs(Scale::Test, 42, PageSize::Small);
        assert!(wl.kernels().len() >= 2, "BFS should have multiple levels");
        // Level 0 has exactly one active node, so its trace is tiny
        // compared to a mid-level.
        let ops: Vec<usize> = wl.kernels().iter().map(|k| k.total_ops()).collect();
        assert!(
            ops[1] > ops[0],
            "frontier grows after the root level: {ops:?}"
        );
    }

    #[test]
    fn pagerank_is_dense_every_iteration() {
        let wl = pagerank(Scale::Test, 42, PageSize::Small);
        assert_eq!(wl.kernels().len(), Scale::Test.graph_iterations());
        let n = Scale::Test.graph_nodes();
        let e = n * Scale::Test.graph_avg_degree();
        // Each iteration gathers all edges twice (col_idx + ranks): at
        // least 2*E/32 gather ops.
        let k = &wl.kernels()[0];
        assert!(k.total_ops() >= 2 * e / 32);
    }

    #[test]
    fn color_active_set_shrinks() {
        let wl = color(Scale::Test, 42, PageSize::Small);
        let ops: Vec<usize> = wl.kernels().iter().map(|k| k.total_ops()).collect();
        assert!(ops.len() >= 2);
        assert!(
            ops.last().unwrap() < ops.first().unwrap(),
            "colored nodes drop out: {ops:?}"
        );
    }

    #[test]
    fn mis_terminates_and_generates() {
        let wl = mis(Scale::Test, 42, PageSize::Small);
        assert!(!wl.kernels().is_empty());
        assert!(wl.total_warp_ops() > 0);
    }

    #[test]
    fn all_graph_addresses_valid() {
        for wl in [
            bfs(Scale::Test, 1, PageSize::Small),
            pagerank(Scale::Test, 1, PageSize::Small),
            color(Scale::Test, 1, PageSize::Small),
            mis(Scale::Test, 1, PageSize::Small),
        ] {
            for k in wl.kernels() {
                for tb in &k.tbs {
                    for va in tb.all_addresses() {
                        assert!(wl.space().is_covered(va), "{}: {va}", wl.name());
                    }
                }
            }
        }
    }

    #[test]
    fn hub_pages_reused_across_warps() {
        // In a power-law graph, some gather page must appear in many TBs.
        let wl = pagerank(Scale::Test, 42, PageSize::Small);
        let rank = wl.space().buffer("pagerank_rank_a").unwrap();
        let mut page_tb_counts: std::collections::HashMap<u64, usize> = Default::default();
        for tb in &wl.kernels()[0].tbs {
            let pages: std::collections::HashSet<u64> = tb
                .all_addresses()
                .filter(|a| rank.contains(*a))
                .map(|a| a.raw() >> 12)
                .collect();
            for p in pages {
                *page_tb_counts.entry(p).or_default() += 1;
            }
        }
        let max_tbs = page_tb_counts.values().max().copied().unwrap_or(0);
        assert!(
            max_tbs > wl.kernels()[0].tbs.len() / 2,
            "hub pages should be touched by most TBs ({max_tbs})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = bfs(Scale::Test, 7, PageSize::Small);
        let b = bfs(Scale::Test, 7, PageSize::Small);
        assert_eq!(a.total_warp_ops(), b.total_warp_ops());
        let c = bfs(Scale::Test, 8, PageSize::Small);
        assert_ne!(a.total_warp_ops(), c.total_warp_ops());
    }
}
