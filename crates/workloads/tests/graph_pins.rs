//! Pins on the generated graphs: an FNV-1a hash of `row_ptr ‖ col_idx`
//! (each `u32` little-endian) for the graph shapes the workloads build.
//! Every graph benchmark, trace file and golden downstream depends on
//! these bytes, so a changed hash means a changed simulation input, not
//! a faster generator.

use workloads::format::fnv1a;
use workloads::gen::graph::build_graph;
use workloads::{CsrGraph, RmatParams, Scale};

fn csr_hash(g: &CsrGraph) -> u64 {
    let bytes: Vec<u8> = g
        .row_ptr()
        .iter()
        .chain(g.col_idx())
        .flat_map(|v| v.to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

#[test]
fn clustered_rmat_test_scale_is_pinned() {
    assert_eq!(
        csr_hash(&build_graph(Scale::Test, 42)),
        0x6a32_669c_b652_58b9
    );
}

#[test]
fn clustered_rmat_small_scale_is_pinned() {
    assert_eq!(
        csr_hash(&build_graph(Scale::Small, 42)),
        0x71f6_cb94_8bd7_3395
    );
}

#[test]
fn clustered_rmat_large_scale_is_pinned() {
    assert_eq!(
        csr_hash(&build_graph(Scale::Large, 42)),
        0xfa11_aba7_470a_1b77
    );
}

/// 1000 nodes recurse over 1024, so some sources land past the last
/// node and the `src >= num_nodes` rejection runs.
#[test]
fn clustered_rmat_non_power_of_two_is_pinned() {
    let g = CsrGraph::clustered_rmat(1000, 8000, RmatParams::default(), 0.6, 64, 7);
    assert_eq!(csr_hash(&g), 0x43ff_836a_591f_90f5);
}

#[test]
fn rmat_default_params_are_pinned() {
    let g = CsrGraph::rmat(1 << 12, 1 << 15, RmatParams::default(), 42);
    assert_eq!(csr_hash(&g), 0x055e_286f_545a_1887);
    let g = CsrGraph::rmat(1000, 5000, RmatParams::default(), 1);
    assert_eq!(csr_hash(&g), 0x6ea7_e8d0_0c01_e190);
}

#[test]
fn rmat_uniform_params_are_pinned() {
    let uniform = RmatParams {
        a: 0.25,
        b: 0.25,
        c: 0.25,
    };
    let g = CsrGraph::rmat(1 << 12, 1 << 15, uniform, 42);
    assert_eq!(csr_hash(&g), 0x2f14_4450_1b61_2f42);
}
