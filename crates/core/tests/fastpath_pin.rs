//! Pins how often the lookup memo serves, not just that it is exact.
//!
//! `fastpath_diff.rs` proves a memo hit is indistinguishable from a tag
//! walk, so a refactor that stops serving from the memo (or serves a
//! different set of lookups) keeps every simulated outcome and passes
//! that test. These runs pin `fastpath_hits` (L1 and L2 memos summed)
//! next to `total_cycles` for every L1 organization the paper's figures
//! use: `SetAssocTlb` (baseline), `PartitionedTlb` (full),
//! `CompressedTlb` (compression) and compressed `PartitionedTlb` (full
//! with compression). A change to either column is a behaviour change
//! to review, not noise: everything here is deterministic.

use gpu_sim::GpuConfig;
use orchestrated_tlb::{run_benchmark, Mechanism};
use workloads::{registry, Scale};

/// `(benchmark, mechanism, fastpath_hits, total_cycles)` at
/// `Scale::Test`, seed 42, on the dac23 baseline GPU.
const PINNED: [(&str, Mechanism, u64, u64); 8] = [
    ("gemm", Mechanism::Baseline, 2184, 4225),
    ("gemm", Mechanism::Full, 1968, 4279),
    ("gemm", Mechanism::Compression, 1974, 4225),
    ("gemm", Mechanism::FullWithCompression, 1968, 4279),
    ("bfs", Mechanism::Baseline, 1026, 32263),
    ("bfs", Mechanism::Full, 817, 32575),
    ("bfs", Mechanism::Compression, 935, 32263),
    ("bfs", Mechanism::FullWithCompression, 817, 32575),
];

#[test]
fn fastpath_hits_and_cycles_are_pinned() {
    let specs = registry();
    let mut got = Vec::new();
    for (name, mechanism, _, _) in PINNED {
        let spec = specs
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} in registry"));
        let r = run_benchmark(
            spec,
            Scale::Test,
            42,
            mechanism,
            GpuConfig::dac23_baseline(),
        );
        got.push((name, mechanism, r.fastpath_hits, r.total_cycles));
    }
    assert_eq!(got, PINNED, "memo service or timing drifted");
}
