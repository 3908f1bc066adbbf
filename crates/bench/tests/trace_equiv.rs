//! Streamed replay ≡ in-memory replay, pinned from outside the engine:
//! writing a workload to a `trace/v1` file and replaying it through the
//! streaming reader must produce the *same report* — every counter,
//! every CSV field — as running the generated workload directly, for
//! every mechanism. Any divergence means the codec
//! dropped information or the streaming feed changed dispatch order.

use std::path::PathBuf;

use bench::SEED;
use gpu_sim::{GpuConfig, SimReport, Simulator};
use orchestrated_tlb::Mechanism;
use workloads::format::{write_workload, TraceSource};
use workloads::{registry, Scale, WorkloadCache};

fn assert_reports_equal(mem: &SimReport, streamed: &SimReport, context: &str) {
    assert_eq!(
        mem.total_cycles, streamed.total_cycles,
        "total_cycles diverged under {context}"
    );
    assert_eq!(
        mem.kernel_cycles, streamed.kernel_cycles,
        "kernel_cycles diverged under {context}"
    );
    assert_eq!(
        mem.to_csv_row(),
        streamed.to_csv_row(),
        "CSV row diverged under {context}"
    );
    assert_eq!(
        mem.l1_tlb, streamed.l1_tlb,
        "per-SM L1 TLB stats diverged under {context}"
    );
    assert_eq!(
        mem.latency, streamed.latency,
        "latency breakdown diverged under {context}"
    );
    assert_eq!(
        mem.tb_placements, streamed.tb_placements,
        "TB placements diverged under {context}"
    );
}

fn temp_trace(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("otlb-equiv-{tag}-{}.trace", std::process::id()))
}

/// Every mechanism produces an identical report whether the trace comes
/// from RAM or streams from disk.
#[test]
fn streamed_replay_matches_in_memory_for_every_mechanism() {
    for name in ["bfs", "gemm"] {
        let spec = registry().into_iter().find(|s| s.name == name).unwrap();
        let workload = spec.generate(Scale::Test, SEED);
        let path = temp_trace(name);
        write_workload(&path, &workload, name, Some(Scale::Test), SEED).unwrap();
        for m in Mechanism::all() {
            let mem = m
                .simulator(GpuConfig::dac23_baseline())
                .run(workload.clone());
            let streamed = m
                .simulator(GpuConfig::dac23_baseline())
                .run_source(TraceSource::open(&path).unwrap())
                .unwrap();
            assert_reports_equal(&mem, &streamed, &format!("{name} {}", m.label()));
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// The disk-backed cache's file sources replay identically to its
/// in-memory generated workloads (the `--trace-cache` contract).
#[test]
fn cache_file_source_matches_generated_source() {
    let dir = std::env::temp_dir().join(format!("otlb-equiv-cache-{}", std::process::id()));
    let spec = registry().into_iter().find(|s| s.name == "mvt").unwrap();

    let mem_cache = WorkloadCache::new();
    let mem = Simulator::new(GpuConfig::dac23_baseline())
        .run_source(mem_cache.get_source(&spec, Scale::Test, SEED))
        .unwrap();

    let disk_cache = WorkloadCache::with_disk(&dir);
    let source = disk_cache.get_source(&spec, Scale::Test, SEED);
    assert!(
        matches!(source, TraceSource::File(_)),
        "a disk-backed cache must hand out file sources"
    );
    let streamed = Simulator::new(GpuConfig::dac23_baseline())
        .run_source(source)
        .unwrap();

    assert_reports_equal(&mem, &streamed, "mvt via WorkloadCache::with_disk");
    std::fs::remove_dir_all(&dir).unwrap();
}
