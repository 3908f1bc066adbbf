//! Experiment presets: the exact configurations evaluated in the paper's
//! Section V (and the ablations DESIGN.md calls out).

use crate::partitioned::{PartitionedTlb, PartitionedTlbConfig};
use crate::scheduler::TlbAwareScheduler;
use gpu_sim::{GpuConfig, SimReport, Simulator};
use mem_hier::L2Policy;
use std::fmt;
use tlb::{CompressedTlb, CompressionConfig, SetAssocTlb, TlbConfig, TranslationBuffer};
use vmem::PageSize;
use workloads::{BenchmarkSpec, Scale, Workload, WorkloadCache};

/// A named simulator configuration from the paper's evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Mechanism {
    /// Round-robin TB scheduling + VPN-indexed L1 TLB (the paper's
    /// baseline).
    Baseline,
    /// Baseline with a 256-entry L1 TLB (Figure 2's second bar).
    LargeTlb,
    /// TLB-aware scheduling only (the "+2.3%" result).
    Scheduling,
    /// TLB-aware scheduling + TB-id partitioning, no sharing (the bar
    /// that *degrades* most benchmarks, +14.3% time on average).
    SchedPartition,
    /// The full proposal: scheduling + partitioning + dynamic adjacent
    /// set sharing (the "-12.5% execution time" result).
    Full,
    /// Partitioning without the scheduler (ablation).
    PartitionOnly,
    /// PACT'20 TLB compression with round-robin scheduling (Figure 12's
    /// normalization baseline).
    Compression,
    /// The full proposal on top of TLB compression (Figure 12's subject:
    /// "+10.4% over compression alone").
    FullWithCompression,
    /// The full proposal plus translation-reuse-aware (TB-clustered) warp
    /// scheduling — the paper's §VII future work, implemented here.
    FullWithWarpClustering,
    /// The full proposal with MASK-style per-app L2 TLB fill tokens and
    /// bypass (multi-tenant baseline; only meaningful under co-runs).
    MaskTokens,
    /// The full proposal with a sub-entry-sharing shared L2 TLB
    /// (multi-tenant alternative; only meaningful under co-runs).
    SubEntrySharing,
}

impl Mechanism {
    /// All mechanisms in presentation order.
    pub fn all() -> [Mechanism; 11] {
        [
            Mechanism::Baseline,
            Mechanism::LargeTlb,
            Mechanism::Scheduling,
            Mechanism::SchedPartition,
            Mechanism::Full,
            Mechanism::PartitionOnly,
            Mechanism::Compression,
            Mechanism::FullWithCompression,
            Mechanism::FullWithWarpClustering,
            Mechanism::MaskTokens,
            Mechanism::SubEntrySharing,
        ]
    }

    /// The four bars of Figures 10 and 11.
    pub fn figure10() -> [Mechanism; 4] {
        [
            Mechanism::Baseline,
            Mechanism::Scheduling,
            Mechanism::SchedPartition,
            Mechanism::Full,
        ]
    }

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::Baseline => "baseline",
            Mechanism::LargeTlb => "l1-256",
            Mechanism::Scheduling => "sched",
            Mechanism::SchedPartition => "sched+part",
            Mechanism::Full => "sched+part+share",
            Mechanism::PartitionOnly => "part-only",
            Mechanism::Compression => "compression",
            Mechanism::FullWithCompression => "ours+compression",
            Mechanism::FullWithWarpClustering => "ours+warp-clustered",
            Mechanism::MaskTokens => "ours+mask-tokens",
            Mechanism::SubEntrySharing => "ours+sub-entry",
        }
    }

    /// Builds a simulator implementing this mechanism.
    pub fn simulator(self, mut config: GpuConfig) -> Simulator {
        if self == Mechanism::LargeTlb {
            config = config.with_l1_tlb(TlbConfig::dac23_l1_256());
        }
        // The multi-tenant variants keep the full proposal's L1 and swap
        // the shared L2 TLB policy; the quota/sub counts are sized for the
        // 512-entry DAC'23 L2 split across 4 slices (128 entries each).
        config = match self {
            Mechanism::MaskTokens => config.with_l2_policy(L2Policy::MaskTokens { quota: 64 }),
            Mechanism::SubEntrySharing => config.with_l2_policy(L2Policy::SubEntry { subs: 2 }),
            _ => config,
        };
        let geometry = config.l1_tlb;
        let sim = Simulator::new(config);
        let sim = match self {
            Mechanism::Baseline
            | Mechanism::LargeTlb
            | Mechanism::PartitionOnly
            | Mechanism::Compression => sim,
            Mechanism::Scheduling
            | Mechanism::SchedPartition
            | Mechanism::Full
            | Mechanism::FullWithCompression
            | Mechanism::FullWithWarpClustering
            | Mechanism::MaskTokens
            | Mechanism::SubEntrySharing => {
                sim.with_tb_scheduler(Box::new(TlbAwareScheduler::new()))
            }
        };
        let sim = match self {
            Mechanism::FullWithWarpClustering => sim.with_warp_scheduler_factory(Box::new(|| {
                Box::new(crate::warp_sched::TbClusteredWarpScheduler::new())
                    as Box<dyn gpu_sim::WarpScheduler>
            })),
            _ => sim,
        };
        match self {
            Mechanism::Baseline | Mechanism::LargeTlb | Mechanism::Scheduling => sim
                .with_l1_tlb_factory(Box::new(move |_| {
                    Box::new(SetAssocTlb::new(geometry)) as Box<dyn TranslationBuffer>
                })),
            Mechanism::SchedPartition | Mechanism::PartitionOnly => {
                sim.with_l1_tlb_factory(Box::new(move |_| {
                    Box::new(PartitionedTlb::new(PartitionedTlbConfig {
                        geometry,
                        ..PartitionedTlbConfig::partition_only()
                    })) as Box<dyn TranslationBuffer>
                }))
            }
            Mechanism::Full
            | Mechanism::FullWithWarpClustering
            | Mechanism::MaskTokens
            | Mechanism::SubEntrySharing => sim.with_l1_tlb_factory(Box::new(move |_| {
                Box::new(PartitionedTlb::new(PartitionedTlbConfig {
                    geometry,
                    ..PartitionedTlbConfig::with_sharing()
                })) as Box<dyn TranslationBuffer>
            })),
            Mechanism::Compression => sim.with_l1_tlb_factory(Box::new(move |_| {
                Box::new(CompressedTlb::new(geometry, CompressionConfig::pact20()))
                    as Box<dyn TranslationBuffer>
            })),
            Mechanism::FullWithCompression => sim.with_l1_tlb_factory(Box::new(move |_| {
                Box::new(PartitionedTlb::new(PartitionedTlbConfig {
                    geometry,
                    compression: Some(CompressionConfig::pact20()),
                    ..PartitionedTlbConfig::with_sharing()
                })) as Box<dyn TranslationBuffer>
            })),
        }
    }
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Runs one benchmark under one mechanism (4 KiB pages).
pub fn run_benchmark(
    spec: &BenchmarkSpec,
    scale: Scale,
    seed: u64,
    mechanism: Mechanism,
    config: GpuConfig,
) -> SimReport {
    run_benchmark_with_page_size(spec, scale, seed, mechanism, config, PageSize::Small)
}

/// Runs one benchmark under one mechanism with an explicit page size (the
/// Section V huge-page study).
pub fn run_benchmark_with_page_size(
    spec: &BenchmarkSpec,
    scale: Scale,
    seed: u64,
    mechanism: Mechanism,
    config: GpuConfig,
    page_size: PageSize,
) -> SimReport {
    run_workload(
        spec.generate_with_page_size(scale, seed, page_size),
        mechanism,
        config,
    )
}

/// [`run_benchmark`], but serving the workload from `cache` — the
/// experiment grid re-runs each benchmark under many mechanisms, and the
/// cache generates the trace once per `(benchmark, scale, seed,
/// page_size)` instead of once per grid cell.
pub fn run_benchmark_cached(
    cache: &WorkloadCache,
    spec: &BenchmarkSpec,
    scale: Scale,
    seed: u64,
    mechanism: Mechanism,
    config: GpuConfig,
) -> SimReport {
    run_benchmark_cached_with_page_size(
        cache,
        spec,
        scale,
        seed,
        mechanism,
        config,
        PageSize::Small,
    )
}

/// [`run_benchmark_with_page_size`], serving the workload from `cache`.
///
/// With a memory-only cache this replays the shared in-RAM workload;
/// with a disk-backed cache (`WorkloadCache::with_disk`, the
/// `--trace-cache` flag) or a preloaded trace (`--trace`) each run
/// streams TBs from the `trace/v1` file instead, keeping peak RSS flat.
/// The two paths produce byte-identical reports (pinned by
/// `bench/tests/trace_equiv.rs`); a trace that fails mid-replay falls
/// back to the generated workload so results never change.
pub fn run_benchmark_cached_with_page_size(
    cache: &WorkloadCache,
    spec: &BenchmarkSpec,
    scale: Scale,
    seed: u64,
    mechanism: Mechanism,
    config: GpuConfig,
    page_size: PageSize,
) -> SimReport {
    let source = cache.get_source_with_page_size(spec, scale, seed, page_size);
    match mechanism.simulator(config.clone()).run_source(source) {
        Ok(mut report) => {
            report.scheduler = mechanism.label().to_owned();
            report
        }
        Err(e) => {
            eprintln!(
                "warning: trace replay of {} {scale} failed ({e}); regenerating",
                spec.name
            );
            run_workload(
                cache.get_with_page_size(spec, scale, seed, page_size),
                mechanism,
                config,
            )
        }
    }
}

fn run_workload(workload: Workload, mechanism: Mechanism, config: GpuConfig) -> SimReport {
    let mut report = mechanism.simulator(config).run(workload);
    report.scheduler = mechanism.label().to_owned();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::registry;

    fn spec(name: &str) -> BenchmarkSpec {
        registry().into_iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn all_mechanisms_run_gemm() {
        for m in Mechanism::all() {
            let r = run_benchmark(
                &spec("gemm"),
                Scale::Test,
                42,
                m,
                GpuConfig::dac23_baseline(),
            );
            assert!(r.total_cycles > 0, "{m} produced no cycles");
            assert!(r.l1_tlb_hit_rate() >= 0.0);
        }
    }

    #[test]
    fn figure10_has_four_bars() {
        let bars = Mechanism::figure10();
        assert_eq!(bars.len(), 4);
        assert_eq!(bars[0], Mechanism::Baseline);
        assert_eq!(bars[3], Mechanism::Full);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            Mechanism::all().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), Mechanism::all().len());
    }

    #[test]
    fn large_tlb_improves_hit_rate_on_thrashy_benchmark() {
        let base = run_benchmark(
            &spec("atax"),
            Scale::Test,
            42,
            Mechanism::Baseline,
            GpuConfig::dac23_baseline(),
        );
        let big = run_benchmark(
            &spec("atax"),
            Scale::Test,
            42,
            Mechanism::LargeTlb,
            GpuConfig::dac23_baseline(),
        );
        assert!(big.l1_tlb_hit_rate() >= base.l1_tlb_hit_rate());
    }

    #[test]
    fn deterministic_per_mechanism() {
        let a = run_benchmark(
            &spec("bfs"),
            Scale::Test,
            42,
            Mechanism::Full,
            GpuConfig::dac23_baseline(),
        );
        let b = run_benchmark(
            &spec("bfs"),
            Scale::Test,
            42,
            Mechanism::Full,
            GpuConfig::dac23_baseline(),
        );
        assert_eq!(a.total_cycles, b.total_cycles);
    }

    #[test]
    fn reports_carry_mechanism_label() {
        let r = run_benchmark(
            &spec("mvt"),
            Scale::Test,
            42,
            Mechanism::SchedPartition,
            GpuConfig::dac23_baseline(),
        );
        assert_eq!(r.scheduler, "sched+part");
    }
}
