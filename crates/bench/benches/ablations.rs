//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. sharing policy (partition-only vs empty-slot spill vs the full
//!    displacement spill),
//! 2. the multi-set lookup-overhead model (on vs off),
//! 3. the TB scheduler's miss-rate tolerance,
//! 4. page size (4 KiB vs 2 MiB),
//! 5. PACT'20 compression degree.
//!
//! Each group prints the sweep's measured series (at `Scale::Small`),
//! then times one representative configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::{GpuConfig, GtoWarpScheduler, LrrWarpScheduler, SimReport, Simulator, WarpScheduler};
use orchestrated_tlb::{
    PartitionedTlb, PartitionedTlbConfig, SharingPolicy, TbClusteredWarpScheduler,
    ThrottlingTlbAwareScheduler, TlbAwareScheduler, WayPartitionedTlb,
};
use std::time::Duration;
use tlb::{CompressedTlb, CompressionConfig, TranslationBuffer};
use vmem::PageSize;
use workloads::{registry, Scale};

const SEED: u64 = 42;

fn run_with_partitioned(bench: &str, cfg: PartitionedTlbConfig, scale: Scale) -> SimReport {
    let spec = registry().into_iter().find(|s| s.name == bench).unwrap();
    let wl = spec.generate(scale, SEED);
    Simulator::new(GpuConfig::dac23_baseline())
        .with_tb_scheduler(Box::new(TlbAwareScheduler::new()))
        .with_l1_tlb_factory(Box::new(move |_| {
            Box::new(PartitionedTlb::new(cfg)) as Box<dyn TranslationBuffer>
        }))
        .run(wl)
}

/// Sharing-policy ablation on a graph benchmark (where partitioning alone
/// collapses the hit rate).
fn ablation_sharing(c: &mut Criterion) {
    println!("\n=== Ablation: sharing policy (pagerank, Scale::Small) ===");
    let configs = [
        ("partition-only", PartitionedTlbConfig::partition_only()),
        (
            "empty-slot spill",
            PartitionedTlbConfig {
                sharing: SharingPolicy::Adjacent,
                displacement_margin: u64::MAX, // only truly empty ways
                ..PartitionedTlbConfig::partition_only()
            },
        ),
        ("displacement spill", PartitionedTlbConfig::with_sharing()),
        (
            "counter threshold 4",
            PartitionedTlbConfig {
                sharing: SharingPolicy::AdjacentCounter { threshold: 4 },
                ..PartitionedTlbConfig::with_sharing()
            },
        ),
        (
            "all-to-all",
            PartitionedTlbConfig {
                sharing: SharingPolicy::AllToAll,
                ..PartitionedTlbConfig::with_sharing()
            },
        ),
    ];
    for (label, cfg) in configs {
        let r = run_with_partitioned("pagerank", cfg, Scale::Small);
        println!(
            "  {:<20} L1 hit {:>5.1}%  cycles {:>10}",
            label,
            r.l1_tlb_hit_rate() * 100.0,
            r.total_cycles
        );
    }
    println!(
        "  (all-to-all trades its capacity win for a whole-TLB probe on \
         every lookup — the overhead the paper rejects)"
    );
    c.bench_function("ablation_sharing_policy", |b| {
        b.iter(|| {
            std::hint::black_box(run_with_partitioned(
                "pagerank",
                PartitionedTlbConfig::with_sharing(),
                Scale::Test,
            ))
            .total_cycles
        })
    });
}

/// Lookup-overhead ablation: the paper includes the multi-set probe cost;
/// turning it off models ideal comparators.
fn ablation_lookup_overhead(c: &mut Criterion) {
    println!("\n=== Ablation: multi-set lookup overhead (gemm, Scale::Small) ===");
    for (label, overhead) in [("modeled (paper)", true), ("ideal comparators", false)] {
        let cfg = PartitionedTlbConfig {
            per_set_lookup_overhead: overhead,
            ..PartitionedTlbConfig::with_sharing()
        };
        // gemm runs 4 concurrent TBs -> 4 sets per TB -> 4x probe cost
        // when modeled.
        let r = run_with_partitioned("gemm", cfg, Scale::Small);
        println!(
            "  {:<20} cycles {:>10}  L1 hit {:>5.1}%",
            label,
            r.total_cycles,
            r.l1_tlb_hit_rate() * 100.0
        );
    }
    c.bench_function("ablation_lookup_overhead", |b| {
        b.iter(|| {
            let cfg = PartitionedTlbConfig {
                per_set_lookup_overhead: false,
                ..PartitionedTlbConfig::with_sharing()
            };
            std::hint::black_box(run_with_partitioned("gemm", cfg, Scale::Test)).total_cycles
        })
    });
}

/// Scheduler-tolerance sweep: how picky the TLB-aware scheduler is about
/// "low" miss rates.
fn ablation_scheduler_tolerance(c: &mut Criterion) {
    println!("\n=== Ablation: scheduler miss-rate tolerance (color, Scale::Small) ===");
    let spec = registry().into_iter().find(|s| s.name == "color").unwrap();
    for tol in [0.0, 0.05, 0.2, 1.0] {
        let wl = spec.generate(Scale::Small, SEED);
        let r = Simulator::new(GpuConfig::dac23_baseline())
            .with_tb_scheduler(Box::new(TlbAwareScheduler::with_tolerance(tol)))
            .run(wl);
        let max = r.tb_placements.iter().max().copied().unwrap_or(0);
        let min = r.tb_placements.iter().min().copied().unwrap_or(0);
        println!(
            "  tolerance {tol:>4.2}: cycles {:>10}  L1 hit {:>5.1}%  placement spread {max}-{min}",
            r.total_cycles,
            r.l1_tlb_hit_rate() * 100.0
        );
    }
    c.bench_function("ablation_scheduler_tolerance", |b| {
        b.iter(|| {
            let wl = spec.generate(Scale::Test, SEED);
            Simulator::new(GpuConfig::dac23_baseline())
                .with_tb_scheduler(Box::new(TlbAwareScheduler::with_tolerance(0.2)))
                .run(std::hint::black_box(wl))
                .total_cycles
        })
    });
}

/// Page-size ablation: 2 MiB pages multiply TLB reach by 512.
fn ablation_page_size(c: &mut Criterion) {
    println!("\n=== Ablation: page size (atax, Scale::Small) ===");
    let spec = registry().into_iter().find(|s| s.name == "atax").unwrap();
    for (label, ps) in [("4KiB", PageSize::Small), ("2MiB", PageSize::Large)] {
        let wl = spec.generate_with_page_size(Scale::Small, SEED, ps);
        let r = Simulator::new(GpuConfig::dac23_baseline()).run(wl);
        println!(
            "  {:<6} cycles {:>10}  L1 hit {:>5.1}%  walks {:>6}",
            label,
            r.total_cycles,
            r.l1_tlb_hit_rate() * 100.0,
            r.walker.walks
        );
    }
    c.bench_function("ablation_page_size", |b| {
        b.iter(|| {
            let wl = spec.generate_with_page_size(Scale::Test, SEED, PageSize::Large);
            Simulator::new(GpuConfig::dac23_baseline())
                .run(std::hint::black_box(wl))
                .total_cycles
        })
    });
}

/// Compression-degree sweep for the PACT'20 comparator.
fn ablation_compression_degree(c: &mut Criterion) {
    println!("\n=== Ablation: compression degree (3dconv, Scale::Small) ===");
    let spec = registry().into_iter().find(|s| s.name == "3dconv").unwrap();
    for degree in [2usize, 8, 16] {
        let wl = spec.generate(Scale::Small, SEED);
        let geometry = GpuConfig::dac23_baseline().l1_tlb;
        let r = Simulator::new(GpuConfig::dac23_baseline())
            .with_l1_tlb_factory(Box::new(move |_| {
                Box::new(CompressedTlb::new(
                    geometry,
                    CompressionConfig {
                        degree,
                        decompress_latency: 1,
                    },
                )) as Box<dyn TranslationBuffer>
            }))
            .run(wl);
        println!(
            "  degree {degree:>2}: cycles {:>10}  L1 hit {:>5.1}% (fragmented frames defeat runs)",
            r.total_cycles,
            r.l1_tlb_hit_rate() * 100.0
        );
    }
    c.bench_function("ablation_compression_degree", |b| {
        b.iter(|| {
            let wl = spec.generate(Scale::Test, SEED);
            let geometry = GpuConfig::dac23_baseline().l1_tlb;
            Simulator::new(GpuConfig::dac23_baseline())
                .with_l1_tlb_factory(Box::new(move |_| {
                    Box::new(CompressedTlb::new(geometry, CompressionConfig::pact20()))
                        as Box<dyn TranslationBuffer>
                }))
                .run(std::hint::black_box(wl))
                .total_cycles
        })
    });
}

/// Partition-strategy ablation: the paper's TB-id *set* indexing vs the
/// classic way-partitioning alternative vs the unpartitioned baseline.
fn ablation_partition_strategy(c: &mut Criterion) {
    println!("\n=== Ablation: partition strategy (mvt, Scale::Small) ===");
    let spec = registry().into_iter().find(|s| s.name == "mvt").unwrap();
    let geometry = GpuConfig::dac23_baseline().l1_tlb;
    let runs: [(&str, gpu_sim::L1TlbFactory); 3] = [
        (
            "unpartitioned",
            Box::new(move |c: &GpuConfig| {
                Box::new(tlb::SetAssocTlb::new(c.l1_tlb)) as Box<dyn TranslationBuffer>
            }),
        ),
        (
            "way-partitioned",
            Box::new(move |_: &GpuConfig| {
                Box::new(WayPartitionedTlb::new(geometry)) as Box<dyn TranslationBuffer>
            }),
        ),
        (
            "set-indexed (paper)",
            Box::new(move |_: &GpuConfig| {
                Box::new(PartitionedTlb::new(PartitionedTlbConfig::with_sharing()))
                    as Box<dyn TranslationBuffer>
            }),
        ),
    ];
    for (label, factory) in runs {
        let wl = spec.generate(Scale::Small, SEED);
        let r = Simulator::new(GpuConfig::dac23_baseline())
            .with_tb_scheduler(Box::new(TlbAwareScheduler::new()))
            .with_l1_tlb_factory(factory)
            .run(wl);
        println!(
            "  {:<20} cycles {:>10}  L1 hit {:>5.1}%",
            label,
            r.total_cycles,
            r.l1_tlb_hit_rate() * 100.0
        );
    }
    c.bench_function("ablation_partition_strategy", |b| {
        b.iter(|| {
            let wl = spec.generate(Scale::Test, SEED);
            Simulator::new(GpuConfig::dac23_baseline())
                .with_l1_tlb_factory(Box::new(move |_| {
                    Box::new(WayPartitionedTlb::new(geometry)) as Box<dyn TranslationBuffer>
                }))
                .run(std::hint::black_box(wl))
                .total_cycles
        })
    });
}

/// Warp-scheduler ablation (§VII future work): GTO (Table III baseline)
/// vs loose round robin vs TB-clustered greedy.
fn ablation_warp_scheduler(c: &mut Criterion) {
    println!("\n=== Ablation: warp scheduler (bfs, Scale::Small) ===");
    let spec = registry().into_iter().find(|s| s.name == "bfs").unwrap();
    type SchedulerFactory = fn() -> Box<dyn WarpScheduler>;
    let factories: [(&str, SchedulerFactory); 3] = [
        ("gto", || Box::new(GtoWarpScheduler::new())),
        ("lrr", || Box::new(LrrWarpScheduler::new())),
        ("tb-clustered", || Box::new(TbClusteredWarpScheduler::new())),
    ];
    for (label, factory) in factories {
        let wl = spec.generate(Scale::Small, SEED);
        let r = Simulator::new(GpuConfig::dac23_baseline())
            .with_warp_scheduler_factory(Box::new(factory))
            .run(wl);
        println!(
            "  {:<14} cycles {:>10}  L1 hit {:>5.1}%",
            label,
            r.total_cycles,
            r.l1_tlb_hit_rate() * 100.0
        );
    }
    c.bench_function("ablation_warp_scheduler", |b| {
        b.iter(|| {
            let wl = spec.generate(Scale::Test, SEED);
            Simulator::new(GpuConfig::dac23_baseline())
                .with_warp_scheduler_factory(Box::new(|| {
                    Box::new(TbClusteredWarpScheduler::new()) as Box<dyn WarpScheduler>
                }))
                .run(std::hint::black_box(wl))
                .total_cycles
        })
    });
}

/// TB-throttling extension (§IV-A): gate new TBs while every SM thrashes.
fn ablation_throttling(c: &mut Criterion) {
    println!("\n=== Ablation: TB throttling threshold (color, Scale::Small) ===");
    let spec = registry().into_iter().find(|s| s.name == "color").unwrap();
    for threshold in [0.3, 0.6, 1.0] {
        let wl = spec.generate(Scale::Small, SEED);
        let r = Simulator::new(GpuConfig::dac23_baseline())
            .with_tb_scheduler(Box::new(ThrottlingTlbAwareScheduler::new(threshold)))
            .run(wl);
        println!(
            "  threshold {threshold:>4.2}: cycles {:>10}  L1 hit {:>5.1}%",
            r.total_cycles,
            r.l1_tlb_hit_rate() * 100.0
        );
    }
    c.bench_function("ablation_throttling", |b| {
        b.iter(|| {
            let wl = spec.generate(Scale::Test, SEED);
            Simulator::new(GpuConfig::dac23_baseline())
                .with_tb_scheduler(Box::new(ThrottlingTlbAwareScheduler::new(0.8)))
                .run(std::hint::black_box(wl))
                .total_cycles
        })
    });
}

criterion_group! {
    name = ablations;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(8))
        .warm_up_time(Duration::from_secs(1));
    targets = ablation_sharing, ablation_lookup_overhead,
              ablation_scheduler_tolerance, ablation_page_size,
              ablation_compression_degree, ablation_warp_scheduler,
              ablation_throttling, ablation_partition_strategy
}
criterion_main!(ablations);
