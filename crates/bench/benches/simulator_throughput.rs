//! Simulator-throughput benches: how fast the cycle engine itself runs,
//! in warp instructions per second, across workload shapes and TLB
//! organizations. (The figure benches measure *what* the simulator
//! reports; these measure the simulator as a program.)

use bench::{fig10_11_grid, Grid};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_sim::{GpuConfig, GtoWarpScheduler, LrrWarpScheduler, Simulator, WarpScheduler};
use orchestrated_tlb::{Mechanism, TbClusteredWarpScheduler};
use std::sync::Arc;
use std::time::Duration;
use vmem::PageSize;
use workloads::{registry, CsrGraph, RmatParams, Scale, WorkloadCache};

fn bench_engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    for name in ["gemm", "bfs", "atax"] {
        let spec = registry().into_iter().find(|s| s.name == name).unwrap();
        let ops = spec.generate(Scale::Test, 42).total_warp_ops() as u64;
        group.throughput(Throughput::Elements(ops));
        group.bench_function(name, |b| {
            b.iter(|| {
                let wl = spec.generate(Scale::Test, 42);
                Simulator::new(GpuConfig::dac23_baseline())
                    .run(std::hint::black_box(wl))
                    .total_cycles
            })
        });
    }
    group.finish();
}

fn bench_tlb_organizations(c: &mut Criterion) {
    let mut group = c.benchmark_group("tlb_organization_cost");
    let spec = registry().into_iter().find(|s| s.name == "mvt").unwrap();
    let ops = spec.generate(Scale::Test, 42).total_warp_ops() as u64;
    for m in [Mechanism::Baseline, Mechanism::Full, Mechanism::Compression] {
        group.throughput(Throughput::Elements(ops));
        group.bench_function(m.label(), |b| {
            b.iter(|| {
                let wl = spec.generate(Scale::Test, 42);
                m.simulator(GpuConfig::dac23_baseline())
                    .run(std::hint::black_box(wl))
                    .total_cycles
            })
        });
    }
    group.finish();
}

/// The warp-issue path: a gemm baseline run under each warp scheduler,
/// in warp instructions per second. The workload is generated once and
/// cloned per iteration (its op storage is `Arc`-shared), so the time
/// is the engine's step, issue and scheduler work, not generation.
fn bench_warp_issue(c: &mut Criterion) {
    let mut group = c.benchmark_group("warp_issue");
    let spec = registry().into_iter().find(|s| s.name == "gemm").unwrap();
    let wl = spec.generate(Scale::Test, 42);
    group.throughput(Throughput::Elements(wl.total_warp_ops() as u64));
    type Factory = fn() -> Box<dyn WarpScheduler>;
    let policies: [(&str, Factory); 3] = [
        ("gto", || Box::new(GtoWarpScheduler::new())),
        ("lrr", || Box::new(LrrWarpScheduler::new())),
        ("tb-clustered", || Box::new(TbClusteredWarpScheduler::new())),
    ];
    for (name, factory) in policies {
        group.bench_function(name, |b| {
            b.iter(|| {
                Simulator::new(GpuConfig::dac23_baseline())
                    .with_warp_scheduler_factory(Box::new(factory))
                    .run(std::hint::black_box(wl.clone()))
                    .total_cycles
            })
        });
    }
    group.finish();
}

/// Workload generation, the set-up every run pays before its first
/// simulated cycle. The `clustered_rmat_*` benches build the graph the
/// four graph benchmarks share at `Scale::Small` and `Scale::Large`
/// (locality 0.6, a window of `n / 128`, as `gen::graph` builds it);
/// `bfs_small` is a whole graph benchmark at `Scale::Small`, and
/// `warm_cache_small` all 20 `Scale::Small` workloads (ten benchmarks at
/// two page sizes) through one fresh cache on a 2-worker `Grid`, as
/// `repro --all --scale small` generates them: one graph, eight graph
/// workloads.
fn bench_workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_generation");
    for name in ["pagerank", "nw"] {
        let spec = registry().into_iter().find(|s| s.name == name).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(spec.generate(Scale::Test, 42)).total_warp_ops())
        });
    }
    for (name, nodes, degree) in [
        ("clustered_rmat_small", 1 << 15, 10),
        ("clustered_rmat_large", 1 << 17, 12),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let params = RmatParams::default();
                CsrGraph::clustered_rmat(nodes, nodes * degree, params, 0.6, nodes / 128, 42)
                    .num_edges()
            })
        });
    }
    let bfs = registry().into_iter().find(|s| s.name == "bfs").unwrap();
    group.bench_function("bfs_small", |b| {
        b.iter(|| std::hint::black_box(bfs.generate(Scale::Small, 42)).total_warp_ops())
    });
    let specs = registry();
    let cells: Vec<(usize, PageSize)> = (0..specs.len())
        .flat_map(|i| [PageSize::Small, PageSize::Large].map(|ps| (i, ps)))
        .collect();
    group.bench_function("warm_cache_small", |b| {
        b.iter(|| {
            let grid = Grid::new(2);
            grid.map(&cells, |&(i, ps)| {
                grid.cache()
                    .get_with_page_size(&specs[i], Scale::Small, 42, ps)
                    .total_warp_ops()
            })
            .len()
        })
    });
    group.finish();
}

/// Grid throughput: the Figure 10/11 cell grid run serially vs over the
/// parallel worker pool, in grid cells per second. A third variant keeps
/// the workload cache warm across iterations to isolate the cache's
/// contribution from the thread-level speedup.
fn bench_grid_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_throughput");
    let specs: Vec<_> = registry().into_iter().take(4).collect();
    let cells = (specs.len() * Mechanism::figure10().len()) as u64;
    group.throughput(Throughput::Elements(cells));
    group.bench_function("serial_jobs1", |b| {
        b.iter(|| fig10_11_grid(&specs, Scale::Test, &Grid::new(1)).len())
    });
    group.bench_function("parallel_default_jobs", |b| {
        b.iter(|| fig10_11_grid(&specs, Scale::Test, &Grid::new(0)).len())
    });
    let warm = Arc::new(WorkloadCache::new());
    group.bench_function("parallel_warm_cache", |b| {
        b.iter(|| {
            fig10_11_grid(&specs, Scale::Test, &Grid::with_cache(0, Arc::clone(&warm))).len()
        })
    });
    group.finish();
}

criterion_group! {
    name = throughput;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_engine_throughput, bench_tlb_organizations, bench_warp_issue,
              bench_workload_generation, bench_grid_throughput
}
criterion_main!(throughput);
