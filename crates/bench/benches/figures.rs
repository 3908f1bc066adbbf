//! Criterion benches that regenerate every table and figure of the paper.
//!
//! Each group first prints the paper-series rows (at the calibrated
//! `Scale::Small` evaluation size, matching EXPERIMENTS.md) and then
//! times the underlying harness at `Scale::Test` so `cargo bench` also
//! reports simulator throughput. The `reuse_intensity` group instead
//! times the Figure 3/4 analysis layer alone, at `Scale::Small`.

use analysis::{inter_intensities, intra_intensities, tb_translation_streams};
use bench::{fig10_11, fig12, fig2, fig3_4, fig5_6, geomean, hugepage, Grid, LINE_BYTES, SEED};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use workloads::{registry, Scale};

fn config(c: &mut Criterion) -> &mut Criterion {
    c
}

fn bench_table2(c: &mut Criterion) {
    println!("\n=== Table II: workload registry (Scale::Small) ===");
    for spec in registry() {
        let wl = spec.generate(Scale::Small, SEED);
        println!(
            "  {:<10} {:<10} kernels={:<3} TBs={:<6} footprint={:.2} MiB",
            spec.name,
            format!("{:?}", spec.suite),
            wl.kernels().len(),
            wl.kernels().iter().map(|k| k.tbs.len()).sum::<usize>(),
            wl.footprint_bytes() as f64 / (1024.0 * 1024.0),
        );
    }
    config(c).bench_function("table2_workload_generation", |b| {
        b.iter(|| {
            let spec = &registry()[0];
            std::hint::black_box(spec.generate(Scale::Test, SEED)).total_warp_ops()
        })
    });
}

fn bench_fig02(c: &mut Criterion) {
    println!("\n=== Figure 2: L1 TLB hit rate, 64 vs 256 entries (Scale::Small) ===");
    for r in fig2(Scale::Small) {
        println!(
            "  {:<10} {:>5.1}% -> {:>5.1}%",
            r.bench,
            r.hit_64 * 100.0,
            r.hit_256 * 100.0
        );
    }
    config(c).bench_function("fig02_hit_rate_capacity", |b| {
        b.iter(|| std::hint::black_box(fig2(Scale::Test)))
    });
}

fn bench_fig03_04(c: &mut Criterion) {
    println!("\n=== Figures 3/4: reuse-intensity bins b1..b5 (Scale::Small) ===");
    for r in fig3_4(Scale::Small, Some(64)) {
        let fmt = |b: &[f64; 5]| {
            b.iter()
                .map(|x| format!("{:3.0}%", x * 100.0))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "  {:<10} inter [{}]  intra [{}]",
            r.bench,
            fmt(&r.inter),
            fmt(&r.intra)
        );
    }
    config(c).bench_function("fig03_04_reuse_intensity", |b| {
        b.iter(|| std::hint::black_box(fig3_4(Scale::Test, Some(32))))
    });
}

/// The Figure 3/4 analysis layer on its longest grid cell: pagerank at
/// `Scale::Small`, with the grid's 64-TB pair sample. Stream extraction,
/// intra-TB and inter-TB intensity are timed apart (`fig03_04_reuse_intensity`
/// runs at `Scale::Test`, where every stream has one page).
fn bench_reuse_intensity(c: &mut Criterion) {
    let spec = registry()
        .into_iter()
        .find(|s| s.name == "pagerank")
        .unwrap();
    let wl = spec.generate(Scale::Small, SEED);
    let streams = tb_translation_streams(&wl, LINE_BYTES);
    let mut group = c.benchmark_group("reuse_intensity");
    group.bench_function("pagerank_small_streams", |b| {
        b.iter(|| tb_translation_streams(&wl, LINE_BYTES).len())
    });
    group.bench_function("pagerank_small_intra", |b| {
        b.iter(|| intra_intensities(&streams).len())
    });
    group.bench_function("pagerank_small_inter_64", |b| {
        b.iter(|| inter_intensities(&streams, Some(64)).len())
    });
    group.finish();
}

fn bench_fig05_06(c: &mut Criterion) {
    println!("\n=== Figures 5/6: reuse-distance CDF at the 64-entry reach (Scale::Small) ===");
    for r in fig5_6(Scale::Small) {
        let at64 = |pts: &[(u64, f64)]| {
            pts.iter()
                .find(|(x, _)| *x == 64)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        println!(
            "  {:<10} P[d<=64]: concurrent {:>4.0}%  one-TB {:>4.0}%  beyond-reach {:>4.0}%",
            r.bench,
            at64(&r.concurrent) * 100.0,
            at64(&r.isolated) * 100.0,
            r.beyond_reach * 100.0
        );
    }
    config(c).bench_function("fig05_06_reuse_distance", |b| {
        b.iter(|| std::hint::black_box(fig5_6(Scale::Test)))
    });
}

fn bench_fig10_11(c: &mut Criterion) {
    println!("\n=== Figures 10/11: hit rates and normalized time (Scale::Small) ===");
    let rows = fig10_11(Scale::Small);
    for r in &rows {
        println!(
            "  {:<10} hit {:>5.1}/{:>5.1}/{:>5.1}/{:>5.1}%  time {:.3}/{:.3}/{:.3}/{:.3}",
            r.bench,
            r.hit_rates[0] * 100.0,
            r.hit_rates[1] * 100.0,
            r.hit_rates[2] * 100.0,
            r.hit_rates[3] * 100.0,
            r.norm_time[0],
            r.norm_time[1],
            r.norm_time[2],
            r.norm_time[3],
        );
    }
    for (i, label) in ["baseline", "sched", "sched+part", "+share"]
        .iter()
        .enumerate()
    {
        let g = geomean(rows.iter().map(|r| r.norm_time[i]));
        println!("  geomean {label}: {g:.3} ({:+.1}%)", (g - 1.0) * 100.0);
    }
    config(c).bench_function("fig10_11_mechanisms", |b| {
        b.iter(|| {
            let spec = registry().into_iter().find(|s| s.name == "mvt").unwrap();
            let specs = std::slice::from_ref(&spec);
            std::hint::black_box(bench::fig10_11_grid(specs, Scale::Test, &Grid::serial()))
        })
    });
}

fn bench_fig12(c: &mut Criterion) {
    println!("\n=== Figure 12: ours + compression vs compression alone (Scale::Small) ===");
    let rows = fig12(Scale::Small);
    for r in &rows {
        println!("  {:<10} {:.3}x", r.bench, r.speedup);
    }
    println!(
        "  geomean {:.3}x (paper: 1.104x)",
        geomean(rows.iter().map(|r| r.speedup))
    );
    config(c).bench_function("fig12_compression", |b| {
        b.iter(|| std::hint::black_box(fig12(Scale::Test)))
    });
}

fn bench_hugepage(c: &mut Criterion) {
    println!("\n=== Section V huge-page study (Scale::Small) ===");
    let rows = hugepage(Scale::Small);
    for r in &rows {
        println!(
            "  {:<10} hit(2MiB) {:>5.1}%  ours time {:.3}",
            r.bench,
            r.hit_rate_huge * 100.0,
            r.norm_time_ours
        );
    }
    println!(
        "  geomean ours@2MiB: {:.3}",
        geomean(rows.iter().map(|r| r.norm_time_ours))
    );
    config(c).bench_function("hugepage_study", |b| {
        b.iter(|| std::hint::black_box(hugepage(Scale::Test)))
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(8))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_table2, bench_fig02, bench_fig03_04, bench_reuse_intensity,
              bench_fig05_06, bench_fig10_11, bench_fig12, bench_hugepage
}
criterion_main!(figures);
