//! `repro` — regenerates every table and figure of the paper as text.
//!
//! ```text
//! repro [--scale test|small|paper] [--jobs N]
//!       [--sanitize] [--fig2] [--fig3] [--fig4] [--fig5] [--fig6]
//!       [--fig10] [--fig11] [--fig12] [--hugepage] [--table2]
//!       [--breakdown] [--all] [--apps a,b,...]
//! ```
//!
//! `--apps a,b[,c,...]` switches to the multi-tenant co-run study: the
//! named benchmarks run as concurrent address spaces sharing the GPU
//! (2-16 apps), and the output reports each mechanism's per-app slowdown
//! vs. solo, Jain fairness index and system throughput, followed by the
//! per-app CSV rows. Like every other figure, output is byte-identical
//! for any `--jobs`.
//!
//! `--jobs N` runs up to `N` grid cells (benchmark × mechanism) in
//! parallel; the default is the machine's available parallelism and the
//! output is bit-identical for every `N`.
//!
//! `--sanitize` turns on the engine's runtime invariant checks (TLB set
//! ownership, LRU order, stats identities — see `gpu_sim::sanitize`) for
//! every simulation in the run; the first violation aborts with a state
//! dump. Output is unchanged when no violation fires.
//!
//! `--trace-cache DIR` backs the run's workload cache with an on-disk
//! `trace/v1` directory (see `trace-gen`): misses write trace files,
//! hits stream TBs from disk instead of materializing the kernel, and
//! the output stays byte-identical either way. `--trace FILE`
//! (repeatable) preloads specific trace files; requests matching their
//! recorded provenance replay them.

use bench::cli::{exit_usage, select, Args, RunFlags};
use bench::{
    cells, corun_study_grid, fig10_11_grid, fig11_variance_grid, fig12_grid, fig2_grid,
    fig3_4_grid, fig5_6_grid, geomean, hugepage_grid, warp_study_grid, Grid, SEED,
};
use orchestrated_tlb::{run_benchmark_cached, Mechanism};
use workloads::{extended_registry, registry, BenchmarkSpec, Scale};

fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

fn bins(b: &[f64; 5]) -> String {
    b.iter()
        .map(|x| format!("{:4.0}%", x * 100.0))
        .collect::<Vec<_>>()
        .join(" ")
}

fn print_table2(specs: &[BenchmarkSpec], scale: Scale, grid: &Grid) {
    println!("== Table II: benchmarks (scaled inputs; paper footprints are 0.7-107 GB) ==");
    println!(
        "{:<10} {:<10} {:<45} {:>10} {:>9} {:>8}",
        "bench", "suite", "application", "footprint", "kernels", "TBs"
    );
    let idx: Vec<usize> = (0..specs.len()).collect();
    let rows = grid.map(&idx, |&i| {
        let spec = &specs[i];
        let wl = grid.cache().get(spec, scale, SEED);
        let tbs: usize = wl.kernels().iter().map(|k| k.tbs.len()).sum();
        let summary = wl.summary();
        format!(
            "{:<10} {:<10} {:<45} {:>8.2}MB {:>9} {:>8}  ({} ops, {:.0}% gather)",
            spec.name,
            format!("{:?}", spec.suite),
            spec.application,
            wl.footprint_bytes() as f64 / (1024.0 * 1024.0),
            wl.kernels().len(),
            tbs,
            summary.total_ops(),
            summary.gather_fraction() * 100.0
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!();
}

fn print_fig2(specs: &[BenchmarkSpec], scale: Scale, grid: &Grid) {
    println!("== Figure 2: baseline L1 TLB hit rate, 64 vs 256 entries ==");
    println!("{:<10} {:>8} {:>8}", "bench", "64-entry", "256-entry");
    let rows = fig2_grid(specs, scale, grid);
    for r in &rows {
        println!("{:<10} {:>8} {:>8}", r.bench, pct(r.hit_64), pct(r.hit_256));
    }
    println!(
        "{:<10} {:>8} {:>8}\n",
        "mean",
        pct(rows.iter().map(|r| r.hit_64).sum::<f64>() / rows.len() as f64),
        pct(rows.iter().map(|r| r.hit_256).sum::<f64>() / rows.len() as f64)
    );
}

fn print_fig3_4(specs: &[BenchmarkSpec], scale: Scale, fig3: bool, fig4: bool, grid: &Grid) {
    let rows = fig3_4_grid(specs, scale, Some(64), grid);
    if fig3 {
        println!("== Figure 3: inter-TB translation reuse (bins b1..b5) ==");
        println!("{:<10}   b1   b2   b3   b4   b5", "bench");
        for r in &rows {
            println!("{:<10} {}", r.bench, bins(&r.inter));
        }
        println!();
    }
    if fig4 {
        println!("== Figure 4: intra-TB translation reuse (bins b1..b5) ==");
        println!("{:<10}   b1   b2   b3   b4   b5", "bench");
        for r in &rows {
            println!("{:<10} {}", r.bench, bins(&r.intra));
        }
        println!();
    }
}

fn print_fig5_6(specs: &[BenchmarkSpec], scale: Scale, fig5: bool, fig6: bool, grid: &Grid) {
    let rows = fig5_6_grid(specs, scale, grid);
    let header = || {
        print!("{:<10}", "bench");
        for e in bench::DISTANCE_EXPONENTS.0..=bench::DISTANCE_EXPONENTS.1 {
            print!(" {:>5}", 1u64 << e);
        }
        println!("  (CDF at distance <= x; '|' marks 64-entry reach)");
    };
    if fig5 {
        println!("== Figure 5: intra-TB reuse distance CDF, concurrent TBs ==");
        header();
        for r in &rows {
            print!("{:<10}", r.bench);
            for (x, v) in &r.concurrent {
                print!(" {:>4.0}%{}", v * 100.0, if *x == 64 { "|" } else { "" });
            }
            println!();
        }
        println!();
    }
    if fig6 {
        println!("== Figure 6: intra-TB reuse distance CDF, one TB at a time ==");
        header();
        for r in &rows {
            print!("{:<10}", r.bench);
            for (x, v) in &r.isolated {
                print!(" {:>4.0}%{}", v * 100.0, if *x == 64 { "|" } else { "" });
            }
            println!();
        }
        println!();
    }
}

fn print_fig10_11(specs: &[BenchmarkSpec], scale: Scale, fig10: bool, fig11: bool, grid: &Grid) {
    let rows = fig10_11_grid(specs, scale, grid);
    let labels = ["baseline", "sched", "sched+part", "+share"];
    if fig10 {
        println!("== Figure 10: L1 TLB hit rates (higher is better) ==");
        print!("{:<10}", "bench");
        for l in labels {
            print!(" {:>11}", l);
        }
        println!();
        for r in &rows {
            print!("{:<10}", r.bench);
            for h in r.hit_rates {
                print!(" {:>11}", pct(h));
            }
            println!();
        }
        println!();
    }
    if fig11 {
        println!("== Figure 11: execution time normalized to baseline (lower is better) ==");
        print!("{:<10}", "bench");
        for l in labels {
            print!(" {:>11}", l);
        }
        println!();
        for r in &rows {
            print!("{:<10}", r.bench);
            for t in r.norm_time {
                print!(" {:>11.3}", t);
            }
            println!();
        }
        for (i, l) in labels.iter().enumerate() {
            let g = geomean(rows.iter().map(|r| r.norm_time[i]));
            println!(
                "geomean {:<11} {:.3}  ({:+.1}% vs baseline)",
                l,
                g,
                (g - 1.0) * 100.0
            );
        }
        println!();
    }
}

fn print_fig12(specs: &[BenchmarkSpec], scale: Scale, grid: &Grid) {
    println!("== Figure 12: ours + TLB compression, normalized to compression alone ==");
    let rows = fig12_grid(specs, scale, grid);
    for r in &rows {
        println!("{:<10} {:>7.3}x", r.bench, r.speedup);
    }
    println!(
        "{:<10} {:>7.3}x\n",
        "geomean",
        geomean(rows.iter().map(|r| r.speedup))
    );
}

fn print_hugepage(specs: &[BenchmarkSpec], scale: Scale, grid: &Grid) {
    println!("== Section V huge-page study (2 MiB pages) ==");
    println!(
        "{:<10} {:>14} {:>20}",
        "bench", "base hit(2MB)", "ours time (norm.)"
    );
    let rows = hugepage_grid(specs, scale, grid);
    for r in &rows {
        println!(
            "{:<10} {:>14} {:>20.3}",
            r.bench,
            pct(r.hit_rate_huge),
            r.norm_time_ours
        );
    }
    let g = geomean(rows.iter().map(|r| r.norm_time_ours));
    println!(
        "{:<10} {:>14} {:>20.3}  ({:+.1}%)\n",
        "geomean",
        "",
        g,
        (g - 1.0) * 100.0
    );
}

fn print_variance(scale: Scale, grid: &Grid) {
    let seeds = [42, 1, 7, 1234];
    println!(
        "== Seed sensitivity: full proposal's normalized time, {} seeds ==",
        seeds.len()
    );
    println!("{:<10} {:>8} {:>8}", "bench", "mean", "std");
    for r in fig11_variance_grid(scale, &seeds, grid) {
        println!("{:<10} {:>8.3} {:>8.4}", r.bench, r.mean, r.std_dev);
    }
    println!();
}

fn print_warp_study(scale: Scale, grid: &Grid) {
    println!("== §VII warp-granularity reuse distances (P[d <= 64-entry reach]) ==");
    println!("{:<10} {:>10} {:>10}", "bench", "intra-TB", "intra-warp");
    for r in warp_study_grid(scale, grid) {
        println!(
            "{:<10} {:>9.0}% {:>9.0}%",
            r.bench,
            r.tb_at_reach * 100.0,
            r.warp_at_reach * 100.0
        );
    }
    println!();
}

/// Prints the mem-hier per-level translation-latency attribution for the
/// baseline and the full proposal: where each translation cycle went
/// (L1 TLB, interconnect, L2 TLB queueing, L2 TLB lookup, walk, fault).
fn print_breakdown(specs: &[BenchmarkSpec], scale: Scale, grid: &Grid) {
    println!("== Translation latency breakdown (share of translation cycles) ==");
    println!(
        "{:<10} {:<18} {:>9}{}",
        "bench",
        "mechanism",
        "mean lat",
        analysis::LATENCY_COMPONENTS
            .map(|c| format!(" {c:>13}"))
            .join("")
    );
    let mechs = [Mechanism::Baseline, Mechanism::Full];
    let rows = grid.map(&cells(specs.len(), &mechs), |&(i, m)| {
        let report = run_benchmark_cached(
            grid.cache(),
            &specs[i],
            scale,
            SEED,
            m,
            gpu_sim::GpuConfig::dac23_baseline(),
        );
        report
            .latency
            .check()
            .expect("per-stage latency must sum to end-to-end translation latency");
        let shares = analysis::latency_shares(&report.latency);
        format!(
            "{:<10} {:<18} {:>9.1}{}",
            specs[i].name,
            m.to_string(),
            report.latency.mean_latency(),
            shares.map(|s| format!(" {:>12.1}%", s * 100.0)).join("")
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!();
}

/// Prints the multi-tenant co-run study: per-app slowdown vs. solo,
/// Jain fairness and system throughput per mechanism, then the per-app
/// CSV rows.
fn print_corun(apps: &[BenchmarkSpec], scale: Scale, grid: &Grid) {
    let names: Vec<&str> = apps.iter().map(|s| s.name).collect();
    println!(
        "== Multi-tenant co-run: {} concurrent address spaces ({}) ==",
        apps.len(),
        names.join("+")
    );
    print!("{:<18}", "mechanism");
    for n in &names {
        print!(" {:>10}", n);
    }
    println!(
        " {:>9} {:>11}  (slowdown vs solo; fairness/STP over progress)",
        "fairness", "throughput"
    );
    let rows = corun_study_grid(apps, scale, grid);
    for r in &rows {
        print!("{:<18}", r.mechanism);
        for s in &r.slowdowns {
            print!(" {:>10.3}", s);
        }
        println!(" {:>9.4} {:>11.4}", r.fairness, r.throughput);
    }
    println!();
    println!("{}", gpu_sim::SimReport::csv_header_for_apps(apps.len()));
    for r in &rows {
        println!("{}", r.csv_row);
    }
}

/// Prints every mechanism's headline counters as CSV for the selected
/// benchmarks.
fn print_csv(specs: &[BenchmarkSpec], scale: Scale, grid: &Grid) {
    println!("{}", gpu_sim::SimReport::csv_header());
    let rows = grid.map(&cells(specs.len(), &Mechanism::all()), |&(i, m)| {
        run_benchmark_cached(
            grid.cache(),
            &specs[i],
            scale,
            SEED,
            m,
            gpu_sim::GpuConfig::dac23_baseline(),
        )
        .to_csv_row()
    });
    for row in rows {
        println!("{row}");
    }
}

fn main() {
    let mut args = Args::from_env();
    let mut run = RunFlags::default();
    let mut wanted: Vec<String> = Vec::new();
    let mut extended = false;
    let mut apps: Vec<String> = Vec::new();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--extended" => extended = true,
            "--apps" => {
                let list = args.value(&flag);
                if list.is_empty() {
                    exit_usage("--apps requires a comma-separated benchmark list");
                }
                apps.extend(list.split(',').map(str::to_owned));
            }
            "--csv" | "--breakdown" | "--variance" | "--warp-study" | "--table2" | "--hugepage" => {
                wanted.push(flag[2..].to_owned())
            }
            "--all" => wanted.extend(
                [
                    "table2", "2", "3", "4", "5", "6", "10", "11", "12", "hugepage",
                ]
                .map(String::from),
            ),
            fig if fig.starts_with("--fig") => wanted.push(fig[5..].to_owned()),
            other => run.accept(other, &mut args),
        }
    }
    if wanted.is_empty() {
        wanted = ["table2", "2", "10", "11"].map(String::from).to_vec();
    }
    let registry = if extended {
        extended_registry()
    } else {
        registry()
    };
    let specs = select(registry, &run.benches);
    // One grid (and one workload cache) across every requested figure.
    let (scale, grid) = (run.scale, run.grid());
    println!("# orchestrated-tlb repro (scale: {scale}, seed: {SEED})\n");
    let has = |x: &str| wanted.iter().any(|w| w == x);
    if !apps.is_empty() {
        // The co-run study is its own report: always resolve against the
        // extended registry so any known benchmark can join a mix.
        let all = extended_registry();
        let corun_specs: Vec<BenchmarkSpec> = apps
            .iter()
            .map(|name| {
                all.iter()
                    .find(|s| s.name == name)
                    .cloned()
                    .unwrap_or_else(|| exit_usage(&format!("--apps: unknown benchmark {name}")))
            })
            .collect();
        if corun_specs.len() < 2 {
            exit_usage("--apps needs at least two benchmarks to co-run");
        }
        print_corun(&corun_specs, scale, &grid);
        return;
    }
    if has("csv") {
        print_csv(&specs, scale, &grid);
        return;
    }
    if has("table2") {
        print_table2(&specs, scale, &grid);
    }
    if has("2") {
        print_fig2(&specs, scale, &grid);
    }
    if has("3") || has("4") {
        print_fig3_4(&specs, scale, has("3"), has("4"), &grid);
    }
    if has("5") || has("6") {
        print_fig5_6(&specs, scale, has("5"), has("6"), &grid);
    }
    if has("10") || has("11") {
        print_fig10_11(&specs, scale, has("10"), has("11"), &grid);
    }
    if has("12") {
        print_fig12(&specs, scale, &grid);
    }
    if has("hugepage") {
        print_hugepage(&specs, scale, &grid);
    }
    if has("breakdown") {
        print_breakdown(&specs, scale, &grid);
    }
    if has("variance") {
        print_variance(scale, &grid);
    }
    if has("warp-study") {
        print_warp_study(scale, &grid);
    }
    // Diagnostics go to stderr so stdout stays byte-identical; hit/miss
    // counts are themselves deterministic (one generation per unique
    // key regardless of the job count).
    if std::env::var_os("REPRO_CACHE_STATS").is_some() {
        let stats = grid.cache().stats();
        eprintln!(
            "# workload cache: {} generated, {} served from cache ({} requests); graph builds: {}",
            stats.misses,
            stats.hits,
            stats.requests(),
            stats.graph_builds
        );
    }
}
