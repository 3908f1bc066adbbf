//! `trace-info` — inspects a `trace/v1` file without replaying it.
//!
//! ```text
//! trace-info FILE... [--verify] [--replay] [--materialize]
//! ```
//!
//! Prints the footer metadata (provenance key, buffer table, per-kernel
//! index) and the summary counters stored at write time — opening a
//! trace reads only the footer, so this is O(footer) no matter how large
//! the op stream is.
//!
//! `--verify` additionally decodes every block and checks its stored
//! checksum plus the summary recount (exit 1 on the first corruption).
//!
//! `--replay` streams the trace through the baseline simulator and
//! prints the total cycle count plus the process's peak RSS (`VmHWM`
//! from `/proc/self/status`); `--materialize` does the same but loads
//! the whole workload into RAM first. The pair is the RSS-flatness
//! measurement documented in EXPERIMENTS.md: on a large trace, streamed
//! peak RSS stays near the footer + one decoded block, while the
//! materialized run pays for every TB at once.

use std::path::Path;

use bench::cli::exit_usage;
use gpu_sim::{GpuConfig, Simulator};
use workloads::format::TraceSource;
use workloads::TraceReader;

/// Peak resident set size of this process in KiB, per the kernel's
/// `VmHWM` line (`None` off Linux or if the field is missing).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn print_info(reader: &TraceReader) {
    let s = reader.summary();
    println!("{}", reader.path().display());
    println!(
        "  workload {:?}  bench {:?}  scale {}  seed {}  pages {}",
        reader.workload_name(),
        reader.bench(),
        reader.scale_tag(),
        reader.seed(),
        match reader.page_size() {
            vmem::PageSize::Small => "4k",
            vmem::PageSize::Large => "2m",
        },
    );
    println!(
        "  summary: {} ops ({} loads, {} stores, {} compute / {} cycles), \
         {} gather + {} strided, {} lane accesses",
        s.total_ops(),
        s.loads,
        s.stores,
        s.compute_ops,
        s.compute_cycles,
        s.gather_ops,
        s.strided_ops,
        s.lane_accesses,
    );
    println!("  buffers:");
    for b in reader.buffers() {
        println!("    {:<12} {:>12} bytes @ {:#x}", b.name, b.size, b.base);
    }
    println!("  kernels:");
    for k in reader.kernels() {
        println!(
            "    {:<12} {} TBs x {} threads (max {}/SM), {} blocks, {} ops",
            k.name,
            k.tb_count,
            k.threads_per_tb,
            k.max_concurrent_tbs_per_sm,
            k.blocks.len(),
            k.blocks.iter().map(|b| b.ops).sum::<u64>(),
        );
    }
}

fn run_and_report(path: &Path, materialize: bool) -> Result<(), workloads::TraceError> {
    let mode = if materialize {
        "materialized"
    } else {
        "streamed"
    };
    let report = if materialize {
        let workload = TraceReader::open(path)?.read_workload()?;
        Simulator::new(GpuConfig::dac23_baseline()).run(workload)
    } else {
        Simulator::new(GpuConfig::dac23_baseline()).run_source(TraceSource::open(path)?)?
    };
    match peak_rss_kib() {
        Some(kib) => println!(
            "  {mode} replay: {} cycles, peak RSS {kib} KiB",
            report.total_cycles
        ),
        None => println!("  {mode} replay: {} cycles", report.total_cycles),
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut verify = false;
    let mut replay = false;
    let mut materialize = false;
    for arg in &args {
        match arg.as_str() {
            "--verify" => verify = true,
            "--replay" => replay = true,
            "--materialize" => materialize = true,
            flag if flag.starts_with("--") => exit_usage(&format!("unknown flag {flag}")),
            file => files.push(file.to_owned()),
        }
    }
    if files.is_empty() {
        exit_usage("usage: trace-info FILE... [--verify] [--replay] [--materialize]");
    }

    let mut failed = false;
    for file in &files {
        let path = Path::new(file);
        let reader = match TraceReader::open(path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{file}: {e}");
                failed = true;
                continue;
            }
        };
        print_info(&reader);
        if verify {
            match reader.verify() {
                Ok(()) => println!("  verify: ok (all block checksums + summary recount)"),
                Err(e) => {
                    eprintln!("{file}: verify FAILED: {e}");
                    failed = true;
                    continue;
                }
            }
        }
        if replay {
            if let Err(e) = run_and_report(path, false) {
                eprintln!("{file}: streamed replay failed: {e}");
                failed = true;
            }
        }
        if materialize {
            if let Err(e) = run_and_report(path, true) {
                eprintln!("{file}: materialized replay failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
