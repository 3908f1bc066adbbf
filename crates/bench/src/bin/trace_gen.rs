//! `trace-gen` — populates an on-disk `trace/v1` cache ahead of time.
//!
//! ```text
//! trace-gen [--bench NAME]... [--all] [--extended]
//!           [--scale test|small|paper|large] [--seed N]
//!           [--page-size 4k|2m] [--out-dir DIR]
//! ```
//!
//! Writes one trace file per selected benchmark into `--out-dir`
//! (default `traces/`), named by its provenance key
//! (`{bench}-{scale}-s{seed}-{4k|2m}.v1.trace`), and prints one line per
//! file: path, op counts, and the FNV-1a content hash. Generation is
//! deterministic — two populations of the same directory are
//! byte-identical, which is what the CI trace-determinism step asserts.
//!
//! The written directory is what `repro`, `sweep` and `fuzz` consume via
//! `--trace-cache DIR`: a pre-populated cache turns every workload
//! materialization into a streamed replay.

use std::path::PathBuf;

use bench::cli::{exit_usage, select, Args};
use vmem::PageSize;
use workloads::format::file_hash;
use workloads::{extended_registry, registry, Scale, TraceReader, WorkloadCache};

fn main() {
    let mut args = Args::from_env();
    let mut only: Vec<String> = Vec::new();
    let mut all = false;
    let mut extended = false;
    let mut scale = Scale::Test;
    let mut seed = bench::SEED;
    let mut page_size = PageSize::Small;
    let mut out_dir = PathBuf::from("traces");
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--all" => all = true,
            "--extended" => {
                extended = true;
                all = true;
            }
            "--bench" => only.push(args.value(&flag)),
            "--scale" => scale = args.parsed(&flag),
            "--seed" => seed = args.parsed(&flag),
            "--page-size" => {
                page_size = match args.value(&flag).as_str() {
                    "4k" => PageSize::Small,
                    "2m" => PageSize::Large,
                    other => exit_usage(&format!("unknown page size {other:?} (use 4k|2m)")),
                };
            }
            "--out-dir" => out_dir = PathBuf::from(args.value(&flag)),
            other => exit_usage(&format!("unknown flag {other}")),
        }
    }
    if only.is_empty() && !all {
        exit_usage("select benchmarks with --bench NAME... or --all");
    }
    let registry = if extended {
        extended_registry()
    } else {
        registry()
    };
    let specs = select(registry, &only);

    let cache = WorkloadCache::with_disk(&out_dir);
    let mut failed = false;
    for spec in &specs {
        match cache
            .ensure_trace_file(spec, scale, seed, page_size)
            .and_then(|path| {
                let reader = TraceReader::open(&path)?;
                let hash = file_hash(&path)?;
                Ok((path, reader, hash))
            }) {
            Ok((path, reader, hash)) => {
                let s = reader.summary();
                println!(
                    "{}  {} kernels, {} ops ({} loads, {} stores, {} compute), hash {hash:016x}",
                    path.display(),
                    reader.kernels().len(),
                    s.total_ops(),
                    s.loads,
                    s.stores,
                    s.compute_ops,
                );
            }
            Err(e) => {
                eprintln!("{}: {e}", spec.name);
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
