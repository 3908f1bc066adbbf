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
//! The written directory is what `repro`/`sweep`/`engine-bench` consume
//! via `--trace-cache DIR`: a pre-populated cache turns every workload
//! materialization into a streamed replay.

use std::path::PathBuf;

use vmem::PageSize;
use workloads::format::file_hash;
use workloads::{extended_registry, registry, Scale, TraceReader, WorkloadCache};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut only: Vec<String> = Vec::new();
    let mut all = false;
    let mut extended = false;
    let mut scale = Scale::Test;
    let mut seed = bench::SEED;
    let mut page_size = PageSize::Small;
    let mut out_dir = PathBuf::from("traces");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => all = true,
            "--extended" => {
                extended = true;
                all = true;
            }
            "--bench" => {
                i += 1;
                match args.get(i) {
                    Some(name) => only.push(name.clone()),
                    None => {
                        eprintln!("--bench requires a benchmark name");
                        std::process::exit(2);
                    }
                }
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str).map(str::parse) {
                    Some(Ok(s)) => s,
                    _ => {
                        eprintln!("unknown scale (use test|small|paper|large)");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                i += 1;
                seed = match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--seed requires an integer");
                        std::process::exit(2);
                    }
                };
            }
            "--page-size" => {
                i += 1;
                page_size = match args.get(i).map(String::as_str) {
                    Some("4k") => PageSize::Small,
                    Some("2m") => PageSize::Large,
                    other => {
                        eprintln!("unknown page size {other:?} (use 4k|2m)");
                        std::process::exit(2);
                    }
                };
            }
            "--out-dir" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out_dir = PathBuf::from(p),
                    None => {
                        eprintln!("--out-dir requires a path");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if only.is_empty() && !all {
        eprintln!("select benchmarks with --bench NAME... or --all");
        std::process::exit(2);
    }

    let mut specs = if extended {
        extended_registry()
    } else {
        registry()
    };
    if !only.is_empty() {
        specs.retain(|s| only.iter().any(|n| n == s.name));
        if specs.is_empty() {
            eprintln!("no benchmark matched {only:?}");
            std::process::exit(2);
        }
    }

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
