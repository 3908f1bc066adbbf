//! `fuzz` — the differential fuzzing campaign driver.
//!
//! ```text
//! fuzz [--seeds A..B] [--iters-per-seed N] [--mutate NAME]
//!      [--engine-every N] [--out-dir DIR] [--trace-cache DIR]
//!      [--replay FILE]...
//! ```
//!
//! Replays deterministic generated traces (and, every `--engine-every`th
//! seed, a whole-simulation sanitizer-equivalence case) through the
//! optimized implementations and the `sim-oracle` reference models,
//! comparing every observable (see `sim_oracle::diff`). Everything is a
//! pure function of the seed range: two runs with the same flags produce
//! byte-identical output, which is what the CI `fuzz-smoke` job asserts.
//!
//! On the first divergence the failing case is shrunk to a minimal
//! reproducer, written to `--out-dir` (default `fuzz-out/`), printed,
//! and the process exits 1. `--mutate
//! evict-mru|skip-flag-reset|drop-asid-tag` runs the campaign against a
//! deliberately-broken subject — the mutation test documented in
//! TESTING.md — and is therefore *expected* to exit 1 with a shrunk
//! case (`drop-asid-tag` is only killable by multi-app traces, which is
//! exactly what its campaign generates).
//!
//! `--replay FILE` skips generation and replays checked-in `.case`
//! reproducers (exit 1 if any diverges); `crates/bench/tests/corpus/`
//! holds the starter corpus.
//!
//! `--trace-cache DIR` routes every engine case through an on-disk
//! `trace/v1` cache: the workload's trace file is written (or reused)
//! under `DIR` and the sanitizer-equivalence replays stream from it,
//! recording the file by content hash in any shrunk reproducer (a
//! `trace <hash> <path>` directive). Campaign results are unchanged —
//! only where the bytes come from.

use bench::cli;
use sim_oracle::{fuzz_seed, run_case, Case, Mutation};
use std::ops::Range;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    seeds: Range<u64>,
    iters_per_seed: u64,
    mutation: Mutation,
    engine_every: u64,
    out_dir: PathBuf,
    trace_cache: Option<PathBuf>,
    replay: Vec<PathBuf>,
}

/// Exits 2 with `msg` and the usage line.
fn usage(msg: &str) -> ! {
    cli::exit_usage(&format!(
        "{msg}\nusage: fuzz [--seeds A..B] [--iters-per-seed N] [--mutate NAME] \
         [--engine-every N] [--out-dir DIR] [--trace-cache DIR] [--replay FILE]..."
    ));
}

fn parse_args() -> Options {
    let mut parsed = Options {
        seeds: 0..64,
        iters_per_seed: 100,
        mutation: Mutation::None,
        engine_every: 4,
        out_dir: PathBuf::from("fuzz-out"),
        trace_cache: None,
        replay: Vec::new(),
    };
    let mut args = cli::Args::from_env();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--seeds" => {
                let v = args.value(&flag);
                let Some((a, b)) = v.split_once("..") else {
                    usage("--seeds wants a half-open range A..B");
                };
                match (a.parse(), b.parse()) {
                    (Ok(a), Ok(b)) if a < b => parsed.seeds = a..b,
                    _ => usage("--seeds wants integers A < B"),
                }
            }
            "--iters-per-seed" => parsed.iters_per_seed = args.parsed(&flag),
            "--mutate" => {
                parsed.mutation = Mutation::parse(&args.value(&flag)).unwrap_or_else(|| {
                    usage("--mutate wants none|evict-mru|skip-flag-reset|drop-asid-tag")
                });
            }
            // 0 disables engine cases entirely.
            "--engine-every" => parsed.engine_every = args.parsed(&flag),
            "--out-dir" => parsed.out_dir = PathBuf::from(args.value(&flag)),
            "--trace-cache" => parsed.trace_cache = Some(PathBuf::from(args.value(&flag))),
            "--replay" => {
                // Greedy: `--replay a.case b.case c.case` is the natural
                // shell-glob invocation.
                parsed.replay.push(PathBuf::from(args.value(&flag)));
                while let Some(file) = args.operand() {
                    parsed.replay.push(PathBuf::from(file));
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    parsed
}

fn replay_files(files: &[PathBuf]) -> ExitCode {
    let mut failed = false;
    for path in files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: cannot read: {e}", path.display());
                failed = true;
                continue;
            }
        };
        let case = match Case::parse(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{}: cannot parse: {e}", path.display());
                failed = true;
                continue;
            }
        };
        match run_case(&case) {
            None => println!("{}: ok", path.display()),
            Some(d) => {
                println!("{}: DIVERGED: {d}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(dir) = &args.trace_cache {
        sim_oracle::set_trace_dir(dir);
    }
    if !args.replay.is_empty() {
        return replay_files(&args.replay);
    }

    let mut traces = 0u64;
    let mut engine_runs = 0u64;
    for seed in args.seeds.clone() {
        let engine = args.engine_every != 0 && seed % args.engine_every == 0;
        let report = fuzz_seed(seed, args.iters_per_seed, args.mutation, engine);
        traces += report.traces;
        engine_runs += report.engine_runs;
        if let Some((case, divergence)) = report.divergence {
            println!("seed {seed}: {divergence}");
            let serialized = case.serialize();
            println!("--- shrunk reproducer ---\n{serialized}");
            let file = args.out_dir.join(format!("divergence-seed{seed}.case"));
            if let Err(e) = std::fs::create_dir_all(&args.out_dir)
                .and_then(|()| std::fs::write(&file, &serialized))
            {
                eprintln!("cannot write {}: {e}", file.display());
            } else {
                println!("written to {}", file.display());
            }
            return ExitCode::from(1);
        }
    }
    println!(
        "fuzz: seeds {}..{} x {} iters (mutation: {}): {traces} traces, \
         {engine_runs} engine runs, 0 divergences",
        args.seeds.start,
        args.seeds.end,
        args.iters_per_seed,
        args.mutation.name(),
    );
    ExitCode::SUCCESS
}
