//! The command line the bench binaries share.
//!
//! `repro` and `sweep` take the same run flags ([`RunFlags`]: `--scale`,
//! `--jobs`, `--sanitize`, `--trace-cache`, `--trace`, `--bench`);
//! `trace-gen` and `fuzz` read some of them through the same [`Args`].
//! Each flag's value is parsed here once, and every usage error goes
//! through [`exit_usage`] before any simulation starts.

use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use workloads::{BenchmarkSpec, Scale, WorkloadCache};

use crate::Grid;

/// Prints `msg` on stderr and exits 2: every bench binary's usage error.
pub fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The process arguments after the program name, read flag by flag.
pub struct Args(std::iter::Peekable<std::iter::Skip<std::env::Args>>);

impl Args {
    /// The arguments this process was started with.
    pub fn from_env() -> Args {
        Args(std::env::args().skip(1).peekable())
    }

    /// The next flag, or `None` at the end of the command line.
    pub fn next_flag(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The next argument if it is not a flag (for repeatable operands
    /// such as `fuzz --replay a.case b.case`).
    pub fn operand(&mut self) -> Option<String> {
        self.0.next_if(|a| !a.starts_with("--"))
    }

    /// The value of `flag`; exits 2 when the command line ends first.
    pub fn value(&mut self, flag: &str) -> String {
        self.0
            .next()
            .unwrap_or_else(|| exit_usage(&format!("{flag} requires a value")))
    }

    /// The value of `flag` parsed as a `T` (a [`Scale`], a seed, ...);
    /// exits 2 when it is missing or does not parse.
    pub fn parsed<T: FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: std::fmt::Display,
    {
        // Turbofish on purpose: simlint's call graph resolves a bare
        // `.parse(` to every `parse` method in the workspace.
        self.value(flag)
            .parse::<T>()
            .unwrap_or_else(|e| exit_usage(&format!("{flag}: {e}")))
    }
}

/// The run flags `repro` and `sweep` share.
pub struct RunFlags {
    /// `--scale` (default `small`).
    pub scale: Scale,
    /// Every `--bench NAME`, in order (see [`select`]).
    pub benches: Vec<String>,
    /// `--jobs N`; 0 means the machine's available parallelism.
    jobs: usize,
    trace_cache: Option<String>,
    traces: Vec<String>,
}

impl Default for RunFlags {
    fn default() -> Self {
        RunFlags {
            scale: Scale::Small,
            benches: Vec::new(),
            jobs: 0,
            trace_cache: None,
            traces: Vec::new(),
        }
    }
}

impl RunFlags {
    /// Reads `flag` (and its value) if it is a run flag; exits 2 on any
    /// other flag, so a binary matches its own flags first.
    pub fn accept(&mut self, flag: &str, args: &mut Args) {
        match flag {
            "--scale" => self.scale = args.parsed(flag),
            "--jobs" => {
                self.jobs = match args.0.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => exit_usage("--jobs requires a positive integer"),
                }
            }
            "--sanitize" => gpu_sim::set_sanitize(true),
            "--trace-cache" => self.trace_cache = Some(args.value(flag)),
            "--trace" => self.traces.push(args.value(flag)),
            "--bench" => self.benches.push(args.value(flag)),
            other => exit_usage(&format!("unknown flag {other}")),
        }
    }

    /// The run's grid: `--jobs` workers over one workload cache, in
    /// memory or backed by the `--trace-cache` directory, with every
    /// `--trace` file preloaded. Exits 2 if a trace file does not open.
    ///
    /// The job count and the trace source stay out of every report:
    /// output is byte-identical for any `--jobs N`, in memory or
    /// streamed from `trace/v1` files.
    pub fn grid(&self) -> Grid {
        let cache = match &self.trace_cache {
            Some(dir) => WorkloadCache::with_disk(dir),
            None => WorkloadCache::new(),
        };
        for file in &self.traces {
            if let Err(e) = cache.preload_trace(Path::new(file)) {
                exit_usage(&format!("--trace {file}: {e}"));
            }
        }
        Grid::with_cache(self.jobs, Arc::new(cache))
    }
}

/// The `specs` named by `--bench` (all of them when none is named);
/// exits 2 when nothing is left.
pub fn select(mut specs: Vec<BenchmarkSpec>, names: &[String]) -> Vec<BenchmarkSpec> {
    if !names.is_empty() {
        specs.retain(|s| names.iter().any(|n| n == s.name));
    }
    if specs.is_empty() {
        exit_usage(&format!("no benchmark matched {names:?}"));
    }
    specs
}
