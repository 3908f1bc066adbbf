//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! the JSON result object; the lines before it name each metric with its
//! unit and record provenance. A traced run also writes its spans to
//! `.perfbench/spans-<workload>-s<seed>.json`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::host::{git_rev, host_cores};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::scenario::{run, RunOptions, WorkloadId, THREADS};

fn usage() -> ExitCode {
    let names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload {} [--seed N] [--seconds N] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let ok = match (args[i].as_str(), value) {
            ("--workload", Some(v)) => {
                workload = WorkloadId::parse(v);
                workload.is_some()
            }
            ("--seed", Some(v)) => v.parse().map(|s| seed = s).is_ok(),
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => {
                    seconds = s;
                    true
                }
                _ => false,
            },
            ("--trace", Some("0")) => {
                traced = false;
                true
            }
            ("--trace", Some("1")) => {
                traced = true;
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!(
                "perfbench: bad argument {} {}",
                args[i],
                value.unwrap_or("")
            );
            return usage();
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage();
    };

    let opts = RunOptions {
        seed,
        seconds,
        traced,
        work_dir: PathBuf::from(".perfbench"),
    };
    let outcome = match run(workload, &opts) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    if traced {
        let path = opts
            .work_dir
            .join(format!("spans-{}-s{seed}.json", workload.name()));
        let written = std::fs::create_dir_all(&opts.work_dir)
            .and_then(|()| std::fs::write(&path, outcome.spans.to_json()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    println!(
        "provenance: {{\"workload\": \"{}\", \"seed\": {seed}, \"scale\": \"{}\", \
         \"host_cores\": {}, \"git_rev\": \"{}\", \"threads\": {THREADS}, \"seconds\": {seconds}, \
         \"traced\": {traced}}}",
        workload.name(),
        workload.scale(),
        host_cores(),
        git_rev(Path::new("."))
    );
    let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    print!("{}", outcome.result.render(catalogue));
    ExitCode::SUCCESS
}
