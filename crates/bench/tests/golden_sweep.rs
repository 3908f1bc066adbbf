//! The experiment-grid contract: `sweep --param l1-entries --scale test`
//! over two benchmarks is byte-identical to the checked-in golden CSV —
//! rows in deterministic value-major order for every `--jobs N`, every
//! cycle count stable, and `--sanitize` not moving a single byte.
//!
//! Together with `golden_repro.rs` this pins both reporting binaries;
//! the differential fuzzer (`sim-oracle`) covers the state machines
//! underneath them.

use std::process::Command;

/// Golden CSV (checked in; regenerate only for a deliberate, documented
/// timing change — see EXPERIMENTS.md):
/// `sweep --param l1-entries --scale test --bench gemm --bench bfs --jobs 2`
const GOLDEN: &str = include_str!("golden/sweep_l1_entries_test.txt");

fn assert_matches_golden(extra: &[&str]) {
    let mut args = vec![
        "--param",
        "l1-entries",
        "--scale",
        "test",
        "--bench",
        "gemm",
        "--bench",
        "bfs",
        "--jobs",
        "2",
    ];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(&args)
        .output()
        .expect("sweep binary must run");
    assert!(
        out.status.success(),
        "sweep {args:?} exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("sweep output is UTF-8");
    if got != GOLDEN {
        let diverge = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
        let got_line = got.lines().nth(diverge).unwrap_or("<missing>");
        let want_line = GOLDEN.lines().nth(diverge).unwrap_or("<missing>");
        panic!(
            "sweep {args:?} output diverged from golden at line {}:\n  got:  {got_line}\n  want: {want_line}\n\
             (regenerate tests/golden/sweep_l1_entries_test.txt only for a deliberate timing change)",
            diverge + 1
        );
    }
}

#[test]
fn sweep_l1_entries_matches_golden_byte_for_byte() {
    assert_matches_golden(&[]);
}

#[test]
fn sweep_with_serial_jobs_matches_golden_byte_for_byte() {
    // Row order is value-major by construction, not by accident of the
    // worker pool: one job must produce the identical file.
    assert_matches_golden(&["--jobs", "1"]);
}

#[test]
fn sweep_sanitized_matches_golden_byte_for_byte() {
    assert_matches_golden(&["--sanitize"]);
}
