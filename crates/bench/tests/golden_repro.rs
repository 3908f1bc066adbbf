//! The refactor contract: `repro --all --scale test` is byte-identical to
//! the golden report checked in before the mem-hier extraction. Any
//! timing drift — one cycle anywhere, one reordered row — fails this test
//! before it can silently shift the paper's reproduced figures.
//!
//! The same golden file pins grid parallelism (`--jobs N`) and the
//! runtime sanitizer (`--sanitize`): neither may move a single byte.

use std::process::Command;

/// The pre-refactor golden output (checked in; regenerate only for a
/// deliberate, documented timing change — see EXPERIMENTS.md).
const GOLDEN: &str = include_str!("golden/repro_all_test.txt");

/// Run `repro --all --scale test` with the given extra flags and assert
/// the stdout matches the golden file byte for byte, reporting the first
/// divergent line on failure.
fn assert_matches_golden(extra: &[&str]) {
    let mut args = vec!["--all", "--scale", "test", "--jobs", "2"];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(&args)
        .output()
        .expect("repro binary must run");
    assert!(
        out.status.success(),
        "repro {args:?} exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("repro output is UTF-8");
    if got != GOLDEN {
        // Locate the first divergence for a readable failure message.
        let diverge = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
        let got_line = got.lines().nth(diverge).unwrap_or("<missing>");
        let want_line = GOLDEN.lines().nth(diverge).unwrap_or("<missing>");
        panic!(
            "repro {args:?} output diverged from golden at line {}:\n  got:  {got_line}\n  want: {want_line}\n\
             (regenerate tests/golden/repro_all_test.txt only for a deliberate timing change)",
            diverge + 1
        );
    }
}

#[test]
fn repro_all_test_scale_matches_golden_byte_for_byte() {
    assert_matches_golden(&[]);
}

#[test]
fn repro_all_with_serial_jobs_matches_golden_byte_for_byte() {
    assert_matches_golden(&["--jobs", "1"]);
}

#[test]
fn repro_all_sanitized_matches_golden_byte_for_byte() {
    assert_matches_golden(&["--sanitize"]);
}

/// The 2-app co-run study's golden output (multi-tenant figure: per-app
/// slowdown, Jain fairness, system throughput, per-app CSV columns).
const GOLDEN_CORUN: &str = include_str!("golden/repro_corun_test.txt");

/// Run `repro --apps gemm,bfs --scale test` with the given extra flags
/// and assert stdout matches the co-run golden byte for byte.
fn assert_matches_corun_golden(extra: &[&str]) {
    let mut args = vec!["--apps", "gemm,bfs", "--scale", "test"];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(&args)
        .output()
        .expect("repro binary must run");
    assert!(
        out.status.success(),
        "repro {args:?} exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("repro output is UTF-8");
    assert!(
        got == GOLDEN_CORUN,
        "repro {args:?} co-run output diverged from tests/golden/repro_corun_test.txt
         (regenerate only for a deliberate timing change)"
    );
}

#[test]
fn corun_repro_matches_golden_byte_for_byte() {
    assert_matches_corun_golden(&["--jobs", "2"]);
}

#[test]
fn corun_repro_is_jobs_invariant() {
    assert_matches_corun_golden(&["--jobs", "1"]);
}

#[test]
fn corun_repro_sanitized_matches_golden() {
    assert_matches_corun_golden(&["--jobs", "2", "--sanitize"]);
}
