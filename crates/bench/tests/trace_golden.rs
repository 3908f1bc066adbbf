//! The streaming-pipeline contract, pinned at the binary level: `repro
//! --all --scale test --trace-cache DIR` is byte-identical to the same
//! golden report the in-memory path produces (`golden_repro.rs`). The
//! trace cache may change where TBs come from — never a single output
//! byte.
//!
//! Also pins cache determinism: populating two fresh directories with
//! `trace-gen` yields byte-identical files (compared by content hash),
//! so a shared trace directory can be rebuilt anywhere without
//! invalidating reproducers that pin traces by hash.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The same golden output the in-memory `golden_repro.rs` tests pin.
const GOLDEN: &str = include_str!("golden/repro_all_test.txt");

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("otlb-trace-golden-{tag}-{}", std::process::id()))
}

/// Run `repro --all --scale test --trace-cache <dir>` with the given
/// extra flags and assert stdout matches the golden byte for byte.
fn assert_traced_matches_golden(dir: &Path, extra: &[&str]) {
    let dir_s = dir.display().to_string();
    let mut args = vec![
        "--all",
        "--scale",
        "test",
        "--jobs",
        "2",
        "--trace-cache",
        &dir_s,
    ];
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
        let diverge = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
        let got_line = got.lines().nth(diverge).unwrap_or("<missing>");
        let want_line = GOLDEN.lines().nth(diverge).unwrap_or("<missing>");
        panic!(
            "trace-cached repro {args:?} diverged from golden at line {}:\n  \
             got:  {got_line}\n  want: {want_line}\n\
             (the trace path must be byte-identical to in-memory replay)",
            diverge + 1
        );
    }
}

#[test]
fn trace_cached_repro_matches_golden_byte_for_byte() {
    let dir = temp_dir("t1");
    assert_traced_matches_golden(&dir, &[]);
    // Second run replays the now-populated cache: still byte-identical.
    assert_traced_matches_golden(&dir, &[]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two independent `trace-gen` populations of the full registry produce
/// byte-identical files — generation is deterministic all the way down
/// to the on-disk encoding.
#[test]
fn trace_gen_populations_are_byte_identical() {
    let dirs = [temp_dir("gen-a"), temp_dir("gen-b")];
    for dir in &dirs {
        let out = Command::new(env!("CARGO_BIN_EXE_trace-gen"))
            .args([
                "--all",
                "--scale",
                "test",
                "--out-dir",
                &dir.display().to_string(),
            ])
            .output()
            .expect("trace-gen binary must run");
        assert!(
            out.status.success(),
            "trace-gen failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let mut names: Vec<String> = std::fs::read_dir(&dirs[0])
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(!names.is_empty(), "population produced no trace files");
    for name in &names {
        let a = workloads::format::file_hash(&dirs[0].join(name)).unwrap();
        let b = workloads::format::file_hash(&dirs[1].join(name)).unwrap();
        assert_eq!(a, b, "{name} differs between two populations");
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// An unknown scale exits 2 before any trace file is written.
#[test]
fn trace_gen_rejects_an_unknown_scale() {
    let dir = temp_dir("bogus-scale");
    let out = Command::new(env!("CARGO_BIN_EXE_trace-gen"))
        .args(["--all", "--scale", "bogus", "--out-dir"])
        .arg(&dir)
        .output()
        .expect("trace-gen binary must run");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(!dir.exists(), "trace-gen wrote {}", dir.display());
}
