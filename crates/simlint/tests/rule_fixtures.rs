//! Mutation-style sensitivity tests for the v2 graph rules, in the
//! spirit of `sim-oracle --mutate`: start from a fixture workspace that
//! lints clean, inject one bug, and require the matching rule to catch
//! it. A linter that stays green on the mutated tree is a linter that
//! would miss the same bug in the real workspace.
//!
//! Each test materializes the fixture under a unique temp directory and
//! runs the full [`simlint::lint_tree`] pipeline (lexical pass, item
//! graph, taint + spawn analyses, allow hygiene) — not the per-module
//! unit entry points, which have their own positive/negative pairs in
//! `src/taint.rs` and `src/spawn.rs`.

use std::fs;
use std::path::PathBuf;

use simlint::lint_tree;

/// Writes `files` (workspace-relative path, source) under a fresh temp
/// tree named for the calling test and returns its root.
fn write_tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("simlint-{name}-{}", std::process::id()));
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    for (rel, src) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, src).unwrap();
    }
    root
}

/// The clean baseline: a report path over keyed (non-iterating) hash
/// access. `crates/repro/`
/// is deliberately outside `RESULT_CRATES`, so anything these tests
/// catch comes from the graph analyses, not the v1 lexical scope.
const REPORT_RS: &str = "pub struct SimReport { pub cycles: u64 }\n\
     pub fn emit() -> SimReport { SimReport { cycles: summarize() } }\n";

const AGG_CLEAN: &str = "use std::collections::HashMap;\n\
     pub fn summarize() -> u64 {\n\
         let m: HashMap<u64, u64> = HashMap::new();\n\
         *m.get(&0).unwrap_or(&0)\n\
     }\n";

/// A second sink family: a trace writer (recognized by the
/// `TraceWriter` identifier, like the real `workloads::format` encoder)
/// whose payload comes from a keyed — hence deterministic — encoder.
const TRACE_RS: &str = "pub struct TraceWriter { pub written: u64 }\n\
     pub fn dump() -> TraceWriter { TraceWriter { written: encode() } }\n";

const ENC_CLEAN: &str = "use std::collections::HashMap;\n\
     pub fn encode() -> u64 {\n\
         let m: HashMap<u64, u64> = HashMap::new();\n\
         *m.get(&0).unwrap_or(&0)\n\
     }\n";

const BASE: [(&str, &str); 4] = [
    ("crates/repro/src/report.rs", REPORT_RS),
    ("crates/repro/src/agg.rs", AGG_CLEAN),
    ("crates/repro/src/trace.rs", TRACE_RS),
    ("crates/repro/src/trace_enc.rs", ENC_CLEAN),
];

fn lint_and_remove(root: PathBuf) -> Vec<simlint::Violation> {
    let v = lint_tree(&root).unwrap();
    fs::remove_dir_all(&root).unwrap();
    v
}

#[test]
fn baseline_fixture_workspace_lints_clean() {
    let v = lint_and_remove(write_tree("base", &BASE));
    assert!(v.is_empty(), "mutations below start from a dirty tree:\n{v:?}");
}

#[test]
fn mutation_hash_iteration_into_report_path_is_caught() {
    let mut files = BASE;
    files[1].1 = "use std::collections::HashMap;\n\
         pub fn summarize() -> u64 {\n\
             let m: HashMap<u64, u64> = HashMap::new();\n\
             let mut s = 0;\n\
             for (_k, v) in m.iter() { s += v; }\n\
             s\n\
         }\n";
    let v = lint_and_remove(write_tree("mut-taint", &files));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, simlint::taint::RULE);
    assert_eq!(v[0].file, "crates/repro/src/agg.rs");
    assert_eq!(v[0].line, 5);
    assert!(
        v[0].message.contains("`emit` → `summarize`"),
        "the witness call path to the sink is part of the message: {}",
        v[0].message
    );
}

#[test]
fn mutation_hash_iteration_into_trace_writer_path_is_caught() {
    // The trace writer is a sink in its own right: nondeterministic
    // bytes in a trace file would silently re-seed every downstream
    // replay, so the taint rule must treat `TraceWriter` like a report.
    let mut files = BASE;
    files[3].1 = "use std::collections::HashMap;\n\
         pub fn encode() -> u64 {\n\
             let m: HashMap<u64, u64> = HashMap::new();\n\
             let mut s = 0;\n\
             for (_k, v) in m.iter() { s += v; }\n\
             s\n\
         }\n";
    let v = lint_and_remove(write_tree("mut-trace", &files));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, simlint::taint::RULE);
    assert_eq!(v[0].file, "crates/repro/src/trace_enc.rs");
    assert_eq!(v[0].line, 5);
    assert!(
        v[0].message.contains("`dump` → `encode`"),
        "the witness call path to the trace-writer sink is part of the message: {}",
        v[0].message
    );
}

#[test]
fn mutation_wall_clock_into_report_path_is_caught() {
    // Same sink, different source kind: a wall-clock read feeding the
    // summary (e.g. someone "improves" the report with elapsed time).
    let mut files = BASE;
    files[1].1 = "pub fn summarize() -> u64 {\n\
         let t = std::time::Instant::now();\n\
         t.elapsed().as_nanos() as u64\n\
     }\n";
    let v = lint_and_remove(write_tree("mut-clock", &files));
    // Both layers see this one: the lexical `wall-clock` rule (which is
    // workspace-wide) and the graph taint rule (which additionally
    // proves the read can reach the report).
    let rules: Vec<&str> = v.iter().map(|v| v.rule.as_str()).collect();
    assert_eq!(rules, vec![simlint::taint::RULE, "wall-clock"], "{v:?}");
    assert!(v.iter().all(|v| v.line == 2), "{v:?}");
}

#[test]
fn mutation_stray_thread_spawn_is_caught() {
    let v = lint_and_remove(write_tree(
        "mut-spawn",
        &[
            ("crates/repro/src/report.rs", REPORT_RS),
            ("crates/repro/src/agg.rs", AGG_CLEAN),
            (
                "crates/repro/src/runner.rs",
                "pub fn run_all() { std::thread::spawn(|| {}); }\n",
            ),
        ],
    ));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, simlint::spawn::RULE);
    assert_eq!(v[0].file, "crates/repro/src/runner.rs");
}

#[test]
fn allowed_injected_taint_is_suppressed_and_the_allow_counts_as_used() {
    // End-to-end allow integration for a graph rule: the same taint
    // mutation, but with a reasoned allow on the source line. The run
    // must be clean — the finding suppressed AND no stale-allow echo.
    let mut files = BASE;
    files[1].1 = "use std::collections::HashMap;\n\
         pub fn summarize() -> u64 {\n\
             let m: HashMap<u64, u64> = HashMap::new();\n\
             let mut s = 0;\n\
             // simlint: allow(taint-reaches-report, reason = \"sum is order-independent\")\n\
             for (_k, v) in m.iter() { s += v; }\n\
             s\n\
         }\n";
    let v = lint_and_remove(write_tree("mut-allow", &files));
    assert!(v.is_empty(), "{v:?}");
}
