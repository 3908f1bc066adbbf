//! Graph-derived cross-checks over the *real* workspace.
//!
//! v1 pinned the linter's scope with hand-written lists (`RESULT_CRATES`,
//! `HOT_PATHS`) and unit tests that re-asserted their contents — which
//! drifted every time a crate or file was added. These tests derive the
//! same facts from the [`simlint::graph::Workspace`] item graph instead:
//! the hand lists stay for one release cycle as a cross-check, and these
//! assertions are the thing that actually fails when the workspace
//! grows past them.

use std::collections::BTreeSet;
use std::path::Path;

use simlint::graph::Workspace;
use simlint::{build_workspace, HOT_PATHS, RESULT_CRATES};

fn real_workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    build_workspace(&root).expect("workspace sources readable")
}

#[test]
fn hand_result_crates_match_the_computed_influence_set() {
    let ws = real_workspace();
    let computed = simlint::taint::result_crates(&ws);

    // No dead entries: every hand-listed crate must be provably
    // result-influencing (some item the sinks reach lives in it).
    for entry in RESULT_CRATES {
        let name = entry
            .strip_prefix("crates/")
            .and_then(|s| s.strip_suffix('/'))
            .expect("RESULT_CRATES entries are crates/<name>/ prefixes");
        assert!(
            computed.contains(name),
            "{entry} is hand-listed as a result crate but no sink reaches it; \
             remove it from RESULT_CRATES"
        );
    }

    // No missed crates: everything the graph proves result-influencing
    // is either hand-listed or `bench` — the sink side itself (the CSV /
    // BENCH_* emitters). bench is deliberately outside the *lexical*
    // hash-iter/lossy-cast scope, but the graph taint rule covers it
    // workspace-wide, so nondeterminism there is still caught.
    for name in &computed {
        let listed = RESULT_CRATES.contains(&format!("crates/{name}/").as_str())
            || RESULT_CRATES
                .iter()
                .any(|e| e.strip_prefix("crates/").and_then(|s| s.strip_suffix('/')) == Some(name));
        assert!(
            listed || name == "bench",
            "crate `{name}` is reachable from a result sink but not in RESULT_CRATES; \
             add it (or extend the documented exceptions here)"
        );
    }
}

#[test]
fn translation_buffer_impls_are_hot_or_documented_exceptions() {
    // Every `TranslationBuffer` implementation is lookup/insert code on
    // the per-access path and belongs in HOT_PATHS — except wrappers
    // whose entire point is to sit outside the engine's no-panic /
    // no-lock discipline. Each exception carries its reason; a new impl
    // file showing up here means: add it to HOT_PATHS or justify it.
    const EXCEPTIONS: [(&str, &str); 1] = [(
        "crates/sim-oracle/src/mutate.rs",
        "oracle mutants are correctness references, never on the timing path",
    )];

    let ws = real_workspace();
    let mut impl_files: BTreeSet<&str> = BTreeSet::new();
    for id in ws.items_where(|w, i| {
        w.item(i).trait_name.as_deref() == Some("TranslationBuffer") && !w.item(i).is_test
    }) {
        impl_files.insert(ws.rel(id));
    }
    assert!(
        impl_files.len() >= 4,
        "suspiciously few TranslationBuffer impls found: {impl_files:?}"
    );
    for rel in &impl_files {
        assert!(
            HOT_PATHS.contains(rel) || EXCEPTIONS.iter().any(|(e, _)| e == rel),
            "{rel} implements TranslationBuffer but is neither in HOT_PATHS nor a \
             documented exception"
        );
    }
    // The exception list cannot rot: each entry must still contain an impl.
    for (e, why) in EXCEPTIONS {
        assert!(
            impl_files.contains(e),
            "exception {e} ({why}) no longer implements TranslationBuffer; drop it"
        );
    }
}

#[test]
fn hot_paths_exist_and_every_entry_is_parsed() {
    // HOT_PATHS is string-matched against relative paths; a typo or a
    // file rename would silently un-hot a file. The graph knows every
    // parsed file, so stale entries are detectable.
    let ws = real_workspace();
    let parsed: BTreeSet<&str> = ws.files.iter().map(|f| f.rel.as_str()).collect();
    for p in HOT_PATHS {
        assert!(parsed.contains(p), "HOT_PATHS entry {p} does not exist in the workspace");
    }
}
