//! Replays the checked-in `.case` corpus through the differential
//! harness: every shrunk reproducer that ever caught a bug (plus the
//! hand-written coverage cases) keeps replaying forever as a regression
//! test.
//!
//! Cases carrying a `mutate` directive other than `none` are mutation
//! self-tests: they run a deliberately-broken subject and MUST diverge —
//! that assertion is what keeps the harness itself honest (see
//! TESTING.md). All other cases must replay clean.

use sim_oracle::{run_case, Case, Mutation};
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus() -> Vec<(PathBuf, String)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "case"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable case file");
            (p, text)
        })
        .collect()
}

#[test]
fn corpus_replays_with_expected_verdicts() {
    let corpus = corpus();
    assert!(
        corpus.len() >= 13,
        "corpus should not silently shrink (found {})",
        corpus.len()
    );
    for (path, text) in &corpus {
        let case = Case::parse(text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let is_mutant = matches!(&case, Case::Trace(t) if t.mutation != Mutation::None);
        let result = run_case(&case);
        if is_mutant {
            assert!(
                result.is_some(),
                "{}: mutation self-test stopped diverging — the harness lost sensitivity",
                path.display()
            );
        } else {
            assert_eq!(
                result.map(|d| d.to_string()),
                None,
                "{}: corpus case diverged",
                path.display()
            );
        }
    }
}

/// The corpus exercises every model kind, solo and co-run engine
/// replays, and all three mutants — a guard against coverage rot as
/// cases are added or rewritten.
#[test]
fn corpus_covers_all_models_and_mutants() {
    let mut setassoc = 0;
    let mut partitioned = 0;
    let mut scheduler = 0;
    let mut engine_solo = 0;
    let mut engine_corun = 0;
    let mut mutants = 0;
    for (path, text) in corpus() {
        match Case::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display())) {
            Case::Trace(t) => {
                match t.model {
                    sim_oracle::ModelKind::SetAssoc => setassoc += 1,
                    sim_oracle::ModelKind::Partitioned => partitioned += 1,
                    sim_oracle::ModelKind::Scheduler => scheduler += 1,
                }
                if t.mutation != Mutation::None {
                    mutants += 1;
                }
            }
            Case::Engine(e) if e.apps.is_empty() => engine_solo += 1,
            Case::Engine(_) => engine_corun += 1,
        }
    }
    assert!(setassoc >= 2, "need set-assoc coverage");
    assert!(partitioned >= 5, "need partitioned coverage");
    assert!(scheduler >= 1, "need scheduler coverage");
    assert!(engine_solo >= 1, "need solo engine coverage");
    assert!(engine_corun >= 1, "need co-run engine coverage");
    assert_eq!(mutants, 3, "exactly the three known mutants are self-tests");
}

/// Every corpus file round-trips through the serializer: parse →
/// serialize → parse is identity, so reproducers written by the fuzzer
/// and cases edited by hand stay interchangeable.
#[test]
fn corpus_round_trips_through_the_text_format() {
    for (path, text) in corpus() {
        let case = Case::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let reparsed = Case::parse(&case.serialize()).unwrap_or_else(|e| {
            panic!("{}: reserialized form does not parse: {e}", path.display())
        });
        assert_eq!(case, reparsed, "{}", path.display());
    }
}
