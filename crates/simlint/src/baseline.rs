//! Checked-in violation baseline with a monotonic ratchet.
//!
//! The baseline records, per `(file, rule)`, how many findings are
//! currently tolerated. CI compares a fresh run against it:
//!
//! * any `(file, rule)` whose count **grows** (or appears) is a
//!   regression — the build fails and the message names the exact
//!   delta plus the command that refreshes the baseline once the new
//!   findings are triaged;
//! * counts that **shrink** are improvements — the run still passes,
//!   but the ratchet message suggests tightening the baseline so the
//!   head-room cannot be silently re-spent.
//!
//! Format is line-oriented and diff-friendly:
//!
//! ```text
//! # simlint baseline (tolerated findings; ratchet is monotonic down)
//! <count> <rule> <file>
//! ```

use crate::Violation;
use std::collections::BTreeMap;

/// Command CI suggests for refreshing the file.
pub const UPDATE_CMD: &str = "cargo run -p simlint -- --update-baseline";

/// Tolerated finding counts per `(file, rule)`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<(String, String), usize>,
}

/// Outcome of comparing a run against the baseline.
pub struct Ratchet {
    /// Human-readable regression lines; non-empty means *fail*.
    pub regressions: Vec<String>,
    /// `(file, rule)` entries whose counts shrank — candidates for a
    /// baseline tightening.
    pub improvements: Vec<String>,
}

impl Baseline {
    /// Summarizes a violation list into baseline counts.
    pub fn from_violations(violations: &[Violation]) -> Baseline {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for v in violations {
            *counts.entry((v.file.clone(), v.rule.clone())).or_insert(0) += 1;
        }
        Baseline { counts }
    }

    /// Parses the on-disk format; unknown or malformed lines are errors
    /// so a corrupted baseline cannot silently tolerate everything.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            let (Some(n), Some(rule), Some(file)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "baseline line {}: expected `<count> <rule> <file>`, got `{line}`",
                    lineno + 1
                ));
            };
            let n: usize = n
                .parse()
                .map_err(|_| format!("baseline line {}: bad count `{n}`", lineno + 1))?;
            counts.insert((file.to_string(), rule.to_string()), n);
        }
        Ok(Baseline { counts })
    }

    /// Renders the on-disk format (sorted, stable).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# simlint baseline (tolerated findings; ratchet is monotonic down)\n\
             # refresh after triage with: cargo run -p simlint -- --update-baseline\n",
        );
        for ((file, rule), n) in &self.counts {
            out.push_str(&format!("{n} {rule} {file}\n"));
        }
        out
    }

    /// Total tolerated findings.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Compares a fresh run (`current`) against this baseline.
    pub fn ratchet(&self, current: &Baseline) -> Ratchet {
        let mut regressions = Vec::new();
        let mut improvements = Vec::new();
        for ((file, rule), &n) in &current.counts {
            let allowed = self
                .counts
                .get(&(file.clone(), rule.clone()))
                .copied()
                .unwrap_or(0);
            if n > allowed {
                regressions.push(format!(
                    "{file}: {rule} grew {allowed} -> {n}; fix the new finding(s) or, after \
                     triage, refresh with `{UPDATE_CMD}`"
                ));
            } else if n < allowed {
                improvements.push(format!(
                    "{file}: {rule} shrank {allowed} -> {n}; tighten the baseline with \
                     `{UPDATE_CMD}` to lock it in"
                ));
            }
        }
        for ((file, rule), &allowed) in &self.counts {
            if allowed > 0 && !current.counts.contains_key(&(file.clone(), rule.clone())) {
                improvements.push(format!(
                    "{file}: {rule} shrank {allowed} -> 0; tighten the baseline with \
                     `{UPDATE_CMD}` to lock it in"
                ));
            }
        }
        regressions.sort();
        improvements.sort();
        improvements.dedup();
        Ratchet {
            regressions,
            improvements,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(file: &str, rule: &str, line: usize) -> Violation {
        Violation {
            file: file.into(),
            line,
            rule: rule.into(),
            message: "m".into(),
        }
    }

    #[test]
    fn round_trips_through_text() {
        let b = Baseline::from_violations(&[
            v("a.rs", "hash-iter", 1),
            v("a.rs", "hash-iter", 9),
            v("b.rs", "wall-clock", 3),
        ]);
        let parsed = Baseline::parse(&b.render()).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.total(), 3);
    }

    #[test]
    fn growth_is_a_regression_and_shrink_an_improvement() {
        let base = Baseline::parse("1 hash-iter a.rs\n2 wall-clock b.rs\n").unwrap();
        let current = Baseline::from_violations(&[
            v("a.rs", "hash-iter", 1),
            v("a.rs", "hash-iter", 2),
            v("b.rs", "wall-clock", 3),
        ]);
        let r = base.ratchet(&current);
        assert_eq!(r.regressions.len(), 1, "{:?}", r.regressions);
        assert!(r.regressions[0].contains("hash-iter grew 1 -> 2"));
        assert_eq!(r.improvements.len(), 1, "{:?}", r.improvements);
        assert!(r.improvements[0].contains("wall-clock shrank 2 -> 1"));
    }

    #[test]
    fn vanished_entries_suggest_tightening() {
        let base = Baseline::parse("2 lossy-cast gone.rs\n").unwrap();
        let r = base.ratchet(&Baseline::default());
        assert!(r.regressions.is_empty());
        assert_eq!(r.improvements.len(), 1);
        assert!(r.improvements[0].contains("shrank 2 -> 0"));
    }

    #[test]
    fn new_file_rule_pair_regresses_from_zero() {
        let base = Baseline::default();
        let r = base.ratchet(&Baseline::from_violations(&[v("new.rs", "engine-spawn", 5)]));
        assert_eq!(r.regressions.len(), 1);
        assert!(r.regressions[0].contains("grew 0 -> 1"));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Baseline::parse("nonsense\n").is_err());
        assert!(Baseline::parse("x hash-iter a.rs\n").is_err());
        assert!(Baseline::parse("# comment\n\n3 r f.rs\n").is_ok());
    }
}
