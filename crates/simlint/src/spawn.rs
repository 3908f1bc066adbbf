//! The graph layer of `engine-spawn`: no `thread::spawn`/`thread::scope`
//! in any item of the workspace.
//!
//! The simulator is serial; parallelism lives at the experiment-grid
//! level, where independent simulations fan out over workers. A thread
//! inside a simulation would let arrival order leak into simulation
//! state, so every spawn site needs a reasoned allow escape (the grid's
//! fan-out carries one).

use crate::graph::Workspace;
use crate::lexer::TokKind;
use crate::parser::ItemKind;
use crate::Violation;

/// Rule name for thread creation.
pub const RULE: &str = "engine-spawn";

/// Flags every `thread::spawn` / `thread::scope` outside test code and
/// outside simlint itself.
pub fn analyze(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for (id, (fi, it)) in ws.items.iter().enumerate() {
        if it.is_test || !matches!(it.kind, ItemKind::Fn | ItemKind::Const) {
            continue;
        }
        if ws.krate(id) == "simlint" {
            continue;
        }
        let rel = &ws.files[*fi].rel;
        let toks = &ws.files[*fi].toks;
        let (start, end) = it.span;
        for k in start..end.min(toks.len()) {
            let t = &toks[k];
            if t.kind == TokKind::Ident
                && (t.text == "spawn" || t.text == "scope")
                && k >= 3
                && toks[k - 1].text == ":"
                && toks[k - 2].text == ":"
                && toks[k - 3].text == "thread"
            {
                out.push(Violation {
                    file: rel.clone(),
                    line: t.line,
                    rule: RULE.into(),
                    message: format!(
                        "`thread::{}` in `{}` — the simulator is serial; parallelism \
                         belongs to the experiment grid, so arrival order cannot leak \
                         into simulation state",
                        t.text,
                        ws.qual_name(id)
                    ),
                });
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(rel, src)| parse_file(rel, lex(src)))
                .collect(),
        )
    }

    #[test]
    fn spawn_anywhere_in_the_simulator_is_flagged() {
        let w = ws(&[
            (
                "crates/gpu-sim/src/engine.rs",
                "pub fn run() { std::thread::spawn(|| {}); }\n",
            ),
            (
                "crates/mem-hier/src/hierarchy.rs",
                "pub fn drain() { std::thread::scope(|_s| {}); }\n",
            ),
        ]);
        let v = analyze(&w);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == RULE), "{v:?}");
    }
}
