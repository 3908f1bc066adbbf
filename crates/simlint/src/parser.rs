//! Item-level Rust parser over the [`crate::lexer`] token stream.
//!
//! This is not a full grammar: it recognizes the item skeleton the graph
//! analyses need — functions (with parameter names/types), impl blocks
//! (self type + trait), traits (default methods count as methods of the
//! trait), structs (field name → type), enums, modules, consts/statics —
//! and records each item's token span so later passes can scan bodies.
//! Everything it does not understand is skipped tolerantly; because
//! literals are single tokens, brace/paren/bracket matching is exact.
//!
//! Design constraint: std-only and offline, like the rest of simlint.

use crate::lexer::{Lexed, Tok, TokKind};

/// Item classification.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// Free function, method, or trait default method.
    Fn,
    /// Struct definition (fields recorded).
    Struct,
    /// Enum definition.
    Enum,
    /// Trait definition (its methods are separate [`ItemKind::Fn`] items).
    Trait,
    /// `impl` block (its methods are separate [`ItemKind::Fn`] items).
    Impl,
    /// Module with a body.
    Mod,
    /// `const` or `static` item.
    Const,
    /// `type` alias.
    TypeAlias,
    /// `macro_rules!` definition.
    MacroDef,
}

/// One struct field.
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// All identifier tokens of the field's type (e.g. `Box`, `dyn`,
    /// `TranslationBuffer` for `Box<dyn TranslationBuffer>`).
    pub ty_idents: Vec<String>,
}

/// One function parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// Binding name (`self` for receivers, empty for pattern params).
    pub name: String,
    /// Identifier tokens of the annotated type (empty for `self`).
    pub ty_idents: Vec<String>,
}

/// One parsed item.
#[derive(Clone, Debug)]
pub struct Item {
    /// Classification.
    pub kind: ItemKind,
    /// Item name (empty for impl blocks).
    pub name: String,
    /// For methods: the type the surrounding `impl`/`trait` is for.
    pub self_ty: Option<String>,
    /// For methods inside `impl Trait for Type`: the trait.
    pub trait_name: Option<String>,
    /// 1-based first line.
    pub line: usize,
    /// 1-based last line.
    pub end_line: usize,
    /// Token span `[start, end)` over the file's token vector covering
    /// the whole item (signature and body).
    pub span: (usize, usize),
    /// Token span of the body block (braces included); `span.1..span.1`
    /// when the item has no body (trait method signatures, consts).
    pub body: (usize, usize),
    /// Function parameters (kind == Fn).
    pub params: Vec<Param>,
    /// Struct fields (kind == Struct).
    pub fields: Vec<Field>,
    /// True when the item sits under `#[test]`/`#[cfg(test)]` (directly
    /// or via an enclosing module).
    pub is_test: bool,
}

/// A parsed source file.
pub struct ParsedFile {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// Owning crate name (directory under `crates/`, or the root package).
    pub krate: String,
    /// Full token stream (literals included).
    pub toks: Vec<Tok>,
    /// `//` comments.
    pub comments: Vec<crate::lexer::LineComment>,
    /// All items, containers before their contents.
    pub items: Vec<Item>,
}

/// Crate name from a workspace-relative path.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("?").to_string(),
        _ => "orchestrated-tlb-repro".to_string(),
    }
}

/// Parses one lexed file.
pub fn parse_file(rel: &str, lexed: Lexed) -> ParsedFile {
    let Lexed { toks, comments } = lexed;
    let mut items = Vec::new();
    let end = toks.len();
    parse_items(&toks, 0, end, None, None, false, &mut items);
    ParsedFile {
        rel: rel.to_string(),
        krate: crate_of(rel),
        toks,
        comments,
        items,
    }
}

fn text(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

fn is_ident(toks: &[Tok], i: usize) -> bool {
    toks.get(i).map(|t| t.kind == TokKind::Ident).unwrap_or(false)
}

/// Index just past the bracket matching `toks[open]` (which must be one
/// of `(`/`[`/`{`). Literal tokens cannot contain stray brackets.
fn match_bracket(toks: &[Tok], open: usize, end: usize) -> usize {
    let (o, c) = match text(toks, open) {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return open + 1,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < end {
        let t = text(toks, i);
        if t == o {
            depth += 1;
        } else if t == c {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// Index just past a generics list starting at `toks[i] == "<"`.
/// `->` arrows inside bounds (`F: Fn() -> u64`) do not close angles.
fn skip_generics(toks: &[Tok], mut i: usize, end: usize) -> usize {
    if text(toks, i) != "<" {
        return i;
    }
    let mut depth = 0isize;
    while i < end {
        match text(toks, i) {
            "<" => depth += 1,
            ">"
                if text(toks, i.wrapping_sub(1)) != "-" => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
            "(" | "[" | "{" => {
                i = match_bracket(toks, i, end);
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    end
}

/// Wrappers skipped when choosing the significant identifier of a type.
const TYPE_WRAPPERS: [&str; 14] = [
    "Box", "Arc", "Rc", "RefCell", "Cell", "Option", "Vec", "VecDeque", "Mutex", "OnceLock",
    "dyn", "mut", "impl", "std",
];

/// The identifier tokens of a type token slice, in order.
fn type_idents(toks: &[Tok], start: usize, end: usize) -> Vec<String> {
    toks[start.min(toks.len())..end.min(toks.len())]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect()
}

/// Picks the most significant identifier of a type: the first one that
/// is not a known wrapper (`Box<dyn TranslationBuffer>` →
/// `TranslationBuffer`), falling back to the last identifier.
pub fn pick_type_ident(ty_idents: &[String]) -> String {
    ty_idents
        .iter()
        .find(|t| !TYPE_WRAPPERS.contains(&t.as_str()))
        .or_else(|| ty_idents.last())
        .cloned()
        .unwrap_or_default()
}

/// Parses the items in `toks[start..end]`. `ctx` carries the enclosing
/// impl/trait (self type + trait name); `in_test` marks enclosing
/// `#[cfg(test)]` containers.
fn parse_items(
    toks: &[Tok],
    start: usize,
    end: usize,
    self_ty: Option<&str>,
    trait_name: Option<&str>,
    in_test: bool,
    out: &mut Vec<Item>,
) {
    let mut i = start;
    while i < end {
        let item_start = i;
        // Attributes: `#[...]` / `#![...]`; a `test` identifier anywhere
        // inside marks the item as test code (`#[test]`, `#[cfg(test)]`).
        let mut is_test = in_test;
        while text(toks, i) == "#" {
            let mut j = i + 1;
            if text(toks, j) == "!" {
                j += 1;
            }
            if text(toks, j) != "[" {
                break;
            }
            let close = match_bracket(toks, j, end);
            if toks[j + 1..close.saturating_sub(1)]
                .iter()
                .any(|t| t.text == "test")
            {
                is_test = true;
            }
            i = close;
        }
        // Visibility and modifiers.
        loop {
            match text(toks, i) {
                "pub" => {
                    i += 1;
                    if text(toks, i) == "(" {
                        i = match_bracket(toks, i, end);
                    }
                }
                "async" | "unsafe" | "default" => i += 1,
                "extern" if text(toks, i + 1) == "fn" || toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Str) => {
                    // `extern "C" fn` / `extern fn`.
                    i += 1;
                    if toks.get(i).map(|t| t.kind) == Some(TokKind::Str) {
                        i += 1;
                    }
                }
                "const" if text(toks, i + 1) == "fn" => i += 1,
                _ => break,
            }
        }

        match text(toks, i) {
            "fn" => {
                let name = text(toks, i + 1).to_string();
                let sig_line = toks.get(i).map(|t| t.line).unwrap_or(1);
                let mut j = i + 2;
                j = skip_generics(toks, j, end);
                let mut params = Vec::new();
                let mut params_end = j;
                if text(toks, j) == "(" {
                    params_end = match_bracket(toks, j, end);
                    params = parse_params(toks, j + 1, params_end - 1, self_ty);
                }
                // Return type / where clause up to `{` or `;`.
                let mut k = params_end;
                while k < end && text(toks, k) != "{" && text(toks, k) != ";" {
                    if matches!(text(toks, k), "(" | "[") {
                        k = match_bracket(toks, k, end);
                    } else {
                        k += 1;
                    }
                }
                let (body, item_end) = if text(toks, k) == "{" {
                    let be = match_bracket(toks, k, end);
                    ((k, be), be)
                } else {
                    ((k, k), (k + 1).min(end))
                };
                out.push(Item {
                    kind: ItemKind::Fn,
                    name,
                    self_ty: self_ty.map(str::to_string),
                    trait_name: trait_name.map(str::to_string),
                    line: sig_line,
                    end_line: last_line(toks, item_start, item_end),
                    span: (item_start, item_end),
                    body,
                    params,
                    fields: Vec::new(),
                    is_test,
                });
                i = item_end;
            }
            "struct" => {
                let name = text(toks, i + 1).to_string();
                let line = toks.get(i).map(|t| t.line).unwrap_or(1);
                let mut j = skip_generics(toks, i + 2, end);
                if text(toks, j) == "where" {
                    while j < end && text(toks, j) != "{" && text(toks, j) != ";" {
                        j += 1;
                    }
                }
                let mut fields = Vec::new();
                let item_end;
                if text(toks, j) == "{" {
                    let be = match_bracket(toks, j, end);
                    fields = parse_fields(toks, j + 1, be - 1);
                    item_end = be;
                } else if text(toks, j) == "(" {
                    let pe = match_bracket(toks, j, end);
                    item_end = if text(toks, pe) == ";" { pe + 1 } else { pe };
                } else {
                    item_end = (j + 1).min(end); // unit struct `;`
                }
                out.push(Item {
                    kind: ItemKind::Struct,
                    name: name.clone(),
                    self_ty: None,
                    trait_name: None,
                    line,
                    end_line: last_line(toks, item_start, item_end),
                    span: (item_start, item_end),
                    body: (item_end, item_end),
                    params: Vec::new(),
                    fields,
                    is_test,
                });
                i = item_end;
            }
            "enum" | "union" => {
                let kw = text(toks, i);
                let name = text(toks, i + 1).to_string();
                let line = toks.get(i).map(|t| t.line).unwrap_or(1);
                let mut j = skip_generics(toks, i + 2, end);
                while j < end && text(toks, j) != "{" {
                    j += 1;
                }
                let item_end = match_bracket(toks, j, end);
                if kw == "enum" {
                    out.push(Item {
                        kind: ItemKind::Enum,
                        name,
                        self_ty: None,
                        trait_name: None,
                        line,
                        end_line: last_line(toks, item_start, item_end),
                        span: (item_start, item_end),
                        body: (j, item_end),
                        params: Vec::new(),
                        fields: Vec::new(),
                        is_test,
                    });
                }
                i = item_end;
            }
            "trait" => {
                let name = text(toks, i + 1).to_string();
                let line = toks.get(i).map(|t| t.line).unwrap_or(1);
                let mut j = skip_generics(toks, i + 2, end);
                while j < end && text(toks, j) != "{" && text(toks, j) != ";" {
                    j += 1;
                }
                let item_end = if text(toks, j) == "{" {
                    match_bracket(toks, j, end)
                } else {
                    (j + 1).min(end)
                };
                out.push(Item {
                    kind: ItemKind::Trait,
                    name: name.clone(),
                    self_ty: None,
                    trait_name: None,
                    line,
                    end_line: last_line(toks, item_start, item_end),
                    span: (item_start, item_end),
                    body: (j, item_end),
                    params: Vec::new(),
                    fields: Vec::new(),
                    is_test,
                });
                if text(toks, j) == "{" {
                    // Trait default methods are methods of the trait.
                    parse_items(toks, j + 1, item_end - 1, Some(&name), None, is_test, out);
                }
                i = item_end;
            }
            "impl" => {
                let line = toks.get(i).map(|t| t.line).unwrap_or(1);
                let mut j = skip_generics(toks, i + 1, end);
                // Header: `[Trait for] Type [where ...] {`.
                let head_start = j;
                let mut for_pos = None;
                while j < end && text(toks, j) != "{" && text(toks, j) != "where" {
                    if text(toks, j) == "for" {
                        for_pos = Some(j);
                    }
                    if text(toks, j) == "<" {
                        j = skip_generics(toks, j, end);
                        continue;
                    }
                    if matches!(text(toks, j), "(" | "[") {
                        j = match_bracket(toks, j, end);
                        continue;
                    }
                    j += 1;
                }
                let header_end = j;
                while j < end && text(toks, j) != "{" {
                    j += 1;
                }
                let item_end = match_bracket(toks, j, end);
                let (imp_trait, imp_ty) = match for_pos {
                    Some(f) => (
                        Some(pick_type_ident(&type_idents(toks, head_start, f))),
                        pick_type_ident(&type_idents(toks, f + 1, header_end)),
                    ),
                    None => (None, pick_type_ident(&type_idents(toks, head_start, header_end))),
                };
                out.push(Item {
                    kind: ItemKind::Impl,
                    name: imp_ty.clone(),
                    self_ty: Some(imp_ty.clone()),
                    trait_name: imp_trait.clone(),
                    line,
                    end_line: last_line(toks, item_start, item_end),
                    span: (item_start, item_end),
                    body: (j, item_end),
                    params: Vec::new(),
                    fields: Vec::new(),
                    is_test,
                });
                if text(toks, j) == "{" {
                    parse_items(
                        toks,
                        j + 1,
                        item_end - 1,
                        Some(&imp_ty),
                        imp_trait.as_deref(),
                        is_test,
                        out,
                    );
                }
                i = item_end;
            }
            "mod" => {
                let name = text(toks, i + 1).to_string();
                let line = toks.get(i).map(|t| t.line).unwrap_or(1);
                let j = i + 2;
                if text(toks, j) == "{" {
                    let item_end = match_bracket(toks, j, end);
                    out.push(Item {
                        kind: ItemKind::Mod,
                        name,
                        self_ty: None,
                        trait_name: None,
                        line,
                        end_line: last_line(toks, item_start, item_end),
                        span: (item_start, item_end),
                        body: (j, item_end),
                        params: Vec::new(),
                        fields: Vec::new(),
                        is_test,
                    });
                    parse_items(toks, j + 1, item_end - 1, None, None, is_test, out);
                    i = item_end;
                } else {
                    i = skip_to_semi(toks, j, end);
                }
            }
            "use" | "extern" => {
                i = skip_to_semi(toks, i + 1, end);
            }
            "const" | "static" | "type" => {
                let kind = if text(toks, i) == "type" {
                    ItemKind::TypeAlias
                } else {
                    ItemKind::Const
                };
                let mut j = i + 1;
                if text(toks, j) == "mut" {
                    j += 1;
                }
                let name = text(toks, j).to_string();
                let line = toks.get(i).map(|t| t.line).unwrap_or(1);
                let item_end = skip_to_semi(toks, j, end);
                out.push(Item {
                    kind,
                    name,
                    self_ty: self_ty.map(str::to_string),
                    trait_name: None,
                    line,
                    end_line: last_line(toks, item_start, item_end),
                    span: (item_start, item_end),
                    body: (j, item_end),
                    params: Vec::new(),
                    fields: Vec::new(),
                    is_test,
                });
                i = item_end;
            }
            "macro_rules" => {
                let name = text(toks, i + 2).to_string();
                let line = toks.get(i).map(|t| t.line).unwrap_or(1);
                let mut j = i + 3;
                while j < end && !matches!(text(toks, j), "{" | "(" | "[") {
                    j += 1;
                }
                let item_end = match_bracket(toks, j, end);
                out.push(Item {
                    kind: ItemKind::MacroDef,
                    name,
                    self_ty: None,
                    trait_name: None,
                    line,
                    end_line: last_line(toks, item_start, item_end),
                    span: (item_start, item_end),
                    body: (j, item_end),
                    params: Vec::new(),
                    fields: Vec::new(),
                    is_test,
                });
                i = item_end;
            }
            _ => {
                // Unknown construct: advance one token (skipping bracket
                // groups whole so we cannot desynchronize on `}`).
                if matches!(text(toks, i), "{" | "(" | "[") {
                    i = match_bracket(toks, i, end);
                } else {
                    i += 1;
                }
            }
        }
    }
}

fn last_line(toks: &[Tok], start: usize, end: usize) -> usize {
    toks[start..end.min(toks.len())]
        .last()
        .or_else(|| toks.get(start))
        .map(|t| t.line)
        .unwrap_or(1)
}

/// Skips to just past the next `;` at bracket depth 0 (const blocks and
/// array types may contain braces/brackets).
fn skip_to_semi(toks: &[Tok], mut i: usize, end: usize) -> usize {
    while i < end {
        match text(toks, i) {
            ";" => return i + 1,
            "{" | "(" | "[" => i = match_bracket(toks, i, end),
            _ => i += 1,
        }
    }
    end
}

/// Parses `fn` parameters between (exclusive) parens.
fn parse_params(toks: &[Tok], start: usize, end: usize, self_ty: Option<&str>) -> Vec<Param> {
    let mut params = Vec::new();
    let mut i = start;
    let mut seg_start = start;
    let mut angle = 0isize;
    while i <= end {
        let at_end = i == end;
        let t = if at_end { "," } else { text(toks, i) };
        match t {
            "<" => angle += 1,
            ">" if text(toks, i.wrapping_sub(1)) != "-" => angle -= 1,
            "(" | "[" | "{" => {
                i = match_bracket(toks, i, end);
                continue;
            }
            "," if angle == 0 => {
                if let Some(p) = parse_param(toks, seg_start, i, self_ty) {
                    params.push(p);
                }
                seg_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    params
}

fn parse_param(toks: &[Tok], start: usize, end: usize, self_ty: Option<&str>) -> Option<Param> {
    if start >= end {
        return None;
    }
    // Receiver: any segment containing a bare `self` before a `:`.
    let colon = (start..end).find(|&k| {
        text(toks, k) == ":" && text(toks, k + 1) != ":" && text(toks, k.wrapping_sub(1)) != ":"
    });
    let name_end = colon.unwrap_or(end);
    if toks[start..name_end].iter().any(|t| t.text == "self") {
        return Some(Param {
            name: "self".into(),
            ty_idents: self_ty.map(|t| vec![t.to_string()]).unwrap_or_default(),
        });
    }
    let colon = colon?;
    // Binding name: last identifier before the colon (`mut x` → `x`);
    // tuple/struct patterns get no name.
    let name = toks[start..colon]
        .iter()
        .rev()
        .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
        .map(|t| t.text.clone())?;
    Some(Param {
        name,
        ty_idents: type_idents(toks, colon + 1, end),
    })
}

/// Parses named struct fields between (exclusive) braces.
fn parse_fields(toks: &[Tok], start: usize, end: usize) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = start;
    while i < end {
        // Skip attributes and visibility.
        while text(toks, i) == "#" && text(toks, i + 1) == "[" {
            i = match_bracket(toks, i + 1, end);
        }
        if text(toks, i) == "pub" {
            i += 1;
            if text(toks, i) == "(" {
                i = match_bracket(toks, i, end);
            }
        }
        if !is_ident(toks, i) || text(toks, i + 1) != ":" {
            i += 1;
            continue;
        }
        let name = text(toks, i).to_string();
        let ty_start = i + 2;
        // Type runs to the next comma at depth 0.
        let mut j = ty_start;
        let mut angle = 0isize;
        while j < end {
            match text(toks, j) {
                "<" => angle += 1,
                ">" if text(toks, j.wrapping_sub(1)) != "-" => angle -= 1,
                "(" | "[" | "{" => {
                    j = match_bracket(toks, j, end);
                    continue;
                }
                "," if angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        fields.push(Field {
            name,
            ty_idents: type_idents(toks, ty_start, j),
        });
        i = j + 1;
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/x/src/lib.rs", lex(src))
    }

    #[test]
    fn parses_free_fn_and_method() {
        let p = parse(
            "pub fn free(a: u64, mut b: Vpn) -> u64 { a }\n\
             struct Foo { tlb: Box<dyn TranslationBuffer>, n: usize }\n\
             impl Foo {\n    pub fn m(&mut self, x: Ppn) -> bool { self.n > 0 }\n}\n\
             impl Buffer for Foo {\n    fn insert(&mut self, req: &Req, ppn: Ppn) {}\n}\n",
        );
        let free = p.items.iter().find(|i| i.name == "free").unwrap();
        assert_eq!(free.kind, ItemKind::Fn);
        assert_eq!(free.params.len(), 2);
        assert_eq!(free.params[1].name, "b");
        assert_eq!(free.params[1].ty_idents, vec!["Vpn"]);

        let foo = p.items.iter().find(|i| i.kind == ItemKind::Struct).unwrap();
        assert_eq!(foo.fields.len(), 2);
        assert_eq!(foo.fields[0].name, "tlb");
        assert_eq!(pick_type_ident(&foo.fields[0].ty_idents), "TranslationBuffer");

        let m = p.items.iter().find(|i| i.name == "m").unwrap();
        assert_eq!(m.self_ty.as_deref(), Some("Foo"));
        assert_eq!(m.params[0].name, "self");

        let ins = p.items.iter().find(|i| i.name == "insert").unwrap();
        assert_eq!(ins.self_ty.as_deref(), Some("Foo"));
        assert_eq!(ins.trait_name.as_deref(), Some("Buffer"));
        assert_eq!(ins.params.last().unwrap().name, "ppn");
    }

    #[test]
    fn generics_with_fn_bounds_do_not_desync() {
        let p = parse(
            "fn apply<F: Fn(u64) -> u64>(f: F) -> u64 { f(1) }\nfn after() {}\n",
        );
        assert!(p.items.iter().any(|i| i.name == "apply"));
        assert!(p.items.iter().any(|i| i.name == "after"));
    }

    #[test]
    fn trait_default_methods_belong_to_the_trait() {
        let p = parse(
            "pub trait Buf {\n    fn must(&self);\n    fn opt(&self) -> bool { false }\n}\n",
        );
        let opt = p.items.iter().find(|i| i.name == "opt").unwrap();
        assert_eq!(opt.self_ty.as_deref(), Some("Buf"));
        assert!(opt.body.1 > opt.body.0, "default body recorded");
        let must = p.items.iter().find(|i| i.name == "must").unwrap();
        assert_eq!(must.body.0, must.body.1, "signature-only method has no body");
    }

    #[test]
    fn cfg_test_marks_items_recursively() {
        let p = parse(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() {}\n}\n",
        );
        assert!(!p.items.iter().find(|i| i.name == "live").unwrap().is_test);
        assert!(p.items.iter().find(|i| i.name == "helper").unwrap().is_test);
        assert!(p.items.iter().find(|i| i.name == "t").unwrap().is_test);
    }

    #[test]
    fn impl_header_variants() {
        let p = parse(
            "impl<'a, T: Clone> Wrapper<'a, T> {\n    fn a(&self) {}\n}\n\
             impl Stage for L2TlbStage {\n    fn access(&mut self) {}\n}\n",
        );
        let a = p.items.iter().find(|i| i.name == "a").unwrap();
        assert_eq!(a.self_ty.as_deref(), Some("Wrapper"));
        let acc = p.items.iter().find(|i| i.name == "access").unwrap();
        assert_eq!(acc.self_ty.as_deref(), Some("L2TlbStage"));
        assert_eq!(acc.trait_name.as_deref(), Some("Stage"));
    }

    #[test]
    fn consts_and_macros_do_not_derail() {
        let p = parse(
            "const TABLE: [u8; 4] = [0, 1, 2, 3];\nstatic mut X: u64 = 0;\n\
             macro_rules! m { ($x:expr) => { $x } }\nfn tail() {}\n",
        );
        assert!(p.items.iter().any(|i| i.name == "TABLE" && i.kind == ItemKind::Const));
        assert!(p.items.iter().any(|i| i.name == "X"));
        assert!(p.items.iter().any(|i| i.kind == ItemKind::MacroDef && i.name == "m"));
        assert!(p.items.iter().any(|i| i.name == "tail"));
    }

    #[test]
    fn crate_of_paths() {
        assert_eq!(crate_of("crates/mem-hier/src/hierarchy.rs"), "mem-hier");
        assert_eq!(crate_of("src/lib.rs"), "orchestrated-tlb-repro");
    }
}
