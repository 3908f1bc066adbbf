//! Character-level Rust lexer shared by the lexical rules ([`crate`])
//! and the item parser ([`crate::parser`]).
//!
//! The lexer classifies every token rather than discarding literals: the
//! taint analysis needs string contents (sink markers like the trace
//! cache's `"{bench}-{scale}-s{seed}-{ps}.v{}.trace"` file name live in
//! literals) and the parser needs literals
//! to occupy exactly one token so brace/paren matching cannot be thrown
//! off by a `{` inside a string. The lexical rules filter down to
//! [`Tok::is_code`] tokens, which reproduces the v1 token stream.
//!
//! Handled exactly (with regression fixtures in `tests/lexer_edges.rs`):
//! raw strings `r"…"`/`r#"…"#`/`br##"…"##`, nested block comments, char
//! literals containing `"` or escapes, lifetimes vs char literals, raw
//! identifiers `r#type`, byte strings/chars, and the `\`-newline string
//! continuation escape (which must still advance the line counter).

use std::fmt;

/// What a token is; the lexical rules look only at code tokens, the
/// parser and the taint sink scan additionally read literals.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers are unescaped).
    Ident,
    /// Number literal (suffixes and hex digits attached).
    Num,
    /// Single punctuation character.
    Punct,
    /// String literal (plain, raw or byte); `text` is the content.
    Str,
    /// Char or byte-char literal; `text` is the content between quotes.
    Chr,
    /// Lifetime; `text` is the name without the leading `'`.
    Life,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Tok {
    /// 1-based line the token starts on.
    pub line: usize,
    /// Classification.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for literal conventions).
    pub text: String,
}

impl Tok {
    /// True for the tokens the v1 lexical rules operate on
    /// (identifiers, numbers, punctuation — not literals or lifetimes).
    pub fn is_code(&self) -> bool {
        matches!(self.kind, TokKind::Ident | TokKind::Num | TokKind::Punct)
    }
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.text)
    }
}

/// A `//` comment with its line and whether it had the line to itself.
#[derive(Clone, Debug)]
pub struct LineComment {
    /// 1-based source line.
    pub line: usize,
    /// Text after the `//`.
    pub text: String,
    /// True when no token precedes the comment on its line.
    pub standalone: bool,
}

/// The result of lexing one source file.
pub struct Lexed {
    /// All tokens, literals included.
    pub toks: Vec<Tok>,
    /// All `//` comments (allow escapes are parsed out of these).
    pub comments: Vec<LineComment>,
}

impl Lexed {
    /// The v1-compatible token stream: code tokens only.
    pub fn code_tokens(&self) -> Vec<Tok> {
        self.toks.iter().filter(|t| t.is_code()).cloned().collect()
    }
}

/// Tokenizes Rust source.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut toks: Vec<Tok> = Vec::new();
    let mut comments = Vec::new();
    let n = chars.len();

    // Returns the char at `i + k`, or '\0' past the end.
    let at = |i: usize, k: usize| -> char {
        if i + k < n {
            chars[i + k]
        } else {
            '\0'
        }
    };

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if at(i, 1) == '/' => {
                let standalone = toks.last().map(|t| t.line) != Some(line);
                let start = i + 2;
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                comments.push(LineComment {
                    line,
                    text: chars[start..i].iter().collect(),
                    standalone,
                });
            }
            '/' if at(i, 1) == '*' => {
                // Nested block comment (discarded; allows must use `//`).
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && at(i, 1) == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && at(i, 1) == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let (tok, ni, nl) = lex_string(&chars, i, line);
                toks.push(tok);
                i = ni;
                line = nl;
            }
            '\'' => {
                // Char literal or lifetime. 'a' is a char, 'a (no closing
                // quote) is a lifetime; '\x' is always a char.
                if at(i, 1) == '\\' {
                    let start_line = line;
                    let start = i + 1;
                    i += 2; // skip ' and the backslash
                    if at(i, 0) == '\'' || at(i, 0) == '\\' {
                        i += 1; // escaped quote/backslash is not the closer
                    }
                    while i < n && chars[i] != '\'' {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    toks.push(Tok {
                        line: start_line,
                        kind: TokKind::Chr,
                        text: chars[start..i.min(n)].iter().collect(),
                    });
                    i += 1;
                } else if (at(i, 1).is_alphanumeric() || at(i, 1) == '_') && at(i, 2) != '\'' {
                    // Lifetime: consume the quote and the identifier.
                    i += 1;
                    let start = i;
                    while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    toks.push(Tok {
                        line,
                        kind: TokKind::Life,
                        text: chars[start..i].iter().collect(),
                    });
                } else {
                    // 'x' for any single char, including '"'.
                    let start = i + 1;
                    i += 2;
                    while i < n && chars[i] != '\'' {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    toks.push(Tok {
                        line,
                        kind: TokKind::Chr,
                        text: chars[start..i.min(n)].iter().collect(),
                    });
                    i += 1;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                // Raw/byte string prefixes: r"..", r#".."#, br".."; byte
                // char b'x'. A raw *identifier* (r#foo) falls through.
                let mut hashes = 0;
                while (text == "r" || text == "br") && at(i, hashes) == '#' {
                    hashes += 1;
                }
                if (text == "r" || text == "br") && at(i, hashes) == '"' {
                    let start_line = line;
                    i += hashes + 1;
                    let content_start = i;
                    let mut content_end = i;
                    // Scan for " followed by `hashes` #s.
                    'raw: while i < n {
                        if chars[i] == '\n' {
                            line += 1;
                            i += 1;
                        } else if chars[i] == '"' {
                            let mut k = 0;
                            while k < hashes && at(i, 1 + k) == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                content_end = i;
                                i += 1 + hashes;
                                break 'raw;
                            }
                            i += 1;
                        } else {
                            i += 1;
                        }
                    }
                    if content_end < content_start {
                        content_end = n;
                    }
                    toks.push(Tok {
                        line: start_line,
                        kind: TokKind::Str,
                        text: chars[content_start..content_end].iter().collect(),
                    });
                } else if text == "r" && at(i, 0) == '#' {
                    // Raw identifier r#foo: token is the bare name.
                    i += 1;
                    let start = i;
                    while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    toks.push(Tok {
                        line,
                        kind: TokKind::Ident,
                        text: chars[start..i].iter().collect(),
                    });
                } else if text == "b" && (at(i, 0) == '"' || at(i, 0) == '\'') {
                    // Byte string/char: the next loop iteration lexes the
                    // quote as a plain string/char literal.
                } else {
                    toks.push(Tok {
                        line,
                        kind: TokKind::Ident,
                        text,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                // Number literal (also swallows suffixes, hex digits and
                // `0..n` range dots — harmless for these rules).
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.') {
                    i += 1;
                }
                toks.push(Tok {
                    line,
                    kind: TokKind::Num,
                    text: chars[start..i].iter().collect(),
                });
            }
            _ => {
                toks.push(Tok {
                    line,
                    kind: TokKind::Punct,
                    text: c.to_string(),
                });
                i += 1;
            }
        }
    }
    Lexed { toks, comments }
}

/// Lexes a plain (escaped) string literal starting at the opening quote.
/// Returns the token, the index past the closing quote, and the updated
/// line counter — escaped newlines (the `\`-continuation) count too.
fn lex_string(chars: &[char], start: usize, start_line: usize) -> (Tok, usize, usize) {
    let n = chars.len();
    let mut i = start + 1;
    let mut line = start_line;
    let content_start = i;
    while i < n {
        match chars[i] {
            '\\' => {
                // Skip the escape lead; a continuation escape still ends
                // the physical line, so keep the counter honest.
                if i + 1 < n && chars[i + 1] == '\n' {
                    line += 1;
                }
                i += 2;
            }
            '\n' => {
                line += 1;
                i += 1;
            }
            '"' => {
                break;
            }
            _ => i += 1,
        }
    }
    let tok = Tok {
        line: start_line,
        kind: TokKind::Str,
        text: chars[content_start..i.min(n)].iter().collect(),
    };
    (tok, (i + 1).min(n + 1), line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn raw_strings_hide_contents_and_keep_lines() {
        let src = "let a = r#\"HashMap \" Instant\n//still string\"#;\nlet b = 1;\n";
        let l = lex(src);
        assert!(!idents(src).contains(&"HashMap".to_string()));
        let b = l.toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 3, "the newline inside the raw string counts");
        assert!(l.comments.is_empty(), "comment-looking raw-string content leaked");
        let s = l.toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert!(s.text.contains("HashMap"));
    }

    #[test]
    fn string_continuation_escape_counts_the_line() {
        let src = "let s = \"a\\\nb\";\nlet c = 1;\n";
        let l = lex(src);
        let c = l.toks.iter().find(|t| t.text == "c").unwrap();
        assert_eq!(c.line, 3, "escaped newline inside a string must advance the line counter");
    }

    #[test]
    fn char_literal_with_quote_does_not_open_a_string() {
        let src = "let q = '\"'; let m = HashMap::new();\n";
        assert!(idents(src).contains(&"HashMap".to_string()));
        let l = lex(src);
        assert!(l.toks.iter().all(|t| t.kind != TokKind::Str));
    }

    #[test]
    fn escaped_quote_char_literal() {
        let src = "let q = '\\''; let b = '\\\\'; let m = Instant::now();\n";
        assert!(idents(src).contains(&"Instant".to_string()));
    }

    #[test]
    fn nested_block_comments_are_discarded() {
        let src = "/* a /* HashMap */ still */ let x = 1;\n";
        assert_eq!(idents(src), vec!["let", "x"]);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let l = lex(src);
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Life).count(), 3);
        assert!(l.toks.iter().all(|t| t.kind != TokKind::Chr));
    }

    #[test]
    fn byte_and_raw_prefixes() {
        let src = "let a = b\"bytes\"; let c = b'x'; let d = br#\"raw\"#; let e = r#type;\n";
        let l = lex(src);
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Chr).count(), 1);
        assert!(idents(src).contains(&"type".to_string()), "raw ident unescapes");
    }

    #[test]
    fn standalone_detection_sees_literal_tokens() {
        // A line whose only token is a string literal: a trailing comment
        // on that line is NOT standalone (v1 got this wrong by dropping
        // literal tokens).
        let src = "const S: &str =\n    \"x\"; // simlint: allow(hash-iter, reason = \"xx\")\n";
        let l = lex(src);
        assert_eq!(l.comments.len(), 1);
        assert!(!l.comments[0].standalone);
    }
}
