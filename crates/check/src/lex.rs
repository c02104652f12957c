//! A token-level Rust lexer for the static safety rules in [`crate::lint`].
//!
//! Grown from the line-splitter that backed the original substring
//! scanner: where that pass could only blank string literals and
//! strip comments per line, this one produces a real token stream —
//! identifiers, punctuation (with `::` fused), and literals — each stamped
//! with its 1-based source line, alongside the per-line comment text the
//! justification rules (`// SAFETY:`, `// ordering:`, `// uncharged:`)
//! scan. It is deliberately *not* a full Rust parser: no macro expansion,
//! no type resolution. The lint rules are written against token shapes and
//! documented with a false-positive policy (DESIGN.md decision #13).
//!
//! Handled so the rules can't be fooled by surface syntax:
//! - line (`//`), block (`/* */`, nested) and doc comments — collected as
//!   per-line comment text, never tokens;
//! - string, raw-string (`r#".."#`, any hash count), byte-string and char
//!   literals — collapsed to a single literal token, contents discarded;
//! - the char-literal / lifetime ambiguity (`'a'` vs `<'a>`);
//! - multi-line literals and comments (tokens land on the line they start).

use std::fmt;

/// What a [`Tok`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`unsafe`, `for`, `HashMap`, ...).
    Ident,
    /// Punctuation. Single characters, except `::` which is fused into
    /// one token so path matching is a plain sequence compare.
    Punct,
    /// A literal: string/char/byte-string (contents discarded) or number.
    Lit,
    /// A lifetime (`'a`), distinguished from char literals.
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    pub line: usize,
    pub kind: TokKind,
    pub text: String,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.text)
    }
}

/// The lexer's output: the token stream plus per-line comment text.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order; multi-line constructs carry their start line.
    pub toks: Vec<Tok>,
    /// `comments[n]` is every comment character seen on 0-based line `n`
    /// (line, block and doc comments concatenated).
    pub comments: Vec<String>,
}

impl Lexed {
    /// The shared justification scanner (rules U1 / O1 / C1): is `needle`
    /// present in a comment on 0-based line `at` or within the `window`
    /// lines above it? One implementation, per-rule windows — so the
    /// rules cannot drift apart on what "a nearby comment" means.
    pub fn justified(&self, at: usize, window: usize, needle: &str) -> bool {
        let lo = at.saturating_sub(window);
        let hi = at.min(self.comments.len().saturating_sub(1));
        self.comments[lo..=hi].iter().any(|c| c.contains(needle))
    }

    /// Does the token sequence starting at `i` spell `pat` exactly?
    /// (`::` is a single token, so `["std", "::", "time"]` matches the
    /// path `std::time` and nothing else.)
    pub fn seq_at(&self, i: usize, pat: &[&str]) -> bool {
        pat.iter()
            .enumerate()
            .all(|(k, p)| self.toks.get(i + k).is_some_and(|t| t.text == *p))
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into tokens and per-line comments. Never fails: unterminated
/// constructs end at EOF (the rules run on real, compiling source; fixture
/// snippets are well-formed).
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let nlines = src.lines().count().max(1);
    let mut out = Lexed {
        toks: Vec::new(),
        comments: vec![String::new(); nlines + 1],
    };
    let mut i = 0;
    let mut line = 0usize; // 0-based while lexing; +1 on emit
    let push = |out: &mut Lexed, line: usize, kind: TokKind, text: String| {
        out.toks.push(Tok {
            line: line + 1,
            kind,
            text,
        });
    };
    let note = |out: &mut Lexed, line: usize, c: char| {
        if let Some(s) = out.comments.get_mut(line) {
            s.push(c);
        }
    };
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                i += 2;
                while i < chars.len() && chars[i] != '\n' {
                    note(&mut out, line, chars[i]);
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        } else {
                            note(&mut out, line, chars[i]);
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                let start = line;
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                push(&mut out, start, TokKind::Lit, "\"\"".into());
            }
            '\'' => {
                // Char literal ('x', '\n', '\u{..}') vs lifetime ('a).
                let is_char = matches!(chars.get(i + 1), Some('\\'))
                    || (chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\''));
                if is_char {
                    let start = line;
                    i += 1;
                    if chars.get(i) == Some(&'\\') {
                        i += 2;
                        while i < chars.len() && chars[i] != '\'' {
                            i += 1;
                        }
                        i += 1;
                    } else {
                        i += 3;
                    }
                    push(&mut out, start, TokKind::Lit, "''".into());
                } else {
                    let mut text = String::from("'");
                    i += 1;
                    while i < chars.len() && is_ident_continue(chars[i]) {
                        text.push(chars[i]);
                        i += 1;
                    }
                    push(&mut out, line, TokKind::Lifetime, text);
                }
            }
            ':' if chars.get(i + 1) == Some(&':') => {
                push(&mut out, line, TokKind::Punct, "::".into());
                i += 2;
            }
            // `b"..."` byte strings escape like ordinary strings.
            'b' if chars.get(i + 1) == Some(&'"') => {
                let start = line;
                i += 2;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                push(&mut out, start, TokKind::Lit, "\"\"".into());
            }
            _ if is_ident_start(c) => {
                // `r"..."` / `r#"..."#` / `br#"..."#` raw-string prefixes
                // are literals, not identifiers.
                let raw_at = match c {
                    'r' => Some(i + 1),
                    'b' if chars.get(i + 1) == Some(&'r') => Some(i + 2),
                    _ => None,
                };
                let raw = raw_at.and_then(|j| {
                    let mut hashes = 0;
                    let mut k = j;
                    while chars.get(k) == Some(&'#') {
                        hashes += 1;
                        k += 1;
                    }
                    (chars.get(k) == Some(&'"')).then_some((k + 1, hashes))
                });
                if let Some((mut j, hashes)) = raw {
                    let start = line;
                    while j < chars.len() {
                        if chars[j] == '\n' {
                            line += 1;
                            j += 1;
                            continue;
                        }
                        if chars[j] == '"' {
                            let mut k = 0;
                            while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break;
                            }
                        }
                        j += 1;
                    }
                    push(&mut out, start, TokKind::Lit, "\"\"".into());
                    i = j;
                } else {
                    let mut text = String::new();
                    while i < chars.len() && is_ident_continue(chars[i]) {
                        text.push(chars[i]);
                        i += 1;
                    }
                    push(&mut out, line, TokKind::Ident, text);
                }
            }
            _ if c.is_ascii_digit() => {
                // Numbers (including suffixed / float / hex forms) lex as
                // one literal token; `1.0.sqrt()` style splits are not a
                // concern for any rule.
                let mut text = String::new();
                while i < chars.len()
                    && (is_ident_continue(chars[i])
                        || (chars[i] == '.'
                            && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
                {
                    text.push(chars[i]);
                    i += 1;
                }
                push(&mut out, line, TokKind::Lit, text);
            }
            _ if c.is_whitespace() => i += 1,
            _ => {
                push(&mut out, line, TokKind::Punct, c.to_string());
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).toks.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_paths_and_puncts() {
        assert_eq!(
            texts("use std::time::Instant;"),
            ["use", "std", "::", "time", "::", "Instant", ";"]
        );
    }

    #[test]
    fn strings_and_comments_are_not_tokens() {
        let l = lex("let s = \"std::time unsafe\"; // ordering: note\n/* unsafe */ let y = 1;\n");
        assert!(l.toks.iter().all(|t| t.text != "unsafe"));
        assert!(l.comments[0].contains("ordering: note"));
        assert!(l.comments[1].contains("unsafe"));
        assert!(l.toks.iter().any(|t| t.text == "y" && t.line == 2));
    }

    #[test]
    fn raw_and_byte_strings_collapse() {
        let l = lex(
            "let a = r#\"parking_lot \"quoted\" body\"#; let b = b\"bytes\"; let c = br#\"x\"#;",
        );
        assert!(l.toks.iter().all(|t| t.text != "parking_lot"));
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Lit).count(), 3);
        assert!(l.toks.iter().any(|t| t.text == "c"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(
            l.toks
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            3
        );
        assert!(l.toks.iter().any(|t| t.text == "str"));
        let l = lex("let c = 'x'; let d = '\\n';");
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Lit).count(), 2);
    }

    #[test]
    fn multiline_string_keeps_line_numbers() {
        let l = lex("let s = \"a\nb\nc\";\nlet t = 2;");
        let t = l.toks.iter().find(|t| t.text == "t").expect("t");
        assert_eq!(t.line, 4);
    }

    #[test]
    fn justified_scans_the_window() {
        let l = lex("// SAFETY: fine\n\nunsafe {}\n");
        assert!(l.justified(2, 5, "SAFETY:"));
        assert!(!l.justified(2, 1, "SAFETY:"));
        assert!(!l.justified(2, 5, "ordering:"));
    }

    #[test]
    fn seq_matches_fused_paths() {
        let l = lex("std::sync::atomic::AtomicU64");
        assert!(l.seq_at(0, &["std", "::", "sync", "::", "atomic"]));
        assert!(!l.seq_at(0, &["std", "::", "time"]));
    }
}
