//! A small, string- and comment-aware Rust lexer.
//!
//! The auditor's rules match on *code* tokens only. Getting that right is
//! the whole game: `"Instant::now"` inside a doc comment, a test-fixture
//! string, or a `r#"raw string"#` must never fire a diagnostic. This lexer
//! is not a full Rust grammar — it only needs to classify characters into
//! code, comments, and literals, and to hand rules a token stream with line
//! numbers.
//!
//! Handled: line comments (`//`, `///`, `//!`), nested block comments,
//! string literals with escapes, raw (and byte/raw-byte) strings with any
//! `#` count, char literals vs. lifetimes, and numeric literals (one token
//! each, so a suffix like the `u64` in `1_000u64` never lexes as an
//! identifier).

/// One lexical token with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    pub line: u32,
    pub kind: TokenKind,
}

/// Classified token payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`Instant`, `fn`, `impl`, ...).
    Ident(String),
    /// A single punctuation character (`:`, `{`, `#`, ...).
    Punct(char),
    /// Numeric literal, verbatim (`1_000u64`, `0.5`, `1e-9`).
    Num(String),
    /// A lifetime (`'a`); kept distinct so it is never confused with code.
    Lifetime(String),
}

/// A line comment's text (leading `//` stripped) with its 1-based line.
/// Used to parse `tart-lint: allow(...)` directives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommentLine {
    pub line: u32,
    pub text: String,
}

/// Lexer output: the code-token stream plus every line comment.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<CommentLine>,
}

/// Tokenizes `src`, discarding string/char literal *contents* and comments
/// from the token stream (comments are returned separately for directive
/// parsing).
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    macro_rules! bump_line {
        ($c:expr) => {
            if $c == b'\n' {
                line += 1;
            }
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => {
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                // Line comment (incl. doc comments).
                let start = i + 2;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\n' {
                    j += 1;
                }
                out.comments.push(CommentLine {
                    line,
                    text: src[start..j].to_string(),
                });
                i = j; // newline handled on next loop iteration
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment; Rust block comments nest.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        bump_line!(bytes[j]);
                        j += 1;
                    }
                }
                i = j;
            }
            b'"' => {
                i = skip_string(bytes, i, &mut line);
            }
            b'\'' => {
                // Lifetime or char literal. A lifetime is `'` followed by an
                // ident with no closing quote right after one char.
                let mut j = i + 1;
                if j < bytes.len() && (bytes[j].is_ascii_alphabetic() || bytes[j] == b'_') {
                    // Peek past the ident run.
                    let ident_start = j;
                    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
                    {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j] == b'\'' && j - ident_start == 1 {
                        // 'a' — a one-char char literal.
                        i = j + 1;
                    } else if j < bytes.len() && bytes[j] == b'\'' {
                        // 'abc' is not valid Rust, but consume defensively.
                        i = j + 1;
                    } else {
                        out.tokens.push(Token {
                            line,
                            kind: TokenKind::Lifetime(src[ident_start..j].to_string()),
                        });
                        i = j;
                    }
                } else {
                    // Escaped or punctuation char literal: '\n', '\'', '\u{1F600}', '+'.
                    while j < bytes.len() {
                        if bytes[j] == b'\\' {
                            j += 2;
                        } else if bytes[j] == b'\'' {
                            j += 1;
                            break;
                        } else {
                            bump_line!(bytes[j]);
                            j += 1;
                        }
                    }
                    i = j;
                }
            }
            b'r' | b'b' => {
                // Possible raw/byte string prefix: r"", r#""#, b"", br#""#.
                if let Some(next) = raw_or_byte_string(bytes, i, &mut line) {
                    i = next;
                } else {
                    i = lex_ident(src, bytes, i, line, &mut out);
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                i = lex_ident(src, bytes, i, line, &mut out);
            }
            c if c.is_ascii_digit() => {
                // Numeric literal: digits, `_`, `.` (if followed by a digit),
                // exponent markers, radix prefixes, type suffixes.
                let start = i;
                let mut j = i + 1;
                while j < bytes.len() {
                    let d = bytes[j];
                    let dot_in_float = d == b'.'
                        && bytes
                            .get(j + 1)
                            .map(|n| n.is_ascii_digit())
                            .unwrap_or(false);
                    let exponent_sign = (d == b'+' || d == b'-')
                        && matches!(bytes[j - 1], b'e' | b'E')
                        && bytes[start..j]
                            .iter()
                            .any(|b| *b == b'.' || *b == b'e' || *b == b'E');
                    if d.is_ascii_alphanumeric() || d == b'_' || dot_in_float || exponent_sign {
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Num(src[start..j].to_string()),
                });
                i = j;
            }
            _ => {
                if c.is_ascii() {
                    out.tokens.push(Token {
                        line,
                        kind: TokenKind::Punct(c as char),
                    });
                    i += 1;
                } else {
                    // Skip over a multi-byte UTF-8 scalar.
                    let mut j = i + 1;
                    while j < bytes.len() && (bytes[j] & 0b1100_0000) == 0b1000_0000 {
                        j += 1;
                    }
                    i = j;
                }
            }
        }
    }
    out
}

fn lex_ident(src: &str, bytes: &[u8], i: usize, line: u32, out: &mut Lexed) -> usize {
    let start = i;
    let mut j = i + 1;
    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
        j += 1;
    }
    out.tokens.push(Token {
        line,
        kind: TokenKind::Ident(src[start..j].to_string()),
    });
    j
}

/// Consumes a normal `"..."` string starting at `i` (which must point at the
/// opening quote); returns the index just past the closing quote.
fn skip_string(bytes: &[u8], i: usize, line: &mut u32) -> usize {
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            c => {
                if c == b'\n' {
                    *line += 1;
                }
                j += 1;
            }
        }
    }
    j
}

/// If `i` starts a raw or byte string (`r"`, `r#"`, `b"`, `br"`, `rb"`...),
/// consumes it and returns the index past the close; otherwise `None`.
fn raw_or_byte_string(bytes: &[u8], i: usize, line: &mut u32) -> Option<usize> {
    let mut j = i;
    // Consume up to two prefix letters (r, b, br, rb).
    let mut saw_r = false;
    for _ in 0..2 {
        match bytes.get(j) {
            Some(b'r') => {
                saw_r = true;
                j += 1;
            }
            Some(b'b') => j += 1,
            _ => break,
        }
    }
    if saw_r {
        // Raw string: count hashes then expect a quote.
        let mut hashes = 0usize;
        while bytes.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if bytes.get(j) != Some(&b'"') {
            return None;
        }
        j += 1;
        // Scan for `"` followed by `hashes` hash marks.
        while j < bytes.len() {
            if bytes[j] == b'"' {
                let mut k = 0usize;
                while k < hashes && bytes.get(j + 1 + k) == Some(&b'#') {
                    k += 1;
                }
                if k == hashes {
                    return Some(j + 1 + hashes);
                }
            }
            if bytes[j] == b'\n' {
                *line += 1;
            }
            j += 1;
        }
        Some(j)
    } else if j > i && bytes.get(j) == Some(&b'"') {
        // Byte string b"..." — same escape rules as a normal string.
        Some(skip_string(bytes, j, line))
    } else {
        None
    }
}

impl TokenKind {
    /// The identifier text, if this token is an identifier.
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, TokenKind::Punct(p) if *p == c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let src = r##"
            // Instant::now in a comment
            /// doc: SystemTime
            /* block HashMap */
            /* nested /* thread_rng */ still comment */
            let a = "Instant::now";
            let b = r#"SystemTime::now"#;
            let c = b"HashMap";
            let actual = foo();
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|s| s == "Instant"));
        assert!(!ids.iter().any(|s| s == "SystemTime"));
        assert!(!ids.iter().any(|s| s == "HashMap"));
        assert!(!ids.iter().any(|s| s == "thread_rng"));
        assert!(ids.contains(&"actual".to_string()));
        assert!(ids.contains(&"foo".to_string()));
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let src = "let x = 1;\n// tart-lint: allow(WALLCLOCK) -- reason\nlet y = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("allow(WALLCLOCK)"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { let c = 'q'; let n = '\\n'; x }";
        let lexed = lex(src);
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Lifetime(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, vec!["a", "a", "static"]);
        // The char literal contents never become identifiers.
        assert!(!idents(src).iter().any(|s| s == "q"));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"line1\nline2\";\nInstant::now();\n";
        let lexed = lex(src);
        let inst = lexed
            .tokens
            .iter()
            .find(|t| t.kind.as_ident() == Some("Instant"))
            .expect("Instant token");
        assert_eq!(inst.line, 3);
    }

    #[test]
    fn numbers_lex_as_single_tokens() {
        let src = "let a = 1_000u64; let b = 0.5; let c = 1e-9; let d = 2.5f64;";
        let nums: Vec<_> = lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Num(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["1_000u64", "0.5", "1e-9", "2.5f64"]);
    }

    #[test]
    fn raw_identifier_prefix_chars_still_lex_as_idents() {
        // `r` and `b` as plain identifiers must not be eaten as string prefixes.
        let ids = idents("let r = b + rb_thing;");
        assert_eq!(ids, vec!["let", "r", "b", "rb_thing"]);
    }
}
