//! The prose docs name code, and the code must still have what they name.
//!
//! DURABILITY.md is normative: in each "Enforced by" cell, a backticked
//! snake_case identifier (optionally `file.rs::`-qualified) must name a `fn`
//! under `crates/`, and a backticked `*.rs` token a file there. Across
//! README.md, DESIGN.md, EXPERIMENTS.md and DURABILITY.md, every backticked
//! `file.rs::fn` must name a `fn` in that file, every backticked
//! `Type::member` a fn, const, field or variant under `crates/`, every bare
//! backticked CamelCase name a struct, enum, trait, type alias or enum
//! variant under `crates/` or `shims/`, and every `--bin name` a
//! `crates/bench/src/bin/name.rs`.

use std::path::{Path, PathBuf};

const DOCS: &[&str] = &["README.md", "DESIGN.md", "EXPERIMENTS.md", "DURABILITY.md"];

/// Types the docs name from std, outside `crates/` and `shims/`.
const EXTERNAL_TYPES: &str = "Arc AtomicBool BTreeMap BTreeSet BytesMut Drop File HashMap HashSet \
    Instant Ord OsRng RandomState SystemTime Vec";

/// Bare names the docs keep for what is gone: the pre-tier `FsyncPolicy`
/// variants DURABILITY.md's history of that spelling names.
const RETIRED_NAMES: &[&str] = &["Always", "Never"];

fn external(name: &str) -> bool {
    EXTERNAL_TYPES.split_whitespace().any(|t| t == name)
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, with its text.
fn rust_sources(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(rust_sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((path.clone(), std::fs::read_to_string(path).expect("source")));
        }
    }
    out
}

/// The identifier `s` starts with (after leading whitespace).
fn ident(s: &str) -> &str {
    let s = s.trim_start();
    let end = s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
    &s[..end.unwrap_or(s.len())]
}

/// Whether `source` defines a struct, enum, trait or type alias `ty`.
fn defines_type(source: &str, ty: &str) -> bool {
    ["struct", "enum", "trait", "type"].iter().any(|kind| {
        let head = format!("{kind} {ty}");
        source
            .match_indices(&head)
            .any(|(at, _)| ident(&source[at + kind.len()..]) == ty)
    })
}

/// The capitalised names `source` declares besides `defines_type`'s: enum
/// variants (the identifier opening a line one brace deep inside an `enum`
/// body) and types a macro declares (the first identifier argument of a
/// multi-line invocation, such as `id_newtype!`'s).
fn declared_names(source: &str) -> Vec<&str> {
    let (mut out, mut depth) = (Vec::new(), None::<i32>);
    let mut in_macro = false;
    for line in source.lines() {
        let code = line.split("//").next().unwrap_or_default();
        if in_macro && !code.trim().is_empty() && !code.trim_start().starts_with('#') {
            in_macro = false;
            out.extend(Some(ident(code)).filter(|n| n.starts_with(char::is_uppercase)));
        }
        in_macro |= code.trim_end().ends_with("!(");
        let braces = code.matches('{').count() as i32 - code.matches('}').count() as i32;
        let Some(d) = depth else {
            let decl = code.trim_start();
            let decl = decl.strip_prefix("pub(crate) ").unwrap_or(decl);
            let decl = decl.strip_prefix("pub ").unwrap_or(decl);
            if decl.starts_with("enum ") && braces > 0 {
                depth = Some(braces);
            }
            continue;
        };
        let name = ident(code);
        if d == 1 && name.starts_with(char::is_uppercase) {
            out.push(name);
        }
        depth = Some(d + braces).filter(|d| *d > 0);
    }
    out
}

fn defines_fn(source: &str, name: &str) -> bool {
    source.contains(&format!("fn {name}(")) || source.contains(&format!("fn {name}<"))
}

/// Whether `ty` is defined under `crates/` and `member` is a fn or const
/// there, or a field or variant line in a file that defines `ty`.
fn resolves(sources: &[(PathBuf, String)], ty: &str, member: &str) -> bool {
    let homes: Vec<&str> = sources
        .iter()
        .map(|(_, s)| s.as_str())
        .filter(|s| defines_type(s, ty))
        .collect();
    let fn_or_const = |s: &str| defines_fn(s, member) || s.contains(&format!("const {member}:"));
    let field_or_variant = |line: &str| {
        let line = line.trim_start();
        let line = line.strip_prefix("pub(crate) ").unwrap_or(line);
        let line = line.strip_prefix("pub ").unwrap_or(line);
        let rest = &line[ident(line).len()..];
        ident(line) == member && (rest.is_empty() || rest.starts_with([':', ',', '(', ' ']))
    };
    !homes.is_empty()
        && (sources.iter().any(|(_, s)| fn_or_const(s))
            || homes.iter().any(|s| s.lines().any(field_or_variant)))
}

/// The member names after `Type::`: one identifier, or the leading
/// identifier of each item in a `{A, B { x }, C}` list.
fn members(tail: &str) -> Vec<&str> {
    let Some(list) = tail.trim_start().strip_prefix('{') else {
        return vec![ident(tail)];
    };
    let (mut out, mut depth, mut start) = (Vec::new(), 0, 0);
    for (i, c) in list.char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 0 => break,
            '}' => depth -= 1,
            ',' if depth == 0 => {
                out.push(ident(&list[start..i]));
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(ident(&list[start..]));
    out
}

#[test]
fn every_check_durability_md_names_exists() {
    let doc = std::fs::read_to_string(root().join("DURABILITY.md")).expect("DURABILITY.md");
    let sources = rust_sources(&root().join("crates"));
    let snake = |s: &str| ident(s) == s && s.starts_with(|c: char| c.is_ascii_lowercase());

    let (mut column, mut checked) = (None, 0);
    for line in doc.lines() {
        if !line.starts_with('|') {
            column = None;
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if let Some(i) = cells.iter().position(|c| *c == "Enforced by") {
            column = Some(i);
        }
        let Some(cell) = column.and_then(|i| cells.get(i)) else {
            continue;
        };
        for token in cell.split('`').skip(1).step_by(2) {
            let (file, name) = match token.split_once("::") {
                Some((file, name)) if file.ends_with(".rs") => (Some(file), name),
                None if token.ends_with(".rs") => (Some(token), ""),
                None if snake(token) => (None, token),
                _ => continue,
            };
            let mut candidates = sources
                .iter()
                .filter(|(path, _)| file.is_none_or(|f| path.ends_with(f)))
                .peekable();
            assert!(candidates.peek().is_some(), "no file `{token}`");
            let found = name.is_empty() || candidates.any(|(_, s)| defines_fn(s, name));
            assert!(found, "no fn `{token}`");
            checked += 1;
        }
    }
    assert!(checked >= 10, "{checked} checks: did the tables change?");
}

/// A bare CamelCase name: one identifier, capitalised, with a lowercase
/// letter (so `EOS` or `TCP` are not type names).
fn camel(token: &str) -> bool {
    ident(token) == token
        && token.starts_with(char::is_uppercase)
        && token.contains(char::is_lowercase)
}

#[test]
fn every_code_path_the_docs_name_exists() {
    let sources = rust_sources(&root().join("crates"));
    let types: Vec<(PathBuf, String)> =
        [sources.clone(), rust_sources(&root().join("shims"))].concat();
    let declared: Vec<&str> = types.iter().flat_map(|(_, s)| declared_names(s)).collect();
    let (mut missing, mut checked) = (Vec::new(), 0);
    for doc in DOCS {
        let text = std::fs::read_to_string(root().join(doc)).expect("doc");
        for token in text.split('`').skip(1).step_by(2) {
            if camel(token) {
                if external(token) || RETIRED_NAMES.contains(&token) {
                    continue;
                }
                checked += 1;
                let found =
                    declared.contains(&token) || types.iter().any(|(_, s)| defines_type(s, token));
                if !found {
                    missing.push(format!("{doc}: `{token}`"));
                }
                continue;
            }
            let Some((head, tail)) = token.split_once("::") else {
                continue;
            };
            let found = if head.ends_with(".rs") {
                let mut files = sources.iter().filter(|(path, _)| path.ends_with(head));
                files.any(|(_, s)| defines_fn(s, ident(tail)))
            } else if head.starts_with(char::is_uppercase) && ident(head) == head {
                if external(head) {
                    continue;
                }
                let mut names = members(tail).into_iter();
                names.all(|m| !m.is_empty() && resolves(&sources, head, m))
            } else {
                continue;
            };
            checked += 1;
            if !found {
                missing.push(format!("{doc}: `{token}`"));
            }
        }
        let mut words = text.split_whitespace();
        while let Some(word) = words.next() {
            if word == "--bin" {
                let bin = ident(words.next().unwrap_or_default());
                let path = root().join(format!("crates/bench/src/bin/{bin}.rs"));
                checked += 1;
                if !path.is_file() {
                    missing.push(format!("{doc}: `--bin {bin}`"));
                }
            }
        }
    }
    let missing = missing.join("\n");
    assert!(missing.is_empty(), "docs name what is gone:\n{missing}");
    assert!(checked >= 100, "{checked} checks: did the docs move?");
}
