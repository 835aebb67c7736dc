//! DURABILITY.md is normative: every claim names the check that enforces
//! it. In each "Enforced by" cell, a backticked snake_case identifier
//! (optionally `file.rs::`-qualified) must name a `fn` under `crates/`,
//! and a backticked `*.rs` token a file there.

use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((path.clone(), std::fs::read_to_string(path).expect("source")));
        }
    }
}

#[test]
fn every_check_durability_md_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc = std::fs::read_to_string(root.join("DURABILITY.md")).expect("DURABILITY.md");
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    let snake = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_lowercase())
            && s.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };

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
            let (call, generic) = (format!("fn {name}("), format!("fn {name}<"));
            let defines = |s: &String| s.contains(&call) || s.contains(&generic);
            let found = name.is_empty() || candidates.any(|(_, s)| defines(s));
            assert!(found, "no fn `{token}`");
            checked += 1;
        }
    }
    assert!(checked >= 10, "{checked} checks: did the tables change?");
}
