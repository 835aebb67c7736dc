//! The determinism fence, enforced by `cargo test`: audits the entire
//! workspace and fails on any finding, including an undocumented or stale
//! suppression. This is the same pass `tart-lint --deny` runs; shipping it
//! as a test means a plain local `cargo test` catches a fence violation.
//!
//! It also holds the fence's one compiler-enforced rule in place: every
//! crate root forbids `unsafe`, so rustc rejects it everywhere.

use std::fs;
use std::path::{Path, PathBuf};

use tart_lint::{audit_workspace, find_workspace_root};

fn workspace_root() -> PathBuf {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(
        root.join("crates").is_dir(),
        "workspace root not found from {}",
        env!("CARGO_MANIFEST_DIR")
    );
    root
}

#[test]
fn workspace_passes_the_determinism_audit() {
    let audit = audit_workspace(&workspace_root()).expect("workspace walk failed");

    // Sanity: the walk actually covered the workspace (98 files at the time
    // of writing; a collapse to near-zero means the walker broke, which
    // would make a "clean" audit meaningless).
    assert!(
        audit.files_scanned >= 60,
        "only {} files scanned — audit walker is broken",
        audit.files_scanned
    );
    assert!(
        audit.findings.is_empty(),
        "determinism fence violated:\n{}",
        audit.render_text()
    );
}

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let root = workspace_root();
    let mut crate_roots = vec![root.join("src/lib.rs")];
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    members.sort();
    for member in members {
        for file in ["src/lib.rs", "src/main.rs"] {
            crate_roots.push(member.join(file));
        }
    }
    crate_roots.retain(|path| path.is_file());
    assert!(crate_roots.len() >= 12, "crate-root walk is broken");
    let missing: Vec<String> = crate_roots
        .iter()
        .filter(|path| {
            let src = fs::read_to_string(path).expect("readable crate root");
            !src.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]")
        })
        .map(|path| path.strip_prefix(&root).unwrap().display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "crate roots without #![forbid(unsafe_code)]: {missing:?}"
    );
}
