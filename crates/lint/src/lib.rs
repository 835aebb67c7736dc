//! `tart-lint`: the determinism auditor.
//!
//! TART recovers failed components by restoring a checkpoint and replaying
//! logged messages (PAPER.md §II). That is only *correct* if the replayable
//! core never reads an unlogged input: a component handler, codec path, or
//! checkpointed container that observes wall-clock time, ambient
//! randomness, the environment, or hash-iteration order will diverge on
//! replay — silently, and usually only under failure, which is exactly
//! when it must not.
//!
//! This crate fences that boundary with the checks nothing else in the
//! build makes (the compiler already forbids `unsafe` and checks match
//! exhaustiveness; `Mutex` types already keep guarded state together):
//!
//! - a small [comment/string-aware lexer](lexer) (std-only: no registry,
//!   no `syn`),
//! - a [tier manifest](manifest) declaring which paths are deterministic,
//!   ops-plane, or exempt,
//! - a per-file [rule catalogue](rules) — `WALLCLOCK`, `AMBIENT-RAND`,
//!   `HASH-ITER`, `AMBIENT-ENV`,
//! - a whole-workspace [symbol graph](symbols) (items + identifier-resolved
//!   call edges) feeding one cross-file pass, [interprocedural
//!   taint](taint) (`TAINT-FLOW`),
//! - an [analysis engine](analyze) with explicit, counted
//!   `// tart-lint: allow(RULE) -- reason` suppressions (`UNDOC-ALLOW`,
//!   `UNUSED-ALLOW` keep them honest) and text reports with call-path
//!   witnesses.
//!
//! It ships two ways: the `workspace_audit` integration test (plain
//! `cargo test` enforces the fence) and the `tart-lint` binary for local
//! use (`--deny` exits 1 on findings). See DESIGN.md §12 for the hazard
//! taxonomy and tier table, §17 for the symbol graph and the taint pass.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod symbols;
pub mod taint;

pub use analyze::{audit_sources, audit_workspace, Audit, Finding, Suppression};
pub use manifest::{tier_for, Tier};
pub use rules::RuleId;

use std::path::{Path, PathBuf};

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]`; falls back to `start` itself.
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return d.to_path_buf();
            }
        }
        dir = d.parent();
    }
    start.to_path_buf()
}
