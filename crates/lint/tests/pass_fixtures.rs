//! Fixture tests for the cross-file taint pass, plus the fixture-manifest
//! sync gate.
//!
//! Unlike `rule_fixtures.rs` (one file at a time), these feed multi-file
//! workspaces through `audit_sources` so the symbol graph, call
//! resolution, and path witnesses are all exercised.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use tart_lint::{audit_sources, Audit, RuleId};

/// Runs the full analyzer over `(workspace-relative path, source)` pairs.
fn audit(files: &[(&str, &str)]) -> Audit {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    audit_sources(&owned)
}

fn fired(a: &Audit) -> Vec<RuleId> {
    a.findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- taint

const TAINT_SOURCE: &str = include_str!("fixtures/taint_source.rs");
const TAINT_RELAY: &str = include_str!("fixtures/taint_relay.rs");
const TAINT_SINK: &str = include_str!("fixtures/taint_sink.rs");

#[test]
fn taint_flow_crosses_three_files_with_a_full_witness_path() {
    let a = audit(&[
        ("crates/obs/src/source.rs", TAINT_SOURCE),
        ("crates/obs/src/relay.rs", TAINT_RELAY),
        ("crates/sched/src/sink.rs", TAINT_SINK),
    ]);
    assert_eq!(fired(&a), vec![RuleId::TaintFlow], "{:?}", a.findings);
    let f = &a.findings[0];
    assert_eq!(f.file, "crates/sched/src/sink.rs");
    // The witness walks caller → relay → raw read, one frame per file.
    assert_eq!(f.path.len(), 3, "{:?}", f.path);
    assert!(f.path[0].contains("sink.rs") && f.path[0].contains("schedule_deadline"));
    assert!(f.path[1].contains("relay.rs") && f.path[1].contains("observed_latency"));
    assert!(f.path[2].contains("source.rs") && f.path[2].contains("WALLCLOCK"));
}

#[test]
fn taint_flow_silent_when_the_chain_has_no_raw_read() {
    // Without the source file, `stamp_ns` resolves to nothing and the
    // relay is untainted: the deterministic call edge is clean.
    let a = audit(&[
        ("crates/obs/src/relay.rs", TAINT_RELAY),
        ("crates/sched/src/sink.rs", TAINT_SINK),
    ]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
}

#[test]
fn taint_flow_suppressed_by_a_reasoned_allow_at_the_call_edge() {
    let a = audit(&[
        ("crates/obs/src/source.rs", TAINT_SOURCE),
        ("crates/obs/src/relay.rs", TAINT_RELAY),
        (
            "crates/sched/src/sink.rs",
            include_str!("fixtures/taint_sink_allowed.rs"),
        ),
    ]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert_eq!(a.suppressed(), 1);
    assert!(a.suppressions.iter().all(|s| s.reason.is_some()));
}

// ------------------------------------------------------- manifest gate

#[test]
fn fixture_manifest_is_in_sync_with_the_directory() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let on_disk: BTreeSet<String> = fs::read_dir(&dir)
        .expect("fixtures dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    let listed: BTreeSet<String> = include_str!("fixtures/MANIFEST")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            l.split(" — ")
                .next()
                .expect("manifest line has `name — purpose` form")
                .trim()
                .to_string()
        })
        .collect();
    let untracked: Vec<_> = on_disk.difference(&listed).collect();
    let stale: Vec<_> = listed.difference(&on_disk).collect();
    assert!(
        untracked.is_empty() && stale.is_empty(),
        "fixture MANIFEST out of sync — untracked: {untracked:?}, stale: {stale:?}"
    );
}
