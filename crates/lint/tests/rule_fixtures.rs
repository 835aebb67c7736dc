//! Fixture-based rule tests: every rule has a positive fixture it must fire
//! on and a negative fixture it must stay silent on, plus suppression, tier,
//! and lexer-inertness checks.
//!
//! Fixtures live under `tests/fixtures/` — a directory `audit_workspace`
//! deliberately skips, so the positive fixtures never trip the real audit.

use tart_lint::{audit_sources, Audit, RuleId};

/// Audits fixture text as if it were a deterministic-tier production file.
fn audit_det(src: &str) -> Audit {
    audit_at("crates/sched/src/fixture.rs", src)
}

fn audit_at(rel_path: &str, src: &str) -> Audit {
    audit_sources(&[(rel_path.to_string(), src.to_string())])
}

fn fired_rules(a: &Audit) -> Vec<RuleId> {
    a.findings.iter().map(|f| f.rule).collect()
}

/// The positive fixture fires exactly `rule` (possibly multiple times), and
/// the negative fixture is completely clean.
fn assert_pos_neg(rule: RuleId, pos: &str, neg: &str) {
    let p = audit_det(pos);
    assert!(
        !p.findings.is_empty(),
        "{} positive fixture produced no findings",
        rule.as_str()
    );
    assert!(
        fired_rules(&p).iter().all(|r| *r == rule),
        "{} positive fixture fired other rules: {:?}",
        rule.as_str(),
        p.findings
    );
    let n = audit_det(neg);
    assert!(
        n.findings.is_empty(),
        "{} negative fixture fired: {:?}",
        rule.as_str(),
        n.findings
    );
}

#[test]
fn wallclock_pos_and_neg() {
    assert_pos_neg(
        RuleId::Wallclock,
        include_str!("fixtures/wallclock_pos.rs"),
        include_str!("fixtures/wallclock_neg.rs"),
    );
}

#[test]
fn ambient_rand_pos_and_neg() {
    assert_pos_neg(
        RuleId::AmbientRand,
        include_str!("fixtures/ambient_rand_pos.rs"),
        include_str!("fixtures/ambient_rand_neg.rs"),
    );
}

#[test]
fn hash_iter_pos_and_neg() {
    assert_pos_neg(
        RuleId::HashIter,
        include_str!("fixtures/hash_iter_pos.rs"),
        include_str!("fixtures/hash_iter_neg.rs"),
    );
}

#[test]
fn ambient_env_pos_and_neg() {
    assert_pos_neg(
        RuleId::AmbientEnv,
        include_str!("fixtures/ambient_env_pos.rs"),
        include_str!("fixtures/ambient_env_neg.rs"),
    );
}

#[test]
fn documented_allows_suppress_and_are_counted() {
    let a = audit_det(include_str!("fixtures/allow_suppression.rs"));
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    // Both forms (preceding-line and trailing) matched exactly one hit each.
    assert_eq!(a.suppressed(), 2);
    assert_eq!(a.suppressions.len(), 2);
    assert!(a.suppressions.iter().all(|s| s.reason.is_some()));
    assert!(a.suppressions.iter().all(|s| s.hits == 1));
}

#[test]
fn hazards_in_strings_and_comments_are_inert() {
    let a = audit_det(include_str!("fixtures/strings_and_comments.rs"));
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert!(a.suppressions.is_empty());
}

#[test]
fn ops_tier_permits_hash_iter_and_wallclock_but_not_rand() {
    // chaos.rs is declared Ops in the manifest. Since the taint pass
    // guards the deterministic→ops boundary path-sensitively, raw
    // wall-clock reads inside the ops plane no longer need per-line
    // allows — but ambient randomness stays fenced everywhere (a seeded
    // DetRng is available on both planes).
    let hash = audit_at(
        "crates/engine/src/chaos.rs",
        include_str!("fixtures/hash_iter_pos.rs"),
    );
    assert!(hash.findings.is_empty(), "{:?}", hash.findings);

    let clock = audit_at(
        "crates/engine/src/chaos.rs",
        include_str!("fixtures/wallclock_pos.rs"),
    );
    assert!(clock.findings.is_empty(), "{:?}", clock.findings);

    let rand = audit_at(
        "crates/engine/src/chaos.rs",
        include_str!("fixtures/ambient_rand_pos.rs"),
    );
    assert!(!rand.findings.is_empty(), "{:?}", rand.findings);
}

#[test]
fn verified_replay_paths_audit_at_full_severity() {
    // The hashing and bisection modules back the divergence detector; a
    // wall-clock read there would make replay disagree with itself. Their
    // explicit manifest entries must keep them fenced.
    for path in [
        "crates/model/src/hash.rs",
        "crates/engine/src/checkpoint.rs",
        "crates/engine/src/verify.rs",
    ] {
        let a = audit_at(path, include_str!("fixtures/wallclock_pos.rs"));
        assert_eq!(a.findings.len(), 1, "{path}: {:?}", a.findings);
        let h = audit_at(path, include_str!("fixtures/hash_iter_pos.rs"));
        assert!(
            !h.findings.is_empty(),
            "{path}: hash-iteration hazards must fire in the fenced tier"
        );
    }
}

#[test]
fn exempt_tier_is_not_scanned() {
    let a = audit_at(
        "crates/bench/src/lib.rs",
        include_str!("fixtures/wallclock_pos.rs"),
    );
    assert!(a.findings.is_empty(), "{:?}", a.findings);
}
