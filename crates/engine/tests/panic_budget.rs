//! Panic budget (ROADMAP item 3): the engine's two central files may only
//! lose panic sites, never quietly gain them. Counts `.expect(`,
//! `.unwrap()`, `panic!(`, `unreachable!(` and `[&`-indexing in the
//! non-test part of each file against a constant.

const SITES: [&str; 5] = [".expect(", ".unwrap()", "panic!(", "unreachable!(", "[&"];

fn panic_sites(source: &str) -> usize {
    let code = source.split("\n#[cfg(test)]").next().unwrap_or(source);
    SITES.iter().map(|site| code.matches(site).count()).sum()
}

fn assert_within_budget(file: &str, source: &str, budget: usize) {
    let found = panic_sites(source);
    assert!(
        found <= budget,
        "{file} has {found} panic sites, budget {budget}: turn the new one into structure \
         (a record field, a let-else drop, a Result) instead. Never raise the constant \
         without the reason in the PR body; when you remove a site, lower it.",
    );
}

#[test]
fn core_stays_within_its_panic_budget() {
    assert_within_budget("core.rs", include_str!("../src/core.rs"), 9);
}

#[test]
fn cluster_stays_within_its_panic_budget() {
    assert_within_budget("cluster.rs", include_str!("../src/cluster.rs"), 7);
}
