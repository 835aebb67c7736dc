//! README's rule table and DESIGN.md §12's hazard taxonomy name exactly the
//! rules `tart-lint` implements: every backticked name in a table's first
//! column parses as a `RuleId`, and every `RuleId` has a row in both.

use std::collections::BTreeSet;
use std::path::Path;

use tart_lint::RuleId;

/// Backticked names in the first column of the first table after `heading`.
fn first_column_names(doc: &str, heading: &str) -> BTreeSet<String> {
    let (_, section) = doc
        .split_once(heading)
        .unwrap_or_else(|| panic!("missing heading {heading:?}"));
    section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // header and separator
        .flat_map(|row| {
            let first = row.trim_start_matches('|').split('|').next();
            first.unwrap_or_default().split('`').skip(1).step_by(2)
        })
        .map(str::to_string)
        .collect()
}

fn assert_names_every_rule(doc_name: &str, heading: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(doc_name);
    let doc = std::fs::read_to_string(path).expect(doc_name);
    let named = first_column_names(&doc, heading);
    for name in &named {
        assert!(
            RuleId::parse(name).is_some(),
            "{doc_name} names `{name}`, which is not a rule"
        );
    }
    let rules: BTreeSet<String> = RuleId::ALL.iter().map(|r| r.as_str().into()).collect();
    let missing: Vec<_> = rules.difference(&named).collect();
    assert!(missing.is_empty(), "{doc_name} has no row for {missing:?}");
}

#[test]
fn readme_rule_table_names_every_rule() {
    assert_names_every_rule("README.md", "### Static analysis: the determinism fence");
}

#[test]
fn design_hazard_taxonomy_names_every_rule() {
    assert_names_every_rule("DESIGN.md", "### Hazard taxonomy");
}
