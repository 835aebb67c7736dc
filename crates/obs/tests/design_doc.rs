//! DESIGN.md §14's "What is measured" table and `ObsSnapshot` name the
//! same metrics: every backticked name in the table's first column is a
//! report field, and every counter and histogram in the report has a row.

use std::path::Path;

use tart_obs::json;
use tart_obs::ObsSnapshot;

#[test]
fn design_metric_table_matches_the_snapshot() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let doc = std::fs::read_to_string(path).expect("DESIGN.md");
    let (_, section) = doc
        .split_once("### What is measured")
        .expect("§14 has its metric table");
    let names: Vec<&str> = section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // header and separator
        .flat_map(|row| {
            let first = row.trim_start_matches('|').split('|').next();
            first.unwrap_or_default().split('`').skip(1).step_by(2)
        })
        .collect();

    let report = json::parse(&ObsSnapshot::default().to_json()).expect("report parses");
    let fields = report.as_obj().expect("report is an object");
    for name in &names {
        assert!(
            fields.iter().any(|(key, _)| key == name),
            "§14 names `{name}`, which the report lacks"
        );
    }
    let mut metrics = 0;
    for (key, value) in fields {
        let counter = value.as_u64().is_some() && key != "version";
        if counter || value.get("buckets").is_some() {
            assert!(
                names.contains(&key.as_str()),
                "the report's `{key}` has no row in §14's table"
            );
            metrics += 1;
        }
    }
    assert!(
        metrics >= 25,
        "{metrics} metrics: did the report change shape?"
    );
}
