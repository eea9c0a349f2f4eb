//! `docs/PERF.md`'s baseline table is a hand-kept copy of
//! `docs/BENCH_BASELINE.json` (the file the CI gate diffs against). This
//! test fails when the two drift apart, in a row name or in a value.

use std::collections::BTreeMap;
use std::path::Path;

use prov_bench::recorder::parse_json;

fn read_doc(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../docs")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `| workload | ns/iter |` rows under PERF.md's `## Baseline`
/// heading, figures with their thousands separators removed.
fn baseline_table(perf_md: &str) -> Vec<(String, u128)> {
    let section = perf_md
        .split("\n## ")
        .find(|s| s.starts_with("Baseline"))
        .expect("PERF.md has a `## Baseline` section");
    section
        .lines()
        .skip_while(|l| !l.starts_with("| workload |"))
        .skip(2) // header and alignment rows
        .take_while(|l| l.starts_with('|'))
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            let [name, value] = cells[..] else {
                panic!("baseline row is not `| name | value |`: {line}");
            };
            let value = value
                .replace(',', "")
                .parse()
                .unwrap_or_else(|_| panic!("non-integer figure in: {line}"));
            (name.to_owned(), value)
        })
        .collect()
}

#[test]
fn perf_table_matches_baseline_json() {
    let json = parse_json(&read_doc("BENCH_BASELINE.json")).expect("baseline JSON parses");
    let rows = baseline_table(&read_doc("PERF.md"));
    let table: BTreeMap<String, u128> = rows.iter().cloned().collect();
    assert_eq!(table.len(), rows.len(), "PERF.md repeats a baseline row");
    for (name, value) in &table {
        assert_eq!(
            json.get(name),
            Some(value),
            "PERF.md row {name} disagrees with docs/BENCH_BASELINE.json"
        );
    }
    for name in json.keys() {
        assert!(
            table.contains_key(name),
            "PERF.md lacks baseline row {name}"
        );
    }
}
