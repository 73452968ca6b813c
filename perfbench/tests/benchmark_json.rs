//! The metrics the benchmark prints are the ones `BENCHMARK.json` at the
//! repository root declares, with the same units.

use perfbench::measure::{bench, Metric};
use perfbench::workload::Micro;

fn declared() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn assert_declared(metrics: &[Metric], section: &str) {
    let json = declared();
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let end = json[start..].find(']').map_or(json.len(), |e| start + e);
    let listed = &json[start..end];
    for m in metrics {
        let entry = format!("\"name\": \"{}\",\n      \"unit\": \"{}\"", m.name, m.unit);
        assert!(
            listed.contains(&entry),
            "{} [{}] is not declared in {section}",
            m.name,
            m.unit
        );
    }
    assert_eq!(
        listed.matches("\"name\"").count(),
        metrics.len(),
        "{section} declares metrics the benchmark does not print"
    );
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    let s = Micro::new("micro-mp-lock", 1).expect("known workload");
    assert_declared(&bench(&s, 1, false).metrics, "end_to_end");
    assert_declared(&bench(&s, 2, true).metrics, "per_layer");
}
