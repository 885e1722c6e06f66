//! The exact counts `ablation_sched` reports for the demo batch,
//! computed from the code and compared with their committed baseline
//! entries in `tools/bench_baseline.json`.

use serde_json::Value;

/// The baseline `mean_ns` of entry `id`.
fn baseline(doc: &Value, id: &str) -> f64 {
    let entries = doc.as_array().expect("the baseline is an array");
    let entry = entries
        .iter()
        .filter_map(Value::as_object)
        .find(|e| e.iter().any(|(k, v)| k == "id" && v.as_str() == Some(id)))
        .unwrap_or_else(|| panic!("no baseline entry {id}"));
    let (_, mean) = entry
        .iter()
        .find(|(k, _)| k == "mean_ns")
        .expect("the entry has a mean_ns");
    mean.as_f64().expect("mean_ns is a number")
}

#[test]
fn sched_mix_counts_match_the_baseline() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tools/bench_baseline.json"
    );
    let text = std::fs::read_to_string(path).expect("the baseline reads");
    let doc: Value = serde_json::from_str(&text).expect("the baseline parses");
    for (id, got, _) in fcdram_bench::sched_mix::exact_counts() {
        assert_eq!(got, baseline(&doc, id), "{id}");
    }
}
