//! Deterministic counts and simulated statistics repeat exactly for a
//! seed and move with it; the metric tables match `BENCHMARK.json`.
//!
//! Run in release mode (the sweep workload is slow unoptimized):
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{run, Opts, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// One traced run of the shortest length: a single input cycle.
fn once(workload: &str, seed: u64) -> Outcome {
    let out = run(&Opts {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace: true,
    });
    assert!(out.correct, "{workload} seed {seed}: {:?}", out.notes);
    assert_eq!(out.failed, 0);
    out
}

#[test]
fn counts_repeat_for_a_seed_and_move_with_it() {
    for workload in WORKLOADS {
        let a = once(workload, 1);
        let b = once(workload, 1);
        let c = once(workload, 2);
        assert_eq!(a.exact(), b.exact(), "{workload}: same seed, same counts");
        assert_eq!(a.inputs_digest, b.inputs_digest, "{workload}: same inputs");
        assert_ne!(
            a.inputs_digest, c.inputs_digest,
            "{workload}: the seed moves the inputs"
        );
        assert_ne!(
            a.exact(),
            c.exact(),
            "{workload}: the seed moves the counts"
        );
        assert!(
            a.exact().values().any(|v| *v != 0.0),
            "{workload}: reports some count"
        );
    }
}

#[test]
fn every_run_reports_every_metric_of_its_kind() {
    let out = once("daemon_mix", 3);
    let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(names, per_layer);
    let last = out.json();
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(out.notes.iter().any(|l| l.starts_with("fail_frac = ")));
    for def in &END_TO_END {
        assert!(
            out.notes
                .iter()
                .any(|l| l.starts_with(&format!("{} = ", def.name))),
            "{} printed",
            def.name
        );
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            def.name, def.unit, def.better
        );
        assert!(text.contains(&entry), "BENCHMARK.json lists {entry}");
    }
    for workload in WORKLOADS {
        assert!(text.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
    }
    let listed = text.matches("\"name\": ").count();
    assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}
