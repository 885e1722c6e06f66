//! Ablation: fleet characterization sweep throughput.
//!
//! Sweeps seeded Table-1 fleets of 4 / 16 / 64 chips through the
//! minimal characterization grid, serial (1 shard) and sharded over
//! the available CPUs, and writes a `BENCH_fleet.json` summary at the
//! repository root in the same shape as `BENCH_engine.json`.
//!
//! Derived `fleet_sweep_speedup/<N>chips` entries record the
//! dimensionless serial/sharded mean-time ratio in `mean_ns` and
//! `median_ns`, and the worker-thread count in `iterations`. The
//! per-chip work is embarrassingly parallel, so on a multi-core host
//! the 16-chip speedup tracks the CPU count (≥2x from 2 cores up); on
//! a single-core host the sharded sweep still runs ≥2 worker threads
//! but can only timeslice, so the ratio honestly degrades to ≈1.0.
//! The `fleet_threads/available` entry records the host's
//! `available_parallelism` (in `mean_ns`, `median_ns` and
//! `iterations`), so a speedup can be read against the CPUs it ran on.

use characterize::sweep::{run_fleet_sweep, SweepConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dram_core::FleetConfig;

/// Chip counts swept by the ablation.
const CHIP_COUNTS: [usize; 3] = [4, 16, 64];

/// CPUs the host makes available to this process.
fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads for the sharded configuration: one per CPU, floored
/// at 2 so the threaded path is exercised even on one core.
fn worker_threads() -> usize {
    available_threads().clamp(2, 16)
}

/// One full fleet sweep; returns the measured cell count so the work
/// cannot be optimized away.
fn sweep(chips: usize, shards: usize) -> u64 {
    let fleet = FleetConfig::table1(chips);
    let cfg = SweepConfig::bench().with_shards(shards);
    let report = run_fleet_sweep(&fleet, &cfg);
    assert_eq!(report.chips.len(), chips);
    report
        .chips
        .iter()
        .map(|c| c.not.count() + c.logic.count())
        .sum()
}

fn bench(c: &mut Criterion) {
    let threads = worker_threads();
    for chips in CHIP_COUNTS {
        c.bench_function(format!("fleet_sweep_serial/{chips}chips"), |b| {
            b.iter(|| black_box(sweep(chips, 1)));
        });
        c.bench_function(format!("fleet_sweep_sharded/{chips}chips"), |b| {
            b.iter(|| black_box(sweep(chips, threads)));
        });
    }
    write_summary(threads);
}

/// Writes the fleet measurements plus derived speedup entries to
/// `BENCH_fleet.json`.
fn write_summary(threads: usize) {
    let results = criterion::results();
    let mean_of =
        |id: &str| -> Option<f64> { results.iter().find(|r| r.id == id).map(|r| r.mean_ns) };
    let mut entries: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            serde_json::Value::Object(vec![
                ("id".to_string(), serde_json::Value::Str(r.id.clone())),
                ("mean_ns".to_string(), serde_json::Value::Float(r.mean_ns)),
                (
                    "median_ns".to_string(),
                    serde_json::Value::Float(r.median_ns),
                ),
                (
                    "iterations".to_string(),
                    serde_json::Value::UInt(r.iterations),
                ),
            ])
        })
        .collect();
    // A derived entry: one value in `mean_ns` and `median_ns`, with a
    // count in `iterations`.
    let derived = |id: String, value: f64, count: usize| {
        serde_json::Value::Object(vec![
            ("id".to_string(), serde_json::Value::Str(id)),
            ("mean_ns".to_string(), serde_json::Value::Float(value)),
            ("median_ns".to_string(), serde_json::Value::Float(value)),
            (
                "iterations".to_string(),
                serde_json::Value::UInt(count as u64),
            ),
        ])
    };
    for chips in CHIP_COUNTS {
        let serial = mean_of(&format!("fleet_sweep_serial/{chips}chips"));
        let sharded = mean_of(&format!("fleet_sweep_sharded/{chips}chips"));
        if let (Some(s), Some(p)) = (serial, sharded) {
            let speedup = s / p;
            println!(
                "fleet sweep speedup at {chips} chips: {speedup:.2}x over {threads} thread(s)"
            );
            entries.push(derived(
                format!("fleet_sweep_speedup/{chips}chips"),
                speedup,
                threads,
            ));
        }
    }
    let available = available_threads();
    println!("available parallelism: {available}");
    entries.push(derived(
        "fleet_threads/available".to_string(),
        available as f64,
        available,
    ));
    let json = serde_json::to_string_pretty(&entries).expect("summary serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(path, json).expect("summary written");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = fcdram_bench::config();
    targets = bench
}
criterion_main!(benches);
