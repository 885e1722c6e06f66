//! Ablation: job-scheduler throughput across fleet sizes.
//!
//! Serves a 48-job heterogeneous batch (the `characterize serve` demo
//! mix) on fleets of 1 / 4 / 16 chips, serial (1 shard) and sharded
//! over the available CPUs, and writes a `BENCH_sched.json` summary at
//! the repository root in the same shape as `BENCH_engine.json`.
//!
//! Derived entries:
//!
//! * `sched_jobs_per_sec/<N>chips` — batch size over the sharded mean
//!   wall time (dimensionless throughput in `mean_ns`);
//! * `sched_speedup/<N>chips` — serial/sharded mean-time ratio, with
//!   the worker-thread count in `iterations`. Per-job work is
//!   embarrassingly parallel, so on a multi-core host the ratio tracks
//!   the CPU count; on a single-core host the sharded run can only
//!   timeslice and the ratio honestly degrades to ≈1.0;
//! * `sched_jobs/mix` and `sched_native_ops/mix` — **deterministic**
//!   scheduled-batch shape (jobs in `mean_ns`, with native ops
//!   executed for the ops entry). `tools/bench_check.rs` gates on
//!   these, so a planner or admission regression that changes what
//!   gets scheduled fails CI even though wall time varies by machine;
//! * `sched_fused_jobs/mix` — **deterministic** count of jobs in
//!   fusion groups (size ≥ 2) of the 4-chip plan — same chip, mapped
//!   program, and lane count, adjacency-independent (exact-gated: the
//!   cross-job fusion shape the executor and the daemon's
//!   `fc_fused_jobs_total` counter derive from).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dram_core::FleetConfig;
use fcdram_bench::sched_mix::{demo_batch, exact_counts, JOBS};
use fcsched::{serve_batch, Batch, SchedPolicy};
use fcsynth::CostModel;

/// Fleet sizes swept by the ablation.
const CHIP_COUNTS: [usize; 3] = [1, 4, 16];

/// Worker threads for the sharded configuration: one per CPU, floored
/// at 2 so the threaded path is exercised even on one core.
fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(2, 16)
}

/// One full schedule+execute pass; returns the retry count so the
/// work cannot be optimized away.
fn serve(batch: &Batch, cost: &CostModel, chips: usize, shards: usize) -> u64 {
    let fleet = FleetConfig::table1(chips);
    let policy = SchedPolicy::default().with_shards(shards);
    let report = serve_batch(&fleet, cost, &policy, batch).expect("batch schedules");
    assert_eq!(report.jobs(), JOBS);
    report.total_retries()
}

fn bench(c: &mut Criterion) {
    let cost = CostModel::table1_defaults();
    let batch = demo_batch(&cost);
    let threads = worker_threads();
    for chips in CHIP_COUNTS {
        c.bench_function(format!("sched_batch_serial/{chips}chips"), |b| {
            b.iter(|| black_box(serve(&batch, &cost, chips, 1)));
        });
        c.bench_function(format!("sched_batch_sharded/{chips}chips"), |b| {
            b.iter(|| black_box(serve(&batch, &cost, chips, threads)));
        });
    }
    write_summary(threads);
}

/// Writes the wall-clock measurements plus derived throughput and
/// deterministic batch-shape entries to `BENCH_sched.json`.
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
    let mut derived = |id: String, value: f64, iterations: u64| {
        entries.push(serde_json::Value::Object(vec![
            ("id".to_string(), serde_json::Value::Str(id)),
            ("mean_ns".to_string(), serde_json::Value::Float(value)),
            ("median_ns".to_string(), serde_json::Value::Float(value)),
            (
                "iterations".to_string(),
                serde_json::Value::UInt(iterations),
            ),
        ]));
    };
    for chips in CHIP_COUNTS {
        let serial = mean_of(&format!("sched_batch_serial/{chips}chips"));
        let sharded = mean_of(&format!("sched_batch_sharded/{chips}chips"));
        if let (Some(s), Some(p)) = (serial, sharded) {
            let speedup = s / p;
            let jobs_per_sec = JOBS as f64 / (p / 1e9);
            println!(
                "sched at {chips} chips: {jobs_per_sec:.0} jobs/s sharded, \
                 {speedup:.2}x over {threads} thread(s)"
            );
            derived(
                format!("sched_jobs_per_sec/{chips}chips"),
                jobs_per_sec,
                threads as u64,
            );
            derived(
                format!("sched_speedup/{chips}chips"),
                speedup,
                threads as u64,
            );
        }
    }
    // Deterministic batch shape under the default policy on the
    // 4-chip fleet: what got scheduled and how many jobs sit in fusion
    // groups, independent of wall clock. The fusion count is
    // independent of the shard count and the backend, so the daemon's
    // `fc_fused_jobs_total` counter is pinned here too.
    for (id, value, iterations) in exact_counts() {
        println!("{id}: {value} ({iterations})");
        derived(id.to_string(), value, iterations);
    }
    let json = serde_json::to_string_pretty(&entries).expect("summary serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
    std::fs::write(path, json).expect("summary written");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = fcdram_bench::config();
    targets = bench
}
criterion_main!(benches);
