//! Ablation: the unified execution-backend layer.
//!
//! Executes the `characterize serve` demo mix through the one
//! `fcexec` engine on its three shipping configurations — the host
//! golden model (`SimdVm<HostSubstrate>`), the characterized device
//! model (`SimdVm<DramSubstrate>`), and the command-schedule
//! `BenderBackend` — and writes a `BENCH_exec.json` summary at the
//! repository root in the same shape as `BENCH_engine.json`.
//!
//! The timed loops use the two-phase API the way a serving deployment
//! does: every program is [`ExecBackend::prepare`]d once and its
//! operands are built once, outside the measurement loop, and the loop
//! times [`ExecBackend::run_prepared`] alone — the per-execution cost a
//! scheduler pays after compiling a job once. All three backends run
//! at the same lane count (the device row's 32 shared-column lanes),
//! so `tools/bench_check.rs` can gate the device backends as *ratios*
//! against the word-wide host golden model's `exec_host/mix` from the
//! same run (wall-clock-free, so a slow CI container cannot fail
//! them).
//!
//! Derived entries:
//!
//! * `exec_native_ops/vm` and `exec_native_ops/bender` —
//!   **deterministic** in-DRAM operation counts of one pass of the mix
//!   on the VM device backend (trace) and the command-schedule backend
//!   (executed schedules). `tools/bench_check.rs` exact-gates both
//!   against the committed baseline, so the two backends walking a
//!   different operation sequence — in either direction — fails CI:
//!   the bit-identity proof in `tests/exec_equivalence.rs` rests on
//!   that sequence being the same.
//! * `exec_schedule_ns/mix` — **deterministic** summed cycle-accurate
//!   command-schedule latency of the mix's programs (pure function of
//!   the programs and the speed bin; exact-gated too, pinning the
//!   latency model the scheduler's bender mode charges).
//! * `exec_prepared_templates/mix` and `exec_arena_slots/mix` —
//!   **deterministic** shape of the prepared plans: the total number
//!   of distinct per-`(op family, N:N entry)` gate command programs
//!   (plus one per plan with a NOT) the Bender plans ship across the
//!   mix, and the summed peak arena width (simultaneously live rows)
//!   of the row plans. Exact-gated: gate-program or lifetime-analysis
//!   drift in either direction is an API-shape change, not noise.
//! * `exec_fused_visits/mix` — **deterministic** fused-visit count of
//!   the mix's step plans (pure function of the programs; exact-gated
//!   so the visit segmentation observability counters derive from
//!   cannot drift silently).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fcdram_bench::exec_mix::{engine, exact_counts, mix_operands, prepare_mix, programs, run_mix};
use fcexec::{BenderBackend, ExecBackend};
use simdram::{DramSubstrate, HostSubstrate, SimdVm};

fn bench(c: &mut Criterion) {
    let progs = programs();

    let mut vm_dram = SimdVm::new(DramSubstrate::new(engine())).unwrap();
    let mut bender = BenderBackend::new(engine()).unwrap();
    let lanes = vm_dram.lanes();
    assert_eq!(lanes, bender.lanes(), "device backends share a lane count");
    let mut host = SimdVm::new(HostSubstrate::new(lanes, 512)).unwrap();
    let ops = mix_operands(&progs, lanes);

    let host_preps = prepare_mix(&mut host, &progs);
    c.bench_function("exec_host/mix", |b| {
        b.iter(|| black_box(run_mix(&mut host, &host_preps, &ops)));
    });

    let vm_preps = prepare_mix(&mut vm_dram, &progs);
    c.bench_function("exec_vm_dram/mix", |b| {
        b.iter(|| black_box(run_mix(&mut vm_dram, &vm_preps, &ops)));
    });

    let bender_preps = prepare_mix(&mut bender, &progs);
    c.bench_function("exec_bender/mix", |b| {
        b.iter(|| black_box(run_mix(&mut bender, &bender_preps, &ops)));
    });

    write_summary();
}

/// Writes the wall-clock measurements plus the deterministic
/// backend-parity entries to `BENCH_exec.json`.
fn write_summary() {
    let results = criterion::results();
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

    // Deterministic counts of one pass of the mix on fresh devices
    // (the VM walk is pinned against an independent reference walk by
    // `tests/exec_equivalence.rs`, and these counts against the
    // baseline by `crates/bench/tests/exec_counts.rs`).
    let counts = exact_counts();
    let (vm_ops, cmd_ops) = (counts[0].1, counts[1].1);
    assert_eq!(
        vm_ops, cmd_ops,
        "the two backends walked different operation sequences"
    );
    for (id, value) in counts {
        println!("{id}: {value}");
        derived(id.to_string(), value, 1);
    }

    let json = serde_json::to_string_pretty(&entries).expect("summary serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
    std::fs::write(path, json).expect("summary written");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = fcdram_bench::config();
    targets = bench
}
criterion_main!(benches);
