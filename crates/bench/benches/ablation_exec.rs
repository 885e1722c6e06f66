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
//!   of cached per-`(op family, N)` Bender command-program templates
//!   across the mix, and the summed peak arena width (simultaneously
//!   live rows) of the row plans. Exact-gated: template-cache or
//!   lifetime-analysis drift in either direction is an API-shape
//!   change, not noise.
//! * `exec_fused_visits/mix` — **deterministic** fused-visit count of
//!   the mix's step plans (pure function of the programs; exact-gated
//!   so the visit segmentation observability counters derive from
//!   cannot drift silently).

use characterize::serve::DEMO_MIX;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dram_core::{BankId, SubarrayId};
use fcdram::{BulkEngine, Fcdram, PackedBits};
use fcexec::{BenderBackend, ExecBackend, PreparedProgram, ScheduleLatency};
use fcsynth::{CostModel, SynthProgram};
use simdram::{DramSubstrate, HostSubstrate, SimdVm};

/// Modeled row width of the simulated device backends (32 lanes).
const DEVICE_COLS: usize = 64;

fn programs() -> Vec<(SynthProgram, usize)> {
    let cost = CostModel::table1_defaults();
    DEMO_MIX
        .iter()
        .map(|text| {
            let c = fcsynth::compile(text, &cost, 16).expect("demo mix compiles");
            (c.mapping.program, c.circuit.inputs().len())
        })
        .collect()
}

fn operands(n: usize, lanes: usize, seed: u64) -> Vec<PackedBits> {
    (0..n)
        .map(|i| PackedBits::seeded(seed, i as u64, lanes))
        .collect()
}

fn engine() -> BulkEngine {
    let cfg = dram_core::config::table1()
        .remove(0)
        .with_modeled_cols(DEVICE_COLS);
    BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0))
        .unwrap()
        .with_sim_config(dram_core::SimConfig::fast())
}

/// Prepares every program of the mix once on `backend` — the
/// compile-once half of the two-phase API, hoisted out of the timed
/// loops.
fn prepare_mix<B: ExecBackend>(
    backend: &mut B,
    progs: &[(SynthProgram, usize)],
) -> Vec<(PreparedProgram, usize)> {
    progs
        .iter()
        .map(|(prog, n)| (backend.prepare(prog).expect("mix prepares"), *n))
        .collect()
}

/// The operand sets of one pass of the mix at `lanes` lanes, one per
/// program — built once, outside the timed loops.
fn mix_operands(progs: &[(SynthProgram, usize)], lanes: usize) -> Vec<Vec<PackedBits>> {
    progs
        .iter()
        .enumerate()
        .map(|(i, (_, n))| operands(*n, lanes, 0xE0_0E ^ i as u64))
        .collect()
}

/// One pass of the mix through the prepared plans; returns a result
/// word so the work cannot be optimized away.
fn run_mix<B: ExecBackend>(
    backend: &mut B,
    preps: &[(PreparedProgram, usize)],
    operands: &[Vec<PackedBits>],
) -> u64 {
    let mut acc = 0u64;
    for ((prep, _), ops) in preps.iter().zip(operands) {
        let out = backend
            .run_prepared(prep, ops, |_, _| {})
            .expect("mix executes");
        acc ^= out.words().first().copied().unwrap_or(0);
    }
    acc
}

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

    write_summary(&progs, &ops);
}

/// Writes the wall-clock measurements plus the deterministic
/// backend-parity entries to `BENCH_exec.json`.
fn write_summary(progs: &[(SynthProgram, usize)], ops: &[Vec<PackedBits>]) {
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

    // Deterministic parity counts: one pass of the mix on a fresh
    // device through each backend's prepared path (pinned
    // device-call-identical to the unprepared one by
    // `tests/exec_equivalence.rs`, so these counts also pin the
    // legacy wrappers).
    let mut vm = SimdVm::new(DramSubstrate::new(engine())).unwrap();
    let vm_preps = prepare_mix(&mut vm, progs);
    vm.clear_trace();
    let _ = run_mix(&mut vm, &vm_preps, ops);
    let vm_ops = vm.trace().in_dram_ops();

    let mut cmd = BenderBackend::new(engine()).unwrap();
    let cmd_preps = prepare_mix(&mut cmd, progs);
    let _ = run_mix(&mut cmd, &cmd_preps, ops);
    let cmd_ops = cmd.native_ops();
    println!("exec_native_ops: vm {vm_ops}, bender {cmd_ops}");
    assert_eq!(
        vm_ops, cmd_ops,
        "the two backends walked different operation sequences"
    );
    derived("exec_native_ops/vm".to_string(), vm_ops as f64, 1);
    derived("exec_native_ops/bender".to_string(), cmd_ops as f64, 1);

    // Deterministic cycle-accurate schedule latency of the mix.
    let model = ScheduleLatency::new(dram_core::SpeedBin::Mt2666, 16);
    let schedule_ns: f64 = progs
        .iter()
        .flat_map(|(p, _)| p.steps.iter())
        .map(|s| model.step_ns(s))
        .sum();
    println!("exec_schedule_ns/mix: {schedule_ns:.0} ns");
    derived("exec_schedule_ns/mix".to_string(), schedule_ns, 1);

    // Deterministic prepared-plan shape: cached command-program
    // templates and peak row-arena width across the mix.
    let templates: usize = cmd_preps.iter().map(|(p, _)| p.template_count()).sum();
    let arena: usize = cmd_preps.iter().map(|(p, _)| p.arena_slots()).sum();
    println!("exec_prepared_templates/mix: {templates}, exec_arena_slots/mix: {arena}");
    derived(
        "exec_prepared_templates/mix".to_string(),
        templates as f64,
        1,
    );
    derived("exec_arena_slots/mix".to_string(), arena as f64, 1);

    // Deterministic fused-visit count of the mix's step plans: a pure
    // function of the programs (independent of backend), so
    // observability counters derived from it — the daemon's
    // `fc_engine_visits_total`, the per-visit trace spans — are pinned
    // here in both directions.
    let visits: usize = cmd_preps.iter().map(|(p, _)| p.fused_visits().len()).sum();
    println!("exec_fused_visits/mix: {visits}");
    derived("exec_fused_visits/mix".to_string(), visits as f64, 1);

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
