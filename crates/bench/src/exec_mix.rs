//! The `characterize serve` demo mix on the `fcexec` backends: its
//! programs, the 64-column device engine, its operands, prepare and one
//! pass — the set-up `ablation_exec` times and the exact counts it
//! reports, shared with the test that pins those counts.

use characterize::serve::DEMO_MIX;
use dram_core::{BankId, SubarrayId};
use fcdram::{BulkEngine, Fcdram, PackedBits};
use fcexec::{BenderBackend, ExecBackend, PreparedProgram, ScheduleLatency};
use fcsynth::{CostModel, SynthProgram};
use simdram::{DramSubstrate, SimdVm};
use std::sync::Arc;

/// Modeled row width of the simulated device backends (32 lanes).
const DEVICE_COLS: usize = 64;

/// The demo mix compiled at fan-in 16: each program with its operand
/// count.
pub fn programs() -> Vec<(Arc<SynthProgram>, usize)> {
    let cost = CostModel::table1_defaults();
    DEMO_MIX
        .iter()
        .map(|text| {
            let c = fcsynth::compile(text, &cost, 16).expect("demo mix compiles");
            (c.mapping.program, c.circuit.inputs().len())
        })
        .collect()
}

/// A fresh engine on chip 0 of the first Table-1 module, `DEVICE_COLS`
/// columns wide.
pub fn engine() -> BulkEngine {
    let cfg = dram_core::config::table1()
        .remove(0)
        .with_modeled_cols(DEVICE_COLS);
    BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0))
        .unwrap()
        .with_sim_config(dram_core::SimConfig::new())
}

/// Prepares every program of the mix once on `backend`.
pub fn prepare_mix<B: ExecBackend>(
    backend: &mut B,
    progs: &[(Arc<SynthProgram>, usize)],
) -> Vec<(PreparedProgram, usize)> {
    progs
        .iter()
        .map(|(prog, n)| (backend.prepare(prog).expect("mix prepares"), *n))
        .collect()
}

/// The operand sets of one pass of the mix at `lanes` lanes, one per
/// program.
pub fn mix_operands(progs: &[(Arc<SynthProgram>, usize)], lanes: usize) -> Vec<Vec<PackedBits>> {
    progs
        .iter()
        .enumerate()
        .map(|(i, (_, n))| {
            (0..*n)
                .map(|k| PackedBits::seeded(0xE0_0E ^ i as u64, k as u64, lanes))
                .collect()
        })
        .collect()
}

/// One pass of the mix through the prepared plans; returns a result
/// word so the work cannot be optimized away.
pub fn run_mix<B: ExecBackend>(
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

/// The six exact counts of one pass of the mix on fresh devices, each
/// under its `tools/bench_baseline.json` id: the in-DRAM operations
/// the VM device backend traces and the command-schedule backend
/// executes, the summed cycle-accurate schedule latency at 2666 MT/s,
/// and the Bender plans' gate templates, peak arena slots and fused
/// visits.
pub fn exact_counts() -> [(&'static str, f64); 6] {
    let progs = programs();
    let mut vm = SimdVm::new(DramSubstrate::new(engine())).unwrap();
    let ops = mix_operands(&progs, vm.lanes());
    let vm_preps = prepare_mix(&mut vm, &progs);
    vm.clear_trace();
    run_mix(&mut vm, &vm_preps, &ops);
    let vm_ops = vm.trace().in_dram_ops();

    let mut cmd = BenderBackend::new(engine()).unwrap();
    let cmd_preps = prepare_mix(&mut cmd, &progs);
    run_mix(&mut cmd, &cmd_preps, &ops);

    let model = ScheduleLatency::new(dram_core::SpeedBin::Mt2666);
    let schedule_ns: f64 = progs
        .iter()
        .flat_map(|(p, _)| p.steps.iter())
        .map(|s| model.step_ns(s))
        .sum();
    let sum = |f: fn(&PreparedProgram) -> usize| -> f64 {
        cmd_preps.iter().map(|(p, _)| f(p)).sum::<usize>() as f64
    };
    [
        ("exec_native_ops/vm", vm_ops as f64),
        ("exec_native_ops/bender", cmd.native_ops() as f64),
        ("exec_schedule_ns/mix", schedule_ns),
        ("exec_prepared_templates/mix", sum(|p| p.template_count())),
        ("exec_arena_slots/mix", sum(|p| p.arena_slots())),
        ("exec_fused_visits/mix", sum(|p| p.fused_visits().len())),
    ]
}
