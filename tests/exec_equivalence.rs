//! Execution-backend equivalence: one engine, interchangeable
//! backends.
//!
//! * Arbitrary synthesized programs produce **bit-identical** results
//!   on the Substrate/VM backend (`SimdVm<DramSubstrate>`) and the
//!   bender command-level backend (`fcexec::BenderBackend`), in both
//!   the fast and the full simulation fidelity — the tentpole claim of
//!   the unified execution layer. The two backends drive the same
//!   module configuration through different interfaces (bulk-engine
//!   calls vs combined cycle-timed DDR4 command programs), so their
//!   agreement pins that the command schedules reproduce the exact
//!   device-call sequence.
//! * The engine on the host golden model matches the reference
//!   evaluator for random expressions, in both I/O modes, and the
//!   observer sees every step in order on every backend.
//! * Leased runs agree across backends: operand sets bulk-staged with
//!   one `ExecBackend::stage_many` call (a combined `Wr`-burst program
//!   on bender) and run back to back with `run_prepared_leased` give
//!   bit-identical results on both device backends in both
//!   fidelities, and the reference evaluator's bits on the host model.
//! * Lease safety: `SimdVm::lease_rows`/`end_lease` driven through
//!   `ExecBackend::stage` and `dram_core::FleetSlots` stay
//!   all-or-nothing and reusable under randomized interleavings.

mod common;

use common::{random_expr, random_operands};
use dram_core::{BankId, SimFidelity, SubarrayId};
use fcdram::{BulkEngine, Fcdram, PackedBits};
use fcexec::{execute_packed, execute_packed_with, execute_with, BenderBackend, ExecBackend};
use fcsynth::CostModel;
use proptest::prelude::*;
use simdram::{DramSubstrate, HostSubstrate, SimdVm};

/// A fresh bulk engine over chip 0 of the first Table-1 part (64
/// modeled columns keep the device model fast) at the given fidelity.
fn engine(fidelity: SimFidelity) -> BulkEngine {
    let cfg = dram_core::config::table1().remove(0).with_modeled_cols(64);
    BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0))
        .unwrap()
        .with_sim_config(dram_core::SimConfig::new().with_fidelity(fidelity))
}

// ---------------------------------------------------------------------
// vm backend vs bender command-level backend, fast and full fidelity
// ---------------------------------------------------------------------

/// The tentpole pin: for a spread of synthesized programs (wide gates,
/// inverted terminals, XOR trees, passthroughs, constants, narrowed
/// re-mappings), all four executions — {vm, bender} × {fast, full} —
/// produce the same bits.
#[test]
fn backends_bit_identical_in_both_fidelities() {
    let cost = CostModel::table1_defaults();
    let mut cases: Vec<String> = [
        "a & b",
        "!(a | b | c)",
        "(a ^ b) & (c | d)",
        "a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p",
        "!a",
        "a",
        "a & !a",
        "a | 1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for case in 0..4u64 {
        cases.push(random_expr(1 + (case as usize * 3) % 8, 0xE0_0E + case, 8));
    }
    for (ci, text) in cases.iter().enumerate() {
        let compiled = fcsynth::compile(text, &cost, 16).unwrap();
        let k = compiled.circuit.inputs().len();
        let programs = [
            compiled.mapping.program.clone(),
            std::sync::Arc::new(compiled.mapping.program.narrowed(2)),
        ];
        for (pi, prog) in programs.iter().enumerate() {
            let mut results: Vec<(String, PackedBits)> = Vec::new();
            for fidelity in [SimFidelity::fast(), SimFidelity::full()] {
                let mut vm = SimdVm::new(DramSubstrate::new(engine(fidelity))).unwrap();
                let lanes = ExecBackend::lanes(&vm);
                let ops = random_operands(k, lanes, 0xC0FFEE ^ (ci as u64) << 8 ^ pi as u64);
                let via_vm = execute_packed(&mut vm, prog, &ops).unwrap();
                results.push((format!("vm/{:?}", fidelity.telemetry), via_vm));

                let mut cmd = BenderBackend::new(engine(fidelity)).unwrap();
                assert_eq!(cmd.lanes(), lanes);
                let via_cmd = execute_packed(&mut cmd, prog, &ops).unwrap();
                results.push((format!("bender/{:?}", fidelity.telemetry), via_cmd));
            }
            let (ref first_name, ref first) = results[0];
            for (name, bits) in &results[1..] {
                assert_eq!(
                    bits, first,
                    "{text} (variant {pi}): {name} diverged from {first_name}"
                );
            }
        }
    }
}

/// The observer reports the same step sequence on both backends.
#[test]
fn observer_is_backend_independent() {
    let cost = CostModel::table1_defaults();
    let text = "(a & b & c & d) ^ !(e | f | g)";
    let compiled = fcsynth::compile(text, &cost, 16).unwrap();
    let prog = &compiled.mapping.program;
    let ops = |lanes: usize| random_operands(compiled.circuit.inputs().len(), lanes, 0xAB);

    let mut vm = SimdVm::new(DramSubstrate::new(engine(SimFidelity::fast()))).unwrap();
    let lanes = ExecBackend::lanes(&vm);
    let mut vm_steps = Vec::new();
    execute_packed_with(&mut vm, prog, &ops(lanes), |i, s| {
        vm_steps.push((i, s.op, s.args.len()));
    })
    .unwrap();

    let mut cmd = BenderBackend::new(engine(SimFidelity::fast())).unwrap();
    let mut cmd_steps = Vec::new();
    execute_packed_with(&mut cmd, prog, &ops(lanes), |i, s| {
        cmd_steps.push((i, s.op, s.args.len()));
    })
    .unwrap();

    assert_eq!(vm_steps, cmd_steps, "observers saw different walks");
    assert_eq!(vm_steps.len(), prog.steps.len());
    for (k, (i, _, _)) in vm_steps.iter().enumerate() {
        assert_eq!(*i, k, "steps observed in order");
    }
}

// ---------------------------------------------------------------------
// host golden model: engine vs reference evaluator, both I/O modes
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random expressions execute bit-exactly on the host backend
    /// through the unified engine, and the row-mode entry point
    /// agrees with the packed mode.
    #[test]
    fn engine_matches_reference_on_host(
        n in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let text = random_expr(n, seed, 12);
        let cost = CostModel::table1_defaults();
        let compiled = fcsynth::compile(&text, &cost, 16)
            .map_err(|e| format!("{text}: {e}"))?;
        let k = compiled.circuit.inputs().len();
        let lanes = 67; // off word boundary to exercise tail masking
        let operands = random_operands(k, lanes, seed ^ 1);
        let expect = if k == 0 {
            PackedBits::splat(compiled.expr.eval(&[]), lanes)
        } else {
            compiled.circuit.eval_packed(&operands)
        };
        let prog = &compiled.mapping.program;

        let mut vm = SimdVm::new(HostSubstrate::new(lanes, 512)).map_err(|e| e.to_string())?;
        let packed = execute_packed(&mut vm, prog, &operands)
            .map_err(|e| format!("{text}: {e}"))?;
        prop_assert_eq!(&packed, &expect, "{}: packed mode diverged", text);

        // Row mode: stage manually, run on rows, read back.
        let lease = vm.stage(&operands).map_err(|e| e.to_string())?;
        let rows = <SimdVm<HostSubstrate> as ExecBackend>::lease_rows(&lease).to_vec();
        let out = execute_with(&mut vm, prog, &rows, |_, _| {})
            .map_err(|e| format!("{text}: {e}"))?;
        let via_rows = vm.read_row(out).map_err(|e| e.to_string())?;
        ExecBackend::release(&mut vm, out);
        vm.end_stage(lease);
        prop_assert_eq!(&via_rows, &expect, "{}: row mode diverged", text);
    }
}

// ---------------------------------------------------------------------
// prepared execution: compile once, run bit-identically
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Two-phase execution is invisible in the bits: for random
    /// expressions, `prepare` + `run_prepared` produces exactly the
    /// bytes `execute_packed_with` produces on a fresh backend of the
    /// same configuration — on both backends, in both fidelities —
    /// and the observer sees the same ordered step walk.
    #[test]
    fn prepared_matches_unprepared_bit_for_bit(
        n in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let text = random_expr(n, seed, 10);
        let cost = CostModel::table1_defaults();
        let compiled = fcsynth::compile(&text, &cost, 16)
            .map_err(|e| format!("{text}: {e}"))?;
        let k = compiled.circuit.inputs().len();
        let prog = &compiled.mapping.program;
        for fidelity in [SimFidelity::fast(), SimFidelity::full()] {
            // VM backend over the DRAM substrate.
            let mut legacy = SimdVm::new(DramSubstrate::new(engine(fidelity))).unwrap();
            let lanes = ExecBackend::lanes(&legacy);
            let ops = random_operands(k, lanes, seed ^ 0x9E37);
            let mut legacy_steps = Vec::new();
            let want = execute_packed_with(&mut legacy, prog, &ops, |i, s| {
                legacy_steps.push((i, s.op, s.args.len()));
            })
            .map_err(|e| format!("{text}: {e}"))?;

            let mut vm = SimdVm::new(DramSubstrate::new(engine(fidelity))).unwrap();
            let prep = vm.prepare(prog).map_err(|e| e.to_string())?;
            prop_assert_eq!(prep.arena_slots(), prog.peak_live_rows());
            let mut prep_steps = Vec::new();
            let got = vm
                .run_prepared(&prep, &ops, |i, s| {
                    prep_steps.push((i, s.op, s.args.len()));
                })
                .map_err(|e| format!("{text}: {e}"))?;
            prop_assert_eq!(&got, &want, "{}: vm prepared diverged", text);
            prop_assert_eq!(&prep_steps, &legacy_steps, "{}: vm observer walks differ", text);

            // Command-schedule backend.
            let mut legacy_cmd = BenderBackend::new(engine(fidelity)).unwrap();
            let want_cmd = execute_packed(&mut legacy_cmd, prog, &ops)
                .map_err(|e| format!("{text}: {e}"))?;
            prop_assert_eq!(&want_cmd, &want, "{}: backends diverged", text);

            let mut cmd = BenderBackend::new(engine(fidelity)).unwrap();
            let prep_cmd = cmd.prepare(prog).map_err(|e| e.to_string())?;
            let mut cmd_steps = Vec::new();
            let got_cmd = cmd
                .run_prepared(&prep_cmd, &ops, |i, s| {
                    cmd_steps.push((i, s.op, s.args.len()));
                })
                .map_err(|e| format!("{text}: {e}"))?;
            prop_assert_eq!(&got_cmd, &want, "{}: bender prepared diverged", text);
            prop_assert_eq!(&cmd_steps, &legacy_steps, "{}: bender observer walks differ", text);
        }
    }

    /// Bulk-staged leased runs are backend-independent: `sets` operand
    /// sets staged with one `stage_many` call and run back to back
    /// through `run_prepared_leased` give bit-identical results and
    /// observer walks on `SimdVm<DramSubstrate>` and `BenderBackend`
    /// in both fidelities, and `eval_packed`'s bits on the host model.
    #[test]
    fn leased_runs_match_across_backends(
        n in 1usize..=8,
        sets in 1usize..=4,
        seed in any::<u64>(),
    ) {
        fn run_leased<B: ExecBackend>(
            backend: &mut B,
            prog: &std::sync::Arc<fcsynth::SynthProgram>,
            operand_sets: &[Vec<PackedBits>],
        ) -> Result<Vec<(PackedBits, Vec<usize>)>, String> {
            let prep = backend.prepare(prog).map_err(|e| e.to_string())?;
            let batches: Vec<&[PackedBits]> = operand_sets.iter().map(Vec::as_slice).collect();
            let leases = backend.stage_many(&batches).map_err(|e| e.to_string())?;
            let mut out = Vec::with_capacity(leases.len());
            for (lease, ops) in leases.into_iter().zip(operand_sets) {
                let mut walk = Vec::new();
                let got = backend.run_prepared_leased(&prep, &lease, ops, |i, _| walk.push(i));
                backend.end_stage(lease);
                out.push((got.map_err(|e| e.to_string())?, walk));
            }
            Ok(out)
        }
        let text = random_expr(n, seed, 10);
        let cost = CostModel::table1_defaults();
        let compiled = fcsynth::compile(&text, &cost, 16)
            .map_err(|e| format!("{text}: {e}"))?;
        let k = compiled.circuit.inputs().len();
        let prog = &compiled.mapping.program;
        let operand_sets = |lanes: usize| -> Vec<Vec<PackedBits>> {
            (0..sets)
                .map(|j| random_operands(k, lanes, seed ^ 0x1EA5E ^ (j as u64) << 32))
                .collect()
        };
        for fidelity in [SimFidelity::fast(), SimFidelity::full()] {
            let mut vm = SimdVm::new(DramSubstrate::new(engine(fidelity))).unwrap();
            let sets_dev = operand_sets(ExecBackend::lanes(&vm));
            let via_vm = run_leased(&mut vm, prog, &sets_dev)?;
            let mut cmd = BenderBackend::new(engine(fidelity)).unwrap();
            let via_cmd = run_leased(&mut cmd, prog, &sets_dev)?;
            prop_assert_eq!(&via_vm, &via_cmd, "{}: leased runs diverged ({:?})", text, fidelity);
        }
        let lanes = 96;
        let sets_host = operand_sets(lanes);
        let capacity = prog.n_regs + sets * k + 8;
        let mut host = SimdVm::new(HostSubstrate::new(lanes, capacity)).unwrap();
        let via_host = run_leased(&mut host, prog, &sets_host)?;
        for (ops, (got, walk)) in sets_host.iter().zip(&via_host) {
            let want = if k == 0 {
                PackedBits::splat(compiled.expr.eval(&[]), lanes)
            } else {
                compiled.circuit.eval_packed(ops)
            };
            prop_assert_eq!(got, &want, "{}: host leased run diverged", text);
            prop_assert_eq!(walk.len(), prog.steps.len(), "{}: observer missed steps", text);
        }
    }

    /// `prepare` is a pure function of the program: preparing the same
    /// program twice — on the same backend or on a fresh one of the
    /// same configuration — yields byte-identical command templates.
    #[test]
    fn prepare_is_pure(
        n in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let text = random_expr(n, seed, 10);
        let cost = CostModel::table1_defaults();
        let compiled = fcsynth::compile(&text, &cost, 16)
            .map_err(|e| format!("{text}: {e}"))?;
        let prog = &compiled.mapping.program;
        let mut cmd = BenderBackend::new(engine(SimFidelity::fast())).unwrap();
        let a = cmd.prepare(prog).map_err(|e| e.to_string())?;
        let b = cmd.prepare(prog).map_err(|e| e.to_string())?;
        prop_assert_eq!(a.template_bytes(), b.template_bytes(), "{}: same backend", text);
        prop_assert_eq!(a.template_count(), b.template_count());
        let mut fresh = BenderBackend::new(engine(SimFidelity::fast())).unwrap();
        let c = fresh.prepare(prog).map_err(|e| e.to_string())?;
        prop_assert_eq!(a.template_bytes(), c.template_bytes(), "{}: fresh backend", text);
        // Programs with a native gate step carry at least one template.
        if !a.is_fallback() && prog.steps.iter().any(|s| s.op.is_some() && s.args.len() > 1) {
            prop_assert!(a.template_count() > 0, "{}: no gate templates", text);
        }
    }
}

// ---------------------------------------------------------------------
// lease safety under randomized interleavings
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SimdVm::lease_rows`/`end_lease`, driven through
    /// `ExecBackend::stage`/`end_stage`, stay all-or-nothing and
    /// reusable: a failed stage never leaks a row, live rows always
    /// equal the outstanding leases, and full capacity remains
    /// leasable after every interleaving.
    #[test]
    fn vm_leases_are_all_or_nothing_and_reusable(
        script in prop::collection::vec((0u8..3, 1usize..6, any::<u64>()), 1..24),
    ) {
        let lanes = 9usize;
        let capacity = 12usize; // 2 constants + 10 leasable rows
        let mut vm = SimdVm::new(HostSubstrate::new(lanes, capacity))
            .map_err(|e| e.to_string())?;
        let base = vm.substrate().live_rows();
        let cost = CostModel::table1_defaults();
        let tiny = fcsynth::compile("a & b", &cost, 16).map_err(|e| e.to_string())?;
        let mut held: Vec<simdram::RowLease> = Vec::new();
        let mut held_rows = 0usize;
        for (kind, k, seed) in script {
            match kind {
                // Stage k operands through the backend trait.
                0 => {
                    let operands = random_operands(k, lanes, seed);
                    let live_before = vm.substrate().live_rows();
                    match vm.stage(&operands) {
                        Ok(lease) => {
                            held_rows += k;
                            held.push(lease);
                        }
                        Err(_) => {
                            prop_assert_eq!(
                                vm.substrate().live_rows(), live_before,
                                "failed stage leaked rows"
                            );
                        }
                    }
                }
                // Return the oldest outstanding lease.
                1 => {
                    if !held.is_empty() {
                        let lease = held.remove(0);
                        held_rows -= lease.len();
                        vm.end_stage(lease);
                    }
                }
                // Execute a program through the engine; it must net
                // to zero rows whether it succeeds or runs out.
                _ => {
                    let operands = random_operands(2, lanes, seed);
                    let live_before = vm.substrate().live_rows();
                    let _ = execute_packed(&mut vm, &tiny.mapping.program, &operands);
                    prop_assert_eq!(
                        vm.substrate().live_rows(), live_before,
                        "execution leaked rows"
                    );
                }
            }
            prop_assert_eq!(
                vm.substrate().live_rows(), base + held_rows,
                "live rows diverged from outstanding leases"
            );
        }
        for lease in held.drain(..) {
            vm.end_stage(lease);
        }
        prop_assert_eq!(vm.substrate().live_rows(), base);
        // Full capacity is still leasable: nothing was lost.
        let full = vm.lease_rows(capacity - base).map_err(|e| e.to_string())?;
        vm.end_lease(full);
    }

    /// `dram_core::FleetSlots` stays all-or-nothing and reusable under
    /// randomized lease/release/reset interleavings (the planner's
    /// placement substrate), with jobs executing through the backend
    /// between slot operations exactly as the serving path does.
    #[test]
    fn fleet_slots_all_or_nothing_and_reusable(
        script in prop::collection::vec((0u8..4, 0usize..3, 1usize..600), 1..32),
    ) {
        let fleet = dram_core::FleetConfig::table1(3);
        let mut slots = dram_core::fleet::FleetSlots::new(&fleet, 16);
        let baseline: Vec<usize> = (0..fleet.len()).map(|m| slots.free_rows(m)).collect();
        let largest: Vec<usize> = (0..fleet.len()).map(|m| slots.largest_lease(m)).collect();
        let mut held: Vec<dram_core::fleet::SlotLease> = Vec::new();
        let mut held_rows: Vec<usize> = vec![0; fleet.len()];
        let cost = CostModel::table1_defaults();
        let tiny = fcsynth::compile("a | b", &cost, 16).map_err(|e| e.to_string())?;
        for (kind, member, rows) in script {
            match kind {
                // Lease: either the full request is granted or the
                // member's accounting is untouched.
                0 | 1 => {
                    let free_before = slots.free_rows(member);
                    match slots.lease_on(member, rows) {
                        Some(lease) => {
                            prop_assert_eq!(lease.slot.rows, rows);
                            prop_assert_eq!(
                                slots.free_rows(member), free_before - rows,
                                "lease accounting drifted"
                            );
                            held_rows[member] += rows;
                            held.push(lease);
                        }
                        None => {
                            prop_assert_eq!(
                                slots.free_rows(member), free_before,
                                "refused lease still consumed rows"
                            );
                        }
                    }
                }
                // Release the oldest lease.
                2 => {
                    if !held.is_empty() {
                        let lease = held.remove(0);
                        held_rows[lease.slot.member] -= lease.slot.rows;
                        slots.release(lease);
                    }
                }
                // Wave rollover: recycle one member, dropping its
                // outstanding leases like the planner does.
                _ => {
                    slots.reset_member(member);
                    let mut kept = Vec::new();
                    for lease in held.drain(..) {
                        if lease.slot.member == member {
                            held_rows[member] -= lease.slot.rows;
                        } else {
                            kept.push(lease);
                        }
                    }
                    held = kept;
                    // A job executes between slot operations, as in
                    // the serving path; slot accounting is untouched.
                    let mut vm = SimdVm::new(HostSubstrate::new(8, 16))
                        .map_err(|e| e.to_string())?;
                    let operands = random_operands(2, 8, rows as u64);
                    let _ = execute_packed(&mut vm, &tiny.mapping.program, &operands)
                        .map_err(|e| e.to_string())?;
                }
            }
            for m in 0..fleet.len() {
                prop_assert_eq!(
                    slots.free_rows(m), baseline[m] - held_rows[m],
                    "member {} accounting diverged", m
                );
            }
        }
        // Release everything: capacity fully recovers.
        for lease in held.drain(..) {
            slots.release(lease);
        }
        for m in 0..fleet.len() {
            prop_assert_eq!(slots.free_rows(m), baseline[m]);
            prop_assert_eq!(slots.largest_lease(m), largest[m], "member {} lost slots", m);
        }
    }
}
