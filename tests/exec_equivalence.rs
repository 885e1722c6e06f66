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
//! * A golden table pins the device results of fixed and over-wide
//!   programs, the latter on the fan-in-8 part `hynix-8Gb-M-2666-#0`,
//!   where `prepare` narrows them.
//! * The prepared VM walk matches an independent reference walk
//!   (`common::reference_walk`) bit for bit on the device model, the
//!   host golden model matches the reference evaluator for random
//!   expressions, and the observer sees every step in order on every
//!   backend.
//! * Leased runs agree across backends: operand sets bulk-staged with
//!   one `ExecBackend::stage_many` call and run back to back with
//!   `run_prepared_leased` give
//!   bit-identical results on both device backends in both
//!   fidelities, and the reference evaluator's bits on the host model.
//! * Lease safety: `SimdVm::lease_rows`/`end_lease` driven through
//!   `ExecBackend::stage` and `dram_core::FleetSlots` stay
//!   all-or-nothing and reusable under randomized interleavings.

mod common;

use common::{execute, random_expr, random_operands, reference_walk};
use dram_core::{BankId, SimFidelity, SubarrayId};
use fcdram::{BulkEngine, Fcdram, PackedBits};
use fcexec::{BenderBackend, ExecBackend};
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

/// The fixed expressions both device backends are pinned on.
const BIT_IDENTICAL_CASES: [&str; 8] = [
    "a & b",
    "!(a | b | c)",
    "(a ^ b) & (c | d)",
    "a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p",
    "!a",
    "a",
    "a & !a",
    "a | 1",
];

/// The tentpole pin: for a spread of synthesized programs (wide gates,
/// inverted terminals, XOR trees, passthroughs, constants, narrowed
/// re-mappings), all four executions — {vm, bender} × {fast, full} —
/// produce the same bits.
#[test]
fn backends_bit_identical_in_both_fidelities() {
    let cost = CostModel::table1_defaults();
    let mut cases: Vec<String> = BIT_IDENTICAL_CASES.iter().map(|s| s.to_string()).collect();
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
                let via_vm = execute(&mut vm, prog, &ops).unwrap();
                results.push((format!("vm/{:?}", fidelity.telemetry), via_vm));

                let mut cmd = BenderBackend::new(engine(fidelity)).unwrap();
                assert_eq!(cmd.lanes(), lanes);
                let via_cmd = execute(&mut cmd, prog, &ops).unwrap();
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

/// FNV-1a digest of a packed result: its lane count, then its words.
fn digest(bits: &PackedBits) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for w in std::iter::once(bits.len() as u64).chain(bits.words().iter().copied()) {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// Over-wide programs for the fan-in-8 part: 9- to 16-input gates
/// whose arguments are XOR, NOT and 2- or 4-input gate temporaries,
/// under all four gate kinds. The operand mix keeps each result
/// non-constant.
fn over_wide_cases() -> Vec<String> {
    (0..12usize)
        .map(|i| {
            let and_chain = i % 2 == 0;
            let n_terms = if and_chain {
                8 + (i * 3 / 2) % 8
            } else {
                10 + i % 7
            };
            let terms: Vec<String> = (0..n_terms)
                .map(|j| {
                    let s = i * 5 + j * 7 + j / 12;
                    let v = [s, s + 1 + j % 3, s + 5, s + 8].map(|x| x % 12);
                    match (j, and_chain) {
                        (0, true) => format!("(v{} ^ v{})", v[0], v[1]),
                        (0, false) => format!("!(v{} ^ v{})", v[0], v[1]),
                        (1, true) => format!("!(v{} & v{})", v[0], v[2]),
                        (1, false) => format!("!v{}", v[0]),
                        (_, true) => format!("(v{} | v{} | v{} | v{})", v[0], v[1], v[2], v[3]),
                        (_, false) => format!("(v{} & v{} & v{} & v{})", v[0], v[1], v[2], v[3]),
                    }
                })
                .collect();
            let body = terms.join(if and_chain { " & " } else { " | " });
            if i % 4 < 2 {
                body
            } else {
                format!("!({body})")
            }
        })
        .collect()
}

/// Each program run through `prepare` + `run_prepared` on a fresh
/// {vm, bender} × {fast, full} backend of `cfg`; every run must digest
/// to the same value, which is returned.
fn pinned_digest(
    cfg: &dram_core::ModuleConfig,
    prog: &std::sync::Arc<fcsynth::SynthProgram>,
    k: usize,
    seed: u64,
) -> u64 {
    let fresh = |fidelity: SimFidelity| {
        BulkEngine::new(Fcdram::new(cfg.clone()), BankId(0), SubarrayId(0))
            .unwrap()
            .with_sim_config(dram_core::SimConfig::new().with_fidelity(fidelity))
    };
    let mut digests = Vec::new();
    for fidelity in [SimFidelity::fast(), SimFidelity::full()] {
        let mut vm = SimdVm::new(DramSubstrate::new(fresh(fidelity))).unwrap();
        let ops = random_operands(k, ExecBackend::lanes(&vm), seed);
        let prep = vm.prepare(prog).unwrap();
        digests.push(digest(&fcexec::run_prepared(&mut vm, &prep, &ops).unwrap()));
        let mut cmd = BenderBackend::new(fresh(fidelity)).unwrap();
        let prep = cmd.prepare(prog).unwrap();
        digests.push(digest(
            &fcexec::run_prepared(&mut cmd, &prep, &ops).unwrap(),
        ));
    }
    assert!(
        digests.iter().all(|d| *d == digests[0]),
        "backends or fidelities diverged: {digests:x?}"
    );
    digests[0]
}

/// Golden pin of device results, captured before `prepare` learned to
/// narrow: the fixed case list of
/// `backends_bit_identical_in_both_fidelities` (each mapped and
/// `narrowed(2)`) on chip 0, and over-wide programs on the fan-in-8
/// part `hynix-8Gb-M-2666-#0`. A moved digest is a re-baseline that
/// needs an explanation, not an edit to this table.
#[test]
fn device_results_match_golden_digests() {
    const FIXED: &[u64] = &[
        0xF3E5B8B12339ADA6,
        0x7BA98035AC1CD680,
        0x670F28F9BA2EE485,
        0x459840FBDDA6DD28,
        0x0088B8CEDAE15C5A,
        0xFFBF3B05ABB9AF40,
        0xA85D66B6FE5C5C45,
        0xA85D66B6FE5C5C45,
        0xD848DB925A2B1575,
        0xF5B26DBF77591CEE,
        0x9A9AC0D98D7BC9FF,
        0x442648ADF6B6CB1D,
        0xA85D66B6FE5C5C45,
        0xA85D66B6FE5C5C45,
        0xBBC62B431DBB7D61,
        0xBBC62B431DBB7D61,
        0xA85D66B6FE5C5C45,
        0xA85D66B6FE5C5C45,
        0x5DECD3FB2F88414D,
        0x781C37654608C3C7,
        0xC3AA451F8ECE2A7D,
        0x371635F755538B55,
        0x1ECC77061EE12018,
        0xA85D66B6FE5C5C45,
    ];
    const OVER_WIDE: &[u64] = &[
        0x17196A40A872362D,
        0x941C86AD16410506,
        0x65E7AC4B6287A22C,
        0xDE43F4B19658648F,
        0x5E33438329D396F5,
        0x43F66E0D2CBF70EC,
        0xDBAF9DA172F4D72D,
        0xBADA38DB2EBE0FDD,
        0x4E1844B75E897361,
        0xF93AE9A7E82057E2,
        0x21AA3366E76A7D95,
        0xD66F789CD9426148,
    ];
    let cost = CostModel::table1_defaults();
    let chip0 = dram_core::config::table1().remove(0).with_modeled_cols(64);
    let mut got_fixed = Vec::new();
    for (ci, text) in BIT_IDENTICAL_CASES
        .iter()
        .map(|s| s.to_string())
        .chain((0..4u64).map(|c| random_expr(1 + (c as usize * 3) % 8, 0xE0_0E + c, 8)))
        .enumerate()
    {
        let compiled = fcsynth::compile(&text, &cost, 16).unwrap();
        let k = compiled.circuit.inputs().len();
        let programs = [
            compiled.mapping.program.clone(),
            std::sync::Arc::new(compiled.mapping.program.narrowed(2)),
        ];
        for (pi, prog) in programs.iter().enumerate() {
            got_fixed.push(pinned_digest(
                &chip0,
                prog,
                k,
                0x601D ^ (ci as u64) << 8 ^ pi as u64,
            ));
        }
    }
    let narrow = dram_core::config::table1()
        .into_iter()
        .find(|m| m.name == "hynix-8Gb-M-2666-#0")
        .expect("Table 1 lists the fan-in-8 part")
        .with_modeled_cols(256);
    let mut got_wide = Vec::new();
    for (ci, text) in over_wide_cases().iter().enumerate() {
        let compiled = fcsynth::compile(text, &cost, 16).unwrap();
        let prog = &compiled.mapping.program;
        let widest = prog.steps.iter().map(|s| s.args.len()).max().unwrap();
        assert!(widest > 8, "{text}: widest step {widest} fits fan-in 8");
        let k = compiled.circuit.inputs().len();
        got_wide.push(pinned_digest(&narrow, prog, k, 0x0E2_71DE ^ ci as u64));
    }
    assert_eq!(got_fixed, FIXED, "fixed-case digests moved");
    assert_eq!(got_wide, OVER_WIDE, "over-wide digests moved");
}

/// The observer reports the same step sequence on both backends, and
/// the same one the reference walk reports.
#[test]
fn observer_is_backend_independent() {
    let cost = CostModel::table1_defaults();
    let text = "(a & b & c & d) ^ !(e | f | g)";
    let compiled = fcsynth::compile(text, &cost, 16).unwrap();
    let prog = &compiled.mapping.program;
    let ops = |lanes: usize| random_operands(compiled.circuit.inputs().len(), lanes, 0xAB);

    let mut reference = SimdVm::new(DramSubstrate::new(engine(SimFidelity::fast()))).unwrap();
    let lanes = ExecBackend::lanes(&reference);
    let mut ref_steps = Vec::new();
    reference_walk(&mut reference, prog, &ops(lanes), |i, s| {
        ref_steps.push((i, s.op, s.args.len()));
    })
    .unwrap();

    let mut vm = SimdVm::new(DramSubstrate::new(engine(SimFidelity::fast()))).unwrap();
    let prep = vm.prepare(prog).unwrap();
    let mut vm_steps = Vec::new();
    vm.run_prepared(&prep, &ops(lanes), |i, s| {
        vm_steps.push((i, s.op, s.args.len()));
    })
    .unwrap();

    let mut cmd = BenderBackend::new(engine(SimFidelity::fast())).unwrap();
    let prep = cmd.prepare(prog).unwrap();
    let mut cmd_steps = Vec::new();
    cmd.run_prepared(&prep, &ops(lanes), |i, s| {
        cmd_steps.push((i, s.op, s.args.len()));
    })
    .unwrap();

    assert_eq!(vm_steps, ref_steps, "vm and reference saw different walks");
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
    /// through the one execution path.
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
        let mut vm = SimdVm::new(HostSubstrate::new(lanes, 512)).map_err(|e| e.to_string())?;
        let packed = execute(&mut vm, &compiled.mapping.program, &operands)
            .map_err(|e| format!("{text}: {e}"))?;
        prop_assert_eq!(&packed, &expect, "{}: packed mode diverged", text);
    }
}

// ---------------------------------------------------------------------
// prepared execution: compile once, run bit-identically
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Two-phase execution is invisible in the bits: for random
    /// expressions, `prepare` + `run_prepared` on the VM produces
    /// exactly the bytes of the independent reference walk
    /// (`common::reference_walk`) on a fresh VM of the same
    /// configuration, and the command-schedule backend matches the VM —
    /// in both fidelities, with the observer seeing the same ordered
    /// step walk everywhere.
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
            // The reference walk over the DRAM substrate.
            let mut reference = SimdVm::new(DramSubstrate::new(engine(fidelity))).unwrap();
            let lanes = ExecBackend::lanes(&reference);
            let ops = random_operands(k, lanes, seed ^ 0x9E37);
            let mut ref_steps = Vec::new();
            let want = reference_walk(&mut reference, prog, &ops, |i, s| {
                ref_steps.push((i, s.op, s.args.len()));
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
            prop_assert_eq!(&prep_steps, &ref_steps, "{}: vm observer walks differ", text);

            // Command-schedule backend, against the VM.
            let mut cmd = BenderBackend::new(engine(fidelity)).unwrap();
            let prep_cmd = cmd.prepare(prog).map_err(|e| e.to_string())?;
            let mut cmd_steps = Vec::new();
            let got_cmd = cmd
                .run_prepared(&prep_cmd, &ops, |i, s| {
                    cmd_steps.push((i, s.op, s.args.len()));
                })
                .map_err(|e| format!("{text}: {e}"))?;
            prop_assert_eq!(&got_cmd, &got, "{}: bender prepared diverged", text);
            prop_assert_eq!(&cmd_steps, &prep_steps, "{}: bender observer walks differ", text);
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
    /// same configuration — yields the same plan: gate-program count,
    /// arena width, fused visits and narrowed steps.
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
        let mut fresh = BenderBackend::new(engine(SimFidelity::fast())).unwrap();
        let c = fresh.prepare(prog).map_err(|e| e.to_string())?;
        for (other, which) in [(&b, "same backend"), (&c, "fresh backend")] {
            prop_assert_eq!(a.template_count(), other.template_count(), "{}: {}", text, which);
            prop_assert_eq!(a.arena_slots(), other.arena_slots(), "{}: {}", text, which);
            prop_assert_eq!(a.fused_visits(), other.fused_visits(), "{}: {}", text, which);
            prop_assert_eq!(&a.program().steps, &other.program().steps, "{}: {}", text, which);
        }
        // Programs with a native gate step ship at least one gate program.
        if prog.steps.iter().any(|s| s.op.is_some() && s.args.len() > 1) {
            prop_assert!(a.template_count() > 0, "{}: no gate programs", text);
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
                    let _ = execute(&mut vm, &tiny.mapping.program, &operands);
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
                    let _ = execute(&mut vm, &tiny.mapping.program, &operands)
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
