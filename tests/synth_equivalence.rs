//! Synthesis-pipeline equivalence properties.
//!
//! * bender assembly `format` → `parse` round-trips arbitrary
//!   generated command programs exactly, cycle schedule included;
//! * for random expressions over ≤ 8 inputs, the synthesized circuit
//!   executed on [`SimdVm`] is bit-identical to the pure-software
//!   reference evaluator over random [`PackedBits`] operands (exactly
//!   on the host substrate; on DRAM, the substrate VM and the
//!   command-schedule backend must be bit-identical to each other per
//!   the repo's fidelity invariant).

mod common;

use bender::{DdrCommand, ProgramBuilder};
use common::{random_expr, random_operands};
use dram_core::{BankId, Bit, GlobalRow, SpeedBin, SubarrayId};
use fcdram::{BulkEngine, Fcdram, PackedBits};
use fcsynth::{compile, Circuit, CostModel, Expr, Mapper};
use proptest::prelude::*;
use simdram::{DramSubstrate, HostSubstrate, SimdVm};

// ---------------------------------------------------------------------
// bender asm round-trip
// ---------------------------------------------------------------------

/// Builds a pseudo-random but deterministic command program from a
/// command recipe list.
fn build_program(speed: SpeedBin, recipe: &[(u8, usize, usize, u64)]) -> bender::Program {
    let mut b = ProgramBuilder::new(speed);
    for (kind, bank, row, wait) in recipe {
        let bank = BankId(bank % 4);
        let row = GlobalRow(row % 1024);
        match kind % 7 {
            0 => {
                b.act(bank, row);
            }
            1 => {
                b.pre(bank);
            }
            2 => {
                b.rd(bank, row);
            }
            3 => {
                // WR data length stays a multiple of 4 (the hex codec
                // packs 4 bits per digit), as every real row width is.
                let data: Vec<Bit> = (0..16)
                    .map(|i| Bit::from(wait >> (i % 64) & 1 == 1))
                    .collect();
                b.wr(bank, data);
            }
            4 => {
                b.push(DdrCommand::Ref);
            }
            5 => {
                b.wait_cycles(wait % 500);
            }
            _ => {
                b.wait_ns((wait % 100) as f64 / 3.0);
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `format` → `parse` reproduces arbitrary programs exactly,
    /// including the absolute cycle of every command.
    #[test]
    fn bender_asm_round_trips_arbitrary_programs(
        fast in any::<bool>(),
        recipe in prop::collection::vec(
            (any::<u8>(), 0usize..4096, 0usize..65536, any::<u64>()),
            0..40,
        ),
    ) {
        let speed = if fast { SpeedBin::Mt2666 } else { SpeedBin::Mt2133 };
        let program = build_program(speed, &recipe);
        let text = bender::asm::format(&program);
        let back = bender::asm::parse(&text, speed)
            .map_err(|e| format!("parse failed: {e}\n{text}"))?;
        prop_assert_eq!(&back, &program, "round-trip changed the program");
    }
}

// ---------------------------------------------------------------------
// random expressions: synthesized execution vs reference evaluator
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Host execution of the synthesized program (both the
    /// reliability-aware and the naive mapping) is bit-exact against
    /// the reference evaluator.
    #[test]
    fn synthesized_circuits_match_reference_on_host(
        n in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let text = random_expr(n, seed, 12);
        let expr = Expr::parse(&text).map_err(|e| format!("{text}: {e}"))?;
        let circuit = Circuit::from_expr(&expr);
        let k = circuit.inputs().len();
        let lanes = 129; // off word boundary to exercise tail masking
        let operands = random_operands(k, lanes, seed ^ 1);
        // A generated expression can fold to a closed form with no
        // inputs at all; the reference is then the constant itself.
        let expect = if k == 0 {
            PackedBits::splat(expr.eval(&[]), lanes)
        } else {
            circuit.eval_packed(&operands)
        };
        let cost = CostModel::table1_defaults();
        for mapper in [Mapper::new(&cost, 16), Mapper::new(&cost, 4), Mapper::naive(&cost)] {
            let mapping = mapper.map(&circuit);
            let mut vm = SimdVm::new(HostSubstrate::new(lanes, 512))
                .map_err(|e| e.to_string())?;
            let got = common::execute(&mut vm, &mapping.program, &operands)
                .map_err(|e| format!("{text}: {e}"))?;
            prop_assert_eq!(&got, &expect, "{} diverged from reference", text);
        }
    }
}

/// A bulk engine over chip 0 of the first Table-1 part.
fn dram_engine() -> BulkEngine {
    let cfg = dram_core::config::table1().remove(0).with_modeled_cols(64);
    BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0)).unwrap()
}

/// On the DRAM substrate the result inherits the characterized gate
/// unreliability, so it cannot be compared to the exact reference —
/// but the substrate VM and the command-schedule backend must produce
/// bit-identical rows (the repo's fidelity invariant), on the same
/// random expressions the host property uses.
#[test]
fn synthesized_circuits_fidelity_bit_identical_on_dram() {
    let cost = CostModel::table1_defaults();
    let mut vm = SimdVm::new(DramSubstrate::new(dram_engine())).unwrap();
    let mut cmd = fcexec::BenderBackend::new(dram_engine()).unwrap();
    let lanes = vm.lanes();
    assert_eq!(lanes, fcexec::ExecBackend::lanes(&cmd));
    for case in 0..6u64 {
        let n = 1 + (case as usize * 3) % 8;
        let text = random_expr(n, 0xD1CE + case, 8);
        let compiled = compile(&text, &cost, 16).unwrap();
        let k = compiled.circuit.inputs().len();
        let operands = random_operands(k, lanes, case ^ 0xF00D);
        let via_vm = common::execute(&mut vm, &compiled.mapping.program, &operands)
            .unwrap_or_else(|e| panic!("{text}: vm execution failed: {e}"));
        let via_cmd = common::execute(&mut cmd, &compiled.mapping.program, &operands)
            .unwrap_or_else(|e| panic!("{text}: bender execution failed: {e}"));
        assert_eq!(via_vm, via_cmd, "{text}: backends diverged");
    }
    // Sanity: the executions did real in-DRAM work.
    assert!(vm.trace().in_dram_ops() > 0);
}

/// The acceptance-pinned mapper case at the workspace level: on a
/// 16-input AND, the reliability-aware mapping strictly beats the
/// naive 2-input tree in expected success, and both execute to the
/// same bits on the host substrate.
#[test]
fn aware_mapping_beats_naive_and_stays_correct() {
    let cost = CostModel::table1_defaults();
    let text = "a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p";
    let compiled = compile(text, &cost, 16).unwrap();
    let naive = Mapper::naive(&cost).map(&compiled.circuit);
    assert!(
        compiled.mapping.expected_success > naive.expected_success,
        "aware {} <= naive {}",
        compiled.mapping.expected_success,
        naive.expected_success
    );
    let lanes = 96;
    let operands = random_operands(16, lanes, 0xCAFE);
    let expect = compiled.circuit.eval_packed(&operands);
    let mut vm = SimdVm::new(HostSubstrate::new(lanes, 256)).unwrap();
    let aware_bits = common::execute(&mut vm, &compiled.mapping.program, &operands).unwrap();
    let naive_bits = common::execute(&mut vm, &naive.program, &operands).unwrap();
    assert_eq!(aware_bits, expect);
    assert_eq!(naive_bits, expect);
}
