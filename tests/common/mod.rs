//! Shared fixtures for the workspace integration suites.
//!
//! Each `tests/*.rs` file is its own crate; this module is included
//! with `mod common;` so the random-expression grammar, operand
//! derivation and the device-gate read-back helpers live in exactly one
//! place.

// Each test binary uses a subset of these helpers.
#![allow(dead_code)]

use dram_core::{BankId, Bit, Col, GlobalRow, LogicOp, SubarrayId};
use fcdram::{Fcdram, GateLayout, PackedBits};
use fcexec::ExecBackend;
use fcsynth::{Output, Step, SynthProgram};
use simdram::{BitRow, SimdVm, SimdramError, Substrate};
use std::sync::Arc;

/// Deterministic expression generator: a random tree over `n` inputs
/// with the given node budget, driven by a splitmix-style stream.
/// Covers constants, NOT, wide `&`/`|` chains (exercising flattening
/// and the mapper), and XOR.
pub fn random_expr(n: usize, seed: u64, budget: usize) -> String {
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn gen(n: usize, state: &mut u64, budget: usize) -> String {
        let choice = next(state);
        if budget == 0 || choice % 100 < 25 {
            // Leaf: mostly variables, occasionally a constant.
            return if choice.is_multiple_of(13) {
                if choice.is_multiple_of(2) {
                    "0".into()
                } else {
                    "1".into()
                }
            } else {
                format!("v{}", next(state) as usize % n)
            };
        }
        match choice % 100 {
            25..=39 => format!("!({})", gen(n, state, budget - 1)),
            40..=59 => {
                // Wide chains exercise flattening and the mapper.
                let arity = 2 + next(state) as usize % 4;
                let parts: Vec<String> =
                    (0..arity).map(|_| gen(n, state, budget / arity)).collect();
                let op = if choice.is_multiple_of(2) {
                    " & "
                } else {
                    " | "
                };
                format!("({})", parts.join(op))
            }
            60..=79 => format!(
                "({} ^ {})",
                gen(n, state, budget / 2),
                gen(n, state, budget / 2)
            ),
            _ => format!(
                "({} & {})",
                gen(n, state, budget / 2),
                gen(n, state, budget / 2)
            ),
        }
    }
    let mut state = seed ^ 0xA5A5_5A5A_DEAD_BEEF;
    gen(n, &mut state, budget)
}

/// `n` packed operand rows of `lanes` deterministic bits each.
pub fn random_operands(n: usize, lanes: usize, seed: u64) -> Vec<PackedBits> {
    (0..n)
        .map(|i| PackedBits::seeded(seed, i as u64, lanes))
        .collect()
}

/// `prog` prepared on `backend` and run once over `operands`: the
/// one execution path, without an observer.
pub fn execute<B: ExecBackend>(
    backend: &mut B,
    prog: &Arc<SynthProgram>,
    operands: &[PackedBits],
) -> fcexec::Result<PackedBits> {
    let prep = backend.prepare(prog)?;
    fcexec::run_prepared(backend, &prep, operands)
}

/// An independent reference for the prepared VM walk, written against
/// `SimdVm`'s public gate API only: operands staged as one lease, each
/// step run through `bit_not`/`bit_and`/`bit_or`/`bit_nand`/`bit_nor`
/// into a fresh row (wider-than-native gates tree-reduce inside the
/// VM), temporaries released at their last use, the output read back.
/// Calls `on_step(i, step)` after step `i`.
pub fn reference_walk<S: Substrate>(
    vm: &mut SimdVm<S>,
    prog: &SynthProgram,
    operands: &[PackedBits],
    mut on_step: impl FnMut(usize, &Step),
) -> Result<PackedBits, SimdramError> {
    let n_in = prog.inputs.len();
    assert_eq!(operands.len(), n_in, "operand count");
    let lease = vm.lease_rows(n_in)?;
    let inputs: Vec<BitRow> = lease.rows().to_vec();
    for (row, bits) in inputs.iter().zip(operands) {
        vm.substrate_mut().write_packed(*row, bits)?;
    }
    let mut regs: Vec<Option<BitRow>> = vec![None; prog.n_regs];
    for (r, row) in inputs.iter().enumerate() {
        regs[r] = Some(*row);
    }
    let last_use = prog.last_use();
    for (i, step) in prog.steps.iter().enumerate() {
        let args: Vec<BitRow> = step.args.iter().map(|r| regs[*r].unwrap()).collect();
        let out = match step.op {
            None => vm.bit_not(args[0])?,
            Some(LogicOp::And) => vm.bit_and(&args)?,
            Some(LogicOp::Or) => vm.bit_or(&args)?,
            Some(LogicOp::Nand) => vm.bit_nand(&args)?,
            Some(LogicOp::Nor) => vm.bit_nor(&args)?,
        };
        regs[step.out] = Some(out);
        on_step(i, step);
        for r in &step.args {
            if *r >= n_in && last_use[*r] <= i {
                if let Some(row) = regs[*r].take() {
                    vm.release(row);
                }
            }
        }
    }
    let out = match prog.output {
        Output::Reg(r) if r >= n_in => regs[r].take().unwrap(),
        output => {
            let src = match output {
                Output::Const(true) => vm.one_row(),
                Output::Const(false) => vm.zero_row(),
                Output::Reg(r) => inputs[r],
            };
            let out = vm.alloc_row()?;
            vm.substrate_mut().copy(src, out)?;
            out
        }
    };
    let bits = vm.substrate_mut().read_packed(out)?;
    vm.release(out);
    vm.end_lease(lease);
    Ok(bits)
}

/// Full-width rows as the packed payloads the `Fcdram` gate calls
/// stage.
pub fn staged_rows(rows: &[Vec<Bit>]) -> Vec<PackedBits> {
    rows.iter().map(PackedBits::from).collect()
}

/// The shared columns of a subarray pair whose upper subarray is
/// `upper`: the half that carries cross-subarray results.
pub fn shared_cols(cols: usize, upper: SubarrayId) -> Vec<usize> {
    (0..cols)
        .filter(|c| dram_core::is_shared_col(upper, Col(*c)))
        .collect()
}

/// Every result row of a shipped gate, read back full width through
/// `Fcdram::read_row`, in layout order.
pub fn read_results(
    fc: &mut Fcdram,
    bank: BankId,
    layout: &GateLayout,
) -> Vec<(GlobalRow, Vec<Bit>)> {
    layout
        .result_rows
        .iter()
        .map(|g| (*g, fc.read_row(bank, *g).unwrap()))
        .collect()
}

/// The fraction of cells in columns `cols` of every row in `reads` that
/// hold `want[col]` (`want` is a full-width ideal row).
pub fn accuracy(reads: &[(GlobalRow, Vec<Bit>)], cols: &[usize], want: &[Bit]) -> f64 {
    let correct: usize = reads
        .iter()
        .map(|(_, row)| cols.iter().filter(|c| row[**c] == want[**c]).count())
        .sum();
    correct as f64 / (reads.len() * cols.len()).max(1) as f64
}

/// The ideal full-width result of `op` over `inputs`.
pub fn ideal_logic(op: LogicOp, inputs: &[Vec<Bit>]) -> Vec<Bit> {
    let cols = inputs.first().map_or(0, Vec::len);
    (0..cols)
        .map(|c| {
            let agg = if op.is_and_family() {
                inputs.iter().all(|r| r[c].as_bool())
            } else {
                inputs.iter().any(|r| r[c].as_bool())
            };
            Bit::from(agg != op.is_inverted_terminal())
        })
        .collect()
}

/// The ideal full-width majority of `inputs` (strictly more than half
/// the rows hold 1).
pub fn ideal_majority(inputs: &[Vec<Bit>]) -> Vec<Bit> {
    let cols = inputs.first().map_or(0, Vec::len);
    (0..cols)
        .map(|c| {
            let ones = inputs.iter().filter(|r| r[c].as_bool()).count();
            Bit::from(2 * ones > inputs.len())
        })
        .collect()
}
