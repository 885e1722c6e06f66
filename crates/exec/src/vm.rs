//! The [`SimdVm`] backend: any [`Substrate`] behind the unified
//! engine.
//!
//! With [`simdram::HostSubstrate`] this is the workspace's golden
//! model (bit-exact results); with [`simdram::DramSubstrate`] gates
//! execute through [`fcdram::BulkEngine`] and inherit the
//! characterized per-cell success rates. Each substrate owns its rows'
//! values, so the prepared walk passes rows only and no gate reads its
//! operands back or traces a read-back per step. Operand
//! staging uses [`SimdVm::lease_rows`]/[`SimdVm::end_lease`], so a
//! scheduler's row accounting stays per job and a failed stage leaves
//! the substrate exactly as it was.

use crate::engine::{check_operands, ExecBackend};
use crate::error::Result;
use crate::prepared::{OutputAction, PreparedProgram};
use fcdram::PackedBits;
use fcsynth::Step;
use simdram::{BitRow, RowLease, SimdVm, Substrate, MAX_FAN_IN};

impl<S: Substrate> ExecBackend for SimdVm<S> {
    type Lease = RowLease;

    fn lanes(&self) -> usize {
        SimdVm::lanes(self)
    }

    fn max_fan_in(&self) -> usize {
        self.substrate().max_fan_in()
    }

    fn stage_many(&mut self, batches: &[&[PackedBits]]) -> Result<Vec<RowLease>> {
        // All leases first, then every row write in one pass, in batch
        // order and operand order within a batch.
        let mut leases: Vec<RowLease> = Vec::with_capacity(batches.len());
        let mut fail: Option<crate::error::ExecError> = None;
        for operands in batches {
            match self.lease_rows(operands.len()) {
                Ok(lease) => leases.push(lease),
                Err(e) => {
                    fail = Some(e.into());
                    break;
                }
            }
        }
        if fail.is_none() {
            'write: for (lease, operands) in leases.iter().zip(batches) {
                for (i, o) in operands.iter().enumerate() {
                    if let Err(e) = self.substrate_mut().write_packed(lease.row(i), o) {
                        fail = Some(e.into());
                        break 'write;
                    }
                }
            }
        }
        match fail {
            None => Ok(leases),
            Some(e) => {
                for lease in leases {
                    self.end_lease(lease);
                }
                Err(e)
            }
        }
    }

    fn end_stage(&mut self, lease: RowLease) {
        self.end_lease(lease);
    }

    fn run_prepared_leased<F: FnMut(usize, &Step)>(
        &mut self,
        prep: &PreparedProgram,
        lease: &RowLease,
        operands: &[PackedBits],
        mut on_step: F,
    ) -> Result<PackedBits> {
        let prog = prep.program();
        prep.check_fan_in(self.substrate().max_fan_in())?;
        check_operands(prog, operands.len())?;
        let inputs = lease.rows();
        let mut regs: Vec<Option<BitRow>> = vec![None; prog.n_regs];
        for (r, row) in inputs.iter().enumerate() {
            regs[r] = Some(*row);
        }
        let result = run_prepared_vm(self, prep, inputs, &mut regs, &mut on_step);
        if result.is_err() {
            // A failure must not strand live temporaries (inputs
            // belong to the lease).
            for slot in regs.iter_mut().skip(inputs.len()) {
                if let Some(row) = slot.take() {
                    self.release(row);
                }
            }
        }
        result
    }
}

/// The prepared step walk for the VM backend: each gate runs on rows
/// (the substrate owns their values) and returns the bits it stored;
/// the walk keeps only the output register's, from the step that
/// defines it. Rows are allocated and freed in step order — one result
/// row per step, temporaries released at their last use. The pool
/// permutes rows on reuse and the device model's stochastic draws key
/// on row indices, so this order is part of the result.
fn run_prepared_vm<S: Substrate, F: FnMut(usize, &Step)>(
    vm: &mut SimdVm<S>,
    prep: &PreparedProgram,
    inputs: &[BitRow],
    regs: &mut [Option<BitRow>],
    on_step: &mut F,
) -> Result<PackedBits> {
    let prog = prep.program();
    let mut arows: Vec<BitRow> = Vec::with_capacity(MAX_FAN_IN);
    let mut out_val = None;
    for (i, step) in prog.steps.iter().enumerate() {
        arows.clear();
        arows.extend(
            step.args
                .iter()
                .map(|r| regs[*r].expect("mapper emits defs before uses")),
        );
        // Recorded before the gate runs, so a failed gate's row is
        // released with the other temporaries.
        let out = vm.alloc_row()?;
        regs[step.out] = Some(out);
        // NOT and one-input inverted gates take the NOT kernel,
        // one-input monotone gates copy, everything else (≤ fan-in ≤
        // MAX_FAN_IN by the `check_fan_in` guard) is one native gate.
        let sub = vm.substrate_mut();
        let bits = match step.op {
            None => sub.not(arows[0], out)?,
            Some(op) if arows.len() == 1 && !op.is_inverted_terminal() => {
                sub.copy(arows[0], out)?
            }
            Some(_) if arows.len() == 1 => sub.not(arows[0], out)?,
            Some(op) => sub.logic(op, &arows, out)?,
        };
        if prep.output == OutputAction::Reg(step.out) {
            out_val = Some(bits.clone());
        }
        on_step(i, step);
        for r in &prep.frees[i] {
            if let Some(row) = regs[*r].take() {
                vm.release(row);
            }
        }
    }
    let src = match prep.output {
        OutputAction::Const(b) => {
            if b {
                vm.one_row()
            } else {
                vm.zero_row()
            }
        }
        OutputAction::Passthrough(r) => inputs[r],
        OutputAction::Reg(r) => {
            let row = regs[r].take().expect("output register defined");
            vm.release(row);
            return Ok(out_val.expect("output register defined"));
        }
    };
    let out = vm.alloc_row()?;
    let copied = vm.substrate_mut().copy(src, out).cloned();
    vm.release(out);
    Ok(copied?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExecError;
    use fcsynth::{CostModel, SynthProgram};
    use simdram::HostSubstrate;
    use std::sync::Arc;

    /// `prepare` + `run_prepared` without an observer.
    fn execute<S: Substrate>(
        vm: &mut SimdVm<S>,
        prog: &Arc<SynthProgram>,
        ops: &[PackedBits],
    ) -> Result<PackedBits> {
        let prep = vm.prepare(prog)?;
        crate::run_prepared(vm, &prep, ops)
    }

    fn mapped(text: &str) -> fcsynth::Mapping {
        let cost = CostModel::table1_defaults();
        fcsynth::compile(text, &cost, 16).unwrap().mapping
    }

    fn random_operands(n: usize, lanes: usize, seed: u64) -> Vec<PackedBits> {
        (0..n)
            .map(|i| PackedBits::seeded(seed, i as u64, lanes))
            .collect()
    }

    #[test]
    fn host_execution_is_bit_exact() {
        for text in [
            "a ^ b ^ c ^ d",
            "(a & b) | (a & c) | (b & c)",
            "!(a | b | c) & (d ^ e)",
            "a",
            "!a",
            "a & !a",
            "a | 1",
        ] {
            let cost = CostModel::table1_defaults();
            let compiled = fcsynth::compile(text, &cost, 16).unwrap();
            let lanes = 130;
            let ops = random_operands(compiled.circuit.inputs().len(), lanes, 0xBEEF);
            let expect = compiled.circuit.eval_packed(&ops);
            let mut vm = SimdVm::new(HostSubstrate::new(lanes, 256)).unwrap();
            let got = execute(&mut vm, &compiled.mapping.program, &ops).unwrap();
            assert_eq!(got, expect, "{text}");
        }
    }

    #[test]
    fn execution_frees_every_temporary() {
        let m = mapped("(a & b & c & d) ^ (e | f | g | h)");
        let lanes = 64;
        let mut vm = SimdVm::new(HostSubstrate::new(lanes, 256)).unwrap();
        let live0 = vm.substrate().live_rows();
        let ops = random_operands(8, lanes, 7);
        let out = execute(&mut vm, &m.program, &ops).unwrap();
        assert_eq!(out.len(), lanes);
        assert_eq!(
            vm.substrate().live_rows(),
            live0,
            "all staged and temporary rows returned"
        );
    }

    #[test]
    fn observer_sees_every_step_and_narrowed_stays_exact() {
        let text = "(a & b & c & d & e & f & g & h) ^ !(i | j | k | l | m)";
        let cost = CostModel::table1_defaults();
        let compiled = fcsynth::compile(text, &cost, 16).unwrap();
        let lanes = 77;
        let ops = random_operands(compiled.circuit.inputs().len(), lanes, 0x0B5E);
        let expect = compiled.circuit.eval_packed(&ops);
        let m = &compiled.mapping;
        for prog in [
            Arc::clone(&m.program),
            Arc::new(m.program.narrowed(3)),
            Arc::new(m.program.narrowed(2)),
        ] {
            let mut vm = SimdVm::new(HostSubstrate::new(lanes, 256)).unwrap();
            let mut seen = Vec::new();
            let prep = vm.prepare(&prog).unwrap();
            let got = vm
                .run_prepared(&prep, &ops, |i, s| {
                    seen.push((i, s.args.len()));
                })
                .unwrap();
            assert_eq!(got, expect, "narrowed program diverged");
            assert_eq!(seen.len(), prog.steps.len(), "observer missed steps");
            for (k, (i, _)) in seen.iter().enumerate() {
                assert_eq!(*i, k, "steps observed in order");
            }
        }
    }

    #[test]
    fn operand_mismatch_is_rejected() {
        let m = mapped("a & b");
        let mut vm = SimdVm::new(HostSubstrate::new(8, 64)).unwrap();
        let err = execute(&mut vm, &m.program, &random_operands(1, 8, 1)).unwrap_err();
        assert!(matches!(
            err,
            ExecError::InputMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn mid_program_failure_releases_temporaries() {
        // Narrowed to 2-input gates, this program needs several
        // temporaries; capacity 7 (2 constants + 4 operands + 1 free
        // row) lets staging and the first step succeed, then a later
        // step runs out of rows mid-program. The register file's live
        // temporaries must be reclaimed on the error path.
        let m = mapped("(a & b) | (c & d) | (a & d)");
        let prog = Arc::new(m.program.narrowed(2));
        let mut vm = SimdVm::new(HostSubstrate::new(8, 7)).unwrap();
        let live0 = vm.substrate().live_rows();
        let ops = random_operands(4, 8, 3);
        let err = execute(&mut vm, &prog, &ops).unwrap_err();
        assert!(matches!(err, ExecError::Vm(_)), "{err}");
        assert_eq!(
            vm.substrate().live_rows(),
            live0,
            "mid-program failure stranded temporaries"
        );
        // The pool is fully recovered: a small program still executes.
        let tiny = mapped("a & b");
        let out = execute(&mut vm, &tiny.program, &random_operands(2, 8, 4)).unwrap();
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn failed_gates_release_their_rows() {
        // A Samsung part has no `N:N` pattern, so every logic gate
        // fails after its result row is allocated. Each failure must
        // return that row: a stranded one per run drains the pool
        // until the error turns into row exhaustion.
        let cfg = dram_core::config::table1()
            .into_iter()
            .find(|m| m.manufacturer == dram_core::Manufacturer::Samsung)
            .unwrap()
            .with_modeled_cols(64);
        let engine = fcdram::BulkEngine::new(
            fcdram::Fcdram::new(cfg),
            dram_core::BankId(0),
            dram_core::SubarrayId(0),
        )
        .unwrap();
        let mut vm = SimdVm::new(simdram::DramSubstrate::new(engine)).unwrap();
        let m = mapped("a & b");
        let ops = random_operands(2, SimdVm::lanes(&vm), 5);
        let first = execute(&mut vm, &m.program, &ops).unwrap_err();
        assert!(matches!(first, ExecError::Vm(_)), "{first}");
        for run in 1..600 {
            let err = execute(&mut vm, &m.program, &ops).unwrap_err();
            assert_eq!(err, first, "run {run}");
        }
    }

    #[test]
    fn failed_stage_rolls_back_the_lease() {
        let m = mapped("a & b & c & d & e & f");
        // Capacity 4 minus the two shared constant rows: staging six
        // operands must fail and leave no rows behind.
        let mut vm = SimdVm::new(HostSubstrate::new(8, 4)).unwrap();
        let live0 = vm.substrate().live_rows();
        let err = execute(&mut vm, &m.program, &random_operands(6, 8, 2)).unwrap_err();
        assert!(matches!(err, ExecError::Vm(_)), "{err}");
        assert_eq!(vm.substrate().live_rows(), live0, "stage rolled back");
    }

    #[test]
    fn vm_trace_matches_mapping() {
        let m = mapped("(a ^ b) & (c | d | e)");
        let lanes = 32;
        let mut vm = SimdVm::new(HostSubstrate::new(lanes, 256)).unwrap();
        let ops = random_operands(5, lanes, 3);
        vm.clear_trace();
        let _ = execute(&mut vm, &m.program, &ops).unwrap();
        // Staging writes/reads are host transfers; the in-DRAM op
        // count must equal the mapping exactly.
        assert_eq!(vm.trace().in_dram_ops(), m.native_ops);
    }
}
