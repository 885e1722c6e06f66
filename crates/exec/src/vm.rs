//! The [`SimdVm`] backend: any [`Substrate`] behind the unified
//! engine.
//!
//! With [`simdram::HostSubstrate`] this is the workspace's golden
//! model (bit-exact results); with [`simdram::DramSubstrate`] gates
//! execute through [`fcdram::BulkEngine`] and inherit the
//! characterized per-cell success rates. Operand staging uses
//! [`SimdVm::lease_rows`]/[`SimdVm::end_lease`], so a scheduler's row
//! accounting stays per job and a failed stage leaves the substrate
//! exactly as it was.

use crate::engine::{check_operands, execute_with, ExecBackend};
use crate::error::Result;
use crate::prepared::{OutputAction, PreparedProgram};
use dram_core::LogicOp;
use fcdram::PackedBits;
use fcsynth::Step;
use simdram::{BitRow, RowLease, SimdVm, Substrate, MAX_FAN_IN};

impl<S: Substrate> ExecBackend for SimdVm<S> {
    type Row = BitRow;
    type Lease = RowLease;

    fn lanes(&self) -> usize {
        SimdVm::lanes(self)
    }

    fn max_fan_in(&self) -> usize {
        self.substrate().max_fan_in()
    }

    fn stage(&mut self, operands: &[PackedBits]) -> Result<RowLease> {
        let lease = self.lease_rows(operands.len())?;
        for (i, o) in operands.iter().enumerate() {
            if let Err(e) = self.substrate_mut().write_packed(lease.row(i), o) {
                self.end_lease(lease);
                return Err(e.into());
            }
        }
        Ok(lease)
    }

    fn stage_many(&mut self, batches: &[&[PackedBits]]) -> Result<Vec<RowLease>> {
        // All leases first, then every row write in one pass — a
        // single loop over the substrate instead of interleaved
        // lease/write/lease/write bookkeeping. Write order (batch
        // order, operand order within a batch) matches the looped
        // default exactly.
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

    fn lease_rows(lease: &RowLease) -> &[BitRow] {
        lease.rows()
    }

    fn end_stage(&mut self, lease: RowLease) {
        self.end_lease(lease);
    }

    fn op(&mut self, op: Option<LogicOp>, args: &[BitRow]) -> Result<BitRow> {
        let out = match op {
            None => self.bit_not(args[0])?,
            Some(LogicOp::And) => self.bit_and(args)?,
            Some(LogicOp::Or) => self.bit_or(args)?,
            Some(LogicOp::Nand) => self.bit_nand(args)?,
            Some(LogicOp::Nor) => self.bit_nor(args)?,
        };
        Ok(out)
    }

    fn constant(&mut self, value: bool) -> Result<BitRow> {
        let out = self.alloc_row()?;
        let src = if value {
            self.one_row()
        } else {
            self.zero_row()
        };
        self.substrate_mut().copy(src, out)?;
        Ok(out)
    }

    fn duplicate(&mut self, src: BitRow) -> Result<BitRow> {
        let out = self.alloc_row()?;
        self.substrate_mut().copy(src, out)?;
        Ok(out)
    }

    fn read_row(&mut self, r: BitRow) -> Result<PackedBits> {
        Ok(self.substrate_mut().read_packed(r)?)
    }

    fn release(&mut self, r: BitRow) {
        SimdVm::release(self, r);
    }

    fn run_prepared_leased<F: FnMut(usize, &Step)>(
        &mut self,
        prep: &PreparedProgram,
        lease: &RowLease,
        operands: &[PackedBits],
        mut on_step: F,
    ) -> Result<PackedBits> {
        let prog = prep.program();
        if !prep.fits(self.substrate().max_fan_in()) {
            // Over-wide steps: the unprepared walk over the caller's
            // staged rows.
            let inputs: Vec<BitRow> = lease.rows().to_vec();
            let out = execute_with(self, prog, &inputs, on_step)?;
            let packed = self.read_row(out);
            ExecBackend::release(self, out);
            return packed;
        }
        check_operands(prog, operands.len())?;
        let inputs: Vec<BitRow> = lease.rows().to_vec();
        let mut regs: Vec<Option<BitRow>> = vec![None; prog.n_regs];
        // Operand values stay borrowed from `operands`; `vals` holds the
        // step results only.
        let mut vals: Vec<Option<PackedBits>> = vec![None; prog.n_regs];
        for (r, row) in inputs.iter().enumerate() {
            regs[r] = Some(*row);
        }
        let result = run_prepared_vm(
            self,
            prep,
            operands,
            &inputs,
            &mut regs,
            &mut vals,
            &mut on_step,
        );
        if result.is_err() {
            // A failure mid-visit must not leave the substrate in
            // fused mode (or hold a deferred write) for later callers.
            let _ = self.substrate_mut().end_visit();
            // Same reclamation as the unprepared engine: a failure must
            // not strand live temporaries (inputs belong to the lease).
            for slot in regs.iter_mut().skip(inputs.len()) {
                if let Some(row) = slot.take() {
                    SimdVm::release(self, row);
                }
            }
        }
        result
    }
}

/// The prepared step walk for the VM backend: values are threaded
/// host-side through the substrate's `*_known` operations, while rows
/// are allocated and freed in *exactly* the unprepared engine's order —
/// the pool permutes rows on reuse and the device model's stochastic
/// draws key on row indices, so any reordering would change results.
///
/// Step inputs are borrowed (register `r < operands.len()` is operand
/// `r`, every later register a step result in `vals`), so each step
/// allocates only the result bits its substrate call returns.
#[allow(clippy::too_many_arguments)]
fn run_prepared_vm<S: Substrate, F: FnMut(usize, &Step)>(
    vm: &mut SimdVm<S>,
    prep: &PreparedProgram,
    operands: &[PackedBits],
    inputs: &[BitRow],
    regs: &mut [Option<BitRow>],
    vals: &mut [Option<PackedBits>],
    on_step: &mut F,
) -> Result<PackedBits> {
    let prog = prep.program();
    // Per-step argument buffers: rows reuse one vector, values fill a
    // stack array (`unused` is an empty placeholder, never read).
    let mut arows: Vec<BitRow> = Vec::with_capacity(MAX_FAN_IN);
    let unused = PackedBits::zeros(0);
    // Fused visit bounds: begin before the first step of each visit,
    // end (flushing the deferred result write) after the last. Copy
    // steps and the output stage always run outside a visit.
    let mut visits = prep.visits.iter().peekable();
    for (i, step) in prog.steps.iter().enumerate() {
        if let Some((start, _)) = visits.peek() {
            if i == *start {
                vm.substrate_mut().begin_visit();
            }
        }
        arows.clear();
        arows.extend(
            step.args
                .iter()
                .map(|r| regs[*r].expect("mapper emits defs before uses")),
        );
        let out = vm.alloc_row()?;
        // Mirrors the unprepared dispatch exactly: NOT and one-input
        // inverted gates take the NOT kernel, one-input monotone gates
        // copy, everything else (≤ fan-in ≤ MAX_FAN_IN by the `fits`
        // guard) is one native gate.
        let bits = match step.op {
            None => {
                let v = value(operands, vals, step.args[0]);
                vm.substrate_mut().not_known(arows[0], v, out)?
            }
            Some(op) if arows.len() == 1 && !op.is_inverted_terminal() => {
                let v = value(operands, vals, step.args[0]);
                vm.substrate_mut().copy_known(arows[0], v, out)?
            }
            Some(_) if arows.len() == 1 => {
                let v = value(operands, vals, step.args[0]);
                vm.substrate_mut().not_known(arows[0], v, out)?
            }
            Some(op) => {
                let mut avals = [&unused; MAX_FAN_IN];
                for (slot, r) in avals.iter_mut().zip(&step.args) {
                    *slot = value(operands, vals, *r);
                }
                let avals = &avals[..step.args.len()];
                vm.substrate_mut().logic_known(op, &arows, avals, out)?
            }
        };
        regs[step.out] = Some(out);
        vals[step.out] = Some(bits);
        on_step(i, step);
        for r in &prep.frees[i] {
            if let Some(row) = regs[*r].take() {
                SimdVm::release(vm, row);
            }
        }
        if let Some((_, end)) = visits.peek() {
            if i + 1 == *end {
                vm.substrate_mut().end_visit()?;
                visits.next();
            }
        }
    }
    let (out_row, out_val) = match prep.output {
        OutputAction::Const(b) => {
            let out = vm.alloc_row()?;
            let src = if b { vm.one_row() } else { vm.zero_row() };
            let splat = PackedBits::splat(b, SimdVm::lanes(vm));
            let bits = vm.substrate_mut().copy_known(src, &splat, out)?;
            (out, bits)
        }
        OutputAction::Passthrough(r) => {
            let out = vm.alloc_row()?;
            let bits = vm
                .substrate_mut()
                .copy_known(inputs[r], &operands[r], out)?;
            (out, bits)
        }
        OutputAction::Reg(r) => {
            let row = regs[r].take().expect("output register defined");
            let bits = vals[r].take().expect("output value tracked");
            (row, bits)
        }
    };
    SimdVm::release(vm, out_row);
    Ok(out_val)
}

/// The current value of register `r`: an operand or a step result.
fn value<'a>(
    operands: &'a [PackedBits],
    vals: &'a [Option<PackedBits>],
    r: usize,
) -> &'a PackedBits {
    match operands.get(r) {
        Some(v) => v,
        None => vals[r].as_ref().expect("value tracked"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute_packed, execute_packed_with};
    use crate::error::ExecError;
    use fcsynth::CostModel;
    use simdram::HostSubstrate;

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
            let got = execute_packed(&mut vm, &compiled.mapping.program, &ops).unwrap();
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
        let out = execute_packed(&mut vm, &m.program, &ops).unwrap();
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
            m.program.clone(),
            m.program.narrowed(3),
            m.program.narrowed(2),
        ] {
            let mut vm = SimdVm::new(HostSubstrate::new(lanes, 256)).unwrap();
            let mut seen = Vec::new();
            let got = execute_packed_with(&mut vm, &prog, &ops, |i, s| {
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
        let err = execute_packed(&mut vm, &m.program, &random_operands(1, 8, 1)).unwrap_err();
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
        let prog = m.program.narrowed(2);
        let mut vm = SimdVm::new(HostSubstrate::new(8, 7)).unwrap();
        let live0 = vm.substrate().live_rows();
        let ops = random_operands(4, 8, 3);
        let err = execute_packed(&mut vm, &prog, &ops).unwrap_err();
        assert!(matches!(err, ExecError::Vm(_)), "{err}");
        assert_eq!(
            vm.substrate().live_rows(),
            live0,
            "mid-program failure stranded temporaries"
        );
        // The pool is fully recovered: a small program still executes.
        let tiny = mapped("a & b");
        let out = execute_packed(&mut vm, &tiny.program, &random_operands(2, 8, 4)).unwrap();
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn failed_stage_rolls_back_the_lease() {
        let m = mapped("a & b & c & d & e & f");
        // Capacity 4 minus the two shared constant rows: staging six
        // operands must fail and leave no rows behind.
        let mut vm = SimdVm::new(HostSubstrate::new(8, 4)).unwrap();
        let live0 = vm.substrate().live_rows();
        let err = execute_packed(&mut vm, &m.program, &random_operands(6, 8, 2)).unwrap_err();
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
        let _ = execute_packed(&mut vm, &m.program, &ops).unwrap();
        // Staging writes/reads are host transfers; the in-DRAM op
        // count must equal the mapping exactly.
        assert_eq!(vm.trace().in_dram_ops(), m.native_ops);
    }
}
