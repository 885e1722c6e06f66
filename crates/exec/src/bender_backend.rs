//! The command-schedule backend: mapped programs executed as explicit
//! cycle-timed DDR4 command programs through [`bender::Bender`]'s
//! gap-recognizing executor.
//!
//! Where [`simdram::DramSubstrate`] asks [`fcdram::BulkEngine`] to run
//! each gate through the [`fcdram::Fcdram`] value ops, this backend
//! ships the gate's command program itself — the paper's §5–§6
//! schedule: N−1 constant reference rows plus one `Frac`, the N
//! operand stagings, and the doubly-violated charge-sharing activation
//! (for NOT, the staging write plus the tRP-violating copy-invert pair)
//! — through [`bender::Bender::execute`], which re-derives the analog
//! consequences purely from the inter-command gaps.
//!
//! ## Bit-identity with the VM backend
//!
//! Both backends take every gate's program from the same builder,
//! [`fcdram::GateSite`], over the same activation-map entries
//! ([`BulkEngine::not_entry`], [`BulkEngine::logic_entry`]); this
//! backend builds it once per shape as a template and patches the
//! operand payloads in. The device-call sequence is therefore the same
//! by construction, and on the same module configuration the two
//! backends produce bit-identical results for every program
//! (`tests/exec_equivalence.rs` pins this in both fidelity modes),
//! because the device model's stochastic draws are a pure function of
//! `(operation counter, row, column)` state that both backends advance
//! identically.

use crate::engine::{check_operands, ExecBackend};
use crate::error::{ExecError, Result};
use crate::prepared::{OutputAction, PreparedProgram};
use bender::{DdrCommand, Program, ProgramBuilder};
use dram_core::{Bit, CsTerminal, GlobalRow, LogicOp, OutcomeKind, SpeedBin};
use fcdram::{BitVecHandle, BulkEngine, PackedBits, Prelude};
use fcsynth::{Step, SynthProgram};
use std::collections::BTreeMap;

/// A precompiled gate schedule for one `(op family, N)` shape: the
/// full command program with constant payloads, plus the `Wr` command
/// indices where per-execution operand data is patched in.
#[derive(Debug, Clone)]
pub(crate) struct GateTemplate {
    program: Program,
    /// Command indices of the N compute-side `Wr` payloads, in row
    /// order (operands first, then identity padding).
    operand_wr: Vec<usize>,
    /// First result row of the monotone terminal (AND/OR).
    result_row_monotone: GlobalRow,
    /// First result row of the inverted terminal (NAND/NOR).
    result_row_inverted: GlobalRow,
}

/// The precompiled NOT schedule: staging write plus copy-invert pair.
#[derive(Debug, Clone)]
pub(crate) struct NotTemplate {
    program: Program,
    /// Command index of the staging `Wr` payload.
    wr: usize,
    result_row: GlobalRow,
}

/// Every command template one [`PreparedProgram`] needs on this
/// backend, keyed by gate shape. Built once in
/// [`ExecBackend::prepare`], cloned-and-patched per execution.
#[derive(Debug, Clone, Default)]
pub(crate) struct BenderTemplates {
    gates: BTreeMap<(bool, usize), GateTemplate>,
    not_t: Option<NotTemplate>,
}

impl BenderTemplates {
    /// Number of distinct precompiled command programs.
    pub(crate) fn count(&self) -> usize {
        self.gates.len() + usize::from(self.not_t.is_some())
    }

    /// Deterministic byte serialization: `BTreeMap` iteration order
    /// plus `Debug` formatting of cycle-pinned commands — two
    /// preparations of the same program are witness-equal exactly when
    /// their templates are.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        format!("{self:?}").into_bytes()
    }
}

/// A mapped-program execution backend that drives a (simulated) chip
/// exclusively through combined command schedules.
///
/// Construction wraps a [`BulkEngine`] (same discovery, same reserved
/// scratch, same allocation pool as the VM backend's
/// [`simdram::DramSubstrate`]) and mirrors [`simdram::SimdVm::new`] by
/// allocating the two shared constant rows.
#[derive(Debug)]
pub struct BenderBackend {
    engine: BulkEngine,
    zero: BitVecHandle,
    one: BitVecHandle,
    max_fan_in: usize,
    speed: SpeedBin,
    native_ops: usize,
}

impl BenderBackend {
    /// Wraps a bulk engine, allocating the shared constant rows.
    ///
    /// # Errors
    ///
    /// Fails when the engine cannot allocate two rows.
    pub fn new(mut engine: BulkEngine) -> Result<Self> {
        let max_fan_in = engine.max_fan_in();
        let speed = engine.config().speed;
        let zero = engine.alloc()?;
        engine.fill(&zero, false)?;
        let one = engine.alloc()?;
        engine.fill(&one, true)?;
        Ok(BenderBackend {
            engine,
            zero,
            one,
            max_fan_in,
            speed,
            native_ops: 0,
        })
    }

    /// Builds the full stack for chip 0 of a module configuration.
    ///
    /// # Errors
    ///
    /// Fails when discovery finds no usable activation pattern on this
    /// part (e.g. Micron behaviour) or rows run out.
    pub fn from_config(cfg: dram_core::ModuleConfig) -> Result<Self> {
        let engine = BulkEngine::new(
            fcdram::Fcdram::new(cfg),
            dram_core::BankId(0),
            dram_core::SubarrayId(0),
        )?;
        BenderBackend::new(engine)
    }

    /// The wrapped engine (for inspection).
    pub fn engine(&self) -> &BulkEngine {
        &self.engine
    }

    /// The current simulation configuration of the chip under test.
    pub fn sim_config(&self) -> dram_core::SimConfig {
        self.engine.sim_config()
    }

    /// Applies a [`dram_core::SimConfig`] to the chip under test
    /// (stored bits are identical across fidelity modes).
    pub fn configure(&mut self, cfg: dram_core::SimConfig) {
        self.engine.configure(cfg);
    }

    /// Builder form of [`BenderBackend::configure`] for construction
    /// chains.
    #[must_use]
    pub fn with_sim_config(mut self, cfg: dram_core::SimConfig) -> Self {
        self.configure(cfg);
        self
    }

    /// Native operations executed so far (each combined schedule
    /// counts once, including output-stage copies).
    pub fn native_ops(&self) -> usize {
        self.native_ops
    }

    /// Ships a combined schedule to the device and returns the
    /// semantic outcome of its *last* recognized operation.
    fn run_schedule(&mut self, program: &Program) -> Result<Option<OutcomeKind>> {
        let chip = self.engine.fcdram().chip();
        let exec = self
            .engine
            .fcdram_mut()
            .bender_mut()
            .execute(chip, program)?;
        self.native_ops += 1;
        Ok(exec.outcomes.last().map(|(_, o)| o.kind.clone()))
    }

    /// Reads back the first result row of an executed operation
    /// (shared columns, packed).
    fn read_result_row(&mut self, row: GlobalRow) -> Result<PackedBits> {
        let chip = self.engine.fcdram().chip();
        let bank = self.engine.bank();
        let start = self.engine.shared_start();
        let lanes = self.engine.capacity_bits();
        let words = self
            .engine
            .fcdram_mut()
            .bender_mut()
            .read_row_packed(chip, bank, row, start)?;
        Ok(PackedBits::from_words(words, lanes))
    }

    /// The reusable command program for one `(op family, N)` gate
    /// shape: [`fcdram::GateSite::logic`] over the engine's `N:N`
    /// entry with every compute-side payload constant, plus the first
    /// result row of each terminal.
    fn build_gate_template(&self, and_family: bool, n: usize) -> Result<GateTemplate> {
        let entry = self.engine.logic_entry(n)?;
        let site = self.engine.fcdram().site(self.engine.bank());
        let (monotone, inverted) = if and_family {
            (LogicOp::And, LogicOp::Nand)
        } else {
            (LogicOp::Or, LogicOp::Nor)
        };
        let mut b = ProgramBuilder::new(self.speed);
        let gate = site.logic(&mut b, entry, monotone, std::iter::empty())?;
        Ok(GateTemplate {
            program: b.finish(),
            operand_wr: gate.operand_wr,
            result_row_monotone: gate.result_rows[0],
            result_row_inverted: site.terminal_rows(entry, inverted)?[0],
        })
    }

    /// The reusable NOT program: [`fcdram::GateSite::not`] over the
    /// engine's NOT entry with a zero staging payload.
    fn build_not_template(&self) -> Result<NotTemplate> {
        let entry = self.engine.not_entry()?;
        let site = self.engine.fcdram().site(self.engine.bank());
        let mut b = ProgramBuilder::new(self.speed);
        let zeros = vec![Bit::Zero; site.geom.cols()];
        let gate = site.not(&mut b, entry, zeros)?;
        Ok(NotTemplate {
            program: b.finish(),
            wr: gate.operand_wr[0],
            result_row: gate.result_rows[0],
        })
    }

    /// Materializes a template program for one execution. With a
    /// deferred result write pending, the prelude — the exact `Wr`
    /// sequence [`fcdram::Fcdram::write_row`] would issue as its own
    /// program, so the device sees an identical command stream either
    /// way — is emitted first and the template appended after it in a
    /// single copy; otherwise the template is cloned as-is. Either way
    /// the `Wr` payloads are shared, not copied. Returns
    /// the program plus the index shift at which the template's
    /// recorded `Wr` command positions now sit, so callers patch
    /// operand payloads without a second pass over the commands.
    fn template_with_prelude(&self, template: &Program, prelude: Prelude) -> (Program, usize) {
        match prelude {
            None => (template.clone(), 0),
            Some((row, data)) => {
                let mut b = ProgramBuilder::new(self.speed);
                b.seq_write_row(self.engine.bank(), row, data);
                let shift = b.len();
                b.append_program(template);
                (b.finish(), shift)
            }
        }
    }

    /// Lands a deferred result write host-path (the same
    /// `Fcdram::write_row` an immediate write-back after the gate
    /// would issue).
    fn flush_result(&mut self, pending: Prelude) -> Result<()> {
        if let Some((row, data)) = pending {
            let bank = self.engine.bank();
            self.engine.fcdram_mut().write_row(bank, row, data)?;
        }
        Ok(())
    }

    /// One prepared NOT: clone the template, patch the staging payload
    /// from the tracked value (the operand read-back is elided), ship
    /// — with any deferred result write fused in as the program's
    /// prelude — and return the result bits plus this step's own
    /// result write for the caller to defer or land.
    fn prepared_not(
        &mut self,
        t: &NotTemplate,
        val: &PackedBits,
        out: &BitVecHandle,
        prelude: Prelude,
    ) -> Result<(PackedBits, (GlobalRow, Vec<Bit>))> {
        let geom = self.engine.config().geometry();
        let cols = geom.cols();
        let start = self.engine.shared_start();
        let data = val.expand_strided(cols, start);
        let (mut program, shift) = self.template_with_prelude(&t.program, prelude);
        if let DdrCommand::Wr(_, payload) = &mut program.commands_mut()[shift + t.wr].command {
            *payload = data.into();
        }
        let outcome = self.run_schedule(&program)?;
        if !matches!(outcome, Some(OutcomeKind::Not { .. })) {
            return Err(ExecError::Protocol {
                detail: format!("copy-invert produced {outcome:?}"),
            });
        }
        let result = self.read_result_row(t.result_row)?;
        let full = result.expand_strided(cols, start);
        Ok((result, (out.row(), full)))
    }

    /// One prepared N-input gate: clone the template, patch the
    /// operand payloads from tracked values, arm the charge-share
    /// first-result-row mask when the activation map allows it, ship — with
    /// any deferred result write fused in as the program's prelude —
    /// read the one result row the step consumes, and return it plus
    /// this step's own result write for the caller to defer or land.
    fn prepared_gate(
        &mut self,
        t: &GateTemplate,
        op: LogicOp,
        vals: &[&PackedBits],
        out: &BitVecHandle,
        prelude: Prelude,
    ) -> Result<(PackedBits, (GlobalRow, Vec<Bit>))> {
        let geom = self.engine.config().geometry();
        let cols = geom.cols();
        let start = self.engine.shared_start();
        let (mut program, shift) = self.template_with_prelude(&t.program, prelude);
        for (i, v) in vals.iter().enumerate() {
            let data = v.expand_strided(cols, start);
            if let DdrCommand::Wr(_, payload) =
                &mut program.commands_mut()[shift + t.operand_wr[i]].command
            {
                *payload = data.into();
            }
        }
        if self.engine.mask_safe() {
            self.engine
                .fcdram_mut()
                .bender_mut()
                .arm_cs_mask(CsTerminal::first_row_of(op));
        }
        let outcome = self.run_schedule(&program)?;
        if !matches!(outcome, Some(OutcomeKind::Logic { .. })) {
            return Err(ExecError::Protocol {
                detail: format!("charge share produced {outcome:?}"),
            });
        }
        let row = if op.is_inverted_terminal() {
            t.result_row_inverted
        } else {
            t.result_row_monotone
        };
        let result = self.read_result_row(row)?;
        let full = result.expand_strided(cols, start);
        Ok((result, (out.row(), full)))
    }

    /// One prepared copy: [`BulkEngine::copy`] itself, so both backends
    /// take the same decision (RowClone only on pairs that raise
    /// exactly two rows, else a host write). It counts as one native
    /// operation either way, as the VM backend traces it.
    fn prepared_copy(
        &mut self,
        src: &BitVecHandle,
        val: &PackedBits,
        out: &BitVecHandle,
    ) -> Result<PackedBits> {
        self.native_ops += 1;
        Ok(self.engine.copy(src, val, out)?.1)
    }

    /// Returns a row to the engine's pool; the shared constant rows
    /// are kept.
    fn release(&mut self, r: BitVecHandle) {
        if r != self.zero && r != self.one {
            self.engine.free(r);
        }
    }
}

impl ExecBackend for BenderBackend {
    type Lease = Vec<BitVecHandle>;

    fn lanes(&self) -> usize {
        self.engine.capacity_bits()
    }

    fn max_fan_in(&self) -> usize {
        self.max_fan_in
    }

    fn stage(&mut self, operands: &[PackedBits]) -> Result<Vec<BitVecHandle>> {
        let mut leases = self.stage_many(&[operands])?;
        Ok(leases.pop().expect("one lease per batch"))
    }

    fn end_stage(&mut self, lease: Vec<BitVecHandle>) {
        for r in lease {
            self.release(r);
        }
    }

    fn step_latency_ns(&self, step: &Step) -> Option<f64> {
        Some(crate::latency::ScheduleLatency::new(self.speed).step_ns(step))
    }

    fn prepare(&mut self, prog: &std::sync::Arc<SynthProgram>) -> Result<PreparedProgram> {
        let mut prep = PreparedProgram::analyze(prog, self.max_fan_in);
        let mut templates = BenderTemplates::default();
        let mut need_not = false;
        for step in &prep.program().steps {
            match step.op {
                None => need_not = true,
                Some(op) if step.args.len() == 1 && !op.is_inverted_terminal() => {}
                Some(_) if step.args.len() == 1 => need_not = true,
                Some(op) => {
                    let n = self.engine.logic_entry(step.args.len())?.shape().1;
                    let key = (op.is_and_family(), n);
                    if let std::collections::btree_map::Entry::Vacant(slot) =
                        templates.gates.entry(key)
                    {
                        slot.insert(self.build_gate_template(op.is_and_family(), n)?);
                    }
                }
            }
        }
        if need_not && templates.not_t.is_none() {
            templates.not_t = Some(self.build_not_template()?);
        }
        prep.template_bytes = templates.to_bytes();
        prep.templates = Some(templates);
        Ok(prep)
    }

    fn stage_many(&mut self, batches: &[&[PackedBits]]) -> Result<Vec<Vec<BitVecHandle>>> {
        // Allocate every row of every batch first (all-or-nothing),
        // then emit ONE combined `Wr`-burst program staging the whole
        // batch: the same per-row write sequence separate `write_row`
        // programs would issue, so stored bits and the device command
        // stream are identical; the per-program fixed costs are paid
        // once.
        let lanes = self.engine.capacity_bits();
        let mut leases: Vec<Vec<BitVecHandle>> = Vec::with_capacity(batches.len());
        let mut fail: Option<ExecError> = None;
        'alloc: for operands in batches {
            let mut rows = Vec::with_capacity(operands.len());
            for o in operands.iter() {
                if o.len() != lanes {
                    fail = Some(ExecError::Engine(fcdram::FcdramError::WidthMismatch {
                        expected: lanes,
                        got: o.len(),
                    }));
                    leases.push(rows);
                    break 'alloc;
                }
                match self.engine.alloc() {
                    Ok(r) => rows.push(r),
                    Err(e) => {
                        fail = Some(e.into());
                        leases.push(rows);
                        break 'alloc;
                    }
                }
            }
            leases.push(rows);
        }
        if fail.is_none() {
            let geom = self.engine.config().geometry();
            let cols = geom.cols();
            let start = self.engine.shared_start();
            let bank = self.engine.bank();
            let mut b = ProgramBuilder::new(self.speed);
            let mut any = false;
            for (lease, operands) in leases.iter().zip(batches) {
                for (row, o) in lease.iter().zip(operands.iter()) {
                    b.seq_write_row(bank, row.row(), o.expand_strided(cols, start));
                    any = true;
                }
            }
            if any {
                let program = b.finish();
                let chip = self.engine.fcdram().chip();
                // Shipped directly (not `run_schedule`): staging writes
                // are host transfers, not native operations.
                if let Err(e) = self
                    .engine
                    .fcdram_mut()
                    .bender_mut()
                    .execute(chip, &program)
                {
                    fail = Some(ExecError::Engine(e.into()));
                }
            }
        }
        match fail {
            None => Ok(leases),
            Some(e) => {
                for lease in leases {
                    self.end_stage(lease);
                }
                Err(e)
            }
        }
    }

    fn run_prepared_leased<F: FnMut(usize, &Step)>(
        &mut self,
        prep: &PreparedProgram,
        lease: &Vec<BitVecHandle>,
        operands: &[PackedBits],
        mut on_step: F,
    ) -> Result<PackedBits> {
        prep.check_fan_in(self.max_fan_in)?;
        let templates = prep.templates.as_ref().ok_or_else(|| ExecError::Protocol {
            detail: "plan carries no command templates; prepare it on this backend".into(),
        })?;
        let prog = prep.program();
        check_operands(prog, operands.len())?;
        let mut regs: Vec<Option<BitVecHandle>> = vec![None; prog.n_regs];
        for (r, h) in lease.iter().enumerate() {
            regs[r] = Some(*h);
        }
        // Values of the steps' results; inputs are read from `operands`.
        let mut vals: Vec<Option<PackedBits>> = vec![None; prog.n_regs];
        let result = self.run_prepared_steps(
            templates,
            prep,
            operands,
            lease,
            &mut regs,
            &mut vals,
            &mut on_step,
        );
        if result.is_err() {
            for slot in regs.iter_mut().skip(lease.len()) {
                if let Some(h) = slot.take() {
                    self.release(h);
                }
            }
        }
        result
    }
}

impl BenderBackend {
    /// The prepared step walk: values are threaded host-side, rows are
    /// allocated and freed in exactly the VM backend's order (the pool
    /// permutes rows on reuse and the device's stochastic draws key on
    /// row indices).
    ///
    /// Each step's result write is deferred and shipped as the *next*
    /// fused program's prelude — one `execute` per gate instead of one
    /// per gate plus one per result write — landing host-path before
    /// any step that reads device rows (copies) and at the end of each
    /// visit. The device command stream is byte-identical to writing
    /// each result back on its own.
    #[allow(clippy::too_many_arguments)]
    fn run_prepared_steps<F: FnMut(usize, &Step)>(
        &mut self,
        templates: &BenderTemplates,
        prep: &PreparedProgram,
        operands: &[PackedBits],
        inputs: &[BitVecHandle],
        regs: &mut [Option<BitVecHandle>],
        vals: &mut [Option<PackedBits>],
        on_step: &mut F,
    ) -> Result<PackedBits> {
        let prog = prep.program();
        let mut pending: Prelude = None;
        for (i, step) in prog.steps.iter().enumerate() {
            let out = self.engine.alloc()?;
            // Same dispatch as the VM backend: NOT and one-input
            // inverted gates run the NOT schedule, one-input monotone
            // gates clone, everything else is one templated gate
            // (≤ fan-in by the `check_fan_in` guard).
            let bits = match step.op {
                None => {
                    let t = templates.not_t.as_ref().expect("prepared");
                    let v = tracked(operands, vals, step.args[0]);
                    let (bits, wr) = self.prepared_not(t, v, &out, pending.take())?;
                    pending = Some(wr);
                    bits
                }
                Some(op) if step.args.len() == 1 && !op.is_inverted_terminal() => {
                    // Copies read device rows, so any deferred write
                    // lands first (copy steps bound fused visits).
                    self.flush_result(pending.take())?;
                    let src = regs[step.args[0]].expect("mapper emits defs before uses");
                    self.prepared_copy(&src, tracked(operands, vals, step.args[0]), &out)?
                }
                Some(_) if step.args.len() == 1 => {
                    let t = templates.not_t.as_ref().expect("prepared");
                    let v = tracked(operands, vals, step.args[0]);
                    let (bits, wr) = self.prepared_not(t, v, &out, pending.take())?;
                    pending = Some(wr);
                    bits
                }
                Some(op) => {
                    let n = self.engine.logic_entry(step.args.len())?.shape().1;
                    let t = &templates.gates[&(op.is_and_family(), n)];
                    let avals: Vec<&PackedBits> = step
                        .args
                        .iter()
                        .map(|r| tracked(operands, vals, *r))
                        .collect();
                    let (bits, wr) = self.prepared_gate(t, op, &avals, &out, pending.take())?;
                    pending = Some(wr);
                    bits
                }
            };
            regs[step.out] = Some(out);
            vals[step.out] = Some(bits);
            on_step(i, step);
            for r in &prep.frees[i] {
                if let Some(h) = regs[*r].take() {
                    self.release(h);
                }
            }
        }
        // End of the last visit: the final deferred write lands before
        // the output stage touches device rows.
        self.flush_result(pending.take())?;
        let (out_h, out_val) = match prep.output {
            OutputAction::Const(b) => {
                let src = if b { self.one } else { self.zero };
                let out = self.engine.alloc()?;
                let splat = PackedBits::splat(b, self.engine.capacity_bits());
                let bits = self.prepared_copy(&src, &splat, &out)?;
                (out, bits)
            }
            OutputAction::Passthrough(r) => {
                let out = self.engine.alloc()?;
                let bits = self.prepared_copy(&inputs[r], &operands[r], &out)?;
                (out, bits)
            }
            OutputAction::Reg(r) => {
                let h = regs[r].take().expect("output register defined");
                let bits = vals[r].take().expect("output value tracked");
                (h, bits)
            }
        };
        self.release(out_h);
        Ok(out_val)
    }
}

/// The value register `r` holds: an operand for an input register,
/// else the result its defining step recorded.
fn tracked<'a>(
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
    use dram_core::{BankId, SubarrayId};
    use fcsynth::CostModel;
    use simdram::{DramSubstrate, SimdVm};

    fn engine(cols: usize) -> BulkEngine {
        let cfg = dram_core::config::table1()
            .remove(0)
            .with_modeled_cols(cols);
        BulkEngine::new(fcdram::Fcdram::new(cfg), BankId(0), SubarrayId(0)).unwrap()
    }

    fn random_operands(n: usize, lanes: usize, seed: u64) -> Vec<PackedBits> {
        (0..n)
            .map(|i| PackedBits::seeded(seed, i as u64, lanes))
            .collect()
    }

    /// `prepare` + `run_prepared` without an observer.
    fn execute<B: ExecBackend>(
        backend: &mut B,
        prog: &std::sync::Arc<SynthProgram>,
        ops: &[PackedBits],
    ) -> Result<PackedBits> {
        let prep = backend.prepare(prog)?;
        crate::run_prepared(backend, &prep, ops)
    }

    #[test]
    fn command_schedules_match_the_vm_backend_bit_for_bit() {
        let cost = CostModel::table1_defaults();
        for (text, seed) in [
            ("a & b", 1u64),
            ("!(a | b | c)", 2),
            ("(a ^ b) & (c | d)", 3),
            ("a&b&c&d&e&f&g&h", 4),
            ("!a", 5),
            ("a | 1", 6),
        ] {
            let compiled = fcsynth::compile(text, &cost, 16).unwrap();
            let k = compiled.circuit.inputs().len();
            let mut vm = SimdVm::new(DramSubstrate::new(engine(64))).unwrap();
            let mut cmd = BenderBackend::new(engine(64)).unwrap();
            assert_eq!(crate::ExecBackend::lanes(&vm), cmd.lanes());
            let ops = random_operands(k, cmd.lanes(), seed);
            let via_vm = execute(&mut vm, &compiled.mapping.program, &ops).unwrap();
            let via_cmd = execute(&mut cmd, &compiled.mapping.program, &ops).unwrap();
            assert_eq!(via_vm, via_cmd, "{text}: backends diverged");
            assert!(cmd.native_ops() > 0);
        }
    }

    #[test]
    fn backend_frees_every_row() {
        let cost = CostModel::table1_defaults();
        let compiled = fcsynth::compile("(a & b) ^ (c | d)", &cost, 16).unwrap();
        let mut cmd = BenderBackend::new(engine(64)).unwrap();
        let lanes = cmd.lanes();
        let ops = random_operands(4, lanes, 9);
        let before = cmd.engine().fcdram().config().name.clone();
        let _ = execute(&mut cmd, &compiled.mapping.program, &ops).unwrap();
        // Re-running on the same backend must still find rows — every
        // staged row, temporary, and result row was returned.
        for _ in 0..3 {
            let _ = execute(&mut cmd, &compiled.mapping.program, &ops).unwrap();
        }
        assert_eq!(cmd.engine().fcdram().config().name, before);
    }

    #[test]
    fn plans_without_templates_are_refused() {
        let cost = CostModel::table1_defaults();
        let compiled = fcsynth::compile("a & b", &cost, 16).unwrap();
        let mut cmd = BenderBackend::new(engine(64)).unwrap();
        let plan = PreparedProgram::analyze(&compiled.mapping.program, 16);
        let ops = random_operands(2, cmd.lanes(), 3);
        let err = crate::run_prepared(&mut cmd, &plan, &ops).unwrap_err();
        assert!(matches!(err, ExecError::Protocol { .. }), "{err}");
        assert_eq!(cmd.native_ops(), 0, "nothing ran");
    }

    #[test]
    fn step_latency_is_cycle_accurate() {
        let cmd = BenderBackend::new(engine(32)).unwrap();
        let wide = Step {
            op: Some(LogicOp::And),
            args: (0..16).collect(),
            out: 16,
        };
        let narrow = Step {
            op: Some(LogicOp::And),
            args: (0..2).collect(),
            out: 2,
        };
        let w = crate::ExecBackend::step_latency_ns(&cmd, &wide).unwrap();
        let n = crate::ExecBackend::step_latency_ns(&cmd, &narrow).unwrap();
        assert!(w > n && n > 0.0);
    }
}
