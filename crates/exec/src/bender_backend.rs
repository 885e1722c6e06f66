//! The command-schedule backend: mapped programs executed as explicit
//! cycle-timed DDR4 command programs through [`bender::Bender`]'s
//! gap-recognizing executor.
//!
//! Where [`simdram::DramSubstrate`] asks [`fcdram::BulkEngine`] to run
//! each gate (the engine issues several small command programs per
//! operation internally), this backend *emits one combined command
//! program per native operation* — the paper's §5–§6 schedule: N−1
//! constant reference rows plus one `Frac`, the N operand stagings,
//! and the doubly-violated charge-sharing activation (for NOT, the
//! staging write plus the tRP-violating copy-invert pair) — and ships
//! it through [`bender::Bender::execute`], which re-derives the analog
//! consequences purely from the inter-command gaps.
//!
//! ## Bit-identity with the VM backend
//!
//! The combined schedules reproduce the *exact* device-call sequence
//! the bulk engine performs — same activation-map entries, same rows,
//! same staged data, same order — so on the same module configuration
//! the two backends produce bit-identical results for every program
//! (`tests/exec_equivalence.rs` pins this in both fidelity modes).
//! That holds because the device model's stochastic draws are a pure
//! function of `(operation counter, row, column)` state that both
//! backends advance identically.

use crate::engine::{check_operands, execute_with, ExecBackend};
use crate::error::{ExecError, Result};
use crate::prepared::{OutputAction, PreparedProgram};
use bender::{DdrCommand, Program, ProgramBuilder};
use dram_core::{Bit, CsTerminal, GlobalRow, LogicOp, OutcomeKind, SpeedBin};
use fcdram::{BitVecHandle, BulkEngine, PackedBits, PatternEntry};
use fcsynth::{Step, SynthProgram};
use std::collections::BTreeMap;

/// Smallest discovered `N:N` activation width covering `len` inputs.
fn padded_width(len: usize, available: impl Fn(usize) -> bool) -> Option<usize> {
    [2usize, 4, 8, 16]
        .into_iter()
        .find(|n| *n >= len && available(*n))
}

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
        // Same native fan-in rule as `simdram::DramSubstrate`: the
        // largest discovered `N:N` activation shape.
        let max_fan_in = [16usize, 8, 4, 2]
            .into_iter()
            .find(|n| engine.map().find_nn(*n).is_some())
            .unwrap_or(2);
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

    #[doc(hidden)]
    pub fn set_fidelity(&mut self, fidelity: dram_core::SimFidelity) {
        let cfg = self.sim_config().with_fidelity(fidelity);
        self.configure(cfg);
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
            .read_row_packed(chip, bank, row, start, 2)?;
        Ok(PackedBits::from_words(words, lanes))
    }

    /// One native N-input gate as a single command schedule (constant
    /// reference rows, `Frac`, operand stagings, charge share), result
    /// written back into `out`'s pool row.
    fn native_gate(
        &mut self,
        op: LogicOp,
        args: &[BitVecHandle],
        out: &BitVecHandle,
    ) -> Result<()> {
        let geom = self.engine.config().geometry();
        let bank = self.engine.bank();
        let n = padded_width(args.len(), |n| self.engine.map().find_nn(n).is_some()).ok_or(
            ExecError::Engine(fcdram::FcdramError::BadInputCount {
                n: args.len(),
                max: self.engine.config().max_op_inputs(),
            }),
        )?;
        let entry: PatternEntry = self.engine.map().find_nn(n).expect("checked").clone();
        let packed_inputs: Vec<PackedBits> = args
            .iter()
            .map(|h| self.engine.read_packed(h))
            .collect::<fcdram::Result<_>>()?;
        let (sub_ref, _) = geom.split_row(entry.rf)?;
        let (sub_com, _) = geom.split_row(entry.rl)?;
        let start = self.engine.shared_start();
        let cols = geom.cols();
        let const_bit = Bit::from(op.is_and_family());
        let const_row = vec![const_bit; cols];
        let mut b = ProgramBuilder::new(self.speed);
        // Reference subarray: N−1 constant rows + one Frac row — the
        // same write order the bulk engine uses, so the device's
        // operation counter advances identically.
        for (i, row) in entry.first_rows.iter().enumerate() {
            let g = geom.join_row(sub_ref, *row)?;
            if i + 1 == entry.first_rows.len() {
                b.seq_frac(bank, g);
            } else {
                b.seq_write_row(bank, g, const_row.clone());
            }
        }
        // Compute subarray: the operands (shared half), identity-
        // padded to N rows with full-width constant rows.
        for (i, row) in entry.second_rows.iter().enumerate() {
            let g = geom.join_row(sub_com, *row)?;
            let data = match packed_inputs.get(i) {
                Some(p) => p.expand_strided(cols, start, 2),
                None => const_row.clone(),
            };
            b.seq_write_row(bank, g, data);
        }
        b.seq_charge_share(bank, entry.rf, entry.rl);
        let outcome = self.run_schedule(&b.finish())?;
        if !matches!(outcome, Some(OutcomeKind::Logic { .. })) {
            return Err(ExecError::Protocol {
                detail: format!("charge share produced {outcome:?}"),
            });
        }
        // Result rows: compute side for AND/OR, reference for
        // NAND/NOR; the first row carries the returned bits.
        let (result_sub, result_rows) = if op.is_inverted_terminal() {
            (sub_ref, &entry.first_rows)
        } else {
            (sub_com, &entry.second_rows)
        };
        let g = geom.join_row(result_sub, result_rows[0])?;
        let result = self.read_result_row(g)?;
        self.engine.write_packed(out, &result)?;
        Ok(())
    }

    /// The NOT schedule: staging write plus the tRP-violating
    /// copy-invert pair, result written back into `out`'s pool row.
    fn native_not(&mut self, a: BitVecHandle, out: &BitVecHandle) -> Result<()> {
        let geom = self.engine.config().geometry();
        let bank = self.engine.bank();
        let src = self.engine.read_packed(&a)?;
        let entry: PatternEntry = self
            .engine
            .map()
            .find_dst(1)
            .first()
            .cloned()
            .cloned()
            .or_else(|| self.engine.map().find_dst(2).first().cloned().cloned())
            .ok_or(ExecError::Engine(fcdram::FcdramError::NoPattern {
                n_rf: 1,
                n_rl: 1,
            }))?;
        let (sub_l, _) = geom.split_row(entry.rl)?;
        let src_full = src.expand_strided(geom.cols(), self.engine.shared_start(), 2);
        let mut b = ProgramBuilder::new(self.speed);
        b.seq_write_row(bank, entry.rf, src_full);
        b.seq_copy_invert(bank, entry.rf, entry.rl);
        let outcome = self.run_schedule(&b.finish())?;
        if !matches!(outcome, Some(OutcomeKind::Not { .. })) {
            return Err(ExecError::Protocol {
                detail: format!("copy-invert produced {outcome:?}"),
            });
        }
        let g = geom.join_row(sub_l, entry.second_rows[0])?;
        let result = self.read_result_row(g)?;
        self.engine.write_packed(out, &result)?;
        Ok(())
    }

    /// In-subarray RowClone as a command schedule, with the bulk
    /// engine's host-copy fallback for pairs the decoder predicate
    /// rejects.
    fn copy_into(&mut self, src: BitVecHandle, out: &BitVecHandle) -> Result<()> {
        let bank = self.engine.bank();
        let ideal = self.engine.read_packed(&src)?;
        let mut b = ProgramBuilder::new(self.speed);
        b.seq_copy_invert(bank, src.row(), out.row());
        let outcome = self.run_schedule(&b.finish())?;
        if !matches!(outcome, Some(OutcomeKind::InSubarray { .. })) {
            // Non-cloning pair: host read + write, exactly like
            // `BulkEngine::copy`'s fallback.
            self.engine.write_packed(out, &ideal)?;
        }
        Ok(())
    }

    /// Builds the reusable command program for one `(op family, N)`
    /// gate shape: the same sequence [`Self::native_gate`] assembles
    /// per call — N−1 constant reference rows plus `Frac`, N compute-
    /// side writes (all constant in the template), the charge share —
    /// with the operand `Wr` command indices recorded for per-
    /// execution payload patching.
    fn build_gate_template(&self, and_family: bool, n: usize) -> Result<GateTemplate> {
        let geom = self.engine.config().geometry();
        let bank = self.engine.bank();
        let entry: PatternEntry = self
            .engine
            .map()
            .find_nn(n)
            .expect("caller discovered the shape")
            .clone();
        let (sub_ref, _) = geom.split_row(entry.rf)?;
        let (sub_com, _) = geom.split_row(entry.rl)?;
        let const_row = vec![Bit::from(and_family); geom.cols()];
        let mut b = ProgramBuilder::new(self.speed);
        for (i, row) in entry.first_rows.iter().enumerate() {
            let g = geom.join_row(sub_ref, *row)?;
            if i + 1 == entry.first_rows.len() {
                b.seq_frac(bank, g);
            } else {
                b.seq_write_row(bank, g, const_row.clone());
            }
        }
        for row in &entry.second_rows {
            let g = geom.join_row(sub_com, *row)?;
            b.seq_write_row(bank, g, const_row.clone());
        }
        b.seq_charge_share(bank, entry.rf, entry.rl);
        let program = b.finish();
        let wr: Vec<usize> = program
            .commands()
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c.command, DdrCommand::Wr(..)))
            .map(|(i, _)| i)
            .collect();
        // The first N−1 `Wr`s stage the constant reference rows and
        // stay fixed; the next N are the compute-side operand slots.
        let operand_wr = wr[entry.first_rows.len() - 1..].to_vec();
        debug_assert_eq!(operand_wr.len(), entry.second_rows.len());
        Ok(GateTemplate {
            program,
            operand_wr,
            result_row_monotone: geom.join_row(sub_com, entry.second_rows[0])?,
            result_row_inverted: geom.join_row(sub_ref, entry.first_rows[0])?,
        })
    }

    /// Builds the reusable NOT program ([`Self::native_not`]'s
    /// sequence): one staging write (patched per execution) plus the
    /// tRP-violating copy-invert pair.
    fn build_not_template(&self) -> Result<NotTemplate> {
        let geom = self.engine.config().geometry();
        let bank = self.engine.bank();
        let entry: PatternEntry = self
            .engine
            .map()
            .find_dst(1)
            .first()
            .cloned()
            .cloned()
            .or_else(|| self.engine.map().find_dst(2).first().cloned().cloned())
            .ok_or(ExecError::Engine(fcdram::FcdramError::NoPattern {
                n_rf: 1,
                n_rl: 1,
            }))?;
        let (sub_l, _) = geom.split_row(entry.rl)?;
        let mut b = ProgramBuilder::new(self.speed);
        b.seq_write_row(bank, entry.rf, vec![Bit::Zero; geom.cols()]);
        b.seq_copy_invert(bank, entry.rf, entry.rl);
        let program = b.finish();
        let wr = program
            .commands()
            .iter()
            .position(|c| matches!(c.command, DdrCommand::Wr(..)))
            .expect("staging write present");
        Ok(NotTemplate {
            program,
            wr,
            result_row: geom.join_row(sub_l, entry.second_rows[0])?,
        })
    }

    /// Materializes a template program for one execution. With a
    /// deferred result write pending, the prelude — the exact `Wr`
    /// sequence [`fcdram::Fcdram::write_row`] would issue as its own
    /// program, so the device sees an identical command stream either
    /// way — is emitted first and the template appended after it in a
    /// single copy; otherwise the template is cloned as-is. Returns
    /// the program plus the index shift at which the template's
    /// recorded `Wr` command positions now sit, so callers patch
    /// operand payloads without a second pass over the commands.
    fn template_with_prelude(
        &self,
        template: &Program,
        prelude: Option<(GlobalRow, Vec<Bit>)>,
    ) -> (Program, usize) {
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
    fn flush_result(&mut self, pending: Option<(GlobalRow, Vec<Bit>)>) -> Result<()> {
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
        prelude: Option<(GlobalRow, Vec<Bit>)>,
    ) -> Result<(PackedBits, (GlobalRow, Vec<Bit>))> {
        let geom = self.engine.config().geometry();
        let cols = geom.cols();
        let start = self.engine.shared_start();
        let data = val.expand_strided(cols, start, 2);
        let (mut program, shift) = self.template_with_prelude(&t.program, prelude);
        if let DdrCommand::Wr(_, payload) = &mut program.commands_mut()[shift + t.wr].command {
            *payload = data;
        }
        let outcome = self.run_schedule(&program)?;
        if !matches!(outcome, Some(OutcomeKind::Not { .. })) {
            return Err(ExecError::Protocol {
                detail: format!("copy-invert produced {outcome:?}"),
            });
        }
        let result = self.read_result_row(t.result_row)?;
        let full = result.expand_strided(cols, start, 2);
        Ok((result, (out.row(), full)))
    }

    /// One prepared N-input gate: clone the template, patch the
    /// operand payloads from tracked values, arm the charge-share
    /// terminal mask when the activation map allows it, ship — with
    /// any deferred result write fused in as the program's prelude —
    /// read the one result row the step consumes, and return it plus
    /// this step's own result write for the caller to defer or land.
    fn prepared_gate(
        &mut self,
        t: &GateTemplate,
        op: LogicOp,
        vals: &[&PackedBits],
        out: &BitVecHandle,
        prelude: Option<(GlobalRow, Vec<Bit>)>,
    ) -> Result<(PackedBits, (GlobalRow, Vec<Bit>))> {
        let geom = self.engine.config().geometry();
        let cols = geom.cols();
        let start = self.engine.shared_start();
        let (mut program, shift) = self.template_with_prelude(&t.program, prelude);
        for (i, v) in vals.iter().enumerate() {
            let data = v.expand_strided(cols, start, 2);
            if let DdrCommand::Wr(_, payload) =
                &mut program.commands_mut()[shift + t.operand_wr[i]].command
            {
                *payload = data;
            }
        }
        if self.engine.mask_safe() {
            let need = if op.is_inverted_terminal() {
                CsTerminal::Reference
            } else {
                CsTerminal::Compute
            };
            self.engine.fcdram_mut().bender_mut().arm_cs_mask(need);
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
        let full = result.expand_strided(cols, start, 2);
        Ok((result, (out.row(), full)))
    }

    /// One prepared RowClone ([`Self::copy_into`] with the read-back
    /// elided): on a cloning pair the destination row's actual content
    /// is read once to keep the tracked value honest; non-cloning
    /// pairs fall back to the host write, whose value is exact.
    fn prepared_copy(
        &mut self,
        src: &BitVecHandle,
        val: &PackedBits,
        out: &BitVecHandle,
    ) -> Result<PackedBits> {
        let bank = self.engine.bank();
        let mut b = ProgramBuilder::new(self.speed);
        b.seq_copy_invert(bank, src.row(), out.row());
        let outcome = self.run_schedule(&b.finish())?;
        if matches!(outcome, Some(OutcomeKind::InSubarray { .. })) {
            self.read_result_row(out.row())
        } else {
            self.engine.write_packed(out, val)?;
            Ok(val.clone())
        }
    }

    /// Mirror of the VM backend's tree reduction for argument lists
    /// wider than the native fan-in: monotone stages chunked at the
    /// fan-in, with the final stage applying the (possibly inverting)
    /// operation — the same shape and device-call order as
    /// [`simdram`]'s `reduce`/`reduce_inverted`.
    fn reduce(&mut self, op: LogicOp, args: &[BitVecHandle]) -> Result<BitVecHandle> {
        let fan_in = self.max_fan_in;
        let stage_op = if op.is_inverted_terminal() {
            if op.is_and_family() {
                LogicOp::And
            } else {
                LogicOp::Or
            }
        } else {
            op
        };
        let mut level: Vec<BitVecHandle> = args.to_vec();
        let mut owned: Vec<BitVecHandle> = Vec::new();
        // Free the intermediates whether the tree completes or a later
        // allocation/gate fails — a failed wide gate must not strand
        // pool rows on a long-lived backend.
        let result = (|| {
            while level.len() > fan_in {
                let mut next = Vec::with_capacity(level.len().div_ceil(fan_in));
                for chunk in level.chunks(fan_in) {
                    if chunk.len() == 1 {
                        next.push(chunk[0]);
                    } else {
                        let out = self.engine.alloc()?;
                        owned.push(out);
                        self.native_gate(stage_op, chunk, &out)?;
                        next.push(out);
                    }
                }
                level = next;
            }
            let out = self.engine.alloc()?;
            owned.push(out);
            self.native_gate(op, &level, &out)?;
            Ok(out)
        })();
        if result.is_ok() {
            // The last row pushed is the final gate's output — on
            // success the caller owns it.
            owned.pop();
        }
        for r in owned {
            self.engine.free(r);
        }
        result
    }
}

impl ExecBackend for BenderBackend {
    type Row = BitVecHandle;
    type Lease = Vec<BitVecHandle>;

    fn lanes(&self) -> usize {
        self.engine.capacity_bits()
    }

    fn max_fan_in(&self) -> usize {
        self.max_fan_in
    }

    fn stage(&mut self, operands: &[PackedBits]) -> Result<Vec<BitVecHandle>> {
        // All-or-nothing, mirroring `SimdVm::lease_rows`: allocate the
        // full batch first, then stage data.
        let mut rows = Vec::with_capacity(operands.len());
        for _ in 0..operands.len() {
            match self.engine.alloc() {
                Ok(r) => rows.push(r),
                Err(e) => {
                    for r in rows {
                        self.engine.free(r);
                    }
                    return Err(e.into());
                }
            }
        }
        for (i, o) in operands.iter().enumerate() {
            if let Err(e) = self.engine.write_packed(&rows[i], o) {
                for r in rows {
                    self.engine.free(r);
                }
                return Err(e.into());
            }
        }
        Ok(rows)
    }

    fn lease_rows(lease: &Vec<BitVecHandle>) -> &[BitVecHandle] {
        lease
    }

    fn end_stage(&mut self, lease: Vec<BitVecHandle>) {
        for r in lease {
            self.release(r);
        }
    }

    fn op(&mut self, op: Option<LogicOp>, args: &[BitVecHandle]) -> Result<BitVecHandle> {
        match op {
            None => {
                let out = self.engine.alloc()?;
                self.native_not(args[0], &out)?;
                Ok(out)
            }
            // Single-argument gates degenerate exactly as on the VM
            // backend: monotone families copy, inverted families NOT.
            Some(op) if args.len() == 1 && !op.is_inverted_terminal() => self.duplicate(args[0]),
            Some(_) if args.len() == 1 => {
                let out = self.engine.alloc()?;
                self.native_not(args[0], &out)?;
                Ok(out)
            }
            Some(op) if args.len() <= self.max_fan_in => {
                let out = self.engine.alloc()?;
                self.native_gate(op, args, &out)?;
                Ok(out)
            }
            Some(op) => self.reduce(op, args),
        }
    }

    fn constant(&mut self, value: bool) -> Result<BitVecHandle> {
        let src = if value { self.one } else { self.zero };
        self.duplicate(src)
    }

    fn duplicate(&mut self, src: BitVecHandle) -> Result<BitVecHandle> {
        let out = self.engine.alloc()?;
        self.copy_into(src, &out)?;
        Ok(out)
    }

    fn read_row(&mut self, r: BitVecHandle) -> Result<PackedBits> {
        Ok(self.engine.read_packed(&r)?)
    }

    fn release(&mut self, r: BitVecHandle) {
        if r != self.zero && r != self.one {
            self.engine.free(r);
        }
    }

    fn step_latency_ns(&self, step: &Step) -> Option<f64> {
        Some(crate::latency::ScheduleLatency::new(self.speed, self.max_fan_in).step_ns(step))
    }

    fn prepare(&mut self, prog: &SynthProgram) -> Result<PreparedProgram> {
        let mut prep = PreparedProgram::analyze(prog, self.max_fan_in);
        if prep.is_fallback() {
            return Ok(prep);
        }
        let mut templates = BenderTemplates::default();
        let mut need_not = false;
        for step in &prog.steps {
            match step.op {
                None => need_not = true,
                Some(op) if step.args.len() == 1 && !op.is_inverted_terminal() => {}
                Some(_) if step.args.len() == 1 => need_not = true,
                Some(op) => {
                    let n =
                        padded_width(step.args.len(), |n| self.engine.map().find_nn(n).is_some())
                            .ok_or(ExecError::Engine(fcdram::FcdramError::BadInputCount {
                            n: step.args.len(),
                            max: self.engine.config().max_op_inputs(),
                        }))?;
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
        // batch — the same per-row write sequence `stage`'s
        // `write_packed` loop issues as separate mini-programs, so
        // stored bits and the device command stream are identical; the
        // per-program fixed costs are paid once.
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
                    b.seq_write_row(bank, row.row(), o.expand_strided(cols, start, 2));
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
        if !prep.fits(self.max_fan_in) || prep.templates.is_none() {
            // Unprepared walk over the caller's staged rows.
            let inputs: Vec<BitVecHandle> = lease.clone();
            let out = execute_with(self, prep.program(), &inputs, on_step)?;
            let packed = self.read_row(out);
            self.release(out);
            return packed;
        }
        let templates = prep.templates.as_ref().expect("checked above");
        let prog = prep.program();
        check_operands(prog, operands.len())?;
        let inputs: Vec<BitVecHandle> = lease.clone();
        let mut regs: Vec<Option<BitVecHandle>> = vec![None; prog.n_regs];
        let mut vals: Vec<Option<PackedBits>> = vec![None; prog.n_regs];
        for (r, h) in inputs.iter().enumerate() {
            regs[r] = Some(*h);
            vals[r] = Some(operands[r].clone());
        }
        let result = self.run_prepared_steps(
            templates,
            prep,
            operands,
            &inputs,
            &mut regs,
            &mut vals,
            &mut on_step,
        );
        if result.is_err() {
            for slot in regs.iter_mut().skip(inputs.len()) {
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
    /// allocated and freed in exactly [`crate::execute_packed_with`]'s order
    /// (the pool permutes rows on reuse and the device's stochastic
    /// draws key on row indices).
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
        let mut pending: Option<(GlobalRow, Vec<Bit>)> = None;
        for (i, step) in prog.steps.iter().enumerate() {
            let out = self.engine.alloc()?;
            // Same dispatch as the unprepared `op`: NOT and one-input
            // inverted gates run the NOT schedule, one-input monotone
            // gates clone, everything else is one templated gate
            // (≤ fan-in by the `fits` guard).
            let bits = match step.op {
                None => {
                    let t = templates.not_t.as_ref().expect("prepared");
                    let v = vals[step.args[0]].clone().expect("value tracked");
                    let (bits, wr) = self.prepared_not(t, &v, &out, pending.take())?;
                    pending = Some(wr);
                    bits
                }
                Some(op) if step.args.len() == 1 && !op.is_inverted_terminal() => {
                    // Copies read device rows, so any deferred write
                    // lands first (copy steps bound fused visits).
                    self.flush_result(pending.take())?;
                    let src = regs[step.args[0]].expect("mapper emits defs before uses");
                    let v = vals[step.args[0]].clone().expect("value tracked");
                    self.prepared_copy(&src, &v, &out)?
                }
                Some(_) if step.args.len() == 1 => {
                    let t = templates.not_t.as_ref().expect("prepared");
                    let v = vals[step.args[0]].clone().expect("value tracked");
                    let (bits, wr) = self.prepared_not(t, &v, &out, pending.take())?;
                    pending = Some(wr);
                    bits
                }
                Some(op) => {
                    let n = padded_width(step.args.len(), |n| {
                        templates.gates.contains_key(&(op.is_and_family(), n))
                    })
                    .ok_or(ExecError::Engine(
                        fcdram::FcdramError::BadInputCount {
                            n: step.args.len(),
                            max: self.engine.config().max_op_inputs(),
                        },
                    ))?;
                    let t = &templates.gates[&(op.is_and_family(), n)];
                    let avals: Vec<&PackedBits> = step
                        .args
                        .iter()
                        .map(|r| vals[*r].as_ref().expect("value tracked"))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute_packed;
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
            let via_vm = execute_packed(&mut vm, &compiled.mapping.program, &ops).unwrap();
            let via_cmd = execute_packed(&mut cmd, &compiled.mapping.program, &ops).unwrap();
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
        let _ = execute_packed(&mut cmd, &compiled.mapping.program, &ops).unwrap();
        // Re-running on the same backend must still find rows — every
        // staged row, temporary, and result row was returned.
        for _ in 0..3 {
            let _ = execute_packed(&mut cmd, &compiled.mapping.program, &ops).unwrap();
        }
        assert_eq!(cmd.engine().fcdram().config().name, before);
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
