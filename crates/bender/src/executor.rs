//! Program execution: turning cycle-timed command streams into the
//! device model's semantic operations by inspecting inter-command gaps.
//!
//! This is the behavioural core of the infrastructure: it recognizes
//! the paper's violated-timing idioms —
//!
//! * `ACT → (tRAS ok) → PRE → (tRP violated) → ACT` ⇒ driven
//!   copy/invert (`multi_act_copy`, NOT / RowClone);
//! * `ACT → (tRAS violated) → PRE → (tRP violated) → ACT` ⇒
//!   charge-sharing merge (`multi_act_charge_share`, AND/OR/NAND/NOR);
//! * `ACT → (frac window) → PRE` ⇒ fractional store (`frac`);
//!
//! and falls back to ordinary DDR4 semantics otherwise.

use crate::error::{BenderError, Result};
use crate::program::{DdrCommand, Program, ProgramBuilder, TimedCommand};
use dram_core::{
    BankId, Bit, ChipId, CsTerminal, DramModule, GlobalRow, OpOutcome, OutcomeKind, PackedBits,
    SpeedBin, Temperature, ViolationWindows,
};

/// One captured `RD` result.
///
/// Stays `pub` although no other crate names it: it is the element type
/// of [`Execution::reads`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRecord {
    /// Bank the read addressed.
    pub bank: BankId,
    /// Row the read addressed.
    pub row: GlobalRow,
    /// Captured data.
    pub data: Vec<Bit>,
}

/// Everything a program execution produced.
///
/// Stays `pub` although no other crate names it: [`Bender::execute`]
/// returns it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Execution {
    /// Semantic operation outcomes, tagged with the index of the
    /// command (the second `ACT` or the `PRE` of a frac) that
    /// completed them.
    pub outcomes: Vec<(usize, OpOutcome)>,
    /// Captured reads in program order.
    pub reads: Vec<ReadRecord>,
}

#[derive(Debug, Clone, Copy, Default)]
struct BankTracker {
    last_act: Option<(u64, GlobalRow)>,
    pending_pre: Option<u64>,
    open: bool,
}

/// The testing infrastructure: a module under test plus the host-side
/// programming interface (the analogue of DRAM Bender on its FPGA
/// board, including the temperature controller).
#[derive(Debug, Clone)]
pub struct Bender {
    module: DramModule,
    windows: ViolationWindows,
    temperature: Temperature,
    /// One-shot terminal mask consumed by the next multi-row activation
    /// the executor recognizes, copy or charge share (set via
    /// [`Bender::arm_cs_mask`] or [`Bender::charge_share_masked`]).
    cs_mask: Option<CsTerminal>,
}

impl Bender {
    /// Attaches the infrastructure to a module.
    pub fn new(module: DramModule) -> Self {
        Bender {
            module,
            windows: ViolationWindows::default(),
            temperature: Temperature::BASELINE,
            cs_mask: None,
        }
    }

    /// The module under test.
    pub fn module(&self) -> &DramModule {
        &self.module
    }

    /// Mutable access to the module under test.
    pub fn module_mut(&mut self) -> &mut DramModule {
        &mut self.module
    }

    /// The module's speed bin.
    pub(crate) fn speed(&self) -> SpeedBin {
        self.module.config().speed
    }

    /// Sets the target temperature (heater pads + controller).
    pub fn set_temperature(&mut self, t: Temperature) {
        self.temperature = t;
    }

    /// Current target temperature.
    pub fn temperature(&self) -> Temperature {
        self.temperature
    }

    /// A program builder matched to this module's speed bin.
    pub fn builder(&self) -> ProgramBuilder {
        ProgramBuilder::new(self.speed())
    }

    /// Arms a one-shot terminal mask: the next multi-row activation the
    /// executor recognizes (in any program) resolves only `need`'s
    /// cells — for a charge share a terminal or its first row, for a
    /// copy its destination side
    /// ([`dram_core::Chip::multi_act_copy_masked`]). Cleared when
    /// consumed or at the next `execute`.
    pub fn arm_cs_mask(&mut self, need: CsTerminal) {
        self.cs_mask = Some(need);
    }

    /// Executes `program` against chip `chip` of the module.
    ///
    /// # Errors
    ///
    /// Returns [`BenderError::NoSuchChip`] for bad chip indices and
    /// [`BenderError::BadProgram`] / [`BenderError::Device`] for
    /// command-order violations.
    pub fn execute(&mut self, chip: ChipId, program: &Program) -> Result<Execution> {
        if chip.index() >= self.module.chip_count() {
            return Err(BenderError::NoSuchChip {
                chip: chip.index(),
                chips: self.module.chip_count(),
            });
        }
        let speed = self.speed();
        let temp = self.temperature;
        let mut pending_mask = self.cs_mask.take();
        let dev = self.module.chip_mut(chip);
        dev.configure(dram_core::SimConfig::new().with_temperature(temp));
        let banks = dev.geometry().banks();
        let mut trackers = vec![BankTracker::default(); banks];
        let mut exec = Execution::default();

        for (idx, TimedCommand { cycle, command }) in program.commands().iter().enumerate() {
            match command {
                DdrCommand::Act(bank, row) => {
                    let b = bank.index();
                    if b >= banks {
                        return Err(BenderError::BadProgram {
                            index: idx,
                            detail: format!("bank {bank} out of range"),
                        });
                    }
                    let t = trackers[b];
                    if let (Some(cp), Some((_ca, rf))) = (t.pending_pre, t.last_act) {
                        let gap_pre_act = speed.cycles_to_ns(cycle.saturating_sub(cp));
                        if gap_pre_act < self.windows.multi_act_t_rp_ns {
                            // Violated tRP: multi-row activation. The
                            // first gap decides copy vs charge share.
                            let (ca, _) = t.last_act.expect("checked");
                            let gap_act_pre = speed.cycles_to_ns(cp.saturating_sub(ca));
                            let need = pending_mask.take().unwrap_or(CsTerminal::Both);
                            let outcome = if gap_act_pre <= self.windows.charge_share_t_ras_ns {
                                dev.multi_act_charge_share_masked(*bank, rf, *row, need)?
                            } else {
                                // Restored (or mostly restored) source:
                                // driven copy / NOT.
                                dev.multi_act_copy_masked(*bank, rf, *row, need)?
                            };
                            let ignored = outcome.kind == OutcomeKind::Ignored;
                            trackers[b].pending_pre = None;
                            trackers[b].open = true;
                            if !ignored {
                                trackers[b].last_act = Some((*cycle, *row));
                            }
                            exec.outcomes.push((idx, outcome));
                            continue;
                        }
                        // Respected tRP: the precharge completed.
                        dev.precharge(*bank)?;
                        trackers[b].pending_pre = None;
                        trackers[b].open = false;
                    } else if let Some(_cp) = t.pending_pre {
                        dev.precharge(*bank)?;
                        trackers[b].pending_pre = None;
                        trackers[b].open = false;
                    }
                    dev.activate(*bank, *row)?;
                    trackers[b].open = true;
                    trackers[b].last_act = Some((*cycle, *row));
                }
                DdrCommand::Pre(bank) => {
                    let b = bank.index();
                    if b >= banks {
                        return Err(BenderError::BadProgram {
                            index: idx,
                            detail: format!("bank {bank} out of range"),
                        });
                    }
                    let t = trackers[b];
                    if !t.open {
                        continue; // PRE on a precharged bank is a no-op
                    }
                    if let Some(cp) = t.pending_pre {
                        // Two PREs without an ACT: finalize the first.
                        let _ = cp;
                        dev.precharge(*bank)?;
                        trackers[b] = BankTracker::default();
                        continue;
                    }
                    if let Some((ca, row)) = t.last_act {
                        let gap = speed.cycles_to_ns(cycle.saturating_sub(ca));
                        let single_open = dev.geometry().check_bank(*bank).is_ok();
                        if self.windows.in_frac_window(gap) && single_open {
                            // Interrupted restore: fractional store.
                            let outcome = dev.frac(*bank, row)?;
                            exec.outcomes.push((idx, outcome));
                            trackers[b] = BankTracker::default();
                            continue;
                        }
                    }
                    trackers[b].pending_pre = Some(*cycle);
                }
                DdrCommand::Wr(bank, data) => {
                    let b = bank.index();
                    if let Some(_cp) = trackers[b].pending_pre {
                        dev.precharge(*bank)?;
                        trackers[b].pending_pre = None;
                        trackers[b].open = false;
                    }
                    if !trackers[b].open {
                        return Err(BenderError::BadProgram {
                            index: idx,
                            detail: "WR with no open row".into(),
                        });
                    }
                    dev.write_open(*bank, data)?;
                }
                DdrCommand::Rd(bank, row) => {
                    let b = bank.index();
                    if let Some(_cp) = trackers[b].pending_pre {
                        dev.precharge(*bank)?;
                        trackers[b].pending_pre = None;
                        trackers[b].open = false;
                    }
                    if !trackers[b].open {
                        return Err(BenderError::BadProgram {
                            index: idx,
                            detail: "RD with no open row".into(),
                        });
                    }
                    let data = dev.read_row_direct(*bank, *row)?;
                    exec.reads.push(ReadRecord {
                        bank: *bank,
                        row: *row,
                        data,
                    });
                }
                DdrCommand::Ref => {
                    // Refresh: modeled as a brief time passage.
                    dev.advance_time(350.0);
                }
            }
        }

        // Finalize dangling precharges so the chip ends consistent.
        for (b, t) in trackers.iter().enumerate() {
            if t.pending_pre.is_some() && t.open {
                dev.precharge(BankId(b))?;
            }
        }
        Ok(exec)
    }

    // -----------------------------------------------------------------
    // Host convenience operations (command-accurate under the hood)
    // -----------------------------------------------------------------

    /// Writes a full row through a timing-respecting program; `data`
    /// is the write's payload as it is.
    pub fn write_row(
        &mut self,
        chip: ChipId,
        bank: BankId,
        row: GlobalRow,
        data: impl Into<PackedBits>,
    ) -> Result<()> {
        let mut b = self.builder();
        b.seq_write_row(bank, row, data);
        let p = b.finish();
        self.execute(chip, &p)?;
        Ok(())
    }

    /// Reads a full row through a timing-respecting program.
    pub fn read_row(&mut self, chip: ChipId, bank: BankId, row: GlobalRow) -> Result<Vec<Bit>> {
        let mut b = self.builder();
        b.seq_read_row(bank, row);
        let p = b.finish();
        let exec = self.execute(chip, &p)?;
        exec.reads
            .into_iter()
            .next()
            .map(|r| r.data)
            .ok_or_else(|| BenderError::BadProgram {
                index: 0,
                detail: "read produced no data".into(),
            })
    }

    /// Reads one shared-column vector of a row — every
    /// [`dram_core::SHARED_COL_STRIDE`]-th column starting at `start` —
    /// packed 64 lanes per `u64` word: the fast-path read used by the
    /// bulk engine (see [`dram_core::Chip::read_row_packed`]).
    ///
    /// The command sequence is the same timing-respecting
    /// activate/read/precharge as [`Bender::read_row`]; only the
    /// host-side representation differs.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or an open bank.
    pub fn read_row_packed(
        &mut self,
        chip: ChipId,
        bank: BankId,
        row: GlobalRow,
        start: usize,
    ) -> Result<Vec<u64>> {
        Ok(self
            .module_mut()
            .chip_mut(chip)
            .read_row_packed(bank, row, start)?)
    }

    /// Runs the NOT / RowClone sequence and returns its outcome.
    pub fn copy_invert(
        &mut self,
        chip: ChipId,
        bank: BankId,
        src: GlobalRow,
        dst: GlobalRow,
    ) -> Result<OpOutcome> {
        let mut b = self.builder();
        b.seq_copy_invert(bank, src, dst);
        let p = b.finish();
        let exec = self.execute(chip, &p)?;
        exec.outcomes
            .into_iter()
            .map(|(_, o)| o)
            .next()
            .ok_or_else(|| BenderError::BadProgram {
                index: 0,
                detail: "no outcome".into(),
            })
    }

    /// Runs the charge-sharing sequence and returns its outcome.
    pub fn charge_share(
        &mut self,
        chip: ChipId,
        bank: BankId,
        r_ref: GlobalRow,
        r_com: GlobalRow,
    ) -> Result<OpOutcome> {
        let mut b = self.builder();
        b.seq_charge_share(bank, r_ref, r_com);
        let p = b.finish();
        let exec = self.execute(chip, &p)?;
        exec.outcomes
            .into_iter()
            .map(|(_, o)| o)
            .next()
            .ok_or_else(|| BenderError::BadProgram {
                index: 0,
                detail: "no outcome".into(),
            })
    }

    /// Runs the charge-sharing sequence resolving only `need`'s
    /// cells (see [`dram_core::Chip::multi_act_charge_share_masked`]
    /// for the safety contract). The command stream is identical to
    /// [`Bender::charge_share`]; the mask is a host-side promise about
    /// which cells will be read back.
    pub fn charge_share_masked(
        &mut self,
        chip: ChipId,
        bank: BankId,
        r_ref: GlobalRow,
        r_com: GlobalRow,
        need: CsTerminal,
    ) -> Result<OpOutcome> {
        self.cs_mask = Some(need);
        let out = self.charge_share(chip, bank, r_ref, r_com);
        self.cs_mask = None;
        out
    }

    /// Runs the `Frac` sequence (stores ≈VDD/2 into `row`).
    pub fn frac(&mut self, chip: ChipId, bank: BankId, row: GlobalRow) -> Result<OpOutcome> {
        let mut b = self.builder();
        b.seq_frac(bank, row);
        let p = b.finish();
        let exec = self.execute(chip, &p)?;
        exec.outcomes
            .into_iter()
            .map(|(_, o)| o)
            .next()
            .ok_or_else(|| BenderError::BadProgram {
                index: 0,
                detail: "no outcome".into(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::config::table1;
    use dram_core::CellRole;

    impl Execution {
        /// The first outcome whose kind is not `NoGlitch`/`Ignored`, if any.
        fn primary_outcome(&self) -> Option<&OpOutcome> {
            self.outcomes
                .iter()
                .map(|(_, o)| o)
                .find(|o| !matches!(o.kind, OutcomeKind::NoGlitch | OutcomeKind::Ignored))
        }
    }

    fn bender() -> Bender {
        let cfg = table1().into_iter().next().unwrap().with_modeled_cols(32);
        Bender::new(DramModule::new(cfg))
    }

    fn bits(seed: u64, n: usize) -> Vec<Bit> {
        (0..n)
            .map(|c| {
                Bit::from(
                    dram_core::math::hash_to_unit(dram_core::math::mix2(seed, c as u64)) < 0.5,
                )
            })
            .collect()
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut b = bender();
        let data = bits(1, 32);
        b.write_row(ChipId(0), BankId(0), GlobalRow(10), data.clone())
            .unwrap();
        let got = b.read_row(ChipId(0), BankId(0), GlobalRow(10)).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn copy_invert_produces_not_outcome() {
        let mut b = bender();
        let data = bits(2, 32);
        b.write_row(ChipId(0), BankId(0), GlobalRow(0), data)
            .unwrap();
        // Scan for a glitching pair into subarray 1.
        let mut kinds = Vec::new();
        for l in 0..40usize {
            let out = b
                .copy_invert(ChipId(0), BankId(0), GlobalRow(0), GlobalRow(512 + l))
                .unwrap();
            kinds.push(out.kind.clone());
            if matches!(out.kind, OutcomeKind::Not { .. }) {
                assert!(out.mean_success(CellRole::NotDst).unwrap() > 0.4);
                return;
            }
        }
        panic!("no NOT outcome in 40 pairs: {kinds:?}");
    }

    #[test]
    fn frac_sequence_recognized() {
        let mut b = bender();
        let out = b.frac(ChipId(0), BankId(0), GlobalRow(3)).unwrap();
        assert_eq!(out.kind, OutcomeKind::Frac);
    }

    #[test]
    fn charge_share_sequence_recognized() {
        let mut b = bender();
        for l in 0..40usize {
            let out = b
                .charge_share(ChipId(0), BankId(0), GlobalRow(7), GlobalRow(512 + l))
                .unwrap();
            if matches!(out.kind, OutcomeKind::Logic { .. }) {
                return;
            }
        }
        panic!("no logic outcome in 40 pairs");
    }

    #[test]
    fn wr_without_open_row_is_rejected() {
        let mut b = bender();
        let mut pb = b.builder();
        pb.wr(BankId(0), bits(1, 32));
        let p = pb.build();
        let err = b.execute(ChipId(0), &p).unwrap_err();
        assert!(matches!(err, BenderError::BadProgram { .. }));
    }

    #[test]
    fn rd_after_pre_is_rejected() {
        let mut b = bender();
        let mut pb = b.builder();
        pb.act(BankId(0), GlobalRow(0))
            .wait_ns(35.0)
            .pre(BankId(0))
            .wait_ns(15.0)
            .rd(BankId(0), GlobalRow(0));
        let p = pb.build();
        let err = b.execute(ChipId(0), &p).unwrap_err();
        assert!(matches!(err, BenderError::BadProgram { .. }), "{err}");
    }

    #[test]
    fn no_such_chip() {
        let mut b = bender();
        let p = b.builder().build();
        let err = b.execute(ChipId(64), &p).unwrap_err();
        assert!(matches!(err, BenderError::NoSuchChip { .. }));
    }

    #[test]
    fn respected_timing_does_not_glitch() {
        let mut b = bender();
        // ACT → tRAS → PRE → tRP → ACT: plain row switch; no outcomes.
        let mut pb = b.builder();
        pb.act(BankId(0), GlobalRow(0))
            .wait_ns(35.0)
            .pre(BankId(0))
            .wait_ns(15.0)
            .act(BankId(0), GlobalRow(512))
            .wait_ns(35.0)
            .pre(BankId(0));
        let p = pb.build();
        let exec = b.execute(ChipId(0), &p).unwrap();
        assert!(exec.outcomes.is_empty());
        assert!(exec.primary_outcome().is_none());
    }

    #[test]
    fn temperature_is_propagated() {
        let mut b = bender();
        b.set_temperature(Temperature::celsius(95.0));
        let p = {
            let mut pb = b.builder();
            pb.seq_read_row(BankId(0), GlobalRow(0));
            pb.build()
        };
        b.execute(ChipId(0), &p).unwrap();
        assert_eq!(
            b.module().chip(ChipId(0)).unwrap().temperature(),
            Temperature::celsius(95.0)
        );
    }

    #[test]
    fn double_pre_without_act_is_harmless() {
        let mut b = bender();
        let mut pb = b.builder();
        pb.act(BankId(0), GlobalRow(0))
            .wait_ns(35.0)
            .pre(BankId(0))
            .wait_ns(15.0)
            .pre(BankId(0))
            .wait_ns(15.0)
            .pre(BankId(0));
        let p = pb.build();
        let exec = b.execute(ChipId(0), &p).unwrap();
        assert!(exec.outcomes.is_empty());
        // Bank must end precharged: a fresh activate succeeds.
        b.write_row(ChipId(0), BankId(0), GlobalRow(1), bits(1, 32))
            .unwrap();
    }

    #[test]
    fn dangling_pre_is_finalized_at_program_end() {
        let mut b = bender();
        let mut pb = b.builder();
        pb.act(BankId(0), GlobalRow(0)).wait_ns(35.0).pre(BankId(0));
        let p = pb.build();
        b.execute(ChipId(0), &p).unwrap();
        // The next program can activate immediately.
        let mut pb = b.builder();
        pb.seq_read_row(BankId(0), GlobalRow(0));
        let p = pb.build();
        assert!(b.execute(ChipId(0), &p).is_ok());
    }

    #[test]
    fn banks_are_independent() {
        let mut b = bender();
        let d0 = bits(10, 32);
        let d1 = bits(11, 32);
        b.write_row(ChipId(0), BankId(0), GlobalRow(5), d0.clone())
            .unwrap();
        b.write_row(ChipId(0), BankId(1), GlobalRow(5), d1.clone())
            .unwrap();
        // A violating sequence in bank 0 must not disturb bank 1.
        let _ = b
            .copy_invert(ChipId(0), BankId(0), GlobalRow(5), GlobalRow(517))
            .unwrap();
        assert_eq!(b.read_row(ChipId(0), BankId(1), GlobalRow(5)).unwrap(), d1);
        assert_eq!(b.read_row(ChipId(0), BankId(0), GlobalRow(5)).unwrap(), d0);
    }

    #[test]
    fn ref_command_is_accepted() {
        let mut b = bender();
        let mut pb = b.builder();
        pb.push(crate::DdrCommand::Ref)
            .wait_cycles(10)
            .push(crate::DdrCommand::Ref);
        let p = pb.build();
        let exec = b.execute(ChipId(0), &p).unwrap();
        assert!(exec.outcomes.is_empty());
        assert!(exec.reads.is_empty());
    }

    #[test]
    fn out_of_range_bank_rejected_with_index() {
        let mut b = bender();
        let mut pb = b.builder();
        pb.act(BankId(99), GlobalRow(0));
        let p = pb.build();
        match b.execute(ChipId(0), &p).unwrap_err() {
            BenderError::BadProgram { index, .. } => assert_eq!(index, 0),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn write_open_after_multi_activation_updates_rows() {
        // The §4.2 mapping methodology: glitch, then WR, then read back.
        let mut b = bender();
        let data = bits(5, 32);
        for l in 0..40usize {
            let dst = GlobalRow(512 + l);
            let mut pb = b.builder();
            pb.seq_write_row(BankId(0), GlobalRow(0), bits(9, 32));
            pb.act(BankId(0), GlobalRow(0))
                .wait_ns(35.0)
                .pre(BankId(0))
                .act(BankId(0), dst)
                .wait_ns(14.0)
                .wr(BankId(0), data.clone())
                .wait_ns(35.0)
                .pre(BankId(0));
            let p = pb.build();
            let exec = b.execute(ChipId(0), &p).unwrap();
            if let Some(out) = exec.primary_outcome() {
                if matches!(out.kind, OutcomeKind::Not { .. }) {
                    let got = b.read_row(ChipId(0), BankId(0), dst).unwrap();
                    assert_eq!(got, data, "WR must overdrive the destination rows");
                    return;
                }
            }
        }
        panic!("no NOT outcome found");
    }
}
