//! Bender-assembly emission for mapped programs.
//!
//! *Execution* of mapped programs lives in the `fcexec` crate — one
//! observer-driven engine behind every backend (`SimdVm` substrates
//! and the command-schedule `BenderBackend`). What remains here is
//! [`BenderEmitter`]: the program as a cycle-timed DDR4 command
//! schedule in the textual format of [`bender::asm`], for
//! command-level replay on real testing infrastructure. The emission
//! mirrors [`simdram::cost`]'s steady-state accounting: per gate, N
//! operand stagings, N−1 constant reference rows, one `Frac`, the
//! violated double activation, and one result copy-out; per NOT, a
//! cross-subarray copy-invert pair (invert into staging,
//! restore-polarity back to the destination's home row).

use crate::error::{Result, SynthError};
use crate::mapper::{Output, SynthProgram};
use bender::{Program, ProgramBuilder};
use dram_core::timing::SpeedBin;
use dram_core::{BankId, Bit, Geometry, GlobalRow, LocalRow, PatternKind};
use fcdram::{GateSite, PatternEntry};

/// Emits mapped programs as [`bender`] command schedules.
///
/// Register `r` lives in home row `r` of the first subarray, whose
/// *top* rows hold the reference/frac row and the constant rows of
/// each gate; the paired subarray holds the operand staging rows, so
/// every staging, charge-share, and copy-out activation pairs a
/// home-subarray row with a paired-subarray row. The schedule is
/// *replay-accurate* (every violated-timing sequence of the paper, in
/// execution order, with legal addresses for the target geometry); it
/// does not functionally simulate the charge sharing — that is the
/// device model's job when the program is executed.
#[derive(Debug, Clone)]
pub struct BenderEmitter {
    /// Target bank.
    pub bank: BankId,
    /// Rows per subarray of the target geometry (the default 512
    /// matches every Table-1 part).
    pub rows_per_subarray: usize,
    /// Columns written into constant reference rows. Must be a
    /// multiple of 4 so `WR` hex data round-trips exactly.
    pub cols: usize,
    /// Speed bin the cycle schedule targets.
    pub speed: SpeedBin,
}

impl Default for BenderEmitter {
    fn default() -> Self {
        BenderEmitter {
            bank: BankId(0),
            rows_per_subarray: 512,
            cols: 32,
            speed: SpeedBin::Mt2666,
        }
    }
}

/// Reference-side scratch at the *top* of the home subarray: the
/// frac/reference row plus 15 constant rows (so every staging,
/// charge-share, and copy-out activation pairs a home-subarray row
/// with a paired-subarray row, as the paper's sequences require).
const REF_SCRATCH: usize = simdram::MAX_FAN_IN;

impl BenderEmitter {
    /// Emits the command program.
    ///
    /// # Errors
    ///
    /// Fails when the register file exceeds the home subarray, the
    /// scratch layout exceeds the paired subarray, or `cols` is not a
    /// multiple of 4.
    pub(crate) fn emit(&self, prog: &SynthProgram) -> Result<Program> {
        if self.cols == 0 || !self.cols.is_multiple_of(4) {
            return Err(SynthError::Backend(format!(
                "cols {} must be a positive multiple of 4",
                self.cols
            )));
        }
        if prog.n_regs.max(1) + REF_SCRATCH > self.rows_per_subarray {
            return Err(SynthError::OutOfRows {
                need: prog.n_regs.max(1) + REF_SCRATCH,
                have: self.rows_per_subarray,
            });
        }
        let rps = self.rows_per_subarray;
        let site = GateSite {
            geom: Geometry::new(1, 2, rps, self.cols)
                .map_err(|e| SynthError::Backend(e.to_string()))?,
            bank: self.bank,
        };
        // Home rows (registers) fill the first subarray bottom-up;
        // reference scratch occupies its top; operand staging rows
        // live in the paired subarray.
        let home = |r: usize| GlobalRow(r);
        let ref_row = GlobalRow(rps - 1);
        let stage = |i: usize| GlobalRow(rps + i);
        let mut b = ProgramBuilder::new(self.speed);
        for step in &prog.steps {
            match step.op {
                None => {
                    // NOT: one cross-subarray copy-invert into the
                    // staging row, one copy-invert back to the home
                    // row (restoring polarity, RowClone-style).
                    b.seq_copy_invert(self.bank, home(step.args[0]), stage(0));
                    b.seq_copy_invert(self.bank, stage(0), home(step.out));
                }
                Some(op) => {
                    let n = step.args.len();
                    // Stage the N operands into the compute side.
                    for (i, arg) in step.args.iter().enumerate() {
                        b.seq_copy_invert(self.bank, home(*arg), stage(i));
                    }
                    // The logic gate program with its operands staged
                    // by the copies above: N−1 constant reference rows
                    // below the reference row, the `Frac`'d reference
                    // row, and the doubly violated charge share
                    // pairing it with the staged compute side.
                    let entry = PatternEntry {
                        rf: ref_row,
                        rl: stage(0),
                        first_rows: (0..n.saturating_sub(1))
                            .map(|j| LocalRow(rps - 2 - j))
                            .chain([LocalRow(rps - 1)])
                            .collect(),
                        second_rows: Vec::new(),
                        kind: PatternKind::NN,
                    };
                    site.logic(&mut b, &entry, op, std::iter::empty())
                        .map_err(|e| SynthError::Backend(e.to_string()))?;
                    // Result copy-out to the destination home row.
                    b.seq_copy_invert(self.bank, stage(0), home(step.out));
                }
            }
        }
        match prog.output {
            Output::Const(v) => {
                b.seq_write_row(self.bank, home(0), vec![Bit::from(v); self.cols]);
            }
            Output::Reg(_) => {}
        }
        Ok(b.build())
    }

    /// Emits the program as assembly text ([`bender::asm::format`]).
    ///
    /// # Errors
    ///
    /// Same conditions as `BenderEmitter::emit`.
    pub fn emit_asm(&self, prog: &SynthProgram) -> Result<String> {
        Ok(bender::asm::format(&self.emit(prog)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::dag::Circuit;
    use crate::expr::Expr;
    use crate::mapper::Mapper;

    fn mapped(text: &str) -> crate::mapper::Mapping {
        let cost = CostModel::table1_defaults();
        Mapper::new(&cost, 16).map(&Circuit::from_expr(&Expr::parse(text).unwrap()))
    }

    #[test]
    fn bender_emission_round_trips_and_scales() {
        let m = mapped("(a & b & c) | !(d & e)");
        let em = BenderEmitter::default();
        let p = em.emit(&m.program).unwrap();
        assert!(!p.is_empty());
        let text = em.emit_asm(&m.program).unwrap();
        let back = bender::asm::parse(&text, em.speed).unwrap();
        assert_eq!(back, p, "asm round-trip");
        // More gates, more commands.
        let small = em.emit(&mapped("a & b").program).unwrap();
        assert!(p.len() > small.len());
    }

    #[test]
    fn bender_emission_validates_shape() {
        let m = mapped("a & b");
        let bad_cols = BenderEmitter {
            cols: 30,
            ..BenderEmitter::default()
        };
        assert!(bad_cols.emit(&m.program).is_err());
        let tiny = BenderEmitter {
            rows_per_subarray: 16,
            ..BenderEmitter::default()
        };
        assert!(matches!(
            tiny.emit(&m.program),
            Err(SynthError::OutOfRows { .. })
        ));
    }

    #[test]
    fn emitted_program_executes_on_a_module() {
        use dram_core::{ChipId, DramModule};
        let m = mapped("(a & b) | c");
        let cfg = dram_core::config::table1().remove(0).with_modeled_cols(32);
        let em = BenderEmitter {
            cols: 32,
            ..BenderEmitter::default()
        };
        let p = em.emit(&m.program).unwrap();
        let mut bender = bender::Bender::new(DramModule::new(cfg));
        let exec = bender.execute(ChipId(0), &p).expect("legal command stream");
        assert!(exec.reads.is_empty(), "emission issues no RD commands");
    }

    #[test]
    fn constant_output_emits_a_write() {
        let m = mapped("a & !a");
        let p = BenderEmitter::default().emit(&m.program).unwrap();
        assert!(p
            .commands()
            .iter()
            .any(|c| matches!(c.command, bender::DdrCommand::Wr(_, _))));
    }
}
