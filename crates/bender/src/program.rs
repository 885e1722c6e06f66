//! Cycle-timed DDR4 command programs and a builder for the paper's
//! canonical sequences.
//!
//! A [`Program`] is a list of commands pinned to clock cycles — exactly
//! what the real DRAM Bender ships to its FPGA sequencer. Timing
//! *violations* are expressed simply by placing commands closer
//! together than the datasheet allows; the executor derives the analog
//! consequences from the gaps.

use dram_core::{BankId, GlobalRow, PackedBits, SpeedBin, TimingParams, ViolationWindows};
use serde::{Deserialize, Serialize};

/// One DDR4 command as the infrastructure issues it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DdrCommand {
    /// Row activation.
    Act(BankId, GlobalRow),
    /// Bank precharge.
    Pre(BankId),
    /// Column write: overdrives the open row buffer with a full row of
    /// data (the paper's §4.2 methodology writes whole rows). The
    /// payload is the row's bits packed one column per bit, 64 to a
    /// word: what the chip stores, word for word.
    Wr(BankId, PackedBits),
    /// Column read of an open row; the captured data lands in the
    /// execution's read log.
    Rd(BankId, GlobalRow),
    /// Refresh (modeled as a time passage only; experiments disable
    /// refresh as the paper does).
    Ref,
}

/// A command scheduled at an absolute clock cycle.
///
/// Stays `pub` although no other crate names it: [`Program::commands`]
/// returns these.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedCommand {
    /// Absolute cycle at which the command is issued.
    pub cycle: u64,
    /// The command.
    pub command: DdrCommand,
}

/// An executable command program.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Program {
    cmds: Vec<TimedCommand>,
}

impl Program {
    /// The scheduled commands in issue order.
    pub fn commands(&self) -> &[TimedCommand] {
        &self.cmds
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }

    /// Total duration in cycles (cycle of the last command).
    pub fn duration_cycles(&self) -> u64 {
        self.cmds.last().map(|c| c.cycle).unwrap_or(0)
    }
}

/// Builder for command programs, tracking a cycle cursor.
///
/// All `ns`-valued waits are converted with the target speed bin, so
/// the *same* nominal sequence produces different absolute timings on
/// 2133 vs 2666 MT/s parts — the mechanism behind the paper's
/// speed-rate sensitivity (Figs. 11 and 20).
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    speed: SpeedBin,
    timing: TimingParams,
    windows: ViolationWindows,
    cursor: u64,
    cmds: Vec<TimedCommand>,
}

impl ProgramBuilder {
    /// Creates a builder for a module of the given speed bin with
    /// default DDR4 timings.
    pub fn new(speed: SpeedBin) -> Self {
        ProgramBuilder {
            speed,
            timing: TimingParams::default(),
            windows: ViolationWindows::default(),
            cursor: 0,
            cmds: Vec::new(),
        }
    }

    /// Emits a command at the cursor and advances one cycle.
    pub fn push(&mut self, command: DdrCommand) -> &mut Self {
        self.cmds.push(TimedCommand {
            cycle: self.cursor,
            command,
        });
        self.cursor += 1;
        self
    }

    /// Advances the cursor by whole cycles.
    pub fn wait_cycles(&mut self, cycles: u64) -> &mut Self {
        self.cursor += cycles;
        self
    }

    /// Advances the cursor by at least `ns` nanoseconds.
    pub fn wait_ns(&mut self, ns: f64) -> &mut Self {
        self.cursor += self.speed.ns_to_cycles(ns);
        self
    }

    /// `ACT` at the cursor.
    pub fn act(&mut self, bank: BankId, row: GlobalRow) -> &mut Self {
        self.push(DdrCommand::Act(bank, row))
    }

    /// `PRE` at the cursor.
    pub fn pre(&mut self, bank: BankId) -> &mut Self {
        self.push(DdrCommand::Pre(bank))
    }

    /// `WR` of a full row at the cursor.
    pub fn wr(&mut self, bank: BankId, data: impl Into<PackedBits>) -> &mut Self {
        self.push(DdrCommand::Wr(bank, data.into()))
    }

    /// `RD` of an open row at the cursor.
    pub fn rd(&mut self, bank: BankId, row: GlobalRow) -> &mut Self {
        self.push(DdrCommand::Rd(bank, row))
    }

    // -----------------------------------------------------------------
    // Canonical paper sequences
    // -----------------------------------------------------------------

    /// Timing-respecting row write: `ACT → WR → (tRAS) → PRE → (tRP)`.
    pub fn seq_write_row(
        &mut self,
        bank: BankId,
        row: GlobalRow,
        data: impl Into<PackedBits>,
    ) -> &mut Self {
        let (t_rcd, t_ras, t_rp) = (
            self.timing.t_rcd_ns,
            self.timing.t_ras_ns,
            self.timing.t_rp_ns,
        );
        self.act(bank, row)
            .wait_ns(t_rcd)
            .wr(bank, data)
            .wait_ns(t_ras)
            .pre(bank)
            .wait_ns(t_rp)
    }

    /// Timing-respecting row read: `ACT → RD → (tRAS) → PRE → (tRP)`.
    pub fn seq_read_row(&mut self, bank: BankId, row: GlobalRow) -> &mut Self {
        let (t_rcd, t_ras, t_rp) = (
            self.timing.t_rcd_ns,
            self.timing.t_ras_ns,
            self.timing.t_rp_ns,
        );
        self.act(bank, row)
            .wait_ns(t_rcd)
            .rd(bank, row)
            .wait_ns(t_ras)
            .pre(bank)
            .wait_ns(t_rp)
    }

    /// The NOT / RowClone sequence (§5.1):
    /// `ACT src → (tRAS) → PRE → (<3 ns) → ACT dst → (tRAS) → PRE`.
    ///
    /// The first activation fully restores the source; the violated
    /// tRP leaves the decoder latched, so the second activation merges.
    pub fn seq_copy_invert(&mut self, bank: BankId, src: GlobalRow, dst: GlobalRow) -> &mut Self {
        let (t_ras, t_rp) = (self.timing.t_ras_ns, self.timing.t_rp_ns);
        self.act(bank, src)
            .wait_ns(t_ras)
            .pre(bank)
            // One cycle ≈ 0.75–0.94 ns: well inside the <3 ns window.
            .act(bank, dst)
            .wait_ns(t_ras)
            .pre(bank)
            .wait_ns(t_rp)
    }

    /// The charge-sharing sequence (§6.1):
    /// `ACT r_ref → (<3 ns) → PRE → (<3 ns) → ACT r_com → (tRAS) → PRE`.
    ///
    /// *Both* gaps violate the datasheet: the sense amplifiers are
    /// still off when the rows merge, so bitlines charge-share and the
    /// comparator computes AND/OR (NAND/NOR on the other terminal).
    pub fn seq_charge_share(
        &mut self,
        bank: BankId,
        r_ref: GlobalRow,
        r_com: GlobalRow,
    ) -> &mut Self {
        let (t_ras, t_rp) = (self.timing.t_ras_ns, self.timing.t_rp_ns);
        self.act(bank, r_ref)
            .pre(bank)
            .act(bank, r_com)
            .wait_ns(t_ras)
            .pre(bank)
            .wait_ns(t_rp)
    }

    /// The `Frac` sequence (FracDRAM): `ACT row → (≈7 ns) → PRE`,
    /// interrupting restoration at about half charge.
    pub fn seq_frac(&mut self, bank: BankId, row: GlobalRow) -> &mut Self {
        let mid = 0.5 * (self.windows.frac_lo_ns + self.windows.frac_hi_ns);
        let t_rp = self.timing.t_rp_ns;
        self.act(bank, row).wait_ns(mid).pre(bank).wait_ns(t_rp)
    }

    /// Finishes the program, leaving the builder reusable.
    pub fn build(&self) -> Program {
        Program {
            cmds: self.cmds.clone(),
        }
    }

    /// Finishes the program, consuming the builder — the hot-path form:
    /// no copy of the command list (and, through it, of every staged
    /// `Wr` payload).
    pub fn finish(self) -> Program {
        Program { cmds: self.cmds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::Bit;

    #[test]
    fn builder_orders_commands_monotonically() {
        let mut b = ProgramBuilder::new(SpeedBin::Mt2666);
        b.seq_write_row(BankId(0), GlobalRow(1), vec![Bit::One; 4])
            .seq_read_row(BankId(0), GlobalRow(1));
        let p = b.build();
        let mut last = 0;
        for c in p.commands() {
            assert!(c.cycle >= last);
            last = c.cycle;
        }
        // ACT/WR/PRE + ACT/RD/PRE.
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
    }

    #[test]
    fn copy_invert_violates_trp_only() {
        let mut b = ProgramBuilder::new(SpeedBin::Mt2666);
        b.seq_copy_invert(BankId(0), GlobalRow(0), GlobalRow(512));
        let p = b.build();
        let cy: Vec<u64> = p.commands().iter().map(|c| c.cycle).collect();
        let t = |cycles: u64| SpeedBin::Mt2666.cycles_to_ns(cycles);
        // ACT→PRE respects tRAS.
        assert!(t(cy[1] - cy[0]) >= 32.0);
        // PRE→ACT gap is one cycle (< 3 ns).
        assert!(t(cy[2] - cy[1]) < 3.0);
        // Second ACT→PRE respects tRAS again.
        assert!(t(cy[3] - cy[2]) >= 32.0);
    }

    #[test]
    fn charge_share_violates_both_gaps() {
        let mut b = ProgramBuilder::new(SpeedBin::Mt2133);
        b.seq_charge_share(BankId(1), GlobalRow(3), GlobalRow(515));
        let p = b.build();
        let cy: Vec<u64> = p.commands().iter().map(|c| c.cycle).collect();
        let t = |cycles: u64| SpeedBin::Mt2133.cycles_to_ns(cycles);
        assert!(t(cy[1] - cy[0]) < 3.0, "ACT→PRE must violate tRAS");
        assert!(t(cy[2] - cy[1]) < 3.0, "PRE→ACT must violate tRP");
    }

    #[test]
    fn frac_gap_is_inside_window() {
        let mut b = ProgramBuilder::new(SpeedBin::Mt2666);
        b.seq_frac(BankId(0), GlobalRow(7));
        let p = b.build();
        let cy: Vec<u64> = p.commands().iter().map(|c| c.cycle).collect();
        let gap = SpeedBin::Mt2666.cycles_to_ns(cy[1] - cy[0]);
        let w = ViolationWindows::default();
        assert!(w.in_frac_window(gap), "gap {gap} ns");
    }

    #[test]
    fn wait_ns_rounds_up() {
        let mut b = ProgramBuilder::new(SpeedBin::Mt2666);
        b.act(BankId(0), GlobalRow(0)).wait_ns(1.0).pre(BankId(0));
        let p = b.build();
        // 1 ns at 0.75 ns/cycle → 2 cycles, plus the ACT's own cycle.
        assert_eq!(p.commands()[1].cycle, 3);
    }

    #[test]
    fn duration_reports_last_cycle() {
        let mut b = ProgramBuilder::new(SpeedBin::Mt2666);
        assert_eq!(b.build().duration_cycles(), 0);
        b.act(BankId(0), GlobalRow(0))
            .wait_cycles(100)
            .pre(BankId(0));
        assert_eq!(b.build().duration_cycles(), 101);
    }
}
