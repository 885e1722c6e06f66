//! The in-DRAM operations: RowClone, NOT, N-input AND/OR/NAND/NOR and
//! in-subarray MAJ, executed over the command interface against a
//! discovered [`ActivationMap`].
//!
//! Each device gate — NOT, N-input logic and in-subarray MAJ — has
//! exactly one command-program builder ([`GateSite`]) and one
//! [`Fcdram`] call that ships it ([`Fcdram::not_outcome`],
//! [`Fcdram::logic_outcome`], [`Fcdram::maj_outcome`]) and returns
//! where the result landed and the row-shaped outcome. Results are read
//! back on their own, full width ([`Fcdram::read_row`]) or as packed
//! shared-half lanes ([`Fcdram::read_lanes`]). Every layer that issues
//! a gate takes its program from there: the characterization runner,
//! the bulk engine and the command-schedule execution backend.

use crate::error::{FcdramError, Result};
use crate::mapping::{ActivationMap, InSubarrayEntry, PatternEntry};
use bender::{Bender, ProgramBuilder};
use dram_core::{
    BankId, Bit, ChipId, CsTerminal, DramModule, Geometry, GlobalRow, LocalRow, LogicOp,
    ModuleConfig, OpOutcome, OutcomeKind, PackedBits, SubarrayId,
};

/// Where a device gate's command program runs: the geometry that
/// resolves pattern entries into bank rows, and the bank addressed.
///
/// Its three builders — [`GateSite::not`], [`GateSite::logic`] and
/// `GateSite::maj` — are the only place a gate's command sequence is
/// written down. They emit into a caller's [`ProgramBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateSite {
    /// The chip geometry.
    pub geom: Geometry,
    /// The bank the program addresses.
    pub bank: BankId,
}

/// What a gate builder emitted, beyond the commands themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateLayout {
    /// The rows that hold the result: the NOT destination rows, the
    /// read terminal's rows (compute side for AND/OR, reference side
    /// for NAND/NOR), or the MAJ set's rows. The bulk engine reads back
    /// only the first.
    pub result_rows: Vec<GlobalRow>,
}

impl GateSite {
    /// NOT (§5.1): the source staging write, then the tRP-violating
    /// copy-invert pair `entry.rf → entry.rl`. `src` becomes the
    /// write's payload.
    ///
    /// # Errors
    ///
    /// Fails when the entry's rows are outside the geometry.
    pub fn not(
        &self,
        b: &mut ProgramBuilder,
        entry: &PatternEntry,
        src: impl Into<PackedBits>,
    ) -> Result<GateLayout> {
        let (sub_l, _) = self.geom.split_row(entry.rl)?;
        let result_rows = self.join_rows(sub_l, &entry.second_rows)?;
        b.seq_write_row(self.bank, entry.rf, src);
        b.seq_copy_invert(self.bank, entry.rf, entry.rl);
        Ok(GateLayout { result_rows })
    }

    /// N-input logic (§6.1) through an `N:N` entry: the reference side
    /// gets N−1 constant rows (all-1 for the AND family, all-0 for the
    /// OR family) and one `Frac` row, the compute side gets `operands`
    /// identity-padded with constant rows to N, then the doubly
    /// violated charge-sharing activation. Each operand row becomes its
    /// write's payload as it is; each constant row is a copy of one
    /// filled row.
    ///
    /// # Errors
    ///
    /// Fails when the entry's rows are outside the geometry.
    pub fn logic(
        &self,
        b: &mut ProgramBuilder,
        entry: &PatternEntry,
        op: LogicOp,
        operands: impl IntoIterator<Item = PackedBits>,
    ) -> Result<GateLayout> {
        let (sub_ref, _) = self.geom.split_row(entry.rf)?;
        let (sub_com, _) = self.geom.split_row(entry.rl)?;
        let result_rows = self.terminal_rows(entry, op)?;
        let fill = PackedBits::splat(op.is_and_family(), self.geom.cols());
        let refs = self.join_rows(sub_ref, &entry.first_rows)?;
        let coms = self.join_rows(sub_com, &entry.second_rows)?;
        if let Some((frac, consts)) = refs.split_last() {
            for g in consts {
                b.seq_write_row(self.bank, *g, fill.clone());
            }
            b.seq_frac(self.bank, *frac);
        }
        let mut operands = operands.into_iter();
        for g in &coms {
            let data = operands.next().unwrap_or_else(|| fill.clone());
            b.seq_write_row(self.bank, *g, data);
        }
        b.seq_charge_share(self.bank, entry.rf, entry.rl);
        Ok(GateLayout { result_rows })
    }

    /// In-subarray majority (§2.2): one staging write per raised row,
    /// each input row its write's payload, then the charge-sharing
    /// activation; the majority overwrites every raised row.
    ///
    /// # Errors
    ///
    /// Fails when the entry's rows are outside the geometry.
    ///
    /// Stays `pub` although only this crate calls it: it is one of the
    /// three gate builders docs/ARCHITECTURE.md names.
    pub fn maj(
        &self,
        b: &mut ProgramBuilder,
        entry: &InSubarrayEntry,
        inputs: impl IntoIterator<Item = PackedBits>,
    ) -> Result<GateLayout> {
        let (sub, _) = self.geom.split_row(entry.rf)?;
        let result_rows = self.join_rows(sub, &entry.rows)?;
        for (g, data) in result_rows.iter().zip(inputs) {
            b.seq_write_row(self.bank, *g, data);
        }
        b.seq_charge_share(self.bank, entry.rf, entry.rl);
        Ok(GateLayout { result_rows })
    }

    /// The rows `op`'s result lands in: the reference side for
    /// NAND/NOR, the compute side for AND/OR.
    ///
    /// # Errors
    ///
    /// Fails when the entry's rows are outside the geometry.
    fn terminal_rows(&self, entry: &PatternEntry, op: LogicOp) -> Result<Vec<GlobalRow>> {
        let (anchor, rows) = if op.is_inverted_terminal() {
            (entry.rf, &entry.first_rows)
        } else {
            (entry.rl, &entry.second_rows)
        };
        let (sub, _) = self.geom.split_row(anchor)?;
        self.join_rows(sub, rows)
    }

    fn join_rows(&self, sub: SubarrayId, rows: &[LocalRow]) -> Result<Vec<GlobalRow>> {
        rows.iter()
            .map(|r| Ok(self.geom.join_row(sub, *r)?))
            .collect()
    }
}

/// The upper subarray of `entry`'s pair (it decides which column half
/// is shared).
fn upper_subarray(geom: &Geometry, entry: &PatternEntry) -> Result<SubarrayId> {
    let (sub_f, _) = geom.split_row(entry.rf)?;
    let (sub_l, _) = geom.split_row(entry.rl)?;
    Ok(SubarrayId(sub_f.index().min(sub_l.index())))
}

/// Checks a logic operation's entry shape and input count.
fn check_logic_inputs(entry: &PatternEntry, inputs: usize) -> Result<()> {
    let (n_ref, n_com) = entry.shape();
    if n_ref != n_com {
        return Err(FcdramError::OpFailed {
            detail: format!("logic needs an N:N entry, got {n_ref}:{n_com}"),
        });
    }
    if inputs == 0 || inputs > n_com {
        return Err(FcdramError::BadInputCount {
            n: inputs,
            max: n_com,
        });
    }
    Ok(())
}

/// Checks a majority's input count (one row per raised row).
fn check_maj_inputs(entry: &InSubarrayEntry, inputs: usize) -> Result<()> {
    let n = entry.rows.len();
    if inputs != n {
        return Err(FcdramError::BadInputCount { n: inputs, max: n });
    }
    Ok(())
}

/// Checks that every staged row is `cols` wide.
fn check_widths(cols: usize, rows: &[PackedBits]) -> Result<()> {
    match rows.iter().find(|r| r.len() != cols) {
        Some(r) => Err(FcdramError::WidthMismatch {
            expected: cols,
            got: r.len(),
        }),
        None => Ok(()),
    }
}

/// `outcome` when `ok` accepts its kind; an [`FcdramError::OpFailed`]
/// naming `what` otherwise.
fn expect_kind(outcome: OpOutcome, what: &str, ok: fn(&OutcomeKind) -> bool) -> Result<OpOutcome> {
    if ok(&outcome.kind) {
        Ok(outcome)
    } else {
        Err(FcdramError::OpFailed {
            detail: format!("{what} produced {:?}", outcome.kind),
        })
    }
}

/// The FCDRAM library facade: one chip under test, programmed through
/// the testing infrastructure.
#[derive(Debug, Clone)]
pub struct Fcdram {
    bender: Bender,
    chip: ChipId,
}

impl Fcdram {
    /// Builds the full stack (module + infrastructure) for chip 0 of a
    /// module configuration.
    pub fn new(config: ModuleConfig) -> Self {
        Fcdram {
            bender: Bender::new(DramModule::new(config)),
            chip: ChipId(0),
        }
    }

    /// Wraps an existing infrastructure, targeting `chip`.
    pub fn with_chip(bender: Bender, chip: ChipId) -> Self {
        Fcdram { bender, chip }
    }

    /// The module configuration under test.
    pub fn config(&self) -> &ModuleConfig {
        self.bender.module().config()
    }

    /// The chip under test.
    pub fn chip(&self) -> ChipId {
        self.chip
    }

    /// The underlying infrastructure.
    pub(crate) fn bender(&self) -> &Bender {
        &self.bender
    }

    /// Mutable access to the underlying infrastructure.
    pub fn bender_mut(&mut self) -> &mut Bender {
        &mut self.bender
    }

    /// The current simulation configuration (the rig temperature).
    pub fn sim_config(&self) -> dram_core::SimConfig {
        dram_core::SimConfig::new().with_temperature(self.bender.temperature())
    }

    /// Applies a [`dram_core::SimConfig`]: sets the rig temperature.
    ///
    /// The rig temperature reaches a chip when it next runs a program;
    /// until then, chips heated one by one keep their own temperature.
    pub fn configure(&mut self, cfg: dram_core::SimConfig) {
        self.bender.set_temperature(cfg.temperature());
    }

    /// Builder form of [`Fcdram::configure`] for construction chains.
    #[must_use]
    pub fn with_sim_config(mut self, cfg: dram_core::SimConfig) -> Self {
        self.configure(cfg);
        self
    }

    /// The gate site of `bank` on this chip: where the gate programs
    /// every layer ships to it are built.
    pub(crate) fn site(&self, bank: BankId) -> GateSite {
        GateSite {
            geom: self.config().geometry(),
            bank,
        }
    }

    /// Discovers the activation map of a neighboring subarray pair.
    pub fn discover(
        &mut self,
        bank: BankId,
        pair: (SubarrayId, SubarrayId),
        budget: usize,
    ) -> Result<ActivationMap> {
        ActivationMap::discover(&mut self.bender, self.chip, bank, pair, budget, 16)
    }

    /// Writes a row (timing-respecting command sequence); `data`, the
    /// row's bits packed one column per bit, is the write's payload as
    /// it is.
    pub fn write_row(
        &mut self,
        bank: BankId,
        row: GlobalRow,
        data: impl Into<PackedBits>,
    ) -> Result<()> {
        self.bender.write_row(self.chip, bank, row, data)?;
        Ok(())
    }

    /// Reads a row, full width (timing-respecting command sequence).
    ///
    /// A read-back settles the row's pending draws (the bits every
    /// later read would see anyway; see [`dram_core::OpOutcome`]) and
    /// advances no op counter: besides that it only charges the chip's
    /// disturbance counters, which no later outcome reads unless a
    /// [`dram_core::DisturbancePolicy`] is installed. Without one, a
    /// caller that needs only a gate's outcome can skip reading its
    /// result rows and leaves every later operation exactly as it
    /// would have been.
    pub fn read_row(&mut self, bank: BankId, row: GlobalRow) -> Result<Vec<Bit>> {
        Ok(self.bender.read_row(self.chip, bank, row)?)
    }

    /// Reads every other column of `row` from `start` (one row's
    /// shared half), thresholded straight into `lanes` packed lanes:
    /// the bits [`Fcdram::read_row`] returns on those columns.
    pub fn read_lanes(
        &mut self,
        bank: BankId,
        row: GlobalRow,
        start: usize,
        lanes: usize,
    ) -> Result<PackedBits> {
        let words = self.bender.read_row_packed(self.chip, bank, row, start)?;
        Ok(PackedBits::from_words(words, lanes))
    }

    /// Row width in columns.
    pub fn cols(&self) -> usize {
        self.config().modeled_cols
    }

    /// In-subarray RowClone: copies `src` into `dst` (same subarray).
    ///
    /// # Errors
    ///
    /// Fails if the addresses are not in the same subarray or the pair
    /// does not clone on this chip (try a different destination).
    pub(crate) fn rowclone(
        &mut self,
        bank: BankId,
        src: GlobalRow,
        dst: GlobalRow,
    ) -> Result<OpOutcome> {
        let out = self.bender.copy_invert(self.chip, bank, src, dst)?;
        expect_kind(out, "rowclone", |k| {
            matches!(k, OutcomeKind::InSubarray { .. })
        })
    }

    /// Ships one gate program — the gate `build` emits, arming `mask`
    /// for its multi-row activation — and returns the layout and the outcome of
    /// the program's last recognized operation, the gate's own.
    fn ship(
        &mut self,
        bank: BankId,
        mask: Option<CsTerminal>,
        build: impl FnOnce(&GateSite, &mut ProgramBuilder) -> Result<GateLayout>,
    ) -> Result<(GateLayout, OpOutcome)> {
        let site = self.site(bank);
        let mut b = self.bender.builder();
        let gate = build(&site, &mut b)?;
        if let Some(need) = mask {
            self.bender.arm_cs_mask(need);
        }
        let exec = self.bender.execute(self.chip, &b.finish())?;
        let outcome = exec
            .outcomes
            .into_iter()
            .next_back()
            .map(|(_, o)| o)
            .ok_or_else(|| FcdramError::OpFailed {
                detail: "gate program produced no outcome".into(),
            })?;
        Ok((gate, outcome))
    }

    /// NOT (§5.1) through `entry`: the staging of the full-width source
    /// row `src` and the tRP-violating copy-invert ship as one program
    /// ([`GateSite::not`]), and nothing is read back. Returns where the
    /// result landed (the destination rows) and the outcome: its kind
    /// carries the activated shape (`N_RF`, `N_RL`), its row records
    /// every destination cell's success probability
    /// ([`dram_core::CellRole::NotDst`]). The destination cells draw as
    /// the copy runs (a failed NOT cell keeps its old bit).
    ///
    /// `mask` scopes what the copy resolves, as in
    /// [`Fcdram::logic_outcome`]. `None` resolves every raised row.
    /// `Some(CsTerminal::Compute)` resolves only the destination
    /// subarray's rows (`NotDst` and `OffMaj` cells, drawn and recorded
    /// exactly as unmasked) and leaves the extra source-side rows
    /// (`SrcCopy`) as they were: exact for everything the outcome's
    /// destination cells report, and safe when no extra source row is
    /// read before it is next written, as in characterization
    /// ([`dram_core::Chip::multi_act_copy_masked`]).
    ///
    /// # Errors
    ///
    /// Fails before anything ships on a width mismatch or an address
    /// outside the geometry, and after on a sequence that does not
    /// produce a NOT on this chip.
    pub fn not_outcome(
        &mut self,
        bank: BankId,
        entry: &PatternEntry,
        src: PackedBits,
        mask: Option<CsTerminal>,
    ) -> Result<(GateLayout, OpOutcome)> {
        check_widths(self.cols(), std::slice::from_ref(&src))?;
        let (gate, outcome) = self.ship(bank, mask, |site, b| {
            // Both addressed rows must resolve before anything ships.
            upper_subarray(&site.geom, entry)?;
            site.not(b, entry, src)
        })?;
        let outcome = expect_kind(outcome, "NOT", |k| matches!(k, OutcomeKind::Not { .. }))?;
        Ok((gate, outcome))
    }

    /// N-input logic (§6.1) through an `N:N` entry: the reference
    /// side's constants and `Frac`, the full-width operand rows `inputs`
    /// and the charge share ship as one program ([`GateSite::logic`]),
    /// and nothing is read back.
    /// Returns where the result landed (the result terminal's rows) and
    /// the outcome, which carries every resolved result cell's success
    /// probability and intended bit ([`dram_core::result_role`]). N is
    /// `entry.shape().1`. The result cells are not drawn yet: each
    /// resolved row owes its draws until something reads it
    /// ([`Fcdram::read_row`], [`Fcdram::read_lanes`], a later
    /// activation raising it) and drops them when it is next written
    /// whole, as the next gate's staging does.
    ///
    /// Only the shared column half carries results. For AND/NAND the
    /// reference subarray holds N−1 all-1 rows plus one `Frac` row;
    /// OR/NOR uses all-0 rows. Shorter input lists are padded with the
    /// operation's identity element (all-1 for the AND family, all-0
    /// for the OR family), which leaves the result unchanged.
    ///
    /// `mask` scopes what the charge share resolves. `None` resolves
    /// both terminals. [`CsTerminal::terminal_of`] resolves only the
    /// result terminal: exact for everything the outcome reports,
    /// since every raised row is rewritten just before the charge
    /// share and each result cell depends only on those rows; the
    /// other terminal and the non-shared half keep their staged values
    /// until next written, so a later NOT whose destination rows
    /// overlap them can observe different old bits than a full charge
    /// share would have left. [`CsTerminal::first_row_of`] resolves
    /// only the first result row, with the same `mean_success`; that is
    /// safe only when every raised row is rewritten before its next
    /// read, which the caller vouches for (as [`crate::BulkEngine`]
    /// does for its row plan).
    ///
    /// # Errors
    ///
    /// Fails before anything ships on a non-`N:N` entry, too many or no
    /// inputs, a width mismatch or an address outside the geometry, and
    /// after on an activation that does not charge-share on this chip.
    pub fn logic_outcome(
        &mut self,
        bank: BankId,
        entry: &PatternEntry,
        op: LogicOp,
        inputs: &[PackedBits],
        mask: Option<CsTerminal>,
    ) -> Result<(GateLayout, OpOutcome)> {
        check_logic_inputs(entry, inputs.len())?;
        check_widths(self.cols(), inputs)?;
        let (gate, outcome) = self.ship(bank, mask, |site, b| {
            site.logic(b, entry, op, inputs.iter().cloned())
        })?;
        let outcome = expect_kind(outcome, "charge share", |k| {
            matches!(k, OutcomeKind::Logic { .. })
        })?;
        Ok((gate, outcome))
    }

    /// In-subarray N-row majority (the Ambit/ComputeDRAM baseline the
    /// paper builds on, §2.2): one staging write per raised row
    /// (`inputs`, full width) and the charge share ship as one program
    /// (`GateSite::maj`), and nothing is read back. The majority overwrites every raised row;
    /// returns those rows and the outcome, which carries every raised
    /// cell's success probability ([`dram_core::CellRole::OffMaj`]).
    ///
    /// Unlike the cross-subarray logic operations, in-subarray MAJ
    /// computes on *every* column (both bitline halves see a
    /// precharged reference). With constant rows it expresses AND/OR:
    /// `MAJ4(A, B, 1, 0) = AND(A, B)`, `MAJ4(A, B, 1, 1) = OR(A, B)`.
    ///
    /// # Errors
    ///
    /// Fails before anything ships on an input count other than the
    /// entry's row count, a width mismatch or an address outside the
    /// geometry, and after on an activation that does not
    /// charge-share in-subarray on this chip.
    pub fn maj_outcome(
        &mut self,
        bank: BankId,
        entry: &InSubarrayEntry,
        inputs: &[PackedBits],
    ) -> Result<(GateLayout, OpOutcome)> {
        check_maj_inputs(entry, inputs.len())?;
        check_widths(self.cols(), inputs)?;
        let (gate, outcome) = self.ship(bank, None, |site, b| {
            site.maj(b, entry, inputs.iter().cloned())
        })?;
        let outcome = expect_kind(outcome, "in-subarray activation", |k| {
            matches!(k, OutcomeKind::InSubarray { .. })
        })?;
        Ok((gate, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::config::table1;
    use dram_core::{is_shared_col, result_role, CellRole, Col, RowOutcome};

    fn fc() -> Fcdram {
        let cfg = table1().into_iter().next().unwrap().with_modeled_cols(64);
        Fcdram::new(cfg)
    }

    fn pattern(seed: u64, n: usize) -> Vec<Bit> {
        (0..n)
            .map(|c| {
                Bit::from(
                    dram_core::math::hash_to_unit(dram_core::math::mix2(seed, c as u64)) < 0.5,
                )
            })
            .collect()
    }

    fn map_for(fc: &mut Fcdram) -> ActivationMap {
        fc.discover(BankId(0), (SubarrayId(0), SubarrayId(1)), 8192)
            .unwrap()
    }

    fn rows(inputs: &[Vec<Bit>]) -> Vec<PackedBits> {
        inputs.iter().map(PackedBits::from).collect()
    }

    /// The shared columns of subarray pair (0, 1).
    fn shared(cols: usize) -> Vec<usize> {
        (0..cols)
            .filter(|c| is_shared_col(SubarrayId(0), Col(*c)))
            .collect()
    }

    /// The fraction of cells in columns `cols`, across every row of
    /// `layout` read back full width, that hold `want[col]`.
    fn accuracy(fc: &mut Fcdram, layout: &GateLayout, cols: &[usize], want: &[Bit]) -> f64 {
        let mut correct = 0;
        for g in &layout.result_rows {
            let data = fc.read_row(BankId(0), *g).unwrap();
            correct += cols.iter().filter(|c| data[**c] == want[**c]).count();
        }
        correct as f64 / (layout.result_rows.len() * cols.len()) as f64
    }

    /// The ideal full-width result of `op` over `inputs`.
    fn ideal(op: LogicOp, inputs: &[Vec<Bit>]) -> Vec<Bit> {
        (0..inputs[0].len())
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

    /// What a gate call returns.
    type Shipped = Result<(GateLayout, OpOutcome)>;

    fn logic(fc: &mut Fcdram, entry: &PatternEntry, op: LogicOp, inputs: &[Vec<Bit>]) -> Shipped {
        let mask = Some(CsTerminal::terminal_of(op));
        fc.logic_outcome(BankId(0), entry, op, &rows(inputs), mask)
    }

    fn maj_set(fc: &mut Fcdram, sub: SubarrayId, budget: usize, cap: usize) -> InSubarrayEntry {
        let chip = fc.chip();
        let sets = crate::mapping::discover_in_subarray(
            fc.bender_mut(),
            chip,
            BankId(0),
            sub,
            budget,
            cap,
        )
        .unwrap();
        sets.get(&4)
            .and_then(|v| v.first())
            .expect("a 4-row in-subarray set")
            .clone()
    }

    #[test]
    fn not_through_map_negates() {
        let mut fc = fc();
        let map = map_for(&mut fc);
        let entry = map
            .find_dst(1)
            .first()
            .cloned()
            .cloned()
            .or_else(|| map.find_dst(2).first().cloned().cloned())
            .expect("a small NOT pattern");
        let src = pattern(11, fc.cols());
        let (layout, outcome) = fc
            .not_outcome(BankId(0), &entry, src.clone().into(), None)
            .unwrap();
        assert!(matches!(outcome.kind, OutcomeKind::Not { .. }));
        let want: Vec<Bit> = src.iter().map(|b| b.not()).collect();
        let cols = shared(fc.cols());
        let observed = accuracy(&mut fc, &layout, &cols, &want);
        assert!(observed > 0.9, "observed {observed}");
        let predicted = outcome.mean_success(CellRole::NotDst).unwrap();
        assert!(predicted > 0.9, "predicted {predicted}");
        assert_eq!(layout.result_rows.len(), entry.second_rows.len());
    }

    #[test]
    fn and_2_through_map() {
        let mut fc = fc();
        let map = map_for(&mut fc);
        let entry = map.find_nn(2).expect("2:2 entry").clone();
        assert_eq!(entry.shape().1, 2);
        let inputs = [pattern(1, fc.cols()), pattern(2, fc.cols())];
        let (layout, _) = logic(&mut fc, &entry, LogicOp::And, &inputs).unwrap();
        let want = ideal(LogicOp::And, &inputs);
        let cols = shared(fc.cols());
        let observed = accuracy(&mut fc, &layout, &cols, &want);
        assert!(observed > 0.55, "observed {observed}");
    }

    /// NAND lands on the reference terminal, AND on the compute one,
    /// and the NAND rows hold the inverted AND.
    #[test]
    fn nand_is_inverted_and() {
        let mut fc = fc();
        let map = map_for(&mut fc);
        let entry = map.find_nn(2).expect("2:2 entry").clone();
        let inputs = [pattern(3, fc.cols()), pattern(4, fc.cols())];
        let (and, _) = logic(&mut fc, &entry, LogicOp::And, &inputs).unwrap();
        let (nand, _) = logic(&mut fc, &entry, LogicOp::Nand, &inputs).unwrap();
        assert_ne!(and.result_rows, nand.result_rows);
        let inverted: Vec<Bit> = ideal(LogicOp::And, &inputs)
            .iter()
            .map(|b| b.not())
            .collect();
        let cols = shared(fc.cols());
        let observed = accuracy(&mut fc, &nand, &cols, &inverted);
        assert!(observed > 0.55, "observed {observed}");
    }

    #[test]
    fn or_identity_padding() {
        let mut fc = fc();
        let map = map_for(&mut fc);
        let entry = map.find_nn(4).expect("4:4 entry").clone();
        // Three inputs into a 4:4 pattern: padded with all-0 for OR.
        let ins = vec![
            pattern(5, fc.cols()),
            pattern(6, fc.cols()),
            pattern(7, fc.cols()),
        ];
        let (layout, _) = logic(&mut fc, &entry, LogicOp::Or, &ins).unwrap();
        let want = ideal(LogicOp::Or, &ins);
        let cols = shared(fc.cols());
        assert!(accuracy(&mut fc, &layout, &cols, &want) > 0.5);
    }

    #[test]
    fn logic_rejects_mismatched_shape() {
        let mut fc = fc();
        let map = map_for(&mut fc);
        // Find an N:2N entry if one exists; it must be rejected.
        if let Some(entry) = map
            .shapes()
            .into_iter()
            .find(|(f, l)| f != l)
            .and_then(|(f, l)| map.find(f, l).first().cloned())
        {
            let ins = vec![pattern(1, fc.cols()); 2];
            let err = logic(&mut fc, &entry, LogicOp::And, &ins).unwrap_err();
            assert!(matches!(err, FcdramError::OpFailed { .. }));
        }
    }

    #[test]
    fn logic_rejects_too_many_inputs() {
        let mut fc = fc();
        let map = map_for(&mut fc);
        let entry = map.find_nn(2).expect("2:2 entry").clone();
        let ins = vec![pattern(1, fc.cols()); 3];
        let err = logic(&mut fc, &entry, LogicOp::And, &ins).unwrap_err();
        assert!(matches!(err, FcdramError::BadInputCount { .. }));
    }

    /// A rejected gate call ships nothing: no row of the pair moves.
    #[test]
    fn width_mismatch_rejected() {
        let mut fc = fc();
        let map = map_for(&mut fc);
        let entry = map.find_nn(2).expect("2:2 entry").clone();
        let pair_rows = |fc: &mut Fcdram| -> Vec<Vec<Bit>> {
            let rows = 2 * fc.config().geometry().rows_per_subarray();
            (0..rows).map(|r| direct(fc, GlobalRow(r))).collect()
        };
        let before = pair_rows(&mut fc);
        let err = fc
            .not_outcome(BankId(0), &entry, PackedBits::ones(3), None)
            .unwrap_err();
        assert!(matches!(err, FcdramError::WidthMismatch { .. }));
        let short = rows(&[pattern(1, fc.cols()), pattern(2, 3)]);
        let err = fc
            .logic_outcome(BankId(0), &entry, LogicOp::And, &short, None)
            .unwrap_err();
        assert!(matches!(err, FcdramError::WidthMismatch { .. }));
        assert!(pair_rows(&mut fc) == before, "a rejected gate shipped");
    }

    #[test]
    fn rowclone_copies_within_subarray() {
        let mut fc = fc();
        let src_data = pattern(21, fc.cols());
        fc.write_row(BankId(0), GlobalRow(5), src_data.clone())
            .unwrap();
        // Scan for a working clone destination in the same subarray.
        for dst in [261usize, 266, 271, 280, 300, 320, 350] {
            if let Ok(out) = fc.rowclone(BankId(0), GlobalRow(5), GlobalRow(dst)) {
                if matches!(out.kind, OutcomeKind::InSubarray { rows: 2 }) {
                    let got = fc.read_row(BankId(0), GlobalRow(dst)).unwrap();
                    let same = got.iter().zip(&src_data).filter(|(a, b)| a == b).count();
                    assert!(same * 10 >= fc.cols() * 9);
                    return;
                }
            }
        }
        panic!("no clean rowclone pair found");
    }

    #[test]
    fn in_subarray_maj_computes_majority() {
        let mut fc = fc();
        let entry = maj_set(&mut fc, SubarrayId(2), 8192, 4);
        let cols = fc.cols();
        let a = pattern(31, cols);
        let b = pattern(32, cols);
        let ones = vec![Bit::One; cols];
        let zeros = vec![Bit::Zero; cols];
        // MAJ4(A, B, 1, 0) = AND(A, B).
        let inputs = rows(&[a.clone(), b.clone(), ones, zeros]);
        let (layout, outcome) = fc.maj_outcome(BankId(0), &entry, &inputs).unwrap();
        assert_eq!(layout.result_rows.len(), 4);
        let want = ideal(LogicOp::And, &[a, b]);
        let all: Vec<usize> = (0..cols).collect();
        let observed = accuracy(&mut fc, &layout, &all, &want);
        assert!(observed > 0.6, "{observed}");
        let predicted = outcome.mean_success(CellRole::OffMaj).unwrap();
        assert!(predicted > 0.6, "{predicted}");
    }

    #[test]
    fn maj_rejects_wrong_input_count() {
        let mut fc = fc();
        let chip = fc.chip();
        let sets = crate::mapping::discover_in_subarray(
            fc.bender_mut(),
            chip,
            BankId(0),
            SubarrayId(2),
            4096,
            2,
        )
        .unwrap();
        if let Some(entry) = sets.values().next().and_then(|v| v.first()) {
            let ins = rows(&[pattern(1, fc.cols())]);
            if entry.rows.len() != 1 {
                let err = fc.maj_outcome(BankId(0), entry, &ins).unwrap_err();
                assert!(matches!(err, FcdramError::BadInputCount { .. }));
            }
        }
    }

    #[test]
    fn samsung_part_fails_logic_gracefully() {
        let cfg = table1()
            .into_iter()
            .find(|m| m.manufacturer == dram_core::Manufacturer::Samsung)
            .unwrap()
            .with_modeled_cols(32);
        let mut fc = Fcdram::new(cfg);
        // Samsung: sequential only ⇒ charge share unsupported.
        let entry = PatternEntry {
            rf: GlobalRow(0),
            rl: GlobalRow(512),
            first_rows: vec![dram_core::LocalRow(0)],
            second_rows: vec![dram_core::LocalRow(0)],
            kind: dram_core::PatternKind::NN,
        };
        let ins = vec![vec![Bit::One; 32]];
        let err = logic(&mut fc, &entry, LogicOp::And, &ins).unwrap_err();
        assert!(matches!(err, FcdramError::OpFailed { .. }));
    }

    /// A destination-only NOT (`Some(CsTerminal::Compute)`) against an
    /// unmasked twin, on two Table-1 parts and every discovered shape
    /// (multi-row ones included), one after another on one chip: the
    /// destination subarray stores the same bits, the outcome carries
    /// the same `NotDst`/`OffMaj` records and statistics and no
    /// `SrcCopy` record, and the extra source rows keep what they held.
    #[test]
    fn destination_only_not_matches_an_unmasked_twin() {
        let parts: Vec<ModuleConfig> = table1()
            .into_iter()
            .filter(|m| m.manufacturer == dram_core::Manufacturer::SkHynix)
            .collect();
        let bank = BankId(0);
        let mut multi_row = 0;
        for cfg in [&parts[0], &parts[parts.len() - 1]] {
            let cfg = cfg.clone().with_modeled_cols(64);
            let mut masked = Fcdram::new(cfg.clone());
            let mut twin = Fcdram::new(cfg.clone());
            let map = map_for(&mut masked);
            let geom = cfg.geometry();
            let cols = geom.cols();
            for (k, (n_rf, n_rl)) in map.shapes().into_iter().enumerate() {
                let entry = map.find(n_rf, n_rl)[0].clone();
                let ctx = format!("{} {n_rf}:{n_rl}", cfg.name);
                multi_row += usize::from(n_rf > 1 && n_rl > 1);
                let (sub_f, loc_f) = geom.split_row(entry.rf).unwrap();
                let (sub_l, _) = geom.split_row(entry.rl).unwrap();
                let extra: Vec<GlobalRow> = (entry.first_rows.iter())
                    .filter(|r| **r != loc_f)
                    .map(|r| geom.join_row(sub_f, *r).unwrap())
                    .collect();
                let dst: Vec<GlobalRow> = (entry.second_rows.iter())
                    .map(|r| geom.join_row(sub_l, *r).unwrap())
                    .collect();
                let old: Vec<Vec<Bit>> = (0..extra.len() + dst.len())
                    .map(|i| pattern((1000 * k + i) as u64, cols))
                    .collect();
                for fc in [&mut masked, &mut twin] {
                    for (g, bits) in extra.iter().chain(&dst).zip(&old) {
                        fc.write_row(bank, *g, bits.clone()).unwrap();
                    }
                }
                let src: PackedBits = pattern(77 + k as u64, cols).into();
                let mask = Some(CsTerminal::Compute);
                let (_, got) = masked.not_outcome(bank, &entry, src.clone(), mask).unwrap();
                let (_, want) = twin.not_outcome(bank, &entry, src, None).unwrap();
                for g in &dst {
                    let (a, b) = (direct(&mut masked, *g), direct(&mut twin, *g));
                    assert_eq!(a, b, "{ctx}: row {g:?}");
                }
                let dst_side = |r: &RowOutcome| r.roles != [CellRole::SrcCopy; 2];
                let want_cells = row_records(&want, dst_side);
                assert_eq!(row_records(&got, |_| true), want_cells, "{ctx}: records");
                assert_eq!(got.kind, want.kind, "{ctx}");
                for role in [CellRole::NotDst, CellRole::OffMaj] {
                    assert_eq!(
                        got.stats.role(role),
                        want.stats.role(role),
                        "{ctx}: {role:?}"
                    );
                }
                assert_eq!(got.stats.role(CellRole::SrcCopy).count, 0, "{ctx}");
                let copies = want.stats.role(CellRole::SrcCopy).count;
                assert_eq!(copies, extra.len() * cols, "{ctx}: the twin copies");
                for (g, bits) in extra.iter().zip(&old) {
                    let kept = direct(&mut masked, *g);
                    assert_eq!(&kept, bits, "{ctx}: source row {g:?} kept");
                }
            }
        }
        assert!(multi_row > 0, "no multi-row NOT shape was exercised");
    }

    /// Row `g` of bank 0 on `fc`'s chip, read directly (no disturbance
    /// charged; pending draws settle).
    fn direct(fc: &mut Fcdram, g: GlobalRow) -> Vec<Bit> {
        let chip = fc.chip();
        let dev = fc.bender_mut().module_mut().chip_mut(chip);
        dev.read_row_direct(BankId(0), g).unwrap()
    }

    /// One row record with its cells' success probabilities (as bits)
    /// and intended values, the record's offset dropped.
    type RowRecord = (RowOutcome, Vec<u64>, Vec<Bit>);

    /// The row records of `outcome` that `keep` selects, in order.
    fn row_records(outcome: &OpOutcome, keep: impl Fn(&RowOutcome) -> bool) -> Vec<RowRecord> {
        (outcome.rows.iter().filter(|r| keep(r)))
            .map(|r| {
                let p = outcome.p_of(r).iter().map(|p| p.to_bits()).collect();
                let row = RowOutcome { offset: 0, ..*r };
                (row, p, outcome.intended_of(r).to_vec())
            })
            .collect()
    }

    /// Every recorded cell of `outcome` in `role`: its row, column,
    /// intended value and success probability (as bits), and the bit
    /// its row reads back.
    type Cells = Vec<(LocalRow, usize, Bit, u64, Bit)>;

    fn cells_read_back(fc: &mut Fcdram, outcome: &OpOutcome, role: CellRole) -> Cells {
        let geom = fc.config().geometry();
        let mut out = Vec::new();
        for r in &outcome.rows {
            let read = direct(fc, geom.join_row(r.subarray, r.row).unwrap());
            let cells = r.cols().zip(outcome.p_of(r)).zip(outcome.intended_of(r));
            for ((c, p), want) in cells {
                if r.roles[c % 2] == role {
                    out.push((r.row, c, *want, p.to_bits(), read[c]));
                }
            }
        }
        out
    }

    /// A logic gate's figures recomputed on a twin stack that stages
    /// the same rows and runs an unmasked (both-terminal) charge share:
    /// `(result, expected, observed, predicted, cells)`.
    type Unmasked = (Vec<Bit>, Vec<Bit>, f64, f64, Cells);

    /// Stages every raised row of `entry` as [`GateSite::logic`] does:
    /// constant reference rows plus one `Frac`, identity-padded
    /// operands.
    fn stage_logic(fc: &mut Fcdram, entry: &PatternEntry, op: LogicOp, inputs: &[Vec<Bit>]) {
        let (bank, chip) = (BankId(0), fc.chip());
        let geom = fc.config().geometry();
        let (sub_ref, _) = geom.split_row(entry.rf).unwrap();
        let (sub_com, _) = geom.split_row(entry.rl).unwrap();
        let fill = vec![Bit::from(op.is_and_family()); geom.cols()];
        for (i, row) in entry.first_rows.iter().enumerate() {
            let g = geom.join_row(sub_ref, *row).unwrap();
            if i + 1 == entry.first_rows.len() {
                fc.bender_mut().frac(chip, bank, g).unwrap();
            } else {
                fc.bender_mut()
                    .write_row(chip, bank, g, fill.clone())
                    .unwrap();
            }
        }
        for (i, row) in entry.second_rows.iter().enumerate() {
            let g = geom.join_row(sub_com, *row).unwrap();
            let data = inputs.get(i).unwrap_or(&fill).clone();
            fc.bender_mut().write_row(chip, bank, g, data).unwrap();
        }
    }

    fn logic_unmasked(
        fc: &mut Fcdram,
        entry: &PatternEntry,
        op: LogicOp,
        inputs: &[Vec<Bit>],
    ) -> Unmasked {
        let (bank, chip) = (BankId(0), fc.chip());
        let geom = fc.config().geometry();
        let (sub_ref, _) = geom.split_row(entry.rf).unwrap();
        let (sub_com, _) = geom.split_row(entry.rl).unwrap();
        let upper = SubarrayId(sub_ref.index().min(sub_com.index()));
        stage_logic(fc, entry, op, inputs);
        let outcome = fc
            .bender_mut()
            .charge_share(chip, bank, entry.rf, entry.rl)
            .unwrap();
        let shared: Vec<usize> = (0..geom.cols())
            .filter(|c| is_shared_col(upper, Col(*c)))
            .collect();
        let want = ideal(op, inputs);
        let expected: Vec<Bit> = shared.iter().map(|c| want[*c]).collect();
        let role = result_role(op);
        let (sub, rows) = if op.is_inverted_terminal() {
            (sub_ref, &entry.first_rows)
        } else {
            (sub_com, &entry.second_rows)
        };
        let mut correct = 0usize;
        let mut result = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let g = geom.join_row(sub, *row).unwrap();
            let data = fc.read_row(bank, g).unwrap();
            let got: Vec<Bit> = shared.iter().map(|c| data[*c]).collect();
            correct += got.iter().zip(&expected).filter(|(a, b)| a == b).count();
            if i == 0 {
                result = got;
            }
        }
        let cells = cells_read_back(fc, &outcome, role);
        (
            result,
            expected,
            correct as f64 / (rows.len() * shared.len()) as f64,
            outcome.mean_success(role).unwrap_or(0.0),
            cells,
        )
    }

    /// A logic gate resolving only its result terminal
    /// ([`CsTerminal::terminal_of`]), every result row read back,
    /// reports exactly what a full charge share over the same staged
    /// rows reports — across a sequence of operations on one chip, so
    /// each op also sees the rows the previous op left unresolved.
    #[test]
    fn masked_logic_matches_an_unmasked_twin() {
        let mut masked = fc();
        let mut twin = fc();
        let map = masked
            .discover(BankId(0), (SubarrayId(0), SubarrayId(1)), 16384)
            .unwrap();
        let cols = shared(masked.cols());
        for (k, n) in [2usize, 4, 8, 16].into_iter().enumerate() {
            let entry = map.find_nn(n).expect("an N:N entry").clone();
            for (j, op) in LogicOp::ALL.into_iter().enumerate() {
                let inputs: Vec<Vec<Bit>> = (0..n)
                    .map(|i| pattern((100 * k + 10 * j + i) as u64, masked.cols()))
                    .collect();
                let (layout, outcome) = logic(&mut masked, &entry, op, &inputs).unwrap();
                let want = ideal(op, &inputs);
                let observed = accuracy(&mut masked, &layout, &cols, &want);
                let first = masked.read_row(BankId(0), layout.result_rows[0]).unwrap();
                let (result, expected, twin_observed, predicted, cells) =
                    logic_unmasked(&mut twin, &entry, op, &inputs);
                let role = result_role(op);
                let ctx = format!("{op:?} n={n}");
                let got: Vec<Bit> = cols.iter().map(|c| first[*c]).collect();
                assert_eq!(got, result, "{ctx} result");
                let ideal_shared: Vec<Bit> = cols.iter().map(|c| want[*c]).collect();
                assert_eq!(ideal_shared, expected, "{ctx} expected");
                assert_eq!(observed, twin_observed, "{ctx} observed");
                assert_eq!(
                    outcome.mean_success(role).unwrap_or(0.0),
                    predicted,
                    "{ctx} predicted"
                );
                assert!(!cells.is_empty(), "{ctx}: no result cells");
                assert!(
                    outcome.rows.iter().all(|r| r.roles == [role; 2]),
                    "{ctx}: the outcome carries only the result terminal"
                );
                let got = cells_read_back(&mut masked, &outcome, role);
                assert_eq!(got, cells, "{ctx} result cells");
            }
        }
    }

    /// The row-scoped charge share the bulk engine uses
    /// ([`CsTerminal::first_row_of`]) against the whole-terminal one
    /// ([`CsTerminal::terminal_of`]) on twin stacks: the first result
    /// row and `mean_success` are identical, the other result rows
    /// keep their staged values, and only the first row is recorded.
    #[test]
    fn row_scoped_logic_matches_a_whole_terminal_twin() {
        let cfg = table1().into_iter().next().unwrap().with_modeled_cols(1024);
        let mut scoped = Fcdram::new(cfg.clone());
        let mut whole = Fcdram::new(cfg);
        let (bank, chip) = (BankId(0), scoped.chip());
        let pair = (SubarrayId(0), SubarrayId(1));
        let map = scoped.discover(bank, pair, 16384).unwrap();
        whole.discover(bank, pair, 16384).unwrap();
        let geom = scoped.config().geometry();
        let shared = (0..geom.cols())
            .filter(|c| is_shared_col(pair.0, Col(*c)))
            .count();
        for (k, n) in [2usize, 4, 8, 16].into_iter().enumerate() {
            let entry = map.find_nn(n).expect("an N:N entry").clone();
            let (sub_ref, _) = geom.split_row(entry.rf).unwrap();
            let (sub_com, _) = geom.split_row(entry.rl).unwrap();
            for (j, op) in LogicOp::ALL.into_iter().enumerate() {
                let inputs: Vec<Vec<Bit>> = (0..n)
                    .map(|i| pattern((1000 + 100 * k + 10 * j + i) as u64, geom.cols()))
                    .collect();
                let role = result_role(op);
                let (sub, rows) = if op.is_inverted_terminal() {
                    (sub_ref, &entry.first_rows)
                } else {
                    (sub_com, &entry.second_rows)
                };
                let result_rows: Vec<GlobalRow> = rows
                    .iter()
                    .map(|r| geom.join_row(sub, *r).unwrap())
                    .collect();
                let mut staged = Vec::new();
                let mut outcomes = Vec::new();
                for (fc, need) in [
                    (&mut scoped, CsTerminal::first_row_of(op)),
                    (&mut whole, CsTerminal::terminal_of(op)),
                ] {
                    stage_logic(fc, &entry, op, &inputs);
                    staged = result_rows.iter().map(|g| direct(fc, *g)).collect();
                    let outcome = fc
                        .bender_mut()
                        .charge_share_masked(chip, bank, entry.rf, entry.rl, need)
                        .unwrap();
                    outcomes.push(outcome);
                }
                let (a, b) = (&outcomes[0], &outcomes[1]);
                let ctx = format!("{op:?} n={n}");
                assert_eq!(
                    direct(&mut scoped, result_rows[0]),
                    direct(&mut whole, result_rows[0]),
                    "{ctx}: first result row"
                );
                assert_eq!(
                    a.mean_success(role).map(f64::to_bits),
                    b.mean_success(role).map(f64::to_bits),
                    "{ctx}: mean_success"
                );
                for (i, g) in result_rows.iter().enumerate().skip(1) {
                    assert_eq!(
                        direct(&mut scoped, *g),
                        staged[i],
                        "{ctx}: row {i} stays staged"
                    );
                }
                // Only the first row resolves: its cells are the whole
                // twin's first-row cells, and so are their read-backs.
                let (sa, sb) = (a.stats.role(role), b.stats.role(role));
                assert_eq!((sa.count, sb.count), (n * shared, n * shared), "{ctx}");
                assert_eq!((a.p.len(), b.p.len()), (shared, n * shared), "{ctx}");
                let first = row_records(b, |r| r.roles == [role; 2] && r.row == rows[0]);
                assert_eq!(
                    row_records(a, |_| true),
                    first,
                    "{ctx}: first-row cells only"
                );
                let scoped_cells = cells_read_back(&mut scoped, a, role);
                let whole_cells = cells_read_back(&mut whole, b, role);
                assert_eq!(
                    scoped_cells,
                    whole_cells[..shared],
                    "{ctx}: first-row reads"
                );
            }
        }
    }

    /// Logic with the mask off (no Table-1 part takes this branch in
    /// the engine) against the direct-Bender reference `split`: each
    /// row staged by its own program, then a full charge share. The
    /// first result row's lanes, the prediction and every device row of
    /// the pair agree.
    #[test]
    fn unmasked_value_logic_matches_the_split_reference() {
        let bank = BankId(0);
        let (mut value, mut split) = (fc(), fc());
        let pair = (SubarrayId(0), SubarrayId(1));
        let map = value.discover(bank, pair, 16384).unwrap();
        split.discover(bank, pair, 16384).unwrap();
        let geom = value.config().geometry();
        let shared = shared(geom.cols());
        let (start, lanes) = (shared[0], shared.len());
        for (k, n) in [2usize, 4, 8, 16].into_iter().enumerate() {
            let entry = map.find_nn(n).expect("an N:N entry").clone();
            for (j, op) in LogicOp::ALL.into_iter().enumerate() {
                let seed = (100 * k + 10 * j) as u64;
                let vals: Vec<PackedBits> = (0..n)
                    .map(|i| PackedBits::from(pattern(seed + i as u64, lanes)))
                    .collect();
                let staged: Vec<PackedBits> = vals
                    .iter()
                    .map(|v| v.expand_strided(geom.cols(), start))
                    .collect();
                let inputs: Vec<Vec<Bit>> = staged
                    .iter()
                    .map(|r| r.to_bools().into_iter().map(Bit::from).collect())
                    .collect();
                let ctx = format!("{op:?} n={n}");
                let (layout, outcome) = value
                    .logic_outcome(bank, &entry, op, &staged, None)
                    .unwrap();
                let (result, _, _, predicted, _) = logic_unmasked(&mut split, &entry, op, &inputs);
                let got = value
                    .read_lanes(bank, layout.result_rows[0], start, lanes)
                    .unwrap();
                assert_eq!(got, PackedBits::from(result), "{ctx}: result");
                assert_eq!(
                    outcome.mean_success(result_role(op)).map(f64::to_bits),
                    Some(predicted.to_bits()),
                    "{ctx}: predicted"
                );
                for g in (0..2 * geom.rows_per_subarray()).map(GlobalRow) {
                    let (a, b) = (direct(&mut value, g), direct(&mut split, g));
                    assert_eq!(a, b, "{ctx}: row {g}");
                }
            }
        }
    }

    /// `configure` sets the rig temperature; a chip heated on its own
    /// keeps its temperature until it next runs a program.
    #[test]
    fn configure_keeps_individually_heated_chips() {
        let mut fc = fc();
        let hot = dram_core::Temperature::celsius(85.0);
        let chip = fc.bender_mut().module_mut().chip_mut(ChipId(1));
        chip.configure(chip.sim_config().with_temperature(hot));
        fc.configure(dram_core::SimConfig::new());
        let chip = fc.bender().module().chip(ChipId(1)).unwrap();
        assert_eq!(chip.temperature(), hot);
    }

    /// A builder reports its terminal's rows wherever it starts.
    #[test]
    fn builders_report_their_operand_writes() {
        let mut fc = fc();
        let map = map_for(&mut fc);
        let site = fc.site(BankId(0));
        let cols = fc.cols();
        let entry = map.find_nn(4).expect("4:4 entry").clone();
        let mut b = fc.bender().builder();
        b.seq_write_row(BankId(0), GlobalRow(9), vec![Bit::One; cols]);
        let ops = (0..3).map(|i| PackedBits::splat(i % 2 == 0, cols));
        let gate = site.logic(&mut b, &entry, LogicOp::Nor, ops).unwrap();
        assert_eq!(
            gate.result_rows,
            site.terminal_rows(&entry, LogicOp::Nor).unwrap()
        );
    }
}
