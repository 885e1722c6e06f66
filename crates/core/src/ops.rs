//! The in-DRAM operations: RowClone, Frac, NOT, and N-input
//! AND/OR/NAND/NOR, executed over the command interface against a
//! discovered [`ActivationMap`].
//!
//! Each device gate — NOT, N-input logic and in-subarray MAJ — has
//! exactly one command-program builder ([`GateSite`]). Every layer that
//! issues a gate takes its program from there: the characterization
//! ops and value ops below, the bulk engine on top of them, and the
//! command-schedule execution backend.

use crate::error::{FcdramError, Result};
use crate::mapping::{ActivationMap, InSubarrayEntry, PatternEntry};
use crate::packed::PackedBits;
use bender::{Bender, Program, ProgramBuilder};
use dram_core::{
    is_shared_col, BankId, Bit, CellRole, ChipId, Col, CsTerminal, DramModule, Geometry, GlobalRow,
    LocalRow, LogicOp, ModuleConfig, OpOutcome, OutcomeKind, SubarrayId,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Result of a value-path NOT: packed, shared columns only, first
/// destination row only, no per-cell records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FastNotResult {
    /// Shape actually activated (`N_RF`, `N_RL`).
    pub shape: (usize, usize),
    /// First destination row's shared columns (packed).
    pub result: PackedBits,
    /// Fraction of the first destination row's shared cells holding
    /// ¬src.
    pub observed_success: f64,
    /// Mean model-assigned success probability of destination cells.
    pub predicted_success: f64,
}

/// Result of a value-path logic operation (packed, shared columns
/// only, first result row only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FastLogicResult {
    /// The operation.
    pub op: LogicOp,
    /// Input count (the `N` of the `N:N` entry).
    pub n: usize,
    /// Ideal result on shared columns (packed).
    pub expected: PackedBits,
    /// First result row's shared columns (packed).
    pub result: PackedBits,
    /// Fraction of the first result row's shared cells holding the
    /// correct value.
    pub observed_success: f64,
    /// Mean model success probability of result cells.
    pub predicted_success: f64,
}

/// Result of a value-path in-subarray majority.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FastMajResult {
    /// Number of rows that charge-shared.
    pub n: usize,
    /// First raised row's shared columns (packed; the engine's vectors
    /// live on the shared half).
    pub result: PackedBits,
    /// Mean model success probability of the raised cells.
    pub predicted_success: f64,
}

/// Result of an executed NOT operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NotReport {
    /// Shape actually activated (`N_RF`, `N_RL`).
    pub shape: (usize, usize),
    /// Shared columns carrying the negated result.
    pub shared_cols: Vec<usize>,
    /// Read-back of each destination row (full width).
    pub dst_reads: Vec<(GlobalRow, Vec<Bit>)>,
    /// Fraction of destination cells on shared columns holding ¬src.
    pub observed_success: f64,
    /// Mean model-assigned success probability of destination cells
    /// (the trials → ∞ success rate).
    pub predicted_success: f64,
    /// The raw per-cell outcome, for fine-grained analysis.
    pub outcome: OpOutcome,
}

/// Result of an executed logic operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogicReport {
    /// The operation.
    pub op: LogicOp,
    /// Input count.
    pub n: usize,
    /// Shared columns carrying results.
    pub shared_cols: Vec<usize>,
    /// The ideal result on shared columns (in `shared_cols` order).
    pub expected: Vec<Bit>,
    /// The result read back from the first result row (in
    /// `shared_cols` order).
    pub result: Vec<Bit>,
    /// Fraction of result cells (all result rows × shared columns)
    /// holding the correct value.
    pub observed_success: f64,
    /// Mean model success probability of result cells.
    pub predicted_success: f64,
    /// The raw per-cell outcome, for fine-grained analysis. It carries
    /// only the result terminal's shared-half cells (role `Compute`
    /// for AND/OR, `Reference` for NAND/NOR): the other terminal and
    /// the non-shared majority half are not resolved.
    pub outcome: OpOutcome,
}

/// Result of an executed in-subarray majority operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MajReport {
    /// Number of rows that charge-shared.
    pub n: usize,
    /// The ideal majority result per column.
    pub expected: Vec<Bit>,
    /// The result read back from the first raised row.
    pub result: Vec<Bit>,
    /// Fraction of raised-row cells holding the correct majority.
    pub observed_success: f64,
    /// Mean model success probability.
    pub predicted_success: f64,
    /// The raw per-cell outcome.
    pub outcome: OpOutcome,
}

/// A deferred full-row write: `(row, data)` shipped ahead of a gate
/// program instead of as a program of its own.
pub type Prelude = Option<(GlobalRow, Vec<Bit>)>;

/// Where a device gate's command program runs: the geometry that
/// resolves pattern entries into bank rows, and the bank addressed.
///
/// Its three builders — [`GateSite::not`], [`GateSite::logic`] and
/// [`GateSite::maj`] — are the only place a gate's command sequence is
/// written down. They emit into a caller's [`ProgramBuilder`], so a
/// deferred write (or anything else) issued before them rides in the
/// same program.
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
    /// Builder indices of the per-operand `Wr` commands, in row order
    /// (for logic: the `N` compute-side rows, operands first, then
    /// identity padding), so a prebuilt program can be re-staged by
    /// patching payloads.
    pub operand_wr: Vec<usize>,
    /// The rows that hold the result: the NOT destination rows, the
    /// read terminal's rows (compute side for AND/OR, reference side
    /// for NAND/NOR), or the MAJ set's rows. The value ops read back
    /// only the first.
    pub result_rows: Vec<GlobalRow>,
}

impl GateSite {
    /// NOT (§5.1): the source staging write, then the tRP-violating
    /// copy-invert pair `entry.rf → entry.rl`.
    ///
    /// # Errors
    ///
    /// Fails when the entry's rows are outside the geometry.
    pub fn not(
        &self,
        b: &mut ProgramBuilder,
        entry: &PatternEntry,
        src: Vec<Bit>,
    ) -> Result<GateLayout> {
        let (sub_l, _) = self.geom.split_row(entry.rl)?;
        let result_rows = self.join_rows(sub_l, &entry.second_rows)?;
        let operand_wr = vec![self.stage(b, entry.rf, src)];
        b.seq_copy_invert(self.bank, entry.rf, entry.rl);
        Ok(GateLayout {
            operand_wr,
            result_rows,
        })
    }

    /// N-input logic (§6.1) through an `N:N` entry: the reference side
    /// gets N−1 constant rows (all-1 for the AND family, all-0 for the
    /// OR family) and one `Frac` row, the compute side gets `operands`
    /// identity-padded with constant rows to N, then the doubly
    /// violated charge-sharing activation.
    ///
    /// # Errors
    ///
    /// Fails when the entry's rows are outside the geometry.
    pub fn logic(
        &self,
        b: &mut ProgramBuilder,
        entry: &PatternEntry,
        op: LogicOp,
        operands: impl IntoIterator<Item = Vec<Bit>>,
    ) -> Result<GateLayout> {
        let (sub_ref, _) = self.geom.split_row(entry.rf)?;
        let (sub_com, _) = self.geom.split_row(entry.rl)?;
        let result_rows = self.terminal_rows(entry, op)?;
        let fill: Arc<[Bit]> = vec![Bit::from(op.is_and_family()); self.geom.cols()].into();
        let refs = self.join_rows(sub_ref, &entry.first_rows)?;
        let coms = self.join_rows(sub_com, &entry.second_rows)?;
        if let Some((frac, consts)) = refs.split_last() {
            for g in consts {
                b.seq_write_row(self.bank, *g, fill.clone());
            }
            b.seq_frac(self.bank, *frac);
        }
        let mut operands = operands.into_iter();
        let operand_wr = coms
            .iter()
            .map(|g| {
                let data = operands.next().map_or_else(|| fill.clone(), Arc::from);
                self.stage(b, *g, data)
            })
            .collect();
        b.seq_charge_share(self.bank, entry.rf, entry.rl);
        Ok(GateLayout {
            operand_wr,
            result_rows,
        })
    }

    /// In-subarray majority (§2.2): one staging write per raised row,
    /// then the charge-sharing activation; the majority overwrites
    /// every raised row.
    ///
    /// # Errors
    ///
    /// Fails when the entry's rows are outside the geometry.
    pub fn maj(
        &self,
        b: &mut ProgramBuilder,
        entry: &InSubarrayEntry,
        inputs: impl IntoIterator<Item = Vec<Bit>>,
    ) -> Result<GateLayout> {
        let (sub, _) = self.geom.split_row(entry.rf)?;
        let result_rows = self.join_rows(sub, &entry.rows)?;
        let operand_wr = result_rows
            .iter()
            .zip(inputs)
            .map(|(g, data)| self.stage(b, *g, data))
            .collect();
        b.seq_charge_share(self.bank, entry.rf, entry.rl);
        Ok(GateLayout {
            operand_wr,
            result_rows,
        })
    }

    /// The rows `op`'s result lands in: the reference side for
    /// NAND/NOR, the compute side for AND/OR.
    ///
    /// # Errors
    ///
    /// Fails when the entry's rows are outside the geometry.
    pub fn terminal_rows(&self, entry: &PatternEntry, op: LogicOp) -> Result<Vec<GlobalRow>> {
        let (anchor, rows) = if op.is_inverted_terminal() {
            (entry.rf, &entry.first_rows)
        } else {
            (entry.rl, &entry.second_rows)
        };
        let (sub, _) = self.geom.split_row(anchor)?;
        self.join_rows(sub, rows)
    }

    /// First shared column and shared-lane count of `entry`'s
    /// subarray pair (results live on every other column from there).
    fn shared_lanes(&self, entry: &PatternEntry) -> Result<(usize, usize)> {
        let start = (upper_subarray(&self.geom, entry)?.index() + 1) % 2;
        Ok((start, (self.geom.cols() - start).div_ceil(2)))
    }

    fn join_rows(&self, sub: SubarrayId, rows: &[LocalRow]) -> Result<Vec<GlobalRow>> {
        rows.iter()
            .map(|r| Ok(self.geom.join_row(sub, *r)?))
            .collect()
    }

    /// A timing-respecting row write; returns its `Wr` command's index
    /// (the write is `ACT`, `WR`, `PRE`).
    fn stage(&self, b: &mut ProgramBuilder, row: GlobalRow, data: impl Into<Arc<[Bit]>>) -> usize {
        let wr = b.len() + 1;
        b.seq_write_row(self.bank, row, data);
        wr
    }
}

/// The upper subarray of `entry`'s pair (it decides which column half
/// is shared).
fn upper_subarray(geom: &Geometry, entry: &PatternEntry) -> Result<SubarrayId> {
    let (sub_f, _) = geom.split_row(entry.rf)?;
    let (sub_l, _) = geom.split_row(entry.rl)?;
    Ok(SubarrayId(sub_f.index().min(sub_l.index())))
}

/// Checks a logic operation's entry shape and input count; returns N.
fn logic_width(entry: &PatternEntry, inputs: usize) -> Result<usize> {
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
    Ok(n_com)
}

fn check_width(expected: usize, got: usize) -> Result<()> {
    if got == expected {
        Ok(())
    } else {
        Err(FcdramError::WidthMismatch { expected, got })
    }
}

/// The ideal result of `op` over packed inputs.
pub(crate) fn ideal_logic(op: LogicOp, inputs: &[&PackedBits], lanes: usize) -> PackedBits {
    let mut out = PackedBits::splat(op.is_and_family(), lanes);
    for input in inputs {
        if op.is_and_family() {
            out.and_assign(input);
        } else {
            out.or_assign(input);
        }
    }
    if op.is_inverted_terminal() {
        out.not_in_place();
    }
    out
}

/// The activation shape of a NOT outcome.
fn not_shape(outcome: &OpOutcome) -> Result<(usize, usize)> {
    match outcome.kind {
        OutcomeKind::Not { n_rf, n_rl, .. } => Ok((n_rf, n_rl)),
        ref k => Err(FcdramError::OpFailed {
            detail: format!("NOT produced {k:?}"),
        }),
    }
}

fn expect_kind(outcome: &OpOutcome, in_subarray: bool) -> Result<()> {
    match (&outcome.kind, in_subarray) {
        (OutcomeKind::Logic { .. }, false) | (OutcomeKind::InSubarray { .. }, true) => Ok(()),
        (k, false) => Err(FcdramError::OpFailed {
            detail: format!("charge share produced {k:?}"),
        }),
        (k, true) => Err(FcdramError::OpFailed {
            detail: format!("in-subarray activation produced {k:?}"),
        }),
    }
}

/// The role of `op`'s result cells.
fn result_role(op: LogicOp) -> CellRole {
    if op.is_inverted_terminal() {
        CellRole::Reference
    } else {
        CellRole::Compute
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
    pub fn bender(&self) -> &Bender {
        &self.bender
    }

    /// Mutable access to the underlying infrastructure.
    pub fn bender_mut(&mut self) -> &mut Bender {
        &mut self.bender
    }

    /// The current simulation configuration (module fidelity + rig
    /// temperature).
    pub fn sim_config(&self) -> dram_core::SimConfig {
        dram_core::SimConfig::new()
            .with_fidelity(self.bender.module().fidelity())
            .with_temperature(self.bender.temperature())
    }

    /// Applies a [`dram_core::SimConfig`]: rig temperature plus the
    /// simulation fidelity of the whole module under test. Stored bits
    /// and aggregate statistics are identical across fidelity modes.
    ///
    /// The rig temperature reaches a chip when it next runs a program;
    /// until then, chips heated one by one keep their own temperature.
    pub fn configure(&mut self, cfg: dram_core::SimConfig) {
        self.bender.set_temperature(cfg.temperature());
        let module = self.bender.module_mut();
        let heated: Vec<(ChipId, dram_core::Temperature)> = (0..module.chip_count())
            .map(ChipId)
            .filter_map(|id| module.chip(id).map(|c| (id, c.temperature())))
            .collect();
        module.configure(module.sim_config().with_fidelity(cfg.fidelity()));
        for (id, t) in heated {
            let chip = module.chip_mut(id);
            chip.configure(chip.sim_config().with_temperature(t));
        }
    }

    /// Builder form of [`Fcdram::configure`] for construction chains.
    #[must_use]
    pub fn with_sim_config(mut self, cfg: dram_core::SimConfig) -> Self {
        self.configure(cfg);
        self
    }

    /// The gate site of `bank` on this chip: where the gate programs
    /// every layer ships to it are built.
    pub fn site(&self, bank: BankId) -> GateSite {
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

    /// Writes a row (timing-respecting command sequence).
    pub fn write_row(&mut self, bank: BankId, row: GlobalRow, data: Vec<Bit>) -> Result<()> {
        self.bender.write_row(self.chip, bank, row, data)?;
        Ok(())
    }

    /// Reads a row (timing-respecting command sequence).
    pub fn read_row(&mut self, bank: BankId, row: GlobalRow) -> Result<Vec<Bit>> {
        Ok(self.bender.read_row(self.chip, bank, row)?)
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
    pub fn rowclone(&mut self, bank: BankId, src: GlobalRow, dst: GlobalRow) -> Result<OpOutcome> {
        let out = self.bender.copy_invert(self.chip, bank, src, dst)?;
        match out.kind {
            OutcomeKind::InSubarray { .. } => Ok(out),
            ref k => Err(FcdramError::OpFailed {
                detail: format!("rowclone produced {k:?}"),
            }),
        }
    }

    /// `Frac`: stores ≈VDD/2 into every cell of `row`.
    pub fn frac(&mut self, bank: BankId, row: GlobalRow) -> Result<()> {
        self.bender.frac(self.chip, bank, row)?;
        Ok(())
    }

    /// A program builder for `bank` that starts with the deferred
    /// write, if any.
    fn program(&self, bank: BankId, prelude: Prelude) -> ProgramBuilder {
        let mut b = self.bender.builder();
        if let Some((row, data)) = prelude {
            b.seq_write_row(bank, row, data);
        }
        b
    }

    /// Ships one gate program — arming `mask` for its charge share —
    /// and returns the outcome of its last recognized operation, the
    /// gate's own.
    fn ship(&mut self, program: &Program, mask: Option<CsTerminal>) -> Result<OpOutcome> {
        if let Some(need) = mask {
            self.bender.arm_cs_mask(need);
        }
        let exec = self.bender.execute(self.chip, program)?;
        exec.outcomes
            .into_iter()
            .next_back()
            .map(|(_, o)| o)
            .ok_or_else(|| FcdramError::OpFailed {
                detail: "gate program produced no outcome".into(),
            })
    }

    /// Reads every other column of `row` from `start`, packed.
    fn read_lanes(
        &mut self,
        bank: BankId,
        row: GlobalRow,
        start: usize,
        lanes: usize,
    ) -> Result<PackedBits> {
        let words = self.bender.read_row_packed(self.chip, bank, row, start)?;
        Ok(PackedBits::from_words(words, lanes))
    }

    /// Executes a NOT through `entry`, negating `src_data` into the
    /// destination rows: the source write and the copy-invert ship as
    /// one program; every destination row is then read back full
    /// width for the report.
    pub fn execute_not(
        &mut self,
        bank: BankId,
        entry: &PatternEntry,
        src_data: &[Bit],
    ) -> Result<NotReport> {
        let site = self.site(bank);
        let geom = site.geom;
        check_width(geom.cols(), src_data.len())?;
        let upper = upper_subarray(&geom, entry)?;
        let mut b = self.bender.builder();
        let gate = site.not(&mut b, entry, src_data.to_vec())?;
        let outcome = self.ship(&b.finish(), None)?;
        let shape = not_shape(&outcome)?;

        let shared_cols: Vec<usize> = (0..geom.cols())
            .filter(|c| is_shared_col(upper, Col(*c)))
            .collect();
        let mut dst_reads = Vec::new();
        let mut correct = 0usize;
        let mut total = 0usize;
        for g in gate.result_rows {
            let data = self.bender.read_row(self.chip, bank, g)?;
            for c in &shared_cols {
                total += 1;
                if data[*c] == src_data[*c].not() {
                    correct += 1;
                }
            }
            dst_reads.push((g, data));
        }
        let predicted = outcome.mean_success(CellRole::NotDst).unwrap_or(0.0);
        Ok(NotReport {
            shape,
            shared_cols,
            dst_reads,
            observed_success: correct as f64 / total.max(1) as f64,
            predicted_success: predicted,
            outcome,
        })
    }

    /// Executes an N-input logic operation through an `N:N` entry.
    ///
    /// `inputs` are full-width rows (only the shared column half
    /// carries results). For AND/NAND the reference subarray is loaded
    /// with N−1 all-1 rows plus one `Frac` row; OR/NOR uses all-0
    /// rows. Shorter input lists are padded with the operation's
    /// identity element (all-1 for AND-family, all-0 for OR-family),
    /// which leaves the result unchanged. The stagings and the charge
    /// share ship as one program ([`GateSite::logic`]); every result
    /// row is then read back full width.
    ///
    /// The charge share resolves only the terminal read back (compute
    /// for AND/OR, reference for NAND/NOR; [`CsTerminal::terminal_of`]).
    /// That is exact for everything reported: every raised row is
    /// rewritten just before the charge share, and each result cell's
    /// success probability and sampled value depend only on those rows.
    /// The other terminal's rows and the non-shared column half of both
    /// sides are left unresolved: they keep their staged values until
    /// they are next written, so a later NOT whose destination rows
    /// overlap them can observe different old bits than a full charge
    /// share would have left.
    pub fn execute_logic(
        &mut self,
        bank: BankId,
        entry: &PatternEntry,
        op: LogicOp,
        inputs: &[Vec<Bit>],
    ) -> Result<LogicReport> {
        let n = logic_width(entry, inputs.len())?;
        let site = self.site(bank);
        let geom = site.geom;
        for input in inputs {
            check_width(geom.cols(), input.len())?;
        }
        let upper = upper_subarray(&geom, entry)?;
        let mut b = self.bender.builder();
        let gate = site.logic(&mut b, entry, op, inputs.iter().cloned())?;
        let outcome = self.ship(&b.finish(), Some(CsTerminal::terminal_of(op)))?;
        expect_kind(&outcome, false)?;

        let shared_cols: Vec<usize> = (0..geom.cols())
            .filter(|c| is_shared_col(upper, Col(*c)))
            .collect();
        // Ideal result per shared column.
        let expected: Vec<Bit> = shared_cols
            .iter()
            .map(|c| {
                let mut all = inputs.iter().map(|r| r[*c].as_bool());
                let agg = if op.is_and_family() {
                    all.all(|b| b)
                } else {
                    all.any(|b| b)
                };
                Bit::from(if op.is_inverted_terminal() { !agg } else { agg })
            })
            .collect();

        let mut correct = 0usize;
        let mut total = 0usize;
        let mut first_read: Option<Vec<Bit>> = None;
        for g in gate.result_rows {
            let data = self.bender.read_row(self.chip, bank, g)?;
            for (i, c) in shared_cols.iter().enumerate() {
                total += 1;
                if data[*c] == expected[i] {
                    correct += 1;
                }
            }
            if first_read.is_none() {
                first_read = Some(shared_cols.iter().map(|c| data[*c]).collect());
            }
        }
        let predicted = outcome.mean_success(result_role(op)).unwrap_or(0.0);
        Ok(LogicReport {
            op,
            n,
            shared_cols,
            expected,
            result: first_read.unwrap_or_default(),
            observed_success: correct as f64 / total.max(1) as f64,
            predicted_success: predicted,
            outcome,
        })
    }

    /// Value-path NOT: the deferred write (`prelude`), the source
    /// staging and the copy-invert ship as one program, and only the
    /// first destination row's shared columns are read back (packed).
    /// `src` carries one lane per shared column; the staged row holds
    /// zeros on the other half. `observed_success` covers the row read
    /// back.
    ///
    /// # Errors
    ///
    /// Fails on a width mismatch, an address outside the geometry, or a
    /// sequence that does not produce a NOT on this chip.
    pub fn execute_not_value(
        &mut self,
        bank: BankId,
        entry: &PatternEntry,
        src: &PackedBits,
        prelude: Prelude,
    ) -> Result<FastNotResult> {
        let site = self.site(bank);
        let (start, lanes) = site.shared_lanes(entry)?;
        check_width(lanes, src.len())?;
        let mut b = self.program(bank, prelude);
        let gate = site.not(&mut b, entry, src.expand_strided(site.geom.cols(), start))?;
        let outcome = self.ship(&b.finish(), None)?;
        let shape = not_shape(&outcome)?;
        let mut expected = src.clone();
        expected.not_in_place();
        let result = self.read_lanes(bank, gate.result_rows[0], start, lanes)?;
        Ok(FastNotResult {
            shape,
            observed_success: result.count_matches(&expected) as f64 / lanes.max(1) as f64,
            predicted_success: outcome.mean_success(CellRole::NotDst).unwrap_or(0.0),
            result,
        })
    }

    /// Value-path N-input logic: the deferred write (`prelude`), the
    /// reference-side constants and `Frac`, the operand stagings
    /// (packed, one lane per shared column, zeros on the other half)
    /// and the charge share ship as one program, and only the first
    /// result row is read back. `observed_success` covers that row.
    ///
    /// With `mask_safe`, the charge share resolves only that row
    /// ([`CsTerminal::first_row_of`]); its result, draws and
    /// `predicted_success` are the same as without. That is only safe
    /// when every raised row is rewritten before its next read — the
    /// caller vouches for its row plan (see `BulkEngine::mask_safe`).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Fcdram::execute_logic`].
    pub fn execute_logic_value(
        &mut self,
        bank: BankId,
        entry: &PatternEntry,
        op: LogicOp,
        inputs: &[&PackedBits],
        prelude: Prelude,
        mask_safe: bool,
    ) -> Result<FastLogicResult> {
        let n = logic_width(entry, inputs.len())?;
        let site = self.site(bank);
        let (start, lanes) = site.shared_lanes(entry)?;
        for input in inputs {
            check_width(lanes, input.len())?;
        }
        let cols = site.geom.cols();
        let mut b = self.program(bank, prelude);
        let staged = inputs.iter().map(|p| p.expand_strided(cols, start));
        let gate = site.logic(&mut b, entry, op, staged)?;
        let mask = mask_safe.then(|| CsTerminal::first_row_of(op));
        let outcome = self.ship(&b.finish(), mask)?;
        expect_kind(&outcome, false)?;
        let expected = ideal_logic(op, inputs, lanes);
        let result = self.read_lanes(bank, gate.result_rows[0], start, lanes)?;
        Ok(FastLogicResult {
            op,
            n,
            observed_success: result.count_matches(&expected) as f64 / lanes.max(1) as f64,
            predicted_success: outcome.mean_success(result_role(op)).unwrap_or(0.0),
            expected,
            result,
        })
    }

    /// Value-path in-subarray majority: the deferred write (`prelude`),
    /// one staging write per raised row (`inputs` are full-width rows)
    /// and the charge share ship as one program, and only the first
    /// raised row's columns from `shared_start` (every other one) are
    /// read back, packed.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Fcdram::execute_maj`].
    pub fn execute_maj_value(
        &mut self,
        bank: BankId,
        entry: &InSubarrayEntry,
        inputs: &[Vec<Bit>],
        shared_start: usize,
        prelude: Prelude,
    ) -> Result<FastMajResult> {
        let site = self.site(bank);
        let cols = site.geom.cols();
        let n = maj_width(entry, inputs, cols)?;
        let mut b = self.program(bank, prelude);
        let gate = site.maj(&mut b, entry, inputs.iter().cloned())?;
        let outcome = self.ship(&b.finish(), None)?;
        expect_kind(&outcome, true)?;
        let lanes = (cols - shared_start.min(cols)).div_ceil(2);
        let result = self.read_lanes(bank, gate.result_rows[0], shared_start, lanes)?;
        Ok(FastMajResult {
            n,
            result,
            predicted_success: outcome.mean_success(CellRole::OffMaj).unwrap_or(0.0),
        })
    }

    /// In-DRAM bulk initialization (§2.2, RowClone lineage): writes
    /// `data` to the entry's first row once, then lets a single
    /// violated-timing double activation broadcast it to *all* raised
    /// rows of the set — one row write amortized over `2^k` rows.
    ///
    /// Returns the per-row copy accuracy (fraction of cells holding
    /// `data` across the raised rows, excluding the source).
    pub fn broadcast(
        &mut self,
        bank: BankId,
        entry: &InSubarrayEntry,
        data: &[Bit],
    ) -> Result<f64> {
        let geom = self.config().geometry();
        check_width(geom.cols(), data.len())?;
        let (sub, loc_f) = geom.split_row(entry.rf)?;
        self.bender
            .write_row(self.chip, bank, entry.rf, data.to_vec())?;
        let outcome = self
            .bender
            .copy_invert(self.chip, bank, entry.rf, entry.rl)?;
        if !matches!(outcome.kind, OutcomeKind::InSubarray { .. }) {
            return Err(FcdramError::OpFailed {
                detail: format!("broadcast produced {:?}", outcome.kind),
            });
        }
        let mut correct = 0usize;
        let mut total = 0usize;
        for row in entry.rows.iter().filter(|r| **r != loc_f) {
            let got = self
                .bender
                .read_row(self.chip, bank, geom.join_row(sub, *row)?)?;
            for c in 0..geom.cols() {
                total += 1;
                if got[c] == data[c] {
                    correct += 1;
                }
            }
        }
        Ok(correct as f64 / total.max(1) as f64)
    }

    /// Executes an in-subarray N-row majority (the Ambit/ComputeDRAM
    /// baseline the paper builds on, §2.2): all raised rows
    /// charge-share and the sense amplifiers resolve the per-column
    /// majority, which overwrites every raised row. The stagings and
    /// the charge share ship as one program ([`GateSite::maj`]); every
    /// raised row is then read back full width.
    ///
    /// Unlike the cross-subarray logic operations, in-subarray MAJ
    /// computes on *every* column (both bitline halves see a
    /// precharged reference). With constant rows it expresses AND/OR:
    /// `MAJ4(A, B, 1, 0) = AND(A, B)`, `MAJ4(A, B, 1, 1) = OR(A, B)`.
    pub fn execute_maj(
        &mut self,
        bank: BankId,
        entry: &InSubarrayEntry,
        inputs: &[Vec<Bit>],
    ) -> Result<MajReport> {
        let site = self.site(bank);
        let cols = site.geom.cols();
        let n = maj_width(entry, inputs, cols)?;
        let mut b = self.bender.builder();
        let gate = site.maj(&mut b, entry, inputs.iter().cloned())?;
        let outcome = self.ship(&b.finish(), None)?;
        expect_kind(&outcome, true)?;
        let expected: Vec<Bit> = (0..cols)
            .map(|c| {
                let ones = inputs.iter().filter(|r| r[c].as_bool()).count();
                Bit::from(2 * ones > n)
            })
            .collect();
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut first_read: Option<Vec<Bit>> = None;
        for g in gate.result_rows {
            let data = self.bender.read_row(self.chip, bank, g)?;
            for c in 0..cols {
                total += 1;
                if data[c] == expected[c] {
                    correct += 1;
                }
            }
            if first_read.is_none() {
                first_read = Some(data);
            }
        }
        let predicted = outcome.mean_success(CellRole::OffMaj).unwrap_or(0.0);
        Ok(MajReport {
            n,
            expected,
            result: first_read.unwrap_or_default(),
            observed_success: correct as f64 / total.max(1) as f64,
            predicted_success: predicted,
            outcome,
        })
    }
}

/// Checks a majority's input count and widths; returns N.
fn maj_width(entry: &InSubarrayEntry, inputs: &[Vec<Bit>], cols: usize) -> Result<usize> {
    let n = entry.rows.len();
    if inputs.len() != n {
        return Err(FcdramError::BadInputCount {
            n: inputs.len(),
            max: n,
        });
    }
    for input in inputs {
        check_width(cols, input.len())?;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::config::table1;

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
        let report = fc.execute_not(BankId(0), &entry, &src).unwrap();
        assert!(
            report.observed_success > 0.9,
            "observed {}",
            report.observed_success
        );
        assert!(
            report.predicted_success > 0.9,
            "predicted {}",
            report.predicted_success
        );
        assert_eq!(report.shared_cols.len(), fc.cols() / 2);
    }

    #[test]
    fn and_2_through_map() {
        let mut fc = fc();
        let map = map_for(&mut fc);
        let entry = map.find_nn(2).expect("2:2 entry").clone();
        let a = pattern(1, fc.cols());
        let b = pattern(2, fc.cols());
        let report = fc
            .execute_logic(BankId(0), &entry, LogicOp::And, &[a.clone(), b.clone()])
            .unwrap();
        assert_eq!(report.n, 2);
        // Expected vector is the bitwise AND on shared columns.
        for (i, c) in report.shared_cols.iter().enumerate() {
            assert_eq!(
                report.expected[i],
                Bit::from(a[*c].as_bool() && b[*c].as_bool())
            );
        }
        assert!(
            report.observed_success > 0.55,
            "observed {}",
            report.observed_success
        );
    }

    #[test]
    fn nand_is_inverted_and() {
        let mut fc = fc();
        let map = map_for(&mut fc);
        let entry = map.find_nn(2).expect("2:2 entry").clone();
        let a = pattern(3, fc.cols());
        let b = pattern(4, fc.cols());
        let and = fc
            .execute_logic(BankId(0), &entry, LogicOp::And, &[a.clone(), b.clone()])
            .unwrap();
        let nand = fc
            .execute_logic(BankId(0), &entry, LogicOp::Nand, &[a, b])
            .unwrap();
        for (x, y) in and.expected.iter().zip(&nand.expected) {
            assert_eq!(x.not(), *y);
        }
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
        let report = fc
            .execute_logic(BankId(0), &entry, LogicOp::Or, &ins)
            .unwrap();
        for (i, c) in report.shared_cols.iter().enumerate() {
            let expect = ins.iter().any(|r| r[*c].as_bool());
            assert_eq!(report.expected[i], Bit::from(expect));
        }
        assert!(report.observed_success > 0.5);
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
            let err = fc
                .execute_logic(BankId(0), &entry, LogicOp::And, &ins)
                .unwrap_err();
            assert!(matches!(err, FcdramError::OpFailed { .. }));
        }
    }

    #[test]
    fn logic_rejects_too_many_inputs() {
        let mut fc = fc();
        let map = map_for(&mut fc);
        let entry = map.find_nn(2).expect("2:2 entry").clone();
        let ins = vec![pattern(1, fc.cols()); 3];
        let err = fc
            .execute_logic(BankId(0), &entry, LogicOp::And, &ins)
            .unwrap_err();
        assert!(matches!(err, FcdramError::BadInputCount { .. }));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut fc = fc();
        let map = map_for(&mut fc);
        let entry = map.find_nn(2).expect("2:2 entry").clone();
        let err = fc
            .execute_not(BankId(0), &entry, &[Bit::One; 3])
            .unwrap_err();
        assert!(matches!(err, FcdramError::WidthMismatch { .. }));
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
    fn broadcast_initializes_many_rows_from_one_write() {
        let mut fc = fc();
        let sets = crate::mapping::discover_in_subarray(
            fc.bender_mut(),
            dram_core::ChipId(0),
            BankId(0),
            SubarrayId(4),
            8192,
            4,
        )
        .unwrap();
        // Prefer a wide set: one write initializes many rows.
        let entry = sets
            .iter()
            .rev()
            .find(|(n, v)| **n >= 4 && !v.is_empty())
            .map(|(_, v)| v[0].clone())
            .expect("a wide in-subarray set");
        let data = pattern(77, fc.cols());
        let accuracy = fc.broadcast(BankId(0), &entry, &data).unwrap();
        assert!(accuracy > 0.95, "broadcast accuracy {accuracy}");
        assert!(entry.rows.len() >= 4);
    }

    #[test]
    fn in_subarray_maj_computes_majority() {
        let mut fc = fc();
        let sets = crate::mapping::discover_in_subarray(
            fc.bender_mut(),
            dram_core::ChipId(0),
            BankId(0),
            SubarrayId(2),
            8192,
            4,
        )
        .unwrap();
        let entry = sets
            .get(&4)
            .and_then(|v| v.first())
            .expect("a 4-row in-subarray set")
            .clone();
        let cols = fc.cols();
        let a = pattern(31, cols);
        let b = pattern(32, cols);
        let ones = vec![Bit::One; cols];
        let zeros = vec![Bit::Zero; cols];
        // MAJ4(A, B, 1, 0) = AND(A, B).
        let report = fc
            .execute_maj(BankId(0), &entry, &[a.clone(), b.clone(), ones, zeros])
            .unwrap();
        assert_eq!(report.n, 4);
        for c in 0..cols {
            let expect = Bit::from(a[c].as_bool() && b[c].as_bool());
            assert_eq!(report.expected[c], expect, "col {c}");
        }
        assert!(report.observed_success > 0.6, "{}", report.observed_success);
        assert!(
            report.predicted_success > 0.6,
            "{}",
            report.predicted_success
        );
    }

    #[test]
    fn maj_rejects_wrong_input_count() {
        let mut fc = fc();
        let sets = crate::mapping::discover_in_subarray(
            fc.bender_mut(),
            dram_core::ChipId(0),
            BankId(0),
            SubarrayId(2),
            4096,
            2,
        )
        .unwrap();
        if let Some(entry) = sets.values().next().and_then(|v| v.first()) {
            let ins = vec![pattern(1, fc.cols())];
            if entry.rows.len() != 1 {
                let err = fc.execute_maj(BankId(0), entry, &ins).unwrap_err();
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
        let err = fc
            .execute_logic(BankId(0), &entry, LogicOp::And, &ins)
            .unwrap_err();
        assert!(matches!(err, FcdramError::OpFailed { .. }));
    }

    /// What `execute_logic` reports, recomputed on a twin stack that
    /// stages the same rows and runs an unmasked (both-terminal)
    /// charge share: `(result, expected, observed, predicted, cells)`.
    type Unmasked = (Vec<Bit>, Vec<Bit>, f64, f64, Vec<dram_core::CellOutcome>);

    /// Stages every raised row of `entry` as `execute_logic` does:
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
        let expected: Vec<Bit> = shared
            .iter()
            .map(|c| {
                let agg = if op.is_and_family() {
                    inputs.iter().all(|r| r[*c].as_bool())
                } else {
                    inputs.iter().any(|r| r[*c].as_bool())
                };
                Bit::from(agg != op.is_inverted_terminal())
            })
            .collect();
        let (sub, rows, role) = if op.is_inverted_terminal() {
            (sub_ref, &entry.first_rows, CellRole::Reference)
        } else {
            (sub_com, &entry.second_rows, CellRole::Compute)
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
        let cells = outcome
            .cells
            .iter()
            .filter(|c| c.role == role)
            .copied()
            .collect();
        (
            result,
            expected,
            correct as f64 / (rows.len() * shared.len()) as f64,
            outcome.mean_success(role).unwrap_or(0.0),
            cells,
        )
    }

    /// `execute_logic` resolves only the terminal it reads, and reports
    /// exactly what a full charge share over the same staged rows
    /// reports — across a sequence of operations on one chip, so each
    /// op also sees the rows the previous op left unresolved.
    #[test]
    fn masked_logic_matches_an_unmasked_twin() {
        let mut masked = fc();
        let mut twin = fc();
        let map = masked
            .discover(BankId(0), (SubarrayId(0), SubarrayId(1)), 16384)
            .unwrap();
        for (k, n) in [2usize, 4, 8, 16].into_iter().enumerate() {
            let entry = map.find_nn(n).expect("an N:N entry").clone();
            for (j, op) in LogicOp::ALL.into_iter().enumerate() {
                let inputs: Vec<Vec<Bit>> = (0..n)
                    .map(|i| pattern((100 * k + 10 * j + i) as u64, masked.cols()))
                    .collect();
                let report = masked
                    .execute_logic(BankId(0), &entry, op, &inputs)
                    .unwrap();
                let (result, expected, observed, predicted, cells) =
                    logic_unmasked(&mut twin, &entry, op, &inputs);
                let role = if op.is_inverted_terminal() {
                    CellRole::Reference
                } else {
                    CellRole::Compute
                };
                assert_eq!(report.result, result, "{op:?} n={n} result");
                assert_eq!(report.expected, expected, "{op:?} n={n} expected");
                assert_eq!(report.observed_success, observed, "{op:?} n={n} observed");
                assert_eq!(
                    report.predicted_success, predicted,
                    "{op:?} n={n} predicted"
                );
                assert!(!cells.is_empty(), "{op:?} n={n}: no result cells");
                assert!(
                    report.outcome.cells.iter().all(|c| c.role == role),
                    "{op:?} n={n}: the outcome carries only the result terminal"
                );
                assert_eq!(report.outcome.cells, cells, "{op:?} n={n} result cells");
            }
        }
    }

    /// The row-scoped charge share the value path uses
    /// ([`CsTerminal::first_row_of`]) against the whole-terminal one
    /// ([`CsTerminal::terminal_of`]) on twin stacks: the first result
    /// row and `mean_success` are identical, the other result rows
    /// keep their staged values, and `observed_accuracy` covers the
    /// drawn cells only.
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
        let direct = |fc: &Fcdram, g: GlobalRow| {
            let module = fc.bender().module();
            module.chip(chip).unwrap().read_row_direct(bank, g).unwrap()
        };
        for (k, n) in [2usize, 4, 8, 16].into_iter().enumerate() {
            let entry = map.find_nn(n).expect("an N:N entry").clone();
            let (sub_ref, _) = geom.split_row(entry.rf).unwrap();
            let (sub_com, _) = geom.split_row(entry.rl).unwrap();
            for (j, op) in LogicOp::ALL.into_iter().enumerate() {
                let inputs: Vec<Vec<Bit>> = (0..n)
                    .map(|i| pattern((1000 + 100 * k + 10 * j + i) as u64, geom.cols()))
                    .collect();
                let (sub, rows, role) = if op.is_inverted_terminal() {
                    (sub_ref, &entry.first_rows, CellRole::Reference)
                } else {
                    (sub_com, &entry.second_rows, CellRole::Compute)
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
                    direct(&scoped, result_rows[0]),
                    direct(&whole, result_rows[0]),
                    "{ctx}: first result row"
                );
                assert_eq!(
                    a.mean_success(role).map(f64::to_bits),
                    b.mean_success(role).map(f64::to_bits),
                    "{ctx}: mean_success"
                );
                for (i, g) in result_rows.iter().enumerate().skip(1) {
                    assert_eq!(
                        direct(&scoped, *g),
                        staged[i],
                        "{ctx}: row {i} stays staged"
                    );
                }
                // Only the first row draws: its cells are the whole
                // twin's first-row cells, and the accuracy is theirs.
                let (sa, sb) = (a.stats.role(role), b.stats.role(role));
                assert_eq!((sa.count, sb.count), (n * shared, n * shared), "{ctx}");
                assert_eq!((sa.drawn, sb.drawn), (shared, n * shared), "{ctx}");
                let first: Vec<_> = b
                    .cells
                    .iter()
                    .filter(|c| c.role == role && c.row == rows[0])
                    .copied()
                    .collect();
                assert_eq!(a.cells, first, "{ctx}: first-row cells only");
                let matched = first.iter().filter(|c| c.actual == c.intended).count();
                assert_eq!(
                    a.observed_accuracy(role),
                    Some(matched as f64 / shared as f64),
                    "{ctx}: observed accuracy"
                );
            }
        }
    }

    /// The value op with the mask off (`mask_safe == false`; no
    /// Table-1 part takes this branch) against the split direct-Bender
    /// reference: the deferred write issued on its own, each row
    /// staged by its own program, a full charge share. Every device
    /// row of the pair, the prediction and the read-back agree, with
    /// and without a prelude.
    #[test]
    fn unmasked_value_logic_matches_the_split_reference() {
        let (bank, mut value, mut split) = (BankId(0), fc(), fc());
        let pair = (SubarrayId(0), SubarrayId(1));
        let map = value.discover(bank, pair, 16384).unwrap();
        split.discover(bank, pair, 16384).unwrap();
        let geom = value.config().geometry();
        let shared: Vec<usize> = (0..geom.cols())
            .filter(|c| is_shared_col(pair.0, Col(*c)))
            .collect();
        let spare = geom.join_row(SubarrayId(4), LocalRow(7)).unwrap();
        let pair_rows = 2 * geom.rows_per_subarray();
        for (k, n) in [2usize, 4, 8, 16].into_iter().enumerate() {
            let entry = map.find_nn(n).expect("an N:N entry").clone();
            for (j, op) in LogicOp::ALL.into_iter().enumerate() {
                let seed = (100 * k + 10 * j) as u64;
                let vals: Vec<PackedBits> = (0..n)
                    .map(|i| PackedBits::from_bits(&pattern(seed + i as u64, shared.len())))
                    .collect();
                let rows: Vec<Vec<Bit>> = vals
                    .iter()
                    .map(|v| v.expand_strided(geom.cols(), shared[0]))
                    .collect();
                let prelude = (j % 2 == 1).then(|| (spare, pattern(seed + 99, geom.cols())));
                if let Some((row, data)) = prelude.clone() {
                    split.write_row(bank, row, data).unwrap();
                }
                let refs: Vec<&PackedBits> = vals.iter().collect();
                let got = value
                    .execute_logic_value(bank, &entry, op, &refs, prelude, false)
                    .unwrap();
                let (result, expected, _, predicted, _) =
                    logic_unmasked(&mut split, &entry, op, &rows);
                let ctx = format!("{op:?} n={n}");
                assert_eq!(got.result.to_bits(), result, "{ctx}: result");
                assert_eq!(got.expected.to_bits(), expected, "{ctx}: expected");
                assert_eq!(
                    got.predicted_success.to_bits(),
                    predicted.to_bits(),
                    "{ctx}: predicted"
                );
                let matched = result.iter().zip(&expected).filter(|(a, b)| a == b).count();
                assert_eq!(
                    got.observed_success,
                    matched as f64 / shared.len() as f64,
                    "{ctx}: observed"
                );
                for g in (0..pair_rows).map(GlobalRow).chain([spare]) {
                    let direct = |fc: &Fcdram| {
                        let chip = fc.bender().module().chip(fc.chip()).unwrap();
                        chip.read_row_direct(bank, g).unwrap()
                    };
                    assert_eq!(direct(&value), direct(&split), "{ctx}: row {g}");
                }
            }
        }
    }

    /// `configure` sets the module's fidelity and the rig temperature;
    /// a chip heated on its own keeps its temperature until it next
    /// runs a program.
    #[test]
    fn configure_keeps_individually_heated_chips() {
        let mut fc = fc();
        let hot = dram_core::Temperature::celsius(85.0);
        let chip = fc.bender_mut().module_mut().chip_mut(ChipId(1));
        chip.configure(chip.sim_config().with_temperature(hot));
        fc.configure(dram_core::SimConfig::fast());
        let module = fc.bender().module();
        assert_eq!(module.fidelity(), dram_core::SimFidelity::fast());
        let chip = module.chip(ChipId(1)).unwrap();
        assert_eq!(chip.temperature(), hot);
        assert_eq!(chip.fidelity(), dram_core::SimFidelity::fast());
    }

    /// Every builder's operand slots are its `Wr` commands, in row
    /// order, wherever the builder starts.
    #[test]
    fn builders_report_their_operand_writes() {
        let mut fc = fc();
        let map = map_for(&mut fc);
        let site = fc.site(BankId(0));
        let cols = fc.cols();
        let entry = map.find_nn(4).expect("4:4 entry").clone();
        let mut b = fc.bender().builder();
        b.seq_write_row(BankId(0), GlobalRow(9), vec![Bit::One; cols]);
        let ops = (0..3).map(|i| vec![Bit::from(i % 2 == 0); cols]);
        let gate = site.logic(&mut b, &entry, LogicOp::Nor, ops).unwrap();
        let program = b.finish();
        assert_eq!(gate.operand_wr.len(), 4);
        for (i, at) in gate.operand_wr.iter().enumerate() {
            let bender::DdrCommand::Wr(_, data) = &program.commands()[*at].command else {
                panic!("slot {i} is not a Wr");
            };
            // Three operands, then the OR family's all-0 padding.
            assert_eq!(data[0], Bit::from(i < 3 && i % 2 == 0), "slot {i}");
        }
        assert_eq!(
            gate.result_rows,
            site.terminal_rows(&entry, LogicOp::Nor).unwrap()
        );
    }
}
