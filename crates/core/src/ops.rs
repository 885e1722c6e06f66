//! The in-DRAM operations: RowClone, Frac, NOT, and N-input
//! AND/OR/NAND/NOR, executed over the command interface against a
//! discovered [`ActivationMap`].

use crate::error::{FcdramError, Result};
use crate::mapping::{ActivationMap, InSubarrayEntry, PatternEntry};
use crate::packed::PackedBits;
use bender::Bender;
use dram_core::{
    is_shared_col, BankId, Bit, CellRole, ChipId, Col, CsTerminal, DramModule, GlobalRow, LogicOp,
    ModuleConfig, OpOutcome, OutcomeKind, SubarrayId, Temperature,
};
use serde::{Deserialize, Serialize};

/// Result of a fast-path NOT execution: packed, shared columns only,
/// no per-cell records and no full-width row reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FastNotResult {
    /// Shape actually activated (`N_RF`, `N_RL`).
    pub shape: (usize, usize),
    /// First destination row's shared columns (packed).
    pub result: PackedBits,
    /// Fraction of destination cells on shared columns holding ¬src
    /// (over *all* destination rows, like [`NotReport`]).
    pub observed_success: f64,
    /// Mean model-assigned success probability of destination cells.
    pub predicted_success: f64,
}

/// Result of a fast-path logic execution (packed, shared columns only).
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
    /// Fraction of result cells (all result rows × shared columns)
    /// holding the correct value.
    pub observed_success: f64,
    /// Mean model success probability of result cells.
    pub predicted_success: f64,
}

/// Result of a fast-path in-subarray majority execution.
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
    pub fn configure(&mut self, cfg: dram_core::SimConfig) {
        self.bender.set_temperature(cfg.temperature());
        self.bender.module_mut().set_fidelity(cfg.fidelity());
    }

    /// Builder form of [`Fcdram::configure`] for construction chains.
    #[must_use]
    pub fn with_sim_config(mut self, cfg: dram_core::SimConfig) -> Self {
        self.configure(cfg);
        self
    }

    #[doc(hidden)]
    pub fn set_temperature(&mut self, t: Temperature) {
        let cfg = self.sim_config().with_temperature(t);
        self.configure(cfg);
    }

    #[doc(hidden)]
    pub fn set_fidelity(&mut self, fidelity: dram_core::SimFidelity) {
        let cfg = self.sim_config().with_fidelity(fidelity);
        self.configure(cfg);
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

    /// Executes a NOT through `entry`, negating `src_data` into the
    /// destination rows. The source row is written first; destination
    /// reads and success metrics are collected afterwards.
    pub fn execute_not(
        &mut self,
        bank: BankId,
        entry: &PatternEntry,
        src_data: &[Bit],
    ) -> Result<NotReport> {
        let geom = *self.bender.module_mut().chip_mut(self.chip).geometry();
        if src_data.len() != geom.cols() {
            return Err(FcdramError::WidthMismatch {
                expected: geom.cols(),
                got: src_data.len(),
            });
        }
        let (sub_f, _) = geom.split_row(entry.rf)?;
        let (sub_l, _) = geom.split_row(entry.rl)?;
        let upper = SubarrayId(sub_f.index().min(sub_l.index()));

        self.bender
            .write_row(self.chip, bank, entry.rf, src_data.to_vec())?;
        let outcome = self
            .bender
            .copy_invert(self.chip, bank, entry.rf, entry.rl)?;
        let shape = match outcome.kind {
            OutcomeKind::Not { n_rf, n_rl, .. } => (n_rf, n_rl),
            ref k => {
                return Err(FcdramError::OpFailed {
                    detail: format!("NOT produced {k:?}"),
                })
            }
        };

        let shared_cols: Vec<usize> = (0..geom.cols())
            .filter(|c| is_shared_col(upper, Col(*c)))
            .collect();
        let mut dst_reads = Vec::new();
        let mut correct = 0usize;
        let mut total = 0usize;
        for row in &entry.second_rows {
            let g = geom.join_row(sub_l, *row)?;
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
    /// which leaves the result unchanged.
    ///
    /// The charge share resolves only the terminal read back (compute
    /// for AND/OR, reference for NAND/NOR; [`CsTerminal`]). That is
    /// exact for everything reported: every raised row is rewritten
    /// just before the charge share, and each result cell's success
    /// probability and sampled value depend only on those rows. The
    /// other terminal's rows and the non-shared column half of both
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
        let geom = *self.bender.module_mut().chip_mut(self.chip).geometry();
        let (n_ref, n_com) = entry.shape();
        if n_ref != n_com {
            return Err(FcdramError::OpFailed {
                detail: format!("logic needs an N:N entry, got {n_ref}:{n_com}"),
            });
        }
        let n = n_com;
        if inputs.is_empty() || inputs.len() > n {
            return Err(FcdramError::BadInputCount {
                n: inputs.len(),
                max: n,
            });
        }
        for input in inputs {
            if input.len() != geom.cols() {
                return Err(FcdramError::WidthMismatch {
                    expected: geom.cols(),
                    got: input.len(),
                });
            }
        }
        let (sub_ref, _) = geom.split_row(entry.rf)?;
        let (sub_com, _) = geom.split_row(entry.rl)?;
        let upper = SubarrayId(sub_ref.index().min(sub_com.index()));

        // Reference subarray: N−1 constant rows + one Frac row.
        let const_bit = if op.is_and_family() {
            Bit::One
        } else {
            Bit::Zero
        };
        let const_row = vec![const_bit; geom.cols()];
        for (i, row) in entry.first_rows.iter().enumerate() {
            let g = geom.join_row(sub_ref, *row)?;
            if i + 1 == entry.first_rows.len() {
                self.bender.frac(self.chip, bank, g)?;
            } else {
                self.bender
                    .write_row(self.chip, bank, g, const_row.clone())?;
            }
        }
        // Compute subarray: the operands, identity-padded to N rows.
        let identity = vec![const_bit; geom.cols()];
        for (i, row) in entry.second_rows.iter().enumerate() {
            let g = geom.join_row(sub_com, *row)?;
            let data = inputs.get(i).cloned().unwrap_or_else(|| identity.clone());
            self.bender.write_row(self.chip, bank, g, data)?;
        }

        // Every raised row was just rewritten, so only the terminal read
        // back below needs resolving.
        let need = CsTerminal::terminal_of(op);
        let outcome = self
            .bender
            .charge_share_masked(self.chip, bank, entry.rf, entry.rl, need)?;
        if !matches!(outcome.kind, OutcomeKind::Logic { .. }) {
            return Err(FcdramError::OpFailed {
                detail: format!("charge share produced {:?}", outcome.kind),
            });
        }

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

        // Result rows: compute side for AND/OR, reference for NAND/NOR.
        let (result_sub, result_rows) = if op.is_inverted_terminal() {
            (sub_ref, &entry.first_rows)
        } else {
            (sub_com, &entry.second_rows)
        };
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut first_read: Option<Vec<Bit>> = None;
        for row in result_rows {
            let g = geom.join_row(result_sub, *row)?;
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
        let role = if op.is_inverted_terminal() {
            CellRole::Reference
        } else {
            CellRole::Compute
        };
        let predicted = outcome.mean_success(role).unwrap_or(0.0);
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

    /// Fast-path NOT: same command sequence as [`Fcdram::execute_not`],
    /// but destination rows are read back packed and shared-columns
    /// only, and no full-width `dst_reads` are materialized.
    ///
    /// `observed_success`/`predicted_success` are identical to the
    /// values [`Fcdram::execute_not`] reports for the same state.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Fcdram::execute_not`].
    pub fn execute_not_packed(
        &mut self,
        bank: BankId,
        entry: &PatternEntry,
        src_data: &[Bit],
    ) -> Result<FastNotResult> {
        let geom = *self.bender.module_mut().chip_mut(self.chip).geometry();
        if src_data.len() != geom.cols() {
            return Err(FcdramError::WidthMismatch {
                expected: geom.cols(),
                got: src_data.len(),
            });
        }
        let (sub_f, _) = geom.split_row(entry.rf)?;
        let (sub_l, _) = geom.split_row(entry.rl)?;
        let upper = SubarrayId(sub_f.index().min(sub_l.index()));
        let shared_start = (upper.index() + 1) % 2;
        let lanes = (geom.cols() - shared_start).div_ceil(2);

        self.bender
            .write_row(self.chip, bank, entry.rf, src_data.to_vec())?;
        let outcome = self
            .bender
            .copy_invert(self.chip, bank, entry.rf, entry.rl)?;
        let shape = match outcome.kind {
            OutcomeKind::Not { n_rf, n_rl, .. } => (n_rf, n_rl),
            ref k => {
                return Err(FcdramError::OpFailed {
                    detail: format!("NOT produced {k:?}"),
                })
            }
        };

        // Ideal: ¬src on the shared half.
        let mut expected = PackedBits::zeros(lanes);
        for (i, c) in (shared_start..geom.cols()).step_by(2).enumerate() {
            expected.set(i, !src_data[c].as_bool());
        }
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut first: Option<PackedBits> = None;
        for row in &entry.second_rows {
            let g = geom.join_row(sub_l, *row)?;
            let words = self
                .bender
                .read_row_packed(self.chip, bank, g, shared_start, 2)?;
            let read = PackedBits::from_words(words, lanes);
            correct += read.count_matches(&expected);
            total += lanes;
            if first.is_none() {
                first = Some(read);
            }
        }
        Ok(FastNotResult {
            shape,
            result: first.unwrap_or_else(|| PackedBits::zeros(lanes)),
            observed_success: correct as f64 / total.max(1) as f64,
            predicted_success: outcome.mean_success(CellRole::NotDst).unwrap_or(0.0),
        })
    }

    /// Fast-path N-input logic: same command sequence and write
    /// pattern as [`Fcdram::execute_logic`], with packed shared-column
    /// inputs and read-back. Inputs carry one lane per shared column.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Fcdram::execute_logic`].
    pub fn execute_logic_packed(
        &mut self,
        bank: BankId,
        entry: &PatternEntry,
        op: LogicOp,
        inputs: &[PackedBits],
    ) -> Result<FastLogicResult> {
        let geom = *self.bender.module_mut().chip_mut(self.chip).geometry();
        let (n_ref, n_com) = entry.shape();
        if n_ref != n_com {
            return Err(FcdramError::OpFailed {
                detail: format!("logic needs an N:N entry, got {n_ref}:{n_com}"),
            });
        }
        let n = n_com;
        if inputs.is_empty() || inputs.len() > n {
            return Err(FcdramError::BadInputCount {
                n: inputs.len(),
                max: n,
            });
        }
        let (sub_ref, _) = geom.split_row(entry.rf)?;
        let (sub_com, _) = geom.split_row(entry.rl)?;
        let upper = SubarrayId(sub_ref.index().min(sub_com.index()));
        let shared_start = (upper.index() + 1) % 2;
        let lanes = (geom.cols() - shared_start).div_ceil(2);
        for input in inputs {
            if input.len() != lanes {
                return Err(FcdramError::WidthMismatch {
                    expected: lanes,
                    got: input.len(),
                });
            }
        }

        // Reference subarray: N−1 constant rows + one Frac row.
        let const_bit = if op.is_and_family() {
            Bit::One
        } else {
            Bit::Zero
        };
        let const_row = vec![const_bit; geom.cols()];
        for (i, row) in entry.first_rows.iter().enumerate() {
            let g = geom.join_row(sub_ref, *row)?;
            if i + 1 == entry.first_rows.len() {
                self.bender.frac(self.chip, bank, g)?;
            } else {
                self.bender
                    .write_row(self.chip, bank, g, const_row.clone())?;
            }
        }
        // Compute subarray: the operands (shared half, zeros on the off
        // half — matching the engine's legacy expansion), identity-
        // padded to N rows with full-width constant rows.
        for (i, row) in entry.second_rows.iter().enumerate() {
            let g = geom.join_row(sub_com, *row)?;
            let data = match inputs.get(i) {
                Some(p) => p.expand_strided(geom.cols(), shared_start, 2),
                None => const_row.clone(),
            };
            self.bender.write_row(self.chip, bank, g, data)?;
        }

        let outcome = self
            .bender
            .charge_share(self.chip, bank, entry.rf, entry.rl)?;
        if !matches!(outcome.kind, OutcomeKind::Logic { .. }) {
            return Err(FcdramError::OpFailed {
                detail: format!("charge share produced {:?}", outcome.kind),
            });
        }

        // Ideal result, computed word-wise.
        let mut expected = PackedBits::splat(op.is_and_family(), lanes);
        for input in inputs {
            if op.is_and_family() {
                expected.and_assign(input);
            } else {
                expected.or_assign(input);
            }
        }
        if op.is_inverted_terminal() {
            expected.not_in_place();
        }

        // Result rows: compute side for AND/OR, reference for NAND/NOR.
        let (result_sub, result_rows) = if op.is_inverted_terminal() {
            (sub_ref, &entry.first_rows)
        } else {
            (sub_com, &entry.second_rows)
        };
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut first: Option<PackedBits> = None;
        for row in result_rows {
            let g = geom.join_row(result_sub, *row)?;
            let words = self
                .bender
                .read_row_packed(self.chip, bank, g, shared_start, 2)?;
            let read = PackedBits::from_words(words, lanes);
            correct += read.count_matches(&expected);
            total += lanes;
            if first.is_none() {
                first = Some(read);
            }
        }
        let role = if op.is_inverted_terminal() {
            CellRole::Reference
        } else {
            CellRole::Compute
        };
        Ok(FastLogicResult {
            op,
            n,
            expected,
            result: first.unwrap_or_else(|| PackedBits::zeros(lanes)),
            observed_success: correct as f64 / total.max(1) as f64,
            predicted_success: outcome.mean_success(role).unwrap_or(0.0),
        })
    }

    /// Value-path NOT for prepared execution: identical command
    /// sequence and stochastic draws as [`Fcdram::execute_not_packed`],
    /// but only the first destination row is read back, so
    /// `observed_success` covers that row alone. `result` and
    /// `predicted_success` are bit-identical to the packed variant.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Fcdram::execute_not_packed`].
    pub fn execute_not_packed_value(
        &mut self,
        bank: BankId,
        entry: &PatternEntry,
        src_data: &[Bit],
    ) -> Result<FastNotResult> {
        let geom = *self.bender.module_mut().chip_mut(self.chip).geometry();
        if src_data.len() != geom.cols() {
            return Err(FcdramError::WidthMismatch {
                expected: geom.cols(),
                got: src_data.len(),
            });
        }
        let (sub_f, _) = geom.split_row(entry.rf)?;
        let (sub_l, _) = geom.split_row(entry.rl)?;
        let upper = SubarrayId(sub_f.index().min(sub_l.index()));
        let shared_start = (upper.index() + 1) % 2;
        let lanes = (geom.cols() - shared_start).div_ceil(2);

        self.bender
            .write_row(self.chip, bank, entry.rf, src_data.to_vec())?;
        let outcome = self
            .bender
            .copy_invert(self.chip, bank, entry.rf, entry.rl)?;
        let shape = match outcome.kind {
            OutcomeKind::Not { n_rf, n_rl, .. } => (n_rf, n_rl),
            ref k => {
                return Err(FcdramError::OpFailed {
                    detail: format!("NOT produced {k:?}"),
                })
            }
        };
        let mut expected = PackedBits::zeros(lanes);
        for (i, c) in (shared_start..geom.cols()).step_by(2).enumerate() {
            expected.set(i, !src_data[c].as_bool());
        }
        let g = geom.join_row(sub_l, entry.second_rows[0])?;
        let words = self
            .bender
            .read_row_packed(self.chip, bank, g, shared_start, 2)?;
        let read = PackedBits::from_words(words, lanes);
        let correct = read.count_matches(&expected);
        Ok(FastNotResult {
            shape,
            result: read,
            observed_success: correct as f64 / lanes.max(1) as f64,
            predicted_success: outcome.mean_success(CellRole::NotDst).unwrap_or(0.0),
        })
    }

    /// Value-path N-input logic for prepared execution: identical
    /// writes as [`Fcdram::execute_logic_packed`], but the charge share
    /// resolves only the first row of the terminal being read (compute
    /// for AND/OR, reference for NAND/NOR; [`CsTerminal::first_row_of`])
    /// and only that row is read back. `result`, `expected`, the row's
    /// stochastic draws and `predicted_success` are bit-identical to
    /// the packed variant; `observed_success` covers that row alone.
    ///
    /// Masking is only safe when every raised row is rewritten before
    /// its next read — callers (`BulkEngine`) must verify their row
    /// plan satisfies this (see `BulkEngine::mask_safe`).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Fcdram::execute_logic_packed`].
    pub fn execute_logic_packed_value(
        &mut self,
        bank: BankId,
        entry: &PatternEntry,
        op: LogicOp,
        inputs: &[PackedBits],
    ) -> Result<FastLogicResult> {
        let geom = *self.bender.module_mut().chip_mut(self.chip).geometry();
        let (n_ref, n_com) = entry.shape();
        if n_ref != n_com {
            return Err(FcdramError::OpFailed {
                detail: format!("logic needs an N:N entry, got {n_ref}:{n_com}"),
            });
        }
        let n = n_com;
        if inputs.is_empty() || inputs.len() > n {
            return Err(FcdramError::BadInputCount {
                n: inputs.len(),
                max: n,
            });
        }
        let (sub_ref, _) = geom.split_row(entry.rf)?;
        let (sub_com, _) = geom.split_row(entry.rl)?;
        let upper = SubarrayId(sub_ref.index().min(sub_com.index()));
        let shared_start = (upper.index() + 1) % 2;
        let lanes = (geom.cols() - shared_start).div_ceil(2);
        for input in inputs {
            if input.len() != lanes {
                return Err(FcdramError::WidthMismatch {
                    expected: lanes,
                    got: input.len(),
                });
            }
        }

        let const_bit = if op.is_and_family() {
            Bit::One
        } else {
            Bit::Zero
        };
        let const_row = vec![const_bit; geom.cols()];
        for (i, row) in entry.first_rows.iter().enumerate() {
            let g = geom.join_row(sub_ref, *row)?;
            if i + 1 == entry.first_rows.len() {
                self.bender.frac(self.chip, bank, g)?;
            } else {
                self.bender
                    .write_row(self.chip, bank, g, const_row.clone())?;
            }
        }
        for (i, row) in entry.second_rows.iter().enumerate() {
            let g = geom.join_row(sub_com, *row)?;
            let data = match inputs.get(i) {
                Some(p) => p.expand_strided(geom.cols(), shared_start, 2),
                None => const_row.clone(),
            };
            self.bender.write_row(self.chip, bank, g, data)?;
        }

        // The value path reads back only the first result row.
        let need = CsTerminal::first_row_of(op);
        let outcome = self
            .bender
            .charge_share_masked(self.chip, bank, entry.rf, entry.rl, need)?;
        if !matches!(outcome.kind, OutcomeKind::Logic { .. }) {
            return Err(FcdramError::OpFailed {
                detail: format!("charge share produced {:?}", outcome.kind),
            });
        }

        let mut expected = PackedBits::splat(op.is_and_family(), lanes);
        for input in inputs {
            if op.is_and_family() {
                expected.and_assign(input);
            } else {
                expected.or_assign(input);
            }
        }
        if op.is_inverted_terminal() {
            expected.not_in_place();
        }

        let (result_sub, result_rows) = if op.is_inverted_terminal() {
            (sub_ref, &entry.first_rows)
        } else {
            (sub_com, &entry.second_rows)
        };
        let g = geom.join_row(result_sub, result_rows[0])?;
        let words = self
            .bender
            .read_row_packed(self.chip, bank, g, shared_start, 2)?;
        let read = PackedBits::from_words(words, lanes);
        let correct = read.count_matches(&expected);
        let role = if op.is_inverted_terminal() {
            CellRole::Reference
        } else {
            CellRole::Compute
        };
        Ok(FastLogicResult {
            op,
            n,
            expected,
            result: read,
            observed_success: correct as f64 / lanes.max(1) as f64,
            predicted_success: outcome.mean_success(role).unwrap_or(0.0),
        })
    }

    /// Fused value-path NOT: the same device-call sequence as
    /// [`Fcdram::execute_not_packed_value`], but the source write, an
    /// optional deferred row write carried over from the previous
    /// operation (`prelude`), and the copy/invert sequence ship as ONE
    /// command program instead of two-or-three. Every `seq_*` ends with
    /// a timing-respecting precharge, so concatenation preserves the
    /// executor's per-command device calls exactly — results and
    /// stochastic draws are bit-identical to the split path.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Fcdram::execute_not_packed_value`].
    pub fn execute_not_packed_value_fused(
        &mut self,
        bank: BankId,
        entry: &PatternEntry,
        src_data: &[Bit],
        prelude: Option<(GlobalRow, Vec<Bit>)>,
    ) -> Result<FastNotResult> {
        let geom = *self.bender.module_mut().chip_mut(self.chip).geometry();
        if src_data.len() != geom.cols() {
            return Err(FcdramError::WidthMismatch {
                expected: geom.cols(),
                got: src_data.len(),
            });
        }
        let (sub_f, _) = geom.split_row(entry.rf)?;
        let (sub_l, _) = geom.split_row(entry.rl)?;
        let upper = SubarrayId(sub_f.index().min(sub_l.index()));
        let shared_start = (upper.index() + 1) % 2;
        let lanes = (geom.cols() - shared_start).div_ceil(2);

        let mut b = self.bender.builder();
        if let Some((row, data)) = prelude {
            b.seq_write_row(bank, row, data);
        }
        b.seq_write_row(bank, entry.rf, src_data.to_vec());
        b.seq_copy_invert(bank, entry.rf, entry.rl);
        let program = b.finish();
        let exec = self.bender.execute(self.chip, &program)?;
        let outcome = exec
            .outcomes
            .into_iter()
            .map(|(_, o)| o)
            .next_back()
            .ok_or_else(|| FcdramError::OpFailed {
                detail: "fused NOT produced no outcome".into(),
            })?;
        let shape = match outcome.kind {
            OutcomeKind::Not { n_rf, n_rl, .. } => (n_rf, n_rl),
            ref k => {
                return Err(FcdramError::OpFailed {
                    detail: format!("NOT produced {k:?}"),
                })
            }
        };
        let mut expected = PackedBits::zeros(lanes);
        for (i, c) in (shared_start..geom.cols()).step_by(2).enumerate() {
            expected.set(i, !src_data[c].as_bool());
        }
        let g = geom.join_row(sub_l, entry.second_rows[0])?;
        let words = self
            .bender
            .read_row_packed(self.chip, bank, g, shared_start, 2)?;
        let read = PackedBits::from_words(words, lanes);
        let correct = read.count_matches(&expected);
        Ok(FastNotResult {
            shape,
            result: read,
            observed_success: correct as f64 / lanes.max(1) as f64,
            predicted_success: outcome.mean_success(CellRole::NotDst).unwrap_or(0.0),
        })
    }

    /// Fused value-path N-input logic: the same device-call sequence as
    /// [`Fcdram::execute_logic_packed_value`], but the reference-side
    /// constant writes, the `Frac`, the operand writes, an optional
    /// deferred row write from the previous operation (`prelude`), and
    /// the masked charge share ship as ONE command program instead of
    /// `2N (+1)` separate ones. Inputs are borrowed to spare the
    /// per-call operand clones of the split path. Results, success
    /// metrics, and stochastic draws are bit-identical to the split
    /// path (same per-command device calls; see
    /// [`Fcdram::execute_not_packed_value_fused`] for why).
    ///
    /// The charge-share mask is armed on the infrastructure and
    /// consumed by this program's (only) charge share, so the masking
    /// safety contract is the same as the split variant's.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Fcdram::execute_logic_packed_value`].
    pub fn execute_logic_packed_value_fused(
        &mut self,
        bank: BankId,
        entry: &PatternEntry,
        op: LogicOp,
        inputs: &[&PackedBits],
        prelude: Option<(GlobalRow, Vec<Bit>)>,
    ) -> Result<FastLogicResult> {
        let geom = *self.bender.module_mut().chip_mut(self.chip).geometry();
        let (n_ref, n_com) = entry.shape();
        if n_ref != n_com {
            return Err(FcdramError::OpFailed {
                detail: format!("logic needs an N:N entry, got {n_ref}:{n_com}"),
            });
        }
        let n = n_com;
        if inputs.is_empty() || inputs.len() > n {
            return Err(FcdramError::BadInputCount {
                n: inputs.len(),
                max: n,
            });
        }
        let (sub_ref, _) = geom.split_row(entry.rf)?;
        let (sub_com, _) = geom.split_row(entry.rl)?;
        let upper = SubarrayId(sub_ref.index().min(sub_com.index()));
        let shared_start = (upper.index() + 1) % 2;
        let lanes = (geom.cols() - shared_start).div_ceil(2);
        for input in inputs {
            if input.len() != lanes {
                return Err(FcdramError::WidthMismatch {
                    expected: lanes,
                    got: input.len(),
                });
            }
        }

        let const_bit = if op.is_and_family() {
            Bit::One
        } else {
            Bit::Zero
        };
        let const_row = vec![const_bit; geom.cols()];
        let mut b = self.bender.builder();
        if let Some((row, data)) = prelude {
            b.seq_write_row(bank, row, data);
        }
        for (i, row) in entry.first_rows.iter().enumerate() {
            let g = geom.join_row(sub_ref, *row)?;
            if i + 1 == entry.first_rows.len() {
                b.seq_frac(bank, g);
            } else {
                b.seq_write_row(bank, g, const_row.clone());
            }
        }
        for (i, row) in entry.second_rows.iter().enumerate() {
            let g = geom.join_row(sub_com, *row)?;
            let data = match inputs.get(i) {
                Some(p) => p.expand_strided(geom.cols(), shared_start, 2),
                None => const_row.clone(),
            };
            b.seq_write_row(bank, g, data);
        }
        b.seq_charge_share(bank, entry.rf, entry.rl);
        let program = b.finish();

        // The value path reads back only the first result row.
        let need = CsTerminal::first_row_of(op);
        self.bender.arm_cs_mask(need);
        let exec = self.bender.execute(self.chip, &program)?;
        let outcome = exec
            .outcomes
            .into_iter()
            .map(|(_, o)| o)
            .next_back()
            .ok_or_else(|| FcdramError::OpFailed {
                detail: "fused logic produced no outcome".into(),
            })?;
        if !matches!(outcome.kind, OutcomeKind::Logic { .. }) {
            return Err(FcdramError::OpFailed {
                detail: format!("charge share produced {:?}", outcome.kind),
            });
        }

        let mut expected = PackedBits::splat(op.is_and_family(), lanes);
        for input in inputs {
            if op.is_and_family() {
                expected.and_assign(input);
            } else {
                expected.or_assign(input);
            }
        }
        if op.is_inverted_terminal() {
            expected.not_in_place();
        }

        let (result_sub, result_rows) = if op.is_inverted_terminal() {
            (sub_ref, &entry.first_rows)
        } else {
            (sub_com, &entry.second_rows)
        };
        let g = geom.join_row(result_sub, result_rows[0])?;
        let words = self
            .bender
            .read_row_packed(self.chip, bank, g, shared_start, 2)?;
        let read = PackedBits::from_words(words, lanes);
        let correct = read.count_matches(&expected);
        let role = if op.is_inverted_terminal() {
            CellRole::Reference
        } else {
            CellRole::Compute
        };
        Ok(FastLogicResult {
            op,
            n,
            expected,
            result: read,
            observed_success: correct as f64 / lanes.max(1) as f64,
            predicted_success: outcome.mean_success(role).unwrap_or(0.0),
        })
    }

    /// Fast-path in-subarray majority: same command sequence as
    /// [`Fcdram::execute_maj`], reading back only the first raised
    /// row's shared columns (packed).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Fcdram::execute_maj`].
    pub fn execute_maj_packed(
        &mut self,
        bank: BankId,
        entry: &InSubarrayEntry,
        inputs: &[Vec<Bit>],
        shared_start: usize,
    ) -> Result<FastMajResult> {
        let geom = *self.bender.module_mut().chip_mut(self.chip).geometry();
        let n = entry.rows.len();
        if inputs.len() != n {
            return Err(FcdramError::BadInputCount {
                n: inputs.len(),
                max: n,
            });
        }
        for input in inputs {
            if input.len() != geom.cols() {
                return Err(FcdramError::WidthMismatch {
                    expected: geom.cols(),
                    got: input.len(),
                });
            }
        }
        let (sub, _) = geom.split_row(entry.rf)?;
        for (row, data) in entry.rows.iter().zip(inputs) {
            self.bender
                .write_row(self.chip, bank, geom.join_row(sub, *row)?, data.clone())?;
        }
        let outcome = self
            .bender
            .charge_share(self.chip, bank, entry.rf, entry.rl)?;
        if !matches!(outcome.kind, OutcomeKind::InSubarray { .. }) {
            return Err(FcdramError::OpFailed {
                detail: format!("in-subarray activation produced {:?}", outcome.kind),
            });
        }
        let lanes = (geom.cols() - shared_start.min(geom.cols())).div_ceil(2);
        let g = geom.join_row(sub, entry.rows[0])?;
        let words = self
            .bender
            .read_row_packed(self.chip, bank, g, shared_start, 2)?;
        Ok(FastMajResult {
            n,
            result: PackedBits::from_words(words, lanes),
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
        let geom = *self.bender.module_mut().chip_mut(self.chip).geometry();
        if data.len() != geom.cols() {
            return Err(FcdramError::WidthMismatch {
                expected: geom.cols(),
                got: data.len(),
            });
        }
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
    /// majority, which overwrites every raised row.
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
        let geom = *self.bender.module_mut().chip_mut(self.chip).geometry();
        let n = entry.rows.len();
        if inputs.len() != n {
            return Err(FcdramError::BadInputCount {
                n: inputs.len(),
                max: n,
            });
        }
        for input in inputs {
            if input.len() != geom.cols() {
                return Err(FcdramError::WidthMismatch {
                    expected: geom.cols(),
                    got: input.len(),
                });
            }
        }
        let (sub, _) = geom.split_row(entry.rf)?;
        for (row, data) in entry.rows.iter().zip(inputs) {
            self.bender
                .write_row(self.chip, bank, geom.join_row(sub, *row)?, data.clone())?;
        }
        let outcome = self
            .bender
            .charge_share(self.chip, bank, entry.rf, entry.rl)?;
        if !matches!(outcome.kind, OutcomeKind::InSubarray { .. }) {
            return Err(FcdramError::OpFailed {
                detail: format!("in-subarray activation produced {:?}", outcome.kind),
            });
        }
        let expected: Vec<Bit> = (0..geom.cols())
            .map(|c| {
                let ones = inputs.iter().filter(|r| r[c].as_bool()).count();
                Bit::from(2 * ones > n)
            })
            .collect();
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut first_read: Option<Vec<Bit>> = None;
        for row in &entry.rows {
            let data = self
                .bender
                .read_row(self.chip, bank, geom.join_row(sub, *row)?)?;
            for c in 0..geom.cols() {
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
}
