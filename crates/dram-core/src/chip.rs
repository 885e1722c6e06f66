//! One DRAM chip: banks, the row-decoder glitch model, the reliability
//! model, and the analog semantics of every command sequence the paper
//! exploits.
//!
//! The chip exposes *semantic* operations (`activate`, `precharge`,
//! [`Chip::multi_act_copy`], [`Chip::multi_act_charge_share`],
//! [`Chip::frac`], `write_open`, reads). The `bender` crate translates
//! cycle-timed DDR4 command streams into these calls; the `fcdram`
//! crate builds user-facing operations on top.
//!
//! Every mutating operation returns an [`OpOutcome`] describing, for
//! each affected cell, the intended value, the success probability the
//! reliability model assigned, and the actually sampled value. The
//! *actual* values are what the cell array stores afterwards; the
//! probabilities allow analytic (trials → ∞) success-rate analysis
//! without re-executing.

use crate::analog::{classify_margin, MarginClass};
use crate::bank::{Bank, OpenRows};
use crate::config::ModuleConfig;
use crate::error::{DramError, Result};
use crate::fault::{DisturbancePolicy, DisturbanceState};
use crate::fidelity::{SimFidelity, Telemetry};
use crate::geometry::Geometry;
use crate::math::normal_cdf;
use crate::reliability::{
    LogicOp, NotEvent, ReliabilityModel, SIGMA_CELL_LOGIC, SIGMA_CELL_NOT, SIGMA_SA_LOGIC,
    SIGMA_SA_NOT, Z_ROWCLONE,
};
use crate::row_decoder::{MultiActivation, PatternKind, RowDecoder};
use crate::subarray::Subarray;
use crate::thermal::Temperature;
use crate::types::{BankId, Bit, ChipId, Col, GlobalRow, LocalRow, SubarrayId, SHARED_COL_STRIDE};
use crate::variation::{RowSampler, VariationCache};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// The role a cell played in an operation outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellRole {
    /// NOT destination: intended value is ¬src.
    NotDst,
    /// Extra row in the source subarray receiving a copy of src.
    SrcCopy,
    /// In-subarray RowClone destination.
    CloneDst,
    /// Compute-terminal result of a logic operation (AND/OR).
    Compute,
    /// Reference-terminal result of a logic operation (NAND/NOR).
    Reference,
    /// Majority result on the non-shared column half (extension).
    OffMaj,
    /// Cell written by a `Frac` operation (≈VDD/2).
    Frac,
}

impl CellRole {
    /// Every role, in stats-array order.
    pub const ALL: [CellRole; 7] = [
        CellRole::NotDst,
        CellRole::SrcCopy,
        CellRole::CloneDst,
        CellRole::Compute,
        CellRole::Reference,
        CellRole::OffMaj,
        CellRole::Frac,
    ];

    /// Index of this role into [`OutcomeStats`].
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Which charge-share cells a caller intends to read back.
///
/// `Both` is the hardware-faithful default: every raised row resolves.
/// The masked variants skip the state/telemetry updates for rows the
/// caller has promised to rewrite before they are next read — the
/// resolved cells (bits, predicted success, stochastic draws) are
/// unchanged, because each cell's model inputs and sample keys are
/// per-(row, col) and independent of the skipped cells' writes.
///
/// The `*FirstRow` scopes narrow one terminal further, to its first
/// raised row (the row a value-path caller reads back). The terminal's
/// other rows still compute their success probabilities into
/// [`RoleStats::count`]/[`RoleStats::sum_p`], in the same row-then-
/// column order, so [`OpOutcome::mean_success`] is bit-identical to the
/// whole-terminal scope; they draw nothing, keep their staged values
/// and emit no [`CellOutcome`].
///
/// A cross-subarray copy (NOT) reads the scope by side: the `rl`
/// (destination) subarray is its compute side and the `rf` (source)
/// subarray its reference side. A scope that leaves the reference
/// terminal unresolved (`Compute`, `ComputeFirstRow`) skips the extra
/// source-side rows ([`CellRole::SrcCopy`]); the destination rows
/// always resolve in full (see [`Chip::multi_act_copy_masked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CsTerminal {
    /// Resolve both terminals and the non-shared majority half.
    Both,
    /// Resolve only the compute terminal's shared half (AND/OR).
    Compute,
    /// Resolve only the reference terminal's shared half (NAND/NOR).
    Reference,
    /// Resolve only the compute terminal's first raised row.
    ComputeFirstRow,
    /// Resolve only the reference terminal's first raised row.
    ReferenceFirstRow,
}

impl CsTerminal {
    /// The whole terminal `op`'s result appears on: reference for
    /// NAND/NOR, compute for AND/OR.
    pub fn terminal_of(op: LogicOp) -> Self {
        if op.is_inverted_terminal() {
            CsTerminal::Reference
        } else {
            CsTerminal::Compute
        }
    }

    /// The first raised row of `op`'s result terminal only.
    pub fn first_row_of(op: LogicOp) -> Self {
        if op.is_inverted_terminal() {
            CsTerminal::ReferenceFirstRow
        } else {
            CsTerminal::ComputeFirstRow
        }
    }

    fn resolves_compute(self) -> bool {
        matches!(
            self,
            CsTerminal::Both | CsTerminal::Compute | CsTerminal::ComputeFirstRow
        )
    }

    fn resolves_reference(self) -> bool {
        matches!(
            self,
            CsTerminal::Both | CsTerminal::Reference | CsTerminal::ReferenceFirstRow
        )
    }

    fn first_row_only(self) -> bool {
        matches!(
            self,
            CsTerminal::ComputeFirstRow | CsTerminal::ReferenceFirstRow
        )
    }
}

/// The role of `op`'s result cells: [`CellRole::Reference`] for
/// NAND/NOR, [`CellRole::Compute`] for AND/OR (the cells
/// [`CsTerminal::terminal_of`] resolves).
pub fn result_role(op: LogicOp) -> CellRole {
    if op.is_inverted_terminal() {
        CellRole::Reference
    } else {
        CellRole::Compute
    }
}

/// Aggregate statistics for cells of one role in one operation.
///
/// Stays `pub` although no other crate names it: [`OutcomeStats::role`]
/// returns it.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RoleStats {
    /// Number of cells recorded, drawn or not.
    pub count: usize,
    /// Sum of model-assigned success probabilities.
    pub sum_p: f64,
    /// Number of cells whose value was drawn and stored (smaller than
    /// `count` only under a row-scoped [`CsTerminal`]).
    pub drawn: usize,
    /// Number of drawn cells whose sampled value matched the intent.
    pub matches: usize,
}

/// Per-role aggregates of an operation, maintained in both telemetry
/// modes (so [`OpOutcome::mean_success`] works without per-cell
/// records).
///
/// Stays `pub` although no other crate names it: it is the type of
/// [`OpOutcome::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OutcomeStats {
    /// Aggregates indexed by `CellRole::index`.
    pub roles: [RoleStats; 7],
}

impl OutcomeStats {
    /// Records one drawn cell.
    #[inline]
    pub(crate) fn record(&mut self, role: CellRole, p: f64, matched: bool) {
        let s = &mut self.roles[role.index()];
        s.count += 1;
        s.sum_p += p;
        s.drawn += 1;
        s.matches += usize::from(matched);
    }

    /// Aggregates for one role.
    #[inline]
    pub fn role(&self, role: CellRole) -> &RoleStats {
        &self.roles[role.index()]
    }
}

/// Per-cell record of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Subarray of the cell.
    pub subarray: SubarrayId,
    /// Row within the subarray.
    pub row: LocalRow,
    /// Column.
    pub col: Col,
    /// Role in the operation.
    pub role: CellRole,
    /// The value a perfectly reliable chip would have stored.
    pub intended: Bit,
    /// The value actually stored (sampled from the model).
    pub actual: Bit,
    /// Probability the model assigned to storing `intended`.
    pub p_success: f64,
}

/// What kind of activation a violated sequence produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutcomeKind {
    /// The violating command was ignored (Micron).
    Ignored,
    /// No simultaneous activation for this address pair.
    NoGlitch,
    /// Cross-subarray NOT/copy with the given shape.
    Not {
        /// Rows raised in the source subarray.
        n_rf: usize,
        /// Rows raised in the destination subarray.
        n_rl: usize,
        /// Activation family.
        pattern: PatternKind,
    },
    /// Cross-subarray charge-sharing logic operation.
    Logic {
        /// Rows raised per side (N:N for well-formed operations).
        n_ref: usize,
        /// Rows raised on the compute side.
        n_com: usize,
        /// Whether the reference was AND-configured (bulk high).
        and_family: bool,
    },
    /// Same-subarray multi-row activation (RowClone / in-subarray MAJ).
    InSubarray {
        /// Number of rows raised.
        rows: usize,
    },
    /// Sequential-only chips cannot charge-share; nothing happened.
    Unsupported,
    /// A `Frac` fractional-value initialization.
    Frac,
}

/// Result of a semantic operation.
///
/// Aggregate statistics (`stats`) are always present; per-cell records
/// (`cells`) are kept only under [`Telemetry::Full`]. Stored values and
/// statistics are identical in both modes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpOutcome {
    /// What happened.
    pub kind: OutcomeKind,
    /// Per-cell records (empty for `Ignored`/`NoGlitch`/`Unsupported`,
    /// and under [`Telemetry::Fast`]).
    pub cells: Vec<CellOutcome>,
    /// Per-role aggregates (always populated).
    pub stats: OutcomeStats,
}

impl OpOutcome {
    /// An outcome with no affected cells.
    pub fn empty(kind: OutcomeKind) -> Self {
        OpOutcome {
            kind,
            cells: Vec::new(),
            stats: OutcomeStats::default(),
        }
    }

    /// Mean success probability across cells with the given role.
    pub fn mean_success(&self, role: CellRole) -> Option<f64> {
        let s = self.stats.role(role);
        if s.count == 0 {
            None
        } else {
            Some(s.sum_p / s.count as f64)
        }
    }

    /// Fraction of drawn cells with the given role whose sampled
    /// value matches the intent.
    pub fn observed_accuracy(&self, role: CellRole) -> Option<f64> {
        let s = self.stats.role(role);
        if s.drawn == 0 {
            None
        } else {
            Some(s.matches as f64 / s.drawn as f64)
        }
    }
}

/// Builds an [`OpOutcome`] while an operation runs: always aggregates,
/// materializes per-cell records only under full telemetry.
#[derive(Debug)]
struct Recorder {
    cells: Option<Vec<CellOutcome>>,
    stats: OutcomeStats,
}

impl Recorder {
    /// A recorder for an operation that records exactly `cells` cells:
    /// under full telemetry the record vector is allocated once, at
    /// that size.
    fn new(telemetry: Telemetry, cells: usize) -> Self {
        Recorder {
            cells: telemetry.per_cell().then(|| Vec::with_capacity(cells)),
            stats: OutcomeStats::default(),
        }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        subarray: SubarrayId,
        row: LocalRow,
        col: Col,
        role: CellRole,
        intended: Bit,
        actual: Bit,
        p_success: f64,
    ) {
        self.stats.record(role, p_success, intended == actual);
        if let Some(cells) = &mut self.cells {
            cells.push(CellOutcome {
                subarray,
                row,
                col,
                role,
                intended,
                actual,
                p_success,
            });
        }
    }

    /// Draws, stores and records one resolved row in column order. At
    /// each column `c` of `cols`, `cell(c, stored)` gives the intended
    /// value, the value a failed draw leaves, and the success
    /// probability; `stored` is the cell's voltage before the write.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn resolve_row(
        &mut self,
        slice: &mut [f32],
        sampler: &RowSampler,
        (subarray, row): (SubarrayId, LocalRow),
        role: CellRole,
        vdd: f64,
        cols: impl Iterator<Item = usize>,
        mut cell: impl FnMut(usize, f32) -> (Bit, Bit, f64),
    ) {
        let (mut sum_p, mut n, mut matches) = (self.stats.roles[role.index()].sum_p, 0, 0);
        for c in cols {
            let (intended, failed, p) = cell(c, slice[c]);
            let actual = if sampler.sample(c, p) {
                intended
            } else {
                failed
            };
            slice[c] = actual.voltage(vdd) as f32;
            sum_p += p;
            n += 1;
            matches += usize::from(actual == intended);
            if let Some(cells) = &mut self.cells {
                cells.push(CellOutcome {
                    subarray,
                    row,
                    col: Col(c),
                    role,
                    intended,
                    actual,
                    p_success: p,
                });
            }
        }
        let s = &mut self.stats.roles[role.index()];
        s.sum_p = sum_p;
        s.count += n;
        s.drawn += n;
        s.matches += matches;
    }

    fn finish(self, kind: OutcomeKind) -> OpOutcome {
        debug_assert!(
            self.cells.as_ref().is_none_or(|c| c.len() == c.capacity()),
            "a kernel recorded a different number of cells than it reserved"
        );
        OpOutcome {
            kind,
            cells: self.cells.unwrap_or_default(),
            stats: self.stats,
        }
    }
}

/// Keys address one activation pair `(bank, first row, last row)` or
/// one cell row `(bank, subarray, row)`.
type MemoKey = (u32, u32, u32);

/// Largest number of entries any memo map holds before being dropped
/// wholesale (same defensive idiom as [`VariationCache`]).
const MEMO_CAP: usize = 4096;

/// Shared-column CDF tables of one terminal side of a charge-share
/// activation, one per raised row: `normal_cdf(z)` of shared column
/// `col` at `[3 * n_shared * family + 3 * (col / 2) + mm_idx]`, where
/// `family` is 1 for AND- and 0 for OR-family constants and `mm_idx`
/// indexes the three values the neighbour-mismatch fraction can take
/// (0, ½, 1). Each family's half is computed the first time a charge
/// share reads it. `rows` stays empty when the model has no prefix for
/// the side's `N` (both families have one exactly when `N` is 2, 4, 8
/// or 16).
#[derive(Debug, Clone, Default)]
struct CsSide {
    rows: Vec<Box<[f64]>>,
    built: [bool; 2],
}

/// Charge-share tables for one `(bank, r_ref, r_com)` activation: the
/// compute side, then the reference side.
#[derive(Debug, Clone, Default)]
struct CsTables {
    sides: [CsSide; 2],
}

/// One CDF table per raised row of one side of a NOT activation.
type RowTables = Arc<[Box<[f64]>]>;

/// A cross-subarray NOT activation, as its success tables see it.
struct NotAct<'a> {
    /// `(bank, rf, rl)`.
    key: MemoKey,
    first_rows: &'a [LocalRow],
    second_rows: &'a [LocalRow],
    sub_f: SubarrayId,
    sub_l: SubarrayId,
    loc_f: LocalRow,
}

impl NotAct<'_> {
    fn bank(&self) -> BankId {
        BankId(self.key.0 as usize)
    }

    /// The upper subarray of the pair (it owns the shared stripe).
    fn upper(&self) -> SubarrayId {
        SubarrayId(self.sub_f.index().min(self.sub_l.index()))
    }
}

/// Memoized kernel CDF tables. Everything data-*independent* in the
/// multi-activation kernels — the `normal_cdf` of the z-score minus
/// its data-dependent multipliers — is a pure function of the
/// activation pair, the per-chip variation draws, and the chip
/// temperature, so it is computed once per `(bank, rows)` key and
/// reused verbatim (bit-identical: the stored values are produced by
/// the exact float-op order of the original kernels). Invalidated
/// only by a temperature change through [`Chip::configure`].
#[derive(Debug, Clone, Default)]
struct KernelMemo {
    cs: HashMap<MemoKey, CsTables>,
    /// NOT tables by `(bank, rf, rl)`: per destination row the
    /// shared-column CDF, and (built only when a copy resolves its
    /// source side) per extra source row, source row itself excluded,
    /// the full-width copy CDF with the stripe-parity sense-amp term
    /// baked in.
    not_dst: HashMap<MemoKey, RowTables>,
    not_src: HashMap<MemoKey, RowTables>,
    maj: HashMap<MemoKey, Arc<[f64]>>,
    clone: HashMap<MemoKey, Arc<[f64]>>,
}

impl KernelMemo {
    fn clear(&mut self) {
        self.cs.clear();
        self.not_dst.clear();
        self.not_src.clear();
        self.maj.clear();
        self.clone.clear();
    }
}

/// One row's `Frac` result: the voltage every cell stores, what each
/// cell reads as, and how many read as zero (the intended value). A
/// pure function of the row's frac-level factors and the analog
/// parameters, so it is computed on a row's first `Frac` and copied
/// on every later one.
#[derive(Debug, Clone)]
struct FracRow {
    volts: Box<[f32]>,
    actual: Box<[Bit]>,
    matches: usize,
}

/// Per-column working arrays of the gate kernels, owned by the chip and
/// reused across operations (each kernel overwrites every entry it
/// later reads). Taken out of the chip for the length of one operation.
/// Arrays over one column half are indexed by `col / 2`.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// One column half's raised-row voltage sums and packed bits (bit
    /// `i` set where raised row `i` holds a one): reference / compute
    /// side.
    sum_ref: Vec<f64>,
    sum_com: Vec<f64>,
    packed_ref: Vec<u64>,
    packed_com: Vec<u64>,
    /// Charge-share sensing outcome per shared column (see [`cs_sel`]).
    sel: Vec<u8>,
    /// One terminal's margin multiplier and index into its rows' CDF
    /// tables per shared column.
    term_mult: Vec<f64>,
    term_idx: Vec<u32>,
    /// Majority value and margin multiplier per column, by `col`.
    maj: Vec<Bit>,
    mult: Vec<f64>,
    /// Source-row voltages of a copy.
    src: Vec<f32>,
}

impl Scratch {
    fn fit(&mut self, cols: usize) {
        if self.maj.len() != cols {
            let half = cols.div_ceil(2);
            *self = Scratch {
                sum_ref: vec![0.0; half],
                sum_com: vec![0.0; half],
                packed_ref: vec![0; half],
                packed_com: vec![0; half],
                sel: vec![0; half],
                term_mult: vec![0.0; half],
                term_idx: vec![0; half],
                maj: vec![Bit::Zero; cols],
                mult: vec![0.0; cols],
                src: Vec::with_capacity(cols),
            };
        }
    }

    /// Majority value and margin multiplier of every column of parity
    /// `start` below `cols`, from the `n` raised rows' bits gathered
    /// into `packed_ref`, into `maj` and `mult`.
    fn votes(&mut self, n: usize, start: usize, cols: usize) {
        for c in (start..cols).step_by(2) {
            let v = self.packed_ref[c / 2].count_ones() as usize;
            self.maj[c] = Bit::from(2 * v > n);
            self.mult[c] = ReliabilityModel::maj_multiplier((v as f64 - n as f64 / 2.0).abs());
        }
    }
}

/// Packs one shared column's sensing outcome into a byte: bits 0–1 the
/// [`MarginClass`], bits 2–4 `3 * family + mm_idx` (see [`CsSide`]),
/// bit 5 the compute terminal's result.
#[inline]
fn cs_sel(result: bool, and_family: bool, mm_idx: u8, class: MarginClass) -> u8 {
    (u8::from(result) << 5) | ((3 * u8::from(and_family) + mm_idx) << 2) | class as u8
}

/// `sum` plus, in column order, each shared column's charge-share
/// success probability `(mults[j] × table[idx[j]])^dexp` (clamped to
/// [0, 1] before the power). Kept out of line: inlined into the
/// kernel, the loop compiles to about twice the time per cell.
#[inline(never)]
fn sum_cell_p(mut sum: f64, mults: &[f64], idx: &[u32], table: &[f64], dexp: f64) -> f64 {
    let ps = mults
        .iter()
        .zip(idx)
        .map(|(m, i)| (m * table[*i as usize]).clamp(0.0, 1.0));
    if dexp == 1.0 {
        for p in ps {
            sum += p;
        }
    } else {
        for p in ps {
            sum += p.powf(dexp);
        }
    }
    sum
}

/// Whether a stored voltage reads as one.
#[inline]
fn bit_of(v: f32, vdd: f64) -> Bit {
    Bit::from(f64::from(v) > vdd / 2.0)
}

/// One simulated DRAM chip.
#[derive(Debug, Clone)]
pub struct Chip {
    geom: Geometry,
    decoder: RowDecoder,
    model: ReliabilityModel,
    banks: Vec<Bank>,
    temperature: Temperature,
    op_counter: u64,
    fidelity: SimFidelity,
    cache: VariationCache,
    memo: KernelMemo,
    /// `Frac` results by `(bank, subarray, row)`. They do not depend
    /// on the temperature, so a temperature change keeps them.
    frac_rows: HashMap<MemoKey, FracRow>,
    disturbance: DisturbanceState,
    disturb_policy: Option<DisturbancePolicy>,
    scratch: Scratch,
}

impl Chip {
    /// Creates chip `id` of the module described by `config`.
    pub fn new(config: ModuleConfig, id: ChipId) -> Self {
        let geom = config.geometry();
        let seed = config.chip_seed(id);
        let decoder = RowDecoder::new(&config, seed);
        let model = ReliabilityModel::new(&config, seed);
        let banks = (0..geom.banks())
            .map(|_| {
                Bank::new(
                    geom.subarrays_per_bank(),
                    geom.rows_per_subarray(),
                    geom.cols(),
                )
            })
            .collect();
        Chip {
            geom,
            decoder,
            model,
            banks,
            temperature: Temperature::BASELINE,
            op_counter: 0,
            fidelity: SimFidelity::default(),
            cache: VariationCache::new(),
            memo: KernelMemo::default(),
            frac_rows: HashMap::new(),
            disturbance: DisturbanceState::new(geom.banks() * geom.subarrays_per_bank()),
            disturb_policy: None,
            scratch: Scratch::default(),
        }
    }

    /// Current simulation-fidelity configuration.
    #[inline]
    pub fn fidelity(&self) -> SimFidelity {
        self.fidelity
    }

    /// The current simulation configuration (fidelity + temperature).
    pub fn sim_config(&self) -> crate::SimConfig {
        crate::SimConfig::new()
            .with_fidelity(self.fidelity)
            .with_temperature(self.temperature)
    }

    /// Applies a [`crate::SimConfig`] — fidelity and temperature in
    /// one call. Stored bits and aggregate statistics are identical
    /// across fidelity modes; only the presence of per-cell
    /// [`CellOutcome`] records changes.
    pub fn configure(&mut self, cfg: crate::SimConfig) {
        self.fidelity = cfg.fidelity();
        let t = cfg.temperature();
        if t != self.temperature {
            // The memoized kernel tables bake the temperature term in.
            self.memo.clear();
        }
        self.temperature = t;
    }

    /// Builder form of [`Chip::configure`] for construction chains.
    #[must_use]
    pub fn with_sim_config(mut self, cfg: crate::SimConfig) -> Self {
        self.configure(cfg);
        self
    }

    /// The modeled geometry.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The row-decoder model (for reverse-engineering flows).
    #[inline]
    pub fn decoder(&self) -> &RowDecoder {
        &self.decoder
    }

    /// The reliability model (for analytic experiments).
    #[inline]
    pub fn reliability(&self) -> &ReliabilityModel {
        &self.model
    }

    /// Current chip temperature.
    #[inline]
    pub fn temperature(&self) -> Temperature {
        self.temperature
    }

    /// Read-disturbance counters, one zone per `(bank, subarray)` in
    /// bank-major order. Always charged (pure bookkeeping, identical
    /// in both simulation fidelities); derating only applies when a
    /// [`DisturbancePolicy`] is installed.
    #[inline]
    pub fn disturbance(&self) -> &DisturbanceState {
        &self.disturbance
    }

    /// Installs (or removes) the read-disturbance policy. With `None`
    /// (the default) counters are still charged but success rates are
    /// never derated — the chip behaves bit-identically to a build
    /// without fault injection.
    pub fn set_disturbance_policy(&mut self, policy: Option<DisturbancePolicy>) {
        self.disturb_policy = policy;
    }

    #[inline]
    fn disturb_zone(&self, bank: BankId, sub: SubarrayId) -> usize {
        bank.index() * self.geom.subarrays_per_bank() + sub.index()
    }

    /// Charges `rows` activation-rows of disturbance to a subarray.
    #[inline]
    fn charge_disturbance(&mut self, bank: BankId, sub: SubarrayId, rows: u64) {
        let zone = self.disturb_zone(bank, sub);
        self.disturbance.charge(zone, rows);
    }

    /// The success-derating exponent of a subarray under the installed
    /// policy (`1.0` without one — the no-op fast path).
    #[inline]
    fn disturb_exponent(&self, bank: BankId, sub: SubarrayId) -> f64 {
        match &self.disturb_policy {
            Some(policy) => self
                .disturbance
                .derate_exponent(self.disturb_zone(bank, sub), policy),
            None => 1.0,
        }
    }

    fn bank_ref(&self, bank: BankId) -> Result<&Bank> {
        self.geom.check_bank(bank)?;
        Ok(&self.banks[bank.index()])
    }

    fn bank_mut_ref(&mut self, bank: BankId) -> Result<&mut Bank> {
        self.geom.check_bank(bank)?;
        Ok(&mut self.banks[bank.index()])
    }

    fn next_op(&mut self) -> u64 {
        self.op_counter += 1;
        self.op_counter
    }

    /// The Monte-Carlo sampler of row `row` of `sub` in operation `op`:
    /// column `c` draws `trial_unit(mix3(op, sub << 32 | row, c), 0)`.
    #[inline]
    fn row_sampler(&self, op: u64, sub: SubarrayId, row: LocalRow) -> RowSampler {
        let key = ((sub.index() as u64) << 32) | row.index() as u64;
        self.model.variation().row_sampler(op, key)
    }

    // -----------------------------------------------------------------
    // Plain DDR4 behaviour
    // -----------------------------------------------------------------

    /// Normal row activation (timings respected): opens exactly `row`.
    ///
    /// # Errors
    ///
    /// Fails if the bank is already open or the address is invalid.
    pub fn activate(&mut self, bank: BankId, row: GlobalRow) -> Result<()> {
        self.geom.check_row(row)?;
        let (sub, local) = self.geom.split_row(row)?;
        let b = self.bank_mut_ref(bank)?;
        if !b.is_precharged() {
            return Err(DramError::IllegalCommand {
                detail: format!("ACT {row} while bank {bank} is open"),
            });
        }
        b.set_open(OpenRows {
            groups: vec![(sub, vec![local])],
            last_subarray: sub,
        });
        self.charge_disturbance(bank, sub, 1);
        Ok(())
    }

    /// Normal precharge: closes the bank.
    pub fn precharge(&mut self, bank: BankId) -> Result<()> {
        self.bank_mut_ref(bank)?.close();
        Ok(())
    }

    /// Reads the contents of `row` through a proper activate/read/
    /// precharge sequence (bank must be precharged).
    pub fn read_row(&mut self, bank: BankId, row: GlobalRow) -> Result<Vec<Bit>> {
        self.activate(bank, row)?;
        let (sub, local) = self.geom.split_row(row)?;
        let vdd = self.model.analog().vdd;
        let bits = {
            let b = self.bank_mut_ref(bank)?;
            b.subarray_mut(sub).read_bits(local, vdd)
        };
        self.precharge(bank)?;
        Ok(bits)
    }

    /// Host-side direct row write (used to initialize experiments; the
    /// command-accurate path is `activate` + `write_open` + `precharge`).
    pub fn write_row_direct(&mut self, bank: BankId, row: GlobalRow, bits: &[Bit]) -> Result<()> {
        if bits.len() != self.geom.cols() {
            return Err(DramError::WidthMismatch {
                expected: self.geom.cols(),
                got: bits.len(),
            });
        }
        let (sub, local) = self.geom.split_row(row)?;
        let vdd = self.model.analog().vdd;
        let b = self.bank_mut_ref(bank)?;
        b.subarray_mut(sub).write_bits(local, bits, vdd);
        Ok(())
    }

    /// Reads one shared-column vector of `row` — every
    /// [`SHARED_COL_STRIDE`]-th column starting at `start` — packed 64
    /// lanes per `u64` word (LSB first), through a proper
    /// activate/read/precharge sequence.
    ///
    /// This is the fast-path read: no per-cell `Vec<Bit>` is
    /// materialized, and only the shared column half is touched.
    ///
    /// # Errors
    ///
    /// Fails if the bank is open or the address is invalid.
    pub fn read_row_packed(
        &mut self,
        bank: BankId,
        row: GlobalRow,
        start: usize,
    ) -> Result<Vec<u64>> {
        self.activate(bank, row)?;
        let (sub, local) = self.geom.split_row(row)?;
        let vdd = self.model.analog().vdd;
        let cols = self.geom.cols();
        let lanes = if start < cols {
            (cols - start).div_ceil(SHARED_COL_STRIDE)
        } else {
            0
        };
        let mut words = vec![0u64; lanes.div_ceil(64)];
        let b = self.bank_ref(bank)?;
        if let Some(slice) = b.subarray(sub).and_then(|s| s.row(local)) {
            // Word `k` packs the 64 lanes read from its chunk of columns.
            let half = vdd / 2.0;
            let chunks = slice[start.min(cols)..].chunks(64 * SHARED_COL_STRIDE);
            for (w, chunk) in words.iter_mut().zip(chunks) {
                *w = (0..chunk.len().div_ceil(SHARED_COL_STRIDE)).fold(0, |w, i| {
                    w | u64::from(f64::from(chunk[i * SHARED_COL_STRIDE]) > half) << i
                });
            }
        }
        self.precharge(bank)?;
        Ok(words)
    }

    /// Host-side direct row read (no state checks).
    pub fn read_row_direct(&self, bank: BankId, row: GlobalRow) -> Result<Vec<Bit>> {
        let (sub, local) = self.geom.split_row(row)?;
        let vdd = self.model.analog().vdd;
        let b = self.bank_ref(bank)?;
        Ok(match b.subarray(sub) {
            Some(s) => s.read_bits(local, vdd),
            None => vec![Bit::Zero; self.geom.cols()],
        })
    }

    /// `WR` overdrive to an *open* bank: every raised row in the
    /// last-activated subarray stores `data` exactly; raised rows in a
    /// neighboring subarray store `¬data` on the shared column half
    /// (§4.2's subarray-mapping methodology relies on this).
    pub fn write_open(&mut self, bank: BankId, data: &[Bit]) -> Result<()> {
        if data.len() != self.geom.cols() {
            return Err(DramError::WidthMismatch {
                expected: self.geom.cols(),
                got: data.len(),
            });
        }
        let vdd = self.model.analog().vdd;
        // Each value's stored voltage, hoisted so the cell loops are
        // plain selects.
        let (zero, one) = (Bit::Zero.voltage(vdd) as f32, Bit::One.voltage(vdd) as f32);
        let b = self.bank_mut_ref(bank)?;
        let Some(open) = b.close() else {
            return Err(DramError::IllegalCommand {
                detail: "WR while bank precharged".into(),
            });
        };
        let last = open.last_subarray;
        for (sub, rows) in &open.groups {
            let upper = SubarrayId(sub.index().min(last.index()));
            // Shared columns of the pair have parity `upper + 1`; the
            // non-shared half of the other subarray keeps its sensed
            // values (not driven by this WR).
            let shared_start = (upper.index() + 1) % 2;
            for row in rows {
                let slice = b.subarray_mut(*sub).row_mut(*row);
                if *sub == last {
                    for (cell, bit) in slice.iter_mut().zip(data) {
                        *cell = if *bit == Bit::One { one } else { zero };
                    }
                } else {
                    for c in (shared_start..data.len()).step_by(SHARED_COL_STRIDE) {
                        slice[c] = if data[c] == Bit::One { zero } else { one };
                    }
                }
            }
        }
        b.set_open(open);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Violated-timing operations
    // -----------------------------------------------------------------

    /// `Frac` (FracDRAM): interrupting restoration stores ≈VDD/2 in
    /// every cell of `row`. The result depends only on the row, so it
    /// is computed on the row's first `Frac` and copied afterwards.
    pub fn frac(&mut self, bank: BankId, row: GlobalRow) -> Result<OpOutcome> {
        let (sub, local) = self.geom.split_row(row)?;
        self.charge_disturbance(bank, sub, 1);
        let cols = self.geom.cols();
        let key = (
            bank.index() as u32,
            sub.index() as u32,
            local.index() as u32,
        );
        if !self.frac_rows.contains_key(&key) {
            if self.frac_rows.len() >= MEMO_CAP {
                self.frac_rows.clear();
            }
            let fr = self.build_frac_row(bank, sub, local);
            self.frac_rows.insert(key, fr);
        }
        let fr = &self.frac_rows[&key];
        let mut rec = Recorder::new(self.fidelity.telemetry, cols);
        self.banks[bank.index()]
            .subarray_mut(sub)
            .row_mut(local)
            .copy_from_slice(&fr.volts);
        if let Some(cells) = &mut rec.cells {
            // VDD/2 reads as 0 by threshold, so intended is Zero.
            cells.extend(
                fr.actual
                    .iter()
                    .enumerate()
                    .map(|(c, &actual)| CellOutcome {
                        subarray: sub,
                        row: local,
                        col: Col(c),
                        role: CellRole::Frac,
                        intended: Bit::Zero,
                        actual,
                        p_success: 1.0,
                    }),
            );
        }
        // Every cell succeeds with p = 1, so the sum is the count exactly.
        rec.stats.roles[CellRole::Frac.index()] = RoleStats {
            count: cols,
            sum_p: cols as f64,
            drawn: cols,
            matches: fr.matches,
        };
        self.banks[bank.index()].close();
        Ok(rec.finish(OutcomeKind::Frac))
    }

    /// The `Frac` result of one row: each cell stores `(frac_level ×
    /// factor).clamp(0, 1) × vdd` and reads as one above VDD/2.
    fn build_frac_row(&self, bank: BankId, sub: SubarrayId, local: LocalRow) -> FracRow {
        let vdd = self.model.analog().vdd;
        let level = self.model.analog().frac_level;
        let mut volts = vec![0.0; self.geom.cols()];
        self.model
            .variation()
            .fill_frac_level_factor(bank, sub, local, &mut volts);
        for v in &mut volts {
            *v = (level * *v).clamp(0.0, 1.0) * vdd;
        }
        let actual: Box<[Bit]> = volts.iter().map(|&v| Bit::from(v > vdd / 2.0)).collect();
        FracRow {
            volts: volts.iter().map(|&v| v as f32).collect(),
            matches: actual.iter().filter(|&&a| a == Bit::Zero).count(),
            actual,
        }
    }

    // -----------------------------------------------------------------
    // Memoized kernel tables
    // -----------------------------------------------------------------

    /// Per-column CDF of the majority re-sense kernel for one raised
    /// row: `normal_cdf(maj_base + σ_cell·lz[c])`. Shared by the
    /// in-subarray MAJ baseline and the off-column halves of the NOT
    /// and charge-share sequences; the data-dependent vote margin is
    /// multiplied in at use time.
    fn memo_maj_cdf(&mut self, bank: BankId, sub: SubarrayId, row: LocalRow) -> Arc<[f64]> {
        let key = (bank.index() as u32, sub.index() as u32, row.index() as u32);
        if let Some(t) = self.memo.maj.get(&key) {
            return t.clone();
        }
        let cols = self.geom.cols();
        let maj_base = 2.6 - ReliabilityModel::logic_temp_term(self.temperature);
        let lz = self
            .cache
            .logic_z(self.model.variation(), bank, sub, row, cols);
        let t: Arc<[f64]> = (0..cols)
            .map(|c| normal_cdf(maj_base + SIGMA_CELL_LOGIC * lz[c]))
            .collect();
        if self.memo.maj.len() >= MEMO_CAP {
            self.memo.maj.clear();
        }
        self.memo.maj.insert(key, t.clone());
        t
    }

    /// Per-column RowClone success CDF for one in-subarray destination
    /// row.
    fn memo_clone_cdf(&mut self, bank: BankId, sub: SubarrayId, row: LocalRow) -> Arc<[f64]> {
        let key = (bank.index() as u32, sub.index() as u32, row.index() as u32);
        if let Some(t) = self.memo.clone.get(&key) {
            return t.clone();
        }
        let cols = self.geom.cols();
        let nz = self
            .cache
            .not_z(self.model.variation(), bank, sub, row, cols);
        let t: Arc<[f64]> = (0..cols)
            .map(|c| normal_cdf(Z_ROWCLONE + SIGMA_CELL_NOT * nz[c]))
            .collect();
        if self.memo.clone.len() >= MEMO_CAP {
            self.memo.clone.clear();
        }
        self.memo.clone.insert(key, t.clone());
        t
    }

    /// The data-independent z-score base of a cell of row `row` in
    /// subarray `sub` under the cross-subarray NOT activation `act`.
    fn not_base(&self, act: &NotAct, sub: SubarrayId, row: LocalRow) -> f64 {
        let rows_per_sub = self.geom.rows_per_subarray();
        let upper = act.upper();
        self.model.not_z_base(&NotEvent {
            total_rows: act.first_rows.len() + act.second_rows.len(),
            src_dist: dist_to_stripe(act.loc_f, rows_per_sub, act.sub_f, upper),
            dst_dist: dist_to_stripe(row, rows_per_sub, sub, upper),
            temperature: self.temperature,
        })
    }

    /// Success-CDF tables of a cross-subarray NOT's destination rows:
    /// the whole z-score is data-independent, so the final clamped CDF
    /// of each shared column is stored outright.
    fn memo_not_dst(&mut self, act: &NotAct) -> RowTables {
        if let Some(t) = self.memo.not_dst.get(&act.key) {
            return t.clone();
        }
        let bank = act.bank();
        let cols = self.geom.cols();
        let upper = act.upper();
        let shared_start = (upper.index() + 1) % 2;
        let sa_shared = self
            .cache
            .sa_z(self.model.variation(), bank, upper.index() + 1, cols);
        let mut dst = Vec::with_capacity(act.second_rows.len());
        for row in act.second_rows {
            let base = self.not_base(act, act.sub_l, *row);
            let nz = self
                .cache
                .not_z(self.model.variation(), bank, act.sub_l, *row, cols);
            let mut t = vec![0.0f64; cols].into_boxed_slice();
            for c in (shared_start..cols).step_by(2) {
                t[c] = normal_cdf(base + SIGMA_CELL_NOT * nz[c] + SIGMA_SA_NOT * sa_shared[c])
                    .clamp(0.0, 1.0);
            }
            dst.push(t);
        }
        let t: RowTables = dst.into();
        if self.memo.not_dst.len() >= MEMO_CAP {
            self.memo.not_dst.clear();
        }
        self.memo.not_dst.insert(act.key, t.clone());
        t
    }

    /// Success-CDF tables of a cross-subarray NOT's extra source rows
    /// (the source row itself excluded), full width, with the sense amp
    /// serving each column baked in.
    fn memo_not_src(&mut self, act: &NotAct) -> RowTables {
        if let Some(t) = self.memo.not_src.get(&act.key) {
            return t.clone();
        }
        let bank = act.bank();
        let cols = self.geom.cols();
        // The sense amp serving a source cell alternates stripes with
        // column parity; bake the selected draw into the table.
        let sa_above = self
            .cache
            .sa_z(self.model.variation(), bank, act.sub_f.index(), cols);
        let sa_below = self
            .cache
            .sa_z(self.model.variation(), bank, act.sub_f.index() + 1, cols);
        let parity = act.sub_f.index() % 2;
        let mut src = Vec::new();
        for row in act.first_rows {
            if *row == act.loc_f {
                continue;
            }
            let base = self.not_base(act, act.sub_f, *row);
            let nz = self
                .cache
                .not_z(self.model.variation(), bank, act.sub_f, *row, cols);
            let mut t = vec![0.0f64; cols].into_boxed_slice();
            for (c, slot) in t.iter_mut().enumerate() {
                let sz = if (c + parity).is_multiple_of(2) {
                    sa_above[c]
                } else {
                    sa_below[c]
                };
                *slot =
                    normal_cdf(base + SIGMA_CELL_NOT * nz[c] + SIGMA_SA_NOT * sz).clamp(0.0, 1.0);
            }
            src.push(t);
        }
        let t: RowTables = src.into();
        if self.memo.not_src.len() >= MEMO_CAP {
            self.memo.not_src.clear();
        }
        self.memo.not_src.insert(act.key, t.clone());
        t
    }

    /// Builds the shared-column CDF tables of one charge-share
    /// activation pair that `need[side][family]` asks for and the memo
    /// lacks (sides and families as in [`CsTables`] and [`CsSide`]).
    /// The stored value is `normal_cdf(z)` with the exact float-op
    /// order of the in-line kernel; the data-dependent margin
    /// multiplier and disturbance exponent are applied at use time.
    #[allow(clippy::too_many_arguments)]
    fn memo_cs_tables(
        &mut self,
        key: MemoKey,
        first_rows: &[LocalRow],
        second_rows: &[LocalRow],
        sub_ref: SubarrayId,
        sub_com: SubarrayId,
        loc_ref: LocalRow,
        loc_com: LocalRow,
        need: [[bool; 2]; 2],
    ) {
        if !self.memo.cs.contains_key(&key) && self.memo.cs.len() >= MEMO_CAP {
            self.memo.cs.clear();
        }
        let bank = BankId(key.0 as usize);
        let cols = self.geom.cols();
        let rows_per_sub = self.geom.rows_per_subarray();
        let upper = SubarrayId(sub_ref.index().min(sub_com.index()));
        let stripe = upper.index() + 1;
        let shared_start = (upper.index() + 1) % 2;
        let n_shared = (cols - shared_start).div_ceil(2);
        let com_dist_addr = dist_to_stripe(loc_com, rows_per_sub, sub_com, upper);
        let ref_dist_addr = dist_to_stripe(loc_ref, rows_per_sub, sub_ref, upper);
        let tterm = ReliabilityModel::logic_temp_term(self.temperature);
        let sa = self.cache.sa_z(self.model.variation(), bank, stripe, cols);
        let sides = [
            (sub_com, second_rows, [LogicOp::Or, LogicOp::And], false),
            (sub_ref, first_rows, [LogicOp::Nor, LogicOp::Nand], true),
        ];
        for (side, (sub, rows, ops, invert)) in sides.into_iter().enumerate() {
            for fam in 0..2 {
                let entry = &mut self.memo.cs.entry(key).or_default().sides[side];
                if !need[side][fam] || entry.built[fam] {
                    continue;
                }
                entry.built[fam] = true;
                let Some(pre) = self.model.logic_z_prefix(ops[fam], rows.len()) else {
                    continue;
                };
                let mut tabs = std::mem::take(&mut entry.rows);
                tabs.resize_with(rows.len(), || vec![0.0; 6 * n_shared].into());
                let cpl = ReliabilityModel::coupling(ops[fam]);
                for (row, t) in rows.iter().zip(&mut tabs) {
                    let own_dist = dist_to_stripe(*row, rows_per_sub, sub, upper);
                    let dist = if invert {
                        ReliabilityModel::logic_dist_term(ops[fam], com_dist_addr, own_dist)
                    } else {
                        ReliabilityModel::logic_dist_term(ops[fam], own_dist, ref_dist_addr)
                    };
                    let lz = self
                        .cache
                        .logic_z(self.model.variation(), bank, sub, *row, cols);
                    let half = &mut t[3 * n_shared * fam..3 * n_shared * (fam + 1)];
                    let shared = (shared_start..cols).step_by(2);
                    for (cdfs, c) in half.chunks_exact_mut(3).zip(shared) {
                        for (cdf, mm_v) in cdfs.iter_mut().zip([0.0f64, 0.5, 1.0]) {
                            let z = pre - cpl * mm_v.clamp(0.0, 1.0) + dist - tterm
                                + SIGMA_CELL_LOGIC * lz[c]
                                + SIGMA_SA_LOGIC * sa[c];
                            *cdf = normal_cdf(z);
                        }
                    }
                }
                self.memo.cs.entry(key).or_default().sides[side].rows = tabs;
            }
        }
    }

    /// The NOT / RowClone command sequence:
    /// `ACT rf → (tRAS respected) → PRE → ACT rl` with violated tRP.
    ///
    /// The first activation fully restores `rf`, so the shared sense
    /// amplifiers are latched and *drive* the rows raised by the second
    /// activation: cross-subarray destinations receive `¬rf` on the
    /// shared column half (bitline-bar coupling, §5.1); same-subarray
    /// destinations receive a copy of `rf` (RowClone).
    pub fn multi_act_copy(
        &mut self,
        bank: BankId,
        rf: GlobalRow,
        rl: GlobalRow,
    ) -> Result<OpOutcome> {
        self.multi_act_copy_masked(bank, rf, rl, CsTerminal::Both)
    }

    /// Copy resolving only the cells the caller will read.
    ///
    /// A cross-subarray copy under a scope that leaves the reference
    /// terminal unresolved ([`CsTerminal::Compute`] or
    /// [`CsTerminal::ComputeFirstRow`]) resolves only the destination
    /// subarray's rows — their [`CellRole::NotDst`] and
    /// [`CellRole::OffMaj`] cells draw, store and record exactly what
    /// [`Chip::multi_act_copy`] would — and skips the extra source-side
    /// rows: no draw, no record, no success table. Every other scope,
    /// and every in-subarray RowClone, resolves every raised row. Draws
    /// key on the operation, row and column, so the skipped rows move
    /// no other cell's draw.
    ///
    /// Skipped rows keep their old values, so masking is only safe when
    /// the caller never reads an extra source row before rewriting it.
    /// Characterization guarantees this: every NOT stages its source
    /// row, every logic operation stages every raised row, and nothing
    /// reads a result back.
    pub fn multi_act_copy_masked(
        &mut self,
        bank: BankId,
        rf: GlobalRow,
        rl: GlobalRow,
        need: CsTerminal,
    ) -> Result<OpOutcome> {
        self.geom.check_row(rf)?;
        self.geom.check_row(rl)?;
        self.geom.check_bank(bank)?;
        let activation = self.decoder.activation(&self.geom, rf, rl);
        let (sub_f, loc_f) = self.geom.split_row(rf)?;
        let (sub_l, _) = self.geom.split_row(rl)?;
        let op = self.next_op();
        let vdd = self.model.analog().vdd;
        let cols = self.geom.cols();

        let telemetry = self.fidelity.telemetry;

        match activation {
            MultiActivation::SecondIgnored => {
                self.charge_disturbance(bank, sub_f, 1);
                self.banks[bank.index()].set_open(OpenRows {
                    groups: vec![(sub_f, vec![loc_f])],
                    last_subarray: sub_f,
                });
                Ok(OpOutcome::empty(OutcomeKind::Ignored))
            }
            MultiActivation::SecondOnly => {
                let (sub, loc) = self.geom.split_row(rl)?;
                self.charge_disturbance(bank, sub, 1);
                self.banks[bank.index()].set_open(OpenRows {
                    groups: vec![(sub, vec![loc])],
                    last_subarray: sub,
                });
                Ok(OpOutcome::empty(OutcomeKind::NoGlitch))
            }
            MultiActivation::SameSubarray { rows } => {
                self.charge_disturbance(bank, sub_f, rows.len() as u64);
                // RowClone: every raised row except rf receives rf.
                let mut src = self.source_voltages(bank, sub_f, loc_f);
                let dsts = rows.iter().filter(|r| **r != loc_f).count();
                let mut rec = Recorder::new(telemetry, dsts * cols);
                for row in &rows {
                    if *row == loc_f {
                        continue;
                    }
                    let cdf = self.memo_clone_cdf(bank, sub_f, *row);
                    let sampler = self.row_sampler(op, sub_f, *row);
                    let slice = self.banks[bank.index()].subarray_mut(sub_f).row_mut(*row);
                    rec.resolve_row(
                        slice,
                        &sampler,
                        (sub_f, *row),
                        CellRole::CloneDst,
                        vdd,
                        0..cols,
                        |c, old| (bit_of(src[c], vdd), bit_of(old, vdd), cdf[c]),
                    );
                }
                self.scratch.src = std::mem::take(&mut src);
                let n = rows.len();
                self.banks[bank.index()].set_open(OpenRows {
                    groups: vec![(sub_f, rows)],
                    last_subarray: sub_f,
                });
                Ok(rec.finish(OutcomeKind::InSubarray { rows: n }))
            }
            MultiActivation::CrossSubarray {
                first_rows,
                second_rows,
                kind,
                ..
            } => {
                self.charge_disturbance(bank, sub_f, first_rows.len() as u64);
                self.charge_disturbance(bank, sub_l, second_rows.len() as u64);
                let upper = SubarrayId(sub_f.index().min(sub_l.index()));
                let mut src = self.source_voltages(bank, sub_f, loc_f);
                let shared_start = (upper.index() + 1) % 2;
                let act = NotAct {
                    key: (bank.index() as u32, rf.index() as u32, rl.index() as u32),
                    first_rows: &first_rows,
                    second_rows: &second_rows,
                    sub_f,
                    sub_l,
                    loc_f,
                };
                let dst_tabs = self.memo_not_dst(&act);
                let src_tabs = need.resolves_reference().then(|| self.memo_not_src(&act));

                // Destination rows: shared columns get ¬src; off
                // columns re-sense themselves (majority among the
                // raised destination rows — identical values retained).
                let n_dst = second_rows.len();
                let dst_cells = if n_dst == 1 {
                    (cols - shared_start).div_ceil(2)
                } else {
                    n_dst * cols
                };
                let src_cells = src_tabs.as_ref().map_or(0, |t| t.len() * cols);
                let mut rec = Recorder::new(telemetry, dst_cells + src_cells);
                let off_start = 1 - shared_start;
                let mut sc = std::mem::take(&mut self.scratch);
                sc.fit(cols);
                if n_dst > 1 {
                    let sa = self.banks[bank.index()].subarray(sub_l);
                    gather_half(
                        sa,
                        &second_rows,
                        off_start,
                        vdd,
                        &mut sc.sum_ref,
                        &mut sc.packed_ref,
                    );
                }
                for (ri, row) in second_rows.iter().enumerate() {
                    let dst_tab = &dst_tabs[ri];
                    let sampler = self.row_sampler(op, sub_l, *row);
                    if n_dst == 1 {
                        let slice = self.banks[bank.index()].subarray_mut(sub_l).row_mut(*row);
                        rec.resolve_row(
                            slice,
                            &sampler,
                            (sub_l, *row),
                            CellRole::NotDst,
                            vdd,
                            (shared_start..cols).step_by(2),
                            |c, old| (bit_of(src[c], vdd).not(), bit_of(old, vdd), dst_tab[c]),
                        );
                        continue;
                    }
                    // Off-column majority votes read the rows' *current*
                    // bits (earlier destination rows may already have
                    // re-sensed): the bits gathered once above, with
                    // each resolved row's stored bits set back in (the
                    // decoder's raised rows are distinct, so bit `ri`
                    // is this row's alone).
                    sc.votes(n_dst, off_start, cols);
                    let stored = 1u64 << ri;
                    let maj_cdf = self.memo_maj_cdf(bank, sub_l, *row);
                    let slice = self.banks[bank.index()].subarray_mut(sub_l).row_mut(*row);
                    for c in 0..cols {
                        let (role, intended, failed, p) = if c % 2 == shared_start {
                            let not_src = bit_of(src[c], vdd).not();
                            (CellRole::NotDst, not_src, bit_of(slice[c], vdd), dst_tab[c])
                        } else {
                            let p = (sc.mult[c] * maj_cdf[c]).clamp(0.0, 1.0);
                            (CellRole::OffMaj, sc.maj[c], sc.maj[c].not(), p)
                        };
                        let actual = if sampler.sample(c, p) {
                            intended
                        } else {
                            failed
                        };
                        slice[c] = actual.voltage(vdd) as f32;
                        if c % 2 == off_start {
                            let bits = &mut sc.packed_ref[c / 2];
                            *bits = (*bits & !stored) | (stored * u64::from(actual.as_bool()));
                        }
                        rec.push(sub_l, *row, Col(c), role, intended, actual, p);
                    }
                }
                self.scratch = sc;

                // Extra source-side rows receive a copy of src on every
                // column (all bitlines of the source subarray are
                // latched at src's values); the per-row CDF — sense-amp
                // stripe parity included — comes from the memo table.
                // A destination-only scope skips them.
                let extra = first_rows.iter().filter(|r| **r != loc_f);
                for (row, src_tab) in extra.zip(src_tabs.iter().flat_map(|t| t.iter())) {
                    let sampler = self.row_sampler(op, sub_f, *row);
                    let slice = self.banks[bank.index()].subarray_mut(sub_f).row_mut(*row);
                    rec.resolve_row(
                        slice,
                        &sampler,
                        (sub_f, *row),
                        CellRole::SrcCopy,
                        vdd,
                        0..cols,
                        |c, old| (bit_of(src[c], vdd), bit_of(old, vdd), src_tab[c]),
                    );
                }
                self.scratch.src = std::mem::take(&mut src);

                let shape = (first_rows.len(), second_rows.len());
                self.banks[bank.index()].set_open(OpenRows {
                    groups: vec![(sub_f, first_rows), (sub_l, second_rows)],
                    last_subarray: sub_l,
                });
                Ok(rec.finish(OutcomeKind::Not {
                    n_rf: shape.0,
                    n_rl: shape.1,
                    pattern: kind,
                }))
            }
        }
    }

    /// Majority value and margin multiplier of every column of parity
    /// `start` across `rows`, read from the rows' current contents into
    /// `sc.maj` and `sc.mult`.
    fn majority_votes(
        &self,
        bank: BankId,
        sub: SubarrayId,
        rows: &[LocalRow],
        start: usize,
        sc: &mut Scratch,
    ) {
        let vdd = self.model.analog().vdd;
        let sa = self.banks[bank.index()].subarray(sub);
        gather_half(sa, rows, start, vdd, &mut sc.sum_ref, &mut sc.packed_ref);
        sc.votes(rows.len(), start, self.geom.cols());
    }

    /// Copies the voltages of source row `loc` into the scratch source
    /// buffer (an unallocated row reads as 0 V).
    fn source_voltages(&mut self, bank: BankId, sub: SubarrayId, loc: LocalRow) -> Vec<f32> {
        let mut src = std::mem::take(&mut self.scratch.src);
        src.clear();
        match self.banks[bank.index()].subarray_mut(sub).row(loc) {
            Some(row) => src.extend_from_slice(row),
            None => src.resize(self.geom.cols(), 0.0),
        }
        src
    }

    /// The charge-sharing command sequence:
    /// `ACT r_ref → PRE → ACT r_com`, *both* gaps violated, so the
    /// sense amplifiers are still off when the raised rows merge. The
    /// reference-side bitline level (set by N−1 all-1/all-0 rows plus a
    /// `Frac` row) turns the comparator into an N-input AND/OR, with
    /// NAND/NOR appearing on the reference terminal (§6.1).
    pub fn multi_act_charge_share(
        &mut self,
        bank: BankId,
        r_ref: GlobalRow,
        r_com: GlobalRow,
    ) -> Result<OpOutcome> {
        self.multi_act_charge_share_inner(bank, r_ref, r_com, CsTerminal::Both)
    }

    /// Charge share resolving only the cells the caller will read.
    ///
    /// `Compute`/`Reference` skip voltage/telemetry updates for the
    /// other terminal's rows and for the non-shared majority half; the
    /// `*FirstRow` scopes also skip the read terminal's rows after its
    /// first raised row, which then only add their success
    /// probabilities to the outcome's `count`/`sum_p` (so
    /// `mean_success` is bit-identical to the whole terminal's, and
    /// `observed_accuracy` covers the drawn row alone). Resolved cells
    /// draw and store exactly what [`Chip::multi_act_charge_share`]
    /// would.
    ///
    /// Unresolved rows keep their staged values, so masking is only
    /// safe when the caller rewrites every raised row before its next
    /// read — the prepared execution path guarantees this (and
    /// `BulkEngine` falls back to the full kernel when its row plan
    /// cannot keep NOT destinations disjoint from charge-share rows),
    /// and `fcdram`'s `logic_outcome` stages every raised row before
    /// each charge share.
    pub fn multi_act_charge_share_masked(
        &mut self,
        bank: BankId,
        r_ref: GlobalRow,
        r_com: GlobalRow,
        need: CsTerminal,
    ) -> Result<OpOutcome> {
        self.multi_act_charge_share_inner(bank, r_ref, r_com, need)
    }

    fn multi_act_charge_share_inner(
        &mut self,
        bank: BankId,
        r_ref: GlobalRow,
        r_com: GlobalRow,
        need: CsTerminal,
    ) -> Result<OpOutcome> {
        self.geom.check_row(r_ref)?;
        self.geom.check_row(r_com)?;
        self.geom.check_bank(bank)?;
        let activation = self.decoder.activation(&self.geom, r_ref, r_com);
        let (sub_ref, _) = self.geom.split_row(r_ref)?;
        let (sub_com, _) = self.geom.split_row(r_com)?;
        let op = self.next_op();
        let vdd = self.model.analog().vdd;
        let cols = self.geom.cols();

        let telemetry = self.fidelity.telemetry;

        match activation {
            MultiActivation::SecondIgnored => {
                self.charge_disturbance(bank, sub_ref, 1);
                Ok(OpOutcome::empty(OutcomeKind::Ignored))
            }
            MultiActivation::SecondOnly => {
                let (sub, loc) = self.geom.split_row(r_com)?;
                self.charge_disturbance(bank, sub, 1);
                self.banks[bank.index()].set_open(OpenRows {
                    groups: vec![(sub, vec![loc])],
                    last_subarray: sub,
                });
                Ok(OpOutcome::empty(OutcomeKind::NoGlitch))
            }
            MultiActivation::SameSubarray { rows } => {
                self.charge_disturbance(bank, sub_ref, rows.len() as u64);
                // In-subarray simultaneous activation: every column
                // resolves the majority of the raised cells
                // (Ambit/ComputeDRAM-style MAJ; the triple-row baseline).
                // Votes are taken per column before any cell re-senses,
                // and writes at one column never feed back into another,
                // so a single upfront snapshot is exact.
                let n = rows.len();
                let dexp = self.disturb_exponent(bank, sub_ref);
                let mut rec = Recorder::new(telemetry, if n >= 2 { n * cols } else { 0 });
                if n >= 2 {
                    let mut sc = std::mem::take(&mut self.scratch);
                    sc.fit(cols);
                    for start in [0, 1] {
                        self.majority_votes(bank, sub_ref, &rows, start, &mut sc);
                    }
                    for row in &rows {
                        let cdf = self.memo_maj_cdf(bank, sub_ref, *row);
                        let sampler = self.row_sampler(op, sub_ref, *row);
                        let slice = self.banks[bank.index()].subarray_mut(sub_ref).row_mut(*row);
                        let (maj, mult) = (&sc.maj, &sc.mult);
                        rec.resolve_row(
                            slice,
                            &sampler,
                            (sub_ref, *row),
                            CellRole::OffMaj,
                            vdd,
                            0..cols,
                            |c, _| {
                                let mut p = (mult[c] * cdf[c]).clamp(0.0, 1.0);
                                if dexp != 1.0 {
                                    p = p.powf(dexp);
                                }
                                (maj[c], maj[c].not(), p)
                            },
                        );
                    }
                    self.scratch = sc;
                }
                let nrows = rows.len();
                self.banks[bank.index()].set_open(OpenRows {
                    groups: vec![(sub_ref, rows)],
                    last_subarray: sub_ref,
                });
                Ok(rec.finish(OutcomeKind::InSubarray { rows: nrows }))
            }
            MultiActivation::CrossSubarray {
                first_rows,
                second_rows,
                simultaneous: false,
                ..
            } => {
                // Sequential-only parts (Samsung) cannot charge-share,
                // but both activations still disturbed their subarrays.
                self.charge_disturbance(bank, sub_ref, first_rows.len() as u64);
                self.charge_disturbance(bank, sub_com, second_rows.len() as u64);
                Ok(OpOutcome::empty(OutcomeKind::Unsupported))
            }
            MultiActivation::CrossSubarray {
                first_rows,
                second_rows,
                simultaneous: true,
                ..
            } => {
                self.charge_disturbance(bank, sub_ref, first_rows.len() as u64);
                self.charge_disturbance(bank, sub_com, second_rows.len() as u64);
                let upper = SubarrayId(sub_ref.index().min(sub_com.index()));
                let n_ref = first_rows.len();
                let n_com = second_rows.len();
                let analog = *self.model.analog();
                let (_, loc_ref) = self.geom.split_row(r_ref)?;
                let (_, loc_com) = self.geom.split_row(r_com)?;
                let shared_start = (upper.index() + 1) % 2;
                // --- Gather (SoA): per-column voltage sums and packed
                // per-row bits of the shared half, one pass per raised
                // row. The sensing model is computed from these flat
                // arrays, indexed by `col / 2`.
                let mut sc = std::mem::take(&mut self.scratch);
                sc.fit(cols);
                let b = &self.banks[bank.index()];
                let (sa_ref, sa_com) = (b.subarray(sub_ref), b.subarray(sub_com));
                let (sums, packed) = (&mut sc.sum_ref, &mut sc.packed_ref);
                gather_half(sa_ref, &first_rows, shared_start, vdd, sums, packed);
                let (sums, packed) = (&mut sc.sum_com, &mut sc.packed_com);
                gather_half(sa_com, &second_rows, shared_start, vdd, sums, packed);

                // --- Per-column sensing outcome on the shared half:
                // differential, margin class, family, and the index of
                // the coupling-mismatch table (packed-word compares of
                // the two same-half neighbours: 0, ½ or 1 mismatched).
                // The differential and the mean reference level replace
                // the sums in place first, in a loop that vectorizes.
                let n_shared = (cols - shared_start).div_ceil(2);
                let (diffs, ref_means) = (&mut sc.sum_com[..n_shared], &mut sc.sum_ref[..n_shared]);
                for (com, rf) in diffs.iter_mut().zip(ref_means.iter_mut()) {
                    *com =
                        analog.bitline_from_sum(*com, n_com) - analog.bitline_from_sum(*rf, n_ref);
                    *rf = *rf / (n_ref.max(1) as f64) / vdd;
                }
                let packed_com = &sc.packed_com[..n_shared];
                let mut families = [false; 2];
                let cell_unit = analog.cell_unit(n_com.max(n_ref));
                for (j, sel) in sc.sel[..n_shared].iter_mut().enumerate() {
                    let (diff, ref_mean) = (diffs[j], ref_means[j]);
                    let diff_cells = diff / cell_unit;
                    let fam_and = ref_mean > 0.5;
                    families[usize::from(fam_and)] = true;
                    let mut d = 0u8;
                    let mut cnt = 0u8;
                    for nb in [j.wrapping_sub(1), j + 1] {
                        if nb < n_shared {
                            cnt += 1;
                            d += u8::from(packed_com[nb] != packed_com[j]);
                        }
                    }
                    let mm_idx = (2 * d).checked_div(cnt).unwrap_or(0);
                    let class = classify_margin(diff_cells, ref_mean);
                    *sel = cs_sel(diff > 0.0, fam_and, mm_idx, class);
                }

                // Read-disturbance derating: each side's result cells
                // are weakened by their own subarray's unmitigated
                // pressure (1.0 without a policy — the no-op path).
                let dexp_ref = self.disturb_exponent(bank, sub_ref);
                let dexp_com = self.disturb_exponent(bank, sub_com);
                // Records: n_shared per drawn terminal row, and each
                // majority-resolved side's rows on the other half.
                let drawn_rows =
                    |resolve: bool, n_side: usize| match (resolve, need.first_row_only()) {
                        (false, _) => 0,
                        (true, true) => n_side.min(1),
                        (true, false) => n_side,
                    };
                let n_off = (cols - (1 - shared_start)).div_ceil(2);
                let off_rows = |n_side: usize| {
                    if need == CsTerminal::Both && n_side >= 2 {
                        n_side
                    } else {
                        0
                    }
                };
                let cells = n_shared
                    * (drawn_rows(need.resolves_compute(), n_com)
                        + drawn_rows(need.resolves_reference(), n_ref))
                    + n_off * (off_rows(n_com) + off_rows(n_ref));
                let mut rec = Recorder::new(telemetry, cells);
                let key = (
                    bank.index() as u32,
                    r_ref.index() as u32,
                    r_com.index() as u32,
                );
                let wanted = [need.resolves_compute(), need.resolves_reference()]
                    .map(|side| families.map(|f| side && f));
                self.memo_cs_tables(
                    key,
                    &first_rows,
                    &second_rows,
                    sub_ref,
                    sub_com,
                    loc_ref,
                    loc_com,
                    wanted,
                );
                let tables = &self.memo.cs[&key].sides;

                // Result rows on both terminals share one kernel shape:
                // p = margin multiplier × Φ(z), Φ(z) from the memoized
                // per-row table of the column's family and mismatch.
                let first_only = need.first_row_only();
                let terminals = [
                    (
                        need.resolves_compute(),
                        sub_com,
                        &second_rows,
                        &tables[0].rows,
                        (LogicOp::And, LogicOp::Or),
                        n_com,
                        false,
                        CellRole::Compute,
                        dexp_com,
                    ),
                    (
                        need.resolves_reference(),
                        sub_ref,
                        &first_rows,
                        &tables[1].rows,
                        (LogicOp::Nand, LogicOp::Nor),
                        n_ref,
                        true,
                        CellRole::Reference,
                        dexp_ref,
                    ),
                ];
                for (resolve, sub, rows, tabs, ops, n_side, invert, role, dexp) in terminals {
                    if !resolve {
                        continue;
                    }
                    // Per shared column: the margin multiplier (by the
                    // family and class bits of its selector) and the
                    // offset of its CDF in each row's table.
                    let lut: [f64; 8] = std::array::from_fn(|k| {
                        let op_sel = if k >= 4 { ops.0 } else { ops.1 };
                        let class = [
                            MarginClass::Critical,
                            MarginClass::Marginal,
                            MarginClass::Near,
                            MarginClass::Comfortable,
                        ][k & 3];
                        ReliabilityModel::margin_multiplier(op_sel, n_side, class)
                    });
                    let sel = &sc.sel[..n_shared];
                    let mults = &mut sc.term_mult[..n_shared];
                    let idx = &mut sc.term_idx[..n_shared];
                    for (j, ((code, m), i)) in sel
                        .iter()
                        .zip(mults.iter_mut())
                        .zip(idx.iter_mut())
                        .enumerate()
                    {
                        let tab = (code >> 2) & 7;
                        *m = lut[usize::from(4 * (tab / 3) + (code & 3))];
                        *i = (3 * n_shared * usize::from(tab / 3) + 3 * j) as u32
                            + u32::from(tab % 3);
                    }
                    let (mults, idx) = (&*mults, &*idx);
                    for (row_i, row) in rows.iter().enumerate() {
                        let cdf = tabs.get(row_i).map(|t| &**t);
                        if first_only && row_i > 0 {
                            // Unresolved: counted toward the mean, never
                            // drawn; the row keeps its staged values. A
                            // row without tables adds zeros, a no-op.
                            let s = &mut rec.stats.roles[role.index()];
                            s.count += n_shared;
                            if let Some(t) = cdf {
                                s.sum_p = sum_cell_p(s.sum_p, mults, idx, t, dexp);
                            }
                            continue;
                        }
                        let p_at = |j: usize| {
                            let mut p = match cdf {
                                Some(t) => (mults[j] * t[idx[j] as usize]).clamp(0.0, 1.0),
                                None => 0.0,
                            };
                            if dexp != 1.0 {
                                p = p.powf(dexp);
                            }
                            p
                        };
                        let sampler = self.row_sampler(op, sub, *row);
                        let slice = self.banks[bank.index()].subarray_mut(sub).row_mut(*row);
                        let shared = (shared_start..cols).step_by(2);
                        rec.resolve_row(slice, &sampler, (sub, *row), role, vdd, shared, |c, _| {
                            let intended = Bit::from((sel[c / 2] >> 5 == 1) != invert);
                            (intended, intended.not(), p_at(c / 2))
                        });
                    }
                }

                // Non-shared half: each side majority-resolves against
                // its other (precharged) stripe, from the pre-operation
                // values (the terminal pass wrote only shared columns).
                // Skipped when masked: these cells are never read before
                // their next rewrite.
                let off_start = 1 - shared_start;
                let offmaj_sides = [
                    (sub_com, &second_rows, n_com, dexp_com),
                    (sub_ref, &first_rows, n_ref, dexp_ref),
                ];
                for (sub, rows, n_side, dexp) in offmaj_sides {
                    if need != CsTerminal::Both || n_side < 2 {
                        continue;
                    }
                    let sa = self.banks[bank.index()].subarray(sub);
                    gather_half(
                        sa,
                        rows,
                        off_start,
                        vdd,
                        &mut sc.sum_ref,
                        &mut sc.packed_ref,
                    );
                    for c in (off_start..cols).step_by(2) {
                        let (sum, packed) = (sc.sum_ref[c / 2], sc.packed_ref[c / 2]);
                        sc.maj[c] = Bit::from(2 * packed.count_ones() as usize > n_side);
                        sc.mult[c] = ReliabilityModel::maj_multiplier(
                            (sum / vdd - n_side as f64 / 2.0).abs(),
                        );
                    }
                    let (maj, mult) = (&sc.maj, &sc.mult);
                    for row in rows.iter() {
                        let cdf = self.memo_maj_cdf(bank, sub, *row);
                        let sampler = self.row_sampler(op, sub, *row);
                        let slice = self.banks[bank.index()].subarray_mut(sub).row_mut(*row);
                        let offs = (off_start..cols).step_by(2);
                        rec.resolve_row(
                            slice,
                            &sampler,
                            (sub, *row),
                            CellRole::OffMaj,
                            vdd,
                            offs,
                            |c, _| {
                                let mut p = (mult[c] * cdf[c]).clamp(0.0, 1.0);
                                if dexp != 1.0 {
                                    p = p.powf(dexp);
                                }
                                (maj[c], maj[c].not(), p)
                            },
                        );
                    }
                }
                self.scratch = sc;

                self.banks[bank.index()].set_open(OpenRows {
                    groups: vec![(sub_ref, first_rows), (sub_com, second_rows)],
                    last_subarray: sub_com,
                });
                Ok(rec.finish(OutcomeKind::Logic {
                    n_ref,
                    n_com,
                    and_family: families[1],
                }))
            }
        }
    }

    /// Applies retention leakage for `dt_ns` nanoseconds at the current
    /// temperature (τ ≈ 64 ms at 50 °C, halving every 10 °C).
    pub fn advance_time(&mut self, dt_ns: f64) {
        let tau_ns = 64e6 / self.temperature.leakage_acceleration();
        for b in &mut self.banks {
            b.leak(dt_ns / tau_ns);
        }
    }

    /// Single-sided RowHammer: `activations` rapid activations of
    /// `row` disturb the *physically adjacent* rows within the same
    /// subarray. Rows at a subarray edge have only one neighbor — the
    /// signal the paper's row-order reverse engineering exploits
    /// (§5.2). Returns `(victim row, flipped bits)` per neighbor.
    ///
    /// Charged cells flip toward GND with probability growing past the
    /// cell's hammer threshold; discharged cells flip far more rarely.
    pub fn hammer(
        &mut self,
        bank: BankId,
        row: GlobalRow,
        activations: u64,
    ) -> Result<Vec<(GlobalRow, usize)>> {
        let (sub, local) = self.geom.split_row(row)?;
        self.geom.check_bank(bank)?;
        self.charge_disturbance(bank, sub, activations);
        let vdd = self.model.analog().vdd;
        let rows_per_sub = self.geom.rows_per_subarray();
        let mut victims = Vec::new();
        if local.index() > 0 {
            victims.push(LocalRow(local.index() - 1));
        }
        if local.index() + 1 < rows_per_sub {
            victims.push(LocalRow(local.index() + 1));
        }
        let op = self.next_op();
        let mut out = Vec::new();
        for victim in victims {
            let mut flips = 0usize;
            let sampler = self.row_sampler(op, sub, victim);
            for c in 0..self.geom.cols() {
                let col = Col(c);
                let threshold = self
                    .model
                    .variation()
                    .hammer_threshold(bank, sub, victim, col);
                let charged = self.banks[bank.index()]
                    .subarray_mut(sub)
                    .bit(victim, col, vdd)
                    .as_bool();
                // Anti-cells (0 → 1 flips) are ~8× rarer.
                let eff = if charged { threshold } else { threshold * 8.0 };
                let p_flip = (activations as f64 / eff - 0.8).clamp(0.0, 0.95);
                if p_flip > 0.0 && sampler.sample(c, p_flip) {
                    let old = self.banks[bank.index()]
                        .subarray_mut(sub)
                        .bit(victim, col, vdd);
                    self.banks[bank.index()].subarray_mut(sub).set_voltage(
                        victim,
                        col,
                        old.not().voltage(vdd),
                    );
                    flips += 1;
                }
            }
            out.push((self.geom.join_row(sub, victim)?, flips));
        }
        Ok(out)
    }
}

/// Writes, for each column `c` of parity `start`, the sum of the raised
/// rows' cell voltages into `sums[c / 2]`, and into `packed[c / 2]` a
/// word whose bit `i` is set where raised row `i` holds a one. The
/// first raised row assigns and later rows add, in raised-row order (so
/// each column's total is the same float sum whichever columns are
/// visited). Unallocated rows read as zero and add nothing.
fn gather_half(
    sa: Option<&Subarray>,
    rows: &[LocalRow],
    start: usize,
    vdd: f64,
    sums: &mut [f64],
    packed: &mut [u64],
) {
    debug_assert!(rows.len() <= 64, "one packed bit per raised row");
    let threshold = vdd / 2.0;
    let row_of = |r: &LocalRow| sa.and_then(|s| s.row(*r));
    if rows.first().and_then(row_of).is_none() {
        sums.fill(0.0);
        packed.fill(0);
    }
    for (i, row) in rows.iter().enumerate() {
        let Some(slice) = row_of(row) else {
            continue;
        };
        let half = &slice[start..];
        if i == 0 {
            visit_half(half, sums, packed, |s, p, v| {
                *s = v;
                *p = u64::from(v > threshold);
            });
        } else {
            visit_half(half, sums, packed, |s, p, v| {
                *s += v;
                *p |= u64::from(v > threshold) << i;
            });
        }
    }
}

/// Applies `cell(sums[j], packed[j], half[2 j])` for every `j` (two
/// columns per step, so the loop vectorizes).
#[inline]
fn visit_half(
    half: &[f32],
    sums: &mut [f64],
    packed: &mut [u64],
    mut cell: impl FnMut(&mut f64, &mut u64, f64),
) {
    let quads = half.chunks_exact(4);
    let tail = quads.remainder();
    let pairs = sums.chunks_exact_mut(2).zip(packed.chunks_exact_mut(2));
    for ((s, p), v) in pairs.zip(quads) {
        cell(&mut s[0], &mut p[0], f64::from(v[0]));
        cell(&mut s[1], &mut p[1], f64::from(v[2]));
    }
    // Up to two columns of the half are left past the last full quad.
    let done = 2 * (half.len() / 4);
    for (k, v) in tail.iter().step_by(2).enumerate() {
        cell(&mut sums[done + k], &mut packed[done + k], f64::from(*v));
    }
}

/// Normalized distance of `row` (in subarray `sub`) to the stripe
/// shared by the pair whose upper member is `upper`.
fn dist_to_stripe(row: LocalRow, rows: usize, sub: SubarrayId, upper: SubarrayId) -> f64 {
    use crate::types::StripeSide;
    let side = if sub == upper {
        StripeSide::Below
    } else {
        StripeSide::Above
    };
    crate::variation::row_distance(row, rows, side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::table1;
    use crate::types::is_shared_col;

    fn hynix_chip() -> Chip {
        let cfg = table1().into_iter().next().unwrap().with_modeled_cols(64);
        Chip::new(cfg, ChipId(0))
    }

    fn pattern(seed: u64, cols: usize) -> Vec<Bit> {
        (0..cols)
            .map(|c| Bit::from(crate::math::hash_to_unit(crate::math::mix2(seed, c as u64)) < 0.5))
            .collect()
    }

    #[test]
    fn activate_then_activate_is_illegal() {
        let mut chip = hynix_chip();
        chip.activate(BankId(0), GlobalRow(3)).unwrap();
        assert!(chip.activate(BankId(0), GlobalRow(4)).is_err());
        chip.precharge(BankId(0)).unwrap();
        assert!(chip.activate(BankId(0), GlobalRow(4)).is_ok());
    }

    #[test]
    fn direct_write_read_round_trip() {
        let mut chip = hynix_chip();
        let cols = chip.geometry().cols();
        let bits = pattern(7, cols);
        chip.write_row_direct(BankId(1), GlobalRow(100), &bits)
            .unwrap();
        assert_eq!(
            chip.read_row_direct(BankId(1), GlobalRow(100)).unwrap(),
            bits
        );
        assert_eq!(chip.read_row(BankId(1), GlobalRow(100)).unwrap(), bits);
    }

    #[test]
    fn frac_stores_half_vdd() {
        let mut chip = hynix_chip();
        let out = chip.frac(BankId(0), GlobalRow(5)).unwrap();
        assert_eq!(out.kind, OutcomeKind::Frac);
        let (sub, local) = chip.geometry().split_row(GlobalRow(5)).unwrap();
        let bank = &chip.banks[0];
        let v = bank.subarray(sub).unwrap().voltage(local, Col(0));
        assert!(v > 0.45 && v < 0.70, "frac voltage {v}");
        let _ = local;
    }

    #[test]
    fn frac_row_cache_matches_a_fresh_chip() {
        let (bank, row) = (BankId(0), GlobalRow(5));
        let full = crate::SimConfig::new().with_telemetry(Telemetry::Full);
        let volts = |chip: &Chip| {
            let (sub, local) = chip.geometry().split_row(row).unwrap();
            chip.banks[bank.index()]
                .subarray(sub)
                .and_then(|s| s.row(local))
                .unwrap()
                .to_vec()
        };
        let mut fresh = hynix_chip().with_sim_config(full);
        let want_out = fresh.frac(bank, row).unwrap();
        let want_volts = volts(&fresh);
        assert_eq!(want_out.cells.len(), fresh.geometry().cols());

        let mut chip = hynix_chip().with_sim_config(full);
        let check = |chip: &mut Chip, after: &str| {
            let out = chip.frac(bank, row).unwrap();
            assert_eq!(out, want_out, "outcome after {after}");
            assert_eq!(volts(chip), want_volts, "voltages after {after}");
        };
        check(&mut chip, "a first Frac");

        let cols = chip.geometry().cols();
        chip.activate(bank, row).unwrap();
        chip.write_open(bank, &pattern(9, cols)).unwrap();
        chip.precharge(bank).unwrap();
        assert_ne!(volts(&chip), want_volts, "WR must overwrite the row");
        check(&mut chip, "a WR");

        let rl = (512..1024)
            .map(GlobalRow)
            .find(|rl| {
                matches!(
                    chip.decoder().activation(chip.geometry(), row, *rl),
                    MultiActivation::CrossSubarray { .. }
                )
            })
            .expect("some pair must glitch");
        let cs = chip.multi_act_charge_share(bank, row, rl).unwrap();
        chip.precharge(bank).unwrap();
        assert!(
            matches!(cs.kind, OutcomeKind::Logic { .. }),
            "{:?}",
            cs.kind
        );
        assert_ne!(
            volts(&chip),
            want_volts,
            "the charge share must overwrite the row"
        );
        check(&mut chip, "a charge share");
    }

    #[test]
    fn not_writes_inverse_on_shared_columns() {
        let mut chip = hynix_chip();
        let cols = chip.geometry().cols();
        let bank = BankId(0);
        // Find a 1:1-or-better pair between subarrays 0 and 1.
        let mut found = None;
        'outer: for f in 0..512usize {
            for l in 0..512usize {
                let rf = GlobalRow(f);
                let rl = GlobalRow(512 + l);
                if let MultiActivation::CrossSubarray { .. } =
                    chip.decoder().activation(chip.geometry(), rf, rl)
                {
                    found = Some((rf, rl));
                    break 'outer;
                }
            }
        }
        let (rf, rl) = found.expect("some pair must glitch");
        let src = pattern(42, cols);
        chip.write_row_direct(bank, rf, &src).unwrap();
        let out = chip.multi_act_copy(bank, rf, rl).unwrap();
        assert!(matches!(out.kind, OutcomeKind::Not { .. }));
        // Destination cells on shared columns should mostly be ¬src.
        let acc = out.observed_accuracy(CellRole::NotDst).unwrap();
        assert!(acc > 0.85, "NOT accuracy {acc}");
        for cell in out
            .cells
            .iter()
            .filter(|c| c.role == CellRole::NotDst)
            .take(8)
        {
            assert_eq!(cell.intended, src[cell.col.index()].not());
        }
    }

    #[test]
    fn rowclone_same_subarray_copies() {
        let mut chip = hynix_chip();
        let cols = chip.geometry().cols();
        let bank = BankId(0);
        // Same-subarray pair with identical predecode groups except the
        // addressed rows; pick rows differing only in the section bit
        // so the raised set is exactly {rf, rl}.
        let mut found = None;
        for base in 0..256usize {
            let rf = GlobalRow(base);
            let rl = GlobalRow(base + 256); // same low bits, other section
            if let MultiActivation::SameSubarray { rows } =
                chip.decoder().activation(chip.geometry(), rf, rl)
            {
                if rows.len() == 2 {
                    found = Some((rf, rl));
                    break;
                }
            }
        }
        let (rf, rl) = found.expect("a clean two-row clone pair");
        let src = pattern(9, cols);
        chip.write_row_direct(bank, rf, &src).unwrap();
        let out = chip.multi_act_copy(bank, rf, rl).unwrap();
        assert!(matches!(out.kind, OutcomeKind::InSubarray { rows: 2 }));
        let acc = out.observed_accuracy(CellRole::CloneDst).unwrap();
        assert!(acc > 0.95, "clone accuracy {acc}");
        let read = chip.read_row_direct(bank, rl).unwrap();
        let matches = read.iter().zip(&src).filter(|(a, b)| a == b).count();
        assert!(matches as f64 / cols as f64 > 0.95);
    }

    #[test]
    fn charge_share_produces_and_or_results() {
        let mut chip = hynix_chip();
        let cols = chip.geometry().cols();
        let bank = BankId(0);
        // Find an N:N pair with N=2 between subarrays 0 and 1.
        let mut found = None;
        'outer: for f in 0..512usize {
            for l in 0..512usize {
                let rf = GlobalRow(f);
                let rl = GlobalRow(512 + l);
                if let MultiActivation::CrossSubarray {
                    first_rows,
                    second_rows,
                    simultaneous: true,
                    ..
                } = chip.decoder().activation(chip.geometry(), rf, rl)
                {
                    if first_rows.len() == 2 && second_rows.len() == 2 {
                        found = Some((rf, rl, first_rows, second_rows));
                        break 'outer;
                    }
                }
            }
        }
        let (rf, rl, ref_rows, com_rows) = found.expect("a 2:2 pair");
        let geom = *chip.geometry();
        let (sub_ref, _) = geom.split_row(rf).unwrap();
        let (sub_com, _) = geom.split_row(rl).unwrap();
        // AND configuration: one all-1s row + one frac row on the
        // reference side; random inputs on the compute side.
        let ones = vec![Bit::One; cols];
        chip.write_row_direct(bank, geom.join_row(sub_ref, ref_rows[0]).unwrap(), &ones)
            .unwrap();
        chip.frac(bank, geom.join_row(sub_ref, ref_rows[1]).unwrap())
            .unwrap();
        let in_a = pattern(1, cols);
        let in_b = pattern(2, cols);
        chip.write_row_direct(bank, geom.join_row(sub_com, com_rows[0]).unwrap(), &in_a)
            .unwrap();
        chip.write_row_direct(bank, geom.join_row(sub_com, com_rows[1]).unwrap(), &in_b)
            .unwrap();

        let out = chip.multi_act_charge_share(bank, rf, rl).unwrap();
        match out.kind {
            OutcomeKind::Logic {
                n_ref: 2,
                n_com: 2,
                and_family: true,
            } => {}
            other => panic!("unexpected kind {other:?}"),
        }
        // Intended compute results must equal bitwise AND of inputs.
        let upper = SubarrayId(sub_ref.index().min(sub_com.index()));
        for cell in out.cells.iter().filter(|c| c.role == CellRole::Compute) {
            assert!(is_shared_col(upper, cell.col));
            let expect =
                Bit::from(in_a[cell.col.index()].as_bool() && in_b[cell.col.index()].as_bool());
            assert_eq!(cell.intended, expect, "col {}", cell.col);
        }
        // Reference terminal carries NAND.
        for cell in out.cells.iter().filter(|c| c.role == CellRole::Reference) {
            let expect =
                Bit::from(!(in_a[cell.col.index()].as_bool() && in_b[cell.col.index()].as_bool()));
            assert_eq!(cell.intended, expect);
        }
        let acc = out.observed_accuracy(CellRole::Compute).unwrap();
        assert!(acc > 0.6, "AND accuracy {acc}");
    }

    #[test]
    fn write_open_overdrives_both_subarrays() {
        let mut chip = hynix_chip();
        let cols = chip.geometry().cols();
        let bank = BankId(0);
        let mut found = None;
        'outer: for f in 0..512usize {
            for l in 0..512usize {
                let rf = GlobalRow(f);
                let rl = GlobalRow(512 + l);
                if let MultiActivation::CrossSubarray { .. } =
                    chip.decoder().activation(chip.geometry(), rf, rl)
                {
                    found = Some((rf, rl));
                    break 'outer;
                }
            }
        }
        let (rf, rl) = found.unwrap();
        chip.multi_act_copy(bank, rf, rl).unwrap();
        let data = pattern(77, cols);
        chip.write_open(bank, &data).unwrap();
        chip.precharge(bank).unwrap();
        // Last-activated subarray rows hold the exact data.
        let read_l = chip.read_row_direct(bank, rl).unwrap();
        assert_eq!(read_l, data);
        // The first subarray's raised rows hold ¬data on shared columns.
        let read_f = chip.read_row_direct(bank, rf).unwrap();
        let (sub_f, _) = chip.geometry().split_row(rf).unwrap();
        let upper = SubarrayId(sub_f.index().min(1));
        for c in 0..cols {
            if is_shared_col(upper, Col(c)) {
                assert_eq!(read_f[c], data[c].not(), "col {c}");
            }
        }
    }

    #[test]
    fn micron_chip_ignores_violating_sequences() {
        let cfg = crate::config::micron_modules()
            .into_iter()
            .next()
            .unwrap()
            .with_modeled_cols(32);
        let mut chip = Chip::new(cfg, ChipId(0));
        let out = chip
            .multi_act_copy(BankId(0), GlobalRow(1), GlobalRow(600))
            .unwrap();
        assert_eq!(out.kind, OutcomeKind::Ignored);
        let out = chip
            .multi_act_charge_share(BankId(0), GlobalRow(1), GlobalRow(600))
            .unwrap();
        assert_eq!(out.kind, OutcomeKind::Ignored);
    }

    #[test]
    fn samsung_chip_cannot_charge_share() {
        let cfg = table1()
            .into_iter()
            .find(|m| m.manufacturer == crate::config::Manufacturer::Samsung)
            .unwrap()
            .with_modeled_cols(32);
        let mut chip = Chip::new(cfg, ChipId(0));
        let out = chip
            .multi_act_charge_share(BankId(0), GlobalRow(1), GlobalRow(700))
            .unwrap();
        assert_eq!(out.kind, OutcomeKind::Unsupported);
        // But sequential NOT (1:1) works.
        let src = vec![Bit::One; 32];
        chip.write_row_direct(BankId(0), GlobalRow(1), &src)
            .unwrap();
        let out = chip
            .multi_act_copy(BankId(0), GlobalRow(1), GlobalRow(700))
            .unwrap();
        assert!(matches!(
            out.kind,
            OutcomeKind::Not {
                n_rf: 1,
                n_rl: 1,
                ..
            }
        ));
    }

    #[test]
    fn outcome_mean_success_reports_probabilities() {
        let mut chip = hynix_chip();
        let cols = chip.geometry().cols();
        let src = pattern(3, cols);
        chip.write_row_direct(BankId(0), GlobalRow(0), &src)
            .unwrap();
        let mut any = false;
        for l in 0..64usize {
            let out = chip
                .multi_act_copy(BankId(0), GlobalRow(0), GlobalRow(512 + l))
                .unwrap();
            chip.precharge(BankId(0)).unwrap();
            if let Some(p) = out.mean_success(CellRole::NotDst) {
                assert!(p > 0.5 && p <= 1.0, "{p}");
                any = true;
                break;
            }
        }
        assert!(any, "no NOT outcome found");
    }

    #[test]
    fn hammer_flips_bits_in_adjacent_rows_only() {
        let mut chip = hynix_chip();
        let cols = chip.geometry().cols();
        let bank = BankId(0);
        // Charge the neighborhood.
        for r in 95..=105usize {
            chip.write_row_direct(bank, GlobalRow(r), &vec![Bit::One; cols])
                .unwrap();
        }
        let flips = chip.hammer(bank, GlobalRow(100), 500_000).unwrap();
        assert_eq!(flips.len(), 2, "interior row has two victims");
        let total: usize = flips.iter().map(|(_, f)| *f).sum();
        assert!(total > 0, "500k activations must flip something");
        for (victim, _) in &flips {
            assert!(victim.index() == 99 || victim.index() == 101);
        }
        // Untouched row two away keeps its data.
        assert_eq!(
            chip.read_row_direct(bank, GlobalRow(103)).unwrap(),
            vec![Bit::One; cols]
        );
    }

    #[test]
    fn hammer_edge_row_has_single_victim() {
        let mut chip = hynix_chip();
        let flips = chip.hammer(BankId(0), GlobalRow(0), 200_000).unwrap();
        assert_eq!(flips.len(), 1, "subarray-edge row has one neighbor");
        assert_eq!(flips[0].0, GlobalRow(1));
        // Last row of subarray 0 likewise.
        let flips = chip.hammer(BankId(0), GlobalRow(511), 200_000).unwrap();
        assert_eq!(flips.len(), 1);
        assert_eq!(flips[0].0, GlobalRow(510));
    }

    #[test]
    fn hammer_low_activation_count_is_harmless() {
        let mut chip = hynix_chip();
        let cols = chip.geometry().cols();
        chip.write_row_direct(BankId(0), GlobalRow(9), &vec![Bit::One; cols])
            .unwrap();
        let flips = chip.hammer(BankId(0), GlobalRow(10), 1_000).unwrap();
        let total: usize = flips.iter().map(|(_, f)| *f).sum();
        assert_eq!(total, 0, "1k activations are far below threshold");
    }

    #[test]
    fn disturbance_counters_charge_on_every_activation_path() {
        let mut chip = hynix_chip();
        assert_eq!(chip.disturbance().lifetime_total(), 0);
        chip.activate(BankId(0), GlobalRow(3)).unwrap();
        chip.precharge(BankId(0)).unwrap();
        assert_eq!(chip.disturbance().lifetime_total(), 1);
        chip.frac(BankId(0), GlobalRow(5)).unwrap();
        assert_eq!(chip.disturbance().lifetime_total(), 2);
        chip.precharge(BankId(0)).unwrap();
        chip.hammer(BankId(0), GlobalRow(10), 1_000).unwrap();
        assert_eq!(chip.disturbance().lifetime_total(), 1_002);
        // Counting is identical across simulation fidelities.
        let mut fast = hynix_chip();
        let mut full = hynix_chip();
        fast.configure(crate::SimConfig::new().with_telemetry(Telemetry::Fast));
        full.configure(crate::SimConfig::new().with_telemetry(Telemetry::Full));
        for c in [&mut fast, &mut full] {
            c.multi_act_copy(BankId(0), GlobalRow(0), GlobalRow(520))
                .unwrap();
            c.precharge(BankId(0)).unwrap();
            c.multi_act_charge_share(BankId(0), GlobalRow(1), GlobalRow(521))
                .unwrap();
            c.precharge(BankId(0)).unwrap();
        }
        assert_eq!(fast.disturbance(), full.disturbance());
        assert!(fast.disturbance().lifetime_total() >= 2);
    }

    #[test]
    fn disturbance_policy_derates_past_threshold_and_mitigation_restores() {
        let policy = DisturbancePolicy {
            threshold: 8,
            derate: 3.0,
            mitigation_ns: 100.0,
        };
        // Two identical chips, one pre-disturbed past its threshold:
        // charge-share success probabilities must drop on the worn one,
        // and stored bits must change only through the sampled draws.
        let run = |pre_charge: u64, mitigate: bool| {
            let mut chip = hynix_chip();
            chip.set_disturbance_policy(Some(policy));
            if pre_charge > 0 {
                let (sub, _) = chip.geometry().split_row(GlobalRow(1)).unwrap();
                chip.charge_disturbance(BankId(0), sub, pre_charge);
                let (sub2, _) = chip.geometry().split_row(GlobalRow(521)).unwrap();
                chip.charge_disturbance(BankId(0), sub2, pre_charge);
                if mitigate {
                    for _ in 0..pre_charge / policy.threshold + 1 {
                        for zone in [
                            chip.disturb_zone(BankId(0), sub),
                            chip.disturb_zone(BankId(0), sub2),
                        ] {
                            chip.disturbance.mitigate(zone, &policy);
                        }
                    }
                }
            }
            let cols = chip.geometry().cols();
            chip.write_row_direct(BankId(0), GlobalRow(1), &pattern(3, cols))
                .unwrap();
            let out = chip
                .multi_act_charge_share(BankId(0), GlobalRow(1), GlobalRow(521))
                .unwrap();
            (
                out.mean_success(CellRole::Compute),
                out.mean_success(CellRole::Reference),
            )
        };
        let healthy = run(0, false);
        let worn = run(64, false);
        let mitigated = run(64, true);
        if let (Some(h), Some(w)) = (healthy.0, worn.0) {
            assert!(w < h, "disturbed compute success {w} !< healthy {h}");
        }
        if let (Some(h), Some(w)) = (healthy.1, worn.1) {
            assert!(w < h, "disturbed reference success {w} !< healthy {h}");
        }
        assert_eq!(mitigated, healthy, "mitigation restores the rates");
    }

    #[test]
    fn no_policy_keeps_success_rates_bit_identical() {
        let run = |with_counters: bool| {
            let mut chip = hynix_chip();
            if with_counters {
                // Heavy pre-disturbance with *no policy installed*:
                // counters advance, rates must not move.
                let (sub, _) = chip.geometry().split_row(GlobalRow(1)).unwrap();
                chip.charge_disturbance(BankId(0), sub, 1_000_000);
            }
            let cols = chip.geometry().cols();
            chip.write_row_direct(BankId(0), GlobalRow(1), &pattern(3, cols))
                .unwrap();
            chip.multi_act_charge_share(BankId(0), GlobalRow(1), GlobalRow(521))
                .unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn advance_time_leaks_toward_gnd() {
        let mut chip = hynix_chip();
        let cols = chip.geometry().cols();
        chip.write_row_direct(BankId(0), GlobalRow(9), &vec![Bit::One; cols])
            .unwrap();
        chip.configure(crate::SimConfig::new().with_temperature(Temperature::celsius(95.0)));
        chip.advance_time(1e6); // 1 ms hot
        let (sub, local) = chip.geometry().split_row(GlobalRow(9)).unwrap();
        let v = chip.banks[0].subarray(sub).unwrap().voltage(local, Col(0));
        assert!(v < 1.2, "leaked voltage {v}");
        assert!(v > 0.3, "too much leak {v}");
    }
}
