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
//! each resolved row, the intended value of each cell and the success
//! probability the reliability model assigned it. The probabilities
//! allow analytic (trials → ∞) success-rate analysis without
//! re-executing; the sampled values are what the cell array stores,
//! read back like any other row. A cell that fails to the complement
//! of its intended bit (charge-share results and majority re-senses)
//! is drawn only when something reads its row (see [`OpOutcome`]).

use crate::analog::{classify_margin, MarginClass};
use crate::bank::{Bank, OpenRows};
use crate::config::ModuleConfig;
use crate::error::{DramError, Result};
use crate::fault::{DisturbancePolicy, DisturbanceState};
use crate::geometry::Geometry;
use crate::math::normal_cdf;
use crate::packed::{lane_word, PackedBits, EVEN};
use crate::reliability::{
    LogicOp, NotEvent, ReliabilityModel, SIGMA_CELL_LOGIC, SIGMA_CELL_NOT, SIGMA_SA_LOGIC,
    SIGMA_SA_NOT, Z_ROWCLONE,
};
use crate::row_decoder::{MultiActivation, PatternKind, RowDecoder};
use crate::subarray::{RowMut, Subarray};
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
/// The masked variants skip the state and record updates for rows the
/// caller has promised to rewrite before they are next read — the
/// resolved cells (bits, predicted success, stochastic draws) are
/// unchanged, because each cell's model inputs and sample keys are
/// per-(row, col) and independent of the skipped cells' writes.
///
/// A resolved charge-share row does not draw at once: its draws wait
/// until something reads the row (see [`OpOutcome`]). A scope decides
/// which rows resolve, and so which rows owe draws; an unresolved row
/// owes none and keeps its staged values.
///
/// The `*FirstRow` scopes narrow one terminal further, to its first
/// raised row (the row a value-path caller reads back). The terminal's
/// other rows still compute their success probabilities into
/// [`RoleStats::count`]/[`RoleStats::sum_p`], in the same row-then-
/// column order, so [`OpOutcome::mean_success`] is bit-identical to the
/// whole-terminal scope; they owe no draws, keep their staged values
/// and emit no [`RowOutcome`].
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
    /// Number of cells recorded, resolved or not.
    pub count: usize,
    /// Sum of model-assigned success probabilities.
    pub sum_p: f64,
}

/// Per-role aggregates of an operation: every cell in
/// [`OpOutcome::rows`], plus, under a `*FirstRow` scope, the read
/// terminal's other rows, which are counted but not recorded (so
/// [`OpOutcome::mean_success`] covers the whole terminal).
///
/// Stays `pub` although no other crate names it: it is the type of
/// [`OpOutcome::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OutcomeStats {
    /// Aggregates indexed by `CellRole::index`.
    pub roles: [RoleStats; 7],
}

impl OutcomeStats {
    /// Aggregates for one role.
    #[inline]
    pub fn role(&self, role: CellRole) -> &RoleStats {
        &self.roles[role.index()]
    }
}

/// One row an operation resolved: which of its columns resolved and
/// in what role. The cells' success probabilities and intended values
/// sit in the owning [`OpOutcome`]'s `p` and `intended` from `offset`,
/// one per resolved column, columns ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowOutcome {
    /// Subarray of the row.
    pub subarray: SubarrayId,
    /// Row within the subarray.
    pub row: LocalRow,
    /// Role of each column parity: column `c` plays `roles[c % 2]`.
    /// Both entries are equal except on a multi-row NOT's destination
    /// rows, whose off-half columns re-sense by majority.
    pub roles: [CellRole; 2],
    /// First resolved column.
    pub start: usize,
    /// Column stride: 1 for a whole row, 2 for one column half.
    pub step: usize,
    /// Index of the row's first cell in [`OpOutcome::p`].
    pub offset: usize,
    /// Number of resolved cells.
    pub len: usize,
}

impl RowOutcome {
    /// The resolved columns, ascending.
    pub fn cols(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).map(move |i| self.start + i * self.step)
    }
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
/// One record per resolved row (`rows`, with its cells' `p` and
/// `intended`), plus per-role aggregates (`stats`). Under a `*FirstRow`
/// [`CsTerminal`] scope only the terminal's first row is recorded; its
/// other rows count toward `stats` alone.
///
/// An outcome carries what the model predicts, not what was drawn. The
/// cells of a charge share (both terminals and the off-half majority)
/// and of an in-subarray MAJ fail to the complement of their intended
/// bit, so their draws wait on the chip until something reads the row
/// (a read, a later activation raising it, a partial `WR`, leakage or
/// hammering); a full-row write drops them undrawn. Draws key on the
/// operation, row and column, so a row reads back the same bits
/// whenever it settles. NOT and RowClone destinations draw at once:
/// their failed value is the cell's old bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpOutcome {
    /// What happened.
    pub kind: OutcomeKind,
    /// Every resolved row in resolve order (empty for
    /// `Ignored`/`NoGlitch`/`Unsupported`).
    pub rows: Vec<RowOutcome>,
    /// Success probability of every recorded cell: row after row in
    /// `rows` order, columns ascending.
    pub p: Vec<f64>,
    /// The value a perfectly reliable chip would have stored in every
    /// recorded cell, in the order of `p`.
    pub intended: Vec<Bit>,
    /// Per-role aggregates.
    pub stats: OutcomeStats,
}

impl OpOutcome {
    /// An outcome with no affected cells.
    pub fn empty(kind: OutcomeKind) -> Self {
        OpOutcome {
            kind,
            rows: Vec::new(),
            p: Vec::new(),
            intended: Vec::new(),
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

    /// The success probabilities of row `r`'s cells, columns ascending.
    pub fn p_of(&self, r: &RowOutcome) -> &[f64] {
        &self.p[r.offset..r.offset + r.len]
    }

    /// The intended values of row `r`'s cells, columns ascending.
    pub fn intended_of(&self, r: &RowOutcome) -> &[Bit] {
        &self.intended[r.offset..r.offset + r.len]
    }
}

/// Builds an [`OpOutcome`] while an operation runs: its row records
/// and aggregates.
#[derive(Debug)]
struct Recorder {
    rows: Vec<RowOutcome>,
    p: Vec<f64>,
    intended: Vec<Bit>,
    stats: OutcomeStats,
    /// Cells drawn at once (NOT and RowClone destinations).
    #[cfg(test)]
    drawn: u64,
}

impl Recorder {
    /// A recorder for an operation that records exactly `cells` cells:
    /// the record vectors are allocated once, at that size.
    fn new(cells: usize) -> Self {
        Recorder {
            rows: Vec::new(),
            p: Vec::with_capacity(cells),
            intended: Vec::with_capacity(cells),
            stats: OutcomeStats::default(),
            #[cfg(test)]
            drawn: 0,
        }
    }

    /// Opens the record of one row resolving `len` cells from column
    /// `start` every `step` columns; its cells follow in column order.
    fn begin_row(
        &mut self,
        (subarray, row): (SubarrayId, LocalRow),
        roles: [CellRole; 2],
        (start, step): (usize, usize),
        len: usize,
    ) {
        self.rows.push(RowOutcome {
            subarray,
            row,
            roles,
            start,
            step,
            offset: self.p.len(),
            len,
        });
    }

    /// Records one cell of the open row.
    #[inline]
    fn push(&mut self, role: CellRole, intended: Bit, p: f64) {
        let s = &mut self.stats.roles[role.index()];
        s.count += 1;
        s.sum_p += p;
        self.p.push(p);
        self.intended.push(intended);
    }

    /// Draws, stores and records one resolved row of `cols` columns in
    /// column order, from column `start` every `step` columns. At each
    /// column `c`, `cell(c, stored)` gives the intended value, the value
    /// a failed draw leaves, and the success probability; `stored` is
    /// the cell's bit before the write. A row written whole is left at
    /// the rails.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn resolve_row(
        &mut self,
        row: &mut RowMut,
        cols: usize,
        sampler: &RowSampler,
        at: (SubarrayId, LocalRow),
        role: CellRole,
        (start, step): (usize, usize),
        mut cell: impl FnMut(usize, Bit) -> (Bit, Bit, f64),
    ) {
        let len = (cols - start).div_ceil(step);
        self.begin_row(at, [role; 2], (start, step), len);
        let mut sum_p = self.stats.roles[role.index()].sum_p;
        for c in (start..cols).step_by(step) {
            let (intended, failed, p) = cell(c, row.bit(c));
            let actual = if sampler.sample(c, p) {
                intended
            } else {
                failed
            };
            row.set(c, actual);
            sum_p += p;
            self.p.push(p);
            self.intended.push(intended);
        }
        if (start, step) == (0, 1) {
            row.at_rails();
        }
        let s = &mut self.stats.roles[role.index()];
        s.sum_p = sum_p;
        s.count += len;
        #[cfg(test)]
        {
            self.drawn += len as u64;
        }
    }

    /// Records one resolved row of `cols` columns, from column `start`
    /// (0 or 1) every `step` columns, whose draws wait in `pending`: at
    /// each column `c`, `cell(c)` gives the intended value and the
    /// success probability, and a failed draw leaves the complement.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn defer_row(
        &mut self,
        pending: &mut PendingRow,
        at: (SubarrayId, LocalRow),
        role: CellRole,
        cols: usize,
        (start, step): (usize, usize),
        mut cell: impl FnMut(usize) -> (Bit, f64),
    ) {
        debug_assert!(start < 2 && (step == 1 || step == 2));
        let len = (cols - start).div_ceil(step);
        self.begin_row(at, [role; 2], (start, step), len);
        let parities = if step == 1 { 0..2 } else { start..start + 1 };
        for half in &mut pending.halves[parities] {
            debug_assert!(!half.live, "a half defers once per operation");
            half.live = true;
            half.p.clear();
            half.intended.clear();
        }
        let mut sum_p = self.stats.roles[role.index()].sum_p;
        for c in (start..cols).step_by(step) {
            let (intended, p) = cell(c);
            let half = &mut pending.halves[c & 1];
            half.p.push(p);
            half.intended.push(intended);
            sum_p += p;
            self.p.push(p);
            self.intended.push(intended);
        }
        let s = &mut self.stats.roles[role.index()];
        s.sum_p = sum_p;
        s.count += len;
    }

    fn finish(self, kind: OutcomeKind) -> OpOutcome {
        debug_assert_eq!(
            self.p.len(),
            self.p.capacity(),
            "a kernel recorded a different number of cells than it reserved"
        );
        OpOutcome {
            kind,
            rows: self.rows,
            p: self.p,
            intended: self.intended,
            stats: self.stats,
        }
    }
}

/// One half of a row's pending draws: the cells of one column parity
/// (column `parity + 2 j` at index `j`), each with its success
/// probability and intended value.
#[derive(Debug, Clone, Default)]
struct PendingHalf {
    live: bool,
    p: Vec<f64>,
    intended: Vec<Bit>,
}

/// The draws one row owes to the operation `op` that resolved it. The
/// row's cells keep their pre-operation voltages until it settles.
#[derive(Debug, Clone, Default)]
struct PendingRow {
    op: u64,
    halves: [PendingHalf; 2],
}

/// Every pending row of a chip, by zone (`(bank, subarray)` in
/// bank-major order, as the disturbance counters) and row: a slot holds
/// a row's draws exactly while it has some. A zone's slots are
/// allocated on its first deferral; a row's buffers return to `free`
/// when it settles or is overwritten, so the chip keeps as many as rows
/// were ever pending at once.
#[derive(Debug, Clone, Default)]
struct PendingDraws {
    zones: Vec<(usize, Vec<Option<Box<PendingRow>>>)>,
    /// Boxed like the slots, so a row's buffers move between a slot
    /// and this list without a new allocation.
    #[allow(clippy::vec_box)]
    free: Vec<Box<PendingRow>>,
    /// Rows with pending draws.
    live: usize,
}

impl PendingDraws {
    fn zone(geom: &Geometry, (bank, sub): (BankId, SubarrayId)) -> usize {
        bank.index() * geom.subarrays_per_bank() + sub.index()
    }

    /// Takes row `row`'s pending draws, if it has any.
    fn take(
        &mut self,
        geom: &Geometry,
        at: (BankId, SubarrayId),
        row: LocalRow,
    ) -> Option<Box<PendingRow>> {
        let zone = Self::zone(geom, at);
        let (_, slots) = self.zones.iter_mut().find(|(z, _)| *z == zone)?;
        let pend = slots[row.index()].take()?;
        self.live -= 1;
        Some(pend)
    }

    /// Keeps a taken row's buffers for the next deferral.
    fn recycle(&mut self, pend: Box<PendingRow>) {
        self.free.push(pend);
    }

    /// The pending slot operation `op` defers row `row` of `at` into:
    /// the row must have settled before `op` raised it.
    fn slot(
        &mut self,
        geom: &Geometry,
        at: (BankId, SubarrayId),
        row: LocalRow,
        op: u64,
    ) -> &mut PendingRow {
        let zone = Self::zone(geom, at);
        let i = match self.zones.iter().position(|(z, _)| *z == zone) {
            Some(i) => i,
            None => {
                let slots = (0..geom.rows_per_subarray()).map(|_| None).collect();
                self.zones.push((zone, slots));
                self.zones.len() - 1
            }
        };
        let slot = &mut self.zones[i].1[row.index()];
        if slot.is_none() {
            let mut pend = self.free.pop().unwrap_or_default();
            pend.op = op;
            pend.halves.iter_mut().for_each(|h| h.live = false);
            *slot = Some(pend);
            self.live += 1;
        }
        let pend = slot.as_deref_mut().expect("just filled");
        debug_assert_eq!(
            pend.op, op,
            "a row settles before another operation defers it"
        );
        pend
    }

    /// Every `(bank, subarray, row)` with pending draws.
    fn live_rows(&self, geom: &Geometry) -> Vec<(BankId, SubarrayId, LocalRow)> {
        let per_bank = geom.subarrays_per_bank();
        let mut out = Vec::with_capacity(self.live);
        for (zone, slots) in &self.zones {
            let at = (BankId(zone / per_bank), SubarrayId(zone % per_bank));
            let rows = slots.iter().enumerate().filter(|(_, s)| s.is_some());
            out.extend(rows.map(|(row, _)| (at.0, at.1, LocalRow(row))));
        }
        out
    }
}

/// Keys address one activation pair `(bank, first row, last row)` or
/// one cell row `(bank, subarray, row)`.
type MemoKey = (u32, u32, u32);

/// Largest number of entries any memo map holds before being dropped
/// wholesale (same defensive idiom as [`VariationCache`]).
const MEMO_CAP: usize = 4096;

/// One raised row of one terminal side of a charge-share activation:
/// the column-independent head of each of its z-scores, its
/// cell-variation draws, and its shared-column CDF table, filled entry
/// by entry the first time a charge share reads one (see [`CsSide`]).
///
/// Entry `[3 * n_shared * family + 3 * (col / 2) + mm_idx]` is
/// `normal_cdf(z)` of shared column `col`, where `family` is 1 for
/// AND- and 0 for OR-family constants and `mm_idx` indexes the three
/// values the neighbour-mismatch fraction can take (0, ½, 1). `z` is
/// `pre − cpl·mm + dist − tterm + σ_cell·lz[col] + σ_sa·sa[col]`, added
/// left to right; its first four terms are `head[family][mm_idx]`.
#[derive(Debug, Clone)]
struct CsRow {
    head: [[f64; 3]; 2],
    lz: Arc<[f64]>,
    table: Box<[f64]>,
}

/// The rows of one terminal side, empty when the model has no prefix
/// for the side's `N` (both families have one exactly when `N` is 2,
/// 4, 8 or 16). An entry fills in every row at once, so one flag per
/// entry says which entries every row's table holds.
#[derive(Debug, Clone, Default)]
struct CsSide {
    rows: Vec<CsRow>,
    filled: Vec<bool>,
}

impl CsSide {
    /// Fills, in every row's table, each entry `idx` names that is not
    /// yet filled. `idx[j]` is shared column `shared_start + 2 j`'s
    /// entry; `sa` holds the shared stripe's sense-amp draws.
    fn fill(&mut self, idx: &[u32], n_shared: usize, shared_start: usize, sa: &[f64]) {
        for (j, i) in idx.iter().enumerate() {
            let i = *i as usize;
            if self.filled[i] {
                continue;
            }
            self.filled[i] = true;
            let c = shared_start + 2 * j;
            for r in &mut self.rows {
                let z = r.head[i / (3 * n_shared)][i % 3]
                    + SIGMA_CELL_LOGIC * r.lz[c]
                    + SIGMA_SA_LOGIC * sa[c];
                r.table[i] = normal_cdf(z);
            }
        }
    }
}

/// Charge-share tables for one `(bank, r_ref, r_com)` activation: the
/// shared stripe's sense-amp draws, then the compute side and the
/// reference side, each built the first time a charge share resolves
/// it.
#[derive(Debug, Clone)]
struct CsTables {
    sa: Arc<[f64]>,
    sides: [Option<CsSide>; 2],
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

/// Per-column working arrays of the gate kernels, owned by the chip and
/// reused across operations (each kernel overwrites every entry it
/// later reads). Taken out of the chip for the length of one operation.
/// Arrays over one column half are indexed by `col / 2`.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// One column half's raised-row voltage sums and counts of raised
    /// rows holding a one (see [`gather_half`]): reference / compute
    /// side. Counts run to 32 per 64-column word of the row.
    sum_ref: Vec<f64>,
    sum_com: Vec<f64>,
    count_ref: Vec<u8>,
    count_com: Vec<u8>,
    /// The compute side's neighbour mismatches: bit `2 (j % 32)` of
    /// word `j / 32` is set where some raised row differs between
    /// shared columns `j` and `j + 1` of the half.
    diffs: Vec<u64>,
    /// Charge-share sensing outcome per shared column (see [`cs_sel`]).
    sel: Vec<u8>,
    /// One terminal's margin multiplier and index into its rows' CDF
    /// tables per shared column.
    term_mult: Vec<f64>,
    term_idx: Vec<u32>,
    /// Majority value and margin multiplier per column, by `col`.
    maj: Vec<Bit>,
    mult: Vec<f64>,
    /// Source-row bits of a copy.
    src: Vec<u64>,
}

impl Scratch {
    fn fit(&mut self, cols: usize) {
        if self.maj.len() != cols {
            let half = cols.div_ceil(2);
            let words = cols.div_ceil(64);
            *self = Scratch {
                sum_ref: vec![0.0; half],
                sum_com: vec![0.0; half],
                count_ref: vec![0; 32 * words],
                count_com: vec![0; 32 * words],
                diffs: vec![0; words],
                sel: vec![0; half],
                term_mult: vec![0.0; half],
                term_idx: vec![0; half],
                maj: vec![Bit::Zero; cols],
                mult: vec![0.0; cols],
                src: Vec::with_capacity(cols.div_ceil(64)),
            };
        }
    }

    /// Majority value and margin multiplier of every column of parity
    /// `start` below `cols`, from the counts of ones among the `n`
    /// raised rows gathered into `count_ref`, into `maj` and `mult`.
    fn votes(&mut self, n: usize, start: usize, cols: usize) {
        for c in (start..cols).step_by(2) {
            let v = usize::from(self.count_ref[c / 2]);
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

/// Bit `c` of a row's packed bits.
#[inline]
fn plane_bit(words: &[u64], c: usize) -> Bit {
    Bit::from(words[c / 64] >> (c % 64) & 1 == 1)
}

/// A row's `Frac` voltages, shared with every row that stores them,
/// and their thresholded bits.
#[derive(Debug, Clone)]
struct FracRow {
    bits: Box<[u64]>,
    volts: Arc<[f32]>,
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
    cache: VariationCache,
    memo: KernelMemo,
    /// `Frac` voltages by `(bank, subarray, row)`: a pure function of
    /// the row's frac-level factors and the analog parameters, computed
    /// on a row's first `Frac` and copied on every later one. They do
    /// not depend on the temperature, so a temperature change keeps
    /// them.
    frac_rows: HashMap<MemoKey, FracRow>,
    disturbance: DisturbanceState,
    disturb_policy: Option<DisturbancePolicy>,
    scratch: Scratch,
    pending: PendingDraws,
    /// Cells drawn so far, at once or on settling.
    #[cfg(test)]
    drawn: u64,
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
                    model.analog().vdd,
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
            cache: VariationCache::new(),
            memo: KernelMemo::default(),
            frac_rows: HashMap::new(),
            disturbance: DisturbanceState::new(geom.banks() * geom.subarrays_per_bank()),
            disturb_policy: None,
            scratch: Scratch::default(),
            pending: PendingDraws::default(),
            #[cfg(test)]
            drawn: 0,
        }
    }

    /// The current simulation configuration (the temperature).
    pub fn sim_config(&self) -> crate::SimConfig {
        crate::SimConfig::new().with_temperature(self.temperature)
    }

    /// Applies a [`crate::SimConfig`]: sets the chip temperature.
    pub fn configure(&mut self, cfg: crate::SimConfig) {
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
    // Pending draws
    // -----------------------------------------------------------------

    /// Draws and stores row `row`'s pending cells, if it has any: each
    /// cell keeps its intended value with its success probability and
    /// fails to the complement, drawn from the sampler of the operation
    /// that resolved it, so the row holds exactly what an immediate
    /// draw would have stored.
    fn settle(&mut self, bank: BankId, sub: SubarrayId, row: LocalRow) {
        let Some(mut pend) = self.pending.take(&self.geom, (bank, sub), row) else {
            return;
        };
        let key = ((sub.index() as u64) << 32) | row.index() as u64;
        let sampler = self.model.variation().row_sampler(pend.op, key);
        let cols = self.geom.cols();
        let mut cells = self.banks[bank.index()].subarray_mut(sub).row_mut(row);
        let mut whole = true;
        for (parity, half) in pend.halves.iter_mut().enumerate() {
            whole &= half.live && half.p.len() == (cols - parity).div_ceil(2);
            if !half.live {
                continue;
            }
            for (j, (p, intended)) in half.p.iter().zip(&half.intended).enumerate() {
                let c = parity + 2 * j;
                let actual = if sampler.sample(c, *p) {
                    *intended
                } else {
                    intended.not()
                };
                cells.set(c, actual);
            }
            #[cfg(test)]
            {
                self.drawn += half.p.len() as u64;
            }
        }
        if whole {
            cells.at_rails();
        }
        self.pending.recycle(pend);
    }

    /// Settles every row of `rows` in `sub`.
    fn settle_rows(&mut self, bank: BankId, sub: SubarrayId, rows: &[LocalRow]) {
        if self.pending.live > 0 {
            for row in rows {
                self.settle(bank, sub, *row);
            }
        }
    }

    /// Drops row `row`'s pending draws undrawn: a full-row write is
    /// about to replace every cell they would set.
    fn discard_pending(&mut self, bank: BankId, sub: SubarrayId, row: LocalRow) {
        if self.pending.live > 0 {
            if let Some(pend) = self.pending.take(&self.geom, (bank, sub), row) {
                self.pending.recycle(pend);
            }
        }
    }

    /// Settles every row with pending draws.
    fn settle_all(&mut self) {
        if self.pending.live > 0 {
            for (bank, sub, row) in self.pending.live_rows(&self.geom) {
                self.settle(bank, sub, row);
            }
        }
    }

    /// Ends an operation's record (and counts the cells it drew at
    /// once).
    fn finish(&mut self, rec: Recorder, kind: OutcomeKind) -> OpOutcome {
        #[cfg(test)]
        {
            self.drawn += rec.drawn;
        }
        rec.finish(kind)
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
        self.settle(bank, sub, local);
        let bits = {
            let b = self.bank_mut_ref(bank)?;
            b.subarray_mut(sub).read_bits(local)
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
        self.geom.check_bank(bank)?;
        self.discard_pending(bank, sub, local);
        let b = self.bank_mut_ref(bank)?;
        b.subarray_mut(sub).write_bits(local, bits);
        Ok(())
    }

    /// Reads one shared-column vector of `row` — every
    /// [`SHARED_COL_STRIDE`]-th column starting at `start` — packed 64
    /// lanes per `u64` word (LSB first), through a proper
    /// activate/read/precharge sequence.
    ///
    /// This is the fast-path read: the lanes are taken from the row's
    /// bit-plane a word at a time, and no per-cell `Vec<Bit>` is
    /// materialized.
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
        self.settle(bank, sub, local);
        let cols = self.geom.cols();
        let lanes = if start < cols {
            (cols - start).div_ceil(SHARED_COL_STRIDE)
        } else {
            0
        };
        let mut words = vec![0u64; lanes.div_ceil(64)];
        let b = self.bank_ref(bank)?;
        if let Some(r) = b.subarray(sub).and_then(|s| s.row(local)) {
            for (m, w) in words.iter_mut().enumerate() {
                *w = lane_word(r.bits(), m, start);
            }
        }
        self.precharge(bank)?;
        Ok(words)
    }

    /// Host-side direct row read (no state checks). Like every read, it
    /// settles the row's pending draws first.
    pub fn read_row_direct(&mut self, bank: BankId, row: GlobalRow) -> Result<Vec<Bit>> {
        let (sub, local) = self.geom.split_row(row)?;
        self.geom.check_bank(bank)?;
        self.settle(bank, sub, local);
        let b = self.bank_ref(bank)?;
        Ok(match b.subarray(sub) {
            Some(s) => s.read_bits(local),
            None => vec![Bit::Zero; self.geom.cols()],
        })
    }

    /// `WR` overdrive to an *open* bank: every raised row in the
    /// last-activated subarray stores `data` exactly, a copy of its
    /// words that leaves the row at the rails; raised rows in a
    /// neighboring subarray store `¬data` on the shared column half, a
    /// masked merge of the inverted words (§4.2's subarray-mapping
    /// methodology relies on this). A row written whole drops its
    /// pending draws; a neighbour row, written on one half, settles
    /// first.
    pub fn write_open(&mut self, bank: BankId, data: &PackedBits) -> Result<()> {
        if data.len() != self.geom.cols() {
            return Err(DramError::WidthMismatch {
                expected: self.geom.cols(),
                got: data.len(),
            });
        }
        let Some(open) = self.bank_mut_ref(bank)?.close() else {
            return Err(DramError::IllegalCommand {
                detail: "WR while bank precharged".into(),
            });
        };
        let last = open.last_subarray;
        for (sub, rows) in &open.groups {
            for row in rows {
                if *sub == last {
                    self.discard_pending(bank, *sub, *row);
                } else {
                    self.settle(bank, *sub, *row);
                }
            }
        }
        let b = &mut self.banks[bank.index()];
        for (sub, rows) in &open.groups {
            let upper = SubarrayId(sub.index().min(last.index()));
            // Shared columns of the pair have parity `upper + 1`; the
            // non-shared half of the other subarray keeps its sensed
            // values (not driven by this WR).
            let shared_start = (upper.index() + 1) % 2;
            let sa = b.subarray_mut(*sub);
            for row in rows {
                if *sub == last {
                    sa.write_words(*row, data.words());
                } else {
                    sa.write_inverted_half(*row, data.words(), shared_start);
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
        self.discard_pending(bank, sub, local);
        let fr = &self.frac_rows[&key];
        let mut rec = Recorder::new(cols);
        self.banks[bank.index()]
            .subarray_mut(sub)
            .write_volts(local, &fr.bits, &fr.volts);
        // VDD/2 reads as 0 by threshold, so intended is Zero.
        rec.begin_row((sub, local), [CellRole::Frac; 2], (0, 1), cols);
        rec.p.resize(cols, 1.0);
        rec.intended.resize(cols, Bit::Zero);
        // Every cell succeeds with p = 1, so the sum is the count exactly.
        rec.stats.roles[CellRole::Frac.index()] = RoleStats {
            count: cols,
            sum_p: cols as f64,
        };
        self.banks[bank.index()].close();
        Ok(rec.finish(OutcomeKind::Frac))
    }

    /// The `Frac` voltages of one row: each cell stores `(frac_level ×
    /// factor).clamp(0, 1) × vdd`; and their thresholded bits.
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
        let volts: Arc<[f32]> = volts.iter().map(|&v| v as f32).collect();
        let mut bits = PackedBits::zeros(volts.len());
        for (c, v) in volts.iter().enumerate() {
            bits.set(c, f64::from(*v) > vdd / 2.0);
        }
        FracRow {
            bits: bits.words().into(),
            volts,
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

    /// Builds the terminal sides of one charge-share activation pair
    /// that `need` asks for (compute, then reference) and the memo
    /// lacks: each raised row's z-score heads and cell-variation draws,
    /// and an unfilled CDF table ([`CsRow`]). The data-dependent margin
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
        need: [bool; 2],
    ) {
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
        if !self.memo.cs.contains_key(&key) {
            if self.memo.cs.len() >= MEMO_CAP {
                self.memo.cs.clear();
            }
            let sa = self.cache.sa_z(self.model.variation(), bank, stripe, cols);
            let tables = CsTables {
                sa,
                sides: [None, None],
            };
            self.memo.cs.insert(key, tables);
        }
        let sides = [
            (sub_com, second_rows, [LogicOp::Or, LogicOp::And], false),
            (sub_ref, first_rows, [LogicOp::Nor, LogicOp::Nand], true),
        ];
        for (side, (sub, rows, ops, invert)) in sides.into_iter().enumerate() {
            if !need[side] || self.memo.cs[&key].sides[side].is_some() {
                continue;
            }
            let prefixes = ops.map(|op| self.model.logic_z_prefix(op, rows.len()));
            let mut built = CsSide {
                rows: Vec::new(),
                filled: vec![false; 6 * n_shared],
            };
            if let [Some(pre_or), Some(pre_and)] = prefixes {
                for row in rows {
                    let own_dist = dist_to_stripe(*row, rows_per_sub, sub, upper);
                    let head = [(ops[0], pre_or), (ops[1], pre_and)].map(|(op, pre)| {
                        let dist = if invert {
                            ReliabilityModel::logic_dist_term(op, com_dist_addr, own_dist)
                        } else {
                            ReliabilityModel::logic_dist_term(op, own_dist, ref_dist_addr)
                        };
                        let cpl = ReliabilityModel::coupling(op);
                        [0.0f64, 0.5, 1.0]
                            .map(|mm_v| pre - cpl * mm_v.clamp(0.0, 1.0) + dist - tterm)
                    });
                    let lz = self
                        .cache
                        .logic_z(self.model.variation(), bank, sub, *row, cols);
                    built.rows.push(CsRow {
                        head,
                        lz,
                        table: vec![0.0; 6 * n_shared].into(),
                    });
                }
            }
            if let Some(t) = self.memo.cs.get_mut(&key) {
                t.sides[side] = Some(built);
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
    ///
    /// Every row the copy reads or writes settles its pending draws
    /// first (see [`OpOutcome`]); a skipped source row keeps them.
    /// The copy's own destinations draw at once.
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
        let cols = self.geom.cols();

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
                self.settle_rows(bank, sub_f, &rows);
                // RowClone: every raised row except rf receives rf.
                let mut src = self.source_bits(bank, sub_f, loc_f);
                let dsts = rows.iter().filter(|r| **r != loc_f).count();
                let mut rec = Recorder::new(dsts * cols);
                for row in &rows {
                    if *row == loc_f {
                        continue;
                    }
                    let cdf = self.memo_clone_cdf(bank, sub_f, *row);
                    let sampler = self.row_sampler(op, sub_f, *row);
                    let mut cells = self.banks[bank.index()].subarray_mut(sub_f).row_mut(*row);
                    rec.resolve_row(
                        &mut cells,
                        cols,
                        &sampler,
                        (sub_f, *row),
                        CellRole::CloneDst,
                        (0, 1),
                        |c, old| (plane_bit(&src, c), old, cdf[c]),
                    );
                }
                self.scratch.src = std::mem::take(&mut src);
                let n = rows.len();
                self.banks[bank.index()].set_open(OpenRows {
                    groups: vec![(sub_f, rows)],
                    last_subarray: sub_f,
                });
                Ok(self.finish(rec, OutcomeKind::InSubarray { rows: n }))
            }
            MultiActivation::CrossSubarray {
                first_rows,
                second_rows,
                kind,
                ..
            } => {
                self.charge_disturbance(bank, sub_f, first_rows.len() as u64);
                self.charge_disturbance(bank, sub_l, second_rows.len() as u64);
                if need.resolves_reference() {
                    self.settle_rows(bank, sub_f, &first_rows);
                } else {
                    self.settle_rows(bank, sub_f, &[loc_f]);
                }
                self.settle_rows(bank, sub_l, &second_rows);
                let upper = SubarrayId(sub_f.index().min(sub_l.index()));
                let mut src = self.source_bits(bank, sub_f, loc_f);
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
                let mut rec = Recorder::new(dst_cells + src_cells);
                let off_start = 1 - shared_start;
                let mut sc = std::mem::take(&mut self.scratch);
                sc.fit(cols);
                if n_dst > 1 {
                    let sa = self.banks[bank.index()].subarray(sub_l);
                    let (sums, counts) = (&mut sc.sum_ref, &mut sc.count_ref);
                    gather_half(sa, &second_rows, off_start, cols, sums, counts, None);
                }
                for (ri, row) in second_rows.iter().enumerate() {
                    let dst_tab = &dst_tabs[ri];
                    let sampler = self.row_sampler(op, sub_l, *row);
                    if n_dst == 1 {
                        let mut cells = self.banks[bank.index()].subarray_mut(sub_l).row_mut(*row);
                        rec.resolve_row(
                            &mut cells,
                            cols,
                            &sampler,
                            (sub_l, *row),
                            CellRole::NotDst,
                            (shared_start, 2),
                            |c, old| (plane_bit(&src, c).not(), old, dst_tab[c]),
                        );
                        continue;
                    }
                    // Off-column majority votes read the rows' *current*
                    // bits (earlier destination rows may already have
                    // re-sensed): the counts gathered once above, each
                    // moved by every resolved row's change of its own
                    // bit (the decoder's raised rows are distinct).
                    sc.votes(n_dst, off_start, cols);
                    let maj_cdf = self.memo_maj_cdf(bank, sub_l, *row);
                    let mut roles = [CellRole::OffMaj; 2];
                    roles[shared_start] = CellRole::NotDst;
                    rec.begin_row((sub_l, *row), roles, (0, 1), cols);
                    let mut cells = self.banks[bank.index()].subarray_mut(sub_l).row_mut(*row);
                    for c in 0..cols {
                        let old = cells.bit(c);
                        let (role, intended, failed, p) = if c % 2 == shared_start {
                            let not_src = plane_bit(&src, c).not();
                            (CellRole::NotDst, not_src, old, dst_tab[c])
                        } else {
                            let p = (sc.mult[c] * maj_cdf[c]).clamp(0.0, 1.0);
                            (CellRole::OffMaj, sc.maj[c], sc.maj[c].not(), p)
                        };
                        let actual = if sampler.sample(c, p) {
                            intended
                        } else {
                            failed
                        };
                        cells.set(c, actual);
                        if c % 2 == off_start {
                            let n = &mut sc.count_ref[c / 2];
                            *n = *n + u8::from(actual.as_bool()) - u8::from(old.as_bool());
                        }
                        rec.push(role, intended, p);
                    }
                    cells.at_rails();
                    #[cfg(test)]
                    {
                        rec.drawn += cols as u64;
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
                    let mut cells = self.banks[bank.index()].subarray_mut(sub_f).row_mut(*row);
                    rec.resolve_row(
                        &mut cells,
                        cols,
                        &sampler,
                        (sub_f, *row),
                        CellRole::SrcCopy,
                        (0, 1),
                        |c, old| (plane_bit(&src, c), old, src_tab[c]),
                    );
                }
                self.scratch.src = std::mem::take(&mut src);

                let shape = (first_rows.len(), second_rows.len());
                self.banks[bank.index()].set_open(OpenRows {
                    groups: vec![(sub_f, first_rows), (sub_l, second_rows)],
                    last_subarray: sub_l,
                });
                Ok(self.finish(
                    rec,
                    OutcomeKind::Not {
                        n_rf: shape.0,
                        n_rl: shape.1,
                        pattern: kind,
                    },
                ))
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
        let cols = self.geom.cols();
        let sa = self.banks[bank.index()].subarray(sub);
        gather_half(
            sa,
            rows,
            start,
            cols,
            &mut sc.sum_ref,
            &mut sc.count_ref,
            None,
        );
        sc.votes(rows.len(), start, cols);
    }

    /// Copies the bits of source row `loc` into the scratch source
    /// buffer (an unallocated row reads as zeros).
    fn source_bits(&mut self, bank: BankId, sub: SubarrayId, loc: LocalRow) -> Vec<u64> {
        let mut src = std::mem::take(&mut self.scratch.src);
        src.clear();
        match self.banks[bank.index()].subarray_mut(sub).row(loc) {
            Some(row) => src.extend_from_slice(row.bits()),
            None => src.resize(self.geom.cols().div_ceil(64), 0),
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
    /// `Compute`/`Reference` skip voltage and record updates for the
    /// other terminal's rows and for the non-shared majority half; the
    /// `*FirstRow` scopes also skip the read terminal's rows after its
    /// first raised row, which then only add their success
    /// probabilities to the outcome's `count`/`sum_p` (so
    /// `mean_success` is bit-identical to the whole terminal's). Resolved
    /// cells draw and store exactly what [`Chip::multi_act_charge_share`]
    /// would, when their row settles.
    ///
    /// Every raised row settles its pending draws before the charge
    /// share gathers it. The resolved rows then owe their own draws
    /// (see [`OpOutcome`]).
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
                let mut rec = Recorder::new(if n >= 2 { n * cols } else { 0 });
                if n >= 2 {
                    self.settle_rows(bank, sub_ref, &rows);
                    let mut sc = std::mem::take(&mut self.scratch);
                    sc.fit(cols);
                    for start in [0, 1] {
                        self.majority_votes(bank, sub_ref, &rows, start, &mut sc);
                    }
                    for row in &rows {
                        let cdf = self.memo_maj_cdf(bank, sub_ref, *row);
                        let (maj, mult) = (&sc.maj, &sc.mult);
                        rec.defer_row(
                            self.pending.slot(&self.geom, (bank, sub_ref), *row, op),
                            (sub_ref, *row),
                            CellRole::OffMaj,
                            cols,
                            (0, 1),
                            |c| {
                                let mut p = (mult[c] * cdf[c]).clamp(0.0, 1.0);
                                if dexp != 1.0 {
                                    p = p.powf(dexp);
                                }
                                (maj[c], p)
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
                Ok(self.finish(rec, OutcomeKind::InSubarray { rows: nrows }))
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
                self.settle_rows(bank, sub_ref, &first_rows);
                self.settle_rows(bank, sub_com, &second_rows);
                let upper = SubarrayId(sub_ref.index().min(sub_com.index()));
                let n_ref = first_rows.len();
                let n_com = second_rows.len();
                let analog = *self.model.analog();
                let (_, loc_ref) = self.geom.split_row(r_ref)?;
                let (_, loc_com) = self.geom.split_row(r_com)?;
                let shared_start = (upper.index() + 1) % 2;
                // --- Gather (SoA): per-column voltage sums of the shared
                // half, and the compute side's neighbour mismatches,
                // from the raised rows' bit-planes. The sensing model is
                // computed from these flat arrays, indexed by `col / 2`.
                let mut sc = std::mem::take(&mut self.scratch);
                sc.fit(cols);
                let b = &self.banks[bank.index()];
                let (sa_ref, sa_com) = (b.subarray(sub_ref), b.subarray(sub_com));
                let (sums, counts) = (&mut sc.sum_ref, &mut sc.count_ref);
                gather_half(sa_ref, &first_rows, shared_start, cols, sums, counts, None);
                let (sums, counts) = (&mut sc.sum_com, &mut sc.count_com);
                let diffs = Some(&mut sc.diffs[..]);
                gather_half(
                    sa_com,
                    &second_rows,
                    shared_start,
                    cols,
                    sums,
                    counts,
                    diffs,
                );

                // --- Per-column sensing outcome on the shared half:
                // differential, margin class, family, and the index of
                // the coupling-mismatch table (whether some raised row
                // differs from each of the two same-half neighbours: 0,
                // ½ or 1 mismatched).
                // The differential and the mean reference level replace
                // the sums in place first, in a loop that vectorizes.
                let n_shared = (cols - shared_start).div_ceil(2);
                let (diffs, ref_means) = (&mut sc.sum_com[..n_shared], &mut sc.sum_ref[..n_shared]);
                for (com, rf) in diffs.iter_mut().zip(ref_means.iter_mut()) {
                    *com =
                        analog.bitline_from_sum(*com, n_com) - analog.bitline_from_sum(*rf, n_ref);
                    *rf = *rf / (n_ref.max(1) as f64) / vdd;
                }
                let differs = |j: usize| sc.diffs[j / 32] >> (2 * (j % 32)) & 1 == 1;
                let mut and_family = false;
                let cell_unit = analog.cell_unit(n_com.max(n_ref));
                for (j, sel) in sc.sel[..n_shared].iter_mut().enumerate() {
                    let (diff, ref_mean) = (diffs[j], ref_means[j]);
                    let diff_cells = diff / cell_unit;
                    let fam_and = ref_mean > 0.5;
                    and_family |= fam_and;
                    let mm_idx = mismatch_index(j, n_shared, differs);
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
                let mut rec = Recorder::new(cells);
                let key = (
                    bank.index() as u32,
                    r_ref.index() as u32,
                    r_com.index() as u32,
                );
                let wanted = [need.resolves_compute(), need.resolves_reference()];
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

                // Result rows on both terminals share one kernel shape:
                // p = margin multiplier × Φ(z), Φ(z) from the memoized
                // per-row table of the column's family and mismatch.
                let first_only = need.first_row_only();
                let terminals = [
                    (
                        need.resolves_compute(),
                        sub_com,
                        &second_rows,
                        0,
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
                        1,
                        (LogicOp::Nand, LogicOp::Nor),
                        n_ref,
                        true,
                        CellRole::Reference,
                        dexp_ref,
                    ),
                ];
                for (resolve, sub, rows, side, ops, n_side, invert, role, dexp) in terminals {
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
                    // Fill the table entries this gate reads (once per
                    // activation pair, temperature and entry).
                    let tables = self.memo.cs.get_mut(&key).expect("built above");
                    let built = tables.sides[side].as_mut().expect("built above");
                    built.fill(idx, n_shared, shared_start, &tables.sa);
                    let tabs = &built.rows;
                    for (row_i, row) in rows.iter().enumerate() {
                        let cdf = tabs.get(row_i).map(|t| &*t.table);
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
                        let pending = self.pending.slot(&self.geom, (bank, sub), *row, op);
                        let at = (sub, *row);
                        rec.defer_row(pending, at, role, cols, (shared_start, 2), |c| {
                            let intended = Bit::from((sel[c / 2] >> 5 == 1) != invert);
                            (intended, p_at(c / 2))
                        });
                    }
                }

                // Non-shared half: each side majority-resolves against
                // its other (precharged) stripe, from the pre-operation
                // values (the terminal rows' draws wait, and cover only
                // the shared columns).
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
                    let (sums, counts) = (&mut sc.sum_ref, &mut sc.count_ref);
                    gather_half(sa, rows, off_start, cols, sums, counts, None);
                    for c in (off_start..cols).step_by(2) {
                        let (sum, count) = (sc.sum_ref[c / 2], sc.count_ref[c / 2]);
                        sc.maj[c] = Bit::from(2 * usize::from(count) > n_side);
                        sc.mult[c] = ReliabilityModel::maj_multiplier(
                            (sum / vdd - n_side as f64 / 2.0).abs(),
                        );
                    }
                    for row in rows.iter() {
                        let cdf = self.memo_maj_cdf(bank, sub, *row);
                        let (maj, mult) = (&sc.maj, &sc.mult);
                        rec.defer_row(
                            self.pending.slot(&self.geom, (bank, sub), *row, op),
                            (sub, *row),
                            CellRole::OffMaj,
                            cols,
                            (off_start, 2),
                            |c| {
                                let mut p = (mult[c] * cdf[c]).clamp(0.0, 1.0);
                                if dexp != 1.0 {
                                    p = p.powf(dexp);
                                }
                                (maj[c], p)
                            },
                        );
                    }
                }
                self.scratch = sc;

                self.banks[bank.index()].set_open(OpenRows {
                    groups: vec![(sub_ref, first_rows), (sub_com, second_rows)],
                    last_subarray: sub_com,
                });
                Ok(self.finish(
                    rec,
                    OutcomeKind::Logic {
                        n_ref,
                        n_com,
                        and_family,
                    },
                ))
            }
        }
    }

    /// Applies retention leakage for `dt_ns` nanoseconds at the current
    /// temperature (τ ≈ 64 ms at 50 °C, halving every 10 °C). Every
    /// pending draw settles first, so cells leak from their drawn value.
    pub fn advance_time(&mut self, dt_ns: f64) {
        self.settle_all();
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
    /// Each victim settles its pending draws first.
    pub fn hammer(
        &mut self,
        bank: BankId,
        row: GlobalRow,
        activations: u64,
    ) -> Result<Vec<(GlobalRow, usize)>> {
        let (sub, local) = self.geom.split_row(row)?;
        self.geom.check_bank(bank)?;
        self.charge_disturbance(bank, sub, activations);
        let rows_per_sub = self.geom.rows_per_subarray();
        let mut victims = Vec::new();
        if local.index() > 0 {
            victims.push(LocalRow(local.index() - 1));
        }
        if local.index() + 1 < rows_per_sub {
            victims.push(LocalRow(local.index() + 1));
        }
        self.settle_rows(bank, sub, &victims);
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
                let sa = self.banks[bank.index()].subarray_mut(sub);
                let old = sa.bit(victim, col);
                // Anti-cells (0 → 1 flips) are ~8× rarer.
                let eff = if old.as_bool() {
                    threshold
                } else {
                    threshold * 8.0
                };
                let p_flip = (activations as f64 / eff - 0.8).clamp(0.0, 0.95);
                if p_flip > 0.0 && sampler.sample(c, p_flip) {
                    // A flip stores the other rail.
                    sa.row_mut(victim).set(c, old.not());
                    flips += 1;
                }
            }
            out.push((self.geom.join_row(sub, victim)?, flips));
        }
        Ok(out)
    }
}

/// Writes, for each column `c = start + 2 j` (`start` 0 or 1) of the
/// raised rows, the sum of their cell voltages into `sums[j]` and the
/// number of them whose cell reads one into `counts[j]`; with `diffs`,
/// sets bit `2 (j % 32)` of `diffs[j / 32]` where some raised row's cell
/// differs between columns `c` and `c + 2` (the next column of the
/// half). `counts` holds 32 entries per 64-column word of the row.
///
/// Sums are the float sums of the voltages added in raised-row order,
/// the first assigning. A row at the rails holds 0 V or `vdd`, and
/// adding 0.0 moves no float, so over the rows before the first with a
/// voltage overlay each column's sum is `vdd` added once per one:
/// `table[count]`, the same `f64` bit for bit. Those rows are counted a
/// 64-column word at a time from their bit-planes, in byte counters;
/// from the first overlay row on, each row's voltages are added cell by
/// cell, in raised-row order. Unallocated rows read as zero and add
/// nothing.
fn gather_half(
    sa: Option<&Subarray>,
    rows: &[LocalRow],
    start: usize,
    cols: usize,
    sums: &mut [f64],
    counts: &mut [u8],
    mut diffs: Option<&mut [u64]>,
) {
    debug_assert!(start < 2 && rows.len() <= 64, "one byte count per column");
    const BYTE_LOW: u64 = 0x0101_0101_0101_0101;
    let n_half = (cols - start).div_ceil(2);
    let words = cols.div_ceil(64);
    let Some(sa) = sa else {
        sums[..n_half].fill(0.0);
        counts[..32 * words].fill(0);
        if let Some(d) = diffs {
            d[..words].fill(0);
        }
        return;
    };
    let split = rows
        .iter()
        .position(|r| sa.row(*r).is_some_and(|r| r.volts().is_some()))
        .unwrap_or(rows.len());
    let (rails, overlaid) = rows.split_at(split);
    let mut planes: [&[u64]; 64] = [&[]; 64];
    let mut n_planes = 0;
    for row in rails.iter().filter_map(|r| sa.row(*r)) {
        planes[n_planes] = row.bits();
        n_planes += 1;
    }
    let planes = &planes[..n_planes];
    for w in 0..words {
        // Byte `b` of `acc[k]` counts lane `32 w + 4 b + k`, the column
        // at bit `8 b + 2 k` of the word shifted to `start`.
        let mut acc = [0u64; 4];
        let mut diff = 0u64;
        for bits in planes {
            let x = bits[w] >> start & EVEN;
            for (k, a) in acc.iter_mut().enumerate() {
                *a += x >> (2 * k) & BYTE_LOW;
            }
            if diffs.is_some() {
                diff |= neighbour_diffs(bits, w, start, x);
            }
        }
        let block = &mut counts[32 * w..32 * w + 32];
        for (b, lanes) in block.chunks_exact_mut(4).enumerate() {
            for (n, a) in lanes.iter_mut().zip(acc) {
                *n = (a >> (8 * b)) as u8;
            }
        }
        if let Some(d) = diffs.as_deref_mut() {
            d[w] = diff;
        }
    }
    let one = f64::from(sa.one());
    let mut table = [0.0f64; 65];
    for k in 1..=rails.len() {
        table[k] = table[k - 1] + one;
    }
    for (s, n) in sums[..n_half].iter_mut().zip(&counts[..n_half]) {
        *s = table[usize::from(*n)];
    }
    for r in overlaid.iter().filter_map(|r| sa.row(*r)) {
        let cells = sums[..n_half].iter_mut().zip(counts.iter_mut()).enumerate();
        match r.volts() {
            Some(volts) => {
                for (j, (s, n)) in cells {
                    let c = start + 2 * j;
                    *s += f64::from(volts[c]);
                    *n += u8::from(r.bit(c).as_bool());
                }
            }
            None => {
                for (j, (s, n)) in cells {
                    let one = r.bit(start + 2 * j).as_bool();
                    *s += if one { f64::from(sa.one()) } else { 0.0 };
                    *n += u8::from(one);
                }
            }
        }
        if let Some(d) = diffs.as_deref_mut() {
            for (w, dw) in d[..words].iter_mut().enumerate() {
                *dw |= neighbour_diffs(r.bits(), w, start, r.bits()[w] >> start & EVEN);
            }
        }
    }
}

/// Bit `2 i` set where lane `32 w + i` of a row's half from `start`
/// differs from the lane after it; `x` is word `w` of the row shifted to
/// `start`, masked to its even bits.
#[inline]
fn neighbour_diffs(bits: &[u64], w: usize, start: usize, x: u64) -> u64 {
    // Lane `32 (w + 1)` is bit `start` of the row's next word.
    let next = bits.get(w + 1).map_or(0, |n| n >> start & 1);
    (x ^ ((x >> 2) | (next << 62))) & EVEN
}

/// The coupling-mismatch table index of shared column `j` of `n`: how
/// many of its same-half neighbours differ from it (`differs(j)`: lanes
/// `j` and `j + 1` differ), as 0, 1 or 2 halves of the neighbours there
/// are.
#[inline]
fn mismatch_index(j: usize, n: usize, differs: impl Fn(usize) -> bool) -> u8 {
    let mut d = 0u8;
    let mut cnt = 0u8;
    if j > 0 {
        cnt += 1;
        d += u8::from(differs(j - 1));
    }
    if j + 1 < n {
        cnt += 1;
        d += u8::from(differs(j));
    }
    (2 * d).checked_div(cnt).unwrap_or(0)
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

    /// The fraction of `out`'s recorded cells in `role` that read back
    /// as intended (reads settle pending draws).
    fn read_accuracy(chip: &mut Chip, out: &OpOutcome, role: CellRole) -> f64 {
        let (mut hits, mut total) = (0usize, 0usize);
        for r in &out.rows {
            let g = chip.geometry().join_row(r.subarray, r.row).unwrap();
            let bits = chip.read_row_direct(BankId(0), g).unwrap();
            for (c, want) in r.cols().zip(out.intended_of(r)) {
                if r.roles[c % 2] == role {
                    total += 1;
                    hits += usize::from(bits[c] == *want);
                }
            }
        }
        hits as f64 / total as f64
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
        let volts = |chip: &Chip| {
            let (sub, local) = chip.geometry().split_row(row).unwrap();
            chip.banks[bank.index()]
                .subarray(sub)
                .and_then(|s| s.row_volts(local))
                .unwrap()
        };
        let mut fresh = hynix_chip();
        let want_out = fresh.frac(bank, row).unwrap();
        let want_volts = volts(&fresh);
        assert_eq!(want_out.p.len(), fresh.geometry().cols());

        let mut chip = hynix_chip();
        let check = |chip: &mut Chip, after: &str| {
            let out = chip.frac(bank, row).unwrap();
            assert_eq!(out, want_out, "outcome after {after}");
            assert_eq!(volts(chip), want_volts, "voltages after {after}");
        };
        check(&mut chip, "a first Frac");

        let cols = chip.geometry().cols();
        chip.activate(bank, row).unwrap();
        chip.write_open(bank, &pattern(9, cols).into()).unwrap();
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
        // The charge share's draws land when the row is read.
        chip.read_row_direct(bank, row).unwrap();
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
        chip.precharge(bank).unwrap();
        assert!(matches!(out.kind, OutcomeKind::Not { .. }));
        // Destination cells on shared columns should mostly be ¬src.
        let acc = read_accuracy(&mut chip, &out, CellRole::NotDst);
        assert!(acc > 0.85, "NOT accuracy {acc}");
        for r in out
            .rows
            .iter()
            .filter(|r| r.roles.contains(&CellRole::NotDst))
        {
            for (c, want) in r.cols().zip(out.intended_of(r)) {
                if r.roles[c % 2] == CellRole::NotDst {
                    assert_eq!(*want, src[c].not());
                }
            }
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
        chip.precharge(bank).unwrap();
        assert!(matches!(out.kind, OutcomeKind::InSubarray { rows: 2 }));
        let acc = read_accuracy(&mut chip, &out, CellRole::CloneDst);
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
        chip.precharge(bank).unwrap();
        // Intended compute results must equal bitwise AND of inputs;
        // the reference terminal carries NAND.
        let upper = SubarrayId(sub_ref.index().min(sub_com.index()));
        for r in &out.rows {
            for (c, want) in r.cols().zip(out.intended_of(r)) {
                let and = in_a[c].as_bool() && in_b[c].as_bool();
                match r.roles[c % 2] {
                    CellRole::Compute => {
                        assert!(is_shared_col(upper, Col(c)));
                        assert_eq!(*want, Bit::from(and), "col {c}");
                    }
                    CellRole::Reference => assert_eq!(*want, Bit::from(!and), "col {c}"),
                    _ => {}
                }
            }
        }
        let acc = read_accuracy(&mut chip, &out, CellRole::Compute);
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
        chip.write_open(bank, &data.clone().into()).unwrap();
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
        // A copy and a charge share each charge at least one row.
        chip.multi_act_copy(BankId(0), GlobalRow(0), GlobalRow(520))
            .unwrap();
        chip.precharge(BankId(0)).unwrap();
        chip.multi_act_charge_share(BankId(0), GlobalRow(1), GlobalRow(521))
            .unwrap();
        chip.precharge(BankId(0)).unwrap();
        assert!(chip.disturbance().lifetime_total() >= 1_004);
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

    // -----------------------------------------------------------------
    // Pending draws
    // -----------------------------------------------------------------

    /// A 2:2 simultaneous cross-subarray pair between subarrays 0 and
    /// 1: `(r_ref, r_com, ref rows, com rows)` as global rows.
    fn cs_pair(chip: &Chip) -> (GlobalRow, GlobalRow, Vec<GlobalRow>, Vec<GlobalRow>) {
        let geom = *chip.geometry();
        for f in 0..512usize {
            for l in 0..512usize {
                let (rf, rl) = (GlobalRow(f), GlobalRow(512 + l));
                if let MultiActivation::CrossSubarray {
                    first_rows,
                    second_rows,
                    simultaneous: true,
                    ..
                } = chip.decoder().activation(&geom, rf, rl)
                {
                    if first_rows.len() == 2 && second_rows.len() == 2 {
                        let join = |sub, rows: &[LocalRow]| -> Vec<GlobalRow> {
                            rows.iter()
                                .map(|r| geom.join_row(SubarrayId(sub), *r).unwrap())
                                .collect()
                        };
                        return (rf, rl, join(0, &first_rows), join(1, &second_rows));
                    }
                }
            }
        }
        panic!("no 2:2 pair");
    }

    /// Stages an AND gate the way the gate builder does (constant and
    /// `Frac` reference rows, operand rows, each through ACT–WR–PRE)
    /// and runs its charge share under `need`.
    fn and_gate(chip: &mut Chip, seed: u64, need: CsTerminal) -> OpOutcome {
        let (bank, cols) = (BankId(0), chip.geometry().cols());
        let (rf, rl, refs, coms) = cs_pair(chip);
        let stage = |chip: &mut Chip, g: GlobalRow, bits: &[Bit]| {
            chip.activate(bank, g).unwrap();
            chip.write_open(bank, &bits.into()).unwrap();
            chip.precharge(bank).unwrap();
        };
        stage(chip, refs[0], &vec![Bit::One; cols]);
        chip.frac(bank, refs[1]).unwrap();
        for (i, g) in coms.iter().enumerate() {
            stage(chip, *g, &pattern(seed + i as u64, cols));
        }
        let out = chip
            .multi_act_charge_share_masked(bank, rf, rl, need)
            .unwrap();
        assert!(
            matches!(out.kind, OutcomeKind::Logic { .. }),
            "{:?}",
            out.kind
        );
        out
    }

    /// Every raised row of the 2:2 pair.
    fn pair_rows(chip: &Chip) -> Vec<GlobalRow> {
        let (_, _, refs, coms) = cs_pair(chip);
        refs.into_iter().chain(coms).collect()
    }

    /// The stored voltages of `g` (zeros if never allocated).
    fn row_volts(chip: &Chip, g: GlobalRow) -> Vec<f32> {
        let (sub, local) = chip.geometry().split_row(g).unwrap();
        let s = chip.banks[0].subarray(sub).and_then(|s| s.row_volts(local));
        s.unwrap_or_else(|| vec![0.0; chip.geometry().cols()])
    }

    /// Reads every row of `rows` directly, settling their draws.
    fn settle_by_reading(chip: &mut Chip, rows: &[GlobalRow]) {
        for g in rows {
            chip.read_row_direct(BankId(0), *g).unwrap();
        }
    }

    #[test]
    fn a_gate_and_the_next_staging_draw_nothing() {
        let mut chip = hynix_chip();
        let need = CsTerminal::terminal_of(LogicOp::And);
        let out = and_gate(&mut chip, 1, need);
        chip.precharge(BankId(0)).unwrap();
        assert_eq!(chip.drawn, 0, "the gate draws nothing");
        let n_shared = out.stats.role(CellRole::Compute).count / 2;
        assert_eq!(chip.pending.live, 2, "both result rows owe draws");
        assert_eq!(out.p.len(), 2 * n_shared);
        and_gate(&mut chip, 7, need);
        assert_eq!(chip.drawn, 0, "the staging writes drop the draws undrawn");
        assert_eq!(
            chip.pending.live, 2,
            "only the second gate's rows owe draws"
        );
    }

    #[test]
    fn a_read_draws_exactly_its_rows_pending_cells() {
        let bank = BankId(0);
        let need = CsTerminal::terminal_of(LogicOp::And);
        let fresh = || {
            let mut chip = hynix_chip();
            and_gate(&mut chip, 3, need);
            chip.precharge(bank).unwrap();
            chip
        };
        let (_, _, _, coms) = cs_pair(&hynix_chip());
        let n_shared = (hynix_chip().geometry().cols() / 2) as u64;
        // The reference: each result row read directly, twice.
        let mut direct = fresh();
        let want: Vec<Vec<Bit>> = coms
            .iter()
            .map(|g| {
                let before = direct.drawn;
                let bits = direct.read_row_direct(bank, *g).unwrap();
                assert_eq!(direct.drawn - before, n_shared, "direct read");
                assert_eq!(direct.read_row_direct(bank, *g).unwrap(), bits);
                assert_eq!(direct.drawn - before, n_shared, "a second read draws none");
                bits
            })
            .collect();
        // A full read through activate/read/precharge.
        let mut full = fresh();
        for (g, bits) in coms.iter().zip(&want) {
            let before = full.drawn;
            assert_eq!(&full.read_row(bank, *g).unwrap(), bits);
            assert_eq!(full.drawn - before, n_shared, "read_row");
            assert_eq!(&full.read_row(bank, *g).unwrap(), bits);
            assert_eq!(
                full.drawn - before,
                n_shared,
                "a second read_row draws none"
            );
        }
        // The packed read of one column half.
        let mut packed = fresh();
        let upper_start = 1;
        for (g, bits) in coms.iter().zip(&want) {
            let before = packed.drawn;
            let words = packed.read_row_packed(bank, *g, upper_start).unwrap();
            assert_eq!(packed.drawn - before, n_shared, "read_row_packed");
            let lanes: Vec<Bit> = (upper_start..bits.len())
                .step_by(2)
                .map(|c| bits[c])
                .collect();
            for (j, b) in lanes.iter().enumerate() {
                assert_eq!(words[j / 64] >> (j % 64) & 1 == 1, b.as_bool(), "lane {j}");
            }
            assert_eq!(
                packed.read_row_packed(bank, *g, upper_start).unwrap(),
                words
            );
            assert_eq!(packed.drawn - before, n_shared);
        }
    }

    /// A chip that runs `then` on a gate's pending rows against a twin
    /// that reads them first: afterwards every raised row holds the
    /// same voltages, and their reads agree.
    fn settles_like_a_read_first(then: impl Fn(&mut Chip)) {
        let rows = pair_rows(&hynix_chip());
        let mut chips = [hynix_chip(), hynix_chip()];
        for (i, chip) in chips.iter_mut().enumerate() {
            let out = and_gate(chip, 11, CsTerminal::Both);
            assert!(chip.pending.live > 0, "{out:?}");
            if i == 1 {
                settle_by_reading(chip, &rows);
            }
            then(chip);
            if !chip.banks[0].is_precharged() {
                chip.precharge(BankId(0)).unwrap();
            }
        }
        let [mut lazy, mut eager] = chips;
        for g in &rows {
            let (a, b) = (
                lazy.read_row_direct(BankId(0), *g),
                eager.read_row_direct(BankId(0), *g),
            );
            assert_eq!(a.unwrap(), b.unwrap(), "row {g} bits");
            assert_eq!(
                row_volts(&lazy, *g),
                row_volts(&eager, *g),
                "row {g} voltages"
            );
        }
    }

    #[test]
    fn a_neighbour_half_write_settles_first() {
        // The bank is still open on the charge share's rows: the WR
        // writes the compute rows whole and the reference rows' shared
        // half (¬data), leaving their off-half majority draws.
        settles_like_a_read_first(|chip| {
            let data = pattern(21, chip.geometry().cols());
            chip.write_open(BankId(0), &data.into()).unwrap();
        });
    }

    #[test]
    fn leakage_settles_first() {
        settles_like_a_read_first(|chip| {
            chip.precharge(BankId(0)).unwrap();
            chip.configure(crate::SimConfig::new().with_temperature(Temperature::celsius(95.0)));
            chip.advance_time(2e6);
        });
    }

    #[test]
    fn hammering_settles_its_victims_first() {
        settles_like_a_read_first(|chip| {
            chip.precharge(BankId(0)).unwrap();
            let (_, _, _, coms) = cs_pair(chip);
            let (sub, local) = chip.geometry().split_row(coms[0]).unwrap();
            let aggressor = LocalRow(if local.index() > 0 {
                local.index() - 1
            } else {
                1
            });
            let g = chip.geometry().join_row(sub, aggressor).unwrap();
            chip.hammer(BankId(0), g, 400_000).unwrap();
        });
    }

    /// `follow` run on the rows an earlier operation left pending
    /// (`setup` stages and runs it) gives the outcome and leaves the
    /// bits it gives on a twin that read `rows` first.
    fn follow_up_matches_a_read_first_twin(
        setup: impl Fn(&mut Chip),
        rows: &[GlobalRow],
        follow: impl Fn(&mut Chip) -> OpOutcome,
    ) {
        let mut runs = Vec::new();
        for read_first in [false, true] {
            let mut chip = hynix_chip();
            setup(&mut chip);
            chip.precharge(BankId(0)).unwrap();
            assert!(chip.pending.live > 0, "the setup leaves draws pending");
            if read_first {
                settle_by_reading(&mut chip, rows);
            }
            let out = follow(&mut chip);
            chip.precharge(BankId(0)).unwrap();
            let bits: Vec<Vec<Bit>> = rows
                .iter()
                .map(|g| chip.read_row_direct(BankId(0), *g).unwrap())
                .collect();
            runs.push((out, bits));
        }
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn cross_subarray_activations_settle_the_rows_they_raise() {
        // A copy under each scope and a second charge share over the
        // gate's pending rows, with nothing restaged.
        let (rf, rl, _, _) = cs_pair(&hynix_chip());
        let rows = pair_rows(&hynix_chip());
        let gate = |chip: &mut Chip| {
            and_gate(chip, 11, CsTerminal::Both);
        };
        for need in [CsTerminal::Both, CsTerminal::Compute] {
            follow_up_matches_a_read_first_twin(gate, &rows, |chip| {
                chip.multi_act_copy_masked(BankId(0), rf, rl, need).unwrap()
            });
        }
        follow_up_matches_a_read_first_twin(gate, &rows, |chip| {
            chip.multi_act_charge_share(BankId(0), rf, rl).unwrap()
        });
    }

    #[test]
    fn same_subarray_activations_settle_the_rows_they_raise() {
        let chip = hynix_chip();
        let geom = *chip.geometry();
        let (rf, rl, rows) = (1..512usize)
            .find_map(|b| {
                let (rf, rl) = (GlobalRow(0), GlobalRow(b));
                match chip.decoder().activation(&geom, rf, rl) {
                    MultiActivation::SameSubarray { rows } if rows.len() >= 3 => {
                        let rows: Vec<GlobalRow> = (rows.iter())
                            .map(|r| geom.join_row(SubarrayId(0), *r).unwrap())
                            .collect();
                        Some((rf, rl, rows))
                    }
                    _ => None,
                }
            })
            .expect("a multi-row same-subarray activation");
        // An in-subarray MAJ leaves every raised row pending.
        let maj = |chip: &mut Chip| {
            let cols = chip.geometry().cols();
            for (i, g) in rows.iter().enumerate() {
                chip.write_row_direct(BankId(0), *g, &pattern(40 + i as u64, cols))
                    .unwrap();
            }
            let out = chip.multi_act_charge_share(BankId(0), rf, rl).unwrap();
            assert!(matches!(out.kind, OutcomeKind::InSubarray { .. }));
        };
        follow_up_matches_a_read_first_twin(maj, &rows, |chip| {
            chip.multi_act_copy(BankId(0), rf, rl).unwrap()
        });
        follow_up_matches_a_read_first_twin(maj, &rows, |chip| {
            chip.multi_act_charge_share(BankId(0), rf, rl).unwrap()
        });
    }

    /// The shared-column CDF of `side` (0 compute, 1 reference) of the
    /// charge share keyed `key`, built whole in the float-op order the
    /// lazy fill replays: `[row][table entry]`.
    fn eager_cs_tables(chip: &mut Chip, key: MemoKey, side: usize) -> Vec<Vec<f64>> {
        let (bank, r_ref, r_com) = (
            BankId(key.0 as usize),
            GlobalRow(key.1 as usize),
            GlobalRow(key.2 as usize),
        );
        let geom = *chip.geometry();
        let MultiActivation::CrossSubarray {
            first_rows,
            second_rows,
            ..
        } = chip.decoder().activation(&geom, r_ref, r_com)
        else {
            panic!("a charge-share key");
        };
        let ((sub_ref, loc_ref), (sub_com, loc_com)) = (
            geom.split_row(r_ref).unwrap(),
            geom.split_row(r_com).unwrap(),
        );
        let (cols, rows_per_sub) = (geom.cols(), geom.rows_per_subarray());
        let upper = SubarrayId(sub_ref.index().min(sub_com.index()));
        let shared_start = (upper.index() + 1) % 2;
        let n_shared = (cols - shared_start).div_ceil(2);
        let com_dist = dist_to_stripe(loc_com, rows_per_sub, sub_com, upper);
        let ref_dist = dist_to_stripe(loc_ref, rows_per_sub, sub_ref, upper);
        let tterm = ReliabilityModel::logic_temp_term(chip.temperature);
        let sa = chip
            .cache
            .sa_z(chip.model.variation(), bank, upper.index() + 1, cols);
        let (sub, rows, ops, invert) = if side == 0 {
            (sub_com, &second_rows, [LogicOp::Or, LogicOp::And], false)
        } else {
            (sub_ref, &first_rows, [LogicOp::Nor, LogicOp::Nand], true)
        };
        let mut out = Vec::new();
        for row in rows {
            let mut t = vec![0.0; 6 * n_shared];
            for (fam, op) in ops.into_iter().enumerate() {
                let pre = chip.model.logic_z_prefix(op, rows.len()).unwrap();
                let cpl = ReliabilityModel::coupling(op);
                let own = dist_to_stripe(*row, rows_per_sub, sub, upper);
                let dist = if invert {
                    ReliabilityModel::logic_dist_term(op, com_dist, own)
                } else {
                    ReliabilityModel::logic_dist_term(op, own, ref_dist)
                };
                let lz = chip
                    .cache
                    .logic_z(chip.model.variation(), bank, sub, *row, cols);
                for (j, c) in (shared_start..cols).step_by(2).enumerate() {
                    for (mm, mm_v) in [0.0f64, 0.5, 1.0].into_iter().enumerate() {
                        let z = pre - cpl * mm_v.clamp(0.0, 1.0) + dist - tterm
                            + SIGMA_CELL_LOGIC * lz[c]
                            + SIGMA_SA_LOGIC * sa[c];
                        t[3 * n_shared * fam + 3 * j + mm] = normal_cdf(z);
                    }
                }
            }
            out.push(t);
        }
        out
    }

    #[test]
    fn lazily_filled_cs_tables_match_an_eager_build() {
        let mut chip = hynix_chip();
        let bank = BankId(0);
        let (rf, rl, refs, coms) = cs_pair(&chip);
        let cols = chip.geometry().cols();
        let scopes = [CsTerminal::Both, CsTerminal::Compute, CsTerminal::Reference];
        for temp in [50.0, 85.0] {
            chip.configure(crate::SimConfig::new().with_temperature(Temperature::celsius(temp)));
            for k in 0..6u64 {
                for (i, g) in refs.iter().chain(&coms).enumerate() {
                    chip.write_row_direct(bank, *g, &pattern(100 * k + i as u64, cols))
                        .unwrap();
                }
                chip.multi_act_charge_share_masked(bank, rf, rl, scopes[k as usize % 3])
                    .unwrap();
                chip.precharge(bank).unwrap();
            }
            let keys: Vec<MemoKey> = chip.memo.cs.keys().copied().collect();
            let (mut filled, mut empty) = (0, 0);
            for key in keys {
                for side in 0..2 {
                    let Some(built) = chip.memo.cs[&key].sides[side].clone() else {
                        continue;
                    };
                    let eager = eager_cs_tables(&mut chip, key, side);
                    for (row, want) in built.rows.iter().zip(&eager) {
                        let entries = row.table.iter().zip(want).zip(&built.filled);
                        for ((got, want), is_filled) in entries {
                            if *is_filled {
                                filled += 1;
                                assert_eq!(got.to_bits(), want.to_bits(), "{temp} °C");
                            } else {
                                empty += 1;
                            }
                        }
                    }
                }
            }
            assert!(filled > 0 && empty > 0, "{filled} filled, {empty} unread");
        }
    }

    // -----------------------------------------------------------------
    // The gather over bit-planes
    // -----------------------------------------------------------------

    /// The gather before rows were planes, kept as the reference: each
    /// raised row's `f32` voltages (`None`: unallocated) added as `f64`
    /// in raised-row order, the first assigning, and bit `i` of
    /// `packed[j]` set where raised row `i`'s cell reads one.
    fn gather_half_f32(
        rows: &[Option<Vec<f32>>],
        start: usize,
        vdd: f64,
        sums: &mut [f64],
        packed: &mut [u64],
    ) {
        let threshold = vdd / 2.0;
        if rows.first().is_none_or(Option::is_none) {
            sums.fill(0.0);
            packed.fill(0);
        }
        for (i, row) in rows.iter().enumerate() {
            let Some(slice) = row else {
                continue;
            };
            for (j, v) in slice[start..].iter().step_by(2).enumerate() {
                let v = f64::from(*v);
                if i == 0 {
                    sums[j] = v;
                    packed[j] = u64::from(v > threshold);
                } else {
                    sums[j] += v;
                    packed[j] |= u64::from(v > threshold) << i;
                }
            }
        }
    }

    /// A subarray of `n` raised rows (rows `0..n`) of `cols` columns:
    /// random rail rows, some unallocated, and an overlay row (random
    /// voltages between the rails and at them) at each raised position
    /// in `overlays`.
    fn gather_rows(seed: u64, n: usize, cols: usize, overlays: &[usize]) -> Subarray {
        let vdd = 1.2;
        let mut sa = Subarray::new(n, cols, vdd);
        let draw = |r: usize, c: usize, k: u64| crate::math::mix3(seed, (r * 4096 + c) as u64, k);
        for r in 0..n {
            if overlays.contains(&r) {
                let volts: Vec<f32> = (0..cols)
                    .map(|c| match draw(r, c, 1) % 4 {
                        0 => 0.0,
                        1 => vdd as f32,
                        _ => (crate::math::hash_to_unit(draw(r, c, 2)) * vdd) as f32,
                    })
                    .collect();
                let mut bits = PackedBits::zeros(cols);
                for (c, v) in volts.iter().enumerate() {
                    bits.set(c, f64::from(*v) > vdd / 2.0);
                }
                sa.write_volts(LocalRow(r), bits.words(), &volts.into());
            } else if draw(r, 0, 3) % 8 != 0 {
                let bits: Vec<Bit> = (0..cols)
                    .map(|c| Bit::from(draw(r, c, 4) & 1 == 1))
                    .collect();
                sa.write_bits(LocalRow(r), &bits);
            }
        }
        sa
    }

    /// The plane gather against the `f32` reference, bit for bit: sums,
    /// counts against the packed bits' popcounts, and each shared
    /// column's mismatch index.
    fn assert_gathers_agree(sa: Option<&Subarray>, n: usize, start: usize, cols: usize, ctx: &str) {
        let rows: Vec<LocalRow> = (0..n).map(LocalRow).collect();
        let n_half = (cols - start).div_ceil(2);
        let words = cols.div_ceil(64);
        let (mut sums, mut counts, mut diffs) = (
            vec![f64::NAN; n_half],
            vec![0xAA; 32 * words],
            vec![!0; words],
        );
        gather_half(
            sa,
            &rows,
            start,
            cols,
            &mut sums,
            &mut counts,
            Some(&mut diffs),
        );
        let volts: Vec<Option<Vec<f32>>> = rows
            .iter()
            .map(|r| sa.and_then(|s| s.row_volts(*r)))
            .collect();
        let (mut want_sums, mut packed) = (vec![0.0; n_half], vec![0u64; n_half]);
        gather_half_f32(&volts, start, 1.2, &mut want_sums, &mut packed);
        for j in 0..n_half {
            assert_eq!(sums[j].to_bits(), want_sums[j].to_bits(), "{ctx}: sum {j}");
            assert_eq!(
                u32::from(counts[j]),
                packed[j].count_ones(),
                "{ctx}: count {j}"
            );
            let differs = |j: usize| diffs[j / 32] >> (2 * (j % 32)) & 1 == 1;
            let differs_f32 = |j: usize| packed[j] != packed[j + 1];
            assert_eq!(
                mismatch_index(j, n_half, differs),
                mismatch_index(j, n_half, differs_f32),
                "{ctx}: mismatch {j}"
            );
        }
    }

    #[test]
    fn the_plane_gather_matches_the_f32_gather_bit_for_bit() {
        for cols in [1usize, 3, 64, 65, 127, 130, 257] {
            for n in 1..=32usize {
                let mut cases: Vec<Vec<usize>> = (0..n).map(|p| vec![p]).collect();
                cases.push(Vec::new());
                cases.push(vec![n / 3, n - 1]);
                for (k, overlays) in cases.iter().enumerate() {
                    let seed = (cols * 1000 + n * 40 + k) as u64;
                    let sa = gather_rows(seed, n, cols, overlays);
                    for start in [0, 1].into_iter().filter(|s| *s < cols) {
                        let ctx = format!("cols {cols} n {n} overlays {overlays:?} start {start}");
                        assert_gathers_agree(Some(&sa), n, start, cols, &ctx);
                    }
                }
            }
        }
        for n in [16usize, 32] {
            for overlays in [vec![], vec![n - 1], vec![0, n / 2]] {
                let sa = gather_rows(n as u64, n, 1024, &overlays);
                for start in [0, 1] {
                    let ctx = format!("1024 cols n {n} overlays {overlays:?} start {start}");
                    assert_gathers_agree(Some(&sa), n, start, 1024, &ctx);
                }
            }
        }
        assert_gathers_agree(None, 4, 1, 65, "unallocated subarray");
    }

    // -----------------------------------------------------------------
    // Row storage through the chip
    // -----------------------------------------------------------------

    /// Whether `g` carries a voltage overlay.
    fn has_overlay(chip: &Chip, g: GlobalRow) -> bool {
        let (sub, local) = chip.geometry().split_row(g).unwrap();
        chip.banks[0]
            .subarray(sub)
            .and_then(|s| s.row(local))
            .is_some_and(|r| r.volts().is_some())
    }

    #[test]
    fn frac_gives_an_overlay_and_a_full_rail_write_drops_it() {
        let mut chip = hynix_chip();
        let (bank, row, cols) = (BankId(0), GlobalRow(5), chip.geometry().cols());
        chip.frac(bank, row).unwrap();
        assert!(has_overlay(&chip, row), "a Frac row is off the rails");
        chip.activate(bank, row).unwrap();
        chip.write_open(bank, &pattern(4, cols).into()).unwrap();
        chip.precharge(bank).unwrap();
        assert!(
            !has_overlay(&chip, row),
            "a whole-row WR returns it to the plane"
        );
        assert_eq!(chip.read_row_direct(bank, row).unwrap(), pattern(4, cols));
        chip.frac(bank, row).unwrap();
        chip.write_row_direct(bank, row, &pattern(5, cols)).unwrap();
        assert!(!has_overlay(&chip, row), "so does a direct write");
    }

    #[test]
    fn leakage_gives_an_overlay_and_hammering_keeps_rows_on_the_plane() {
        let mut chip = hynix_chip();
        let (bank, cols) = (BankId(0), chip.geometry().cols());
        for r in 95..=105usize {
            chip.write_row_direct(bank, GlobalRow(r), &vec![Bit::One; cols])
                .unwrap();
        }
        let flips = chip.hammer(bank, GlobalRow(100), 500_000).unwrap();
        assert!(flips.iter().any(|(_, f)| *f > 0));
        for (victim, _) in &flips {
            assert!(!has_overlay(&chip, *victim), "a hammer flip is a rail flip");
        }
        chip.configure(crate::SimConfig::new().with_temperature(Temperature::celsius(95.0)));
        chip.advance_time(1e6);
        assert!(
            has_overlay(&chip, GlobalRow(103)),
            "a leaked row is off the rails"
        );
    }

    #[test]
    fn a_neighbour_half_write_updates_plane_and_overlay() {
        // A Frac row in the first subarray of a glitching pair, raised
        // with the second: the WR stores ¬data on its shared half and
        // keeps its Frac voltages on the other.
        let mut chip = hynix_chip();
        let (bank, cols) = (BankId(0), chip.geometry().cols());
        let (rf, rl) = (0..512usize)
            .flat_map(|f| (0..512usize).map(move |l| (GlobalRow(f), GlobalRow(512 + l))))
            .find(|(rf, rl)| {
                matches!(
                    chip.decoder().activation(chip.geometry(), *rf, *rl),
                    MultiActivation::CrossSubarray { .. }
                )
            })
            .unwrap();
        chip.frac(bank, rf).unwrap();
        let frac = row_volts(&chip, rf);
        chip.multi_act_copy(bank, rf, rl).unwrap();
        chip.precharge(bank).unwrap();
        // The copy leaves the source row as it was.
        assert_eq!(row_volts(&chip, rf), frac);
        let data = pattern(6, cols);
        chip.multi_act_copy(bank, rf, rl).unwrap();
        chip.write_open(bank, &data.clone().into()).unwrap();
        chip.precharge(bank).unwrap();
        assert!(
            has_overlay(&chip, rf),
            "half the row keeps its Frac voltages"
        );
        let (sub_f, _) = chip.geometry().split_row(rf).unwrap();
        let upper = SubarrayId(sub_f.index().min(1));
        let got = row_volts(&chip, rf);
        let bits = chip.read_row_direct(bank, rf).unwrap();
        for c in 0..cols {
            let want = if is_shared_col(upper, Col(c)) {
                data[c].not().voltage(1.2) as f32
            } else {
                frac[c]
            };
            assert_eq!(got[c], want, "col {c} voltage");
            assert_eq!(bits[c], bit_of_volts(want), "col {c} bit");
        }
    }

    /// The bit a stored voltage reads as.
    fn bit_of_volts(v: f32) -> Bit {
        Bit::from(f64::from(v) > 1.2 / 2.0)
    }

    #[test]
    fn the_packed_read_of_an_overlay_row_thresholds_like_the_f32_fold() {
        let mut chip = hynix_chip();
        let (bank, row, cols) = (BankId(0), GlobalRow(9), chip.geometry().cols());
        chip.write_row_direct(bank, row, &pattern(8, cols)).unwrap();
        chip.configure(crate::SimConfig::new().with_temperature(Temperature::celsius(95.0)));
        chip.advance_time(6e5);
        chip.frac(bank, GlobalRow(10)).unwrap();
        for g in [row, GlobalRow(10)] {
            assert!(has_overlay(&chip, g));
            let volts = row_volts(&chip, g);
            for start in [0, 1, 3] {
                // The fold `read_row_packed` ran over the f32 row.
                let half = 1.2 / 2.0;
                let chunks = volts[start..].chunks(64 * SHARED_COL_STRIDE);
                let want: Vec<u64> = chunks
                    .map(|chunk| {
                        (0..chunk.len().div_ceil(SHARED_COL_STRIDE)).fold(0, |w, i| {
                            w | u64::from(f64::from(chunk[i * SHARED_COL_STRIDE]) > half) << i
                        })
                    })
                    .collect();
                assert_eq!(chip.read_row_packed(bank, g, start).unwrap(), want);
            }
        }
    }
}
