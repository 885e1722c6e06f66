//! Shared experiment machinery: scale configuration, per-module
//! contexts, and measurement primitives that execute operations and
//! collect per-cell success probabilities.
//!
//! All success rates reported by the experiments are the model's
//! per-cell probabilities (the 10,000-trial limit); Monte-Carlo
//! cross-checks live in the integration tests.

use crate::patterns::DataPattern;
use dram_core::variation::row_region;
use dram_core::{
    result_role, BankId, CellRole, ChipId, CsTerminal, DistanceRegion, DramModule, Geometry,
    LocalRow, LogicOp, Manufacturer, ModuleConfig, OpOutcome, OutcomeKind, PatternKind, StripeSide,
    SubarrayId, Temperature,
};
use fcdram::{ActivationMap, Bit, Fcdram, FcdramError, PackedBits, PatternEntry, Result};
use serde::{Deserialize, Serialize};

/// Experiment scale knobs (runtime vs fidelity).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Modeled columns per row.
    pub cols: usize,
    /// `(R_F, R_L)` pairs scanned per subarray pair.
    pub map_budget: usize,
    /// Pattern entries retained per shape during discovery.
    pub entries_per_shape: usize,
    /// Entries executed per measured condition.
    pub execs_per_condition: usize,
    /// Random input sets drawn per (op, N) condition.
    pub input_draws: usize,
    /// Temperatures swept by the thermal experiments.
    pub temps: Vec<Temperature>,
}

impl Scale {
    /// Reduced scale for unit tests and Criterion benches.
    pub fn quick() -> Self {
        Scale {
            cols: 32,
            map_budget: 2_048,
            entries_per_shape: 4,
            execs_per_condition: 1,
            input_draws: 2,
            temps: vec![Temperature::celsius(50.0), Temperature::celsius(95.0)],
        }
    }

    /// Standard scale for the CLI (minutes, not hours).
    pub fn standard() -> Self {
        Scale {
            cols: 128,
            map_budget: 16_384,
            entries_per_shape: 8,
            execs_per_condition: 2,
            input_draws: 4,
            temps: Temperature::TESTED.to_vec(),
        }
    }
}

/// One module under test: the library stack plus its discovered map.
#[derive(Debug)]
pub struct ModuleCtx {
    /// Module configuration.
    pub cfg: ModuleConfig,
    /// The chip under test within the module.
    pub chip: ChipId,
    /// Library facade on the chip under test.
    pub fc: Fcdram,
    /// Activation map of subarray pair (0, 1) in bank 0, when the part
    /// supports simultaneous activation (empty shapes otherwise).
    pub map: ActivationMap,
}

/// The bank every experiment uses (the paper samples several; one is
/// representative under our deterministic variation model).
pub const BANK: BankId = BankId(0);
/// The subarray pair every experiment uses.
pub(crate) const PAIR: (SubarrayId, SubarrayId) = (SubarrayId(0), SubarrayId(1));

impl ModuleCtx {
    /// Builds the context for chip 0 of one module at the given scale
    /// (the historical single-chip path).
    pub fn build(cfg: &ModuleConfig, scale: &Scale) -> Result<ModuleCtx> {
        ModuleCtx::build_chip(cfg, ChipId(0), scale)
    }

    /// Builds the context for an arbitrary chip of a module (fleet
    /// mode). `build(cfg, scale)` is exactly `build_chip(cfg,
    /// ChipId(0), scale)`.
    pub fn build_chip(cfg: &ModuleConfig, chip: ChipId, scale: &Scale) -> Result<ModuleCtx> {
        let cfg = cfg.clone().with_modeled_cols(scale.cols);
        let mut fc = Fcdram::with_chip(bender::Bender::new(DramModule::new(cfg.clone())), chip);
        let map = ActivationMap::discover(
            fc.bender_mut(),
            chip,
            BANK,
            PAIR,
            scale.map_budget,
            scale.entries_per_shape,
        )?;
        Ok(ModuleCtx { cfg, chip, fc, map })
    }

    /// The report origin of rows measured on this context's chip.
    pub(crate) fn origin(&self) -> crate::report::RowOrigin {
        crate::report::RowOrigin::of(&self.cfg, self.chip)
    }

    /// A synthetic 1:1 entry for sequential-activation parts
    /// (Samsung): any cross-pair address pair activates `(rf, rl)`.
    pub fn sequential_entry(&self, salt: usize) -> PatternEntry {
        let geom = self.cfg.geometry();
        let f = (salt * 37) % geom.rows_per_subarray();
        let l = (salt * 61 + 13) % geom.rows_per_subarray();
        PatternEntry {
            rf: geom.join_row(PAIR.0, LocalRow(f)).expect("in range"),
            rl: geom.join_row(PAIR.1, LocalRow(l)).expect("in range"),
            first_rows: vec![LocalRow(f)],
            second_rows: vec![LocalRow(l)],
            kind: PatternKind::NN,
        }
    }

    /// Entries to execute for a destination-row count, sampling *both*
    /// activation families when available, capped by the scale.
    pub fn not_entries(&self, dest_rows: usize, scale: &Scale) -> Vec<PatternEntry> {
        if self.cfg.manufacturer == Manufacturer::Samsung && dest_rows == 1 {
            return (0..scale.execs_per_condition)
                .map(|i| self.sequential_entry(i))
                .collect();
        }
        let per_family = scale.execs_per_condition.max(1);
        let all = self.map.find_dst(dest_rows);
        let mut out: Vec<PatternEntry> = Vec::new();
        for kind in [PatternKind::N2N, PatternKind::NN] {
            out.extend(
                all.iter()
                    .filter(|e| e.kind == kind)
                    .take(per_family)
                    .map(|e| (*e).clone()),
            );
        }
        out
    }
}

/// Builds contexts for every Table-1 module, optionally restricted to
/// SK Hynix (the population of the §6 logic experiments).
pub fn build_fleet(scale: &Scale, hynix_only: bool) -> Vec<ModuleCtx> {
    dram_core::config::table1()
        .iter()
        .filter(|m| !hynix_only || m.manufacturer == Manufacturer::SkHynix)
        .filter_map(|m| ModuleCtx::build(m, scale).ok())
        .collect()
}

/// Per-cell record of one NOT execution.
///
/// Stays `pub` although no other crate names it: [`run_not`] returns
/// these.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NotCellRecord {
    /// Model success probability of the destination cell.
    pub p: f64,
    /// Destination rows raised (N_RL).
    pub dest_rows: usize,
    /// Total rows driven (N_RF + N_RL).
    pub total_rows: usize,
    /// Activation family.
    pub kind: PatternKind,
    /// Source-row distance region (to the shared stripe).
    pub src_region: DistanceRegion,
    /// This destination cell's row distance region.
    pub dst_region: DistanceRegion,
}

/// Ships one NOT entry with the full-width row `src` as its source
/// (the gate only, nothing read back, only the destination subarray
/// resolved) and returns the outcome.
///
/// The copy resolves only its destination rows
/// ([`CsTerminal::Compute`]): characterization reads nothing but the
/// destination cells' outcomes, and never reads an extra source-side
/// row before restaging it (every NOT stages its source row, every
/// logic operation every raised row), so the skipped rows change no
/// measured value.
pub(crate) fn not_gate(
    ctx: &mut ModuleCtx,
    entry: &PatternEntry,
    src: PackedBits,
) -> Result<OpOutcome> {
    let mask = Some(CsTerminal::Compute);
    let (_, outcome) = ctx.fc.not_outcome(BANK, entry, src, mask)?;
    Ok(outcome)
}

/// Executes one NOT entry with `pattern` as its source row and
/// collects destination-cell records.
///
/// The records come from the gate's outcome ([`Fcdram::not_outcome`]):
/// no destination row is read back, which leaves every cell and every
/// later draw exactly as reading them would (experiments install no
/// disturbance policy; see [`Fcdram::read_row`]).
pub fn run_not(
    ctx: &mut ModuleCtx,
    entry: &PatternEntry,
    pattern: DataPattern,
) -> Result<Vec<NotCellRecord>> {
    let src = pattern.row(ctx.cfg.geometry().cols());
    let outcome = not_gate(ctx, entry, src.into())?;
    let OutcomeKind::Not { n_rf, n_rl, .. } = outcome.kind else {
        return Err(FcdramError::OpFailed {
            detail: format!("NOT produced {:?}", outcome.kind),
        });
    };
    let geom = ctx.cfg.geometry();
    let rows = geom.rows_per_subarray();
    let (sub_f, loc_f) = geom.split_row(entry.rf)?;
    let src_side = if sub_f == PAIR.0 {
        StripeSide::Below
    } else {
        StripeSide::Above
    };
    let src_region = row_region(loc_f, rows, src_side);
    let kind = entry.kind;
    let mut out = Vec::with_capacity(outcome.p.len());
    for r in &outcome.rows {
        let dst_side = if r.subarray == PAIR.0 {
            StripeSide::Below
        } else {
            StripeSide::Above
        };
        let record = |p: &f64| NotCellRecord {
            p: *p,
            dest_rows: n_rl,
            total_rows: n_rf + n_rl,
            kind,
            src_region,
            dst_region: row_region(r.row, rows, dst_side),
        };
        let ps = outcome.p_of(r);
        if r.roles == [CellRole::NotDst; 2] {
            out.extend(ps.iter().map(record));
        } else {
            let dst = r
                .cols()
                .zip(ps)
                .filter(|(c, _)| r.roles[c % 2] == CellRole::NotDst);
            out.extend(dst.map(|(_, p)| record(p)));
        }
    }
    Ok(out)
}

/// Per-cell record of one logic execution.
///
/// Stays `pub` although no other crate names it: [`run_logic_random`]
/// returns these.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogicCellRecord {
    /// Model success probability of the result cell.
    pub p: f64,
    /// Input count N.
    pub n: usize,
    /// This cell's own-row distance region.
    pub own_region: DistanceRegion,
    /// The opposite set's mean-distance region.
    pub other_region: DistanceRegion,
}

/// Executes one logic entry and collects result-cell records (compute
/// terminal for AND/OR, reference terminal for NAND/NOR).
///
/// The records come from the gate's outcome
/// ([`Fcdram::logic_outcome`], resolving only the result terminal): no
/// result row is read back, which leaves every cell and every later
/// draw exactly as reading them would (experiments install no
/// disturbance policy).
///
/// Stays `pub` although no other crate calls it: docs/ARCHITECTURE.md
/// names it with [`run_not`] and [`run_logic_random`] as the runner's
/// record builders.
pub fn run_logic(
    ctx: &mut ModuleCtx,
    entry: &PatternEntry,
    op: LogicOp,
    inputs: &[Vec<Bit>],
) -> Result<Vec<LogicCellRecord>> {
    let rows: Vec<PackedBits> = inputs.iter().map(PackedBits::from).collect();
    let outcome = logic_gate(ctx, entry, op, &rows)?;
    logic_records(&ctx.cfg.geometry(), entry, op, &outcome)
}

/// Ships one logic operation through `entry` on the full-width operand
/// rows `inputs` (the gate only, nothing read back, only the result
/// terminal resolved) and returns the outcome.
fn logic_gate(
    ctx: &mut ModuleCtx,
    entry: &PatternEntry,
    op: LogicOp,
    inputs: &[PackedBits],
) -> Result<OpOutcome> {
    let mask = Some(CsTerminal::terminal_of(op));
    let (_, outcome) = ctx.fc.logic_outcome(BANK, entry, op, inputs, mask)?;
    Ok(outcome)
}

/// The result-cell records of one logic outcome through `entry`.
fn logic_records(
    geom: &Geometry,
    entry: &PatternEntry,
    op: LogicOp,
    outcome: &OpOutcome,
) -> Result<Vec<LogicCellRecord>> {
    let n = entry.shape().1;
    let rows = geom.rows_per_subarray();
    let role = result_role(op);
    // The *addressed* rows anchor the opposite-side distance term
    // (matching the device model's event construction). Reference rows
    // sit in the upper subarray (Below side), compute rows in the
    // lower (Above side), per the PAIR orientation.
    let (_, loc_ref) = geom.split_row(entry.rf)?;
    let (_, loc_com) = geom.split_row(entry.rl)?;
    let ref_region = row_region(loc_ref, rows, StripeSide::Below);
    let com_region = row_region(loc_com, rows, StripeSide::Above);
    let other_region = if op.is_inverted_terminal() {
        com_region
    } else {
        ref_region
    };
    // Only the result terminal resolves, one shared half per row.
    let mut out = Vec::with_capacity(outcome.p.len());
    for r in outcome.rows.iter().filter(|r| r.roles == [role; 2]) {
        let own_side = if r.subarray == PAIR.0 {
            StripeSide::Below
        } else {
            StripeSide::Above
        };
        let own_region = row_region(r.row, rows, own_side);
        out.extend(outcome.p_of(r).iter().map(|p| LogicCellRecord {
            p: *p,
            n,
            own_region,
            other_region,
        }));
    }
    Ok(out)
}

/// The `draws` (at least one) random `n`-row input sets of a logic
/// condition keyed by `seed`, in draw order, each row full width
/// (`cols`) and packed once, so one set can ship many times.
pub(crate) fn logic_inputs(n: usize, draws: usize, seed: u64, cols: usize) -> Vec<Vec<PackedBits>> {
    (0..draws.max(1))
        .map(|d| {
            crate::patterns::random_input_set(
                n,
                dram_core::math::mix3(seed, d as u64, n as u64),
                cols,
            )
            .into_iter()
            .map(PackedBits::from)
            .collect()
        })
        .collect()
}

/// Runs an (op, N) condition over prebuilt input sets ([`logic_inputs`])
/// through the map's `N:N` entry, handing each set's outcome to
/// `visit` in order (the gate only, nothing read back). This is the one
/// draw loop of a logic condition: [`run_logic_random`] and the fleet
/// sweep both run it, the sweep on sets it builds once per chip and
/// ships at every temperature.
///
/// # Errors
///
/// [`FcdramError::NoPattern`] when the map has no `N:N` entry; the
/// first failing set's or visit's error otherwise.
pub(crate) fn logic_draws(
    ctx: &mut ModuleCtx,
    op: LogicOp,
    n: usize,
    sets: &[Vec<PackedBits>],
    mut visit: impl FnMut(&PatternEntry, &OpOutcome) -> Result<()>,
) -> Result<()> {
    let entry = ctx
        .map
        .find_nn(n)
        .cloned()
        .ok_or(FcdramError::NoPattern { n_rf: n, n_rl: n })?;
    for inputs in sets {
        let outcome = logic_gate(ctx, &entry, op, inputs)?;
        visit(&entry, &outcome)?;
    }
    Ok(())
}

/// Runs a (op, N) condition with `draws` random input sets, returning
/// all result-cell records in draw order.
pub fn run_logic_random(
    ctx: &mut ModuleCtx,
    op: LogicOp,
    n: usize,
    draws: usize,
    seed: u64,
) -> Result<Vec<LogicCellRecord>> {
    let geom = ctx.cfg.geometry();
    let sets = logic_inputs(n, draws, seed, geom.cols());
    let mut out = Vec::new();
    logic_draws(ctx, op, n, &sets, |entry, outcome| {
        out.extend(logic_records(&geom, entry, op, outcome)?);
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hynix_ctx() -> ModuleCtx {
        let cfg = dram_core::config::table1().remove(0);
        ModuleCtx::build(&cfg, &Scale::quick()).unwrap()
    }

    #[test]
    fn context_builds_with_patterns() {
        let ctx = hynix_ctx();
        assert!(ctx.map.total_coverage() > 0.5);
        assert!(!ctx.not_entries(8, &Scale::quick()).is_empty());
    }

    #[test]
    fn run_not_collects_half_row_cells() {
        let mut ctx = hynix_ctx();
        let entries = ctx.not_entries(1, &Scale::quick());
        let entry = match entries.first() {
            Some(e) => e.clone(),
            None => ctx.not_entries(2, &Scale::quick())[0].clone(),
        };
        let recs = run_not(&mut ctx, &entry, DataPattern::Random(3)).unwrap();
        let expect = entry.second_rows.len() * ctx.cfg.geometry().cols() / 2;
        assert_eq!(recs.len(), expect);
        assert!(recs.iter().all(|r| (0.0..=1.0).contains(&r.p)));
    }

    #[test]
    fn run_logic_random_produces_records() {
        let mut ctx = hynix_ctx();
        let recs = run_logic_random(&mut ctx, LogicOp::And, 2, 2, 7).unwrap();
        // 2 draws × 2 result rows × cols/2 shared columns.
        assert_eq!(recs.len(), 2 * 2 * ctx.cfg.geometry().cols() / 2);
        let mean: f64 = recs.iter().map(|r| r.p).sum::<f64>() / recs.len() as f64;
        assert!(mean > 0.5, "{mean}");
    }

    #[test]
    fn samsung_sequential_entries() {
        let cfg = dram_core::config::table1()
            .into_iter()
            .find(|m| m.manufacturer == Manufacturer::Samsung)
            .unwrap();
        let mut ctx = ModuleCtx::build(&cfg, &Scale::quick()).unwrap();
        assert!(
            ctx.map.shapes().is_empty(),
            "no simultaneous shapes on Samsung"
        );
        let entries = ctx.not_entries(1, &Scale::quick());
        assert!(!entries.is_empty());
        let recs = run_not(&mut ctx, &entries[0], DataPattern::Random(1)).unwrap();
        assert!(!recs.is_empty());
        let mean: f64 = recs.iter().map(|r| r.p).sum::<f64>() / recs.len() as f64;
        assert!(mean > 0.7, "Samsung 1:1 NOT should work: {mean}");
    }

    #[test]
    fn build_chip_targets_the_requested_chip() {
        let cfg = dram_core::config::table1().remove(0);
        let ctx = ModuleCtx::build_chip(&cfg, ChipId(3), &Scale::quick()).unwrap();
        assert_eq!(ctx.chip, ChipId(3));
        assert_eq!(ctx.fc.chip(), ChipId(3));
        let origin = ctx.origin();
        assert_eq!(origin.chip, 3);
        assert_eq!(origin.module, cfg.name);
        assert_eq!(origin.manufacturer, "SK Hynix");
        // The historical entry point is exactly chip 0.
        let ctx0 = ModuleCtx::build(&cfg, &Scale::quick()).unwrap();
        assert_eq!(ctx0.chip, ChipId(0));
        assert!(ctx.map.total_coverage() > 0.0, "chip 3 still discovers");
    }

    #[test]
    fn fleet_builders() {
        let scale = Scale::quick();
        let hynix = build_fleet(&scale, true);
        assert_eq!(hynix.len(), 18);
        assert!(hynix
            .iter()
            .all(|c| c.cfg.manufacturer == Manufacturer::SkHynix));
    }
}
