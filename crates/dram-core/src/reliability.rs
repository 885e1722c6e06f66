//! Calibrated per-cell success-probability model.
//!
//! The *shapes* of all reliability effects come from mechanism:
//! charge-sharing margins ([`crate::analog`]), sense-amplifier load
//! (more simultaneously driven rows → weaker restore), design-induced
//! variation (row distance to the shared stripe), bitline coupling
//! (data-pattern dependence) and temperature. The *absolute levels* are
//! fitted to the paper's measured averages; every constant below cites
//! the figure/observation it targets. Where the paper's own quoted
//! numbers are mutually inconsistent under a single per-cell model
//! (see DESIGN.md §4), headline averages (Figs. 7 and 15) win and the
//! secondary effects keep direction and approximate magnitude.
//!
//! Per-cell probabilities are produced as
//! `p = C(margin class) · Φ(z)` with
//! `z = z_base − load − regions − temperature − coupling + σ·cell_z`,
//! so the population mean over cells is `C · Φ(z̄ / sqrt(1+σ²))`
//! (by `E[Φ(a + σZ)] = Φ(a / sqrt(1 + σ²))`). Base `z` values are solved
//! at model construction by bisection against the *fleet* of Table 1
//! modules, so fleet-weighted means land on the paper's numbers by
//! construction.

use crate::analog::{AnalogParams, MarginClass};
use crate::config::{Density, DieRevision, Manufacturer, ModuleConfig};
use crate::math::normal_cdf;
use crate::thermal::Temperature;
use crate::timing::SpeedBin;
use crate::types::{BankId, Col, LocalRow, SubarrayId};
use crate::variation::ProcessVariation;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The four many-input logic operations characterized in §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LogicOp {
    /// Bulk bitwise AND (compute-subarray terminal).
    And,
    /// Bulk bitwise NAND (reference-subarray terminal of an AND).
    Nand,
    /// Bulk bitwise OR (compute-subarray terminal).
    Or,
    /// Bulk bitwise NOR (reference-subarray terminal of an OR).
    Nor,
}

impl LogicOp {
    /// All four operations.
    pub const ALL: [LogicOp; 4] = [LogicOp::And, LogicOp::Nand, LogicOp::Or, LogicOp::Nor];

    /// Whether the reference subarray is configured with N−1 all-1 rows
    /// (AND family) or N−1 all-0 rows (OR family).
    #[inline]
    pub fn is_and_family(self) -> bool {
        matches!(self, LogicOp::And | LogicOp::Nand)
    }

    /// Whether the result is read from the reference subarray
    /// (inverted terminal).
    #[inline]
    pub fn is_inverted_terminal(self) -> bool {
        matches!(self, LogicOp::Nand | LogicOp::Nor)
    }

    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            LogicOp::And => "and",
            LogicOp::Nand => "nand",
            LogicOp::Or => "or",
            LogicOp::Nor => "nor",
        }
    }
}

/// Index of an input-count N ∈ {2, 4, 8, 16} into the calibration
/// tables; returns `None` for unsupported counts.
#[inline]
fn n_index(n: usize) -> Option<usize> {
    match n {
        2 => Some(0),
        4 => Some(1),
        8 => Some(2),
        16 => Some(3),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Calibration constants. Each block cites its target.
// ---------------------------------------------------------------------

/// Cell-to-cell spread of NOT/restore reliability (z units). Sets the
/// box-plot width in Fig. 7 and allows Observation 3's 100%-cells.
pub(crate) const SIGMA_CELL_NOT: f64 = 0.60;
/// Sense-amp-to-sense-amp spread for NOT (z units).
pub(crate) const SIGMA_SA_NOT: f64 = 0.40;
/// Load penalty per simultaneously driven row beyond two (z units).
/// Fitted with `Z0` so the fleet means hit Fig. 7's 98.37% (1 dest
/// row) and 7.95% (32 dest rows), including the Jensen effect of the
/// region shifts below.
pub(crate) const ALPHA_LOAD_NOT: f64 = 0.125;
/// Temperature sensitivity for NOT (z per °C). Observation 7: ≤0.20%
/// drift from 50→95 °C.
pub(crate) const BETA_TEMP_NOT: f64 = 0.0005;
/// Design-induced z-shift by *source*-row distance region
/// {Close, Middle, Far}, zero-mean, scaled by the load fraction.
/// Middle sources fare best — consistent with the paper's best cell
/// being Middle-Far (Fig. 9).
pub(crate) const SRC_REGION_Z_NOT: [f64; 3] = [0.3, 0.7, -1.0];
/// Design-induced z-shift by *destination*-row distance region,
/// zero-mean, scaled by the load fraction. Far destinations succeed
/// more often (late far-wordline rise disturbs sensing less); with
/// [`SRC_REGION_Z_NOT`], fitted toward Fig. 9's Far-Close 44.16% /
/// Middle-Far 85.02% under destination-cell-weighted aggregation
/// (direction and ranking reproduce; see EXPERIMENTS.md for the
/// residual gap forced by consistency with Fig. 7).
pub(crate) const DST_REGION_Z_NOT: [f64; 3] = [-0.9, 0.0, 0.9];

/// Cell spread for logic-op sensing (z units) — Fig. 15 box widths.
pub const SIGMA_CELL_LOGIC: f64 = 0.85;
/// Sense-amp spread for logic ops (z units).
pub const SIGMA_SA_LOGIC: f64 = 0.30;
/// Temperature sensitivity for logic ops (z per °C). Observation 17:
/// ≤1.66% drift from 50→95 °C.
pub(crate) const BETA_TEMP_LOGIC: f64 = 0.0045;
/// Bitline-coupling penalty (z) for a fully mismatched neighborhood,
/// AND family. Observation 16 / Fig. 18: random patterns lose 1.43%
/// (AND) / 1.39% (NAND). (The base-z solver compensates, so Fig. 15's
/// random-pattern means are unaffected by this constant.)
pub(crate) const COUPLING_AND: f64 = 0.50;
/// Bitline-coupling penalty (z), OR family: 1.98% (OR) / 1.97% (NOR).
pub(crate) const COUPLING_OR: f64 = 1.00;
/// Compute-row distance coefficient for logic ops (z).
pub(crate) const DIST_COM_LOGIC: f64 = 2.8;
/// Reference-row distance coefficient for logic ops (z). With
/// [`DIST_COM_LOGIC`], targets Fig. 17's spreads (≈23% AND/NAND,
/// ≈10% OR/NOR after family weighting).
pub(crate) const DIST_REF_LOGIC: f64 = 1.8;

/// In-subarray RowClone success z (≈99.9%; RowClone is reliable on
/// COTS chips per ComputeDRAM/PiDRAM).
pub(crate) const Z_ROWCLONE: f64 = 3.7;

/// Fleet-mean targets, random data patterns (Fig. 15):
/// `B[op][n_index]` is the target mean of the margin-comfortable
/// population. AND 2→16: 84.67%→94.94% after pattern weighting;
/// OR 2→16: 95.09%→95.85%; NAND/NOR offsets per Observation 13.
const B_TARGET: [[f64; 4]; 4] = [
    // And
    [0.973, 0.930, 0.920, 0.9494],
    // Nand (B_and + {0.005, 0.004, 0.002, 0.0})
    [0.978, 0.934, 0.922, 0.9494],
    // Or
    [0.975, 0.975, 0.965, 0.9585],
    // Nor (B_or + {0.007, 0.005, 0.003, 0.0002})
    [0.982, 0.980, 0.968, 0.9587],
];

/// Success multiplier for the *critical* margin class (compute must
/// resolve toward the rail the reference crowds): Fig. 16's deep
/// worst-case drops (−45.43% at 4-input AND all-1s, −52.43% at
/// 16-input AND, −53.66% at 16-input OR, −21.46% at 4-input OR).
const C_CRIT: [[f64; 4]; 2] = [
    // And family
    [0.690, 0.512, 0.500, 0.465],
    // Or family
    [0.961, 0.780, 0.700, 0.430],
];

/// Success multiplier for the *marginal* class (one-off pattern on the
/// reference-bulk side of the threshold).
const C_MOD: [[f64; 4]; 2] = [
    // And family
    [0.900, 0.915, 0.930, 0.475],
    // Or family
    [0.970, 0.976, 0.800, 0.440],
];

/// Success multiplier for margins within [1, 2) cell units.
const C_NEAR: f64 = 0.995;

/// Die/speed z-shift for NOT operations, keyed by
/// (manufacturer, density, die, speed). Targets Figs. 11 and 12:
/// the 2400 MT/s dip, Hynix 8Gb A ≈ −8%, Samsung D ≈ −11%.
fn die_speed_shift_not(cfg: &ModuleConfig) -> f64 {
    use DieRevision as D;
    let die = match (cfg.manufacturer, cfg.density, cfg.die) {
        (Manufacturer::SkHynix, Density::Gb4, D::M) => 0.00,
        (Manufacturer::SkHynix, Density::Gb4, D::A) => -0.05,
        (Manufacturer::SkHynix, Density::Gb8, D::A) => -0.85,
        (Manufacturer::SkHynix, Density::Gb8, D::M) => 0.25,
        (Manufacturer::Samsung, Density::Gb4, D::F) => -0.75,
        (Manufacturer::Samsung, Density::Gb8, D::D) => -1.15,
        (Manufacturer::Samsung, Density::Gb8, D::A) => -0.40,
        // Unlisted combinations (e.g. Micron) get a mild penalty; their
        // operations are structurally gated elsewhere anyway.
        _ => -0.50,
    };
    let speed = match cfg.speed {
        SpeedBin::Mt2133 => 0.0,
        SpeedBin::Mt2400 => -0.90,
        SpeedBin::Mt2666 => 0.0,
        SpeedBin::Mt3200 => -0.10,
    };
    die + speed
}

/// Die-revision z-shift for logic operations (before the per-family
/// sensitivity weight). Targets Fig. 21's gaps (4Gb A above 4Gb M;
/// 8Gb M slightly above 8Gb A).
fn die_shift_logic(cfg: &ModuleConfig) -> f64 {
    use DieRevision as D;
    match (cfg.manufacturer, cfg.density, cfg.die) {
        (Manufacturer::SkHynix, Density::Gb4, D::A) => 1.55,
        (Manufacturer::SkHynix, Density::Gb4, D::M) => -1.35,
        (Manufacturer::SkHynix, Density::Gb8, D::A) => 0.10,
        (Manufacturer::SkHynix, Density::Gb8, D::M) => 0.30,
        _ => -0.50,
    }
}

/// Speed-bin z-shift for logic operations (before the per-family
/// sensitivity weight). Targets Fig. 20's 2400 MT/s dip.
fn speed_shift_logic(cfg: &ModuleConfig) -> f64 {
    match cfg.speed {
        SpeedBin::Mt2133 => 0.0,
        SpeedBin::Mt2400 => -4.40,
        SpeedBin::Mt2666 => 0.0,
        SpeedBin::Mt3200 => -0.20,
    }
}

/// Per-family sensitivity of logic ops to die variation (AND-family
/// margins are tighter, so they feel variation more — Fig. 21 quotes
/// its largest gaps for 2-input AND).
fn w_die(op: LogicOp, n_idx: usize) -> f64 {
    if op.is_and_family() {
        [1.00, 0.95, 0.85, 0.75][n_idx]
    } else {
        [0.45, 0.40, 0.35, 0.30][n_idx]
    }
}

/// Per-family sensitivity to the speed bin. The 2400 MT/s dip is
/// strongest at mid input counts (Fig. 20 quotes 4-input NAND); keeping
/// the 2-input weight small prevents the dip from inflating the solved
/// base z (and thus saturating the die comparison of Fig. 21).
fn w_speed(op: LogicOp, n_idx: usize) -> f64 {
    if op.is_and_family() {
        [0.30, 1.00, 0.85, 0.70][n_idx]
    } else {
        [0.15, 0.45, 0.40, 0.30][n_idx]
    }
}

/// Per-family sensitivity to design-induced (distance) variation
/// (Fig. 17: AND/NAND spread ≈23%, OR/NOR ≈10%).
fn w_distance(op: LogicOp) -> f64 {
    if op.is_and_family() {
        1.0
    } else {
        0.9
    }
}

/// Fraction of full load at `k` total driven rows (0 at the paper's
/// ordinary two-row case, 1 at the 16:32 maximum of 48 rows).
#[inline]
fn load_fraction(k_total: usize) -> f64 {
    ((k_total.max(2) - 2) as f64 / 46.0).min(1.0)
}

/// Solves `mean_w Φ((z + δ_i)/s) = target` for `z` by bisection.
fn solve_fleet_z(target: f64, deltas_weights: &[(f64, f64)], s: f64) -> f64 {
    debug_assert!(!deltas_weights.is_empty());
    let total_w: f64 = deltas_weights.iter().map(|(_, w)| *w).sum();
    let mean = |z: f64| -> f64 {
        deltas_weights
            .iter()
            .map(|(d, w)| w * normal_cdf((z + d) / s))
            .sum::<f64>()
            / total_w
    };
    let (mut lo, mut hi) = (-10.0f64, 12.0f64);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if mean(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Base z values solved against the Table 1 fleet: a pure function of
/// [`crate::config::table1`], shared by every chip's model.
#[derive(Debug, Clone, Copy)]
struct FleetCalibration {
    /// Base z for NOT at k=2.
    z0_not: f64,
    /// Base z per (op, N index) for logic ops.
    z_logic: [[f64; 4]; 4],
}

/// The process-wide fleet calibration, solved on first use.
fn fleet_calibration() -> &'static FleetCalibration {
    static CALIBRATION: OnceLock<FleetCalibration> = OnceLock::new();
    CALIBRATION.get_or_init(solve_fleet_calibration)
}

/// Solves the fleet calibration: 17 bisections over the Table 1 fleet.
fn solve_fleet_calibration() -> FleetCalibration {
    let fleet = crate::config::table1();
    let s_not = (1.0 + SIGMA_CELL_NOT.powi(2) + SIGMA_SA_NOT.powi(2)).sqrt();
    // NOT base: all 256 chips participate in the 1-destination-row
    // average (Samsung performs sequential 1:1 NOT).
    let not_dw: Vec<(f64, f64)> = fleet
        .iter()
        .map(|m| (die_speed_shift_not(m), m.chips as f64))
        .collect();
    let z0_not = solve_fleet_z(0.9837, &not_dw, s_not);

    let mut z_logic = [[0.0f64; 4]; 4];
    for (oi, op) in LogicOp::ALL.iter().enumerate() {
        // Activated rows sample the whole subarray, so the distance
        // terms contribute Var[w·D·(0.5−U)] = w²D²/12 of z-variance;
        // fold it into the mean-preserving width so fleet means stay
        // on target.
        let dist_var =
            w_distance(*op).powi(2) * (DIST_COM_LOGIC.powi(2) + DIST_REF_LOGIC.powi(2)) / 12.0;
        let s_logic = (1.0 + SIGMA_CELL_LOGIC.powi(2) + SIGMA_SA_LOGIC.powi(2) + dist_var).sqrt();
        for ni in 0..4 {
            let n = 2usize << ni;
            // Only simultaneous-capable modules that can reach N
            // inputs participate (the 8Gb M-die module stops at 8).
            let dw: Vec<(f64, f64)> = fleet
                .iter()
                .filter(|m| m.max_op_inputs() >= n)
                .map(|m| {
                    let cpl = if op.is_and_family() {
                        COUPLING_AND
                    } else {
                        COUPLING_OR
                    };
                    let d = w_die(*op, ni) * die_shift_logic(m)
                        + w_speed(*op, ni) * speed_shift_logic(m)
                        - cpl;
                    (d, m.chips as f64)
                })
                .collect();
            z_logic[oi][ni] = solve_fleet_z(B_TARGET[oi][ni], &dw, s_logic);
        }
    }
    FleetCalibration { z0_not, z_logic }
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// Everything the model needs to score one NOT (cross-subarray copy-
/// invert) event for a destination cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NotEvent {
    /// Total number of simultaneously driven rows (N_RF + N_RL).
    pub total_rows: usize,
    /// Normalized distance of the source row to the shared stripe.
    pub src_dist: f64,
    /// Normalized distance of the destination row to the shared stripe.
    pub dst_dist: f64,
    /// Chip temperature.
    pub temperature: Temperature,
}

/// Everything the model needs to score one logic-operation event for a
/// result cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicEvent {
    /// Which operation's result this cell receives.
    pub op: LogicOp,
    /// Input count N (rows per subarray; N:N activation).
    pub n: usize,
    /// Sensing-difficulty class from the charge-share differential.
    pub margin_class: MarginClass,
    /// Fraction (0–1) of neighboring columns whose input vectors differ
    /// from this column's (bitline-coupling exposure; 0 for uniform
    /// all-1s/0s fills, ≈1 for random fills).
    pub neighbor_mismatch: f64,
    /// Mean normalized distance of the compute rows to the stripe.
    pub com_dist: f64,
    /// Mean normalized distance of the reference rows to the stripe.
    pub ref_dist: f64,
    /// Chip temperature.
    pub temperature: Temperature,
}

/// Structural coordinates of the cell being scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRef {
    /// Bank.
    pub bank: BankId,
    /// Subarray holding the cell.
    pub subarray: SubarrayId,
    /// Row within the subarray.
    pub row: LocalRow,
    /// Column.
    pub col: Col,
    /// Index of the sense-amp stripe driving the event.
    pub stripe: usize,
}

// ---------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------

/// Per-chip reliability model: maps operation events to per-cell
/// success probabilities.
#[derive(Debug, Clone)]
pub struct ReliabilityModel {
    variation: ProcessVariation,
    analog: AnalogParams,
    /// This chip's die/speed shift for NOT.
    delta_not: f64,
    /// This chip's raw die shift for logic ops.
    delta_die_logic: f64,
    /// This chip's raw speed shift for logic ops.
    delta_speed_logic: f64,
    /// Fleet-solved base z for NOT at k=2.
    z0_not: f64,
    /// Fleet-solved base z per (op, N index) for logic ops.
    z_logic: [[f64; 4]; 4],
}

impl ReliabilityModel {
    /// Builds the model for one chip of `cfg`.
    ///
    /// Base z values are solved against the Table 1 fleet so that
    /// fleet-weighted means reproduce the paper's averages; the solve
    /// is identical for every chip, so it runs once per process.
    pub(crate) fn new(cfg: &ModuleConfig, chip_seed: u64) -> Self {
        let &FleetCalibration { z0_not, z_logic } = fleet_calibration();
        ReliabilityModel {
            variation: ProcessVariation::new(chip_seed),
            analog: AnalogParams::ddr4_default(),
            delta_not: die_speed_shift_not(cfg),
            delta_die_logic: die_shift_logic(cfg),
            delta_speed_logic: speed_shift_logic(cfg),
            z0_not,
            z_logic,
        }
    }

    /// The analog parameters used by this model.
    #[inline]
    pub(crate) fn analog(&self) -> &AnalogParams {
        &self.analog
    }

    /// The process-variation oracle for this chip.
    #[inline]
    pub(crate) fn variation(&self) -> &ProcessVariation {
        &self.variation
    }

    /// Success probability for a NOT destination cell.
    ///
    /// Combines the load penalty (Observation 4), distance effects
    /// scaled by load (Observation 6), die/speed shifts (Observations
    /// 8–9), temperature (Observation 7) and fixed per-cell/per-SA
    /// variation (Observation 3).
    pub fn not_success_prob(&self, ev: &NotEvent, cell: CellRef) -> f64 {
        use crate::variation::DistanceRegion;
        let lf = load_fraction(ev.total_rows);
        let src_z =
            SRC_REGION_Z_NOT[DistanceRegion::from_normalized(ev.src_dist.clamp(0.0, 1.0)) as usize];
        let dst_z =
            DST_REGION_Z_NOT[DistanceRegion::from_normalized(ev.dst_dist.clamp(0.0, 1.0)) as usize];
        let z = self.z0_not + self.delta_not - ALPHA_LOAD_NOT * (ev.total_rows.max(2) - 2) as f64
            + lf * (src_z + dst_z)
            - BETA_TEMP_NOT * ev.temperature.above_baseline()
            + SIGMA_CELL_NOT
                * self
                    .variation
                    .cell_not_z(cell.bank, cell.subarray, cell.row, cell.col)
            + SIGMA_SA_NOT * self.variation.sense_amp_z(cell.bank, cell.stripe, cell.col);
        normal_cdf(z).clamp(0.0, 1.0)
    }

    /// Success probability for a logic-op result cell (compute terminal
    /// for AND/OR, reference terminal for NAND/NOR).
    pub fn logic_success_prob(&self, ev: &LogicEvent, cell: CellRef) -> f64 {
        let Some(ni) = n_index(ev.n) else {
            return 0.0; // unsupported input count
        };
        let oi = match ev.op {
            LogicOp::And => 0,
            LogicOp::Nand => 1,
            LogicOp::Or => 2,
            LogicOp::Nor => 3,
        };
        let fam = if ev.op.is_and_family() { 0 } else { 1 };
        let c = match ev.margin_class {
            MarginClass::Critical => C_CRIT[fam][ni],
            MarginClass::Marginal => C_MOD[fam][ni],
            MarginClass::Near => C_NEAR,
            MarginClass::Comfortable => 1.0,
        };
        let cpl = if ev.op.is_and_family() {
            COUPLING_AND
        } else {
            COUPLING_OR
        };
        let dist = w_distance(ev.op)
            * (DIST_COM_LOGIC * (0.5 - ev.com_dist.clamp(0.0, 1.0))
                + DIST_REF_LOGIC * (0.5 - ev.ref_dist.clamp(0.0, 1.0)));
        let z = self.z_logic[oi][ni]
            + w_die(ev.op, ni) * self.delta_die_logic
            + w_speed(ev.op, ni) * self.delta_speed_logic
            - cpl * ev.neighbor_mismatch.clamp(0.0, 1.0)
            + dist
            - BETA_TEMP_LOGIC * ev.temperature.above_baseline()
            + SIGMA_CELL_LOGIC
                * self
                    .variation
                    .cell_logic_z(cell.bank, cell.subarray, cell.row, cell.col)
            + SIGMA_SA_LOGIC * self.variation.sense_amp_z(cell.bank, cell.stripe, cell.col);
        (c * normal_cdf(z)).clamp(0.0, 1.0)
    }

    // -----------------------------------------------------------------
    // Row-batch decomposition (the columnar fast path)
    // -----------------------------------------------------------------
    //
    // Each per-cell probability is `f(row-invariant base, per-cell
    // variation terms)`. The helpers below expose the row-invariant
    // parts with the *same floating-point evaluation order* as the
    // scalar entry points, so `base + σ_cell·z_cell + σ_sa·z_sa`
    // reproduces `not_success_prob`/`logic_success_prob` bit-for-bit.

    /// Column-invariant part of the NOT z-score (everything in
    /// [`Self::not_success_prob`] except the per-cell and per-SA
    /// variation terms).
    pub(crate) fn not_z_base(&self, ev: &NotEvent) -> f64 {
        use crate::variation::DistanceRegion;
        let lf = load_fraction(ev.total_rows);
        let src_z =
            SRC_REGION_Z_NOT[DistanceRegion::from_normalized(ev.src_dist.clamp(0.0, 1.0)) as usize];
        let dst_z =
            DST_REGION_Z_NOT[DistanceRegion::from_normalized(ev.dst_dist.clamp(0.0, 1.0)) as usize];
        self.z0_not + self.delta_not - ALPHA_LOAD_NOT * (ev.total_rows.max(2) - 2) as f64
            + lf * (src_z + dst_z)
            - BETA_TEMP_NOT * ev.temperature.above_baseline()
    }

    /// Column-invariant prefix of the logic z-score: the solved base z
    /// plus this chip's die and speed shifts. `None` for unsupported
    /// input counts (the scalar path scores those 0).
    pub fn logic_z_prefix(&self, op: LogicOp, n: usize) -> Option<f64> {
        let ni = n_index(n)?;
        let oi = match op {
            LogicOp::And => 0,
            LogicOp::Nand => 1,
            LogicOp::Or => 2,
            LogicOp::Nor => 3,
        };
        Some(
            self.z_logic[oi][ni]
                + w_die(op, ni) * self.delta_die_logic
                + w_speed(op, ni) * self.delta_speed_logic,
        )
    }

    /// Bitline-coupling penalty coefficient for `op`'s family.
    #[inline]
    pub fn coupling(op: LogicOp) -> f64 {
        if op.is_and_family() {
            COUPLING_AND
        } else {
            COUPLING_OR
        }
    }

    /// Design-induced distance term of the logic z-score for one
    /// result row.
    #[inline]
    pub fn logic_dist_term(op: LogicOp, com_dist: f64, ref_dist: f64) -> f64 {
        w_distance(op)
            * (DIST_COM_LOGIC * (0.5 - com_dist.clamp(0.0, 1.0))
                + DIST_REF_LOGIC * (0.5 - ref_dist.clamp(0.0, 1.0)))
    }

    /// Margin-class success multiplier for `op` at `n` inputs.
    pub(crate) fn margin_multiplier(op: LogicOp, n: usize, class: MarginClass) -> f64 {
        let Some(ni) = n_index(n) else { return 0.0 };
        let fam = if op.is_and_family() { 0 } else { 1 };
        match class {
            MarginClass::Critical => C_CRIT[fam][ni],
            MarginClass::Marginal => C_MOD[fam][ni],
            MarginClass::Near => C_NEAR,
            MarginClass::Comfortable => 1.0,
        }
    }

    /// Temperature term of the logic/majority z-score.
    #[inline]
    pub fn logic_temp_term(temperature: Temperature) -> f64 {
        BETA_TEMP_LOGIC * temperature.above_baseline()
    }

    /// Success multiplier of a majority result cell whose inputs sum
    /// `margin_cells` (|Σinputs − N/2|, in cell units) away from a tie.
    #[inline]
    pub(crate) fn maj_multiplier(margin_cells: f64) -> f64 {
        if margin_cells < 0.75 {
            0.55
        } else if margin_cells < 1.5 {
            0.93
        } else if margin_cells < 2.5 {
            0.99
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::table1;
    use crate::types::ChipId;

    impl ReliabilityModel {
        /// Success probability for an in-subarray RowClone destination cell.
        fn rowclone_success_prob(&self, cell: CellRef) -> f64 {
            let z = Z_ROWCLONE
                + SIGMA_CELL_NOT
                    * self
                        .variation
                        .cell_not_z(cell.bank, cell.subarray, cell.row, cell.col);
            normal_cdf(z)
        }
    }

    fn model_for(idx: usize) -> (ModuleConfig, ReliabilityModel) {
        let cfg = table1().into_iter().nth(idx).unwrap();
        let m = ReliabilityModel::new(&cfg, cfg.chip_seed(ChipId(0)));
        (cfg, m)
    }

    fn cell(i: usize) -> CellRef {
        CellRef {
            bank: BankId(0),
            subarray: SubarrayId(1),
            row: LocalRow(i % 512),
            col: Col(2 * (i % 300)),
            stripe: 1,
        }
    }

    /// Uniform deviate for sampling row distances in tests.
    fn unit(i: usize, salt: u64) -> f64 {
        crate::math::hash_to_unit(crate::math::mix2(salt, i as u64))
    }

    fn fleet_not_mean(dest_rows_total: usize) -> f64 {
        // Chip-weighted mean of per-module cell-averaged NOT success,
        // with source/destination rows sampled uniformly (as the
        // paper's exhaustive row scans do).
        let fleet = table1();
        let mut num = 0.0;
        let mut den = 0.0;
        for cfg in &fleet {
            let m = ReliabilityModel::new(cfg, cfg.chip_seed(ChipId(0)));
            let mean: f64 = (0..600)
                .map(|i| {
                    let ev = NotEvent {
                        total_rows: dest_rows_total,
                        src_dist: unit(i, 0x51C),
                        dst_dist: unit(i, 0xD57),
                        temperature: Temperature::BASELINE,
                    };
                    m.not_success_prob(&ev, cell(i))
                })
                .sum::<f64>()
                / 600.0;
            num += mean * cfg.chips as f64;
            den += cfg.chips as f64;
        }
        num / den
    }

    #[test]
    fn not_one_destination_row_matches_headline() {
        // Paper: 98.37% average success for NOT with 1 destination row.
        let mean = fleet_not_mean(2);
        assert!((mean - 0.9837).abs() < 0.012, "fleet NOT d=1 mean {mean}");
    }

    #[test]
    fn not_success_declines_with_load() {
        let (_, m) = model_for(0);
        let mut last = 1.1;
        for k in [2usize, 4, 8, 16, 32, 48] {
            let ev = NotEvent {
                total_rows: k,
                src_dist: 0.5,
                dst_dist: 0.5,
                temperature: Temperature::BASELINE,
            };
            let mean: f64 = (0..400)
                .map(|i| m.not_success_prob(&ev, cell(i)))
                .sum::<f64>()
                / 400.0;
            assert!(mean < last, "k={k}: {mean} !< {last}");
            last = mean;
        }
    }

    #[test]
    fn not_32_destination_rows_near_paper() {
        // Paper: 7.95% at 32 destination rows (16:32, 48 driven rows).
        // Only the 16:32-capable Hynix modules participate.
        let fleet = table1();
        let mut num = 0.0;
        let mut den = 0.0;
        for cfg in fleet
            .iter()
            .filter(|c| c.supports_n2n && c.max_merge_groups >= 4)
        {
            let m = ReliabilityModel::new(cfg, cfg.chip_seed(ChipId(0)));
            let mean: f64 = (0..600)
                .map(|i| {
                    let ev = NotEvent {
                        total_rows: 48,
                        src_dist: unit(i, 0x51C),
                        dst_dist: unit(i, 0xD57),
                        temperature: Temperature::BASELINE,
                    };
                    m.not_success_prob(&ev, cell(i))
                })
                .sum::<f64>()
                / 600.0;
            num += mean * cfg.chips as f64;
            den += cfg.chips as f64;
        }
        let mean = num / den;
        assert!((mean - 0.0795).abs() < 0.04, "fleet NOT d=32 mean {mean}");
    }

    #[test]
    fn not_temperature_effect_is_small() {
        let (_, m) = model_for(0);
        let mk = |t: f64| NotEvent {
            total_rows: 2,
            src_dist: 0.5,
            dst_dist: 0.5,
            temperature: Temperature::celsius(t),
        };
        let p50: f64 = (0..400)
            .map(|i| m.not_success_prob(&mk(50.0), cell(i)))
            .sum::<f64>()
            / 400.0;
        let p95: f64 = (0..400)
            .map(|i| m.not_success_prob(&mk(95.0), cell(i)))
            .sum::<f64>()
            / 400.0;
        assert!(p50 >= p95, "hotter must not help");
        assert!(p50 - p95 < 0.01, "NOT temp drift too large: {}", p50 - p95);
    }

    #[test]
    fn not_src_middle_beats_far_under_load() {
        // Fig. 9: Middle sources fare best, Far sources worst.
        let (_, m) = model_for(0);
        let mk = |src: f64| NotEvent {
            total_rows: 24,
            src_dist: src,
            dst_dist: 0.5,
            temperature: Temperature::BASELINE,
        };
        let middle: f64 = (0..400)
            .map(|i| m.not_success_prob(&mk(0.5), cell(i)))
            .sum::<f64>()
            / 400.0;
        let far: f64 = (0..400)
            .map(|i| m.not_success_prob(&mk(0.95), cell(i)))
            .sum::<f64>()
            / 400.0;
        assert!(middle > far + 0.03, "middle={middle} far={far}");
    }

    #[test]
    fn not_dst_far_helps_under_load() {
        let (_, m) = model_for(0);
        let mk = |dst: f64| NotEvent {
            total_rows: 24,
            src_dist: 0.5,
            dst_dist: dst,
            temperature: Temperature::BASELINE,
        };
        let close: f64 = (0..400)
            .map(|i| m.not_success_prob(&mk(0.1), cell(i)))
            .sum::<f64>()
            / 400.0;
        let far: f64 = (0..400)
            .map(|i| m.not_success_prob(&mk(0.9), cell(i)))
            .sum::<f64>()
            / 400.0;
        assert!(far > close, "far={far} close={close}");
    }

    fn logic_mean(op: LogicOp, n: usize, class: MarginClass) -> f64 {
        // Fleet mean over participating modules, random pattern, with
        // activated-row distances sampled uniformly (as the exhaustive
        // row scans do — the solver assumes this distribution).
        let fleet = table1();
        let mut num = 0.0;
        let mut den = 0.0;
        for cfg in fleet.iter().filter(|c| c.max_op_inputs() >= n) {
            let m = ReliabilityModel::new(cfg, cfg.chip_seed(ChipId(0)));
            let mean: f64 = (0..600)
                .map(|i| {
                    let ev = LogicEvent {
                        op,
                        n,
                        margin_class: class,
                        neighbor_mismatch: 1.0,
                        com_dist: unit(i, 0xC0D1),
                        ref_dist: unit(i, 0x4EFD),
                        temperature: Temperature::BASELINE,
                    };
                    m.logic_success_prob(&ev, cell(i))
                })
                .sum::<f64>()
                / 600.0;
            num += mean * cfg.chips as f64;
            den += cfg.chips as f64;
        }
        num / den
    }

    /// Pattern-weighted mean over uniformly random inputs: the
    /// binomial mixture of margin classes for an N-input op.
    fn pattern_weighted_mean(op: LogicOp, n: usize) -> f64 {
        let comfortable = logic_mean(op, n, MarginClass::Comfortable);
        let near = logic_mean(op, n, MarginClass::Near);
        let modm = logic_mean(op, n, MarginClass::Marginal);
        let crit = logic_mean(op, n, MarginClass::Critical);
        let total = (1u64 << n) as f64;
        // Count patterns by class: for AND family, crit = all ones,
        // marginal = exactly one zero, near = exactly two zeros.
        let n_f = n as f64;
        let w_crit = 1.0;
        let w_mod = n_f;
        let w_near = n_f * (n_f - 1.0) / 2.0;
        let w_comf = total - w_crit - w_mod - w_near;
        (w_crit * crit + w_mod * modm + w_near * near + w_comf * comfortable) / total
    }

    #[test]
    fn fig15_and_means() {
        // Paper: 2-input 84.67%, 16-input 94.94%.
        let p2 = pattern_weighted_mean(LogicOp::And, 2);
        let p16 = pattern_weighted_mean(LogicOp::And, 16);
        assert!((p2 - 0.8467).abs() < 0.025, "AND-2 {p2}");
        assert!((p16 - 0.9494).abs() < 0.02, "AND-16 {p16}");
    }

    #[test]
    fn fig15_or_means() {
        let p2 = pattern_weighted_mean(LogicOp::Or, 2);
        let p16 = pattern_weighted_mean(LogicOp::Or, 16);
        assert!((p2 - 0.9509).abs() < 0.02, "OR-2 {p2}");
        assert!((p16 - 0.9585).abs() < 0.02, "OR-16 {p16}");
    }

    #[test]
    fn fig15_monotone_in_inputs() {
        // Observation 11.
        let mut last = 0.0;
        for n in [2usize, 4, 8, 16] {
            let p = pattern_weighted_mean(LogicOp::And, n);
            assert!(p > last, "AND-{n}: {p} !> {last}");
            last = p;
        }
    }

    #[test]
    fn or_beats_and_at_two_inputs() {
        // Observation 12: ≈10.4% gap at 2 inputs.
        let and2 = pattern_weighted_mean(LogicOp::And, 2);
        let or2 = pattern_weighted_mean(LogicOp::Or, 2);
        assert!(or2 - and2 > 0.06, "or={or2} and={and2}");
    }

    #[test]
    fn nand_close_to_and() {
        // Observation 13: ≤1% apart.
        for n in [2usize, 16] {
            let a = pattern_weighted_mean(LogicOp::And, n);
            let na = pattern_weighted_mean(LogicOp::Nand, n);
            assert!((a - na).abs() < 0.02, "n={n}: and={a} nand={na}");
        }
    }

    #[test]
    fn fig16_worst_case_drops() {
        // 4-input AND: all-ones drops ≈45% below all-zeros.
        let base = logic_mean(LogicOp::And, 4, MarginClass::Comfortable);
        let crit = logic_mean(LogicOp::And, 4, MarginClass::Critical);
        assert!((base - crit - 0.4543).abs() < 0.06, "drop {}", base - crit);
        // 16-input OR: one-one drops ≈54% below all-ones.
        let base = logic_mean(LogicOp::Or, 16, MarginClass::Comfortable);
        let m = logic_mean(LogicOp::Or, 16, MarginClass::Marginal);
        assert!((base - m - 0.5366).abs() < 0.07, "drop {}", base - m);
    }

    #[test]
    fn uniform_patterns_beat_random() {
        // Fig. 18: removing coupling helps by ~1.4–2%.
        let (_, m) = model_for(0);
        for op in LogicOp::ALL {
            let mk = |mm: f64| LogicEvent {
                op,
                n: 8,
                margin_class: MarginClass::Comfortable,
                neighbor_mismatch: mm,
                com_dist: 0.5,
                ref_dist: 0.5,
                temperature: Temperature::BASELINE,
            };
            let rand_p: f64 = (0..400)
                .map(|i| m.logic_success_prob(&mk(1.0), cell(i)))
                .sum::<f64>()
                / 400.0;
            let unif_p: f64 = (0..400)
                .map(|i| m.logic_success_prob(&mk(0.0), cell(i)))
                .sum::<f64>()
                / 400.0;
            assert!(
                unif_p > rand_p,
                "{op:?}: uniform {unif_p} !> random {rand_p}"
            );
            assert!(
                unif_p - rand_p < 0.06,
                "{op:?}: gap too large {}",
                unif_p - rand_p
            );
        }
    }

    #[test]
    fn logic_temperature_effect_small_but_present() {
        let (_, m) = model_for(0);
        let mk = |t: f64| LogicEvent {
            op: LogicOp::And,
            n: 8,
            margin_class: MarginClass::Comfortable,
            neighbor_mismatch: 1.0,
            com_dist: 0.5,
            ref_dist: 0.5,
            temperature: Temperature::celsius(t),
        };
        let p50: f64 = (0..400)
            .map(|i| m.logic_success_prob(&mk(50.0), cell(i)))
            .sum::<f64>()
            / 400.0;
        let p95: f64 = (0..400)
            .map(|i| m.logic_success_prob(&mk(95.0), cell(i)))
            .sum::<f64>()
            / 400.0;
        assert!(p50 > p95);
        assert!(p50 - p95 < 0.035, "drift {}", p50 - p95);
    }

    #[test]
    fn speed_2400_dip_for_logic() {
        // Fig. 20: 2133 → 2400 drops hard for AND-family ops.
        let fleet = table1();
        let c2133 = fleet
            .iter()
            .find(|c| c.speed == SpeedBin::Mt2133 && c.manufacturer == Manufacturer::SkHynix)
            .unwrap();
        let c2400 = fleet
            .iter()
            .find(|c| c.speed == SpeedBin::Mt2400 && c.density == Density::Gb4)
            .unwrap();
        let mk = |i: usize| LogicEvent {
            op: LogicOp::Nand,
            n: 4,
            margin_class: MarginClass::Comfortable,
            neighbor_mismatch: 1.0,
            com_dist: unit(i, 0xC0D1),
            ref_dist: unit(i, 0x4EFD),
            temperature: Temperature::BASELINE,
        };
        let m1 = ReliabilityModel::new(c2133, c2133.chip_seed(ChipId(0)));
        let m2 = ReliabilityModel::new(c2400, c2400.chip_seed(ChipId(0)));
        let p1: f64 = (0..400)
            .map(|i| m1.logic_success_prob(&mk(i), cell(i)))
            .sum::<f64>()
            / 400.0;
        let p2: f64 = (0..400)
            .map(|i| m2.logic_success_prob(&mk(i), cell(i)))
            .sum::<f64>()
            / 400.0;
        // The paper quotes −29.89% for the speed group; this compares
        // only the die-advantaged 4Gb A x4 module. Under the fleet-mean
        // constraint of Fig. 15 the per-module dip is ≈−10%; the group
        // dip (fig20 experiment test) is larger (see EXPERIMENTS.md).
        assert!(p1 - p2 > 0.08, "2133={p1} 2400={p2}");
    }

    #[test]
    fn rowclone_is_very_reliable() {
        let (_, m) = model_for(0);
        let mean: f64 = (0..400)
            .map(|i| m.rowclone_success_prob(cell(i)))
            .sum::<f64>()
            / 400.0;
        assert!(mean > 0.99, "{mean}");
    }

    #[test]
    fn sampling_matches_probability() {
        let (_, m) = model_for(0);
        let p = 0.75;
        let hits = (0..20_000)
            .filter(|t| m.variation().trial_unit(0xE7, *t) < p)
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - p).abs() < 0.01, "{rate}");
    }

    #[test]
    fn row_batch_decomposition_matches_scalar_bitwise() {
        use crate::math::normal_cdf;
        let (_, m) = model_for(0);
        let v = m.variation();
        for i in 0..200 {
            let cellref = cell(i);
            let t = Temperature::celsius(50.0 + (i % 46) as f64);
            let ev = NotEvent {
                total_rows: 2 + i % 30,
                src_dist: unit(i, 1),
                dst_dist: unit(i, 2),
                temperature: t,
            };
            let cz = v.cell_not_z(cellref.bank, cellref.subarray, cellref.row, cellref.col);
            let sz = v.sense_amp_z(cellref.bank, cellref.stripe, cellref.col);
            let batch = normal_cdf(m.not_z_base(&ev) + SIGMA_CELL_NOT * cz + SIGMA_SA_NOT * sz)
                .clamp(0.0, 1.0);
            assert_eq!(batch, m.not_success_prob(&ev, cellref), "NOT case {i}");

            for op in LogicOp::ALL {
                let class = [
                    MarginClass::Critical,
                    MarginClass::Marginal,
                    MarginClass::Near,
                    MarginClass::Comfortable,
                ][i % 4];
                let n = [2usize, 4, 8, 16][i % 4];
                let mm = unit(i, 3);
                let lev = LogicEvent {
                    op,
                    n,
                    margin_class: class,
                    neighbor_mismatch: mm,
                    com_dist: unit(i, 4),
                    ref_dist: unit(i, 5),
                    temperature: t,
                };
                let lz = v.cell_logic_z(cellref.bank, cellref.subarray, cellref.row, cellref.col);
                let z = m.logic_z_prefix(op, n).unwrap()
                    - ReliabilityModel::coupling(op) * mm.clamp(0.0, 1.0)
                    + ReliabilityModel::logic_dist_term(op, lev.com_dist, lev.ref_dist)
                    - ReliabilityModel::logic_temp_term(t)
                    + SIGMA_CELL_LOGIC * lz
                    + SIGMA_SA_LOGIC * sz;
                let c = ReliabilityModel::margin_multiplier(op, n, class);
                let batch = (c * normal_cdf(z)).clamp(0.0, 1.0);
                assert_eq!(
                    batch,
                    m.logic_success_prob(&lev, cellref),
                    "{op:?} case {i}"
                );
            }
        }
    }

    #[test]
    fn unsupported_input_count_scores_zero() {
        let (_, m) = model_for(0);
        let ev = LogicEvent {
            op: LogicOp::And,
            n: 3,
            margin_class: MarginClass::Comfortable,
            neighbor_mismatch: 1.0,
            com_dist: 0.5,
            ref_dist: 0.5,
            temperature: Temperature::BASELINE,
        };
        assert_eq!(m.logic_success_prob(&ev, cell(0)), 0.0);
    }
}
