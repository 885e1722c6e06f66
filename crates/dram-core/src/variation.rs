//! Process variation and design-induced variation.
//!
//! Two kinds of variation shape the paper's results:
//!
//! * **Process variation** — every cell, and every sense amplifier, has
//!   a fixed manufacturing-time deviation (threshold offsets, drive
//!   strength). We derive these deterministically from the chip seed so
//!   that a chip's "weak" and "strong" cells are stable across
//!   experiments, exactly like silicon.
//! * **Design-induced variation** (Lee et al., SIGMETRICS'17; the
//!   paper's Figs. 9 and 17) — cells physically closer to or farther
//!   from the sense-amplifier stripe have deterministically different
//!   access characteristics. We expose the normalized distance of a row
//!   to a given stripe and the paper's Close/Middle/Far tertiles.

use crate::math::{hash_to_normal, mix3, mix4, splitmix64};
use crate::types::{BankId, Col, LocalRow, StripeSide, SubarrayId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Distance tertile of a row relative to a sense-amplifier stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DistanceRegion {
    /// Closest third of the subarray to the stripe.
    Close,
    /// Middle third.
    Middle,
    /// Farthest third.
    Far,
}

impl DistanceRegion {
    /// All regions in increasing distance order.
    pub const ALL: [DistanceRegion; 3] = [
        DistanceRegion::Close,
        DistanceRegion::Middle,
        DistanceRegion::Far,
    ];

    /// Buckets a normalized distance (0 = adjacent to the stripe,
    /// 1 = farthest row) into a tertile.
    pub fn from_normalized(d: f64) -> DistanceRegion {
        if d < 1.0 / 3.0 {
            DistanceRegion::Close
        } else if d < 2.0 / 3.0 {
            DistanceRegion::Middle
        } else {
            DistanceRegion::Far
        }
    }

    /// Mean normalized distance of rows in this tertile.
    pub fn mean_normalized(self) -> f64 {
        match self {
            DistanceRegion::Close => 1.0 / 6.0,
            DistanceRegion::Middle => 0.5,
            DistanceRegion::Far => 5.0 / 6.0,
        }
    }
}

impl fmt::Display for DistanceRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistanceRegion::Close => write!(f, "Close"),
            DistanceRegion::Middle => write!(f, "Middle"),
            DistanceRegion::Far => write!(f, "Far"),
        }
    }
}

/// Normalized distance (0..1) of `row` to the stripe on `side` of its
/// subarray, for a subarray with `rows` rows.
///
/// Row 0 is physically adjacent to the stripe *above* (shared with the
/// previous subarray); row `rows-1` is adjacent to the stripe *below*.
pub fn row_distance(row: LocalRow, rows: usize, side: StripeSide) -> f64 {
    debug_assert!(rows > 1);
    let r = row.index().min(rows - 1) as f64;
    let denom = (rows - 1) as f64;
    match side {
        StripeSide::Above => r / denom,
        StripeSide::Below => (denom - r) / denom,
    }
}

/// Distance tertile of `row` relative to the stripe on `side`.
pub fn row_region(row: LocalRow, rows: usize, side: StripeSide) -> DistanceRegion {
    DistanceRegion::from_normalized(row_distance(row, rows, side))
}

/// Deterministic per-cell / per-sense-amp process variation for one
/// chip.
///
/// All methods are pure functions of the chip seed and the structural
/// coordinates; no state is stored per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessVariation {
    seed: u64,
}

/// Monte-Carlo draws for the cells of one row in one operation (see
/// [`ProcessVariation::row_sampler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSampler {
    /// `splitmix64(seed ^ 0x7214)`: the first stage of every draw.
    chip: u64,
    /// `mix2(op, row_key)`: the first two stages of every cell key.
    row: u64,
}

impl RowSampler {
    /// The uniform deviate of column `col`.
    ///
    /// Unrolls `mix4(chip_seed, mix3(op, row_key, col), 0, 1)` from
    /// its hoisted stages: one round finishes the cell key, three
    /// finish the draw (the trial-0 stage XORs in zero).
    #[inline]
    pub fn unit(&self, col: usize) -> f64 {
        let key = splitmix64(self.row ^ (col as u64).rotate_left(41));
        let h = splitmix64(splitmix64(self.chip ^ key.rotate_left(23)));
        crate::math::hash_to_unit(splitmix64(h ^ 1u64.rotate_left(7)))
    }

    /// Whether column `col`'s event with success probability `p`
    /// succeeds.
    #[inline]
    pub fn sample(&self, col: usize, p: f64) -> bool {
        self.unit(col) < p
    }
}

/// Correlation between a cell's NOT-drive deviation and its logic-op
/// sensing deviation. The same physical cell is involved in both, but
/// the dominant failure mechanisms differ (restore drive vs. sensing
/// margin), so the correlation is partial.
pub const NOT_LOGIC_CORRELATION: f64 = 0.35;

impl ProcessVariation {
    /// Creates the variation oracle for a chip.
    pub fn new(chip_seed: u64) -> Self {
        ProcessVariation {
            seed: crate::math::mix2(chip_seed, 0xFAB5),
        }
    }

    /// Standard-normal deviation of a cell's NOT/restore behaviour.
    ///
    /// Positive values mean a more reliable cell.
    pub fn cell_not_z(&self, bank: BankId, sub: SubarrayId, row: LocalRow, col: Col) -> f64 {
        let h = mix4(
            self.seed ^ 0x0717,
            bank.index() as u64,
            ((sub.index() as u64) << 32) | row.index() as u64,
            col.index() as u64,
        );
        hash_to_normal(h)
    }

    /// Standard-normal deviation of a cell's logic-op sensing
    /// behaviour, partially correlated with [`Self::cell_not_z`].
    pub fn cell_logic_z(&self, bank: BankId, sub: SubarrayId, row: LocalRow, col: Col) -> f64 {
        let rho = NOT_LOGIC_CORRELATION;
        let h = mix4(
            self.seed ^ 0x106C,
            bank.index() as u64,
            ((sub.index() as u64) << 32) | row.index() as u64,
            col.index() as u64,
        );
        let indep = hash_to_normal(h);
        rho * self.cell_not_z(bank, sub, row, col) + (1.0 - rho * rho).sqrt() * indep
    }

    /// Standard-normal deviation of a sense amplifier (stripe `stripe`,
    /// column `col`): drive strength and input offset folded into one
    /// score. Positive is stronger.
    ///
    /// Stripe `i` is the SA row between subarrays `i-1` and `i`; stripe
    /// indices run 0..=subarrays (edges included).
    pub fn sense_amp_z(&self, bank: BankId, stripe: usize, col: Col) -> f64 {
        let h = mix4(
            self.seed ^ 0x5A5A,
            bank.index() as u64,
            stripe as u64,
            col.index() as u64,
        );
        hash_to_normal(h)
    }

    /// Multiplicative deviation (mean 1.0) of the level actually stored
    /// by a `Frac` operation in a given cell, around the nominal
    /// fractional level. FracDRAM reports sizable cell-to-cell spread.
    pub fn frac_level_factor(&self, bank: BankId, sub: SubarrayId, row: LocalRow, col: Col) -> f64 {
        let h = mix4(
            self.seed ^ 0xF2AC,
            bank.index() as u64,
            ((sub.index() as u64) << 32) | row.index() as u64,
            col.index() as u64,
        );
        1.0 + 0.04 * hash_to_normal(h)
    }

    /// Per-trial uniform deviate for Monte-Carlo sampling, indexed by a
    /// caller-chosen event key and trial number.
    pub fn trial_unit(&self, event_key: u64, trial: u64) -> f64 {
        crate::math::hash_to_unit(mix4(self.seed ^ 0x7214, event_key, trial, 0x1))
    }

    /// The trial-0 sampler of one cell row: `unit(col)` is
    /// `trial_unit(mix3(op, row_key, col), 0)`, bit for bit, with the
    /// chip- and row-invariant mixing stages computed once here.
    #[inline]
    pub fn row_sampler(&self, op: u64, row_key: u64) -> RowSampler {
        RowSampler {
            chip: splitmix64(self.seed ^ 0x7214),
            row: crate::math::mix2(op, row_key),
        }
    }

    /// RowHammer threshold of a cell: the number of aggressor
    /// activations after which it is likely to flip. Log-normally
    /// distributed around ≈60k activations, per RowHammer literature.
    pub fn hammer_threshold(&self, bank: BankId, sub: SubarrayId, row: LocalRow, col: Col) -> f64 {
        let h = mix4(
            self.seed ^ 0x44A4,
            bank.index() as u64,
            ((sub.index() as u64) << 32) | row.index() as u64,
            col.index() as u64,
        );
        60_000.0 * (0.55 * hash_to_normal(h)).exp()
    }

    // -----------------------------------------------------------------
    // Row-batch variants (the columnar fast path)
    // -----------------------------------------------------------------
    //
    // `mix4(a, b, c, col)` is `splitmix64(mix3(a, b, c) ^ rotl(col, 7))`,
    // so the first three mix stages are column-invariant and can be
    // hoisted out of the column loop. Every fill below is bit-identical
    // to calling the scalar accessor per column.

    #[inline]
    fn row_prefix(&self, tag: u64, bank: BankId, sub: SubarrayId, row: LocalRow) -> u64 {
        mix3(
            self.seed ^ tag,
            bank.index() as u64,
            ((sub.index() as u64) << 32) | row.index() as u64,
        )
    }

    /// Fills `out[c]` with [`Self::cell_not_z`] for every column.
    pub fn fill_cell_not_z(&self, bank: BankId, sub: SubarrayId, row: LocalRow, out: &mut [f64]) {
        let pre = self.row_prefix(0x0717, bank, sub, row);
        for (c, slot) in out.iter_mut().enumerate() {
            *slot = hash_to_normal(splitmix64(pre ^ (c as u64).rotate_left(7)));
        }
    }

    /// Fills `out[c]` with [`Self::cell_logic_z`] for every column.
    pub fn fill_cell_logic_z(&self, bank: BankId, sub: SubarrayId, row: LocalRow, out: &mut [f64]) {
        let rho = NOT_LOGIC_CORRELATION;
        let w = (1.0 - rho * rho).sqrt();
        let pre_logic = self.row_prefix(0x106C, bank, sub, row);
        let pre_not = self.row_prefix(0x0717, bank, sub, row);
        for (c, slot) in out.iter_mut().enumerate() {
            let key = (c as u64).rotate_left(7);
            let indep = hash_to_normal(splitmix64(pre_logic ^ key));
            let not_z = hash_to_normal(splitmix64(pre_not ^ key));
            *slot = rho * not_z + w * indep;
        }
    }

    /// Fills `out[c]` with [`Self::sense_amp_z`] for every column of a
    /// stripe.
    pub fn fill_sense_amp_z(&self, bank: BankId, stripe: usize, out: &mut [f64]) {
        let pre = mix3(self.seed ^ 0x5A5A, bank.index() as u64, stripe as u64);
        for (c, slot) in out.iter_mut().enumerate() {
            *slot = hash_to_normal(splitmix64(pre ^ (c as u64).rotate_left(7)));
        }
    }

    /// Fills `out[c]` with [`Self::frac_level_factor`] for every column.
    pub fn fill_frac_level_factor(
        &self,
        bank: BankId,
        sub: SubarrayId,
        row: LocalRow,
        out: &mut [f64],
    ) {
        let pre = self.row_prefix(0xF2AC, bank, sub, row);
        for (c, slot) in out.iter_mut().enumerate() {
            *slot = 1.0 + 0.04 * hash_to_normal(splitmix64(pre ^ (c as u64).rotate_left(7)));
        }
    }
}

// ---------------------------------------------------------------------
// Cached per-row variation arrays
// ---------------------------------------------------------------------

/// Memoized per-row static-variation arrays.
///
/// The scalar accessors on [`ProcessVariation`] re-derive every cell's
/// z-score from the chip seed on each call — three 64-bit mixes plus an
/// inverse-normal per cell per operation. Operations touch the same
/// scratch rows over and over, so the chip keeps these arrays cached:
/// first touch fills a row (`O(cols)`), every later operation is an
/// `Arc` clone, so a kernel borrows the row without copying it.
#[derive(Debug, Clone, Default)]
pub struct VariationCache {
    not_z: HashMap<(u32, u32, u32), Arc<[f64]>>,
    logic_z: HashMap<(u32, u32, u32), Arc<[f64]>>,
    sa_z: HashMap<(u32, u32), Arc<[f64]>>,
}

/// Fetches a cached row, refilling when absent or when the requested
/// width differs from the cached one (callers normally always pass the
/// chip's fixed column count; the check closes the trap if they don't).
fn cached_row<F>(
    map: &mut HashMap<(u32, u32, u32), Arc<[f64]>>,
    key: (u32, u32, u32),
    cols: usize,
    fill: F,
) -> Arc<[f64]>
where
    F: Fn(&mut [f64]),
{
    if map.len() >= CACHE_ROW_CAP {
        map.clear();
    }
    let entry = map.entry(key).or_insert_with(|| {
        let mut buf = vec![0.0; cols];
        fill(&mut buf);
        buf.into()
    });
    if entry.len() != cols {
        let mut buf = vec![0.0; cols];
        fill(&mut buf);
        *entry = buf.into();
    }
    entry.clone()
}

/// Soft cap on cached rows per kind; beyond this the map is cleared
/// (operations cycle through a small set of scratch rows, so the cap
/// only guards pathological access patterns).
const CACHE_ROW_CAP: usize = 8192;

impl VariationCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        VariationCache::default()
    }

    /// Number of cached rows across all kinds (for tests/diagnostics).
    pub fn cached_rows(&self) -> usize {
        self.not_z.len() + self.logic_z.len() + self.sa_z.len()
    }

    /// Cached [`ProcessVariation::cell_not_z`] row.
    pub fn not_z(
        &mut self,
        v: &ProcessVariation,
        bank: BankId,
        sub: SubarrayId,
        row: LocalRow,
        cols: usize,
    ) -> Arc<[f64]> {
        cached_row(
            &mut self.not_z,
            (bank.index() as u32, sub.index() as u32, row.index() as u32),
            cols,
            |buf| v.fill_cell_not_z(bank, sub, row, buf),
        )
    }

    /// Cached [`ProcessVariation::cell_logic_z`] row.
    pub fn logic_z(
        &mut self,
        v: &ProcessVariation,
        bank: BankId,
        sub: SubarrayId,
        row: LocalRow,
        cols: usize,
    ) -> Arc<[f64]> {
        cached_row(
            &mut self.logic_z,
            (bank.index() as u32, sub.index() as u32, row.index() as u32),
            cols,
            |buf| v.fill_cell_logic_z(bank, sub, row, buf),
        )
    }

    /// Cached [`ProcessVariation::sense_amp_z`] stripe row.
    pub fn sa_z(
        &mut self,
        v: &ProcessVariation,
        bank: BankId,
        stripe: usize,
        cols: usize,
    ) -> Arc<[f64]> {
        if self.sa_z.len() >= CACHE_ROW_CAP {
            self.sa_z.clear();
        }
        let entry = self
            .sa_z
            .entry((bank.index() as u32, stripe as u32))
            .or_insert_with(|| {
                let mut buf = vec![0.0; cols];
                v.fill_sense_amp_z(bank, stripe, &mut buf);
                buf.into()
            });
        if entry.len() != cols {
            let mut buf = vec![0.0; cols];
            v.fill_sense_amp_z(bank, stripe, &mut buf);
            *entry = buf.into();
        }
        entry.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_partition_unit_interval() {
        assert_eq!(DistanceRegion::from_normalized(0.0), DistanceRegion::Close);
        assert_eq!(
            DistanceRegion::from_normalized(0.34),
            DistanceRegion::Middle
        );
        assert_eq!(DistanceRegion::from_normalized(0.99), DistanceRegion::Far);
        assert_eq!(DistanceRegion::from_normalized(1.0), DistanceRegion::Far);
    }

    #[test]
    fn row_distance_is_symmetric_between_sides() {
        let rows = 512;
        for r in [0usize, 100, 255, 511] {
            let above = row_distance(LocalRow(r), rows, StripeSide::Above);
            let below = row_distance(LocalRow(r), rows, StripeSide::Below);
            assert!((above + below - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn row_zero_is_adjacent_to_above_stripe() {
        assert_eq!(row_distance(LocalRow(0), 512, StripeSide::Above), 0.0);
        assert_eq!(row_distance(LocalRow(511), 512, StripeSide::Above), 1.0);
        assert_eq!(row_distance(LocalRow(511), 512, StripeSide::Below), 0.0);
    }

    #[test]
    fn row_region_tertiles() {
        let rows = 512;
        assert_eq!(
            row_region(LocalRow(0), rows, StripeSide::Above),
            DistanceRegion::Close
        );
        assert_eq!(
            row_region(LocalRow(256), rows, StripeSide::Above),
            DistanceRegion::Middle
        );
        assert_eq!(
            row_region(LocalRow(511), rows, StripeSide::Above),
            DistanceRegion::Far
        );
    }

    #[test]
    fn variation_is_deterministic() {
        let v = ProcessVariation::new(1234);
        let a = v.cell_not_z(BankId(0), SubarrayId(1), LocalRow(2), Col(3));
        let b = v.cell_not_z(BankId(0), SubarrayId(1), LocalRow(2), Col(3));
        assert_eq!(a, b);
        let c = v.cell_not_z(BankId(0), SubarrayId(1), LocalRow(2), Col(4));
        assert_ne!(a, c);
    }

    #[test]
    fn variation_moments_are_standard_normal() {
        let v = ProcessVariation::new(99);
        let n = 20_000usize;
        let vals: Vec<f64> = (0..n)
            .map(|i| v.cell_not_z(BankId(0), SubarrayId(i % 8), LocalRow(i / 8), Col(i % 64)))
            .collect();
        let mean = vals.iter().sum::<f64>() / n as f64;
        let var = vals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.06, "var {var}");
    }

    #[test]
    fn logic_and_not_deviations_are_correlated() {
        let v = ProcessVariation::new(7);
        let n = 30_000usize;
        let mut sxy = 0.0;
        let mut sx2 = 0.0;
        let mut sy2 = 0.0;
        for i in 0..n {
            let (b, s, r, c) = (
                BankId(i % 2),
                SubarrayId(i % 8),
                LocalRow((i / 16) % 512),
                Col(i % 64),
            );
            let x = v.cell_not_z(b, s, r, c);
            let y = v.cell_logic_z(b, s, r, c);
            sxy += x * y;
            sx2 += x * x;
            sy2 += y * y;
        }
        let rho = sxy / (sx2.sqrt() * sy2.sqrt());
        assert!((rho - NOT_LOGIC_CORRELATION).abs() < 0.05, "rho {rho}");
    }

    #[test]
    fn frac_factor_centered_on_one() {
        let v = ProcessVariation::new(42);
        let n = 10_000usize;
        let mean: f64 = (0..n)
            .map(|i| v.frac_level_factor(BankId(0), SubarrayId(0), LocalRow(i % 512), Col(i % 64)))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn region_mean_distances() {
        assert!((DistanceRegion::Close.mean_normalized() - 1.0 / 6.0).abs() < 1e-12);
        assert!((DistanceRegion::Far.mean_normalized() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn row_fills_match_scalar_accessors_bitwise() {
        let v = ProcessVariation::new(0xFEED);
        let cols = 96;
        let (bank, sub, row) = (BankId(2), SubarrayId(5), LocalRow(301));
        let mut not_z = vec![0.0; cols];
        let mut logic_z = vec![0.0; cols];
        let mut sa_z = vec![0.0; cols];
        let mut frac = vec![0.0; cols];
        v.fill_cell_not_z(bank, sub, row, &mut not_z);
        v.fill_cell_logic_z(bank, sub, row, &mut logic_z);
        v.fill_sense_amp_z(bank, 3, &mut sa_z);
        v.fill_frac_level_factor(bank, sub, row, &mut frac);
        for c in 0..cols {
            let col = Col(c);
            assert_eq!(not_z[c], v.cell_not_z(bank, sub, row, col), "not_z col {c}");
            assert_eq!(
                logic_z[c],
                v.cell_logic_z(bank, sub, row, col),
                "logic_z col {c}"
            );
            assert_eq!(sa_z[c], v.sense_amp_z(bank, 3, col), "sa_z col {c}");
            assert_eq!(
                frac[c],
                v.frac_level_factor(bank, sub, row, col),
                "frac col {c}"
            );
        }
    }

    #[test]
    fn cache_returns_identical_rows_and_memoizes() {
        let v = ProcessVariation::new(7);
        let mut cache = VariationCache::new();
        let a = cache.not_z(&v, BankId(0), SubarrayId(1), LocalRow(9), 32);
        let b = cache.not_z(&v, BankId(0), SubarrayId(1), LocalRow(9), 32);
        assert!(Arc::ptr_eq(&a, &b), "second access must hit the cache");
        assert_eq!(cache.cached_rows(), 1);
        assert_eq!(
            a[5],
            v.cell_not_z(BankId(0), SubarrayId(1), LocalRow(9), Col(5))
        );
    }

    #[test]
    fn cache_refills_on_width_mismatch() {
        let v = ProcessVariation::new(7);
        let mut cache = VariationCache::new();
        let short = cache.not_z(&v, BankId(0), SubarrayId(1), LocalRow(9), 16);
        assert_eq!(short.len(), 16);
        let wide = cache.not_z(&v, BankId(0), SubarrayId(1), LocalRow(9), 128);
        assert_eq!(wide.len(), 128, "wider request must refill, not truncate");
        assert_eq!(
            wide[90],
            v.cell_not_z(BankId(0), SubarrayId(1), LocalRow(9), Col(90))
        );
    }
}
