//! Cell storage: one subarray of DRAM cells with lazily allocated rows.
//!
//! A row is a bit-plane: one bit per cell, packed 64 columns per `u64`
//! word (bit `c % 64` of word `c / 64`), holding the cell's thresholded
//! value (`v > vdd/2`). Almost every stored cell sits at a rail — GND
//! for a zero, VDD for a one — and such a row is its plane alone. A row
//! with a cell between the rails (`Frac` rows at ≈VDD/2, leaked rows)
//! also carries an `f32` voltage overlay, one per cell; the plane keeps
//! the thresholded bits. A full-rail write of the whole row drops the
//! overlay; a write of single cells sets each cell's bit and, in an
//! overlay row, its rail voltage.
//!
//! Rows are allocated on first touch so full-geometry chips (128
//! subarrays × 512 rows) cost memory only for the rows an experiment
//! actually uses.

use crate::packed::EVEN;
use crate::types::{Bit, Col, LocalRow};
use std::fmt;
use std::sync::Arc;

/// The columns of word `k` of a `cols`-wide row's plane.
#[inline]
fn tail_mask(cols: usize, k: usize) -> u64 {
    match cols.saturating_sub(64 * k) {
        n if n >= 64 => u64::MAX,
        n => (1u64 << n) - 1,
    }
}

/// One allocated row: its bit-plane and, off the rails, its voltages.
/// The voltages may be shared (a `Frac` row shares the chip's cached
/// `Frac` voltages) and are copied on a row's first write.
#[derive(Clone)]
pub(crate) struct Row {
    bits: Box<[u64]>,
    volts: Option<Arc<[f32]>>,
}

impl Row {
    /// The row's bit-plane (bits past the last column are zero).
    #[inline]
    pub(crate) fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// The row's voltages when some cell is off the rails.
    #[inline]
    pub(crate) fn volts(&self) -> Option<&[f32]> {
        self.volts.as_deref()
    }

    /// Whether cell `c` reads as one.
    #[inline]
    pub(crate) fn bit(&self, c: usize) -> Bit {
        Bit::from(self.bits[c / 64] >> (c % 64) & 1 == 1)
    }
}

/// Mutable access to one row's cells, for writes of single cells at a
/// rail. Writes land a plane word at a time: a write buffers its bit
/// until one lands in another word or the access ends, so write each
/// cell at most once, and read a cell only before writing it.
pub(crate) struct RowMut<'a> {
    row: &'a mut Row,
    /// The one rail's stored voltage.
    one: f32,
    /// The buffered word: its index, the columns written and their bits.
    word: usize,
    mask: u64,
    val: u64,
}

impl RowMut<'_> {
    /// Whether cell `c` reads as one (before this access wrote it).
    #[inline]
    pub(crate) fn bit(&self, c: usize) -> Bit {
        self.row.bit(c)
    }

    /// Stores `b` in cell `c` at its rail.
    #[inline]
    pub(crate) fn set(&mut self, c: usize, b: Bit) {
        if c / 64 != self.word {
            self.flush();
            self.word = c / 64;
        }
        self.mask |= 1 << (c % 64);
        self.val |= u64::from(b.as_bool()) << (c % 64);
    }

    /// Lands the buffered word.
    fn flush(&mut self) {
        let (w, mask, val) = (self.word, self.mask, self.val);
        if mask == 0 {
            return;
        }
        let bits = &mut self.row.bits;
        bits[w] = (bits[w] & !mask) | val;
        if let Some(v) = self.row.volts.as_mut() {
            let volts = Arc::make_mut(v);
            for i in (0..64).filter(|i| mask >> i & 1 == 1) {
                volts[64 * w + i] = if val >> i & 1 == 1 { self.one } else { 0.0 };
            }
        }
        (self.mask, self.val) = (0, 0);
    }

    /// Drops the voltage overlay: every cell was just written at a rail.
    #[inline]
    pub(crate) fn at_rails(&mut self) {
        self.row.volts = None;
    }
}

impl Drop for RowMut<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// One subarray's cell matrix.
#[derive(Clone)]
pub(crate) struct Subarray {
    rows: Vec<Option<Row>>,
    cols: usize,
    vdd: f64,
}

/// Renders each row's cell voltages exactly as a `Vec<Option<Box<[f32]>>>`
/// of voltages would (`Some([0.0, 1.2, …])`, `None` for an unallocated
/// row), so a chip's `Debug` text is a function of its voltages alone.
impl fmt::Debug for Subarray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Volts<'a>(&'a Subarray, &'a Row);
        impl fmt::Debug for Volts<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let (sa, row) = (self.0, self.1);
                f.debug_list()
                    .entries((0..sa.cols).map(|c| sa.cell_voltage(row, c)))
                    .finish()
            }
        }
        struct Rows<'a>(&'a Subarray);
        impl fmt::Debug for Rows<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let sa = self.0;
                f.debug_list()
                    .entries(sa.rows.iter().map(|r| r.as_ref().map(|row| Volts(sa, row))))
                    .finish()
            }
        }
        f.debug_struct("Subarray")
            .field("rows", &Rows(self))
            .field("cols", &self.cols)
            .finish()
    }
}

impl Subarray {
    /// Creates an empty (all rows unallocated ⇒ logic-0) subarray whose
    /// one rail is `vdd`.
    pub(crate) fn new(rows: usize, cols: usize, vdd: f64) -> Self {
        Subarray {
            rows: vec![None; rows],
            cols,
            vdd,
        }
    }

    /// The one rail's stored voltage.
    #[inline]
    pub(crate) fn one(&self) -> f32 {
        Bit::One.voltage(self.vdd) as f32
    }

    /// The stored voltage of cell `c` of `row`.
    #[inline]
    pub(crate) fn cell_voltage(&self, row: &Row, c: usize) -> f32 {
        match &row.volts {
            Some(v) => v[c],
            None if row.bit(c).as_bool() => self.one(),
            None => 0.0,
        }
    }

    /// Voltage of one cell (unallocated rows read as 0.0 V).
    #[cfg(test)]
    pub(crate) fn voltage(&self, row: LocalRow, col: Col) -> f64 {
        debug_assert!(col.index() < self.cols);
        match &self.rows[row.index()] {
            Some(r) => f64::from(self.cell_voltage(r, col.index())),
            None => 0.0,
        }
    }

    /// Every cell voltage of a row, if allocated.
    #[cfg(test)]
    pub(crate) fn row_volts(&self, row: LocalRow) -> Option<Vec<f32>> {
        let r = self.row(row)?;
        Some((0..self.cols).map(|c| self.cell_voltage(r, c)).collect())
    }

    /// A row, allocating an all-zero plane on first touch.
    fn slot_mut(&mut self, row: LocalRow) -> &mut Row {
        let words = self.cols.div_ceil(64);
        self.rows[row.index()].get_or_insert_with(|| Row {
            bits: vec![0; words].into_boxed_slice(),
            volts: None,
        })
    }

    /// Single-cell write access to a row, allocating on first touch.
    pub(crate) fn row_mut(&mut self, row: LocalRow) -> RowMut<'_> {
        let one = self.one();
        RowMut {
            row: self.slot_mut(row),
            one,
            word: 0,
            mask: 0,
            val: 0,
        }
    }

    /// Read-only access to a row, if allocated.
    #[inline]
    pub(crate) fn row(&self, row: LocalRow) -> Option<&Row> {
        self.rows[row.index()].as_ref()
    }

    /// Sets one cell's voltage; a value between the rails gives the row
    /// a voltage overlay.
    #[cfg(test)]
    pub(crate) fn set_voltage(&mut self, row: LocalRow, col: Col, v: f64) {
        let (one, half, cols) = (self.one(), self.vdd / 2.0, self.cols);
        let r = self.slot_mut(row);
        let v = v as f32;
        if r.volts.is_none() && v != 0.0 && v != one {
            let volts = (0..cols)
                .map(|c| if r.bit(c).as_bool() { one } else { 0.0 })
                .collect();
            r.volts = Some(volts);
        }
        if let Some(volts) = r.volts.as_mut() {
            Arc::make_mut(volts)[col.index()] = v;
        }
        let c = col.index();
        let m = 1u64 << (c % 64);
        r.bits[c / 64] = (r.bits[c / 64] & !m) | (m * u64::from(f64::from(v) > half));
    }

    /// Reads one cell as a bit (unallocated rows read as zero).
    pub(crate) fn bit(&self, row: LocalRow, col: Col) -> Bit {
        debug_assert!(col.index() < self.cols);
        self.row(row).map_or(Bit::Zero, |r| r.bit(col.index()))
    }

    /// Writes a full row of bits at the rails: a copy of `words`, the
    /// row's packed bits (tail bits past the last column zero).
    ///
    /// # Panics
    ///
    /// Panics if `words` does not cover exactly the row's columns.
    pub(crate) fn write_words(&mut self, row: LocalRow, words: &[u64]) {
        assert_eq!(words.len(), self.cols.div_ceil(64), "row width mismatch");
        let r = self.slot_mut(row);
        r.bits.copy_from_slice(words);
        r.volts = None;
    }

    /// Stores `¬data` (a row's packed bits) on the columns of parity
    /// `parity` and keeps the others.
    pub(crate) fn write_inverted_half(&mut self, row: LocalRow, data: &[u64], parity: usize) {
        let (one, cols) = (self.one(), self.cols);
        let half = if parity == 0 { EVEN } else { !EVEN };
        let r = self.slot_mut(row);
        for (k, (w, d)) in r.bits.iter_mut().zip(data).enumerate() {
            let m = half & tail_mask(cols, k);
            *w = (*w & !m) | (!d & m);
        }
        if let Some(volts) = r.volts.as_mut() {
            let volts = Arc::make_mut(volts);
            for c in (parity..cols).step_by(2) {
                volts[c] = if r.bits[c / 64] >> (c % 64) & 1 == 1 {
                    one
                } else {
                    0.0
                };
            }
        }
    }

    /// Stores `volts` (one per column, shared) as the row's voltages,
    /// and their thresholded bits `bits` as its plane.
    pub(crate) fn write_volts(&mut self, row: LocalRow, bits: &[u64], volts: &Arc<[f32]>) {
        let r = self.slot_mut(row);
        r.bits.copy_from_slice(bits);
        r.volts = Some(Arc::clone(volts));
    }

    /// Writes a full row of bits at nominal rail voltages.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != cols`.
    pub(crate) fn write_bits(&mut self, row: LocalRow, bits: &[Bit]) {
        assert_eq!(bits.len(), self.cols, "row width mismatch");
        let words = crate::PackedBits::from(bits);
        self.write_words(row, words.words());
    }

    /// Reads a full row of bits.
    pub(crate) fn read_bits(&self, row: LocalRow) -> Vec<Bit> {
        match self.row(row) {
            Some(r) => (0..self.cols).map(|c| r.bit(c)).collect(),
            None => vec![Bit::Zero; self.cols],
        }
    }

    /// Applies exponential leakage toward GND to every *allocated*
    /// cell: `v ← v · exp(−dt/τ)`; charged cells decay, empty cells
    /// stay empty (the asymmetry that makes all-0 reference rows more
    /// stable than all-1 rows). A row with a charged cell gains a
    /// voltage overlay; the plane keeps each cell's thresholded bit.
    pub(crate) fn leak(&mut self, dt_over_tau: f64) {
        let factor = (-dt_over_tau).exp() as f32;
        if factor == 1.0 {
            return;
        }
        let (one, half) = (self.one(), self.vdd / 2.0);
        for row in self.rows.iter_mut().flatten() {
            if row.volts.is_none() {
                if row.bits.iter().all(|w| *w == 0) {
                    continue;
                }
                let rail = (0..self.cols).map(|c| {
                    if row.bits[c / 64] >> (c % 64) & 1 == 1 {
                        one
                    } else {
                        0.0
                    }
                });
                row.volts = Some(rail.collect());
            }
            let volts = Arc::make_mut(row.volts.as_mut().expect("filled above"));
            row.bits.fill(0);
            for (c, v) in volts.iter_mut().enumerate() {
                *v *= factor;
                row.bits[c / 64] |= u64::from(f64::from(*v) > half) << (c % 64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VDD: f64 = 1.2;

    /// The voltages `write_bits` stored before rows were planes.
    fn rail_volts(bits: &[Bit]) -> Vec<f32> {
        bits.iter().map(|b| b.voltage(VDD) as f32).collect()
    }

    #[test]
    fn unallocated_rows_read_zero() {
        let s = Subarray::new(8, 4, VDD);
        assert_eq!(s.voltage(LocalRow(3), Col(2)), 0.0);
        assert_eq!(s.bit(LocalRow(3), Col(2)), Bit::Zero);
        assert_eq!(s.rows.iter().flatten().count(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut s = Subarray::new(8, 4, VDD);
        let bits = vec![Bit::One, Bit::Zero, Bit::One, Bit::One];
        s.write_bits(LocalRow(2), &bits);
        assert_eq!(s.read_bits(LocalRow(2)), bits);
        assert_eq!(s.rows.iter().flatten().count(), 1);
        assert_eq!(s.row_volts(LocalRow(2)).unwrap(), rail_volts(&bits));
    }

    #[test]
    fn set_voltage_fractional() {
        let mut s = Subarray::new(4, 2, VDD);
        s.set_voltage(LocalRow(0), Col(0), 0.58);
        assert!((s.voltage(LocalRow(0), Col(0)) - 0.58).abs() < 1e-6);
        // 0.58 < 0.6 = VDD/2 ⇒ reads as 0.
        assert_eq!(s.bit(LocalRow(0), Col(0)), Bit::Zero);
        s.set_voltage(LocalRow(0), Col(1), 0.62);
        assert_eq!(s.bit(LocalRow(0), Col(1)), Bit::One);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn write_wrong_width_panics() {
        let mut s = Subarray::new(4, 4, VDD);
        s.write_bits(LocalRow(0), &[Bit::One]);
    }

    #[test]
    fn leak_decays_charged_cells_only() {
        let mut s = Subarray::new(4, 2, VDD);
        s.write_bits(LocalRow(0), &[Bit::One, Bit::Zero]);
        s.leak(0.5);
        let v1 = s.voltage(LocalRow(0), Col(0));
        assert!(v1 < 1.2 && v1 > 0.7, "{v1}");
        assert_eq!(s.voltage(LocalRow(0), Col(1)), 0.0);
    }

    #[test]
    fn read_bits_unallocated_is_all_zero() {
        let s = Subarray::new(4, 3, VDD);
        assert_eq!(s.read_bits(LocalRow(1)), vec![Bit::Zero; 3]);
    }

    /// A row of 70 cells, so the plane's last word is partial.
    fn bits70(seed: u64) -> Vec<Bit> {
        (0..70)
            .map(|c| Bit::from(crate::math::mix2(seed, c) & 1 == 1))
            .collect()
    }

    #[test]
    fn leakage_creates_an_overlay_and_a_full_rail_write_drops_it() {
        let mut s = Subarray::new(2, 70, VDD);
        let bits = bits70(1);
        s.write_bits(LocalRow(0), &bits);
        s.write_bits(LocalRow(1), &[Bit::Zero; 70]);
        assert!(s.row(LocalRow(0)).unwrap().volts().is_none());
        // The old storage: every cell's f32 voltage times the factor.
        let factor = (-0.7f64).exp() as f32;
        let want: Vec<f32> = rail_volts(&bits).iter().map(|v| v * factor).collect();
        s.leak(0.7);
        assert_eq!(s.row_volts(LocalRow(0)).unwrap(), want);
        assert!(s.row(LocalRow(0)).unwrap().volts().is_some());
        let thresholded: Vec<Bit> = want
            .iter()
            .map(|v| Bit::from(f64::from(*v) > VDD / 2.0))
            .collect();
        assert_eq!(s.read_bits(LocalRow(0)), thresholded);
        // An all-zero row stays empty, and so stays on the plane.
        assert!(s.row(LocalRow(1)).unwrap().volts().is_none());
        let words = crate::PackedBits::from(&bits[..]);
        s.write_words(LocalRow(0), words.words());
        assert!(s.row(LocalRow(0)).unwrap().volts().is_none());
        assert_eq!(s.row_volts(LocalRow(0)).unwrap(), rail_volts(&bits));
    }

    #[test]
    fn a_masked_write_into_an_overlay_row_updates_plane_and_overlay() {
        let mut s = Subarray::new(1, 70, VDD);
        let frac: Vec<f32> = (0..70).map(|c| 0.5 + 0.002 * c as f32).collect();
        let plane = crate::PackedBits::from(
            &frac
                .iter()
                .map(|v| Bit::from(f64::from(*v) > VDD / 2.0))
                .collect::<Vec<_>>()[..],
        );
        s.write_volts(LocalRow(0), plane.words(), &frac.clone().into());
        let data = crate::PackedBits::from(&bits70(3)[..]);
        s.write_inverted_half(LocalRow(0), data.words(), 1);
        let mut want = frac.clone();
        for c in (1..70).step_by(2) {
            want[c] = if data.get(c) { 0.0 } else { VDD as f32 };
        }
        assert_eq!(s.row_volts(LocalRow(0)).unwrap(), want);
        let want_bits: Vec<Bit> = want
            .iter()
            .map(|v| Bit::from(f64::from(*v) > VDD / 2.0))
            .collect();
        assert_eq!(s.read_bits(LocalRow(0)), want_bits);
    }

    #[test]
    fn debug_renders_plane_and_overlay_rows_as_voltage_vectors() {
        let mut s = super::Subarray::new(3, 5, VDD);
        let bits = [Bit::One, Bit::Zero, Bit::Zero, Bit::One, Bit::One];
        s.write_bits(LocalRow(0), &bits);
        s.set_voltage(LocalRow(2), Col(1), 0.58);
        // The derived `Debug` of the old storage, rows as voltages.
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Subarray {
            rows: Vec<Option<Box<[f32]>>>,
            cols: usize,
        }
        let old = Subarray {
            rows: vec![
                Some(rail_volts(&bits).into()),
                None,
                Some(vec![0.0, 0.58, 0.0, 0.0, 0.0].into()),
            ],
            cols: 5,
        };
        assert_eq!(format!("{s:?}"), format!("{old:?}"));
        assert_eq!(format!("{s:#?}"), format!("{old:#?}"));
    }
}
