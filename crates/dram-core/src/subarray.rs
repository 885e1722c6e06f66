//! Cell storage: one subarray of DRAM cells with lazily allocated rows.
//!
//! Cells store analog voltages (f32), not bits: `Frac` rows at ≈VDD/2,
//! leakage, and partial restores are all representable. Rows are
//! allocated on first touch so full-geometry chips (128 subarrays × 512
//! rows) cost memory only for the rows an experiment actually uses.

use crate::types::{Bit, Col, LocalRow};

/// One subarray's cell matrix.
#[derive(Debug, Clone)]
pub(crate) struct Subarray {
    rows: Vec<Option<Box<[f32]>>>,
    cols: usize,
}

impl Subarray {
    /// Creates an empty (all rows unallocated ⇒ logic-0) subarray.
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        Subarray {
            rows: vec![None; rows],
            cols,
        }
    }

    /// Voltage of one cell (unallocated rows read as 0.0 V).
    pub(crate) fn voltage(&self, row: LocalRow, col: Col) -> f64 {
        debug_assert!(col.index() < self.cols);
        match &self.rows[row.index()] {
            Some(r) => f64::from(r[col.index()]),
            None => 0.0,
        }
    }

    /// Mutable access to a row's voltages, allocating on first touch.
    pub(crate) fn row_mut(&mut self, row: LocalRow) -> &mut [f32] {
        let slot = &mut self.rows[row.index()];
        slot.get_or_insert_with(|| vec![0.0f32; self.cols].into_boxed_slice())
    }

    /// Read-only access to a row's voltages, if allocated.
    pub(crate) fn row(&self, row: LocalRow) -> Option<&[f32]> {
        self.rows[row.index()].as_deref()
    }

    /// Sets one cell's voltage.
    pub(crate) fn set_voltage(&mut self, row: LocalRow, col: Col, v: f64) {
        self.row_mut(row)[col.index()] = v as f32;
    }

    /// Reads one cell as a bit, thresholding at `vdd / 2`.
    pub(crate) fn bit(&self, row: LocalRow, col: Col, vdd: f64) -> Bit {
        Bit::from(self.voltage(row, col) > vdd / 2.0)
    }

    /// Writes a full row of bits at nominal rail voltages.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != cols`.
    pub(crate) fn write_bits(&mut self, row: LocalRow, bits: &[Bit], vdd: f64) {
        assert_eq!(bits.len(), self.cols, "row width mismatch");
        let r = self.row_mut(row);
        for (cell, b) in r.iter_mut().zip(bits) {
            *cell = b.voltage(vdd) as f32;
        }
    }

    /// Reads a full row of bits.
    pub(crate) fn read_bits(&self, row: LocalRow, vdd: f64) -> Vec<Bit> {
        match self.row(row) {
            Some(r) => r
                .iter()
                .map(|v| Bit::from(f64::from(*v) > vdd / 2.0))
                .collect(),
            None => vec![Bit::Zero; self.cols],
        }
    }

    /// Applies exponential leakage toward GND to every *allocated*
    /// cell: `v ← v · exp(−dt/τ)`; charged cells decay, empty cells
    /// stay empty (the asymmetry that makes all-0 reference rows more
    /// stable than all-1 rows).
    pub(crate) fn leak(&mut self, dt_over_tau: f64) {
        let factor = (-dt_over_tau).exp() as f32;
        for row in self.rows.iter_mut().flatten() {
            for v in row.iter_mut() {
                *v *= factor;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unallocated_rows_read_zero() {
        let s = Subarray::new(8, 4);
        assert_eq!(s.voltage(LocalRow(3), Col(2)), 0.0);
        assert_eq!(s.bit(LocalRow(3), Col(2), 1.2), Bit::Zero);
        assert_eq!(s.rows.iter().flatten().count(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut s = Subarray::new(8, 4);
        let bits = vec![Bit::One, Bit::Zero, Bit::One, Bit::One];
        s.write_bits(LocalRow(2), &bits, 1.2);
        assert_eq!(s.read_bits(LocalRow(2), 1.2), bits);
        assert_eq!(s.rows.iter().flatten().count(), 1);
    }

    #[test]
    fn set_voltage_fractional() {
        let mut s = Subarray::new(4, 2);
        s.set_voltage(LocalRow(0), Col(0), 0.58);
        assert!((s.voltage(LocalRow(0), Col(0)) - 0.58).abs() < 1e-6);
        // 0.58 < 0.6 = VDD/2 ⇒ reads as 0.
        assert_eq!(s.bit(LocalRow(0), Col(0), 1.2), Bit::Zero);
        s.set_voltage(LocalRow(0), Col(1), 0.62);
        assert_eq!(s.bit(LocalRow(0), Col(1), 1.2), Bit::One);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn write_wrong_width_panics() {
        let mut s = Subarray::new(4, 4);
        s.write_bits(LocalRow(0), &[Bit::One], 1.2);
    }

    #[test]
    fn leak_decays_charged_cells_only() {
        let mut s = Subarray::new(4, 2);
        s.write_bits(LocalRow(0), &[Bit::One, Bit::Zero], 1.2);
        s.leak(0.5);
        let v1 = s.voltage(LocalRow(0), Col(0));
        assert!(v1 < 1.2 && v1 > 0.7, "{v1}");
        assert_eq!(s.voltage(LocalRow(0), Col(1)), 0.0);
    }

    #[test]
    fn read_bits_unallocated_is_all_zero() {
        let s = Subarray::new(4, 3);
        assert_eq!(s.read_bits(LocalRow(1), 1.2), vec![Bit::Zero; 3]);
    }
}
