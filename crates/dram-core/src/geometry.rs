//! Chip geometry: banks, subarrays, rows, and columns, plus the
//! address arithmetic between bank-global rows and
//! (subarray, local-row) pairs.

use crate::error::{DramError, Result};
use crate::types::{BankId, GlobalRow, LocalRow, SubarrayId};
use serde::{Deserialize, Serialize};

/// The modeled geometry of one DRAM chip.
///
/// Rows within a bank are numbered subarray-major: global row
/// `g = subarray * rows_per_subarray + local`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Geometry {
    banks: usize,
    subarrays_per_bank: usize,
    rows_per_subarray: usize,
    cols: usize,
}

impl Geometry {
    /// Creates a geometry after validating every dimension.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidGeometry`] if any dimension is zero,
    /// if `rows_per_subarray` is not a power of two (the row-decoder
    /// model requires aligned subarray boundaries), or if `cols` is odd
    /// (open-bitline halves must balance).
    pub fn new(
        banks: usize,
        subarrays_per_bank: usize,
        rows_per_subarray: usize,
        cols: usize,
    ) -> Result<Self> {
        if banks == 0 || subarrays_per_bank == 0 || rows_per_subarray == 0 || cols == 0 {
            return Err(DramError::InvalidGeometry {
                detail: "zero-sized dimension".into(),
            });
        }
        if !rows_per_subarray.is_power_of_two() {
            return Err(DramError::InvalidGeometry {
                detail: format!("rows_per_subarray ({rows_per_subarray}) must be a power of two"),
            });
        }
        if !cols.is_multiple_of(2) {
            return Err(DramError::InvalidGeometry {
                detail: format!("cols ({cols}) must be even for the open-bitline split"),
            });
        }
        Ok(Geometry {
            banks,
            subarrays_per_bank,
            rows_per_subarray,
            cols,
        })
    }

    /// Number of banks.
    #[inline]
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Number of subarrays per bank.
    #[inline]
    pub fn subarrays_per_bank(&self) -> usize {
        self.subarrays_per_bank
    }

    /// Number of rows per subarray.
    #[inline]
    pub fn rows_per_subarray(&self) -> usize {
        self.rows_per_subarray
    }

    /// Number of rows per bank.
    #[inline]
    pub fn rows_per_bank(&self) -> usize {
        self.subarrays_per_bank * self.rows_per_subarray
    }

    /// Number of columns per row.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Validates a bank index.
    pub fn check_bank(&self, bank: BankId) -> Result<()> {
        if bank.index() < self.banks {
            Ok(())
        } else {
            Err(DramError::BankOutOfRange {
                bank,
                banks: self.banks,
            })
        }
    }

    /// Validates a global row address.
    pub fn check_row(&self, row: GlobalRow) -> Result<()> {
        if row.index() < self.rows_per_bank() {
            Ok(())
        } else {
            Err(DramError::RowOutOfRange {
                row,
                rows: self.rows_per_bank(),
            })
        }
    }

    /// Validates a subarray index.
    pub fn check_subarray(&self, subarray: SubarrayId) -> Result<()> {
        if subarray.index() < self.subarrays_per_bank {
            Ok(())
        } else {
            Err(DramError::SubarrayOutOfRange {
                subarray,
                subarrays: self.subarrays_per_bank,
            })
        }
    }

    /// Splits a global row into (subarray, local row).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] for rows past the bank end.
    pub fn split_row(&self, row: GlobalRow) -> Result<(SubarrayId, LocalRow)> {
        self.check_row(row)?;
        Ok((
            SubarrayId(row.index() / self.rows_per_subarray),
            LocalRow(row.index() % self.rows_per_subarray),
        ))
    }

    /// Joins (subarray, local row) into a global row.
    ///
    /// # Errors
    ///
    /// Returns an error if either component is out of range.
    pub fn join_row(&self, subarray: SubarrayId, local: LocalRow) -> Result<GlobalRow> {
        self.check_subarray(subarray)?;
        if local.index() >= self.rows_per_subarray {
            return Err(DramError::RowOutOfRange {
                row: GlobalRow(local.index()),
                rows: self.rows_per_subarray,
            });
        }
        Ok(GlobalRow(
            subarray.index() * self.rows_per_subarray + local.index(),
        ))
    }

    /// Whether two subarrays are physically adjacent (share a
    /// sense-amplifier stripe).
    #[inline]
    pub fn are_neighbors(&self, a: SubarrayId, b: SubarrayId) -> bool {
        a.index().abs_diff(b.index()) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Geometry {
        /// A small geometry for unit tests and examples (2 banks,
        /// 8 subarrays × 512 rows, 64 columns).
        fn small() -> Self {
            Geometry::new(2, 8, 512, 64).expect("small geometry is valid")
        }
    }

    #[test]
    fn rejects_degenerate_dimensions() {
        assert!(Geometry::new(0, 1, 512, 64).is_err());
        assert!(Geometry::new(1, 0, 512, 64).is_err());
        assert!(Geometry::new(1, 1, 0, 64).is_err());
        assert!(Geometry::new(1, 1, 512, 0).is_err());
    }

    #[test]
    fn rejects_non_power_of_two_rows() {
        assert!(Geometry::new(1, 4, 640, 64).is_err());
        assert!(Geometry::new(1, 4, 512, 64).is_ok());
    }

    #[test]
    fn rejects_odd_cols() {
        assert!(Geometry::new(1, 4, 512, 63).is_err());
    }

    #[test]
    fn split_and_join_are_inverses() {
        let g = Geometry::small();
        for gr in [0usize, 1, 511, 512, 513, 4095] {
            let row = GlobalRow(gr);
            let (s, l) = g.split_row(row).unwrap();
            assert_eq!(g.join_row(s, l).unwrap(), row);
        }
    }

    #[test]
    fn split_rejects_out_of_range() {
        let g = Geometry::small();
        assert!(g.split_row(GlobalRow(g.rows_per_bank())).is_err());
    }

    #[test]
    fn join_rejects_out_of_range() {
        let g = Geometry::small();
        assert!(g.join_row(SubarrayId(8), LocalRow(0)).is_err());
        assert!(g.join_row(SubarrayId(0), LocalRow(512)).is_err());
    }

    #[test]
    fn neighbors() {
        let g = Geometry::small();
        assert!(g.are_neighbors(SubarrayId(0), SubarrayId(1)));
        assert!(g.are_neighbors(SubarrayId(3), SubarrayId(2)));
        assert!(!g.are_neighbors(SubarrayId(0), SubarrayId(2)));
        assert!(!g.are_neighbors(SubarrayId(1), SubarrayId(1)));
    }

    #[test]
    fn checks_validate_bounds() {
        let g = Geometry::small();
        assert!(g.check_bank(BankId(1)).is_ok());
        assert!(g.check_bank(BankId(2)).is_err());
        assert!(g.check_subarray(SubarrayId(7)).is_ok());
        assert!(g.check_subarray(SubarrayId(8)).is_err());
    }
}
