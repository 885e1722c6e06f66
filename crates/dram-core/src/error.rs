//! Error type for the device model.

use crate::types::{BankId, GlobalRow, SubarrayId};
use std::error::Error as StdError;
use std::fmt;

/// Errors raised by the DRAM device model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramError {
    /// A bank index was out of range for the chip geometry.
    BankOutOfRange {
        /// Offending bank.
        bank: BankId,
        /// Number of banks in the chip.
        banks: usize,
    },
    /// A global row address was out of range for the bank.
    RowOutOfRange {
        /// Offending row.
        row: GlobalRow,
        /// Number of rows per bank.
        rows: usize,
    },
    /// A subarray index was out of range for the bank.
    SubarrayOutOfRange {
        /// Offending subarray.
        subarray: SubarrayId,
        /// Number of subarrays per bank.
        subarrays: usize,
    },
    /// A command was issued that is illegal in the current bank state
    /// (e.g. `RD` while precharged).
    IllegalCommand {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// Geometry parameters failed validation (zero-sized dimension,
    /// non-power-of-two rows per subarray, ...).
    InvalidGeometry {
        /// Human-readable description of the problem.
        detail: String,
    },
    /// A data buffer did not match the expected row width.
    WidthMismatch {
        /// Expected number of bits.
        expected: usize,
        /// Provided number of bits.
        got: usize,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::BankOutOfRange { bank, banks } => {
                write!(f, "bank {bank} out of range (chip has {banks} banks)")
            }
            DramError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range (bank has {rows} rows)")
            }
            DramError::SubarrayOutOfRange {
                subarray,
                subarrays,
            } => {
                write!(
                    f,
                    "subarray {subarray} out of range (bank has {subarrays} subarrays)"
                )
            }
            DramError::IllegalCommand { detail } => {
                write!(f, "illegal command sequence: {detail}")
            }
            DramError::InvalidGeometry { detail } => {
                write!(f, "invalid geometry: {detail}")
            }
            DramError::WidthMismatch { expected, got } => {
                write!(
                    f,
                    "data width mismatch: expected {expected} bits, got {got}"
                )
            }
        }
    }
}

impl StdError for DramError {}

/// Convenient result alias for fallible device-model operations.
pub type Result<T> = std::result::Result<T, DramError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = DramError::BankOutOfRange {
            bank: BankId(17),
            banks: 16,
        };
        let s = e.to_string();
        assert!(s.contains("17"));
        assert!(s.contains("16"));
        assert!(s.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DramError>();
    }

    #[test]
    fn all_variants_display() {
        let errs = [
            DramError::BankOutOfRange {
                bank: BankId(1),
                banks: 1,
            },
            DramError::RowOutOfRange {
                row: GlobalRow(9),
                rows: 8,
            },
            DramError::SubarrayOutOfRange {
                subarray: SubarrayId(4),
                subarrays: 2,
            },
            DramError::IllegalCommand {
                detail: "rd while precharged".into(),
            },
            DramError::InvalidGeometry {
                detail: "zero columns".into(),
            },
            DramError::WidthMismatch {
                expected: 8,
                got: 4,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
