//! Vertical (bit-transposed) data layout.
//!
//! Processing-using-DRAM computes one gate over a *row* at a time, so
//! word-level arithmetic stores integers "vertically": bit `i` of
//! every SIMD lane lives in DRAM row `i` of the vector. A W-bit
//! [`UintVec`] therefore occupies W rows, and a ripple-carry addition
//! walks those rows LSB→MSB while every lane advances in parallel —
//! the SIMDRAM execution model, built here from the FCDRAM gate set.

use crate::error::{Result, SimdramError};
use crate::substrate::BitRow;
use fcdram::PackedBits;
use serde::{Deserialize, Serialize};

/// Largest integer width the layer supports (host values are `u64`).
pub(crate) const MAX_WIDTH: usize = 64;

/// A vector of unsigned integers stored bit-transposed, LSB first.
///
/// `UintVec` is a *handle*: the bits live on the substrate and the
/// vector owns its rows. Free it with
/// [`SimdVm::free_uint`](crate::SimdVm::free_uint) when done.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UintVec {
    bits: Vec<BitRow>,
}

impl UintVec {
    /// Builds a vector from substrate rows (LSB first).
    pub(crate) fn from_bits(bits: Vec<BitRow>) -> Self {
        UintVec { bits }
    }

    /// Bit width of each lane's integer.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Row holding bit `i` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub(crate) fn bit(&self, i: usize) -> BitRow {
        self.bits[i]
    }

    /// All rows, LSB first.
    pub(crate) fn bits(&self) -> &[BitRow] {
        &self.bits
    }

    /// Consumes the vector, returning its rows.
    pub(crate) fn into_bits(self) -> Vec<BitRow> {
        self.bits
    }
}

/// Checks a width is in `1..=MAX_WIDTH`.
pub(crate) fn check_width(width: usize) -> Result<()> {
    if width == 0 {
        return Err(SimdramError::Empty);
    }
    if width > MAX_WIDTH {
        return Err(SimdramError::WidthUnsupported {
            width,
            max: MAX_WIDTH,
        });
    }
    Ok(())
}

/// Transposes lane values into per-bit rows.
///
/// `rows[i][lane]` is bit `i` of `values[lane]`.
///
/// # Errors
///
/// Fails with [`SimdramError::ValueOverflow`] if a value does not fit
/// in `width` bits.
///
/// # Examples
///
/// ```
/// let rows = simdram::layout::transpose_to_rows(&[0b10, 0b01], 2)?;
/// assert_eq!(rows[0], vec![false, true]); // LSBs
/// assert_eq!(rows[1], vec![true, false]); // MSBs
/// # Ok::<(), simdram::SimdramError>(())
/// ```
pub fn transpose_to_rows(values: &[u64], width: usize) -> Result<Vec<Vec<bool>>> {
    check_width(width)?;
    for &v in values {
        if width < 64 && v >> width != 0 {
            return Err(SimdramError::ValueOverflow { value: v, width });
        }
    }
    Ok((0..width)
        .map(|i| values.iter().map(|v| (v >> i) & 1 == 1).collect())
        .collect())
}

/// Bit-packed variant of [`transpose_to_rows`]: one [`PackedBits`]
/// per bit position, no intermediate `Vec<bool>`.
///
/// # Errors
///
/// Fails on a bad width or a lane value exceeding it.
pub(crate) fn transpose_to_packed(values: &[u64], width: usize) -> Result<Vec<PackedBits>> {
    check_width(width)?;
    for &v in values {
        if width < 64 && v >> width != 0 {
            return Err(SimdramError::ValueOverflow { value: v, width });
        }
    }
    Ok((0..width)
        .map(|i| {
            let mut row = PackedBits::zeros(values.len());
            for (lane, v) in values.iter().enumerate() {
                if (v >> i) & 1 == 1 {
                    row.set(lane, true);
                }
            }
            row
        })
        .collect())
}

/// Transposes bit-packed rows back into one value per lane (the
/// inverse of [`transpose_to_packed`]).
///
/// # Panics
///
/// Panics if rows have unequal lane counts.
pub(crate) fn transpose_from_packed(rows: &[PackedBits]) -> Vec<u64> {
    let lanes = rows.first().map_or(0, PackedBits::len);
    for r in rows {
        assert_eq!(r.len(), lanes, "rows must have equal lane counts");
    }
    let mut out = vec![0u64; lanes];
    for (i, row) in rows.iter().take(64).enumerate() {
        for (lane, v) in out.iter_mut().enumerate() {
            *v |= u64::from(row.get(lane)) << i;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inverse of [`transpose_to_rows`]: folds per-bit rows back into lane
    /// values. Rows beyond bit 63 are ignored (callers never build them;
    /// [`MAX_WIDTH`] is 64).
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lane counts.
    fn transpose_from_rows(rows: &[Vec<bool>]) -> Vec<u64> {
        let lanes = rows.first().map_or(0, Vec::len);
        for r in rows {
            assert_eq!(r.len(), lanes, "rows must have equal lane counts");
        }
        (0..lanes)
            .map(|lane| {
                rows.iter()
                    .take(64)
                    .enumerate()
                    .fold(0u64, |acc, (i, row)| acc | (u64::from(row[lane]) << i))
            })
            .collect()
    }

    #[test]
    fn transpose_round_trip() {
        let values = [0u64, 1, 5, 254, 255];
        let rows = transpose_to_rows(&values, 8).unwrap();
        assert_eq!(rows.len(), 8);
        assert_eq!(transpose_from_rows(&rows), values);
    }

    #[test]
    fn packed_transpose_matches_boolwise() {
        let values = [0u64, 1, 5, 254, 255, 170, 93];
        let bools = transpose_to_rows(&values, 8).unwrap();
        let packed = transpose_to_packed(&values, 8).unwrap();
        assert_eq!(packed.len(), 8);
        for (b, p) in bools.iter().zip(&packed) {
            assert_eq!(&p.to_bools(), b);
        }
        assert_eq!(transpose_from_packed(&packed), values);
        assert!(transpose_to_packed(&[256], 8).is_err());
    }

    #[test]
    fn transpose_rejects_overflow() {
        let err = transpose_to_rows(&[256], 8).unwrap_err();
        assert!(matches!(
            err,
            SimdramError::ValueOverflow {
                value: 256,
                width: 8
            }
        ));
    }

    #[test]
    fn transpose_full_width_accepts_all_u64() {
        let values = [u64::MAX, 0, 1 << 63];
        let rows = transpose_to_rows(&values, 64).unwrap();
        assert_eq!(transpose_from_rows(&rows), values);
    }

    #[test]
    fn width_bounds() {
        assert!(matches!(check_width(0), Err(SimdramError::Empty)));
        assert!(check_width(1).is_ok());
        assert!(check_width(64).is_ok());
        assert!(matches!(
            check_width(65),
            Err(SimdramError::WidthUnsupported { .. })
        ));
    }

    #[test]
    fn empty_values_transpose_to_empty_rows() {
        let rows = transpose_to_rows(&[], 4).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(Vec::is_empty));
        assert!(transpose_from_rows(&rows).is_empty());
    }
}
