//! Strongly-typed identifiers and values used throughout the device
//! model: bank/subarray/row/column addresses and logic values.
//!
//! Newtypes keep the many `usize`-shaped quantities (bank index, global
//! row, row-within-subarray, column) from being confused for one
//! another (C-NEWTYPE).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A single binary logic value as stored in a DRAM cell.
///
/// By the paper's convention, `One` is a cell charged to VDD and
/// `Zero` a cell at GND.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Bit {
    /// Logic-0 (cell at GND).
    Zero,
    /// Logic-1 (cell at VDD).
    One,
}

impl Bit {
    /// Logical negation.
    ///
    /// # Examples
    ///
    /// ```
    /// use dram_core::Bit;
    /// assert_eq!(Bit::One.not(), Bit::Zero);
    /// ```
    #[inline]
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Bit {
        match self {
            Bit::Zero => Bit::One,
            Bit::One => Bit::Zero,
        }
    }

    /// Converts to `bool` (`One` → `true`).
    #[inline]
    pub fn as_bool(self) -> bool {
        self == Bit::One
    }

    /// Nominal stored voltage for this value given a supply `vdd`.
    #[inline]
    pub fn voltage(self, vdd: f64) -> f64 {
        match self {
            Bit::Zero => 0.0,
            Bit::One => vdd,
        }
    }
}

impl From<bool> for Bit {
    fn from(b: bool) -> Self {
        if b {
            Bit::One
        } else {
            Bit::Zero
        }
    }
}

impl From<Bit> for bool {
    fn from(b: Bit) -> Self {
        b.as_bool()
    }
}

impl fmt::Display for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bit::Zero => write!(f, "0"),
            Bit::One => write!(f, "1"),
        }
    }
}

macro_rules! index_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(pub usize);

        impl $name {
            /// Returns the underlying index.
            #[inline]
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                Self(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

index_newtype!(
    /// A bank index within a chip (DDR4 x8: 16 banks).
    BankId
);
index_newtype!(
    /// A subarray index within a bank (0 is physically at the "top").
    SubarrayId
);
index_newtype!(
    /// A bank-global row address (what `ACT` takes on the bus).
    GlobalRow
);
index_newtype!(
    /// A row index *within* a subarray (0 .. rows_per_subarray).
    LocalRow
);
index_newtype!(
    /// A column (bitline) index within a row.
    Col
);
index_newtype!(
    /// A chip index within a module/rank (chips operate in lock-step).
    ChipId
);

/// A fully-resolved row location: bank, subarray, and row within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RowLoc {
    /// Bank containing the row.
    pub bank: BankId,
    /// Subarray within the bank.
    pub subarray: SubarrayId,
    /// Row within the subarray.
    pub row: LocalRow,
}

impl fmt::Display for RowLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}/s{}/r{}", self.bank, self.subarray, self.row)
    }
}

/// Which side of a subarray a column's bitline is sensed on.
///
/// In the open-bitline organization, even columns connect to the
/// sense-amplifier stripe physically *above* the subarray (shared with
/// the previous subarray) and odd columns to the stripe *below*
/// (shared with the next subarray).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StripeSide {
    /// The stripe between this subarray and the previous one.
    Above,
    /// The stripe between this subarray and the next one.
    Below,
}

impl StripeSide {
    /// The stripe side column `col` of subarray `sub` is wired to.
    ///
    /// The wiring parity alternates per subarray so that a column
    /// shared between neighbors `(s, s+1)` refers to the *same* column
    /// index in both: column `c` of subarray `s` is wired `Above` when
    /// `(c + s)` is even, `Below` otherwise.
    #[inline]
    pub fn of(sub: SubarrayId, col: Col) -> StripeSide {
        if (col.0 + sub.0).is_multiple_of(2) {
            StripeSide::Above
        } else {
            StripeSide::Below
        }
    }

    /// The opposite side.
    #[inline]
    #[must_use]
    pub fn opposite(self) -> StripeSide {
        match self {
            StripeSide::Above => StripeSide::Below,
            StripeSide::Below => StripeSide::Above,
        }
    }
}

/// Column stride of a shared-column vector: the columns one stripe
/// shares between two neighbouring subarrays alternate, so a vector
/// staged on them occupies every `SHARED_COL_STRIDE`-th column of a
/// row (see [`is_shared_col`]).
pub const SHARED_COL_STRIDE: usize = 2;

/// Whether column `col` is served by the stripe *shared* between the
/// neighboring subarrays `(upper, upper+1)` — i.e. wired `Below` in
/// `upper` and `Above` in `upper+1`. Exactly half the columns qualify,
/// which is why cross-subarray operations act on half a row (§5.1).
#[inline]
pub fn is_shared_col(upper: SubarrayId, col: Col) -> bool {
    (col.0 + upper.0) % 2 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_round_trips() {
        assert_eq!(Bit::from(true), Bit::One);
        assert_eq!(Bit::from(false), Bit::Zero);
        assert!(bool::from(Bit::One));
        assert!(!bool::from(Bit::Zero));
        assert_eq!(Bit::One.not().not(), Bit::One);
    }

    #[test]
    fn bit_voltage() {
        assert_eq!(Bit::One.voltage(1.2), 1.2);
        assert_eq!(Bit::Zero.voltage(1.2), 0.0);
    }

    #[test]
    fn bit_display() {
        assert_eq!(Bit::One.to_string(), "1");
        assert_eq!(Bit::Zero.to_string(), "0");
    }

    #[test]
    fn newtype_round_trips() {
        let b = BankId::from(3usize);
        assert_eq!(b.index(), 3);
        assert_eq!(b.to_string(), "3");
        let r = GlobalRow(511);
        assert_eq!(r.index(), 511);
    }

    #[test]
    fn rowloc_display() {
        let loc = RowLoc {
            bank: BankId(1),
            subarray: SubarrayId(2),
            row: LocalRow(37),
        };
        assert_eq!(loc.to_string(), "b1/s2/r37");
    }

    #[test]
    fn stripe_side_alternates_with_column_and_subarray_parity() {
        assert_eq!(StripeSide::of(SubarrayId(0), Col(0)), StripeSide::Above);
        assert_eq!(StripeSide::of(SubarrayId(0), Col(1)), StripeSide::Below);
        assert_eq!(StripeSide::of(SubarrayId(1), Col(1)), StripeSide::Above);
        assert_eq!(StripeSide::Above.opposite(), StripeSide::Below);
        assert_eq!(StripeSide::Below.opposite(), StripeSide::Above);
    }

    #[test]
    fn shared_columns_are_consistent_between_neighbors() {
        // A column shared by (s, s+1) must be wired Below in s and
        // Above in s+1.
        for s in 0..4usize {
            for c in 0..8usize {
                let shared = is_shared_col(SubarrayId(s), Col(c));
                let below_in_upper = StripeSide::of(SubarrayId(s), Col(c)) == StripeSide::Below;
                let above_in_lower = StripeSide::of(SubarrayId(s + 1), Col(c)) == StripeSide::Above;
                assert_eq!(shared, below_in_upper, "s={s} c={c}");
                assert_eq!(shared, above_in_lower, "s={s} c={c}");
            }
        }
    }

    #[test]
    fn half_the_columns_are_shared() {
        let n = 64usize;
        let shared = (0..n)
            .filter(|c| is_shared_col(SubarrayId(2), Col(*c)))
            .count();
        assert_eq!(shared, n / 2);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(LocalRow(1) < LocalRow(2));
        assert!(Col(0) < Col(10));
    }
}
