//! Data patterns used by the characterization experiments (§5.2, §6.2).

use dram_core::math::{hash_to_unit, mix3};
use dram_core::Bit;
use serde::{Deserialize, Serialize};

/// A row-fill data pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataPattern {
    /// Every cell logic-1.
    AllOnes,
    /// Every cell logic-0.
    AllZeros,
    /// Independent uniform random bits, keyed by the seed.
    Random(u64),
    /// Alternating 0101… (used for initialization sanity checks).
    Checker,
}

impl DataPattern {
    /// Materializes the pattern as a row of `cols` bits.
    pub fn row(&self, cols: usize) -> Vec<Bit> {
        match self {
            DataPattern::AllOnes => vec![Bit::One; cols],
            DataPattern::AllZeros => vec![Bit::Zero; cols],
            DataPattern::Random(seed) => (0..cols)
                .map(|c| Bit::from(hash_to_unit(mix3(*seed, c as u64, 0xDA7A)) < 0.5))
                .collect(),
            DataPattern::Checker => (0..cols).map(|c| Bit::from(c % 2 == 1)).collect(),
        }
    }
}

/// The paper's "all-1s/0s" input family for an N-input operation: each
/// of the N rows is uniformly all-1 or all-0, enumerated by the bits of
/// `index` (there are `2^n` such patterns; §6.2).
pub(crate) fn uniform_input_set(n: usize, index: usize, cols: usize) -> Vec<Vec<Bit>> {
    (0..n)
        .map(|i| {
            if (index >> i) & 1 == 1 {
                DataPattern::AllOnes.row(cols)
            } else {
                DataPattern::AllZeros.row(cols)
            }
        })
        .collect()
}

/// N rows of independent random data (the paper's "random data
/// pattern"), keyed by `seed`.
pub(crate) fn random_input_set(n: usize, seed: u64, cols: usize) -> Vec<Vec<Bit>> {
    (0..n)
        .map(|i| DataPattern::Random(mix3(seed, i as u64, 0x1217)).row(cols))
        .collect()
}

/// An input set with exactly `m` all-1 rows and `n − m` all-0 rows
/// (Fig. 16's number-of-logic-1s experiment, which varies per-column
/// input weight using uniform rows).
pub(crate) fn weighted_input_set(n: usize, m: usize, cols: usize) -> Vec<Vec<Bit>> {
    assert!(m <= n, "m ({m}) must not exceed n ({n})");
    (0..n)
        .map(|i| {
            if i < m {
                DataPattern::AllOnes.row(cols)
            } else {
                DataPattern::AllZeros.row(cols)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_patterns() {
        assert!(DataPattern::AllOnes.row(4).iter().all(|b| *b == Bit::One));
        assert!(DataPattern::AllZeros.row(4).iter().all(|b| *b == Bit::Zero));
        assert_eq!(
            DataPattern::Checker.row(4),
            vec![Bit::Zero, Bit::One, Bit::Zero, Bit::One]
        );
    }

    #[test]
    fn random_is_deterministic_and_balanced() {
        let a = DataPattern::Random(7).row(2000);
        let b = DataPattern::Random(7).row(2000);
        assert_eq!(a, b);
        let ones = a.iter().filter(|b| **b == Bit::One).count();
        assert!((800..1200).contains(&ones), "{ones}");
        assert_ne!(a, DataPattern::Random(8).row(2000));
    }

    #[test]
    fn uniformity_flag() {
        // Only the all-1s and all-0s patterns hold one value in every
        // cell.
        let uniform = |p: DataPattern| p.row(64).windows(2).all(|w| w[0] == w[1]);
        assert!(uniform(DataPattern::AllOnes));
        assert!(uniform(DataPattern::AllZeros));
        assert!(!uniform(DataPattern::Random(1)));
        assert!(!uniform(DataPattern::Checker));
    }

    #[test]
    fn uniform_set_enumerates_combinations() {
        let set = uniform_input_set(2, 0b01, 4);
        assert!(set[0].iter().all(|b| *b == Bit::One));
        assert!(set[1].iter().all(|b| *b == Bit::Zero));
        let set = uniform_input_set(2, 0b10, 4);
        assert!(set[0].iter().all(|b| *b == Bit::Zero));
        assert!(set[1].iter().all(|b| *b == Bit::One));
    }

    #[test]
    fn weighted_set_counts_ones() {
        for m in 0..=4usize {
            let set = weighted_input_set(4, m, 8);
            let ones = set.iter().filter(|r| r[0] == Bit::One).count();
            assert_eq!(ones, m);
        }
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn weighted_set_validates() {
        let _ = weighted_input_set(2, 3, 4);
    }
}
