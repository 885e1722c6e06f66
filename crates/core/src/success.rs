//! Success-rate metrics: the paper's central reliability measure.
//!
//! The *success rate* of a cell is the fraction of trials in which it
//! stores the correct operation result (§5.2 "Metric"). This module
//! provides both the Monte-Carlo view (sampling trials from per-cell
//! probabilities, as the hardware experiments do with 10,000 trials)
//! and the analytic limit (using the probabilities directly).

use dram_core::math::mix3;
use serde::{Deserialize, Serialize};

/// Number of histogram bins in a [`SuccessAccumulator`].
///
/// 1024 bins over `[0, 1]` resolve success-rate quantiles to better
/// than 0.1 percentage points — finer than any figure in the paper.
pub(crate) const ACCUMULATOR_BINS: usize = 1024;

/// Constant-memory, *mergeable* success-rate accumulator.
///
/// Storing every value is exact but unbounded: a 256-chip sweep at
/// full row width records billions of cells. This
/// accumulator keeps O(1) state — count, sum, exact min/max, and a
/// fixed 1024-bin histogram — and supports an order-insensitive
/// [`merge`](Self::merge) so per-chip shards can be combined into
/// population statistics. Two accumulators built from the same
/// multiset of values are bit-identical in every field except `sum`
/// (floating-point addition order), which the fleet runner pins by
/// always merging in fleet order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuccessAccumulator {
    count: u64,
    sum: f64,
    /// Exact minimum; `1.0` when empty (identity for `min`).
    min: f64,
    /// Exact maximum; `0.0` when empty (identity for `max`).
    max: f64,
    bins: Vec<u64>,
}

impl Default for SuccessAccumulator {
    fn default() -> Self {
        SuccessAccumulator {
            count: 0,
            sum: 0.0,
            min: 1.0,
            max: 0.0,
            bins: vec![0; ACCUMULATOR_BINS],
        }
    }
}

impl SuccessAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one success rate (clamped to `[0, 1]`).
    pub fn push(&mut self, p: f64) {
        let p = p.clamp(0.0, 1.0);
        self.count += 1;
        self.sum += p;
        self.min = self.min.min(p);
        self.max = self.max.max(p);
        let bin = ((p * ACCUMULATOR_BINS as f64) as usize).min(ACCUMULATOR_BINS - 1);
        self.bins[bin] += 1;
    }

    /// Records many success rates: bit-identical to calling
    /// [`push`](Self::push) on each in order. Count, sum, min and max
    /// live in locals for the whole loop (the histogram stays in
    /// place), so the hot loop does not store them back per value; the
    /// sum adds in the same order.
    pub fn extend_from(&mut self, ps: impl IntoIterator<Item = f64>) {
        let (mut count, mut sum, mut min, mut max) = (self.count, self.sum, self.min, self.max);
        let bins = self.bins.as_mut_slice();
        for p in ps {
            let p = p.clamp(0.0, 1.0);
            count += 1;
            sum += p;
            min = min.min(p);
            max = max.max(p);
            let bin = ((p * ACCUMULATOR_BINS as f64) as usize).min(ACCUMULATOR_BINS - 1);
            bins[bin] += 1;
        }
        (self.count, self.sum, self.min, self.max) = (count, sum, min, max);
    }

    /// Absorbs another accumulator. Histogram, count, min, and max are
    /// order-insensitive; `sum` (and hence `mean`) follows the merge
    /// order, so callers wanting bit-stable means must merge in a
    /// fixed order.
    pub fn merge(&mut self, other: &SuccessAccumulator) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.bins.iter_mut().zip(&other.bins) {
            *b += *o;
        }
    }

    /// Number of values recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether anything has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean success rate (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Quantile `q ∈ [0, 1]` of the recorded distribution, linearly
    /// interpolated within the containing histogram bin and clamped to
    /// the exact `[min, max]` envelope. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile fraction {q} out of range"
        );
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * (self.count - 1) as f64;
        let mut below = 0u64;
        for (i, n) in self.bins.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            let upto = below + n;
            if rank < upto as f64 {
                // Interpolate the rank's position inside this bin.
                let within = (rank - below as f64 + 0.5) / *n as f64;
                let width = 1.0 / ACCUMULATOR_BINS as f64;
                let v = (i as f64 + within.clamp(0.0, 1.0)) * width;
                return v.clamp(self.min, self.max);
            }
            below = upto;
        }
        self.max
    }
}

/// Deterministically samples the number of successes in `trials`
/// Bernoulli trials of probability `p`, keyed by `key` — the cheap way
/// to reproduce the paper's 10,000-trial counts from one execution's
/// per-cell probability.
pub fn sample_trials(p: f64, trials: u32, key: u64) -> u32 {
    let p = p.clamp(0.0, 1.0);
    let mut successes = 0u32;
    for t in 0..trials {
        let u = dram_core::math::hash_to_unit(mix3(key, t as u64, 0x7124));
        if u < p {
            successes += 1;
        }
    }
    successes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Measured success rate over sampled trials.
    fn sampled_success_rate(p: f64, trials: u32, key: u64) -> f64 {
        if trials == 0 {
            return 0.0;
        }
        f64::from(sample_trials(p, trials, key)) / f64::from(trials)
    }

    impl SuccessAccumulator {
        /// Fraction of recorded values in bins strictly above `threshold`'s
        /// bin (histogram resolution: 1/1024).
        fn fraction_above(&self, threshold: f64) -> f64 {
            if self.count == 0 {
                return 0.0;
            }
            let t = threshold.clamp(0.0, 1.0);
            let cut = ((t * ACCUMULATOR_BINS as f64) as usize).min(ACCUMULATOR_BINS - 1);
            let above: u64 = self.bins[cut + 1..].iter().sum();
            above as f64 / self.count as f64
        }
    }

    /// Accumulates per-cell success probabilities into summary statistics.
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    struct SuccessStats {
        values: Vec<f64>,
    }

    impl SuccessStats {
        /// Creates an empty accumulator.
        fn new() -> Self {
            Self::default()
        }

        /// Adds one cell's success rate.
        fn push(&mut self, p: f64) {
            self.values.push(p.clamp(0.0, 1.0));
        }

        /// Adds many cells' success rates.
        fn extend_from(&mut self, ps: impl IntoIterator<Item = f64>) {
            for p in ps {
                self.push(p);
            }
        }

        /// Number of cells recorded.
        fn count(&self) -> usize {
            self.values.len()
        }

        /// Mean success rate (the paper's "average success rate").
        fn mean(&self) -> f64 {
            if self.values.is_empty() {
                return 0.0;
            }
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }

        /// Minimum success rate.
        fn min(&self) -> f64 {
            self.values.iter().copied().fold(f64::NAN, f64::min)
        }

        /// Maximum success rate.
        fn max(&self) -> f64 {
            self.values.iter().copied().fold(f64::NAN, f64::max)
        }

        /// Fraction of cells with success rate above `threshold` (the
        /// paper preselects cells >90% for several experiments).
        fn fraction_above(&self, threshold: f64) -> f64 {
            if self.values.is_empty() {
                return 0.0;
            }
            self.values.iter().filter(|p| **p > threshold).count() as f64 / self.values.len() as f64
        }

        /// The recorded values (unsorted).
        fn values(&self) -> &[f64] {
            &self.values
        }

        /// Absorbs another accumulator's values (exact merge: the result is
        /// identical to having pushed both value streams into one
        /// accumulator, in `self`-then-`other` order).
        fn merge(&mut self, other: &SuccessStats) {
            self.values.extend_from_slice(&other.values);
        }
    }

    #[test]
    fn stats_basics() {
        let mut s = SuccessStats::new();
        s.extend_from([0.5, 1.0, 0.75, 0.25]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 0.625).abs() < 1e-12);
        assert_eq!(s.min(), 0.25);
        assert_eq!(s.max(), 1.0);
        assert!((s.fraction_above(0.4) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stats_clamp_out_of_range() {
        let mut s = SuccessStats::new();
        s.push(1.7);
        s.push(-0.2);
        assert_eq!(s.max(), 1.0);
        assert_eq!(s.min(), 0.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = SuccessStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.fraction_above(0.5), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn trials_converge_to_probability() {
        for &p in &[0.1, 0.5, 0.9837] {
            let rate = sampled_success_rate(p, 10_000, 42);
            assert!((rate - p).abs() < 0.02, "p={p} rate={rate}");
        }
    }

    #[test]
    fn trials_are_deterministic() {
        assert_eq!(sample_trials(0.5, 1000, 7), sample_trials(0.5, 1000, 7));
        assert_ne!(sample_trials(0.5, 10_000, 7), sample_trials(0.5, 10_000, 8));
    }

    #[test]
    fn degenerate_probabilities() {
        assert_eq!(sample_trials(0.0, 1000, 1), 0);
        assert_eq!(sample_trials(1.0, 1000, 1), 1000);
        assert_eq!(sampled_success_rate(0.5, 0, 1), 0.0);
    }

    #[test]
    fn accumulator_matches_exact_stats() {
        let values: Vec<f64> = (0..5000)
            .map(|i| dram_core::math::hash_to_unit(dram_core::math::mix2(0xACC, i as u64)))
            .collect();
        let mut acc = SuccessAccumulator::new();
        acc.extend_from(values.iter().copied());
        let mut exact = SuccessStats::new();
        exact.extend_from(values.iter().copied());
        assert_eq!(acc.count(), 5000);
        assert!((acc.mean() - exact.mean()).abs() < 1e-12, "mean is exact");
        assert_eq!(acc.min(), exact.min(), "min is exact");
        assert_eq!(acc.max(), exact.max(), "max is exact");
        // Quantiles resolve to histogram-bin precision.
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let approx = acc.quantile(q);
            let truth = sorted[((q * (sorted.len() - 1) as f64) as usize).min(sorted.len() - 1)];
            assert!(
                (approx - truth).abs() < 2.0 / ACCUMULATOR_BINS as f64 + 1e-9,
                "q={q}: {approx} vs {truth}"
            );
        }
        assert!((acc.fraction_above(0.5) - exact.fraction_above(0.5)).abs() < 0.005);
    }

    #[test]
    fn accumulator_merge_equals_single_stream() {
        let vals: Vec<f64> = (0..1000).map(|i| (i % 97) as f64 / 96.0).collect();
        let mut whole = SuccessAccumulator::new();
        whole.extend_from(vals.iter().copied());
        let mut left = SuccessAccumulator::new();
        let mut right = SuccessAccumulator::new();
        left.extend_from(vals[..400].iter().copied());
        right.extend_from(vals[400..].iter().copied());
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        assert_eq!(left.quantile(0.5), whole.quantile(0.5));
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
    }

    #[test]
    fn accumulator_empty_is_safe() {
        let acc = SuccessAccumulator::new();
        assert!(acc.is_empty());
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.min(), 0.0);
        assert_eq!(acc.max(), 0.0);
        assert_eq!(acc.quantile(0.5), 0.0);
        assert_eq!(acc.fraction_above(0.9), 0.0);
    }

    #[test]
    fn accumulator_single_value() {
        let mut acc = SuccessAccumulator::new();
        acc.push(0.9837);
        assert_eq!(acc.quantile(0.0), 0.9837, "clamped to exact min");
        assert_eq!(acc.quantile(1.0), 0.9837, "clamped to exact max");
        assert_eq!(acc.mean(), 0.9837);
    }

    #[test]
    fn accumulator_clamps_and_round_trips() {
        let mut acc = SuccessAccumulator::new();
        acc.push(1.5);
        acc.push(-0.5);
        assert_eq!(acc.max(), 1.0);
        assert_eq!(acc.min(), 0.0);
        let json = serde_json::to_string(&acc).unwrap();
        let back: SuccessAccumulator = serde_json::from_str(&json).unwrap();
        assert_eq!(back, acc);
    }

    #[test]
    fn extend_from_equals_repeated_push_bit_for_bit() {
        let unit = |i: u64| dram_core::math::hash_to_unit(dram_core::math::mix2(0xE7E, i));
        let random: Vec<f64> = (0..4000).map(unit).collect();
        // Out of range on both sides, so clamping decides min, max and
        // the edge bins.
        let clamped: Vec<f64> = (0..4000).map(|i| 3.0 * unit(i) - 1.0).collect();
        let constant = vec![0.731; 257];
        for (name, values) in [
            ("random", &random),
            ("clamped", &clamped),
            ("constant", &constant),
        ] {
            // From empty, and on top of earlier values (so the loop
            // starts from stored state, not the identities).
            for prefix in [0, 100] {
                let mut pushed = SuccessAccumulator::new();
                let mut extended = SuccessAccumulator::new();
                for p in &values[..prefix] {
                    pushed.push(*p);
                    extended.push(*p);
                }
                for p in &values[prefix..] {
                    pushed.push(*p);
                }
                extended.extend_from(values[prefix..].iter().copied());
                assert_eq!(extended.count, pushed.count, "{name}/{prefix}: count");
                assert_eq!(
                    extended.sum.to_bits(),
                    pushed.sum.to_bits(),
                    "{name}/{prefix}: sum"
                );
                assert_eq!(
                    extended.min.to_bits(),
                    pushed.min.to_bits(),
                    "{name}/{prefix}"
                );
                assert_eq!(
                    extended.max.to_bits(),
                    pushed.max.to_bits(),
                    "{name}/{prefix}"
                );
                assert_eq!(extended.bins, pushed.bins, "{name}/{prefix}: bins");
            }
        }
    }

    #[test]
    fn stats_merge_concatenates() {
        let mut a = SuccessStats::new();
        a.extend_from([0.1, 0.2]);
        let mut b = SuccessStats::new();
        b.extend_from([0.3]);
        a.merge(&b);
        assert_eq!(a.values(), &[0.1, 0.2, 0.3]);
    }
}
