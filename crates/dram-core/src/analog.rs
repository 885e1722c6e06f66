//! Charge-sharing arithmetic: the analog heart of processing-using-DRAM.
//!
//! When `N` cells connect to a precharged bitline, the resulting
//! voltage is the capacitance-weighted mean of the bitline precharge
//! level and the cell voltages:
//!
//! ```text
//! V_bl = (C_b·V_pre + Σ C_c·V_i) / (C_b + N·C_c)
//! ```
//!
//! The paper's N-input AND sets the *reference* bitline to
//! `V_AND = (N−0.5)·VDD/N` by storing N−1 all-1 rows plus one
//! VDD/2 (`Frac`) row, so the compute bitline exceeds it only when all
//! N inputs are 1 (§6.1.2); OR mirrors this at `V_OR = 0.5·VDD/N`.

use serde::{Deserialize, Serialize};

/// Electrical parameters of the modeled DRAM array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalogParams {
    /// Supply voltage (DDR4: 1.2 V).
    pub vdd: f64,
    /// Bitline-to-cell capacitance ratio `C_b / C_c` (≈5–8 in
    /// literature; we use 6).
    pub cb_over_cc: f64,
    /// Mean fraction of VDD stored by the `Frac` operation. Slightly
    /// below one half: the interrupted restore ends marginally before
    /// the midpoint, which is what gives OR its reliability edge over
    /// AND at low input counts (§6.3, Observation 12).
    pub frac_level: f64,
}

impl AnalogParams {
    /// DDR4 defaults used throughout the experiments.
    pub const fn ddr4_default() -> Self {
        AnalogParams {
            vdd: 1.2,
            cb_over_cc: 6.0,
            frac_level: 0.48,
        }
    }

    /// Bitline precharge voltage (VDD/2).
    #[inline]
    pub fn v_pre(&self) -> f64 {
        self.vdd / 2.0
    }

    /// Voltage on a bitline after `cell_voltages` all charge-share with
    /// the precharged bitline.
    ///
    /// With no cells this is just the precharge level.
    pub fn bitline_after_share(&self, cell_voltages: &[f64]) -> f64 {
        self.bitline_from_sum(cell_voltages.iter().sum::<f64>(), cell_voltages.len())
    }

    /// [`Self::bitline_after_share`] from a precomputed voltage sum of
    /// `n` cells — the columnar fast path keeps per-column running sums
    /// instead of materializing per-column voltage vectors.
    #[inline]
    pub(crate) fn bitline_from_sum(&self, voltage_sum: f64, n: usize) -> f64 {
        let num = self.cb_over_cc * self.v_pre() + voltage_sum;
        num / (self.cb_over_cc + n as f64)
    }

    /// The *cell-unit* scale of one stored value on an N-cell shared
    /// bitline: `VDD / (C_b/C_c + N)` volts per unit. Sensing margins
    /// are naturally expressed in these units.
    #[inline]
    pub fn cell_unit(&self, n: usize) -> f64 {
        self.vdd / (self.cb_over_cc + n as f64)
    }
}

impl Default for AnalogParams {
    fn default() -> Self {
        Self::ddr4_default()
    }
}

/// Classification of a sensing event by how hard it is to resolve.
///
/// `Critical` is the unique input pattern whose compute bitline must
/// win *toward the rail the reference side already crowds* (all-1s for
/// AND-configured references, all-0s for OR) — the paper's worst case.
/// `Marginal` is the one-off pattern on the other side of the
/// threshold; `Near` has 1–2 cell-units of margin; `Comfortable` more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MarginClass {
    /// Margin below one cell unit, resolving against the reference
    /// bulk: the hardest case.
    Critical,
    /// Margin below one cell unit, resolving with the reference bulk.
    Marginal,
    /// Margin in [1, 2) cell units.
    Near,
    /// Margin of at least 2 cell units.
    Comfortable,
}

/// Classifies a sensing event.
///
/// * `diff_cells` — signed compute-minus-reference differential in
///   cell units.
/// * `ref_mean_frac` — mean reference cell level as a fraction of VDD
///   (≈1 for AND configurations, ≈0 for OR).
pub fn classify_margin(diff_cells: f64, ref_mean_frac: f64) -> MarginClass {
    let mag = diff_cells.abs();
    if mag >= 2.0 {
        MarginClass::Comfortable
    } else if mag >= 1.0 {
        MarginClass::Near
    } else {
        let ref_high = ref_mean_frac > 0.5;
        let compute_wins_high = diff_cells > 0.0;
        // Hard case: compute must beat a reference already crowding the
        // same rail (high ref, compute must go higher; low ref, lower).
        if compute_wins_high == ref_high {
            MarginClass::Critical
        } else {
            MarginClass::Marginal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AnalogParams {
        /// Differential signal (volts) between a compute bitline carrying
        /// `com` cell voltages and a reference bitline carrying `refs`.
        ///
        /// Positive means the compute side reads high.
        fn differential(&self, com: &[f64], refs: &[f64]) -> f64 {
            self.bitline_after_share(com) - self.bitline_after_share(refs)
        }

        /// Same differential expressed in cell units of the compute side
        /// (assumes both sides share `N = com.len()` cells, the paper's
        /// N:N configuration).
        fn differential_cells(&self, com: &[f64], refs: &[f64]) -> f64 {
            debug_assert_eq!(com.len(), refs.len(), "N:N configuration expected");
            self.differential(com, refs) / self.cell_unit(com.len())
        }

        /// Ideal reference-bitline voltage for an N-input AND: N−1 all-1
        /// cells plus one `Frac` cell, in closed form (no per-call vector).
        fn v_and_ideal(&self, n: usize) -> f64 {
            debug_assert!(n >= 1);
            self.bitline_from_sum((n - 1) as f64 * self.vdd + self.frac_level * self.vdd, n)
        }

        /// Ideal reference-bitline voltage for an N-input OR: N−1 all-0
        /// cells plus one `Frac` cell, in closed form.
        fn v_or_ideal(&self, n: usize) -> f64 {
            debug_assert!(n >= 1);
            self.bitline_from_sum(self.frac_level * self.vdd, n)
        }
    }

    const P: AnalogParams = AnalogParams::ddr4_default();

    #[test]
    fn empty_share_is_precharge() {
        assert!((P.bitline_after_share(&[]) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn single_one_cell_perturbs_up() {
        let v = P.bitline_after_share(&[1.2]);
        assert!(v > 0.6);
        // (6*0.6 + 1.2) / 7 = 4.8/7
        assert!((v - 4.8 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn single_zero_cell_perturbs_down() {
        let v = P.bitline_after_share(&[0.0]);
        assert!(v < 0.6);
        assert!((v - 3.6 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn v_and_between_worst_zero_and_all_one() {
        for n in [2usize, 4, 8, 16] {
            let v_and = P.v_and_ideal(n);
            let all_ones: Vec<f64> = vec![1.2; n];
            let mut one_zero = all_ones.clone();
            one_zero[0] = 0.0;
            let v_all = P.bitline_after_share(&all_ones);
            let v_miss = P.bitline_after_share(&one_zero);
            assert!(
                v_and < v_all,
                "n={n}: AND ref must sit below the all-1s level"
            );
            assert!(
                v_and > v_miss,
                "n={n}: AND ref must sit above the one-0 level"
            );
        }
    }

    #[test]
    fn v_or_between_all_zero_and_one_one() {
        for n in [2usize, 4, 8, 16] {
            let v_or = P.v_or_ideal(n);
            let all_zero: Vec<f64> = vec![0.0; n];
            let mut one_one = all_zero.clone();
            one_one[0] = 1.2;
            assert!(v_or > P.bitline_after_share(&all_zero), "n={n}");
            assert!(v_or < P.bitline_after_share(&one_one), "n={n}");
        }
    }

    #[test]
    fn and_margins_in_cell_units() {
        // For ideal cells, the differential for m ones out of N is
        // (m − (N−1+f)) cell units.
        let n = 4;
        let f = P.frac_level;
        let refs: Vec<f64> = std::iter::repeat_n(1.2, n - 1).chain([f * 1.2]).collect();
        for m in 0..=n {
            let com: Vec<f64> = (0..n).map(|i| if i < m { 1.2 } else { 0.0 }).collect();
            let d = P.differential_cells(&com, &refs);
            let expect = m as f64 - (n as f64 - 1.0 + f);
            assert!((d - expect).abs() < 1e-9, "m={m}: {d} vs {expect}");
        }
    }

    #[test]
    fn margin_classification() {
        // AND-like (high reference): all-ones case is Critical.
        assert_eq!(classify_margin(0.52, 0.9), MarginClass::Critical);
        assert_eq!(classify_margin(-0.48, 0.9), MarginClass::Marginal);
        assert_eq!(classify_margin(-1.48, 0.9), MarginClass::Near);
        assert_eq!(classify_margin(-3.0, 0.9), MarginClass::Comfortable);
        // OR-like (low reference): all-zeros case is Critical.
        assert_eq!(classify_margin(-0.48, 0.1), MarginClass::Critical);
        assert_eq!(classify_margin(0.52, 0.1), MarginClass::Marginal);
        assert_eq!(classify_margin(1.52, 0.1), MarginClass::Near);
    }

    #[test]
    fn cell_unit_shrinks_with_n() {
        assert!(P.cell_unit(2) > P.cell_unit(4));
        assert!(P.cell_unit(4) > P.cell_unit(16));
        assert!((P.cell_unit(2) - 1.2 / 8.0).abs() < 1e-12);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn frac_level_is_below_half() {
        assert!(P.frac_level < 0.5);
        assert!(P.frac_level > 0.4);
    }

    #[test]
    fn closed_form_reference_voltages_match_materialized_path() {
        // Pin the closed forms to the original Vec-materializing
        // computation they replaced.
        for n in 1usize..=32 {
            let and_cells: Vec<f64> = std::iter::repeat_n(P.vdd, n - 1)
                .chain([P.frac_level * P.vdd])
                .collect();
            let or_cells: Vec<f64> = std::iter::repeat_n(0.0, n - 1)
                .chain([P.frac_level * P.vdd])
                .collect();
            let and_legacy = P.bitline_after_share(&and_cells);
            let or_legacy = P.bitline_after_share(&or_cells);
            assert!(
                (P.v_and_ideal(n) - and_legacy).abs() < 1e-12,
                "n={n}: {} vs {and_legacy}",
                P.v_and_ideal(n)
            );
            assert!(
                (P.v_or_ideal(n) - or_legacy).abs() < 1e-12,
                "n={n}: {} vs {or_legacy}",
                P.v_or_ideal(n)
            );
        }
    }

    #[test]
    fn bitline_from_sum_matches_share() {
        let volts = [1.2, 0.0, 0.58, 1.1];
        assert_eq!(
            P.bitline_after_share(&volts),
            P.bitline_from_sum(volts.iter().sum(), volts.len())
        );
    }
}
