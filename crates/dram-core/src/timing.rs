//! DDR4 timing parameters and speed bins.
//!
//! The testing-infrastructure simulator (`bender`) schedules commands
//! at clock-cycle granularity; the analog consequences of a sequence
//! depend on the *nanosecond* gaps between commands, which in turn
//! depend on the module's speed bin (MT/s). This module provides the
//! conversion and the manufacturer-recommended timing parameters whose
//! violation enables processing-using-DRAM.

use serde::{Deserialize, Serialize};
use std::fmt;

/// DDR4 speed bins appearing in the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SpeedBin {
    /// DDR4-2133 (tCK = 0.9375 ns).
    Mt2133,
    /// DDR4-2400 (tCK = 0.8333 ns).
    Mt2400,
    /// DDR4-2666 (tCK = 0.75 ns).
    Mt2666,
    /// DDR4-3200 (tCK = 0.625 ns).
    Mt3200,
}

impl SpeedBin {
    /// All speed bins in ascending transfer-rate order.
    pub const ALL: [SpeedBin; 4] = [
        SpeedBin::Mt2133,
        SpeedBin::Mt2400,
        SpeedBin::Mt2666,
        SpeedBin::Mt3200,
    ];

    /// Transfer rate in mega-transfers per second.
    #[inline]
    pub(crate) fn mts(self) -> u32 {
        match self {
            SpeedBin::Mt2133 => 2133,
            SpeedBin::Mt2400 => 2400,
            SpeedBin::Mt2666 => 2666,
            SpeedBin::Mt3200 => 3200,
        }
    }

    /// Clock period in nanoseconds (DDR: clock = transfer rate / 2).
    #[inline]
    pub(crate) fn tck_ns(self) -> f64 {
        match self {
            SpeedBin::Mt2133 => 0.9375,
            SpeedBin::Mt2400 => 0.8333,
            SpeedBin::Mt2666 => 0.75,
            SpeedBin::Mt3200 => 0.625,
        }
    }

    /// Converts a cycle count at this speed bin to nanoseconds.
    #[inline]
    pub fn cycles_to_ns(self, cycles: u64) -> f64 {
        cycles as f64 * self.tck_ns()
    }

    /// Smallest cycle count whose duration is at least `ns`.
    #[inline]
    pub fn ns_to_cycles(self, ns: f64) -> u64 {
        (ns / self.tck_ns()).ceil() as u64
    }
}

impl fmt::Display for SpeedBin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MT/s", self.mts())
    }
}

/// Manufacturer-recommended DDR4 timing parameters, in nanoseconds.
///
/// Only the parameters relevant to the paper's command sequences are
/// modeled. Defaults follow common DDR4 datasheet values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// ACT→PRE minimum (row active time; full restore guaranteed).
    pub t_ras_ns: f64,
    /// PRE→ACT minimum (precharge time).
    pub t_rp_ns: f64,
    /// ACT→RD/WR minimum (RAS-to-CAS delay; sensing complete).
    pub t_rcd_ns: f64,
    /// Refresh interval (for completeness; experiments disable refresh).
    pub t_refi_ns: f64,
}

impl TimingParams {
    /// JEDEC-flavored defaults for the modeled DDR4 chips.
    pub const fn ddr4_default() -> Self {
        TimingParams {
            t_ras_ns: 32.0,
            t_rp_ns: 13.5,
            t_rcd_ns: 13.5,
            t_refi_ns: 7_800.0,
        }
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr4_default()
    }
}

/// Analog-significant timing thresholds for *violated* sequences.
///
/// These encode the windows the paper exploits:
/// * a PRE→ACT gap below [`ViolationWindows::multi_act_t_rp_ns`]
///   (≈3 ns, i.e. 1–4 cycles depending on bin) leaves row-decoder
///   latches set and triggers multiple-row activation;
/// * an ACT→PRE gap inside the *frac window* interrupts restoration at
///   the half-charged point, storing ≈VDD/2 (FracDRAM);
/// * an ACT→ACT gap below [`ViolationWindows::charge_share_t_ras_ns`]
///   means the first activation never finished sensing, so the merged
///   activation performs *charge sharing* (the logic-operation mode)
///   instead of a driven copy (the NOT/RowClone mode).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ViolationWindows {
    /// PRE→ACT gap strictly below this triggers multi-row activation.
    pub multi_act_t_rp_ns: f64,
    /// ACT→PRE gaps in `[frac_lo, frac_hi]` store ≈VDD/2 (Frac).
    pub frac_lo_ns: f64,
    /// Upper edge of the frac window.
    pub frac_hi_ns: f64,
    /// First-ACT→second-ACT gap below this keeps the sense amps off at
    /// merge time (charge-sharing mode).
    pub charge_share_t_ras_ns: f64,
}

impl ViolationWindows {
    /// Windows used across the paper's experiments.
    pub(crate) const fn ddr4_default() -> Self {
        ViolationWindows {
            multi_act_t_rp_ns: 3.0,
            frac_lo_ns: 5.0,
            frac_hi_ns: 9.0,
            charge_share_t_ras_ns: 6.0,
        }
    }

    /// Whether an ACT→PRE gap lands in the frac window.
    #[inline]
    pub fn in_frac_window(&self, gap_ns: f64) -> bool {
        gap_ns >= self.frac_lo_ns && gap_ns <= self.frac_hi_ns
    }
}

impl Default for ViolationWindows {
    fn default() -> Self {
        Self::ddr4_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tck_matches_transfer_rate() {
        for bin in SpeedBin::ALL {
            // tCK = 2000 / MT/s (DDR transfers twice per clock).
            let expect = 2000.0 / bin.mts() as f64;
            assert!(
                (bin.tck_ns() - expect).abs() < 2e-3,
                "{bin}: {} vs {expect}",
                bin.tck_ns()
            );
        }
    }

    #[test]
    fn cycles_round_trip() {
        let bin = SpeedBin::Mt2666;
        let cycles = bin.ns_to_cycles(32.0);
        assert!(bin.cycles_to_ns(cycles) >= 32.0);
        assert!(bin.cycles_to_ns(cycles - 1) < 32.0);
    }

    #[test]
    fn faster_bins_have_shorter_cycles() {
        assert!(SpeedBin::Mt2133.tck_ns() > SpeedBin::Mt2400.tck_ns());
        assert!(SpeedBin::Mt2400.tck_ns() > SpeedBin::Mt2666.tck_ns());
        assert!(SpeedBin::Mt2666.tck_ns() > SpeedBin::Mt3200.tck_ns());
    }

    #[test]
    fn default_timings_are_sane() {
        let t = TimingParams::default();
        assert_eq!((t.t_ras_ns, t.t_rp_ns), (32.0, 13.5));
    }

    #[test]
    fn violation_windows() {
        let w = ViolationWindows::default();
        assert!(w.in_frac_window(7.0));
        assert!(!w.in_frac_window(1.0));
        assert!(!w.in_frac_window(20.0));
        // The multi-activation window must be well below nominal tRP.
        assert!(w.multi_act_t_rp_ns < TimingParams::default().t_rp_ns);
    }

    #[test]
    fn display_speed_bin() {
        assert_eq!(SpeedBin::Mt2400.to_string(), "2400 MT/s");
    }
}
