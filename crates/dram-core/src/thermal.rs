//! Temperature representation and its (small) effect on operation
//! reliability.
//!
//! The paper's Observations 7 and 17: raising the chip temperature from
//! 50 °C to 95 °C changes average success rates by at most 0.20 % (NOT)
//! and 1.66 % (logic ops). We model temperature as a z-space shift with
//! per-operation-class sensitivity, plus a mild acceleration of cell
//! leakage.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Chip temperature in degrees Celsius.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Temperature(f64);

impl Temperature {
    /// The paper's baseline experiment temperature.
    pub const BASELINE: Temperature = Temperature(50.0);

    /// The five levels tested in the paper.
    pub const TESTED: [Temperature; 5] = [
        Temperature(50.0),
        Temperature(60.0),
        Temperature(70.0),
        Temperature(80.0),
        Temperature(95.0),
    ];

    /// Creates a temperature, clamped to the physically plausible
    /// 0–120 °C testing range.
    pub fn celsius(c: f64) -> Temperature {
        Temperature(c.clamp(0.0, 120.0))
    }

    /// Degrees Celsius.
    #[inline]
    pub(crate) fn as_celsius(self) -> f64 {
        self.0
    }

    /// Degrees above the 50 °C experimental baseline.
    #[inline]
    pub(crate) fn above_baseline(self) -> f64 {
        self.0 - Self::BASELINE.0
    }

    /// Leakage time-constant acceleration factor relative to 50 °C
    /// (retention roughly halves every ~10 °C in DRAM literature).
    pub(crate) fn leakage_acceleration(self) -> f64 {
        2f64.powf(self.above_baseline() / 10.0)
    }
}

impl Default for Temperature {
    fn default() -> Self {
        Temperature::BASELINE
    }
}

impl fmt::Display for Temperature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}°C", self.0)
    }
}

/// The simulation configuration of a chip, carried as one value: its
/// temperature (the heater-pad knob of the paper's testing rig).
///
/// Every simulated layer — `Chip`, the `Fcdram` facade, `BulkEngine`,
/// `SimdVm` — accepts a `SimConfig` through the same builder-style
/// surface (`with_sim_config` at construction, `configure` afterwards,
/// `sim_config` to read the current value).
///
/// ```
/// use dram_core::{SimConfig, Temperature};
///
/// let hot = SimConfig::new().with_temperature(Temperature::celsius(85.0));
/// assert_eq!(hot.temperature(), Temperature::celsius(85.0));
/// assert_eq!(SimConfig::new().temperature(), Temperature::BASELINE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimConfig {
    temperature: Temperature,
}

impl SimConfig {
    /// The baseline temperature.
    pub fn new() -> Self {
        SimConfig::default()
    }

    /// Alias of [`SimConfig::new`]. The repository benchmark
    /// (`perfbench/src/device_exec.rs`) names it, and perfbench changes
    /// only together with the benchmark; it is not `#[deprecated]`
    /// because perfbench's clippy runs with `-D warnings`.
    pub fn fast() -> Self {
        SimConfig::new()
    }

    /// Replaces the chip temperature.
    pub fn with_temperature(mut self, t: Temperature) -> Self {
        self.temperature = t;
        self
    }

    /// The chip temperature.
    #[inline]
    pub fn temperature(&self) -> Temperature {
        self.temperature
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_to_testing_range() {
        assert_eq!(Temperature::celsius(-40.0).as_celsius(), 0.0);
        assert_eq!(Temperature::celsius(400.0).as_celsius(), 120.0);
        assert_eq!(Temperature::celsius(65.0).as_celsius(), 65.0);
    }

    #[test]
    fn baseline_is_50c() {
        assert_eq!(Temperature::BASELINE.as_celsius(), 50.0);
        assert_eq!(Temperature::default().above_baseline(), 0.0);
    }

    #[test]
    fn leakage_doubles_every_10c() {
        let t60 = Temperature::celsius(60.0);
        assert!((t60.leakage_acceleration() - 2.0).abs() < 1e-9);
        let t95 = Temperature::celsius(95.0);
        assert!((t95.leakage_acceleration() - 2f64.powf(4.5)).abs() < 1e-9);
    }

    #[test]
    fn tested_levels_match_paper() {
        let lv: Vec<f64> = Temperature::TESTED.iter().map(|t| t.as_celsius()).collect();
        assert_eq!(lv, vec![50.0, 60.0, 70.0, 80.0, 95.0]);
    }

    #[test]
    fn display() {
        assert_eq!(Temperature::celsius(95.0).to_string(), "95°C");
    }
}
