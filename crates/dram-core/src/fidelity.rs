//! Simulation-fidelity knob: per-cell telemetry vs. the columnar
//! fast path.
//!
//! Characterization experiments need per-cell [`crate::CellOutcome`]
//! records (which cell failed, at what probability); bulk workloads
//! only need the stored bits plus aggregate success statistics. The
//! fast path skips materializing the per-cell vectors — the *stored
//! values and aggregate statistics are bit-identical* in both modes,
//! because both run the same columnar compute kernels and differ only
//! in what they record.

use serde::{Deserialize, Serialize};

/// How much per-operation detail the device model records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Telemetry {
    /// Record a [`crate::CellOutcome`] for every affected cell
    /// (required by the characterization experiments).
    #[default]
    Full,
    /// Record only aggregate per-role statistics
    /// ([`crate::chip::OutcomeStats`]); `OpOutcome::cells` stays empty.
    Fast,
}

impl Telemetry {
    /// Whether per-cell records are kept.
    #[inline]
    pub fn per_cell(self) -> bool {
        matches!(self, Telemetry::Full)
    }
}

/// Fidelity configuration of a simulated chip.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimFidelity {
    /// Telemetry mode for every subsequent operation.
    pub telemetry: Telemetry,
}

impl SimFidelity {
    /// The throughput configuration used by bulk engines: aggregate
    /// statistics only.
    pub fn fast() -> Self {
        SimFidelity {
            telemetry: Telemetry::Fast,
        }
    }

    /// Full per-cell telemetry (the default; what characterization
    /// experiments require).
    pub fn full() -> Self {
        SimFidelity::default()
    }
}

/// Unified simulation configuration: the fidelity/telemetry knob and
/// the chip temperature, carried together as one value.
///
/// Every simulated layer — `Chip`, `DramModule`, the `Fcdram` facade,
/// `BulkEngine`, `SimdVm` — accepts a `SimConfig` through the same
/// builder-style surface (`with_sim_config` at construction,
/// `configure` afterwards, `sim_config` to read the current values)
/// instead of per-type `set_fidelity`/`set_temperature` setters.
///
/// ```
/// use dram_core::{SimConfig, SimFidelity, Temperature};
///
/// let cfg = SimConfig::fast().with_temperature(Temperature::celsius(85.0));
/// assert_eq!(cfg.fidelity(), SimFidelity::fast());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    fidelity: SimFidelity,
    temperature: crate::thermal::Temperature,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fidelity: SimFidelity::default(),
            temperature: crate::thermal::Temperature::BASELINE,
        }
    }
}

impl SimConfig {
    /// Full per-cell telemetry at the baseline temperature (the
    /// characterization default).
    pub fn new() -> Self {
        SimConfig::default()
    }

    /// Aggregate-statistics telemetry at the baseline temperature (the
    /// bulk-execution default). Stored bits are identical to
    /// [`SimConfig::full`].
    pub fn fast() -> Self {
        SimConfig::new().with_fidelity(SimFidelity::fast())
    }

    /// Alias of [`SimConfig::new`], for symmetry with
    /// [`SimFidelity::full`].
    pub fn full() -> Self {
        SimConfig::new()
    }

    /// Replaces the fidelity configuration.
    pub fn with_fidelity(mut self, fidelity: SimFidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Replaces only the telemetry mode.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.fidelity.telemetry = telemetry;
        self
    }

    /// Replaces the chip temperature (the heater-pad knob of the
    /// paper's testing rig).
    pub fn with_temperature(mut self, t: crate::thermal::Temperature) -> Self {
        self.temperature = t;
        self
    }

    /// The fidelity configuration.
    #[inline]
    pub fn fidelity(&self) -> SimFidelity {
        self.fidelity
    }

    /// The chip temperature.
    #[inline]
    pub fn temperature(&self) -> crate::thermal::Temperature {
        self.temperature
    }
}
