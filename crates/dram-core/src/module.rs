//! A DRAM module: a set of chips that operate in lock-step.
//!
//! The testing infrastructure addresses a module; all chips receive the
//! same command stream and contribute different data bits. For
//! characterization purposes chips are independent (each has its own
//! seed-derived variation), so experiments typically instantiate a
//! subset of a module's chips and aggregate.

use crate::chip::Chip;
use crate::config::ModuleConfig;
use crate::fidelity::{SimConfig, SimFidelity};
use crate::types::ChipId;

/// A DRAM module (lazily instantiated chips).
#[derive(Debug, Clone)]
pub struct DramModule {
    config: ModuleConfig,
    chips: Vec<Option<Chip>>,
    sim: SimConfig,
}

impl DramModule {
    /// Creates a module with no chips instantiated yet.
    pub fn new(config: ModuleConfig) -> Self {
        let n = config.chips;
        DramModule {
            config,
            chips: (0..n).map(|_| None).collect(),
            sim: SimConfig::default(),
        }
    }

    /// The module configuration.
    #[inline]
    pub fn config(&self) -> &ModuleConfig {
        &self.config
    }

    /// The fidelity configuration applied to every chip.
    #[inline]
    pub fn fidelity(&self) -> SimFidelity {
        self.sim.fidelity()
    }

    /// The simulation configuration applied to every chip.
    #[inline]
    pub fn sim_config(&self) -> SimConfig {
        self.sim
    }

    /// Applies a [`SimConfig`] to all chips (instantiated and future).
    pub fn configure(&mut self, cfg: SimConfig) {
        self.sim = cfg;
        for chip in self.chips.iter_mut().flatten() {
            chip.configure(cfg);
        }
    }

    /// Number of chips on the module.
    #[inline]
    pub fn chip_count(&self) -> usize {
        self.chips.len()
    }

    /// Mutable access to chip `id`, instantiating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the module.
    pub fn chip_mut(&mut self, id: ChipId) -> &mut Chip {
        assert!(id.index() < self.chips.len(), "chip {id} out of range");
        let cfg = self.config.clone();
        let sim = self.sim;
        self.chips[id.index()].get_or_insert_with(|| Chip::new(cfg, id).with_sim_config(sim))
    }

    /// Immutable access to chip `id` if it has been instantiated.
    pub fn chip(&self, id: ChipId) -> Option<&Chip> {
        self.chips.get(id.index()).and_then(|c| c.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::table1;

    #[test]
    fn lazy_instantiation() {
        let cfg = table1().into_iter().next().unwrap().with_modeled_cols(16);
        let mut m = DramModule::new(cfg);
        assert_eq!(m.chip_count(), 8);
        assert_eq!(m.chips.iter().flatten().count(), 0);
        let _ = m.chip_mut(ChipId(3));
        assert_eq!(m.chips.iter().flatten().count(), 1);
        assert!(m.chip(ChipId(3)).is_some());
        assert!(m.chip(ChipId(0)).is_none());
    }

    #[test]
    fn chips_differ_by_seed() {
        let cfg = table1().into_iter().next().unwrap().with_modeled_cols(16);
        let mut m = DramModule::new(cfg);
        let a = m.chip_mut(ChipId(0)).decoder().p_glitch();
        let b = m.chip_mut(ChipId(1)).decoder().p_glitch();
        // Glitch probabilities carry per-chip jitter.
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chip_out_of_range_panics() {
        let cfg = table1().into_iter().next().unwrap();
        let mut m = DramModule::new(cfg);
        let _ = m.chip_mut(ChipId(99));
    }
}
