//! Chip and module configurations, including the paper's Table 1
//! inventory of tested COTS DDR4 modules.
//!
//! Every modeled behaviour that varies by manufacturer, die revision,
//! density, organization, or speed bin is keyed off [`ModuleConfig`].
//! Chips are deterministic functions of `(ModuleConfig, ChipId)`: the
//! per-chip seed fans out into per-cell and per-sense-amp variation, so
//! the whole 256-chip fleet is reproducible from the inventory alone.

use crate::geometry::Geometry;
use crate::timing::SpeedBin;
use crate::types::ChipId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// DRAM chip manufacturer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Manufacturer {
    /// SK Hynix — supports simultaneous multi-row activation in
    /// neighboring subarrays (all operations work).
    SkHynix,
    /// Samsung — supports only *sequential* two-row activation in
    /// neighboring subarrays (NOT with a single destination row works;
    /// simultaneous many-row operations do not).
    Samsung,
    /// Micron — ignores commands that grossly violate timing
    /// parameters (no cross-subarray operations observed).
    Micron,
}

impl Manufacturer {
    /// The cross-subarray activation capability the paper observed for
    /// this manufacturer (§4.3, §7 Limitation 1).
    #[inline]
    pub(crate) fn activation_capability(self) -> ActivationCapability {
        match self {
            Manufacturer::SkHynix => ActivationCapability::Simultaneous,
            Manufacturer::Samsung => ActivationCapability::SequentialOnly,
            Manufacturer::Micron => ActivationCapability::Ignored,
        }
    }
}

impl fmt::Display for Manufacturer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Manufacturer::SkHynix => write!(f, "SK Hynix"),
            Manufacturer::Samsung => write!(f, "Samsung"),
            Manufacturer::Micron => write!(f, "Micron"),
        }
    }
}

/// How a chip responds to the `ACT → PRE → ACT` sequence with violated
/// timings targeting neighboring subarrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum ActivationCapability {
    /// Multiple rows activate simultaneously in both subarrays.
    Simultaneous,
    /// The two rows activate in sequence (1:1 only; enables NOT with
    /// one destination row but no many-input operations).
    SequentialOnly,
    /// The violating command is ignored; no cross-subarray activation.
    Ignored,
}

/// Die revision code (alphabetical order loosely tracks process node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DieRevision {
    /// A-die.
    A,
    /// B-die.
    B,
    /// D-die.
    D,
    /// E-die.
    E,
    /// F-die.
    F,
    /// M-die.
    M,
}

impl fmt::Display for DieRevision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            DieRevision::A => 'A',
            DieRevision::B => 'B',
            DieRevision::D => 'D',
            DieRevision::E => 'E',
            DieRevision::F => 'F',
            DieRevision::M => 'M',
        };
        write!(f, "{c}")
    }
}

/// Chip density.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Density {
    /// 4 Gbit per chip.
    Gb4,
    /// 8 Gbit per chip.
    Gb8,
}

impl Density {
    /// Subarrays per bank for the modeled geometry (512-row subarrays).
    #[inline]
    pub(crate) fn subarrays_per_bank(self) -> usize {
        match self {
            Density::Gb4 => 64,
            Density::Gb8 => 128,
        }
    }
}

impl fmt::Display for Density {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Density::Gb4 => write!(f, "4Gb"),
            Density::Gb8 => write!(f, "8Gb"),
        }
    }
}

/// Chip organization (data-bus width per chip).
///
/// Stays `pub` although no other crate names it: it is the type of
/// [`ModuleConfig::org`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChipOrg {
    /// x4 chips (16 per 64-bit rank; the paper's x4 modules carry 32).
    X4,
    /// x8 chips (8 per 64-bit rank).
    X8,
}

impl ChipOrg {
    /// Chips per module as listed in Table 1 (x4 modules are dual-rank).
    #[inline]
    pub(crate) fn chips_per_module(self) -> usize {
        match self {
            ChipOrg::X4 => 32,
            ChipOrg::X8 => 8,
        }
    }

    /// Columns (bitline pairs) per row in the modeled chip.
    #[inline]
    pub(crate) fn cols_per_row(self) -> usize {
        match self {
            ChipOrg::X4 => 4096,
            ChipOrg::X8 => 8192,
        }
    }
}

impl fmt::Display for ChipOrg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipOrg::X4 => write!(f, "x4"),
            ChipOrg::X8 => write!(f, "x8"),
        }
    }
}

/// Configuration of one DRAM module (Table 1 row), from which every
/// chip in the module is derived deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleConfig {
    /// Stable identifier, e.g. `"hynix-4Gb-M-2666-#0"`.
    pub name: String,
    /// Chip manufacturer.
    pub manufacturer: Manufacturer,
    /// Die revision.
    pub die: DieRevision,
    /// Chip density.
    pub density: Density,
    /// Chip organization.
    pub org: ChipOrg,
    /// Speed bin.
    pub speed: SpeedBin,
    /// Number of chips on the module.
    pub chips: usize,
    /// Manufacturing date as (year, week) when printed on the label.
    pub mfr_date: Option<(u16, u8)>,
    /// Whether the module's row decoder exhibits the N:2N activation
    /// family in addition to N:N (§4.3, Observation 2).
    pub supports_n2n: bool,
    /// Number of 2-bit predecode groups that can latch-merge; limits
    /// many-input operations to `2^max_merge_groups` inputs
    /// (the tested 8Gb M-die SK Hynix module merges only 3 → 8-input).
    pub max_merge_groups: u8,
    /// Base seed; per-chip seeds derive from this.
    pub seed: u64,
    /// Number of columns actually *modeled* per row. Defaults to the
    /// full organization width; experiments downscale for runtime.
    pub modeled_cols: usize,
}

impl ModuleConfig {
    /// Creates a module configuration with full-width modeled columns.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: impl Into<String>,
        manufacturer: Manufacturer,
        die: DieRevision,
        density: Density,
        org: ChipOrg,
        speed: SpeedBin,
        seed: u64,
    ) -> Self {
        let max_merge_groups = if manufacturer == Manufacturer::SkHynix
            && density == Density::Gb8
            && die == DieRevision::M
        {
            3 // footnote 12: the 8Gb M-die module tops out at 8:8
        } else {
            4
        };
        ModuleConfig {
            name: name.into(),
            manufacturer,
            die,
            density,
            org,
            speed,
            chips: org.chips_per_module(),
            mfr_date: None,
            supports_n2n: manufacturer == Manufacturer::SkHynix,
            max_merge_groups,
            seed,
            modeled_cols: org.cols_per_row(),
        }
    }

    /// Restricts the number of modeled columns per row (experiment
    /// downscaling). Values are clamped to at least 2 and to the
    /// organization width, and rounded down to an even number so the
    /// open-bitline halves stay balanced.
    #[must_use]
    pub fn with_modeled_cols(mut self, cols: usize) -> Self {
        let cols = cols.clamp(2, self.org.cols_per_row());
        self.modeled_cols = cols & !1;
        self
    }

    /// Overrides the manufacturing date.
    #[must_use]
    pub(crate) fn with_mfr_date(mut self, year: u16, week: u8) -> Self {
        self.mfr_date = Some((year, week));
        self
    }

    /// Overrides the chip count (dual-rank modules carry twice the
    /// default; Table 1's 8Gb A x8 module has 16 chips).
    #[must_use]
    pub(crate) fn with_chips(mut self, chips: usize) -> Self {
        self.chips = chips;
        self
    }

    /// Disables the N:2N activation family (some modules only do N:N).
    #[must_use]
    pub(crate) fn without_n2n(mut self) -> Self {
        self.supports_n2n = false;
        self
    }

    /// The modeled geometry for chips of this module.
    pub fn geometry(&self) -> Geometry {
        Geometry::new(
            16,
            self.density.subarrays_per_bank(),
            512,
            self.modeled_cols,
        )
        .expect("module geometry is valid by construction")
    }

    /// Deterministic seed for chip `chip` of this module.
    #[inline]
    pub fn chip_seed(&self, chip: ChipId) -> u64 {
        crate::math::mix2(self.seed, chip.index() as u64 ^ 0xC415)
    }

    /// Largest operation input count this module can express
    /// (`2^max_merge_groups` for simultaneous-capable parts, 1 else).
    pub fn max_op_inputs(&self) -> usize {
        match self.manufacturer.activation_capability() {
            ActivationCapability::Simultaneous => 1usize << self.max_merge_groups,
            _ => 1,
        }
    }

    /// Short label used in reports, e.g. `"SK Hynix 4Gb M 2666MT/s"`.
    pub fn label(&self) -> String {
        format!(
            "{} {} {} {}",
            self.manufacturer, self.density, self.die, self.speed
        )
    }
}

/// Returns the paper's Table 1: the 22 modules (256 chips) from
/// SK Hynix and Samsung on which the analysis focuses.
///
/// Module seeds are fixed so the fleet is reproducible.
pub fn table1() -> Vec<ModuleConfig> {
    let mut out = Vec::new();
    let mut seed = 0x5AFA_2024u64;
    let mut push = |cfg: ModuleConfig| {
        out.push(cfg);
    };

    // SK Hynix: 9 modules, 4Gb M-die, x8, 2666 MT/s.
    for i in 0..9 {
        seed = crate::math::splitmix64(seed);
        push(ModuleConfig::new(
            format!("hynix-4Gb-M-2666-#{i}"),
            Manufacturer::SkHynix,
            DieRevision::M,
            Density::Gb4,
            ChipOrg::X8,
            SpeedBin::Mt2666,
            seed,
        ));
    }
    // SK Hynix: 5 modules, 4Gb A-die, x8, 2133 MT/s.
    for i in 0..5 {
        seed = crate::math::splitmix64(seed);
        push(ModuleConfig::new(
            format!("hynix-4Gb-A-2133-#{i}"),
            Manufacturer::SkHynix,
            DieRevision::A,
            Density::Gb4,
            ChipOrg::X8,
            SpeedBin::Mt2133,
            seed,
        ));
    }
    // SK Hynix: 1 dual-rank module (16 chips), 8Gb A-die, x8, 2666 MT/s.
    seed = crate::math::splitmix64(seed);
    push(
        ModuleConfig::new(
            "hynix-8Gb-A-2666-#0",
            Manufacturer::SkHynix,
            DieRevision::A,
            Density::Gb8,
            ChipOrg::X8,
            SpeedBin::Mt2666,
            seed,
        )
        .with_chips(16),
    );
    // SK Hynix: 1 module, 4Gb A-die, x4, 2400 MT/s (18-14). N:N only.
    seed = crate::math::splitmix64(seed);
    push(
        ModuleConfig::new(
            "hynix-4Gb-A-2400-#0",
            Manufacturer::SkHynix,
            DieRevision::A,
            Density::Gb4,
            ChipOrg::X4,
            SpeedBin::Mt2400,
            seed,
        )
        .with_mfr_date(2018, 14)
        .without_n2n(),
    );
    // SK Hynix: 1 module, 8Gb A-die, x4, 2400 MT/s (16-49).
    seed = crate::math::splitmix64(seed);
    push(
        ModuleConfig::new(
            "hynix-8Gb-A-2400-#0",
            Manufacturer::SkHynix,
            DieRevision::A,
            Density::Gb8,
            ChipOrg::X4,
            SpeedBin::Mt2400,
            seed,
        )
        .with_mfr_date(2016, 49),
    );
    // SK Hynix: 1 module, 8Gb M-die, x4, 2666 MT/s (16-22). 8-input max.
    seed = crate::math::splitmix64(seed);
    push(
        ModuleConfig::new(
            "hynix-8Gb-M-2666-#0",
            Manufacturer::SkHynix,
            DieRevision::M,
            Density::Gb8,
            ChipOrg::X4,
            SpeedBin::Mt2666,
            seed,
        )
        .with_mfr_date(2016, 22),
    );
    // Samsung: 1 module, 4Gb F-die, x8, 2666 MT/s (21-02).
    seed = crate::math::splitmix64(seed);
    push(
        ModuleConfig::new(
            "samsung-4Gb-F-2666-#0",
            Manufacturer::Samsung,
            DieRevision::F,
            Density::Gb4,
            ChipOrg::X8,
            SpeedBin::Mt2666,
            seed,
        )
        .with_mfr_date(2021, 2),
    );
    // Samsung: 2 modules, 8Gb D-die, x8, 2133 MT/s (21-10).
    for i in 0..2 {
        seed = crate::math::splitmix64(seed);
        push(
            ModuleConfig::new(
                format!("samsung-8Gb-D-2133-#{i}"),
                Manufacturer::Samsung,
                DieRevision::D,
                Density::Gb8,
                ChipOrg::X8,
                SpeedBin::Mt2133,
                seed,
            )
            .with_mfr_date(2021, 10),
        );
    }
    // Samsung: 1 module, 8Gb A-die, x8, 3200 MT/s (22-12).
    seed = crate::math::splitmix64(seed);
    push(
        ModuleConfig::new(
            "samsung-8Gb-A-3200-#0",
            Manufacturer::Samsung,
            DieRevision::A,
            Density::Gb8,
            ChipOrg::X8,
            SpeedBin::Mt3200,
            seed,
        )
        .with_mfr_date(2022, 12),
    );
    out
}

/// Returns the six Micron modules (24 chips) from the extended test
/// fleet (280 chips / 28 modules total) on which no bitwise operations
/// were observed. Used by negative-result experiments.
pub fn micron_modules() -> Vec<ModuleConfig> {
    let mut out = Vec::new();
    let mut seed = 0x03C1_20FFu64;
    for i in 0..6 {
        seed = crate::math::splitmix64(seed);
        let die = if i % 2 == 0 {
            DieRevision::B
        } else {
            DieRevision::E
        };
        out.push(
            ModuleConfig::new(
                format!("micron-8Gb-{die}-2666-#{i}"),
                Manufacturer::Micron,
                die,
                Density::Gb8,
                ChipOrg::X8,
                SpeedBin::Mt2666,
                seed,
            )
            // The extended fleet adds 24 Micron chips over 6 modules.
            .with_chips(4),
        );
    }
    out
}

/// The full tested fleet: Table 1 plus the Micron modules.
pub fn full_fleet() -> Vec<ModuleConfig> {
    let mut v = table1();
    v.extend(micron_modules());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_counts_match_paper() {
        let t = table1();
        assert_eq!(t.len(), 22, "22 modules");
        let chips: usize = t.iter().map(|m| m.chips).sum();
        assert_eq!(chips, 256, "256 chips");
        let hynix: usize = t
            .iter()
            .filter(|m| m.manufacturer == Manufacturer::SkHynix)
            .map(|m| m.chips)
            .sum();
        assert_eq!(hynix, 224);
        let samsung: usize = t
            .iter()
            .filter(|m| m.manufacturer == Manufacturer::Samsung)
            .map(|m| m.chips)
            .sum();
        assert_eq!(samsung, 32);
    }

    #[test]
    fn full_fleet_counts() {
        let f = full_fleet();
        assert_eq!(f.len(), 28, "28 modules incl. Micron");
        let chips: usize = f.iter().map(|m| m.chips).sum();
        assert_eq!(chips, 280, "280 chips incl. Micron");
    }

    #[test]
    fn module_names_are_unique() {
        let t = full_fleet();
        let mut names: Vec<&str> = t.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), t.len());
    }

    #[test]
    fn module_seeds_are_unique() {
        let t = full_fleet();
        let mut seeds: Vec<u64> = t.iter().map(|m| m.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), t.len());
    }

    #[test]
    fn capability_follows_manufacturer() {
        assert_eq!(
            Manufacturer::SkHynix.activation_capability(),
            ActivationCapability::Simultaneous
        );
        assert_eq!(
            Manufacturer::Samsung.activation_capability(),
            ActivationCapability::SequentialOnly
        );
        assert_eq!(
            Manufacturer::Micron.activation_capability(),
            ActivationCapability::Ignored
        );
    }

    #[test]
    fn hynix_8gb_m_limits_inputs_to_8() {
        let t = table1();
        let m = t.iter().find(|m| m.name == "hynix-8Gb-M-2666-#0").unwrap();
        assert_eq!(m.max_merge_groups, 3);
        assert_eq!(m.max_op_inputs(), 8);
    }

    #[test]
    fn samsung_cannot_do_many_input_ops() {
        let t = table1();
        let s = t
            .iter()
            .find(|m| m.manufacturer == Manufacturer::Samsung)
            .unwrap();
        assert_eq!(s.max_op_inputs(), 1);
        assert!(!s.supports_n2n);
    }

    #[test]
    fn chip_seeds_differ_per_chip() {
        let t = table1();
        let m = &t[0];
        let s0 = m.chip_seed(ChipId(0));
        let s1 = m.chip_seed(ChipId(1));
        assert_ne!(s0, s1);
        assert_eq!(s0, m.chip_seed(ChipId(0)), "deterministic");
    }

    #[test]
    fn modeled_cols_clamps_and_stays_even() {
        let t = table1();
        let m = t[0].clone().with_modeled_cols(131);
        assert_eq!(m.modeled_cols, 130);
        let m = t[0].clone().with_modeled_cols(1_000_000);
        assert_eq!(m.modeled_cols, t[0].org.cols_per_row());
    }

    #[test]
    fn geometry_reflects_density() {
        let t = table1();
        let m4 = t.iter().find(|m| m.density == Density::Gb4).unwrap();
        let m8 = t.iter().find(|m| m.density == Density::Gb8).unwrap();
        assert_eq!(m4.geometry().subarrays_per_bank(), 64);
        assert_eq!(m8.geometry().subarrays_per_bank(), 128);
    }

    #[test]
    fn labels_render() {
        let t = table1();
        assert!(t[0].label().contains("SK Hynix"));
        assert!(t[0].label().contains("MT/s"));
    }
}
