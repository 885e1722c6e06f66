//! Deterministic chip fleets: seeded populations of simulated chips.
//!
//! The paper's conclusions are *distributional* — success rates across
//! 256 chips, grouped by manufacturer, die revision, and speed bin.
//! This module turns the Table-1 inventory into an enumerable fleet of
//! [`ChipSpec`]s: each spec names one `(ModuleConfig, ChipId)` pair and
//! builds a [`Chip`] whose process variation derives deterministically
//! from the module seed and chip index (layered through
//! [`crate::variation::ProcessVariation`] and the per-chip
//! [`crate::variation::VariationCache`]). Per-die and per-manufacturer
//! behaviour comes from the [`ModuleConfig`] itself (reliability
//! calibration, activation capability), so a fleet reproduces both the
//! systematic (die/manufacturer) and random (chip-to-chip) layers of
//! variation.
//!
//! ## Fidelity invariant
//!
//! A fleet of size 1 over a single module with the default fleet seed
//! is *bit-identical* to constructing `Chip::new(cfg, ChipId(0))`
//! directly: the spec carries the untouched `ModuleConfig` and
//! `ChipId(0)` (pinned by `tests/fleet_equivalence.rs`).

use crate::chip::Chip;
use crate::config::{Manufacturer, ModuleConfig};
use crate::math::mix3;
use crate::types::ChipId;
use serde::{Deserialize, Serialize};

/// One member of a simulated fleet: a chip of a (possibly reseeded)
/// module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipSpec {
    /// The module configuration this chip belongs to.
    pub cfg: ModuleConfig,
    /// The chip within the module.
    pub chip: ChipId,
}

impl ChipSpec {
    /// Instantiates the simulated chip.
    pub fn build(&self) -> Chip {
        Chip::new(self.cfg.clone(), self.chip)
    }

    /// The chip's deterministic seed (all process variation derives
    /// from it).
    #[inline]
    pub fn seed(&self) -> u64 {
        self.cfg.chip_seed(self.chip)
    }

    /// Stable display label, e.g. `"hynix-4Gb-M-2666-#0/c3"`.
    pub fn label(&self) -> String {
        format!("{}/c{}", self.cfg.name, self.chip.index())
    }
}

/// A deterministic, seeded population of N simulated chips.
///
/// Chips are assigned round-robin across the member modules, so small
/// fleets still sample every module family; once a module's physical
/// chips are exhausted, further draws come from *replica* modules — the
/// same part with a remixed seed, modeling another purchased module of
/// the same Table-1 row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Modules chips are drawn from (round-robin).
    pub modules: Vec<ModuleConfig>,
    /// Total number of chips in the fleet.
    pub chips: usize,
    /// Extra fleet-level entropy mixed into every *replica* module
    /// seed. `0` (the default) leaves first-replica modules untouched,
    /// which preserves bit-identity with the direct single-chip path.
    pub seed: u64,
}

impl FleetConfig {
    /// A fleet of `chips` chips all drawn from one module.
    pub fn single(cfg: ModuleConfig, chips: usize) -> FleetConfig {
        FleetConfig {
            modules: vec![cfg],
            chips,
            seed: 0,
        }
    }

    /// A fleet of `chips` chips drawn round-robin from the paper's
    /// Table-1 inventory (22 modules, both manufacturers).
    pub fn table1(chips: usize) -> FleetConfig {
        FleetConfig {
            modules: crate::config::table1(),
            chips,
            seed: 0,
        }
    }

    /// A fleet drawn from an explicit module list.
    pub fn custom(modules: Vec<ModuleConfig>, chips: usize) -> FleetConfig {
        assert!(!modules.is_empty(), "fleet needs at least one module");
        FleetConfig {
            modules,
            chips,
            seed: 0,
        }
    }

    /// Overrides the fleet-level seed. A non-zero seed reseeds *every*
    /// module (including the first replica), producing an independent
    /// population of the same inventory shape.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> FleetConfig {
        self.seed = seed;
        self
    }

    /// Number of chips in the fleet.
    #[inline]
    pub fn len(&self) -> usize {
        self.chips
    }

    /// Whether the fleet is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chips == 0
    }

    /// The spec of fleet member `index` (0-based).
    ///
    /// Member `k` is chip `k / M` of module `k % M` (M = module count);
    /// chip indices beyond a module's physical chip count roll over
    /// into replica modules with remixed seeds.
    pub fn spec(&self, index: usize) -> ChipSpec {
        assert!(!self.modules.is_empty(), "fleet needs at least one module");
        assert!(index < self.chips, "fleet member {index} out of range");
        let m = self.modules.len();
        let module = &self.modules[index % m];
        let draw = index / m;
        let phys = module.chips.max(1);
        let replica = draw / phys;
        let chip = ChipId(draw % phys);
        let mut cfg = module.clone();
        if replica > 0 || self.seed != 0 {
            cfg.seed = mix3(cfg.seed, replica as u64, self.seed ^ 0xF1EE7);
        }
        if replica > 0 {
            cfg.name = format!("{}-r{replica}", cfg.name);
        }
        ChipSpec { cfg, chip }
    }

    /// Every member spec, in fleet order.
    pub fn specs(&self) -> Vec<ChipSpec> {
        (0..self.chips).map(|i| self.spec(i)).collect()
    }

    /// Chip counts per manufacturer, in `Manufacturer` declaration
    /// order (SK Hynix, Samsung, Micron).
    pub fn manufacturer_counts(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        if self.chips > 0 {
            assert!(!self.modules.is_empty(), "fleet needs at least one module");
        }
        for i in 0..self.chips {
            let m = &self.modules[i % self.modules.len()];
            let slot = match m.manufacturer {
                Manufacturer::SkHynix => 0,
                Manufacturer::Samsung => 1,
                Manufacturer::Micron => 2,
            };
            counts[slot] += 1;
        }
        counts
    }
}

/// A leased row range on one fleet member: the physical placement a
/// scheduler hands a job.
///
/// Slots live in one subarray (FCDRAM operand staging, charge sharing,
/// and copy-out all pair a home-subarray row with its neighbor, so a
/// program's register file must not straddle a subarray boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSlot {
    /// Fleet member index (see [`FleetConfig::spec`]).
    pub member: usize,
    /// Subarray within the member's modeled bank.
    pub subarray: usize,
    /// First leased row within the subarray.
    pub row_start: usize,
    /// Number of leased rows.
    pub rows: usize,
}

/// An outstanding lease returned by [`FleetSlots::lease_on`].
///
/// Deliberately not `Copy`: a lease is returned to the pool exactly
/// once, through [`FleetSlots::release`].
#[derive(Debug, PartialEq, Eq)]
pub struct SlotLease {
    /// The leased placement.
    pub slot: FleetSlot,
}

/// Per-subarray free-row ranges of one fleet member.
///
/// Only a prefix of the subarrays is materialized: first fit touches
/// subarrays in index order, so every subarray past `free` is still
/// wholly free — one `(0, usable)` range — and costs nothing to track.
#[derive(Debug, Clone)]
struct MemberSlots {
    /// Subarrays in the member's modeled bank.
    subarrays: usize,
    /// Rows a lease may occupy per subarray (geometry rows minus the
    /// reserved scratch at the top).
    usable: usize,
    /// Sorted, coalesced `(start, len)` free ranges of the touched
    /// subarrays `0..free.len()`.
    free: Vec<Vec<(usize, usize)>>,
}

impl MemberSlots {
    fn new(subarrays: usize, usable: usize) -> MemberSlots {
        MemberSlots {
            subarrays,
            usable,
            free: Vec::new(),
        }
    }

    /// Subarrays not yet touched since construction or the last reset.
    fn untouched(&self) -> usize {
        self.subarrays - self.free.len()
    }

    /// Materializes subarrays up to and including `subarray`.
    fn touch(&mut self, subarray: usize) -> &mut Vec<(usize, usize)> {
        assert!(subarray < self.subarrays, "subarray out of range");
        while self.free.len() <= subarray {
            self.free.push(vec![(0, self.usable)]);
        }
        &mut self.free[subarray]
    }

    /// Lengths of the touched subarrays' free ranges.
    fn free_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.free.iter().flat_map(|r| r.iter().map(|(_, len)| *len))
    }

    fn reset(&mut self) {
        self.free.clear();
    }

    fn free_rows(&self) -> usize {
        self.free_lens().sum::<usize>() + self.untouched() * self.usable
    }
}

/// Deterministic (chip, subarray, row-range) slot allocator over a
/// fleet: the placement layer a job scheduler leases execution slots
/// from.
///
/// Every member's modeled bank is divided into its subarrays; each
/// subarray offers `rows_per_subarray - reserved_top` leasable rows
/// (the top rows stay reserved for the reference/constant scratch the
/// command sequences need, mirroring `fcsynth`'s bender layout).
/// Allocation is first-fit in (subarray, row) order and therefore a
/// pure function of the lease/release history — schedulers replaying
/// the same request sequence get byte-identical placements.
#[derive(Debug, Clone)]
pub struct FleetSlots {
    members: Vec<MemberSlots>,
}

impl FleetSlots {
    /// Builds the allocator for `fleet`, reserving the top
    /// `reserved_top` rows of every subarray for reference scratch.
    pub fn new(fleet: &FleetConfig, reserved_top: usize) -> FleetSlots {
        let members = (0..fleet.len())
            .map(|i| {
                let g = fleet.spec(i).cfg.geometry();
                let usable = g.rows_per_subarray().saturating_sub(reserved_top);
                MemberSlots::new(g.subarrays_per_bank(), usable)
            })
            .collect();
        FleetSlots { members }
    }

    /// Number of fleet members tracked.
    pub fn members(&self) -> usize {
        self.members.len()
    }

    /// Leases `rows` contiguous rows on `member` (first fit across its
    /// subarrays). Returns `None` when no subarray has a large enough
    /// free range.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is zero or `member` is out of range.
    pub fn lease_on(&mut self, member: usize, rows: usize) -> Option<SlotLease> {
        assert!(rows > 0, "lease needs at least one row");
        let m = &mut self.members[member];
        let touched = m.free.len();
        let fits = |ranges: &[(usize, usize)]| ranges.iter().position(|(_, len)| *len >= rows);
        let found = m
            .free
            .iter()
            .enumerate()
            .find_map(|(subarray, ranges)| Some((subarray, fits(ranges)?)))
            .or_else(|| (m.untouched() > 0 && m.usable >= rows).then_some((touched, 0)));
        let (subarray, i) = found?;
        let ranges = m.touch(subarray);
        let (start, len) = ranges[i];
        if len == rows {
            ranges.remove(i);
        } else {
            ranges[i] = (start + rows, len - rows);
        }
        Some(SlotLease {
            slot: FleetSlot {
                member,
                subarray,
                row_start: start,
                rows,
            },
        })
    }

    /// Returns a lease's rows to the pool (ranges are re-coalesced, so
    /// lease/release sequences cannot fragment the pool permanently).
    ///
    /// # Panics
    ///
    /// Panics when the lease does not belong to this allocator's
    /// geometry.
    pub fn release(&mut self, lease: SlotLease) {
        let FleetSlot {
            member,
            subarray,
            row_start,
            rows,
        } = lease.slot;
        let ranges = self.members[member].touch(subarray);
        let at = ranges
            .iter()
            .position(|(start, _)| *start > row_start)
            .unwrap_or(ranges.len());
        ranges.insert(at, (row_start, rows));
        // Coalesce with the neighbors.
        if at + 1 < ranges.len() && ranges[at].0 + ranges[at].1 == ranges[at + 1].0 {
            ranges[at].1 += ranges[at + 1].1;
            ranges.remove(at + 1);
        }
        if at > 0 && ranges[at - 1].0 + ranges[at - 1].1 == ranges[at].0 {
            ranges[at - 1].1 += ranges[at].1;
            ranges.remove(at);
        }
    }

    /// Releases every outstanding lease on `member` (a scheduler's
    /// *wave* rollover: sequential re-use of the whole chip).
    pub fn reset_member(&mut self, member: usize) {
        self.members[member].reset();
    }

    /// Currently leasable rows on `member`.
    pub fn free_rows(&self, member: usize) -> usize {
        self.members[member].free_rows()
    }

    /// Largest single lease `member` can currently satisfy.
    pub fn largest_lease(&self, member: usize) -> usize {
        let m = &self.members[member];
        let idle = if m.untouched() > 0 { m.usable } else { 0 };
        m.free_lens().max().unwrap_or(0).max(idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::table1;

    #[test]
    fn single_fleet_member_zero_is_the_direct_path() {
        let cfg = table1().remove(0).with_modeled_cols(16);
        let fleet = FleetConfig::single(cfg.clone(), 1);
        let spec = fleet.spec(0);
        assert_eq!(spec.cfg, cfg, "member 0 must carry the untouched cfg");
        assert_eq!(spec.chip, ChipId(0));
        assert_eq!(spec.seed(), cfg.chip_seed(ChipId(0)));
    }

    #[test]
    fn specs_are_deterministic() {
        let fleet = FleetConfig::table1(64);
        assert_eq!(fleet.specs(), fleet.specs());
        assert_eq!(fleet.specs().len(), 64);
    }

    #[test]
    fn member_seeds_are_unique() {
        let fleet = FleetConfig::table1(256);
        let mut seeds: Vec<u64> = fleet.specs().iter().map(|s| s.seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 256, "all 256 fleet chips vary independently");
    }

    #[test]
    fn round_robin_samples_both_manufacturers() {
        let fleet = FleetConfig::table1(22);
        let [hynix, samsung, micron] = fleet.manufacturer_counts();
        assert_eq!(hynix, 18);
        assert_eq!(samsung, 4);
        assert_eq!(micron, 0);
    }

    #[test]
    fn replicas_roll_over_with_fresh_seeds() {
        let cfg = table1().remove(0); // 8 physical chips
        let fleet = FleetConfig::single(cfg.clone(), 20);
        let first = fleet.spec(0);
        let rolled = fleet.spec(8); // chip 0 of replica 1
        assert_eq!(rolled.chip, ChipId(0));
        assert_ne!(rolled.cfg.seed, first.cfg.seed);
        assert!(rolled.cfg.name.ends_with("-r1"), "{}", rolled.cfg.name);
        assert_ne!(rolled.seed(), first.seed());
    }

    #[test]
    fn fleet_seed_reseeds_population() {
        let cfg = table1().remove(0);
        let base = FleetConfig::single(cfg.clone(), 4);
        let reseeded = FleetConfig::single(cfg, 4).with_seed(99);
        for i in 0..4 {
            assert_ne!(base.spec(i).seed(), reseeded.spec(i).seed());
        }
        assert_eq!(reseeded.specs(), reseeded.specs(), "still deterministic");
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let fleet = FleetConfig::table1(44);
        let mut labels: Vec<String> = fleet.specs().iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 44);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spec_bounds_checked() {
        let _ = FleetConfig::table1(2).spec(2);
    }

    #[test]
    #[should_panic(expected = "at least one module")]
    fn empty_module_list_is_rejected_clearly() {
        // A deserialized / literal-built config can bypass custom()'s
        // assert; spec() must still fail with the clear message, not a
        // modulo-by-zero panic.
        let fleet = FleetConfig {
            modules: Vec::new(),
            chips: 4,
            seed: 0,
        };
        let _ = fleet.spec(0);
    }

    #[test]
    fn slots_lease_first_fit_and_release_coalesces() {
        let fleet = FleetConfig::table1(2);
        let g = fleet.spec(0).cfg.geometry();
        let usable = g.rows_per_subarray() - 16;
        let mut slots = FleetSlots::new(&fleet, 16);
        assert_eq!(slots.members(), 2);
        assert_eq!(slots.largest_lease(0), usable);

        let a = slots.lease_on(0, 10).unwrap();
        let b = slots.lease_on(0, 20).unwrap();
        assert_eq!(a.slot.subarray, 0);
        assert_eq!(a.slot.row_start, 0);
        assert_eq!(b.slot.row_start, 10, "bump allocation within a subarray");
        assert_eq!(slots.free_rows(1), usable * g.subarrays_per_bank());

        // Release out of order: the pool must coalesce back to whole.
        let before = slots.free_rows(0);
        slots.release(a);
        slots.release(b);
        assert_eq!(slots.free_rows(0), before + 30);
        assert_eq!(slots.largest_lease(0), usable, "coalesced to one range");
    }

    #[test]
    fn slots_spill_to_the_next_subarray_and_exhaust() {
        let fleet = FleetConfig::table1(1);
        let g = fleet.spec(0).cfg.geometry();
        let usable = g.rows_per_subarray() - 16;
        let mut slots = FleetSlots::new(&fleet, 16);
        let first = slots.lease_on(0, usable).unwrap();
        assert_eq!(first.slot.subarray, 0);
        let second = slots.lease_on(0, usable).unwrap();
        assert_eq!(second.slot.subarray, 1, "full subarray spills to next");
        // A lease larger than any subarray can never be satisfied.
        assert!(slots.lease_on(0, usable + 1).is_none());
        // Exhaust everything, then reset (wave rollover) restores all.
        while slots.lease_on(0, usable).is_some() {}
        assert_eq!(slots.largest_lease(0), 0);
        slots.reset_member(0);
        assert_eq!(slots.free_rows(0), usable * g.subarrays_per_bank());
    }

    #[test]
    fn slot_history_is_deterministic() {
        let fleet = FleetConfig::table1(3);
        let run = || {
            let mut slots = FleetSlots::new(&fleet, 16);
            let mut placed = Vec::new();
            for i in 0..40 {
                let member = i % 3;
                let lease = slots.lease_on(member, 4 + i % 7).unwrap();
                placed.push(lease.slot);
                if i % 5 == 0 {
                    slots.release(lease);
                }
            }
            placed
        };
        assert_eq!(run(), run(), "same request history, same placements");
    }

    #[test]
    fn built_chips_differ_between_members() {
        let cfg = table1().remove(0).with_modeled_cols(16);
        let fleet = FleetConfig::single(cfg, 2);
        let a = fleet.spec(0).build();
        let b = fleet.spec(1).build();
        assert_ne!(
            a.decoder().p_glitch(),
            b.decoder().p_glitch(),
            "per-chip variation must differ"
        );
    }
}
