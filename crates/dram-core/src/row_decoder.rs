//! Hierarchical row-decoder glitch model: which rows activate when an
//! `ACT R_F → PRE → ACT R_L` sequence is issued with violated timings.
//!
//! # Model
//!
//! Within-subarray addresses are 9 bits. The decoder predecodes them in
//! four 2-bit groups `G0..G3` (one-hot-of-4 latch per group) plus a
//! section bit `b8`. A violated-tRP `PRE → ACT` leaves the group
//! latches *merged*: every group in which `R_F` and `R_L` differ holds
//! both one-hot codes, so the set of local wordlines raised in `R_L`'s
//! subarray is the Cartesian product of the merged groups —
//! `2^|S|` rows, where `S` is the set of differing groups. Because the
//! probability that a 2-bit group differs between two uniformly random
//! addresses is 3/4, `|S| ~ Binomial(4, 3/4)`, which reproduces the
//! coverage mass of the paper's Fig. 5 (8:8 and 16:16 dominate).
//!
//! `R_F`'s subarray keeps its own master/section latch (it froze at the
//! first activation), so the first subarray activates the same merged
//! group product within *its* section: `N_RF = 2^|S|`. On some modules
//! the *section* latch on the `R_L` side can also merge when `b8`
//! differs, doubling only `N_RL` — the paper's `N:2N` family, up to
//! 16:32 = 48 simultaneously-activated rows.
//!
//! Whether a given `(R_F, R_L)` pair glitches at all is a deterministic
//! per-chip predicate (hash of the chip seed and both addresses),
//! calibrated so ≈82% of pairs produce simultaneous activation — the
//! total coverage observed in Fig. 5. Manufacturer capability gates the
//! whole mechanism (§7, Limitation 1): Samsung parts only activate the
//! two addressed rows sequentially; Micron parts ignore the violating
//! command.

use crate::config::{ActivationCapability, ModuleConfig};
use crate::geometry::Geometry;
use crate::math::{hash_to_normal, hash_to_unit, mix3, mix4};
use crate::types::{GlobalRow, LocalRow};
use serde::{Deserialize, Serialize};

/// Which activation family a simultaneous multi-row activation follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternKind {
    /// `N:N` — the same number of rows activate in each subarray.
    NN,
    /// `N:2N` — twice as many rows activate in `R_L`'s subarray.
    N2N,
}

/// Outcome of issuing `ACT R_F → PRE → ACT R_L` with violated timings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MultiActivation {
    /// The violating command was ignored (Micron behaviour): the first
    /// row remains open alone; the second never activates.
    SecondIgnored,
    /// The glitch did not take hold: the first subarray precharged
    /// normally and only the second row is open afterwards.
    SecondOnly,
    /// Both addresses fall in the same subarray and the merged latch
    /// state raises `rows` there (RowClone / Frac / QUAC lineage).
    SameSubarray {
        /// Local rows raised in the shared subarray (sorted).
        rows: Vec<LocalRow>,
    },
    /// Cross-subarray activation: `first_rows` raised in `R_F`'s
    /// subarray and `second_rows` in `R_L`'s.
    CrossSubarray {
        /// Local rows raised in `R_F`'s subarray (sorted).
        first_rows: Vec<LocalRow>,
        /// Local rows raised in `R_L`'s subarray (sorted).
        second_rows: Vec<LocalRow>,
        /// `N:N` or `N:2N`.
        kind: PatternKind,
        /// Whether the rows activated *simultaneously* (charge sharing
        /// possible) or merely in rapid sequence (Samsung parts).
        simultaneous: bool,
    },
}

/// Compact description of an activation shape, used by coverage scans
/// that do not need the actual row sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivationShape {
    /// No simultaneous cross-subarray activation for this pair.
    None,
    /// Cross-subarray activation with the given `(N_RF, N_RL)` counts.
    Cross {
        /// Rows in `R_F`'s subarray.
        n_rf: u8,
        /// Rows in `R_L`'s subarray.
        n_rl: u8,
        /// Pattern family.
        kind: PatternKind,
    },
}

/// Per-chip decoder parameters derived deterministically from the chip
/// seed and the module configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowDecoder {
    capability: ActivationCapability,
    supports_n2n: bool,
    max_merge_groups: u8,
    /// Probability that a random `(R_F, R_L)` pair glitches into
    /// simultaneous activation (per-chip, ≈0.82 ± 0.02).
    p_glitch: f64,
    /// Probability of a section-latch merge (→ N:2N), indexed by `|S|`.
    q_section: [f64; 5],
    seed: u64,
}

/// Mean glitch probability across chips; calibrated so the coverage of
/// all activation types in Fig. 5 sums to ≈82.15%.
const P_GLITCH_MEAN: f64 = 0.8215;
/// Chip-to-chip standard deviation of the glitch probability.
const P_GLITCH_SIGMA: f64 = 0.02;
/// Section-merge probability given a differing section bit, indexed by
/// the number of merged groups `|S|`; calibrated to the N:2N shares of
/// Fig. 5 (0.39, 0.37, 0.32, 0.245, 0.136 of each `|S|` class, divided
/// by P(b8 differs) = 1/2).
const Q_SECTION_MEAN: [f64; 5] = [0.78, 0.74, 0.64, 0.49, 0.272];

impl RowDecoder {
    /// Builds the decoder model for one chip.
    pub fn new(config: &ModuleConfig, chip_seed: u64) -> Self {
        let p_jitter = hash_to_normal(mix3(chip_seed, 0xDEC0DE, 1)) * P_GLITCH_SIGMA;
        let mut q_section = [0.0; 5];
        for (i, q) in q_section.iter_mut().enumerate() {
            let j = hash_to_normal(mix3(chip_seed, 0xDEC0DE, 2 + i as u64)) * 0.03;
            *q = (Q_SECTION_MEAN[i] + j).clamp(0.05, 0.95);
        }
        RowDecoder {
            capability: config.manufacturer.activation_capability(),
            supports_n2n: config.supports_n2n,
            max_merge_groups: config.max_merge_groups.min(4),
            p_glitch: (P_GLITCH_MEAN + p_jitter).clamp(0.70, 0.92),
            q_section,
            seed: mix3(chip_seed, 0x0DEC0DE5, 0x9E3779B9),
        }
    }

    /// Bitmask of the 2-bit predecode groups (bits 0..4) in which two
    /// local addresses differ, restricted to the mergeable groups.
    fn merged_mask(&self, a: LocalRow, b: LocalRow) -> u8 {
        let diff = a.index() ^ b.index();
        (0..self.max_merge_groups)
            .filter(|g| (diff >> (2 * *g as usize)) & 0b11 != 0)
            .fold(0, |mask, g| mask | 1 << g)
    }

    /// Set of 2-bit predecode groups (indices 0..4) in which two local
    /// addresses differ, restricted to the mergeable groups.
    fn merged_groups(&self, a: LocalRow, b: LocalRow) -> Vec<u8> {
        let mask = self.merged_mask(a, b);
        (0..4).filter(|g| (mask >> g) & 1 == 1).collect()
    }

    /// The section-latch predicate: whether a glitching cross-subarray
    /// pair with `merged` differing groups also merges `R_L`'s section
    /// bit (the `N:2N` family).
    fn section_merges(
        &self,
        rf: GlobalRow,
        rl: GlobalRow,
        loc_f: LocalRow,
        loc_l: LocalRow,
        merged: usize,
    ) -> bool {
        self.supports_n2n
            && loc_f.index() >> 8 != loc_l.index() >> 8
            && self.pair_unit(rf, rl, 0x5EC) < self.q_section[merged.min(4)]
    }

    /// Expands the Cartesian product of merged groups around a base
    /// address, holding `section_values` for bit 8.
    fn expand(
        &self,
        base: LocalRow,
        other: LocalRow,
        merged: &[u8],
        section_values: &[usize],
    ) -> Vec<LocalRow> {
        let mut rows = Vec::with_capacity((1 << merged.len()) * section_values.len());
        let base_bits = base.index();
        let other_bits = other.index();
        for mask in 0..(1usize << merged.len()) {
            let mut addr_low = base_bits & 0xFF; // bits 0..8
            for (i, g) in merged.iter().enumerate() {
                let shift = 2 * *g as usize;
                let take_other = (mask >> i) & 1 == 1;
                let src = if take_other { other_bits } else { base_bits };
                addr_low = (addr_low & !(0b11 << shift)) | (src & (0b11 << shift));
            }
            for &b8 in section_values {
                rows.push(LocalRow(addr_low | (b8 << 8)));
            }
        }
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Deterministic per-pair uniform deviate used by the glitch and
    /// section predicates.
    fn pair_unit(&self, rf: GlobalRow, rl: GlobalRow, salt: u64) -> f64 {
        hash_to_unit(mix4(self.seed, rf.index() as u64, rl.index() as u64, salt))
    }

    /// Resolves the activation produced by `ACT rf → PRE → ACT rl` with
    /// violated tRP (and, for charge-sharing mode, violated tRAS).
    ///
    /// The result is deterministic in `(chip, rf, rl)` — the paper's
    /// Observation 2 notes that the addresses determine both the
    /// pattern family and `N`.
    pub fn activation(&self, geom: &Geometry, rf: GlobalRow, rl: GlobalRow) -> MultiActivation {
        let (sub_f, loc_f) = geom.split_row(rf).expect("rf validated by caller");
        let (sub_l, loc_l) = geom.split_row(rl).expect("rl validated by caller");

        if self.capability == ActivationCapability::Ignored {
            return MultiActivation::SecondIgnored;
        }

        if sub_f == sub_l {
            // Same-subarray path (RowClone / QUAC lineage): both master
            // wordlines stay up; group latches may merge as well.
            if rf == rl {
                return MultiActivation::SameSubarray { rows: vec![loc_f] };
            }
            if self.capability == ActivationCapability::SequentialOnly {
                let mut rows = vec![loc_f, loc_l];
                rows.sort_unstable();
                return MultiActivation::SameSubarray { rows };
            }
            if self.pair_unit(rf, rl, 0xA11) >= self.p_glitch {
                return MultiActivation::SecondOnly;
            }
            let merged = self.merged_groups(loc_f, loc_l);
            let b8_f = loc_f.index() >> 8;
            let b8_l = loc_l.index() >> 8;
            let sections: Vec<usize> = if b8_f == b8_l {
                vec![b8_f]
            } else {
                vec![b8_f.min(b8_l), b8_f.max(b8_l)]
            };
            let mut rows = self.expand(loc_l, loc_f, &merged, &sections);
            // The addressed rows are always part of the raised set.
            if !rows.contains(&loc_f) {
                rows.push(loc_f);
                rows.sort_unstable();
            }
            return MultiActivation::SameSubarray { rows };
        }

        if !geom.are_neighbors(sub_f, sub_l) {
            // Electrically isolated subarrays: the second activation
            // simply replaces the first (HiRA-style hidden activation
            // is out of scope for the logic operations).
            return MultiActivation::SecondOnly;
        }

        if self.capability == ActivationCapability::SequentialOnly {
            return MultiActivation::CrossSubarray {
                first_rows: vec![loc_f],
                second_rows: vec![loc_l],
                kind: PatternKind::NN,
                simultaneous: false,
            };
        }

        if self.pair_unit(rf, rl, GLITCH_SALT) >= self.p_glitch {
            return MultiActivation::SecondOnly;
        }

        let merged = self.merged_groups(loc_f, loc_l);
        let b8_f = loc_f.index() >> 8;
        let b8_l = loc_l.index() >> 8;
        let section_merges = self.section_merges(rf, rl, loc_f, loc_l, merged.len());

        let first_rows = self.expand(loc_f, loc_l, &merged, &[b8_f]);
        let second_sections: Vec<usize> = if section_merges {
            vec![b8_f.min(b8_l), b8_f.max(b8_l)]
        } else {
            vec![b8_l]
        };
        let second_rows = self.expand(loc_l, loc_f, &merged, &second_sections);
        let kind = if section_merges {
            PatternKind::N2N
        } else {
            PatternKind::NN
        };
        MultiActivation::CrossSubarray {
            first_rows,
            second_rows,
            kind,
            simultaneous: true,
        }
    }

    /// Shape-only form of [`RowDecoder::activation`] for coverage scans
    /// and shape-first discovery: O(1) and allocation-free.
    ///
    /// Returns `Cross` exactly when [`RowDecoder::activation`] returns a
    /// *simultaneous* `CrossSubarray`, with the same counts and family:
    /// the glitch predicate decides whether the pair activates at all,
    /// the `m` merged predecode groups give `n_rf = 2^m`, and the
    /// section-merge predicate gives `n_rl = 2^(m+1)` (`N:2N`) instead
    /// of `2^m` (`N:N`). Every other outcome — ignored, sequential,
    /// same-subarray, non-neighbouring or non-glitching — is `None`.
    pub fn activation_shape(
        &self,
        geom: &Geometry,
        rf: GlobalRow,
        rl: GlobalRow,
    ) -> ActivationShape {
        let (sub_f, loc_f) = geom.split_row(rf).expect("rf validated by caller");
        let (sub_l, loc_l) = geom.split_row(rl).expect("rl validated by caller");
        if self.capability != ActivationCapability::Simultaneous
            || !geom.are_neighbors(sub_f, sub_l)
            || self.pair_unit(rf, rl, GLITCH_SALT) >= self.p_glitch
        {
            return ActivationShape::None;
        }
        let m = self.merged_mask(loc_f, loc_l).count_ones() as usize;
        let n2n = self.section_merges(rf, rl, loc_f, loc_l, m);
        ActivationShape::Cross {
            n_rf: 1 << m,
            n_rl: if n2n { 2 << m } else { 1 << m },
            kind: if n2n {
                PatternKind::N2N
            } else {
                PatternKind::NN
            },
        }
    }
}

/// Salt for the cross-subarray glitch predicate ("GLITCH" leetspeak).
const GLITCH_SALT: u64 = 0x611C4;

#[cfg(test)]
mod tests {
    use super::*;

    impl RowDecoder {
        /// The decoder's glitch probability, which other modules'
        /// tests compare across chips.
        pub(crate) fn p_glitch(&self) -> f64 {
            self.p_glitch
        }
    }
    use crate::config::table1;
    use crate::types::ChipId;

    fn hynix_decoder() -> (RowDecoder, Geometry) {
        let cfg = table1().into_iter().next().unwrap();
        let geom = cfg.geometry();
        let dec = RowDecoder::new(&cfg, cfg.chip_seed(ChipId(0)));
        (dec, geom)
    }

    #[test]
    fn deterministic_per_pair() {
        let (dec, geom) = hynix_decoder();
        let rf = GlobalRow(10);
        let rl = GlobalRow(512 + 77);
        assert_eq!(dec.activation(&geom, rf, rl), dec.activation(&geom, rf, rl));
    }

    #[test]
    fn same_row_single_activation() {
        let (dec, geom) = hynix_decoder();
        let r = GlobalRow(42);
        match dec.activation(&geom, r, r) {
            MultiActivation::SameSubarray { rows } => assert_eq!(rows, vec![LocalRow(42)]),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn cross_shapes_are_powers_of_two_and_families() {
        let (dec, geom) = hynix_decoder();
        let mut seen_cross = 0usize;
        for i in 0..2000usize {
            let rf = GlobalRow(i % 512);
            let rl = GlobalRow(512 + (i * 7) % 512);
            if let MultiActivation::CrossSubarray {
                first_rows,
                second_rows,
                kind,
                ..
            } = dec.activation(&geom, rf, rl)
            {
                seen_cross += 1;
                let (nf, nl) = (first_rows.len(), second_rows.len());
                assert!(nf.is_power_of_two(), "{nf}");
                assert!(nl.is_power_of_two(), "{nl}");
                match kind {
                    PatternKind::NN => assert_eq!(nf, nl),
                    PatternKind::N2N => assert_eq!(2 * nf, nl),
                }
                assert!(nl <= 32);
                assert!(first_rows.contains(&LocalRow(rf.index() % 512)));
                assert!(second_rows.contains(&LocalRow(rl.index() % 512)));
            }
        }
        assert!(seen_cross > 1000, "glitch rate too low: {seen_cross}");
    }

    #[test]
    fn glitch_rate_near_calibration() {
        let (dec, geom) = hynix_decoder();
        let mut hits = 0usize;
        let total = 20_000usize;
        for i in 0..total {
            let rf = GlobalRow((i * 13) % 512);
            let rl = GlobalRow(512 + (i * 29) % 512);
            if dec.activation_shape(&geom, rf, rl) != ActivationShape::None {
                hits += 1;
            }
        }
        let rate = hits as f64 / total as f64;
        assert!(
            (rate - dec.p_glitch()).abs() < 0.02,
            "rate={rate} p={}",
            dec.p_glitch()
        );
    }

    #[test]
    fn samsung_is_sequential_1to1() {
        let cfg = table1()
            .into_iter()
            .find(|m| m.manufacturer == crate::config::Manufacturer::Samsung)
            .unwrap();
        let geom = cfg.geometry();
        let dec = RowDecoder::new(&cfg, cfg.chip_seed(ChipId(0)));
        for i in 0..200usize {
            let rf = GlobalRow(i);
            let rl = GlobalRow(512 + (i * 3) % 512);
            match dec.activation(&geom, rf, rl) {
                MultiActivation::CrossSubarray {
                    first_rows,
                    second_rows,
                    simultaneous,
                    ..
                } => {
                    assert_eq!(first_rows.len(), 1);
                    assert_eq!(second_rows.len(), 1);
                    assert!(!simultaneous);
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn micron_ignores_second_act() {
        let cfg = crate::config::micron_modules().into_iter().next().unwrap();
        let geom = cfg.geometry();
        let dec = RowDecoder::new(&cfg, cfg.chip_seed(ChipId(0)));
        assert_eq!(
            dec.activation(&geom, GlobalRow(1), GlobalRow(513)),
            MultiActivation::SecondIgnored
        );
    }

    #[test]
    fn non_neighbor_subarrays_do_not_merge() {
        let (dec, geom) = hynix_decoder();
        // Subarray 0 and subarray 2 are not adjacent.
        let rf = GlobalRow(5);
        let rl = GlobalRow(2 * 512 + 9);
        assert_eq!(dec.activation(&geom, rf, rl), MultiActivation::SecondOnly);
    }

    #[test]
    fn n2n_only_when_supported() {
        let cfg = table1()
            .into_iter()
            .find(|m| !m.supports_n2n)
            .expect("an N:N-only module");
        let geom = cfg.geometry();
        let dec = RowDecoder::new(&cfg, cfg.chip_seed(ChipId(0)));
        for i in 0..5000usize {
            let rf = GlobalRow((i * 3) % 512);
            let rl = GlobalRow(512 + (i * 11) % 512);
            if let ActivationShape::Cross { kind, .. } = dec.activation_shape(&geom, rf, rl) {
                assert_eq!(kind, PatternKind::NN);
            }
        }
    }

    #[test]
    fn merge_group_limit_caps_row_count() {
        let cfg = table1()
            .into_iter()
            .find(|m| m.max_merge_groups == 3)
            .unwrap();
        let geom = cfg.geometry();
        let dec = RowDecoder::new(&cfg, cfg.chip_seed(ChipId(0)));
        for i in 0..5000usize {
            let rf = GlobalRow((i * 5) % 512);
            let rl = GlobalRow(512 + (i * 17) % 512);
            if let ActivationShape::Cross { n_rf, n_rl, .. } = dec.activation_shape(&geom, rf, rl) {
                assert!(n_rf <= 8, "n_rf={n_rf}");
                assert!(n_rl <= 16, "n_rl={n_rl}");
            }
        }
    }

    #[test]
    fn identical_low_bits_give_1_to_1_or_1_to_2() {
        let (dec, geom) = hynix_decoder();
        let mut found = false;
        for base in 0..512usize {
            let rf = GlobalRow(base);
            let rl = GlobalRow(512 + base); // identical local address
            if let ActivationShape::Cross { n_rf, n_rl, .. } = dec.activation_shape(&geom, rf, rl) {
                assert_eq!(n_rf, 1);
                assert!(n_rl == 1 || n_rl == 2);
                found = true;
            }
        }
        assert!(
            found,
            "expected at least one glitching identical-low-bits pair"
        );
    }

    #[test]
    fn expanded_rows_share_unmerged_bits() {
        let (dec, geom) = hynix_decoder();
        for i in 0..3000usize {
            let rf = GlobalRow((i * 7) % 512);
            let rl = GlobalRow(512 + (i * 31) % 512);
            if let MultiActivation::CrossSubarray { second_rows, .. } =
                dec.activation(&geom, rf, rl)
            {
                let loc_l = rl.index() % 512;
                for r in &second_rows {
                    // Any raised row differs from R_L only in merged
                    // groups or the section bit.
                    let diff = r.index() ^ loc_l;
                    for g in 0..4 {
                        let gd = (diff >> (2 * g)) & 0b11;
                        if gd != 0 {
                            // Group must differ between rf and rl too.
                            let rfl = rf.index() % 512;
                            assert_ne!(
                                (rfl >> (2 * g)) & 0b11,
                                (loc_l >> (2 * g)) & 0b11,
                                "merged group {g} without address difference"
                            );
                        }
                    }
                }
            }
        }
    }
}
