//! Reverse engineering the chip: subarray boundaries and the
//! `N_RF:N_RL` activation patterns available between a pair of
//! neighboring subarrays (§4 of the paper).
//!
//! Discovery offers two modes:
//!
//! * **shape scan** — queries the activation shape produced for each
//!   `(R_F, R_L)` address pair, and resolves which rows would be raised
//!   only for the entries it keeps. This is the exhaustive mode used
//!   for coverage statistics (Fig. 5); it corresponds to the paper's
//!   full 409,600-combination sweeps.
//! * **command-level validation** — for a subset of pairs, runs the
//!   §4.2 write–read methodology over the DDR4 command interface:
//!   initialize candidate rows with pattern A, issue the violated
//!   sequence followed by a `WR` of pattern B, then read candidates
//!   back. Rows holding B were raised in `R_L`'s subarray; rows
//!   holding ¬B on the shared column half were raised in `R_F`'s.
//!   This cross-checks the shape scan end-to-end.

use crate::error::{FcdramError, Result};
use bender::Bender;
use dram_core::{
    is_shared_col, ActivationShape, BankId, Bit, ChipId, GlobalRow, LocalRow, MultiActivation,
    PatternKind, SubarrayId,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One usable activation pattern: the address pair plus the row sets
/// it raises.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternEntry {
    /// First activated row address.
    pub rf: GlobalRow,
    /// Second activated row address.
    pub rl: GlobalRow,
    /// Rows raised in `rf`'s subarray.
    pub first_rows: Vec<LocalRow>,
    /// Rows raised in `rl`'s subarray.
    pub second_rows: Vec<LocalRow>,
    /// Activation family.
    pub kind: PatternKind,
}

impl PatternEntry {
    /// `(N_RF, N_RL)` shape of this entry.
    pub fn shape(&self) -> (usize, usize) {
        (self.first_rows.len(), self.second_rows.len())
    }
}

/// Coverage of one activation shape across the scanned address pairs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageRow {
    /// Rows raised in `R_F`'s subarray.
    pub n_rf: usize,
    /// Rows raised in `R_L`'s subarray.
    pub n_rl: usize,
    /// Pattern family.
    pub kind: PatternKind,
    /// Fraction of all scanned pairs producing this shape.
    pub coverage: f64,
}

/// The discovered activation behaviour of one neighboring subarray
/// pair in one bank.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActivationMap {
    /// Bank scanned.
    pub bank: BankId,
    /// The neighboring subarray pair `(upper, lower)`.
    pub pair: (SubarrayId, SubarrayId),
    #[serde(with = "tuple_keyed_map")]
    entries: BTreeMap<(usize, usize), Vec<PatternEntry>>,
    #[serde(with = "tuple_keyed_map")]
    shape_counts: BTreeMap<(usize, usize, bool), usize>,
    scanned: usize,
}

/// Serializes `BTreeMap`s whose keys are tuples as sequences of
/// `(key, value)` pairs, so they survive formats (like JSON) that only
/// allow string object keys.
mod tuple_keyed_map {
    use serde::{Content, Deserialize, Error, Serialize};
    use std::collections::BTreeMap;

    pub(crate) fn serialize<K, V>(map: &BTreeMap<K, V>) -> Content
    where
        K: Serialize + Ord,
        V: Serialize,
    {
        Content::Array(
            map.iter()
                .map(|(k, v)| Content::Array(vec![k.to_content(), v.to_content()]))
                .collect(),
        )
    }

    pub(crate) fn deserialize<K, V>(c: &Content) -> Result<BTreeMap<K, V>, Error>
    where
        K: Deserialize + Ord,
        V: Deserialize,
    {
        let pairs: Vec<(K, V)> = Vec::from_content(c)?;
        Ok(pairs.into_iter().collect())
    }
}

impl ActivationMap {
    /// Scans `budget` address pairs between the neighboring subarrays
    /// `pair` of `bank` and records up to `cap_per_shape` usable
    /// entries per shape.
    ///
    /// # Errors
    ///
    /// Fails if the subarrays are not neighbors or indices are invalid.
    pub fn discover(
        bender: &mut Bender,
        chip: ChipId,
        bank: BankId,
        pair: (SubarrayId, SubarrayId),
        budget: usize,
        cap_per_shape: usize,
    ) -> Result<Self> {
        let dev = bender.module_mut().chip_mut(chip);
        let geom = *dev.geometry();
        geom.check_bank(bank)?;
        geom.check_subarray(pair.0)?;
        geom.check_subarray(pair.1)?;
        if !geom.are_neighbors(pair.0, pair.1) {
            return Err(FcdramError::OpFailed {
                detail: format!("subarrays {} and {} are not neighbors", pair.0, pair.1),
            });
        }
        let rows = geom.rows_per_subarray();
        let total = rows * rows;
        let budget = budget.min(total).max(1);
        let mut entries: BTreeMap<(usize, usize), Vec<PatternEntry>> = BTreeMap::new();
        let mut shape_counts: BTreeMap<(usize, usize, bool), usize> = BTreeMap::new();
        let mut scanned = 0usize;
        // Deterministic pseudo-random walk through the pair space so
        // the retained entries sample all row positions (the stored
        // entries feed the distance-dependence experiments, which need
        // sources and destinations across the whole subarray).
        while scanned < budget {
            let idx = (dram_core::math::mix3(0x5CA9, scanned as u64, rows as u64) % total as u64)
                as usize;
            let f = idx / rows;
            let l = idx % rows;
            let rf = geom.join_row(pair.0, LocalRow(f))?;
            let rl = geom.join_row(pair.1, LocalRow(l))?;
            // Shape first: only an entry that is kept pays for its
            // raised-row lists.
            if let ActivationShape::Cross { n_rf, n_rl, kind } =
                dev.decoder().activation_shape(&geom, rf, rl)
            {
                let shape = (usize::from(n_rf), usize::from(n_rl));
                *shape_counts
                    .entry((shape.0, shape.1, kind == PatternKind::N2N))
                    .or_insert(0) += 1;
                let list = entries.entry(shape).or_default();
                if list.len() < cap_per_shape {
                    let MultiActivation::CrossSubarray {
                        first_rows,
                        second_rows,
                        ..
                    } = dev.decoder().activation(&geom, rf, rl)
                    else {
                        unreachable!("a Cross shape is a cross-subarray activation");
                    };
                    list.push(PatternEntry {
                        rf,
                        rl,
                        first_rows,
                        second_rows,
                        kind,
                    });
                }
            }
            scanned += 1;
        }
        Ok(ActivationMap {
            bank,
            pair,
            entries,
            shape_counts,
            scanned,
        })
    }

    /// Number of address pairs scanned.
    pub fn scanned(&self) -> usize {
        self.scanned
    }

    /// Usable entries for an exact `(N_RF, N_RL)` shape.
    pub fn find(&self, n_rf: usize, n_rl: usize) -> &[PatternEntry] {
        self.entries
            .get(&(n_rf, n_rl))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// First entry of the `N:N` shape for `n`, if discovered.
    pub fn find_nn(&self, n: usize) -> Option<&PatternEntry> {
        self.find(n, n).first()
    }

    /// Entries whose destination-row count is `n_rl` (any `N_RF`),
    /// smallest total load first — the preferred NOT configurations.
    pub fn find_dst(&self, n_rl: usize) -> Vec<&PatternEntry> {
        let mut v: Vec<&PatternEntry> = self
            .entries
            .iter()
            .filter(|((_, l), _)| *l == n_rl)
            .flat_map(|(_, es)| es.iter())
            .collect();
        v.sort_by_key(|e| e.first_rows.len() + e.second_rows.len());
        v
    }

    /// All discovered shapes.
    pub fn shapes(&self) -> Vec<(usize, usize)> {
        self.entries.keys().copied().collect()
    }

    /// Coverage rows (Fig. 5): fraction of scanned pairs per shape.
    pub fn coverage(&self) -> Vec<CoverageRow> {
        self.shape_counts
            .iter()
            .map(|((n_rf, n_rl, n2n), count)| CoverageRow {
                n_rf: *n_rf,
                n_rl: *n_rl,
                kind: if *n2n {
                    PatternKind::N2N
                } else {
                    PatternKind::NN
                },
                coverage: *count as f64 / self.scanned.max(1) as f64,
            })
            .collect()
    }

    /// Total fraction of scanned pairs that produced any simultaneous
    /// activation.
    pub fn total_coverage(&self) -> f64 {
        self.shape_counts.values().sum::<usize>() as f64 / self.scanned.max(1) as f64
    }
}

/// One usable in-subarray multi-row activation (the Ambit /
/// ComputeDRAM / QUAC lineage: all raised rows charge-share against
/// their precharged reference bitlines, computing a majority).
///
/// Stays `pub` although no other crate names it:
/// [`discover_in_subarray`] returns these and
/// [`crate::Fcdram::maj_outcome`] takes one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InSubarrayEntry {
    /// First activated row address.
    pub rf: GlobalRow,
    /// Second activated row address.
    pub rl: GlobalRow,
    /// Rows raised in the subarray (sorted).
    pub rows: Vec<LocalRow>,
}

/// Scans `budget` same-subarray `(R_F, R_L)` pairs of `subarray` and
/// returns up to `cap` usable entries per raised-set size.
///
/// Set sizes are powers of two on simultaneous-capable parts; the
/// four-row sets support Ambit-style AND/OR via majority with constant
/// rows (e.g. `MAJ4(A, B, 1, 0) = AND(A, B)`).
pub fn discover_in_subarray(
    bender: &mut Bender,
    chip: ChipId,
    bank: BankId,
    subarray: SubarrayId,
    budget: usize,
    cap: usize,
) -> Result<BTreeMap<usize, Vec<InSubarrayEntry>>> {
    let dev = bender.module_mut().chip_mut(chip);
    let geom = *dev.geometry();
    geom.check_bank(bank)?;
    geom.check_subarray(subarray)?;
    let rows = geom.rows_per_subarray();
    let total = rows * rows;
    let mut out: BTreeMap<usize, Vec<InSubarrayEntry>> = BTreeMap::new();
    for i in 0..budget.min(total) {
        let idx = (dram_core::math::mix3(0x1A5B, i as u64, rows as u64) % total as u64) as usize;
        let (f, l) = (idx / rows, idx % rows);
        if f == l {
            continue;
        }
        let rf = geom.join_row(subarray, LocalRow(f))?;
        let rl = geom.join_row(subarray, LocalRow(l))?;
        if let MultiActivation::SameSubarray { rows: raised } =
            dev.decoder().activation(&geom, rf, rl)
        {
            let list = out.entry(raised.len()).or_default();
            if list.len() < cap {
                list.push(InSubarrayEntry {
                    rf,
                    rl,
                    rows: raised,
                });
            }
        }
    }
    Ok(out)
}

/// Discovers subarray boundaries in a bank through RowClone probing
/// (§4.2): a copy succeeds only within a subarray, and a cross-copy
/// inverts the shared half — so scanning `(src, src + k)` pairs at
/// growing `k` reveals where the boundary falls.
///
/// Returns the discovered subarray size in rows. `probe_rows` controls
/// how many source rows per candidate boundary are tested.
pub fn discover_subarray_rows(
    bender: &mut Bender,
    chip: ChipId,
    bank: BankId,
    probe_rows: usize,
) -> Result<usize> {
    let geom = *bender.module_mut().chip_mut(chip).geometry();
    let cols = geom.cols();
    let rows = geom.rows_per_subarray();
    // Candidate power-of-two sizes from 64 up to the bank size.
    let mut candidate = 64usize;
    let pattern: Vec<Bit> = (0..cols).map(|c| Bit::from(c % 3 == 0)).collect();
    let inverse: Vec<Bit> = pattern.iter().map(|b| b.not()).collect();
    while candidate <= rows {
        // Probe across the candidate boundary: src just below it,
        // dst just above. If every cross-boundary copy behaves like a
        // NOT (inverted shared half) or fails, the boundary is real.
        let mut boundary_like = 0usize;
        let mut probes = 0usize;
        for p in 0..probe_rows.max(1) {
            let src = GlobalRow(candidate - 1 - (p % 8));
            let dst = GlobalRow(candidate + (p * 7) % 16);
            if geom.check_row(dst).is_err() {
                continue;
            }
            bender.write_row(chip, bank, src, pattern.clone())?;
            bender.write_row(chip, bank, dst, inverse.clone())?;
            let _ = bender.copy_invert(chip, bank, src, dst)?;
            let got = bender.read_row(chip, bank, dst)?;
            probes += 1;
            // Same-subarray copy ⇒ dst == pattern on (nearly) all
            // columns. Cross-subarray ⇒ inverted on the shared half.
            let same = got.iter().zip(&pattern).filter(|(a, b)| a == b).count();
            if same < cols * 9 / 10 {
                boundary_like += 1;
            }
        }
        if probes > 0 && boundary_like * 2 > probes {
            return Ok(candidate);
        }
        candidate *= 2;
    }
    Err(FcdramError::OpFailed {
        detail: "no subarray boundary found".into(),
    })
}

/// Command-level validation of a pattern entry using the §4.2
/// write–read methodology. Returns the inferred `(first, second)` row
/// sets.
pub fn validate_entry(
    bender: &mut Bender,
    chip: ChipId,
    bank: BankId,
    entry: &PatternEntry,
) -> Result<(Vec<LocalRow>, Vec<LocalRow>)> {
    let geom = *bender.module_mut().chip_mut(chip).geometry();
    let cols = geom.cols();
    let (sub_f, loc_f) = geom.split_row(entry.rf)?;
    let (sub_l, loc_l) = geom.split_row(entry.rl)?;
    let upper = SubarrayId(sub_f.index().min(sub_l.index()));

    // Candidate rows: every address reachable by merging predecode
    // groups of the two addresses, in both sections.
    let candidates = merge_candidates(loc_f, loc_l);
    let pattern_a: Vec<Bit> = (0..cols).map(|c| Bit::from(c % 2 == 0)).collect();
    let pattern_b: Vec<Bit> = (0..cols).map(|c| Bit::from(c % 4 < 2)).collect();
    debug_assert_ne!(pattern_a, pattern_b);

    // 1. Initialize candidates in both subarrays with pattern A.
    for sub in [sub_f, sub_l] {
        for r in &candidates {
            bender.write_row(chip, bank, geom.join_row(sub, *r)?, pattern_a.clone())?;
        }
    }

    // 2. Violated sequence + WR of pattern B + precharge.
    let mut pb = bender.builder();
    pb.act(bank, entry.rf)
        .wait_ns(35.0)
        .pre(bank)
        .act(bank, entry.rl)
        .wait_ns(14.0)
        .wr(bank, pattern_b.clone())
        .wait_ns(35.0)
        .pre(bank);
    let program = pb.build();
    bender.execute(chip, &program)?;

    // 3. Read candidates back and classify.
    let mut first = Vec::new();
    let mut second = Vec::new();
    for r in &candidates {
        let got_l = bender.read_row(chip, bank, geom.join_row(sub_l, *r)?)?;
        if mostly_equal(&got_l, &pattern_b, cols) {
            second.push(*r);
        }
        let got_f = bender.read_row(chip, bank, geom.join_row(sub_f, *r)?)?;
        let inverted_on_shared = (0..cols)
            .filter(|c| is_shared_col(upper, dram_core::Col(*c)))
            .filter(|c| got_f[*c] == pattern_b[*c].not())
            .count();
        if inverted_on_shared * 10 > cols * 4 {
            // ≥80% of the shared half inverted.
            first.push(*r);
        }
    }
    Ok((first, second))
}

/// All local rows reachable by merging any subset of differing 2-bit
/// predecode groups and the section bit of two addresses.
fn merge_candidates(a: LocalRow, b: LocalRow) -> Vec<LocalRow> {
    let (a, b) = (a.index(), b.index());
    let mut groups: Vec<usize> = Vec::new();
    for g in 0..4 {
        if ((a >> (2 * g)) ^ (b >> (2 * g))) & 0b11 != 0 {
            groups.push(g);
        }
    }
    let sections: Vec<usize> = if a >> 8 == b >> 8 {
        vec![a >> 8]
    } else {
        vec![0, 1]
    };
    let mut out = Vec::new();
    for mask in 0..(1usize << groups.len()) {
        for base in [a, b] {
            let mut addr = base & 0xFF;
            for (i, g) in groups.iter().enumerate() {
                if (mask >> i) & 1 == 1 {
                    let other = if base == a { b } else { a };
                    addr = (addr & !(0b11 << (2 * g))) | (other & (0b11 << (2 * g)));
                }
            }
            for s in &sections {
                out.push(LocalRow(addr | (s << 8)));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn mostly_equal(a: &[Bit], b: &[Bit], cols: usize) -> bool {
    a.iter().zip(b).filter(|(x, y)| x == y).count() * 10 >= cols * 9
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::config::table1;
    use dram_core::DramModule;

    fn bender() -> Bender {
        let cfg = table1().into_iter().next().unwrap().with_modeled_cols(32);
        Bender::new(DramModule::new(cfg))
    }

    #[test]
    fn discover_finds_patterns() {
        let mut b = bender();
        let map = ActivationMap::discover(
            &mut b,
            ChipId(0),
            BankId(0),
            (SubarrayId(0), SubarrayId(1)),
            4096,
            8,
        )
        .unwrap();
        assert_eq!(map.scanned(), 4096);
        assert!(
            map.total_coverage() > 0.7,
            "coverage {}",
            map.total_coverage()
        );
        // The dominant shapes of Fig. 5 must appear.
        assert!(
            !map.find(8, 8).is_empty(),
            "8:8 missing: {:?}",
            map.shapes()
        );
        assert!(!map.find(16, 16).is_empty(), "16:16 missing");
        assert!(map.find_nn(4).is_some());
    }

    #[test]
    fn coverage_rows_sum_to_total() {
        let mut b = bender();
        let map = ActivationMap::discover(
            &mut b,
            ChipId(0),
            BankId(0),
            (SubarrayId(2), SubarrayId(3)),
            2048,
            4,
        )
        .unwrap();
        let sum: f64 = map.coverage().iter().map(|r| r.coverage).sum();
        assert!((sum - map.total_coverage()).abs() < 1e-9);
    }

    #[test]
    fn non_neighbor_pair_rejected() {
        let mut b = bender();
        let err = ActivationMap::discover(
            &mut b,
            ChipId(0),
            BankId(0),
            (SubarrayId(0), SubarrayId(2)),
            64,
            4,
        )
        .unwrap_err();
        assert!(matches!(err, FcdramError::OpFailed { .. }));
    }

    #[test]
    fn find_dst_prefers_light_patterns() {
        let mut b = bender();
        let map = ActivationMap::discover(
            &mut b,
            ChipId(0),
            BankId(0),
            (SubarrayId(0), SubarrayId(1)),
            8192,
            8,
        )
        .unwrap();
        let v = map.find_dst(16);
        if v.len() >= 2 {
            let loads: Vec<usize> = v
                .iter()
                .map(|e| e.first_rows.len() + e.second_rows.len())
                .collect();
            assert!(loads.windows(2).all(|w| w[0] <= w[1]), "{loads:?}");
        }
    }

    #[test]
    fn subarray_boundary_discovery_matches_geometry() {
        let mut b = bender();
        let rows = discover_subarray_rows(&mut b, ChipId(0), BankId(1), 8).unwrap();
        assert_eq!(rows, 512);
    }

    #[test]
    fn command_level_validation_matches_oracle() {
        let mut b = bender();
        let map = ActivationMap::discover(
            &mut b,
            ChipId(0),
            BankId(0),
            (SubarrayId(0), SubarrayId(1)),
            2048,
            4,
        )
        .unwrap();
        // Validate a small-shape entry end-to-end over commands.
        let entry = map
            .shapes()
            .into_iter()
            .filter_map(|(f, l)| map.find(f, l).first())
            .min_by_key(|e| e.first_rows.len() + e.second_rows.len())
            .cloned()
            .expect("at least one entry");
        let (first, second) = validate_entry(&mut b, ChipId(0), BankId(0), &entry).unwrap();
        assert_eq!(first, entry.first_rows, "first rows disagree");
        assert_eq!(second, entry.second_rows, "second rows disagree");
    }

    #[test]
    fn merge_candidates_contains_both_addresses() {
        let c = merge_candidates(LocalRow(0b0_1010_1010), LocalRow(0b1_0101_0101));
        assert!(c.contains(&LocalRow(0b0_1010_1010)));
        assert!(c.contains(&LocalRow(0b1_0101_0101)));
        // 4 differing groups + section ⇒ 2^4 * 2 = 32 candidates.
        assert_eq!(c.len(), 32);
    }
}
