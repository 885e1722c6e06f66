//! The resolved `CostModel` table against a reference interpolation.
//!
//! `CostModel` resolves its document once, at construction, into a
//! table indexed by (op, N). The reference below is the lookup the
//! table replaced: filter the entries by op name, sort them by input
//! count and interpolate, on every call. Every getter must return the
//! reference's bits for N in 0..=40 on every document shape.
//!
//! A derated model (`CostModel::derated`, and so every chip profile)
//! keeps its base's document, so its reference is the base document
//! with each logic entry derated first, then interpolated.

use dram_core::{FleetConfig, LogicOp};
use fcsched::ChipProfile;
use fcsynth::{CostModel, CostModelData, GateCost};

/// Linear interpolation over `op`'s entries, clamped at the ends;
/// `None` when the document has no entry for `op`.
fn reference_interp<F: Fn(&GateCost) -> f64>(
    data: &CostModelData,
    op: &str,
    n: usize,
    f: F,
) -> Option<f64> {
    let mut points: Vec<(usize, f64)> = data
        .entries
        .iter()
        .filter(|e| e.op == op)
        .map(|e| (e.inputs, f(e)))
        .collect();
    if points.is_empty() {
        return None;
    }
    points.sort_by_key(|(inputs, _)| *inputs);
    if n <= points[0].0 {
        return Some(points[0].1);
    }
    if n >= points[points.len() - 1].0 {
        return Some(points[points.len() - 1].1);
    }
    for w in points.windows(2) {
        let ((n0, v0), (n1, v1)) = (w[0], w[1]);
        if n0 <= n && n <= n1 {
            if n == n0 {
                return Some(v0);
            }
            let t = (n - n0) as f64 / (n1 - n0) as f64;
            return Some(v0 + t * (v1 - v0));
        }
    }
    unreachable!("n inside the sorted point range");
}

/// A logic op's statistic: its own entries, then its dual's, then any
/// logic entries at all.
fn reference_logic<F: Fn(&GateCost) -> f64 + Copy>(
    data: &CostModelData,
    op: LogicOp,
    n: usize,
    f: F,
) -> f64 {
    let dual = match op {
        LogicOp::And => LogicOp::Nand,
        LogicOp::Nand => LogicOp::And,
        LogicOp::Or => LogicOp::Nor,
        LogicOp::Nor => LogicOp::Or,
    };
    [op.name(), dual.name(), "and", "or", "nand", "nor"]
        .into_iter()
        .find_map(|name| reference_interp(data, name, n, f))
        .expect("a valid document has a logic entry")
}

fn assert_matches_reference(m: &CostModel) {
    assert_matches_reference_at(m, m.data(), 0..=40);
}

/// Every getter of `m` against the reference lookup over `data`.
fn assert_matches_reference_at(
    m: &CostModel,
    data: &CostModelData,
    widths: impl Iterator<Item = usize> + Clone,
) {
    let same = |got: f64, want: f64, what: &str| {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{}: {what}: table {got} vs reference {want}",
            data.source
        );
    };
    for op in LogicOp::ALL {
        for n in widths.clone() {
            let what = format!("{}/{n}", op.name());
            same(
                m.success(op, n),
                reference_logic(data, op, n, |e| e.success).clamp(0.0, 1.0),
                &format!("{what} success"),
            );
            same(
                m.latency_ns(op, n),
                reference_logic(data, op, n, |e| e.latency_ns),
                &format!("{what} latency"),
            );
            same(
                m.energy_pj(op, n),
                reference_logic(data, op, n, |e| e.energy_pj),
                &format!("{what} energy"),
            );
        }
    }
    let not = |f: fn(&GateCost) -> f64| reference_interp(data, "not", 1, f);
    same(
        m.not_success(),
        not(|e| e.success).unwrap_or(1.0).clamp(0.0, 1.0),
        "not success",
    );
    same(
        m.not_latency_ns(),
        not(|e| e.latency_ns).unwrap_or(0.0),
        "not latency",
    );
    same(
        m.not_energy_pj(),
        not(|e| e.energy_pj).unwrap_or(0.0),
        "not energy",
    );
}

fn gate(op: &str, inputs: usize, success: f64, latency_ns: f64) -> GateCost {
    GateCost {
        op: op.into(),
        inputs,
        success,
        latency_ns,
        energy_pj: latency_ns * 0.37 + inputs as f64,
        cells: 0,
    }
}

fn document(source: &str, entries: Vec<GateCost>) -> CostModel {
    CostModel::from_data(CostModelData {
        source: source.into(),
        lanes: 64,
        entries,
    })
    .expect("valid test document")
}

/// `data` with the success rate of every logic entry of more than one
/// input raised to `exponent(inputs)`.
fn derated_document(data: &CostModelData, exponent: impl Fn(usize) -> f64) -> CostModelData {
    let mut data = data.clone();
    data.source = format!("{} derated", data.source);
    for e in &mut data.entries {
        if e.op != "not" && e.inputs > 1 {
            e.success = e.success.powf(exponent(e.inputs));
        }
    }
    data
}

/// Widths past the dense table (64 inputs), where lookups interpolate.
const PAST_DENSE: [usize; 7] = [63, 64, 65, 500, 999, 1_000, 1_001];

/// `base.derated(exponent)` against the reference over the derated
/// document, at N in 0..=40 and past the dense table.
fn assert_derated_matches_reference(base: &CostModel, exponent: impl Fn(usize) -> f64 + Copy) {
    let derated = base.derated(exponent);
    assert_eq!(derated.data(), base.data(), "shares the base's document");
    let reference = derated_document(base.data(), exponent);
    assert_matches_reference_at(&derated, &reference, (0..=40).chain(PAST_DENSE));
}

/// One logic op only: the other three fall back to it.
fn or_only() -> CostModel {
    document(
        "or only",
        vec![
            gate("not", 1, 0.98, 5.0),
            gate("or", 2, 0.99, 10.0),
            gate("or", 8, 0.95, 30.0),
        ],
    )
}

/// One point per op: every N clamps to it.
fn one_point_per_op() -> CostModel {
    document(
        "one point per op",
        vec![
            gate("not", 1, 0.97, 4.0),
            gate("and", 4, 0.96, 11.0),
            gate("nand", 2, 0.95, 12.0),
            gate("or", 16, 0.9, 13.0),
            gate("nor", 3, 0.93, 14.0),
        ],
    )
}

/// Points past the dense table.
fn very_wide() -> CostModel {
    document(
        "very wide",
        vec![gate("or", 2, 0.99, 8.0), gate("or", 1_000, 0.1, 900.0)],
    )
}

/// A 32-input entry, unsorted input order and a repeated width.
fn wide() -> CostModel {
    document(
        "wide",
        vec![
            gate("and", 32, 0.7, 90.0),
            gate("and", 2, 0.99, 9.0),
            gate("and", 8, 0.9, 30.0),
            gate("and", 8, 0.91, 31.0),
            gate("nor", 5, 0.85, 20.0),
            gate("nor", 32, 0.6, 95.0),
            gate("not", 1, 0.99, 3.0),
        ],
    )
}

#[test]
fn table1_defaults_match_the_reference() {
    for lanes in [1usize, 32, 64, 4096, 65_536] {
        assert_matches_reference(&CostModel::table1_defaults_for(lanes));
    }
}

#[test]
fn derated_chip_profiles_match_the_reference() {
    let base = CostModel::table1_defaults();
    let fleet = FleetConfig::table1(12);
    let mut strained = 0;
    for (i, spec) in fleet.specs().iter().enumerate() {
        let profile = ChipProfile::derive(i, spec, &base);
        let strain = profile.strain;
        strained += usize::from(strain > 0.05);
        let reference = derated_document(base.data(), |inputs| {
            1.0 + strain * (inputs - 1) as f64 / 15.0
        });
        assert_eq!(
            profile.cost.data(),
            base.data(),
            "shares the base's document"
        );
        assert_matches_reference_at(&profile.cost, &reference, 0..=40);
    }
    assert!(strained > 0, "some chip is derated");
}

#[test]
fn derated_hand_built_documents_match_the_reference() {
    // Derated before interpolation: dual fallback ("or only"),
    // interpolated and repeated widths ("wide"), widths past the last
    // point ("one point per op") and past the dense table ("very
    // wide").
    for base in [or_only(), wide(), one_point_per_op(), very_wide()] {
        assert_derated_matches_reference(&base, |inputs| 1.0 + 0.7 * (inputs - 1) as f64 / 15.0);
        assert_derated_matches_reference(&base, |inputs| 2.5 + inputs as f64 / 4.0);
    }
}

#[test]
fn hand_built_documents_match_the_reference() {
    assert_matches_reference(&or_only());
    assert_matches_reference(&one_point_per_op());
    // No NOT entry: NOT is assumed exact and free.
    assert_matches_reference(&document(
        "no not",
        vec![gate("nand", 2, 0.9, 7.0), gate("nand", 16, 0.8, 70.0)],
    ));
    assert_matches_reference(&wide());
    // Repeated widths at both ends of the point range.
    assert_matches_reference(&document(
        "repeated ends",
        vec![
            gate("and", 2, 0.99, 9.0),
            gate("and", 2, 0.98, 9.5),
            gate("and", 6, 0.94, 19.0),
            gate("and", 6, 0.93, 20.0),
        ],
    ));
    // Points past the dense table: lookups between them interpolate.
    let very_wide = very_wide();
    assert_matches_reference(&very_wide);
    assert_matches_reference_at(&very_wide, very_wide.data(), PAST_DENSE.into_iter());
}
