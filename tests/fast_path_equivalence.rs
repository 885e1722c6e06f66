//! Packed-path vs. row-path equivalence.
//!
//! The engine's packed path (a logic gate resolving only its first
//! result row, packed lane reads) must be *observationally identical*
//! to the whole-terminal row path: same layout, same `mean_success`,
//! and the same bits in the first result row.
//! These tests run twin stacks of one config from the same seed and
//! compare exactly: each `Fcdram` gate call ships on both, one stack
//! reads every result row back through `read_row` and the other reads
//! the first row's packed lanes through `read_lanes`.

mod common;

use common::{accuracy, ideal_logic, read_results, shared_cols, staged_rows};
use dram_core::{result_role, BankId, Bit, CellRole, CsTerminal, LogicOp, SubarrayId};
use fcdram::{Fcdram, PackedBits};

fn cfg(cols: usize) -> dram_core::ModuleConfig {
    dram_core::config::table1()
        .remove(0)
        .with_modeled_cols(cols)
}

fn pattern(seed: u64, n: usize) -> Vec<Bit> {
    (0..n)
        .map(|c| {
            Bit::from(dram_core::math::hash_to_unit(dram_core::math::mix2(seed, c as u64)) < 0.5)
        })
        .collect()
}

const BANK: BankId = BankId(0);

/// `n` random lanes, one per shared column.
fn lanes(seed: u64, n: usize) -> PackedBits {
    let bits: Vec<bool> = (0..n)
        .map(|j| dram_core::math::hash_to_unit(dram_core::math::mix2(seed, j as u64)) < 0.5)
        .collect();
    PackedBits::from_bools(&bits)
}

/// The engine's staging convention, written out column by column:
/// shared lanes, zeros elsewhere (the narrow stack stages the same row
/// through `PackedBits::expand_strided`).
fn staged(p: &PackedBits, cols: usize, shared: &[usize]) -> Vec<Bit> {
    let mut row = vec![Bit::Zero; cols];
    for (i, c) in shared.iter().enumerate() {
        row[*c] = Bit::from(p.get(i));
    }
    row
}

/// Twin stacks of one Table-1 part, `whole` for the row path and
/// `narrow` for the packed path, both with the activation map of
/// subarray pair (0, 1) discovered.
fn twins(cols: usize, budget: usize) -> (Fcdram, Fcdram, fcdram::ActivationMap) {
    let mut whole = Fcdram::new(cfg(cols));
    let mut narrow = Fcdram::new(cfg(cols));
    let pair = (SubarrayId(0), SubarrayId(1));
    let map = whole.discover(BANK, pair, budget).unwrap();
    let _ = narrow.discover(BANK, pair, budget).unwrap();
    (whole, narrow, map)
}

/// The narrow stack's packed lanes of `row` against the whole stack's
/// full-width read-back of the same row, lane by lane.
fn assert_lanes_match(lanes: &PackedBits, row: &[Bit], shared: &[usize], ctx: &str) {
    assert_eq!(lanes.len(), shared.len(), "{ctx}: lane count");
    for (i, c) in shared.iter().enumerate() {
        assert_eq!(lanes.get(i), row[*c].as_bool(), "{ctx}: lane {i}");
    }
}

#[test]
fn packed_not_matches_telemetry_report() {
    let cols = 64;
    let (mut whole, mut narrow, map) = twins(cols, 8192);
    let entry = map
        .find_dst(1)
        .first()
        .cloned()
        .cloned()
        .or_else(|| map.find_dst(2).first().cloned().cloned())
        .expect("a small NOT pattern");

    let shared = shared_cols(cols, SubarrayId(0));
    let src = lanes(11, shared.len());
    let (layout, report) = whole
        .not_outcome(BANK, &entry, staged(&src, cols, &shared).into(), None)
        .unwrap();
    let reads = read_results(&mut whole, BANK, &layout);
    let (narrow_layout, narrow_res) = narrow
        .not_outcome(BANK, &entry, src.expand_strided(cols, shared[0]), None)
        .unwrap();
    let result = narrow
        .read_lanes(BANK, narrow_layout.result_rows[0], shared[0], shared.len())
        .unwrap();

    assert_eq!(layout, narrow_layout);
    assert_eq!(report.kind, narrow_res.kind, "activated shape");
    assert_eq!(
        report.mean_success(CellRole::NotDst).map(f64::to_bits),
        narrow_res.mean_success(CellRole::NotDst).map(f64::to_bits)
    );
    // First destination row, shared columns only, bit-identical; the
    // lanes' accuracy is that row's.
    assert_lanes_match(&result, &reads[0].1, &shared, "NOT");
    let mut want = src.clone();
    want.not_in_place();
    let ideal: Vec<Bit> = staged(&src, cols, &shared)
        .iter()
        .map(|b| b.not())
        .collect();
    let first = accuracy(&reads[..1], &shared, &ideal);
    assert_eq!(first.to_bits(), result.accuracy_against(&want).to_bits());
}

#[test]
fn packed_logic_matches_telemetry_report_across_n() {
    let cols = 64;
    let (mut whole, mut narrow, map) = twins(cols, 16384);
    let shared = shared_cols(cols, SubarrayId(0));

    let mut tested = 0usize;
    for n in [2usize, 4, 8, 16] {
        let Some(entry) = map.find_nn(n).cloned() else {
            continue;
        };
        for op in LogicOp::ALL {
            let ctx = format!("{op:?} n={n}");
            // n random packed inputs over the shared half.
            let packed: Vec<PackedBits> = (0..n)
                .map(|i| {
                    lanes(
                        dram_core::math::mix2(0xE0 + i as u64, n as u64),
                        shared.len(),
                    )
                })
                .collect();
            let rows: Vec<Vec<Bit>> = packed.iter().map(|p| staged(p, cols, &shared)).collect();
            let expanded: Vec<_> = packed
                .iter()
                .map(|p| p.expand_strided(cols, shared[0]))
                .collect();

            // The whole stack resolves the whole result terminal and
            // reads every result row; the narrow one resolves only the
            // first row, as the engine does, and reads its lanes.
            let (layout, report) = whole
                .logic_outcome(
                    BANK,
                    &entry,
                    op,
                    &staged_rows(&rows),
                    Some(CsTerminal::terminal_of(op)),
                )
                .unwrap();
            let reads = read_results(&mut whole, BANK, &layout);
            let (narrow_layout, narrow_res) = narrow
                .logic_outcome(
                    BANK,
                    &entry,
                    op,
                    &expanded,
                    Some(CsTerminal::first_row_of(op)),
                )
                .unwrap();
            let result = narrow
                .read_lanes(BANK, narrow_layout.result_rows[0], shared[0], shared.len())
                .unwrap();

            assert_eq!(layout, narrow_layout, "{ctx}");
            assert_eq!(report.kind, narrow_res.kind, "{ctx}");
            let role = result_role(op);
            assert_eq!(
                report.mean_success(role).map(f64::to_bits),
                narrow_res.mean_success(role).map(f64::to_bits),
                "{ctx} predicted"
            );
            assert_lanes_match(&result, &reads[0].1, &shared, &ctx);
            // The lanes are the first result row on the shared columns,
            // so their accuracy is that row's.
            let ideal = ideal_logic(op, &rows);
            let want: Vec<bool> = shared.iter().map(|c| ideal[*c].as_bool()).collect();
            let first = accuracy(&reads[..1], &shared, &ideal);
            assert_eq!(
                first.to_bits(),
                result
                    .accuracy_against(&PackedBits::from_bools(&want))
                    .to_bits(),
                "{ctx} observed"
            );
            tested += 1;
        }
    }
    assert!(
        tested >= 8,
        "expected at least N ∈ {{2, 4}} × 4 ops, got {tested} combos"
    );

    // MAJ4 on an in-subarray four-row set of the same chips.
    let mut sets = Vec::new();
    for fc in [&mut whole, &mut narrow] {
        let chip = fc.chip();
        sets.push(
            fcdram::mapping::discover_in_subarray(
                fc.bender_mut(),
                chip,
                BANK,
                SubarrayId(2),
                8192,
                4,
            )
            .unwrap(),
        );
    }
    let entry = sets[0]
        .get(&4)
        .and_then(|v| v.first())
        .expect("a 4-row in-subarray set")
        .clone();
    let inputs = staged_rows(&(0..4).map(|i| pattern(0xA0 + i, cols)).collect::<Vec<_>>());
    let (layout, report) = whole.maj_outcome(BANK, &entry, &inputs).unwrap();
    let reads = read_results(&mut whole, BANK, &layout);
    let (narrow_layout, narrow_res) = narrow.maj_outcome(BANK, &entry, &inputs).unwrap();
    let result = narrow
        .read_lanes(BANK, narrow_layout.result_rows[0], shared[0], shared.len())
        .unwrap();
    assert_eq!(layout, narrow_layout);
    assert_eq!(report.kind, narrow_res.kind);
    assert_eq!(
        report.mean_success(CellRole::OffMaj).map(f64::to_bits),
        narrow_res.mean_success(CellRole::OffMaj).map(f64::to_bits)
    );
    assert_lanes_match(&result, &reads[0].1, &shared, "MAJ4");
}
