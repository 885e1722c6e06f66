//! Fast-path vs. telemetry-path equivalence.
//!
//! The columnar fast path (telemetry off, packed I/O) must be
//! *observationally identical* to the full-telemetry path: same stored
//! bits, same `mean_success`/`observed_accuracy`, same reported
//! statistics — only the per-cell `CellOutcome` records disappear.
//! These tests run twin stacks from the same seed through both modes
//! and compare exactly: each `Fcdram` gate call ships on both, the
//! full stack reads every result row back through `read_row` and the
//! fast one reads packed lanes through `read_lanes`.

mod common;

use common::{accuracy, ideal_logic, read_results, shared_cols, staged_rows};
use dram_core::{
    result_role, BankId, Bit, CellRole, ChipId, CsTerminal, GlobalRow, LogicOp, SimFidelity,
    SubarrayId, Telemetry,
};
use fcdram::{BulkEngine, Fcdram, PackedBits};

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

#[test]
fn chip_ops_identical_across_telemetry_modes() {
    let cols = 64;
    let mut full = dram_core::Chip::new(cfg(cols), ChipId(0));
    let mut fast = dram_core::Chip::new(cfg(cols), ChipId(0));
    fast.configure(dram_core::SimConfig::fast());
    assert_eq!(full.fidelity().telemetry, Telemetry::Full);

    let src = pattern(99, cols);
    for chip in [&mut full, &mut fast] {
        chip.write_row_direct(BANK, GlobalRow(0), &src).unwrap();
    }
    // Drive the same violated-timing sequences on both chips.
    for l in 0..48usize {
        let a = full
            .multi_act_copy(BANK, GlobalRow(0), GlobalRow(512 + l))
            .unwrap();
        let b = fast
            .multi_act_copy(BANK, GlobalRow(0), GlobalRow(512 + l))
            .unwrap();
        full.precharge(BANK).unwrap();
        fast.precharge(BANK).unwrap();
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.stats, b.stats, "aggregates must match bitwise (l={l})");
        assert!(b.cells.is_empty(), "fast mode records no cells");
        for role in CellRole::ALL {
            assert_eq!(a.mean_success(role), b.mean_success(role));
            assert_eq!(a.observed_accuracy(role), b.observed_accuracy(role));
        }
        let c = full
            .multi_act_charge_share(BANK, GlobalRow(l), GlobalRow(512 + l))
            .unwrap();
        let d = fast
            .multi_act_charge_share(BANK, GlobalRow(l), GlobalRow(512 + l))
            .unwrap();
        full.precharge(BANK).unwrap();
        fast.precharge(BANK).unwrap();
        assert_eq!(c.kind, d.kind);
        assert_eq!(c.stats, d.stats);
    }
    // Every touched row holds identical bits.
    for r in 0..1024usize {
        assert_eq!(
            full.read_row_direct(BANK, GlobalRow(r)).unwrap(),
            fast.read_row_direct(BANK, GlobalRow(r)).unwrap(),
            "row {r} diverged"
        );
    }
}

/// `n` random lanes, one per shared column.
fn lanes(seed: u64, n: usize) -> PackedBits {
    let bits: Vec<bool> = (0..n)
        .map(|j| dram_core::math::hash_to_unit(dram_core::math::mix2(seed, j as u64)) < 0.5)
        .collect();
    PackedBits::from_bools(&bits)
}

/// The engine's staging convention, written out column by column:
/// shared lanes, zeros elsewhere (the fast stacks stage the same row
/// through `PackedBits::expand_strided`).
fn staged(p: &PackedBits, cols: usize, shared: &[usize]) -> Vec<Bit> {
    let mut row = vec![Bit::Zero; cols];
    for (i, c) in shared.iter().enumerate() {
        row[*c] = Bit::from(p.get(i));
    }
    row
}

/// Twin full-telemetry and fast stacks of one Table-1 part, both with
/// the activation map of subarray pair (0, 1) discovered.
fn twins(cols: usize, budget: usize) -> (Fcdram, Fcdram, fcdram::ActivationMap) {
    let mut full = Fcdram::new(cfg(cols));
    let mut fast = Fcdram::new(cfg(cols));
    fast.configure(dram_core::SimConfig::fast());
    let pair = (SubarrayId(0), SubarrayId(1));
    let map = full.discover(BANK, pair, budget).unwrap();
    let _ = fast.discover(BANK, pair, budget).unwrap();
    (full, fast, map)
}

/// The fast stack's packed lanes of `row` against the full stack's
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
    let (mut full, mut fast, map) = twins(cols, 8192);
    let entry = map
        .find_dst(1)
        .first()
        .cloned()
        .cloned()
        .or_else(|| map.find_dst(2).first().cloned().cloned())
        .expect("a small NOT pattern");

    let shared = shared_cols(cols, SubarrayId(0));
    let src = lanes(11, shared.len());
    let (layout, report) = full
        .not_outcome(BANK, &entry, staged(&src, cols, &shared).into(), None)
        .unwrap();
    let reads = read_results(&mut full, BANK, &layout);
    let (fast_layout, fast_res) = fast
        .not_outcome(BANK, &entry, src.expand_strided(cols, shared[0]), None)
        .unwrap();
    let result = fast
        .read_lanes(BANK, fast_layout.result_rows[0], shared[0], shared.len())
        .unwrap();

    assert_eq!(layout, fast_layout);
    assert_eq!(report.kind, fast_res.kind, "activated shape");
    assert_eq!(
        report.mean_success(CellRole::NotDst).map(f64::to_bits),
        fast_res.mean_success(CellRole::NotDst).map(f64::to_bits)
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
    let (mut full, mut fast, map) = twins(cols, 16384);
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

            // The full stack resolves the whole result terminal and
            // reads every result row; the fast one resolves only the
            // first row, as the engine does, and reads its lanes.
            let (layout, report) = full
                .logic_outcome(
                    BANK,
                    &entry,
                    op,
                    &staged_rows(&rows),
                    Some(CsTerminal::terminal_of(op)),
                )
                .unwrap();
            let reads = read_results(&mut full, BANK, &layout);
            let (fast_layout, fast_res) = fast
                .logic_outcome(
                    BANK,
                    &entry,
                    op,
                    &expanded,
                    Some(CsTerminal::first_row_of(op)),
                )
                .unwrap();
            let result = fast
                .read_lanes(BANK, fast_layout.result_rows[0], shared[0], shared.len())
                .unwrap();

            assert_eq!(layout, fast_layout, "{ctx}");
            assert_eq!(report.kind, fast_res.kind, "{ctx}");
            let role = result_role(op);
            assert_eq!(
                report.mean_success(role).map(f64::to_bits),
                fast_res.mean_success(role).map(f64::to_bits),
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
    for fc in [&mut full, &mut fast] {
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
    let (layout, report) = full.maj_outcome(BANK, &entry, &inputs).unwrap();
    let reads = read_results(&mut full, BANK, &layout);
    let (fast_layout, fast_res) = fast.maj_outcome(BANK, &entry, &inputs).unwrap();
    let result = fast
        .read_lanes(BANK, fast_layout.result_rows[0], shared[0], shared.len())
        .unwrap();
    assert_eq!(layout, fast_layout);
    assert_eq!(report.kind, fast_res.kind);
    assert_eq!(
        report.mean_success(CellRole::OffMaj).map(f64::to_bits),
        fast_res.mean_success(CellRole::OffMaj).map(f64::to_bits)
    );
    assert_lanes_match(&result, &reads[0].1, &shared, "MAJ4");
}

#[test]
fn engine_identical_in_both_fidelity_modes() {
    let build = |fidelity: SimFidelity| {
        BulkEngine::new(Fcdram::new(cfg(64)), BANK, SubarrayId(0))
            .unwrap()
            .with_sim_config(dram_core::SimConfig::new().with_fidelity(fidelity))
    };
    let mut fast = build(SimFidelity::fast());
    let mut full = build(SimFidelity::full());

    for e in [&mut fast, &mut full] {
        e.set_repetition(3);
    }
    let run = |e: &mut BulkEngine| {
        let out = e.alloc().unwrap();
        let bits = e.capacity_bits();
        let da: Vec<bool> = (0..bits).map(|i| i % 3 == 0).collect();
        let db: Vec<bool> = (0..bits).map(|i| i % 5 != 0).collect();
        let (da, db) = (PackedBits::from_bools(&da), PackedBits::from_bools(&db));
        let mut stats = vec![e.not(&da, &out).unwrap().0];
        let mut reads = vec![e.read(&out).unwrap()];
        for op in LogicOp::ALL {
            stats.push(e.logic(op, &[&da, &db], &out).unwrap().0);
            reads.push(e.read(&out).unwrap());
        }
        (stats, reads)
    };
    let (stats_fast, reads_fast) = run(&mut fast);
    let (stats_full, reads_full) = run(&mut full);
    assert_eq!(reads_fast, reads_full, "stored bits must be identical");
    for (sf, sl) in stats_fast.iter().zip(&stats_full) {
        assert_eq!(sf.executions, sl.executions);
        assert_eq!(sf.accuracy, sl.accuracy);
        assert_eq!(sf.predicted_success, sl.predicted_success);
    }
}
