//! Fast-path vs. telemetry-path equivalence.
//!
//! The columnar fast path (telemetry off, packed I/O, optional column
//! threading) must be *observationally identical* to the full-telemetry
//! path: same stored bits, same `mean_success`/`observed_accuracy`,
//! same reported statistics — only the per-cell `CellOutcome` records
//! disappear. These tests run twin stacks from the same seed through
//! both modes and compare exactly.

use dram_core::{
    BankId, Bit, CellRole, ChipId, GlobalRow, LogicOp, SimFidelity, SubarrayId, Telemetry,
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

/// Shared columns of the pair (upper = 0) are the odd ones.
fn shared_cols(cols: usize, upper: SubarrayId) -> Vec<usize> {
    (0..cols)
        .filter(|c| dram_core::is_shared_col(upper, dram_core::Col(*c)))
        .collect()
}

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

#[test]
fn threaded_columns_identical_to_serial() {
    // Same chip seed, wide row; one chip threads its column kernels.
    let cols = 4096;
    let mut serial = dram_core::Chip::new(cfg(cols), ChipId(0));
    let mut threaded = dram_core::Chip::new(cfg(cols), ChipId(0));
    threaded.configure(dram_core::SimConfig::new().with_fidelity(SimFidelity {
        telemetry: Telemetry::Fast,
        parallel_threshold: Some(1024),
    }));
    serial.configure(dram_core::SimConfig::fast());

    let src = pattern(5, cols);
    for chip in [&mut serial, &mut threaded] {
        chip.write_row_direct(BANK, GlobalRow(7), &src).unwrap();
    }
    for (rf, rl) in [(7usize, 600), (3, 520), (40, 700)] {
        let a = serial
            .multi_act_copy(BANK, GlobalRow(rf), GlobalRow(rl))
            .unwrap();
        let b = threaded
            .multi_act_copy(BANK, GlobalRow(rf), GlobalRow(rl))
            .unwrap();
        serial.precharge(BANK).unwrap();
        threaded.precharge(BANK).unwrap();
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.stats, b.stats, "threaded stats must match serial bitwise");
        let c = serial
            .multi_act_charge_share(BANK, GlobalRow(rf), GlobalRow(rl))
            .unwrap();
        let d = threaded
            .multi_act_charge_share(BANK, GlobalRow(rf), GlobalRow(rl))
            .unwrap();
        serial.precharge(BANK).unwrap();
        threaded.precharge(BANK).unwrap();
        assert_eq!(c.stats, d.stats);
    }
    for r in [7usize, 600, 3, 520, 40, 700] {
        assert_eq!(
            serial.read_row_direct(BANK, GlobalRow(r)).unwrap(),
            threaded.read_row_direct(BANK, GlobalRow(r)).unwrap(),
            "row {r} diverged under threading"
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

/// The value ops' staging convention: shared lanes, zeros elsewhere.
fn staged(p: &PackedBits, cols: usize, shared: &[usize]) -> Vec<Bit> {
    let mut row = vec![Bit::Zero; cols];
    for (i, c) in shared.iter().enumerate() {
        row[*c] = Bit::from(p.get(i));
    }
    row
}

/// Accuracy of one read-back row over `cols` against `want`.
fn row_accuracy(row: &[Bit], cols: &[usize], want: impl Fn(usize, usize) -> bool) -> f64 {
    let hits = cols
        .iter()
        .enumerate()
        .filter(|(i, c)| row[**c].as_bool() == want(*i, **c))
        .count();
    hits as f64 / cols.len() as f64
}

#[test]
fn packed_not_matches_telemetry_report() {
    let cols = 64;
    let mut full = Fcdram::new(cfg(cols));
    let mut fast = Fcdram::new(cfg(cols));
    fast.configure(dram_core::SimConfig::fast());
    let pair = (SubarrayId(0), SubarrayId(1));
    let map = full.discover(BANK, pair, 8192).unwrap();
    let _ = fast.discover(BANK, pair, 8192).unwrap();
    let entry = map
        .find_dst(1)
        .first()
        .cloned()
        .cloned()
        .or_else(|| map.find_dst(2).first().cloned().cloned())
        .expect("a small NOT pattern");

    let shared = shared_cols(cols, pair.0);
    let src = lanes(11, shared.len());
    let report = full
        .execute_not(BANK, &entry, &staged(&src, cols, &shared))
        .unwrap();
    let fast_res = fast.execute_not_value(BANK, &entry, &src, None).unwrap();

    assert_eq!(report.shape, fast_res.shape);
    assert_eq!(
        report.predicted_success.to_bits(),
        fast_res.predicted_success.to_bits()
    );
    // First destination row, shared columns only, bit-identical; the
    // value op's accuracy is that row's.
    let (_, data) = &report.dst_reads[0];
    assert_eq!(fast_res.result.len(), shared.len());
    for (i, c) in shared.iter().enumerate() {
        assert_eq!(fast_res.result.get(i), data[*c].as_bool(), "lane {i}");
    }
    let first = row_accuracy(data, &shared, |i, _| !src.get(i));
    assert_eq!(first.to_bits(), fast_res.observed_success.to_bits());
}

#[test]
fn packed_logic_matches_telemetry_report_across_n() {
    let cols = 64;
    let mut full = Fcdram::new(cfg(cols));
    let mut fast = Fcdram::new(cfg(cols));
    fast.configure(dram_core::SimConfig::fast());
    let pair = (SubarrayId(0), SubarrayId(1));
    let map = full.discover(BANK, pair, 16384).unwrap();
    let _ = fast.discover(BANK, pair, 16384).unwrap();
    let shared = shared_cols(cols, pair.0);

    let mut tested = 0usize;
    for n in [2usize, 4, 8, 16] {
        let Some(entry) = map.find_nn(n).cloned() else {
            continue;
        };
        for op in LogicOp::ALL {
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
            let refs: Vec<&PackedBits> = packed.iter().collect();

            let report = full.execute_logic(BANK, &entry, op, &rows).unwrap();
            let fast_res = fast
                .execute_logic_value(BANK, &entry, op, &refs, None, true)
                .unwrap();

            assert_eq!(report.n, fast_res.n, "{op:?} n={n}");
            assert_eq!(
                report.predicted_success.to_bits(),
                fast_res.predicted_success.to_bits(),
                "{op:?} n={n} predicted"
            );
            for i in 0..shared.len() {
                assert_eq!(
                    report.expected[i].as_bool(),
                    fast_res.expected.get(i),
                    "{op:?} n={n}"
                );
                assert_eq!(
                    report.result[i].as_bool(),
                    fast_res.result.get(i),
                    "{op:?} n={n}"
                );
            }
            // `result` is the report's first result row on the shared
            // columns, so its accuracy is the value op's.
            let first = report
                .result
                .iter()
                .zip(&report.expected)
                .filter(|(a, b)| a == b)
                .count() as f64
                / shared.len() as f64;
            assert_eq!(
                first.to_bits(),
                fast_res.observed_success.to_bits(),
                "{op:?} n={n} observed"
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
    let inputs: Vec<Vec<Bit>> = (0..4).map(|i| pattern(0xA0 + i, cols)).collect();
    let report = full.execute_maj(BANK, &entry, &inputs).unwrap();
    let start = shared[0];
    let fast_res = fast
        .execute_maj_value(BANK, &entry, &inputs, start, None)
        .unwrap();
    assert_eq!(report.n, fast_res.n);
    assert_eq!(
        report.predicted_success.to_bits(),
        fast_res.predicted_success.to_bits()
    );
    assert_eq!(fast_res.result.len(), shared.len());
    for (i, c) in shared.iter().enumerate() {
        assert_eq!(
            report.result[*c].as_bool(),
            fast_res.result.get(i),
            "MAJ4 lane {i}"
        );
    }
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
