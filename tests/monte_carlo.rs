//! Monte-Carlo cross-checks: the analytic per-cell probabilities that
//! the experiments consume must agree with what repeated *actual*
//! executions of the command sequences produce.

mod common;

use characterize::patterns::DataPattern;
use common::{accuracy, ideal_logic, ideal_majority, read_results, shared_cols, staged_rows};
use dram_core::{BankId, Bit, CellRole, CsTerminal, GlobalRow, LogicOp, OpOutcome, SubarrayId};
use fcdram::{sample_trials, Fcdram, GateLayout, PatternEntry};

type Reads = Vec<(GlobalRow, Vec<Bit>)>;

/// A NOT through `entry`, every destination row read back, and the
/// accuracy of their shared columns.
fn not_with_reads(
    fc: &mut Fcdram,
    entry: &PatternEntry,
    src: &[Bit],
) -> fcdram::Result<(GateLayout, OpOutcome, Reads, f64)> {
    let (layout, outcome) = fc.not_outcome(BankId(0), entry, src.into(), None)?;
    let reads = read_results(fc, BankId(0), &layout);
    let want: Vec<Bit> = src.iter().map(|b| b.not()).collect();
    let observed = accuracy(&reads, &shared_cols(fc.cols(), SubarrayId(0)), &want);
    Ok((layout, outcome, reads, observed))
}

fn fc() -> Fcdram {
    let cfg = dram_core::config::table1().remove(0).with_modeled_cols(64);
    Fcdram::new(cfg)
}

/// Repeated executions of the same NOT converge to the model's mean
/// probability.
#[test]
fn not_observed_rate_matches_predicted_over_trials() {
    let mut fc = fc();
    let map = fc
        .discover(BankId(0), (SubarrayId(0), SubarrayId(1)), 8192)
        .unwrap();
    let entry = map
        .find_dst(8)
        .first()
        .cloned()
        .cloned()
        .expect("8-dest pattern");
    let src = DataPattern::Random(3).row(fc.cols());

    let trials = 60usize;
    let mut predicted = 0.0;
    let mut observed = 0.0;
    for _ in 0..trials {
        let (_, outcome, _, accuracy) = not_with_reads(&mut fc, &entry, &src).unwrap();
        predicted += outcome.mean_success(CellRole::NotDst).unwrap();
        observed += accuracy;
    }
    predicted /= trials as f64;
    observed /= trials as f64;
    assert!(
        (predicted - observed).abs() < 0.03,
        "predicted {predicted} vs observed {observed}"
    );
}

/// Same agreement for the Ambit-style in-subarray majority backing
/// `BulkEngine::maj3`: four rows charge-sharing at once, with the
/// all-1 filler row turning MAJ4 into MAJ3.
#[test]
fn maj_observed_rate_matches_predicted_over_trials() {
    let mut fc = fc();
    let sets = fcdram::mapping::discover_in_subarray(
        fc.bender_mut(),
        dram_core::ChipId(0),
        BankId(0),
        SubarrayId(1),
        4096,
        2,
    )
    .unwrap();
    let entry = sets
        .get(&4)
        .and_then(|v| v.first())
        .expect("4-row set")
        .clone();
    let cols = fc.cols();
    let inputs: Vec<Vec<Bit>> = vec![
        DataPattern::Random(41).row(cols),
        DataPattern::Random(42).row(cols),
        DataPattern::Random(43).row(cols),
        vec![Bit::One; cols],
    ];
    let (rows, want) = (staged_rows(&inputs), ideal_majority(&inputs));
    let all: Vec<usize> = (0..cols).collect();

    let trials = 60usize;
    let mut predicted = 0.0;
    let mut observed = 0.0;
    for _ in 0..trials {
        let (layout, outcome) = fc.maj_outcome(BankId(0), &entry, &rows).unwrap();
        predicted += outcome.mean_success(CellRole::OffMaj).unwrap();
        observed += accuracy(&read_results(&mut fc, BankId(0), &layout), &all, &want);
    }
    predicted /= trials as f64;
    observed /= trials as f64;
    assert!(
        (predicted - observed).abs() < 0.05,
        "predicted {predicted} vs observed {observed}"
    );
}

/// RowClone-backed vector copies converge to their predicted rate,
/// and the engine's accuracy bookkeeping agrees with a bit-level
/// comparison of what actually landed in the destination row.
#[test]
fn engine_copy_accuracy_matches_prediction() {
    let cfg = dram_core::config::table1().remove(0).with_modeled_cols(64);
    let mut e = fcdram::BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0)).unwrap();
    let a = e.alloc().unwrap();
    let b = e.alloc().unwrap();
    let data: Vec<bool> = (0..e.capacity_bits())
        .map(|i| dram_core::math::hash_to_unit(dram_core::math::mix2(7, i as u64)) < 0.5)
        .collect();

    let value = fcdram::PackedBits::from_bools(&data);

    let trials = 40usize;
    let mut predicted = 0.0;
    let mut observed = 0.0;
    let mut in_dram = 0usize;
    for _ in 0..trials {
        e.write(&a, &data).unwrap();
        let (stats, _) = e.copy(&a, &value, &b).unwrap();
        predicted += stats.predicted_success;
        observed += stats.accuracy;
        in_dram += stats.executions;
        let got = e.read(&b).unwrap();
        let same = got.iter().zip(&data).filter(|(x, y)| x == y).count();
        let check = same as f64 / data.len() as f64;
        assert!(
            (check - stats.accuracy).abs() < 1e-12,
            "bookkeeping mismatch"
        );
    }
    predicted /= trials as f64;
    observed /= trials as f64;
    assert!(
        (predicted - observed).abs() < 0.05,
        "predicted {predicted} vs observed {observed}"
    );
    assert!(in_dram > 0, "at least some copies execute as RowClone");
}

/// Same agreement for a logic operation, where per-column margin
/// classes make the probabilities heterogeneous.
#[test]
fn logic_observed_rate_matches_predicted_over_trials() {
    let mut fc = fc();
    let map = fc
        .discover(BankId(0), (SubarrayId(0), SubarrayId(1)), 8192)
        .unwrap();
    let entry = map.find_nn(4).expect("4:4 pattern").clone();
    let inputs: Vec<Vec<Bit>> = (0..4)
        .map(|i| DataPattern::Random(100 + i).row(fc.cols()))
        .collect();
    let (rows, want) = (staged_rows(&inputs), ideal_logic(LogicOp::And, &inputs));
    let shared = shared_cols(fc.cols(), SubarrayId(0));
    let mask = Some(CsTerminal::terminal_of(LogicOp::And));

    let trials = 60usize;
    let mut predicted = 0.0;
    let mut observed = 0.0;
    for _ in 0..trials {
        let (layout, outcome) = fc
            .logic_outcome(BankId(0), &entry, LogicOp::And, &rows, mask)
            .unwrap();
        predicted += outcome.mean_success(CellRole::Compute).unwrap();
        observed += accuracy(&read_results(&mut fc, BankId(0), &layout), &shared, &want);
    }
    predicted /= trials as f64;
    observed /= trials as f64;
    assert!(
        (predicted - observed).abs() < 0.04,
        "predicted {predicted} vs observed {observed}"
    );
}

/// The per-cell probabilities and the deterministic trial sampler
/// reproduce the paper's 10,000-trial success-rate methodology: the
/// sampled rate of every cell is within binomial noise of its p.
#[test]
fn ten_thousand_trial_methodology() {
    let mut fc = fc();
    let map = fc
        .discover(BankId(0), (SubarrayId(0), SubarrayId(1)), 8192)
        .unwrap();
    let entry = map
        .find_dst(4)
        .first()
        .cloned()
        .cloned()
        .expect("4-dest pattern");
    let src = DataPattern::Random(9).row(fc.cols());
    let (_, outcome) = fc.not_outcome(BankId(0), &entry, src.into(), None).unwrap();
    for (i, cell) in outcome
        .cells
        .iter()
        .filter(|c| c.role == CellRole::NotDst)
        .enumerate()
        .take(64)
    {
        let successes = sample_trials(cell.p_success, 10_000, 0xC0FFEE + i as u64);
        let rate = f64::from(successes) / 10_000.0;
        // 5σ binomial bound.
        let sigma = (cell.p_success * (1.0 - cell.p_success) / 10_000.0).sqrt();
        assert!(
            (rate - cell.p_success).abs() <= 5.0 * sigma + 1e-9,
            "cell {i}: rate {rate} vs p {}",
            cell.p_success
        );
    }
}

/// Executing the same sequence twice in a row produces independent
/// samples (trial keys advance with the chip's op counter), while
/// rebuilding the stack reproduces the exact same history.
#[test]
fn sampling_is_fresh_within_a_session_and_reproducible_across() {
    let run_twice = || {
        let mut fc = fc();
        let map = fc
            .discover(BankId(0), (SubarrayId(0), SubarrayId(1)), 4096)
            .unwrap();
        let entry = map
            .find_dst(16)
            .first()
            .cloned()
            .cloned()
            .expect("16-dest pattern");
        let src = DataPattern::Random(5).row(fc.cols());
        let a = not_with_reads(&mut fc, &entry, &src).unwrap();
        let b = not_with_reads(&mut fc, &entry, &src).unwrap();
        (a, b)
    };
    let (a1, b1) = run_twice();
    let (a2, b2) = run_twice();
    // Heavy-load NOT has enough noise that two in-session runs differ.
    let actual = |o: &OpOutcome| o.cells.iter().map(|c| c.actual).collect::<Vec<_>>();
    assert_ne!(
        actual(&a1.1),
        actual(&b1.1),
        "two executions should sample different outcomes"
    );
    // But the session replay is bit-identical.
    assert_eq!(a1, a2);
    assert_eq!(b1, b2);
}

/// Failure injection: reading a destination row back after a NOT at
/// extreme load shows real corruption, and the corruption matches the
/// outcome's `actual` bits (the memory state is consistent with the
/// report).
#[test]
fn memory_state_is_consistent_with_outcomes() {
    let mut fc = fc();
    let map = fc
        .discover(BankId(0), (SubarrayId(0), SubarrayId(1)), 8192)
        .unwrap();
    let entry = map
        .find_dst(32)
        .first()
        .cloned()
        .cloned()
        .expect("32-dest pattern");
    let src = DataPattern::Random(11).row(fc.cols());
    let (_, outcome, reads, observed) = not_with_reads(&mut fc, &entry, &src).unwrap();
    // At 48 driven rows most destination cells fail.
    assert!(observed < 0.6, "{observed}");
    let geom = fc.config().geometry();
    for (row, data) in &reads {
        let (sub, local) = geom.split_row(*row).unwrap();
        for cell in outcome
            .cells
            .iter()
            .filter(|c| c.role == CellRole::NotDst && c.subarray == sub && c.row == local)
        {
            assert_eq!(
                data[cell.col.index()],
                cell.actual,
                "read-back disagrees with outcome at {row}/{}",
                cell.col
            );
        }
    }
}

/// Micron failure injection end to end: the library reports the
/// failure and the memory is untouched.
#[test]
fn micron_not_leaves_memory_untouched() {
    let cfg = dram_core::config::micron_modules()
        .remove(0)
        .with_modeled_cols(32);
    let mut fc = Fcdram::new(cfg);
    let before = DataPattern::Checker.row(32);
    fc.write_row(BankId(0), GlobalRow(512), before.clone())
        .unwrap();
    let entry = fcdram::PatternEntry {
        rf: GlobalRow(0),
        rl: GlobalRow(512),
        first_rows: vec![dram_core::LocalRow(0)],
        second_rows: vec![dram_core::LocalRow(0)],
        kind: dram_core::PatternKind::NN,
    };
    let src = DataPattern::Random(1).row(32);
    let err = fc
        .not_outcome(BankId(0), &entry, src.into(), None)
        .unwrap_err();
    assert!(matches!(err, fcdram::FcdramError::OpFailed { .. }));
    assert_eq!(fc.read_row(BankId(0), GlobalRow(512)).unwrap(), before);
}
