//! Fleet-mode fidelity invariant.
//!
//! Fleet mode must be a pure *enumeration* layer: a fleet of size 1
//! over an untouched module config with the default fleet seed is
//! bit-identical to the direct single-chip path — same `OpOutcome`
//! aggregates at the chip level, and same sweep accumulators (including
//! float-summation order) at the characterization level. Sharding is
//! likewise a pure wall-clock optimization: the report is identical
//! for every shard count.

use characterize::runner::ModuleCtx;
use characterize::sweep::{chip_sweep, run_fleet_sweep, ChipResult, SweepConfig};
use dram_core::{BankId, Bit, CellRole, ChipId, FleetConfig, GlobalRow};
use fcdram::SuccessAccumulator;

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
fn fleet_of_one_chip_is_bit_identical_to_direct_chip() {
    let cols = 64;
    let fleet = FleetConfig::single(cfg(cols), 1);
    let spec = fleet.spec(0);
    assert_eq!(spec.chip, ChipId(0));
    let mut fleet_chip = spec.build();
    let mut direct = dram_core::Chip::new(cfg(cols), ChipId(0));

    let src = pattern(42, cols);
    for chip in [&mut fleet_chip, &mut direct] {
        chip.write_row_direct(BANK, GlobalRow(0), &src).unwrap();
    }
    for l in 0..32usize {
        let a = fleet_chip
            .multi_act_copy(BANK, GlobalRow(0), GlobalRow(512 + l))
            .unwrap();
        let b = direct
            .multi_act_copy(BANK, GlobalRow(0), GlobalRow(512 + l))
            .unwrap();
        fleet_chip.precharge(BANK).unwrap();
        direct.precharge(BANK).unwrap();
        assert_eq!(a.kind, b.kind, "l={l}");
        assert_eq!(a.stats, b.stats, "OpOutcome aggregates must match (l={l})");
        for role in CellRole::ALL {
            assert_eq!(a.mean_success(role), b.mean_success(role));
        }
        // Observed accuracy reads the recorded rows back: same records,
        // same bits in each.
        assert_eq!(a, b, "row records must match (l={l})");
        for r in &a.rows {
            let g = direct.geometry().join_row(r.subarray, r.row).unwrap();
            let x = fleet_chip.read_row_direct(BANK, g).unwrap();
            assert_eq!(
                x,
                direct.read_row_direct(BANK, g).unwrap(),
                "row {g} (l={l})"
            );
        }
        let c = fleet_chip
            .multi_act_charge_share(BANK, GlobalRow(l), GlobalRow(512 + l))
            .unwrap();
        let d = direct
            .multi_act_charge_share(BANK, GlobalRow(l), GlobalRow(512 + l))
            .unwrap();
        fleet_chip.precharge(BANK).unwrap();
        direct.precharge(BANK).unwrap();
        assert_eq!(c.kind, d.kind);
        assert_eq!(c.stats, d.stats);
    }
    for r in 0..1024usize {
        assert_eq!(
            fleet_chip.read_row_direct(BANK, GlobalRow(r)).unwrap(),
            direct.read_row_direct(BANK, GlobalRow(r)).unwrap(),
            "row {r} diverged"
        );
    }
}

#[test]
fn fleet_of_one_sweep_is_bit_identical_to_direct_sweep() {
    let base = cfg(32);
    let sweep = SweepConfig::quick().with_shards(1);

    // Fleet path: the sharded runner over a population of one.
    let report = run_fleet_sweep(&FleetConfig::single(base.clone(), 1), &sweep);
    assert_eq!(report.chips.len(), 1);
    let fleet_result = &report.chips[0];

    // Direct path: the historical single-chip context, swept through
    // the identical grid.
    let mut ctx = ModuleCtx::build(&base, &sweep.scale).unwrap();
    let mut direct = ChipResult {
        label: format!("{}/c0", base.name),
        module: base.name.clone(),
        chip: 0,
        manufacturer: base.manufacturer.to_string(),
        not: SuccessAccumulator::new(),
        logic: SuccessAccumulator::new(),
        logic_shapes: Vec::new(),
        conditions: 0,
        failures: 0,
    };
    chip_sweep(&mut ctx, &sweep, &mut direct);

    assert_eq!(
        fleet_result, &direct,
        "fleet-of-1 must reproduce the direct path bit for bit"
    );
    assert_eq!(fleet_result.not.mean(), direct.not.mean());
    assert_eq!(fleet_result.logic.quantile(0.5), direct.logic.quantile(0.5));
}

#[test]
fn shard_count_does_not_change_the_report() {
    let fleet = FleetConfig::table1(6);
    let serial = run_fleet_sweep(&fleet, &SweepConfig::bench().with_shards(1));
    let sharded = run_fleet_sweep(&fleet, &SweepConfig::bench().with_shards(3));
    assert_eq!(serial.chips, sharded.chips);
    // Rendered population tables match except for the shard-count note.
    let strip = |tables: Vec<characterize::Table>| -> Vec<characterize::Table> {
        tables
            .into_iter()
            .map(|mut t| {
                t.notes.clear();
                t
            })
            .collect()
    };
    assert_eq!(strip(serial.tables()), strip(sharded.tables()));
}

#[test]
fn fleet_members_beyond_chip_zero_diverge() {
    // The invariant pins member 0 to the direct path; the *other*
    // members must carry genuinely different process variation.
    let fleet = FleetConfig::single(cfg(32), 2);
    let sweep = SweepConfig::bench().with_shards(1);
    let report = run_fleet_sweep(&fleet, &sweep);
    assert_eq!(report.chips.len(), 2);
    let (a, b) = (&report.chips[0], &report.chips[1]);
    assert!(!a.not.is_empty() && !b.not.is_empty());
    assert_ne!(
        a.not, b.not,
        "distinct chips must produce distinct distributions"
    );
}
