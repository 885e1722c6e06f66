//! End-to-end integration tests spanning all crates: device model →
//! command infrastructure → fcdram library → characterization harness.

mod common;

use characterize::experiments::run_experiment;
use characterize::runner::{ModuleCtx, Scale};
use common::{accuracy, ideal_logic, read_results, shared_cols, staged_rows};
use dram_core::{result_role, BankId, CellRole, CsTerminal, LogicOp, Manufacturer, SubarrayId};
use fcdram::{BulkEngine, Fcdram, PackedBits};

fn hynix_cfg() -> dram_core::ModuleConfig {
    dram_core::config::table1().remove(0).with_modeled_cols(64)
}

fn rand_bits(seed: u64, n: usize) -> Vec<bool> {
    (0..n)
        .map(|c| dram_core::math::hash_to_unit(dram_core::math::mix2(seed, c as u64)) < 0.5)
        .collect()
}

#[test]
fn full_stack_functionally_complete_pipeline() {
    // NAND is functionally complete: build NOT and AND out of NAND
    // through the bulk engine and verify against host arithmetic.
    let mut e = BulkEngine::new(Fcdram::new(hynix_cfg()), BankId(0), SubarrayId(0)).unwrap();
    // Vote away most analog noise. Note the paper's 2-input worst-case
    // patterns (Fig. 16) cap per-execution success near 69%, so even
    // voted accuracy stays below 1 on the affected half of the bits.
    e.set_repetition(9);
    let bits = e.capacity_bits();
    let a = e.alloc().unwrap();
    let b = e.alloc().unwrap();
    let t1 = e.alloc().unwrap();
    let t2 = e.alloc().unwrap();
    let da = rand_bits(1, bits);
    let db = rand_bits(2, bits);
    let (va, vb) = (PackedBits::from_bools(&da), PackedBits::from_bools(&db));
    e.write_packed(&a, &va).unwrap();
    e.write_packed(&b, &vb).unwrap();

    // NOT(a) = NAND(a, a).
    e.logic(LogicOp::Nand, &[&va, &va], &t1).unwrap();
    let got_not = e.read(&t1).unwrap();
    let want_not: Vec<bool> = da.iter().map(|x| !x).collect();
    let acc = got_not
        .iter()
        .zip(&want_not)
        .filter(|(x, y)| x == y)
        .count() as f64
        / bits as f64;
    assert!(acc > 0.78, "NAND-built NOT accuracy {acc}");

    // AND(a, b) = NOT(NAND(a, b)).
    let nand = e.logic(LogicOp::Nand, &[&va, &vb], &t1).unwrap().1;
    e.logic(LogicOp::Nand, &[&nand, &nand], &t2).unwrap();
    let got_and = e.read(&t2).unwrap();
    let want_and: Vec<bool> = da.iter().zip(&db).map(|(x, y)| *x && *y).collect();
    let acc = got_and
        .iter()
        .zip(&want_and)
        .filter(|(x, y)| x == y)
        .count() as f64
        / bits as f64;
    assert!(acc > 0.65, "NAND-built AND accuracy {acc}");
}

#[test]
fn sixteen_input_operations_work_on_capable_parts() {
    let cfg = hynix_cfg();
    assert_eq!(cfg.max_op_inputs(), 16);
    let mut fc = Fcdram::new(cfg);
    let map = fc
        .discover(BankId(0), (SubarrayId(0), SubarrayId(1)), 16_384)
        .unwrap();
    let entry = map.find_nn(16).expect("a 16:16 pattern").clone();
    let cols = fc.cols();
    let inputs: Vec<Vec<fcdram::Bit>> = (0..16)
        .map(|i| {
            (0..cols)
                .map(|c| {
                    fcdram::Bit::from(
                        dram_core::math::hash_to_unit(dram_core::math::mix2(i, c as u64)) < 0.5,
                    )
                })
                .collect()
        })
        .collect();
    let shared = shared_cols(cols, SubarrayId(0));
    for op in [LogicOp::And, LogicOp::Nand, LogicOp::Or, LogicOp::Nor] {
        let mask = Some(CsTerminal::terminal_of(op));
        let (layout, outcome) = fc
            .logic_outcome(BankId(0), &entry, op, &staged_rows(&inputs), mask)
            .unwrap();
        let predicted = outcome.mean_success(result_role(op)).unwrap();
        assert!(predicted > 0.85, "{op:?}: predicted {predicted}");
        let reads = read_results(&mut fc, BankId(0), &layout);
        let observed = accuracy(&reads, &shared, &ideal_logic(op, &inputs));
        assert!(observed > 0.75, "{op:?}: observed {observed}");
    }
}

#[test]
fn micron_parts_produce_no_operations() {
    let cfg = dram_core::config::micron_modules()
        .remove(0)
        .with_modeled_cols(32);
    let mut fc = Fcdram::new(cfg);
    // Discovery finds no simultaneous shapes.
    let map = fc
        .discover(BankId(0), (SubarrayId(0), SubarrayId(1)), 2_048)
        .unwrap();
    assert!(
        map.shapes().is_empty(),
        "Micron must not glitch: {:?}",
        map.shapes()
    );
}

#[test]
fn samsung_not_works_but_logic_does_not() {
    let cfg = dram_core::config::table1()
        .into_iter()
        .find(|m| m.manufacturer == Manufacturer::Samsung)
        .unwrap()
        .with_modeled_cols(32);
    let scale = Scale::quick();
    let mut ctx = ModuleCtx::build(&cfg, &scale).unwrap();
    assert!(ctx.map.shapes().is_empty());
    // Sequential 1:1 NOT works.
    let entry = ctx.sequential_entry(0);
    let src = characterize::patterns::DataPattern::Random(5).row(32);
    let (_, outcome) = ctx
        .fc
        .not_outcome(BankId(0), &entry, src.clone().into())
        .unwrap();
    let predicted = outcome.mean_success(CellRole::NotDst).unwrap();
    assert!(predicted > 0.7, "{predicted}");
    // Logic fails.
    let inputs = staged_rows(&[src.clone(), src]);
    let mask = Some(CsTerminal::terminal_of(LogicOp::And));
    assert!(ctx
        .fc
        .logic_outcome(BankId(0), &entry, LogicOp::And, &inputs, mask)
        .is_err());
}

#[test]
fn harness_runs_every_experiment_on_a_small_fleet() {
    let scale = Scale::quick();
    let all = dram_core::config::table1();
    let mut fleet: Vec<ModuleCtx> = [0usize, 9, 18]
        .iter()
        .map(|i| ModuleCtx::build(&all[*i], &scale).unwrap())
        .collect();
    for id in characterize::experiments::ALL_IDS {
        let t = run_experiment(id, &mut fleet, &scale).unwrap_or_else(|| panic!("{id} missing"));
        assert!(!t.render().is_empty());
        assert_eq!(t.id, id);
    }
}

#[test]
fn deterministic_reproduction_across_identical_stacks() {
    // The same configuration must yield bit-identical experiment data.
    let scale = Scale::quick();
    let cfg = hynix_cfg();
    let run = |cfg: &dram_core::ModuleConfig| {
        let mut ctx = ModuleCtx::build(cfg, &scale).unwrap();
        let entries = ctx.not_entries(4, &scale);
        characterize::runner::run_not(
            &mut ctx,
            &entries[0],
            characterize::patterns::DataPattern::Random(9),
        )
        .unwrap()
    };
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a, b);
}
