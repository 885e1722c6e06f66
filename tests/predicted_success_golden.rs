//! Golden pin of the device model's per-operation statistics on the
//! prepared value path.
//!
//! The serve demo mix plus the paper's five headline shapes (NOT and
//! 16-input NAND/NOR/AND/OR) run through `fcexec::run_prepared` on
//! `SimdVm<DramSubstrate>` and on `BenderBackend`, each over one
//! Table-1 chip at 1024 modeled columns, two passes
//! with different operands. The test pins, as `f64::to_bits`, every
//! `predicted_success` the VM trace records, plus a digest of each
//! result on both backends (`BenderBackend` keeps no trace). Any
//! kernel rewrite that claims bit-identical draws and statistics must
//! leave every value here unchanged.
//!
//! A second section pins the characterization path: the gate calls
//! `not_outcome`, `logic_outcome` (AND/OR/NAND/NOR × N ∈ {2, 4, 8, 16},
//! resolving the result terminal) and `maj_outcome` (MAJ4) on one
//! Table-1 chip, each followed by a full-width
//! read-back of every result row, in one sequence, so each operation
//! also sees what the previous ones left in the rows. Each operation's
//! success figures (as `to_bits`), shape, read-back and per-cell
//! outcomes are pinned.
//!
//! A third section drives `Chip` kernels directly: charge shares under
//! all five `CsTerminal` scopes, NOT copies, RowClone, in-subarray MAJ,
//! `Frac` and `WR` overdrives, on two Table-1 parts, on subarray pairs
//! of both shared-column parities, with and without a disturbance
//! policy past its threshold, plus a
//! 4096-column sequence of copies and charge shares. Each operation's
//! per-role statistics, per-cell records and raised-row bits, and each
//! scenario's final cell voltages, are pinned.
//!
//! A fourth section pins what the figures and the fleet sweep consume,
//! on one quick Hynix `ModuleCtx`: the `run_not` records of two
//! entries × {Random, Checker}, the `run_logic_random` records of the
//! four ops × N ∈ {2, 4}, and one `chip_sweep` `ChipResult` (every
//! accumulator's count, sum, min, max and bins).

mod common;

use characterize::serve::DEMO_MIX;
use dram_core::math::mix2;
use dram_core::{
    result_role, ActivationShape, BankId, Bit, CellRole, Chip, ChipId, CsTerminal,
    DisturbancePolicy, GlobalRow, LogicOp, MultiActivation, OpOutcome, OutcomeKind, SubarrayId,
};
use fcdram::{BulkEngine, Fcdram, PackedBits};
use fcexec::{BenderBackend, ExecBackend};
use fcsynth::CostModel;
use simdram::{DramSubstrate, SimdVm};

const COLS: usize = 1024;
const PASSES: u64 = 2;

/// The headline shapes: NOT and the 16-input NAND, NOR, AND, OR.
fn headline() -> Vec<String> {
    let vars: Vec<String> = ('a'..='p').map(String::from).collect();
    vec![
        "!a".to_string(),
        format!("!({})", vars.join(" & ")),
        format!("!({})", vars.join(" | ")),
        vars.join(" & "),
        vars.join(" | "),
    ]
}

fn engine() -> BulkEngine {
    let cfg = dram_core::config::table1()
        .remove(0)
        .with_modeled_cols(COLS);
    BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0)).unwrap()
}

fn digest(bits: &PackedBits) -> u64 {
    bits.words()
        .iter()
        .fold(bits.len() as u64, |h, w| mix2(h, *w))
}

/// Per program: the VM trace's `predicted_success` bits over both
/// passes, and the result digests `[vm, bender]` of each pass.
fn observe() -> Vec<(Vec<u64>, Vec<[u64; 2]>)> {
    let cost = CostModel::table1_defaults();
    let texts: Vec<String> = DEMO_MIX
        .iter()
        .map(|s| s.to_string())
        .chain(headline())
        .collect();
    let compiled: Vec<_> = texts
        .iter()
        .map(|t| fcsynth::compile(t, &cost, 16).unwrap())
        .collect();
    let mut vm = SimdVm::new(DramSubstrate::new(engine())).unwrap();
    let mut bender = BenderBackend::new(engine()).unwrap();
    let lanes = vm.lanes();
    assert_eq!(lanes, bender.lanes());
    let vm_preps: Vec<_> = compiled
        .iter()
        .map(|c| vm.prepare(&c.mapping.program).unwrap())
        .collect();
    let bender_preps: Vec<_> = compiled
        .iter()
        .map(|c| bender.prepare(&c.mapping.program).unwrap())
        .collect();
    let mut out = vec![(Vec::new(), Vec::new()); compiled.len()];
    for pass in 0..PASSES {
        for (i, c) in compiled.iter().enumerate() {
            let ops: Vec<PackedBits> = (0..c.circuit.inputs().len())
                .map(|k| PackedBits::seeded(mix2(pass, i as u64), k as u64, lanes))
                .collect();
            vm.clear_trace();
            let a = fcexec::run_prepared(&mut vm, &vm_preps[i], &ops).unwrap();
            out[i].0.extend(
                vm.trace()
                    .entries()
                    .iter()
                    .map(|e| e.predicted_success.to_bits()),
            );
            let b = fcexec::run_prepared(&mut bender, &bender_preps[i], &ops).unwrap();
            assert_eq!(a, b, "program {i} pass {pass}: backends agree");
            out[i].1.push([digest(&a), digest(&b)]);
        }
    }
    out
}

/// Captured before the row-scoped charge-share kernel landed.
#[rustfmt::skip]
const GOLDEN: &[(&[u64], &[[u64; 2]])] = &[
    (&[0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3feb2fb331d1d501, 0x3feb38482d6455a0, 0x3feb4b9eeb9bb1a4, 0x3fec283c706ebe0b, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3feb29de2e7a8ee7, 0x3feb2302b72b4247, 0x3feb3be520990872, 0x3fec450165292f85], &[[0x49f5c19e9694df56, 0x49f5c19e9694df56], [0xa63dd9dfc478f651, 0xa63dd9dfc478f651]]),
    (&[0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3feeb6366830b915, 0x3feb78387766f27a, 0x3fe8ede6d9ce522f, 0x3feeabe4a447135a, 0x3feaa21089eabe87, 0x3fe8c56ac8121176, 0x3feeb28be192d6ba, 0x3fea53478554822b, 0x3fe893ddf923e48b, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3feebf8ceeaf1994, 0x3feb45bee9346c55, 0x3fe8e545fd29ff2d, 0x3feea81ecda72d63, 0x3fea7fed29241abd, 0x3fe8bcf9f1346525, 0x3feeae9d038aa314, 0x3fea37d0084780bb, 0x3fe89e37397a03c8], &[[0x39b9836284247f5d, 0x39b9836284247f5d], [0x47735604e4d5c58f, 0x47735604e4d5c58f]]),
    (&[0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fef8ead8f3ac447, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fef86698a22ae2c], &[[0xc8ad235843d552b5, 0xc8ad235843d552b5], [0xdbbb4c84525b6700, 0xdbbb4c84525b6700]]),
    (&[0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3feec6c9c55c5c3d, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3feea7b1838873f4], &[[0x2583bdf2bc168ef0, 0x2583bdf2bc168ef0], [0xfe94b7d3a1e32289, 0xfe94b7d3a1e32289]]),
    (&[0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fee1f01981c302e, 0x3fef283a4f14ce49, 0x3fedd52891214581, 0x3fee63e12a4a810c, 0x3fe6c81b920a60ae, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fee506f855e23a7, 0x3fef448620936b5d, 0x3fee0a5d54733dff, 0x3fee9201092d7825, 0x3fe6822593ff1177], &[[0xf06c6287d81daa5a, 0xf06c6287d81daa5a], [0xaa585d48e8498abc, 0xaa585d48e8498abc]]),
    (&[0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3feb9ffd053b4c10, 0x3feebc7382b2b87e, 0x3feb2a53fdc7a5ca, 0x3fe8cf8906e01c6d, 0x3feed4e5d15f7568, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3feb84bd45af2ecc, 0x3feeaa89231afd82, 0x3feb493be1b709ab, 0x3fe88d3745b36817, 0x3feee04992ee1fec], &[[0x6211e84c7538e718, 0x6211e84c7538e718], [0xf312a685cf070fd9, 0xf312a685cf070fd9]]),
    (&[0x3ff0000000000000, 0x3feff162d6c1d90a, 0x3ff0000000000000, 0x3feff162d6c1d90a], &[[0xaf3a9ed6e3753313, 0xaf3a9ed6e3753313], [0x6bc23cdc42a8813d, 0x6bc23cdc42a8813d]]),
    (&[0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fef8ee7570b99b9, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fef8ee7570b99b9], &[[0xf8158b6fdd4d7208, 0xf8158b6fdd4d7208], [0x57482b74fb285d3a, 0x57482b74fb285d3a]]),
    (&[0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fef11eb82854b7c, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fef11ec55777136], &[[0x53917a36a36463ba, 0x53917a36a36463ba], [0x452800415162f0bd, 0x452800415162f0bd]]),
    (&[0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fef864e0bb0807e, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fef8eadfd230a17], &[[0x1f905c8ad3e1f195, 0x1f905c8ad3e1f195], [0x1a5d897df0ac2404, 0x1a5d897df0ac2404]]),
    (&[0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fef108891eb6904, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fef105fc28cb727], &[[0x7abf11dd6d65bb9c, 0x7abf11dd6d65bb9c], [0x59068119c5335d03, 0x59068119c5335d03]]),
];

#[test]
fn predicted_success_bits_are_pinned() {
    let got = observe();
    if std::env::var_os("FCDRAM_PRINT_GOLDEN").is_some() {
        println!("const GOLDEN: &[(&[u64], &[[u64; 2]])] = &[");
        for (p, d) in &got {
            let p: Vec<String> = p.iter().map(|b| format!("{b:#018x}")).collect();
            let d: Vec<String> = d
                .iter()
                .map(|[a, b]| format!("[{a:#018x}, {b:#018x}]"))
                .collect();
            println!("    (&[{}], &[{}]),", p.join(", "), d.join(", "));
        }
        println!("];");
    }
    assert_eq!(got.len(), GOLDEN.len(), "one golden entry per program");
    for (i, ((p, d), (gp, gd))) in got.iter().zip(GOLDEN).enumerate() {
        assert_eq!(p.as_slice(), *gp, "program {i}: predicted_success bits");
        assert_eq!(d.as_slice(), *gd, "program {i}: result digests");
    }
}

// ---------------------------------------------------------------------
// Characterization path
// ---------------------------------------------------------------------

const CHAR_COLS: usize = 256;

fn fold_bits(h: u64, bits: &[Bit]) -> u64 {
    bits.iter().fold(mix2(h, bits.len() as u64), |h, b| {
        mix2(h, u64::from(b.as_bool()))
    })
}

/// One recorded cell as the digests fold it: role, subarray, row,
/// column, intended value, the bit its row reads back, and its success
/// probability.
type Cell = (CellRole, usize, usize, usize, Bit, Bit, f64);

/// Every cell `o` records, in record order (rows in resolve order,
/// columns ascending), each with the bit its row reads back on `chip`
/// (a direct read: it settles pending draws and charges nothing).
fn cells_of(chip: &mut Chip, o: &OpOutcome) -> Vec<Cell> {
    let geom = *chip.geometry();
    let mut out = Vec::with_capacity(o.p.len());
    for r in &o.rows {
        let g = geom.join_row(r.subarray, r.row).unwrap();
        let bits = chip.read_row_direct(BankId(0), g).unwrap();
        let cells = r.cols().zip(o.p_of(r)).zip(o.intended_of(r));
        for ((c, p), want) in cells {
            let (sub, row) = (r.subarray.index(), r.row.index());
            out.push((r.roles[c % 2], sub, row, c, *want, bits[c], *p));
        }
    }
    out
}

/// [`cells_of`] on the chip behind `fc`.
fn fc_cells(fc: &mut Fcdram, o: &OpOutcome) -> Vec<Cell> {
    let chip = fc.chip();
    cells_of(fc.bender_mut().module_mut().chip_mut(chip), o)
}

fn cells_digest(cells: &[Cell]) -> u64 {
    cells.iter().fold(cells.len() as u64, |h, c| {
        let (role, sub, row, col, intended, actual, p) = *c;
        let h = mix2(h, role as u64);
        let h = mix2(h, sub as u64);
        let h = mix2(h, row as u64);
        let h = mix2(h, col as u64);
        let h = mix2(h, u64::from(intended.as_bool()));
        let h = mix2(h, u64::from(actual.as_bool()));
        mix2(h, p.to_bits())
    })
}

fn row_pattern(seed: u64, cols: usize) -> Vec<Bit> {
    (0..cols)
        .map(|c| Bit::from(mix2(seed, c as u64) & 1 == 1))
        .collect()
}

/// One row per operation: `[observed, predicted, shape.0, shape.1,
/// read-back digest, outcome-cell digest]`. NOT records its activation
/// shape; logic records `(N, op index)`; MAJ records `(N, 0)`. The
/// observed figure is the accuracy of every result row read back (the
/// shared columns for NOT and logic, every column for MAJ).
fn observe_characterization() -> Vec<[u64; 6]> {
    use common::{accuracy, ideal_logic, ideal_majority, read_results, shared_cols, staged_rows};
    let cfg = dram_core::config::table1()
        .remove(0)
        .with_modeled_cols(CHAR_COLS);
    let mut fc = Fcdram::new(cfg);
    let bank = BankId(0);
    let map = fc
        .discover(bank, (SubarrayId(0), SubarrayId(1)), 16_384)
        .unwrap();
    let shared = shared_cols(CHAR_COLS, SubarrayId(0));
    let mut out = Vec::new();
    let not_entry = map
        .find_dst(1)
        .first()
        .copied()
        .or_else(|| map.find_dst(2).first().copied())
        .expect("a small NOT pattern")
        .clone();
    for seed in [1u64, 2] {
        let src = row_pattern(seed, CHAR_COLS);
        let (layout, outcome) = fc
            .not_outcome(bank, &not_entry, src.clone().into(), None)
            .unwrap();
        let OutcomeKind::Not { n_rf, n_rl, .. } = outcome.kind else {
            panic!("NOT produced {:?}", outcome.kind);
        };
        let reads = read_results(&mut fc, bank, &layout);
        let want: Vec<Bit> = src.iter().map(|b| b.not()).collect();
        let digest = reads.iter().fold(0u64, |h, (g, bits)| {
            fold_bits(mix2(h, g.index() as u64), bits)
        });
        out.push([
            accuracy(&reads, &shared, &want).to_bits(),
            outcome.mean_success(CellRole::NotDst).unwrap().to_bits(),
            n_rf as u64,
            n_rl as u64,
            digest,
            cells_digest(&fc_cells(&mut fc, &outcome)),
        ]);
    }
    for n in [2usize, 4, 8, 16] {
        let entry = map.find_nn(n).expect("an N:N entry").clone();
        for (j, op) in LogicOp::ALL.into_iter().enumerate() {
            let inputs: Vec<Vec<Bit>> = (0..n)
                .map(|i| row_pattern((100 * n + 10 * j + i) as u64, CHAR_COLS))
                .collect();
            let mask = Some(CsTerminal::terminal_of(op));
            let (layout, outcome) = fc
                .logic_outcome(bank, &entry, op, &staged_rows(&inputs), mask)
                .unwrap();
            let reads = read_results(&mut fc, bank, &layout);
            let want = ideal_logic(op, &inputs);
            let expected: Vec<Bit> = shared.iter().map(|c| want[*c]).collect();
            let result: Vec<Bit> = shared.iter().map(|c| reads[0].1[*c]).collect();
            out.push([
                accuracy(&reads, &shared, &want).to_bits(),
                outcome.mean_success(result_role(op)).unwrap().to_bits(),
                entry.shape().1 as u64,
                j as u64,
                fold_bits(fold_bits(0, &expected), &result),
                cells_digest(&fc_cells(&mut fc, &outcome)),
            ]);
        }
    }
    let chip = fc.chip();
    let sets =
        fcdram::mapping::discover_in_subarray(fc.bender_mut(), chip, bank, SubarrayId(2), 8192, 4)
            .unwrap();
    let maj = sets
        .get(&4)
        .and_then(|v| v.first())
        .expect("a 4-row in-subarray set")
        .clone();
    let all: Vec<usize> = (0..CHAR_COLS).collect();
    for seed in [7u64, 8] {
        let inputs: Vec<Vec<Bit>> = (0..4)
            .map(|i| row_pattern(1000 * seed + i, CHAR_COLS))
            .collect();
        let (layout, outcome) = fc.maj_outcome(bank, &maj, &staged_rows(&inputs)).unwrap();
        let reads = read_results(&mut fc, bank, &layout);
        let want = ideal_majority(&inputs);
        out.push([
            accuracy(&reads, &all, &want).to_bits(),
            outcome.mean_success(CellRole::OffMaj).unwrap().to_bits(),
            maj.rows.len() as u64,
            0,
            fold_bits(fold_bits(0, &want), &reads[0].1),
            cells_digest(&fc_cells(&mut fc, &outcome)),
        ]);
    }
    out
}

/// Captured before the characterization ops shipped one command
/// program per operation.
#[rustfmt::skip]
const CHAR_GOLDEN: &[[u64; 6]] = &[
    [0x3ff0000000000000, 0x3fefefdeeb353116, 0x0000000000000001, 0x0000000000000001, 0x312fe69bfda658b3, 0x72ad03c86e1752d8],
    [0x3ff0000000000000, 0x3fefefdeeb353116, 0x0000000000000001, 0x0000000000000001, 0x6fb7138fdaee63ac, 0x4992b14e53fd24e8],
    [0x3feae00000000000, 0x3febecf4e23613ea, 0x0000000000000002, 0x0000000000000000, 0x4c3bec597a1fd885, 0x80e72fa4ae0a0fb3],
    [0x3feb400000000000, 0x3feb83307c2a5e39, 0x0000000000000002, 0x0000000000000001, 0x30a9ee2d54944ce8, 0xef6e1f1632fc1a9a],
    [0x3fee600000000000, 0x3feea1b79953195e, 0x0000000000000002, 0x0000000000000002, 0x8a9145504e67d1e3, 0xfada063a39467cb7],
    [0x3fef000000000000, 0x3feed96d5a44a6d2, 0x0000000000000002, 0x0000000000000003, 0x339ff8859d19a076, 0xac25b6f0cfd61333],
    [0x3fee500000000000, 0x3fee88ee9e599f4e, 0x0000000000000004, 0x0000000000000000, 0x942a73d36afdf13f, 0x4db6bae89394579e],
    [0x3fee100000000000, 0x3fedcae8a8c5f955, 0x0000000000000004, 0x0000000000000001, 0xe2c6e8a9e7085628, 0x3d72c915fa77ab80],
    [0x3feef00000000000, 0x3fef02eb94195d14, 0x0000000000000004, 0x0000000000000002, 0xb98dd73e22128a55, 0x6f7031f733753f39],
    [0x3feed00000000000, 0x3feefbdd82e434e7, 0x0000000000000004, 0x0000000000000003, 0xdc8e9b25c1665692, 0xe1e1bb66b0a20bb1],
    [0x3feff80000000000, 0x3fefefe452153087, 0x0000000000000008, 0x0000000000000000, 0xb065241111f25360, 0xb7f20e64ee6d3791],
    [0x3fefd80000000000, 0x3fefbfdcf3612c46, 0x0000000000000008, 0x0000000000000001, 0xee9834b5a5bab022, 0xe2be3e01b9af82c7],
    [0x3fefd80000000000, 0x3fefc506838424f3, 0x0000000000000008, 0x0000000000000002, 0x7d4dcb831fb21321, 0x749fd9b319062ff4],
    [0x3fef700000000000, 0x3fef96720f517f32, 0x0000000000000008, 0x0000000000000003, 0x2c8c068ab50366fc, 0x224c1be708c8a2c4],
    [0x3fef8c0000000000, 0x3fef83c213588624, 0x0000000000000010, 0x0000000000000000, 0x35f82ac7b3a64409, 0x8d568f7c18f79373],
    [0x3fef800000000000, 0x3fef8975352cf1d0, 0x0000000000000010, 0x0000000000000001, 0x20c70b27cdd4c7af, 0xad0ec8d3554d1cbd],
    [0x3feee40000000000, 0x3feefcf804df29a3, 0x0000000000000010, 0x0000000000000002, 0xdefc26463d43018d, 0xba66e0ece92d1e68],
    [0x3fef0c0000000000, 0x3fef098466a4fb7f, 0x0000000000000010, 0x0000000000000003, 0xe2aca25a4e97fba6, 0x2f67a10f689cbe99],
    [0x3fe8400000000000, 0x3fe899028d9f93f5, 0x0000000000000004, 0x0000000000000000, 0xc18c133bc27d5f1b, 0xbbb1538923161b82],
    [0x3fe8500000000000, 0x3fe8695624be2634, 0x0000000000000004, 0x0000000000000000, 0xede3619aabd72d42, 0xab2fde9100ebf7f9],
];

#[test]
fn characterization_reports_are_pinned() {
    let got = observe_characterization();
    if std::env::var_os("FCDRAM_PRINT_GOLDEN").is_some() {
        println!("const CHAR_GOLDEN: &[[u64; 6]] = &[");
        for row in &got {
            let row: Vec<String> = row.iter().map(|b| format!("{b:#018x}")).collect();
            println!("    [{}],", row.join(", "));
        }
        println!("];");
    }
    assert_eq!(got.len(), CHAR_GOLDEN.len(), "one golden row per report");
    for (i, (g, want)) in got.iter().zip(CHAR_GOLDEN).enumerate() {
        assert_eq!(g, want, "report {i}");
    }
}

// ---------------------------------------------------------------------
// Device kernels
// ---------------------------------------------------------------------

const SCOPES: [CsTerminal; 5] = [
    CsTerminal::Both,
    CsTerminal::Compute,
    CsTerminal::Reference,
    CsTerminal::ComputeFirstRow,
    CsTerminal::ReferenceFirstRow,
];

/// A disturbance policy every scenario crosses within its first
/// activations, so success rates are derated (exponent ≠ 1).
const HOT: DisturbancePolicy = DisturbancePolicy {
    threshold: 8,
    derate: 1.5,
    mitigation_ns: 350.0,
};

/// Per role: the count and `sum_p` of `o`'s statistics, then how many
/// of `cells` (the operation's records) it resolved and how many of
/// those read back as intended. Folded from `o`'s own record count.
fn stats_digest(o: &OpOutcome, cells: &[Cell]) -> u64 {
    let stats = o.stats.roles.iter().zip(CellRole::ALL);
    stats.fold(mix2(0, o.p.len() as u64), |h, (r, role)| {
        let resolved = cells.iter().filter(|c| c.0 == role);
        let matched = resolved.clone().filter(|c| c.4 == c.5).count();
        let h = mix2(h, r.count as u64);
        let h = mix2(h, r.sum_p.to_bits());
        let h = mix2(h, resolved.count() as u64);
        mix2(h, matched as u64)
    })
}

/// Every row the decoder raises for `(rf, rl)`, as global rows.
fn raised(chip: &Chip, rf: usize, rl: usize) -> Vec<GlobalRow> {
    let geom = chip.geometry();
    let join = |sub, rows: &[dram_core::LocalRow]| -> Vec<GlobalRow> {
        rows.iter()
            .map(|r| geom.join_row(sub, *r).unwrap())
            .collect()
    };
    let (sub_f, loc_f) = geom.split_row(GlobalRow(rf)).unwrap();
    let (sub_l, loc_l) = geom.split_row(GlobalRow(rl)).unwrap();
    match chip
        .decoder()
        .activation(geom, GlobalRow(rf), GlobalRow(rl))
    {
        MultiActivation::SameSubarray { rows } => join(sub_f, &rows),
        MultiActivation::CrossSubarray {
            first_rows,
            second_rows,
            ..
        } => {
            let mut all = join(sub_f, &first_rows);
            all.extend(join(sub_l, &second_rows));
            all
        }
        MultiActivation::SecondOnly => join(sub_l, &[loc_l]),
        MultiActivation::SecondIgnored => join(sub_f, &[loc_f]),
    }
}

/// One pinned value per operation: its per-role statistics (`sum_p`
/// as `to_bits`), its per-cell records with their read-back bits, and
/// the bits every raised row holds afterwards.
fn op_digest(chip: &mut Chip, o: &OpOutcome, rows: &[GlobalRow]) -> u64 {
    let cells = cells_of(chip, o);
    let reads = rows.iter().fold(0u64, |h, r| {
        fold_bits(
            mix2(h, r.index() as u64),
            &chip.read_row_direct(BankId(0), *r).unwrap(),
        )
    });
    mix2(mix2(stats_digest(o, &cells), cells_digest(&cells)), reads)
}

/// Digest of every stored cell voltage of the chip, taken from the
/// `banks` field of its `Debug` form (f32 `Debug` round-trips exactly).
fn voltage_digest(chip: &Chip) -> u64 {
    let text = format!("{chip:?}");
    let start = text.find("banks: [").expect("Chip debug lists its banks");
    let end = start
        + text[start..]
            .find(", temperature: ")
            .expect("field after banks");
    text[start..end]
        .bytes()
        .fold(0u64, |h, b| mix2(h, u64::from(b)))
}

/// First `(rf, rl)` pair per wanted cross-subarray shape, `rf` in
/// `sub` and `rl` in the subarray below it.
fn cross_pairs(chip: &Chip, sub: usize, shapes: &[(u8, u8)]) -> Vec<(usize, usize)> {
    let geom = chip.geometry();
    let rows = geom.rows_per_subarray();
    let mut out = Vec::new();
    for &want in shapes {
        let hit = (0..rows)
            .flat_map(|a| (0..rows).map(move |b| (a, b)))
            .find(|&(a, b)| {
                let (rf, rl) = (sub * rows + a, (sub + 1) * rows + b);
                matches!(
                    chip.decoder().activation_shape(geom, GlobalRow(rf), GlobalRow(rl)),
                    ActivationShape::Cross { n_rf, n_rl, .. } if (n_rf, n_rl) == want
                )
            });
        if let Some((a, b)) = hit {
            out.push((sub * rows + a, (sub + 1) * rows + b));
        }
    }
    out
}

/// First same-subarray pair in `sub` raising at least `n` rows.
fn same_pair(chip: &Chip, sub: usize, n: usize) -> (usize, usize) {
    let rows = chip.geometry().rows_per_subarray();
    (1..rows)
        .map(|b| (sub * rows, sub * rows + b))
        .find(|&(rf, rl)| raised(chip, rf, rl).len() >= n)
        .expect("a multi-row same-subarray activation")
}

/// Stages `rows` the way the paper's operations do: reference rows
/// all-1 (AND family), all-0 (OR family) or random, compute rows random.
fn stage(chip: &mut Chip, rows: &[GlobalRow], ref_side: usize, flavour: usize, seed: u64) {
    let cols = chip.geometry().cols();
    for (i, r) in rows.iter().enumerate() {
        let bits = match (i < ref_side, flavour % 3) {
            (true, 0) => vec![Bit::One; cols],
            (true, 1) => vec![Bit::Zero; cols],
            _ => row_pattern(mix2(seed, r.index() as u64), cols),
        };
        chip.write_row_direct(BankId(0), *r, &bits).unwrap();
    }
}

/// Charge shares, NOT copies, RowClone, in-subarray MAJ, `Frac` and
/// `WR` overdrives of one chip, on the subarray pairs (0, 1) and
/// (1, 2), whose shared columns have opposite parity. Each N:N shape up
/// to the part's widest and one N:2N shape runs one charge-share scope,
/// rotating through all five on each pair.
fn observe_kernels(part: &str, hot: bool) -> Vec<u64> {
    let cfg = dram_core::config::table1()
        .into_iter()
        .find(|c| c.name == part)
        .expect("a Table-1 part")
        .with_modeled_cols(CHAR_COLS);
    let mut chip = Chip::new(cfg, ChipId(0));
    if hot {
        chip.set_disturbance_policy(Some(HOT));
    }
    let bank = BankId(0);
    let shapes = [(1, 1), (2, 2), (4, 4), (8, 8), (16, 16), (2, 4), (4, 8)];
    let mut out = Vec::new();
    for sub in [0usize, 1] {
        for (k, (rf, rl)) in cross_pairs(&chip, sub, &shapes).into_iter().enumerate() {
            let rows = raised(&chip, rf, rl);
            let per_sub = chip.geometry().rows_per_subarray();
            let n_ref = rows.iter().filter(|r| r.index() / per_sub == sub).count();
            stage(&mut chip, &rows, n_ref, k, (sub * 100 + k) as u64);
            // The reference side's first raised row holds ≈VDD/2.
            let frac = chip.frac(bank, rows[0]).unwrap();
            out.push(op_digest(&mut chip, &frac, &rows[..1]));
            let scope = SCOPES[k % SCOPES.len()];
            let cs = chip
                .multi_act_charge_share_masked(bank, GlobalRow(rf), GlobalRow(rl), scope)
                .unwrap();
            chip.precharge(bank).unwrap();
            out.push(op_digest(&mut chip, &cs, &rows));
            // NOT over the same pair, then a WR overdrive of every row
            // it left raised (¬data on the other subarray's shared half).
            stage(&mut chip, &rows, 0, k, (sub * 100 + k + 50) as u64);
            let not = chip
                .multi_act_copy(bank, GlobalRow(rf), GlobalRow(rl))
                .unwrap();
            out.push(op_digest(&mut chip, &not, &rows));
            let data = row_pattern((sub * 7 + k) as u64, CHAR_COLS);
            chip.write_open(bank, &data).unwrap();
            chip.precharge(bank).unwrap();
            out.push(op_digest(&mut chip, &OpOutcome::empty(not.kind), &rows));
        }
        // RowClone and in-subarray MAJ in the pair's upper subarray.
        let (rf, rl) = same_pair(&chip, sub, 3);
        let rows = raised(&chip, rf, rl);
        stage(&mut chip, &rows, 0, 2, (sub * 100 + 90) as u64);
        let clone = chip
            .multi_act_copy(bank, GlobalRow(rf), GlobalRow(rl))
            .unwrap();
        chip.precharge(bank).unwrap();
        out.push(op_digest(&mut chip, &clone, &rows));
        stage(&mut chip, &rows, 0, 2, (sub * 100 + 91) as u64);
        let maj = chip
            .multi_act_charge_share(bank, GlobalRow(rf), GlobalRow(rl))
            .unwrap();
        chip.precharge(bank).unwrap();
        out.push(op_digest(&mut chip, &maj, &rows));
    }
    out.push(voltage_digest(&chip));
    out
}

/// The wide-row sequence: 4096 columns, a source row copied and
/// charge-shared across three cross-subarray pairs in turn.
fn observe_wide() -> Vec<u64> {
    let cols = 4096;
    let cfg = dram_core::config::table1()
        .remove(0)
        .with_modeled_cols(cols);
    let mut chip = Chip::new(cfg, ChipId(0));
    let bank = BankId(0);
    let src: Vec<Bit> = (0..cols)
        .map(|c| Bit::from(dram_core::math::hash_to_unit(mix2(5, c as u64)) < 0.5))
        .collect();
    chip.write_row_direct(bank, GlobalRow(7), &src).unwrap();
    let mut out = Vec::new();
    for (rf, rl) in [(7usize, 600), (3, 520), (40, 700)] {
        let rows = raised(&chip, rf, rl);
        let a = chip
            .multi_act_copy(bank, GlobalRow(rf), GlobalRow(rl))
            .unwrap();
        chip.precharge(bank).unwrap();
        out.push(op_digest(&mut chip, &a, &rows));
        let c = chip
            .multi_act_charge_share(bank, GlobalRow(rf), GlobalRow(rl))
            .unwrap();
        chip.precharge(bank).unwrap();
        out.push(op_digest(&mut chip, &c, &rows));
    }
    out.push(voltage_digest(&chip));
    out
}

/// `(part, hot)` per kernel scenario, then the wide one.
fn kernel_scenarios() -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    for part in ["hynix-4Gb-M-2666-#0", "hynix-8Gb-M-2666-#0"] {
        for hot in [false, true] {
            out.push(observe_kernels(part, hot));
        }
    }
    out.push(observe_wide());
    out
}

#[test]
fn device_kernels_are_pinned() {
    let got = kernel_scenarios();
    if std::env::var_os("FCDRAM_PRINT_GOLDEN").is_some() {
        println!("const KERNEL_GOLDEN: &[&[u64]] = &[");
        for s in &got {
            let s: Vec<String> = s.iter().map(|b| format!("{b:#018x}")).collect();
            println!("    &[{}],", s.join(", "));
        }
        println!("];");
    }
    assert_eq!(
        got.len(),
        KERNEL_GOLDEN.len(),
        "one golden row per scenario"
    );
    for (i, (g, want)) in got.iter().zip(KERNEL_GOLDEN).enumerate() {
        assert_eq!(g.len(), want.len(), "scenario {i}: operation count");
        for (j, (a, b)) in g.iter().zip(want.iter()).enumerate() {
            assert_eq!(a, b, "scenario {i}, operation {j}");
        }
    }
}

#[rustfmt::skip]
const KERNEL_GOLDEN: &[&[u64]] = &[
    &[0x79a27ac32007cd0d, 0xfa4310e20b673e7b, 0xe3136cf629b803fa, 0x8abb8112ddbb5297, 0x79a27ac32007cd0d, 0xc25b7ce6a0fcd58d, 0x97aba06250d9b7d4, 0x198deff58b8162b1, 0x79a27ac32007cd0d, 0x97a98cae8aced2c0, 0x216049381be27963, 0x2b0c7f6e003dc40d, 0x79a27ac32007cd0d, 0x9bd4616bb916c347, 0x2024d5c54257afc2, 0x3d7cb5a972f33978, 0x79a27ac32007cd0d, 0x0736f5cc410fdd45, 0x84c05ec471c5a197, 0xc9668f3384a91ec0, 0x79a27ac32007cd0d, 0xc96c25847489a8bc, 0x6278c28306d759ba, 0x1ad36dff9cb14516, 0x79a27ac32007cd0d, 0xc44ed3ccea927660, 0x09fea677322dcc55, 0xac205f6893780a2e, 0xe47d6d532c23b693, 0xd66ff56d6b7aba48, 0xd149636dc2b94f9b, 0x41dfe77c6e89c1a6, 0x7b02707ea610eb9f, 0x9e8800be80ee5818, 0xd149636dc2b94f9b, 0x30035eb076dca988, 0x89eb85d7118f51ab, 0x2a85d4e90dff3cda, 0xd149636dc2b94f9b, 0x6be206b5b18c8777, 0x69846de166c213b1, 0x6b71dc3e46631ca4, 0xd149636dc2b94f9b, 0xe3e594fcf53d2d9b, 0x95cfa95927c0fb0b, 0x85f745638ab1dccd, 0xd149636dc2b94f9b, 0xcb7fe0d215d215c5, 0x0309c3a86cc6fb45, 0x99ab6084adf13faa, 0xd149636dc2b94f9b, 0xaccaf2a61a1e6db5, 0xa6fc633cc571a1a3, 0x3c06486f4d24a947, 0xd149636dc2b94f9b, 0xe160556bff18e239, 0x4e2648c8a1e3b598, 0x8e35fa8910040369, 0x361de7107dd55653, 0xbc0032d17d3ad0cb, 0xe72945f273342552],
    &[0x79a27ac32007cd0d, 0xfa4310e20b673e7b, 0xe3136cf629b803fa, 0x8abb8112ddbb5297, 0x79a27ac32007cd0d, 0xc25b7ce6a0fcd58d, 0x97aba06250d9b7d4, 0x198deff58b8162b1, 0x79a27ac32007cd0d, 0x241a7efdc6f1fefe, 0x216049381be27963, 0x2b0c7f6e003dc40d, 0x79a27ac32007cd0d, 0x9f81c0415dc25c03, 0x2024d5c54257afc2, 0x3d7cb5a972f33978, 0x79a27ac32007cd0d, 0x6645796344247068, 0x84c05ec471c5a197, 0xc9668f3384a91ec0, 0x79a27ac32007cd0d, 0x05fe4cda007e693b, 0x6278c28306d759ba, 0x1ad36dff9cb14516, 0x79a27ac32007cd0d, 0x117cd52fc0930673, 0x09fea677322dcc55, 0xac205f6893780a2e, 0xe47d6d532c23b693, 0xda70ec90b1ae35a0, 0xd149636dc2b94f9b, 0x41dfe77c6e89c1a6, 0x7b02707ea610eb9f, 0x9e8800be80ee5818, 0xd149636dc2b94f9b, 0x30035eb076dca988, 0x89eb85d7118f51ab, 0x2a85d4e90dff3cda, 0xd149636dc2b94f9b, 0xd00037a903641bdb, 0x69846de166c213b1, 0x6b71dc3e46631ca4, 0xd149636dc2b94f9b, 0xa02509bdd7b7af5a, 0x95cfa95927c0fb0b, 0x85f745638ab1dccd, 0xd149636dc2b94f9b, 0x66ed7c48ece7b653, 0x0309c3a86cc6fb45, 0x99ab6084adf13faa, 0xd149636dc2b94f9b, 0xba9502883828d784, 0xa6fc633cc571a1a3, 0x3c06486f4d24a947, 0xd149636dc2b94f9b, 0x98d4a01041f592f3, 0x4e2648c8a1e3b598, 0x8e35fa8910040369, 0x361de7107dd55653, 0x34759054c494c9f1, 0x037e42c13c7c0f25],
    &[0x223579276f4b3884, 0x04a1047d7c7f1892, 0x28438d242aff7122, 0x8abb8112ddbb5297, 0x223579276f4b3884, 0x42c0ff40e6db3fe1, 0x329bb95e340ac148, 0x198deff58b8162b1, 0x223579276f4b3884, 0x73301599d01bd7ac, 0x15e02a9d20ecd1da, 0x9922950cf82ddda4, 0x223579276f4b3884, 0xadc0ac3f7843e000, 0x4c2cd51f5ae212d3, 0x0168f2a685cd295f, 0x223579276f4b3884, 0x01f4c21f15122780, 0x7c62c9d44903e0fc, 0xb98325f8842194b8, 0x223579276f4b3884, 0x9016ebfd0931ca2c, 0x0e42c07c17a071b6, 0x0eb0ce65aeb0691d, 0xd31bf3c295b728fe, 0xe248b778e86875ac, 0xc2110e7cc67855c3, 0x4bed075a96d5b7f0, 0xe8e16eb98d909786, 0x9e8800be80ee5818, 0xc2110e7cc67855c3, 0xbeb9fddcc8ef4ef3, 0x1974aa0ce7031ec0, 0x2a85d4e90dff3cda, 0xc2110e7cc67855c3, 0x005a3161d19f969c, 0x935c677356ae52b5, 0xf8e95bd8daaf5e47, 0xc2110e7cc67855c3, 0x6a667ebbc4aee0fe, 0x869532fff0e8b8d8, 0xf9c2e44aaf5895aa, 0xc2110e7cc67855c3, 0x0b8dc165bf6dcb71, 0x3bbe3099804309a9, 0x4e31a38e2f4e8dd9, 0xc2110e7cc67855c3, 0x872fc3df191fcff5, 0x6624a1379f18d462, 0x90f3a809657bd618, 0xa5f9910d6345ced6, 0xae0553287ef7148a, 0xc8998d1257ae27c5],
    &[0x223579276f4b3884, 0x04a1047d7c7f1892, 0x28438d242aff7122, 0x8abb8112ddbb5297, 0x223579276f4b3884, 0x42c0ff40e6db3fe1, 0x329bb95e340ac148, 0x198deff58b8162b1, 0x223579276f4b3884, 0x130501b109aae985, 0x15e02a9d20ecd1da, 0x9922950cf82ddda4, 0x223579276f4b3884, 0xaaf399b743124d59, 0x4c2cd51f5ae212d3, 0x0168f2a685cd295f, 0x223579276f4b3884, 0xb5b8cb724cdc3a3c, 0x7c62c9d44903e0fc, 0xb98325f8842194b8, 0x223579276f4b3884, 0x8bb0e29fe8328ab4, 0x0e42c07c17a071b6, 0x0eb0ce65aeb0691d, 0xd31bf3c295b728fe, 0x0e6af8b5e1f53099, 0xc2110e7cc67855c3, 0x4bed075a96d5b7f0, 0xe8e16eb98d909786, 0x9e8800be80ee5818, 0xc2110e7cc67855c3, 0xbeb9fddcc8ef4ef3, 0x1974aa0ce7031ec0, 0x2a85d4e90dff3cda, 0xc2110e7cc67855c3, 0xb58c1b61ccdf5ab8, 0x935c677356ae52b5, 0xf8e95bd8daaf5e47, 0xc2110e7cc67855c3, 0xb3368bad044288fb, 0x869532fff0e8b8d8, 0xf9c2e44aaf5895aa, 0xc2110e7cc67855c3, 0x0c1d033822d35635, 0x3bbe3099804309a9, 0x4e31a38e2f4e8dd9, 0xc2110e7cc67855c3, 0x1f6259d836f42ef9, 0x6624a1379f18d462, 0x90f3a809657bd618, 0xa5f9910d6345ced6, 0xe87e70ee6122d00a, 0x0a20657b029ed7ad],
    &[0x39e1241b429da262, 0x67babc731dc21a55, 0x5718411320b6c049, 0xac9648832fc5a66c, 0x5fe173889f173f41, 0x5ca66abb5e58f9bd, 0xf8bf0da37887d6ff],
];

// ---------------------------------------------------------------------
// What the figures consume
// ---------------------------------------------------------------------

/// A digest of `value`'s JSON text. The shim prints every `f64` in
/// its shortest round-trip form, so the digest covers exact bits.
fn json_digest<T: serde::Serialize>(value: &T) -> u64 {
    serde_json::to_string(value)
        .unwrap()
        .bytes()
        .fold(0, |h, b| mix2(h, u64::from(b)))
}

/// One row per measurement on one quick Hynix context, in one
/// sequence: `[record count, records digest]` for `run_not` over two
/// entries × {Random, Checker}, then `run_logic_random` over the four
/// ops × N ∈ {2, 4}, then `[cells, ChipResult digest]` for one
/// `chip_sweep` over the quick grid.
fn observe_figure_inputs() -> Vec<[u64; 2]> {
    use characterize::patterns::DataPattern;
    use characterize::runner::{run_logic_random, run_not};
    use characterize::{ChipResult, ModuleCtx, Scale, SweepConfig};

    let scale = Scale::quick();
    let cfg = dram_core::config::table1().remove(0);
    let mut ctx = ModuleCtx::build(&cfg, &scale).unwrap();
    let entries: Vec<_> = [2usize, 4]
        .into_iter()
        .map(|d| ctx.not_entries(d, &scale)[0].clone())
        .collect();
    let mut out = Vec::new();
    for entry in &entries {
        for pattern in [DataPattern::Random(0xF1EE7), DataPattern::Checker] {
            let recs = run_not(&mut ctx, entry, pattern).unwrap();
            out.push([recs.len() as u64, json_digest(&recs)]);
        }
    }
    for n in [2usize, 4] {
        for (j, op) in LogicOp::ALL.into_iter().enumerate() {
            let seed = mix2(n as u64, j as u64);
            let recs = run_logic_random(&mut ctx, op, n, scale.input_draws, seed).unwrap();
            out.push([recs.len() as u64, json_digest(&recs)]);
        }
    }
    let mut chip = ChipResult {
        label: format!("{}/c0", cfg.name),
        module: cfg.name.clone(),
        chip: 0,
        manufacturer: cfg.manufacturer.to_string(),
        not: fcdram::SuccessAccumulator::new(),
        logic: fcdram::SuccessAccumulator::new(),
        logic_shapes: Vec::new(),
        conditions: 0,
        failures: 0,
    };
    characterize::sweep::chip_sweep(&mut ctx, &SweepConfig::quick(), &mut chip);
    out.push([chip.not.count() + chip.logic.count(), json_digest(&chip)]);
    out
}

/// Captured before the characterization experiments stopped reading
/// result rows back.
#[rustfmt::skip]
const FIGURE_GOLDEN: &[[u64; 2]] = &[
    [0x0000000000000020, 0x1b97f404e4d6c95b],
    [0x0000000000000020, 0x1b97f404e4d6c95b],
    [0x0000000000000040, 0x2ff2639a065eb2e6],
    [0x0000000000000040, 0x2ff2639a065eb2e6],
    [0x0000000000000040, 0x64c0ad44920a8703],
    [0x0000000000000040, 0x08dc99b41a13c57b],
    [0x0000000000000040, 0xb27527f2c51acb21],
    [0x0000000000000040, 0xe9e638ec22e4cb48],
    [0x0000000000000080, 0x6ea02b5bad81be65],
    [0x0000000000000080, 0xa9134b25cf560b3b],
    [0x0000000000000080, 0x8d82e865e0f43d36],
    [0x0000000000000080, 0x30dc299f0424990b],
    [0x00000000000005a0, 0x8d6bdec85ecb82b6],
];

#[test]
fn figure_inputs_are_pinned() {
    let got = observe_figure_inputs();
    if std::env::var_os("FCDRAM_PRINT_GOLDEN").is_some() {
        println!("const FIGURE_GOLDEN: &[[u64; 2]] = &[");
        for row in &got {
            let row: Vec<String> = row.iter().map(|b| format!("{b:#018x}")).collect();
            println!("    [{}],", row.join(", "));
        }
        println!("];");
    }
    assert_eq!(
        got.len(),
        FIGURE_GOLDEN.len(),
        "one golden row per measurement"
    );
    for (i, (g, want)) in got.iter().zip(FIGURE_GOLDEN).enumerate() {
        assert_eq!(g, want, "measurement {i}");
    }
}
