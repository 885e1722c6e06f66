//! Golden pin of the device model's per-operation statistics on the
//! prepared value path.
//!
//! The serve demo mix plus the paper's five headline shapes (NOT and
//! 16-input NAND/NOR/AND/OR) run through `fcexec::run_prepared` on
//! `SimdVm<DramSubstrate>` and on `BenderBackend`, each over one
//! Table-1 chip at 1024 modeled columns in fast fidelity, two passes
//! with different operands. The test pins, as `f64::to_bits`, every
//! `predicted_success` the VM trace records, plus a digest of each
//! result on both backends (`BenderBackend` keeps no trace). Any
//! kernel rewrite that claims bit-identical draws and statistics must
//! leave every value here unchanged.
//!
//! A second section pins the characterization path: `execute_not`,
//! `execute_logic` (AND/OR/NAND/NOR × N ∈ {2, 4, 8, 16}) and
//! `execute_maj` (MAJ4) on one Table-1 chip at full fidelity, in one
//! sequence, so each operation also sees what the previous ones left
//! in the rows. Each report's success figures (as `to_bits`), shape,
//! read-back and per-cell outcomes are pinned.

use characterize::serve::DEMO_MIX;
use dram_core::math::mix2;
use dram_core::{BankId, Bit, CellOutcome, LogicOp, SimConfig, SubarrayId};
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
    BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0))
        .unwrap()
        .with_sim_config(SimConfig::fast())
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

fn cells_digest(cells: &[CellOutcome]) -> u64 {
    cells.iter().fold(cells.len() as u64, |h, c| {
        let h = mix2(h, c.role as u64);
        let h = mix2(h, c.subarray.index() as u64);
        let h = mix2(h, c.row.index() as u64);
        let h = mix2(h, c.col.index() as u64);
        let h = mix2(h, u64::from(c.intended.as_bool()));
        let h = mix2(h, u64::from(c.actual.as_bool()));
        mix2(h, c.p_success.to_bits())
    })
}

fn row_pattern(seed: u64, cols: usize) -> Vec<Bit> {
    (0..cols)
        .map(|c| Bit::from(mix2(seed, c as u64) & 1 == 1))
        .collect()
}

/// One row per report: `[observed, predicted, shape.0, shape.1,
/// read-back digest, outcome-cell digest]`. NOT reports its activation
/// shape; logic reports `(N, op index)`; MAJ reports `(N, 0)`.
fn observe_characterization() -> Vec<[u64; 6]> {
    let cfg = dram_core::config::table1()
        .remove(0)
        .with_modeled_cols(CHAR_COLS);
    let mut fc = Fcdram::new(cfg).with_sim_config(SimConfig::full());
    let bank = BankId(0);
    let map = fc
        .discover(bank, (SubarrayId(0), SubarrayId(1)), 16_384)
        .unwrap();
    let mut out = Vec::new();
    let not_entry = map
        .find_dst(1)
        .first()
        .copied()
        .or_else(|| map.find_dst(2).first().copied())
        .expect("a small NOT pattern")
        .clone();
    for seed in [1u64, 2] {
        let r = fc
            .execute_not(bank, &not_entry, &row_pattern(seed, CHAR_COLS))
            .unwrap();
        let reads = r.dst_reads.iter().fold(0u64, |h, (g, bits)| {
            fold_bits(mix2(h, g.index() as u64), bits)
        });
        out.push([
            r.observed_success.to_bits(),
            r.predicted_success.to_bits(),
            r.shape.0 as u64,
            r.shape.1 as u64,
            reads,
            cells_digest(&r.outcome.cells),
        ]);
    }
    for n in [2usize, 4, 8, 16] {
        let entry = map.find_nn(n).expect("an N:N entry").clone();
        for (j, op) in LogicOp::ALL.into_iter().enumerate() {
            let inputs: Vec<Vec<Bit>> = (0..n)
                .map(|i| row_pattern((100 * n + 10 * j + i) as u64, CHAR_COLS))
                .collect();
            let r = fc.execute_logic(bank, &entry, op, &inputs).unwrap();
            out.push([
                r.observed_success.to_bits(),
                r.predicted_success.to_bits(),
                r.n as u64,
                j as u64,
                fold_bits(fold_bits(0, &r.expected), &r.result),
                cells_digest(&r.outcome.cells),
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
    for seed in [7u64, 8] {
        let inputs: Vec<Vec<Bit>> = (0..4)
            .map(|i| row_pattern(1000 * seed + i, CHAR_COLS))
            .collect();
        let r = fc.execute_maj(bank, &maj, &inputs).unwrap();
        out.push([
            r.observed_success.to_bits(),
            r.predicted_success.to_bits(),
            r.n as u64,
            0,
            fold_bits(fold_bits(0, &r.expected), &r.result),
            cells_digest(&r.outcome.cells),
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
