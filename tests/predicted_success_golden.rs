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

use characterize::serve::DEMO_MIX;
use dram_core::math::mix2;
use dram_core::{BankId, SimConfig, SubarrayId};
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
