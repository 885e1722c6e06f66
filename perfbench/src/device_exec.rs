//! `device_exec`: prepared programs on the characterized device model.
//!
//! The serve demo mix plus the paper's headline shapes (16-input
//! AND/NAND/OR/NOR and NOT) are compiled and prepared once in set-up,
//! then run through `fcexec::run_prepared` on `SimdVm<DramSubstrate>`
//! and on `BenderBackend`, both over one Table-1 chip at the same lane
//! count in fast fidelity. A unit, and its one timed call, is one pass
//! over every program on the VM backend followed by the same pass on
//! the command-schedule backend.

use crate::harness::{digest_operands, mismatched_bits, operands, secs, Acc, Findings, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use characterize::serve::DEMO_MIX;
use dram_core::math::mix2;
use dram_core::{BankId, SimConfig, SubarrayId};
use fcdram::{BulkEngine, Fcdram, PackedBits};
use fcexec::{BenderBackend, ExecBackend, PreparedProgram};
use fcsynth::{Compiled, CostModel};
use simdram::{DramSubstrate, SimdVm};
use std::time::Instant;

/// Modeled columns per row of the simulated chip (two per lane).
pub const COLS: usize = 1024;
/// Distinct operand sets per program per input cycle.
pub const VARIANTS: usize = 8;
/// Widest native gate the compiler may use.
const FAN_IN: usize = 16;

/// The paper's headline shapes and their reported average success
/// rates (%): NOT, and the 16-input NAND, NOR, AND and OR.
const HEADLINE: [(&str, f64); 5] = [
    ("not", 98.37),
    ("nand16", 94.94),
    ("nor16", 95.87),
    ("and16", 94.94),
    ("or16", 95.85),
];

/// Expression text of a headline shape.
fn headline_expr(name: &str) -> String {
    let vars: Vec<String> = ('a'..='p').map(String::from).collect();
    match name {
        "not" => "!a".to_string(),
        "and16" => vars.join(" & "),
        "nand16" => format!("!({})", vars.join(" & ")),
        "or16" => vars.join(" | "),
        "nor16" => format!("!({})", vars.join(" | ")),
        other => unreachable!("unknown headline shape {other}"),
    }
}

fn engine() -> BulkEngine {
    let cfg = dram_core::config::table1()
        .remove(0)
        .with_modeled_cols(COLS);
    BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0))
        .expect("a Table-1 chip builds an engine")
        .with_sim_config(SimConfig::fast())
}

/// One pass over every prepared program on `backend`, timing each
/// `run_prepared` call. Returns the timed seconds and the results.
fn pass<B: ExecBackend>(
    backend: &mut B,
    preps: &[PreparedProgram],
    ops: &[Vec<PackedBits>],
    span: &'static str,
    tr: &mut Tracer,
) -> (f64, Vec<Option<PackedBits>>) {
    let mut timed = 0.0;
    let mut out = Vec::with_capacity(preps.len());
    for (i, (prep, operands)) in preps.iter().zip(ops).enumerate() {
        let open = tr.begin(span, i as u64);
        let t = Instant::now();
        let result = fcexec::run_prepared(backend, prep, operands);
        let dt = secs(t);
        tr.end(open);
        timed += dt;
        out.push(result.ok());
    }
    (timed, out)
}

/// The workload state.
pub struct DeviceExec {
    names: Vec<String>,
    compiled: Vec<Compiled>,
    vm: SimdVm<DramSubstrate>,
    bender: BenderBackend,
    vm_preps: Vec<PreparedProgram>,
    bender_preps: Vec<PreparedProgram>,
    lanes: usize,
    /// Operands per variant, per program.
    operands: Vec<Vec<Vec<PackedBits>>>,
    expected: Vec<Vec<PackedBits>>,
    /// Result bits differing from the reference, per program, summed
    /// over the first cycle: `[vm_dram, bender]`.
    mismatched: Vec<[u64; 2]>,
    /// Native ops and timed seconds per backend: `[vm_dram, bender]`.
    ops: [u64; 2],
    timed_s: [f64; 2],
    ops_per_pass: u64,
    digest: u64,
}

impl Workload for DeviceExec {
    fn setup(seed: u64, tr: &mut Tracer) -> DeviceExec {
        let cost = CostModel::table1_defaults();
        let mut names: Vec<String> = DEMO_MIX.iter().map(|s| s.to_string()).collect();
        let mut texts = names.clone();
        for (name, _) in HEADLINE {
            names.push(name.to_string());
            texts.push(headline_expr(name));
        }
        let compiled: Vec<Compiled> = texts
            .iter()
            .enumerate()
            .map(|(i, text)| {
                let span = tr.begin("fcsynth.compile", i as u64);
                let c = fcsynth::compile(text, &cost, FAN_IN).expect("device programs compile");
                tr.end(span);
                c
            })
            .collect();
        let mut vm = SimdVm::new(DramSubstrate::new(engine())).expect("the VM backend builds");
        let mut bender = BenderBackend::new(engine()).expect("the bender backend builds");
        let lanes = vm.lanes();
        assert_eq!(lanes, bender.lanes(), "both backends run one lane count");
        let vm_preps: Vec<PreparedProgram> = compiled
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let span = tr.begin("fcexec.prepare.vm_dram", i as u64);
                let prep = vm.prepare(&c.mapping.program).expect("programs prepare");
                tr.end(span);
                prep
            })
            .collect();
        let bender_preps: Vec<PreparedProgram> = compiled
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let span = tr.begin("fcexec.prepare.bender", i as u64);
                let prep = bender
                    .prepare(&c.mapping.program)
                    .expect("programs prepare");
                tr.end(span);
                prep
            })
            .collect();
        let mut digest = seed;
        let operands: Vec<Vec<Vec<PackedBits>>> = (0..VARIANTS)
            .map(|v| {
                compiled
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let ops = operands(
                            mix2(mix2(seed, v as u64), i as u64),
                            c.circuit.inputs().len(),
                            lanes,
                        );
                        digest = digest_operands(digest, &ops);
                        ops
                    })
                    .collect()
            })
            .collect();
        // Warm-up: the first pass on a fresh device is several times
        // slower than later ones. Both backends take the same pass, so
        // their device states stay in step.
        let mut off = Tracer::new(false);
        let _ = pass(&mut vm, &vm_preps, &operands[0], "", &mut off);
        let _ = pass(&mut bender, &bender_preps, &operands[0], "", &mut off);
        vm.clear_trace();
        let programs = compiled.len();
        DeviceExec {
            names,
            compiled,
            vm,
            bender,
            vm_preps,
            bender_preps,
            lanes,
            operands,
            expected: Vec::new(),
            mismatched: vec![[0; 2]; programs],
            ops: [0; 2],
            timed_s: [0.0; 2],
            ops_per_pass: 0,
            digest,
        }
    }

    fn prepare_checks(&mut self) {
        self.expected = self
            .operands
            .iter()
            .map(|per_prog| {
                per_prog
                    .iter()
                    .zip(&self.compiled)
                    .map(|(ops, c)| c.circuit.eval_packed(ops))
                    .collect()
            })
            .collect();
    }

    fn cycle(&self) -> u64 {
        VARIANTS as u64
    }

    fn run_unit(&mut self, unit: u64, tr: &mut Tracer, acc: &mut Acc) {
        let v = (unit % VARIANTS as u64) as usize;
        let ops = &self.operands[v];

        let span = tr.begin("bench.pass.vm_dram", unit);
        let (t_vm, r_vm) = pass(
            &mut self.vm,
            &self.vm_preps,
            ops,
            "fcexec.run_prepared.vm_dram",
            tr,
        );
        tr.end(span);
        let span = tr.begin("bench.pass.bender", unit);
        let before = self.bender.native_ops();
        let (t_b, r_b) = pass(
            &mut self.bender,
            &self.bender_preps,
            ops,
            "fcexec.run_prepared.bender",
            tr,
        );
        tr.end(span);

        // Checks, outside the timed region: the backends agree bit for
        // bit and walk the same number of native operations.
        let ops_vm = self.vm.trace().in_dram_ops() as u64;
        self.vm.clear_trace();
        let ops_b = (self.bender.native_ops() - before) as u64;
        acc.timed_s += t_vm + t_b;
        acc.calls_us.push((t_vm + t_b) * 1e6);
        acc.attempted += 2 * r_vm.len() as u64;
        acc.work += ops_vm + ops_b;
        self.ops[0] += ops_vm;
        self.ops[1] += ops_b;
        self.timed_s[0] += t_vm;
        self.timed_s[1] += t_b;
        if ops_vm != ops_b {
            acc.failed += 1;
        }
        for (i, (a, b)) in r_vm.iter().zip(&r_b).enumerate() {
            match (a, b) {
                (Some(a), Some(b)) if a == b => {
                    if unit < VARIANTS as u64 {
                        let want = &self.expected[v][i];
                        self.mismatched[i][0] += mismatched_bits(a, want);
                        self.mismatched[i][1] += mismatched_bits(b, want);
                    }
                }
                _ => acc.failed += 1,
            }
        }
        if unit == 0 {
            self.ops_per_pass = ops_vm;
        }
    }

    fn finish(&mut self, acc: &Acc, tr: &Tracer) -> Findings {
        let mut f = Findings {
            inputs_digest: self.digest,
            ..Findings::default()
        };
        let layer = &mut f.layer;
        layer.insert(
            "fcsynth.compile_us",
            median(&tr.durations_us("fcsynth.compile")),
        );
        for (metric, span) in [
            ("fcexec.prepare_us.vm_dram", "fcexec.prepare.vm_dram"),
            ("fcexec.prepare_us.bender", "fcexec.prepare.bender"),
            ("fcexec.run_us.vm_dram", "fcexec.run_prepared.vm_dram"),
            ("fcexec.run_us.bender", "fcexec.run_prepared.bender"),
        ] {
            layer.insert(metric, median(&tr.durations_us(span)));
        }
        layer.insert(
            "fcexec.templates",
            self.bender_preps
                .iter()
                .map(|p| p.template_count())
                .sum::<usize>() as f64,
        );
        layer.insert(
            "fcexec.arena_slots",
            self.bender_preps
                .iter()
                .map(|p| p.arena_slots())
                .sum::<usize>() as f64,
        );
        layer.insert(
            "fcexec.engine_visits",
            self.bender_preps
                .iter()
                .map(|p| p.fused_visits().len())
                .sum::<usize>() as f64,
        );
        layer.insert("fcexec.native_ops", self.ops_per_pass as f64);
        let total = |k: usize| self.mismatched.iter().map(|m| m[k]).sum::<u64>() as f64;
        layer.insert("dram_core.mismatched_bits.vm_dram", total(0));
        layer.insert("dram_core.mismatched_bits.bender", total(1));

        for (k, backend) in ["vm_dram", "bender"].iter().enumerate() {
            f.notes.push(format!(
                "device_ops_per_s.{backend} = {:.1} 1/s ({} native ops in {:.3} s timed)",
                self.ops[k] as f64 / self.timed_s[k].max(1e-12),
                self.ops[k],
                self.timed_s[k]
            ));
        }
        let bits = (self.lanes * VARIANTS) as f64;
        let mut line = String::from("simulated success vs paper average (ungated):");
        for (name, paper) in HEADLINE {
            let i = self
                .names
                .iter()
                .position(|n| n == name)
                .expect("headline shapes are programs");
            let sim = 100.0 * (1.0 - self.mismatched[i][0] as f64 / bits);
            line.push_str(&format!(" {name} {sim:.2}% (paper {paper:.2}%);"));
        }
        f.notes.push(line);
        f.notes.push(format!(
            "passes: {} per backend, {VARIANTS} operand sets per cycle, {} programs, \
             {} native ops per pass; mismatch counts are over the first cycle",
            acc.units,
            self.names.len(),
            self.ops_per_pass
        ));
        f
    }

    fn work(&self) -> (&'static str, &'static str) {
        ("device_ops_per_s", "native in-DRAM ops on both backends")
    }

    fn describe(&self) -> String {
        format!(
            "one Table-1 chip ({} columns, fast fidelity), lanes {} on both backends \
             (SimdVm<DramSubstrate> and BenderBackend), {} programs",
            COLS,
            self.lanes,
            self.names.len()
        )
    }
}
