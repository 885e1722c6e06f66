//! Synthesizing arbitrary logic: compile boolean expressions to
//! FCDRAM programs with the reliability-aware `fcsynth` mapper.
//!
//! Compiles a 4-bit parity expression and a 5-input majority vote
//! (given as a raw truth table), reports the chosen mappings against
//! the naive 2-input-tree baseline, executes both on the exact
//! host-substrate SimdVm, and emits the parity circuit as bender
//! assembly.
//!
//! Run with: `cargo run --release --example synth_logic`

use fcdram::PackedBits;
use fcsynth::{compile_expr, BenderEmitter, CostModel, Expr, Mapper};
use simdram::{HostSubstrate, SimdVm};

fn report(title: &str, compiled: &fcsynth::Compiled, naive: &fcsynth::Mapping) {
    let m = &compiled.mapping;
    println!("== {title} ==");
    println!(
        "inputs: {}  |  optimized DAG: {} logic node(s)",
        compiled.circuit.inputs().join(", "),
        compiled.circuit.live_ops()
    );
    for (op, width, count) in m.gate_summary() {
        println!("  {count:>3} x {op}{width}");
    }
    println!(
        "native ops {:>3} (naive {:>3})  |  expected success {:.2}% (naive {:.2}%)",
        m.native_ops,
        naive.native_ops,
        m.expected_success * 100.0,
        naive.expected_success * 100.0
    );
    println!(
        "latency {:.0} ns  |  energy {:.0} pJ\n",
        m.latency_ns, m.energy_pj
    );
}

fn verify(compiled: &fcsynth::Compiled, lanes: usize) -> Result<(), fcexec::ExecError> {
    let n = compiled.circuit.inputs().len();
    let operands: Vec<PackedBits> = (0..n)
        .map(|i| PackedBits::seeded(0xD1CE, i as u64, lanes))
        .collect();
    let expect = compiled.circuit.eval_packed(&operands);
    let mut vm = SimdVm::new(HostSubstrate::new(lanes, 512))?;
    let got = fcexec::execute_packed(&mut vm, &compiled.mapping.program, &operands)?;
    assert_eq!(got, expect, "SimdVm diverged from the reference evaluator");
    println!(
        "verified on SimdVm<HostSubstrate>: {lanes} lanes bit-exact, {} in-DRAM ops\n",
        vm.trace().in_dram_ops()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Measured costs would come from `characterize fleet
    // --export-costs`; the built-in defaults carry the paper's
    // Table-1 population means.
    let cost = CostModel::table1_defaults();

    // 1. Four-bit parity, written as an expression. XOR is not native
    //    to the substrate, so each ^ expands to the 3-gate circuit
    //    AND(OR(a,b), NAND(a,b)).
    let parity = compile_expr(Expr::parse("b0 ^ b1 ^ b2 ^ b3")?, &cost, 16);
    let parity_naive = Mapper::naive(&cost).map(&parity.circuit);
    report("4-bit parity", &parity, &parity_naive);
    verify(&parity, 192)?;

    // 2. Five-input majority vote, given as a raw truth table
    //    (LSB-first: entry m is the output when input j = bit j of m).
    let bits: Vec<bool> = (0..32u32).map(|m| m.count_ones() >= 3).collect();
    let majority = compile_expr(Expr::from_truth_table(5, &bits)?, &cost, 16);
    let majority_naive = Mapper::naive(&cost).map(&majority.circuit);
    report(
        "5-input majority vote (from truth table)",
        &majority,
        &majority_naive,
    );
    verify(&majority, 192)?;

    // 3. The parity circuit as a bender command program, ready for
    //    command-level replay.
    let asm = BenderEmitter::default().emit_asm(&parity.mapping.program)?;
    println!(
        "bender assembly for the parity circuit: {} lines, e.g.:",
        asm.lines().count()
    );
    for line in asm.lines().take(6) {
        println!("  {line}");
    }
    println!("  ...");
    Ok(())
}
