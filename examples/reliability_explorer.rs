//! Reliability explorer: how operating conditions shape in-DRAM
//! computation quality — the questions a deployer would ask before
//! adopting processing-using-DRAM.
//!
//! Sweeps (a) input count, (b) temperature, and (c) repetition voting,
//! and prints the resulting success rates for one chip, mirroring the
//! paper's characterization axes at example scale.
//!
//! Run with: `cargo run --release --example reliability_explorer`

use dram_core::{BankId, LogicOp, SubarrayId, Temperature};
use fcdram::{BulkEngine, Fcdram, FcdramError, PackedBits};

fn rand_bits(seed: u64, n: usize) -> Vec<bool> {
    (0..n)
        .map(|i| dram_core::math::hash_to_unit(dram_core::math::mix2(seed, i as u64)) < 0.5)
        .collect()
}

fn main() -> Result<(), FcdramError> {
    let cfg = dram_core::config::table1().remove(0).with_modeled_cols(256);
    println!("chip: {}\n", cfg.label());
    let mut engine = BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0))?;
    let bits = engine.capacity_bits();

    // Operands for up to 8-input operations, stored as DRAM vectors;
    // each gate is handed their values.
    let mut values = Vec::new();
    for i in 0..8u64 {
        let h = engine.alloc()?;
        let v = PackedBits::from_bools(&rand_bits(i, bits));
        engine.write_packed(&h, &v)?;
        values.push(v);
    }
    let out = engine.alloc()?;

    // (a) Input count: the paper's Fig. 15 axis.
    println!("-- success vs input count (single execution) --");
    for n in [2usize, 4, 8] {
        let ins: Vec<&PackedBits> = values.iter().take(n).collect();
        let and = engine.logic(LogicOp::And, &ins, &out)?.0;
        let or = engine.logic(LogicOp::Or, &ins, &out)?.0;
        println!(
            "{n:>2} inputs : AND {:>6.2}%   OR {:>6.2}%",
            and.accuracy * 100.0,
            or.accuracy * 100.0
        );
    }

    // (b) Temperature: the paper's Fig. 19 axis.
    println!("\n-- AND-4 predicted success vs temperature --");
    let ins: Vec<&PackedBits> = values.iter().take(4).collect();
    for t in [50.0, 70.0, 95.0] {
        let cfg = engine
            .sim_config()
            .with_temperature(Temperature::celsius(t));
        engine.configure(cfg);
        let stats = engine.logic(LogicOp::And, &ins, &out)?.0;
        println!(
            "{t:>5.0}°C : AND-4 {:>6.2}% (model {:>6.2}%)",
            stats.accuracy * 100.0,
            stats.predicted_success * 100.0
        );
    }
    let cfg = engine.sim_config().with_temperature(Temperature::BASELINE);
    engine.configure(cfg);

    // (c) Repetition voting: correctness for bandwidth.
    println!("\n-- AND-2 accuracy vs repetition voting --");
    let ins: Vec<&PackedBits> = values.iter().take(2).collect();
    for k in [1usize, 3, 9] {
        engine.set_repetition(k);
        let stats = engine.logic(LogicOp::And, &ins, &out)?.0;
        println!(
            "k = {k}   : {:>6.2}% ({} executions)",
            stats.accuracy * 100.0,
            stats.executions
        );
    }
    println!("\n(voting pushes past the single-shot rate but cannot exceed the");
    println!(" per-pattern ceilings of Fig. 16 — worst-case inputs stay hard)");
    Ok(())
}
