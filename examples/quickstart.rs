//! Quickstart: functionally-complete Boolean logic in (simulated) DRAM.
//!
//! Builds the full stack for one SK Hynix chip from the paper's
//! Table 1, reverse-engineers its activation patterns, and runs NOT,
//! AND, NAND, OR, and NOR entirely inside the DRAM array.
//!
//! Run with: `cargo run --release --example quickstart`

use dram_core::{BankId, LogicOp, SubarrayId};
use fcdram::{BulkEngine, Fcdram, FcdramError, PackedBits};

fn main() -> Result<(), FcdramError> {
    // A 4Gb M-die SK Hynix DDR4-2666 chip (the paper's most common
    // part), narrowed to 256 columns for a fast demo.
    let cfg = dram_core::config::table1().remove(0).with_modeled_cols(256);
    println!("chip under test : {}", cfg.label());
    println!("max op inputs   : {}", cfg.max_op_inputs());

    // The engine discovers the N_RF:N_RL activation map of a
    // neighboring subarray pair, then allocates bit vectors on the
    // shared column half.
    let mut engine = BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0))?;
    println!("vector capacity : {} bits", engine.capacity_bits());
    println!(
        "activation map  : {} shapes over {} scanned pairs\n",
        engine.map().shapes().len(),
        engine.map().scanned()
    );

    // Two operand vectors and one output.
    let a = engine.alloc()?;
    let b = engine.alloc()?;
    let out = engine.alloc()?;
    let bits = engine.capacity_bits();
    let data_a: Vec<bool> = (0..bits).map(|i| i % 3 == 0).collect();
    let data_b: Vec<bool> = (0..bits).map(|i| i % 2 == 0).collect();
    let (va, vb) = (
        PackedBits::from_bools(&data_a),
        PackedBits::from_bools(&data_b),
    );
    engine.write_packed(&a, &va)?;
    engine.write_packed(&b, &vb)?;

    // In-DRAM NOT (bitline-bar coupling across the shared stripe). A
    // gate is handed its operand values, which the caller owns (it
    // stages them into scratch rows; nothing is read back over the
    // channel), and returns the bits it stored.
    let (stats, _stored) = engine.not(&va, &out)?;
    println!(
        "NOT  : accuracy {:>6.2}%  (model predicted {:>6.2}%)",
        stats.accuracy * 100.0,
        stats.predicted_success * 100.0
    );

    // In-DRAM 2-input gates (charge sharing against a Frac reference).
    for (name, op) in [
        ("AND ", LogicOp::And),
        ("NAND", LogicOp::Nand),
        ("OR  ", LogicOp::Or),
        ("NOR ", LogicOp::Nor),
    ] {
        let result = engine.logic(op, &[&va, &vb], &out)?.0;
        println!(
            "{name} : accuracy {:>6.2}%  (model predicted {:>6.2}%)",
            result.accuracy * 100.0,
            result.predicted_success * 100.0
        );
    }

    // Reliability is an analog phenomenon: repetition voting trades
    // bandwidth for correctness (the paper's future-work direction).
    engine.set_repetition(9);
    let voted = engine.logic(LogicOp::And, &[&va, &vb], &out)?.0;
    println!(
        "\nAND with 9-fold voting: accuracy {:>6.2}% over {} executions",
        voted.accuracy * 100.0,
        voted.executions
    );
    Ok(())
}
