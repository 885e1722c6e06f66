//! Bitmap-index scan: the bulk-bitwise database workload that
//! motivates processing-using-DRAM (Seshadri et al., Ambit; §1 of the
//! FCDRAM paper).
//!
//! A table of "users" is indexed by bitmap columns (one bit per row):
//! `premium`, `active_last_week`, `eu_resident`, `opted_in`. The query
//!
//! ```sql
//! SELECT count(*) WHERE premium AND active AND (eu OR opted_in)
//! ```
//!
//! is evaluated entirely with in-DRAM AND/OR operations, then compared
//! against the host-computed ground truth.
//!
//! Run with: `cargo run --release --example bitmap_scan`

use dram_core::{BankId, LogicOp, SubarrayId};
use fcdram::{BulkEngine, Fcdram, FcdramError, PackedBits};

/// Deterministic pseudo-random predicate bit.
fn bit(seed: u64, i: usize) -> bool {
    dram_core::math::hash_to_unit(dram_core::math::mix2(seed, i as u64)) < 0.4
}

fn main() -> Result<(), FcdramError> {
    let cfg = dram_core::config::table1().remove(0).with_modeled_cols(512);
    let mut engine = BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0))?;
    // Vote 5-fold: a database scan wants accuracy over raw latency.
    engine.set_repetition(5);
    let users = engine.capacity_bits();
    println!("bitmap index over {users} users, evaluated in-DRAM\n");

    // Build the four bitmap columns.
    let premium: Vec<bool> = (0..users).map(|i| bit(0xA, i)).collect();
    let active: Vec<bool> = (0..users).map(|i| bit(0xB, i)).collect();
    let eu: Vec<bool> = (0..users).map(|i| bit(0xC, i)).collect();
    let opted: Vec<bool> = (0..users).map(|i| bit(0xD, i)).collect();

    let v_premium = engine.alloc()?;
    let v_active = engine.alloc()?;
    let v_eu = engine.alloc()?;
    let v_opted = engine.alloc()?;
    let v_region = engine.alloc()?;
    let v_result = engine.alloc()?;
    let [p_premium, p_active, p_eu, p_opted] =
        [&premium, &active, &eu, &opted].map(|c| PackedBits::from_bools(c));
    engine.write_packed(&v_premium, &p_premium)?;
    engine.write_packed(&v_active, &p_active)?;
    engine.write_packed(&v_eu, &p_eu)?;
    engine.write_packed(&v_opted, &p_opted)?;

    // (eu OR opted_in) — one in-DRAM OR over the columns' values; it
    // returns the bits it stored in `v_region`.
    let (or_stats, region) = engine.logic(LogicOp::Or, &[&p_eu, &p_opted], &v_region)?;
    // premium AND active AND region — one in-DRAM 3-input AND
    // (identity-padded to the 4:4 activation pattern).
    let and_stats = engine
        .logic(LogicOp::And, &[&p_premium, &p_active, &region], &v_result)?
        .0;

    let result = engine.read(&v_result)?;
    let in_dram_count = result.iter().filter(|b| **b).count();

    // Host ground truth.
    let truth: Vec<bool> = (0..users)
        .map(|i| premium[i] && active[i] && (eu[i] || opted[i]))
        .collect();
    let truth_count = truth.iter().filter(|b| **b).count();
    let correct = result.iter().zip(&truth).filter(|(a, b)| a == b).count();

    println!("OR stage   : accuracy {:>6.2}%", or_stats.accuracy * 100.0);
    println!("AND stage  : accuracy {:>6.2}%", and_stats.accuracy * 100.0);
    println!();
    println!("in-DRAM count : {in_dram_count}");
    println!("exact count   : {truth_count}");
    println!(
        "bit accuracy  : {:.2}% ({correct}/{users})",
        correct as f64 / users as f64 * 100.0
    );
    println!(
        "count error   : {:+.2}%",
        (in_dram_count as f64 - truth_count as f64) / truth_count.max(1) as f64 * 100.0
    );
    println!("\nNote the asymmetry: rows matching *all* predicates are exactly the");
    println!("paper's worst-case AND input pattern (Fig. 16), so positives flip to");
    println!("negatives far more often than the reverse. A deployment would use");
    println!("this as a host-verified pre-filter, or invert the query into its");
    println!("NOR form so the hard pattern becomes the rare one.");
    Ok(())
}
