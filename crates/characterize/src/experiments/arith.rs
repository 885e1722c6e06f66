//! Extension experiment: SIMDRAM-style word arithmetic on the
//! characterized gate set (`simdram` crate).
//!
//! The paper stops at demonstrating the functionally-complete gate
//! set; this experiment asks the follow-on question its §9 poses —
//! *what does computation built on those gates look like?* — by
//! synthesizing XOR (3 native gates) and a 4-bit ripple-carry adder
//! (36 native gates) on every SK Hynix part of the fleet and
//! comparing the measured lane accuracy against the analytic
//! error-propagation estimate, with and without repetition voting.
//!
//! There is no paper figure to match; the notes record the structural
//! expectations instead (deep unprotected circuits collapse, voting
//! recovers accuracy, measurement tracks the estimate).

use crate::report::{Row, Table};
use crate::runner::{ModuleCtx, Scale, BANK, PAIR};
use crate::stats::mean;
use dram_core::{ChipId, Manufacturer};
use simdram::{reliability, DramSubstrate, SimdVm};

/// Gate counts of the synthesized circuits (documented in
/// `simdram::gates`): XOR = 3, full adder = 9 per bit.
pub(crate) const XOR_GATES: usize = 3;
/// 4-bit ripple-carry adder gate count.
pub(crate) const ADD4_GATES: usize = 36;

/// Per-module measurement of one circuit.
struct CircuitResult {
    predicted: f64,
    measured: f64,
}

/// Runs one module's VM through XOR and 4-bit add at a repetition
/// factor, returning (xor, add) results as percentages.
fn run_module(
    ctx: &ModuleCtx,
    scale: &Scale,
    repetition: usize,
    salt: u64,
) -> Option<(CircuitResult, CircuitResult)> {
    let fc = fcdram::Fcdram::with_chip(
        bender::Bender::new(dram_core::DramModule::new(ctx.cfg.clone())),
        ChipId(0),
    );
    let engine =
        fcdram::BulkEngine::with_budget(fc, BANK, PAIR.0, scale.map_budget.min(4_096)).ok()?;
    let mut sub = DramSubstrate::new(engine);
    if repetition > 1 {
        sub.set_repetition(repetition);
    }
    let mut vm = SimdVm::new(sub).ok()?;
    let lanes = vm.lanes();

    // --- XOR of two masks -------------------------------------------------
    let da: Vec<bool> = (0..lanes)
        .map(|i| dram_core::math::hash_to_unit(dram_core::math::mix2(salt, i as u64)) < 0.5)
        .collect();
    let db: Vec<bool> = (0..lanes)
        .map(|i| dram_core::math::hash_to_unit(dram_core::math::mix2(salt ^ 0xA5, i as u64)) < 0.5)
        .collect();
    let a = vm.alloc_row().ok()?;
    let b = vm.alloc_row().ok()?;
    vm.write_mask(a, &da).ok()?;
    vm.write_mask(b, &db).ok()?;
    vm.clear_trace();
    let x = vm.xor(a, b).ok()?;
    let xor_pred = reliability::expected_lane_accuracy(vm.trace());
    let got = vm.read_mask(x).ok()?;
    let xor_meas = got
        .iter()
        .zip(da.iter().zip(&db))
        .filter(|(g, (x, y))| **g == (*x ^ *y))
        .count() as f64
        / lanes.max(1) as f64;
    vm.release(x);
    vm.release(a);
    vm.release(b);

    // --- 4-bit add ---------------------------------------------------------
    let av: Vec<u64> = (0..lanes as u64)
        .map(|i| dram_core::math::mix2(salt ^ 0x44, i) & 0xF)
        .collect();
    let bv: Vec<u64> = (0..lanes as u64)
        .map(|i| dram_core::math::mix2(salt ^ 0x99, i) & 0xF)
        .collect();
    let va = vm.alloc_uint(4).ok()?;
    let vb = vm.alloc_uint(4).ok()?;
    vm.write_u64(&va, &av).ok()?;
    vm.write_u64(&vb, &bv).ok()?;
    vm.clear_trace();
    let sum = vm.add(&va, &vb).ok()?;
    let add_pred = reliability::expected_lane_accuracy(vm.trace());
    let got = vm.read_u64(&sum).ok()?;
    let add_meas = got
        .iter()
        .zip(av.iter().zip(&bv))
        .filter(|(g, (x, y))| **g == (*x + *y) & 0xF)
        .count() as f64
        / lanes.max(1) as f64;

    Some((
        CircuitResult {
            predicted: xor_pred * 100.0,
            measured: xor_meas * 100.0,
        },
        CircuitResult {
            predicted: add_pred * 100.0,
            measured: add_meas * 100.0,
        },
    ))
}

/// Regenerates the extension artifact: per-circuit predicted vs
/// measured lane accuracy, unprotected and with 5-fold voting.
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let mut t = Table::new(
        "arith",
        "Extension: synthesized word arithmetic on characterized gates (%)",
        "circuit",
        vec![
            "predicted".to_string(),
            "measured".to_string(),
            "pred (k=5)".to_string(),
            "meas (k=5)".to_string(),
        ],
    );

    let mut xor1: Vec<f64> = Vec::new();
    let mut xor1m: Vec<f64> = Vec::new();
    let mut xor5: Vec<f64> = Vec::new();
    let mut xor5m: Vec<f64> = Vec::new();
    let mut add1: Vec<f64> = Vec::new();
    let mut add1m: Vec<f64> = Vec::new();
    let mut add5: Vec<f64> = Vec::new();
    let mut add5m: Vec<f64> = Vec::new();

    for (mi, ctx) in fleet.iter().enumerate() {
        if ctx.cfg.manufacturer != Manufacturer::SkHynix || ctx.cfg.max_op_inputs() < 2 {
            continue;
        }
        let salt = dram_core::math::mix2(0xA717, mi as u64);
        if let Some((x, a)) = run_module(ctx, scale, 1, salt) {
            xor1.push(x.predicted);
            xor1m.push(x.measured);
            add1.push(a.predicted);
            add1m.push(a.measured);
        }
        if let Some((x, a)) = run_module(ctx, scale, 5, salt) {
            xor5.push(x.predicted);
            xor5m.push(x.measured);
            add5.push(a.predicted);
            add5m.push(a.measured);
        }
    }

    if !xor1.is_empty() {
        t.rows.push(Row::new(
            format!("XOR ({XOR_GATES} gates)"),
            vec![mean(&xor1), mean(&xor1m), mean(&xor5), mean(&xor5m)],
        ));
    }
    if !add1.is_empty() {
        t.rows.push(Row::new(
            format!("4-bit add ({ADD4_GATES} gates)"),
            vec![mean(&add1), mean(&add1m), mean(&add5), mean(&add5m)],
        ));
    }

    t.notes.push(
        "extension (no paper figure): circuits synthesized from the \
         functionally-complete set, fleet mean over SK Hynix parts"
            .to_string(),
    );
    if !xor1.is_empty() && !add1.is_empty() {
        let xm = mean(&xor1);
        let am = mean(&add1);
        t.notes.push(format!(
            "expectation: deeper circuit → lower unprotected accuracy \
             (XOR {xm:.1}% vs 4-bit add {am:.1}%): {}",
            if xm > am { "holds ✓" } else { "VIOLATED" }
        ));
    }
    if !add5.is_empty() && !add1.is_empty() {
        let gain = mean(&add5) - mean(&add1);
        t.notes.push(format!(
            "expectation: 5-fold voting raises predicted adder accuracy \
             (Δ = {gain:+.1} pts): {}",
            if gain > 0.0 { "holds ✓" } else { "VIOLATED" }
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::build_fleet;

    #[test]
    fn arith_runs_on_a_small_fleet() {
        let scale = Scale::quick();
        let mut fleet = build_fleet(&scale, true);
        fleet.truncate(2);
        let t = run(&mut fleet, &scale);
        assert_eq!(t.rows.len(), 2, "XOR and 4-bit add rows");
        for row in &t.rows {
            for v in row.values.iter().flatten() {
                assert!((0.0..=100.0).contains(v), "{} out of range: {v}", row.label);
            }
        }
        // Voting must not lower the predicted accuracy.
        let add = &t.rows[1];
        assert!(add.values[2].unwrap() + 1e-9 >= add.values[0].unwrap());
    }
}
