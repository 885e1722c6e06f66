//! Fig. 18: data-pattern dependence — all-1s/0s row patterns vs.
//! random data.

use crate::patterns::uniform_input_set;
use crate::report::{Row, Table};
use crate::runner::{run_logic, run_logic_random, ModuleCtx, Scale};
use crate::stats::mean;
use dram_core::{LogicOp, Manufacturer};

/// Mean success under the uniform all-1s/0s family for one op and
/// input count.
fn uniform_mean(fleet: &mut [ModuleCtx], op: LogicOp, n: usize) -> Option<f64> {
    let mut vals = Vec::new();
    for ctx in fleet.iter_mut() {
        if ctx.cfg.manufacturer != Manufacturer::SkHynix || ctx.cfg.max_op_inputs() < n {
            continue;
        }
        let Some(entry) = ctx.map.find_nn(n).cloned() else {
            continue;
        };
        let cols = ctx.cfg.geometry().cols();
        // Enumerate all 2^n uniform combinations for small n; for
        // larger n draw combinations uniformly (hash-based) so extreme
        // patterns appear at their fair 2^-n rates.
        let combos: Vec<usize> = if n <= 4 {
            (0..(1usize << n)).collect()
        } else {
            (0..16u64)
                .map(|i| (dram_core::math::mix3(0x18C0, i, n as u64) % (1u64 << n)) as usize)
                .collect()
        };
        for index in combos {
            let inputs = uniform_input_set(n, index, cols);
            if let Ok(recs) = run_logic(ctx, &entry, op, &inputs) {
                vals.extend(recs.iter().map(|r| r.p * 100.0));
            }
        }
    }
    if vals.is_empty() {
        None
    } else {
        Some(mean(&vals))
    }
}

/// Mean success under random patterns for one op and input count.
fn random_mean(fleet: &mut [ModuleCtx], scale: &Scale, op: LogicOp, n: usize) -> Option<f64> {
    let mut vals = Vec::new();
    for (mi, ctx) in fleet.iter_mut().enumerate() {
        if ctx.cfg.manufacturer != Manufacturer::SkHynix || ctx.cfg.max_op_inputs() < n {
            continue;
        }
        let seed = dram_core::math::mix3(0xF18, mi as u64, n as u64 + op as u64 * 31);
        if let Ok(recs) = run_logic_random(ctx, op, n, scale.input_draws, seed) {
            vals.extend(recs.iter().map(|r| r.p * 100.0));
        }
    }
    if vals.is_empty() {
        None
    } else {
        Some(mean(&vals))
    }
}

/// Regenerates Fig. 18: rows are ops, columns alternate
/// uniform/random means per input count, plus the average penalty.
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let counts = [2usize, 4, 8];
    let mut headers = Vec::new();
    for n in counts {
        headers.push(format!("{n}-in unif"));
        headers.push(format!("{n}-in rand"));
    }
    headers.push("avg penalty".to_string());
    let mut t = Table::new(
        "fig18",
        "Data-pattern dependence: all-1s/0s vs random (%)",
        "op",
        headers,
    );
    for op in LogicOp::ALL {
        let mut values = Vec::new();
        let mut penalties = Vec::new();
        for n in counts {
            let u = uniform_mean(fleet, op, n);
            let r = random_mean(fleet, scale, op, n);
            // The penalty average uses only the fully-enumerated input
            // counts (n ≤ 4): sampled uniform combinations at larger n
            // add worst-case-pattern noise unrelated to coupling.
            if n <= 4 {
                if let (Some(u), Some(r)) = (u, r) {
                    penalties.push(u - r);
                }
            }
            values.push(u);
            values.push(r);
        }
        values.push(if penalties.is_empty() {
            None
        } else {
            Some(mean(&penalties))
        });
        t.push_row(Row::opt(op.name().to_uppercase(), values));
    }
    t.note("paper penalties (random vs all-1s/0s): AND 1.43, NAND 1.39, OR 1.98, NOR 1.97 points (Observation 16)");
    t.note("note: the uniform family includes the worst-case all-1s/all-0s patterns, so its mean also reflects Fig. 16's extremes");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::mini_fleet;

    #[test]
    fn coupling_penalty_exists_for_interior_counts() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        // Compare at n=4 where the uniform family is fully enumerated:
        // uniform and random share the same binomial pattern mix, so
        // the difference is exactly the coupling bonus.
        let u = uniform_mean(&mut fleet, LogicOp::Or, 4).unwrap();
        let r = random_mean(&mut fleet, &scale, LogicOp::Or, 4).unwrap();
        assert!(u > r - 1.0, "uniform {u} should not trail random {r}");
    }

    #[test]
    fn table_has_all_ops() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        assert_eq!(t.rows.len(), 4);
        assert!(t
            .rows
            .iter()
            .all(|r| r.values.iter().flatten().count() >= 4));
    }
}
