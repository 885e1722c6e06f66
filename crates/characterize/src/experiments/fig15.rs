//! Fig. 15: success rates of AND, NAND, OR, and NOR vs. the number of
//! input operands (random data patterns, SK Hynix).

use crate::report::{Row, Table};
use crate::runner::{run_logic_random, ModuleCtx, Scale};
use dram_core::{LogicOp, Manufacturer};

/// The input counts characterized by the paper.
pub(crate) const INPUT_COUNTS: [usize; 4] = [2, 4, 8, 16];

/// Collects mean success (percent) for one op at one input count over
/// the Hynix sub-fleet; `None` if no module expresses it.
///
/// Module means are weighted by the module's chip count: the paper
/// averages over *cells across all chips*, and modules carry 8, 16, or
/// 32 chips (Table 1).
pub(crate) fn op_mean(
    fleet: &mut [ModuleCtx],
    scale: &Scale,
    op: LogicOp,
    n: usize,
) -> Option<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    for (mi, ctx) in fleet.iter_mut().enumerate() {
        if ctx.cfg.manufacturer != Manufacturer::SkHynix || ctx.cfg.max_op_inputs() < n {
            continue;
        }
        // AND/NAND (and OR/NOR) share input draws: the real experiment
        // reads both terminals of the same charge-share execution.
        let family = u64::from(op.is_and_family());
        let seed = dram_core::math::mix3(mi as u64, n as u64, family);
        if let Ok(recs) = run_logic_random(ctx, op, n, scale.input_draws, seed) {
            if !recs.is_empty() {
                let m: f64 = recs.iter().map(|r| r.p * 100.0).sum::<f64>() / recs.len() as f64;
                num += m * ctx.cfg.chips as f64;
                den += ctx.cfg.chips as f64;
            }
        }
    }
    if den == 0.0 {
        None
    } else {
        Some(num / den)
    }
}

/// Regenerates Fig. 15: rows are operations, columns input counts.
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig15",
        "Logic operation success rate vs input count (%, random patterns)",
        "op",
        INPUT_COUNTS.iter().map(|n| format!("{n}-input")).collect(),
    );
    for op in LogicOp::ALL {
        let values: Vec<Option<f64>> = INPUT_COUNTS
            .iter()
            .map(|n| op_mean(fleet, scale, op, *n))
            .collect();
        t.push_row(Row::opt(op.name().to_uppercase(), values));
    }
    t.note("paper: 16-input AND/NAND/OR/NOR at 94.94/94.94/95.85/95.87% (Observation 10)");
    t.note("paper: success increases with inputs (Obs. 11); OR-family beats AND-family, by 10.4 points at 2 inputs (Obs. 12); AND≈NAND, OR≈NOR (Obs. 13)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::mini_fleet;

    #[test]
    fn fig15_qualitative_relations_on_mini_fleet() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        let get = |op: &str, col: usize| -> f64 {
            t.rows.iter().find(|r| r.label == op).unwrap().values[col].unwrap()
        };
        // Observation 12: OR >> AND at 2 inputs.
        assert!(get("OR", 0) - get("AND", 0) > 4.0);
        // Observation 11: AND grows with inputs.
        assert!(get("AND", 3) > get("AND", 0) + 4.0);
        // Observation 13: NAND tracks AND (mini-fleet sampling noise
        // allows a few points; the full-fleet test is tighter).
        assert!((get("NAND", 0) - get("AND", 0)).abs() < 4.5);
    }

    #[test]
    fn fig15_absolute_means_on_full_hynix_fleet() {
        // The paper's averages are fleet means including the
        // 2400 MT/s modules; only the full Hynix fleet reproduces them.
        let scale = Scale::quick();
        let mut fleet = crate::runner::build_fleet(&scale, true);
        let and16 = op_mean(&mut fleet, &scale, LogicOp::And, 16).unwrap();
        let or16 = op_mean(&mut fleet, &scale, LogicOp::Or, 16).unwrap();
        let and2 = op_mean(&mut fleet, &scale, LogicOp::And, 2).unwrap();
        assert!((and16 - 94.94).abs() < 3.5, "AND-16 {and16}");
        assert!((or16 - 95.85).abs() < 3.0, "OR-16 {or16}");
        assert!((and2 - 84.67).abs() < 6.0, "AND-2 {and2}");
    }
}
