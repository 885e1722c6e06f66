//! Fig. 16: success rate of AND and OR operations vs. the number of
//! logic-1s among the input operands (4- and 16-input).

use crate::patterns::weighted_input_set;
use crate::report::{Row, Table};
use crate::runner::{run_logic, ModuleCtx, Scale};
use crate::stats::mean;
use dram_core::{LogicOp, Manufacturer};

/// Mean success (percent) for `op` with exactly `m` of `n` inputs set
/// to all-1 rows, over the capable Hynix sub-fleet.
pub(crate) fn weighted_mean(
    fleet: &mut [ModuleCtx],
    _scale: &Scale,
    op: LogicOp,
    n: usize,
    m: usize,
) -> Option<f64> {
    let mut vals = Vec::new();
    for ctx in fleet.iter_mut() {
        if ctx.cfg.manufacturer != Manufacturer::SkHynix || ctx.cfg.max_op_inputs() < n {
            continue;
        }
        let Some(entry) = ctx.map.find_nn(n).cloned() else {
            continue;
        };
        let inputs = weighted_input_set(n, m, ctx.cfg.geometry().cols());
        if let Ok(recs) = run_logic(ctx, &entry, op, &inputs) {
            vals.extend(recs.iter().map(|r| r.p * 100.0));
        }
    }
    if vals.is_empty() {
        None
    } else {
        Some(mean(&vals))
    }
}

/// Regenerates Fig. 16: rows are (op, N) pairs, columns the number of
/// logic-1s (0..=16; `-` where m > N).
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let configs = [
        (LogicOp::And, 4),
        (LogicOp::And, 16),
        (LogicOp::Or, 4),
        (LogicOp::Or, 16),
    ];
    let max_m = 16usize;
    let mut t = Table::new(
        "fig16",
        "AND/OR success rate vs number of logic-1s in the inputs (%)",
        "op",
        (0..=max_m).map(|m| format!("m={m}")).collect(),
    );
    for (op, n) in configs {
        let values: Vec<Option<f64>> = (0..=max_m)
            .map(|m| {
                if m <= n {
                    weighted_mean(fleet, scale, op, n, m)
                } else {
                    None
                }
            })
            .collect();
        t.push_row(Row::opt(
            format!("{}-{n}", op.name().to_uppercase()),
            values,
        ));
    }
    t.note("paper: 16-input AND drops 52.43 points from m=0 to m=15; 4-input AND drops 45.43 from m=0 to m=4 (Observation 14)");
    t.note("paper: 16-input OR drops 53.66 points from m=16 to m=1; 4-input OR drops 21.46 from m=4 to m=0");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::mini_fleet;

    #[test]
    fn and_worst_cases_are_all_ones_and_one_zero() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        let and4: Vec<f64> = t.rows[0].values[..5].iter().map(|v| v.unwrap()).collect();
        // m=0 is comfortable, m=4 (all ones) collapses.
        assert!(and4[0] > 85.0, "AND-4 m=0: {}", and4[0]);
        assert!(
            and4[0] - and4[4] > 30.0,
            "AND-4 drop {} → {}",
            and4[0],
            and4[4]
        );
        // m=3 (one zero) is also clearly degraded vs m=0.
        assert!(and4[0] - and4[3] > 3.0, "AND-4 m=3 {}", and4[3]);
        // Interior m is comfortable.
        assert!(and4[1] > 85.0);
    }

    #[test]
    fn or_worst_cases_are_all_zeros_and_one_one() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        let or4: Vec<f64> = t.rows[2].values[..5].iter().map(|v| v.unwrap()).collect();
        assert!(or4[4] > 85.0, "OR-4 m=4: {}", or4[4]);
        assert!(or4[4] - or4[0] > 10.0, "OR-4 drop {} → {}", or4[4], or4[0]);
        // The OR drop is milder than the AND drop (paper: 21 vs 45).
        let and4: Vec<f64> = t.rows[0].values[..5].iter().map(|v| v.unwrap()).collect();
        assert!((and4[0] - and4[4]) > (or4[4] - or4[0]));
    }

    #[test]
    fn sixteen_input_one_off_collapses() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        let and16 = &t.rows[1].values;
        let m0 = and16[0].unwrap();
        let m15 = and16[15].unwrap();
        assert!(m0 - m15 > 35.0, "AND-16 m=0 {m0} vs m=15 {m15}");
    }
}
