//! Fig. 19: logic-operation success rates vs. chip temperature.

use crate::report::{Row, Table};
use crate::runner::{run_logic_random, ModuleCtx, Scale};
use crate::stats::mean;
use dram_core::{LogicOp, Manufacturer, Temperature};

/// Regenerates Fig. 19: rows are (op, N), columns temperatures.
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let temps = scale.temps.clone();
    let counts = [2usize, 16];
    let mut t = Table::new(
        "fig19",
        "Logic success rate vs temperature (%)",
        "op-N",
        temps.iter().map(|x| x.to_string()).collect(),
    );
    let mut max_drift = 0.0f64;
    for op in LogicOp::ALL {
        for n in counts {
            let mut values: Vec<Option<f64>> = Vec::new();
            for temp in &temps {
                let mut vals = Vec::new();
                for (mi, ctx) in fleet.iter_mut().enumerate() {
                    if ctx.cfg.manufacturer != Manufacturer::SkHynix || ctx.cfg.max_op_inputs() < n
                    {
                        continue;
                    }
                    let sim_cfg = ctx.fc.sim_config().with_temperature(*temp);
                    ctx.fc.configure(sim_cfg);
                    let seed = dram_core::math::mix3(0xF19, mi as u64, n as u64 + op as u64 * 7);
                    if let Ok(recs) = run_logic_random(ctx, op, n, scale.input_draws, seed) {
                        vals.extend(recs.iter().map(|r| r.p * 100.0));
                    }
                    let sim_cfg = ctx.fc.sim_config().with_temperature(Temperature::BASELINE);
                    ctx.fc.configure(sim_cfg);
                }
                values.push(if vals.is_empty() {
                    None
                } else {
                    Some(mean(&vals))
                });
            }
            let present: Vec<f64> = values.iter().flatten().copied().collect();
            if present.len() >= 2 {
                let drift = present.iter().cloned().fold(f64::MIN, f64::max)
                    - present.iter().cloned().fold(f64::MAX, f64::min);
                max_drift = max_drift.max(drift);
            }
            t.push_row(Row::opt(
                format!("{}-{n}", op.name().to_uppercase()),
                values,
            ));
        }
    }
    t.note(format!(
        "max drift 50→95°C: {max_drift:.2} points (paper: ≤1.66/1.65/1.63/1.64 for AND/NAND/OR/NOR; Observation 17)"
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::mini_fleet;

    #[test]
    fn temperature_effect_is_small_for_logic() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        for row in &t.rows {
            let vals: Vec<f64> = row.values.iter().flatten().copied().collect();
            if vals.len() >= 2 {
                let drift = vals.iter().cloned().fold(f64::MIN, f64::max)
                    - vals.iter().cloned().fold(f64::MAX, f64::min);
                assert!(drift < 4.0, "{}: drift {drift}", row.label);
                // Hotter never helps (within measurement noise).
                assert!(vals[0] >= *vals.last().unwrap() - 0.3, "{}", row.label);
            }
        }
    }
}
