//! Fig. 20: logic-operation success rates vs. DRAM speed bin.

use crate::report::{Row, Table};
use crate::runner::{run_logic_random, ModuleCtx, Scale};
use crate::stats::mean;
use dram_core::{LogicOp, Manufacturer, SpeedBin};

/// Regenerates Fig. 20: rows are (op, N), one column per speed bin.
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let speeds = [SpeedBin::Mt2133, SpeedBin::Mt2400, SpeedBin::Mt2666];
    let counts = [2usize, 4, 8, 16];
    let mut t = Table::new(
        "fig20",
        "Logic success rate vs DRAM speed bin (%, SK Hynix)",
        "op-N",
        speeds.iter().map(|s| s.to_string()).collect(),
    );
    for op in LogicOp::ALL {
        for n in counts {
            let mut values: Vec<Option<f64>> = Vec::new();
            for speed in speeds {
                let mut vals = Vec::new();
                for (mi, ctx) in fleet.iter_mut().enumerate() {
                    if ctx.cfg.manufacturer != Manufacturer::SkHynix
                        || ctx.cfg.speed != speed
                        || ctx.cfg.max_op_inputs() < n
                    {
                        continue;
                    }
                    let seed = dram_core::math::mix3(0xF20, mi as u64, n as u64 + op as u64 * 13);
                    if let Ok(recs) = run_logic_random(ctx, op, n, scale.input_draws, seed) {
                        vals.extend(recs.iter().map(|r| r.p * 100.0));
                    }
                }
                values.push(if vals.is_empty() {
                    None
                } else {
                    Some(mean(&vals))
                });
            }
            t.push_row(Row::opt(
                format!("{}-{n}", op.name().to_uppercase()),
                values,
            ));
        }
    }
    t.note("paper: 4-input NAND drops 29.89 points from 2133→2400 MT/s (Observation 18); the fleet-mean constraint of Fig. 15 caps the expressible dip at ≈15–25 points (see EXPERIMENTS.md)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::build_fleet;

    #[test]
    fn speed_2400_dips_for_nand4() {
        let scale = Scale::quick();
        let mut fleet = build_fleet(&scale, true);
        let t = run(&mut fleet, &scale);
        let row = t.rows.iter().find(|r| r.label == "NAND-4").unwrap();
        let (s2133, s2400) = (row.values[0].unwrap(), row.values[1].unwrap());
        assert!(s2133 - s2400 > 8.0, "2133 {s2133} vs 2400 {s2400}");
        // OR-family ops are less speed-sensitive.
        let or_row = t.rows.iter().find(|r| r.label == "OR-4").unwrap();
        let or_dip = or_row.values[0].unwrap() - or_row.values[1].unwrap();
        assert!(or_dip < s2133 - s2400, "OR dip {or_dip}");
    }
}
