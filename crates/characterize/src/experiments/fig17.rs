//! Fig. 17(a–d): logic-operation success rates by the distance of the
//! activated compute and reference rows to the shared sense
//! amplifiers.

use crate::patterns::random_input_set;
use crate::report::{Row, Table};
use crate::runner::{run_logic, LogicCellRecord, ModuleCtx, Scale};
use crate::stats::mean;
use dram_core::{DistanceRegion, LogicOp, Manufacturer};

/// Regenerates Fig. 17: rows are (compute region × reference region)
/// buckets, one column per operation, aggregated over input counts.
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig17",
        "Logic success rate by distance of activated rows to shared sense amps (%)",
        "com-ref regions",
        LogicOp::ALL
            .iter()
            .map(|o| o.name().to_uppercase())
            .collect(),
    );
    // Collect per-op records across N ∈ {2,4,8} (16 merges whole
    // sections and blurs the row-region signal). Multiple entries per
    // shape are executed so the addressed rows cover all nine
    // (compute region × reference region) buckets.
    let mut per_op: Vec<Vec<LogicCellRecord>> = vec![Vec::new(); 4];
    for (oi, op) in LogicOp::ALL.iter().enumerate() {
        for (mi, ctx) in fleet.iter_mut().enumerate() {
            if ctx.cfg.manufacturer != Manufacturer::SkHynix {
                continue;
            }
            for n in [2usize, 4, 8] {
                let entries: Vec<_> = ctx
                    .map
                    .find(n, n)
                    .iter()
                    .take(scale.entries_per_shape.max(4))
                    .cloned()
                    .collect();
                for (ei, entry) in entries.iter().enumerate() {
                    let seed =
                        dram_core::math::mix3(0xF17, mi as u64, (n * 64 + oi * 16 + ei) as u64);
                    let inputs = random_input_set(n, seed, ctx.cfg.geometry().cols());
                    if let Ok(recs) = run_logic(ctx, entry, *op, &inputs) {
                        per_op[oi].extend(recs);
                    }
                }
            }
        }
    }
    let mut spreads = Vec::new();
    for com in DistanceRegion::ALL {
        for refr in DistanceRegion::ALL {
            let mut values = Vec::new();
            for (oi, op) in LogicOp::ALL.iter().enumerate() {
                // For AND/OR the record's own region is the compute
                // row; for NAND/NOR it is the reference row.
                let vals: Vec<f64> = per_op[oi]
                    .iter()
                    .filter(|r| {
                        let (c, f) = if op.is_inverted_terminal() {
                            (r.other_region, r.own_region)
                        } else {
                            (r.own_region, r.other_region)
                        };
                        c == com && f == refr
                    })
                    .map(|r| r.p * 100.0)
                    .collect();
                values.push(if vals.is_empty() {
                    None
                } else {
                    Some(mean(&vals))
                });
            }
            t.push_row(Row::opt(format!("{com}-{refr}"), values));
        }
    }
    for oi in 0..4 {
        let col: Vec<f64> = t.rows.iter().filter_map(|r| r.values[oi]).collect();
        if !col.is_empty() {
            let spread = col.iter().cloned().fold(f64::MIN, f64::max)
                - col.iter().cloned().fold(f64::MAX, f64::min);
            spreads.push(format!("{}: {spread:.2}", LogicOp::ALL[oi].name()));
        }
    }
    t.note(format!("max−min spread per op: {} (paper: 23.36 AND / 23.70 NAND / 10.42 OR / 10.50 NOR; Observation 15)", spreads.join(", ")));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::mini_fleet;

    #[test]
    fn distance_matters_more_for_and_than_or() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        let spread = |col: usize| -> f64 {
            let vals: Vec<f64> = t.rows.iter().filter_map(|r| r.values[col]).collect();
            vals.iter().cloned().fold(f64::MIN, f64::max)
                - vals.iter().cloned().fold(f64::MAX, f64::min)
        };
        let and = spread(0);
        let or = spread(2);
        assert!(and > 5.0, "AND spread {and}");
        assert!(and > or, "AND spread {and} should exceed OR spread {or}");
    }
}
