//! Fig. 21: logic-operation success rates across SK Hynix chip
//! densities and die revisions.

use crate::report::{Row, Table};
use crate::runner::{run_logic_random, ModuleCtx, Scale};
use crate::stats::mean;
use dram_core::{Density, DieRevision, LogicOp, Manufacturer, SpeedBin};

/// The Hynix density/die groups the paper plots.
pub(crate) const GROUPS: [(&str, Density, DieRevision); 4] = [
    ("4Gb A", Density::Gb4, DieRevision::A),
    ("4Gb M", Density::Gb4, DieRevision::M),
    ("8Gb A", Density::Gb8, DieRevision::A),
    ("8Gb M", Density::Gb8, DieRevision::M),
];

/// Regenerates Fig. 21: rows are (op, N), one column per die group.
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let counts = [2usize, 4, 8, 16];
    let mut t = Table::new(
        "fig21",
        "Logic success rate by density and die revision (%, SK Hynix)",
        "op-N",
        GROUPS.iter().map(|(l, _, _)| l.to_string()).collect(),
    );
    for op in LogicOp::ALL {
        for n in counts {
            let mut values: Vec<Option<f64>> = Vec::new();
            for (_, density, die) in GROUPS {
                let mut vals = Vec::new();
                for (mi, ctx) in fleet.iter_mut().enumerate() {
                    // Exclude 2400 MT/s modules: Fig. 20's speed dip
                    // would otherwise confound the die comparison.
                    if ctx.cfg.manufacturer != Manufacturer::SkHynix
                        || ctx.cfg.density != density
                        || ctx.cfg.die != die
                        || ctx.cfg.max_op_inputs() < n
                        || ctx.cfg.speed == SpeedBin::Mt2400
                    {
                        continue;
                    }
                    let seed = dram_core::math::mix3(0xF21, mi as u64, n as u64 + op as u64 * 17);
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
    t.note("paper: 2-input AND drops 27.47 points from 4Gb A to 4Gb M; 8Gb M beats 8Gb A by 2.11 (Observation 19)");
    t.note("the 8Gb M module supports at most 8-input operations (footnote 12): 16-input cells are '-'");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::build_fleet;

    #[test]
    fn die_gaps_follow_paper_direction() {
        let scale = Scale::quick();
        let mut fleet = build_fleet(&scale, true);
        let t = run(&mut fleet, &scale);
        let and2 = t.rows.iter().find(|r| r.label == "AND-2").unwrap();
        let (a4, m4) = (and2.values[0].unwrap(), and2.values[1].unwrap());
        // Paper: 27.47 points. Near the 2-input pattern-factor ceiling
        // the model can express only a small gap (see EXPERIMENTS.md);
        // the direction must hold with margin above sampling noise.
        assert!(a4 > m4 + 1.0, "4Gb A {a4} must beat 4Gb M {m4}");
        // 8Gb M-die has no 16-input column.
        let and16 = t.rows.iter().find(|r| r.label == "AND-16").unwrap();
        assert!(and16.values[3].is_none(), "8Gb M cannot do 16-input");
        assert!(and16.values[0].is_some());
    }
}
