//! Fig. 9: NOT success rate by the distance of the source and
//! destination rows to the shared sense amplifiers (3×3 heat map over
//! Close/Middle/Far tertiles, aggregated over all destination cells).

use crate::patterns::DataPattern;
use crate::report::{Row, Table};
use crate::runner::{run_not, ModuleCtx, NotCellRecord, Scale};
use crate::stats::mean;
use dram_core::{DistanceRegion, Manufacturer};

/// Collects NOT records across *every* discovered shape so all nine
/// (source region × destination region) buckets are populated.
fn region_records(fleet: &mut [ModuleCtx], per_shape: usize) -> Vec<NotCellRecord> {
    let mut recs = Vec::new();
    for (mi, ctx) in fleet.iter_mut().enumerate() {
        if ctx.cfg.manufacturer == Manufacturer::Samsung {
            continue; // single-destination parts carry no load signal
        }
        for (f, l) in ctx.map.shapes() {
            let entries: Vec<_> = ctx.map.find(f, l).iter().take(per_shape).cloned().collect();
            for (ei, entry) in entries.iter().enumerate() {
                let seed = dram_core::math::mix3(0xF09, mi as u64, (f * 64 + l + ei) as u64);
                if let Ok(r) = run_not(ctx, entry, DataPattern::Random(seed)) {
                    recs.extend(r);
                }
            }
        }
    }
    recs
}

/// Regenerates Fig. 9. Rows are source regions, columns destination
/// regions.
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let recs = region_records(fleet, scale.execs_per_condition.max(2));
    let mut t = Table::new(
        "fig9",
        "NOT success rate by distance to shared sense amplifiers (%)",
        "src region",
        vec!["dst Close".into(), "dst Middle".into(), "dst Far".into()],
    );
    for src in DistanceRegion::ALL {
        let mut values = Vec::new();
        for dst in DistanceRegion::ALL {
            // Stratify by total driven rows so bucket means are not
            // biased by which load levels happened to land in them
            // (the paper's exhaustive sweeps are balanced by design).
            let loads = [2usize, 3, 4, 6, 8, 12, 16, 24, 32, 48];
            let mut strata = Vec::new();
            for k in loads {
                let vals: Vec<f64> = recs
                    .iter()
                    .filter(|r| r.src_region == src && r.dst_region == dst && r.total_rows == k)
                    .map(|r| r.p * 100.0)
                    .collect();
                if !vals.is_empty() {
                    // Weight by destination cells per trial, as the
                    // paper's per-cell aggregation does.
                    let d = k - k / 3; // approx. N_RL share of the load
                    for _ in 0..d {
                        strata.push(mean(&vals));
                    }
                }
            }
            values.push(if strata.is_empty() {
                None
            } else {
                Some(mean(&strata))
            });
        }
        t.push_row(Row::opt(src.to_string(), values));
    }
    t.note("paper: Middle-Far 85.02% (best), Far-Close 44.16% (worst); Observation 6");
    t.note("consistency note: the exact paper extremes are not jointly reachable with Fig. 7's 98.37% headline under a per-cell model; ranking and direction reproduce (see EXPERIMENTS.md)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::mini_fleet;

    #[test]
    fn far_close_is_worst_middle_far_is_best() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        let cell = |src: usize, dst: usize| -> f64 {
            t.rows[src].values[dst].unwrap_or_else(|| panic!("empty bucket {src},{dst}"))
        };
        let far_close = cell(2, 0);
        let middle_far = cell(1, 2);
        assert!(
            middle_far > far_close + 10.0,
            "MF {middle_far} vs FC {far_close}"
        );
        // Far-Close sits in the bottom of the grid; Middle-Far at the
        // top. (Bucket compositions mix load levels, so only the
        // paper's quoted extremes are asserted tightly.)
        let grid_mean: f64 = (0..9).map(|i| cell(i / 3, i % 3)).sum::<f64>() / 9.0;
        assert!(
            far_close < grid_mean,
            "FC {far_close} vs grid mean {grid_mean}"
        );
        assert!(
            middle_far > grid_mean,
            "MF {middle_far} vs grid mean {grid_mean}"
        );
    }
}
