//! Fig. 10: NOT success rate vs. chip temperature (cells preselected
//! at >90% success at 50 °C, per the paper's methodology).

use crate::experiments::DEST_ROWS;
use crate::patterns::DataPattern;
use crate::report::{Row, Table};
use crate::runner::{run_not, ModuleCtx, Scale};
use crate::stats::mean;
use dram_core::{Manufacturer, Temperature};

/// Regenerates Fig. 10. Rows are destination-row counts, columns the
/// tested temperatures.
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let temps = scale.temps.clone();
    let headers: Vec<String> = temps.iter().map(|t| t.to_string()).collect();
    let mut t = Table::new(
        "fig10",
        "NOT success rate vs temperature, cells preselected >90% at 50°C (%)",
        "dest rows",
        headers,
    );
    let mut max_drift = 0.0f64;
    for d in DEST_ROWS {
        // Per temperature, the mean over preselected cells.
        let mut sums = vec![Vec::new(); temps.len()];
        for (mi, ctx) in fleet.iter_mut().enumerate() {
            if ctx.cfg.manufacturer == Manufacturer::Samsung && d != 1 {
                continue;
            }
            let entries = ctx.not_entries(d, scale);
            for (ei, entry) in entries.iter().take(scale.execs_per_condition).enumerate() {
                let seed = dram_core::math::mix3(mi as u64, (d * 64 + ei) as u64, 0x7E9);
                // Baseline pass at 50 °C defines the preselection mask.
                let sim_cfg = ctx.fc.sim_config().with_temperature(Temperature::BASELINE);
                ctx.fc.configure(sim_cfg);
                let base = match run_not(ctx, entry, DataPattern::Random(seed)) {
                    Ok(r) => r,
                    Err(_) => continue,
                };
                let mask: Vec<bool> = base.iter().map(|r| r.p > 0.90).collect();
                if !mask.iter().any(|m| *m) {
                    continue;
                }
                for (ti, temp) in temps.iter().enumerate() {
                    let sim_cfg = ctx.fc.sim_config().with_temperature(*temp);
                    ctx.fc.configure(sim_cfg);
                    if let Ok(recs) = run_not(ctx, entry, DataPattern::Random(seed)) {
                        sums[ti].extend(
                            recs.iter()
                                .zip(&mask)
                                .filter(|(_, m)| **m)
                                .map(|(r, _)| r.p * 100.0),
                        );
                    }
                }
                let sim_cfg = ctx.fc.sim_config().with_temperature(Temperature::BASELINE);
                ctx.fc.configure(sim_cfg);
            }
        }
        let means: Vec<Option<f64>> = sums
            .iter()
            .map(|v| if v.is_empty() { None } else { Some(mean(v)) })
            .collect();
        let present: Vec<f64> = means.iter().flatten().copied().collect();
        if present.len() >= 2 {
            let drift = present.iter().cloned().fold(f64::MIN, f64::max)
                - present.iter().cloned().fold(f64::MAX, f64::min);
            max_drift = max_drift.max(drift);
        }
        t.push_row(Row::opt(d.to_string(), means));
    }
    t.note(format!(
        "max drift across temperatures: {max_drift:.2} points (paper: ≤0.20% for 32 dest rows; Observation 7)"
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::mini_fleet;

    #[test]
    fn temperature_effect_is_small() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        // Drift for d=1 between 50°C and 95°C stays below 2 points.
        let row = &t.rows[0];
        let vals: Vec<f64> = row.values.iter().flatten().copied().collect();
        assert!(vals.len() >= 2);
        let drift = vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(drift < 2.0, "drift {drift}");
        // Hotter never helps.
        assert!(vals[0] >= *vals.last().unwrap() - 0.05);
    }
}
