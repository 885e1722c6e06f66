//! Fig. 11: NOT success rate vs. DRAM speed bin.

use crate::experiments::DEST_ROWS;
use crate::report::{Row, Table};
use crate::runner::{ModuleCtx, Scale};
use crate::stats::mean;
use dram_core::{Manufacturer, SpeedBin};

/// Regenerates Fig. 11: rows are destination-row counts, one column
/// per SK Hynix speed bin.
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let speeds = [SpeedBin::Mt2133, SpeedBin::Mt2400, SpeedBin::Mt2666];
    let mut t = Table::new(
        "fig11",
        "NOT success rate vs DRAM speed bin (%, SK Hynix)",
        "dest rows",
        speeds.iter().map(|s| s.to_string()).collect(),
    );
    // Collect per speed group separately so module membership is clean.
    let mut per_speed: Vec<Vec<(usize, f64)>> = vec![Vec::new(); speeds.len()];
    for (si, speed) in speeds.iter().enumerate() {
        let mut group: Vec<&mut ModuleCtx> = fleet
            .iter_mut()
            .filter(|c| c.cfg.manufacturer == Manufacturer::SkHynix && c.cfg.speed == *speed)
            .collect();
        // Borrow dance: run the shared collector over the sub-slice.
        let recs = crate::experiments::not_records_for(&mut group, scale, &DEST_ROWS);
        per_speed[si] = recs.iter().map(|r| (r.dest_rows, r.p * 100.0)).collect();
    }
    for d in DEST_ROWS {
        let values: Vec<Option<f64>> = per_speed
            .iter()
            .map(|recs| {
                let vals: Vec<f64> = recs
                    .iter()
                    .filter(|(dd, _)| *dd == d)
                    .map(|(_, p)| *p)
                    .collect();
                if vals.is_empty() {
                    None
                } else {
                    Some(mean(&vals))
                }
            })
            .collect();
        t.push_row(Row::opt(d.to_string(), values));
    }
    t.note("paper: 4-dest NOT drops 20.06 points from 2133→2400 MT/s and recovers +19.76 at 2666 (Observation 8)");
    t.note("speed is confounded with die revision in the fleet, exactly as in the paper's Table 1");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::build_fleet;

    #[test]
    fn speed_2400_dips_and_2666_recovers() {
        let scale = Scale::quick();
        // Need modules of all three speeds: build the Hynix fleet.
        let mut fleet = build_fleet(&scale, true);
        let t = run(&mut fleet, &scale);
        // At 4 destination rows (row index 2): 2133 > 2400, 2666 > 2400.
        let row = &t.rows[2];
        let (s2133, s2400, s2666) = (
            row.values[0].unwrap(),
            row.values[1].unwrap(),
            row.values[2].unwrap(),
        );
        assert!(s2133 > s2400 + 3.0, "2133 {s2133} vs 2400 {s2400}");
        assert!(s2666 > s2400 + 3.0, "2666 {s2666} vs 2400 {s2400}");
    }
}
