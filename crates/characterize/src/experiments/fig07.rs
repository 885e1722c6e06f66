//! Fig. 7: NOT success rate vs. number of destination rows.

use crate::experiments::{not_records, DEST_ROWS};
use crate::report::{Row, Table};
use crate::runner::{ModuleCtx, Scale};
use crate::stats::BoxStats;

/// Regenerates Fig. 7.
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let recs = not_records(fleet, scale, &DEST_ROWS);
    let mut t = Table::new(
        "fig7",
        "NOT success rate vs destination rows (%)",
        "dest rows",
        vec![
            "mean".into(),
            "min".into(),
            "q1".into(),
            "median".into(),
            "q3".into(),
            "max".into(),
        ],
    );
    for d in DEST_ROWS {
        let vals: Vec<f64> = recs
            .iter()
            .filter(|r| r.dest_rows == d)
            .map(|r| r.p * 100.0)
            .collect();
        if let Some(s) = BoxStats::from_values(&vals) {
            t.push_row(Row::new(
                d.to_string(),
                vec![s.mean, s.min, s.q1, s.median, s.q3, s.max],
            ));
        } else {
            t.push_row(Row::opt(d.to_string(), vec![None; 6]));
        }
    }
    t.note("paper: 98.37% average at 1 destination row; 7.95% at 32 (Observation 4)");
    t.note("Observation 3: some cells reach (near-)100% at every destination-row count");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::mini_fleet;

    #[test]
    fn success_declines_with_destination_rows() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        let means: Vec<f64> = t.rows.iter().filter_map(|r| r.values[0]).collect();
        assert!(means.len() >= 5, "most dest counts measured: {means:?}");
        // First (d=1) high, last measured low, overall decline.
        assert!(means[0] > 93.0, "d=1 mean {}", means[0]);
        assert!(
            *means.last().unwrap() < 40.0,
            "high-d mean {}",
            means.last().unwrap()
        );
        assert!(means.windows(2).filter(|w| w[1] <= w[0] + 1.5).count() >= means.len() - 2);
    }

    #[test]
    fn d1_matches_paper_closely() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        let d1 = t.rows[0].values[0].unwrap();
        // Mini-fleet is Hynix-heavy; expect the headline ±3 points.
        assert!((d1 - 98.37).abs() < 3.0, "d=1 {d1}");
    }
}
