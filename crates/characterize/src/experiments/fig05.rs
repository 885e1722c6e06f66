//! Fig. 5: coverage of each `N_RF:N_RL` activation type across tested
//! `(R_F, R_L)` address pairs.

use crate::report::{Row, Table};
use crate::runner::{ModuleCtx, Scale};
use crate::stats::BoxStats;
use dram_core::{Manufacturer, PatternKind};

/// The activation shapes the paper reports, with its measured average
/// coverage (percent) for comparison.
pub(crate) const PAPER_COVERAGE: [((usize, usize), f64); 10] = [
    ((1, 1), 0.23),
    ((1, 2), 0.15),
    ((2, 2), 2.60),
    ((2, 4), 1.53),
    ((4, 4), 11.58),
    ((4, 8), 5.42),
    ((8, 8), 24.52),
    ((8, 16), 7.95),
    ((16, 16), 24.35),
    ((16, 32), 3.82),
];

/// Regenerates Fig. 5: per-shape coverage distribution across SK Hynix
/// modules (box statistics over modules).
pub(crate) fn run(fleet: &mut [ModuleCtx], _scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig5",
        "Coverage of N_RF:N_RL activation types (%)",
        "type",
        vec![
            "mean".into(),
            "min".into(),
            "q1".into(),
            "median".into(),
            "q3".into(),
            "max".into(),
            "paper mean".into(),
        ],
    );
    let hynix: Vec<&ModuleCtx> = fleet
        .iter()
        .filter(|c| c.cfg.manufacturer == Manufacturer::SkHynix)
        .collect();
    let mut totals = Vec::new();
    for ((n_rf, n_rl), paper) in PAPER_COVERAGE {
        let kind = if n_rl == 2 * n_rf {
            PatternKind::N2N
        } else {
            PatternKind::NN
        };
        let per_module: Vec<f64> = hynix
            .iter()
            .map(|ctx| {
                ctx.map
                    .coverage()
                    .iter()
                    .find(|r| r.n_rf == n_rf && r.n_rl == n_rl && r.kind == kind)
                    .map(|r| r.coverage * 100.0)
                    .unwrap_or(0.0)
            })
            .collect();
        let s = BoxStats::from_values(&per_module).expect("hynix fleet non-empty");
        t.push_row(Row::new(
            format!("{n_rf}:{n_rl}"),
            vec![s.mean, s.min, s.q1, s.median, s.q3, s.max, paper],
        ));
    }
    for ctx in &hynix {
        totals.push(ctx.map.total_coverage() * 100.0);
    }
    let total = BoxStats::from_values(&totals).expect("non-empty");
    t.note(format!(
        "total simultaneous-activation coverage: mean {:.2}% (paper: ≈82.15% summed over types)",
        total.mean
    ));
    t.note("Observation 1: COTS DRAM chips can simultaneously activate multiple rows in two neighboring subarrays");
    t.note("Observation 2: two families, N:N and N:2N, up to 48 rows (16:32)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::mini_fleet;

    #[test]
    fn coverage_shapes_match_paper_ranking() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        assert_eq!(t.rows.len(), 10);
        let get = |label: &str| -> f64 {
            t.rows.iter().find(|r| r.label == label).unwrap().values[0].unwrap()
        };
        // 8:8 and 16:16 dominate, as in the paper.
        assert!(get("8:8") > get("2:2"));
        assert!(get("16:16") > get("4:8"));
        assert!(get("1:1") < 2.0);
        // Means are within a few points of the paper's values.
        for row in &t.rows {
            let mean = row.values[0].unwrap();
            let paper = row.values[6].unwrap();
            assert!(
                (mean - paper).abs() < 6.0,
                "{}: {mean} vs paper {paper}",
                row.label
            );
        }
    }
}
