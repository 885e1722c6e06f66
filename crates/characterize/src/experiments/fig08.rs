//! Fig. 8: NOT success rate vs. `N_RF:N_RL` activation type
//! (the N:2N family beats N:N at equal destination-row counts).

use crate::experiments::not_records;
use crate::report::{Row, Table};
use crate::runner::{ModuleCtx, Scale};
use crate::stats::mean;
use dram_core::PatternKind;

/// Regenerates Fig. 8.
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let recs = not_records(fleet, scale, &[1, 2, 4, 8, 16, 32]);
    let mut t = Table::new(
        "fig8",
        "NOT success rate vs N_RF:N_RL activation type (%)",
        "type",
        vec!["mean".into(), "cells".into()],
    );
    let shapes: [(usize, usize); 10] = [
        (1, 1),
        (1, 2),
        (2, 2),
        (2, 4),
        (4, 4),
        (4, 8),
        (8, 8),
        (8, 16),
        (16, 16),
        (16, 32),
    ];
    let mut nn_means = Vec::new();
    let mut n2n_means = Vec::new();
    for (n_rf, n_rl) in shapes {
        let kind = if n_rl == 2 * n_rf {
            PatternKind::N2N
        } else {
            PatternKind::NN
        };
        let vals: Vec<f64> = recs
            .iter()
            .filter(|r| r.total_rows == n_rf + n_rl && r.dest_rows == n_rl && r.kind == kind)
            .map(|r| r.p * 100.0)
            .collect();
        if vals.is_empty() {
            t.push_row(Row::opt(format!("{n_rf}:{n_rl}"), vec![None, Some(0.0)]));
            continue;
        }
        let m = mean(&vals);
        t.push_row(Row::new(
            format!("{n_rf}:{n_rl}"),
            vec![m, vals.len() as f64],
        ));
        // Pair up at matching destination counts d ∈ {2,4,8,16}.
        if (2..=16).contains(&n_rl) {
            if kind == PatternKind::N2N {
                n2n_means.push(m);
            } else if n_rf == n_rl {
                nn_means.push(m);
            }
        }
    }
    if !nn_means.is_empty() && !n2n_means.is_empty() {
        let gap = mean(&n2n_means) - mean(&nn_means);
        t.note(format!(
            "N:2N − N:N average gap at matching destination counts: {gap:+.2} points (paper: +9.41%)"
        ));
    }
    t.note("Observation 5: N:2N drives fewer total rows for the same destination count, so it succeeds more often");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::mini_fleet;

    #[test]
    fn n2n_beats_nn() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        let get = |label: &str| -> Option<f64> {
            t.rows
                .iter()
                .find(|r| r.label == label)
                .and_then(|r| r.values[0])
        };
        // At 16 destination rows: 8:16 (24 driven) vs 16:16 (32 driven).
        if let (Some(n2n), Some(nn)) = (get("8:16"), get("16:16")) {
            assert!(n2n > nn, "8:16 {n2n} must beat 16:16 {nn}");
        }
        // The note quantifies the average gap.
        assert!(t.notes.iter().any(|n| n.contains("N:2N")), "{:?}", t.notes);
    }
}
