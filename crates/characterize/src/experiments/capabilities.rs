//! Per-module computational-capability inventory.
//!
//! The paper's extended version tabulates, for every tested module,
//! which operations it supports and at what width (e.g. the 8Gb M-die
//! SK Hynix module tops out at 8-input operations; Samsung parts
//! support only NOT; Micron parts support nothing). This experiment
//! regenerates that inventory from discovery alone — no prior
//! knowledge of the configuration is used beyond the module name.

use crate::patterns::DataPattern;
use crate::report::{Row, Table};
use crate::runner::{run_not, ModuleCtx, Scale};
use crate::stats::mean;

/// Regenerates the capability inventory: per module, the largest
/// discovered N:N width, the largest destination-row count, whether
/// the N:2N family exists, and the NOT success at one destination row.
pub(crate) fn run(fleet: &mut [ModuleCtx], scale: &Scale) -> Table {
    let mut t = Table::new(
        "capabilities",
        "Per-module computational capability (discovered, not configured)",
        "module",
        vec![
            "max N:N".into(),
            "max dest".into(),
            "N:2N".into(),
            "coverage %".into(),
            "NOT d=1 %".into(),
        ],
    );
    for (mi, ctx) in fleet.iter_mut().enumerate() {
        let shapes = ctx.map.shapes();
        let max_nn = shapes
            .iter()
            .filter(|(f, l)| f == l)
            .map(|(_, l)| *l)
            .max()
            .unwrap_or(0);
        let max_dst = shapes.iter().map(|(_, l)| *l).max().unwrap_or(0);
        let has_n2n = shapes.iter().any(|(f, l)| *l == 2 * *f);
        let coverage = ctx.map.total_coverage() * 100.0;
        // NOT at one destination row (sequential entries cover the
        // Samsung case; Micron-like parts simply fail).
        let entries = ctx.not_entries(1, scale);
        let mut vals = Vec::new();
        for (ei, entry) in entries.iter().take(scale.execs_per_condition).enumerate() {
            let seed = dram_core::math::mix3(0xCAB, mi as u64, ei as u64);
            if let Ok(recs) = run_not(ctx, entry, DataPattern::Random(seed)) {
                vals.extend(recs.iter().map(|r| r.p * 100.0));
            }
        }
        // Fall back to a sequential probe when no 1-destination shape
        // was discovered (e.g. a map whose lightest shape is 1:2).
        if vals.is_empty() {
            let entry = ctx.sequential_entry(0);
            if let Ok(recs) = run_not(ctx, &entry, DataPattern::Random(1)) {
                vals.extend(recs.iter().map(|r| r.p * 100.0));
            }
        }
        t.push_row(
            Row::opt(
                ctx.cfg.name.clone(),
                vec![
                    Some(max_nn as f64),
                    Some(max_dst as f64),
                    Some(if has_n2n { 1.0 } else { 0.0 }),
                    Some(coverage),
                    if vals.is_empty() {
                        None
                    } else {
                        Some(mean(&vals))
                    },
                ],
            )
            .with_origin(ctx.origin()),
        );
    }
    t.note("paper (extended version): per-module capability varies — the 8Gb M-die Hynix module reaches only 8-input ops; Samsung parts do NOT only; Micron parts none");
    t.note("'N:2N' column: 1 = the module exhibits the doubled-destination family (Observation 2)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::mini_fleet;
    use crate::runner::ModuleCtx;

    #[test]
    fn inventory_discovers_per_module_limits() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        let t = run(&mut fleet, &scale);
        assert_eq!(t.rows.len(), 3);
        // Hynix 4Gb M: full capability.
        let hynix = &t.rows[0];
        assert_eq!(hynix.values[0], Some(16.0), "max N:N");
        assert_eq!(hynix.values[2], Some(1.0), "has N:2N");
        assert!(hynix.values[4].unwrap() > 90.0, "NOT works");
        // Samsung: no shapes, but sequential NOT works.
        let samsung = t
            .rows
            .iter()
            .find(|r| r.label.starts_with("samsung"))
            .unwrap();
        assert_eq!(samsung.values[0], Some(0.0));
        assert!(samsung.values[4].unwrap() > 80.0, "sequential NOT");
    }

    #[test]
    fn merge_limited_module_reports_8() {
        let scale = Scale::quick();
        let all = dram_core::config::table1();
        let cfg = all
            .iter()
            .find(|m| m.name == "hynix-8Gb-M-2666-#0")
            .unwrap();
        let mut fleet = vec![ModuleCtx::build(cfg, &scale).unwrap()];
        let t = run(&mut fleet, &scale);
        assert_eq!(t.rows[0].values[0], Some(8.0), "8Gb M caps at 8:8");
    }
}
