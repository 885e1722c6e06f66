//! Table 1: the inventory of tested COTS DDR4 modules.

use crate::report::{Row, Table};
use crate::runner::{ModuleCtx, Scale};
use std::collections::BTreeMap;

/// Regenerates Table 1 from the fleet (grouped like the paper: one row
/// per manufacturer × die × density × organization × speed).
pub(crate) fn run(fleet: &mut [ModuleCtx], _scale: &Scale) -> Table {
    let mut groups: BTreeMap<String, (usize, usize, usize)> = BTreeMap::new();
    for ctx in fleet.iter() {
        let c = &ctx.cfg;
        let key = format!(
            "{} {} {}-die {} {}",
            c.manufacturer, c.density, c.die, c.org, c.speed
        );
        let e = groups.entry(key).or_insert((0, 0, c.max_op_inputs()));
        e.0 += 1;
        e.1 += c.chips;
    }
    let mut t = Table::new(
        "table1",
        "Summary of DDR4 DRAM modules tested",
        "configuration",
        vec!["#modules".into(), "#chips".into(), "max op inputs".into()],
    );
    let mut modules = 0usize;
    let mut chips = 0usize;
    for (key, (m, c, inputs)) in groups {
        modules += m;
        chips += c;
        t.push_row(Row::new(key, vec![m as f64, c as f64, inputs as f64]));
    }
    t.note(format!("total: {modules} modules / {chips} chips in fleet"));
    t.note("paper: 22 modules / 256 chips analyzed (SK Hynix + Samsung); +6 Micron modules with no observed operations".to_string());
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::build_fleet;

    #[test]
    fn full_fleet_matches_paper_counts() {
        let scale = Scale::quick();
        let mut fleet = build_fleet(&scale, false);
        let t = run(&mut fleet, &scale);
        let modules: f64 = t.rows.iter().map(|r| r.values[0].unwrap()).sum();
        let chips: f64 = t.rows.iter().map(|r| r.values[1].unwrap()).sum();
        assert_eq!(modules as usize, 22);
        assert_eq!(chips as usize, 256);
        // The 8Gb M-die Hynix group is capped at 8 inputs.
        let capped = t
            .rows
            .iter()
            .find(|r| r.label.contains("8Gb M-die"))
            .expect("8Gb M-die row");
        assert_eq!(capped.values[2], Some(8.0));
    }
}
