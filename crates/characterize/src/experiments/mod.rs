//! One experiment per paper artifact. Each experiment consumes a
//! fleet of [`ModuleCtx`]s and produces a [`Table`] whose notes record
//! the paper-vs-measured comparison.

use crate::patterns::DataPattern;
use crate::report::Table;
use crate::runner::{run_not, ModuleCtx, NotCellRecord, Scale};
use dram_core::Manufacturer;

pub mod arith;
pub mod capabilities;
pub mod fig05;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod table1;

/// Every experiment id, in paper order (plus the extended-version
/// per-module capability inventory and the `simdram` word-arithmetic
/// extension).
pub const ALL_IDS: [&str; 17] = [
    "table1",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "capabilities",
    "arith",
];

/// Dispatches an experiment by id. Returns `None` for unknown ids.
pub fn run_experiment(id: &str, fleet: &mut [ModuleCtx], scale: &Scale) -> Option<Table> {
    Some(match id {
        "table1" => table1::run(fleet, scale),
        "fig5" => fig05::run(fleet, scale),
        "fig7" => fig07::run(fleet, scale),
        "fig8" => fig08::run(fleet, scale),
        "fig9" => fig09::run(fleet, scale),
        "fig10" => fig10::run(fleet, scale),
        "fig11" => fig11::run(fleet, scale),
        "fig12" => fig12::run(fleet, scale),
        "fig15" => fig15::run(fleet, scale),
        "fig16" => fig16::run(fleet, scale),
        "fig17" => fig17::run(fleet, scale),
        "fig18" => fig18::run(fleet, scale),
        "fig19" => fig19::run(fleet, scale),
        "fig20" => fig20::run(fleet, scale),
        "fig21" => fig21::run(fleet, scale),
        "capabilities" => capabilities::run(fleet, scale),
        "arith" => arith::run(fleet, scale),
        _ => return None,
    })
}

/// The destination-row counts tested by the NOT experiments (Fig. 7).
pub(crate) const DEST_ROWS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Collects NOT destination-cell records across the fleet for the
/// given destination-row counts. Samsung parts contribute only to
/// `dest = 1` (sequential activation); Micron parts never appear in
/// fleets (the paper analyzes them separately).
pub fn not_records(fleet: &mut [ModuleCtx], scale: &Scale, dests: &[usize]) -> Vec<NotCellRecord> {
    let mut refs: Vec<&mut ModuleCtx> = fleet.iter_mut().collect();
    not_records_for(&mut refs, scale, dests)
}

/// As [`not_records`], over an arbitrary sub-fleet.
pub(crate) fn not_records_for(
    fleet: &mut [&mut ModuleCtx],
    scale: &Scale,
    dests: &[usize],
) -> Vec<NotCellRecord> {
    let mut out = Vec::new();
    for (mi, ctx) in fleet.iter_mut().enumerate() {
        for (di, d) in dests.iter().enumerate() {
            if ctx.cfg.manufacturer == Manufacturer::Samsung && *d != 1 {
                continue;
            }
            let entries = ctx.not_entries(*d, scale);
            for (ei, entry) in entries
                .iter()
                .take(scale.execs_per_condition * 2)
                .enumerate()
            {
                let seed = dram_core::math::mix3(mi as u64, (di * 64 + ei) as u64, 0xF07);
                if let Ok(recs) = run_not(ctx, entry, DataPattern::Random(seed)) {
                    out.extend(recs);
                }
            }
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A small mixed fleet (two Hynix dies + one Samsung) for fast
    /// experiment unit tests.
    pub fn mini_fleet(scale: &Scale) -> Vec<ModuleCtx> {
        let all = dram_core::config::table1();
        let picks = [
            all.iter()
                .position(|m| m.name == "hynix-4Gb-M-2666-#0")
                .unwrap(),
            all.iter()
                .position(|m| m.name == "hynix-4Gb-A-2133-#0")
                .unwrap(),
            all.iter()
                .position(|m| m.name == "samsung-8Gb-D-2133-#0")
                .unwrap(),
        ];
        picks
            .iter()
            .map(|i| ModuleCtx::build(&all[*i], scale).unwrap())
            .collect()
    }

    #[test]
    fn dispatch_covers_all_ids() {
        let scale = Scale::quick();
        let mut fleet = mini_fleet(&scale);
        // Only check that dispatch resolves; individual experiments
        // have their own tests.
        assert!(run_experiment("nope", &mut fleet, &scale).is_none());
        assert!(run_experiment("table1", &mut fleet, &scale).is_some());
    }
}
