//! Shared helpers for the per-figure Criterion benchmarks.
//!
//! Each bench regenerates one paper artifact end to end (fleet →
//! operations → statistics) at a reduced scale, so `cargo bench`
//! exercises every reproduction pipeline and tracks its cost.

pub mod exec_mix;
pub mod sched_mix;

use characterize::runner::{ModuleCtx, Scale};
use criterion::Criterion;
use dram_core::Temperature;

/// The scale used by benchmarks: small enough that a single experiment
/// iteration is tens of milliseconds.
pub fn bench_scale() -> Scale {
    Scale {
        cols: 16,
        map_budget: 512,
        entries_per_shape: 2,
        execs_per_condition: 1,
        input_draws: 1,
        temps: vec![Temperature::celsius(50.0), Temperature::celsius(95.0)],
    }
}

/// A three-module fleet (two SK Hynix dies + one Samsung part)
/// representative of the experiment populations.
pub fn bench_fleet(scale: &Scale) -> Vec<ModuleCtx> {
    let all = dram_core::config::table1();
    let picks = [
        "hynix-4Gb-M-2666-#0",
        "hynix-4Gb-A-2133-#0",
        "samsung-8Gb-D-2133-#0",
    ];
    picks
        .iter()
        .map(|name| {
            let cfg = all.iter().find(|m| &m.name == name).expect("known module");
            ModuleCtx::build(cfg, scale).expect("context builds")
        })
        .collect()
}

/// A fleet covering all three Hynix speed bins (for fig11/fig20/fig21).
pub fn speed_fleet(scale: &Scale) -> Vec<ModuleCtx> {
    let all = dram_core::config::table1();
    let picks = [
        "hynix-4Gb-M-2666-#0",
        "hynix-4Gb-A-2133-#0",
        "hynix-4Gb-A-2400-#0",
        "hynix-8Gb-A-2400-#0",
        "hynix-8Gb-A-2666-#0",
        "hynix-8Gb-M-2666-#0",
    ];
    picks
        .iter()
        .map(|name| {
            let cfg = all.iter().find(|m| &m.name == name).expect("known module");
            ModuleCtx::build(cfg, scale).expect("context builds")
        })
        .collect()
}

/// Criterion configuration tuned for experiment-sized iterations.
pub fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3))
}

/// Runs one experiment by id and asserts it produced rows (so the
/// bench fails loudly if the pipeline regresses).
pub fn run_and_check(id: &str, fleet: &mut [ModuleCtx], scale: &Scale) {
    let table = characterize::experiments::run_experiment(id, fleet, scale)
        .unwrap_or_else(|| panic!("unknown experiment {id}"));
    assert!(!table.rows.is_empty(), "{id} produced no rows");
    criterion::black_box(table);
}
