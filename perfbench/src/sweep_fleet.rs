//! `sweep_fleet`: the paper's characterization sweep over a fleet.
//!
//! A unit is one pass over a Table-1 fleet (one chip of every module,
//! both manufacturers) whose population the seed draws: per chip,
//! `ModuleCtx::build_chip` then `characterize::sweep::chip_sweep` on
//! `SweepConfig::standard()`. The timed call is one chip's build and
//! sweep, so a run holds hundreds of calls and its tail percentile is
//! a tail, not the middle of a few dozen fleet passes.

use crate::harness::{secs, Acc, Findings, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use characterize::runner::ModuleCtx;
use characterize::sweep::{chip_sweep, ChipResult, SweepConfig};
use dram_core::fleet::ChipSpec;
use dram_core::math::mix2;
use dram_core::FleetConfig;
use fcdram::SuccessAccumulator;
use std::time::Instant;

/// Fleet size: every Table-1 module once.
pub const CHIPS: usize = 22;

/// What one chip's sweep measured; a later sweep of the same chip must
/// repeat it exactly.
#[derive(Debug, Clone, PartialEq)]
struct ChipSummary {
    cells: u64,
    conditions: usize,
    failures: usize,
    not_mean: f64,
    logic_mean: f64,
}

/// The workload state.
pub struct SweepFleet {
    fleet: FleetConfig,
    specs: Vec<ChipSpec>,
    cfg: SweepConfig,
    first: Vec<Option<ChipSummary>>,
    /// Population accumulators over the first cycle, in fleet order.
    not: SuccessAccumulator,
    logic: SuccessAccumulator,
    digest: u64,
}

impl SweepFleet {
    /// Builds and sweeps fleet member `c`: the timed calls. Returns the
    /// timed seconds, whether the chip context built, and the results.
    fn sweep_chip(&self, c: usize, tr: &mut Tracer) -> (f64, bool, ChipResult) {
        let spec = &self.specs[c];
        let mut out = ChipResult {
            label: spec.label(),
            module: spec.cfg.name.clone(),
            chip: spec.chip.index(),
            manufacturer: spec.cfg.manufacturer.to_string(),
            not: SuccessAccumulator::new(),
            logic: SuccessAccumulator::new(),
            logic_shapes: Vec::new(),
            conditions: 0,
            failures: 0,
        };
        let chip = tr.begin("bench.chip", c as u64);
        let t0 = Instant::now();
        let span = tr.begin("characterize.build_chip", c as u64);
        let ctx = ModuleCtx::build_chip(&spec.cfg, spec.chip, &self.cfg.scale);
        tr.end(span);
        let built = ctx.is_ok();
        if let Ok(mut ctx) = ctx {
            let span = tr.begin("characterize.chip_sweep", c as u64);
            chip_sweep(&mut ctx, &self.cfg, &mut out);
            tr.end(span);
        }
        let dt = secs(t0);
        tr.end(chip);
        (dt, built, out)
    }
}

impl Workload for SweepFleet {
    fn setup(seed: u64, _tr: &mut Tracer) -> SweepFleet {
        let fleet = FleetConfig::table1(CHIPS).with_seed(seed);
        let specs = fleet.specs();
        let digest = specs.iter().fold(seed, |h, s| mix2(h, s.seed()));
        SweepFleet {
            fleet,
            specs,
            cfg: SweepConfig::standard().with_shards(1),
            first: vec![None; CHIPS],
            not: SuccessAccumulator::new(),
            logic: SuccessAccumulator::new(),
            digest,
        }
    }

    fn cycle(&self) -> u64 {
        1
    }

    fn run_unit(&mut self, unit: u64, tr: &mut Tracer, acc: &mut Acc) {
        let pass = tr.begin("bench.pass", unit);
        let mut timed = 0.0;
        for c in 0..CHIPS {
            let (dt, built, out) = self.sweep_chip(c, tr);
            timed += dt;
            acc.calls_us.push(dt * 1e6);

            // Checks, outside the timed region: the chip yields cells,
            // no condition fails, and a repeat sweep measures the same
            // cells.
            let summary = ChipSummary {
                cells: out.not.count() + out.logic.count(),
                conditions: out.conditions,
                failures: out.failures,
                not_mean: out.not.mean(),
                logic_mean: out.logic.mean(),
            };
            let repeats = self.first[c].as_ref().is_none_or(|f| *f == summary);
            if !built || summary.cells == 0 || summary.failures > 0 || !repeats {
                acc.failed += 1;
            }
            acc.work += summary.cells;
            if self.first[c].is_none() {
                self.not.merge(&out.not);
                self.logic.merge(&out.logic);
                self.first[c] = Some(summary);
            }
        }
        tr.end(pass);
        acc.timed_s += timed;
        acc.attempted += CHIPS as u64;
    }

    fn finish(&mut self, acc: &Acc, tr: &Tracer) -> Findings {
        let mut f = Findings {
            inputs_digest: self.digest,
            ..Findings::default()
        };
        let firsts: Vec<&ChipSummary> = self.first.iter().flatten().collect();
        let layer = &mut f.layer;
        layer.insert(
            "characterize.build_chip_ms",
            median(&tr.durations_us("characterize.build_chip")) / 1e3,
        );
        layer.insert(
            "characterize.chip_sweep_ms",
            median(&tr.durations_us("characterize.chip_sweep")) / 1e3,
        );
        layer.insert(
            "characterize.cells",
            firsts.iter().map(|s| s.cells).sum::<u64>() as f64,
        );
        layer.insert(
            "characterize.conditions",
            firsts.iter().map(|s| s.conditions).sum::<usize>() as f64,
        );
        layer.insert(
            "characterize.failures",
            firsts.iter().map(|s| s.failures).sum::<usize>() as f64,
        );
        layer.insert("fcdram.not_success_mean", self.not.mean());
        layer.insert("fcdram.logic_success_mean", self.logic.mean());
        let [hynix, samsung, micron] = self.fleet.manufacturer_counts();
        f.notes.push(format!(
            "fleet passes: {} ({CHIPS} chips each: SK Hynix {hynix}, Samsung {samsung}, \
             Micron {micron}); population NOT {:.2}%, logic {:.2}% (simulated)",
            acc.units,
            100.0 * self.not.mean(),
            100.0 * self.logic.mean()
        ));
        f
    }

    fn work(&self) -> (&'static str, &'static str) {
        ("cells_per_s", "success-rate cells measured")
    }

    fn describe(&self) -> String {
        format!(
            "fleet {CHIPS} Table-1 chips (fleet seed {:#x}), SweepConfig::standard() \
             ({} temperatures, dest rows {:?}, {} logic ops x N {:?}), shards 1",
            self.fleet.seed,
            self.cfg.scale.temps.len(),
            self.cfg.dest_rows,
            self.cfg.logic_ops.len(),
            self.cfg.logic_inputs
        )
    }
}
