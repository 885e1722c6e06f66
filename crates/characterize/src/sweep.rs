//! Sharded fleet characterization sweeps.
//!
//! The paper's population-level figures (die-to-die variation,
//! per-manufacturer success-rate distributions) come from
//! characterizing 256 chips. This module fans an experiment grid —
//! data pattern × temperature × destination-row count (the NOT timing
//! axis) × logic (op, N) × chip — out over scoped worker threads, one
//! *shard* of the fleet per thread, and streams per-chip results into
//! mergeable [`SuccessAccumulator`]s. Per-chip results depend only on
//! the chip's spec and the sweep configuration (all seeds derive from
//! the chip seed), so the report is **bit-identical for every shard
//! count** — threading is purely a wall-clock optimization.
//!
//! A fleet of size 1 over an untouched module config reproduces the
//! direct single-chip path exactly (`tests/fleet_equivalence.rs`).

use crate::patterns::DataPattern;
use crate::report::{Row, Table};
use crate::runner::{logic_draws, logic_inputs, not_gate, ModuleCtx, Scale};
use dram_core::fleet::{ChipSpec, FleetConfig};
use dram_core::{result_role, CellRole, LogicOp, Manufacturer, OpOutcome, PackedBits, Temperature};
use fcdram::{PatternEntry, SuccessAccumulator};
use serde::{Deserialize, Serialize};

/// The experiment grid swept on every fleet chip, plus the shard
/// (thread) count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Per-chip experiment scale; `scale.temps` is the temperature
    /// axis of the grid.
    pub scale: Scale,
    /// Destination-row counts for the NOT conditions (the violated
    /// timing stress axis: more simultaneous rows, weaker drive).
    pub dest_rows: Vec<usize>,
    /// Data patterns driven through the NOT conditions.
    pub patterns: Vec<DataPattern>,
    /// Logic operations measured per input count.
    pub logic_ops: Vec<LogicOp>,
    /// Input counts N for the logic conditions.
    pub logic_inputs: Vec<usize>,
    /// Worker threads the fleet is sharded over. `0` = one per
    /// available CPU (capped at the fleet size); `1` = serial.
    pub shards: usize,
}

impl SweepConfig {
    /// Reduced grid for tests, benches, and `--quick`.
    pub fn quick() -> SweepConfig {
        SweepConfig {
            scale: Scale::quick(),
            dest_rows: vec![1, 4],
            patterns: vec![DataPattern::Random(0xF1EE7)],
            logic_ops: vec![LogicOp::And, LogicOp::Nand],
            logic_inputs: vec![2, 8],
            shards: 0,
        }
    }

    /// Standard grid for the CLI (minutes for tens of chips).
    pub fn standard() -> SweepConfig {
        SweepConfig {
            scale: Scale::standard(),
            dest_rows: vec![1, 4, 16],
            patterns: vec![DataPattern::Random(0xF1EE7), DataPattern::Checker],
            logic_ops: LogicOp::ALL.to_vec(),
            logic_inputs: vec![2, 4, 8, 16],
            shards: 0,
        }
    }

    /// Minimal grid for throughput benchmarking: one condition per
    /// family so the measured cost is dominated by per-chip model
    /// work, not grid breadth.
    pub fn bench() -> SweepConfig {
        SweepConfig {
            scale: Scale {
                cols: 16,
                map_budget: 512,
                entries_per_shape: 2,
                execs_per_condition: 1,
                input_draws: 1,
                temps: vec![Temperature::BASELINE],
            },
            dest_rows: vec![1, 2],
            patterns: vec![DataPattern::Random(1)],
            logic_ops: vec![LogicOp::And],
            logic_inputs: vec![2],
            shards: 0,
        }
    }

    /// Overrides the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> SweepConfig {
        self.shards = shards;
        self
    }

    /// The worker threads [`run_fleet_sweep`] spawns for `chips` fleet
    /// members ([`dram_core::shard::effective_workers`]); this is the
    /// count recorded in [`FleetReport::shards`].
    pub fn effective_workers(&self, chips: usize) -> usize {
        dram_core::shard::effective_workers(self.shards, chips)
    }
}

/// Per-(op, input-count) logic accumulator of one chip — the
/// granularity [`fcsynth::CostModel`] consumes.
///
/// Stays `pub` although no other crate names it: it is the element type
/// of [`ChipResult::logic_shapes`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogicShapeResult {
    /// The operation.
    pub op: LogicOp,
    /// Input count N.
    pub inputs: usize,
    /// Success probabilities of every result cell measured under this
    /// shape (across temperatures and input draws).
    pub acc: SuccessAccumulator,
}

/// Everything measured on one fleet chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipResult {
    /// Fleet display label (`module/cN`).
    pub label: String,
    /// Module name.
    pub module: String,
    /// Chip index within the module.
    pub chip: usize,
    /// Manufacturer display name (population grouping key).
    pub manufacturer: String,
    /// Success probabilities of every NOT destination cell measured.
    pub not: SuccessAccumulator,
    /// Success probabilities of every logic result cell measured.
    pub logic: SuccessAccumulator,
    /// The same logic cells, broken down per (op, N) — the shape the
    /// synthesis cost export needs. Keyed in first-measurement order;
    /// identical for every shard count (per-chip work is
    /// deterministic).
    pub logic_shapes: Vec<LogicShapeResult>,
    /// Grid conditions attempted on this chip.
    pub conditions: usize,
    /// Conditions that produced no measurement (unsupported op,
    /// missing pattern, or — for `Ignored`-capability parts — a failed
    /// context build).
    pub failures: usize,
}

impl ChipResult {
    fn empty_for(spec: &ChipSpec) -> ChipResult {
        ChipResult {
            label: spec.label(),
            module: spec.cfg.name.clone(),
            chip: spec.chip.index(),
            manufacturer: spec.cfg.manufacturer.to_string(),
            not: SuccessAccumulator::new(),
            logic: SuccessAccumulator::new(),
            logic_shapes: Vec::new(),
            conditions: 0,
            failures: 0,
        }
    }
}

/// The per-(op, N) accumulator of `shapes`, created on first use.
fn shape_mut(
    shapes: &mut Vec<LogicShapeResult>,
    op: LogicOp,
    inputs: usize,
) -> &mut SuccessAccumulator {
    if let Some(i) = shapes.iter().position(|s| s.op == op && s.inputs == inputs) {
        return &mut shapes[i].acc;
    }
    shapes.push(LogicShapeResult {
        op,
        inputs,
        acc: SuccessAccumulator::new(),
    });
    &mut shapes.last_mut().expect("just pushed").acc
}

/// Runs the full grid on one already-built chip context, streaming
/// cell success probabilities into the two accumulators of `out`.
///
/// Each cell's success probability goes from the gate's outcome (its
/// row records' `p` slices) into the accumulators: no result row is
/// read back, so no result cell is ever drawn (each gate's result rows
/// owe their draws until the next gate's staging overwrites them). A
/// condition buffers its values, so a failing logic draw adds nothing,
/// and a logic condition then feeds the population and per-shape
/// accumulators in one pass ([`SuccessAccumulator::extend_pair`]).
///
/// Only work whose results the grid consumes runs. Nothing the sweep
/// ships depends on the temperature except the outcomes, so the NOT
/// source rows (one per pattern), the NOT entries (one list per
/// destination-row count) and every (N, op, draw) logic input set are
/// built once per chip, before the temperature loop, and shared by
/// every temperature. Each NOT resolves only its destination subarray
/// (see [`crate::runner`]'s `not_gate`). Every drawn bit and every
/// accumulated value is the one a per-temperature rebuild would give.
///
/// This is the exact per-chip work [`run_fleet_sweep`] performs; it is
/// public so the fleet-of-1 bit-identity test can drive the historical
/// single-chip path through the identical code.
pub fn chip_sweep(ctx: &mut ModuleCtx, cfg: &SweepConfig, out: &mut ChipResult) {
    let chip_seed = ctx.cfg.chip_seed(ctx.chip);
    let cols = ctx.cfg.geometry().cols();
    let samsung = ctx.cfg.manufacturer == Manufacturer::Samsung;
    let not_srcs: Vec<PackedBits> = cfg.patterns.iter().map(|p| p.row(cols).into()).collect();
    // An empty entry list means the chip's activation map has no such
    // shape — a capability gap, not a measurement failure.
    let not_entries: Vec<Vec<PatternEntry>> = cfg
        .dest_rows
        .iter()
        .filter(|d| !samsung || **d == 1)
        .map(|d| {
            let mut entries = ctx.not_entries(*d, &cfg.scale);
            entries.truncate(cfg.scale.execs_per_condition);
            entries
        })
        .filter(|entries| !entries.is_empty())
        .collect();
    let mut logic_sets = Vec::new();
    for (ni, n) in cfg.logic_inputs.iter().enumerate() {
        if ctx.cfg.max_op_inputs() < *n {
            continue;
        }
        for (oi, op) in cfg.logic_ops.iter().enumerate() {
            let seed = dram_core::math::mix3(chip_seed, (ni * 64 + oi) as u64, 0x51EE9);
            let sets = logic_inputs(*n, cfg.scale.input_draws, seed, cols);
            logic_sets.push((*op, *n, sets));
        }
    }
    let mut draws: Vec<f64> = Vec::new();
    for temp in &cfg.scale.temps {
        let sim_cfg = ctx.fc.sim_config().with_temperature(*temp);
        ctx.fc.configure(sim_cfg);
        // NOT conditions: pattern × destination-row count.
        for src in &not_srcs {
            for entries in &not_entries {
                out.conditions += 1;
                let mut measured = false;
                for entry in entries {
                    if let Ok(outcome) = not_gate(ctx, entry, src.clone()) {
                        draws.clear();
                        success_of(&outcome, CellRole::NotDst, &mut draws);
                        out.not.extend_from(draws.iter().copied());
                        measured = true;
                    }
                }
                if !measured {
                    out.failures += 1;
                }
            }
        }
        // Logic conditions: op × input count, random input draws.
        for (op, n, sets) in &logic_sets {
            draws.clear();
            let measured = logic_draws(ctx, *op, *n, sets, |_, outcome| {
                success_of(outcome, result_role(*op), &mut draws);
                Ok(())
            });
            match measured {
                Ok(()) if !draws.is_empty() => {
                    out.conditions += 1;
                    let shape = shape_mut(&mut out.logic_shapes, *op, *n);
                    SuccessAccumulator::extend_pair(&mut out.logic, shape, &draws);
                }
                // No N:N pattern discovered at this budget — a
                // capability gap, not a measurement failure.
                Err(fcdram::FcdramError::NoPattern { .. }) => {}
                _ => {
                    out.conditions += 1;
                    out.failures += 1;
                }
            }
        }
    }
    let sim_cfg = ctx.fc.sim_config().with_temperature(Temperature::BASELINE);
    ctx.fc.configure(sim_cfg);
}

/// Appends the success probabilities of `outcome`'s cells in `role` to
/// `out`, in outcome order: a row wholly in `role` as its `p` slice,
/// a multi-row NOT's destination row by column parity.
fn success_of(outcome: &OpOutcome, role: CellRole, out: &mut Vec<f64>) {
    for r in &outcome.rows {
        let ps = outcome.p_of(r);
        if r.roles == [role; 2] {
            out.extend_from_slice(ps);
        } else {
            let cells = r.cols().zip(ps).filter(|(c, _)| r.roles[c % 2] == role);
            out.extend(cells.map(|(_, p)| *p));
        }
    }
}

/// Builds and sweeps one fleet member. Pure function of `(spec, cfg)`
/// — independent of shard assignment.
fn run_chip(spec: &ChipSpec, cfg: &SweepConfig) -> ChipResult {
    let mut out = ChipResult::empty_for(spec);
    match ModuleCtx::build_chip(&spec.cfg, spec.chip, &cfg.scale) {
        Ok(mut ctx) => chip_sweep(&mut ctx, cfg, &mut out),
        Err(_) => {
            out.conditions = 1;
            out.failures = 1;
        }
    }
    out
}

/// The merged outcome of a fleet sweep.
///
/// Stays `pub` although no other crate names it: [`run_fleet_sweep`]
/// returns it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Worker threads actually used.
    pub shards: usize,
    /// Per-chip results, in fleet order (independent of sharding).
    pub chips: Vec<ChipResult>,
}

impl FleetReport {
    /// Population accumulators (NOT, logic), merged in fleet order so
    /// the means are bit-stable across shard counts.
    pub(crate) fn population(&self) -> (SuccessAccumulator, SuccessAccumulator) {
        let mut not = SuccessAccumulator::new();
        let mut logic = SuccessAccumulator::new();
        for c in &self.chips {
            not.merge(&c.not);
            logic.merge(&c.logic);
        }
        (not, logic)
    }

    /// Population per-(op, N) accumulators, merged across chips in
    /// fleet order and sorted by (input count, op order in
    /// [`LogicOp::ALL`]) for stable reporting.
    pub(crate) fn logic_shapes(&self) -> Vec<LogicShapeResult> {
        let mut merged: Vec<LogicShapeResult> = Vec::new();
        for c in &self.chips {
            for s in &c.logic_shapes {
                match merged
                    .iter_mut()
                    .find(|m| m.op == s.op && m.inputs == s.inputs)
                {
                    Some(m) => m.acc.merge(&s.acc),
                    None => merged.push(s.clone()),
                }
            }
        }
        let op_rank = |op: LogicOp| LogicOp::ALL.iter().position(|o| *o == op).unwrap_or(4);
        merged.sort_by_key(|s| (s.inputs, op_rank(s.op)));
        merged
    }

    /// Builds the synthesis cost-model document ([`fcsynth`]'s
    /// `CostModelData` schema, the exact JSON `fcsynth::CostModel`
    /// loads) from this report's measured success rates, priced with
    /// [`simdram::cost`]'s steady-state DDR4 accounting at `lanes`
    /// SIMD lanes.
    pub fn cost_export(&self, lanes: usize) -> fcsynth::CostModelData {
        use simdram::trace::{NativeOp, TraceEntry};
        let pricer = simdram::CostModel::new(dram_core::timing::SpeedBin::Mt2666, lanes);
        let priced = |op: NativeOp| {
            pricer.entry_cost(&TraceEntry {
                op,
                executions: 1,
                predicted_success: 1.0,
            })
        };
        let mut entries = Vec::new();
        let (not, _) = self.population();
        if !not.is_empty() {
            let c = priced(NativeOp::Not);
            entries.push(fcsynth::GateCost {
                op: "not".into(),
                inputs: 1,
                success: not.mean(),
                latency_ns: c.latency_ns,
                energy_pj: c.energy_pj,
                cells: not.count(),
            });
        }
        for s in self.logic_shapes() {
            if s.acc.is_empty() {
                continue;
            }
            let c = priced(NativeOp::Logic(s.op, s.inputs as u8));
            entries.push(fcsynth::GateCost {
                op: s.op.name().into(),
                inputs: s.inputs,
                success: s.acc.mean(),
                latency_ns: c.latency_ns,
                energy_pj: c.energy_pj,
                cells: s.acc.count(),
            });
        }
        fcsynth::CostModelData {
            source: format!(
                "characterize fleet sweep: {} chip(s), {} shard(s)",
                self.chips.len(),
                self.shards
            ),
            lanes,
            entries,
        }
    }

    /// Manufacturer display names present, in fleet order.
    pub(crate) fn manufacturers(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for c in &self.chips {
            if !out.contains(&c.manufacturer) {
                out.push(c.manufacturer.clone());
            }
        }
        out
    }

    /// Merged accumulators `(not, logic, chips)` for one manufacturer.
    pub(crate) fn per_manufacturer(
        &self,
        mfr: &str,
    ) -> (SuccessAccumulator, SuccessAccumulator, usize) {
        let mut not = SuccessAccumulator::new();
        let mut logic = SuccessAccumulator::new();
        let mut chips = 0usize;
        for c in self.chips.iter().filter(|c| c.manufacturer == mfr) {
            not.merge(&c.not);
            logic.merge(&c.logic);
            chips += 1;
        }
        (not, logic, chips)
    }

    /// Renders the population distribution tables (`fleet-not`,
    /// `fleet-logic`) and the per-chip attribution table
    /// (`fleet-chips`), in the same [`Table`] JSON shape every other
    /// experiment report uses.
    pub fn tables(&self) -> Vec<Table> {
        let dist_headers: Vec<String> = [
            "chips", "cells", "mean %", "p1 %", "p25 %", "p50 %", "p75 %", "p99 %", "min %",
            "max %",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let dist_row = |label: &str, chips: usize, acc: &SuccessAccumulator| -> Row {
            Row::new(
                label,
                vec![
                    chips as f64,
                    acc.count() as f64,
                    acc.mean() * 100.0,
                    acc.quantile(0.01) * 100.0,
                    acc.quantile(0.25) * 100.0,
                    acc.quantile(0.50) * 100.0,
                    acc.quantile(0.75) * 100.0,
                    acc.quantile(0.99) * 100.0,
                    acc.min() * 100.0,
                    acc.max() * 100.0,
                ],
            )
        };

        let (pop_not, pop_logic) = self.population();
        let mut not_t = Table::new(
            "fleet-not",
            "Fleet population: NOT destination-cell success distribution",
            "population",
            dist_headers.clone(),
        );
        let mut logic_t = Table::new(
            "fleet-logic",
            "Fleet population: logic result-cell success distribution",
            "population",
            dist_headers,
        );
        not_t.push_row(dist_row("all", self.chips.len(), &pop_not));
        logic_t.push_row(dist_row("all", self.chips.len(), &pop_logic));
        for mfr in self.manufacturers() {
            let (not, logic, chips) = self.per_manufacturer(&mfr);
            not_t.push_row(dist_row(&mfr, chips, &not));
            logic_t.push_row(dist_row(&mfr, chips, &logic));
        }
        let note = format!(
            "{} chips swept over {} shard(s); per-chip results are shard-count invariant",
            self.chips.len(),
            self.shards
        );
        not_t.note(note.clone());
        logic_t.note(note);

        let mut chips_t = Table::new(
            "fleet-chips",
            "Per-chip sweep results (attributable population members)",
            "chip",
            vec![
                "NOT mean %".into(),
                "logic mean %".into(),
                "cells".into(),
                "conditions".into(),
                "failures".into(),
            ],
        );
        for c in &self.chips {
            let origin = crate::report::RowOrigin {
                module: c.module.clone(),
                chip: c.chip,
                manufacturer: c.manufacturer.clone(),
            };
            chips_t.push_row(
                Row::opt(
                    c.label.clone(),
                    vec![
                        if c.not.is_empty() {
                            None
                        } else {
                            Some(c.not.mean() * 100.0)
                        },
                        if c.logic.is_empty() {
                            None
                        } else {
                            Some(c.logic.mean() * 100.0)
                        },
                        Some((c.not.count() + c.logic.count()) as f64),
                        Some(c.conditions as f64),
                        Some(c.failures as f64),
                    ],
                )
                .with_origin(origin),
            );
        }
        vec![not_t, logic_t, chips_t]
    }
}

/// Sweeps every chip of `fleet` through the grid of `cfg`, sharding
/// the fleet over scoped worker threads.
///
/// Shard `s` of `K` processes the contiguous member range
/// `[s·⌈N/K⌉, (s+1)·⌈N/K⌉)`; each worker builds its chips, runs
/// [`chip_sweep`], and the results are reassembled in fleet order, so
/// the returned report is identical for every shard count.
pub fn run_fleet_sweep(fleet: &FleetConfig, cfg: &SweepConfig) -> FleetReport {
    let specs = fleet.specs();
    let chips = dram_core::shard::sharded_map(specs.len(), cfg.shards, |range| {
        specs[range]
            .iter()
            .map(|spec| run_chip(spec, cfg))
            .collect()
    });
    FleetReport {
        shards: cfg.effective_workers(specs.len()),
        chips,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SweepConfig {
        SweepConfig::bench().with_shards(1)
    }

    #[test]
    fn sweep_measures_every_chip() {
        let fleet = FleetConfig::table1(3);
        let report = run_fleet_sweep(&fleet, &tiny_cfg());
        assert_eq!(report.chips.len(), 3);
        for c in &report.chips {
            assert!(c.conditions > 0, "{}: no conditions", c.label);
            assert!(!c.not.is_empty(), "{}: no NOT cells", c.label);
            assert!(c.not.mean() > 0.5, "{}: NOT mean {}", c.label, c.not.mean());
        }
        assert_eq!(report.shards, 1);
    }

    #[test]
    fn sharded_report_is_bit_identical_to_serial() {
        let fleet = FleetConfig::table1(4);
        let serial = run_fleet_sweep(&fleet, &tiny_cfg());
        let sharded = run_fleet_sweep(&fleet, &SweepConfig::bench().with_shards(4));
        assert_eq!(
            serial.chips, sharded.chips,
            "sharding must not change results"
        );
        let (a, _) = serial.population();
        let (b, _) = sharded.population();
        assert_eq!(a, b, "population merge must be shard-invariant");
    }

    #[test]
    fn samsung_contributes_not_but_skips_many_input_logic() {
        let cfg = dram_core::config::table1()
            .into_iter()
            .find(|m| m.manufacturer == dram_core::Manufacturer::Samsung)
            .unwrap();
        let fleet = FleetConfig::single(cfg, 1);
        let report = run_fleet_sweep(&fleet, &tiny_cfg());
        let c = &report.chips[0];
        assert!(!c.not.is_empty(), "sequential NOT still measures");
        assert!(c.logic.is_empty(), "no simultaneous logic on Samsung");
    }

    #[test]
    fn tables_carry_population_and_attribution() {
        let fleet = FleetConfig::table1(2);
        let report = run_fleet_sweep(&fleet, &tiny_cfg());
        let tables = report.tables();
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].id, "fleet-not");
        assert_eq!(tables[0].rows[0].label, "all");
        // Population mean is a percentage in (0, 100].
        let mean = tables[0].rows[0].values[2].unwrap();
        assert!(mean > 50.0 && mean <= 100.0, "mean {mean}");
        // Quantiles are monotone: p1 ≤ p50 ≤ p99.
        let (p1, p50, p99) = (
            tables[0].rows[0].values[3].unwrap(),
            tables[0].rows[0].values[5].unwrap(),
            tables[0].rows[0].values[7].unwrap(),
        );
        assert!(p1 <= p50 && p50 <= p99, "{p1} {p50} {p99}");
        let chips_table = &tables[2];
        assert_eq!(chips_table.rows.len(), 2);
        for row in &chips_table.rows {
            let origin = row.origin.as_ref().expect("per-chip rows are attributed");
            assert!(!origin.module.is_empty());
        }
    }

    #[test]
    fn report_records_workers_actually_spawned() {
        // 5 chips over 4 requested shards → chunks of 2 → 3 workers.
        let fleet = FleetConfig::table1(5);
        let cfg = SweepConfig::bench().with_shards(4);
        assert_eq!(cfg.effective_workers(5), 3, "5 chips / 4 shards → 3 chunks");
        let report = run_fleet_sweep(&fleet, &cfg);
        assert_eq!(report.shards, 3, "report records workers actually spawned");
        assert_eq!(report.chips.len(), 5);
    }

    #[test]
    fn logic_shapes_partition_the_logic_population() {
        let fleet = FleetConfig::table1(2);
        let cfg = SweepConfig::quick().with_shards(1);
        let report = run_fleet_sweep(&fleet, &cfg);
        for c in &report.chips {
            let by_shape: u64 = c.logic_shapes.iter().map(|s| s.acc.count()).sum();
            assert_eq!(by_shape, c.logic.count(), "{}: shapes partition", c.label);
        }
        let shapes = report.logic_shapes();
        assert!(!shapes.is_empty());
        // Sorted by (inputs, op order) and covering the quick grid.
        for w in shapes.windows(2) {
            assert!(w[0].inputs <= w[1].inputs);
        }
        let total: u64 = shapes.iter().map(|s| s.acc.count()).sum();
        let (_, logic) = report.population();
        assert_eq!(total, logic.count());
    }

    #[test]
    fn cost_export_loads_as_a_synth_cost_model() {
        let fleet = FleetConfig::table1(2);
        let report = run_fleet_sweep(&fleet, &SweepConfig::quick().with_shards(1));
        let data = report.cost_export(65_536);
        assert!(data.entries.iter().any(|e| e.op == "not"));
        assert!(data.entries.iter().all(|e| e.cells > 0));
        let json = serde_json::to_string_pretty(&data).unwrap();
        let model = fcsynth::CostModel::from_json(&json).expect("schema matches");
        // The measured model drives the mapper end to end.
        let cost = model;
        let compiled = fcsynth::compile("(a & b) | (c & d)", &cost, 16).unwrap();
        assert!(compiled.mapping.expected_success > 0.0);
        assert!(compiled.mapping.latency_ns > 0.0);
    }

    #[test]
    fn effective_shards_clamps() {
        let cfg = SweepConfig::bench();
        assert_eq!(cfg.clone().with_shards(8).effective_workers(3), 3);
        assert_eq!(cfg.clone().with_shards(2).effective_workers(64), 2);
        assert!(cfg.clone().with_shards(0).effective_workers(64) >= 1);
        assert_eq!(cfg.with_shards(5).effective_workers(0), 1);
    }
}
