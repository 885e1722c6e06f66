//! The `characterize serve` pipeline: batch building and report
//! tables for the [`fcsched`] job scheduler.
//!
//! This module is the testable core of the CLI subcommand: it turns a
//! workload description (expression list + job count + lane count +
//! seed) into an [`fcsched::Batch`] with deterministic operands, and a
//! finished [`BatchReport`] into the same [`Table`] shape every other
//! experiment report uses — so `--json` output plugs into the existing
//! provenance tooling and is byte-identical for every shard count.

use crate::report::{Row, RowOrigin, Table};
use dram_core::FleetConfig;
use fcdram::PackedBits;
use fcsched::{Batch, BatchReport};
use fcsynth::CostModel;

/// The built-in heterogeneous workload mix: a multi-tenant spread of
/// small and wide, monotone and inverted, XOR-heavy and AND-heavy
/// tenants.
pub const DEMO_MIX: [&str; 6] = [
    "(a & b) | (a & c) | (b & c)",
    "b0 ^ b1 ^ b2 ^ b3",
    "a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p",
    "!(x | y | z)",
    "(a & b & c & d) ^ (e | f | g | h)",
    "!(p & q) | (r ^ s)",
];

/// Parses an expression-list file: one expression per line, blank
/// lines and `#` comments skipped.
pub fn load_exprs(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Builds a `jobs`-job batch by cycling through `exprs` (each distinct
/// expression compiled once), with operand bits drawn deterministically
/// from `(seed, job, input, lane)`.
///
/// # Errors
///
/// Returns the first compile error as a string.
pub fn build_batch(
    exprs: &[String],
    jobs: usize,
    lanes: usize,
    seed: u64,
    cost: &CostModel,
    fan_in: usize,
) -> Result<Batch, String> {
    if exprs.is_empty() {
        return Err("no expressions to serve".to_string());
    }
    let mut compiled = Vec::with_capacity(exprs.len());
    for text in exprs {
        compiled.push(fcsynth::compile(text, cost, fan_in).map_err(|e| format!("{text}: {e}"))?);
    }
    let mut batch = Batch::new(seed);
    for j in 0..jobs {
        let c = &compiled[j % compiled.len()];
        let n = c.circuit.inputs().len();
        let operands: Vec<PackedBits> = (0..n)
            .map(|k| {
                let mut p = PackedBits::zeros(lanes);
                for l in 0..lanes {
                    let h = dram_core::math::mix4(seed, j as u64, k as u64, l as u64);
                    p.set(l, h & 1 == 1);
                }
                p
            })
            .collect();
        batch
            .push(&exprs[j % exprs.len()], &c.mapping, operands, lanes)
            .map_err(|e| e.to_string())?;
    }
    Ok(batch)
}

/// Renders the scheduler report as the standard three serve tables
/// (`serve-summary`, `serve-latency`, `serve-chips`). Only
/// deterministic quantities appear — wall-clock throughput is the
/// CLI's stderr business.
///
/// `ideal` is the perfectly-reliable serial baseline for the batch
/// ([`fcsched::ideal_cost`]: submitted programs, population-mean
/// model, no retries) — the summary reports it next to the modeled
/// totals so the reliability overhead the scheduler absorbed
/// (re-mapping plus retries) is a single visible number.
pub fn tables(
    report: &BatchReport,
    fleet: &FleetConfig,
    ideal: &fcsynth::ProgramCost,
) -> Vec<Table> {
    let mut summary = Table::new(
        "serve-summary",
        "Batch outcome: jobs, admission, retries, modeled totals",
        "metric",
        vec!["value".into()],
    );
    let overhead_pct = if ideal.latency_ns > 0.0 {
        (report.total_latency_ns() - ideal.latency_ns) / ideal.latency_ns * 100.0
    } else {
        0.0
    };
    let rows: Vec<(&str, f64)> = vec![
        ("jobs", report.jobs() as f64),
        ("succeeded", report.succeeded() as f64),
        ("remapped", report.remapped() as f64),
        ("flagged", report.flagged() as f64),
        ("native ops", report.native_ops() as f64),
        ("retries", report.total_retries() as f64),
        ("retried jobs", report.retried_jobs() as f64),
        ("failed jobs", report.failed_jobs() as f64),
        ("failed ops", report.total_failed_ops() as f64),
        ("replaced jobs", report.total_replacements() as f64),
        ("chips", report.chips as f64),
        ("waves", report.waves as f64),
        ("modeled latency (us)", report.total_latency_ns() / 1e3),
        ("ideal latency (us)", ideal.latency_ns / 1e3),
        ("reliability overhead %", overhead_pct),
        ("modeled energy (nJ)", report.total_energy_pj() / 1e3),
    ];
    for (label, v) in rows {
        summary.push_row(Row::new(label, vec![v]));
    }
    summary.note(format!(
        "batch seed {}; report is bit-identical for every shard count",
        report.seed
    ));

    let mut latency = Table::new(
        "serve-latency",
        "Per-job modeled latency and predicted success distributions",
        "distribution",
        vec![
            "mean".into(),
            "p50".into(),
            "p90".into(),
            "p99".into(),
            "min".into(),
            "max".into(),
        ],
    );
    let l = report.latency();
    latency.push_row(Row::new(
        "latency (us)",
        vec![
            l.mean_ns / 1e3,
            l.p50_ns / 1e3,
            l.p90_ns / 1e3,
            l.p99_ns / 1e3,
            l.min_ns / 1e3,
            l.max_ns / 1e3,
        ],
    ));
    let s = report.predicted_success();
    latency.push_row(Row::new(
        "predicted success %",
        vec![
            s.mean() * 100.0,
            s.quantile(0.50) * 100.0,
            s.quantile(0.90) * 100.0,
            s.quantile(0.99) * 100.0,
            s.min() * 100.0,
            s.max() * 100.0,
        ],
    ));
    let r = report.retry_rate();
    latency.push_row(Row::new(
        "retry rate %",
        vec![
            r.mean() * 100.0,
            r.quantile(0.50) * 100.0,
            r.quantile(0.90) * 100.0,
            r.quantile(0.99) * 100.0,
            r.min() * 100.0,
            r.max() * 100.0,
        ],
    ));

    let mut chips = Table::new(
        "serve-chips",
        "Per-chip utilization (jobs, ops, retries, flagged, modeled latency)",
        "chip",
        vec![
            "jobs".into(),
            "ops".into(),
            "retries".into(),
            "flagged".into(),
            "latency (us)".into(),
        ],
    );
    for u in report.member_usage() {
        let spec = fleet.spec(u.member);
        chips.push_row(
            Row::new(
                u.chip.clone(),
                vec![
                    u.jobs as f64,
                    u.ops as f64,
                    u.retries as f64,
                    u.flagged as f64,
                    u.latency_ns / 1e3,
                ],
            )
            .with_origin(RowOrigin {
                module: spec.cfg.name.clone(),
                chip: spec.chip.index(),
                manufacturer: spec.cfg.manufacturer.to_string(),
            }),
        );
    }
    let mut out = vec![summary, latency, chips];

    // Degradation scenarios append the fleet-health ledger: the
    // planner computes it from (fleet, batch, policy) alone, so these
    // tables are byte-identical across shard counts *and* backends.
    if let Some(h) = &report.health {
        let mut health = Table::new(
            "serve-health",
            "Per-chip fault ledger: hazard, disturbance, mitigation, dropout",
            "chip",
            vec![
                "hazard (/1e6 h)".into(),
                "fail at (us)".into(),
                "disturb acts".into(),
                "mitigations".into(),
                "mitigation (us)".into(),
                "diverted".into(),
                "dropped at (us)".into(),
            ],
        );
        for m in &h.members {
            let spec = fleet.spec(m.member);
            health.push_row(
                Row::opt(
                    m.chip.clone(),
                    vec![
                        Some(m.hazard_per_mhours),
                        m.fail_at_ns.map(|v| v / 1e3),
                        Some(m.disturbance_acts as f64),
                        Some(m.mitigations as f64),
                        Some(m.mitigation_ns / 1e3),
                        Some(m.diverted as f64),
                        m.dropped_at_ns.map(|v| v / 1e3),
                    ],
                )
                .with_origin(RowOrigin {
                    module: spec.cfg.name.clone(),
                    chip: spec.chip.index(),
                    manufacturer: spec.cfg.manufacturer.to_string(),
                }),
            );
        }
        health.note(format!(
            "fault seed {}; {} mitigation(s) stole {:.2} us of serving bandwidth",
            h.plan_seed,
            h.total_mitigations(),
            h.total_mitigation_ns() / 1e3,
        ));

        let mut dropouts = Table::new(
            "serve-dropouts",
            "Dropout timeline: when each chip died and what was re-placed",
            "chip",
            vec!["at (us)".into(), "during job".into(), "re-placed".into()],
        );
        for d in &h.dropouts {
            let spec = fleet.spec(d.member);
            dropouts.push_row(
                Row::new(
                    d.chip.clone(),
                    vec![d.at_ns / 1e3, d.job as f64, d.replaced as f64],
                )
                .with_origin(RowOrigin {
                    module: spec.cfg.name.clone(),
                    chip: spec.chip.index(),
                    manufacturer: spec.cfg.manufacturer.to_string(),
                }),
            );
        }
        dropouts.note(format!(
            "{} job(s) re-placed; every re-placed job still returns host-exact bits",
            h.replaced_jobs
        ));
        out.push(health);
        out.push(dropouts);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcsched::SchedPolicy;

    fn demo() -> Vec<String> {
        DEMO_MIX.iter().map(|s| s.to_string()).collect()
    }

    /// The one narrowing ladder (`SynthProgram::narrowed_variants`)
    /// yields the widths and programs of the build-then-compare loop
    /// admission used to run, for every demo expression, and the
    /// planner's narrowed assignments run exactly those variants.
    #[test]
    fn narrowing_ladder_matches_build_then_compare() {
        let cost = CostModel::table1_defaults();
        let mut texts = demo();
        texts.extend(
            crate::daemon::demo_tenants()
                .into_iter()
                .flat_map(|t| t.exprs),
        );
        for fan_in in [16, 8] {
            for text in &texts {
                let program = fcsynth::compile(text, &cost, fan_in)
                    .unwrap()
                    .mapping
                    .program;
                let built_then_compared: Vec<_> = [8usize, 4, 2]
                    .into_iter()
                    .map(|width| (width, program.narrowed(width)))
                    .filter(|(_, variant)| *variant != *program)
                    .collect();
                let ladder: Vec<_> = program.narrowed_variants().collect();
                assert_eq!(ladder, built_then_compared, "{text} at fan-in {fan_in}");
            }
        }
        let batch = build_batch(&demo(), 12, 16, 3, &cost, 16).unwrap();
        let strict = SchedPolicy {
            min_success: 1.01,
            ..SchedPolicy::default()
        };
        let plan = fcsched::Planner::new(&FleetConfig::table1(12), &cost, &strict)
            .plan(&batch)
            .unwrap();
        let mut narrowed = 0;
        for (job, asg) in batch.jobs().iter().zip(&plan.assignments) {
            if asg.program != job.program {
                narrowed += 1;
                assert!(
                    job.program
                        .narrowed_variants()
                        .any(|(_, variant)| variant == *asg.program),
                    "{}: the planner ran a program off the ladder",
                    job.label
                );
            }
        }
        assert!(narrowed > 0, "some job runs a narrowed variant");
    }

    #[test]
    fn expr_file_parsing_skips_noise() {
        let text = "# tenants\n\n a & b \n!(c | d)\n# done\n";
        assert_eq!(load_exprs(text), vec!["a & b", "!(c | d)"]);
    }

    #[test]
    fn batch_builder_cycles_the_mix() {
        let cost = CostModel::table1_defaults();
        let batch = build_batch(&demo(), 13, 32, 9, &cost, 16).unwrap();
        assert_eq!(batch.len(), 13);
        assert_eq!(batch.jobs()[0].label, DEMO_MIX[0]);
        assert_eq!(batch.jobs()[6].label, DEMO_MIX[0], "round-robin");
        assert!(batch.native_ops() > 13);
        assert!(build_batch(&demo(), 4, 8, 0, &cost, 16).is_ok());
        assert!(build_batch(&["a &".to_string()], 1, 8, 0, &cost, 16).is_err());
        assert!(build_batch(&[], 1, 8, 0, &cost, 16).is_err());
    }

    #[test]
    fn serve_tables_are_deterministic_across_shards() {
        let cost = CostModel::table1_defaults();
        let fleet = FleetConfig::table1(3);
        let batch = build_batch(&demo(), 12, 16, 3, &cost, 16).unwrap();
        let run = |shards: usize| {
            let report = fcsched::serve_batch(
                &fleet,
                &cost,
                &SchedPolicy::default().with_shards(shards),
                &batch,
            )
            .unwrap();
            crate::report::to_json(&tables(
                &report,
                &fleet,
                &fcsched::ideal_cost(&batch, &cost),
            ))
        };
        let serial = run(1);
        assert_eq!(serial, run(4), "tables shard-invariant byte for byte");
        assert!(serial.contains("serve-summary"));
        assert!(serial.contains("serve-chips"));
    }

    #[test]
    fn fault_scenarios_append_health_tables() {
        let cost = CostModel::table1_defaults();
        let fleet = FleetConfig::table1(3);
        let batch = build_batch(&demo(), 24, 16, 3, &cost, 16).unwrap();
        let faults = fcsched::FaultPlan {
            aging: fcsched::AgingPolicy {
                acceleration: 0.0,
                ..fcsched::AgingPolicy::default()
            },
            dropouts: vec![fcsched::PlannedDropout {
                member: 1,
                after_ns: 500.0,
            }],
            ..fcsched::FaultPlan::demo()
        };
        let run = |shards: usize, backend: fcsched::BackendKind| {
            let report = fcsched::serve_batch(
                &fleet,
                &cost,
                &SchedPolicy {
                    faults: Some(faults.clone()),
                    shards,
                    backend,
                    ..SchedPolicy::default()
                },
                &batch,
            )
            .unwrap();
            let ts = tables(&report, &fleet, &fcsched::ideal_cost(&batch, &cost));
            assert_eq!(ts.len(), 5, "health + dropout tables appended");
            assert_eq!(ts[3].id, "serve-health");
            assert_eq!(ts[4].id, "serve-dropouts");
            assert_eq!(ts[4].rows.len(), 1, "one scripted dropout");
            // The health tables alone, as JSON: must be identical
            // across shard counts AND backends.
            crate::report::to_json(&ts[3..])
        };
        let base = run(1, fcsched::BackendKind::Vm);
        assert_eq!(base, run(5, fcsched::BackendKind::Vm));
        assert_eq!(base, run(1, fcsched::BackendKind::Bender));
        assert_eq!(base, run(5, fcsched::BackendKind::Bender));
    }

    #[test]
    fn chip_rows_carry_origins() {
        let cost = CostModel::table1_defaults();
        let fleet = FleetConfig::table1(2);
        let batch = build_batch(&demo(), 6, 8, 1, &cost, 16).unwrap();
        let report = fcsched::serve_batch(
            &fleet,
            &cost,
            &SchedPolicy::default().with_shards(1),
            &batch,
        )
        .unwrap();
        let ideal = fcsched::ideal_cost(&batch, &cost);
        assert!(ideal.latency_ns > 0.0);
        assert!(
            report.total_latency_ns() >= ideal.latency_ns - 1e-9,
            "the modeled batch can never beat the no-retry ideal"
        );
        let ts = tables(&report, &fleet, &ideal);
        assert_eq!(ts.len(), 3);
        let chips = &ts[2];
        assert!(!chips.rows.is_empty());
        for row in &chips.rows {
            let origin = row.origin.as_ref().expect("attributed");
            assert!(!origin.module.is_empty());
        }
        // Summary totals agree with the report.
        let jobs_row = &ts[0].rows[0];
        assert_eq!(jobs_row.values[0], Some(6.0));
    }
}
