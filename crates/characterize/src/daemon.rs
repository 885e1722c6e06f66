//! The `characterize daemon` pipeline: demo tenant contracts and
//! report tables for the [`fcserve`] serving daemon.
//!
//! Like [`crate::serve`], this module is the testable core of the CLI
//! subcommand: it supplies the built-in multi-tenant demo workload and
//! turns a finished [`DaemonReport`] into the same [`Table`] shape
//! every other experiment report uses. Only deterministic quantities
//! appear — the daemon's throughput figure is *modeled* jobs per
//! modeled second ([`fcserve::report::DaemonTotals::modeled_jobs_per_s`]),
//! never the machine-dependent wall-clock rate the CLI prints to
//! stderr — so `--json` output is byte-identical for every shard
//! count and both execution backends, and a recorded session replays
//! to the same bytes.

use crate::report::{Row, Table};
use fcserve::{DaemonReport, TenantSpec, TierClass};

/// The built-in demo fleet of tenants, tuned so the default
/// `characterize daemon` run (12 ticks, 12 Table-1 chips, micro-batch
/// budget 12) exercises every admission path deterministically:
///
/// * `interactive` (gold) is latency-critical and never shed;
/// * `analytics` (silver) bursts but stays inside its queue bound;
/// * `legacy` (silver) submits a 4-XOR whose best native-width
///   variant prices below its 0.95 reliability floor — every job is
///   rejected at admission (the contract is unservable);
/// * `bulk` (bronze) floods a wide 16-AND hard enough that burst
///   ticks overflow its queue bound (deterministic shedding) and its
///   tail-of-batch jobs land on the strained chips of the 12-chip
///   fleet, where the planner runs reliability-narrowed variants.
pub fn demo_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "interactive".into(),
            tier: TierClass::Gold,
            exprs: vec!["a & b".into(), "!(x | y)".into(), "a ^ b".into()],
            rate: 2.0,
            burst: 0,
            slo_us: 150.0,
            queue_cap: 8,
            sheddable: false,
            min_success: 0.85,
        },
        TenantSpec {
            name: "analytics".into(),
            tier: TierClass::Silver,
            exprs: vec![
                "(a & b) | (a & c) | (b & c)".into(),
                "(a & b & c & d) ^ (e | f | g | h)".into(),
                "!(p & q) | (r ^ s)".into(),
            ],
            rate: 2.0,
            burst: 2,
            slo_us: 400.0,
            queue_cap: 8,
            sheddable: false,
            min_success: 0.85,
        },
        TenantSpec {
            name: "legacy".into(),
            tier: TierClass::Silver,
            exprs: vec!["b0 ^ b1 ^ b2 ^ b3".into()],
            rate: 2.0,
            burst: 0,
            slo_us: 400.0,
            queue_cap: 8,
            sheddable: false,
            min_success: 0.95,
        },
        TenantSpec {
            name: "bulk".into(),
            tier: TierClass::Bronze,
            exprs: vec!["a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p".into()],
            rate: 7.0,
            burst: 6,
            slo_us: 2000.0,
            queue_cap: 8,
            sheddable: true,
            min_success: 0.90,
        },
    ]
}

/// Renders the daemon report as the standard three daemon tables
/// (`daemon-summary`, `daemon-tenants`, `daemon-slo`).
pub fn tables(report: &DaemonReport) -> Vec<Table> {
    let t = &report.totals;
    let mut summary = Table::new(
        "daemon-summary",
        "Session outcome: admission, backpressure, drain, modeled totals",
        "metric",
        vec!["value".into()],
    );
    let rows: Vec<(&str, f64)> = vec![
        ("ingestion ticks", report.ticks as f64),
        ("drain ticks", report.drain_ticks as f64),
        ("tick period (us)", report.tick_ns / 1e3),
        ("chips", report.chips as f64),
        ("submitted", t.submitted as f64),
        ("admitted", t.admitted as f64),
        ("shed", t.shed as f64),
        ("rejected", t.rejected as f64),
        ("narrowed", t.narrowed as f64),
        ("completed", t.completed as f64),
        ("failed jobs", t.failed as f64),
        ("retries", t.retries as f64),
        ("micro-batches", t.batches as f64),
        ("native ops", t.native_ops as f64),
        ("undrained", t.undrained as f64),
        ("modeled energy (nJ)", t.energy_pj / 1e3),
        ("modeled throughput (jobs/s)", t.modeled_jobs_per_s),
    ];
    for (label, v) in rows {
        summary.push_row(Row::new(label, vec![v]));
    }
    summary.note(format!(
        "session seed {}; result digest {:#018x}; report is byte-identical \
         for every shard count and both backends",
        report.seed, t.result_digest
    ));

    let mut tenants = Table::new(
        "daemon-tenants",
        "Per-tenant admission, backpressure, and SLO outcome",
        "tenant",
        vec![
            "tier".into(),
            "submitted".into(),
            "admitted".into(),
            "shed".into(),
            "rejected".into(),
            "narrowed".into(),
            "completed".into(),
            "peak queue".into(),
            "p50 (us)".into(),
            "p99 (us)".into(),
            "slo (us)".into(),
            "slo met".into(),
        ],
    );
    for tr in &report.tenants {
        tenants.push_row(Row::new(
            format!("{} ({})", tr.name, tr.tier),
            vec![
                tr.tier.rank() as f64,
                tr.submitted as f64,
                tr.admitted as f64,
                tr.shed as f64,
                tr.rejected as f64,
                tr.narrowed as f64,
                tr.completed as f64,
                tr.peak_queue as f64,
                tr.latency.p50_ns / 1e3,
                tr.latency.p99_ns / 1e3,
                tr.slo_us,
                f64::from(u8::from(tr.slo_met)),
            ],
        ));
    }
    tenants.note(
        "latency percentiles are modeled: tick-clock queue wait plus cost-model \
         predicted service time scaled by the deterministic retry count"
            .to_string(),
    );

    let mut slo = Table::new(
        "daemon-slo",
        "Periodic health snapshots (last row is the post-drain state)",
        "tick",
        vec![
            "elapsed (us)".into(),
            "completed".into(),
            "admitted".into(),
            "shed".into(),
            "queued".into(),
            "jobs/s (modeled)".into(),
            "tenants in SLO".into(),
            "mitigations".into(),
            "dropouts".into(),
        ],
    );
    for s in &report.snapshots {
        let ok = s.tenants.iter().filter(|h| h.ok).count();
        slo.push_row(Row::new(
            format!("t{}", s.tick),
            vec![
                s.elapsed_us,
                s.completed as f64,
                s.admitted as f64,
                s.shed as f64,
                s.queued as f64,
                s.modeled_jobs_per_s,
                ok as f64,
                s.mitigations as f64,
                s.dropouts as f64,
            ],
        ));
    }
    vec![summary, tenants, slo]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::FleetConfig;
    use fcserve::{daemon, DaemonConfig};
    use fcsynth::CostModel;

    fn demo_run() -> (fcserve::SessionLog, DaemonReport) {
        let cost = CostModel::table1_defaults();
        let fleet = FleetConfig::table1(12);
        let cfg = DaemonConfig {
            seed: 1,
            lanes: 64,
            ..DaemonConfig::default()
        };
        daemon::run_live(&fleet, &cost, &cfg, &demo_tenants()).unwrap()
    }

    #[test]
    fn demo_session_exercises_every_admission_path() {
        let (_, report) = demo_run();
        let t = &report.totals;
        assert!(t.admitted > 0, "{t:?}");
        assert!(t.shed > 0, "bronze overflow sheds: {t:?}");
        assert!(t.rejected > 0, "the legacy contract rejects: {t:?}");
        assert!(t.narrowed > 0, "strained chips narrow the 16-AND: {t:?}");
        assert_eq!(t.undrained, 0, "demo load drains clean: {t:?}");
        let by_tier = report.tier_counts();
        assert_eq!(by_tier[0].2, 0, "gold is never shed");
        assert!(by_tier[2].2 > 0, "bronze takes the backpressure");
        // Rejection hits only the legacy tenant.
        assert_eq!(report.tenants[2].rejected, report.tenants[2].submitted);
        assert_eq!(t.rejected, report.tenants[2].rejected);
    }

    #[test]
    fn daemon_tables_are_replay_stable() {
        let cost = CostModel::table1_defaults();
        let fleet = FleetConfig::table1(12);
        let (log, live) = demo_run();
        let json = crate::report::to_json(&tables(&live));
        for (shards, backend) in [
            (1, fcexec::BackendKind::Vm),
            (5, fcexec::BackendKind::Bender),
        ] {
            let replayed =
                daemon::replay(&fleet, &cost, &log, Some(shards), Some(backend)).unwrap();
            assert_eq!(
                json,
                crate::report::to_json(&tables(&replayed)),
                "tables differ at shards={shards} backend={backend}"
            );
        }
        assert!(json.contains("daemon-summary"));
        assert!(json.contains("daemon-tenants"));
        assert!(json.contains("daemon-slo"));
        assert!(!json.contains("wall"), "no wall-clock leaks into tables");
    }

    #[test]
    fn tenant_rows_cover_all_three_tiers() {
        let (_, report) = demo_run();
        let ts = tables(&report);
        assert_eq!(ts[1].rows.len(), 4);
        let labels: Vec<&str> = ts[1].rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "interactive (gold)",
                "analytics (silver)",
                "legacy (silver)",
                "bulk (bronze)"
            ]
        );
        assert!(!ts[2].rows.is_empty(), "snapshot timeline present");
    }
}
