//! The daemon's deterministic report: per-tenant rollups, periodic
//! health snapshots, and session totals.
//!
//! Everything here is a pure function of `(session log, fleet, cost
//! model)`. Latency figures are *modeled* — tick-clock queue wait
//! plus cost-model predicted service time scaled by the deterministic
//! retry count — never the executed backend's latency and never the
//! wall clock, so [`DaemonReport::to_json`] is byte-identical across
//! shard counts **and** across the `vm`/`bender` backends. Modeled
//! throughput ([`HealthSnapshot::modeled_jobs_per_s`]) is the
//! replay-stable counterpart of the wall-clock jobs/s figure the
//! `characterize serve` CLI prints to stderr.

use crate::tier::TierClass;
use fcsched::LatencySummary;
use serde::{Deserialize, Serialize};

/// One tenant's final session rollup.
///
/// Stays `pub` although no other crate names it: it is the element type
/// of [`DaemonReport::tenants`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant index.
    pub tenant: usize,
    /// Tenant display name.
    pub name: String,
    /// Priority tier.
    pub tier: TierClass,
    /// Jobs the traffic model submitted.
    pub submitted: usize,
    /// Jobs admitted into the queue.
    pub admitted: usize,
    /// Completed jobs that ran a reliability-narrowed variant on
    /// their assigned chip (the planner's per-chip remap).
    pub narrowed: usize,
    /// Jobs rejected at admission (below the reliability floor even
    /// narrowed).
    pub rejected: usize,
    /// Jobs shed by backpressure (over-cap arrivals of a sheddable
    /// tenant).
    pub shed: usize,
    /// Jobs completed (executed to a result, pass or fail).
    pub completed: usize,
    /// Completed jobs with at least one operation failed after the
    /// retry budget.
    pub failed: usize,
    /// Retry attempts consumed across the tenant's jobs.
    pub retries: u64,
    /// Deepest the tenant's queue ever grew.
    pub peak_queue: usize,
    /// The tenant's SLO target, microseconds.
    pub slo_us: f64,
    /// Distribution of modeled latency over every completed job,
    /// nanoseconds.
    pub latency: LatencySummary,
    /// Whether the final rolling p99 met the SLO.
    pub slo_met: bool,
}

/// One tenant's live state inside a [`HealthSnapshot`].
///
/// Stays `pub` although no other crate names it: it is the element type
/// of [`HealthSnapshot::tenants`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantHealth {
    /// Tenant index.
    pub tenant: usize,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Rolling p50 modeled latency, microseconds (0 until the first
    /// completion).
    pub p50_us: f64,
    /// Rolling p99 modeled latency, microseconds.
    pub p99_us: f64,
    /// SLO target, microseconds.
    pub slo_us: f64,
    /// Whether the rolling p99 currently meets the SLO.
    pub ok: bool,
}

/// A periodic health report: the daemon's live view, emitted every
/// `report_every` ticks and once more after the drain.
///
/// Stays `pub` although no other crate names it: it is the element type
/// of [`DaemonReport::snapshots`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Tick the snapshot was taken after (0-based).
    pub tick: usize,
    /// Modeled time elapsed, microseconds.
    pub elapsed_us: f64,
    /// Jobs completed so far.
    pub completed: usize,
    /// Jobs admitted so far.
    pub admitted: usize,
    /// Jobs shed so far.
    pub shed: usize,
    /// Jobs rejected so far.
    pub rejected: usize,
    /// Total queue depth across tenants at snapshot time.
    pub queued: usize,
    /// Modeled throughput: completed jobs per modeled second. This is
    /// the deterministic, replay-stable counterpart of the CLI's
    /// wall-clock jobs/s (which stays on stderr).
    pub modeled_jobs_per_s: f64,
    /// Per-tenant live state, in tenant order.
    pub tenants: Vec<TenantHealth>,
    /// Cumulative planner-scheduled mitigations (fault scenarios;
    /// 0 otherwise).
    pub mitigations: u64,
    /// Cumulative chip dropouts (fault scenarios; 0 otherwise).
    pub dropouts: usize,
}

/// Session-wide totals.
///
/// Stays `pub` although no other crate names it: it is the type of
/// [`DaemonReport::totals`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaemonTotals {
    /// Jobs the traffic model submitted.
    pub submitted: usize,
    /// Jobs admitted.
    pub admitted: usize,
    /// Completed jobs that ran a reliability-narrowed variant on
    /// their assigned chip.
    pub narrowed: usize,
    /// Jobs rejected at admission.
    pub rejected: usize,
    /// Jobs shed by backpressure.
    pub shed: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Completed jobs that failed.
    pub failed: usize,
    /// Retry attempts consumed.
    pub retries: u64,
    /// Native operations executed (first attempts).
    pub native_ops: usize,
    /// Micro-batches handed to the scheduler.
    pub batches: usize,
    /// Jobs left queued when the drain window closed (0 on a clean
    /// drain).
    pub undrained: usize,
    /// Modeled energy, picojoules.
    pub energy_pj: f64,
    /// Order-sensitive digest folded over every completed job's
    /// result bits — host-exact, so identical on every backend.
    pub result_digest: u64,
    /// Session-wide modeled throughput, jobs per modeled second.
    pub modeled_jobs_per_s: f64,
}

/// The deterministic report of one served (or replayed) session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaemonReport {
    /// Session seed.
    pub seed: u64,
    /// Ingestion ticks served.
    pub ticks: usize,
    /// Extra drain ticks needed after ingestion stopped.
    pub drain_ticks: usize,
    /// Modeled tick period, nanoseconds.
    pub tick_ns: f64,
    /// Fleet size.
    pub chips: usize,
    /// Session totals.
    pub totals: DaemonTotals,
    /// Per-tenant rollups, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Periodic health snapshots, oldest first (the last one is the
    /// post-drain state).
    pub snapshots: Vec<HealthSnapshot>,
}

impl DaemonReport {
    /// Serializes the report as pretty JSON — the artifact the CI
    /// determinism gate byte-diffs across shard counts and backends.
    /// Wall-clock and shard count are deliberately absent.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("daemon report serializes")
    }

    /// Per-tier `(admitted, shed, narrowed)` rollup in tier rank
    /// order — the deterministic counts the `ablation_daemon` bench
    /// exact-gates.
    pub fn tier_counts(&self) -> [(TierClass, usize, usize, usize); 3] {
        let mut out = TierClass::all().map(|t| (t, 0usize, 0usize, 0usize));
        for t in &self.tenants {
            let slot = &mut out[t.tier.rank()];
            slot.1 += t.admitted;
            slot.2 += t.shed;
            slot.3 += t.narrowed;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(tier: TierClass, admitted: usize, shed: usize, narrowed: usize) -> TenantReport {
        TenantReport {
            tenant: 0,
            name: "t".into(),
            tier,
            submitted: admitted + shed,
            admitted,
            narrowed,
            rejected: 0,
            shed,
            completed: admitted,
            failed: 0,
            retries: 1,
            peak_queue: 3,
            slo_us: 50.0,
            latency: LatencySummary::of(vec![100.0, 200.0, 300.0]),
            slo_met: true,
        }
    }

    fn report() -> DaemonReport {
        DaemonReport {
            seed: 9,
            ticks: 4,
            drain_ticks: 1,
            tick_ns: 1000.0,
            chips: 2,
            totals: DaemonTotals {
                submitted: 11,
                admitted: 9,
                narrowed: 2,
                rejected: 0,
                shed: 2,
                completed: 9,
                failed: 0,
                retries: 3,
                native_ops: 20,
                batches: 4,
                undrained: 0,
                energy_pj: 1234.5,
                result_digest: 0xFEED,
                modeled_jobs_per_s: 1.8e6,
            },
            tenants: vec![
                tenant(TierClass::Gold, 5, 0, 0),
                tenant(TierClass::Bronze, 4, 2, 2),
            ],
            snapshots: vec![],
        }
    }

    #[test]
    fn json_round_trips() {
        let r = report();
        let back = serde_json::from_str::<DaemonReport>(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert!(serde_json::from_str::<DaemonReport>("nope").is_err());
    }

    #[test]
    fn json_excludes_wallclock_and_shards() {
        let json = report().to_json();
        assert!(!json.contains("shards"));
        assert!(!json.contains("wall"));
        assert!(json.contains("modeled_jobs_per_s"));
    }

    #[test]
    fn tier_counts_roll_up_by_rank() {
        let counts = report().tier_counts();
        assert_eq!(counts[0], (TierClass::Gold, 5, 0, 0));
        assert_eq!(counts[1], (TierClass::Silver, 0, 0, 0));
        assert_eq!(counts[2], (TierClass::Bronze, 4, 2, 2));
    }
}
