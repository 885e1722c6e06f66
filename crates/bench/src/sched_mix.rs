//! The `characterize serve` demo mix as a 48-job scheduler batch: the
//! batch `ablation_sched` serves and the exact counts it reports,
//! shared with the test that pins those counts.

use characterize::serve::{build_batch, DEMO_MIX};
use dram_core::FleetConfig;
use fcsched::{serve_batch, Batch, SchedPolicy};
use fcsynth::CostModel;

/// Batch size: enough jobs that every fleet size has real multi-tenant
/// contention.
pub const JOBS: usize = 48;
/// SIMD lanes per job.
const LANES: usize = 256;

/// The demo mix as a `JOBS`-job batch at `LANES` lanes, compiled at
/// fan-in 16 against `cost`.
pub fn demo_batch(cost: &CostModel) -> Batch {
    let exprs: Vec<String> = DEMO_MIX.iter().map(|s| s.to_string()).collect();
    build_batch(&exprs, JOBS, LANES, 0xBA7C4, cost, 16).expect("demo mix compiles")
}

/// The three exact counts of the demo batch under the default policy
/// on the 4-chip Table-1 fleet, each under its
/// `tools/bench_baseline.json` id with the `iterations` value the
/// summary records beside it: the jobs scheduled (beside the jobs that
/// succeeded), the native ops executed (beside the retries), and the
/// jobs in same-(chip, program, lanes) fusion groups of two or more.
/// All are pure functions of the fleet, the batch and the policy.
pub fn exact_counts() -> [(&'static str, f64, u64); 3] {
    let cost = CostModel::table1_defaults();
    let batch = demo_batch(&cost);
    let fleet = FleetConfig::table1(4);
    let policy = SchedPolicy::default().with_shards(1);
    let report = serve_batch(&fleet, &cost, &policy, &batch).expect("batch schedules");
    let plan = fcsched::Planner::new(&fleet, &cost, &policy)
        .plan(&batch)
        .expect("batch plans");
    let fused = fcsched::fused_jobs(&batch, &plan);
    [
        (
            "sched_jobs/mix",
            report.jobs() as f64,
            report.succeeded() as u64,
        ),
        (
            "sched_native_ops/mix",
            report.native_ops() as f64,
            report.total_retries(),
        ),
        ("sched_fused_jobs/mix", fused as f64, 1),
    ]
}
