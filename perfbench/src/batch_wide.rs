//! `batch_wide`: offline scheduler batches at 4096 lanes.
//!
//! A unit is one 48-job batch cycling the serve demo mix. Operands are
//! generated and programs compiled in set-up; the timed region is
//! `Batch::new`/`push` → `Planner::plan` → `fcsched::execute_plan`.

use crate::harness::{digest_operands, operands, secs, Acc, Findings, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use characterize::serve::DEMO_MIX;
use dram_core::math::mix2;
use dram_core::FleetConfig;
use fcdram::PackedBits;
use fcsched::{execute_plan, Batch, BatchReport, Plan, Planner, SchedPolicy};
use fcsynth::{Compiled, CostModel};
use std::collections::BTreeMap;
use std::time::Instant;

/// Fleet size (the same Table-1 dozen as `daemon_mix`).
pub const CHIPS: usize = 12;
/// SIMD lanes per job.
pub const LANES: usize = 4096;
/// Jobs per batch.
pub const JOBS: usize = 48;
/// Distinct batches (batch seeds and operand sets) per input cycle.
pub const VARIANTS: usize = 4;
/// Widest native gate the compiler may use.
const FAN_IN: usize = 16;

struct Variant {
    seed: u64,
    operands: Vec<Vec<PackedBits>>,
    expected: Vec<PackedBits>,
}

/// The workload state.
pub struct BatchWide {
    cost: CostModel,
    fleet: FleetConfig,
    policy: SchedPolicy,
    compiled: Vec<Compiled>,
    variants: Vec<Variant>,
    /// Deterministic counts summed over the first cycle.
    counts: BTreeMap<&'static str, f64>,
    digest: u64,
}

impl BatchWide {
    fn first_cycle(&mut self, batch: &Batch, plan: &Plan, report: &BatchReport) {
        for (name, v) in batch_counts(batch, plan, report) {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// The timed calls of one batch.
    fn serve(
        &self,
        var: &Variant,
        jobs: Vec<Vec<PackedBits>>,
        b: u64,
        tr: &mut Tracer,
    ) -> fcsched::Result<(Batch, Plan, BatchReport)> {
        let span = tr.begin("fcsched.push", b);
        let mut batch = Batch::new(var.seed);
        let mut pushed = Ok(());
        for (j, ops) in jobs.into_iter().enumerate() {
            let k = j % self.compiled.len();
            if let Err(e) = batch.push(DEMO_MIX[k], &self.compiled[k].mapping, ops, LANES) {
                pushed = Err(e);
                break;
            }
        }
        tr.end(span);
        pushed?;
        let span = tr.begin("fcsched.plan", b);
        let plan = Planner::new(&self.fleet, &self.cost, &self.policy).plan(&batch);
        tr.end(span);
        let plan = plan?;
        let span = tr.begin("fcsched.execute_plan", b);
        let report = execute_plan(&batch, &plan, &self.policy);
        tr.end(span);
        Ok((batch, plan, report?))
    }
}

/// Deterministic per-batch counts, recorded on the first cycle.
fn batch_counts(batch: &Batch, plan: &Plan, report: &BatchReport) -> [(&'static str, f64); 6] {
    let visits: usize = plan
        .assignments
        .iter()
        .map(|a| fcexec::fused_visits_of(&a.program).len())
        .sum();
    [
        (
            "fcsched.fused_jobs",
            fcsched::fused_jobs(batch, plan) as f64,
        ),
        ("fcsched.retries", report.total_retries() as f64),
        ("fcsched.remapped", report.remapped() as f64),
        ("fcsched.failed_jobs", report.failed_jobs() as f64),
        ("fcexec.native_ops", report.native_ops() as f64),
        ("fcexec.engine_visits", visits as f64),
    ]
}

impl Workload for BatchWide {
    fn setup(seed: u64, tr: &mut Tracer) -> BatchWide {
        let cost = CostModel::table1_defaults();
        let fleet = FleetConfig::table1(CHIPS);
        let policy = SchedPolicy::default().with_shards(1);
        let compiled: Vec<Compiled> = DEMO_MIX
            .iter()
            .enumerate()
            .map(|(i, text)| {
                let span = tr.begin("fcsynth.compile", i as u64);
                let c = fcsynth::compile(text, &cost, FAN_IN).expect("the demo mix compiles");
                tr.end(span);
                c
            })
            .collect();
        let mut digest = seed;
        let variants = (0..VARIANTS)
            .map(|v| {
                let vseed = mix2(seed, v as u64);
                let operands: Vec<Vec<PackedBits>> = (0..JOBS)
                    .map(|j| {
                        let inputs = compiled[j % compiled.len()].circuit.inputs().len();
                        operands(mix2(vseed, j as u64), inputs, LANES)
                    })
                    .collect();
                for ops in &operands {
                    digest = digest_operands(digest, ops);
                }
                Variant {
                    seed: vseed,
                    operands,
                    expected: Vec::new(),
                }
            })
            .collect();
        BatchWide {
            cost,
            fleet,
            policy,
            compiled,
            variants,
            counts: BTreeMap::new(),
            digest,
        }
    }

    fn prepare_checks(&mut self) {
        for var in &mut self.variants {
            var.expected = var
                .operands
                .iter()
                .enumerate()
                .map(|(j, ops)| {
                    self.compiled[j % self.compiled.len()]
                        .circuit
                        .eval_packed(ops)
                })
                .collect();
        }
    }

    fn cycle(&self) -> u64 {
        VARIANTS as u64
    }

    fn run_unit(&mut self, unit: u64, tr: &mut Tracer, acc: &mut Acc) {
        let v = (unit % VARIANTS as u64) as usize;
        let var = &self.variants[v];
        let jobs = var.operands.clone();

        let span = tr.begin("bench.batch", unit);
        let t0 = Instant::now();
        let served = self.serve(var, jobs, unit, tr);
        let dt = secs(t0);
        tr.end(span);
        acc.timed_s += dt;
        acc.calls_us.push(dt * 1e6);
        acc.attempted += JOBS as u64;

        // Checks, outside the timed region: every job's result equals
        // the reference evaluation of its operands.
        let Ok((batch, plan, report)) = served else {
            acc.failed += JOBS as u64;
            return;
        };
        let wrong = (0..JOBS)
            .filter(|&j| {
                report
                    .outcomes
                    .get(j)
                    .is_none_or(|o| o.result != var.expected[j])
            })
            .count() as u64;
        acc.failed += wrong;
        acc.work += JOBS as u64 - wrong;
        acc.refused += report.failed_jobs() as u64;
        if unit < VARIANTS as u64 {
            self.first_cycle(&batch, &plan, &report);
        }
    }

    fn finish(&mut self, acc: &Acc, tr: &Tracer) -> Findings {
        let mut f = Findings {
            inputs_digest: self.digest,
            ..Findings::default()
        };
        f.layer.extend(&self.counts);
        f.layer.insert(
            "fcsynth.compile_us",
            median(&tr.durations_us("fcsynth.compile")),
        );
        let batch_ns = tr.total_ns("bench.batch").max(1) as f64;
        for (layer, span, share) in [
            ("fcsched.push_us", "fcsched.push", "fcsched.push_share"),
            ("fcsched.plan_us", "fcsched.plan", "fcsched.plan_share"),
            (
                "fcsched.execute_us",
                "fcsched.execute_plan",
                "fcsched.execute_share",
            ),
        ] {
            f.layer.insert(layer, median(&tr.durations_us(span)));
            f.layer.insert(share, tr.total_ns(span) as f64 / batch_ns);
        }
        f.notes.push(format!(
            "batches: {} run, {VARIANTS} per cycle; counts below are per cycle",
            acc.units
        ));
        f
    }

    fn work(&self) -> (&'static str, &'static str) {
        ("jobs_per_s", "jobs completed with correct results")
    }

    fn describe(&self) -> String {
        format!(
            "fleet {CHIPS} Table-1 chips, lanes {LANES}, {JOBS} jobs per batch cycling the \
             {}-expression demo mix, backend vm, shards 1",
            DEMO_MIX.len()
        )
    }
}
