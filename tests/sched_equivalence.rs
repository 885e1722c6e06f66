//! Scheduler equivalence properties: *scheduling never changes
//! answers*.
//!
//! * a batch of random ≤8-input jobs scheduled across **any shard
//!   count and any fleet size** produces result rows bit-identical to
//!   serial per-job execution on a fleet of 1 — and to the direct
//!   `prepare` + `run_prepared` reference on a fresh host VM;
//! * retry/latency/energy accounting is a pure function of the batch
//!   seed, jobs, fleet, and policy: identical across repeated runs and
//!   across shard counts (the deterministic JSON report is
//!   byte-identical — the property the CI determinism job enforces
//!   end-to-end through `characterize serve`);
//! * cross-job operand fusion never moves an outcome: every job of a
//!   batch whose repeated templates form non-trivial fusion groups
//!   matches [`fcsched::run_job_on`] on its own fresh backend, on
//!   either backend at every shard count.

mod common;

use common::random_expr;
use fcdram::PackedBits;
use fcsched::{serve_batch, Batch, SchedPolicy};
use fcsynth::CostModel;
use proptest::prelude::*;
use simdram::{HostSubstrate, SimdVm};

/// Builds a batch of `jobs` random jobs (≤8 inputs each) with
/// deterministic operands. Returns the batch alongside each job's
/// reference result from a direct host execution of the *submitted*
/// program.
fn random_batch(jobs: usize, lanes: usize, seed: u64) -> (Batch, Vec<PackedBits>) {
    let cost = CostModel::table1_defaults();
    let mut batch = Batch::new(seed);
    let mut references = Vec::with_capacity(jobs);
    for j in 0..jobs {
        let n = 1 + (seed as usize ^ (j * 7)) % 8;
        let text = random_expr(n, seed ^ (j as u64) << 17, 10);
        let compiled = fcsynth::compile(&text, &cost, 16).expect("generated exprs parse");
        let k = compiled.circuit.inputs().len();
        let operands: Vec<PackedBits> = (0..k)
            .map(|i| {
                let mut p = PackedBits::zeros(lanes);
                for l in 0..lanes {
                    let h = dram_core::math::mix4(seed, j as u64, i as u64, l as u64);
                    p.set(l, h & 1 == 1);
                }
                p
            })
            .collect();
        let mut vm = SimdVm::new(HostSubstrate::new(
            lanes,
            compiled.mapping.program.n_regs + k + 8,
        ))
        .expect("vm");
        references.push(
            common::execute(&mut vm, &compiled.mapping.program, &operands)
                .expect("reference executes"),
        );
        batch
            .push(&text, &compiled.mapping, operands, lanes)
            .expect("job validates");
    }
    (batch, references)
}

/// Builds a batch cycling `distinct` random templates across `jobs`
/// jobs (each template compiled once, per-job operands still unique)
/// — the shape cross-job operand fusion groups on.
fn repeated_batch(jobs: usize, distinct: usize, lanes: usize, seed: u64) -> Batch {
    let cost = CostModel::table1_defaults();
    let mut compiled = Vec::with_capacity(distinct);
    for d in 0..distinct {
        let n = 1 + (seed as usize ^ (d * 5)) % 6;
        let text = random_expr(n, seed ^ (d as u64) << 23, 10);
        let c = fcsynth::compile(&text, &cost, 16).expect("generated exprs parse");
        compiled.push((text, c));
    }
    let mut batch = Batch::new(seed);
    for j in 0..jobs {
        let (text, c) = &compiled[j % distinct];
        let k = c.circuit.inputs().len();
        let operands: Vec<PackedBits> = (0..k)
            .map(|i| {
                let mut p = PackedBits::zeros(lanes);
                for l in 0..lanes {
                    let h = dram_core::math::mix4(seed ^ 0xF0_5E, j as u64, i as u64, l as u64);
                    p.set(l, h & 1 == 1);
                }
                p
            })
            .collect();
        batch
            .push(text, &c.mapping, operands, lanes)
            .expect("job validates");
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any (fleet size, shard count) produces the same result bits as
    /// serial per-job execution on a fleet of 1, which in turn equals
    /// the direct host reference.
    #[test]
    fn batches_are_bit_identical_across_fleets_and_shards(
        jobs in 1usize..=8,
        chips in 1usize..=6,
        shards in 1usize..=6,
        seed in any::<u64>(),
    ) {
        let lanes = 65; // off word boundary to exercise tail masking
        let (batch, references) = random_batch(jobs, lanes, seed);
        let cost = CostModel::table1_defaults();

        let baseline = serve_batch(
            &dram_core::FleetConfig::table1(1),
            &cost,
            &SchedPolicy::default().with_shards(1),
            &batch,
        ).map_err(|e| e.to_string())?;
        let candidate = serve_batch(
            &dram_core::FleetConfig::table1(chips),
            &cost,
            &SchedPolicy::default().with_shards(shards),
            &batch,
        ).map_err(|e| e.to_string())?;

        prop_assert_eq!(baseline.jobs(), jobs);
        prop_assert_eq!(candidate.jobs(), jobs);
        for (j, reference) in references.iter().enumerate() {
            prop_assert_eq!(
                &baseline.outcomes[j].result, reference,
                "fleet-of-1 diverged from the direct reference on job {}", j
            );
            prop_assert_eq!(
                &candidate.outcomes[j].result, reference,
                "{} chips / {} shards changed job {}'s bits", chips, shards, j
            );
        }
    }

    /// Retry accounting is deterministic under a fixed seed and
    /// invariant to the shard count: the full outcome list — retries,
    /// failed ops, modeled latency/energy, admission — is identical,
    /// and so is the serialized report byte-for-byte.
    #[test]
    fn retry_accounting_is_deterministic_and_shard_invariant(
        jobs in 1usize..=8,
        chips in 1usize..=4,
        shards in 2usize..=6,
        seed in any::<u64>(),
    ) {
        let (batch, _) = random_batch(jobs, 33, seed);
        let cost = CostModel::table1_defaults();
        let fleet = dram_core::FleetConfig::table1(chips);
        let serial = serve_batch(
            &fleet, &cost, &SchedPolicy::default().with_shards(1), &batch,
        ).map_err(|e| e.to_string())?;
        let again = serve_batch(
            &fleet, &cost, &SchedPolicy::default().with_shards(1), &batch,
        ).map_err(|e| e.to_string())?;
        let sharded = serve_batch(
            &fleet, &cost, &SchedPolicy::default().with_shards(shards), &batch,
        ).map_err(|e| e.to_string())?;
        prop_assert_eq!(&serial.outcomes, &again.outcomes, "rerun changed accounting");
        prop_assert_eq!(&serial.outcomes, &sharded.outcomes, "sharding changed accounting");
        prop_assert_eq!(
            serial.to_json(), sharded.to_json(),
            "serialized report not byte-identical across shard counts"
        );
    }

    /// Cross-job operand fusion never moves a report byte: a batch
    /// with repeated templates (so fusion groups actually form) serves
    /// to exactly the outcomes of running each job alone through
    /// [`fcsched::run_job_on`] on a fresh host VM (schedule-timed for
    /// bender), at any fleet size and every shard count, on both
    /// backends — and when every job shares one template on a one-chip
    /// fleet, the deterministic [`fcsched::fused_jobs`] counter covers
    /// the whole batch.
    #[test]
    fn fusion_never_moves_a_report_byte(
        jobs in 2usize..=10,
        distinct in 1usize..=3,
        chips in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let batch = repeated_batch(jobs, distinct, 33, seed);
        let cost = CostModel::table1_defaults();
        let fleet = dram_core::FleetConfig::table1(chips);
        for backend in [fcexec::BackendKind::Vm, fcexec::BackendKind::Bender] {
            let policy = SchedPolicy { backend, ..SchedPolicy::default().with_shards(1) };
            let plan = fcsched::Planner::new(&fleet, &cost, &policy)
                .plan(&batch)
                .map_err(|e| e.to_string())?;
            let mut alone = Vec::with_capacity(jobs);
            for (job, asg) in batch.jobs().iter().zip(&plan.assignments) {
                let profile = &plan.profiles[asg.member];
                let budget = policy.retry_budget.saturating_sub(asg.replacements);
                let capacity = (asg.program.n_regs + job.operands.len() + 4).max(8);
                let vm = SimdVm::new(HostSubstrate::new(job.lanes, capacity))
                    .map_err(|e| e.to_string())?;
                let out = match backend {
                    fcexec::BackendKind::Vm => {
                        let mut vm = vm;
                        fcsched::run_job_on(&mut vm, job, asg, profile, budget, batch.seed())
                    }
                    fcexec::BackendKind::Bender => {
                        let mut timed = fcexec::ScheduleTimed::new(vm, profile.speed);
                        fcsched::run_job_on(&mut timed, job, asg, profile, budget, batch.seed())
                    }
                };
                alone.push(out.map_err(|e| e.to_string())?);
            }
            let mut serial_json = None;
            for shards in 1usize..=5 {
                let served = serve_batch(
                    &fleet,
                    &cost,
                    &SchedPolicy { backend, ..SchedPolicy::default().with_shards(shards) },
                    &batch,
                ).map_err(|e| e.to_string())?;
                prop_assert_eq!(
                    &served.outcomes, &alone,
                    "fusion changed accounting ({:?}, shards={})", backend, shards
                );
                let json = served.to_json();
                prop_assert_eq!(
                    serial_json.get_or_insert_with(|| json.clone()), &json,
                    "report not byte-identical across shard counts ({:?})", backend
                );
            }
        }
        let policy = SchedPolicy::default().with_shards(1);
        let plan = fcsched::Planner::new(&fleet, &cost, &policy)
            .plan(&batch)
            .map_err(|e| e.to_string())?;
        let in_groups = fcsched::fused_jobs(&batch, &plan);
        prop_assert!(in_groups <= jobs, "counter exceeds the batch");
        if distinct == 1 && chips == 1 {
            prop_assert_eq!(
                in_groups, jobs,
                "single-template one-chip batch must fuse completely"
            );
        }
    }
}

/// The executor's modeled accounting reconciles with its own rollups
/// on a non-trivial mixed batch, and admission outcomes stay within
/// the policy's vocabulary.
#[test]
fn rollups_reconcile_on_a_mixed_batch() {
    let (batch, _) = random_batch(24, 48, 0xD15C0);
    let cost = CostModel::table1_defaults();
    let report = serve_batch(
        &dram_core::FleetConfig::table1(5),
        &cost,
        &SchedPolicy::default().with_shards(3),
        &batch,
    )
    .unwrap();
    assert_eq!(report.jobs(), 24);
    let per_job_ops: usize = report.outcomes.iter().map(|o| o.ops).sum();
    assert_eq!(report.native_ops(), per_job_ops);
    let usage = report.member_usage();
    assert_eq!(usage.iter().map(|u| u.jobs).sum::<usize>(), 24);
    assert_eq!(
        usage.iter().map(|u| u.retries).sum::<u64>(),
        report.total_retries()
    );
    let lat = report.latency();
    assert!(lat.min_ns <= lat.p50_ns && lat.p99_ns <= lat.max_ns);
    for o in &report.outcomes {
        assert_eq!(o.succeeded, o.failed_ops == 0);
        assert!(o.predicted_success > 0.0 && o.predicted_success <= 1.0);
    }
}

/// Backend choice moves *only* the declared latency-model fields: the
/// serialized reports of the vm and bender backends are byte-identical
/// once each outcome's `latency_ns` (and everything derived from it)
/// is masked out, and both backends are individually shard-invariant.
#[test]
fn backends_agree_modulo_declared_latency_fields() {
    let (batch, references) = random_batch(16, 40, 0x0BAC_4E57);
    let cost = CostModel::table1_defaults();
    let fleet = dram_core::FleetConfig::table1(3);
    let vm_policy = SchedPolicy::default().with_shards(1);
    let bender_policy = SchedPolicy {
        backend: fcsched::BackendKind::Bender,
        ..SchedPolicy::default().with_shards(1)
    };
    let vm = serve_batch(&fleet, &cost, &vm_policy, &batch).unwrap();
    let bender = serve_batch(&fleet, &cost, &bender_policy, &batch).unwrap();
    // Both backends individually stay shard-invariant byte-for-byte.
    for (policy, report) in [(&vm_policy, &vm), (&bender_policy, &bender)] {
        let sharded = serve_batch(
            &fleet,
            &cost,
            &SchedPolicy {
                shards: 4,
                ..policy.clone()
            },
            &batch,
        )
        .unwrap();
        assert_eq!(
            report.to_json(),
            sharded.to_json(),
            "{:?} backend not shard-invariant",
            policy.backend
        );
    }
    // Answers never change; only the declared latency fields move.
    // (A constant-folded job executes zero steps and prices to zero
    // under both models, so the disagreement is asserted in aggregate,
    // not per job.)
    let mut diverging = 0usize;
    for ((a, b), reference) in vm.outcomes.iter().zip(&bender.outcomes).zip(&references) {
        assert_eq!(&a.result, reference);
        assert_eq!(&b.result, reference, "bender backend changed answers");
        diverging += usize::from(a.latency_ns != b.latency_ns);
    }
    assert!(diverging > 0, "the two latency models never disagreed");
    // Mask the declared fields (per-job latency and every rollup
    // derived from it) and require byte identity.
    let mask = |report: &fcsched::BatchReport| {
        let mut masked = report.clone();
        for o in &mut masked.outcomes {
            o.latency_ns = 0.0;
        }
        masked.to_json()
    };
    assert_eq!(
        mask(&vm),
        mask(&bender),
        "reports must be byte-identical across backends modulo latency fields"
    );
}

/// A hostile policy (impossible admission threshold, zero retries)
/// still never changes answers — jobs are flagged and failures are
/// accounted, but the bits match the permissive run exactly.
#[test]
fn hostile_policy_never_changes_answers() {
    let (batch, references) = random_batch(12, 40, 0xBAD_CAFE);
    let cost = CostModel::table1_defaults();
    let fleet = dram_core::FleetConfig::table1(3);
    let hostile = SchedPolicy {
        min_success: 1.01,
        retry_budget: 0,
        shards: 2,
        ..SchedPolicy::default()
    };
    let report = serve_batch(&fleet, &cost, &hostile, &batch).unwrap();
    assert_eq!(
        report.flagged() + report.remapped(),
        12,
        "nothing clears an impossible threshold"
    );
    for (o, reference) in report.outcomes.iter().zip(&references) {
        assert_eq!(o.retries, 0, "no budget, no retries");
        // Flagged jobs may run a *narrowed* program — the bits still
        // must match the submitted program's reference exactly.
        assert_eq!(&o.result, reference, "{}", o.label);
    }
}

/// A planner kept for a whole session (its chip profiles and admission
/// memo outliving each `plan` call) plans every batch of a sequence
/// exactly as a fresh planner does — without faults, under a strict
/// threshold that narrows, and under the demo fault plan.
#[test]
fn session_planner_matches_a_fresh_planner_per_batch() {
    let cost = CostModel::table1_defaults();
    let fleet = dram_core::FleetConfig::table1(6);
    let policies = [
        SchedPolicy::default(),
        SchedPolicy {
            min_success: 0.97,
            ..SchedPolicy::default()
        },
        SchedPolicy {
            faults: Some(dram_core::FaultPlan::demo()),
            ..SchedPolicy::default()
        },
    ];
    for policy in &policies {
        let mut session = fcsched::Planner::new(&fleet, &cost, policy);
        for b in 0..8u64 {
            // Alternate repeated templates (admission memo hits) with
            // fresh random programs (memo growth).
            let batch = if b % 2 == 0 {
                repeated_batch(12, 3, 64, 0xB0 + b / 2)
            } else {
                random_batch(6, 64, 0x5E5 + b).0
            };
            let fresh = fcsched::Planner::new(&fleet, &cost, policy).plan(&batch);
            assert_eq!(
                session.plan(&batch),
                fresh,
                "batch {b}, min_success {}, faults {}",
                policy.min_success,
                policy.faults.is_some()
            );
        }
    }
}
