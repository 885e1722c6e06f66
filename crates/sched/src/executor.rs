//! The sharded executor: runs a planned batch and accounts for it.
//!
//! ## Execution model
//!
//! Jobs run through the unified [`fcexec`] engine, generically over
//! any [`ExecBackend`] ([`run_job_on`]); the shipping configurations
//! are selected by [`SchedPolicy::backend`]:
//!
//! * [`BackendKind::Vm`] — every fusion group (jobs sharing a fleet
//!   member, program, and lane count; a lone job is a group of one)
//!   runs on a `SimdVm<HostSubstrate>` (the workspace's golden model)
//!   and is priced by the assigned chip's derated cost model. Each
//!   worker chunk prepares every distinct program once and keeps one
//!   VM per lane count, sized from the plans' arenas plus the staged
//!   rows; groups reuse both, and each group hands the VM on holding
//!   only its two constant rows, with its trace cleared.
//! * [`BackendKind::Bender`] — the same pooled VM wrapped in
//!   [`fcexec::ScheduleTimed`]: per-operation latency is the
//!   *cycle-accurate DDR4 command schedule* of each step at the
//!   assigned chip's speed bin (the schedule the `fcexec`
//!   `BenderBackend` executes), so fleets of mixed speed bins serve
//!   at command-schedule fidelity.
//!
//! On every backend a job's output bits are a pure function of its
//! program and operands — independent of the assigned chip, the fleet
//! layout, and the shard count. That is the scheduler's fidelity
//! invariant: *scheduling never changes answers*
//! (`tests/sched_equivalence.rs`), and it is why batch reports are
//! byte-identical across backends modulo the declared latency-model
//! fields (per-job `latency_ns` and every rollup derived from it).
//!
//! Reliability is modeled on top, per native operation: each executed
//! step draws a deterministic Bernoulli trial against the assigned
//! chip's derated success rate ([`crate::planner::ChipProfile`]),
//! keyed by `(batch seed, job id, step, attempt)` — identical across
//! backends. Failed draws consume the job's retry budget (latency and
//! energy are charged per attempt); an exhausted budget marks the
//! operation — and the job — as failed while execution continues, so
//! one bad gate does not silence the rest of the accounting.
//!
//! ## Sharding discipline
//!
//! Jobs are split into contiguous submission-order chunks, one scoped
//! worker thread per chunk (the PR2 fleet-sweep discipline); outcomes
//! are reassembled in submission order. Per-job work depends only on
//! `(job, assignment, profile, batch seed, backend)`, so the report is
//! bit-identical for every shard count — threading is purely a
//! wall-clock optimization.

use crate::error::Result;
use crate::planner::{find_program, Admission, Assignment, Plan, SchedPolicy};
use crate::queue::{Batch, Job, JobId};
use crate::report::BatchReport;
use dram_core::math::{hash_to_unit, mix3};
use fcdram::PackedBits;
use fcexec::{BackendKind, ExecBackend, ScheduleTimed};
use fcsynth::ProgramCost;
use simdram::{HostSubstrate, SimdVm};

/// Everything measured about one executed job.
///
/// Stays `pub` although no other crate names it: it is the element type
/// of [`BatchReport::outcomes`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job (submission index).
    pub job: JobId,
    /// The job's display label.
    pub label: String,
    /// Fleet member that hosted the job.
    pub member: usize,
    /// The member's display label (`module/cN`).
    pub chip: String,
    /// The member's wave the job ran in.
    pub wave: usize,
    /// Admission outcome.
    pub admission: Admission,
    /// Whether every operation passed within the retry budget.
    pub succeeded: bool,
    /// Native operations executed (first attempts).
    pub ops: usize,
    /// Retry attempts consumed.
    pub retries: u32,
    /// Operations that exhausted the budget and stayed failed.
    pub failed_ops: usize,
    /// Times the job was re-placed off a dying chip before this run
    /// (fault scenarios only; each one cost a unit of retry budget).
    pub replacements: u32,
    /// Predicted success under the chip's model (the admission price).
    pub predicted_success: f64,
    /// Modeled latency including retries, nanoseconds.
    pub latency_ns: f64,
    /// Modeled energy including retries, picojoules.
    pub energy_pj: f64,
    /// The job's result bits (host-exact).
    pub result: PackedBits,
}

/// One step of a recorded job execution, as the trace layer sees it.
///
/// Every field is derived from the cost model, the step shape, and the
/// deterministic retry draws — never from
/// [`ExecBackend::step_latency_ns`] — so recorded traces are
/// byte-identical across backends (determinism invariant #4).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StepTrace {
    /// Op-shape name (`and16`, `nor2`, `not`).
    pub name: String,
    /// Cost-model latency of one attempt, nanoseconds.
    pub model_ns: f64,
    /// Cost-model energy of one attempt, picojoules.
    pub energy_pj: f64,
    /// Attempts executed (1 + retries spent on this step).
    pub attempts: u32,
    /// Modeled device activations per attempt.
    pub acts: u64,
    /// Whether the step exhausted the budget and stayed failed.
    pub failed: bool,
}

/// Runs one job on `backend` under its assigned chip profile — the
/// backend-generic seam, and the same path every scheduled job takes
/// (a group of one). Pure function of `(job, assignment, profile cost,
/// batch_seed, backend)`.
///
/// Per-step latency comes from [`ExecBackend::step_latency_ns`] when
/// the backend declares one (command-schedule fidelity), from the
/// chip's cost model otherwise; success probabilities and energy are
/// always the cost model's.
///
/// # Errors
///
/// Propagates backend failures (row exhaustion, lane mismatch).
pub fn run_job_on<B: ExecBackend>(
    backend: &mut B,
    job: &Job,
    asg: &Assignment,
    profile: &crate::planner::ChipProfile,
    retry_budget: u32,
    batch_seed: u64,
) -> Result<JobOutcome> {
    let prep = backend.prepare(&asg.program)?;
    let mut runs = run_group_on(
        backend,
        &prep,
        &[(job, asg, retry_budget)],
        profile,
        batch_seed,
        false,
    )?;
    runs.pop().expect("one run per job").map(|(o, _)| o)
}

/// The one execution path: `group`'s shared program runs from `prep`
/// (prepared once, by the caller, for every group that assigns it), every
/// job's operands are bulk-staged through [`ExecBackend::stage_many`],
/// then each job's accounting loop runs over its own lease in group
/// order. The outer error is a setup failure (staging) shared by the
/// whole group; the inner ones are per-job execution failures. Per-step
/// traces are recorded when `record` is set and left empty otherwise.
fn run_group_on<B: ExecBackend>(
    backend: &mut B,
    prep: &fcexec::PreparedProgram,
    group: &[(&Job, &Assignment, u32)],
    profile: &crate::planner::ChipProfile,
    batch_seed: u64,
    record: bool,
) -> Result<Vec<JobRun>> {
    // Latency per step, resolved once for the whole group (the
    // observer runs while the backend is mutably borrowed).
    let step_latency: Vec<Option<f64>> = prep
        .program()
        .steps
        .iter()
        .map(|s| backend.step_latency_ns(s))
        .collect();
    let batches: Vec<&[PackedBits]> = group
        .iter()
        .map(|(j, _, _)| j.operands.as_slice())
        .collect();
    let leases = backend.stage_many(&batches)?;
    let mut out = Vec::with_capacity(group.len());
    for (&(job, asg, budget), lease) in group.iter().zip(leases) {
        let mut steps = Vec::new();
        let run = run_leased(
            backend,
            job,
            asg,
            profile,
            budget,
            batch_seed,
            prep,
            &step_latency,
            &lease,
            record.then_some(&mut steps),
        );
        backend.end_stage(lease);
        out.push(run.map(|o| (o, steps)));
    }
    Ok(out)
}

/// The accounting loop proper: one job's prepared plan over the operand
/// lease the caller staged and still owns. Outcomes are a pure function
/// of `(job, assignment, profile cost, batch seed, backend kind)`
/// whether or not the backend is shared across a group: retry draws key
/// on the batch seed and job id (never on backend instance state), and
/// results are host-exact. `step_latency` is the backend's per-step
/// latency override, resolved once per group. `record`, when given,
/// receives one [`StepTrace`] per executed step.
#[allow(clippy::too_many_arguments)]
fn run_leased<B: ExecBackend>(
    backend: &mut B,
    job: &Job,
    asg: &Assignment,
    profile: &crate::planner::ChipProfile,
    retry_budget: u32,
    batch_seed: u64,
    prep: &fcexec::PreparedProgram,
    step_latency: &[Option<f64>],
    lease: &B::Lease,
    mut record: Option<&mut Vec<StepTrace>>,
) -> Result<JobOutcome> {
    let seed = mix3(batch_seed, job.id as u64, profile.chip_seed);
    let cost = &profile.cost;
    let mut retries = 0u32;
    let mut failed_ops = 0usize;
    // Time already burned on chips that died mid-job is part of the
    // job's served latency; re-placements also consumed retry budget.
    let mut latency = asg.wasted_ns;
    let mut energy = 0.0f64;
    let observer = |i: usize, step: &fcsynth::Step| {
        let (mut p, model_l, e) = match step.op {
            None => (
                cost.not_success(),
                cost.not_latency_ns(),
                cost.not_energy_pj(),
            ),
            Some(op) => {
                let n = step.args.len();
                (
                    cost.success(op, n),
                    cost.latency_ns(op, n),
                    cost.energy_pj(op, n),
                )
            }
        };
        if asg.success_exp != 1.0 {
            // Fault-model derating (disturbance pressure × wear): the
            // guard keeps the no-fault path bit-identical.
            p = p.powf(asg.success_exp);
        }
        let l = step_latency[i].unwrap_or(model_l);
        let mut attempt = 0u64;
        let mut attempts = 0u32;
        let mut step_failed = false;
        loop {
            attempts += 1;
            latency += l;
            energy += e;
            let draw = hash_to_unit(mix3(seed, i as u64, attempt));
            if draw < p {
                break;
            }
            if retries < retry_budget {
                retries += 1;
                attempt += 1;
            } else {
                failed_ops += 1;
                step_failed = true;
                break;
            }
        }
        if let Some(rec) = record.as_deref_mut() {
            rec.push(StepTrace {
                name: fcexec::obs::step_name(step),
                model_ns: model_l,
                energy_pj: e,
                attempts,
                acts: fcexec::obs::step_acts(step),
                failed: step_failed,
            });
        }
    };
    let result = backend.run_prepared_leased(prep, lease, &job.operands, observer)?;
    Ok(JobOutcome {
        job: job.id,
        label: job.label.clone(),
        member: asg.member,
        chip: profile.label.clone(),
        wave: asg.wave,
        admission: asg.admission,
        succeeded: failed_ops == 0,
        ops: asg.program.steps.len(),
        retries,
        failed_ops,
        replacements: asg.replacements,
        predicted_success: asg.predicted.expected_success,
        latency_ns: latency,
        energy_pj: energy,
        result,
    })
}

/// Groups job indices by fusion key — the planned jobs that can share
/// one fused run: same fleet member (same profile, same chip seed),
/// same lane count (same staging shape) and same mapped program (same
/// prepared plan) — each group in submission order and groups in order
/// of first appearance. Adjacency is irrelevant, so a round-robin
/// template mix fuses as well as a sorted one. A linear scan over group
/// representatives ([`find_program`]: by pointer, then structurally on
/// a miss); a map keyed on serialized programs would cost more than it
/// saves at batch sizes.
fn fusion_groups(jobs: &[Job], asgs: &[Assignment]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, (job, asg)) in jobs.iter().zip(asgs).enumerate() {
        let found = find_program(&groups, &asg.program, |g| {
            let (head, lead) = (&jobs[g[0]], &asgs[g[0]]);
            (lead.member == asg.member && head.lanes == job.lanes).then_some(&*lead.program)
        });
        match found {
            Some(k) => groups[k].push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// Jobs that belong to a cross-job fused run under serial submission
/// order: the sum of sizes of fusion groups of two or more when the
/// whole batch is grouped by fusion key (same fleet member, mapped
/// program, and lane count). A pure function of the
/// batch and the plan — independent of the shard count and the
/// backend — so observability counters derived from it byte-diff
/// cleanly across both.
pub fn fused_jobs(batch: &Batch, plan: &Plan) -> usize {
    fusion_groups(batch.jobs(), &plan.assignments)
        .iter()
        .map(Vec::len)
        .filter(|&n| n >= 2)
        .sum()
}

/// Runs one fusion group on the chunk's pooled host VM for its lane
/// count, on the policy-selected backend kind — the VM itself, or the
/// same VM wrapped in [`ScheduleTimed`] at the member's speed bin — and
/// hands the VM back with its trace cleared. The group's jobs share a
/// program, a lane count, and an operand count ([`fusion_groups`],
/// [`Batch::push`]).
fn run_group(
    mut vm: SimdVm<HostSubstrate>,
    prep: &fcexec::PreparedProgram,
    group: &[(&Job, &Assignment, u32)],
    profile: &crate::planner::ChipProfile,
    policy: &SchedPolicy,
    batch_seed: u64,
    record: bool,
) -> (SimdVm<HostSubstrate>, Result<Vec<JobRun>>) {
    let runs = match policy.backend {
        BackendKind::Vm => run_group_on(&mut vm, prep, group, profile, batch_seed, record),
        BackendKind::Bender => {
            let mut timed = ScheduleTimed::new(vm, profile.speed);
            let runs = run_group_on(&mut timed, prep, group, profile, batch_seed, record);
            vm = timed.into_inner();
            runs
        }
    };
    vm.clear_trace();
    (vm, runs)
}

/// One lane count's pooled host VM: built at the first group that
/// needs it, sized for the largest group of that lane count in the
/// chunk, reused by every later one.
struct LanePool {
    lanes: usize,
    /// Row budget: the largest group's plan arena plus its staged
    /// operand rows, plus the two constant rows and an output row.
    capacity: usize,
    vm: Option<SimdVm<HostSubstrate>>,
}

/// Runs one contiguous submission-order chunk of jobs as fusion groups
/// ([`fusion_groups`]), a lone job being a group of one. The chunk
/// prepares each distinct assigned program once and builds one host VM
/// per lane count; every group runs from its program's plan on its lane
/// count's VM — one bulk staging, jobs in submission order within the
/// group — and results are scattered back to their submission-order
/// slots. Host results never depend on row ids, and every job's retry
/// draws and modeled costs key on the job and its assignment alone,
/// never on its neighbours or on the reused VM, so outcomes do not
/// depend on how the chunk groups. A group's setup error is every
/// member's error.
fn run_chunk(
    jobs: &[Job],
    asgs: &[Assignment],
    profiles: &[crate::planner::ChipProfile],
    policy: &SchedPolicy,
    batch_seed: u64,
    record: bool,
) -> Vec<JobRun> {
    let groups = fusion_groups(jobs, asgs);
    // Plan first, so each VM can be sized from its groups' arenas. A
    // host plan is the backend-independent analysis at the host fan-in
    // on both backend kinds (`ScheduleTimed` prepares through the VM).
    let mut plans: Vec<fcexec::PreparedProgram> = Vec::new();
    let mut pools: Vec<LanePool> = Vec::new();
    let mut slots: Vec<(usize, usize)> = Vec::with_capacity(groups.len());
    for g in &groups {
        let (job, asg) = (&jobs[g[0]], &asgs[g[0]]);
        let k = match find_program(&plans, &asg.program, |p| Some(p.program())) {
            Some(k) => k,
            None => {
                plans.push(fcexec::PreparedProgram::analyze(
                    &asg.program,
                    simdram::MAX_FAN_IN,
                ));
                plans.len() - 1
            }
        };
        let need = (plans[k].arena_slots() + g.len() * job.operands.len() + 4).max(8);
        let v = match pools.iter().position(|p| p.lanes == job.lanes) {
            Some(v) => {
                pools[v].capacity = pools[v].capacity.max(need);
                v
            }
            None => {
                pools.push(LanePool {
                    lanes: job.lanes,
                    capacity: need,
                    vm: None,
                });
                pools.len() - 1
            }
        };
        slots.push((k, v));
    }
    let mut out: Vec<Option<JobRun>> = (0..jobs.len()).map(|_| None).collect();
    for (g, (k, v)) in groups.iter().zip(slots) {
        // Re-placements off dying chips already spent part of a job's
        // retry budget: the policy budget is honored across the whole
        // served life of the job, not per placement.
        let group: Vec<(&Job, &Assignment, u32)> = g
            .iter()
            .map(|&i| {
                let budget = policy.retry_budget.saturating_sub(asgs[i].replacements);
                (&jobs[i], &asgs[i], budget)
            })
            .collect();
        let profile = &profiles[asgs[g[0]].member];
        let pool = &mut pools[v];
        let vm = match pool.vm.take() {
            Some(vm) => Ok(vm),
            None => SimdVm::new(HostSubstrate::new(pool.lanes, pool.capacity)),
        };
        let runs = vm
            .map_err(|e| fcexec::ExecError::from(e).into())
            .and_then(|vm| {
                let (vm, runs) =
                    run_group(vm, &plans[k], &group, profile, policy, batch_seed, record);
                pool.vm = Some(vm);
                runs
            });
        match runs {
            Ok(runs) => {
                for (&i, r) in g.iter().zip(runs) {
                    out[i] = Some(r);
                }
            }
            Err(e) => {
                for &i in g {
                    out[i] = Some(Err(e.clone()));
                }
            }
        }
    }
    out.into_iter()
        .map(|r| r.expect("every chunk job executed"))
        .collect()
}

/// Executes a planned batch, sharding jobs over scoped worker threads.
///
/// # Errors
///
/// Fails when a job's execution fails at the substrate level (row
/// exhaustion, lane mismatch); the error of the earliest-submitted
/// failing job is returned.
///
/// # Panics
///
/// Panics when `plan` was built for a different batch (assignment
/// count mismatch) or a worker thread panics.
pub fn execute_plan(batch: &Batch, plan: &Plan, policy: &SchedPolicy) -> Result<BatchReport> {
    execute_plan_impl(batch, plan, policy, false).map(|(report, _)| report)
}

/// [`execute_plan`] with trace emission: job and step spans on the
/// modeled clock, plus the plan's fault timeline, written to `sink`
/// in submission order *after* shard reassembly — never in thread
/// completion order — so the emitted stream is identical for every
/// shard count. All span durations come from the cost model and the
/// deterministic retry draws (one `StepTrace` per executed step), so the stream is
/// also identical across vm/bender backends. The report is
/// byte-identical to [`execute_plan`]'s.
///
/// # Errors
///
/// Same failure modes as [`execute_plan`].
///
/// # Panics
///
/// Same as [`execute_plan`].
pub fn execute_plan_traced(
    batch: &Batch,
    plan: &Plan,
    policy: &SchedPolicy,
    ctx: &TraceCtx,
    sink: &mut dyn fcobs::TraceSink,
) -> Result<BatchReport> {
    let record = sink.enabled();
    let (report, traces) = execute_plan_impl(batch, plan, policy, record)?;
    if record {
        emit_batch_events(batch, plan, &report, &traces, ctx, sink);
    }
    Ok(report)
}

/// Modeled-clock context for [`execute_plan_traced`]: where this batch
/// sits on the daemon timeline. Standalone batches use the default
/// (tick 0 at 0 ns).
#[derive(Debug, Clone, Default)]
pub struct TraceCtx {
    /// Daemon tick the batch ran in (ordering key, major).
    pub tick: u64,
    /// Modeled nanoseconds at the start of the tick.
    pub base_ns: f64,
    /// Per-job modeled queue wait, nanoseconds (empty = all zero).
    pub queue_wait_ns: Vec<f64>,
}

/// What one job's worker hands back: its outcome plus the recorded
/// per-step traces (empty unless recording).
type JobRun = Result<(JobOutcome, Vec<StepTrace>)>;

/// The shared sharded loop behind [`execute_plan`] /
/// [`execute_plan_traced`]: `record = false` is the exact
/// pre-observability path (per-job traces stay empty).
fn execute_plan_impl(
    batch: &Batch,
    plan: &Plan,
    policy: &SchedPolicy,
    record: bool,
) -> Result<(BatchReport, Vec<Vec<StepTrace>>)> {
    assert_eq!(
        plan.assignments.len(),
        batch.len(),
        "plan does not match batch"
    );
    let n = batch.len();
    let results = dram_core::shard::sharded_map(n, policy.shards, |range| {
        run_chunk(
            &batch.jobs()[range.clone()],
            &plan.assignments[range],
            &plan.profiles,
            policy,
            batch.seed(),
            record,
        )
    });
    let mut outcomes = Vec::with_capacity(n);
    let mut traces = Vec::with_capacity(n);
    for r in results {
        let (outcome, steps) = r?;
        outcomes.push(outcome);
        traces.push(steps);
    }
    Ok((
        BatchReport {
            outcomes,
            shards: policy.effective_workers(n),
            waves: plan.waves,
            chips: plan.profiles.len(),
            seed: batch.seed(),
            health: plan.health.clone(),
        },
        traces,
    ))
}

/// Emits the batch's trace stream: one `batch` span, the fault
/// timeline, then per job a `sched` span and its `exec` step spans.
/// Called once, in submission order, after shard reassembly.
fn emit_batch_events(
    batch: &Batch,
    plan: &Plan,
    report: &BatchReport,
    traces: &[Vec<StepTrace>],
    ctx: &TraceCtx,
    sink: &mut dyn fcobs::TraceSink,
) {
    use fcobs::{Phase, TraceEvent};
    let base = ctx.base_ns;
    let mut batch_end = 0.0f64;
    for (idx, ((asg, steps), out)) in plan
        .assignments
        .iter()
        .zip(traces)
        .zip(&report.outcomes)
        .enumerate()
    {
        let who = plan.profiles[asg.member].label.clone();
        let wait = ctx.queue_wait_ns.get(idx).copied().unwrap_or(0.0);
        let served_ns: f64 = asg.wasted_ns
            + steps
                .iter()
                .map(|s| s.model_ns * f64::from(s.attempts))
                .sum::<f64>();
        batch_end = batch_end.max(asg.start_ns + served_ns);
        sink.record(TraceEvent {
            phase: Phase::Span,
            cat: "sched".into(),
            name: out.label.clone(),
            who: who.clone(),
            track: 1 + asg.member as u64,
            tick: ctx.tick,
            job: 1 + idx as u64,
            step: 0,
            ts_ns: base + asg.start_ns,
            dur_ns: served_ns,
            args: vec![
                ("member".into(), asg.member as f64),
                ("wave".into(), asg.wave as f64),
                ("retries".into(), f64::from(out.retries)),
                ("failed".into(), f64::from(u8::from(!out.succeeded))),
                ("queue_wait_ns".into(), wait),
                ("predicted_ns".into(), asg.predicted.latency_ns),
                ("wasted_ns".into(), asg.wasted_ns),
            ],
        });
        let mut cursor = base + asg.start_ns + asg.wasted_ns;
        let mut step_starts = Vec::with_capacity(steps.len() + 1);
        for (i, s) in steps.iter().enumerate() {
            let dur = s.model_ns * f64::from(s.attempts);
            step_starts.push(cursor);
            sink.record(TraceEvent {
                phase: Phase::Span,
                cat: "exec".into(),
                name: s.name.clone(),
                who: who.clone(),
                track: 1 + asg.member as u64,
                tick: ctx.tick,
                job: 1 + idx as u64,
                step: 1 + i as u64,
                ts_ns: cursor,
                dur_ns: dur,
                args: vec![
                    ("attempts".into(), f64::from(s.attempts)),
                    ("acts".into(), s.acts as f64),
                    ("energy_pj".into(), s.energy_pj * f64::from(s.attempts)),
                    ("failed".into(), f64::from(u8::from(s.failed))),
                ],
            });
            cursor += dur;
        }
        step_starts.push(cursor);
        // One span per fused visit (a maximal run of gate steps between
        // copy steps) — derived from the program's step plan and the
        // modeled step clock, so the emitted stream is identical on
        // every backend, at every shard count.
        for (v, &(start, end)) in fcexec::fused_visits_of(&asg.program).iter().enumerate() {
            sink.record(TraceEvent {
                phase: Phase::Span,
                cat: "engine".into(),
                name: "visit".into(),
                who: who.clone(),
                track: 1 + asg.member as u64,
                tick: ctx.tick,
                job: 1 + idx as u64,
                step: 1000 + v as u64,
                ts_ns: step_starts[start],
                dur_ns: step_starts[end] - step_starts[start],
                args: vec![
                    ("steps".into(), (end - start) as f64),
                    ("first_step".into(), start as f64),
                ],
            });
        }
    }
    sink.record(TraceEvent {
        phase: Phase::Span,
        cat: "sched".into(),
        name: "batch".into(),
        who: "scheduler".into(),
        track: 0,
        tick: ctx.tick,
        job: 0,
        step: 2,
        ts_ns: base,
        dur_ns: batch_end,
        args: vec![
            ("jobs".into(), batch.len() as f64),
            ("waves".into(), plan.waves as f64),
            ("chips".into(), plan.profiles.len() as f64),
        ],
    });
    if let Some(health) = &plan.health {
        for (k, ev) in health.timeline.iter().enumerate() {
            sink.record(TraceEvent {
                phase: Phase::Instant,
                cat: "fault".into(),
                name: ev.kind.clone(),
                who: ev.chip.clone(),
                track: 1 + ev.member as u64,
                tick: ctx.tick,
                job: 0,
                step: 50 + k as u64,
                ts_ns: base + ev.at_ns,
                dur_ns: 0.0,
                args: vec![
                    ("member".into(), ev.member as f64),
                    // "job" is a reserved Chrome-args key (the
                    // ordering key rides there); the placement index
                    // gets its own name.
                    ("at_job".into(), ev.job as f64),
                ],
            });
        }
    }
}

/// Plans and executes a batch in one call: the scheduler's front door.
///
/// # Errors
///
/// Propagates planning ([`crate::planner::Planner::plan`]) and
/// execution ([`execute_plan`]) failures.
pub fn serve_batch(
    fleet: &dram_core::FleetConfig,
    base: &fcsynth::CostModel,
    policy: &SchedPolicy,
    batch: &Batch,
) -> Result<BatchReport> {
    let plan = crate::planner::Planner::new(fleet, base, policy).plan(batch)?;
    execute_plan(batch, &plan, policy)
}

/// The cost a perfectly-reliable serial baseline would predict for a
/// batch (no retries, population-mean model): used by reports to show
/// the reliability overhead scheduling absorbed.
pub fn ideal_cost(batch: &Batch, base: &fcsynth::CostModel) -> ProgramCost {
    let mut success = 1.0f64;
    let mut latency = 0.0f64;
    let mut energy = 0.0f64;
    for job in batch.jobs() {
        let c = job.program.price(base);
        success *= c.expected_success;
        latency += c.latency_ns;
        energy += c.energy_pj;
    }
    ProgramCost {
        expected_success: success,
        latency_ns: latency,
        energy_pj: energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{batch_of, batch_of_seeded};
    use dram_core::FleetConfig;
    use fcsynth::CostModel;

    const MIX: [&str; 5] = [
        "a & b",
        "a ^ b ^ c",
        "(a & b) | (c & d)",
        "!(a | b | c | d)",
        "a&b&c&d&e&f&g&h",
    ];

    #[test]
    fn results_are_host_exact() {
        let fleet = FleetConfig::table1(3);
        let base = CostModel::table1_defaults();
        let policy = SchedPolicy::default().with_shards(1);
        let batch = batch_of(&MIX, 33, 0xBA7C);
        let report = serve_batch(&fleet, &base, &policy, &batch).unwrap();
        assert_eq!(report.outcomes.len(), MIX.len());
        for (job, out) in batch.jobs().iter().zip(&report.outcomes) {
            // Reference: direct packed execution of the submitted
            // program on a fresh host VM.
            let mut vm =
                SimdVm::new(HostSubstrate::new(job.lanes, job.program.n_regs + 8)).unwrap();
            let prep = vm.prepare(&job.program).unwrap();
            let expect = fcexec::run_prepared(&mut vm, &prep, &job.operands).unwrap();
            assert_eq!(out.result, expect, "{}", job.label);
            assert!(out.ops >= 1);
            assert!(out.latency_ns > 0.0);
        }
    }

    #[test]
    fn sharded_report_is_bit_identical_to_serial() {
        let fleet = FleetConfig::table1(4);
        let base = CostModel::table1_defaults();
        let batch = batch_of(&MIX, 17, 42);
        let serial = serve_batch(
            &fleet,
            &base,
            &SchedPolicy::default().with_shards(1),
            &batch,
        )
        .unwrap();
        for shards in [2usize, 3, 5] {
            let sharded = serve_batch(
                &fleet,
                &base,
                &SchedPolicy::default().with_shards(shards),
                &batch,
            )
            .unwrap();
            assert_eq!(
                serial.outcomes, sharded.outcomes,
                "shard count {shards} changed outcomes"
            );
        }
    }

    #[test]
    fn retry_accounting_is_deterministic_and_seed_sensitive() {
        let fleet = FleetConfig::table1(2);
        let base = CostModel::table1_defaults();
        let policy = SchedPolicy::default().with_shards(2);
        let a = serve_batch(&fleet, &base, &policy, &batch_of(&MIX, 16, 11)).unwrap();
        let b = serve_batch(&fleet, &base, &policy, &batch_of(&MIX, 16, 11)).unwrap();
        assert_eq!(a.outcomes, b.outcomes, "fixed seed, fixed accounting");
        // Same operand data, different *batch* seed: only the retry
        // draws may move.
        let c = serve_batch(&fleet, &base, &policy, &batch_of_seeded(&MIX, 16, 11, 12)).unwrap();
        // Results stay identical (host-exact)...
        for (x, y) in a.outcomes.iter().zip(&c.outcomes) {
            assert_eq!(x.result, y.result, "results are seed-independent");
        }
        // ...but a long-run batch under a different seed draws
        // different retry trajectories somewhere.
        let retries_a: u32 = a.outcomes.iter().map(|o| o.retries).sum();
        let retries_c: u32 = c.outcomes.iter().map(|o| o.retries).sum();
        let lat_a: f64 = a.outcomes.iter().map(|o| o.latency_ns).sum();
        let lat_c: f64 = c.outcomes.iter().map(|o| o.latency_ns).sum();
        assert!(
            retries_a != retries_c || (lat_a - lat_c).abs() > 1e-9 || retries_a == 0,
            "different seeds should perturb accounting (a={retries_a}, c={retries_c})"
        );
    }

    #[test]
    fn zero_retry_budget_marks_failures() {
        let fleet = FleetConfig::table1(1);
        let base = CostModel::table1_defaults();
        let policy = SchedPolicy {
            retry_budget: 0,
            shards: 1,
            ..SchedPolicy::default()
        };
        // Many wide gates: with no retries some op eventually draws a
        // failure under the derated chip model.
        let exprs: Vec<&str> = std::iter::repeat_n("a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p", 24).collect();
        let batch = batch_of(&exprs, 8, 0x5EED);
        let report = serve_batch(&fleet, &base, &policy, &batch).unwrap();
        let failed = report.outcomes.iter().filter(|o| !o.succeeded).count();
        assert!(failed > 0, "no failures across {} wide jobs", exprs.len());
        assert!(report.outcomes.iter().all(|o| o.retries == 0));
        for o in &report.outcomes {
            assert_eq!(o.succeeded, o.failed_ops == 0);
        }
    }

    #[test]
    fn retries_reuse_the_prepared_staging() {
        // Two-phase API regression: the retry loop charges modeled
        // attempts, but the device executes the prepared program
        // exactly once per job — raising the budget must not add a
        // single native operation or host transfer, and operands are
        // staged once per job, never per attempt.
        let fleet = FleetConfig::table1(1);
        let base = CostModel::table1_defaults();
        let policy = SchedPolicy::default().with_shards(1);
        let exprs: Vec<&str> = std::iter::repeat_n("a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p", 24).collect();
        let batch = batch_of(&exprs, 8, 0x5EED);
        let plan = crate::planner::Planner::new(&fleet, &base, &policy)
            .plan(&batch)
            .unwrap();
        let run_budget = |budget: u32| {
            batch
                .jobs()
                .iter()
                .zip(&plan.assignments)
                .map(|(job, asg)| {
                    let capacity = (asg.program.n_regs + job.operands.len() + 4).max(8);
                    let mut vm = SimdVm::new(HostSubstrate::new(job.lanes, capacity)).unwrap();
                    vm.clear_trace();
                    let out = run_job_on(
                        &mut vm,
                        job,
                        asg,
                        &plan.profiles[asg.member],
                        budget,
                        batch.seed(),
                    )
                    .unwrap();
                    let writes = vm
                        .trace()
                        .entries()
                        .iter()
                        .filter(|e| e.op == simdram::NativeOp::HostWrite)
                        .count();
                    assert_eq!(writes, job.operands.len(), "operands staged once per job");
                    (
                        out.result.clone(),
                        out.retries,
                        vm.trace().entries().to_vec(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let zero = run_budget(0);
        let five = run_budget(5);
        let retried: u32 = five.iter().map(|(_, r, _)| *r).sum();
        assert!(retried > 0, "budget 5 must actually spend retries here");
        for ((ra, _, ea), (rb, _, eb)) in zero.iter().zip(&five) {
            assert_eq!(ra, rb, "results are budget-independent");
            assert_eq!(ea, eb, "device-call stream moved with the retry budget");
        }
    }

    #[test]
    fn pooled_vm_and_shared_plans_change_nothing() {
        // Two lane counts in one chunk, programs spread over several
        // members, and a budget tight enough that retries run out.
        let fleet = FleetConfig::table1(3);
        let base = CostModel::table1_defaults();
        let exprs: Vec<&str> = MIX
            .into_iter()
            .chain(["a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p"])
            .collect();
        let compiled: Vec<fcsynth::Mapping> = exprs
            .iter()
            .map(|t| fcsynth::compile(t, &base, 16).unwrap().mapping)
            .collect();
        let mut batch = Batch::new(0x9001);
        for j in 0..36usize {
            let k = j % exprs.len();
            let lanes = if j % 2 == 0 { 64 } else { 4096 };
            let ops = (0..compiled[k].program.inputs.len())
                .map(|i| PackedBits::seeded(j as u64, i as u64, lanes))
                .collect();
            batch.push(exprs[k], &compiled[k], ops, lanes).unwrap();
        }
        for backend in [BackendKind::Vm, BackendKind::Bender] {
            let policy = SchedPolicy {
                backend,
                retry_budget: 1,
                shards: 1,
                ..SchedPolicy::default()
            };
            let plan = crate::planner::Planner::new(&fleet, &base, &policy)
                .plan(&batch)
                .unwrap();
            let groups = fusion_groups(batch.jobs(), &plan.assignments);
            let spread = groups.iter().any(|a| {
                groups.iter().any(|b| {
                    let (x, y) = (&plan.assignments[a[0]], &plan.assignments[b[0]]);
                    x.member != y.member && x.program == y.program
                })
            });
            assert!(spread, "some program runs on two members");
            let report = execute_plan(&batch, &plan, &policy).unwrap();
            // Reference: every job alone on a fresh VM, sized as the
            // per-group path used to size it.
            for (job, (asg, out)) in batch
                .jobs()
                .iter()
                .zip(plan.assignments.iter().zip(&report.outcomes))
            {
                let profile = &plan.profiles[asg.member];
                let budget = policy.retry_budget.saturating_sub(asg.replacements);
                let capacity = (asg.program.n_regs + job.operands.len() + 4).max(8);
                let vm = SimdVm::new(HostSubstrate::new(job.lanes, capacity)).unwrap();
                let expect = match backend {
                    BackendKind::Vm => {
                        let mut vm = vm;
                        run_job_on(&mut vm, job, asg, profile, budget, batch.seed())
                    }
                    BackendKind::Bender => {
                        let mut timed = ScheduleTimed::new(vm, profile.speed);
                        run_job_on(&mut timed, job, asg, profile, budget, batch.seed())
                    }
                }
                .unwrap();
                assert_eq!(*out, expect, "{backend:?} {}", job.label);
            }
            assert!(report.total_retries() > 0, "the budget is spent");
            // Each group hands its lane count's VM back holding only the
            // two constant rows, with its trace cleared.
            let mut pool: Vec<SimdVm<HostSubstrate>> = Vec::new();
            for g in &groups {
                let (job, asg) = (&batch.jobs()[g[0]], &plan.assignments[g[0]]);
                let prep = fcexec::PreparedProgram::analyze(&asg.program, simdram::MAX_FAN_IN);
                let group: Vec<(&Job, &Assignment, u32)> = g
                    .iter()
                    .map(|&i| (&batch.jobs()[i], &plan.assignments[i], policy.retry_budget))
                    .collect();
                let v = match pool.iter().position(|vm| vm.lanes() == job.lanes) {
                    Some(v) => v,
                    None => {
                        pool.push(SimdVm::new(HostSubstrate::new(job.lanes, 256)).unwrap());
                        pool.len() - 1
                    }
                };
                let vm = pool.swap_remove(v);
                let profile = &plan.profiles[asg.member];
                let (vm, runs) = run_group(vm, &prep, &group, profile, &policy, batch.seed(), true);
                assert_eq!(runs.unwrap().len(), g.len());
                assert_eq!(vm.substrate().live_rows(), 2, "rows leaked past a group");
                assert!(vm.trace().is_empty(), "trace kept across groups");
                pool.push(vm);
            }
            assert_eq!(pool.len(), 2, "one VM per lane count");
        }
    }

    #[test]
    fn bender_backend_moves_latency_and_nothing_else() {
        let fleet = FleetConfig::table1(3);
        let base = CostModel::table1_defaults();
        let batch = batch_of(&MIX, 24, 0xC0DE);
        let vm = serve_batch(
            &fleet,
            &base,
            &SchedPolicy::default().with_shards(1),
            &batch,
        )
        .unwrap();
        let bender_policy = SchedPolicy {
            backend: BackendKind::Bender,
            shards: 2,
            ..SchedPolicy::default()
        };
        let bender = serve_batch(&fleet, &base, &bender_policy, &batch).unwrap();
        assert!(vm.outcomes != bender.outcomes, "latency models must differ");
        for (a, b) in vm.outcomes.iter().zip(&bender.outcomes) {
            assert_eq!(a.result, b.result, "{}: backend changed answers", a.label);
            assert_eq!(a.retries, b.retries, "retry draws are backend-independent");
            assert_eq!(a.succeeded, b.succeeded);
            assert_eq!(a.energy_pj, b.energy_pj, "energy stays the cost model's");
            assert_ne!(
                a.latency_ns, b.latency_ns,
                "{}: command schedules price differently",
                a.label
            );
        }
    }

    #[test]
    fn faulted_serve_is_host_exact_and_shard_invariant() {
        let fleet = FleetConfig::table1(3);
        let base = CostModel::table1_defaults();
        let faults = dram_core::FaultPlan {
            aging: dram_core::AgingPolicy {
                acceleration: 0.0,
                ..dram_core::AgingPolicy::default()
            },
            dropouts: vec![dram_core::PlannedDropout {
                member: 1,
                after_ns: 400.0,
            }],
            ..dram_core::FaultPlan::demo()
        };
        let exprs: Vec<&str> = MIX.into_iter().cycle().take(20).collect();
        let batch = batch_of(&exprs, 16, 0xDE6);
        let serial = serve_batch(
            &fleet,
            &base,
            &SchedPolicy {
                faults: Some(faults.clone()),
                shards: 1,
                ..SchedPolicy::default()
            },
            &batch,
        )
        .unwrap();
        let sharded = serve_batch(
            &fleet,
            &base,
            &SchedPolicy {
                faults: Some(faults),
                shards: 5,
                ..SchedPolicy::default()
            },
            &batch,
        )
        .unwrap();
        assert_eq!(
            serial.to_json(),
            sharded.to_json(),
            "faulted report is byte-identical across shard counts"
        );
        let health = serial.health.as_ref().expect("health rides the report");
        assert_eq!(health.dropouts.len(), 1);
        assert!(
            serial.outcomes.iter().any(|o| o.replacements > 0),
            "the dropout re-placed at least one in-flight job"
        );
        // Every job — including the re-placed ones — stays host-exact.
        for (job, out) in batch.jobs().iter().zip(&serial.outcomes) {
            let mut vm =
                SimdVm::new(HostSubstrate::new(job.lanes, job.program.n_regs + 8)).unwrap();
            let prep = vm.prepare(&job.program).unwrap();
            let expect = fcexec::run_prepared(&mut vm, &prep, &job.operands).unwrap();
            assert_eq!(out.result, expect, "{}", job.label);
        }
    }

    #[test]
    fn traced_execution_is_invariant_and_changes_nothing() {
        let fleet = FleetConfig::table1(3);
        let base = CostModel::table1_defaults();
        let batch = batch_of(&MIX, 16, 0x0B5);
        let collect = |shards: usize, backend: BackendKind| {
            let policy = SchedPolicy {
                backend,
                shards,
                ..SchedPolicy::default()
            };
            let plan = crate::planner::Planner::new(&fleet, &base, &policy)
                .plan(&batch)
                .unwrap();
            let mut buf = fcobs::TraceBuffer::new(1 << 14);
            let report =
                execute_plan_traced(&batch, &plan, &policy, &TraceCtx::default(), &mut buf)
                    .unwrap();
            (report, buf.finish())
        };
        let (r1, t1) = collect(1, BackendKind::Vm);
        assert!(!t1.is_empty());
        assert!(t1.iter().any(|e| e.cat == "exec"), "step spans present");
        assert!(t1.iter().any(|e| e.name == "batch"), "batch span present");
        // The trace stream is identical across shard counts AND
        // backends (determinism invariant #4): every traced duration
        // comes from the cost model, never the backend's latency.
        for (shards, backend) in [
            (5, BackendKind::Vm),
            (1, BackendKind::Bender),
            (5, BackendKind::Bender),
        ] {
            let (_, t) = collect(shards, backend);
            assert_eq!(t, t1, "trace moved under shards={shards} {backend:?}");
        }
        // Tracing never changes the report; a disabled sink takes the
        // exact untraced path.
        let policy = SchedPolicy::default().with_shards(1);
        let plan = crate::planner::Planner::new(&fleet, &base, &policy)
            .plan(&batch)
            .unwrap();
        let untraced = execute_plan(&batch, &plan, &policy).unwrap();
        assert_eq!(r1.outcomes, untraced.outcomes);
        let mut null = fcobs::NullSink;
        let nulled =
            execute_plan_traced(&batch, &plan, &policy, &TraceCtx::default(), &mut null).unwrap();
        assert_eq!(nulled.outcomes, untraced.outcomes);
    }

    #[test]
    fn ideal_cost_sums_the_batch() {
        let base = CostModel::table1_defaults();
        let batch = batch_of(&["a & b", "a | b"], 8, 0);
        let ideal = ideal_cost(&batch, &base);
        assert!(ideal.latency_ns > 0.0);
        assert!(ideal.expected_success > 0.9);
    }
}
