//! The tick engine: streaming ingestion, admission, SLO-biased
//! micro-batching, graceful drain, and deterministic replay.
//!
//! ## Execution model
//!
//! The daemon advances a modeled tick clock. Each tick it (1) ingests
//! the tick's arrivals — live mode pulls them from per-tenant
//! producer threads over bounded channels, replay slices them out of
//! a [`SessionLog`] — running admission control per job; (2) drains
//! the per-tenant queues into one micro-batch of at most
//! `max_batch` jobs, gold tier first, SLO-violating tenants bumped to
//! the front of their tier (they reach the planner earlier and so get
//! the least-loaded chips — the placement bias); (3) hands the batch
//! to the existing [`fcsched`] planner/executor; (4) charges each
//! completed job its *modeled* latency: whole ticks of queue wait
//! plus the planner's cost-model service prediction scaled by the
//! deterministic retry count. After the configured ingestion window
//! the daemon stops admitting and drains until the queues are empty
//! (bounded by `drain_max`).
//!
//! ## Why live and replay agree byte-for-byte
//!
//! Live producers are *traffic generators*, not decision makers: they
//! emit the same [`IngestEvent`]s the session log records, one
//! message per tick per tenant, and the consumer ingests them in
//! tenant order — so the engine sees an identical event stream either
//! way. Every decision downstream (admission, batch formation, retry
//! draws keyed on `mix2(session seed, tick)`) is a pure function of
//! that stream, and every reported number is backend-invariant, which
//! is what lets CI byte-diff one recorded session across
//! `{vm,bender} × {1,5}-shard` replays. The bounded channels give
//! real ingestion backpressure (producers stall when the engine falls
//! behind) without giving the scheduler a wall clock.

use crate::report::{DaemonReport, DaemonTotals, HealthSnapshot, TenantHealth, TenantReport};
use crate::session::{IngestEvent, SessionLog};
use crate::tier::{DaemonConfig, TenantSpec, TierClass};
use crate::{Result, ServeError};
use dram_core::math::{mix2, mix3};
use dram_core::FleetConfig;
use fcdram::PackedBits;
use fcobs::{MetricsRegistry, Observability, Phase, TraceEvent, TraceSink};
use fcsched::{execute_plan, execute_plan_traced, Batch, LatencySummary, Planner, TraceCtx};
use fcsynth::{CostModel, Mapping};
use std::collections::VecDeque;
use std::sync::mpsc::sync_channel;

/// How many ticks a live producer may run ahead of the engine before
/// its channel send blocks — the ingestion backpressure bound.
const PRODUCER_LOOKAHEAD: usize = 2;

/// A compiled tenant expression with its cached admission decision
/// (same program, same model, same floor — the decision never
/// changes, so it is made once).
#[derive(Debug, Clone)]
struct CompiledExpr {
    /// The mapping submitted to the scheduler (the planner may still
    /// narrow it per chip).
    run: Mapping,
    /// Program input count (narrowing never changes it).
    inputs: usize,
    /// Whether the expression is admissible at all: some native-width
    /// variant clears the tenant's reliability floor under the
    /// population cost model.
    admitted: bool,
}

/// One queued, admitted job.
#[derive(Debug, Clone, Copy)]
struct QueuedJob {
    event: IngestEvent,
}

/// Per-tenant running counters.
#[derive(Debug, Clone, Copy, Default)]
struct TenantStats {
    submitted: usize,
    admitted: usize,
    narrowed: usize,
    rejected: usize,
    shed: usize,
    completed: usize,
    failed: usize,
    retries: u64,
    peak_queue: usize,
}

/// The serving engine. Most callers want the front doors
/// ([`run_live`] / [`replay`]); the engine itself is public so the
/// CLI and tests can drive custom tick schedules.
#[derive(Debug)]
pub struct Daemon<'a> {
    fleet: &'a FleetConfig,
    cost: &'a CostModel,
    cfg: DaemonConfig,
    /// The session's planner: chip profiles and admission decisions
    /// are derived once and reused by every micro-batch.
    planner: Planner<'a>,
    tenants: Vec<TenantSpec>,
    compiled: Vec<Vec<Option<CompiledExpr>>>,
    queues: Vec<VecDeque<QueuedJob>>,
    stats: Vec<TenantStats>,
    /// Rolling modeled-latency windows (ns), one per tenant.
    windows: Vec<VecDeque<f64>>,
    /// Every completed job's modeled latency (ns), per tenant.
    latencies: Vec<Vec<f64>>,
    snapshots: Vec<HealthSnapshot>,
    tick: usize,
    batches: usize,
    native_ops: usize,
    /// Fused visits (maximal runs of gate steps between copy steps)
    /// across every executed job — a pure function of each job's step
    /// plan ([`fcexec::fused_visits_of`]),
    /// counted in submission order, so the exposition is identical
    /// across shard counts and backends.
    engine_visits: usize,
    /// Jobs that belonged to a cross-job fusion group
    /// ([`fcsched::fused_jobs`]) — plan-structural, like
    /// `engine_visits`.
    fused_jobs: usize,
    energy_pj: f64,
    result_digest: u64,
    mitigations: u64,
    dropouts: usize,
    /// Trace + metrics bundle. Disabled by default; when disabled the
    /// engine follows the exact pre-observability code paths, so the
    /// report bytes of an unobserved run are untouched.
    obs: Observability,
}

impl<'a> Daemon<'a> {
    /// A fresh engine over `fleet`, pricing admission against `cost`.
    pub fn new(
        fleet: &'a FleetConfig,
        cost: &'a CostModel,
        cfg: DaemonConfig,
        tenants: Vec<TenantSpec>,
    ) -> Daemon<'a> {
        let n = tenants.len();
        Daemon {
            fleet,
            cost,
            planner: Planner::new(fleet, cost, &cfg.policy),
            compiled: tenants.iter().map(|t| vec![None; t.exprs.len()]).collect(),
            tenants,
            cfg,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            stats: vec![TenantStats::default(); n],
            windows: (0..n).map(|_| VecDeque::new()).collect(),
            latencies: (0..n).map(|_| Vec::new()).collect(),
            snapshots: Vec::new(),
            tick: 0,
            batches: 0,
            native_ops: 0,
            engine_visits: 0,
            fused_jobs: 0,
            energy_pj: 0.0,
            result_digest: 0x5E12_FEED,
            mitigations: 0,
            dropouts: 0,
            obs: Observability::disabled(),
        }
    }

    /// Attach an observability bundle (builder style). Retrieve it —
    /// with the collected trace and last metrics exposition — from
    /// [`Daemon::drain_and_finish_obs`].
    #[must_use]
    pub(crate) fn with_obs(mut self, obs: Observability) -> Self {
        self.obs = obs;
        self
    }

    /// Compiles (once) and admission-checks tenant `t`'s expression
    /// `e` against the tenant's reliability floor.
    fn compile_admit(&mut self, t: usize, e: usize) -> Result<CompiledExpr> {
        if let Some(hit) = &self.compiled[t][e] {
            return Ok(hit.clone());
        }
        let spec = &self.tenants[t];
        let text = &spec.exprs[e];
        let c = fcsynth::compile(text, self.cost, self.cfg.fan_in).map_err(|err| {
            ServeError::Compile {
                tenant: spec.name.clone(),
                expr: text.clone(),
                error: err.to_string(),
            }
        })?;
        let inputs = c.circuit.inputs().len();
        let m = c.mapping;
        // Reliability-aware rejection: the job clears admission if
        // *some* native-width variant — as submitted, or narrowed the
        // same way the planner narrows per chip — meets the tenant's
        // floor under the population model. If even the best variant
        // misses it, no chip assignment can honor the contract in
        // expectation, so the contract says reject, not degrade.
        let best = m
            .program
            .narrowed_variants()
            .map(|(_, cand)| cand.price(self.cost).expected_success)
            .fold(m.expected_success, f64::max);
        let entry = CompiledExpr {
            run: m,
            inputs,
            admitted: best >= spec.min_success,
        };
        self.compiled[t][e] = Some(entry.clone());
        Ok(entry)
    }

    /// Ingests one tick's arrivals: admission (reliability floor,
    /// then shed-or-queue against the tenant's queue bound).
    fn ingest(&mut self, events: &[IngestEvent]) -> Result<()> {
        for ev in events {
            let t = ev.tenant;
            self.stats[t].submitted += 1;
            let comp = self.compile_admit(t, ev.expr)?;
            if !comp.admitted {
                self.stats[t].rejected += 1;
                continue;
            }
            let spec = &self.tenants[t];
            if self.queues[t].len() >= spec.queue_cap && spec.sheddable {
                self.stats[t].shed += 1;
                continue;
            }
            self.stats[t].admitted += 1;
            self.queues[t].push_back(QueuedJob { event: *ev });
            self.stats[t].peak_queue = self.stats[t].peak_queue.max(self.queues[t].len());
        }
        Ok(())
    }

    /// Whether tenant `t`'s rolling p99 currently violates its SLO
    /// (needs a handful of completions before it can trigger).
    fn slo_violating(&self, t: usize) -> bool {
        if self.windows[t].len() < 4 {
            return false;
        }
        let p99 = LatencySummary::of(self.windows[t].iter().copied().collect()).p99_ns;
        p99 > self.tenants[t].slo_us * 1e3
    }

    /// Drains the queues into this tick's micro-batch: tier rank
    /// order, SLO-violating tenants first within a tier (earlier
    /// submission ⇒ least-loaded chips from the planner — the
    /// placement bias), round-robin one job per tenant per pass.
    fn form_batch(&mut self) -> Vec<QueuedJob> {
        let budget = self.cfg.knobs.max_batch;
        let mut selected = Vec::new();
        for tier in TierClass::all() {
            let mut idxs: Vec<usize> = (0..self.tenants.len())
                .filter(|&t| self.tenants[t].tier == tier)
                .collect();
            idxs.sort_by_key(|&t| (usize::from(!self.slo_violating(t)), t));
            loop {
                let mut progressed = false;
                for &t in &idxs {
                    if selected.len() >= budget {
                        return selected;
                    }
                    if let Some(j) = self.queues[t].pop_front() {
                        selected.push(j);
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
        }
        selected
    }

    /// Plans and executes one micro-batch, charging modeled latency
    /// and rollups back to the tenants.
    fn run_batch(&mut self, selected: &[QueuedJob]) -> Result<()> {
        if selected.is_empty() {
            return Ok(());
        }
        let lanes = self.cfg.lanes;
        let mut batch = Batch::new(mix2(self.cfg.seed, self.tick as u64));
        for qj in selected {
            let ev = qj.event;
            let comp = self.compiled[ev.tenant][ev.expr]
                .as_ref()
                .expect("queued jobs were compiled at admission");
            let operands: Vec<PackedBits> = (0..comp.inputs)
                .map(|k| {
                    let mut p = PackedBits::zeros(lanes);
                    for l in 0..lanes {
                        p.set(l, mix3(ev.job_seed, k as u64, l as u64) & 1 == 1);
                    }
                    p
                })
                .collect();
            let label = format!(
                "{}:{}",
                self.tenants[ev.tenant].name, self.tenants[ev.tenant].exprs[ev.expr]
            );
            batch.push(label, &comp.run, operands, lanes)?;
        }
        // plan + execute (not `serve_batch`): the report's modeled
        // service time must come from the *plan's* cost-model
        // prediction, never the executed backend latency — that is
        // the backend-invariance the replay gate byte-diffs.
        let plan = self.planner.plan(&batch)?;
        let report = if let Some(sink) = self.obs.trace.as_mut() {
            // The trace context places the batch on the daemon
            // timeline: every timestamp below derives from the tick
            // clock and the plan, so the recorded trace is as
            // shard/backend-invariant as the report itself.
            let ctx = TraceCtx {
                tick: self.tick as u64,
                base_ns: self.tick as f64 * self.cfg.knobs.tick_ns,
                queue_wait_ns: selected
                    .iter()
                    .map(|qj| {
                        self.tick.saturating_sub(qj.event.tick) as f64 * self.cfg.knobs.tick_ns
                    })
                    .collect(),
            };
            execute_plan_traced(&batch, &plan, &self.cfg.policy, &ctx, sink)?
        } else {
            execute_plan(&batch, &plan, &self.cfg.policy)?
        };
        self.batches += 1;
        self.native_ops += report.native_ops();
        self.engine_visits += plan
            .assignments
            .iter()
            .map(|asg| fcexec::fused_visits_of(&asg.program).len())
            .sum::<usize>();
        self.fused_jobs += fcsched::fused_jobs(&batch, &plan);
        self.energy_pj += report.total_energy_pj();
        if let Some(h) = &report.health {
            self.mitigations += h.total_mitigations();
            self.dropouts += h.dropouts.len();
        }
        let window = self.cfg.knobs.slo_window.max(1);
        for (qj, (out, asg)) in selected
            .iter()
            .zip(report.outcomes.iter().zip(&plan.assignments))
        {
            let t = qj.event.tenant;
            self.stats[t].completed += 1;
            if !out.succeeded {
                self.stats[t].failed += 1;
            }
            // The planner narrows per chip (weak chips punish wide
            // gates superlinearly); count jobs that actually ran a
            // narrowed variant.
            let submitted = &self.compiled[t][qj.event.expr]
                .as_ref()
                .expect("queued jobs were compiled at admission")
                .run
                .program;
            if &asg.program != submitted {
                self.stats[t].narrowed += 1;
            }
            self.stats[t].retries += u64::from(out.retries);
            let attempts = if out.ops > 0 {
                (out.ops as f64 + f64::from(out.retries)) / out.ops as f64
            } else {
                1.0
            };
            let wait_ticks = self.tick.saturating_sub(qj.event.tick) as f64;
            let modeled = wait_ticks * self.cfg.knobs.tick_ns + asg.predicted.latency_ns * attempts;
            self.windows[t].push_back(modeled);
            if self.windows[t].len() > window {
                self.windows[t].pop_front();
            }
            self.latencies[t].push(modeled);
            self.result_digest = mix2(self.result_digest, fcsched::digest(&out.result));
        }
        Ok(())
    }

    /// Modeled nanoseconds elapsed after the current tick completes.
    fn elapsed_ns(&self) -> f64 {
        (self.tick + 1) as f64 * self.cfg.knobs.tick_ns
    }

    /// Builds a fresh metrics ledger from the engine's current state.
    /// Rebuilt (not incrementally updated) at every flush so the
    /// exposition is a pure function of the serving state — the same
    /// ledger always renders the same bytes.
    fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for (t, spec) in self.tenants.iter().enumerate() {
            let s = &self.stats[t];
            let name = spec.name.as_str();
            for (outcome, v) in [
                ("submitted", s.submitted),
                ("admitted", s.admitted),
                ("rejected", s.rejected),
                ("shed", s.shed),
                ("narrowed", s.narrowed),
                ("completed", s.completed),
                ("failed", s.failed),
            ] {
                m.counter(
                    "fc_jobs_total",
                    &[("tenant", name), ("outcome", outcome)],
                    "per-tenant job counts by admission/completion outcome",
                    v as u64,
                );
            }
            let lab = [("tenant", name)];
            m.counter(
                "fc_retries_total",
                &lab,
                "deterministic retry draws charged to completed jobs",
                s.retries,
            );
            m.gauge(
                "fc_queue_depth",
                &lab,
                "jobs currently queued",
                self.queues[t].len() as f64,
            );
            // Bins span [0, 4×SLO]: a pure function of the tenant
            // contract, so the exposition stays shard/backend-invariant.
            let scale = spec.slo_us * 1e3 * 4.0;
            for &v in &self.latencies[t] {
                m.observe(
                    "fc_modeled_latency_ns",
                    &lab,
                    "modeled job latency: tick-clock queue wait + predicted service",
                    scale,
                    v,
                );
            }
        }
        m.counter(
            "fc_batches_total",
            &[],
            "micro-batches executed",
            self.batches as u64,
        );
        m.counter(
            "fc_native_ops_total",
            &[],
            "native DRAM operations executed",
            self.native_ops as u64,
        );
        m.counter(
            "fc_engine_visits_total",
            &[],
            "fused engine visits defined by executed step plans",
            self.engine_visits as u64,
        );
        m.counter(
            "fc_fused_jobs_total",
            &[],
            "jobs in cross-job fused runs under submission order",
            self.fused_jobs as u64,
        );
        m.counter(
            "fc_mitigations_total",
            &[],
            "read-disturbance mitigations scheduled",
            self.mitigations,
        );
        m.counter(
            "fc_dropouts_total",
            &[],
            "chip dropouts observed",
            self.dropouts as u64,
        );
        m.gauge(
            "fc_energy_pj",
            &[],
            "modeled energy spent, picojoules",
            self.energy_pj,
        );
        m.gauge("fc_tick", &[], "current daemon tick", self.tick as f64);
        m.gauge(
            "fc_elapsed_ns",
            &[],
            "modeled nanoseconds elapsed",
            self.elapsed_ns(),
        );
        m
    }

    fn take_snapshot(&mut self) -> Result<()> {
        let completed: usize = self.stats.iter().map(|s| s.completed).sum();
        let elapsed = self.elapsed_ns();
        let tenants = (0..self.tenants.len())
            .map(|t| {
                let w = &self.windows[t];
                let sum = LatencySummary::of(w.iter().copied().collect());
                let slo_us = self.tenants[t].slo_us;
                TenantHealth {
                    tenant: t,
                    queue_depth: self.queues[t].len(),
                    p50_us: sum.p50_ns / 1e3,
                    p99_us: sum.p99_ns / 1e3,
                    slo_us,
                    ok: w.is_empty() || sum.p99_ns <= slo_us * 1e3,
                }
            })
            .collect();
        self.snapshots.push(HealthSnapshot {
            tick: self.tick,
            elapsed_us: elapsed / 1e3,
            completed,
            admitted: self.stats.iter().map(|s| s.admitted).sum(),
            shed: self.stats.iter().map(|s| s.shed).sum(),
            rejected: self.stats.iter().map(|s| s.rejected).sum(),
            queued: self.queues.iter().map(VecDeque::len).sum(),
            modeled_jobs_per_s: completed as f64 * 1e9 / elapsed,
            tenants,
            mitigations: self.mitigations,
            dropouts: self.dropouts,
        });
        if self.obs.metrics_enabled {
            let rendered = self.metrics().render();
            self.obs
                .flush_metrics(rendered)
                .map_err(|e| ServeError::Io(e.to_string()))?;
        }
        if let Some(sink) = self.obs.trace.as_mut() {
            sink.record(TraceEvent {
                phase: Phase::Instant,
                cat: "daemon".into(),
                name: "snapshot".into(),
                who: "daemon".into(),
                track: 0,
                tick: self.tick as u64,
                job: 0,
                step: 3,
                ts_ns: elapsed,
                dur_ns: 0.0,
                args: vec![
                    ("completed".into(), completed as f64),
                    (
                        "queued".into(),
                        self.queues.iter().map(VecDeque::len).sum::<usize>() as f64,
                    ),
                    ("mitigations".into(), self.mitigations as f64),
                    ("dropouts".into(), self.dropouts as f64),
                ],
            });
        }
        Ok(())
    }

    /// Sums of (submitted, admitted, shed, rejected) across tenants —
    /// differenced around [`Daemon::ingest`] for the per-tick trace
    /// instant.
    fn ingest_totals(&self) -> (usize, usize, usize, usize) {
        self.stats.iter().fold((0, 0, 0, 0), |acc, s| {
            (
                acc.0 + s.submitted,
                acc.1 + s.admitted,
                acc.2 + s.shed,
                acc.3 + s.rejected,
            )
        })
    }

    /// The shared tick body behind [`Daemon::step`] and the drain
    /// loop: ingest (`None` on drain ticks — admission is closed),
    /// form and execute the micro-batch, snapshot on cadence. Emits
    /// the `(tick, 0, 0)` tick span and — on ingestion ticks — the
    /// `(tick, 0, 1)` ingest instant when tracing.
    fn advance(&mut self, tick: usize, events: Option<&[IngestEvent]>) -> Result<()> {
        self.tick = tick;
        let before = self.ingest_totals();
        if let Some(events) = events {
            self.ingest(events)?;
        }
        if self.obs.tracing() && events.is_some() {
            let after = self.ingest_totals();
            let ts = tick as f64 * self.cfg.knobs.tick_ns;
            if let Some(sink) = self.obs.trace.as_mut() {
                sink.record(TraceEvent {
                    phase: Phase::Instant,
                    cat: "daemon".into(),
                    name: "ingest".into(),
                    who: "daemon".into(),
                    track: 0,
                    tick: tick as u64,
                    job: 0,
                    step: 1,
                    ts_ns: ts,
                    dur_ns: 0.0,
                    args: vec![
                        ("submitted".into(), (after.0 - before.0) as f64),
                        ("admitted".into(), (after.1 - before.1) as f64),
                        ("shed".into(), (after.2 - before.2) as f64),
                        ("rejected".into(), (after.3 - before.3) as f64),
                    ],
                });
            }
        }
        let selected = self.form_batch();
        self.run_batch(&selected)?;
        if self.obs.tracing() {
            let ts = tick as f64 * self.cfg.knobs.tick_ns;
            let queued = self.queues.iter().map(VecDeque::len).sum::<usize>();
            let tick_ns = self.cfg.knobs.tick_ns;
            if let Some(sink) = self.obs.trace.as_mut() {
                sink.record(TraceEvent {
                    phase: Phase::Span,
                    cat: "daemon".into(),
                    name: if events.is_some() { "tick" } else { "drain" }.into(),
                    who: "daemon".into(),
                    track: 0,
                    tick: tick as u64,
                    job: 0,
                    step: 0,
                    ts_ns: ts,
                    dur_ns: tick_ns,
                    args: vec![
                        ("jobs".into(), selected.len() as f64),
                        ("queued".into(), queued as f64),
                    ],
                });
            }
        }
        if (tick + 1).is_multiple_of(self.cfg.knobs.report_every.max(1)) {
            self.take_snapshot()?;
        }
        Ok(())
    }

    /// Runs one tick: ingest `events`, form and execute the
    /// micro-batch, snapshot on cadence.
    ///
    /// # Errors
    ///
    /// Propagates compile and scheduling failures.
    pub fn step(&mut self, tick: usize, events: &[IngestEvent]) -> Result<()> {
        self.advance(tick, Some(events))
    }

    /// Stops admitting, drains the queues (bounded by the drain
    /// window), takes the final snapshot, and builds the report.
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures from the drain batches.
    pub fn drain_and_finish(self) -> Result<DaemonReport> {
        self.drain_and_finish_obs().map(|(report, _)| report)
    }

    /// [`Daemon::drain_and_finish`], also handing back the
    /// observability bundle with the collected trace and the final
    /// metrics exposition. The final health snapshot and metrics
    /// flush always run at graceful drain — even when the last tick
    /// falls between health intervals — so the last exposition on
    /// disk matches the report's totals exactly.
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures from the drain batches and
    /// metrics-write failures ([`ServeError::Io`]).
    pub(crate) fn drain_and_finish_obs(mut self) -> Result<(DaemonReport, Observability)> {
        let ingest_ticks = self.cfg.knobs.ticks;
        let mut drain_ticks = 0usize;
        while drain_ticks < self.cfg.knobs.drain_max && self.queues.iter().any(|q| !q.is_empty()) {
            drain_ticks += 1;
            self.advance(ingest_ticks + drain_ticks - 1, None)?;
        }
        if self.snapshots.last().map(|s| s.tick) != Some(self.tick) {
            self.take_snapshot()?;
        } else if self.obs.metrics_enabled {
            // The cadence already snapshotted this tick, but the
            // drain decision (queues empty / window exhausted) is
            // final state worth re-exposing.
            let rendered = self.metrics().render();
            self.obs
                .flush_metrics(rendered)
                .map_err(|e| ServeError::Io(e.to_string()))?;
        }
        let totals = DaemonTotals {
            submitted: self.stats.iter().map(|s| s.submitted).sum(),
            admitted: self.stats.iter().map(|s| s.admitted).sum(),
            narrowed: self.stats.iter().map(|s| s.narrowed).sum(),
            rejected: self.stats.iter().map(|s| s.rejected).sum(),
            shed: self.stats.iter().map(|s| s.shed).sum(),
            completed: self.stats.iter().map(|s| s.completed).sum(),
            failed: self.stats.iter().map(|s| s.failed).sum(),
            retries: self.stats.iter().map(|s| s.retries).sum(),
            native_ops: self.native_ops,
            batches: self.batches,
            undrained: self.queues.iter().map(VecDeque::len).sum(),
            energy_pj: self.energy_pj,
            result_digest: self.result_digest,
            modeled_jobs_per_s: {
                let completed: usize = self.stats.iter().map(|s| s.completed).sum();
                completed as f64 * 1e9 / self.elapsed_ns()
            },
        };
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let s = &self.stats[t];
                let rolling = LatencySummary::of(self.windows[t].iter().copied().collect());
                TenantReport {
                    tenant: t,
                    name: spec.name.clone(),
                    tier: spec.tier,
                    submitted: s.submitted,
                    admitted: s.admitted,
                    narrowed: s.narrowed,
                    rejected: s.rejected,
                    shed: s.shed,
                    completed: s.completed,
                    failed: s.failed,
                    retries: s.retries,
                    peak_queue: s.peak_queue,
                    slo_us: spec.slo_us,
                    latency: LatencySummary::of(self.latencies[t].clone()),
                    slo_met: self.windows[t].is_empty() || rolling.p99_ns <= spec.slo_us * 1e3,
                }
            })
            .collect();
        Ok((
            DaemonReport {
                seed: self.cfg.seed,
                ticks: ingest_ticks,
                drain_ticks,
                tick_ns: self.cfg.knobs.tick_ns,
                chips: self.fleet.len(),
                totals,
                tenants,
                snapshots: self.snapshots,
            },
            self.obs,
        ))
    }
}

/// Generates tenant `t`'s deterministic arrivals for `tick` — the one
/// traffic model both the live producers and any tooling share.
fn arrivals_for(spec: &TenantSpec, t: usize, seed: u64, tick: usize) -> Vec<IngestEvent> {
    (0..spec.arrivals(t, seed, tick))
        .map(|k| IngestEvent {
            tick,
            tenant: t,
            expr: spec.pick_expr(t, seed, tick, k),
            job_seed: spec.job_seed(t, seed, tick, k),
        })
        .collect()
}

/// Serves a live session: one producer thread per tenant streams
/// tick-stamped arrivals over bounded channels (real ingestion
/// backpressure — a producer stalls once it runs
/// `PRODUCER_LOOKAHEAD` ticks ahead), the engine consumes them in
/// tenant order, records every ingested job into the returned
/// [`SessionLog`], and drains gracefully at the end.
///
/// The returned report is byte-identical to
/// [`replay`]`(fleet, cost, &log, ...)` of the returned log — at any
/// shard count, on either backend.
///
/// # Errors
///
/// Propagates compile and scheduling failures.
///
/// # Panics
///
/// Panics if a producer thread panics.
pub fn run_live(
    fleet: &FleetConfig,
    cost: &CostModel,
    cfg: &DaemonConfig,
    tenants: &[TenantSpec],
) -> Result<(SessionLog, DaemonReport)> {
    run_live_obs(fleet, cost, cfg, tenants, Observability::disabled())
        .map(|(log, report, _)| (log, report))
}

/// [`run_live`] with an observability bundle threaded through the
/// engine: trace events are collected on the modeled clock, metric
/// expositions are flushed at every health interval and at drain, and
/// the bundle comes back with everything collected.
///
/// # Errors
///
/// Propagates compile, scheduling, and metrics-write failures.
///
/// # Panics
///
/// Panics if a producer thread panics.
pub fn run_live_obs(
    fleet: &FleetConfig,
    cost: &CostModel,
    cfg: &DaemonConfig,
    tenants: &[TenantSpec],
    obs: Observability,
) -> Result<(SessionLog, DaemonReport, Observability)> {
    let mut log = SessionLog::for_config(cfg, tenants, fleet.len(), fleet.seed, None, None);
    let mut daemon = Daemon::new(fleet, cost, cfg.clone(), tenants.to_vec()).with_obs(obs);
    let ticks = cfg.knobs.ticks;
    let seed = cfg.seed;
    let result: Result<()> = std::thread::scope(|scope| {
        let mut rxs = Vec::with_capacity(tenants.len());
        for (t, spec) in tenants.iter().enumerate() {
            let (tx, rx) = sync_channel::<(usize, Vec<IngestEvent>)>(PRODUCER_LOOKAHEAD);
            rxs.push(rx);
            scope.spawn(move || {
                for tick in 0..ticks {
                    let events = arrivals_for(spec, t, seed, tick);
                    // A closed channel means the engine bailed early:
                    // stop producing.
                    if tx.send((tick, events)).is_err() {
                        return;
                    }
                }
            });
        }
        for tick in 0..ticks {
            let mut events = Vec::new();
            for rx in &rxs {
                let (produced_tick, batch) = rx.recv().expect("producer thread panicked");
                debug_assert_eq!(produced_tick, tick, "producers run in tick lockstep");
                events.extend(batch);
            }
            log.events.extend_from_slice(&events);
            // On error: drop the receivers (producers see a closed
            // channel and exit) and let the scope join them.
            daemon.step(tick, &events)?;
        }
        Ok(())
    });
    result?;
    let (report, obs) = daemon.drain_and_finish_obs()?;
    Ok((log, report, obs))
}

/// Replays a recorded session byte-identically. `shards` / `backend`
/// override the recorded serving-time choices — the report does not
/// depend on either.
///
/// # Errors
///
/// Fails on a malformed log ([`ServeError::BadSession`]) and
/// propagates compile and scheduling failures.
pub fn replay(
    fleet: &FleetConfig,
    cost: &CostModel,
    log: &SessionLog,
    shards: Option<usize>,
    backend: Option<fcexec::BackendKind>,
) -> Result<DaemonReport> {
    replay_obs(fleet, cost, log, shards, backend, Observability::disabled())
        .map(|(report, _)| report)
}

/// [`replay`] with an observability bundle threaded through the
/// engine. Because every trace timestamp and metric value derives
/// from the modeled clock and the plan, the collected artifacts are
/// byte-identical to the live run's — at any shard count, on either
/// backend.
///
/// # Errors
///
/// Fails on a malformed log ([`ServeError::BadSession`]) and
/// propagates compile, scheduling, and metrics-write failures.
pub fn replay_obs(
    fleet: &FleetConfig,
    cost: &CostModel,
    log: &SessionLog,
    shards: Option<usize>,
    backend: Option<fcexec::BackendKind>,
    obs: Observability,
) -> Result<(DaemonReport, Observability)> {
    log.validate()?;
    let cfg = log.config(shards, backend);
    let ticks = cfg.knobs.ticks;
    let mut by_tick: Vec<Vec<IngestEvent>> = vec![Vec::new(); ticks];
    for e in &log.events {
        by_tick[e.tick].push(*e);
    }
    let mut daemon = Daemon::new(fleet, cost, cfg, log.tenants.clone()).with_obs(obs);
    for (tick, events) in by_tick.iter().enumerate() {
        daemon.step(tick, events)?;
    }
    daemon.drain_and_finish_obs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::DaemonKnobs;

    fn cost() -> CostModel {
        CostModel::table1_defaults()
    }

    fn tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                name: "interactive".into(),
                tier: TierClass::Gold,
                exprs: vec!["a & b".into(), "!(x | y)".into(), "a ^ b".into()],
                rate: 2.0,
                burst: 0,
                slo_us: 200.0,
                queue_cap: 8,
                sheddable: false,
                min_success: 0.85,
            },
            TenantSpec {
                name: "bulk".into(),
                tier: TierClass::Bronze,
                exprs: vec!["a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p".into()],
                rate: 4.0,
                burst: 6,
                slo_us: 400.0,
                queue_cap: 3,
                sheddable: true,
                min_success: 0.8,
            },
        ]
    }

    fn config(seed: u64) -> DaemonConfig {
        DaemonConfig {
            seed,
            lanes: 16,
            knobs: DaemonKnobs {
                ticks: 8,
                max_batch: 6,
                ..DaemonKnobs::default()
            },
            ..DaemonConfig::default()
        }
    }

    #[test]
    fn live_session_replays_byte_identically() {
        let cost = cost();
        let fleet = FleetConfig::table1(2);
        let (log, live) = run_live(&fleet, &cost, &config(7), &tenants()).unwrap();
        assert!(log.events.len() > 8, "traffic flowed: {}", log.events.len());
        let replayed = replay(&fleet, &cost, &log, None, None).unwrap();
        assert_eq!(live.to_json(), replayed.to_json(), "live == replay");
        // And across shard counts and backends.
        for shards in [1usize, 5] {
            for backend in [fcexec::BackendKind::Vm, fcexec::BackendKind::Bender] {
                let r = replay(&fleet, &cost, &log, Some(shards), Some(backend)).unwrap();
                assert_eq!(
                    live.to_json(),
                    r.to_json(),
                    "replay differs at shards={shards} backend={backend}"
                );
            }
        }
    }

    #[test]
    fn live_runs_are_reproducible_and_seed_sensitive() {
        let cost = cost();
        let fleet = FleetConfig::table1(2);
        let (log_a, rep_a) = run_live(&fleet, &cost, &config(7), &tenants()).unwrap();
        let (log_b, rep_b) = run_live(&fleet, &cost, &config(7), &tenants()).unwrap();
        assert_eq!(log_a, log_b, "same seed, same session");
        assert_eq!(rep_a.to_json(), rep_b.to_json());
        let (log_c, _) = run_live(&fleet, &cost, &config(8), &tenants()).unwrap();
        assert_ne!(log_a.events, log_c.events, "seed moves the traffic");
    }

    #[test]
    fn bronze_overload_sheds_and_gold_never_does() {
        let cost = cost();
        let fleet = FleetConfig::table1(1);
        // Starve the batch budget so queues back up.
        let mut cfg = config(3);
        cfg.knobs.max_batch = 2;
        cfg.knobs.drain_max = 128;
        let (_, report) = run_live(&fleet, &cost, &cfg, &tenants()).unwrap();
        let gold = &report.tenants[0];
        let bronze = &report.tenants[1];
        assert_eq!(gold.shed, 0, "gold is never shed");
        assert!(bronze.shed > 0, "over-cap bronze arrivals are shed");
        assert!(bronze.peak_queue <= 3 + 1, "bronze queue stays bounded");
        assert_eq!(
            report.totals.submitted,
            report.totals.admitted + report.totals.shed + report.totals.rejected,
            "every submission is accounted"
        );
        assert_eq!(
            report.totals.completed + report.totals.undrained,
            report.totals.admitted,
            "admitted jobs either complete or are left undrained"
        );
    }

    #[test]
    fn reliability_floor_rejects_unreachable_contracts() {
        let cost = cost();
        let fleet = FleetConfig::table1(1);
        let mk = |min_success: f64| {
            vec![TenantSpec {
                name: "wide".into(),
                tier: TierClass::Silver,
                exprs: vec!["a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p".into()],
                rate: 1.0,
                burst: 0,
                slo_us: 500.0,
                queue_cap: 8,
                sheddable: false,
                min_success,
            }]
        };
        // The 16-AND prices at 0.945 as submitted (its best variant:
        // table1 narrowing compounds ops faster than it helps), so a
        // 0.90 floor admits everything and a 0.96 floor is
        // unreachable by any native width.
        let (_, relaxed) = run_live(&fleet, &cost, &config(1), &mk(0.90)).unwrap();
        assert_eq!(relaxed.totals.rejected, 0);
        assert_eq!(relaxed.totals.admitted, relaxed.totals.submitted);
        let (_, reject) = run_live(&fleet, &cost, &config(1), &mk(0.96)).unwrap();
        assert_eq!(reject.totals.admitted, 0, "unreachable floor rejects");
        assert_eq!(reject.totals.rejected, reject.totals.submitted);
    }

    #[test]
    fn strained_chips_run_narrowed_variants() {
        let cost = cost();
        // Members 10 and 11 of the Table-1 inventory derate wide
        // gates hard enough (strain > 2.7) that the planner's
        // per-chip admission picks a narrowed 16-AND there.
        let fleet = FleetConfig::table1(12);
        let mut cfg = config(5);
        cfg.knobs.ticks = 6;
        cfg.knobs.max_batch = 16;
        cfg.policy.min_success = 0.85;
        let tenants = vec![TenantSpec {
            name: "bulk".into(),
            tier: TierClass::Bronze,
            exprs: vec!["a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p".into()],
            rate: 12.0,
            burst: 0,
            slo_us: 1e6,
            queue_cap: 64,
            sheddable: false,
            min_success: 0.90,
        }];
        let (log, report) = run_live(&fleet, &cost, &cfg, &tenants).unwrap();
        assert!(
            report.totals.narrowed > 0,
            "strained chips narrow: {:?}",
            report.totals
        );
        assert!(report.totals.narrowed < report.totals.completed);
        // And the narrowed count itself replays byte-identically.
        let replayed = replay(&fleet, &cost, &log, Some(1), None).unwrap();
        assert_eq!(report.to_json(), replayed.to_json());
    }

    #[test]
    fn drain_completes_queued_work_and_reports_snapshots() {
        let cost = cost();
        let fleet = FleetConfig::table1(2);
        let (_, report) = run_live(&fleet, &cost, &config(7), &tenants()).unwrap();
        assert_eq!(report.totals.undrained, 0, "the demo load drains clean");
        assert!(report.totals.completed > 0);
        assert!(!report.snapshots.is_empty());
        let last = report.snapshots.last().unwrap();
        assert_eq!(last.queued, 0, "final snapshot is post-drain");
        assert!(last.modeled_jobs_per_s > 0.0);
        assert!(
            report.totals.modeled_jobs_per_s > 0.0,
            "modeled throughput is reported deterministically"
        );
        // Snapshot cadence: strictly increasing tick stamps.
        for w in report.snapshots.windows(2) {
            assert!(w[0].tick < w[1].tick);
        }
    }

    #[test]
    fn observed_runs_match_unobserved_and_replay_artifacts_exactly() {
        let cost = cost();
        let fleet = FleetConfig::table1(2);
        let (log, plain) = run_live(&fleet, &cost, &config(7), &tenants()).unwrap();
        let bundle = || {
            Observability::disabled()
                .with_trace(1 << 16)
                .with_metrics(None)
        };
        let (log2, observed, obs) =
            run_live_obs(&fleet, &cost, &config(7), &tenants(), bundle()).unwrap();
        assert_eq!(log, log2, "observation does not perturb the session");
        assert_eq!(
            plain.to_json(),
            observed.to_json(),
            "observation never changes the report"
        );
        let trace = obs.trace.unwrap().finish();
        for name in ["tick", "ingest", "snapshot", "batch"] {
            assert!(
                trace.iter().any(|e| e.name == name),
                "trace has a '{name}' event"
            );
        }
        let metrics = obs.last_metrics.unwrap();
        assert!(metrics.contains(&format!("fc_batches_total {}", plain.totals.batches)));
        assert!(metrics.contains(&format!(
            "fc_jobs_total{{tenant=\"interactive\",outcome=\"completed\"}} {}",
            plain.tenants[0].completed
        )));
        // Replaying the log on another backend/shard count collects
        // byte-identical artifacts.
        let (_, obs2) = replay_obs(
            &fleet,
            &cost,
            &log,
            Some(5),
            Some(fcexec::BackendKind::Bender),
            bundle(),
        )
        .unwrap();
        assert_eq!(trace, obs2.trace.unwrap().finish(), "trace is invariant");
        assert_eq!(metrics, obs2.last_metrics.unwrap(), "metrics are invariant");
    }

    #[test]
    fn compile_errors_name_the_tenant() {
        let cost = cost();
        let fleet = FleetConfig::table1(1);
        let bad = vec![TenantSpec {
            name: "broken".into(),
            tier: TierClass::Gold,
            exprs: vec!["a &".into()],
            rate: 1.0,
            burst: 0,
            slo_us: 100.0,
            queue_cap: 4,
            sheddable: false,
            min_success: 0.5,
        }];
        match run_live(&fleet, &cost, &config(0), &bad) {
            Err(ServeError::Compile { tenant, .. }) => assert_eq!(tenant, "broken"),
            other => panic!("expected a compile error, got {other:?}"),
        }
    }
}
