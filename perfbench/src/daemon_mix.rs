//! `daemon_mix`: the serving daemon driven tick by tick.
//!
//! One caller drives [`fcserve::Daemon`] as a closed loop: the next
//! tick starts when `step` returns. Arrivals come from the demo tenants'
//! seeded traffic model. A unit is one session: `Daemon::new`, the
//! warm-up ticks (set-up: the daemon compiles each tenant expression on
//! its first arrival), the remaining ingestion ticks and the drain (the
//! timed region).

use crate::harness::{secs, Acc, Findings, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use characterize::daemon::demo_tenants;
use dram_core::math::{mix2, mix4};
use dram_core::FleetConfig;
use fcexec::BackendKind;
use fcobs::Observability;
use fcserve::{Daemon, DaemonConfig, DaemonReport, IngestEvent, SessionLog, TenantSpec, TierClass};
use fcsynth::CostModel;
use std::collections::BTreeSet;
use std::time::Instant;

/// Fleet size: the Table-1 dozen of the `characterize daemon` demo.
pub const CHIPS: usize = 12;
/// SIMD lanes per job.
pub const LANES: usize = 64;
/// Distinct sessions (session seeds) per input cycle.
pub const SESSIONS: usize = 8;

struct Session {
    cfg: DaemonConfig,
    /// Arrivals per ingestion tick.
    ticks: Vec<Vec<IngestEvent>>,
    /// Leading ticks up to the one in which every tenant expression
    /// has arrived at least once: set-up, not timed.
    warmup: usize,
    /// Jobs completed during the warm-up ticks.
    warm_completed: usize,
    /// The first run's report and its JSON bytes.
    first: Option<(DaemonReport, String)>,
    /// Set-up time of every run of this session, seconds.
    setup_s: Vec<f64>,
}

/// The workload state.
pub struct DaemonMix {
    cost: CostModel,
    fleet: FleetConfig,
    tenants: Vec<TenantSpec>,
    sessions: Vec<Session>,
    digest: u64,
}

/// Every tenant's arrivals for `tick`, in tenant order.
fn arrivals(tenants: &[TenantSpec], seed: u64, tick: usize) -> Vec<IngestEvent> {
    let mut events = Vec::new();
    for (t, spec) in tenants.iter().enumerate() {
        for k in 0..spec.arrivals(t, seed, tick) {
            events.push(IngestEvent {
                tick,
                tenant: t,
                expr: spec.pick_expr(t, seed, tick, k),
                job_seed: spec.job_seed(t, seed, tick, k),
            });
        }
    }
    events
}

/// Ticks until every `(tenant, expression)` pair has arrived once.
fn warmup_ticks(tenants: &[TenantSpec], ticks: &[Vec<IngestEvent>]) -> usize {
    let total: usize = tenants.iter().map(|t| t.exprs.len()).sum();
    let mut seen = BTreeSet::new();
    for (i, events) in ticks.iter().enumerate() {
        seen.extend(events.iter().map(|e| (e.tenant, e.expr)));
        if seen.len() == total {
            return i + 1;
        }
    }
    ticks.len()
}

/// Sums the samples of `name` in a metrics exposition whose labels
/// contain `label` (empty: every sample).
fn exposition_sum(text: &str, name: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let metric = key.split('{').next()?;
            (metric == name && key.contains(label)).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

impl Workload for DaemonMix {
    fn setup(seed: u64, _tr: &mut Tracer) -> DaemonMix {
        let cost = CostModel::table1_defaults();
        let fleet = FleetConfig::table1(CHIPS);
        let tenants = demo_tenants();
        let mut digest = seed;
        let sessions = (0..SESSIONS)
            .map(|i| {
                let mut cfg = DaemonConfig {
                    seed: mix2(seed, i as u64),
                    lanes: LANES,
                    ..DaemonConfig::default()
                };
                cfg.policy.shards = 1;
                let ticks: Vec<Vec<IngestEvent>> = (0..cfg.knobs.ticks)
                    .map(|tick| arrivals(&tenants, cfg.seed, tick))
                    .collect();
                for e in ticks.iter().flatten() {
                    digest = mix4(digest, e.tick as u64, e.expr as u64, e.job_seed);
                }
                let warmup = warmup_ticks(&tenants, &ticks);
                Session {
                    cfg,
                    ticks,
                    warmup,
                    warm_completed: 0,
                    first: None,
                    setup_s: Vec::new(),
                }
            })
            .collect();
        DaemonMix {
            cost,
            fleet,
            tenants,
            sessions,
            digest,
        }
    }

    fn prepare_checks(&mut self) {
        // Jobs completed in the warm-up ticks belong to set-up: count
        // them on an identical session cut off after its warm-up.
        for s in &mut self.sessions {
            let mut cfg = s.cfg.clone();
            cfg.knobs.drain_max = 0;
            let mut daemon = Daemon::new(&self.fleet, &self.cost, cfg, self.tenants.clone());
            let warmed = s
                .ticks
                .iter()
                .enumerate()
                .take(s.warmup)
                .try_for_each(|(tick, events)| daemon.step(tick, events));
            s.warm_completed = warmed
                .and_then(|()| daemon.drain_and_finish())
                .map_or(0, |r| r.totals.completed);
        }
    }

    fn cycle(&self) -> u64 {
        SESSIONS as u64
    }

    fn run_unit(&mut self, unit: u64, tr: &mut Tracer, acc: &mut Acc) {
        let s = &mut self.sessions[(unit % SESSIONS as u64) as usize];
        let submitted: usize = s.ticks.iter().map(Vec::len).sum();
        acc.attempted += submitted as u64;
        let tick_id = |tick: usize| (unit << 8) | tick as u64;

        let session = tr.begin("bench.session", unit);
        let t0 = Instant::now();
        let span = tr.begin("fcserve.new", unit);
        let mut daemon = Daemon::new(&self.fleet, &self.cost, s.cfg.clone(), self.tenants.clone());
        tr.end(span);
        let mut result = Ok(());
        for (tick, events) in s.ticks.iter().enumerate().take(s.warmup) {
            let span = tr.begin("fcserve.step.warmup", tick_id(tick));
            result = daemon.step(tick, events);
            tr.end(span);
            if result.is_err() {
                break;
            }
        }
        s.setup_s.push(secs(t0));

        let t1 = Instant::now();
        if result.is_ok() {
            for (tick, events) in s.ticks.iter().enumerate().skip(s.warmup) {
                let span = tr.begin("fcserve.step", tick_id(tick));
                let call = Instant::now();
                result = daemon.step(tick, events);
                acc.calls_us.push(secs(call) * 1e6);
                tr.end(span);
                if result.is_err() {
                    break;
                }
            }
        }
        let report = result.and_then(|()| {
            let span = tr.begin("fcserve.drain_and_finish", unit);
            let report = daemon.drain_and_finish();
            tr.end(span);
            report
        });
        acc.timed_s += secs(t1);
        tr.end(session);

        // Checks, outside the timed region: every submission is
        // accounted for, and a session repeats its first run's bytes.
        let Ok(report) = report else {
            acc.failed += submitted as u64;
            return;
        };
        let t = &report.totals;
        let balanced = t.submitted == submitted
            && t.submitted == t.admitted + t.shed + t.rejected
            && t.completed + t.undrained == t.admitted;
        let json = report.to_json();
        let repeats = s.first.as_ref().is_none_or(|(_, first)| *first == json);
        if !balanced || !repeats {
            acc.failed += submitted as u64;
            return;
        }
        acc.work += t.completed.saturating_sub(s.warm_completed) as u64;
        acc.refused += (t.shed + t.rejected + t.failed + t.undrained) as u64;
        if s.first.is_none() {
            s.first = Some((report, json));
        }
    }

    fn finish(&mut self, acc: &Acc, tr: &Tracer) -> Findings {
        let mut f = Findings {
            inputs_digest: self.digest,
            ..Findings::default()
        };
        let mut sum = |name: &'static str, v: f64| *f.layer.entry(name).or_insert(0.0) += v;
        let mut gold_p99 = Vec::new();
        let mut failed = 0u64;
        let mut completed = 0.0;
        for s in &self.sessions {
            let Some((first, json)) = &s.first else {
                failed += 1;
                continue;
            };
            // The report must be a pure function of the session log:
            // replay it on the command-schedule backend.
            let mut log = SessionLog::for_config(
                &s.cfg,
                &self.tenants,
                self.fleet.len(),
                self.fleet.seed,
                None,
                None,
            );
            log.events = s.ticks.concat();
            let replayed = fcserve::replay_obs(
                &self.fleet,
                &self.cost,
                &log,
                Some(1),
                Some(BackendKind::Bender),
                Observability::disabled().with_metrics(None),
            );
            match replayed {
                Ok((report, obs)) => {
                    if report.to_json() != *json {
                        failed += 1;
                    }
                    let text = obs.last_metrics.unwrap_or_default();
                    // The exposition has no scheduler remap count of
                    // its own (its narrowed jobs are fcserve.narrowed),
                    // so fcsched.remapped stays 0 here.
                    let read = |name: &str, label: &str| exposition_sum(&text, name, label);
                    sum("fcsched.fused_jobs", read("fc_fused_jobs_total", ""));
                    sum("fcsched.retries", read("fc_retries_total", ""));
                    sum(
                        "fcsched.failed_jobs",
                        read("fc_jobs_total", "outcome=\"failed\""),
                    );
                    sum("fcexec.native_ops", read("fc_native_ops_total", ""));
                    sum("fcexec.engine_visits", read("fc_engine_visits_total", ""));
                }
                Err(_) => failed += 1,
            }
            let t = &first.totals;
            sum("fcserve.admitted", t.admitted as f64);
            sum("fcserve.shed", t.shed as f64);
            sum("fcserve.rejected", t.rejected as f64);
            sum("fcserve.narrowed", t.narrowed as f64);
            sum("fcsched.batches", t.batches as f64);
            completed += t.completed as f64;
            if let Some(gold) = first.tenants.iter().find(|t| t.tier == TierClass::Gold) {
                gold_p99.push(gold.latency.p99_ns / 1e3);
            }
        }
        f.failed = failed;
        let batches = f.layer.get("fcsched.batches").copied().unwrap_or(0.0);
        f.layer
            .insert("fcsched.jobs_per_batch", completed / batches.max(1.0));
        f.layer.insert("fcserve.modeled_p99_us", median(&gold_p99));
        f.layer.insert(
            "fcserve.ingest_tick_us",
            median(&tr.durations_us("fcserve.step")),
        );
        f.layer.insert(
            "fcserve.drain_ms",
            median(&tr.durations_us("fcserve.drain_and_finish")) / 1e3,
        );

        // Warm-up length varies between sessions: average the sessions'
        // median set-up times, so the figure does not jump with which
        // session's median is the overall median.
        let per_session: Vec<f64> = self.sessions.iter().map(|s| median(&s.setup_s)).collect();
        f.unit_setup_s = Some(per_session.iter().sum::<f64>() / per_session.len() as f64);
        let warmups: Vec<f64> = self.sessions.iter().map(|s| s.warmup as f64).collect();
        f.notes.push(format!(
            "sessions: {} run, {} per cycle; median warm-up {} of {} ingestion ticks; \
             decision counts below are per cycle",
            acc.units,
            SESSIONS,
            median(&warmups),
            self.sessions[0].cfg.knobs.ticks
        ));
        f
    }

    fn work(&self) -> (&'static str, &'static str) {
        ("jobs_per_s", "jobs completed after warm-up")
    }

    fn describe(&self) -> String {
        let knobs = &self.sessions[0].cfg.knobs;
        format!(
            "fleet {CHIPS} Table-1 chips, lanes {LANES}, backend vm, shards 1, \
             {} demo tenants, {} ingestion ticks, max_batch {}, closed loop with one caller",
            self.tenants.len(),
            knobs.ticks,
            knobs.max_batch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_sums_by_name_and_label() {
        let text = "# HELP fc_jobs_total x\n\
                    fc_jobs_total{tenant=\"a\",outcome=\"failed\"} 2\n\
                    fc_jobs_total{tenant=\"b\",outcome=\"failed\"} 3\n\
                    fc_jobs_total{tenant=\"b\",outcome=\"shed\"} 7\n\
                    fc_batches_total 12\n";
        assert_eq!(
            exposition_sum(text, "fc_jobs_total", "outcome=\"failed\""),
            5.0
        );
        assert_eq!(exposition_sum(text, "fc_batches_total", ""), 12.0);
        assert_eq!(exposition_sum(text, "fc_batches", ""), 0.0);
    }
}
