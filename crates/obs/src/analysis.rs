//! Offline views over a recorded trace.
//!
//! These run on the output of [`crate::chrome::from_chrome`] (or a
//! live [`crate::TraceBuffer::finish`]) and power the
//! `characterize trace` subcommand: hottest `(op, N)` shapes,
//! per-chip busy time, and per-tenant queue-wait breakdowns. All
//! aggregation is over `BTreeMap`s and ties break by name, so the
//! views are as deterministic as the trace itself.

use crate::trace::{Phase, TraceEvent};
use std::collections::BTreeMap;

/// Total heat of one op shape (`and16`, `nor2`, `not`, ...).
///
/// Stays `pub` although no other crate names it: [`hot_ops`] returns
/// these.
#[derive(Debug, Clone, PartialEq)]
pub struct OpHeat {
    /// Op-shape name from the step span.
    pub name: String,
    /// Step spans observed.
    pub count: u64,
    /// Total modeled nanoseconds (attempt-inclusive).
    pub total_ns: f64,
    /// Total device-command activations attributed to the shape.
    pub acts: u64,
}

/// Busy accounting for one fleet member.
///
/// Stays `pub` although no other crate names it: [`chip_utilization`]
/// returns these.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipUse {
    /// Chip label (span `who`).
    pub who: String,
    /// Jobs executed on the chip.
    pub jobs: u64,
    /// Total modeled busy nanoseconds (job spans).
    pub busy_ns: f64,
}

/// Queue-wait breakdown for one tenant.
///
/// Stays `pub` although no other crate names it: [`tenant_queue_waits`]
/// returns these.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantWait {
    /// Tenant name (job label prefix before `:`).
    pub tenant: String,
    /// Jobs attributed to the tenant.
    pub jobs: u64,
    /// Total modeled queue-wait nanoseconds.
    pub wait_ns: f64,
    /// Total modeled service nanoseconds (job span durations).
    pub service_ns: f64,
}

/// Step spans (`cat == "exec"`) aggregated by op shape, hottest
/// first by `total_ns` (ties by name), truncated to `top`.
pub fn hot_ops(events: &[TraceEvent], top: usize) -> Vec<OpHeat> {
    let mut by_op: BTreeMap<&str, (u64, f64, u64)> = BTreeMap::new();
    for e in events {
        if e.phase == Phase::Span && e.cat == "exec" {
            let slot = by_op.entry(&e.name).or_insert((0, 0.0, 0));
            slot.0 += 1;
            slot.1 += e.dur_ns;
            slot.2 += e
                .args
                .iter()
                .find(|(k, _)| k == "acts")
                .map_or(0, |(_, v)| *v as u64);
        }
    }
    let mut out: Vec<OpHeat> = by_op
        .into_iter()
        .map(|(name, (count, total_ns, acts))| OpHeat {
            name: name.to_string(),
            count,
            total_ns,
            acts,
        })
        .collect();
    out.sort_by(|a, b| b.total_ns.total_cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    out.truncate(top);
    out
}

/// Job spans (`cat == "sched"`, `step == 0`) aggregated per chip
/// label, sorted by label.
pub fn chip_utilization(events: &[TraceEvent]) -> Vec<ChipUse> {
    let mut by_chip: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    for e in events {
        if e.phase == Phase::Span && e.cat == "sched" && e.step == 0 && e.job > 0 {
            let slot = by_chip.entry(&e.who).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += e.dur_ns;
        }
    }
    by_chip
        .into_iter()
        .map(|(who, (jobs, busy_ns))| ChipUse {
            who: who.to_string(),
            jobs,
            busy_ns,
        })
        .collect()
}

/// Job spans aggregated per tenant (the job label's `tenant:` prefix;
/// unprefixed labels group under themselves), sorted by tenant.
pub fn tenant_queue_waits(events: &[TraceEvent]) -> Vec<TenantWait> {
    let mut by_tenant: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for e in events {
        if e.phase == Phase::Span && e.cat == "sched" && e.step == 0 && e.job > 0 {
            let tenant = e.name.split(':').next().unwrap_or(&e.name);
            let wait = e
                .args
                .iter()
                .find(|(k, _)| k == "queue_wait_ns")
                .map_or(0.0, |(_, v)| *v);
            let slot = by_tenant.entry(tenant).or_insert((0, 0.0, 0.0));
            slot.0 += 1;
            slot.1 += wait;
            slot.2 += e.dur_ns;
        }
    }
    by_tenant
        .into_iter()
        .map(|(tenant, (jobs, wait_ns, service_ns))| TenantWait {
            tenant: tenant.to_string(),
            jobs,
            wait_ns,
            service_ns,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        cat: &str,
        name: &str,
        who: &str,
        job: u64,
        step: u64,
        dur: f64,
        args: &[(&str, f64)],
    ) -> TraceEvent {
        TraceEvent {
            phase: Phase::Span,
            cat: cat.into(),
            name: name.into(),
            who: who.into(),
            track: 1,
            tick: 0,
            job,
            step,
            ts_ns: 0.0,
            dur_ns: dur,
            args: args.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
        }
    }

    fn fixture() -> Vec<TraceEvent> {
        vec![
            span(
                "sched",
                "gold:a & b",
                "chip0",
                1,
                0,
                500.0,
                &[("queue_wait_ns", 40.0)],
            ),
            span("exec", "and16", "chip0", 1, 1, 300.0, &[("acts", 51.0)]),
            span("exec", "not", "chip0", 1, 2, 200.0, &[("acts", 4.0)]),
            span(
                "sched",
                "bulk:big",
                "chip1",
                2,
                0,
                900.0,
                &[("queue_wait_ns", 100.0)],
            ),
            span("exec", "and16", "chip1", 2, 1, 900.0, &[("acts", 51.0)]),
        ]
    }

    #[test]
    fn hot_ops_rank_by_total_time() {
        let ops = hot_ops(&fixture(), 10);
        assert_eq!(ops[0].name, "and16");
        assert_eq!(ops[0].count, 2);
        assert_eq!(ops[0].acts, 102);
        assert!((ops[0].total_ns - 1200.0).abs() < 1e-9);
        assert_eq!(ops[1].name, "not");
        assert_eq!(hot_ops(&fixture(), 1).len(), 1, "top-N truncates");
    }

    #[test]
    fn chip_utilization_sums_job_spans() {
        let chips = chip_utilization(&fixture());
        assert_eq!(chips.len(), 2);
        assert_eq!(chips[0].who, "chip0");
        assert_eq!(chips[0].jobs, 1);
        assert!((chips[0].busy_ns - 500.0).abs() < 1e-9);
        assert!((chips[1].busy_ns - 900.0).abs() < 1e-9);
    }

    #[test]
    fn tenant_waits_split_on_label_prefix() {
        let waits = tenant_queue_waits(&fixture());
        assert_eq!(waits.len(), 2);
        assert_eq!(waits[0].tenant, "bulk");
        assert!((waits[0].wait_ns - 100.0).abs() < 1e-9);
        assert_eq!(waits[1].tenant, "gold");
        assert!((waits[1].service_ns - 500.0).abs() < 1e-9);
    }
}
