//! Batch outcome accounting: rollups, percentiles, deterministic JSON.
//!
//! Everything in a [`BatchReport`] except the `shards` field is a pure
//! function of `(fleet, batch, policy)`; [`BatchReport::to_json`]
//! deliberately excludes `shards` and any wall-clock measurement, so
//! the serialized report is **byte-identical across shard counts** —
//! the property the CI determinism gate diffs for. Wall-clock
//! throughput belongs next to the report (the `characterize serve`
//! CLI prints it to stderr), never inside it.

use crate::executor::JobOutcome;
use crate::health::FleetHealth;
use crate::planner::Admission;
use fcdram::{PackedBits, SuccessAccumulator};
use serde::{Deserialize, Serialize};

/// A 64-bit order-sensitive digest of a result row: what the JSON
/// report records instead of the (arbitrarily wide) result bits.
pub fn digest(bits: &PackedBits) -> u64 {
    let mut h = 0x00D1_6E57_u64 ^ (bits.len() as u64);
    for w in bits.words() {
        h = dram_core::math::mix2(h, *w);
    }
    h
}

/// Exact modeled-latency distribution over a batch's jobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Mean per-job modeled latency, nanoseconds.
    pub mean_ns: f64,
    /// Median (nearest rank).
    pub p50_ns: f64,
    /// 90th percentile (nearest rank).
    pub p90_ns: f64,
    /// 99th percentile (nearest rank).
    pub p99_ns: f64,
    /// Fastest job.
    pub min_ns: f64,
    /// Slowest job.
    pub max_ns: f64,
}

impl LatencySummary {
    /// Summarizes a set of modeled latencies (nearest-rank
    /// percentiles; all zeros for an empty set). Public because the
    /// `fcserve` daemon's rolling per-tenant SLO windows reuse the
    /// exact same percentile machinery, so live p99 tracking and
    /// batch reports can never disagree on definition.
    pub fn of(mut values: Vec<f64>) -> LatencySummary {
        if values.is_empty() {
            return LatencySummary {
                mean_ns: 0.0,
                p50_ns: 0.0,
                p90_ns: 0.0,
                p99_ns: 0.0,
                min_ns: 0.0,
                max_ns: 0.0,
            };
        }
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let rank = |q: f64| values[((q * (n - 1) as f64).round() as usize).min(n - 1)];
        LatencySummary {
            mean_ns: values.iter().sum::<f64>() / n as f64,
            p50_ns: rank(0.50),
            p90_ns: rank(0.90),
            p99_ns: rank(0.99),
            min_ns: values[0],
            max_ns: values[n - 1],
        }
    }
}

/// Per-fleet-member utilization rollup.
///
/// Stays `pub` although no other crate names it:
/// [`BatchReport::member_usage`] returns these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemberUsage {
    /// Fleet member index.
    pub member: usize,
    /// The member's display label (`module/cN`).
    pub chip: String,
    /// Jobs hosted.
    pub jobs: usize,
    /// Native operations executed (first attempts).
    pub ops: usize,
    /// Retry attempts consumed on this member.
    pub retries: u64,
    /// Jobs flagged by admission control.
    pub flagged: usize,
    /// Summed modeled latency, nanoseconds.
    pub latency_ns: f64,
}

/// The merged outcome of one scheduled batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-job outcomes, in submission order (independent of
    /// sharding).
    pub outcomes: Vec<JobOutcome>,
    /// Worker threads actually used (excluded from [`Self::to_json`]).
    pub shards: usize,
    /// Waves (slot-reuse generations) the plan needed.
    pub waves: usize,
    /// Fleet size the batch was planned onto.
    pub chips: usize,
    /// The batch seed.
    pub seed: u64,
    /// Fleet-health ledger (fault scenarios only).
    pub health: Option<FleetHealth>,
}

impl BatchReport {
    /// Jobs in the batch.
    pub fn jobs(&self) -> usize {
        self.outcomes.len()
    }

    /// Jobs whose every operation passed within the retry budget.
    pub fn succeeded(&self) -> usize {
        self.outcomes.iter().filter(|o| o.succeeded).count()
    }

    /// Jobs flagged by admission control.
    pub fn flagged(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.admission == Admission::Flagged)
            .count()
    }

    /// Jobs re-mapped to narrower gates for their chip.
    pub fn remapped(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.admission, Admission::Remapped(_)))
            .count()
    }

    /// Native operations executed across the batch (first attempts).
    pub fn native_ops(&self) -> usize {
        self.outcomes.iter().map(|o| o.ops).sum()
    }

    /// Retry attempts consumed across the batch.
    pub fn total_retries(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.retries)).sum()
    }

    /// Jobs with at least one operation left failed after the budget.
    pub fn failed_jobs(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.succeeded).count()
    }

    /// Operations that exhausted the retry budget across the batch.
    pub fn total_failed_ops(&self) -> usize {
        self.outcomes.iter().map(|o| o.failed_ops).sum()
    }

    /// Jobs that consumed at least one retry.
    pub fn retried_jobs(&self) -> usize {
        self.outcomes.iter().filter(|o| o.retries > 0).count()
    }

    /// Re-placements off dying chips across the batch (fault
    /// scenarios; always 0 otherwise).
    pub fn total_replacements(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| u64::from(o.replacements))
            .sum()
    }

    /// Summed modeled latency (submission order, so bit-stable).
    pub fn total_latency_ns(&self) -> f64 {
        self.outcomes.iter().map(|o| o.latency_ns).sum()
    }

    /// Summed modeled energy (submission order, so bit-stable).
    pub fn total_energy_pj(&self) -> f64 {
        self.outcomes.iter().map(|o| o.energy_pj).sum()
    }

    /// Per-job predicted-success rollup (merged in submission order).
    pub fn predicted_success(&self) -> SuccessAccumulator {
        let mut acc = SuccessAccumulator::new();
        acc.extend_from(self.outcomes.iter().map(|o| o.predicted_success));
        acc
    }

    /// Per-job retry-rate rollup: retries over total attempts, one
    /// value in `[0, 1)` per job (0 = clean first-attempt run).
    pub fn retry_rate(&self) -> SuccessAccumulator {
        let mut acc = SuccessAccumulator::new();
        acc.extend_from(self.outcomes.iter().map(|o| {
            let attempts = o.ops as f64 + f64::from(o.retries);
            if attempts > 0.0 {
                f64::from(o.retries) / attempts
            } else {
                0.0
            }
        }));
        acc
    }

    /// Exact per-job modeled-latency distribution.
    pub fn latency(&self) -> LatencySummary {
        LatencySummary::of(self.outcomes.iter().map(|o| o.latency_ns).collect())
    }

    /// Per-member utilization, for members that hosted at least one
    /// job, in member order.
    pub fn member_usage(&self) -> Vec<MemberUsage> {
        let mut rows: Vec<MemberUsage> = Vec::new();
        for o in &self.outcomes {
            let row = match rows.iter_mut().find(|r| r.member == o.member) {
                Some(r) => r,
                None => {
                    rows.push(MemberUsage {
                        member: o.member,
                        chip: o.chip.clone(),
                        jobs: 0,
                        ops: 0,
                        retries: 0,
                        flagged: 0,
                        latency_ns: 0.0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.jobs += 1;
            row.ops += o.ops;
            row.retries += u64::from(o.retries);
            row.flagged += usize::from(o.admission == Admission::Flagged);
            row.latency_ns += o.latency_ns;
        }
        rows.sort_by_key(|r| r.member);
        rows
    }

    /// Serializes the deterministic view of the report: batch-level
    /// rollups plus one row per job (results as digests). `shards`
    /// and wall-clock are deliberately absent — the bytes must be
    /// identical for every shard count.
    pub fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct JsonJob {
            id: usize,
            label: String,
            chip: String,
            wave: usize,
            admission: String,
            succeeded: bool,
            ops: usize,
            retries: u32,
            failed_ops: usize,
            replacements: u32,
            predicted_success: f64,
            latency_ns: f64,
            energy_pj: f64,
            result_digest: u64,
        }
        #[derive(Serialize)]
        struct JsonReport {
            jobs: usize,
            chips: usize,
            waves: usize,
            seed: u64,
            succeeded: usize,
            failed_jobs: usize,
            remapped: usize,
            flagged: usize,
            native_ops: usize,
            retries: u64,
            retried_jobs: usize,
            failed_ops: usize,
            replacements: u64,
            latency_ns: f64,
            energy_pj: f64,
            latency: LatencySummary,
            members: Vec<MemberUsage>,
            health: Option<FleetHealth>,
            outcomes: Vec<JsonJob>,
        }
        let doc = JsonReport {
            jobs: self.jobs(),
            chips: self.chips,
            waves: self.waves,
            seed: self.seed,
            succeeded: self.succeeded(),
            failed_jobs: self.failed_jobs(),
            remapped: self.remapped(),
            flagged: self.flagged(),
            native_ops: self.native_ops(),
            retries: self.total_retries(),
            retried_jobs: self.retried_jobs(),
            failed_ops: self.total_failed_ops(),
            replacements: self.total_replacements(),
            latency_ns: self.total_latency_ns(),
            energy_pj: self.total_energy_pj(),
            latency: self.latency(),
            members: self.member_usage(),
            health: self.health.clone(),
            outcomes: self
                .outcomes
                .iter()
                .map(|o| JsonJob {
                    id: o.job,
                    label: o.label.clone(),
                    chip: o.chip.clone(),
                    wave: o.wave,
                    admission: o.admission.to_string(),
                    succeeded: o.succeeded,
                    ops: o.ops,
                    retries: o.retries,
                    failed_ops: o.failed_ops,
                    replacements: o.replacements,
                    predicted_success: o.predicted_success,
                    latency_ns: o.latency_ns,
                    energy_pj: o.energy_pj,
                    result_digest: digest(&o.result),
                })
                .collect(),
        };
        serde_json::to_string_pretty(&doc).expect("report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::serve_batch;
    use crate::planner::SchedPolicy;
    use crate::testutil::batch_of;
    use dram_core::FleetConfig;
    use fcsynth::CostModel;

    fn small_report(shards: usize) -> BatchReport {
        let cost = CostModel::table1_defaults();
        let batch = batch_of(
            &["a & b", "a ^ b", "!(a | b | c)", "a&b&c&d&e&f&g&h"],
            16,
            5,
        );
        serve_batch(
            &FleetConfig::table1(2),
            &cost,
            &SchedPolicy::default().with_shards(shards),
            &batch,
        )
        .unwrap()
    }

    #[test]
    fn rollups_are_consistent() {
        let r = small_report(1);
        assert_eq!(r.jobs(), 4);
        assert_eq!(
            r.succeeded() + r.outcomes.iter().filter(|o| !o.succeeded).count(),
            4
        );
        assert_eq!(r.native_ops(), r.outcomes.iter().map(|o| o.ops).sum());
        assert_eq!(r.predicted_success().count(), 4);
        assert_eq!(r.retry_rate().count(), 4);
        let lat = r.latency();
        assert!(lat.min_ns <= lat.p50_ns && lat.p50_ns <= lat.p99_ns);
        assert!(lat.p99_ns <= lat.max_ns);
        let usage = r.member_usage();
        assert_eq!(usage.iter().map(|u| u.jobs).sum::<usize>(), 4);
        assert_eq!(usage.iter().map(|u| u.ops).sum::<usize>(), r.native_ops());
    }

    #[test]
    fn json_is_shard_invariant_and_excludes_shards() {
        let serial = small_report(1);
        let sharded = small_report(3);
        assert_ne!(serial.shards, sharded.shards);
        assert_eq!(
            serial.to_json(),
            sharded.to_json(),
            "JSON must be byte-identical across shard counts"
        );
        assert!(!serial.to_json().contains("\"shards\""));
    }

    #[test]
    fn digest_distinguishes_rows() {
        let mut a = PackedBits::zeros(70);
        let b = a.clone();
        assert_eq!(digest(&a), digest(&b));
        a.set(69, true);
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(
            digest(&PackedBits::zeros(64)),
            digest(&PackedBits::zeros(65))
        );
    }

    #[test]
    fn empty_latency_summary_is_safe() {
        let l = LatencySummary::of(Vec::new());
        assert_eq!(l.mean_ns, 0.0);
        assert_eq!(l.max_ns, 0.0);
    }
}
