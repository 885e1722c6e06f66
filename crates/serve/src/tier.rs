//! Priority tiers, tenant contracts, and the daemon's knobs.
//!
//! A [`TenantSpec`] is one tenant's *serving contract*: which
//! expressions it submits, how fast they arrive (a deterministic
//! seeded traffic model — the daemon has no wall clock), what rolling
//! p99 the tenant expects ([`TenantSpec::slo_us`]), how deep its
//! admission queue may grow, and what happens when it overflows
//! (shed for [`TenantSpec::sheddable`] tenants, queue-and-degrade
//! otherwise). Tiers order tenants inside every micro-batch: gold
//! drains before silver before bronze, so under saturation the
//! backpressure lands on the cheapest traffic first.

use dram_core::math::{hash_to_unit, mix3, mix4};
use serde::{Deserialize, Serialize};

/// Priority tier of a tenant. Lower rank drains first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TierClass {
    /// Latency-critical traffic: drained first, never shed.
    Gold,
    /// Standard traffic.
    Silver,
    /// Bulk/batch traffic: drained last, shed first under overload.
    Bronze,
}

impl TierClass {
    /// Drain order: 0 (gold) drains before 1 (silver) before 2
    /// (bronze).
    pub fn rank(self) -> usize {
        match self {
            TierClass::Gold => 0,
            TierClass::Silver => 1,
            TierClass::Bronze => 2,
        }
    }

    /// Lower-case display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            TierClass::Gold => "gold",
            TierClass::Silver => "silver",
            TierClass::Bronze => "bronze",
        }
    }

    /// All tiers in drain order.
    pub(crate) fn all() -> [TierClass; 3] {
        [TierClass::Gold, TierClass::Silver, TierClass::Bronze]
    }
}

impl std::fmt::Display for TierClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One tenant's serving contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Display name (also the session-log identity).
    pub name: String,
    /// Priority tier.
    pub tier: TierClass,
    /// The tenant's job mix: boolean expressions submitted
    /// round-robin-ish (the arrival model picks deterministically).
    pub exprs: Vec<String>,
    /// Mean arrivals per tick. The fractional part becomes a
    /// deterministic Bernoulli arrival, so e.g. `1.5` alternates
    /// pseudo-randomly between 1 and 2 jobs.
    pub rate: f64,
    /// Extra jobs injected on a burst tick (~1 tick in 8 draws a
    /// burst). `0` disables bursting.
    pub burst: usize,
    /// SLO target: the tenant's rolling p99 *modeled* latency must
    /// stay at or below this many microseconds.
    pub slo_us: f64,
    /// Admission queue bound. Arrivals beyond it are shed
    /// ([`Self::sheddable`]) or queued over-cap (the queue arm of
    /// shed-or-queue: non-sheddable tenants degrade latency instead
    /// of losing work).
    pub queue_cap: usize,
    /// Whether over-cap arrivals are dropped instead of queued.
    pub sheddable: bool,
    /// Reliability floor at admission: a job is admitted only if some
    /// native-width variant — as submitted, or narrowed via
    /// [`fcsynth::SynthProgram::narrowed`] — clears this expected
    /// success under the population cost model. When even the best
    /// variant misses the floor, the job is rejected outright rather
    /// than queued for an execution that cannot honor the contract.
    pub min_success: f64,
}

impl TenantSpec {
    /// Deterministic arrivals for this tenant at `tick`: the seeded
    /// traffic model every live run and replay agree on.
    pub fn arrivals(&self, tenant: usize, session_seed: u64, tick: usize) -> usize {
        let base = self.rate.max(0.0);
        let whole = base.floor() as usize;
        let frac = base - base.floor();
        let bern = hash_to_unit(mix3(session_seed ^ 0x7E4A, tenant as u64, tick as u64));
        let mut n = whole + usize::from(bern < frac);
        if self.burst > 0 {
            let spike = hash_to_unit(mix3(session_seed ^ 0xB125_7000, tenant as u64, tick as u64));
            if spike < 0.125 {
                n += self.burst;
            }
        }
        n
    }

    /// Deterministic expression pick for arrival `k` of `tick`.
    pub fn pick_expr(&self, tenant: usize, session_seed: u64, tick: usize, k: usize) -> usize {
        if self.exprs.is_empty() {
            return 0;
        }
        (mix4(session_seed ^ 0xE59, tenant as u64, tick as u64, k as u64) % self.exprs.len() as u64)
            as usize
    }

    /// Deterministic operand seed for arrival `k` of `tick` (recorded
    /// in the session log; replay derives the same operand bits).
    pub fn job_seed(&self, tenant: usize, session_seed: u64, tick: usize, k: usize) -> u64 {
        mix4(session_seed, tenant as u64, tick as u64, k as u64)
    }
}

/// The daemon knobs that shape *decisions* (and therefore the
/// report). They ride inside the [`crate::SessionLog`] so a replay
/// reproduces them without re-supplying flags.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaemonKnobs {
    /// Ingestion ticks before the graceful drain begins.
    pub ticks: usize,
    /// Maximum extra drain ticks once ingestion stops.
    pub drain_max: usize,
    /// Modeled tick period, nanoseconds (queue wait is charged in
    /// whole ticks).
    pub tick_ns: f64,
    /// Micro-batch budget: jobs handed to the scheduler per tick.
    pub max_batch: usize,
    /// Health-snapshot interval, in ticks.
    pub report_every: usize,
    /// Rolling SLO window: how many recent completions feed each
    /// tenant's live p50/p99.
    pub slo_window: usize,
}

impl Default for DaemonKnobs {
    fn default() -> Self {
        DaemonKnobs {
            ticks: 12,
            drain_max: 64,
            tick_ns: 20_000.0,
            max_batch: 12,
            report_every: 4,
            slo_window: 64,
        }
    }
}

/// Full daemon configuration: the knobs plus compile/scheduling
/// context.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Session seed: traffic, operands, and micro-batch retry draws
    /// all derive from it.
    pub seed: u64,
    /// SIMD lanes per job.
    pub lanes: usize,
    /// Widest native gate when compiling tenant expressions.
    pub fan_in: usize,
    /// Decision-shaping knobs (recorded in the session log).
    pub knobs: DaemonKnobs,
    /// Scheduler policy for every micro-batch. `shards` and `backend`
    /// are serving-time choices: they may differ between a recording
    /// and its replays without moving a single report byte.
    pub policy: fcsched::SchedPolicy,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            seed: 0,
            lanes: 64,
            fan_in: 16,
            knobs: DaemonKnobs::default(),
            policy: fcsched::SchedPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rate: f64, burst: usize) -> TenantSpec {
        TenantSpec {
            name: "t".into(),
            tier: TierClass::Silver,
            exprs: vec!["a & b".into(), "a | b".into(), "a ^ b".into()],
            rate,
            burst,
            slo_us: 100.0,
            queue_cap: 4,
            sheddable: false,
            min_success: 0.8,
        }
    }

    #[test]
    fn tier_order_is_gold_first() {
        assert!(TierClass::Gold.rank() < TierClass::Silver.rank());
        assert!(TierClass::Silver.rank() < TierClass::Bronze.rank());
        assert_eq!(TierClass::all().map(|t| t.rank()), [0, 1, 2]);
        assert_eq!(TierClass::Bronze.to_string(), "bronze");
    }

    #[test]
    fn arrivals_are_deterministic_and_rate_shaped() {
        let s = spec(1.5, 0);
        let ticks = 512;
        let total: usize = (0..ticks).map(|t| s.arrivals(0, 42, t)).sum();
        // Mean 1.5/tick: the Bernoulli fraction keeps the long-run
        // total near rate*ticks.
        assert!((640..=896).contains(&total), "total {total}");
        for t in 0..16 {
            assert_eq!(s.arrivals(0, 42, t), s.arrivals(0, 42, t), "pure");
        }
        // Bursts add on top.
        let bursty = spec(1.5, 8);
        let btotal: usize = (0..ticks).map(|t| bursty.arrivals(0, 42, t)).sum();
        assert!(btotal > total, "bursts must add arrivals");
        // Integer rate with no bursts is exact.
        let flat = spec(2.0, 0);
        assert!((0..64).all(|t| flat.arrivals(0, 7, t) == 2));
    }

    #[test]
    fn expr_pick_and_job_seed_cover_the_mix() {
        let s = spec(1.0, 0);
        let picks: std::collections::BTreeSet<usize> = (0..64)
            .flat_map(|t| (0..2).map(|k| s.pick_expr(0, 9, t, k)).collect::<Vec<_>>())
            .collect();
        assert_eq!(picks.len(), 3, "all expressions drawn: {picks:?}");
        assert_ne!(s.job_seed(0, 9, 1, 0), s.job_seed(0, 9, 1, 1));
        assert_ne!(s.job_seed(0, 9, 1, 0), s.job_seed(1, 9, 1, 0));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let s = spec(2.5, 3);
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: TenantSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
