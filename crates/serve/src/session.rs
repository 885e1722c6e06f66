//! The session log: a recorded serving session that replays
//! byte-identically.
//!
//! Every job the daemon ingests is appended to the log as one
//! [`IngestEvent`] — `(tick, tenant, expression index, operand
//! seed)` — in exact ingestion order. Together with the tenant
//! contracts, the decision-shaping knobs, and the fleet/cost-model
//! identity, that is *everything* the engine's decisions depend on:
//! `characterize daemon --replay SESSION.json` rebuilds the same
//! queues, forms the same micro-batches, draws the same retries, and
//! emits the same report bytes — at any shard count, on either
//! execution backend. (`policy.shards` / `policy.backend` are stored
//! for provenance but replays may override them freely; the report
//! never reads executed backend latency.)

use crate::tier::{DaemonConfig, DaemonKnobs, TenantSpec};
use crate::{Result, ServeError};
use serde::{Deserialize, Serialize};

/// Current session-log schema version.
pub(crate) const SESSION_VERSION: u32 = 1;

/// One ingested job, in ingestion order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IngestEvent {
    /// Tick the job arrived on.
    pub tick: usize,
    /// Index into [`SessionLog::tenants`].
    pub tenant: usize,
    /// Index into that tenant's expression mix.
    pub expr: usize,
    /// Seed the job's operand bits derive from.
    pub job_seed: u64,
}

/// A complete recorded session: replayable input to
/// [`crate::daemon::replay`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionLog {
    /// Schema version (`SESSION_VERSION`).
    pub version: u32,
    /// Session seed (micro-batch retry draws derive from it).
    pub seed: u64,
    /// Fleet size the session was served on.
    pub chips: usize,
    /// Fleet population seed (0 = Table-1 chips).
    pub fleet_seed: u64,
    /// Single-module fleet, when one was selected.
    pub module: Option<String>,
    /// Cost-model source path (`None` = built-in Table-1 defaults).
    /// Replays must load the same model: admission prices against it.
    pub costs: Option<String>,
    /// SIMD lanes per job.
    pub lanes: usize,
    /// Widest native gate when compiling tenant expressions.
    pub fan_in: usize,
    /// Decision-shaping daemon knobs.
    pub knobs: DaemonKnobs,
    /// Scheduler policy at record time (replays may override `shards`
    /// and `backend` without changing a report byte).
    pub policy: fcsched::SchedPolicy,
    /// Tenant contracts, in tenant-index order.
    pub tenants: Vec<TenantSpec>,
    /// Every ingested job, in ingestion order (grouped by tick,
    /// tenants in index order within a tick).
    pub events: Vec<IngestEvent>,
}

impl SessionLog {
    /// Builds the log header for a session about to be recorded
    /// (events are appended by the live engine).
    pub fn for_config(
        cfg: &DaemonConfig,
        tenants: &[TenantSpec],
        chips: usize,
        fleet_seed: u64,
        module: Option<String>,
        costs: Option<String>,
    ) -> SessionLog {
        SessionLog {
            version: SESSION_VERSION,
            seed: cfg.seed,
            chips,
            fleet_seed,
            module,
            costs,
            lanes: cfg.lanes,
            fan_in: cfg.fan_in,
            knobs: cfg.knobs.clone(),
            policy: cfg.policy.clone(),
            tenants: tenants.to_vec(),
            events: Vec::new(),
        }
    }

    /// Reconstructs the [`DaemonConfig`] this log was recorded under,
    /// optionally overriding the serving-time choices (`shards`,
    /// `backend`) that may not move a report byte.
    pub(crate) fn config(
        &self,
        shards: Option<usize>,
        backend: Option<fcexec::BackendKind>,
    ) -> DaemonConfig {
        let mut policy = self.policy.clone();
        if let Some(s) = shards {
            policy.shards = s;
        }
        if let Some(b) = backend {
            policy.backend = b;
        }
        DaemonConfig {
            seed: self.seed,
            lanes: self.lanes,
            fan_in: self.fan_in,
            knobs: self.knobs.clone(),
            policy,
        }
    }

    /// Structural validation: version, tenant/expression indices,
    /// tick monotonicity.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadSession`] naming the first problem.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.version != SESSION_VERSION {
            return Err(ServeError::BadSession(format!(
                "version {} (this build reads {SESSION_VERSION})",
                self.version
            )));
        }
        if self.tenants.is_empty() {
            return Err(ServeError::BadSession("no tenants".into()));
        }
        if self.chips == 0 {
            return Err(ServeError::BadSession("zero-chip fleet".into()));
        }
        let mut last_tick = 0usize;
        for (i, e) in self.events.iter().enumerate() {
            if e.tenant >= self.tenants.len() {
                return Err(ServeError::BadSession(format!(
                    "event {i}: tenant {} out of range ({} tenants)",
                    e.tenant,
                    self.tenants.len()
                )));
            }
            if e.expr >= self.tenants[e.tenant].exprs.len() {
                return Err(ServeError::BadSession(format!(
                    "event {i}: expr {} out of range for tenant '{}'",
                    e.expr, self.tenants[e.tenant].name
                )));
            }
            if e.tick < last_tick {
                return Err(ServeError::BadSession(format!(
                    "event {i}: tick {} after tick {last_tick} (not in ingestion order)",
                    e.tick
                )));
            }
            if e.tick >= self.knobs.ticks {
                return Err(ServeError::BadSession(format!(
                    "event {i}: tick {} beyond the session's {} ingestion tick(s)",
                    e.tick, self.knobs.ticks
                )));
            }
            last_tick = e.tick;
        }
        Ok(())
    }

    /// Serializes the log as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("session log serializes")
    }

    /// Parses and validates a log from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadSession`] on a parse or validation
    /// failure.
    pub fn from_json(json: &str) -> Result<SessionLog> {
        let log: SessionLog =
            serde_json::from_str(json).map_err(|e| ServeError::BadSession(e.to_string()))?;
        log.validate()?;
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::TierClass;

    fn demo_log() -> SessionLog {
        let tenants = vec![TenantSpec {
            name: "t0".into(),
            tier: TierClass::Gold,
            exprs: vec!["a & b".into(), "a | b".into()],
            rate: 1.0,
            burst: 0,
            slo_us: 100.0,
            queue_cap: 4,
            sheddable: false,
            min_success: 0.8,
        }];
        let cfg = DaemonConfig {
            seed: 5,
            ..DaemonConfig::default()
        };
        let mut log = SessionLog::for_config(&cfg, &tenants, 2, 0, None, None);
        log.events.push(IngestEvent {
            tick: 0,
            tenant: 0,
            expr: 1,
            job_seed: 99,
        });
        log.events.push(IngestEvent {
            tick: 2,
            tenant: 0,
            expr: 0,
            job_seed: 7,
        });
        log
    }

    #[test]
    fn json_round_trip_is_exact() {
        let log = demo_log();
        let back = SessionLog::from_json(&log.to_json()).unwrap();
        assert_eq!(back, log);
        // And the bytes themselves are stable.
        assert_eq!(back.to_json(), log.to_json());
    }

    #[test]
    fn validation_rejects_malformed_logs() {
        let mut bad = demo_log();
        bad.version = 999;
        assert!(matches!(bad.validate(), Err(ServeError::BadSession(_))));

        let mut bad = demo_log();
        bad.events[0].tenant = 5;
        assert!(bad.validate().is_err());

        let mut bad = demo_log();
        bad.events[0].expr = 9;
        assert!(bad.validate().is_err());

        let mut bad = demo_log();
        bad.events[0].tick = 3; // after event 1's tick 2
        assert!(bad.validate().is_err(), "out-of-order ticks rejected");

        let mut bad = demo_log();
        bad.events[1].tick = bad.knobs.ticks;
        assert!(bad.validate().is_err(), "tick beyond ingestion window");

        assert!(SessionLog::from_json("{not json").is_err());
    }

    #[test]
    fn config_overrides_only_serving_time_choices() {
        let log = demo_log();
        let c = log.config(Some(5), Some(fcexec::BackendKind::Bender));
        assert_eq!(c.policy.shards, 5);
        assert_eq!(c.policy.backend, fcexec::BackendKind::Bender);
        assert_eq!(c.seed, log.seed);
        assert_eq!(c.knobs, log.knobs);
        let unchanged = log.config(None, None);
        assert_eq!(unchanged.policy, log.policy);
    }
}
