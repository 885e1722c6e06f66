//! # fcserve — the always-on FCDRAM serving daemon
//!
//! Everything below [`fcsched`] runs one batch and exits. This crate
//! is the persistent layer on top: a multi-tenant daemon that ingests
//! jobs continuously, admits them against per-tenant reliability and
//! queue bounds, drains per-tenant queues into fcsched micro-batches
//! on a modeled tick clock, tracks rolling p50/p99 per tenant against
//! SLO targets, and shuts down with a graceful drain. Std-only
//! threads + channels — no new dependencies.
//!
//! The module layout mirrors the serving pipeline:
//!
//! 1. **[`tier`]** — [`TierClass`] priority tiers (gold > silver >
//!    bronze), per-tenant [`TenantSpec`] traffic/SLO contracts, and
//!    the deterministic arrival model;
//! 2. **[`session`]** — the JSON-round-trippable [`SessionLog`]:
//!    every ingested job is appended as an [`IngestEvent`], and a
//!    recorded session re-executes **byte-identically** under
//!    [`daemon::replay`];
//! 3. **[`daemon`]** — the tick engine ([`daemon::run_live`] /
//!    [`daemon::replay`]): ingestion → admission (shed-or-queue,
//!    reliability-aware rejection consulting
//!    [`fcsynth::SynthProgram::narrowed`]) → SLO-biased micro-batch
//!    formation → [`fcsched`] plan/execute → modeled-latency
//!    accounting;
//! 4. **[`report`]** — the deterministic [`DaemonReport`]: per-tenant
//!    rollups, periodic [`HealthSnapshot`](report::HealthSnapshot)s with modeled throughput,
//!    and a cumulative fault ledger.
//!
//! ## The replay invariant
//!
//! A [`DaemonReport`] is a pure function of
//! `(session log, fleet, cost model)` — **not** of the shard count,
//! the execution backend, or the wall clock. Per-job latency is
//! *modeled*: tick-clock queue wait plus the planner's cost-model
//! predicted service time scaled by the deterministic retry count.
//! The executed backend latency (which legitimately differs between
//! `vm` and `bender`) never enters the report, so CI byte-diffs one
//! recorded session across `{vm,bender} × {1,5}-shard` replays.
//!
//! ## Quickstart
//!
//! ```
//! use fcserve::{daemon, DaemonConfig, TenantSpec, TierClass};
//! use dram_core::FleetConfig;
//! use fcsynth::CostModel;
//!
//! let cost = CostModel::table1_defaults();
//! let fleet = FleetConfig::table1(2);
//! let tenants = vec![TenantSpec {
//!     name: "interactive".into(),
//!     tier: TierClass::Gold,
//!     exprs: vec!["a & b".into(), "a ^ b".into()],
//!     rate: 1.5,
//!     burst: 1,
//!     slo_us: 50.0,
//!     queue_cap: 8,
//!     sheddable: false,
//!     min_success: 0.8,
//! }];
//! let cfg = DaemonConfig {
//!     seed: 7,
//!     ..DaemonConfig::default()
//! };
//! let (log, live) = daemon::run_live(&fleet, &cost, &cfg, &tenants)?;
//! let replayed = daemon::replay(&fleet, &cost, &log, None, None)?;
//! assert_eq!(live.to_json(), replayed.to_json());
//! # Ok::<(), fcserve::ServeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod daemon;
pub mod report;
pub mod session;
pub mod tier;

pub use daemon::{replay, replay_obs, run_live, run_live_obs, Daemon};
pub use report::DaemonReport;
pub use session::{IngestEvent, SessionLog};
pub use tier::{DaemonConfig, DaemonKnobs, TenantSpec, TierClass};

use std::fmt;

/// Everything that can go wrong while serving a session.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A tenant expression failed to compile.
    Compile {
        /// Tenant name.
        tenant: String,
        /// The offending expression.
        expr: String,
        /// Compiler diagnostic.
        error: String,
    },
    /// A scheduling or execution failure inside a micro-batch.
    Sched(fcsched::SchedError),
    /// A malformed session log (bad version, out-of-range indices).
    BadSession(String),
    /// An observability artifact (metrics exposition) failed to write.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Compile {
                tenant,
                expr,
                error,
            } => write!(f, "tenant '{tenant}': expression '{expr}': {error}"),
            ServeError::Sched(e) => write!(f, "micro-batch failed: {e}"),
            ServeError::BadSession(msg) => write!(f, "bad session log: {msg}"),
            ServeError::Io(msg) => write!(f, "observability write failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Sched(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fcsched::SchedError> for ServeError {
    fn from(e: fcsched::SchedError) -> Self {
        ServeError::Sched(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ServeError>;
