//! Fleet-health accounting for fault-injected serving sessions.
//!
//! When a [`crate::SchedPolicy`] carries a [`dram_core::FaultPlan`],
//! the planner tracks — per fleet member — read-disturbance pressure,
//! mitigation bandwidth stolen from the slot leases, hazard-rate
//! lifetimes, reliability diversions, and chip dropouts with their
//! deterministic in-flight job re-placements. Everything in this
//! module is a pure function of `(fleet, batch, policy)`: like the
//! plan itself it is bit-identical across shard counts *and* across
//! execution backends (the planner prices load with the cost model,
//! never the backend's latency), which is what lets CI byte-diff the
//! health tables across all four `{vm,bender} × {1,5}-shard` runs.

use serde::{Deserialize, Serialize};

/// One fleet member's degradation ledger over a served session.
///
/// Stays `pub` although no other crate names it: it is the element type
/// of [`FleetHealth::members`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemberHealth {
    /// Fleet member index.
    pub member: usize,
    /// The member's display label (`module/cN`).
    pub chip: String,
    /// MIL-HDBK-217F part failure rate, failures per 10⁶ hours.
    pub hazard_per_mhours: f64,
    /// Deterministic modeled failure time (served nanoseconds), when
    /// it falls inside the fault horizon.
    pub fail_at_ns: Option<f64>,
    /// Lifetime activation-rows charged to the member's subarrays.
    pub disturbance_acts: u64,
    /// Mitigation operations the planner scheduled on the member.
    pub mitigations: u64,
    /// Serving bandwidth the mitigations stole, nanoseconds.
    pub mitigation_ns: f64,
    /// Placements diverted away from this member because wear derating
    /// pushed a job below the admission threshold.
    pub diverted: usize,
    /// The job being placed when the member dropped out, if it did.
    pub dropped_at_job: Option<usize>,
    /// Modeled time of the dropout, nanoseconds.
    pub dropped_at_ns: Option<f64>,
}

/// One chip death during a served session.
///
/// Stays `pub` although no other crate names it: it is the element type
/// of [`FleetHealth::dropouts`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dropout {
    /// Fleet member that died.
    pub member: usize,
    /// The member's display label.
    pub chip: String,
    /// The job whose placement pushed the member past its failure
    /// time.
    pub job: usize,
    /// Modeled time of death, nanoseconds.
    pub at_ns: f64,
    /// In-flight jobs deterministically re-placed onto surviving
    /// members.
    pub replaced: usize,
}

/// One entry of the unified fault timeline: a mitigation, diversion,
/// or dropout, stamped with the member and the modeled time it
/// happened. The trace layer turns these into `fault`-category
/// instants, which is what gives the `serve-dropouts` table ordering
/// context on the batch timeline.
///
/// Stays `pub` although no other crate names it: it is the element type
/// of [`FleetHealth::timeline`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthEvent {
    /// Event kind: `"mitigation"`, `"diversion"`, or `"dropout"`.
    pub kind: String,
    /// Fleet member the event happened on.
    pub member: usize,
    /// The member's display label.
    pub chip: String,
    /// Modeled time of the event on the member's load clock,
    /// nanoseconds.
    pub at_ns: f64,
    /// The job being placed when the event fired.
    pub job: usize,
}

/// The fleet-wide health report of one fault-injected session.
///
/// Stays `pub` although no other crate names it: it is the type of
/// [`crate::Plan::health`] and [`crate::BatchReport::health`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetHealth {
    /// Seed of the [`dram_core::FaultPlan`] that produced this ledger
    /// (replaying it with the same fleet and batch reproduces every
    /// number below).
    pub plan_seed: u64,
    /// Per-member ledgers, in fleet order (every member, even unused).
    pub members: Vec<MemberHealth>,
    /// Dropout timeline, in occurrence (submission-time) order.
    pub dropouts: Vec<Dropout>,
    /// Total jobs re-placed off dying chips.
    pub replaced_jobs: usize,
    /// Unified fault timeline (mitigations, diversions, dropouts), in
    /// occurrence order — a pure function of the plan, so
    /// byte-identical on every serving configuration.
    pub timeline: Vec<HealthEvent>,
}

impl FleetHealth {
    /// Mitigations scheduled across the fleet.
    pub fn total_mitigations(&self) -> u64 {
        self.members.iter().map(|m| m.mitigations).sum()
    }

    /// Lifetime activation-rows charged across the fleet.
    pub fn total_disturbance(&self) -> u64 {
        self.members.iter().map(|m| m.disturbance_acts).sum()
    }

    /// Serving bandwidth stolen by mitigation across the fleet,
    /// nanoseconds.
    pub fn total_mitigation_ns(&self) -> f64 {
        self.members.iter().map(|m| m.mitigation_ns).sum()
    }

    /// Placements diverted by wear derating across the fleet.
    pub fn total_diverted(&self) -> usize {
        self.members.iter().map(|m| m.diverted).sum()
    }

    /// Serializes the health report as pretty JSON — the artifact the
    /// CI determinism gate byte-diffs across shard counts and
    /// backends.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("health report serializes")
    }
}
