//! # fcsched — throughput-grade scheduling of FCDRAM programs
//!
//! PR1–3 built the execution engine, the chip fleet, and the compiler;
//! this crate is the layer that serves *many* workloads at once: it
//! accepts batches of synthesized programs ([`fcsynth::Mapping`] jobs
//! with packed operands), plans them onto a [`dram_core::FleetConfig`]
//! fleet, and executes the plan over scoped worker threads.
//!
//! The pipeline, one module each:
//!
//! 1. **[`queue`]** — validated job batches in submission order;
//! 2. **[`planner`]** — placement (least-loaded chip + a
//!    `(subarray, row-range)` slot lease from
//!    [`dram_core::FleetSlots`], with wave rollover when a chip
//!    saturates) and reliability-aware admission: every job is
//!    re-priced under its *assigned chip's* derated [`CostModel`];
//!    jobs below the policy threshold are re-mapped to narrower
//!    native gates or flagged;
//! 3. **[`executor`]** — functional execution through the unified
//!    [`fcexec`] engine, generic over any [`fcexec::ExecBackend`]
//!    (host-exact results on every shipping backend), plus
//!    deterministic per-operation retry modeling against the chip's
//!    success rates, sharded over scoped threads with outcomes
//!    reassembled in submission order; the policy's
//!    [`fcexec::BackendKind`] selects cost-model pricing (`vm`) or
//!    cycle-accurate command-schedule latency at each chip's speed
//!    bin (`bender`);
//! 4. **[`report`]** — success/retry/latency/energy rollups
//!    ([`fcdram::SuccessAccumulator`]), exact latency percentiles,
//!    per-chip utilization, and a deterministic JSON view.
//!
//! ## Fidelity invariant
//!
//! *Scheduling never changes answers.* A job's result bits are a pure
//! function of its program and operands — bit-identical for every
//! shard count and fleet layout, and equal to serial per-job execution
//! on a fleet of one (`tests/sched_equivalence.rs` pins this, and the
//! CI determinism gate diffs the report bytes). Retry accounting is a
//! pure function of `(batch seed, jobs, fleet, policy)`.
//!
//! ## Quickstart
//!
//! ```
//! use fcsched::{serve_batch, Batch, SchedPolicy};
//! use dram_core::FleetConfig;
//! use fcsynth::CostModel;
//!
//! let cost = CostModel::table1_defaults();
//! let majority = fcsynth::compile("(a & b) | (a & c) | (b & c)", &cost, 16)?;
//! let lanes = 64;
//! let operands: Vec<fcdram::PackedBits> = (0..3)
//!     .map(|i| {
//!         let mut p = fcdram::PackedBits::zeros(lanes);
//!         for l in 0..lanes {
//!             p.set(l, dram_core::math::mix2(i, l as u64) & 1 == 1);
//!         }
//!         p
//!     })
//!     .collect();
//! let mut batch = Batch::new(0xF1EE7);
//! for _ in 0..8 {
//!     batch.push("majority", &majority.mapping, operands.clone(), lanes)?;
//! }
//! let report = serve_batch(
//!     &FleetConfig::table1(4),
//!     &cost,
//!     &SchedPolicy::default(),
//!     &batch,
//! )?;
//! assert_eq!(report.jobs(), 8);
//! assert!(report.native_ops() >= 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod executor;
pub mod health;
pub mod planner;
pub mod queue;
pub mod report;

pub use error::{Result, SchedError};
pub use executor::{
    execute_plan, execute_plan_traced, fused_jobs, ideal_cost, run_job_on, serve_batch, JobOutcome,
    StepTrace, TraceCtx,
};
pub use health::{Dropout, FleetHealth, HealthEvent, MemberHealth};
pub use planner::{Admission, Assignment, ChipProfile, Plan, Planner, SchedPolicy};
pub use queue::{Batch, Job, JobId};
pub use report::{digest, BatchReport, LatencySummary, MemberUsage};

// Re-exported for doc examples and downstream convenience.
pub use dram_core::{AgingPolicy, DisturbancePolicy, FaultPlan, PlannedDropout};
pub use fcexec::BackendKind;
pub use fcsynth::CostModel;

/// Shared test fixtures (the one place the operand-derivation
/// convention for test batches lives).
#[cfg(test)]
pub(crate) mod testutil {
    use crate::queue::Batch;
    use fcdram::PackedBits;
    use fcsynth::CostModel;

    /// Builds a batch whose operand *data* derives from `data_seed`
    /// while retry draws derive from `batch_seed` — so tests can vary
    /// one without the other.
    pub(crate) fn batch_of_seeded(
        exprs: &[&str],
        lanes: usize,
        data_seed: u64,
        batch_seed: u64,
    ) -> Batch {
        let cost = CostModel::table1_defaults();
        let mut b = Batch::new(batch_seed);
        for (i, text) in exprs.iter().enumerate() {
            let compiled = fcsynth::compile(text, &cost, 16).unwrap();
            let n = compiled.circuit.inputs().len();
            let ops: Vec<PackedBits> = (0..n)
                .map(|k| PackedBits::seeded(data_seed ^ i as u64, k as u64, lanes))
                .collect();
            b.push(*text, &compiled.mapping, ops, lanes).unwrap();
        }
        b
    }

    /// [`batch_of_seeded`] with one seed for both roles.
    pub(crate) fn batch_of(exprs: &[&str], lanes: usize, seed: u64) -> Batch {
        batch_of_seeded(exprs, lanes, seed, seed)
    }
}
