//! # fcexec — the unified execution-backend layer
//!
//! The paper's pipeline (`Frac` → charge share → copy-out, §5–§6)
//! used to be implemented once per layer: four near-duplicate
//! `execute_*` variants in `fcsynth`, the scheduler's inner loop, and
//! the CLI verifiers. This crate is the single seam they all run
//! through now:
//!
//! * **[`ExecBackend`]** — the backend trait: staged operand leases,
//!   packed host I/O, an optional cycle-accurate latency hook, and the
//!   one execution path, [`ExecBackend::prepare`] then
//!   [`ExecBackend::run_prepared`] with a per-step observer;
//! * **[`PreparedProgram`]** — a program compiled once for one backend:
//!   steps wider than the backend's fan-in narrowed into trees of
//!   native gates, the row plan, and (on [`BenderBackend`]) the count
//!   of gate programs it ships, each checked against the part;
//! * **[`SimdVm`](simdram::SimdVm)`<S>`** — the VM backend for any
//!   [`simdram::Substrate`]: the exact host golden model and the
//!   characterized DRAM device model;
//! * **[`BenderBackend`]** — the command-schedule backend: the
//!   `SimdVm<DramSubstrate>` walk, where every native operation is one
//!   combined cycle-timed DDR4 program executed through
//!   [`bender::Bender`], priced per step by [`ScheduleLatency`];
//! * **[`ScheduleLatency`] / [`ScheduleTimed`]** — the cycle-accurate
//!   latency model the fleet scheduler's bender mode charges.
//!
//! Adding a backend means implementing one trait — not re-writing the
//! pipeline at four sites.
//!
//! ## Quickstart
//!
//! ```
//! use fcexec::ExecBackend;
//! use fcsynth::CostModel;
//! use simdram::{HostSubstrate, SimdVm};
//!
//! let cost = CostModel::table1_defaults();
//! let c = fcsynth::compile("(a & b) | (a & c) | (b & c)", &cost, 16)?;
//! let lanes = 8;
//! let operands: Vec<fcdram::PackedBits> = (0..3)
//!     .map(|i| {
//!         let mut p = fcdram::PackedBits::zeros(lanes);
//!         for l in 0..lanes {
//!             p.set(l, dram_core::math::mix2(i, l as u64) & 1 == 1);
//!         }
//!         p
//!     })
//!     .collect();
//! let mut vm = SimdVm::new(HostSubstrate::new(lanes, 64))?;
//! let prep = vm.prepare(&c.mapping.program)?;
//! let got = fcexec::run_prepared(&mut vm, &prep, &operands)?;
//! assert_eq!(got, c.circuit.eval_packed(&operands));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bender_backend;
pub mod engine;
pub mod error;
pub mod latency;
pub mod obs;
pub mod prepared;
mod vm;

pub use bender_backend::BenderBackend;
pub use engine::ExecBackend;
pub use error::{ExecError, Result};
pub use latency::{ScheduleLatency, ScheduleTimed};
pub use prepared::{fused_visits_of, run_prepared, PreparedProgram};

use serde::{Deserialize, Serialize};

/// Which shipping backend a caller wants, by name — the CLI/scheduler
/// selection knob (`--backend {vm,bender}`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// The [`simdram::SimdVm`] backend (host-exact golden model for
    /// serving; [`simdram::DramSubstrate`] for device studies), priced
    /// by the external cost model.
    #[default]
    Vm,
    /// The bender command-schedule fidelity: cycle-accurate DDR4
    /// schedule latency ([`ScheduleLatency`]) at each chip's speed
    /// bin.
    Bender,
}

impl BackendKind {
    /// Parses the CLI spelling.
    pub fn parse(text: &str) -> Option<BackendKind> {
        match text {
            "vm" => Some(BackendKind::Vm),
            "bender" => Some(BackendKind::Bender),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Vm => write!(f, "vm"),
            BackendKind::Bender => write!(f, "bender"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_round_trips() {
        for kind in [BackendKind::Vm, BackendKind::Bender] {
            assert_eq!(BackendKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(BackendKind::parse("fpga"), None);
        assert_eq!(BackendKind::default(), BackendKind::Vm);
    }
}
