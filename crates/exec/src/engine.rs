//! The [`ExecBackend`] trait: the one seam every layer executes mapped
//! programs through.
//!
//! Every layer that used to carry its own copy of the Frac →
//! charge-share → copy-out pipeline (the four `fcsynth::execute_*`
//! variants, the scheduler's inner loop, the CLI verifiers) now takes
//! one path: [`ExecBackend::prepare`] compiles a [`SynthProgram`] into
//! a [`PreparedProgram`] (narrowing steps wider than the backend's
//! fan-in), and [`ExecBackend::run_prepared`] walks it over packed
//! host operands, freeing temporaries at their last use and calling an
//! observer after every step — the hook per-operation accounting
//! (retry draws, modeled latency/energy) plugs into without the
//! backend knowing about any of it.

use crate::error::{ExecError, Result};
use crate::prepared::PreparedProgram;
use fcdram::PackedBits;
use fcsynth::{Step, SynthProgram};
use std::sync::Arc;

/// A backend that executes prepared programs one native operation at
/// a time.
///
/// Implementations must never clobber operand rows (the in-DRAM
/// engines stage operands into reserved scratch), so a row may appear
/// several times in one step's arguments and inputs survive
/// execution.
pub trait ExecBackend {
    /// A batch of staged operand rows, allocated and returned
    /// together ([`simdram::RowLease`] on the VM backend).
    type Lease;

    /// Bits per row (SIMD lanes).
    fn lanes(&self) -> usize;

    /// Widest gate the backend executes as one native operation;
    /// [`ExecBackend::prepare`] narrows wider steps to it.
    fn max_fan_in(&self) -> usize;

    /// Stages several operand sets into fresh rows — one lease per
    /// set, in order, all-or-nothing across the whole batch: when
    /// staging fails part-way, every allocated row is returned before
    /// the error propagates.
    ///
    /// # Errors
    ///
    /// Fails on row exhaustion, a ragged lane count or any backend
    /// write failure.
    fn stage_many(&mut self, batches: &[&[PackedBits]]) -> Result<Vec<Self::Lease>>;

    /// Stages one operand set: [`ExecBackend::stage_many`] over a
    /// batch of one, yielding its lease.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecBackend::stage_many`].
    fn stage(&mut self, operands: &[PackedBits]) -> Result<Self::Lease> {
        let lease = self.stage_many(&[operands])?.pop();
        Ok(lease.expect("one lease per staged set"))
    }

    /// Returns every row of a lease to the backend's pool.
    fn end_stage(&mut self, lease: Self::Lease);

    /// Cycle-accurate per-step latency when this backend's fidelity is
    /// a real command schedule; `None` when latency belongs to an
    /// external cost model. Callers doing per-operation accounting
    /// query this once per step before execution.
    fn step_latency_ns(&self, step: &Step) -> Option<f64> {
        let _ = step;
        None
    }

    /// Compiles `prog` into a reusable [`PreparedProgram`]: steps wider
    /// than [`ExecBackend::max_fan_in`] are narrowed into trees of
    /// native gates, the row plan and output action are resolved once,
    /// and the command-schedule backend checks every gate step against
    /// the part's activation map. The returned plan is specific to this
    /// backend instance. When no step needs narrowing the plan shares
    /// `prog` (one refcount) rather than copying it.
    ///
    /// The default performs the backend-independent analysis only.
    ///
    /// # Errors
    ///
    /// Backend overrides may refuse a step the part cannot run.
    fn prepare(&mut self, prog: &Arc<SynthProgram>) -> Result<PreparedProgram>
    where
        Self: Sized,
    {
        Ok(PreparedProgram::analyze(prog, self.max_fan_in()))
    }

    /// Executes a prepared plan over packed operands: stages them as
    /// one all-or-nothing lease, walks the plan's steps (calling
    /// `on_step(i, step)` after step `i`, over the plan's possibly
    /// narrowed steps), reads the packed result back, and returns every
    /// staged row.
    ///
    /// Always exactly [`ExecBackend::stage`] +
    /// [`ExecBackend::run_prepared_leased`] + [`ExecBackend::end_stage`]
    /// after an operand-count check; backends customize the leased
    /// walk, never this bracket.
    ///
    /// # Errors
    ///
    /// Fails on operand mismatch, ragged lane counts, row exhaustion,
    /// a step wider than this backend's fan-in
    /// ([`ExecError::StepTooWide`]), or any backend failure. Error
    /// paths still return the staged lease before propagating.
    fn run_prepared<F: FnMut(usize, &Step)>(
        &mut self,
        prep: &PreparedProgram,
        operands: &[PackedBits],
        on_step: F,
    ) -> Result<PackedBits>
    where
        Self: Sized,
    {
        check_operands(&prep.prog, operands.len())?;
        let lease = self.stage(operands)?;
        let result = self.run_prepared_leased(prep, &lease, operands, on_step);
        self.end_stage(lease);
        result
    }

    /// Executes a prepared plan over an operand lease the *caller*
    /// staged (via [`ExecBackend::stage`] or
    /// [`ExecBackend::stage_many`]) and still owns — the lease is not
    /// consumed, so a scheduler can stage many jobs' operands in one
    /// bulk operation and then run them back to back. The caller must
    /// [`ExecBackend::end_stage`] the lease afterwards.
    ///
    /// Results are bit-identical to [`ExecBackend::run_prepared`] on
    /// the same operands, which is this call between `stage` and
    /// `end_stage`. A plan with a step wider than this backend's
    /// fan-in is refused with [`ExecError::StepTooWide`] before any
    /// step runs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecBackend::run_prepared`].
    fn run_prepared_leased<F: FnMut(usize, &Step)>(
        &mut self,
        prep: &PreparedProgram,
        lease: &Self::Lease,
        operands: &[PackedBits],
        on_step: F,
    ) -> Result<PackedBits>
    where
        Self: Sized;
}

/// Fails with [`ExecError::InputMismatch`] unless `prog` takes exactly
/// `got` operands.
pub(crate) fn check_operands(prog: &SynthProgram, got: usize) -> Result<()> {
    if got == prog.inputs.len() {
        Ok(())
    } else {
        Err(ExecError::InputMismatch {
            expected: prog.inputs.len(),
            got,
        })
    }
}
