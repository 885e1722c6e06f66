//! The [`ExecBackend`] trait and the single generic program engine.
//!
//! Every layer that used to carry its own copy of the Frac →
//! charge-share → copy-out pipeline (the four `fcsynth::execute_*`
//! variants, the scheduler's inner loop, the CLI verifiers) now drives
//! one engine: [`execute_with`] walks a [`SynthProgram`] step by step
//! against any backend, frees temporaries at their last use, and calls
//! an observer after every step — the hook per-operation accounting
//! (retry draws, modeled latency/energy) plugs into without the
//! backend knowing about any of it.
//!
//! Two I/O modes share the walk:
//!
//! * **rows** ([`execute_with`]) — operands are backend
//!   rows the caller already staged; the result row is returned owned.
//! * **packed** ([`execute_packed_with`] / [`execute_packed`]) —
//!   operands are host [`PackedBits`]; the engine stages them as one
//!   all-or-nothing lease, executes, reads the packed result back, and
//!   returns every staged row.

use crate::error::{ExecError, Result};
use crate::prepared::PreparedProgram;
use dram_core::LogicOp;
use fcdram::PackedBits;
use fcsynth::{Output, Step, SynthProgram};
use std::sync::Arc;

/// A backend that executes mapped programs one native operation at a
/// time.
///
/// Implementations must never clobber operand rows (the in-DRAM
/// engines stage operands into reserved scratch), so a row may appear
/// several times in one [`ExecBackend::op`] call and inputs survive
/// execution.
pub trait ExecBackend {
    /// Handle to one backend-resident row of bits.
    type Row: Copy + std::fmt::Debug;
    /// A batch of staged operand rows, allocated and returned
    /// together ([`simdram::RowLease`] on the VM backend).
    type Lease;

    /// Bits per row (SIMD lanes).
    fn lanes(&self) -> usize;

    /// Widest native gate one [`ExecBackend::op`] call executes as a
    /// single operation; wider argument lists are tree-reduced by the
    /// backend.
    fn max_fan_in(&self) -> usize;

    /// Stages packed operands into fresh rows, all-or-nothing: when
    /// staging fails part-way, every allocated row is returned before
    /// the error propagates.
    fn stage(&mut self, operands: &[PackedBits]) -> Result<Self::Lease>;

    /// The staged rows of a lease, in operand order.
    fn lease_rows(lease: &Self::Lease) -> &[Self::Row];

    /// Returns every row of a lease to the backend's pool.
    fn end_stage(&mut self, lease: Self::Lease);

    /// Stages several operand sets in one bulk operation — one lease
    /// per set, in order, all-or-nothing across the whole batch (a
    /// failure returns every already-staged lease before propagating).
    ///
    /// The default loops [`ExecBackend::stage`]; backends with a bulk
    /// write path override it to amortize per-staging fixed costs
    /// (the command-schedule backend emits one combined `Wr`-burst
    /// program for the whole batch). Staged bits are identical to the
    /// looped default.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecBackend::stage`].
    fn stage_many(&mut self, batches: &[&[PackedBits]]) -> Result<Vec<Self::Lease>>
    where
        Self: Sized,
    {
        let mut leases = Vec::with_capacity(batches.len());
        for operands in batches {
            match self.stage(operands) {
                Ok(lease) => leases.push(lease),
                Err(e) => {
                    for lease in leases {
                        self.end_stage(lease);
                    }
                    return Err(e);
                }
            }
        }
        Ok(leases)
    }

    /// Executes one native operation into a freshly allocated row:
    /// `None` is NOT (one argument), `Some(op)` the N-input gate.
    fn op(&mut self, op: Option<LogicOp>, args: &[Self::Row]) -> Result<Self::Row>;

    /// A fresh row holding the constant `value` in every lane.
    fn constant(&mut self, value: bool) -> Result<Self::Row>;

    /// A fresh row holding a copy of `src` (used for passthrough
    /// outputs, which must not alias the caller's operand rows).
    fn duplicate(&mut self, src: Self::Row) -> Result<Self::Row>;

    /// Reads a row back packed.
    fn read_row(&mut self, r: Self::Row) -> Result<PackedBits>;

    /// Returns a row to the pool (shared constant rows, should a
    /// backend expose any, are silently kept).
    fn release(&mut self, r: Self::Row);

    /// Cycle-accurate per-step latency when this backend's fidelity is
    /// a real command schedule; `None` when latency belongs to an
    /// external cost model. Callers doing per-operation accounting
    /// query this once per step before execution.
    fn step_latency_ns(&self, step: &Step) -> Option<f64> {
        let _ = step;
        None
    }

    /// Compiles `prog` into a reusable [`PreparedProgram`]: the row
    /// plan and output action are resolved once, and command-schedule
    /// backends precompute their per-`(op, N)` program templates. The
    /// returned plan is specific to this backend instance. The plan
    /// shares `prog` (one refcount) rather than copying it.
    ///
    /// The default performs the backend-independent analysis only.
    ///
    /// # Errors
    ///
    /// Backend overrides may fail while building templates.
    fn prepare(&mut self, prog: &Arc<SynthProgram>) -> Result<PreparedProgram>
    where
        Self: Sized,
    {
        Ok(PreparedProgram::analyze(prog, self.max_fan_in()))
    }

    /// Executes a prepared plan over packed operands, bit-identical to
    /// [`execute_packed_with`] on the same backend — same allocation
    /// order, same device-call sequence, same stored bits — with the
    /// per-execution analysis and per-step read-backs elided.
    ///
    /// Always exactly [`ExecBackend::stage`] +
    /// [`ExecBackend::run_prepared_leased`] + [`ExecBackend::end_stage`]
    /// after an operand-count check; backends customize the leased
    /// walk, never this bracket.
    ///
    /// # Errors
    ///
    /// Same conditions as [`execute_packed_with`].
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
    /// `end_stage`.
    ///
    /// The default walks the embedded program through the unprepared
    /// engine over the lease's rows.
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
        Self: Sized,
    {
        let _ = operands;
        let inputs: Vec<Self::Row> = Self::lease_rows(lease).to_vec();
        let out = execute_with(self, &prep.prog, &inputs, on_step)?;
        let packed = self.read_row(out);
        self.release(out);
        packed
    }
}

/// Executes `prog` over pre-staged operand rows, calling
/// `on_step(i, step)` after step `i` completes.
///
/// `inputs` are read but never freed or clobbered; the returned row is
/// owned by the caller (for constant or passthrough outputs it is a
/// fresh copy). Temporaries are released at their last use, keeping
/// row pressure at the live-range width instead of the program length.
///
/// # Errors
///
/// Fails on an operand-count mismatch or any backend failure.
pub fn execute_with<B: ExecBackend, F: FnMut(usize, &Step)>(
    backend: &mut B,
    prog: &SynthProgram,
    inputs: &[B::Row],
    mut on_step: F,
) -> Result<B::Row> {
    check_operands(prog, inputs.len())?;
    let n_in = inputs.len();
    let mut regs: Vec<Option<B::Row>> = vec![None; prog.n_regs];
    for (r, row) in inputs.iter().enumerate() {
        regs[r] = Some(*row);
    }
    let result = run_steps(backend, prog, inputs, &mut regs, &mut on_step);
    if result.is_err() {
        // A mid-program failure must not strand the temporaries still
        // live in the register file (the caller's input rows are never
        // released) — a long-lived backend would otherwise lose pool
        // rows on every failed execution.
        for slot in regs.iter_mut().skip(n_in) {
            if let Some(row) = slot.take() {
                backend.release(row);
            }
        }
    }
    result
}

/// The step walk of [`execute_with`]; separated so the caller can
/// reclaim the register file when any step fails.
fn run_steps<B: ExecBackend, F: FnMut(usize, &Step)>(
    backend: &mut B,
    prog: &SynthProgram,
    inputs: &[B::Row],
    regs: &mut [Option<B::Row>],
    on_step: &mut F,
) -> Result<B::Row> {
    let n_in = inputs.len();
    let last_use = prog.last_use();
    for (i, step) in prog.steps.iter().enumerate() {
        let args: Vec<B::Row> = step
            .args
            .iter()
            .map(|r| regs[*r].expect("mapper emits defs before uses"))
            .collect();
        let out = backend.op(step.op, &args)?;
        regs[step.out] = Some(out);
        on_step(i, step);
        for r in &step.args {
            if *r >= n_in && last_use[*r] <= i {
                if let Some(row) = regs[*r].take() {
                    backend.release(row);
                }
            }
        }
    }
    match prog.output {
        Output::Const(b) => backend.constant(b),
        Output::Reg(r) if r < n_in => backend.duplicate(inputs[r]),
        Output::Reg(r) => Ok(regs[r].take().expect("output register defined")),
    }
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

/// Stages packed operands, executes, reads the packed result back, and
/// frees every staged row — the universal entry point; per-step
/// accounting hooks in through `on_step`.
///
/// # Errors
///
/// Fails on operand mismatch, ragged lane counts, or row exhaustion.
/// Error paths still return the staged lease before propagating.
pub fn execute_packed_with<B: ExecBackend, F: FnMut(usize, &Step)>(
    backend: &mut B,
    prog: &SynthProgram,
    operands: &[PackedBits],
    on_step: F,
) -> Result<PackedBits> {
    check_operands(prog, operands.len())?;
    let lease = backend.stage(operands)?;
    let inputs: Vec<B::Row> = B::lease_rows(&lease).to_vec();
    let result = execute_with(backend, prog, &inputs, on_step);
    let out = match result {
        Ok(out) => {
            let packed = backend.read_row(out);
            backend.release(out);
            packed
        }
        Err(e) => Err(e),
    };
    backend.end_stage(lease);
    out
}

/// [`execute_packed_with`] without an observer.
///
/// # Errors
///
/// Same conditions as [`execute_packed_with`].
pub fn execute_packed<B: ExecBackend>(
    backend: &mut B,
    prog: &SynthProgram,
    operands: &[PackedBits],
) -> Result<PackedBits> {
    execute_packed_with(backend, prog, operands, |_, _| {})
}
