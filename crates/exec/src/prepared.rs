//! Two-phase execution: compile a [`SynthProgram`] once into a
//! [`PreparedProgram`], then run it many times.
//!
//! [`crate::execute_packed_with`] re-derives everything on every call:
//! the last-use table, the per-step free lists, and — on the
//! command-schedule backend — one freshly built `ProgramBuilder`
//! sequence per native operation. A scheduler that retries a job, or a
//! serving daemon executing the same compiled circuit across thousands
//! of batches, pays that analysis again each time.
//!
//! [`ExecBackend::prepare`] hoists all of it out of the hot path:
//!
//! * the **row plan** — step-level register lifetimes resolved into an
//!   arena of reusable slots: the per-step free schedule is computed
//!   once (the per-step free schedule), and
//!   [`PreparedProgram::arena_slots`] reports the peak number of
//!   simultaneously-live rows the plan touches;
//! * the **output action** — constant / passthrough / register moves
//!   classified once instead of per execution;
//! * on [`crate::BenderBackend`], the **command-program templates** —
//!   one cycle-timed DDR4 [`bender::Program`] per `(op family, N)`
//!   shape, built once by the `fcdram` gate builder
//!   ([`fcdram::GateSite`]) with constant payloads and patched per
//!   execution at the `Wr` indices the builder reports.
//!
//! [`ExecBackend::run_prepared`] then executes with batched device
//! calls: operand values are threaded host-side (the value-path
//! `*_known` substrate operations), so per-step operand read-backs
//! disappear, and — when the engine's activation map permits
//! ([`fcdram::BulkEngine::mask_safe`]) — charge-share programs compute
//! only the terminal the step consumes. Results are bit-identical to
//! the unprepared path: same allocation order, same device-call
//! sequence for every stochastic draw, same stored bits
//! (`tests/exec_equivalence.rs` pins this property-style).

use crate::engine::ExecBackend;
use crate::error::Result;
use fcsynth::{Output, SynthProgram};
use std::sync::Arc;

/// How the output row of a prepared execution is produced, resolved
/// once at prepare time from [`Output`] and the operand count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutputAction {
    /// A fresh row holding a constant in every lane.
    Const(bool),
    /// A fresh copy of operand `i` (passthrough outputs must not
    /// alias the caller's rows).
    Passthrough(usize),
    /// The row computed into register `r` is moved out.
    Reg(usize),
}

/// A compiled execution plan for one [`SynthProgram`] on one backend.
///
/// Produced by [`ExecBackend::prepare`]; executed — any number of
/// times — by [`ExecBackend::run_prepared`]. The plan is
/// **backend-specific**: a plan prepared on one backend instance must
/// only run on that instance (command templates embed that engine's
/// activation-map rows; the fan-in snapshot is re-checked at run time
/// and a mismatch falls back to the unprepared path).
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    /// The program, shared with the caller (preparing bumps a refcount
    /// instead of copying it).
    pub(crate) prog: Arc<SynthProgram>,
    /// Per-step list of registers whose rows die after that step, in
    /// the exact order the unprepared engine releases them.
    pub(crate) frees: Vec<Vec<usize>>,
    pub(crate) output: OutputAction,
    /// `true` when some step is wider than the preparing backend's
    /// native fan-in: those steps tree-reduce through backend-internal
    /// allocation, so execution takes the unprepared path wholesale.
    pub(crate) fallback: bool,
    /// The native fan-in the plan was prepared against; re-checked by
    /// `run_prepared` so a plan can never drive a mismatched backend
    /// down the templated path.
    pub(crate) prepared_fan_in: usize,
    /// Command-program templates (command-schedule backends only).
    pub(crate) templates: Option<crate::bender_backend::BenderTemplates>,
    /// Deterministic serialization of the templates, empty when the
    /// backend has none — `prepare` is a pure function of the program,
    /// and this is the witness equality is checked against.
    pub(crate) template_bytes: Vec<u8>,
    /// Fused visits: maximal `[start, end)` runs of consecutive steps
    /// that execute in the engine's subarray pair without reading rows
    /// back mid-run (copy steps RowClone on-device and bound a run).
    /// `run_prepared` executes each one as a single engine visit.
    pub(crate) visits: Vec<(usize, usize)>,
    arena_slots: usize,
}

impl PreparedProgram {
    /// The backend-independent analysis: free schedule, output action,
    /// arena width, fallback classification. This is the whole plan on
    /// every backend without command templates ([`ExecBackend::prepare`]'s
    /// default is exactly this call at the backend's fan-in), so a
    /// caller that must size a backend from [`PreparedProgram::arena_slots`]
    /// can plan before the backend exists.
    pub fn analyze(prog: &Arc<SynthProgram>, max_fan_in: usize) -> PreparedProgram {
        let n_in = prog.inputs.len();
        let last_use = prog.last_use();
        let frees = prog
            .steps
            .iter()
            .enumerate()
            .map(|(i, step)| {
                // Same predicate and same order as the unprepared
                // engine's free pass; `take()` semantics collapse to
                // first-occurrence dedup.
                let mut dying: Vec<usize> = Vec::new();
                for r in &step.args {
                    if *r >= n_in && last_use[*r] <= i && !dying.contains(r) {
                        dying.push(*r);
                    }
                }
                dying
            })
            .collect();
        let output = match prog.output {
            Output::Const(b) => OutputAction::Const(b),
            Output::Reg(r) if r < n_in => OutputAction::Passthrough(r),
            Output::Reg(r) => OutputAction::Reg(r),
        };
        let fallback = prog.steps.iter().any(|s| s.args.len() > max_fan_in);
        let visits = fused_visits_of(prog);
        PreparedProgram {
            prog: Arc::clone(prog),
            frees,
            output,
            fallback,
            prepared_fan_in: max_fan_in,
            templates: None,
            template_bytes: Vec::new(),
            visits,
            arena_slots: prog.peak_live_rows(),
        }
    }

    /// The program this plan was compiled from.
    pub fn program(&self) -> &SynthProgram {
        &self.prog
    }

    /// Peak number of simultaneously-live rows the row plan holds —
    /// the arena width a backend needs for this plan.
    pub fn arena_slots(&self) -> usize {
        self.arena_slots
    }

    /// Number of precompiled command-program templates (0 on backends
    /// that execute through a substrate rather than command schedules).
    pub fn template_count(&self) -> usize {
        self.templates.as_ref().map_or(0, |t| t.count())
    }

    /// Deterministic byte serialization of the command templates —
    /// preparing the same program twice yields identical bytes.
    pub fn template_bytes(&self) -> &[u8] {
        &self.template_bytes
    }

    /// Whether execution will take the unprepared fallback path (some
    /// step exceeds the preparing backend's native fan-in).
    pub fn is_fallback(&self) -> bool {
        self.fallback
    }

    /// The fused visits the step plan defines: maximal `[start, end)`
    /// runs of steps a backend may execute under one engine visit.
    /// A pure function of the program — independent of which backend
    /// prepared the plan, so observability counters derived from it
    /// are invariant across backends.
    pub fn fused_visits(&self) -> &[(usize, usize)] {
        &self.visits
    }

    /// Whether this plan's fan-in snapshot matches `fan_in` — the
    /// run-time guard against driving a mismatched backend.
    pub(crate) fn fits(&self, fan_in: usize) -> bool {
        !self.fallback && self.prepared_fan_in == fan_in
    }
}

/// The fused visits a program's step plan defines: maximal `[start,
/// end)` runs of consecutive steps a backend may execute under one
/// engine visit. A step is fusable unless it is a one-input monotone
/// gate (executed as an on-device copy, which must see all prior
/// writes landed); maximal runs of fusable steps become one visit
/// each.
///
/// A pure function of the program — independent of any backend and of
/// the shard count — so observability counters
/// and spans derived from it byte-diff cleanly across all of those.
pub fn fused_visits_of(prog: &SynthProgram) -> Vec<(usize, usize)> {
    let mut visits: Vec<(usize, usize)> = Vec::new();
    let mut run_start: Option<usize> = None;
    for (i, step) in prog.steps.iter().enumerate() {
        let is_copy =
            matches!(step.op, Some(op) if step.args.len() == 1 && !op.is_inverted_terminal());
        if is_copy {
            if let Some(s) = run_start.take() {
                visits.push((s, i));
            }
        } else if run_start.is_none() {
            run_start = Some(i);
        }
    }
    if let Some(s) = run_start {
        visits.push((s, prog.steps.len()));
    }
    visits
}

/// [`ExecBackend::run_prepared`] without an observer.
///
/// # Errors
///
/// Same conditions as [`ExecBackend::run_prepared`].
pub fn run_prepared<B: ExecBackend>(
    backend: &mut B,
    prep: &PreparedProgram,
    operands: &[fcdram::PackedBits],
) -> Result<fcdram::PackedBits> {
    backend.run_prepared(prep, operands, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcsynth::CostModel;

    fn mapped(text: &str) -> Arc<SynthProgram> {
        let cost = CostModel::table1_defaults();
        fcsynth::compile(text, &cost, 16).unwrap().mapping.program
    }

    #[test]
    fn analysis_matches_engine_free_discipline() {
        let prog = mapped("(a & b) | (c & d) | (a & d)");
        let prep = PreparedProgram::analyze(&prog, 16);
        assert!(!prep.is_fallback());
        assert_eq!(prep.frees.len(), prog.steps.len());
        // Every temporary register is freed exactly once, and no
        // operand register is ever freed.
        let n_in = prog.inputs.len();
        let mut freed = std::collections::BTreeSet::new();
        for dying in &prep.frees {
            for r in dying {
                assert!(*r >= n_in, "operand register freed");
                assert!(freed.insert(*r), "register {r} freed twice");
            }
        }
        // The output register must survive to the end.
        if let OutputAction::Reg(r) = prep.output {
            assert!(!freed.contains(&r), "output register freed");
        }
        assert!(prep.arena_slots() >= n_in);
        assert_eq!(prep.template_count(), 0);
        assert!(prep.template_bytes().is_empty());
    }

    #[test]
    fn narrow_fan_in_forces_fallback() {
        let prog = mapped("a & b & c & d & e & f & g & h");
        let wide = prog.steps.iter().map(|s| s.args.len()).max().unwrap();
        assert!(wide > 2, "mapper emitted only narrow steps");
        let prep = PreparedProgram::analyze(&prog, 2);
        assert!(prep.is_fallback());
        assert!(!prep.fits(2));
        let prep16 = PreparedProgram::analyze(&prog, 16);
        assert!(prep16.fits(16));
        assert!(!prep16.fits(8), "fan-in snapshot mismatch must not fit");
    }
}
