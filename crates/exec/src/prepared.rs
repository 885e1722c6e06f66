//! Two-phase execution: compile a [`SynthProgram`] once into a
//! [`PreparedProgram`], then run it many times. This is the only way a
//! program reaches a backend.
//!
//! [`ExecBackend::prepare`] does all the per-program analysis once:
//!
//! * **narrowing** — a step wider than the backend's native fan-in is
//!   rewritten into a tree of native gates
//!   ([`SynthProgram::narrowed`]); the plan holds the narrowed program,
//!   and everything below is derived from it. A program that already
//!   fits is shared, not copied;
//! * the **row plan** — step-level register lifetimes resolved into an
//!   arena of reusable slots: the per-step free schedule is computed
//!   once, and [`PreparedProgram::arena_slots`] reports the peak number
//!   of simultaneously-live rows the plan touches;
//! * the **output action** — constant / passthrough / register moves
//!   classified once instead of per execution;
//! * on [`crate::BenderBackend`], the **gate-program check** — each
//!   gate step's activation-map entry resolved once, so a part that
//!   lacks a shape refuses the plan here, and
//!   [`PreparedProgram::template_count`] counts the distinct gate
//!   programs ([`fcdram::GateSite`] builds them) the plan ships.
//!
//! [`ExecBackend::run_prepared`] then executes with batched device
//! calls and no per-step operand read-backs: each substrate owns its
//! rows' values and each gate returns the bits it stored. A plan run on
//! a backend whose fan-in is narrower than one of its steps fails with
//! [`crate::ExecError::StepTooWide`]; no other walk is taken.

use crate::engine::ExecBackend;
use crate::error::{ExecError, Result};
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
/// only run on that instance (its narrowing and gate-program check
/// hold for that engine's activation map, and a step wider than the
/// running backend's fan-in is refused).
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    /// The program the plan runs: the caller's, shared (preparing bumps
    /// a refcount instead of copying it), or its narrowing to the
    /// preparing backend's fan-in when some step was wider.
    pub(crate) prog: Arc<SynthProgram>,
    /// Per-step list of registers whose rows die after that step:
    /// temporaries at their last use, in argument order.
    pub(crate) frees: Vec<Vec<usize>>,
    pub(crate) output: OutputAction,
    /// Argument count of the widest step of `prog`.
    width: usize,
    /// Distinct gate programs the plan ships (command-schedule
    /// backends only; see [`PreparedProgram::template_count`]).
    pub(crate) templates: usize,
    arena_slots: usize,
}

impl PreparedProgram {
    /// The backend-independent analysis: narrowing to `max_fan_in`,
    /// free schedule, output action, arena width. This is the whole plan on
    /// every backend but [`crate::BenderBackend`] ([`ExecBackend::prepare`]'s
    /// default is exactly this call at the backend's fan-in), so a
    /// caller that must size a backend from [`PreparedProgram::arena_slots`]
    /// can plan before the backend exists.
    pub fn analyze(prog: &Arc<SynthProgram>, max_fan_in: usize) -> PreparedProgram {
        let widest = |p: &SynthProgram| p.steps.iter().map(|s| s.args.len()).max().unwrap_or(0);
        let prog = if widest(prog) > max_fan_in {
            Arc::new(prog.narrowed(max_fan_in))
        } else {
            Arc::clone(prog)
        };
        let n_in = prog.inputs.len();
        let last_use = prog.last_use();
        let frees = prog
            .steps
            .iter()
            .enumerate()
            .map(|(i, step)| {
                // A register dies after its last use; a register
                // repeated in one step dies once.
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
        PreparedProgram {
            width: widest(&prog),
            arena_slots: prog.peak_live_rows(),
            prog,
            frees,
            output,
            templates: 0,
        }
    }

    /// The program this plan runs: the one it was prepared from, or
    /// that program narrowed to the preparing backend's fan-in.
    pub fn program(&self) -> &SynthProgram {
        &self.prog
    }

    /// Peak number of simultaneously-live rows the row plan holds —
    /// the arena width a backend needs for this plan.
    pub fn arena_slots(&self) -> usize {
        self.arena_slots
    }

    /// Number of distinct gate command programs the plan ships: one
    /// per `(op family, N:N entry)` its gate steps run through, plus
    /// one when it has a NOT. Counted by [`crate::BenderBackend`]'s
    /// prepare; 0 on the other backends.
    pub fn template_count(&self) -> usize {
        self.templates
    }

    /// The fused visits of the plan's program — maximal `[start, end)`
    /// runs of gate steps between copy steps — computed on each call
    /// by [`fused_visits_of`].
    pub fn fused_visits(&self) -> Vec<(usize, usize)> {
        fused_visits_of(&self.prog)
    }

    /// Fails with [`ExecError::StepTooWide`] when a step is wider than
    /// `fan_in` — the run-time guard against a plan prepared for a
    /// wider backend.
    pub(crate) fn check_fan_in(&self, fan_in: usize) -> Result<()> {
        if self.width > fan_in {
            return Err(ExecError::StepTooWide {
                width: self.width,
                fan_in,
            });
        }
        Ok(())
    }
}

/// The fused visits of a program: maximal `[start, end)` runs of gate
/// steps between copy steps (a copy is a one-input monotone gate).
/// Execution does not depend on them; they only group steps for
/// counters and trace spans.
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
    }

    #[test]
    fn prepare_narrows_over_wide_steps() {
        let prog = mapped("a & b & c & d & e & f & g & h & i & j & k & l & m & n & o & p");
        let widest = |p: &PreparedProgram| p.program().steps.iter().map(|s| s.args.len()).max();
        let wide = PreparedProgram::analyze(&prog, 16);
        assert_eq!(widest(&wide), Some(16), "mapper emitted a 16-input gate");
        assert!(
            Arc::ptr_eq(&wide.prog, &prog),
            "a fitting program is shared"
        );
        let narrow = PreparedProgram::analyze(&prog, 2);
        assert_eq!(widest(&narrow), Some(2));
        assert!(narrow.program().steps.len() > prog.steps.len());
        assert_eq!(narrow.fused_visits().len(), wide.fused_visits().len());

        // A 16-wide plan on the fan-in-8 part is refused, not rerouted.
        let cfg = dram_core::config::table1()
            .into_iter()
            .find(|m| m.name == "hynix-8Gb-M-2666-#0")
            .unwrap()
            .with_modeled_cols(64);
        let engine = fcdram::BulkEngine::new(
            fcdram::Fcdram::new(cfg),
            dram_core::BankId(0),
            dram_core::SubarrayId(0),
        )
        .unwrap();
        let mut vm = simdram::SimdVm::new(simdram::DramSubstrate::new(engine)).unwrap();
        assert_eq!(ExecBackend::max_fan_in(&vm), 8);
        let ops: Vec<fcdram::PackedBits> = (0..16)
            .map(|i| fcdram::PackedBits::seeded(1, i, ExecBackend::lanes(&vm)))
            .collect();
        let err = run_prepared(&mut vm, &wide, &ops).unwrap_err();
        assert_eq!(
            err,
            ExecError::StepTooWide {
                width: 16,
                fan_in: 8
            }
        );
        let prep = vm.prepare(&prog).unwrap();
        assert_eq!(widest(&prep), Some(8));
        assert!(run_prepared(&mut vm, &prep, &ops).is_ok());
    }
}
