//! Cycle-accurate command-schedule latency, and a wrapper backend
//! that charges it.
//!
//! The synthesis [`fcsynth::CostModel`] prices operations with
//! steady-state population numbers; [`ScheduleLatency`] instead prices
//! a step by *building its DDR4 command schedule* (the same shape
//! [`crate::BenderBackend`] executes: constant reference rows, `Frac`,
//! operand stagings, the violated double activation, and the result
//! write-back) at a concrete speed bin and reading the cycle span off
//! the program. The same nominal sequence therefore costs different
//! nanoseconds on 2133 vs 2666 MT/s parts — the mechanism behind the
//! paper's Figs. 11 and 20 — which is what makes fleet serving at
//! command-schedule fidelity a distinct scenario from cost-model
//! serving.

use crate::engine::ExecBackend;
use crate::error::Result;
use bender::ProgramBuilder;
use dram_core::{BankId, Bit, Geometry, GlobalRow, LocalRow, LogicOp, PatternKind, SpeedBin};
use fcdram::{GateSite, PackedBits, PatternEntry};
use fcsynth::Step;

/// The site schedules are priced on: one bank of a 512-row subarray
/// pair, 4 columns wide. A span depends only on the command timing,
/// not on addresses or the row width.
fn model_site() -> GateSite {
    GateSite {
        geom: Geometry::new(1, 2, 512, 4).expect("valid model geometry"),
        bank: BankId(0),
    }
}

/// A row payload of the model site's width.
fn model_row() -> Vec<Bit> {
    vec![Bit::Zero; 4]
}

/// A model-site entry activating `rf` in the first subarray and the
/// second subarray's first row, raising the given rows on each side.
fn model_entry(rf: usize, first_rows: Vec<LocalRow>, second_rows: Vec<LocalRow>) -> PatternEntry {
    PatternEntry {
        rf: GlobalRow(rf),
        rl: GlobalRow(512),
        first_rows,
        second_rows,
        kind: PatternKind::NN,
    }
}

/// Prices [`Step`]s by their command-schedule cycle span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleLatency {
    speed: SpeedBin,
}

impl ScheduleLatency {
    /// A model for a part of the given speed bin.
    pub fn new(speed: SpeedBin) -> ScheduleLatency {
        ScheduleLatency { speed }
    }

    fn ns_of(&self, build: impl FnOnce(&mut ProgramBuilder)) -> f64 {
        let mut b = ProgramBuilder::new(self.speed);
        build(&mut b);
        self.speed.cycles_to_ns(b.build().duration_cycles())
    }

    /// Schedule span of one native `N`-input gate: the gate program
    /// ([`fcdram::GateSite::logic`]: `N_e−1` constant writes + `Frac` +
    /// `N_e` operand stagings + the charge-sharing double activation)
    /// plus the result write-back, where `N_e` is the activation width
    /// `n` pads to.
    fn native_gate_ns(&self, n: usize) -> f64 {
        let ne = [2usize, 4, 8, 16]
            .into_iter()
            .find(|w| *w >= n)
            .unwrap_or(16);
        let rows: Vec<LocalRow> = (0..ne).map(LocalRow).collect();
        let entry = model_entry(ne - 1, rows.clone(), rows);
        let site = model_site();
        self.ns_of(|b| {
            site.logic(b, &entry, LogicOp::And, std::iter::empty())
                .expect("the model's rows fit its geometry");
            b.seq_write_row(site.bank, GlobalRow(0), model_row());
        })
    }

    /// Schedule span of the NOT sequence: the gate program
    /// ([`fcdram::GateSite::not`]: staging write plus the tRP-violating
    /// copy-invert pair) and the result write-back.
    fn not_ns(&self) -> f64 {
        let entry = model_entry(0, vec![LocalRow(0)], vec![LocalRow(0)]);
        let site = model_site();
        self.ns_of(|b| {
            site.not(b, &entry, model_row())
                .expect("the model's rows fit its geometry");
            b.seq_write_row(site.bank, GlobalRow(1), model_row());
        })
    }

    /// Schedule span of the single-operand degenerate gate (an
    /// in-subarray RowClone pair).
    fn copy_ns(&self) -> f64 {
        self.ns_of(|b| {
            b.seq_copy_invert(BankId(0), GlobalRow(0), GlobalRow(1));
        })
    }

    /// Cycle-accurate latency of one program step. Steps come from
    /// prepared programs, which `prepare` has already narrowed to the
    /// backend's native fan-in, so every gate step is one native
    /// schedule.
    pub fn step_ns(&self, step: &Step) -> f64 {
        match step.op {
            None => self.not_ns(),
            Some(op) if step.args.len() == 1 => {
                if op.is_inverted_terminal() {
                    self.not_ns()
                } else {
                    self.copy_ns()
                }
            }
            Some(_) => self.native_gate_ns(step.args.len()),
        }
    }
}

/// Wraps any backend so that per-step accounting sees cycle-accurate
/// command-schedule latency instead of the backend's own model.
///
/// This is how fleet serving runs at command-schedule fidelity while
/// keeping functional results on the wrapped backend (host-exact on
/// [`simdram::HostSubstrate`], so *scheduling still never changes
/// answers* — only the declared latency fields move).
#[derive(Debug)]
pub struct ScheduleTimed<B: ExecBackend> {
    inner: B,
    model: ScheduleLatency,
}

impl<B: ExecBackend> ScheduleTimed<B> {
    /// Wraps `inner`, timing steps at `speed`.
    pub fn new(inner: B, speed: SpeedBin) -> ScheduleTimed<B> {
        ScheduleTimed {
            inner,
            model: ScheduleLatency::new(speed),
        }
    }

    /// Unwraps the backend, so a caller can re-time it at another
    /// speed bin without rebuilding it.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: ExecBackend> ExecBackend for ScheduleTimed<B> {
    type Lease = B::Lease;

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn max_fan_in(&self) -> usize {
        self.inner.max_fan_in()
    }

    fn end_stage(&mut self, lease: B::Lease) {
        self.inner.end_stage(lease);
    }

    fn stage_many(&mut self, batches: &[&[PackedBits]]) -> Result<Vec<B::Lease>> {
        self.inner.stage_many(batches)
    }

    fn step_latency_ns(&self, step: &Step) -> Option<f64> {
        Some(self.model.step_ns(step))
    }

    fn prepare(
        &mut self,
        prog: &std::sync::Arc<fcsynth::SynthProgram>,
    ) -> Result<crate::PreparedProgram> {
        self.inner.prepare(prog)
    }

    fn run_prepared_leased<F: FnMut(usize, &Step)>(
        &mut self,
        prep: &crate::PreparedProgram,
        lease: &B::Lease,
        operands: &[PackedBits],
        on_step: F,
    ) -> Result<PackedBits> {
        self.inner
            .run_prepared_leased(prep, lease, operands, on_step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(op: Option<LogicOp>, n: usize) -> Step {
        Step {
            op,
            args: (0..n).collect(),
            out: n,
        }
    }

    #[test]
    fn wider_gates_cost_more_cycles() {
        let m = ScheduleLatency::new(SpeedBin::Mt2666);
        let n2 = m.step_ns(&step(Some(LogicOp::And), 2));
        let n4 = m.step_ns(&step(Some(LogicOp::And), 4));
        let n16 = m.step_ns(&step(Some(LogicOp::And), 16));
        assert!(n2 < n4 && n4 < n16, "{n2} {n4} {n16}");
        // Padding rounds 3 inputs up to the 4-row activation.
        assert_eq!(
            m.step_ns(&step(Some(LogicOp::Or), 3)),
            n4,
            "3 inputs pad to the 4:4 schedule"
        );
        assert!(m.step_ns(&step(None, 1)) > 0.0);
    }

    #[test]
    fn slower_bins_cost_more_nanoseconds() {
        let fast = ScheduleLatency::new(SpeedBin::Mt2666);
        let slow = ScheduleLatency::new(SpeedBin::Mt2133);
        let s = step(Some(LogicOp::Nand), 8);
        // Cycle counts scale with the bin's clock; ns must not shrink
        // on the slower part.
        assert!(slow.step_ns(&s) >= fast.step_ns(&s) * 0.99);
    }

    #[test]
    fn narrowed_plans_price_their_native_steps() {
        // A 16-input AND prepared at fan-in 4 is 4 + 1 four-input gates:
        // the plan costs five 4-input schedules, more than the one
        // 16-input schedule it replaces.
        let m = ScheduleLatency::new(SpeedBin::Mt2666);
        let cost = fcsynth::CostModel::table1_defaults();
        let text = "a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p";
        let prog = fcsynth::compile(text, &cost, 16).unwrap().mapping.program;
        let plan = crate::PreparedProgram::analyze(&prog, 4);
        let steps = &plan.program().steps;
        assert_eq!(steps.len(), 5);
        assert!(steps.iter().all(|s| s.args.len() <= 4));
        let total: f64 = steps.iter().map(|s| m.step_ns(s)).sum();
        let one = m.step_ns(&step(Some(LogicOp::And), 4));
        assert!((total - 5.0 * one).abs() < 1e-9);
        assert!(total > m.step_ns(&prog.steps[0]));
    }

    #[test]
    fn schedule_timed_overrides_latency_only() {
        use simdram::{HostSubstrate, SimdVm};
        let vm = SimdVm::new(HostSubstrate::new(16, 64)).unwrap();
        let mut timed = ScheduleTimed::new(vm, SpeedBin::Mt2666);
        assert_eq!(timed.lanes(), 16);
        assert_eq!(timed.max_fan_in(), 16);
        let s = step(Some(LogicOp::And), 2);
        assert!(timed.step_latency_ns(&s).is_some());
        // Functional behaviour delegates to the inner VM.
        let cost = fcsynth::CostModel::table1_defaults();
        let compiled = fcsynth::compile("a & b", &cost, 16).unwrap();
        let ops: Vec<PackedBits> = (0..2)
            .map(|i| {
                let mut p = PackedBits::zeros(16);
                for l in 0..16 {
                    p.set(l, (i + l) % 3 == 0);
                }
                p
            })
            .collect();
        let prep = timed.prepare(&compiled.mapping.program).unwrap();
        let got = crate::run_prepared(&mut timed, &prep, &ops).unwrap();
        assert_eq!(got, compiled.circuit.eval_packed(&ops));
    }
}
