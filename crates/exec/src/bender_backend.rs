//! The command-schedule backend: mapped programs executed as
//! cycle-timed DDR4 command programs through [`bender::Bender`]'s
//! gap-recognizing executor, priced per step by their cycle span.
//!
//! Every device gate already runs as a command program: the
//! [`simdram::DramSubstrate`] asks [`fcdram::BulkEngine`] for each gate,
//! and the engine ships the program [`fcdram::GateSite`] builds — the
//! paper's §5–§6 schedule: N−1 constant reference rows plus one `Frac`,
//! the N operand stagings, and the doubly-violated charge-sharing
//! activation (for NOT, the staging write plus the tRP-violating
//! copy-invert pair) — through [`bender::Bender::execute`], which
//! re-derives the analog consequences purely from the inter-command
//! gaps. This backend therefore runs the VM's prepared walk itself and
//! adds what the command-schedule fidelity owns: cycle-accurate step
//! latency ([`ScheduleLatency`]), a prepare that refuses a shape the
//! part cannot activate, and a native-operation count.
//!
//! ## Bit-identity with the VM backend
//!
//! Both backends are one walk over one engine, so on the same module
//! configuration they produce bit-identical results for every program
//! (`tests/exec_equivalence.rs` pins this).

use crate::engine::ExecBackend;
use crate::error::Result;
use crate::latency::ScheduleLatency;
use crate::prepared::PreparedProgram;
use fcdram::{BulkEngine, PackedBits};
use fcsynth::{Step, SynthProgram};
use simdram::{DramSubstrate, RowLease, SimdVm};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A mapped-program execution backend that drives a (simulated) chip
/// through combined command schedules and prices each step by its
/// schedule's cycle span.
///
/// Construction wraps a [`BulkEngine`] in a
/// [`SimdVm`]`<`[`DramSubstrate`]`>` (same discovery, same reserved
/// scratch, same allocation pool and shared constant rows as the VM
/// backend); staging and the prepared walk are the VM's.
#[derive(Debug)]
pub struct BenderBackend {
    vm: SimdVm<DramSubstrate>,
    latency: ScheduleLatency,
    native_ops: usize,
}

impl BenderBackend {
    /// Wraps a bulk engine, allocating the shared constant rows.
    ///
    /// # Errors
    ///
    /// Fails when the engine cannot allocate two rows.
    pub fn new(engine: BulkEngine) -> Result<Self> {
        let latency = ScheduleLatency::new(engine.config().speed);
        let mut vm = SimdVm::new(DramSubstrate::new(engine))?;
        vm.clear_trace();
        Ok(BenderBackend {
            vm,
            latency,
            native_ops: 0,
        })
    }

    /// Builds the full stack for chip 0 of a module configuration.
    ///
    /// # Errors
    ///
    /// Fails when discovery finds no usable activation pattern on this
    /// part (e.g. Micron behaviour) or rows run out.
    pub fn from_config(cfg: dram_core::ModuleConfig) -> Result<Self> {
        let engine = BulkEngine::new(
            fcdram::Fcdram::new(cfg),
            dram_core::BankId(0),
            dram_core::SubarrayId(0),
        )?;
        BenderBackend::new(engine)
    }

    /// Native operations executed so far (each gate's combined
    /// schedule counts once, as do copies, output-stage ones included).
    pub fn native_ops(&self) -> usize {
        self.native_ops
    }

    /// Folds the VM's trace into [`BenderBackend::native_ops`] and
    /// clears it: the trace is append-only, and this backend keeps
    /// only the count.
    fn fold_trace(&mut self) {
        self.native_ops += self.vm.trace().in_dram_ops();
        self.vm.clear_trace();
    }
}

impl ExecBackend for BenderBackend {
    type Lease = RowLease;

    fn lanes(&self) -> usize {
        self.vm.lanes()
    }

    fn max_fan_in(&self) -> usize {
        ExecBackend::max_fan_in(&self.vm)
    }

    fn stage_many(&mut self, batches: &[&[PackedBits]]) -> Result<Vec<RowLease>> {
        let leases = self.vm.stage_many(batches);
        self.fold_trace();
        leases
    }

    fn end_stage(&mut self, lease: RowLease) {
        self.vm.end_stage(lease);
    }

    fn step_latency_ns(&self, step: &Step) -> Option<f64> {
        Some(self.latency.step_ns(step))
    }

    /// The VM's plan, checked against the part: every gate step's
    /// activation-map entry is resolved, so a shape the part lacks is
    /// refused here with a typed engine error rather than mid-run. The
    /// plan's [`PreparedProgram::template_count`] is the number of
    /// distinct gate programs it ships: one per `(op family, N:N
    /// entry)`, plus one for NOT.
    fn prepare(&mut self, prog: &Arc<SynthProgram>) -> Result<PreparedProgram> {
        let mut prep = self.vm.prepare(prog)?;
        let engine = self.vm.substrate().engine();
        let mut gates: BTreeSet<(bool, usize)> = BTreeSet::new();
        let mut need_not = false;
        for step in &prep.program().steps {
            match step.op {
                None => need_not = true,
                Some(op) if step.args.len() == 1 => need_not |= op.is_inverted_terminal(),
                Some(op) => {
                    let n = engine.logic_entry(step.args.len())?.shape().1;
                    gates.insert((op.is_and_family(), n));
                }
            }
        }
        if need_not {
            engine.not_entry()?;
        }
        prep.templates = gates.len() + usize::from(need_not);
        Ok(prep)
    }

    fn run_prepared_leased<F: FnMut(usize, &Step)>(
        &mut self,
        prep: &PreparedProgram,
        lease: &RowLease,
        operands: &[PackedBits],
        on_step: F,
    ) -> Result<PackedBits> {
        let result = self.vm.run_prepared_leased(prep, lease, operands, on_step);
        self.fold_trace();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExecError;
    use dram_core::{BankId, LogicOp, SubarrayId};
    use fcsynth::CostModel;

    fn engine(cols: usize) -> BulkEngine {
        let cfg = dram_core::config::table1()
            .remove(0)
            .with_modeled_cols(cols);
        BulkEngine::new(fcdram::Fcdram::new(cfg), BankId(0), SubarrayId(0)).unwrap()
    }

    fn random_operands(n: usize, lanes: usize, seed: u64) -> Vec<PackedBits> {
        (0..n)
            .map(|i| PackedBits::seeded(seed, i as u64, lanes))
            .collect()
    }

    /// `prepare` + `run_prepared` without an observer.
    fn execute<B: ExecBackend>(
        backend: &mut B,
        prog: &std::sync::Arc<SynthProgram>,
        ops: &[PackedBits],
    ) -> Result<PackedBits> {
        let prep = backend.prepare(prog)?;
        crate::run_prepared(backend, &prep, ops)
    }

    #[test]
    fn command_schedules_match_the_vm_backend_bit_for_bit() {
        let cost = CostModel::table1_defaults();
        for (text, seed) in [
            ("a & b", 1u64),
            ("!(a | b | c)", 2),
            ("(a ^ b) & (c | d)", 3),
            ("a&b&c&d&e&f&g&h", 4),
            ("!a", 5),
            ("a | 1", 6),
        ] {
            let compiled = fcsynth::compile(text, &cost, 16).unwrap();
            let k = compiled.circuit.inputs().len();
            let mut vm = SimdVm::new(DramSubstrate::new(engine(64))).unwrap();
            let mut cmd = BenderBackend::new(engine(64)).unwrap();
            assert_eq!(crate::ExecBackend::lanes(&vm), cmd.lanes());
            let ops = random_operands(k, cmd.lanes(), seed);
            let via_vm = execute(&mut vm, &compiled.mapping.program, &ops).unwrap();
            let via_cmd = execute(&mut cmd, &compiled.mapping.program, &ops).unwrap();
            assert_eq!(via_vm, via_cmd, "{text}: backends diverged");
            assert!(cmd.native_ops() > 0);
        }
    }

    /// The rows the backend's pool can still hand out: allocates until
    /// the pool is exhausted, then returns every row it took.
    fn free_rows(cmd: &mut BenderBackend) -> usize {
        let mut taken = Vec::new();
        while let Ok(r) = cmd.vm.alloc_row() {
            taken.push(r);
        }
        let n = taken.len();
        for r in taken {
            cmd.vm.release(r);
        }
        n
    }

    #[test]
    fn backend_frees_every_row() {
        let cost = CostModel::table1_defaults();
        let compiled = fcsynth::compile("(a & b) ^ (c | d)", &cost, 16).unwrap();
        let mut cmd = BenderBackend::new(engine(64)).unwrap();
        let lanes = cmd.lanes();
        let ops = random_operands(4, lanes, 9);
        let before = free_rows(&mut cmd);
        assert!(before > 0, "the pool starts with free rows");
        // Every staged row, temporary and result row of each run goes
        // back to the pool: after four runs it is exactly as large.
        for _ in 0..4 {
            let _ = execute(&mut cmd, &compiled.mapping.program, &ops).unwrap();
        }
        assert_eq!(free_rows(&mut cmd), before);
    }

    #[test]
    fn prepare_refuses_shapes_the_part_lacks() {
        // A Samsung part activates no `N:N` pattern and no NOT
        // destination pattern: its gates are refused at prepare time.
        let cfg = dram_core::config::table1()
            .into_iter()
            .find(|m| m.manufacturer == dram_core::Manufacturer::Samsung)
            .unwrap()
            .with_modeled_cols(64);
        let mut cmd = BenderBackend::from_config(cfg).unwrap();
        let cost = CostModel::table1_defaults();
        for text in ["a & b", "!a"] {
            let compiled = fcsynth::compile(text, &cost, 16).unwrap();
            let err = cmd.prepare(&compiled.mapping.program).unwrap_err();
            assert!(matches!(err, ExecError::Engine(_)), "{text}: {err}");
        }
        assert_eq!(cmd.native_ops(), 0, "nothing ran");
    }

    #[test]
    fn native_ops_match_the_vm_trace() {
        let cost = CostModel::table1_defaults();
        let compiled = fcsynth::compile("!(a & b & c) | (c ^ d) | !d", &cost, 16).unwrap();
        let prog = &compiled.mapping.program;
        let mut vm = SimdVm::new(DramSubstrate::new(engine(64))).unwrap();
        let mut cmd = BenderBackend::new(engine(64)).unwrap();
        let ops = random_operands(4, cmd.lanes(), 11);
        vm.clear_trace();
        for _ in 0..3 {
            execute(&mut vm, prog, &ops).unwrap();
            execute(&mut cmd, prog, &ops).unwrap();
        }
        assert!(cmd.native_ops() > 0);
        assert_eq!(cmd.native_ops(), vm.trace().in_dram_ops());
    }

    #[test]
    fn step_latency_is_cycle_accurate() {
        let cmd = BenderBackend::new(engine(32)).unwrap();
        let wide = Step {
            op: Some(LogicOp::And),
            args: (0..16).collect(),
            out: 16,
        };
        let narrow = Step {
            op: Some(LogicOp::And),
            args: (0..2).collect(),
            out: 2,
        };
        let w = crate::ExecBackend::step_latency_ns(&cmd, &wide).unwrap();
        let n = crate::ExecBackend::step_latency_ns(&cmd, &narrow).unwrap();
        assert!(w > n && n > 0.0);
    }
}
