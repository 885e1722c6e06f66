//! DDR4 command, latency and energy accounting for synthesized
//! circuits, with a processor-centric baseline.
//!
//! The paper's motivation (§1) is that moving data to the CPU
//! dominates cost; PuD computes where the data is. This module makes
//! that comparison concrete for the arithmetic layer: an
//! [`OpTrace`] is folded into an [`OpCost`] using the steady-state
//! in-DRAM accounting below, and `CostModel::host_word_cost` prices
//! the same computation on a host that must stream every operand row
//! over the channel.
//!
//! Steady-state in-DRAM accounting (operands already resident):
//!
//! * native N-input gate — N RowClone-style stagings + (N−1) constant
//!   rows + 1 Frac + the violated double activation driving 2N rows +
//!   1 result copy-out;
//! * NOT — 1 staging + double activation (2 rows) + 1 copy-out;
//! * COPY — one violated double activation (RowClone);
//! * FILL / host write / host read — one row transfer over the
//!   channel.

use crate::trace::{NativeOp, OpTrace, TraceEntry};
use dram_core::energy::{EnergyParams, OpCost};
use dram_core::timing::{SpeedBin, TimingParams};

use serde::{Deserialize, Serialize};

/// Prices native operations for one chip configuration.
///
/// # Examples
///
/// ```
/// use simdram::cost::CostModel;
/// use dram_core::timing::SpeedBin;
///
/// let model = CostModel::new(SpeedBin::Mt2666, 65_536);
/// assert!(model.row_bytes() == 8192);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    timing: TimingParams,
    energy: EnergyParams,
    speed: SpeedBin,
    row_bytes: usize,
}

impl CostModel {
    /// Builds a model for `lanes` SIMD lanes at a given speed bin,
    /// with default DDR4 timing and energy parameters.
    pub fn new(speed: SpeedBin, lanes: usize) -> Self {
        CostModel {
            timing: TimingParams::ddr4_default(),
            energy: EnergyParams::default(),
            speed,
            row_bytes: lanes.div_ceil(8),
        }
    }

    /// Bytes per operand row at this lane count.
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Cost of one trace entry (including repetition re-executions).
    pub fn entry_cost(&self, e: &TraceEntry) -> OpCost {
        let (t, en, sp, rb) = (&self.timing, &self.energy, self.speed, self.row_bytes);
        let once = match e.op {
            NativeOp::Not => {
                let mut c = OpCost::row_cycle(t, en); // stage src
                c += OpCost::violated_double_act(t, en, sp, 2);
                c += OpCost::row_cycle(t, en); // copy result out
                c
            }
            NativeOp::Logic(_, fan_in) => {
                let n = fan_in as usize;
                let mut c = OpCost::default();
                for _ in 0..n {
                    c += OpCost::row_cycle(t, en); // stage operands
                }
                for _ in 0..n.saturating_sub(1) {
                    c += OpCost::row_cycle(t, en); // constant reference rows
                }
                c += OpCost::row_cycle(t, en); // frac row
                c += OpCost::violated_double_act(t, en, sp, 2 * n);
                c += OpCost::row_cycle(t, en); // copy result out
                c
            }
            NativeOp::Maj => {
                // Stage the three operands plus the all-1 filler row,
                // one four-row simultaneous activation, copy out.
                let mut c = OpCost::default();
                for _ in 0..4 {
                    c += OpCost::row_cycle(t, en);
                }
                c += OpCost::violated_double_act(t, en, sp, 4);
                c += OpCost::row_cycle(t, en);
                c
            }
            NativeOp::Copy => {
                if e.executions == 0 {
                    // Host fallback: read + write over the channel.
                    let mut c = OpCost::row_transfer(t, en, sp, rb, false);
                    c += OpCost::row_transfer(t, en, sp, rb, true);
                    c
                } else {
                    OpCost::violated_double_act(t, en, sp, 2)
                }
            }
            NativeOp::Fill | NativeOp::HostWrite => OpCost::row_transfer(t, en, sp, rb, true),
            NativeOp::HostRead => OpCost::row_transfer(t, en, sp, rb, false),
        };
        let reps = e.executions.max(1) as f64;
        OpCost {
            latency_ns: once.latency_ns * reps,
            energy_pj: once.energy_pj * reps,
            commands: once.commands * e.executions.max(1),
            channel_bytes: once.channel_bytes * e.executions.max(1),
        }
    }

    /// Total cost of a trace.
    pub fn trace_cost(&self, trace: &OpTrace) -> OpCost {
        let mut total = OpCost::default();
        for e in trace.entries() {
            total += self.entry_cost(e);
        }
        total
    }

    /// Processor-centric baseline for a word-level computation that
    /// consumes `input_rows` operand rows and produces `output_rows`
    /// result rows: every row crosses the channel once and the host
    /// ALU touches every byte.
    pub(crate) fn host_word_cost(&self, input_rows: usize, output_rows: usize) -> OpCost {
        let (t, en, sp, rb) = (&self.timing, &self.energy, self.speed, self.row_bytes);
        let mut total = OpCost::default();
        for _ in 0..input_rows {
            total += OpCost::row_transfer(t, en, sp, rb, false);
        }
        for _ in 0..output_rows {
            total += OpCost::row_transfer(t, en, sp, rb, true);
        }
        total.energy_pj += ((input_rows + output_rows) * rb) as f64 * en.host_per_byte_pj;
        total
    }
}

/// Side-by-side cost of a synthesized circuit and its host baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostSummary {
    /// Steady-state in-DRAM cost of the traced circuit.
    pub in_dram: OpCost,
    /// Host baseline moving the same operands over the channel.
    pub host: OpCost,
    /// Native in-DRAM operations executed (with repetitions).
    pub native_ops: usize,
    /// SIMD lanes the circuit processed.
    pub lanes: usize,
}

impl CostSummary {
    /// Builds a summary: the trace prices the in-DRAM side; the
    /// baseline moves `input_rows`/`output_rows` rows.
    pub fn new(
        model: &CostModel,
        trace: &OpTrace,
        lanes: usize,
        input_rows: usize,
        output_rows: usize,
    ) -> Self {
        CostSummary {
            in_dram: model.trace_cost(trace),
            host: model.host_word_cost(input_rows, output_rows),
            native_ops: trace.in_dram_ops(),
            lanes,
        }
    }

    /// Host energy divided by in-DRAM energy (>1 ⇒ PuD wins).
    pub fn energy_ratio(&self) -> f64 {
        self.host.energy_pj / self.in_dram.energy_pj.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{NativeOp, TraceEntry};
    use dram_core::LogicOp;

    impl CostSummary {
        /// In-DRAM energy per lane in picojoules.
        fn energy_per_lane_pj(&self) -> f64 {
            self.in_dram.energy_pj / self.lanes.max(1) as f64
        }

        /// In-DRAM lane-operations per second
        /// (`lanes / latency`; one "lane-op" is the whole traced circuit
        /// applied to one lane).
        fn lane_ops_per_sec(&self) -> f64 {
            self.lanes as f64 / (self.in_dram.latency_ns.max(f64::MIN_POSITIVE) * 1e-9)
        }
    }

    fn model() -> CostModel {
        CostModel::new(SpeedBin::Mt2666, 32)
    }

    fn entry(op: NativeOp, executions: usize) -> TraceEntry {
        TraceEntry {
            op,
            executions,
            predicted_success: 0.99,
        }
    }

    #[test]
    fn logic_scales_with_fan_in() {
        let m = model();
        let c2 = m.entry_cost(&entry(NativeOp::Logic(LogicOp::And, 2), 1));
        let c16 = m.entry_cost(&entry(NativeOp::Logic(LogicOp::And, 16), 1));
        assert!(c16.energy_pj > c2.energy_pj);
        assert!(c16.latency_ns > c2.latency_ns);
        assert!(c16.commands > c2.commands);
    }

    #[test]
    fn fused_maj_beats_its_derived_circuit() {
        // One native MAJ must cost less than the 3×AND2 + OR3 it
        // replaces — otherwise the fused adder would be pointless.
        let m = model();
        let fused = m.entry_cost(&entry(NativeOp::Maj, 1));
        let mut derived = OpCost::default();
        for _ in 0..3 {
            derived += m.entry_cost(&entry(NativeOp::Logic(LogicOp::And, 2), 1));
        }
        derived += m.entry_cost(&entry(NativeOp::Logic(LogicOp::Or, 3), 1));
        assert!(fused.energy_pj < derived.energy_pj);
        assert!(fused.latency_ns < derived.latency_ns);
    }

    #[test]
    fn repetition_multiplies_cost() {
        let m = model();
        let once = m.entry_cost(&entry(NativeOp::Not, 1));
        let thrice = m.entry_cost(&entry(NativeOp::Not, 3));
        assert!((thrice.energy_pj - 3.0 * once.energy_pj).abs() < 1e-9);
        assert_eq!(thrice.commands, 3 * once.commands);
    }

    #[test]
    fn fallback_copy_moves_bytes() {
        let m = model();
        let real = m.entry_cost(&entry(NativeOp::Copy, 1));
        let fallback = m.entry_cost(&entry(NativeOp::Copy, 0));
        assert_eq!(real.channel_bytes, 0, "RowClone never touches the channel");
        assert!(fallback.channel_bytes > 0);
    }

    #[test]
    fn trace_cost_is_additive() {
        let m = model();
        let mut t = OpTrace::new();
        t.record(entry(NativeOp::Not, 1));
        t.record(entry(NativeOp::Logic(LogicOp::Or, 4), 1));
        let total = m.trace_cost(&t);
        let a = m.entry_cost(&t.entries()[0]);
        let b = m.entry_cost(&t.entries()[1]);
        assert!((total.energy_pj - (a.energy_pj + b.energy_pj)).abs() < 1e-9);
        assert_eq!(total.commands, a.commands + b.commands);
    }

    #[test]
    fn host_baseline_dominated_by_channel() {
        let m = model();
        let host = m.host_word_cost(16, 8);
        assert_eq!(host.channel_bytes, 24 * m.row_bytes());
        assert!(host.energy_pj > 0.0);
    }

    #[test]
    fn summary_ratios_behave() {
        let m = model();
        let mut t = OpTrace::new();
        // A single 16-input AND replaces 16 row reads + 1 write on the
        // host: the canonical PuD win.
        t.record(entry(NativeOp::Logic(LogicOp::And, 16), 1));
        let s = CostSummary::new(&m, &t, 32, 16, 1);
        assert!(s.energy_ratio() > 0.0);
        assert!(s.lane_ops_per_sec() > 0.0);
        assert_eq!(s.native_ops, 1);
    }

    #[test]
    fn wider_lanes_lower_per_lane_energy() {
        // The violated double activation is O(1) in the lane count, so
        // per-lane energy falls as rows widen.
        let mut t = OpTrace::new();
        t.record(entry(NativeOp::Logic(LogicOp::And, 2), 1));
        let narrow = CostSummary::new(&CostModel::new(SpeedBin::Mt2666, 64), &t, 64, 2, 1);
        let wide = CostSummary::new(&CostModel::new(SpeedBin::Mt2666, 65_536), &t, 65_536, 2, 1);
        assert!(wide.energy_per_lane_pj() < narrow.energy_per_lane_pj());
    }
}
