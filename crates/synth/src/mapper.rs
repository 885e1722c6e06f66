//! Reliability-aware technology mapping: gate DAG → native-op program.
//!
//! The IR keeps gates algebraically wide (unbounded fan-in); real
//! substrates execute at most [`simdram::MAX_FAN_IN`] inputs per
//! operation. The mapper re-chunks every wide gate into a balanced
//! tree of native gates, choosing the chunk width that **maximizes the
//! expected whole-circuit success probability** under the
//! [`CostModel`]'s per-(op, N) success rates — the paper's central
//! observation that reliability falls as more rows are activated
//! simultaneously makes this a genuine trade-off: one 16-input gate is
//! individually less reliable than a 2-input gate, but replaces
//! fifteen of them.
//!
//! Expected circuit success is the product of per-gate success rates
//! (independent-error model, conservatively ignoring masking — the
//! same assumption as [`simdram::reliability`]). Ties are broken by
//! native-op count, then by summed latency.
//!
//! Inverted-terminal gates (NAND/NOR) chunk into monotone stages until
//! one final native stage applies the inversion, so the tree costs no
//! extra NOT; [`SynthProgram::narrowed`] rewrites over-wide steps by the
//! same rule.

use crate::cost::CostModel;
use crate::dag::{Circuit, Node};
use dram_core::LogicOp;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A virtual register of the mapped program. Registers
/// `0..inputs.len()` hold the operands; higher registers are
/// temporaries.
pub type Reg = usize;

/// One mapped native operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// `None` executes NOT; `Some(op)` executes the native gate with
    /// fan-in `args.len()`.
    pub op: Option<LogicOp>,
    /// Operand registers (1 for NOT, 2..=16 for gates).
    pub args: Vec<Reg>,
    /// Destination register.
    pub out: Reg,
}

/// Where the program's result lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Output {
    /// The circuit folded to a constant; nothing executes.
    Const(bool),
    /// The register holding the result (possibly an input register
    /// when the expression is a bare passthrough).
    Reg(Reg),
}

/// A linear native-op program over virtual registers.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthProgram {
    /// Operand names, in register order, shared by every narrowed
    /// variant of the program.
    pub inputs: Arc<[String]>,
    /// Native operations in execution order.
    pub steps: Vec<Step>,
    /// Result location.
    pub output: Output,
    /// Total registers used (inputs + temporaries).
    pub n_regs: usize,
}

/// A program priced under a (possibly different) cost model: the
/// admission-control primitive — a scheduler re-prices a submitted
/// program under the *assigned chip's* model before running it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgramCost {
    /// Expected whole-program success probability (product over
    /// steps, in step order — the same fold [`Mapper::map`] uses).
    pub expected_success: f64,
    /// Summed steady-state latency, nanoseconds.
    pub latency_ns: f64,
    /// Summed steady-state energy, picojoules.
    pub energy_pj: f64,
}

impl SynthProgram {
    /// Registers read after step `i` (used by backends to free rows
    /// early): the set of `args` of steps `i+1..` plus the output reg.
    pub fn last_use(&self) -> Vec<usize> {
        let mut last = vec![0usize; self.n_regs];
        if let Output::Reg(r) = self.output {
            last[r] = self.steps.len();
        }
        for (i, s) in self.steps.iter().enumerate() {
            for a in &s.args {
                last[*a] = last[*a].max(i);
            }
        }
        last
    }

    /// The maximum number of simultaneously-live rows an execution
    /// with last-use freeing holds (operand rows live throughout,
    /// temporaries from definition to last use) — the row footprint a
    /// scheduler must lease for this job.
    pub fn peak_live_rows(&self) -> usize {
        let last = self.last_use();
        let n_in = self.inputs.len();
        let mut is_live = vec![false; self.n_regs];
        let mut live_temps = 0usize;
        let mut peak = n_in.max(1);
        for (i, s) in self.steps.iter().enumerate() {
            if s.out >= n_in && !is_live[s.out] {
                is_live[s.out] = true;
                live_temps += 1;
            }
            peak = peak.max(n_in + live_temps);
            for a in &s.args {
                if *a >= n_in && is_live[*a] && last[*a] <= i {
                    is_live[*a] = false;
                    live_temps -= 1;
                }
            }
        }
        peak
    }

    /// Prices the program under `cost`: success product, summed
    /// latency and energy, accumulated in step order (bit-identical to
    /// the fold [`Mapper::map`] performs while emitting).
    pub fn price(&self, cost: &CostModel) -> ProgramCost {
        let mut success = 1.0f64;
        let mut latency = 0.0f64;
        let mut energy = 0.0f64;
        for s in &self.steps {
            match s.op {
                None => {
                    success *= cost.not_success();
                    latency += cost.not_latency_ns();
                    energy += cost.not_energy_pj();
                }
                Some(op) => {
                    let n = s.args.len();
                    success *= cost.success(op, n);
                    latency += cost.latency_ns(op, n);
                    energy += cost.energy_pj(op, n);
                }
            }
        }
        ProgramCost {
            expected_success: success,
            latency_ns: latency,
            energy_pj: energy,
        }
    }

    /// Rewrites every gate wider than `max_width` into a balanced tree
    /// of at-most-`max_width` native gates (monotone stages, inverted
    /// terminals inverting in the final stage — the same discipline as
    /// [`Mapper`]'s emission), without needing the source circuit.
    ///
    /// This is the scheduler's *re-mapping* primitive: a job whose
    /// wide gates are too unreliable for its assigned chip is narrowed
    /// at the program level. Register numbering of the original
    /// program is preserved (new temporaries are appended), so the
    /// narrowed program is a drop-in functional replacement.
    pub fn narrowed(&self, max_width: usize) -> SynthProgram {
        let width = max_width.clamp(2, simdram::MAX_FAN_IN);
        let mut out = SynthProgram {
            inputs: Arc::clone(&self.inputs),
            steps: Vec::new(),
            output: self.output,
            n_regs: self.n_regs,
        };
        for step in &self.steps {
            match step.op {
                Some(op) if step.args.len() > width => {
                    let monotone = if op.is_and_family() {
                        LogicOp::And
                    } else {
                        LogicOp::Or
                    };
                    let stage_op = if op.is_inverted_terminal() {
                        monotone
                    } else {
                        op
                    };
                    let mut level = step.args.clone();
                    while level.len() > width {
                        let mut next = Vec::with_capacity(level.len().div_ceil(width));
                        for chunk in level.chunks(width) {
                            if chunk.len() == 1 {
                                next.push(chunk[0]);
                            } else {
                                let r = out.n_regs;
                                out.n_regs += 1;
                                out.steps.push(Step {
                                    op: Some(stage_op),
                                    args: chunk.to_vec(),
                                    out: r,
                                });
                                next.push(r);
                            }
                        }
                        level = next;
                    }
                    // Final stage applies the (possibly inverting) op
                    // and writes the original destination register.
                    out.steps.push(Step {
                        op: Some(op),
                        args: level,
                        out: step.out,
                    });
                }
                _ => out.steps.push(step.clone()),
            }
        }
        out
    }

    /// The variants admission tries when a program misses its
    /// reliability floor: [`Self::narrowed`] at each width of the
    /// ladder 8, 4, 2, widest first, paired with that width. A width
    /// no gate of the program exceeds would rewrite nothing, so it is
    /// skipped before anything is built; every variant returned
    /// differs from the program.
    pub fn narrowed_variants(&self) -> impl Iterator<Item = (usize, SynthProgram)> + '_ {
        let widest = self
            .steps
            .iter()
            .filter(|s| s.op.is_some())
            .map(|s| s.args.len())
            .max()
            .unwrap_or(0);
        [8usize, 4, 2]
            .into_iter()
            .filter(move |&width| widest > width)
            .map(|width| (width, self.narrowed(width)))
    }
}

/// A mapped program plus the model's predictions for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// The executable program, shared: every job submitted from this
    /// mapping holds the same allocation.
    pub program: Arc<SynthProgram>,
    /// Expected whole-circuit success probability (product over
    /// steps).
    pub expected_success: f64,
    /// Native operations emitted.
    pub native_ops: usize,
    /// Predicted steady-state latency, nanoseconds.
    pub latency_ns: f64,
    /// Predicted steady-state energy, picojoules.
    pub energy_pj: f64,
}

impl Mapping {
    /// `(op name, fan-in, count)` rows summarizing the emitted gates,
    /// sorted for stable reporting.
    pub fn gate_summary(&self) -> Vec<(String, usize, usize)> {
        let mut rows: Vec<(String, usize, usize)> = Vec::new();
        for s in &self.program.steps {
            let (name, fan_in) = match s.op {
                None => ("not".to_string(), 1),
                Some(op) => (op.name().to_string(), s.args.len()),
            };
            match rows.iter_mut().find(|(n, f, _)| *n == name && *f == fan_in) {
                Some(row) => row.2 += 1,
                None => rows.push((name, fan_in, 1)),
            }
        }
        rows.sort();
        rows
    }
}

/// The technology mapper.
#[derive(Debug, Clone)]
pub struct Mapper<'a> {
    cost: &'a CostModel,
    max_fan_in: usize,
    force_width: Option<usize>,
}

impl<'a> Mapper<'a> {
    /// A reliability-aware mapper for a substrate offering native
    /// gates up to `max_fan_in` inputs (clamped to `2..=16`).
    pub fn new(cost: &'a CostModel, max_fan_in: usize) -> Mapper<'a> {
        Mapper {
            cost,
            max_fan_in: max_fan_in.clamp(2, simdram::MAX_FAN_IN),
            force_width: None,
        }
    }

    /// The naive baseline: every wide gate decomposes into a tree of
    /// 2-input native gates (what a fan-in-blind compiler would emit).
    pub fn naive(cost: &'a CostModel) -> Mapper<'a> {
        Mapper {
            cost,
            max_fan_in: 2,
            force_width: Some(2),
        }
    }

    /// The gates `(op, fan_in)` a `width`-chunked decomposition of an
    /// `n`-input `op` gate executes, mirroring the emission exactly.
    fn chunk_plan(op: LogicOp, n: usize, width: usize) -> Vec<(LogicOp, usize)> {
        debug_assert!(width >= 2 && n >= 2);
        let monotone = if op.is_and_family() {
            LogicOp::And
        } else {
            LogicOp::Or
        };
        let mut gates = Vec::new();
        let mut level = n;
        if op.is_inverted_terminal() {
            while level > width {
                level = reduce_level(monotone, level, width, &mut gates);
            }
            gates.push((op, level));
        } else {
            while level > 1 {
                level = reduce_level(op, level, width, &mut gates);
            }
        }
        gates
    }

    /// Scores one decomposition: success product, op count, latency.
    fn score(&self, gates: &[(LogicOp, usize)]) -> (f64, usize, f64) {
        let mut success = 1.0;
        let mut latency = 0.0;
        for (op, k) in gates {
            success *= self.cost.success(*op, *k);
            latency += self.cost.latency_ns(*op, *k);
        }
        (success, gates.len(), latency)
    }

    /// The chunk width this mapper uses for an `n`-input `op` gate.
    pub(crate) fn choose_width(&self, op: LogicOp, n: usize) -> usize {
        if let Some(w) = self.force_width {
            return w;
        }
        let mut best = (2usize, f64::NEG_INFINITY, usize::MAX, f64::INFINITY);
        for w in 2..=self.max_fan_in {
            let (s, ops, lat) = self.score(&Self::chunk_plan(op, n, w));
            let better = s > best.1 + 1e-15
                || ((s - best.1).abs() <= 1e-15
                    && (ops < best.2 || (ops == best.2 && lat < best.3 - 1e-12)));
            if better {
                best = (w, s, ops, lat);
            }
        }
        best.0
    }

    /// Maps a circuit to a native-op program with predictions.
    pub fn map(&self, circuit: &Circuit) -> Mapping {
        let mut prog = SynthProgram {
            inputs: circuit.inputs().into(),
            steps: Vec::new(),
            output: Output::Const(false),
            n_regs: circuit.inputs().len(),
        };
        let mut success = 1.0f64;
        let mut latency = 0.0f64;
        let mut energy = 0.0f64;
        let mut reg_of: Vec<Option<Output>> = vec![None; circuit.nodes().len()];
        let fresh = |prog: &mut SynthProgram| {
            let r = prog.n_regs;
            prog.n_regs += 1;
            r
        };
        for id in circuit.live_nodes() {
            let out = match circuit.node(id) {
                Node::Input(i) => Output::Reg(*i),
                Node::Const(b) => Output::Const(*b),
                Node::Not(x) => {
                    let src = expect_reg(reg_of[*x], "NOT of a folded constant");
                    let out = fresh(&mut prog);
                    prog.steps.push(Step {
                        op: None,
                        args: vec![src],
                        out,
                    });
                    success *= self.cost.not_success();
                    latency += self.cost.not_latency_ns();
                    energy += self.cost.not_energy_pj();
                    Output::Reg(out)
                }
                Node::Gate(op, children) => {
                    let width = self.choose_width(*op, children.len());
                    let monotone = if op.is_and_family() {
                        LogicOp::And
                    } else {
                        LogicOp::Or
                    };
                    let mut level: Vec<Reg> = children
                        .iter()
                        .map(|c| expect_reg(reg_of[*c], "gate input folded to constant"))
                        .collect();
                    let mut emit = |prog: &mut SynthProgram, gop: LogicOp, args: Vec<Reg>| {
                        let out = prog.n_regs;
                        prog.n_regs += 1;
                        success *= self.cost.success(gop, args.len());
                        latency += self.cost.latency_ns(gop, args.len());
                        energy += self.cost.energy_pj(gop, args.len());
                        prog.steps.push(Step {
                            op: Some(gop),
                            args,
                            out,
                        });
                        out
                    };
                    if op.is_inverted_terminal() {
                        while level.len() > width {
                            level = emit_level(&mut prog, monotone, &level, width, &mut emit);
                        }
                        Output::Reg(emit(&mut prog, *op, level))
                    } else {
                        while level.len() > 1 {
                            level = emit_level(&mut prog, *op, &level, width, &mut emit);
                        }
                        Output::Reg(level[0])
                    }
                }
            };
            reg_of[id] = Some(out);
            if id == circuit.output() {
                prog.output = out;
            }
        }
        let native_ops = prog.steps.len();
        Mapping {
            program: Arc::new(prog),
            expected_success: success,
            native_ops,
            latency_ns: latency,
            energy_pj: energy,
        }
    }
}

fn expect_reg(out: Option<Output>, why: &str) -> Reg {
    match out.expect("topological order") {
        Output::Reg(r) => r,
        Output::Const(_) => unreachable!("{why}: the DAG folds constants out of gates"),
    }
}

/// One analytic reduction level: chunk `level` values by `width`,
/// recording one `(op, chunk)` gate per multi-element chunk. Returns
/// the next level's size.
fn reduce_level(
    op: LogicOp,
    level: usize,
    width: usize,
    gates: &mut Vec<(LogicOp, usize)>,
) -> usize {
    let mut next = 0;
    let mut rest = level;
    while rest > 0 {
        let k = rest.min(width);
        if k > 1 {
            gates.push((op, k));
        }
        next += 1;
        rest -= k;
    }
    next
}

/// One emitted reduction level, mirroring [`reduce_level`]:
/// single-element chunks pass through without an op.
fn emit_level<F: FnMut(&mut SynthProgram, LogicOp, Vec<Reg>) -> Reg>(
    prog: &mut SynthProgram,
    op: LogicOp,
    level: &[Reg],
    width: usize,
    emit: &mut F,
) -> Vec<Reg> {
    let mut next = Vec::with_capacity(level.len().div_ceil(width));
    for chunk in level.chunks(width) {
        if chunk.len() == 1 {
            next.push(chunk[0]);
        } else {
            next.push(emit(prog, op, chunk.to_vec()));
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use simdram::trace::{NativeOp, OpTrace, TraceEntry};

    impl Mapping {
        /// The program as a [`simdram`] operation trace (one entry per
        /// step, carrying the model's predicted success), so existing
        /// tooling — [`simdram::CostModel::trace_cost`],
        /// [`simdram::reliability::expected_lane_accuracy`] — prices and
        /// analyzes synthesized circuits unchanged.
        fn to_trace(&self, cost: &CostModel) -> OpTrace {
            let mut t = OpTrace::new();
            for s in &self.program.steps {
                let (op, p) = match s.op {
                    None => (NativeOp::Not, cost.not_success()),
                    Some(op) => (
                        NativeOp::Logic(op, s.args.len() as u8),
                        cost.success(op, s.args.len()),
                    ),
                };
                t.record(TraceEntry {
                    op,
                    executions: 1,
                    predicted_success: p,
                });
            }
            t
        }
    }

    fn circuit(text: &str) -> Circuit {
        Circuit::from_expr(&Expr::parse(text).unwrap())
    }

    fn and16() -> Circuit {
        circuit("a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p")
    }

    /// The acceptance-pinned case: for a 16-input AND under the
    /// Table-1 defaults, one native 16-input gate (≈94.5% success)
    /// beats the naive fifteen-gate 2-input tree (0.989^15 ≈ 84.7%) —
    /// the reliability-aware mapper must find it.
    #[test]
    fn aware_beats_naive_on_wide_and() {
        let cost = CostModel::table1_defaults();
        let c = and16();
        let aware = Mapper::new(&cost, 16).map(&c);
        let naive = Mapper::naive(&cost).map(&c);
        assert_eq!(aware.native_ops, 1, "single native 16-input AND");
        assert_eq!(naive.native_ops, 15, "2-input tree");
        assert!(
            aware.expected_success > naive.expected_success + 0.05,
            "aware {} vs naive {}",
            aware.expected_success,
            naive.expected_success
        );
        assert!(aware.latency_ns < naive.latency_ns);
    }

    #[test]
    fn aware_never_below_naive() {
        let cost = CostModel::table1_defaults();
        for text in [
            "a ^ b ^ c ^ d",
            "(a & b) | (a & c) | (b & c)",
            "!(a | b | c | d | e | f)",
            "(a & b & c) ^ (d | e | f | g | h)",
        ] {
            let c = circuit(text);
            let aware = Mapper::new(&cost, 16).map(&c);
            let naive = Mapper::naive(&cost).map(&c);
            assert!(
                aware.expected_success >= naive.expected_success - 1e-12,
                "{text}: aware {} < naive {}",
                aware.expected_success,
                naive.expected_success
            );
        }
    }

    #[test]
    fn fan_in_limit_is_respected() {
        let cost = CostModel::table1_defaults();
        let c = and16();
        let m = Mapper::new(&cost, 4).map(&c);
        for s in &m.program.steps {
            assert!(s.args.len() <= 4, "step exceeds fan-in: {s:?}");
        }
        // 16 inputs at width 4: 4 gates + 1 gate.
        assert_eq!(m.native_ops, 5);
    }

    #[test]
    fn inverted_terminal_needs_no_extra_not() {
        let cost = CostModel::table1_defaults();
        let c = circuit("!(a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p&q&r)");
        let m = Mapper::new(&cost, 16).map(&c);
        // 18 inputs: one 16-AND + pass-through leaves 3 values; the
        // final stage is a native NAND3.
        let last = m.program.steps.last().unwrap();
        assert_eq!(last.op, Some(LogicOp::Nand));
        assert!(m.program.steps.iter().all(|s| s.op.is_some()), "no NOTs");
    }

    #[test]
    fn plan_matches_emission() {
        let cost = CostModel::table1_defaults();
        for (op, n, w) in [
            (LogicOp::And, 16, 4),
            (LogicOp::Nand, 18, 16),
            (LogicOp::Or, 7, 3),
            (LogicOp::Nor, 33, 16),
            (LogicOp::And, 2, 2),
        ] {
            let plan = Mapper::chunk_plan(op, n, w);
            // Build an n-input gate circuit and force this width.
            let names: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
            let mut c = Circuit::new(names);
            let ins: Vec<_> = (0..n).map(|i| c.input(i)).collect();
            let g = c.gate(op, ins);
            c.set_output(g);
            let mapper = Mapper {
                cost: &cost,
                max_fan_in: w,
                force_width: Some(w),
            };
            let m = mapper.map(&c);
            let emitted: Vec<(LogicOp, usize)> = m
                .program
                .steps
                .iter()
                .map(|s| (s.op.expect("gate"), s.args.len()))
                .collect();
            assert_eq!(emitted, plan, "{op:?}/{n} at width {w}");
        }
    }

    #[test]
    fn trace_agrees_with_mapping_predictions() {
        let cost = CostModel::table1_defaults();
        let c = circuit("(a ^ b) & !(c | d | e | f | g | h | i | j)");
        let m = Mapper::new(&cost, 16).map(&c);
        let trace = m.to_trace(&cost);
        assert_eq!(trace.in_dram_ops(), m.native_ops);
        let acc = simdram::reliability::expected_lane_accuracy(&trace);
        assert!((acc - m.expected_success).abs() < 1e-12);
        let priced =
            simdram::CostModel::new(dram_core::timing::SpeedBin::Mt2666, 65_536).trace_cost(&trace);
        assert!((priced.latency_ns - m.latency_ns).abs() < 1e-6);
        assert!((priced.energy_pj - m.energy_pj).abs() < 1e-6);
    }

    #[test]
    fn passthrough_and_constant_outputs() {
        let cost = CostModel::table1_defaults();
        let m = Mapper::new(&cost, 16).map(&circuit("a"));
        assert_eq!(m.program.output, Output::Reg(0));
        assert_eq!(m.native_ops, 0);
        assert_eq!(m.expected_success, 1.0);
        let m = Mapper::new(&cost, 16).map(&circuit("a & !a"));
        assert_eq!(m.program.output, Output::Const(false));
        assert_eq!(m.native_ops, 0);
    }

    #[test]
    fn gate_summary_counts() {
        let cost = CostModel::table1_defaults();
        let m = Mapper::new(&cost, 16).map(&circuit("!a & (b | c)"));
        let summary = m.gate_summary();
        let total: usize = summary.iter().map(|(_, _, c)| c).sum();
        assert_eq!(total, m.native_ops);
    }

    #[test]
    fn price_matches_mapping_predictions_exactly() {
        let cost = CostModel::table1_defaults();
        for text in [
            "a ^ b ^ c ^ d",
            "(a & b & c & d & e & f & g & h) | !(i & j)",
            "!(a | b | c | d | e)",
            "a",
        ] {
            let m = Mapper::new(&cost, 16).map(&circuit(text));
            let p = m.program.price(&cost);
            // Same fold order, so bit-identical — not just close.
            assert_eq!(p.expected_success, m.expected_success, "{text}");
            assert_eq!(p.latency_ns, m.latency_ns, "{text}");
            assert_eq!(p.energy_pj, m.energy_pj, "{text}");
        }
    }

    #[test]
    fn narrowed_respects_width_and_keeps_io_shape() {
        let cost = CostModel::table1_defaults();
        let m = Mapper::new(&cost, 16).map(&and16());
        assert_eq!(m.native_ops, 1, "one wide gate to narrow");
        for w in [2usize, 3, 4, 8] {
            let narrow = m.program.narrowed(w);
            assert!(
                narrow.steps.iter().all(|s| s.args.len() <= w),
                "width {w} violated"
            );
            assert_eq!(narrow.inputs, m.program.inputs);
            assert_eq!(narrow.output, m.program.output);
            assert!(narrow.n_regs >= m.program.n_regs);
            // The final stage still writes the original destination.
            let orig_out = match m.program.output {
                Output::Reg(r) => r,
                Output::Const(_) => unreachable!(),
            };
            assert!(narrow.steps.iter().any(|s| s.out == orig_out));
        }
        // Already-narrow programs pass through unchanged.
        assert_eq!(m.program.narrowed(16), *m.program);
    }

    #[test]
    fn narrowed_inverted_terminal_inverts_only_once() {
        let cost = CostModel::table1_defaults();
        let c = circuit("!(a&b&c&d&e&f&g&h&i&j&k&l)");
        let m = Mapper::new(&cost, 16).map(&c);
        let narrow = m.program.narrowed(4);
        let nands: Vec<_> = narrow
            .steps
            .iter()
            .filter(|s| s.op == Some(LogicOp::Nand))
            .collect();
        assert_eq!(nands.len(), 1, "exactly one inverting stage");
        assert_eq!(
            nands[0].out,
            narrow.steps.last().unwrap().out,
            "the inversion is the final stage of the rewritten gate"
        );
        assert!(narrow
            .steps
            .iter()
            .filter(|s| s.op != Some(LogicOp::Nand))
            .all(|s| s.op == Some(LogicOp::And)));
    }

    #[test]
    fn peak_live_rows_bounds_the_register_file() {
        let cost = CostModel::table1_defaults();
        for text in ["a", "a ^ b ^ c ^ d", "(a & b) | (c & d) | (e & f)"] {
            let m = Mapper::new(&cost, 16).map(&circuit(text));
            let peak = m.program.peak_live_rows();
            assert!(peak >= 1);
            assert!(
                peak <= m.program.n_regs.max(1),
                "{text}: peak {peak} exceeds register file {}",
                m.program.n_regs
            );
        }
        // A long chain re-uses freed temporaries: the peak stays far
        // below the register count.
        let chain = circuit("a ^ b ^ c ^ d ^ e ^ f ^ g ^ h ^ i ^ j");
        let m = Mapper::new(&cost, 16).map(&chain);
        assert!(
            m.program.peak_live_rows() < m.program.n_regs,
            "peak {} vs regs {}",
            m.program.peak_live_rows(),
            m.program.n_regs
        );
    }

    #[test]
    fn last_use_covers_output_and_args() {
        let cost = CostModel::table1_defaults();
        let m = Mapper::new(&cost, 16).map(&circuit("(a & b) | (c & d)"));
        let last = m.program.last_use();
        if let Output::Reg(r) = m.program.output {
            assert_eq!(last[r], m.program.steps.len());
        }
    }
}
