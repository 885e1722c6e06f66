//! The structurally-hashed gate-DAG intermediate representation.
//!
//! A [`Circuit`] holds an immutable node arena plus a hash-consing
//! interner: every structurally identical subterm is created exactly
//! once, so common-subexpression sharing is a property of
//! construction, not a separate pass. The smart constructors run the
//! optimization pipeline *incrementally* as the DAG is built:
//!
//! * **constant folding** — gate inputs that are identity constants
//!   are dropped, dominating constants collapse the gate;
//! * **double-negation and terminal inversion** — `!!x → x`,
//!   `!AND → NAND` (and the three duals), so explicit NOT nodes only
//!   ever wrap circuit inputs;
//! * **De Morgan rewrites** — a gate whose inputs are all freely
//!   invertible (explicit NOTs, or gates whose inverse costs the
//!   same) flips family instead (`AND(!a,!b) → NOR(a,b)`,
//!   `AND(NOR(a,b),!c) → NOR(a,b,c)`), deleting the input inverters;
//! * **associative flattening** — nested same-family monotone gates
//!   merge into one wide N-input gate (`AND(AND(a,b),c) → AND(a,b,c)`),
//!   plus idempotence (`AND(a,a) → a`) and complement detection
//!   (`AND(a,!a) → 0`) over the flattened input set.
//!
//! Flattening deliberately ignores the hardware fan-in limit: the IR
//! keeps the widest algebraic form and the tech mapper
//! ([`crate::mapper`]) re-chunks it into balanced native-gate trees of
//! whatever width the reliability model favors (≤ the substrate's
//! 16-input maximum).
//!
//! XOR is not native to the substrate, so `Circuit::xor` expands to
//! the paper's 3-gate circuit `AND(OR(a,b), NAND(a,b))` at build time;
//! the interner shares the `OR`/`NAND` subterms with any other use.

use crate::expr::{Expr, ExprNode, ExprOp};
use dram_core::LogicOp;
use fcdram::PackedBits;
use std::collections::HashMap;

/// Index of a node in a [`Circuit`] arena.
pub(crate) type NodeId = usize;

/// One DAG node. Gate children are sorted and deduplicated, which is
/// what makes structural hashing canonical for the commutative,
/// idempotent native operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Node {
    /// Circuit input, by operand index.
    Input(usize),
    /// Constant 0 or 1.
    Const(bool),
    /// Negation. Only ever wraps an [`Node::Input`] (negations of
    /// gates become the inverse gate, negations of constants fold).
    Not(NodeId),
    /// Native N-input gate, 2 ≤ N (unbounded in the IR; the mapper
    /// chunks to the substrate fan-in).
    Gate(LogicOp, Vec<NodeId>),
}

/// The gate of a binary AND/OR expression operator.
fn logic_op(op: ExprOp) -> LogicOp {
    if op == ExprOp::And {
        LogicOp::And
    } else {
        LogicOp::Or
    }
}

/// The inverse gate of `op` (terminal inversion: `!AND = NAND`).
fn inverse_op(op: LogicOp) -> LogicOp {
    match op {
        LogicOp::And => LogicOp::Nand,
        LogicOp::Nand => LogicOp::And,
        LogicOp::Or => LogicOp::Nor,
        LogicOp::Nor => LogicOp::Or,
    }
}

/// The gate equivalent to `op` over complemented inputs (De Morgan:
/// `AND(!x...) = NOR(x...)`).
fn demorgan_op(op: LogicOp) -> LogicOp {
    match op {
        LogicOp::And => LogicOp::Nor,
        LogicOp::Nand => LogicOp::Or,
        LogicOp::Or => LogicOp::Nand,
        LogicOp::Nor => LogicOp::And,
    }
}

/// A hash-consed gate DAG with one designated output.
///
/// # Examples
///
/// ```
/// let expr = fcsynth::Expr::parse("a ^ b ^ c ^ d")?;
/// let circuit = fcsynth::Circuit::from_expr(&expr);
/// assert_eq!(circuit.inputs().len(), 4);
/// assert_eq!(circuit.truth_table().count_ones(), 8, "4-bit odd parity");
/// # Ok::<(), fcsynth::SynthError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    nodes: Vec<Node>,
    interner: HashMap<Node, NodeId>,
    inputs: Vec<String>,
    output: NodeId,
}

impl Circuit {
    /// An empty circuit over named inputs, with output pinned to
    /// constant 0 until `Circuit::set_output`.
    pub(crate) fn new(inputs: Vec<String>) -> Circuit {
        let mut c = Circuit {
            nodes: Vec::new(),
            interner: HashMap::new(),
            inputs,
            output: 0,
        };
        c.output = c.constant(false);
        c
    }

    /// Builds the DAG of a parsed expression, running the full
    /// optimization pipeline during construction.
    pub fn from_expr(expr: &Expr) -> Circuit {
        let mut c = Circuit::new(expr.inputs().to_vec());
        let out = c.build(expr.root(), expr.chains());
        c.set_output(out);
        c
    }

    /// Builds `node`. With `chains`, an n-ary AND/OR is a written
    /// chain and folds left operand by operand, exactly as the binary
    /// tree `(a & b) & c` would; otherwise it is one gate over all its
    /// children. XOR always folds left.
    fn build(&mut self, node: &ExprNode, chains: bool) -> NodeId {
        match node {
            ExprNode::Var(i) => self.input(*i),
            ExprNode::Const(b) => self.constant(*b),
            ExprNode::Apply(ExprOp::Not, xs) => {
                let x = self.build(&xs[0], chains);
                self.not(x)
            }
            ExprNode::Apply(op @ (ExprOp::And | ExprOp::Or), xs) if !chains => {
                let ids: Vec<NodeId> = xs.iter().map(|x| self.build(x, chains)).collect();
                self.gate(logic_op(*op), ids)
            }
            ExprNode::Apply(op, xs) => {
                let mut acc = self.build(&xs[0], chains);
                for x in &xs[1..] {
                    let rhs = self.build(x, chains);
                    acc = match op {
                        ExprOp::Xor => self.xor(acc, rhs),
                        _ => self.gate(logic_op(*op), vec![acc, rhs]),
                    };
                }
                acc
            }
        }
    }

    fn intern(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.interner.get(&node) {
            return *id;
        }
        let id = self.nodes.len();
        self.nodes.push(node.clone());
        self.interner.insert(node, id);
        id
    }

    /// The node for input `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range for the input table.
    pub(crate) fn input(&mut self, i: usize) -> NodeId {
        assert!(i < self.inputs.len(), "input {i} out of range");
        self.intern(Node::Input(i))
    }

    /// The node for constant `b`.
    pub(crate) fn constant(&mut self, b: bool) -> NodeId {
        self.intern(Node::Const(b))
    }

    /// `!x`, normalized: constants fold, `!!x → x`, `!gate →
    /// inverse gate` (so NOT nodes survive only over inputs).
    pub(crate) fn not(&mut self, x: NodeId) -> NodeId {
        match self.nodes[x].clone() {
            Node::Const(b) => self.constant(!b),
            Node::Not(y) => y,
            Node::Gate(op, children) => self.gate(inverse_op(op), children),
            Node::Input(_) => self.intern(Node::Not(x)),
        }
    }

    /// `op(children...)`, normalized per the module-level pipeline.
    /// Accepts any child count ≥ 1 (a single child degenerates to the
    /// child or its negation).
    ///
    /// # Panics
    ///
    /// Panics on an empty child list.
    pub(crate) fn gate(&mut self, op: LogicOp, children: Vec<NodeId>) -> NodeId {
        assert!(!children.is_empty(), "gate with no inputs");
        let monotone = if op.is_and_family() {
            LogicOp::And
        } else {
            LogicOp::Or
        };
        // Identity / dominating constants of the monotone family.
        let identity = op.is_and_family(); // AND: 1, OR: 0
        let mut flat: Vec<NodeId> = Vec::with_capacity(children.len());
        for c in children {
            match &self.nodes[c] {
                Node::Const(b) if *b == identity => {}
                Node::Const(_) => {
                    // Dominating constant: the monotone result is the
                    // dominator; apply terminal inversion.
                    return self.constant(!identity ^ op.is_inverted_terminal());
                }
                // Associative flattening of same-family monotone
                // children (AND under AND/NAND, OR under OR/NOR).
                Node::Gate(cop, inner) if *cop == monotone => flat.extend(inner.iter().copied()),
                _ => flat.push(c),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        if flat.is_empty() {
            // Every input was the identity constant.
            return self.constant(identity ^ op.is_inverted_terminal());
        }
        // Complement detection: x and !x together collapse the gate.
        for c in &flat {
            if let Node::Not(y) = self.nodes[*c] {
                if flat.binary_search(&y).is_ok() {
                    return self.constant(!identity ^ op.is_inverted_terminal());
                }
            }
        }
        if flat.len() == 1 {
            let only = flat[0];
            return if op.is_inverted_terminal() {
                self.not(only)
            } else {
                only
            };
        }
        // De Morgan: when every input is freely invertible (an
        // explicit NOT, which unwraps, or a gate, whose inverse costs
        // the same) and at least one NOT is actually eliminated, flip
        // the family over the complemented inputs instead:
        // AND(!a,!b) → NOR(a,b), AND(NOR(a,b),!c) → NOR(a,b,c).
        // Each rewrite consumes ≥1 NOT and creates none, so the
        // recursion terminates.
        let nots = flat
            .iter()
            .filter(|c| matches!(self.nodes[**c], Node::Not(_)))
            .count();
        if nots >= 1
            && flat
                .iter()
                .all(|c| matches!(self.nodes[*c], Node::Not(_) | Node::Gate(..)))
        {
            let plain: Vec<NodeId> = flat.clone().into_iter().map(|c| self.not(c)).collect();
            return self.gate(demorgan_op(op), plain);
        }
        self.intern(Node::Gate(op, flat))
    }

    /// `a ⊕ b` expanded to the native 3-gate circuit
    /// `AND(OR(a,b), NAND(a,b))` (the form [`simdram`] synthesizes).
    pub(crate) fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let or_ab = self.gate(LogicOp::Or, vec![a, b]);
        let nand_ab = self.gate(LogicOp::Nand, vec![a, b]);
        self.gate(LogicOp::And, vec![or_ab, nand_ab])
    }

    /// Designates the output node.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub(crate) fn set_output(&mut self, out: NodeId) {
        assert!(out < self.nodes.len(), "output id out of range");
        self.output = out;
    }

    /// The designated output node.
    pub(crate) fn output(&self) -> NodeId {
        self.output
    }

    /// Input names, in operand order.
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// All nodes (creation order is topological: children precede
    /// parents).
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node `id`.
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Ids of the nodes reachable from the output, in topological
    /// (children-first) order — the live set the mapper emits.
    pub(crate) fn live_nodes(&self) -> Vec<NodeId> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack = vec![self.output];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut live[id], true) {
                continue;
            }
            match &self.nodes[id] {
                Node::Not(x) => stack.push(*x),
                Node::Gate(_, xs) => stack.extend(xs.iter().copied()),
                _ => {}
            }
        }
        (0..self.nodes.len()).filter(|i| live[*i]).collect()
    }

    /// Number of live gate/NOT nodes (the pre-mapping logic depth
    /// measure; inputs and constants are free).
    pub fn live_ops(&self) -> usize {
        self.live_nodes()
            .into_iter()
            .filter(|id| matches!(self.nodes[*id], Node::Not(_) | Node::Gate(..)))
            .count()
    }

    /// Evaluates the DAG lane-wise over packed operand columns — the
    /// pure-software reference both backends are verified against.
    ///
    /// # Panics
    ///
    /// Panics when the operand count or lane widths are inconsistent.
    pub fn eval_packed(&self, operands: &[PackedBits]) -> PackedBits {
        assert_eq!(operands.len(), self.inputs.len(), "operand arity");
        let lanes = operands.first().map_or(0, PackedBits::len);
        assert!(
            operands.iter().all(|o| o.len() == lanes),
            "ragged operand lanes"
        );
        let mut values: Vec<Option<PackedBits>> = vec![None; self.nodes.len()];
        for id in self.live_nodes() {
            let v = match &self.nodes[id] {
                Node::Input(i) => operands[*i].clone(),
                Node::Const(b) => PackedBits::splat(*b, lanes),
                Node::Not(x) => {
                    let mut v = values[*x].clone().expect("topological order");
                    v.not_in_place();
                    v
                }
                Node::Gate(op, xs) => {
                    let mut acc = values[xs[0]].clone().expect("topological order");
                    for x in &xs[1..] {
                        let rhs = values[*x].as_ref().expect("topological order");
                        if op.is_and_family() {
                            acc.and_assign(rhs);
                        } else {
                            acc.or_assign(rhs);
                        }
                    }
                    if op.is_inverted_terminal() {
                        acc.not_in_place();
                    }
                    acc
                }
            };
            values[id] = Some(v);
        }
        values[self.output].take().expect("output evaluated")
    }

    /// The full truth table as packed lanes: lane `m` is the output
    /// for input assignment `m` (input `j` = bit `j` of `m`).
    ///
    /// # Panics
    ///
    /// Panics for more than 20 inputs (the table would exceed 1M lanes).
    pub fn truth_table(&self) -> PackedBits {
        let n = self.inputs.len();
        assert!(n <= 20, "truth table over {n} inputs is too large");
        let lanes = 1usize << n;
        let operands: Vec<PackedBits> = (0..n)
            .map(|j| {
                let mut p = PackedBits::zeros(lanes);
                for m in 0..lanes {
                    if m >> j & 1 == 1 {
                        p.set(m, true);
                    }
                }
                p
            })
            .collect();
        self.eval_packed(&operands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(text: &str) -> Circuit {
        Circuit::from_expr(&Expr::parse(text).unwrap())
    }

    #[test]
    fn chains_build_as_left_nested_pairs() {
        for (chain, nested) in [
            ("!a & !b & c", "(!a & !b) & c"),
            ("a ^ b ^ c ^ d", "((a ^ b) ^ c) ^ d"),
            (
                "!a | b | !c | (d & e & f)",
                "((!a | b) | !c) | ((d & e) & f)",
            ),
        ] {
            let (c, n) = (of(chain), of(nested));
            assert_eq!(c.nodes(), n.nodes(), "{chain}");
            assert_eq!(c.output(), n.output(), "{chain}");
        }
    }

    #[test]
    fn consing_shares_subterms() {
        let c = of("(a & b) | ((a & b) & c)");
        // AND(a,b) appears once; the outer AND flattens to AND(a,b,c).
        let gates = c
            .nodes()
            .iter()
            .filter(|n| matches!(n, Node::Gate(..)))
            .count();
        assert_eq!(gates, 3, "AND(a,b), AND(a,b,c), OR — no duplicates");
    }

    #[test]
    fn flattening_builds_wide_gates() {
        let c = of("a & b & c & d & e");
        match c.node(c.output()) {
            Node::Gate(LogicOp::And, xs) => assert_eq!(xs.len(), 5),
            other => panic!("expected wide AND, got {other:?}"),
        }
        assert_eq!(c.live_ops(), 1, "one wide gate, no tree in the IR");
    }

    #[test]
    fn constant_folding() {
        let c = of("a & 0");
        assert!(matches!(c.node(c.output()), Node::Const(false)));
        let c = of("(a & 1) | 0");
        assert!(matches!(c.node(c.output()), Node::Input(0)));
        let c = of("a | !a");
        assert!(matches!(c.node(c.output()), Node::Const(true)));
        let c = of("a & a & a");
        assert!(matches!(c.node(c.output()), Node::Input(0)));
    }

    #[test]
    fn not_normalization() {
        // NOT over a gate becomes the inverse gate.
        let c = of("!(a & b)");
        assert!(matches!(c.node(c.output()), Node::Gate(LogicOp::Nand, _)));
        let c = of("!!(a | b)");
        assert!(matches!(c.node(c.output()), Node::Gate(LogicOp::Or, _)));
    }

    #[test]
    fn de_morgan_rewrites_all_negated_gates() {
        let c = of("!a & !b & !c");
        match c.node(c.output()) {
            Node::Gate(LogicOp::Nor, xs) => assert_eq!(xs.len(), 3),
            other => panic!("expected NOR, got {other:?}"),
        }
        // Not just AND: OR of negations is NAND.
        let c = of("!a | !b");
        assert!(matches!(c.node(c.output()), Node::Gate(LogicOp::Nand, _)));
        // And the inverted terminals unwrap fully: !(!a & !b) = a | b.
        let c = of("!(!a & !b)");
        assert!(matches!(c.node(c.output()), Node::Gate(LogicOp::Or, _)));
    }

    #[test]
    fn nand_flattens_its_monotone_children() {
        let c = of("!((a & b) & c)");
        match c.node(c.output()) {
            Node::Gate(LogicOp::Nand, xs) => assert_eq!(xs.len(), 3),
            other => panic!("expected NAND3, got {other:?}"),
        }
    }

    #[test]
    fn eval_matches_expr_semantics() {
        for text in [
            "a ^ b ^ c",
            "(a & b) | (!a & c)",
            "!(a | b) ^ (c & !d)",
            "(a | b | c | d) & !(a & b & c & d)",
        ] {
            let expr = Expr::parse(text).unwrap();
            let c = Circuit::from_expr(&expr);
            let n = expr.inputs().len();
            let table = c.truth_table();
            for m in 0..(1usize << n) {
                let vals: Vec<bool> = (0..n).map(|j| m >> j & 1 == 1).collect();
                assert_eq!(table.get(m), expr.eval(&vals), "{text} at {m}");
            }
        }
    }

    #[test]
    fn truth_table_expr_round_trip() {
        // Truth table -> SoP expression -> DAG reproduces the table.
        let bits: Vec<bool> = (0..16u32).map(|m| (m.count_ones() % 2) == 1).collect();
        let c = Circuit::from_expr(&Expr::from_truth_table(4, &bits).unwrap());
        let table = c.truth_table();
        for (m, b) in bits.iter().enumerate() {
            assert_eq!(table.get(m), *b, "minterm {m}");
        }
    }

    #[test]
    fn live_nodes_exclude_dead_intermediates() {
        // Flattening leaves the inner AND(a,b) node dead.
        let c = of("(a & b) & c");
        let live = c.live_nodes();
        assert!(live.len() < c.nodes().len(), "inner AND is dead");
        // Topological: children before parents.
        for (pos, id) in live.iter().enumerate() {
            if let Node::Gate(_, xs) = c.node(*id) {
                for x in xs {
                    assert!(live[..pos].contains(x), "child {x} after parent {id}");
                }
            }
        }
    }

    #[test]
    fn constant_output_circuits_evaluate() {
        let c = of("a & !a");
        let out = c.eval_packed(&[PackedBits::ones(5)]);
        assert_eq!(out.count_ones(), 0);
    }
}
