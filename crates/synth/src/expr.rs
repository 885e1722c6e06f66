//! Expression frontend: parse boolean formulas and truth tables.
//!
//! The grammar is C-like with `|` binding loosest and `!` tightest:
//!
//! ```text
//! expr := xor ('|' xor)*
//! xor  := and ('^' and)*
//! and  := not ('&' not)*
//! not  := ('!' | '~') not | atom
//! atom := '(' expr ')' | ident | '0' | '1'
//! ```
//!
//! Identifiers (`[A-Za-z_][A-Za-z0-9_]*`) name inputs; they are
//! numbered in first-appearance order, which is also the operand order
//! every backend expects.
//!
//! Parentheses and negations nest at most `MAX_DEPTH` deep; deeper
//! input is a [`SynthError::Parse`], never a stack overflow. A run of
//! one binary operator (`a & b & … & z`) parses into a single n-ary
//! `ExprNode::Apply`, so a flat chain of any length adds no depth.
//!
//! # Examples
//!
//! ```
//! let e = fcsynth::Expr::parse("(a & b) | (a & c) | (b & c)")?;
//! assert_eq!(e.inputs(), ["a", "b", "c"]);
//! # Ok::<(), fcsynth::SynthError>(())
//! ```

use crate::error::{Result, SynthError};

/// Deepest nesting of parentheses and negations [`Expr::parse`]
/// accepts. The parser is recursive descent, so the bound keeps hostile
/// input from exhausting the stack.
pub(crate) const MAX_DEPTH: usize = 256;

/// Operator applied by an [`ExprNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExprOp {
    /// Logical negation (unary).
    Not,
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
    /// Exclusive or.
    Xor,
}

/// One node of a parsed expression tree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ExprNode {
    /// A named input, by index into [`Expr::inputs`].
    Var(usize),
    /// A literal `0` or `1`.
    Const(bool),
    /// `op` applied to one child (NOT) or over two or more. A parsed
    /// run of one binary operator (`a & b & c`) is a single node that
    /// the circuit builder associates left to right, as written; a
    /// truth table's products and sum are single n-ary gates (see
    /// [`Expr::from_truth_table`]).
    Apply(ExprOp, Vec<ExprNode>),
}

/// A parsed boolean expression plus its input-name table.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    root: ExprNode,
    inputs: Vec<String>,
    /// Whether n-ary nodes are written operator chains (parsed text)
    /// rather than sum-of-products gates (truth tables).
    chains: bool,
}

impl Expr {
    /// Parses an expression string.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::Parse`] with a byte offset for any syntax
    /// problem.
    pub fn parse(text: &str) -> Result<Expr> {
        let mut p = Parser {
            src: text.as_bytes(),
            pos: 0,
            depth: 0,
            inputs: Vec::new(),
        };
        let root = p.expr()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(SynthError::Parse {
                at: p.pos,
                detail: format!("unexpected trailing input '{}'", p.rest()),
            });
        }
        Ok(Expr {
            root,
            inputs: p.inputs,
            chains: true,
        })
    }

    /// Builds the expression computing a raw truth table.
    ///
    /// `bits[i]` is the output for the input assignment whose bit `j`
    /// (of `i`) is the value of input `j` — LSB-first, so `bits` has
    /// exactly `2^n` entries for `n` inputs. Inputs are named
    /// `x0..x{n-1}`. The expression is the canonical sum of products;
    /// the DAG optimizer shares and folds it from there.
    ///
    /// # Errors
    ///
    /// Fails when `n` is 0 or above 16, or `bits` is not `2^n` long.
    pub fn from_truth_table(n: usize, bits: &[bool]) -> Result<Expr> {
        if n == 0 || n > 16 {
            return Err(SynthError::BadTruthTable {
                detail: format!("input count {n} outside 1..=16"),
            });
        }
        if bits.len() != 1 << n {
            return Err(SynthError::BadTruthTable {
                detail: format!(
                    "expected {} entries for {n} inputs, got {}",
                    1 << n,
                    bits.len()
                ),
            });
        }
        let mut minterms = Vec::new();
        for (m, out) in bits.iter().enumerate() {
            if !*out {
                continue;
            }
            let lits: Vec<ExprNode> = (0..n)
                .map(|j| {
                    if m >> j & 1 == 1 {
                        ExprNode::Var(j)
                    } else {
                        ExprNode::Apply(ExprOp::Not, vec![ExprNode::Var(j)])
                    }
                })
                .collect();
            minterms.push(if lits.len() == 1 {
                lits.into_iter().next().expect("one literal")
            } else {
                ExprNode::Apply(ExprOp::And, lits)
            });
        }
        let root = match minterms.len() {
            0 => ExprNode::Const(false),
            1 => minterms.into_iter().next().expect("one minterm"),
            _ => ExprNode::Apply(ExprOp::Or, minterms),
        };
        Ok(Expr {
            root,
            inputs: (0..n).map(|j| format!("x{j}")).collect(),
            chains: false,
        })
    }

    /// Parses a truth table given as a string of `0`/`1` digits
    /// (LSB-first, as in [`Expr::from_truth_table`]); whitespace and
    /// `_` separators are ignored.
    ///
    /// # Errors
    ///
    /// Fails on non-binary digits or a length that is not a power of
    /// two in `2..=65536`.
    pub fn parse_truth_table(text: &str) -> Result<Expr> {
        let mut bits = Vec::new();
        for c in text.chars() {
            match c {
                '0' => bits.push(false),
                '1' => bits.push(true),
                c if c.is_whitespace() || c == '_' => {}
                other => {
                    return Err(SynthError::BadTruthTable {
                        detail: format!("invalid digit '{other}'"),
                    })
                }
            }
        }
        if !bits.len().is_power_of_two() || bits.len() < 2 {
            return Err(SynthError::BadTruthTable {
                detail: format!("length {} is not a power of two >= 2", bits.len()),
            });
        }
        Expr::from_truth_table(bits.len().trailing_zeros() as usize, &bits)
    }

    /// The root node.
    pub(crate) fn root(&self) -> &ExprNode {
        &self.root
    }

    /// Input names in first-appearance (operand) order.
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// Whether the n-ary AND/OR nodes are written chains, built left
    /// to right, rather than truth-table gates built all at once.
    pub(crate) fn chains(&self) -> bool {
        self.chains
    }

    /// Evaluates the expression on one input assignment (reference
    /// semantics used by tests).
    ///
    /// # Panics
    ///
    /// Panics when `values.len() != self.inputs().len()`.
    pub fn eval(&self, values: &[bool]) -> bool {
        assert_eq!(values.len(), self.inputs.len(), "input arity");
        eval_node(&self.root, values)
    }
}

fn eval_node(node: &ExprNode, values: &[bool]) -> bool {
    match node {
        ExprNode::Var(i) => values[*i],
        ExprNode::Const(b) => *b,
        ExprNode::Apply(ExprOp::Not, xs) => !eval_node(&xs[0], values),
        ExprNode::Apply(ExprOp::And, xs) => xs.iter().all(|x| eval_node(x, values)),
        ExprNode::Apply(ExprOp::Or, xs) => xs.iter().any(|x| eval_node(x, values)),
        ExprNode::Apply(ExprOp::Xor, xs) => xs.iter().fold(false, |a, x| a ^ eval_node(x, values)),
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    /// Open parentheses and negations around the current position.
    depth: usize,
    inputs: Vec<String>,
}

impl Parser<'_> {
    fn rest(&self) -> String {
        String::from_utf8_lossy(&self.src[self.pos..]).into_owned()
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expr(&mut self) -> Result<ExprNode> {
        self.chain(b'|', ExprOp::Or, Self::xor)
    }

    fn xor(&mut self) -> Result<ExprNode> {
        self.chain(b'^', ExprOp::Xor, Self::and)
    }

    fn and(&mut self) -> Result<ExprNode> {
        self.chain(b'&', ExprOp::And, Self::not)
    }

    /// One run `x (c x)*` of the binary operator `c`, folded into a
    /// single n-ary node (a lone operand is returned as is), so a long
    /// flat chain costs no recursion depth anywhere.
    fn chain(
        &mut self,
        c: u8,
        op: ExprOp,
        operand: fn(&mut Self) -> Result<ExprNode>,
    ) -> Result<ExprNode> {
        let first = operand(self)?;
        if !self.eat(c) {
            return Ok(first);
        }
        let mut xs = vec![first];
        loop {
            xs.push(operand(self)?);
            if !self.eat(c) {
                return Ok(ExprNode::Apply(op, xs));
            }
        }
    }

    /// Descends one nesting level, failing past [`MAX_DEPTH`].
    fn nest(&mut self) -> Result<()> {
        if self.depth == MAX_DEPTH {
            return Err(SynthError::Parse {
                at: self.pos,
                detail: format!("nesting deeper than {MAX_DEPTH} levels"),
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn not(&mut self) -> Result<ExprNode> {
        if self.eat(b'!') || self.eat(b'~') {
            self.nest()?;
            let inner = self.not()?;
            self.depth -= 1;
            return Ok(ExprNode::Apply(ExprOp::Not, vec![inner]));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<ExprNode> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                self.nest()?;
                let inner = self.expr()?;
                self.depth -= 1;
                if !self.eat(b')') {
                    return Err(SynthError::Parse {
                        at: self.pos,
                        detail: "expected ')'".into(),
                    });
                }
                Ok(inner)
            }
            Some(b'0') => {
                self.pos += 1;
                Ok(ExprNode::Const(false))
            }
            Some(b'1') => {
                self.pos += 1;
                Ok(ExprNode::Const(true))
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                {
                    self.pos += 1;
                }
                let name = std::str::from_utf8(&self.src[start..self.pos])
                    .expect("ASCII ident")
                    .to_string();
                let idx = match self.inputs.iter().position(|n| *n == name) {
                    Some(i) => i,
                    None => {
                        self.inputs.push(name);
                        self.inputs.len() - 1
                    }
                };
                Ok(ExprNode::Var(idx))
            }
            Some(c) => Err(SynthError::Parse {
                at: self.pos,
                detail: format!("unexpected character '{}'", c as char),
            }),
            None => Err(SynthError::Parse {
                at: self.pos,
                detail: "unexpected end of input".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_named_inputs_in_order() {
        let e = Expr::parse("b | a & !b").unwrap();
        assert_eq!(e.inputs(), ["b", "a"]);
    }

    #[test]
    fn precedence_not_over_and_over_xor_over_or() {
        // !a & b ^ c | d parses as (((!a) & b) ^ c) | d.
        let e = Expr::parse("!a & b ^ c | d").unwrap();
        let check = |vals: [bool; 4]| {
            let [a, b, c, d] = vals;
            assert_eq!(e.eval(&vals), (((!a) && b) ^ c) || d, "{vals:?}");
        };
        for m in 0..16u32 {
            check([m & 1 == 1, m & 2 == 2, m & 4 == 4, m & 8 == 8]);
        }
    }

    #[test]
    fn same_operator_runs_are_one_node() {
        let e = Expr::parse("a & b & c | d").unwrap();
        let ExprNode::Apply(ExprOp::Or, sum) = e.root() else {
            panic!("root is the OR run: {:?}", e.root());
        };
        assert!(matches!(&sum[0], ExprNode::Apply(ExprOp::And, xs) if xs.len() == 3));
        let long = format!("a{}", "^a".repeat(100_000));
        let e = Expr::parse(&long).unwrap();
        assert!(matches!(e.root(), ExprNode::Apply(ExprOp::Xor, xs) if xs.len() == 100_001));
        assert!(e.eval(&[true]), "an odd number of ones");
    }

    #[test]
    fn parens_and_constants() {
        let e = Expr::parse("(a | 0) & (1 ^ b)").unwrap();
        assert!(e.eval(&[true, false]));
        assert!(!e.eval(&[true, true]));
    }

    #[test]
    fn double_negation_and_tilde() {
        let e = Expr::parse("~~a").unwrap();
        assert!(e.eval(&[true]));
        assert!(!e.eval(&[false]));
    }

    #[test]
    fn parse_errors_carry_position() {
        for bad in ["a &", "(a | b", "a @ b", "", "a b"] {
            let err = Expr::parse(bad).unwrap_err();
            assert!(matches!(err, SynthError::Parse { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn hostile_nesting_is_a_parse_error() {
        let parens = format!("{}a{}", "(".repeat(100_000), ")".repeat(100_000));
        let nots = format!("{}a", "!".repeat(100_000));
        for text in [parens, nots] {
            let err = Expr::parse(&text).unwrap_err();
            assert!(
                matches!(err, SynthError::Parse { at, .. } if at <= MAX_DEPTH + 1),
                "{err}"
            );
        }
        // The limit itself still parses, exactly as before.
        let deepest = format!("{}a{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        assert_eq!(Expr::parse(&deepest).unwrap(), Expr::parse("a").unwrap());
        let nots = format!("{}a", "~".repeat(MAX_DEPTH));
        assert!(Expr::parse(&nots).unwrap().eval(&[true]));
        let too_deep = format!("({})", deepest);
        assert!(Expr::parse(&too_deep).is_err());
    }

    #[test]
    fn truth_table_round_trips_through_eval() {
        // 3-input majority, LSB-first: index m has bits (a, b, c).
        let bits: Vec<bool> = (0..8u32).map(|m| m.count_ones() >= 2).collect();
        let e = Expr::from_truth_table(3, &bits).unwrap();
        for (m, bit) in bits.iter().enumerate() {
            let vals = [m & 1 == 1, m & 2 == 2, m & 4 == 4];
            assert_eq!(e.eval(&vals), *bit, "minterm {m}");
        }
    }

    #[test]
    fn truth_table_text_form() {
        let e = Expr::parse_truth_table("0110_1001").unwrap();
        assert_eq!(e.inputs().len(), 3);
        // 3-input odd parity.
        for m in 0..8usize {
            let vals = [m & 1 == 1, m & 2 == 2, m & 4 == 4];
            assert_eq!(e.eval(&vals), (m.count_ones() % 2) == 1, "minterm {m}");
        }
    }

    #[test]
    fn truth_table_shape_validation() {
        assert!(Expr::from_truth_table(0, &[]).is_err());
        assert!(Expr::from_truth_table(2, &[true; 3]).is_err());
        assert!(Expr::parse_truth_table("012").is_err());
        assert!(Expr::parse_truth_table("011").is_err());
    }

    #[test]
    fn degenerate_tables() {
        let zero = Expr::parse_truth_table("0000").unwrap();
        let one = Expr::parse_truth_table("1111").unwrap();
        for m in 0..4usize {
            let vals = [m & 1 == 1, m & 2 == 2];
            assert!(!zero.eval(&vals));
            assert!(one.eval(&vals));
        }
    }
}
