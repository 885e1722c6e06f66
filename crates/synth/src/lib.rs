//! # fcsynth — reliability-aware logic synthesis for FCDRAM
//!
//! The paper's headline result is *functional completeness*: NOT plus
//! N-input AND/OR/NAND/NOR in commodity DRAM computes any boolean
//! function. This crate is the compiler that makes the claim
//! operational end to end:
//!
//! 1. **frontend** ([`expr`]) — boolean expressions
//!    (`!`, `&`, `|`, `^`, parentheses, named inputs) or raw truth
//!    tables;
//! 2. **IR** ([`dag`]) — a structurally-hashed gate DAG with
//!    constant folding, common-subexpression sharing, De Morgan
//!    rewrites, and associative flattening into wide N-input gates;
//! 3. **mapping** ([`mapper`]) — a technology mapper that chunks wide
//!    gates into native-gate trees using a reliability [`CostModel`]
//!    (measured per-(op, N) success rates from a characterization
//!    sweep, or built-in Table-1 defaults), maximizing expected
//!    whole-circuit success with op count and latency as tiebreakers;
//! 4. **emission** ([`backend`]) — the program as [`bender`] assembly
//!    for command-level replay.
//!
//! *Execution* of mapped programs lives in the `fcexec` crate: one
//! observer-driven engine ([`ExecBackend`](../fcexec) implementors)
//! behind the `SimdVm` substrates and the command-schedule
//! `BenderBackend`, replacing the four `execute_*` entry points this
//! crate used to carry.
//!
//! ## Quickstart
//!
//! ```
//! use fcsynth::{compile, CostModel};
//!
//! let cost = CostModel::table1_defaults();
//! let c = compile("(a & b) | (a & c) | (b & c)", &cost, 16)?;
//! assert_eq!(c.circuit.inputs(), ["a", "b", "c"]);
//! assert!(c.mapping.expected_success > 0.9);
//! assert!(c.mapping.native_ops >= c.circuit.live_ops());
//!
//! // The reference evaluator agrees with the majority truth table.
//! let ops: Vec<fcdram::PackedBits> = [
//!     [true, true, false, false],
//!     [true, false, true, false],
//!     [false, true, true, false],
//! ]
//! .iter()
//! .map(|bits| fcdram::PackedBits::from_bools(bits))
//! .collect();
//! assert_eq!(
//!     c.circuit.eval_packed(&ops).to_bools(),
//!     vec![true, true, true, false]
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod cost;
pub mod dag;
pub mod error;
pub mod expr;
pub mod mapper;

pub use backend::BenderEmitter;
pub use cost::{CostModel, CostModelData, GateCost};
pub use dag::Circuit;
pub use error::{Result, SynthError};
pub use expr::Expr;
pub use mapper::{Mapper, Mapping, Output, ProgramCost, Step, SynthProgram};

/// A fully compiled expression: parsed form, optimized DAG, and the
/// reliability-aware mapping.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The parsed expression (input-name table included).
    pub expr: Expr,
    /// The optimized gate DAG.
    pub circuit: Circuit,
    /// The reliability-aware mapping.
    pub mapping: Mapping,
}

/// Parses, optimizes, and maps an expression in one call.
///
/// `max_fan_in` is the widest native gate the target substrate
/// executes (16 for the paper's SK Hynix parts).
///
/// # Errors
///
/// Fails on a parse error.
pub fn compile(text: &str, cost: &CostModel, max_fan_in: usize) -> Result<Compiled> {
    let expr = Expr::parse(text)?;
    Ok(compile_expr(expr, cost, max_fan_in))
}

/// Optimizes and maps an already-parsed expression.
pub fn compile_expr(expr: Expr, cost: &CostModel, max_fan_in: usize) -> Compiled {
    let circuit = Circuit::from_expr(&expr);
    let mapping = Mapper::new(cost, max_fan_in).map(&circuit);
    Compiled {
        expr,
        circuit,
        mapping,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_pipeline_end_to_end() {
        let cost = CostModel::table1_defaults();
        let c = compile("a ^ b ^ c ^ d", &cost, 16).unwrap();
        assert_eq!(c.circuit.inputs().len(), 4);
        // 3 XORs at 3 gates each.
        assert_eq!(c.mapping.native_ops, 9);
        assert!(c.mapping.expected_success > 0.8);
        assert!(compile("a &", &cost, 16).is_err());
    }
}
