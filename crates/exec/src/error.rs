//! The one error type every execution backend reports through.
//!
//! Before this crate existed, each layer mirrored the layers below it
//! by hand: `fcsynth` wrapped [`simdram::SimdramError`] into an opaque
//! string, and `fcsched` wrapped *that* into another string. A single
//! [`ExecError`] with `From` impls for every substrate-level error
//! keeps the original failure inspectable from any layer.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ExecError>;

/// Everything that can go wrong while executing a mapped program on a
/// backend.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// The operand count does not match the program's input count.
    InputMismatch {
        /// Inputs the program expects.
        expected: usize,
        /// Operands provided.
        got: usize,
    },
    /// A plan step is wider than the running backend's native fan-in:
    /// the plan was prepared for a wider backend. Preparing the
    /// program on this backend narrows the step instead.
    StepTooWide {
        /// Arguments of the widest step in the plan.
        width: usize,
        /// Widest native gate this backend executes.
        fan_in: usize,
    },
    /// A [`simdram`] substrate/VM failure (row exhaustion, lane
    /// mismatch, bad handle).
    Vm(simdram::SimdramError),
    /// A [`bender`] command-interface failure (illegal command stream,
    /// bad chip index, device rejection).
    Device(bender::BenderError),
    /// An [`fcdram`] engine failure (no activation pattern, width
    /// mismatch, out of rows).
    Engine(fcdram::FcdramError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InputMismatch { expected, got } => {
                write!(f, "program expects {expected} operand(s), got {got}")
            }
            ExecError::StepTooWide { width, fan_in } => write!(
                f,
                "plan has a {width}-input step but the backend's fan-in is {fan_in}; \
                 prepare the program on this backend"
            ),
            ExecError::Vm(e) => write!(f, "vm backend: {e}"),
            ExecError::Device(e) => write!(f, "command interface: {e}"),
            ExecError::Engine(e) => write!(f, "bulk engine: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Vm(e) => Some(e),
            ExecError::Device(e) => Some(e),
            ExecError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<simdram::SimdramError> for ExecError {
    fn from(e: simdram::SimdramError) -> Self {
        ExecError::Vm(e)
    }
}

impl From<bender::BenderError> for ExecError {
    fn from(e: bender::BenderError) -> Self {
        ExecError::Device(e)
    }
}

impl From<fcdram::FcdramError> for ExecError {
    fn from(e: fcdram::FcdramError) -> Self {
        ExecError::Engine(e)
    }
}

impl From<dram_core::DramError> for ExecError {
    fn from(e: dram_core::DramError) -> Self {
        ExecError::Engine(fcdram::FcdramError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_the_underlying_failure() {
        let e: ExecError = simdram::SimdramError::Empty.into();
        assert!(e.to_string().contains("vm backend"));
        let e: ExecError = fcdram::FcdramError::OutOfRows.into();
        assert!(e.to_string().contains("bulk engine"));
        let e: ExecError = bender::BenderError::NoSuchChip { chip: 9, chips: 8 }.into();
        assert!(e.to_string().contains('9'));
        let e = ExecError::InputMismatch {
            expected: 3,
            got: 1,
        };
        assert!(e.to_string().contains("3 operand"));
        let e = ExecError::StepTooWide {
            width: 16,
            fan_in: 8,
        };
        assert!(e.to_string().contains("16-input step"));
        assert!(e.to_string().contains("fan-in is 8"));
    }

    #[test]
    fn error_is_send_sync_and_sourced() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExecError>();
        use std::error::Error;
        let e: ExecError = fcdram::FcdramError::OutOfRows.into();
        assert!(e.source().is_some());
        let e = ExecError::InputMismatch {
            expected: 2,
            got: 1,
        };
        assert!(e.source().is_none());
    }
}
