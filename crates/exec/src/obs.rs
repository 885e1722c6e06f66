//! Observability helpers over engine steps.
//!
//! The observer hook of [`crate::ExecBackend::run_prepared`] hands callers
//! `(index, step)` pairs; these helpers turn a [`fcsynth::Step`] into
//! the trace-facing view: a stable op-shape name and the modeled
//! device-command footprint. Both are pure functions of the step
//! shape, so anything derived from them is identical on every backend
//! and shard count.

use fcsynth::Step;

/// Stable op-shape name of a step: `not` for the NOT/copy primitive,
/// `<op><fan-in>` (`and16`, `nor2`, ...) for charge-share gates.
pub fn step_name(step: &Step) -> String {
    match step.op {
        None => "not".to_string(),
        Some(op) => {
            let mut name = format!("{op:?}").to_lowercase();
            name.push_str(&step.args.len().to_string());
            name
        }
    }
}

/// Modeled device activations one attempt of the step issues (the
/// command-sequence footprint from [`dram_core::fault::step_activations`]).
pub fn step_acts(step: &Step) -> u64 {
    dram_core::fault::step_activations(step.op.map(|_| step.args.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    fn step(op: Option<dram_core::LogicOp>, n: usize) -> Step {
        Step {
            op,
            args: (0..n.max(1)).collect(),
            out: 99,
        }
    }

    #[test]
    fn names_are_op_and_fan_in() {
        assert_eq!(step_name(&step(None, 1)), "not");
        assert_eq!(step_name(&step(Some(dram_core::LogicOp::And), 16)), "and16");
        assert_eq!(step_name(&step(Some(dram_core::LogicOp::Nor), 2)), "nor2");
    }

    #[test]
    fn acts_follow_the_command_footprint() {
        assert_eq!(step_acts(&step(None, 1)), 4);
        assert!(step_acts(&step(Some(dram_core::LogicOp::And), 2)) > 4);
    }
}
