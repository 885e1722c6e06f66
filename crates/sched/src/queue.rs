//! The job queue: validated batches of synthesized programs.
//!
//! A [`Job`] is one compiled FCDRAM program ([`fcsynth::SynthProgram`])
//! plus its bit-packed input operands — one [`PackedBits`] row per
//! program input, one SIMD lane per batch element. A [`Batch`] is the
//! unit of submission: jobs keep their submission order (job ids are
//! submission indices), and every scheduler guarantee — bit-identical
//! results for every shard count and fleet layout, deterministic retry
//! accounting — is stated per batch.

use crate::error::{Result, SchedError};
use fcdram::PackedBits;
use fcsynth::{Mapping, SynthProgram};
use std::sync::Arc;

/// Submission index of a job within its batch.
pub(crate) type JobId = usize;

/// One schedulable unit: a synthesized program with staged operands.
///
/// Stays `pub` although no other crate names it: [`Batch::jobs`]
/// returns these.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Submission index within the batch.
    pub id: JobId,
    /// Caller-supplied display label (e.g. the source expression).
    pub label: String,
    /// The program as submitted, shared with the [`Mapping`] it was
    /// pushed from (the planner may run a narrowed variant for an
    /// unreliable chip; the submitted program is never mutated). The
    /// mapper's own success prediction is deliberately *not* carried:
    /// the planner always re-prices under the assigned chip's model.
    pub program: Arc<SynthProgram>,
    /// Packed operands, one per program input, `lanes` bits each.
    pub operands: Vec<PackedBits>,
    /// SIMD lanes (batch elements) this job computes at once.
    pub lanes: usize,
}

/// An ordered batch of jobs plus the batch-level seed every
/// deterministic draw (retry Bernoulli trials) derives from.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    seed: u64,
    jobs: Vec<Job>,
}

impl Batch {
    /// An empty batch. All retry draws derive from `seed`, so two
    /// batches with the same seed, jobs, and fleet account
    /// identically.
    pub fn new(seed: u64) -> Batch {
        Batch {
            seed,
            jobs: Vec::new(),
        }
    }

    /// The batch seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Submits one job: a compiled [`Mapping`] plus its packed
    /// operands (`lanes` bits per operand; pass the intended lane
    /// count explicitly so constant programs with zero operands are
    /// well-formed too). Returns the job's submission index.
    ///
    /// # Errors
    ///
    /// Fails when the operand count does not match the program's input
    /// count or any operand's lane count differs from `lanes`.
    pub fn push(
        &mut self,
        label: impl Into<String>,
        mapping: &Mapping,
        operands: Vec<PackedBits>,
        lanes: usize,
    ) -> Result<JobId> {
        let label = label.into();
        if operands.len() != mapping.program.inputs.len() {
            return Err(SchedError::OperandMismatch {
                job: label,
                expected: mapping.program.inputs.len(),
                got: operands.len(),
            });
        }
        if let Some(bad) = operands.iter().find(|o| o.len() != lanes) {
            return Err(SchedError::RaggedLanes {
                job: label,
                expected: lanes,
                got: bad.len(),
            });
        }
        let id = self.jobs.len();
        self.jobs.push(Job {
            id,
            label,
            program: Arc::clone(&mapping.program),
            operands,
            lanes,
        });
        Ok(id)
    }

    /// The jobs, in submission order.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs submitted.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total native operations across all submitted programs.
    pub fn native_ops(&self) -> usize {
        self.jobs.iter().map(|j| j.program.steps.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcsynth::CostModel;

    fn mapping(text: &str) -> Mapping {
        let cost = CostModel::table1_defaults();
        fcsynth::compile(text, &cost, 16).unwrap().mapping
    }

    fn operands(n: usize, lanes: usize) -> Vec<PackedBits> {
        (0..n)
            .map(|i| {
                let mut p = PackedBits::zeros(lanes);
                for l in 0..lanes {
                    p.set(l, (i + l) % 3 == 0);
                }
                p
            })
            .collect()
    }

    #[test]
    fn push_assigns_submission_order_ids() {
        let mut b = Batch::new(7);
        let m = mapping("a & b");
        assert_eq!(b.push("j0", &m, operands(2, 8), 8).unwrap(), 0);
        assert_eq!(b.push("j1", &m, operands(2, 8), 8).unwrap(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.seed(), 7);
        assert_eq!(b.native_ops(), 2);
        assert_eq!(b.jobs()[1].id, 1);
    }

    #[test]
    fn operand_validation() {
        let mut b = Batch::new(0);
        let m = mapping("a & b & c");
        assert!(matches!(
            b.push("short", &m, operands(2, 8), 8),
            Err(SchedError::OperandMismatch {
                expected: 3,
                got: 2,
                ..
            })
        ));
        let mut ragged = operands(3, 8);
        ragged[1] = PackedBits::zeros(9);
        assert!(matches!(
            b.push("ragged", &m, ragged, 8),
            Err(SchedError::RaggedLanes {
                expected: 8,
                got: 9,
                ..
            })
        ));
        assert!(b.is_empty(), "rejected jobs are not enqueued");
    }

    #[test]
    fn constant_job_with_zero_operands() {
        let mut b = Batch::new(0);
        let m = mapping("a & !a");
        assert_eq!(m.program.inputs.len(), 1, "input table is kept");
        // A truly 0-input mapping: constant expression.
        let cost = CostModel::table1_defaults();
        let c = fcsynth::compile("1", &cost, 16).unwrap().mapping;
        assert!(b.push("const", &c, Vec::new(), 16).is_ok());
        assert_eq!(b.jobs()[0].lanes, 16);
    }
}
