//! Execution trace of native substrate operations.
//!
//! Every primitive the substrate executes — NOT, N-input logic,
//! RowClone copy, constant fill, host write/read — is appended to an
//! [`OpTrace`]. The trace is the single source of truth for
//! downstream accounting:
//!
//! * [`crate::cost`] converts it into DDR4 command counts, latency and
//!   energy;
//! * [`crate::reliability`] folds the per-operation predicted success
//!   probabilities into an expected lane accuracy for the whole
//!   circuit.

use dram_core::LogicOp;
use serde::{Deserialize, Serialize};

/// The kind of one native substrate operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NativeOp {
    /// Cross-subarray NOT (one violated double activation).
    Not,
    /// N-input logic operation; the payload is the operation and its
    /// *executed* fan-in (the discovered `N:N` pattern size, which may
    /// exceed the logical input count due to identity padding).
    Logic(LogicOp, u8),
    /// Ambit-style in-subarray three-input majority (one four-row
    /// simultaneous activation with an all-1 filler row).
    Maj,
    /// In-subarray RowClone copy.
    Copy,
    /// Constant fill (a host row write in the current engine).
    Fill,
    /// Host write of one row over the channel.
    HostWrite,
    /// Host read of one row over the channel.
    HostRead,
}

impl NativeOp {
    /// Whether the operation executes inside the DRAM array (as
    /// opposed to moving data over the channel).
    pub fn is_in_dram(self) -> bool {
        matches!(
            self,
            NativeOp::Not | NativeOp::Logic(..) | NativeOp::Maj | NativeOp::Copy
        )
    }

    /// Short mnemonic for reports.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            NativeOp::Not => "NOT",
            NativeOp::Logic(LogicOp::And, _) => "AND",
            NativeOp::Logic(LogicOp::Or, _) => "OR",
            NativeOp::Logic(LogicOp::Nand, _) => "NAND",
            NativeOp::Logic(LogicOp::Nor, _) => "NOR",
            NativeOp::Maj => "MAJ",
            NativeOp::Copy => "COPY",
            NativeOp::Fill => "FILL",
            NativeOp::HostWrite => "WR",
            NativeOp::HostRead => "RD",
        }
    }
}

/// One recorded native operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// What executed.
    pub op: NativeOp,
    /// In-DRAM executions performed (>1 under repetition voting;
    /// 0 for host-fallback copies and pure host transfers).
    pub executions: usize,
    /// Mean per-lane success probability of *one* execution as
    /// predicted by the device model (1.0 for host operations).
    pub predicted_success: f64,
}

/// Append-only log of native operations with summary accessors.
///
/// # Examples
///
/// ```
/// use simdram::trace::{NativeOp, OpTrace, TraceEntry};
///
/// let mut t = OpTrace::new();
/// t.record(TraceEntry { op: NativeOp::Not, executions: 1, predicted_success: 0.98 });
/// assert_eq!(t.in_dram_ops(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpTrace {
    entries: Vec<TraceEntry>,
}

impl OpTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        OpTrace::default()
    }

    /// Appends one entry.
    pub fn record(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    /// All recorded entries, in execution order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clears the log (used between measured sections).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Splits off everything recorded after `mark` (a value previously
    /// obtained from [`OpTrace::len`]), leaving the prefix in place.
    pub fn split_off(&mut self, mark: usize) -> OpTrace {
        OpTrace {
            entries: self.entries.split_off(mark.min(self.entries.len())),
        }
    }

    /// Number of in-DRAM operations (NOT / logic / copy), counting
    /// repetition re-executions.
    pub fn in_dram_ops(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.op.is_in_dram())
            .map(|e| e.executions.max(1))
            .sum()
    }

    /// Histogram of entries by mnemonic (for reports).
    pub fn histogram(&self) -> Vec<(&'static str, usize)> {
        let mut out: Vec<(&'static str, usize)> = Vec::new();
        for e in &self.entries {
            let m = e.op.mnemonic();
            match out.iter_mut().find(|(k, _)| *k == m) {
                Some((_, n)) => *n += 1,
                None => out.push((m, 1)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OpTrace {
        /// Number of rows moved over the channel (host reads + writes +
        /// fills + fallback copies).
        fn host_transfers(&self) -> usize {
            self.entries
                .iter()
                .filter(|e| {
                    matches!(
                        e.op,
                        NativeOp::HostWrite | NativeOp::HostRead | NativeOp::Fill
                    ) || (e.op == NativeOp::Copy && e.executions == 0)
                })
                .count()
        }
    }

    fn e(op: NativeOp, executions: usize, p: f64) -> TraceEntry {
        TraceEntry {
            op,
            executions,
            predicted_success: p,
        }
    }

    #[test]
    fn in_dram_ops_counts_repetitions() {
        let mut t = OpTrace::new();
        t.record(e(NativeOp::Not, 3, 0.99));
        t.record(e(NativeOp::Logic(LogicOp::And, 2), 1, 0.9));
        t.record(e(NativeOp::HostWrite, 0, 1.0));
        assert_eq!(t.in_dram_ops(), 4);
        assert_eq!(t.host_transfers(), 1);
    }

    #[test]
    fn fallback_copy_is_a_host_transfer() {
        let mut t = OpTrace::new();
        t.record(e(NativeOp::Copy, 0, 1.0)); // host fallback
        t.record(e(NativeOp::Copy, 1, 0.995)); // real RowClone
        assert_eq!(t.host_transfers(), 1);
        assert_eq!(t.in_dram_ops(), 2); // max(0,1)=1 + 1
    }

    #[test]
    fn split_off_preserves_prefix() {
        let mut t = OpTrace::new();
        t.record(e(NativeOp::Not, 1, 1.0));
        let mark = t.len();
        t.record(e(NativeOp::Fill, 0, 1.0));
        t.record(e(NativeOp::HostRead, 0, 1.0));
        let tail = t.split_off(mark);
        assert_eq!(t.len(), 1);
        assert_eq!(tail.len(), 2);
    }

    #[test]
    fn histogram_groups_by_mnemonic() {
        let mut t = OpTrace::new();
        t.record(e(NativeOp::Logic(LogicOp::And, 2), 1, 1.0));
        t.record(e(NativeOp::Logic(LogicOp::And, 4), 1, 1.0));
        t.record(e(NativeOp::Logic(LogicOp::Nor, 2), 1, 1.0));
        let h = t.histogram();
        assert!(h.contains(&("AND", 2)));
        assert!(h.contains(&("NOR", 1)));
    }

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(NativeOp::Not.mnemonic(), "NOT");
        assert_eq!(NativeOp::Copy.mnemonic(), "COPY");
        assert_eq!(NativeOp::Maj.mnemonic(), "MAJ");
        assert!(NativeOp::Logic(LogicOp::Nand, 8).is_in_dram());
        assert!(NativeOp::Maj.is_in_dram());
        assert!(!NativeOp::HostRead.is_in_dram());
    }
}
