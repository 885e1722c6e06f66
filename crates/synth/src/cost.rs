//! The reliability cost model driving technology mapping.
//!
//! A [`CostModel`] prices every native operation the mapper can emit:
//! NOT plus AND/OR/NAND/NOR at each input count, each with a mean
//! *success rate* (the paper's §5.2 metric), a latency, and an energy.
//! Two sources exist:
//!
//! * [`CostModel::table1_defaults`] — calibrated to the paper's
//!   population means (NOT ≈ 98.37% per Observation 1; the logic
//!   family degrading from ≈99% at 2 inputs to ≈94% at 16 inputs per
//!   §6.2), with latency/energy from [`simdram::cost`]'s steady-state
//!   DDR4 accounting;
//! * a characterization-sweep export — `characterize fleet
//!   --export-costs` writes measured per-(op, N) statistics in exactly
//!   the [`CostModelData`] JSON schema this module loads, so fleet
//!   measurements drive the mapper directly.
//!
//! Input counts between measured points are bridged by linear
//! interpolation (clamped at the ends), so the mapper may cost any
//! chunk width in `2..=16` even when only N ∈ {2, 4, 8, 16} was swept.

use crate::error::{Result, SynthError};
use dram_core::timing::SpeedBin;
use dram_core::LogicOp;
use serde::{Deserialize, Serialize};
use simdram::trace::{NativeOp, TraceEntry};

/// Measured (or default) statistics for one native operation shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateCost {
    /// Operation name: `not`, `and`, `nand`, `or`, or `nor`.
    pub op: String,
    /// Input count (1 for `not`).
    pub inputs: usize,
    /// Mean result-cell success rate in `[0, 1]`.
    pub success: f64,
    /// Steady-state latency of one execution, nanoseconds.
    pub latency_ns: f64,
    /// Steady-state energy of one execution, picojoules.
    pub energy_pj: f64,
    /// Result cells behind the success estimate (0 for defaults).
    pub cells: u64,
}

/// The serialized cost-model document — the exact schema
/// `characterize fleet --export-costs` writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModelData {
    /// Where the numbers came from (free text).
    pub source: String,
    /// SIMD lanes the latency/energy figures were priced at.
    pub lanes: usize,
    /// Per-operation statistics.
    pub entries: Vec<GateCost>,
}

/// An indexed, query-ready cost model.
///
/// # Examples
///
/// ```
/// use dram_core::LogicOp;
///
/// let m = fcsynth::CostModel::table1_defaults();
/// let s2 = m.success(LogicOp::And, 2);
/// let s16 = m.success(LogicOp::And, 16);
/// assert!(s2 > s16, "reliability degrades with input count");
/// assert!(m.not_success() > 0.9);
/// ```
///
/// The model is resolved once, at construction, into a table indexed
/// by (op, N): every getter below is an array lookup, never a search
/// over the document.
#[derive(Debug, Clone)]
pub struct CostModel {
    data: CostModelData,
    /// NOT statistics (`not` entries interpolated at one input).
    not: Stat,
    /// One resolved curve per [`LogicOp::ALL`] entry, with the dual
    /// fallback already applied.
    logic: [Curve; 4],
}

/// Equality is the document's: the resolved table is a pure function
/// of it.
impl PartialEq for CostModel {
    fn eq(&self, other: &CostModel) -> bool {
        self.data == other.data
    }
}

/// Success, latency and energy of one operation shape.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stat {
    success: f64,
    latency_ns: f64,
    energy_pj: f64,
}

/// Input counts the dense table covers at most; a document with wider
/// points interpolates the (rare) rest from its sorted points.
const DENSE_INPUTS: usize = 64;

/// One operation's statistics over the input count.
#[derive(Debug, Clone)]
struct Curve {
    /// The op's points, stably sorted by input count.
    points: Vec<(usize, Stat)>,
    /// [`interp`] at every N from 0 up to the largest point (at most
    /// [`DENSE_INPUTS`]).
    dense: Vec<Stat>,
}

impl Curve {
    /// The curve of every entry named `op`, or `None` when there is
    /// none.
    fn of(entries: &[GateCost], op: &str) -> Option<Curve> {
        let mut points: Vec<(usize, Stat)> = entries
            .iter()
            .filter(|e| e.op == op)
            .map(|e| {
                let stat = Stat {
                    success: e.success,
                    latency_ns: e.latency_ns,
                    energy_pj: e.energy_pj,
                };
                (e.inputs, stat)
            })
            .collect();
        points.sort_by_key(|(inputs, _)| *inputs);
        let last = points.last()?.0;
        let dense = (0..=last.min(DENSE_INPUTS))
            .map(|n| interp(&points, n))
            .collect();
        Some(Curve { points, dense })
    }

    fn at(&self, n: usize) -> Stat {
        match self.dense.get(n) {
            Some(stat) => *stat,
            None => interp(&self.points, n),
        }
    }
}

/// Linear interpolation over sorted, non-empty `points`, clamped to
/// the end points.
fn interp(points: &[(usize, Stat)], n: usize) -> Stat {
    let (first, last) = (points[0], points[points.len() - 1]);
    if n <= first.0 {
        return first.1;
    }
    if n >= last.0 {
        return last.1;
    }
    for w in points.windows(2) {
        let ((n0, v0), (n1, v1)) = (w[0], w[1]);
        if n0 <= n && n <= n1 {
            if n == n0 {
                return v0;
            }
            let t = (n - n0) as f64 / (n1 - n0) as f64;
            return Stat {
                success: v0.success + t * (v1.success - v0.success),
                latency_ns: v0.latency_ns + t * (v1.latency_ns - v0.latency_ns),
                energy_pj: v0.energy_pj + t * (v1.energy_pj - v0.energy_pj),
            };
        }
    }
    unreachable!("n inside the sorted point range");
}

impl CostModel {
    /// Wraps a raw document.
    ///
    /// # Errors
    ///
    /// Fails when no usable entries are present or a success rate is
    /// outside `[0, 1]`.
    pub fn from_data(data: CostModelData) -> Result<CostModel> {
        if !data.entries.iter().any(|e| e.op != "not") {
            return Err(SynthError::BadCostModel {
                detail: "no logic-operation entries".into(),
            });
        }
        for e in &data.entries {
            if !(0.0..=1.0).contains(&e.success) {
                return Err(SynthError::BadCostModel {
                    detail: format!("{}/{}: success {} out of range", e.op, e.inputs, e.success),
                });
            }
        }
        Ok(CostModel::resolve(data))
    }

    /// Resolves a validated document (at least one logic entry) into
    /// the lookup table. A logic op with no entries of its own takes
    /// its monotone/inverted dual's curve, then any logic data at all.
    fn resolve(data: CostModelData) -> CostModel {
        let not = Curve::of(&data.entries, "not").map_or(
            Stat {
                success: 1.0,
                latency_ns: 0.0,
                energy_pj: 0.0,
            },
            |c| c.at(1),
        );
        let logic = LogicOp::ALL.map(|op| {
            let dual = match op {
                LogicOp::And => LogicOp::Nand,
                LogicOp::Nand => LogicOp::And,
                LogicOp::Or => LogicOp::Nor,
                LogicOp::Nor => LogicOp::Or,
            };
            [op.name(), dual.name(), "and", "or", "nand", "nor"]
                .into_iter()
                .find_map(|name| Curve::of(&data.entries, name))
                .expect("from_data guarantees at least one logic entry")
        });
        CostModel { data, not, logic }
    }

    /// Parses the JSON document `characterize fleet --export-costs`
    /// writes.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or an invalid document.
    pub fn from_json(json: &str) -> Result<CostModel> {
        let data: CostModelData =
            serde_json::from_str(json).map_err(|e| SynthError::BadCostModel {
                detail: e.to_string(),
            })?;
        CostModel::from_data(data)
    }

    /// The underlying document (serializable back to the export
    /// schema).
    pub fn data(&self) -> &CostModelData {
        &self.data
    }

    /// Default model calibrated to the paper's Table-1 population:
    /// per-op success means plus [`simdram::cost`] latency/energy at
    /// `lanes` SIMD lanes (MT/s-2666 timing).
    pub fn table1_defaults_for(lanes: usize) -> CostModel {
        // Success means: NOT from Observation 1 (98.37% across 256
        // chips); AND/OR vs NAND/NOR and the N-scaling from the §6.2
        // characterization (two-input ops ≈99%, 16-input ≥94%, the
        // inverted terminals slightly below their monotone duals).
        let success = |op: LogicOp, n: usize| -> f64 {
            let base = match n {
                2 => 0.989,
                4 => 0.974,
                8 => 0.958,
                _ => 0.945,
            };
            if op.is_inverted_terminal() {
                base - 0.004
            } else {
                base
            }
        };
        let pricer = simdram::CostModel::new(SpeedBin::Mt2666, lanes);
        let priced = |op: NativeOp| {
            pricer.entry_cost(&TraceEntry {
                op,
                executions: 1,
                predicted_success: 1.0,
            })
        };
        let not_cost = priced(NativeOp::Not);
        let mut entries = vec![GateCost {
            op: "not".into(),
            inputs: 1,
            success: 0.9837,
            latency_ns: not_cost.latency_ns,
            energy_pj: not_cost.energy_pj,
            cells: 0,
        }];
        for op in LogicOp::ALL {
            for n in [2usize, 4, 8, 16] {
                let c = priced(NativeOp::Logic(op, n as u8));
                entries.push(GateCost {
                    op: op.name().into(),
                    inputs: n,
                    success: success(op, n),
                    latency_ns: c.latency_ns,
                    energy_pj: c.energy_pj,
                    cells: 0,
                });
            }
        }
        CostModel::resolve(CostModelData {
            source: "built-in Table-1 population defaults".into(),
            lanes,
            entries,
        })
    }

    /// [`CostModel::table1_defaults_for`] at the canonical 8K-column
    /// half-row width (65 536 shared-column lanes).
    pub fn table1_defaults() -> CostModel {
        CostModel::table1_defaults_for(65_536)
    }

    fn logic_stat(&self, op: LogicOp, n: usize) -> Stat {
        let i = match op {
            LogicOp::And => 0,
            LogicOp::Nand => 1,
            LogicOp::Or => 2,
            LogicOp::Nor => 3,
        };
        self.logic[i].at(n)
    }

    /// Mean success rate of an `n`-input `op` gate (interpolated).
    pub fn success(&self, op: LogicOp, n: usize) -> f64 {
        self.logic_stat(op, n).success.clamp(0.0, 1.0)
    }

    /// Latency of one `n`-input `op` execution, nanoseconds.
    pub fn latency_ns(&self, op: LogicOp, n: usize) -> f64 {
        self.logic_stat(op, n).latency_ns
    }

    /// Energy of one `n`-input `op` execution, picojoules.
    pub fn energy_pj(&self, op: LogicOp, n: usize) -> f64 {
        self.logic_stat(op, n).energy_pj
    }

    /// Mean success rate of the NOT operation.
    pub fn not_success(&self) -> f64 {
        self.not.success.clamp(0.0, 1.0)
    }

    /// Latency of one NOT execution, nanoseconds.
    pub fn not_latency_ns(&self) -> f64 {
        self.not.latency_ns
    }

    /// Energy of one NOT execution, picojoules.
    pub fn not_energy_pj(&self) -> f64 {
        self.not.energy_pj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_monotone_in_n() {
        let m = CostModel::table1_defaults();
        for op in LogicOp::ALL {
            let mut prev = 1.0;
            for n in [2usize, 4, 8, 16] {
                let s = m.success(op, n);
                assert!(s < prev, "{op:?}/{n}: {s} not below {prev}");
                prev = s;
            }
            assert!(m.latency_ns(op, 16) > m.latency_ns(op, 2));
            assert!(m.energy_pj(op, 16) > m.energy_pj(op, 2));
        }
        assert!(m.not_success() > 0.98);
        assert!(m.not_latency_ns() > 0.0);
    }

    #[test]
    fn interpolation_bridges_unmeasured_widths() {
        let m = CostModel::table1_defaults();
        let s2 = m.success(LogicOp::And, 2);
        let s3 = m.success(LogicOp::And, 3);
        let s4 = m.success(LogicOp::And, 4);
        assert!(s4 < s3 && s3 < s2, "{s2} {s3} {s4}");
        assert!((s3 - (s2 + s4) / 2.0).abs() < 1e-12, "linear midpoint");
        // Clamped outside the measured range.
        assert_eq!(m.success(LogicOp::And, 32), m.success(LogicOp::And, 16));
    }

    #[test]
    fn json_round_trip() {
        let m = CostModel::table1_defaults_for(128);
        let json = serde_json::to_string_pretty(m.data()).unwrap();
        let back = CostModel::from_json(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn missing_op_falls_back_to_dual() {
        let data = CostModelData {
            source: "test".into(),
            lanes: 64,
            entries: vec![GateCost {
                op: "and".into(),
                inputs: 2,
                success: 0.9,
                latency_ns: 10.0,
                energy_pj: 5.0,
                cells: 100,
            }],
        };
        let m = CostModel::from_data(data).unwrap();
        assert_eq!(m.success(LogicOp::Nand, 2), 0.9);
        assert_eq!(m.success(LogicOp::Nor, 4), 0.9);
        assert_eq!(m.not_success(), 1.0, "no NOT data: assumed exact");
    }

    #[test]
    fn invalid_documents_rejected() {
        assert!(CostModel::from_json("not json").is_err());
        let no_logic = CostModelData {
            source: "x".into(),
            lanes: 1,
            entries: vec![GateCost {
                op: "not".into(),
                inputs: 1,
                success: 0.9,
                latency_ns: 1.0,
                energy_pj: 1.0,
                cells: 0,
            }],
        };
        assert!(CostModel::from_data(no_logic).is_err());
        let bad_success = CostModelData {
            source: "x".into(),
            lanes: 1,
            entries: vec![GateCost {
                op: "and".into(),
                inputs: 2,
                success: 1.5,
                latency_ns: 1.0,
                energy_pj: 1.0,
                cells: 0,
            }],
        };
        assert!(CostModel::from_data(bad_success).is_err());
    }
}
