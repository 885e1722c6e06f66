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
use std::ops::Range;
use std::sync::Arc;

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
    /// Everything resolved from the document but the logic success
    /// rates: shared, unchanged, by every [`CostModel::derated`] model.
    table: Arc<Table>,
    /// The success rate of each of the table's points.
    success: Box<[f64]>,
    /// Every curve's dense success table, laid out as the table's dense
    /// prices.
    dense_success: Box<[f64]>,
}

/// Equality is the document's plus the resolved success rates: the
/// rest of the table is a pure function of the document, and a derated
/// model shares its base's.
impl PartialEq for CostModel {
    fn eq(&self, other: &CostModel) -> bool {
        self.table.data == other.table.data
            && std::iter::zip(&*self.success, &*other.success)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Latency and energy of one operation shape.
#[derive(Debug, Clone, Copy)]
struct Price {
    latency_ns: f64,
    energy_pj: f64,
}

/// The resolved document: every logic curve's points and dense table,
/// curve after curve, success rates left to each [`CostModel`].
#[derive(Debug)]
struct Table {
    data: CostModelData,
    /// NOT success and price (`not` entries interpolated at one
    /// input).
    not: (f64, Price),
    /// Each point's input count, every curve stably sorted by it.
    inputs: Box<[usize]>,
    /// Each point's price.
    prices: Box<[Price]>,
    /// Every curve's dense price table.
    dense: Box<[Price]>,
    /// One curve per [`LogicOp::ALL`] entry, with the dual fallback
    /// already applied.
    logic: [Curve; 4],
}

/// Input counts the dense table covers at most; a document with wider
/// points interpolates the (rare) rest from its sorted points.
const DENSE_INPUTS: usize = 64;

/// One operation's statistics over the input count, as ranges of the
/// model's per-point and dense tables.
#[derive(Debug)]
struct Curve {
    /// The op's points.
    points: Range<usize>,
    /// Its dense table: [`interp`] at every N from 0 up to the largest
    /// point (at most [`DENSE_INPUTS`]).
    dense: Range<usize>,
}

/// Linear interpolation at `n` over the `values` of points with the
/// sorted, non-empty input counts `inputs`, clamped to the end points.
fn interp<T: Copy>(inputs: &[usize], values: &[T], lerp: fn(T, T, f64) -> T, n: usize) -> T {
    let last = inputs.len() - 1;
    if n <= inputs[0] {
        return values[0];
    }
    if n >= inputs[last] {
        return values[last];
    }
    for i in 0..last {
        let (n0, n1) = (inputs[i], inputs[i + 1]);
        if n0 <= n && n <= n1 {
            if n == n0 {
                return values[i];
            }
            let t = (n - n0) as f64 / (n1 - n0) as f64;
            return lerp(values[i], values[i + 1], t);
        }
    }
    unreachable!("n inside the sorted point range");
}

fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + t * (b - a)
}

fn lerp_price(a: Price, b: Price, t: f64) -> Price {
    Price {
        latency_ns: lerp(a.latency_ns, b.latency_ns, t),
        energy_pj: lerp(a.energy_pj, b.energy_pj, t),
    }
}

/// The dense table of per-point `values` (laid out as `inputs`): each
/// curve's [`interp`] at every N of its dense range, curve after curve.
fn tabulate<T: Copy>(
    inputs: &[usize],
    logic: &[Curve; 4],
    values: &[T],
    lerp: fn(T, T, f64) -> T,
) -> Box<[T]> {
    let mut dense = Vec::with_capacity(logic.iter().map(|c| c.dense.len()).sum());
    for curve in logic {
        let (inputs, values) = (&inputs[curve.points.clone()], &values[curve.points.clone()]);
        dense.extend((0..curve.dense.len()).map(|n| interp(inputs, values, lerp, n)));
    }
    dense.into_boxed_slice()
}

/// Every entry named `op`, stably sorted by input count.
fn entries_of<'a>(entries: &'a [GateCost], op: &str) -> Vec<&'a GateCost> {
    let mut points: Vec<&GateCost> = entries.iter().filter(|e| e.op == op).collect();
    points.sort_by_key(|e| e.inputs);
    points
}

/// Input counts, success rates and prices of some points.
type Columns = (Box<[usize]>, Box<[f64]>, Box<[Price]>);

/// The columns of `points`.
fn columns(points: &[&GateCost]) -> Columns {
    let price = |e: &&GateCost| Price {
        latency_ns: e.latency_ns,
        energy_pj: e.energy_pj,
    };
    (
        points.iter().map(|e| e.inputs).collect(),
        points.iter().map(|e| e.success).collect(),
        points.iter().map(price).collect(),
    )
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
        let not = match columns(&entries_of(&data.entries, "not")) {
            (inputs, ..) if inputs.is_empty() => {
                let free = Price {
                    latency_ns: 0.0,
                    energy_pj: 0.0,
                };
                (1.0, free)
            }
            (inputs, success, prices) => (
                interp(&inputs, &success, lerp, 1),
                interp(&inputs, &prices, lerp_price, 1),
            ),
        };
        let mut points: Vec<&GateCost> = Vec::new();
        let mut dense_len = 0;
        let logic = LogicOp::ALL.map(|op| {
            let dual = match op {
                LogicOp::And => LogicOp::Nand,
                LogicOp::Nand => LogicOp::And,
                LogicOp::Or => LogicOp::Nor,
                LogicOp::Nor => LogicOp::Or,
            };
            let own = [op.name(), dual.name(), "and", "or", "nand", "nor"]
                .into_iter()
                .map(|name| entries_of(&data.entries, name))
                .find(|p| !p.is_empty())
                .expect("from_data guarantees at least one logic entry");
            let start = points.len();
            points.extend(own);
            let width = points[points.len() - 1].inputs.min(DENSE_INPUTS) + 1;
            dense_len += width;
            Curve {
                points: start..points.len(),
                dense: dense_len - width..dense_len,
            }
        });
        let (inputs, success, prices) = columns(&points);
        let table = Table {
            not,
            dense: tabulate(&inputs, &logic, &prices, lerp_price),
            inputs,
            prices,
            logic,
            data,
        };
        CostModel {
            dense_success: tabulate(&table.inputs, &table.logic, &success, lerp),
            success,
            table: Arc::new(table),
        }
    }

    /// This model derated: each resolved logic point with more than
    /// one input has its success rate raised to the power
    /// `exponent(inputs)`, and the dense success table is rebuilt from
    /// the derated points by the same interpolation. That is exactly
    /// the table [`CostModel::from_data`] resolves from the document
    /// with those entries derated, so every getter returns its bits;
    /// NOT, latency and energy are unchanged. A non-negative exponent
    /// keeps every rate in `[0, 1]`.
    ///
    /// The derated model shares this model's document and prices
    /// instead of copying them: its [`data`](CostModel::data) is the
    /// base's document, not a derated one.
    #[must_use]
    pub fn derated(&self, exponent: impl Fn(usize) -> f64) -> CostModel {
        let t = &self.table;
        let success: Box<[f64]> = std::iter::zip(&*t.inputs, &*self.success)
            .map(|(&inputs, &s)| {
                if inputs > 1 {
                    s.powf(exponent(inputs))
                } else {
                    s
                }
            })
            .collect();
        CostModel {
            dense_success: tabulate(&t.inputs, &t.logic, &success, lerp),
            success,
            table: Arc::clone(t),
        }
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
    /// schema). A [`derated`](CostModel::derated) model shares its
    /// base's document, so this is the base's, underated.
    pub fn data(&self) -> &CostModelData {
        &self.table.data
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

    fn curve(&self, op: LogicOp) -> &Curve {
        let i = match op {
            LogicOp::And => 0,
            LogicOp::Nand => 1,
            LogicOp::Or => 2,
            LogicOp::Nor => 3,
        };
        &self.table.logic[i]
    }

    /// `op`'s curve at `n` over per-point `values` and their `dense`
    /// table.
    fn lookup<T: Copy>(
        &self,
        op: LogicOp,
        n: usize,
        values: &[T],
        dense: &[T],
        lerp: fn(T, T, f64) -> T,
    ) -> T {
        let curve = self.curve(op);
        match dense[curve.dense.clone()].get(n) {
            Some(v) => *v,
            None => {
                let points = curve.points.clone();
                interp(&self.table.inputs[points.clone()], &values[points], lerp, n)
            }
        }
    }

    fn price(&self, op: LogicOp, n: usize) -> Price {
        let t = &*self.table;
        self.lookup(op, n, &t.prices, &t.dense, lerp_price)
    }

    /// Mean success rate of an `n`-input `op` gate (interpolated).
    pub fn success(&self, op: LogicOp, n: usize) -> f64 {
        let success = self.lookup(op, n, &self.success, &self.dense_success, lerp);
        success.clamp(0.0, 1.0)
    }

    /// Latency of one `n`-input `op` execution, nanoseconds.
    pub fn latency_ns(&self, op: LogicOp, n: usize) -> f64 {
        self.price(op, n).latency_ns
    }

    /// Energy of one `n`-input `op` execution, picojoules.
    pub fn energy_pj(&self, op: LogicOp, n: usize) -> f64 {
        self.price(op, n).energy_pj
    }

    /// Mean success rate of the NOT operation.
    pub fn not_success(&self) -> f64 {
        self.table.not.0.clamp(0.0, 1.0)
    }

    /// Latency of one NOT execution, nanoseconds.
    pub fn not_latency_ns(&self) -> f64 {
        self.table.not.1.latency_ns
    }

    /// Energy of one NOT execution, picojoules.
    pub fn not_energy_pj(&self) -> f64 {
        self.table.not.1.energy_pj
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
