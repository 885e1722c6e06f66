//! Bulk bitwise engine: a user-facing vector API over the in-DRAM
//! operations.
//!
//! Vectors live on the *shared column half* of rows in the compute
//! subarray of a discovered pair, so every operation is a genuine
//! in-DRAM bulk operation over `cols/2` bits. An optional repetition
//! mode majority-votes k executions per operation, trading bandwidth
//! for reliability (the paper's future-work direction).

use crate::error::{FcdramError, Result};
use crate::mapping::{ActivationMap, InSubarrayEntry, PatternEntry};
use crate::ops::Fcdram;
use crate::packed::PackedBits;
use dram_core::{
    result_role, BankId, Bit, CellRole, CsTerminal, GlobalRow, LocalRow, LogicOp, MultiActivation,
    SubarrayId,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Handle to an allocated in-DRAM bit vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitVecHandle {
    row: GlobalRow,
    len: usize,
}

impl BitVecHandle {
    /// Number of usable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Statistics of one executed bulk operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpStats {
    /// Number of in-DRAM executions performed (>1 under repetition).
    pub executions: usize,
    /// Fraction of result bits that matched the ideal result.
    pub accuracy: f64,
    /// Mean per-cell success probability the model assigned.
    pub predicted_success: f64,
}

/// One device gate as [`BulkEngine::run_gate`] dispatches it, over
/// its full-width staged rows (built once, shared by every repeated
/// execution).
#[derive(Clone, Copy)]
enum Gate<'a> {
    /// NOT of the staged source row.
    Not(&'a Arc<[Bit]>),
    /// N-input logic over the staged operand rows.
    Logic(LogicOp, &'a [Arc<[Bit]>]),
    /// In-subarray majority over the staged rows.
    Maj(&'a [Arc<[Bit]>]),
}

/// The bulk bitwise engine.
///
/// Each gate (`not`, `logic`, `maj3`, `copy`) has one method. It takes
/// the operand values from the caller, who owns them (no gate reads an
/// operand row back), ships as one command program through the
/// [`Fcdram`] gate call, reads back the first result row's lanes
/// ([`Fcdram::read_lanes`]), stores the result in its output vector
/// before it returns and returns those bits with its statistics.
/// The statistics come from the gate's [`dram_core::OpOutcome`]: where
/// the row plan allows, a logic gate resolves only its first result
/// row (a `*FirstRow` [`CsTerminal`] scope), so the outcome records
/// that row alone while its `mean_success` covers the whole terminal.
#[derive(Debug)]
pub struct BulkEngine {
    fc: Fcdram,
    bank: BankId,
    map: ActivationMap,
    /// Bits per vector: the shared column half of a row.
    lanes: usize,
    shared_start: usize,
    free_rows: Vec<GlobalRow>,
    repetition: usize,
    /// The NOT destination pattern (the first `1`-destination entry,
    /// else the first `2`-destination one), resolved at construction.
    not_entry: Option<PatternEntry>,
    /// The first `N:N` entry of each N ∈ {2, 4, 8, 16} the map offers,
    /// narrowest first, resolved at construction.
    nn_entries: Vec<PatternEntry>,
    maj_entry: Option<InSubarrayEntry>,
    /// Whether masked charge shares are provably safe on this map: the
    /// NOT entries' raised rows (whose *old* cell content feeds the
    /// copy/NOT kernel on sample failure) must be disjoint from every
    /// logic entry's raised rows (which a masked charge share may
    /// leave unresolved). Computed once at construction.
    mask_safe: bool,
}

impl BulkEngine {
    /// Builds an engine on `bank` of the chip, discovering the
    /// activation map of subarray pair `(pair_upper, pair_upper+1)`.
    ///
    /// Only the rows of the pattern entries the engine actually
    /// executes through (the first discovered entry of each needed
    /// shape: the NOT destination pattern and the `N:N` entries for
    /// N ∈ {2, 4, 8, 16}) are reserved as operation scratch; the rest
    /// of the compute subarray is the allocation pool.
    pub fn new(fc: Fcdram, bank: BankId, pair_upper: SubarrayId) -> Result<Self> {
        BulkEngine::with_budget(fc, bank, pair_upper, 16_384)
    }

    /// As [`BulkEngine::new`] with an explicit discovery scan budget
    /// (`(R_F, R_L)` address pairs probed while mapping the subarray
    /// pair). Smaller budgets build faster but may miss the larger
    /// activation shapes.
    ///
    /// # Errors
    ///
    /// Fails when discovery finds no usable activation pattern on
    /// this part (e.g., Micron behaviour).
    pub fn with_budget(
        mut fc: Fcdram,
        bank: BankId,
        pair_upper: SubarrayId,
        scan_budget: usize,
    ) -> Result<Self> {
        let pair = (pair_upper, SubarrayId(pair_upper.index() + 1));
        let map = fc.discover(bank, pair, scan_budget)?;
        let geom = fc.config().geometry();
        let lanes = (0..geom.cols())
            .filter(|c| dram_core::is_shared_col(pair.0, dram_core::Col(*c)))
            .count();
        // The first entry of each small NOT destination shape; NOTs run
        // through the first of them.
        let not_shapes: Vec<&PatternEntry> = [1usize, 2]
            .into_iter()
            .filter_map(|n_dst| map.find_dst(n_dst).first().copied())
            .collect();
        let not_entry = not_shapes.first().map(|e| (*e).clone());
        let nn_entries: Vec<PatternEntry> = [2usize, 4, 8, 16]
            .into_iter()
            .filter_map(|n| map.find_nn(n).cloned())
            .collect();
        let com_sub = pair.1;
        // Ambit-style in-subarray majority: keep one four-row
        // activation set in the compute subarray when the part has one
        // (SK Hynix behaviour), reserving its rows as scratch.
        let chip = fc.chip();
        let maj_entry = crate::mapping::discover_in_subarray(
            fc.bender_mut(),
            chip,
            bank,
            com_sub,
            scan_budget.min(4_096),
            2,
        )
        .ok()
        .and_then(|sets| sets.get(&4).and_then(|v| v.first().cloned()));
        // Reserve the compute-subarray rows of those entries.
        let mut reserved: BTreeSet<LocalRow> = BTreeSet::new();
        for e in not_shapes.iter().copied().chain(&nn_entries) {
            reserved.extend(e.second_rows.iter().copied());
        }
        if let Some(e) = &maj_entry {
            reserved.extend(e.rows.iter().copied());
        }
        let free_rows: Vec<GlobalRow> = (0..geom.rows_per_subarray())
            .filter(|r| !reserved.contains(&LocalRow(*r)))
            .map(|r| geom.join_row(com_sub, LocalRow(r)).expect("in range"))
            .collect();
        // Masked charge shares skip resolving rows the caller promises
        // to rewrite before their next read. The one consumer of *old*
        // row content is the copy/NOT kernel (failed samples retain the
        // previous bit), so masking is safe iff the NOT entries' raised
        // rows never coincide with a logic entry's raised rows.
        let raised = |entries: &mut dyn Iterator<Item = &PatternEntry>| -> Result<_> {
            let mut rows: BTreeSet<(usize, usize)> = BTreeSet::new();
            for e in entries {
                let (sf, _) = geom.split_row(e.rf)?;
                let (sl, _) = geom.split_row(e.rl)?;
                rows.extend(e.first_rows.iter().map(|r| (sf.index(), r.index())));
                rows.extend(e.second_rows.iter().map(|r| (sl.index(), r.index())));
            }
            Ok(rows)
        };
        let mask_safe =
            raised(&mut not_shapes.iter().copied())?.is_disjoint(&raised(&mut nn_entries.iter())?);
        Ok(BulkEngine {
            fc,
            bank,
            map,
            lanes,
            shared_start: (pair.0.index() + 1) % 2,
            free_rows,
            repetition: 1,
            not_entry,
            nn_entries,
            maj_entry,
            mask_safe,
        })
    }

    /// The current simulation configuration of the chip under the
    /// engine.
    pub fn sim_config(&self) -> dram_core::SimConfig {
        self.fc.sim_config()
    }

    /// Applies a [`dram_core::SimConfig`] (the temperature) to the chip
    /// under the engine; operations degrade slightly when hot (the
    /// paper's Figs. 10 and 19).
    pub fn configure(&mut self, cfg: dram_core::SimConfig) {
        self.fc.configure(cfg);
    }

    /// Builder form of [`BulkEngine::configure`] for construction
    /// chains.
    #[must_use]
    pub fn with_sim_config(mut self, cfg: dram_core::SimConfig) -> Self {
        self.configure(cfg);
        self
    }

    /// Whether this part offers Ambit-style in-subarray majority (a
    /// four-row simultaneous activation set was discovered in the
    /// compute subarray).
    pub fn has_native_maj(&self) -> bool {
        self.maj_entry.is_some()
    }

    /// Bits per vector (the shared column half of a row).
    pub fn capacity_bits(&self) -> usize {
        self.lanes
    }

    /// The discovered activation map (for inspection).
    pub fn map(&self) -> &ActivationMap {
        &self.map
    }

    /// The widest gate this engine runs as one native operation: the
    /// largest `N` in 16, 8, 4, 2 with a discovered `N:N` activation
    /// pattern. A part with no `N:N` pattern (the Samsung rows of
    /// Table 1) reports 2; its logic steps then fail with a typed
    /// [`FcdramError::BadInputCount`] from [`BulkEngine::logic_entry`].
    pub fn max_fan_in(&self) -> usize {
        self.nn_entries.last().map_or(2, |e| e.shape().1)
    }

    /// The NOT destination pattern every NOT runs through.
    ///
    /// # Errors
    ///
    /// Returns [`FcdramError::NoPattern`] when the map has no
    /// one- or two-destination pattern.
    pub fn not_entry(&self) -> Result<&PatternEntry> {
        self.not_entry
            .as_ref()
            .ok_or(FcdramError::NoPattern { n_rf: 1, n_rl: 1 })
    }

    /// The `N:N` pattern an `inputs`-input gate runs through: the
    /// narrowest discovered one with `N ≥ inputs` (unused rows are
    /// identity-padded).
    ///
    /// # Errors
    ///
    /// Returns [`FcdramError::BadInputCount`] for fewer than two
    /// inputs or more than the widest discovered pattern.
    pub fn logic_entry(&self, inputs: usize) -> Result<&PatternEntry> {
        let bad = FcdramError::BadInputCount {
            n: inputs,
            max: self.fc.config().max_op_inputs(),
        };
        if inputs < 2 {
            return Err(bad);
        }
        covering(&self.nn_entries, inputs).ok_or(bad)
    }

    /// The wrapped library facade (command interface included), for
    /// callers that drive the same chip through explicit command
    /// programs — e.g. a command-schedule execution backend that must
    /// stay bit-identical to this engine's operation sequences.
    pub fn fcdram(&self) -> &Fcdram {
        &self.fc
    }

    /// Enables k-fold repetition with majority voting (k odd).
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or zero.
    pub fn set_repetition(&mut self, k: usize) {
        assert!(k >= 1 && k % 2 == 1, "repetition must be odd and >= 1");
        self.repetition = k;
    }

    /// Allocates a vector.
    ///
    /// # Errors
    ///
    /// Returns [`FcdramError::OutOfRows`] when the pool is exhausted.
    pub fn alloc(&mut self) -> Result<BitVecHandle> {
        let row = self.free_rows.pop().ok_or(FcdramError::OutOfRows)?;
        Ok(BitVecHandle {
            row,
            len: self.lanes,
        })
    }

    /// Frees a vector, returning its row to the pool.
    pub fn free(&mut self, v: BitVecHandle) {
        self.free_rows.push(v.row);
    }

    /// Writes host bits into a vector.
    pub fn write(&mut self, v: &BitVecHandle, bits: &[bool]) -> Result<()> {
        self.write_packed(v, &PackedBits::from_bools(bits))
    }

    /// Writes a packed vector (64 lanes per word, no per-bit `Vec`).
    pub fn write_packed(&mut self, v: &BitVecHandle, bits: &PackedBits) -> Result<()> {
        self.check_width(bits)?;
        let row = self.expand_packed(bits);
        self.fc.write_row(self.bank, v.row, row)
    }

    /// Reads a vector back to host bits.
    pub fn read(&mut self, v: &BitVecHandle) -> Result<Vec<bool>> {
        Ok(self.read_packed(v)?.to_bools())
    }

    /// Reads a vector back packed: the device thresholds only the
    /// shared column half directly into `u64` words.
    pub fn read_packed(&mut self, v: &BitVecHandle) -> Result<PackedBits> {
        self.fc
            .read_lanes(self.bank, v.row, self.shared_start, self.lanes)
    }

    /// In-DRAM NOT: `out ← ¬a`, staging the operand value `a` and
    /// returning the statistics and the stored bits.
    ///
    /// # Errors
    ///
    /// Returns [`FcdramError::WidthMismatch`] for an operand that is
    /// not [`Self::capacity_bits`] wide and [`FcdramError::NoPattern`]
    /// when the map has no NOT pattern, both before any device access,
    /// and propagates device errors.
    pub fn not(&mut self, a: &PackedBits, out: &BitVecHandle) -> Result<(OpStats, PackedBits)> {
        self.check_width(a)?;
        self.not_entry()?;
        let mut ideal = a.clone();
        ideal.not_in_place();
        let src = self.expand_packed(a);
        self.run_gate(Gate::Not(&src), &ideal, out)
    }

    /// In-DRAM N-input logic: `out ← op(inputs...)` over the operand
    /// values `inputs`, returning the statistics and the stored bits.
    /// Uses the smallest discovered `N:N` pattern with `N ≥
    /// inputs.len()`, identity-padding unused rows; the charge share is
    /// masked to the row read back when the activation map makes that
    /// safe (no NOT entry raises a row a logic entry raises).
    ///
    /// # Errors
    ///
    /// Returns [`FcdramError::BadInputCount`] for an input count
    /// [`BulkEngine::logic_entry`] rejects and
    /// [`FcdramError::WidthMismatch`] for an operand of the wrong
    /// width, both before any device access.
    pub fn logic(
        &mut self,
        op: LogicOp,
        inputs: &[&PackedBits],
        out: &BitVecHandle,
    ) -> Result<(OpStats, PackedBits)> {
        self.logic_entry(inputs.len())?;
        inputs.iter().try_for_each(|v| self.check_width(v))?;
        let ideal = ideal_logic(op, inputs, self.lanes);
        let rows: Vec<Arc<[Bit]>> = inputs.iter().map(|v| self.expand_packed(v)).collect();
        self.run_gate(Gate::Logic(op, &rows), &ideal, out)
    }

    /// In-DRAM three-input majority via Ambit-style simultaneous
    /// four-row activation in the compute subarray:
    /// `MAJ4(a, b, c, 1) = MAJ3(a, b, c)` (the all-1 fourth row turns
    /// the ≥3-of-4 threshold into ≥2-of-3). Stages the operand values
    /// and returns the statistics and the stored bits.
    ///
    /// This is the baseline operation lineage the paper builds on
    /// (§2.2, §8.1); it computes the carry of a full adder in a single
    /// command sequence where the functionally-complete gate set needs
    /// four.
    ///
    /// # Errors
    ///
    /// Returns [`FcdramError::OpFailed`] when the part has no four-row
    /// in-subarray activation set (check [`BulkEngine::has_native_maj`])
    /// and [`FcdramError::WidthMismatch`] for an operand of the wrong
    /// width.
    pub fn maj3(
        &mut self,
        a: &PackedBits,
        b: &PackedBits,
        c: &PackedBits,
        out: &BitVecHandle,
    ) -> Result<(OpStats, PackedBits)> {
        if self.maj_entry.is_none() {
            return Err(FcdramError::OpFailed {
                detail: "no four-row in-subarray activation set discovered".to_string(),
            });
        }
        [a, b, c].iter().try_for_each(|v| self.check_width(v))?;
        // MAJ3 = (a∧b) ∨ (a∧c) ∨ (b∧c), word-wise.
        let and = |x: &PackedBits, y| ideal_logic(LogicOp::And, &[x, y], a.len());
        let terms = [and(a, b), and(a, c), and(b, c)];
        let ideal = ideal_logic(LogicOp::Or, &[&terms[0], &terms[1], &terms[2]], a.len());
        let cols = self.fc.config().modeled_cols;
        let inputs = [
            self.expand_packed(a),
            self.expand_packed(b),
            self.expand_packed(c),
            std::iter::repeat_n(Bit::One, cols).collect(),
        ];
        self.run_gate(Gate::Maj(&inputs), &ideal, out)
    }

    /// In-DRAM copy (`out ← a`) via in-subarray RowClone, returning the
    /// statistics and the stored bits. `val` is the value `a` holds: a
    /// pair that does not clone takes a host write of it, and a clone
    /// is scored against it.
    ///
    /// Both vectors live in the compute subarray, so the copy is a
    /// sub-`tRP` `ACT → PRE → ACT` pair that never moves data over the
    /// channel. Pairs that would not raise exactly these two rows
    /// (checked on the chip's row decoder) never issue it; they take
    /// the host write, reported with `executions: 0`.
    ///
    /// # Errors
    ///
    /// Returns [`FcdramError::WidthMismatch`] for a value of the wrong
    /// width and propagates device addressing errors.
    pub fn copy(
        &mut self,
        a: &BitVecHandle,
        val: &PackedBits,
        out: &BitVecHandle,
    ) -> Result<(OpStats, PackedBits)> {
        self.check_width(val)?;
        if !self.clones(a, out) {
            self.write_packed(out, val)?;
            let stats = OpStats {
                executions: 0,
                accuracy: 1.0,
                predicted_success: 1.0,
            };
            return Ok((stats, val.clone()));
        }
        let outcome = self.fc.rowclone(self.bank, a.row, out.row)?;
        let got = self.read_packed(out)?;
        let predicted = outcome.mean_success(dram_core::CellRole::CloneDst);
        let stats = OpStats {
            executions: 1,
            accuracy: got.accuracy_against(val),
            predicted_success: predicted.unwrap_or(1.0),
        };
        Ok((stats, got))
    }

    /// Whether RowClone from `src` to `dst` raises exactly those two
    /// rows on this chip's decoder. A same-subarray `ACT → PRE → ACT`
    /// may raise more rows (merged predecode groups, as SiMRA shows on
    /// real parts) and copy the source into all of them, so every
    /// other pair takes the host-write fallback.
    fn clones(&self, src: &BitVecHandle, dst: &BitVecHandle) -> bool {
        let geom = self.fc.config().geometry();
        let (Ok((_, s)), Ok((_, d)), Some(chip)) = (
            geom.split_row(src.row),
            geom.split_row(dst.row),
            self.fc.bender().module().chip(self.fc.chip()),
        ) else {
            return false;
        };
        matches!(
            chip.decoder().activation(&geom, src.row, dst.row),
            MultiActivation::SameSubarray { rows }
                if rows.len() == 2 && rows.contains(&s) && rows.contains(&d)
        )
    }

    /// Fills a vector with a constant bit (a host row write).
    ///
    /// # Errors
    ///
    /// Propagates device addressing errors.
    pub fn fill(&mut self, v: &BitVecHandle, value: bool) -> Result<()> {
        self.write_packed(v, &PackedBits::splat(value, v.len))
    }

    /// The module configuration of the underlying chip.
    pub fn config(&self) -> &dram_core::ModuleConfig {
        self.fc.config()
    }

    /// Checks that `bits` is one vector wide.
    fn check_width(&self, bits: &PackedBits) -> Result<()> {
        let expected = self.lanes;
        if bits.len() != expected {
            return Err(FcdramError::WidthMismatch {
                expected,
                got: bits.len(),
            });
        }
        Ok(())
    }

    /// Expands shared-column lanes into a full-width row (zeros on the
    /// off half). The shared columns are exactly every other column
    /// starting at `shared_start`, so this is a strided expansion.
    fn expand_packed(&self, bits: &PackedBits) -> Arc<[Bit]> {
        bits.expand_strided(self.fc.config().modeled_cols, self.shared_start)
    }

    /// Runs `gate` `repetition` times through its [`Fcdram`] gate call,
    /// reads each run's first result row back as lanes, majority-votes
    /// them and stores the vote in `out` with a plain row write.
    fn run_gate(
        &mut self,
        gate: Gate<'_>,
        ideal: &PackedBits,
        out: &BitVecHandle,
    ) -> Result<(OpStats, PackedBits)> {
        let k = self.repetition;
        let mut votes = vec![0u32; if k > 1 { self.lanes } else { 0 }];
        let mut predicted = 0.0;
        let mut result = None;
        for _ in 0..k {
            let ((layout, outcome), role) = match gate {
                Gate::Not(src) => {
                    let entry = self.not_entry.as_ref().expect("checked by not");
                    let shipped = self.fc.not_outcome(self.bank, entry, src.clone(), None)?;
                    (shipped, CellRole::NotDst)
                }
                Gate::Logic(op, rows) => {
                    let entry =
                        covering(&self.nn_entries, rows.len()).expect("checked by logic_entry");
                    let mask = self.mask_safe.then(|| CsTerminal::first_row_of(op));
                    let shipped = self.fc.logic_outcome(self.bank, entry, op, rows, mask)?;
                    (shipped, result_role(op))
                }
                Gate::Maj(rows) => {
                    let entry = self.maj_entry.as_ref().expect("checked by maj3");
                    let shipped = self.fc.maj_outcome(self.bank, entry, rows)?;
                    (shipped, CellRole::OffMaj)
                }
            };
            let bits = self.fc.read_lanes(
                self.bank,
                layout.result_rows[0],
                self.shared_start,
                self.lanes,
            )?;
            predicted += outcome.mean_success(role).unwrap_or(0.0);
            if k > 1 {
                tally(&mut votes, &bits);
            }
            result = Some(bits);
        }
        let result = if k > 1 {
            majority(&votes, k)
        } else {
            result.expect("at least one execution")
        };
        let stats = OpStats {
            executions: k,
            accuracy: result.accuracy_against(ideal),
            predicted_success: predicted / k as f64,
        };
        let full = self.expand_packed(&result);
        self.fc.write_row(self.bank, out.row, full)?;
        Ok((stats, result))
    }
}

/// The ideal result of `op` over packed inputs.
fn ideal_logic(op: LogicOp, inputs: &[&PackedBits], lanes: usize) -> PackedBits {
    let mut out = PackedBits::splat(op.is_and_family(), lanes);
    for input in inputs {
        if op.is_and_family() {
            out.and_assign(input);
        } else {
            out.or_assign(input);
        }
    }
    if op.is_inverted_terminal() {
        out.not_in_place();
    }
    out
}

/// The narrowest of `entries` (narrowest first) with at least
/// `inputs` rows per side.
fn covering(entries: &[PatternEntry], inputs: usize) -> Option<&PatternEntry> {
    entries.iter().find(|e| e.shape().1 >= inputs)
}

/// Adds one packed execution's set lanes into per-lane vote counters.
fn tally(votes: &mut [u32], result: &PackedBits) {
    for (i, v) in votes.iter_mut().enumerate() {
        *v += u32::from(result.get(i));
    }
}

/// Majority-of-`k` over per-lane vote counters.
fn majority(votes: &[u32], k: usize) -> PackedBits {
    let mut out = PackedBits::zeros(votes.len());
    for (i, v) in votes.iter().enumerate() {
        if 2 * (*v as usize) > k {
            out.set(i, true);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::config::table1;

    fn engine() -> BulkEngine {
        let cfg = table1().into_iter().next().unwrap().with_modeled_cols(64);
        BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0)).unwrap()
    }

    fn bits(seed: u64, n: usize) -> Vec<bool> {
        (0..n)
            .map(|c| dram_core::math::hash_to_unit(dram_core::math::mix2(seed, c as u64)) < 0.5)
            .collect()
    }

    fn packed(seed: u64) -> PackedBits {
        PackedBits::from_bools(&bits(seed, 32))
    }

    /// Allocates a vector holding `value`.
    fn vector(e: &mut BulkEngine, value: &PackedBits) -> BitVecHandle {
        let v = e.alloc().unwrap();
        e.write_packed(&v, value).unwrap();
        v
    }

    #[test]
    fn alloc_write_read_round_trip() {
        let mut e = engine();
        assert_eq!(e.capacity_bits(), 32);
        let v = e.alloc().unwrap();
        let data = bits(1, 32);
        e.write(&v, &data).unwrap();
        assert_eq!(e.read(&v).unwrap(), data);
    }

    #[test]
    fn alloc_exhaustion_and_free() {
        let mut e = engine();
        let mut handles = Vec::new();
        loop {
            match e.alloc() {
                Ok(h) => handles.push(h),
                Err(FcdramError::OutOfRows) => break,
                Err(other) => panic!("{other}"),
            }
        }
        assert!(!handles.is_empty());
        let h = handles.pop().unwrap();
        e.free(h);
        assert!(e.alloc().is_ok());
    }

    #[test]
    fn bulk_not_inverts_mostly() {
        let mut e = engine();
        let out = e.alloc().unwrap();
        let data = packed(2);
        let (stats, stored) = e.not(&data, &out).unwrap();
        assert!(stats.accuracy > 0.9, "accuracy {}", stats.accuracy);
        assert_eq!(e.read_packed(&out).unwrap(), stored);
        let mut expect = data.clone();
        expect.not_in_place();
        let accuracy = stored.accuracy_against(&expect);
        assert!(accuracy >= 29.0 / 32.0, "{accuracy}");
    }

    #[test]
    fn bulk_and_or() {
        let mut e = engine();
        let (da, db) = (packed(3), packed(4));
        let a = vector(&mut e, &da);
        let out = e.alloc().unwrap();
        let s_and = e.logic(LogicOp::And, &[&da, &db], &out).unwrap().0;
        assert!(s_and.accuracy > 0.6, "AND accuracy {}", s_and.accuracy);
        // Operand rows are never touched (values are staged).
        assert_eq!(e.read_packed(&a).unwrap(), da);
        let s_or = e.logic(LogicOp::Or, &[&da, &db], &out).unwrap().0;
        assert!(s_or.accuracy > 0.7, "OR accuracy {}", s_or.accuracy);
    }

    #[test]
    fn repetition_improves_accuracy() {
        let mut e = engine();
        let out = e.alloc().unwrap();
        let (da, db) = (packed(5), packed(6));
        let single = e.logic(LogicOp::And, &[&da, &db], &out).unwrap().0;
        e.set_repetition(9);
        let voted = e.logic(LogicOp::And, &[&da, &db], &out).unwrap().0;
        assert_eq!(voted.executions, 9);
        assert!(
            voted.accuracy >= single.accuracy - 0.05,
            "voted {} vs single {}",
            voted.accuracy,
            single.accuracy
        );
    }

    /// The 8Gb M-die part tops out at 8 inputs, so a hard-coded 16
    /// would show.
    #[test]
    fn too_few_inputs_report_the_part_fan_in() {
        let cfg = table1()
            .into_iter()
            .find(|m| m.name == "hynix-8Gb-M-2666-#0")
            .unwrap()
            .with_modeled_cols(64);
        let mut e = BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0)).unwrap();
        let max = e.config().max_op_inputs();
        assert_eq!(max, 8);
        let out = e.alloc().unwrap();
        let val = packed(1);
        let err = e.logic(LogicOp::Or, &[&val], &out).unwrap_err();
        assert!(
            matches!(err, FcdramError::BadInputCount { n: 1, max: m } if m == max),
            "{err:?}"
        );
    }

    #[test]
    fn three_input_or_uses_padding() {
        let mut e = engine();
        let out = e.alloc().unwrap();
        let (da, db, dc) = (packed(7), packed(8), packed(9));
        let stats = e.logic(LogicOp::Or, &[&da, &db, &dc], &out).unwrap().0;
        assert!(stats.accuracy > 0.55, "{}", stats.accuracy);
    }

    #[test]
    fn single_input_logic_rejected() {
        let mut e = engine();
        let out = e.alloc().unwrap();
        let err = e.logic(LogicOp::And, &[&packed(1)], &out).unwrap_err();
        assert!(matches!(err, FcdramError::BadInputCount { .. }));
    }

    #[test]
    fn gate_values_are_width_checked() {
        let mut e = engine();
        let (a, out) = (e.alloc().unwrap(), e.alloc().unwrap());
        let (good, bad) = (packed(1), PackedBits::zeros(31));
        let errs = [
            e.not(&bad, &out).unwrap_err(),
            e.logic(LogicOp::And, &[&good, &bad], &out).unwrap_err(),
            e.maj3(&good, &good, &bad, &out).unwrap_err(),
            e.copy(&a, &bad, &out).unwrap_err(),
        ];
        for err in errs {
            assert!(
                matches!(
                    err,
                    FcdramError::WidthMismatch {
                        expected: 32,
                        got: 31
                    }
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "repetition must be odd")]
    fn even_repetition_panics() {
        let mut e = engine();
        e.set_repetition(2);
    }

    #[test]
    fn copy_and_fill_round_trip() {
        let mut e = engine();
        let data = packed(10);
        let a = vector(&mut e, &data);
        let b = e.alloc().unwrap();
        let (stats, stored) = e.copy(&a, &data, &b).unwrap();
        assert!(stats.accuracy > 0.9, "copy accuracy {}", stats.accuracy);
        assert_eq!(e.read_packed(&b).unwrap(), stored);
        let accuracy = stored.accuracy_against(&data);
        assert!(accuracy >= 29.0 / 32.0, "{accuracy} of the cells copied");
        e.fill(&b, true).unwrap();
        assert_eq!(e.read(&b).unwrap(), vec![true; 32]);
        e.fill(&b, false).unwrap();
        assert_eq!(e.read(&b).unwrap(), vec![false; 32]);
    }

    #[test]
    fn ops_never_corrupt_unrelated_vectors() {
        // The allocation pool must be disjoint from the reserved
        // operation scratch rows, and a copy must never raise a third
        // row: on every Table-1 part that builds an engine, fill every
        // allocatable vector with known data, run each operation kind
        // and many copies between pool pairs, and every vector must
        // still hold what was last written to it.
        let mut parts = 0;
        for cfg in table1() {
            let name = cfg.name.clone();
            let Ok(mut e) = BulkEngine::new(
                Fcdram::new(cfg.with_modeled_cols(64)),
                BankId(0),
                SubarrayId(0),
            ) else {
                continue;
            };
            parts += 1;
            let mut handles = Vec::new();
            while let Ok(h) = e.alloc() {
                handles.push(h);
            }
            assert!(
                handles.len() >= 8,
                "{name}: pool too small: {}",
                handles.len()
            );
            let mut held: Vec<PackedBits> = handles
                .iter()
                .enumerate()
                .map(|(i, h)| {
                    let data = packed(1000 + i as u64);
                    e.write_packed(h, &data).unwrap();
                    data
                })
                .collect();
            let (a, b, c) = (held[0].clone(), held[1].clone(), held[2].clone());
            let out = handles[3];
            // Each gate the part offers.
            if e.not_entry().is_ok() {
                held[3] = e.not(&a, &out).unwrap().1;
            }
            if e.logic_entry(3).is_ok() {
                held[3] = e.logic(LogicOp::And, &[&a, &b], &out).unwrap().1;
                held[3] = e.logic(LogicOp::Nor, &[&a, &b, &c], &out).unwrap().1;
            }
            if e.has_native_maj() {
                held[3] = e.maj3(&a, &b, &c, &out).unwrap().1;
            }
            let n = handles.len() as u64;
            for k in 0..40u64 {
                let src = (dram_core::math::mix2(7, k) % n) as usize;
                let dst = (dram_core::math::mix2(8, k) % n) as usize;
                if src == dst {
                    continue;
                }
                held[dst] = e.copy(&handles[src], &held[src], &handles[dst]).unwrap().1;
            }
            for (i, h) in handles.iter().enumerate() {
                assert_eq!(
                    e.read_packed(h).unwrap(),
                    held[i],
                    "{name}: vector {i} was corrupted by an unrelated operation"
                );
            }
        }
        assert!(parts >= 12, "only {parts} parts build an engine");
    }

    #[test]
    fn known_values_match_read_backs() {
        // Two engines in identical state: gates given the values the
        // caller wrote must store the same bits and report the same
        // accuracy/prediction as gates given values read back from the
        // device (what the operand read-backs used to do).
        let mut e1 = engine();
        let mut e2 = engine();
        assert!(e1.mask_safe, "table-1 part must allow masking");
        let vals = [packed(20), packed(21), packed(22)];
        let setup = |e: &mut BulkEngine| {
            let rows: Vec<BitVecHandle> = vals.iter().map(|v| vector(e, v)).collect();
            (rows, e.alloc().unwrap())
        };
        let (r1, o1) = setup(&mut e1);
        let (r2, o2) = setup(&mut e2);
        let read: Vec<PackedBits> = r1.iter().map(|r| e1.read_packed(r).unwrap()).collect();
        let [ra, rb, rc] = [&read[0], &read[1], &read[2]];
        let [va, vb, vc] = [&vals[0], &vals[1], &vals[2]];

        for op in [LogicOp::And, LogicOp::Nor, LogicOp::Or, LogicOp::Nand] {
            let got1 = e1.logic(op, &[ra, rb, rc], &o1).unwrap();
            let got2 = e2.logic(op, &[va, vb, vc], &o2).unwrap();
            assert_eq!(got1, got2, "{op:?} stats or bits diverge");
            assert_eq!(e1.read_packed(&o1).unwrap(), got2.1, "{op:?} stored bits");
            assert_eq!(e2.read_packed(&o2).unwrap(), got2.1);
        }
        let got1 = e1.not(ra, &o1).unwrap();
        let got2 = e2.not(va, &o2).unwrap();
        assert_eq!(got1, got2, "NOT diverges");
        assert_eq!(e1.read_packed(&o1).unwrap(), got2.1);
        let got1 = e1.copy(&r1[1], rb, &o1).unwrap();
        let got2 = e2.copy(&r2[1], vb, &o2).unwrap();
        assert_eq!(got1, got2, "copy diverges");
        assert_eq!(e1.read_packed(&o1).unwrap(), got2.1);
        // Repetition voting follows the same draws on both engines.
        e1.set_repetition(3);
        e2.set_repetition(3);
        let got1 = e1.logic(LogicOp::Nand, &[ra, rc], &o1).unwrap();
        let got2 = e2.logic(LogicOp::Nand, &[va, vc], &o2).unwrap();
        assert_eq!(got1, got2, "repetition diverges");
        assert_eq!(e1.read_packed(&o1).unwrap(), got2.1);
        // Operand rows survive the gates untouched.
        assert_eq!(e2.read_packed(&r2[0]).unwrap(), *va);
        assert_eq!(e2.read_packed(&r2[2]).unwrap(), *vc);
    }

    /// Every gate stores its result before the call returns: the `out`
    /// row's shared columns, read straight from the chip, hold the bits
    /// the call returned. A NOT refused for a missing pattern after an
    /// OR ships nothing, so the row still holds the OR's result.
    #[test]
    fn gate_results_are_on_the_device_when_the_call_returns() {
        let mut e = engine();
        let (da, db, dc) = (packed(40), packed(41), packed(42));
        let a = vector(&mut e, &da);
        let out = loop {
            let o = e.alloc().unwrap();
            if e.clones(&a, &o) {
                break o;
            }
        };
        let on_device = |e: &mut BulkEngine| {
            let id = e.fc.chip();
            let chip = e.fc.bender_mut().module_mut().chip_mut(id);
            let row = chip.read_row_direct(e.bank, out.row).unwrap();
            let lanes: Vec<Bit> = row
                .into_iter()
                .skip(e.shared_start)
                .step_by(dram_core::SHARED_COL_STRIDE)
                .collect();
            PackedBits::from_bits(&lanes)
        };
        type Stored<'a> = &'a dyn Fn(&mut BulkEngine) -> PackedBits;
        let gates: [(&str, Stored); 5] = [
            ("NOT", &|e| e.not(&da, &out).unwrap().1),
            ("OR", &|e| {
                e.logic(LogicOp::Or, &[&da, &db], &out).unwrap().1
            }),
            ("MAJ3", &|e| e.maj3(&da, &db, &dc, &out).unwrap().1),
            ("copy", &|e| {
                let (stats, stored) = e.copy(&a, &da, &out).unwrap();
                assert_eq!(stats.executions, 1, "the pair clones");
                stored
            }),
            ("refused NOT after OR", &|e| {
                let (_, or) = e.logic(LogicOp::Or, &[&da, &db], &out).unwrap();
                let entry = e.not_entry.take();
                let err = e.not(&da, &out).unwrap_err();
                e.not_entry = entry;
                assert!(matches!(err, FcdramError::NoPattern { .. }), "{err:?}");
                or
            }),
        ];
        for (name, gate) in gates {
            let stored = gate(&mut e);
            assert_eq!(on_device(&mut e), stored, "{name}");
        }
    }

    #[test]
    fn native_maj3_computes_majority() {
        let mut e = engine();
        assert!(e.has_native_maj(), "SK Hynix parts discover a 4-row set");
        let (da, db, dc) = (packed(11), packed(12), packed(13));
        let a = vector(&mut e, &da);
        let out = e.alloc().unwrap();
        let (stats, stored) = e.maj3(&da, &db, &dc, &out).unwrap();
        assert!(stats.accuracy > 0.5, "maj accuracy {}", stats.accuracy);
        assert_eq!(e.read_packed(&out).unwrap(), stored);
        let got = stored.to_bools();
        let (da, db, dc) = (da.to_bools(), db.to_bools(), dc.to_bools());
        let ideal: Vec<bool> = (0..32)
            .map(|i| u8::from(da[i]) + u8::from(db[i]) + u8::from(dc[i]) >= 2)
            .collect();
        let same = got.iter().zip(&ideal).filter(|(x, y)| x == y).count();
        assert!(same >= 20, "{same}/32 majority cells correct");
        // Operand rows survive (values are staged, never clobbered).
        assert_eq!(e.read(&a).unwrap(), da);
    }
}
