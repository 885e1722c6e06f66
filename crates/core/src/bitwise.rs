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
use crate::ops::{Fcdram, Prelude};
use crate::packed::PackedBits;
use dram_core::{BankId, Bit, GlobalRow, LocalRow, LogicOp, SimFidelity, SubarrayId};
use serde::{Deserialize, Serialize};
use std::borrow::{Borrow, Cow};
use std::collections::BTreeSet;

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

    /// The backing DRAM row.
    pub fn row(&self) -> GlobalRow {
        self.row
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

/// One device gate as [`BulkEngine::run_gate`] dispatches it.
#[derive(Clone, Copy)]
enum Gate<'a> {
    /// NOT of the operand value.
    Not(&'a PackedBits),
    /// N-input logic over operand values.
    Logic(LogicOp, &'a [&'a PackedBits]),
    /// In-subarray majority over full-width staged rows.
    Maj(&'a [Vec<Bit>]),
}

/// The bulk bitwise engine.
///
/// Runs the chip in the fast fidelity mode ([`SimFidelity::fast`]):
/// aggregate statistics only, packed host I/O, threaded column kernels
/// on wide rows. Stored bits are identical to full-telemetry runs.
///
/// Each gate (`not`, `logic`, `copy`) has one method. It takes the
/// caller's tracked operand values as an optional `known` argument
/// (without them the operands are read back from the device first),
/// ships as one command program from the [`Fcdram`] value ops, reads
/// back one result row and returns those bits with its statistics.
#[derive(Debug)]
pub struct BulkEngine {
    fc: Fcdram,
    bank: BankId,
    map: ActivationMap,
    com_subarray: SubarrayId,
    shared_cols: Vec<usize>,
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
    /// Whether a fused visit is open (see [`BulkEngine::begin_visit`]).
    visiting: bool,
    /// The previous gate's result write, deferred during a visit so it
    /// ships as the prelude of the next gate's program (or is flushed
    /// before anything reads device rows, and at visit end).
    pending: Prelude,
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
        let shared_cols: Vec<usize> = (0..geom.cols())
            .filter(|c| dram_core::is_shared_col(pair.0, dram_core::Col(*c)))
            .collect();
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
        // Bulk workloads never inspect per-cell records: run the chip
        // in the fast fidelity mode (identical stored bits and
        // aggregate statistics, no per-cell vectors).
        let cfg = fc.sim_config().with_fidelity(SimFidelity::fast());
        fc.configure(cfg);
        Ok(BulkEngine {
            fc,
            bank,
            map,
            com_subarray: com_sub,
            shared_cols,
            shared_start: (pair.0.index() + 1) % 2,
            free_rows,
            repetition: 1,
            not_entry,
            nn_entries,
            maj_entry,
            mask_safe,
            visiting: false,
            pending: None,
        })
    }

    /// Opens a fused visit: until [`BulkEngine::end_visit`], each gate's
    /// result write is deferred into the *next* gate's command program
    /// instead of shipping as a program of its own. The device-call
    /// sequence — and with it every stored bit, stochastic draw, and
    /// success statistic — is identical to unfused execution; only the
    /// per-program fixed costs are amortized.
    ///
    /// Nested calls are idempotent (an active visit is kept).
    pub fn begin_visit(&mut self) {
        self.visiting = true;
    }

    /// Closes the current fused visit, flushing the deferred result
    /// write (if any). A no-op when no visit is active.
    pub fn end_visit(&mut self) -> Result<()> {
        self.visiting = false;
        self.flush_pending()
    }

    /// Lands the visit's deferred result write, so operations that
    /// read device rows directly (copies, host read-backs) observe a
    /// consistent chip.
    fn flush_pending(&mut self) -> Result<()> {
        if let Some((row, data)) = self.pending.take() {
            self.fc.write_row(self.bank, row, data)?;
        }
        Ok(())
    }

    /// Whether the gates may use masked charge shares on this part's
    /// activation map (see the field docs for the criterion).
    pub fn mask_safe(&self) -> bool {
        self.mask_safe
    }

    /// The current simulation configuration of the chip under the
    /// engine.
    pub fn sim_config(&self) -> dram_core::SimConfig {
        self.fc.sim_config()
    }

    /// Applies a [`dram_core::SimConfig`] — fidelity and temperature
    /// in one call (the engine constructs itself at
    /// [`SimFidelity::fast`]). Stored bits are identical across
    /// fidelity modes; operations degrade slightly when hot (the
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
        self.shared_cols.len()
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

    /// The compute subarray vectors are allocated in.
    pub fn compute_subarray(&self) -> SubarrayId {
        self.com_subarray
    }

    /// The bank this engine computes in.
    pub fn bank(&self) -> BankId {
        self.bank
    }

    /// Column offset of the first shared column (operands and results
    /// live on every other column starting here).
    pub fn shared_start(&self) -> usize {
        self.shared_start
    }

    /// The wrapped library facade (command interface included), for
    /// callers that drive the same chip through explicit command
    /// programs — e.g. a command-schedule execution backend that must
    /// stay bit-identical to this engine's operation sequences.
    pub fn fcdram(&self) -> &Fcdram {
        &self.fc
    }

    /// Mutable access to the wrapped library facade.
    pub fn fcdram_mut(&mut self) -> &mut Fcdram {
        &mut self.fc
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
            len: self.shared_cols.len(),
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
        if bits.len() != v.len {
            return Err(FcdramError::WidthMismatch {
                expected: v.len,
                got: bits.len(),
            });
        }
        self.flush_pending()?;
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
        self.flush_pending()?;
        let chip = self.fc.chip();
        let words =
            self.fc
                .bender_mut()
                .read_row_packed(chip, self.bank, v.row, self.shared_start, 2)?;
        Ok(PackedBits::from_words(words, self.shared_cols.len()))
    }

    /// In-DRAM NOT: `out ← ¬a`, returning the statistics and the stored
    /// bits. `known` is the caller's tracked value of `a`; with `None`
    /// the operand is read back from the device first.
    ///
    /// # Errors
    ///
    /// Returns [`FcdramError::NoPattern`] when the map has no NOT
    /// pattern, and propagates device errors.
    pub fn not(
        &mut self,
        a: &BitVecHandle,
        known: Option<&PackedBits>,
        out: &BitVecHandle,
    ) -> Result<(OpStats, PackedBits)> {
        let val = match known {
            Some(v) => Cow::Borrowed(v),
            None => Cow::Owned(self.read_packed(a)?),
        };
        let mut ideal = PackedBits::clone(&val);
        ideal.not_in_place();
        self.run_gate(Gate::Not(&val), &ideal, out)
    }

    /// In-DRAM N-input logic: `out ← op(inputs...)`, returning the
    /// statistics and the stored bits. `known` carries the tracked value
    /// of each input, in order; with `None` the operands are read back
    /// first. Uses the smallest discovered `N:N` pattern with `N ≥
    /// inputs.len()`, identity-padding unused rows; the charge share is
    /// masked to the row read back when [`Self::mask_safe`] holds.
    ///
    /// # Errors
    ///
    /// Returns [`FcdramError::BadInputCount`] (before any device
    /// access) for an input count [`BulkEngine::logic_entry`] rejects.
    pub fn logic<H: Borrow<BitVecHandle>>(
        &mut self,
        op: LogicOp,
        inputs: &[H],
        known: Option<&[&PackedBits]>,
        out: &BitVecHandle,
    ) -> Result<(OpStats, PackedBits)> {
        self.logic_entry(inputs.len())?;
        // Reads (and their allocations) happen only without `known`.
        let read: Vec<PackedBits> = match known {
            Some(_) => Vec::new(),
            None => inputs
                .iter()
                .map(|h| self.read_packed(h.borrow()))
                .collect::<Result<_>>()?,
        };
        let refs: Vec<&PackedBits> = read.iter().collect();
        let vals = known.unwrap_or(&refs);
        let ideal = crate::ops::ideal_logic(op, vals, self.shared_cols.len());
        self.run_gate(Gate::Logic(op, vals), &ideal, out)
    }

    /// In-DRAM AND: [`BulkEngine::logic`] with the operands read back,
    /// returning the statistics only.
    pub fn and(&mut self, ins: &[&BitVecHandle], out: &BitVecHandle) -> Result<OpStats> {
        Ok(self.logic(LogicOp::And, ins, None, out)?.0)
    }

    /// In-DRAM OR.
    pub fn or(&mut self, ins: &[&BitVecHandle], out: &BitVecHandle) -> Result<OpStats> {
        Ok(self.logic(LogicOp::Or, ins, None, out)?.0)
    }

    /// In-DRAM NAND.
    pub fn nand(&mut self, ins: &[&BitVecHandle], out: &BitVecHandle) -> Result<OpStats> {
        Ok(self.logic(LogicOp::Nand, ins, None, out)?.0)
    }

    /// In-DRAM NOR.
    pub fn nor(&mut self, ins: &[&BitVecHandle], out: &BitVecHandle) -> Result<OpStats> {
        Ok(self.logic(LogicOp::Nor, ins, None, out)?.0)
    }

    /// In-DRAM three-input majority via Ambit-style simultaneous
    /// four-row activation in the compute subarray:
    /// `MAJ4(a, b, c, 1) = MAJ3(a, b, c)` (the all-1 fourth row turns
    /// the ≥3-of-4 threshold into ≥2-of-3).
    ///
    /// This is the baseline operation lineage the paper builds on
    /// (§2.2, §8.1); it computes the carry of a full adder in a single
    /// command sequence where the functionally-complete gate set needs
    /// four.
    ///
    /// # Errors
    ///
    /// Returns [`FcdramError::OpFailed`] when the part has no four-row
    /// in-subarray activation set (check [`BulkEngine::has_native_maj`]).
    pub fn maj3(
        &mut self,
        a: &BitVecHandle,
        b: &BitVecHandle,
        c: &BitVecHandle,
        out: &BitVecHandle,
    ) -> Result<OpStats> {
        if self.maj_entry.is_none() {
            return Err(FcdramError::OpFailed {
                detail: "no four-row in-subarray activation set discovered".to_string(),
            });
        }
        let (da, db, dc) = (
            self.read_packed(a)?,
            self.read_packed(b)?,
            self.read_packed(c)?,
        );
        // MAJ3 = (a∧b) ∨ (a∧c) ∨ (b∧c), word-wise.
        let and = |x: &PackedBits, y| crate::ops::ideal_logic(LogicOp::And, &[x, y], da.len());
        let terms = [and(&da, &db), and(&da, &dc), and(&db, &dc)];
        let ideal =
            crate::ops::ideal_logic(LogicOp::Or, &[&terms[0], &terms[1], &terms[2]], da.len());
        let cols = self.fc.config().modeled_cols;
        let inputs = vec![
            self.expand_packed(&da),
            self.expand_packed(&db),
            self.expand_packed(&dc),
            vec![Bit::One; cols],
        ];
        Ok(self.run_gate(Gate::Maj(&inputs), &ideal, out)?.0)
    }

    /// In-DRAM copy (`out ← a`) via in-subarray RowClone, returning the
    /// statistics and the stored bits (`known` as in [`Self::not`]).
    ///
    /// Both vectors live in the compute subarray, so the copy is a
    /// sub-`tRP` `ACT → PRE → ACT` pair that never moves data over the
    /// channel. Row pairs that do not clone on this chip (the decoder
    /// glitch predicate rejects them) fall back to a host write of the
    /// source value, reported with `executions: 0`.
    ///
    /// # Errors
    ///
    /// Propagates device addressing errors; the non-cloning-pair case
    /// is handled internally by the fallback.
    pub fn copy(
        &mut self,
        a: &BitVecHandle,
        known: Option<&PackedBits>,
        out: &BitVecHandle,
    ) -> Result<(OpStats, PackedBits)> {
        let val = match known {
            Some(v) => Cow::Borrowed(v),
            None => Cow::Owned(self.read_packed(a)?),
        };
        // RowClone reads the source row on-device: any deferred fused
        // result write must land first.
        self.flush_pending()?;
        match self.fc.rowclone(self.bank, a.row, out.row) {
            Ok(outcome) => {
                let got = self.read_packed(out)?;
                let predicted = outcome.mean_success(dram_core::CellRole::CloneDst);
                let stats = OpStats {
                    executions: 1,
                    accuracy: got.accuracy_against(&val),
                    predicted_success: predicted.unwrap_or(1.0),
                };
                Ok((stats, got))
            }
            Err(_) => {
                self.write_packed(out, &val)?;
                let stats = OpStats {
                    executions: 0,
                    accuracy: 1.0,
                    predicted_success: 1.0,
                };
                Ok((stats, val.into_owned()))
            }
        }
    }

    /// Fills a vector with a constant bit (a host row write; see
    /// [`Fcdram::broadcast`] for the amortized in-DRAM bulk
    /// initialization of many rows at once).
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

    /// Expands shared-column lanes into a full-width row (zeros on the
    /// off half). The shared columns are exactly every other column
    /// starting at `shared_start`, so this is a strided expansion.
    fn expand_packed(&self, bits: &PackedBits) -> Vec<Bit> {
        bits.expand_strided(self.fc.config().modeled_cols, self.shared_start, 2)
    }

    /// Runs `gate` `repetition` times through its value op — the first
    /// run carries the deferred result write as its program's prelude
    /// — majority-votes the results and stores the vote in `out`:
    /// deferred into the visit when one is open, landed now otherwise.
    fn run_gate(
        &mut self,
        gate: Gate<'_>,
        ideal: &PackedBits,
        out: &BitVecHandle,
    ) -> Result<(OpStats, PackedBits)> {
        let k = self.repetition;
        let mut votes = vec![0u32; if k > 1 { self.shared_cols.len() } else { 0 }];
        let mut predicted = 0.0;
        let mut result = None;
        for _ in 0..k {
            let prelude = self.pending.take();
            let (bits, p) = match gate {
                Gate::Not(val) => {
                    let entry = self
                        .not_entry
                        .as_ref()
                        .ok_or(FcdramError::NoPattern { n_rf: 1, n_rl: 1 })?;
                    let rep = self.fc.execute_not_value(self.bank, entry, val, prelude)?;
                    (rep.result, rep.predicted_success)
                }
                Gate::Logic(op, vals) => {
                    let entry =
                        covering(&self.nn_entries, vals.len()).expect("checked by logic_entry");
                    let rep = self.fc.execute_logic_value(
                        self.bank,
                        entry,
                        op,
                        vals,
                        prelude,
                        self.mask_safe,
                    )?;
                    (rep.result, rep.predicted_success)
                }
                Gate::Maj(inputs) => {
                    let entry = self.maj_entry.as_ref().expect("checked by maj3");
                    let rep = self.fc.execute_maj_value(
                        self.bank,
                        entry,
                        inputs,
                        self.shared_start,
                        prelude,
                    )?;
                    (rep.result, rep.predicted_success)
                }
            };
            predicted += p;
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
        self.pending = Some((out.row, full));
        if !self.visiting {
            self.flush_pending()?;
        }
        Ok((stats, result))
    }
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
        let a = e.alloc().unwrap();
        let out = e.alloc().unwrap();
        let data = bits(2, 32);
        e.write(&a, &data).unwrap();
        let (stats, _) = e.not(&a, None, &out).unwrap();
        assert!(stats.accuracy > 0.9, "accuracy {}", stats.accuracy);
        let got = e.read(&out).unwrap();
        let expect: Vec<bool> = data.iter().map(|b| !b).collect();
        let same = got.iter().zip(&expect).filter(|(x, y)| x == y).count();
        assert!(same >= 29, "{same}/32");
    }

    #[test]
    fn bulk_and_or() {
        let mut e = engine();
        let a = e.alloc().unwrap();
        let b = e.alloc().unwrap();
        let out = e.alloc().unwrap();
        let da = bits(3, 32);
        let db = bits(4, 32);
        e.write(&a, &da).unwrap();
        e.write(&b, &db).unwrap();
        let s_and = e.and(&[&a, &b], &out).unwrap();
        assert!(s_and.accuracy > 0.6, "AND accuracy {}", s_and.accuracy);
        // Inputs must be intact afterwards (re-written each execution).
        assert_eq!(e.read(&a).unwrap(), da);
        let s_or = e.or(&[&a, &b], &out).unwrap();
        assert!(s_or.accuracy > 0.7, "OR accuracy {}", s_or.accuracy);
    }

    #[test]
    fn repetition_improves_accuracy() {
        let mut e = engine();
        let a = e.alloc().unwrap();
        let b = e.alloc().unwrap();
        let out = e.alloc().unwrap();
        e.write(&a, &bits(5, 32)).unwrap();
        e.write(&b, &bits(6, 32)).unwrap();
        let single = e.and(&[&a, &b], &out).unwrap();
        e.set_repetition(9);
        let voted = e.and(&[&a, &b], &out).unwrap();
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
        let a = e.alloc().unwrap();
        let out = e.alloc().unwrap();
        let val = e.read_packed(&a).unwrap();
        let handle = e.logic(LogicOp::And, &[&a], None, &out).unwrap_err();
        let known = e
            .logic(LogicOp::Or, &[&a], Some(&[&val]), &out)
            .unwrap_err();
        for err in [handle, known] {
            assert!(
                matches!(err, FcdramError::BadInputCount { n: 1, max: m } if m == max),
                "{err:?}"
            );
        }
    }

    #[test]
    fn three_input_or_uses_padding() {
        let mut e = engine();
        let a = e.alloc().unwrap();
        let b = e.alloc().unwrap();
        let c = e.alloc().unwrap();
        let out = e.alloc().unwrap();
        let (da, db, dc) = (bits(7, 32), bits(8, 32), bits(9, 32));
        e.write(&a, &da).unwrap();
        e.write(&b, &db).unwrap();
        e.write(&c, &dc).unwrap();
        let stats = e.or(&[&a, &b, &c], &out).unwrap();
        assert!(stats.accuracy > 0.55, "{}", stats.accuracy);
    }

    #[test]
    fn single_input_logic_rejected() {
        let mut e = engine();
        let a = e.alloc().unwrap();
        let out = e.alloc().unwrap();
        let err = e.and(&[&a], &out).unwrap_err();
        assert!(matches!(err, FcdramError::BadInputCount { .. }));
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
        let a = e.alloc().unwrap();
        let b = e.alloc().unwrap();
        let data = bits(10, 32);
        e.write(&a, &data).unwrap();
        let (stats, _) = e.copy(&a, None, &b).unwrap();
        assert!(stats.accuracy > 0.9, "copy accuracy {}", stats.accuracy);
        let got = e.read(&b).unwrap();
        let same = got.iter().zip(&data).filter(|(x, y)| x == y).count();
        assert!(same >= 29, "{same}/32 cells copied");
        e.fill(&b, true).unwrap();
        assert_eq!(e.read(&b).unwrap(), vec![true; 32]);
        e.fill(&b, false).unwrap();
        assert_eq!(e.read(&b).unwrap(), vec![false; 32]);
    }

    #[test]
    fn ops_never_corrupt_unrelated_vectors() {
        // The allocation pool must be disjoint from the reserved
        // operation scratch rows: filling every allocatable vector
        // with known data and then executing each operation kind must
        // leave all uninvolved vectors bit-identical.
        let mut e = engine();
        let mut handles = Vec::new();
        while let Ok(h) = e.alloc() {
            handles.push(h);
        }
        assert!(handles.len() >= 8, "pool too small: {}", handles.len());
        let snapshots: Vec<Vec<bool>> = handles
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let data = bits(1000 + i as u64, 32);
                e.write(h, &data).unwrap();
                data
            })
            .collect();

        let (a, b, c, out) = (handles[0], handles[1], handles[2], handles[3]);
        e.not(&a, None, &out).unwrap();
        e.and(&[&a, &b], &out).unwrap();
        e.nor(&[&a, &b, &c], &out).unwrap();
        e.copy(&a, None, &out).unwrap();
        if e.has_native_maj() {
            e.maj3(&a, &b, &c, &out).unwrap();
        }

        for (i, h) in handles.iter().enumerate().skip(4) {
            assert_eq!(
                e.read(h).unwrap(),
                snapshots[i],
                "vector {i} was corrupted by an unrelated operation"
            );
        }
        // The inputs themselves also survive (operands are staged).
        for (i, h) in [a, b, c].iter().enumerate() {
            assert_eq!(e.read(h).unwrap(), snapshots[i], "input {i} clobbered");
        }
    }

    #[test]
    fn known_values_match_read_backs() {
        // Two engines in identical state: gates given the operand
        // values (`Some`) must store the same bits and report the same
        // accuracy/prediction as gates that read them back (`None`).
        let mut e1 = engine();
        let mut e2 = engine();
        assert!(e1.mask_safe(), "table-1 part must allow masking");
        let setup = |e: &mut BulkEngine| {
            let a = e.alloc().unwrap();
            let b = e.alloc().unwrap();
            let c = e.alloc().unwrap();
            let out = e.alloc().unwrap();
            e.write(&a, &bits(20, 32)).unwrap();
            e.write(&b, &bits(21, 32)).unwrap();
            e.write(&c, &bits(22, 32)).unwrap();
            (a, b, c, out)
        };
        let (a1, b1, c1, o1) = setup(&mut e1);
        let (a2, b2, c2, o2) = setup(&mut e2);
        let va = PackedBits::from_bools(&bits(20, 32));
        let vb = PackedBits::from_bools(&bits(21, 32));
        let vc = PackedBits::from_bools(&bits(22, 32));

        for op in [LogicOp::And, LogicOp::Nor, LogicOp::Or, LogicOp::Nand] {
            let got1 = e1.logic(op, &[&a1, &b1, &c1], None, &o1).unwrap();
            let got2 = e2
                .logic(op, &[&a2, &b2, &c2], Some(&[&va, &vb, &vc]), &o2)
                .unwrap();
            assert_eq!(got1, got2, "{op:?} stats or bits diverge");
            assert_eq!(e1.read_packed(&o1).unwrap(), got2.1, "{op:?} stored bits");
            assert_eq!(e2.read_packed(&o2).unwrap(), got2.1);
        }
        let got1 = e1.not(&a1, None, &o1).unwrap();
        let got2 = e2.not(&a2, Some(&va), &o2).unwrap();
        assert_eq!(got1, got2, "NOT diverges");
        assert_eq!(e1.read_packed(&o1).unwrap(), got2.1);
        let got1 = e1.copy(&b1, None, &o1).unwrap();
        let got2 = e2.copy(&b2, Some(&vb), &o2).unwrap();
        assert_eq!(got1, got2, "copy diverges");
        assert_eq!(e1.read_packed(&o1).unwrap(), got2.1);
        // Repetition voting follows the same draws on both paths.
        e1.set_repetition(3);
        e2.set_repetition(3);
        let got1 = e1.logic(LogicOp::Nand, &[&a1, &c1], None, &o1).unwrap();
        let got2 = e2
            .logic(LogicOp::Nand, &[&a2, &c2], Some(&[&va, &vc]), &o2)
            .unwrap();
        assert_eq!(got1, got2, "repetition diverges");
        assert_eq!(e1.read_packed(&o1).unwrap(), got2.1);
        // Operand rows survive gates given their values untouched.
        assert_eq!(e2.read_packed(&a2).unwrap(), va);
        assert_eq!(e2.read_packed(&c2).unwrap(), vc);
    }

    #[test]
    fn native_maj3_computes_majority() {
        let mut e = engine();
        assert!(e.has_native_maj(), "SK Hynix parts discover a 4-row set");
        let a = e.alloc().unwrap();
        let b = e.alloc().unwrap();
        let c = e.alloc().unwrap();
        let out = e.alloc().unwrap();
        let (da, db, dc) = (bits(11, 32), bits(12, 32), bits(13, 32));
        e.write(&a, &da).unwrap();
        e.write(&b, &db).unwrap();
        e.write(&c, &dc).unwrap();
        let stats = e.maj3(&a, &b, &c, &out).unwrap();
        assert!(stats.accuracy > 0.5, "maj accuracy {}", stats.accuracy);
        let got = e.read(&out).unwrap();
        let ideal: Vec<bool> = (0..32)
            .map(|i| u8::from(da[i]) + u8::from(db[i]) + u8::from(dc[i]) >= 2)
            .collect();
        let same = got.iter().zip(&ideal).filter(|(x, y)| x == y).count();
        assert!(same >= 20, "{same}/32 majority cells correct");
        // Inputs survive (operands are staged, never clobbered).
        assert_eq!(e.read(&a).unwrap(), da);
    }
}
