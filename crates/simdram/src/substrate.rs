//! The substrate abstraction: where bit rows live and how gates run.
//!
//! Arithmetic circuits in this crate are written once against the
//! [`Substrate`] trait and execute on either backend:
//!
//! * [`DramSubstrate`] — rows are DRAM rows of an
//!   [`fcdram::BulkEngine`]; gates are the paper's in-DRAM NOT and
//!   N-input AND/OR/NAND/NOR, with their measured unreliability.
//! * [`HostSubstrate`] — rows are packed `u64` words (64 lanes per
//!   word) and gates are exact word loops. It is the golden model for
//!   circuit-synthesis tests and the word-wide CPU baseline for cost
//!   comparisons.
//!
//! The trait deliberately mirrors what COTS DRAM offers (§5–§6 of the
//! paper): wide rows, one-output gates with up to 16 inputs, copies,
//! and constant fills. Each gate is one method and returns the bits it
//! stored. Each substrate owns the values of its rows (the DRAM backend
//! tracks what it last wrote to each row), so no gate reads its
//! operands back over the channel and callers thread no values. Host
//! I/O is bit-packed only.
//! Everything richer (XOR, adders, multipliers) is *synthesized* in
//! [`crate::gates`] and [`crate::alu`] — which is the point of
//! demonstrating functional completeness.

use crate::error::{Result, SimdramError};
use crate::trace::{NativeOp, OpTrace, TraceEntry};
use dram_core::LogicOp;
use fcdram::{BitVecHandle, BulkEngine, OpStats, PackedBits};
use serde::{Deserialize, Serialize};

/// The largest fan-in any FCDRAM-style substrate can offer (the paper
/// demonstrates up to 16-input operations; §7 Limitation 2).
pub const MAX_FAN_IN: usize = 16;

/// Handle to one substrate-resident row of bits (one bit position of
/// every SIMD lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BitRow(usize);

impl BitRow {
    /// The raw slot id (stable for the lifetime of the allocation).
    pub fn id(self) -> usize {
        self.0
    }
}

/// A backend that stores bit rows and executes native gates on them.
///
/// Implementations must guarantee that gate inputs are *not* clobbered
/// (the in-DRAM engine stages operands into reserved scratch rows), so
/// a row may appear several times in one `logic` call and may be
/// shared read-only between vectors. A gate records exactly one trace
/// entry, and its result is stored in its output row when it returns.
pub trait Substrate {
    /// Number of SIMD lanes (bits per row).
    fn lanes(&self) -> usize;

    /// Largest native fan-in `logic` accepts on this backend (at most
    /// [`MAX_FAN_IN`]).
    fn max_fan_in(&self) -> usize;

    /// Applies a [`dram_core::SimConfig`] (the chip temperature) to the
    /// underlying device, when the substrate models one. The host
    /// golden model has no device knobs: the default is a no-op.
    fn configure_sim(&mut self, cfg: dram_core::SimConfig) {
        let _ = cfg;
    }

    /// Allocates a fresh row (contents unspecified).
    ///
    /// # Errors
    ///
    /// Returns an error when the row pool is exhausted.
    fn alloc(&mut self) -> Result<BitRow>;

    /// Returns a row to the pool. Freeing an already-freed handle is a
    /// no-op on the host backend and must not corrupt the pool.
    fn free(&mut self, r: BitRow);

    /// Writes a bit-packed row (64 lanes per `u64` word).
    ///
    /// # Errors
    ///
    /// Fails when `bits.len() != lanes()` or the handle is invalid.
    fn write_packed(&mut self, r: BitRow, bits: &PackedBits) -> Result<()>;

    /// Reads a row back bit-packed.
    ///
    /// # Errors
    ///
    /// Fails when the handle is invalid.
    fn read_packed(&mut self, r: BitRow) -> Result<PackedBits>;

    /// Fills a row with a constant.
    ///
    /// # Errors
    ///
    /// Fails when the handle is invalid.
    fn fill(&mut self, r: BitRow, value: bool) -> Result<()>;

    /// Copies `src` into `dst` (RowClone on DRAM) and returns the
    /// stored bits.
    ///
    /// # Errors
    ///
    /// Fails when a handle is invalid.
    fn copy(&mut self, src: BitRow, dst: BitRow) -> Result<&PackedBits>;

    /// `out ← ¬a` (the paper's NOT, §5); returns the stored bits.
    ///
    /// # Errors
    ///
    /// Fails when a handle is invalid or the device cannot execute.
    fn not(&mut self, a: BitRow, out: BitRow) -> Result<&PackedBits>;

    /// `out ← op(ins...)` for 2..=[`Substrate::max_fan_in`] inputs
    /// (the paper's N-input AND/OR/NAND/NOR, §6); returns the stored
    /// bits.
    ///
    /// # Errors
    ///
    /// Fails on bad input counts or invalid handles.
    fn logic(&mut self, op: LogicOp, ins: &[BitRow], out: BitRow) -> Result<&PackedBits>;

    /// `out ← MAJ3(a, b, c)`.
    ///
    /// The default synthesizes `OR₃(AND(a,b), AND(a,c), AND(b,c))`
    /// from the functionally-complete set (4 native ops); backends
    /// with Ambit-style in-subarray multi-row activation override it
    /// with the native single-operation form (§2.2 of the paper).
    ///
    /// # Errors
    ///
    /// Fails on invalid handles or row exhaustion.
    fn maj3(&mut self, a: BitRow, b: BitRow, c: BitRow, out: BitRow) -> Result<()> {
        derived_maj3(self, a, b, c, out)
    }

    /// Whether [`Substrate::maj3`] executes as one native operation
    /// (as opposed to the 4-gate derived circuit).
    fn has_native_maj(&self) -> bool {
        false
    }

    /// The accumulated operation trace.
    fn trace(&self) -> &OpTrace;

    /// Mutable access to the trace (for clearing between sections).
    fn trace_mut(&mut self) -> &mut OpTrace;
}

/// The derived MAJ3 circuit used by [`Substrate::maj3`]'s default
/// implementation and by the [`DramSubstrate`] fallback on parts
/// without a four-row activation set.
fn derived_maj3<S: Substrate + ?Sized>(
    s: &mut S,
    a: BitRow,
    b: BitRow,
    c: BitRow,
    out: BitRow,
) -> Result<()> {
    let ab = s.alloc()?;
    let ac = s.alloc()?;
    let bc = s.alloc()?;
    s.logic(LogicOp::And, &[a, b], ab)?;
    s.logic(LogicOp::And, &[a, c], ac)?;
    s.logic(LogicOp::And, &[b, c], bc)?;
    s.logic(LogicOp::Or, &[ab, ac, bc], out)?;
    s.free(ab);
    s.free(ac);
    s.free(bc);
    Ok(())
}

// ---------------------------------------------------------------------------
// Host golden model
// ---------------------------------------------------------------------------

/// Exact host-side substrate: the golden model and word-wide CPU
/// baseline.
///
/// Each row is a [`PackedBits`] of `u64` words (64 lanes per word,
/// unused tail bits of the last word always zero), so gates run as
/// word loops and host I/O is a word copy. A freed slot keeps its
/// words: `alloc` reuses it without allocating, and [`live_rows`]
/// is the slot count minus the free-list length instead of a scan.
/// A gate computes from the stored rows, returns a reference to its
/// output row and records only itself.
///
/// [`live_rows`]: HostSubstrate::live_rows
///
/// # Examples
///
/// ```
/// use simdram::{HostSubstrate, Substrate};
/// use dram_core::LogicOp;
/// use fcdram::PackedBits;
///
/// let mut s = HostSubstrate::new(4, 64);
/// let a = s.alloc()?;
/// let b = s.alloc()?;
/// let out = s.alloc()?;
/// s.write_packed(a, &PackedBits::from_bools(&[true, true, false, false]))?;
/// s.write_packed(b, &PackedBits::from_bools(&[true, false, true, false]))?;
/// // A gate returns the bits it stored.
/// let and = s.logic(LogicOp::And, &[a, b], out)?;
/// assert_eq!(and.to_bools(), vec![true, false, false, false]);
/// # Ok::<(), simdram::SimdramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HostSubstrate {
    lanes: usize,
    /// One packed row per slot, live or freed.
    rows: Vec<PackedBits>,
    /// Whether each slot is allocated (a freed handle fails `check`).
    live: Vec<bool>,
    /// Freed slots, reused LIFO; every other slot is live.
    free: Vec<usize>,
    capacity: usize,
    /// Gate results are built here and swapped into the output row, so
    /// an output may alias an input and no gate allocates.
    scratch: PackedBits,
    trace: OpTrace,
}

impl HostSubstrate {
    /// Creates a host substrate with `lanes` bits per row and room for
    /// `capacity` live rows (mirroring a subarray's row budget).
    pub fn new(lanes: usize, capacity: usize) -> Self {
        HostSubstrate {
            lanes,
            rows: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            capacity,
            scratch: PackedBits::zeros(lanes),
            trace: OpTrace::new(),
        }
    }

    fn check(&self, r: BitRow) -> Result<()> {
        if self.live.get(r.0) == Some(&true) {
            Ok(())
        } else {
            Err(SimdramError::BadHandle { id: r.0 })
        }
    }

    /// Checks every handle of a gate.
    fn check_gate(&self, ins: &[BitRow], out: BitRow) -> Result<()> {
        ins.iter().chain([&out]).try_for_each(|r| self.check(*r))
    }

    /// Moves the scratch result into `out` (checked by the caller),
    /// records `op` and returns the stored bits.
    fn commit(&mut self, out: BitRow, op: NativeOp) -> &PackedBits {
        std::mem::swap(&mut self.rows[out.0], &mut self.scratch);
        self.record(op);
        &self.rows[out.0]
    }

    fn record(&mut self, op: NativeOp) {
        self.trace.record(TraceEntry {
            op,
            executions: 1,
            predicted_success: 1.0,
        });
    }

    /// Number of currently live rows (for leak tests).
    pub fn live_rows(&self) -> usize {
        self.rows.len() - self.free.len()
    }
}

impl Substrate for HostSubstrate {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn max_fan_in(&self) -> usize {
        MAX_FAN_IN
    }

    fn alloc(&mut self) -> Result<BitRow> {
        let id = match self.free.pop() {
            Some(id) => {
                self.rows[id].fill(false);
                self.live[id] = true;
                id
            }
            None if self.rows.len() >= self.capacity => {
                return Err(SimdramError::Substrate(fcdram::FcdramError::OutOfRows));
            }
            None => {
                self.rows.push(PackedBits::zeros(self.lanes));
                self.live.push(true);
                self.rows.len() - 1
            }
        };
        Ok(BitRow(id))
    }

    fn free(&mut self, r: BitRow) {
        if let Some(live) = self.live.get_mut(r.0) {
            if std::mem::replace(live, false) {
                self.free.push(r.0);
            }
        }
    }

    fn write_packed(&mut self, r: BitRow, bits: &PackedBits) -> Result<()> {
        if bits.len() != self.lanes {
            return Err(SimdramError::LaneMismatch {
                expected: self.lanes,
                got: bits.len(),
            });
        }
        self.check(r)?;
        self.rows[r.0].copy_from(bits);
        self.record(NativeOp::HostWrite);
        Ok(())
    }

    fn read_packed(&mut self, r: BitRow) -> Result<PackedBits> {
        self.check(r)?;
        let bits = self.rows[r.0].clone();
        self.record(NativeOp::HostRead);
        Ok(bits)
    }

    fn fill(&mut self, r: BitRow, value: bool) -> Result<()> {
        self.check(r)?;
        self.rows[r.0].fill(value);
        self.record(NativeOp::Fill);
        Ok(())
    }

    fn copy(&mut self, src: BitRow, dst: BitRow) -> Result<&PackedBits> {
        self.check_gate(&[src], dst)?;
        self.scratch.copy_from(&self.rows[src.0]);
        Ok(self.commit(dst, NativeOp::Copy))
    }

    fn not(&mut self, a: BitRow, out: BitRow) -> Result<&PackedBits> {
        self.check_gate(&[a], out)?;
        self.scratch.copy_from(&self.rows[a.0]);
        self.scratch.not_in_place();
        Ok(self.commit(out, NativeOp::Not))
    }

    fn logic(&mut self, op: LogicOp, ins: &[BitRow], out: BitRow) -> Result<&PackedBits> {
        if ins.len() < 2 || ins.len() > MAX_FAN_IN {
            return Err(SimdramError::Substrate(
                fcdram::FcdramError::BadInputCount {
                    n: ins.len(),
                    max: MAX_FAN_IN,
                },
            ));
        }
        self.check_gate(ins, out)?;
        self.scratch.copy_from(&self.rows[ins[0].0]);
        for r in &ins[1..] {
            if op.is_and_family() {
                self.scratch.and_assign(&self.rows[r.0]);
            } else {
                self.scratch.or_assign(&self.rows[r.0]);
            }
        }
        if op.is_inverted_terminal() {
            self.scratch.not_in_place();
        }
        Ok(self.commit(out, NativeOp::Logic(op, ins.len() as u8)))
    }

    fn trace(&self) -> &OpTrace {
        &self.trace
    }

    fn trace_mut(&mut self) -> &mut OpTrace {
        &mut self.trace
    }
}

// ---------------------------------------------------------------------------
// In-DRAM substrate
// ---------------------------------------------------------------------------

/// Substrate backed by a real (simulated) DRAM chip through
/// [`fcdram::BulkEngine`]: gates execute as violated-timing command
/// sequences and inherit the device model's per-cell success rates.
///
/// The substrate owns its rows' values: it keeps the last value written
/// to each row (by `write_packed`, `fill`, a gate's stored bits, a copy
/// or `maj3`) and hands those to the engine, which stages them into the
/// gate's scratch rows, so no gate reads its operands back over the
/// channel. A row never written since `alloc` is read from the device
/// once, on first use; `free` forgets the value. This is sound because
/// the substrate is the only writer of its engine's rows (there is no
/// mutable engine access, and a copy never raises a third row; see
/// [`BulkEngine::copy`]). Debug builds check it on every
/// [`Substrate::read_packed`].
///
/// # Examples
///
/// ```
/// use simdram::{DramSubstrate, Substrate};
/// use fcdram::{BulkEngine, Fcdram};
/// use dram_core::{BankId, SubarrayId};
///
/// let cfg = dram_core::config::table1().remove(0).with_modeled_cols(32);
/// let engine = BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0))?;
/// let mut s = DramSubstrate::new(engine);
/// let a = s.alloc()?;
/// let out = s.alloc()?;
/// s.fill(a, true)?;
/// assert_eq!(s.read_packed(a)?.count_ones(), s.lanes());
/// // The in-DRAM NOT stages the tracked value of `a` and returns the
/// // bits it stored.
/// let not_a = s.not(a, out)?.clone();
/// assert_eq!(s.read_packed(out)?, not_a);
/// # Ok::<(), simdram::SimdramError>(())
/// ```
#[derive(Debug)]
pub struct DramSubstrate {
    engine: BulkEngine,
    handles: Vec<Option<BitVecHandle>>,
    /// The last value written to each live row (`None`: not written
    /// since `alloc`, so the device is read on first use).
    values: Vec<Option<PackedBits>>,
    free: Vec<usize>,
    trace: OpTrace,
}

impl DramSubstrate {
    /// Wraps a bulk engine. The native fan-in limit is
    /// [`BulkEngine::max_fan_in`].
    pub fn new(engine: BulkEngine) -> Self {
        DramSubstrate {
            engine,
            handles: Vec::new(),
            values: Vec::new(),
            free: Vec::new(),
            trace: OpTrace::new(),
        }
    }

    /// Enables k-fold repetition voting on every gate (k odd); see
    /// [`BulkEngine::set_repetition`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or zero.
    pub fn set_repetition(&mut self, k: usize) {
        self.engine.set_repetition(k);
    }

    /// The current simulation configuration of the wrapped engine.
    pub fn sim_config(&self) -> dram_core::SimConfig {
        self.engine.sim_config()
    }

    /// The wrapped engine (for inspection).
    pub fn engine(&self) -> &BulkEngine {
        &self.engine
    }

    fn handle(&self, r: BitRow) -> Result<BitVecHandle> {
        self.handles
            .get(r.0)
            .and_then(|h| *h)
            .ok_or(SimdramError::BadHandle { id: r.0 })
    }

    /// The handle of an operand row, its value loaded from the device
    /// if the row was not written since `alloc`.
    fn operand(&mut self, r: BitRow) -> Result<BitVecHandle> {
        let h = self.handle(r)?;
        if self.values[r.0].is_none() {
            self.values[r.0] = Some(self.engine.read_packed(&h)?);
        }
        Ok(h)
    }

    fn record(&mut self, op: NativeOp, executions: usize, predicted_success: f64) {
        self.trace.record(TraceEntry {
            op,
            executions,
            predicted_success,
        });
    }

    /// Records a gate and keeps its stored bits as `out`'s value.
    fn finish(
        &mut self,
        op: NativeOp,
        out: BitRow,
        (stats, bits): (OpStats, PackedBits),
    ) -> &PackedBits {
        self.record(op, stats.executions, stats.predicted_success);
        self.values[out.0].insert(bits)
    }
}

/// The value [`DramSubstrate::operand`] loaded for `r` (a free function,
/// so it borrows the value table apart from the engine).
fn loaded(values: &[Option<PackedBits>], r: BitRow) -> &PackedBits {
    values[r.0].as_ref().expect("operand loaded")
}

impl Substrate for DramSubstrate {
    fn lanes(&self) -> usize {
        self.engine.capacity_bits()
    }

    fn max_fan_in(&self) -> usize {
        self.engine.max_fan_in()
    }

    fn configure_sim(&mut self, cfg: dram_core::SimConfig) {
        self.engine.configure(cfg);
    }

    fn alloc(&mut self) -> Result<BitRow> {
        let handle = self.engine.alloc()?;
        if let Some(id) = self.free.pop() {
            self.handles[id] = Some(handle);
            return Ok(BitRow(id));
        }
        self.handles.push(Some(handle));
        self.values.push(None);
        Ok(BitRow(self.handles.len() - 1))
    }

    fn free(&mut self, r: BitRow) {
        if let Some(slot) = self.handles.get_mut(r.0) {
            if let Some(h) = slot.take() {
                self.engine.free(h);
                self.values[r.0] = None;
                self.free.push(r.0);
            }
        }
    }

    fn write_packed(&mut self, r: BitRow, bits: &PackedBits) -> Result<()> {
        let h = self.handle(r)?;
        self.engine.write_packed(&h, bits)?;
        match &mut self.values[r.0] {
            Some(v) => v.copy_from(bits),
            slot => *slot = Some(bits.clone()),
        }
        self.record(NativeOp::HostWrite, 0, 1.0);
        Ok(())
    }

    fn read_packed(&mut self, r: BitRow) -> Result<PackedBits> {
        let h = self.handle(r)?;
        let words = self.engine.read_packed(&h)?;
        debug_assert!(
            self.values[r.0].as_ref().is_none_or(|v| *v == words),
            "row {} holds bits other than its tracked value",
            r.0
        );
        self.record(NativeOp::HostRead, 0, 1.0);
        Ok(words)
    }

    fn fill(&mut self, r: BitRow, value: bool) -> Result<()> {
        let h = self.handle(r)?;
        self.engine.fill(&h, value)?;
        self.values[r.0] = Some(PackedBits::splat(value, h.len()));
        self.record(NativeOp::Fill, 0, 1.0);
        Ok(())
    }

    fn copy(&mut self, src: BitRow, dst: BitRow) -> Result<&PackedBits> {
        let hs = self.operand(src)?;
        let hd = self.handle(dst)?;
        let done = self.engine.copy(&hs, loaded(&self.values, src), &hd)?;
        Ok(self.finish(NativeOp::Copy, dst, done))
    }

    fn not(&mut self, a: BitRow, out: BitRow) -> Result<&PackedBits> {
        self.operand(a)?;
        let ho = self.handle(out)?;
        let done = self.engine.not(loaded(&self.values, a), &ho)?;
        Ok(self.finish(NativeOp::Not, out, done))
    }

    fn logic(&mut self, op: LogicOp, ins: &[BitRow], out: BitRow) -> Result<&PackedBits> {
        for r in ins {
            self.operand(*r)?;
        }
        let ho = self.handle(out)?;
        let vals: Vec<&PackedBits> = ins.iter().map(|r| loaded(&self.values, *r)).collect();
        let done = self.engine.logic(op, &vals, &ho)?;
        Ok(self.finish(NativeOp::Logic(op, ins.len() as u8), out, done))
    }

    fn maj3(&mut self, a: BitRow, b: BitRow, c: BitRow, out: BitRow) -> Result<()> {
        if !self.engine.has_native_maj() {
            return derived_maj3(self, a, b, c, out);
        }
        for r in [a, b, c] {
            self.operand(r)?;
        }
        let ho = self.handle(out)?;
        let [va, vb, vc] = [a, b, c].map(|r| loaded(&self.values, r));
        let done = self.engine.maj3(va, vb, vc, &ho)?;
        self.finish(NativeOp::Maj, out, done);
        Ok(())
    }

    fn has_native_maj(&self) -> bool {
        self.engine.has_native_maj()
    }

    fn trace(&self) -> &OpTrace {
        &self.trace
    }

    fn trace_mut(&mut self) -> &mut OpTrace {
        &mut self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostSubstrate {
        HostSubstrate::new(8, 64)
    }

    fn put<S: Substrate>(s: &mut S, r: BitRow, bits: &[bool]) {
        s.write_packed(r, &PackedBits::from_bools(bits)).unwrap();
    }

    fn get<S: Substrate>(s: &mut S, r: BitRow) -> Vec<bool> {
        s.read_packed(r).unwrap().to_bools()
    }

    #[test]
    fn host_alloc_free_reuses_slots() {
        let mut s = host();
        let a = s.alloc().unwrap();
        let id = a.id();
        s.free(a);
        let b = s.alloc().unwrap();
        assert_eq!(b.id(), id, "freed slot is reused");
        // Double free must not corrupt the pool.
        s.free(b);
        s.free(b);
        let c = s.alloc().unwrap();
        let d = s.alloc().unwrap();
        assert_ne!(c.id(), d.id());
    }

    #[test]
    fn host_capacity_is_enforced() {
        let mut s = HostSubstrate::new(4, 2);
        let _a = s.alloc().unwrap();
        let _b = s.alloc().unwrap();
        assert!(s.alloc().is_err());
    }

    #[test]
    fn host_gates_are_exact() {
        let mut s = host();
        let a = s.alloc().unwrap();
        let b = s.alloc().unwrap();
        let out = s.alloc().unwrap();
        let da = [true, true, false, false, true, false, true, false];
        let db = [true, false, true, false, true, true, false, false];
        put(&mut s, a, &da);
        put(&mut s, b, &db);

        s.logic(LogicOp::Nand, &[a, b], out).unwrap();
        let got = get(&mut s, out);
        for i in 0..8 {
            assert_eq!(got[i], !(da[i] && db[i]), "lane {i}");
        }

        s.not(a, out).unwrap();
        let got = get(&mut s, out);
        for i in 0..8 {
            assert_eq!(got[i], !da[i]);
        }
    }

    #[test]
    fn host_rejects_bad_fan_in() {
        let mut s = host();
        let a = s.alloc().unwrap();
        let out = s.alloc().unwrap();
        assert!(s.logic(LogicOp::And, &[a], out).is_err());
        let many: Vec<BitRow> = (0..17).map(|_| s.alloc().unwrap()).collect();
        assert!(s.logic(LogicOp::And, &many, out).is_err());
    }

    #[test]
    fn host_write_packed_rejects_wrong_length() {
        let mut s = host();
        let a = s.alloc().unwrap();
        for len in [0, 7, 9, 64] {
            let err = s.write_packed(a, &PackedBits::ones(len)).unwrap_err();
            assert!(
                matches!(err, SimdramError::LaneMismatch { expected: 8, got } if got == len),
                "{err}"
            );
        }
        assert_eq!(
            s.read_packed(a).unwrap(),
            PackedBits::zeros(8),
            "row untouched"
        );
        assert_eq!(s.trace().len(), 1, "only the read is traced");
    }

    #[test]
    fn host_freed_handle_is_rejected() {
        let mut s = host();
        let a = s.alloc().unwrap();
        s.free(a);
        assert!(matches!(
            s.read_packed(a),
            Err(SimdramError::BadHandle { .. })
        ));
    }

    #[test]
    fn host_trace_records_everything() {
        let mut s = host();
        let a = s.alloc().unwrap();
        let b = s.alloc().unwrap();
        s.fill(a, true).unwrap();
        s.copy(a, b).unwrap();
        s.not(a, b).unwrap();
        assert_eq!(s.trace().len(), 3);
        assert_eq!(s.trace().in_dram_ops(), 2); // copy + not
        s.trace_mut().clear();
        assert!(s.trace().is_empty());
    }

    fn dram() -> DramSubstrate {
        let cfg = dram_core::config::table1().remove(0).with_modeled_cols(32);
        let engine = BulkEngine::new(
            fcdram::Fcdram::new(cfg),
            dram_core::BankId(0),
            dram_core::SubarrayId(0),
        )
        .unwrap();
        DramSubstrate::new(engine)
    }

    #[test]
    fn dram_round_trip_and_fan_in() {
        let mut s = dram();
        assert!(s.max_fan_in() >= 2);
        assert!(s.lanes() > 0);
        let a = s.alloc().unwrap();
        let bits: Vec<bool> = (0..s.lanes()).map(|i| i % 3 == 0).collect();
        put(&mut s, a, &bits);
        assert_eq!(get(&mut s, a), bits);
    }

    #[test]
    fn dram_gates_trace_predictions() {
        let mut s = dram();
        let a = s.alloc().unwrap();
        let b = s.alloc().unwrap();
        let out = s.alloc().unwrap();
        s.fill(a, true).unwrap();
        s.fill(b, false).unwrap();
        s.logic(LogicOp::Or, &[a, b], out).unwrap();
        let entry = *s.trace().entries().last().unwrap();
        assert!(matches!(entry.op, NativeOp::Logic(LogicOp::Or, 2)));
        assert!(entry.predicted_success > 0.5 && entry.predicted_success <= 1.0);
    }

    #[test]
    fn host_maj3_is_exact_majority() {
        let mut s = host();
        let rows: Vec<BitRow> = (0..4).map(|_| s.alloc().unwrap()).collect();
        let (a, b, c, out) = (rows[0], rows[1], rows[2], rows[3]);
        put(
            &mut s,
            a,
            &[false, false, true, true, false, false, true, true],
        );
        put(
            &mut s,
            b,
            &[false, true, false, true, false, true, false, true],
        );
        put(
            &mut s,
            c,
            &[false, false, false, false, true, true, true, true],
        );
        s.maj3(a, b, c, out).unwrap();
        assert_eq!(
            get(&mut s, out),
            vec![false, false, false, true, false, true, true, true]
        );
        assert!(!s.has_native_maj(), "host uses the derived circuit");
    }

    #[test]
    fn dram_native_maj3_executes_one_op() {
        let mut s = dram();
        assert!(s.has_native_maj(), "SK Hynix parts discover a 4-row set");
        let a = s.alloc().unwrap();
        let b = s.alloc().unwrap();
        let c = s.alloc().unwrap();
        let out = s.alloc().unwrap();
        s.fill(a, true).unwrap();
        s.fill(b, true).unwrap();
        s.fill(c, false).unwrap();
        s.trace_mut().clear();
        s.maj3(a, b, c, out).unwrap();
        let in_dram: Vec<_> = s
            .trace()
            .entries()
            .iter()
            .filter(|e| e.op.is_in_dram())
            .collect();
        assert_eq!(in_dram.len(), 1, "native MAJ is a single operation");
        assert!(matches!(in_dram[0].op, NativeOp::Maj));
        // MAJ(1,1,0) = 1 on most lanes.
        let got = get(&mut s, out);
        let ones = got.iter().filter(|x| **x).count();
        assert!(ones * 2 > got.len(), "{ones}/{} lanes correct", got.len());
    }

    #[test]
    fn dram_free_returns_rows_to_engine() {
        let mut s = dram();
        let before = {
            let mut n = 0;
            let mut handles = Vec::new();
            while let Ok(h) = s.alloc() {
                handles.push(h);
                n += 1;
            }
            for h in handles {
                s.free(h);
            }
            n
        };
        // After freeing everything, the same number of rows allocates.
        let mut again = 0;
        while s.alloc().is_ok() {
            again += 1;
        }
        assert_eq!(before, again);
    }
}
