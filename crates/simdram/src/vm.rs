//! The SIMD virtual machine: vector lifecycle and host I/O.
//!
//! [`SimdVm`] owns a [`Substrate`] plus two shared constant rows
//! (all-0 and all-1). Gate synthesis lives in [`crate::gates`], word
//! arithmetic in [`crate::alu`] and [`crate::mul`]; this module is the
//! allocation and transport layer they build on.

use crate::error::{Result, SimdramError};
use crate::layout::{check_width, UintVec};
use crate::substrate::{BitRow, Substrate};
use crate::trace::OpTrace;
use fcdram::PackedBits;
use serde::{Deserialize, Serialize};

/// Which full-adder circuit word arithmetic ripples through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdderKind {
    /// Carry from the functionally-complete gate set (9 native ops per
    /// bit; works on every part).
    #[default]
    FcGates,
    /// Carry from [`Substrate::maj3`] (7 native ops per bit on parts
    /// with Ambit-style in-subarray majority; the §2.2 baseline
    /// lineage).
    FusedMaj,
}

/// A batch of rows allocated together by [`SimdVm::lease_rows`] and
/// returned together by [`SimdVm::end_lease`].
///
/// Deliberately not `Copy`/`Clone`: the lease is the single owner of
/// its rows, so ending it is the only way to double-free-safely return
/// them.
#[derive(Debug)]
pub struct RowLease {
    rows: Vec<BitRow>,
}

impl RowLease {
    /// The leased rows, in allocation order.
    pub fn rows(&self) -> &[BitRow] {
        &self.rows
    }

    /// The `i`-th leased row.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn row(&self, i: usize) -> BitRow {
        self.rows[i]
    }

    /// Number of rows in the lease.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the lease is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// A bit-serial SIMD machine over an FCDRAM-style substrate.
///
/// # Examples
///
/// ```
/// use simdram::{HostSubstrate, SimdVm};
///
/// let mut vm = SimdVm::new(HostSubstrate::new(4, 64))?;
/// let a = vm.alloc_uint(8)?;
/// vm.write_u64(&a, &[1, 2, 3, 4])?;
/// assert_eq!(vm.read_u64(&a)?, vec![1, 2, 3, 4]);
/// # Ok::<(), simdram::SimdramError>(())
/// ```
#[derive(Debug)]
pub struct SimdVm<S: Substrate> {
    sub: S,
    zero: BitRow,
    one: BitRow,
    adder: AdderKind,
}

impl<S: Substrate> SimdVm<S> {
    /// Wraps a substrate, allocating the shared constant rows.
    ///
    /// # Errors
    ///
    /// Fails if the substrate cannot allocate two rows.
    pub fn new(mut sub: S) -> Result<Self> {
        let zero = sub.alloc()?;
        sub.fill(zero, false)?;
        let one = sub.alloc()?;
        sub.fill(one, true)?;
        Ok(SimdVm {
            sub,
            zero,
            one,
            adder: AdderKind::default(),
        })
    }

    /// Selects the full-adder circuit used by word arithmetic
    /// ([`crate::alu`] addition/subtraction, [`crate::mul`]).
    pub fn set_adder(&mut self, kind: AdderKind) {
        self.adder = kind;
    }

    /// The currently selected adder circuit.
    pub(crate) fn adder(&self) -> AdderKind {
        self.adder
    }

    /// Number of SIMD lanes.
    pub fn lanes(&self) -> usize {
        self.sub.lanes()
    }

    /// The shared all-0 constant row. Never freed by [`Self::release`].
    pub fn zero_row(&self) -> BitRow {
        self.zero
    }

    /// The shared all-1 constant row. Never freed by [`Self::release`].
    pub fn one_row(&self) -> BitRow {
        self.one
    }

    /// Whether `r` is one of the shared constant rows.
    fn is_const_row(&self, r: BitRow) -> bool {
        r == self.zero || r == self.one
    }

    /// Borrow the substrate (e.g., to inspect the engine).
    pub fn substrate(&self) -> &S {
        &self.sub
    }

    /// Mutable access to the substrate (e.g., to set repetition or
    /// temperature on [`crate::DramSubstrate`]).
    pub fn substrate_mut(&mut self) -> &mut S {
        &mut self.sub
    }

    /// Applies a [`dram_core::SimConfig`] (fidelity + temperature) to
    /// the substrate device. A no-op on the host golden model.
    pub fn configure(&mut self, cfg: dram_core::SimConfig) {
        self.sub.configure_sim(cfg);
    }

    /// The accumulated native-operation trace.
    pub fn trace(&self) -> &OpTrace {
        self.sub.trace()
    }

    /// Clears the trace (convenience for measured sections).
    pub fn clear_trace(&mut self) {
        self.sub.trace_mut().clear();
    }

    // ---------------------------------------------------------------
    // Row lifecycle
    // ---------------------------------------------------------------

    /// Allocates one raw row (a 1-bit-per-lane mask).
    ///
    /// # Errors
    ///
    /// Fails when the substrate's row pool is exhausted.
    pub fn alloc_row(&mut self) -> Result<BitRow> {
        self.sub.alloc()
    }

    /// Releases a row; the shared constant rows are silently kept.
    pub fn release(&mut self, r: BitRow) {
        if !self.is_const_row(r) {
            self.sub.free(r);
        }
    }

    /// Writes one bit per lane into a mask row (packed on the way in).
    ///
    /// # Errors
    ///
    /// Fails on lane-count mismatch or an invalid handle.
    pub fn write_mask(&mut self, r: BitRow, bits: &[bool]) -> Result<()> {
        self.sub.write_packed(r, &PackedBits::from_bools(bits))
    }

    /// Reads a mask row back (unpacked on the way out).
    ///
    /// # Errors
    ///
    /// Fails on an invalid handle.
    pub fn read_mask(&mut self, r: BitRow) -> Result<Vec<bool>> {
        Ok(self.sub.read_packed(r)?.to_bools())
    }

    /// Leases `n` rows at once, all-or-nothing: when the pool cannot
    /// satisfy the full request, every partially-allocated row is
    /// returned before the error propagates, so a failed lease leaves
    /// the substrate exactly as it was.
    ///
    /// This is the scheduler-facing allocation hook: a job's operand
    /// staging rows are taken as one lease and returned as one lease
    /// ([`Self::end_lease`]), which keeps row accounting per *job*
    /// rather than per row.
    ///
    /// # Errors
    ///
    /// Fails when fewer than `n` rows are available.
    pub fn lease_rows(&mut self, n: usize) -> Result<RowLease> {
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            match self.sub.alloc() {
                Ok(r) => rows.push(r),
                Err(e) => {
                    for r in rows {
                        self.sub.free(r);
                    }
                    return Err(e);
                }
            }
        }
        Ok(RowLease { rows })
    }

    /// Returns every row of a lease to the pool (shared constant rows,
    /// should they ever appear in a lease, are kept).
    pub fn end_lease(&mut self, lease: RowLease) {
        for r in lease.rows {
            self.release(r);
        }
    }

    // ---------------------------------------------------------------
    // Integer-vector lifecycle
    // ---------------------------------------------------------------

    /// Allocates a `width`-bit vector, initialized to zero.
    ///
    /// # Errors
    ///
    /// Fails for widths outside `1..=64` or when rows run out.
    pub fn alloc_uint(&mut self, width: usize) -> Result<UintVec> {
        check_width(width)?;
        let mut bits = Vec::with_capacity(width);
        for _ in 0..width {
            let r = self.sub.alloc()?;
            self.sub.fill(r, false)?;
            bits.push(r);
        }
        Ok(UintVec::from_bits(bits))
    }

    /// A `width`-bit vector whose every lane holds `value`, built
    /// entirely from the shared constant rows — it costs no storage
    /// and must *not* be written to (use [`Self::alloc_uint`] +
    /// [`Self::write_u64`] for data).
    ///
    /// # Errors
    ///
    /// Fails when `value` does not fit in `width` bits.
    pub fn const_uint(&mut self, width: usize, value: u64) -> Result<UintVec> {
        check_width(width)?;
        if width < 64 && value >> width != 0 {
            return Err(SimdramError::ValueOverflow { value, width });
        }
        let bits = (0..width)
            .map(|i| {
                if (value >> i) & 1 == 1 {
                    self.one
                } else {
                    self.zero
                }
            })
            .collect();
        Ok(UintVec::from_bits(bits))
    }

    /// Frees a vector's rows (shared constant rows are kept).
    pub fn free_uint(&mut self, v: UintVec) {
        for r in v.into_bits() {
            self.release(r);
        }
    }

    /// Writes one `u64` per lane (bit-transposing on the way in).
    ///
    /// # Errors
    ///
    /// Fails on lane-count mismatch or value overflow.
    pub fn write_u64(&mut self, v: &UintVec, values: &[u64]) -> Result<()> {
        if values.len() != self.lanes() {
            return Err(SimdramError::LaneMismatch {
                expected: self.lanes(),
                got: values.len(),
            });
        }
        let rows = crate::layout::transpose_to_packed(values, v.width())?;
        for (i, row) in rows.iter().enumerate() {
            self.sub.write_packed(v.bit(i), row)?;
        }
        Ok(())
    }

    /// Reads the vector back as one `u64` per lane.
    ///
    /// # Errors
    ///
    /// Fails on invalid handles.
    pub fn read_u64(&mut self, v: &UintVec) -> Result<Vec<u64>> {
        let rows: Vec<PackedBits> = v
            .bits()
            .iter()
            .map(|r| self.sub.read_packed(*r))
            .collect::<Result<_>>()?;
        Ok(crate::layout::transpose_from_packed(&rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::HostSubstrate;

    fn vm() -> SimdVm<HostSubstrate> {
        SimdVm::new(HostSubstrate::new(4, 256)).unwrap()
    }

    #[test]
    fn const_rows_hold_their_values() {
        let mut vm = vm();
        let z = vm.zero_row();
        let o = vm.one_row();
        assert_eq!(vm.read_mask(z).unwrap(), vec![false; 4]);
        assert_eq!(vm.read_mask(o).unwrap(), vec![true; 4]);
        assert!(vm.is_const_row(z) && vm.is_const_row(o));
    }

    #[test]
    fn release_keeps_const_rows() {
        let mut vm = vm();
        let z = vm.zero_row();
        vm.release(z);
        assert_eq!(vm.read_mask(z).unwrap(), vec![false; 4], "still readable");
    }

    #[test]
    fn uint_round_trip() {
        let mut vm = vm();
        let v = vm.alloc_uint(8).unwrap();
        vm.write_u64(&v, &[0, 1, 200, 255]).unwrap();
        assert_eq!(vm.read_u64(&v).unwrap(), vec![0, 1, 200, 255]);
        vm.free_uint(v);
    }

    #[test]
    fn alloc_uint_is_zeroed() {
        let mut vm = vm();
        let v = vm.alloc_uint(5).unwrap();
        assert_eq!(vm.read_u64(&v).unwrap(), vec![0; 4]);
    }

    #[test]
    fn const_uint_uses_shared_rows_only() {
        let mut vm = vm();
        let c = vm.const_uint(6, 0b101001).unwrap();
        for (i, r) in c.bits().iter().enumerate() {
            assert!(vm.is_const_row(*r), "bit {i} must be a shared const row");
        }
        assert_eq!(vm.read_u64(&c).unwrap(), vec![0b101001; 4]);
        // Freeing a const vector must not free the shared rows.
        let live_before = vm.substrate().live_rows();
        vm.free_uint(c);
        assert_eq!(vm.substrate().live_rows(), live_before);
    }

    #[test]
    fn const_uint_overflow_rejected() {
        let mut vm = vm();
        assert!(matches!(
            vm.const_uint(3, 8),
            Err(SimdramError::ValueOverflow { value: 8, width: 3 })
        ));
    }

    #[test]
    fn write_u64_checks_lanes_and_overflow() {
        let mut vm = vm();
        let v = vm.alloc_uint(4).unwrap();
        assert!(matches!(
            vm.write_u64(&v, &[1, 2, 3]),
            Err(SimdramError::LaneMismatch {
                expected: 4,
                got: 3
            })
        ));
        assert!(matches!(
            vm.write_u64(&v, &[1, 2, 3, 16]),
            Err(SimdramError::ValueOverflow {
                value: 16,
                width: 4
            })
        ));
    }

    #[test]
    fn free_uint_returns_rows() {
        let mut vm = vm();
        let live0 = vm.substrate().live_rows();
        let v = vm.alloc_uint(8).unwrap();
        assert_eq!(vm.substrate().live_rows(), live0 + 8);
        vm.free_uint(v);
        assert_eq!(vm.substrate().live_rows(), live0);
    }

    #[test]
    fn width_validation() {
        let mut vm = vm();
        assert!(vm.alloc_uint(0).is_err());
        assert!(vm.alloc_uint(65).is_err());
        assert!(vm.alloc_uint(64).is_ok());
    }

    #[test]
    fn row_lease_round_trips() {
        let mut vm = vm();
        let live0 = vm.substrate().live_rows();
        let lease = vm.lease_rows(5).unwrap();
        assert_eq!(lease.len(), 5);
        assert!(!lease.is_empty());
        assert_eq!(lease.row(0), lease.rows()[0]);
        assert_eq!(vm.substrate().live_rows(), live0 + 5);
        vm.end_lease(lease);
        assert_eq!(vm.substrate().live_rows(), live0);
    }

    #[test]
    fn failed_lease_leaves_no_rows_behind() {
        // Capacity 8 minus the two shared constant rows: 6 leasable.
        let mut vm = SimdVm::new(crate::HostSubstrate::new(4, 8)).unwrap();
        let live0 = vm.substrate().live_rows();
        assert!(vm.lease_rows(7).is_err(), "over-capacity lease fails");
        assert_eq!(
            vm.substrate().live_rows(),
            live0,
            "partial allocation rolled back"
        );
        let lease = vm.lease_rows(6).unwrap();
        vm.end_lease(lease);
        assert_eq!(vm.substrate().live_rows(), live0);
    }
}
