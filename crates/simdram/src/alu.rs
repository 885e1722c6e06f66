//! Word-level SIMD arithmetic: addition, subtraction, comparison,
//! shifts, selection and population count.
//!
//! Every operation is bit-serial over a [`UintVec`]'s rows and runs
//! on all lanes at once. Costs (native ops, W = width):
//!
//! | op | native ops |
//! |---|---|
//! | `add` / `add_full` | 9·W |
//! | `sub` / `sub_full` | 10·W + 1 |
//! | `neg` | 10·W |
//! | `wnot` | W |
//! | `wand`/`wor`/`wxor`/`wxnor` | W / W / 3·W / 3·W |
//! | `eq` / `ne` | 3·W + tree / +1 |
//! | `lt`/`ge`/`gt`/`le` (unsigned) | ≈10·W |
//! | `shl`/`shr` by k | W (copies + fills) |
//! | `select` | 3·W + 1 |
//! | `popcount` | ≈9·W·log₂W (adder tree) |
//!
//! # Examples
//!
//! ```
//! use simdram::{HostSubstrate, SimdVm};
//!
//! let mut vm = SimdVm::new(HostSubstrate::new(4, 512))?;
//! let a = vm.alloc_uint(8)?;
//! let b = vm.alloc_uint(8)?;
//! vm.write_u64(&a, &[250, 1, 77, 0])?;
//! vm.write_u64(&b, &[10, 2, 77, 0])?;
//! let (sum, carry) = vm.add_full(&a, &b)?;
//! assert_eq!(vm.read_u64(&sum)?, vec![4, 3, 154, 0]); // 260 wraps
//! assert_eq!(vm.read_mask(carry)?, vec![true, false, false, false]);
//! let eq = vm.eq(&a, &b)?;
//! assert_eq!(vm.read_mask(eq)?, vec![false, false, true, true]);
//! # Ok::<(), simdram::SimdramError>(())
//! ```

use crate::error::{Result, SimdramError};
use crate::layout::UintVec;
use crate::substrate::{BitRow, Substrate};
use crate::vm::SimdVm;
use dram_core::LogicOp;

impl<S: Substrate> SimdVm<S> {
    fn check_same_width(a: &UintVec, b: &UintVec) -> Result<()> {
        if a.width() != b.width() {
            return Err(SimdramError::WidthMismatch {
                expected: a.width(),
                got: b.width(),
            });
        }
        Ok(())
    }

    /// Zero-extends `a` to `width` as a *view* sharing rows with `a`
    /// (high bits alias the shared zero row). Never free the view.
    fn zext_view(&self, a: &UintVec, width: usize) -> UintVec {
        debug_assert!(width >= a.width());
        let mut bits: Vec<BitRow> = a.bits().to_vec();
        bits.resize(width, self.zero_row());
        UintVec::from_bits(bits)
    }

    // ---------------------------------------------------------------
    // Elementwise word logic
    // ---------------------------------------------------------------

    /// Elementwise complement (`W` native NOTs).
    ///
    /// # Errors
    ///
    /// Fails on row exhaustion or device failure.
    pub(crate) fn wnot(&mut self, a: &UintVec) -> Result<UintVec> {
        let bits = a.bits().to_vec();
        let mut out = Vec::with_capacity(bits.len());
        for r in bits {
            out.push(self.bit_not(r)?);
        }
        Ok(UintVec::from_bits(out))
    }

    /// Elementwise AND across N vectors. Up to the substrate fan-in
    /// (16 on the paper's SK Hynix parts) this costs **one native op
    /// per bit regardless of N** — the many-input operations of §6
    /// surfacing at the word level; wider fan-ins tree-reduce.
    ///
    /// # Errors
    ///
    /// Fails on an empty list, width mismatch, row exhaustion or
    /// device failure.
    pub fn wand_n(&mut self, vs: &[&UintVec]) -> Result<UintVec> {
        let first = vs.first().ok_or(SimdramError::Empty)?;
        let w = first.width();
        for v in vs {
            if v.width() != w {
                return Err(SimdramError::WidthMismatch {
                    expected: w,
                    got: v.width(),
                });
            }
        }
        let mut out = Vec::with_capacity(w);
        for i in 0..w {
            let rows: Vec<BitRow> = vs.iter().map(|v| v.bit(i)).collect();
            out.push(self.bit_and(&rows)?);
        }
        Ok(UintVec::from_bits(out))
    }

    /// Elementwise XOR (3 native ops per bit).
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, row exhaustion or device failure.
    pub(crate) fn wxor(&mut self, a: &UintVec, b: &UintVec) -> Result<UintVec> {
        Self::check_same_width(a, b)?;
        let pairs: Vec<(BitRow, BitRow)> = a
            .bits()
            .iter()
            .copied()
            .zip(b.bits().iter().copied())
            .collect();
        let mut out = Vec::with_capacity(pairs.len());
        for (x, y) in pairs {
            out.push(self.xor(x, y)?);
        }
        Ok(UintVec::from_bits(out))
    }

    // ---------------------------------------------------------------
    // Addition / subtraction
    // ---------------------------------------------------------------

    /// Ripple-carry addition with carry-out: `(a + b) mod 2^W` plus
    /// the carry row. 9·W native ops.
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, row exhaustion or device failure.
    pub fn add_full(&mut self, a: &UintVec, b: &UintVec) -> Result<(UintVec, BitRow)> {
        Self::check_same_width(a, b)?;
        self.ripple_add(a, b, self.zero_row())
    }

    /// Wrapping addition: `(a + b) mod 2^W`.
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, row exhaustion or device failure.
    pub fn add(&mut self, a: &UintVec, b: &UintVec) -> Result<UintVec> {
        let (sum, carry) = self.add_full(a, b)?;
        self.release(carry);
        Ok(sum)
    }

    fn ripple_add(&mut self, a: &UintVec, b: &UintVec, cin: BitRow) -> Result<(UintVec, BitRow)> {
        let w = a.width();
        let kind = self.adder();
        let mut sum = Vec::with_capacity(w);
        let mut carry = cin;
        for i in 0..w {
            let (s, c) = match kind {
                crate::vm::AdderKind::FcGates => self.full_adder(a.bit(i), b.bit(i), carry)?,
                crate::vm::AdderKind::FusedMaj => {
                    self.full_adder_fused(a.bit(i), b.bit(i), carry)?
                }
            };
            self.release(carry); // no-op for the const cin
            carry = c;
            sum.push(s);
        }
        Ok((UintVec::from_bits(sum), carry))
    }

    /// Subtraction with borrow-out: `(a - b) mod 2^W` plus a borrow
    /// row that is 1 exactly when `a < b` (unsigned). 10·W + 1 ops.
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, row exhaustion or device failure.
    pub fn sub_full(&mut self, a: &UintVec, b: &UintVec) -> Result<(UintVec, BitRow)> {
        Self::check_same_width(a, b)?;
        let nb = self.wnot(b)?;
        let (diff, carry) = self.ripple_add(a, &nb, self.one_row())?;
        self.free_uint(nb);
        let borrow = self.bit_not(carry)?;
        self.release(carry);
        Ok((diff, borrow))
    }

    /// Wrapping subtraction: `(a - b) mod 2^W`.
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, row exhaustion or device failure.
    pub(crate) fn sub(&mut self, a: &UintVec, b: &UintVec) -> Result<UintVec> {
        let (diff, borrow) = self.sub_full(a, b)?;
        self.release(borrow);
        Ok(diff)
    }

    // ---------------------------------------------------------------
    // Comparison
    // ---------------------------------------------------------------

    /// Lane mask of `a == b` (XNOR per bit + AND tree).
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, row exhaustion or device failure.
    pub fn eq(&mut self, a: &UintVec, b: &UintVec) -> Result<BitRow> {
        Self::check_same_width(a, b)?;
        let pairs: Vec<(BitRow, BitRow)> = a
            .bits()
            .iter()
            .copied()
            .zip(b.bits().iter().copied())
            .collect();
        let mut xnors = Vec::with_capacity(pairs.len());
        for (x, y) in pairs {
            xnors.push(self.xnor(x, y)?);
        }
        let out = self.bit_and(&xnors)?;
        for r in xnors {
            self.release(r);
        }
        Ok(out)
    }

    /// Lane mask of unsigned `a < b` (the borrow of `a - b`).
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, row exhaustion or device failure.
    pub fn lt(&mut self, a: &UintVec, b: &UintVec) -> Result<BitRow> {
        let (diff, borrow) = self.sub_full(a, b)?;
        self.free_uint(diff);
        Ok(borrow)
    }

    /// Lane mask of unsigned `a >= b`.
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, row exhaustion or device failure.
    pub fn ge(&mut self, a: &UintVec, b: &UintVec) -> Result<BitRow> {
        let l = self.lt(a, b)?;
        let out = self.bit_not(l)?;
        self.release(l);
        Ok(out)
    }

    /// Lane mask of unsigned `a <= b`.
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, row exhaustion or device failure.
    pub fn le(&mut self, a: &UintVec, b: &UintVec) -> Result<BitRow> {
        self.ge(b, a)
    }

    // ---------------------------------------------------------------
    // Shifts and selection
    // ---------------------------------------------------------------

    /// Logical left shift by a constant `k` (same width; top bits
    /// drop, zeros shift in). Row copies only — no gate logic.
    ///
    /// # Errors
    ///
    /// Fails on row exhaustion or device failure.
    pub fn shl(&mut self, a: &UintVec, k: usize) -> Result<UintVec> {
        let w = a.width();
        let mut bits = Vec::with_capacity(w);
        for i in 0..w {
            let r = self.alloc_row()?;
            if i < k.min(w) {
                self.substrate_mut().fill(r, false)?;
            } else {
                self.substrate_mut().copy(a.bit(i - k), r)?;
            }
            bits.push(r);
        }
        Ok(UintVec::from_bits(bits))
    }

    /// Logical right shift by a constant `k`.
    ///
    /// # Errors
    ///
    /// Fails on row exhaustion or device failure.
    pub fn shr(&mut self, a: &UintVec, k: usize) -> Result<UintVec> {
        let w = a.width();
        let mut bits = Vec::with_capacity(w);
        for i in 0..w {
            let r = self.alloc_row()?;
            if i + k < w {
                self.substrate_mut().copy(a.bit(i + k), r)?;
            } else {
                self.substrate_mut().fill(r, false)?;
            }
            bits.push(r);
        }
        Ok(UintVec::from_bits(bits))
    }

    /// Per-lane selection: `sel ? a : b` (3·W + 1 native ops; the
    /// selector's complement is computed once and shared).
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, row exhaustion or device failure.
    pub fn select(&mut self, sel: BitRow, a: &UintVec, b: &UintVec) -> Result<UintVec> {
        Self::check_same_width(a, b)?;
        let nsel = self.bit_not(sel)?;
        let pairs: Vec<(BitRow, BitRow)> = a
            .bits()
            .iter()
            .copied()
            .zip(b.bits().iter().copied())
            .collect();
        let mut out = Vec::with_capacity(pairs.len());
        for (x, y) in pairs {
            let ta = self.alloc_row()?;
            self.substrate_mut().logic(LogicOp::And, &[sel, x], ta)?;
            let tb = self.alloc_row()?;
            self.substrate_mut().logic(LogicOp::And, &[nsel, y], tb)?;
            let r = self.alloc_row()?;
            self.substrate_mut().logic(LogicOp::Or, &[ta, tb], r)?;
            self.release(ta);
            self.release(tb);
            out.push(r);
        }
        self.release(nsel);
        Ok(UintVec::from_bits(out))
    }

    // ---------------------------------------------------------------
    // Population count
    // ---------------------------------------------------------------

    /// Per-lane population count of `a`'s bits, as a
    /// ⌈log₂(W+1)⌉-or-wider vector (a divide-and-conquer adder tree).
    ///
    /// # Errors
    ///
    /// Fails on row exhaustion or device failure.
    pub fn popcount(&mut self, a: &UintVec) -> Result<UintVec> {
        let bits = a.bits().to_vec();
        self.popcount_bits(&bits)
    }

    fn popcount_bits(&mut self, bits: &[BitRow]) -> Result<UintVec> {
        match bits.len() {
            0 => Err(SimdramError::Empty),
            1 => {
                let r = self.alloc_row()?;
                self.substrate_mut().copy(bits[0], r)?;
                Ok(UintVec::from_bits(vec![r]))
            }
            n => {
                let (lo, hi) = bits.split_at(n / 2);
                let l = self.popcount_bits(lo)?;
                let h = self.popcount_bits(hi)?;
                let w = l.width().max(h.width());
                let lv = self.zext_view(&l, w);
                let hv = self.zext_view(&h, w);
                let (sum, carry) = self.add_full(&lv, &hv)?;
                self.free_uint(l);
                self.free_uint(h);
                let mut out = sum.into_bits();
                out.push(carry);
                Ok(UintVec::from_bits(out))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::HostSubstrate;

    const LANES: usize = 8;

    fn vm() -> SimdVm<HostSubstrate> {
        SimdVm::new(HostSubstrate::new(LANES, 4096)).unwrap()
    }

    fn load(vm: &mut SimdVm<HostSubstrate>, width: usize, values: &[u64]) -> UintVec {
        let v = vm.alloc_uint(width).unwrap();
        vm.write_u64(&v, values).unwrap();
        v
    }

    const A: [u64; LANES] = [0, 1, 2, 100, 200, 254, 255, 77];
    const B: [u64; LANES] = [0, 255, 3, 50, 200, 1, 255, 78];

    #[test]
    fn add_wraps_like_u8() {
        let mut vm = vm();
        let a = load(&mut vm, 8, &A);
        let b = load(&mut vm, 8, &B);
        let s = vm.add(&a, &b).unwrap();
        let got = vm.read_u64(&s).unwrap();
        for i in 0..LANES {
            assert_eq!(got[i], (A[i] + B[i]) & 0xFF, "lane {i}");
        }
    }

    #[test]
    fn add_full_exposes_carry() {
        let mut vm = vm();
        let a = load(&mut vm, 8, &A);
        let b = load(&mut vm, 8, &B);
        let (_, carry) = vm.add_full(&a, &b).unwrap();
        let c = vm.read_mask(carry).unwrap();
        for i in 0..LANES {
            assert_eq!(c[i], A[i] + B[i] > 255, "lane {i}");
        }
    }

    #[test]
    fn sub_wraps_and_borrows() {
        let mut vm = vm();
        let a = load(&mut vm, 8, &A);
        let b = load(&mut vm, 8, &B);
        let (d, borrow) = vm.sub_full(&a, &b).unwrap();
        let got = vm.read_u64(&d).unwrap();
        let bo = vm.read_mask(borrow).unwrap();
        for i in 0..LANES {
            assert_eq!(got[i], A[i].wrapping_sub(B[i]) & 0xFF, "lane {i}");
            assert_eq!(bo[i], A[i] < B[i], "borrow lane {i}");
        }
    }

    #[test]
    fn neg_is_twos_complement() {
        let mut vm = vm();
        let a = load(&mut vm, 8, &A);
        let zero = vm.const_uint(8, 0).unwrap();
        let n = vm.sub(&zero, &a).unwrap();
        let got = vm.read_u64(&n).unwrap();
        for i in 0..LANES {
            assert_eq!(got[i], A[i].wrapping_neg() & 0xFF, "lane {i}");
        }
    }

    #[test]
    fn word_logic_matches() {
        let mut vm = vm();
        let a = load(&mut vm, 8, &A);
        let b = load(&mut vm, 8, &B);
        let x = vm.wxor(&a, &b).unwrap();
        let c = vm.wnot(&a).unwrap();
        assert_eq!(
            vm.read_u64(&x).unwrap(),
            A.iter().zip(&B).map(|(a, b)| a ^ b).collect::<Vec<_>>()
        );
        assert_eq!(
            vm.read_u64(&c).unwrap(),
            A.iter().map(|a| !a & 0xFF).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nary_word_logic_matches_and_costs_one_op_per_bit() {
        let mut vm = vm();
        let data: Vec<[u64; LANES]> = (0..16u64)
            .map(|k| {
                let mut row = [0u64; LANES];
                for (i, r) in row.iter_mut().enumerate() {
                    *r = dram_core::math::mix2(k, i as u64) & 0xFF;
                }
                row
            })
            .collect();
        let vecs: Vec<UintVec> = data.iter().map(|d| load(&mut vm, 8, d)).collect();
        let refs: Vec<&UintVec> = vecs.iter().collect();

        vm.clear_trace();
        let and = vm.wand_n(&refs).unwrap();
        assert_eq!(
            vm.trace().in_dram_ops(),
            8,
            "16 vectors AND at fan-in 16 = one native op per bit"
        );
        let andv = vm.read_u64(&and).unwrap();
        for i in 0..LANES {
            let expect_and = data.iter().fold(0xFFu64, |acc, d| acc & d[i]);
            assert_eq!(andv[i], expect_and, "and lane {i}");
        }
    }

    #[test]
    fn nary_word_logic_validates_inputs() {
        let mut vm = vm();
        assert!(matches!(vm.wand_n(&[]), Err(SimdramError::Empty)));
        let a = vm.alloc_uint(8).unwrap();
        let b = vm.alloc_uint(4).unwrap();
        assert!(matches!(
            vm.wand_n(&[&a, &b]),
            Err(SimdramError::WidthMismatch {
                expected: 8,
                got: 4
            })
        ));
        // A single vector reduces to a copy of itself.
        vm.write_u64(&a, &A).unwrap();
        let only = vm.wand_n(&[&a]).unwrap();
        assert_eq!(vm.read_u64(&only).unwrap(), A.to_vec());
    }

    #[test]
    fn comparisons_match() {
        let mut vm = vm();
        let a = load(&mut vm, 8, &A);
        let b = load(&mut vm, 8, &B);
        let eq = vm.eq(&a, &b).unwrap();
        let lt = vm.lt(&a, &b).unwrap();
        let ge = vm.ge(&a, &b).unwrap();
        let gt = vm.lt(&b, &a).unwrap();
        let le = vm.le(&a, &b).unwrap();
        let eqv = vm.read_mask(eq).unwrap();
        let (ltv, gev) = (vm.read_mask(lt).unwrap(), vm.read_mask(ge).unwrap());
        let (gtv, lev) = (vm.read_mask(gt).unwrap(), vm.read_mask(le).unwrap());
        for i in 0..LANES {
            assert_eq!(eqv[i], A[i] == B[i], "eq lane {i}");
            assert_eq!(ltv[i], A[i] < B[i], "lt lane {i}");
            assert_eq!(gev[i], A[i] >= B[i], "ge lane {i}");
            assert_eq!(gtv[i], A[i] > B[i], "gt lane {i}");
            assert_eq!(lev[i], A[i] <= B[i], "le lane {i}");
        }
    }

    #[test]
    fn shifts_match() {
        let mut vm = vm();
        let a = load(&mut vm, 8, &A);
        for k in [0usize, 1, 3, 7, 8, 12] {
            let l = vm.shl(&a, k).unwrap();
            let r = vm.shr(&a, k).unwrap();
            let lv = vm.read_u64(&l).unwrap();
            let rv = vm.read_u64(&r).unwrap();
            for i in 0..LANES {
                let shl = if k >= 8 { 0 } else { (A[i] << k) & 0xFF };
                let shr = if k >= 8 { 0 } else { A[i] >> k };
                assert_eq!(lv[i], shl, "shl {k} lane {i}");
                assert_eq!(rv[i], shr, "shr {k} lane {i}");
            }
            vm.free_uint(l);
            vm.free_uint(r);
        }
    }

    #[test]
    fn select_picks_per_lane() {
        let mut vm = vm();
        let a = load(&mut vm, 8, &A);
        let b = load(&mut vm, 8, &B);
        let sel = vm.alloc_row().unwrap();
        let mask = [true, false, true, false, true, false, true, false];
        vm.write_mask(sel, &mask).unwrap();
        let s = vm.select(sel, &a, &b).unwrap();
        let got = vm.read_u64(&s).unwrap();
        for i in 0..LANES {
            assert_eq!(got[i], if mask[i] { A[i] } else { B[i] }, "lane {i}");
        }
    }

    #[test]
    fn popcount_matches() {
        let mut vm = vm();
        let a = load(&mut vm, 8, &A);
        let p = vm.popcount(&a).unwrap();
        let got = vm.read_u64(&p).unwrap();
        for i in 0..LANES {
            assert_eq!(got[i], u64::from(A[i].count_ones()), "lane {i}");
        }
        assert!(
            p.width() >= 4,
            "8-bit popcount needs at least 4 result bits"
        );
    }

    #[test]
    fn popcount_single_bit() {
        let mut vm = vm();
        let a = load(&mut vm, 1, &[1, 0, 1, 0, 1, 1, 0, 0]);
        let p = vm.popcount(&a).unwrap();
        assert_eq!(p.width(), 1);
        assert_eq!(vm.read_u64(&p).unwrap(), vec![1, 0, 1, 0, 1, 1, 0, 0]);
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let mut vm = vm();
        let a = vm.alloc_uint(8).unwrap();
        let b = vm.alloc_uint(4).unwrap();
        assert!(matches!(
            vm.add(&a, &b),
            Err(SimdramError::WidthMismatch {
                expected: 8,
                got: 4
            })
        ));
        assert!(vm.eq(&a, &b).is_err());
        assert!(vm.select(vm.zero_row(), &a, &b).is_err());
    }

    #[test]
    fn arithmetic_leaks_no_rows() {
        let mut vm = vm();
        let a = load(&mut vm, 8, &A);
        let b = load(&mut vm, 8, &B);
        let live = vm.substrate().live_rows();
        let s = vm.add(&a, &b).unwrap();
        assert_eq!(
            vm.substrate().live_rows(),
            live + 8,
            "add leaves only the sum"
        );
        vm.free_uint(s);
        let (d, borrow) = vm.sub_full(&a, &b).unwrap();
        assert_eq!(
            vm.substrate().live_rows(),
            live + 9,
            "sub leaves diff + borrow"
        );
        vm.free_uint(d);
        vm.release(borrow);
        let p = vm.popcount(&a).unwrap();
        let pw = p.width();
        assert_eq!(
            vm.substrate().live_rows(),
            live + pw,
            "popcount leaves its result"
        );
        vm.free_uint(p);
        assert_eq!(vm.substrate().live_rows(), live);
    }

    #[test]
    fn const_uint_arithmetic() {
        let mut vm = vm();
        let a = load(&mut vm, 8, &A);
        let ten = vm.const_uint(8, 10).unwrap();
        let s = vm.add(&a, &ten).unwrap();
        let got = vm.read_u64(&s).unwrap();
        for i in 0..LANES {
            assert_eq!(got[i], (A[i] + 10) & 0xFF);
        }
    }
}
