//! Restoring long division on the bit-serial ALU.
//!
//! The classic hardware algorithm, one quotient bit per iteration
//! (MSB first): shift the running remainder left, bring in the next
//! dividend bit, trial-subtract the divisor, and keep the difference
//! when it does not borrow. Every step is built from the crate's
//! subtract/select primitives, which in turn are synthesized from the
//! paper's native gate set — long division in a DRAM array.
//!
//! Cost ≈ W · (W copies + `sub_full` (10·W+1) + NOT + `select`
//! (3·W+1)) ≈ 14·W² native ops for width W.
//!
//! Division by zero follows the hardware convention: quotient all-1s
//! (2^W − 1), remainder = dividend.
//!
//! # Examples
//!
//! ```
//! use simdram::{HostSubstrate, SimdVm};
//!
//! let mut vm = SimdVm::new(HostSubstrate::new(3, 1024))?;
//! let a = vm.alloc_uint(6)?;
//! let b = vm.alloc_uint(6)?;
//! vm.write_u64(&a, &[42, 7, 63])?;
//! vm.write_u64(&b, &[5, 7, 2])?;
//! let (q, r) = vm.div_rem(&a, &b)?;
//! assert_eq!(vm.read_u64(&q)?, vec![8, 1, 31]);
//! assert_eq!(vm.read_u64(&r)?, vec![2, 0, 1]);
//! # Ok::<(), simdram::SimdramError>(())
//! ```

use crate::error::Result;
use crate::layout::UintVec;
use crate::substrate::{BitRow, Substrate};
use crate::vm::SimdVm;

impl<S: Substrate> SimdVm<S> {
    /// Unsigned division with remainder: `(a / b, a % b)` per lane.
    ///
    /// Lanes where `b == 0` produce quotient `2^W − 1` and remainder
    /// `a` (the restoring-divider convention).
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, row exhaustion or device failure.
    pub fn div_rem(&mut self, a: &UintVec, b: &UintVec) -> Result<(UintVec, UintVec)> {
        let w = a.width();
        if b.width() != w {
            return Err(crate::error::SimdramError::WidthMismatch {
                expected: w,
                got: b.width(),
            });
        }
        let mut rem = self.alloc_uint(w)?;
        let mut quot_bits: Vec<Option<BitRow>> = vec![None; w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a_i
            let mut bits = Vec::with_capacity(w);
            let b0 = self.alloc_row()?;
            self.substrate_mut().copy(a.bit(i), b0)?;
            bits.push(b0);
            for j in 0..w.saturating_sub(1) {
                let r = self.alloc_row()?;
                self.substrate_mut().copy(rem.bit(j), r)?;
                bits.push(r);
            }
            let shifted = UintVec::from_bits(bits);
            self.free_uint(rem);

            // Trial subtract; keep the difference where it fits.
            let (diff, borrow) = self.sub_full(&shifted, b)?;
            let q = self.bit_not(borrow)?;
            self.release(borrow);
            rem = self.select(q, &diff, &shifted)?;
            self.free_uint(diff);
            self.free_uint(shifted);
            quot_bits[i] = Some(q);
        }
        let quot = UintVec::from_bits(quot_bits.into_iter().map(|q| q.expect("set")).collect());
        Ok((quot, rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::HostSubstrate;

    const LANES: usize = 8;

    fn vm() -> SimdVm<HostSubstrate> {
        SimdVm::new(HostSubstrate::new(LANES, 8192)).unwrap()
    }

    fn load(vm: &mut SimdVm<HostSubstrate>, width: usize, values: &[u64]) -> UintVec {
        let v = vm.alloc_uint(width).unwrap();
        vm.write_u64(&v, values).unwrap();
        v
    }

    #[test]
    fn div_rem_matches_u64() {
        let mut vm = vm();
        let av = [0u64, 1, 7, 100, 255, 200, 99, 128];
        let bv = [1u64, 1, 2, 7, 254, 200, 100, 3];
        let a = load(&mut vm, 8, &av);
        let b = load(&mut vm, 8, &bv);
        let (q, r) = vm.div_rem(&a, &b).unwrap();
        let qv = vm.read_u64(&q).unwrap();
        let rv = vm.read_u64(&r).unwrap();
        for i in 0..LANES {
            assert_eq!(qv[i], av[i] / bv[i], "quot lane {i}");
            assert_eq!(rv[i], av[i] % bv[i], "rem lane {i}");
        }
    }

    #[test]
    fn division_by_zero_follows_convention() {
        let mut vm = vm();
        let av = [0u64, 13, 255, 7, 1, 0, 200, 77];
        let bv = [0u64; LANES];
        let a = load(&mut vm, 8, &av);
        let b = load(&mut vm, 8, &bv);
        let (q, r) = vm.div_rem(&a, &b).unwrap();
        assert_eq!(
            vm.read_u64(&q).unwrap(),
            vec![255; LANES],
            "quotient all-1s"
        );
        assert_eq!(
            vm.read_u64(&r).unwrap(),
            av.to_vec(),
            "remainder = dividend"
        );
    }

    #[test]
    fn narrow_widths() {
        let mut vm = vm();
        let av = [0u64, 1, 2, 3, 3, 2, 1, 0];
        let bv = [1u64, 2, 3, 1, 2, 2, 1, 3];
        let a = load(&mut vm, 2, &av);
        let b = load(&mut vm, 2, &bv);
        let (q, r) = vm.div_rem(&a, &b).unwrap();
        let qv = vm.read_u64(&q).unwrap();
        let rv = vm.read_u64(&r).unwrap();
        for i in 0..LANES {
            assert_eq!(qv[i], av[i] / bv[i], "lane {i}");
            assert_eq!(rv[i], av[i] % bv[i], "lane {i}");
        }
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut vm = vm();
        let a = vm.alloc_uint(8).unwrap();
        let b = vm.alloc_uint(4).unwrap();
        assert!(vm.div_rem(&a, &b).is_err());
    }

    #[test]
    fn div_leaks_no_rows() {
        let mut vm = vm();
        let a = load(&mut vm, 6, &[9, 17, 33, 60, 2, 5, 63, 44]);
        let b = load(&mut vm, 6, &[3, 5, 4, 7, 1, 2, 9, 11]);
        let live = vm.substrate().live_rows();
        let (q, r) = vm.div_rem(&a, &b).unwrap();
        assert_eq!(
            vm.substrate().live_rows(),
            live + 12,
            "quot + rem rows only"
        );
        vm.free_uint(q);
        vm.free_uint(r);
        assert_eq!(vm.substrate().live_rows(), live);
    }
}
