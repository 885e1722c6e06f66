//! Shift-add multiplication (and squaring) on the bit-serial ALU.
//!
//! `mul` produces the full `Wa+Wb`-bit product with the classic
//! partial-product accumulation: for every multiplier bit `b_j`, AND
//! it into each multiplicand bit (the paper's native 2-input AND does
//! one partial-product row per gate), then ripple-add the shifted
//! partial into the accumulator. Cost ≈ `Wa·Wb` ANDs +
//! `Wb · 9·(Wa+Wb)` adder gates — quadratic, as in SIMDRAM, but every
//! gate processes *all lanes at once*, which is where the throughput
//! comes from.

use crate::error::{Result, SimdramError};
use crate::layout::UintVec;
use crate::substrate::{BitRow, Substrate};
use crate::vm::SimdVm;
use dram_core::LogicOp;

impl<S: Substrate> SimdVm<S> {
    /// Full-width product: `a × b` as a `(Wa + Wb)`-bit vector.
    ///
    /// # Errors
    ///
    /// Fails when `Wa + Wb > 64`, on row exhaustion, or on device
    /// failure.
    pub fn mul(&mut self, a: &UintVec, b: &UintVec) -> Result<UintVec> {
        let (wa, wb) = (a.width(), b.width());
        let w = wa + wb;
        if w > crate::layout::MAX_WIDTH {
            return Err(SimdramError::WidthUnsupported {
                width: w,
                max: crate::layout::MAX_WIDTH,
            });
        }
        // acc starts as the zero-valued product.
        let mut acc = self.alloc_uint(w)?;
        for j in 0..wb {
            // Partial product: (a & b_j) << j, zero-padded to w bits.
            let bj = b.bit(j);
            let mut pbits: Vec<BitRow> = Vec::with_capacity(w);
            for _ in 0..j {
                pbits.push(self.zero_row());
            }
            let mut owned = Vec::with_capacity(wa);
            for i in 0..wa {
                let r = self.alloc_row()?;
                self.substrate_mut()
                    .logic(LogicOp::And, &[a.bit(i), bj], r)?;
                owned.push(r);
                pbits.push(r);
            }
            while pbits.len() < w {
                pbits.push(self.zero_row());
            }
            let partial = UintVec::from_bits(pbits);
            let next = self.add(&acc, &partial)?;
            for r in owned {
                self.release(r);
            }
            self.free_uint(acc);
            acc = next;
        }
        Ok(acc)
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
    fn mul_4x4_matches() {
        let mut vm = vm();
        let av = [0u64, 1, 2, 3, 7, 9, 15, 12];
        let bv = [0u64, 15, 3, 5, 7, 11, 15, 0];
        let a = load(&mut vm, 4, &av);
        let b = load(&mut vm, 4, &bv);
        let p = vm.mul(&a, &b).unwrap();
        assert_eq!(p.width(), 8);
        let got = vm.read_u64(&p).unwrap();
        for i in 0..LANES {
            assert_eq!(got[i], av[i] * bv[i], "lane {i}");
        }
    }

    #[test]
    fn mul_mixed_widths() {
        let mut vm = vm();
        let av = [0u64, 1, 5, 63, 63, 17, 33, 2];
        let bv = [0u64, 7, 3, 7, 1, 5, 2, 6];
        let a = load(&mut vm, 6, &av);
        let b = load(&mut vm, 3, &bv);
        let p = vm.mul(&a, &b).unwrap();
        assert_eq!(p.width(), 9);
        let got = vm.read_u64(&p).unwrap();
        for i in 0..LANES {
            assert_eq!(got[i], av[i] * bv[i], "lane {i}");
        }
    }

    #[test]
    fn square_matches() {
        let mut vm = vm();
        let av = [0u64, 1, 2, 3, 7, 9, 15, 12];
        let a = load(&mut vm, 4, &av);
        // `mul` never clobbers its inputs, so a vector may be both
        // operands.
        let s = vm.mul(&a, &a).unwrap();
        let got = vm.read_u64(&s).unwrap();
        for i in 0..LANES {
            assert_eq!(got[i], av[i] * av[i], "lane {i}");
        }
    }

    #[test]
    fn mul_width_overflow_rejected() {
        let mut vm = vm();
        let a = vm.alloc_uint(40).unwrap();
        let b = vm.alloc_uint(30).unwrap();
        assert!(matches!(
            vm.mul(&a, &b),
            Err(SimdramError::WidthUnsupported { width: 70, .. })
        ));
    }

    #[test]
    fn mul_leaks_no_rows() {
        let mut vm = vm();
        let a = load(&mut vm, 4, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = load(&mut vm, 4, &[8, 7, 6, 5, 4, 3, 2, 1]);
        let live = vm.substrate().live_rows();
        let p = vm.mul(&a, &b).unwrap();
        assert_eq!(vm.substrate().live_rows(), live + p.width());
        vm.free_uint(p);
        assert_eq!(vm.substrate().live_rows(), live);
    }
}
