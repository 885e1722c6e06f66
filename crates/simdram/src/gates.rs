//! Gate synthesis from the native FCDRAM operation set.
//!
//! The substrate natively offers NOT and N-input AND/OR/NAND/NOR
//! (N ≤ 16). That set is functionally complete — the paper's headline
//! result — so every other gate is *synthesized* here. Each method
//! documents its cost in native operations; [`crate::cost`] turns
//! those counts into DDR4 commands, nanoseconds and picojoules.
//!
//! | gate | circuit | native ops |
//! |---|---|---|
//! | `bit_not` | NOT | 1 |
//! | `bit_and`/`or`/`nand`/`nor` (n≤fan-in) | native | 1 |
//! | n-input families beyond fan-in | tree | ⌈(n−1)/(f−1)⌉ |
//! | `xor` | AND(OR(a,b), NAND(a,b)) | 3 |
//! | `xnor` | OR(AND(a,b), NOR(a,b)) | 3 |
//! | `maj` | OR₃(AND(a,b), AND(a,c), AND(b,c)) | 4 |
//! | `mux` | OR(AND(s,a), AND(¬s,b)) | 4 |
//! | `half_adder` | xor + AND | 4 |
//! | `full_adder` | shared-subterm form below | 9 |
//!
//! All gates allocate their result row and free their temporaries;
//! inputs are never clobbered (the engine stages operands into
//! reserved rows, §6.2 of the paper).
//!
//! # Examples
//!
//! ```
//! use simdram::{HostSubstrate, SimdVm};
//!
//! let mut vm = SimdVm::new(HostSubstrate::new(4, 64))?;
//! let a = vm.alloc_row()?;
//! let b = vm.alloc_row()?;
//! vm.write_mask(a, &[true, true, false, false])?;
//! vm.write_mask(b, &[true, false, true, false])?;
//! let x = vm.xor(a, b)?;
//! assert_eq!(vm.read_mask(x)?, vec![false, true, true, false]);
//! # Ok::<(), simdram::SimdramError>(())
//! ```

use crate::error::{Result, SimdramError};
use crate::substrate::{BitRow, Substrate};
use crate::vm::SimdVm;
use dram_core::LogicOp;

impl<S: Substrate> SimdVm<S> {
    fn native(&mut self, op: LogicOp, ins: &[BitRow]) -> Result<BitRow> {
        let out = self.alloc_row()?;
        self.substrate_mut().logic(op, ins, out)?;
        Ok(out)
    }

    /// `¬a` — 1 native op (the paper's NOT, §5).
    ///
    /// # Errors
    ///
    /// Fails when rows run out or the device cannot execute.
    pub fn bit_not(&mut self, a: BitRow) -> Result<BitRow> {
        let out = self.alloc_row()?;
        self.substrate_mut().not(a, out)?;
        Ok(out)
    }

    /// N-input AND, tree-reduced past the native fan-in.
    ///
    /// # Errors
    ///
    /// Fails on an empty input list or row exhaustion.
    pub fn bit_and(&mut self, ins: &[BitRow]) -> Result<BitRow> {
        self.reduce(LogicOp::And, ins)
    }

    /// N-input OR, tree-reduced past the native fan-in.
    ///
    /// # Errors
    ///
    /// Fails on an empty input list or row exhaustion.
    pub fn bit_or(&mut self, ins: &[BitRow]) -> Result<BitRow> {
        self.reduce(LogicOp::Or, ins)
    }

    /// N-input NAND. Within the native fan-in this is 1 op; past it,
    /// an AND tree with the *final* stage executed as NAND.
    ///
    /// # Errors
    ///
    /// Fails on an empty input list or row exhaustion.
    pub fn bit_nand(&mut self, ins: &[BitRow]) -> Result<BitRow> {
        self.reduce_inverted(LogicOp::And, LogicOp::Nand, ins)
    }

    /// N-input NOR (dual of [`Self::bit_nand`]).
    ///
    /// # Errors
    ///
    /// Fails on an empty input list or row exhaustion.
    pub fn bit_nor(&mut self, ins: &[BitRow]) -> Result<BitRow> {
        self.reduce_inverted(LogicOp::Or, LogicOp::Nor, ins)
    }

    /// `a ⊕ b` = AND(OR(a,b), NAND(a,b)) — 3 native ops.
    ///
    /// # Errors
    ///
    /// Fails on row exhaustion or device failure.
    pub fn xor(&mut self, a: BitRow, b: BitRow) -> Result<BitRow> {
        let or_ab = self.native(LogicOp::Or, &[a, b])?;
        let nand_ab = self.native(LogicOp::Nand, &[a, b])?;
        let out = self.native(LogicOp::And, &[or_ab, nand_ab])?;
        self.release(or_ab);
        self.release(nand_ab);
        Ok(out)
    }

    /// `¬(a ⊕ b)` = OR(AND(a,b), NOR(a,b)) — 3 native ops.
    ///
    /// # Errors
    ///
    /// Fails on row exhaustion or device failure.
    pub(crate) fn xnor(&mut self, a: BitRow, b: BitRow) -> Result<BitRow> {
        let and_ab = self.native(LogicOp::And, &[a, b])?;
        let nor_ab = self.native(LogicOp::Nor, &[a, b])?;
        let out = self.native(LogicOp::Or, &[and_ab, nor_ab])?;
        self.release(and_ab);
        self.release(nor_ab);
        Ok(out)
    }

    /// Three-input majority = OR₃(AND(a,b), AND(a,c), AND(b,c)) —
    /// 4 native ops (the many-input OR keeps the final stage flat).
    ///
    /// # Errors
    ///
    /// Fails on row exhaustion or device failure.
    pub fn maj(&mut self, a: BitRow, b: BitRow, c: BitRow) -> Result<BitRow> {
        let ab = self.native(LogicOp::And, &[a, b])?;
        let ac = self.native(LogicOp::And, &[a, c])?;
        let bc = self.native(LogicOp::And, &[b, c])?;
        let out = self.native(LogicOp::Or, &[ab, ac, bc])?;
        self.release(ab);
        self.release(ac);
        self.release(bc);
        Ok(out)
    }

    /// Three-input majority through [`Substrate::maj3`]: one native
    /// operation on backends with Ambit-style in-subarray activation,
    /// the 4-gate derived circuit elsewhere.
    ///
    /// # Errors
    ///
    /// Fails on row exhaustion or device failure.
    pub fn maj_fused(&mut self, a: BitRow, b: BitRow, c: BitRow) -> Result<BitRow> {
        let out = self.alloc_row()?;
        self.substrate_mut().maj3(a, b, c, out)?;
        Ok(out)
    }

    /// `sel ? a : b` = OR(AND(sel,a), AND(¬sel,b)) — 4 native ops.
    ///
    /// # Errors
    ///
    /// Fails on row exhaustion or device failure.
    pub fn mux(&mut self, sel: BitRow, a: BitRow, b: BitRow) -> Result<BitRow> {
        let ns = self.bit_not(sel)?;
        let ta = self.native(LogicOp::And, &[sel, a])?;
        let tb = self.native(LogicOp::And, &[ns, b])?;
        let out = self.native(LogicOp::Or, &[ta, tb])?;
        self.release(ns);
        self.release(ta);
        self.release(tb);
        Ok(out)
    }

    /// Full adder — 9 native ops with shared subterms:
    ///
    /// ```text
    /// or_ab   = OR(a,b)        nand_ab = NAND(a,b)
    /// x       = AND(or_ab, nand_ab)            // a ⊕ b
    /// sum     = AND(OR(x,cin), NAND(x,cin))    // x ⊕ cin
    /// cout    = OR(NOT(nand_ab), AND(cin, or_ab))  // MAJ(a,b,cin)
    /// ```
    ///
    /// # Errors
    ///
    /// Fails on row exhaustion or device failure.
    pub(crate) fn full_adder(
        &mut self,
        a: BitRow,
        b: BitRow,
        cin: BitRow,
    ) -> Result<(BitRow, BitRow)> {
        let or_ab = self.native(LogicOp::Or, &[a, b])?;
        let nand_ab = self.native(LogicOp::Nand, &[a, b])?;
        let x = self.native(LogicOp::And, &[or_ab, nand_ab])?;

        let or_xc = self.native(LogicOp::Or, &[x, cin])?;
        let nand_xc = self.native(LogicOp::Nand, &[x, cin])?;
        let sum = self.native(LogicOp::And, &[or_xc, nand_xc])?;

        let and_ab = self.bit_not(nand_ab)?;
        let t = self.native(LogicOp::And, &[cin, or_ab])?;
        let cout = self.native(LogicOp::Or, &[and_ab, t])?;

        for r in [or_ab, nand_ab, x, or_xc, nand_xc, and_ab, t] {
            self.release(r);
        }
        Ok((sum, cout))
    }

    /// Full adder with the carry computed by [`Self::maj_fused`]:
    /// 6 gates for the double-XOR sum plus one MAJ — 7 native ops on a
    /// part with in-subarray majority (vs 9 for [`Self::full_adder`]),
    /// the Ambit-lineage carry the paper's §2.2 describes.
    ///
    /// # Errors
    ///
    /// Fails on row exhaustion or device failure.
    pub(crate) fn full_adder_fused(
        &mut self,
        a: BitRow,
        b: BitRow,
        cin: BitRow,
    ) -> Result<(BitRow, BitRow)> {
        let x = self.xor(a, b)?;
        let sum = self.xor(x, cin)?;
        self.release(x);
        let cout = self.maj_fused(a, b, cin)?;
        Ok((sum, cout))
    }

    /// Reduces `ins` with `op` (a monotone family member: AND or OR),
    /// chunking by the substrate's native fan-in. For `n` inputs and
    /// fan-in `f` this costs ⌈(n−1)/(f−1)⌉ native ops (1 op when
    /// `n ≤ f`). A single input is copied (1 op).
    fn reduce(&mut self, op: LogicOp, ins: &[BitRow]) -> Result<BitRow> {
        if ins.is_empty() {
            return Err(SimdramError::Empty);
        }
        if ins.len() == 1 {
            let out = self.alloc_row()?;
            self.substrate_mut().copy(ins[0], out)?;
            return Ok(out);
        }
        let fan_in = self
            .substrate()
            .max_fan_in()
            .min(crate::substrate::MAX_FAN_IN);
        let mut level: Vec<BitRow> = ins.to_vec();
        let mut owned: Vec<BitRow> = Vec::new(); // intermediates we must free
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(fan_in));
            for chunk in level.chunks(fan_in) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                } else {
                    let r = self.native(op, chunk)?;
                    owned.push(r);
                    next.push(r);
                }
            }
            level = next;
        }
        let out = level[0];
        for r in owned {
            if r != out {
                self.release(r);
            }
        }
        Ok(out)
    }

    /// Like [`Self::reduce`] but the final stage uses the inverted
    /// operation, yielding NAND/NOR trees at no extra cost.
    fn reduce_inverted(
        &mut self,
        op: LogicOp,
        inverted: LogicOp,
        ins: &[BitRow],
    ) -> Result<BitRow> {
        if ins.is_empty() {
            return Err(SimdramError::Empty);
        }
        if ins.len() == 1 {
            return self.bit_not(ins[0]);
        }
        let fan_in = self
            .substrate()
            .max_fan_in()
            .min(crate::substrate::MAX_FAN_IN);
        if ins.len() <= fan_in {
            return self.native(inverted, ins);
        }
        // Reduce all but the final stage with the monotone op.
        let mut level: Vec<BitRow> = ins.to_vec();
        let mut owned: Vec<BitRow> = Vec::new();
        while level.len() > fan_in {
            let mut next = Vec::with_capacity(level.len().div_ceil(fan_in));
            for chunk in level.chunks(fan_in) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                } else {
                    let r = self.native(op, chunk)?;
                    owned.push(r);
                    next.push(r);
                }
            }
            level = next;
        }
        let out = self.native(inverted, &level)?;
        for r in owned {
            self.release(r);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::HostSubstrate;

    const LANES: usize = 8;

    fn vm() -> SimdVm<HostSubstrate> {
        SimdVm::new(HostSubstrate::new(LANES, 512)).unwrap()
    }

    /// Writes the four two-input combinations twice across 8 lanes.
    fn ab(vm: &mut SimdVm<HostSubstrate>) -> (BitRow, BitRow) {
        let a = vm.alloc_row().unwrap();
        let b = vm.alloc_row().unwrap();
        vm.write_mask(a, &[false, false, true, true, false, false, true, true])
            .unwrap();
        vm.write_mask(b, &[false, true, false, true, false, true, false, true])
            .unwrap();
        (a, b)
    }

    #[test]
    fn xor_truth_table() {
        let mut vm = vm();
        let (a, b) = ab(&mut vm);
        let x = vm.xor(a, b).unwrap();
        assert_eq!(
            vm.read_mask(x).unwrap()[..4],
            [false, true, true, false],
            "xor truth table"
        );
    }

    #[test]
    fn xnor_truth_table() {
        let mut vm = vm();
        let (a, b) = ab(&mut vm);
        let x = vm.xnor(a, b).unwrap();
        assert_eq!(vm.read_mask(x).unwrap()[..4], [true, false, false, true]);
    }

    #[test]
    fn maj_truth_table() {
        let mut vm = vm();
        let (a, b) = ab(&mut vm);
        let c = vm.alloc_row().unwrap();
        vm.write_mask(c, &[false, false, false, false, true, true, true, true])
            .unwrap();
        let m = vm.maj(a, b, c).unwrap();
        // maj(a,b,c) over the 8 (a,b,c) combinations 000..111.
        assert_eq!(
            vm.read_mask(m).unwrap(),
            vec![false, false, false, true, false, true, true, true]
        );
    }

    #[test]
    fn mux_selects() {
        let mut vm = vm();
        let (a, b) = ab(&mut vm);
        let s = vm.alloc_row().unwrap();
        vm.write_mask(s, &[true, true, true, true, false, false, false, false])
            .unwrap();
        let m = vm.mux(s, a, b).unwrap();
        let got = vm.read_mask(m).unwrap();
        let da = vm.read_mask(a).unwrap();
        let db = vm.read_mask(b).unwrap();
        for i in 0..LANES {
            assert_eq!(got[i], if i < 4 { da[i] } else { db[i] }, "lane {i}");
        }
    }

    #[test]
    fn maj_fused_matches_derived_maj() {
        let mut vm = vm();
        let (a, b) = ab(&mut vm);
        let c = vm.alloc_row().unwrap();
        vm.write_mask(c, &[false, true, false, true, true, false, true, false])
            .unwrap();
        let derived = vm.maj(a, b, c).unwrap();
        let fused = vm.maj_fused(a, b, c).unwrap();
        assert_eq!(vm.read_mask(fused).unwrap(), vm.read_mask(derived).unwrap());
    }

    #[test]
    fn full_adder_fused_matches_standard() {
        let mut vm = vm();
        let (a, b) = ab(&mut vm);
        let c = vm.alloc_row().unwrap();
        vm.write_mask(c, &[false, false, false, false, true, true, true, true])
            .unwrap();
        let (s1, c1) = vm.full_adder(a, b, c).unwrap();
        let (s2, c2) = vm.full_adder_fused(a, b, c).unwrap();
        assert_eq!(vm.read_mask(s2).unwrap(), vm.read_mask(s1).unwrap());
        assert_eq!(vm.read_mask(c2).unwrap(), vm.read_mask(c1).unwrap());
    }

    #[test]
    fn fused_adder_gate_count_on_derived_substrate() {
        // The host substrate has no native MAJ, so the fused adder
        // falls back to 6 (double XOR) + 4 (derived MAJ) = 10 ops.
        let mut vm = vm();
        let (a, b) = ab(&mut vm);
        let c = vm.alloc_row().unwrap();
        assert!(!vm.substrate().has_native_maj());
        vm.clear_trace();
        let _ = vm.full_adder_fused(a, b, c).unwrap();
        assert_eq!(vm.trace().in_dram_ops(), 10);
    }

    #[test]
    fn adders_match_arithmetic() {
        let mut vm = vm();
        let (a, b) = ab(&mut vm);
        let c = vm.alloc_row().unwrap();
        vm.write_mask(c, &[false, false, false, false, true, true, true, true])
            .unwrap();

        let (fs, fc) = vm.full_adder(a, b, c).unwrap();
        let da = vm.read_mask(a).unwrap();
        let db = vm.read_mask(b).unwrap();
        let dc = vm.read_mask(c).unwrap();
        let (fsv, fcv) = (vm.read_mask(fs).unwrap(), vm.read_mask(fc).unwrap());
        for i in 0..LANES {
            let f = u8::from(da[i]) + u8::from(db[i]) + u8::from(dc[i]);
            assert_eq!((fsv[i], fcv[i]), (f & 1 == 1, f >> 1 == 1), "full lane {i}");
        }
    }

    #[test]
    fn full_adder_costs_nine_native_ops() {
        let mut vm = vm();
        let (a, b) = ab(&mut vm);
        let c = vm.alloc_row().unwrap();
        vm.clear_trace();
        let _ = vm.full_adder(a, b, c).unwrap();
        assert_eq!(vm.trace().in_dram_ops(), 9);
    }

    #[test]
    fn xor_costs_three_native_ops_and_leaks_nothing() {
        let mut vm = vm();
        let (a, b) = ab(&mut vm);
        let live = vm.substrate().live_rows();
        vm.clear_trace();
        let x = vm.xor(a, b).unwrap();
        assert_eq!(vm.trace().in_dram_ops(), 3);
        assert_eq!(
            vm.substrate().live_rows(),
            live + 1,
            "only the result row survives"
        );
        vm.release(x);
        assert_eq!(vm.substrate().live_rows(), live);
    }

    #[test]
    fn wide_reduction_uses_tree() {
        let mut vm = vm();
        // 33 inputs at fan-in 16 → 3 native ops (16+16+1 → 2+1 → 1).
        let rows: Vec<BitRow> = (0..33)
            .map(|i| {
                let r = vm.alloc_row().unwrap();
                vm.write_mask(r, &[i != 5, true, true, true, true, true, true, i % 2 == 0])
                    .unwrap();
                r
            })
            .collect();
        vm.clear_trace();
        let out = vm.bit_and(&rows).unwrap();
        assert_eq!(vm.trace().in_dram_ops(), 3);
        let got = vm.read_mask(out).unwrap();
        assert!(!got[0], "lane 0 had a zero at input 5");
        assert!(got[1]);
        assert!(!got[7], "odd inputs were zero in lane 7");
    }

    #[test]
    fn inverted_reduction_matches_de_morgan() {
        let mut vm = vm();
        let rows: Vec<BitRow> = (0..20)
            .map(|i| {
                let r = vm.alloc_row().unwrap();
                let bits: Vec<bool> = (0..LANES).map(|l| (i + l) % 7 != 0).collect();
                vm.write_mask(r, &bits).unwrap();
                r
            })
            .collect();
        let nand = vm.bit_nand(&rows).unwrap();
        let and = vm.bit_and(&rows).unwrap();
        let n_and = vm.bit_not(and).unwrap();
        assert_eq!(vm.read_mask(nand).unwrap(), vm.read_mask(n_and).unwrap());

        let nor = vm.bit_nor(&rows).unwrap();
        let or = vm.bit_or(&rows).unwrap();
        let n_or = vm.bit_not(or).unwrap();
        assert_eq!(vm.read_mask(nor).unwrap(), vm.read_mask(n_or).unwrap());
    }

    #[test]
    fn empty_reduction_is_rejected() {
        let mut vm = vm();
        assert!(matches!(vm.bit_and(&[]), Err(SimdramError::Empty)));
        assert!(matches!(vm.bit_nor(&[]), Err(SimdramError::Empty)));
    }

    #[test]
    fn single_input_reductions() {
        let mut vm = vm();
        let a = vm.alloc_row().unwrap();
        vm.write_mask(a, &[true, false, true, false, true, false, true, false])
            .unwrap();
        let and1 = vm.bit_and(&[a]).unwrap();
        assert_eq!(vm.read_mask(and1).unwrap(), vm.read_mask(a).unwrap());
        let nand1 = vm.bit_nand(&[a]).unwrap();
        let expect: Vec<bool> = vm.read_mask(a).unwrap().iter().map(|b| !b).collect();
        assert_eq!(vm.read_mask(nand1).unwrap(), expect);
    }
}
