//! Bit-packed vectors: `u64` words instead of `Vec<bool>`.
//!
//! One type carries a row's bits end to end: host operands and results
//! (64 lanes per word), the full-width rows a command program writes
//! (the `WR` payload, one bit per column), and the bit-plane a
//! subarray stores each row in ([`crate::subarray`]). Packing turns
//! staging, reading back, expected-value computation, accuracy
//! counting and majority voting into a handful of word operations per
//! cache line instead of a branch per bit.

use crate::math::{mix2, splitmix64};
use crate::types::{Bit, SHARED_COL_STRIDE};
use serde::{Deserialize, Serialize};

/// Even bits of a word: one column half of a row's 64-column word.
pub(crate) const EVEN: u64 = 0x5555_5555_5555_5555;

/// The 32 bits of `v` moved to the even bit positions of a word (bit
/// `i` to bit `2 i`), zeros between.
#[inline]
fn spread_even(v: u32) -> u64 {
    let mut x = u64::from(v);
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & EVEN
}

/// The even bits of `w` packed into 32 bits (bit `2 i` to bit `i`):
/// the inverse of [`spread_even`].
#[inline]
fn gather_even(w: u64) -> u32 {
    let mut x = w & EVEN;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    ((x | (x >> 16)) & 0xFFFF_FFFF) as u32
}

/// Word `q` of the bit vector `words` shifted down by `start` bits
/// (bit `start + 64 q + i` at bit `i`; zeros past the end).
#[inline]
fn shifted_word(words: &[u64], q: usize, start: usize) -> u64 {
    let (skip, shift) = (q + start / 64, start % 64);
    let lo = words.get(skip).map_or(0, |w| w >> shift);
    match shift {
        0 => lo,
        _ => lo | words.get(skip + 1).map_or(0, |w| w << (64 - shift)),
    }
}

/// Lane word `m` of the shared-column vector of the bit vector `row`
/// from column `start`: bit `i` is column `start + (64 m + i)·`
/// [`SHARED_COL_STRIDE`].
#[inline]
pub(crate) fn lane_word(row: &[u64], m: usize, start: usize) -> u64 {
    let lo = gather_even(shifted_word(row, 2 * m, start));
    let hi = gather_even(shifted_word(row, 2 * m + 1, start));
    u64::from(lo) | (u64::from(hi) << 32)
}

/// A fixed-length bit vector packed 64 lanes per `u64` word: a host
/// operand of lanes, or a full row of one bit per column (the `WR`
/// payload and every staged gate row).
///
/// Bit `i` lives in word `i / 64` at bit position `i % 64`. Unused
/// high bits of the last word are always zero (maintained by every
/// constructor and mutation).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// An all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        PackedBits {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// An all-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut p = PackedBits {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        p.mask_tail();
        p
    }

    /// A vector filled with `value`.
    pub fn splat(value: bool, len: usize) -> Self {
        if value {
            Self::ones(len)
        } else {
            Self::zeros(len)
        }
    }

    /// Wraps LSB-first packed words (the device read layout) into a
    /// vector of `len` lanes. Extra words are dropped and tail bits
    /// cleared.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(64), 0);
        let mut p = PackedBits { words, len };
        p.mask_tail();
        p
    }

    /// Packs a `bool` slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut p = Self::zeros(bits.len());
        for (i, b) in bits.iter().enumerate() {
            if *b {
                p.words[i / 64] |= 1 << (i % 64);
            }
        }
        p
    }

    /// The seeded operand `key` of `lanes` bits: lane `l` holds the low
    /// bit of [`crate::math::mix3`]`(seed, key, l)`.
    ///
    /// Built a word at a time with `mix2(seed, key)` hoisted out of the
    /// lane loop: `mix3(s, k, l)` is `splitmix64(mix2(s, k) ^
    /// l.rotate_left(41))`, so the bits are the per-lane ones.
    pub fn seeded(seed: u64, key: u64, lanes: usize) -> Self {
        let head = mix2(seed, key);
        let words = (0..lanes.div_ceil(64))
            .map(|w| {
                let base = w * 64;
                (0..(lanes - base).min(64)).fold(0u64, |word, b| {
                    let lane = (base + b) as u64;
                    word | (splitmix64(head ^ lane.rotate_left(41)) & 1) << b
                })
            })
            .collect();
        PackedBits { words, len: lanes }
    }

    /// Unpacks to a `bool` vector.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Spreads the lanes onto a `cols`-wide row, lane `i` at column
    /// `start + i·`[`SHARED_COL_STRIDE`], zeros elsewhere — the staging
    /// convention for writing shared-column vectors into full DRAM
    /// rows. Lanes past the row's end are dropped.
    ///
    /// Each row word is one half of an operand word with zeros
    /// interleaved, shifted to `start`.
    pub fn expand_strided(&self, cols: usize, start: usize) -> PackedBits {
        const _: () = assert!(SHARED_COL_STRIDE == 2, "rows interleave two column halves");
        let mut row = PackedBits::zeros(cols);
        let (skip, shift) = (start / 64, start % 64);
        let mut carry = 0u64;
        for (k, out) in row.words.iter_mut().skip(skip).enumerate() {
            let half = self
                .words
                .get(k / 2)
                .map_or(0, |w| (w >> (32 * (k % 2))) as u32);
            let w = spread_even(half);
            *out = (w << shift) | carry;
            carry = if shift == 0 { 0 } else { w >> (64 - shift) };
        }
        row.mask_tail();
        row
    }

    /// Number of lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero lanes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words (unused tail bits are zero).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Lane `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets lane `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        if value {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Number of set lanes.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of lanes equal between `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn count_matches(&self, other: &PackedBits) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        let mut same = 0usize;
        for (i, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut eq = !(a ^ b);
            if (i + 1) * 64 > self.len {
                eq &= Self::tail_mask(self.len);
            }
            same += eq.count_ones() as usize;
        }
        same
    }

    /// Sets every lane to `value` in place (no reallocation).
    pub fn fill(&mut self, value: bool) {
        self.words.fill(if value { u64::MAX } else { 0 });
        self.mask_tail();
    }

    /// Overwrites `self` with `other`'s lanes in place (no
    /// reallocation).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &PackedBits) {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Lane-wise AND with `other`.
    pub fn and_assign(&mut self, other: &PackedBits) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Lane-wise OR with `other`.
    pub fn or_assign(&mut self, other: &PackedBits) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Lane-wise complement.
    pub fn not_in_place(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Fraction of lanes equal between `self` and `other` (1.0 for
    /// empty vectors).
    pub fn accuracy_against(&self, other: &PackedBits) -> f64 {
        if self.len == 0 {
            return 1.0;
        }
        self.count_matches(other) as f64 / self.len as f64
    }

    #[inline]
    fn tail_mask(len: usize) -> u64 {
        match len % 64 {
            0 => u64::MAX,
            r => (1u64 << r) - 1,
        }
    }

    fn mask_tail(&mut self) {
        if let Some(last) = self.words.last_mut() {
            *last &= Self::tail_mask(self.len);
        }
    }
}

/// Packs a [`Bit`] slice, one lane per bit: the boundary where a
/// caller holding bits (test and experiment set-up) hands over a row.
impl From<&[Bit]> for PackedBits {
    fn from(bits: &[Bit]) -> Self {
        let mut p = Self::zeros(bits.len());
        for (w, chunk) in p.words.iter_mut().zip(bits.chunks(64)) {
            *w = chunk
                .iter()
                .enumerate()
                .fold(0, |w, (i, b)| w | u64::from(b.as_bool()) << i);
        }
        p
    }
}

impl From<Vec<Bit>> for PackedBits {
    fn from(bits: Vec<Bit>) -> Self {
        Self::from(bits.as_slice())
    }
}

impl From<&Vec<Bit>> for PackedBits {
    fn from(bits: &Vec<Bit>) -> Self {
        Self::from(bits.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_matches_per_lane_mix3() {
        for lanes in [0usize, 1, 63, 64, 65, 130, 4096] {
            for (seed, key) in [(0u64, 0u64), (7, 3), (u64::MAX, 0x5E17)] {
                let p = PackedBits::seeded(seed, key, lanes);
                let mut q = PackedBits::zeros(lanes);
                for l in 0..lanes {
                    q.set(l, crate::math::mix3(seed, key, l as u64) & 1 == 1);
                }
                assert_eq!(p, q, "lanes {lanes} seed {seed} key {key}");
            }
        }
    }

    #[test]
    fn expand_strided_matches_per_lane_spread() {
        let cases = [0usize, 1, 63, 64, 65, 130, 512, 700]
            .into_iter()
            .flat_map(|len| {
                [
                    PackedBits::seeded(5, len as u64, len),
                    PackedBits::ones(len),
                ]
            });
        for p in cases {
            let len = p.len();
            for start in [0usize, 1, 3] {
                let lanes_cols = 2 * len;
                for cols in [lanes_cols, lanes_cols + 1, lanes_cols + 3, len / 2, 0] {
                    let mut want = vec![Bit::Zero; cols];
                    for (i, c) in (start..cols).step_by(2).enumerate().take(len) {
                        want[c] = Bit::from(p.get(i));
                    }
                    assert_eq!(
                        p.expand_strided(cols, start),
                        PackedBits::from(&want[..]),
                        "len {len} start {start} cols {cols}"
                    );
                }
            }
        }
    }

    #[test]
    fn round_trips_and_tail_masking() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let bits: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let p = PackedBits::from_bools(&bits);
            assert_eq!(p.to_bools(), bits);
            assert_eq!(p.len(), len);
            let mut inv = p.clone();
            inv.not_in_place();
            let expect: Vec<bool> = bits.iter().map(|b| !b).collect();
            assert_eq!(inv.to_bools(), expect, "len {len}");
            // Tail bits stay zero after NOT.
            if len % 64 != 0 && !inv.words().is_empty() {
                assert_eq!(inv.words().last().unwrap() >> (len % 64), 0);
            }
        }
    }

    #[test]
    fn logic_ops_match_boolwise() {
        let a: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        let b: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let (pa, pb) = (PackedBits::from_bools(&a), PackedBits::from_bools(&b));
        let mut and = pa.clone();
        and.and_assign(&pb);
        let mut or = pa.clone();
        or.or_assign(&pb);
        for i in 0..100 {
            assert_eq!(and.get(i), a[i] && b[i]);
            assert_eq!(or.get(i), a[i] || b[i]);
        }
    }

    #[test]
    fn matches_and_accuracy() {
        let a: Vec<bool> = (0..70).map(|i| i % 2 == 0).collect();
        let mut b = a.clone();
        b[3] = !b[3];
        b[69] = !b[69];
        let (pa, pb) = (PackedBits::from_bools(&a), PackedBits::from_bools(&b));
        assert_eq!(pa.count_matches(&pb), 68);
        assert!((pa.accuracy_against(&pb) - 68.0 / 70.0).abs() < 1e-12);
        assert_eq!(pa.count_matches(&pa), 70);
    }

    #[test]
    fn bit_slice_round_trip() {
        let bits: Vec<Bit> = (0..67).map(|i| Bit::from(i % 5 == 0)).collect();
        let p = PackedBits::from(&bits[..]);
        assert_eq!(
            p.to_bools(),
            bits.iter().map(|b| b.as_bool()).collect::<Vec<_>>()
        );
        assert_eq!(p.count_ones(), bits.iter().filter(|b| b.as_bool()).count());
    }

    #[test]
    fn splat_and_set() {
        let mut p = PackedBits::splat(true, 65);
        assert_eq!(p.count_ones(), 65);
        p.set(64, false);
        assert_eq!(p.count_ones(), 64);
        assert!(!p.get(64));
        let z = PackedBits::splat(false, 65);
        assert_eq!(z.count_ones(), 0);
    }

    #[test]
    fn fill_and_copy_from_keep_the_tail_clear() {
        let mut p = PackedBits::zeros(65);
        p.fill(true);
        assert_eq!(p, PackedBits::ones(65));
        assert_eq!(p.words()[1], 1, "tail bits stay zero");
        let src = PackedBits::from_bools(&(0..65).map(|i| i % 2 == 0).collect::<Vec<_>>());
        p.copy_from(&src);
        assert_eq!(p, src);
        p.fill(false);
        assert_eq!(p, PackedBits::zeros(65));
    }
}
