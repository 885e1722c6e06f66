//! Deterministic numeric primitives shared across the device model.
//!
//! The simulator needs three things that the standard library does not
//! provide: the standard normal CDF (`normal_cdf`) and its inverse
//! (`normal_quantile`) for the analytic success-probability path, and a
//! fast, splittable, *deterministic* hash (`splitmix64`) used to derive
//! per-cell, per-sense-amplifier, and per-address-pair random values
//! from a chip seed without storing per-cell state.

/// One step of the SplitMix64 generator, used as a deterministic mixer.
///
/// Given the same input, always produces the same output; successive
/// "streams" are derived by mixing tagged keys (see [`mix2`], [`mix3`]).
///
/// # Examples
///
/// ```
/// let a = dram_core::math::splitmix64(42);
/// let b = dram_core::math::splitmix64(42);
/// assert_eq!(a, b);
/// assert_ne!(a, dram_core::math::splitmix64(43));
/// ```
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes two keys into one deterministic 64-bit value.
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(a) ^ b.rotate_left(23))
}

/// Mixes three keys into one deterministic 64-bit value.
#[inline]
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    splitmix64(mix2(a, b) ^ c.rotate_left(41))
}

/// Mixes four keys into one deterministic 64-bit value.
#[inline]
pub fn mix4(a: u64, b: u64, c: u64, d: u64) -> u64 {
    splitmix64(mix3(a, b, c) ^ d.rotate_left(7))
}

/// Converts a hash to a uniform float in `[0, 1)`.
///
/// Uses the top 53 bits so the value is exactly representable.
#[inline]
pub fn hash_to_unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Converts a hash to a standard-normal deviate (deterministic).
///
/// Applies the inverse-CDF method to the unit-interval value derived
/// from `h`. The result is clamped to ±8σ so downstream arithmetic
/// never sees infinities.
#[inline]
pub(crate) fn hash_to_normal(h: u64) -> f64 {
    // Avoid the exact endpoints of (0,1).
    let u = hash_to_unit(h).clamp(1e-12, 1.0 - 1e-12);
    normal_quantile(u).clamp(-8.0, 8.0)
}

/// The error function, via the Abramowitz & Stegun 7.1.26 rational
/// approximation (|error| < 1.5e-7, plenty for success-rate work).
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function Φ(z).
///
/// # Examples
///
/// ```
/// let p = dram_core::math::normal_cdf(0.0);
/// assert!((p - 0.5).abs() < 1e-9);
/// ```
#[inline]
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Inverse of the standard normal CDF (the probit function), via
/// Acklam's rational approximation (|relative error| < 1.15e-9).
///
/// # Panics
///
/// Panics if `p` is not in the open interval `(0, 1)`.
pub(crate) fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile requires p in (0,1), got {p}"
    );
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shifts a target mean success probability into z-space such that,
    /// after adding a per-cell N(0, `sigma`) offset and mapping back
    /// through Φ, the *mean over cells* equals `p_mean`.
    ///
    /// Uses the identity `E[Φ(a + σZ)] = Φ(a / sqrt(1 + σ²))`, so
    /// `a = Φ⁻¹(p_mean) · sqrt(1 + σ²)`.
    ///
    /// Returns `a`; callers compute per-cell probability as
    /// `Φ(a + σ·z_cell)`.
    fn mean_preserving_z(p_mean: f64, sigma: f64) -> f64 {
        let p = p_mean.clamp(1e-9, 1.0 - 1e-9);
        normal_quantile(p) * (1.0 + sigma * sigma).sqrt()
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let h1 = splitmix64(0);
        let h2 = splitmix64(1);
        assert_eq!(h1, splitmix64(0));
        assert_ne!(h1, h2);
        // Hamming distance between successive outputs should be large.
        let dist = (h1 ^ h2).count_ones();
        assert!(dist > 10, "poor avalanche: {dist} bits");
    }

    #[test]
    fn mixers_depend_on_every_argument() {
        assert_ne!(mix2(1, 2), mix2(2, 1));
        assert_ne!(mix3(1, 2, 3), mix3(1, 2, 4));
        assert_ne!(mix4(1, 2, 3, 4), mix4(1, 2, 3, 5));
        assert_ne!(mix4(1, 2, 3, 4), mix4(0, 2, 3, 4));
    }

    #[test]
    fn hash_to_unit_in_range() {
        for i in 0..1000u64 {
            let u = hash_to_unit(splitmix64(i));
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn hash_to_unit_is_roughly_uniform() {
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|i| hash_to_unit(splitmix64(i))).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn erf_known_values() {
        // A&S 7.1.26 is accurate to ~1.5e-7.
        assert!((erf(0.0)).abs() < 2e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_91).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_symmetry_and_tails() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 2e-7);
        for z in [-3.0, -1.5, -0.3, 0.7, 2.2] {
            let s = normal_cdf(z) + normal_cdf(-z);
            assert!((s - 1.0).abs() < 1e-7, "symmetry broken at {z}: {s}");
        }
        assert!(normal_cdf(8.0) > 0.999_999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let z = normal_quantile(p);
            let back = normal_cdf(z);
            assert!((back - p).abs() < 1e-6, "p={p} z={z} back={back}");
        }
    }

    #[test]
    #[should_panic(expected = "normal_quantile")]
    fn quantile_rejects_zero() {
        let _ = normal_quantile(0.0);
    }

    #[test]
    fn mean_preserving_z_preserves_mean() {
        // Empirically check E[Φ(a + σZ)] ≈ p over a deterministic grid.
        let sigma = 0.8;
        for &p in &[0.1, 0.5, 0.9, 0.9837] {
            let a = mean_preserving_z(p, sigma);
            let n = 20_000;
            let mean: f64 = (0..n)
                .map(|i| {
                    let z = hash_to_normal(splitmix64(i as u64 ^ 0xABCD));
                    normal_cdf(a + sigma * z)
                })
                .sum::<f64>()
                / n as f64;
            assert!((mean - p).abs() < 0.01, "p={p} mean={mean}");
        }
    }

    #[test]
    fn hash_to_normal_moments() {
        let n = 50_000u64;
        let vals: Vec<f64> = (0..n).map(|i| hash_to_normal(splitmix64(i))).collect();
        let mean = vals.iter().sum::<f64>() / n as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
