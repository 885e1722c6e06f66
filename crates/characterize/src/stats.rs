//! Box-and-whiskers statistics, matching the paper's plotting
//! convention (footnote 5): the box spans the first and third
//! quartiles, whiskers span min and max.

use serde::{Deserialize, Serialize};

/// Five-number summary plus mean and count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxStats {
    /// Minimum (lower whisker).
    pub min: f64,
    /// First quartile (box bottom).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (box top).
    pub q3: f64,
    /// Maximum (upper whisker).
    pub max: f64,
    /// Arithmetic mean (the paper's "average success rate").
    pub mean: f64,
    /// Number of samples.
    pub count: usize,
}

impl BoxStats {
    /// Computes the summary of `values`. Returns `None` when empty.
    pub fn from_values(values: &[f64]) -> Option<BoxStats> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in stats"));
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        Some(BoxStats {
            min: v[0],
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
            max: v[v.len() - 1],
            mean,
            count: v.len(),
        })
    }
}

/// Linear-interpolation quantile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics if `v` is empty or `q` is outside `[0, 1]`.
pub(crate) fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of empty slice");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile fraction {q} out of range"
    );
    if v.len() == 1 {
        return v[0];
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    v[lo] * (1.0 - frac) + v[hi] * frac
}

/// Mean of a value slice (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_number_summary() {
        let s = BoxStats::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.count, 5);
    }

    #[test]
    fn empty_is_none() {
        assert!(BoxStats::from_values(&[]).is_none());
    }

    #[test]
    fn single_value() {
        let s = BoxStats::from_values(&[0.7]).unwrap();
        assert_eq!(s.min, 0.7);
        assert_eq!(s.q1, 0.7);
        assert_eq!(s.max, 0.7);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let s = BoxStats::from_values(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [0.0, 1.0];
        assert_eq!(quantile_sorted(&v, 0.5), 0.5);
        assert_eq!(quantile_sorted(&v, 0.25), 0.25);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        let _ = quantile_sorted(&[], 0.5);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
