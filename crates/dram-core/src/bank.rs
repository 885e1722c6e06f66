//! One DRAM bank: lazily materialized subarrays plus the set of
//! currently raised (activated) rows.

use crate::subarray::Subarray;
use crate::types::{LocalRow, SubarrayId};

/// Rows currently raised in a bank, grouped by subarray.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenRows {
    /// Raised rows per subarray (at most two subarrays in this model).
    pub groups: Vec<(SubarrayId, Vec<LocalRow>)>,
    /// Subarray addressed by the most recent `ACT` — the target of a
    /// subsequent `WR` overdrive.
    pub last_subarray: SubarrayId,
}

impl OpenRows {
    /// Total number of raised rows.
    pub fn total(&self) -> usize {
        self.groups.iter().map(|(_, r)| r.len()).sum()
    }

    /// Rows raised in `sub`, if any.
    pub fn rows_in(&self, sub: SubarrayId) -> Option<&[LocalRow]> {
        self.groups
            .iter()
            .find(|(s, _)| *s == sub)
            .map(|(_, r)| r.as_slice())
    }
}

/// One bank.
#[derive(Debug, Clone)]
pub struct Bank {
    subarrays: Vec<Option<Subarray>>,
    rows_per_subarray: usize,
    cols: usize,
    open: Option<OpenRows>,
}

impl Bank {
    /// Creates a bank with all subarrays unallocated.
    pub fn new(subarrays: usize, rows_per_subarray: usize, cols: usize) -> Self {
        Bank {
            subarrays: vec![None; subarrays],
            rows_per_subarray,
            cols,
            open: None,
        }
    }

    /// Immutable view of a subarray, if it has been touched.
    pub fn subarray(&self, sub: SubarrayId) -> Option<&Subarray> {
        self.subarrays.get(sub.index()).and_then(|s| s.as_ref())
    }

    /// Mutable subarray access, allocating on first touch.
    pub fn subarray_mut(&mut self, sub: SubarrayId) -> &mut Subarray {
        let slot = &mut self.subarrays[sub.index()];
        slot.get_or_insert_with(|| Subarray::new(self.rows_per_subarray, self.cols))
    }

    /// Currently raised rows, if the bank is open.
    pub fn open(&self) -> Option<&OpenRows> {
        self.open.as_ref()
    }

    /// Raises rows (replacing any previous open state).
    pub fn set_open(&mut self, open: OpenRows) {
        self.open = Some(open);
    }

    /// Precharges the bank (closes all rows), returning the rows that
    /// were raised.
    pub fn close(&mut self) -> Option<OpenRows> {
        self.open.take()
    }

    /// Whether the bank is precharged.
    pub fn is_precharged(&self) -> bool {
        self.open.is_none()
    }

    /// Applies leakage to every allocated subarray.
    pub fn leak(&mut self, dt_over_tau: f64) {
        for s in self.subarrays.iter_mut().flatten() {
            s.leak(dt_over_tau);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_precharged_and_unallocated() {
        let b = Bank::new(8, 512, 64);
        assert!(b.is_precharged());
        assert!(b.subarray(SubarrayId(0)).is_none());
    }

    #[test]
    fn subarray_mut_allocates() {
        let mut b = Bank::new(8, 512, 64);
        b.subarray_mut(SubarrayId(3))
            .set_voltage(LocalRow(1), crate::types::Col(2), 1.2);
        assert!(b.subarray(SubarrayId(3)).is_some());
        assert!(b.subarray(SubarrayId(2)).is_none());
    }

    #[test]
    fn open_close_cycle() {
        let mut b = Bank::new(8, 512, 64);
        let open = OpenRows {
            groups: vec![(SubarrayId(1), vec![LocalRow(5), LocalRow(9)])],
            last_subarray: SubarrayId(1),
        };
        b.set_open(open.clone());
        assert!(!b.is_precharged());
        assert_eq!(b.open().unwrap().total(), 2);
        assert_eq!(b.open().unwrap().rows_in(SubarrayId(1)).unwrap().len(), 2);
        assert!(b.open().unwrap().rows_in(SubarrayId(0)).is_none());
        b.close();
        assert!(b.is_precharged());
    }
}
