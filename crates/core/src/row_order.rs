//! RowHammer-based reverse engineering of physical row order and
//! distance to the sense-amplifier stripes (§5.2).
//!
//! Single-sided hammering of an aggressor row flips bits in the rows
//! physically adjacent to it. A row with *one* victim sits at a
//! subarray edge — i.e. directly next to a sense-amplifier stripe.
//! From the discovered edges, every row's distance to either stripe
//! follows, along with the Close/Middle/Far tertile used by the
//! distance-dependence experiments (Figs. 9 and 17).

use crate::error::Result;
use bender::Bender;
use dram_core::{BankId, Bit, ChipId, DistanceRegion, GlobalRow, LocalRow, StripeSide, SubarrayId};
use serde::{Deserialize, Serialize};

/// Physical layout of one subarray as discovered by hammering.
///
/// Stays `pub` although no other crate names it: [`discover_row_order`]
/// returns it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowOrder {
    /// Subarray this describes.
    pub subarray: SubarrayId,
    /// Row adjacent to the stripe *above* (toward lower subarray ids).
    pub top_edge: LocalRow,
    /// Row adjacent to the stripe *below*.
    pub bottom_edge: LocalRow,
    /// Number of rows.
    pub rows: usize,
}

impl RowOrder {
    /// Normalized distance (0..1) of `row` to the stripe on `side`.
    pub fn distance(&self, row: LocalRow, side: StripeSide) -> f64 {
        let span = (self.rows - 1) as f64;
        match side {
            StripeSide::Above => (row.index() as f64 - self.top_edge.index() as f64).abs() / span,
            StripeSide::Below => {
                (self.bottom_edge.index() as f64 - row.index() as f64).abs() / span
            }
        }
    }

    /// Distance tertile of `row` relative to the stripe on `side`.
    pub fn region(&self, row: LocalRow, side: StripeSide) -> DistanceRegion {
        DistanceRegion::from_normalized(self.distance(row, side))
    }
}

/// Number of hammer activations used per aggressor probe (well above
/// typical per-cell thresholds so victims reliably flip).
const HAMMER_COUNT: u64 = 400_000;

/// Discovers the physical row order of `subarray` by single-sided
/// hammering of `probes` sampled rows plus the extremal candidates.
///
/// # Errors
///
/// Fails if no edge rows are found (which would indicate the hammer
/// model is disabled for this part).
pub fn discover_row_order(
    bender: &mut Bender,
    chip: ChipId,
    bank: BankId,
    subarray: SubarrayId,
    probes: usize,
) -> Result<RowOrder> {
    let geom = *bender.module_mut().chip_mut(chip).geometry();
    let rows = geom.rows_per_subarray();
    let cols = geom.cols();
    let ones = vec![Bit::One; cols];

    // Candidate aggressors: always test the address-space extremes,
    // then sample the interior.
    let mut candidates = vec![0usize, rows - 1];
    for p in 0..probes {
        candidates.push(1 + (p * 97) % (rows - 2));
    }
    candidates.sort_unstable();
    candidates.dedup();

    let mut single_victims: Vec<(LocalRow, LocalRow)> = Vec::new();
    for aggr in candidates {
        // Charge the aggressor's potential victims so flips are visible.
        for v in [aggr.wrapping_sub(1), aggr + 1] {
            if v < rows {
                bender.write_row(
                    chip,
                    bank,
                    geom.join_row(subarray, LocalRow(v))?,
                    ones.clone(),
                )?;
            }
        }
        let flips = bender.module_mut().chip_mut(chip).hammer(
            bank,
            geom.join_row(subarray, LocalRow(aggr))?,
            HAMMER_COUNT,
        )?;
        let victims: Vec<GlobalRow> = flips
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(r, _)| *r)
            .collect();
        if victims.len() == 1 {
            let (_, vloc) = geom.split_row(victims[0])?;
            single_victims.push((LocalRow(aggr), vloc));
        }
    }

    // An edge aggressor's single victim lies *inward*; the aggressor
    // itself is the edge row.
    let top = single_victims
        .iter()
        .find(|(a, v)| v.index() > a.index())
        .map(|(a, _)| *a)
        .ok_or_else(|| crate::error::FcdramError::OpFailed {
            detail: "no top edge row discovered".into(),
        })?;
    let bottom = single_victims
        .iter()
        .find(|(a, v)| v.index() < a.index())
        .map(|(a, _)| *a)
        .ok_or_else(|| crate::error::FcdramError::OpFailed {
            detail: "no bottom edge row discovered".into(),
        })?;
    Ok(RowOrder {
        subarray,
        top_edge: top,
        bottom_edge: bottom,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::config::table1;
    use dram_core::DramModule;

    fn bender() -> Bender {
        let cfg = table1().into_iter().next().unwrap().with_modeled_cols(32);
        Bender::new(DramModule::new(cfg))
    }

    #[test]
    fn discovers_edges() {
        let mut b = bender();
        let order = discover_row_order(&mut b, ChipId(0), BankId(0), SubarrayId(1), 4).unwrap();
        assert_eq!(order.top_edge, LocalRow(0));
        assert_eq!(order.bottom_edge, LocalRow(511));
        assert_eq!(order.rows, 512);
    }

    #[test]
    fn distances_follow_edges() {
        let order = RowOrder {
            subarray: SubarrayId(0),
            top_edge: LocalRow(0),
            bottom_edge: LocalRow(511),
            rows: 512,
        };
        assert_eq!(order.distance(LocalRow(0), StripeSide::Above), 0.0);
        assert_eq!(order.distance(LocalRow(511), StripeSide::Below), 0.0);
        assert!((order.distance(LocalRow(511), StripeSide::Above) - 1.0).abs() < 1e-12);
        assert_eq!(
            order.region(LocalRow(0), StripeSide::Above),
            DistanceRegion::Close
        );
        assert_eq!(
            order.region(LocalRow(255), StripeSide::Above),
            DistanceRegion::Middle
        );
        assert_eq!(
            order.region(LocalRow(500), StripeSide::Above),
            DistanceRegion::Far
        );
    }
}
