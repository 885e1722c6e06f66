//! # dram-core — analog-behavioral DDR4 device model
//!
//! This crate is the hardware substrate for the `fcdram` workspace, a
//! reproduction of *"Functionally-Complete Boolean Logic in Real DRAM
//! Chips: Experimental Characterization and Analysis"* (HPCA 2024). It
//! models, at the level of detail the paper's experiments exercise:
//!
//! * the **open-bitline array** — cells, bitlines, and the sense-amp
//!   stripes shared between neighboring subarrays ([`subarray`],
//!   [`bank`], [`types::StripeSide`]);
//! * the **hierarchical row decoder** and its behaviour under
//!   violated-timing `ACT → PRE → ACT` sequences, which simultaneously
//!   activates up to 48 rows across two subarrays ([`row_decoder`]);
//! * **charge sharing** and the sense-amplifier comparator that turn
//!   simultaneous activation into NOT / AND / OR / NAND / NOR
//!   ([`analog`], [`chip`]);
//! * **process and design-induced variation**, temperature, speed-bin
//!   and die-revision effects, calibrated to the paper's measured
//!   success rates ([`variation`], [`thermal`], [`reliability`]);
//! * the paper's **Table 1 fleet** of 256 chips / 22 modules
//!   ([`config`]).
//!
//! ## Example
//!
//! ```
//! use dram_core::{Chip, ChipId, BankId, GlobalRow, Bit};
//!
//! // One chip of the first Table-1 module, narrowed to 32 columns.
//! let cfg = dram_core::config::table1().remove(0).with_modeled_cols(32);
//! let mut chip = Chip::new(cfg, ChipId(0));
//! let ones = vec![Bit::One; 32];
//! chip.write_row_direct(BankId(0), GlobalRow(0), &ones)?;
//! assert_eq!(chip.read_row(BankId(0), GlobalRow(0))?, ones);
//! # Ok::<(), dram_core::DramError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analog;
pub mod bank;
pub mod chip;
pub mod config;
pub mod energy;
pub mod error;
pub mod fault;
pub mod fleet;
pub mod geometry;
pub mod math;
pub mod module;
pub mod packed;
pub mod reliability;
pub mod row_decoder;
pub mod shard;
pub mod subarray;
pub mod thermal;
pub mod timing;
pub mod types;
pub mod variation;

pub use analog::{AnalogParams, MarginClass};
pub use chip::{
    result_role, CellRole, Chip, CsTerminal, OpOutcome, OutcomeKind, OutcomeStats, RoleStats,
    RowOutcome,
};
pub use config::{ChipOrg, Density, DieRevision, Manufacturer, ModuleConfig};
pub use energy::{EnergyParams, OpCost};
pub use error::{DramError, Result};
pub use fault::{AgingPolicy, DisturbancePolicy, DisturbanceState, FaultPlan, PlannedDropout};
pub use fleet::{ChipSpec, FleetConfig, FleetSlot, FleetSlots, SlotLease};
pub use geometry::Geometry;
pub use module::DramModule;
pub use packed::PackedBits;
pub use reliability::{CellRef, LogicEvent, LogicOp, NotEvent, ReliabilityModel};
pub use row_decoder::{ActivationShape, MultiActivation, PatternKind, RowDecoder};
pub use thermal::{SimConfig, Temperature};
pub use timing::{SpeedBin, TimingParams, ViolationWindows};
pub use types::{
    is_shared_col, BankId, Bit, ChipId, Col, GlobalRow, LocalRow, StripeSide, SubarrayId,
    SHARED_COL_STRIDE,
};
pub use variation::{DistanceRegion, ProcessVariation, RowSampler, VariationCache};
