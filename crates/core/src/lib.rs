//! # fcdram — functionally-complete Boolean logic in (simulated) DRAM
//!
//! A library reproduction of *"Functionally-Complete Boolean Logic in
//! Real DRAM Chips: Experimental Characterization and Analysis"*
//! (Yüksel et al., HPCA 2024). It implements, over a behavioral DDR4
//! device model and a DRAM-Bender-style command interface:
//!
//! * **reverse engineering** — subarray boundaries via RowClone
//!   probing, physical row order via RowHammer, and the
//!   `N_RF:N_RL` activation-pattern map of every neighboring subarray
//!   pair ([`mapping`], [`row_order`]);
//! * **in-DRAM operations** — RowClone, NOT, N-input AND / OR / NAND /
//!   NOR for N up to 16 and in-subarray MAJ ([`ops`]): one call per
//!   gate family ([`Fcdram::not_outcome`], [`Fcdram::logic_outcome`],
//!   [`Fcdram::maj_outcome`]) ships the gate as one command program and
//!   returns where the result landed and the per-cell outcome, and two
//!   reads fetch results back ([`Fcdram::read_row`] full width,
//!   [`Fcdram::read_lanes`] as packed shared-half lanes);
//! * **a bulk bitwise engine** — allocate bit vectors in DRAM and
//!   combine them with in-DRAM gates, optionally with repetition
//!   voting for reliability ([`bitwise`]);
//! * **success-rate metrics** matching the paper's methodology
//!   ([`success`]).
//!
//! ## Quickstart
//!
//! ```
//! use fcdram::{BulkEngine, Fcdram, LogicOp, PackedBits};
//! use dram_core::{BankId, SubarrayId};
//!
//! // Chip 0 of the first Table-1 module, narrowed for the doctest.
//! let cfg = dram_core::config::table1().remove(0).with_modeled_cols(32);
//! let mut engine = BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0))?;
//! let a = PackedBits::ones(engine.capacity_bits());
//! let b = PackedBits::ones(engine.capacity_bits());
//! let out = engine.alloc()?;
//! // One method per gate. The caller owns the operand values (the gate
//! // stages them; no operand row is read back) and gets back the
//! // statistics and the bits stored in `out`.
//! let (stats, and) = engine.logic(LogicOp::And, &[&a, &b], &out)?;
//! assert!(stats.accuracy > 0.0);
//! assert_eq!(engine.read_packed(&out)?, and);
//! let (_, not_and) = engine.not(&and, &out)?;
//! assert_eq!(not_and.len(), and.len());
//! # Ok::<(), fcdram::FcdramError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitwise;
pub mod error;
pub mod mapping;
pub mod ops;
pub mod row_order;
pub mod success;

pub use bitwise::{BitVecHandle, BulkEngine, OpStats};
pub use error::{FcdramError, Result};
pub use mapping::{ActivationMap, CoverageRow, InSubarrayEntry, PatternEntry};
pub use ops::{Fcdram, GateLayout, GateSite};
pub use row_order::{discover_row_order, RowOrder};
pub use success::{sample_trials, SuccessAccumulator};

// Re-export the device-model vocabulary users need at the API surface.
pub use dram_core::{
    BankId, Bit, ChipId, GlobalRow, LocalRow, LogicOp, ModuleConfig, PackedBits, PatternKind,
    SubarrayId, Temperature,
};
