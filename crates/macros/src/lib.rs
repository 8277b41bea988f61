//! The SMART design database: parameterized generators for every datapath
//! macro family the paper names (§2: "multiplexors, shifters, adders,
//! comparators, decoders, encoders, zero-detects, register files"), each
//! producing a labeled *unsized* [`smart_netlist::Circuit`] with the
//! paper's default labelings.
//!
//! * [`mux`] — the six topologies of Fig. 2 (pass-gate strongly/weakly
//!   mutexed, encoded-select, tri-state, un-split domino, partitioned
//!   domino).
//! * [`mod@incrementor`] — ripple incrementors/decrementors (Fig. 5(a)).
//! * [`mod@zero_detect`] — static trees and domino variants (Fig. 5(b)).
//! * [`mod@decoder`] — n-to-2ⁿ decoders (Fig. 5(c)).
//! * [`encoder`] — priority and one-hot encoders.
//! * [`mod@comparator`] — the 2-stage D1-D2 comparator and its Fig. 7
//!   exploration variants.
//! * [`adder`] — the 64-bit dynamic carry-lookahead adder of §6.2.
//! * [`regfile`] — register-file read path.
//! * [`shifter`] — pass-gate barrel shifters (§2's "shifters").
//! * [`Database`] / [`MacroSpec`] — the expandable registry plus the
//!   per-function topology alternatives the exploration flow compares.

// Generator internals build netlists whose structure is correct by
// construction, so builder errors are contract panics, not recoverable
// states. The exploration runtime contains them per-candidate with
// catch_unwind (FlowError::Internal), which is why the workspace-wide
// unwrap/expect deny lint is relaxed for this crate.
#![allow(clippy::unwrap_used, clippy::expect_used)]
//!
//! Every generator is functionally verified against its golden function by
//! the `smart-sim` test suite (`tests/functional.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder;
pub mod comparator;
mod database;
pub mod decoder;
pub mod encoder;
pub mod helpers;
pub mod incrementor;
pub mod mux;
pub mod regfile;
pub mod shifter;
pub mod zero_detect;

pub use adder::cla_adder;
pub use comparator::{comparator, ComparatorVariant};
pub use database::{representative_database, Database, MacroFamily, MacroSpec};
pub use decoder::decoder;
pub use encoder::{onehot_encoder, priority_encoder};
pub use incrementor::{decrementor, incrementor, incrementor_cla};
pub use mux::MuxTopology;
pub use regfile::regfile_read;
pub use shifter::{barrel_shifter, ShiftKind};
pub use zero_detect::{zero_detect, ZeroDetectStyle};

