//! # redsoc-timing — circuit timing and slack models
//!
//! The "design-time" half of the ReDSOC reproduction (*"Recycling Data
//! Slack in Out-of-Order Cores"*, HPCA 2019): everything the paper derives
//! from RTL synthesis and static timing analysis, reproduced as calibrated
//! analytic models.
//!
//! - [`optime`] — per-operation compute times of the single-cycle ALU
//!   (Fig. 1) and SIMD datapaths, including the shifted-operand and
//!   narrow-width effects;
//! - [`kogge_stone`] — the log-depth carry-chain model behind width slack
//!   (Fig. 2);
//! - [`slack`] — the 14 slack buckets, the 5-bit LUT address (Fig. 3) and
//!   the conservative slack look-up table;
//! - [`width_predictor`] — Loh's resetting-counter data-width predictor;
//! - [`quant`] — sub-cycle Completion-Instant quantisation (3-bit in the
//!   paper);
//! - [`pvt`] — the optional PVT guard-band model with CPM-style
//!   recalibration;
//! - [`power`] — the Cortex-A57 DVFS curve used to convert speedup into
//!   power savings (§VI-C).
//!
//! ## Example
//!
//! ```
//! use redsoc_timing::slack::{SlackBucket, SlackLut, WidthClass};
//! use redsoc_timing::optime::CYCLE_PS;
//!
//! let lut = SlackLut::new();
//! let logic = SlackBucket::Logic { shift: false };
//! // Plain logical operations leave more than half the cycle as slack.
//! assert!(lut.slack_ps(logic) * 2 > CYCLE_PS);
//! // The critical bucket (shifted wide arithmetic) defines the clock.
//! let critical = SlackBucket::Arith { shift: true, width: WidthClass::W32 };
//! assert_eq!(lut.compute_ps(critical), CYCLE_PS);
//! ```

#![warn(missing_docs)]

pub mod kogge_stone;
pub mod optime;
pub mod power;
pub mod pvt;
pub mod quant;
pub mod slack;
pub mod width_predictor;

pub use optime::CYCLE_PS;
pub use pvt::PvtModel;
pub use quant::Quant;
pub use slack::{SlackBucket, SlackLut, WidthClass};
pub use width_predictor::{WidthOutcome, WidthPredictor};
