//! # redsoc-core — out-of-order core simulator with slack recycling
//!
//! The primary contribution of the ReDSOC reproduction (*"Recycling Data
//! Slack in Out-of-Order Cores"*, HPCA 2019): a cycle-level, trace-driven
//! out-of-order core model implementing
//!
//! - the conventional **baseline** scheduler,
//! - **ReDSOC** — slack-aware scheduling over a transparent-flip-flop
//!   bypass network, with Completion-Instant tracking ([§IV-C]), eager
//!   grandparent wakeup ([§IV-B]), skewed selection ([§IV-D]), the
//!   operational last-arrival tag-prediction RSE design, and two-cycle FU
//!   holds for boundary-crossing evaluations,
//! - the **TS** (Razor-style timing speculation) and **MOS** (dynamic
//!   operation fusion) comparators of §VI-D,
//!
//! atop the paper's Table I core configurations (Small / Medium / Big).
//!
//! [§IV-B]: crate::pipeline
//! [§IV-C]: crate::config::SchedulerConfig
//! [§IV-D]: crate::config::SchedulerConfig::redsoc
//!
//! ## Architecture
//!
//! Pipeline *mechanism* lives in [`pipeline`] (staged modules over a
//! shared [`pipeline::state::PipelineState`]); scheduling *policy* lives
//! behind the [`sched::Scheduler`] trait, with one module per design
//! under [`sched`]. [`Simulator::new`] wires the two together from
//! `config.sched.mode`; [`Simulator::with_scheduler`] accepts any custom
//! policy.
//!
//! ## Quick start
//!
//! ```
//! use redsoc_core::prelude::*;
//! use redsoc_isa::prelude::*;
//!
//! // Build a tiny kernel and trace it functionally.
//! let mut b = ProgramBuilder::new();
//! let top = b.new_label();
//! b.mov_imm(r(0), 500);
//! b.bind(top);
//! b.eor(r(1), r(1), op_imm(0x5A));
//! b.subs(r(0), r(0), op_imm(1));
//! b.bne(top);
//! b.halt();
//! let program = b.build()?;
//! let trace: Vec<DynOp> = Interpreter::new(&program).collect();
//!
//! // Simulate on the paper's Big core, baseline vs ReDSOC.
//! let base = simulate(trace.iter().copied(), CoreConfig::big())?;
//! let red = simulate(
//!     trace.iter().copied(),
//!     CoreConfig::big().with_sched(SchedulerConfig::redsoc()),
//! )?;
//! assert!(red.speedup_over(&base) >= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod branch;
pub mod config;
pub mod events;
pub mod fu;
pub mod pipeline;
pub mod sched;
pub mod stats;
pub mod tag_pred;

/// Convenient import surface for driving simulations.
pub mod prelude {
    pub use crate::config::{CoreConfig, SchedMode, SchedulerConfig};
    pub use crate::events::{
        ChromeTraceSink, EventSink, JsonlSink, NullSink, PipeEvent, RingSink, VecSink,
    };
    pub use crate::pipeline::{simulate, simulate_events, SimError, Simulator};
    pub use crate::sched::ts::{run_ts, TsResult};
    pub use crate::sched::{build_scheduler, Scheduler, SelectRequest};
    pub use crate::stats::{ChainStats, OpCategory, OpMix, SimReport, StallBreakdown, StallCause};
}

pub use config::{CoreConfig, SchedMode, SchedulerConfig};
pub use pipeline::{simulate, simulate_events, SimError, Simulator};
pub use sched::Scheduler;
pub use stats::SimReport;
