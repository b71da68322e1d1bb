//! # redsoc — Recycling Data Slack in Out-of-Order Cores
//!
//! A from-scratch Rust reproduction of Ravi & Lipasti,
//! *"Recycling Data Slack in Out-of-Order Cores"* (HPCA 2019): a
//! cycle-level out-of-order core simulator whose scheduler recycles the
//! unused tail of the clock period ("data slack") by starting dependent
//! operations at their producers' exact completion instants through a
//! transparent-flip-flop bypass network.
//!
//! This facade crate re-exports the workspace:
//!
//! - [`isa`] — ARM-flavoured micro-ISA, functional interpreter, traces;
//! - [`timing`] — circuit timing & slack models (Fig. 1–3), width
//!   predictor, DVFS power model;
//! - [`mem`] — L1/L2 cache hierarchy with stride prefetching (Table I);
//! - [`core`] — the out-of-order core with Baseline / ReDSOC / TS / MOS
//!   schedulers (§III–IV, §VI-D);
//! - [`workloads`] — the sixteen evaluation benchmarks (§V);
//! - [`mod@bench`] — the parallel experiment engine (shared trace cache,
//!   job grids, machine-readable sweep output);
//! - [`verify`] — differential fuzzing and lockstep verification
//!   (`redsoc fuzz`): random programs checked across the interpreter and
//!   every scheduler, with automatic shrinking of divergences.
//!
//! ## Quick start
//!
//! ```
//! use redsoc::prelude::*;
//!
//! // Trace a workload and compare baseline vs ReDSOC scheduling.
//! let trace = Benchmark::Bitcnt.trace(20_000);
//! let base = simulate(trace.iter().copied(), CoreConfig::big())?;
//! let red = simulate(
//!     trace.iter().copied(),
//!     CoreConfig::big().with_sched(SchedulerConfig::redsoc()),
//! )?;
//! assert!(red.speedup_over(&base) > 1.05, "bitcount recycles slack");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure and table.

#![warn(missing_docs)]

pub use redsoc_bench as bench;
pub use redsoc_core as core;
pub use redsoc_isa as isa;
pub use redsoc_mem as mem;
pub use redsoc_timing as timing;
pub use redsoc_verify as verify;
pub use redsoc_workloads as workloads;

/// One-stop imports for driving simulations.
pub mod prelude {
    pub use redsoc_core::config::{CoreConfig, SchedMode, SchedulerConfig};
    pub use redsoc_core::events::{
        ChromeTraceSink, EventSink, JsonlSink, NullSink, PipeEvent, RingSink, VecSink,
    };
    pub use redsoc_core::pipeline::{simulate, simulate_events, SimError, Simulator};
    pub use redsoc_core::sched::ts::{run_ts, TsResult};
    pub use redsoc_core::sched::{build_scheduler, Scheduler, SelectRequest};
    pub use redsoc_core::stats::{OpCategory, SimReport, StallBreakdown, StallCause};
    pub use redsoc_isa::prelude::*;
    pub use redsoc_timing::slack::{SlackBucket, SlackLut, WidthClass};
    pub use redsoc_workloads::{BenchClass, Benchmark};
}
