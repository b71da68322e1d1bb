//! The staged cycle-level out-of-order pipeline.
//!
//! Trace-driven: a stream of [`DynOp`]s (the committed path, produced by
//! the functional interpreter or a synthetic generator) is replayed
//! through a detailed timing model of the paper's core (Table I): a
//! width-limited front end with gshare branch prediction, register
//! renaming through a RAT, a reorder buffer, reservation stations with
//! wakeup/select scheduling, per-class functional-unit pools, a
//! load/store queue over a two-level cache hierarchy, and in-order
//! commit.
//!
//! The model is split into stage modules, each an `impl` block over the
//! shared [`state::PipelineState`]:
//!
//! - [`frontend`] — fetch, branch redirects, dispatch (rename/RAT,
//!   ROB/RSE/LSQ allocation, slack classification, tag prediction);
//! - [`issue`] — reservation-station wakeup, per-pool select
//!   arbitration, the issue attempt;
//! - [`exec`] — operand dataflow (transparent bypass, VMLA
//!   late-forwarding, store-to-load forwarding) and multi-cycle /
//!   memory / control completion timing;
//! - [`commit`] — in-order retirement, store writeback, statistics.
//!
//! Scheduling *policy* — what distinguishes baseline, ReDSOC, TS and MOS
//! — is not in these stages: each decision point delegates to the run's
//! [`Scheduler`] (see [`crate::sched`] for the
//! four implementations and the hook-by-hook contract).
//!
//! ## Sub-cycle timing model
//!
//! Absolute time is measured in CI *ticks* (`2^ci_bits` per cycle,
//! [`Quant`](redsoc_timing::Quant)). An instruction issued (selected) in
//! cycle `t` reaches its FU in cycle `t+1` and begins evaluating at
//! `max(start of t+1, availability of its sources)`. Producers broadcast
//! their tag at issue assuming single-cycle latency, so a consumer can be
//! selected at `t+1` (back to back); a producer whose transparent
//! evaluation crosses into its second cycle is caught mid-cycle by a
//! consumer arriving then — that is how slack accumulates across chains
//! without EGPW — while EGPW catches producers that complete *within*
//! their own execution cycle by issuing the consumer in the same cycle as
//! the producer.

pub mod commit;
pub mod exec;
pub mod frontend;
pub mod issue;
pub mod state;
pub mod wakeup;

use redsoc_isa::instruction::Instr;
use redsoc_isa::opcode::ExecClass;
use redsoc_isa::trace::DynOp;
use redsoc_timing::pvt::EPOCH_CYCLES;

use crate::config::CoreConfig;
use crate::events::{EventSink, NullSink, PipeEvent};
use crate::sched::{build_scheduler, Scheduler};
use crate::stats::{SimReport, StallCause};

use state::PipelineState;

/// Simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The pipeline made no commit progress for an implausibly long time —
    /// a model bug, reported rather than hung.
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
        /// Instructions committed before the stall.
        committed: u64,
        /// Dump of the most recent pipeline events from the run's sink
        /// (empty when events were disabled — rerun with a retaining sink
        /// such as `RingSink` for the diagnostic).
        recent_events: Vec<String>,
    },
    /// The core configuration failed validation.
    BadConfig(String),
    /// The run reached its cycle budget
    /// ([`Simulator::with_cycle_budget`]). The partial run is discarded;
    /// this is the supervisor's watchdog path, not a model bug.
    Cancelled {
        /// Cycle at which the cancellation was observed.
        cycle: u64,
        /// Instructions committed before cancellation.
        committed: u64,
        /// Dump of the most recent pipeline events from the run's sink
        /// (empty when events were disabled).
        recent_events: Vec<String>,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::Deadlock {
                cycle,
                committed,
                recent_events,
            } => {
                write!(
                    f,
                    "no commit progress at cycle {cycle} ({committed} committed)"
                )?;
                if recent_events.is_empty() {
                    write!(
                        f,
                        "; events were disabled — rerun with --events for a pipeline dump"
                    )
                } else {
                    write!(f, "; last {} pipeline events:", recent_events.len())?;
                    for ev in recent_events {
                        write!(f, "\n  {ev}")?;
                    }
                    Ok(())
                }
            }
            SimError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Cancelled {
                cycle, committed, ..
            } => {
                write!(f, "run cancelled at cycle {cycle} ({committed} committed)")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The simulator: pipeline state plus the scheduling policy driving it.
/// Construct with [`Simulator::new`] (policy chosen by
/// `config.sched.mode`) or [`Simulator::with_scheduler`] (any
/// [`Scheduler`] implementation), feed a trace with [`Simulator::run`].
///
/// ```no_run
/// use redsoc_core::config::{CoreConfig, SchedulerConfig};
/// use redsoc_core::pipeline::Simulator;
/// use redsoc_isa::prelude::*;
///
/// # fn get_trace() -> Vec<DynOp> { vec![] }
/// let trace = get_trace();
/// let config = CoreConfig::big().with_sched(SchedulerConfig::redsoc());
/// let report = Simulator::new(config)?.run(trace.into_iter())?;
/// println!("IPC {:.2}", report.ipc());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    state: PipelineState,
    sched: Box<dyn Scheduler>,
    /// The run stops once the cycle count reaches this; `u64::MAX` (the
    /// default) never trips.
    cycle_budget: u64,
}

impl Simulator {
    /// Build a simulator for `config`, with the scheduling policy chosen
    /// by `config.sched.mode` through the
    /// [`build_scheduler`] registry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] if the configuration is invalid.
    pub fn new(config: CoreConfig) -> Result<Self, SimError> {
        let sched = build_scheduler(&config.sched);
        Simulator::with_scheduler(config, sched)
    }

    /// Build a simulator for `config` driven by an explicit [`Scheduler`]
    /// implementation — the entry point for plugging in a custom
    /// scheduling design (`config.sched.mode` is ignored).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] if the configuration is invalid.
    pub fn with_scheduler(config: CoreConfig, sched: Box<dyn Scheduler>) -> Result<Self, SimError> {
        Ok(Simulator {
            state: PipelineState::new(config)?,
            sched,
            cycle_budget: u64::MAX,
        })
    }

    /// Stop the run with [`SimError::Cancelled`] once the simulated cycle
    /// count reaches `max_cycles` (builder-style) — the job-level runaway
    /// watchdog the sweep supervisor attaches. The budget is polled every
    /// 1024 cycles, so a run stops at the first multiple of 1024 at or
    /// after it.
    #[must_use]
    pub fn with_cycle_budget(mut self, max_cycles: u64) -> Self {
        self.cycle_budget = max_cycles;
        self
    }

    /// Differential-testing escape hatch (feature `scan-wakeup`): drive
    /// the issue stage with the legacy O(window) full scan instead of the
    /// event-driven ready sets of [`wakeup`]. Both paths must produce
    /// byte-identical results — that equivalence is what the
    /// golden-fixture property test asserts. Not part of the stable API.
    #[cfg(feature = "scan-wakeup")]
    #[doc(hidden)]
    #[must_use]
    pub fn with_scan_wakeup(mut self) -> Self {
        self.state.scan_wakeup = true;
        self
    }

    /// Run the trace to completion and return the report.
    ///
    /// This is the [`NullSink`] specialisation of the single generic
    /// entry point, [`Simulator::run_events`] — there is no separate
    /// event-free code path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the pipeline stops making
    /// progress (a model bug guard, not an expected outcome), or
    /// [`SimError::Cancelled`] if the run reached its cycle budget.
    pub fn run(self, trace: impl Iterator<Item = DynOp>) -> Result<SimReport, SimError> {
        self.run_events(trace, &mut NullSink)
    }

    /// Run the trace, streaming pipeline events into `sink` — the single
    /// generic entry point every run goes through.
    ///
    /// With the default [`NullSink`] (`EventSink::ENABLED == false`) every
    /// emission site monomorphises away and the run is identical to
    /// [`Simulator::run`]. Stall attribution is always on: it feeds
    /// `SimReport::stalls` regardless of the sink.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the pipeline stops making
    /// progress; the error carries `sink.recent()` as a diagnostic.
    pub fn run_events<S: EventSink>(
        self,
        mut trace: impl Iterator<Item = DynOp>,
        sink: &mut S,
    ) -> Result<SimReport, SimError> {
        let Simulator {
            mut state,
            sched,
            cycle_budget,
        } = self;
        let sched = &*sched;
        let mut last_progress_cycle = 0u64;
        let mut last_committed = 0u64;
        loop {
            // The cycle budget is polled every 1024 cycles so the hot
            // loop stays branch-predictable and watchdog budgets are
            // still observed within a rounding error of their value.
            if state.cycle & 0x3FF == 0 && state.cycle >= cycle_budget {
                return Err(SimError::Cancelled {
                    cycle: state.cycle,
                    committed: state.committed_total,
                    recent_events: sink.recent(),
                });
            }
            // CPM-driven LUT recalibration at epoch boundaries (§V).
            if state.config.sched.pvt_guard_band && state.cycle.is_multiple_of(EPOCH_CYCLES) {
                let gb = state.pvt.guard_band_ps(state.cycle);
                state.lut = state.base_lut.with_guard_band(gb);
            }
            let committed_before = state.committed_total;
            state.commit(sched, sink);
            let fu_denied = state.select_and_issue(sched, sink);
            let dispatch_block = state.dispatch(sched, sink);
            state.fetch(&mut trace, sink);

            if state.committed_total != last_committed {
                last_committed = state.committed_total;
                last_progress_cycle = state.cycle;
            } else if state.cycle - last_progress_cycle > state.config.deadlock_cycles {
                return Err(SimError::Deadlock {
                    cycle: state.cycle,
                    committed: state.committed_total,
                    recent_events: sink.recent(),
                });
            }

            let drained = state.fetch_stopped
                && state.fetchq.is_empty()
                && state.committed_total == state.dispatched_total;
            if drained {
                break;
            }
            // Charge this cycle to exactly one cause: the partition
            // invariant `stalls.total() == cycles` holds by construction.
            let cause = state.attribute_stall(
                state.committed_total - committed_before,
                fu_denied,
                dispatch_block,
            );
            state.report.stalls.bump(cause);
            if S::ENABLED && cause != StallCause::Busy {
                sink.record(state.cycle, &PipeEvent::StallCycle { cause });
            }
            state.cycle += 1;
        }
        if state.cycle == 0 {
            // Empty trace: the report counts one cycle; charge it too.
            state.report.stalls.bump(StallCause::Frontend);
        }
        state.drain_chain_stats();
        state.report.cycles = state.cycle.max(1);
        state.report.committed = state.committed_total;
        state.report.tag_pred = state.tag_pred.stats();
        state.report.width_pred = state.width_pred.stats();
        state.report.branch = state.gshare.stats();
        state.report.memory = state.memory.stats();
        state.report.mem_contention = state.memory.contention();
        debug_assert_eq!(state.report.stalls.total(), state.report.cycles);
        Ok(state.report)
    }
}

impl PipelineState {
    /// Pick the single cause this non-draining cycle is charged to.
    ///
    /// Priority: a retiring cycle is busy; otherwise the ROB head explains
    /// the stall (it is the oldest instruction, so nothing younger can be
    /// the bottleneck): an issued head is waiting on the memory hierarchy,
    /// a boundary-crossing slack hold, or plain execution latency; an
    /// unissued head was denied a functional unit, blocked behind a store,
    /// or is waiting on dispatch back-pressure. An empty ROB is the front
    /// end's fault.
    fn attribute_stall(
        &self,
        committed_delta: u64,
        fu_denied: bool,
        dispatch_block: Option<StallCause>,
    ) -> StallCause {
        if committed_delta > 0 {
            return StallCause::Busy;
        }
        match self.ifo(self.committed_total) {
            Some(head) if head.issued => {
                if matches!(head.class, ExecClass::Load | ExecClass::Store) {
                    StallCause::Memory
                } else if head.held_two {
                    StallCause::SlackHold
                } else {
                    StallCause::ExecLatency
                }
            }
            Some(head) => {
                if head.mem_rejected {
                    // The oldest instruction is a load parked on a full
                    // MSHR file — a structural memory-model stall, not FU
                    // contention.
                    StallCause::Mshr
                } else if fu_denied {
                    StallCause::FuContention
                } else if matches!(head.op.instr, Instr::Load { .. }) && self.load_blocked(head) {
                    StallCause::Memory
                } else if let Some(cause) = dispatch_block {
                    cause
                } else {
                    StallCause::Frontend
                }
            }
            None => dispatch_block.unwrap_or(StallCause::Frontend),
        }
    }
}

/// Convenience: simulate `trace` on `config` (the [`NullSink`]
/// specialisation of [`simulate_events`] — the single generic path).
///
/// # Errors
///
/// Propagates [`SimError`] from construction or the run.
pub fn simulate(
    trace: impl Iterator<Item = DynOp>,
    config: CoreConfig,
) -> Result<SimReport, SimError> {
    simulate_events(trace, config, &mut NullSink)
}

/// Convenience: simulate `trace` on `config`, streaming pipeline events
/// into `sink` (see [`Simulator::run_events`]).
///
/// # Errors
///
/// Propagates [`SimError`] from construction or the run.
pub fn simulate_events<S: EventSink>(
    trace: impl Iterator<Item = DynOp>,
    config: CoreConfig,
    sink: &mut S,
) -> Result<SimReport, SimError> {
    Simulator::new(config)?.run_events(trace, sink)
}

#[cfg(test)]
mod tests;
