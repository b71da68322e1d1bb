//! Pluggable scheduling policies for the staged pipeline.
//!
//! The issue stage of [`crate::pipeline`] is mechanism — reservation
//! stations, per-pool select arbiters, the register scoreboard, functional
//! unit reservation. Everything that makes one scheduling *design* differ
//! from another is policy, and lives behind the [`Scheduler`] trait:
//!
//! - [`baseline::BaselineScheduler`] — conventional all-operands wakeup,
//!   oldest-first select, boundary-aligned completion.
//! - [`redsoc::RedsocScheduler`] — the paper's slack-recycling design:
//!   last-arrival tag-predicted wakeup, eager grandparent wakeup,
//!   skewed selection, transparent bypass and CI-resolution completion.
//! - [`ts::TsScheduler`] — the timing-speculation comparator (§VI-D):
//!   conventional scheduling under a statically shortened clock.
//! - [`mos::MosScheduler`] — the operation-fusion comparator (§VI-D):
//!   conventional timing plus greedy same-cycle fusion of dependent
//!   single-cycle ops.
//!
//! A scheduler is a *policy object*: the hooks receive the pipeline state
//! (reservation-station window, scoreboard, quantiser, predictors) and
//! return decisions; per-instruction bookkeeping stays in the
//! [`Ifo`] entries. Registering a new design
//! means implementing the trait and handing a boxed instance to
//! [`Simulator::with_scheduler`](crate::pipeline::Simulator::with_scheduler)
//! — every default method reproduces conventional baseline behaviour, so
//! a minimal scheduler only overrides what it changes:
//!
//! ```
//! use redsoc_core::config::CoreConfig;
//! use redsoc_core::pipeline::Simulator;
//! use redsoc_core::sched::{Scheduler, SelectRequest};
//!
//! /// Selects youngest-first instead of oldest-first.
//! #[derive(Debug)]
//! struct YoungestFirst;
//!
//! impl Scheduler for YoungestFirst {
//!     fn name(&self) -> &'static str {
//!         "youngest-first"
//!     }
//!     fn select(&self, requests: &mut [SelectRequest]) {
//!         requests.sort_unstable_by_key(|r| std::cmp::Reverse(r.seq));
//!     }
//! }
//!
//! let sim = Simulator::with_scheduler(CoreConfig::big(), Box::new(YoungestFirst))?;
//! # let _ = sim;
//! # Ok::<(), redsoc_core::pipeline::SimError>(())
//! ```

pub mod baseline;
pub mod mos;
pub mod redsoc;
pub mod ts;

use core::fmt;

use redsoc_timing::Quant;

use crate::config::{SchedMode, SchedulerConfig};
use crate::pipeline::state::{Ifo, PipelineState};

/// One entry's bid for a functional unit this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectRequest {
    /// Sequence tag of the requesting reservation-station entry.
    pub seq: u64,
    /// Grandparent-speculative request (eager grandparent wakeup, §IV-B):
    /// the entry bids before its predicted-last parent has broadcast,
    /// hoping the parent issues in the same cycle.
    pub spec: bool,
}

/// Completion timing of an issued operation, as decided by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecTiming {
    /// First cycle at which consumers may be selected.
    pub sel_ready: u64,
    /// Estimated completion tick — the CI-bus broadcast value.
    pub avail: u64,
    /// Cycle at which the ROB may retire the op.
    pub done_cycle: u64,
    /// Execution cycles the functional unit stays reserved.
    pub occupancy: u32,
    /// Whether the evaluation crossed a clock boundary and holds its FU
    /// for two cycles (IT3).
    pub held_two: bool,
}

impl ExecTiming {
    /// Conventional single-cycle timing: selected at `t`, executes in
    /// `t + 1`, completes at the next clock boundary.
    #[must_use]
    pub fn boundary(quant: Quant, t: u64) -> Self {
        ExecTiming {
            sel_ready: t + 1,
            avail: quant.cycle_start(t + 2),
            done_cycle: t + 2,
            occupancy: 1,
            held_two: false,
        }
    }
}

/// The issuing op's decode-time attributes handed to
/// [`Scheduler::on_issue`] — a Copy snapshot, so the hook never needs to
/// re-borrow (or clone) the reservation-station entry it is timing.
#[derive(Debug, Clone, Copy)]
pub struct IssueArgs {
    /// The traced dynamic operation.
    pub op: redsoc_isa::trace::DynOp,
    /// Execution class resolved at decode.
    pub class: redsoc_isa::opcode::ExecClass,
    /// Quantised compute time from the slack LUT.
    pub ext_ticks: u64,
    /// Predicted operand width at decode.
    pub pred_width: redsoc_timing::slack::WidthClass,
    /// Absolute tick at which evaluation begins (latest source
    /// availability, no earlier than FU arrival).
    pub start: u64,
    /// Cycle the op was selected.
    pub cycle: u64,
}

/// An op packed into its producer's execution cycle by a fusing scheduler
/// (MOS). Returned from [`Scheduler::post_issue`] so the pipeline can emit
/// the matching issue events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedIssue {
    /// Sequence tag of the fused consumer.
    pub seq: u64,
    /// Tick offset of its evaluation start within the shared execution
    /// cycle (the summed compute time of the chain before it).
    pub start_offset: u64,
}

/// A scheduling policy plugged into the pipeline's issue stage.
///
/// Hook order per simulated cycle: [`Scheduler::wakeup`] builds the
/// select requests, [`Scheduler::select`] orders each pool's requests,
/// then per grant the issue stage consults
/// [`Scheduler::spec_grant_usable`] (speculative grants),
/// [`Scheduler::uses_tag_prediction`] (scoreboard validation),
/// [`Scheduler::on_issue`] (completion timing of single-cycle ops) and
/// [`Scheduler::post_issue`] (fusion). [`Scheduler::on_writeback`] fires
/// as each op retires. Every default reproduces the conventional
/// baseline, so implementations override only what their design changes.
pub trait Scheduler: fmt::Debug + Send + Sync {
    /// Short machine-readable policy name.
    fn name(&self) -> &'static str;

    /// Rename-time policy: should a recyclable op consume a last-arrival
    /// tag prediction (the operational RSE design, §IV-C)? When `false`,
    /// rename stores all source tags for conventional wakeup.
    fn uses_tag_prediction(&self, recyclable: bool) -> bool {
        let _ = recyclable;
        false
    }

    /// Wakeup: whether entry `x` requests selection this cycle. The
    /// pipeline has already filtered issued/committed entries, recovery
    /// holds (`earliest_req`) and blocked loads. The default is
    /// conventional wakeup: request once every source has broadcast.
    ///
    /// # Purity contract (event-driven wakeup)
    ///
    /// The issue stage evaluates this hook *lazily*: an entry sleeps until
    /// one of its wake events fires (a source's issue broadcast, or its
    /// own `earliest_req` alarm) and is only then re-polled. For that to
    /// be equivalent to polling every cycle, `wakeup` must be:
    ///
    /// 1. **Pure** in the entry's own fields, the source scoreboard
    ///    (`src_sel_ready` over `srcs` ∪ `gp_tag`) and the current cycle —
    ///    no hidden state, no side effects.
    /// 2. **Monotone** in the cycle: once it returns `Some` it keeps
    ///    returning `Some` (with possibly different `spec`) until the
    ///    entry issues or its `earliest_req` is pushed into the future by
    ///    a recovery path.
    ///
    /// If an implementation cannot satisfy the contract (it reads state
    /// the wake events don't cover), the pipeline degrades gracefully: an
    /// entry whose sources have all issued but whose `wakeup` still
    /// returns `None` is re-armed for the next cycle and polled again —
    /// never silently dropped — at per-cycle polling cost for that entry.
    /// All four in-tree schedulers satisfy the contract (audit notes in
    /// each module).
    fn wakeup(&self, state: &PipelineState, x: &Ifo) -> Option<SelectRequest> {
        let all_ready = x.srcs.iter().all(|&t| {
            state
                .src_sel_ready(t, x)
                .is_some_and(|r| r <= state.cycle())
        });
        all_ready.then_some(SelectRequest {
            seq: x.op.seq,
            spec: false,
        })
    }

    /// Select: order one pool's requests before grants are handed out in
    /// vector order. The default is oldest-first. Sequence tags are
    /// unique, so an unstable sort is deterministic and allocation-free.
    fn select(&self, requests: &mut [SelectRequest]) {
        requests.sort_unstable_by_key(|r| r.seq);
    }

    /// Whether skewed arbitration is active: non-speculative requests are
    /// always serviced before speculative ones, so a child can never race
    /// ahead of its parent and GP-mispeculation recovery is unreachable.
    /// Must agree with the ordering [`Scheduler::select`] imposes.
    fn skewed_select(&self) -> bool {
        false
    }

    /// Bypass policy: may `consumer` observe `producer`'s raw Completion
    /// Instant through the transparent bypass network (sub-cycle operand
    /// hand-off), rather than waiting for the next clock boundary?
    fn transparent_pair(&self, producer: &Ifo, consumer: &Ifo) -> bool {
        let _ = (producer, consumer);
        false
    }

    /// The recycling decision for a speculative grant (§IV-D): `x` was
    /// granted on the strength of its grandparent's broadcast and its
    /// parent issued this cycle — is the parent's within-cycle slack
    /// actually usable? Schedulers without eager grandparent wakeup never
    /// see this hook.
    fn spec_grant_usable(&self, state: &PipelineState, x: &Ifo, parent: &Ifo, t: u64) -> bool {
        let _ = (state, x, parent, t);
        false
    }

    /// On-issue: completion timing of a recyclable (single-cycle-class)
    /// op whose evaluation begins at `issue.start` after being selected at
    /// `issue.cycle`. Multi-cycle, memory and control classes are
    /// mechanism and are timed by the pipeline itself. The default
    /// completes at the next clock boundary.
    fn on_issue(&self, state: &mut PipelineState, issue: &IssueArgs) -> ExecTiming {
        ExecTiming::boundary(state.quant(), issue.cycle)
    }

    /// Post-issue hook: `producer` (already marked issued) was selected
    /// at cycle `t`. A fusing scheduler may pack dependent ops into the
    /// same execution cycle here, returning them for event emission.
    fn post_issue(&self, state: &mut PipelineState, producer: u64, t: u64) -> Vec<FusedIssue> {
        let _ = (state, producer, t);
        Vec::new()
    }

    /// On-writeback hook: `x` is retiring at `cycle`. Default no-op; the
    /// extension point for designs that train on observed completion
    /// times (e.g. load-delay-tracking schedulers).
    fn on_writeback(&self, x: &Ifo, cycle: u64) {
        let _ = (x, cycle);
    }

    /// Serialize scheduler-private mutable state.
    ///
    /// The simulator never calls this hook or [`Scheduler::restore`]:
    /// crash recovery is job-granular (a sweep journal re-runs an
    /// interrupted cell from cycle 0), so no pipeline state is ever
    /// saved mid-run. The pair stays in the trait so existing
    /// implementations keep compiling. The default returns an empty blob.
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restore scheduler-private state captured by [`Scheduler::snapshot`].
    /// Unused by the simulator, like `snapshot`.
    ///
    /// The default accepts only the empty blob its `snapshot` default
    /// produces.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when the blob cannot be
    /// applied to this scheduler.
    fn restore(&mut self, blob: &[u8]) -> Result<(), String> {
        if blob.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "scheduler '{}' has no private state, but the snapshot carries {} bytes",
                self.name(),
                blob.len()
            ))
        }
    }
}

/// Build the scheduler implementing `config.mode` — the registry the
/// simulator (and thereby every figure binary and the sweep runner) uses.
#[must_use]
pub fn build_scheduler(config: &SchedulerConfig) -> Box<dyn Scheduler> {
    match config.mode {
        SchedMode::Baseline => Box::new(baseline::BaselineScheduler),
        SchedMode::Redsoc => Box::new(redsoc::RedsocScheduler::from_config(config)),
        SchedMode::Mos => Box::new(mos::MosScheduler),
    }
}
