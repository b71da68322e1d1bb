//! Shared pipeline state: the structures every stage borrows.
//!
//! [`PipelineState`] owns the in-flight instruction window, the rename
//! table, the fetch queue, the functional-unit pools, the predictors and
//! the memory hierarchy. The stage implementations
//! ([`frontend`](crate::pipeline::frontend), [`issue`](crate::pipeline::issue),
//! [`exec`](crate::pipeline::exec), [`commit`](crate::pipeline::commit))
//! are `impl PipelineState` blocks in their own files, so each stage
//! borrows exactly this one struct and the borrow checker arbitrates.

use std::collections::VecDeque;
use std::fmt;
use std::mem;
use std::ops::Deref;

use redsoc_isa::opcode::ExecClass;
use redsoc_isa::reg::{ArchReg, NUM_ARCH_REGS};
use redsoc_isa::trace::DynOp;
use redsoc_mem::{build_memory_model, MemoryModel};
use redsoc_timing::optime::MultiCycleLatencies;
use redsoc_timing::pvt::PvtModel;
use redsoc_timing::slack::{SlackLut, WidthClass};
use redsoc_timing::width_predictor::{self, WidthPredictor};
use redsoc_timing::Quant;

use crate::branch::Gshare;
use crate::config::CoreConfig;
use crate::fu::{FuPool, PoolKind};
use crate::stats::SimReport;
use crate::tag_pred::{self, LastArrival, TagPredictor};

use super::wakeup::WakeupState;
use super::SimError;

/// Dynamic instruction state while in flight — one reservation-station /
/// reorder-buffer entry. [`Scheduler`](crate::sched::Scheduler) hooks
/// receive these entries to make wakeup/select/bypass decisions.
#[derive(Debug, Clone)]
pub struct Ifo {
    /// The traced dynamic operation.
    pub op: DynOp,
    /// Execution class resolved at decode.
    pub class: ExecClass,
    /// Whether this is a single-cycle op whose data slack is recyclable.
    pub recyclable: bool,
    /// Functional-unit pool this op issues to.
    pub pool: PoolKind,
    /// Producer tags of all register sources (deduplicated, program
    /// order), stored inline.
    pub srcs: SrcTags,
    /// Predicted-last-arriving source tag (operational RSE design).
    pub pred_last: Option<u64>,
    /// Predicted grandparent tag (the parent's own predicted-last parent).
    pub gp_tag: Option<u64>,
    /// When two source operands were unresolved at rename: the predicted
    /// position (`None` while the predictor is unconfident and conventional
    /// wakeup is used) plus the positions of the two candidate tags within
    /// `srcs`.
    pub pred_pos: Option<(Option<LastArrival>, usize, usize)>,
    /// Quantised compute time from the slack LUT (recyclable ops only).
    pub ext_ticks: u64,
    /// Predicted width at decode (scalar ALU ops).
    pub pred_width: WidthClass,
    /// Destination architectural register (for accumulate-chain detection).
    pub dst_arch: Option<ArchReg>,
    /// Earliest cycle this entry may request selection.
    pub earliest_req: u64,
    /// After a tag mispredict, fall back to all-operands wakeup.
    pub fallback: bool,
    /// Whether the op has issued.
    pub issued: bool,
    /// Cycle the op was selected for issue.
    pub issue_cycle: u64,
    /// First cycle consumers may be selected.
    pub sel_ready: u64,
    /// Estimated completion tick (the CI-bus value). Boundary for
    /// non-recyclable results.
    pub avail: u64,
    /// Cycle at which the ROB may retire this op.
    pub done_cycle: u64,
    /// Whether evaluation began mid-cycle (recycled slack).
    pub transparent: bool,
    /// Whether the evaluation crossed a clock boundary and held its FU for
    /// two cycles (IT3) — the `SlackHold` stall attribution.
    pub held_two: bool,
    /// Length of the transparent chain ending at this op (Fig. 11).
    pub chain_len: u32,
    /// Whether a younger op extended this op's transparent chain.
    pub chain_extended: bool,
    /// Whether the op has retired.
    pub committed: bool,
    /// Whether the op missed in the L1 (loads/stores).
    pub l1_miss: bool,
    /// Whether the memory model structurally rejected this load's last
    /// issue attempt (MSHRs full) — the `StallCause::Mshr` attribution
    /// flag, cleared when the op finally issues.
    pub mem_rejected: bool,
    /// Event-driven wakeup: sequence tags of dispatched consumers waiting
    /// on this entry's issue broadcast (drained exactly once at issue; see
    /// [`crate::pipeline::wakeup`]). The list's capacity outlives the
    /// entry: the next entry to reuse this window slot inherits it.
    pub(crate) waiters: Vec<u64>,
    /// Whether this entry currently sits in its pool's ready set (the
    /// membership mirror preventing double insertion).
    pub(crate) in_ready: bool,
}

/// The producer tags an entry's register sources resolved to at rename:
/// deduplicated, in program order, stored inline.
///
/// An instruction reads at most four registers (the invariant of
/// [`SrcSet`](redsoc_isa::reg::SrcSet)), so four inline tags always
/// suffice and dispatching an entry never touches the heap. The list
/// derefs to `&[u64]`, so reads look like reads of a slice:
/// `x.srcs.iter()`, `x.srcs.contains(&t)`, `x.srcs.get(i)`,
/// `x.srcs.len()`, `for &t in &x.srcs`.
#[derive(Clone, Copy, Default)]
pub struct SrcTags {
    tags: [u64; SrcTags::CAPACITY],
    len: u8,
}

impl SrcTags {
    /// The most tags one entry holds: an instruction's register reads.
    pub const CAPACITY: usize = 4;

    /// Append `tag`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`SrcTags::CAPACITY`] tags.
    pub(crate) fn push(&mut self, tag: u64) {
        self.tags[usize::from(self.len)] = tag;
        self.len += 1;
    }
}

impl Deref for SrcTags {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.tags[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a SrcTags {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for SrcTags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The in-flight window: a power-of-two ring of reusable [`Ifo`] slots,
/// indexed by `seq & mask`.
///
/// It holds every entry from `base` (the oldest seq still resolvable)
/// to the youngest dispatched one. Retiring the oldest entry only
/// advances `base`: the slot keeps its `Ifo`, and the entry that later
/// lands in it inherits the retired entry's `waiters` capacity, so a
/// warmed-up run dispatches and retires without touching the heap. The
/// ring starts empty, which keeps building a simulator cheap, and
/// doubles on demand. A run never holds more than `2 × rob_entries + 64`
/// entries — one full ROB in flight, plus the `rob_entries + 64` retired
/// entries that commit keeps resolvable (see DESIGN.md §8 for why that
/// lag matters) — so growth stops at that bound's next power of two.
#[derive(Debug, Default)]
pub(crate) struct Window {
    slots: Vec<Option<Ifo>>,
    base: u64,
    len: usize,
}

impl Window {
    /// Ring size of the first allocation.
    const MIN_SLOTS: usize = 16;

    /// The oldest seq still in the window.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    fn slot(&self, seq: u64) -> usize {
        // The ring size is a power of two; truncating `seq` keeps the
        // low bits the mask selects.
        seq as usize & (self.slots.len() - 1)
    }

    /// The entry for `seq`, if it is in the window.
    pub(crate) fn get(&self, seq: u64) -> Option<&Ifo> {
        if seq.wrapping_sub(self.base) < self.len as u64 {
            self.slots[self.slot(seq)].as_ref()
        } else {
            None
        }
    }

    pub(crate) fn get_mut(&mut self, seq: u64) -> Option<&mut Ifo> {
        if seq.wrapping_sub(self.base) < self.len as u64 {
            let i = self.slot(seq);
            self.slots[i].as_mut()
        } else {
            None
        }
    }

    /// Append `ifo` as seq `base + len`. The new entry, which has no
    /// waiters yet, takes over the list (cleared, capacity kept) of the
    /// retired entry whose slot it reuses.
    pub(crate) fn push(&mut self, mut ifo: Ifo) {
        let seq = self.base + self.len as u64;
        debug_assert_eq!(ifo.op.seq, seq, "window entries are contiguous");
        debug_assert!(ifo.waiters.is_empty(), "a new entry has no waiters");
        if self.len == self.slots.len() {
            self.grow();
        }
        let i = self.slot(seq);
        let slot = &mut self.slots[i];
        if let Some(retired) = slot {
            mem::swap(&mut ifo.waiters, &mut retired.waiters);
            ifo.waiters.clear();
        }
        *slot = Some(ifo);
        self.len += 1;
    }

    /// Retire the oldest entry and return it. Its slot stays allocated
    /// for the entry that reuses it.
    pub(crate) fn pop_front(&mut self) -> Option<&Ifo> {
        if self.len == 0 {
            return None;
        }
        let i = self.slot(self.base);
        self.base += 1;
        self.len -= 1;
        self.slots[i].as_ref()
    }

    /// The entries in seq order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Ifo> {
        (self.base..self.base + self.len as u64).filter_map(|s| self.get(s))
    }

    /// Double the ring (to at least `MIN_SLOTS`), re-seating every entry
    /// at its slot under the new mask. Called only when the ring is full.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let mut old = mem::take(&mut self.slots);
        self.slots.resize_with(cap, || None);
        for seq in self.base..self.base + self.len as u64 {
            let from = seq as usize & (old.len() - 1);
            let to = self.slot(seq);
            self.slots[to] = old[from].take();
        }
    }
}

/// A fetched op waiting to dispatch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fetched {
    pub(crate) op: DynOp,
    pub(crate) ready_cycle: u64,
}

/// The shared micro-architectural state all pipeline stages operate on.
///
/// Stage mechanism lives in `impl PipelineState` blocks under
/// [`crate::pipeline`]; scheduling policy is delegated to a
/// [`Scheduler`](crate::sched::Scheduler). External scheduler
/// implementations observe the state through the documented accessors
/// ([`PipelineState::cycle`], [`PipelineState::quant`],
/// [`PipelineState::ifo`], [`PipelineState::src_sel_ready`], …).
#[derive(Debug)]
pub struct PipelineState {
    pub(crate) config: CoreConfig,
    pub(crate) quant: Quant,
    /// The design-time slack LUT (worst-case PVT corner).
    pub(crate) base_lut: SlackLut,
    /// The active LUT — equal to `base_lut`, or recalibrated against the
    /// measured PVT guard band each epoch (§V).
    pub(crate) lut: SlackLut,
    pub(crate) pvt: PvtModel,
    pub(crate) latencies: MultiCycleLatencies,

    // Pipeline state.
    pub(crate) cycle: u64,
    pub(crate) window: Window,
    pub(crate) next_seq: u64,
    pub(crate) committed_total: u64,
    pub(crate) dispatched_total: u64,
    pub(crate) rse_used: u32,
    pub(crate) lsq_used: u32,
    pub(crate) rat: [Option<u64>; NUM_ARCH_REGS],
    /// In-window store seqs in program order — the index behind
    /// [`PipelineState::load_blocked`] / `forwarding_store`, so memory
    /// disambiguation walks only the stores, not the whole window.
    pub(crate) store_seqs: VecDeque<u64>,
    pub(crate) fetchq: VecDeque<Fetched>,
    pub(crate) fetch_stopped: bool,
    pub(crate) pending_redirect: Option<u64>,
    pub(crate) fetch_blocked_until: u64,

    // Functional-unit pools.
    pub(crate) alu: FuPool,
    pub(crate) simd: FuPool,
    pub(crate) fp: FuPool,
    pub(crate) mem_ports: FuPool,

    // Predictors & memory.
    pub(crate) width_pred: WidthPredictor,
    pub(crate) tag_pred: TagPredictor,
    pub(crate) gshare: Gshare,
    /// The memory port: loads request service at issue, stores at
    /// retirement. Built from [`CoreConfig::mem_model`].
    pub(crate) memory: Box<dyn MemoryModel>,

    // Event-driven wakeup bookkeeping + persistent issue-stage scratch.
    pub(crate) wakeup: WakeupState,
    /// Drive issue with the legacy O(window) scan (differential testing).
    #[cfg(feature = "scan-wakeup")]
    pub(crate) scan_wakeup: bool,

    // Statistics.
    pub(crate) report: SimReport,
}

impl PipelineState {
    /// Build the initial state for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] if the configuration is invalid.
    pub(crate) fn new(config: CoreConfig) -> Result<Self, SimError> {
        config.validate().map_err(SimError::BadConfig)?;
        let quant = config.sched.quant();
        let memory = build_memory_model(
            config.mem_model,
            config.l1,
            config.l2,
            config.mem_latencies,
            config.prefetch,
        );
        let pvt = if config.sched.pvt_guard_band {
            PvtModel::nominal()
        } else {
            PvtModel::worst_case()
        };
        Ok(PipelineState {
            quant,
            base_lut: SlackLut::new(),
            lut: SlackLut::new(),
            pvt,
            latencies: MultiCycleLatencies::default(),
            cycle: 0,
            window: Window::default(),
            next_seq: 0,
            committed_total: 0,
            dispatched_total: 0,
            rse_used: 0,
            lsq_used: 0,
            rat: [None; NUM_ARCH_REGS],
            store_seqs: VecDeque::new(),
            fetchq: VecDeque::new(),
            fetch_stopped: false,
            pending_redirect: None,
            fetch_blocked_until: 0,
            alu: FuPool::new(config.alu_units),
            simd: FuPool::new(config.simd_units),
            fp: FuPool::new(config.fp_units),
            mem_ports: FuPool::new(config.mem_ports),
            width_pred: WidthPredictor::new(
                width_predictor::DEFAULT_ENTRIES,
                width_predictor::DEFAULT_CONF_BITS,
            ),
            tag_pred: TagPredictor::new(tag_pred::DEFAULT_ENTRIES),
            gshare: Gshare::default_config(),
            memory,
            wakeup: WakeupState::new(),
            #[cfg(feature = "scan-wakeup")]
            scan_wakeup: false,
            report: SimReport::default(),
            config,
        })
    }

    /// The current simulated cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The CI quantiser (ticks-per-cycle arithmetic).
    #[must_use]
    pub fn quant(&self) -> Quant {
        self.quant
    }

    /// The core configuration this pipeline was built from.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Look up the in-flight entry for `tag`; `None` once it has retired
    /// out of the window (architecturally ready).
    #[must_use]
    pub fn ifo(&self, tag: u64) -> Option<&Ifo> {
        self.window.get(tag)
    }

    pub(crate) fn ifo_mut(&mut self, tag: u64) -> Option<&mut Ifo> {
        self.window.get_mut(tag)
    }

    pub(crate) fn pool_mut(&mut self, kind: PoolKind) -> &mut FuPool {
        match kind {
            PoolKind::Alu => &mut self.alu,
            PoolKind::Simd => &mut self.simd,
            PoolKind::Fp => &mut self.fp,
            PoolKind::Mem => &mut self.mem_ports,
        }
    }

    pub(crate) fn pool(&self, kind: PoolKind) -> &FuPool {
        match kind {
            PoolKind::Alu => &self.alu,
            PoolKind::Simd => &self.simd,
            PoolKind::Fp => &self.fp,
            PoolKind::Mem => &self.mem_ports,
        }
    }
}
