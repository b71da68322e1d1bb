//! Event-driven wakeup bookkeeping: per-pool ready sets and an
//! `earliest_req` timer wheel.
//!
//! The issue stage used to re-scan every reservation-station entry every
//! cycle to rebuild the select requests — O(window) work per cycle even
//! when nothing changed. This module replaces the scan with explicit
//! readiness tracking so `select_and_issue` touches only entries that
//! can actually bid: **O(ready + broadcasts)** per cycle.
//!
//! Three structures, all owned by [`PipelineState`]:
//!
//! - **Ready sets** (`ready`, one `Vec<u64>` per [`PoolKind`]): the
//!   candidate entries whose `earliest_req` has passed and whose
//!   [`Scheduler::wakeup`] hook answered `Some` when last examined.
//!   Membership is mirrored by [`Ifo::in_ready`] so an entry is never
//!   inserted twice. Members are re-evaluated each cycle (a speculative
//!   EGPW request upgrades to non-speculative when the parent issues), and
//!   removed only when they issue or defer — at which point the wheel is
//!   armed, so **no entry is ever silently dropped from wakeup**.
//! - **Timer wheel** (`wheel` + `far`): "re-examine entry `s` at cycle
//!   `t`" alarms. Arms within `WHEEL_SLOTS` cycles go to a ring slot;
//!   farther arms (DRAM-class waits on exotic configs, or the
//!   `earliest_req = u64::MAX` used by tests to park an entry forever)
//!   overflow into a `BTreeMap` drained by due date.
//! - **Broadcast subscriptions** ([`Ifo::waiters`]): at dispatch a
//!   consumer subscribes to each still-unissued producer among
//!   `srcs ∪ {gp_tag}`. When the producer issues (the CI-bus broadcast)
//!   its waiter list is drained exactly once, arming each waiter at that
//!   operand's select-ready threshold — which bakes in per-consumer lead
//!   times such as the VMLA multiply-operand offset.
//!
//! Alarms fire for *candidates*, not certainties: a due entry whose
//! wakeup hook still answers `None` is re-armed at the earliest future
//! select-ready threshold among its issued operands
//! (`PipelineState::wakeup_sleep_plan`); if no such threshold exists and
//! no operand subscription is pending either — possible only for a wakeup
//! hook that violates the purity contract documented on
//! [`Scheduler::wakeup`] — the entry degrades to per-cycle polling rather
//! than being dropped.
//!
//! All scratch buffers (`requests`, `granted`, wheel slots) persist
//! across cycles, and a drained waiter list keeps its capacity in its
//! window slot, so a warmed-up simulation cycle — commit, issue,
//! dispatch and fetch — performs **zero heap allocations** under the
//! baseline and ReDSOC schedulers. A counting allocator in this
//! module's tests asserts it.
//!
//! The legacy full-window scan is kept behind the `scan-wakeup` feature
//! (see [`Simulator::with_scan_wakeup`]) for differential testing; the
//! golden-fixture suite proves the two paths emit byte-identical event
//! streams.
//!
//! [`Scheduler::wakeup`]: crate::sched::Scheduler::wakeup
//! [`Ifo::in_ready`]: super::state::Ifo
//! [`Ifo::waiters`]: super::state::Ifo
//! [`Simulator::with_scan_wakeup`]: super::Simulator
//! [`PoolKind`]: crate::fu::PoolKind

// Invariant `expect`s in this module are deliberate: each one guards a
// structural pipeline invariant that only a simulator bug can violate
// (never operator input), and a loud abort — isolated and quarantined
// per job by the bench supervisor — beats silently corrupting a
// result. The per-cycle hot path stays `Result`-free.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::mem;

use crate::fu::PoolKind;
use crate::sched::{Scheduler, SelectRequest};

use super::state::PipelineState;

/// Pool iteration order of the issue stage — fixed, as the select
/// arbiters are physically separate; also the index space of the per-pool
/// arrays below.
pub(crate) const POOLS: [PoolKind; 4] =
    [PoolKind::Alu, PoolKind::Simd, PoolKind::Fp, PoolKind::Mem];

/// Direct index of a pool in the per-pool arrays (the old linear
/// `requests.iter_mut().find(|(k, _)| *k == pool)` lookup, retired).
pub(crate) fn pool_index(kind: PoolKind) -> usize {
    match kind {
        PoolKind::Alu => 0,
        PoolKind::Simd => 1,
        PoolKind::Fp => 2,
        PoolKind::Mem => 3,
    }
}

/// Near-horizon size of the timer wheel. One slot per future cycle;
/// covers every latency the default memory hierarchy can produce (DRAM is
/// 120 cycles). Anything farther lands in the `far` overflow map.
const WHEEL_SLOTS: u64 = 512;

/// The event-driven wakeup state and the issue stage's persistent scratch
/// buffers. See the [module docs](self) for the design.
#[derive(Debug)]
pub(crate) struct WakeupState {
    /// Per-pool candidate sets (unordered; requests are sorted by seq
    /// before select). Mirrored by `Ifo::in_ready`.
    pub(crate) ready: [Vec<u64>; 4],
    /// Near timer wheel: slot `t % WHEEL_SLOTS` holds entries to
    /// re-examine at cycle `t`.
    wheel: Vec<Vec<u64>>,
    /// Far arms, keyed by due cycle.
    far: BTreeMap<u64, Vec<u64>>,
    /// Per-pool select-request scratch, reused every cycle.
    pub(crate) requests: [Vec<SelectRequest>; 4],
    /// Seqs granted so far this cycle (the EGPW parent-issued check),
    /// reused every cycle.
    pub(crate) granted: Vec<u64>,
}

impl WakeupState {
    pub(crate) fn new() -> Self {
        WakeupState {
            ready: Default::default(),
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            far: BTreeMap::new(),
            requests: Default::default(),
            granted: Vec::new(),
        }
    }
}

impl PipelineState {
    /// Whether the legacy full-window scan drives the issue stage (the
    /// `scan-wakeup` differential-testing path). The event bookkeeping
    /// below no-ops in that mode so the two paths stay independent.
    #[inline]
    pub(crate) fn scan_mode(&self) -> bool {
        #[cfg(feature = "scan-wakeup")]
        {
            self.scan_wakeup
        }
        #[cfg(not(feature = "scan-wakeup"))]
        {
            false
        }
    }

    /// Arm the timer wheel: re-examine `seq` at cycle `at` (strictly in
    /// the future). Duplicate arms are fine — firing is idempotent.
    pub(crate) fn wakeup_arm(&mut self, seq: u64, at: u64) {
        if self.scan_mode() {
            return;
        }
        debug_assert!(at > self.cycle, "arm must target a future cycle");
        if at - self.cycle < WHEEL_SLOTS {
            self.wakeup.wheel[(at % WHEEL_SLOTS) as usize].push(seq);
        } else {
            self.wakeup.far.entry(at).or_default().push(seq);
        }
    }

    /// Dispatch-time hook: arm the initial `earliest_req` alarm and
    /// subscribe `consumer` to every still-unissued producer among its
    /// sources and grandparent tag.
    pub(crate) fn wakeup_on_dispatch(&mut self, consumer: u64) {
        if self.scan_mode() {
            return;
        }
        // `SrcTags` is `Copy`: the subscription list is staged on the stack.
        let (at, srcs, gp) = {
            let x = self.ifo(consumer).expect("just dispatched");
            let gp = x.gp_tag.filter(|gp| !x.srcs.contains(gp));
            (x.earliest_req, x.srcs, gp)
        };
        self.wakeup_arm(consumer, at);
        for &tag in srcs.iter().chain(&gp) {
            if let Some(p) = self.ifo_mut(tag) {
                if !p.issued {
                    p.waiters.push(consumer);
                }
            }
        }
    }

    /// Deferral hook: `try_issue` pushed `seq`'s `earliest_req` into the
    /// future (tag mispredict, GP mispeculation, or the defensive
    /// late-start hold). Re-arm so the entry re-enters the ready set at
    /// exactly that cycle; the end-of-cycle compaction removes it from the
    /// current set. A zero penalty leaves `earliest_req <= cycle`, in
    /// which case the entry simply stays ready.
    pub(crate) fn wakeup_defer(&mut self, seq: u64) {
        if self.scan_mode() {
            return;
        }
        let at = self
            .ifo(seq)
            .expect("deferred entry in flight")
            .earliest_req;
        if at > self.cycle {
            self.wakeup_arm(seq, at);
        }
    }

    /// CI-bus broadcast: `producer` has just issued. Drain its waiter
    /// list (exactly once — issue is permanent) and arm each waiter at
    /// the cycle this operand crosses its select-ready threshold for that
    /// specific consumer, never before the next cycle.
    pub(crate) fn wakeup_broadcast(&mut self, producer: u64) {
        if self.scan_mode() {
            return;
        }
        let Some(p) = self.ifo_mut(producer) else {
            return;
        };
        // Detached while the waiters are armed, then handed back empty so
        // the slot keeps the list's capacity.
        let mut waiters = mem::take(&mut p.waiters);
        for &cseq in &waiters {
            let r = {
                let Some(x) = self.ifo(cseq) else { continue };
                if x.issued || x.in_ready {
                    // Already bidding (or gone): the per-cycle ready-set
                    // re-evaluation sees the new broadcast by itself.
                    continue;
                }
                self.src_sel_ready(producer, x)
                    .unwrap_or(self.cycle + 1)
                    .max(self.cycle + 1)
            };
            self.wakeup_arm(cseq, r);
        }
        waiters.clear();
        self.ifo_mut(producer).expect("producer in flight").waiters = waiters;
    }

    /// Fire all alarms due at the current cycle, re-examining each
    /// candidate. Called at the top of the issue pass, before requests
    /// are gathered.
    pub(crate) fn wakeup_drain(&mut self, sched: &dyn Scheduler) {
        let t = self.cycle;
        // Far arms that have come due (rare: beyond-the-wheel waits).
        loop {
            let due = match self.wakeup.far.first_key_value() {
                Some((&k, _)) if k <= t => self.wakeup.far.pop_first().map(|(_, v)| v),
                _ => None,
            };
            let Some(seqs) = due else { break };
            for seq in seqs {
                self.wakeup_candidate(sched, seq);
            }
        }
        // The near slot for this cycle.
        let slot = (t % WHEEL_SLOTS) as usize;
        let mut due = mem::take(&mut self.wakeup.wheel[slot]);
        for &seq in due.iter() {
            self.wakeup_candidate(sched, seq);
        }
        due.clear();
        let cur = &mut self.wakeup.wheel[slot];
        if cur.is_empty() {
            *cur = due; // restore the warmed capacity
        } else {
            // Defensive: a re-arm landed exactly WHEEL_SLOTS ahead while
            // the slot was detached (unreachable for near arms, which
            // target strictly less than WHEEL_SLOTS cycles out).
            due.append(cur);
            *cur = due;
        }
    }

    /// Re-examine one candidate whose alarm fired: enter the ready set if
    /// its wakeup hook bids, otherwise plan the next look.
    fn wakeup_candidate(&mut self, sched: &dyn Scheduler, seq: u64) {
        let t = self.cycle;
        enum Action {
            Ready(usize),
            Rearm(u64),
            Sleep,
        }
        let action = {
            let Some(x) = self.ifo(seq) else { return };
            if x.issued || x.committed || x.in_ready {
                return; // stale alarm: already bidding, issued or retired
            }
            if x.earliest_req > t {
                Action::Rearm(x.earliest_req)
            } else if sched.wakeup(self, x).is_some() {
                Action::Ready(pool_index(x.pool))
            } else {
                Action::Sleep
            }
        };
        match action {
            Action::Ready(p) => {
                self.ifo_mut(seq).expect("entry in flight").in_ready = true;
                self.wakeup.ready[p].push(seq);
            }
            Action::Rearm(at) => self.wakeup_arm(seq, at),
            Action::Sleep => self.wakeup_sleep_plan(seq),
        }
    }

    /// `seq` cannot bid right now: arm at the earliest future cycle an
    /// already-issued operand crosses its select-ready threshold.
    /// Unissued operands re-arm us through their broadcast subscription.
    /// If neither exists — possible only for a wakeup hook outside the
    /// documented purity contract — degrade to per-cycle polling so the
    /// entry is never dropped.
    fn wakeup_sleep_plan(&mut self, seq: u64) {
        let t = self.cycle;
        let (next, has_unissued) = {
            let x = self.ifo(seq).expect("sleeping entry in flight");
            let mut next: Option<u64> = None;
            let mut has_unissued = false;
            let mut consider = |r: Option<u64>| match r {
                None => has_unissued = true,
                Some(r) if r > t => next = Some(next.map_or(r, |n| n.min(r))),
                Some(_) => {}
            };
            for &s in &x.srcs {
                consider(self.src_sel_ready(s, x));
            }
            if let Some(gp) = x.gp_tag {
                if !x.srcs.contains(&gp) {
                    consider(self.src_sel_ready(gp, x));
                }
            }
            (next, has_unissued)
        };
        match next {
            Some(at) => self.wakeup_arm(seq, at),
            None if has_unissued => {} // a broadcast will re-arm us
            None => self.wakeup_arm(seq, t + 1), // contract fallback: poll
        }
    }

    /// End-of-cycle compaction: drop entries that issued, retired or were
    /// deferred (`earliest_req` now in the future — their alarm is
    /// armed), clearing their `in_ready` mirror. In-place, no allocation.
    pub(crate) fn wakeup_compact(&mut self) {
        let t = self.cycle;
        for p in 0..POOLS.len() {
            let mut set = mem::take(&mut self.wakeup.ready[p]);
            let mut keep = 0;
            for i in 0..set.len() {
                let seq = set[i];
                let stays = self
                    .ifo(seq)
                    .is_some_and(|x| !x.issued && !x.committed && x.earliest_req <= t);
                if stays {
                    set[keep] = seq;
                    keep += 1;
                } else if let Some(x) = self.ifo_mut(seq) {
                    x.in_ready = false;
                }
            }
            set.truncate(keep);
            self.wakeup.ready[p] = set;
        }
    }

    /// Number of entries currently in pool `p`'s ready set (index per
    /// [`POOLS`]). Test-only visibility.
    #[cfg(test)]
    pub(crate) fn ready_len(&self, p: usize) -> usize {
        self.wakeup.ready[p].len()
    }
}

/// Thread-local allocation probe. The companion counting
/// `#[global_allocator]` is installed only in this crate's unit-test
/// binary (see `alloc_counter` below), where the zero-steady-state-alloc
/// assertion runs in debug mode; release builds carry no probe at all.
#[cfg(test)]
pub(crate) mod alloc_probe {
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Record one heap allocation on this thread.
    pub(crate) fn bump() {
        ALLOCS.with(|c| c.set(c.get() + 1));
    }

    /// Allocations recorded on this thread so far.
    pub(crate) fn count() -> u64 {
        ALLOCS.with(Cell::get)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod alloc_counter {
    //! A counting allocator for the whole unit-test binary: delegates to
    //! the system allocator and bumps the thread-local probe on every
    //! allocation, so tests can assert a code region allocates nothing.
    use std::alloc::{GlobalAlloc, Layout, System};

    struct Counting;

    // SAFETY: pure delegation to `System`; the probe is a thread-local
    // `Cell<u64>` with no destructor, so no re-entrancy or TLS-teardown
    // hazards.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            super::alloc_probe::bump();
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            super::alloc_probe::bump();
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use std::cell::Cell;

    use redsoc_isa::prelude::*;
    use redsoc_mem::{ContendedConfig, MemModelConfig};
    use redsoc_workloads::Benchmark;

    use crate::config::{CoreConfig, SchedulerConfig};
    use crate::events::NullSink;
    use crate::pipeline::state::PipelineState;
    use crate::pipeline::Simulator;
    use crate::sched::build_scheduler;

    /// Two interleaved single-cycle ALU dependence chains — enough
    /// parallelism to keep the issue stage busy and (under redsoc) raise
    /// EGPW speculative requests.
    fn alu_chain_trace(n: u64) -> Vec<DynOp> {
        let mut ops = Vec::new();
        for i in 0..n {
            let reg = r((i % 2) as u8 + 1);
            let instr = Instr::Alu {
                op: if i % 2 == 0 { AluOp::Eor } else { AluOp::Add },
                dst: Some(reg),
                src1: Some(reg),
                op2: Operand2::Imm(0x5A),
                set_flags: false,
            };
            let mut d = DynOp::simple(i, (i % 64) as u32 * 4, instr);
            d.eff_bits = 8;
            ops.push(d);
        }
        ops.push(DynOp::simple(n, (n % 64) as u32 * 4, Instr::Halt));
        ops
    }

    /// Run gsm on the BIG core through the real simulation loop —
    /// commit, issue, dispatch and fetch every cycle, plus stall
    /// attribution — and assert that no cycle allocates once the run is
    /// warm: the counting allocator must not move between fetching op
    /// 60k and fetching the last op. gsm mixes loads, stores, branches,
    /// multiplies and ALU chains.
    ///
    /// MOS is deliberately not covered: `Scheduler::post_issue` returns
    /// its fused ops as a `Vec`, a public trait signature, so every
    /// successful fusion allocates (about 0.2 times per op).
    fn assert_zero_steady_state_allocs(sched: SchedulerConfig, mem: MemModelConfig) {
        const WARMUP_OPS: u64 = 60_000;
        let trace = Benchmark::Gsm.trace(150_000);
        let last = trace.last().expect("non-empty trace").seq;
        let config = CoreConfig::big().with_sched(sched).with_mem_model(mem);
        let (start, end) = (Cell::new(None), Cell::new(None));
        let ops = trace.iter().copied().inspect(|op| {
            if op.seq == WARMUP_OPS {
                start.set(Some(super::alloc_probe::count()));
            }
            if op.seq == last {
                end.set(Some(super::alloc_probe::count()));
            }
        });
        let report = Simulator::new(config)
            .expect("valid config")
            .run(ops)
            .expect("run");
        assert_eq!(report.committed, trace.len() as u64);
        let (start, end) = (start.get().expect("warm-up"), end.get().expect("end"));
        assert_eq!(
            end - start,
            0,
            "{} heap allocations over {} steady-state ops",
            end - start,
            last - WARMUP_OPS
        );
    }

    fn contended() -> MemModelConfig {
        MemModelConfig::Contended(ContendedConfig::default())
    }

    #[test]
    fn steady_state_cycle_is_allocation_free_baseline() {
        assert_zero_steady_state_allocs(SchedulerConfig::baseline(), MemModelConfig::Classic);
    }

    #[test]
    fn steady_state_cycle_is_allocation_free_redsoc() {
        assert_zero_steady_state_allocs(SchedulerConfig::redsoc(), MemModelConfig::Classic);
    }

    #[test]
    fn steady_state_cycle_is_allocation_free_baseline_contended() {
        assert_zero_steady_state_allocs(SchedulerConfig::baseline(), contended());
    }

    #[test]
    fn steady_state_cycle_is_allocation_free_redsoc_contended() {
        assert_zero_steady_state_allocs(SchedulerConfig::redsoc(), contended());
    }

    #[test]
    fn ready_sets_empty_after_drain() {
        let config = CoreConfig::big().with_sched(SchedulerConfig::redsoc());
        let sched = build_scheduler(&config.sched);
        let mut state = PipelineState::new(config).expect("valid config");
        let trace = alu_chain_trace(500);
        let mut it = trace.into_iter();
        let mut sink = NullSink;
        while !(state.fetch_stopped
            && state.fetchq.is_empty()
            && state.committed_total == state.dispatched_total)
        {
            state.commit(&*sched, &mut sink);
            state.select_and_issue(&*sched, &mut sink);
            state.dispatch(&*sched, &mut sink);
            state.fetch(&mut it, &mut sink);
            state.cycle += 1;
            assert!(state.cycle < 10_000, "trace did not drain");
        }
        for p in 0..4 {
            assert_eq!(state.ready_len(p), 0, "pool {p} ready set not drained");
        }
    }
}
