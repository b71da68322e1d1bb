//! The MOS operation-fusion comparator (§VI-D).

// Invariant `expect`s in this module are deliberate: each one guards a
// structural pipeline invariant that only a simulator bug can violate
// (never operator input), and a loud abort — isolated and quarantined
// per job by the bench supervisor — beats silently corrupting a
// result. The per-cycle hot path stays `Result`-free.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::pipeline::state::{Ifo, PipelineState};

use super::{FusedIssue, Scheduler};

/// MOS — "Multiple Operations in Single-cycle": conventional wakeup,
/// select and boundary completion (all trait defaults), plus a
/// [`post_issue`](Scheduler::post_issue) pass that greedily packs
/// dependent single-cycle ops into the producer's execution cycle while
/// their summed compute times fit within one clock period.
///
/// Wakeup purity audit: no `wakeup` override — inherits the default
/// all-operands wakeup (audited in [`baseline`](super::baseline)). The
/// fusion pass runs in `post_issue`, outside the wakeup contract; fused
/// consumers are marked issued immediately, so they can never appear in a
/// later ready set. Contract satisfied.
#[derive(Debug, Clone, Copy, Default)]
pub struct MosScheduler;

impl Scheduler for MosScheduler {
    fn name(&self) -> &'static str {
        "mos"
    }

    fn post_issue(&self, state: &mut PipelineState, producer: u64, t: u64) -> Vec<FusedIssue> {
        if !state.ifo(producer).is_some_and(|x| x.recyclable) {
            return Vec::new();
        }
        let q = state.quant();
        let tpc = q.ticks_per_cycle();
        let mut fused = Vec::new();
        let mut head = producer;
        let mut budget = state.ifo(head).expect("producer").ext_ticks;
        // Fusion candidate filter: a waiting recyclable consumer of `head`
        // whose other operands are already at the FU boundary and whose
        // compute time still fits the shared clock period.
        let fusable = |state: &PipelineState, y: &Ifo, head: u64, head_pool, budget: u64| {
            !y.issued
                && !y.committed
                && y.recyclable
                && y.pool == head_pool
                && y.earliest_req <= t + 1
                && y.srcs.contains(&head)
                && budget + y.ext_ticks <= tpc
                && y.srcs
                    .iter()
                    .all(|&s| s == head || state.src_sel_ready(s, y).is_some_and(|r| r <= t))
        };
        loop {
            let head_pool = state.ifo(head).expect("chain head").pool;
            // Event-driven mode: every in-window consumer of `head`
            // subscribed to its issue broadcast at dispatch (and the
            // pipeline defers `head`'s broadcast until after this hook),
            // so the waiter list indexes exactly the entries that can
            // satisfy `y.srcs.contains(&head)` — walk it instead of the
            // window. Extra waiters (grandparent-only subscribers, issued
            // or retired entries) fail the same filter the scan applies.
            let candidate = if state.scan_mode() {
                state
                    .window
                    .iter()
                    .filter(|y| fusable(state, y, head, head_pool, budget))
                    .min_by_key(|y| y.op.seq)
                    .map(|y| y.op.seq)
            } else {
                state
                    .ifo(head)
                    .expect("chain head")
                    .waiters
                    .iter()
                    .filter_map(|&w| state.ifo(w))
                    .filter(|y| fusable(state, y, head, head_pool, budget))
                    .min_by_key(|y| y.op.seq)
                    .map(|y| y.op.seq)
            };
            let Some(ynum) = candidate else { break };
            let start_offset = budget; // fused op starts after the chain so far
            budget += state.ifo(ynum).expect("candidate").ext_ticks;
            // The fused op rides the producer's FU and completes at the
            // same boundary.
            {
                let ym = state.ifo_mut(ynum).expect("candidate");
                ym.issued = true;
                ym.issue_cycle = t;
                ym.sel_ready = t + 1;
                ym.avail = q.cycle_start(t + 2);
                ym.done_cycle = t + 2;
                ym.transparent = false;
            }
            state.rse_used -= 1;
            state.report.recycled_ops += 1; // fused ops saved a cycle
            fused.push(FusedIssue {
                seq: ynum,
                start_offset,
            });
            head = ynum;
        }
        fused
    }
}
