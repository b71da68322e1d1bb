//! Commit stage: in-order retirement from the reorder buffer, store
//! writeback into the memory hierarchy, Fig. 10 op-mix classification and
//! lazy window retirement (chain statistics).
//!
//! [`Scheduler::on_writeback`] fires for every retiring op — the
//! extension point for designs that train predictors on observed
//! completion behaviour.

// Invariant `expect`s in this module are deliberate: each one guards a
// structural pipeline invariant that only a simulator bug can violate
// (never operator input), and a loud abort — isolated and quarantined
// per job by the bench supervisor — beats silently corrupting a
// result. The per-cycle hot path stays `Result`-free.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use redsoc_isa::instruction::Instr;
use redsoc_timing::slack::WidthClass;

use crate::events::{EventSink, PipeEvent};
use crate::sched::Scheduler;
use crate::stats::OpCategory;

use super::state::PipelineState;

impl PipelineState {
    pub(crate) fn commit<S: EventSink>(&mut self, sched: &dyn Scheduler, sink: &mut S) {
        for _ in 0..self.config.frontend_width {
            let Some(head) = self.ifo(self.committed_total) else {
                break;
            };
            if !head.issued || self.cycle < head.done_cycle {
                break;
            }
            sched.on_writeback(head, self.cycle);
            // `DynOp` and the flags are Copy: no full-entry clone needed.
            let (op, mut l1_miss, done_cycle) = (head.op, head.l1_miss, head.done_cycle);
            // Stores update the memory system at retirement. The port
            // contract guarantees stores are never structurally rejected
            // (they allocate no MSHR), so an `Err` here is a model bug.
            if let Instr::Store { .. } = op.instr {
                let addr = u64::from(op.eff_addr.expect("stores carry addresses"));
                let res = self
                    .memory
                    .request(op.seq, op.pc, addr, true, self.cycle)
                    .expect("memory models never reject stores");
                l1_miss = res.outcome.is_high_latency();
            }
            // Fig. 10 classification uses the *actual* operand width.
            let cat = OpCategory::classify(
                &op.instr,
                l1_miss,
                WidthClass::from_bits(op.eff_bits),
                &self.lut,
            );
            self.report.op_mix.record(cat);
            if op.instr.is_mem() {
                self.lsq_used -= 1;
            }
            self.ifo_mut(op.seq).expect("head in window").committed = true;
            self.committed_total += 1;
            if S::ENABLED {
                sink.record(
                    self.cycle,
                    &PipeEvent::Writeback {
                        seq: op.seq,
                        done_cycle,
                    },
                );
                sink.record(
                    self.cycle,
                    &PipeEvent::Commit {
                        seq: op.seq,
                        pc: op.pc,
                    },
                );
            }
        }
        // Retire old entries lazily, keeping a window behind the head so
        // chain statistics and RAT references stay resolvable. The lag is
        // behaviour, not bookkeeping: rename reads a retired parent's
        // `pred_last` for `gp_tag`, and loads forward from committed
        // stores still in the window (DESIGN.md §8).
        let lag = u64::from(self.config.rob_entries) + 64;
        while self.window.base() + lag < self.committed_total {
            let gone = self.window.pop_front().expect("window non-empty");
            debug_assert!(gone.committed);
            if gone.chain_len >= 2 && !gone.chain_extended {
                self.report.chains.record(gone.chain_len);
            }
        }
        // Keep the store index in step with the window slide.
        let base = self.window.base();
        while self.store_seqs.front().is_some_and(|&s| s < base) {
            self.store_seqs.pop_front();
        }
    }

    /// Flush remaining chain records at end of simulation.
    pub(crate) fn drain_chain_stats(&mut self) {
        while let Some(gone) = self.window.pop_front() {
            if gone.chain_len >= 2 && !gone.chain_extended {
                self.report.chains.record(gone.chain_len);
            }
        }
    }
}
