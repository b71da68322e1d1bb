//! Front-end stages: fetch (with gshare branch prediction and redirect
//! handling) and dispatch (rename through the RAT, ROB/RSE/LSQ
//! allocation, slack-LUT classification, last-arrival prediction).
//!
//! The only scheduling policy consulted here is
//! [`Scheduler::uses_tag_prediction`]: whether rename collapses a
//! two-unresolved-source entry onto a predicted-last tag (the operational
//! RSE design, §IV-C) or stores all tags for conventional wakeup.

// Invariant `expect`s in this module are deliberate: each one guards a
// structural pipeline invariant that only a simulator bug can violate
// (never operator input), and a loud abort — isolated and quarantined
// per job by the bench supervisor — beats silently corrupting a
// result. The per-cycle hot path stays `Result`-free.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use redsoc_isa::instruction::Instr;
use redsoc_isa::opcode::{Cond, ExecClass, SimdOp};
use redsoc_isa::reg::ArchReg;
use redsoc_isa::trace::DynOp;
use redsoc_timing::slack::{SlackBucket, WidthClass};

use crate::events::{EventSink, PipeEvent};
use crate::fu::PoolKind;
use crate::sched::Scheduler;
use crate::stats::StallCause;
use crate::tag_pred::LastArrival;

use super::state::{Fetched, Ifo, PipelineState, SrcTags};

impl PipelineState {
    pub(crate) fn fetch<S: EventSink>(
        &mut self,
        trace: &mut impl Iterator<Item = DynOp>,
        sink: &mut S,
    ) {
        // Resolve a pending branch redirect once the branch executes.
        if let Some(seq) = self.pending_redirect {
            let done = self.ifo(seq).filter(|i| i.issued).map(|i| i.done_cycle);
            match done {
                Some(d) if self.cycle >= d => {
                    self.pending_redirect = None;
                    self.fetch_blocked_until = d + u64::from(self.config.mispredict_penalty);
                    if S::ENABLED {
                        sink.record(
                            self.cycle,
                            &PipeEvent::FetchRedirect {
                                seq,
                                resume_cycle: self.fetch_blocked_until,
                            },
                        );
                    }
                }
                _ => return,
            }
        }
        if self.cycle < self.fetch_blocked_until || self.fetch_stopped {
            return;
        }
        let cap = (self.config.frontend_width * 4) as usize;
        let ready = self.cycle + u64::from(self.config.frontend_depth);
        for _ in 0..self.config.frontend_width {
            if self.fetchq.len() >= cap {
                break;
            }
            let Some(op) = trace.next() else {
                self.fetch_stopped = true;
                break;
            };
            let is_halt = matches!(op.instr, Instr::Halt);
            let mispredicted = match op.instr {
                Instr::Branch { cond, .. } if cond.reads_flags() => {
                    !self.gshare.predict_and_train(op.pc, op.taken)
                }
                Instr::Branch { cond: Cond::Al, .. } => false,
                _ => false,
            };
            self.fetchq.push_back(Fetched {
                op,
                ready_cycle: ready,
            });
            if S::ENABLED {
                sink.record(
                    self.cycle,
                    &PipeEvent::Fetch {
                        seq: op.seq,
                        pc: op.pc,
                    },
                );
            }
            if is_halt {
                self.fetch_stopped = true;
                break;
            }
            if mispredicted {
                self.pending_redirect = Some(op.seq);
                break;
            }
        }
    }

    pub(crate) fn rob_free(&self) -> bool {
        (self.dispatched_total - self.committed_total) < u64::from(self.config.rob_entries)
    }

    /// Dispatch up to one front-end width of fetched ops. Returns the
    /// back-pressure reason that stopped dispatch while an op was ready,
    /// if any (the structural-hazard input to stall attribution).
    pub(crate) fn dispatch<S: EventSink>(
        &mut self,
        sched: &dyn Scheduler,
        sink: &mut S,
    ) -> Option<StallCause> {
        let mut block = None;
        for _ in 0..self.config.frontend_width {
            let Some(head) = self.fetchq.front() else {
                break;
            };
            if head.ready_cycle > self.cycle {
                break;
            }
            let op = head.op;
            let is_mem = op.instr.is_mem();
            if !self.rob_free() {
                block = Some(StallCause::RobFull);
                break;
            }
            if self.rse_used >= self.config.rse_entries {
                block = Some(StallCause::RsFull);
                break;
            }
            if is_mem && self.lsq_used >= self.config.lsq_entries {
                block = Some(StallCause::LsqFull);
                break;
            }
            self.fetchq.pop_front();
            self.allocate(sched, op, sink);
        }
        block
    }

    pub(crate) fn allocate<S: EventSink>(
        &mut self,
        sched: &dyn Scheduler,
        op: DynOp,
        sink: &mut S,
    ) {
        let seq = self.next_seq;
        debug_assert_eq!(seq, op.seq, "trace must be consumed in order");
        let class = op.instr.exec_class();
        let mut recyclable = class.is_recyclable();
        let pool = PoolKind::for_class(class);

        // VMLA late-forwarding (§V): Cortex-A57-style multiply-accumulate
        // forwards the accumulate operand into the final adder stage, so a
        // chain of VMLAs executes as sequential single-cycle accumulates —
        // and under ReDSOC the accumulate adder's slack (narrow lanes!) is
        // recyclable like any other single-cycle SIMD op. The pipelined
        // multiply overlaps older chain links; its operands therefore need
        // an extra lead time, enforced in `src_sel_ready`.
        let mut vmla_acc_ext: Option<u64> = None;
        if let Instr::Simd {
            op: SimdOp::Vmla,
            ty,
            ..
        } = op.instr
        {
            recyclable = true;
            vmla_acc_ext = Some(
                self.quant
                    .ps_to_ticks_ceil(redsoc_timing::optime::simd_accumulate_ps(ty)),
            );
        }

        // Resolve sources through the RAT (deduplicated, program order).
        let mut srcs = SrcTags::default();
        for reg in op.instr.srcs().iter() {
            if let Some(tag) = self.rat[reg.index()] {
                if !srcs.contains(&tag) {
                    srcs.push(tag);
                }
            }
        }

        // Width prediction (scalar single-cycle ALU ops, §II-B).
        let pred_width = if class == ExecClass::IntAlu {
            self.width_pred.predict(op.pc)
        } else {
            WidthClass::W32
        };

        // Slack-LUT compute time for recyclable ops.
        let ext_ticks = if let Some(acc) = vmla_acc_ext {
            acc
        } else if recyclable {
            let bucket =
                SlackBucket::classify(&op.instr, pred_width).expect("recyclable ops classify");
            self.quant.ps_to_ticks_ceil(self.lut.compute_ps(bucket))
        } else {
            0
        };

        // Operational-design last-arrival prediction (§IV-C): among sources
        // whose producers are still waiting to issue, as (position, tag).
        let mut unissued = [(0usize, 0u64); SrcTags::CAPACITY];
        let mut n_unissued = 0;
        for (i, &t) in srcs.iter().enumerate() {
            if self.ifo(t).is_some_and(|p| !p.issued) {
                unissued[n_unissued] = (i, t);
                n_unissued += 1;
            }
        }
        let use_prediction = sched.uses_tag_prediction(recyclable);
        let (pred_last, pred_pos) = match &unissued[..n_unissued] {
            [] => {
                // Everything issued: the operand with the latest broadcast
                // is trivially "last"; no prediction consumed.
                let last = srcs
                    .iter()
                    .copied()
                    .max_by_key(|&t| self.ifo(t).map_or(0, |p| p.sel_ready));
                (last, None)
            }
            [(_, t)] => (Some(*t), None),
            [(i0, t0), (i1, t1)] if use_prediction => {
                match self.tag_pred.predict(op.pc) {
                    Some(p) => {
                        let chosen = match p {
                            LastArrival::Src0 => *t0,
                            LastArrival::Src1 => *t1,
                        };
                        (Some(chosen), Some((Some(p), *i0, *i1)))
                    }
                    None => {
                        // Unconfident entry: conventional two-tag wakeup
                        // (no penalty risk); keep training at issue.
                        ((*t0).max(*t1).into(), Some((None, *i0, *i1)))
                    }
                }
            }
            rest => {
                // 3+ unresolved producers: take the youngest (heuristically
                // last to arrive); no predictor involvement.
                (rest.iter().map(|(_, t)| *t).max(), None)
            }
        };

        // Grandparent tag: the predicted-last parent's own predicted-last
        // parent, passed through rename exactly as in the paper.
        let gp_tag = pred_last
            .and_then(|t| self.ifo(t))
            .and_then(|p| p.pred_last);

        let ifo = Ifo {
            op,
            class,
            recyclable,
            pool,
            srcs,
            pred_last,
            gp_tag,
            pred_pos,
            ext_ticks,
            pred_width,
            dst_arch: op.instr.dst(),
            earliest_req: self.cycle + 1,
            fallback: matches!(pred_pos, Some((None, _, _))),
            issued: false,
            issue_cycle: 0,
            sel_ready: 0,
            avail: 0,
            done_cycle: 0,
            transparent: false,
            held_two: false,
            chain_len: 1,
            chain_extended: false,
            committed: false,
            l1_miss: false,
            mem_rejected: false,
            // Takes over the warmed list of the slot it lands in.
            waiters: Vec::new(),
            in_ready: false,
        };

        // RAT update: destination register and flags.
        if let Some(d) = op.instr.dst() {
            self.rat[d.index()] = Some(seq);
        }
        if op.instr.writes_flags() {
            self.rat[ArchReg::flags().index()] = Some(seq);
        }

        self.window.push(ifo);
        self.next_seq += 1;
        self.dispatched_total += 1;
        self.rse_used += 1;
        if op.instr.is_mem() {
            self.lsq_used += 1;
        }
        if matches!(op.instr, Instr::Store { .. }) {
            self.store_seqs.push_back(seq);
        }
        // Event-driven wakeup: arm the earliest-request alarm and
        // subscribe to still-unissued producers (srcs and grandparent).
        self.wakeup_on_dispatch(seq);
        if S::ENABLED {
            sink.record(
                self.cycle,
                &PipeEvent::Dispatch {
                    seq,
                    pc: op.pc,
                    pool,
                },
            );
        }
    }
}
