//! Issue stage: reservation-station wakeup, per-pool select arbitration
//! and the issue attempt itself.
//!
//! The mechanism here is fixed — request gathering, grant slots,
//! scoreboard validation bookkeeping, FU reservation, event emission.
//! The *policy* each step consults is the run's
//! [`Scheduler`]: [`Scheduler::wakeup`] decides
//! who requests (and whether speculatively), [`Scheduler::select`] orders
//! each pool's requests, [`Scheduler::spec_grant_usable`] makes the
//! recycling decision for grandparent-speculative grants,
//! [`Scheduler::on_issue`] times recyclable completions and
//! [`Scheduler::post_issue`] may fuse dependents into the same cycle.

// Invariant `expect`s in this module are deliberate: each one guards a
// structural pipeline invariant that only a simulator bug can violate
// (never operator input), and a loud abort — isolated and quarantined
// per job by the bench supervisor — beats silently corrupting a
// result. The per-cycle hot path stays `Result`-free.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::events::{EventSink, PipeEvent};
use crate::sched::{IssueArgs, Scheduler, SelectRequest};
use crate::tag_pred::LastArrival;

use super::exec::LoadPath;
use super::state::PipelineState;
use super::wakeup::POOLS;

/// Outcome of one issue attempt inside the select pass.
pub(crate) enum IssueOutcome {
    Issued,
    TagMispredict,
    SpecNotRecyclable,
    GpMispeculation,
    /// The memory model structurally rejected the load (MSHRs full); the
    /// entry is parked until the model's retry horizon.
    MemRejected,
}

impl PipelineState {
    /// One wakeup/select/issue pass. Returns whether a non-speculative
    /// request was denied a unit this cycle (the FU-contention signal).
    ///
    /// Event-driven: requests are gathered from the per-pool ready sets
    /// maintained by [`crate::pipeline::wakeup`], so the pass costs
    /// O(ready + broadcasts) rather than O(window). With the `scan-wakeup`
    /// feature the legacy full-window scan can be selected at runtime for
    /// differential testing; both paths produce identical event streams.
    pub(crate) fn select_and_issue<S: EventSink>(
        &mut self,
        sched: &dyn Scheduler,
        sink: &mut S,
    ) -> bool {
        #[cfg(feature = "scan-wakeup")]
        if self.scan_wakeup {
            return self.select_and_issue_scan(sched, sink);
        }

        // Fire due timer-wheel alarms, refreshing ready-set membership.
        self.wakeup_drain(sched);

        // Gather requests per pool — from the ready sets only. Members are
        // re-evaluated so a stale candidate simply declines to bid (and a
        // speculative EGPW bid upgrades once its parent issues); blocked
        // loads poll their store hazard from inside the ready set, exactly
        // as the full scan did.
        for pi in 0..POOLS.len() {
            debug_assert!(self.wakeup.requests[pi].is_empty());
            for i in 0..self.wakeup.ready[pi].len() {
                let seq = self.wakeup.ready[pi][i];
                let req = {
                    let x = self.ifo(seq).expect("ready entries are in flight");
                    debug_assert!(
                        !x.issued && !x.committed && x.earliest_req <= self.cycle,
                        "stale ready-set entry {seq}"
                    );
                    if matches!(x.op.instr, redsoc_isa::instruction::Instr::Load { .. })
                        && self.load_blocked(x)
                    {
                        None
                    } else {
                        sched.wakeup(self, x)
                    }
                };
                if let Some(req) = req {
                    self.wakeup.requests[pi].push(req);
                }
            }
            // Canonical pre-select order: ascending seq, exactly as the
            // window scan produced. Seqs are unique, so the unstable sort
            // is deterministic (and allocation-free).
            self.wakeup.requests[pi].sort_unstable_by_key(|r| r.seq);
        }

        let stalled = self.issue_from_requests(sched, sink);

        // Drop issued/deferred entries from the ready sets; deferred ones
        // have their re-entry alarm armed by `wakeup_defer`.
        self.wakeup_compact();

        if stalled {
            self.report.fu_stall_cycles += 1;
        }
        stalled
    }

    /// The legacy O(window) request gather, kept compiled under the
    /// `scan-wakeup` feature as the differential-testing reference for
    /// the event-driven path (see `Simulator::with_scan_wakeup`).
    #[cfg(feature = "scan-wakeup")]
    fn select_and_issue_scan<S: EventSink>(&mut self, sched: &dyn Scheduler, sink: &mut S) -> bool {
        let mut requests = core::mem::take(&mut self.wakeup.requests);
        debug_assert!(requests.iter().all(Vec::is_empty));
        for x in self.window.iter() {
            if x.committed || x.issued || x.earliest_req > self.cycle {
                continue;
            }
            if matches!(x.op.instr, redsoc_isa::instruction::Instr::Load { .. })
                && self.load_blocked(x)
            {
                continue;
            }
            if let Some(req) = sched.wakeup(self, x) {
                requests[super::wakeup::pool_index(x.pool)].push(req);
            }
        }
        self.wakeup.requests = requests;
        let stalled = self.issue_from_requests(sched, sink);
        if stalled {
            self.report.fu_stall_cycles += 1;
        }
        stalled
    }

    /// Select and grant the per-pool requests staged in the shared
    /// scratch buffers — the half of the issue pass common to the
    /// event-driven and scan paths. Clears the request buffers.
    fn issue_from_requests<S: EventSink>(&mut self, sched: &dyn Scheduler, sink: &mut S) -> bool {
        let exec_cycle = self.cycle + 1;
        let mut stalled = false;
        let mut granted_this_cycle = core::mem::take(&mut self.wakeup.granted);
        debug_assert!(granted_this_cycle.is_empty());

        for (pi, kind) in POOLS.iter().copied().enumerate() {
            let mut reqs = core::mem::take(&mut self.wakeup.requests[pi]);
            if reqs.is_empty() {
                self.wakeup.requests[pi] = reqs;
                continue;
            }
            sched.select(&mut reqs);
            let mut free = self.pool(kind).free_units(exec_cycle);
            // Skewed-selection invariant (§IV-D): while any non-speculative
            // request in this pool is still pending, no speculative request
            // may be granted. Tracked here and debug-asserted per grant.
            let mut nonspec_pending = reqs.iter().filter(|r| !r.spec).count();
            for &SelectRequest { seq, spec } in &reqs {
                if free == 0 {
                    if !spec {
                        stalled = true;
                    }
                    continue;
                }
                if spec {
                    debug_assert!(
                        !sched.skewed_select() || nonspec_pending == 0,
                        "skewed select granted speculative seq {seq} with \
                         {nonspec_pending} non-speculative request(s) pending"
                    );
                } else {
                    nonspec_pending -= 1;
                }
                free -= 1; // the grant slot is consumed even if wasted
                if S::ENABLED {
                    sink.record(self.cycle, &PipeEvent::SelectGrant { seq, spec });
                }
                match self.try_issue(sched, seq, spec, &granted_this_cycle, sink) {
                    IssueOutcome::Issued => granted_this_cycle.push(seq),
                    IssueOutcome::TagMispredict
                    | IssueOutcome::SpecNotRecyclable
                    | IssueOutcome::GpMispeculation
                    | IssueOutcome::MemRejected => {}
                }
            }
            reqs.clear();
            self.wakeup.requests[pi] = reqs;
        }
        granted_this_cycle.clear();
        self.wakeup.granted = granted_this_cycle;
        stalled
    }

    /// Attempt to issue `seq` (granted by select this cycle).
    #[allow(clippy::too_many_lines)]
    pub(crate) fn try_issue<S: EventSink>(
        &mut self,
        sched: &dyn Scheduler,
        seq: u64,
        spec: bool,
        granted: &[u64],
        sink: &mut S,
    ) -> IssueOutcome {
        let t = self.cycle;
        let q = self.quant;
        let arrival = q.cycle_start(t + 1);
        // Snapshot the Copy scalars once; `srcs` — the only non-Copy field
        // needed — is re-borrowed per read-only phase below, which keeps
        // the hot path free of a full-entry clone.
        let (op, class, recyclable, pool, pred_last, pred_pos, ext_ticks, pred_width, fallback) = {
            let x = self.ifo(seq).expect("requesting entry exists");
            (
                x.op,
                x.class,
                x.recyclable,
                x.pool,
                x.pred_last,
                x.pred_pos,
                x.ext_ticks,
                x.pred_width,
                x.fallback,
            )
        };

        if spec {
            // EGPW grant: useful only when the parent issued *this* cycle
            // and leaves recyclable slack within its execution cycle
            // (§IV-A, §IV-D "recycling decision").
            let Some(parent_tag) = pred_last else {
                self.report.egpw_wasted += 1;
                if S::ENABLED {
                    sink.record(t, &PipeEvent::SpecWasted { seq });
                }
                return IssueOutcome::SpecNotRecyclable;
            };
            let parent_granted = granted.contains(&parent_tag);
            if !parent_granted {
                if sched.skewed_select() {
                    // Skewed arbitration: the child can never race ahead of
                    // its parent; the grant is simply unused.
                    self.report.egpw_wasted += 1;
                    if S::ENABLED {
                        sink.record(t, &PipeEvent::SpecWasted { seq });
                    }
                    return IssueOutcome::SpecNotRecyclable;
                }
                // Unskewed: the child was selected ahead of its parent —
                // a GP-mispeculation needing recovery (§IV-B).
                self.report.gp_mispeculations += 1;
                let pen = u64::from(self.config.sched.tag_mispredict_penalty);
                let x = self.ifo_mut(seq).expect("entry");
                x.earliest_req = t + pen;
                self.wakeup_defer(seq);
                if S::ENABLED {
                    sink.record(
                        t,
                        &PipeEvent::GpMispeculation {
                            seq,
                            retry_cycle: t + pen,
                        },
                    );
                }
                return IssueOutcome::GpMispeculation;
            }
            let usable = {
                let x = self.ifo(seq).expect("requesting entry exists");
                let p = self.ifo(parent_tag).expect("granted parent in flight");
                sched.spec_grant_usable(self, x, p, t)
            };
            if !usable {
                self.report.egpw_wasted += 1;
                if S::ENABLED {
                    sink.record(t, &PipeEvent::SpecWasted { seq });
                }
                return IssueOutcome::SpecNotRecyclable;
            }
        } else {
            // Scoreboard validation of the last-arrival prediction
            // (operational design, §IV-C): every operand *not* predicted
            // last must already be available.
            let use_pred = sched.uses_tag_prediction(recyclable) && !fallback;
            if use_pred {
                // `late_is_src0` resolves the misprediction direction while
                // the srcs borrow is live.
                let not_ready: Option<bool> = {
                    let x = self.ifo(seq).expect("requesting entry exists");
                    x.srcs
                        .iter()
                        .copied()
                        .find(|&s| {
                            Some(s) != pred_last && self.src_sel_ready(s, x).is_none_or(|r| r > t)
                        })
                        .map(|late| {
                            matches!(pred_pos, Some((Some(_), i0, _)) if x.srcs.get(i0) == Some(&late))
                        })
                };
                if let Some(late_is_src0) = not_ready {
                    // Tag mispredict: recover by falling back to
                    // all-operand wakeup after a small penalty.
                    if let Some((Some(pred), _i0, _i1)) = pred_pos {
                        let actual = if late_is_src0 {
                            LastArrival::Src0
                        } else {
                            LastArrival::Src1
                        };
                        self.tag_pred.update(op.pc, pred, actual);
                    }
                    let pen = u64::from(self.config.sched.tag_mispredict_penalty);
                    let xm = self.ifo_mut(seq).expect("entry");
                    xm.fallback = true;
                    xm.earliest_req = t + pen;
                    self.wakeup_defer(seq);
                    if S::ENABLED {
                        sink.record(
                            t,
                            &PipeEvent::TagMispredict {
                                seq,
                                retry_cycle: t + pen,
                            },
                        );
                    }
                    return IssueOutcome::TagMispredict;
                }
                // Correct prediction: train towards the observed behaviour.
                if let Some((Some(pred), _, _)) = pred_pos {
                    self.tag_pred.update(op.pc, pred, pred);
                }
            }
        }

        // Confidence warm-up: when no prediction was consumed, train the
        // predictor with the observed last-arrival order of the two
        // candidates.
        if let Some((None, i0, i1)) = pred_pos {
            let actual = {
                let x = self.ifo(seq).expect("requesting entry exists");
                let ready = |pos: usize| {
                    x.srcs
                        .get(pos)
                        .and_then(|&s| self.ifo(s))
                        .map_or(0, |p| p.sel_ready)
                };
                if ready(i0) > ready(i1) {
                    LastArrival::Src0
                } else {
                    LastArrival::Src1
                }
            };
            self.tag_pred.train_only(op.pc, actual);
        }

        // Compute the evaluation start: the latest source availability,
        // never earlier than FU arrival.
        let (start, trans_src) = {
            let x = self.ifo(seq).expect("requesting entry exists");
            let mut start = arrival;
            let mut trans_src: Option<u64> = None;
            for &s in &x.srcs {
                let (a, transparent) = self.avail_for(sched, s, x);
                if a > start {
                    start = a;
                    trans_src = transparent.then_some(s);
                } else if a == start && transparent && start > arrival {
                    trans_src = Some(s);
                }
            }
            (start, trans_src)
        };
        if start >= q.cycle_start(t + 2) {
            // Defensive: the value only materialises after our FU hold.
            let xm = self.ifo_mut(seq).expect("entry");
            xm.earliest_req = t + 1;
            self.wakeup_defer(seq);
            return IssueOutcome::SpecNotRecyclable;
        }

        // Per-class completion/occupancy: recyclable single-cycle ops are
        // timed by the scheduler policy; everything else is mechanism.
        let (timing, path) = if recyclable {
            let args = IssueArgs {
                op,
                class,
                ext_ticks,
                pred_width,
                start,
                cycle: t,
            };
            (sched.on_issue(self, &args), LoadPath::NotMem)
        } else {
            match self.multi_cycle_timing(seq, &op, class, t) {
                Ok(r) => r,
                Err(rej) => {
                    // Structural rejection: every MSHR is busy with a
                    // different line. Park the entry until the model's
                    // retry horizon (the earliest in-flight fill); no FU
                    // is consumed, though the grant slot is — exactly as
                    // for a tag mispredict.
                    let retry_cycle = rej.retry_at.max(t + 1);
                    let xm = self.ifo_mut(seq).expect("entry");
                    xm.mem_rejected = true;
                    xm.earliest_req = retry_cycle;
                    self.wakeup_defer(seq);
                    if S::ENABLED {
                        sink.record(t, &PipeEvent::MemReject { seq, retry_cycle });
                    }
                    return IssueOutcome::MemRejected;
                }
            }
        };
        let l1_miss = matches!(&path, LoadPath::Mem(r) if r.outcome.is_high_latency());
        let (sel_ready, avail, done_cycle, occupancy, held_two) = (
            timing.sel_ready,
            timing.avail,
            timing.done_cycle,
            timing.occupancy,
            timing.held_two,
        );

        // Fusion (MOS) is attempted after the producer issues (below).
        let unit = self.pool_mut(pool).reserve(t + 1, occupancy.max(1));
        debug_assert!(unit.is_some(), "select only grants when a unit is free");
        let unit = unit.unwrap_or(0);

        let transparent = start > arrival;
        // Chain accounting (Fig. 11).
        let (chain_len, producer_to_extend) = if transparent {
            if let Some(ptag) = trans_src {
                let plen = self.ifo(ptag).map_or(0, |p| p.chain_len);
                (plen + 1, Some(ptag))
            } else {
                (1, None)
            }
        } else {
            (1, None)
        };
        if let Some(ptag) = producer_to_extend {
            if let Some(p) = self.ifo_mut(ptag) {
                p.chain_extended = true;
            }
        }
        if transparent {
            self.report.recycled_ops += 1;
            if spec {
                self.report.egpw_issues += 1;
            }
        }

        {
            let xm = self.ifo_mut(seq).expect("entry");
            xm.issued = true;
            xm.issue_cycle = t;
            xm.sel_ready = sel_ready;
            xm.avail = avail;
            xm.done_cycle = done_cycle;
            xm.transparent = transparent;
            xm.held_two = held_two;
            xm.chain_len = chain_len;
            xm.l1_miss = l1_miss;
            xm.mem_rejected = false;
        }
        match path {
            LoadPath::Forwarded { store_seq } => {
                self.report.stl_forwards += 1;
                if S::ENABLED {
                    sink.record(t, &PipeEvent::StoreForward { seq, store_seq });
                }
            }
            LoadPath::Mem(res)
                if S::ENABLED && (res.mshr_merged || res.port_wait > 0 || res.queue_wait > 0) =>
            {
                sink.record(
                    t,
                    &PipeEvent::MemContention {
                        seq,
                        merged: res.mshr_merged,
                        port_wait: res.port_wait,
                        queue_wait: res.queue_wait,
                    },
                );
            }
            _ => {}
        }
        self.rse_used -= 1;
        if S::ENABLED {
            sink.record(
                t,
                &PipeEvent::Issue {
                    seq,
                    pool,
                    unit,
                    start_tick: start,
                    avail_tick: avail,
                    occupancy: occupancy.max(1),
                    transparent,
                    spec,
                },
            );
            sink.record(
                t,
                &PipeEvent::CiBroadcast {
                    seq,
                    avail_tick: avail,
                },
            );
        }

        // Post-issue policy: a fusing scheduler (MOS) packs dependent ops
        // into the producer's execution cycle; the pipeline emits their
        // issue events (so sinks see the same stream as a real issue) and
        // their wakeup broadcasts. The producer's own CI-bus broadcast is
        // deferred until after the hook so a fusing policy can still read
        // its intact waiter list (the subscribed-consumer index).
        for fused in sched.post_issue(self, seq, t) {
            self.wakeup_broadcast(fused.seq);
            if S::ENABLED {
                sink.record(
                    t,
                    &PipeEvent::Issue {
                        seq: fused.seq,
                        pool,
                        unit,
                        start_tick: q.cycle_start(t + 1) + fused.start_offset,
                        avail_tick: q.cycle_start(t + 2),
                        occupancy: 0, // fused: rides the producer's unit
                        transparent: false,
                        spec: false,
                    },
                );
                sink.record(
                    t,
                    &PipeEvent::CiBroadcast {
                        seq: fused.seq,
                        avail_tick: q.cycle_start(t + 2),
                    },
                );
            }
        }
        // CI-bus broadcast: wake the consumers subscribed to this entry.
        self.wakeup_broadcast(seq);
        IssueOutcome::Issued
    }
}
