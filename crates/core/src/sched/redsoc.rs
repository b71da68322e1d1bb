//! The ReDSOC slack-recycling scheduler (§III–IV).

// Invariant `expect`s in this module are deliberate: each one guards a
// structural pipeline invariant that only a simulator bug can violate
// (never operator input), and a loud abort — isolated and quarantined
// per job by the bench supervisor — beats silently corrupting a
// result. The per-cycle hot path stays `Result`-free.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use redsoc_isa::opcode::ExecClass;
use redsoc_timing::slack::{SlackBucket, WidthClass};
use redsoc_timing::width_predictor::WidthOutcome;

use crate::config::SchedulerConfig;
use crate::pipeline::state::{Ifo, PipelineState};

use super::{ExecTiming, IssueArgs, Scheduler, SelectRequest};

/// Slack-aware scheduling over a transparent-flip-flop bypass network:
///
/// - **wakeup** on the predicted-last-arriving tag only (operational RSE
///   design, §IV-C), with eager grandparent wakeup (§IV-B) raising
///   speculative requests one dependence level ahead;
/// - **skewed select** (§IV-D) servicing non-speculative requests first,
///   so GP-mispeculation recovery is unreachable by construction;
/// - **transparent bypass** between same-pool recyclable ops: a consumer
///   begins evaluating at its producer's raw Completion Instant instead of
///   the next clock boundary;
/// - **thresholded recycling decision** for speculative grants — the
///   parent's CI must fall within `threshold_ticks` of the cycle start;
/// - **CI-resolution completion timing** with width-prediction validation
///   at execute and two-cycle FU holds for boundary-crossing evaluations.
#[derive(Debug, Clone, Copy)]
pub struct RedsocScheduler {
    egpw: bool,
    skewed: bool,
    threshold_ticks: u64,
    width_replay_penalty: u32,
    invert_select: bool,
}

impl RedsocScheduler {
    /// Capture the ReDSOC policy knobs from a scheduler configuration.
    #[must_use]
    pub fn from_config(config: &SchedulerConfig) -> Self {
        RedsocScheduler {
            egpw: config.egpw,
            skewed: config.skewed_select,
            threshold_ticks: config.threshold_ticks,
            width_replay_penalty: config.width_replay_penalty,
            invert_select: false,
        }
    }

    /// Test-only fault injection: invert the skewed-selection priority so
    /// grandparent-speculative requests are serviced *ahead of*
    /// non-speculative ones — exactly the ordering bug §IV-D's skew
    /// exists to prevent. The scheduler also stops advertising
    /// [`Scheduler::skewed_select`], since the guarantee no longer holds;
    /// GP-mispeculation recovery becomes reachable and the verification
    /// oracle must flag the run. The oracle's `sabotage_redsoc`
    /// (`redsoc fuzz --sabotage invert-skew`) plants it. Not part of the
    /// public API.
    #[doc(hidden)]
    #[must_use]
    pub fn with_inverted_skew(mut self) -> Self {
        self.invert_select = true;
        self
    }
}

impl Scheduler for RedsocScheduler {
    fn name(&self) -> &'static str {
        "redsoc"
    }

    fn uses_tag_prediction(&self, recyclable: bool) -> bool {
        recyclable
    }

    // Purity audit: reads only `x`'s rename-time fields (`recyclable`,
    // `fallback`, `pred_last`, `gp_tag`, `srcs`) and `src_sel_ready` over
    // srcs ∪ gp_tag at the current cycle. `src_sel_ready` thresholds are
    // fixed once a producer issues, so the result is monotone in the
    // cycle; the issue broadcast of any tag in srcs ∪ gp_tag is exactly
    // the event set the pipeline subscribes to. Contract satisfied.
    fn wakeup(&self, state: &PipelineState, x: &Ifo) -> Option<SelectRequest> {
        let cycle = state.cycle();
        let ready = |t: u64| state.src_sel_ready(t, x).is_some_and(|r| r <= cycle);
        let use_pred = x.recyclable && !x.fallback;
        let nonspec = if use_pred {
            // Operational RSE: wait only for the predicted-last tag.
            match x.pred_last {
                None => true,
                Some(t) => ready(t),
            }
        } else {
            x.srcs.iter().all(|&t| ready(t))
        };
        if nonspec {
            return Some(SelectRequest {
                seq: x.op.seq,
                spec: false,
            });
        }
        // Eager grandparent wakeup (§IV-B): speculative request once the
        // grandparent has broadcast, hoping the parent issues this cycle.
        if self.egpw && x.recyclable {
            if let Some(gp) = x.gp_tag {
                if ready(gp) {
                    return Some(SelectRequest {
                        seq: x.op.seq,
                        spec: true,
                    });
                }
            }
        }
        None
    }

    fn select(&self, requests: &mut [SelectRequest]) {
        // Skewed selection (§IV-D): non-speculative requests first,
        // oldest-first within each group. Unskewed: purely oldest-first
        // (the original GPW behaviour, exposing GP-mispeculation).
        // Every key includes the unique `seq`, so an unstable sort is
        // deterministic and avoids the stable sort's scratch allocation.
        if self.invert_select {
            // Injected fault: speculative-first, the ordering skew forbids.
            requests.sort_unstable_by_key(|r| (core::cmp::Reverse(r.spec), r.seq));
        } else if self.skewed {
            requests.sort_unstable_by_key(|r| (r.spec, r.seq));
        } else {
            requests.sort_unstable_by_key(|r| r.seq);
        }
    }

    fn skewed_select(&self) -> bool {
        // The inverted-skew fault breaks the no-overtake guarantee, so the
        // pipeline must not be told it holds (GP-mispeculation recovery
        // has to stay armed for the run to remain well-defined).
        self.skewed && !self.invert_select
    }

    fn transparent_pair(&self, producer: &Ifo, consumer: &Ifo) -> bool {
        consumer.recyclable && producer.recyclable && producer.pool == consumer.pool
    }

    fn spec_grant_usable(&self, state: &PipelineState, x: &Ifo, parent: &Ifo, t: u64) -> bool {
        let q = state.quant();
        // The recycling decision (§IV-D): the parent must complete within
        // its own execution cycle, leaving at most `threshold_ticks` of
        // consumed time — and a non-zero CI, else nothing is recycled.
        let recycle_ok = parent.recyclable
            && parent.pool == x.pool
            && parent.avail < q.cycle_start(t + 2)
            && q.ci_of(parent.avail) <= self.threshold_ticks
            && q.ci_of(parent.avail) != 0;
        // All other operands must be ready in time as well.
        let others_ok = x
            .srcs
            .iter()
            .all(|&s| s == parent.op.seq || state.src_sel_ready(s, x).is_some_and(|r| r <= t));
        recycle_ok && others_ok
    }

    fn on_issue(&self, state: &mut PipelineState, issue: &IssueArgs) -> ExecTiming {
        let q = state.quant();
        let t = issue.cycle;
        let tpc = q.ticks_per_cycle();
        // Width-prediction validation at execute (§II-B).
        let mut ext = issue.ext_ticks;
        let mut replay = 0u64;
        if issue.class == ExecClass::IntAlu {
            let actual = WidthClass::from_bits(issue.op.eff_bits);
            let outcome = state
                .width_pred
                .update(issue.op.pc, issue.pred_width, actual);
            if outcome == WidthOutcome::Aggressive {
                // Selective reissue: full-width re-execution.
                let bucket = SlackBucket::classify(&issue.op.instr, WidthClass::W32)
                    .expect("ALU classifies");
                ext = q.ps_to_ticks_ceil(state.lut.compute_ps(bucket));
                replay = u64::from(self.width_replay_penalty) * tpc;
            }
        }
        let completion = issue.start + ext + replay;
        let crossing = completion > q.cycle_start(t + 2);
        // A reissued (width-mispredicted) op frees its unit and
        // re-executes later, so occupancy stays at most the two-cycle
        // transparent hold.
        let occ = ((q.ceil_to_cycle(completion).max(q.cycle_start(t + 2)) - q.cycle_start(t + 1))
            / tpc)
            .min(2);
        if crossing {
            state.report.two_cycle_holds += 1;
        }
        ExecTiming {
            sel_ready: t + 1,
            avail: completion,
            done_cycle: q.cycle_of(q.ceil_to_cycle(completion)).max(t + 2),
            occupancy: occ as u32,
            held_two: crossing,
        }
    }
}
