//! The conventional baseline scheduler.

use super::Scheduler;

/// Conventional out-of-order scheduling: all-operands wakeup,
/// oldest-first select, every single-cycle operation completes at a clock
/// boundary, no slack is recycled. Every [`Scheduler`] default method *is*
/// this policy, so the implementation is empty — which is exactly the
/// point: the baseline is the trait's reference semantics.
///
/// Wakeup purity audit: the default `wakeup` reads only `x.srcs` through
/// `src_sel_ready` at the current cycle — pure and monotone, exactly the
/// event set (source issue broadcasts) the pipeline subscribes to.
/// Contract satisfied.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineScheduler;

impl Scheduler for BaselineScheduler {
    fn name(&self) -> &'static str {
        "baseline"
    }
}
