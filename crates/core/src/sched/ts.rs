//! Timing-speculation comparator (the paper's "TS", §VI-D).
//!
//! A Razor-style design raises frequency until the rate of timing
//! violations (single-cycle computations whose true delay exceeds the
//! shortened clock) reaches a tolerable bound. Because frequency can only
//! be set at coarse temporal granularity while data slack varies per
//! operation, TS must be configured for the *tail* of the delay
//! distribution — the fundamental limitation ReDSOC sidesteps.
//!
//! Following the paper, the frequency is **statically fixed per
//! application** so the measured error rate stays within 0.01–1%, and
//! error recovery is *not* modelled (TS numbers are optimistic).
//!
//! Under a shortened clock, single-cycle ALU work still takes one (shorter)
//! cycle, but fixed-time structures slow down in cycle terms: DRAM/cache
//! latencies and multi-cycle functional units are rescaled by the clock
//! ratio. Speedup is reported in wall-clock time.

use redsoc_isa::instruction::Instr;
use redsoc_isa::trace::DynOp;
use redsoc_timing::optime::{alu_compute_ps, simd_compute_ps, CYCLE_PS};

use crate::config::{CoreConfig, SchedulerConfig};
use crate::pipeline::{SimError, Simulator};

use super::Scheduler;

/// The TS scheduling policy: *conventional* wakeup, select and boundary
/// completion — identical to the baseline — because timing speculation
/// changes the clock, not the scheduler. All slack exploitation happens
/// statically in [`ts_config`]: the clock is shortened per application
/// and fixed-time structures are rescaled, then this scheduler drives the
/// pipeline exactly as the baseline would.
///
/// Wakeup purity audit: no `wakeup` override — inherits the default
/// all-operands wakeup, whose purity is audited in
/// [`baseline`](super::baseline). Contract satisfied.
#[derive(Debug, Clone, Copy, Default)]
pub struct TsScheduler;

impl Scheduler for TsScheduler {
    fn name(&self) -> &'static str {
        "ts"
    }
}

/// Result of a timing-speculation run.
#[derive(Debug, Clone, PartialEq)]
pub struct TsResult {
    /// The shortened clock period chosen (ps).
    pub clock_ps: u32,
    /// Fraction of single-cycle computations that would violate timing at
    /// that period.
    pub error_rate: f64,
    /// Wall-clock speedup over the unscaled baseline.
    pub speedup: f64,
    /// Cycles of the scaled run.
    pub cycles: u64,
}

/// True compute time (ps) of a single-cycle operation, or `None` for
/// multi-cycle / memory / control operations.
#[must_use]
pub fn op_compute_ps(op: &DynOp) -> Option<u32> {
    match op.instr {
        Instr::Alu { op: alu, .. } => {
            Some(alu_compute_ps(alu, op.instr.uses_shifter(), op.eff_bits))
        }
        Instr::Simd { op: simd, ty, .. } if simd.is_single_cycle() => {
            Some(simd_compute_ps(simd, ty))
        }
        _ => None,
    }
}

/// Fraction of single-cycle computations in `trace` whose true delay
/// exceeds `clock_ps`.
#[must_use]
pub fn error_rate_at(trace: &[DynOp], clock_ps: u32) -> f64 {
    let mut total = 0u64;
    let mut errors = 0u64;
    for op in trace {
        if let Some(t) = op_compute_ps(op) {
            total += 1;
            if t > clock_ps {
                errors += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        errors as f64 / total as f64
    }
}

/// Choose the shortest clock period (from `CYCLE_PS` down to
/// `min_clock_ps` in `step_ps` decrements) whose error rate stays at or
/// below `max_error`.
#[must_use]
pub fn choose_clock(trace: &[DynOp], max_error: f64, min_clock_ps: u32, step_ps: u32) -> u32 {
    let mut best = CYCLE_PS;
    let mut clock = CYCLE_PS;
    while clock >= min_clock_ps {
        if error_rate_at(trace, clock) <= max_error {
            best = clock;
        } else {
            break; // error rate is monotone in clock period
        }
        if clock < step_ps {
            break;
        }
        clock -= step_ps;
    }
    best
}

/// Clock floor for timing speculation (ps): frequency scaling stresses
/// *every* synchronous stage — fetch, scheduler, cache arrays — not just
/// the ALU data paths whose error rate is being tracked. Those stages are
/// synthesised right up to the clock with only a small guard band, so a
/// Razor-style design can reclaim roughly 10% of the period before
/// non-datapath stages start failing uncontrollably. (This is why the
/// paper's TS bars stay in single digits while ReDSOC, which touches only
/// the ALU bypass network, is unconstrained.)
pub const TS_MIN_CLOCK_PS: u32 = 450;

/// The TS operating point for `trace` on `config`: the per-application
/// clock period (ps) and the core configuration under conventional
/// scheduling, with fixed-time structures rescaled to that clock.
#[must_use]
pub fn ts_config(trace: &[DynOp], config: &CoreConfig, max_error: f64) -> (u32, CoreConfig) {
    let clock_ps = choose_clock(trace, max_error, TS_MIN_CLOCK_PS, 10);
    let scale = f64::from(CYCLE_PS) / f64::from(clock_ps);
    let mut scaled = config.clone().with_sched(SchedulerConfig::baseline());
    let rescale = |cycles: u32| -> u32 { (f64::from(cycles) * scale).ceil() as u32 };
    scaled.mem_latencies.l1_cycles = rescale(scaled.mem_latencies.l1_cycles);
    scaled.mem_latencies.l2_cycles = rescale(scaled.mem_latencies.l2_cycles);
    scaled.mem_latencies.mem_cycles = rescale(scaled.mem_latencies.mem_cycles);
    (clock_ps, scaled)
}

/// Wall-clock speedup of a TS run of `ts_cycles` at `clock_ps` over a
/// baseline run of `baseline_cycles` at the nominal [`CYCLE_PS`] clock.
#[must_use]
pub fn ts_speedup(baseline_cycles: u64, ts_cycles: u64, clock_ps: u32) -> f64 {
    let base_time = baseline_cycles as f64 * f64::from(CYCLE_PS);
    let ts_time = ts_cycles as f64 * f64::from(clock_ps);
    base_time / ts_time
}

/// Run the TS comparator: pick the per-application clock, rescale
/// fixed-time latencies ([`ts_config`]), simulate under a
/// [`TsScheduler`], and report wall-clock speedup against the given
/// baseline cycle count ([`ts_speedup`]).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_ts(
    trace: &[DynOp],
    config: &CoreConfig,
    baseline_cycles: u64,
    max_error: f64,
) -> Result<TsResult, SimError> {
    let (clock_ps, scaled) = ts_config(trace, config, max_error);
    let report =
        Simulator::with_scheduler(scaled, Box::new(TsScheduler))?.run(trace.iter().copied())?;
    Ok(TsResult {
        clock_ps,
        error_rate: error_rate_at(trace, clock_ps),
        speedup: ts_speedup(baseline_cycles, report.cycles, clock_ps),
        cycles: report.cycles,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::pipeline::simulate;
    use redsoc_isa::opcode::AluOp;
    use redsoc_isa::operand::Operand2;
    use redsoc_isa::program::r;

    fn mixed_trace(n: u64, critical_every: u64) -> Vec<DynOp> {
        // Mostly logic ops, with an occasional critical shifted add.
        let mut ops = Vec::new();
        for i in 0..n {
            let instr = if critical_every > 0 && i % critical_every == 0 {
                Instr::Alu {
                    op: AluOp::Add,
                    dst: Some(r(1)),
                    src1: Some(r(1)),
                    op2: Operand2::shifted(r(2), redsoc_isa::operand::ShiftKind::Lsr, 3),
                    set_flags: false,
                }
            } else {
                Instr::Alu {
                    op: AluOp::Eor,
                    dst: Some(r(1)),
                    src1: Some(r(1)),
                    op2: Operand2::Imm(1),
                    set_flags: false,
                }
            };
            let mut d = DynOp::simple(i, (i % 32) as u32 * 4, instr);
            d.eff_bits = 32;
            ops.push(d);
        }
        ops.push(DynOp::simple(n, 0, Instr::Halt));
        ops
    }

    #[test]
    fn error_rate_monotone_in_clock() {
        let t = mixed_trace(1000, 100);
        let e500 = error_rate_at(&t, 500);
        let e400 = error_rate_at(&t, 400);
        let e200 = error_rate_at(&t, 200);
        assert!(e500 <= e400 && e400 <= e200);
        assert_eq!(e500, 0.0, "nothing violates the design clock");
    }

    #[test]
    fn critical_ops_pin_the_clock() {
        // 1% of ops are 500 ps critical: a 1% error bound allows scaling
        // right up to (but not past) the point those ops fail.
        let t = mixed_trace(10_000, 100);
        // The critical shifted ADD takes 480 ps; under a tight bound the
        // clock cannot shrink past it.
        let clock = choose_clock(&t, 0.005, 300, 10);
        assert_eq!(
            clock, 480,
            "critical tail above the bound forbids scaling past it"
        );
        let clock = choose_clock(&t, 0.02, 300, 10);
        assert!(clock < 480, "loose bound allows scaling: {clock}");
    }

    #[test]
    fn no_critical_ops_allows_deep_scaling() {
        let t = mixed_trace(5_000, 0);
        // EOR takes 160 ps: with no critical ops the clock can shrink far.
        let clock = choose_clock(&t, 0.001, 300, 10);
        assert!(clock <= 320, "logic-only stream scales deeply: {clock}");
    }

    #[test]
    fn ts_speedup_is_bounded_by_clock_ratio() {
        let t = mixed_trace(3_000, 0);
        let config = CoreConfig::big();
        let base = simulate(t.iter().copied(), config.clone()).unwrap();
        let ts = run_ts(&t, &config, base.cycles, 0.01).unwrap();
        let max = f64::from(CYCLE_PS) / f64::from(ts.clock_ps);
        assert!(
            ts.speedup > 1.0,
            "scaling must speed up compute-bound code: {}",
            ts.speedup
        );
        assert!(
            ts.speedup <= max + 1e-9,
            "{} > clock ratio {max}",
            ts.speedup
        );
        // The non-ALU stages cap scaling at the floor.
        assert!(ts.clock_ps >= TS_MIN_CLOCK_PS);
    }

    #[test]
    fn ts_scheduler_matches_baseline_exactly() {
        // TS is the conventional scheduler under a different clock: on the
        // *same* config the two must be cycle-identical.
        let t = mixed_trace(2_000, 50);
        let config = CoreConfig::big();
        let base = simulate(t.iter().copied(), config.clone()).unwrap();
        let ts = Simulator::with_scheduler(config, Box::new(TsScheduler))
            .unwrap()
            .run(t.iter().copied())
            .unwrap();
        assert_eq!(format!("{base:?}"), format!("{ts:?}"));
    }
}
