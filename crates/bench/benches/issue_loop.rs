//! Microbenchmark of the wakeup/select hot path.
//!
//! Drives full simulations whose cost is dominated by `select_and_issue`
//! on the BIG core (widest window: 160 ROB / 128 RS entries), so the
//! ns-per-instruction rows below track the event-driven wakeup directly:
//! a regression that re-introduces an O(window) scan or per-cycle heap
//! churn shows up here before it shows up in the sweep wall-clock.
//!
//! `LEN` is a floor, not a size: a kernel trace runs whole outer
//! iterations, so at `LEN` = 20,000 crc yields 22,550 ops and CONV
//! 481,320. Every row divides by the length of the trace it simulates.
//!
//! Run with `cargo bench -p redsoc-bench --bench issue_loop`. The
//! committed sweep-level baseline lives in `BENCH_sweep.json` at the
//! repo root and is gated by `redsoc perfgate` (see DESIGN.md).

use std::hint::black_box;

use redsoc_bench::microbench::{bench, group};
use redsoc_bench::{redsoc_for, TraceCache};
use redsoc_core::config::{CoreConfig, SchedulerConfig};
use redsoc_core::pipeline::simulate;
use redsoc_workloads::Benchmark;

const LEN: u64 = 20_000;

/// Dependency-chain-heavy workload: long chains keep entries parked in
/// the reservation stations, which is exactly the state the old full
/// scan paid for every cycle and the ready sets now skip.
const CHAINY: Benchmark = Benchmark::Crc;

fn bench_schedulers() {
    group("issue_loop_big_core");
    let cache = TraceCache::new(LEN);
    let trace = cache.get(CHAINY);
    let run = |sched: SchedulerConfig| {
        simulate(
            black_box(trace.iter().copied()),
            CoreConfig::big().with_sched(sched),
        )
        .expect("run")
        .cycles
    };
    let ops = trace.len() as u64;
    bench("crc_baseline", ops, || run(SchedulerConfig::baseline()));
    bench("crc_redsoc", ops, || run(redsoc_for(CHAINY.class())));
    bench("crc_mos", ops, || run(SchedulerConfig::mos()));
}

fn bench_window_pressure() {
    group("issue_loop_window_pressure");
    let cache = TraceCache::new(LEN);
    // CONV keeps the BIG window fullest in the sweep (it was the
    // slowest cell before the event-driven rewrite), so it bounds the
    // worst-case per-cycle cost of wakeup + select.
    let trace = cache.get(Benchmark::Conv);
    bench("conv_mos_big", trace.len() as u64, || {
        simulate(
            black_box(trace.iter().copied()),
            CoreConfig::big().with_sched(SchedulerConfig::mos()),
        )
        .expect("run")
        .cycles
    });
}

fn main() {
    bench_schedulers();
    bench_window_pressure();
}
