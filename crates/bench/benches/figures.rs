//! Benchmarks that exercise each figure's simulation pipeline at reduced
//! scale, plus the parallel experiment engine itself: one group per
//! figure, and a serial-vs-parallel sweep timing row pair that records the
//! engine's speedup on this machine.

use std::hint::black_box;

use redsoc_bench::microbench::{bench, group};
use redsoc_bench::runner::{run_grid, Mode};
use redsoc_bench::{cores, redsoc_for, TraceCache};
use redsoc_core::config::{CoreConfig, SchedulerConfig};
use redsoc_core::pipeline::simulate;
use redsoc_core::sched::ts::{error_rate_at, run_ts};
use redsoc_timing::optime::fig1_series;
use redsoc_workloads::Benchmark;

const LEN: u64 = 20_000;

fn sim_pair(trace: &[redsoc_isa::DynOp]) -> (u64, u64) {
    let base = simulate(trace.iter().copied(), CoreConfig::big()).expect("baseline run");
    let red = simulate(
        trace.iter().copied(),
        CoreConfig::big().with_sched(SchedulerConfig::redsoc()),
    )
    .expect("redsoc run");
    (base.cycles, red.cycles)
}

fn bench_fig01() {
    group("fig01");
    bench("fig01_alu_times_model", 0, || black_box(fig1_series()));
}

fn bench_fig11() {
    group("fig11_chains");
    let cache = TraceCache::new(LEN);
    let trace = cache.get(Benchmark::Bzip2);
    bench("bzip2_chain_stats", LEN, || {
        let rep = simulate(
            trace.iter().copied(),
            CoreConfig::big().with_sched(redsoc_for(Benchmark::Bzip2.class())),
        )
        .expect("run");
        rep.chains.weighted_mean()
    });
}

fn bench_fig13() {
    group("fig13_speedup");
    let cache = TraceCache::new(LEN);
    let trace = cache.get(Benchmark::Bitcnt);
    bench("bitcnt_baseline_vs_redsoc", LEN, || {
        black_box(sim_pair(&trace))
    });
}

fn bench_fig15() {
    group("fig15_comparators");
    let cache = TraceCache::new(LEN);
    let trace = cache.get(Benchmark::Crc);
    bench("crc_ts_error_analysis", LEN, || {
        black_box(error_rate_at(&trace, 400))
    });
    bench("crc_ts_full", LEN, || {
        let base = simulate(trace.iter().copied(), CoreConfig::big()).expect("base");
        black_box(run_ts(&trace, &CoreConfig::big(), base.cycles, 0.01).expect("ts"))
    });
}

fn bench_workload_generation() {
    group("trace_generation");
    for bench_id in [Benchmark::Xalanc, Benchmark::Conv, Benchmark::Bitcnt] {
        bench(bench_id.name(), LEN, || {
            black_box(bench_id.trace(LEN).len())
        });
    }
}

/// The engine benchmark: the full-workload × BIG sweep serially and with
/// the machine's thread count. The ratio between these two rows is the
/// engine's measured speedup on this machine.
fn bench_engine() {
    group("parallel_engine");
    let benches: Vec<Benchmark> = Benchmark::all();
    let modes = [Mode::Baseline, Mode::Redsoc];
    let serial_cache = TraceCache::new(LEN);
    let serial = bench("sweep_16x1x2_serial", LEN * benches.len() as u64, || {
        run_grid(&serial_cache, &benches, &cores()[..1], &modes, 1)
            .rows()
            .len()
    });
    let threads = redsoc_bench::threads();
    let parallel_cache = TraceCache::new(LEN);
    let parallel = bench("sweep_16x1x2_parallel", LEN * benches.len() as u64, || {
        run_grid(&parallel_cache, &benches, &cores()[..1], &modes, threads)
            .rows()
            .len()
    });
    if parallel > 0.0 {
        println!(
            "engine speedup at {threads} threads: {:.2}x",
            serial / parallel
        );
    }
}

fn main() {
    bench_fig01();
    bench_fig11();
    bench_fig13();
    bench_fig15();
    bench_workload_generation();
    bench_engine();
}
