//! The parallel engine must be a pure wall-clock optimisation: running
//! the same job grid serially and on many threads must produce
//! byte-identical key statistics for every job.

use redsoc_bench::runner::{run_grid, Mode};
use redsoc_bench::{cores, TraceCache};
use redsoc_workloads::Benchmark;

const LEN: u64 = 5_000;

/// Everything a cell claims, rendered to a canonical string. Wall clock
/// is excluded (it is measurement, not simulation output); the journaled
/// summary (a TS cell's `clock_ps` included) and the full `SimReport`
/// Debug output are included, so any drifting counter — not just
/// cycles — fails the comparison.
fn fingerprint(grid: &redsoc_bench::runner::Grid) -> String {
    grid.cells()
        .iter()
        .map(|c| {
            format!(
                "{} {} summary={:?} report={:?}\n",
                c.job.key(),
                c.status.label(),
                c.summary,
                c.report
            )
        })
        .collect()
}

#[test]
fn parallel_grid_matches_serial_grid_exactly() {
    let benches = [
        Benchmark::Bitcnt,
        Benchmark::Crc,
        Benchmark::Conv,
        Benchmark::Bzip2,
    ];
    let cores = cores();
    let modes = [Mode::Baseline, Mode::Redsoc, Mode::Mos, Mode::Ts];

    let serial_cache = TraceCache::new(LEN);
    let serial = run_grid(&serial_cache, &benches, &cores, &modes, 1);

    let parallel_cache = TraceCache::new(LEN);
    let parallel = run_grid(&parallel_cache, &benches, &cores, &modes, 8);

    assert_eq!(serial.cells().len(), 4 * 3 * 4);
    assert!(serial.fully_ok() && parallel.fully_ok());
    let s = fingerprint(&serial);
    let p = fingerprint(&parallel);
    assert!(
        s == p,
        "parallel execution changed simulation results\n--- serial ---\n{s}\n--- parallel ---\n{p}"
    );
}

#[test]
fn rerunning_the_same_grid_is_reproducible() {
    let benches = [Benchmark::Strsearch];
    let cores = cores();
    let a_cache = TraceCache::new(LEN);
    let a = run_grid(&a_cache, &benches, &cores[..2], &[Mode::Redsoc], 4);
    let b_cache = TraceCache::new(LEN);
    let b = run_grid(&b_cache, &benches, &cores[..2], &[Mode::Redsoc], 4);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}
