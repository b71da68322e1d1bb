//! Property test for the stall-attribution invariant: across the full
//! benchmark × core × scheduler grid, the per-cause stall counters must
//! partition elapsed cycles *exactly* — every cycle is charged to one and
//! only one cause. This is the contract that makes the `/v2` sweep
//! breakdown trustworthy: percentages computed from it always sum to 100%.

use redsoc_bench::runner::{run_full_sweep, Mode};
use redsoc_bench::{threads, TraceCache};
use redsoc_core::stats::StallCause;

const LEN: u64 = 4_000;

#[test]
fn stall_causes_partition_cycles_across_the_grid() {
    let cache = TraceCache::new(LEN);
    // TS rows publish no breakdown (`stalls: null`); every other mode
    // must satisfy the partition.
    let modes = [Mode::Baseline, Mode::Redsoc, Mode::Mos];
    let grid = run_full_sweep(&cache, &modes, threads().expect("REDSOC_THREADS"));

    let mut checked = 0usize;
    for cell in grid.cells() {
        let rep = cell
            .report
            .as_deref()
            .expect("thread-isolated cells carry a full SimReport");
        let name = cell.job.key();
        assert_eq!(
            rep.stalls.total(),
            rep.cycles,
            "{name}: stall breakdown must partition cycles, got {:?}",
            rep.stalls
        );
        // Forward progress means busy cycles; a report attributing every
        // cycle to a stall would be lying about a run that committed ops.
        assert!(rep.stalls.busy > 0, "{name}: no cycle attributed to busy");
        // Each counter is also individually bounded by the total.
        for cause in StallCause::all() {
            assert!(
                rep.stalls.count(cause) <= rep.cycles,
                "{name}: {} exceeds cycle count",
                cause.label()
            );
        }
        checked += 1;
    }
    // 16 benchmarks × 3 cores × 3 simulated schedulers.
    assert_eq!(checked, 16 * 3 * 3, "grid coverage");
}
