//! Run every experiment's logic in sequence — the one-shot reproduction
//! driver behind `EXPERIMENTS.md`.
//!
//! Starts with the parallel engine's full sweep (all workloads × Table I
//! cores × all modes), writing the machine-readable `sweep.json`,
//! then launches the per-figure binaries. Respects `REDSOC_TRACE_LEN` and
//! `REDSOC_THREADS`; with the default 300k-instruction traces a full run
//! takes a few minutes in release mode.

use std::process::Command;

use redsoc_bench::runner::{run_full_sweep, sweep_json, Mode};
use redsoc_bench::{threads, trace_len, TraceCache};

const BINS: [&str; 14] = [
    "fig01_alu_times",
    "fig02_ks_adder",
    "fig03_slack_lut",
    "tab1_configs",
    "tab2_kernels",
    "fig10_opmix",
    "fig11_seq_len",
    "fig12_tag_pred",
    "fig13_speedup",
    "fig14_fu_stalls",
    "fig15_comparison",
    "abl_precision",
    "abl_threshold",
    "abl_width_pred",
];

fn main() {
    let threads = threads();
    println!("================ engine sweep ({threads} threads) ================");
    let cache = TraceCache::new(trace_len());
    let grid = run_full_sweep(&cache, &Mode::all(), threads);
    let doc = sweep_json(&grid, trace_len());
    std::fs::write("sweep.json", doc.pretty()).expect("write sweep.json");
    println!(
        "{} jobs in {:.1}s wall ({:.1}s cpu) -> sweep.json",
        grid.rows().len(),
        grid.wall.as_secs_f64(),
        grid.cpu_time().as_secs_f64()
    );

    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("exe has a parent dir");
    let mut all = BINS.to_vec();
    all.push("exp_power");
    all.push("exp_pvt");
    all.push("exp_extended");
    for bin in all {
        println!("\n================ {bin} ================");
        let status = Command::new(dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
}
