//! Diagnostic dump of one benchmark's simulation reports.
use redsoc_bench::{redsoc_for, trace_len, TraceCache};
use redsoc_core::config::{CoreConfig, SchedulerConfig};
use redsoc_core::pipeline::simulate;
use redsoc_workloads::Benchmark;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "bzip2".into());
    let bench = Benchmark::all()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(&name))
        .expect("unknown benchmark");
    let cache = TraceCache::new(trace_len().expect("REDSOC_TRACE_LEN"));
    let trace = cache.get(bench);
    let run = |s| {
        simulate(trace.iter().copied(), CoreConfig::big().with_sched(s))
            .expect("experiments are deterministic; a simulator error is a bug")
    };
    let (base, r) = (
        run(SchedulerConfig::baseline()),
        run(redsoc_for(bench.class())),
    );
    println!(
        "=== {} on BIG (sched {:?}) ===",
        bench.name(),
        redsoc_for(bench.class()).threshold_ticks
    );
    println!(
        "baseline: cycles {} ipc {:.3} fu_stall {:.3} mispred {:.4}",
        base.cycles,
        base.ipc(),
        base.fu_stall_rate(),
        base.branch.mispredict_rate()
    );
    println!(
        "redsoc:   cycles {} ipc {:.3} fu_stall {:.3}",
        r.cycles,
        r.ipc(),
        r.fu_stall_rate()
    );
    println!(
        "  recycled {} egpw_issues {} egpw_wasted {} 2cyc_holds {} gp_mispec {}",
        r.recycled_ops, r.egpw_issues, r.egpw_wasted, r.two_cycle_holds, r.gp_mispeculations
    );
    println!(
        "  chains: {} seqs, mean {:.2}, weighted {:.2}",
        r.chains.sequences(),
        r.chains.mean(),
        r.chains.weighted_mean()
    );
    println!(
        "  tag_pred: {} preds {:.4} mispred",
        r.tag_pred.predictions,
        r.tag_pred.mispredict_rate()
    );
    println!(
        "  width: {} preds aggr {:.4} cons {:.4}",
        r.width_pred.predictions,
        r.width_pred.aggressive_rate(),
        r.width_pred.conservative_rate()
    );
    println!("  speedup {:.3}", r.speedup_over(&base));
}
