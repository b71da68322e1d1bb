//! The paper's evaluation as one job list and one results document.
//!
//! [`jobs`] lists every simulation the evaluation needs: the 192 default
//! sweep cells, the extended suite, and the ReDSOC ablations on the BIG
//! core as scheduler-variant cells. `redsoc report` runs that list under
//! the supervised runner and writes [`results_json`]: the sweep document,
//! whose simulator rows also carry the integer counters the figures read.
//! [`render`] prints every figure, table and ablation as a pure function
//! of a parsed document (Figs. 1–3 and Tables I–II come from the library
//! models they describe); `EXPERIMENTS.md` quotes each section in a
//! generated block.

use redsoc_core::config::SchedulerConfig;
use redsoc_core::stats::{OpCategory, SimReport};
use redsoc_workloads::Benchmark;

use crate::cores;
use crate::grid::{sweep_json, Grid, Job, JobResult, Mode, Variant};
use crate::json::Json;

mod render;

pub use render::{render, Section};

/// Fig. 10's categories, in figure order.
const OP_MIX: [OpCategory; 6] = [
    OpCategory::MemHighLatency,
    OpCategory::MemLowLatency,
    OpCategory::Simd,
    OpCategory::OtherMulti,
    OpCategory::AluLowSlack,
    OpCategory::AluHighSlack,
];
/// Width-predictor sizes of the §II-B ablation (the paper uses 4K).
const WIDTH_ENTRIES: [usize; 4] = [256, 1024, 4096, 16384];

/// An ablation's ReDSOC variant, or the default variant when it leaves
/// the paper's operating point unchanged — so each ablation's default
/// point reuses the Fig. 13 cell instead of simulating it twice.
fn variant(ci_bits: Option<u8>, threshold: Option<u64>, width_entries: Option<usize>) -> Variant {
    let v = Variant {
        ci_bits,
        threshold,
        width_entries,
        pvt: false,
    };
    let redsoc = SchedulerConfig::redsoc();
    if v.apply(redsoc.clone()) == redsoc {
        Variant::default()
    } else {
        v
    }
}

/// §V precision ablation: `bits` of CI precision at threshold 2^bits − 1.
fn precision(bits: u8) -> Variant {
    variant(Some(bits), Some((1 << bits) - 1), None)
}

/// §IV-C threshold ablation at the default precision.
fn threshold(t: u64) -> Variant {
    variant(None, Some(t), None)
}

/// §II-B width-predictor size ablation.
fn width(entries: usize) -> Variant {
    variant(None, None, Some(entries))
}

/// §V PVT guard band on top of data slack.
fn pvt() -> Variant {
    Variant {
        pvt: true,
        ..Variant::default()
    }
}

/// Every non-default BIG ReDSOC variant the ablations read, in report
/// order.
fn ablation_variants() -> Vec<Variant> {
    (1..=8)
        .map(precision)
        .chain((0..=7).map(threshold))
        .chain(WIDTH_ENTRIES.map(width))
        .chain([pvt()])
        .filter(|v| !v.is_default())
        .collect()
}

/// The report's job list: all sixteen workloads × three cores × four
/// modes (the `redsoc bench` grid), the extended suite under baseline
/// and ReDSOC on every core, and each ablation variant of ReDSOC on the
/// BIG core over the paper's fifteen benchmarks.
#[must_use]
pub fn jobs() -> Vec<Job> {
    let mut jobs = Job::grid(&Benchmark::all(), &cores(), &Mode::all());
    let extended_modes = [Mode::Baseline, Mode::Redsoc];
    jobs.extend(Job::grid(&Benchmark::extended(), &cores(), &extended_modes));
    let big = Job::grid(&Benchmark::paper_set(), &cores()[..1], &[Mode::Redsoc]);
    for variant in ablation_variants() {
        jobs.extend(big.iter().map(|job| Job {
            variant,
            ..job.clone()
        }));
    }
    jobs
}

/// The integer counters one simulator cell contributes to the figures:
/// op-mix counts (Fig. 10), transparent-sequence sums (Fig. 11), tag- and
/// width-predictor outcomes (Fig. 12, §II-B) and FU-stall cycles
/// (Fig. 14).
fn counters(rep: &SimReport) -> Json {
    let n = |v: u64| Json::num(v as f64);
    let lengths = rep.chains.histogram();
    let chain_ops: u64 = lengths.iter().map(|(l, c)| u64::from(*l) * c).sum();
    let chain_ops_sq: u64 = lengths.iter().map(|(l, c)| u64::from(*l).pow(2) * c).sum();
    let mix = OP_MIX
        .iter()
        .chain([&OpCategory::Control])
        .map(|c| (c.label(), n(rep.op_mix.count(*c))))
        .collect();
    Json::obj(vec![
        ("op_mix", Json::obj(mix)),
        ("chain_sequences", n(rep.chains.sequences())),
        ("chain_ops", n(chain_ops)),
        ("chain_ops_sq", n(chain_ops_sq)),
        ("tag_predictions", n(rep.tag_pred.predictions)),
        ("tag_mispredictions", n(rep.tag_pred.mispredictions)),
        ("width_predictions", n(rep.width_pred.predictions)),
        ("width_aggressive", n(rep.width_pred.aggressive)),
        ("width_conservative", n(rep.width_pred.conservative)),
        ("fu_stall_cycles", n(rep.fu_stall_cycles)),
    ])
}

/// The results document: [`sweep_json`] of `grid`, with a `counters`
/// object on every simulator row that ran in this process. Only the
/// report's rows carry counters; `redsoc bench` rows, journal lines and
/// worker frames do not.
#[must_use]
pub fn results_json(grid: &Grid, trace_len: u64) -> Json {
    let mut doc = sweep_json(grid, trace_len);
    if let Json::Obj(top) = &mut doc {
        if let Some(Json::Arr(rows)) = top.get_mut("jobs") {
            // `sweep_json` emits one row per cell, in `Grid::cells` order.
            for (row, cell) in rows.iter_mut().zip(grid.cells()) {
                let report = cell.result.as_ref().and_then(JobResult::report);
                if let (Json::Obj(fields), Some(rep)) = (row, report) {
                    fields.insert("counters".to_string(), counters(rep));
                }
            }
        }
    }
    doc
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::grid::canonicalize_sweep;
    use crate::runner::{run_jobs, Isolation};
    use crate::supervisor::SupervisorConfig;
    use crate::TraceCache;

    #[test]
    fn job_list_covers_the_grid_the_extended_suite_and_each_ablation_once() {
        let jobs = jobs();
        let variants = ablation_variants();
        assert_eq!(
            variants.len(),
            7 + 7 + 3 + 1,
            "each ablation minus its default point"
        );
        assert_eq!(jobs.len(), 192 + 4 * 3 * 2 + variants.len() * 15);
        let mut keys: Vec<String> = jobs.iter().map(Job::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len(), "no cell is simulated twice");
        assert_eq!(precision(3), Variant::default());
        assert_eq!(threshold(7), Variant::default());
        assert_eq!(width(4096), Variant::default());
    }

    #[test]
    fn variant_job_lists_are_identical_at_one_and_two_threads() {
        let light = [Benchmark::Crc, Benchmark::Bitcnt];
        let jobs: Vec<Job> = jobs()
            .into_iter()
            .filter(|j| light.contains(&j.bench) && j.core_name == "BIG")
            .collect();
        assert!(jobs.iter().any(|j| !j.variant.is_default()));
        let doc = |threads| {
            let cache = TraceCache::new(2_000);
            let grid = run_jobs(
                &cache,
                &jobs,
                threads,
                &SupervisorConfig::default(),
                None,
                &Isolation::Thread,
            );
            assert!(grid.fully_ok());
            canonicalize_sweep(&results_json(&grid, 2_000)).pretty()
        };
        let serial = doc(1);
        assert_eq!(serial, doc(2));
        assert!(serial.contains("\"variant\": \"pvt\"") && serial.contains("\"counters\""));
    }
}
