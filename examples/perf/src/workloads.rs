//! The four benchmark workloads.
//!
//! Each workload generates its inputs once in [`Workload::setup`] (timed
//! as `setup_s`) and then runs closed-loop rounds over them: the next
//! simulation, case or cell starts when the previous one returns. A
//! traced round runs the same path with spans and counters on, then
//! analysis work the untraced path does not do (input regeneration,
//! instrumented re-runs, memory replay) under spans marked extra.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use redsoc_bench::journal::Journal;
use redsoc_bench::json::Json;
use redsoc_bench::pool::WorkerPoolConfig;
use redsoc_bench::runner::{
    canonicalize_sweep, run_grid_isolated, sweep_json, Grid, Isolation, Mode,
};
use redsoc_bench::supervisor::{CellSummary, SupervisorConfig};
use redsoc_bench::{cores, redsoc_for, TraceCache};
use redsoc_core::config::{CoreConfig, SchedulerConfig};
use redsoc_core::sched::ts::TsScheduler;
use redsoc_core::sched::{build_scheduler, Scheduler};
use redsoc_core::stats::{SimReport, StallCause};
use redsoc_isa::interp::Interpreter;
use redsoc_isa::program::Program;
use redsoc_isa::trace::DynOp;
use redsoc_mem::{ContendedConfig, MemModelConfig};
use redsoc_prng::SmallRng;
use redsoc_verify::gen::{gen_case, GenKnobs};
use redsoc_verify::oracle::{check_program, CaseOk, OracleConfig, SchedKind};
use redsoc_verify::{case_core, case_seed, run_fuzz, FuzzConfig};
use redsoc_workloads::spec::{spec_trace, SpecProfile};
use redsoc_workloads::{BenchClass, Benchmark};

use crate::trace::{simulate, tracegen, Tracer};

/// Trace length of the sweep grid: the length `BENCH_sweep.json` was
/// recorded at, so every cell has a reference row.
pub const SWEEP_LEN: u64 = 2000;

/// What one round did.
#[derive(Debug, Default)]
pub struct Round {
    /// Host time of the measured path (analysis spans excluded).
    pub wall: Duration,
    /// Host time of each job: a simulation, a fuzz case or a grid cell.
    pub jobs_ms: Vec<f64>,
    /// Simulated instructions committed.
    pub committed: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Operations whose results were checked.
    pub attempted: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Simulated results, compared across rounds and against the
    /// traced round.
    pub results: Vec<u64>,
}

impl Round {
    fn job(&mut self, start: Instant) {
        self.jobs_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// Check one simulation report: committed every op fed, and the
    /// stall partition sums to the cycle count. One failure per run.
    fn check_report(&mut self, what: &str, fed: usize, r: Result<SimReport, String>) {
        self.attempted += 1;
        match r {
            Ok(rep) => {
                if rep.committed != fed as u64 || rep.stalls.total() != rep.cycles {
                    self.failures.push(format!(
                        "{what}: committed {} of {fed} ops; stall partition {} over {} cycles",
                        rep.committed,
                        rep.stalls.total(),
                        rep.cycles
                    ));
                }
                self.committed += rep.committed;
                self.cycles += rep.cycles;
                self.results.push(rep.cycles);
                self.results.push(rep.committed);
                self.results
                    .extend(StallCause::all().map(|c| rep.stalls.count(c)));
            }
            Err(e) => self.failures.push(format!("{what}: {e}")),
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Generate the inputs from the seed.
    fn setup(&mut self) -> Result<(), String>;
    /// One closed-loop round over the inputs.
    fn round(&mut self, tr: &mut Tracer) -> Round;
}

/// Input sizes: the measured default and the toy `--quick` sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub ops: usize,
    pub fuzz_cases: u64,
    pub sweep_benches: usize,
}

impl Sizes {
    pub fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                ops: 5_000,
                fuzz_cases: 40,
                sweep_benches: 2,
            }
        } else {
            Sizes {
                ops: 100_000,
                fuzz_cases: 500,
                sweep_benches: SWEEP_BENCHES.len(),
            }
        }
    }
}

pub const NAMES: [&str; 4] = ["kernel_chains", "spec_memory", "fuzz_oracle", "sweep_grid"];

/// Build the workload called `name`.
pub fn make(name: &str, seed: u64, sizes: Sizes) -> Option<Box<dyn Workload>> {
    Some(match name {
        "kernel_chains" => Box::new(Kernels {
            ops: sizes.ops,
            traces: Vec::new(),
        }),
        "spec_memory" => Box::new(SpecMemory {
            ops: sizes.ops,
            seed,
            traces: Vec::new(),
        }),
        "fuzz_oracle" => Box::new(Fuzz {
            cfg: FuzzConfig::new(seed, sizes.fuzz_cases),
            cases: Vec::new(),
            checked_against_run_fuzz: false,
        }),
        "sweep_grid" => Box::new(Sweep {
            benches: SWEEP_BENCHES[..sizes.sweep_benches].to_vec(),
            reference: Json::Null,
            journal: crate::out_dir().join("sweep.jnl"),
        }),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// kernel_chains

/// MiBench and ML kernels whose working sets fit in L1: issue-bound.
const KERNELS: [Benchmark; 8] = [
    Benchmark::Crc,
    Benchmark::Bitcnt,
    Benchmark::Gsm,
    Benchmark::Corners,
    Benchmark::Strsearch,
    Benchmark::Act,
    Benchmark::Conv,
    Benchmark::Pool0,
];

/// Kernel traces cut to exactly `ops` each, so every kernel counts
/// equally, on the BIG core under baseline, class-tuned ReDSOC and MOS.
struct Kernels {
    ops: usize,
    traces: Vec<(Benchmark, Vec<DynOp>)>,
}

fn kernel_traces(tr: &mut Tracer, ops: usize) -> Vec<(Benchmark, Vec<DynOp>)> {
    KERNELS
        .iter()
        .map(|&b| {
            let t = tracegen(tr, b.name(), || {
                // Kernels round up to whole outer iterations; CONV and
                // POOL0 generate several times what is used.
                let full = b.trace(ops as u64);
                let generated = full.len();
                (full.into_iter().take(ops).collect::<Vec<_>>(), generated)
            });
            (b, t)
        })
        .collect()
}

impl Workload for Kernels {
    fn setup(&mut self) -> Result<(), String> {
        self.traces = kernel_traces(&mut Tracer::off(), self.ops);
        Ok(())
    }

    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        let start = Instant::now();
        if tr.enabled() && kernel_traces(tr, self.ops) != self.traces {
            round
                .failures
                .push("kernel traces differ between generations".into());
        }
        let big = CoreConfig::big();
        for (bench, trace) in &self.traces {
            for sched in [
                SchedulerConfig::baseline(),
                redsoc_for(bench.class()),
                SchedulerConfig::mos(),
            ] {
                let what = format!("{}/BIG/{:?}", bench.name(), sched.mode);
                tr.open("job", &what, false);
                let job = Instant::now();
                let policy = build_scheduler(&sched);
                let r = simulate(tr, trace, big.clone().with_sched(sched), policy);
                round.job(job);
                tr.close();
                round.check_report(&what, trace.len(), r);
            }
        }
        round.wall = start.elapsed() - tr.extra_time();
        round
    }
}

// ---------------------------------------------------------------------------
// spec_memory

/// The five SPEC-like profiles on the SMALL and MEDIUM cores under the
/// contended memory model: footprints exceed L1, most cycles stall.
struct SpecMemory {
    ops: usize,
    seed: u64,
    traces: Vec<(&'static str, Vec<DynOp>)>,
}

fn spec_traces(tr: &mut Tracer, ops: usize, seed: u64) -> Vec<(&'static str, Vec<DynOp>)> {
    SpecProfile::all()
        .iter()
        .zip(0u64..)
        .map(|(p, i)| {
            let profile_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            let t = tracegen(tr, p.name, || {
                let t: Vec<DynOp> = spec_trace(p, ops as u64, profile_seed).take(ops).collect();
                let n = t.len();
                (t, n)
            });
            (p.name, t)
        })
        .collect()
}

impl Workload for SpecMemory {
    fn setup(&mut self) -> Result<(), String> {
        self.traces = spec_traces(&mut Tracer::off(), self.ops, self.seed);
        Ok(())
    }

    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        let start = Instant::now();
        if tr.enabled() && spec_traces(tr, self.ops, self.seed) != self.traces {
            round
                .failures
                .push("SPEC traces differ between generations".into());
        }
        let contended = MemModelConfig::Contended(ContendedConfig::default());
        for (name, trace) in &self.traces {
            for core in [CoreConfig::small(), CoreConfig::medium()] {
                let core = core.with_mem_model(contended);
                for sched in [SchedulerConfig::baseline(), redsoc_for(BenchClass::Spec)] {
                    let what = format!("{name}/{}/{:?}", core.name, sched.mode);
                    tr.open("job", &what, false);
                    let job = Instant::now();
                    let policy = build_scheduler(&sched);
                    let r = simulate(tr, trace, core.clone().with_sched(sched), policy);
                    round.job(job);
                    tr.close();
                    round.check_report(&what, trace.len(), r);
                }
            }
        }
        round.wall = start.elapsed() - tr.extra_time();
        round
    }
}

// ---------------------------------------------------------------------------
// fuzz_oracle

/// One generated fuzz case: its index, the lowered program and the core
/// (with memory model) the campaign runs it on.
struct Case {
    index: u64,
    program: Program,
    core: CoreConfig,
}

/// The case-generation steps of `run_fuzz`, in the same order, so the
/// campaign checks the same programs on the same cores.
pub fn gen_fuzz_case(cfg: &FuzzConfig, case: u64) -> Result<(Program, CoreConfig), String> {
    let mut rng = SmallRng::seed_from_u64(case_seed(cfg.seed, case));
    let knobs = GenKnobs::sampled(&mut rng, cfg.max_instrs);
    let program = gen_case(&mut rng, &knobs)
        .build()
        .map_err(|e| format!("case {case}: program failed to lower: {e}"))?;
    let core = case_core(case).with_mem_model(cfg.mem_models.model_for(case));
    Ok((program, core))
}

fn with_registry(config: SchedulerConfig) -> (SchedulerConfig, Box<dyn Scheduler>) {
    let policy = build_scheduler(&config);
    (config, policy)
}

/// The scheduler each oracle policy runs (TS is the baseline mechanism
/// under a rescaled clock).
fn oracle_sched(kind: SchedKind) -> (SchedulerConfig, Box<dyn Scheduler>) {
    match kind {
        SchedKind::Ts => (SchedulerConfig::baseline(), Box::new(TsScheduler)),
        SchedKind::Baseline => with_registry(SchedulerConfig::baseline()),
        SchedKind::Redsoc => with_registry(SchedulerConfig::redsoc()),
        SchedKind::Mos => with_registry(SchedulerConfig::mos()),
    }
}

/// A `run_fuzz` campaign: tiny generated programs checked by the
/// lockstep oracle under every scheduler and both memory models.
struct Fuzz {
    cfg: FuzzConfig,
    cases: Vec<Case>,
    checked_against_run_fuzz: bool,
}

impl Fuzz {
    /// Re-run each case's pipelines with counting hooks and check they
    /// reproduce the oracle's cycle counts.
    fn analyse(&self, tr: &mut Tracer, case: &Case, ok: &CaseOk, round: &mut Round) {
        let trace = tracegen(tr, "interp", || {
            let t: Vec<DynOp> = Interpreter::new(&case.program)
                .run(4096)
                .map(|t| t.into_iter().collect())
                .unwrap_or_default();
            let n = t.len();
            (t, n)
        });
        for &(kind, cycles) in &ok.cycles {
            let (config, sched) = oracle_sched(kind);
            let r = simulate(tr, &trace, case.core.clone().with_sched(config), sched);
            if r.as_ref().map(|r| r.cycles) != Ok(cycles) {
                round.failures.push(format!(
                    "case {} {kind}: instrumented run {:?} != oracle cycles {cycles}",
                    case.index,
                    r.map(|r| r.cycles)
                ));
            }
        }
    }
}

impl Workload for Fuzz {
    fn setup(&mut self) -> Result<(), String> {
        self.cases = (0..self.cfg.cases)
            .map(|index| {
                gen_fuzz_case(&self.cfg, index).map(|(program, core)| Case {
                    index,
                    program,
                    core,
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        let start = Instant::now();
        let scheds = self.cfg.scheds.len() as u64;
        let mut dyn_ops = 0;
        for case in &self.cases {
            let what = format!("case {}", case.index);
            tr.open("check_program", &what, false);
            let job = Instant::now();
            let oracle = OracleConfig {
                scheds: self.cfg.scheds.clone(),
                ..OracleConfig::new(case.core.clone())
            };
            let r = check_program(&case.program, &oracle);
            round.job(job);
            tr.close();
            round.attempted += 1;
            match r {
                Ok(ok) => {
                    dyn_ops += ok.dyn_ops;
                    round.committed += ok.dyn_ops * scheds;
                    round.results.push(ok.dyn_ops);
                    for &(_, c) in &ok.cycles {
                        round.cycles += c;
                        round.results.push(c);
                    }
                    if tr.enabled() {
                        tr.open("analysis", &what, true);
                        self.analyse(tr, case, &ok, &mut round);
                        tr.close();
                    }
                }
                Err(div) => round.failures.push(format!("{what}: {div}")),
            }
        }
        round.wall = start.elapsed() - tr.extra_time();

        // Untimed, once per run: the library campaign over the same seed
        // must check the same cases with the same outcome.
        if !self.checked_against_run_fuzz {
            self.checked_against_run_fuzz = true;
            match run_fuzz(&self.cfg, |_| {}) {
                Ok(s) if s.cases_run == self.cfg.cases && s.dyn_ops == dyn_ops => {
                    round.failures.extend(
                        s.failures
                            .iter()
                            .map(|f| format!("run_fuzz case {}: {}", f.case, f.divergence)),
                    );
                }
                Ok(s) => round.failures.push(format!(
                    "run_fuzz ran {} cases / {} dyn ops; the benchmark ran {} / {dyn_ops}",
                    s.cases_run, s.dyn_ops, self.cfg.cases
                )),
                Err(e) => round.failures.push(format!("run_fuzz: {e}")),
            }
        }
        round
    }
}

// ---------------------------------------------------------------------------
// sweep_grid

/// The twelve light benchmarks: every paper benchmark except the ML
/// kernels whose outer iteration alone is hundreds of thousands of ops.
pub const SWEEP_BENCHES: [Benchmark; 12] = [
    Benchmark::Crc,
    Benchmark::Bitcnt,
    Benchmark::Xalanc,
    Benchmark::Bzip2,
    Benchmark::Omnetpp,
    Benchmark::Gromacs,
    Benchmark::Soplex,
    Benchmark::Corners,
    Benchmark::Strsearch,
    Benchmark::Gsm,
    Benchmark::Softmax,
    Benchmark::MlMac,
];

/// Scheduler configuration of a simulator-mode grid cell (`None` for the
/// analytical TS mode), as the sweep runner chooses it.
pub fn mode_sched(mode: Mode, bench: Benchmark) -> Option<SchedulerConfig> {
    match mode {
        Mode::Baseline => Some(SchedulerConfig::baseline()),
        Mode::Redsoc => Some(redsoc_for(bench.class())),
        Mode::Mos => Some(SchedulerConfig::mos()),
        Mode::Ts => None,
    }
}

/// Run a supervised grid with process isolation: 2 runner threads, each
/// owning one worker process (this binary in worker mode), and a fresh
/// journal.
pub fn process_grid(benches: &[Benchmark], journal: &Journal) -> Result<Grid, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    Ok(run_grid_isolated(
        &TraceCache::new(SWEEP_LEN),
        benches,
        &cores(),
        &Mode::all(),
        2,
        &SupervisorConfig::default(),
        Some(journal),
        &Isolation::Process(WorkerPoolConfig::new(exe)),
    ))
}

/// Index the job rows of a canonicalised sweep document by
/// `benchmark/CORE/mode`.
fn rows_by_key(doc: &Json) -> HashMap<String, &Json> {
    let field = |row: &Json, k: &str| row.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    doc.get("jobs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|row| {
            let key = format!(
                "{}/{}/{}",
                field(row, "benchmark"),
                field(row, "core"),
                field(row, "mode")
            );
            (key, row)
        })
        .collect()
}

/// Compare every job row of the canonicalised `fresh` sweep with the row
/// of the same cell in the canonicalised `reference`: the fresh cell must
/// be `ok` with identical cycles, committed count and stalls. Returns
/// the rows compared and one message per mismatching row.
pub fn match_cells(reference: &Json, fresh: &Json) -> (u64, Vec<String>) {
    let expected = rows_by_key(reference);
    let mut failures = Vec::new();
    let rows = rows_by_key(fresh);
    let mut keys: Vec<&String> = rows.keys().collect();
    keys.sort();
    for key in &keys {
        let row = rows[*key];
        if row.get("status").and_then(Json::as_str) != Some("ok") {
            failures.push(format!("{key}: status {:?}", row.get("status")));
            continue;
        }
        let Some(want) = expected.get(*key) else {
            failures.push(format!("{key}: no reference row"));
            continue;
        };
        let differ: Vec<String> = ["cycles", "committed", "stalls"]
            .into_iter()
            .filter(|f| row.get(f) != want.get(f))
            .map(|f| format!("{f} {:?} != reference {:?}", row.get(f), want.get(f)))
            .collect();
        if !differ.is_empty() {
            failures.push(format!("{key}: {}", differ.join("; ")));
        }
    }
    (keys.len() as u64, failures)
}

/// The reference sweep, canonicalised.
pub fn load_reference() -> Result<Json, String> {
    let path = "BENCH_sweep.json";
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(canonicalize_sweep(&doc))
}

/// `run_grid_isolated` over the light benchmarks × 3 cores × 4 modes at
/// the reference trace length, checked cell by cell against
/// `BENCH_sweep.json`. Cells take milliseconds, so the harness dominates:
/// supervisor, journal, JSON and worker IPC.
struct Sweep {
    benches: Vec<Benchmark>,
    /// `BENCH_sweep.json`, canonicalised.
    reference: Json,
    journal: PathBuf,
}

impl Sweep {
    /// Re-run each simulator cell in-process with counting hooks and
    /// check it reproduces the worker's cycles and committed count.
    fn analyse(&self, tr: &mut Tracer, grid: &Grid, round: &mut Round) {
        for &bench in &self.benches {
            let trace = tracegen(tr, bench.name(), || {
                let t = bench.trace(SWEEP_LEN);
                let n = t.len();
                (t, n)
            });
            for (core_name, core) in cores() {
                for mode in Mode::all() {
                    let Some(sched) = mode_sched(mode, bench) else {
                        continue;
                    };
                    let want = grid
                        .cell(bench, core_name, mode)
                        .and_then(|c| c.summary.as_ref())
                        .map(|s| (s.cycles(), s.committed()));
                    let policy = build_scheduler(&sched);
                    let got = simulate(tr, &trace, core.clone().with_sched(sched), policy)
                        .map(|r| (r.cycles, r.committed));
                    if got.as_ref().ok() != want.as_ref() {
                        round.failures.push(format!(
                            "{}/{core_name}/{}: in-process {got:?} != worker {want:?}",
                            bench.name(),
                            mode.label()
                        ));
                    }
                }
            }
        }
    }
}

impl Workload for Sweep {
    fn setup(&mut self) -> Result<(), String> {
        self.reference = load_reference()?;
        let rows = rows_by_key(&self.reference);
        for &bench in &self.benches {
            for (core, _) in cores() {
                for mode in Mode::all() {
                    let key = format!("{}/{core}/{}", bench.name(), mode.label());
                    if !rows.contains_key(&key) {
                        return Err(format!("BENCH_sweep.json has no row for {key}"));
                    }
                }
            }
        }
        Ok(())
    }

    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        let journal = match Journal::create(&self.journal) {
            Ok(j) => j,
            Err(e) => {
                round.attempted = 1;
                round.failures.push(format!("cannot create journal: {e}"));
                return round;
            }
        };
        let start = Instant::now();
        tr.open("grid", "", false);
        let grid = process_grid(&self.benches, &journal);
        tr.close();
        round.wall = start.elapsed();
        let grid = match grid {
            Ok(g) => g,
            Err(e) => {
                round.attempted = 1;
                round.failures.push(e);
                return round;
            }
        };
        for cell in grid.cells() {
            round.jobs_ms.push(cell.wall.as_secs_f64() * 1e3);
            if let Some(s) = &cell.summary {
                round.committed += s.committed();
                round.cycles += s.cycles();
                round.results.extend([s.cycles(), s.committed()]);
                if let CellSummary::Sim { stalls, .. } = s {
                    round.results.extend(stalls);
                }
            }
        }
        let fresh = canonicalize_sweep(&sweep_json(&grid, SWEEP_LEN));
        let (n, failures) = match_cells(&self.reference, &fresh);
        round.attempted += n;
        round.failures.extend(failures);
        if tr.enabled() {
            tr.open("analysis", "", true);
            self.analyse(tr, &grid, &mut round);
            tr.close();
        }
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(bench: &str, mode: &str, status: &str, cycles: f64) -> Json {
        Json::obj(vec![
            ("benchmark", Json::str(bench)),
            ("core", Json::str("BIG")),
            ("mode", Json::str(mode)),
            ("status", Json::str(status)),
            ("cycles", Json::num(cycles)),
            ("committed", Json::num(2001.0)),
            ("stalls", Json::obj(vec![("busy", Json::num(cycles))])),
        ])
    }

    fn doc(rows: Vec<Json>) -> Json {
        Json::obj(vec![("jobs", Json::Arr(rows))])
    }

    #[test]
    fn matcher_accepts_identical_cells() {
        let reference = doc(vec![
            row("crc", "baseline", "ok", 10.0),
            row("crc", "mos", "ok", 9.0),
        ]);
        let fresh = doc(vec![row("crc", "mos", "ok", 9.0)]);
        assert_eq!(match_cells(&reference, &fresh), (1, vec![]));
    }

    #[test]
    fn matcher_flags_changed_failed_and_unknown_cells() {
        let reference = doc(vec![
            row("crc", "baseline", "ok", 10.0),
            row("crc", "mos", "ok", 9.0),
        ]);
        let fresh = doc(vec![
            row("crc", "baseline", "ok", 11.0),
            row("crc", "mos", "timeout", 9.0),
            row("gsm", "mos", "ok", 9.0),
        ]);
        let (n, failures) = match_cells(&reference, &fresh);
        assert_eq!(n, 3);
        assert_eq!(
            failures.len(),
            3,
            "one message per failing cell: {failures:?}"
        );
        assert!(failures
            .iter()
            .any(|f| f.starts_with("crc/BIG/baseline: cycles") && f.contains("; stalls")));
        assert!(failures
            .iter()
            .any(|f| f.starts_with("crc/BIG/mos: status")));
        assert!(failures
            .iter()
            .any(|f| f == "gsm/BIG/mos: no reference row"));
    }

    #[test]
    fn committed_reference_covers_every_sweep_cell() {
        let reference = canonicalize_sweep(
            &Json::parse(include_str!("../../../BENCH_sweep.json")).expect("reference parses"),
        );
        let keys = rows_by_key(&reference);
        for bench in SWEEP_BENCHES {
            for (core, _) in cores() {
                for mode in Mode::all() {
                    let key = format!("{}/{core}/{}", bench.name(), mode.label());
                    assert!(keys.contains_key(&key), "missing {key}");
                }
            }
        }
    }
}
