//! Layer probes: fixed-input measurements of the layers that not every
//! workload calls — simulator construction, the fuzz generator and
//! oracle, and the sweep harness. Every traced run takes them, so each
//! per-layer metric is measured in every workload's traced output with
//! the same definition.

use std::io::Cursor;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use redsoc_bench::journal::{Journal, JournalRecord};
use redsoc_bench::json::Json;
use redsoc_bench::runner::{canonicalize_sweep, run_grid_isolated, sweep_json, Isolation, Mode};
use redsoc_bench::supervisor::SupervisorConfig;
use redsoc_bench::worker::{read_frame, write_frame, JobSpec};
use redsoc_bench::{cores, TraceCache};
use redsoc_core::config::CoreConfig;
use redsoc_core::pipeline::{simulate, Simulator};
use redsoc_core::sched::ts::run_ts;
use redsoc_verify::oracle::{check_program, OracleConfig};
use redsoc_verify::FuzzConfig;
use redsoc_workloads::Benchmark;

use crate::stats::median;
use crate::workloads::{gen_fuzz_case, match_cells, mode_sched, process_grid, SWEEP_LEN};

/// The probes' metrics plus the checks they made.
pub struct Probes {
    pub metrics: Vec<(String, &'static str, f64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Median host time of `reps` calls of `f`, in `unit_ns` units.
fn timed<R>(reps: usize, unit_ns: f64, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as f64 / unit_ns
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// Take every probe. `cases` fuzz cases of the campaign for `seed`
/// exercise the verify layer; a grid of two light benchmarks exercises
/// the harness.
pub fn run(seed: u64, cases: u64, reference: &Json) -> Probes {
    let mut p = Probes {
        metrics: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    for (name, core) in [
        ("core.pipeline.new_us_big", CoreConfig::big()),
        ("core.pipeline.new_us_small", CoreConfig::small()),
    ] {
        let us = timed(200, US, || Simulator::new(core.clone()).map(drop));
        p.metrics.push((name.into(), "us", us));
    }
    verify_layer(&mut p, seed, cases);
    if let Err(e) = bench_layer(&mut p, reference) {
        p.failures.push(format!("harness probe: {e}"));
    }
    p
}

fn verify_layer(p: &mut Probes, seed: u64, cases: u64) {
    let cfg = FuzzConfig::new(seed, cases);
    let (mut gen_us, mut oracle_us, mut dyn_ops) = (Vec::new(), Vec::new(), 0u64);
    for case in 0..cases {
        p.attempted += 1;
        let start = Instant::now();
        let generated = gen_fuzz_case(&cfg, case);
        gen_us.push(start.elapsed().as_nanos() as f64 / US);
        let (program, core) = match generated {
            Ok(g) => g,
            Err(e) => {
                p.failures.push(e);
                continue;
            }
        };
        let start = Instant::now();
        let checked = check_program(&program, &OracleConfig::new(core));
        oracle_us.push(start.elapsed().as_nanos() as f64 / US);
        match checked {
            Ok(ok) => dyn_ops += ok.dyn_ops,
            Err(div) => p.failures.push(format!("verify probe case {case}: {div}")),
        }
    }
    let per_case = |xs: &[f64]| median(xs).unwrap_or(0.0);
    p.metrics.extend([
        ("verify.gen_us_per_case".into(), "us", per_case(&gen_us)),
        (
            "verify.oracle_us_per_case".into(),
            "us",
            per_case(&oracle_us),
        ),
        (
            "verify.dyn_ops_per_case".into(),
            "ops",
            dyn_ops as f64 / cases.max(1) as f64,
        ),
    ]);
}

/// Spawn one worker (this binary in worker mode) and time it from spawn
/// to its `hello` frame; then shut it down and reap it.
fn spawn_worker() -> Result<Duration, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["worker", "--heartbeat-ms", "250"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn worker: {e}"))?;
    let hello = child
        .stdout
        .as_mut()
        .ok_or("worker stdout not piped")
        .map(read_frame);
    let elapsed = start.elapsed();
    let shutdown = Json::obj(vec![("type", Json::str("shutdown"))]);
    if let Some(stdin) = child.stdin.as_mut() {
        let _ = write_frame(stdin, &shutdown);
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    match hello {
        Ok(Ok(frame)) if frame.get("type").and_then(Json::as_str) == Some("hello") => {}
        other => return Err(format!("worker did not say hello: {other:?}")),
    }
    if !status.success() {
        return Err(format!("worker exited with {status}"));
    }
    Ok(elapsed)
}

fn bench_layer(p: &mut Probes, reference: &Json) -> Result<(), String> {
    let dir = crate::out_dir();
    let benches = [Benchmark::Crc, Benchmark::Bitcnt];

    let journal = Journal::create(dir.join("probe.jnl"))
        .map_err(|e| format!("cannot create journal: {e}"))?;
    let grid = process_grid(&benches, &journal)?;
    let cells = grid.cells();
    let fresh = canonicalize_sweep(&sweep_json(&grid, SWEEP_LEN));
    let (n, failures) = match_cells(reference, &fresh);
    p.attempted += n;
    p.failures.extend(failures);

    // Cell wall time minus an in-process run of the same cell on a warm
    // trace: what the supervisor, worker IPC and journal add per cell.
    let cache = TraceCache::new(SWEEP_LEN);
    let mut overhead_ms = Vec::new();
    for cell in &cells {
        let job = &cell.job;
        let trace = cache.get(job.bench);
        let start = Instant::now();
        let direct = match mode_sched(job.mode, job.bench) {
            Some(sched) => simulate(trace.iter().copied(), job.core.clone().with_sched(sched))
                .map(|r| r.cycles),
            None => {
                let base = grid
                    .cell(job.bench, job.core_name, Mode::Baseline)
                    .and_then(|c| c.summary.as_ref())
                    .map_or(0, |s| s.cycles());
                run_ts(&trace, &job.core, base, 0.01).map(|t| t.cycles)
            }
        };
        let direct_ms = start.elapsed().as_secs_f64() * 1e3;
        if direct.ok() != cell.summary.as_ref().map(|s| s.cycles()) {
            p.failures.push(format!(
                "{}: in-process run differs from the worker",
                job.key()
            ));
        }
        overhead_ms.push(cell.wall.as_secs_f64() * 1e3 - direct_ms);
    }

    let thread_grid = run_grid_isolated(
        &TraceCache::new(SWEEP_LEN),
        &benches,
        &cores(),
        &Mode::all(),
        2,
        &SupervisorConfig::default(),
        None,
        &Isolation::Thread,
    );
    let thread_cells_per_s = thread_grid.cells().len() as f64 / thread_grid.wall.as_secs_f64();

    let records: Vec<JournalRecord> = cells
        .iter()
        .filter_map(|c| {
            Some(JournalRecord {
                key: c.job.key(),
                digest: c.job.digest(SWEEP_LEN),
                attempts: c.attempts,
                backoff_ms: 0,
                wall_seconds: c.wall.as_secs_f64(),
                summary: c.summary.clone()?,
            })
        })
        .collect();
    let append_journal = Journal::create(dir.join("append.jnl"))
        .map_err(|e| format!("cannot create journal: {e}"))?;
    let mut append_us = Vec::new();
    for rec in &records {
        let start = Instant::now();
        append_journal
            .append(rec)
            .map_err(|e| format!("journal append: {e}"))?;
        append_us.push(start.elapsed().as_nanos() as f64 / US);
    }

    let specs: Vec<Json> = cells
        .iter()
        .map(|c| {
            JobSpec {
                bench: c.job.bench.name().to_string(),
                core: c.job.core_name.to_string(),
                mem_model: c.job.core.mem_model.label().to_string(),
                mode: c.job.mode.label().to_string(),
                trace_len: SWEEP_LEN,
                digest: c.job.digest(SWEEP_LEN),
                attempt: 1,
                budget: None,
                ts_base: None,
                fault: None,
            }
            .to_json()
        })
        .collect();
    let frame_us = timed(20, US * specs.len() as f64, || {
        let mut buf = Vec::new();
        for spec in &specs {
            let _ = write_frame(&mut buf, spec);
        }
        let mut cur = Cursor::new(buf);
        specs
            .iter()
            .filter(|_| read_frame(&mut cur).is_ok())
            .count()
    });

    let reference_text = std::fs::read_to_string("BENCH_sweep.json")
        .map_err(|e| format!("cannot read BENCH_sweep.json: {e}"))?;
    let parsed = Json::parse(&reference_text)?;
    let spawn_ms: Vec<f64> = (0..3)
        .map(|_| spawn_worker().map(|d| d.as_secs_f64() * 1e3))
        .collect::<Result<_, _>>()?;
    let attempts: u32 = cells.iter().map(|c| c.attempts).sum();

    p.metrics.extend([
        (
            "bench.worker.spawn_ms".into(),
            "ms",
            median(&spawn_ms).unwrap_or(0.0),
        ),
        ("bench.worker.frame_roundtrip_us".into(), "us", frame_us),
        (
            "bench.journal.append_us".into(),
            "us",
            median(&append_us).unwrap_or(0.0),
        ),
        (
            "bench.grid.sweep_json_ms".into(),
            "ms",
            timed(5, MS, || sweep_json(&grid, SWEEP_LEN)),
        ),
        (
            "bench.json.parse_ms".into(),
            "ms",
            timed(5, MS, || Json::parse(&reference_text)),
        ),
        (
            "bench.grid.canonicalize_ms".into(),
            "ms",
            timed(5, MS, || canonicalize_sweep(&parsed)),
        ),
        (
            "bench.runner.cell_overhead_ms".into(),
            "ms",
            median(&overhead_ms).unwrap_or(0.0),
        ),
        (
            "bench.runner.thread_cells_per_s".into(),
            "1/s",
            thread_cells_per_s,
        ),
        (
            "bench.supervisor.attempts_per_cell".into(),
            "attempts",
            f64::from(attempts) / cells.len().max(1) as f64,
        ),
    ]);
    Ok(())
}
