//! Fault-tolerant parallel experiment runner.
//!
//! A sweep is a set of independent simulation **jobs** — one per
//! (benchmark × core × scheduler mode × variant). A [`Simulator`] takes
//! owned inputs and the trace cache hands out shared `Arc<[DynOp]>`
//! traces, so jobs fan out across a scoped thread pool with no
//! synchronisation beyond an atomic work index. Results land in per-job
//! slots, so the output order (and every per-job statistic) is identical
//! to a serial run — the pool only changes wall-clock, never results.
//!
//! Every job runs under the [`supervisor`](crate::supervisor): the body
//! executes inside `catch_unwind`, failures are classified into the
//! structured [`JobError`] taxonomy, a dead worker's job retries at once
//! up to a bound, a cycle-budget watchdog
//! ([`Simulator::with_cycle_budget`]) bounds runaway jobs, and a failing
//! job degrades to one `failed`/`timeout`/`quarantined` **cell** of the
//! grid instead of aborting the sweep. Completed cells are checkpointed to an
//! append-only [`Journal`] as they finish, and a
//! resumed sweep restores them instead of re-running.
//!
//! There is one kind of cell. A [`Mode::Ts`] cell picks its shortened
//! clock from the trace and simulates the rescaled core through the same
//! attempt as every other cell; its speedup over the baseline is a
//! division [`Grid::speedup`] does when the document is written, like
//! every other speedup. No job depends on another, so a sweep runs the
//! requested jobs in one parallel wave.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use redsoc_core::config::CoreConfig;
use redsoc_core::events::RingSink;
use redsoc_core::pipeline::{SimError, Simulator};
use redsoc_core::sched::ts::{ts_config, TsScheduler};
use redsoc_core::stats::{SimReport, StallCause};
use redsoc_isa::instruction::Instr;
use redsoc_isa::opcode::AluOp;
use redsoc_isa::operand::Operand2;
use redsoc_isa::program::r;
use redsoc_isa::trace::DynOp;
use redsoc_workloads::Benchmark;

use crate::journal::{Journal, JournalRecord};
use crate::pool::{self, WorkerPoolConfig};
use crate::supervisor::{
    supervise, CellSummary, Fault, JobError, JobStatus, MemSummary, SupervisorConfig,
};
use crate::worker::JobSpec;
use crate::TraceCache;

pub use crate::grid::{
    canonicalize_sweep, sweep_json, Cell, CellFailure, Grid, Job, Mode, Variant,
};

/// Run `f` over `items` on `threads` worker threads, preserving item
/// order in the returned vector. With `threads == 1` the items run on the
/// calling thread in order — the serial reference path.
///
/// A poisoned result slot (another worker panicked while holding the
/// lock) is recovered rather than propagated: each slot is written once
/// by one worker, so the inner value is never torn, and one worker's
/// panic must degrade one item, not the whole sweep.
pub fn run_parallel<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    // Indexed result slots keep output order identical to input order no
    // matter which worker claims which item. (Mutex rather than OnceLock:
    // each slot is written exactly once, and Mutex only needs `R: Send`.)
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(items.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            // The scoped-thread join above guarantees every slot was
            // written exactly once; an empty slot is a harness bug.
            #[allow(clippy::expect_used)]
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("all slots filled")
        })
        .collect()
}

/// An endless synthetic instruction stream: the injected-hang fault. The
/// pipeline commits continuously (so the deadlock watchdog stays quiet)
/// but the trace never ends — only the cycle-budget watchdog or killing
/// the process stops the job.
fn endless_trace() -> impl Iterator<Item = DynOp> {
    (0u64..).map(|i| {
        DynOp::simple(
            i,
            ((i % 64) * 4) as u32,
            Instr::Alu {
                op: AluOp::Add,
                dst: Some(r(0)),
                src1: Some(r(0)),
                op2: Operand2::Imm(1),
                set_flags: false,
            },
        )
    })
}

/// Map a simulator run's terminal error to a [`JobError`] plus the
/// post-mortem event dump.
fn classify_sim_error(
    err: SimError,
    budget: Option<u64>,
    ring: &RingSink,
) -> (JobError, Vec<String>) {
    use redsoc_core::events::EventSink;
    match err {
        SimError::Cancelled { recent_events, .. } => (
            JobError::Timeout {
                budget: budget.unwrap_or(0),
            },
            recent_events,
        ),
        SimError::Deadlock {
            ref recent_events, ..
        } => {
            let events = recent_events.clone();
            (JobError::Sim(err), events)
        }
        other => (JobError::Sim(other), ring.recent()),
    }
}

/// Condense a finished simulator report into the journaled cell summary.
/// The memory sub-summary is present only for contention-modelling memory
/// models, so classic jobs journal and render exactly as before.
fn sim_summary(job: &Job, report: &SimReport) -> CellSummary {
    use redsoc_mem::MemModelConfig;
    let memory = (job.core.mem_model != MemModelConfig::Classic).then(|| MemSummary {
        model: job.core.mem_model.label().to_string(),
        mshr_rejects: report.mem_contention.mshr_rejects,
        mshr_merges: report.mem_contention.mshr_merges,
        port_wait_cycles: report.mem_contention.port_wait_cycles,
        dram_wait_cycles: report.mem_contention.dram_wait_cycles,
    });
    CellSummary::Sim {
        cycles: report.cycles,
        committed: report.committed,
        stalls: StallCause::all().map(|c| report.stalls.count(c)),
        memory,
    }
}

/// Where a cell's attempts execute.
///
/// `Thread` is the classic in-process path: cheap, shared trace cache,
/// but a job that aborts or exhausts memory takes the whole sweep with
/// it. `Process` ships each attempt to a pooled `redsoc worker` child
/// over the [`worker`](crate::worker) wire protocol: the parent reaps a
/// worker that stops heartbeating, enforces memory budgets, and a worker
/// death degrades to one failed cell.
#[derive(Debug, Clone, Default)]
pub enum Isolation {
    /// Run attempts on the sweep's own threads (the default; results
    /// are byte-identical to pre-isolation builds).
    #[default]
    Thread,
    /// Run attempts in supervised child processes.
    Process(WorkerPoolConfig),
}

/// One supervised attempt of any cell, shared verbatim between thread
/// isolation (called on a sweep thread) and process isolation (called
/// inside a `redsoc worker` child). After fault injection it builds the
/// cell's simulator — a TS cell first picks its shortened clock and
/// rescaled core with [`ts_config`] — attaches the cycle-budget watchdog,
/// and runs the trace (the injected hang runs an endless stream instead)
/// into a [`RingSink`] that supplies the post-mortem of a failed run.
///
/// The containable faults (`panic`/`fail`/`hang`) execute here under
/// whichever isolation is active. The destructive faults
/// (`abort`/`oom`/`freeze`) are executed by the *worker* before it calls
/// this; reaching them here means thread isolation, where they are
/// documented as fatal to the whole process.
pub(crate) fn attempt_with_faults(
    cache: &TraceCache,
    job: &Job,
    sup: &SupervisorConfig,
) -> Result<(Box<SimReport>, CellSummary), (JobError, Vec<String>)> {
    let key = job.key();
    let fault = sup.faults.get(&key);
    match fault {
        Some(Fault::Panic) => panic!("injected panic for {key}"),
        Some(Fault::Fail) => {
            return Err((
                JobError::Sim(SimError::BadConfig(format!("injected failure for {key}"))),
                Vec::new(),
            ))
        }
        Some(fault @ (Fault::Abort | Fault::Oom | Fault::Freeze)) => {
            fatal_destructive_fault(&key, fault)
        }
        _ => {}
    }
    let trace = cache.get(job.bench);
    let (sim, clock_ps) = match job.sched() {
        Some(sched) => (Simulator::new(job.core.clone().with_sched(sched)), None),
        None => {
            let (clock_ps, config) = ts_config(&trace, &job.core, 0.01);
            let sim = Simulator::with_scheduler(config, Box::new(TsScheduler));
            (sim, Some(clock_ps))
        }
    };
    let mut sim = sim.map_err(|e| (JobError::Sim(e), Vec::new()))?;
    if let Some(budget) = sup.job_timeout_cycles {
        sim = sim.with_cycle_budget(budget);
    }
    let mut ring = RingSink::new(RingSink::DEFAULT_CAP);
    let run = if fault == Some(Fault::Hang) {
        sim.run_events(endless_trace(), &mut ring)
    } else {
        sim.run_events(trace.iter().copied(), &mut ring)
    };
    let report = run.map_err(|e| classify_sim_error(e, sup.job_timeout_cycles, &ring))?;
    let summary = match clock_ps {
        Some(clock_ps) => CellSummary::Ts {
            cycles: report.cycles,
            committed: report.committed,
            clock_ps,
        },
        None => sim_summary(job, &report),
    };
    Ok((Box::new(report), summary))
}

/// A destructive injected fault reached in-process: `catch_unwind`
/// cannot contain it, so fail loudly and immediately rather than let an
/// `oom` fault eat the machine or a `freeze` wedge the sweep forever.
fn fatal_destructive_fault(key: &str, fault: Fault) -> ! {
    eprintln!(
        "fatal: injected {} fault for {key} cannot be contained by thread isolation; \
         rerun with --isolation process to degrade it to one quarantined cell",
        fault.spec()
    );
    if matches!(fault, Fault::Oom) {
        crate::worker::oom_fault_and_abort(key);
    }
    std::process::abort();
}

/// Package one cell attempt for the worker wire protocol.
fn job_spec(
    job: &Job,
    digest: &str,
    trace_len: u64,
    sup: &SupervisorConfig,
    attempt: u32,
) -> JobSpec {
    JobSpec {
        bench: job.bench.name().to_string(),
        core: job.core_name.to_string(),
        mem_model: job.core.mem_model.label().to_string(),
        mode: job.mode.label().to_string(),
        trace_len,
        digest: digest.to_string(),
        attempt,
        budget: sup.job_timeout_cycles,
        ts_base: None,
        fault: sup.faults.get(&job.key()).map(|f| f.spec().to_string()),
    }
}

/// Execute one cell under supervision: journal restore, fault injection,
/// `catch_unwind`, retries, and classification all happen here. Under
/// process isolation the attempt body runs in a pooled worker child
/// instead of this thread; everything around it — restore, retries,
/// journaling, classification — is identical.
fn exec_cell(
    cache: &TraceCache,
    job: &Job,
    sup: &SupervisorConfig,
    journal: Option<&Journal>,
    isolation: &Isolation,
) -> Cell {
    let key = job.key();
    let digest = job.digest(cache.target_len());
    if let Some(rec) = journal.and_then(|j| j.lookup(&key, &digest)) {
        return Cell {
            job: job.clone(),
            status: JobStatus::Ok,
            attempts: rec.attempts,
            restored: true,
            wall: Duration::from_secs_f64(rec.wall_seconds.max(0.0)),
            report: None,
            summary: Some(rec.summary.clone()),
            failure: None,
        };
    }

    let start = Instant::now();
    let last_events: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let supervised = supervise(sup, |attempt| {
        let outcome = match isolation {
            Isolation::Thread => attempt_with_faults(cache, job, sup)
                .map(|(report, summary)| (Some(report), summary)),
            Isolation::Process(cfg) => {
                if !job.variant.is_default() {
                    // The wire protocol names jobs by benchmark, core and
                    // mode only.
                    Err((
                        JobError::Sim(SimError::BadConfig(format!(
                            "{key}: scheduler variants run thread-isolated only"
                        ))),
                        Vec::new(),
                    ))
                } else {
                    let spec = job_spec(job, &digest, cache.target_len(), sup, attempt);
                    pool::run_job_attempt(cfg, &spec).map(|summary| (None, summary))
                }
            }
        };
        outcome.map_err(|(err, events)| {
            *last_events.lock().unwrap_or_else(PoisonError::into_inner) = events;
            err
        })
    });
    let wall = start.elapsed();

    match supervised.result {
        Ok((report, summary)) => {
            if let Some(j) = journal {
                let rec = JournalRecord {
                    key,
                    digest,
                    attempts: supervised.attempts,
                    backoff_ms: 0,
                    wall_seconds: wall.as_secs_f64(),
                    summary: summary.clone(),
                };
                if let Err(e) = j.append(&rec) {
                    eprintln!(
                        "warning: failed to checkpoint {} to {}: {e}",
                        rec.key,
                        j.path().display()
                    );
                }
            }
            Cell {
                job: job.clone(),
                status: JobStatus::Ok,
                attempts: supervised.attempts,
                restored: false,
                wall,
                // Process isolation returns only the journaled summary
                // (the parent never holds the full report); the report's
                // counters need thread isolation.
                report,
                summary: Some(summary),
                failure: None,
            }
        }
        Err(error) => Cell {
            job: job.clone(),
            status: error.terminal_status(),
            attempts: supervised.attempts,
            restored: false,
            wall,
            report: None,
            summary: None,
            failure: Some(CellFailure {
                recent_events: std::mem::take(
                    &mut *last_events.lock().unwrap_or_else(PoisonError::into_inner),
                ),
                error,
            }),
        },
    }
}

/// Run a sweep over `benches` × `cores` × `modes` on `threads` workers
/// under full supervision, on the execution tier `isolation` (see
/// [`Isolation`]; thread isolation is the default): failures degrade to
/// per-cell statuses, the cycle-budget watchdog bounds each job, and
/// completed cells checkpoint to `journal` (restored from it instead of
/// re-run when their digest matches).
#[must_use]
#[allow(clippy::too_many_arguments)] // the supervised signature + one tier knob
pub fn run_grid_isolated(
    cache: &TraceCache,
    benches: &[Benchmark],
    cores: &[(&'static str, CoreConfig)],
    modes: &[Mode],
    threads: usize,
    sup: &SupervisorConfig,
    journal: Option<&Journal>,
    isolation: &Isolation,
) -> Grid {
    let jobs = Job::grid(benches, cores, modes);
    run_jobs(cache, &jobs, threads, sup, journal, isolation)
}

/// Run an explicit job list under full supervision — the engine behind
/// [`run_grid_isolated`]. Exactly the requested jobs run, in one
/// parallel wave after trace pre-generation; a [`Mode::Ts`] cell's
/// speedup is `null` unless the list also holds its default-variant
/// baseline. Non-default [`Variant`] jobs need thread isolation.
#[must_use]
pub fn run_jobs(
    cache: &TraceCache,
    jobs: &[Job],
    threads: usize,
    sup: &SupervisorConfig,
    journal: Option<&Journal>,
    isolation: &Isolation,
) -> Grid {
    let start = Instant::now();

    // Pre-generate traces in parallel: distinct benchmarks don't contend.
    // A panicking generator is caught here and again — properly
    // classified — when the first job for that benchmark runs. Skipped
    // under process isolation: the parent never simulates, and each
    // worker keeps its own cache warm across the jobs it executes.
    if matches!(isolation, Isolation::Thread) {
        let mut benches: Vec<Benchmark> = Vec::new();
        for job in jobs {
            if !benches.contains(&job.bench) {
                benches.push(job.bench);
            }
        }
        run_parallel(&benches, threads, |b| {
            let _ = catch_unwind(AssertUnwindSafe(|| {
                let _ = cache.get(*b);
            }));
        });
    }

    let cells = run_parallel(jobs, threads, |job| {
        exec_cell(cache, job, sup, journal, isolation)
    });

    // Workers owned by scoped sweep threads shut down with their
    // threads' TLS destructors; a worker owned by *this* thread
    // (threads == 1, or a single job) is shut down here so no child
    // outlives the sweep.
    if matches!(isolation, Isolation::Process(_)) {
        pool::shutdown_local_worker();
    }

    Grid {
        cells: cells.into_iter().map(|c| (c.job.cell_key(), c)).collect(),
        wall: start.elapsed(),
        threads,
    }
}

/// Run a sweep with the default supervisor policy and no journal.
/// Failures still degrade to cells instead of panicking.
#[must_use]
pub fn run_grid(
    cache: &TraceCache,
    benches: &[Benchmark],
    cores: &[(&'static str, CoreConfig)],
    modes: &[Mode],
    threads: usize,
) -> Grid {
    run_grid_isolated(
        cache,
        benches,
        cores,
        modes,
        threads,
        &SupervisorConfig::default(),
        None,
        &Isolation::Thread,
    )
}

/// The full paper sweep: all sixteen workloads × three Table I cores ×
/// the requested modes.
#[must_use]
pub fn run_full_sweep(cache: &TraceCache, modes: &[Mode], threads: usize) -> Grid {
    run_grid(cache, &Benchmark::all(), &crate::cores(), modes, threads)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::supervisor::FaultPlan;

    #[test]
    fn run_parallel_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = run_parallel(&items, 1, |x| x * x);
        let parallel = run_parallel(&items, 8, |x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(serial[99], 99 * 99);
    }

    #[test]
    fn grid_covers_requested_cells() {
        let cache = TraceCache::new(2_000);
        let benches = [Benchmark::Bitcnt, Benchmark::Crc];
        let cores = crate::cores();
        let grid = run_grid(
            &cache,
            &benches,
            &cores[..1],
            &[Mode::Baseline, Mode::Redsoc],
            2,
        );
        assert_eq!(grid.cells().len(), 4);
        assert!(grid.fully_ok());
        let redsoc = grid.cell(Benchmark::Bitcnt, "BIG", Mode::Redsoc).unwrap();
        assert!(grid.speedup(redsoc).unwrap() > 1.0);
        assert!(grid
            .cell(Benchmark::Bitcnt, "SMALL", Mode::Redsoc)
            .is_none());
    }

    #[test]
    fn ts_only_list_runs_exactly_the_requested_cells() {
        let cache = TraceCache::new(2_000);
        let benches = [Benchmark::Bitcnt];
        let cores = crate::cores();
        let grid = run_grid(&cache, &benches, &cores[..1], &[Mode::Ts], 2);
        assert_eq!(grid.cells().len(), 1, "no baseline is added");
        let ts = grid.cell(Benchmark::Bitcnt, "BIG", Mode::Ts).unwrap();
        assert!(ts.is_ok() && ts.report.is_some());
        assert_eq!(grid.speedup(ts), None, "no baseline to compare with");
    }

    #[test]
    fn ts_speedup_is_run_ts_bit_for_bit() {
        use redsoc_core::sched::ts::run_ts;
        let cache = TraceCache::new(2_000);
        let benches = [Benchmark::Crc, Benchmark::Conv];
        let (_, big) = &crate::cores()[0];
        let grid = run_grid(
            &cache,
            &benches,
            &crate::cores()[..1],
            &[Mode::Baseline, Mode::Ts],
            2,
        );
        for bench in benches {
            let base = grid.cell(bench, "BIG", Mode::Baseline).unwrap();
            let base_cycles = base.summary.as_ref().unwrap().cycles();
            let ts = run_ts(&cache.get(bench), big, base_cycles, 0.01).unwrap();
            let cell = grid.cell(bench, "BIG", Mode::Ts).unwrap();
            assert_eq!(cell.summary.as_ref().unwrap().cycles(), ts.cycles);
            assert_eq!(
                grid.speedup(cell).unwrap().to_bits(),
                ts.speedup.to_bits(),
                "{}",
                bench.name()
            );
        }
    }

    #[test]
    fn ts_cells_run_under_the_cycle_budget() {
        let cache = TraceCache::new(2_000);
        let sup = SupervisorConfig {
            job_timeout_cycles: Some(2_048),
            ..SupervisorConfig::default()
        };
        let grid = run_grid_isolated(
            &cache,
            &[Benchmark::Crc],
            &crate::cores()[..1],
            &[Mode::Ts],
            1,
            &sup,
            None,
            &Isolation::Thread,
        );
        let ts = grid.cell(Benchmark::Crc, "BIG", Mode::Ts).unwrap();
        assert_eq!(ts.status, JobStatus::Timeout);
        assert_eq!(ts.attempts, 1, "timeouts are deterministic: no retry");
        let failure = ts.failure.as_ref().unwrap();
        assert_eq!(failure.error, JobError::Timeout { budget: 2_048 });
        assert!(
            !failure.recent_events.is_empty(),
            "the ring sink supplies the post-mortem"
        );
    }

    #[test]
    fn injected_panic_quarantines_one_cell_and_spares_the_rest() {
        let cache = TraceCache::new(2_000);
        let sup = SupervisorConfig {
            faults: FaultPlan::none().with("bitcnt/BIG/redsoc", Fault::Panic),
            ..SupervisorConfig::default()
        };
        let grid = run_grid_isolated(
            &cache,
            &[Benchmark::Bitcnt],
            &crate::cores()[..1],
            &[Mode::Baseline, Mode::Redsoc],
            2,
            &sup,
            None,
            &Isolation::Thread,
        );
        let bad = grid.cell(Benchmark::Bitcnt, "BIG", Mode::Redsoc).unwrap();
        assert_eq!(bad.status, JobStatus::Quarantined);
        assert_eq!(bad.attempts, 1, "a panic is deterministic: no retry");
        assert!(bad.failure.as_ref().unwrap().error.kind() == "panicked");
        let good = grid.cell(Benchmark::Bitcnt, "BIG", Mode::Baseline).unwrap();
        assert!(good.is_ok(), "sibling cell must survive");
        assert!(!grid.fully_ok());
    }

    #[test]
    fn injected_hang_times_out_under_the_cycle_budget() {
        let cache = TraceCache::new(2_000);
        let sup = SupervisorConfig {
            job_timeout_cycles: Some(20_000),
            faults: FaultPlan::none().with("crc/BIG/baseline", Fault::Hang),
            ..SupervisorConfig::default()
        };
        let grid = run_grid_isolated(
            &cache,
            &[Benchmark::Crc],
            &crate::cores()[..1],
            &[Mode::Baseline],
            1,
            &sup,
            None,
            &Isolation::Thread,
        );
        let cell = grid.cell(Benchmark::Crc, "BIG", Mode::Baseline).unwrap();
        assert_eq!(cell.status, JobStatus::Timeout);
        assert_eq!(cell.attempts, 1, "timeouts are deterministic: no retry");
        assert!(matches!(
            cell.failure.as_ref().unwrap().error,
            JobError::Timeout { budget: 20_000 }
        ));
    }

    #[test]
    fn failed_baseline_leaves_ts_ok_with_no_speedup() {
        let cache = TraceCache::new(2_000);
        let sup = SupervisorConfig {
            max_retries: 0,
            faults: FaultPlan::none().with("bitcnt/BIG/baseline", Fault::Fail),
            ..SupervisorConfig::default()
        };
        let grid = run_grid_isolated(
            &cache,
            &[Benchmark::Bitcnt],
            &crate::cores()[..1],
            &[Mode::Baseline, Mode::Ts],
            1,
            &sup,
            None,
            &Isolation::Thread,
        );
        let base = grid.cell(Benchmark::Bitcnt, "BIG", Mode::Baseline).unwrap();
        assert_eq!(base.status, JobStatus::Failed);
        let ts = grid.cell(Benchmark::Bitcnt, "BIG", Mode::Ts).unwrap();
        assert!(ts.is_ok(), "TS does not depend on the baseline cell");
        assert_eq!(grid.speedup(ts), None);
        let doc = sweep_json(&grid, 2_000);
        let rows = doc.get("jobs").and_then(Json::as_arr).unwrap();
        let row = rows
            .iter()
            .find(|r| r.get("mode") == Some(&Json::str("ts")))
            .unwrap();
        assert_eq!(row.get("status"), Some(&Json::str("ok")));
        assert_eq!(row.get("speedup_over_baseline"), Some(&Json::Null));
    }
}
