//! Fault-tolerant parallel experiment runner.
//!
//! A sweep is a set of independent simulation **jobs** — one per
//! (benchmark × core × scheduler mode). [`simulate`](redsoc_core::pipeline::simulate) takes owned inputs
//! and the trace cache hands out shared `Arc<[DynOp]>` traces, so jobs fan
//! out across a scoped thread pool with no synchronisation beyond an
//! atomic work index. Results land in per-job slots, so the output order
//! (and every per-job statistic) is identical to a serial run — the pool
//! only changes wall-clock, never results.
//!
//! Every job runs under the [`supervisor`](crate::supervisor): the body
//! executes inside `catch_unwind`, failures are classified into the
//! structured [`JobError`] taxonomy, transient failures retry with
//! deterministic backoff, a cooperative cycle-budget watchdog
//! ([`CancelToken`]) bounds runaway jobs, and a failing job degrades to
//! one `failed`/`timeout`/`quarantined` **cell** of the grid instead of
//! aborting the sweep. Completed cells are checkpointed to an
//! append-only [`Journal`] as they finish, and a
//! resumed sweep restores them instead of re-running.
//!
//! The TS comparator needs the matching baseline cycle count, so grids
//! that include [`Mode::Ts`] run in two waves: all simulator modes first,
//! then the TS analyses (each wave fully parallel). A TS cell whose
//! baseline failed is marked failed with a `dependency` error rather
//! than run on garbage.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use redsoc_core::config::{CoreConfig, SchedulerConfig};
use redsoc_core::events::RingSink;
use redsoc_core::pipeline::{CancelToken, SimError, Simulator};
use redsoc_core::sched::ts::run_ts;
use redsoc_core::stats::StallCause;
use redsoc_isa::instruction::Instr;
use redsoc_isa::opcode::AluOp;
use redsoc_isa::operand::Operand2;
use redsoc_isa::program::r;
use redsoc_isa::trace::DynOp;
use redsoc_workloads::Benchmark;

use crate::grid::CellKey;
use crate::journal::{Journal, JournalRecord};
use crate::pool::{self, WorkerPoolConfig};
use crate::supervisor::{
    supervise, CellSummary, Fault, JobError, JobStatus, MemSummary, SupervisorConfig,
};
use crate::worker::JobSpec;
use crate::TraceCache;

pub use crate::grid::{
    canonicalize_sweep, sweep_json, Cell, CellFailure, Grid, Job, JobOutput, JobResult, Mode,
    Variant,
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
fn sim_summary(job: &Job, report: &redsoc_core::stats::SimReport) -> CellSummary {
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

/// Attach the supervisor's cycle budget and the process-isolation
/// progress cell (the worker heartbeat reads what the token publishes)
/// to `sim`. Without either, the run keeps its default, inert token.
fn with_watchdog(
    sim: Simulator,
    sup: &SupervisorConfig,
    progress: Option<&Arc<AtomicU64>>,
) -> Simulator {
    if sup.job_timeout_cycles.is_none() && progress.is_none() {
        return sim;
    }
    let mut token = match sup.job_timeout_cycles {
        Some(budget) => CancelToken::with_budget(budget),
        None => CancelToken::new(),
    };
    if let Some(cell) = progress {
        token = token.with_progress(Arc::clone(cell));
    }
    sim.with_cancel(token)
}

/// One attempt of a simulator-mode job (never [`Mode::Ts`]).
fn sim_attempt(
    cache: &TraceCache,
    job: &Job,
    sched: SchedulerConfig,
    sup: &SupervisorConfig,
    progress: Option<&Arc<AtomicU64>>,
) -> Result<(JobOutput, CellSummary), (JobError, Vec<String>)> {
    let trace = cache.get(job.bench);
    let config = job.core.clone().with_sched(sched);
    let mut ring = RingSink::new(RingSink::DEFAULT_CAP);
    let sim = Simulator::new(config).map_err(|e| (JobError::Sim(e), Vec::new()))?;
    match with_watchdog(sim, sup, progress).run_events(trace.iter().copied(), &mut ring) {
        Ok(report) => {
            let summary = sim_summary(job, &report);
            Ok((JobOutput::Sim(Box::new(report)), summary))
        }
        Err(e) => Err(classify_sim_error(e, sup.job_timeout_cycles, &ring)),
    }
}

/// One attempt of the injected-hang fault: run the endless stream under
/// the same watchdog a real job gets.
fn hang_attempt(
    job: &Job,
    sup: &SupervisorConfig,
    progress: Option<&Arc<AtomicU64>>,
) -> Result<(JobOutput, CellSummary), (JobError, Vec<String>)> {
    let sched = job.sched().unwrap_or_else(SchedulerConfig::baseline);
    let config = job.core.clone().with_sched(sched);
    let mut ring = RingSink::new(RingSink::DEFAULT_CAP);
    let sim = Simulator::new(config).map_err(|e| (JobError::Sim(e), Vec::new()))?;
    match with_watchdog(sim, sup, progress).run_events(endless_trace(), &mut ring) {
        // Unreachable in practice: the stream never ends.
        Ok(report) => {
            let summary = sim_summary(job, &report);
            Ok((JobOutput::Sim(Box::new(report)), summary))
        }
        Err(e) => Err(classify_sim_error(e, sup.job_timeout_cycles, &ring)),
    }
}

/// One attempt of a TS job, given the measured baseline (cycles,
/// committed).
fn ts_attempt(
    cache: &TraceCache,
    job: &Job,
    base: (u64, u64),
) -> Result<(JobOutput, CellSummary), (JobError, Vec<String>)> {
    let (base_cycles, base_committed) = base;
    let trace = cache.get(job.bench);
    match run_ts(&trace, &job.core, base_cycles, 0.01) {
        Ok(ts) => {
            let summary = CellSummary::Ts {
                cycles: ts.cycles,
                committed: base_committed,
                speedup: ts.speedup,
            };
            Ok((JobOutput::Ts(ts), summary))
        }
        Err(e) => Err((JobError::Sim(e), Vec::new())),
    }
}

/// Where a cell's attempts execute.
///
/// `Thread` is the classic in-process path: cheap, shared trace cache,
/// but a job that aborts or exhausts memory takes the whole sweep with
/// it. `Process` ships each attempt to a pooled `redsoc worker` child
/// over the [`worker`](crate::worker) wire protocol: the parent
/// supervises heartbeats, enforces wall-clock and memory budgets, and a
/// worker death degrades to one failed cell.
#[derive(Debug, Clone, Default)]
pub enum Isolation {
    /// Run attempts on the sweep's own threads (the default; results
    /// are byte-identical to pre-isolation builds).
    #[default]
    Thread,
    /// Run attempts in supervised child processes.
    Process(WorkerPoolConfig),
}

/// One supervised attempt body, shared verbatim between thread isolation
/// (called on a sweep thread) and process isolation (called inside a
/// `redsoc worker` child): fault injection, TS dispatch, and the
/// simulator path. `progress` is published to from the [`CancelToken`]
/// poll so a worker's heartbeat can carry the latest simulated cycle.
///
/// The containable faults (`panic`/`fail`/`hang`) execute here under
/// whichever isolation is active. The destructive faults
/// (`abort`/`oom`/`freeze`) are executed by the *worker* before it calls
/// this; reaching them here means thread isolation, where they are
/// documented as fatal to the whole process.
pub(crate) fn attempt_with_faults(
    cache: &TraceCache,
    job: &Job,
    ts_base: Option<(u64, u64)>,
    sup: &SupervisorConfig,
    attempt: u32,
    progress: Option<&Arc<AtomicU64>>,
) -> Result<(JobOutput, CellSummary), (JobError, Vec<String>)> {
    let key = job.key();
    match sup.faults.get(&key) {
        Some(Fault::Panic { times }) if attempt <= times => {
            panic!("injected panic for {key} (attempt {attempt})")
        }
        Some(Fault::Fail) => Err((
            JobError::Sim(SimError::BadConfig(format!("injected failure for {key}"))),
            Vec::new(),
        )),
        Some(Fault::Hang) => hang_attempt(job, sup, progress),
        Some(fault @ (Fault::Abort | Fault::Oom | Fault::Freeze)) => {
            fatal_destructive_fault(&key, fault)
        }
        _ => match (job.mode, ts_base) {
            (Mode::Ts, Some(base)) => ts_attempt(cache, job, base),
            (Mode::Ts, None) => Err(dependency_failed(job)),
            (_, _) => match job.sched() {
                Some(sched) => sim_attempt(cache, job, sched, sup, progress),
                None => Err((
                    JobError::Sim(SimError::BadConfig(format!(
                        "mode {} has no scheduler",
                        job.mode.label()
                    ))),
                    Vec::new(),
                )),
            },
        },
    }
}

/// The error of a TS cell whose baseline cell failed.
fn dependency_failed(job: &Job) -> (JobError, Vec<String>) {
    let key = baseline_of(job).key();
    (JobError::DependencyFailed { key }, Vec::new())
}

/// The default-variant baseline job a TS job measures against.
fn baseline_of(job: &Job) -> Job {
    Job {
        mode: Mode::Baseline,
        variant: Variant::default(),
        ..job.clone()
    }
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
    ts_base: Option<(u64, u64)>,
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
        ts_base,
        fault: sup.faults.get(&job.key()).map(Fault::spec),
    }
}

/// Execute one cell under supervision: journal restore, fault injection,
/// `catch_unwind`, retries, and classification all happen here. `ts_base`
/// carries the measured baseline for TS jobs. Under process isolation
/// the attempt body runs in a pooled worker child instead of this
/// thread; everything around it — restore, retries, journaling,
/// classification — is identical.
fn exec_cell(
    cache: &TraceCache,
    job: &Job,
    ts_base: Option<(u64, u64)>,
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
            retry_backoff: Duration::from_millis(rec.backoff_ms),
            wall: Duration::from_secs_f64(rec.wall_seconds.max(0.0)),
            result: None,
            summary: Some(rec.summary.clone()),
            failure: None,
        };
    }

    let start = Instant::now();
    let last_events: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let supervised = supervise(sup, |attempt| {
        let outcome = match isolation {
            Isolation::Thread => attempt_with_faults(cache, job, ts_base, sup, attempt, None)
                .map(|(output, summary)| (Some(output), summary)),
            Isolation::Process(cfg) => {
                if job.mode == Mode::Ts && ts_base.is_none() {
                    // No point shipping a TS cell whose baseline failed
                    // to a worker; fail it parent-side like thread mode.
                    Err(dependency_failed(job))
                } else if !job.variant.is_default() {
                    // The wire protocol names jobs by benchmark, core and
                    // mode only.
                    Err((
                        JobError::Sim(SimError::BadConfig(format!(
                            "{key}: scheduler variants run thread-isolated only"
                        ))),
                        Vec::new(),
                    ))
                } else {
                    let spec = job_spec(job, &digest, cache.target_len(), sup, attempt, ts_base);
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
        Ok((output, summary)) => {
            if let Some(j) = journal {
                let rec = JournalRecord {
                    key,
                    digest,
                    attempts: supervised.attempts,
                    backoff_ms: supervised.scheduled_backoff.as_millis() as u64,
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
                retry_backoff: supervised.scheduled_backoff,
                wall,
                // Process isolation returns only the journaled summary
                // (the parent never holds the full report); the report's
                // counters need thread isolation.
                result: output.map(|output| JobResult {
                    job: job.clone(),
                    wall,
                    output,
                }),
                summary: Some(summary),
                failure: None,
            }
        }
        Err(error) => Cell {
            job: job.clone(),
            status: error.terminal_status(),
            attempts: supervised.attempts,
            restored: false,
            retry_backoff: supervised.scheduled_backoff,
            wall,
            result: None,
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
/// re-run when their digest matches). Requesting [`Mode::Ts`] implies
/// baseline runs (see [`run_jobs`]).
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
/// [`run_grid_isolated`]. A [`Mode::Ts`] job implies the default-variant
/// baseline of its benchmark × core, which is added when missing: TS
/// picks its clock from the trace but reports speedup against the
/// measured baseline cycle count, so TS jobs run in a second wave.
/// Non-default [`Variant`] jobs need thread isolation.
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
    let (ts_jobs, mut sim_jobs): (Vec<Job>, Vec<Job>) =
        jobs.iter().cloned().partition(|j| j.mode == Mode::Ts);
    for ts in &ts_jobs {
        let base = baseline_of(ts);
        if !sim_jobs.iter().any(|j| j.cell_key() == base.cell_key()) {
            sim_jobs.push(base);
        }
    }

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

    let cells = run_parallel(&sim_jobs, threads, |job| {
        exec_cell(cache, job, None, sup, journal, isolation)
    });
    let mut map: HashMap<CellKey, Cell> =
        cells.into_iter().map(|c| (c.job.cell_key(), c)).collect();

    if !ts_jobs.is_empty() {
        // The measured baseline per TS job: `None` when the baseline cell
        // failed, which fails the TS cell as a dependency.
        let ts_work: Vec<(&Job, Option<(u64, u64)>)> = ts_jobs
            .iter()
            .map(|j| {
                let base = map
                    .get(&baseline_of(j).cell_key())
                    .and_then(|c| c.summary.as_ref())
                    .map(|s| (s.cycles(), s.committed()));
                (j, base)
            })
            .collect();
        let ts_cells = run_parallel(&ts_work, threads, |(job, base)| {
            exec_cell(cache, job, *base, sup, journal, isolation)
        });
        map.extend(ts_cells.into_iter().map(|c| (c.job.cell_key(), c)));
    }

    // Workers owned by scoped sweep threads shut down with their
    // threads' TLS destructors at each wave's end; a worker owned by
    // *this* thread (threads == 1, or single-item waves) is shut down
    // here so no child outlives the sweep.
    if matches!(isolation, Isolation::Process(_)) {
        pool::shutdown_local_worker();
    }

    Grid {
        cells: map,
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
        assert_eq!(grid.rows().len(), 4);
        assert!(grid.fully_ok());
        let redsoc = grid.cell(Benchmark::Bitcnt, "BIG", Mode::Redsoc).unwrap();
        assert!(grid.speedup(redsoc).unwrap() > 1.0);
        assert!(grid
            .cell(Benchmark::Bitcnt, "SMALL", Mode::Redsoc)
            .is_none());
    }

    #[test]
    fn ts_mode_pulls_in_baselines() {
        let cache = TraceCache::new(2_000);
        let benches = [Benchmark::Bitcnt];
        let cores = crate::cores();
        let grid = run_grid(&cache, &benches, &cores[..1], &[Mode::Ts], 2);
        assert!(grid
            .cell(Benchmark::Bitcnt, "BIG", Mode::Baseline)
            .is_some());
        let ts = grid.cell(Benchmark::Bitcnt, "BIG", Mode::Ts).unwrap();
        let ts = grid.speedup(ts).unwrap();
        assert!(ts.is_finite() && ts > 0.0);
    }

    #[test]
    fn injected_panic_quarantines_one_cell_and_spares_the_rest() {
        let cache = TraceCache::new(2_000);
        let sup = SupervisorConfig {
            max_retries: 1,
            backoff_base: Duration::ZERO,
            faults: FaultPlan::none().with("bitcnt/BIG/redsoc", Fault::Panic { times: 99 }),
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
        assert_eq!(bad.attempts, 2, "one try + one retry");
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
    fn failed_baseline_fails_ts_as_a_dependency() {
        let cache = TraceCache::new(2_000);
        let sup = SupervisorConfig {
            max_retries: 0,
            backoff_base: Duration::ZERO,
            faults: FaultPlan::none().with("bitcnt/BIG/baseline", Fault::Fail),
            ..SupervisorConfig::default()
        };
        let grid = run_grid_isolated(
            &cache,
            &[Benchmark::Bitcnt],
            &crate::cores()[..1],
            &[Mode::Ts],
            1,
            &sup,
            None,
            &Isolation::Thread,
        );
        let ts = grid.cell(Benchmark::Bitcnt, "BIG", Mode::Ts).unwrap();
        assert_eq!(ts.status, JobStatus::Failed);
        assert_eq!(ts.failure.as_ref().unwrap().error.kind(), "dependency");
    }
}
