//! The sweep data model: jobs, cells, grids and their JSON emission.
//!
//! A sweep covers a (benchmark × core × scheduler mode) grid. This module
//! defines the vocabulary — [`Mode`], [`Job`], [`Cell`], [`Grid`] — and
//! the canonical JSON report ([`sweep_json`] / [`canonicalize_sweep`]);
//! the [`runner`](crate::runner) module owns execution.

use std::collections::HashMap;
use std::time::Duration;

use redsoc_core::config::{CoreConfig, SchedulerConfig};
use redsoc_core::sched::ts::TsResult;
use redsoc_core::stats::SimReport;
use redsoc_workloads::Benchmark;

use crate::journal::fnv1a_hex;
use crate::json::Json;
use crate::redsoc_for;
use crate::supervisor::{stall_labels, CellSummary, JobError, JobStatus};

/// Scheduler modes a sweep can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Conventional scheduling (the speedup denominator).
    Baseline,
    /// ReDSOC with the class-tuned recycle threshold.
    Redsoc,
    /// The MOS operation-fusion comparator.
    Mos,
    /// The timing-speculation comparator (derived from the baseline run).
    Ts,
}

impl Mode {
    /// Machine-readable label (used in rows and JSON).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::Redsoc => "redsoc",
            Mode::Mos => "mos",
            Mode::Ts => "ts",
        }
    }

    /// All four modes, baseline first.
    #[must_use]
    pub fn all() -> [Mode; 4] {
        [Mode::Baseline, Mode::Redsoc, Mode::Mos, Mode::Ts]
    }

    pub(crate) fn sched(self, bench: Benchmark) -> Option<SchedulerConfig> {
        match self {
            Mode::Baseline => Some(SchedulerConfig::baseline()),
            Mode::Redsoc => Some(redsoc_for(bench.class())),
            Mode::Mos => Some(SchedulerConfig::mos()),
            Mode::Ts => None,
        }
    }
}

/// One simulation job: a benchmark on a core under a scheduler mode.
#[derive(Debug, Clone)]
pub struct Job {
    /// Workload.
    pub bench: Benchmark,
    /// Core display name (Table I).
    pub core_name: &'static str,
    /// Core configuration.
    pub core: CoreConfig,
    /// Scheduler mode.
    pub mode: Mode,
}

impl Job {
    /// The job's sweep key (`bench/CORE/mode`) — the journal key and the
    /// fault-injection key.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}",
            self.bench.name(),
            self.core_name,
            self.mode.label()
        )
    }

    /// Digest of the job's effective configuration at `trace_len`. A
    /// journaled record is only restored when its digest matches, so a
    /// changed trace length, core table, or scheduler tuning forces a
    /// fresh run instead of silently resuming stale results.
    #[must_use]
    pub fn digest(&self, trace_len: u64) -> String {
        let sched = self.mode.sched(self.bench);
        fnv1a_hex(&format!(
            "redsoc-bench-sweep/v4|{trace_len}|{}|{:?}|{:?}",
            self.key(),
            self.core,
            sched,
        ))
    }
}

/// What a job produced: a full simulation report, or a TS analysis.
/// The report is boxed: `SimReport` is an order of magnitude larger than
/// `TsResult`, and grids hold hundreds of these.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Cycle-level simulation result.
    Sim(Box<SimReport>),
    /// Timing-speculation analysis result.
    Ts(TsResult),
}

/// A completed job with its measured wall-clock time.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job that ran.
    pub job: Job,
    /// Wall-clock time of this job on its worker thread.
    pub wall: Duration,
    /// The result payload.
    pub output: JobOutput,
}

impl JobResult {
    /// Simulated cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        match &self.output {
            JobOutput::Sim(r) => r.cycles,
            JobOutput::Ts(t) => t.cycles,
        }
    }

    /// The simulation report, if this was a simulator job.
    #[must_use]
    pub fn report(&self) -> Option<&SimReport> {
        match &self.output {
            JobOutput::Sim(r) => Some(r),
            JobOutput::Ts(_) => None,
        }
    }
}

/// Why a cell failed, with the post-mortem pipeline dump captured from
/// the run's [`RingSink`](redsoc_core::events::RingSink) (empty for
/// panicking or analytical jobs).
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// The classified error.
    pub error: JobError,
    /// Most recent pipeline events at the point of failure.
    pub recent_events: Vec<String>,
}

/// One cell of a supervised sweep: a job plus its terminal state. Every
/// requested (benchmark × core × mode) combination yields exactly one
/// cell, whatever happened to the job — partial grids are first-class.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The job this cell covers.
    pub job: Job,
    /// Terminal status.
    pub status: JobStatus,
    /// Attempts made (0 only for cells that never ran: restored cells
    /// keep the attempt count journaled when they originally ran, and
    /// dependency-failed cells are rejected before their first attempt).
    pub attempts: u32,
    /// Restored from a resume journal instead of executed.
    pub restored: bool,
    /// Total *scheduled* retry backoff across the cell's attempts — the
    /// deterministic sum of planned delays (`Σ backoff(n)`), never the
    /// elapsed sleep time, so it is identical across machines for
    /// identical retry histories (journaled value for restored cells).
    pub retry_backoff: Duration,
    /// Wall-clock of this cell (journaled value for restored cells).
    pub wall: Duration,
    /// Full in-process result — present only for cells executed
    /// successfully in this process (what the figure binaries consume).
    pub result: Option<JobResult>,
    /// Row summary — present for every successful cell, fresh or
    /// restored (what the sweep JSON consumes).
    pub summary: Option<CellSummary>,
    /// The failure record, for unsuccessful cells.
    pub failure: Option<CellFailure>,
}

impl Cell {
    /// Whether the cell completed successfully.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.status == JobStatus::Ok
    }
}

/// Results of a sweep, keyed by (benchmark, core name, mode).
pub struct Grid {
    pub(crate) cells: HashMap<(Benchmark, &'static str, Mode), Cell>,
    /// Wall-clock of the whole sweep (including trace generation).
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
}

impl Grid {
    /// The cell for one combination, if the sweep covered it (core names
    /// match case-insensitively).
    #[must_use]
    pub fn cell(&self, bench: Benchmark, core_name: &str, mode: Mode) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|((b, c, m), _)| *b == bench && c.eq_ignore_ascii_case(core_name) && *m == mode)
            .map(|(_, c)| c)
    }

    /// All cells in deterministic (benchmark, core, mode) sweep order.
    #[must_use]
    pub fn cells(&self) -> Vec<&Cell> {
        let mut cells: Vec<&Cell> = self.cells.values().collect();
        cells.sort_by_key(|c| {
            (
                Benchmark::all().iter().position(|b| *b == c.job.bench),
                c.job.core_name,
                Mode::all().iter().position(|m| *m == c.job.mode),
            )
        });
        cells
    }

    /// Number of cells per status, in [`JobStatus`] declaration order
    /// (`ok`, `failed`, `timeout`, `quarantined`).
    #[must_use]
    pub fn status_counts(&self) -> [(JobStatus, usize); 4] {
        [
            JobStatus::Ok,
            JobStatus::Failed,
            JobStatus::Timeout,
            JobStatus::Quarantined,
        ]
        .map(|s| (s, self.cells.values().filter(|c| c.status == s).count()))
    }

    /// Whether every cell completed successfully.
    #[must_use]
    pub fn fully_ok(&self) -> bool {
        self.cells.values().all(Cell::is_ok)
    }

    /// The in-process result for one cell, if the sweep covered it and
    /// executed it successfully in this process (core names match
    /// case-insensitively). Restored and failed cells return `None`.
    #[must_use]
    pub fn get(&self, bench: Benchmark, core_name: &str, mode: Mode) -> Option<&JobResult> {
        self.cell(bench, core_name, mode)
            .and_then(|c| c.result.as_ref())
    }

    /// The simulation report for one cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not covered, did not execute successfully
    /// in this process, or was a TS job. The figure binaries use this:
    /// they always run fresh, fully-successful grids.
    #[must_use]
    #[allow(clippy::expect_used)] // panicking accessor by documented contract
    pub fn report(&self, bench: Benchmark, core_name: &str, mode: Mode) -> &SimReport {
        self.get(bench, core_name, mode)
            .unwrap_or_else(|| panic!("grid missing {}/{core_name}/{:?}", bench.name(), mode))
            .report()
            .expect("simulator cell")
    }

    /// Speedup of `mode` over the baseline for one benchmark × core,
    /// computed from cell summaries (works for restored cells too);
    /// `None` when either cell is missing or unsuccessful.
    #[must_use]
    pub fn try_speedup(&self, bench: Benchmark, core_name: &str, mode: Mode) -> Option<f64> {
        let summary = self.cell(bench, core_name, mode)?.summary.as_ref()?;
        match summary {
            // TS carries its own wall-clock-corrected speedup (shorter
            // cycles at a shorter clock period).
            CellSummary::Ts { speedup, .. } => Some(*speedup),
            CellSummary::Sim { cycles, .. } => {
                let base = self
                    .cell(bench, core_name, Mode::Baseline)?
                    .summary
                    .as_ref()?;
                Some(base.cycles() as f64 / *cycles as f64)
            }
        }
    }

    /// Speedup of `mode` over the baseline for one benchmark × core.
    ///
    /// # Panics
    ///
    /// Panics if the grid lacks the cell or its baseline (figure-binary
    /// convenience; sweeps use [`Grid::try_speedup`]).
    #[must_use]
    pub fn speedup(&self, bench: Benchmark, core_name: &str, mode: Mode) -> f64 {
        self.try_speedup(bench, core_name, mode)
            .unwrap_or_else(|| panic!("grid missing {}/{core_name}/{:?}", bench.name(), mode))
    }

    /// All in-process results in deterministic (benchmark, core, mode)
    /// sweep order (successful fresh cells only).
    #[must_use]
    pub fn rows(&self) -> Vec<&JobResult> {
        self.cells()
            .into_iter()
            .filter_map(|c| c.result.as_ref())
            .collect()
    }

    /// Sum of per-job wall-clock — the serial-equivalent compute time
    /// (journaled wall for restored cells).
    #[must_use]
    pub fn cpu_time(&self) -> Duration {
        self.cells.values().map(|c| c.wall).sum()
    }
}

/// Serialise a sweep as the machine-readable `redsoc-bench-sweep/v4`
/// document that `redsoc bench` writes.
///
/// Per job: benchmark, class, core, mode, the supervision outcome
/// (`status` of `ok | failed | timeout | quarantined`, `attempts`,
/// `restored`), and — for successful cells — simulated `cycles`,
/// committed instruction count, `ipc`, per-job `wall_seconds`,
/// `speedup_over_baseline` (1.0 for baseline rows by construction; TS
/// rows carry the clock-corrected TS speedup; `null` when the baseline
/// cell failed), and a `stalls` object of per-cause cycle counters whose
/// values sum to `cycles` (`null` for TS rows, which are analytical and
/// have no pipeline). TS rows report the committed count of their
/// matching baseline run, since TS replays the same trace. Failed cells
/// carry `null` metrics plus an `error` record (`kind`, `message`, and
/// the recent pipeline events captured at the point of failure), so a
/// partial grid is a well-formed document rather than a crash.
#[must_use]
pub fn sweep_json(grid: &Grid, trace_len: u64) -> Json {
    let jobs: Vec<Json> = grid
        .cells()
        .iter()
        .map(|c| {
            let num_or_null = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
            let summary = c.summary.as_ref();
            let cycles = summary.map(|s| s.cycles() as f64);
            let committed = summary.map(|s| s.committed() as f64);
            let ipc = summary.map(|s| s.committed() as f64 / s.cycles() as f64);
            let stalls = summary
                .and_then(CellSummary::stalls)
                .map_or(Json::Null, |s| {
                    Json::obj(
                        stall_labels()
                            .into_iter()
                            .zip(s.iter())
                            // The `mshr` bucket exists only under contended
                            // memory models; omitting its always-zero entry
                            // keeps classic sweep documents byte-identical
                            // to pre-port builds (the golden fixture).
                            .filter(|(label, n)| *label != "mshr" || **n != 0)
                            .map(|(label, n)| (label, Json::num(*n as f64)))
                            .collect(),
                    )
                });
            // Present only for contended-memory jobs; classic rows omit
            // the key entirely so their documents match pre-port output.
            let memory = summary.and_then(CellSummary::memory).map(|m| {
                Json::obj(vec![
                    ("model", Json::str(&m.model)),
                    ("mshr_rejects", Json::num(m.mshr_rejects as f64)),
                    ("mshr_merges", Json::num(m.mshr_merges as f64)),
                    ("port_wait_cycles", Json::num(m.port_wait_cycles as f64)),
                    ("dram_wait_cycles", Json::num(m.dram_wait_cycles as f64)),
                ])
            });
            let error = c.failure.as_ref().map_or(Json::Null, |f| {
                Json::obj(vec![
                    ("kind", Json::str(f.error.kind())),
                    ("message", Json::str(&f.error.to_string())),
                    (
                        "recent_events",
                        Json::Arr(f.recent_events.iter().map(|e| Json::str(e)).collect()),
                    ),
                ])
            });
            let mut fields = vec![
                ("benchmark", Json::str(c.job.bench.name())),
                ("class", Json::str(c.job.bench.class().label())),
                ("core", Json::str(c.job.core_name)),
                ("mode", Json::str(c.job.mode.label())),
                ("status", Json::str(c.status.label())),
                ("attempts", Json::num(f64::from(c.attempts))),
                ("restored", Json::Bool(c.restored)),
                ("cycles", num_or_null(cycles)),
                ("committed", num_or_null(committed)),
                ("ipc", num_or_null(ipc)),
                ("wall_seconds", Json::Num(c.wall.as_secs_f64())),
                (
                    "speedup_over_baseline",
                    num_or_null(grid.try_speedup(c.job.bench, c.job.core_name, c.job.mode)),
                ),
                ("stalls", stalls),
            ];
            if let Some(memory) = memory {
                fields.push(("memory", memory));
            }
            // Scheduled (not elapsed) retry delay; emitted only when the
            // cell actually retried, so clean sweeps — including the
            // committed golden fixture — keep their exact key set.
            if !c.retry_backoff.is_zero() {
                fields.push((
                    "retry_backoff_ms",
                    Json::num(c.retry_backoff.as_millis() as f64),
                ));
            }
            fields.push(("error", error));
            Json::obj(fields)
        })
        .collect();
    let counts = grid.status_counts();
    Json::obj(vec![
        ("schema", Json::str("redsoc-bench-sweep/v4")),
        ("trace_len", Json::num(trace_len as f64)),
        ("threads", Json::num(grid.threads as f64)),
        ("wall_seconds", Json::Num(grid.wall.as_secs_f64())),
        ("cpu_seconds", Json::Num(grid.cpu_time().as_secs_f64())),
        (
            "status_counts",
            Json::obj(
                counts
                    .iter()
                    .map(|(s, n)| (s.label(), Json::num(*n as f64)))
                    .collect(),
            ),
        ),
        ("jobs", Json::Arr(jobs)),
    ])
}

/// Canonicalise a sweep document for comparison: wall-clock fields
/// (`wall_seconds`, `cpu_seconds`) and the worker-thread count are
/// measurement environment rather than simulation output, and
/// `restored`, `attempts`, and `retry_backoff_ms` are recovery
/// provenance (how many tries the environment cost, not what the
/// simulation computed), so they are neutralised recursively
/// (`attempts` to 1, `retry_backoff_ms` dropped — it is only emitted
/// when retries happened). Two canonicalised documents from the same
/// grid — uninterrupted, crashed-and-resumed, kill-stormed under
/// process isolation, or run at different parallelism — must be
/// byte-identical.
#[must_use]
pub fn canonicalize_sweep(doc: &Json) -> Json {
    match doc {
        Json::Obj(map) => Json::Obj(
            map.iter()
                .filter(|(k, _)| k.as_str() != "retry_backoff_ms")
                .map(|(k, v)| {
                    let v = match k.as_str() {
                        "wall_seconds" | "cpu_seconds" => Json::Num(0.0),
                        "threads" => Json::Num(0.0),
                        "restored" => Json::Bool(false),
                        "attempts" => Json::Num(1.0),
                        _ => canonicalize_sweep(v),
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(canonicalize_sweep).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn job_digest_tracks_configuration() {
        let job = Job {
            bench: Benchmark::Bitcnt,
            core_name: "BIG",
            core: CoreConfig::big(),
            mode: Mode::Redsoc,
        };
        assert_eq!(job.digest(1000), job.digest(1000));
        assert_ne!(job.digest(1000), job.digest(2000), "trace length matters");
        let mut other = job.clone();
        other.core.rob_entries += 1;
        assert_ne!(job.digest(1000), other.digest(1000), "core config matters");
    }

    #[test]
    fn canonicalize_zeroes_walls_and_environment_everywhere() {
        let doc = Json::obj(vec![
            ("wall_seconds", Json::Num(1.5)),
            ("threads", Json::Num(8.0)),
            (
                "jobs",
                Json::Arr(vec![Json::obj(vec![
                    ("wall_seconds", Json::Num(0.25)),
                    ("restored", Json::Bool(true)),
                    ("cycles", Json::Num(10.0)),
                ])]),
            ),
        ]);
        let canon = canonicalize_sweep(&doc);
        assert_eq!(canon.get("wall_seconds"), Some(&Json::Num(0.0)));
        assert_eq!(canon.get("threads"), Some(&Json::Num(0.0)));
        let job = &canon.get("jobs").unwrap().as_arr().unwrap()[0];
        assert_eq!(job.get("wall_seconds"), Some(&Json::Num(0.0)));
        assert_eq!(job.get("restored"), Some(&Json::Bool(false)));
        assert_eq!(job.get("cycles"), Some(&Json::Num(10.0)));
    }

    #[test]
    fn canonicalize_neutralises_recovery_provenance() {
        // A row that retried (attempts 2, scheduled backoff present) must
        // canonicalise identically to the same row run clean (attempts 1,
        // no backoff key at all): retries are environment, not results.
        let retried = Json::obj(vec![
            ("attempts", Json::Num(2.0)),
            ("retry_backoff_ms", Json::Num(25.0)),
            ("cycles", Json::Num(10.0)),
        ]);
        let clean = Json::obj(vec![
            ("attempts", Json::Num(1.0)),
            ("cycles", Json::Num(10.0)),
        ]);
        assert_eq!(canonicalize_sweep(&retried), canonicalize_sweep(&clean));
    }

    #[test]
    fn sweep_json_emits_retry_backoff_only_when_nonzero() {
        use crate::supervisor::JobStatus;
        let job = Job {
            bench: Benchmark::Bitcnt,
            core_name: "BIG",
            core: CoreConfig::big(),
            mode: Mode::Baseline,
        };
        let mut cell = Cell {
            job,
            status: JobStatus::Ok,
            attempts: 1,
            restored: false,
            retry_backoff: Duration::ZERO,
            wall: Duration::from_millis(5),
            result: None,
            summary: Some(CellSummary::Sim {
                cycles: 100,
                committed: 50,
                stalls: [0; 10],
                memory: None,
            }),
            failure: None,
        };
        let grid_of = |cell: &Cell| Grid {
            cells: HashMap::from([(
                (cell.job.bench, cell.job.core_name, cell.job.mode),
                cell.clone(),
            )]),
            wall: Duration::ZERO,
            threads: 1,
        };
        let row = |g: &Grid| sweep_json(g, 100).get("jobs").unwrap().as_arr().unwrap()[0].clone();
        assert_eq!(
            row(&grid_of(&cell)).get("retry_backoff_ms"),
            None,
            "clean cells must not grow a new key (golden-fixture stability)"
        );
        cell.attempts = 3;
        cell.retry_backoff = Duration::from_millis(75);
        assert_eq!(
            row(&grid_of(&cell)).get("retry_backoff_ms"),
            Some(&Json::Num(75.0))
        );
    }
}
