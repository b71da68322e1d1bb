//! The sweep data model: jobs, cells, grids and their JSON emission.
//!
//! A sweep covers a (benchmark × core × scheduler mode × scheduler
//! variant) grid. This module defines the vocabulary — [`Mode`],
//! [`Variant`], [`Job`], [`Cell`], [`Grid`] — and the canonical JSON
//! report ([`sweep_json`] / [`canonicalize_sweep`]); the
//! [`runner`](crate::runner) module owns execution. Every speedup,
//! the TS comparator's wall-clock ratio included, is computed from cell
//! summaries by [`Grid::speedup`] when a document is written, so no cell
//! depends on another.

use std::collections::HashMap;
use std::time::Duration;

use redsoc_core::config::{CoreConfig, SchedulerConfig};
use redsoc_core::sched::ts::ts_speedup;
use redsoc_core::stats::SimReport;
use redsoc_workloads::Benchmark;

use crate::journal::fnv1a_hex;
use crate::json::Json;
use crate::redsoc_for;
use crate::supervisor::{stall_labels, CellSummary, JobError, JobStatus, MemSummary};

/// Scheduler modes a sweep can cover, in sweep order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mode {
    /// Conventional scheduling (the speedup denominator).
    Baseline,
    /// ReDSOC with the class-tuned recycle threshold.
    Redsoc,
    /// The MOS operation-fusion comparator.
    Mos,
    /// The timing-speculation comparator: the baseline scheduler under a
    /// shortened clock.
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
}

/// A scheduler variant: the ablation axes of the ReDSOC scheduler —
/// Completion-Instant precision and recycle threshold (§V, §IV-C) and
/// the PVT guard band (§V). Each set field overrides the mode's
/// scheduler configuration; the default variant overrides nothing, so
/// default-variant jobs keep the keys, digests and sweep rows of builds
/// that predate the axis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Variant {
    /// Completion-Instant precision in bits.
    pub ci_bits: Option<u8>,
    /// Recycle threshold in CI ticks.
    pub threshold: Option<u64>,
    /// Exploit the PVT guard band on top of data slack.
    pub pvt: bool,
}

impl Variant {
    /// Whether this is the default variant (no overrides).
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == Variant::default()
    }

    /// Machine-readable label, `-`-separated overrides such as `ci4-t15`,
    /// `t3` or `pvt`; empty for the default variant.
    #[must_use]
    pub fn label(&self) -> String {
        let parts = [
            self.ci_bits.map(|bits| format!("ci{bits}")),
            self.threshold.map(|t| format!("t{t}")),
            self.pvt.then(|| "pvt".to_string()),
        ];
        parts.into_iter().flatten().collect::<Vec<_>>().join("-")
    }

    /// `sched` with this variant's overrides applied.
    #[must_use]
    pub fn apply(&self, mut sched: SchedulerConfig) -> SchedulerConfig {
        sched.ci_bits = self.ci_bits.unwrap_or(sched.ci_bits);
        sched.threshold_ticks = self.threshold.unwrap_or(sched.threshold_ticks);
        sched.pvt_guard_band |= self.pvt;
        sched
    }
}

/// One simulation job: a benchmark on a core under a scheduler mode and
/// variant.
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
    /// Scheduler variant (the default for every `redsoc bench` cell).
    pub variant: Variant,
}

impl Job {
    /// Default-variant jobs over `benches` × `cores` × `modes`, in sweep
    /// order.
    #[must_use]
    pub fn grid(
        benches: &[Benchmark],
        cores: &[(&'static str, CoreConfig)],
        modes: &[Mode],
    ) -> Vec<Job> {
        let mut jobs = Vec::new();
        for bench in benches {
            for (core_name, core) in cores {
                for mode in modes {
                    jobs.push(Job {
                        bench: *bench,
                        core_name,
                        core: core.clone(),
                        mode: *mode,
                        variant: Variant::default(),
                    });
                }
            }
        }
        jobs
    }

    /// The job's sweep key (`bench/CORE/mode`, plus `/variant` for a
    /// non-default variant) — the journal key and the fault-injection key.
    #[must_use]
    pub fn key(&self) -> String {
        let key = format!(
            "{}/{}/{}",
            self.bench.name(),
            self.core_name,
            self.mode.label()
        );
        if self.variant.is_default() {
            key
        } else {
            format!("{key}/{}", self.variant.label())
        }
    }

    /// The job's scheduler configuration (`None` for TS, whose core
    /// configuration [`ts_config`](redsoc_core::sched::ts::ts_config)
    /// derives from the trace).
    #[must_use]
    pub fn sched(&self) -> Option<SchedulerConfig> {
        let sched = match self.mode {
            Mode::Baseline => SchedulerConfig::baseline(),
            Mode::Redsoc => redsoc_for(self.bench.class()),
            Mode::Mos => SchedulerConfig::mos(),
            Mode::Ts => return None,
        };
        Some(self.variant.apply(sched))
    }

    /// Digest of the job's effective configuration at `trace_len`. A
    /// journaled record is only restored when its digest matches, so a
    /// changed trace length, core table, or scheduler tuning forces a
    /// fresh run instead of silently resuming stale results.
    #[must_use]
    pub fn digest(&self, trace_len: u64) -> String {
        let sched = self.sched();
        fnv1a_hex(&format!(
            "redsoc-bench-sweep/v4|{trace_len}|{}|{:?}|{:?}",
            self.key(),
            self.core,
            sched,
        ))
    }
}

/// Why a cell failed, with the post-mortem pipeline dump captured from
/// the run's [`RingSink`](redsoc_core::events::RingSink) (empty when the
/// failure happened outside a run, such as a panic).
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
    /// Attempts made (restored cells keep the attempt count journaled
    /// when they originally ran).
    pub attempts: u32,
    /// Restored from a resume journal instead of executed.
    pub restored: bool,
    /// Wall-clock of this cell (journaled value for restored cells).
    pub wall: Duration,
    /// Full simulator report — present only for cells executed
    /// successfully on a thread of this process (what the report's
    /// counters read).
    pub report: Option<Box<SimReport>>,
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

/// A grid cell's identity: (benchmark, core name, mode, variant).
pub(crate) type CellKey = (Benchmark, &'static str, Mode, Variant);

impl Job {
    pub(crate) fn cell_key(&self) -> CellKey {
        (self.bench, self.core_name, self.mode, self.variant)
    }
}

/// Results of a sweep, keyed by (benchmark, core name, mode, variant).
pub struct Grid {
    pub(crate) cells: HashMap<CellKey, Cell>,
    /// Wall-clock of the whole sweep (including trace generation).
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
}

impl Grid {
    /// The default-variant cell for one combination, if the sweep
    /// covered it (core names match case-insensitively).
    #[must_use]
    pub fn cell(&self, bench: Benchmark, core_name: &str, mode: Mode) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|((b, c, m, v), _)| {
                *b == bench && c.eq_ignore_ascii_case(core_name) && *m == mode && v.is_default()
            })
            .map(|(_, c)| c)
    }

    /// All cells in deterministic (benchmark, core, mode, variant) sweep
    /// order; the extended suite follows `Benchmark::all()`.
    #[must_use]
    pub fn cells(&self) -> Vec<&Cell> {
        let mut cells: Vec<&Cell> = self.cells.values().collect();
        cells.sort_by_key(|c| c.job.cell_key());
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

    /// Speedup of one cell over the default-variant baseline of its
    /// benchmark × core, computed from cell summaries (works for restored
    /// cells too); `None` when either cell is unsuccessful or the grid
    /// has no such baseline.
    #[must_use]
    pub fn speedup(&self, cell: &Cell) -> Option<f64> {
        let job = &cell.job;
        let base_key = (job.bench, job.core_name, Mode::Baseline, Variant::default());
        let base = self.cells.get(&base_key)?.summary.as_ref()?.cycles();
        Some(match cell.summary.as_ref()? {
            // TS runs at a shorter clock: compare wall-clock time.
            CellSummary::Ts {
                cycles, clock_ps, ..
            } => ts_speedup(base, *cycles, *clock_ps),
            CellSummary::Sim { cycles, .. } => base as f64 / *cycles as f64,
        })
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
/// rows compare wall-clock time at their shortened clock; `null` when
/// the baseline cell failed or is not in the grid), and a `stalls` object
/// of per-cause cycle counters whose values sum to `cycles`. TS simulates
/// the pipeline under a rescaled clock, but its rows keep `stalls: null`
/// so documents stay compatible with earlier builds. Failed cells
/// carry `null` metrics plus an `error` record (`kind`, `message`, and
/// the recent pipeline events captured at the point of failure), so a
/// partial grid is a well-formed document rather than a crash. A
/// non-default-variant row also names its `variant` label, and divides
/// the default-variant baseline's cycles.
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
            let memory = summary
                .and_then(CellSummary::memory)
                .map(MemSummary::to_json);
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
                ("speedup_over_baseline", num_or_null(grid.speedup(c))),
                ("stalls", stalls),
            ];
            if !c.job.variant.is_default() {
                fields.push(("variant", Json::str(&c.job.variant.label())));
            }
            if let Some(memory) = memory {
                fields.push(("memory", memory));
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
/// `restored` and `attempts` are recovery provenance (how many tries the
/// environment cost, not what the simulation computed), so they are
/// neutralised recursively (`attempts` to 1). Two canonicalised
/// documents from the same
/// grid — uninterrupted, crashed-and-resumed, kill-stormed under
/// process isolation, or run at different parallelism — must be
/// byte-identical.
#[must_use]
pub fn canonicalize_sweep(doc: &Json) -> Json {
    match doc {
        Json::Obj(map) => Json::Obj(
            map.iter()
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
            variant: Variant::default(),
        };
        assert_eq!(job.digest(1000), job.digest(1000));
        assert_ne!(job.digest(1000), job.digest(2000), "trace length matters");
        let mut other = job.clone();
        other.core.rob_entries += 1;
        assert_ne!(job.digest(1000), other.digest(1000), "core config matters");
    }

    fn job(bench: Benchmark, core_name: &'static str, core: CoreConfig, mode: Mode) -> Job {
        Job {
            bench,
            core_name,
            core,
            mode,
            variant: Variant::default(),
        }
    }

    #[test]
    fn default_variant_keys_and_digests_match_older_builds() {
        // Computed by the build before the variant axis existed: journals
        // that older builds wrote must keep resuming.
        let pinned = [
            (
                job(Benchmark::Bitcnt, "BIG", CoreConfig::big(), Mode::Redsoc),
                "bitcnt/BIG/redsoc",
                ["eede67e91bcaa65f", "ef4b85c81ee1df34"],
            ),
            (
                job(Benchmark::Crc, "SMALL", CoreConfig::small(), Mode::Ts),
                "crc/SMALL/ts",
                ["67e8244764071b05", "676e0aad2f56d3bc"],
            ),
            (
                job(
                    Benchmark::Xalanc,
                    "MEDIUM",
                    CoreConfig::medium(),
                    Mode::Baseline,
                ),
                "xalanc/MEDIUM/baseline",
                ["fff632594c6985b2", "cc12c3a06b9626ed"],
            ),
        ];
        for (job, key, [d2000, d300k]) in pinned {
            assert_eq!(job.key(), key);
            assert_eq!(job.digest(2000), d2000, "{key} at len 2000");
            assert_eq!(job.digest(300_000), d300k, "{key} at len 300000");
        }
    }

    #[test]
    fn variants_get_their_own_key_digest_and_scheduler() {
        let base = job(Benchmark::Crc, "BIG", CoreConfig::big(), Mode::Redsoc);
        let variant = Job {
            variant: Variant {
                ci_bits: Some(4),
                threshold: Some(15),
                ..Variant::default()
            },
            ..base.clone()
        };
        assert_eq!(variant.key(), "crc/BIG/redsoc/ci4-t15");
        assert_ne!(variant.digest(2000), base.digest(2000));
        let sched = variant.sched().expect("simulator mode");
        assert_eq!((sched.ci_bits, sched.threshold_ticks), (4, 15));
        assert_eq!(base.sched(), Some(SchedulerConfig::redsoc()));
    }

    #[test]
    fn variant_rows_divide_the_default_baseline() {
        let sim = |job: Job, cycles: u64| Cell {
            job,
            status: JobStatus::Ok,
            attempts: 1,
            restored: false,
            wall: Duration::ZERO,
            report: None,
            summary: Some(CellSummary::Sim {
                cycles,
                committed: 50,
                stalls: [0; 10],
                memory: None,
            }),
            failure: None,
        };
        let base = job(Benchmark::Crc, "BIG", CoreConfig::big(), Mode::Baseline);
        let redsoc = Job {
            mode: Mode::Redsoc,
            ..base.clone()
        };
        let pvt = Job {
            variant: Variant {
                pvt: true,
                ..Variant::default()
            },
            ..redsoc.clone()
        };
        let cells = [sim(base, 100), sim(redsoc, 80), sim(pvt, 50)];
        let grid = Grid {
            cells: cells.into_iter().map(|c| (c.job.cell_key(), c)).collect(),
            wall: Duration::ZERO,
            threads: 1,
        };
        let doc = sweep_json(&grid, 100);
        let rows = doc.get("jobs").unwrap().as_arr().unwrap();
        let speedups: Vec<(Option<&str>, f64)> = rows
            .iter()
            .map(|r| {
                (
                    r.get("variant").and_then(Json::as_str),
                    r.get("speedup_over_baseline").unwrap().as_num().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            speedups,
            [(None, 1.0), (None, 1.25), (Some("pvt"), 2.0)],
            "rows in sweep order; the variant divides the default baseline"
        );
        let cell = grid.cell(Benchmark::Crc, "big", Mode::Redsoc).unwrap();
        assert_eq!(grid.speedup(cell), Some(1.25));
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
        // A row that retried (attempts 2) must canonicalise identically
        // to the same row run clean (attempts 1): retries are
        // environment, not results.
        let retried = Json::obj(vec![
            ("attempts", Json::Num(2.0)),
            ("cycles", Json::Num(10.0)),
        ]);
        let clean = Json::obj(vec![
            ("attempts", Json::Num(1.0)),
            ("cycles", Json::Num(10.0)),
        ]);
        assert_eq!(canonicalize_sweep(&retried), canonicalize_sweep(&clean));
    }
}
