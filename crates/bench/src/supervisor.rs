//! Job supervision: error taxonomy, bounded retries, fault injection.
//!
//! A sweep cell runs under a **supervisor** ([`supervise`]): the job body
//! executes inside `catch_unwind`, every failure is classified into a
//! structured [`JobError`], and a failed job degrades to one cell rather
//! than aborting the sweep. Only the death of a process-isolation worker
//! is transient: it is retried at once, up to a bound, and a job whose
//! workers keep dying is **quarantined**. Retries do not sleep: a dead
//! worker is replaced before the next attempt anyway. Everything that
//! happens inside the simulator — an error, a cycle-budget timeout, a
//! panic — fails fast: the simulator is deterministic, so a retry
//! reproduces the failure bit for bit.
//!
//! The module also hosts the **fault-injection plan** ([`FaultPlan`])
//! used by the crash-safety test harness: faults are keyed by job
//! (`bench/CORE/mode`) and can make a cell panic, hang until the
//! watchdog fires, fail with a simulator error, or kill its worker. Production sweeps run with an empty plan; the injection
//! points cost one hash lookup per job attempt.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use redsoc_core::pipeline::SimError;
use redsoc_core::stats::StallCause;

use crate::json::Json;

/// Why a job failed: the structured taxonomy every failure is mapped to
/// (no panic escapes a supervised cell).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The simulator returned an error (deadlock watchdog, bad config).
    Sim(SimError),
    /// The job body panicked; `payload` is the panic message.
    Panicked {
        /// Stringified panic payload.
        payload: String,
    },
    /// The cooperative cycle-budget watchdog cancelled the run.
    Timeout {
        /// The cycle budget the job exceeded.
        budget: u64,
    },
    /// A process-isolation worker died from a signal mid-job (crash,
    /// abort, external kill).
    Killed {
        /// The fatal signal number.
        signal: i32,
    },
    /// A process-isolation worker exceeded its `--mem-limit-mb` address
    /// space budget and was killed by its own allocation-failure abort.
    OomKilled,
    /// A process-isolation worker stopped emitting heartbeat frames and
    /// was killed by the supervisor's SIGKILL backstop.
    HeartbeatLost {
        /// The heartbeat window that elapsed without a frame.
        timeout_ms: u64,
    },
    /// The worker protocol broke down: a torn or malformed frame, an
    /// oversized length prefix, or a worker that exited cleanly mid-job.
    ProtocolError {
        /// What went wrong on the wire.
        detail: String,
    },
}

impl JobError {
    /// Short machine-readable kind label (the v3 JSON `error.kind`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Sim(_) => "sim",
            JobError::Panicked { .. } => "panicked",
            JobError::Timeout { .. } => "timeout",
            JobError::Killed { .. } => "killed",
            JobError::OomKilled => "oom-killed",
            JobError::HeartbeatLost { .. } => "heartbeat-lost",
            JobError::ProtocolError { .. } => "protocol",
        }
    }

    /// Whether retrying could plausibly succeed: only for a worker
    /// death, which can be environmental (an external kill, a crash of
    /// the worker process around the job). Simulator errors, cycle
    /// budgets and panics come from the deterministic simulator, so a
    /// retry would fail the same way.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            JobError::Killed { .. }
                | JobError::OomKilled
                | JobError::HeartbeatLost { .. }
                | JobError::ProtocolError { .. }
        )
    }

    /// The terminal [`JobStatus`] for a job that failed with this error
    /// after the supervisor gave up.
    #[must_use]
    pub fn terminal_status(&self) -> JobStatus {
        match self {
            JobError::Timeout { .. } => JobStatus::Timeout,
            JobError::Panicked { .. }
            | JobError::Killed { .. }
            | JobError::OomKilled
            | JobError::HeartbeatLost { .. }
            | JobError::ProtocolError { .. } => JobStatus::Quarantined,
            JobError::Sim(_) => JobStatus::Failed,
        }
    }
}

impl core::fmt::Display for JobError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            JobError::Sim(e) => write!(f, "simulator error: {e}"),
            JobError::Panicked { payload } => write!(f, "job panicked: {payload}"),
            JobError::Timeout { budget } => {
                write!(f, "exceeded cycle budget of {budget} cycles")
            }
            JobError::Killed { signal } => {
                write!(f, "worker killed by signal {signal}")
            }
            JobError::OomKilled => {
                write!(f, "worker exceeded its memory budget and was killed")
            }
            JobError::HeartbeatLost { timeout_ms } => {
                write!(f, "worker heartbeat lost for {timeout_ms} ms")
            }
            JobError::ProtocolError { detail } => {
                write!(f, "worker protocol error: {detail}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Terminal state of a supervised job (the v3 JSON `status` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed successfully (possibly after retries, possibly restored
    /// from a resume journal).
    Ok,
    /// Failed deterministically (a simulator error).
    Failed,
    /// Cancelled by the cycle-budget watchdog.
    Timeout,
    /// Panicked, or its worker kept dying until the retries ran out.
    Quarantined,
}

impl JobStatus {
    /// Machine-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Failed => "failed",
            JobStatus::Timeout => "timeout",
            JobStatus::Quarantined => "quarantined",
        }
    }
}

/// Per-job memory-model statistics journaled alongside a sim summary.
///
/// Present only for contention-modelling memory models; the classic
/// fixed-latency model reports `None`, keeping its sweep JSON
/// byte-identical to pre-port builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSummary {
    /// Memory-model label (e.g. `"contended"`).
    pub model: String,
    /// Loads structurally rejected because every MSHR was busy.
    pub mshr_rejects: u64,
    /// Loads merged onto an MSHR already in flight for their line.
    pub mshr_merges: u64,
    /// Total cycles requests waited for a free cache access port.
    pub port_wait_cycles: u64,
    /// Total cycles requests waited in the DRAM queue.
    pub dram_wait_cycles: u64,
}

impl MemSummary {
    /// The `memory` object of a journal line or sweep row.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("model", Json::str(&self.model)),
            ("mshr_rejects", Json::num(self.mshr_rejects as f64)),
            ("mshr_merges", Json::num(self.mshr_merges as f64)),
            ("port_wait_cycles", Json::num(self.port_wait_cycles as f64)),
            ("dram_wait_cycles", Json::num(self.dram_wait_cycles as f64)),
        ])
    }
}

/// The numbers a sweep row needs from a completed job — small enough to
/// journal as one JSONL line, complete enough to rebuild the job's v3
/// JSON row without re-running the simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum CellSummary {
    /// A cycle-level simulator job.
    Sim {
        /// Simulated cycles.
        cycles: u64,
        /// Committed instructions.
        committed: u64,
        /// Per-cause stall cycles, indexed like [`StallCause::all`].
        stalls: [u64; 10],
        /// Memory-model contention statistics (`None` under classic).
        memory: Option<MemSummary>,
    },
    /// A timing-speculation job: the simulator under a shortened clock.
    Ts {
        /// Simulated cycles at the shortened clock.
        cycles: u64,
        /// Committed instructions.
        committed: u64,
        /// The shortened clock period (ps); [`Grid::speedup`] turns it
        /// into a wall-clock speedup over the baseline cell.
        ///
        /// [`Grid::speedup`]: crate::grid::Grid::speedup
        clock_ps: u32,
    },
}

impl CellSummary {
    /// Simulated cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        match self {
            CellSummary::Sim { cycles, .. } | CellSummary::Ts { cycles, .. } => *cycles,
        }
    }

    /// Committed instruction count.
    #[must_use]
    pub fn committed(&self) -> u64 {
        match self {
            CellSummary::Sim { committed, .. } | CellSummary::Ts { committed, .. } => *committed,
        }
    }

    /// The stall counters of a simulator summary.
    #[must_use]
    pub fn stalls(&self) -> Option<&[u64; 10]> {
        match self {
            CellSummary::Sim { stalls, .. } => Some(stalls),
            CellSummary::Ts { .. } => None,
        }
    }

    /// The memory-model summary of a simulator cell, when the job ran a
    /// contention-modelling memory model.
    #[must_use]
    pub fn memory(&self) -> Option<&MemSummary> {
        match self {
            CellSummary::Sim { memory, .. } => memory.as_ref(),
            CellSummary::Ts { .. } => None,
        }
    }
}

/// Stall-cause labels in the canonical order used by [`CellSummary::Sim`].
#[must_use]
pub fn stall_labels() -> [&'static str; 10] {
    StallCause::all().map(StallCause::label)
}

/// An injected fault for one job key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the attempt: the job quarantines after one attempt.
    Panic,
    /// Replace the job with an endless instruction stream: the job never
    /// finishes on its own and must be stopped by the cycle-budget
    /// watchdog (or by killing the process — the crash-safety test).
    Hang,
    /// Fail deterministically with a simulator error.
    Fail,
    /// `abort()` the executing process. Under `--isolation process` this
    /// kills one disposable worker (classified `killed`); under thread
    /// isolation it is fatal to the whole sweep — the exact failure mode
    /// process isolation exists to contain.
    Abort,
    /// Allocate address space until the allocator fails. Under a worker
    /// `--mem-limit-mb` rlimit the allocation failure aborts the worker
    /// (classified `oom-killed`); without a limit the allocation is
    /// capped and ends in an abort, so thread-isolation runs die rather
    /// than eat the machine.
    Oom,
    /// Stop emitting heartbeats and park forever: exercises the parent's
    /// heartbeat-loss SIGKILL backstop. Fatal (an abort) under thread
    /// isolation, which has no heartbeat to lose.
    Freeze,
}

impl Fault {
    /// The `REDSOC_FAULT` spec string for this fault (round-trips through
    /// [`Fault::parse_kind`]); also the wire form forwarded to isolation
    /// workers in job frames.
    #[must_use]
    pub fn spec(self) -> &'static str {
        match self {
            Fault::Panic => "panic",
            Fault::Hang => "hang",
            Fault::Fail => "fail",
            Fault::Abort => "abort",
            Fault::Oom => "oom",
            Fault::Freeze => "freeze",
        }
    }

    /// Parse one fault kind (the part after `=` in a `REDSOC_FAULT`
    /// entry).
    ///
    /// # Errors
    ///
    /// Returns a description of the unknown or malformed kind.
    pub fn parse_kind(kind: &str) -> Result<Fault, String> {
        match kind.trim() {
            "hang" => Ok(Fault::Hang),
            "fail" => Ok(Fault::Fail),
            "abort" => Ok(Fault::Abort),
            "oom" => Ok(Fault::Oom),
            "freeze" => Ok(Fault::Freeze),
            "panic" => Ok(Fault::Panic),
            other => Err(format!(
                "unknown fault kind {other:?} (panic|hang|fail|abort|oom|freeze)"
            )),
        }
    }
}

/// A set of injected faults keyed by job (`bench/CORE/mode`).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: HashMap<String, Fault>,
}

impl FaultPlan {
    /// The empty plan (production behaviour).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether any fault is planned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Add a fault for `key` (builder-style).
    #[must_use]
    pub fn with(mut self, key: &str, fault: Fault) -> Self {
        self.faults.insert(key.to_string(), fault);
        self
    }

    /// The fault planned for `key`, if any.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Fault> {
        self.faults.get(key).copied()
    }

    /// Parse a plan from the `REDSOC_FAULT` syntax:
    /// comma-separated `bench/CORE/mode=kind` entries where `kind` is
    /// `panic`, `hang`, `fail`, `abort`, `oom`, or `freeze`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let (key, kind) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry {entry:?} is not key=kind"))?;
            let fault =
                Fault::parse_kind(kind).map_err(|e| format!("fault entry {entry:?}: {e}"))?;
            plan.faults.insert(key.trim().to_string(), fault);
        }
        Ok(plan)
    }

    /// Parse the plan from the `REDSOC_FAULT` environment variable; the
    /// empty plan when unset.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::parse`] errors.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("REDSOC_FAULT") {
            Ok(spec) => FaultPlan::parse(&spec),
            Err(_) => Ok(FaultPlan::none()),
        }
    }
}

/// Supervisor policy for one sweep.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Retries granted after a worker death (so a job runs at most
    /// `1 + max_retries` times).
    pub max_retries: u32,
    /// Cycle budget per job attempt; `None` disables the watchdog.
    pub job_timeout_cycles: Option<u64>,
    /// Injected faults (crash-safety tests; empty otherwise).
    pub faults: FaultPlan,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            job_timeout_cycles: None,
            faults: FaultPlan::none(),
        }
    }
}

/// What one supervised job produced: the value on success, the final
/// error otherwise, plus how many attempts were made.
#[derive(Debug)]
pub struct Supervised<R> {
    /// The job's result.
    pub result: Result<R, JobError>,
    /// Attempts made (1 for a first-try success).
    pub attempts: u32,
}

/// Run `attempt_fn` under supervision: panics are caught and classified,
/// transient failures retried at once up to `cfg.max_retries` times,
/// deterministic failures returned immediately.
///
/// `attempt_fn` receives the 1-based attempt number (a worker's job frame
/// carries it).
pub fn supervise<R>(
    cfg: &SupervisorConfig,
    mut attempt_fn: impl FnMut(u32) -> Result<R, JobError>,
) -> Supervised<R> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        let outcome =
            catch_unwind(AssertUnwindSafe(|| attempt_fn(attempts))).unwrap_or_else(|payload| {
                Err(JobError::Panicked {
                    payload: panic_message(payload.as_ref()),
                })
            });
        match outcome {
            Err(err) if err.is_transient() && attempts <= cfg.max_retries => {}
            result => return Supervised { result, attempts },
        }
    }
}

/// Best-effort stringification of a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn first_try_success_is_one_attempt() {
        let s = supervise(&SupervisorConfig::default(), |_| Ok::<_, JobError>(7));
        assert_eq!(s.attempts, 1);
        assert_eq!(s.result.unwrap(), 7);
    }

    #[test]
    fn worker_death_is_retried_then_succeeds() {
        let s = supervise(&SupervisorConfig::default(), |attempt| {
            assert!(attempt <= 3);
            if attempt <= 2 {
                return Err(JobError::Killed { signal: 9 });
            }
            Ok::<_, JobError>("recovered")
        });
        assert_eq!(s.attempts, 3, "1 try + 2 retries");
        assert_eq!(s.result.unwrap(), "recovered");
    }

    #[test]
    fn panic_runs_once_and_quarantines() {
        let mut calls = 0;
        let s = supervise(&SupervisorConfig::default(), |_| -> Result<(), JobError> {
            calls += 1;
            panic!("always broken");
        });
        assert_eq!(
            (s.attempts, calls),
            (1, 1),
            "a deterministic panic: no retry"
        );
        let err = s.result.unwrap_err();
        assert!(matches!(&err, JobError::Panicked { payload } if payload.contains("always")));
        assert_eq!(err.terminal_status(), JobStatus::Quarantined);
    }

    #[test]
    fn deterministic_failures_are_not_retried() {
        let mut calls = 0;
        let s = supervise(&SupervisorConfig::default(), |_| -> Result<(), JobError> {
            calls += 1;
            Err(JobError::Timeout { budget: 100 })
        });
        assert_eq!(s.attempts, 1);
        assert_eq!(calls, 1, "timeouts are deterministic: no retry");
        assert_eq!(s.result.unwrap_err().terminal_status(), JobStatus::Timeout);
    }

    #[test]
    fn fault_plan_parses_the_env_syntax() {
        let plan =
            FaultPlan::parse("crc/BIG/redsoc=hang, bitcnt/SMALL/baseline=panic,conv/BIG/ts=fail")
                .expect("valid spec");
        assert_eq!(plan.get("crc/BIG/redsoc"), Some(Fault::Hang));
        assert_eq!(plan.get("bitcnt/SMALL/baseline"), Some(Fault::Panic));
        assert_eq!(plan.get("conv/BIG/ts"), Some(Fault::Fail));
        assert_eq!(plan.get("missing/BIG/mos"), None);
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("a/b/c=explode").is_err());
        assert!(
            FaultPlan::parse("a/b/c=panic:2").is_err(),
            "a panic is not retried, so it takes no count"
        );
        assert!(FaultPlan::parse("").expect("empty ok").is_empty());
    }

    #[test]
    fn error_taxonomy_maps_to_statuses() {
        use redsoc_core::pipeline::SimError;
        assert_eq!(
            JobError::Sim(SimError::BadConfig("x".into())).terminal_status(),
            JobStatus::Failed
        );
        let panicked = JobError::Panicked {
            payload: "p".into(),
        };
        assert!(!panicked.is_transient());
        assert_eq!(panicked.terminal_status(), JobStatus::Quarantined);
    }

    #[test]
    fn worker_death_errors_are_transient_and_quarantine() {
        for err in [
            JobError::Killed { signal: 9 },
            JobError::OomKilled,
            JobError::HeartbeatLost { timeout_ms: 500 },
            JobError::ProtocolError {
                detail: "torn frame".into(),
            },
        ] {
            assert!(err.is_transient(), "{err} must be retryable");
            assert_eq!(err.terminal_status(), JobStatus::Quarantined);
        }
        assert_eq!(JobError::Killed { signal: 6 }.kind(), "killed");
        assert_eq!(JobError::OomKilled.kind(), "oom-killed");
        assert_eq!(
            JobError::HeartbeatLost { timeout_ms: 1 }.kind(),
            "heartbeat-lost"
        );
        assert_eq!(
            JobError::ProtocolError { detail: "x".into() }.kind(),
            "protocol"
        );
    }

    #[test]
    fn fault_specs_round_trip_and_parse() {
        for fault in [
            Fault::Panic,
            Fault::Hang,
            Fault::Fail,
            Fault::Abort,
            Fault::Oom,
            Fault::Freeze,
        ] {
            assert_eq!(Fault::parse_kind(fault.spec()), Ok(fault));
        }
        let plan = FaultPlan::parse("a/B/c=abort,d/E/f=oom,g/H/i=freeze").expect("valid");
        assert_eq!(plan.get("a/B/c"), Some(Fault::Abort));
        assert_eq!(plan.get("d/E/f"), Some(Fault::Oom));
        assert_eq!(plan.get("g/H/i"), Some(Fault::Freeze));
    }
}
