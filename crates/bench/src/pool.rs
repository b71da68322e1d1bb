//! Parent-side worker pool for process isolation.
//!
//! Each sweep thread owns at most one `redsoc worker` child (a
//! thread-local slot): jobs ship to it one at a time over the
//! length-prefixed frame protocol in [`worker`](crate::worker), and the
//! parent supervises every attempt with a heartbeat deadline. The
//! supervision contract:
//!
//! - **Heartbeats catch a frozen worker.** The worker's heartbeat thread
//!   emits an empty `heartbeat` frame on a wall timer while a job is
//!   active; the parent waits for *any* frame with
//!   [`WorkerPoolConfig::heartbeat_timeout`]. Silence means the worker
//!   process is frozen or stopped (the injected `freeze` fault) and is
//!   handled like death: SIGKILL, then [`JobError::HeartbeatLost`].
//!   Heartbeats do not bound a running simulation — the thread beats
//!   whatever the simulator does — so only the supervisor's cycle budget
//!   (`--job-timeout`) stops a job that runs too long.
//! - **Death is classified, not propagated.** A worker that dies
//!   mid-job becomes a structured [`JobError`] on that one cell: signal
//!   deaths are [`JobError::Killed`], allocation-failure aborts under a
//!   memory budget are [`JobError::OomKilled`] (keyed on Rust's
//!   `memory allocation of … failed` stderr marker), and a clean exit or
//!   torn frame mid-job is a [`JobError::ProtocolError`]. The worker's
//!   last stderr lines ride along as the failure's event dump.
//! - **Workers are disposable.** Any transport failure discards the
//!   child; the next attempt (the supervisor's retry machinery is
//!   unchanged) spawns a fresh one. Healthy workers are recycled after
//!   32 jobs to bound slow leaks, the classic disposable-worker hygiene.
//!   Worker-reported *job* failures (a deadlock, a timeout, a caught
//!   panic) leave the worker alive — its trace cache is warm and the
//!   failure was contained.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::journal::JournalRecord;
use crate::json::Json;
use crate::supervisor::{CellSummary, JobError};
use crate::worker::{job_error_from_json, read_frame, write_frame, FrameError, JobSpec};

/// How many stderr lines a worker's tail buffer keeps (the post-mortem
/// event dump for a dead worker).
const STDERR_TAIL: usize = 40;

/// Retire a healthy worker after this many jobs (crashed workers are
/// always discarded immediately).
const RECYCLE_AFTER: u32 = 32;

/// Configuration for the process-isolation tier.
#[derive(Debug, Clone)]
pub struct WorkerPoolConfig {
    /// The `redsoc` binary to spawn workers from (normally
    /// `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Per-worker address-space cap, applied by the worker itself via
    /// `setrlimit(RLIMIT_AS)` before its first job.
    pub mem_limit_mb: Option<u64>,
    /// How long the parent tolerates frame silence before declaring the
    /// worker frozen and killing it. A running job keeps heartbeating,
    /// so this never bounds a simulation; the cycle budget does.
    pub heartbeat_timeout: Duration,
}

impl WorkerPoolConfig {
    /// Defaults: no memory cap, 30 s heartbeat deadline.
    #[must_use]
    pub fn new(exe: PathBuf) -> Self {
        WorkerPoolConfig {
            exe,
            mem_limit_mb: None,
            heartbeat_timeout: Duration::from_secs(30),
        }
    }

    /// Worker-side heartbeat period: a quarter of the parent's deadline
    /// (floor 25 ms), so a healthy worker gets ~4 chances per window.
    #[must_use]
    pub fn heartbeat_period_ms(&self) -> u64 {
        (self.heartbeat_timeout.as_millis() as u64 / 4).max(25)
    }
}

/// One live worker child plus its supervision plumbing.
struct WorkerHandle {
    child: std::process::Child,
    stdin: std::process::ChildStdin,
    /// Frames from the reader thread; a send of `Err` is terminal.
    frames: Receiver<Result<Json, FrameError>>,
    stderr_tail: Arc<Mutex<VecDeque<String>>>,
    jobs_done: u32,
}

/// What one dispatch did to the worker.
enum Dispatch {
    /// The worker is alive and usable (the job may still have failed).
    Done(Result<CellSummary, (JobError, Vec<String>)>),
    /// The worker is dead or poisoned; discard it.
    Lost(JobError, Vec<String>),
}

impl WorkerHandle {
    fn spawn(cfg: &WorkerPoolConfig) -> Result<WorkerHandle, String> {
        let mut cmd = std::process::Command::new(&cfg.exe);
        cmd.arg("worker")
            .arg("--heartbeat-ms")
            .arg(cfg.heartbeat_period_ms().to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            // A worker must never think *it* is under fault injection or
            // the die-after-jobs kill; faults reach it via job frames only.
            .env_remove("REDSOC_FAULT")
            .env_remove("REDSOC_DIE_AFTER_JOBS");
        if let Some(mb) = cfg.mem_limit_mb {
            cmd.arg("--mem-limit-mb").arg(mb.to_string());
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn worker from {}: {e}", cfg.exe.display()))?;
        let stdin = child.stdin.take().ok_or("worker stdin not piped")?;
        let stdout = child.stdout.take().ok_or("worker stdout not piped")?;
        let stderr = child.stderr.take().ok_or("worker stderr not piped")?;

        let (tx, frames) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            loop {
                let frame = read_frame(&mut reader);
                let terminal = frame.is_err();
                if tx.send(frame).is_err() || terminal {
                    break;
                }
            }
        });
        let stderr_tail = Arc::new(Mutex::new(VecDeque::new()));
        let tail = Arc::clone(&stderr_tail);
        std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                let mut tail = tail.lock().unwrap_or_else(PoisonError::into_inner);
                if tail.len() == STDERR_TAIL {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
        });

        let mut handle = WorkerHandle {
            child,
            stdin,
            frames,
            stderr_tail,
            jobs_done: 0,
        };
        // Handshake: the worker announces itself before any job ships.
        match handle.frames.recv_timeout(cfg.heartbeat_timeout) {
            Ok(Ok(frame)) if frame.get("type").and_then(Json::as_str) == Some("hello") => {
                Ok(handle)
            }
            other => {
                handle.kill_now();
                Err(format!("worker failed its hello handshake: {other:?}"))
            }
        }
    }

    fn kill_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn tail(&self) -> Vec<String> {
        self.stderr_tail
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Classify a worker that died (or was killed) mid-job. Waits for
    /// the real exit status so the death signal is known.
    fn classify_death(&mut self, mem_limited: bool) -> (JobError, Vec<String>) {
        // Give the stderr drain thread a beat to flush the last lines
        // (the OOM marker arrives just before the abort signal lands).
        let status = self.child.wait();
        let deadline = Instant::now() + Duration::from_millis(200);
        let mut events = self.tail();
        while events.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            events = self.tail();
        }
        let oom_marker = events.iter().any(|l| l.contains("memory allocation of"));
        let error = match status {
            Ok(status) => {
                #[cfg(unix)]
                let signal = std::os::unix::process::ExitStatusExt::signal(&status);
                #[cfg(not(unix))]
                let signal: Option<i32> = None;
                match signal {
                    Some(_) if oom_marker && mem_limited => JobError::OomKilled,
                    Some(signal) => JobError::Killed { signal },
                    None if oom_marker => JobError::OomKilled,
                    None => JobError::ProtocolError {
                        detail: format!("worker exited mid-job with {status}"),
                    },
                }
            }
            Err(e) => JobError::ProtocolError {
                detail: format!("cannot reap dead worker: {e}"),
            },
        };
        (error, events)
    }

    /// Ship one job and supervise it to a reply, a death, or a
    /// heartbeat-silence kill.
    fn dispatch(&mut self, cfg: &WorkerPoolConfig, spec: &JobSpec) -> Dispatch {
        if let Err(e) = write_frame(&mut self.stdin, &spec.to_json()) {
            let (mut err, events) = self.classify_death(cfg.mem_limit_mb.is_some());
            if let JobError::ProtocolError { detail } = &mut err {
                *detail = format!("job frame write failed ({e}); {detail}");
            }
            return Dispatch::Lost(err, events);
        }
        loop {
            match self.frames.recv_timeout(cfg.heartbeat_timeout) {
                Ok(Ok(frame)) => match frame.get("type").and_then(Json::as_str) {
                    Some("heartbeat") => {}
                    Some("ok") => {
                        let record = frame
                            .get("record")
                            .ok_or_else(|| "ok frame without record".to_string())
                            .and_then(JournalRecord::from_json);
                        match record {
                            Ok(rec) => return Dispatch::Done(Ok(rec.summary)),
                            Err(e) => {
                                self.kill_now();
                                return Dispatch::Lost(
                                    JobError::ProtocolError {
                                        detail: format!("unparseable ok frame: {e}"),
                                    },
                                    self.tail(),
                                );
                            }
                        }
                    }
                    Some("err") => {
                        let error = frame
                            .get("error")
                            .ok_or_else(|| "err frame without error".to_string())
                            .and_then(job_error_from_json);
                        let events: Vec<String> = frame
                            .get("events")
                            .and_then(Json::as_arr)
                            .map(|a| {
                                a.iter()
                                    .filter_map(Json::as_str)
                                    .map(str::to_string)
                                    .collect()
                            })
                            .unwrap_or_default();
                        match error {
                            Ok(err) => return Dispatch::Done(Err((err, events))),
                            Err(e) => {
                                self.kill_now();
                                return Dispatch::Lost(
                                    JobError::ProtocolError {
                                        detail: format!("unparseable err frame: {e}"),
                                    },
                                    self.tail(),
                                );
                            }
                        }
                    }
                    other => {
                        self.kill_now();
                        return Dispatch::Lost(
                            JobError::ProtocolError {
                                detail: format!("unexpected frame type {other:?} mid-job"),
                            },
                            self.tail(),
                        );
                    }
                },
                // Reader thread saw EOF or a torn frame: the worker died
                // (or wrote garbage). Reap and classify.
                Ok(Err(FrameError::Eof)) | Err(RecvTimeoutError::Disconnected) => {
                    let (err, events) = self.classify_death(cfg.mem_limit_mb.is_some());
                    return Dispatch::Lost(err, events);
                }
                Ok(Err(FrameError::Protocol(detail))) => {
                    self.kill_now();
                    return Dispatch::Lost(JobError::ProtocolError { detail }, self.tail());
                }
                // Frame silence past the deadline: the worker process is
                // frozen. SIGKILL is the backstop — no cooperation
                // required.
                Err(RecvTimeoutError::Timeout) => {
                    self.kill_now();
                    return Dispatch::Lost(
                        JobError::HeartbeatLost {
                            timeout_ms: cfg.heartbeat_timeout.as_millis() as u64,
                        },
                        self.tail(),
                    );
                }
            }
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        // Polite shutdown first (lets the worker exit cleanly), SIGKILL
        // if it dawdles.
        let _ = write_frame(
            &mut self.stdin,
            &Json::obj(vec![("type", Json::str("shutdown"))]),
        );
        let deadline = Instant::now() + Duration::from_millis(500);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    self.kill_now();
                    return;
                }
            }
        }
    }
}

thread_local! {
    /// This thread's worker slot. Sweep threads are scoped, so the TLS
    /// destructor (→ [`WorkerHandle::drop`]) reaps the child when the
    /// sweep's threads exit.
    static WORKER: std::cell::RefCell<Option<WorkerHandle>> =
        const { std::cell::RefCell::new(None) };
}

/// Run one job attempt on this thread's worker, spawning or recycling
/// the child as needed. Transport failures discard the worker and
/// surface as a transient [`JobError`] so the supervisor's ordinary
/// retry/quarantine machinery applies.
pub(crate) fn run_job_attempt(
    cfg: &WorkerPoolConfig,
    spec: &JobSpec,
) -> Result<CellSummary, (JobError, Vec<String>)> {
    WORKER.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.as_ref().is_some_and(|w| w.jobs_done >= RECYCLE_AFTER) {
            *slot = None; // Drop shuts the old worker down
        }
        if slot.is_none() {
            match WorkerHandle::spawn(cfg) {
                Ok(w) => *slot = Some(w),
                Err(e) => {
                    return Err((
                        JobError::ProtocolError {
                            detail: format!("cannot start worker: {e}"),
                        },
                        Vec::new(),
                    ))
                }
            }
        }
        let Some(worker) = slot.as_mut() else {
            unreachable!("worker slot filled above")
        };
        match worker.dispatch(cfg, spec) {
            Dispatch::Done(outcome) => {
                worker.jobs_done += 1;
                outcome
            }
            Dispatch::Lost(err, events) => {
                *slot = None; // dead or poisoned: never reuse
                Err((err, events))
            }
        }
    })
}

/// Shut down the calling thread's worker, if any. Sweep threads rely on
/// TLS destructors; the sweep's *own* thread (serial runs) calls this
/// explicitly at the end of the grid.
pub(crate) fn shutdown_local_worker() {
    WORKER.with(|slot| {
        *slot.borrow_mut() = None;
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_period_is_a_quarter_of_the_deadline_with_a_floor() {
        let mut cfg = WorkerPoolConfig::new(PathBuf::from("/bin/true"));
        assert_eq!(cfg.heartbeat_period_ms(), 7_500);
        cfg.heartbeat_timeout = Duration::from_millis(40);
        assert_eq!(cfg.heartbeat_period_ms(), 25, "floor stops busy-beating");
    }

    #[test]
    fn spawn_failure_surfaces_as_a_transient_protocol_error() {
        let cfg = WorkerPoolConfig::new(PathBuf::from("/nonexistent/redsoc-worker"));
        let spec = JobSpec {
            bench: "crc".into(),
            core: "BIG".into(),
            mem_model: "classic".into(),
            mode: "baseline".into(),
            trace_len: 2000,
            digest: "d".into(),
            attempt: 1,
            budget: None,
            ts_base: None,
            fault: None,
        };
        let err = run_job_attempt(&cfg, &spec).unwrap_err();
        assert_eq!(err.0.kind(), "protocol");
        assert!(err.0.is_transient(), "retries must apply to spawn failures");
    }
}
