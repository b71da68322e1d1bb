//! The process-isolation worker: wire protocol and child-side job loop.
//!
//! `redsoc bench --isolation process` runs every grid cell in a
//! disposable `redsoc worker` child process instead of a thread.
//! `catch_unwind` cannot contain aborts, allocator failure or stack
//! overflows; a process boundary contains all of them, so one
//! pathological cell costs one worker, never the sweep. Heartbeat loss
//! catches a worker process that freezes or stops; a simulation that
//! runs too long is bounded by the cycle budget alone, as under thread
//! isolation.
//!
//! **Wire format.** Parent and worker speak length-prefixed JSON frames
//! over the worker's stdin/stdout: a 4-byte big-endian payload length
//! (1..=[`MAX_FRAME`] bytes) followed by one compact JSON object with a
//! `type` field. Frame types: `hello` (worker → parent, once at startup),
//! `job` (parent → worker, one grid cell), `heartbeat` (worker → parent,
//! an empty wall-timed liveness frame while a job runs), `ok` / `err`
//! (worker → parent, one per job), and `shutdown` (parent → worker).
//! Anything else — a torn frame, an oversized prefix, garbage bytes, an
//! EOF mid-frame — is a [`FrameError::Protocol`] and never a panic or a
//! hang.
//!
//! **Worker lifecycle.** The worker optionally caps its own address
//! space via `setrlimit(RLIMIT_AS)` before the first frame, then loops:
//! read a job frame, rebuild the [`Job`] from names, verify the parent's
//! configuration digest, execute one attempt under `catch_unwind`, and
//! reply `ok` or `err`. The trace cache persists across jobs, so a
//! recycled worker is the only thing that pays trace generation twice.
//! Stdout carries only frames; human diagnostics go to stderr, which the
//! parent tails into the failure record of any cell whose worker dies.
//!
//! The parent half — the pool, heartbeat supervision, and failure
//! classification — lives in [`pool`](crate::pool).

use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use redsoc_core::pipeline::SimError;
use redsoc_workloads::Benchmark;

use crate::grid::{Job, Mode, Variant};
use crate::journal::JournalRecord;
use crate::json::Json;
use crate::runner::attempt_with_faults;
use crate::supervisor::{panic_message, Fault, FaultPlan, JobError, SupervisorConfig};
use crate::TraceCache;

/// Maximum accepted frame payload (bytes). Large enough for any job or
/// result frame (post-mortem event dumps included); anything bigger is a
/// corrupt or hostile length prefix.
pub const MAX_FRAME: usize = 4 << 20;

/// Why a frame could not be read.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Clean end of stream on a frame boundary (the peer closed the
    /// pipe between frames — normal shutdown).
    Eof,
    /// The stream is broken: torn frame, bad length, garbage payload, or
    /// EOF inside a frame.
    Protocol(String),
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Protocol(d) => write!(f, "{d}"),
        }
    }
}

/// Write one frame: 4-byte big-endian payload length, then the compact
/// JSON payload, flushed.
///
/// # Errors
///
/// Propagates I/O errors (a dead peer surfaces here as a broken pipe).
pub fn write_frame(w: &mut impl Write, frame: &Json) -> std::io::Result<()> {
    let payload = frame.compact();
    let bytes = payload.as_bytes();
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one frame. Distinguishes a clean EOF on a frame boundary
/// ([`FrameError::Eof`]) from every broken-stream condition
/// ([`FrameError::Protocol`]): EOF inside the length prefix or payload,
/// a zero or oversized length, non-UTF-8 bytes, and non-JSON payloads
/// all fail structurally — never a panic, never a hang on a complete
/// stream.
///
/// # Errors
///
/// [`FrameError`] as described above.
pub fn read_frame(r: &mut impl Read) -> Result<Json, FrameError> {
    let mut len_buf = [0u8; 4];
    // First byte read separately: zero bytes here is a clean EOF, while
    // EOF after it is a torn prefix.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(FrameError::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Protocol(format!("read error: {e}"))),
        }
    }
    len_buf[0] = first[0];
    r.read_exact(&mut len_buf[1..])
        .map_err(|e| FrameError::Protocol(format!("eof inside frame length: {e}")))?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(FrameError::Protocol(format!(
            "frame length {len} out of range (1..={MAX_FRAME})"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)
        .map_err(|e| FrameError::Protocol(format!("torn frame ({len} bytes expected): {e}")))?;
    let text = std::str::from_utf8(&buf)
        .map_err(|e| FrameError::Protocol(format!("frame is not UTF-8: {e}")))?;
    Json::parse(text).map_err(|e| FrameError::Protocol(format!("frame is not JSON: {e}")))
}

/// One grid cell as shipped to a worker: everything needed to rebuild
/// the [`Job`] from names plus the supervision context for one attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Benchmark name.
    pub bench: String,
    /// Core display name (`BIG` / `MEDIUM` / `SMALL`).
    pub core: String,
    /// Memory-model label (`classic` / `contended`).
    pub mem_model: String,
    /// Scheduler-mode label.
    pub mode: String,
    /// Trace length the parent's grid runs at.
    pub trace_len: u64,
    /// The parent's configuration digest; the worker recomputes and
    /// verifies it, so a parent/worker configuration skew fails loudly
    /// instead of producing silently wrong numbers.
    pub digest: String,
    /// 1-based attempt number (the worker's diagnostics and journal
    /// record echo it).
    pub attempt: u32,
    /// Cooperative cycle budget, when the sweep runs with one.
    pub budget: Option<u64>,
    /// Ignored: a TS cell no longer needs its baseline, so this is
    /// neither sent nor read (a parsed spec holds `None`). It remains
    /// only so that existing struct literals keep compiling, and will be
    /// removed.
    pub ts_base: Option<(u64, u64)>,
    /// Injected fault spec for this cell ([`Fault::spec`]), if any.
    pub fault: Option<String>,
}

impl JobSpec {
    /// Serialise as a `job` frame payload.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("type", Json::str("job")),
            ("bench", Json::str(&self.bench)),
            ("core", Json::str(&self.core)),
            ("mem_model", Json::str(&self.mem_model)),
            ("mode", Json::str(&self.mode)),
            ("trace_len", Json::num(self.trace_len as f64)),
            ("digest", Json::str(&self.digest)),
            ("attempt", Json::num(f64::from(self.attempt))),
        ];
        if let Some(b) = self.budget {
            pairs.push(("budget", Json::num(b as f64)));
        }
        if let Some(f) = &self.fault {
            pairs.push(("fault", Json::str(f)));
        }
        Json::obj(pairs)
    }

    /// Parse a `job` frame payload.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field; a
    /// count that is negative, fractional or out of its type's range is
    /// mistyped.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let str_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("job frame missing string field {k:?}"))
        };
        Ok(JobSpec {
            bench: str_field("bench")?,
            core: str_field("core")?,
            mem_model: str_field("mem_model")?,
            mode: str_field("mode")?,
            trace_len: doc.count("trace_len")?,
            digest: str_field("digest")?,
            attempt: doc.count("attempt")?,
            budget: doc.get("budget").map(|_| doc.count("budget")).transpose()?,
            ts_base: None,
            fault: doc.get("fault").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// Serialise a [`JobError`] for an `err` frame. Simulator errors keep
/// their full structure (cycle, committed count, post-mortem events), so
/// the parent reconstructs exactly the error a thread-isolation run
/// would have produced — isolation changes *where* a cell runs, never
/// how its failure reads.
#[must_use]
pub fn job_error_to_json(err: &JobError) -> Json {
    let kinded = |k: &str| vec![("kind", Json::str(k))];
    match err {
        JobError::Sim(SimError::Deadlock {
            cycle,
            committed,
            recent_events,
        }) => Json::obj(vec![
            ("kind", Json::str("sim-deadlock")),
            ("cycle", Json::num(*cycle as f64)),
            ("committed", Json::num(*committed as f64)),
            (
                "recent_events",
                Json::Arr(recent_events.iter().map(|e| Json::str(e)).collect()),
            ),
        ]),
        JobError::Sim(SimError::Cancelled {
            cycle,
            committed,
            recent_events,
        }) => Json::obj(vec![
            ("kind", Json::str("sim-cancelled")),
            ("cycle", Json::num(*cycle as f64)),
            ("committed", Json::num(*committed as f64)),
            (
                "recent_events",
                Json::Arr(recent_events.iter().map(|e| Json::str(e)).collect()),
            ),
        ]),
        JobError::Sim(SimError::BadConfig(msg)) => Json::obj(vec![
            ("kind", Json::str("sim-badconfig")),
            ("message", Json::str(msg)),
        ]),
        JobError::Panicked { payload } => Json::obj(vec![
            ("kind", Json::str("panicked")),
            ("payload", Json::str(payload)),
        ]),
        JobError::Timeout { budget } => Json::obj(vec![
            ("kind", Json::str("timeout")),
            ("budget", Json::num(*budget as f64)),
        ]),
        JobError::Killed { signal } => Json::obj(vec![
            ("kind", Json::str("killed")),
            ("signal", Json::num(f64::from(*signal))),
        ]),
        JobError::OomKilled => Json::obj(kinded("oom-killed")),
        JobError::HeartbeatLost { timeout_ms } => Json::obj(vec![
            ("kind", Json::str("heartbeat-lost")),
            ("timeout_ms", Json::num(*timeout_ms as f64)),
        ]),
        JobError::ProtocolError { detail } => Json::obj(vec![
            ("kind", Json::str("protocol")),
            ("detail", Json::str(detail)),
        ]),
    }
}

/// Parse a [`JobError`] back from an `err` frame.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field (see
/// [`JobSpec::from_json`]) or unknown kind.
pub fn job_error_from_json(doc: &Json) -> Result<JobError, String> {
    let str_field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("error frame missing string field {k:?}"))
    };
    let events = || -> Vec<String> {
        doc.get("recent_events")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    };
    match str_field("kind")?.as_str() {
        "sim-deadlock" => Ok(JobError::Sim(SimError::Deadlock {
            cycle: doc.count("cycle")?,
            committed: doc.count("committed")?,
            recent_events: events(),
        })),
        "sim-cancelled" => Ok(JobError::Sim(SimError::Cancelled {
            cycle: doc.count("cycle")?,
            committed: doc.count("committed")?,
            recent_events: events(),
        })),
        "sim-badconfig" => Ok(JobError::Sim(SimError::BadConfig(str_field("message")?))),
        "panicked" => Ok(JobError::Panicked {
            payload: str_field("payload")?,
        }),
        "timeout" => Ok(JobError::Timeout {
            budget: doc.count("budget")?,
        }),
        "killed" => Ok(JobError::Killed {
            signal: doc.count("signal")?,
        }),
        "oom-killed" => Ok(JobError::OomKilled),
        "heartbeat-lost" => Ok(JobError::HeartbeatLost {
            timeout_ms: doc.count("timeout_ms")?,
        }),
        "protocol" => Ok(JobError::ProtocolError {
            detail: str_field("detail")?,
        }),
        other => Err(format!("unknown error kind {other:?}")),
    }
}

/// Cap this process's address space via `setrlimit(RLIMIT_AS)`. Any
/// later allocation beyond the cap fails; Rust's allocation-failure
/// handler prints `memory allocation of N bytes failed` to stderr and
/// aborts, which the parent classifies as [`JobError::OomKilled`].
///
/// # Errors
///
/// Returns a message when the kernel rejects the limit or the platform
/// has no `RLIMIT_AS` (non-Linux).
#[cfg(target_os = "linux")]
pub fn set_mem_limit(bytes: u64) -> Result<(), String> {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    const RLIMIT_AS: i32 = 9;
    let lim = RLimit {
        cur: bytes,
        max: bytes,
    };
    // SAFETY: `lim` is a valid, initialised rlimit struct matching the
    // kernel ABI for RLIMIT_AS on 64-bit Linux; setrlimit only reads it.
    let rc = unsafe { setrlimit(RLIMIT_AS, &lim) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "setrlimit(RLIMIT_AS, {bytes}) failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Non-Linux stub: there is no portable `RLIMIT_AS`, so the flag is
/// rejected rather than silently ignored.
#[cfg(not(target_os = "linux"))]
pub fn set_mem_limit(_bytes: u64) -> Result<(), String> {
    Err("--mem-limit-mb requires Linux (setrlimit RLIMIT_AS)".to_string())
}

/// The injected `oom` fault body: allocate address space in 64 MiB
/// steps until the allocator fails (under a `--mem-limit-mb` rlimit the
/// failure aborts with the allocation-failure message the parent keys
/// on) or a 1.5 GiB cap is reached, then abort — so an unlimited
/// thread-isolation run dies quickly instead of eating the machine.
pub(crate) fn oom_fault_and_abort(key: &str) -> ! {
    const STEP: usize = 64 << 20;
    const CAP: usize = 3 << 29; // 1.5 GiB
    let mut hoard: Vec<Vec<u8>> = Vec::new();
    while hoard.len() * STEP < CAP {
        // Touch one byte per page-ish stride so the reservation is real
        // under overcommit as well as under RLIMIT_AS.
        let mut block = vec![0u8; STEP];
        for i in (0..block.len()).step_by(4096) {
            block[i] = 1;
        }
        hoard.push(block);
    }
    eprintln!("injected oom fault for {key}: allocation cap reached without allocator failure");
    std::process::abort();
}

/// Options for [`run_worker`] (the `redsoc worker` subcommand).
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Address-space cap applied to this worker before any job runs.
    pub mem_limit_mb: Option<u64>,
    /// Heartbeat emission period while a job is active.
    pub heartbeat_ms: u64,
}

/// Shared state between the worker's job loop and its heartbeat thread.
struct WorkerShared {
    out: Mutex<std::io::Stdout>,
    /// A job is currently executing (heartbeats are emitted only then,
    /// so an idle worker never fills the pipe).
    active: AtomicBool,
}

impl WorkerShared {
    fn send(&self, frame: &Json) -> std::io::Result<()> {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        write_frame(&mut *out, frame)
    }
}

/// Rebuild the parent's [`Job`] from the names in a spec. Every lookup
/// failure is a configuration skew between parent and worker binaries.
fn job_from_spec(spec: &JobSpec) -> Result<Job, String> {
    let bench = Benchmark::all()
        .into_iter()
        .find(|b| b.name() == spec.bench)
        .ok_or_else(|| format!("unknown benchmark {:?}", spec.bench))?;
    let (core_name, core) = crate::cores()
        .into_iter()
        .find(|(name, _)| *name == spec.core)
        .ok_or_else(|| format!("unknown core {:?}", spec.core))?;
    let mem = redsoc_mem::MemModelConfig::parse(&spec.mem_model)
        .ok_or_else(|| format!("unknown memory model {:?}", spec.mem_model))?;
    let mode = Mode::all()
        .into_iter()
        .find(|m| m.label() == spec.mode)
        .ok_or_else(|| format!("unknown mode {:?}", spec.mode))?;
    Ok(Job {
        bench,
        core_name,
        core: core.with_mem_model(mem),
        mode,
        variant: Variant::default(),
    })
}

/// Execute one job attempt and return the reply frame.
fn run_job(spec: &JobSpec, cache: &TraceCache, shared: &Arc<WorkerShared>) -> Json {
    let err_frame = |err: &JobError, events: &[String]| {
        Json::obj(vec![
            ("type", Json::str("err")),
            ("error", job_error_to_json(err)),
            (
                "events",
                Json::Arr(events.iter().map(|e| Json::str(e)).collect()),
            ),
        ])
    };
    let job = match job_from_spec(spec) {
        Ok(job) => job,
        Err(msg) => return err_frame(&JobError::Sim(SimError::BadConfig(msg)), &[]),
    };
    let key = job.key();
    if job.digest(spec.trace_len) != spec.digest {
        let msg = format!(
            "configuration digest mismatch for {key}: parent sent {}, worker computes {} \
             (parent and worker binaries disagree)",
            spec.digest,
            job.digest(spec.trace_len)
        );
        return err_frame(&JobError::Sim(SimError::BadConfig(msg)), &[]);
    }

    let fault = spec.fault.as_deref().map(Fault::parse_kind);
    let fault = match fault {
        None => None,
        Some(Ok(f)) => Some(f),
        Some(Err(e)) => {
            return err_frame(
                &JobError::Sim(SimError::BadConfig(format!("bad fault spec: {e}"))),
                &[],
            )
        }
    };
    // Destructive faults execute *here*, inside the disposable worker —
    // the whole point of process isolation. The parent observes a signal
    // death (or heartbeat loss) and classifies it.
    match fault {
        Some(Fault::Abort) => {
            eprintln!("injected abort fault for {key} (attempt {})", spec.attempt);
            std::process::abort();
        }
        Some(Fault::Oom) => {
            eprintln!("injected oom fault for {key} (attempt {})", spec.attempt);
            oom_fault_and_abort(&key);
        }
        Some(Fault::Freeze) => {
            // Stop heartbeating and park: the parent's SIGKILL backstop
            // must reap us. Never reply.
            eprintln!("injected freeze fault for {key} (attempt {})", spec.attempt);
            shared.active.store(false, Ordering::Relaxed);
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        _ => {}
    }

    let mut sup = SupervisorConfig {
        job_timeout_cycles: spec.budget,
        ..SupervisorConfig::default()
    };
    if let Some(f) = fault {
        sup.faults = FaultPlan::none().with(&key, f);
    }
    shared.active.store(true, Ordering::Relaxed);
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| attempt_with_faults(cache, &job, &sup)));
    shared.active.store(false, Ordering::Relaxed);

    match outcome {
        Ok(Ok((_report, summary))) => {
            let rec = JournalRecord {
                key,
                digest: spec.digest.clone(),
                attempts: spec.attempt,
                backoff_ms: 0,
                wall_seconds: start.elapsed().as_secs_f64(),
                summary,
            };
            Json::obj(vec![("type", Json::str("ok")), ("record", rec.to_json())])
        }
        Ok(Err((err, events))) => err_frame(&err, &events),
        Err(payload) => err_frame(
            &JobError::Panicked {
                payload: panic_message(payload.as_ref()),
            },
            &[],
        ),
    }
}

/// The worker main loop (the `redsoc worker` subcommand): apply the
/// memory budget, announce readiness, then execute job frames from
/// stdin one at a time until `shutdown` or EOF.
///
/// # Errors
///
/// Returns a message on a broken parent pipe or a protocol violation —
/// the worker exits nonzero and the parent classifies the cell.
pub fn run_worker(opts: &WorkerOptions) -> Result<(), String> {
    if let Some(mb) = opts.mem_limit_mb {
        set_mem_limit(mb.saturating_mul(1 << 20))?;
    }
    let shared = Arc::new(WorkerShared {
        out: Mutex::new(std::io::stdout()),
        active: AtomicBool::new(false),
    });
    shared
        .send(&Json::obj(vec![
            ("type", Json::str("hello")),
            ("pid", Json::num(f64::from(std::process::id()))),
        ]))
        .map_err(|e| format!("cannot greet parent: {e}"))?;

    // Heartbeat thread: wall-timed, active-gated, dies with the process.
    let beat = Arc::clone(&shared);
    let period = Duration::from_millis(opts.heartbeat_ms.max(10));
    std::thread::spawn(move || loop {
        std::thread::sleep(period);
        if beat.active.load(Ordering::Relaxed) {
            let frame = Json::obj(vec![("type", Json::str("heartbeat"))]);
            if beat.send(&frame).is_err() {
                break; // parent is gone; the main loop will see EOF too
            }
        }
    });

    let mut cache: Option<TraceCache> = None;
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    loop {
        match read_frame(&mut input) {
            Err(FrameError::Eof) => return Ok(()),
            Err(FrameError::Protocol(d)) => return Err(format!("bad frame from parent: {d}")),
            Ok(frame) => match frame.get("type").and_then(Json::as_str) {
                Some("shutdown") => return Ok(()),
                Some("job") => {
                    let spec = JobSpec::from_json(&frame)
                        .map_err(|e| format!("bad job frame from parent: {e}"))?;
                    // The trace cache persists across jobs (warm-cache
                    // rationale for recycling workers lazily, not per
                    // job); a changed trace length rebuilds it.
                    if cache.as_ref().map(TraceCache::target_len) != Some(spec.trace_len) {
                        cache = Some(TraceCache::new(spec.trace_len));
                    }
                    let reply = match &cache {
                        Some(c) => run_job(&spec, c, &shared),
                        None => unreachable!("cache initialised above"),
                    };
                    shared
                        .send(&reply)
                        .map_err(|e| format!("cannot reply to parent: {e}"))?;
                }
                other => {
                    return Err(format!("unexpected frame type {other:?} from parent"));
                }
            },
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(frame: &Json) -> Json {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).unwrap();
        read_frame(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn frames_round_trip() {
        let frame = Json::obj(vec![
            ("type", Json::str("hello")),
            ("pid", Json::num(4096.0)),
        ]);
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn clean_eof_is_distinguished_from_torn_streams() {
        assert_eq!(
            read_frame(&mut Cursor::new(Vec::<u8>::new())),
            Err(FrameError::Eof)
        );
        // EOF inside the length prefix: a torn stream, not a clean end.
        let torn_prefix = vec![0u8, 0];
        assert!(matches!(
            read_frame(&mut Cursor::new(torn_prefix)),
            Err(FrameError::Protocol(d)) if d.contains("frame length")
        ));
    }

    #[test]
    fn torn_payload_is_a_protocol_error_not_a_hang() {
        // Length prefix promises 100 bytes; only 10 arrive before EOF.
        let mut buf = 100u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"0123456789");
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(FrameError::Protocol(d)) if d.contains("torn frame")
        ));
    }

    #[test]
    fn oversized_and_zero_length_prefixes_are_rejected_before_reading() {
        let huge = u32::MAX.to_be_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut Cursor::new(huge)),
            Err(FrameError::Protocol(d)) if d.contains("out of range")
        ));
        let zero = 0u32.to_be_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut Cursor::new(zero)),
            Err(FrameError::Protocol(d)) if d.contains("out of range")
        ));
    }

    #[test]
    fn garbage_bytes_mid_stream_are_a_protocol_error() {
        // A valid length prefix followed by non-JSON payload bytes.
        let payload = b"\xff\xfenot json at all";
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(payload);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(FrameError::Protocol(_))
        ));
        // Valid UTF-8 but still not JSON.
        let text = b"hello, operator";
        let mut buf = (text.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(text);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(FrameError::Protocol(d)) if d.contains("not JSON")
        ));
    }

    #[test]
    fn deeply_nested_payload_is_a_protocol_error() {
        let payload = "[".repeat(1 << 20);
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(payload.as_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(FrameError::Protocol(d)) if d.contains("nesting deeper than")
        ));
    }

    #[test]
    fn eof_mid_job_reads_as_protocol_error_for_every_following_frame() {
        // A complete frame followed by a torn one: the reader yields the
        // good frame, then a protocol error — never a panic or a hang.
        let frame = Json::obj(vec![("type", Json::str("ok"))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        buf.extend_from_slice(&50u32.to_be_bytes());
        buf.extend_from_slice(b"partial");
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap(), frame);
        assert!(matches!(
            read_frame(&mut cur),
            Err(FrameError::Protocol(d)) if d.contains("torn frame")
        ));
    }

    #[test]
    fn job_specs_round_trip_with_and_without_optionals() {
        let full = JobSpec {
            bench: "crc".into(),
            core: "BIG".into(),
            mem_model: "classic".into(),
            mode: "ts".into(),
            trace_len: 2000,
            digest: "abc123".into(),
            attempt: 2,
            // `--job-timeout 18446744073709551615`: written as 2^64.
            budget: Some(u64::MAX),
            ts_base: None,
            fault: Some("panic".into()),
        };
        assert_eq!(JobSpec::from_json(&full.to_json()).unwrap(), full);
        let Json::Obj(mut fields) = full.to_json() else {
            unreachable!("a job frame is an object")
        };
        fields.insert("budget".into(), Json::Num(-1.0));
        assert!(
            JobSpec::from_json(&Json::Obj(fields)).is_err(),
            "a negative budget is not a count"
        );
        let with_base = JobSpec {
            ts_base: Some((1234, 999)),
            ..full.clone()
        };
        assert_eq!(with_base.to_json(), full.to_json(), "ts_base is never sent");
        let minimal = JobSpec {
            budget: None,
            fault: None,
            ..full
        };
        let doc = minimal.to_json();
        assert_eq!(doc.get("budget"), None, "absent optionals stay absent");
        assert_eq!(JobSpec::from_json(&doc).unwrap(), minimal);
    }

    #[test]
    fn job_errors_round_trip_structurally() {
        let errors = vec![
            JobError::Sim(SimError::Deadlock {
                cycle: 77,
                committed: 42,
                recent_events: vec!["ev1".into(), "ev2".into()],
            }),
            JobError::Sim(SimError::Cancelled {
                cycle: 10,
                committed: 5,
                recent_events: vec![],
            }),
            JobError::Sim(SimError::BadConfig("nope".into())),
            JobError::Panicked {
                payload: "boom".into(),
            },
            JobError::Timeout { budget: 5000 },
            JobError::Killed { signal: 9 },
            JobError::OomKilled,
            JobError::HeartbeatLost { timeout_ms: 750 },
            JobError::ProtocolError {
                detail: "torn".into(),
            },
        ];
        for err in errors {
            let round = job_error_from_json(&job_error_to_json(&err)).unwrap();
            assert_eq!(round, err, "display parity requires exact reconstruction");
            assert_eq!(round.to_string(), err.to_string());
        }
    }

    #[test]
    fn worker_rebuilds_jobs_and_verifies_digests() {
        let spec = JobSpec {
            bench: "crc".into(),
            core: "MEDIUM".into(),
            mem_model: "classic".into(),
            mode: "redsoc".into(),
            trace_len: 2000,
            digest: String::new(),
            attempt: 1,
            budget: None,
            ts_base: None,
            fault: None,
        };
        let job = job_from_spec(&spec).expect("valid names");
        assert_eq!(job.key(), "crc/MEDIUM/redsoc");
        // The digest the worker computes matches what the parent-side
        // Job would send for the same configuration.
        assert_eq!(job.digest(2000), {
            let parent = Job {
                bench: Benchmark::Crc,
                core_name: "MEDIUM",
                core: crate::cores()[1].1.clone(),
                mode: Mode::Redsoc,
                variant: Variant::default(),
            };
            parent.digest(2000)
        });
        assert!(job_from_spec(&JobSpec {
            core: "HUGE".into(),
            ..spec
        })
        .is_err());
    }
}
