//! End-to-end fault-injection suite for the supervised sweep engine.
//!
//! Drives the real `redsoc` binary the way an operator (or CI) would:
//!
//! 1. the **clean** reference is the committed len-2000 sweep,
//!    `BENCH_sweep.json`, which CI's perf gate also checks a fresh sweep
//!    against;
//! 2. a sweep with an injected **hang** (stopped by the cycle budget)
//!    and an injected **panic** (quarantined after one attempt) must
//!    complete with exactly those two cells degraded and every other
//!    cell byte-identical to the clean reference;
//! 3. the same faulted sweep **killed mid-run** three times — after five
//!    journal checkpoints, then seven and three more on resume — then
//!    **resumed** to completion: the final document must be
//!    byte-identical (modulo wall-clock) to the uninterrupted faulted
//!    run, restoring exactly the fifteen journaled cells;
//! 4. process isolation: destructive faults, a panic, a frozen worker and
//!    a worker that crashes once each cost at most their own cell, and
//!    only a worker death is retried;
//! 5. the CLI's structured exit codes and usage rejection paths.
//!
//! Everything runs at a tiny trace length so the whole suite stays in
//! test-suite time budgets; determinism makes byte-identity meaningful.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use redsoc::bench::json::Json;
use redsoc::bench::runner::canonicalize_sweep;

const LEN: &str = "2000";
const THREADS: &str = "2";
// The slowest legitimate cell at `LEN` (CONV on the SMALL core, heavily
// memory-bound) takes ~271k cycles; a 1M budget only fires on real hangs.
const BUDGET: &str = "1000000";
const HANG_KEY: &str = "crc/BIG/redsoc";
const PANIC_KEY: &str = "bitcnt/SMALL/redsoc";
const FAULTS: &str = "crc/BIG/redsoc=hang,bitcnt/SMALL/redsoc=panic";

fn redsoc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_redsoc"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("redsoc-fault-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn bench_args(out: &Path) -> Vec<String> {
    ["bench", "--threads", THREADS, "--len", LEN, "--out"]
        .iter()
        .map(ToString::to_string)
        .chain([out.display().to_string()])
        .collect()
}

/// The committed clean sweep at `LEN`: every clean run must reproduce it.
fn committed_sweep() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_sweep.json")
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("spawn redsoc")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("exit code (not a signal)")
}

fn load_sweep(path: &Path) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Json::parse(&text).expect("sweep JSON parses")
}

/// Job rows of a sweep document, keyed `bench/CORE/mode`.
fn rows(doc: &Json) -> Vec<(String, &Json)> {
    doc.get("jobs")
        .and_then(Json::as_arr)
        .expect("jobs array")
        .iter()
        .map(|j| {
            let field = |k: &str| j.get(k).and_then(Json::as_str).expect("string field");
            (
                format!("{}/{}/{}", field("benchmark"), field("core"), field("mode")),
                j,
            )
        })
        .collect()
}

fn status_of<'a>(doc: &'a Json, key: &str) -> &'a Json {
    rows(doc)
        .into_iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("row {key} missing"))
        .1
}

#[test]
fn injected_faults_degrade_cells_and_resume_is_byte_identical() {
    let dir = tmp_dir("e2e");
    let clean = committed_sweep();
    let faulted = dir.join("faulted.json");
    let dead = dir.join("dead.json");
    let resumed = dir.join("resumed.json");
    let journal = dir.join("sweep.jnl");

    // 1. Clean reference: the committed sweep at the same length.
    let clean_doc = load_sweep(&clean);

    // 2. Faulted but uninterrupted: one hang (timeout under the cycle
    // budget) and one panic (quarantined without a retry). The sweep
    // must complete and exit 4 (partial), not crash.
    let out = run(redsoc()
        .args(bench_args(&faulted))
        .args(["--job-timeout", BUDGET])
        .env("REDSOC_FAULT", FAULTS));
    assert_eq!(exit_code(&out), 4, "partial sweep exits 4: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("2 failed cell(s)"),
        "stderr names the failed cells: {stderr}"
    );
    let faulted_doc = load_sweep(&faulted);

    let hung = status_of(&faulted_doc, HANG_KEY);
    assert_eq!(hung.get("status").and_then(Json::as_str), Some("timeout"));
    assert_eq!(hung.get("cycles"), Some(&Json::Null));
    let err = hung.get("error").expect("error record");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("timeout"));
    assert!(
        err.get("recent_events")
            .and_then(Json::as_arr)
            .is_some_and(|e| !e.is_empty()),
        "timeout cells attach a post-mortem event dump"
    );

    let panicked = status_of(&faulted_doc, PANIC_KEY);
    assert_eq!(
        panicked.get("status").and_then(Json::as_str),
        Some("quarantined")
    );
    assert_eq!(
        panicked.get("attempts").and_then(Json::as_num),
        Some(1.0),
        "a deterministic panic is not retried"
    );
    assert_eq!(
        panicked
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("panicked")
    );

    // Every *other* cell must be byte-identical to the clean reference.
    let clean_rows = rows(&clean_doc);
    let faulted_rows = rows(&faulted_doc);
    assert_eq!(clean_rows.len(), faulted_rows.len(), "same grid coverage");
    for ((ck, cv), (fk, fv)) in clean_rows.iter().zip(faulted_rows.iter()) {
        assert_eq!(ck, fk, "same row order");
        if ck == HANG_KEY || ck == PANIC_KEY {
            continue;
        }
        assert_eq!(
            canonicalize_sweep(cv).pretty(),
            canonicalize_sweep(fv).pretty(),
            "fault in one cell must not perturb {ck}"
        );
    }

    // 3. Same faulted sweep, journaled, killed in three generations: after
    // five checkpoints, then after seven and three more on resume. Each
    // kill lands just after a record, so the cells still running are lost
    // and re-run from cycle 0 by the next generation.
    for (flag, die_after, lines) in [
        ("--journal", "5", 5),
        ("--resume", "7", 12),
        ("--resume", "3", 15),
    ] {
        let out = run(redsoc()
            .args(bench_args(&dead))
            .args(["--job-timeout", BUDGET])
            .args([flag, &journal.display().to_string()])
            .env("REDSOC_FAULT", FAULTS)
            .env("REDSOC_DIE_AFTER_JOBS", die_after));
        assert_eq!(exit_code(&out), 86, "kill after {die_after}: {out:?}");
        assert!(!dead.exists(), "killed sweep must not write its output");
        let text = std::fs::read_to_string(&journal).expect("journal");
        assert_eq!(text.lines().count(), lines, "kill after {die_after}");
    }

    // 4. Resume from the journal: only missing cells re-run, and the
    // final document matches the uninterrupted faulted run byte for
    // byte once wall-clock fields are canonicalised away.
    let out = run(redsoc()
        .args(bench_args(&resumed))
        .args(["--job-timeout", BUDGET])
        .args(["--resume", &journal.display().to_string()])
        .env("REDSOC_FAULT", FAULTS));
    assert_eq!(
        exit_code(&out),
        4,
        "resumed sweep is still partial: {out:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("resuming from") && stdout.contains("15 cell(s)"),
        "resume reports the restored checkpoint count: {stdout}"
    );
    let resumed_doc = load_sweep(&resumed);
    let restored = rows(&resumed_doc)
        .iter()
        .filter(|(_, j)| j.get("restored") == Some(&Json::Bool(true)))
        .count();
    assert_eq!(restored, 15, "exactly the journaled cells are restored");
    assert_eq!(
        canonicalize_sweep(&faulted_doc).pretty(),
        canonicalize_sweep(&resumed_doc).pretty(),
        "resumed sweep must be byte-identical to the uninterrupted run"
    );

    // `redsoc sweepcmp` agrees (and is what the CI smoke step uses).
    let out = run(redsoc().args([
        "sweepcmp",
        &faulted.display().to_string(),
        &resumed.display().to_string(),
    ]));
    assert_eq!(exit_code(&out), 0, "sweepcmp accepts matching sweeps");
    let out = run(redsoc().args([
        "sweepcmp",
        &clean.display().to_string(),
        &faulted.display().to_string(),
    ]));
    assert_eq!(exit_code(&out), 1, "sweepcmp rejects differing sweeps");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_maps_errors_to_structured_exit_codes() {
    // Usage errors: exit 2 with a hint, no backtrace.
    let cases: &[&[&str]] = &[
        &["run", "nosuchbench"],
        &["trace", "crc", "--len", "50", "--format", "nope"],
        // `report` reads its trace length from REDSOC_TRACE_LEN only.
        &["report", "--len", "5"],
        &["bench", "--bogus", "1"],
        &["bench", "--resume", "a.jnl", "--journal", "b.jnl"],
        &["bench", "--job-timeout", "0"],
        &["fuzz", "--cases", "0"],
        // The oracle runs 4,096 ops of a case; a longer program is cut.
        &["fuzz", "--max-instrs", "4097", "--cases", "1"],
        &["fuzz", "--schedulers", "nosuchsched"],
        &["fuzz", "--sabotage", "nope"],
        // Process-isolation flag validation: the worker knobs make no
        // sense without the process tier, and the degenerate values are
        // operator mistakes.
        &["bench", "--isolation", "warp"],
        &["bench", "--mem-limit-mb", "512"],
        &["bench", "--heartbeat-timeout-ms", "500"],
        // Retries cover worker deaths only, so they need workers.
        &["bench", "--max-retries", "1"],
        &["bench", "--isolation", "thread", "--max-retries", "0"],
        &["bench", "--isolation", "process", "--mem-limit-mb", "0"],
        // Workers recycle after a fixed job count: there is no flag.
        &["bench", "--worker-recycle", "8"],
        &["bench", "--isolation", "process", "--worker-recycle", "0"],
        &[
            "bench",
            "--isolation",
            "process",
            "--heartbeat-timeout-ms",
            "0",
        ],
        &["worker", "--heartbeat-ms", "0"],
        &["worker", "--mem-limit-mb", "0"],
        &["frobnicate"],
        // Retries do not back off, so there is no backoff flag.
        &["bench", "--backoff-ms", "0"],
        // A repeated flag is rejected, not silently dropped.
        &["run", "crc", "--len", "20000", "--len", "100"],
    ];
    for args in cases {
        let out = run(redsoc().args(*args));
        assert_eq!(exit_code(&out), 2, "usage error for {args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("panicked"),
            "{args:?} must not panic: {stderr}"
        );
    }

    let out = run(redsoc().args(["run", "crc", "--len", "20000", "--len", "100"]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--len"),
        "the error names the flag: {stderr}"
    );

    // Malformed REDSOC_TRACE_LEN / REDSOC_THREADS are usage errors naming
    // the variable, raised before anything is simulated.
    for (cmd, var, value) in [
        ("report", "REDSOC_TRACE_LEN", "2k"),
        ("report", "REDSOC_THREADS", "abc"),
        ("bench", "REDSOC_TRACE_LEN", "0"),
        ("bench", "REDSOC_THREADS", "abc"),
    ] {
        let out = run(redsoc().arg(cmd).env(var, value));
        assert_eq!(exit_code(&out), 2, "{cmd} with {var}={value}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(var),
            "{cmd}: the error names {var}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{cmd}: nothing was simulated");
    }

    // Unknown flag names the accepted set.
    let out = run(redsoc().args(["bench", "--bogus", "1"]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --bogus") && stderr.contains("--job-timeout"),
        "usage hint lists accepted flags: {stderr}"
    );

    // The injected kill must take effect or fail: a value that is not a
    // positive integer, or one set without a journal to count appends
    // in, is a usage error naming the variable, raised before anything
    // is simulated or the journal is created.
    let dir = tmp_dir("die-after");
    let journal = dir.join("sweep.jnl");
    for (value, journaled) in [
        ("abc", true),
        ("-3", true),
        ("", true),
        ("0", true),
        ("5", false),
    ] {
        let mut cmd = redsoc();
        cmd.args(["bench", "--len", LEN])
            .env("REDSOC_DIE_AFTER_JOBS", value);
        if journaled {
            cmd.args(["--journal", &journal.display().to_string()]);
        }
        let out = run(&mut cmd);
        let case = format!("REDSOC_DIE_AFTER_JOBS={value:?}, journaled: {journaled}");
        assert_eq!(exit_code(&out), 2, "{case}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("REDSOC_DIE_AFTER_JOBS"),
            "{case}: the error names the variable: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{case}: nothing was simulated");
        assert!(!journal.exists(), "{case}: no journal was created");
    }
    std::fs::remove_dir_all(&dir).ok();

    // Crash recovery is job-granular (no in-flight snapshot flag), and
    // workers recycle after a fixed job count (no recycle flag).
    for flag in ["--snapshot-interval", "--worker-recycle"] {
        let out = run(redsoc().args(["bench", flag, "8"]));
        assert_eq!(exit_code(&out), 2, "bench {flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }

    // Crash safety is proven by the deterministic injectors: there is no
    // chaos harness, so its old invocation is an unknown command.
    let out = run(redsoc().args(["chaos", "--kills", "3", "--seed", "7"]));
    assert_eq!(exit_code(&out), 2, "chaos is an unknown command: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: redsoc <command>") && !stderr.contains("chaos"),
        "{stderr}"
    );

    // Malformed fault plans are usage errors too, and a panic takes no
    // attempt count.
    for spec in ["not-a-spec", "crc/BIG/redsoc=panic:2"] {
        let out = run(redsoc()
            .args(["bench", "--len", "50"])
            .env("REDSOC_FAULT", spec));
        assert_eq!(exit_code(&out), 2, "bad REDSOC_FAULT={spec}: {out:?}");
    }

    // I/O errors: exit 1.
    let out = run(redsoc().args(["sweepcmp", "/nonexistent/a.json", "/nonexistent/b.json"]));
    assert_eq!(exit_code(&out), 1, "missing sweep file exits 1: {out:?}");
}

#[test]
fn sweepcmp_rejects_non_json_input_as_usage_error() {
    // A file that exists but isn't JSON is the operator handing sweepcmp
    // the wrong artifact — a usage error (exit 2), not an I/O failure
    // (exit 1, reserved for unreadable paths) and not a sweep mismatch.
    let dir = tmp_dir("sweepcmp-nonjson");
    let bogus = dir.join("notes.txt");
    std::fs::write(&bogus, "this is not a sweep document\n").expect("write fixture");
    let out = run(redsoc().args([
        "sweepcmp",
        &bogus.display().to_string(),
        &bogus.display().to_string(),
    ]));
    assert_eq!(
        exit_code(&out),
        2,
        "non-JSON input is a usage error: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("notes.txt") && !stderr.contains("panicked"),
        "error names the offending file without panicking: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweepcmp_rejects_deeply_nested_input_as_usage_error() {
    // 200,000 `[` once overflowed the parser's stack (exit 134). Past the
    // nesting cap it is just another non-JSON file: exit 2.
    let dir = tmp_dir("sweepcmp-nested");
    let nested = dir.join("nested.json");
    std::fs::write(&nested, "[".repeat(200_000)).expect("write fixture");
    let path = nested.display().to_string();
    let out = run(redsoc().args(["sweepcmp", &path, &path]));
    assert_eq!(exit_code(&out), 2, "nested input is a usage error: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("nesting deeper than"),
        "error names the cap: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tail_window_kill_after_last_job_loses_nothing_on_resume() {
    // The narrowest crash window: every job has finished and checkpointed
    // but the final sweep document has not been written yet. The journal
    // is fsynced before the document write, so resume must restore every
    // cell, re-run nothing, and reproduce the reference sweep exactly.
    let dir = tmp_dir("tailkill");
    let clean = committed_sweep();
    let dead = dir.join("dead.json");
    let resumed = dir.join("resumed.json");
    let journal = dir.join("sweep.jnl");

    let clean_doc = load_sweep(&clean);
    let n_cells = rows(&clean_doc).len();

    // Kill after the *last* checkpoint lands — inside the tail window.
    let out = run(redsoc()
        .args(bench_args(&dead))
        .args(["--journal", &journal.display().to_string()])
        .env("REDSOC_DIE_AFTER_JOBS", n_cells.to_string()));
    assert_eq!(exit_code(&out), 86, "injected tail kill exits 86: {out:?}");
    assert!(!dead.exists(), "killed sweep must not write its output");

    let out = run(redsoc()
        .args(bench_args(&resumed))
        .args(["--resume", &journal.display().to_string()]));
    assert_eq!(exit_code(&out), 0, "resumed sweep completes: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("resuming from") && stdout.contains(&format!("{n_cells} cell(s)")),
        "resume restores every checkpoint: {stdout}"
    );
    let resumed_doc = load_sweep(&resumed);
    let restored = rows(&resumed_doc)
        .iter()
        .filter(|(_, j)| j.get("restored") == Some(&Json::Bool(true)))
        .count();
    assert_eq!(
        restored, n_cells,
        "no cell re-runs after a tail-window kill"
    );
    assert_eq!(
        canonicalize_sweep(&clean_doc).pretty(),
        canonicalize_sweep(&resumed_doc).pretty(),
        "resumed sweep must match the uninterrupted reference"
    );

    let out = run(redsoc().args([
        "sweepcmp",
        &clean.display().to_string(),
        &resumed.display().to_string(),
    ]));
    assert_eq!(exit_code(&out), 0, "sweepcmp agrees the sweeps match");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn process_isolation_matches_thread_isolation_and_contains_destructive_faults() {
    // The process-isolation acceptance path, end to end:
    //  1. a clean process-isolated sweep is canonically identical to the
    //     committed (thread-isolated) reference;
    //  2. injected abort and oom faults — fatal to the whole run under
    //     thread isolation — degrade to two quarantined cells with the
    //     right error kinds (killed / oom-killed), each retried once, and
    //     an injected panic quarantines after one attempt; the sweep
    //     exits 4;
    //  3. resuming the degraded journal without the faults completes the
    //     three cells and reproduces the reference exactly.
    let dir = tmp_dir("prociso");
    let reference = committed_sweep();
    let process = dir.join("process.json");
    let degraded = dir.join("degraded.json");
    let repaired = dir.join("repaired.json");
    let journal = dir.join("proc.jnl");

    let out = run(redsoc()
        .args(bench_args(&process))
        .args(["--isolation", "process"]));
    assert_eq!(exit_code(&out), 0, "process sweep must succeed: {out:?}");
    let out = run(redsoc().args([
        "sweepcmp",
        &reference.display().to_string(),
        &process.display().to_string(),
    ]));
    assert_eq!(
        exit_code(&out),
        0,
        "process isolation must not change results: {out:?}"
    );

    let out = run(redsoc()
        .args(bench_args(&degraded))
        .args(["--isolation", "process", "--mem-limit-mb", "1024"])
        .args(["--max-retries", "1"])
        .args(["--journal", &journal.display().to_string()])
        .env(
            "REDSOC_FAULT",
            "crc/BIG/redsoc=abort,bitcnt/SMALL/redsoc=oom,gsm/MEDIUM/mos=panic",
        ));
    assert_eq!(exit_code(&out), 4, "degraded sweep exits 4: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("3 failed cell(s)"),
        "both destructive faults and the panic quarantine: {stderr}"
    );
    let degraded_doc = load_sweep(&degraded);
    let aborted = status_of(&degraded_doc, "crc/BIG/redsoc");
    assert_eq!(
        aborted.get("status").and_then(Json::as_str),
        Some("quarantined")
    );
    assert_eq!(
        aborted
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("killed"),
        "an aborting worker is a signal death: {aborted:?}"
    );
    let oomed = status_of(&degraded_doc, "bitcnt/SMALL/redsoc");
    assert_eq!(
        oomed
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("oom-killed"),
        "an allocation-failure abort under --mem-limit-mb reads as oom: {oomed:?}"
    );
    assert_eq!(
        oomed.get("attempts").and_then(Json::as_num),
        Some(2.0),
        "worker deaths are transient: one try + one retry"
    );
    let panicked = status_of(&degraded_doc, "gsm/MEDIUM/mos");
    assert_eq!(
        panicked.get("status").and_then(Json::as_str),
        Some("quarantined")
    );
    assert_eq!(
        panicked
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("panicked"),
        "a worker survives a caught panic: {panicked:?}"
    );
    assert_eq!(
        panicked.get("attempts").and_then(Json::as_num),
        Some(1.0),
        "a deterministic panic is not retried, in a worker either"
    );

    // Clean resume: only the three quarantined cells re-run, faultless.
    let out = run(redsoc()
        .args(bench_args(&repaired))
        .args(["--isolation", "process"])
        .args(["--resume", &journal.display().to_string()]));
    assert_eq!(exit_code(&out), 0, "clean resume completes: {out:?}");
    let out = run(redsoc().args([
        "sweepcmp",
        &reference.display().to_string(),
        &repaired.display().to_string(),
    ]));
    assert_eq!(
        exit_code(&out),
        0,
        "repaired sweep must match the committed reference: {out:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn freeze_fault_is_reaped_by_heartbeat_supervision() {
    // A frozen worker (stops heartbeating, never replies, never exits)
    // is exactly what the SIGKILL backstop exists for: the parent must
    // reap it after --heartbeat-timeout-ms and record heartbeat-lost
    // rather than wait forever. The TS cell does not depend on the
    // baseline: it completes, with no baseline to compare against.
    let dir = tmp_dir("freeze");
    let out_path = dir.join("frozen.json");
    // No retry: one freeze is enough.
    let out = run(redsoc()
        .args(bench_args(&out_path))
        .args(["--isolation", "process", "--heartbeat-timeout-ms", "1500"])
        .args(["--max-retries", "0"])
        .env("REDSOC_FAULT", "CONV/MEDIUM/baseline=freeze"));
    assert_eq!(
        exit_code(&out),
        4,
        "frozen cell degrades the sweep: {out:?}"
    );
    let doc = load_sweep(&out_path);
    let frozen = status_of(&doc, "CONV/MEDIUM/baseline");
    assert_eq!(
        frozen
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("heartbeat-lost"),
        "silence past the deadline is heartbeat loss: {frozen:?}"
    );
    let ts = status_of(&doc, "CONV/MEDIUM/ts");
    assert_eq!(
        ts.get("status").and_then(Json::as_str),
        Some("ok"),
        "{ts:?}"
    );
    assert_eq!(
        ts.get("speedup_over_baseline"),
        Some(&Json::Null),
        "no speedup without a baseline: {ts:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn crash_once_worker_is_absorbed_by_a_retry() {
    // A worker that dies by SIGKILL mid-job costs one retry, not a cell:
    // the parent classifies the death, discards the worker, and retries
    // the cell on a fresh one. The first spawn of this worker script
    // greets the parent and SIGKILLs itself, so the first job shipped to
    // it finds a dead worker; every later spawn is the real
    // `redsoc worker`.
    use std::os::unix::fs::PermissionsExt;

    use redsoc::bench::pool::WorkerPoolConfig;
    use redsoc::bench::runner::{run_grid_isolated, sweep_json, Isolation, Mode};
    use redsoc::bench::supervisor::SupervisorConfig;
    use redsoc::bench::worker::write_frame;
    use redsoc::bench::TraceCache;
    use redsoc::workloads::Benchmark;

    let dir = tmp_dir("crash-once");
    let hello = dir.join("hello.frame");
    let marker = dir.join("crashed");
    let script = dir.join("worker.sh");
    let mut frame = Vec::new();
    write_frame(&mut frame, &Json::obj(vec![("type", Json::str("hello"))])).expect("encode");
    std::fs::write(&hello, frame).expect("write hello frame");
    std::fs::write(
        &script,
        format!(
            "#!/bin/sh\n\
             if [ ! -e '{marker}' ]; then\n\
             \x20 : > '{marker}'\n\
             \x20 cat '{hello}'\n\
             \x20 kill -KILL $$\n\
             fi\n\
             exec '{exe}' \"$@\"\n",
            marker = marker.display(),
            hello = hello.display(),
            exe = env!("CARGO_BIN_EXE_redsoc"),
        ),
    )
    .expect("write worker script");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
        .expect("make worker script executable");

    let len = 2_000;
    let grid = |isolation: &Isolation| {
        run_grid_isolated(
            &TraceCache::new(len),
            &[Benchmark::Crc, Benchmark::Bitcnt],
            &redsoc::bench::cores()[..1],
            &Mode::all(),
            1,
            &SupervisorConfig::default(),
            None,
            isolation,
        )
    };
    let threaded = grid(&Isolation::Thread);
    let crashed = grid(&Isolation::Process(WorkerPoolConfig::new(script)));
    assert!(marker.exists(), "the first worker crashed");
    assert!(crashed.fully_ok(), "the crash is absorbed by a retry");
    let mut attempts: Vec<u32> = crashed.cells().iter().map(|c| c.attempts).collect();
    attempts.sort_unstable();
    assert_eq!(attempts, [1, 1, 1, 1, 1, 1, 1, 2], "one cell retried, once");
    assert_eq!(
        canonicalize_sweep(&sweep_json(&crashed, len)).pretty(),
        canonicalize_sweep(&sweep_json(&threaded, len)).pretty(),
        "a worker death may cost a retry, never a result"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_without_out_leaves_the_committed_baseline_alone() {
    // `BENCH_sweep.json` is the committed baseline; a `bench` run from a
    // checkout root without `--out` must write `sweep.json` instead.
    let dir = tmp_dir("default-out");
    let out = run(redsoc()
        .current_dir(&dir)
        .args(["bench", "--threads", THREADS, "--len", "10"])
        .env_remove("REDSOC_FAULT"));
    assert_eq!(exit_code(&out), 0, "clean sweep must succeed: {out:?}");
    assert!(dir.join("sweep.json").exists(), "default output written");
    assert!(
        !dir.join("BENCH_sweep.json").exists(),
        "the baseline's file name is never a default"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unwritable_journal_parent_dir_fails_fast_as_usage_error() {
    // --journal pointing into a directory that doesn't exist must fail
    // before any simulation runs: exit 2 (usage), with a hint naming the
    // fix, and no partial output artifacts.
    let dir = tmp_dir("badjournal");
    let out_path = dir.join("never.json");
    let bogus = dir.join("no-such-subdir").join("sweep.jnl");
    let out = run(redsoc()
        .args(bench_args(&out_path))
        .args(["--journal", &bogus.display().to_string()]));
    assert_eq!(
        exit_code(&out),
        2,
        "unwritable journal path is a usage error: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot create journal") && stderr.contains("hint:"),
        "error carries the writable-parent-directory hint: {stderr}"
    );
    assert!(
        !out_path.exists(),
        "failing fast means no sweep output was written"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_smoke_run_is_clean_and_byte_reproducible() {
    // A small fixed-seed campaign across all four schedulers: exits 0
    // with no divergences, and the full stdout is byte-stable across
    // invocations (the property CI's fuzz-smoke step relies on).
    let args = ["fuzz", "--seed", "7", "--cases", "20"];
    let a = run(redsoc().args(args));
    assert_eq!(exit_code(&a), 0, "clean fuzz run exits 0: {a:?}");
    let stdout = String::from_utf8_lossy(&a.stdout);
    assert!(
        stdout.contains("checked 20 case(s)") && stdout.contains("0 divergence(s)"),
        "summary line reports a clean campaign: {stdout}"
    );
    let b = run(redsoc().args(args));
    assert_eq!(a.stdout, b.stdout, "fuzz output must be byte-reproducible");
}
