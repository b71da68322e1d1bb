//! End-to-end fault-injection suite for the supervised sweep engine.
//!
//! Drives the real `redsoc` binary the way an operator (or CI) would:
//!
//! 1. a **clean** reference sweep;
//! 2. the same sweep with an injected **hang** (stopped by the cycle
//!    budget) and an injected persistent **panic** (quarantined after
//!    retries) — the sweep must complete with exactly those two cells
//!    degraded and every other cell byte-identical to the clean run;
//! 3. the same faulted sweep **killed mid-run** after five journal
//!    checkpoints, then **resumed** — the resumed document must be
//!    byte-identical (modulo wall-clock) to the uninterrupted faulted
//!    run, restoring exactly the five journaled cells;
//! 4. the CLI's structured exit codes and usage rejection paths.
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
const FAULTS: &str = "crc/BIG/redsoc=hang,bitcnt/SMALL/redsoc=panic:9";

fn redsoc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_redsoc"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("redsoc-fault-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn bench_args(out: &Path) -> Vec<String> {
    [
        "bench",
        "--threads",
        THREADS,
        "--len",
        LEN,
        "--max-retries",
        "1",
        "--backoff-ms",
        "0",
        "--out",
    ]
    .iter()
    .map(ToString::to_string)
    .chain([out.display().to_string()])
    .collect()
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
    let clean = dir.join("clean.json");
    let faulted = dir.join("faulted.json");
    let dead = dir.join("dead.json");
    let resumed = dir.join("resumed.json");
    let journal = dir.join("sweep.jnl");

    // 1. Clean reference run: exits 0, all cells ok.
    let out = run(redsoc().args(bench_args(&clean)));
    assert_eq!(exit_code(&out), 0, "clean sweep must succeed: {out:?}");
    let clean_doc = load_sweep(&clean);

    // 2. Faulted but uninterrupted: one hang (timeout under the cycle
    // budget) and one persistent panic (quarantined after retries). The
    // sweep must complete and exit 4 (partial), not crash.
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
        Some(2.0),
        "one try + one retry (--max-retries 1)"
    );
    assert_eq!(
        panicked
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("panicked")
    );

    // Every *other* cell must be byte-identical to the clean run.
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

    // 3. Same faulted sweep, journaled, killed after five checkpoints.
    let out = run(redsoc()
        .args(bench_args(&dead))
        .args(["--job-timeout", BUDGET])
        .args(["--journal", &journal.display().to_string()])
        .env("REDSOC_FAULT", FAULTS)
        .env("REDSOC_DIE_AFTER_JOBS", "5"));
    assert_eq!(exit_code(&out), 86, "injected kill exits 86: {out:?}");
    assert!(!dead.exists(), "killed sweep must not write its output");

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
        stdout.contains("resuming from") && stdout.contains("5 cell(s)"),
        "resume reports the restored checkpoint count: {stdout}"
    );
    let resumed_doc = load_sweep(&resumed);
    let restored = rows(&resumed_doc)
        .iter()
        .filter(|(_, j)| j.get("restored") == Some(&Json::Bool(true)))
        .count();
    assert_eq!(restored, 5, "exactly the journaled cells are restored");
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
        &["fuzz", "--schedulers", "nosuchsched"],
        &["fuzz", "--sabotage", "nope"],
        &["chaos", "--kills", "0"],
        &["chaos", "--seed", "frog"],
        // Process-isolation flag validation: the worker knobs make no
        // sense without the process tier, and the degenerate values are
        // operator mistakes.
        &["bench", "--isolation", "warp"],
        &["bench", "--mem-limit-mb", "512"],
        &["bench", "--worker-recycle", "8"],
        &["bench", "--heartbeat-timeout-ms", "500"],
        &["bench", "--isolation", "process", "--mem-limit-mb", "0"],
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
        &["chaos", "--worker-kills", "frog"],
        &["frobnicate"],
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

    // Unknown flag names the accepted set.
    let out = run(redsoc().args(["bench", "--bogus", "1"]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --bogus") && stderr.contains("--job-timeout"),
        "usage hint lists accepted flags: {stderr}"
    );

    // Crash recovery is job-granular: there is no in-flight snapshot flag.
    for cmd in ["bench", "chaos"] {
        let out = run(redsoc().args([cmd, "--snapshot-interval", "4096"]));
        assert_eq!(exit_code(&out), 2, "{cmd} --snapshot-interval: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag --snapshot-interval"),
            "{cmd}: {stderr}"
        );
    }

    // Malformed fault plans are usage errors too.
    let out = run(redsoc()
        .args(["bench", "--len", "50"])
        .env("REDSOC_FAULT", "not-a-spec"));
    assert_eq!(exit_code(&out), 2, "bad REDSOC_FAULT: {out:?}");

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
    let clean = dir.join("clean.json");
    let dead = dir.join("dead.json");
    let resumed = dir.join("resumed.json");
    let journal = dir.join("sweep.jnl");

    let out = run(redsoc().args(bench_args(&clean)));
    assert_eq!(exit_code(&out), 0, "reference sweep must succeed: {out:?}");
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
fn chaos_harness_survives_seeded_kill_loop() {
    // The built-in chaos harness end to end: three seeded SIGKILLs
    // mid-sweep, each landing just after a cell's journal record, so the
    // cells still running are lost and re-run from cycle 0 on resume.
    // The final document must match the harness's own uninterrupted
    // in-process reference. Mirrors the CI chaos-smoke step.
    let dir = tmp_dir("chaos");
    let out = run(redsoc().args([
        "chaos",
        "--threads",
        THREADS,
        "--len",
        LEN,
        "--kills",
        "3",
        "--seed",
        "7",
        "--dir",
        &dir.display().to_string(),
    ]));
    assert_eq!(exit_code(&out), 0, "chaos harness must survive: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("kill 3/3") && stdout.contains("identical"),
        "chaos reports every kill and the final byte-identity: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn process_isolation_matches_thread_isolation_and_contains_destructive_faults() {
    // The process-isolation acceptance path, end to end:
    //  1. a clean process-isolated sweep is canonically identical to the
    //     thread-isolated reference;
    //  2. injected abort and oom faults — fatal to the whole run under
    //     thread isolation — degrade to two quarantined cells with the
    //     right error kinds (killed / oom-killed) and exit 4;
    //  3. resuming the degraded journal without the faults completes the
    //     two cells and reproduces the reference exactly.
    let dir = tmp_dir("prociso");
    let reference = dir.join("thread.json");
    let process = dir.join("process.json");
    let degraded = dir.join("degraded.json");
    let repaired = dir.join("repaired.json");
    let journal = dir.join("proc.jnl");

    let out = run(redsoc().args(bench_args(&reference)));
    assert_eq!(exit_code(&out), 0, "thread reference must succeed: {out:?}");

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
        .args(["--journal", &journal.display().to_string()])
        .env(
            "REDSOC_FAULT",
            "crc/BIG/redsoc=abort,bitcnt/SMALL/redsoc=oom",
        ));
    assert_eq!(exit_code(&out), 4, "degraded sweep exits 4: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("2 failed cell(s)"),
        "both destructive faults quarantine: {stderr}"
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

    // Clean resume: only the two quarantined cells re-run, faultless.
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
        "repaired sweep must match the thread reference: {out:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn freeze_fault_is_reaped_by_heartbeat_supervision() {
    // A frozen worker (stops heartbeating, never replies, never exits)
    // is exactly what the SIGKILL backstop exists for: the parent must
    // reap it after --heartbeat-timeout-ms, record heartbeat-lost, and
    // fail the dependent TS cell rather than wait forever.
    let dir = tmp_dir("freeze");
    let out_path = dir.join("frozen.json");
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
        ts.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("dependency"),
        "TS cannot run on a baseline the supervisor had to shoot: {ts:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_worker_kill_storm_is_absorbed_with_identical_results() {
    // The worker-kill storm mode: SIGKILL/SIGABRT three live workers of
    // a process-isolated child sweep. The sweep must absorb every kill
    // (exit 0 — retries land on fresh workers) and still reproduce the
    // thread-isolation reference. Mirrors the CI chaos-worker-smoke step.
    let dir = tmp_dir("workerstorm");
    let out = run(redsoc().args([
        "chaos",
        "--threads",
        THREADS,
        "--len",
        LEN,
        "--worker-kills",
        "3",
        "--seed",
        "11",
        "--dir",
        &dir.display().to_string(),
    ]));
    assert_eq!(exit_code(&out), 0, "storm must be absorbed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("worker kill 3/3") && stdout.contains("identical"),
        "storm reports every kill and the final identity: {stdout}"
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
