//! Fast golden test of the machine-readable sweep: at a tiny trace
//! length the full sweep must cover all 16 workloads × 3 cores, serialise
//! to JSON that parses back, and report finite, positive speedups plus an
//! `ok` supervision status everywhere.

use redsoc_bench::json::Json;
use redsoc_bench::runner::{run_full_sweep, sweep_json, Mode};
use redsoc_bench::{threads, TraceCache};
use redsoc_workloads::Benchmark;

const LEN: u64 = 5_000;

#[test]
fn full_sweep_json_is_complete_and_sane() {
    let cache = TraceCache::new(LEN);
    let grid = run_full_sweep(&cache, &Mode::all(), threads().expect("REDSOC_THREADS"));
    let text = sweep_json(&grid, LEN).pretty();

    let doc = Json::parse(&text).expect("sweep JSON parses back");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("redsoc-bench-sweep/v4")
    );
    assert_eq!(
        doc.get("trace_len").and_then(Json::as_num),
        Some(LEN as f64)
    );
    assert!(doc
        .get("threads")
        .and_then(Json::as_num)
        .is_some_and(|t| t >= 1.0));
    assert!(doc
        .get("wall_seconds")
        .and_then(Json::as_num)
        .is_some_and(|w| w > 0.0));

    // /v3: the top-level status tally must show a fully-ok sweep.
    let counts = doc.get("status_counts").expect("status_counts in /v3");
    for failing in ["failed", "timeout", "quarantined"] {
        assert_eq!(
            counts.get(failing).and_then(Json::as_num),
            Some(0.0),
            "clean sweep must have zero {failing} cells"
        );
    }

    let jobs = doc.get("jobs").and_then(Json::as_arr).expect("jobs array");
    // 16 workloads × 3 cores × 4 modes.
    assert_eq!(jobs.len(), Benchmark::all().len() * 3 * Mode::all().len());

    // Coverage: every (benchmark, core) pair appears for every mode.
    for bench in Benchmark::all() {
        for core in ["BIG", "MEDIUM", "SMALL"] {
            for mode in Mode::all() {
                let hit = jobs.iter().any(|j| {
                    j.get("benchmark").and_then(Json::as_str) == Some(bench.name())
                        && j.get("core").and_then(Json::as_str) == Some(core)
                        && j.get("mode").and_then(Json::as_str) == Some(mode.label())
                });
                assert!(hit, "missing {}/{core}/{}", bench.name(), mode.label());
            }
        }
    }

    // Sanity of every row: ok status, finite positive speedup, real
    // cycle counts.
    for j in jobs {
        let name = j.get("benchmark").and_then(Json::as_str).unwrap_or("?");
        assert_eq!(
            j.get("status").and_then(Json::as_str),
            Some("ok"),
            "{name}: clean sweep rows must be ok"
        );
        assert!(
            j.get("attempts")
                .and_then(Json::as_num)
                .is_some_and(|a| (a - 1.0).abs() < 1e-12),
            "{name}: clean rows succeed on the first attempt"
        );
        assert_eq!(j.get("restored"), Some(&Json::Bool(false)));
        assert_eq!(
            j.get("error"),
            Some(&Json::Null),
            "{name}: ok rows carry a null error"
        );
        let speedup = j
            .get("speedup_over_baseline")
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("{name}: speedup missing or non-finite"));
        assert!(
            speedup.is_finite() && speedup > 0.0,
            "{name}: bad speedup {speedup}"
        );
        assert!(j
            .get("cycles")
            .and_then(Json::as_num)
            .is_some_and(|c| c > 0.0));
        assert!(j
            .get("committed")
            .and_then(Json::as_num)
            .is_some_and(|c| c > 0.0));
        assert!(j.get("ipc").and_then(Json::as_num).is_some_and(|i| i > 0.0));
        if j.get("mode").and_then(Json::as_str) == Some("baseline") {
            assert!(
                (speedup - 1.0).abs() < 1e-12,
                "{name}: baseline speedup must be 1.0, got {speedup}"
            );
        }
        // Simulator rows carry a stall breakdown that partitions cycles
        // exactly; TS rows keep null so documents stay compatible.
        let mode = j.get("mode").and_then(Json::as_str).unwrap_or("?");
        let stalls = j.get("stalls").expect("stalls field present in /v3");
        if mode == "ts" {
            assert_eq!(*stalls, Json::Null, "{name}: TS rows have null stalls");
        } else {
            let cycles = j.get("cycles").and_then(Json::as_num).unwrap_or(0.0);
            let total: f64 = [
                "busy",
                "frontend",
                "rob_full",
                "rs_full",
                "lsq_full",
                "fu_contention",
                "memory",
                "slack_hold",
                "exec_latency",
            ]
            .iter()
            .map(|k| {
                stalls
                    .get(k)
                    .and_then(Json::as_num)
                    .unwrap_or_else(|| panic!("{name}/{mode}: stall counter {k} missing"))
            })
            .sum();
            assert!(
                (total - cycles).abs() < 0.5,
                "{name}/{mode}: stall partition {total} != cycles {cycles}"
            );
        }
    }
}
