//! Runs the benchmark at toy sizes (`--quick`) over all four workloads,
//! untraced and traced, and checks the output contract: every metric that
//! `BENCHMARK.json` declares is emitted for every workload, finite, with
//! the declared unit, and every check passed.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use redsoc_bench::json::Json;

fn declared(manifest: &Json, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn quick_run_emits_every_declared_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let manifest =
        Json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let out_root = Path::new(env!("CARGO_TARGET_TMPDIR"));

    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--quick", "--seed", "2"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", out_root)
        .output()
        .expect("benchmark runs");
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {}: {}\n{}",
        out.status,
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        elapsed < Duration::from_secs(60),
        "quick run took {elapsed:?}"
    );

    let last = stdout.lines().last().expect("output");
    let result = Json::parse(last).expect("last line is one JSON object");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed"), Some(&Json::Num(0.0)));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_num)
            .unwrap_or(0.0)
            >= 1.0
    );

    let metrics = result.get("metrics").expect("metrics");
    let workloads = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), 4);
    let mut wanted = declared(&manifest, "end_to_end");
    wanted.extend(declared(&manifest, "per_layer"));
    for w in workloads {
        let w = w.get("name").and_then(Json::as_str).expect("workload name");
        for (name, unit) in &wanted {
            let m = metrics
                .get(&format!("{w}/{name}"))
                .unwrap_or_else(|| panic!("{w}/{name} not emitted"));
            let value = m.get("value").and_then(Json::as_num);
            assert!(value.is_some_and(f64::is_finite), "{w}/{name} = {value:?}");
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{w}/{name}"
            );
        }
    }
    if let Json::Obj(m) = metrics {
        assert_eq!(m.len(), 4 * wanted.len(), "no undeclared metrics");
    }

    let dir = out_root.join("perf");
    let spans = std::fs::read_to_string(dir.join("spans.jsonl")).expect("spans written");
    for line in spans.lines() {
        Json::parse(line).expect("each span line is one JSON object");
    }
    assert!(spans.contains("\"name\":\"sim_run\"") && spans.contains("\"name\":\"grid\""));
    let doc = Json::parse(&std::fs::read_to_string(dir.join("result.json")).expect("result"))
        .expect("result.json parses");
    let prov = doc.get("provenance").expect("provenance");
    for key in [
        "cpu", "nproc", "kernel", "rustc", "profile", "git_rev", "seed", "date",
    ] {
        assert!(
            prov.get(key).and_then(Json::as_str).is_some(),
            "provenance lacks {key}"
        );
    }
}
