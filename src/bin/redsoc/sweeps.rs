//! `redsoc sweepcmp` and `redsoc perfgate`: the two commands that compare
//! a sweep document with another.

use redsoc::bench::json::Json;
use redsoc::bench::runner::canonicalize_sweep;

use crate::{usage_err, CliError, CliResult, Flags};

pub(crate) fn cmd_sweepcmp(args: &[String]) -> CliResult {
    let [a, b] = args else {
        return Err(usage_err("usage: redsoc sweepcmp <a.json> <b.json>"));
    };
    let load = |path: &String| -> Result<Json, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
        // A non-JSON argument is the caller handing us the wrong file —
        // a usage error (exit 2), not an I/O failure.
        let doc = Json::parse(&text)
            .map_err(|e| usage_err(format!("{path}: not valid sweep JSON: {e}")))?;
        Ok(canonicalize_sweep(&doc))
    };
    let (da, db) = (load(a)?, load(b)?);
    if da == db {
        println!(
            "sweeps match after canonicalisation (wall-clock, thread-count, and \
             retry-provenance fields ignored)"
        );
        Ok(())
    } else {
        // Point at the first differing job row to make mismatches
        // debuggable without external tooling.
        let ja = da.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
        let jb = db.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
        let mut detail = format!("{} has {} jobs, {} has {}", a, ja.len(), b, jb.len());
        for (i, (ra, rb)) in ja.iter().zip(jb.iter()).enumerate() {
            if ra != rb {
                detail = format!("first differing job row is #{i}:\n  {a}: {ra:?}\n  {b}: {rb:?}");
                break;
            }
        }
        Err(CliError::Io(format!("sweeps differ: {detail}")))
    }
}

/// Perf-regression gate: compare a fresh sweep's runtime against the
/// committed `BENCH_sweep.json` baseline.
///
/// The gated metric is the sweep's `cpu_seconds` (the sum of per-job
/// runtimes): unlike the top-level `wall_seconds` it does not shrink as
/// `--threads` grows, so the comparison is stable across worker counts
/// — as long as workers do not exceed physical cores, which would
/// timeshare jobs and inflate their measured runtimes. The baseline is
/// captured at `--threads 1` for that reason; compare against sweeps
/// run with `--threads` ≤ the machine's core count. The gate fails
/// (exit 1) when the fresh sweep is more than `--tolerance` percent
/// slower than the baseline (default 15%, per the project's perf
/// budget).
///
/// Updating the baseline after an *intentional* perf change:
///
/// ```text
/// cargo build --release
/// ./target/release/redsoc bench --threads 1 --len 2000 --out BENCH_sweep.json
/// git add BENCH_sweep.json   # commit alongside the change that moved it
/// ```
///
/// The committed numbers are machine-specific; refresh the baseline on
/// the reference machine (or raise `--tolerance` in CI) when the
/// hardware changes.
pub(crate) fn cmd_perfgate(args: &[String]) -> CliResult {
    let (paths, rest) = args.split_at(args.len().min(2));
    let [baseline_path, fresh_path] = paths else {
        return Err(usage_err(
            "usage: redsoc perfgate <baseline.json> <fresh.json> [--tolerance PCT]",
        ));
    };
    let flags = Flags::parse(rest, &["tolerance"])?;
    let tolerance: f64 = flags.num("tolerance", 15.0)?;
    if !(0.0..=1000.0).contains(&tolerance) {
        return Err(usage_err("--tolerance must be a percentage in 0..=1000"));
    }

    let load = |path: &String| -> Result<Json, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
        Json::parse(&text).map_err(|e| usage_err(format!("{path}: not valid sweep JSON: {e}")))
    };
    let num = |doc: &Json, path: &str, key: &str| -> Result<f64, CliError> {
        doc.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| usage_err(format!("{path}: missing numeric {key:?} field")))
    };
    let (base, fresh) = (load(baseline_path)?, load(fresh_path)?);

    // The gate only makes sense over the same grid: a different trace
    // length or job count is the caller comparing the wrong sweeps.
    let (b_len, f_len) = (
        num(&base, baseline_path, "trace_len")?,
        num(&fresh, fresh_path, "trace_len")?,
    );
    if b_len != f_len {
        return Err(usage_err(format!(
            "trace_len differs ({b_len} vs {f_len}): sweeps are not comparable"
        )));
    }
    let jobs = |doc: &Json| doc.get("jobs").and_then(Json::as_arr).map_or(0, <[_]>::len);
    if jobs(&base) != jobs(&fresh) {
        return Err(usage_err(format!(
            "job count differs ({} vs {}): sweeps are not comparable",
            jobs(&base),
            jobs(&fresh)
        )));
    }

    let b_cpu = num(&base, baseline_path, "cpu_seconds")?;
    let f_cpu = num(&fresh, fresh_path, "cpu_seconds")?;
    if b_cpu <= 0.0 {
        return Err(usage_err(format!(
            "{baseline_path}: baseline cpu_seconds must be positive"
        )));
    }
    let ratio = f_cpu / b_cpu;
    println!(
        "perfgate: baseline {b_cpu:.2}s cpu, fresh {f_cpu:.2}s cpu ({ratio:.3}x, tolerance +{tolerance:.0}%)"
    );

    // Per-job wall times make a sweep-level regression debuggable: show
    // the worst cells so the offending (benchmark, core, mode) is in
    // the gate output, not just the total.
    let cell_times = |doc: &Json| -> Vec<(String, f64)> {
        doc.get("jobs")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|j| {
                let key = format!(
                    "{}/{}/{}",
                    j.get("benchmark").and_then(Json::as_str)?,
                    j.get("core").and_then(Json::as_str)?,
                    j.get("mode").and_then(Json::as_str)?
                );
                Some((key, j.get("wall_seconds").and_then(Json::as_num)?))
            })
            .collect()
    };
    let base_cells = cell_times(&base);
    let mut worst: Vec<(String, f64, f64)> = cell_times(&fresh)
        .into_iter()
        .filter_map(|(key, f_s)| {
            let (_, b_s) = base_cells.iter().find(|(k, _)| *k == key)?;
            (*b_s > 1e-9).then_some((key, *b_s, f_s))
        })
        .collect();
    worst.sort_by(|a, b| {
        (b.2 / b.1)
            .partial_cmp(&(a.2 / a.1))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for (key, b_s, f_s) in worst.iter().take(3) {
        println!(
            "  slowest-moving cell: {key}  {b_s:.3}s -> {f_s:.3}s ({:.2}x)",
            f_s / b_s
        );
    }

    if ratio > 1.0 + tolerance / 100.0 {
        Err(CliError::Io(format!(
            "perf regression: fresh sweep is {:.1}% slower than the committed baseline \
             (gate: +{tolerance:.0}%).\n\
             If this slowdown is intentional, refresh the baseline and commit it:\n\
             \x20 cargo build --release\n\
             \x20 ./target/release/redsoc bench --threads 1 --len 2000 --out BENCH_sweep.json",
            (ratio - 1.0) * 100.0
        )))
    } else {
        println!("perfgate: OK");
        Ok(())
    }
}
