//! `perf` — the repository benchmark: end-to-end and per-layer metrics of
//! the ReDSOC simulator, its fuzz oracle and its sweep harness.
//!
//! ```text
//! cargo run --release --manifest-path examples/perf/Cargo.toml -- --seed 1
//! cargo run --release --manifest-path examples/perf/Cargo.toml -- \
//!     --workload kernel_chains --seed 3 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root: the `sweep_grid` workload checks its
//! cells against `BENCH_sweep.json` there. Outputs (`result.json`,
//! `spans.jsonl`, sweep journals) go to `$CARGO_TARGET_DIR/perf`, or
//! `target/perf` when the variable is unset. See `README.md` beside
//! this package for the metrics, workloads and measured spreads.

mod probes;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use redsoc_bench::json::Json;
use redsoc_bench::worker::{run_worker, WorkerOptions};
use redsoc_isa::trace::DynOp;

use stats::{median, percentile, samples_for, Summary};
use trace::Tracer;
use workloads::{Round, Sizes, Workload, NAMES};

/// No run measures longer than this, whatever the flags ask for, so a
/// run ends well inside three minutes.
const MEASURE_CAP: Duration = Duration::from_secs(110);
/// Fuzz cases the verify-layer probe checks.
const PROBE_CASES: u64 = 50;

/// Where outputs go: `$CARGO_TARGET_DIR/perf`, else `target/perf`,
/// relative to the working directory.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perf")
}

#[derive(Debug)]
struct Opts {
    workloads: Vec<&'static str>,
    seed: u64,
    /// Measure for at least this long.
    seconds: f64,
    /// Measure at least this many rounds.
    rounds: u32,
    /// `None`: the untraced rounds and then the traced pass.
    trace: Option<bool>,
    quick: bool,
    /// Internal: set up and run one round, then report peak RSS.
    child_round: bool,
}

const USAGE: &str =
    "usage: perf [--workload all|kernel_chains|spec_memory|fuzz_oracle|sweep_grid] \
[--seed N] [--seconds S] [--rounds N] [--trace 0|1] [--quick]";

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workloads: NAMES.to_vec(),
            seed: 1,
            seconds: 0.0,
            rounds: 0,
            trace: None,
            quick: false,
            child_round: false,
        };
        let mut rounds = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
            let bad = |v: &String| format!("bad value {v:?} for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    o.workloads = match v.as_str() {
                        "all" => NAMES.to_vec(),
                        name => vec![*NAMES.iter().find(|n| **n == name).ok_or_else(|| bad(v))?],
                    };
                }
                "--seed" => {
                    let v = value()?;
                    o.seed = v.parse().map_err(|_| bad(v))?;
                }
                "--seconds" => {
                    let v = value()?;
                    o.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad(v))?;
                }
                "--rounds" => {
                    let v = value()?;
                    rounds = Some(v.parse().ok().filter(|n| *n >= 1).ok_or_else(|| bad(v))?);
                }
                "--trace" => {
                    let v = value()?;
                    o.trace = Some(match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(v)),
                    });
                }
                "--quick" => o.quick = true,
                "--child-round" => o.child_round = true,
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        // A time budget or toy sizes replace the fixed round count of a
        // full human run.
        o.rounds = rounds.unwrap_or(if o.seconds > 0.0 || o.quick { 3 } else { 15 });
        Ok(o)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

impl Metric {
    /// Median and quartiles of `xs` (all zero, n = 0, without samples).
    fn of(name: &str, unit: &'static str, xs: &[f64]) -> Metric {
        let s = Summary::of(xs).unwrap_or(Summary {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            n: 0,
        });
        Metric {
            name: name.to_string(),
            unit,
            value: s.median,
            q1: s.q1,
            q3: s.q3,
            n: s.n,
        }
    }
}

/// Everything measured for one workload.
struct Bench {
    name: &'static str,
    w: Box<dyn Workload>,
    setup_s: Vec<f64>,
    peak_rss_mb: Option<f64>,
    rounds: Vec<Round>,
    untraced_walls: Vec<f64>,
    traced: Vec<(Round, trace::Layers)>,
    spans: Option<Tracer>,
    /// Results of the first round; every later round must repeat them.
    first: Option<Vec<u64>>,
    attempted: u64,
    failures: Vec<String>,
}

impl Bench {
    fn new(name: &'static str, w: Box<dyn Workload>) -> Bench {
        Bench {
            name,
            w,
            setup_s: Vec::new(),
            peak_rss_mb: None,
            rounds: Vec::new(),
            untraced_walls: Vec::new(),
            traced: Vec::new(),
            spans: None,
            first: None,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Generate the inputs, timing it.
    fn setup(&mut self) -> Result<(), String> {
        let start = Instant::now();
        self.w.setup()?;
        self.setup_s.push(start.elapsed().as_secs_f64());
        Ok(())
    }

    /// Run one round, check it against the first round's results, and
    /// account its operations.
    fn round(&mut self, tr: &mut Tracer) -> Round {
        tr.open("round", self.name, false);
        let mut r = self.w.round(tr);
        tr.close();
        r.failures.append(&mut tr.failures);
        match &self.first {
            None => self.first = Some(r.results.clone()),
            Some(first) if *first != r.results => r.failures.push(
                if tr.enabled() {
                    "traced results differ from the untraced round's"
                } else {
                    "results differ between rounds"
                }
                .into(),
            ),
            Some(_) => {}
        }
        self.attempted += r.attempted;
        self.failures.extend(r.failures.iter().cloned());
        r
    }

    fn job_samples(&self) -> usize {
        self.rounds.iter().map(|r| r.jobs_ms.len()).sum()
    }

    fn cycle_samples(&self) -> usize {
        self.traced
            .iter()
            .map(|(_, l)| l.ns_per_cycle().len())
            .sum()
    }

    fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted.max(1))
    }

    /// The gated metrics: work completed per second at the workload's
    /// fixed input size (median over rounds), set-up time and memory.
    fn end_to_end(&self) -> Vec<Metric> {
        let per_round = |name, unit, f: &dyn Fn(&Round) -> f64| {
            let xs: Vec<f64> = self.rounds.iter().map(f).collect();
            Metric::of(name, unit, &xs)
        };
        vec![
            per_round("sim_mips", "Minstr/s", &|r| {
                r.committed as f64 / r.wall.as_secs_f64() / 1e6
            }),
            per_round("sim_kcycles_per_s", "kcycles/s", &|r| {
                r.cycles as f64 / r.wall.as_secs_f64() / 1e3
            }),
            per_round("jobs_per_s", "1/s", &|r| {
                r.jobs_ms.len() as f64 / r.wall.as_secs_f64()
            }),
            Metric::of("setup_s", "s", &self.setup_s),
            Metric::of(
                "peak_rss_mb",
                "MiB",
                &self.peak_rss_mb.into_iter().collect::<Vec<_>>(),
            ),
        ]
    }

    /// Job latency over all rounds: printed, not gated. The jobs of a
    /// round are different simulations, cases or cells, so a percentile
    /// can fall in a gap between two job kinds and jump between runs;
    /// q1 and q3 here are the quartiles of the job times.
    fn job_latency(&self) -> Vec<Metric> {
        let jobs: Vec<f64> = self.rounds.iter().flat_map(|r| r.jobs_ms.clone()).collect();
        let spread = Metric::of("", "ms", &jobs);
        [("job_ms_p50", 50), ("job_ms_p90", 90)]
            .into_iter()
            .map(|(name, pct)| Metric {
                name: name.to_string(),
                value: percentile(&jobs, pct).unwrap_or(0.0),
                ..spread.clone()
            })
            .collect()
    }

    fn per_layer(&self, probes: &probes::Probes) -> Vec<Metric> {
        let mut by_name: Vec<(String, &'static str, Vec<f64>)> = Vec::new();
        for (_, layers) in &self.traced {
            for (name, unit, v) in layers.metrics() {
                match by_name.iter_mut().find(|(n, _, _)| *n == name) {
                    Some(entry) => entry.2.push(v),
                    None => by_name.push((name, unit, vec![v])),
                }
            }
        }
        let mut out: Vec<Metric> = by_name
            .iter()
            .map(|(name, unit, xs)| Metric::of(name, unit, xs))
            .collect();
        let ns: Vec<f64> = self
            .traced
            .iter()
            .flat_map(|(_, l)| l.ns_per_cycle().to_vec())
            .collect();
        for (name, pct) in [
            ("core.pipeline.host_ns_per_cycle_p50", 50),
            ("core.pipeline.host_ns_per_cycle_p90", 90),
        ] {
            out.push(Metric {
                value: percentile(&ns, pct).unwrap_or(0.0),
                ..Metric::of(name, "ns", &ns)
            });
        }
        out.push(Metric::of(
            "isa.dynop_bytes",
            "B",
            &[std::mem::size_of::<DynOp>() as f64],
        ));
        let traced: Vec<f64> = self
            .traced
            .iter()
            .map(|(r, _)| r.wall.as_secs_f64())
            .collect();
        let overhead = match (median(&traced), median(&self.untraced_walls)) {
            (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
            _ => 0.0,
        };
        out.push(Metric::of("trace.overhead_frac", "frac", &[overhead]));
        out.extend(
            probes
                .metrics
                .iter()
                .map(|(name, unit, v)| Metric::of(name, unit, &[*v])),
        );
        out
    }
}

/// Stop measuring once the time, round and sample minimums are all met,
/// or at the cap.
fn enough(started: Instant, seconds: f64, rounds: usize, min_rounds: u32, short: bool) -> bool {
    let elapsed = started.elapsed();
    elapsed >= MEASURE_CAP
        || (elapsed.as_secs_f64() >= seconds && rounds >= min_rounds as usize && !short)
}

/// Peak resident set (VmHWM) of this process, in KiB.
fn peak_rss_kib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak RSS of a child process that sets up `workload` and runs one
/// round, in MiB.
fn child_peak_rss(opts: &Opts, workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child-round", "--workload", workload, "--seed"])
        .arg(opts.seed.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("cannot run child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let kib = text
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("peak_rss_kib "))
        .and_then(|v| v.trim().parse::<f64>().ok());
    match (out.status.success(), kib) {
        (true, Some(kib)) => Ok(kib / 1024.0),
        _ => Err(format!("child round failed ({}): {text}", out.status)),
    }
}

fn child_round(opts: &Opts) -> Result<bool, String> {
    let name = opts.workloads[0];
    let mut w = workloads::make(name, opts.seed, Sizes::new(opts.quick)).ok_or("no workload")?;
    w.setup()?;
    let r = w.round(&mut Tracer::off());
    for f in r.failures.iter().take(5) {
        eprintln!("{name}: {f}");
    }
    println!(
        "peak_rss_kib {}",
        peak_rss_kib().ok_or("VmHWM not available (Linux /proc required)")?
    );
    Ok(r.failures.is_empty())
}

// ---------------------------------------------------------------------------
// Provenance

fn first_line(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    Some(
        line.split_once(':')
            .map_or(line, |(_, v)| v)
            .trim()
            .to_string(),
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a repository.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// UTC timestamp, `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Days to civil date (proleptic Gregorian), after Howard Hinnant.
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    let s = secs % 86_400;
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        s / 3600,
        s / 60 % 60,
        s % 60
    )
}

fn provenance(opts: &Opts, benches: &[Bench]) -> Vec<(&'static str, String)> {
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let rounds = benches
        .iter()
        .map(|b| format!("{}={}+{}", b.name, b.rounds.len(), b.traced.len()))
        .collect::<Vec<_>>()
        .join(" ");
    vec![
        (
            "cpu",
            first_line("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "kernel",
            first_line("/proc/sys/kernel/osrelease", "").unwrap_or_else(|| "unknown".into()),
        ),
        ("rustc", rustc),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("git_rev", git_rev()),
        ("seed", opts.seed.to_string()),
        ("rounds (untraced+traced)", rounds),
        ("date", utc_now()),
    ]
}

// ---------------------------------------------------------------------------
// The run

fn run(opts: &Opts) -> Result<bool, String> {
    let sizes = Sizes::new(opts.quick);
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("cannot create {:?}: {e}", out_dir()))?;
    let mut benches: Vec<Bench> = opts
        .workloads
        .iter()
        .map(|&name| workloads::make(name, opts.seed, sizes).map(|w| Bench::new(name, w)))
        .collect::<Option<_>>()
        .ok_or("unknown workload")?;

    let untraced = opts.trace != Some(true);
    let traced = opts.trace != Some(false);
    if untraced {
        for b in &mut benches {
            match child_peak_rss(opts, b.name) {
                Ok(mb) => b.peak_rss_mb = Some(mb),
                Err(e) => b.failures.push(e),
            }
        }
        // Every round, the warm-up included, is preceded by a timed
        // set-up, so the set-up samples span the run as the rounds do. A
        // set-up can take milliseconds, and a burst of them all sees one
        // passing state of the host.
        for b in &mut benches {
            b.setup()?;
            // Warm-up: caches fill and lazy set-up finishes; discarded.
            b.round(&mut Tracer::off());
        }
        // Round-robin over the workloads, so slow drift of the host
        // spreads over all of them instead of landing on one.
        let started = Instant::now();
        loop {
            for b in &mut benches {
                b.setup()?;
                let r = b.round(&mut Tracer::off());
                b.rounds.push(r);
            }
            let short = benches.iter().any(|b| b.job_samples() < samples_for(90));
            if enough(
                started,
                opts.seconds,
                benches[0].rounds.len(),
                opts.rounds,
                short,
            ) {
                break;
            }
        }
    } else {
        for b in &mut benches {
            b.setup()?;
        }
    }

    let mut probe = None;
    if traced {
        let reference = workloads::load_reference()?;
        let started = Instant::now();
        loop {
            for b in &mut benches {
                // Alternate untraced and traced rounds: the ratio of
                // their medians is the tracing overhead.
                let r = b.round(&mut Tracer::off());
                b.untraced_walls.push(r.wall.as_secs_f64());
                let mut tr = Tracer::on();
                let r = b.round(&mut tr);
                let layers = std::mem::take(&mut tr.layers);
                b.traced.push((r, layers));
                if b.spans.is_none() {
                    b.spans = Some(tr);
                }
            }
            let short = benches.iter().any(|b| b.cycle_samples() < samples_for(90));
            let (done, min) = (benches[0].traced.len(), opts.rounds.min(3));
            if enough(started, opts.seconds, done, min, short) {
                break;
            }
        }
        let cases = if opts.quick { 10 } else { PROBE_CASES };
        probe = Some(probes::run(opts.seed, cases, &reference));
    }

    report(opts, &benches, probe.as_ref())
}

fn report(opts: &Opts, benches: &[Bench], probe: Option<&probes::Probes>) -> Result<bool, String> {
    let dir = out_dir();
    let mut text = String::from("\n## System\n\n| Property | Value |\n|---|---|\n");
    let prov = provenance(opts, benches);
    for (k, v) in &prov {
        let _ = writeln!(text, "| {k} | {v} |");
    }

    let mut spans = String::new();
    let mut json_metrics = Vec::new();
    let mut workloads_json = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let multi = benches.len() > 1;
    for b in benches {
        let name = b.name;
        let mut metrics = Vec::new();
        let mut diagnostics = Vec::new();
        if opts.trace != Some(true) {
            metrics.extend(b.end_to_end());
            diagnostics.extend(b.job_latency());
        }
        if let Some(p) = probe {
            metrics.extend(b.per_layer(p));
        }
        if let Some(tr) = &b.spans {
            let _ = writeln!(
                spans,
                "{{\"workload\":\"{name}\",\"spans\":{}}}",
                tr.span_count()
            );
            tr.spans_jsonl(&mut spans);
        }
        let (att, fail) = (b.attempted, b.failed());
        attempted += att;
        failed += fail;
        let _ = writeln!(
            text,
            "\n## {name}\n\nrounds {} untraced + {} traced, ops_attempted {att}, ops_failed {fail}\n\n\
             | metric | unit | median | q1 | q3 | n |\n|---|---|---:|---:|---:|---:|",
            b.rounds.len(),
            b.traced.len()
        );
        for (m, note) in metrics
            .iter()
            .map(|m| (m, ""))
            .chain(diagnostics.iter().map(|m| (m, " (diagnostic)")))
        {
            let _ = writeln!(
                text,
                "| {}{note} | {} | {:.6} | {:.6} | {:.6} | {} |",
                m.name, m.unit, m.value, m.q1, m.q3, m.n
            );
        }
        for m in &metrics {
            let key = if multi {
                format!("{name}/{}", m.name)
            } else {
                m.name.clone()
            };
            json_metrics.push((
                key,
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            ));
        }
        for f in b.failures.iter().take(10) {
            eprintln!("{name}: FAILED {f}");
        }
        let as_json = |ms: &[Metric]| {
            Json::obj(
                ms.iter()
                    .map(|m| {
                        (
                            m.name.as_str(),
                            Json::obj(vec![
                                ("unit", Json::str(m.unit)),
                                ("median", Json::Num(m.value)),
                                ("q1", Json::Num(m.q1)),
                                ("q3", Json::Num(m.q3)),
                                ("n", Json::num(m.n as f64)),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        workloads_json.push((
            name,
            Json::obj(vec![
                ("ops_attempted", Json::num(att as f64)),
                ("ops_failed", Json::num(fail as f64)),
                ("rounds", Json::num(b.rounds.len() as f64)),
                ("traced_rounds", Json::num(b.traced.len() as f64)),
                ("metrics", as_json(&metrics)),
                ("diagnostics", as_json(&diagnostics)),
            ]),
        ));
    }
    if let Some(p) = probe {
        attempted += p.attempted;
        failed += p.failures.len() as u64;
        for f in p.failures.iter().take(10) {
            eprintln!("probe: FAILED {f}");
        }
    }

    let result = Json::obj(vec![
        (
            "provenance",
            Json::obj(prov.iter().map(|(k, v)| (*k, Json::str(v))).collect()),
        ),
        ("workloads", Json::obj(workloads_json)),
    ]);
    let result_path = dir.join("result.json");
    std::fs::write(&result_path, result.pretty())
        .map_err(|e| format!("cannot write {}: {e}", result_path.display()))?;
    let _ = writeln!(text, "\nresults: {}", result_path.display());
    if !spans.is_empty() {
        let spans_path = dir.join("spans.jsonl");
        std::fs::write(&spans_path, &spans)
            .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
        let _ = writeln!(text, "spans: {}", spans_path.display());
    }

    let correct = failed == 0;
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted.max(1) as f64)),
        ("failed", Json::num(failed.min(attempted.max(1)) as f64)),
        ("metrics", Json::Obj(json_metrics.into_iter().collect())),
    ]);
    let compact: String = line.pretty().lines().map(str::trim_start).collect();
    println!("{text}\n{compact}");
    Ok(correct)
}

/// The worker half of the process-isolated sweep: the sweep harness
/// spawns this binary as `perf worker --heartbeat-ms N [--mem-limit-mb M]`.
fn worker(args: &[String]) -> Result<(), String> {
    let mut opts = WorkerOptions {
        mem_limit_mb: None,
        heartbeat_ms: 250,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value: u64 = it
            .next()
            .and_then(|v| v.parse().ok())
            .filter(|v| *v > 0)
            .ok_or_else(|| format!("{flag} needs a positive number"))?;
        match flag.as_str() {
            "--heartbeat-ms" => opts.heartbeat_ms = value,
            "--mem-limit-mb" => opts.mem_limit_mb = Some(value),
            _ => return Err(format!("unknown worker flag {flag}")),
        }
    }
    run_worker(&opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("worker") => worker(&args[1..]).map(|()| true),
        _ => Opts::parse(&args).and_then(|o| {
            if o.child_round {
                child_round(&o)
            } else {
                run(&o)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
