//! `redsoc` — command-line driver for the simulator.
//!
//! ```sh
//! redsoc list
//! redsoc run bitcnt --core big --sched redsoc --len 200000
//! redsoc run bitcnt --events bitcnt.jsonl
//! redsoc trace conv --format chrome --out conv_trace.json
//! redsoc compare crc --core medium
//! redsoc report --out report.json
//! redsoc bench --threads 8 --len 300000 --out sweep.json
//! redsoc bench --journal sweep.jnl --job-timeout 50000000
//! redsoc bench --resume sweep.jnl --out sweep.json
//! redsoc chaos --kills 5 --seed 1 --len 20000
//! redsoc sweepcmp a_sweep.json b_sweep.json
//! redsoc perfgate BENCH_sweep.json fresh_sweep.json --tolerance 15
//! ```
//!
//! Exit codes are structured so scripts can tell failure modes apart:
//! `0` success, `1` I/O or comparison mismatch, `2` usage error, `3`
//! simulator error, `4` sweep or report completed but with failed cells.

// A crash in the driver loses an operator's sweep; every fallible path
// must flow into the structured `CliError` exit codes instead.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

use redsoc::bench::journal::Journal;
use redsoc::bench::pool::WorkerPoolConfig;
use redsoc::bench::runner::{
    canonicalize_sweep, run_grid_isolated, run_jobs, sweep_json, Isolation, Mode,
};
use redsoc::bench::supervisor::{FaultPlan, SupervisorConfig};
use redsoc::core::sched::ts::run_ts;
use redsoc::prelude::*;

/// A classified CLI failure: the message goes to stderr, the kind picks
/// the process exit code.
enum CliError {
    /// Bad invocation: unknown command, flag, or flag value (exit 2).
    Usage(String),
    /// Filesystem / serialisation trouble, or a `sweepcmp` mismatch
    /// (exit 1).
    Io(String),
    /// The simulator itself reported an error (exit 3).
    Sim(String),
    /// The sweep ran to completion but some cells failed (exit 4).
    Partial(String),
}

impl CliError {
    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Sim(m) | CliError::Partial(m) => m,
        }
    }

    fn code(&self) -> ExitCode {
        match self {
            CliError::Io(_) => ExitCode::from(1),
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Sim(_) => ExitCode::from(3),
            CliError::Partial(_) => ExitCode::from(4),
        }
    }
}

type CliResult = Result<(), CliError>;

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn parse_core(s: &str) -> Result<CoreConfig, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "small" => Ok(CoreConfig::small()),
        "medium" => Ok(CoreConfig::medium()),
        "big" => Ok(CoreConfig::big()),
        other => Err(usage_err(format!(
            "unknown core {other:?} (small|medium|big)"
        ))),
    }
}

fn parse_sched(s: &str) -> Result<SchedulerConfig, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "baseline" => Ok(SchedulerConfig::baseline()),
        "redsoc" => Ok(SchedulerConfig::redsoc()),
        "mos" => Ok(SchedulerConfig::mos()),
        other => Err(usage_err(format!(
            "unknown scheduler {other:?} (baseline|redsoc|mos)"
        ))),
    }
}

fn parse_mem_model(s: &str) -> Result<redsoc::mem::MemModelConfig, CliError> {
    redsoc::mem::MemModelConfig::parse(&s.to_ascii_lowercase())
        .ok_or_else(|| usage_err(format!("unknown memory model {s:?} (classic|contended)")))
}

/// Apply an optional `--mem-model` flag to a core config.
fn with_mem_flag(core: CoreConfig, flags: &Flags) -> Result<CoreConfig, CliError> {
    match flags.get("mem-model") {
        Some(s) => Ok(core.with_mem_model(parse_mem_model(s)?)),
        None => Ok(core),
    }
}

fn parse_bench(s: &str) -> Result<Benchmark, CliError> {
    Benchmark::all()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            let names: Vec<_> = Benchmark::all().iter().map(|b| b.name()).collect();
            usage_err(format!("unknown benchmark {s:?}; available: {names:?}"))
        })
}

/// Minimal flag parser: `--key value` pairs after the positional args.
/// Each command declares its accepted keys, so a typo fails with a usage
/// hint instead of being silently ignored.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(usage_err(format!("unexpected argument {a:?}")));
            };
            if !allowed.contains(&key) {
                return Err(usage_err(format!(
                    "unknown flag --{key}; accepted flags here: {}",
                    allowed
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                )));
            }
            let Some(v) = it.next() else {
                return Err(usage_err(format!("flag --{key} needs a value")));
            };
            pairs.push((key.to_string(), v.clone()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parse a numeric flag, defaulting when absent.
    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|e| usage_err(format!("bad --{key}: {e}"))),
            None => Ok(default),
        }
    }
}

fn print_stalls(rep: &SimReport) {
    println!("stall attribution ({} cycles):", rep.cycles);
    for cause in StallCause::all() {
        let n = rep.stalls.count(cause);
        if n > 0 {
            println!(
                "  {:<14} {:>12}  ({:>5.1}%)",
                cause.label(),
                n,
                n as f64 / rep.cycles as f64 * 100.0
            );
        }
    }
}

fn print_report(label: &str, rep: &SimReport) {
    println!("--- {label} ---");
    println!("cycles        {:>12}", rep.cycles);
    println!("committed     {:>12}", rep.committed);
    println!("IPC           {:>12.3}", rep.ipc());
    println!("recycled ops  {:>12}", rep.recycled_ops);
    println!("STL forwards  {:>12}", rep.stl_forwards);
    let mc = &rep.mem_contention;
    if mc.mshr_rejects + mc.mshr_merges + mc.port_wait_cycles + mc.dram_wait_cycles > 0 {
        println!(
            "mem contention{:>12} MSHR rejects, {} merges, {} port-wait, {} DRAM-wait cycles",
            mc.mshr_rejects, mc.mshr_merges, mc.port_wait_cycles, mc.dram_wait_cycles
        );
    }
    println!(
        "EGPW issues   {:>12}  (wasted {})",
        rep.egpw_issues, rep.egpw_wasted
    );
    println!("2-cycle holds {:>12}", rep.two_cycle_holds);
    println!(
        "E[chain len]  {:>12.2}  ({} sequences)",
        rep.chains.weighted_mean(),
        rep.chains.sequences()
    );
    println!("FU stalls     {:>11.1}%", rep.fu_stall_rate() * 100.0);
    println!(
        "br mispredict {:>11.2}%",
        rep.branch.mispredict_rate() * 100.0
    );
    println!(
        "tag mispredict{:>11.2}%  ({} predictions)",
        rep.tag_pred.mispredict_rate() * 100.0,
        rep.tag_pred.predictions
    );
    println!(
        "width mispred {:>11.2}% aggressive / {:.2}% conservative",
        rep.width_pred.aggressive_rate() * 100.0,
        rep.width_pred.conservative_rate() * 100.0
    );
}

fn cmd_list() -> CliResult {
    println!("{:<12} {:<8}", "benchmark", "class");
    for b in Benchmark::all() {
        println!("{:<12} {:<8}", b.name(), b.class().label());
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> CliResult {
    let bench = parse_bench(
        args.first()
            .ok_or_else(|| usage_err("usage: redsoc run <bench> [flags]"))?,
    )?;
    let flags = Flags::parse(&args[1..], &["core", "sched", "len", "events", "mem-model"])?;
    let core = with_mem_flag(parse_core(flags.get("core").unwrap_or("big"))?, &flags)?;
    let sched = parse_sched(flags.get("sched").unwrap_or("redsoc"))?;
    let len: u64 = flags.num("len", 100_000)?;
    let trace = bench.trace(len);
    let cfg = core.clone().with_sched(sched.clone());
    let rep = match flags.get("events") {
        Some(path) => {
            // Stream the full event log as JSONL while simulating.
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::Io(format!("cannot create {path}: {e}")))?;
            let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
            let rep = simulate_events(trace.into_iter(), cfg, &mut sink)
                .map_err(|e| CliError::Sim(e.to_string()))?;
            let lines = sink.lines();
            sink.finish();
            println!("wrote {lines} events to {path}");
            rep
        }
        None => {
            // A bounded ring costs almost nothing and gives the deadlock
            // watchdog a pipeline dump to attach to its error.
            let mut ring = RingSink::new(RingSink::DEFAULT_CAP);
            simulate_events(trace.into_iter(), cfg, &mut ring)
                .map_err(|e| CliError::Sim(e.to_string()))?
        }
    };
    print_report(
        &format!("{} on {} ({:?})", bench.name(), core.name, sched.mode),
        &rep,
    );
    print_stalls(&rep);
    Ok(())
}

fn cmd_trace(args: &[String]) -> CliResult {
    let bench = parse_bench(
        args.first()
            .ok_or_else(|| usage_err("usage: redsoc trace <bench> [flags]"))?,
    )?;
    let flags = Flags::parse(
        &args[1..],
        &["core", "sched", "len", "format", "out", "mem-model"],
    )?;
    let core = with_mem_flag(parse_core(flags.get("core").unwrap_or("big"))?, &flags)?;
    let sched = parse_sched(flags.get("sched").unwrap_or("redsoc"))?;
    let len: u64 = flags.num("len", 20_000)?;
    let format = flags.get("format").unwrap_or("chrome");
    let trace = bench.trace(len);
    let cfg = core.clone().with_sched(sched.clone());
    match format {
        "chrome" => {
            let out = flags.get("out").unwrap_or("trace.json");
            let mut sink = ChromeTraceSink::new(sched.quant().ticks_per_cycle());
            let rep = simulate_events(trace.into_iter(), cfg, &mut sink)
                .map_err(|e| CliError::Sim(e.to_string()))?;
            std::fs::write(out, sink.finish())
                .map_err(|e| CliError::Io(format!("cannot write {out}: {e}")))?;
            println!(
                "{} on {} ({:?}): {} cycles, {} committed",
                bench.name(),
                core.name,
                sched.mode,
                rep.cycles,
                rep.committed
            );
            println!(
                "wrote {} trace rows to {out} (load in chrome://tracing or ui.perfetto.dev)",
                sink.rows()
            );
        }
        "jsonl" => {
            let out = flags.get("out").unwrap_or("trace.jsonl");
            let file = std::fs::File::create(out)
                .map_err(|e| CliError::Io(format!("cannot create {out}: {e}")))?;
            let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
            let rep = simulate_events(trace.into_iter(), cfg, &mut sink)
                .map_err(|e| CliError::Sim(e.to_string()))?;
            let lines = sink.lines();
            sink.finish();
            println!(
                "{} on {} ({:?}): {} cycles, {} committed",
                bench.name(),
                core.name,
                sched.mode,
                rep.cycles,
                rep.committed
            );
            println!("wrote {lines} events to {out}");
        }
        other => {
            return Err(usage_err(format!(
                "unknown format {other:?} (accepted: --format chrome|jsonl)"
            )))
        }
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> CliResult {
    let bench = parse_bench(
        args.first()
            .ok_or_else(|| usage_err("usage: redsoc compare <bench> [flags]"))?,
    )?;
    let flags = Flags::parse(&args[1..], &["core", "len", "mem-model"])?;
    let core = with_mem_flag(parse_core(flags.get("core").unwrap_or("big"))?, &flags)?;
    let len: u64 = flags.num("len", 100_000)?;
    let trace = bench.trace(len);
    let sim_err = |e: SimError| CliError::Sim(e.to_string());
    let base = simulate(trace.iter().copied(), core.clone()).map_err(sim_err)?;
    let red = simulate(
        trace.iter().copied(),
        core.clone().with_sched(SchedulerConfig::redsoc()),
    )
    .map_err(sim_err)?;
    let mos = simulate(
        trace.iter().copied(),
        core.clone().with_sched(SchedulerConfig::mos()),
    )
    .map_err(sim_err)?;
    let ts = run_ts(&trace, &core, base.cycles, 0.01).map_err(sim_err)?;
    println!(
        "{} on {} ({} instructions)",
        bench.name(),
        core.name,
        trace.len()
    );
    println!("{:<10} {:>12} {:>9}", "scheduler", "cycles", "speedup");
    println!("{:<10} {:>12} {:>8.1}%", "baseline", base.cycles, 0.0);
    println!(
        "{:<10} {:>12} {:>8.1}%",
        "redsoc",
        red.cycles,
        (red.speedup_over(&base) - 1.0) * 100.0
    );
    println!(
        "{:<10} {:>12} {:>8.1}%",
        "ts",
        ts.cycles,
        (ts.speedup - 1.0) * 100.0
    );
    println!(
        "{:<10} {:>12} {:>8.1}%",
        "mos",
        mos.cycles,
        (mos.speedup_over(&base) - 1.0) * 100.0
    );
    Ok(())
}

/// Every paper number from one supervised job list: run it, write the
/// results document, and print each figure, table and ablation rendered
/// from that document. Trace length and threads come from
/// `REDSOC_TRACE_LEN` and `REDSOC_THREADS`; the committed `RESULTS.json`
/// is a bare run's output.
fn cmd_report(args: &[String]) -> CliResult {
    use redsoc::bench::report::{jobs, render, results_json};
    let flags = Flags::parse(args, &["out"])?;
    // Not `RESULTS.json`: that is the committed document, which a report
    // run replaces only when asked to by name.
    let out = flags.get("out").unwrap_or("report.json");
    let sup = SupervisorConfig {
        faults: FaultPlan::from_env().map_err(|e| usage_err(format!("bad REDSOC_FAULT: {e}")))?,
        ..SupervisorConfig::default()
    };
    let (len, threads) = (redsoc::bench::trace_len(), redsoc::bench::threads());
    let cache = redsoc::bench::TraceCache::new(len);
    let grid = run_jobs(&cache, &jobs(), threads, &sup, None, &Isolation::Thread);
    let doc = results_json(&grid, len);
    std::fs::write(out, doc.pretty())
        .map_err(|e| CliError::Io(format!("cannot write {out}: {e}")))?;
    for (_, text) in render(&doc) {
        println!("{text}");
    }
    println!(
        "{} jobs at len {len} on {threads} thread(s): wall {:.2}s, cpu {:.2}s; wrote {out}",
        grid.cells().len(),
        grid.wall.as_secs_f64(),
        grid.cpu_time().as_secs_f64(),
    );
    partial_error(&grid)
}

/// `Ok` for a fully successful grid, else the exit-4 error naming every
/// failed cell.
fn partial_error(grid: &redsoc::bench::runner::Grid) -> CliResult {
    let failed: Vec<String> = grid
        .cells()
        .iter()
        .filter(|c| !c.is_ok())
        .map(|c| format!("{} ({})", c.job.key(), c.status.label()))
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(CliError::Partial(format!(
            "sweep completed with {} failed cell(s): {}",
            failed.len(),
            failed.join(", ")
        )))
    }
}

fn cmd_bench(args: &[String]) -> CliResult {
    let flags = Flags::parse(
        args,
        &[
            "threads",
            "len",
            "out",
            "journal",
            "resume",
            "job-timeout",
            "max-retries",
            "backoff-ms",
            "mem-model",
            "isolation",
            "mem-limit-mb",
            "worker-recycle",
            "heartbeat-timeout-ms",
        ],
    )?;
    let threads = flags.num("threads", redsoc::bench::threads())?.max(1);
    let len: u64 = flags.num("len", redsoc::bench::trace_len())?;
    // Not `BENCH_sweep.json`: that is the committed baseline, rewritten
    // only by the perfgate re-baseline procedure.
    let out = flags.get("out").unwrap_or("sweep.json");

    let mut sup = SupervisorConfig {
        faults: FaultPlan::from_env().map_err(|e| usage_err(format!("bad REDSOC_FAULT: {e}")))?,
        ..SupervisorConfig::default()
    };
    if let Some(t) = flags.get("job-timeout") {
        let cycles: u64 = t
            .parse()
            .map_err(|e| usage_err(format!("bad --job-timeout: {e}")))?;
        if cycles == 0 {
            return Err(usage_err("--job-timeout must be a positive cycle count"));
        }
        sup.job_timeout_cycles = Some(cycles);
    }
    sup.max_retries = flags.num("max-retries", sup.max_retries)?;
    sup.backoff_base = std::time::Duration::from_millis(flags.num("backoff-ms", 25u64)?);

    let isolation = match flags.get("isolation").unwrap_or("thread") {
        "thread" => {
            for f in ["mem-limit-mb", "worker-recycle", "heartbeat-timeout-ms"] {
                if flags.get(f).is_some() {
                    return Err(usage_err(format!("--{f} requires --isolation process")));
                }
            }
            Isolation::Thread
        }
        "process" => {
            let exe = std::env::current_exe()
                .map_err(|e| CliError::Io(format!("cannot locate own binary: {e}")))?;
            let mut cfg = WorkerPoolConfig::new(exe);
            if flags.get("mem-limit-mb").is_some() {
                let mb: u64 = flags.num("mem-limit-mb", 0u64)?;
                if mb == 0 {
                    return Err(usage_err("--mem-limit-mb must be a positive MiB count"));
                }
                cfg.mem_limit_mb = Some(mb);
            }
            cfg.recycle_after = flags.num("worker-recycle", cfg.recycle_after)?;
            if cfg.recycle_after == 0 {
                return Err(usage_err("--worker-recycle must be a positive job count"));
            }
            let hb: u64 = flags.num(
                "heartbeat-timeout-ms",
                cfg.heartbeat_timeout.as_millis() as u64,
            )?;
            if hb == 0 {
                return Err(usage_err(
                    "--heartbeat-timeout-ms must be a positive duration",
                ));
            }
            cfg.heartbeat_timeout = std::time::Duration::from_millis(hb);
            Isolation::Process(cfg)
        }
        other => {
            return Err(usage_err(format!(
                "unknown isolation {other:?} (accepted: --isolation thread|process)"
            )))
        }
    };

    let mut journal = match (flags.get("resume"), flags.get("journal")) {
        (Some(_), Some(_)) => {
            return Err(usage_err(
                "--resume and --journal are exclusive: --resume reopens an \
                 existing journal, --journal starts a fresh one",
            ))
        }
        (Some(path), None) => Some(
            Journal::resume(path)
                .map_err(|e| CliError::Io(format!("cannot resume {path}: {e}")))?,
        ),
        (None, Some(path)) => Some(Journal::create(path).map_err(|e| {
            // A journal that cannot even be created is an invocation
            // problem, not a mid-sweep I/O failure: fail fast (exit 2)
            // with the likely fix, before any simulation time is spent.
            usage_err(format!(
                "cannot create journal {path}: {e}\n\
                 hint: the journal's parent directory must already exist and be \
                 writable (mkdir -p it first, or point --journal at a writable path)"
            ))
        })?),
        (None, None) => None,
    };
    // Crash-injection hook for the resume tests: die (exit 86) after the
    // nth checkpoint lands, as an uncontrolled kill would.
    if let Some(j) = journal.as_mut() {
        if let Some(n) = std::env::var("REDSOC_DIE_AFTER_JOBS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
        {
            j.set_die_after(Some(n));
        }
        let restored = j.restored().len();
        if restored > 0 {
            println!(
                "resuming from {}: {restored} cell(s) checkpointed",
                j.path().display()
            );
        }
    }

    // The grid's memory-model axis: one flag retargets every core in the
    // sweep, so `--mem-model contended` produces a sweep document directly
    // comparable (via sweepcmp) against the classic default.
    let mut cores = redsoc::bench::cores();
    if let Some(s) = flags.get("mem-model") {
        let model = parse_mem_model(s)?;
        for (_, core) in &mut cores {
            *core = core.clone().with_mem_model(model);
        }
    }

    let cache = redsoc::bench::TraceCache::new(len);
    let grid = run_grid_isolated(
        &cache,
        &Benchmark::all(),
        &cores,
        &Mode::all(),
        threads,
        &sup,
        journal.as_ref(),
        &isolation,
    );
    // Tail-window safety: fsync the journal before the sweep document is
    // written, so a kill between "last job done" and "sweep JSON on disk"
    // can never lose checkpoints that the (now missing) document would
    // have superseded — resume re-reads them and re-runs nothing.
    if let Some(j) = journal.as_ref() {
        j.sync_to_disk()
            .map_err(|e| CliError::Io(format!("cannot sync journal: {e}")))?;
    }
    let doc = sweep_json(&grid, len);
    std::fs::write(out, doc.pretty())
        .map_err(|e| CliError::Io(format!("cannot write {out}: {e}")))?;
    println!(
        "{} jobs ({} benchmarks x 3 cores x {} modes) on {threads} thread(s)",
        grid.cells().len(),
        Benchmark::all().len(),
        Mode::all().len(),
    );
    println!(
        "wall {:.2}s, cpu {:.2}s ({:.2}x parallel efficiency)",
        grid.wall.as_secs_f64(),
        grid.cpu_time().as_secs_f64(),
        grid.cpu_time().as_secs_f64() / grid.wall.as_secs_f64().max(1e-9)
    );
    let counts = grid.status_counts();
    println!(
        "status: {}",
        counts
            .iter()
            .map(|(s, n)| format!("{} {n}", s.label()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("wrote {out}");
    partial_error(&grid)
}

/// Seeded xorshift64: the chaos harness's only randomness source, so a
/// given `--seed` replays the same kill schedule.
fn xorshift64(s: &mut u64) -> u64 {
    let mut x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x
}

/// Chaos kill-loop: prove the journal/resume path end to end by
/// repeatedly SIGKILLing a real child sweep mid-sweep and resuming it,
/// then comparing the final sweep document against an uninterrupted
/// in-process reference. Kill points are driven by `--seed` through the
/// journal's observable growth (a new line means a cell completed); the
/// cells running at the kill are lost and re-run from cycle 0 on resume.
fn cmd_chaos(args: &[String]) -> CliResult {
    use redsoc::bench::json::Json;
    let flags = Flags::parse(
        args,
        &["threads", "len", "kills", "seed", "dir", "worker-kills"],
    )?;
    let threads: usize = flags.num("threads", redsoc::bench::threads())?.max(1);
    let len: u64 = flags.num("len", 20_000)?;
    let kills: u64 = flags.num("kills", 5u64)?;
    if kills == 0 {
        return Err(usage_err("--kills must be a positive kill count"));
    }
    let seed: u64 = flags.num("seed", 0u64)?;
    let keep_dir = flags.get("dir").is_some();
    let dir = match flags.get("dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("redsoc-chaos-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir)
        .map_err(|e| CliError::Io(format!("cannot create {}: {e}", dir.display())))?;

    // The uninterrupted reference, in-process: what the chaotic run must
    // reproduce byte-identically after canonicalisation.
    println!("chaos: reference sweep (len {len}, {threads} thread(s), no interruptions)");
    let cache = redsoc::bench::TraceCache::new(len);
    let grid = run_grid_isolated(
        &cache,
        &Benchmark::all(),
        &redsoc::bench::cores(),
        &Mode::all(),
        threads,
        &SupervisorConfig::default(),
        None,
        &Isolation::Thread,
    );
    if !grid.fully_ok() {
        return Err(CliError::Sim(
            "reference sweep has failed cells; a chaos comparison would be meaningless".into(),
        ));
    }
    let reference = canonicalize_sweep(&sweep_json(&grid, len));
    let reference_path = dir.join("reference.json");
    std::fs::write(&reference_path, sweep_json(&grid, len).pretty())
        .map_err(|e| CliError::Io(format!("cannot write {}: {e}", reference_path.display())))?;

    let exe = std::env::current_exe()
        .map_err(|e| CliError::Io(format!("cannot locate own binary: {e}")))?;

    // Worker-kill storm: instead of killing the whole child sweep, run it
    // under process isolation and SIGKILL/SIGABRT its *workers* while it
    // runs. The sweep itself must survive every storm hit (exit 0) —
    // killed attempts retry onto fresh workers — and still reproduce the
    // thread-isolation reference exactly. This proves both containment
    // and thread/process result equivalence in one check.
    let worker_kills: u64 = flags.num("worker-kills", 0u64)?;
    if worker_kills > 0 {
        let journal = dir.join("chaos-workers.jnl");
        let out = dir.join("chaos-workers.json");
        std::fs::remove_file(&journal).ok();
        let mut child = {
            let mut c = std::process::Command::new(&exe);
            c.arg("bench")
                .args(["--threads", &threads.to_string()])
                .args(["--len", &len.to_string()])
                .args(["--isolation", "process"])
                // Deep retry budget: every storm hit must be absorbable.
                .args(["--max-retries", "8"])
                .args(["--backoff-ms", "10"])
                .arg("--journal")
                .arg(&journal)
                .arg("--out")
                .arg(&out)
                .env_remove("REDSOC_FAULT")
                .env_remove("REDSOC_DIE_AFTER_JOBS")
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null());
            c.spawn()
                .map_err(|e| CliError::Io(format!("cannot spawn child sweep: {e}")))?
        };
        let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
        if rng == 0 {
            rng = 0x2545_F491_4F6C_DD1D;
        }
        let mut performed = 0u64;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
        while performed < worker_kills {
            if let Some(status) = child
                .try_wait()
                .map_err(|e| CliError::Io(format!("cannot poll child sweep: {e}")))?
            {
                return Err(CliError::Io(format!(
                    "child sweep completed ({status}) after only {performed} of \
                     {worker_kills} worker kill(s); use a longer --len or fewer kills"
                )));
            }
            if std::time::Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                return Err(CliError::Io(
                    "could not land the requested worker kills within 300s".into(),
                ));
            }
            let workers = redsoc::bench::pool::worker_children_of(child.id());
            if workers.is_empty() {
                std::thread::sleep(std::time::Duration::from_millis(5));
                continue;
            }
            let victim = workers[(xorshift64(&mut rng) as usize) % workers.len()];
            // Alternate SIGKILL (no cleanup at all) and SIGABRT (the
            // failure path a real crash takes) by seeded coin flip.
            let signal = if xorshift64(&mut rng) & 1 == 0 { 9 } else { 6 };
            if redsoc::bench::pool::kill_pid(victim, signal) {
                performed += 1;
                println!(
                    "chaos: worker kill {performed}/{worker_kills} \
                     (pid {victim}, signal {signal})"
                );
            }
            std::thread::sleep(std::time::Duration::from_millis(
                10 + (xorshift64(&mut rng) % 40),
            ));
        }
        let status = child
            .wait()
            .map_err(|e| CliError::Io(format!("cannot wait for child sweep: {e}")))?;
        if !status.success() {
            return Err(CliError::Io(format!(
                "process-isolated sweep did not absorb the worker kills ({status}); \
                 artifacts kept in {}",
                dir.display()
            )));
        }
        let text = std::fs::read_to_string(&out)
            .map_err(|e| CliError::Io(format!("cannot read {}: {e}", out.display())))?;
        let doc = Json::parse(&text)
            .map_err(|e| CliError::Io(format!("storm sweep output is not valid JSON: {e}")))?;
        if canonicalize_sweep(&doc) == reference {
            println!(
                "chaos: survived {worker_kills} worker kill(s); process-isolated sweep is \
                 identical to the uninterrupted thread-isolation reference after \
                 canonicalisation"
            );
            if !keep_dir {
                std::fs::remove_dir_all(&dir).ok();
            }
            return Ok(());
        }
        return Err(CliError::Io(format!(
            "storm sweep differs from the uninterrupted reference; artifacts kept in {} \
             (compare with: redsoc sweepcmp {} {})",
            dir.display(),
            reference_path.display(),
            out.display()
        )));
    }

    let journal = dir.join("chaos.jnl");
    let out = dir.join("chaos.json");
    std::fs::remove_file(&journal).ok();
    let spawn = |resume: bool| -> Result<std::process::Child, CliError> {
        let mut c = std::process::Command::new(&exe);
        c.arg("bench")
            .args(["--threads", &threads.to_string()])
            .args(["--len", &len.to_string()])
            .arg("--out")
            .arg(&out)
            .arg(if resume { "--resume" } else { "--journal" })
            .arg(&journal)
            // The children must run clean: the chaos harness *is* the
            // fault injector here.
            .env_remove("REDSOC_FAULT")
            .env_remove("REDSOC_DIE_AFTER_JOBS")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        c.spawn()
            .map_err(|e| CliError::Io(format!("cannot spawn child sweep: {e}")))
    };
    let journal_lines = || std::fs::read_to_string(&journal).map_or(0, |t| t.lines().count());

    let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
    if rng == 0 {
        rng = 0x2545_F491_4F6C_DD1D;
    }
    let mut performed = 0u64;
    while performed < kills {
        let mut child = spawn(performed > 0)?;
        // Kill after the journal gains 1–2 more lines: right on the heels
        // of a record landing, i.e. mid-sweep with other cells mid-job.
        let target = journal_lines() + 1 + (xorshift64(&mut rng) as usize & 1);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        loop {
            if let Some(status) = child
                .try_wait()
                .map_err(|e| CliError::Io(format!("cannot poll child sweep: {e}")))?
            {
                return Err(CliError::Io(format!(
                    "child sweep completed ({status}) after only {performed} of {kills} \
                     kill(s); use a longer --len or fewer --kills"
                )));
            }
            if journal_lines() >= target {
                child.kill().ok();
                child.wait().ok();
                performed += 1;
                println!(
                    "chaos: kill {performed}/{kills} at {} journal line(s)",
                    journal_lines()
                );
                break;
            }
            if std::time::Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                return Err(CliError::Io(
                    "child sweep made no journal progress within 120s".into(),
                ));
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    // Final, uninterrupted resume: must finish everything that survived
    // the kills.
    println!("chaos: final resume to completion");
    let status = spawn(true)?
        .wait()
        .map_err(|e| CliError::Io(format!("cannot wait for final resume: {e}")))?;
    if !status.success() {
        return Err(CliError::Io(format!(
            "final resume run failed ({status}); artifacts kept in {}",
            dir.display()
        )));
    }

    let text = std::fs::read_to_string(&out)
        .map_err(|e| CliError::Io(format!("cannot read {}: {e}", out.display())))?;
    let doc = Json::parse(&text)
        .map_err(|e| CliError::Io(format!("chaotic sweep output is not valid JSON: {e}")))?;
    if canonicalize_sweep(&doc) == reference {
        println!(
            "chaos: survived {kills} mid-sweep kill(s); resumed sweep is identical to the \
             uninterrupted reference after canonicalisation"
        );
        if !keep_dir {
            std::fs::remove_dir_all(&dir).ok();
        }
        Ok(())
    } else {
        Err(CliError::Io(format!(
            "resumed sweep differs from the uninterrupted reference; \
             artifacts kept in {} (compare with: redsoc sweepcmp {} {})",
            dir.display(),
            reference_path.display(),
            out.display()
        )))
    }
}

/// The child half of `bench --isolation process`: speak the frame
/// protocol on stdin/stdout until the parent shuts us down. Spawned by
/// the worker pool, not by operators — but runnable by hand for
/// debugging (feed it frames, watch replies).
fn cmd_worker(args: &[String]) -> CliResult {
    use redsoc::bench::worker::{run_worker, WorkerOptions};
    let flags = Flags::parse(args, &["mem-limit-mb", "heartbeat-ms"])?;
    let mem_limit_mb = match flags.get("mem-limit-mb") {
        Some(_) => {
            let mb: u64 = flags.num("mem-limit-mb", 0u64)?;
            if mb == 0 {
                return Err(usage_err("--mem-limit-mb must be a positive MiB count"));
            }
            Some(mb)
        }
        None => None,
    };
    let heartbeat_ms: u64 = flags.num("heartbeat-ms", 250u64)?;
    if heartbeat_ms == 0 {
        return Err(usage_err("--heartbeat-ms must be a positive duration"));
    }
    run_worker(&WorkerOptions {
        mem_limit_mb,
        heartbeat_ms,
    })
    .map_err(CliError::Io)
}

fn cmd_sweepcmp(args: &[String]) -> CliResult {
    use redsoc::bench::json::Json;
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
fn cmd_perfgate(args: &[String]) -> CliResult {
    use redsoc::bench::json::Json;
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

fn cmd_fuzz(args: &[String]) -> CliResult {
    use redsoc::verify::oracle::SchedKind;
    use redsoc::verify::{run_fuzz, FuzzConfig};
    let flags = Flags::parse(
        args,
        &[
            "seed",
            "cases",
            "max-instrs",
            "schedulers",
            "repro-dir",
            "sabotage",
            "mem-model",
        ],
    )?;
    let mut cfg = FuzzConfig::new(flags.num("seed", 0u64)?, flags.num("cases", 500u64)?);
    if cfg.cases == 0 {
        return Err(usage_err("--cases must be positive"));
    }
    cfg.max_instrs = flags.num("max-instrs", 48usize)?;
    if cfg.max_instrs == 0 {
        return Err(usage_err("--max-instrs must be positive"));
    }
    if let Some(list) = flags.get("schedulers") {
        let mut scheds = Vec::new();
        for item in list.split(',') {
            let kind = SchedKind::parse(item.trim()).ok_or_else(|| {
                usage_err(format!(
                    "unknown scheduler {item:?} (accepted: baseline,redsoc,mos,ts)"
                ))
            })?;
            if !scheds.contains(&kind) {
                scheds.push(kind);
            }
        }
        if scheds.is_empty() {
            return Err(usage_err("--schedulers needs at least one policy"));
        }
        cfg.scheds = scheds;
    }
    if let Some(s) = flags.get("mem-model") {
        cfg.mem_models =
            redsoc::verify::MemModelAxis::parse(&s.to_ascii_lowercase()).ok_or_else(|| {
                usage_err(format!(
                    "unknown memory model {s:?} (classic|contended|both)"
                ))
            })?;
    }
    cfg.repro_dir = flags.get("repro-dir").map(std::path::PathBuf::from);
    // Undocumented self-test knob: plant the inverted-skew fault so the
    // harness's own detection path can be demonstrated end to end.
    match flags.get("sabotage") {
        None | Some("none") => {}
        Some("invert-skew") => cfg.sabotage_redsoc = true,
        Some(other) => {
            return Err(usage_err(format!(
                "unknown sabotage {other:?} (accepted: none|invert-skew)"
            )))
        }
    }
    let sched_names: Vec<&str> = cfg.scheds.iter().map(|k| k.label()).collect();
    println!(
        "fuzz: seed {} cases {} max-instrs {} schedulers {} mem-model {}",
        cfg.seed,
        cfg.cases,
        cfg.max_instrs,
        sched_names.join(","),
        cfg.mem_models.label()
    );
    let summary = run_fuzz(&cfg, |line| {
        // One line per diverging case only: a 500-case clean run stays
        // readable and byte-stable.
        if line.contains("DIVERGED") || line.contains("shrunk") {
            println!("{line}");
        }
    })
    .map_err(|e| CliError::Io(format!("repro emission failed: {e}")))?;
    println!(
        "checked {} case(s), {} dynamic instructions: {} divergence(s)",
        summary.cases_run,
        summary.dyn_ops,
        summary.failures.len()
    );
    for f in &summary.failures {
        println!(
            "  case {} (core {}, mem {}, {} instrs shrunk): {}",
            f.case,
            f.core,
            f.mem_model,
            f.shrunk.op_count(),
            f.divergence
        );
        if let Some(p) = &f.repro_path {
            println!("    repro: {}", p.display());
        }
    }
    if summary.failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::Sim(format!(
            "{} of {} case(s) diverged",
            summary.failures.len(),
            summary.cases_run
        )))
    }
}

fn usage() -> String {
    "usage: redsoc <command>\n\
     \n\
     commands:\n\
     \x20 list                     list available benchmarks\n\
     \x20 run <bench> [flags]      simulate one benchmark\n\
     \x20                          (--events FILE streams the pipeline event log as JSONL)\n\
     \x20 trace <bench> [flags]    dump the pipeline event log\n\
     \x20                          (--format chrome|jsonl  --out FILE;\n\
     \x20                          chrome output loads in chrome://tracing)\n\
     \x20 compare <bench> [flags]  baseline vs ReDSOC vs TS vs MOS\n\
     \x20 report [--out FILE]      every figure, table and ablation of the paper from one\n\
     \x20                          supervised run -> results JSON (default report.json;\n\
     \x20                          REDSOC_TRACE_LEN and REDSOC_THREADS set length, threads)\n\
     \x20 bench [flags]            full parallel sweep -> machine-readable JSON\n\
     \x20                          (--threads N  --len N  --out FILE\n\
     \x20                          --journal FILE   checkpoint cells as they finish\n\
     \x20                          --resume FILE    reopen a journal, skip done cells\n\
     \x20                          --job-timeout N  per-job cycle budget\n\
     \x20                          --max-retries N  retries for transient failures\n\
     \x20                          --backoff-ms N   retry backoff base\n\
     \x20                          --isolation thread|process  run each cell in-thread\n\
     \x20                          (default) or in supervised worker child processes;\n\
     \x20                          with process: --mem-limit-mb N  per-worker RLIMIT_AS,\n\
     \x20                          --worker-recycle N  retire workers after N jobs,\n\
     \x20                          --heartbeat-timeout-ms N  kill silent workers)\n\
     \x20 worker [flags]           internal: one pool worker child (spawned by\n\
     \x20                          bench --isolation process; speaks frames on stdio)\n\
     \x20 chaos [flags]            crash-safety proof: SIGKILL a child sweep mid-sweep\n\
     \x20                          --kills times (default 5), resume each time, and\n\
     \x20                          require the final sweep to match an uninterrupted\n\
     \x20                          reference (--seed N  --len N  --threads N\n\
     \x20                          --dir DIR keeps artifacts;\n\
     \x20                          --worker-kills N  storm mode: SIGKILL/SIGABRT the\n\
     \x20                          workers of a process-isolated sweep instead — the\n\
     \x20                          sweep must absorb every kill and still match)\n\
     \x20 sweepcmp <a> <b>         compare two sweep JSONs, ignoring wall-clock and thread count\n\
     \x20 perfgate <base> <fresh>  perf-regression gate: fail if <fresh> is more than\n\
     \x20                          --tolerance percent (default 15) slower in cpu_seconds\n\
     \x20                          than the committed baseline sweep\n\
     \x20 fuzz [flags]             differential fuzzing: random programs through the\n\
     \x20                          interpreter and every scheduler in lockstep\n\
     \x20                          (--seed N  --cases N  --max-instrs N\n\
     \x20                          --schedulers baseline,redsoc,mos,ts\n\
     \x20                          --mem-model classic|contended|both (default both)\n\
     \x20                          --repro-dir DIR   write shrunk .asm repros)\n\
     \n\
     flags: --core small|medium|big  --sched baseline|redsoc|mos  --len N\n\
     \x20      --mem-model classic|contended  (memory hierarchy: fixed-latency\n\
     \x20      vs MSHR/port/DRAM-bandwidth-limited; run, trace, compare, bench)\n\
     exit codes: 0 ok, 1 io/mismatch, 2 usage, 3 simulator error, 4 partial sweep"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("sweepcmp") => cmd_sweepcmp(&args[1..]),
        Some("perfgate") => cmd_perfgate(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        _ => Err(CliError::Usage(usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", e.message());
            e.code()
        }
    }
}
