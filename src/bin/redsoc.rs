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
/// hint instead of being silently ignored; a flag given twice fails too,
/// rather than one of its values being dropped.
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
            if pairs.iter().any(|(k, _)| k == key) {
                return Err(usage_err(format!("flag --{key} given more than once")));
            }
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
        self.num_or(key, || Ok(default))
    }

    /// Parse a numeric flag; when it is absent, take the value of
    /// `default`, whose error (a malformed environment variable) is a
    /// usage error too.
    fn num_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|e| usage_err(format!("bad --{key}: {e}"))),
            None => default().map_err(usage_err),
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
    let len = redsoc::bench::trace_len().map_err(usage_err)?;
    let threads = redsoc::bench::threads().map_err(usage_err)?;
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
            "mem-model",
            "isolation",
            "mem-limit-mb",
            "heartbeat-timeout-ms",
        ],
    )?;
    let threads = flags.num_or("threads", redsoc::bench::threads)?.max(1);
    let len = flags.num_or("len", redsoc::bench::trace_len)?;
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

    let isolation = match flags.get("isolation").unwrap_or("thread") {
        "thread" => {
            // Retries cover worker deaths only, and threads have none.
            for f in ["max-retries", "mem-limit-mb", "heartbeat-timeout-ms"] {
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
            sup.max_retries = flags.num("max-retries", sup.max_retries)?;
            if flags.get("mem-limit-mb").is_some() {
                let mb: u64 = flags.num("mem-limit-mb", 0u64)?;
                if mb == 0 {
                    return Err(usage_err("--mem-limit-mb must be a positive MiB count"));
                }
                cfg.mem_limit_mb = Some(mb);
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

    // Crash-injection hook for the resume tests: die (exit 86) after the
    // nth checkpoint lands, as an uncontrolled kill would. A value that
    // cannot take effect would leave such a test testing nothing.
    let die_after = redsoc::bench::die_after_jobs().map_err(usage_err)?;
    if die_after.is_some() && flags.get("resume").is_none() && flags.get("journal").is_none() {
        return Err(usage_err(
            "REDSOC_DIE_AFTER_JOBS counts journal appends: it needs --journal or --resume",
        ));
    }
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
    if let Some(j) = journal.as_mut() {
        j.set_die_after(die_after);
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
    use redsoc::verify::oracle::{SchedKind, MAX_DYN_OPS};
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
    // The oracle stops every case at MAX_DYN_OPS, so a longer program
    // would be cut without a word.
    if !(1..=MAX_DYN_OPS).contains(&(cfg.max_instrs as u64)) {
        return Err(usage_err(format!(
            "--max-instrs must be between 1 and {MAX_DYN_OPS}: the oracle runs at most \
             {MAX_DYN_OPS} ops per case"
        )));
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
     \x20                          --isolation thread|process  run each cell in-thread\n\
     \x20                          (default) or in supervised worker child processes;\n\
     \x20                          with process: --max-retries N  retries after a worker\n\
     \x20                          death, --mem-limit-mb N  per-worker RLIMIT_AS,\n\
     \x20                          --heartbeat-timeout-ms N  kill frozen workers)\n\
     \x20 worker [flags]           internal: one pool worker child (spawned by\n\
     \x20                          bench --isolation process; speaks frames on stdio)\n\
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
