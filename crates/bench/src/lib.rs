//! # redsoc-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation from one
//! results document: [`report`] runs one supervised job list and renders
//! each figure, table and ablation as a pure function of the document
//! (`redsoc report`; `RESULTS.json` and `EXPERIMENTS.md` hold the
//! committed record).
//!
//! This library holds the shared experiment engine:
//!
//! - [`TraceCache`] — a concurrent, shareable trace store: each workload's
//!   trace is generated exactly once per process and handed out as
//!   `Arc<[DynOp]>` to any number of simulation threads;
//! - [`runner`] — the fault-tolerant parallel job runner: fans
//!   (benchmark × core × scheduler mode × scheduler variant) simulations
//!   across a thread pool under per-job supervision and collects a
//!   [`runner::Grid`] of cells, honouring `REDSOC_THREADS`;
//! - [`report`] — the paper's experiments as one job list, the results
//!   document with the per-cell counters the figures need, and the
//!   renderers of every figure, table and ablation;
//! - [`supervisor`] — the job supervisor: `catch_unwind` isolation, the
//!   structured `JobError` taxonomy, bounded immediate retries of a
//!   dead worker's job, quarantine, and the fault-injection plan used by
//!   the crash tests;
//! - [`journal`] — the append-only JSONL checkpoint behind
//!   `redsoc bench --resume`: completed cells survive a mid-sweep crash
//!   and are not re-run;
//! - [`json`] — a dependency-free JSON value/emitter/parser for the
//!   machine-readable sweep output;
//! - [`worker`] / [`pool`] — the process-isolation tier behind
//!   `redsoc bench --isolation process`: a length-prefixed frame
//!   protocol spoken by disposable `redsoc worker` children, and the
//!   parent-side pool that supervises them with heartbeats (which catch
//!   a frozen worker process) and hard memory budgets.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod grid;
pub mod journal;
pub mod json;
pub mod pool;
pub mod report;
pub mod runner;
pub mod supervisor;
pub mod worker;

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use redsoc_core::config::{CoreConfig, SchedulerConfig};
use redsoc_isa::trace::DynOp;
use redsoc_workloads::{BenchClass, Benchmark};

/// Default dynamic-instruction budget per simulation. Chosen so every
/// workload reaches steady state while the full report stays fast;
/// `RESULTS.json` is committed at this length. Override via
/// `REDSOC_TRACE_LEN`.
pub const DEFAULT_TRACE_LEN: u64 = 300_000;

/// The positive integer in environment variable `var`, or `None` when
/// the variable is unset.
fn env_count<T: std::str::FromStr + PartialEq + From<u8>>(var: &str) -> Result<Option<T>, String> {
    match std::env::var(var) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Ok(s) => s
            .parse()
            .ok()
            .filter(|n| *n != T::from(0))
            .map(Some)
            .ok_or_else(|| format!("{var}={s:?} is not a positive integer")),
        Err(e) => Err(format!("{var}: {e}")),
    }
}

/// Trace length: `REDSOC_TRACE_LEN` when set, else [`DEFAULT_TRACE_LEN`].
///
/// # Errors
///
/// A set `REDSOC_TRACE_LEN` that is not a positive integer (the message
/// names the variable).
pub fn trace_len() -> Result<u64, String> {
    Ok(env_count("REDSOC_TRACE_LEN")?.unwrap_or(DEFAULT_TRACE_LEN))
}

/// Worker-thread count for the parallel runner: `REDSOC_THREADS` when
/// set, otherwise the machine's available parallelism.
///
/// # Errors
///
/// A set `REDSOC_THREADS` that is not a positive integer (the message
/// names the variable).
pub fn threads() -> Result<usize, String> {
    Ok(env_count("REDSOC_THREADS")?.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }))
}

/// The injected mid-sweep kill for the crash-safety tests:
/// `REDSOC_DIE_AFTER_JOBS` journal appends, after which the sweep exits
/// (see [`journal::Journal::set_die_after`]); `None` when unset.
///
/// # Errors
///
/// A set `REDSOC_DIE_AFTER_JOBS` that is not a positive integer (the
/// message names the variable).
pub fn die_after_jobs() -> Result<Option<u64>, String> {
    env_count("REDSOC_DIE_AFTER_JOBS")
}

/// The three Table I cores with their display names.
#[must_use]
pub fn cores() -> [(&'static str, CoreConfig); 3] {
    [
        ("BIG", CoreConfig::big()),
        ("MEDIUM", CoreConfig::medium()),
        ("SMALL", CoreConfig::small()),
    ]
}

/// The ReDSOC scheduler configuration the sweeps run for `class`. The
/// paper tunes the recycle threshold per benchmark set (§IV-C); this
/// reproduction applies the paper's operating point, t = 7 of 8 ticks at
/// 3 CI bits, to every class, so this is [`SchedulerConfig::redsoc`] for
/// all of them. The report's threshold ablation shows the alternatives.
#[must_use]
pub fn redsoc_for(_class: BenchClass) -> SchedulerConfig {
    SchedulerConfig::redsoc()
}

/// Concurrent, shareable trace store.
///
/// Traces are expensive to generate, and a full sweep needs each one on
/// every core under every scheduler mode. The cache generates each
/// benchmark's trace **exactly once per process** — concurrent requests
/// for the same benchmark block on a per-entry [`OnceLock`] while the
/// first requester generates, and every caller receives a cheap
/// `Arc<[DynOp]>` handle to the same immutable trace. Distinct benchmarks
/// generate fully in parallel.
pub struct TraceCache {
    entries: RwLock<HashMap<Benchmark, TraceSlot>>,
    len: u64,
}

/// A per-benchmark cache entry: generated at most once, shared by `Arc`.
type TraceSlot = Arc<OnceLock<Arc<[DynOp]>>>;

impl TraceCache {
    /// Create a cache generating traces of `len` dynamic instructions.
    #[must_use]
    pub fn new(len: u64) -> Self {
        TraceCache {
            entries: RwLock::new(HashMap::new()),
            len,
        }
    }

    /// The dynamic-instruction budget traces are generated with.
    #[must_use]
    pub fn target_len(&self) -> u64 {
        self.len
    }

    /// The trace for `bench`, generated on first use and shared thereafter.
    ///
    /// Lock poisoning is recovered from rather than propagated: the map
    /// only ever gains fully-initialised `Arc` slots, so a panic on
    /// another thread (e.g. an injected fault in a supervised sweep)
    /// cannot leave it in a torn state.
    #[must_use]
    pub fn get(&self, bench: Benchmark) -> Arc<[DynOp]> {
        use std::sync::PoisonError;
        // Fast path: the entry slot already exists.
        let slot = self
            .entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&bench)
            .cloned();
        let slot = match slot {
            Some(slot) => slot,
            None => self
                .entries
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(bench)
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone(),
        };
        // Generation happens outside both locks: only same-benchmark
        // requesters block on the OnceLock; other benchmarks proceed.
        slot.get_or_init(|| bench.trace(self.len).into()).clone()
    }

    /// Number of traces generated so far (for tests and progress display).
    #[must_use]
    pub fn generated(&self) -> usize {
        self.entries
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
            .filter(|s| s.get().is_some())
            .count()
    }
}

/// Arithmetic mean.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_values_and_of_nothing() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn trace_cache_reuses_traces() {
        let c = TraceCache::new(2_000);
        let a = c.get(Benchmark::Bitcnt);
        let b = c.get(Benchmark::Bitcnt);
        assert!(Arc::ptr_eq(&a, &b), "second get must share the same trace");
        assert_eq!(c.generated(), 1);
    }

    #[test]
    fn trace_cache_is_shareable_across_threads() {
        let c = TraceCache::new(2_000);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| c.get(Benchmark::Crc).len()))
                .collect();
            let lens: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(lens.windows(2).all(|w| w[0] == w[1]));
        });
        assert_eq!(c.generated(), 1, "concurrent gets must generate once");
    }
}
