//! The traced pass: spans around each call into a layer, a counting
//! scheduler decorator, a counting event sink, and the memory replay.
//!
//! Everything here runs only in traced rounds. Untraced rounds call the
//! simulator through the same [`simulate`] entry point with the tracer
//! off, which is the plain `Simulator::with_scheduler(..).run(..)` path.
//!
//! Scheduler hooks are counted, never timed: a pair of `Instant::now()`
//! calls costs more than a typical hook body, so timing them would
//! measure the timer.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use redsoc_core::config::CoreConfig;
use redsoc_core::events::{EventSink, PipeEvent};
use redsoc_core::pipeline::state::{Ifo, PipelineState};
use redsoc_core::pipeline::Simulator;
use redsoc_core::sched::{ExecTiming, FusedIssue, IssueArgs, Scheduler, SelectRequest};
use redsoc_core::stats::{SimReport, StallCause};
use redsoc_isa::instruction::Instr;
use redsoc_isa::trace::DynOp;
use redsoc_mem::build_memory_model;

/// One call into a layer.
#[derive(Debug, Clone)]
struct Span {
    parent: Option<usize>,
    name: &'static str,
    label: String,
    start: Duration,
    end: Duration,
    /// Analysis work the untraced path does not do (memory replay,
    /// instrumented re-runs); excluded from the tracing overhead.
    extra: bool,
}

/// Span recorder plus the per-layer counters of the current traced
/// round. A tracer that is off records nothing and costs nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub layers: Layers,
    /// Consistency checks that failed inside instrumented runs.
    pub failures: Vec<String>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            layers: Layers::default(),
            failures: Vec::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, label: &str, extra: bool) {
        if !self.on {
            return;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            label: label.to_string(),
            start: now,
            end: now,
            extra,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Host time inside extra spans that are not nested in another extra
    /// span — the part of a traced round the untraced round never does.
    pub fn extra_time(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.extra && !s.parent.is_some_and(|p| self.inside_extra(p)))
            .map(|s| s.end - s.start)
            .sum()
    }

    fn inside_extra(&self, mut i: usize) -> bool {
        loop {
            if self.spans[i].extra {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Spans as JSON lines: id, parent id, name, label, start and end in
    /// nanoseconds from the tracer's creation, and the extra flag.
    pub fn spans_jsonl(&self, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"label\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"extra\":{}}}",
                s.name,
                s.label.replace('"', "'"),
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.extra
            );
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

/// Counters of the scheduler hooks one simulation made.
#[derive(Debug, Default)]
struct HookCounts {
    wakeup: AtomicU64,
    wakeup_hit: AtomicU64,
    select: AtomicU64,
    transparent_pair: AtomicU64,
    post_issue: AtomicU64,
}

/// A scheduler decorator that forwards every hook unchanged and counts
/// the ones whose call rate an optimisation would move.
#[derive(Debug)]
struct Counted {
    inner: Box<dyn Scheduler>,
    n: Arc<HookCounts>,
}

fn bump(c: &AtomicU64) {
    // A statistic: publishes no other data.
    c.fetch_add(1, Ordering::Relaxed);
}

impl Scheduler for Counted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn uses_tag_prediction(&self, recyclable: bool) -> bool {
        self.inner.uses_tag_prediction(recyclable)
    }
    fn wakeup(&self, state: &PipelineState, x: &Ifo) -> Option<SelectRequest> {
        bump(&self.n.wakeup);
        let r = self.inner.wakeup(state, x);
        if r.is_some() {
            bump(&self.n.wakeup_hit);
        }
        r
    }
    fn select(&self, requests: &mut [SelectRequest]) {
        bump(&self.n.select);
        self.inner.select(requests);
    }
    fn skewed_select(&self) -> bool {
        self.inner.skewed_select()
    }
    fn transparent_pair(&self, producer: &Ifo, consumer: &Ifo) -> bool {
        bump(&self.n.transparent_pair);
        self.inner.transparent_pair(producer, consumer)
    }
    fn spec_grant_usable(&self, state: &PipelineState, x: &Ifo, parent: &Ifo, t: u64) -> bool {
        self.inner.spec_grant_usable(state, x, parent, t)
    }
    fn on_issue(&self, state: &mut PipelineState, issue: &IssueArgs) -> ExecTiming {
        self.inner.on_issue(state, issue)
    }
    fn post_issue(&self, state: &mut PipelineState, producer: u64, t: u64) -> Vec<FusedIssue> {
        bump(&self.n.post_issue);
        self.inner.post_issue(state, producer, t)
    }
    fn on_writeback(&self, x: &Ifo, cycle: u64) {
        self.inner.on_writeback(x, cycle);
    }
    fn snapshot(&self) -> Vec<u8> {
        self.inner.snapshot()
    }
    fn restore(&mut self, blob: &[u8]) -> Result<(), String> {
        self.inner.restore(blob)
    }
}

/// One request the pipeline made to its memory model, in issue order.
#[derive(Debug, Clone, Copy)]
struct MemRequest {
    seq: u64,
    pc: u32,
    addr: u64,
    is_store: bool,
    t: u64,
}

/// Event counts of one simulation.
#[derive(Debug, Default, Clone, Copy)]
struct EventCounts {
    fetch: u64,
    grants: u64,
    issues: u64,
    transparent: u64,
    spec_wasted: u64,
    tag_mispredicts: u64,
    redirects: u64,
    store_forwards: u64,
}

/// Counts events and records the memory request stream. Loads request
/// at issue (unless forwarded from a store, or again after an MSHR
/// rejection) and stores at commit; the pipeline emits commit before
/// issue within a cycle, so emission order is request order.
struct CountingSink<'a> {
    trace: &'a [DynOp],
    counts: EventCounts,
    forwarded: Option<u64>,
    requests: Vec<MemRequest>,
}

impl CountingSink<'_> {
    /// Record a request by op `seq` at cycle `t` if it is a store
    /// (`store`) or a load (`!store`) with an address.
    fn request(&mut self, seq: u64, t: u64, store: bool) {
        let Some(op) = self.trace.get(seq as usize).filter(|op| op.seq == seq) else {
            return;
        };
        if !op.instr.is_mem() || matches!(op.instr, Instr::Store { .. }) != store {
            return;
        }
        if let Some(addr) = op.eff_addr {
            self.requests.push(MemRequest {
                seq,
                pc: op.pc,
                addr: u64::from(addr),
                is_store: store,
                t,
            });
        }
    }
}

impl EventSink for CountingSink<'_> {
    fn record(&mut self, cycle: u64, ev: &PipeEvent) {
        let c = &mut self.counts;
        match *ev {
            PipeEvent::Fetch { .. } => c.fetch += 1,
            PipeEvent::SelectGrant { .. } => c.grants += 1,
            PipeEvent::Issue {
                seq, transparent, ..
            } => {
                c.issues += 1;
                c.transparent += u64::from(transparent);
                if self.forwarded != Some(seq) {
                    self.request(seq, cycle, false);
                }
            }
            PipeEvent::StoreForward { seq, .. } => {
                c.store_forwards += 1;
                self.forwarded = Some(seq);
            }
            PipeEvent::MemReject { seq, .. } => self.request(seq, cycle, false),
            PipeEvent::Commit { seq, .. } => self.request(seq, cycle, true),
            PipeEvent::SpecWasted { .. } => c.spec_wasted += 1,
            PipeEvent::TagMispredict { .. } => c.tag_mispredicts += 1,
            PipeEvent::FetchRedirect { .. } => c.redirects += 1,
            _ => {}
        }
    }
}

/// Per-layer totals of one traced round.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    tracegen_ns: f64,
    tracegen_ops: u64,
    committed: u64,
    cycles: u64,
    run_ns: f64,
    ns_per_cycle: Vec<f64>,
    wakeup: u64,
    wakeup_hit: u64,
    select: u64,
    transparent_pair: u64,
    post_issue: u64,
    events: EventCounts,
    stalls: [u64; 10],
    mem_requests: u64,
    mem_replay_ns: f64,
    l1_accesses: u64,
    l1_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    mshr_rejects: u64,
    mshr_merges: u64,
    dram_wait: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Layers {
    /// Host ns per simulated cycle of every instrumented simulation of
    /// the round (pooled across rounds for the p50/p90 diagnostics).
    pub fn ns_per_cycle(&self) -> &[f64] {
        &self.ns_per_cycle
    }

    /// The round's per-layer metrics that are ratios of its own totals:
    /// `(name, unit, value)`.
    pub fn metrics(&self) -> Vec<(String, &'static str, f64)> {
        let ops = self.committed as f64;
        let kops = ops / 1000.0;
        let cycles = self.cycles as f64;
        let e = &self.events;
        let req = self.mem_requests as f64;
        let mut m: Vec<(String, &'static str, f64)> = vec![
            (
                "workloads.trace_ns_per_op".into(),
                "ns",
                ratio(self.tracegen_ns, self.tracegen_ops as f64),
            ),
            (
                "workloads.trace_ops_per_round".into(),
                "ops",
                self.tracegen_ops as f64,
            ),
            ("core.pipeline.cpi".into(), "cycles/op", ratio(cycles, ops)),
            (
                "core.sched.wakeup_calls_per_op".into(),
                "calls/op",
                ratio(self.wakeup as f64, ops),
            ),
            (
                "core.sched.wakeup_hit_ratio".into(),
                "frac",
                ratio(self.wakeup_hit as f64, self.wakeup as f64),
            ),
            (
                "core.sched.select_calls_per_cycle".into(),
                "calls/cycle",
                ratio(self.select as f64, cycles),
            ),
            (
                "core.sched.transparent_pair_calls_per_op".into(),
                "calls/op",
                ratio(self.transparent_pair as f64, ops),
            ),
            (
                "core.sched.post_issue_calls_per_op".into(),
                "calls/op",
                ratio(self.post_issue as f64, ops),
            ),
            (
                "core.issue.grants_per_issue".into(),
                "grants/issue",
                ratio(e.grants as f64, e.issues as f64),
            ),
            (
                "core.issue.spec_wasted_ratio".into(),
                "frac",
                ratio(e.spec_wasted as f64, e.grants as f64),
            ),
            (
                "core.issue.transparent_ratio".into(),
                "frac",
                ratio(e.transparent as f64, e.issues as f64),
            ),
            (
                "core.issue.tag_mispredicts_per_kop".into(),
                "1/kop",
                ratio(e.tag_mispredicts as f64, kops),
            ),
            (
                "core.frontend.fetch_per_cycle".into(),
                "ops/cycle",
                ratio(e.fetch as f64, cycles),
            ),
            (
                "core.frontend.redirects_per_kop".into(),
                "1/kop",
                ratio(e.redirects as f64, kops),
            ),
            (
                "core.exec.store_forwards_per_kop".into(),
                "1/kop",
                ratio(e.store_forwards as f64, kops),
            ),
            ("mem.requests_per_op".into(), "req/op", ratio(req, ops)),
            (
                "mem.ns_per_request".into(),
                "ns",
                ratio(self.mem_replay_ns, req),
            ),
            (
                "mem.replay_share".into(),
                "frac",
                ratio(self.mem_replay_ns, self.run_ns),
            ),
            (
                "mem.l1_hit_ratio".into(),
                "frac",
                1.0 - ratio(self.l1_misses as f64, self.l1_accesses as f64),
            ),
            (
                "mem.l2_hit_ratio".into(),
                "frac",
                1.0 - ratio(self.l2_misses as f64, self.l2_accesses as f64),
            ),
            (
                "mem.mshr_reject_ratio".into(),
                "frac",
                ratio(self.mshr_rejects as f64, req),
            ),
            (
                "mem.mshr_merge_ratio".into(),
                "frac",
                ratio(self.mshr_merges as f64, req),
            ),
            (
                "mem.dram_wait_cycles_per_request".into(),
                "cycles/req",
                ratio(self.dram_wait as f64, req),
            ),
        ];
        for (cause, n) in StallCause::all().iter().zip(self.stalls) {
            m.push((
                format!("core.stats.stall_share.{}", cause.label()),
                "frac",
                ratio(n as f64, cycles),
            ));
        }
        m
    }
}

/// Run `trace` on `core` under `sched`. With the tracer off this is the
/// plain simulator path. With it on, the scheduler is wrapped in the
/// counting decorator, events go to the counting sink, the load/store
/// stream is replayed through a fresh memory model afterwards, and the
/// replay must reproduce the run's memory statistics exactly.
pub fn simulate(
    tr: &mut Tracer,
    trace: &[DynOp],
    core: CoreConfig,
    sched: Box<dyn Scheduler>,
) -> Result<SimReport, String> {
    if !tr.on {
        return Simulator::with_scheduler(core, sched)
            .and_then(|sim| sim.run(trace.iter().copied()))
            .map_err(|e| e.to_string());
    }
    let hooks = Arc::new(HookCounts::default());
    let counted = Box::new(Counted {
        inner: sched,
        n: Arc::clone(&hooks),
    });
    let mem_cfg = (
        core.mem_model,
        core.l1,
        core.l2,
        core.mem_latencies,
        core.prefetch,
    );
    tr.open("sim_new", "", false);
    let sim = Simulator::with_scheduler(core, counted);
    tr.close();
    let sim = sim.map_err(|e| e.to_string())?;
    let mut sink = CountingSink {
        trace,
        counts: EventCounts::default(),
        forwarded: None,
        requests: Vec::new(),
    };
    tr.open("sim_run", "", false);
    let start = Instant::now();
    let report = sim.run_events(trace.iter().copied(), &mut sink);
    let run_ns = start.elapsed().as_nanos() as f64;
    tr.close();
    let report = report.map_err(|e| e.to_string())?;

    tr.open("mem_replay", "", true);
    let (model, l1, l2, lat, prefetch) = mem_cfg;
    let mut mem = build_memory_model(model, l1, l2, lat, prefetch);
    let start = Instant::now();
    for r in &sink.requests {
        // A rejection is part of the stream being replayed, not an error.
        let _ = mem.request(r.seq, r.pc, r.addr, r.is_store, r.t);
    }
    let replay_ns = start.elapsed().as_nanos() as f64;
    tr.close();
    if mem.stats() != report.memory || mem.contention() != report.mem_contention {
        tr.failures.push(format!(
            "memory replay diverged from the run: {:?}/{:?} vs {:?}/{:?}",
            mem.stats(),
            mem.contention(),
            report.memory,
            report.mem_contention
        ));
    }

    let l = &mut tr.layers;
    l.committed += report.committed;
    l.cycles += report.cycles;
    l.run_ns += run_ns;
    l.ns_per_cycle.push(run_ns / report.cycles as f64);
    l.wakeup += hooks.wakeup.load(Ordering::Relaxed);
    l.wakeup_hit += hooks.wakeup_hit.load(Ordering::Relaxed);
    l.select += hooks.select.load(Ordering::Relaxed);
    l.transparent_pair += hooks.transparent_pair.load(Ordering::Relaxed);
    l.post_issue += hooks.post_issue.load(Ordering::Relaxed);
    let (e, c) = (&mut l.events, sink.counts);
    e.fetch += c.fetch;
    e.grants += c.grants;
    e.issues += c.issues;
    e.transparent += c.transparent;
    e.spec_wasted += c.spec_wasted;
    e.tag_mispredicts += c.tag_mispredicts;
    e.redirects += c.redirects;
    e.store_forwards += c.store_forwards;
    for (acc, cause) in l.stalls.iter_mut().zip(StallCause::all()) {
        *acc += report.stalls.count(cause);
    }
    l.mem_requests += sink.requests.len() as u64;
    l.mem_replay_ns += replay_ns;
    let (s1, s2, cont) = (mem.l1_stats(), mem.l2_stats(), mem.contention());
    l.l1_accesses += s1.accesses;
    l.l1_misses += s1.misses;
    l.l2_accesses += s2.accesses;
    l.l2_misses += s2.misses;
    l.mshr_rejects += cont.mshr_rejects;
    l.mshr_merges += cont.mshr_merges;
    l.dram_wait += cont.dram_wait_cycles;
    Ok(report)
}

/// Time trace generation as a `tracegen` span and credit its ops to the
/// workloads layer.
pub fn tracegen<T>(tr: &mut Tracer, label: &str, gen: impl FnOnce() -> (T, usize)) -> T {
    tr.open("tracegen", label, true);
    let start = Instant::now();
    let (out, ops) = gen();
    let ns = start.elapsed().as_nanos() as f64;
    tr.close();
    if tr.on {
        tr.layers.tracegen_ns += ns;
        tr.layers.tracegen_ops += ops as u64;
    }
    out
}
