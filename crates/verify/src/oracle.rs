//! The lockstep differential oracle.
//!
//! Every candidate program is executed once architecturally through the
//! functional interpreter and once through the full out-of-order
//! pipeline under each scheduling policy, and the runs are compared:
//!
//! - the **committed instruction stream** (`Commit` events: sequence
//!   number and PC, in retirement order) of every pipeline run must equal
//!   the interpreter's dynamic trace exactly. The pipeline is
//!   trace-driven: it commits the interpreter's ops and computes no
//!   values of its own, so once its commit stream equals the trace, its
//!   final architectural state is the interpreter's. No separate state
//!   comparison is made;
//! - per-run **timing invariants** must hold: non-zero cycle count, the
//!   stall-attribution partition summing to the cycle count, in-order
//!   commit, skewed-select ordering (no grandparent-speculative grant
//!   ahead of a non-speculative one within a cycle and pool) and
//!   completion-instant monotonicity along register dependence chains.
//!
//! A run records only what these checks read, as its events arrive, plus
//! a ring of its last events for a failed run's error. TS shares the
//! baseline run ([`SchedKind::Ts`]), so a case under all four policies
//! simulates three pipelines: baseline, ReDSOC and MOS.
//!
//! The skew and GP-mispeculation checks are driven by what the oracle
//! *requested* (`skewed_select` in the core configuration), not by what
//! the scheduler claims — that is how the intentionally sabotaged
//! scheduler ([`RedsocScheduler::with_inverted_skew`]) is caught.

use std::collections::VecDeque;
use std::fmt;

use redsoc_core::events::{EventSink, PipeEvent, RingSink};
use redsoc_core::fu::PoolKind;
use redsoc_core::sched::redsoc::RedsocScheduler;
use redsoc_core::{CoreConfig, SchedulerConfig, SimReport, Simulator};
use redsoc_isa::interp::Interpreter;
use redsoc_isa::prelude::*;
use redsoc_isa::reg::NUM_ARCH_REGS;

/// Which scheduling policy a pipeline run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Conventional out-of-order scheduling.
    Baseline,
    /// ReDSOC slack recycling.
    Redsoc,
    /// MOS dynamic operation fusion.
    Mos,
    /// Timing-speculation comparator: the baseline scheduler under a
    /// shortened clock. The oracle never applies that clock
    /// (`ts_config`), and
    /// [`TsScheduler`](redsoc_core::sched::ts::TsScheduler) overrides
    /// no scheduler hook, so on the oracle's core a TS run is the
    /// baseline run, event for event. The oracle therefore checks TS on
    /// the baseline run: a case simulates it once, blames a failure on
    /// whichever of the two kinds it lists first, and records its cycles
    /// under both. `tests/fuzz_regressions.rs` fails the day the two
    /// schedulers' runs differ.
    Ts,
}

impl SchedKind {
    /// All four policies, in canonical order.
    pub const ALL: [SchedKind; 4] = [
        SchedKind::Baseline,
        SchedKind::Redsoc,
        SchedKind::Mos,
        SchedKind::Ts,
    ];

    /// Stable lower-case name (CLI `--schedulers` vocabulary).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchedKind::Baseline => "baseline",
            SchedKind::Redsoc => "redsoc",
            SchedKind::Mos => "mos",
            SchedKind::Ts => "ts",
        }
    }

    /// Parse a `--schedulers` item.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        SchedKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// Whether this policy's run is the baseline run (see
    /// [`SchedKind::Ts`]).
    fn shares_baseline_run(self) -> bool {
        matches!(self, SchedKind::Baseline | SchedKind::Ts)
    }

    /// The scheduler configuration this policy runs under.
    #[must_use]
    fn sched_config(self) -> SchedulerConfig {
        match self {
            // TS uses the baseline mechanism; the oracle does not
            // rescale its clock.
            SchedKind::Baseline | SchedKind::Ts => SchedulerConfig::baseline(),
            SchedKind::Redsoc => SchedulerConfig::redsoc(),
            SchedKind::Mos => SchedulerConfig::mos(),
        }
    }
}

impl fmt::Display for SchedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The dynamic-op budget of every fuzz case: the interpreter stops a
/// case there, so a generated program longer than this is cut.
pub const MAX_DYN_OPS: u64 = 4096;

/// What the oracle runs and checks.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// The core the pipeline runs model (scheduler field is overridden
    /// per run).
    pub core: CoreConfig,
    /// Policies to run the program under.
    pub scheds: Vec<SchedKind>,
    /// Dynamic instruction budget for the interpreter (loops are bounded
    /// by construction; this is a second line of defence).
    pub max_dyn_ops: u64,
    /// Inject the inverted-skew fault into the ReDSOC run (acceptance
    /// testing of the harness itself).
    pub sabotage_redsoc: bool,
}

impl OracleConfig {
    /// All four schedulers on the given core, no sabotage.
    #[must_use]
    pub fn new(core: CoreConfig) -> Self {
        OracleConfig {
            core,
            scheds: SchedKind::ALL.to_vec(),
            max_dyn_ops: MAX_DYN_OPS,
            sabotage_redsoc: false,
        }
    }
}

/// A detected divergence between executions (or a violated invariant
/// within one). The harness treats any of these as a bug to shrink.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The interpreter faulted — a generator/shrinker bug, reported as a
    /// first-class failure rather than skipped.
    ExecFault {
        /// Interpreter error description.
        error: String,
    },
    /// A pipeline run failed (deadlock or configuration rejection).
    SimFailed {
        /// The policy that failed.
        sched: SchedKind,
        /// Simulator error description.
        error: String,
    },
    /// The committed stream differs from the architectural trace.
    CommitMismatch {
        /// The diverging policy.
        sched: SchedKind,
        /// Index into the commit stream of the first difference.
        index: usize,
        /// Expected `(seq, pc)` from the interpreter trace, if any.
        expected: Option<(u64, u32)>,
        /// Observed `(seq, pc)` from the pipeline, if any.
        got: Option<(u64, u32)>,
    },
    /// A timing invariant failed.
    TimingViolation {
        /// The offending policy.
        sched: SchedKind,
        /// Which invariant, with the observed values.
        detail: String,
    },
}

impl Divergence {
    /// The policy this divergence blames, if any.
    #[must_use]
    pub fn sched(&self) -> Option<SchedKind> {
        match self {
            Divergence::ExecFault { .. } => None,
            Divergence::SimFailed { sched, .. }
            | Divergence::CommitMismatch { sched, .. }
            | Divergence::TimingViolation { sched, .. } => Some(*sched),
        }
    }

    /// Whether `other` is the same *class* of failure: same variant,
    /// blaming the same policy. The shrinker pins candidates to the
    /// original divergence's class so that an edit which introduces an
    /// unrelated failure (say, deleting a divide guard and faulting the
    /// interpreter) is not mistaken for a smaller repro.
    #[must_use]
    pub fn same_class(&self, other: &Divergence) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
            && self.sched() == other.sched()
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::ExecFault { error } => write!(f, "interpreter fault: {error}"),
            Divergence::SimFailed { sched, error } => {
                write!(f, "[{sched}] simulation failed: {error}")
            }
            Divergence::CommitMismatch {
                sched,
                index,
                expected,
                got,
            } => write!(
                f,
                "[{sched}] commit stream diverges at #{index}: expected {expected:?}, got {got:?}"
            ),
            Divergence::TimingViolation { sched, detail } => {
                write!(f, "[{sched}] timing invariant violated: {detail}")
            }
        }
    }
}

/// Summary of a clean (non-diverging) case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOk {
    /// Dynamic instructions executed.
    pub dyn_ops: u64,
    /// `(policy, cycles)` for each pipeline run.
    pub cycles: Vec<(SchedKind, u64)>,
}

/// What the checks read of one pipeline run, recorded as its events
/// arrive. The per-op tables are indexed by seq: an interpreter trace's
/// seqs are `0..trace.len()`, and events for any other seq are dropped.
/// Every other event only passes through the post-mortem ring.
struct RunView {
    commits: Vec<(u64, u32)>,
    /// Pool of each op, from dispatch events.
    pools: Vec<Option<PoolKind>>,
    /// `(cycle, seq, spec)` select grants, in emission order.
    grants: Vec<(u64, u64, bool)>,
    /// `(first, last)` CI-broadcast ticks of each op.
    broadcasts: Vec<Option<(u64, u64)>>,
    /// Whether each op took a tag-misprediction fallback.
    tag_misses: Vec<bool>,
    /// The last [`RingSink::DEFAULT_CAP`] events of any kind, for the
    /// dump a failed run's error carries.
    last: VecDeque<(u64, PipeEvent)>,
}

impl RunView {
    /// An empty view for a trace of `n` ops.
    fn new(n: usize) -> Self {
        RunView {
            commits: Vec::with_capacity(n),
            pools: vec![None; n],
            grants: Vec::new(),
            broadcasts: vec![None; n],
            tag_misses: vec![false; n],
            last: VecDeque::with_capacity(RingSink::DEFAULT_CAP),
        }
    }
}

impl EventSink for RunView {
    fn record(&mut self, cycle: u64, ev: &PipeEvent) {
        if self.last.len() == RingSink::DEFAULT_CAP {
            self.last.pop_front();
        }
        self.last.push_back((cycle, *ev));
        match *ev {
            PipeEvent::Commit { seq, pc } => self.commits.push((seq, pc)),
            PipeEvent::Dispatch { seq, pool, .. } => {
                if let Some(slot) = self.pools.get_mut(seq as usize) {
                    *slot = Some(pool);
                }
            }
            PipeEvent::SelectGrant { seq, spec } => self.grants.push((cycle, seq, spec)),
            PipeEvent::CiBroadcast { seq, avail_tick } => {
                if let Some(slot) = self.broadcasts.get_mut(seq as usize) {
                    let first = slot.map_or(avail_tick, |(first, _)| first);
                    *slot = Some((first, avail_tick));
                }
            }
            PipeEvent::TagMispredict { seq, .. } => {
                if let Some(slot) = self.tag_misses.get_mut(seq as usize) {
                    *slot = true;
                }
            }
            _ => {}
        }
    }

    /// The same dump as `VecSink::recent`.
    fn recent(&self) -> Vec<String> {
        self.last
            .iter()
            .map(|(c, e)| format!("cycle {c}: {e:?}"))
            .collect()
    }
}

fn run_one(
    kind: SchedKind,
    trace: &[DynOp],
    cfg: &OracleConfig,
) -> Result<(SimReport, RunView), Divergence> {
    let core = cfg.core.clone().with_sched(kind.sched_config());
    let mut view = RunView::new(trace.len());
    let sim = match kind {
        SchedKind::Redsoc if cfg.sabotage_redsoc => {
            let sched = RedsocScheduler::from_config(&core.sched).with_inverted_skew();
            Simulator::with_scheduler(core, Box::new(sched))
        }
        _ => Simulator::new(core),
    };
    let report = sim
        .and_then(|s| s.run_events(trace.iter().copied(), &mut view))
        .map_err(|e| Divergence::SimFailed {
            sched: kind,
            error: e.to_string(),
        })?;
    Ok((report, view))
}

/// Check one invariant family: skewed-select ordering. Within a cycle
/// and functional-unit pool, a grandparent-speculative grant must never
/// precede a non-speculative one.
fn check_skew(kind: SchedKind, view: &RunView) -> Result<(), Divergence> {
    let mut i = 0;
    while i < view.grants.len() {
        let cycle = view.grants[i].0;
        let mut j = i;
        while j < view.grants.len() && view.grants[j].0 == cycle {
            j += 1;
        }
        // Per pool (indexed by discriminant): the first speculative
        // grant seen this cycle.
        let mut spec_seen: [Option<u64>; 4] = [None; 4];
        for &(_, seq, spec) in &view.grants[i..j] {
            let Some(&Some(pool)) = view.pools.get(seq as usize) else {
                continue;
            };
            let first = &mut spec_seen[pool as usize];
            if spec {
                first.get_or_insert(seq);
            } else if let Some(first_spec) = *first {
                return Err(Divergence::TimingViolation {
                    sched: kind,
                    detail: format!(
                        "cycle {cycle}: speculative grant #{first_spec} serviced before \
                         non-speculative #{seq} in pool {pool:?} despite skewed select"
                    ),
                });
            }
        }
        i = j;
    }
    Ok(())
}

/// Completion-instant monotonicity along register dependence chains: a
/// consumer's CI broadcast cannot precede the broadcast of the producer
/// whose value it reads. Pairs where the producer re-broadcast (width
/// replay) or either side took a tag-misprediction fallback are skipped —
/// replays legitimately reorder those.
fn check_ci_monotone(kind: SchedKind, trace: &[DynOp], view: &RunView) -> Result<(), Divergence> {
    let mut last_writer: [Option<u64>; NUM_ARCH_REGS] = [None; NUM_ARCH_REGS];
    for op in trace {
        for src in op.instr.srcs().iter() {
            let Some(producer) = last_writer[src.index()] else {
                continue;
            };
            let (p, c) = (producer as usize, op.seq as usize);
            let (Some(&Some((p_first, p_last))), Some(&Some((_, c_last)))) =
                (view.broadcasts.get(p), view.broadcasts.get(c))
            else {
                continue;
            };
            let replayed = p_first != p_last || view.tag_misses[p] || view.tag_misses[c];
            if !replayed && c_last < p_first {
                return Err(Divergence::TimingViolation {
                    sched: kind,
                    detail: format!(
                        "CI non-monotone: consumer #{} broadcast at tick {c_last} before \
                         producer #{producer} at tick {p_first}",
                        op.seq
                    ),
                });
            }
        }
        if let Some(d) = op.instr.dst() {
            last_writer[d.index()] = Some(op.seq);
        }
        if op.instr.writes_flags() {
            last_writer[ArchReg::flags().index()] = Some(op.seq);
        }
    }
    Ok(())
}

/// Run `program` through the interpreter and through the pipeline under
/// every configured policy, comparing all executions.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_program(program: &Program, cfg: &OracleConfig) -> Result<CaseOk, Divergence> {
    // Reference execution: the functional interpreter.
    let trace = Interpreter::new(program)
        .run(cfg.max_dyn_ops)
        .map_err(|e| Divergence::ExecFault {
            error: e.to_string(),
        })?;
    let trace: Vec<DynOp> = trace.into_iter().collect();

    let mut cycles = Vec::new();
    // Cycles of the run that baseline and TS share (see `SchedKind::Ts`).
    let mut shared_cycles = None;
    for &kind in &cfg.scheds {
        if kind.shares_baseline_run() {
            if let Some(c) = shared_cycles {
                cycles.push((kind, c));
                continue;
            }
        }
        let (rep, view) = run_one(kind, &trace, cfg)?;

        // 1. Committed stream == architectural trace, element for element.
        // This also settles the final architectural state: the pipeline
        // commits the trace's own ops, so a run that commits exactly the
        // trace ends in the interpreter's state.
        let n = trace.len().max(view.commits.len());
        for i in 0..n {
            let expected = trace.get(i).map(|op| (op.seq, op.pc));
            let got = view.commits.get(i).copied();
            if expected != got {
                return Err(Divergence::CommitMismatch {
                    sched: kind,
                    index: i,
                    expected,
                    got,
                });
            }
        }

        // 2. Timing invariants.
        if rep.cycles == 0 {
            return Err(Divergence::TimingViolation {
                sched: kind,
                detail: "zero cycles".into(),
            });
        }
        if rep.stalls.total() != rep.cycles {
            return Err(Divergence::TimingViolation {
                sched: kind,
                detail: format!(
                    "stall partition {} != cycles {}",
                    rep.stalls.total(),
                    rep.cycles
                ),
            });
        }
        if rep.committed != trace.len() as u64 {
            return Err(Divergence::TimingViolation {
                sched: kind,
                detail: format!("committed {} != trace {}", rep.committed, trace.len()),
            });
        }
        if !view
            .commits
            .iter()
            .enumerate()
            .all(|(i, c)| c.0 == i as u64)
        {
            return Err(Divergence::TimingViolation {
                sched: kind,
                detail: "commit sequence numbers not in program order".into(),
            });
        }
        // Skew-dependent invariants are driven by what the oracle
        // *requested* — a sabotaged scheduler is held to the contract.
        if kind == SchedKind::Redsoc && cfg.core.sched.skewed_select {
            if rep.gp_mispeculations != 0 {
                return Err(Divergence::TimingViolation {
                    sched: kind,
                    detail: format!(
                        "{} GP mispeculations despite skewed select",
                        rep.gp_mispeculations
                    ),
                });
            }
            check_skew(kind, &view)?;
        }
        check_ci_monotone(kind, &trace, &view)?;

        if kind.shares_baseline_run() {
            shared_cycles = Some(rep.cycles);
        }
        cycles.push((kind, rep.cycles));
    }
    Ok(CaseOk {
        dyn_ops: trace.len() as u64,
        cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsoc_core::events::VecSink;

    fn chain_program() -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.mov_imm(r(0), 40);
        b.mov_imm(r(1), 1);
        b.bind(top);
        b.add(r(1), r(1), op_reg(r(1)));
        b.eor(r(1), r(1), op_imm(0x3C));
        b.subs(r(0), r(0), op_imm(1));
        b.bne(top);
        b.halt();
        b.build().expect("valid program")
    }

    #[test]
    fn clean_program_passes_all_schedulers() {
        let cfg = OracleConfig::new(CoreConfig::big());
        let ok = check_program(&chain_program(), &cfg).expect("no divergence");
        assert_eq!(ok.cycles.len(), 4);
        assert!(ok.dyn_ops > 100);
        for (kind, cycles) in &ok.cycles {
            assert!(*cycles > 0, "{kind} must take cycles");
        }
    }

    #[test]
    fn baseline_and_ts_share_one_run() {
        let program = chain_program();
        let cfg = |scheds: &[SchedKind]| OracleConfig {
            scheds: scheds.to_vec(),
            ..OracleConfig::new(CoreConfig::big())
        };
        let all = check_program(&program, &cfg(&SchedKind::ALL)).expect("no divergence");
        let cycles_of = |kind| all.cycles.iter().find(|c| c.0 == kind).map(|c| c.1);
        assert_eq!(cycles_of(SchedKind::Ts), cycles_of(SchedKind::Baseline));
        assert_eq!(
            all.cycles.iter().map(|c| c.0).collect::<Vec<_>>(),
            SchedKind::ALL,
            "cycles keep the requested order"
        );

        // TS alone still simulates the baseline run.
        let ts = check_program(&program, &cfg(&[SchedKind::Ts])).expect("no divergence");
        assert_eq!(
            ts.cycles,
            vec![(SchedKind::Ts, cycles_of(SchedKind::Ts).expect("ts"))]
        );

        // Whichever of the two comes first is simulated, and blamed: a
        // core that fails validation fails that run.
        let mut broken = CoreConfig::big();
        broken.alu_units = 0;
        for (scheds, blamed) in [
            (vec![SchedKind::Ts], SchedKind::Ts),
            (vec![SchedKind::Ts, SchedKind::Baseline], SchedKind::Ts),
            (
                vec![SchedKind::Baseline, SchedKind::Ts],
                SchedKind::Baseline,
            ),
        ] {
            let cfg = OracleConfig {
                scheds,
                ..OracleConfig::new(broken.clone())
            };
            match check_program(&program, &cfg) {
                Err(Divergence::SimFailed { sched, .. }) => assert_eq!(sched, blamed),
                other => panic!("expected {blamed} to fail, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_view_dumps_what_a_vec_sink_dumps() {
        let trace: Vec<DynOp> = Interpreter::new(&chain_program())
            .run(MAX_DYN_OPS)
            .expect("no fault")
            .into_iter()
            .collect();
        let core = CoreConfig::big();
        let mut view = RunView::new(trace.len());
        let mut all = VecSink::new();
        Simulator::new(core.clone())
            .and_then(|s| s.run_events(trace.iter().copied(), &mut view))
            .expect("runs");
        Simulator::new(core)
            .and_then(|s| s.run_events(trace.iter().copied(), &mut all))
            .expect("runs");
        assert!(all.events.len() > RingSink::DEFAULT_CAP, "the ring wraps");
        assert_eq!(view.recent(), all.recent());
    }

    #[test]
    fn sabotaged_scheduler_is_caught() {
        let mut cfg = OracleConfig::new(CoreConfig::big());
        cfg.sabotage_redsoc = true;
        let err = check_program(&chain_program(), &cfg).expect_err("inverted skew must be flagged");
        match &err {
            Divergence::TimingViolation { sched, .. } => {
                assert_eq!(*sched, SchedKind::Redsoc, "wrong policy blamed: {err}");
            }
            other => panic!("expected a timing violation, got {other}"),
        }
    }

    #[test]
    fn sched_kind_round_trips_labels() {
        for k in SchedKind::ALL {
            assert_eq!(SchedKind::parse(k.label()), Some(k));
        }
        assert_eq!(SchedKind::parse("nope"), None);
    }
}
