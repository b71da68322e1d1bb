//! Integration-style unit tests for the staged pipeline: golden
//! behaviour, the window ring, and store-to-load forwarding (split out
//! of `mod.rs` to keep it within the module size budget).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use super::*;
use crate::config::SchedulerConfig;
use redsoc_isa::prelude::*;

fn logic_chain_trace(n: u64) -> Vec<DynOp> {
    let mut ops = Vec::new();
    for i in 0..n {
        let instr = Instr::Alu {
            op: AluOp::Eor,
            dst: Some(r(1)),
            src1: Some(r(1)),
            op2: Operand2::Imm(0x55),
            set_flags: false,
        };
        let mut d = DynOp::simple(i, (i % 64) as u32 * 4, instr);
        d.eff_bits = 8;
        ops.push(d);
    }
    ops.push(DynOp::simple(n, (n % 64) as u32 * 4, Instr::Halt));
    ops
}

/// Build a simulator with one in-flight op that can never issue: the
/// watchdog must fire instead of spinning forever. White-box — pokes
/// `PipelineState` internals, so it lives with the pipeline.
fn stuck_simulator() -> Simulator {
    let config = CoreConfig::big().with_sched(SchedulerConfig::redsoc());
    let mut sim = Simulator::new(config).expect("valid config");
    let instr = Instr::Alu {
        op: AluOp::Add,
        dst: Some(r(0)),
        src1: Some(r(1)),
        op2: Operand2::Imm(1),
        set_flags: false,
    };
    sim.state
        .allocate(&*sim.sched, DynOp::simple(0, 0, instr), &mut NullSink);
    sim.state.ifo_mut(0).unwrap().earliest_req = u64::MAX; // never requests selection
    sim.state.fetch_stopped = true;
    sim
}

#[test]
fn watchdog_fires_on_stuck_pipeline_with_event_dump() {
    use crate::events::RingSink;
    let mut ring = RingSink::new(64);
    let err = stuck_simulator()
        .run_events(std::iter::empty(), &mut ring)
        .expect_err("stuck pipeline must deadlock, not hang");
    let SimError::Deadlock {
        cycle,
        committed,
        recent_events,
    } = err.clone()
    else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert!(cycle > 100_000, "watchdog threshold: fired at {cycle}");
    assert_eq!(committed, 0);
    // The ring collapses the 100k-cycle stall run, so the dispatch that
    // preceded it survives in the dump alongside the stall summary.
    assert!(
        recent_events.iter().any(|e| e.contains("StallCycle")),
        "diagnostic must show the stall run: {recent_events:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("no commit progress"));
    assert!(msg.contains("pipeline events"));
}

#[test]
fn watchdog_dump_from_a_vec_sink_is_bounded() {
    use crate::events::{RingSink, VecSink};
    let mut sink = VecSink::new();
    let err = stuck_simulator()
        .run_events(std::iter::empty(), &mut sink)
        .expect_err("stuck pipeline must deadlock");
    let SimError::Deadlock { recent_events, .. } = &err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert!(sink.events.len() > 100_000, "the sink keeps every event");
    assert!(
        recent_events.len() <= RingSink::DEFAULT_CAP,
        "dump holds {} events",
        recent_events.len()
    );
    assert!(
        recent_events.iter().any(|e| e.contains("StallCycle")),
        "diagnostic must show the stall run: {recent_events:?}"
    );
}

#[test]
fn watchdog_without_events_reports_empty_dump() {
    let err = stuck_simulator()
        .run(std::iter::empty())
        .expect_err("stuck pipeline must deadlock");
    let SimError::Deadlock { recent_events, .. } = &err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert!(recent_events.is_empty(), "NullSink retains nothing");
    assert!(err.to_string().contains("events were disabled"));
}

#[test]
fn cycle_budget_cancels_a_long_run() {
    let trace = logic_chain_trace(50_000);
    let config = CoreConfig::big().with_sched(SchedulerConfig::baseline());
    let err = Simulator::new(config)
        .expect("valid config")
        .with_cycle_budget(512)
        .run(trace.into_iter())
        .expect_err("budget must cancel the run");
    match err {
        SimError::Cancelled {
            cycle, committed, ..
        } => {
            // Polled every 1024 cycles, so detection lands on the next
            // multiple of 1024 at or after the budget.
            assert!((512..=2048).contains(&cycle), "cancelled at {cycle}");
            assert!(committed < 50_000);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn run_within_its_cycle_budget_completes() {
    let trace = logic_chain_trace(2_000);
    let config = CoreConfig::big().with_sched(SchedulerConfig::baseline());
    let rep = Simulator::new(config)
        .expect("valid config")
        .with_cycle_budget(1_000_000)
        .run(trace.into_iter())
        .expect("a budget the run stays under must not stop it");
    assert_eq!(rep.committed, 2_001);
}

#[test]
fn window_ring_recycles_slots_and_waiter_capacity() {
    use state::Window;
    let config = CoreConfig::big().with_sched(SchedulerConfig::baseline());
    let mut sim = Simulator::new(config).expect("valid config");
    sim.state
        .allocate(&*sim.sched, DynOp::simple(0, 0, Instr::Halt), &mut NullSink);
    let template = sim.state.ifo(0).expect("dispatched").clone();
    let entry = |seq: u64, waiters: Vec<u64>| {
        let mut x = template.clone();
        x.op.seq = seq;
        x.waiters = waiters;
        x
    };
    let mut w = Window::default();
    for seq in 0..40 {
        w.push(entry(seq, Vec::with_capacity(8))); // grows 16 -> 32 -> 64
    }
    assert!((0..40).all(|s| w.get(s).is_some_and(|x| x.op.seq == s)));
    assert!(w.get(40).is_none());
    for _ in 0..30 {
        w.pop_front();
    }
    assert!(w.get(29).is_none() && w.get(30).is_some());
    for seq in 40..64 {
        w.push(entry(seq, Vec::new()));
    }
    // Seq 64 reuses seq 0's slot and inherits its list's capacity.
    w.push(entry(64, Vec::new()));
    assert!(w.get(64).expect("pushed").waiters.capacity() >= 8);
    let seqs: Vec<u64> = w.iter().map(|x| x.op.seq).collect();
    assert_eq!(seqs, (30..65).collect::<Vec<_>>());
}

fn load_op(seq: u64, pc: u32, addr: u32) -> DynOp {
    let mut d = DynOp::simple(
        seq,
        pc,
        Instr::Load {
            dst: ArchReg::int(2),
            base: ArchReg::int(1),
            offset: 0,
            width: redsoc_isa::opcode::MemWidth::B4,
        },
    );
    d.eff_addr = Some(addr);
    d
}

fn store_op(seq: u64, pc: u32, addr: u32) -> DynOp {
    let mut d = DynOp::simple(
        seq,
        pc,
        Instr::Store {
            src: ArchReg::int(3),
            base: ArchReg::int(1),
            offset: 0,
            width: redsoc_isa::opcode::MemWidth::B4,
        },
    );
    d.eff_addr = Some(addr);
    d
}

#[test]
fn store_to_load_forwarding_emits_event_and_stat() {
    use crate::events::VecSink;
    let trace = vec![
        store_op(0, 0, 0x100),
        load_op(1, 4, 0x100),
        DynOp::simple(2, 8, Instr::Halt),
    ];
    let config = CoreConfig::big().with_sched(SchedulerConfig::baseline());
    let mut sink = VecSink::new();
    let rep = Simulator::new(config)
        .expect("valid config")
        .run_events(trace.into_iter(), &mut sink)
        .expect("run");
    assert_eq!(rep.stl_forwards, 1, "the load must forward from the store");
    assert!(
        sink.events.iter().any(|(_, e)| matches!(
            e,
            PipeEvent::StoreForward {
                seq: 1,
                store_seq: 0
            }
        )),
        "StoreForward must name load #1 and store #0: {:?}",
        sink.events
    );
    // The forwarded load never reached the cache hierarchy: the only
    // access is the store's own, at retirement.
    let m = &rep.memory;
    assert_eq!(
        m.l1_hits + m.l2_hits + m.mem_accesses,
        1,
        "only the store may touch the hierarchy"
    );
}

#[test]
fn partially_overlapping_unissued_store_blocks_but_still_forwards_when_issued() {
    // White-box: allocate a store and a load whose byte ranges overlap
    // only partially ([0x100,0x104) vs [0x102,0x106)).
    let config = CoreConfig::big().with_sched(SchedulerConfig::baseline());
    let mut sim = Simulator::new(config).expect("valid config");
    sim.state
        .allocate(&*sim.sched, store_op(0, 0, 0x100), &mut NullSink);
    sim.state
        .allocate(&*sim.sched, load_op(1, 4, 0x102), &mut NullSink);
    sim.state
        .allocate(&*sim.sched, load_op(2, 8, 0x104), &mut NullSink);

    // While the store is unissued its data is unavailable: the
    // overlapping load is blocked, the adjacent (non-overlapping)
    // load is not.
    assert!(!sim.state.ifo(0).unwrap().issued);
    assert!(
        sim.state.load_blocked(sim.state.ifo(1).unwrap()),
        "partial overlap with an unissued store must block the load"
    );
    assert!(
        !sim.state.load_blocked(sim.state.ifo(2).unwrap()),
        "byte ranges [0x100,0x104) and [0x104,0x108) do not overlap"
    );

    // Once the store has issued, the same overlap forwards instead.
    sim.state.ifo_mut(0).unwrap().issued = true;
    assert!(!sim.state.load_blocked(sim.state.ifo(1).unwrap()));
    assert_eq!(
        sim.state
            .forwarding_store(sim.state.ifo(1).unwrap())
            .map(|s| s.op.seq),
        Some(0),
        "partial overlap forwards from the youngest older store"
    );
    assert!(
        sim.state
            .forwarding_store(sim.state.ifo(2).unwrap())
            .is_none(),
        "non-overlapping load must go to memory"
    );
}

#[test]
fn configured_deadlock_threshold_is_validated_at_construction() {
    let mut config = CoreConfig::big();
    config.deadlock_cycles = 0;
    assert!(matches!(
        Simulator::new(config),
        Err(SimError::BadConfig(_))
    ));
}
