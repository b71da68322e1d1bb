//! Snapshot serialization. Section order here is the format: `decode`
//! mirrors it read-for-read, and `SnapReader::exhausted` catches drift.

use redsoc_isa::opcode::ExecClass;
use redsoc_timing::pvt::PvtState;

use crate::fu::PoolKind;
use crate::pipeline::state::{Ifo, PipelineState};
use crate::sched::Scheduler;
use crate::stats::{OpCategory, SimReport, StallCause};
use crate::tag_pred::LastArrival;

use super::codec::{SnapWriter, MAGIC, VERSION};
use super::config_digest;

pub(crate) fn exec_class_code(class: ExecClass) -> u8 {
    match class {
        ExecClass::IntAlu => 0,
        ExecClass::IntMul => 1,
        ExecClass::IntDiv => 2,
        ExecClass::SimdAlu => 3,
        ExecClass::SimdMul => 4,
        ExecClass::Fp => 5,
        ExecClass::Load => 6,
        ExecClass::Store => 7,
        ExecClass::Branch => 8,
    }
}

pub(crate) fn pool_code(pool: PoolKind) -> u8 {
    match pool {
        PoolKind::Alu => 0,
        PoolKind::Simd => 1,
        PoolKind::Fp => 2,
        PoolKind::Mem => 3,
    }
}

pub(crate) fn category_code(cat: OpCategory) -> u8 {
    match cat {
        OpCategory::MemHighLatency => 0,
        OpCategory::MemLowLatency => 1,
        OpCategory::Simd => 2,
        OpCategory::OtherMulti => 3,
        OpCategory::AluLowSlack => 4,
        OpCategory::AluHighSlack => 5,
        OpCategory::Control => 6,
    }
}

/// Serialize the full pipeline state plus the scheduler's private blob.
///
/// Must be called at a cycle boundary (top of the simulation loop, before
/// the cycle's stages run) — the wakeup scratch buffers are empty there,
/// which `WakeupState::export_state` debug-asserts.
pub(crate) fn encode(state: &PipelineState, sched: &dyn Scheduler) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.bytes_raw(&MAGIC);
    w.u32(VERSION);
    w.u64(config_digest(&state.config, sched.name()));

    // Section: core counters.
    w.u64(state.cycle);
    w.u64(state.window.base());
    w.u64(state.next_seq);
    w.u64(state.committed_total);
    w.u64(state.dispatched_total);
    w.u32(state.rse_used);
    w.u32(state.lsq_used);

    // Section: recalibration state (active LUT + PVT walk). `base_lut`
    // and `quant` are config-derived and rebuilt on restore.
    let raw = state.lut.raw();
    w.len(raw.len());
    for ps in raw {
        w.u32(ps);
    }
    encode_pvt(&mut w, state.pvt.export_state());

    // Section: rename table.
    w.len(state.rat.len());
    for &slot in &state.rat {
        w.opt_u64(slot);
    }

    // Section: store-sequence index.
    let stores: Vec<u64> = state.store_seqs.iter().copied().collect();
    w.u64_slice(&stores);

    // Section: fetch queue. Ops are rehydrated from the trace at
    // sequence numbers [dispatched_total, dispatched_total + len).
    w.len(state.fetchq.len());
    for f in &state.fetchq {
        w.u64(f.ready_cycle);
    }
    w.bool(state.fetch_stopped);
    w.opt_u64(state.pending_redirect);
    w.u64(state.fetch_blocked_until);

    // Section: functional-unit pools (busy-until times).
    w.u64_slice(state.alu.export_state());
    w.u64_slice(state.simd.export_state());
    w.u64_slice(state.fp.export_state());
    w.u64_slice(state.mem_ports.export_state());

    // Section: the in-flight window.
    w.len(state.window.len());
    for ifo in state.window.iter() {
        encode_ifo(&mut w, ifo);
    }

    // Section: event-driven wakeup structures.
    let wake = state.wakeup.export_state();
    for ready in &wake.ready {
        w.u64_slice(ready);
    }
    w.len(wake.wheel.len());
    for slot in &wake.wheel {
        w.u64_slice(slot);
    }
    w.len(wake.far.len());
    for (cycle, seqs) in &wake.far {
        w.u64(*cycle);
        w.u64_slice(seqs);
    }

    // Section: predictors.
    let wp = state.width_pred.export_state();
    w.len(wp.entries.len());
    for (width, conf) in wp.entries {
        w.u8(width);
        w.u8(conf);
    }
    w.u64(wp.stats.predictions);
    w.u64(wp.stats.exact);
    w.u64(wp.stats.conservative);
    w.u64(wp.stats.aggressive);

    let (tp_entries, tp_stats) = state.tag_pred.export_state();
    w.len(tp_entries.len());
    for (last_is_src1, conf) in tp_entries {
        w.bool(last_is_src1);
        w.u8(conf);
    }
    w.u64(tp_stats.predictions);
    w.u64(tp_stats.mispredictions);

    let gs = state.gshare.export_state();
    w.bytes(&gs.bimodal);
    w.bytes(&gs.gshare);
    w.bytes(&gs.chooser);
    w.u64(gs.history);
    w.u64(gs.stats.predictions);
    w.u64(gs.stats.mispredictions);

    // Section: memory model (opaque, self-validating — the model encodes
    // its own geometry/limits and rejects mismatched blobs on restore).
    w.bytes(&state.memory.snapshot());

    // Section: accumulated statistics.
    encode_report(&mut w, &state.report);

    // Section: differential-testing mode flag. Restoring a scan-wakeup
    // snapshot into a build without the feature is rejected.
    #[cfg(feature = "scan-wakeup")]
    w.bool(state.scan_wakeup);
    #[cfg(not(feature = "scan-wakeup"))]
    w.bool(false);

    // Section: scheduler-private state.
    w.bytes(&sched.snapshot());

    w.finish()
}

fn encode_pvt(w: &mut SnapWriter, pvt: PvtState) {
    w.u32(pvt.nominal_ps);
    w.u32(pvt.max_ps);
    w.u32(pvt.step_ps);
    w.u64(pvt.state);
    w.u64(pvt.current_epoch);
    w.u32(pvt.current_ps);
}

fn encode_ifo(w: &mut SnapWriter, ifo: &Ifo) {
    // `op` is rehydrated from the trace by sequence number; everything
    // else round-trips verbatim.
    w.u8(exec_class_code(ifo.class));
    w.bool(ifo.recyclable);
    w.u8(pool_code(ifo.pool));
    w.u64_slice(&ifo.srcs);
    w.opt_u64(ifo.pred_last);
    w.opt_u64(ifo.gp_tag);
    match ifo.pred_pos {
        None => w.u8(0),
        Some((arrival, i0, i1)) => {
            w.u8(match arrival {
                None => 1,
                Some(LastArrival::Src0) => 2,
                Some(LastArrival::Src1) => 3,
            });
            w.u64(i0 as u64);
            w.u64(i1 as u64);
        }
    }
    w.u64(ifo.ext_ticks);
    w.u8(ifo.pred_width.code());
    match ifo.dst_arch {
        None => w.u8(0),
        Some(r) => {
            w.u8(1);
            #[allow(clippy::cast_possible_truncation)] // index < NUM_ARCH_REGS = 65
            w.u8(r.index() as u8);
        }
    }
    w.u64(ifo.earliest_req);
    w.bool(ifo.fallback);
    w.bool(ifo.issued);
    w.u64(ifo.issue_cycle);
    w.u64(ifo.sel_ready);
    w.u64(ifo.avail);
    w.u64(ifo.done_cycle);
    w.bool(ifo.transparent);
    w.bool(ifo.held_two);
    w.u32(ifo.chain_len);
    w.bool(ifo.chain_extended);
    w.bool(ifo.committed);
    w.bool(ifo.l1_miss);
    w.bool(ifo.mem_rejected);
    w.u64_slice(&ifo.waiters);
    w.bool(ifo.in_ready);
}

fn encode_report(w: &mut SnapWriter, report: &SimReport) {
    w.u64(report.cycles);
    w.u64(report.committed);
    let counts = report.op_mix.export_counts();
    w.len(counts.len());
    for (&cat, &n) in counts {
        w.u8(category_code(cat));
        w.u64(n);
    }
    let lengths = report.chains.histogram();
    w.len(lengths.len());
    for (&len, &n) in lengths {
        w.u32(len);
        w.u64(n);
    }
    w.u64(report.recycled_ops);
    w.u64(report.egpw_issues);
    w.u64(report.egpw_wasted);
    w.u64(report.gp_mispeculations);
    w.u64(report.fu_stall_cycles);
    w.u64(report.two_cycle_holds);
    w.u64(report.tag_pred.predictions);
    w.u64(report.tag_pred.mispredictions);
    w.u64(report.width_pred.predictions);
    w.u64(report.width_pred.exact);
    w.u64(report.width_pred.conservative);
    w.u64(report.width_pred.aggressive);
    w.u64(report.branch.predictions);
    w.u64(report.branch.mispredictions);
    w.u64(report.memory.l1_hits);
    w.u64(report.memory.l2_hits);
    w.u64(report.memory.mem_accesses);
    w.u64(report.mem_contention.mshr_rejects);
    w.u64(report.mem_contention.mshr_merges);
    w.u64(report.mem_contention.port_wait_cycles);
    w.u64(report.mem_contention.dram_wait_cycles);
    w.u64(report.stl_forwards);
    for cause in StallCause::all() {
        w.u64(report.stalls.count(cause));
    }
}
