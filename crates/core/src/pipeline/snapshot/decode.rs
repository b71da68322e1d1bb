//! Snapshot deserialization — the exact mirror of `encode`, applied onto
//! a freshly constructed `PipelineState` for the same configuration.

use std::collections::{BTreeMap, VecDeque};

use redsoc_isa::opcode::ExecClass;
use redsoc_isa::reg::ArchReg;
use redsoc_isa::trace::DynOp;
use redsoc_mem::{ContentionStats, HierarchyStats};
use redsoc_timing::pvt::{PvtModel, PvtState};
use redsoc_timing::slack::SlackLut;
use redsoc_timing::slack::WidthClass;
use redsoc_timing::width_predictor::{WidthPredState, WidthPredictorStats};

use crate::branch::{BranchStats, GshareState};
use crate::fu::PoolKind;
use crate::pipeline::state::{Fetched, Ifo, PipelineState, SrcTags, Window};
use crate::pipeline::wakeup::WakeupSnapshot;
use crate::sched::Scheduler;
use crate::stats::{ChainStats, OpCategory, OpMix, SimReport, StallCause};
use crate::tag_pred::{LastArrival, TagPredStats};

use super::codec::{SnapReader, MAGIC, VERSION};
use super::{config_digest, SnapshotError};

fn exec_class_from(code: u8) -> Result<ExecClass, SnapshotError> {
    Ok(match code {
        0 => ExecClass::IntAlu,
        1 => ExecClass::IntMul,
        2 => ExecClass::IntDiv,
        3 => ExecClass::SimdAlu,
        4 => ExecClass::SimdMul,
        5 => ExecClass::Fp,
        6 => ExecClass::Load,
        7 => ExecClass::Store,
        8 => ExecClass::Branch,
        _ => return Err(SnapshotError::Corrupt(format!("bad exec class {code}"))),
    })
}

fn pool_from(code: u8) -> Result<PoolKind, SnapshotError> {
    Ok(match code {
        0 => PoolKind::Alu,
        1 => PoolKind::Simd,
        2 => PoolKind::Fp,
        3 => PoolKind::Mem,
        _ => return Err(SnapshotError::Corrupt(format!("bad pool code {code}"))),
    })
}

fn category_from(code: u8) -> Result<OpCategory, SnapshotError> {
    Ok(match code {
        0 => OpCategory::MemHighLatency,
        1 => OpCategory::MemLowLatency,
        2 => OpCategory::Simd,
        3 => OpCategory::OtherMulti,
        4 => OpCategory::AluLowSlack,
        5 => OpCategory::AluHighSlack,
        6 => OpCategory::Control,
        _ => return Err(SnapshotError::Corrupt(format!("bad op category {code}"))),
    })
}

fn corrupt(msg: String) -> SnapshotError {
    SnapshotError::Corrupt(msg)
}

/// Fetch the traced op for `seq`, verifying the trace actually is the
/// one the snapshot was captured from.
fn op_at(trace: &[DynOp], seq: u64) -> Result<DynOp, SnapshotError> {
    usize::try_from(seq)
        .ok()
        .and_then(|i| trace.get(i))
        .filter(|op| op.seq == seq)
        .copied()
        .ok_or(SnapshotError::TraceMismatch { seq })
}

/// Apply `blob` onto a freshly built `state` (same config) and `sched`
/// (same mode/knobs), rehydrating in-flight ops from `trace`. Returns
/// the trace cursor: the caller resumes the run by feeding
/// `trace[cursor..]` to the simulation loop.
pub(crate) fn decode_into(
    state: &mut PipelineState,
    sched: &mut dyn Scheduler,
    blob: &[u8],
    trace: &[DynOp],
) -> Result<u64, SnapshotError> {
    // A wrong-file diagnosis beats a digest failure, so peek the magic
    // before the integrity check.
    if blob.len() >= MAGIC.len() && blob[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = SnapReader::checked(blob)?;
    if r.raw(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    if r.u64()? != config_digest(&state.config, sched.name()) {
        return Err(SnapshotError::ConfigMismatch);
    }

    // Section: core counters.
    state.cycle = r.u64()?;
    let base_seq = r.u64()?;
    state.next_seq = r.u64()?;
    state.committed_total = r.u64()?;
    state.dispatched_total = r.u64()?;
    state.rse_used = r.u32()?;
    state.lsq_used = r.u32()?;
    if state.next_seq != state.dispatched_total {
        return Err(corrupt(format!(
            "next_seq {} != dispatched_total {}",
            state.next_seq, state.dispatched_total
        )));
    }
    if !(base_seq <= state.committed_total && state.committed_total <= state.dispatched_total) {
        return Err(corrupt(format!(
            "window base {base_seq}, committed {} and dispatched {} are out of order",
            state.committed_total, state.dispatched_total
        )));
    }

    // Section: recalibration state.
    let bucket_count = state.lut.raw().len();
    if r.len()? != bucket_count {
        return Err(corrupt("slack LUT bucket count mismatch".to_owned()));
    }
    let mut raw = state.lut.raw();
    for slot in &mut raw {
        *slot = r.u32()?;
    }
    state.lut = SlackLut::from_raw(raw);
    state.pvt = PvtModel::import_state(PvtState {
        nominal_ps: r.u32()?,
        max_ps: r.u32()?,
        step_ps: r.u32()?,
        state: r.u64()?,
        current_epoch: r.u64()?,
        current_ps: r.u32()?,
    });

    // Section: rename table.
    if r.len()? != state.rat.len() {
        return Err(corrupt("rename table size mismatch".to_owned()));
    }
    for slot in &mut state.rat {
        *slot = r.opt_u64()?;
    }

    // Section: store-sequence index.
    state.store_seqs = VecDeque::from(r.u64_vec()?);

    // Section: fetch queue — ops rehydrated from the trace.
    let fetchq_len = r.len()?;
    let mut fetchq = VecDeque::with_capacity(fetchq_len);
    for i in 0..fetchq_len {
        let ready_cycle = r.u64()?;
        let op = op_at(trace, state.dispatched_total + i as u64)?;
        fetchq.push_back(Fetched { op, ready_cycle });
    }
    state.fetchq = fetchq;
    state.fetch_stopped = r.bool()?;
    state.pending_redirect = r.opt_u64()?;
    state.fetch_blocked_until = r.u64()?;

    // Section: functional-unit pools.
    for pool in [
        &mut state.alu,
        &mut state.simd,
        &mut state.fp,
        &mut state.mem_ports,
    ] {
        let free_at = r.u64_vec()?;
        pool.import_state(&free_at).map_err(corrupt)?;
    }

    // Section: the in-flight window. It must fit the ring bound and
    // cover exactly the seqs [base_seq, dispatched_total).
    let window = r.len()?;
    let bound = Window::bound(&state.config);
    if window > bound {
        return Err(corrupt(format!(
            "window of {window} entries exceeds the ring bound {bound}"
        )));
    }
    if window as u64 != state.dispatched_total - base_seq {
        return Err(corrupt(format!(
            "window of {window} entries does not span seqs {base_seq}..{}",
            state.dispatched_total
        )));
    }
    state.window.reset(base_seq);
    for seq in base_seq..state.dispatched_total {
        let op = op_at(trace, seq)?;
        state.window.push(decode_ifo(&mut r, op)?);
    }

    // Section: event-driven wakeup structures.
    let mut ready: [Vec<u64>; 4] = Default::default();
    for slot in &mut ready {
        *slot = r.u64_vec()?;
    }
    let wheel_slots = r.len()?;
    let mut wheel = Vec::with_capacity(wheel_slots);
    for _ in 0..wheel_slots {
        wheel.push(r.u64_vec()?);
    }
    let far_count = r.len()?;
    let mut far = Vec::with_capacity(far_count);
    for _ in 0..far_count {
        let cycle = r.u64()?;
        far.push((cycle, r.u64_vec()?));
    }
    state
        .wakeup
        .import_state(WakeupSnapshot { ready, wheel, far })
        .map_err(corrupt)?;

    // Section: predictors.
    let wp_count = r.len()?;
    let mut wp_entries = Vec::with_capacity(wp_count);
    for _ in 0..wp_count {
        let width = r.u8()?;
        let conf = r.u8()?;
        wp_entries.push((width, conf));
    }
    let wp_stats = WidthPredictorStats {
        predictions: r.u64()?,
        exact: r.u64()?,
        conservative: r.u64()?,
        aggressive: r.u64()?,
    };
    state
        .width_pred
        .import_state(&WidthPredState {
            entries: wp_entries,
            stats: wp_stats,
        })
        .map_err(corrupt)?;

    let tp_count = r.len()?;
    let mut tp_entries = Vec::with_capacity(tp_count);
    for _ in 0..tp_count {
        let last_is_src1 = r.bool()?;
        let conf = r.u8()?;
        tp_entries.push((last_is_src1, conf));
    }
    let tp_stats = TagPredStats {
        predictions: r.u64()?,
        mispredictions: r.u64()?,
    };
    state
        .tag_pred
        .import_state(&tp_entries, tp_stats)
        .map_err(corrupt)?;

    let gs = GshareState {
        bimodal: r.bytes()?.to_vec(),
        gshare: r.bytes()?.to_vec(),
        chooser: r.bytes()?.to_vec(),
        history: r.u64()?,
        stats: BranchStats {
            predictions: r.u64()?,
            mispredictions: r.u64()?,
        },
    };
    state.gshare.import_state(&gs).map_err(corrupt)?;

    // Section: memory model (opaque blob; the model validates its own
    // tag, geometry and structural limits).
    let mem_blob = r.bytes()?;
    state
        .memory
        .restore(mem_blob)
        .map_err(|e| corrupt(format!("memory state: {e}")))?;

    // Section: accumulated statistics.
    state.report = decode_report(&mut r)?;

    // Section: differential-testing mode flag.
    let scan = r.bool()?;
    #[cfg(feature = "scan-wakeup")]
    {
        state.scan_wakeup = scan;
    }
    #[cfg(not(feature = "scan-wakeup"))]
    if scan {
        return Err(corrupt(
            "snapshot used scan-wakeup mode, not enabled in this build".to_owned(),
        ));
    }

    // Section: scheduler-private state.
    let sched_blob = r.bytes()?;
    sched
        .restore(sched_blob)
        .map_err(|e| corrupt(format!("scheduler state: {e}")))?;

    if !r.exhausted() {
        return Err(corrupt("trailing bytes after final section".to_owned()));
    }
    Ok(state.dispatched_total + fetchq_len as u64)
}

fn decode_ifo(r: &mut SnapReader<'_>, op: DynOp) -> Result<Ifo, SnapshotError> {
    let class = exec_class_from(r.u8()?)?;
    let recyclable = r.bool()?;
    let pool = pool_from(r.u8()?)?;
    let n_srcs = r.len()?;
    if n_srcs > SrcTags::CAPACITY {
        return Err(corrupt(format!(
            "entry has {n_srcs} source tags; an instruction reads at most {}",
            SrcTags::CAPACITY
        )));
    }
    let mut srcs = SrcTags::default();
    for _ in 0..n_srcs {
        srcs.push(r.u64()?);
    }
    let pred_last = r.opt_u64()?;
    let gp_tag = r.opt_u64()?;
    let pred_pos = match r.u8()? {
        0 => None,
        flag @ 1..=3 => {
            let arrival = match flag {
                1 => None,
                2 => Some(LastArrival::Src0),
                _ => Some(LastArrival::Src1),
            };
            let i0 = usize::try_from(r.u64()?)
                .map_err(|_| corrupt("pred_pos index overflow".to_owned()))?;
            let i1 = usize::try_from(r.u64()?)
                .map_err(|_| corrupt("pred_pos index overflow".to_owned()))?;
            Some((arrival, i0, i1))
        }
        flag => return Err(corrupt(format!("bad pred_pos flag {flag}"))),
    };
    let ext_ticks = r.u64()?;
    let pred_width =
        WidthClass::from_code(r.u8()?).ok_or_else(|| corrupt("bad width class".to_owned()))?;
    let dst_arch = match r.u8()? {
        0 => None,
        1 => Some(
            ArchReg::from_index(r.u8()? as usize)
                .ok_or_else(|| corrupt("bad arch register index".to_owned()))?,
        ),
        flag => return Err(corrupt(format!("bad dst_arch flag {flag}"))),
    };
    Ok(Ifo {
        op,
        class,
        recyclable,
        pool,
        srcs,
        pred_last,
        gp_tag,
        pred_pos,
        ext_ticks,
        pred_width,
        dst_arch,
        earliest_req: r.u64()?,
        fallback: r.bool()?,
        issued: r.bool()?,
        issue_cycle: r.u64()?,
        sel_ready: r.u64()?,
        avail: r.u64()?,
        done_cycle: r.u64()?,
        transparent: r.bool()?,
        held_two: r.bool()?,
        chain_len: r.u32()?,
        chain_extended: r.bool()?,
        committed: r.bool()?,
        l1_miss: r.bool()?,
        mem_rejected: r.bool()?,
        waiters: r.u64_vec()?,
        in_ready: r.bool()?,
    })
}

fn decode_report(r: &mut SnapReader<'_>) -> Result<SimReport, SnapshotError> {
    let cycles = r.u64()?;
    let committed = r.u64()?;
    let cat_count = r.len()?;
    let mut counts = BTreeMap::new();
    for _ in 0..cat_count {
        let cat = category_from(r.u8()?)?;
        let n = r.u64()?;
        if counts.insert(cat, n).is_some() {
            return Err(corrupt("duplicate op-mix category".to_owned()));
        }
    }
    let len_count = r.len()?;
    let mut lengths = BTreeMap::new();
    for _ in 0..len_count {
        let len = r.u32()?;
        let n = r.u64()?;
        if lengths.insert(len, n).is_some() {
            return Err(corrupt("duplicate chain-length bucket".to_owned()));
        }
    }
    let mut report = SimReport {
        cycles,
        committed,
        op_mix: OpMix::from_counts(counts),
        chains: ChainStats::from_histogram(lengths),
        recycled_ops: r.u64()?,
        egpw_issues: r.u64()?,
        egpw_wasted: r.u64()?,
        gp_mispeculations: r.u64()?,
        fu_stall_cycles: r.u64()?,
        two_cycle_holds: r.u64()?,
        tag_pred: TagPredStats {
            predictions: r.u64()?,
            mispredictions: r.u64()?,
        },
        width_pred: WidthPredictorStats {
            predictions: r.u64()?,
            exact: r.u64()?,
            conservative: r.u64()?,
            aggressive: r.u64()?,
        },
        branch: BranchStats {
            predictions: r.u64()?,
            mispredictions: r.u64()?,
        },
        memory: HierarchyStats {
            l1_hits: r.u64()?,
            l2_hits: r.u64()?,
            mem_accesses: r.u64()?,
        },
        mem_contention: ContentionStats {
            mshr_rejects: r.u64()?,
            mshr_merges: r.u64()?,
            port_wait_cycles: r.u64()?,
            dram_wait_cycles: r.u64()?,
        },
        stl_forwards: r.u64()?,
        ..SimReport::default()
    };
    for cause in StallCause::all() {
        let n = r.u64()?;
        set_stall(&mut report, cause, n);
    }
    Ok(report)
}

fn set_stall(report: &mut SimReport, cause: StallCause, n: u64) {
    let slot = match cause {
        StallCause::Busy => &mut report.stalls.busy,
        StallCause::Frontend => &mut report.stalls.frontend,
        StallCause::RobFull => &mut report.stalls.rob_full,
        StallCause::RsFull => &mut report.stalls.rs_full,
        StallCause::LsqFull => &mut report.stalls.lsq_full,
        StallCause::FuContention => &mut report.stalls.fu_contention,
        StallCause::Memory => &mut report.stalls.memory,
        StallCause::SlackHold => &mut report.stalls.slack_hold,
        StallCause::ExecLatency => &mut report.stalls.exec_latency,
        StallCause::Mshr => &mut report.stalls.mshr,
    };
    *slot = n;
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use redsoc_isa::prelude::*;

    use crate::config::{CoreConfig, SchedulerConfig};
    use crate::events::NullSink;
    use crate::pipeline::snapshot::{fnv1a, SnapshotError};
    use crate::pipeline::state::{SrcTags, Window};
    use crate::pipeline::Simulator;

    fn config() -> CoreConfig {
        CoreConfig::small().with_sched(SchedulerConfig::baseline())
    }

    /// `n` independent single-cycle ops.
    fn trace(n: u64) -> Vec<DynOp> {
        (0..n)
            .map(|s| {
                let instr = Instr::Alu {
                    op: AluOp::Add,
                    dst: Some(r(1)),
                    src1: Some(r(2)),
                    op2: Operand2::Imm(1),
                    set_flags: false,
                };
                DynOp::simple(s, (s % 64) as u32 * 4, instr)
            })
            .collect()
    }

    /// A simulator with every op of `ops` dispatched straight into its
    /// window (white-box: `allocate` applies no ROB limit).
    fn dispatched(ops: &[DynOp]) -> Simulator {
        let mut sim = Simulator::new(config()).expect("valid config");
        for &op in ops {
            sim.state.allocate(&*sim.sched, op, &mut NullSink);
        }
        sim
    }

    /// Replace the one occurrence of `from` in `blob`'s payload with `to`
    /// and re-seal the digest, so decode gets past the integrity check.
    fn patched(blob: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        let payload = &blob[..blob.len() - 8];
        let hits: Vec<usize> = payload
            .windows(from.len())
            .enumerate()
            .filter(|(_, w)| *w == from)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits.len(), 1, "pattern must occur exactly once");
        let at = hits[0];
        let mut out = [&payload[..at], to, &payload[at + from.len()..]].concat();
        let digest = fnv1a(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    fn expect_corrupt(result: Result<(Simulator, u64), SnapshotError>, what: &str) {
        match result {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            Err(e) => panic!("expected Corrupt({what}), got {e:?}"),
            Ok(_) => panic!("expected Corrupt({what}), the restore succeeded"),
        }
    }

    #[test]
    fn window_longer_than_the_ring_bound_is_corrupt() {
        let bound = Window::bound(&config());
        let ops = trace(bound as u64 + 1);
        let at_bound = dispatched(&ops[..bound]).snapshot();
        assert!(Simulator::restore(config(), &at_bound, &ops).is_ok());
        let over = dispatched(&ops).snapshot();
        expect_corrupt(Simulator::restore(config(), &over, &ops), "ring bound");
    }

    #[test]
    fn more_than_four_source_tags_is_corrupt() {
        let ops = trace(4);
        let mut sim = dispatched(&ops);
        let tags: Vec<u64> = (1..=5).map(|i| 0x5EED_0000_0000_0000 | i).collect();
        let mut srcs = SrcTags::default();
        for &t in &tags[..SrcTags::CAPACITY] {
            srcs.push(t);
        }
        sim.state.ifo_mut(3).expect("in window").srcs = srcs;
        let blob = sim.snapshot();
        assert!(Simulator::restore(config(), &blob, &ops).is_ok());
        // The wire form of a tag list: a u32 count, then the tags.
        let wire = |tags: &[u64]| -> Vec<u8> {
            let mut b = (tags.len() as u32).to_le_bytes().to_vec();
            for t in tags {
                b.extend_from_slice(&t.to_le_bytes());
            }
            b
        };
        let five = patched(&blob, &wire(&tags[..4]), &wire(&tags));
        expect_corrupt(Simulator::restore(config(), &five, &ops), "source tags");
    }
}
