//! Pipeline observability: structured per-cycle events and pluggable sinks.
//!
//! The simulator is generic over an [`EventSink`]; every pipeline stage
//! emits [`PipeEvent`]s through it. The default [`NullSink`] has
//! `ENABLED == false`, so every emission site — including the event
//! construction itself — is guarded by a `const` and compiles away:
//! disabled runs are byte-identical to a build without the layer and make
//! no allocations for it.
//!
//! Shipped sinks:
//!
//! - [`NullSink`] — zero-cost default;
//! - [`VecSink`] — collects every event in memory (tests, analysis);
//! - [`RingSink`] — bounded ring of the most recent events, with
//!   run-length compression of repeated stall cycles; the deadlock
//!   watchdog dumps it into [`SimError::Deadlock`](crate::pipeline::SimError);
//! - [`JsonlSink`] — one JSON object per line to any `io::Write`
//!   (`redsoc trace --format jsonl`);
//! - [`ChromeTraceSink`] — a Chrome `trace_event` document loadable in
//!   `chrome://tracing` / Perfetto, with one track per pipeline stage and
//!   one per functional unit (`redsoc trace --format chrome`).
//!
//! Timestamps are CI *ticks* (`ticks_per_cycle` per clock cycle), so
//! sub-cycle behaviour — transparent mid-cycle starts, completion
//! instants, two-cycle holds — is visible at full resolution.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write;

use crate::fu::PoolKind;
use crate::stats::StallCause;

/// One structured pipeline event. `seq` is the dynamic instruction number
/// (the trace order), `pc` the static instruction address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeEvent {
    /// Instruction entered the fetch queue.
    Fetch {
        /// Dynamic instruction number.
        seq: u64,
        /// Static instruction address.
        pc: u32,
    },
    /// Instruction renamed and allocated into ROB + RSE (and LSQ if a
    /// memory op).
    Dispatch {
        /// Dynamic instruction number.
        seq: u64,
        /// Static instruction address.
        pc: u32,
        /// Functional-unit pool the op will issue to.
        pool: PoolKind,
    },
    /// Select granted this entry an issue slot this cycle.
    SelectGrant {
        /// Dynamic instruction number.
        seq: u64,
        /// Grandparent-speculative grant (eager grandparent wakeup).
        spec: bool,
    },
    /// Issue succeeded: the op is bound to a functional unit.
    Issue {
        /// Dynamic instruction number.
        seq: u64,
        /// Functional-unit pool.
        pool: PoolKind,
        /// Unit index within the pool.
        unit: u32,
        /// Evaluation start in CI ticks (mid-cycle when transparent).
        start_tick: u64,
        /// Completion instant in CI ticks (the CI-bus broadcast value).
        avail_tick: u64,
        /// FU occupancy in cycles (2 = boundary-crossing transparent hold).
        occupancy: u32,
        /// Evaluation began mid-cycle on recycled slack.
        transparent: bool,
        /// Issued off a grandparent-speculative grant.
        spec: bool,
    },
    /// Last-arrival tag misprediction detected at issue; the entry falls
    /// back to all-operand wakeup after a penalty.
    TagMispredict {
        /// Dynamic instruction number.
        seq: u64,
        /// First cycle the entry may request selection again.
        retry_cycle: u64,
    },
    /// Grandparent mispeculation: the child was selected ahead of its
    /// parent (possible only with skewed selection disabled).
    GpMispeculation {
        /// Dynamic instruction number.
        seq: u64,
        /// First cycle the entry may request selection again.
        retry_cycle: u64,
    },
    /// A grandparent-speculative grant was consumed without issuing (no
    /// recyclable slack, or the parent did not issue this cycle).
    SpecWasted {
        /// Dynamic instruction number.
        seq: u64,
    },
    /// Completion-Instant broadcast on the CI bus (sub-cycle resolution).
    CiBroadcast {
        /// Dynamic instruction number of the producer.
        seq: u64,
        /// Broadcast completion instant in CI ticks.
        avail_tick: u64,
    },
    /// Result available to the in-order retire stage (emitted at retire,
    /// stamped with the recorded completion cycle).
    Writeback {
        /// Dynamic instruction number.
        seq: u64,
        /// Cycle the result became retirable.
        done_cycle: u64,
    },
    /// Instruction retired in program order.
    Commit {
        /// Dynamic instruction number.
        seq: u64,
        /// Static instruction address.
        pc: u32,
    },
    /// Front-end flush: fetch resumed after a mispredicted branch
    /// resolved.
    FetchRedirect {
        /// Dynamic instruction number of the mispredicted branch.
        seq: u64,
        /// Cycle fetch resumes.
        resume_cycle: u64,
    },
    /// A cycle that retired nothing, attributed to exactly one cause (the
    /// stall-attribution partition).
    StallCycle {
        /// The attributed stall cause.
        cause: StallCause,
    },
    /// The memory model structurally rejected a load at issue (every MSHR
    /// busy with a different line); the entry parks until `retry_cycle`.
    MemReject {
        /// Dynamic instruction number.
        seq: u64,
        /// First cycle the entry may request selection again.
        retry_cycle: u64,
    },
    /// An accepted memory request experienced contention: it merged into
    /// an outstanding same-line miss and/or waited on ports or DRAM
    /// bandwidth. Never emitted by the classic model.
    MemContention {
        /// Dynamic instruction number.
        seq: u64,
        /// Merged into an already-outstanding miss to the same line.
        merged: bool,
        /// Cycles spent waiting for a cache access port.
        port_wait: u64,
        /// Cycles spent queued for DRAM bandwidth.
        queue_wait: u64,
    },
    /// A load was satisfied by store-to-load forwarding from an older
    /// in-flight store instead of the cache hierarchy.
    StoreForward {
        /// Dynamic instruction number of the load.
        seq: u64,
        /// Dynamic instruction number of the forwarding store.
        store_seq: u64,
    },
}

impl PipeEvent {
    /// Machine-readable event-type label (the JSONL `event` field).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PipeEvent::Fetch { .. } => "fetch",
            PipeEvent::Dispatch { .. } => "dispatch",
            PipeEvent::SelectGrant { .. } => "select_grant",
            PipeEvent::Issue { .. } => "issue",
            PipeEvent::TagMispredict { .. } => "tag_mispredict",
            PipeEvent::GpMispeculation { .. } => "gp_mispeculation",
            PipeEvent::SpecWasted { .. } => "spec_wasted",
            PipeEvent::CiBroadcast { .. } => "ci_broadcast",
            PipeEvent::Writeback { .. } => "writeback",
            PipeEvent::Commit { .. } => "commit",
            PipeEvent::FetchRedirect { .. } => "fetch_redirect",
            PipeEvent::StallCycle { .. } => "stall_cycle",
            PipeEvent::MemReject { .. } => "mem_reject",
            PipeEvent::MemContention { .. } => "mem_contention",
            PipeEvent::StoreForward { .. } => "store_forward",
        }
    }
}

/// Receiver of pipeline events. Implementations must be cheap: the
/// simulator calls [`EventSink::record`] from its hottest loops.
pub trait EventSink {
    /// Statically `false` only for [`NullSink`]: every emission site is
    /// guarded by this constant, so disabled runs pay nothing — not even
    /// event construction.
    const ENABLED: bool = true;

    /// Record one event observed during `cycle`.
    fn record(&mut self, cycle: u64, ev: &PipeEvent);

    /// Human-readable dump of the most recent events, oldest first. Sinks
    /// without retention return an empty vector. Used by the deadlock
    /// watchdog to attach a diagnostic to the error.
    fn recent(&self) -> Vec<String> {
        Vec::new()
    }
}

/// The zero-cost default sink: records nothing, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl EventSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _cycle: u64, _ev: &PipeEvent) {}
}

/// Collects every event in memory. Unbounded — tests and short traces
/// only.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// All recorded `(cycle, event)` pairs, in emission order.
    pub events: Vec<(u64, PipeEvent)>,
}

impl VecSink {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        VecSink::default()
    }
}

impl EventSink for VecSink {
    fn record(&mut self, cycle: u64, ev: &PipeEvent) {
        self.events.push((cycle, *ev));
    }

    /// The last [`RingSink::DEFAULT_CAP`] events.
    fn recent(&self) -> Vec<String> {
        let skip = self.events.len().saturating_sub(RingSink::DEFAULT_CAP);
        self.events[skip..]
            .iter()
            .map(|(c, e)| format!("cycle {c}: {e:?}"))
            .collect()
    }
}

/// One retained entry of a [`RingSink`]: a run of `repeat` identical
/// events spanning `first_cycle..=last_cycle`.
#[derive(Debug, Clone, Copy)]
struct RingEntry {
    first_cycle: u64,
    last_cycle: u64,
    repeat: u64,
    ev: PipeEvent,
}

/// Bounded ring of the most recent events. Consecutive identical stall
/// cycles collapse into one run-length entry, so a long stall cannot flush
/// the pipeline activity that led into it out of the window.
#[derive(Debug, Clone)]
pub struct RingSink {
    cap: usize,
    entries: VecDeque<RingEntry>,
}

impl RingSink {
    /// Default retention used by the CLI (`redsoc run`).
    pub const DEFAULT_CAP: usize = 256;

    /// A ring retaining at most `cap` entries (`cap >= 1`; clamped).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            entries: VecDeque::new(),
        }
    }
}

impl EventSink for RingSink {
    fn record(&mut self, cycle: u64, ev: &PipeEvent) {
        if let (PipeEvent::StallCycle { cause }, Some(last)) = (ev, self.entries.back_mut()) {
            if let PipeEvent::StallCycle { cause: prev } = last.ev {
                if prev == *cause {
                    last.last_cycle = cycle;
                    last.repeat += 1;
                    return;
                }
            }
        }
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back(RingEntry {
            first_cycle: cycle,
            last_cycle: cycle,
            repeat: 1,
            ev: *ev,
        });
    }

    fn recent(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| {
                if e.repeat == 1 {
                    format!("cycle {}: {:?}", e.first_cycle, e.ev)
                } else {
                    format!(
                        "cycles {}..={}: {:?} x{}",
                        e.first_cycle, e.last_cycle, e.ev, e.repeat
                    )
                }
            })
            .collect()
    }
}

/// Streams one JSON object per event line to any writer (the `jsonl`
/// format of `redsoc trace`). Field names are stable schema: every line
/// carries `cycle` and `event`, plus the per-variant payload documented in
/// `EXPERIMENTS.md`.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    buf: String,
    lines: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Stream events to `out` (wrap files in `BufWriter`).
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            buf: String::with_capacity(160),
            lines: 0,
        }
    }

    /// Lines written so far.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush and return the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if the final flush fails.
    #[allow(clippy::expect_used)] // documented panic: a sink cannot return I/O errors
    pub fn finish(mut self) -> W {
        self.out.flush().expect("event sink flush");
        self.out
    }
}

/// Render one event as a single JSONL line (no trailing newline).
fn jsonl_line(buf: &mut String, cycle: u64, ev: &PipeEvent) {
    buf.clear();
    let _ = write!(buf, "{{\"cycle\":{cycle},\"event\":\"{}\"", ev.label());
    match *ev {
        PipeEvent::Fetch { seq, pc } => {
            let _ = write!(buf, ",\"seq\":{seq},\"pc\":{pc}");
        }
        PipeEvent::Dispatch { seq, pc, pool } => {
            let _ = write!(
                buf,
                ",\"seq\":{seq},\"pc\":{pc},\"pool\":\"{}\"",
                pool.label()
            );
        }
        PipeEvent::SelectGrant { seq, spec } => {
            let _ = write!(buf, ",\"seq\":{seq},\"spec\":{spec}");
        }
        PipeEvent::Issue {
            seq,
            pool,
            unit,
            start_tick,
            avail_tick,
            occupancy,
            transparent,
            spec,
        } => {
            let _ = write!(
                buf,
                ",\"seq\":{seq},\"pool\":\"{}\",\"unit\":{unit},\"start_tick\":{start_tick},\
                 \"avail_tick\":{avail_tick},\"occupancy\":{occupancy},\
                 \"transparent\":{transparent},\"spec\":{spec}",
                pool.label()
            );
        }
        PipeEvent::TagMispredict { seq, retry_cycle }
        | PipeEvent::GpMispeculation { seq, retry_cycle } => {
            let _ = write!(buf, ",\"seq\":{seq},\"retry_cycle\":{retry_cycle}");
        }
        PipeEvent::SpecWasted { seq } => {
            let _ = write!(buf, ",\"seq\":{seq}");
        }
        PipeEvent::CiBroadcast { seq, avail_tick } => {
            let _ = write!(buf, ",\"seq\":{seq},\"avail_tick\":{avail_tick}");
        }
        PipeEvent::Writeback { seq, done_cycle } => {
            let _ = write!(buf, ",\"seq\":{seq},\"done_cycle\":{done_cycle}");
        }
        PipeEvent::Commit { seq, pc } => {
            let _ = write!(buf, ",\"seq\":{seq},\"pc\":{pc}");
        }
        PipeEvent::FetchRedirect { seq, resume_cycle } => {
            let _ = write!(buf, ",\"seq\":{seq},\"resume_cycle\":{resume_cycle}");
        }
        PipeEvent::StallCycle { cause } => {
            let _ = write!(buf, ",\"cause\":\"{}\"", cause.label());
        }
        PipeEvent::MemReject { seq, retry_cycle } => {
            let _ = write!(buf, ",\"seq\":{seq},\"retry_cycle\":{retry_cycle}");
        }
        PipeEvent::MemContention {
            seq,
            merged,
            port_wait,
            queue_wait,
        } => {
            let _ = write!(
                buf,
                ",\"seq\":{seq},\"merged\":{merged},\"port_wait\":{port_wait},\
                 \"queue_wait\":{queue_wait}"
            );
        }
        PipeEvent::StoreForward { seq, store_seq } => {
            let _ = write!(buf, ",\"seq\":{seq},\"store_seq\":{store_seq}");
        }
    }
    buf.push('}');
}

impl<W: Write> EventSink for JsonlSink<W> {
    // `EventSink::record` has no error channel (the per-cycle hot path
    // stays Result-free); a failed trace write aborts loudly rather than
    // silently dropping events.
    #[allow(clippy::expect_used)]
    fn record(&mut self, cycle: u64, ev: &PipeEvent) {
        jsonl_line(&mut self.buf, cycle, ev);
        self.buf.push('\n');
        self.out
            .write_all(self.buf.as_bytes())
            .expect("event sink write");
        self.lines += 1;
    }
}

/// Track (thread) ids of the Chrome trace: fixed per pipeline stage, one
/// per functional unit.
mod chrome_tid {
    use crate::fu::PoolKind;

    pub const FETCH: u32 = 0;
    pub const DISPATCH: u32 = 1;
    pub const SELECT: u32 = 2;
    pub const ISSUE: u32 = 3;
    pub const CI_BUS: u32 = 4;
    pub const WRITEBACK: u32 = 5;
    pub const COMMIT: u32 = 6;
    pub const STALL: u32 = 7;

    /// Stage tracks, in display order.
    pub const STAGES: [(u32, &str); 8] = [
        (FETCH, "stage: fetch"),
        (DISPATCH, "stage: dispatch"),
        (SELECT, "stage: select"),
        (ISSUE, "stage: issue"),
        (CI_BUS, "stage: ci-bus"),
        (WRITEBACK, "stage: writeback"),
        (COMMIT, "stage: commit"),
        (STALL, "stall attribution"),
    ];

    /// The track of unit `unit` in `pool` (30 slots reserved per pool).
    pub fn fu(pool: PoolKind, unit: u32) -> u32 {
        let base = match pool {
            PoolKind::Alu => 100,
            PoolKind::Simd => 130,
            PoolKind::Fp => 160,
            PoolKind::Mem => 190,
        };
        base + unit.min(29)
    }
}

/// Emits the Chrome `trace_event` format (JSON object with a
/// `traceEvents` array), loadable in `chrome://tracing` or Perfetto.
///
/// Timestamps are CI ticks mapped to microseconds (1 tick = 1 "µs"), so
/// one clock cycle spans `ticks_per_cycle` units and transparent mid-cycle
/// starts are visible. Execution spans render on one track per functional
/// unit; fetch/dispatch/select/commit render as instants on per-stage
/// tracks; stall-attributed cycles render as a labelled band.
#[derive(Debug, Clone)]
pub struct ChromeTraceSink {
    tpc: u64,
    rows: Vec<String>,
    named_fus: Vec<u32>,
}

impl ChromeTraceSink {
    /// A sink for a machine with `ticks_per_cycle` CI ticks per cycle
    /// (`SchedulerConfig::quant().ticks_per_cycle()`).
    #[must_use]
    pub fn new(ticks_per_cycle: u64) -> Self {
        let mut sink = ChromeTraceSink {
            tpc: ticks_per_cycle.max(1),
            rows: Vec::new(),
            named_fus: Vec::new(),
        };
        for (tid, name) in chrome_tid::STAGES {
            sink.name_track(tid, name);
        }
        sink
    }

    fn name_track(&mut self, tid: u32, name: &str) {
        self.rows.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
        self.rows.push(format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"sort_index\":{tid}}}}}"
        ));
    }

    fn instant(&mut self, tid: u32, ts: u64, name: &str) {
        self.rows.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{tid}}}"
        ));
    }

    fn span(&mut self, tid: u32, ts: u64, dur: u64, name: &str, args: &str) {
        self.rows.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
             \"pid\":0,\"tid\":{tid},\"args\":{{{args}}}}}"
        ));
    }

    /// Number of trace rows emitted so far (metadata included).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Serialise the complete `chrome://tracing` document.
    #[must_use]
    pub fn finish(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(row);
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

impl EventSink for ChromeTraceSink {
    fn record(&mut self, cycle: u64, ev: &PipeEvent) {
        let cyc_ts = cycle * self.tpc;
        match *ev {
            PipeEvent::Fetch { seq, .. } => {
                self.instant(chrome_tid::FETCH, cyc_ts, &format!("fetch #{seq}"));
            }
            PipeEvent::Dispatch { seq, pool, .. } => {
                self.instant(
                    chrome_tid::DISPATCH,
                    cyc_ts,
                    &format!("dispatch #{seq} ({})", pool.label()),
                );
            }
            PipeEvent::SelectGrant { seq, spec } => {
                let tag = if spec { " spec" } else { "" };
                self.instant(chrome_tid::SELECT, cyc_ts, &format!("grant #{seq}{tag}"));
            }
            PipeEvent::Issue {
                seq,
                pool,
                unit,
                start_tick,
                avail_tick,
                occupancy,
                transparent,
                spec,
            } => {
                let tid = chrome_tid::fu(pool, unit);
                if !self.named_fus.contains(&tid) {
                    self.named_fus.push(tid);
                    self.name_track(tid, &format!("{}{unit}", pool.label()));
                }
                let dur = avail_tick.saturating_sub(start_tick).max(1);
                let args = format!(
                    "\"occupancy\":{occupancy},\"transparent\":{transparent},\"spec\":{spec}"
                );
                self.span(tid, start_tick, dur, &format!("#{seq}"), &args);
                self.instant(chrome_tid::ISSUE, cyc_ts, &format!("issue #{seq}"));
            }
            PipeEvent::TagMispredict { seq, .. } => {
                self.instant(chrome_tid::ISSUE, cyc_ts, &format!("tag-mispredict #{seq}"));
            }
            PipeEvent::GpMispeculation { seq, .. } => {
                self.instant(chrome_tid::ISSUE, cyc_ts, &format!("gp-mispec #{seq}"));
            }
            PipeEvent::SpecWasted { seq } => {
                self.instant(chrome_tid::ISSUE, cyc_ts, &format!("spec-wasted #{seq}"));
            }
            PipeEvent::CiBroadcast { seq, avail_tick } => {
                self.instant(chrome_tid::CI_BUS, avail_tick, &format!("CI #{seq}"));
            }
            PipeEvent::Writeback { seq, done_cycle } => {
                self.instant(
                    chrome_tid::WRITEBACK,
                    done_cycle * self.tpc,
                    &format!("writeback #{seq}"),
                );
            }
            PipeEvent::Commit { seq, .. } => {
                self.instant(chrome_tid::COMMIT, cyc_ts, &format!("commit #{seq}"));
            }
            PipeEvent::FetchRedirect { seq, resume_cycle } => {
                let dur = resume_cycle.saturating_sub(cycle).max(1) * self.tpc;
                self.span(
                    chrome_tid::FETCH,
                    cyc_ts,
                    dur,
                    &format!("redirect #{seq}"),
                    "",
                );
            }
            PipeEvent::StallCycle { cause } => {
                self.span(chrome_tid::STALL, cyc_ts, self.tpc, cause.label(), "");
            }
            PipeEvent::MemReject { seq, .. } => {
                self.instant(chrome_tid::ISSUE, cyc_ts, &format!("mem-reject #{seq}"));
            }
            PipeEvent::MemContention { seq, .. } => {
                self.instant(chrome_tid::ISSUE, cyc_ts, &format!("mem-contention #{seq}"));
            }
            PipeEvent::StoreForward { seq, store_seq } => {
                self.instant(
                    chrome_tid::ISSUE,
                    cyc_ts,
                    &format!("stl-forward #{seq}<-#{store_seq}"),
                );
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample_issue() -> PipeEvent {
        PipeEvent::Issue {
            seq: 7,
            pool: PoolKind::Alu,
            unit: 2,
            start_tick: 83,
            avail_tick: 86,
            occupancy: 1,
            transparent: true,
            spec: false,
        }
    }

    #[test]
    fn null_sink_is_statically_disabled() {
        const { assert!(!NullSink::ENABLED) };
        const { assert!(VecSink::ENABLED) };
        let mut s = NullSink;
        s.record(0, &sample_issue());
        assert!(s.recent().is_empty());
    }

    #[test]
    fn jsonl_lines_are_valid_single_objects() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(10, &sample_issue());
        sink.record(
            11,
            &PipeEvent::StallCycle {
                cause: StallCause::Memory,
            },
        );
        assert_eq!(sink.lines(), 2);
        let bytes = sink.finish();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"cycle\":10,\"event\":\"issue\""));
        assert!(lines[0].contains("\"transparent\":true"));
        assert!(lines[1].contains("\"cause\":\"memory\""));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn ring_sink_compresses_stall_runs_and_bounds_entries() {
        let mut ring = RingSink::new(4);
        ring.record(0, &sample_issue());
        for c in 1..=1000 {
            ring.record(
                c,
                &PipeEvent::StallCycle {
                    cause: StallCause::Frontend,
                },
            );
        }
        let dump = ring.recent();
        assert_eq!(dump.len(), 2, "stall run must collapse: {dump:?}");
        assert!(dump[0].contains("Issue"), "activity retained: {dump:?}");
        assert!(dump[1].contains("x1000"), "run length recorded: {dump:?}");
        // Distinct events still rotate out beyond the cap.
        for s in 0..10u64 {
            ring.record(2000 + s, &PipeEvent::Commit { seq: s, pc: 0 });
        }
        assert_eq!(ring.recent().len(), 4);
    }

    #[test]
    fn chrome_trace_has_stage_and_fu_tracks() {
        let mut sink = ChromeTraceSink::new(8);
        sink.record(10, &sample_issue());
        sink.record(11, &PipeEvent::Commit { seq: 7, pc: 0x40 });
        let doc = sink.finish();
        assert!(doc.starts_with('{') && doc.trim_end().ends_with('}'));
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("stage: commit"));
        assert!(doc.contains("\"alu2\""), "per-FU track named: {doc}");
        assert!(doc.contains("\"ph\":\"X\""), "execution span present");
    }
}
