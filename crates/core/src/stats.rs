//! Simulation statistics: the measurements behind Figs. 10–15.

use std::collections::BTreeMap;

use redsoc_isa::instruction::Instr;
use redsoc_isa::opcode::ExecClass;
use redsoc_timing::optime::CYCLE_PS;
use redsoc_timing::slack::{SlackBucket, SlackLut, WidthClass};

use crate::branch::BranchStats;
use crate::tag_pred::TagPredStats;
use redsoc_mem::{ContentionStats, HierarchyStats};
use redsoc_timing::width_predictor::WidthPredictorStats;

/// Fig. 10's operation categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpCategory {
    /// Memory op that missed the L1 ("high latency").
    MemHighLatency,
    /// Memory op serviced by the L1.
    MemLowLatency,
    /// SIMD operation.
    Simd,
    /// Other multi-cycle ops (FP, integer multiply/divide).
    OtherMulti,
    /// Single-cycle ALU op with low data slack (≤ 20% of the clock).
    AluLowSlack,
    /// Single-cycle ALU op with high data slack (> 20% of the clock).
    AluHighSlack,
    /// Control flow (branches; excluded from Fig. 10's distribution).
    Control,
}

impl OpCategory {
    /// Fig. 10 display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpCategory::MemHighLatency => "MEM-HL",
            OpCategory::MemLowLatency => "MEM-LL",
            OpCategory::Simd => "SIMD",
            OpCategory::OtherMulti => "OtherMulti",
            OpCategory::AluLowSlack => "ALU-LS",
            OpCategory::AluHighSlack => "ALU-HS",
            OpCategory::Control => "CTRL",
        }
    }

    /// Classify a committed instruction. `l1_miss` applies to memory ops;
    /// `actual_width` to scalar ALU ops (high slack means the operation's
    /// slack bucket leaves > 20% of the clock unused — the paper's ALU-HS
    /// definition).
    #[must_use]
    #[allow(clippy::expect_used)] // SlackBucket covers every IntAlu op by construction
    pub fn classify(
        instr: &Instr,
        l1_miss: bool,
        actual_width: WidthClass,
        lut: &SlackLut,
    ) -> Self {
        match instr.exec_class() {
            ExecClass::Load | ExecClass::Store => {
                if l1_miss {
                    OpCategory::MemHighLatency
                } else {
                    OpCategory::MemLowLatency
                }
            }
            ExecClass::SimdAlu | ExecClass::SimdMul => OpCategory::Simd,
            ExecClass::Fp | ExecClass::IntMul | ExecClass::IntDiv => OpCategory::OtherMulti,
            ExecClass::Branch => OpCategory::Control,
            ExecClass::IntAlu => {
                let bucket =
                    SlackBucket::classify(instr, actual_width).expect("IntAlu ops always classify");
                if lut.slack_ps(bucket) * 5 > CYCLE_PS {
                    OpCategory::AluHighSlack
                } else {
                    OpCategory::AluLowSlack
                }
            }
        }
    }
}

/// Operation-mix histogram (Fig. 10).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpMix {
    counts: BTreeMap<OpCategory, u64>,
}

impl OpMix {
    /// Record one committed instruction.
    pub fn record(&mut self, cat: OpCategory) {
        *self.counts.entry(cat).or_insert(0) += 1;
    }

    /// Count of one category.
    #[must_use]
    pub fn count(&self, cat: OpCategory) -> u64 {
        self.counts.get(&cat).copied().unwrap_or(0)
    }

    /// Total instructions recorded (excluding control flow, matching the
    /// paper's Fig. 10 which plots the compute/memory distribution).
    #[must_use]
    pub fn total_non_control(&self) -> u64 {
        self.counts
            .iter()
            .filter(|(c, _)| **c != OpCategory::Control)
            .map(|(_, n)| n)
            .sum()
    }

    /// Fraction of a category among non-control instructions, in [0, 1].
    #[must_use]
    pub fn fraction(&self, cat: OpCategory) -> f64 {
        let t = self.total_non_control();
        if t == 0 {
            0.0
        } else {
            self.count(cat) as f64 / t as f64
        }
    }
}

/// Transparent-sequence length statistics (Fig. 11).
///
/// A transparent sequence is a maximal chain of single-cycle operations in
/// which each consumer began evaluating at its producer's (mid-cycle)
/// completion instant. Fig. 11 reports the expected value (weighted mean)
/// of sequence length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Histogram: sequence length → number of sequences.
    lengths: BTreeMap<u32, u64>,
}

impl ChainStats {
    /// Record a completed transparent sequence of `len` operations
    /// (`len >= 2`; single ops never left the boundary grid).
    pub fn record(&mut self, len: u32) {
        if len >= 2 {
            *self.lengths.entry(len).or_insert(0) += 1;
        }
    }

    /// Number of sequences recorded.
    #[must_use]
    pub fn sequences(&self) -> u64 {
        self.lengths.values().sum()
    }

    /// Simple mean sequence length.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.sequences();
        if n == 0 {
            return 0.0;
        }
        let total: u64 = self.lengths.iter().map(|(l, c)| u64::from(*l) * c).sum();
        total as f64 / n as f64
    }

    /// Length-weighted mean (the expected sequence length seen by a random
    /// operation inside a sequence) — the Fig. 11 metric.
    #[must_use]
    pub fn weighted_mean(&self) -> f64 {
        let weight: u64 = self.lengths.iter().map(|(l, c)| u64::from(*l) * c).sum();
        if weight == 0 {
            return 0.0;
        }
        let sq: u64 = self
            .lengths
            .iter()
            .map(|(l, c)| u64::from(*l) * u64::from(*l) * c)
            .sum();
        sq as f64 / weight as f64
    }

    /// The raw histogram.
    #[must_use]
    pub fn histogram(&self) -> &BTreeMap<u32, u64> {
        &self.lengths
    }
}

/// The cause a non-retiring cycle is attributed to. Exactly one cause is
/// charged per simulated cycle (retiring cycles are charged to `Busy`), so
/// the per-cause counters in [`StallBreakdown`] partition total cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StallCause {
    /// At least one instruction retired this cycle.
    Busy,
    /// ROB empty (or only just-fetched work): the front end is not
    /// supplying instructions — fetch redirects, drained trace tail.
    Frontend,
    /// Dispatch blocked because the reorder buffer is full.
    RobFull,
    /// Dispatch blocked because the reservation stations are full.
    RsFull,
    /// Dispatch blocked because the load/store queue is full.
    LsqFull,
    /// The ROB head is ready but was denied issue by a busy FU pool.
    FuContention,
    /// The ROB head is waiting on the memory hierarchy (issued load/store
    /// in flight, or a load blocked on an older unresolved store).
    Memory,
    /// The ROB head issued transparently and is holding its FU across a
    /// clock boundary (the two-cycle hold of boundary-crossing recycled
    /// evaluation, IT3).
    SlackHold,
    /// The ROB head is mid-execution on a multi-cycle non-memory op, or
    /// otherwise waiting on operands to arrive.
    ExecLatency,
    /// The ROB head is a load the memory model structurally rejected
    /// (every MSHR busy with a different line); it is parked until the
    /// model's retry horizon. Only the contended model produces this.
    Mshr,
}

impl StallCause {
    /// Every cause, in display order.
    #[must_use]
    pub fn all() -> [StallCause; 10] {
        [
            StallCause::Busy,
            StallCause::Frontend,
            StallCause::RobFull,
            StallCause::RsFull,
            StallCause::LsqFull,
            StallCause::FuContention,
            StallCause::Memory,
            StallCause::SlackHold,
            StallCause::ExecLatency,
            StallCause::Mshr,
        ]
    }

    /// Stable machine-readable label (JSONL `cause` field, sweep JSON
    /// key).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StallCause::Busy => "busy",
            StallCause::Frontend => "frontend",
            StallCause::RobFull => "rob_full",
            StallCause::RsFull => "rs_full",
            StallCause::LsqFull => "lsq_full",
            StallCause::FuContention => "fu_contention",
            StallCause::Memory => "memory",
            StallCause::SlackHold => "slack_hold",
            StallCause::ExecLatency => "exec_latency",
            StallCause::Mshr => "mshr",
        }
    }
}

/// Per-cause cycle counters. The simulator charges exactly one cause per
/// cycle, so [`StallBreakdown::total`] equals [`SimReport::cycles`] — the
/// partition invariant the grid property test enforces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles in which at least one instruction retired.
    pub busy: u64,
    /// Cycles stalled on instruction supply.
    pub frontend: u64,
    /// Cycles stalled on a full reorder buffer.
    pub rob_full: u64,
    /// Cycles stalled on full reservation stations.
    pub rs_full: u64,
    /// Cycles stalled on a full load/store queue.
    pub lsq_full: u64,
    /// Cycles stalled on functional-unit contention.
    pub fu_contention: u64,
    /// Cycles stalled on the memory hierarchy.
    pub memory: u64,
    /// Cycles stalled on a boundary-crossing transparent FU hold.
    pub slack_hold: u64,
    /// Cycles stalled on multi-cycle execution / operand arrival.
    pub exec_latency: u64,
    /// Cycles stalled on a structurally rejected load (MSHRs full).
    pub mshr: u64,
}

impl StallBreakdown {
    /// Charge one cycle to `cause`.
    pub fn bump(&mut self, cause: StallCause) {
        *self.slot(cause) += 1;
    }

    fn slot(&mut self, cause: StallCause) -> &mut u64 {
        match cause {
            StallCause::Busy => &mut self.busy,
            StallCause::Frontend => &mut self.frontend,
            StallCause::RobFull => &mut self.rob_full,
            StallCause::RsFull => &mut self.rs_full,
            StallCause::LsqFull => &mut self.lsq_full,
            StallCause::FuContention => &mut self.fu_contention,
            StallCause::Memory => &mut self.memory,
            StallCause::SlackHold => &mut self.slack_hold,
            StallCause::ExecLatency => &mut self.exec_latency,
            StallCause::Mshr => &mut self.mshr,
        }
    }

    /// Counter for one cause.
    #[must_use]
    pub fn count(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::Busy => self.busy,
            StallCause::Frontend => self.frontend,
            StallCause::RobFull => self.rob_full,
            StallCause::RsFull => self.rs_full,
            StallCause::LsqFull => self.lsq_full,
            StallCause::FuContention => self.fu_contention,
            StallCause::Memory => self.memory,
            StallCause::SlackHold => self.slack_hold,
            StallCause::ExecLatency => self.exec_latency,
            StallCause::Mshr => self.mshr,
        }
    }

    /// Sum over all causes — equals total simulated cycles by
    /// construction.
    #[must_use]
    pub fn total(&self) -> u64 {
        StallCause::all().iter().map(|&c| self.count(c)).sum()
    }
}

/// Full simulation report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Fig. 10 operation mix.
    pub op_mix: OpMix,
    /// Fig. 11 transparent-sequence statistics.
    pub chains: ChainStats,
    /// Operations that began evaluating mid-cycle (recycled some slack).
    pub recycled_ops: u64,
    /// Eager-grandparent issues granted and used.
    pub egpw_issues: u64,
    /// Grandparent-speculative grants wasted (granted without recyclable
    /// slack, §IV-D motivation 1).
    pub egpw_wasted: u64,
    /// GP-mispeculations (child selected without its parent; only possible
    /// with skewed selection disabled).
    pub gp_mispeculations: u64,
    /// Cycles in which at least one ready instruction was denied issue
    /// because its FU class was fully busy (Fig. 14 numerator).
    pub fu_stall_cycles: u64,
    /// Instructions that held their FU for two cycles (boundary-crossing
    /// transparent execution, IT3).
    pub two_cycle_holds: u64,
    /// Last-arrival tag predictor results (Fig. 12).
    pub tag_pred: TagPredStats,
    /// Data-width predictor results (§II-B).
    pub width_pred: WidthPredictorStats,
    /// Branch predictor results.
    pub branch: BranchStats,
    /// Memory hierarchy results.
    pub memory: HierarchyStats,
    /// Memory-model contention counters (MSHR rejects/merges, port and
    /// DRAM queue waits). All zero under the classic model.
    pub mem_contention: ContentionStats,
    /// Loads whose value came from an older in-flight store (store-to-
    /// load forwarding) rather than the cache hierarchy.
    pub stl_forwards: u64,
    /// Per-cycle stall attribution; `stalls.total() == cycles` always.
    pub stalls: StallBreakdown,
}

impl SimReport {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// FU-stall rate (Fig. 14): fraction of cycles with at least one
    /// issue-denied-for-FU event.
    #[must_use]
    pub fn fu_stall_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.fu_stall_cycles as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over a baseline run of the same trace.
    ///
    /// # Panics
    ///
    /// Panics if either run has zero cycles.
    #[must_use]
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        assert!(
            self.cycles > 0 && baseline.cycles > 0,
            "runs must have cycles"
        );
        baseline.cycles as f64 / self.cycles as f64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use redsoc_isa::opcode::AluOp;
    use redsoc_isa::operand::Operand2;
    use redsoc_isa::reg::ArchReg;

    fn alu(op: AluOp) -> Instr {
        Instr::Alu {
            op,
            dst: Some(ArchReg::int(0)),
            src1: Some(ArchReg::int(1)),
            op2: Operand2::Reg(ArchReg::int(2)),
            set_flags: false,
        }
    }

    #[test]
    fn classification_matches_paper_categories() {
        let lut = SlackLut::new();
        // Logic op: >50% slack → high slack.
        assert_eq!(
            OpCategory::classify(&alu(AluOp::And), false, WidthClass::W32, &lut),
            OpCategory::AluHighSlack
        );
        // Wide add: 100/500 = 20% slack → not high.
        assert_eq!(
            OpCategory::classify(&alu(AluOp::Add), false, WidthClass::W32, &lut),
            OpCategory::AluLowSlack
        );
        // Narrow add: plenty of width slack → high.
        assert_eq!(
            OpCategory::classify(&alu(AluOp::Add), false, WidthClass::W8, &lut),
            OpCategory::AluHighSlack
        );
        let load = Instr::Load {
            dst: ArchReg::int(0),
            base: ArchReg::int(1),
            offset: 0,
            width: redsoc_isa::opcode::MemWidth::B4,
        };
        assert_eq!(
            OpCategory::classify(&load, true, WidthClass::W32, &lut),
            OpCategory::MemHighLatency
        );
        assert_eq!(
            OpCategory::classify(&load, false, WidthClass::W32, &lut),
            OpCategory::MemLowLatency
        );
    }

    #[test]
    fn op_mix_fractions() {
        let mut mix = OpMix::default();
        for _ in 0..3 {
            mix.record(OpCategory::AluHighSlack);
        }
        mix.record(OpCategory::MemLowLatency);
        mix.record(OpCategory::Control); // excluded from fractions
        assert_eq!(mix.total_non_control(), 4);
        assert!((mix.fraction(OpCategory::AluHighSlack) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn chain_stats_means() {
        let mut c = ChainStats::default();
        c.record(1); // ignored: not a sequence
        c.record(2);
        c.record(6);
        assert_eq!(c.sequences(), 2);
        assert!((c.mean() - 4.0).abs() < 1e-12);
        // Weighted: (4 + 36) / (2 + 6) = 5.0
        assert!((c.weighted_mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stall_breakdown_partitions_by_construction() {
        let mut b = StallBreakdown::default();
        for (i, cause) in StallCause::all().into_iter().enumerate() {
            for _ in 0..=i {
                b.bump(cause);
            }
        }
        // 1 + 2 + ... + 10 charges in total.
        assert_eq!(b.total(), 55);
        assert_eq!(b.count(StallCause::Busy), 1);
        assert_eq!(b.count(StallCause::ExecLatency), 9);
        assert_eq!(b.count(StallCause::Mshr), 10);
        assert_eq!(b.busy + b.frontend + b.rob_full + b.rs_full, 1 + 2 + 3 + 4);
        for cause in StallCause::all() {
            assert!(!cause.label().is_empty());
        }
    }

    #[test]
    fn report_derived_metrics() {
        let base = SimReport {
            cycles: 1000,
            committed: 800,
            ..Default::default()
        };
        let fast = SimReport {
            cycles: 800,
            committed: 800,
            fu_stall_cycles: 200,
            ..Default::default()
        };
        assert!((base.ipc() - 0.8).abs() < 1e-12);
        assert!((fast.speedup_over(&base) - 1.25).abs() < 1e-12);
        assert!((fast.fu_stall_rate() - 0.25).abs() < 1e-12);
    }
}
