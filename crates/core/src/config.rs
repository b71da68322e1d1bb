//! Core and scheduler configuration (paper Table I).

use redsoc_mem::{CacheConfig, MemLatencies, MemModelConfig};
use redsoc_timing::Quant;

/// Which scheduling mechanism the simulated core runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Conventional out-of-order scheduling: every single-cycle operation
    /// completes at a clock boundary; no slack is recycled.
    Baseline,
    /// ReDSOC: slack-aware scheduling with transparent dataflow, eager
    /// grandparent wakeup and skewed selection (§III–IV).
    Redsoc,
    /// MOS — "Multiple Operations in Single-cycle": dynamic operation
    /// fusion of dependent ops that jointly fit in one clock period
    /// (the paper's §VI-D comparison point).
    Mos,
}

/// Scheduler options (the paper's design knobs and ablation axes).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Scheduling mechanism.
    pub mode: SchedMode,
    /// Completion-Instant precision in bits (paper: 3, saturating).
    pub ci_bits: u8,
    /// Slack threshold in CI ticks: a grandparent-woken consumer issues
    /// early only when its parent's completion instant falls at or below
    /// this tick within the cycle (§IV-C). Tuned per application class by
    /// sweep in the paper.
    pub threshold_ticks: u64,
    /// Prioritise non-speculative over grandparent-speculative select
    /// requests (§IV-D). Turning this off exposes GP-mispeculation.
    pub skewed_select: bool,
    /// Enable eager grandparent wakeup (§IV-B). Without it, slack is only
    /// recycled across boundary-crossing producers.
    pub egpw: bool,
    /// Penalty cycles charged when a last-arrival tag prediction is wrong
    /// (recovery "identical to latency mispredictions but lower penalty").
    pub tag_mispredict_penalty: u32,
    /// Penalty cycles for an aggressive width misprediction (selective
    /// reissue, like a cache-miss replay).
    pub width_replay_penalty: u32,
    /// Exploit the PVT guard band on top of data slack (§V): critical-path
    /// monitors near the ALUs recalibrate the slack LUT every 10k cycles.
    /// Off by default — the paper's headline numbers isolate data slack at
    /// the worst-case PVT corner.
    pub pvt_guard_band: bool,
}

impl SchedulerConfig {
    /// The paper's ReDSOC operating point.
    #[must_use]
    pub fn redsoc() -> Self {
        SchedulerConfig {
            mode: SchedMode::Redsoc,
            ci_bits: 3,
            threshold_ticks: 7,
            skewed_select: true,
            egpw: true,
            tag_mispredict_penalty: 2,
            width_replay_penalty: 3,
            pvt_guard_band: false,
        }
    }

    /// Conventional baseline scheduling.
    #[must_use]
    pub fn baseline() -> Self {
        SchedulerConfig {
            mode: SchedMode::Baseline,
            ..SchedulerConfig::redsoc()
        }
    }

    /// The MOS operation-fusion comparator.
    #[must_use]
    pub fn mos() -> Self {
        SchedulerConfig {
            mode: SchedMode::Mos,
            ..SchedulerConfig::redsoc()
        }
    }

    /// The CI quantiser implied by `ci_bits`.
    #[must_use]
    pub fn quant(&self) -> Quant {
        Quant::new(self.ci_bits)
    }
}

/// Default deadlock-watchdog threshold in commit-free cycles.
pub const DEFAULT_DEADLOCK_CYCLES: u64 = 100_000;

/// Full core configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Human-readable name ("small" / "medium" / "big").
    pub name: &'static str,
    /// Front-end (fetch/decode/rename/commit) width, instructions/cycle.
    pub frontend_width: u32,
    /// Reorder-buffer entries.
    pub rob_entries: u32,
    /// Load/store-queue entries.
    pub lsq_entries: u32,
    /// Reservation-station entries.
    pub rse_entries: u32,
    /// Integer ALUs (also execute branches; multiplies/divides occupy an
    /// ALU's issue slot).
    pub alu_units: u32,
    /// SIMD units.
    pub simd_units: u32,
    /// FP units.
    pub fp_units: u32,
    /// Load/store address-generation ports.
    pub mem_ports: u32,
    /// Fetch-to-dispatch pipeline depth in cycles.
    pub frontend_depth: u32,
    /// Branch misprediction redirect penalty in cycles (on top of waiting
    /// for the branch to resolve).
    pub mispredict_penalty: u32,
    /// L1 data-cache geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Cache/DRAM latencies.
    pub mem_latencies: MemLatencies,
    /// Enable the stride prefetcher (Table I: on).
    pub prefetch: bool,
    /// Which memory timing model services loads and stores. The default
    /// [`MemModelConfig::Classic`] is cycle-identical to the pre-port
    /// simulator; `Contended` adds MSHR/port/bandwidth hazards.
    pub mem_model: MemModelConfig,
    /// Deadlock-watchdog threshold: the simulator reports
    /// [`SimError::Deadlock`](crate::pipeline::SimError) after this many cycles
    /// without a single commit. Must be large enough that a worst-case
    /// legitimate stall (DRAM miss chains, drained front end) cannot trip
    /// it; validation rejects values below 1000 and above one billion.
    pub deadlock_cycles: u64,
    /// Scheduler options.
    pub sched: SchedulerConfig,
}

impl CoreConfig {
    /// Table I "Small": 3-wide, 40/16/32 ROB/LSQ/RSE, 3/2/2 ALU/SIMD/FP.
    #[must_use]
    pub fn small() -> Self {
        CoreConfig {
            name: "small",
            frontend_width: 3,
            rob_entries: 40,
            lsq_entries: 16,
            rse_entries: 32,
            alu_units: 3,
            simd_units: 2,
            fp_units: 2,
            mem_ports: 2,
            frontend_depth: 5,
            mispredict_penalty: 8,
            l1: CacheConfig::l1_64k(),
            l2: CacheConfig::l2_2m(),
            mem_latencies: MemLatencies::default(),
            prefetch: true,
            mem_model: MemModelConfig::Classic,
            deadlock_cycles: DEFAULT_DEADLOCK_CYCLES,
            sched: SchedulerConfig::baseline(),
        }
    }

    /// Table I "Medium": 4-wide, 80/32/64, 4/3/3.
    #[must_use]
    pub fn medium() -> Self {
        CoreConfig {
            name: "medium",
            frontend_width: 4,
            rob_entries: 80,
            lsq_entries: 32,
            rse_entries: 64,
            alu_units: 4,
            simd_units: 3,
            fp_units: 3,
            ..CoreConfig::small()
        }
    }

    /// Table I "Big": 8-wide, 160/64/128, 6/4/4.
    #[must_use]
    pub fn big() -> Self {
        CoreConfig {
            name: "big",
            frontend_width: 8,
            rob_entries: 160,
            lsq_entries: 64,
            rse_entries: 128,
            alu_units: 6,
            simd_units: 4,
            fp_units: 4,
            mem_ports: 3,
            ..CoreConfig::small()
        }
    }

    /// The three Table I cores, smallest first.
    #[must_use]
    pub fn table1() -> [CoreConfig; 3] {
        [CoreConfig::small(), CoreConfig::medium(), CoreConfig::big()]
    }

    /// Replace the scheduler configuration (builder-style).
    #[must_use]
    pub fn with_sched(mut self, sched: SchedulerConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Replace the memory model (builder-style).
    #[must_use]
    pub fn with_mem_model(mut self, mem_model: MemModelConfig) -> Self {
        self.mem_model = mem_model;
        self
    }

    /// Validate structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.frontend_width == 0 {
            return Err("frontend width must be positive".into());
        }
        if self.rob_entries < self.frontend_width {
            return Err("ROB must hold at least one fetch group".into());
        }
        if self.rse_entries == 0 || self.lsq_entries == 0 {
            return Err("RSE/LSQ must be non-empty".into());
        }
        if self.alu_units == 0 {
            return Err("need at least one ALU".into());
        }
        self.l1.validate().map_err(|e| format!("l1: {e}"))?;
        self.l2.validate().map_err(|e| format!("l2: {e}"))?;
        if !(1..=8).contains(&self.sched.ci_bits) {
            return Err("CI precision must be 1..=8 bits".into());
        }
        if self.sched.threshold_ticks > self.sched.quant().ticks_per_cycle() {
            return Err("threshold cannot exceed one cycle".into());
        }
        if self.deadlock_cycles < 1_000 {
            return Err(format!(
                "deadlock watchdog threshold {} is too small: legitimate \
                 stalls (DRAM miss chains) span thousands of cycles; use \
                 at least 1000",
                self.deadlock_cycles
            ));
        }
        if self.deadlock_cycles > 1_000_000_000 {
            return Err(format!(
                "deadlock watchdog threshold {} is absurd (> 1e9): the \
                 watchdog would never fire within a practical run",
                self.deadlock_cycles
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets_match_paper() {
        let [s, m, b] = CoreConfig::table1();
        assert_eq!(
            (
                s.frontend_width,
                s.rob_entries,
                s.lsq_entries,
                s.rse_entries
            ),
            (3, 40, 16, 32)
        );
        assert_eq!((s.alu_units, s.simd_units, s.fp_units), (3, 2, 2));
        assert_eq!(
            (
                m.frontend_width,
                m.rob_entries,
                m.lsq_entries,
                m.rse_entries
            ),
            (4, 80, 32, 64)
        );
        assert_eq!((m.alu_units, m.simd_units, m.fp_units), (4, 3, 3));
        assert_eq!(
            (
                b.frontend_width,
                b.rob_entries,
                b.lsq_entries,
                b.rse_entries
            ),
            (8, 160, 64, 128)
        );
        assert_eq!((b.alu_units, b.simd_units, b.fp_units), (6, 4, 4));
        for c in [&s, &m, &b] {
            c.validate().unwrap();
        }
    }

    #[test]
    fn sched_presets() {
        assert_eq!(SchedulerConfig::redsoc().mode, SchedMode::Redsoc);
        assert_eq!(SchedulerConfig::baseline().mode, SchedMode::Baseline);
        assert_eq!(SchedulerConfig::mos().mode, SchedMode::Mos);
        assert_eq!(SchedulerConfig::redsoc().quant().ticks_per_cycle(), 8);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = CoreConfig::small();
        c.alu_units = 0;
        assert!(c.validate().is_err());
        let mut c = CoreConfig::small();
        c.sched.ci_bits = 9;
        assert!(c.validate().is_err());
        let mut c = CoreConfig::small();
        c.sched.threshold_ticks = 100;
        assert!(c.validate().is_err());
    }

    #[test]
    fn mem_model_defaults_to_classic_and_builds() {
        let c = CoreConfig::small();
        assert_eq!(c.mem_model, MemModelConfig::Classic);
        let contended = CoreConfig::small().with_mem_model(MemModelConfig::Contended(
            redsoc_mem::ContendedConfig::default(),
        ));
        contended.validate().unwrap();
        assert_eq!(contended.mem_model.label(), "contended");
    }

    #[test]
    fn validation_rejects_bad_cache_geometry() {
        let mut c = CoreConfig::small();
        c.l1.size_bytes = 1000; // not a multiple of ways*line
        let err = c.validate().unwrap_err();
        assert!(err.starts_with("l1:"), "got: {err}");
        let mut c = CoreConfig::small();
        c.l2.line_bytes = 48;
        assert!(c.validate().unwrap_err().starts_with("l2:"));
    }

    #[test]
    fn validation_bounds_the_deadlock_watchdog() {
        let mut c = CoreConfig::small();
        assert_eq!(c.deadlock_cycles, DEFAULT_DEADLOCK_CYCLES);
        c.deadlock_cycles = 0;
        assert!(c.validate().is_err(), "zero threshold must be rejected");
        c.deadlock_cycles = 999;
        assert!(c.validate().is_err(), "sub-1000 threshold must be rejected");
        c.deadlock_cycles = 2_000_000_000;
        assert!(c.validate().is_err(), "absurd threshold must be rejected");
        c.deadlock_cycles = 1_000;
        assert!(c.validate().is_ok());
        c.deadlock_cycles = 1_000_000_000;
        assert!(c.validate().is_ok());
    }
}
