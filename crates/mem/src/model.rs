//! The core↔mem boundary: a request/response memory port.
//!
//! [`MemoryModel`] replaces the old synchronous "ask the hierarchy for a
//! scalar latency" call with a port the pipeline *requests* service from.
//! A request either returns a [`MemResponse`] — the access was accepted,
//! and the data will be ready `latency_cycles` after `t` (the core arms
//! its timer-wheel alarms off that horizon) — or a [`MemReject`] when a
//! structural hazard (all MSHRs busy) prevents the model from even
//! tracking the miss. A rejected load stays in the issue queue and the
//! core re-arms its wakeup alarm at [`MemReject::retry_at`].
//!
//! Two implementations ship in-tree:
//!
//! - [`ClassicHierarchy`] wraps [`MemoryHierarchy`] — infinite bandwidth,
//!   fixed per-level latency, never rejects. It is bit-for-bit
//!   cycle-identical to the pre-port simulator and remains the default.
//! - [`ContendedHierarchy`] adds
//!   MSHRs with merge-on-same-line, finite L1/L2 access ports per cycle,
//!   and a bandwidth-limited DRAM queue.
//!
//! Requests arrive with non-decreasing `t`
//! (the pipeline runs commit before issue inside one cycle), which is
//! what lets the contended model keep rolling port/bandwidth schedules
//! instead of a global event queue.

use std::fmt;

use crate::cache::{CacheConfig, CacheStats};
use crate::contended::{ContendedConfig, ContendedHierarchy};
use crate::hierarchy::{AccessOutcome, HierarchyStats, MemLatencies};
use crate::MemoryHierarchy;

/// Which memory model a core is built with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MemModelConfig {
    /// Fixed-latency hierarchy, infinite bandwidth (the default; cycle-
    /// identical to the pre-port simulator).
    #[default]
    Classic,
    /// MSHR-, port-, and bandwidth-limited hierarchy.
    Contended(ContendedConfig),
}

impl MemModelConfig {
    /// Stable CLI/JSON label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            MemModelConfig::Classic => "classic",
            MemModelConfig::Contended(_) => "contended",
        }
    }

    /// Parse a CLI label; `contended` uses [`ContendedConfig::default`].
    #[must_use]
    pub fn parse(s: &str) -> Option<MemModelConfig> {
        match s {
            "classic" => Some(MemModelConfig::Classic),
            "contended" => Some(MemModelConfig::Contended(ContendedConfig::default())),
            _ => None,
        }
    }
}

/// An accepted memory request: where it will be serviced and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// Servicing level (same classification the paper's MEM-HL/MEM-LL
    /// split keys off).
    pub outcome: AccessOutcome,
    /// Load-to-use latency in cycles from the request time `t`,
    /// *including* any port or queue waits.
    pub latency_cycles: u64,
    /// The request merged into an already-outstanding miss to the same
    /// line instead of allocating a new MSHR.
    pub mshr_merged: bool,
    /// Cycles spent waiting for a free cache access port.
    pub port_wait: u64,
    /// Cycles spent queued behind earlier DRAM traffic.
    pub queue_wait: u64,
}

/// A structurally rejected request: every MSHR is busy with a different
/// line, so the model cannot even track this miss yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReject {
    /// Earliest cycle at which retrying can succeed (the soonest MSHR
    /// completion). Always strictly greater than the request's `t`.
    pub retry_at: u64,
}

/// Contention counters accumulated by a model. All zero for
/// [`ClassicHierarchy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Requests rejected because all MSHRs were busy.
    pub mshr_rejects: u64,
    /// Requests merged into an outstanding same-line miss.
    pub mshr_merges: u64,
    /// Total cycles requests spent waiting on cache access ports.
    pub port_wait_cycles: u64,
    /// Total cycles requests spent queued for DRAM bandwidth.
    pub dram_wait_cycles: u64,
}

/// A pluggable timing model for the data-memory subsystem.
///
/// See the [module docs](self) for the request/response contract. `t`
/// is the requesting cycle and is non-decreasing across calls;
/// implementations may keep rolling schedules keyed on it.
pub trait MemoryModel: fmt::Debug + Send {
    /// Stable label for events and reports.
    fn name(&self) -> &'static str;

    /// Request service for instruction `seq` (PC `pc`) touching `addr` at
    /// cycle `t`.
    ///
    /// # Errors
    ///
    /// Returns [`MemReject`] when a structural hazard prevents accepting
    /// the request this cycle; the caller must retry no earlier than
    /// [`MemReject::retry_at`]. Stores are never rejected (a write buffer
    /// absorbs them).
    fn request(
        &mut self,
        seq: u64,
        pc: u32,
        addr: u64,
        is_store: bool,
        t: u64,
    ) -> Result<MemResponse, MemReject>;

    /// Per-level hit statistics.
    fn stats(&self) -> HierarchyStats;

    /// L1 statistics.
    fn l1_stats(&self) -> CacheStats;

    /// L2 statistics.
    fn l2_stats(&self) -> CacheStats;

    /// Contention counters (all zero for models without contention).
    fn contention(&self) -> ContentionStats;

    /// Number of misses still outstanding at cycle `t`.
    fn inflight(&self, t: u64) -> usize;
}

/// Build the configured memory model over the given cache geometry.
#[must_use]
pub fn build_memory_model(
    model: MemModelConfig,
    l1: CacheConfig,
    l2: CacheConfig,
    latencies: MemLatencies,
    prefetch: bool,
) -> Box<dyn MemoryModel> {
    match model {
        MemModelConfig::Classic => Box::new(ClassicHierarchy::new(MemoryHierarchy::new(
            l1, l2, latencies, prefetch,
        ))),
        MemModelConfig::Contended(cfg) => {
            Box::new(ContendedHierarchy::new(cfg, l1, l2, latencies, prefetch))
        }
    }
}

/// The fixed-latency memory port: wraps [`MemoryHierarchy`] behind the
/// [`MemoryModel`] trait. Never rejects, never queues — every request is
/// serviced with the configured per-level latency, exactly as the
/// pre-port simulator did, which keeps the committed golden sweep
/// byte-identical.
#[derive(Debug, Clone)]
pub struct ClassicHierarchy {
    inner: MemoryHierarchy,
}

impl ClassicHierarchy {
    /// Wrap a hierarchy.
    #[must_use]
    pub fn new(inner: MemoryHierarchy) -> Self {
        ClassicHierarchy { inner }
    }

    /// The paper's Table I memory system.
    #[must_use]
    pub fn paper_default() -> Self {
        ClassicHierarchy::new(MemoryHierarchy::paper_default())
    }
}

impl MemoryModel for ClassicHierarchy {
    fn name(&self) -> &'static str {
        "classic"
    }

    fn request(
        &mut self,
        _seq: u64,
        pc: u32,
        addr: u64,
        is_store: bool,
        _t: u64,
    ) -> Result<MemResponse, MemReject> {
        let res = self.inner.access(pc, addr, is_store);
        Ok(MemResponse {
            outcome: res.outcome,
            latency_cycles: u64::from(res.latency_cycles),
            mshr_merged: false,
            port_wait: 0,
            queue_wait: 0,
        })
    }

    fn stats(&self) -> HierarchyStats {
        self.inner.stats()
    }

    fn l1_stats(&self) -> CacheStats {
        self.inner.l1_stats()
    }

    fn l2_stats(&self) -> CacheStats {
        self.inner.l2_stats()
    }

    fn contention(&self) -> ContentionStats {
        ContentionStats::default()
    }

    fn inflight(&self, _t: u64) -> usize {
        0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn classic_matches_raw_hierarchy_latencies() {
        let mut raw = MemoryHierarchy::paper_default();
        let mut port = ClassicHierarchy::paper_default();
        for i in 0..512u64 {
            let addr = (i * 24) % 4096;
            let is_store = i % 7 == 0;
            let want = raw.access(0x40, addr, is_store);
            let got = port.request(i, 0x40, addr, is_store, i).unwrap();
            assert_eq!(got.outcome, want.outcome);
            assert_eq!(got.latency_cycles, u64::from(want.latency_cycles));
            assert!(!got.mshr_merged);
            assert_eq!(got.port_wait + got.queue_wait, 0);
        }
        assert_eq!(port.stats(), raw.stats());
        assert_eq!(port.contention(), ContentionStats::default());
        assert_eq!(port.inflight(999), 0);
    }

    #[test]
    fn model_config_labels_parse() {
        assert_eq!(
            MemModelConfig::parse("classic"),
            Some(MemModelConfig::Classic)
        );
        assert_eq!(
            MemModelConfig::parse("contended").map(|m| m.label()),
            Some("contended")
        );
        assert_eq!(MemModelConfig::parse("warp-drive"), None);
        assert_eq!(MemModelConfig::default().label(), "classic");
    }

    #[test]
    fn builder_selects_model_by_config() {
        let l1 = CacheConfig::l1_64k();
        let l2 = CacheConfig::l2_2m();
        let lat = MemLatencies::default();
        let classic = build_memory_model(MemModelConfig::Classic, l1, l2, lat, true);
        assert_eq!(classic.name(), "classic");
        let contended = build_memory_model(
            MemModelConfig::Contended(ContendedConfig::default()),
            l1,
            l2,
            lat,
            true,
        );
        assert_eq!(contended.name(), "contended");
    }
}
