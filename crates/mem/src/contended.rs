//! A contended memory hierarchy: MSHRs, finite cache ports, DRAM queue.
//!
//! [`ContendedHierarchy`] layers three structural hazards over the same
//! tags-only cache model the classic hierarchy uses:
//!
//! - **MSHRs** — at most [`ContendedConfig::mshrs`] misses may be
//!   outstanding at once. A load that misses L1 while a miss to the
//!   *same line* is in flight merges into that entry (it completes when
//!   the fill arrives); a load that misses to a *new* line while every
//!   MSHR is busy is rejected with a retry horizon, which the core
//!   surfaces as a [`StallCause::Mshr`]-attributed stall and a re-armed
//!   wakeup alarm.
//! - **Access ports** — at most [`ContendedConfig::l1_ports`] /
//!   [`ContendedConfig::l2_ports`] requests begin service at each level
//!   per cycle. Excess requests slip to the next cycle; the slip is
//!   reported as [`MemResponse::port_wait`].
//! - **DRAM bandwidth** — DRAM accepts one request every
//!   [`ContendedConfig::dram_interval`] cycles. Requests queue behind
//!   earlier traffic; the wait is reported as
//!   [`MemResponse::queue_wait`].
//!
//! Simplifications, kept deliberately (and documented in DESIGN.md):
//! tag arrays still fill instantly on miss — an in-flight line is
//! tracked by its MSHR entry, so same-line loads merge rather than
//! false-hit ahead of the fill; stores retire through a write buffer and
//! are never rejected (they consume port and DRAM bandwidth but no
//! MSHR); prefetch fills are free. Requests arrive with non-decreasing
//! `t`, so ports and the DRAM queue keep *rolling schedules* (a cursor
//! plus a use count) instead of a global event queue.
//!
//! [`StallCause::Mshr`]: MemResponse

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::hierarchy::{AccessOutcome, HierarchyStats, MemLatencies};
use crate::model::{ContentionStats, MemReject, MemResponse, MemoryModel};
use crate::prefetch::StridePrefetcher;

/// Structural-hazard limits for [`ContendedHierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContendedConfig {
    /// Outstanding-miss limit (MSHR count).
    pub mshrs: u32,
    /// Requests that may begin L1 service per cycle.
    pub l1_ports: u32,
    /// Requests that may begin L2 service per cycle.
    pub l2_ports: u32,
    /// Minimum cycles between successive DRAM request launches.
    pub dram_interval: u64,
}

impl Default for ContendedConfig {
    fn default() -> Self {
        // A57-class: 8 MSHRs, dual-ported L1, single-ported L2, and a
        // DRAM channel accepting one line fill every 4 core cycles.
        ContendedConfig {
            mshrs: 8,
            l1_ports: 2,
            l2_ports: 1,
            dram_interval: 4,
        }
    }
}

/// One outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mshr {
    /// Line address (byte address / L1 line size).
    line_addr: u64,
    /// Cycle at which the fill arrives and the entry frees.
    ready_at: u64,
    /// Level the original miss was serviced from.
    outcome: AccessOutcome,
}

/// Rolling per-level port schedule: `used` grants have been handed out
/// for cycle `cycle`; earlier cycles are closed because request times
/// are non-decreasing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PortState {
    cycle: u64,
    used: u32,
}

impl PortState {
    /// Reserve the earliest service slot at or after `t` given `ports`
    /// slots per cycle; returns the granted cycle.
    fn take(&mut self, t: u64, ports: u32) -> u64 {
        if self.cycle < t {
            self.cycle = t;
            self.used = 0;
        }
        while self.used >= ports {
            self.cycle += 1;
            self.used = 0;
        }
        self.used += 1;
        self.cycle
    }
}

/// The MSHR-, port-, and bandwidth-limited hierarchy. See the
/// [module docs](self) for mechanics.
#[derive(Debug, Clone)]
pub struct ContendedHierarchy {
    config: ContendedConfig,
    l1: Cache,
    l2: Cache,
    prefetcher: Option<StridePrefetcher>,
    latencies: MemLatencies,
    stats: HierarchyStats,
    contention: ContentionStats,
    mshrs: Vec<Mshr>,
    l1_port: PortState,
    l2_port: PortState,
    dram_next_free: u64,
}

impl ContendedHierarchy {
    /// Build over the given cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if any [`ContendedConfig`] limit is zero or the cache
    /// geometry is invalid.
    #[must_use]
    pub fn new(
        config: ContendedConfig,
        l1: CacheConfig,
        l2: CacheConfig,
        latencies: MemLatencies,
        prefetch: bool,
    ) -> Self {
        assert!(config.mshrs >= 1, "need at least one MSHR");
        assert!(
            config.l1_ports >= 1 && config.l2_ports >= 1,
            "need at least one port per level"
        );
        assert!(config.dram_interval >= 1, "DRAM interval must be >= 1");
        ContendedHierarchy {
            config,
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            prefetcher: prefetch.then(StridePrefetcher::default_config),
            latencies,
            stats: HierarchyStats::default(),
            contention: ContentionStats::default(),
            mshrs: Vec::new(),
            l1_port: PortState::default(),
            l2_port: PortState::default(),
            dram_next_free: 0,
        }
    }

    /// The structural limits this model was built with.
    #[must_use]
    pub fn config(&self) -> ContendedConfig {
        self.config
    }

    /// Drop MSHR entries whose fill has arrived by cycle `t`.
    fn prune(&mut self, t: u64) {
        self.mshrs.retain(|m| m.ready_at > t);
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / u64::from(self.l1.config().line_bytes)
    }

    /// Train the prefetcher on a demand load; fills are free.
    fn train(&mut self, pc: u32, addr: u64) {
        if let Some(pf) = &mut self.prefetcher {
            for target in pf.train(pc, addr) {
                self.l2.prefetch_fill(target);
                self.l1.prefetch_fill(target);
            }
        }
    }

    fn bump_level(&mut self, outcome: AccessOutcome) {
        match outcome {
            AccessOutcome::L1Hit => self.stats.l1_hits += 1,
            AccessOutcome::L2Hit => self.stats.l2_hits += 1,
            AccessOutcome::Memory => self.stats.mem_accesses += 1,
        }
    }
}

impl MemoryModel for ContendedHierarchy {
    fn name(&self) -> &'static str {
        "contended"
    }

    fn request(
        &mut self,
        _seq: u64,
        pc: u32,
        addr: u64,
        is_store: bool,
        t: u64,
    ) -> Result<MemResponse, MemReject> {
        self.prune(t);
        let line = self.line_of(addr);
        let l1_lat = u64::from(self.latencies.l1_cycles);
        let grant1 = self.l1_port.take(t, self.config.l1_ports);
        let l1_wait = grant1 - t;

        if !is_store {
            // A same-line miss in flight: merge. The tag array already
            // holds the line (instant-fill simplification), so this check
            // must come before the hit path — the data is NOT there yet.
            if let Some(m) = self.mshrs.iter().find(|m| m.line_addr == line) {
                let outcome = m.outcome;
                let fill_wait = m.ready_at - t; // >= 1 after prune
                let latency = fill_wait.max(l1_wait + l1_lat);
                self.contention.mshr_merges += 1;
                self.contention.port_wait_cycles += l1_wait;
                self.bump_level(outcome);
                let _ = self.l1.access(addr, false); // tag/LRU bookkeeping
                self.train(pc, addr);
                return Ok(MemResponse {
                    outcome,
                    latency_cycles: latency,
                    mshr_merged: true,
                    port_wait: l1_wait,
                    queue_wait: 0,
                });
            }
            // New-line miss with every MSHR busy: reject before touching
            // the tag array, so the retry replays as a clean miss. The
            // probe still consumed an L1 port slot.
            if !self.l1.probe(addr) && self.mshrs.len() >= self.config.mshrs as usize {
                self.contention.mshr_rejects += 1;
                let retry_at = self.mshrs.iter().map(|m| m.ready_at).min().unwrap_or(t + 1);
                return Err(MemReject { retry_at });
            }
        }

        let hit1 = self.l1.access(addr, is_store);
        let (outcome, latency, port_wait, queue_wait) = if hit1 {
            self.stats.l1_hits += 1;
            (AccessOutcome::L1Hit, l1_wait + l1_lat, l1_wait, 0)
        } else {
            let grant2 = self.l2_port.take(grant1, self.config.l2_ports);
            let port_wait = grant2 - t;
            if self.l2.access(addr, is_store) {
                self.stats.l2_hits += 1;
                let lat = port_wait + u64::from(self.latencies.l2_cycles);
                (AccessOutcome::L2Hit, lat, port_wait, 0)
            } else {
                let issue = grant2.max(self.dram_next_free);
                self.dram_next_free = issue + self.config.dram_interval;
                let queue_wait = issue - grant2;
                self.stats.mem_accesses += 1;
                let lat = port_wait + queue_wait + u64::from(self.latencies.mem_cycles);
                (AccessOutcome::Memory, lat, port_wait, queue_wait)
            }
        };
        self.contention.port_wait_cycles += port_wait;
        self.contention.dram_wait_cycles += queue_wait;
        if !is_store {
            if outcome != AccessOutcome::L1Hit {
                self.mshrs.push(Mshr {
                    line_addr: line,
                    ready_at: t + latency.max(1),
                    outcome,
                });
            }
            self.train(pc, addr);
        }
        Ok(MemResponse {
            outcome,
            latency_cycles: latency,
            mshr_merged: false,
            port_wait,
            queue_wait,
        })
    }

    fn stats(&self) -> HierarchyStats {
        self.stats
    }

    fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    fn contention(&self) -> ContentionStats {
        self.contention
    }

    fn inflight(&self, t: u64) -> usize {
        self.mshrs.iter().filter(|m| m.ready_at > t).count()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn small(config: ContendedConfig) -> ContendedHierarchy {
        ContendedHierarchy::new(
            config,
            CacheConfig::l1_64k(),
            CacheConfig::l2_2m(),
            MemLatencies::default(),
            false,
        )
    }

    #[test]
    fn l1_port_serializes_same_cycle_hits() {
        let mut h = small(ContendedConfig {
            l1_ports: 2,
            ..ContendedConfig::default()
        });
        // Warm three distinct lines at earlier cycles.
        for (i, addr) in [0x000u64, 0x100, 0x200].iter().enumerate() {
            h.request(i as u64, 0x40, *addr, false, i as u64).unwrap();
        }
        // At t=500 (all warm-up fills landed), three same-cycle L1 hits:
        // two granted, one slips.
        let a = h.request(10, 0x40, 0x000, false, 500).unwrap();
        let b = h.request(11, 0x40, 0x100, false, 500).unwrap();
        let c = h.request(12, 0x40, 0x200, false, 500).unwrap();
        assert_eq!(a.port_wait, 0);
        assert_eq!(b.port_wait, 0);
        assert_eq!(c.port_wait, 1, "third access waits for a port");
        assert_eq!(c.latency_cycles, a.latency_cycles + 1);
        assert_eq!(h.contention().port_wait_cycles, 1);
    }

    #[test]
    fn same_line_miss_merges_into_mshr() {
        let mut h = small(ContendedConfig::default());
        let first = h.request(0, 0x40, 0x1000, false, 10).unwrap();
        assert_eq!(first.outcome, AccessOutcome::Memory);
        assert!(!first.mshr_merged);
        assert_eq!(h.inflight(10), 1);
        // Same line, two cycles later: merges, completes with the fill.
        let second = h.request(1, 0x44, 0x1008, false, 12).unwrap();
        assert!(second.mshr_merged);
        assert_eq!(second.outcome, AccessOutcome::Memory);
        assert_eq!(
            12 + second.latency_cycles,
            10 + first.latency_cycles,
            "merged load completes when the original fill arrives"
        );
        assert_eq!(h.contention().mshr_merges, 1);
        // After the fill lands, the same line is a plain L1 hit.
        let after = 10 + first.latency_cycles + 1;
        let third = h.request(2, 0x40, 0x1000, false, after).unwrap();
        assert_eq!(third.outcome, AccessOutcome::L1Hit);
        assert!(!third.mshr_merged);
        assert_eq!(h.inflight(after), 0);
    }

    #[test]
    fn full_mshrs_reject_new_line_miss() {
        let mut h = small(ContendedConfig {
            mshrs: 1,
            ..ContendedConfig::default()
        });
        let first = h.request(0, 0x40, 0x1000, false, 10).unwrap();
        let err = h
            .request(1, 0x44, 0x9000, false, 11)
            .expect_err("second distinct-line miss must reject");
        assert_eq!(err.retry_at, 10 + first.latency_cycles);
        assert!(err.retry_at > 11);
        assert_eq!(h.contention().mshr_rejects, 1);
        // Retrying at the horizon succeeds and replays as a clean miss.
        let retry = h.request(1, 0x44, 0x9000, false, err.retry_at).unwrap();
        assert_eq!(retry.outcome, AccessOutcome::Memory);
        assert!(!retry.mshr_merged);
    }

    #[test]
    fn rejected_miss_does_not_touch_tags_or_stats() {
        let mut h = small(ContendedConfig {
            mshrs: 1,
            ..ContendedConfig::default()
        });
        h.request(0, 0x40, 0x1000, false, 10).unwrap();
        let stats_before = h.stats();
        let l1_before = h.l1_stats();
        let _ = h.request(1, 0x44, 0x9000, false, 11).unwrap_err();
        assert_eq!(h.stats(), stats_before, "reject leaves hierarchy stats");
        assert_eq!(h.l1_stats(), l1_before, "reject leaves the tag array");
    }

    #[test]
    fn dram_bandwidth_queues_back_to_back_misses() {
        let mut h = small(ContendedConfig {
            dram_interval: 4,
            l1_ports: 4,
            l2_ports: 4,
            ..ContendedConfig::default()
        });
        let a = h.request(0, 0x40, 0x0000, false, 50).unwrap();
        let b = h.request(1, 0x44, 0x8000, false, 50).unwrap();
        assert_eq!(a.queue_wait, 0);
        assert!(b.queue_wait >= 3, "second miss queues behind the first");
        assert_eq!(h.contention().dram_wait_cycles, b.queue_wait);
    }

    #[test]
    fn stores_never_reject_even_when_mshrs_full() {
        let mut h = small(ContendedConfig {
            mshrs: 1,
            ..ContendedConfig::default()
        });
        h.request(0, 0x40, 0x1000, false, 10).unwrap();
        let st = h
            .request(1, 0x44, 0x9000, true, 11)
            .expect("stores go through the write buffer");
        assert_eq!(st.outcome, AccessOutcome::Memory);
        assert_eq!(h.inflight(11), 1, "stores do not allocate MSHRs");
    }
}
