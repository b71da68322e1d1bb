//! Two-level cache hierarchy with DRAM backing (Table I: 64 kB L1 / 2 MB
//! L2 with prefetch).

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::prefetch::StridePrefetcher;

/// Where a memory access was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// Hit in the L1 data cache.
    L1Hit,
    /// Missed L1, hit the L2.
    L2Hit,
    /// Missed both caches; serviced by DRAM.
    Memory,
}

impl AccessOutcome {
    /// Whether the paper would classify this access as "high latency"
    /// (`MEM-HL` in Fig. 10 — an L1 miss).
    #[must_use]
    pub fn is_high_latency(self) -> bool {
        !matches!(self, AccessOutcome::L1Hit)
    }
}

/// Access latencies per level, in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLatencies {
    /// L1 hit (load-to-use).
    pub l1_cycles: u32,
    /// L2 hit.
    pub l2_cycles: u32,
    /// DRAM access.
    pub mem_cycles: u32,
}

impl Default for MemLatencies {
    fn default() -> Self {
        // A57-class @2 GHz: 4-cycle L1, 16-cycle L2, 120-cycle DRAM.
        MemLatencies {
            l1_cycles: 4,
            l2_cycles: 16,
            mem_cycles: 120,
        }
    }
}

/// The result of one access: where it hit, and its total latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Servicing level.
    pub outcome: AccessOutcome,
    /// Load-to-use latency in cycles.
    pub latency_cycles: u32,
}

/// Hierarchy-wide statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Accesses serviced per level.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// DRAM accesses.
    pub mem_accesses: u64,
}

/// A two-level data-cache hierarchy with a stride prefetcher trained on the
/// L1 demand stream, filling both levels.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1: Cache,
    l2: Cache,
    prefetcher: Option<StridePrefetcher>,
    latencies: MemLatencies,
    stats: HierarchyStats,
}

impl MemoryHierarchy {
    /// Build a hierarchy from cache configs; `prefetch` enables the stride
    /// prefetcher (Table I has it on).
    #[must_use]
    pub fn new(l1: CacheConfig, l2: CacheConfig, latencies: MemLatencies, prefetch: bool) -> Self {
        MemoryHierarchy {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            prefetcher: prefetch.then(StridePrefetcher::default_config),
            latencies,
            stats: HierarchyStats::default(),
        }
    }

    /// The paper's Table I memory system.
    #[must_use]
    pub fn paper_default() -> Self {
        MemoryHierarchy::new(
            CacheConfig::l1_64k(),
            CacheConfig::l2_2m(),
            MemLatencies::default(),
            true,
        )
    }

    /// Perform a demand access at `addr` from load/store PC `pc`.
    pub fn access(&mut self, pc: u32, addr: u64, is_write: bool) -> AccessResult {
        let result = if self.l1.access(addr, is_write) {
            self.stats.l1_hits += 1;
            AccessResult {
                outcome: AccessOutcome::L1Hit,
                latency_cycles: self.latencies.l1_cycles,
            }
        } else if self.l2.access(addr, is_write) {
            self.stats.l2_hits += 1;
            AccessResult {
                outcome: AccessOutcome::L2Hit,
                latency_cycles: self.latencies.l2_cycles,
            }
        } else {
            self.stats.mem_accesses += 1;
            AccessResult {
                outcome: AccessOutcome::Memory,
                latency_cycles: self.latencies.mem_cycles,
            }
        };
        // Train the prefetcher on loads only; prefetches fill L2 and L1.
        if !is_write {
            if let Some(pf) = &mut self.prefetcher {
                for target in pf.train(pc, addr) {
                    self.l2.prefetch_fill(target);
                    self.l1.prefetch_fill(target);
                }
            }
        }
        result
    }

    /// L1 statistics.
    #[must_use]
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// L2 statistics.
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Hierarchy statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// The configured latencies.
    #[must_use]
    pub fn latencies(&self) -> MemLatencies {
        self.latencies
    }
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        MemoryHierarchy::paper_default()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn cold_access_goes_to_memory_then_warms() {
        let mut h = MemoryHierarchy::paper_default();
        let r1 = h.access(0x40, 0x1000, false);
        assert_eq!(r1.outcome, AccessOutcome::Memory);
        assert_eq!(r1.latency_cycles, 120);
        let r2 = h.access(0x40, 0x1000, false);
        assert_eq!(r2.outcome, AccessOutcome::L1Hit);
        assert_eq!(r2.latency_cycles, 4);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        // Small L1 (4 sets) so we can evict easily; big L2 retains.
        let l1 = CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        };
        let mut h = MemoryHierarchy::new(l1, CacheConfig::l2_2m(), MemLatencies::default(), false);
        h.access(0, 0x0000, false);
        // Evict set 0 of L1 by touching 2 more lines that map there
        // (set stride = 4 sets × 64 B = 256 B).
        h.access(0, 0x0100, false);
        h.access(0, 0x0200, false);
        let r = h.access(0, 0x0000, false);
        assert_eq!(r.outcome, AccessOutcome::L2Hit);
    }

    #[test]
    fn streaming_benefits_from_prefetch() {
        let mut with_pf = MemoryHierarchy::paper_default();
        let mut without = MemoryHierarchy::new(
            CacheConfig::l1_64k(),
            CacheConfig::l2_2m(),
            MemLatencies::default(),
            false,
        );
        let mut lat_pf = 0u64;
        let mut lat_no = 0u64;
        for i in 0..256u64 {
            lat_pf += u64::from(with_pf.access(0x40, i * 64, false).latency_cycles);
            lat_no += u64::from(without.access(0x40, i * 64, false).latency_cycles);
        }
        assert!(
            lat_pf < lat_no,
            "prefetching must reduce streaming latency: {lat_pf} vs {lat_no}"
        );
    }

    #[test]
    fn high_latency_classification() {
        assert!(!AccessOutcome::L1Hit.is_high_latency());
        assert!(AccessOutcome::L2Hit.is_high_latency());
        assert!(AccessOutcome::Memory.is_high_latency());
    }

    #[test]
    fn stats_accumulate_per_level() {
        let mut h = MemoryHierarchy::paper_default();
        h.access(0, 0x1000, false);
        h.access(0, 0x1000, false);
        h.access(0, 0x1000, true);
        let s = h.stats();
        assert_eq!(s.mem_accesses, 1);
        assert_eq!(s.l1_hits, 2);
    }
}
