//! Set-associative cache model with true-LRU replacement.
//!
//! Tag-array-only simulation: the cache tracks which lines are present (and
//! dirty), not their data — data correctness is the functional
//! interpreter's job in the trace-driven methodology. Latency is assigned
//! by the [`MemoryHierarchy`](crate::hierarchy::MemoryHierarchy).

use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Why a [`CacheConfig`] is not a buildable geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheConfigError {
    /// `size_bytes`, `ways`, or `line_bytes` is zero.
    ZeroField {
        /// Name of the offending field.
        field: &'static str,
    },
    /// `line_bytes` is not a power of two.
    LineNotPowerOfTwo {
        /// The rejected line size.
        line_bytes: u32,
    },
    /// `ways * line_bytes` does not divide `size_bytes`, so `sets()`
    /// would silently truncate.
    SizeNotMultiple {
        /// The configured capacity.
        size_bytes: u32,
        /// `ways * line_bytes` — the way-slice size that must divide it.
        way_bytes: u32,
    },
    /// The derived set count is not a power of two, so set indexing by
    /// modulo would not be a clean bit slice.
    SetsNotPowerOfTwo {
        /// The derived set count.
        sets: u32,
    },
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::ZeroField { field } => {
                write!(f, "cache config field `{field}` must be non-zero")
            }
            CacheConfigError::LineNotPowerOfTwo { line_bytes } => {
                write!(f, "line size must be a power of two, got {line_bytes}")
            }
            CacheConfigError::SizeNotMultiple {
                size_bytes,
                way_bytes,
            } => write!(
                f,
                "size_bytes {size_bytes} is not a multiple of ways*line_bytes {way_bytes}"
            ),
            CacheConfigError::SetsNotPowerOfTwo { sets } => {
                write!(f, "derived set count must be a power of two, got {sets}")
            }
        }
    }
}

impl Error for CacheConfigError {}

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// 64 KiB, 4-way, 64 B lines — the paper's L1 (Table I).
    #[must_use]
    pub fn l1_64k() -> Self {
        CacheConfig {
            size_bytes: 64 << 10,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// 2 MiB, 16-way, 64 B lines — the paper's L2 (Table I).
    #[must_use]
    pub fn l2_2m() -> Self {
        CacheConfig {
            size_bytes: 2 << 20,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Check the geometry is buildable: all fields non-zero, a
    /// power-of-two line size, `ways * line_bytes` dividing `size_bytes`
    /// exactly (so [`CacheConfig::sets`] does not truncate), and a
    /// power-of-two set count.
    ///
    /// # Errors
    ///
    /// Returns the first [`CacheConfigError`] violated, checked in the
    /// order listed above.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        for (field, value) in [
            ("size_bytes", self.size_bytes),
            ("ways", self.ways),
            ("line_bytes", self.line_bytes),
        ] {
            if value == 0 {
                return Err(CacheConfigError::ZeroField { field });
            }
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(CacheConfigError::LineNotPowerOfTwo {
                line_bytes: self.line_bytes,
            });
        }
        let way_bytes = self.ways.saturating_mul(self.line_bytes);
        if way_bytes == 0 || !self.size_bytes.is_multiple_of(way_bytes) {
            return Err(CacheConfigError::SizeNotMultiple {
                size_bytes: self.size_bytes,
                way_bytes,
            });
        }
        let sets = self.size_bytes / way_bytes;
        if !sets.is_power_of_two() {
            return Err(CacheConfigError::SetsNotPowerOfTwo { sets });
        }
        Ok(())
    }
}

/// Per-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (excluding prefetches).
    pub accesses: u64,
    /// Demand misses.
    pub misses: u64,
    /// Prefetch fills issued into this cache.
    pub prefetch_fills: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Demand miss rate in [0, 1].
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set's entry in [`Cache::set_base`] until its first touch: the set
/// holds no way storage, so all of its ways are invalid.
const UNFILLED: u32 = u32::MAX;

/// A set-associative cache (tags only) with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per set: the index in `ways` of its first way, or [`UNFILLED`].
    /// A set's ways are appended the first time it is touched, so a
    /// fresh cache zeroes no way storage and a short run pays only for
    /// the sets it uses.
    set_base: Vec<u32>,
    /// Each way is `[tag, stamp]`. `stamp` is `tick << 1 | dirty`, where
    /// `tick` counts touches and is incremented before each one: a
    /// filled way's stamp is at least 2, 0 marks an invalid way, and
    /// since ticks are distinct, a smaller stamp is an older touch
    /// whatever the dirty bits. The dirty flag is not kept in the tag
    /// word because with 1-byte lines in a single set a tag uses all 64
    /// bits.
    ways: Vec<[u64; 2]>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheConfig::validate`]. Use
    /// [`Cache::try_new`] to handle the error instead.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        match Cache::try_new(config) {
            Ok(cache) => cache,
            Err(e) => panic!("invalid cache config: {e}"),
        }
    }

    /// Build a cache from its configuration, rejecting degenerate
    /// geometries with a structured error.
    ///
    /// # Errors
    ///
    /// Returns the [`CacheConfigError`] reported by
    /// [`CacheConfig::validate`].
    pub fn try_new(config: CacheConfig) -> Result<Self, CacheConfigError> {
        config.validate()?;
        Ok(Cache {
            config,
            set_base: vec![UNFILLED; config.sets() as usize],
            // Reserved, not zeroed: `touch` appends each set's ways on
            // its first use.
            ways: Vec::with_capacity((config.sets() * config.ways) as usize),
            tick: 0,
            stats: CacheStats::default(),
        })
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The set `addr` maps to, and the tag it carries.
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / u64::from(self.config.line_bytes);
        let sets = u64::from(self.config.sets());
        ((line % sets) as usize, line / sets)
    }

    /// The ways of a filled set whose first way is at `base`.
    fn ways_at(&self, base: u32) -> Range<usize> {
        let base = base as usize;
        base..base + self.config.ways as usize
    }

    /// Probe without modifying state: is the line present? An untouched
    /// set misses without gaining way storage.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = self.set_base[set];
        base != UNFILLED
            && self.ways[self.ways_at(base)]
                .iter()
                .any(|&[t, stamp]| stamp != 0 && t == tag)
    }

    /// Demand access. Returns `true` on hit. On miss the line is filled
    /// (allocate-on-miss for both reads and writes); an evicted dirty line
    /// counts as a writeback.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.stats.accesses += 1;
        let hit = self.touch(addr, is_write);
        if !hit {
            self.stats.misses += 1;
        }
        hit
    }

    /// Fill a line on behalf of a prefetcher (not counted as a demand
    /// access; no effect if already present except an LRU touch).
    pub fn prefetch_fill(&mut self, addr: u64) {
        self.stats.prefetch_fills += 1;
        let _ = self.touch(addr, false);
    }

    /// Core lookup/fill: returns hit/miss and updates LRU + contents.
    fn touch(&mut self, addr: u64, is_write: bool) -> bool {
        self.tick += 1;
        let stamp = self.tick << 1 | u64::from(is_write);
        let (set, tag) = self.set_and_tag(addr);
        let mut base = self.set_base[set];
        if base == UNFILLED {
            // First touch: append the set's ways, all invalid. A valid
            // geometry has fewer than `UNFILLED` ways, so no base
            // collides with it.
            base = self.ways.len() as u32;
            self.set_base[set] = base;
            self.ways
                .resize(self.ways.len() + self.config.ways as usize, [0; 2]);
        }
        let range = self.ways_at(base);
        let ways = &mut self.ways[range];
        if let Some(way) = ways.iter_mut().find(|[t, s]| *s != 0 && *t == tag) {
            way[1] = stamp | (way[1] & 1);
            return true;
        }
        // Miss: evict the first way with the smallest stamp (an invalid
        // way, else the LRU one) and fill.
        let mut victim = 0;
        for (i, way) in ways.iter().enumerate() {
            if way[1] < ways[victim][1] {
                victim = i;
            }
        }
        if ways[victim][1] & 1 != 0 {
            self.stats.writebacks += 1;
        }
        ways[victim] = [tag, stamp];
        false
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::prefetch::tests::lcg;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 16 B lines = 128 B.
        Cache::new(CacheConfig {
            size_bytes: 128,
            ways: 2,
            line_bytes: 16,
        })
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::l1_64k();
        assert_eq!(c.sets(), 256);
        let c2 = CacheConfig::l2_2m();
        assert_eq!(c2.sets(), 2048);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0x100, false));
        assert!(c.access(0x100, false));
        assert!(c.access(0x10F, false), "same line");
        assert!(!c.access(0x110, false), "next line");
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().accesses, 4);
    }

    #[test]
    fn lru_replacement() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 sets × 16 B = 64 B).
        let a = 0x000;
        let b = 0x040;
        let d = 0x080;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is MRU
        c.access(d, false); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x040, false);
        c.access(0x080, false); // evicts 0x000 (dirty)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn prefetch_fills_do_not_count_as_demand() {
        let mut c = tiny();
        c.prefetch_fill(0x200);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0x200, false), "prefetched line hits");
        assert_eq!(c.stats().miss_rate(), 0.0);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let c = tiny();
        assert!(!c.probe(0x123));
    }

    #[test]
    fn sets_gain_way_storage_on_first_touch() {
        let config = CacheConfig::l2_2m();
        let ways = config.ways as usize;
        let mut c = Cache::new(config);
        assert!(c.ways.is_empty(), "a fresh L2 holds no way storage");
        assert!(c.ways.capacity() >= (config.sets() as usize) * ways);
        assert!(!c.probe(0x4_0000), "an untouched set misses");
        assert!(
            c.ways.is_empty(),
            "probing an untouched set allocates nothing"
        );
        assert!(!c.access(0x4_0000, false));
        assert_eq!(c.ways.len(), ways, "one access fills one set");
        assert!(c.probe(0x4_0000) && c.access(0x4_0000, false));
        // Another line of the same set reuses its ways; another set
        // appends its own.
        let set_stride = u64::from(config.sets() * config.line_bytes);
        assert!(!c.access(0x4_0000 + set_stride, false));
        assert_eq!(c.ways.len(), ways);
        assert!(!c.access(0x4_0040, false));
        assert_eq!(c.ways.len(), 2 * ways);
        assert!(c.probe(0x4_0000) && c.probe(0x4_0000 + set_stride));
    }

    /// A naive reference model: per set, a most-recent-first list of
    /// `(tag, dirty)` lines, at most `ways` long. A miss in a full set
    /// evicts the list's tail.
    struct RefCache {
        sets: Vec<Vec<(u64, bool)>>,
        ways: usize,
        line_bytes: u64,
        stats: CacheStats,
    }

    impl RefCache {
        fn new(config: CacheConfig) -> Self {
            RefCache {
                sets: vec![Vec::new(); config.sets() as usize],
                ways: config.ways as usize,
                line_bytes: u64::from(config.line_bytes),
                stats: CacheStats::default(),
            }
        }

        fn locate(&self, addr: u64) -> (usize, u64) {
            let line = addr / self.line_bytes;
            let sets = self.sets.len() as u64;
            ((line % sets) as usize, line / sets)
        }

        fn probe(&self, addr: u64) -> bool {
            let (set, tag) = self.locate(addr);
            self.sets[set].iter().any(|&(t, _)| t == tag)
        }

        fn touch(&mut self, addr: u64, is_write: bool) -> bool {
            let (set, tag) = self.locate(addr);
            let ways = self.ways;
            let lines = &mut self.sets[set];
            if let Some(pos) = lines.iter().position(|&(t, _)| t == tag) {
                let (_, dirty) = lines.remove(pos);
                lines.insert(0, (tag, dirty || is_write));
                return true;
            }
            if lines.len() == ways && lines.pop().is_some_and(|(_, dirty)| dirty) {
                self.stats.writebacks += 1;
            }
            lines.insert(0, (tag, is_write));
            false
        }

        fn access(&mut self, addr: u64, is_write: bool) -> bool {
            self.stats.accesses += 1;
            let hit = self.touch(addr, is_write);
            if !hit {
                self.stats.misses += 1;
            }
            hit
        }

        fn prefetch_fill(&mut self, addr: u64) {
            self.stats.prefetch_fills += 1;
            self.touch(addr, false);
        }
    }

    #[test]
    fn property_matches_reference_lru_model_on_random_streams() {
        let geometries = [
            // 4 sets x 2 ways x 16 B lines.
            CacheConfig {
                size_bytes: 128,
                ways: 2,
                line_bytes: 16,
            },
            // 1 set x 8 ways x 1 B lines: the tag is the whole address.
            CacheConfig {
                size_bytes: 8,
                ways: 8,
                line_bytes: 1,
            },
        ];
        for config in geometries {
            for seed in 0..16u64 {
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                // A pool of twice as many line addresses as the cache
                // holds, some with the top address bits set, so streams
                // both hit and evict.
                let lines = 2 * u64::from(config.sets() * config.ways);
                let pool: Vec<u64> = (0..lines)
                    .map(|i| {
                        let high = if lcg(&mut rng).is_multiple_of(4) {
                            u64::MAX << 48
                        } else {
                            0
                        };
                        (high | i).wrapping_mul(u64::from(config.line_bytes))
                    })
                    .collect();
                let mut dut = Cache::new(config);
                let mut reference = RefCache::new(config);
                for step in 0..2000 {
                    let addr = pool[(lcg(&mut rng) % lines) as usize]
                        + lcg(&mut rng) % u64::from(config.line_bytes);
                    let (what, got, want) = match lcg(&mut rng) % 8 {
                        0..=2 => (
                            "read",
                            dut.access(addr, false),
                            reference.access(addr, false),
                        ),
                        3..=4 => (
                            "write",
                            dut.access(addr, true),
                            reference.access(addr, true),
                        ),
                        5 => {
                            dut.prefetch_fill(addr);
                            reference.prefetch_fill(addr);
                            ("prefetch", true, true)
                        }
                        _ => ("probe", dut.probe(addr), reference.probe(addr)),
                    };
                    assert_eq!(
                        (got, dut.stats()),
                        (want, reference.stats),
                        "{config:?} seed {seed} step {step}: {what} {addr:#x} diverged"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 128,
            ways: 2,
            line_bytes: 24,
        });
    }

    #[test]
    fn validate_accepts_paper_geometries() {
        assert_eq!(CacheConfig::l1_64k().validate(), Ok(()));
        assert_eq!(CacheConfig::l2_2m().validate(), Ok(()));
        assert!(Cache::try_new(CacheConfig::l1_64k()).is_ok());
    }

    #[test]
    fn validate_rejects_zero_fields() {
        for (size_bytes, ways, line_bytes, field) in [
            (0, 4, 64, "size_bytes"),
            (1024, 0, 64, "ways"),
            (1024, 4, 0, "line_bytes"),
        ] {
            let cfg = CacheConfig {
                size_bytes,
                ways,
                line_bytes,
            };
            assert_eq!(cfg.validate(), Err(CacheConfigError::ZeroField { field }));
            assert!(Cache::try_new(cfg).is_err());
        }
    }

    #[test]
    fn validate_rejects_non_power_of_two_line() {
        let cfg = CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 48,
        };
        assert_eq!(
            cfg.validate(),
            Err(CacheConfigError::LineNotPowerOfTwo { line_bytes: 48 })
        );
    }

    #[test]
    fn validate_rejects_truncating_sets() {
        // 1000 / (4 * 64) = 3.9…: the old sets() would silently truncate.
        let cfg = CacheConfig {
            size_bytes: 1000,
            ways: 4,
            line_bytes: 64,
        };
        assert_eq!(
            cfg.validate(),
            Err(CacheConfigError::SizeNotMultiple {
                size_bytes: 1000,
                way_bytes: 256,
            })
        );
        assert!(Cache::try_new(cfg).is_err());
    }

    #[test]
    fn validate_rejects_non_power_of_two_sets() {
        // 3 sets of 2 ways × 64 B: divides exactly but sets = 3.
        let cfg = CacheConfig {
            size_bytes: 384,
            ways: 2,
            line_bytes: 64,
        };
        assert_eq!(
            cfg.validate(),
            Err(CacheConfigError::SetsNotPowerOfTwo { sets: 3 })
        );
    }

    #[test]
    fn config_errors_render_helpfully() {
        let msg = CacheConfigError::SizeNotMultiple {
            size_bytes: 1000,
            way_bytes: 256,
        }
        .to_string();
        assert!(msg.contains("1000") && msg.contains("256"));
    }
}
