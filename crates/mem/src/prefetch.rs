//! PC-indexed stride prefetcher.
//!
//! Table I specifies "L1/L2 cache w/ prefetch". This is the classic
//! reference-prediction-table design: each entry tracks the last address
//! and stride observed by one load PC with a 2-bit confidence state; once a
//! stride repeats, the prefetcher issues fills `degree` strides ahead.

/// One training observation's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Initial,
    Transient,
    Steady,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    valid: bool,
    pc_tag: u32,
    last_addr: u64,
    stride: i64,
    state: State,
}

impl Default for Entry {
    fn default() -> Self {
        Entry {
            valid: false,
            pc_tag: 0,
            last_addr: 0,
            stride: 0,
            state: State::Initial,
        }
    }
}

/// Prefetcher statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Training observations.
    pub trains: u64,
    /// Prefetch addresses emitted.
    pub issued: u64,
}

/// The prefetch addresses one training observation emits, in order:
/// `addr + k * stride` for `k = 1..=degree`, skipping any below address
/// 0. A plain iterator over integers, so training never touches the
/// heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchTargets {
    addr: u64,
    stride: i64,
    k: u32,
    degree: u32,
}

impl Iterator for PrefetchTargets {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.k < self.degree {
            self.k += 1;
            let target = self.addr as i64 + self.stride * i64::from(self.k);
            if target >= 0 {
                return Some(target as u64);
            }
        }
        None
    }
}

/// A stride prefetcher trained on the demand-load address stream.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    entries: Vec<Entry>,
    degree: u32,
    stats: PrefetchStats,
}

impl StridePrefetcher {
    /// Create a prefetcher with `entries` table slots (rounded to a power
    /// of two) issuing `degree` prefetches ahead on steady strides.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0` or `degree == 0`.
    #[must_use]
    pub fn new(entries: usize, degree: u32) -> Self {
        assert!(entries > 0 && degree > 0);
        StridePrefetcher {
            entries: vec![Entry::default(); entries.next_power_of_two()],
            degree,
            stats: PrefetchStats::default(),
        }
    }

    /// A typical 256-entry, degree-2 configuration.
    #[must_use]
    pub fn default_config() -> Self {
        StridePrefetcher::new(256, 2)
    }

    /// Train on a demand load and return the prefetch addresses to fill
    /// (empty unless the entry is in the steady state).
    pub fn train(&mut self, pc: u32, addr: u64) -> PrefetchTargets {
        self.stats.trains += 1;
        let mask = self.entries.len() - 1;
        let slot = (pc as usize >> 2) & mask;
        let e = &mut self.entries[slot];
        let mut out = PrefetchTargets {
            addr,
            ..PrefetchTargets::default()
        };
        if !e.valid || e.pc_tag != pc {
            *e = Entry {
                valid: true,
                pc_tag: pc,
                last_addr: addr,
                stride: 0,
                state: State::Initial,
            };
            return out;
        }
        let stride = addr as i64 - e.last_addr as i64;
        match e.state {
            State::Initial => {
                e.stride = stride;
                e.state = State::Transient;
            }
            State::Transient | State::Steady => {
                if stride == e.stride && stride != 0 {
                    e.state = State::Steady;
                    out.stride = stride;
                    out.degree = self.degree;
                } else {
                    e.stride = stride;
                    e.state = State::Transient;
                }
            }
        }
        e.last_addr = addr;
        // `PrefetchTargets` is `Copy`: counting consumes a copy.
        self.stats.issued += out.count() as u64;
        out
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests {
    use super::*;

    /// Train and collect the emitted targets.
    fn fills(p: &mut StridePrefetcher, pc: u32, addr: u64) -> Vec<u64> {
        p.train(pc, addr).collect()
    }

    #[test]
    fn steady_stride_prefetches_ahead() {
        let mut p = StridePrefetcher::new(16, 2);
        assert!(fills(&mut p, 0x40, 1000).is_empty()); // allocate
        assert!(fills(&mut p, 0x40, 1064).is_empty()); // learn stride 64
        let pf = fills(&mut p, 0x40, 1128); // confirm
        assert_eq!(pf, vec![1192, 1256]);
        let pf = fills(&mut p, 0x40, 1192);
        assert_eq!(pf, vec![1256, 1320]);
    }

    #[test]
    fn stride_change_retrains() {
        let mut p = StridePrefetcher::new(16, 1);
        p.train(0x40, 1000);
        p.train(0x40, 1064);
        assert!(!fills(&mut p, 0x40, 1128).is_empty());
        assert!(
            fills(&mut p, 0x40, 5000).is_empty(),
            "broken stride stops prefetching"
        );
        assert!(fills(&mut p, 0x40, 5008).is_empty(), "transient again");
        assert_eq!(fills(&mut p, 0x40, 5016), vec![5024]);
    }

    #[test]
    fn zero_stride_never_prefetches() {
        let mut p = StridePrefetcher::new(16, 2);
        for _ in 0..5 {
            assert!(fills(&mut p, 0x40, 777).is_empty());
        }
    }

    #[test]
    fn descending_stride_drops_targets_below_zero() {
        let mut p = StridePrefetcher::new(16, 3);
        p.train(0x40, 300);
        p.train(0x40, 200);
        assert_eq!(fills(&mut p, 0x40, 100), vec![0]);
        assert_eq!(p.stats().issued, 1);
    }

    #[test]
    fn distinct_pcs_do_not_interfere() {
        let mut p = StridePrefetcher::new(16, 1);
        p.train(0x40, 0);
        p.train(0x44, 100_000);
        p.train(0x40, 64);
        p.train(0x44, 100_008);
        assert_eq!(fills(&mut p, 0x40, 128), vec![192]);
        assert_eq!(fills(&mut p, 0x44, 100_016), vec![100_024]);
    }

    #[test]
    fn stats_track_issue_volume() {
        let mut p = StridePrefetcher::new(16, 2);
        p.train(0x40, 0);
        p.train(0x40, 64);
        p.train(0x40, 128);
        let s = p.stats();
        assert_eq!(s.trains, 3);
        assert_eq!(s.issued, 2);
    }

    /// A from-scratch reference model of the reference-prediction-table
    /// contract, written step-by-step rather than table-slot-by-slot so a
    /// shared bug is unlikely: per mapped slot, remember `(owner_pc,
    /// last_addr, stride, confirmations)`; a training observation whose
    /// stride matches the remembered one (and is non-zero) after at least
    /// one prior stride observation emits `degree` prefetches at
    /// `addr + k*stride`, clamped to non-negative addresses.
    struct RefModel {
        slots: Vec<Option<(u32, u64, i64, u32)>>,
        degree: u32,
        /// Targets emitted so far.
        issued: u64,
    }

    impl RefModel {
        fn new(entries: usize, degree: u32) -> Self {
            RefModel {
                slots: vec![None; entries.next_power_of_two()],
                degree,
                issued: 0,
            }
        }

        fn train(&mut self, pc: u32, addr: u64) -> Vec<u64> {
            let slot = (pc as usize >> 2) & (self.slots.len() - 1);
            let prior = self.slots[slot];
            match prior {
                Some((owner, last, stride, seen)) if owner == pc => {
                    let s = addr as i64 - last as i64;
                    let confirmed = seen >= 1 && s == stride && s != 0;
                    let seen = if confirmed { seen + 1 } else { 1 };
                    self.slots[slot] = Some((pc, addr, s, seen));
                    if confirmed {
                        let out: Vec<u64> = (1..=self.degree)
                            .map(|k| addr as i64 + s * i64::from(k))
                            .filter(|&a| a >= 0)
                            .map(|a| a as u64)
                            .collect();
                        self.issued += out.len() as u64;
                        out
                    } else {
                        Vec::new()
                    }
                }
                _ => {
                    self.slots[slot] = Some((pc, addr, 0, 0));
                    Vec::new()
                }
            }
        }
    }

    /// Deterministic LCG so the property sweeps need no external crates.
    pub(crate) fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 16
    }

    #[test]
    fn property_matches_reference_model_on_random_streams() {
        for seed in 0..32u64 {
            let degree = 1 + (seed % 3) as u32;
            let mut dut = StridePrefetcher::new(32, degree);
            let mut reference = RefModel::new(32, degree);
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            // A handful of PCs, each either strided or random.
            let pcs: Vec<(u32, Option<i64>)> = (0..6)
                .map(|i| {
                    let pc = 0x400 + i * 4;
                    let strided = lcg(&mut rng).is_multiple_of(2);
                    let stride = if strided {
                        Some(((lcg(&mut rng) % 256) as i64 - 128).max(1))
                    } else {
                        None
                    };
                    (pc, stride)
                })
                .collect();
            let mut cursors: Vec<u64> = pcs.iter().map(|_| lcg(&mut rng) % 0x10000).collect();
            for step in 0..400 {
                let which = (lcg(&mut rng) as usize) % pcs.len();
                let (pc, stride) = pcs[which];
                let addr = match stride {
                    Some(s) => {
                        let a = cursors[which];
                        cursors[which] = (a as i64 + s).max(0) as u64;
                        a
                    }
                    None => lcg(&mut rng) % 0x10000,
                };
                let got = fills(&mut dut, pc, addr);
                let want = reference.train(pc, addr);
                assert_eq!(
                    got, want,
                    "seed {seed} step {step}: pc {pc:#x} addr {addr:#x} diverged"
                );
                assert_eq!(
                    dut.stats().issued,
                    reference.issued,
                    "seed {seed} step {step}: issued count diverged"
                );
            }
        }
    }

    #[test]
    fn property_non_strided_stream_never_prefetches() {
        // A walk whose delta never repeats two steps in a row: the
        // Transient→Steady confirmation can never fire, so the
        // prefetcher must stay silent for the whole stream.
        let mut p = StridePrefetcher::new(64, 2);
        let mut rng = 0xDEAD_BEEFu64;
        let mut addr = 0x8000u64;
        let mut last_delta = 0i64;
        for step in 0..500 {
            let mut delta = (lcg(&mut rng) % 1000) as i64 + 1;
            if delta == last_delta {
                delta += 1;
            }
            last_delta = delta;
            addr = (addr as i64 + delta).max(0) as u64;
            assert!(
                fills(&mut p, 0x80, addr).is_empty(),
                "step {step}: prefetch on a never-repeating stride stream"
            );
        }
    }

    #[test]
    fn property_degree_controls_emission_count() {
        for degree in 1..=4u32 {
            let mut p = StridePrefetcher::new(16, degree);
            p.train(0x40, 1000);
            p.train(0x40, 1064);
            let pf = fills(&mut p, 0x40, 1128);
            assert_eq!(pf.len(), degree as usize);
            for (k, a) in pf.iter().enumerate() {
                assert_eq!(*a, 1128 + 64 * (k as u64 + 1));
            }
        }
    }
}
