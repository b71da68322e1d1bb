//! Tournament branch direction predictor (bimodal + gshare + chooser).
//!
//! The front end of the simulated core predicts conditional-branch
//! directions with a tournament predictor in the style of gem5's O3
//! default: a PC-indexed bimodal table captures biased branches, a gshare
//! table (global history XOR PC) captures correlated/loop patterns, and a
//! per-PC chooser picks whichever component has been performing better.
//! Targets are assumed perfectly predicted (BTB hits), so only direction
//! mispredictions cause redirects — a standard trace-driven
//! simplification.

/// Predictor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches predicted.
    pub predictions: u64,
    /// Direction mispredictions.
    pub mispredictions: u64,
}

impl BranchStats {
    /// Misprediction rate in [0, 1].
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

/// A tournament predictor with 2-bit components.
#[derive(Debug, Clone)]
pub struct Gshare {
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    /// 2-bit chooser: ≥2 selects gshare, <2 selects bimodal.
    chooser: Vec<u8>,
    history: u64,
    history_bits: u32,
    stats: BranchStats,
}

impl Gshare {
    /// Create a predictor with `entries` counters per component (rounded
    /// up to a power of two) and `history_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0` or `history_bits > 24`.
    #[must_use]
    pub fn new(entries: usize, history_bits: u32) -> Self {
        assert!(entries > 0, "need at least one counter");
        assert!(history_bits <= 24, "history too long");
        let n = entries.next_power_of_two();
        Gshare {
            bimodal: vec![2; n], // weakly taken
            gshare: vec![2; n],
            chooser: vec![1; n], // weakly prefer bimodal
            history: 0,
            history_bits,
            stats: BranchStats::default(),
        }
    }

    /// A typical 4K-entry, 12-bit-history configuration.
    #[must_use]
    pub fn default_config() -> Self {
        Gshare::new(4096, 12)
    }

    fn bimodal_slot(&self, pc: u32) -> usize {
        (pc as usize >> 2) & (self.bimodal.len() - 1)
    }

    fn gshare_slot(&self, pc: u32) -> usize {
        ((pc as usize >> 2) ^ (self.history as usize)) & (self.gshare.len() - 1)
    }

    /// Predict the direction of the conditional branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u32) -> bool {
        let b = self.bimodal[self.bimodal_slot(pc)] >= 2;
        let g = self.gshare[self.gshare_slot(pc)] >= 2;
        if self.chooser[self.bimodal_slot(pc)] >= 2 {
            g
        } else {
            b
        }
    }

    /// Predict, then immediately train with the actual direction, returning
    /// whether the prediction was correct. (Trace-driven front ends know
    /// the outcome at fetch; the *cost* of being wrong is modelled by the
    /// pipeline, not here.)
    pub fn predict_and_train(&mut self, pc: u32, taken: bool) -> bool {
        let bslot = self.bimodal_slot(pc);
        let gslot = self.gshare_slot(pc);
        let b_pred = self.bimodal[bslot] >= 2;
        let g_pred = self.gshare[gslot] >= 2;
        let use_gshare = self.chooser[bslot] >= 2;
        let pred = if use_gshare { g_pred } else { b_pred };

        // Chooser trains toward whichever component was right when they
        // disagree.
        let b_ok = b_pred == taken;
        let g_ok = g_pred == taken;
        let c = &mut self.chooser[bslot];
        if g_ok && !b_ok {
            *c = (*c + 1).min(3);
        } else if b_ok && !g_ok {
            *c = c.saturating_sub(1);
        }

        // Both components train on the outcome.
        let upd = |c: &mut u8| {
            if taken {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        };
        upd(&mut self.bimodal[bslot]);
        upd(&mut self.gshare[gslot]);

        // Shift global history.
        let mask = (1u64 << self.history_bits) - 1;
        self.history = ((self.history << 1) | u64::from(taken)) & mask;

        self.stats.predictions += 1;
        let correct = pred == taken;
        if !correct {
            self.stats.mispredictions += 1;
        }
        correct
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> BranchStats {
        self.stats
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_biased_branch() {
        let mut g = Gshare::new(256, 8);
        let mut wrong = 0;
        for _ in 0..100 {
            if !g.predict_and_train(0x40, true) {
                wrong += 1;
            }
        }
        assert!(
            wrong <= 2,
            "biased branch should be learned quickly: {wrong}"
        );
    }

    #[test]
    fn learns_an_alternating_pattern_via_history() {
        let mut g = Gshare::new(1024, 8);
        let mut wrong_late = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            let correct = g.predict_and_train(0x80, taken);
            if i >= 200 && !correct {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late <= 10,
            "alternating pattern should be captured by history: {wrong_late}"
        );
    }

    #[test]
    fn learns_a_short_loop_exit() {
        let mut g = Gshare::default_config();
        // taken 7 of 8 (loop with trip count 8).
        let mut wrong_late = 0;
        for i in 0..800 {
            let taken = i % 8 != 7;
            let correct = g.predict_and_train(0xC0, taken);
            if i >= 400 && !correct {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late <= 20,
            "loop exits should become predictable: {wrong_late}"
        );
    }

    #[test]
    fn biased_branch_resists_history_noise() {
        // A 97%-taken branch interleaved with a pure-noise branch: the
        // chooser must fall back to bimodal for the biased one.
        let mut g = Gshare::default_config();
        let mut x = 0x2343_1234u64;
        let mut biased_wrong_late = 0;
        for i in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            g.predict_and_train(0x200, x & 3 != 0); // noisy-ish
            let taken = !x.is_multiple_of(97); // ~99% taken
            let correct = g.predict_and_train(0x100, taken);
            if i >= 2000 && !correct {
                biased_wrong_late += 1;
            }
        }
        let rate = f64::from(biased_wrong_late) / 2000.0;
        assert!(
            rate < 0.08,
            "biased branch must stay predictable under noise: {rate}"
        );
    }

    #[test]
    fn random_branches_mispredict_often() {
        let mut g = Gshare::default_config();
        let mut x = 0x12345678u64;
        let mut wrong = 0;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if !g.predict_and_train(0x100, x & 1 == 1) {
                wrong += 1;
            }
        }
        let rate = wrong as f64 / 2000.0;
        assert!(rate > 0.3, "random stream should be hard: {rate}");
    }

    #[test]
    fn stats_accumulate() {
        let mut g = Gshare::new(64, 4);
        for i in 0..10 {
            g.predict_and_train(0, i % 3 == 0);
        }
        assert_eq!(g.stats().predictions, 10);
        assert!(g.stats().mispredict_rate() > 0.0);
    }
}
