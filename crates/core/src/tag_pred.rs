//! Last-arriving-operand tag predictor (operational design, §IV-C).
//!
//! The illustrative slack-aware RSE needs 2 parent + 4 grandparent tags —
//! too many CAM ports. The operational design keeps *one* parent and *one*
//! grandparent tag by predicting, per static instruction, which of its two
//! source operands arrives last (building on Ernst & Austin's tag
//! elimination). Predictions are validated by a register scoreboard at
//! register read; a wrong prediction is recovered like a latency
//! misprediction, at small penalty. The paper measures ≈1% misprediction
//! (Fig. 12), slightly worse on larger cores.
//!
//! The table is PC-indexed: one direction bit ("operand 1 arrives last")
//! plus a 2-bit confidence counter per entry. Instructions with fewer than
//! two unresolved register sources need no prediction, and unconfident
//! entries decline to predict (conventional wakeup instead).

/// Predictor statistics (the Fig. 12 measurement).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagPredStats {
    /// Predictions consumed at wakeup (two-source instructions only).
    pub predictions: u64,
    /// Mispredictions detected by the scoreboard.
    pub mispredictions: u64,
}

impl TagPredStats {
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

/// Which of an instruction's (up to two) register sources is predicted to
/// arrive last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LastArrival {
    /// Source operand 0.
    Src0,
    /// Source operand 1.
    Src1,
}

impl LastArrival {
    /// The operand position as an index.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            LastArrival::Src0 => 0,
            LastArrival::Src1 => 1,
        }
    }
}

/// PC-indexed last-arrival predictor with confidence gating (paper: 1K
/// entries; 1 direction bit per entry plus a small confidence counter).
///
/// Prediction is only *used* once the entry's arrival order has repeated —
/// an instruction whose operand order genuinely alternates (competing
/// dependence chains of similar latency) falls back to conventional
/// two-tag wakeup instead of paying recovery penalties. This is what keeps
/// the measured misprediction rate at the paper's ≈1% level.
#[derive(Debug, Clone)]
pub struct TagPredictor {
    entries: Vec<Entry>,
    stats: TagPredStats,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    last_is_src1: bool,
    conf: u8,
}

/// Confidence ceiling (2-bit counter).
const CONF_MAX: u8 = 3;

impl TagPredictor {
    /// Create a predictor with `entries` slots (rounded up to a power of
    /// two).
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "need at least one entry");
        let n = entries.next_power_of_two();
        assert!(n.is_power_of_two(), "table size must be a power of two");
        TagPredictor {
            entries: vec![
                Entry {
                    last_is_src1: true,
                    conf: 0
                };
                n
            ],
            stats: TagPredStats::default(),
        }
    }

    /// Actual table capacity (the requested size rounded up to a power of
    /// two — the `slot` mask below is only a modulo for power-of-two
    /// sizes).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    fn slot(&self, pc: u32) -> usize {
        // Word-PC indexing. The mask is a correct modulo *only* because the
        // constructor rounds the table to a power of two.
        debug_assert!(self.entries.len().is_power_of_two());
        (pc as usize >> 2) & (self.entries.len() - 1)
    }

    /// Predict which source of the instruction at `pc` arrives last, or
    /// `None` if the entry is not yet confident (the scheduler then uses
    /// conventional all-operand wakeup).
    #[must_use]
    pub fn predict(&self, pc: u32) -> Option<LastArrival> {
        let e = self.entries[self.slot(pc)];
        (e.conf >= CONF_MAX).then_some({
            if e.last_is_src1 {
                LastArrival::Src1
            } else {
                LastArrival::Src0
            }
        })
    }

    /// Train with the observed last-arriving source and score the
    /// prediction that scheduling acted on. Returns `true` when correct.
    pub fn update(&mut self, pc: u32, predicted: LastArrival, actual: LastArrival) -> bool {
        self.train_only(pc, actual);
        self.stats.predictions += 1;
        let correct = predicted == actual;
        if !correct {
            self.stats.mispredictions += 1;
        }
        correct
    }

    /// Train without scoring (used when no prediction was consumed, e.g.
    /// during the confidence warm-up or a fallback issue).
    pub fn train_only(&mut self, pc: u32, actual: LastArrival) {
        let slot = self.slot(pc);
        let e = &mut self.entries[slot];
        if e.last_is_src1 == (actual == LastArrival::Src1) {
            e.conf = (e.conf + 1).min(CONF_MAX);
        } else {
            e.last_is_src1 = actual == LastArrival::Src1;
            e.conf = 0;
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> TagPredStats {
        self.stats
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn stable_arrival_order_is_learned() {
        let mut p = TagPredictor::new(64);
        // Warm up: unconfident entries make no prediction.
        for _ in 0..4 {
            assert_eq!(p.predict(0x10), None);
            p.train_only(0x10, LastArrival::Src0);
        }
        for _ in 0..20 {
            let pr = p.predict(0x10).expect("confident after warm-up");
            assert_eq!(pr, LastArrival::Src0);
            p.update(0x10, pr, LastArrival::Src0);
        }
        assert!(p.stats().mispredict_rate() < 0.1);
    }

    #[test]
    fn flapping_order_yields_no_predictions() {
        let mut p = TagPredictor::new(64);
        let mut predicted = 0;
        for i in 0..100 {
            let actual = if i % 2 == 0 {
                LastArrival::Src0
            } else {
                LastArrival::Src1
            };
            match p.predict(0x20) {
                Some(pr) => {
                    predicted += 1;
                    p.update(0x20, pr, actual);
                }
                None => p.train_only(0x20, actual),
            }
        }
        assert_eq!(
            predicted, 0,
            "alternation never builds confidence, so no costly predictions are made"
        );
    }

    #[test]
    fn distinct_pcs_are_independent() {
        let mut p = TagPredictor::new(1024);
        for _ in 0..4 {
            p.train_only(0x0, LastArrival::Src0);
            p.train_only(0x4, LastArrival::Src1);
        }
        assert_eq!(p.predict(0x0), Some(LastArrival::Src0));
        assert_eq!(p.predict(0x4), Some(LastArrival::Src1));
    }

    #[test]
    fn non_power_of_two_size_rounds_up_and_hits_every_slot() {
        // A 100-entry request must become 128 slots; with a raw
        // `& (len - 1)` over 100 entries (`& 99` = 0b1100011), word-PCs
        // 32..64 would alias onto 0..32 and bits 2–4 of the index would be
        // masked off entirely.
        let mut p = TagPredictor::new(100);
        assert_eq!(p.capacity(), 128);
        // Train every slot with a period-3 direction pattern (a period-2
        // pattern would survive the aliasing, which preserves bit 0); any
        // aliasing cross-trains two PCs and destroys one's confidence.
        let dir = |slot: u32| {
            if slot.is_multiple_of(3) {
                LastArrival::Src0
            } else {
                LastArrival::Src1
            }
        };
        for slot in 0..128u32 {
            for _ in 0..4 {
                p.train_only(slot * 4, dir(slot));
            }
        }
        for slot in 0..128u32 {
            assert_eq!(p.predict(slot * 4), Some(dir(slot)), "slot {slot} aliased");
        }
    }

    #[test]
    fn mispredict_resets_confidence() {
        let mut p = TagPredictor::new(64);
        for _ in 0..4 {
            p.train_only(0x8, LastArrival::Src1);
        }
        assert!(p.predict(0x8).is_some());
        let pr = p.predict(0x8).unwrap();
        assert!(
            !p.update(0x8, pr, LastArrival::Src0),
            "wrong prediction scored"
        );
        assert_eq!(p.predict(0x8), None, "confidence must reset after a flip");
    }
}
