//! Loh-style resetting-counter data-width predictor (paper §II-B).
//!
//! Width slack requires knowing operand widths at *scheduling* time, before
//! operand values exist. The paper adopts Loh's predictor (MICRO 2002): a
//! PC-indexed table whose entries hold the most recent width class and a
//! k-bit confidence counter. Prediction is conservative (full width) until
//! the counter saturates; a mismatch resets the counter and records the new
//! width.
//!
//! Mispredictions split into:
//! - **conservative** (predicted wider than actual): lost recycling
//!   opportunity only, functionally safe;
//! - **aggressive** (predicted narrower than actual): would violate timing —
//!   detected at execute by checking the high operand bits, recovered by
//!   selective reissue (like a cache-miss replay). The paper reports
//!   0.3–0.4% aggressive mispredictions with a 4K-entry table.
//!
//! The simulated core's table holds [`DEFAULT_ENTRIES`] entries of 2
//! width bits plus [`DEFAULT_CONF_BITS`] confidence bits: 4,096 × 5 bits
//! = 2,560 B of state, where the paper quotes ~1.5 KB.

use crate::slack::WidthClass;

/// Table size used in the paper's evaluation, and by the simulated core.
pub const DEFAULT_ENTRIES: usize = 4096;
/// Confidence-counter width (k bits) of the simulated core's predictor.
pub const DEFAULT_CONF_BITS: u8 = 3;

/// The outcome of one width prediction, judged at execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthOutcome {
    /// Predicted class equals the actual class.
    Exact,
    /// Predicted wider than actual: safe, some slack unexploited.
    Conservative,
    /// Predicted narrower than actual: requires selective reissue.
    Aggressive,
}

/// Aggregate predictor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WidthPredictorStats {
    /// Total predictions made.
    pub predictions: u64,
    /// Exact predictions.
    pub exact: u64,
    /// Conservative mispredictions.
    pub conservative: u64,
    /// Aggressive mispredictions.
    pub aggressive: u64,
}

impl WidthPredictorStats {
    /// Aggressive misprediction rate in [0, 1].
    #[must_use]
    pub fn aggressive_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.aggressive as f64 / self.predictions as f64
        }
    }

    /// Conservative misprediction rate in [0, 1].
    #[must_use]
    pub fn conservative_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.conservative as f64 / self.predictions as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    width: WidthClass,
    conf: u8,
}

/// The resetting-counter width predictor.
///
/// ```
/// use redsoc_timing::width_predictor::WidthPredictor;
/// use redsoc_timing::slack::WidthClass;
///
/// let mut p = WidthPredictor::new(1024, 2);
/// // Until confidence builds, predictions are conservative full-width.
/// assert_eq!(p.predict(0x40), WidthClass::W32);
/// for _ in 0..4 {
///     let pred = p.predict(0x40);
///     p.update(0x40, pred, WidthClass::W8);
/// }
/// // A stable narrow producer is now predicted narrow.
/// assert_eq!(p.predict(0x40), WidthClass::W8);
/// ```
#[derive(Debug, Clone)]
pub struct WidthPredictor {
    entries: Vec<Entry>,
    conf_max: u8,
    stats: WidthPredictorStats,
}

impl WidthPredictor {
    /// Create a predictor with `entries` slots (rounded up to a power of
    /// two) and `conf_bits`-bit confidence counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0` or `conf_bits == 0 || conf_bits > 7`.
    #[must_use]
    pub fn new(entries: usize, conf_bits: u8) -> Self {
        assert!(entries > 0, "predictor needs at least one entry");
        assert!(
            (1..=7).contains(&conf_bits),
            "confidence bits must be in 1..=7"
        );
        let n = entries.next_power_of_two();
        assert!(n.is_power_of_two(), "table size must be a power of two");
        WidthPredictor {
            entries: vec![
                Entry {
                    width: WidthClass::W32,
                    conf: 0
                };
                n
            ],
            conf_max: (1 << conf_bits) - 1,
            stats: WidthPredictorStats::default(),
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
        // Word-PC indexing: drop the byte-offset bits. The mask is a
        // correct modulo *only* because the constructor rounds the table to
        // a power of two.
        debug_assert!(self.entries.len().is_power_of_two());
        (pc as usize >> 2) & (self.entries.len() - 1)
    }

    /// Predict the width class of the instruction at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u32) -> WidthClass {
        let e = &self.entries[self.slot(pc)];
        if e.conf >= self.conf_max {
            e.width
        } else {
            WidthClass::W32
        }
    }

    /// Train with the actual width observed at execute, scoring the
    /// prediction that was acted on.
    pub fn update(&mut self, pc: u32, predicted: WidthClass, actual: WidthClass) -> WidthOutcome {
        let slot = self.slot(pc);
        let e = &mut self.entries[slot];
        if e.width == actual {
            e.conf = (e.conf + 1).min(self.conf_max);
        } else {
            e.width = actual;
            e.conf = 0;
        }
        self.stats.predictions += 1;

        match predicted.cmp(&actual) {
            core::cmp::Ordering::Equal => {
                self.stats.exact += 1;
                WidthOutcome::Exact
            }
            core::cmp::Ordering::Greater => {
                self.stats.conservative += 1;
                WidthOutcome::Conservative
            }
            core::cmp::Ordering::Less => {
                self.stats.aggressive += 1;
                WidthOutcome::Aggressive
            }
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> WidthPredictorStats {
        self.stats
    }

    /// Total predictor state in bytes: per entry, 2 width bits plus the
    /// confidence counter (2,560 B at the simulated core's 4,096 entries
    /// and 3 confidence bits; the paper quotes ~1.5 KB for 4K entries).
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        let bits_per_entry = 2 + (8 - self.conf_max.leading_zeros() as usize);
        self.entries.len() * bits_per_entry / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_predictor_is_conservative() {
        let p = WidthPredictor::new(64, 2);
        assert_eq!(p.predict(0), WidthClass::W32);
        assert_eq!(p.predict(0xFFF0), WidthClass::W32);
    }

    #[test]
    fn confidence_gates_narrow_predictions() {
        let mut p = WidthPredictor::new(64, 2);
        // The first W8 observation resets the entry (stored W32 mismatch);
        // confidence must then climb to 3 (2 bits): four updates in total.
        for i in 0..4 {
            assert_eq!(p.predict(4), WidthClass::W32, "iteration {i}");
            let pred = p.predict(4);
            p.update(4, pred, WidthClass::W8);
        }
        assert_eq!(p.predict(4), WidthClass::W8);
    }

    #[test]
    fn mismatch_resets_to_conservative() {
        let mut p = WidthPredictor::new(64, 2);
        for _ in 0..4 {
            let pred = p.predict(4);
            p.update(4, pred, WidthClass::W8);
        }
        assert_eq!(p.predict(4), WidthClass::W8);
        // A wide value flips the entry and resets confidence.
        let pred = p.predict(4);
        let out = p.update(4, pred, WidthClass::W32);
        assert_eq!(out, WidthOutcome::Aggressive);
        assert_eq!(p.predict(4), WidthClass::W32);
    }

    #[test]
    fn outcome_classification() {
        let mut p = WidthPredictor::new(64, 1);
        assert_eq!(
            p.update(0, WidthClass::W32, WidthClass::W32),
            WidthOutcome::Exact
        );
        assert_eq!(
            p.update(0, WidthClass::W32, WidthClass::W8),
            WidthOutcome::Conservative
        );
        assert_eq!(
            p.update(0, WidthClass::W8, WidthClass::W16),
            WidthOutcome::Aggressive
        );
        let s = p.stats();
        assert_eq!(s.predictions, 3);
        assert_eq!(s.exact, 1);
        assert_eq!(s.conservative, 1);
        assert_eq!(s.aggressive, 1);
    }

    #[test]
    fn stable_stream_has_low_aggressive_rate() {
        let mut p = WidthPredictor::new(DEFAULT_ENTRIES, DEFAULT_CONF_BITS);
        // 95% narrow with occasional wide bursts at the same PC.
        for i in 0..10_000u32 {
            let actual = if i % 100 < 95 {
                WidthClass::W8
            } else {
                WidthClass::W32
            };
            let pred = p.predict(0x100);
            p.update(0x100, pred, actual);
        }
        let s = p.stats();
        assert!(s.aggressive_rate() < 0.06, "rate {}", s.aggressive_rate());
    }

    #[test]
    fn simulated_configuration_holds_2560_bytes() {
        let p = WidthPredictor::new(DEFAULT_ENTRIES, DEFAULT_CONF_BITS);
        assert_eq!(p.state_bytes(), 4096 * (2 + 3) / 8);
    }

    #[test]
    fn distinct_pcs_use_distinct_entries() {
        let mut p = WidthPredictor::new(1024, 1);
        for _ in 0..2 {
            let pr = p.predict(0x0);
            p.update(0x0, pr, WidthClass::W8);
            let pr = p.predict(0x4);
            p.update(0x4, pr, WidthClass::W32);
        }
        assert_eq!(p.predict(0x0), WidthClass::W8);
        assert_eq!(p.predict(0x4), WidthClass::W32);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let _ = WidthPredictor::new(0, 2);
    }

    #[test]
    fn non_power_of_two_size_rounds_up_and_hits_every_slot() {
        // A 100-entry request must become 128 slots. With a raw
        // `& (len - 1)` over a 100-entry table (`& 99` = 0b1100011), index
        // bits 2–4 would be silently dropped — word-PC 36 would alias onto
        // 32 — and narrow/wide training at the aliased PCs would corrupt
        // each other.
        let mut p = WidthPredictor::new(100, 1);
        assert_eq!(p.capacity(), 128);
        // Period-3 width pattern: any masked-bit aliasing pairs at least
        // two slots with different widths, so cross-training shows up as a
        // wrong (conservative W32 or wrong-class) prediction below.
        let width = |slot: u32| match slot % 3 {
            0 => WidthClass::W8,
            1 => WidthClass::W16,
            _ => WidthClass::W32,
        };
        for slot in 0..128u32 {
            for _ in 0..3 {
                let pc = slot * 4;
                let pred = p.predict(pc);
                p.update(pc, pred, width(slot));
            }
        }
        for slot in 0..128u32 {
            assert_eq!(p.predict(slot * 4), width(slot), "slot {slot} aliased");
        }
    }
}
