//! PVT guard-band model with critical-path-monitor recalibration (§V).
//!
//! The paper's headline results isolate *data* slack by assuming the
//! worst-case PVT (process/voltage/temperature) corner. Under nominal
//! conditions an additional guard band exists; real designs measure it with
//! Critical Path Monitors (CPMs) near the ALUs and recalibrate the slack
//! LUT on the fly at a coarse granularity (the paper adopts Tribeca's
//! 10 000-cycle tuning epochs).
//!
//! This model produces a slowly drifting guard band — a deterministic
//! random walk around a nominal value, sampled once per epoch — which can be
//! added to every slack bucket via
//! [`SlackLut::with_guard_band`](crate::slack::SlackLut::with_guard_band).

/// Recalibration epoch from Tribeca (cycles).
pub const EPOCH_CYCLES: u64 = 10_000;

/// A deterministic PVT guard-band generator.
///
/// The guard band follows a bounded random walk: each epoch moves the value
/// by at most `step_ps`, clamped to `[0, max_ps]`. The walk is seeded, so
/// simulations are reproducible.
#[derive(Debug, Clone)]
pub struct PvtModel {
    nominal_ps: u32,
    max_ps: u32,
    step_ps: u32,
    state: u64,
    current_epoch: u64,
    current_ps: u32,
}

impl PvtModel {
    /// Create a model with a `nominal_ps` guard band that drifts by up to
    /// `step_ps` per epoch, bounded by `max_ps`.
    #[must_use]
    pub fn new(nominal_ps: u32, max_ps: u32, step_ps: u32, seed: u64) -> Self {
        PvtModel {
            nominal_ps,
            max_ps,
            step_ps,
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
            current_epoch: u64::MAX,
            current_ps: nominal_ps,
        }
    }

    /// A disabled model: zero guard band (worst-case corner), matching the
    /// paper's headline configuration.
    #[must_use]
    pub fn worst_case() -> Self {
        PvtModel::new(0, 0, 0, 0)
    }

    /// A nominal-conditions model: ~5% of the 500 ps clock period, drifting
    /// by up to 5 ps per epoch.
    #[must_use]
    pub fn nominal() -> Self {
        PvtModel::new(25, 50, 5, 42)
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — deterministic, cheap.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The exploitable guard band (ps) at `cycle`, constant within an epoch
    /// and recalibrated (via simulated CPM readout) at epoch boundaries.
    pub fn guard_band_ps(&mut self, cycle: u64) -> u32 {
        let epoch = cycle / EPOCH_CYCLES;
        if epoch != self.current_epoch {
            // Advance the walk once per elapsed epoch for determinism even
            // when epochs are skipped.
            if self.current_epoch == u64::MAX {
                self.current_ps = self.nominal_ps;
            }
            self.current_epoch = epoch;
            if self.step_ps > 0 {
                let r = self.next_rand();
                let delta =
                    (r % (2 * u64::from(self.step_ps) + 1)) as i64 - i64::from(self.step_ps);
                let next = i64::from(self.current_ps) + delta;
                self.current_ps = next.clamp(0, i64::from(self.max_ps)) as u32;
            }
        }
        self.current_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_has_no_guard_band() {
        let mut m = PvtModel::worst_case();
        for c in [0u64, 5_000, 100_000, 1_000_000] {
            assert_eq!(m.guard_band_ps(c), 0);
        }
    }

    #[test]
    fn constant_within_an_epoch() {
        let mut m = PvtModel::nominal();
        let a = m.guard_band_ps(0);
        let b = m.guard_band_ps(EPOCH_CYCLES - 1);
        assert_eq!(a, b);
    }

    #[test]
    fn bounded_drift() {
        let mut m = PvtModel::nominal();
        let mut prev = m.guard_band_ps(0);
        for e in 1..200u64 {
            let g = m.guard_band_ps(e * EPOCH_CYCLES);
            assert!(g <= 50, "guard band {g} exceeds bound");
            assert!(
                (i64::from(g) - i64::from(prev)).unsigned_abs() <= 5,
                "step too large"
            );
            prev = g;
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = PvtModel::nominal();
        let mut b = PvtModel::nominal();
        for e in 0..50u64 {
            assert_eq!(
                a.guard_band_ps(e * EPOCH_CYCLES),
                b.guard_band_ps(e * EPOCH_CYCLES)
            );
        }
    }
}
