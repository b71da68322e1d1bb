//! Functional-unit pools.
//!
//! Table I gives per-core ALU / SIMD / FP unit counts; loads and stores use
//! dedicated address-generation ports. Each unit tracks the cycle until
//! which it is busy. Single-cycle operations normally occupy a unit for one
//! execution cycle; a transparent operation whose evaluation crosses a
//! clock boundary holds its unit for **two** cycles (the paper's IT3),
//! which is the FU-pressure cost Fig. 14 measures.

use redsoc_isa::opcode::ExecClass;

/// The four scheduling pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Integer ALUs (also branches, multiplies and divides).
    Alu,
    /// SIMD units.
    Simd,
    /// FP units.
    Fp,
    /// Load/store address-generation ports.
    Mem,
}

impl PoolKind {
    /// Which pool an execution class issues to.
    #[must_use]
    pub fn for_class(class: ExecClass) -> Self {
        match class {
            ExecClass::IntAlu | ExecClass::IntMul | ExecClass::IntDiv | ExecClass::Branch => {
                PoolKind::Alu
            }
            ExecClass::SimdAlu | ExecClass::SimdMul => PoolKind::Simd,
            ExecClass::Fp => PoolKind::Fp,
            ExecClass::Load | ExecClass::Store => PoolKind::Mem,
        }
    }

    /// Stable machine-readable label (event payloads, trace track names).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PoolKind::Alu => "alu",
            PoolKind::Simd => "simd",
            PoolKind::Fp => "fp",
            PoolKind::Mem => "mem",
        }
    }
}

/// One pool of identical functional units.
#[derive(Debug, Clone)]
pub struct FuPool {
    /// Per-unit first free execution cycle.
    free_at: Vec<u64>,
}

impl FuPool {
    /// A pool of `units` units, all initially free.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0`.
    #[must_use]
    pub fn new(units: u32) -> Self {
        assert!(units > 0, "a pool needs at least one unit");
        FuPool {
            free_at: vec![0; units as usize],
        }
    }

    /// Number of units free to start executing at `exec_cycle`.
    #[must_use]
    pub fn free_units(&self, exec_cycle: u64) -> u32 {
        self.free_at.iter().filter(|&&f| f <= exec_cycle).count() as u32
    }

    /// Reserve one unit for `occupancy` execution cycles starting at
    /// `exec_cycle`. Returns the index of the unit bound (the event-trace
    /// track id), or `None` (reserving nothing) if no unit is free.
    pub fn reserve(&mut self, exec_cycle: u64, occupancy: u32) -> Option<u32> {
        debug_assert!(occupancy >= 1);
        if let Some((i, f)) = self
            .free_at
            .iter_mut()
            .enumerate()
            .find(|(_, f)| **f <= exec_cycle)
        {
            *f = exec_cycle + u64::from(occupancy);
            Some(i as u32)
        } else {
            None
        }
    }

    /// Total units in the pool.
    #[must_use]
    pub fn units(&self) -> u32 {
        self.free_at.len() as u32
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn class_to_pool_mapping() {
        assert_eq!(PoolKind::for_class(ExecClass::IntAlu), PoolKind::Alu);
        assert_eq!(PoolKind::for_class(ExecClass::Branch), PoolKind::Alu);
        assert_eq!(PoolKind::for_class(ExecClass::IntDiv), PoolKind::Alu);
        assert_eq!(PoolKind::for_class(ExecClass::SimdAlu), PoolKind::Simd);
        assert_eq!(PoolKind::for_class(ExecClass::SimdMul), PoolKind::Simd);
        assert_eq!(PoolKind::for_class(ExecClass::Fp), PoolKind::Fp);
        assert_eq!(PoolKind::for_class(ExecClass::Load), PoolKind::Mem);
        assert_eq!(PoolKind::for_class(ExecClass::Store), PoolKind::Mem);
    }

    #[test]
    fn reserve_and_release() {
        let mut p = FuPool::new(2);
        assert_eq!(p.free_units(5), 2);
        assert_eq!(p.reserve(5, 1), Some(0));
        assert_eq!(p.free_units(5), 1);
        assert_eq!(p.reserve(5, 2), Some(1)); // two-cycle transparent hold
        assert_eq!(p.free_units(5), 0);
        assert_eq!(p.reserve(5, 1), None);
        // Cycle 6: the 1-cycle reservation expired, the 2-cycle one has not.
        assert_eq!(p.free_units(6), 1);
        assert_eq!(p.free_units(7), 2);
    }

    #[test]
    fn divide_occupies_for_full_latency() {
        let mut p = FuPool::new(1);
        assert!(p.reserve(10, 12).is_some());
        for c in 10..22 {
            assert_eq!(p.free_units(c), 0, "cycle {c}");
        }
        assert_eq!(p.free_units(22), 1);
    }

    #[test]
    fn pool_labels_are_stable() {
        assert_eq!(PoolKind::Alu.label(), "alu");
        assert_eq!(PoolKind::Simd.label(), "simd");
        assert_eq!(PoolKind::Fp.label(), "fp");
        assert_eq!(PoolKind::Mem.label(), "mem");
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_pool_rejected() {
        let _ = FuPool::new(0);
    }
}
