//! Slack classification: buckets, the 5-bit LUT address and the slack
//! look-up table (paper §II-B, Fig. 3).
//!
//! Static circuit-level timing analysis at design time measures computation
//! times for coarse *classes* of operations; at run time each single-cycle
//! operation is classified into one of **14 slack buckets** and its compute
//! time read from a small LUT. The address has five bits:
//!
//! ```text
//!   [ arith/logic | shift | simd | width-or-type (2 bits) ]
//! ```
//!
//! - scalar **arithmetic** ops: 2 (shift) × 4 (width) = 8 buckets
//! - scalar **logical** ops: 2 (shift) buckets — no carry chain, so the
//!   width bits are don't-cares
//! - **SIMD** ops: 4 buckets by lane type — arith/logic and shift bits are
//!   don't-cares (Fig. 3)
//!
//! 8 + 2 + 4 = 14, matching the paper. Bucket compute times are the
//! *worst case over the bucket's members*, which keeps the mechanism
//! timing-non-speculative: an operation never takes longer than its
//! bucket's LUT entry.

use redsoc_isa::instruction::Instr;
use redsoc_isa::opcode::{AluOp, SimdOp, SimdType};

use crate::optime::{alu_compute_ps, simd_compute_ps, CYCLE_PS};

/// Predicted/observed operand width class (the 2-bit Width field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WidthClass {
    /// Effective width ≤ 8 bits.
    W8,
    /// Effective width ≤ 16 bits.
    W16,
    /// Effective width ≤ 24 bits.
    W24,
    /// Effective width ≤ 32 bits (full word).
    W32,
}

impl WidthClass {
    /// All width classes, narrowest first.
    pub const ALL: [WidthClass; 4] = [
        WidthClass::W8,
        WidthClass::W16,
        WidthClass::W24,
        WidthClass::W32,
    ];

    /// Classify an effective bit count.
    #[must_use]
    pub fn from_bits(bits: u8) -> Self {
        match bits {
            0..=8 => WidthClass::W8,
            9..=16 => WidthClass::W16,
            17..=24 => WidthClass::W24,
            _ => WidthClass::W32,
        }
    }

    /// Upper bound of the class in bits.
    #[must_use]
    pub fn max_bits(self) -> u8 {
        match self {
            WidthClass::W8 => 8,
            WidthClass::W16 => 16,
            WidthClass::W24 => 24,
            WidthClass::W32 => 32,
        }
    }

    /// 2-bit field encoding.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            WidthClass::W8 => 0,
            WidthClass::W16 => 1,
            WidthClass::W24 => 2,
            WidthClass::W32 => 3,
        }
    }
}

/// A slack bucket: one of the paper's 14 operation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlackBucket {
    /// Scalar logical/move op (no carry chain).
    Logic {
        /// Whether the barrel shifter is in the path.
        shift: bool,
    },
    /// Scalar arithmetic op (carry chain scales with width).
    Arith {
        /// Whether the barrel shifter is in the path.
        shift: bool,
        /// Effective operand width class (predicted at decode).
        width: WidthClass,
    },
    /// Sub-word parallel SIMD op; the lane type comes from the ISA.
    Simd {
        /// Lane arrangement.
        ty: SimdType,
    },
}

/// Total number of slack buckets (paper §II-B).
pub const NUM_BUCKETS: usize = 14;

impl SlackBucket {
    /// Dense index in `0..NUM_BUCKETS` for table lookups.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            SlackBucket::Logic { shift } => usize::from(shift),
            SlackBucket::Arith { shift, width } => {
                2 + usize::from(shift) * 4 + width.code() as usize
            }
            SlackBucket::Simd { ty } => 10 + ty.type_code() as usize,
        }
    }

    /// All 14 buckets.
    #[must_use]
    pub fn all() -> Vec<SlackBucket> {
        let mut v = vec![
            SlackBucket::Logic { shift: false },
            SlackBucket::Logic { shift: true },
        ];
        for shift in [false, true] {
            for width in WidthClass::ALL {
                v.push(SlackBucket::Arith { shift, width });
            }
        }
        for ty in SimdType::ALL {
            v.push(SlackBucket::Simd { ty });
        }
        v
    }

    /// The 5-bit LUT address of Fig. 3:
    /// `arith(4) | shift(3) | simd(2) | width/type(1:0)`.
    ///
    /// Don't-care fields are encoded as zero.
    #[must_use]
    pub fn lut_address(self) -> u8 {
        match self {
            SlackBucket::Logic { shift } => (u8::from(shift)) << 3,
            SlackBucket::Arith { shift, width } => (1 << 4) | (u8::from(shift) << 3) | width.code(),
            SlackBucket::Simd { ty } => (1 << 2) | ty.type_code(),
        }
    }

    /// Classify a single-cycle instruction into its slack bucket.
    ///
    /// `predicted_width` is the data-width predictor's output, used for
    /// scalar ops (SIMD lane types come from the instruction encoding).
    /// Returns `None` for instructions that are not single-cycle ALU/SIMD
    /// operations (they are "true synchronous" and have no bucket).
    #[must_use]
    pub fn classify(instr: &Instr, predicted_width: WidthClass) -> Option<Self> {
        match *instr {
            Instr::Alu { op, .. } => {
                let shift = instr.uses_shifter();
                if op.is_arith() {
                    Some(SlackBucket::Arith {
                        shift,
                        width: predicted_width,
                    })
                } else {
                    Some(SlackBucket::Logic { shift })
                }
            }
            Instr::Simd { op, ty, .. } if op.is_single_cycle() => Some(SlackBucket::Simd { ty }),
            _ => None,
        }
    }
}

/// The slack look-up table: bucket → worst-case compute time (ps).
///
/// Built once at "design time" from the circuit model; optionally
/// recalibrated against a PVT guard band (§V "Influence of PVT variation").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlackLut {
    compute_ps: [u32; NUM_BUCKETS],
}

impl SlackLut {
    /// Build the LUT from the circuit timing model, taking the worst case
    /// over every operation a bucket can contain.
    #[must_use]
    pub fn new() -> Self {
        let mut compute_ps = [0u32; NUM_BUCKETS];
        // Scalar ops: consider every opcode in both shifter configurations
        // at each width class upper bound.
        for op in AluOp::ALL {
            for shifted_op2 in [false, true] {
                // A shift opcode always uses the shifter; a non-shift opcode
                // uses it only when its operand 2 is shifted.
                let shift = op.is_shift() || shifted_op2;
                if op.is_shift() && shifted_op2 {
                    continue; // shift ops take an immediate amount, not a shifted reg
                }
                if op.is_arith() {
                    for width in WidthClass::ALL {
                        let b = SlackBucket::Arith { shift, width };
                        let t = alu_compute_ps(op, shift, width.max_bits());
                        let e = &mut compute_ps[b.index()];
                        *e = (*e).max(t);
                    }
                } else {
                    let b = SlackBucket::Logic { shift };
                    let t = alu_compute_ps(op, shift, 32);
                    let e = &mut compute_ps[b.index()];
                    *e = (*e).max(t);
                }
            }
        }
        // SIMD buckets: worst case over single-cycle SIMD ops per type.
        for ty in SimdType::ALL {
            let b = SlackBucket::Simd { ty };
            let worst = [
                SimdOp::Vadd,
                SimdOp::Vsub,
                SimdOp::Vand,
                SimdOp::Vorr,
                SimdOp::Veor,
                SimdOp::Vmax,
                SimdOp::Vmin,
                SimdOp::Vshr,
                SimdOp::Vshl,
                SimdOp::Vdup,
            ]
            .into_iter()
            .map(|op| simd_compute_ps(op, ty))
            .max()
            .expect("non-empty op list");
            compute_ps[b.index()] = worst;
        }
        SlackLut { compute_ps }
    }

    /// Worst-case compute time of a bucket (ps).
    #[must_use]
    pub fn compute_ps(&self, bucket: SlackBucket) -> u32 {
        self.compute_ps[bucket.index()]
    }

    /// Data slack of a bucket: the unused tail of the clock period (ps).
    #[must_use]
    pub fn slack_ps(&self, bucket: SlackBucket) -> u32 {
        CYCLE_PS - self.compute_ps(bucket)
    }

    /// Recalibrate against an exploitable PVT guard band: under non-worst
    /// PVT conditions every path speeds up, adding `guard_band_ps` of extra
    /// slack to each bucket (tracked by critical-path monitors, §V).
    #[must_use]
    pub fn with_guard_band(&self, guard_band_ps: u32) -> Self {
        let mut lut = self.clone();
        for t in &mut lut.compute_ps {
            *t = t.saturating_sub(guard_band_ps).max(1);
        }
        lut
    }
}

impl Default for SlackLut {
    fn default() -> Self {
        SlackLut::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsoc_isa::operand::{Operand2, ShiftKind};
    use redsoc_isa::reg::ArchReg;

    #[test]
    fn there_are_exactly_14_buckets_with_dense_unique_indices() {
        let all = SlackBucket::all();
        assert_eq!(all.len(), NUM_BUCKETS);
        let mut seen = [false; NUM_BUCKETS];
        for b in all {
            assert!(!seen[b.index()], "duplicate index {}", b.index());
            seen[b.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn lut_addresses_fit_5_bits_and_are_unique() {
        let all = SlackBucket::all();
        let mut addrs: Vec<u8> = all.iter().map(|b| b.lut_address()).collect();
        for &a in &addrs {
            assert!(a < 32, "address {a} does not fit in 5 bits");
        }
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), NUM_BUCKETS);
    }

    #[test]
    fn width_class_boundaries() {
        assert_eq!(WidthClass::from_bits(1), WidthClass::W8);
        assert_eq!(WidthClass::from_bits(8), WidthClass::W8);
        assert_eq!(WidthClass::from_bits(9), WidthClass::W16);
        assert_eq!(WidthClass::from_bits(24), WidthClass::W24);
        assert_eq!(WidthClass::from_bits(25), WidthClass::W32);
        assert_eq!(WidthClass::from_bits(64), WidthClass::W32);
    }

    #[test]
    fn lut_is_conservative_over_members() {
        let lut = SlackLut::new();
        // Every concrete op must finish within its bucket's LUT time.
        for op in AluOp::ALL {
            for bits in 1..=32u8 {
                let width = WidthClass::from_bits(bits);
                let bucket = if op.is_arith() {
                    SlackBucket::Arith {
                        shift: false,
                        width,
                    }
                } else {
                    SlackBucket::Logic {
                        shift: op.is_shift(),
                    }
                };
                assert!(
                    alu_compute_ps(op, op.is_shift(), bits) <= lut.compute_ps(bucket),
                    "{op:?} @{bits}b exceeds bucket time"
                );
            }
        }
    }

    #[test]
    fn logic_buckets_have_large_slack() {
        let lut = SlackLut::new();
        assert!(lut.slack_ps(SlackBucket::Logic { shift: false }) * 2 > CYCLE_PS);
    }

    #[test]
    fn narrow_arith_has_more_slack_than_wide() {
        let lut = SlackLut::new();
        let narrow = lut.slack_ps(SlackBucket::Arith {
            shift: false,
            width: WidthClass::W8,
        });
        let wide = lut.slack_ps(SlackBucket::Arith {
            shift: false,
            width: WidthClass::W32,
        });
        assert!(narrow > wide);
    }

    #[test]
    fn shifted_wide_arith_has_minimal_slack() {
        let lut = SlackLut::new();
        let b = SlackBucket::Arith {
            shift: true,
            width: WidthClass::W32,
        };
        assert_eq!(
            lut.compute_ps(b),
            CYCLE_PS,
            "critical bucket defines the clock"
        );
    }

    #[test]
    fn classify_instructions() {
        let add = Instr::Alu {
            op: AluOp::Add,
            dst: Some(ArchReg::int(0)),
            src1: Some(ArchReg::int(1)),
            op2: Operand2::Imm(1),
            set_flags: false,
        };
        assert_eq!(
            SlackBucket::classify(&add, WidthClass::W16),
            Some(SlackBucket::Arith {
                shift: false,
                width: WidthClass::W16
            })
        );
        let add_shift = Instr::Alu {
            op: AluOp::Add,
            dst: Some(ArchReg::int(0)),
            src1: Some(ArchReg::int(1)),
            op2: Operand2::shifted(ArchReg::int(2), ShiftKind::Lsr, 2),
            set_flags: false,
        };
        assert!(matches!(
            SlackBucket::classify(&add_shift, WidthClass::W32),
            Some(SlackBucket::Arith { shift: true, .. })
        ));
        let and = Instr::Alu {
            op: AluOp::And,
            dst: Some(ArchReg::int(0)),
            src1: Some(ArchReg::int(1)),
            op2: Operand2::Imm(1),
            set_flags: false,
        };
        assert_eq!(
            SlackBucket::classify(&and, WidthClass::W8),
            Some(SlackBucket::Logic { shift: false })
        );
        let vadd = Instr::Simd {
            op: SimdOp::Vadd,
            ty: SimdType::I8,
            dst: ArchReg::simd(0),
            src1: Some(ArchReg::simd(1)),
            src2: Some(ArchReg::simd(2)),
            imm: 0,
        };
        assert_eq!(
            SlackBucket::classify(&vadd, WidthClass::W32),
            Some(SlackBucket::Simd { ty: SimdType::I8 })
        );
        let vmul = Instr::Simd {
            op: SimdOp::Vmul,
            ty: SimdType::I8,
            dst: ArchReg::simd(0),
            src1: Some(ArchReg::simd(1)),
            src2: Some(ArchReg::simd(2)),
            imm: 0,
        };
        assert_eq!(SlackBucket::classify(&vmul, WidthClass::W32), None);
        assert_eq!(SlackBucket::classify(&Instr::Halt, WidthClass::W32), None);
    }

    #[test]
    fn guard_band_adds_slack_uniformly() {
        let lut = SlackLut::new();
        let gb = lut.with_guard_band(50);
        for b in SlackBucket::all() {
            assert!(gb.compute_ps(b) <= lut.compute_ps(b));
            assert!(gb.compute_ps(b) >= 1);
        }
    }
}
