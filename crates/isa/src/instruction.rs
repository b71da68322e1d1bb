//! Static instruction representation.

use core::fmt;

use crate::opcode::{AluOp, Cond, ExecClass, FpOp, MemWidth, MulOp, SimdOp, SimdType};
use crate::operand::Operand2;
use crate::reg::{ArchReg, SrcSet};

/// Identifier of a basic-block label inside a [`Program`](crate::program::Program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub(crate) u32);

impl LabelId {
    /// Construct a label id directly.
    ///
    /// Labels made this way are only meaningful against a
    /// [`Program`](crate::program::Program) whose label table contains the
    /// index — synthetic trace generators use arbitrary ids because
    /// trace-driven timing never resolves them.
    #[must_use]
    pub fn new(index: u32) -> Self {
        LabelId(index)
    }

    /// Raw index into the program's label table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A static micro-instruction.
///
/// The variants partition the ISA by datapath: scalar ALU (single-cycle,
/// slack-recyclable), scalar multiply/divide, floating point, SIMD, memory
/// and control. This is the unit the front end of the simulated core decodes
/// and renames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Scalar single-cycle ALU operation.
    Alu {
        /// The operation.
        op: AluOp,
        /// Destination register (`None` for compare/test ops).
        dst: Option<ArchReg>,
        /// First source register (`None` for `MOV`/`MVN`, which only read
        /// operand 2).
        src1: Option<ArchReg>,
        /// Flexible second operand.
        op2: Operand2,
        /// Whether the NZCV flags are updated (ARM `S` suffix). Compare/test
        /// ops always set flags regardless of this field.
        set_flags: bool,
    },
    /// Scalar multiply / multiply-accumulate / divide.
    MulDiv {
        /// The operation.
        op: MulOp,
        /// Destination register.
        dst: ArchReg,
        /// Multiplicand / dividend.
        src1: ArchReg,
        /// Multiplier / divisor.
        src2: ArchReg,
        /// Accumulator source for `MLA`.
        acc: Option<ArchReg>,
    },
    /// Floating-point operation.
    Fp {
        /// The operation.
        op: FpOp,
        /// Destination register.
        dst: ArchReg,
        /// First source.
        src1: ArchReg,
        /// Second source (`None` for unary converts).
        src2: Option<ArchReg>,
    },
    /// SIMD (sub-word parallel) operation on 64-bit registers.
    Simd {
        /// The operation.
        op: SimdOp,
        /// Lane arrangement.
        ty: SimdType,
        /// Destination register.
        dst: ArchReg,
        /// First source (`None` for `VDUP` from immediate).
        src1: Option<ArchReg>,
        /// Second source register (shift ops use `imm` instead).
        src2: Option<ArchReg>,
        /// Immediate (shift amount for `VSHL`/`VSHR`, value for `VDUP`).
        imm: u8,
    },
    /// Scalar or SIMD load: `dst = mem[base + offset]`.
    Load {
        /// Destination register (integer or SIMD, by class).
        dst: ArchReg,
        /// Base address register.
        base: ArchReg,
        /// Signed byte offset.
        offset: i32,
        /// Access width.
        width: MemWidth,
    },
    /// Scalar or SIMD store: `mem[base + offset] = src`.
    Store {
        /// Data register.
        src: ArchReg,
        /// Base address register.
        base: ArchReg,
        /// Signed byte offset.
        offset: i32,
        /// Access width.
        width: MemWidth,
    },
    /// Conditional or unconditional branch to a label.
    Branch {
        /// Branch condition (reads flags unless `Al`).
        cond: Cond,
        /// Target label.
        target: LabelId,
    },
    /// Terminate the program.
    Halt,
}

impl Instr {
    /// Destination register written by this instruction, if any.
    ///
    /// Flag updates are reported separately by [`Instr::writes_flags`]; the
    /// flags pseudo-register never appears here.
    #[must_use]
    pub fn dst(&self) -> Option<ArchReg> {
        match *self {
            Instr::Alu { dst, .. } => dst,
            Instr::MulDiv { dst, .. } | Instr::Fp { dst, .. } | Instr::Simd { dst, .. } => {
                Some(dst)
            }
            Instr::Load { dst, .. } => Some(dst),
            Instr::Store { .. } | Instr::Branch { .. } | Instr::Halt => None,
        }
    }

    /// Whether this instruction updates the NZCV flags.
    #[must_use]
    pub fn writes_flags(&self) -> bool {
        match *self {
            Instr::Alu { op, set_flags, .. } => set_flags || !op.has_dst(),
            Instr::Fp { op, .. } => matches!(op, FpOp::Fcmp),
            _ => false,
        }
    }

    /// All registers read by this instruction, including the flags
    /// pseudo-register for carry consumers and conditional branches.
    #[must_use]
    pub fn srcs(&self) -> SrcSet {
        let mut s = SrcSet::new();
        match *self {
            Instr::Alu { op, src1, op2, .. } => {
                if let Some(r) = src1 {
                    s.push(r);
                }
                if let Some(r) = op2.reg() {
                    s.push(r);
                }
                if op.reads_carry() {
                    s.push(ArchReg::flags());
                }
            }
            Instr::MulDiv {
                src1, src2, acc, ..
            } => {
                s.push(src1);
                s.push(src2);
                if let Some(a) = acc {
                    s.push(a);
                }
            }
            Instr::Fp { src1, src2, .. } => {
                s.push(src1);
                if let Some(r) = src2 {
                    s.push(r);
                }
            }
            Instr::Simd {
                op,
                dst,
                src1,
                src2,
                ..
            } => {
                if let Some(r) = src1 {
                    s.push(r);
                }
                if let Some(r) = src2 {
                    s.push(r);
                }
                // VMLA reads its destination as the accumulate operand.
                if matches!(op, SimdOp::Vmla) {
                    s.push(dst);
                }
            }
            Instr::Load { base, .. } => s.push(base),
            Instr::Store { src, base, .. } => {
                s.push(src);
                s.push(base);
            }
            Instr::Branch { cond, .. } => {
                if cond.reads_flags() {
                    s.push(ArchReg::flags());
                }
            }
            Instr::Halt => {}
        }
        s
    }

    /// Coarse execution class (functional-unit type) for the timing model.
    #[must_use]
    pub fn exec_class(&self) -> ExecClass {
        match *self {
            Instr::Alu { .. } => ExecClass::IntAlu,
            Instr::MulDiv { op, .. } => match op {
                MulOp::Mul | MulOp::Mla => ExecClass::IntMul,
                MulOp::Sdiv | MulOp::Udiv => ExecClass::IntDiv,
            },
            Instr::Fp { .. } => ExecClass::Fp,
            Instr::Simd { op, .. } => {
                if op.is_single_cycle() {
                    ExecClass::SimdAlu
                } else {
                    ExecClass::SimdMul
                }
            }
            Instr::Load { .. } => ExecClass::Load,
            Instr::Store { .. } => ExecClass::Store,
            Instr::Branch { .. } => ExecClass::Branch,
            Instr::Halt => ExecClass::Branch,
        }
    }

    /// Whether the instruction's datapath engages the barrel shifter: either
    /// a shift/rotate opcode or a shifted second operand (§II-A).
    #[must_use]
    pub fn uses_shifter(&self) -> bool {
        match *self {
            Instr::Alu { op, op2, .. } => op.is_shift() || op2.uses_shifter(),
            _ => false,
        }
    }

    /// Whether this is a memory operation.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::Store { .. })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Alu {
                op,
                dst,
                src1,
                op2,
                set_flags,
            } => {
                let s = if set_flags && op.has_dst() { "S" } else { "" };
                write!(f, "{op}{s} ")?;
                if let Some(d) = dst {
                    write!(f, "{d}, ")?;
                }
                if let Some(r) = src1 {
                    write!(f, "{r}, ")?;
                }
                write!(f, "{op2}")
            }
            Instr::MulDiv {
                op,
                dst,
                src1,
                src2,
                acc,
            } => {
                write!(f, "{op:?} {dst}, {src1}, {src2}")?;
                if let Some(a) = acc {
                    write!(f, ", {a}")?;
                }
                Ok(())
            }
            Instr::Fp {
                op,
                dst,
                src1,
                src2,
            } => {
                write!(f, "{op:?} {dst}, {src1}")?;
                if let Some(r) = src2 {
                    write!(f, ", {r}")?;
                }
                Ok(())
            }
            Instr::Simd {
                op,
                ty,
                dst,
                src1,
                src2,
                imm,
            } => {
                write!(f, "{op:?}.{ty} {dst}")?;
                if let Some(r) = src1 {
                    write!(f, ", {r}")?;
                }
                if let Some(r) = src2 {
                    write!(f, ", {r}")?;
                }
                if matches!(op, SimdOp::Vshl | SimdOp::Vshr | SimdOp::Vdup) {
                    write!(f, ", #{imm}")?;
                }
                Ok(())
            }
            Instr::Load {
                dst,
                base,
                offset,
                width,
            } => {
                write!(f, "LDR.{} {dst}, [{base}, #{offset}]", width.bytes())
            }
            Instr::Store {
                src,
                base,
                offset,
                width,
            } => {
                write!(f, "STR.{} {src}, [{base}, #{offset}]", width.bytes())
            }
            Instr::Branch { cond, target } => write!(f, "B{cond:?} L{}", target.0),
            Instr::Halt => write!(f, "HALT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::ShiftKind;

    fn r(n: u8) -> ArchReg {
        ArchReg::int(n)
    }

    #[test]
    fn alu_src_extraction() {
        let i = Instr::Alu {
            op: AluOp::Add,
            dst: Some(r(0)),
            src1: Some(r(1)),
            op2: Operand2::shifted(r(2), ShiftKind::Lsr, 3),
            set_flags: false,
        };
        let s = i.srcs();
        assert_eq!(s.len(), 2);
        assert!(s.contains(r(1)));
        assert!(s.contains(r(2)));
        assert_eq!(i.dst(), Some(r(0)));
        assert!(i.uses_shifter());
        assert!(!i.writes_flags());
    }

    #[test]
    fn adc_reads_flags() {
        let i = Instr::Alu {
            op: AluOp::Adc,
            dst: Some(r(0)),
            src1: Some(r(1)),
            op2: Operand2::Reg(r(2)),
            set_flags: false,
        };
        assert!(i.srcs().contains(ArchReg::flags()));
    }

    #[test]
    fn cmp_writes_flags_without_dst() {
        let i = Instr::Alu {
            op: AluOp::Cmp,
            dst: None,
            src1: Some(r(1)),
            op2: Operand2::Imm(0),
            set_flags: false,
        };
        assert!(i.writes_flags());
        assert_eq!(i.dst(), None);
    }

    #[test]
    fn store_reads_data_and_base() {
        let i = Instr::Store {
            src: r(3),
            base: r(4),
            offset: -8,
            width: MemWidth::B4,
        };
        let s = i.srcs();
        assert!(s.contains(r(3)) && s.contains(r(4)));
        assert_eq!(i.dst(), None);
        assert!(i.is_mem());
        assert_eq!(i.exec_class(), ExecClass::Store);
    }

    #[test]
    fn conditional_branch_reads_flags() {
        let b = Instr::Branch {
            cond: Cond::Ne,
            target: LabelId(0),
        };
        assert!(b.srcs().contains(ArchReg::flags()));
        let ub = Instr::Branch {
            cond: Cond::Al,
            target: LabelId(0),
        };
        assert!(ub.srcs().is_empty());
    }

    #[test]
    fn exec_classes() {
        let mul = Instr::MulDiv {
            op: MulOp::Mul,
            dst: r(0),
            src1: r(1),
            src2: r(2),
            acc: None,
        };
        assert_eq!(mul.exec_class(), ExecClass::IntMul);
        let div = Instr::MulDiv {
            op: MulOp::Udiv,
            dst: r(0),
            src1: r(1),
            src2: r(2),
            acc: None,
        };
        assert_eq!(div.exec_class(), ExecClass::IntDiv);
        let vadd = Instr::Simd {
            op: SimdOp::Vadd,
            ty: SimdType::I16,
            dst: ArchReg::simd(0),
            src1: Some(ArchReg::simd(1)),
            src2: Some(ArchReg::simd(2)),
            imm: 0,
        };
        assert_eq!(vadd.exec_class(), ExecClass::SimdAlu);
        let vmla = Instr::Simd {
            op: SimdOp::Vmla,
            ty: SimdType::I16,
            dst: ArchReg::simd(0),
            src1: Some(ArchReg::simd(1)),
            src2: Some(ArchReg::simd(2)),
            imm: 0,
        };
        assert_eq!(vmla.exec_class(), ExecClass::SimdMul);
    }

    #[test]
    fn display_smoke() {
        let i = Instr::Alu {
            op: AluOp::Add,
            dst: Some(r(0)),
            src1: Some(r(1)),
            op2: Operand2::Imm(4),
            set_flags: true,
        };
        assert_eq!(i.to_string(), "ADDS r0, r1, #4");
    }
}
