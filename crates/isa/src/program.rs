//! Programs and the assembler-style program builder.
//!
//! A [`Program`] is a list of [`Instr`]s plus a label table and initial
//! memory images. The builder offers ARM-assembler-flavoured helper methods
//! so that workload kernels read like the code the paper compiled for its
//! ARM-ISA evaluation:
//!
//! ```
//! use redsoc_isa::prelude::*;
//!
//! let mut b = ProgramBuilder::new();
//! let buf = b.alloc_zeroed(64);
//! let loop_top = b.new_label();
//! b.mov_imm(r(0), buf); // pointer
//! b.mov_imm(r(1), 16); // counter
//! b.bind(loop_top);
//! b.ldr(r(2), r(0), 0);
//! b.add(r(2), r(2), op_imm(1));
//! b.str_(r(2), r(0), 0);
//! b.add(r(0), r(0), op_imm(4));
//! b.subs(r(1), r(1), op_imm(1));
//! b.bne(loop_top);
//! b.halt();
//! let program = b.build()?;
//! assert!(program.len() > 0);
//! # Ok::<(), redsoc_isa::program::ProgramError>(())
//! ```

use core::fmt;

use crate::instruction::{Instr, LabelId};
use crate::opcode::{AluOp, Cond, FpOp, MemWidth, MulOp, SimdOp, SimdType};
use crate::operand::Operand2;
use crate::reg::ArchReg;

/// Default simulated memory size (16 MiB) — ample for every bundled kernel.
pub const DEFAULT_MEM_SIZE: u32 = 16 << 20;

/// Base address at which the builder starts allocating data.
const DATA_BASE: u32 = 0x1000;

/// Errors produced when finalising a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A label was created but never bound to a position.
    UnboundLabel(LabelId),
    /// Data allocation exceeded the configured memory size.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: u32,
        /// Configured memory size.
        mem_size: u32,
    },
    /// The program contains no `HALT`, so execution could run off the end.
    MissingHalt,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnboundLabel(l) => write!(f, "label L{} was never bound", l.index()),
            ProgramError::OutOfMemory {
                requested,
                mem_size,
            } => {
                write!(
                    f,
                    "data allocation of {requested} bytes exceeds memory size {mem_size}"
                )
            }
            ProgramError::MissingHalt => write!(f, "program has no HALT instruction"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// An immutable, validated program.
#[derive(Debug, Clone)]
pub struct Program {
    instrs: Vec<Instr>,
    /// Label table: `LabelId` → instruction index.
    labels: Vec<u32>,
    /// Initial memory images `(base address, bytes)`.
    data: Vec<(u32, Vec<u8>)>,
    mem_size: u32,
}

impl Program {
    /// The instructions, indexed by (word) PC.
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Resolve a label to its instruction index.
    #[must_use]
    pub fn resolve(&self, label: LabelId) -> usize {
        self.labels[label.index()] as usize
    }

    /// Initial memory images.
    #[must_use]
    pub fn data(&self) -> &[(u32, Vec<u8>)] {
        &self.data
    }

    /// Simulated memory size in bytes.
    #[must_use]
    pub fn mem_size(&self) -> u32 {
        self.mem_size
    }
}

/// Incremental builder for [`Program`]s with an assembler-like API.
///
/// See the [module docs](self) for an example.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    labels: Vec<Option<u32>>,
    data: Vec<(u32, Vec<u8>)>,
    next_data: u32,
    mem_size: u32,
}

impl ProgramBuilder {
    /// New builder with the default memory size.
    #[must_use]
    pub fn new() -> Self {
        ProgramBuilder {
            instrs: Vec::new(),
            labels: Vec::new(),
            data: Vec::new(),
            next_data: DATA_BASE,
            mem_size: DEFAULT_MEM_SIZE,
        }
    }

    /// Override the simulated memory size (bytes).
    pub fn mem_size(&mut self, bytes: u32) -> &mut Self {
        self.mem_size = bytes;
        self
    }

    /// Create a new (yet unbound) label for forward branches.
    pub fn new_label(&mut self) -> LabelId {
        self.labels.push(None);
        LabelId((self.labels.len() - 1) as u32)
    }

    /// Bind `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: LabelId) -> &mut Self {
        let slot = &mut self.labels[label.index()];
        assert!(slot.is_none(), "label L{} bound twice", label.index());
        *slot = Some(self.instrs.len() as u32);
        self
    }

    /// Whether `label` has been bound to a position.
    #[must_use]
    pub fn is_bound(&self, label: LabelId) -> bool {
        self.labels[label.index()].is_some()
    }

    /// Create a label bound to the current position.
    pub fn here(&mut self) -> LabelId {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// The address the next data region will start at.
    #[must_use]
    pub fn data_end(&self) -> u32 {
        self.next_data
    }

    /// Allocate and initialise a data region; returns its base address.
    pub fn alloc_data(&mut self, bytes: &[u8]) -> u32 {
        let addr = self.next_data;
        self.data.push((addr, bytes.to_vec()));
        // Keep regions 8-byte aligned for SIMD loads.
        self.next_data = addr.saturating_add(bytes.len() as u32).div_ceil(8) * 8;
        addr
    }

    /// Allocate a zero-initialised region; returns its base address.
    pub fn alloc_zeroed(&mut self, len: u32) -> u32 {
        self.alloc_data(&vec![0u8; len as usize])
    }

    /// Allocate a region of 32-bit little-endian words.
    pub fn alloc_words(&mut self, words: &[u32]) -> u32 {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        self.alloc_data(&bytes)
    }

    /// Append a raw instruction.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        self.instrs.push(instr);
        self
    }

    fn alu(
        &mut self,
        op: AluOp,
        dst: Option<ArchReg>,
        src1: Option<ArchReg>,
        op2: Operand2,
        s: bool,
    ) -> &mut Self {
        self.push(Instr::Alu {
            op,
            dst,
            src1,
            op2,
            set_flags: s,
        })
    }

    /// Finalise the program, validating labels and memory bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if a label is unbound, data exceeds memory,
    /// or the program lacks a `HALT`.
    pub fn build(&mut self) -> Result<Program, ProgramError> {
        let mut labels = Vec::with_capacity(self.labels.len());
        for (i, slot) in self.labels.iter().enumerate() {
            match slot {
                Some(pos) => labels.push(*pos),
                None => return Err(ProgramError::UnboundLabel(LabelId(i as u32))),
            }
        }
        if self.next_data > self.mem_size {
            return Err(ProgramError::OutOfMemory {
                requested: self.next_data - DATA_BASE,
                mem_size: self.mem_size,
            });
        }
        if !self.instrs.iter().any(|i| matches!(i, Instr::Halt)) {
            return Err(ProgramError::MissingHalt);
        }
        Ok(Program {
            instrs: std::mem::take(&mut self.instrs),
            labels,
            data: std::mem::take(&mut self.data),
            mem_size: self.mem_size,
        })
    }
}

/// Shorthand for [`ArchReg::int`].
#[must_use]
pub fn r(n: u8) -> ArchReg {
    ArchReg::int(n)
}

/// Shorthand for [`ArchReg::simd`].
#[must_use]
pub fn v(n: u8) -> ArchReg {
    ArchReg::simd(n)
}

/// Shorthand for [`ArchReg::fp`].
#[must_use]
pub fn f(n: u8) -> ArchReg {
    ArchReg::fp(n)
}

/// Shorthand for an immediate second operand.
#[must_use]
pub fn op_imm(v: u32) -> Operand2 {
    Operand2::Imm(v)
}

/// Shorthand for a register second operand.
#[must_use]
pub fn op_reg(reg: ArchReg) -> Operand2 {
    Operand2::Reg(reg)
}

macro_rules! alu3 {
    ($(#[$doc:meta] ($name:ident, $name_s:ident, $op:expr);)*) => {
        impl ProgramBuilder {
            $(
                #[$doc]
                pub fn $name(&mut self, dst: ArchReg, src1: ArchReg, op2: impl Into<Operand2>) -> &mut Self {
                    self.alu($op, Some(dst), Some(src1), op2.into(), false)
                }
                #[doc = "Flag-setting variant."]
                pub fn $name_s(&mut self, dst: ArchReg, src1: ArchReg, op2: impl Into<Operand2>) -> &mut Self {
                    self.alu($op, Some(dst), Some(src1), op2.into(), true)
                }
            )*
        }
    };
}

alu3! {
    #[doc = "`dst = src1 + op2`"] (add, adds, AluOp::Add);
    #[doc = "`dst = src1 - op2`"] (sub, subs, AluOp::Sub);
    #[doc = "`dst = op2 - src1`"] (rsb, rsbs, AluOp::Rsb);
    #[doc = "`dst = src1 + op2 + C`"] (adc, adcs, AluOp::Adc);
    #[doc = "`dst = src1 - op2 - !C`"] (sbc, sbcs, AluOp::Sbc);
    #[doc = "`dst = op2 - src1 - !C`"] (rsc, rscs, AluOp::Rsc);
    #[doc = "`dst = src1 & op2`"] (and_, ands, AluOp::And);
    #[doc = "`dst = src1 | op2`"] (orr, orrs, AluOp::Orr);
    #[doc = "`dst = src1 ^ op2`"] (eor, eors, AluOp::Eor);
    #[doc = "`dst = src1 & !op2`"] (bic, bics, AluOp::Bic);
}

macro_rules! branches {
    ($(#[$doc:meta] ($name:ident, $cond:expr);)*) => {
        impl ProgramBuilder {
            $(
                #[$doc]
                pub fn $name(&mut self, target: LabelId) -> &mut Self {
                    self.push(Instr::Branch { cond: $cond, target })
                }
            )*
        }
    };
}

branches! {
    #[doc = "Unconditional branch."] (b, Cond::Al);
    #[doc = "Branch if equal."] (beq, Cond::Eq);
    #[doc = "Branch if not equal."] (bne, Cond::Ne);
    #[doc = "Branch if signed ≥."] (bge, Cond::Ge);
    #[doc = "Branch if signed <."] (blt, Cond::Lt);
    #[doc = "Branch if signed >."] (bgt, Cond::Gt);
    #[doc = "Branch if signed ≤."] (ble, Cond::Le);
    #[doc = "Branch if unsigned ≥ (carry set)."] (bhs, Cond::Hs);
    #[doc = "Branch if unsigned < (carry clear)."] (blo, Cond::Lo);
}

impl ProgramBuilder {
    /// `dst = op2` (move register or immediate).
    pub fn mov(&mut self, dst: ArchReg, op2: impl Into<Operand2>) -> &mut Self {
        self.alu(AluOp::Mov, Some(dst), None, op2.into(), false)
    }

    /// `dst = imm` — 32-bit immediate move.
    pub fn mov_imm(&mut self, dst: ArchReg, imm: u32) -> &mut Self {
        self.mov(dst, Operand2::Imm(imm))
    }

    /// `dst = !op2`.
    pub fn mvn(&mut self, dst: ArchReg, op2: impl Into<Operand2>) -> &mut Self {
        self.alu(AluOp::Mvn, Some(dst), None, op2.into(), false)
    }

    /// Compare: flags = `src1 - op2`.
    pub fn cmp(&mut self, src1: ArchReg, op2: impl Into<Operand2>) -> &mut Self {
        self.alu(AluOp::Cmp, None, Some(src1), op2.into(), true)
    }

    /// Compare negative: flags = `src1 + op2`.
    pub fn cmn(&mut self, src1: ArchReg, op2: impl Into<Operand2>) -> &mut Self {
        self.alu(AluOp::Cmn, None, Some(src1), op2.into(), true)
    }

    /// Test: flags = `src1 & op2`.
    pub fn tst(&mut self, src1: ArchReg, op2: impl Into<Operand2>) -> &mut Self {
        self.alu(AluOp::Tst, None, Some(src1), op2.into(), true)
    }

    /// Test equivalence: flags = `src1 ^ op2`.
    pub fn teq(&mut self, src1: ArchReg, op2: impl Into<Operand2>) -> &mut Self {
        self.alu(AluOp::Teq, None, Some(src1), op2.into(), true)
    }

    /// Logical shift left: `dst = src1 << op2`.
    pub fn lsl(&mut self, dst: ArchReg, src1: ArchReg, op2: impl Into<Operand2>) -> &mut Self {
        self.alu(AluOp::Lsl, Some(dst), Some(src1), op2.into(), false)
    }

    /// Logical shift right.
    pub fn lsr(&mut self, dst: ArchReg, src1: ArchReg, op2: impl Into<Operand2>) -> &mut Self {
        self.alu(AluOp::Lsr, Some(dst), Some(src1), op2.into(), false)
    }

    /// Arithmetic shift right.
    pub fn asr(&mut self, dst: ArchReg, src1: ArchReg, op2: impl Into<Operand2>) -> &mut Self {
        self.alu(AluOp::Asr, Some(dst), Some(src1), op2.into(), false)
    }

    /// Rotate right.
    pub fn ror(&mut self, dst: ArchReg, src1: ArchReg, op2: impl Into<Operand2>) -> &mut Self {
        self.alu(AluOp::Ror, Some(dst), Some(src1), op2.into(), false)
    }

    /// Rotate right with extend (one bit, through carry).
    pub fn rrx(&mut self, dst: ArchReg, src1: ArchReg) -> &mut Self {
        self.alu(AluOp::Rrx, Some(dst), Some(src1), Operand2::Imm(1), false)
    }

    /// `dst = src1 * src2`.
    pub fn mul(&mut self, dst: ArchReg, src1: ArchReg, src2: ArchReg) -> &mut Self {
        self.push(Instr::MulDiv {
            op: MulOp::Mul,
            dst,
            src1,
            src2,
            acc: None,
        })
    }

    /// `dst = src1 * src2 + acc`.
    pub fn mla(&mut self, dst: ArchReg, src1: ArchReg, src2: ArchReg, acc: ArchReg) -> &mut Self {
        self.push(Instr::MulDiv {
            op: MulOp::Mla,
            dst,
            src1,
            src2,
            acc: Some(acc),
        })
    }

    /// Unsigned divide.
    pub fn udiv(&mut self, dst: ArchReg, src1: ArchReg, src2: ArchReg) -> &mut Self {
        self.push(Instr::MulDiv {
            op: MulOp::Udiv,
            dst,
            src1,
            src2,
            acc: None,
        })
    }

    /// Signed divide.
    pub fn sdiv(&mut self, dst: ArchReg, src1: ArchReg, src2: ArchReg) -> &mut Self {
        self.push(Instr::MulDiv {
            op: MulOp::Sdiv,
            dst,
            src1,
            src2,
            acc: None,
        })
    }

    /// Floating-point binary operation.
    pub fn fp(&mut self, op: FpOp, dst: ArchReg, src1: ArchReg, src2: ArchReg) -> &mut Self {
        self.push(Instr::Fp {
            op,
            dst,
            src1,
            src2: Some(src2),
        })
    }

    /// Floating-point unary operation (converts).
    pub fn fp1(&mut self, op: FpOp, dst: ArchReg, src1: ArchReg) -> &mut Self {
        self.push(Instr::Fp {
            op,
            dst,
            src1,
            src2: None,
        })
    }

    /// SIMD lane-wise binary operation.
    pub fn simd(
        &mut self,
        op: SimdOp,
        ty: SimdType,
        dst: ArchReg,
        src1: ArchReg,
        src2: ArchReg,
    ) -> &mut Self {
        self.push(Instr::Simd {
            op,
            ty,
            dst,
            src1: Some(src1),
            src2: Some(src2),
            imm: 0,
        })
    }

    /// SIMD lane-wise shift by immediate.
    pub fn simd_shift(
        &mut self,
        op: SimdOp,
        ty: SimdType,
        dst: ArchReg,
        src1: ArchReg,
        imm: u8,
    ) -> &mut Self {
        debug_assert!(matches!(op, SimdOp::Vshl | SimdOp::Vshr));
        self.push(Instr::Simd {
            op,
            ty,
            dst,
            src1: Some(src1),
            src2: None,
            imm,
        })
    }

    /// SIMD duplicate immediate into all lanes.
    pub fn vdup(&mut self, ty: SimdType, dst: ArchReg, imm: u8) -> &mut Self {
        self.push(Instr::Simd {
            op: SimdOp::Vdup,
            ty,
            dst,
            src1: None,
            src2: None,
            imm,
        })
    }

    /// Word load: `dst = mem32[base + offset]`.
    pub fn ldr(&mut self, dst: ArchReg, base: ArchReg, offset: i32) -> &mut Self {
        self.push(Instr::Load {
            dst,
            base,
            offset,
            width: MemWidth::B4,
        })
    }

    /// Byte load (zero-extended).
    pub fn ldrb(&mut self, dst: ArchReg, base: ArchReg, offset: i32) -> &mut Self {
        self.push(Instr::Load {
            dst,
            base,
            offset,
            width: MemWidth::B1,
        })
    }

    /// Halfword load (zero-extended).
    pub fn ldrh(&mut self, dst: ArchReg, base: ArchReg, offset: i32) -> &mut Self {
        self.push(Instr::Load {
            dst,
            base,
            offset,
            width: MemWidth::B2,
        })
    }

    /// 64-bit SIMD load.
    pub fn vldr(&mut self, dst: ArchReg, base: ArchReg, offset: i32) -> &mut Self {
        self.push(Instr::Load {
            dst,
            base,
            offset,
            width: MemWidth::B8,
        })
    }

    /// Word store.
    pub fn str_(&mut self, src: ArchReg, base: ArchReg, offset: i32) -> &mut Self {
        self.push(Instr::Store {
            src,
            base,
            offset,
            width: MemWidth::B4,
        })
    }

    /// Byte store.
    pub fn strb(&mut self, src: ArchReg, base: ArchReg, offset: i32) -> &mut Self {
        self.push(Instr::Store {
            src,
            base,
            offset,
            width: MemWidth::B1,
        })
    }

    /// Halfword store.
    pub fn strh(&mut self, src: ArchReg, base: ArchReg, offset: i32) -> &mut Self {
        self.push(Instr::Store {
            src,
            base,
            offset,
            width: MemWidth::B2,
        })
    }

    /// 64-bit SIMD store.
    pub fn vstr(&mut self, src: ArchReg, base: ArchReg, offset: i32) -> &mut Self {
        self.push(Instr::Store {
            src,
            base,
            offset,
            width: MemWidth::B8,
        })
    }

    /// Terminate the program.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instr::Halt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_loop() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.mov_imm(r(0), 10);
        b.bind(top);
        b.subs(r(0), r(0), op_imm(1));
        b.bne(top);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.resolve(LabelId(0)), 1);
    }

    #[test]
    fn unbound_label_rejected() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.b(l);
        b.halt();
        assert_eq!(b.build().unwrap_err(), ProgramError::UnboundLabel(l));
    }

    #[test]
    fn missing_halt_rejected() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(r(0), 1);
        assert_eq!(b.build().unwrap_err(), ProgramError::MissingHalt);
    }

    #[test]
    fn data_allocation_is_aligned_and_sequential() {
        let mut b = ProgramBuilder::new();
        let a1 = b.alloc_data(&[1, 2, 3]);
        let a2 = b.alloc_zeroed(16);
        assert_eq!(a1 % 8, 0);
        assert_eq!(a2 % 8, 0);
        assert!(a2 >= a1 + 3);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.data().len(), 2);
    }

    #[test]
    fn oversized_data_rejected() {
        let mut b = ProgramBuilder::new();
        b.mem_size(1024);
        let _ = b.alloc_zeroed(4096);
        b.halt();
        assert!(matches!(
            b.build().unwrap_err(),
            ProgramError::OutOfMemory { .. }
        ));
    }

    #[test]
    fn alloc_words_little_endian() {
        let mut b = ProgramBuilder::new();
        let a = b.alloc_words(&[0x0403_0201]);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.data()[0], (a, vec![1, 2, 3, 4]));
    }
}
