//! Operation encodings for the micro-ISA.
//!
//! The scalar ALU opcode set is exactly the set whose synthesized compute
//! times the paper reports in Fig. 1 (an ARM-style single-cycle ALU with a
//! flexible shifted second operand). SIMD operations model ARM NEON-style
//! sub-word parallel arithmetic on 64-bit registers; floating-point,
//! multiply/divide and memory operations are "true synchronous" multi-cycle
//! operations that do not participate in transparent slack recycling but are
//! required to model whole applications (§III, §V).
//!
//! Each operation type owns the one spelling of its values in the
//! assembler dialect — an `ALL` list and a `mnemonic` table — which
//! [`crate::asm`] parses and [`crate::disasm`] prints.

use core::fmt;

/// Single-cycle scalar integer ALU operations (the Fig. 1 opcode set).
///
/// Operations are ordered exactly as in the paper's Fig. 1 bar chart: logical
/// operations first, then moves/shifts, then arithmetic. `AddLsr`/`SubRor`
/// are not distinct hardware opcodes — they are `ADD`/`SUB` with a shifted
/// second operand — but they appear here because Fig. 1 reports them as the
/// timing-critical datapath configurations. In programs they arise from
/// [`Operand2::ShiftedReg`](crate::operand::Operand2) instead; this enum is
/// also used by the timing model to name datapath configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluOp {
    /// Bit clear: `dst = src1 & !op2`.
    Bic,
    /// Move not: `dst = !op2`.
    Mvn,
    /// Bitwise AND.
    And,
    /// Bitwise exclusive OR.
    Eor,
    /// Test (AND, flags only, no destination).
    Tst,
    /// Test equivalence (EOR, flags only, no destination).
    Teq,
    /// Bitwise OR.
    Orr,
    /// Move: `dst = op2`.
    Mov,
    /// Logical shift right: `dst = src1 >> amount`.
    Lsr,
    /// Arithmetic shift right.
    Asr,
    /// Logical shift left.
    Lsl,
    /// Rotate right.
    Ror,
    /// Rotate right with extend (through carry), by one bit.
    Rrx,
    /// Reverse subtract: `dst = op2 - src1`.
    Rsb,
    /// Reverse subtract with carry: `dst = op2 - src1 - !C`.
    Rsc,
    /// Subtract.
    Sub,
    /// Compare (SUB, flags only, no destination).
    Cmp,
    /// Add.
    Add,
    /// Compare negative (ADD, flags only, no destination).
    Cmn,
    /// Add with carry.
    Adc,
    /// Subtract with carry: `dst = src1 - op2 - !C`.
    Sbc,
}

impl AluOp {
    /// All scalar ALU operations, in Fig. 1 order.
    pub const ALL: [AluOp; 21] = [
        AluOp::Bic,
        AluOp::Mvn,
        AluOp::And,
        AluOp::Eor,
        AluOp::Tst,
        AluOp::Teq,
        AluOp::Orr,
        AluOp::Mov,
        AluOp::Lsr,
        AluOp::Asr,
        AluOp::Lsl,
        AluOp::Ror,
        AluOp::Rrx,
        AluOp::Rsb,
        AluOp::Rsc,
        AluOp::Sub,
        AluOp::Cmp,
        AluOp::Add,
        AluOp::Cmn,
        AluOp::Adc,
        AluOp::Sbc,
    ];

    /// Whether the operation exercises the adder's carry chain (the
    /// "arithmetic" bit of the slack LUT address, Fig. 3).
    #[must_use]
    pub fn is_arith(self) -> bool {
        matches!(
            self,
            AluOp::Rsb
                | AluOp::Rsc
                | AluOp::Sub
                | AluOp::Cmp
                | AluOp::Add
                | AluOp::Cmn
                | AluOp::Adc
                | AluOp::Sbc
        )
    }

    /// Whether the operation itself is a shift/rotate (uses the barrel
    /// shifter as its primary datapath).
    #[must_use]
    pub fn is_shift(self) -> bool {
        matches!(
            self,
            AluOp::Lsr | AluOp::Asr | AluOp::Lsl | AluOp::Ror | AluOp::Rrx
        )
    }

    /// Whether the operation writes a destination register (compare/test
    /// operations only set flags).
    #[must_use]
    pub fn has_dst(self) -> bool {
        !matches!(self, AluOp::Tst | AluOp::Teq | AluOp::Cmp | AluOp::Cmn)
    }

    /// Whether the operation consumes the carry flag as a data input.
    #[must_use]
    pub fn reads_carry(self) -> bool {
        matches!(self, AluOp::Adc | AluOp::Sbc | AluOp::Rsc | AluOp::Rrx)
    }

    /// Short mnemonic, upper-case, as in the paper's figures.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Bic => "BIC",
            AluOp::Mvn => "MVN",
            AluOp::And => "AND",
            AluOp::Eor => "EOR",
            AluOp::Tst => "TST",
            AluOp::Teq => "TEQ",
            AluOp::Orr => "ORR",
            AluOp::Mov => "MOV",
            AluOp::Lsr => "LSR",
            AluOp::Asr => "ASR",
            AluOp::Lsl => "LSL",
            AluOp::Ror => "ROR",
            AluOp::Rrx => "RRX",
            AluOp::Rsb => "RSB",
            AluOp::Rsc => "RSC",
            AluOp::Sub => "SUB",
            AluOp::Cmp => "CMP",
            AluOp::Add => "ADD",
            AluOp::Cmn => "CMN",
            AluOp::Adc => "ADC",
            AluOp::Sbc => "SBC",
        }
    }

    /// Assembler spelling: the lower-case mnemonic, with an `s` for the
    /// flag-setting form of an op that writes a destination. Compare and
    /// test ops always set flags and spell both forms alike.
    pub(crate) fn asm_mnemonic(self, set_flags: bool) -> String {
        let s = if set_flags && self.has_dst() { "s" } else { "" };
        format!("{}{s}", self.mnemonic().to_ascii_lowercase())
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Multi-cycle scalar integer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulOp {
    /// 32×32→32 multiply.
    Mul,
    /// Multiply-accumulate: `dst = src1 * src2 + acc`.
    Mla,
    /// Signed divide.
    Sdiv,
    /// Unsigned divide.
    Udiv,
}

impl MulOp {
    /// All multiply/divide operations.
    pub(crate) const ALL: [MulOp; 4] = [MulOp::Mul, MulOp::Mla, MulOp::Sdiv, MulOp::Udiv];

    /// Assembler mnemonic.
    #[must_use]
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            MulOp::Mul => "mul",
            MulOp::Mla => "mla",
            MulOp::Sdiv => "sdiv",
            MulOp::Udiv => "udiv",
        }
    }
}

/// Floating-point operations (single precision; all multi-cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// FP add.
    Fadd,
    /// FP subtract.
    Fsub,
    /// FP multiply.
    Fmul,
    /// FP divide.
    Fdiv,
    /// FP compare (writes flags).
    Fcmp,
    /// Int→FP convert.
    Fcvt,
    /// FP→int convert (reads an FP source, writes an integer destination).
    Ftoi,
}

impl FpOp {
    /// All floating-point operations.
    pub(crate) const ALL: [FpOp; 7] = [
        FpOp::Fadd,
        FpOp::Fsub,
        FpOp::Fmul,
        FpOp::Fdiv,
        FpOp::Fcmp,
        FpOp::Fcvt,
        FpOp::Ftoi,
    ];

    /// Assembler mnemonic.
    #[must_use]
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            FpOp::Fadd => "fadd",
            FpOp::Fsub => "fsub",
            FpOp::Fmul => "fmul",
            FpOp::Fdiv => "fdiv",
            FpOp::Fcmp => "fcmp",
            FpOp::Fcvt => "fcvt",
            FpOp::Ftoi => "ftoi",
        }
    }

    /// Whether the operation is a one-source convert.
    #[must_use]
    pub(crate) fn is_convert(self) -> bool {
        matches!(self, FpOp::Fcvt | FpOp::Ftoi)
    }
}

/// SIMD element type: the "data type" axis of type-slack (§II-A).
///
/// A 64-bit SIMD register is treated as lanes of the given width, exactly
/// like NEON `D`-register arrangements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SimdType {
    /// Eight 8-bit lanes.
    I8,
    /// Four 16-bit lanes.
    I16,
    /// Two 32-bit lanes.
    I32,
    /// One 64-bit lane.
    I64,
}

impl SimdType {
    /// All SIMD element types, narrowest first.
    pub const ALL: [SimdType; 4] = [SimdType::I8, SimdType::I16, SimdType::I32, SimdType::I64];

    /// Lane width in bits.
    #[must_use]
    pub fn lane_bits(self) -> u32 {
        match self {
            SimdType::I8 => 8,
            SimdType::I16 => 16,
            SimdType::I32 => 32,
            SimdType::I64 => 64,
        }
    }

    /// Number of lanes in a 64-bit register.
    #[must_use]
    pub fn lanes(self) -> u32 {
        64 / self.lane_bits()
    }

    /// 2-bit encoding used as the Width/Type field of the slack LUT address
    /// (Fig. 3).
    #[must_use]
    pub fn type_code(self) -> u8 {
        match self {
            SimdType::I8 => 0,
            SimdType::I16 => 1,
            SimdType::I32 => 2,
            SimdType::I64 => 3,
        }
    }
}

impl fmt::Display for SimdType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.lane_bits())
    }
}

/// SIMD (sub-word parallel) operations.
///
/// `Vadd`/`Vsub`/`Vmax`/`Vmin`/logical ops are single-cycle and participate
/// in transparent chains. `Vmla`'s *accumulate* operand supports
/// late-forwarding (Cortex-A57 style, §V), so back-to-back `VMLA`
/// accumulation chains behave as single-cycle dependences; the multiply
/// operands see the full pipelined multiply latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdOp {
    /// Lane-wise add.
    Vadd,
    /// Lane-wise subtract.
    Vsub,
    /// Lane-wise AND.
    Vand,
    /// Lane-wise OR.
    Vorr,
    /// Lane-wise XOR.
    Veor,
    /// Lane-wise maximum (signed).
    Vmax,
    /// Lane-wise minimum (signed).
    Vmin,
    /// Lane-wise shift right by immediate (logical).
    Vshr,
    /// Lane-wise shift left by immediate.
    Vshl,
    /// Lane-wise multiply (pipelined, multi-cycle).
    Vmul,
    /// Lane-wise multiply-accumulate: `dst += src1 * src2`
    /// (accumulate operand is late-forwarded).
    Vmla,
    /// Duplicate a scalar into all lanes.
    Vdup,
}

impl SimdOp {
    /// All SIMD operations.
    pub(crate) const ALL: [SimdOp; 12] = [
        SimdOp::Vadd,
        SimdOp::Vsub,
        SimdOp::Vand,
        SimdOp::Vorr,
        SimdOp::Veor,
        SimdOp::Vmax,
        SimdOp::Vmin,
        SimdOp::Vshr,
        SimdOp::Vshl,
        SimdOp::Vmul,
        SimdOp::Vmla,
        SimdOp::Vdup,
    ];

    /// Assembler mnemonic, without its lane suffix (`vadd` of `vadd.i16`).
    #[must_use]
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            SimdOp::Vadd => "vadd",
            SimdOp::Vsub => "vsub",
            SimdOp::Vand => "vand",
            SimdOp::Vorr => "vorr",
            SimdOp::Veor => "veor",
            SimdOp::Vmax => "vmax",
            SimdOp::Vmin => "vmin",
            SimdOp::Vshr => "vshr",
            SimdOp::Vshl => "vshl",
            SimdOp::Vmul => "vmul",
            SimdOp::Vmla => "vmla",
            SimdOp::Vdup => "vdup",
        }
    }

    /// Whether the operation is a single-cycle (chainable) SIMD ALU op.
    #[must_use]
    pub fn is_single_cycle(self) -> bool {
        !matches!(self, SimdOp::Vmul | SimdOp::Vmla)
    }

    /// Whether the op exercises lane carry chains (arithmetic rather than
    /// logical lanes).
    #[must_use]
    pub fn is_arith(self) -> bool {
        matches!(
            self,
            SimdOp::Vadd | SimdOp::Vsub | SimdOp::Vmax | SimdOp::Vmin | SimdOp::Vmul | SimdOp::Vmla
        )
    }
}

/// Branch conditions, evaluated against the NZCV flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Always taken (unconditional).
    Al,
    /// Equal (Z set).
    Eq,
    /// Not equal (Z clear).
    Ne,
    /// Signed greater than or equal (N == V).
    Ge,
    /// Signed less than (N != V).
    Lt,
    /// Signed greater than (Z clear and N == V).
    Gt,
    /// Signed less than or equal (Z set or N != V).
    Le,
    /// Unsigned higher or same (C set).
    Hs,
    /// Unsigned lower (C clear).
    Lo,
}

impl Cond {
    /// All branch conditions.
    pub(crate) const ALL: [Cond; 9] = [
        Cond::Al,
        Cond::Eq,
        Cond::Ne,
        Cond::Ge,
        Cond::Lt,
        Cond::Gt,
        Cond::Le,
        Cond::Hs,
        Cond::Lo,
    ];

    /// Assembler mnemonic of the branch on this condition (`b` for
    /// always).
    #[must_use]
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            Cond::Al => "b",
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Ge => "bge",
            Cond::Lt => "blt",
            Cond::Gt => "bgt",
            Cond::Le => "ble",
            Cond::Hs => "bhs",
            Cond::Lo => "blo",
        }
    }

    /// Whether the condition reads the flags register (everything except
    /// `Al`).
    #[must_use]
    pub fn reads_flags(self) -> bool {
        !matches!(self, Cond::Al)
    }
}

/// Memory access width for scalar loads/stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// One byte.
    B1,
    /// Two bytes.
    B2,
    /// Four bytes (word).
    B4,
    /// Eight bytes (SIMD register).
    B8,
}

impl MemWidth {
    /// All access widths, narrowest first.
    pub(crate) const ALL: [MemWidth; 4] = [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8];

    /// Assembler mnemonics of a load and of a store of this width.
    #[must_use]
    pub(crate) fn mnemonics(self) -> (&'static str, &'static str) {
        match self {
            MemWidth::B1 => ("ldrb", "strb"),
            MemWidth::B2 => ("ldrh", "strh"),
            MemWidth::B4 => ("ldr", "str"),
            MemWidth::B8 => ("vldr", "vstr"),
        }
    }

    /// Width in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

/// Coarse execution class used by the timing simulator to choose a
/// functional-unit type and latency class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecClass {
    /// Single-cycle scalar integer ALU operation (slack-recyclable).
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Unpipelined integer divide.
    IntDiv,
    /// Single-cycle SIMD ALU operation (slack-recyclable).
    SimdAlu,
    /// Pipelined SIMD multiply / multiply-accumulate.
    SimdMul,
    /// Floating-point operation.
    Fp,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Control transfer.
    Branch,
}

impl ExecClass {
    /// Whether operations of this class are candidates for transparent
    /// slack recycling (single-cycle combinational execution, §III).
    #[must_use]
    pub fn is_recyclable(self) -> bool {
        matches!(self, ExecClass::IntAlu | ExecClass::SimdAlu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_opcode_set_is_complete() {
        assert_eq!(AluOp::ALL.len(), 21);
        let arith: Vec<_> = AluOp::ALL.iter().filter(|o| o.is_arith()).collect();
        assert_eq!(arith.len(), 8);
    }

    #[test]
    fn compare_ops_have_no_destination() {
        for op in [AluOp::Tst, AluOp::Teq, AluOp::Cmp, AluOp::Cmn] {
            assert!(!op.has_dst());
        }
        assert!(AluOp::Add.has_dst());
    }

    #[test]
    fn carry_consumers() {
        for op in [AluOp::Adc, AluOp::Sbc, AluOp::Rsc, AluOp::Rrx] {
            assert!(op.reads_carry());
        }
        assert!(!AluOp::Add.reads_carry());
    }

    #[test]
    fn simd_lane_geometry() {
        assert_eq!(SimdType::I8.lanes(), 8);
        assert_eq!(SimdType::I16.lanes(), 4);
        assert_eq!(SimdType::I32.lanes(), 2);
        assert_eq!(SimdType::I64.lanes(), 1);
        for t in SimdType::ALL {
            assert_eq!(t.lanes() * t.lane_bits(), 64);
        }
    }

    #[test]
    fn simd_single_cycle_classification() {
        assert!(SimdOp::Vadd.is_single_cycle());
        assert!(SimdOp::Veor.is_single_cycle());
        assert!(!SimdOp::Vmul.is_single_cycle());
        assert!(!SimdOp::Vmla.is_single_cycle());
    }

    #[test]
    fn exec_class_recyclability() {
        assert!(ExecClass::IntAlu.is_recyclable());
        assert!(ExecClass::SimdAlu.is_recyclable());
        for c in [
            ExecClass::IntMul,
            ExecClass::IntDiv,
            ExecClass::Fp,
            ExecClass::Load,
            ExecClass::Store,
            ExecClass::Branch,
            ExecClass::SimdMul,
        ] {
            assert!(!c.is_recyclable());
        }
    }

    #[test]
    fn shift_ops_classified() {
        for op in [AluOp::Lsl, AluOp::Lsr, AluOp::Asr, AluOp::Ror, AluOp::Rrx] {
            assert!(op.is_shift());
            assert!(!op.is_arith());
        }
    }
}
