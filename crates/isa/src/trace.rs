//! Dynamic instruction traces.
//!
//! The timing simulator is *trace driven*: a functional front end (the
//! [`Interpreter`](crate::interp::Interpreter) or a synthetic workload
//! generator) produces a stream of [`DynOp`]s — decoded instructions
//! annotated with the dynamic facts timing depends on (effective address,
//! branch direction, effective operand width). The out-of-order core model
//! then replays this committed path with detailed timing.
//!
//! Traces can be consumed lazily through any `Iterator<Item = DynOp>`, so
//! multi-million-instruction runs never materialise in memory.

use crate::instruction::Instr;

/// One dynamic (executed) instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynOp {
    /// Sequence number in program order (0-based).
    pub seq: u64,
    /// Byte PC (instruction index × 4), used to index predictors.
    pub pc: u32,
    /// The decoded static instruction.
    pub instr: Instr,
    /// Effective byte address for loads/stores.
    pub eff_addr: Option<u32>,
    /// Whether a branch was taken.
    pub taken: bool,
    /// For taken branches: the byte PC of the target.
    pub target_pc: u32,
    /// Effective data width of the computation in bits (1..=64): the
    /// position of the most significant set bit across the operation's
    /// inputs and result. Determines width slack (§II-A) and is what the
    /// data-width predictor learns.
    pub eff_bits: u8,
}

impl DynOp {
    /// Construct a non-memory, non-branch op with full-width operands —
    /// convenient in tests and synthetic generators.
    #[must_use]
    pub fn simple(seq: u64, pc: u32, instr: Instr) -> Self {
        DynOp {
            seq,
            pc,
            instr,
            eff_addr: None,
            taken: false,
            target_pc: 0,
            eff_bits: 32,
        }
    }
}

/// Effective width in bits of a 32-bit value (minimum 1, so that zero still
/// exercises a one-bit path).
///
/// Sign-aware, like the narrow-width literature the paper builds on: a
/// two's-complement value whose high bits are all copies of the sign bit
/// only exercises the low bits plus the sign — so `-1` is one bit wide and
/// `-128` is eight. This keeps sign-mask idioms (`asr #31` producing 0 or
/// −1) narrow instead of flapping the width predictor.
#[must_use]
pub fn significant_bits(value: u32) -> u8 {
    let lead = value.leading_zeros().max(value.leading_ones());
    (33 - lead).clamp(1, 32) as u8
}

/// Effective width across several values: the widest of them.
#[must_use]
pub fn significant_bits_max(values: &[u32]) -> u8 {
    values
        .iter()
        .map(|&v| significant_bits(v))
        .max()
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::AluOp;
    use crate::operand::Operand2;
    use crate::reg::ArchReg;

    #[test]
    fn significant_bits_boundaries() {
        assert_eq!(significant_bits(0), 1);
        assert_eq!(significant_bits(1), 2); // 0b01: one value bit + sign
        assert_eq!(significant_bits(2), 3);
        assert_eq!(significant_bits(0x7F), 8);
        assert_eq!(significant_bits(0xFF), 9);
        assert_eq!(significant_bits(0x100), 10);
        // Sign-aware: small negative values are narrow.
        assert_eq!(significant_bits(u32::MAX), 1); // -1
        assert_eq!(significant_bits(-2i32 as u32), 2);
        assert_eq!(significant_bits(-128i32 as u32), 8);
        assert_eq!(significant_bits(0x8000_0000), 32); // i32::MIN needs all bits
    }

    #[test]
    fn significant_bits_max_takes_widest() {
        assert_eq!(significant_bits_max(&[1, 0xFFFF, 3]), 17);
        assert_eq!(significant_bits_max(&[]), 1);
    }

    #[test]
    fn trace_collects_from_iterator() {
        let i = Instr::Alu {
            op: AluOp::Add,
            dst: Some(ArchReg::int(0)),
            src1: Some(ArchReg::int(0)),
            op2: Operand2::Imm(1),
            set_flags: false,
        };
        let t: Vec<DynOp> = (0..5).map(|s| DynOp::simple(s, 0, i)).collect();
        assert_eq!(t.len(), 5);
        assert_eq!(t[4].seq, 4);
        let back: Vec<_> = t.into_iter().collect();
        assert_eq!(back.len(), 5);
    }
}
