//! Second-operand forms (ARM-style flexible operand 2).
//!
//! The "rich semantics" the paper blames for growing data slack (§II-A) come
//! largely from the flexible second ALU operand: a register optionally passed
//! through the barrel shifter before entering the adder. An `ADD` with a
//! shifted register operand (`ADD-LSR` in Fig. 1) is the timing-critical
//! datapath configuration that sets the clock period, while a plain register
//! or immediate operand leaves the shifter inactive and produces slack.

use core::fmt;

use crate::reg::ArchReg;

/// Shift applied to a register second operand by the barrel shifter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftKind {
    /// Logical shift left.
    Lsl,
    /// Logical shift right.
    Lsr,
    /// Arithmetic shift right.
    Asr,
    /// Rotate right.
    Ror,
}

impl ShiftKind {
    /// All shift kinds.
    pub(crate) const ALL: [ShiftKind; 4] = [
        ShiftKind::Lsl,
        ShiftKind::Lsr,
        ShiftKind::Asr,
        ShiftKind::Ror,
    ];
}

impl fmt::Display for ShiftKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ShiftKind::Lsl => "lsl",
            ShiftKind::Lsr => "lsr",
            ShiftKind::Asr => "asr",
            ShiftKind::Ror => "ror",
        };
        f.write_str(s)
    }
}

/// The flexible second operand of a scalar ALU instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand2 {
    /// An immediate value.
    Imm(u32),
    /// A plain register.
    Reg(ArchReg),
    /// A register pre-shifted by an immediate amount — the configuration
    /// that elongates the critical path (Fig. 1 `ADD-LSR`, `SUB-ROR`).
    ShiftedReg {
        /// The register supplying the value.
        reg: ArchReg,
        /// The barrel-shifter operation.
        kind: ShiftKind,
        /// Shift amount in bits (1..=31).
        amount: u8,
    },
}

impl Operand2 {
    /// Convenience constructor for a shifted register.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is 0 or ≥ 32.
    #[must_use]
    pub fn shifted(reg: ArchReg, kind: ShiftKind, amount: u8) -> Self {
        assert!(
            (1..32).contains(&amount),
            "shift amount {amount} out of range 1..=31"
        );
        Operand2::ShiftedReg { reg, kind, amount }
    }

    /// The register this operand reads, if any.
    #[must_use]
    pub fn reg(&self) -> Option<ArchReg> {
        match *self {
            Operand2::Imm(_) => None,
            Operand2::Reg(r) | Operand2::ShiftedReg { reg: r, .. } => Some(r),
        }
    }

    /// Whether the operand engages the barrel shifter (the "shift" bit of
    /// the slack LUT address, Fig. 3).
    #[must_use]
    pub fn uses_shifter(&self) -> bool {
        matches!(self, Operand2::ShiftedReg { .. })
    }

    /// Apply the shifter to `value` (with the given carry-in for rotate
    /// semantics parity; plain shifts ignore it). Returns the shifted value.
    #[must_use]
    pub fn apply_shift(&self, value: u32) -> u32 {
        match *self {
            Operand2::Imm(v) => v,
            Operand2::Reg(_) => value,
            Operand2::ShiftedReg { kind, amount, .. } => {
                let a = u32::from(amount);
                match kind {
                    ShiftKind::Lsl => value << a,
                    ShiftKind::Lsr => value >> a,
                    ShiftKind::Asr => ((value as i32) >> a) as u32,
                    ShiftKind::Ror => value.rotate_right(a),
                }
            }
        }
    }
}

impl From<u32> for Operand2 {
    fn from(v: u32) -> Self {
        Operand2::Imm(v)
    }
}

impl From<ArchReg> for Operand2 {
    fn from(r: ArchReg) -> Self {
        Operand2::Reg(r)
    }
}

impl fmt::Display for Operand2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand2::Imm(v) => write!(f, "#{v}"),
            Operand2::Reg(r) => write!(f, "{r}"),
            Operand2::ShiftedReg { reg, kind, amount } => write!(f, "{reg}, {kind} #{amount}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifter_semantics() {
        let r = ArchReg::int(0);
        assert_eq!(
            Operand2::shifted(r, ShiftKind::Lsl, 4).apply_shift(0x1),
            0x10
        );
        assert_eq!(
            Operand2::shifted(r, ShiftKind::Lsr, 4).apply_shift(0x100),
            0x10
        );
        assert_eq!(
            Operand2::shifted(r, ShiftKind::Asr, 1).apply_shift(0x8000_0000),
            0xC000_0000
        );
        assert_eq!(
            Operand2::shifted(r, ShiftKind::Ror, 8).apply_shift(0x0000_00FF),
            0xFF00_0000
        );
    }

    #[test]
    fn plain_forms_do_not_use_shifter() {
        assert!(!Operand2::Imm(3).uses_shifter());
        assert!(!Operand2::Reg(ArchReg::int(1)).uses_shifter());
        assert!(Operand2::shifted(ArchReg::int(1), ShiftKind::Lsl, 1).uses_shifter());
    }

    #[test]
    fn reg_extraction() {
        assert_eq!(Operand2::Imm(5).reg(), None);
        assert_eq!(Operand2::Reg(ArchReg::int(7)).reg(), Some(ArchReg::int(7)));
        assert_eq!(
            Operand2::shifted(ArchReg::int(7), ShiftKind::Ror, 3).reg(),
            Some(ArchReg::int(7))
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_shift_amount_rejected() {
        let _ = Operand2::shifted(ArchReg::int(0), ShiftKind::Lsl, 0);
    }

    #[test]
    fn conversions() {
        assert_eq!(Operand2::from(9u32), Operand2::Imm(9));
        assert_eq!(
            Operand2::from(ArchReg::int(2)),
            Operand2::Reg(ArchReg::int(2))
        );
    }
}
