//! Textual assembler for the micro-ISA.
//!
//! Accepts an ARM-flavoured assembly dialect and produces a
//! [`Program`]. This is the convenient way to write workloads by hand
//! (the [`crate::program::ProgramBuilder`] API remains the
//! programmatic route).
//!
//! ## Dialect
//!
//! ```text
//! ; comments run to end of line
//! .mem   65536           ; optional: shrink the 16 MiB flat memory (bytes)
//! .zero  buf 64          ; 64 zeroed bytes, symbol `buf`
//! .words tbl 1 2 0xFF    ; little-endian 32-bit words, symbol `tbl`
//!
//!         mov   r0, =buf          ; symbol address as immediate
//!         mov   r1, #10
//! loop:
//!         ldr   r2, [r0, #4]      ; offset optional
//!         add   r2, r2, r3, lsr #3
//!         adds  r2, r2, #1        ; `s` suffix sets flags (any data op)
//!         rrx   r2, r2            ; rotate right through carry
//!         str   r2, [r0]
//!         vadd.i16 v0, v1, v2     ; SIMD with lane type
//!         vdup.i8  v3, #5
//!         mul   r4, r2, r3
//!         fadd  f0, f1, f2
//!         subs  r1, r1, #1
//!         bne   loop
//!         halt
//! ```
//!
//! Labels may be referenced before they are defined. Mnemonics are
//! case-insensitive.

use std::collections::HashMap;

use crate::instruction::{Instr, LabelId};
use crate::opcode::{AluOp, Cond, FpOp, MemWidth, MulOp, SimdOp, SimdType};
use crate::operand::{Operand2, ShiftKind};
use crate::program::{Program, ProgramBuilder, ProgramError, DEFAULT_MEM_SIZE};
use crate::reg::ArchReg;

/// Assembly error with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for AsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

impl From<ProgramError> for AsmError {
    fn from(e: ProgramError) -> Self {
        AsmError {
            line: 0,
            message: e.to_string(),
        }
    }
}

struct Assembler {
    builder: ProgramBuilder,
    labels: HashMap<String, LabelId>,
    symbols: HashMap<String, u32>,
}

/// Assemble `source` into a [`Program`].
///
/// # Errors
///
/// Returns [`AsmError`] with the offending line on any syntax error,
/// unknown mnemonic/register, or structural problem (e.g. missing `halt`).
///
/// ```
/// let program = redsoc_isa::asm::assemble(
///     "        mov r0, #21\n         add r1, r0, r0\n         halt\n",
/// )?;
/// assert_eq!(program.len(), 3);
/// # Ok::<(), redsoc_isa::asm::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut asm = Assembler {
        builder: ProgramBuilder::new(),
        labels: HashMap::new(),
        symbols: HashMap::new(),
    };

    // Pass 1: collect data directives so symbols resolve anywhere.
    for (ln, raw) in source.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if let Some(rest) = line.strip_prefix(".zero") {
            asm.directive_zero(rest, ln + 1)?;
        } else if let Some(rest) = line.strip_prefix(".words") {
            asm.directive_words(rest, ln + 1)?;
        } else if let Some(rest) = line.strip_prefix(".mem") {
            asm.directive_mem(rest, ln + 1)?;
        }
    }

    // Pass 2: labels and instructions.
    for (ln, raw) in source.lines().enumerate() {
        let ln = ln + 1;
        let mut line = strip_comment(raw).trim();
        if line.is_empty() || line.starts_with('.') {
            continue;
        }
        while let Some(colon) = line.find(':') {
            let (label, rest) = line.split_at(colon);
            let label = label.trim();
            if !is_ident(label) {
                return Err(err(ln, format!("invalid label name {label:?}")));
            }
            let id = asm.label_id(label);
            // `bind` panics on double-binding; detect it ourselves.
            if asm.builder.is_bound(id) {
                return Err(err(ln, format!("label {label:?} defined twice")));
            }
            asm.builder.bind(id);
            line = rest[1..].trim();
        }
        if line.is_empty() {
            continue;
        }
        asm.instruction(line, ln)?;
    }

    // Unbound labels produce a builder error with no line info; map the
    // label name back for a friendlier message.
    match asm.builder.build() {
        Ok(p) => Ok(p),
        Err(ProgramError::UnboundLabel(id)) => {
            let name = asm
                .labels
                .iter()
                .find(|(_, v)| **v == id)
                .map_or_else(|| format!("L{}", id.index()), |(k, _)| k.clone());
            Err(err(
                0,
                format!("label {name:?} is referenced but never defined"),
            ))
        }
        Err(e) => Err(e.into()),
    }
}

fn strip_comment(line: &str) -> &str {
    match line.find(';') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

fn parse_u32(tok: &str, ln: usize) -> Result<u32, AsmError> {
    let t = tok.trim();
    let parsed = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u32::from_str_radix(h, 16)
    } else if let Some(n) = t.strip_prefix('-') {
        return n
            .parse::<u32>()
            .map(|v| v.wrapping_neg())
            .map_err(|e| err(ln, format!("bad number {tok:?}: {e}")));
    } else {
        t.parse::<u32>()
    };
    parsed.map_err(|e| err(ln, format!("bad number {tok:?}: {e}")))
}

impl Assembler {
    fn label_id(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.labels.get(name) {
            return id;
        }
        let id = self.builder.new_label();
        self.labels.insert(name.to_string(), id);
        id
    }

    fn directive_mem(&mut self, rest: &str, ln: usize) -> Result<(), AsmError> {
        let mut it = rest.split_whitespace();
        let bytes = parse_u32(
            it.next().ok_or_else(|| err(ln, ".mem needs a byte size"))?,
            ln,
        )?;
        if it.next().is_some() {
            return Err(err(ln, ".mem takes exactly one value"));
        }
        if !(1..=DEFAULT_MEM_SIZE).contains(&bytes) {
            return Err(err(
                ln,
                format!(".mem size {bytes} is outside 1..={DEFAULT_MEM_SIZE}"),
            ));
        }
        self.builder.mem_size(bytes);
        Ok(())
    }

    /// Reject a data region of `len` bytes that would end past the
    /// largest memory a `.mem` allows, before it is allocated: the data
    /// a source can make the assembler hold stays within that memory.
    fn check_room(&self, len: u64, ln: usize) -> Result<(), AsmError> {
        let start = self.builder.data_end();
        if u64::from(start) + len > u64::from(DEFAULT_MEM_SIZE) {
            return Err(err(
                ln,
                format!(
                    "data region of {len} bytes at {start:#x} ends past the \
                     {DEFAULT_MEM_SIZE}-byte memory"
                ),
            ));
        }
        Ok(())
    }

    fn directive_zero(&mut self, rest: &str, ln: usize) -> Result<(), AsmError> {
        let mut it = rest.split_whitespace();
        let name = it
            .next()
            .ok_or_else(|| err(ln, ".zero needs a symbol name"))?;
        let len = parse_u32(
            it.next().ok_or_else(|| err(ln, ".zero needs a length"))?,
            ln,
        )?;
        if !is_ident(name) {
            return Err(err(ln, format!("invalid symbol name {name:?}")));
        }
        self.check_room(u64::from(len), ln)?;
        let addr = self.builder.alloc_zeroed(len);
        if self.symbols.insert(name.to_string(), addr).is_some() {
            return Err(err(ln, format!("symbol {name:?} defined twice")));
        }
        Ok(())
    }

    fn directive_words(&mut self, rest: &str, ln: usize) -> Result<(), AsmError> {
        let mut it = rest.split_whitespace();
        let name = it
            .next()
            .ok_or_else(|| err(ln, ".words needs a symbol name"))?;
        if !is_ident(name) {
            return Err(err(ln, format!("invalid symbol name {name:?}")));
        }
        let words: Result<Vec<u32>, AsmError> = it.map(|t| parse_u32(t, ln)).collect();
        let words = words?;
        if words.is_empty() {
            return Err(err(ln, ".words needs at least one value"));
        }
        self.check_room(4 * words.len() as u64, ln)?;
        let addr = self.builder.alloc_words(&words);
        if self.symbols.insert(name.to_string(), addr).is_some() {
            return Err(err(ln, format!("symbol {name:?} defined twice")));
        }
        Ok(())
    }

    fn reg(&self, tok: &str, ln: usize) -> Result<ArchReg, AsmError> {
        let bad = || err(ln, format!("bad register {tok:?}"));
        let t = tok.trim().to_ascii_lowercase();
        // An empty token, or one whose first character is not one byte,
        // has no class letter to split off.
        let (class, num) = t.split_at_checked(1).ok_or_else(bad)?;
        let n: u8 = num.parse().map_err(|_| bad())?;
        match class {
            "r" if n < 32 => Ok(ArchReg::int(n)),
            "v" if n < 16 => Ok(ArchReg::simd(n)),
            "f" if n < 16 => Ok(ArchReg::fp(n)),
            _ => Err(bad()),
        }
    }

    /// An immediate `#n` or symbol reference `=name`.
    fn imm(&self, tok: &str, ln: usize) -> Result<u32, AsmError> {
        let t = tok.trim();
        if let Some(n) = t.strip_prefix('#') {
            parse_u32(n, ln)
        } else if let Some(name) = t.strip_prefix('=') {
            self.symbols
                .get(name)
                .copied()
                .ok_or_else(|| err(ln, format!("unknown symbol {name:?}")))
        } else {
            Err(err(
                ln,
                format!("expected immediate or =symbol, got {tok:?}"),
            ))
        }
    }

    /// Flexible operand 2: `#imm`, `=symbol`, `rN`, or `rN, <shift> #k`
    /// (the shift arrives as extra operands).
    fn operand2(&self, toks: &[&str], ln: usize) -> Result<Operand2, AsmError> {
        match toks {
            [one] => {
                let t = one.trim();
                if t.starts_with('#') || t.starts_with('=') {
                    Ok(Operand2::Imm(self.imm(t, ln)?))
                } else {
                    Ok(Operand2::Reg(self.reg(t, ln)?))
                }
            }
            [reg, shift] => {
                let reg = self.reg(reg, ln)?;
                let mut it = shift.split_whitespace();
                let kind = match it
                    .next()
                    .ok_or_else(|| err(ln, "missing shift kind"))?
                    .to_ascii_lowercase()
                    .as_str()
                {
                    "lsl" => ShiftKind::Lsl,
                    "lsr" => ShiftKind::Lsr,
                    "asr" => ShiftKind::Asr,
                    "ror" => ShiftKind::Ror,
                    other => return Err(err(ln, format!("unknown shift {other:?}"))),
                };
                let amount = self.imm(
                    it.next().ok_or_else(|| err(ln, "missing shift amount"))?,
                    ln,
                )?;
                if !(1..32).contains(&amount) {
                    return Err(err(
                        ln,
                        format!("shift amount {amount} out of range 1..=31"),
                    ));
                }
                Ok(Operand2::ShiftedReg {
                    reg,
                    kind,
                    amount: amount as u8,
                })
            }
            _ => Err(err(ln, "malformed operand 2")),
        }
    }

    /// `[rN]` or `[rN, #off]` → (base, offset).
    fn mem_operand(&self, toks: &[&str], ln: usize) -> Result<(ArchReg, i32), AsmError> {
        let joined = toks.join(",");
        let inner = joined
            .trim()
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| err(ln, format!("expected [base(, #off)], got {joined:?}")))?;
        let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
        let base = self.reg(parts[0], ln)?;
        let offset = match parts.len() {
            1 => 0i32,
            2 => self.imm(parts[1], ln)? as i32,
            _ => return Err(err(ln, "malformed address operand")),
        };
        Ok((base, offset))
    }

    #[allow(clippy::too_many_lines)]
    fn instruction(&mut self, line: &str, ln: usize) -> Result<(), AsmError> {
        let (mnemonic, rest) = match line.find(char::is_whitespace) {
            Some(i) => (line[..i].to_ascii_lowercase(), line[i..].trim()),
            None => (line.to_ascii_lowercase(), ""),
        };
        let ops: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };

        // SIMD mnemonics carry a lane suffix: `vadd.i16`.
        if let Some((base, ty)) = mnemonic.split_once('.') {
            let ty = match ty {
                "i8" => SimdType::I8,
                "i16" => SimdType::I16,
                "i32" => SimdType::I32,
                "i64" => SimdType::I64,
                other => return Err(err(ln, format!("unknown lane type {other:?}"))),
            };
            return self.simd_instruction(base, ty, &ops, ln);
        }

        let alu3 = |op: AluOp, set_flags: bool, asm: &mut Assembler| -> Result<(), AsmError> {
            if ops.len() < 3 {
                return Err(err(ln, format!("{mnemonic} needs dst, src1, op2")));
            }
            let dst = asm.reg(ops[0], ln)?;
            let src1 = asm.reg(ops[1], ln)?;
            let op2 = asm.operand2(&ops[2..], ln)?;
            asm.builder.push(Instr::Alu {
                op,
                dst: Some(dst),
                src1: Some(src1),
                op2,
                set_flags,
            });
            Ok(())
        };

        match mnemonic.as_str() {
            // Three-operand ALU ops, plain and flag-setting.
            "add" => alu3(AluOp::Add, false, self),
            "adds" => alu3(AluOp::Add, true, self),
            "sub" => alu3(AluOp::Sub, false, self),
            "subs" => alu3(AluOp::Sub, true, self),
            "rsb" => alu3(AluOp::Rsb, false, self),
            "rsbs" => alu3(AluOp::Rsb, true, self),
            "adc" => alu3(AluOp::Adc, false, self),
            "adcs" => alu3(AluOp::Adc, true, self),
            "sbc" => alu3(AluOp::Sbc, false, self),
            "sbcs" => alu3(AluOp::Sbc, true, self),
            "rsc" => alu3(AluOp::Rsc, false, self),
            "rscs" => alu3(AluOp::Rsc, true, self),
            "and" => alu3(AluOp::And, false, self),
            "ands" => alu3(AluOp::And, true, self),
            "orr" => alu3(AluOp::Orr, false, self),
            "orrs" => alu3(AluOp::Orr, true, self),
            "eor" => alu3(AluOp::Eor, false, self),
            "eors" => alu3(AluOp::Eor, true, self),
            "bic" => alu3(AluOp::Bic, false, self),
            "bics" => alu3(AluOp::Bic, true, self),
            "lsl" => alu3(AluOp::Lsl, false, self),
            "lsls" => alu3(AluOp::Lsl, true, self),
            "lsr" => alu3(AluOp::Lsr, false, self),
            "lsrs" => alu3(AluOp::Lsr, true, self),
            "asr" => alu3(AluOp::Asr, false, self),
            "asrs" => alu3(AluOp::Asr, true, self),
            "ror" => alu3(AluOp::Ror, false, self),
            "rors" => alu3(AluOp::Ror, true, self),
            "rrx" | "rrxs" => {
                // Canonical two-operand form (`rrx rd, rn` — the rotate
                // count is implicitly 1) or an explicit third operand.
                if ops.len() < 2 {
                    return Err(err(ln, format!("{mnemonic} needs dst, src1")));
                }
                let dst = self.reg(ops[0], ln)?;
                let src1 = self.reg(ops[1], ln)?;
                let op2 = if ops.len() == 2 {
                    Operand2::Imm(1)
                } else {
                    self.operand2(&ops[2..], ln)?
                };
                self.builder.push(Instr::Alu {
                    op: AluOp::Rrx,
                    dst: Some(dst),
                    src1: Some(src1),
                    op2,
                    set_flags: mnemonic == "rrxs",
                });
                Ok(())
            }
            "mov" | "movs" | "mvn" | "mvns" => {
                if ops.len() < 2 {
                    return Err(err(ln, format!("{mnemonic} needs dst, op2")));
                }
                let dst = self.reg(ops[0], ln)?;
                let op2 = self.operand2(&ops[1..], ln)?;
                let op = if mnemonic.starts_with("mov") {
                    AluOp::Mov
                } else {
                    AluOp::Mvn
                };
                self.builder.push(Instr::Alu {
                    op,
                    dst: Some(dst),
                    src1: None,
                    op2,
                    set_flags: mnemonic.ends_with('s'),
                });
                Ok(())
            }
            "cmp" | "cmn" | "tst" | "teq" => {
                if ops.len() < 2 {
                    return Err(err(ln, format!("{mnemonic} needs src1, op2")));
                }
                let src1 = self.reg(ops[0], ln)?;
                let op2 = self.operand2(&ops[1..], ln)?;
                let op = match mnemonic.as_str() {
                    "cmp" => AluOp::Cmp,
                    "cmn" => AluOp::Cmn,
                    "tst" => AluOp::Tst,
                    _ => AluOp::Teq,
                };
                self.builder.push(Instr::Alu {
                    op,
                    dst: None,
                    src1: Some(src1),
                    op2,
                    set_flags: true,
                });
                Ok(())
            }
            "mul" | "udiv" | "sdiv" => {
                if ops.len() != 3 {
                    return Err(err(ln, format!("{mnemonic} needs dst, src1, src2")));
                }
                let op = match mnemonic.as_str() {
                    "mul" => MulOp::Mul,
                    "udiv" => MulOp::Udiv,
                    _ => MulOp::Sdiv,
                };
                let dst = self.reg(ops[0], ln)?;
                self.builder.push(Instr::MulDiv {
                    op,
                    dst,
                    src1: self.reg(ops[1], ln)?,
                    src2: self.reg(ops[2], ln)?,
                    acc: None,
                });
                Ok(())
            }
            "mla" => {
                if ops.len() != 4 {
                    return Err(err(ln, "mla needs dst, src1, src2, acc"));
                }
                let dst = self.reg(ops[0], ln)?;
                self.builder.push(Instr::MulDiv {
                    op: MulOp::Mla,
                    dst,
                    src1: self.reg(ops[1], ln)?,
                    src2: self.reg(ops[2], ln)?,
                    acc: Some(self.reg(ops[3], ln)?),
                });
                Ok(())
            }
            "fadd" | "fsub" | "fmul" | "fdiv" | "fcmp" => {
                if ops.len() != 3 {
                    return Err(err(ln, format!("{mnemonic} needs dst, src1, src2")));
                }
                let op = match mnemonic.as_str() {
                    "fadd" => FpOp::Fadd,
                    "fsub" => FpOp::Fsub,
                    "fmul" => FpOp::Fmul,
                    "fdiv" => FpOp::Fdiv,
                    _ => FpOp::Fcmp,
                };
                self.builder.push(Instr::Fp {
                    op,
                    dst: self.reg(ops[0], ln)?,
                    src1: self.reg(ops[1], ln)?,
                    src2: Some(self.reg(ops[2], ln)?),
                });
                Ok(())
            }
            "fcvt" | "ftoi" => {
                if ops.len() != 2 {
                    return Err(err(ln, format!("{mnemonic} needs dst, src")));
                }
                let op = if mnemonic == "fcvt" {
                    FpOp::Fcvt
                } else {
                    FpOp::Ftoi
                };
                self.builder.push(Instr::Fp {
                    op,
                    dst: self.reg(ops[0], ln)?,
                    src1: self.reg(ops[1], ln)?,
                    src2: None,
                });
                Ok(())
            }
            "ldr" | "ldrb" | "ldrh" | "vldr" => {
                if ops.len() < 2 {
                    return Err(err(ln, format!("{mnemonic} needs dst, [base(, #off)]")));
                }
                let dst = self.reg(ops[0], ln)?;
                let (base, offset) = self.mem_operand(&ops[1..], ln)?;
                let width = match mnemonic.as_str() {
                    "ldrb" => MemWidth::B1,
                    "ldrh" => MemWidth::B2,
                    "vldr" => MemWidth::B8,
                    _ => MemWidth::B4,
                };
                self.builder.push(Instr::Load {
                    dst,
                    base,
                    offset,
                    width,
                });
                Ok(())
            }
            "str" | "strb" | "strh" | "vstr" => {
                if ops.len() < 2 {
                    return Err(err(ln, format!("{mnemonic} needs src, [base(, #off)]")));
                }
                let src = self.reg(ops[0], ln)?;
                let (base, offset) = self.mem_operand(&ops[1..], ln)?;
                let width = match mnemonic.as_str() {
                    "strb" => MemWidth::B1,
                    "strh" => MemWidth::B2,
                    "vstr" => MemWidth::B8,
                    _ => MemWidth::B4,
                };
                self.builder.push(Instr::Store {
                    src,
                    base,
                    offset,
                    width,
                });
                Ok(())
            }
            "b" | "beq" | "bne" | "bge" | "blt" | "bgt" | "ble" | "bhs" | "blo" => {
                if ops.len() != 1 || !is_ident(ops[0]) {
                    return Err(err(ln, format!("{mnemonic} needs a label")));
                }
                let cond = match mnemonic.as_str() {
                    "b" => Cond::Al,
                    "beq" => Cond::Eq,
                    "bne" => Cond::Ne,
                    "bge" => Cond::Ge,
                    "blt" => Cond::Lt,
                    "bgt" => Cond::Gt,
                    "ble" => Cond::Le,
                    "bhs" => Cond::Hs,
                    _ => Cond::Lo,
                };
                let target = self.label_id(ops[0]);
                self.builder.push(Instr::Branch { cond, target });
                Ok(())
            }
            "halt" => {
                self.builder.halt();
                Ok(())
            }
            other => Err(err(ln, format!("unknown mnemonic {other:?}"))),
        }
    }

    fn simd_instruction(
        &mut self,
        base: &str,
        ty: SimdType,
        ops: &[&str],
        ln: usize,
    ) -> Result<(), AsmError> {
        let op = match base {
            "vadd" => SimdOp::Vadd,
            "vsub" => SimdOp::Vsub,
            "vand" => SimdOp::Vand,
            "vorr" => SimdOp::Vorr,
            "veor" => SimdOp::Veor,
            "vmax" => SimdOp::Vmax,
            "vmin" => SimdOp::Vmin,
            "vmul" => SimdOp::Vmul,
            "vmla" => SimdOp::Vmla,
            "vshl" => SimdOp::Vshl,
            "vshr" => SimdOp::Vshr,
            "vdup" => SimdOp::Vdup,
            other => return Err(err(ln, format!("unknown SIMD mnemonic {other:?}"))),
        };
        match op {
            SimdOp::Vdup => {
                if ops.len() != 2 {
                    return Err(err(ln, "vdup needs dst, #imm"));
                }
                let dst = self.reg(ops[0], ln)?;
                let v = self.imm(ops[1], ln)?;
                self.builder.push(Instr::Simd {
                    op,
                    ty,
                    dst,
                    src1: None,
                    src2: None,
                    imm: v as u8,
                });
            }
            SimdOp::Vshl | SimdOp::Vshr => {
                if ops.len() != 3 {
                    return Err(err(ln, "SIMD shift needs dst, src, #imm"));
                }
                let dst = self.reg(ops[0], ln)?;
                let src1 = self.reg(ops[1], ln)?;
                let v = self.imm(ops[2], ln)?;
                self.builder.push(Instr::Simd {
                    op,
                    ty,
                    dst,
                    src1: Some(src1),
                    src2: None,
                    imm: v as u8,
                });
            }
            _ => {
                if ops.len() != 3 {
                    return Err(err(ln, "SIMD op needs dst, src1, src2"));
                }
                let dst = self.reg(ops[0], ln)?;
                let src1 = self.reg(ops[1], ln)?;
                let src2 = self.reg(ops[2], ln)?;
                self.builder.push(Instr::Simd {
                    op,
                    ty,
                    dst,
                    src1: Some(src1),
                    src2: Some(src2),
                    imm: 0,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::program::r;

    #[test]
    fn assembles_and_runs_a_loop() {
        let src = "
            ; sum the numbers 1..=10
                    mov r0, #10
                    mov r1, #0
            loop:   add r1, r1, r0
                    subs r0, r0, #1
                    bne loop
                    halt
        ";
        let p = assemble(src).expect("assembles");
        let mut i = Interpreter::new(&p);
        while i.step().is_some() {}
        assert!(i.is_halted());
        assert_eq!(i.reg(r(1)), 55);
    }

    #[test]
    fn data_symbols_and_memory() {
        let src = "
            .words tbl 7 8 9
            .zero  out 16
                    mov r0, =tbl
                    mov r1, =out
                    ldr r2, [r0, #4]
                    str r2, [r1]
                    halt
        ";
        let p = assemble(src).expect("assembles");
        let mut i = Interpreter::new(&p);
        while i.step().is_some() {}
        let out_addr = p.data().iter().find(|(_, b)| b.len() == 16).unwrap().0;
        assert_eq!(i.mem_u32(out_addr), 8);
    }

    #[test]
    fn shifted_operand_and_simd() {
        let src = "
                    mov r0, #0x100
                    add r1, r0, r0, lsr #4
                    vdup.i16 v0, #3
                    vadd.i16 v1, v0, v0
                    halt
        ";
        let p = assemble(src).expect("assembles");
        let mut i = Interpreter::new(&p);
        while i.step().is_some() {}
        assert_eq!(i.reg(r(1)), 0x110);
        assert_eq!(i.reg(crate::program::v(1)) & 0xFFFF, 6);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("mov r0, #1\nfrobnicate r1\nhalt").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"), "{e}");
        let e = assemble("ldr r0, [r99]\nhalt").unwrap_err();
        assert_eq!(e.line, 1);
        let e = assemble("mov r0, #zzz\nhalt").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn undefined_label_is_reported_by_name() {
        let e = assemble("b nowhere\nhalt").unwrap_err();
        assert!(e.message.contains("nowhere"), "{e}");
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = assemble("x:\nmov r0, #1\nx:\nhalt").unwrap_err();
        assert!(e.message.contains("twice"), "{e}");
    }

    #[test]
    fn missing_halt_rejected() {
        assert!(assemble("mov r0, #1\n").is_err());
    }

    #[test]
    fn flag_setting_variants_and_rrx() {
        // 0b101 rotated right through carry (carry clear): 0b10, C := 1;
        // a second RRX pulls that carry into bit 31.
        let src = "
                movs r0, #5
                rrxs r1, r0
                rrx  r2, r1
                eors r3, r1, r1
                halt
        ";
        let p = assemble(src).expect("assembles");
        let mut i = Interpreter::new(&p);
        while i.step().is_some() {}
        assert_eq!(i.reg(r(1)), 2);
        assert_eq!(i.reg(r(2)), 0x8000_0001);
        assert_eq!(i.reg(r(3)), 0, "eors computes and sets Z");
        for (mn, op) in [
            ("rsbs", AluOp::Rsb),
            ("adcs", AluOp::Adc),
            ("sbcs", AluOp::Sbc),
            ("rscs", AluOp::Rsc),
            ("orrs", AluOp::Orr),
            ("bics", AluOp::Bic),
            ("lsls", AluOp::Lsl),
            ("lsrs", AluOp::Lsr),
            ("asrs", AluOp::Asr),
            ("rors", AluOp::Ror),
            ("mvns", AluOp::Mvn),
        ] {
            let p = assemble(&format!("{mn} r0, r1, #3\nhalt")).or_else(|_| {
                // Two-operand forms (mvns) take dst, op2 only.
                assemble(&format!("{mn} r0, #3\nhalt"))
            });
            let p = p.unwrap_or_else(|e| panic!("{mn} must assemble: {e}"));
            match p.instrs()[0] {
                Instr::Alu {
                    op: got, set_flags, ..
                } => {
                    assert_eq!(got, op, "{mn}");
                    assert!(set_flags, "{mn} must set flags");
                }
                ref other => panic!("{mn} produced {other:?}"),
            }
        }
    }

    #[test]
    fn mem_directive_sets_memory_size() {
        let p = assemble(".mem 65536\nmov r0, #1\nhalt").expect("assembles");
        assert_eq!(p.mem_size(), 65536);
        assert!(assemble(".mem\nhalt").is_err());
        assert!(assemble(".mem 1 2\nhalt").is_err());
        let max = format!(".mem {DEFAULT_MEM_SIZE}\nhalt");
        assert_eq!(
            assemble(&max).expect("default size").mem_size(),
            DEFAULT_MEM_SIZE
        );
        // Sizes outside 1..=16 MiB are rejected at the directive's line.
        for bad in ["0", "16777217", "4294967295"] {
            let e = assemble(&format!("mov r0, #1\n.mem {bad}\nhalt")).expect_err(bad);
            assert_eq!(e.line, 2, "{bad}: {e:?}");
            assert!(e.message.contains("outside"), "{bad}: {e:?}");
        }
    }

    #[test]
    fn mla_and_fp_roundtrip() {
        let src = "
                mov r0, #6
                mov r1, #7
                mov r2, #8
                mla r3, r0, r1, r2
                fcvt f0, r3
                fadd f1, f0, f0
                ftoi r4, f1
                halt
        ";
        let p = assemble(src).expect("assembles");
        let mut i = Interpreter::new(&p);
        while i.step().is_some() {}
        assert_eq!(i.reg(r(3)), 50);
        assert_eq!(i.reg(r(4)), 100);
    }
}
