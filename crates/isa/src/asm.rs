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
//! case-insensitive. Each token class is read through the one spelling
//! its type owns — the `mnemonic` tables of [`crate::opcode`], the
//! `Display` of [`SimdType`] and [`ShiftKind`] — which is what
//! [`crate::disasm`] prints.

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
        // Canonical decimal, as `disasm` prints it: digits only (no
        // sign), and no leading zero but in `0` itself.
        if !num.bytes().all(|c| c.is_ascii_digit()) || (num.len() > 1 && num.starts_with('0')) {
            return Err(bad());
        }
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
                let kind = it.next().ok_or_else(|| err(ln, "missing shift kind"))?;
                let kind = spelled(ShiftKind::ALL, |k| k.to_string(), kind).ok_or_else(|| {
                    err(ln, format!("unknown shift {:?}", kind.to_ascii_lowercase()))
                })?;
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
        let mn = mnemonic.as_str();
        let need = |ok: bool, operands: &str| {
            ok.then_some(())
                .ok_or_else(|| err(ln, format!("{mn} needs {operands}")))
        };

        let instr = if let Some((base, ty)) = mn.split_once('.') {
            // SIMD mnemonics carry a lane suffix: `vadd.i16`.
            let ty = spelled(SimdType::ALL, |t| t.to_string(), ty)
                .ok_or_else(|| err(ln, format!("unknown lane type {ty:?}")))?;
            let op = spelled(SimdOp::ALL, SimdOp::mnemonic, base)
                .ok_or_else(|| err(ln, format!("unknown SIMD mnemonic {base:?}")))?;
            self.simd(op, ty, &ops, ln)?
        } else if let Some((op, set_flags)) = spelled(
            // Flag-setting forms first: compare and test ops spell both
            // forms alike, and always set flags.
            AluOp::ALL
                .into_iter()
                .flat_map(|op| [(op, true), (op, false)]),
            |(op, set_flags)| op.asm_mnemonic(set_flags),
            mn,
        ) {
            let (dst, src1, op2) = match op {
                AluOp::Mov | AluOp::Mvn => {
                    need(ops.len() >= 2, "dst, op2")?;
                    let dst = self.reg(ops[0], ln)?;
                    (Some(dst), None, self.operand2(&ops[1..], ln)?)
                }
                _ if !op.has_dst() => {
                    need(ops.len() >= 2, "src1, op2")?;
                    let src1 = self.reg(ops[0], ln)?;
                    (None, Some(src1), self.operand2(&ops[1..], ln)?)
                }
                // `rrx rd, rn` rotates by an implicit 1; a third operand
                // may still spell the rotate out.
                AluOp::Rrx if ops.len() < 3 => {
                    need(ops.len() == 2, "dst, src1")?;
                    let dst = self.reg(ops[0], ln)?;
                    (Some(dst), Some(self.reg(ops[1], ln)?), Operand2::Imm(1))
                }
                _ => {
                    need(ops.len() >= 3, "dst, src1, op2")?;
                    let dst = self.reg(ops[0], ln)?;
                    let src1 = self.reg(ops[1], ln)?;
                    (Some(dst), Some(src1), self.operand2(&ops[2..], ln)?)
                }
            };
            Instr::Alu {
                op,
                dst,
                src1,
                op2,
                set_flags,
            }
        } else if let Some(op) = spelled(MulOp::ALL, MulOp::mnemonic, mn) {
            let acc = op == MulOp::Mla;
            let shape = if acc {
                "dst, src1, src2, acc"
            } else {
                "dst, src1, src2"
            };
            need(ops.len() == 3 + usize::from(acc), shape)?;
            Instr::MulDiv {
                op,
                dst: self.reg(ops[0], ln)?,
                src1: self.reg(ops[1], ln)?,
                src2: self.reg(ops[2], ln)?,
                acc: acc.then(|| self.reg(ops[3], ln)).transpose()?,
            }
        } else if let Some(op) = spelled(FpOp::ALL, FpOp::mnemonic, mn) {
            if op.is_convert() {
                need(ops.len() == 2, "dst, src")?;
            } else {
                need(ops.len() == 3, "dst, src1, src2")?;
            }
            Instr::Fp {
                op,
                dst: self.reg(ops[0], ln)?,
                src1: self.reg(ops[1], ln)?,
                src2: (!op.is_convert())
                    .then(|| self.reg(ops[2], ln))
                    .transpose()?,
            }
        } else if let Some(width) = spelled(MemWidth::ALL, |w| w.mnemonics().0, mn) {
            need(ops.len() >= 2, "dst, [base(, #off)]")?;
            let dst = self.reg(ops[0], ln)?;
            let (base, offset) = self.mem_operand(&ops[1..], ln)?;
            Instr::Load {
                dst,
                base,
                offset,
                width,
            }
        } else if let Some(width) = spelled(MemWidth::ALL, |w| w.mnemonics().1, mn) {
            need(ops.len() >= 2, "src, [base(, #off)]")?;
            let src = self.reg(ops[0], ln)?;
            let (base, offset) = self.mem_operand(&ops[1..], ln)?;
            Instr::Store {
                src,
                base,
                offset,
                width,
            }
        } else if let Some(cond) = spelled(Cond::ALL, Cond::mnemonic, mn) {
            need(ops.len() == 1 && is_ident(ops[0]), "a label")?;
            Instr::Branch {
                cond,
                target: self.label_id(ops[0]),
            }
        } else if mn == "halt" {
            Instr::Halt
        } else {
            return Err(err(ln, format!("unknown mnemonic {mn:?}")));
        };
        self.builder.push(instr);
        Ok(())
    }

    fn simd(&self, op: SimdOp, ty: SimdType, ops: &[&str], ln: usize) -> Result<Instr, AsmError> {
        // What follows `dst`: how many register sources, and whether an
        // immediate (the shift amount, or the value `vdup` copies) ends it.
        let (shape, srcs, imm) = match op {
            SimdOp::Vdup => ("vdup needs dst, #imm", 0, true),
            SimdOp::Vshl | SimdOp::Vshr => ("SIMD shift needs dst, src, #imm", 1, true),
            _ => ("SIMD op needs dst, src1, src2", 2, false),
        };
        if ops.len() != 1 + srcs + usize::from(imm) {
            return Err(err(ln, shape));
        }
        let dst = self.reg(ops[0], ln)?;
        let src = |i: usize| (i <= srcs).then(|| self.reg(ops[i], ln)).transpose();
        let (src1, src2) = (src(1)?, src(2)?);
        let imm = if imm {
            self.imm(ops[srcs + 1], ln)? as u8
        } else {
            0
        };
        Ok(Instr::Simd {
            op,
            ty,
            dst,
            src1,
            src2,
            imm,
        })
    }
}

/// The value of `all` that `spell` spells as `token`, ignoring ASCII
/// case: the assembler reads every token class through the one spelling
/// its type owns, the same one [`crate::disasm`] prints.
fn spelled<T: Copy, S: AsRef<str>>(
    all: impl IntoIterator<Item = T>,
    spell: impl Fn(T) -> S,
    token: &str,
) -> Option<T> {
    all.into_iter()
        .find(|&v| spell(v).as_ref().eq_ignore_ascii_case(token))
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
