//! Re-assemblable disassembler: [`Program`] → assembler dialect text.
//!
//! The one text form of a program: canonical [`crate::asm`] dialect text
//! whose round trip is exact, so a program can be written to disk,
//! committed as a regression fixture, and re-executed bit-for-bit — the
//! contract the differential fuzzing harness's `.asm` repros rely on.
//! Every token prints through the spelling its type owns (the mnemonic
//! tables in [`crate::opcode`], the `Display` of registers, operand 2,
//! shift kinds and lane types), which is the spelling the assembler reads.
//!
//! Canonical-form guarantees (what makes `asm → Program → disasm → asm` a
//! fixed point):
//!
//! - data blocks are emitted in allocation order as `.zero dN len` /
//!   `.words dN w…`, so re-assembly places them at identical addresses;
//! - a `.mem` directive pins a non-default memory size;
//! - labels are renamed `L0, L1, …` in order of first textual appearance
//!   (binding or branch reference, whichever comes first), matching the
//!   assembler's id-assignment order on re-assembly;
//! - every instruction renders in exactly one spelling (flag-setting `s`
//!   suffix, two-operand `rrx`, `[base]` for zero offsets).
//!
//! Only *canonical* programs — the shapes the [`crate::program::ProgramBuilder`]
//! helpers and the assembler itself produce — are representable;
//! [`disassemble`] reports the offending instruction otherwise (e.g. a
//! `MOV` carrying a phantom `src1` dependency, which the dialect cannot
//! spell).

use std::fmt::Write as _;

use crate::instruction::Instr;
use crate::opcode::{AluOp, SimdOp};
use crate::operand::Operand2;
use crate::program::{Program, DEFAULT_MEM_SIZE};
use crate::reg::ArchReg;

/// A [`Program`] shape the assembler dialect cannot spell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisasmError {
    /// Instruction index (or data-block index) that failed to render.
    pub index: usize,
    /// What is not representable.
    pub message: String,
}

impl core::fmt::Display for DisasmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "instruction {}: {}", self.index, self.message)
    }
}

impl std::error::Error for DisasmError {}

fn fail(index: usize, message: impl Into<String>) -> DisasmError {
    DisasmError {
        index,
        message: message.into(),
    }
}

fn mem_str(base: ArchReg, offset: i32) -> String {
    if offset == 0 {
        format!("[{base}]")
    } else {
        format!("[{base}, #{offset}]")
    }
}

/// Canonical label numbering: `L0, L1, …` by first textual appearance.
///
/// A label first appears either on its binding line (just before the
/// instruction it resolves to) or inside the first branch that references
/// it — whichever renders earlier. The assembler assigns ids in exactly
/// that encounter order, so re-assembling the emitted text reproduces the
/// numbering and the fixed point holds even for backward/forward branch
/// mixtures.
fn canonical_labels(p: &Program) -> Vec<(u32, usize)> {
    // (first-appearance key, raw id) — key orders binding lines (k, 0)
    // ahead of the instruction at k (k, 1).
    let mut seen: Vec<(usize, usize, u32)> = Vec::new();
    for (j, instr) in p.instrs().iter().enumerate() {
        if let Instr::Branch { target, .. } = instr {
            let raw = target.index() as u32;
            if seen.iter().any(|&(_, _, r)| r == raw) {
                continue;
            }
            let bind = p.resolve(*target);
            // The binding line precedes instruction `bind`; the reference
            // sits inside instruction `j`.
            let key = (bind, 0).min((j, 1));
            seen.push((key.0, key.1, raw));
        }
    }
    seen.sort_unstable();
    seen.iter()
        .enumerate()
        .map(|(canon, &(_, _, raw))| (raw, canon))
        .collect()
}

/// One instruction in its canonical spelling: registers, operand 2
/// and lane types print through their `Display`, every mnemonic through
/// the table its operation type owns (the tables [`crate::asm`] parses).
fn instr_line(
    instr: &Instr,
    idx: usize,
    label_name: &dyn Fn(u32) -> String,
) -> Result<String, DisasmError> {
    let line = match *instr {
        Instr::Alu {
            op,
            dst,
            src1,
            op2,
            set_flags,
        } => {
            let mn = op.asm_mnemonic(set_flags);
            let need = |r: Option<ArchReg>, what: &str| {
                r.ok_or_else(|| fail(idx, format!("{mn} without {what}")))
            };
            match op {
                AluOp::Mov | AluOp::Mvn => {
                    let d = need(dst, "dst")?;
                    if src1.is_some() {
                        return Err(fail(idx, format!("{mn} with a src1 dependency")));
                    }
                    format!("{mn} {d}, {op2}")
                }
                _ if !op.has_dst() => {
                    if dst.is_some() {
                        return Err(fail(idx, format!("{mn} with a dst")));
                    }
                    format!("{mn} {}, {op2}", need(src1, "src1")?)
                }
                AluOp::Rrx if op2 == Operand2::Imm(1) => {
                    let d = need(dst, "dst")?;
                    format!("{mn} {d}, {}", need(src1, "src1")?)
                }
                _ => {
                    let d = need(dst, "dst")?;
                    format!("{mn} {d}, {}, {op2}", need(src1, "src1")?)
                }
            }
        }
        Instr::MulDiv {
            op,
            dst,
            src1,
            src2,
            acc,
        } => {
            let acc = acc.map(|a| format!(", {a}")).unwrap_or_default();
            format!("{} {dst}, {src1}, {src2}{acc}", op.mnemonic())
        }
        Instr::Fp {
            op,
            dst,
            src1,
            src2,
        } => {
            let mn = op.mnemonic();
            match (op.is_convert(), src2) {
                (true, None) => format!("{mn} {dst}, {src1}"),
                (true, Some(_)) => return Err(fail(idx, format!("{mn} with a src2"))),
                (false, Some(s2)) => format!("{mn} {dst}, {src1}, {s2}"),
                (false, None) => return Err(fail(idx, format!("{mn} without src2"))),
            }
        }
        Instr::Simd {
            op,
            ty,
            dst,
            src1,
            src2,
            imm,
        } => {
            let mn = op.mnemonic();
            match op {
                SimdOp::Vdup => {
                    if src1.is_some() || src2.is_some() {
                        return Err(fail(idx, "vdup with register sources"));
                    }
                    format!("{mn}.{ty} {dst}, #{imm}")
                }
                SimdOp::Vshl | SimdOp::Vshr => {
                    let s1 = src1.ok_or_else(|| fail(idx, format!("{mn} without src1")))?;
                    if src2.is_some() {
                        return Err(fail(idx, format!("{mn} with a src2")));
                    }
                    format!("{mn}.{ty} {dst}, {s1}, #{imm}")
                }
                _ => {
                    let s1 = src1.ok_or_else(|| fail(idx, format!("{mn} without src1")))?;
                    let s2 = src2.ok_or_else(|| fail(idx, format!("{mn} without src2")))?;
                    if imm != 0 {
                        return Err(fail(idx, format!("{mn} with a stray immediate")));
                    }
                    format!("{mn}.{ty} {dst}, {s1}, {s2}")
                }
            }
        }
        Instr::Load {
            dst,
            base,
            offset,
            width,
        } => format!("{} {dst}, {}", width.mnemonics().0, mem_str(base, offset)),
        Instr::Store {
            src,
            base,
            offset,
            width,
        } => format!("{} {src}, {}", width.mnemonics().1, mem_str(base, offset)),
        Instr::Branch { cond, target } => {
            format!("{} {}", cond.mnemonic(), label_name(target.index() as u32))
        }
        Instr::Halt => "halt".to_string(),
    };
    Ok(line)
}

/// Render `p` as canonical assembler dialect text.
///
/// # Errors
///
/// Returns [`DisasmError`] when the program contains a shape the dialect
/// cannot spell: non-canonical instruction encodings (see module docs) or
/// a data block that is neither all-zero nor word-aligned.
pub fn disassemble(p: &Program) -> Result<String, DisasmError> {
    let mut out = String::new();
    if p.mem_size() != DEFAULT_MEM_SIZE {
        let _ = writeln!(out, ".mem {}", p.mem_size());
    }
    for (i, (_, bytes)) in p.data().iter().enumerate() {
        if bytes.iter().all(|&b| b == 0) {
            let _ = writeln!(out, ".zero d{i} {}", bytes.len());
        } else if bytes.len() % 4 == 0 {
            let _ = write!(out, ".words d{i}");
            for w in bytes.chunks_exact(4) {
                let _ = write!(out, " {}", u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
            }
            let _ = writeln!(out);
        } else {
            return Err(fail(
                i,
                format!("data block of {} non-zero unaligned bytes", bytes.len()),
            ));
        }
    }

    let renames = canonical_labels(p);
    let label_name = |raw: u32| -> String {
        let canon = renames
            .iter()
            .find(|&&(r, _)| r == raw)
            .map_or(raw as usize, |&(_, c)| c);
        format!("L{canon}")
    };
    // Binding lines, keyed by the instruction index they precede. Only
    // referenced labels are emitted: unreferenced ones are semantically
    // inert and would break the fixed point.
    let mut binds: Vec<(usize, usize, u32)> = renames
        .iter()
        .map(|&(raw, canon)| {
            let id = crate::instruction::LabelId::new(raw);
            (p.resolve(id), canon, raw)
        })
        .collect();
    binds.sort_unstable();

    for (idx, instr) in p.instrs().iter().enumerate() {
        for &(pos, _, raw) in &binds {
            if pos == idx {
                let _ = writeln!(out, "{}:", label_name(raw));
            }
        }
        let _ = writeln!(out, "        {}", instr_line(instr, idx, &label_name)?);
    }
    // Labels bound past the last instruction (branch-to-end).
    for &(pos, _, raw) in &binds {
        if pos >= p.instrs().len() {
            let _ = writeln!(out, "{}:", label_name(raw));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::interp::Interpreter;
    use crate::opcode::FpOp;
    use crate::program::{f, op_imm, op_reg, r, v, ProgramBuilder};

    fn roundtrip(src: &str) -> (Program, String) {
        let p1 = assemble(src).expect("source assembles");
        let text = disassemble(&p1).expect("program disassembles");
        let p2 = assemble(&text).unwrap_or_else(|e| panic!("disasm re-assembles: {e}\n{text}"));
        let text2 = disassemble(&p2).expect("round-tripped program disassembles");
        assert_eq!(text, text2, "disassembly must be a fixed point");
        (p2, text)
    }

    #[test]
    fn fixed_point_over_a_mixed_program() {
        let src = "
            .mem 65536
            .words tbl 7 8 9 10
            .zero  buf 32
                    mov r0, #4096
                    mov r1, #10
            loop:   ldr r2, [r0, #4]
                    adds r2, r2, r3, lsr #3
                    rrx  r2, r2
                    vdup.i16 v0, #3
                    vmla.i16 v1, v0, v0
                    vshl.i32 v2, v1, #2
                    mla r4, r2, r1, r2
                    fcvt f0, r4
                    fadd f1, f0, f0
                    ftoi r5, f1
                    strh r5, [r0]
                    subs r1, r1, #1
                    bne loop
                    beq done
                    cmp r1, #0
            done:   halt
        ";
        let (p2, text) = roundtrip(src);
        // Semantics survive: original and round-tripped programs agree.
        let p1 = assemble(src).unwrap();
        let mut a = Interpreter::new(&p1);
        let mut b = Interpreter::new(&p2);
        let ta = a.run(100_000).expect("original runs");
        let tb = b.run(100_000).expect("round-trip runs");
        assert_eq!(ta.len(), tb.len());
        assert_eq!(a.reg(r(5)), b.reg(r(5)));
        assert!(text.contains(".mem 65536"));
        assert!(text.contains(".words d0 7 8 9 10"));
        assert!(text.contains(".zero d1 32"));
    }

    #[test]
    fn forward_reference_numbering_is_stable() {
        // L-numbering must follow first *textual* appearance: the forward
        // branch's target is seen inside the branch before its binding.
        let src = "
                    b end
            top:    mov r0, #1
                    b top
            end:    halt
        ";
        let (_, text) = roundtrip(src);
        let first_l0 = text.find("L0").expect("L0 appears");
        let first_l1 = text.find("L1").expect("L1 appears");
        assert!(first_l0 < first_l1, "{text}");
    }

    #[test]
    fn builder_canonical_forms_are_representable() {
        let mut b = ProgramBuilder::new();
        let scratch = b.alloc_zeroed(64);
        b.mov_imm(r(30), scratch);
        b.adds(r(0), r(1), op_imm(5));
        b.rrx(r(2), r(0));
        b.mvn(r(3), op_reg(r(2)));
        b.cmp(r(3), op_imm(7));
        b.teq(r(3), op_reg(r(0)));
        b.udiv(r(4), r(3), r(0));
        b.vldr(v(1), r(30), 8);
        b.vstr(v(1), r(30), 16);
        b.fp(FpOp::Fcmp, f(0), f(1), f(2));
        b.halt();
        let p = b.build().unwrap();
        let text = disassemble(&p).expect("canonical builder output disassembles");
        let p2 = assemble(&text).expect("re-assembles");
        assert_eq!(p.instrs(), p2.instrs());
        assert_eq!(p.data(), p2.data());
    }

    #[test]
    fn non_canonical_shapes_are_rejected() {
        let mut b = ProgramBuilder::new();
        // A MOV carrying a phantom src1 dependency is unspellable.
        b.push(Instr::Alu {
            op: AluOp::Mov,
            dst: Some(r(0)),
            src1: Some(r(1)),
            op2: Operand2::Imm(3),
            set_flags: false,
        });
        b.halt();
        let p = b.build().unwrap();
        let e = disassemble(&p).expect_err("phantom src1 must be rejected");
        assert_eq!(e.index, 0);
        assert!(e.message.contains("src1"), "{e}");
    }
}
