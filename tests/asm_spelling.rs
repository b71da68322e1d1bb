//! The `.asm` text format is pinned: what the disassembler prints is
//! exactly what the assembler reads, spelling by spelling.
//!
//! - Every committed fuzzer repro prints back, from its assembled
//!   program, to its own body byte for byte.
//! - Every spelling the printer can emit — each operation and its
//!   flag-setting `s` form, lane type, load/store width, branch
//!   condition and shift kind — is listed here literally, and parses
//!   back to the same instruction in lower and in upper case.
//! - Near misses (`cmps`, `movss`, `bal`, a SIMD op without a lane, an
//!   unknown lane or width) are rejected with their line and message.

use std::fs;
use std::path::Path;

use redsoc::isa::asm::assemble;
use redsoc::isa::disasm::disassemble;
use redsoc::prelude::*;

#[test]
fn committed_repros_print_back_to_their_own_bodies() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/repros");
    let mut files: Vec<_> = fs::read_dir(&dir)
        .expect("tests/fixtures/repros exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "asm"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no repro files in {}", dir.display());
    for path in files {
        let source = fs::read_to_string(&path).expect("repro is readable");
        let body: String = source
            .split_inclusive('\n')
            .skip_while(|l| l.starts_with(';'))
            .collect();
        let program = assemble(&source).expect("repro assembles");
        let printed = disassemble(&program).expect("repro disassembles");
        assert_eq!(printed, body, "{}", path.display());
    }
}

/// The mnemonic each line of [`every_form`] prints, in program order.
const ALU: &str = "bic bics mvn mvns and ands eor eors tst teq orr orrs mov movs \
                   lsr lsrs asr asrs lsl lsls ror rors rrx rrxs rsb rsbs rsc rscs \
                   sub subs cmp add adds cmn adc adcs sbc sbcs";
const MULDIV_FP: &str = "mul mla sdiv udiv fadd fsub fmul fdiv fcmp fcvt ftoi";
const SIMD: &str = "vadd vsub vand vorr veor vmax vmin vshr vshl vmul vmla vdup";
const LANES: &str = "i8 i16 i32 i64";
const MEMORY: &str = "ldrb strb ldrh strh ldr str vldr vstr";
const BRANCHES: &str = "b beq bne bge blt bgt ble bhs blo halt";
const SHIFTS: [(ShiftKind, &str); 4] = [
    (ShiftKind::Lsl, "lsl"),
    (ShiftKind::Lsr, "lsr"),
    (ShiftKind::Asr, "asr"),
    (ShiftKind::Ror, "ror"),
];

/// One instruction of every printable form, in the order the constants
/// above list their spellings.
fn every_form() -> Program {
    let mut b = ProgramBuilder::new();
    let top = b.here();
    for (i, op) in AluOp::ALL.into_iter().enumerate() {
        let (kind, _) = SHIFTS[i % SHIFTS.len()];
        let op2 = Operand2::shifted(r(4), kind, 3);
        let flag_forms: &[bool] = if op.has_dst() {
            &[false, true]
        } else {
            &[true]
        };
        for &set_flags in flag_forms {
            let (dst, src1, op2) = match op {
                AluOp::Mov | AluOp::Mvn => (Some(r(1)), None, op2),
                AluOp::Rrx => (Some(r(1)), Some(r(2)), Operand2::Imm(1)),
                _ if !op.has_dst() => (None, Some(r(2)), op2),
                _ => (Some(r(1)), Some(r(2)), op2),
            };
            b.push(Instr::Alu {
                op,
                dst,
                src1,
                op2,
                set_flags,
            });
        }
    }
    for op in [MulOp::Mul, MulOp::Mla, MulOp::Sdiv, MulOp::Udiv] {
        let acc = (op == MulOp::Mla).then_some(r(8));
        b.push(Instr::MulDiv {
            op,
            dst: r(5),
            src1: r(6),
            src2: r(7),
            acc,
        });
    }
    for op in [FpOp::Fadd, FpOp::Fsub, FpOp::Fmul, FpOp::Fdiv, FpOp::Fcmp] {
        b.fp(op, f(0), f(1), f(2));
    }
    b.fp1(FpOp::Fcvt, f(0), r(5));
    b.fp1(FpOp::Ftoi, r(5), f(0));
    let simd_ops = [
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
    for ty in SimdType::ALL {
        for op in simd_ops {
            let (src1, src2, imm) = match op {
                SimdOp::Vdup => (None, None, 9),
                SimdOp::Vshl | SimdOp::Vshr => (Some(v(0)), None, 3),
                _ => (Some(v(0)), Some(v(1)), 0),
            };
            b.push(Instr::Simd {
                op,
                ty,
                dst: v(2),
                src1,
                src2,
                imm,
            });
        }
    }
    for width in [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8] {
        let data = if width == MemWidth::B8 { v(3) } else { r(3) };
        b.push(Instr::Load {
            dst: data,
            base: r(9),
            offset: 8,
            width,
        });
        b.push(Instr::Store {
            src: data,
            base: r(9),
            offset: 0,
            width,
        });
    }
    for cond in [
        Cond::Al,
        Cond::Eq,
        Cond::Ne,
        Cond::Ge,
        Cond::Lt,
        Cond::Gt,
        Cond::Le,
        Cond::Hs,
        Cond::Lo,
    ] {
        b.push(Instr::Branch { cond, target: top });
    }
    b.halt();
    b.build().expect("every form builds")
}

#[test]
fn every_printed_spelling_parses_back_in_either_case() {
    let program = every_form();
    let text = disassemble(&program).expect("every form disassembles");

    let lanes: Vec<&str> = LANES.split(' ').collect();
    let simd = lanes
        .iter()
        .flat_map(|lane| SIMD.split(' ').map(move |op| format!("{op}.{lane}")));
    let expected: Vec<String> = ALU
        .split_whitespace()
        .chain(MULDIV_FP.split(' '))
        .map(String::from)
        .chain(simd)
        .chain(
            MEMORY
                .split(' ')
                .chain(BRANCHES.split(' '))
                .map(String::from),
        )
        .collect();
    let printed: Vec<&str> = text
        .lines()
        .filter(|l| !l.ends_with(':'))
        .map(|l| l.split_whitespace().next().expect("a mnemonic"))
        .collect();
    assert_eq!(printed, expected, "{text}");
    for (_, kind) in SHIFTS {
        assert!(text.contains(&format!("r4, {kind} #3")), "{kind}:\n{text}");
    }
    assert!(text.contains("ldrb r3, [r9, #8]") && text.contains("strb r3, [r9]"));

    for source in [text.clone(), text.to_uppercase()] {
        let back = assemble(&source).unwrap_or_else(|e| panic!("{e}\n{source}"));
        assert_eq!(back.instrs(), program.instrs(), "{source}");
    }
}

#[test]
fn near_miss_spellings_keep_their_line_and_message() {
    for (line, message) in [
        ("cmps r0, #1", r#"unknown mnemonic "cmps""#),
        ("tsts r0, #1", r#"unknown mnemonic "tsts""#),
        ("movss r0, #1", r#"unknown mnemonic "movss""#),
        ("muls r0, r1, r2", r#"unknown mnemonic "muls""#),
        ("bal top", r#"unknown mnemonic "bal""#),
        ("vadd v0, v1, v2", r#"unknown mnemonic "vadd""#),
        ("vadd.i128 v0, v1, v2", r#"unknown lane type "i128""#),
        ("add.i8 v0, v1, v2", r#"unknown SIMD mnemonic "add""#),
        ("ldrw r0, [r1]", r#"unknown mnemonic "ldrw""#),
        ("add r0, r1, r2, lsx #3", r#"unknown shift "lsx""#),
        ("adds r0, r1", "adds needs dst, src1, op2"),
        ("rrxs r0", "rrxs needs dst, src1"),
        ("mvns r0", "mvns needs dst, op2"),
        ("teq r0", "teq needs src1, op2"),
        ("sdiv r0, r1", "sdiv needs dst, src1, src2"),
        ("mla r0, r1, r2", "mla needs dst, src1, src2, acc"),
        ("fcmp f0, f1", "fcmp needs dst, src1, src2"),
        ("ftoi r0", "ftoi needs dst, src"),
        ("vldr v0", "vldr needs dst, [base(, #off)]"),
        ("strh r0", "strh needs src, [base(, #off)]"),
        ("bhs", "bhs needs a label"),
        ("vdup.i8 v0", "vdup needs dst, #imm"),
        ("vshr.i16 v0, v1", "SIMD shift needs dst, src, #imm"),
        ("vmla.i32 v0, v1", "SIMD op needs dst, src1, src2"),
    ] {
        for line in [line.to_string(), line.to_uppercase()] {
            let source = format!("top:    mov r0, #1\n        {line}\n        halt\n");
            let e = assemble(&source).expect_err(&line);
            assert_eq!(e.to_string(), format!("line 2: {message}"), "{line}");
        }
    }
    // Register numbers are canonical decimal, as `disasm` prints them: no
    // sign and no leading zero. The message quotes the token as written.
    for (line, tok) in [
        ("mov r+1, #1", "r+1"),
        ("mov r01, #1", "r01"),
        ("vdup.i8 v007, #1", "v007"),
    ] {
        for upper in [false, true] {
            let case = |s: &str| {
                if upper {
                    s.to_uppercase()
                } else {
                    s.to_string()
                }
            };
            let (line, tok) = (case(line), case(tok));
            let source = format!("top:    mov r0, #1\n        {line}\n        halt\n");
            let e = assemble(&source).expect_err(&line);
            assert_eq!(
                e.to_string(),
                format!("line 2: bad register {tok:?}"),
                "{line}"
            );
        }
    }
}
