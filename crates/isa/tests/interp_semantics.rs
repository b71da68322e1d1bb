//! The interpreter's memory and SIMD semantics, pinned through the
//! public API.
//!
//! Memory reads as zero wherever nothing has been written, up to the
//! program's memory size and no further: an access that ends past it
//! faults with its address, width and PC. Every SIMD operation at every
//! lane type computes a fixed result on fixed lane values.

use redsoc_isa::interp::ExecError;
use redsoc_isa::prelude::*;

/// The memory size of every program here (64 KiB).
const MEM: u32 = 1 << 16;

/// Build a program with a `MEM`-byte memory and one data word,
/// `0xDDCC_BBAA`, at the address `body` receives.
fn program(body: impl FnOnce(&mut ProgramBuilder, u32)) -> Program {
    let mut b = ProgramBuilder::new();
    b.mem_size(MEM);
    let word = b.alloc_words(&[0xDDCC_BBAA]);
    body(&mut b, word);
    b.halt();
    b.build().expect("test programs are well-formed")
}

#[test]
fn memory_past_the_data_images_reads_as_zero() {
    let p = program(|b, word| {
        b.mov_imm(r(0), word);
        b.ldr(r(1), r(0), 2); // two image bytes, then two never written
        b.ldrb(r(2), r(0), 100);
        b.mov_imm(r(3), MEM - 8);
        b.vldr(v(0), r(3), 0);
    });
    let mut i = Interpreter::new(&p);
    i.run(100).expect("every access is in bounds");
    assert_eq!(i.reg(r(1)), 0x0000_DDCC);
    assert_eq!(i.reg(r(2)), 0);
    assert_eq!(i.reg(v(0)), 0);
    assert_eq!(i.mem(0x1000, 8), [0xAA, 0xBB, 0xCC, 0xDD, 0, 0, 0, 0]);
    assert_eq!(i.mem(MEM - 64, 64), [0; 64]);
}

#[test]
fn a_store_at_the_top_of_memory_reads_back() {
    let p = program(|b, _| {
        b.mov_imm(r(0), MEM - 4);
        b.mov_imm(r(1), 0x1234_5678);
        b.str_(r(1), r(0), 0);
        b.ldr(r(2), r(0), 0);
        b.ldr(r(3), r(0), -4); // below the store: never written
    });
    let mut i = Interpreter::new(&p);
    i.run(100).expect("every access is in bounds");
    assert_eq!(i.reg(r(2)), 0x1234_5678);
    assert_eq!(i.reg(r(3)), 0);
    assert_eq!(i.mem_u32(MEM - 4), 0x1234_5678);
    assert_eq!(i.mem(MEM - 12, 8), [0; 8]);
}

#[test]
fn an_access_that_ends_past_memory_faults_with_its_address_width_and_pc() {
    type Access = fn(&mut ProgramBuilder);
    let cases: [(Access, u32, u32); 5] = [
        (|b| _ = b.ldr(r(1), r(0), 2), MEM - 2, 4),
        (|b| _ = b.ldrh(r(1), r(0), 3), MEM - 1, 2),
        (|b| _ = b.ldrb(r(1), r(0), 4), MEM, 1),
        (|b| _ = b.str_(r(0), r(0), 1), MEM - 3, 4),
        (|b| _ = b.vstr(v(0), r(0), -2), MEM - 6, 8),
    ];
    for (access, addr, width) in cases {
        let p = program(|b, _| {
            b.mov_imm(r(0), MEM - 4);
            access(b);
        });
        let mut i = Interpreter::new(&p);
        let err = i.run(100).expect_err("the access ends past memory");
        assert_eq!(err, ExecError::MemOutOfBounds { addr, width, pc: 1 });
        assert_eq!(i.error(), Some(&err));
    }
}

/// Every SIMD operation under each of `SimdType::ALL` (`i8` to `i64`),
/// with `v2` as the accumulator and an immediate of 11 (past an `i8`
/// lane's shift range). Each row holds an op's four results, in hex.
#[test]
fn every_simd_operation_and_lane_type_computes_its_pinned_result() {
    use SimdOp::*;
    const A: u64 = 0xF0E1_D2C3_B4A5_9687;
    const B: u64 = 0x0123_4567_89AB_CDEF;
    const ACC: u64 = 0x7F80_01FF_8000_FFFE;
    const OPS: [SimdOp; 12] = [
        Vadd, Vsub, Vand, Vorr, Veor, Vmax, Vmin, Vshr, Vshl, Vmul, Vmla, Vdup,
    ];
    const PINNED: [&str; 12] = [
        "Vadd F104172A3D506376 F204182A3E506476 F205182A3E516476 F205182B3E516476",
        "Vsub EFBE8D5C2BFAC998 EFBE8D5C2AFAC898 EFBE8D5C2AF9C898 EFBE8D5C2AF9C898",
        "Vand 0021404380A18487 0021404380A18487 0021404380A18487 0021404380A18487",
        "Vorr F1E3D7E7BDAFDFEF F1E3D7E7BDAFDFEF F1E3D7E7BDAFDFEF F1E3D7E7BDAFDFEF",
        "Veor F1C297A43D0E5B68 F1C297A43D0E5B68 F1C297A43D0E5B68 F1C297A43D0E5B68",
        "Vmax 01234567B4ABCDEF 01234567B4A5CDEF 01234567B4A59687 0123456789ABCDEF",
        "Vmin F0E1D2C389A59687 F0E1D2C389AB9687 F0E1D2C389ABCDEF F0E1D2C3B4A59687",
        "Vshr 0101010101010101 001E001A00160012 001E1C3A001694B2 001E1C3A587694B2",
        "Vshl 0080008000800080 0800180028003800 0E9618002CB43800 0E961DA52CB43800",
        "Vmul F0C39A7554371E09 CFC35B75F737A309 5C535B750B4EA309 A8A7B7D90B4EA309",
        "Vmla 6F439B74D4371D07 4F435D747737A307 DBD35D748B4FA307 2827B9D88B4FA307",
        "Vdup 0B0B0B0B0B0B0B0B 000B000B000B000B 0000000B0000000B 000000000000000B",
    ];
    let result = |op, ty| {
        let mut b = ProgramBuilder::new();
        let data = b.alloc_data(&[A, B, ACC].map(u64::to_le_bytes).concat());
        b.mov_imm(r(0), data);
        for (k, offset) in [0, 8, 16].into_iter().enumerate() {
            b.vldr(v(k as u8), r(0), offset);
        }
        b.push(Instr::Simd {
            op,
            ty,
            dst: v(2),
            src1: Some(v(0)),
            src2: Some(v(1)),
            imm: 11,
        });
        b.halt();
        let p = b.build().expect("test programs are well-formed");
        let mut i = Interpreter::new(&p);
        i.run(100).expect("no faults");
        format!("{:016X}", i.reg(v(2)))
    };
    let computed = OPS.map(|op| {
        let lanes = SimdType::ALL.map(|ty| result(op, ty));
        format!("{op:?} {}", lanes.join(" "))
    });
    assert_eq!(computed, PINNED, "left: computed, right: pinned");
}
