//! Functional interpreter.
//!
//! Executes a [`Program`] architecturally (registers, flags, byte-addressable
//! little-endian memory) and yields the committed dynamic path as a stream of
//! [`DynOp`]s. The interpreter is the "functional front end" of the
//! trace-driven methodology: it decides *what* executes; the out-of-order
//! core model decides *when*.
//!
//! Floating-point registers hold `f32` values bit-cast into the 64-bit
//! register file. SIMD registers are 64-bit with lane-wise semantics chosen
//! by each instruction's [`SimdType`].

use core::fmt;

use crate::instruction::Instr;
use crate::opcode::{AluOp, Cond, FpOp, MemWidth, MulOp, SimdOp, SimdType};
use crate::operand::Operand2;
use crate::program::Program;
use crate::reg::{ArchReg, NUM_ARCH_REGS};
use crate::trace::{significant_bits_max, DynOp};

/// NZCV flag bit positions inside the flags pseudo-register.
mod flag {
    pub const N: u64 = 0b1000;
    pub const Z: u64 = 0b0100;
    pub const C: u64 = 0b0010;
    pub const V: u64 = 0b0001;
}

/// Errors raised during functional execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A memory access fell outside the configured memory size.
    MemOutOfBounds {
        /// Faulting byte address.
        addr: u32,
        /// Access width in bytes.
        width: u32,
        /// PC (instruction index) of the faulting access.
        pc: u32,
    },
    /// Execution ran past the last instruction without reaching `HALT`.
    RanOffEnd {
        /// The out-of-range instruction index.
        pc: u32,
    },
    /// Integer division by zero.
    DivByZero {
        /// PC of the faulting divide.
        pc: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MemOutOfBounds { addr, width, pc } => {
                write!(
                    f,
                    "out-of-bounds {width}-byte access at {addr:#x} (pc {pc})"
                )
            }
            ExecError::RanOffEnd { pc } => write!(f, "execution ran off the end at pc {pc}"),
            ExecError::DivByZero { pc } => write!(f, "division by zero at pc {pc}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Architectural state plus an execution cursor over a [`Program`].
///
/// Use as an iterator to stream [`DynOp`]s, or call [`Interpreter::run`] to
/// collect a bounded `Vec` of them.
///
/// Memory spans [`Program::mem_size`] bytes, but the interpreter holds
/// only the data images at first, and materialises more on the first
/// store past their end. Every byte beyond reads as zero, so a program
/// pays for the memory it touches, not for all (by default 16 MiB) of it.
///
/// ```
/// use redsoc_isa::prelude::*;
///
/// let mut b = ProgramBuilder::new();
/// b.mov_imm(r(0), 21);
/// b.add(r(1), r(0), op_reg(r(0)));
/// b.halt();
/// let program = b.build()?;
///
/// let mut interp = Interpreter::new(&program);
/// let trace = interp.run(1000)?;
/// assert_eq!(trace.len(), 3); // includes HALT
/// assert_eq!(interp.reg(r(1)), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter<'p> {
    program: &'p Program,
    regs: [u64; NUM_ARCH_REGS],
    /// Memory from address 0 to the highest byte held; the rest is zero.
    mem: Vec<u8>,
    pc: u32,
    seq: u64,
    halted: bool,
    error: Option<ExecError>,
}

impl<'p> Interpreter<'p> {
    /// Create an interpreter with memory initialised from the program's
    /// data images.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        let images_end = program
            .data()
            .iter()
            .map(|(base, bytes)| *base as usize + bytes.len())
            .max()
            .unwrap_or(0);
        let mut mem = vec![0u8; images_end];
        for (base, bytes) in program.data() {
            let b = *base as usize;
            mem[b..b + bytes.len()].copy_from_slice(bytes);
        }
        Interpreter {
            program,
            regs: [0; NUM_ARCH_REGS],
            mem,
            pc: 0,
            seq: 0,
            halted: false,
            error: None,
        }
    }

    /// Read an architectural register (scalar values live in the low 32
    /// bits; SIMD values use all 64).
    #[must_use]
    pub fn reg(&self, r: ArchReg) -> u64 {
        self.regs[r.index()]
    }

    /// Read bytes from simulated memory (for checking kernel outputs).
    ///
    /// # Panics
    ///
    /// Panics if the range ends past the program's memory size.
    #[must_use]
    pub fn mem(&self, addr: u32, len: u32) -> Vec<u8> {
        let end = u64::from(addr) + u64::from(len);
        assert!(
            end <= u64::from(self.program.mem_size()),
            "{len}-byte read at {addr:#x} ends past memory"
        );
        let mut out = vec![0; len as usize];
        self.copy_out(addr, &mut out);
        out
    }

    /// Copy the bytes held from `addr` on into `out`, which starts zeroed
    /// (memory past the held part is zero).
    fn copy_out(&self, addr: u32, out: &mut [u8]) {
        let held = self.mem.get(addr as usize..).unwrap_or(&[]);
        let n = held.len().min(out.len());
        out[..n].copy_from_slice(&held[..n]);
    }

    /// Read a little-endian 32-bit word from memory.
    #[must_use]
    pub fn mem_u32(&self, addr: u32) -> u32 {
        let b = self.mem(addr, 4);
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Whether execution reached `HALT`.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The error that stopped execution, if any.
    #[must_use]
    pub fn error(&self) -> Option<&ExecError> {
        self.error.as_ref()
    }

    /// Execute up to `max_instrs` instructions, collecting the trace.
    ///
    /// Stops early at `HALT`.
    ///
    /// # Errors
    ///
    /// Returns the [`ExecError`] if execution faults before halting or
    /// exhausting the budget.
    pub fn run(&mut self, max_instrs: u64) -> Result<Vec<DynOp>, ExecError> {
        let mut trace = Vec::new();
        for _ in 0..max_instrs {
            match self.step() {
                Some(op) => trace.push(op),
                None => break,
            }
        }
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(trace),
        }
    }

    fn flags(&self) -> u64 {
        self.regs[ArchReg::flags().index()]
    }

    fn carry(&self) -> bool {
        self.flags() & flag::C != 0
    }

    fn set_nz(&mut self, result: u32, mut fl: u64) -> u64 {
        fl &= !(flag::N | flag::Z);
        if result & 0x8000_0000 != 0 {
            fl |= flag::N;
        }
        if result == 0 {
            fl |= flag::Z;
        }
        fl
    }

    fn cond_holds(&self, cond: Cond) -> bool {
        let fl = self.flags();
        let n = fl & flag::N != 0;
        let z = fl & flag::Z != 0;
        let c = fl & flag::C != 0;
        let v = fl & flag::V != 0;
        match cond {
            Cond::Al => true,
            Cond::Eq => z,
            Cond::Ne => !z,
            Cond::Ge => n == v,
            Cond::Lt => n != v,
            Cond::Gt => !z && n == v,
            Cond::Le => z || n != v,
            Cond::Hs => c,
            Cond::Lo => !c,
        }
    }

    fn op2_value(&self, op2: Operand2) -> u32 {
        match op2 {
            Operand2::Imm(v) => v,
            Operand2::Reg(r) => self.regs[r.index()] as u32,
            Operand2::ShiftedReg { reg, .. } => op2.apply_shift(self.regs[reg.index()] as u32),
        }
    }

    /// Add with carry-in, returning (result, carry-out, overflow).
    fn adc32(a: u32, b: u32, cin: bool) -> (u32, bool, bool) {
        let wide = u64::from(a) + u64::from(b) + u64::from(cin);
        let r = wide as u32;
        let c = wide > u64::from(u32::MAX);
        let v = ((a ^ r) & (b ^ r)) & 0x8000_0000 != 0;
        (r, c, v)
    }

    /// Subtract with ARM borrow semantics: `a - b - !cin`.
    fn sbc32(a: u32, b: u32, cin: bool) -> (u32, bool, bool) {
        Self::adc32(a, !b, cin)
    }

    fn exec_alu(
        &mut self,
        op: AluOp,
        src1: Option<ArchReg>,
        op2: Operand2,
        set_flags: bool,
    ) -> (Option<u32>, u8) {
        let a = src1.map_or(0, |r| self.regs[r.index()] as u32);
        let b = self.op2_value(op2);
        let cin = self.carry();
        let mut fl = self.flags();
        let mut carry_defined = false;
        let (mut c, mut v) = (false, false);
        let result: Option<u32> = match op {
            AluOp::And | AluOp::Tst => Some(a & b),
            AluOp::Eor | AluOp::Teq => Some(a ^ b),
            AluOp::Orr => Some(a | b),
            AluOp::Bic => Some(a & !b),
            AluOp::Mov => Some(b),
            AluOp::Mvn => Some(!b),
            AluOp::Lsl => Some(a.checked_shl(b & 63).unwrap_or(0)),
            AluOp::Lsr => Some(a.checked_shr(b & 63).unwrap_or(0)),
            AluOp::Asr => {
                let sh = (b & 63).min(31);
                Some(((a as i32) >> sh) as u32)
            }
            AluOp::Ror => Some(a.rotate_right(b & 31)),
            AluOp::Rrx => {
                let r = (u32::from(cin) << 31) | (a >> 1);
                c = a & 1 != 0;
                carry_defined = true;
                Some(r)
            }
            AluOp::Add | AluOp::Cmn => {
                let (r, co, vo) = Self::adc32(a, b, false);
                c = co;
                v = vo;
                carry_defined = true;
                Some(r)
            }
            AluOp::Adc => {
                let (r, co, vo) = Self::adc32(a, b, cin);
                c = co;
                v = vo;
                carry_defined = true;
                Some(r)
            }
            AluOp::Sub | AluOp::Cmp => {
                let (r, co, vo) = Self::sbc32(a, b, true);
                c = co;
                v = vo;
                carry_defined = true;
                Some(r)
            }
            AluOp::Sbc => {
                let (r, co, vo) = Self::sbc32(a, b, cin);
                c = co;
                v = vo;
                carry_defined = true;
                Some(r)
            }
            AluOp::Rsb => {
                let (r, co, vo) = Self::sbc32(b, a, true);
                c = co;
                v = vo;
                carry_defined = true;
                Some(r)
            }
            AluOp::Rsc => {
                let (r, co, vo) = Self::sbc32(b, a, cin);
                c = co;
                v = vo;
                carry_defined = true;
                Some(r)
            }
        };
        let r = result.expect("every ALU op computes a value");
        let writes_flags = set_flags || !op.has_dst();
        if writes_flags {
            fl = self.set_nz(r, fl);
            if carry_defined {
                fl &= !(flag::C | flag::V);
                if c {
                    fl |= flag::C;
                }
                if v {
                    fl |= flag::V;
                }
            }
            self.regs[ArchReg::flags().index()] = fl;
        }
        // Effective width: widest of the ALU's two inputs and its result —
        // the length of carry/propagate chain actually exercised (§II-A).
        let eff = significant_bits_max(&[a, b, r]);
        (op.has_dst().then_some(r), eff)
    }

    fn exec_simd(
        &mut self,
        op: SimdOp,
        ty: SimdType,
        src1: Option<ArchReg>,
        src2: Option<ArchReg>,
        imm: u8,
        dst: ArchReg,
    ) {
        let bits = ty.lane_bits();
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let sign = 1u64 << (bits - 1);
        let sext = |l: u64| -> i64 {
            if l & sign != 0 {
                (l | !mask) as i64
            } else {
                l as i64
            }
        };
        let a = src1.map_or(0, |r| self.regs[r.index()]);
        let b = src2.map_or(0, |r| self.regs[r.index()]);
        let acc = self.regs[dst.index()];
        let mut out = 0u64;
        for shift in (0..64u32).step_by(bits as usize) {
            let (la, lb) = ((a >> shift) & mask, (b >> shift) & mask);
            let lane = match op {
                SimdOp::Vadd => la.wrapping_add(lb),
                SimdOp::Vsub => la.wrapping_sub(lb),
                SimdOp::Vand => la & lb,
                SimdOp::Vorr => la | lb,
                SimdOp::Veor => la ^ lb,
                SimdOp::Vmax => {
                    if sext(la) >= sext(lb) {
                        la
                    } else {
                        lb
                    }
                }
                SimdOp::Vmin => {
                    if sext(la) <= sext(lb) {
                        la
                    } else {
                        lb
                    }
                }
                SimdOp::Vshr => la >> u32::from(imm).min(bits - 1),
                SimdOp::Vshl => la << u32::from(imm).min(bits - 1),
                SimdOp::Vmul => la.wrapping_mul(lb),
                SimdOp::Vmla => ((acc >> shift) & mask).wrapping_add(la.wrapping_mul(lb)),
                SimdOp::Vdup => u64::from(imm),
            };
            out |= (lane & mask) << shift;
        }
        self.regs[dst.index()] = out;
    }

    fn exec_fp(&mut self, op: FpOp, src1: ArchReg, src2: Option<ArchReg>, dst: ArchReg) {
        let bits_to_f = |b: u64| f32::from_bits(b as u32);
        let a = bits_to_f(self.regs[src1.index()]);
        let b = src2.map_or(0.0, |r| bits_to_f(self.regs[r.index()]));
        match op {
            FpOp::Fadd => self.regs[dst.index()] = u64::from((a + b).to_bits()),
            FpOp::Fsub => self.regs[dst.index()] = u64::from((a - b).to_bits()),
            FpOp::Fmul => self.regs[dst.index()] = u64::from((a * b).to_bits()),
            FpOp::Fdiv => self.regs[dst.index()] = u64::from((a / b).to_bits()),
            FpOp::Fcmp => {
                let mut fl = self.flags() & !(flag::N | flag::Z | flag::C | flag::V);
                if a == b {
                    fl |= flag::Z | flag::C;
                } else if a < b {
                    fl |= flag::N;
                } else if a > b {
                    fl |= flag::C;
                } else {
                    fl |= flag::V; // unordered
                }
                self.regs[ArchReg::flags().index()] = fl;
            }
            FpOp::Fcvt => {
                // Int → FP: source is an integer register value.
                let iv = self.regs[src1.index()] as u32 as i32;
                self.regs[dst.index()] = u64::from((iv as f32).to_bits());
            }
            FpOp::Ftoi => {
                let f = bits_to_f(self.regs[src1.index()]);
                self.regs[dst.index()] = u64::from(f as i32 as u32);
            }
        }
    }

    /// The end of a `width` access at `addr`, or its fault if that lies
    /// past the program's memory.
    fn access_end(&self, addr: u32, width: MemWidth, pc: u32) -> Result<usize, ExecError> {
        let w = width.bytes();
        let end = u64::from(addr) + u64::from(w);
        if end > u64::from(self.program.mem_size()) {
            return Err(ExecError::MemOutOfBounds { addr, width: w, pc });
        }
        Ok(end as usize)
    }

    fn mem_read(&self, addr: u32, width: MemWidth, pc: u32) -> Result<u64, ExecError> {
        let end = self.access_end(addr, width, pc)?;
        let mut buf = [0u8; 8];
        self.copy_out(addr, &mut buf[..end - addr as usize]);
        Ok(u64::from_le_bytes(buf))
    }

    fn mem_write(
        &mut self,
        addr: u32,
        width: MemWidth,
        value: u64,
        pc: u32,
    ) -> Result<(), ExecError> {
        let end = self.access_end(addr, width, pc)?;
        if end > self.mem.len() {
            self.mem.resize(end, 0);
        }
        let start = addr as usize;
        self.mem[start..end].copy_from_slice(&value.to_le_bytes()[..end - start]);
        Ok(())
    }

    /// Execute one instruction; returns the emitted [`DynOp`], or `None` if
    /// halted or faulted (check [`Interpreter::error`]).
    #[allow(clippy::too_many_lines)]
    pub fn step(&mut self) -> Option<DynOp> {
        if self.halted || self.error.is_some() {
            return None;
        }
        let idx = self.pc as usize;
        let Some(&instr) = self.program.instrs().get(idx) else {
            self.error = Some(ExecError::RanOffEnd { pc: self.pc });
            return None;
        };
        let pc_bytes = self.pc * 4;
        let mut op = DynOp {
            seq: self.seq,
            pc: pc_bytes,
            instr,
            eff_addr: None,
            taken: false,
            target_pc: 0,
            eff_bits: 32,
        };
        let mut next_pc = self.pc + 1;
        match instr {
            Instr::Alu {
                op: aop,
                dst,
                src1,
                op2,
                set_flags,
            } => {
                let (result, eff) = self.exec_alu(aop, src1, op2, set_flags);
                if let (Some(d), Some(rv)) = (dst, result) {
                    self.regs[d.index()] = u64::from(rv);
                }
                op.eff_bits = eff;
            }
            Instr::MulDiv {
                op: mop,
                dst,
                src1,
                src2,
                acc,
            } => {
                let a = self.regs[src1.index()] as u32;
                let b = self.regs[src2.index()] as u32;
                let r = match mop {
                    MulOp::Mul => a.wrapping_mul(b),
                    MulOp::Mla => {
                        let acc_v = acc.map_or(0, |x| self.regs[x.index()] as u32);
                        a.wrapping_mul(b).wrapping_add(acc_v)
                    }
                    MulOp::Udiv => {
                        if b == 0 {
                            self.error = Some(ExecError::DivByZero { pc: self.pc });
                            return None;
                        }
                        a / b
                    }
                    MulOp::Sdiv => {
                        if b == 0 {
                            self.error = Some(ExecError::DivByZero { pc: self.pc });
                            return None;
                        }
                        ((a as i32).wrapping_div(b as i32)) as u32
                    }
                };
                self.regs[dst.index()] = u64::from(r);
                op.eff_bits = significant_bits_max(&[a, b, r]);
            }
            Instr::Fp {
                op: fop,
                dst,
                src1,
                src2,
            } => {
                self.exec_fp(fop, src1, src2, dst);
            }
            Instr::Simd {
                op: sop,
                ty,
                dst,
                src1,
                src2,
                imm,
            } => {
                self.exec_simd(sop, ty, src1, src2, imm, dst);
                op.eff_bits = ty.lane_bits() as u8;
            }
            Instr::Load {
                dst,
                base,
                offset,
                width,
            } => {
                let addr = (self.regs[base.index()] as u32).wrapping_add_signed(offset);
                match self.mem_read(addr, width, self.pc) {
                    Ok(v) => {
                        self.regs[dst.index()] = v;
                        op.eff_addr = Some(addr);
                    }
                    Err(e) => {
                        self.error = Some(e);
                        return None;
                    }
                }
            }
            Instr::Store {
                src,
                base,
                offset,
                width,
            } => {
                let addr = (self.regs[base.index()] as u32).wrapping_add_signed(offset);
                let v = self.regs[src.index()];
                if let Err(e) = self.mem_write(addr, width, v, self.pc) {
                    self.error = Some(e);
                    return None;
                }
                op.eff_addr = Some(addr);
            }
            Instr::Branch { cond, target } => {
                let t = self.program.resolve(target) as u32;
                if self.cond_holds(cond) {
                    op.taken = true;
                    op.target_pc = t * 4;
                    next_pc = t;
                }
            }
            Instr::Halt => {
                self.halted = true;
            }
        }
        self.pc = next_pc;
        self.seq += 1;
        Some(op)
    }
}

impl Iterator for Interpreter<'_> {
    type Item = DynOp;

    fn next(&mut self) -> Option<DynOp> {
        self.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::ShiftKind;
    use crate::program::{f, op_imm, op_reg, r, v, ProgramBuilder};

    fn run(b: &mut ProgramBuilder) -> (Interpreter<'static>, Vec<DynOp>) {
        let p = Box::leak(Box::new(b.build().unwrap()));
        let mut i = Interpreter::new(p);
        let t = i.run(100_000).unwrap();
        (i, t)
    }

    #[test]
    fn arithmetic_and_flags() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(r(0), 5);
        b.mov_imm(r(1), 7);
        b.adds(r(2), r(0), op_reg(r(1)));
        b.subs(r(3), r(2), op_imm(12));
        b.halt();
        let (i, _) = run(&mut b);
        assert_eq!(i.reg(r(2)), 12);
        assert_eq!(i.reg(r(3)), 0);
        assert!(i.reg(ArchReg::flags()) & flag::Z != 0);
        assert!(i.reg(ArchReg::flags()) & flag::C != 0); // no borrow
    }

    #[test]
    fn carry_chain_adc() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(r(0), u32::MAX);
        b.adds(r(1), r(0), op_imm(1)); // sets carry, result 0
        b.mov_imm(r(2), 10);
        b.adc(r(3), r(2), op_imm(0)); // 10 + 0 + carry = 11
        b.halt();
        let (i, _) = run(&mut b);
        assert_eq!(i.reg(r(1)), 0);
        assert_eq!(i.reg(r(3)), 11);
    }

    #[test]
    fn shifted_operand2() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(r(0), 3);
        b.mov_imm(r(1), 0x10);
        b.push(Instr::Alu {
            op: AluOp::Add,
            dst: Some(r(2)),
            src1: Some(r(0)),
            op2: Operand2::shifted(r(1), ShiftKind::Lsr, 2),
            set_flags: false,
        });
        b.halt();
        let (i, _) = run(&mut b);
        assert_eq!(i.reg(r(2)), 3 + 4);
    }

    #[test]
    fn rrx_rotates_through_carry() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(r(0), u32::MAX);
        b.adds(r(1), r(0), op_imm(1)); // C := 1
        b.mov_imm(r(2), 0b10);
        b.rrx(r(3), r(2));
        b.halt();
        let (i, _) = run(&mut b);
        assert_eq!(i.reg(r(3)), 0x8000_0001);
    }

    #[test]
    fn loop_executes_expected_count() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.mov_imm(r(0), 10);
        b.mov_imm(r(1), 0);
        b.bind(top);
        b.add(r(1), r(1), op_imm(2));
        b.subs(r(0), r(0), op_imm(1));
        b.bne(top);
        b.halt();
        let (i, t) = run(&mut b);
        assert_eq!(i.reg(r(1)), 20);
        // 2 setup + 10×3 loop + halt
        assert_eq!(t.len(), 2 + 30 + 1);
        let taken = t.iter().filter(|o| o.taken).count();
        assert_eq!(taken, 9);
    }

    #[test]
    fn memory_roundtrip_and_widths() {
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_words(&[0xDEAD_BEEF]);
        b.mov_imm(r(0), buf);
        b.ldr(r(1), r(0), 0);
        b.strb(r(1), r(0), 4);
        b.ldrb(r(2), r(0), 4);
        b.ldrh(r(3), r(0), 0);
        b.halt();
        let (i, t) = run(&mut b);
        assert_eq!(i.reg(r(1)), 0xDEAD_BEEF);
        assert_eq!(i.reg(r(2)), 0xEF);
        assert_eq!(i.reg(r(3)), 0xBEEF);
        let with_addr = t.iter().filter(|o| o.eff_addr.is_some()).count();
        assert_eq!(with_addr, 4);
    }

    #[test]
    fn out_of_bounds_access_faults() {
        let mut b = ProgramBuilder::new();
        b.mem_size(4096);
        b.mov_imm(r(0), 1 << 20);
        b.ldr(r(1), r(0), 0);
        b.halt();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p);
        let err = i.run(100).unwrap_err();
        assert!(matches!(err, ExecError::MemOutOfBounds { .. }));
    }

    #[test]
    fn div_by_zero_faults() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(r(0), 1);
        b.mov_imm(r(1), 0);
        b.udiv(r(2), r(0), r(1));
        b.halt();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p);
        assert!(matches!(
            i.run(100).unwrap_err(),
            ExecError::DivByZero { .. }
        ));
    }

    #[test]
    fn simd_lanewise_add_i16() {
        let mut b = ProgramBuilder::new();
        let a = b.alloc_data(&[1, 0, 2, 0, 3, 0, 4, 0]); // i16 lanes 1,2,3,4
        let c = b.alloc_data(&[10, 0, 20, 0, 30, 0, 40, 0]);
        b.mov_imm(r(0), a);
        b.mov_imm(r(1), c);
        b.vldr(v(0), r(0), 0);
        b.vldr(v(1), r(1), 0);
        b.simd(SimdOp::Vadd, SimdType::I16, v(2), v(0), v(1));
        b.halt();
        let (i, t) = run(&mut b);
        let lanes = i.reg(v(2));
        assert_eq!(lanes & 0xFFFF, 11);
        assert_eq!((lanes >> 16) & 0xFFFF, 22);
        assert_eq!((lanes >> 32) & 0xFFFF, 33);
        assert_eq!((lanes >> 48) & 0xFFFF, 44);
        let simd_op = t
            .iter()
            .find(|o| matches!(o.instr, Instr::Simd { .. }))
            .unwrap();
        assert_eq!(simd_op.eff_bits, 16);
    }

    #[test]
    fn simd_vmla_accumulates() {
        let mut b = ProgramBuilder::new();
        b.vdup(SimdType::I8, v(0), 3);
        b.vdup(SimdType::I8, v(1), 5);
        b.vdup(SimdType::I8, v(2), 1);
        b.simd(SimdOp::Vmla, SimdType::I8, v(2), v(0), v(1));
        b.halt();
        let (i, _) = run(&mut b);
        // each 8-bit lane: 1 + 3*5 = 16
        for lane in 0..8 {
            assert_eq!((i.reg(v(2)) >> (lane * 8)) & 0xFF, 16);
        }
    }

    #[test]
    fn simd_max_signed() {
        let mut b = ProgramBuilder::new();
        b.vdup(SimdType::I8, v(0), 0xFF); // -1 in each lane
        b.vdup(SimdType::I8, v(1), 2);
        b.simd(SimdOp::Vmax, SimdType::I8, v(2), v(0), v(1));
        b.halt();
        let (i, _) = run(&mut b);
        assert_eq!(i.reg(v(2)), 0x0202_0202_0202_0202);
    }

    #[test]
    fn fp_ops_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(r(0), 6);
        b.fp1(FpOp::Fcvt, f(0), r(0));
        b.mov_imm(r(1), 7);
        b.fp1(FpOp::Fcvt, f(1), r(1));
        b.fp(FpOp::Fmul, f(2), f(0), f(1));
        b.fp1(FpOp::Ftoi, r(2), f(2));
        b.halt();
        let (i, _) = run(&mut b);
        assert_eq!(i.reg(r(2)), 42);
    }

    #[test]
    fn eff_bits_tracks_operand_width() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(r(0), 0x7);
        b.add(r(1), r(0), op_imm(0x3)); // narrow
        b.mov_imm(r(2), 0x00FF_0000);
        b.add(r(3), r(2), op_imm(1)); // wide
        b.halt();
        let (_, t) = run(&mut b);
        let adds: Vec<_> = t
            .iter()
            .filter(|o| matches!(o.instr, Instr::Alu { op: AluOp::Add, .. }))
            .collect();
        assert!(
            adds[0].eff_bits <= 8,
            "narrow add should be narrow: {}",
            adds[0].eff_bits
        );
        assert!(
            adds[1].eff_bits >= 24,
            "wide add should be wide: {}",
            adds[1].eff_bits
        );
    }

    #[test]
    fn signed_branches() {
        let mut b = ProgramBuilder::new();
        let neg = b.new_label();
        let done = b.new_label();
        b.mov_imm(r(0), (-5i32) as u32);
        b.cmp(r(0), op_imm(0));
        b.blt(neg);
        b.mov_imm(r(1), 1);
        b.b(done);
        b.bind(neg);
        b.mov_imm(r(1), 2);
        b.bind(done);
        b.halt();
        let (i, _) = run(&mut b);
        assert_eq!(i.reg(r(1)), 2);
    }

    #[test]
    fn interpreter_is_an_iterator() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(r(0), 1);
        b.add(r(0), r(0), op_imm(1));
        b.halt();
        let p = b.build().unwrap();
        let ops: Vec<DynOp> = Interpreter::new(&p).collect();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[1].seq, 1);
    }
}
