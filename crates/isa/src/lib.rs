//! # redsoc-isa — micro-ISA, functional interpreter and dynamic traces
//!
//! The instruction-set substrate for the ReDSOC reproduction
//! (*"Recycling Data Slack in Out-of-Order Cores"*, HPCA 2019).
//!
//! The paper evaluates on the ARM ISA; this crate provides an ARM-flavoured
//! micro-ISA with exactly the structure the paper's analysis depends on:
//!
//! - the **Fig. 1 scalar ALU opcode set** (logical / move / shift /
//!   arithmetic, with the flexible shifted second operand whose rich
//!   semantics create opcode slack),
//! - **NEON-style sub-word SIMD** with 8/16/32/64-bit lane types (the
//!   source of type slack),
//! - multi-cycle multiply/divide/FP and memory operations ("true
//!   synchronous" operations in the paper's terms), and
//! - a functional [`Interpreter`](interp::Interpreter) that executes
//!   programs architecturally and streams [`trace::DynOp`] records
//!   annotated with effective operand widths (the source of width slack),
//!   effective addresses and branch outcomes — everything the trace-driven
//!   out-of-order timing model needs.
//!
//! ## Example
//!
//! ```
//! use redsoc_isa::prelude::*;
//!
//! // Sum an array of ten words.
//! let mut b = ProgramBuilder::new();
//! let data = b.alloc_words(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
//! let top = b.new_label();
//! b.mov_imm(r(0), data);
//! b.mov_imm(r(1), 10); // counter
//! b.mov_imm(r(2), 0); // sum
//! b.bind(top);
//! b.ldr(r(3), r(0), 0);
//! b.add(r(2), r(2), op_reg(r(3)));
//! b.add(r(0), r(0), op_imm(4));
//! b.subs(r(1), r(1), op_imm(1));
//! b.bne(top);
//! b.halt();
//! let program = b.build()?;
//!
//! let mut interp = Interpreter::new(&program);
//! let trace = interp.run(1_000)?;
//! assert_eq!(interp.reg(r(2)), 55);
//! assert!(trace.len() > 40);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod disasm;
pub mod instruction;
pub mod interp;
pub mod opcode;
pub mod operand;
pub mod program;
pub mod reg;
pub mod trace;

/// Convenient glob-import surface: register shorthands, builder, opcodes.
pub mod prelude {
    pub use crate::instruction::{Instr, LabelId};
    pub use crate::interp::Interpreter;
    pub use crate::opcode::{AluOp, Cond, ExecClass, FpOp, MemWidth, MulOp, SimdOp, SimdType};
    pub use crate::operand::{Operand2, ShiftKind};
    pub use crate::program::{f, op_imm, op_reg, r, v, Program, ProgramBuilder};
    pub use crate::reg::{ArchReg, RegClass};
    pub use crate::trace::DynOp;
}

pub use instruction::Instr;
pub use program::{Program, ProgramBuilder};
pub use trace::DynOp;
