//! Seeded random-program generator over the full micro-ISA.
//!
//! Programs are generated into a [`FuzzProgram`] — a flat item list the
//! shrinker can edit structurally — and lowered to a real
//! [`Program`] on demand. Generation is **valid by construction**:
//!
//! - memory traffic goes through a reserved base register pointing at a
//!   bounded scratch region, with offsets clamped inside it, so no access
//!   can fault even after the shrinker deletes the base-pointer setup
//!   (the base then reads as 0, still inside the flat memory);
//! - every division is preceded by a guard that forces the divisor to a
//!   small positive odd value, so `DivByZero` (and the `i32::MIN / -1`
//!   corner) is unreachable;
//! - loops are countdown loops with tiny trip counts, and nesting is
//!   forbidden, bounding the dynamic length to a small multiple of the
//!   static length.
//!
//! The shape knobs bias generation toward the paper's interesting
//! region: long single-cycle ALU dependence chains (slack accumulates
//! across transparent flip-flop hops), narrow operand values (width
//! slack), and a tunable sprinkle of SIMD, memory, FP and control flow.

use redsoc_isa::instruction::{Instr, LabelId};
use redsoc_isa::opcode::{AluOp, Cond, MemWidth, MulOp, SimdOp, SimdType};
use redsoc_isa::operand::{Operand2, ShiftKind};
use redsoc_isa::program::{f, r, v, Program, ProgramBuilder, ProgramError};
use redsoc_prng::SmallRng;

/// Bytes of zeroed scratch memory every generated program allocates.
pub const SCRATCH_BYTES: u32 = 1024;
/// Flat memory size of generated programs (keeps state comparisons cheap).
pub const GEN_MEM_SIZE: u32 = 64 * 1024;
/// Reserved integer register holding the scratch base address.
pub const SCRATCH_BASE: u8 = 28;
/// Reserved integer register used as loop counter.
pub const LOOP_COUNTER: u8 = 27;
/// General-purpose integer registers the generator reads/writes (`r0..`).
pub const INT_POOL: u8 = 12;
/// SIMD registers the generator reads/writes (`v0..`).
pub const SIMD_POOL: u8 = 8;
/// FP registers the generator reads/writes (`f0..`).
pub const FP_POOL: u8 = 8;

/// Tunable shape of generated programs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenKnobs {
    /// Static instruction budget for the program body.
    pub max_instrs: usize,
    /// 0–100: how strongly an ALU op's sources are drawn from the most
    /// recently written destinations (dependence-chain bias).
    pub chain_depth: u8,
    /// 0–100: weight of control flow (bounded loops, forward skips).
    pub branch_density: u8,
    /// 0–100: weight of loads/stores.
    pub loadstore_mix: u8,
    /// 0–100: weight of SIMD operations.
    pub simd_ratio: u8,
    /// 0–100: weight of FP / multiply / divide ("true synchronous") ops.
    pub heavy_ratio: u8,
}

impl GenKnobs {
    /// The slack-accumulating default: dominated by chained single-cycle
    /// scalar ALU work, the regime ReDSOC's recycling targets.
    #[must_use]
    pub fn chain_heavy(max_instrs: usize) -> Self {
        GenKnobs {
            max_instrs,
            chain_depth: 80,
            branch_density: 8,
            loadstore_mix: 12,
            simd_ratio: 10,
            heavy_ratio: 6,
        }
    }

    /// A random shape for case-to-case diversity, still biased toward
    /// ALU chains.
    #[must_use]
    pub fn sampled(rng: &mut SmallRng, max_instrs: usize) -> Self {
        GenKnobs {
            max_instrs,
            chain_depth: rng.gen_range(30u8..=95),
            branch_density: rng.gen_range(0u8..=25),
            loadstore_mix: rng.gen_range(0u8..=35),
            simd_ratio: rng.gen_range(0u8..=40),
            heavy_ratio: rng.gen_range(0u8..=20),
        }
    }
}

/// One element of a generated program: a label binding point or an
/// instruction. Flat enough for the shrinker to delete/simplify entries
/// while every edit stays lowerable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Item {
    /// Bind label `n` at this position.
    Bind(u32),
    /// An instruction.
    Op(Instr),
}

/// A generated program in shrinkable form.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzProgram {
    /// Instruction stream interleaved with label bindings.
    pub items: Vec<Item>,
    /// Number of labels referenced by the items.
    pub num_labels: u32,
}

impl FuzzProgram {
    /// Number of real instructions (excluding label bindings and the
    /// implicit trailing `halt`).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, Item::Op(_)))
            .count()
    }

    /// Lower to an executable [`Program`].
    ///
    /// Labels never bound by a surviving [`Item::Bind`] (the shrinker may
    /// have deleted it) are bound just before the trailing `halt`, so any
    /// branch to them becomes a branch-to-exit and every edit of the item
    /// list remains structurally valid.
    ///
    /// # Errors
    ///
    /// Propagates [`ProgramError`] — unreachable for generator/shrinker
    /// output, surfaced rather than asserted.
    pub fn build(&self) -> Result<Program, ProgramError> {
        let mut b = ProgramBuilder::new();
        b.mem_size(GEN_MEM_SIZE);
        let scratch = b.alloc_zeroed(SCRATCH_BYTES);
        let labels: Vec<LabelId> = (0..self.num_labels).map(|_| b.new_label()).collect();
        b.mov_imm(r(SCRATCH_BASE), scratch);
        for item in &self.items {
            match item {
                Item::Bind(n) => {
                    let id = labels[*n as usize];
                    if !b.is_bound(id) {
                        b.bind(id);
                    }
                }
                Item::Op(i) => {
                    b.push(*i);
                }
            }
        }
        for id in labels {
            if !b.is_bound(id) {
                b.bind(id);
            }
        }
        b.halt();
        b.build()
    }
}

/// Register/operand picking state: tracks recently written destinations
/// so chain bias has something to chain on.
struct Picker {
    recent_int: Vec<u8>,
    recent_simd: Vec<u8>,
}

impl Picker {
    fn new() -> Self {
        Picker {
            recent_int: Vec::new(),
            recent_simd: Vec::new(),
        }
    }

    fn wrote_int(&mut self, n: u8) {
        self.recent_int.retain(|&x| x != n);
        self.recent_int.push(n);
        if self.recent_int.len() > 4 {
            self.recent_int.remove(0);
        }
    }

    fn wrote_simd(&mut self, n: u8) {
        self.recent_simd.retain(|&x| x != n);
        self.recent_simd.push(n);
        if self.recent_simd.len() > 4 {
            self.recent_simd.remove(0);
        }
    }

    fn int_src(&self, rng: &mut SmallRng, chain_depth: u8) -> u8 {
        if !self.recent_int.is_empty() && rng.gen_range(0u8..100) < chain_depth {
            self.recent_int[rng.gen_range(0usize..self.recent_int.len())]
        } else {
            rng.gen_range(0u8..INT_POOL)
        }
    }

    fn simd_src(&self, rng: &mut SmallRng, chain_depth: u8) -> u8 {
        if !self.recent_simd.is_empty() && rng.gen_range(0u8..100) < chain_depth {
            self.recent_simd[rng.gen_range(0usize..self.recent_simd.len())]
        } else {
            rng.gen_range(0u8..SIMD_POOL)
        }
    }
}

/// Scalar ALU ops that take the canonical three-operand form.
const ALU3: [AluOp; 16] = [
    AluOp::And,
    AluOp::Eor,
    AluOp::Orr,
    AluOp::Bic,
    AluOp::Add,
    AluOp::Sub,
    AluOp::Rsb,
    AluOp::Adc,
    AluOp::Sbc,
    AluOp::Rsc,
    AluOp::Lsl,
    AluOp::Lsr,
    AluOp::Asr,
    AluOp::Ror,
    AluOp::Rrx,
    AluOp::Cmp, // placeholder slot; remapped below to compare form
];

const SIMD3: [SimdOp; 9] = [
    SimdOp::Vadd,
    SimdOp::Vsub,
    SimdOp::Vand,
    SimdOp::Vorr,
    SimdOp::Veor,
    SimdOp::Vmax,
    SimdOp::Vmin,
    SimdOp::Vmul,
    SimdOp::Vmla,
];

const CONDS: [Cond; 8] = [
    Cond::Eq,
    Cond::Ne,
    Cond::Ge,
    Cond::Lt,
    Cond::Gt,
    Cond::Le,
    Cond::Hs,
    Cond::Lo,
];

fn gen_operand2(rng: &mut SmallRng, picker: &Picker, chain: u8) -> Operand2 {
    match rng.gen_range(0u8..10) {
        // Small immediates keep effective widths narrow (width slack).
        0..=3 => Operand2::Imm(rng.gen_range(0u32..256)),
        4 => Operand2::Imm(rng.gen_range(0u32..=u32::MAX)),
        5..=7 => Operand2::Reg(r(picker.int_src(rng, chain))),
        _ => {
            let kinds = [
                ShiftKind::Lsl,
                ShiftKind::Lsr,
                ShiftKind::Asr,
                ShiftKind::Ror,
            ];
            Operand2::ShiftedReg {
                reg: r(picker.int_src(rng, chain)),
                kind: kinds[rng.gen_range(0usize..kinds.len())],
                amount: rng.gen_range(1u8..=31),
            }
        }
    }
}

fn gen_alu(rng: &mut SmallRng, picker: &mut Picker, knobs: &GenKnobs, items: &mut Vec<Item>) {
    let op = ALU3[rng.gen_range(0usize..ALU3.len())];
    let chain = knobs.chain_depth;
    if op == AluOp::Cmp {
        // Occasionally a pure flag producer (compare family).
        let cmp = [AluOp::Cmp, AluOp::Cmn, AluOp::Tst, AluOp::Teq];
        items.push(Item::Op(Instr::Alu {
            op: cmp[rng.gen_range(0usize..cmp.len())],
            dst: None,
            src1: Some(r(picker.int_src(rng, chain))),
            op2: gen_operand2(rng, picker, chain),
            set_flags: true,
        }));
        return;
    }
    let d = rng.gen_range(0u8..INT_POOL);
    let (src1, op2) = if op == AluOp::Rrx {
        (Some(r(picker.int_src(rng, chain))), Operand2::Imm(1))
    } else if matches!(op, AluOp::Mov | AluOp::Mvn) {
        (None, gen_operand2(rng, picker, chain))
    } else {
        (
            Some(r(picker.int_src(rng, chain))),
            gen_operand2(rng, picker, chain),
        )
    };
    items.push(Item::Op(Instr::Alu {
        op,
        dst: Some(r(d)),
        src1,
        op2,
        set_flags: rng.gen_range(0u8..8) == 0,
    }));
    picker.wrote_int(d);
}

fn gen_mem(rng: &mut SmallRng, picker: &mut Picker, knobs: &GenKnobs, items: &mut Vec<Item>) {
    let widths = [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8];
    let width = widths[rng.gen_range(0usize..widths.len())];
    let span = width.bytes();
    let offset = (rng.gen_range(0u32..(SCRATCH_BYTES - span) / span) * span) as i32;
    let load = rng.gen::<bool>();
    if width == MemWidth::B8 {
        let n = rng.gen_range(0u8..SIMD_POOL);
        if load {
            items.push(Item::Op(Instr::Load {
                dst: v(n),
                base: r(SCRATCH_BASE),
                offset,
                width,
            }));
            picker.wrote_simd(n);
        } else {
            items.push(Item::Op(Instr::Store {
                src: v(picker.simd_src(rng, knobs.chain_depth)),
                base: r(SCRATCH_BASE),
                offset,
                width,
            }));
        }
    } else if load {
        let d = rng.gen_range(0u8..INT_POOL);
        items.push(Item::Op(Instr::Load {
            dst: r(d),
            base: r(SCRATCH_BASE),
            offset,
            width,
        }));
        picker.wrote_int(d);
    } else {
        items.push(Item::Op(Instr::Store {
            src: r(picker.int_src(rng, knobs.chain_depth)),
            base: r(SCRATCH_BASE),
            offset,
            width,
        }));
    }
}

fn gen_simd(rng: &mut SmallRng, picker: &mut Picker, knobs: &GenKnobs, items: &mut Vec<Item>) {
    let tys = [SimdType::I8, SimdType::I16, SimdType::I32, SimdType::I64];
    let ty = tys[rng.gen_range(0usize..tys.len())];
    let d = rng.gen_range(0u8..SIMD_POOL);
    let chain = knobs.chain_depth;
    match rng.gen_range(0u8..6) {
        0 => items.push(Item::Op(Instr::Simd {
            op: SimdOp::Vdup,
            ty,
            dst: v(d),
            src1: None,
            src2: None,
            imm: rng.gen_range(0u8..=255),
        })),
        1 => items.push(Item::Op(Instr::Simd {
            op: if rng.gen::<bool>() {
                SimdOp::Vshl
            } else {
                SimdOp::Vshr
            },
            ty,
            dst: v(d),
            src1: Some(v(picker.simd_src(rng, chain))),
            src2: None,
            imm: rng.gen_range(1u32..ty.lane_bits()) as u8,
        })),
        _ => items.push(Item::Op(Instr::Simd {
            op: SIMD3[rng.gen_range(0usize..SIMD3.len())],
            ty,
            dst: v(d),
            src1: Some(v(picker.simd_src(rng, chain))),
            src2: Some(v(picker.simd_src(rng, chain))),
            imm: 0,
        })),
    }
    picker.wrote_simd(d);
}

fn gen_heavy(rng: &mut SmallRng, picker: &mut Picker, knobs: &GenKnobs, items: &mut Vec<Item>) {
    use redsoc_isa::opcode::FpOp;
    let chain = knobs.chain_depth;
    match rng.gen_range(0u8..6) {
        0 | 1 => {
            let d = rng.gen_range(0u8..INT_POOL);
            let op = if rng.gen::<bool>() {
                MulOp::Mul
            } else {
                MulOp::Mla
            };
            items.push(Item::Op(Instr::MulDiv {
                op,
                dst: r(d),
                src1: r(picker.int_src(rng, chain)),
                src2: r(picker.int_src(rng, chain)),
                acc: (op == MulOp::Mla).then(|| r(picker.int_src(rng, chain))),
            }));
            picker.wrote_int(d);
        }
        2 => {
            // Division, divisor guarded to a small positive odd value so
            // DivByZero and i32::MIN / -1 are unreachable.
            let divisor = rng.gen_range(0u8..INT_POOL);
            let guard_src = picker.int_src(rng, chain);
            items.push(Item::Op(Instr::Alu {
                op: AluOp::And,
                dst: Some(r(divisor)),
                src1: Some(r(guard_src)),
                op2: Operand2::Imm(15),
                set_flags: false,
            }));
            items.push(Item::Op(Instr::Alu {
                op: AluOp::Orr,
                dst: Some(r(divisor)),
                src1: Some(r(divisor)),
                op2: Operand2::Imm(1),
                set_flags: false,
            }));
            let d = rng.gen_range(0u8..INT_POOL);
            items.push(Item::Op(Instr::MulDiv {
                op: if rng.gen::<bool>() {
                    MulOp::Udiv
                } else {
                    MulOp::Sdiv
                },
                dst: r(d),
                src1: r(picker.int_src(rng, chain)),
                src2: r(divisor),
                acc: None,
            }));
            picker.wrote_int(d);
        }
        3 => {
            // int → fp → arithmetic → int round trip.
            let fd = rng.gen_range(0u8..FP_POOL);
            items.push(Item::Op(Instr::Fp {
                op: FpOp::Fcvt,
                dst: f(fd),
                src1: r(picker.int_src(rng, chain)),
                src2: None,
            }));
            picker.recent_int.clear();
            let d = rng.gen_range(0u8..INT_POOL);
            items.push(Item::Op(Instr::Fp {
                op: FpOp::Ftoi,
                dst: r(d),
                src1: f(fd),
                src2: None,
            }));
            picker.wrote_int(d);
        }
        _ => {
            let ops = [FpOp::Fadd, FpOp::Fsub, FpOp::Fmul, FpOp::Fdiv, FpOp::Fcmp];
            let op = ops[rng.gen_range(0usize..ops.len())];
            items.push(Item::Op(Instr::Fp {
                op,
                dst: f(rng.gen_range(0u8..FP_POOL)),
                src1: f(rng.gen_range(0u8..FP_POOL)),
                src2: Some(f(rng.gen_range(0u8..FP_POOL))),
            }));
        }
    }
}

/// Generate one program from `rng` with the given shape.
#[must_use]
pub fn gen_case(rng: &mut SmallRng, knobs: &GenKnobs) -> FuzzProgram {
    let mut items = Vec::new();
    let mut picker = Picker::new();
    let mut num_labels = 0u32;
    let mut in_loop: Option<(u32, usize)> = None; // (label, close-at-count)
    let mut emitted = 0usize;

    while emitted < knobs.max_instrs {
        // Close an open loop once its body budget is spent.
        if let Some((label, close_at)) = in_loop {
            if emitted >= close_at {
                items.push(Item::Op(Instr::Alu {
                    op: AluOp::Sub,
                    dst: Some(r(LOOP_COUNTER)),
                    src1: Some(r(LOOP_COUNTER)),
                    op2: Operand2::Imm(1),
                    set_flags: true,
                }));
                items.push(Item::Op(Instr::Branch {
                    cond: Cond::Ne,
                    target: LabelId::new(label),
                }));
                emitted += 2;
                in_loop = None;
                continue;
            }
        }
        let roll = rng.gen_range(0u8..100);
        let k = knobs;
        if roll < k.branch_density && in_loop.is_none() && emitted + 6 < k.max_instrs {
            if rng.gen::<bool>() {
                // Bounded countdown loop (1..=3 iterations).
                let label = num_labels;
                num_labels += 1;
                items.push(Item::Op(Instr::Alu {
                    op: AluOp::Mov,
                    dst: Some(r(LOOP_COUNTER)),
                    src1: None,
                    op2: Operand2::Imm(rng.gen_range(1u32..=3)),
                    set_flags: false,
                }));
                items.push(Item::Bind(label));
                let body = rng.gen_range(2usize..=6);
                in_loop = Some((label, emitted + 1 + body));
                emitted += 1;
            } else {
                // Conditional forward skip over a few instructions.
                let label = num_labels;
                num_labels += 1;
                items.push(Item::Op(Instr::Branch {
                    cond: CONDS[rng.gen_range(0usize..CONDS.len())],
                    target: LabelId::new(label),
                }));
                let skip = rng.gen_range(1usize..=4);
                for _ in 0..skip {
                    gen_alu(rng, &mut picker, knobs, &mut items);
                }
                items.push(Item::Bind(label));
                emitted += 1 + skip;
            }
        } else if roll < k.branch_density + k.loadstore_mix {
            gen_mem(rng, &mut picker, knobs, &mut items);
            emitted += 1;
        } else if roll < k.branch_density + k.loadstore_mix + k.simd_ratio {
            gen_simd(rng, &mut picker, knobs, &mut items);
            emitted += 1;
        } else if roll < k.branch_density + k.loadstore_mix + k.simd_ratio + k.heavy_ratio {
            gen_heavy(rng, &mut picker, knobs, &mut items);
            emitted += 3; // heavy shapes emit up to three instructions
        } else {
            gen_alu(rng, &mut picker, knobs, &mut items);
            emitted += 1;
        }
    }
    // Close a loop left open at the budget edge.
    if let Some((label, _)) = in_loop {
        items.push(Item::Op(Instr::Alu {
            op: AluOp::Sub,
            dst: Some(r(LOOP_COUNTER)),
            src1: Some(r(LOOP_COUNTER)),
            op2: Operand2::Imm(1),
            set_flags: true,
        }));
        items.push(Item::Op(Instr::Branch {
            cond: Cond::Ne,
            target: LabelId::new(label),
        }));
    }
    FuzzProgram { items, num_labels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsoc_isa::interp::Interpreter;

    #[test]
    fn generated_programs_execute_without_faults() {
        let mut rng = SmallRng::seed_from_u64(7);
        for case in 0..50 {
            let knobs = GenKnobs::sampled(&mut rng, 48);
            let p = gen_case(&mut rng, &knobs)
                .build()
                .unwrap_or_else(|e| panic!("case {case} builds: {e}"));
            let mut i = Interpreter::new(&p);
            let trace = i
                .run(20_000)
                .unwrap_or_else(|e| panic!("case {case} must not fault: {e:?}"));
            assert!(!trace.is_empty(), "case {case} produced an empty trace");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen_one = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let knobs = GenKnobs::sampled(&mut rng, 40);
            gen_case(&mut rng, &knobs)
        };
        assert_eq!(gen_one(42), gen_one(42));
        assert_ne!(gen_one(42), gen_one(43), "different seeds diverge");
    }

    #[test]
    fn shrunk_label_deletion_stays_buildable() {
        let mut rng = SmallRng::seed_from_u64(3);
        let knobs = GenKnobs {
            branch_density: 60,
            ..GenKnobs::chain_heavy(40)
        };
        let mut p = gen_case(&mut rng, &knobs);
        assert!(p.num_labels > 0, "want branches for this test");
        // Deleting every Bind must still build: labels rebind to the exit.
        p.items.retain(|i| !matches!(i, Item::Bind(_)));
        let prog = p.build().expect("bind-less program still builds");
        assert!(!prog.is_empty());
    }
}
