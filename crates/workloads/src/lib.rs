//! # redsoc-workloads — the paper's benchmark suite
//!
//! The sixteen workloads of the ReDSOC evaluation (§V), in three classes:
//!
//! - **SPEC-like** (`xalanc`, `bzip2`, `omnetpp`, `gromacs`, `soplex`):
//!   synthetic trace generators calibrated to the Fig. 10 operation mixes
//!   (see [`spec`] for the substitution rationale);
//! - **MiBench-like** (`corners`, `strsearch`, `gsm`, `crc`, `bitcnt`):
//!   real kernels written in the micro-ISA, functionally verified;
//! - **ML** (`act`, `pool0`, `conv`, `pool1`, `softmax`): the ARM Compute
//!   Library kernels of Table II, with NEON-style `i16×4` SIMD.
//!
//! All workloads are deterministic, so simulations are reproducible.
//!
//! ## Example
//!
//! ```
//! use redsoc_workloads::{Benchmark, BenchClass};
//!
//! let trace = Benchmark::Bitcnt.trace(10_000);
//! assert!(trace.len() >= 10_000);
//! assert_eq!(Benchmark::Bitcnt.class(), BenchClass::MiBench);
//! assert_eq!(Benchmark::all().len(), 16);
//! ```

#![warn(missing_docs)]

pub mod extended;
pub mod mibench;
pub mod ml;
pub mod spec;

use redsoc_isa::interp::Interpreter;
use redsoc_isa::program::Program;
use redsoc_isa::trace::DynOp;

use spec::SpecProfile;

/// Benchmark class (the grouping of Figs. 11–15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BenchClass {
    /// SPEC CPU2006-like workloads.
    Spec,
    /// MiBench-like embedded kernels.
    MiBench,
    /// Machine-learning kernels (Table II).
    Ml,
    /// The extended suite, outside the paper's evaluation.
    Extended,
}

impl BenchClass {
    /// Display label used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BenchClass::Spec => "SPEC",
            BenchClass::MiBench => "MiBench",
            BenchClass::Ml => "ML",
            BenchClass::Extended => "extended",
        }
    }
}

/// The sixteen benchmarks of the evaluation, in Fig. 10 order, then the
/// extended suite (the order sweeps sort by).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// SPEC xalancbmk-like.
    Xalanc,
    /// SPEC bzip2-like.
    Bzip2,
    /// SPEC omnetpp-like.
    Omnetpp,
    /// SPEC gromacs-like.
    Gromacs,
    /// SPEC soplex-like.
    Soplex,
    /// MiBench susan-corners-like.
    Corners,
    /// MiBench stringsearch.
    Strsearch,
    /// MiBench GSM long-term predictor.
    Gsm,
    /// MiBench CRC-32.
    Crc,
    /// MiBench bitcount.
    Bitcnt,
    /// ML ReLU activation.
    Act,
    /// ML 2×2 max pooling.
    Pool0,
    /// ML 3×3 Gaussian convolution.
    Conv,
    /// ML 2×2 average pooling.
    Pool1,
    /// ML softmax.
    Softmax,
    /// ML multiply-accumulate chain (bonus: exercises VMLA late
    /// forwarding; not part of the paper's table but used in tests).
    MlMac,
    /// Extended suite: insertion sort, qsort's base case.
    Qsort,
    /// Extended suite: Dijkstra relaxation over an adjacency matrix.
    Dijkstra,
    /// Extended suite: SHA-style rotate/XOR/add rounds.
    ShaMix,
    /// Extended suite: an `i8` dot product on VMLA chains.
    DotI8,
}

impl Benchmark {
    /// The paper's sixteen evaluation benchmarks, in Fig. 10 order
    /// (excluding the bonus [`Benchmark::MlMac`]).
    #[must_use]
    pub fn all() -> Vec<Benchmark> {
        use Benchmark::*;
        vec![
            Xalanc, Bzip2, Omnetpp, Gromacs, Soplex, Corners, Strsearch, Gsm, Crc, Bitcnt, Act,
            Pool0, Conv, Pool1, Softmax, MlMac,
        ]
    }

    /// The four kernels of the extended suite ([`extended`]), which lie
    /// outside [`Benchmark::all`] and every class of the paper's figures.
    #[must_use]
    pub fn extended() -> Vec<Benchmark> {
        use Benchmark::*;
        vec![Qsort, Dijkstra, ShaMix, DotI8]
    }

    /// The benchmarks shown in the paper's figures (15 of them).
    #[must_use]
    pub fn paper_set() -> Vec<Benchmark> {
        Benchmark::all()
            .into_iter()
            .filter(|b| *b != Benchmark::MlMac)
            .collect()
    }

    /// Benchmarks of one class, in figure order.
    #[must_use]
    pub fn of_class(class: BenchClass) -> Vec<Benchmark> {
        Benchmark::paper_set()
            .into_iter()
            .filter(|b| b.class() == class)
            .collect()
    }

    /// Fig. 10 label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Xalanc => "xalanc",
            Benchmark::Bzip2 => "bzip2",
            Benchmark::Omnetpp => "omnetpp",
            Benchmark::Gromacs => "gromacs",
            Benchmark::Soplex => "soplex",
            Benchmark::Corners => "corners",
            Benchmark::Strsearch => "strsearch",
            Benchmark::Gsm => "gsm",
            Benchmark::Crc => "crc",
            Benchmark::Bitcnt => "bitcnt",
            Benchmark::Act => "ACT",
            Benchmark::Pool0 => "POOL0",
            Benchmark::Conv => "CONV",
            Benchmark::Pool1 => "POOL1",
            Benchmark::Softmax => "SOFTMAX",
            Benchmark::MlMac => "MLMAC",
            Benchmark::Qsort => "qsort",
            Benchmark::Dijkstra => "dijkstra",
            Benchmark::ShaMix => "sha_mix",
            Benchmark::DotI8 => "dot_i8",
        }
    }

    /// Which class the benchmark belongs to.
    #[must_use]
    pub fn class(self) -> BenchClass {
        use Benchmark::*;
        match self {
            Xalanc | Bzip2 | Omnetpp | Gromacs | Soplex => BenchClass::Spec,
            Corners | Strsearch | Gsm | Crc | Bitcnt => BenchClass::MiBench,
            Act | Pool0 | Conv | Pool1 | Softmax | MlMac => BenchClass::Ml,
            Qsort | Dijkstra | ShaMix | DotI8 => BenchClass::Extended,
        }
    }

    /// Generate a dynamic trace of at least `approx_len` instructions
    /// (kernels round up to whole outer iterations; synthetic traces are
    /// exact). Always ends with `HALT`.
    #[must_use]
    pub fn trace(self, approx_len: u64) -> Vec<DynOp> {
        match self.source() {
            Source::Spec(profile, seed) => spec::spec_trace(&profile, approx_len, seed).collect(),
            Source::Kernel(build) => kernel_trace(build, approx_len),
        }
    }

    /// The generator behind [`Benchmark::trace`].
    fn source(self) -> Source {
        match self {
            Benchmark::Xalanc => Source::Spec(SpecProfile::xalanc(), 11),
            Benchmark::Bzip2 => Source::Spec(SpecProfile::bzip2(), 12),
            Benchmark::Omnetpp => Source::Spec(SpecProfile::omnetpp(), 13),
            Benchmark::Gromacs => Source::Spec(SpecProfile::gromacs(), 14),
            Benchmark::Soplex => Source::Spec(SpecProfile::soplex(), 15),
            Benchmark::Corners => Source::Kernel(mibench::corners),
            Benchmark::Strsearch => Source::Kernel(mibench::strsearch),
            Benchmark::Gsm => Source::Kernel(mibench::gsm_ltp),
            Benchmark::Crc => Source::Kernel(mibench::crc32),
            Benchmark::Bitcnt => Source::Kernel(mibench::bitcount),
            Benchmark::Act => Source::Kernel(ml::relu),
            Benchmark::Pool0 => Source::Kernel(ml::pool_max),
            Benchmark::Conv => Source::Kernel(ml::conv3x3),
            Benchmark::Pool1 => Source::Kernel(ml::pool_avg),
            Benchmark::Softmax => Source::Kernel(ml::softmax),
            Benchmark::MlMac => Source::Kernel(ml_mac),
            Benchmark::Qsort => Source::Kernel(extended::qsort),
            Benchmark::Dijkstra => Source::Kernel(extended::dijkstra),
            Benchmark::ShaMix => Source::Kernel(extended::sha_mix),
            Benchmark::DotI8 => Source::Kernel(extended::dot_i8),
        }
    }
}

/// Where a benchmark's trace comes from.
enum Source {
    /// A synthetic SPEC-like generator and its seed.
    Spec(SpecProfile, u64),
    /// A kernel program, built for a given number of outer iterations.
    Kernel(fn(u32) -> Program),
}

/// Interpret one outer iteration of the kernel: when it covers
/// `approx_len`, it is the trace (one iteration of CONV, POOL0, ACT or
/// POOL1 runs 114k–587k ops). Otherwise build enough iterations to cover
/// `approx_len` and interpret them into a buffer sized for as many first
/// iterations, which no later iteration outruns, so it never regrows.
/// Either way the interpreter holds only the memory the kernel touches:
/// its data images, grown on the first store past their end.
fn kernel_trace(build: fn(u32) -> Program, approx_len: u64) -> Vec<DynOp> {
    let probe: Vec<DynOp> = Interpreter::new(&build(1)).collect();
    let per_iter = probe.len() as u64;
    debug_assert!(per_iter > 0, "kernels execute at least one instruction");
    let iters = approx_len
        .div_ceil(per_iter.max(1))
        .min(u64::from(u32::MAX));
    if iters <= 1 {
        return probe;
    }
    let mut trace = Vec::with_capacity((iters * per_iter) as usize);
    trace.extend(Interpreter::new(&build(iters as u32)));
    trace
}

/// Bonus kernel: a VMLA accumulation chain (dot-product style), the
/// late-forwarding pattern §V describes for NEON multiply-accumulate.
fn ml_mac(outer_iters: u32) -> Program {
    use redsoc_isa::opcode::{SimdOp, SimdType};
    use redsoc_isa::program::{op_imm, r, v, ProgramBuilder};
    const N: u32 = 512;
    let mut b = ProgramBuilder::new();
    let bytes: Vec<u8> = (0..N * 2).map(|i| (i % 251) as u8).collect();
    let a_addr = b.alloc_data(&bytes);
    let c_addr = b.alloc_data(&bytes);

    b.mov_imm(r(10), outer_iters);
    let outer = b.here();
    b.mov_imm(r(0), a_addr);
    b.mov_imm(r(1), c_addr);
    b.mov_imm(r(2), N / 4);
    b.vdup(SimdType::I16, v(2), 0); // accumulator
    let top = b.here();
    b.vldr(v(0), r(0), 0);
    b.vldr(v(1), r(1), 0);
    b.simd(SimdOp::Vmla, SimdType::I16, v(2), v(0), v(1));
    b.add(r(0), r(0), op_imm(8));
    b.add(r(1), r(1), op_imm(8));
    b.subs(r(2), r(2), op_imm(1));
    b.bne(top);
    b.subs(r(10), r(10), op_imm(1));
    b.bne(outer);
    b.halt();
    b.build().expect("ml_mac is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsoc_isa::instruction::Instr;

    #[test]
    fn every_benchmark_produces_a_halting_trace() {
        for bench in Benchmark::all() {
            let t = bench.trace(20_000);
            assert!(
                t.len() as u64 >= 20_000,
                "{} trace too short: {}",
                bench.name(),
                t.len()
            );
            assert!(
                matches!(t.last().unwrap().instr, Instr::Halt),
                "{} must end with HALT",
                bench.name()
            );
        }
    }

    #[test]
    fn classes_partition_the_paper_set() {
        assert_eq!(Benchmark::of_class(BenchClass::Spec).len(), 5);
        assert_eq!(Benchmark::of_class(BenchClass::MiBench).len(), 5);
        assert_eq!(Benchmark::of_class(BenchClass::Ml).len(), 5);
    }

    #[test]
    fn names_are_unique() {
        let every: Vec<Benchmark> = Benchmark::all()
            .into_iter()
            .chain(Benchmark::extended())
            .collect();
        let mut names: Vec<_> = every.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), every.len());
    }

    /// The algorithm `kernel_trace` replaced, kept as its reference:
    /// interpret one iteration only to count it, then build and interpret
    /// enough iterations to cover `approx_len`.
    fn two_pass_kernel_trace(build: fn(u32) -> Program, approx_len: u64) -> Vec<DynOp> {
        let per_iter = Interpreter::new(&build(1)).count() as u64;
        let iters = approx_len.div_ceil(per_iter.max(1)).max(1);
        let program = build(iters.min(u64::from(u32::MAX)) as u32);
        Interpreter::new(&program).collect()
    }

    #[test]
    fn kernel_traces_match_the_two_pass_reference_at_the_iteration_boundary() {
        let every = Benchmark::all().into_iter().chain(Benchmark::extended());
        for bench in every {
            let Source::Kernel(build) = bench.source() else {
                continue;
            };
            let per_iter = Interpreter::new(&build(1)).count() as u64;
            for (len, iters) in [(per_iter, 1), (per_iter + 1, 2)] {
                let trace = kernel_trace(build, len);
                let name = bench.name();
                assert!(
                    trace == two_pass_kernel_trace(build, len),
                    "{name} at len {len}: trace differs from the two-pass reference"
                );
                assert!(
                    trace.len() as u64 <= iters * per_iter,
                    "{name} at len {len}: {iters} iterations outgrow {iters} first ones"
                );
            }
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let a = Benchmark::Crc.trace(5_000);
        let b = Benchmark::Crc.trace(5_000);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[100], b[100]);
    }
}
