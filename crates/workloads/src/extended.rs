//! Extended workload suite (beyond the paper's Fig. 10 set).
//!
//! Three more MiBench/SPEC-adjacent kernels that stress different corners
//! of the slack-recycling mechanism:
//!
//! - [`qsort`] — data-dependent branching and pointer arithmetic
//!   (insertion sort inner loops, as qsort's base case spends its time);
//! - [`dijkstra`] — relaxation over an adjacency matrix: compare/select
//!   chains mixed with irregular loads;
//! - [`sha_mix`] — SHA-style rotate/XOR/add rounds: a long, strictly
//!   serial chain of mixed-slack operations (the mechanism's natural
//!   habitat).
//!
//! These are *not* part of the paper's evaluation: they are
//! [`Benchmark::extended`](crate::Benchmark::extended) variants, outside
//! `Benchmark::all()`, and `redsoc report` shows them in their own
//! section.

use redsoc_isa::opcode::SimdType;
use redsoc_isa::program::{op_imm, op_reg, r, v, Program, ProgramBuilder};

fn xorshift_words(n: u32, seed: u32) -> Vec<u32> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        })
        .collect()
}

/// Insertion sort over a word array — the dominant inner loop of a real
/// qsort once partitions become small. Data-dependent compare/branch plus
/// a shifting store stream.
#[must_use]
pub fn qsort(outer_iters: u32) -> Program {
    const N: u32 = 96;
    let mut b = ProgramBuilder::new();
    let data = b.alloc_words(&xorshift_words(N, 0x9507));
    let scratch = b.alloc_zeroed(N * 4);

    b.mov_imm(r(10), outer_iters);
    let outer = b.here();
    // Copy data → scratch so every outer iteration sorts fresh input.
    b.mov_imm(r(0), data);
    b.mov_imm(r(1), scratch);
    b.mov_imm(r(2), N);
    let copy = b.here();
    b.ldr(r(3), r(0), 0);
    b.str_(r(3), r(1), 0);
    b.add(r(0), r(0), op_imm(4));
    b.add(r(1), r(1), op_imm(4));
    b.subs(r(2), r(2), op_imm(1));
    b.bne(copy);

    // Insertion sort scratch[0..N].
    // for i in 1..N { key = a[i]; j = i-1; while j>=0 && a[j]>key {a[j+1]=a[j]; j--}; a[j+1]=key }
    b.mov_imm(r(4), 1); // i
    let iloop = b.new_label();
    let jloop = b.new_label();
    let jdone = b.new_label();
    let inext = b.new_label();
    b.bind(iloop);
    b.lsl(r(5), r(4), op_imm(2));
    b.add(r(5), r(5), op_imm(scratch));
    b.ldr(r(6), r(5), 0); // key
    b.sub(r(7), r(4), op_imm(1)); // j
    b.bind(jloop);
    b.cmp(r(7), op_imm(0));
    b.blt(jdone);
    b.lsl(r(8), r(7), op_imm(2));
    b.add(r(8), r(8), op_imm(scratch));
    b.ldr(r(9), r(8), 0); // a[j]
    b.cmp(r(9), op_reg(r(6)));
    b.blo(jdone); // unsigned a[j] <= key → place key
    b.str_(r(9), r(8), 4); // a[j+1] = a[j]
    b.sub(r(7), r(7), op_imm(1));
    b.b(jloop);
    b.bind(jdone);
    b.add(r(8), r(7), op_imm(1));
    b.lsl(r(8), r(8), op_imm(2));
    b.add(r(8), r(8), op_imm(scratch));
    b.str_(r(6), r(8), 0);
    b.bind(inext);
    b.add(r(4), r(4), op_imm(1));
    b.cmp(r(4), op_imm(N));
    b.blt(iloop);

    b.subs(r(10), r(10), op_imm(1));
    b.bne(outer);
    b.halt();
    b.build().expect("qsort is well-formed")
}

/// Single-source shortest path over a dense adjacency matrix (Dijkstra
/// without a heap, as MiBench ships it): repeated min-select scans and
/// relaxations — branchless compare/select chains over irregular loads.
#[must_use]
pub fn dijkstra(outer_iters: u32) -> Program {
    const V: u32 = 24;
    const INF: u32 = 0x00FF_FFFF;
    let mut b = ProgramBuilder::new();
    // Adjacency matrix with small positive weights.
    let weights: Vec<u32> = xorshift_words(V * V, 0xD175)
        .iter()
        .map(|w| 1 + (w % 63))
        .collect();
    let adj = b.alloc_words(&weights);
    let dist = b.alloc_zeroed(V * 4);
    let visited = b.alloc_zeroed(V * 4);

    b.mov_imm(r(10), outer_iters);
    let outer = b.here();

    // init: dist[i] = INF (dist[0] = 0), visited[i] = 0
    b.mov_imm(r(0), 0);
    let init = b.here();
    b.lsl(r(1), r(0), op_imm(2));
    b.mov_imm(r(2), INF);
    b.add(r(3), r(1), op_imm(dist));
    b.str_(r(2), r(3), 0);
    b.mov_imm(r(2), 0);
    b.add(r(3), r(1), op_imm(visited));
    b.str_(r(2), r(3), 0);
    b.add(r(0), r(0), op_imm(1));
    b.cmp(r(0), op_imm(V));
    b.blt(init);
    b.mov_imm(r(2), 0);
    b.mov_imm(r(3), dist);
    b.str_(r(2), r(3), 0);

    // V rounds of select-min + relax.
    b.mov_imm(r(11), V);
    let round = b.here();
    // select unvisited min: u (r4), best (r5)
    b.mov_imm(r(4), 0);
    b.mov_imm(r(5), INF + 1);
    b.mov_imm(r(0), 0);
    let scan = b.new_label();
    let skip = b.new_label();
    b.bind(scan);
    b.lsl(r(1), r(0), op_imm(2));
    b.add(r(2), r(1), op_imm(visited));
    b.ldr(r(2), r(2), 0);
    b.cmp(r(2), op_imm(0));
    b.bne(skip);
    b.add(r(2), r(1), op_imm(dist));
    b.ldr(r(2), r(2), 0);
    b.cmp(r(2), op_reg(r(5)));
    b.bhs(skip);
    b.mov(r(5), op_reg(r(2)));
    b.mov(r(4), op_reg(r(0)));
    b.bind(skip);
    b.add(r(0), r(0), op_imm(1));
    b.cmp(r(0), op_imm(V));
    b.blt(scan);
    // visited[u] = 1
    b.lsl(r(1), r(4), op_imm(2));
    b.add(r(2), r(1), op_imm(visited));
    b.mov_imm(r(3), 1);
    b.str_(r(3), r(2), 0);
    // relax all neighbours: nd = dist[u] + adj[u][k]; branchless min into dist[k]
    b.mov_imm(r(0), 0); // k
    b.mov_imm(r(6), V * 4);
    b.mul(r(7), r(4), r(6)); // u * V * 4
    let relax = b.here();
    b.lsl(r(1), r(0), op_imm(2));
    b.add(r(2), r(7), op_reg(r(1)));
    b.add(r(2), r(2), op_imm(adj));
    b.ldr(r(2), r(2), 0); // w(u,k)
    b.add(r(2), r(2), op_reg(r(5))); // nd = dist[u] + w
    b.add(r(3), r(1), op_imm(dist));
    b.ldr(r(8), r(3), 0); // dist[k]
                          // min(nd, dist[k]) via sign-mask idiom
    b.sub(r(9), r(2), op_reg(r(8)));
    b.asr(r(12), r(9), op_imm(31));
    b.and_(r(9), r(9), op_reg(r(12)));
    b.add(r(8), r(8), op_reg(r(9)));
    b.str_(r(8), r(3), 0);
    b.add(r(0), r(0), op_imm(1));
    b.cmp(r(0), op_imm(V));
    b.blt(relax);
    b.subs(r(11), r(11), op_imm(1));
    b.bne(round);

    b.subs(r(10), r(10), op_imm(1));
    b.bne(outer);
    b.halt();
    b.build().expect("dijkstra is well-formed")
}

/// SHA-style mixing rounds: `a = ror(a, 7) ^ b; b = b + a; c = c ^ (a >> 3);
/// a = a + c` — a strictly serial chain mixing shifts, XORs and adds with
/// different per-op slack, the textbook slack-accumulation target.
#[must_use]
pub fn sha_mix(outer_iters: u32) -> Program {
    const ROUNDS: u32 = 512;
    let mut b = ProgramBuilder::new();
    let input = b.alloc_words(&xorshift_words(16, 0x5AA5));

    b.mov_imm(r(10), outer_iters);
    let outer = b.here();
    b.mov_imm(r(0), input);
    b.ldr(r(1), r(0), 0); // a
    b.ldr(r(2), r(0), 4); // b
    b.ldr(r(3), r(0), 8); // c
    b.mov_imm(r(4), ROUNDS);
    let round = b.here();
    b.ror(r(1), r(1), op_imm(7));
    b.eor(r(1), r(1), op_reg(r(2)));
    b.add(r(2), r(2), op_reg(r(1)));
    b.lsr(r(5), r(1), op_imm(3));
    b.eor(r(3), r(3), op_reg(r(5)));
    b.add(r(1), r(1), op_reg(r(3)));
    b.subs(r(4), r(4), op_imm(1));
    b.bne(round);
    b.str_(r(1), r(0), 12);
    b.subs(r(10), r(10), op_imm(1));
    b.bne(outer);
    b.halt();
    b.build().expect("sha_mix is well-formed")
}

/// Dot product with a VMLA accumulation chain over `i8` lanes — maximal
/// type slack on the accumulate adder.
#[must_use]
pub fn dot_i8(outer_iters: u32) -> Program {
    const N: u32 = 1024;
    let mut b = ProgramBuilder::new();
    let bytes: Vec<u8> = (0..N).map(|i| (i % 23) as u8).collect();
    let a_addr = b.alloc_data(&bytes);
    let c_addr = b.alloc_data(&bytes);

    b.mov_imm(r(10), outer_iters);
    let outer = b.here();
    b.mov_imm(r(0), a_addr);
    b.mov_imm(r(1), c_addr);
    b.mov_imm(r(2), N / 8);
    b.vdup(SimdType::I8, v(2), 0);
    let top = b.here();
    b.vldr(v(0), r(0), 0);
    b.vldr(v(1), r(1), 0);
    b.simd(
        redsoc_isa::opcode::SimdOp::Vmla,
        SimdType::I8,
        v(2),
        v(0),
        v(1),
    );
    b.add(r(0), r(0), op_imm(8));
    b.add(r(1), r(1), op_imm(8));
    b.subs(r(2), r(2), op_imm(1));
    b.bne(top);
    b.subs(r(10), r(10), op_imm(1));
    b.bne(outer);
    b.halt();
    b.build().expect("dot_i8 is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsoc_isa::interp::Interpreter;
    use redsoc_isa::program::r;

    #[test]
    fn qsort_actually_sorts() {
        let p = qsort(1);
        let mut i = Interpreter::new(&p);
        while i.step().is_some() {}
        assert!(i.is_halted(), "{:?}", i.error());
        // The scratch region (second allocation, 96 words) must be sorted.
        let scratch = p.data().iter().map(|(a, _)| *a).max().unwrap();
        let mut prev = 0u32;
        for k in 0..96u32 {
            let v = i.mem_u32(scratch + k * 4);
            assert!(v >= prev, "position {k}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn dijkstra_produces_finite_distances() {
        let p = dijkstra(1);
        let mut i = Interpreter::new(&p);
        while i.step().is_some() {}
        assert!(i.is_halted(), "{:?}", i.error());
        // dist is the second allocation (after the adjacency matrix).
        let dist = p.data()[1].0;
        for k in 0..24u32 {
            let d = i.mem_u32(dist + k * 4);
            assert!(d <= 0x00FF_FFFF, "vertex {k} unreachable: {d:#x}");
        }
        assert_eq!(i.mem_u32(dist), 0, "source distance is zero");
    }

    #[test]
    fn sha_mix_is_deterministic_and_serial() {
        let p1 = sha_mix(1);
        let p2 = sha_mix(1);
        let run = |p: &Program| {
            let mut i = Interpreter::new(p);
            while i.step().is_some() {}
            i.reg(r(1))
        };
        assert_eq!(run(&p1), run(&p2));
        assert_ne!(run(&p1), 0);
    }

    #[test]
    fn all_extended_kernels_halt() {
        for (name, p) in [
            ("qsort", qsort(1)),
            ("dijkstra", dijkstra(1)),
            ("sha_mix", sha_mix(1)),
            ("dot_i8", dot_i8(1)),
        ] {
            let n = Interpreter::new(&p).count();
            assert!(n > 700, "{name} too short: {n}");
            assert!(n < 5_000_000, "{name} runaway: {n}");
        }
    }
}
