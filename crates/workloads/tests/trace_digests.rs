//! Every benchmark trace is pinned byte for byte: an FNV-1a digest over
//! the `Debug` text of every op (sequence number, PC, instruction,
//! effective address, branch outcome and target, effective width) of
//! `Benchmark::trace(len)`, for all twenty benchmarks at two lengths.
//!
//! Every simulated number starts from these traces, so a change to trace
//! generation that is meant to be faster, not different, must leave this
//! table as it is. A change that means to alter a trace (a new kernel,
//! an exact-length cut) updates the table from the `computed` side of
//! the failure message, and says so.

use std::fmt::Write as _;

use redsoc_workloads::Benchmark;

/// `(name, ops, digest)` at len 2,000, then at len 100,000.
const PINNED: [(&str, [(usize, u64); 2]); 20] = [
    (
        "xalanc",
        [(2001, 0x203fe74230a4c8a7), (100001, 0xdf8359a355e1abdb)],
    ),
    (
        "bzip2",
        [(2001, 0xbbf83f37fec7036f), (100001, 0x72ea36cc0ecb6543)],
    ),
    (
        "omnetpp",
        [(2001, 0xbf0ed58fa8003516), (100001, 0x3e314685eb8f4b24)],
    ),
    (
        "gromacs",
        [(2001, 0xe0073e429f3af434), (100001, 0xb4b3fe1aac8e5014)],
    ),
    (
        "soplex",
        [(2001, 0x98645b1055d7b4fc), (100001, 0x45a045ad1035fc47)],
    ),
    (
        "corners",
        [(40641, 0xe728e9167b64ec05), (121919, 0xd3fa9333fb240777)],
    ),
    (
        "strsearch",
        [(12129, 0xa4d6d61ebbe6cd48), (109145, 0xb81975ac43a01c40)],
    ),
    (
        "gsm",
        [(2806, 0x7d539f2879ff6fb2), (100946, 0xbfd1d297c6cac1b3)],
    ),
    (
        "crc",
        [(5639, 0xc14f8b044decd594), (101468, 0x02c264fb875b83ae)],
    ),
    (
        "bitcnt",
        [(26059, 0x5134afa8c7650f20), (104230, 0x6c22fd11ab77f442)],
    ),
    (
        "ACT",
        [(114038, 0x85732a0aea06ef7f), (114038, 0x85732a0aea06ef7f)],
    ),
    (
        "POOL0",
        [(586806, 0x6882d1e6771fb101), (586806, 0x6882d1e6771fb101)],
    ),
    (
        "CONV",
        [(481320, 0x7d43db6ccaf1bb39), (481320, 0x7d43db6ccaf1bb39)],
    ),
    (
        "POOL1",
        [(205116, 0x034f8320b79c657b), (205116, 0x034f8320b79c657b)],
    ),
    (
        "SOFTMAX",
        [(2007, 0x88ce3180edab3e99), (100252, 0x09f3f38faa76aa25)],
    ),
    (
        "MLMAC",
        [(2708, 0x0ea7bb0dbd3b6f33), (100124, 0xd9cb6f4922ae0798)],
    ),
    (
        "qsort",
        [(26219, 0xa78220c753bacc6d), (104870, 0xa3d3120b72542422)],
    ),
    (
        "dijkstra",
        [(15111, 0xcf4e9b2ec6df97dd), (105765, 0xcbb29f5e459acef9)],
    ),
    (
        "sha_mix",
        [(4106, 0xa40b202cf0b20f53), (102602, 0x89ca1c22716d67e1)],
    ),
    (
        "dot_i8",
        [(2708, 0x969f3f083b4aba31), (100124, 0x1f5ecb5dc2d7544e)],
    ),
];

const LENS: [u64; 2] = [2_000, 100_000];

/// FNV-1a (64-bit) over the `Debug` text of every op, one op at a time.
fn digest(bench: Benchmark, len: u64) -> (usize, u64) {
    let trace = bench.trace(len);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut text = String::new();
    for op in &trace {
        text.clear();
        write!(text, "{op:?}").expect("writing to a String cannot fail");
        for b in text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    (trace.len(), h)
}

#[test]
fn every_benchmark_trace_matches_its_pinned_digest() {
    let computed: Vec<(&str, [(usize, u64); 2])> = Benchmark::all()
        .into_iter()
        .chain(Benchmark::extended())
        .map(|b| (b.name(), LENS.map(|len| digest(b, len))))
        .collect();
    assert_eq!(computed, PINNED, "left: computed, right: pinned");
}
