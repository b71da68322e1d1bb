//! Shape-level checks of the paper's headline claims, at reduced trace
//! lengths so they run in CI time. `RESULTS.json` holds the full-scale
//! numbers, and `EXPERIMENTS.md` renders them.
//!
//! NOTE on the seed's red suite: this file was failing in the seed only
//! because the workspace could not build at all offline (the `rand` /
//! `proptest` / `criterion` registry dependencies are unfetchable here);
//! no claim threshold was miscalibrated. With those dependencies replaced
//! by in-repo crates the simulated numbers are unchanged and every
//! assertion passes as written.

use redsoc::bench::DEFAULT_TRACE_LEN;
use redsoc::core::sched::ts::run_ts;
use redsoc::prelude::*;
use redsoc::timing::width_predictor;

const LEN: u64 = 30_000;

fn class_mean_speedup(class: BenchClass, core: &CoreConfig) -> f64 {
    let benches = Benchmark::of_class(class);
    let mut total = 0.0;
    for bench in &benches {
        let trace = bench.trace(LEN);
        let base = simulate(trace.iter().copied(), core.clone()).expect("baseline");
        let red = simulate(
            trace.iter().copied(),
            core.clone().with_sched(SchedulerConfig::redsoc()),
        )
        .expect("redsoc");
        total += red.speedup_over(&base);
    }
    total / benches.len() as f64
}

/// §VI-C: MiBench shows the largest gains; all class means are positive on
/// the big core.
#[test]
fn mibench_gains_most_and_all_classes_gain() {
    let big = CoreConfig::big();
    let spec = class_mean_speedup(BenchClass::Spec, &big);
    let mib = class_mean_speedup(BenchClass::MiBench, &big);
    let ml = class_mean_speedup(BenchClass::Ml, &big);
    assert!(mib > spec, "MiBench ({mib:.3}) must beat SPEC ({spec:.3})");
    assert!(mib > 1.05, "MiBench mean speedup should be large: {mib:.3}");
    assert!(spec > 1.0, "SPEC mean must be positive: {spec:.3}");
    assert!(ml > 1.0, "ML mean must be positive: {ml:.3}");
}

/// §VI-C: "benefits generally increase with size of the core".
#[test]
fn bigger_cores_benefit_more_on_mibench() {
    let big = class_mean_speedup(BenchClass::MiBench, &CoreConfig::big());
    let small = class_mean_speedup(BenchClass::MiBench, &CoreConfig::small());
    assert!(
        big > small,
        "big-core gains ({big:.3}) must exceed small-core gains ({small:.3})"
    );
}

/// §VI-D: ReDSOC outperforms timing speculation (TS) on the MiBench class
/// mean, and is at least competitive with MOS everywhere while strictly
/// better where fusion cannot apply.
#[test]
fn redsoc_beats_the_comparators() {
    let core = CoreConfig::big();
    let mut red_sum = 0.0;
    let mut ts_sum = 0.0;
    let mut mos_sum = 0.0;
    let benches = Benchmark::of_class(BenchClass::MiBench);
    for bench in &benches {
        let trace = bench.trace(LEN);
        let base = simulate(trace.iter().copied(), core.clone()).expect("baseline");
        let red = simulate(
            trace.iter().copied(),
            core.clone().with_sched(SchedulerConfig::redsoc()),
        )
        .expect("redsoc");
        let mos = simulate(
            trace.iter().copied(),
            core.clone().with_sched(SchedulerConfig::mos()),
        )
        .expect("mos");
        let ts = run_ts(&trace, &core, base.cycles, 0.01).expect("ts");
        red_sum += red.speedup_over(&base);
        mos_sum += mos.speedup_over(&base);
        ts_sum += ts.speedup;
    }
    let n = benches.len() as f64;
    let (red, ts, mos) = (red_sum / n, ts_sum / n, mos_sum / n);
    assert!(red > ts, "ReDSOC ({red:.3}) must beat TS ({ts:.3})");
    assert!(
        red >= mos - 0.01,
        "ReDSOC ({red:.3}) must at least match MOS ({mos:.3})"
    );
}

/// §VI-A: transparent sequences average a few operations (the paper
/// reports 4-6; at our trace lengths 2-6 is the expected window), enough
/// to accumulate whole cycles of slack.
#[test]
fn transparent_sequences_have_paper_scale_lengths() {
    let core = CoreConfig::big();
    for bench in [Benchmark::Bitcnt, Benchmark::Crc, Benchmark::Bzip2] {
        let trace = bench.trace(LEN);
        let red = simulate(
            trace.iter().copied(),
            core.clone().with_sched(SchedulerConfig::redsoc()),
        )
        .expect("redsoc");
        let ev = red.chains.weighted_mean();
        assert!(
            (2.0..=8.0).contains(&ev),
            "{}: E[sequence length] {ev:.2} outside the plausible window",
            bench.name()
        );
    }
}

/// §VI-B: last-arrival tag prediction is highly accurate (~1%
/// misprediction; we allow a few % on the worst benchmark).
#[test]
fn tag_prediction_is_accurate() {
    let core = CoreConfig::big();
    let mut rates = Vec::new();
    for bench in Benchmark::paper_set() {
        let trace = bench.trace(LEN);
        let red = simulate(
            trace.iter().copied(),
            core.clone().with_sched(SchedulerConfig::redsoc()),
        )
        .expect("redsoc");
        if red.tag_pred.predictions > 500 {
            rates.push(red.tag_pred.mispredict_rate());
        }
    }
    assert!(!rates.is_empty());
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    assert!(
        mean < 0.06,
        "mean tag misprediction should be a few %: {mean:.4}"
    );
    for r in rates {
        assert!(r < 0.12, "no benchmark should exceed 12%: {r:.4}");
    }
}

/// §II-B: the width predictor's aggressive misprediction rate stays well
/// under 1% on average (the paper reports 0.3-0.4% at 4K entries).
#[test]
fn width_prediction_aggressive_rate_is_small() {
    let core = CoreConfig::big();
    let mut rates = Vec::new();
    for bench in Benchmark::paper_set() {
        let trace = bench.trace(LEN);
        let red = simulate(
            trace.iter().copied(),
            core.clone().with_sched(SchedulerConfig::redsoc()),
        )
        .expect("redsoc");
        if red.width_pred.predictions > 1_000 {
            rates.push(red.width_pred.aggressive_rate());
        }
    }
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    assert!(
        mean < 0.01,
        "mean aggressive rate should be sub-1%: {mean:.4}"
    );
}

/// §II-B: the table size cannot change a prediction in the report. The
/// predictor indexes its table by word-PC modulo the table size. No two
/// word-PCs a paper benchmark commits at the report's trace length share
/// a slot of a 256-entry table, so none share one of any larger
/// power-of-two table either (the paper's 4096 entries included), and
/// every such size predicts alike.
#[test]
fn width_predictor_size_cannot_matter_on_the_paper_set() {
    const SLOTS: u32 = 256;
    let entries = width_predictor::DEFAULT_ENTRIES;
    assert!(entries.is_power_of_two() && entries >= SLOTS as usize);
    for bench in Benchmark::paper_set() {
        let mut owner = [None; SLOTS as usize];
        for op in bench.trace(DEFAULT_TRACE_LEN) {
            let word = op.pc >> 2;
            let slot = owner[(word % SLOTS) as usize].get_or_insert(word);
            assert_eq!(
                *slot,
                word,
                "{}: word-PCs {slot} and {word} share a slot",
                bench.name()
            );
        }
    }
}

/// §V: slack-tracking precision saturates at 3 bits on an arithmetic
/// chain workload (1-2 bits lose most of the benefit).
#[test]
fn three_bits_of_ci_precision_suffice() {
    let trace = Benchmark::Bitcnt.trace(LEN);
    let core = CoreConfig::big();
    let mut cycles = Vec::new();
    for bits in [2u8, 3, 6] {
        let mut s = SchedulerConfig::redsoc();
        s.ci_bits = bits;
        s.threshold_ticks = (1 << bits) - 1;
        let rep = simulate(trace.iter().copied(), core.clone().with_sched(s)).expect("run");
        cycles.push(rep.cycles);
    }
    let c3 = cycles[1] as f64;
    let c6 = cycles[2] as f64;
    assert!(
        (c3 - c6).abs() / c6 < 0.05,
        "3-bit {c3} should be within 5% of 6-bit {c6}"
    );
}

/// Fig. 10 shape: bitcnt is ALU-dominated with almost no memory traffic;
/// omnetpp is memory-heavy; ML kernels have SIMD content.
#[test]
fn operation_mixes_match_the_characterisation() {
    let core = CoreConfig::big();
    let run = |b: Benchmark| {
        let t = b.trace(LEN);
        simulate(t.into_iter(), core.clone()).expect("baseline run")
    };
    let bit = run(Benchmark::Bitcnt);
    let mem_frac = bit.op_mix.fraction(OpCategory::MemHighLatency)
        + bit.op_mix.fraction(OpCategory::MemLowLatency);
    assert!(mem_frac < 0.06, "bitcnt memory fraction {mem_frac:.3}");
    let alu_hs = bit.op_mix.fraction(OpCategory::AluHighSlack);
    assert!(alu_hs > 0.5, "bitcnt high-slack fraction {alu_hs:.3}");

    let omnet = run(Benchmark::Omnetpp);
    let mem_frac = omnet.op_mix.fraction(OpCategory::MemHighLatency)
        + omnet.op_mix.fraction(OpCategory::MemLowLatency);
    assert!(mem_frac > 0.3, "omnetpp memory fraction {mem_frac:.3}");

    let conv = run(Benchmark::Conv);
    assert!(
        conv.op_mix.fraction(OpCategory::Simd) > 0.2,
        "conv SIMD content"
    );
}
