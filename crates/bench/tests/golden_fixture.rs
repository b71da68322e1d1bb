//! Cross-scheduler golden-sweep equivalence.
//!
//! The committed baseline `BENCH_sweep.json` at the repository root is the
//! full (benchmark × core × mode) sweep at trace length 2000, matching the
//! pre-refactor monolithic simulator cell for cell. Re-running the sweep through the
//! staged pipeline + `Scheduler`-trait decomposition must reproduce it
//! **byte-identically** after canonicalisation (wall-clock, thread count
//! and resume provenance neutralised) — for every scheduler mode
//! (baseline, ReDSOC, MOS, TS) on every Table I core preset. Any
//! cycle-count, IPC, stall-attribution, speedup or status drift in any of
//! the 192 cells fails this test.
//!
//! It is also the `redsoc perfgate` runtime baseline, so a re-baseline
//! after an *intentional* behaviour change touches this one file:
//!
//! ```text
//! cargo build --release
//! ./target/release/redsoc bench --threads 1 --len 2000 --out BENCH_sweep.json
//! ```

use redsoc_bench::grid::{canonicalize_sweep, sweep_json, Mode};
use redsoc_bench::json::Json;
use redsoc_bench::runner::run_full_sweep;
use redsoc_bench::TraceCache;

/// Must match the `--len` the fixture was captured with.
const GOLDEN_LEN: u64 = 2000;

const GOLDEN: &str = include_str!("../../../BENCH_sweep.json");

#[test]
fn sweep_matches_pre_refactor_golden_fixture() {
    let golden = canonicalize_sweep(&Json::parse(GOLDEN).expect("fixture parses"));

    let cache = TraceCache::new(GOLDEN_LEN);
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(8));
    let grid = run_full_sweep(&cache, &Mode::all(), threads);
    assert!(grid.fully_ok(), "golden sweep must complete every cell");
    let fresh = canonicalize_sweep(&sweep_json(&grid, GOLDEN_LEN));

    if golden != fresh {
        // Point at the first differing row so a regression is debuggable
        // straight from the test log.
        let ga = golden.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
        let fa = fresh.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
        assert_eq!(ga.len(), fa.len(), "job count drifted");
        for (i, (g, f)) in ga.iter().zip(fa.iter()).enumerate() {
            assert_eq!(g, f, "job row #{i} diverged from the golden fixture");
        }
        panic!("sweep-level fields diverged from the golden fixture");
    }
}

/// Scan-equivalence property: the event-driven wakeup must produce the
/// *same event stream* as the legacy O(window) full scan it replaced —
/// not just the same end-of-run report. Every fuzz-generated program is
/// run through both paths (`Simulator::with_scan_wakeup`, compiled in via
/// the dev-only `scan-wakeup` feature) under every scheduler flavour,
/// including *unskewed* ReDSOC so the GP-mispeculation deferral path is
/// exercised, and the `(cycle, event)` sequences are compared entry by
/// entry. This is the strongest cycle-identicality oracle in the suite:
/// a ready-set entry waking one cycle late would shift a `SelectGrant`
/// even if the final cycle count happened to coincide.
#[test]
fn event_driven_wakeup_matches_full_scan_event_stream() {
    use redsoc_core::config::{CoreConfig, SchedulerConfig};
    use redsoc_core::events::VecSink;
    use redsoc_core::pipeline::Simulator;
    use redsoc_isa::interp::Interpreter;
    use redsoc_prng::SmallRng;
    use redsoc_verify::gen::{gen_case, GenKnobs};

    let scheds: Vec<(&str, SchedulerConfig)> = vec![
        ("baseline", SchedulerConfig::baseline()),
        ("redsoc", SchedulerConfig::redsoc()),
        ("redsoc-unskewed", {
            let mut s = SchedulerConfig::redsoc();
            s.skewed_select = false; // reaches GP-mispeculation recovery
            s
        }),
        ("mos", SchedulerConfig::mos()),
    ];
    let cores = CoreConfig::table1();

    let mut rng = SmallRng::seed_from_u64(0xC0DE_5EED);
    for case in 0..48u64 {
        let knobs = GenKnobs::sampled(&mut rng, 48);
        let program = gen_case(&mut rng, &knobs)
            .build()
            .unwrap_or_else(|e| panic!("case {case} builds: {e}"));
        let trace = Interpreter::new(&program)
            .run(4096)
            .unwrap_or_else(|e| panic!("case {case} must not fault: {e:?}"));
        let core = cores[(case % 3) as usize].clone();
        for (name, sched) in &scheds {
            let config = core.clone().with_sched(sched.clone());
            let mut scan = VecSink::default();
            let mut event_driven = VecSink::default();
            Simulator::new(config.clone())
                .expect("config valid")
                .with_scan_wakeup()
                .run_events(trace.iter().copied(), &mut scan)
                .unwrap_or_else(|e| panic!("case {case}/{name}: scan run failed: {e}"));
            Simulator::new(config)
                .expect("config valid")
                .run_events(trace.iter().copied(), &mut event_driven)
                .unwrap_or_else(|e| panic!("case {case}/{name}: event run failed: {e}"));
            if scan.events != event_driven.events {
                let i = scan
                    .events
                    .iter()
                    .zip(&event_driven.events)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| scan.events.len().min(event_driven.events.len()));
                panic!(
                    "case {case} ({}/{name}): event streams diverge at index {i}:\n\
                     scan:         {:?}\n\
                     event-driven: {:?}\n\
                     ({} vs {} events total)",
                    core.name,
                    scan.events.get(i),
                    event_driven.events.get(i),
                    scan.events.len(),
                    event_driven.events.len(),
                );
            }
        }
    }
}
