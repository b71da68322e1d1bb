//! Replay of shrunk fuzzer repros committed under `tests/fixtures/repros/`.
//!
//! Every `.asm` file in that directory is a divergence the fuzzer found,
//! shrunk, and emitted (see `crates/verify`). Each repro records the core
//! configuration it diverged on in a `; core: <name>` header comment.
//! This suite re-assembles each file and re-runs the lockstep oracle:
//!
//! - under the **clean** oracle, every repro must pass — the committed
//!   fixtures document *fixed* (or injected-fault-only) divergences, so a
//!   failure here means a real regression in a scheduler or the pipeline;
//! - repros whose recorded divergence blames `[redsoc]` must still
//!   reproduce under the inverted-skew fault injection, proving the
//!   fixture actually exercises the invariant it was shrunk for.
//!
//! The suite also guards the oracle's one shortcut: TS shares the
//! baseline run, which holds only while `TsScheduler` drives the
//! pipeline exactly as the baseline scheduler does.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::TestRng;
use redsoc::core::sched::ts::TsScheduler;
use redsoc::isa::asm::assemble;
use redsoc::isa::interp::Interpreter;
use redsoc::mem::MemModelConfig;
use redsoc::prelude::*;
use redsoc::verify::gen::{gen_case, GenKnobs};
use redsoc::verify::oracle::{check_program, Divergence, OracleConfig, SchedKind, MAX_DYN_OPS};
use redsoc::verify::{case_seed, core_by_name, fuzz_contended, mem_model_by_label, FuzzConfig};

/// All committed repro files, sorted for deterministic test order.
fn repro_files() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/repros");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("tests/fixtures/repros exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "asm"))
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no repro fixtures found in {}",
        dir.display()
    );
    files
}

/// Parses a `; key: value` header comment out of a repro file.
fn header_field<'a>(source: &'a str, key: &str) -> Option<&'a str> {
    let prefix = format!("; {key}:");
    source
        .lines()
        .take_while(|l| l.starts_with(';'))
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .map(str::trim)
}

/// The core a repro recorded, including its memory model. Repros from
/// before the memory-port refactor have no `; mem-model:` header and
/// replay under the classic (then-only) hierarchy.
fn recorded_core(source: &str, path: &Path) -> redsoc::core::CoreConfig {
    let core = core_by_name(header_field(source, "core").expect("core header"))
        .unwrap_or_else(|| panic!("{}: unknown core in header", path.display()));
    match header_field(source, "mem-model") {
        Some(label) => core.with_mem_model(
            mem_model_by_label(label)
                .unwrap_or_else(|| panic!("{}: unknown mem-model `{label}`", path.display())),
        ),
        None => core,
    }
}

#[test]
fn repro_headers_name_a_known_core() {
    for path in repro_files() {
        let source = fs::read_to_string(&path).expect("repro is readable");
        let core = header_field(&source, "core")
            .unwrap_or_else(|| panic!("{}: missing `; core:` header", path.display()));
        assert!(
            core_by_name(core).is_some(),
            "{}: unknown core `{core}` in header",
            path.display()
        );
        assert!(
            header_field(&source, "divergence").is_some(),
            "{}: missing `; divergence:` header",
            path.display()
        );
    }
}

#[test]
fn repros_pass_the_clean_oracle() {
    for path in repro_files() {
        let source = fs::read_to_string(&path).expect("repro is readable");
        let core = recorded_core(&source, &path);
        let program = assemble(&source)
            .unwrap_or_else(|e| panic!("{}: does not assemble: {e}", path.display()));
        let ok = check_program(&program, &OracleConfig::new(core))
            .unwrap_or_else(|d| panic!("{}: regressed under clean oracle: {d}", path.display()));
        assert!(ok.dyn_ops > 0, "{}: repro executed nothing", path.display());
    }
}

#[test]
fn redsoc_repros_still_diverge_under_fault_injection() {
    let mut exercised = 0;
    for path in repro_files() {
        let source = fs::read_to_string(&path).expect("repro is readable");
        let divergence = header_field(&source, "divergence").expect("divergence header");
        if !divergence.contains("[redsoc]") {
            continue;
        }
        exercised += 1;
        let core = recorded_core(&source, &path);
        let program = assemble(&source).expect("repro assembles");
        let mut cfg = OracleConfig::new(core);
        cfg.sabotage_redsoc = true;
        let div = check_program(&program, &cfg).expect_err(
            "repro must still trip the sabotaged scheduler — if the fixture no longer \
             exercises the invariant, regenerate it with `redsoc fuzz`",
        );
        assert_eq!(
            div.sched(),
            Some(SchedKind::Redsoc),
            "{}: wrong policy blamed: {div}",
            path.display()
        );
        assert!(
            matches!(div, Divergence::TimingViolation { .. }),
            "{}: expected a timing violation, got: {div}",
            path.display()
        );
    }
    assert!(
        exercised > 0,
        "no repro fixture exercises the redsoc invariants"
    );
}

/// The oracle simulates baseline and TS once between them
/// (`SchedKind::Ts`): TS is the baseline scheduler under a shortened
/// clock the oracle never applies. This fails the day `TsScheduler`
/// changes what the pipeline does. Every committed repro and 200
/// generated cases must give identical event streams and reports under
/// both schedulers, on every core and under both memory models.
#[test]
fn ts_scheduler_reproduces_the_baseline_run() {
    let mut programs: Vec<(String, Program)> = repro_files()
        .iter()
        .map(|path| {
            let source = fs::read_to_string(path).expect("repro is readable");
            let program = assemble(&source).expect("repro assembles");
            let name = path.file_name().expect("repro file name");
            (name.to_string_lossy().into_owned(), program)
        })
        .collect();
    let fuzz = FuzzConfig::new(1, 200);
    for case in 0..fuzz.cases {
        let mut rng = TestRng::seed_from_u64(case_seed(fuzz.seed, case));
        let knobs = GenKnobs::sampled(&mut rng, fuzz.max_instrs);
        let program = gen_case(&mut rng, &knobs).build().expect("case lowers");
        programs.push((format!("seed 1 case {case}"), program));
    }
    for (name, program) in &programs {
        let trace: Vec<DynOp> = Interpreter::new(program)
            .run(MAX_DYN_OPS)
            .expect("program runs")
            .into_iter()
            .collect();
        for core_name in ["big", "medium", "small"] {
            for mem in [MemModelConfig::Classic, fuzz_contended()] {
                let core = core_by_name(core_name)
                    .expect("known core")
                    .with_mem_model(mem)
                    .with_sched(SchedulerConfig::baseline());
                let run = |sim: Result<Simulator, SimError>| {
                    let mut sink = VecSink::new();
                    let report = sim
                        .and_then(|s| s.run_events(trace.iter().copied(), &mut sink))
                        .unwrap_or_else(|e| panic!("{name} on {core_name}: {e}"));
                    (report, sink.events)
                };
                let baseline = run(Simulator::new(core.clone()));
                let ts = run(Simulator::with_scheduler(core, Box::new(TsScheduler)));
                assert!(
                    baseline == ts,
                    "{name} on {core_name} ({mem:?}): TS diverged from the baseline run"
                );
            }
        }
    }
}
