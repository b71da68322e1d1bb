//! # redsoc-verify — differential fuzzing and lockstep verification
//!
//! The trust story for the ReDSOC reproduction: the timing claims of
//! `redsoc-core` only mean something if every scheduler agrees on *what*
//! the program did. This crate closes that loop with a three-part
//! harness, surfaced as `redsoc fuzz`:
//!
//! - [`gen`] — a seeded random-program generator over the full micro-ISA,
//!   valid by construction (bounded memory, guarded divides, bounded
//!   loops) and biased toward the slack-accumulating ALU chains the paper
//!   cares about;
//! - [`oracle`] — a lockstep differential oracle running each program
//!   through the functional interpreter and through the pipeline under
//!   every scheduling policy, comparing committed streams, final
//!   architectural state and per-run timing invariants;
//! - [`shrink`] — a delta-debugging shrinker that reduces any diverging
//!   program to a locally minimal repro, emitted as a standalone `.asm`
//!   file that re-assembles to the exact failing case.
//!
//! [`run_fuzz`] ties the three together deterministically: the same seed
//! always generates, checks and shrinks the same cases, so a CI failure
//! is reproducible from its log line alone.

#![warn(missing_docs)]

pub mod gen;
pub mod oracle;
pub mod shrink;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use redsoc_core::CoreConfig;
use redsoc_isa::disasm::disassemble;
use redsoc_mem::{ContendedConfig, MemModelConfig};
use redsoc_prng::SmallRng;

use gen::{FuzzProgram, GenKnobs};
use oracle::{check_program, Divergence, OracleConfig, SchedKind};

/// Which memory model(s) a campaign's pipeline runs use.
///
/// The oracle's checks are all timing-model-agnostic (committed streams,
/// architectural digests, stall-partition and ordering invariants), so
/// the same case is meaningful under either hierarchy; `Both` alternates
/// per case index to cover the contended rejection/retry machinery and
/// the classic path in one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemModelAxis {
    /// Fixed-latency hierarchy for every case.
    Classic,
    /// Contended hierarchy for every case.
    Contended,
    /// Alternate per case: even indices classic, odd contended.
    #[default]
    Both,
}

impl MemModelAxis {
    /// Stable CLI label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MemModelAxis::Classic => "classic",
            MemModelAxis::Contended => "contended",
            MemModelAxis::Both => "both",
        }
    }

    /// Parse a `--mem-model` CLI value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "classic" => Some(MemModelAxis::Classic),
            "contended" => Some(MemModelAxis::Contended),
            "both" => Some(MemModelAxis::Both),
            _ => None,
        }
    }

    /// The concrete model a given case runs under.
    #[must_use]
    pub fn model_for(self, case: u64) -> MemModelConfig {
        match self {
            MemModelAxis::Classic => MemModelConfig::Classic,
            MemModelAxis::Contended => fuzz_contended(),
            MemModelAxis::Both => {
                if case.is_multiple_of(2) {
                    MemModelConfig::Classic
                } else {
                    fuzz_contended()
                }
            }
        }
    }
}

/// The contended configuration fuzzing runs under: deliberately tighter
/// than the A57-class default (2 MSHRs, single-ported caches, slow DRAM)
/// so short generated programs actually exercise MSHR rejection, merge
/// and queueing — the default's 8 MSHRs would almost never fill in 48
/// instructions.
#[must_use]
pub fn fuzz_contended() -> MemModelConfig {
    MemModelConfig::Contended(ContendedConfig {
        mshrs: 2,
        l1_ports: 1,
        l2_ports: 1,
        dram_interval: 8,
    })
}

/// Parameters of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every case derives its own stream from it.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: u64,
    /// Static instruction budget per generated program. The oracle
    /// executes at most [`oracle::MAX_DYN_OPS`] ops of a case, so a
    /// larger budget only generates ops that never run.
    pub max_instrs: usize,
    /// Scheduling policies every case runs under.
    pub scheds: Vec<SchedKind>,
    /// Memory model(s) the pipeline runs use.
    pub mem_models: MemModelAxis,
    /// Inject the inverted-skew fault into the ReDSOC runs (harness
    /// self-test).
    pub sabotage_redsoc: bool,
    /// Directory to write shrunk `.asm` repros into (created if absent).
    pub repro_dir: Option<PathBuf>,
}

impl FuzzConfig {
    /// A campaign with the default shape: all schedulers, both memory
    /// models, 48-instruction programs, no sabotage, no repro directory.
    #[must_use]
    pub fn new(seed: u64, cases: u64) -> Self {
        FuzzConfig {
            seed,
            cases,
            max_instrs: 48,
            scheds: SchedKind::ALL.to_vec(),
            mem_models: MemModelAxis::Both,
            sabotage_redsoc: false,
            repro_dir: None,
        }
    }
}

/// One diverging case, shrunk and rendered.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Case index within the campaign.
    pub case: u64,
    /// The derived per-case seed (sufficient to regenerate).
    pub case_seed: u64,
    /// Core configuration name the case ran on.
    pub core: &'static str,
    /// Memory-model label the case ran under.
    pub mem_model: &'static str,
    /// The divergence the *shrunk* program still exhibits.
    pub divergence: Divergence,
    /// The shrunk program.
    pub shrunk: FuzzProgram,
    /// Standalone assembly repro (header comments + program).
    pub asm: String,
    /// Where the repro was written, when a repro directory was given.
    pub repro_path: Option<PathBuf>,
}

/// Outcome of a campaign.
#[derive(Debug, Clone)]
pub struct FuzzSummary {
    /// Cases generated and checked.
    pub cases_run: u64,
    /// Total dynamic instructions executed across clean cases.
    pub dyn_ops: u64,
    /// Clean cases the interpreter stopped at [`oracle::MAX_DYN_OPS`]
    /// before `halt`: only that prefix of each was checked.
    pub cut_cases: u64,
    /// Diverging cases, shrunk.
    pub failures: Vec<FuzzFailure>,
}

/// Look up a Table I core configuration by its name.
#[must_use]
pub fn core_by_name(name: &str) -> Option<CoreConfig> {
    CoreConfig::table1().into_iter().find(|c| c.name == name)
}

/// Look up the memory model a repro header's `; mem-model:` label names.
/// `contended` maps to [`fuzz_contended`] — the exact configuration the
/// campaign ran, so replays are faithful.
#[must_use]
pub fn mem_model_by_label(label: &str) -> Option<MemModelConfig> {
    match label {
        "classic" => Some(MemModelConfig::Classic),
        "contended" => Some(fuzz_contended()),
        _ => None,
    }
}

/// The per-case seed: a splitmix-style mix of the master seed and case
/// index, so cases are independent and any one is regenerable alone.
#[must_use]
pub fn case_seed(master: u64, case: u64) -> u64 {
    master.wrapping_add((case + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The core a given case runs on: cycle through Table I so all three
/// configurations are exercised.
#[must_use]
pub fn case_core(case: u64) -> CoreConfig {
    let [s, m, b] = CoreConfig::table1();
    match case % 3 {
        0 => b,
        1 => s,
        _ => m,
    }
}

/// Render a shrunk failure as a standalone `.asm` repro. The header
/// comments carry everything needed to rerun the case: the campaign and
/// case seeds, the core name (parsed back by the regression replayer)
/// and the divergence observed.
///
/// # Errors
///
/// Returns an error string if the program cannot be rendered (a shrinker
/// bug — generator output is always disassemblable).
pub fn render_repro(
    failure_case: u64,
    case_seed: u64,
    core: &str,
    mem_model: &str,
    divergence: &Divergence,
    program: &FuzzProgram,
) -> Result<String, String> {
    let built = program.build().map_err(|e| e.to_string())?;
    let body = disassemble(&built).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "; redsoc fuzz repro (auto-shrunk)");
    let _ = writeln!(out, "; case: {failure_case}  case-seed: {case_seed:#x}");
    let _ = writeln!(out, "; core: {core}");
    let _ = writeln!(out, "; mem-model: {mem_model}");
    for line in divergence.to_string().lines() {
        let _ = writeln!(out, "; divergence: {line}");
    }
    out.push_str(&body);
    Ok(out)
}

fn emit_repro(dir: &Path, failure: &FuzzFailure) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("repro-case{:04}.asm", failure.case));
    std::fs::write(&path, &failure.asm)?;
    Ok(path)
}

/// Run a fuzzing campaign: generate `cfg.cases` programs, check each
/// with the lockstep oracle, shrink every divergence and (optionally)
/// write repros to disk. Deterministic in everything but the repro
/// directory's filesystem side effects.
///
/// `progress` is called once per case with a short status line (the CLI
/// streams it; tests pass a sink).
///
/// # Errors
///
/// Returns an I/O error only from repro emission.
pub fn run_fuzz(cfg: &FuzzConfig, mut progress: impl FnMut(&str)) -> std::io::Result<FuzzSummary> {
    let mut summary = FuzzSummary {
        cases_run: 0,
        dyn_ops: 0,
        cut_cases: 0,
        failures: Vec::new(),
    };
    for case in 0..cfg.cases {
        let cs = case_seed(cfg.seed, case);
        let mut rng = SmallRng::seed_from_u64(cs);
        let knobs = GenKnobs::sampled(&mut rng, cfg.max_instrs);
        let program = gen::gen_case(&mut rng, &knobs);
        let mem_model = cfg.mem_models.model_for(case);
        let mem_label = mem_model.label();
        let core = case_core(case).with_mem_model(mem_model);
        let core_name = core.name;
        let oracle_cfg = OracleConfig {
            core,
            scheds: cfg.scheds.clone(),
            sabotage_redsoc: cfg.sabotage_redsoc,
        };
        let outcome = check_fuzz_program(&program, &oracle_cfg);
        summary.cases_run += 1;
        match outcome {
            Ok(ok) => {
                summary.dyn_ops += ok.dyn_ops;
                summary.cut_cases += u64::from(ok.cut);
                progress(&format!(
                    "case {case:4}  core {core_name:6}  mem {mem_label:9}  {:4} dyn ops  ok",
                    ok.dyn_ops
                ));
            }
            Err(div) => {
                progress(&format!(
                    "case {case:4}  core {core_name:6}  mem {mem_label:9}  DIVERGED: {div}"
                ));
                // Pin shrinking to the original divergence class so an
                // edit that introduces an unrelated failure (e.g. a
                // faulting divide after its guard is deleted) does not
                // hijack the search.
                let shrunk = shrink::shrink(&program, |p| {
                    check_fuzz_program(p, &oracle_cfg)
                        .err()
                        .is_some_and(|d| d.same_class(&div))
                });
                // Re-derive the divergence the shrunk form exhibits (the
                // detail strings may differ; the class cannot).
                let final_div = match check_fuzz_program(&shrunk, &oracle_cfg) {
                    Err(d) => d,
                    Ok(_) => div, // unreachable: shrink preserves failure
                };
                progress(&format!(
                    "case {case:4}  shrunk to {} instructions",
                    shrunk.op_count()
                ));
                let asm = render_repro(case, cs, core_name, mem_label, &final_div, &shrunk)
                    .unwrap_or_else(|e| format!("; repro rendering failed: {e}\n"));
                let mut failure = FuzzFailure {
                    case,
                    case_seed: cs,
                    core: core_name,
                    mem_model: mem_label,
                    divergence: final_div,
                    shrunk,
                    asm,
                    repro_path: None,
                };
                if let Some(dir) = &cfg.repro_dir {
                    failure.repro_path = Some(emit_repro(dir, &failure)?);
                }
                summary.failures.push(failure);
            }
        }
    }
    Ok(summary)
}

/// Check one [`FuzzProgram`]: lower it and run the oracle. A program
/// that fails to lower counts as a divergence (shrinker edits must keep
/// programs buildable; if one does not, that is itself a bug worth
/// surfacing, not a silently skipped candidate).
fn check_fuzz_program(
    program: &FuzzProgram,
    cfg: &OracleConfig,
) -> Result<oracle::CaseOk, Divergence> {
    let built = program.build().map_err(|e| Divergence::ExecFault {
        error: format!("program failed to lower: {e}"),
    })?;
    check_program(&built, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsoc_isa::asm::assemble;

    #[test]
    fn clean_campaign_has_no_failures_and_is_reproducible() {
        let cfg = FuzzConfig {
            max_instrs: 32,
            ..FuzzConfig::new(42, 12)
        };
        let mut lines_a = Vec::new();
        let a = run_fuzz(&cfg, |l| lines_a.push(l.to_string())).expect("no io");
        assert_eq!(a.cases_run, 12);
        assert!(
            a.failures.is_empty(),
            "clean schedulers must agree: {:?}",
            a.failures
                .iter()
                .map(|f| f.divergence.clone())
                .collect::<Vec<_>>()
        );
        assert!(a.dyn_ops > 0);
        let mut lines_b = Vec::new();
        let b = run_fuzz(&cfg, |l| lines_b.push(l.to_string())).expect("no io");
        assert_eq!(lines_a, lines_b, "same seed, same campaign, byte for byte");
        assert_eq!(a.dyn_ops, b.dyn_ops);
    }

    #[test]
    fn campaign_counts_the_cases_cut_at_the_op_budget() {
        // Programs of up to 4,096 static instructions loop past the
        // 4,096-op budget in most of these cases.
        let cfg = FuzzConfig {
            max_instrs: 4096,
            ..FuzzConfig::new(1, 20)
        };
        let summary = run_fuzz(&cfg, |_| {}).expect("no io");
        assert!(summary.failures.is_empty());
        assert_eq!(summary.cut_cases, 14);
        assert_eq!(summary.dyn_ops, 81_058);
    }

    #[test]
    fn sabotaged_scheduler_is_caught_and_shrunk_small() {
        let cfg = FuzzConfig {
            max_instrs: 40,
            sabotage_redsoc: true,
            ..FuzzConfig::new(7, 10)
        };
        let summary = run_fuzz(&cfg, |_| {}).expect("no io");
        assert!(
            !summary.failures.is_empty(),
            "the inverted-skew fault must be detected within 10 cases"
        );
        let best = summary
            .failures
            .iter()
            .min_by_key(|f| f.shrunk.op_count())
            .expect("non-empty");
        assert!(
            best.shrunk.op_count() <= 12,
            "shrinker must reduce the repro to <= 12 instructions, got {}",
            best.shrunk.op_count()
        );
        // The repro must blame the sabotaged policy.
        let text = best.divergence.to_string();
        assert!(text.contains("redsoc"), "wrong policy blamed: {text}");
    }

    #[test]
    fn emitted_repro_reassembles_and_still_diverges() {
        let cfg = FuzzConfig {
            max_instrs: 40,
            sabotage_redsoc: true,
            ..FuzzConfig::new(7, 10)
        };
        let summary = run_fuzz(&cfg, |_| {}).expect("no io");
        let failure = summary.failures.first().expect("sabotage must be caught");
        let program = assemble(&failure.asm).expect("repro must reassemble");
        // Replay under the exact recorded configuration: still diverges.
        let core = core_by_name(failure.core)
            .expect("known core")
            .with_mem_model(mem_model_by_label(failure.mem_model).expect("known model"));
        let mut oracle_cfg = OracleConfig::new(core);
        oracle_cfg.sabotage_redsoc = true;
        check_program(&program, &oracle_cfg).expect_err("reassembled repro must still diverge");
        // And under honest schedulers the same program is clean.
        oracle_cfg.sabotage_redsoc = false;
        check_program(&program, &oracle_cfg).expect("repro is clean without the injected fault");
    }

    #[test]
    fn repro_header_carries_case_metadata() {
        let div = Divergence::TimingViolation {
            sched: SchedKind::Redsoc,
            detail: "demo".into(),
        };
        let p = {
            let mut rng = SmallRng::seed_from_u64(1);
            gen::gen_case(&mut rng, &GenKnobs::chain_heavy(8))
        };
        let text = render_repro(3, 0xABCD, "medium", "contended", &div, &p).expect("renders");
        assert!(text.contains("; core: medium"));
        assert!(text.contains("; mem-model: contended"));
        assert!(text.contains("case-seed: 0xabcd"));
        assert!(text.contains("; divergence: [redsoc]"));
        assemble(&text).expect("header comments do not break assembly");
    }

    #[test]
    fn mem_model_axis_round_trips_and_alternates() {
        for axis in [
            MemModelAxis::Classic,
            MemModelAxis::Contended,
            MemModelAxis::Both,
        ] {
            assert_eq!(MemModelAxis::parse(axis.label()), Some(axis));
        }
        assert_eq!(MemModelAxis::parse("nope"), None);
        assert_eq!(MemModelAxis::Both.model_for(0), MemModelConfig::Classic);
        assert_eq!(MemModelAxis::Both.model_for(1), fuzz_contended());
        assert_eq!(MemModelAxis::Classic.model_for(3), MemModelConfig::Classic);
        assert_eq!(MemModelAxis::Contended.model_for(2), fuzz_contended());
        assert_eq!(mem_model_by_label("classic"), Some(MemModelConfig::Classic));
        assert_eq!(mem_model_by_label("contended"), Some(fuzz_contended()));
        assert_eq!(mem_model_by_label("infinite"), None);
    }

    #[test]
    fn core_lookup_by_name() {
        for name in ["small", "medium", "big"] {
            assert_eq!(core_by_name(name).expect("known").name, name);
        }
        assert!(core_by_name("huge").is_none());
    }
}
