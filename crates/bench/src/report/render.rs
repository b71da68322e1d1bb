//! The renderers: every figure, table and ablation as a pure function of
//! a parsed results document.

use std::collections::HashMap;
use std::fmt::Write as _;

use redsoc_core::config::SchedulerConfig;
use redsoc_core::stats::OpCategory;
use redsoc_isa::opcode::ExecClass;
use redsoc_timing::kogge_stone::{delay_series, prefix_stages};
use redsoc_timing::optime::{fig1_series, CYCLE_PS};
use redsoc_timing::power::DvfsCurve;
use redsoc_timing::slack::{SlackBucket, SlackLut};
use redsoc_timing::width_predictor::WidthPredictor;
use redsoc_workloads::{BenchClass, Benchmark};

use super::{precision, pvt, threshold, OP_MIX};
use crate::grid::{Mode, Variant};
use crate::json::Json;
use crate::{cores, mean};

/// The classes of the paper's figures, in figure order.
const CLASSES: [BenchClass; 3] = [BenchClass::Spec, BenchClass::MiBench, BenchClass::Ml];
/// The Table I cores, largest first.
const CORES: [&str; 3] = ["BIG", "MEDIUM", "SMALL"];
/// Fig. 13's class means on BIG/MEDIUM/SMALL, as the paper reports them (%).
const PAPER_FIG13: [[f64; 3]; 3] = [[12.0, 8.0, 4.0], [23.0, 17.0, 9.0], [13.0, 9.0, 6.0]];
const CLASS_HEADER: [&str; 4] = ["class", "BIG", "MEDIUM", "SMALL"];
const BENCH_HEADER: [&str; 4] = ["benchmark", "BIG", "MEDIUM", "SMALL"];

/// One document cell: (benchmark, core, mode, variant).
type Key = (Benchmark, &'static str, Mode, Variant);

/// A parsed results document, indexed by
/// (benchmark, core, mode, variant label).
struct Results<'a>(HashMap<(&'a str, &'a str, &'a str, String), &'a Json>);

impl<'a> Results<'a> {
    fn new(doc: &'a Json) -> Self {
        let mut rows = HashMap::new();
        for row in doc.get("jobs").and_then(Json::as_arr).unwrap_or(&[]) {
            let field = |k| row.get(k).and_then(Json::as_str);
            let variant = field("variant").unwrap_or("").to_string();
            if let (Some(b), Some(c), Some(m)) = (field("benchmark"), field("core"), field("mode"))
            {
                rows.insert((b, c, m, variant), row);
            }
        }
        Results(rows)
    }

    /// The number at `path` in one cell's row.
    fn num(&self, (bench, core, mode, variant): Key, path: &[&str]) -> Option<f64> {
        let row = self
            .0
            .get(&(bench.name(), core, mode.label(), variant.label()))?;
        path.iter().try_fold(*row, |v, k| v.get(k))?.as_num()
    }

    /// Speedup over the default-variant baseline, in percent.
    fn gain(&self, key: Key) -> Option<f64> {
        Some((self.num(key, &["speedup_over_baseline"])? - 1.0) * 100.0)
    }

    /// Counter `num` over counter `den`; `None` when `den` is zero.
    fn ratio(&self, key: Key, num: &str, den: &str) -> Option<f64> {
        let den = self.num(key, &["counters", den]).filter(|d| *d > 0.0)?;
        Some(self.num(key, &["counters", num])? / den)
    }

    /// [`Results::ratio`] in percent.
    fn pct(&self, key: Key, num: &str, den: &str) -> Option<f64> {
        Some(self.ratio(key, num, den)? * 100.0)
    }
}

/// ReDSOC's default-variant gain on `core`, in percent.
fn gain(r: &Results, b: Benchmark, core: &'static str) -> Option<f64> {
    r.gain((b, core, Mode::Redsoc, Variant::default()))
}

/// ReDSOC's gain on BIG under `variant`, in percent.
fn big_gain(r: &Results, b: Benchmark, variant: Variant) -> Option<f64> {
    r.gain((b, "BIG", Mode::Redsoc, variant))
}

/// Mean over a class's benchmarks; `None` when any value is missing.
fn class_mean(class: BenchClass, f: impl Fn(Benchmark) -> Option<f64>) -> Option<f64> {
    let values: Option<Vec<f64>> = Benchmark::of_class(class).into_iter().map(f).collect();
    values.map(|v| mean(&v))
}

/// Mean over the class members `f` has a value for; `None` when none has.
fn mean_present(class: BenchClass, f: impl Fn(Benchmark) -> Option<f64>) -> Option<f64> {
    let values: Vec<f64> = Benchmark::of_class(class)
        .into_iter()
        .filter_map(f)
        .collect();
    (!values.is_empty()).then(|| mean(&values))
}

/// Whether `a > b > c`, or `n/a` when one is missing.
fn descending(a: Option<f64>, b: Option<f64>, c: Option<f64>) -> String {
    match (a, b, c) {
        (Some(a), Some(b), Some(c)) => (a > b && b > c).to_string(),
        _ => "n/a".to_string(),
    }
}

/// `value` to `prec` decimals with `unit`, or `n/a`. A negative value
/// that rounds to zero prints as zero.
fn fmt(value: Option<f64>, prec: usize, unit: &str) -> String {
    let Some(v) = value else {
        return "n/a".to_string();
    };
    let digits = format!("{v:.prec$}");
    if digits.trim_matches(['-', '0', '.']).is_empty() {
        format!("{:.prec$}{unit}", 0.0)
    } else {
        format!("{digits}{unit}")
    }
}

/// A table row: a label and its cells. A row without cells prints its
/// label alone, as a sub-heading.
type Row = (String, Vec<String>);

fn row(label: impl Into<String>, cells: impl IntoIterator<Item = String>) -> Row {
    (label.into(), cells.into_iter().collect())
}

fn note(text: &str) -> Row {
    (text.to_string(), Vec::new())
}

/// A `# title` line over an aligned table: labels left, cells right,
/// every column as wide as its widest entry.
fn table(title: &str, header: &[&str], rows: &[Row]) -> String {
    let head = row(header[0], header[1..].iter().map(ToString::to_string));
    let rows: Vec<&Row> = std::iter::once(&head).chain(rows).collect();
    let mut widths: Vec<usize> = Vec::new();
    for (label, cells) in rows.iter().filter(|(_, cells)| !cells.is_empty()) {
        for (i, entry) in std::iter::once(label).chain(cells).enumerate() {
            let w = entry.chars().count();
            match widths.get_mut(i) {
                Some(max) => *max = (*max).max(w),
                None => widths.push(w),
            }
        }
    }
    let mut s = format!("# {title}\n");
    for (label, cells) in rows {
        let _ = write!(
            s,
            "{label:<w$}",
            w = if cells.is_empty() { 0 } else { widths[0] }
        );
        for (cell, w) in cells.iter().zip(&widths[1..]) {
            let _ = write!(s, "  {cell:>w$}");
        }
        s.push('\n');
    }
    s
}

/// One row per paper benchmark with a cell per column, then — when
/// `means` — one row per class mean.
fn bench_rows<C: Copy>(
    columns: &[C],
    (prec, unit): (usize, &str),
    means: bool,
    value: impl Fn(Benchmark, C) -> Option<f64>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for b in Benchmark::paper_set() {
        let cells = columns.iter().map(|c| fmt(value(b, *c), prec, unit));
        rows.push(row(b.name(), cells));
    }
    if means {
        rows.push(note(""));
        rows.extend(class_rows(columns, (prec, unit), |class, c| {
            class_mean(class, |b| value(b, c))
        }));
    }
    rows
}

/// One row per class with a cell per column.
fn class_rows<C: Copy>(
    columns: &[C],
    (prec, unit): (usize, &str),
    value: impl Fn(BenchClass, C) -> Option<f64>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for class in CLASSES {
        let cells = columns.iter().map(|c| fmt(value(class, *c), prec, unit));
        rows.push(row(format!("{}-MEAN", class.label()), cells));
    }
    rows
}

/// One rendered report section: a `report:NAME` block of `EXPERIMENTS.md`.
pub type Section = (&'static str, String);

/// Render every figure, table and ablation from a parsed results
/// document, in report order. A missing or failed cell renders as `n/a`.
#[must_use]
pub fn render(doc: &Json) -> Vec<Section> {
    let r = Results::new(doc);
    vec![
        ("fig01", fig01()),
        ("fig02", fig02()),
        ("fig03", fig03()),
        ("tab1", tab1()),
        ("tab2", tab2()),
        ("fig10", fig10(&r)),
        ("fig11", fig11(&r)),
        ("fig12", fig12(&r)),
        ("fig13", fig13(&r)),
        ("fig14", fig14(&r)),
        ("fig15", fig15(&r)),
        ("precision", precision_section(&r)),
        ("threshold", threshold_section(&r)),
        ("width", width_section(&r)),
        ("power", power(&r)),
        ("pvt", pvt_section(&r)),
        ("extended", extended(&r)),
    ]
}

fn fig01() -> String {
    let mut rows = Vec::new();
    for (op, t) in fig1_series() {
        let slack = 100.0 * f64::from(CYCLE_PS - t) / f64::from(CYCLE_PS);
        rows.push(row(op, [t.to_string(), fmt(Some(slack), 1, "%")]));
    }
    let title = format!("Fig.1: ALU operation compute times (clock period {CYCLE_PS} ps)");
    table(&title, &["op", "time(ps)", "slack"], &rows)
}

fn fig02() -> String {
    let mut rows = Vec::new();
    for (w, d) in delay_series(32) {
        if w.is_power_of_two() || w == 24 {
            rows.push(row(
                w.to_string(),
                [prefix_stages(w).to_string(), d.to_string()],
            ));
        }
    }
    let title = "Fig.2: Kogge-Stone critical path vs effective width";
    table(title, &["width", "stages", "delay(ps)"], &rows)
}

fn fig03() -> String {
    let lut = SlackLut::new();
    let mut rows = Vec::new();
    for b in SlackBucket::all() {
        let (addr, time, slack) = (b.lut_address(), lut.compute_ps(b), lut.slack_ps(b));
        let cells = [format!("{addr:#07b}"), time.to_string(), slack.to_string()];
        rows.push(row(format!("{b:?}"), cells));
    }
    let title = "Fig.3: slack LUT, 5-bit address [arith|shift|simd|width/type(2)]";
    table(title, &["bucket", "addr", "time(ps)", "slack(ps)"], &rows)
}

fn tab1() -> String {
    let mut rows = Vec::new();
    for (name, c) in cores().into_iter().rev() {
        let queues = format!("{}/{}/{}", c.rob_entries, c.lsq_entries, c.rse_entries);
        let units = format!("{}/{}/{}", c.alu_units, c.simd_units, c.fp_units);
        let caches = format!("{}kB/{}MB", c.l1.size_bytes >> 10, c.l2.size_bytes >> 20);
        rows.push(row(
            name,
            [c.frontend_width.to_string(), queues, units, caches],
        ));
    }
    let header = ["core", "width", "ROB/LSQ/RSE", "ALU/SIMD/FP", "caches"];
    table("Table I: processor baselines (2 GHz)", &header, &rows)
}

fn tab2() -> String {
    let mut rows = Vec::new();
    for bench in Benchmark::of_class(BenchClass::Ml) {
        let (mut total, mut simd, mut mem) = (0u64, 0u64, 0u64);
        for op in bench.trace(1) {
            total += 1;
            match op.instr.exec_class() {
                ExecClass::SimdAlu | ExecClass::SimdMul => simd += 1,
                ExecClass::Load | ExecClass::Store => mem += 1,
                _ => {}
            }
        }
        let share = |n: u64| fmt(Some(n as f64 / total.max(1) as f64 * 100.0), 1, "%");
        rows.push(row(
            bench.name(),
            [total.to_string(), share(simd), share(mem)],
        ));
    }
    let title = "Table II: kernels for machine learning (one outer iteration)";
    table(title, &["kernel", "ops", "SIMD", "memory"], &rows)
}

fn fig10(r: &Results) -> String {
    let share = |b, cat: OpCategory| {
        let key = (b, "BIG", Mode::Baseline, Variant::default());
        let count = |c: OpCategory| r.num(key, &["counters", "op_mix", c.label()]);
        let total: f64 = OP_MIX.iter().map(|c| count(*c)).sum::<Option<f64>>()?;
        Some(count(cat)? / total * 100.0)
    };
    let mut header = vec!["benchmark"];
    header.extend(OP_MIX.map(OpCategory::label));
    let title = "Fig.10: operation distribution on BIG (% of non-control ops)";
    table(title, &header, &bench_rows(&OP_MIX, (1, "%"), false, share))
}

fn fig11(r: &Results) -> String {
    let len = |b, core| {
        let key = (b, core, Mode::Redsoc, Variant::default());
        r.ratio(key, "chain_ops_sq", "chain_ops")
    };
    let rows = class_rows(&CORES, (2, ""), |class, core| {
        mean_present(class, |b| len(b, core))
    });
    let title = "Fig.11: E[transparent sequence length] (ReDSOC), mean over the \
                 benchmarks that formed sequences";
    table(title, &CLASS_HEADER, &rows)
}

fn fig12(r: &Results) -> String {
    let key = |b, core| (b, core, Mode::Redsoc, Variant::default());
    let rate = |b, core| r.pct(key(b, core), "tag_mispredictions", "tag_predictions");
    let mut rows = bench_rows(&CORES, (2, "%"), false, rate);
    for ((_, cells), b) in rows.iter_mut().zip(Benchmark::paper_set()) {
        let preds = |core| r.num(key(b, core), &["counters", "tag_predictions"]);
        cells.extend(CORES.map(|core| fmt(preds(core), 0, "")));
    }
    rows.push(note(
        "\n# class means over the benchmarks that made predictions",
    ));
    rows.extend(class_rows(&CORES, (2, "%"), |class, core| {
        mean_present(class, |b| rate(b, core))
    }));
    let header = [
        "benchmark",
        "BIG",
        "MEDIUM",
        "SMALL",
        "preds BIG",
        "MEDIUM",
        "SMALL",
    ];
    let title = "Fig.12: P/GP last-arrival tag misprediction (%), and predictions made";
    table(title, &header, &rows)
}

fn fig13(r: &Results) -> String {
    let means = |class| CORES.map(|core| class_mean(class, |b| gain(r, b, core)));
    let mut rows = bench_rows(&CORES, (1, "%"), true, |b, core| gain(r, b, core));
    rows.push(note("\n# gap: paper class mean / measured class mean"));
    for (class, paper) in CLASSES.into_iter().zip(PAPER_FIG13) {
        let gap = |(p, m): (&f64, Option<f64>)| m.filter(|m| *m > 0.0).map(|m| p / m);
        let gaps = paper
            .iter()
            .zip(means(class))
            .map(|pm| fmt(gap(pm), 1, "x"));
        rows.push(row(class.label(), gaps));
    }
    rows.push(note("\n# gain grows with core size (BIG > MEDIUM > SMALL)"));
    for class in CLASSES {
        let [big, medium, small] = means(class);
        rows.push(row(class.label(), [descending(big, medium, small)]));
    }
    table(
        "Fig.13: ReDSOC speedup over baseline (%)",
        &BENCH_HEADER,
        &rows,
    )
}

/// One row per (core, class) with a class-mean cell per mode.
fn core_class_rows(modes: &[Mode], value: impl Fn(Key) -> Option<f64>) -> Vec<Row> {
    let mut rows = Vec::new();
    for core in CORES {
        let cell = |b, mode| value((b, core, mode, Variant::default()));
        for (label, cells) in class_rows(modes, (1, "%"), |c, m| class_mean(c, |b| cell(b, m))) {
            rows.push((format!("{core}:{label}"), cells));
        }
    }
    rows
}

fn fig14(r: &Results) -> String {
    let stall = |key| {
        let stalls = r.num(key, &["counters", "fu_stall_cycles"])?;
        Some(stalls / r.num(key, &["cycles"])? * 100.0)
    };
    let rows = core_class_rows(&[Mode::Baseline, Mode::Redsoc], stall);
    let title = "Fig.14: FU stall rate (% of cycles with an FU-denied ready op)";
    table(title, &["class:core", "Baseline", "ReDSOC"], &rows)
}

fn fig15(r: &Results) -> String {
    let rows = core_class_rows(&[Mode::Redsoc, Mode::Ts, Mode::Mos], |key| r.gain(key));
    let title = "Fig.15: speedup over baseline (%), ReDSOC vs TS vs MOS";
    table(title, &["class:core", "ReDSOC", "TS", "MOS"], &rows)
}

fn precision_section(r: &Results) -> String {
    let variants: Vec<Variant> = (1..=8).map(precision).collect();
    let rows = class_rows(&variants, (1, ""), |class, v| {
        class_mean(class, |b| big_gain(r, b, v))
    });
    let header = ["class", "1b", "2b", "3b", "4b", "5b", "6b", "7b", "8b"];
    let title = "CI precision sweep (threshold 2^bits-1): mean speedup (%) on BIG";
    table(title, &header, &rows)
}

fn threshold_section(r: &Results) -> String {
    let variants: Vec<Variant> = (0..=7).map(threshold).collect();
    let rows = bench_rows(&variants, (1, ""), true, |b, v| big_gain(r, b, v));
    let header = [
        "benchmark",
        "t=0",
        "t=1",
        "t=2",
        "t=3",
        "t=4",
        "t=5",
        "t=6",
        "t=7",
    ];
    table(
        "Threshold sweep (3 CI bits): speedup (%) on BIG",
        &header,
        &rows,
    )
}

/// §II-B at the paper's table size. Size cannot matter here: no two
/// word-PCs of a paper benchmark share a slot of even a 256-entry table
/// (`tests/paper_claims.rs`), so every larger table predicts the same.
fn width_section(r: &Results) -> String {
    const OUTCOMES: [&str; 2] = ["width_aggressive", "width_conservative"];
    let key = |b| (b, "BIG", Mode::Redsoc, Variant::default());
    let rate = |b, name| r.pct(key(b), name, "width_predictions");
    let rows = bench_rows(&OUTCOMES, (3, "%"), false, rate);
    let entries = SchedulerConfig::redsoc().width_predictor_entries;
    let title = format!("Width predictor on BIG (ReDSOC, {entries} entries): mispredictions (%)");
    let per_benchmark = table(&title, &["benchmark", "aggressive", "conservative"], &rows);

    let paper = Benchmark::paper_set();
    let total = |name| -> Option<f64> {
        paper
            .iter()
            .map(|b| r.num(key(*b), &["counters", name]))
            .sum()
    };
    let share = |name| Some(total(name)? / total("width_predictions")? * 100.0);
    let gains: Option<Vec<f64>> = paper.iter().map(|b| gain(r, *b, "BIG")).collect();
    let state = WidthPredictor::new(entries, 3).state_bytes().to_string();
    let cells = OUTCOMES
        .map(|name| fmt(share(name), 3, "%"))
        .into_iter()
        .chain([state, fmt(gains.map(|g| mean(&g)), 2, "%")]);
    let pooled = [row(entries.to_string(), cells)];
    let header = [
        "entries",
        "aggressive",
        "conservative",
        "state(B)",
        "mean gain",
    ];
    per_benchmark + "\n" + &table("pooled over the fifteen benchmarks", &header, &pooled)
}

fn power(r: &Results) -> String {
    let curve = DvfsCurve::a57();
    let saving = |class, core| {
        class_mean(class, |b| {
            let speedup = (gain(r, b, core)? / 100.0).max(0.0);
            Some(curve.power_saving_at_iso_perf(1.9, speedup) * 100.0)
        })
    };
    let mut rows = class_rows(&CORES, (1, "%"), saving);
    rows.push(note("\n# ordering MiBench > SPEC > ML"));
    for core in CORES {
        let [spec, mibench, ml] = CLASSES.map(|class| saving(class, core));
        rows.push(row(core, [descending(mibench, spec, ml)]));
    }
    let title = "Power savings at baseline performance via V/F scaling (A57 curve)";
    table(title, &CLASS_HEADER, &rows)
}

fn pvt_section(r: &Results) -> String {
    let value = |b, column| match column {
        0 => big_gain(r, b, Variant::default()),
        1 => big_gain(r, b, pvt()),
        _ => Some(big_gain(r, b, pvt())? - big_gain(r, b, Variant::default())?),
    };
    let rows = bench_rows(&[0, 1, 2], (2, ""), true, value);
    let title = "PVT guard-band exploitation on BIG (speedup % over baseline)";
    table(
        title,
        &["benchmark", "data slack", "+ PVT band", "delta"],
        &rows,
    )
}

fn extended(r: &Results) -> String {
    let mut rows = Vec::new();
    for b in Benchmark::extended() {
        let ipc = |core| r.num((b, core, Mode::Baseline, Variant::default()), &["ipc"]);
        let gains = CORES.map(|core| fmt(gain(r, b, core), 1, "%"));
        rows.push(row(
            b.name(),
            gains.into_iter().chain(CORES.map(|c| fmt(ipc(c), 2, ""))),
        ));
    }
    let header = [
        "kernel", "BIG", "MEDIUM", "SMALL", "IPC BIG", "MEDIUM", "SMALL",
    ];
    table(
        "Extended suite: ReDSOC speedup over baseline (%), baseline IPC",
        &header,
        &rows,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn rendering_a_partial_document_marks_missing_cells() {
        let sections = render(&Json::obj(vec![("jobs", Json::Arr(Vec::new()))]));
        let fig13 = &sections.iter().find(|(n, _)| *n == "fig13").unwrap().1;
        assert!(fig13.contains("n/a") && !fig13.contains("NaN"));
        assert_eq!(fmt(Some(-0.04), 1, "%"), "0.0%");
        assert_eq!(fmt(Some(-0.06), 1, "%"), "-0.1%");
    }

    #[test]
    fn tables_align_columns_to_their_widest_entry() {
        let rows = [
            row("a", ["1".into()]),
            note("# note"),
            row("long", ["22".into()]),
        ];
        let text = table("t", &["x", "y"], &rows);
        assert_eq!(text, "# t\nx      y\na      1\n# note\nlong  22\n");
    }
}
