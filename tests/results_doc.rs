//! Every measured number in `EXPERIMENTS.md`'s paper sections sits in a
//! `<!-- report:NAME -->` block generated from the committed
//! `RESULTS.json` (`redsoc report`'s document at the default trace
//! length). These tests render that document and fail on any difference,
//! so a number can only change together with the document it comes from.
//!
//! After a deliberate change, regenerate and re-render:
//!
//! ```text
//! cargo build --release && ./target/release/redsoc report --out RESULTS.json
//! REDSOC_BLESS=1 cargo test --test results_doc
//! ```

use std::fmt::Write as _;
use std::path::Path;

use redsoc::bench::json::Json;
use redsoc::bench::report::{jobs, render, Section};
use redsoc::bench::DEFAULT_TRACE_LEN;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Write each section into its generated block of `markdown`: the lines
/// between `<!-- report:NAME -->` and `<!-- /report:NAME -->` become a
/// `text` code fence holding section NAME. Fails on a block naming no
/// section, an unterminated or repeated block, and a section without a
/// block.
fn splice(markdown: &str, sections: &[Section]) -> Result<String, String> {
    let mut out = String::with_capacity(markdown.len());
    let mut seen: Vec<&str> = Vec::new();
    let mut lines = markdown.lines();
    while let Some(line) = lines.next() {
        out.push_str(line);
        out.push('\n');
        let Some(name) = line
            .strip_prefix("<!-- report:")
            .and_then(|rest| rest.strip_suffix(" -->"))
        else {
            continue;
        };
        let (name, text) = sections
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("block report:{name} names no report section"))?;
        if seen.contains(name) {
            return Err(format!("block report:{name} appears twice"));
        }
        seen.push(name);
        let close = format!("<!-- /report:{name} -->");
        if !lines.any(|l| l == close) {
            return Err(format!("block report:{name} has no {close}"));
        }
        let _ = write!(out, "```text\n{text}```\n{close}\n");
    }
    match sections.iter().find(|(n, _)| !seen.contains(n)) {
        Some((name, _)) => Err(format!("report section {name} has no block")),
        None => Ok(out),
    }
}

fn results() -> Json {
    Json::parse(&read("RESULTS.json")).expect("RESULTS.json parses")
}

#[test]
fn experiments_md_quotes_the_committed_results() {
    let markdown = read("EXPERIMENTS.md");
    let fresh = splice(&markdown, &render(&results())).expect("well-formed report blocks");
    if std::env::var_os("REDSOC_BLESS").is_some() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
        std::fs::write(path, &fresh).expect("write EXPERIMENTS.md");
        return;
    }
    if let Some((n, (have, want))) = markdown
        .lines()
        .zip(fresh.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!(
            "EXPERIMENTS.md line {} differs from RESULTS.json:\n  doc:     {have}\n  \
             results: {want}\nrerun with REDSOC_BLESS=1 after a deliberate change",
            n + 1
        );
    }
    assert_eq!(markdown, fresh, "EXPERIMENTS.md differs from RESULTS.json");
}

#[test]
fn committed_results_cover_every_report_job_at_the_default_length() {
    let doc = results();
    assert_eq!(
        doc.get("trace_len").and_then(Json::as_num),
        Some(DEFAULT_TRACE_LEN as f64)
    );
    let rows = doc.get("jobs").and_then(Json::as_arr).expect("jobs");
    assert_eq!(rows.len(), jobs().len(), "one row per report job");
    for row in rows {
        assert_eq!(
            row.get("status").and_then(Json::as_str),
            Some("ok"),
            "{row:?}"
        );
        let simulated = row.get("mode").and_then(Json::as_str) != Some("ts");
        assert_eq!(row.get("counters").is_some(), simulated, "{row:?}");
    }
}

#[test]
fn splice_rewrites_blocks_and_rejects_malformed_ones() {
    let sections: Vec<Section> = vec![("a", "one\n".into()), ("b", "two\n".into())];
    let md = "intro\n<!-- report:a -->\nstale\n<!-- /report:a -->\n\
              mid\n<!-- report:b -->\n<!-- /report:b -->\nend\n";
    let fresh = splice(md, &sections).unwrap();
    assert_eq!(
        fresh,
        "intro\n<!-- report:a -->\n```text\none\n```\n<!-- /report:a -->\n\
         mid\n<!-- report:b -->\n```text\ntwo\n```\n<!-- /report:b -->\nend\n"
    );
    assert_eq!(splice(&fresh, &sections).unwrap(), fresh, "idempotent");
    let missing = "<!-- report:a -->\n<!-- /report:a -->\n";
    assert!(splice(missing, &sections)
        .unwrap_err()
        .contains("b has no block"));
    let unknown = format!("{md}<!-- report:c -->\n<!-- /report:c -->\n");
    assert!(splice(&unknown, &sections)
        .unwrap_err()
        .contains("names no"));
    let twice = format!("{md}<!-- report:a -->\n<!-- /report:a -->\n");
    assert!(splice(&twice, &sections).unwrap_err().contains("twice"));
    let open = "<!-- report:a -->\n<!-- report:b -->\n<!-- /report:b -->\n";
    assert!(splice(open, &sections).unwrap_err().contains("has no"));
}
