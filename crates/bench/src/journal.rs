//! Crash-safe sweep checkpointing: an append-only JSONL journal.
//!
//! As each grid job completes, the runner appends one self-contained JSON
//! line — job key, a digest of the effective configuration, the measured
//! wall-clock, and the job's [`CellSummary`] — and flushes it. If the
//! process dies mid-sweep (crash, OOM kill, Ctrl-C), every line already
//! flushed survives; `redsoc bench --resume <journal>` reloads them,
//! skips the completed cells, and re-runs only what is missing, so the
//! final sweep document is identical to an uninterrupted run (modulo
//! wall-clock fields, which are measurement rather than simulation
//! output).
//!
//! Recovery is job-granular: a job that was running when the process
//! died has no line and re-runs from cycle 0.
//!
//! Robustness rules on load:
//!
//! - a **truncated trailing line** (no `\n`: the process died mid-write)
//!   is dropped and the file is truncated back to the last complete
//!   record, so subsequent appends never splice into garbage;
//! - a **corrupt line** drops itself and everything after it (later
//!   records may depend on state the corruption hides). Corrupt means not
//!   UTF-8, not JSON, or not a well-formed record — including a
//!   `wall_seconds` no [`Duration`] can hold, a line of unknown `kind`,
//!   such as the in-flight `snapshot` lines older builds wrote, and a TS
//!   line without `clock_ps`. Older builds journaled every TS line after
//!   every simulator line, so their simulator cells still resume;
//! - a record whose **digest** does not match the current configuration
//!   (different trace length, core table, scheduler tuning, or code
//!   version) is ignored at lookup time, forcing a fresh run of that cell.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use crate::json::Json;
use crate::supervisor::{stall_labels, CellSummary, MemSummary};

/// FNV-1a 64-bit hash of `input`, rendered as 16 hex digits. Used for
/// configuration digests: stable across runs, dependency-free, and cheap.
#[must_use]
pub fn fnv1a_hex(input: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in input.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One journaled job completion.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Job key (`bench/CORE/mode`).
    pub key: String,
    /// Digest of the job's effective configuration.
    pub digest: String,
    /// Attempts the job took when it originally ran (1 = first try).
    pub attempts: u32,
    /// Ignored: retries no longer back off, so this is neither written
    /// nor read (a parsed record holds 0). It remains only so that
    /// existing struct literals keep compiling, and will be removed.
    pub backoff_ms: u64,
    /// Wall-clock seconds the job took when it originally ran.
    pub wall_seconds: f64,
    /// The result summary.
    pub summary: CellSummary,
}

impl JournalRecord {
    /// Serialise as a single JSON object (one journal line).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("key", Json::str(&self.key)),
            ("digest", Json::str(&self.digest)),
            ("attempts", Json::num(f64::from(self.attempts))),
            ("wall_seconds", Json::Num(self.wall_seconds)),
        ];
        match &self.summary {
            CellSummary::Sim {
                cycles,
                committed,
                stalls,
                memory,
            } => {
                pairs.push(("kind", Json::str("sim")));
                pairs.push(("cycles", Json::num(*cycles as f64)));
                pairs.push(("committed", Json::num(*committed as f64)));
                pairs.push((
                    "stalls",
                    Json::obj(
                        stall_labels()
                            .into_iter()
                            .zip(stalls.iter())
                            .map(|(label, n)| (label, Json::num(*n as f64)))
                            .collect(),
                    ),
                ));
                if let Some(mem) = memory {
                    pairs.push(("memory", mem.to_json()));
                }
            }
            CellSummary::Ts {
                cycles,
                committed,
                clock_ps,
            } => {
                pairs.push(("kind", Json::str("ts")));
                pairs.push(("cycles", Json::num(*cycles as f64)));
                pairs.push(("committed", Json::num(*committed as f64)));
                pairs.push(("clock_ps", Json::num(f64::from(*clock_ps))));
            }
        }
        Json::obj(pairs)
    }

    /// Parse a record back from a journal line's JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field; a
    /// count that is negative, fractional or out of its type's range is
    /// mistyped.
    pub fn from_json(doc: &Json) -> Result<JournalRecord, String> {
        let str_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let key = str_field("key")?;
        let digest = str_field("digest")?;
        let attempts = doc.count("attempts")?;
        let wall_seconds = doc
            .get("wall_seconds")
            .and_then(Json::as_num)
            .ok_or("missing numeric field \"wall_seconds\"")?;
        if Duration::try_from_secs_f64(wall_seconds).is_err() {
            return Err(format!("wall_seconds {wall_seconds} is not a duration"));
        }
        let cycles = doc.count("cycles")?;
        let committed = doc.count("committed")?;
        let summary = match str_field("kind")?.as_str() {
            "sim" => {
                let stalls_obj = doc.get("stalls").ok_or("missing stalls object")?;
                let mut stalls = [0u64; 10];
                for (slot, label) in stalls.iter_mut().zip(stall_labels()) {
                    *slot = stalls_obj.count(label)?;
                }
                let memory = match doc.get("memory") {
                    None => None,
                    Some(mem) => Some(MemSummary {
                        model: mem
                            .get("model")
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or("missing memory field \"model\"")?,
                        mshr_rejects: mem.count("mshr_rejects")?,
                        mshr_merges: mem.count("mshr_merges")?,
                        port_wait_cycles: mem.count("port_wait_cycles")?,
                        dram_wait_cycles: mem.count("dram_wait_cycles")?,
                    }),
                };
                CellSummary::Sim {
                    cycles,
                    committed,
                    stalls,
                    memory,
                }
            }
            // Older builds journaled a TS `speedup` and no `clock_ps`;
            // such a line is corrupt here, so the cell re-runs.
            "ts" => CellSummary::Ts {
                cycles,
                committed,
                clock_ps: match doc.count("clock_ps")? {
                    0 => return Err("clock_ps must be positive".into()),
                    ps => ps,
                },
            },
            other => return Err(format!("unknown record kind {other:?}")),
        };
        Ok(JournalRecord {
            key,
            digest,
            attempts,
            backoff_ms: 0,
            wall_seconds,
            summary,
        })
    }
}

struct JournalFile {
    file: File,
    appended: u64,
}

/// The append-only sweep journal: completed records loaded at open plus
/// an exclusive append handle shared by the worker threads.
pub struct Journal {
    path: PathBuf,
    writer: Mutex<JournalFile>,
    restored: HashMap<String, JournalRecord>,
    /// Fault injection for the crash-safety tests: exit the process (as
    /// if killed) after this many appends.
    die_after: Option<u64>,
}

impl Journal {
    /// Exit status used by the injected mid-sweep "kill" (chosen to be
    /// distinguishable from the CLI's own exit codes).
    pub const DIE_EXIT_CODE: i32 = 86;

    /// Start a fresh journal at `path`, truncating any existing file.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Journal {
            path,
            writer: Mutex::new(JournalFile { file, appended: 0 }),
            restored: HashMap::new(),
            die_after: None,
        })
    }

    /// Open `path` for resumption: load every complete, well-formed
    /// record (tolerating a truncated or corrupt tail as documented in
    /// the module docs), truncate the file back to the last good record,
    /// and position it for appending. A missing file starts empty.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "file not found".
    pub fn resume(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut restored = HashMap::new();
        let mut good_bytes = 0usize;
        for chunk in bytes.split_inclusive(|&b| b == b'\n') {
            if chunk.last() != Some(&b'\n') {
                break; // partial trailing write: drop it
            }
            let parsed = std::str::from_utf8(chunk)
                .ok()
                .and_then(|line| Json::parse(line.trim()).ok())
                .and_then(|doc| JournalRecord::from_json(&doc).ok());
            let Some(rec) = parsed else {
                break; // corrupt line: drop it and everything after
            };
            restored.insert(rec.key.clone(), rec);
            good_bytes += chunk.len();
        }
        file.set_len(good_bytes as u64)?;
        file.seek(SeekFrom::Start(good_bytes as u64))?;
        Ok(Journal {
            path,
            writer: Mutex::new(JournalFile { file, appended: 0 }),
            restored,
            die_after: None,
        })
    }

    /// The journal's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records loaded at open (resume only; empty for fresh journals).
    #[must_use]
    pub fn restored(&self) -> &HashMap<String, JournalRecord> {
        &self.restored
    }

    /// The restored record for `key`, but only when its digest matches
    /// the current configuration — stale records force a re-run.
    #[must_use]
    pub fn lookup(&self, key: &str, digest: &str) -> Option<&JournalRecord> {
        self.restored.get(key).filter(|r| r.digest == digest)
    }

    /// Arm the injected mid-sweep kill: the process exits with
    /// [`Self::DIE_EXIT_CODE`] immediately after the `n`-th append is
    /// flushed. Fault-injection support for the crash-safety tests and
    /// the CI resume smoke; never armed in production sweeps.
    pub fn set_die_after(&mut self, n: Option<u64>) {
        self.die_after = n;
    }

    /// Append one record and flush it to disk. Called from worker
    /// threads as jobs finish; the line is written atomically under the
    /// journal lock.
    ///
    /// # Errors
    ///
    /// Propagates write errors (the caller downgrades them to a warning:
    /// losing checkpointing must not fail the sweep itself).
    ///
    /// # Panics
    ///
    /// Panics if the journal lock is poisoned, which cannot happen: the
    /// critical section below never panics.
    pub fn append(&self, rec: &JournalRecord) -> std::io::Result<()> {
        // One record per line.
        let mut line = rec.to_json().compact();
        line.push('\n');
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        w.file.write_all(line.as_bytes())?;
        w.file.flush()?;
        w.appended += 1;
        if self.die_after.is_some_and(|n| w.appended >= n) {
            // Injected mid-sweep death: flush-then-exit models a kill
            // arriving between two job completions.
            std::process::exit(Self::DIE_EXIT_CODE);
        }
        Ok(())
    }

    /// Force every appended record onto stable storage (`fsync`). Called
    /// once when the sweep completes, *before* the final sweep document
    /// is written: `append`'s per-record flush empties userspace buffers
    /// but leaves the OS page cache in charge, so a power loss or kill in
    /// the tail window — after the last job finishes but before the sweep
    /// JSON lands — could otherwise lose journal lines *and* have no
    /// sweep document, forcing those cells to re-run on resume.
    ///
    /// # Errors
    ///
    /// Propagates the `fsync` failure.
    ///
    /// # Panics
    ///
    /// Panics if the journal lock is poisoned, which cannot happen: the
    /// critical section never panics.
    pub fn sync_to_disk(&self) -> std::io::Result<()> {
        let w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        w.file.sync_all()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn rec(key: &str, digest: &str, cycles: u64) -> JournalRecord {
        JournalRecord {
            key: key.to_string(),
            digest: digest.to_string(),
            attempts: 1,
            backoff_ms: 0,
            wall_seconds: 0.25,
            summary: CellSummary::Sim {
                cycles,
                committed: cycles / 2,
                stalls: [cycles, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                memory: None,
            },
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("redsoc-journal-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn round_trips_records_across_create_and_resume() {
        let path = tmp("roundtrip");
        let j = Journal::create(&path).expect("create");
        j.append(&rec("a/BIG/redsoc", "d1", 100)).expect("append");
        let ts = JournalRecord {
            key: "a/BIG/ts".into(),
            digest: "d2".into(),
            attempts: 2,
            backoff_ms: 0,
            wall_seconds: 0.5,
            summary: CellSummary::Ts {
                cycles: 80,
                committed: 50,
                clock_ps: 460,
            },
        };
        j.append(&ts).expect("append");
        drop(j);

        let j = Journal::resume(&path).expect("resume");
        assert_eq!(j.restored().len(), 2);
        assert_eq!(
            j.lookup("a/BIG/redsoc", "d1")
                .expect("hit")
                .summary
                .cycles(),
            100
        );
        assert_eq!(j.lookup("a/BIG/ts", "d2"), Some(&ts));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_digest_misses_lookup() {
        let path = tmp("stale");
        let j = Journal::create(&path).expect("create");
        j.append(&rec("a/BIG/redsoc", "old-digest", 100))
            .expect("append");
        drop(j);
        let j = Journal::resume(&path).expect("resume");
        assert!(
            j.lookup("a/BIG/redsoc", "new-digest").is_none(),
            "stale digest must force a re-run"
        );
        assert!(j.lookup("a/BIG/redsoc", "old-digest").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_trailing_line_is_dropped_and_appends_stay_clean() {
        let path = tmp("truncated");
        let j = Journal::create(&path).expect("create");
        j.append(&rec("a/BIG/redsoc", "d", 100)).expect("append");
        j.append(&rec("b/BIG/redsoc", "d", 200)).expect("append");
        drop(j);
        // Chop the file mid-way through the second record.
        let text = std::fs::read_to_string(&path).expect("read");
        let cut = text.len() - 17;
        std::fs::write(&path, &text[..cut]).expect("truncate");

        let j = Journal::resume(&path).expect("resume tolerates partial tail");
        assert_eq!(j.restored().len(), 1, "partial record dropped");
        assert!(j.lookup("a/BIG/redsoc", "d").is_some());
        // Appending after recovery must produce a parseable journal.
        j.append(&rec("c/BIG/redsoc", "d", 300)).expect("append");
        drop(j);
        let j = Journal::resume(&path).expect("resume again");
        assert_eq!(j.restored().len(), 2);
        assert!(j.lookup("c/BIG/redsoc", "d").is_some());
        std::fs::remove_file(&path).ok();
    }

    /// Journal `a` and `b`, splice `middle` (raw bytes) between their
    /// lines, resume, and return the restored keys in sorted order.
    fn resume_with_middle_line(name: &str, middle: &[u8]) -> Vec<String> {
        let path = tmp(name);
        let j = Journal::create(&path).expect("create");
        j.append(&rec("a/BIG/redsoc", "d", 100)).expect("append");
        j.append(&rec("b/BIG/redsoc", "d", 200)).expect("append");
        drop(j);
        let text = std::fs::read_to_string(&path).expect("read");
        let (first, rest) = text.split_once('\n').expect("two lines");
        let mut doctored = format!("{first}\n").into_bytes();
        doctored.extend_from_slice(middle);
        doctored.push(b'\n');
        doctored.extend_from_slice(rest.as_bytes());
        std::fs::write(&path, doctored).expect("write");

        let j = Journal::resume(&path).expect("resume");
        let mut keys: Vec<String> = j.restored().keys().cloned().collect();
        keys.sort();
        drop(j);
        assert_eq!(
            std::fs::read_to_string(&path).expect("reread"),
            format!("{first}\n"),
            "the file is truncated back to the last good record"
        );
        std::fs::remove_file(&path).ok();
        keys
    }

    #[test]
    fn corrupt_middle_line_drops_itself_and_the_rest() {
        assert_eq!(
            resume_with_middle_line("corrupt", b"{this is not json}"),
            ["a/BIG/redsoc"]
        );
    }

    #[test]
    fn non_utf8_line_drops_itself_and_the_rest() {
        assert_eq!(
            resume_with_middle_line("non-utf8", b"\xff"),
            ["a/BIG/redsoc"]
        );
    }

    #[test]
    fn deeply_nested_middle_line_drops_itself_and_the_rest() {
        assert_eq!(
            resume_with_middle_line("nested", "[".repeat(200_000).as_bytes()),
            ["a/BIG/redsoc"]
        );
    }

    #[test]
    fn wall_seconds_beyond_duration_range_is_corrupt() {
        // `1e400` parses to infinity; neither fits in a `Duration`.
        for wall in ["1e300", "1e400"] {
            let line = rec("c/BIG/redsoc", "d", 300).to_json().compact();
            let bad = line.replace(
                "\"wall_seconds\": 0.25",
                &format!("\"wall_seconds\": {wall}"),
            );
            assert_ne!(bad, line, "fixture line carries wall_seconds");
            assert_eq!(
                resume_with_middle_line("wall-range", bad.as_bytes()),
                ["a/BIG/redsoc"],
                "wall_seconds {wall}"
            );
        }
    }

    #[test]
    fn malformed_counts_are_corrupt() {
        // Restored as 0, 2, u64::MAX and u32::MAX before counts were
        // checked.
        let line = rec("c/BIG/redsoc", "d", 300).to_json().compact();
        for (good, bad) in [
            ("\"cycles\": 300", "\"cycles\": -5"),
            ("\"cycles\": 300", "\"cycles\": 2.5"),
            ("\"cycles\": 300", "\"cycles\": 1e400"),
            ("\"attempts\": 1", "\"attempts\": 4294967297"),
        ] {
            let doctored = line.replace(good, bad);
            assert_ne!(doctored, line, "fixture line carries {good}");
            assert_eq!(
                resume_with_middle_line("bad-count", doctored.as_bytes()),
                ["a/BIG/redsoc"],
                "{bad}"
            );
        }
    }

    #[test]
    fn legacy_snapshot_line_drops_itself_and_the_rest() {
        // An in-flight checkpoint line as older builds journaled it.
        let legacy = br#"{"cycle": 1024,"digest": "d","file": "b_BIG_redsoc-1024.rsnp","key": "b/BIG/redsoc","kind": "snapshot","len": 4,"payload_digest": "0123456789abcdef"}"#;
        assert_eq!(
            resume_with_middle_line("legacy-snapshot", legacy),
            ["a/BIG/redsoc"]
        );
    }

    #[test]
    fn older_ts_lines_re_run_and_their_simulator_lines_resume() {
        // Lines verbatim from a len-2000 `bench --journal` of the build
        // before TS cells journaled their clock: the simulator lines come
        // first, then a TS line with a `speedup` and no `clock_ps`.
        let older = [
            r#"{"attempts": 1,"committed": 5639,"cycles": 7105,"digest": "86b0d1461602f1e7","key": "crc/BIG/baseline","kind": "sim","stalls": {"busy": 3073,"exec_latency": 2,"frontend": 6,"fu_contention": 0,"lsq_full": 0,"memory": 4024,"mshr": 0,"rob_full": 0,"rs_full": 0,"slack_hold": 0},"wall_seconds": 0.002282627}"#,
            r#"{"attempts": 1,"committed": 5639,"cycles": 6099,"digest": "53efb513e3129b27","key": "crc/BIG/redsoc","kind": "sim","stalls": {"busy": 2067,"exec_latency": 2,"frontend": 6,"fu_contention": 0,"lsq_full": 0,"memory": 4024,"mshr": 0,"rob_full": 0,"rs_full": 0,"slack_hold": 0},"wall_seconds": 0.007379457}"#,
            r#"{"attempts": 1,"committed": 5639,"cycles": 7839,"digest": "680b1d362bf5487c","key": "crc/BIG/ts","kind": "ts","speedup": 1.0070728976201613,"wall_seconds": 0.002340958}"#,
        ];
        let path = tmp("older-ts");
        std::fs::write(&path, older.map(|l| format!("{l}\n")).concat()).expect("write");
        let j = Journal::resume(&path).expect("resume");
        let mut keys: Vec<&String> = j.restored().keys().collect();
        keys.sort();
        assert_eq!(keys, ["crc/BIG/baseline", "crc/BIG/redsoc"]);
        let base = j
            .lookup("crc/BIG/baseline", "86b0d1461602f1e7")
            .expect("simulator line restored");
        assert_eq!(base.summary.cycles(), 7105);
        assert_eq!(base.summary.stalls().map(|s| s[0]), Some(3073));
        assert!(j.lookup("crc/BIG/ts", "680b1d362bf5487c").is_none());
        drop(j);
        assert_eq!(
            std::fs::read_to_string(&path).expect("reread"),
            format!("{}\n{}\n", older[0], older[1]),
            "the TS line is truncated away, so the cell re-runs"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_resumes_empty() {
        let path = tmp("missing");
        std::fs::remove_file(&path).ok();
        let j = Journal::resume(&path).expect("missing file starts empty");
        assert!(j.restored().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fnv_digest_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a_hex("abc"), fnv1a_hex("abc"));
        assert_ne!(fnv1a_hex("abc"), fnv1a_hex("abd"));
        assert_eq!(fnv1a_hex("").len(), 16);
    }
}
