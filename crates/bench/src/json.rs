//! Dependency-free JSON: a value type, an emitter, and a strict parser.
//!
//! `redsoc bench` emits its machine-readable sweep as `sweep.json`;
//! the golden tests parse that output back with the same module, so the
//! schema is validated end-to-end without external crates.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Objects preserve no duplicate keys (last write wins) and
/// iterate in sorted key order, which keeps emitted files diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (emitted with enough precision to round-trip `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    #[must_use]
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// A numeric value from anything convertible to `f64`.
    #[must_use]
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Member lookup on objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The count under `key`: a number that is finite, non-negative,
    /// whole and no larger than `T::MAX`. The emitter writes `u64::MAX`
    /// as its nearest `f64`, 2^64, which reads back as `u64::MAX`.
    ///
    /// # Errors
    ///
    /// Names `key` when it is absent, not a number, or not such a count.
    pub(crate) fn count<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let n = self
            .get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric field {key:?}"))?;
        let whole = n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64;
        whole
            .then_some(n as u64)
            .and_then(|c| T::try_from(c).ok())
            .ok_or_else(|| format!("field {key:?} = {n} is not a count"))
    }

    /// Serialise with two-space indentation and a trailing newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialise on one line: the pretty form with its newlines and
    /// indentation stripped. Journal lines and worker frames use it.
    #[must_use]
    pub(crate) fn compact(&self) -> String {
        self.pretty().lines().map(str::trim_start).collect()
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push_str(&pad);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// anything else is an error).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing content at byte {}", p.i));
        }
        Ok(v)
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; encode as null so the document stays valid
        // (the golden tests then catch the non-finite field).
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest value nesting the parser accepts. Every document this crate
/// writes nests at most five levels; the cap turns adversarial input (a
/// journal line or worker frame of a million `[`) into a parse error
/// instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            ));
        }
        self.depth += 1;
        let v = self.value_at_depth();
        self.depth -= 1;
        v
    }

    fn value_at_depth(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.ws();
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.expect(b':')?;
                    self.ws();
                    let val = self.value()?;
                    map.insert(key, val);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign.
                            let code = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(&c) => {
                    // Copy one UTF-8 scalar (input is a &str, so this is
                    // always a valid boundary walk).
                    let start = self.i;
                    let len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = self.b.get(start..start + len).ok_or("truncated UTF-8")?;
                    s.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?);
                    self.i += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| format!("non-UTF-8 number at byte {start}"))?;
        match text.parse::<f64>() {
            // `write_num` would print a non-finite number as `null`.
            Ok(n) if !n.is_finite() => Err(format!("non-finite number {text:?} at byte {start}")),
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => Err(format!("invalid number {text:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use std::panic;
    use std::sync::OnceLock;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::obj(vec![
            ("schema", Json::str("redsoc-bench-sweep/v2")),
            ("threads", Json::num(8u32)),
            ("ok", Json::Bool(true)),
            ("speedup", Json::Num(1.2345)),
            (
                "jobs",
                Json::Arr(vec![
                    Json::obj(vec![
                        ("name", Json::str("bit\"cnt\n")),
                        ("cycles", Json::num(123u32)),
                    ]),
                    Json::Null,
                ]),
            ),
        ]);
        let text = doc.pretty();
        let parsed = Json::parse(&text).expect("parses");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_with_an_ordinary_error() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far past the cap: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn parser_rejects_what_it_cannot_write_back() {
        for (text, error) in [
            ("1e999", r#"non-finite number "1e999" at byte 0"#),
            ("[-1e400]", r#"non-finite number "-1e400" at byte 1"#),
            (r#""\u+041""#, "bad \\u escape at byte 2"),
            (r#""\u04 1""#, "bad \\u escape at byte 2"),
            (r#""\u04""#, "bad \\u escape at byte 2"),
        ] {
            assert_eq!(Json::parse(text), Err(error.to_string()), "{text}");
        }
        assert_eq!(Json::parse(r#""\u00e9\u0041""#), Ok(Json::str("éA")));
    }

    /// What the mutator inserts: JSON punctuation, escapes (good and
    /// bad), numbers at and past `f64`'s range, and multibyte text.
    const TOKENS: [&str; 24] = [
        "\"", "\\", "\\u", "\\u+041", "\\u00e9", "\\ud800", "1e999", "-1e400", "1e-400", "-", "+",
        ".", "e", "0", "[", "]", "{", "}", ",", ":", "null", "é", "𝄞", "\u{0}",
    ];

    /// Seed documents: every row of the committed `BENCH_sweep.json`, a
    /// journal line and a job frame.
    fn seeds() -> Vec<String> {
        use crate::journal::JournalRecord;
        use crate::supervisor::CellSummary;
        use crate::worker::JobSpec;
        let sweep = Json::parse(include_str!("../../../BENCH_sweep.json")).expect("sweep parses");
        let rows = sweep
            .get("jobs")
            .and_then(Json::as_arr)
            .expect("sweep rows");
        let journal_line = JournalRecord {
            key: "a/BIG/redsoc".into(),
            digest: "d".into(),
            attempts: 1,
            backoff_ms: 0,
            wall_seconds: 0.25,
            summary: CellSummary::Sim {
                cycles: 100,
                committed: 50,
                stalls: [100, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                memory: None,
            },
        };
        let job_frame = JobSpec {
            bench: "crc".into(),
            core: "BIG".into(),
            mem_model: "classic".into(),
            mode: "ts".into(),
            trace_len: 2000,
            digest: "abc123".into(),
            attempt: 2,
            budget: Some(u64::MAX),
            ts_base: None,
            fault: Some("panic".into()),
        };
        rows.iter()
            .chain([&journal_line.to_json(), &job_frame.to_json()])
            .map(Json::compact)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// No byte string panics the parser, and whatever it accepts
        /// writes back to text that parses to the same value.
        #[test]
        fn mutated_documents_are_rejected_or_round_trip(
            seed in 0usize..1024,
            edits in prop::collection::vec((0u8..3, any::<u32>(), any::<u32>()), 1..9),
        ) {
            static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
            let seeds = SEEDS.get_or_init(seeds);
            let mut bytes = seeds[seed % seeds.len()].clone().into_bytes();
            for (kind, at, arg) in edits {
                let at = at as usize % (bytes.len() + 1);
                match kind {
                    // Delete a span of up to 15 bytes.
                    0 => drop(bytes.drain(at..(at + arg as usize % 16).min(bytes.len()))),
                    1 => {
                        let token = TOKENS[arg as usize % TOKENS.len()].bytes();
                        drop(bytes.splice(at..at, token));
                    }
                    // Replace a byte with any byte.
                    _ => {
                        if let Some(b) = bytes.get_mut(at) {
                            *b = arg as u8;
                        }
                    }
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let parsed = panic::catch_unwind(|| Json::parse(&text));
            prop_assert!(parsed.is_ok(), "parse panicked on {text:?}");
            if let Ok(Ok(v)) = parsed {
                prop_assert_eq!(Json::parse(&v.pretty()), Ok(v), "{}", text);
            }
        }
    }

    #[test]
    fn integers_emit_without_exponent() {
        let mut s = String::new();
        write_num(&mut s, 300000.0);
        assert_eq!(s, "300000");
        let mut s = String::new();
        write_num(&mut s, f64::INFINITY);
        assert_eq!(s, "null");
    }
}
