//! No `.asm` text may panic the assembler: every input either assembles
//! or returns an `AsmError`.
//!
//! The property mutates the committed fuzzer repros
//! (`tests/fixtures/repros/*.asm`): it deletes spans, inserts operand
//! tokens (separators, prefixes, register names, huge numbers and
//! multibyte characters) and replaces bytes, then assembles the result
//! with panics caught. Every input that once panicked is pinned below as
//! a regression case.

use std::fs;
use std::panic;
use std::path::Path;
use std::sync::OnceLock;

use proptest::prelude::*;
use redsoc::isa::asm::assemble;

/// Inputs that panicked inside `assemble`: a register token that is
/// empty or starts with a multibyte character has no class letter.
#[test]
fn register_tokens_without_a_class_letter_are_errors() {
    for src in ["mov r1,", "mov , #7", "mov r0,é #7"] {
        let e = assemble(src).expect_err(src);
        assert_eq!(e.line, 1, "{src:?}: {e}");
        assert!(e.message.contains("bad register"), "{src:?}: {e}");
    }
}

/// Data regions are bounded by their running total, not one by one: no
/// `.mem` allows more than 16 MiB, so a region that would end past it is
/// an error before its bytes are allocated. A `.zero` length beyond the
/// memory (here a negative number, which wraps to nearly 4 GiB) once
/// overflowed the data cursor, and a run of 16 MiB `.zero` lines once
/// allocated 16 MiB per line.
#[test]
fn data_regions_past_the_largest_memory_are_errors() {
    let words_past_the_end = format!(".zero a {}\n.words w 1 2 3\nhalt", (16 << 20) - 0x1000 - 8);
    for (src, line) in [
        (".zero d0 -024\nhalt".to_string(), 1),
        (".zero a 16777216\n.zero b 16777216\nhalt".to_string(), 1),
        (".zero a 9437184\n.zero b 9437184\nhalt".to_string(), 2),
        (words_past_the_end, 2),
    ] {
        let e = assemble(&src).expect_err(&src);
        assert_eq!(e.line, line, "{src:?}: {e}");
        assert!(e.message.contains("ends past"), "{src:?}: {e}");
    }
    // A region that ends exactly at the largest memory still assembles.
    let fits = format!(".zero a {}\n.words w 1 2\nhalt", (16 << 20) - 0x1000 - 8);
    assert!(assemble(&fits).is_ok());
}

/// The committed repro files, sorted, as the mutation seeds.
fn seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(read_seeds)
}

fn read_seeds() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/repros");
    let mut files: Vec<_> = fs::read_dir(&dir)
        .expect("tests/fixtures/repros exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "asm"))
        .collect();
    files.sort();
    let seeds: Vec<String> = files
        .iter()
        .map(|p| fs::read_to_string(p).expect("repro is readable"))
        .collect();
    assert!(!seeds.is_empty(), "no repro files in {}", dir.display());
    seeds
}

/// What the mutator inserts.
const TOKENS: [&str; 24] = [
    ",",
    ", ",
    "#",
    "[",
    "]",
    "=",
    " ",
    "\n",
    ":",
    "r0",
    "r31",
    "r32",
    "v15",
    "f16",
    "lsl #",
    "#4294967296",
    "99999999999999999999999",
    "-2147483649",
    "0x",
    "é",
    "€",
    "𝄞",
    ".zero",
    ".words",
];

/// One edit: `(kind, position, argument)`. Positions wrap around the
/// text and snap down to a character boundary.
type Edit = (u8, u32, u32);

/// The largest character boundary at or below `at % (len + 1)`.
fn boundary(s: &str, at: u32) -> usize {
    let mut at = at as usize % (s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

fn apply(text: &mut String, (kind, at, arg): Edit) {
    let start = boundary(text, at);
    match kind {
        // Delete a span of up to 15 bytes.
        0 => {
            let end = boundary(text, (start as u32).saturating_add(arg % 16));
            if end > start {
                text.replace_range(start..end, "");
            }
        }
        // Insert a token.
        1 => text.insert_str(start, TOKENS[arg as usize % TOKENS.len()]),
        // Replace the character there with a printable ASCII byte.
        _ => {
            let Some(c) = text[start..].chars().next() else {
                return;
            };
            let byte = char::from(b' ' + (arg % 95) as u8);
            text.replace_range(start..start + c.len_utf8(), byte.encode_utf8(&mut [0; 1]));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn mutated_repros_assemble_or_return_an_error(
        seed in 0usize..64,
        edits in prop::collection::vec((0u8..3, any::<u32>(), any::<u32>()), 1..9),
    ) {
        let seeds = seeds();
        let mut text = seeds[seed % seeds.len()].clone();
        for &edit in &edits {
            apply(&mut text, edit);
        }
        let outcome = panic::catch_unwind(|| assemble(&text).map(drop));
        prop_assert!(outcome.is_ok(), "assemble panicked on {text:?}");
    }
}
