//! Differential mutation fuzzing of the typed decoders against the JSON
//! grammar.
//!
//! Seeds are the byte-compat corpus (`tests/fixtures/codec/`) and every
//! ```json fence of the docs. Each mutant (byte flips, truncations, splices,
//! duplicated keys, deep nesting, hostile tokens) is fed to the decoder of
//! every document type, and must satisfy:
//!
//! * the decoder never panics;
//! * it accepts only texts [`json::parse`] accepts, which pins strictness
//!   parity for leading zeros, raw control characters, lone surrogates,
//!   non-finite numbers, duplicate keys and depth;
//! * when the text is malformed, the error is the syntax error `parse`
//!   reports (syntax before schema);
//! * what it accepts re-encodes to a document that decodes to the same
//!   value.
//!
//! The run is deterministic (vendored `rand`, fixed seed) and has a fixed
//! budget per build profile.

use std::fmt::Debug;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use netband_spec::json::{self, MAX_DEPTH};
use netband_spec::{
    FleetSpec, ScenarioSpec, ShardSnapshot, SpecError, StoredTenantSnapshot, WalRecord,
    WireRequest, WireResponse,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Mutants per run: the release build runs ten times the debug budget.
const MUTANTS: usize = if cfg!(debug_assertions) {
    5_000
} else {
    50_000
};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The corpus documents plus every ```json fence of the docs.
fn seeds() -> Vec<String> {
    let mut seeds = Vec::new();
    let corpus = repo_root().join("tests/fixtures/codec");
    let mut names: Vec<PathBuf> = fs::read_dir(&corpus)
        .expect("codec corpus")
        .map(|entry| entry.expect("corpus entry").path())
        .collect();
    names.sort();
    for path in names {
        seeds.push(fs::read_to_string(path).expect("read corpus file"));
    }
    for doc in ["README.md", "docs/ARCHITECTURE.md", "docs/SCENARIOS.md"] {
        let text = fs::read_to_string(repo_root().join(doc)).expect("read doc");
        let mut fence: Option<String> = None;
        for line in text.lines() {
            match (&mut fence, line.trim()) {
                (None, "```json") => fence = Some(String::new()),
                (Some(body), "```") => {
                    seeds.push(std::mem::take(body));
                    fence = None;
                }
                (Some(body), _) => {
                    body.push_str(line);
                    body.push('\n');
                }
                (None, _) => {}
            }
        }
    }
    assert!(seeds.len() > 50, "only {} seeds", seeds.len());
    seeds
}

/// Tokens the grammar treats specially.
const TOKENS: &[&str] = &[
    "01",
    "-0",
    "00",
    "1e400",
    "-1e999",
    "1.",
    "1e",
    "-",
    "18446744073709551616",
    "4294967296",
    "-1",
    "0.5",
    "1.7976931348623157e308",
    "null",
    "true",
    "false",
    "\"\"",
    "\"\\ud83d\"",
    "\"\\udc00\"",
    "\"\\ud83d\\ude00\"",
    "\"\\u0000\"",
    "\"\\q\"",
    "\"\u{1}\"",
    "\u{0}",
    "\t",
    "\"type\"",
    "\"type\":",
    "{}",
    "[]",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "π",
    "😀",
];

/// A char boundary of `text`, uniformly among all of them.
fn boundary(text: &str, rng: &mut StdRng) -> usize {
    let bounds: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect();
    *bounds
        .choose(rng)
        .expect("a text has at least one boundary")
}

fn mutate(text: &mut String, seeds: &[String], rng: &mut StdRng) {
    match rng.gen_range(0..7u32) {
        // Byte flip: an ASCII byte becomes another ASCII byte, controls
        // included, so the text stays UTF-8.
        0 => {
            let ascii: Vec<usize> = text
                .bytes()
                .enumerate()
                .filter(|(_, b)| b.is_ascii())
                .map(|(i, _)| i)
                .collect();
            if let Some(&i) = ascii.choose(rng) {
                let b = rng.gen_range(0..128u32) as u8;
                text.replace_range(i..i + 1, &char::from(b).to_string());
            }
        }
        // Truncation.
        1 => {
            let cut = boundary(text, rng);
            text.truncate(cut);
        }
        // Splice: a slice of another seed replaces a slice of this one.
        2 => {
            let other = seeds.choose(rng).expect("seeds");
            let (a, b) = (boundary(other, rng), boundary(other, rng));
            let piece = &other[a.min(b)..a.max(b)];
            let (c, d) = (boundary(text, rng), boundary(text, rng));
            let (c, d) = (c.min(d), c.max(d));
            let d = if rng.gen_bool(0.5) { c } else { d };
            text.replace_range(c..d, piece);
        }
        // Duplicated key: an object's key repeated as its first member.
        3 => {
            let opens: Vec<usize> = text.match_indices("{\"").map(|(i, _)| i).collect();
            if let Some(&i) = opens.choose(rng) {
                let key_end = text[i + 2..].find('"').map_or(text.len(), |e| i + 2 + e);
                let key = text[i + 1..(key_end + 1).min(text.len())].to_owned();
                let value = ["null", "0", "\"x\"", "[]", "{}"].choose(rng).unwrap();
                text.insert_str(i + 1, &format!("{key}:{value},"));
            }
        }
        // Deep nesting around the cap, at a value position or around the
        // whole document.
        4 => {
            let depth = rng.gen_range(MAX_DEPTH - 4..MAX_DEPTH + 4);
            let nest = |inner: &str| format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth));
            let colons: Vec<usize> = text.match_indices(':').map(|(i, _)| i + 1).collect();
            match colons.choose(rng) {
                Some(&i) if rng.gen_bool(0.7) => text.insert_str(i, &nest("0")[..]),
                _ => *text = nest(text),
            }
        }
        // A hostile token inserted.
        5 => {
            let at = boundary(text, rng);
            text.insert_str(at, TOKENS.choose(rng).unwrap());
        }
        // A number lexeme replaced by a hostile token.
        _ => {
            let numbers: Vec<(usize, usize)> = {
                let bytes = text.as_bytes();
                let mut spans = Vec::new();
                let mut i = 0;
                while i < bytes.len() {
                    if bytes[i].is_ascii_digit() {
                        let start = i;
                        while i < bytes.len()
                            && (bytes[i].is_ascii_digit() || b".eE+-".contains(&bytes[i]))
                        {
                            i += 1;
                        }
                        spans.push((start, i));
                    } else {
                        i += 1;
                    }
                }
                spans
            };
            if let Some(&(a, b)) = numbers.choose(rng) {
                text.replace_range(a..b, TOKENS.choose(rng).unwrap());
            }
        }
    }
}

/// Checks one document type against one mutant.
fn check<T: PartialEq + Debug>(
    name: &str,
    text: &str,
    tree: &Result<json::Json, SpecError>,
    decode: fn(&str) -> Result<T, SpecError>,
    encode: fn(&T) -> String,
) -> bool {
    match (decode(text), tree) {
        (Ok(value), Ok(_)) => {
            let again = encode(&value);
            assert_eq!(
                decode(&again).as_ref(),
                Ok(&value),
                "{name}: re-encoding an accepted mutant changed it\n{text}"
            );
            true
        }
        (Ok(value), Err(syntax)) => {
            panic!("{name} accepted a text the grammar rejects ({syntax}):\n{text:?}\n{value:?}")
        }
        (Err(error), Err(syntax)) => {
            assert_eq!(
                &error, syntax,
                "{name}: a schema error hid the syntax error\n{text:?}"
            );
            false
        }
        (Err(_), Ok(_)) => false,
    }
}

#[test]
fn mutants_never_get_past_the_grammar() {
    let seeds = seeds();
    let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
    let (mut accepted, mut well_formed) = (0usize, 0usize);
    let start = Instant::now();
    for _ in 0..MUTANTS {
        let mut text = seeds.choose(&mut rng).unwrap().clone();
        for _ in 0..rng.gen_range(1..4u32) {
            mutate(&mut text, &seeds, &mut rng);
        }
        let tree = json::parse(&text);
        well_formed += usize::from(tree.is_ok());
        let hits = [
            check(
                "ScenarioSpec",
                &text,
                &tree,
                ScenarioSpec::from_json_text,
                ScenarioSpec::to_json_text,
            ),
            check(
                "FleetSpec",
                &text,
                &tree,
                FleetSpec::from_json_text,
                FleetSpec::to_json_text,
            ),
            check(
                "WireRequest",
                &text,
                &tree,
                WireRequest::from_json_text,
                WireRequest::to_json_text,
            ),
            check(
                "WireResponse",
                &text,
                &tree,
                WireResponse::from_json_text,
                WireResponse::to_json_text,
            ),
            check(
                "WalRecord",
                &text,
                &tree,
                WalRecord::from_json_text,
                WalRecord::to_json_text,
            ),
            check(
                "StoredTenantSnapshot",
                &text,
                &tree,
                StoredTenantSnapshot::from_json_text,
                StoredTenantSnapshot::to_json_text,
            ),
            check(
                "ShardSnapshot",
                &text,
                &tree,
                ShardSnapshot::from_json_text,
                ShardSnapshot::to_json_text,
            ),
        ];
        accepted += hits.iter().filter(|&&hit| hit).count();
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "{MUTANTS} mutants × 7 decoders in {elapsed:.2} s ({:.0} mutants/s): \
         {well_formed} well-formed, {accepted} accepted decodes",
        MUTANTS as f64 / elapsed
    );
    // The mutators must reach both sides of the grammar and of the schema.
    assert!(
        well_formed > MUTANTS / 20,
        "only {well_formed} well-formed mutants"
    );
    assert!(accepted > MUTANTS / 50, "only {accepted} accepted decodes");
}
