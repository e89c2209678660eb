//! The strict JSON grammar: one pull `Reader`, the [`Json`] tree built on
//! it, and the writers every encoder appends with.
//!
//! Typed documents (scenarios, fleets, wire frames, WAL records, snapshots)
//! never go through the tree: their field tables in [`crate::codec`] decode
//! straight from a `Reader` and encode straight into the caller's buffer.
//! The tree remains for documents without a table (reports, ad-hoc probes)
//! and as the syntax authority on the error path: when a typed decode fails,
//! [`parse`] is consulted so a malformed document reports its syntax error
//! before any schema error. Both paths share one lexer, so they accept the
//! same texts. The grammar is deliberately small and strict:
//!
//! * numbers keep their **raw lexeme** (`Json::Number` stores the token
//!   text), so `u64` seeds survive without passing through `f64`, and `f64`
//!   values round-trip exactly (Rust's `{}` formatting emits the shortest
//!   representation that re-parses to the same bits); a lexeme that parses to
//!   a non-finite `f64` (`1e400`) is an error;
//! * duplicate object keys are a parse error (a spec with two `seed` fields is
//!   ambiguous, not "last one wins");
//! * strings follow RFC 8259 strictly: raw (unescaped) control characters and
//!   lone `\uXXXX` surrogates are parse errors, surrogate *pairs* decode to
//!   the astral-plane character; the writer emits UTF-8 with the mandatory
//!   escapes only. String round-tripping — including astral-plane and control
//!   characters — is proptest-pinned, since this codec is also the network
//!   wire format (`netband-spec::wire`);
//! * arrays and objects nest at most [`MAX_DEPTH`] levels deep, so a hostile
//!   document (say, a megabyte of `[`) is a parse error rather than a stack
//!   overflow in the recursive-descent parser.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::error::SpecError;

/// The deepest array/object nesting [`parse`] accepts. Real documents
/// (scenarios, fleets, wire frames, WAL records, snapshots) nest fewer than
/// ten levels; the cap sits far above that and far below what would exhaust
/// a thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw (validated) lexeme.
    Number(String),
    /// A string (escapes already resolved).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order preserved, keys unique.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// A number node from a `u64` (exact).
    pub fn from_u64(v: u64) -> Json {
        Json::Number(v.to_string())
    }

    /// A number node from a finite `f64` (shortest round-trip lexeme).
    ///
    /// # Panics
    ///
    /// Panics on non-finite input — specs never contain NaN/infinities.
    pub fn from_f64(v: f64) -> Json {
        let mut lexeme = String::new();
        write_f64(&mut lexeme, v);
        Json::Number(lexeme)
    }

    /// The value as `u64`, if it is an integral number lexeme in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(lexeme) => lexeme.parse::<u64>().ok(),
            _ => None,
        }
    }

    /// The value as `usize`, if it is an integral number lexeme in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(lexeme) => lexeme.parse::<usize>().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(lexeme) => lexeme.parse::<f64>().ok(),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as key/value pairs, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialises the value to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialises the value to indented JSON text (2-space indent), for
    /// checked-in documents and examples.
    pub fn to_text_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        const INDENT: &str = "  ";
        match self {
            Json::Array(items) if !items.is_empty() => {
                // Scalar-only arrays stay on one line (e.g. an edge pair).
                if items
                    .iter()
                    .all(|i| !matches!(i, Json::Object(_) | Json::Array(_)))
                {
                    self.write(out);
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&INDENT.repeat(depth + 1));
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&INDENT.repeat(depth));
                out.push(']');
            }
            Json::Object(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&INDENT.repeat(depth + 1));
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&INDENT.repeat(depth));
                out.push('}');
            }
            other => other.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(lexeme) => out.push_str(lexeme),
            Json::String(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a JSON string: the mandatory escapes, everything else raw.
pub(crate) fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0..=0x1F => "",
            _ => continue,
        };
        // Escaped bytes are ASCII, so `run..i` sits on char boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends a `u64` in decimal.
pub(crate) fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// Appends a finite `f64` as its shortest round-trip lexeme (`{}`).
///
/// # Panics
///
/// Panics on non-finite input — no document carries NaN or infinities.
pub(crate) fn write_f64(out: &mut String, v: f64) {
    assert!(v.is_finite(), "spec numbers must be finite, got {v}");
    // `{}` prints an integral value below 1e15 as its digits (`-0` for
    // negative zero); most rewards and observations are 0 or 1.
    if v.fract() == 0.0 && v.abs() < 1e15 {
        if v.is_sign_negative() {
            out.push('-');
        }
        write_u64(out, v.abs() as u64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Parses a JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, SpecError> {
    let mut reader = Reader::new(text);
    reader.skip_whitespace();
    let value = reader.tree()?;
    reader.finish()?;
    Ok(value)
}

/// A pull parser over one document: the one lexer behind [`parse`] and the
/// typed decoders. Container calls ([`Reader::open`], [`Reader::next_key`],
/// [`Reader::next_item`]) track the nesting depth, so every path enforces
/// [`MAX_DEPTH`].
#[derive(Clone, Copy)]
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    pub(crate) fn error(&self, message: impl Into<String>) -> SpecError {
        SpecError::Json {
            offset: self.pos,
            message: message.into(),
        }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    pub(crate) fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Requires only whitespace after the document.
    pub(crate) fn finish(&mut self) -> Result<(), SpecError> {
        self.skip_whitespace();
        if self.pos != self.text.len() {
            return Err(self.error("trailing characters after the document"));
        }
        Ok(())
    }

    fn expect(&mut self, byte: u8) -> Result<(), SpecError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    pub(crate) fn keyword(&mut self, keyword: &str) -> Result<(), SpecError> {
        if self.text.as_bytes()[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(())
        } else {
            Err(self.error(format!("expected {keyword:?}")))
        }
    }

    /// Enters the array or object whose opening `byte` is at `pos`, refusing
    /// to go past [`MAX_DEPTH`].
    pub(crate) fn open(&mut self, byte: u8) -> Result<(), SpecError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.expect(byte)?;
        self.depth += 1;
        Ok(())
    }

    /// The next member key of the open object, with `pos` left on its
    /// value; `None` once the closing `}` is consumed.
    pub(crate) fn next_key(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, SpecError> {
        self.skip_whitespace();
        match (std::mem::replace(first, false), self.peek()) {
            (_, Some(b'}')) => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(None);
            }
            (true, _) => {}
            (false, Some(b',')) => {
                self.pos += 1;
                self.skip_whitespace();
            }
            (false, _) => return Err(self.error("expected ',' or '}' in object")),
        }
        let key = self.string()?;
        self.skip_whitespace();
        self.expect(b':')?;
        self.skip_whitespace();
        Ok(Some(key))
    }

    /// `true` with `pos` on the next element of the open array; `false` once
    /// the closing `]` is consumed.
    pub(crate) fn next_item(&mut self, first: &mut bool) -> Result<bool, SpecError> {
        self.skip_whitespace();
        match (std::mem::replace(first, false), self.peek()) {
            (_, Some(b']')) => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(false);
            }
            (true, _) => {}
            (false, Some(b',')) => {
                self.pos += 1;
                self.skip_whitespace();
            }
            (false, _) => return Err(self.error("expected ',' or ']' in array")),
        }
        Ok(true)
    }

    /// Builds the value at `pos` as a tree.
    fn tree(&mut self) -> Result<Json, SpecError> {
        let mut first = true;
        match self.peek() {
            Some(b'{') => {
                self.open(b'{')?;
                let mut fields: Vec<(String, Json)> = Vec::new();
                while let Some(key) = self.next_key(&mut first)? {
                    fields.push((key.into_owned(), self.tree()?));
                }
                self.reject_duplicate_keys(&fields)?;
                Ok(Json::Object(fields))
            }
            Some(b'[') => {
                self.open(b'[')?;
                let mut items = Vec::new();
                while self.next_item(&mut first)? {
                    items.push(self.tree()?);
                }
                Ok(Json::Array(items))
            }
            Some(b'"') => Ok(Json::String(self.string()?.into_owned())),
            Some(b't') => self.keyword("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.keyword("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.keyword("null").map(|_| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let lexeme = self.number()?;
                self.finite(lexeme)?;
                Ok(Json::Number(lexeme.to_owned()))
            }
            Some(c) => Err(self.error(format!("unexpected character {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Skips the value at `pos`, checking its syntax without building it.
    pub(crate) fn skip_value(&mut self) -> Result<(), SpecError> {
        let mut first = true;
        match self.peek() {
            Some(b'{') => {
                self.open(b'{')?;
                while self.next_key(&mut first)?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.open(b'[')?;
                while self.next_item(&mut first)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'"') => self.string().map(drop),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let lexeme = self.number()?;
                self.finite(lexeme).map(drop)
            }
            _ => self.tree().map(drop),
        }
    }

    /// Rejects an object that repeats a key. Sorting the keys makes the
    /// check O(n log n), so a hostile object with many keys costs no more
    /// than parsing it.
    fn reject_duplicate_keys(&self, fields: &[(String, Json)]) -> Result<(), SpecError> {
        let mut order: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        order.sort_unstable();
        match order.windows(2).find(|pair| pair[0] == pair[1]) {
            Some(pair) => Err(self.error(format!("duplicate object key {:?}", pair[0]))),
            None => Ok(()),
        }
    }

    /// The string at `pos`, borrowed from the input unless it has escapes.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, SpecError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(if out.is_empty() {
                        Cow::Borrowed(&self.text[start..self.pos - 1])
                    } else {
                        Cow::Owned(out)
                    });
                }
                Some(b'\\') => {
                    if out.is_empty() {
                        out.push_str(&self.text[start..self.pos]);
                    }
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{08}',
                        Some(b'f') => '\u{0C}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            self.unicode_escape()?
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    };
                    out.push(c);
                    // `hex4` leaves `pos` on its last digit; single-char
                    // escapes leave it on the escape letter. Advance past it.
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    // RFC 8259 §7: control characters must be \u-escaped; a
                    // raw one is a malformed document, not data. (The writer
                    // always escapes them, so accepting raw ones would make
                    // the decoder accept documents the codec can never emit.)
                    return Err(self.error(format!(
                        "raw control character 0x{b:02x} in string (must be \\u-escaped)"
                    )));
                }
                Some(_) => {
                    // Consume the maximal run of unescaped bytes in one
                    // chunk. Runs break only at ASCII bytes (quote,
                    // backslash, control), which never occur inside a
                    // multi-byte UTF-8 sequence, so the slice sits on char
                    // boundaries of the input.
                    let run = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    if !out.is_empty() {
                        out.push_str(&self.text[run..self.pos]);
                    }
                }
            }
        }
    }

    /// Decodes the `XXXX` (and, for a high surrogate, the `\uXXXX` low half
    /// after it) of a `\u` escape starting at `pos`.
    fn unicode_escape(&mut self) -> Result<char, SpecError> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: a \uXXXX low surrogate must follow.
            self.pos += 1; // consume the final hex digit position
            self.keyword("\\u")
                .map_err(|_| self.error("expected low surrogate"))?;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("invalid low surrogate"));
            }
            let code = 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))
        } else {
            char::from_u32(first).ok_or_else(|| self.error("invalid \\u escape"))
        }
    }

    /// Reads 4 hex digits starting at `pos` (the first digit); leaves `pos` on
    /// the **last** digit so the caller's uniform `pos += 1` steps past it.
    fn hex4(&mut self) -> Result<u32, SpecError> {
        let mut value = 0u32;
        for i in 0..4 {
            let digit = self
                .text
                .as_bytes()
                .get(self.pos + i)
                .and_then(|b| (*b as char).to_digit(16))
                .ok_or_else(|| self.error("expected 4 hex digits in \\u escape"))?;
            value = value * 16 + digit;
        }
        self.pos += 3;
        Ok(value)
    }

    /// The number lexeme at `pos`, checked against the grammar only: callers
    /// that do not read it as an integer must also check [`Reader::finite`].
    pub(crate) fn number(&mut self) -> Result<&'a str, SpecError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits("expected digits")?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected digits after '.'")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected digits in exponent")?;
        }
        Ok(&self.text[start..self.pos])
    }

    fn digits(&mut self, missing: &str) -> Result<(), SpecError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error(missing));
        }
        Ok(())
    }

    /// Every lexeme must parse to a *finite* f64: Rust parses exponent
    /// overflow like `1e400` to infinity (not an error), and a non-finite
    /// value would violate the writer's finiteness contract downstream.
    pub(crate) fn finite(&self, lexeme: &str) -> Result<f64, SpecError> {
        match lexeme.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(self.error(format!("invalid or non-finite number {lexeme:?}"))),
        }
    }

    /// The text of the value at `pos`, skipped, re-encoded compactly for an
    /// error message (the error path only).
    pub(crate) fn describe_value(&mut self) -> Result<String, SpecError> {
        let start = self.pos;
        self.skip_value()?;
        let raw = &self.text[start..self.pos];
        Ok(parse(raw).map_or_else(|_| raw.to_owned(), |v| v.to_text()))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse(" 42 ").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        let fields = doc.as_object().unwrap();
        assert_eq!(fields.len(), 2);
        let items = fields[0].1.as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert!(items[2].as_object().unwrap()[0].1.is_null());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1 2]",
            "01x",
            "\"\\q\"",
            "{\"a\":1} extra",
            "nan",
            "1.",
            "1e",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Exponent overflow parses to infinity in Rust, which would crash the
    /// writer's finiteness assert later; the decoder rejects it up front.
    #[test]
    fn rejects_non_finite_numbers() {
        for bad in ["1e400", "-1e999", "1e308001"] {
            let err = parse(bad).unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{bad}: {err}");
        }
        // The largest finite values still pass.
        assert_eq!(
            parse("1.7976931348623157e308").unwrap().as_f64(),
            Some(f64::MAX)
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        for deep in [
            nest(MAX_DEPTH + 1),
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "[".repeat(1 << 20),
        ] {
            match parse(&deep) {
                Err(SpecError::Json { message, .. }) => {
                    assert!(message.contains("nesting"), "{message}")
                }
                other => panic!("accepted a document nested past MAX_DEPTH: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse(r#"{"seed": 1, "seed": 2}"#).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{08}\u{0C}\r π \u{1}";
        let text = Json::String(original.to_owned()).to_text();
        assert_eq!(parse(&text).unwrap().as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""\u00e9""#).unwrap().as_str(), Some("é"));
        // Surrogate pair: U+1F600.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = u64::MAX - 7;
        let text = Json::from_u64(seed).to_text();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn f64_values_round_trip_bit_exactly() {
        for v in [0.35, 1.0 / 3.0, 1e-308, 123456.789e12, 0.1 + 0.2] {
            let text = Json::from_f64(v).to_text();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text}");
        }
    }

    #[test]
    fn writer_output_reparses() {
        let doc = Json::Object(vec![
            ("k".into(), Json::Array(vec![Json::Null, Json::Bool(true)])),
            ("n".into(), Json::from_f64(0.25)),
            ("s".into(), Json::String("v\"w".into())),
        ]);
        assert_eq!(parse(&doc.to_text()).unwrap(), doc);
    }

    #[test]
    fn rejects_raw_control_characters_in_strings() {
        // RFC 8259 §7: U+0000..U+001F must appear escaped. The escaped forms
        // of the same strings stay accepted.
        for (raw, escaped) in [
            ("\"a\u{01}b\"", r#""a\u0001b""#),
            ("\"\n\"", r#""\n""#),
            ("\"\u{00}\"", r#""\u0000""#),
            ("\"x\ty\"", r#""x\ty""#),
            ("\"\u{1f}\"", r#""\u001f""#),
        ] {
            let err = parse(raw).unwrap_err();
            assert!(err.to_string().contains("control"), "{raw:?}: {err}");
            assert!(parse(escaped).is_ok(), "escaped form {escaped} rejected");
        }
        // 0x20 (space) and 0x7F (DEL) are not control characters per the
        // grammar and stay accepted raw.
        assert_eq!(parse("\" \u{7f} \"").unwrap().as_str(), Some(" \u{7f} "));
    }

    #[test]
    fn rejects_lone_and_malformed_surrogate_escapes() {
        for bad in [
            r#""\udc00""#,       // lone low surrogate
            r#""\ud83d""#,       // lone high surrogate at end of string
            r#""\ud83dx""#,      // high surrogate followed by a plain char
            r#""\ud83d\ud83d""#, // high surrogate followed by another high
            r#""\ud83d\n""#,     // high surrogate followed by a short escape
            r#""\u12""#,         // truncated hex
            r#""\uD8ZZ\uDE00""#, // non-hex digits
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
        // Case-insensitive hex in a valid pair still decodes.
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    /// `\uXXXX`-escape every scalar value of `s`, using surrogate pairs for
    /// astral-plane characters — the adversarial encoding the writer never
    /// produces but the decoder must accept.
    fn fully_escaped(s: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("\"");
        for c in s.chars() {
            let cp = c as u32;
            if cp <= 0xFFFF {
                write!(out, "\\u{cp:04x}").unwrap();
            } else {
                let v = cp - 0x1_0000;
                write!(
                    out,
                    "\\u{:04x}\\u{:04x}",
                    0xD800 + (v >> 10),
                    0xDC00 + (v & 0x3FF)
                )
                .unwrap();
            }
        }
        out.push('"');
        out
    }

    /// Mix of ASCII/control, BMP, and full-range code points so control
    /// characters and astral-plane characters both appear often, not once in
    /// a million draws.
    fn arb_string() -> impl Strategy<Value = String> {
        (
            proptest::collection::vec(0u32..=0x7F, 0..=12),
            proptest::collection::vec(0u32..=0xFFFF, 0..=12),
            proptest::collection::vec(0u32..=0x0011_0000, 0..=12),
        )
            .prop_map(|(ascii, bmp, full)| {
                ascii
                    .into_iter()
                    .chain(bmp)
                    .chain(full)
                    // Drops surrogates (not Rust chars) and the one
                    // out-of-range value; everything else survives.
                    .filter_map(char::from_u32)
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_strings_round_trip_through_the_codec(s in arb_string()) {
            let compact = Json::String(s.clone()).to_text();
            prop_assert_eq!(parse(&compact).unwrap().as_str(), Some(s.as_str()));
            let pretty = Json::String(s.clone()).to_text_pretty();
            prop_assert_eq!(parse(pretty.trim_end()).unwrap().as_str(), Some(s.as_str()));
        }

        #[test]
        fn fully_escaped_strings_decode_to_the_original(s in arb_string()) {
            prop_assert_eq!(parse(&fully_escaped(&s)).unwrap().as_str(), Some(s.as_str()));
        }
    }
}
