//! A minimal JSON reader for feed records and checkpoints.
//!
//! The workspace has no serialisation dependency, and the only other
//! JSON code is the *writer* in `airguard_obs::JsonObject` — so the
//! live service brings its own parser. It reads exactly the JSON the
//! workspace emits (single-line objects with string/number/bool/null
//! fields, nested objects and arrays) plus standard escapes, and turns
//! every malformed input into a typed error instead of a panic: a
//! garbage byte on the feed must become a quarantined record, never a
//! crashed shard.
//!
//! One grammar serves two readers:
//!
//! * `scan_fields` walks the top-level fields of one object and hands
//!   each to a visitor as a borrowed `Field` — strings without
//!   escapes are slices of the input, nested values are validated and
//!   passed as their source text. Feed records and checkpoint station
//!   lines decode through it without building a tree.
//! * [`JsonValue::parse`] builds an owned tree, for the checkpoint meta
//!   line and for callers that want random access.
//!
//! Both share the lexer, the depth limit and the trailing-bytes rule,
//! so they accept and reject exactly the same texts.

use std::borrow::Cow;
use std::collections::BTreeMap;

/// Maximum nesting depth accepted before a value is rejected: feed
/// records are flat, checkpoints nest twice, so anything deep is either
/// corruption or an attack on the parser's stack.
const MAX_DEPTH: u32 = 32;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number; `u64` extraction checks integer-ness.
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Key order is not preserved; feed schemas never repeat
    /// keys, and a repeated key keeps the last value.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (a feed line must be exactly one record).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        expect_end(text.as_bytes(), pos)?;
        Ok(value)
    }

    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a finite float.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => finite(*n),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer. Rejects fractions,
    /// negatives, and magnitudes beyond 2^53 (where `f64` stops
    /// representing every integer, so "exact" can no longer be
    /// promised).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// One top-level field of a scanned object, borrowed from the input.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Field<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string; borrowed unless it contained escapes.
    Str(Cow<'a, str>),
    /// An array or object, validated and kept as its source text.
    Nested(&'a str),
}

impl Field<'_> {
    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a finite float (same rule as [`JsonValue::as_f64`]).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Field::Num(n) => finite(*n),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer (same rule as
    /// [`JsonValue::as_u64`]).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Field::Num(n) => exact_u64(*n),
            _ => None,
        }
    }
}

/// Scans one complete JSON value and hands every top-level field of it
/// to `visit`, in input order, without building a tree. A repeated key
/// is visited once per occurrence, so a visitor that overwrites keeps
/// the last value, as [`JsonValue::parse`] does. A well-formed value
/// that is not an object is validated and has no fields to visit.
/// Accepts and rejects exactly the texts [`JsonValue::parse`] does.
pub(crate) fn scan_fields<'a>(
    text: &'a str,
    mut visit: impl FnMut(&str, Field<'a>),
) -> Result<(), String> {
    let mut pos = 0;
    skip_ws(text.as_bytes(), &mut pos);
    if text.as_bytes().get(pos) == Some(&b'{') {
        parse_members(text, &mut pos, |key, pos| {
            visit(&key, parse_field(text, pos, 1)?);
            Ok(())
        })?;
    } else {
        parse_value(text, &mut pos, 0)?;
    }
    expect_end(text.as_bytes(), pos)
}

/// Reads an array of numbers, such as a `Field::Nested` value.
pub(crate) fn parse_f64_array(text: &str) -> Result<Vec<f64>, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'[') {
        return Err("expected an array of numbers".into());
    }
    let mut items = Vec::new();
    parse_elements(text, &mut pos, |pos| match parse_field(text, pos, 1)? {
        Field::Num(n) => {
            items.push(n);
            Ok(())
        }
        _ => Err(format!("expected a number before offset {pos}", pos = *pos)),
    })?;
    expect_end(bytes, pos)?;
    Ok(items)
}

/// `Some(n)` when `n` is finite.
fn finite(n: f64) -> Option<f64> {
    n.is_finite().then_some(n)
}

/// `n` as an exact integer in `[0, 2^53]`.
fn exact_u64(n: f64) -> Option<u64> {
    // 2^53, where `f64` stops representing every integer.
    const EXACT_MAX: f64 = 9_007_199_254_740_992.0;

    // `n == n.trunc()` is an exact integral test, not a tolerance
    // question: truncation either returns the same representation (no
    // fraction) or a different one.
    #[allow(clippy::float_cmp)]
    if (0.0..=EXACT_MAX).contains(&n) && n == n.trunc() {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(n as u64)
    } else {
        None
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

/// The trailing-bytes rule: only whitespace may follow the value.
fn expect_end(bytes: &[u8], mut pos: usize) -> Result<(), String> {
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(format!("trailing bytes after value at offset {pos}"))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: u32) -> Result<JsonValue, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(text, pos, depth),
        Some(b'[') => parse_array(text, pos, depth),
        Some(b'"') => parse_string(text, pos).map(|s| JsonValue::Str(s.into_owned())),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(text, pos).map(JsonValue::Num),
        Some(b) => Err(format!(
            "unexpected byte 0x{b:02x} at offset {pos}",
            pos = *pos
        )),
    }
}

/// One field value for [`scan_fields`]: strings and numbers are lexed
/// in place; literals, containers and every error go through
/// [`parse_value`], so the grammar and its messages are the tree's.
fn parse_field<'a>(text: &'a str, pos: &mut usize, depth: u32) -> Result<Field<'a>, String> {
    skip_ws(text.as_bytes(), pos);
    let start = *pos;
    match text.as_bytes().get(*pos) {
        Some(b'"') => parse_string(text, pos).map(Field::Str),
        Some(b'-' | b'0'..=b'9') => parse_number(text, pos).map(Field::Num),
        _ => Ok(match parse_value(text, pos, depth)? {
            JsonValue::Null => Field::Null,
            JsonValue::Bool(b) => Field::Bool(b),
            _ => Field::Nested(&text[start..*pos]),
        }),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at offset {pos}", pos = *pos))
    }
}

fn parse_number(text: &str, pos: &mut usize) -> Result<f64, String> {
    let bytes = text.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes
        .get(*pos)
        .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    // Every byte consumed is ASCII, so the slice is on char boundaries.
    let number = &text[start..*pos];
    match number.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(n),
        _ => Err(format!("malformed number `{number}` at offset {start}")),
    }
}

/// Lexes the string whose opening quote is at `*pos`. Runs of plain
/// bytes are taken as whole slices: the input is a `&str`, and the
/// bytes that end a run (`"`, `\`, controls) are ASCII, so every run
/// starts and ends on a char boundary. The result borrows from `text`
/// unless an escape forced a copy.
fn parse_string<'a>(text: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, String> {
    let bytes = text.as_bytes();
    *pos += 1; // opening quote
    let mut owned: Option<String> = None;
    loop {
        let start = *pos;
        while bytes
            .get(*pos)
            .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
        {
            *pos += 1;
        }
        let run = &text[start..*pos];
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            Some(b'\\') => {
                let out = owned.get_or_insert_with(String::new);
                out.push_str(run);
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        out.push(parse_unicode_escape(bytes, *pos + 1)?);
                        *pos += 4;
                    }
                    _ => return Err("bad escape in string".into()),
                }
                *pos += 1;
            }
            Some(_) => return Err("raw control byte in string".into()),
        }
    }
}

/// The four hex digits of a `\u` escape starting at `at`: exactly four
/// ASCII hex digits, with no sign (`u32::from_str_radix` alone would
/// take `+041`).
fn parse_unicode_escape(bytes: &[u8], at: usize) -> Result<char, String> {
    let hex = bytes
        .get(at..at + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or_else(|| "truncated \\u escape".to_owned())?;
    let code = u32::from_str_radix(hex, 16)
        .ok()
        .filter(|_| hex.bytes().all(|b| b.is_ascii_hexdigit()))
        .ok_or_else(|| format!("bad \\u escape `{hex}`"))?;
    // Surrogates are rejected rather than paired: the workspace's
    // writer never emits them.
    char::from_u32(code).ok_or_else(|| format!("\\u{hex} is not a scalar value"))
}

/// Walks the elements of the array whose `[` is at `*pos`; `element`
/// parses one element at the cursor.
fn parse_elements(
    text: &str,
    pos: &mut usize,
    mut element: impl FnMut(&mut usize) -> Result<(), String>,
) -> Result<(), String> {
    let bytes = text.as_bytes();
    *pos += 1; // '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        element(pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_array(text: &str, pos: &mut usize, depth: u32) -> Result<JsonValue, String> {
    let mut items = Vec::new();
    parse_elements(text, pos, |pos| {
        items.push(parse_value(text, pos, depth + 1)?);
        Ok(())
    })?;
    Ok(JsonValue::Arr(items))
}

/// Walks the members of the object whose `{` is at `*pos`: lexes each
/// key and its `:`, then `member` parses the value at the cursor.
fn parse_members<'a>(
    text: &'a str,
    pos: &mut usize,
    mut member: impl FnMut(Cow<'a, str>, &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    let bytes = text.as_bytes();
    *pos += 1; // '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}", pos = *pos));
        }
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at offset {pos}", pos = *pos));
        }
        *pos += 1;
        member(key, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: u32) -> Result<JsonValue, String> {
    let mut map = BTreeMap::new();
    parse_members(text, pos, |key, pos| {
        map.insert(key.into_owned(), parse_value(text, pos, depth + 1)?);
        Ok(())
    })?;
    Ok(JsonValue::Obj(map))
}

#[cfg(test)]
mod tests {
    use super::{parse_f64_array, scan_fields, Field, JsonValue};
    use std::borrow::Cow;

    #[test]
    fn parses_a_feed_record() {
        let line = r#"{"t_us":1250,"node":0,"cat":"monitor","event":"backoff_assigned","src":3,"assigned_slots":14.5,"observed_slots":2,"xid":77}"#;
        let v = JsonValue::parse(line).expect("valid record");
        assert_eq!(v.get("t_us").and_then(JsonValue::as_u64), Some(1250));
        assert_eq!(v.get("src").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            v.get("assigned_slots").and_then(JsonValue::as_f64),
            Some(14.5)
        );
        assert_eq!(v.get("cat").and_then(JsonValue::as_str), Some("monitor"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn round_trips_obs_writer_output() {
        let mut obj = airguard_obs::JsonObject::new();
        obj.str("label", "a \"quoted\" λ label")
            .u64("seed", u64::from(u32::MAX))
            .f64("score", 0.30000000000000004)
            .bool("on", true)
            .raw("xs", "[1,2,3]");
        let text = obj.finish();
        let v = JsonValue::parse(&text).expect("writer output parses");
        assert_eq!(
            v.get("label").and_then(JsonValue::as_str),
            Some("a \"quoted\" λ label")
        );
        assert_eq!(
            v.get("score").and_then(JsonValue::as_f64),
            Some(0.30000000000000004)
        );
        assert_eq!(
            v.get("xs").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(3)
        );
    }

    #[test]
    fn u64_extraction_rejects_fractions_negatives_and_giants() {
        assert_eq!(JsonValue::Num(1.5).as_u64(), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Num(1e300).as_u64(), None);
        assert_eq!(JsonValue::Num(0.0).as_u64(), Some(0));
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1,2",
            "\"unterminated",
            "tru",
            "1e999",
            "nan",
            "{\"a\":1} trailing",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"\\u+041\"}",
            "\u{1}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn depth_limit_rejects_pathological_nesting() {
        let deep = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(JsonValue::parse(&deep).is_err());
        let ok = format!("{}1{}", "[".repeat(8), "]".repeat(8));
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn escapes_resolve() {
        let v = JsonValue::parse(r#""a\\b\n\t\u0041""#).expect("escapes");
        assert_eq!(v.as_str(), Some("a\\b\n\tA"));
    }

    fn fields(text: &str) -> Result<Vec<(String, Field<'_>)>, String> {
        let mut out = Vec::new();
        scan_fields(text, |key, value| out.push((key.to_owned(), value)))?;
        Ok(out)
    }

    #[test]
    fn scan_borrows_plain_strings_and_owns_escaped_ones() {
        let got = fields(r#"{"cat":"monitor","k\u0065y":"a\nb","n":-0,"ok":true,"z":null}"#)
            .expect("valid object");
        assert!(matches!(&got[0].1, Field::Str(Cow::Borrowed("monitor"))));
        assert_eq!(got[1].0, "key");
        assert!(matches!(&got[1].1, Field::Str(Cow::Owned(s)) if s == "a\nb"));
        assert_eq!(got[2].1.as_u64(), Some(0));
        assert_eq!(got[3].1, Field::Bool(true));
        assert_eq!(got[4].1, Field::Null);
    }

    #[test]
    fn scan_visits_repeats_and_passes_nested_values_as_text() {
        let got = fields(r#" {"a":1,"xs":[1, {"b":[]}],"a":2} "#).expect("valid object");
        let keys: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "xs", "a"]);
        assert_eq!(got[1].1, Field::Nested(r#"[1, {"b":[]}]"#));
        assert_eq!(got[2].1.as_f64(), Some(2.0));
        // A well-formed non-object has no fields.
        assert!(fields("[1,2]").expect("valid array").is_empty());
        assert!(fields("\"s\"").expect("valid string").is_empty());
    }

    #[test]
    fn scan_and_tree_reject_the_same_texts() {
        let deep = format!("{{\"a\":{}1{}}}", "[".repeat(40), "]".repeat(40));
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1} trailing",
            "{\"a\":[1,]}",
            "{\"a\":\"\\u+041\"}",
            "{\"a\":1e999}",
            "{\"a\":tru}",
            "[1",
            deep.as_str(),
        ] {
            assert!(JsonValue::parse(bad).is_err(), "tree accepted: {bad:?}");
            assert!(fields(bad).is_err(), "scan accepted: {bad:?}");
        }
    }

    #[test]
    fn number_arrays_read_back_exactly() {
        assert_eq!(
            parse_f64_array("[4, -1.5,0.30000000000000004]"),
            Ok(vec![4.0, -1.5, 0.300_000_000_000_000_04])
        );
        assert_eq!(parse_f64_array("[]"), Ok(Vec::new()));
        for bad in ["{}", "[1,\"2\"]", "[[1]]", "[1,]", "[1] x", "1"] {
            assert!(parse_f64_array(bad).is_err(), "accepted: {bad:?}");
        }
    }
}
