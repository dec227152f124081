//! Decode equivalence: the borrowed field scan behind
//! [`decode_line`] classifies every feed line exactly as the tree
//! decoder it replaced did.
//!
//! The oracle below is the earlier decode path, kept verbatim: a full
//! `JsonValue` tree built by a char-at-a-time lexer, then read with
//! `get`/`as_*`. For every input the new decoder must give the same
//! class — observation, skip or malformed — and, for observations,
//! bit-identical fields. The one intended difference is the oracle's
//! lenient `\u+041` escape, asserted on its own at the end.

use airguard_core::SourceError;
use airguard_fault::Corruption;
use airguard_live::replay::decode_line;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The earlier tree decoder, unchanged apart from living here.
mod oracle {
    use airguard_live::json::JsonValue;
    use std::collections::BTreeMap;

    const MAX_DEPTH: u32 = 32;
    const MAX_SLOTS: f64 = 1_000_000.0;

    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes after value at offset {pos}"));
        }
        Ok(value)
    }

    fn get<'v>(value: &'v JsonValue, key: &str) -> Option<&'v JsonValue> {
        match value {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    fn as_str(value: &JsonValue) -> Option<&str> {
        match value {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(value: &JsonValue) -> Option<f64> {
        match value {
            JsonValue::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    #[allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    fn as_u64(value: &JsonValue) -> Option<u64> {
        const EXACT_MAX: f64 = 9_007_199_254_740_992.0; // 2^53
        match value {
            JsonValue::Num(n)
                if n.is_finite() && *n >= 0.0 && *n <= EXACT_MAX && *n == n.trunc() =>
            {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// `(t_us, station, assigned_slots, observed_slots)`.
    pub type Obs = (u64, u32, f64, f64);

    fn observation_from_record(value: &JsonValue) -> Result<Option<Obs>, String> {
        let is_backoff = get(value, "cat").and_then(as_str) == Some("monitor")
            && get(value, "event").and_then(as_str) == Some("backoff_assigned");
        if !is_backoff {
            return Ok(None);
        }
        let t_us = get(value, "t_us")
            .and_then(as_u64)
            .ok_or("missing or out-of-range `t_us`")?;
        let station = get(value, "src")
            .and_then(as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or("missing or out-of-range `src`")?;
        let assigned_slots = get(value, "assigned_slots")
            .and_then(as_f64)
            .ok_or("missing or non-finite `assigned_slots`")?;
        let observed_slots = get(value, "observed_slots")
            .and_then(as_f64)
            .ok_or("missing or non-finite `observed_slots`")?;
        if !(0.0..=MAX_SLOTS).contains(&assigned_slots)
            || !(0.0..=MAX_SLOTS).contains(&observed_slots)
        {
            return Err("slot count outside [0, 1e6]".into());
        }
        Ok(Some((t_us, station, assigned_slots, observed_slots)))
    }

    pub fn decode_line(bytes: &[u8]) -> Result<Option<Obs>, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "non-UTF-8 feed line".to_owned())?;
        if text.trim().is_empty() {
            return Ok(None);
        }
        let value = parse(text.trim_end()).map_err(|e| format!("malformed record: {e}"))?;
        observation_from_record(&value)
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

    fn parse_value(bytes: &[u8], pos: &mut usize, depth: u32) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => parse_object(bytes, pos, depth),
            Some(b'[') => parse_array(bytes, pos, depth),
            Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
            Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
            Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
            Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
            Some(b) if *b == b'-' || b.is_ascii_digit() => parse_number(bytes, pos),
            Some(b) => Err(format!(
                "unexpected byte 0x{b:02x} at offset {pos}",
                pos = *pos
            )),
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

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
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
        let text = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|_| format!("non-UTF-8 number at offset {start}"))?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Num(n)),
            _ => Err(format!("malformed number `{text}` at offset {start}")),
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        *pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
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
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            // Surrogates are rejected rather than paired: the
                            // workspace's writer never emits them.
                            let ch = char::from_u32(code)
                                .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                            out.push(ch);
                            *pos += 4;
                        }
                        _ => return Err("bad escape in string".into()),
                    }
                    *pos += 1;
                }
                Some(&b) if b < 0x20 => return Err("raw control byte in string".into()),
                Some(_) => {
                    // Copy one UTF-8 scalar; invalid UTF-8 is an error.
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| "non-UTF-8 bytes in string".to_owned())?;
                    let ch = rest
                        .chars()
                        .next()
                        .ok_or_else(|| "empty string tail".to_owned())?;
                    out.push(ch);
                    *pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize, depth: u32) -> Result<JsonValue, String> {
        *pos += 1; // '['
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(parse_value(bytes, pos, depth + 1)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => {
                    *pos += 1;
                }
                Some(b']') => {
                    *pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize, depth: u32) -> Result<JsonValue, String> {
        *pos += 1; // '{'
        let mut map = BTreeMap::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b'"') {
                return Err(format!("expected object key at offset {pos}", pos = *pos));
            }
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b':') {
                return Err(format!("expected `:` at offset {pos}", pos = *pos));
            }
            *pos += 1;
            let value = parse_value(bytes, pos, depth + 1)?;
            map.insert(key, value);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => {
                    *pos += 1;
                }
                Some(b'}') => {
                    *pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
            }
        }
    }
}

/// The decoder's verdict on one line, with floats as raw bits so that
/// `-0`, rounding and every other representation detail must match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Obs(u64, u32, u64, u64),
    Skip,
    Malformed,
}

fn new_class(line: &[u8]) -> Class {
    match decode_line(line) {
        Ok(Some(o)) => Class::Obs(
            o.t_us,
            o.station,
            o.assigned_slots.to_bits(),
            o.observed_slots.to_bits(),
        ),
        Ok(None) => Class::Skip,
        Err(SourceError::Malformed(_)) => Class::Malformed,
        Err(SourceError::Transport(e)) => panic!("decode_line reported a transport error: {e}"),
    }
}

fn oracle_class(line: &[u8]) -> Class {
    match oracle::decode_line(line) {
        Ok(Some((t_us, station, assigned, observed))) => {
            Class::Obs(t_us, station, assigned.to_bits(), observed.to_bits())
        }
        Ok(None) => Class::Skip,
        Err(_) => Class::Malformed,
    }
}

fn assert_same(line: &[u8]) -> Class {
    let class = new_class(line);
    assert_eq!(
        class,
        oracle_class(line),
        "decoders disagree on {:?}",
        String::from_utf8_lossy(line)
    );
    class
}

fn record(t_us: u64, src: u32, assigned: f64, observed: f64) -> String {
    format!(
        "{{\"t_us\":{t_us},\"node\":0,\"cat\":\"monitor\",\"event\":\"backoff_assigned\",\"src\":{src},\"assigned_slots\":{assigned},\"observed_slots\":{observed},\"xid\":1}}"
    )
}

#[test]
fn every_prefix_of_a_canonical_record_decodes_alike() {
    let line = record(1_250, 3, 14.5, 2.0);
    let mut classes = [0usize; 3];
    for cut in 0..=line.len() {
        for suffix in ["", "\n", "\r\n"] {
            let mut bytes = line.as_bytes()[..cut].to_vec();
            bytes.extend_from_slice(suffix.as_bytes());
            match assert_same(&bytes) {
                Class::Obs(..) => classes[0] += 1,
                Class::Skip => classes[1] += 1,
                Class::Malformed => classes[2] += 1,
            }
        }
    }
    // The full line decodes, the empty prefix skips, the rest are torn.
    assert_eq!(classes, [3, 3, 3 * (line.len() - 1)]);
}

#[test]
fn escaped_keys_and_values_decode_alike() {
    let obs = Class::Obs(10, 3, 14f64.to_bits(), 2f64.to_bits());
    for line in [
        r#"{"c\u0061t":"monitor","event":"backoff_assigned","t_us":10,"src":3,"assigned_slots":14,"observed_slots":2}"#,
        r#"{"cat":"\u006donitor","event":"backoff_assigned","t_us":10,"src":3,"assigned_slots":14,"observed_slots":2}"#,
        r#"{"cat":"\u006Donitor","ev\u0065nt":"backoff\u005fassigned","t_us":10,"src":3,"assigned_slots":14,"observed_slots":2}"#,
        r#"{"cat":"monitor","event":"backoff_assigned","t_us":10,"\u0073rc":3,"assigned_slots":14,"observed_slots":2,"note":"tab\there \"q\" \\ \/ λ \u00e9"}"#,
    ] {
        assert_eq!(assert_same(line.as_bytes()), obs, "{line}");
    }
    for line in [
        // An escape that changes the value: not `monitor`, so skipped.
        r#"{"cat":"monitor\n","event":"backoff_assigned","t_us":10,"src":3,"assigned_slots":14,"observed_slots":2}"#,
        r#"{"cat":"m\u00f6nitor","event":"backoff_assigned"}"#,
    ] {
        assert_eq!(assert_same(line.as_bytes()), Class::Skip, "{line}");
    }
    for line in [
        r#"{"cat":"monitor","event":"backoff_assigned","t_us":10,"src":3,"assigned_slots":14,"observed_slots":2,"x":"\ud800"}"#,
        r#"{"cat":"monitor","event":"backoff_assigned","t_us":10,"src":3,"assigned_slots":14,"observed_slots":2,"x":"\u00"}"#,
        r#"{"cat":"monitor","event":"backoff_assigned","t_us":10,"src":3,"assigned_slots":14,"observed_slots":2,"x":"\x"}"#,
        "{\"cat\":\"mon\titor\"}",
    ] {
        assert_eq!(assert_same(line.as_bytes()), Class::Malformed, "{line}");
    }
}

#[test]
fn duplicate_keys_keep_the_last_value() {
    let base = r#""event":"backoff_assigned","t_us":10,"assigned_slots":14,"observed_slots":2"#;
    let cases = [
        (
            format!(r#"{{"cat":"monitor","src":3,{base},"src":4}}"#),
            Class::Obs(10, 4, 14f64.to_bits(), 2f64.to_bits()),
        ),
        (
            format!(r#"{{"cat":"monitor","src":3,{base},"cat":5}}"#),
            Class::Skip,
        ),
        (
            format!(r#"{{"cat":"mac","src":3,{base},"cat":"monitor"}}"#),
            Class::Obs(10, 3, 14f64.to_bits(), 2f64.to_bits()),
        ),
        (
            format!(r#"{{"cat":"monitor","src":3,{base},"t_us":"soon"}}"#),
            Class::Malformed,
        ),
        (
            format!(r#"{{"cat":"monitor","src":3,{base},"observed_slots":[2]}}"#),
            Class::Malformed,
        ),
        (
            format!(
                r#"{{"cat":"monitor","src":3,{base},"observed_slots":null,"observed_slots":1.5}}"#
            ),
            Class::Obs(10, 3, 14f64.to_bits(), 1.5f64.to_bits()),
        ),
    ];
    for (line, want) in cases {
        assert_eq!(assert_same(line.as_bytes()), want, "{line}");
    }
}

#[test]
fn nested_unknown_fields_are_validated_and_ignored() {
    let head = r#"{"cat":"monitor","event":"backoff_assigned","t_us":10,"src":3,"assigned_slots":14,"observed_slots":2"#;
    let obs = Class::Obs(10, 3, 14f64.to_bits(), 2f64.to_bits());
    for tail in [
        r#","extra":{"a":[1,{"b":null}],"c":"d"}}"#,
        r#","xs":[],"o":{},"t":true,"f":false,"z":null}"#,
        r#","deep":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}"#,
    ] {
        assert_eq!(
            assert_same(format!("{head}{tail}").as_bytes()),
            obs,
            "{tail}"
        );
    }
    let too_deep = format!(",\"deep\":{}1{}}}", "[".repeat(32), "]".repeat(32));
    for tail in [
        r#","extra":{"a":[1,}}"#,
        r#","extra":{"a" 1}}"#,
        r#","extra":[tru]}"#,
        too_deep.as_str(),
    ] {
        assert_eq!(
            assert_same(format!("{head}{tail}").as_bytes()),
            Class::Malformed,
            "{tail}"
        );
    }
    // Well-formed JSON that is not an object is some other telemetry.
    for line in ["[1,2,3]", "\"monitor\"", "42", "null", "{}"] {
        assert_eq!(assert_same(line.as_bytes()), Class::Skip, "{line}");
    }
}

#[test]
fn surrounding_whitespace_decodes_alike() {
    let line = record(10, 3, 14.0, 2.0);
    for (lead, trail) in [
        (" \t", " \r\n"),
        ("\r\n", "\n\n"),
        ("", "\u{a0}"),
        ("\u{a0}", ""),
        ("", " \u{2003}\n"),
        ("\u{feff}", ""),
    ] {
        assert_same(format!("{lead}{line}{trail}").as_bytes());
    }
    for blank in ["", "\n", " \t\r\n", "\u{a0}\n", "\u{3000}"] {
        assert_eq!(assert_same(blank.as_bytes()), Class::Skip, "{blank:?}");
    }
}

#[test]
fn numeric_edge_cases_decode_alike() {
    let with = |t_us: &str, src: &str, assigned: &str, observed: &str| {
        format!(
            r#"{{"cat":"monitor","event":"backoff_assigned","t_us":{t_us},"src":{src},"assigned_slots":{assigned},"observed_slots":{observed}}}"#
        )
    };
    let two53 = 9_007_199_254_740_992u64;
    let cases = [
        (with("10", "3", "1e999", "2"), Some(Class::Malformed)),
        (
            with("10", "3", "14", "-0"),
            Some(Class::Obs(10, 3, 14f64.to_bits(), (-0f64).to_bits())),
        ),
        (
            with("-0", "3", "14", "2"),
            Some(Class::Obs(0, 3, 14f64.to_bits(), 2f64.to_bits())),
        ),
        (
            with("9007199254740993", "3", "14", "2"),
            Some(Class::Obs(two53, 3, 14f64.to_bits(), 2f64.to_bits())),
        ),
        (
            with("9007199254740994", "3", "14", "2"),
            Some(Class::Malformed),
        ),
        (with("10.5", "3", "14", "2"), Some(Class::Malformed)),
        (with("1e1", "4294967295", "1e6", "0.1"), None),
        (with("10", "4294967296", "14", "2"), Some(Class::Malformed)),
        (with("10", "3", "1000000.0000000001", "2"), None),
        (with("10", "3", "-1e-320", "2"), Some(Class::Malformed)),
        (with("10", "3", "14", "2e-400"), None),
        (with("10", "3", "01", "2"), None),
        (with("10", "3", "1.", "2"), None),
        (with("10", "3", "-", "2"), Some(Class::Malformed)),
        (with("10", "3", "1e+2", "2E-1"), None),
        (with("10", "3", "0x10", "2"), Some(Class::Malformed)),
        (with("10", "3", "1-2", "2"), Some(Class::Malformed)),
    ];
    for (line, want) in cases {
        let got = assert_same(line.as_bytes());
        if let Some(want) = want {
            assert_eq!(got, want, "{line}");
        }
    }
}

#[test]
fn non_utf8_and_other_telemetry_decode_alike() {
    let line = record(10, 3, 14.0, 2.0);
    for bad in [
        vec![0xFF, 0xFE, b'{', 0x80],
        [line.as_bytes(), &[0xC3]].concat(),
        [&[0xC3], line.as_bytes()].concat(),
        line.replace("monitor", "moni\u{0}tor").into_bytes(),
        line.replacen("\"node\":0", "\"node\":\"\u{e9}\u{1F600}\"", 1)
            .into_bytes(),
    ] {
        assert_same(&bad);
    }
    for other in [
        r#"{"t_us":5,"node":1,"cat":"mac","event":"rts_tx","dst":2,"seq":0,"attempt":1,"xid":9}"#,
        r#"{"t_us":5,"node":1,"cat":"monitor","event":"penalty_added","src":2,"penalty":3}"#,
        r#"{"t_us":5,"cat":"monitor","event":"backoff_assigned_v2","src":2}"#,
        r#"{"t_us":"x","cat":"monitor","event":"BACKOFF_ASSIGNED"}"#,
    ] {
        assert_eq!(assert_same(other.as_bytes()), Class::Skip, "{other}");
    }
}

/// Damages a canonical record the way the malformed-feed soak does,
/// driven by a fault-crate [`Corruption`] plan: `backoff_prob` pushes a
/// slot count out of range, `attempt_prob` shreds the line.
fn corrupt(line: &str, plan: &Corruption, rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = line.as_bytes().to_vec();
    let roll: f64 = rng.random_range(0.0..1.0);
    if roll < plan.backoff_prob {
        let bad = 1_000_001.0 + f64::from(rng.random_range(0..=plan.backoff_max_delta));
        return record(1, 3, bad, bad).into_bytes();
    }
    if roll < plan.backoff_prob + plan.attempt_prob {
        match rng.random_range(0..=plan.attempt_max_delta) % 3 {
            0 => bytes.truncate(bytes.len() / 2),
            1 => bytes = vec![0xFF, 0xFE, b'{', 0x80],
            _ => bytes = b"{\"t_us\":not json at all".to_vec(),
        }
        return bytes;
    }
    // Otherwise a single flipped, dropped or inserted byte anywhere.
    let at = rng.random_range(0..bytes.len());
    match rng.random_range(0u8..3) {
        0 => bytes[at] ^= 1 << rng.random_range(0u32..8),
        1 => {
            bytes.remove(at);
        }
        _ => bytes.insert(at, rng.random_range(0u8..=255)),
    }
    bytes
}

/// Field values that exercise each rule of the schema and the grammar.
const VALUES: &[&str] = &[
    "0",
    "-0",
    "7",
    "14.5",
    "1e6",
    "1e999",
    "-1",
    "4294967296",
    "9007199254740993",
    "0.1",
    "\"monitor\"",
    "\"backoff_assigned\"",
    "\"\\u006donitor\"",
    "\"a\\\"b\"",
    "true",
    "null",
    "[1,2]",
    "{\"k\":[{}]}",
    "\"\"",
    "\"λ\"",
];

const KEYS: &[&str] = &[
    "cat",
    "event",
    "t_us",
    "src",
    "assigned_slots",
    "observed_slots",
    "node",
    "xid",
    "c\\u0061t",
    "src ",
    "",
];

const SPACE: &[&str] = &["", " ", "\t", "\r\n", "  "];

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn corrupted_records_decode_alike(
        seed in any::<u64>(),
        t_us in 0u64..2_000_000,
        src in 0u32..1_000,
        assigned in 0u32..64,
        observed in 0u32..64,
    ) {
        let plan = Corruption {
            backoff_prob: 0.1,
            backoff_max_delta: 2_000,
            attempt_prob: 0.2,
            attempt_max_delta: 5,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let line = record(t_us, src, f64::from(assigned), f64::from(observed) / 4.0);
        for _ in 0..8 {
            assert_same(&corrupt(&line, &plan, &mut rng));
        }
    }

    #[test]
    fn generated_records_decode_alike(
        fields in proptest::collection::vec((0..KEYS.len(), 0..VALUES.len(), 0..SPACE.len()), 0..10),
        schema in proptest::collection::vec((0..VALUES.len(), any::<bool>()), 6..7),
        flip in (any::<bool>(), any::<u16>(), any::<u8>()),
    ) {
        // The six schema fields (each sometimes valid, sometimes a
        // random value), then unknown, duplicate or escaped extras.
        let valid = ["\"monitor\"", "\"backoff_assigned\"", "125", "3", "14", "2.5"];
        let mut members = Vec::new();
        for (i, (value, keep)) in schema.iter().enumerate() {
            let value = if *keep { valid[i] } else { VALUES[*value] };
            members.push(format!("\"{}\":{value}", KEYS[i]));
        }
        for (key, value, space) in &fields {
            let ws = SPACE[*space];
            members.push(format!("{ws}\"{}\"{ws}:{ws}{}{ws}", KEYS[*key], VALUES[*value]));
        }
        let mut line = format!("{{{}}}", members.join(",")).into_bytes();
        let (do_flip, at, byte) = flip;
        if do_flip {
            let at = usize::from(at) % line.len();
            line[at] = byte;
        }
        assert_same(&line);
    }
}

#[test]
fn lenient_plus_sign_escape_is_now_rejected() {
    // `u32::from_str_radix` takes a leading `+`, so the tree decoder
    // read `\u+041` as `A`. Exactly four hex digits are required now.
    let line = r#"{"cat":"monitor","event":"backoff_assigned","t_us":10,"src":3,"assigned_slots":14,"observed_slots":2,"node":"\u+041"}"#;
    assert_eq!(
        oracle_class(line.as_bytes()),
        Class::Obs(10, 3, 14f64.to_bits(), 2f64.to_bits())
    );
    assert_eq!(new_class(line.as_bytes()), Class::Malformed);
}
