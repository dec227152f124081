//! Minimal hand-rolled JSON writer.
//!
//! The workspace has no serialisation dependency, so the exporters
//! serialise by hand. Only what the JSONL/report schema needs
//! is implemented: objects with string/integer/float/bool/raw fields,
//! and correct string escaping.

use std::fmt::Write as _;

/// Incremental builder for a single-line JSON object.
///
/// ```
/// use airguard_obs::JsonObject;
///
/// let mut obj = JsonObject::new();
/// obj.str("name", "run \"a\"").u64("seed", 7).bool("ok", true);
/// assert_eq!(obj.finish(), r#"{"name":"run \"a\"","seed":7,"ok":true}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, key: &str) -> &mut Self {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push('"');
        escape_into(key, &mut self.buf);
        self.buf.push_str("\":");
        self
    }

    /// Adds a string field (escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        escape_into(value, &mut self.buf);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field. Non-finite values become `null` (JSON has
    /// no NaN/Infinity). Rust's shortest-round-trip formatting is
    /// deterministic, so identical inputs serialise identically.
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-serialised JSON value verbatim (nested object/array).
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Serialises a `u64` slice as a JSON array.
#[must_use]
pub fn u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// Appends `s` to `out` with JSON string escaping.
pub fn escape_into(s: &str, out: &mut String) {
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
}

#[cfg(test)]
mod tests {
    use super::{u64_array, JsonObject};

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        let mut obj = JsonObject::new();
        obj.str("k", "a\"b\\c\nd\u{1}");
        assert_eq!(obj.finish(), "{\"k\":\"a\\\"b\\\\c\\nd\\u0001\"}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut obj = JsonObject::new();
        obj.f64("x", f64::NAN).f64("y", 1.5);
        assert_eq!(obj.finish(), r#"{"x":null,"y":1.5}"#);
    }

    #[test]
    fn arrays_and_raw_nesting() {
        let mut obj = JsonObject::new();
        obj.raw("counts", &u64_array(&[1, 2, 3]));
        assert_eq!(obj.finish(), r#"{"counts":[1,2,3]}"#);
        assert_eq!(u64_array(&[]), "[]");
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
