//! Report renderers: grep-friendly text, deterministic JSON, and
//! SARIF 2.1.0 for code-scanning upload.
//!
//! All three formats are pure functions of the sorted diagnostic list,
//! so the bytes are identical for any worker count and any cache state.
//! JSON is emitted by hand: keys are written in a fixed order and
//! strings escaped per RFC 8259 by [`airguard_obs::escape_into`], the
//! workspace's one JSON string escaper.

use crate::cache::TOOL_VERSION;
use crate::diagnostics::{Diagnostic, Rule};
use airguard_obs::escape_into;
use std::fmt::Write as _;

/// One diagnostic per line, `path:line:col: rule: message`.
#[must_use]
pub fn to_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(out, "{d}");
    }
    out
}

/// A stable JSON document: tool header plus the diagnostics array.
#[must_use]
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"tool\": {},", json_str(TOOL_VERSION));
    let _ = writeln!(out, "  \"count\": {},", diags.len());
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        let sep = if i + 1 < diags.len() { "," } else { "" };
        let _ = write!(
            out,
            "\n    {{\"path\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}}}{sep}",
            json_str(&d.path),
            d.line,
            d.col,
            json_str(d.rule.id()),
            json_str(&d.message),
        );
    }
    if diags.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// SARIF 2.1.0: one run, the full rule table, one result per
/// diagnostic.
#[must_use]
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let (name, version) = TOOL_VERSION.split_once(' ').unwrap_or((TOOL_VERSION, "0"));
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    let _ = writeln!(out, "          \"name\": {},", json_str(name));
    let _ = writeln!(out, "          \"version\": {},", json_str(version));
    out.push_str("          \"informationUri\": \"https://example.invalid/airguard\",\n");
    out.push_str("          \"rules\": [");
    for (i, rule) in Rule::ALL.iter().enumerate() {
        let sep = if i + 1 < Rule::ALL.len() { "," } else { "" };
        let _ = write!(
            out,
            "\n            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}{sep}",
            json_str(rule.id()),
            json_str(rule.description()),
        );
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, d) in diags.iter().enumerate() {
        let sep = if i + 1 < diags.len() { "," } else { "" };
        let _ = write!(
            out,
            "\n        {{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": {}}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}{sep}",
            json_str(d.rule.id()),
            json_str(&d.message),
            json_str(&d.path),
            d.line,
            d.col,
        );
    }
    if diags.is_empty() {
        out.push_str("]\n    }\n  ]\n}\n");
    } else {
        out.push_str("\n      ]\n    }\n  ]\n}\n");
    }
    out
}

/// RFC 8259 string escaping, quotes included.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(s, &mut out);
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::{to_json, to_sarif, to_text};
    use crate::diagnostics::{Diagnostic, Rule};

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                path: "crates/sim/src/a.rs".into(),
                line: 3,
                col: 7,
                rule: Rule::DeterminismMap,
                message: "HashMap is hash-ordered".into(),
            },
            Diagnostic {
                path: "crates/net/src/b.rs".into(),
                line: 10,
                col: 1,
                rule: Rule::DigestCompleteness,
                message: "field `rate` says \"no\"".into(),
            },
        ]
    }

    #[test]
    fn text_is_one_diag_per_line() {
        let text = to_text(&sample());
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("crates/sim/src/a.rs:3:7: determinism-map:"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let json = to_json(&sample());
        assert!(json.contains("\"count\": 2"));
        assert!(json.contains("says \\\"no\\\""));
        assert!(json.contains("\"rule\": \"digest-completeness\""));
        let empty = to_json(&[]);
        assert!(empty.contains("\"count\": 0"));
        assert!(empty.contains("\"diagnostics\": []"));
    }

    #[test]
    fn sarif_carries_schema_rule_table_and_locations() {
        let sarif = to_sarif(&sample());
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("sarif-schema-2.1.0.json"));
        // Every rule appears in the driver table.
        for rule in Rule::ALL {
            assert!(
                sarif.contains(&format!("{{\"id\": \"{}\"", rule.id())),
                "{}",
                rule.id()
            );
        }
        assert!(sarif.contains("\"startLine\": 3"));
        assert!(sarif.contains("\"uri\": \"crates/sim/src/a.rs\""));
        let empty = to_sarif(&[]);
        assert!(empty.contains("\"results\": []"));
    }
}
