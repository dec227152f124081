//! Incremental analysis cache under `target/lint-cache/`.
//!
//! Pass 1 is pure per file: the summary depends only on the file's bytes
//! and the config. Each summary is persisted as a small line-oriented
//! record keyed by the FNV-1a digest of the source plus a fingerprint of
//! the config and tool version; on the next run an unchanged file skips
//! lexing and parsing entirely. Cache entries are written
//! temp-then-rename so a crashed run never leaves a truncated record,
//! and any parse irregularity on load is treated as a miss — the cache
//! can always be deleted (or `--fix-cache`d) with no behavioral change.

use crate::allow::{Allows, Directive};
use crate::config::LintConfig;
use crate::diagnostics::{Diagnostic, Rule};
use crate::index::FileSummary;
use crate::items::{EnumDef, Field, FileItems, FnDef, IterCall, PathUse, StructDef, Variant};
use airguard_obs::fnv1a_hex;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Bumped whenever the item model, the rules, or this record format
/// change shape; distinct versions never share cache entries.
pub const TOOL_VERSION: &str = "airguard-lint 0.2.0";

const MAGIC: &str = "airguard-lint-cache v1";

/// One cache directory bound to a config fingerprint.
pub struct Cache {
    dir: PathBuf,
    fingerprint: String,
}

impl Cache {
    /// Opens (and creates) the cache at `dir` for `cfg`.
    #[must_use]
    pub fn new(dir: PathBuf, cfg: &LintConfig) -> Self {
        let fingerprint = fnv1a_hex(format!("{TOOL_VERSION}\n{cfg:?}").as_bytes());
        Cache { dir, fingerprint }
    }

    /// Deletes every entry (`--fix-cache`).
    pub fn purge(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn entry_path(&self, rel: &str) -> PathBuf {
        self.dir.join(format!("{}.lint", fnv1a_hex(rel.as_bytes())))
    }

    /// Loads the summary for `rel` if the entry matches both the source
    /// digest and the config fingerprint.
    #[must_use]
    pub fn load(&self, rel: &str, source_digest: &str) -> Option<FileSummary> {
        let text = std::fs::read_to_string(self.entry_path(rel)).ok()?;
        parse_entry(&text, rel, source_digest, &self.fingerprint)
    }

    /// Persists `summary` (temp file + rename; failures are ignored — a
    /// read-only target dir degrades to a cold run, not an error).
    pub fn store(&self, summary: &FileSummary, source_digest: &str) {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let text = render_entry(summary, source_digest, &self.fingerprint);
        let path = self.entry_path(&summary.path);
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

/// Default cache location for a workspace root.
#[must_use]
pub fn default_dir(root: &Path) -> PathBuf {
    root.join("target").join("lint-cache").join("v1")
}

fn render_entry(summary: &FileSummary, source_digest: &str, fingerprint: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{MAGIC}");
    let _ = writeln!(s, "cfg {fingerprint}");
    let _ = writeln!(s, "src {source_digest}");
    let _ = writeln!(s, "path {}", summary.path);
    for st in &summary.items.structs {
        let _ = writeln!(s, "S {} {}", st.line, st.name);
        for f in &st.fields {
            let _ = writeln!(s, "F {} {} {}", f.line, f.col, f.name);
        }
    }
    for en in &summary.items.enums {
        let _ = writeln!(s, "E {} {}", en.line, en.name);
        for v in &en.variants {
            let _ = writeln!(s, "V {} {} {}", v.line, v.col, v.name);
        }
    }
    for f in &summary.items.fns {
        let _ = writeln!(
            s,
            "N {} {} {} {}",
            f.line,
            f.owner.as_deref().unwrap_or("-"),
            f.name,
            f.body_idents.join(",")
        );
    }
    for p in &summary.items.path_uses {
        let _ = writeln!(
            s,
            "P {} {} {} {} {}",
            p.line,
            p.col,
            u8::from(p.construction),
            p.head,
            p.tail
        );
    }
    for c in &summary.items.iter_calls {
        let _ = writeln!(s, "I {} {} {} {}", c.line, c.col, c.recv, c.method);
    }
    for h in &summary.items.hash_typed {
        let _ = writeln!(s, "H {h}");
    }
    for d in &summary.allows.directives {
        let covered: Vec<String> = d.covered.iter().map(u32::to_string).collect();
        let _ = writeln!(
            s,
            "D {} {} {} {} {}",
            d.line,
            d.col,
            d.rule.id(),
            u8::from(d.exempt),
            covered.join(",")
        );
    }
    for d in &summary.allows.diagnostics {
        let _ = writeln!(s, "A {} {} {} {}", d.line, d.col, d.rule.id(), d.message);
    }
    for d in &summary.raw_diagnostics {
        let _ = writeln!(s, "G {} {} {} {}", d.line, d.col, d.rule.id(), d.message);
    }
    s
}

fn parse_entry(
    text: &str,
    rel: &str,
    source_digest: &str,
    fingerprint: &str,
) -> Option<FileSummary> {
    let mut lines = text.lines();
    if lines.next()? != MAGIC {
        return None;
    }
    if lines.next()? != format!("cfg {fingerprint}") {
        return None;
    }
    if lines.next()? != format!("src {source_digest}") {
        return None;
    }
    if lines.next()?.strip_prefix("path ")? != rel {
        return None;
    }

    let mut items = FileItems::default();
    let mut allows = Allows::default();
    let mut raw_diagnostics = Vec::new();
    for line in lines {
        let (tag, rest) = line.split_once(' ')?;
        match tag {
            "S" => {
                let (line_no, name) = rest.split_once(' ')?;
                items.structs.push(StructDef {
                    name: name.to_owned(),
                    line: line_no.parse().ok()?,
                    fields: Vec::new(),
                });
            }
            "F" => {
                let mut parts = rest.splitn(3, ' ');
                let field = Field {
                    line: parts.next()?.parse().ok()?,
                    col: parts.next()?.parse().ok()?,
                    name: parts.next()?.to_owned(),
                };
                items.structs.last_mut()?.fields.push(field);
            }
            "E" => {
                let (line_no, name) = rest.split_once(' ')?;
                items.enums.push(EnumDef {
                    name: name.to_owned(),
                    line: line_no.parse().ok()?,
                    variants: Vec::new(),
                });
            }
            "V" => {
                let mut parts = rest.splitn(3, ' ');
                let variant = Variant {
                    line: parts.next()?.parse().ok()?,
                    col: parts.next()?.parse().ok()?,
                    name: parts.next()?.to_owned(),
                };
                items.enums.last_mut()?.variants.push(variant);
            }
            "N" => {
                let mut parts = rest.splitn(4, ' ');
                let line_no = parts.next()?.parse().ok()?;
                let owner = match parts.next()? {
                    "-" => None,
                    o => Some(o.to_owned()),
                };
                let name = parts.next()?.to_owned();
                let body_idents = match parts.next() {
                    Some("") | None => Vec::new(),
                    Some(ids) => ids.split(',').map(str::to_owned).collect(),
                };
                items.fns.push(FnDef {
                    owner,
                    name,
                    line: line_no,
                    body_idents,
                });
            }
            "P" => {
                let mut parts = rest.splitn(5, ' ');
                items.path_uses.push(PathUse {
                    line: parts.next()?.parse().ok()?,
                    col: parts.next()?.parse().ok()?,
                    construction: parts.next()? == "1",
                    head: parts.next()?.to_owned(),
                    tail: parts.next()?.to_owned(),
                });
            }
            "I" => {
                let mut parts = rest.splitn(4, ' ');
                items.iter_calls.push(IterCall {
                    line: parts.next()?.parse().ok()?,
                    col: parts.next()?.parse().ok()?,
                    recv: parts.next()?.to_owned(),
                    method: parts.next()?.to_owned(),
                });
            }
            "H" => items.hash_typed.push(rest.to_owned()),
            "D" => {
                let mut parts = rest.splitn(5, ' ');
                let line_no = parts.next()?.parse().ok()?;
                let col = parts.next()?.parse().ok()?;
                let rule = Rule::from_id(parts.next()?)?;
                let exempt = parts.next()? == "1";
                let covered = parts
                    .next()?
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<Vec<u32>, _>>()
                    .ok()?;
                allows.directives.push(Directive {
                    line: line_no,
                    col,
                    rule,
                    covered,
                    exempt,
                    used: false,
                });
            }
            "A" | "G" => {
                let mut parts = rest.splitn(4, ' ');
                let diag = Diagnostic {
                    path: rel.to_owned(),
                    line: parts.next()?.parse().ok()?,
                    col: parts.next()?.parse().ok()?,
                    rule: Rule::from_id(parts.next()?)?,
                    message: parts.next().unwrap_or_default().to_owned(),
                };
                if tag == "A" {
                    allows.diagnostics.push(diag);
                } else {
                    raw_diagnostics.push(diag);
                }
            }
            _ => return None,
        }
    }
    Some(FileSummary {
        path: rel.to_owned(),
        items,
        raw_diagnostics,
        allows,
    })
}

#[cfg(test)]
mod tests {
    use super::{fnv1a_hex, Cache};
    use crate::allow;
    use crate::config::LintConfig;
    use crate::index::FileSummary;
    use crate::items::parse_items;
    use crate::lexer::lex;
    use crate::rules;

    fn summary(path: &str, src: &str) -> FileSummary {
        let lexed = lex(src);
        let cfg = LintConfig::default();
        FileSummary {
            path: path.to_owned(),
            items: parse_items(&lexed.tokens),
            raw_diagnostics: rules::check(path, &lexed.tokens, crate::rules_for(path, &cfg)),
            allows: allow::scan(path, &lexed),
        }
    }

    fn temp_cache(name: &str, cfg: &LintConfig) -> Cache {
        let dir = std::env::temp_dir().join(format!("airguard-lint-cache-test-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::new(dir, cfg)
    }

    #[test]
    fn fnv_is_stable_and_distinct() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), fnv1a_hex(b"a"));
        assert_ne!(fnv1a_hex(b"a"), fnv1a_hex(b"b"));
    }

    #[test]
    fn round_trip_preserves_the_summary() {
        let src = "pub struct Cfg {\n    pub nodes: u32,\n}\nimpl Cfg {\n    pub fn identity(&self) -> String { format!(\"{}\", self.nodes) }\n}\nfn f(m: &HashMap<u32, u32>) {\n    emit(Ev::Seen { tx: 1 });\n    for k in m.keys() { g(k); } // lint:allow(determinism-map) — sorted downstream by caller\n    x.unwrap();\n}\n";
        let cfg = LintConfig::default();
        let cache = temp_cache("round-trip", &cfg);
        let original = summary("crates/sim/src/x.rs", src);
        assert!(
            !original.raw_diagnostics.is_empty(),
            "fixture should produce raw findings"
        );
        assert!(!original.allows.directives.is_empty());
        let digest = fnv1a_hex(src.as_bytes());
        cache.store(&original, &digest);
        let loaded = cache.load("crates/sim/src/x.rs", &digest).expect("hit");
        assert_eq!(loaded.items, original.items);
        assert_eq!(loaded.raw_diagnostics, original.raw_diagnostics);
        assert_eq!(loaded.allows.directives, original.allows.directives);
        assert_eq!(loaded.allows.diagnostics, original.allows.diagnostics);
    }

    #[test]
    fn stale_source_and_stale_config_both_miss() {
        let cfg = LintConfig::default();
        let cache = temp_cache("stale", &cfg);
        let original = summary("crates/sim/src/x.rs", "fn f() {}\n");
        cache.store(&original, "aaaa");
        assert!(cache.load("crates/sim/src/x.rs", "aaaa").is_some());
        assert!(cache.load("crates/sim/src/x.rs", "bbbb").is_none());

        // A different config maps to a different fingerprint: same
        // entry file, but the load must miss.
        let mut other = LintConfig::default();
        other.determinism_crates.push("metrics".into());
        let cache2 = Cache::new(cache.dir.clone(), &other);
        assert!(cache2.load("crates/sim/src/x.rs", "aaaa").is_none());
    }

    #[test]
    fn purge_and_corrupt_entries_degrade_to_misses() {
        let cfg = LintConfig::default();
        let cache = temp_cache("purge", &cfg);
        let original = summary("a.rs", "fn f() {}\n");
        cache.store(&original, "aaaa");
        cache.purge();
        assert!(cache.load("a.rs", "aaaa").is_none());

        cache.store(&original, "aaaa");
        let entry = cache.entry_path("a.rs");
        let mut text = std::fs::read_to_string(&entry).expect("entry");
        text.push_str("Z bogus trailing record\n");
        std::fs::write(&entry, text).expect("rewrite");
        assert!(cache.load("a.rs", "aaaa").is_none());
    }
}
