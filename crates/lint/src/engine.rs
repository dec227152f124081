//! The two-pass lint engine.
//!
//! Pass 1 analyzes every file independently (lex, item parse, per-file
//! rules, allow scan) — embarrassingly parallel, so it runs on the
//! workspace's worker pool ([`airguard_obs::pool`]), which hands the
//! summaries back in file order, not completion order. That makes the
//! report byte-identical at any worker count. Unchanged files are
//! served from the [`crate::cache`] instead of being re-analyzed.
//!
//! Pass 2 is cheap and sequential: the summaries form a
//! [`WorkspaceIndex`], the cross-file rules run over it, and allow
//! directives are applied centrally — which is also what makes
//! unused-allow detection possible, since by then every rule has had its
//! chance to consume each directive.

use crate::cache::Cache;
use crate::config::LintConfig;
use crate::diagnostics::Diagnostic;
use crate::index::{FileSummary, WorkspaceIndex};
use crate::{allow, items, lexer, rules, xrules, FileClass};
use airguard_obs::fnv1a_hex;
use airguard_obs::pool::run_tasks;
use std::panic::resume_unwind;
use std::path::{Path, PathBuf};

/// How the incremental cache participates in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No reads, no writes (fixture trees, tests).
    Disabled,
    /// Normal operation: read hits, write misses.
    Enabled,
    /// Purge first, then rebuild everything (`--fix-cache`).
    Rebuild,
}

/// Engine knobs, all CLI-settable.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Pass-1 worker threads; 1 means fully sequential.
    pub workers: usize,
    pub cache: CacheMode,
    /// Override for the cache directory (defaults to
    /// `<root>/target/lint-cache/v1`).
    pub cache_dir: Option<PathBuf>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            workers: 1,
            cache: CacheMode::Disabled,
            cache_dir: None,
        }
    }
}

/// The outcome of a run: the final diagnostics plus cache statistics.
#[derive(Debug)]
pub struct LintReport {
    /// Sorted, deduplicated, allow-filtered diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    pub files_total: usize,
    /// Files analyzed from source this run.
    pub files_analyzed: usize,
    /// Files served from the incremental cache.
    pub files_cached: usize,
}

/// Runs both passes over the workspace at `root`.
pub fn run(root: &Path, cfg: &LintConfig, opts: &EngineOptions) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    crate::collect_rs_files(root, root, cfg, &mut files)?;
    files.sort();

    let cache = match opts.cache {
        CacheMode::Disabled => None,
        mode => {
            let dir = opts
                .cache_dir
                .clone()
                .unwrap_or_else(|| crate::cache::default_dir(root));
            let cache = Cache::new(dir, cfg);
            if mode == CacheMode::Rebuild {
                cache.purge();
            }
            Some(cache)
        }
    };

    // Pass 1: per-file summaries, in file order.
    let files_total = files.len();
    let analyzed = run_tasks(files, opts.workers, |rel| -> std::io::Result<_> {
        let source = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| std::io::Error::new(e.kind(), format!("{rel}: {e}")))?;
        let digest = fnv1a_hex(source.as_bytes());
        if let Some(summary) = cache.as_ref().and_then(|c| c.load(&rel, &digest)) {
            return Ok((summary, true));
        }
        let summary = analyze(&rel, &source, cfg);
        if let Some(c) = &cache {
            c.store(&summary, &digest);
        }
        Ok((summary, false))
    });

    let mut files_analyzed = 0;
    let mut files_cached = 0;
    let mut summaries = Vec::with_capacity(files_total);
    for outcome in analyzed {
        // A worker panic is a lint bug; surface it as itself. A read
        // error reports the first unreadable file in sorted order.
        let (summary, cached) = outcome.unwrap_or_else(|panic| resume_unwind(Box::new(panic)))?;
        if cached {
            files_cached += 1;
        } else {
            files_analyzed += 1;
        }
        summaries.push(summary);
    }

    // Pass 2: cross-file rules over the index, then central allow
    // application and unused-directive reporting.
    let mut index = WorkspaceIndex::new(summaries);
    let cross = xrules::check(&index, cfg);
    let mut diagnostics = Vec::new();
    let mut orphans = Vec::new();
    for diag in cross {
        match index.files.get_mut(&diag.path) {
            Some(f) => f.raw_diagnostics.push(diag),
            // A spec can name a file outside the walked tree; its
            // finding still must surface.
            None => orphans.push(diag),
        }
    }
    diagnostics.extend(orphans);
    for summary in index.files.values_mut() {
        let raw = std::mem::take(&mut summary.raw_diagnostics);
        diagnostics.extend(summary.allows.apply(raw));
        diagnostics.append(&mut summary.allows.diagnostics);
        if summary.class() != FileClass::TestLike {
            diagnostics.extend(summary.allows.unused(&summary.path));
        }
    }
    diagnostics.retain(|d| !cfg.disabled_rules.contains(&d.rule));
    diagnostics.sort();
    diagnostics.dedup();

    Ok(LintReport {
        diagnostics,
        files_total,
        files_analyzed,
        files_cached,
    })
}

/// Pass-1 analysis of one file from source.
#[must_use]
pub fn analyze(rel: &str, source: &str, cfg: &LintConfig) -> FileSummary {
    let lexed = lexer::lex(source);
    FileSummary {
        path: rel.to_owned(),
        items: items::parse_items(&lexed.tokens),
        raw_diagnostics: rules::check(rel, &lexed.tokens, crate::rules_for(rel, cfg)),
        allows: allow::scan(rel, &lexed),
    }
}

#[cfg(test)]
mod tests {
    use super::{run, CacheMode, EngineOptions};
    use crate::config::LintConfig;
    use crate::diagnostics::Rule;
    use std::path::PathBuf;

    /// Lays out a miniature workspace on disk.
    fn workspace(name: &str, files: &[(&str, &str)]) -> PathBuf {
        let root = std::env::temp_dir().join(format!("airguard-lint-engine-test-{name}"));
        let _ = std::fs::remove_dir_all(&root);
        for (rel, src) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            std::fs::write(path, src).expect("write");
        }
        root
    }

    #[test]
    fn read_errors_name_the_first_bad_file_at_any_worker_count() {
        let root = workspace(
            "read-error",
            &[
                ("crates/a/src/lib.rs", "pub fn a() {}\n"),
                ("crates/z/src/lib.rs", "pub fn z() {}\n"),
            ],
        );
        // Not valid UTF-8; the later file in sorted order is written first.
        for rel in ["crates/m/src/bad.rs", "crates/c/src/bad.rs"] {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            std::fs::write(path, b"pub fn f() {}\n\xff\xfe\n").expect("write");
        }
        for workers in [1, 2, 4] {
            let opts = EngineOptions {
                workers,
                ..EngineOptions::default()
            };
            let err = run(&root, &LintConfig::default(), &opts)
                .expect_err("a non-UTF-8 source file is a read error");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.starts_with("crates/c/src/bad.rs: "),
                "{workers} workers: {msg}"
            );
        }
    }

    const CFG_RS: &str = "pub struct Cfg {\n    pub nodes: u32,\n    pub rate: u64,\n}\nimpl Cfg {\n    pub fn identity(&self) -> String { format!(\"{}\", self.nodes) }\n}\n";

    fn digest_cfg() -> LintConfig {
        LintConfig {
            digest_structs: vec![crate::config::ItemSpec {
                path: "crates/net/src/cfg.rs".into(),
                item: "Cfg".into(),
                fns: vec!["identity".into()],
            }],
            ..LintConfig::default()
        }
    }

    #[test]
    fn cross_file_findings_respect_allows_and_unused_is_reported() {
        let allowed = "pub struct Cfg {\n    pub nodes: u32,\n    // lint:allow(digest-completeness) — rate is display-only, never cached\n    pub rate: u64,\n}\nimpl Cfg {\n    pub fn identity(&self) -> String { format!(\"{}\", self.nodes) }\n    // lint:allow(digest-completeness) — stale: nothing fires on this line\n    pub fn extra(&self) {}\n}\n";
        let root = workspace("allows", &[("crates/net/src/cfg.rs", allowed)]);
        let report = run(&root, &digest_cfg(), &EngineOptions::default()).expect("run");
        let rules: Vec<Rule> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(rules, [Rule::AllowUnused], "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].line, 8);
    }

    #[test]
    fn workers_do_not_change_the_report() {
        let files: Vec<(String, String)> = (0..17)
            .map(|i| {
                (
                    format!("crates/sim/src/m{i}.rs"),
                    format!("fn f{i}() {{ let x = opt.unwrap(); use_it(x); }}\n"),
                )
            })
            .collect();
        let refs: Vec<(&str, &str)> = files
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let root = workspace("workers", &refs);
        let cfg = LintConfig::default();
        let baseline = run(&root, &cfg, &EngineOptions::default()).expect("run");
        assert_eq!(baseline.diagnostics.len(), 17);
        for workers in [2, 4, 8] {
            let opts = EngineOptions {
                workers,
                ..EngineOptions::default()
            };
            let report = run(&root, &cfg, &opts).expect("run");
            assert_eq!(
                report.diagnostics, baseline.diagnostics,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn second_run_is_fully_cached_and_identical() {
        let root = workspace(
            "cache",
            &[
                ("crates/net/src/cfg.rs", CFG_RS),
                ("crates/sim/src/a.rs", "fn f() { x.unwrap(); }\n"),
            ],
        );
        let opts = EngineOptions {
            workers: 2,
            cache: CacheMode::Enabled,
            cache_dir: Some(root.join("lint-cache")),
        };
        let cfg = digest_cfg();
        let cold = run(&root, &cfg, &opts).expect("cold");
        assert_eq!(cold.files_analyzed, 2);
        assert_eq!(cold.files_cached, 0);
        assert!(cold
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::DigestCompleteness));

        let warm = run(&root, &cfg, &opts).expect("warm");
        assert_eq!(warm.files_analyzed, 0);
        assert_eq!(warm.files_cached, 2);
        assert_eq!(warm.diagnostics, cold.diagnostics);

        // Touching one file re-analyzes only that file.
        std::fs::write(
            root.join("crates/sim/src/a.rs"),
            "fn f() { x.unwrap(); y.unwrap(); }\n",
        )
        .expect("rewrite");
        let touched = run(&root, &cfg, &opts).expect("touched");
        assert_eq!(touched.files_analyzed, 1);
        assert_eq!(touched.files_cached, 1);

        // Rebuild mode purges and analyzes everything again.
        let rebuild = run(
            &root,
            &cfg,
            &EngineOptions {
                cache: CacheMode::Rebuild,
                ..opts.clone()
            },
        )
        .expect("rebuild");
        assert_eq!(rebuild.files_analyzed, 2);
        assert_eq!(rebuild.diagnostics, touched.diagnostics);
    }

    #[test]
    fn disabled_rules_are_dropped_from_the_report() {
        let root = workspace(
            "disabled",
            &[("crates/sim/src/a.rs", "fn f() { x.unwrap(); }\n")],
        );
        let cfg = LintConfig {
            disabled_rules: vec![Rule::PanicUnwrap],
            ..LintConfig::default()
        };
        let report = run(&root, &cfg, &EngineOptions::default()).expect("run");
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }
}
