//! The unified `airguard-bench` command line.
//!
//! One driver regenerates any registered figure:
//!
//! ```text
//! airguard-bench --list
//! airguard-bench --figure fig4 --seeds 30 --secs 50 --jsonl
//! airguard-bench                       # every figure, paper settings
//! ```
//!
//! `cargo run --release -p airguard-bench -- --figure <name>` runs one
//! figure. Seed count, horizon, and detector selection fall back to the
//! `AIRGUARD_SEEDS` / `AIRGUARD_SECS` / `AIRGUARD_DETECTOR` environment
//! variables; malformed values are *rejected with an error*, never
//! silently defaulted.

use std::io::Write as _;
use std::time::Instant;

use airguard_core::DetectorConfig;
use airguard_exp::{run_experiment, write_report_jsonl, Experiment, ResultCache, RunOptions};
use airguard_live::cli::parse_positive;
use airguard_net::{Protocol, ScenarioConfig, StandardScenario};
use airguard_obs::{records_to_chrome_trace, PhaseProfiler};

use crate::figures;
use crate::{PAPER_SECS, PAPER_SEEDS};

/// One stdout line. The CLI owns the console; the figure/table layer
/// below stays print-free apart from `Table::print`. Each line is
/// staged with its newline and written with a single locked
/// `write_all`, so lines from concurrent processes sharing the stream
/// never interleave mid-line.
fn out(line: &str) {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    let _ = std::io::stdout().lock().write_all(buf.as_bytes());
}

/// One stderr line (progress, warnings, failures); atomic per line
/// like [`out`].
fn err(line: &str) {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    let _ = std::io::stderr().lock().write_all(buf.as_bytes());
}

const USAGE: &str = "\
usage: airguard-bench [--figure NAME]... [options]

options:
  --figure NAME    run one registered figure (repeatable; default: all)
  --list           list registered figures and exit
  --seeds N        seed-set size (default 30, or AIRGUARD_SEEDS)
  --secs N         simulated seconds per run (default 50, or AIRGUARD_SECS)
  --workers N      worker threads (default: one per core)
  --detector KIND  restrict the detector_duel figure to one deviation
                   detector: window, cusum, or cw (default: all three,
                   or AIRGUARD_DETECTOR); other figures are unaffected
  --shard-workers N  intra-run shard workers for spatial scenarios
                   (default 1, or AIRGUARD_SHARD_WORKERS); never
                   changes results
  --jsonl          write results/<name>.report.jsonl telemetry
  --no-cache       ignore and do not update results/cache
  --cache-dir DIR  result cache location (default results/cache)
  --retries N      extra attempts per failed cell, reseeded per attempt
                   (default 0)
  --watchdog-secs N  wall-clock seconds one cell may run before the
                   watchdog kills it (default: unbounded)
  --max-events N   virtual-event budget per cell run (default: unbounded)
  --no-resume      re-run cells a previous (possibly killed) sweep
                   recorded as failed in the progress manifest
  --quiet          suppress the per-experiment [exp] progress line
  --profile        enable the hot-path phase profiler and print its
                   per-experiment report (wall time, diagnostic only)
  --trace-out PATH run one fully-observed ZERO-FLOW scenario (PM=50,
                   seed 1, --secs horizon) and write its causal trace
                   as Chrome trace-event / Perfetto JSON to PATH; runs
                   no figures unless --figure is also given
  --help           show this help";

/// Everything the flag parser produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Selected figure names; empty means every registered figure.
    pub figures: Vec<String>,
    /// `--list`: print the registry and exit.
    pub list: bool,
    /// `--help`: print usage and exit.
    pub help: bool,
    /// Seed-set size.
    pub seeds: u64,
    /// Simulated seconds per run.
    pub secs: u64,
    /// Worker threads; 0 means one per core.
    pub workers: usize,
    /// Intra-run shard workers for spatial scenarios. Determinism
    /// contract: can never change a result byte.
    pub shard_workers: usize,
    /// Validated detector kind restricting the `detector_duel` grid
    /// (`window`/`cusum`/`cw`); `None` runs all three.
    pub detector: Option<String>,
    /// Write the telemetry report even when the figure doesn't default
    /// to it.
    pub jsonl: bool,
    /// Disable the result cache.
    pub no_cache: bool,
    /// Cache location override.
    pub cache_dir: Option<String>,
    /// Extra attempts per failed cell.
    pub retries: u32,
    /// Per-cell wall-clock watchdog deadline, seconds.
    pub watchdog_secs: Option<u64>,
    /// Per-cell virtual-event budget.
    pub max_events: Option<u64>,
    /// Re-run cells the progress manifest recorded as failed.
    pub no_resume: bool,
    /// Suppress the per-experiment `[exp]` progress line on stderr.
    pub quiet: bool,
    /// Enable phase profiling and print the per-experiment report.
    pub profile: bool,
    /// Write a Chrome trace-event JSON of one observed run to this
    /// path.
    pub trace_out: Option<String>,
}

/// Parses a non-negative integer (zero allowed), rejecting junk with a
/// clear message naming the source.
fn parse_nonnegative(source: &str, value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("{source}: expected a non-negative integer, got {value:?}"))
}

/// Reads `name` from the environment; unset is `None`, malformed is an
/// error (never a silent default).
fn env_positive(name: &str) -> Result<Option<u64>, String> {
    match std::env::var(name) {
        Ok(v) => parse_positive(name, &v).map(Some),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(format!("{name}: value is not valid unicode"))
        }
    }
}

/// Validates a detector kind, naming the source (`--detector`,
/// `AIRGUARD_DETECTOR`) in the rejection.
fn parse_detector(source: &str, value: &str) -> Result<String, String> {
    let kind = value.trim();
    DetectorConfig::from_kind(kind)
        .map(|d| d.kind().to_owned())
        .map_err(|e| format!("{source}: {e}"))
}

/// Reads `AIRGUARD_DETECTOR`; unset is `None`, malformed is an error
/// (never a silent default), mirroring [`env_positive`].
fn env_detector() -> Result<Option<String>, String> {
    let name = "AIRGUARD_DETECTOR";
    match std::env::var(name) {
        Ok(v) => parse_detector(name, &v).map(Some),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(format!("{name}: value is not valid unicode"))
        }
    }
}

/// Parses `args` (no `argv[0]`).
///
/// # Errors
///
/// Returns a usage-style message on unknown flags, malformed numbers,
/// or malformed `AIRGUARD_SEEDS`/`AIRGUARD_SECS` values.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let env_shard = match env_positive("AIRGUARD_SHARD_WORKERS")? {
        Some(n) => usize::try_from(n)
            .map_err(|_| format!("AIRGUARD_SHARD_WORKERS: value {n} out of range"))?,
        None => 1,
    };
    let mut cli = Cli {
        figures: Vec::new(),
        list: false,
        help: false,
        seeds: env_positive("AIRGUARD_SEEDS")?.unwrap_or(PAPER_SEEDS),
        secs: env_positive("AIRGUARD_SECS")?.unwrap_or(PAPER_SECS),
        workers: 0,
        shard_workers: env_shard,
        detector: env_detector()?,
        jsonl: false,
        no_cache: false,
        cache_dir: None,
        retries: 0,
        watchdog_secs: None,
        max_events: None,
        no_resume: false,
        quiet: false,
        profile: false,
        trace_out: None,
    };
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag}: missing value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--figure" => cli.figures.push(value("--figure", &mut it)?),
            "--list" => cli.list = true,
            "--help" | "-h" => cli.help = true,
            "--seeds" => cli.seeds = parse_positive("--seeds", &value("--seeds", &mut it)?)?,
            "--secs" => cli.secs = parse_positive("--secs", &value("--secs", &mut it)?)?,
            "--workers" => {
                let v = value("--workers", &mut it)?;
                cli.workers = usize::try_from(parse_positive("--workers", &v)?)
                    .map_err(|_| format!("--workers: value {v:?} out of range"))?;
            }
            "--shard-workers" => {
                let v = value("--shard-workers", &mut it)?;
                cli.shard_workers = usize::try_from(parse_positive("--shard-workers", &v)?)
                    .map_err(|_| format!("--shard-workers: value {v:?} out of range"))?;
            }
            "--detector" => {
                cli.detector = Some(parse_detector(
                    "--detector",
                    &value("--detector", &mut it)?,
                )?);
            }
            "--jsonl" => cli.jsonl = true,
            "--no-cache" => cli.no_cache = true,
            "--cache-dir" => cli.cache_dir = Some(value("--cache-dir", &mut it)?),
            "--retries" => {
                let v = value("--retries", &mut it)?;
                cli.retries = u32::try_from(parse_nonnegative("--retries", &v)?)
                    .map_err(|_| format!("--retries: value {v:?} out of range"))?;
            }
            "--watchdog-secs" => {
                cli.watchdog_secs = Some(parse_positive(
                    "--watchdog-secs",
                    &value("--watchdog-secs", &mut it)?,
                )?);
            }
            "--max-events" => {
                cli.max_events = Some(parse_positive(
                    "--max-events",
                    &value("--max-events", &mut it)?,
                )?);
            }
            "--no-resume" => cli.no_resume = true,
            "--quiet" => cli.quiet = true,
            "--profile" => cli.profile = true,
            "--trace-out" => cli.trace_out = Some(value("--trace-out", &mut it)?),
            other => return Err(format!("unknown flag {other:?} (see --help)")),
        }
    }
    Ok(cli)
}

/// Resolves the selected experiments, preserving registry order.
fn select(figures: &[String]) -> Result<Vec<Experiment>, String> {
    if figures.is_empty() {
        return Ok(figures::all());
    }
    figures
        .iter()
        .map(|name| {
            figures::find(name).ok_or_else(|| {
                format!("unknown figure {name:?} (run `airguard-bench --list` for the registry)")
            })
        })
        .collect()
}

/// Runs one fully-observed, profiled ZERO-FLOW scenario and writes
/// its causal trace as Chrome trace-event JSON (open in Perfetto or
/// `chrome://tracing`). Returns the profiler so the caller can print
/// the phase report.
fn write_trace(path: &str, secs: u64) -> Result<(usize, PhaseProfiler), String> {
    let profiler = PhaseProfiler::enabled();
    let cfg = ScenarioConfig::new(StandardScenario::ZeroFlow)
        .protocol(Protocol::Correct)
        .misbehavior_percent(50.0)
        .sim_time_secs(secs)
        .seed(1);
    let (_report, sink) = cfg.run_observed_profiled(profiler.clone());
    let records = sink.records();
    let json = records_to_chrome_trace(&records);
    std::fs::write(path, json.as_bytes()).map_err(|e| format!("failed to write {path}: {e}"))?;
    Ok((records.len(), profiler))
}

/// Runs one parsed invocation; returns the process exit code.
#[must_use]
pub fn run(cli: &Cli) -> i32 {
    if cli.help {
        out(USAGE);
        return 0;
    }
    if cli.list {
        for e in figures::all() {
            out(&format!(
                "{:<20} {:>3} points  {}",
                e.name,
                e.points.len(),
                e.title
            ));
        }
        return 0;
    }
    let mut exit = 0;
    if let Some(path) = &cli.trace_out {
        match write_trace(path, cli.secs) {
            Ok((records, profiler)) => {
                out(&format!("[trace] {records} records -> {path}"));
                err(profiler.report().trim_end());
            }
            Err(msg) => {
                err(&format!("airguard-bench: {msg}"));
                exit = 1;
            }
        }
        // A trace capture is a dedicated run; only fall through to the
        // sweep engine when figures were explicitly selected.
        if cli.figures.is_empty() {
            return exit;
        }
    }
    let mut exps = match select(&cli.figures) {
        Ok(exps) => exps,
        Err(msg) => {
            err(&format!("airguard-bench: {msg}"));
            return 2;
        }
    };
    // The (already validated) detector restriction swaps the full duel
    // grid for its one-detector slice; every other figure keeps its
    // registered points and cache digests.
    if let Some(kind) = &cli.detector {
        for exp in &mut exps {
            if exp.name == "detector_duel" {
                *exp = figures::detector_duel::experiment_for(Some(kind));
            }
        }
    }

    let mut opts = RunOptions::new(cli.seeds, cli.secs);
    opts.workers = cli.workers;
    opts.profiler = cli.profile.then(PhaseProfiler::enabled);
    opts.retries = cli.retries;
    opts.watchdog_secs = cli.watchdog_secs;
    opts.max_events = cli.max_events;
    opts.resume = !cli.no_resume;
    opts.cache = if cli.no_cache {
        None
    } else {
        let root: std::path::PathBuf = cli
            .cache_dir
            .as_ref()
            .map_or_else(ResultCache::default_root, Into::into);
        // The crash-safe sweep progress manifest lives next to the
        // cache, so killing and rerunning a sweep resumes both
        // completed (cache) and known-failed (manifest) cells.
        opts.manifest_dir = Some(root.join("manifest"));
        Some(ResultCache::new(root))
    };

    for exp in exps {
        let start = Instant::now();
        let outcome = run_experiment(&exp, &opts);
        for fig in &outcome.rendered.figures {
            fig.table.print();
        }
        for note in &outcome.rendered.notes {
            out(&format!("\n{note}"));
        }
        for fig in &outcome.rendered.figures {
            if let Err(e) = fig.table.write_csv(&fig.name) {
                err(&format!(
                    "airguard-bench: failed to write results/{}.csv: {e}",
                    fig.name
                ));
                exit = 1;
            }
        }
        if cli.jsonl || exp.jsonl_default {
            if let Err(e) = write_report_jsonl(exp.name, &outcome.report_lines) {
                err(&format!(
                    "airguard-bench: failed to write results/{}.report.jsonl: {e}",
                    exp.name
                ));
                exit = 1;
            }
        }
        for warning in &outcome.warnings {
            err(&format!("airguard-bench: warning: {warning}"));
        }
        for failure in &outcome.failures {
            err(&format!("airguard-bench: {failure}"));
            exit = 1;
        }
        if let Some(profiler) = &opts.profiler {
            err(&format!("[profile] {}", exp.name));
            err(profiler.report().trim_end());
            // Per-experiment accounting: the shared profiler restarts
            // from zero for the next sweep.
            profiler.clear();
        }
        if !cli.quiet {
            err(&format!(
                "[exp] {}: {} (workers={}, {:.1} s)",
                exp.name,
                outcome.progress,
                opts.effective_workers(),
                start.elapsed().as_secs_f64()
            ));
        }
    }
    exit
}

/// Entry point for the unified `airguard-bench` binary.
#[must_use]
pub fn cli_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(cli) => run(&cli),
        Err(msg) => {
            err(&format!("airguard-bench: {msg}"));
            err(USAGE);
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_are_the_paper_settings() {
        let cli = parse(&[]).expect("parses");
        assert_eq!(cli.seeds, PAPER_SEEDS);
        assert_eq!(cli.secs, PAPER_SECS);
        assert!(cli.figures.is_empty());
        assert!(!cli.jsonl && !cli.no_cache && !cli.list);
    }

    #[test]
    fn flags_parse() {
        let cli = parse(&args(&[
            "--figure",
            "fig4",
            "--seeds",
            "3",
            "--secs",
            "2",
            "--workers",
            "4",
            "--jsonl",
            "--no-cache",
            "--cache-dir",
            "/tmp/c",
        ]))
        .expect("parses");
        assert_eq!(cli.figures, vec!["fig4".to_owned()]);
        assert_eq!((cli.seeds, cli.secs, cli.workers), (3, 2, 4));
        assert!(cli.jsonl && cli.no_cache);
        assert_eq!(cli.cache_dir.as_deref(), Some("/tmp/c"));
    }

    #[test]
    fn hardening_flags_parse() {
        let cli = parse(&args(&[
            "--retries",
            "2",
            "--watchdog-secs",
            "90",
            "--max-events",
            "5000000",
            "--no-resume",
        ]))
        .expect("parses");
        assert_eq!(cli.retries, 2);
        assert_eq!(cli.watchdog_secs, Some(90));
        assert_eq!(cli.max_events, Some(5_000_000));
        assert!(cli.no_resume);
    }

    #[test]
    fn hardening_defaults_are_inert() {
        let cli = parse(&[]).expect("parses");
        assert_eq!(cli.retries, 0);
        assert_eq!(cli.watchdog_secs, None);
        assert_eq!(cli.max_events, None);
        assert!(!cli.no_resume);
    }

    #[test]
    fn impossible_hardening_values_are_rejected() {
        assert!(parse(&args(&["--retries", "-1"]))
            .unwrap_err()
            .contains("non-negative integer"));
        assert!(parse(&args(&["--retries", "many"]))
            .unwrap_err()
            .contains("non-negative integer"));
        assert!(parse(&args(&["--watchdog-secs", "0"]))
            .unwrap_err()
            .contains("got 0"));
        assert!(parse(&args(&["--watchdog-secs"]))
            .unwrap_err()
            .contains("missing value"));
        assert!(parse(&args(&["--max-events", "0"]))
            .unwrap_err()
            .contains("got 0"));
        assert!(parse(&args(&["--max-events", "lots"]))
            .unwrap_err()
            .contains("positive integer"));
        // `--retries 0` is a meaningful request (no retries), not junk.
        assert_eq!(
            parse(&args(&["--retries", "0"])).expect("parses").retries,
            0
        );
    }

    #[test]
    fn shard_workers_flag_parses_and_defaults_to_one() {
        assert_eq!(parse(&[]).expect("parses").shard_workers, 1);
        let cli = parse(&args(&["--shard-workers", "4"])).expect("parses");
        assert_eq!(cli.shard_workers, 4);
        assert!(parse(&args(&["--shard-workers", "0"]))
            .unwrap_err()
            .contains("got 0"));
        assert!(parse(&args(&["--shard-workers", "lots"]))
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&args(&["--shard-workers"]))
            .unwrap_err()
            .contains("missing value"));
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        assert!(parse(&args(&["--seeds", "many"]))
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&args(&["--secs", "0"]))
            .unwrap_err()
            .contains("got 0"));
        assert!(parse(&args(&["--seeds"]))
            .unwrap_err()
            .contains("missing value"));
        assert!(parse(&args(&["--frobnicate"]))
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn unknown_figures_are_reported() {
        let msg = select(&["no_such".to_owned()]).unwrap_err();
        assert!(msg.contains("unknown figure"));
        assert_eq!(select(&[]).expect("all").len(), 18);
    }

    #[test]
    fn detector_flag_validates_and_normalizes() {
        for kind in ["window", "cusum", "cw"] {
            let cli = parse(&args(&["--detector", kind])).expect("parses");
            assert_eq!(cli.detector.as_deref(), Some(kind));
        }
        // Surrounding whitespace is tolerated, junk is not.
        let cli = parse(&args(&["--detector", " cusum "])).expect("parses");
        assert_eq!(cli.detector.as_deref(), Some("cusum"));
        let msg = parse(&args(&["--detector", "ewma"])).unwrap_err();
        assert!(msg.contains("--detector"), "{msg}");
        assert!(msg.contains("window, cusum, or cw"), "{msg}");
        assert!(parse(&args(&["--detector"]))
            .unwrap_err()
            .contains("missing value"));
    }

    #[test]
    fn detector_env_is_validated_not_silently_defaulted() {
        // The env reader shares `parse_detector`, so the malformed path
        // is pinned without mutating process-global state (other tests
        // call `parse` concurrently and would race on the variable).
        let msg = parse_detector("AIRGUARD_DETECTOR", "ewma").unwrap_err();
        assert!(msg.contains("AIRGUARD_DETECTOR"), "{msg}");
        assert!(msg.contains("window, cusum, or cw"), "{msg}");
        // Unset (the default in the test environment) means "all".
        assert_eq!(parse(&[]).expect("parses").detector, None);
        // A set-and-valid round trip, restored before returning; keeps
        // the value valid throughout so racing `parse` calls still
        // succeed.
        std::env::set_var("AIRGUARD_DETECTOR", "cw");
        let seen = env_detector();
        std::env::remove_var("AIRGUARD_DETECTOR");
        assert_eq!(seen.expect("valid"), Some("cw".to_owned()));
    }

    #[test]
    fn observability_flags_parse() {
        let cli = parse(&args(&[
            "--quiet",
            "--profile",
            "--trace-out",
            "/tmp/trace.json",
        ]))
        .expect("parses");
        assert!(cli.quiet && cli.profile);
        assert_eq!(cli.trace_out.as_deref(), Some("/tmp/trace.json"));
        assert!(parse(&args(&["--trace-out"]))
            .unwrap_err()
            .contains("missing value"));
    }

    #[test]
    fn observability_defaults_are_inert() {
        let cli = parse(&[]).expect("parses");
        assert!(!cli.quiet && !cli.profile);
        assert_eq!(cli.trace_out, None);
    }
}
