//! The `airguard-live` service command line.
//!
//! ```text
//! airguard-live --replay results/fig4.events.jsonl --shards 4 \
//!     --checkpoint /var/lib/airguard --checkpoint-every 1000
//! airguard-live --listen 127.0.0.1:9900 --overflow sample
//! ```
//!
//! On success the final [`RunSummary`](airguard_obs::RunSummary) is printed as one JSON line on
//! stdout (byte-identical across shard counts and kill/restore under
//! the lossless policy — the CI smoke job greps exactly that line);
//! restore notes and warnings go to stderr. Exit codes: `0` success,
//! `1` runtime failure, `2` malformed invocation. Every flag and
//! environment value is validated and rejected loudly — malformed
//! input never silently defaults (the workspace's `--detector`
//! convention).

use std::io::Write as _;
use std::path::PathBuf;

use airguard_core::{DetectorConfig, ObservationSource, SourceError};
use airguard_obs::EventSink;

use crate::engine::{run, LiveConfig, OverflowPolicy};
use crate::replay::{FrameSource, JsonlSource, SocketSource, SupervisedSource};

/// One stdout line, written atomically (the summary must land as one
/// uninterleaved line — CI greps it byte-for-byte).
fn out(line: &str) {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    let _ = std::io::stdout().lock().write_all(buf.as_bytes());
}

/// One stderr line (notes, warnings, failures); atomic like [`out`].
fn err(line: &str) {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    let _ = std::io::stderr().lock().write_all(buf.as_bytes());
}

const USAGE: &str = "\
usage: airguard-live (--replay FILE | --frames FILE | --listen ADDR) [options]

feed (exactly one):
  --replay FILE    replay a .events.jsonl export (deterministic)
  --frames FILE    replay a length-prefixed binary frame file
  --listen ADDR    accept JSONL feed connections on ADDR; peers that
                   disconnect are re-accepted with exponential backoff

options:
  --shards N       worker shard count (default 4, or AIRGUARD_LIVE_SHARDS;
                   the flag wins; lossless results never depend on it)
  --overflow KIND  full-queue policy: block, drop-oldest, or sample
                   (default block)
  --detector KIND  deviation detector: window, cusum, or cw
                   (default window)
  --checkpoint DIR snapshot directory; enables periodic checkpoints and
                   restore-on-start from the newest valid snapshot
  --checkpoint-every N  snapshot every N consumed records (default 1000;
                   a final snapshot is always written on clean exit)
  --stop-after N   stop abruptly after N consumed records without a
                   final snapshot — a simulated crash for restore tests
  --queue N        per-shard queue capacity (default 256)
  --quarantine-budget N  malformed records tolerated per run
                   (default 10000)
  --label NAME     summary label (default live)
  --verdicts       also print one JSON line per station verdict
  --help           show this help";

/// Everything the flag parser produces.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// `--replay FILE`.
    pub replay: Option<String>,
    /// `--frames FILE`.
    pub frames: Option<String>,
    /// `--listen ADDR`.
    pub listen: Option<String>,
    /// Validated shard count.
    pub shards: u32,
    /// Validated overflow policy.
    pub overflow: OverflowPolicy,
    /// Validated detector config.
    pub detector: DetectorConfig,
    /// Checkpoint directory.
    pub checkpoint: Option<String>,
    /// Snapshot cadence in consumed records.
    pub checkpoint_every: u64,
    /// Simulated-crash cutoff.
    pub stop_after: Option<u64>,
    /// Per-shard queue capacity.
    pub queue: usize,
    /// Malformed-record budget per run.
    pub quarantine_budget: u64,
    /// Summary label.
    pub label: String,
    /// Print per-station verdict lines.
    pub verdicts: bool,
    /// `--help`.
    pub help: bool,
}

/// Parses a positive integer, rejecting junk and zero with a message
/// naming the source (`--shards`, `AIRGUARD_LIVE_SHARDS`, …). The one
/// validated-never-defaulted knob parser: the `airguard`,
/// `airguard-bench` and `airguard-live` command lines all use it.
///
/// # Errors
///
/// Returns `"<source>: expected a positive integer, got <value>"` for
/// zero or anything that is not a `u64`.
pub fn parse_positive(source: &str, value: &str) -> Result<u64, String> {
    match value.trim().parse::<u64>() {
        Ok(0) => Err(format!("{source}: expected a positive integer, got 0")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "{source}: expected a positive integer, got {value:?}"
        )),
    }
}

/// Reads `AIRGUARD_LIVE_SHARDS`; unset is `None`, malformed is an
/// error (never a silent default).
fn env_shards() -> Result<Option<u32>, String> {
    let name = "AIRGUARD_LIVE_SHARDS";
    match std::env::var(name) {
        Ok(v) => {
            let n = parse_positive(name, &v)?;
            u32::try_from(n)
                .map(Some)
                .map_err(|_| format!("{name}: value {n} out of range"))
        }
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
/// unknown policy/detector kinds, a malformed `AIRGUARD_LIVE_SHARDS`,
/// or a feed selection that is not exactly one of replay/frames/listen.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        replay: None,
        frames: None,
        listen: None,
        shards: env_shards()?.unwrap_or(4),
        overflow: OverflowPolicy::Block,
        detector: DetectorConfig::Window,
        checkpoint: None,
        checkpoint_every: 1000,
        stop_after: None,
        queue: 256,
        quarantine_budget: 10_000,
        label: "live".to_owned(),
        verdicts: false,
        help: false,
    };
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag}: missing value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--replay" => cli.replay = Some(value("--replay", &mut it)?),
            "--frames" => cli.frames = Some(value("--frames", &mut it)?),
            "--listen" => cli.listen = Some(value("--listen", &mut it)?),
            "--shards" => {
                let v = value("--shards", &mut it)?;
                let n = parse_positive("--shards", &v)?;
                cli.shards =
                    u32::try_from(n).map_err(|_| format!("--shards: value {v:?} out of range"))?;
            }
            "--overflow" => {
                cli.overflow = OverflowPolicy::from_kind(value("--overflow", &mut it)?.trim())
                    .map_err(|e| format!("--overflow: {e}"))?;
            }
            "--detector" => {
                cli.detector = DetectorConfig::from_kind(value("--detector", &mut it)?.trim())
                    .map_err(|e| format!("--detector: {e}"))?;
            }
            "--checkpoint" => cli.checkpoint = Some(value("--checkpoint", &mut it)?),
            "--checkpoint-every" => {
                cli.checkpoint_every =
                    parse_positive("--checkpoint-every", &value("--checkpoint-every", &mut it)?)?;
            }
            "--stop-after" => {
                cli.stop_after = Some(parse_positive(
                    "--stop-after",
                    &value("--stop-after", &mut it)?,
                )?);
            }
            "--queue" => {
                let v = value("--queue", &mut it)?;
                cli.queue = usize::try_from(parse_positive("--queue", &v)?)
                    .map_err(|_| format!("--queue: value {v:?} out of range"))?;
            }
            "--quarantine-budget" => {
                cli.quarantine_budget = parse_positive(
                    "--quarantine-budget",
                    &value("--quarantine-budget", &mut it)?,
                )?;
            }
            "--label" => cli.label = value("--label", &mut it)?,
            "--verdicts" => cli.verdicts = true,
            "--help" | "-h" => cli.help = true,
            other => return Err(format!("unknown flag {other:?} (see --help)")),
        }
    }
    if !cli.help {
        let feeds = usize::from(cli.replay.is_some())
            + usize::from(cli.frames.is_some())
            + usize::from(cli.listen.is_some());
        if feeds != 1 {
            return Err(
                "exactly one feed is required: --replay FILE, --frames FILE, or --listen ADDR"
                    .to_owned(),
            );
        }
    }
    Ok(cli)
}

fn open_source(cli: &Cli, sink: &EventSink) -> Result<Box<dyn ObservationSource>, String> {
    if let Some(path) = &cli.replay {
        return JsonlSource::open(std::path::Path::new(path))
            .map(|s| Box::new(s) as Box<dyn ObservationSource>)
            .map_err(|e| source_error_text(&e));
    }
    if let Some(path) = &cli.frames {
        return FrameSource::open(std::path::Path::new(path))
            .map(|s| Box::new(s) as Box<dyn ObservationSource>)
            .map_err(|e| source_error_text(&e));
    }
    let addr = cli.listen.as_deref().unwrap_or_default();
    let socket = SocketSource::bind(addr).map_err(|e| source_error_text(&e))?;
    let listener = socket.reopen_handle();
    let supervised = SupervisedSource::new(0, sink.clone(), 1_000_000, 50, move || {
        Ok(Box::new(SocketSource::from_listener(std::sync::Arc::clone(
            &listener,
        ))) as Box<dyn ObservationSource>)
    })
    .with_open(Box::new(socket));
    Ok(Box::new(supervised))
}

fn source_error_text(e: &SourceError) -> String {
    match e {
        SourceError::Malformed(m) => format!("malformed feed: {m}"),
        SourceError::Transport(m) => format!("feed transport: {m}"),
    }
}

/// Runs one parsed invocation; returns the process exit code.
#[must_use]
pub fn run_cli(cli: &Cli) -> i32 {
    if cli.help {
        out(USAGE);
        return 0;
    }
    let mut config = LiveConfig::new(cli.shards);
    config.label.clone_from(&cli.label);
    config.overflow = cli.overflow;
    config.detector = cli.detector;
    config.queue_capacity = cli.queue;
    config.checkpoint_dir = cli.checkpoint.as_ref().map(PathBuf::from);
    config.checkpoint_every = cli.checkpoint_every;
    config.stop_after = cli.stop_after;
    config.quarantine_budget = cli.quarantine_budget;
    let mut source = match open_source(cli, &config.sink) {
        Ok(source) => source,
        Err(msg) => {
            err(&format!("airguard-live: {msg}"));
            return 1;
        }
    };
    match run(&config, source.as_mut()) {
        Ok(outcome) => {
            for warning in &outcome.restore_warnings {
                err(&format!(
                    "airguard-live: warning: skipped snapshot {warning}"
                ));
            }
            if let Some(path) = &outcome.restored_from {
                err(&format!("[live] restored from {}", path.display()));
            }
            if outcome.checkpoints_written > 0 {
                err(&format!(
                    "[live] {} checkpoint(s) written",
                    outcome.checkpoints_written
                ));
            }
            if outcome.crashed {
                err("[live] stopped by --stop-after (simulated crash; no final snapshot)");
            }
            if cli.verdicts {
                for verdict in &outcome.verdicts {
                    out(&verdict.to_json());
                }
            }
            out(&outcome.summary.to_json());
            0
        }
        Err(msg) => {
            err(&format!("airguard-live: {msg}"));
            1
        }
    }
}

/// Entry point for the `airguard-live` binary.
#[must_use]
pub fn cli_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(cli) => run_cli(&cli),
        Err(msg) => {
            err(&format!("airguard-live: {msg}"));
            err(USAGE);
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse, run_cli};
    use crate::engine::OverflowPolicy;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn minimal_replay_invocation_parses_with_defaults() {
        let cli = parse(&args(&["--replay", "feed.jsonl"])).expect("parses");
        assert_eq!(cli.replay.as_deref(), Some("feed.jsonl"));
        assert_eq!(cli.shards, 4);
        assert_eq!(cli.overflow, OverflowPolicy::Block);
        assert_eq!(cli.queue, 256);
        assert_eq!(cli.checkpoint_every, 1000);
        assert_eq!(cli.quarantine_budget, 10_000);
        assert!(cli.stop_after.is_none() && cli.checkpoint.is_none());
    }

    #[test]
    fn full_flag_set_parses() {
        let cli = parse(&args(&[
            "--replay",
            "feed.jsonl",
            "--shards",
            "8",
            "--overflow",
            "drop-oldest",
            "--detector",
            "cusum",
            "--checkpoint",
            "/tmp/ck",
            "--checkpoint-every",
            "500",
            "--stop-after",
            "1234",
            "--queue",
            "64",
            "--quarantine-budget",
            "9",
            "--label",
            "smoke",
            "--verdicts",
        ]))
        .expect("parses");
        assert_eq!(cli.shards, 8);
        assert_eq!(cli.overflow, OverflowPolicy::DropOldest);
        assert_eq!(cli.detector.kind(), "cusum");
        assert_eq!(cli.checkpoint.as_deref(), Some("/tmp/ck"));
        assert_eq!(cli.checkpoint_every, 500);
        assert_eq!(cli.stop_after, Some(1234));
        assert_eq!(cli.queue, 64);
        assert_eq!(cli.quarantine_budget, 9);
        assert_eq!(cli.label, "smoke");
        assert!(cli.verdicts);
    }

    #[test]
    fn malformed_shards_are_rejected_never_defaulted() {
        let base = ["--replay", "feed.jsonl"];
        for bad in ["0", "-3", "many", "4.5"] {
            let mut a = base.to_vec();
            a.extend(["--shards", bad]);
            let msg = parse(&args(&a)).expect_err(bad);
            assert!(msg.contains("--shards"), "{msg}");
            assert!(msg.contains("positive integer"), "{msg}");
        }
        assert!(parse(&args(&["--replay", "f", "--shards"]))
            .expect_err("missing")
            .contains("missing value"));
    }

    #[test]
    fn env_shards_is_validated_not_silently_defaulted() {
        // Shared parser, pinned without mutating process-global env
        // (other tests run `parse` concurrently).
        let msg = super::parse_positive("AIRGUARD_LIVE_SHARDS", "lots").expect_err("junk");
        assert!(msg.contains("AIRGUARD_LIVE_SHARDS"), "{msg}");
        assert!(msg.contains("positive integer"), "{msg}");
    }

    #[test]
    fn malformed_overflow_lists_the_kinds() {
        let msg = parse(&args(&["--replay", "f", "--overflow", "spill"])).expect_err("bad kind");
        assert!(msg.contains("--overflow"), "{msg}");
        assert!(
            msg.contains("expected block, drop-oldest, or sample"),
            "{msg}"
        );
        // Whitespace is tolerated around a valid kind.
        let cli = parse(&args(&["--replay", "f", "--overflow", " sample "])).expect("parses");
        assert_eq!(cli.overflow, OverflowPolicy::Sample);
    }

    #[test]
    fn malformed_detector_lists_the_kinds() {
        let msg = parse(&args(&["--replay", "f", "--detector", "ewma"])).expect_err("bad kind");
        assert!(msg.contains("--detector"), "{msg}");
        assert!(msg.contains("window, cusum, or cw"), "{msg}");
    }

    #[test]
    fn exactly_one_feed_is_required() {
        let none = parse(&[]).expect_err("no feed");
        assert!(none.contains("exactly one feed"), "{none}");
        let two = parse(&args(&["--replay", "a", "--listen", "b"])).expect_err("two feeds");
        assert!(two.contains("exactly one feed"), "{two}");
        // --help needs no feed.
        assert!(parse(&args(&["--help"])).expect("parses").help);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(&args(&["--replay", "f", "--frobnicate"]))
            .expect_err("unknown")
            .contains("unknown flag"));
    }

    #[test]
    fn missing_replay_file_is_a_runtime_failure_not_a_crash() {
        let cli = parse(&args(&["--replay", "/nonexistent/feed.jsonl"])).expect("parses");
        assert_eq!(run_cli(&cli), 1);
    }
}
