//! The `--figure live_replay` harness: streaming-service throughput.
//!
//! Like `hotpath` and `scale` this measures the software, not the
//! paper: it synthesizes a deterministic `.events.jsonl` replay feed
//! (a mixed honest/misbehaving station population), streams it through
//! the `airguard-live` engine, and records
//!
//! * sustained observations/sec of the single-shard run (the per-core
//!   ingest figure — JSONL decode, routing, and detection included);
//! * p99 ingest→verdict latency at the parallel shard count (each
//!   observation is stamped at enqueue and measured at the detector);
//! * the byte-identity of the final summaries at 1 shard and the
//!   parallel shard count — the live determinism contract, grepped by
//!   CI exactly like the `scale` harness's identity line.
//!
//! The feed defaults to 200 000 records over 64 stations and is
//! overridable with `AIRGUARD_LIVE_RECORDS` (malformed values are
//! rejected, like every other airguard knob); CI downscales.

use std::time::Instant;

use airguard_live::engine::{run as live_run, LiveConfig, LiveOutcome};
use airguard_live::replay::JsonlSource;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Where the live-replay report lives (working directory = repo root).
pub const REPORT_PATH: &str = "BENCH_live.json";

/// Default replay length; `AIRGUARD_LIVE_RECORDS` overrides.
const DEFAULT_RECORDS: u64 = 200_000;

/// Monitored station population in the synthetic feed.
const STATIONS: u32 = 64;

/// Parallel shard count used when `--shard-workers` is left at 1.
const DEFAULT_PARALLEL: u32 = 4;

/// Synthesizes the replay feed: `records` monitor `backoff_assigned`
/// lines over `STATIONS` stations, every fourth station misbehaving
/// (it backs off ~20% of its assignment).
#[must_use]
pub fn synth_feed(records: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(97);
    let mut feed = String::with_capacity(usize::try_from(records).unwrap_or(0) * 128);
    for i in 0..records {
        let src = rng.random_range(0..STATIONS);
        let assigned = f64::from(rng.random_range(8u32..32));
        let observed = if src % 4 == 0 {
            (assigned * 0.2).max(1.0)
        } else {
            assigned
        };
        feed.push_str(&format!(
            "{{\"t_us\":{},\"node\":0,\"cat\":\"monitor\",\"event\":\"backoff_assigned\",\"src\":{src},\"assigned_slots\":{assigned},\"observed_slots\":{observed},\"xid\":1}}\n",
            (i + 1) * 100
        ));
    }
    feed.into_bytes()
}

/// One measured pass of the feed through the live engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Shard count the run used.
    pub shards: u32,
    /// Observations the run processed.
    pub observations: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// `observations / wall_s`.
    pub obs_per_sec: f64,
    /// p99 ingest→verdict latency, microseconds.
    pub p99_latency_us: u64,
}

impl Measurement {
    fn to_json(&self) -> String {
        format!(
            "{{\"shards\":{},\"observations\":{},\"wall_s\":{:.4},\"obs_per_sec\":{:.0},\"p99_latency_us\":{}}}",
            self.shards, self.observations, self.wall_s, self.obs_per_sec, self.p99_latency_us
        )
    }
}

/// p99 of an unsorted latency sample (0 when empty).
fn p99(latencies: &mut [u64]) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    let rank = (latencies.len() - 1) * 99 / 100;
    latencies[rank]
}

/// Streams the feed through the engine once at the given shard count.
fn measure(feed: &[u8], shards: u32) -> Result<(LiveOutcome, Measurement), String> {
    let mut config = LiveConfig::new(shards);
    config.measure_latency = true;
    let mut source = JsonlSource::new(feed);
    let start = Instant::now();
    let mut outcome = live_run(&config, &mut source)?;
    let wall_s = start.elapsed().as_secs_f64();
    let observations = outcome.summary.counters["live.observations"];
    let m = Measurement {
        shards,
        observations,
        wall_s,
        obs_per_sec: observations as f64 / wall_s.max(f64::MIN_POSITIVE),
        p99_latency_us: p99(&mut outcome.latencies_us),
    };
    Ok((outcome, m))
}

/// Renders the live-replay report file.
#[must_use]
pub fn render_report(
    records: u64,
    cores: usize,
    serial: &Measurement,
    parallel: &Measurement,
    identical: bool,
) -> String {
    let speedup = if parallel.wall_s > 0.0 {
        serial.wall_s / parallel.wall_s
    } else {
        0.0
    };
    format!(
        "{{\"schema\":\"airguard.live.v1\",\
         \"scenario\":\"jsonl replay, {STATIONS} stations, 1-in-4 misbehaving\",\
         \"records\":{records},\"cores\":{cores},\
         \"serial\":{},\"parallel\":{},\
         \"obs_per_sec_per_core\":{:.0},\
         \"p99_ingest_to_verdict_us\":{},\
         \"speedup\":{speedup:.2},\
         \"summaries_identical\":{identical}}}\n",
        serial.to_json(),
        parallel.to_json(),
        serial.obs_per_sec,
        parallel.p99_latency_us,
    )
}

/// Runs the full harness: serial + parallel pass, byte-identity check,
/// report write. Returns the console summary lines.
///
/// # Errors
///
/// Returns an error when the summaries differ between shard counts (a
/// broken determinism contract), the engine fails, or the report file
/// cannot be written.
pub fn run(shard_workers: usize) -> Result<Vec<String>, String> {
    let records = crate::cli::env_positive("AIRGUARD_LIVE_RECORDS")?.unwrap_or(DEFAULT_RECORDS);
    let parallel_shards = match u32::try_from(shard_workers) {
        Ok(n) if n > 1 => n,
        _ => DEFAULT_PARALLEL,
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let feed = synth_feed(records);
    let (serial_outcome, serial) = measure(&feed, 1)?;
    let (parallel_outcome, parallel) = measure(&feed, parallel_shards)?;
    let identical = serial_outcome.summary.to_json() == parallel_outcome.summary.to_json();
    if !identical {
        return Err(format!(
            "live_replay: summaries diverged between 1 and {parallel_shards} shards — the live \
             determinism contract is broken"
        ));
    }
    let report = render_report(records, cores, &serial, &parallel, identical);
    std::fs::write(REPORT_PATH, &report)
        .map_err(|e| format!("failed to write {REPORT_PATH}: {e}"))?;
    Ok(vec![
        format!(
            "live_replay serial: {records} records, {STATIONS} stations: {:.3} s = {:.0} obs/s per core (p99 {} us)",
            serial.wall_s, serial.obs_per_sec, serial.p99_latency_us
        ),
        format!(
            "live_replay parallel: {parallel_shards} shards on {cores} core(s): {:.3} s = {:.0} obs/s (p99 {} us)",
            parallel.wall_s, parallel.obs_per_sec, parallel.p99_latency_us
        ),
        format!("live_replay identity: summaries byte-identical at 1 and {parallel_shards} shards"),
        format!("live_replay report: {REPORT_PATH}"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(shards: u32, wall_s: f64) -> Measurement {
        Measurement {
            shards,
            observations: 200_000,
            wall_s,
            obs_per_sec: 200_000.0 / wall_s,
            p99_latency_us: 420,
        }
    }

    #[test]
    fn p99_picks_the_right_rank() {
        let mut one = vec![7];
        assert_eq!(p99(&mut one), 7);
        let mut none: Vec<u64> = Vec::new();
        assert_eq!(p99(&mut none), 0);
        let mut ramp: Vec<u64> = (1..=100).collect();
        assert_eq!(p99(&mut ramp), 99);
    }

    #[test]
    fn report_records_throughput_latency_and_identity() {
        let report = render_report(200_000, 8, &m(1, 2.0), &m(4, 0.5), true);
        assert!(report.contains("\"schema\":\"airguard.live.v1\""));
        assert!(report.contains("\"records\":200000"));
        assert!(report.contains("\"cores\":8"));
        assert!(report.contains("\"obs_per_sec_per_core\":100000"));
        assert!(report.contains("\"p99_ingest_to_verdict_us\":420"));
        assert!(report.contains("\"speedup\":4.00"));
        assert!(report.contains("\"summaries_identical\":true"));
    }

    #[test]
    fn harness_runs_end_to_end_at_a_tiny_scale() {
        // A real (downscaled) pass: 3000 records, parallel point at 2
        // shards. No other test in this process touches
        // AIRGUARD_LIVE_RECORDS.
        std::env::set_var("AIRGUARD_LIVE_RECORDS", "3000");
        let lines = run(2);
        std::env::remove_var("AIRGUARD_LIVE_RECORDS");
        let lines = lines.expect("harness run succeeds");
        assert!(
            lines
                .iter()
                .any(|l| l.contains("byte-identical at 1 and 2 shards")),
            "identity line missing: {lines:?}"
        );
        let written = std::fs::read_to_string(REPORT_PATH).expect("report written");
        let _ = std::fs::remove_file(REPORT_PATH);
        assert!(written.contains("\"summaries_identical\":true"));
        assert!(written.contains("\"schema\":\"airguard.live.v1\""));
    }
}
