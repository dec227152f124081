//! The live-service workload: a synthetic fleet feed replayed through
//! `airguard-live` with periodic checkpoints, a simulated crash and a
//! restart.
//!
//! Every layer is timed from outside the engine. [`TimedSource`] wraps
//! the feed handed to `engine::run`: the time inside
//! `next_observation` is decode, the gap between one return and the
//! next pull is the feeder's route + enqueue + blocked time, and the
//! gap after every `checkpoint_every`-th record is the checkpoint
//! barrier and write. Restore is timed through `Checkpoint::load_latest`
//! and detection through a standalone `DeviationDetector::observe`
//! replay of the same observations.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use airguard_core::{DeviationDetector, ObservationSource, SourceError, StationObservation};
use airguard_live::engine::{run, LiveConfig, LiveOutcome};
use airguard_live::{Checkpoint, JsonlSource};
use airguard_mac::BackoffObservation;

use crate::measure::{
    clock_bias_ns, heap_peak, median, nproc, percentile, repeat_for, reps_note, tail_pct, Report,
};

/// Station id space of the fleet feed.
pub const FLEET_STATIONS: u64 = 200_000;
/// The hot 1% of stations that receives half of the records.
const FLEET_HOT: u64 = FLEET_STATIONS / 100;
/// Records in the fleet feed. With this table size the final
/// checkpoint image (~6 MB) sits clear of the image buffer's growth
/// steps (~3.6–3.9 MB and ~7.2–7.9 MB, depending on the seed), so the
/// heap peak does not jump between seeds.
pub const FLEET_RECORDS: u64 = 200_000;
/// One line in every block of this many is corrupted (0.1%).
const FLEET_CORRUPT_BLOCK: u64 = 1_000;
/// Snapshot period of the fleet run, in records: three snapshots
/// before the crash, one periodic and the final one after the restart.
const FLEET_CHECKPOINT_EVERY: u64 = 45_000;
/// Where the fleet run crashes (80% of the feed).
const FLEET_CRASH_AT: u64 = FLEET_RECORDS / 5 * 4;

/// Shard count of the live workload: one core stays with the feeder.
fn live_shards() -> u32 {
    u32::try_from(nproc().saturating_sub(1).max(1)).unwrap_or(1)
}

/// SplitMix64: the fleet generator's deterministic stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A generated feed and what the generator knows about it.
struct Feed {
    bytes: Vec<u8>,
    /// Feed lines.
    lines: u64,
    /// Lines the generator corrupted.
    corrupted: u64,
    /// Ground truth per station id.
    misbehaving: Vec<bool>,
}

/// A monitor-only feed over [`FLEET_STATIONS`] stations: half of the
/// records hit the hot 1%, one station in four misbehaves (idles a
/// fifth of its assignment), and one line per
/// [`FLEET_CORRUPT_BLOCK`] is cut in half.
fn fleet_feed(seed: u64) -> Feed {
    let mut rng = SplitMix(seed ^ 0xF1EE_7000);
    let misbehaving: Vec<bool> = (0..FLEET_STATIONS).map(|_| rng.below(4) == 0).collect();
    let mut bytes = Vec::with_capacity(FLEET_RECORDS as usize * 140);
    let mut corrupt_at = rng.below(FLEET_CORRUPT_BLOCK);
    let mut corrupted = 0;
    for i in 0..FLEET_RECORDS {
        let station = if rng.below(2) == 0 {
            rng.below(FLEET_HOT)
        } else {
            rng.below(FLEET_STATIONS)
        };
        let assigned = 8 + rng.below(24);
        let observed = if misbehaving[station as usize] {
            (assigned as f64 * 0.2).max(1.0)
        } else {
            (assigned + rng.below(4)) as f64
        };
        let line = format!(
            "{{\"t_us\":{},\"node\":0,\"cat\":\"monitor\",\"event\":\"backoff_assigned\",\"src\":{station},\"assigned_slots\":{assigned},\"observed_slots\":{observed},\"xid\":{}}}",
            (i + 1) * 100,
            i + 1
        );
        if i % FLEET_CORRUPT_BLOCK == corrupt_at {
            // Half an object never parses: a torn write on the wire.
            bytes.extend_from_slice(&line.as_bytes()[..line.len() / 2]);
            corrupted += 1;
        } else {
            bytes.extend_from_slice(line.as_bytes());
        }
        bytes.push(b'\n');
        if i % FLEET_CORRUPT_BLOCK == FLEET_CORRUPT_BLOCK - 1 {
            corrupt_at = rng.below(FLEET_CORRUPT_BLOCK);
        }
    }
    Feed {
        bytes,
        lines: FLEET_RECORDS,
        corrupted,
        misbehaving,
    }
}

/// What [`TimedSource`] saw of one engine run.
#[derive(Debug, Default, Clone, Copy)]
struct SourceTiming {
    /// Observations plus malformed records handed to the engine.
    returned: u64,
    /// Observations the engine routed (past the restored prefix).
    routed: u64,
    /// Pulls timed.
    calls: u64,
    decode: Duration,
    /// Gaps between pulls past the prefix, snapshot gaps excluded.
    feeder: Duration,
    feeder_gaps: u64,
    /// Gaps that held a checkpoint barrier and write.
    barrier: Duration,
    barriers: u64,
}

impl SourceTiming {
    /// Both runs' figures together (a crash run and its restart).
    fn plus(&self, other: &SourceTiming) -> SourceTiming {
        SourceTiming {
            returned: self.returned + other.returned,
            routed: self.routed + other.routed,
            calls: self.calls + other.calls,
            decode: self.decode + other.decode,
            feeder: self.feeder + other.feeder,
            feeder_gaps: self.feeder_gaps + other.feeder_gaps,
            barrier: self.barrier + other.barrier,
            barriers: self.barriers + other.barriers,
        }
    }
}

/// The feed wrapper handed to `engine::run`. With `detail` off it only
/// notes the first pull and counts; with it on it also times each pull
/// and each gap between pulls.
struct TimedSource<S> {
    inner: S,
    detail: bool,
    /// Records the engine skips because a restored checkpoint holds them.
    skip_prefix: u64,
    /// The engine's snapshot period (0 when checkpoints are off).
    checkpoint_every: u64,
    first_pull: Option<Instant>,
    last_return: Option<Instant>,
    timing: SourceTiming,
}

impl<S> TimedSource<S> {
    fn count(&mut self, out: &Result<Option<StationObservation>, SourceError>) {
        let routed = matches!(out, Ok(Some(_)));
        if routed || matches!(out, Err(SourceError::Malformed(_))) {
            self.timing.returned += 1;
            if routed && self.timing.returned > self.skip_prefix {
                self.timing.routed += 1;
            }
        }
    }
}

impl<S: ObservationSource> ObservationSource for TimedSource<S> {
    fn next_observation(&mut self) -> Result<Option<StationObservation>, SourceError> {
        if self.first_pull.is_none() {
            self.first_pull = Some(Instant::now());
        }
        if !self.detail {
            let out = self.inner.next_observation();
            self.count(&out);
            return out;
        }
        let pulled = Instant::now();
        let t = &mut self.timing;
        if let Some(last) = self.last_return {
            let gap = pulled - last;
            if t.returned > self.skip_prefix {
                if t.returned.is_multiple_of(self.checkpoint_every) {
                    t.barrier += gap;
                    t.barriers += 1;
                } else {
                    t.feeder += gap;
                    t.feeder_gaps += 1;
                }
            }
        }
        let out = self.inner.next_observation();
        self.count(&out);
        let now = Instant::now();
        self.timing.decode += now - pulled;
        self.timing.calls += 1;
        self.last_return = Some(now);
        out
    }
}

/// One `engine::run` over a feed.
struct Pass {
    outcome: LiveOutcome,
    /// Wall seconds of the `run` call.
    wall: f64,
    /// `run` entry to the first pull.
    setup: f64,
    timing: SourceTiming,
}

impl Pass {
    fn counter(&self, name: &str) -> u64 {
        self.outcome
            .summary
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }
}

fn pass(config: &LiveConfig, feed: &[u8], detail: bool, skip_prefix: u64) -> Result<Pass, String> {
    let mut source = TimedSource {
        inner: JsonlSource::new(feed),
        detail,
        skip_prefix,
        checkpoint_every: if config.checkpoint_dir.is_some() {
            config.checkpoint_every
        } else {
            0
        },
        first_pull: None,
        last_return: None,
        timing: SourceTiming::default(),
    };
    let entered = Instant::now();
    let outcome = run(config, &mut source)?;
    let wall = entered.elapsed().as_secs_f64();
    let setup = source
        .first_pull
        .map_or(0.0, |at| at.duration_since(entered).as_secs_f64());
    Ok(Pass {
        outcome,
        wall,
        setup,
        timing: source.timing,
    })
}

/// Nanoseconds per detector call, from a standalone replay of the
/// feed's observations through fresh per-station detectors built as
/// the engine builds them; also the replay's flag count.
fn detect_replay(feed: &[u8]) -> Result<(f64, u64), String> {
    let config = LiveConfig::new(1);
    let mut source = JsonlSource::new(feed);
    let mut observations = Vec::new();
    loop {
        match source.next_observation() {
            Ok(Some(obs)) => observations.push(obs),
            Ok(None) => break,
            Err(SourceError::Malformed(_)) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    let stations = observations
        .iter()
        .map(|o| o.station as usize + 1)
        .max()
        .unwrap_or(0);
    let mut samples = Vec::new();
    let mut flagged = 0;
    for _ in 0..3 {
        let mut table: Vec<Option<Box<dyn DeviationDetector>>> =
            std::iter::repeat_with(|| None).take(stations).collect();
        flagged = 0;
        let started = Instant::now();
        for obs in &observations {
            let detector = table[obs.station as usize]
                .get_or_insert_with(|| config.detector.build(config.diagnosis));
            let deviation = config
                .correction
                .deviation(obs.assigned_slots, obs.observed_slots);
            let backoff = BackoffObservation {
                assigned_slots: obs.assigned_slots,
                observed_slots: obs.observed_slots,
                deviation_slots: deviation,
                penalty_slots: config.correction.penalty(deviation),
            };
            if detector
                .observe(Some(&backoff), config.diagnosis.thresh)
                .flagged
            {
                flagged += 1;
            }
        }
        samples.push(started.elapsed().as_nanos() as f64 / observations.len().max(1) as f64);
    }
    Ok((median(&samples), flagged))
}

/// Verdict latency figures from a closed-loop run with
/// `measure_latency` on: diagnostics only, never bounded.
fn verdict_latency(report: &mut Report, config: &LiveConfig, feed: &[u8]) -> Result<(), String> {
    let mut config = config.clone();
    config.measure_latency = true;
    let mut timed = pass(&config, feed, false, 0)?;
    let lat = &mut timed.outcome.latencies_us;
    lat.sort_unstable();
    let tail = tail_pct(lat.len());
    report.set("live.engine.verdict_p50_us", percentile(lat, 50.0) as f64);
    report.set("live.engine.verdict_tail_us", percentile(lat, tail) as f64);
    report.set("live.engine.verdict_tail_pct", tail);
    report.set("live.engine.verdict_samples", lat.len() as f64);
    Ok(())
}

/// Decode and feeder figures, net of the clock reads that time them.
fn replay_layers(report: &mut Report, timing: &SourceTiming, lines: u64, bias_ns: f64) {
    let net = |d: Duration, n: u64| (d.as_nanos() as f64 - n as f64 * bias_ns).max(0.0);
    report.set(
        "live.replay.decode_ns_per_record",
        net(timing.decode, timing.calls) / lines.max(1) as f64,
    );
    report.set(
        "live.engine.feeder_ns_per_obs",
        net(timing.feeder, timing.feeder_gaps) / timing.feeder_gaps.max(1) as f64,
    );
}

fn engine_layers(report: &mut Report, last: &Pass) {
    report.set("live.engine.stations", last.counter("live.stations") as f64);
    report.set(
        "live.engine.quarantined",
        last.counter("live.quarantined") as f64,
    );
    report.set("live.engine.shed", last.counter("live.shed_dropped") as f64);
}

/// A crash at [`FLEET_CRASH_AT`] and the restart that finishes the feed.
struct Cycle {
    crash: Pass,
    restart: Pass,
    /// `Checkpoint::load_latest` milliseconds (timed passes only).
    load_ms: f64,
    /// `.ckpt` bytes on disk after the cycle.
    bytes: u64,
}

impl Cycle {
    fn wall(&self) -> f64 {
        self.crash.wall + self.restart.wall
    }

    fn routed(&self) -> u64 {
        self.crash.timing.plus(&self.restart.timing).routed
    }
}

/// The checkpoint directory of this process, inside the benchmark's
/// own directory.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("fleet-{}", std::process::id()))
}

fn ckpt_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// The newest checkpoint at the crash: the last periodic snapshot.
const FLEET_PREFIX: u64 = FLEET_CRASH_AT / FLEET_CHECKPOINT_EVERY * FLEET_CHECKPOINT_EVERY;

fn cycle(feed: &Feed, shards: u32, detail: bool) -> Result<Cycle, String> {
    let dir = work_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut config = LiveConfig::new(shards);
    config.checkpoint_dir = Some(dir.clone());
    config.checkpoint_every = FLEET_CHECKPOINT_EVERY;
    config.stop_after = Some(FLEET_CRASH_AT);
    let crash = pass(&config, &feed.bytes, detail, 0)?;
    let mut load_ms = 0.0;
    if detail {
        let started = Instant::now();
        let (loaded, _) = Checkpoint::load_latest(&dir);
        load_ms = started.elapsed().as_secs_f64() * 1e3;
        let consumed = loaded.map_or(0, |(c, _)| c.consumed);
        if consumed != FLEET_PREFIX {
            return Err(format!(
                "newest checkpoint holds {consumed} records, expected {FLEET_PREFIX}"
            ));
        }
    }
    config.stop_after = None;
    let restart = pass(&config, &feed.bytes, detail, FLEET_PREFIX)?;
    let bytes = ckpt_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent); // only succeeds once empty
    }
    Ok(Cycle {
        crash,
        restart,
        load_ms,
        bytes,
    })
}

/// `live_fleet`: checkpointed fleet feed, crash at 80%, restart.
pub fn live_fleet(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let shards = live_shards();
    let feed = fleet_feed(seed);
    let window = LiveConfig::new(1).diagnosis.window as u64;
    let mut report = Report::default();
    report.notes.push(format!(
        "live_fleet: {FLEET_RECORDS} records over {FLEET_STATIONS} stations, {} corrupted, \
         checkpoint every {FLEET_CHECKPOINT_EVERY}, crash at {FLEET_CRASH_AT}, {shards} shards on {} cores",
        feed.corrupted,
        nproc()
    ));
    let config = LiveConfig::new(shards);
    let uninterrupted = pass(&config, &feed.bytes, false, 0)?;
    let reference = uninterrupted.outcome.summary.to_json();
    let resumed_from = format!("ckpt-{FLEET_PREFIX:012}.ckpt");
    let check = |report: &mut Report, c: &Cycle| {
        let end = &c.restart;
        let quarantined = end.counter("live.quarantined");
        let shed = end.counter("live.shed_dropped");
        report.attempted += FLEET_CRASH_AT + feed.lines;
        report.failed += shed + quarantined.abs_diff(feed.corrupted);
        report.check(c.crash.outcome.crashed, || {
            "the crash run did not stop early".to_owned()
        });
        report.check(
            end.outcome
                .restored_from
                .as_ref()
                .is_some_and(|p| p.ends_with(&resumed_from)),
            || {
                format!(
                    "restart resumed from {:?}, not {resumed_from}",
                    end.outcome.restored_from
                )
            },
        );
        report.check(end.outcome.summary.to_json() == reference, || {
            "restarted summary differs from the uninterrupted run".to_owned()
        });
        report.check(quarantined == feed.corrupted, || {
            format!(
                "{quarantined} quarantined, {} lines corrupted",
                feed.corrupted
            )
        });
        report.check(shed == 0, || format!("{shed} observations shed"));
        for v in &end.outcome.verdicts {
            let Some(&cheat) = feed.misbehaving.get(v.station as usize) else {
                report.check(false, || {
                    format!("verdict for unknown station {}", v.station)
                });
                continue;
            };
            report.check(cheat || !v.misbehaving(), || {
                format!("honest station {} flagged", v.station)
            });
            report.check(!cheat || v.observations < window || v.misbehaving(), || {
                format!("misbehaving station {} missed", v.station)
            });
        }
    };
    if trace {
        let bias = clock_bias_ns();
        let light = cycle(&feed, shards, false)?;
        let timed = cycle(&feed, shards, true)?;
        check(&mut report, &light);
        check(&mut report, &timed);
        let timing = timed.crash.timing.plus(&timed.restart.timing);
        replay_layers(&mut report, &timing, FLEET_CRASH_AT + feed.lines, bias);
        engine_layers(&mut report, &timed.restart);
        report.set(
            "live.checkpoint.count",
            (timed.crash.outcome.checkpoints_written + timed.restart.outcome.checkpoints_written)
                as f64,
        );
        report.set(
            "live.checkpoint.barrier_ms",
            timing.barrier.as_secs_f64() * 1e3 / timing.barriers.max(1) as f64,
        );
        report.set("live.checkpoint.bytes", timed.bytes as f64);
        report.set("live.checkpoint.load_ms", timed.load_ms);
        report.set("live.restore.prefix_records", FLEET_PREFIX as f64);
        verdict_latency(&mut report, &config, &feed.bytes)?;
        let (ns, flagged) = detect_replay(&feed.bytes)?;
        report.set("core.detect.ns_per_obs", ns);
        report.check(flagged == uninterrupted.counter("live.flagged"), || {
            format!(
                "detector replay flagged {flagged}, engine {}",
                uninterrupted.counter("live.flagged")
            )
        });
        report.family_rate(
            "records_per_s",
            "1/s",
            (FLEET_CRASH_AT + feed.lines) as f64 / light.wall(),
        );
        report.family_rate("obs_per_s", "1/s", light.routed() as f64 / light.wall());
        let end = &light.restart;
        report.failed_frac(
            end.counter("live.quarantined") + end.counter("live.shed_dropped"),
            end.counter("live.consumed"),
        );
    } else {
        let (warm, mem_mb) = heap_peak(|| cycle(&feed, shards, false));
        check(&mut report, &warm?);
        let reps = repeat_for(seconds, 3, || cycle(&feed, shards, false))?;
        for c in &reps {
            check(&mut report, c);
        }
        let of = |f: &dyn Fn(&Cycle) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        report.set("wall_s", of(&|c| c.wall()));
        report.set("setup_s", of(&|c| c.restart.setup));
        report.set("mem_peak_mb", mem_mb);
        report.family_rate(
            "records_per_s",
            "1/s",
            of(&|c| (FLEET_CRASH_AT + feed.lines) as f64 / c.wall()),
        );
        report.family_rate("obs_per_s", "1/s", of(&|c| c.routed() as f64 / c.wall()));
        if let Some(last) = reps.last().map(|c| &c.restart) {
            report.failed_frac(
                last.counter("live.quarantined") + last.counter("live.shed_dropped"),
                last.counter("live.consumed"),
            );
        }
        report.notes.push(reps_note(
            "live_fleet",
            &reps.iter().map(Cycle::wall).collect::<Vec<_>>(),
        ));
    }
    Ok(report)
}
