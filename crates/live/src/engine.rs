//! The sharded streaming engine: a feeder thread routing observations
//! into per-shard bounded queues, N shard workers each owning a stripe
//! of per-station detectors, and the robustness machinery around them —
//! overflow policies, quarantine accounting, checkpoint barriers, and a
//! stuck-shard watchdog.
//!
//! # Determinism
//!
//! Per-station results depend only on the sequence of that station's
//! observations, and the feeder routes every observation of a station
//! to the same shard over a FIFO channel — so shard count and thread
//! interleaving never change a verdict. Under the `block` overflow
//! policy no observation is ever dropped, which makes the final
//! [`RunSummary`] byte-identical across shard counts *and* across a
//! kill/restore at any record boundary (the checkpoint tests pin both).
//! The lossy policies (`drop-oldest`, `sample`) trade that for bounded
//! memory under overload; every record they discard is counted and
//! emitted as a typed event, never silently lost.
//!
//! # Divergence from the offline monitor
//!
//! The offline [`airguard_core::Monitor`] sits inside the receiver's
//! MAC and derives `B_exp` from retry state; the live engine consumes
//! already-measured `backoff_assigned` telemetry, so it applies the
//! paper's Eq. 1 deviation and the configured detector directly to the
//! replayed `(assigned, observed)` pair, with the static diagnosis
//! threshold (no adaptive noise scaling — that extension needs the
//! monitor-global idle census the feed does not carry).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use airguard_core::{
    CorrectionConfig, DetectorConfig, DeviationDetector, DiagnosisConfig, ObservationSource,
    SourceError, StationObservation,
};
use airguard_mac::BackoffObservation;
use airguard_obs::{fnv1a_hex, EventSink, JsonObject, ObsEvent, RunSummary, NO_NODE};

use crate::channel::{bounded, Receiver, RecvTimeout, SendError, Sender};
use crate::checkpoint::{Checkpoint, StationRecord};

/// What a full shard queue does to the overflowing observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Backpressure: the feeder blocks until the shard drains (lossless;
    /// the watchdog still breaks the wait if the shard is stuck).
    #[default]
    Block,
    /// Evict the oldest queued observation, counting and reporting it.
    DropOldest,
    /// Degrade to sampling: forward every k-th observation, doubling k
    /// while the queue stays full and halving it as the queue drains.
    Sample,
}

impl OverflowPolicy {
    /// Short stable name: `block`, `drop-oldest`, or `sample`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            OverflowPolicy::Block => "block",
            OverflowPolicy::DropOldest => "drop-oldest",
            OverflowPolicy::Sample => "sample",
        }
    }

    /// Parses a policy name; malformed values fail loudly, listing the
    /// accepted kinds (the CLI/env contract — never silently default).
    pub fn from_kind(name: &str) -> Result<Self, String> {
        match name {
            "block" => Ok(OverflowPolicy::Block),
            "drop-oldest" => Ok(OverflowPolicy::DropOldest),
            "sample" => Ok(OverflowPolicy::Sample),
            other => Err(format!(
                "unknown overflow policy `{other}` (expected block, drop-oldest, or sample)"
            )),
        }
    }
}

/// Test-only fault hooks, mirroring the fault crate's injection idiom:
/// production code paths exercise their degraded branches under
/// deterministic, explicitly-requested faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveFaults {
    /// A worker that receives an observation from this station parks
    /// (consuming nothing further) until its shard is quarantined or
    /// the engine shuts down — the stuck-shard watchdog's test hook.
    pub stall_station: Option<u32>,
}

/// Engine configuration. `shards` and `queue_capacity` are deployment
/// tuning and deliberately excluded from [`LiveConfig::config_digest`];
/// everything that can change a verdict is included.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Summary label (default `"live"`).
    pub label: String,
    /// Recorded in the summary; the engine itself draws no randomness.
    pub seed: u64,
    /// Worker shard count (≥ 1).
    pub shards: u32,
    /// Full-queue behaviour.
    pub overflow: OverflowPolicy,
    /// Per-station detector to run.
    pub detector: DetectorConfig,
    /// Window/threshold parameters for the window detector.
    pub diagnosis: DiagnosisConfig,
    /// Eq. 1 deviation parameters.
    pub correction: CorrectionConfig,
    /// Per-shard queue capacity in observations.
    pub queue_capacity: usize,
    /// Checkpoint directory; `None` disables snapshots and restore.
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot every N consumed records (0 = only the final snapshot).
    pub checkpoint_every: u64,
    /// Stop abruptly after consuming N records — a simulated crash: no
    /// final snapshot is written, only the periodic ones survive.
    pub stop_after: Option<u64>,
    /// Malformed records tolerated in one run before the engine gives
    /// up on the feed as hopeless.
    pub quarantine_budget: u64,
    /// How long a full shard queue may refuse progress before the
    /// watchdog quarantines the shard.
    pub stall_timeout: Duration,
    /// Stamp each observation at enqueue and record ingest→verdict
    /// latency (wall-clock; for the bench harness, not for summaries).
    pub measure_latency: bool,
    /// Graceful-drain flag (the SIGTERM hook): when it flips true the
    /// feeder stops pulling, flushes a final snapshot, and drains.
    pub drain: Option<Arc<AtomicBool>>,
    /// Telemetry sink for `live.*` events.
    pub sink: EventSink,
    /// Fault-injection hooks (tests only).
    pub faults: LiveFaults,
}

impl LiveConfig {
    /// A default-parameter config over `shards` workers.
    #[must_use]
    pub fn new(shards: u32) -> Self {
        LiveConfig {
            label: "live".to_owned(),
            seed: 0,
            shards,
            overflow: OverflowPolicy::Block,
            detector: DetectorConfig::Window,
            diagnosis: DiagnosisConfig::paper_default(),
            correction: CorrectionConfig::paper_default(),
            queue_capacity: 256,
            checkpoint_dir: None,
            checkpoint_every: 0,
            stop_after: None,
            quarantine_budget: 10_000,
            stall_timeout: Duration::from_millis(2_000),
            measure_latency: false,
            drain: None,
            sink: EventSink::new(),
            faults: LiveFaults::default(),
        }
    }

    /// Digest of everything that can change a verdict. Shard count and
    /// queue capacity are excluded on purpose: under the lossless
    /// policy they must not matter, and the byte-identity tests compare
    /// summaries across shard counts.
    #[must_use]
    pub fn config_digest(&self) -> String {
        let identity = format!(
            "live|detector={}:{}|window={}|thresh={}|alpha={}|overflow={}",
            self.detector.kind(),
            self.detector.identity_fragment().unwrap_or_default(),
            self.diagnosis.window,
            self.diagnosis.thresh,
            self.correction.alpha,
            self.overflow.kind(),
        );
        fnv1a_hex(identity.as_bytes())
    }
}

/// One station's final classification.
#[derive(Debug, Clone, PartialEq)]
pub struct StationVerdict {
    /// Station id.
    pub station: u32,
    /// Final decision statistic (window sum / CUSUM score / CW ratio).
    pub statistic: f64,
    /// Observations consumed.
    pub observations: u64,
    /// Times the detector flagged this station.
    pub flagged: u64,
}

impl StationVerdict {
    /// Whether the station was ever diagnosed as misbehaving.
    #[must_use]
    pub fn misbehaving(&self) -> bool {
        self.flagged > 0
    }

    /// Single-line JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.u64("station", u64::from(self.station))
            .f64("statistic", self.statistic)
            .u64("observations", self.observations)
            .u64("flagged", self.flagged)
            .bool("misbehaving", self.misbehaving());
        obj.finish()
    }
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct LiveOutcome {
    /// Deterministic run summary (the byte-identity anchor).
    pub summary: RunSummary,
    /// Per-station verdicts, sorted by station id.
    pub verdicts: Vec<StationVerdict>,
    /// Snapshots written during this run.
    pub checkpoints_written: u64,
    /// The snapshot this run resumed from, if any.
    pub restored_from: Option<PathBuf>,
    /// Invalid snapshots skipped while restoring.
    pub restore_warnings: Vec<String>,
    /// True when `stop_after` cut the run short (simulated crash).
    pub crashed: bool,
    /// True when the drain flag ended the run.
    pub drained: bool,
    /// Ingest→verdict latencies, microseconds, unsorted (empty unless
    /// `measure_latency`).
    pub latencies_us: Vec<u64>,
}

/// FNV-1a 64 over the station id's little-endian bytes: the stable
/// station→shard map (same hash family as the workspace's digests, so
/// the assignment is reproducible from the DESIGN.md description).
#[must_use]
pub fn shard_of(station: u32, shards: u32) -> u32 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in station.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    u32::try_from(hash % u64::from(shards.max(1))).unwrap_or(0)
}

enum Msg {
    Obs(StationObservation, Option<Instant>),
    Snapshot(Sender<ShardSnapshot>),
}

struct ShardSnapshot {
    shard: u32,
    stations: Vec<StationRecord>,
    elapsed_us: u64,
}

struct ShardResult {
    stations: Vec<(StationRecord, f64)>,
    elapsed_us: u64,
    latencies_us: Vec<u64>,
}

struct StationEntry {
    detector: Box<dyn DeviationDetector>,
    observations: u64,
    flagged: u64,
}

#[allow(clippy::too_many_arguments)] // internal seam; the worker is spawned once
fn shard_worker(
    shard: u32,
    rx: &Receiver<Msg>,
    seed: Vec<StationRecord>,
    detector: DetectorConfig,
    diagnosis: DiagnosisConfig,
    correction: CorrectionConfig,
    heartbeat: &AtomicU64,
    kill: &AtomicBool,
    shutdown: &AtomicBool,
    faults: LiveFaults,
) -> Result<ShardResult, String> {
    let mut entries: BTreeMap<u32, StationEntry> = BTreeMap::new();
    for record in seed {
        let restored = detector
            .build_from_state(diagnosis, &record.state)
            .map_err(|e| format!("shard {shard} restore: {e}"))?;
        entries.insert(
            record.station,
            StationEntry {
                detector: restored,
                observations: record.observations,
                flagged: record.flagged,
            },
        );
    }
    let mut elapsed_us = 0u64;
    let mut latencies_us = Vec::new();
    let snapshot = |entries: &BTreeMap<u32, StationEntry>, elapsed_us: u64| ShardSnapshot {
        shard,
        elapsed_us,
        stations: entries
            .iter()
            .map(|(&station, entry)| StationRecord {
                station,
                state: entry.detector.export_state(),
                observations: entry.observations,
                flagged: entry.flagged,
            })
            .collect(),
    };
    while !kill.load(Ordering::Relaxed) {
        let Some(msg) = rx.recv() else { break };
        heartbeat.fetch_add(1, Ordering::Relaxed);
        match msg {
            Msg::Obs(obs, enqueued_at) => {
                if faults.stall_station == Some(obs.station) {
                    // Injected stall: stop consuming until the watchdog
                    // quarantines this shard (or the engine shuts down,
                    // so a mis-targeted fault cannot deadlock a test).
                    while !kill.load(Ordering::Relaxed) && !shutdown.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    break;
                }
                let entry = entries.entry(obs.station).or_insert_with(|| StationEntry {
                    detector: detector.build(diagnosis),
                    observations: 0,
                    flagged: 0,
                });
                let deviation = correction.deviation(obs.assigned_slots, obs.observed_slots);
                let backoff = BackoffObservation {
                    assigned_slots: obs.assigned_slots,
                    observed_slots: obs.observed_slots,
                    deviation_slots: deviation,
                    penalty_slots: correction.penalty(deviation),
                };
                let verdict = entry.detector.observe(Some(&backoff), diagnosis.thresh);
                entry.observations += 1;
                if verdict.flagged {
                    entry.flagged += 1;
                }
                elapsed_us = elapsed_us.max(obs.t_us);
                if let Some(t0) = enqueued_at {
                    latencies_us.push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
                }
            }
            Msg::Snapshot(reply) => {
                // A dead feeder just means no one reads the reply.
                let _ = reply.send(snapshot(&entries, elapsed_us));
            }
        }
    }
    let stations = entries
        .iter()
        .map(|(&station, entry)| {
            (
                StationRecord {
                    station,
                    state: entry.detector.export_state(),
                    observations: entry.observations,
                    flagged: entry.flagged,
                },
                entry.detector.statistic(),
            )
        })
        .collect();
    Ok(ShardResult {
        stations,
        elapsed_us,
        latencies_us,
    })
}

/// Feeder-side routing and accounting state.
struct Feeder<'a> {
    config: &'a LiveConfig,
    senders: Vec<Option<Sender<Msg>>>,
    heartbeats: &'a [Arc<AtomicU64>],
    kills: &'a [Arc<AtomicBool>],
    /// Heartbeat reading at the last stall probe, per shard.
    last_beat: Vec<u64>,
    /// Current sampling stride per shard (1 = not degraded).
    sample_every: Vec<u32>,
    /// Observations seen per shard since degradation began.
    sample_seq: Vec<u64>,
    /// Feeder's view of virtual time (event timestamps).
    now_us: u64,
    // Running totals (restored from a checkpoint on resume).
    quarantined: u64,
    shed_dropped: u64,
    sampled_out: u64,
    shards_quarantined: u64,
}

impl Feeder<'_> {
    fn counters(&self) -> BTreeMap<String, u64> {
        BTreeMap::from([
            ("live.quarantined".to_owned(), self.quarantined),
            ("live.shed_dropped".to_owned(), self.shed_dropped),
            ("live.sampled_out".to_owned(), self.sampled_out),
            (
                "live.shards_quarantined".to_owned(),
                self.shards_quarantined,
            ),
        ])
    }

    fn shed(&mut self, shard: u32, station: u32) {
        self.shed_dropped += 1;
        self.config.sink.emit(
            self.now_us,
            NO_NODE,
            ObsEvent::LiveShedDropped { shard, station },
        );
    }

    fn quarantine_shard(&mut self, shard: usize, stalled_ms: u64) {
        if self.senders[shard].is_none() {
            return;
        }
        self.shards_quarantined += 1;
        self.kills[shard].store(true, Ordering::Relaxed);
        self.senders[shard] = None; // closes the queue; others keep serving
        self.config.sink.emit(
            self.now_us,
            NO_NODE,
            ObsEvent::LiveShardQuarantined {
                shard: u32::try_from(shard).unwrap_or(u32::MAX),
                stalled_ms,
            },
        );
    }

    /// Blocking send with the stuck-shard watchdog: waits in
    /// `stall_timeout` slices and quarantines the shard if a full
    /// window passes with zero consumer heartbeats.
    fn send_watched(&mut self, shard: usize, obs: StationObservation, stamp: Option<Instant>) {
        loop {
            let Some(sender) = &self.senders[shard] else {
                self.shed(u32::try_from(shard).unwrap_or(u32::MAX), obs.station);
                return;
            };
            match sender.send_timeout(Msg::Obs(obs, stamp), self.config.stall_timeout) {
                Ok(()) => return,
                Err(SendError::Disconnected) => {
                    self.senders[shard] = None;
                    self.shed(u32::try_from(shard).unwrap_or(u32::MAX), obs.station);
                    return;
                }
                Err(SendError::Full) => {
                    let beat = self.heartbeats[shard].load(Ordering::Relaxed);
                    if beat == self.last_beat[shard] {
                        let stalled_ms =
                            u64::try_from(self.config.stall_timeout.as_millis()).unwrap_or(0);
                        self.quarantine_shard(shard, stalled_ms);
                        self.shed(u32::try_from(shard).unwrap_or(u32::MAX), obs.station);
                        return;
                    }
                    self.last_beat[shard] = beat; // progress; keep waiting
                }
            }
        }
    }

    fn route(&mut self, obs: StationObservation) {
        let shard = shard_of(obs.station, self.config.shards) as usize;
        let shard_u32 = u32::try_from(shard).unwrap_or(u32::MAX);
        self.now_us = self.now_us.max(obs.t_us);
        let stamp = self.config.measure_latency.then(Instant::now);
        let Some(sender) = &self.senders[shard] else {
            self.shed(shard_u32, obs.station);
            return;
        };
        match self.config.overflow {
            OverflowPolicy::Block => self.send_watched(shard, obs, stamp),
            OverflowPolicy::DropOldest => match sender.send_dropping_oldest(Msg::Obs(obs, stamp)) {
                Ok(None) => {}
                Ok(Some(Msg::Obs(victim, _))) => {
                    self.shed(shard_u32, victim.station);
                }
                Ok(Some(marker @ Msg::Snapshot(_))) => {
                    // Unreachable by protocol: barriers drain the queue
                    // before eviction-capable sends resume. Re-enqueue
                    // rather than lose the barrier if it ever happens.
                    let _ = sender.send(marker);
                }
                Err(_) => {
                    self.senders[shard] = None;
                    self.shed(shard_u32, obs.station);
                }
            },
            OverflowPolicy::Sample => {
                let stride = self.sample_every[shard];
                if stride > 1 {
                    self.sample_seq[shard] += 1;
                    if !self.sample_seq[shard].is_multiple_of(u64::from(stride)) {
                        self.sampled_out += 1;
                        self.shed(shard_u32, obs.station);
                        self.maybe_recover(shard);
                        return;
                    }
                }
                match sender.try_send(Msg::Obs(obs, stamp)) {
                    Ok(()) => self.maybe_recover(shard),
                    Err(SendError::Full) => {
                        let doubled = (stride * 2).clamp(2, 64);
                        self.sample_every[shard] = doubled;
                        self.config.sink.emit(
                            self.now_us,
                            NO_NODE,
                            ObsEvent::LiveDegraded {
                                shard: shard_u32,
                                sample_every: doubled,
                            },
                        );
                        // The survivor still goes through, with the
                        // watchdog guarding against a dead consumer.
                        self.send_watched(shard, obs, stamp);
                    }
                    Err(SendError::Disconnected) => {
                        self.senders[shard] = None;
                        self.shed(shard_u32, obs.station);
                    }
                }
            }
        }
    }

    /// Halves the sampling stride once the shard queue has drained to a
    /// quarter of capacity; stride 1 means fully recovered.
    fn maybe_recover(&mut self, shard: usize) {
        let stride = self.sample_every[shard];
        if stride > 1
            && self.senders[shard]
                .as_ref()
                .is_some_and(|sender| sender.len() * 4 <= self.config.queue_capacity.max(1))
        {
            let halved = (stride / 2).max(1);
            self.sample_every[shard] = halved;
            self.config.sink.emit(
                self.now_us,
                NO_NODE,
                ObsEvent::LiveDegraded {
                    shard: u32::try_from(shard).unwrap_or(u32::MAX),
                    sample_every: halved,
                },
            );
        }
    }

    /// Checkpoint barrier: every live shard snapshots its stripe, the
    /// feeder merges and publishes. Shards that fail to reply within
    /// the stall timeout are quarantined and the snapshot proceeds
    /// without their stripe (degraded but alive).
    fn barrier_snapshot(&mut self) -> Vec<ShardSnapshot> {
        let shards = self.senders.len();
        let (reply_tx, reply_rx) = bounded::<ShardSnapshot>(shards.max(1));
        let mut expected = 0usize;
        for shard in 0..shards {
            let Some(sender) = &self.senders[shard] else {
                continue;
            };
            match sender.send(Msg::Snapshot(reply_tx.clone())) {
                Ok(()) => expected += 1,
                Err(_) => self.senders[shard] = None,
            }
        }
        drop(reply_tx);
        let mut snaps: Vec<ShardSnapshot> = Vec::with_capacity(expected);
        while snaps.len() < expected {
            match reply_rx.recv_timeout(self.config.stall_timeout) {
                RecvTimeout::Item(snap) => snaps.push(snap),
                RecvTimeout::Disconnected => break,
                RecvTimeout::TimedOut => {
                    let replied: Vec<u32> = snaps.iter().map(|s| s.shard).collect();
                    let stalled_ms =
                        u64::try_from(self.config.stall_timeout.as_millis()).unwrap_or(0);
                    for shard in 0..shards {
                        let responded = replied.contains(&u32::try_from(shard).unwrap_or(u32::MAX));
                        if self.senders[shard].is_some() && !responded {
                            self.quarantine_shard(shard, stalled_ms);
                        }
                    }
                    break;
                }
            }
        }
        snaps
    }
}

/// Runs the engine over `source` until end-of-feed, drain, or a
/// simulated crash.
///
/// # Errors
///
/// Fails on an unrecoverable transport error, an exhausted quarantine
/// budget, a checkpoint that cannot be written, a restore whose state
/// does not match the configured detector, or a panicked worker.
#[allow(clippy::too_many_lines)] // the feeder loop reads best unfragmented
pub fn run(config: &LiveConfig, source: &mut dyn ObservationSource) -> Result<LiveOutcome, String> {
    if config.shards == 0 {
        return Err("shard count must be at least 1".to_owned());
    }
    let shards = config.shards as usize;

    // Restore from the newest valid snapshot, if checkpointing is on.
    let (restored, restore_warnings) = match &config.checkpoint_dir {
        Some(dir) => Checkpoint::load_latest(dir),
        None => (None, Vec::new()),
    };
    let (base, restored_from) = match restored {
        Some((checkpoint, path)) => (checkpoint, Some(path)),
        None => (Checkpoint::default(), None),
    };
    let skip_prefix = base.consumed;
    let counter = |name: &str| base.counters.get(name).copied().unwrap_or(0);

    // Partition restored stations across shards with the same map the
    // feeder routes by, so each stripe lands on its owner.
    let mut seeds: Vec<Vec<StationRecord>> = vec![Vec::new(); shards];
    for record in base.stations {
        seeds[shard_of(record.station, config.shards) as usize].push(record);
    }

    let heartbeats: Vec<Arc<AtomicU64>> = (0..shards).map(|_| Arc::default()).collect();
    let kills: Vec<Arc<AtomicBool>> = (0..shards).map(|_| Arc::default()).collect();
    let shutdown = Arc::new(AtomicBool::new(false));

    let scope_result = crossbeam::thread::scope(|scope| -> Result<LiveOutcome, String> {
        let mut handles = Vec::with_capacity(shards);
        let mut senders = Vec::with_capacity(shards);
        for (shard, seed) in seeds.drain(..).enumerate() {
            let (tx, rx) = bounded::<Msg>(config.queue_capacity);
            senders.push(Some(tx));
            let heartbeat = Arc::clone(&heartbeats[shard]);
            let kill = Arc::clone(&kills[shard]);
            let stop = Arc::clone(&shutdown);
            let (detector, diagnosis, correction, faults) = (
                config.detector,
                config.diagnosis,
                config.correction,
                config.faults,
            );
            handles.push(scope.spawn(move |_| {
                shard_worker(
                    u32::try_from(shard).unwrap_or(u32::MAX),
                    &rx,
                    seed,
                    detector,
                    diagnosis,
                    correction,
                    &heartbeat,
                    &kill,
                    &stop,
                    faults,
                )
            }));
        }

        let mut feeder = Feeder {
            config,
            senders,
            heartbeats: &heartbeats,
            kills: &kills,
            last_beat: vec![0; shards],
            sample_every: vec![1; shards],
            sample_seq: vec![0; shards],
            now_us: base.elapsed_us,
            quarantined: counter("live.quarantined"),
            shed_dropped: counter("live.shed_dropped"),
            sampled_out: counter("live.sampled_out"),
            shards_quarantined: counter("live.shards_quarantined"),
        };

        // Counts records pulled from the source. The feed replays from
        // its beginning even after a restore, so this starts at zero
        // and the first `skip_prefix` records (already folded into the
        // restored detector state) are skipped as they stream past.
        let mut consumed = 0u64;
        let mut quarantined_this_run = 0u64;
        let mut checkpoints_written = 0u64;
        let mut crashed = false;
        let mut drained = false;
        let mut fail: Option<String> = None;

        let write_snapshot = |feeder: &mut Feeder<'_>,
                              consumed: u64,
                              checkpoints_written: &mut u64|
         -> Result<(), String> {
            let Some(dir) = &config.checkpoint_dir else {
                return Ok(());
            };
            let snaps = feeder.barrier_snapshot();
            let mut stations: Vec<StationRecord> = Vec::new();
            let mut elapsed_us = base.elapsed_us;
            for snap in snaps {
                elapsed_us = elapsed_us.max(snap.elapsed_us);
                stations.extend(snap.stations);
            }
            stations.sort_by_key(|r| r.station);
            let n_stations = u64::try_from(stations.len()).unwrap_or(u64::MAX);
            let checkpoint = Checkpoint {
                consumed,
                elapsed_us,
                counters: feeder.counters(),
                stations,
            };
            checkpoint
                .write(dir)
                .map_err(|e| format!("checkpoint write: {e}"))?;
            *checkpoints_written += 1;
            config.sink.emit(
                feeder.now_us,
                NO_NODE,
                ObsEvent::LiveCheckpointWritten {
                    consumed,
                    stations: n_stations,
                },
            );
            Ok(())
        };

        loop {
            if config
                .drain
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
            {
                drained = true;
                break;
            }
            if config.stop_after.is_some_and(|stop| consumed >= stop) {
                crashed = true;
                break;
            }
            match source.next_observation() {
                Ok(None) => break,
                Ok(Some(obs)) => {
                    consumed += 1;
                    if consumed <= skip_prefix {
                        continue; // already folded into the restored state
                    }
                    feeder.route(obs);
                }
                Err(SourceError::Malformed(_)) => {
                    consumed += 1;
                    if consumed <= skip_prefix {
                        continue; // counted by the checkpoint we restored
                    }
                    feeder.quarantined += 1;
                    quarantined_this_run += 1;
                    config.sink.emit(
                        feeder.now_us,
                        NO_NODE,
                        ObsEvent::LiveQuarantined {
                            source: 0,
                            record: consumed,
                        },
                    );
                    if quarantined_this_run > config.quarantine_budget {
                        fail = Some(format!(
                            "quarantine budget exhausted: {quarantined_this_run} malformed \
                             records in one run (budget {})",
                            config.quarantine_budget
                        ));
                        break;
                    }
                }
                Err(SourceError::Transport(e)) => {
                    fail = Some(format!("feed transport failure: {e}"));
                    break;
                }
            }
            if config.checkpoint_every > 0
                && consumed > skip_prefix
                && consumed.is_multiple_of(config.checkpoint_every)
            {
                if let Err(e) = write_snapshot(&mut feeder, consumed, &mut checkpoints_written) {
                    fail = Some(e);
                    break;
                }
            }
        }

        // Clean end or drain: flush a final snapshot. A simulated crash
        // (`stop_after`) deliberately skips it — only the periodic
        // snapshots survive, as in a real kill.
        if fail.is_none() && !crashed {
            if let Err(e) = write_snapshot(&mut feeder, consumed, &mut checkpoints_written) {
                fail = Some(e);
            }
        }

        // Close the queues (workers drain and exit), then join.
        shutdown.store(true, Ordering::Relaxed);
        feeder.senders.clear();
        let mut results = Vec::with_capacity(shards);
        for (shard, handle) in handles.into_iter().enumerate() {
            let joined = handle
                .join()
                .map_err(|_| format!("shard {shard} worker panicked"))?;
            results.push(joined?);
        }
        if let Some(message) = fail {
            return Err(message);
        }

        // Merge stripes (disjoint by construction of the shard map).
        let mut merged: BTreeMap<u32, (StationRecord, f64)> = BTreeMap::new();
        let mut elapsed_us = base.elapsed_us;
        let mut latencies_us = Vec::new();
        for result in results {
            elapsed_us = elapsed_us.max(result.elapsed_us);
            latencies_us.extend(result.latencies_us);
            for (record, statistic) in result.stations {
                merged.insert(record.station, (record, statistic));
            }
        }
        let mut observations_total = 0u64;
        let mut flagged_total = 0u64;
        let verdicts: Vec<StationVerdict> = merged
            .into_values()
            .map(|(record, statistic)| {
                observations_total += record.observations;
                flagged_total += record.flagged;
                StationVerdict {
                    station: record.station,
                    statistic,
                    observations: record.observations,
                    flagged: record.flagged,
                }
            })
            .collect();

        let mut summary = RunSummary::new(
            config.label.clone(),
            config.seed,
            config.config_digest(),
            elapsed_us,
        );
        summary.counters = feeder.counters();
        summary
            .counters
            .insert("live.consumed".to_owned(), consumed);
        summary
            .counters
            .insert("live.observations".to_owned(), observations_total);
        summary.counters.insert(
            "live.stations".to_owned(),
            u64::try_from(verdicts.len()).unwrap_or(u64::MAX),
        );
        summary
            .counters
            .insert("live.flagged".to_owned(), flagged_total);

        Ok(LiveOutcome {
            summary,
            verdicts,
            checkpoints_written,
            restored_from,
            restore_warnings,
            crashed,
            drained,
            latencies_us,
        })
    });
    scope_result.map_err(|_| "live engine panicked".to_owned())?
}

#[cfg(test)]
mod tests {
    use super::{run, shard_of, LiveConfig, LiveFaults, OverflowPolicy};
    use airguard_core::{ObservationSource, SourceError, StationObservation};
    use airguard_obs::{Category, EventSink};
    use std::time::Duration;

    /// An in-memory source: observations interleaved with malformed
    /// records at fixed positions.
    #[derive(Debug)]
    struct VecSource {
        items: Vec<Result<StationObservation, ()>>,
        pos: usize,
    }

    impl VecSource {
        fn honest(records: u64, stations: u32) -> Self {
            let items = (0..records)
                .map(|i| {
                    Ok(StationObservation {
                        t_us: (i + 1) * 100,
                        station: u32::try_from(i).unwrap_or(0) % stations,
                        assigned_slots: 16.0,
                        observed_slots: 16.0,
                    })
                })
                .collect();
            VecSource { items, pos: 0 }
        }
    }

    impl ObservationSource for VecSource {
        fn next_observation(&mut self) -> Result<Option<StationObservation>, SourceError> {
            let item = self.items.get(self.pos).copied();
            self.pos += 1;
            match item {
                None => Ok(None),
                Some(Ok(obs)) => Ok(Some(obs)),
                Some(Err(())) => Err(SourceError::Malformed("injected".into())),
            }
        }
    }

    #[test]
    fn shard_map_is_stable_and_in_range() {
        for station in 0..100 {
            let s = shard_of(station, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(station, 4), "stable");
        }
        assert_eq!(shard_of(7, 1), 0);
    }

    #[test]
    fn honest_feed_produces_no_flags_and_counts_everything() {
        let mut source = VecSource::honest(200, 7);
        let outcome = run(&LiveConfig::new(3), &mut source).expect("run");
        assert_eq!(outcome.summary.counters["live.consumed"], 200);
        assert_eq!(outcome.summary.counters["live.observations"], 200);
        assert_eq!(outcome.summary.counters["live.stations"], 7);
        assert_eq!(outcome.summary.counters["live.flagged"], 0);
        assert_eq!(outcome.summary.counters["live.quarantined"], 0);
        assert_eq!(outcome.summary.elapsed_us, 200 * 100);
        assert!(outcome.verdicts.iter().all(|v| !v.misbehaving()));
    }

    #[test]
    fn misbehaving_station_is_flagged() {
        let mut source = VecSource::honest(100, 4);
        // Station 0 idles far less than assigned: textbook misbehavior.
        for item in source.items.iter_mut().flatten() {
            if item.station == 0 {
                item.observed_slots = 1.0;
            }
        }
        let outcome = run(&LiveConfig::new(2), &mut source).expect("run");
        let cheat = outcome
            .verdicts
            .iter()
            .find(|v| v.station == 0)
            .expect("station 0");
        assert!(cheat.misbehaving(), "{cheat:?}");
        let honest_flags: u64 = outcome
            .verdicts
            .iter()
            .filter(|v| v.station != 0)
            .map(|v| v.flagged)
            .sum();
        assert_eq!(honest_flags, 0);
    }

    #[test]
    fn summaries_are_byte_identical_across_shard_counts() {
        let render = |shards: u32| {
            let mut source = VecSource::honest(300, 11);
            run(&LiveConfig::new(shards), &mut source)
                .expect("run")
                .summary
                .to_json()
        };
        let one = render(1);
        assert_eq!(one, render(2));
        assert_eq!(one, render(4));
    }

    #[test]
    fn malformed_records_are_quarantined_with_events() {
        let mut source = VecSource::honest(50, 3);
        source.items.insert(10, Err(()));
        source.items.insert(25, Err(()));
        let mut config = LiveConfig::new(2);
        config.sink = EventSink::enabled();
        let outcome = run(&config, &mut source).expect("run");
        assert_eq!(outcome.summary.counters["live.quarantined"], 2);
        assert_eq!(outcome.summary.counters["live.consumed"], 52);
        assert_eq!(outcome.summary.counters["live.observations"], 50);
        let quarantines = config
            .sink
            .records()
            .into_iter()
            .filter(|r| r.event.category() == Category::Live && r.event.kind() == "quarantined")
            .count();
        assert_eq!(quarantines, 2);
    }

    #[test]
    fn quarantine_budget_exhaustion_is_a_loud_failure() {
        let mut source = VecSource::honest(10, 2);
        for i in 0..5 {
            source.items.insert(i * 2, Err(()));
        }
        let mut config = LiveConfig::new(1);
        config.quarantine_budget = 3;
        let err = run(&config, &mut source).expect_err("budget");
        assert!(err.contains("quarantine budget exhausted"), "{err}");
    }

    #[test]
    fn stalled_shard_is_quarantined_while_others_keep_serving() {
        let mut source = VecSource::honest(400, 4);
        let mut config = LiveConfig::new(2);
        config.queue_capacity = 4;
        config.stall_timeout = Duration::from_millis(30);
        config.faults = LiveFaults {
            stall_station: Some(0),
        };
        config.sink = EventSink::enabled();
        let outcome = run(&config, &mut source).expect("run");
        assert_eq!(outcome.summary.counters["live.shards_quarantined"], 1);
        assert!(outcome.summary.counters["live.shed_dropped"] > 0);
        // Stations on the surviving shard processed their whole feed.
        let healthy_shard = 1 - shard_of(0, 2);
        let healthy: Vec<_> = outcome
            .verdicts
            .iter()
            .filter(|v| shard_of(v.station, 2) == healthy_shard)
            .collect();
        assert!(!healthy.is_empty());
        for v in healthy {
            assert_eq!(v.observations, 100, "{v:?}");
        }
        let quarantine_events = config
            .sink
            .records()
            .into_iter()
            .filter(|r| r.event.kind() == "shard_quarantined")
            .count();
        assert_eq!(quarantine_events, 1);
    }

    #[test]
    fn drain_flag_stops_the_feeder_cleanly() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let mut source = VecSource::honest(100, 2);
        let flag = Arc::new(AtomicBool::new(true)); // drain before record 1
        let mut config = LiveConfig::new(2);
        config.drain = Some(Arc::clone(&flag));
        let outcome = run(&config, &mut source).expect("run");
        assert!(outcome.drained);
        assert_eq!(outcome.summary.counters["live.consumed"], 0);
        assert!(flag.load(Ordering::Relaxed));
    }

    #[test]
    fn drop_oldest_sheds_with_counters_under_a_stalled_consumer() {
        let mut source = VecSource::honest(100, 1); // one station → one shard
        let mut config = LiveConfig::new(1);
        config.overflow = OverflowPolicy::DropOldest;
        config.queue_capacity = 2;
        config.faults = LiveFaults {
            stall_station: Some(0),
        };
        let outcome = run(&config, &mut source).expect("run");
        // The stalled worker consumed nothing past the stall point, so
        // nearly the whole feed was evicted — all of it counted.
        assert!(
            outcome.summary.counters["live.shed_dropped"] >= 90,
            "{:?}",
            outcome.summary.counters
        );
        assert_eq!(outcome.summary.counters["live.consumed"], 100);
    }

    #[test]
    fn rejects_zero_shards() {
        let mut source = VecSource::honest(1, 1);
        let err = run(&LiveConfig::new(0), &mut source).expect_err("zero shards");
        assert!(err.contains("at least 1"));
    }
}
