//! The engine: flattens an [`Experiment`]'s grid into one `(point,
//! seed)` work queue, probes the result cache and sweep manifest, runs
//! the misses on the workspace's worker pool ([`airguard_obs::pool`]),
//! stores fresh cells back, and re-assembles everything in
//! deterministic point-major, seed-ordered layout.
//!
//! Determinism argument (DESIGN.md §10): the queue order is fixed,
//! every cell is keyed by its queue index, and collection sorts by
//! index — so tables, CSV, and report JSONL are byte-identical for any
//! worker count, and for any mix of cached and fresh cells (the cache
//! stores floats as bit patterns).
//!
//! Hardened execution (DESIGN.md §12): every cell can run under a
//! watchdog budget (wall-clock deadline and/or virtual-event ceiling —
//! a hung cell becomes a [`CellFailure`], not a hung sweep), failed
//! cells can be retried with a derived seed, and each cell's verdict is
//! journaled to a crash-safe [`SweepManifest`] the moment it lands so a
//! killed sweep resumes instead of restarting.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

use airguard_net::{RunBudget, RunReport, ScenarioConfig};
use airguard_obs::pool::{panic_message, run_tasks};
use airguard_obs::{aggregate_summaries, PhaseProfiler, Progress, ProgressSnapshot, RunSummary};

use crate::cache::ResultCache;
use crate::cell::CellMetrics;
use crate::manifest::SweepManifest;
use crate::sweep::{Experiment, ExperimentResult, PointResult, Rendered};

/// Counter recorded on a cell that needed more than one attempt.
pub const ATTEMPTS_COUNTER: &str = "exp.cell_attempts";

/// How to run one experiment.
#[derive(Debug)]
pub struct RunOptions {
    /// The seed set (the paper uses `1..=30`).
    pub seeds: Vec<u64>,
    /// Simulated seconds per run (the paper uses 50).
    pub secs: u64,
    /// Worker threads; 0 means one per available core.
    pub workers: usize,
    /// The result cache, or `None` to always simulate.
    pub cache: Option<ResultCache>,
    /// Extra attempts after a cell's first failure. Retries re-run the
    /// cell under a seed derived from `(seed, attempt)` — a transient
    /// failure gets a fresh trajectory, and the attempt count lands in
    /// the cell's [`ATTEMPTS_COUNTER`].
    pub retries: u32,
    /// Wall-clock seconds one cell may run before the watchdog kills
    /// it. `None` means no deadline.
    pub watchdog_secs: Option<u64>,
    /// Virtual-event budget per cell run; `None` means unbounded. The
    /// cheaper, fully deterministic half of the watchdog.
    pub max_events: Option<u64>,
    /// Directory for the crash-safe sweep progress manifest; `None`
    /// disables journaling (and therefore resume).
    pub manifest_dir: Option<PathBuf>,
    /// When the manifest already records a cell as failed, report it as
    /// failed again without re-running it (`true`, the default —
    /// a permanently hung cell must not hang every resumed sweep).
    /// `false` re-runs previously failed cells.
    pub resume: bool,
    /// Hot-loop phase profiler shared by every simulated cell; `None`
    /// (the default) keeps the runner's zero-cost disabled path. Totals
    /// are diagnostic only and never enter results or the cache.
    pub profiler: Option<PhaseProfiler>,
}

impl RunOptions {
    /// `seeds` seeds (`1..=n`), `secs` simulated seconds, automatic
    /// worker count, no cache, no retries, no watchdog, no manifest.
    #[must_use]
    pub fn new(seed_count: u64, secs: u64) -> Self {
        RunOptions {
            seeds: (1..=seed_count.max(1)).collect(),
            secs: secs.max(1),
            workers: 0,
            cache: None,
            retries: 0,
            watchdog_secs: None,
            max_events: None,
            manifest_dir: None,
            resume: true,
            profiler: None,
        }
    }

    /// The effective worker count.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        }
    }

    /// The per-cell run budget these options imply (a fresh deadline
    /// clock per call, so each cell gets the full allowance).
    #[must_use]
    pub fn cell_budget(&self) -> RunBudget {
        let deadline_exceeded = self.watchdog_secs.map(|secs| {
            // The watchdog is deliberately wall-clock: it bounds
            // *harness* time and only ever turns a hung run into an
            // error, never into different simulated results.
            let deadline = std::time::Instant::now() // lint:allow(determinism-time) — watchdog deadline, affects failure detection only
                + std::time::Duration::from_secs(secs);
            std::sync::Arc::new(move || std::time::Instant::now() >= deadline) // lint:allow(determinism-time) — same watchdog clock
                as std::sync::Arc<dyn Fn() -> bool + Send + Sync>
        });
        RunBudget {
            max_events: self.max_events,
            deadline_exceeded,
        }
    }
}

/// One failed grid cell (the run panicked, blew its budget, or was
/// skipped because a previous sweep already recorded it as failed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The point's canonical key.
    pub point_key: String,
    /// The seed whose run failed.
    pub seed: u64,
    /// The failure message.
    pub message: String,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell [{} seed={}] failed: {}",
            self.point_key, self.seed, self.message
        )
    }
}

/// Everything one engine run produces.
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// The collected grid.
    pub result: ExperimentResult,
    /// The experiment's rendered tables and notes.
    pub rendered: Rendered,
    /// Per-run telemetry report lines (one [`RunSummary`] JSON per
    /// successful cell, labelled `<experiment>/<point-key>`, followed
    /// by one pooled summary per point labelled `…/pooled`).
    pub report_lines: Vec<String>,
    /// Failed cells, in grid order.
    pub failures: Vec<CellFailure>,
    /// Non-fatal problems (cache store errors, manifest trouble).
    pub warnings: Vec<String>,
    /// Cell accounting: total / simulated / cached / failed.
    pub progress: ProgressSnapshot,
}

/// Stamps the wall-clock cost of a freshly simulated cell. Struct-only:
/// `wall_us` never reaches the cache text or any export, so a cached
/// rehydration reads back zero and callers can tell the two apart.
// lint:allow(determinism-time) — harness cost accounting, excluded from every deterministic artifact
fn stamp_wall(mut cell: CellMetrics, started: std::time::Instant) -> CellMetrics {
    cell.wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    cell
}

/// Runs `cfg` once under `seed` and extracts the cacheable metrics —
/// the engine's default cell runner when no budget applies.
#[must_use]
pub fn simulate_cell(cfg: &ScenarioConfig, seed: u64) -> CellMetrics {
    let started = std::time::Instant::now(); // lint:allow(determinism-time) — wall cost of the cell, never exported
    stamp_wall(
        CellMetrics::from_report(&cfg.clone().seed(seed).run()),
        started,
    )
}

/// Budget-aware cell runner: like [`simulate_cell`] but the run is
/// bounded by `budget` and a tripped watchdog becomes an error.
///
/// # Errors
///
/// Returns the watchdog's message when the budget is exhausted.
pub fn simulate_cell_budgeted(
    cfg: &ScenarioConfig,
    seed: u64,
    budget: &RunBudget,
) -> Result<CellMetrics, String> {
    let started = std::time::Instant::now(); // lint:allow(determinism-time) — wall cost of the cell, never exported
    cfg.clone()
        .seed(seed)
        .run_budgeted(budget)
        .map(|report| stamp_wall(CellMetrics::from_report(&report), started))
}

/// Runs an experiment with the default simulation runner, honoring the
/// options' watchdog budget and phase profiler.
#[must_use]
pub fn run_experiment(exp: &Experiment, opts: &RunOptions) -> ExperimentOutcome {
    run_experiment_with(exp, opts, &|cfg, seed| match &opts.profiler {
        None => simulate_cell_budgeted(cfg, seed, &opts.cell_budget()),
        Some(profiler) => {
            let started = std::time::Instant::now(); // lint:allow(determinism-time) — wall cost of the cell, never exported
            cfg.clone()
                .seed(seed)
                .run_budgeted_profiled(&opts.cell_budget(), profiler.clone())
                .map(|report| stamp_wall(CellMetrics::from_report(&report), started))
        }
    })
}

/// Mixes `seed` with the attempt number to derive a retry seed
/// (SplitMix64 finalizer). Attempt 1 always uses `seed` itself.
#[must_use]
pub fn retry_seed(seed: u64, attempt: u32) -> u64 {
    if attempt <= 1 {
        return seed;
    }
    let mut z = seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one cell with up to `retries` extra attempts, catching panics
/// per attempt. Returns the final verdict plus the attempts consumed.
/// A retried success is re-stamped with the requested `seed` (so cache
/// files and grid slots stay keyed by the sweep's seed) and carries the
/// true attempt count in [`ATTEMPTS_COUNTER`].
fn run_cell_with_retries(
    runner: &(dyn Fn(&ScenarioConfig, u64) -> Result<CellMetrics, String> + Sync),
    cfg: &ScenarioConfig,
    seed: u64,
    retries: u32,
) -> (Result<CellMetrics, String>, u32) {
    let total = retries.saturating_add(1);
    let mut last_err = String::new();
    for attempt in 1..=total {
        let attempt_seed = retry_seed(seed, attempt);
        let outcome = catch_unwind(AssertUnwindSafe(|| runner(cfg, attempt_seed)))
            .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
        match outcome {
            Ok(mut cell) => {
                cell.seed = seed;
                if attempt > 1 {
                    cell.counters
                        .insert(ATTEMPTS_COUNTER.to_owned(), u64::from(attempt));
                }
                return (Ok(cell), attempt);
            }
            Err(e) => last_err = e,
        }
    }
    if total > 1 {
        last_err = format!("failed after {total} attempts: {last_err}");
    }
    (Err(last_err), total)
}

/// Runs an experiment with a caller-supplied cell runner (tests inject
/// panicking or instrumented runners here). The runner receives the
/// *attempt* seed — on a retry this differs from the cell's grid seed.
#[must_use]
pub fn run_experiment_with(
    exp: &Experiment,
    opts: &RunOptions,
    runner: &(dyn Fn(&ScenarioConfig, u64) -> Result<CellMetrics, String> + Sync),
) -> ExperimentOutcome {
    // Resolve each point's effective configuration and cache key once.
    let configs: Vec<ScenarioConfig> = exp
        .points
        .iter()
        .map(|p| p.cfg.clone().sim_time_secs(opts.secs.max(1)))
        .collect();
    let digests: Vec<String> = configs.iter().map(ScenarioConfig::config_digest).collect();

    // The global work queue: point-major, seed-ordered.
    let tasks: Vec<(usize, u64)> = (0..exp.points.len())
        .flat_map(|p| opts.seeds.iter().map(move |&s| (p, s)))
        .collect();

    let progress = Progress::new(tasks.len() as u64);
    let mut warnings = Vec::new();

    // Open the sweep manifest (when configured) and pull what a
    // previous, possibly killed, sweep already recorded.
    let (manifest, prior) = match opts.manifest_dir.as_deref() {
        Some(dir) => match SweepManifest::open(dir, exp.name) {
            Ok((m, entries)) => (Some(m), entries),
            Err(e) => {
                warnings.push(format!("sweep manifest disabled: {e}"));
                (None, std::collections::BTreeMap::new())
            }
        },
        None => (None, std::collections::BTreeMap::new()),
    };

    // Cache/manifest probe: resolved cells keep their slot; misses go
    // to the pool. Known-failed cells are re-reported, not re-run
    // (a permanently hung cell must not hang the resumed sweep).
    let mut outcomes: Vec<Option<Result<CellMetrics, String>>> = vec![None; tasks.len()];
    let mut miss_indices: Vec<usize> = Vec::new();
    for (i, &(p, seed)) in tasks.iter().enumerate() {
        if opts.resume {
            let key = (digests[p].clone(), seed);
            if let Some(entry) = prior.get(&key).filter(|e| !e.ok) {
                outcomes[i] = Some(Err(format!(
                    "skipped: previous sweep failed this cell after {} attempt(s): {}",
                    entry.attempts, entry.reason
                )));
                continue;
            }
        }
        match opts.cache.as_ref().and_then(|c| c.load(&digests[p], seed)) {
            Some(cell) => {
                progress.add_cached(1);
                outcomes[i] = Some(Ok(cell));
            }
            None => miss_indices.push(i),
        }
    }

    // Run the misses across the whole grid — no per-point barriers.
    // Fresh cells are cached and journaled the moment they land, so a
    // killed sweep loses at most the cells still in flight.
    let store_warnings: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let fresh = run_tasks(miss_indices.clone(), opts.effective_workers(), |i| {
        let (p, seed) = tasks[i];
        let (result, attempts) = run_cell_with_retries(runner, &configs[p], seed, opts.retries);
        match &result {
            Ok(cell) => {
                progress.add_simulated(1);
                if let Some(cache) = &opts.cache {
                    if let Err(e) = cache.store(&digests[p], seed, cell) {
                        if let Ok(mut w) = store_warnings.lock() {
                            w.push(format!(
                                "cache store failed for [{} seed={seed}]: {e}",
                                exp.points[p].key
                            ));
                        }
                    }
                }
                if let Some(m) = &manifest {
                    m.record_ok(&digests[p], seed, attempts);
                }
            }
            Err(message) => {
                if let Some(m) = &manifest {
                    m.record_failed(&digests[p], seed, attempts, message);
                }
            }
        }
        result
    });
    if let Ok(mut w) = store_warnings.lock() {
        warnings.append(&mut w);
    }
    for (i, result) in miss_indices.into_iter().zip(fresh) {
        // Flatten the pool's own failure layer (lost worker) into the
        // cell's verdict.
        outcomes[i] = Some(result.unwrap_or_else(Err));
    }

    // Deterministic re-assembly: grid order is queue order.
    let mut failures = Vec::new();
    let mut points = Vec::with_capacity(exp.points.len());
    let mut outcome_iter = outcomes.into_iter();
    for (p, point) in exp.points.iter().enumerate() {
        let mut cells = Vec::with_capacity(opts.seeds.len());
        for &seed in &opts.seeds {
            let outcome = outcome_iter
                .next()
                .flatten()
                .unwrap_or_else(|| Err("cell result lost".into()));
            if let Err(message) = &outcome {
                progress.add_failed(1);
                failures.push(CellFailure {
                    point_key: point.key.clone(),
                    seed,
                    message: message.clone(),
                });
            }
            cells.push(outcome);
        }
        points.push(PointResult {
            key: point.key.clone(),
            digest: digests[p].clone(),
            cells,
        });
    }

    let result = ExperimentResult {
        name: exp.name.to_owned(),
        points,
    };
    let report_lines = report_lines(exp.name, &result);
    let rendered = (exp.render)(&result);

    ExperimentOutcome {
        result,
        rendered,
        report_lines,
        failures,
        warnings,
        progress: progress.snapshot(),
    }
}

/// Builds the telemetry report: per-cell summaries in grid order, then
/// one pooled summary per point.
fn report_lines(exp_name: &str, result: &ExperimentResult) -> Vec<String> {
    let mut lines = Vec::new();
    for point in &result.points {
        let label = format!("{exp_name}/{}", point.key);
        let summaries: Vec<RunSummary> = point
            .ok_cells()
            .map(|cell| cell.to_summary(label.clone()))
            .collect();
        for s in &summaries {
            lines.push(s.to_json());
        }
        if !summaries.is_empty() {
            lines.push(aggregate_summaries(format!("{label}/pooled"), &summaries).to_json());
        }
    }
    lines
}

/// Runs one configuration once per seed through the engine's worker pool,
/// returning the full reports in seed order — the replacement for the
/// old chunked `bench::run_seeds` and serial
/// `ScenarioConfig::run_seeds`.
///
/// # Errors
///
/// Returns the first failed cell if any seed's run panicked; the
/// remaining seeds still ran to completion.
pub fn run_seeds(
    cfg: &ScenarioConfig,
    seeds: &[u64],
    workers: usize,
) -> Result<Vec<RunReport>, CellFailure> {
    let workers = if workers > 0 {
        workers
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    };
    let results = run_tasks(seeds.to_vec(), workers, |seed| cfg.clone().seed(seed).run());
    let mut reports = Vec::with_capacity(seeds.len());
    for (&seed, r) in seeds.iter().zip(results) {
        match r {
            Ok(report) => reports.push(report),
            Err(message) => {
                return Err(CellFailure {
                    point_key: "run_seeds".to_owned(),
                    seed,
                    message,
                })
            }
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_seed_is_stable_and_distinct() {
        assert_eq!(retry_seed(7, 1), 7, "first attempt uses the grid seed");
        let second = retry_seed(7, 2);
        assert_ne!(second, 7);
        assert_eq!(second, retry_seed(7, 2), "derivation is deterministic");
        assert_ne!(retry_seed(7, 2), retry_seed(7, 3));
        assert_ne!(retry_seed(7, 2), retry_seed(8, 2));
    }

    #[test]
    fn budget_from_default_options_is_unbounded() {
        let opts = RunOptions::new(1, 1);
        let budget = opts.cell_budget();
        assert!(budget.max_events.is_none());
        assert!(budget.deadline_exceeded.is_none());
    }

    #[test]
    fn zero_second_watchdog_trips_immediately() {
        let mut opts = RunOptions::new(1, 1);
        opts.watchdog_secs = Some(0);
        let budget = opts.cell_budget();
        let deadline = budget.deadline_exceeded.expect("deadline set");
        assert!(deadline(), "a zero-second budget is already exceeded");
    }
}
