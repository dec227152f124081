//! The simulator workloads: the paper's Fig. 4 grid through the
//! experiment engine, and a spatial campus through the shard runner.
//!
//! Untraced repetitions give the end-to-end figures. The traced pass
//! runs the phase profiler at one worker (its shared counters would
//! bounce between cores otherwise), next to an untraced run at one
//! worker that prices the profiler, and an untraced run at `nproc`
//! workers for the executor and shard figures. `obs_per_s` belongs to
//! the live workloads and reads 0 here.

use std::hint::black_box;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use airguard_bench::figures::fig4;
use airguard_exp::{run_experiment_with, CellMetrics, Experiment, RunOptions};
use airguard_net::{Protocol, RunBudget, ScenarioConfig, StandardScenario};
use airguard_obs::{fnv1a_hex, Phase, PhaseProfiler};

use crate::measure::{
    heap_peak, median, nproc, profiler_scope_cost, repeat_for, reps_note, Report, ScopeCost,
};

/// Seeds per Fig. 4 grid point (22 points, so 44 cells).
pub const FIG4_SEEDS: u64 = 2;
/// Simulated seconds per Fig. 4 cell.
pub const FIG4_SECS: u64 = 10;
/// Campus size; clusters sit far apart, so the spatial medium splits
/// it into one component per cluster.
pub const CAMPUS_NODES: usize = 5_000;
/// Misbehaving senders placed in the campus.
const CAMPUS_CHEATERS: usize = 5;
/// Simulated seconds of the campus run.
const CAMPUS_SECS: u64 = 1;

/// Shard-plan phases only: two scopes per run, so it costs nothing
/// measurable while giving the shard build and merge times.
fn shard_profiler() -> PhaseProfiler {
    PhaseProfiler::with_mask(Phase::ShardBuild.bit() | Phase::ShardMerge.bit())
}

/// Per-call figures of the hot-loop phases, from a profiled run.
fn phase_metrics(report: &mut Report, profiler: &PhaseProfiler, cost: ScopeCost) {
    let phases = [
        (Phase::SchedulerPop, "sim.scheduler_pop", true),
        (Phase::MediumPropagation, "phy.medium_propagation", true),
        (Phase::MacStep, "mac.mac_step", true),
        (Phase::MonitorStep, "core.monitor_step", false),
    ];
    for (phase, prefix, per_call) in phases {
        let (nanos, calls) = profiler.totals(phase);
        report.set(format!("{prefix}.ms"), nanos as f64 / 1e6);
        report.set(format!("{prefix}.calls"), calls as f64);
        if per_call {
            let raw = nanos as f64 / calls.max(1) as f64;
            report.set(
                format!("{prefix}.ns_per_call"),
                (raw - cost.booked_ns).max(0.0),
            );
        }
    }
    report.set("obs.profiler.ns_per_scope", cost.wall_ns);
    report.set("obs.profiler.booked_ns_per_scope", cost.booked_ns);
}

/// One cell as the timed runner saw it.
struct CellLog {
    wall: Duration,
    events: u64,
}

/// One pass over the Fig. 4 grid.
struct Sweep {
    wall: f64,
    /// Engine entry to the first cell, plus a standalone build of that
    /// cell's topology timed after the sweep.
    setup: f64,
    cells: Vec<CellLog>,
    failed: usize,
    attempted: usize,
    /// FNV-1a of the engine's report lines.
    digest: String,
}

impl Sweep {
    fn events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }
}

fn sweep(
    exp: &Experiment,
    seeds: &[u64],
    workers: usize,
    profiler: Option<&PhaseProfiler>,
) -> Sweep {
    let mut opts = RunOptions::new(1, FIG4_SECS);
    opts.seeds = seeds.to_vec();
    opts.workers = workers;
    opts.cache = None;
    let log = Mutex::new(Vec::new());
    let first: OnceLock<(Instant, ScenarioConfig)> = OnceLock::new();
    let runner = |cfg: &ScenarioConfig, seed: u64| -> Result<CellMetrics, String> {
        let started = Instant::now();
        let cfg = cfg.clone().seed(seed);
        if first.get().is_none() {
            let _ = first.set((started, cfg.clone()));
        }
        let report = match profiler {
            Some(p) => cfg.run_budgeted_profiled(&RunBudget::unlimited(), p.clone())?,
            None => cfg.run(),
        };
        let cell = CellLog {
            wall: started.elapsed(),
            events: report.events,
        };
        log.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(cell);
        Ok(CellMetrics::from_report(&report))
    };
    let entered = Instant::now();
    let outcome = run_experiment_with(exp, &opts, &runner);
    let wall = entered.elapsed().as_secs_f64();
    // The first cell's topology build, timed outside the sweep so that
    // no timed cell does work the program would not do.
    let setup = first.into_inner().map_or(0.0, |(at, cfg)| {
        let t = Instant::now();
        black_box(cfg.build_topology());
        (at.duration_since(entered) + t.elapsed()).as_secs_f64()
    });
    Sweep {
        wall,
        setup,
        cells: log.into_inner().unwrap_or_else(PoisonError::into_inner),
        failed: outcome.failures.len(),
        attempted: exp.points.len() * seeds.len(),
        digest: fnv1a_hex(outcome.report_lines.join("\n").as_bytes()),
    }
}

/// `fig4_sweep`: the paper's Fig. 4 grid with the cache off.
pub fn fig4_sweep(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let exp = fig4::experiment();
    let seeds: Vec<u64> = (0..FIG4_SEEDS)
        .map(|k| seed.wrapping_mul(FIG4_SEEDS).wrapping_add(k + 1))
        .collect();
    let workers = nproc();
    let mut report = Report::default();
    report.notes.push(format!(
        "fig4_sweep: {} points x {} seeds x {FIG4_SECS} s, {workers} workers on {} cores",
        exp.points.len(),
        seeds.len(),
        nproc()
    ));
    let (reference, mem_mb) = heap_peak(|| sweep(&exp, &seeds, workers, None));
    let check = |report: &mut Report, run: &Sweep, what: &str| {
        report.attempted += run.attempted as u64;
        report.failed += run.failed as u64;
        report.check(run.failed == 0, || {
            format!("{what}: {} cells failed", run.failed)
        });
        report.check(run.digest == reference.digest, || {
            format!(
                "{what}: report digest {} != {}",
                run.digest, reference.digest
            )
        });
    };
    check(&mut report, &reference, "warm-up sweep");
    if trace {
        let cost = profiler_scope_cost();
        let parallel = sweep(&exp, &seeds, workers, None);
        let serial = sweep(&exp, &seeds, 1, None);
        let profiler = PhaseProfiler::enabled();
        let profiled = sweep(&exp, &seeds, 1, Some(&profiler));
        for (run, what) in [
            (&parallel, "parallel sweep"),
            (&serial, "serial sweep"),
            (&profiled, "profiled sweep"),
        ] {
            check(&mut report, run, what);
        }
        phase_metrics(&mut report, &profiler, cost);
        report.set("obs.profiler.overhead_frac", profiled.wall / serial.wall);
        let mut cell_ms: Vec<f64> = parallel
            .cells
            .iter()
            .map(|c| c.wall.as_secs_f64() * 1e3)
            .collect();
        cell_ms.sort_by(f64::total_cmp);
        let busy_s = cell_ms.iter().sum::<f64>() / 1e3;
        report.set("exp.cell_busy_s", busy_s);
        report.set("exp.cell_p50_ms", median(&cell_ms));
        report.set("exp.cell_max_ms", cell_ms.last().copied().unwrap_or(0.0));
        report.set(
            "exp.parallel_efficiency",
            busy_s / (parallel.wall * workers as f64),
        );
        report.family_rate(
            "events_per_s",
            "1/s",
            parallel.events() as f64 / parallel.wall,
        );
        report.failed_frac(parallel.failed as u64, parallel.attempted as u64);
    } else {
        let reps = repeat_for(seconds, 3, || Ok(sweep(&exp, &seeds, workers, None)))?;
        for run in &reps {
            check(&mut report, run, "timed sweep");
        }
        let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
        let rate = |count: fn(&Sweep) -> u64| -> f64 {
            median(
                &reps
                    .iter()
                    .map(|r| count(r) as f64 / r.wall)
                    .collect::<Vec<_>>(),
            )
        };
        report.set("wall_s", median(&walls));
        report.set(
            "setup_s",
            median(&reps.iter().map(|r| r.setup).collect::<Vec<_>>()),
        );
        report.set("mem_peak_mb", mem_mb);
        report.family_rate("events_per_s", "1/s", rate(Sweep::events));
        let failed: usize = reps.iter().map(|r| r.failed).sum();
        let cells: usize = reps.iter().map(|r| r.attempted).sum();
        report.failed_frac(failed as u64, cells as u64);
        report.notes.push(reps_note("fig4_sweep", &walls));
    }
    Ok(report)
}

fn campus_config(seed: u64, workers: usize) -> ScenarioConfig {
    ScenarioConfig::new(StandardScenario::Campus)
        .protocol(Protocol::Correct)
        .misbehavior_percent(50.0)
        .random_nodes(CAMPUS_NODES, CAMPUS_CHEATERS)
        .sim_time_secs(CAMPUS_SECS)
        .seed(seed)
        .spatial(true)
        .shard_workers(workers)
}

/// One campus run.
struct Campus {
    wall: f64,
    /// Topology build plus shard-plan build.
    setup: f64,
    events: u64,
    summary: String,
    shard_build_ms: f64,
    shard_merge_ms: f64,
}

fn campus(seed: u64, workers: usize, profiler: &PhaseProfiler) -> Result<Campus, String> {
    let cfg = campus_config(seed, workers);
    let t = Instant::now();
    black_box(cfg.build_topology());
    let topology_s = t.elapsed().as_secs_f64();
    profiler.clear();
    let t = Instant::now();
    let run = cfg.run_budgeted_profiled(&RunBudget::unlimited(), profiler.clone())?;
    let wall = t.elapsed().as_secs_f64();
    let (build_ns, _) = profiler.totals(Phase::ShardBuild);
    let (merge_ns, _) = profiler.totals(Phase::ShardMerge);
    Ok(Campus {
        wall,
        setup: topology_s + build_ns as f64 / 1e9,
        events: run.events,
        summary: run.summary.to_json(),
        shard_build_ms: build_ns as f64 / 1e6,
        shard_merge_ms: merge_ns as f64 / 1e6,
    })
}

/// `campus_spatial`: a spatial campus sharded over `nproc` workers.
pub fn campus_spatial(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let workers = nproc();
    let mut report = Report::default();
    report.notes.push(format!(
        "campus_spatial: {CAMPUS_NODES} nodes, {CAMPUS_SECS} s, {workers} shard workers on {} cores",
        nproc()
    ));
    // The 1-worker reference every sharded run must reproduce. It is
    // the process's first, cold run, so it is not timed.
    let reference = campus(seed, 1, &shard_profiler())?;
    let check = |report: &mut Report, run: &Campus, what: &str| {
        report.attempted += 1;
        let same = run.summary == reference.summary;
        if !same {
            report.failed += 1;
        }
        report.check(same, || {
            format!("{what}: summary differs from the 1-worker reference")
        });
    };
    if trace {
        let cost = profiler_scope_cost();
        let parallel = campus(seed, workers, &shard_profiler())?;
        let serial = campus(seed, 1, &shard_profiler())?;
        let profiler = PhaseProfiler::enabled();
        let profiled = campus(seed, 1, &profiler)?;
        check(&mut report, &parallel, "parallel campus");
        check(&mut report, &serial, "serial campus");
        check(&mut report, &profiled, "profiled campus");
        phase_metrics(&mut report, &profiler, cost);
        report.set("obs.profiler.overhead_frac", profiled.wall / serial.wall);
        report.set("net.shard_build.ms", parallel.shard_build_ms);
        report.set("net.shard_merge.ms", parallel.shard_merge_ms);
        report.set("net.shard.speedup", serial.wall / parallel.wall);
        report.family_rate(
            "events_per_s",
            "1/s",
            parallel.events as f64 / parallel.wall,
        );
        report.failed_frac(report.failed, report.attempted);
    } else {
        let (warm, mem_mb) = heap_peak(|| campus(seed, workers, &shard_profiler()));
        check(&mut report, &warm?, "warm-up campus");
        let reps = repeat_for(seconds, 3, || campus(seed, workers, &shard_profiler()))?;
        for run in &reps {
            check(&mut report, run, "timed campus");
        }
        let of = |f: fn(&Campus) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        report.set("wall_s", of(|r| r.wall));
        report.set("setup_s", of(|r| r.setup));
        report.set("mem_peak_mb", mem_mb);
        report.family_rate("events_per_s", "1/s", of(|r| r.events as f64 / r.wall));
        report.failed_frac(report.failed, report.attempted);
        report.notes.push(reps_note(
            "campus_spatial",
            &reps.iter().map(|r| r.wall).collect::<Vec<_>>(),
        ));
    }
    Ok(report)
}
