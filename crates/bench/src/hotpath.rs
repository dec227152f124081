//! The `--figure hotpath` perf harness: the repo's events/sec
//! trajectory point.
//!
//! Unlike every other figure this is not a paper sweep — it measures
//! the *simulator itself*:
//!
//! * **micro**: a canned TWO-FLOW run (the determinism-test scenario)
//!   executed over a small seed set, reporting scheduler events per
//!   wall-clock second (best of `REPS` repetitions);
//! * **macro**: the fig4 sweep at downscaled settings through the
//!   experiment engine with the cache disabled, reporting wall time.
//!
//! Results land in `BENCH_hotpath.json` in the working directory. The
//! first measurement ever taken is pinned as the `"before"` block
//! (the pre-refactor baseline); subsequent runs refresh `"after"` and
//! report the speedup against the pinned baseline, so the committed
//! file records the hot-path overhaul's before/after trajectory.

use std::time::Instant;

use airguard_exp::{run_experiment, RunOptions};
use airguard_net::{Protocol, ScenarioConfig, StandardScenario};

use crate::figures;

/// Repetitions of the micro benchmark; the best (highest events/sec)
/// repetition is reported, which filters scheduler noise on shared CI
/// machines.
const REPS: usize = 3;

/// Canned micro settings: the harness *downscales only* — explicit
/// `--seeds`/`--secs` below these caps shrink the run, the paper
/// defaults never inflate it.
const MICRO_SEEDS: u64 = 3;
const MICRO_SECS: u64 = 20;
const MACRO_SEEDS: u64 = 2;
const MACRO_SECS: u64 = 2;

/// Where the trajectory file lives (working directory = repo root).
pub const REPORT_PATH: &str = "BENCH_hotpath.json";

/// One measured block of the trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Scheduler events delivered across the whole seed set.
    pub events: u64,
    /// Best wall-clock seconds over `REPS` repetitions.
    pub wall_s: f64,
    /// `events / wall_s` of the best repetition.
    pub events_per_sec: f64,
    /// Seed-set size the block was measured at.
    pub seeds: u64,
    /// Simulated seconds per run the block was measured at.
    pub secs: u64,
}

impl Measurement {
    fn to_json(&self) -> String {
        format!(
            "{{\"events\":{},\"wall_s\":{:.4},\"events_per_sec\":{:.0},\"seeds\":{},\"secs\":{}}}",
            self.events, self.wall_s, self.events_per_sec, self.seeds, self.secs
        )
    }

    /// Comparable measurements were taken at the same scale.
    #[must_use]
    pub fn same_scale(&self, other: &Measurement) -> bool {
        self.seeds == other.seeds && self.secs == other.secs
    }
}

/// The canned TWO-FLOW micro scenario (mirrors `tests/determinism.rs`
/// so the measured loop is exactly the replay-verified one).
fn micro_scenario(seed: u64, secs: u64) -> ScenarioConfig {
    ScenarioConfig::new(StandardScenario::TwoFlow)
        .protocol(Protocol::Correct)
        .n_senders(4)
        .misbehavior_percent(50.0)
        .sim_time_secs(secs)
        .seed(seed)
}

/// Runs the micro benchmark once: every seed back to back, timed.
fn micro_rep(seeds: u64, secs: u64) -> (u64, f64) {
    let start = Instant::now();
    let mut events = 0;
    for seed in 1..=seeds {
        events += micro_scenario(seed, secs).run().events;
    }
    (events, start.elapsed().as_secs_f64())
}

/// Best-of-`REPS` micro measurement at the given scale.
#[must_use]
pub fn measure_micro(seeds: u64, secs: u64) -> Measurement {
    let mut best: Option<(u64, f64)> = None;
    for _ in 0..REPS {
        let (events, wall) = micro_rep(seeds, secs);
        if best.is_none_or(|(_, w)| wall < w) {
            best = Some((events, wall));
        }
    }
    let (events, wall_s) = best.expect("REPS > 0"); // lint:allow(panic-expect) — loop above always runs at least once
    Measurement {
        events,
        wall_s,
        events_per_sec: events as f64 / wall_s,
        seeds,
        secs,
    }
}

/// Wall time of the fig4 sweep (cache disabled) through the engine.
fn measure_macro(seeds: u64, secs: u64, workers: usize) -> (usize, f64) {
    let exp = figures::fig4::experiment();
    let mut opts = RunOptions::new(seeds, secs);
    opts.workers = workers;
    opts.cache = None;
    let cells = exp.points.len() * seeds as usize;
    let start = Instant::now();
    let _ = run_experiment(&exp, &opts);
    (cells, start.elapsed().as_secs_f64())
}

/// Extracts `"key":<number>` from a JSON block with a flat scan; good
/// enough to re-read the file this module itself writes.
fn field_f64(block: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = block.find(&pat)? + pat.len();
    let rest = &block[at..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Re-reads one named measurement block from a previously written
/// trajectory file.
fn read_block(json: &str, name: &str) -> Option<Measurement> {
    let at = json.find(&format!("\"{name}\":{{"))?;
    let block = &json[at..];
    let end = block.find('}')?;
    let block = &block[..end];
    Some(Measurement {
        events: field_f64(block, "events")? as u64,
        wall_s: field_f64(block, "wall_s")?,
        events_per_sec: field_f64(block, "events_per_sec")?,
        seeds: field_f64(block, "seeds")? as u64,
        secs: field_f64(block, "secs")? as u64,
    })
}

/// The pinned pre-refactor baseline: the `before` block if the file
/// already has one, otherwise the previous `after` (first measurement
/// ever taken becomes the baseline forever).
#[must_use]
pub fn pinned_baseline(previous: &str) -> Option<Measurement> {
    read_block(previous, "before").or_else(|| read_block(previous, "after"))
}

/// Renders the trajectory file.
#[must_use]
pub fn render_report(
    before: Option<&Measurement>,
    after: &Measurement,
    fig4_cells: usize,
    fig4_wall_s: f64,
) -> String {
    let mut out = String::from("{\"schema\":\"airguard.hotpath.v1\",");
    out.push_str("\"microbench\":\"two-flow, correct protocol, 4 senders, pm=50\",");
    if let Some(b) = before {
        out.push_str(&format!("\"before\":{},", b.to_json()));
    }
    out.push_str(&format!("\"after\":{},", after.to_json()));
    match before {
        Some(b) if b.same_scale(after) && b.events_per_sec > 0.0 => {
            out.push_str(&format!(
                "\"speedup\":{:.2},",
                after.events_per_sec / b.events_per_sec
            ));
        }
        Some(_) => out.push_str("\"speedup\":null,\"speedup_note\":\"scale mismatch\","),
        None => out.push_str("\"speedup\":null,"),
    }
    out.push_str(&format!(
        "\"fig4\":{{\"cells\":{fig4_cells},\"wall_s\":{fig4_wall_s:.2}}}}}\n"
    ));
    out
}

/// Runs the full harness: micro + macro, baseline promotion, report
/// write. Returns the rendered report and the console summary lines.
///
/// # Errors
///
/// Returns the I/O error message if the report file cannot be written.
pub fn run(seeds: u64, secs: u64, workers: usize) -> Result<Vec<String>, String> {
    let micro = measure_micro(seeds.min(MICRO_SEEDS), secs.min(MICRO_SECS));
    let (cells, fig4_wall) = measure_macro(seeds.min(MACRO_SEEDS), secs.min(MACRO_SECS), workers);
    let previous = std::fs::read_to_string(REPORT_PATH).unwrap_or_default();
    let before = pinned_baseline(&previous);
    let report = render_report(before.as_ref(), &micro, cells, fig4_wall);
    std::fs::write(REPORT_PATH, &report)
        .map_err(|e| format!("failed to write {REPORT_PATH}: {e}"))?;
    let mut lines = vec![format!(
        "hotpath micro: {} events in {:.3} s = {:.0} events/s (best of {REPS})",
        micro.events, micro.wall_s, micro.events_per_sec
    )];
    match before {
        Some(b) if b.same_scale(&micro) => lines.push(format!(
            "hotpath baseline: {:.0} events/s -> speedup {:.2}x",
            b.events_per_sec,
            micro.events_per_sec / b.events_per_sec
        )),
        Some(b) => lines.push(format!(
            "hotpath baseline: {:.0} events/s (different scale; no speedup computed)",
            b.events_per_sec
        )),
        None => lines.push("hotpath baseline: none (this run is now the pinned baseline)".into()),
    }
    lines.push(format!(
        "hotpath macro: fig4 {cells} cells uncached in {fig4_wall:.2} s"
    ));
    lines.push(format!("hotpath report: {REPORT_PATH}"));
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(eps: f64, seeds: u64, secs: u64) -> Measurement {
        Measurement {
            events: 1000,
            wall_s: 0.5,
            events_per_sec: eps,
            seeds,
            secs,
        }
    }

    #[test]
    fn report_round_trips_through_the_flat_parser() {
        let report = render_report(Some(&m(2000.0, 3, 5)), &m(3500.0, 3, 5), 44, 1.25);
        let before = read_block(&report, "before").expect("before parses");
        let after = read_block(&report, "after").expect("after parses");
        assert_eq!(before.events_per_sec, 2000.0);
        assert_eq!(after.events_per_sec, 3500.0);
        assert!(report.contains("\"speedup\":1.75"));
    }

    #[test]
    fn first_measurement_becomes_the_pinned_baseline() {
        let first = render_report(None, &m(2000.0, 3, 5), 44, 1.0);
        assert!(first.contains("\"speedup\":null"));
        let pinned = pinned_baseline(&first).expect("after promoted to baseline");
        assert_eq!(pinned.events_per_sec, 2000.0);
        // The second run compares against it and re-pins it as "before".
        let second = render_report(Some(&pinned), &m(3000.0, 3, 5), 44, 1.0);
        assert_eq!(
            pinned_baseline(&second)
                .expect("before wins")
                .events_per_sec,
            2000.0
        );
        assert!(second.contains("\"speedup\":1.50"));
    }

    #[test]
    fn scale_mismatch_disables_the_speedup() {
        let report = render_report(Some(&m(2000.0, 3, 5)), &m(9000.0, 2, 2), 44, 1.0);
        assert!(report.contains("\"speedup\":null"));
        assert!(report.contains("scale mismatch"));
    }

    #[test]
    fn missing_file_has_no_baseline() {
        assert!(pinned_baseline("").is_none());
        assert!(pinned_baseline("{}").is_none());
    }
}
