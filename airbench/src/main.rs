//! `airbench`: the end-to-end and per-layer benchmark of the airguard
//! simulator and its live detection service.
//!
//! ```text
//! airbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Workloads: `fig4_sweep`, `campus_spatial`, `live_fleet` (see
//! `BENCHMARK.json` for why each exists). Every workload builds its
//! inputs from `--seed`, checks the program's outputs, and measures for
//! `--seconds`; the traced pass runs each of its runs once. With
//! `--trace 0` the last stdout line is one JSON object carrying the
//! end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of a separate traced pass. Lines before it are
//! human-readable. `all` runs every workload and prefixes each metric
//! with its workload name.

mod live;
mod measure;
mod sim;

use std::collections::BTreeMap;
use std::process::ExitCode;

use measure::Report;

#[global_allocator]
static ALLOC: measure::PeakAlloc = measure::PeakAlloc;

/// End-to-end metrics (`--trace 0`), with units. Each is defined, and
/// never zero, on every workload; inputs have a fixed size per seed, so
/// `wall_s` carries the workload's throughput.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("mem_peak_mb", "MB")];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not reach reads 0; so do the rates of the other workload family.
/// The rates at the end are end-to-end figures that apply to only some
/// workloads (or whose count varies with the seed), so they are not
/// bounded; `--trace 0` prints them as notes.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.scheduler_pop.ms", "ms"),
    ("sim.scheduler_pop.calls", "count"),
    ("sim.scheduler_pop.ns_per_call", "ns"),
    ("phy.medium_propagation.ms", "ms"),
    ("phy.medium_propagation.calls", "count"),
    ("phy.medium_propagation.ns_per_call", "ns"),
    ("mac.mac_step.ms", "ms"),
    ("mac.mac_step.calls", "count"),
    ("mac.mac_step.ns_per_call", "ns"),
    ("core.monitor_step.ms", "ms"),
    ("core.monitor_step.calls", "count"),
    ("core.detect.ns_per_obs", "ns"),
    ("net.shard_build.ms", "ms"),
    ("net.shard_merge.ms", "ms"),
    ("net.shard.speedup", "ratio"),
    ("exp.cell_busy_s", "s"),
    ("exp.cell_p50_ms", "ms"),
    ("exp.cell_max_ms", "ms"),
    ("exp.parallel_efficiency", "ratio"),
    ("live.replay.decode_ns_per_record", "ns"),
    ("live.engine.feeder_ns_per_obs", "ns"),
    ("live.engine.verdict_p50_us", "us"),
    ("live.engine.verdict_tail_us", "us"),
    ("live.engine.verdict_tail_pct", "%"),
    ("live.engine.verdict_samples", "count"),
    ("live.engine.stations", "count"),
    ("live.engine.quarantined", "count"),
    ("live.engine.shed", "count"),
    ("live.checkpoint.count", "count"),
    ("live.checkpoint.barrier_ms", "ms"),
    ("live.checkpoint.bytes", "bytes"),
    ("live.checkpoint.load_ms", "ms"),
    ("live.restore.prefix_records", "count"),
    ("obs.profiler.ns_per_scope", "ns"),
    ("obs.profiler.booked_ns_per_scope", "ns"),
    ("obs.profiler.overhead_frac", "ratio"),
    ("events_per_s", "1/s"),
    ("records_per_s", "1/s"),
    ("obs_per_s", "1/s"),
    ("failed_frac", "ratio"),
    ("failed_frac.base", "count"),
];

type Workload = fn(u64, f64, bool) -> Result<Report, String>;

const WORKLOADS: &[(&str, Workload)] = &[
    ("fig4_sweep", sim::fig4_sweep),
    ("campus_spatial", sim::campus_spatial),
    ("live_fleet", live::live_fleet),
];

const USAGE: &str = "usage: airbench --workload <fig4_sweep|campus_spatial|live_fleet|all> \
     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds" | "--trace") => f,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
        if flags.insert(name, value).is_some() {
            return Err(format!("{name} given twice"));
        }
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name}: expected a whole number"))
    };
    let workload = get("--workload")?.to_owned();
    if workload != "all" && !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace: expected 0 or 1".to_owned()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// `"name":{"value":v,"unit":"u"}` for every declared metric, under
/// `prefix`. End-to-end metrics must be present, finite and positive.
fn render_metrics(
    report: &Report,
    prefix: &str,
    trace: bool,
    out: &mut Vec<String>,
) -> Result<(), String> {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in declared {
        let value = match report.metrics.get(*name) {
            Some(v) if v.is_finite() && (trace || *v > 0.0) => *v,
            Some(v) => return Err(format!("{prefix}{name} measured {v}")),
            None if trace => 0.0,
            None => return Err(format!("{prefix}{name} was not measured")),
        };
        out.push(format!(
            "\"{prefix}{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("airbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&(&str, Workload)> = WORKLOADS
        .iter()
        .filter(|(name, _)| args.workload == "all" || *name == args.workload)
        .collect();
    let mut metrics = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for (name, workload) in selected {
        let prefix = if args.workload == "all" {
            format!("{name}/")
        } else {
            String::new()
        };
        let report = match workload(args.seed, args.seconds as f64, args.trace) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("airbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for note in &report.notes {
            println!("{note}");
        }
        for problem in &report.problems {
            println!("CHECK FAILED: {name}: {problem}");
        }
        correct &= report.problems.is_empty();
        attempted += report.attempted;
        failed += report.failed;
        if let Err(e) = render_metrics(&report, &prefix, args.trace, &mut metrics) {
            eprintln!("airbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = parse_args(&argv(
            "--workload live_fleet --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, "live_fleet");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload all --seed x --seconds 1 --trace 0",
            "--workload all --seed 1 --seconds 0 --trace 0",
            "--workload all --seed 1 --seconds 1 --trace 2",
            "--workload all --seed 1 --seconds 1",
            "--workload all --seed 1 --seconds 1 --trace 0 --trace 1",
            "--bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn declared_metrics_and_workloads_match_benchmark_json() {
        use airguard_live::json::JsonValue;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(JsonValue::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), declared(END_TO_END));
        assert_eq!(listed("per_layer"), declared(PER_LAYER));
        for (name, _) in listed("workloads") {
            assert!(WORKLOADS.iter().any(|(w, _)| *w == name), "{name} unknown");
        }
    }

    #[test]
    fn end_to_end_metrics_must_be_positive() {
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.set(*name, 1.5);
        }
        let mut out = Vec::new();
        assert!(render_metrics(&report, "", false, &mut out).is_ok());
        report.set("wall_s", 0.0);
        assert!(render_metrics(&report, "", false, &mut Vec::new()).is_err());
        // Per-layer metrics a workload does not reach read zero.
        let mut out = Vec::new();
        assert!(render_metrics(&Report::default(), "", true, &mut out).is_ok());
        assert_eq!(out.len(), PER_LAYER.len());
    }
}
