//! Command-line interface: hand-rolled argument parsing (the workspace
//! deliberately has no CLI-framework dependency) plus the command
//! implementations behind the `airguard` binary.
//!
//! ```text
//! airguard run  --scenario zero-flow --protocol correct --pm 80 --seconds 10 --seed 1
//! airguard sweep --scenario two-flow --seconds 10 --seeds 5
//! airguard topology --scenario random --seed 3
//! ```

use std::fmt;

use airguard_live::cli::parse_positive;
use airguard_mac::AccessMode;
use airguard_net::{Protocol, ScenarioConfig, StandardScenario};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one scenario and print its report.
    Run(RunArgs),
    /// Sweep PM from 0 to 100 and print the diagnosis/throughput table.
    Sweep(SweepArgs),
    /// Print a scenario's node placement and traffic matrix.
    Topology(TopologyArgs),
    /// Print usage.
    Help,
}

/// Arguments of `airguard run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Scenario preset.
    pub scenario: StandardScenario,
    /// Protocol for all nodes.
    pub protocol: Protocol,
    /// Percentage of misbehavior for the cheater set.
    pub pm: f64,
    /// Simulated seconds.
    pub seconds: u64,
    /// Master seed.
    pub seed: u64,
    /// Number of senders (star scenarios).
    pub senders: usize,
    /// Basic (two-way) access instead of RTS/CTS.
    pub basic: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            scenario: StandardScenario::ZeroFlow,
            protocol: Protocol::Correct,
            pm: 0.0,
            seconds: 10,
            seed: 1,
            senders: 8,
            basic: false,
        }
    }
}

/// Arguments of `airguard sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Scenario preset.
    pub scenario: StandardScenario,
    /// Simulated seconds per run.
    pub seconds: u64,
    /// Number of seeds averaged per data point.
    pub seeds: u64,
    /// PM step size in percent.
    pub step: f64,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            scenario: StandardScenario::ZeroFlow,
            seconds: 10,
            seeds: 3,
            step: 20.0,
        }
    }
}

/// Arguments of `airguard topology`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyArgs {
    /// Scenario preset.
    pub scenario: StandardScenario,
    /// Seed (placement of the random scenario).
    pub seed: u64,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCliError(String);

impl fmt::Display for ParseCliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseCliError {}

fn err(msg: impl Into<String>) -> ParseCliError {
    ParseCliError(msg.into())
}

fn parse_scenario(v: &str) -> Result<StandardScenario, ParseCliError> {
    match v {
        "zero-flow" | "zero" => Ok(StandardScenario::ZeroFlow),
        "two-flow" | "two" => Ok(StandardScenario::TwoFlow),
        "random" => Ok(StandardScenario::Random),
        other => Err(err(format!(
            "unknown scenario '{other}' (expected zero-flow, two-flow, or random)"
        ))),
    }
}

fn parse_protocol(v: &str) -> Result<Protocol, ParseCliError> {
    match v {
        "correct" => Ok(Protocol::Correct),
        "dot11" | "802.11" => Ok(Protocol::Dot11),
        other => Err(err(format!(
            "unknown protocol '{other}' (expected correct or dot11)"
        ))),
    }
}

fn take_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<&'a str, ParseCliError> {
    it.next()
        .ok_or_else(|| err(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, ParseCliError> {
    v.parse()
        .map_err(|_| err(format!("{flag}: '{v}' is not a valid number")))
}

/// A count that must be at least one (`--seconds`, `--senders`,
/// `--seeds`): zero would panic deep in the simulator or average over
/// nothing, so it is rejected here.
fn parse_count<T: TryFrom<u64>>(flag: &str, v: &str) -> Result<T, ParseCliError> {
    let n = parse_positive(flag, v).map_err(err)?;
    T::try_from(n).map_err(|_| err(format!("{flag}: value {n} out of range")))
}

/// Parses a full argument list (without the program name).
///
/// # Errors
///
/// Returns a [`ParseCliError`] with a user-facing message for unknown
/// commands, unknown flags, or malformed values.
pub fn parse(args: &[&str]) -> Result<Command, ParseCliError> {
    let mut it = args.iter().copied();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" => {
            let mut a = RunArgs::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--scenario" => a.scenario = parse_scenario(take_value(flag, &mut it)?)?,
                    "--protocol" => a.protocol = parse_protocol(take_value(flag, &mut it)?)?,
                    "--pm" => a.pm = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--seconds" => a.seconds = parse_count(flag, take_value(flag, &mut it)?)?,
                    "--seed" => a.seed = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--senders" => a.senders = parse_count(flag, take_value(flag, &mut it)?)?,
                    "--basic" => a.basic = true,
                    other => return Err(err(format!("run: unknown flag '{other}'"))),
                }
            }
            if !(0.0..=100.0).contains(&a.pm) {
                return Err(err("--pm must be between 0 and 100"));
            }
            Ok(Command::Run(a))
        }
        "sweep" => {
            let mut a = SweepArgs::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--scenario" => a.scenario = parse_scenario(take_value(flag, &mut it)?)?,
                    "--seconds" => a.seconds = parse_count(flag, take_value(flag, &mut it)?)?,
                    "--seeds" => a.seeds = parse_count(flag, take_value(flag, &mut it)?)?,
                    "--step" => a.step = parse_num(flag, take_value(flag, &mut it)?)?,
                    other => return Err(err(format!("sweep: unknown flag '{other}'"))),
                }
            }
            if a.step <= 0.0 {
                return Err(err("--step must be positive"));
            }
            Ok(Command::Sweep(a))
        }
        "topology" => {
            let mut a = TopologyArgs {
                scenario: StandardScenario::ZeroFlow,
                seed: 1,
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--scenario" => a.scenario = parse_scenario(take_value(flag, &mut it)?)?,
                    "--seed" => a.seed = parse_num(flag, take_value(flag, &mut it)?)?,
                    other => return Err(err(format!("topology: unknown flag '{other}'"))),
                }
            }
            Ok(Command::Topology(a))
        }
        other => Err(err(format!("unknown command '{other}' (try 'help')"))),
    }
}

/// The usage text printed by `airguard help`.
#[must_use]
pub fn usage() -> &'static str {
    "airguard — MAC-layer misbehavior detection (DSN'03 reproduction)

USAGE:
  airguard run      [--scenario zero-flow|two-flow|random] [--protocol correct|dot11]
                    [--pm <0-100>] [--seconds N] [--seed N] [--senders N] [--basic]
  airguard sweep    [--scenario ...] [--seconds N] [--seeds N] [--step PCT]
  airguard topology [--scenario ...] [--seed N]
  airguard help
"
}

/// Executes a parsed command, printing to stdout.
pub fn execute(command: &Command) {
    match command {
        Command::Help => println!("{}", usage()),
        Command::Run(a) => {
            let mut cfg = ScenarioConfig::new(a.scenario)
                .protocol(a.protocol)
                .misbehavior_percent(a.pm)
                .n_senders(a.senders)
                .sim_time_secs(a.seconds)
                .seed(a.seed);
            if a.basic {
                cfg = cfg.access(AccessMode::Basic);
            }
            let r = cfg.run();
            println!(
                "simulated {:.0}s  events={}  delivered={} packets",
                r.elapsed.as_secs_f64(),
                r.events,
                r.diagnosis()
                    .total_packets()
                    .max(r.throughput.total_bytes() / 512),
            );
            println!(
                "throughput: MSB {:.1} Kbps, AVG {:.1} Kbps, fairness {:.3}",
                r.msb_throughput_bps() / 1e3,
                r.avg_throughput_bps() / 1e3,
                r.fairness_index()
            );
            if a.protocol == Protocol::Correct {
                println!(
                    "diagnosis: correct {:.1}%, misdiagnosis {:.1}%",
                    r.diagnosis().correct_diagnosis_percent(),
                    r.diagnosis().misdiagnosis_percent()
                );
            }
            println!(
                "delay: MSB {:.1} ms, AVG {:.1} ms",
                r.msb_delay_ms(),
                r.avg_delay_ms()
            );
        }
        Command::Sweep(a) => {
            println!("PM%   correct%  misdiag%  MSB(Kbps)  AVG(Kbps)");
            let mut pm = 0.0;
            while pm <= 100.0 {
                let seeds: Vec<u64> = (1..=a.seeds).collect();
                let (mut cd, mut md, mut msb, mut avg) = (0.0, 0.0, 0.0, 0.0);
                for &s in &seeds {
                    let r = ScenarioConfig::new(a.scenario)
                        .protocol(Protocol::Correct)
                        .misbehavior_percent(pm)
                        .sim_time_secs(a.seconds)
                        .seed(s)
                        .run();
                    cd += r.diagnosis().correct_diagnosis_percent();
                    md += r.diagnosis().misdiagnosis_percent();
                    msb += r.msb_throughput_bps() / 1e3;
                    avg += r.avg_throughput_bps() / 1e3;
                }
                let n = seeds.len() as f64;
                println!(
                    "{pm:>4.0}  {:>8.2}  {:>8.2}  {:>9.1}  {:>9.1}",
                    cd / n,
                    md / n,
                    msb / n,
                    avg / n
                );
                pm += a.step;
            }
        }
        Command::Topology(a) => {
            let cfg = ScenarioConfig::new(a.scenario).seed(a.seed);
            let topo = cfg.build_topology();
            println!("{} nodes:", topo.node_count());
            for (i, p) in topo.positions.iter().enumerate() {
                println!("  n{i} at {p}");
            }
            println!("{} flows:", topo.flows.len());
            for f in &topo.flows {
                println!(
                    "  {} -> {}  {} b/s, {} B{}",
                    f.src,
                    f.dst,
                    f.rate_bps,
                    f.payload,
                    if f.measured { "" } else { "  (interferer)" }
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse(&[]), Ok(Command::Help));
        assert_eq!(parse(&["help"]), Ok(Command::Help));
        assert_eq!(parse(&["--help"]), Ok(Command::Help));
    }

    #[test]
    fn run_defaults_and_flags() {
        let cmd = parse(&["run"]).unwrap();
        assert_eq!(cmd, Command::Run(RunArgs::default()));
        let cmd = parse(&[
            "run",
            "--scenario",
            "two-flow",
            "--protocol",
            "dot11",
            "--pm",
            "45.5",
            "--seconds",
            "7",
            "--seed",
            "99",
            "--senders",
            "16",
            "--basic",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunArgs {
                scenario: StandardScenario::TwoFlow,
                protocol: Protocol::Dot11,
                pm: 45.5,
                seconds: 7,
                seed: 99,
                senders: 16,
                basic: true,
            })
        );
    }

    #[test]
    fn scenario_aliases() {
        assert!(matches!(
            parse(&["run", "--scenario", "zero"]),
            Ok(Command::Run(a)) if a.scenario == StandardScenario::ZeroFlow
        ));
        assert!(matches!(
            parse(&["run", "--protocol", "802.11"]),
            Ok(Command::Run(a)) if a.protocol == Protocol::Dot11
        ));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["run", "--scenario", "mars"]).is_err());
        assert!(parse(&["run", "--pm"]).is_err(), "missing value");
        assert!(parse(&["run", "--pm", "abc"]).is_err());
        assert!(parse(&["run", "--pm", "150"]).is_err(), "out of range");
        assert!(parse(&["sweep", "--step", "0"]).is_err());
        assert!(parse(&["run", "--bogus"]).is_err());
    }

    fn rejects_zero(args: &[&str], flag: &str) {
        let e = parse(args).expect_err("zero is rejected");
        assert_eq!(
            e.to_string(),
            format!("{flag}: expected a positive integer, got 0")
        );
    }

    #[test]
    fn rejects_zero_seconds() {
        rejects_zero(&["run", "--seconds", "0"], "--seconds");
        rejects_zero(&["sweep", "--seconds", "0"], "--seconds");
    }

    #[test]
    fn rejects_zero_senders() {
        rejects_zero(&["run", "--senders", "0"], "--senders");
    }

    #[test]
    fn rejects_zero_seeds() {
        rejects_zero(&["sweep", "--seeds", "0"], "--seeds");
    }

    #[test]
    fn sweep_and_topology_parse() {
        let cmd = parse(&[
            "sweep",
            "--scenario",
            "random",
            "--seeds",
            "2",
            "--step",
            "50",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Sweep(SweepArgs {
                scenario: StandardScenario::Random,
                seconds: 10,
                seeds: 2,
                step: 50.0,
            })
        );
        let cmd = parse(&["topology", "--scenario", "random", "--seed", "5"]).unwrap();
        assert_eq!(
            cmd,
            Command::Topology(TopologyArgs {
                scenario: StandardScenario::Random,
                seed: 5,
            })
        );
    }

    #[test]
    fn usage_mentions_every_command() {
        for word in ["run", "sweep", "topology", "help"] {
            assert!(usage().contains(word), "usage missing {word}");
        }
    }
}

#[cfg(test)]
mod execute_tests {
    use super::*;

    #[test]
    fn execute_run_and_topology_do_not_panic() {
        // Tiny run: 4 senders, 1 second.
        let cmd = parse(&[
            "run",
            "--senders",
            "4",
            "--pm",
            "50",
            "--seconds",
            "1",
            "--seed",
            "3",
        ])
        .unwrap();
        execute(&cmd);
        let cmd = parse(&["topology", "--scenario", "random", "--seed", "2"]).unwrap();
        execute(&cmd);
        execute(&Command::Help);
    }

    #[test]
    fn execute_basic_access_run() {
        let cmd = parse(&["run", "--senders", "2", "--seconds", "1", "--basic"]).unwrap();
        execute(&cmd);
    }

    #[test]
    fn execute_sweep_small() {
        let cmd = parse(&["sweep", "--step", "100", "--seeds", "1", "--seconds", "1"]).unwrap();
        execute(&cmd);
    }
}
