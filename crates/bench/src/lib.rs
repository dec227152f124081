//! Shared harness for regenerating every table and figure of the paper.
//!
//! The heavy lifting — sweep scheduling, work-stealing execution,
//! result caching, deterministic collection — lives in `airguard-exp`.
//! This crate contributes the paper-specific layer:
//!
//! * [`figures`] — one declarative [`airguard_exp::Experiment`]
//!   registration per published figure/table/ablation;
//! * [`cli`] — the unified `airguard-bench` command line
//!   (`--figure fig4 --seeds 30 --secs 50 --jsonl --no-cache --list`),
//!   the one binary that regenerates any figure.
//!
//! The paper runs 30 seeds × 50 s; both are overridable with
//! `--seeds`/`--secs` or the `AIRGUARD_SEEDS`/`AIRGUARD_SECS`
//! environment variables (malformed values are rejected, not silently
//! defaulted).

#![forbid(unsafe_code)]

pub mod cli;
pub mod figures;

pub use airguard_exp::{f2, kbps, run_seeds, write_report_jsonl, Table};
use airguard_net::RunReport;

/// The paper's seed-set size (§5: averages over 30 runs).
pub const PAPER_SEEDS: u64 = 30;

/// The paper's simulated seconds per run.
pub const PAPER_SECS: u64 = 50;

/// The paper's PM sweep: 0 %, 10 %, …, 100 %.
#[must_use]
pub fn pm_sweep() -> Vec<f64> {
    (0..=10).map(|i| f64::from(i) * 10.0).collect()
}

/// Mean of `metric` over a set of run reports.
#[must_use]
pub fn mean_of(reports: &[RunReport], metric: impl Fn(&RunReport) -> f64) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().map(metric).sum::<f64>() / reports.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use airguard_net::{Protocol, ScenarioConfig, StandardScenario};

    #[test]
    fn pm_sweep_covers_0_to_100() {
        let s = pm_sweep();
        assert_eq!(s.len(), 11);
        assert_eq!(s[0], 0.0);
        assert_eq!(s[10], 100.0);
    }

    #[test]
    fn run_seeds_returns_one_report_per_seed() {
        let cfg = ScenarioConfig::new(StandardScenario::ZeroFlow)
            .protocol(Protocol::Dot11)
            .n_senders(2)
            .sim_time_secs(1);
        let reports = run_seeds(&cfg, &[1, 2, 3], 0).expect("no cell failed");
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.throughput.total_bytes() > 0));
    }

    #[test]
    fn every_figure_is_registered_once() {
        let names: Vec<&str> = figures::all().iter().map(|e| e.name).collect();
        assert_eq!(
            names.len(),
            18,
            "15 published figures/ablations + chaos + detection_latency + detector_duel"
        );
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names are unique");
        for name in names {
            assert!(figures::find(name).is_some());
        }
        assert!(figures::find("no_such_figure").is_none());
    }
}
