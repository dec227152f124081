//! Determinism regression: the same seeded scenario, run twice, must
//! produce byte-identical event streams and identical reports.
//!
//! This is the runtime complement to the static rules `airguard-lint`
//! enforces (no wall clocks, no ambient RNG, no hash-ordered iteration
//! in simulation crates): if any nondeterminism slips past the lexical
//! rules — an unseeded source, an order-sensitive container behind a
//! type alias — the JSONL event streams diverge here.

use airguard_net::{
    BurstLoss, ClockDrift, Corruption, CrashEvent, FaultPlan, Protocol, RunReport, ScenarioConfig,
    StandardScenario,
};
use airguard_obs::records_to_jsonl;
use airguard_sim::SimDuration;

/// The run's report and its full event stream as JSONL: every typed
/// field of every record (`xid`, window sums, …), not just its prose.
fn observed(cfg: &ScenarioConfig) -> (RunReport, String) {
    let (report, sink) = cfg.run_observed();
    (report, records_to_jsonl(&sink.records()))
}

fn scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig::new(StandardScenario::TwoFlow)
        .protocol(Protocol::Correct)
        .n_senders(4)
        .misbehavior_percent(50.0)
        .sim_time_secs(2)
        .seed(seed)
}

#[test]
fn same_seed_replays_to_identical_trace_digest() {
    let cfg = scenario(42);
    let (r1, t1) = observed(&cfg);
    let (r2, t2) = observed(&cfg);

    assert!(!t1.is_empty(), "traced run recorded no events");
    assert!(t1 == t2, "JSONL event streams diverged");

    assert_eq!(r1.events, r2.events);
    assert_eq!(r1.throughput.total_bytes(), r2.throughput.total_bytes());
    assert_eq!(r1.tally, r2.tally);
    assert_eq!(r1.counters, r2.counters);
}

#[test]
fn same_seed_replays_to_byte_identical_run_report() {
    // The exported run summary — config digest, counters, histograms —
    // must serialize byte-for-byte identically across replays; this is
    // what makes the JSONL reports diffable between CI runs.
    let cfg = scenario(42);
    let j1 = cfg.run().summary.to_json();
    let j2 = cfg.run().summary.to_json();
    assert_eq!(j1, j2, "run-report snapshots diverged");
    assert!(
        j1.contains("\"counters\":{") && j1.contains("mac.rts_sent"),
        "summary must embed the counter snapshot: {j1}"
    );
}

#[test]
fn every_fault_injector_combination_replays_byte_identically() {
    // The fault layer draws from its own "fault.*" seed streams, so each
    // injector — alone or composed — must leave the run as replayable as
    // the unfaulted baseline: same seed + same plan => byte-identical
    // summary JSON. A zero-intensity plan must normalize away entirely
    // and reproduce the baseline bytes (DESIGN.md §12's zero-cost rule).
    let burst = BurstLoss {
        p_enter: 0.02,
        p_exit: 0.25,
        loss_good: 0.01,
        loss_bad: 0.3,
    };
    let churn = CrashEvent {
        node: 1,
        at: SimDuration::from_millis(500),
        down_for: SimDuration::from_millis(200),
        preserve_monitor: false,
    };
    let corruption = Corruption {
        backoff_prob: 0.02,
        backoff_max_delta: 8,
        attempt_prob: 0.02,
        attempt_max_delta: 2,
    };
    let drift = ClockDrift {
        per_mille: 10,
        nodes: Vec::new(),
    };
    let combos: [(&str, FaultPlan); 5] = [
        (
            "burst-loss only",
            FaultPlan {
                burst_loss: Some(burst),
                ..FaultPlan::default()
            },
        ),
        (
            "churn only",
            FaultPlan {
                churn: vec![churn],
                ..FaultPlan::default()
            },
        ),
        (
            "corruption only",
            FaultPlan {
                corruption: Some(corruption),
                ..FaultPlan::default()
            },
        ),
        (
            "drift only",
            FaultPlan {
                clock_drift: Some(drift.clone()),
                ..FaultPlan::default()
            },
        ),
        (
            "all injectors",
            FaultPlan {
                burst_loss: Some(burst),
                churn: vec![churn],
                corruption: Some(corruption),
                clock_drift: Some(drift),
            },
        ),
    ];

    let baseline = scenario(42).run().summary.to_json();
    for (name, plan) in combos {
        let cfg = scenario(42).fault(plan).expect("valid plan");
        let j1 = cfg.run().summary.to_json();
        let j2 = cfg.run().summary.to_json();
        assert_eq!(j1, j2, "{name}: faulted replay diverged");
        assert_ne!(
            j1, baseline,
            "{name}: injector left no trace on the run at all"
        );
    }

    // A complete but all-zero plan is indistinguishable from no plan.
    let inert = FaultPlan {
        burst_loss: Some(BurstLoss {
            p_enter: 0.0,
            p_exit: 0.25,
            loss_good: 0.0,
            loss_bad: 0.0,
        }),
        churn: Vec::new(),
        corruption: Some(Corruption {
            backoff_prob: 0.0,
            backoff_max_delta: 8,
            attempt_prob: 0.0,
            attempt_max_delta: 2,
        }),
        clock_drift: Some(ClockDrift {
            per_mille: 0,
            nodes: Vec::new(),
        }),
    };
    let zero = scenario(42).fault(inert).expect("inert plan is valid");
    assert_eq!(
        zero.run().summary.to_json(),
        baseline,
        "zero-intensity plan must be byte-identical to the unfaulted baseline"
    );
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the comparison actually discriminates: two
    // seeds giving identical streams would mean the seed is ignored.
    let (_, t1) = observed(&scenario(1));
    let (_, t2) = observed(&scenario(2));
    assert!(t1 != t2, "seed does not influence the run");
}
