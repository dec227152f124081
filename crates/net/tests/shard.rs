//! Sharded spatial runs: worker-count byte-identity and equivalence to
//! the monolithic spatial simulation.
//!
//! Two separate claims, tested separately:
//!
//! 1. **Worker-count identity** — a sharded run's `RunSummary` JSON and
//!    its full event stream as JSONL (every typed field, `xid` and
//!    window sums included) are byte-identical at 1, 2, 4, and 8
//!    workers. The
//!    decomposition never looks at the worker count and the merge is in
//!    component order, so this must hold bit-for-bit.
//! 2. **Sharded = monolithic** — the merged summary equals the summary
//!    of one monolithic spatial `Simulation` over the whole topology.
//!    Spatial sampling keys every draw by the global (tx, rx) pair, so
//!    out-of-range components cannot perturb each other. (Trace bytes
//!    are excluded from this claim: cross-component events with equal
//!    timestamps interleave differently in one scheduler than in the
//!    component-ordered merge.)

use airguard_core::CorrectConfig;
use airguard_fault::{ClockDrift, CrashEvent, FaultPlan};
use airguard_mac::Selfish;
use airguard_net::{NodePolicy, Protocol, RunReport, ScenarioConfig, Simulation, StandardScenario};
use airguard_obs::records_to_jsonl;
use airguard_sim::{NodeId, SimDuration};

/// A campus scenario small enough for a test, big enough to decompose:
/// clusters sit 3 km apart, far beyond the ~1.1 km interference cutoff.
fn campus(workers: usize) -> ScenarioConfig {
    ScenarioConfig::new(StandardScenario::Campus)
        .protocol(Protocol::Correct)
        .misbehavior_percent(50.0)
        .random_nodes(160, 5) // 4 clusters of 40
        .sim_time_secs(1)
        .seed(11)
        .spatial(true)
        .shard_workers(workers)
}

/// The run's report and its full event stream as JSONL.
fn observed(cfg: &ScenarioConfig) -> (RunReport, String) {
    let (report, sink) = cfg.run_observed();
    (report, records_to_jsonl(&sink.records()))
}

#[test]
fn summary_and_trace_are_byte_identical_across_worker_counts() {
    let (baseline_report, baseline_jsonl) = observed(&campus(1));
    let baseline_json = baseline_report.summary.to_json();
    assert!(
        baseline_report.throughput.total_bytes() > 0,
        "campus clusters must carry traffic"
    );
    assert!(!baseline_jsonl.is_empty(), "traced run must capture events");
    for workers in [2, 4, 8] {
        let (report, jsonl) = observed(&campus(workers));
        assert_eq!(
            report.summary.to_json(),
            baseline_json,
            "summary diverged at {workers} workers"
        );
        // Not `assert_eq!`: printing two multi-megabyte streams helps no one.
        assert!(
            jsonl == baseline_jsonl,
            "JSONL diverged at {workers} workers"
        );
    }
}

#[test]
fn sharded_report_matches_monolithic_spatial_run() {
    let cfg = campus(4);
    let sharded = cfg.run();
    // The monolithic reference: one Simulation over the full topology
    // with the same spatial config — no decomposition at all. The
    // policy assignment below mirrors what the scenario builds for
    // Protocol::Correct with a 50% backoff-scale misbehaver set.
    let topology = cfg.build_topology();
    let misbehaving = cfg.misbehaving_set(&topology);
    let policies: Vec<NodePolicy> = (0..topology.node_count())
        .map(|i| {
            let id = NodeId::new(i as u32);
            let strategy = if misbehaving.contains(&id) {
                Selfish::BackoffScale { pm: 50.0 }
            } else {
                Selfish::None
            };
            NodePolicy::correct(id, CorrectConfig::paper_default(), strategy)
        })
        .collect();
    let mono = Simulation::new(
        cfg.simulation_config(),
        topology,
        policies,
        misbehaving.clone(),
    )
    .run();
    assert_eq!(
        sharded.summary.to_json(),
        mono.summary.to_json(),
        "sharded merge must reproduce the monolithic spatial summary"
    );
    assert_eq!(sharded.events, mono.events);
    assert_eq!(sharded.throughput, mono.throughput);
    assert_eq!(sharded.tally, mono.tally);
    assert_eq!(sharded.delays, mono.delays);
    assert_eq!(sharded.counters, mono.counters);
    assert_eq!(sharded.misbehaving, misbehaving);
}

/// Churn in clusters 0 and 2, drift in clusters 1 and 3 — every
/// component both keeps a fault aimed at it and must drop the others'.
fn campus_fault_plan() -> FaultPlan {
    FaultPlan {
        churn: vec![
            CrashEvent {
                node: 10,
                at: SimDuration::from_millis(200),
                down_for: SimDuration::from_millis(300),
                preserve_monitor: false,
            },
            CrashEvent {
                node: 95,
                at: SimDuration::from_millis(400),
                down_for: SimDuration::from_millis(250),
                preserve_monitor: true,
            },
        ],
        clock_drift: Some(ClockDrift {
            per_mille: 20,
            nodes: vec![50, 130],
        }),
        ..FaultPlan::default()
    }
}

#[test]
fn faulted_sharded_run_matches_monolithic_and_worker_counts() {
    // Regression: fault plans were once restricted against a global
    // local-index map, so every component re-applied every churn event
    // to whichever of its nodes happened to share a local rank — or
    // panicked when the rank exceeded the component size. A faulted
    // sharded run must stay byte-identical across worker counts *and*
    // equal to the monolithic spatial run of the same plan.
    let faulted = |workers| {
        campus(workers)
            .fault(campus_fault_plan())
            .expect("plan targets valid nodes")
    };
    let sharded = faulted(1).run();
    assert!(
        sharded.throughput.total_bytes() > 0,
        "faulted campus still carries traffic"
    );
    for workers in [2, 4] {
        assert_eq!(
            faulted(workers).run().summary.to_json(),
            sharded.summary.to_json(),
            "faulted summary diverged at {workers} workers"
        );
    }
    let cfg = faulted(4);
    let topology = cfg.build_topology();
    let misbehaving = cfg.misbehaving_set(&topology);
    let policies: Vec<NodePolicy> = (0..topology.node_count())
        .map(|i| {
            let id = NodeId::new(i as u32);
            let strategy = if misbehaving.contains(&id) {
                Selfish::BackoffScale { pm: 50.0 }
            } else {
                Selfish::None
            };
            NodePolicy::correct(id, CorrectConfig::paper_default(), strategy)
        })
        .collect();
    let mono = Simulation::new(
        cfg.simulation_config(),
        topology,
        policies,
        misbehaving.clone(),
    )
    .run();
    assert_eq!(
        sharded.summary.to_json(),
        mono.summary.to_json(),
        "faulted sharded merge must reproduce the monolithic spatial summary"
    );
    assert_eq!(sharded.events, mono.events);
    assert_eq!(sharded.throughput, mono.throughput);
    assert_eq!(sharded.counters, mono.counters);
}

#[test]
fn sharded_runs_honor_the_detector_choice_at_any_worker_count() {
    // Swapping the deviation detector moves boxed per-sender state
    // across the shard worker threads; the decomposition and merge must
    // stay byte-identical, and the choice must actually take effect.
    let cusum = |workers: usize| {
        campus(workers)
            .detector(airguard_core::DetectorConfig::from_kind("cusum").expect("known detector"))
    };
    let baseline = cusum(1).run();
    let baseline_json = baseline.summary.to_json();
    for workers in [2, 4, 8] {
        assert_eq!(
            cusum(workers).run().summary.to_json(),
            baseline_json,
            "cusum sharded summary diverged at {workers} workers"
        );
    }
    // The detector is not cosmetic: the cusum campus run forks both the
    // cache digest and the simulated outcome from the window default.
    let window = campus(1).run();
    assert_ne!(cusum(1).config_digest(), campus(1).config_digest());
    assert_ne!(
        baseline_json,
        window.summary.to_json(),
        "cusum must classify the campus cheaters differently"
    );
}

#[test]
fn non_spatial_runs_are_untouched_by_the_shard_knobs() {
    // The worker knob must be inert off the spatial path: the classic
    // monolithic runner handles the scenario and any worker count is
    // byte-identical to the default.
    let base = ScenarioConfig::new(StandardScenario::ZeroFlow)
        .n_senders(2)
        .sim_time_secs(1)
        .seed(3);
    let plain = base.run();
    let with_workers = base.clone().shard_workers(8).run();
    assert_eq!(plain.summary.to_json(), with_workers.summary.to_json());
    // And the knob never enters the identity.
    assert_eq!(
        base.config_digest(),
        base.clone().shard_workers(8).config_digest()
    );
}
