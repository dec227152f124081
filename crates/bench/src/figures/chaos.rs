//! Chaos grid: fault-injection intensity × misbehavior coefficient.
//!
//! The paper's robustness claim (§5.2) is that diagnosis stays accurate
//! under an imperfect channel. This grid probes the claim far past the
//! paper's shadowing model: every `airguard-fault` injector at once —
//! Gilbert–Elliott burst loss, node churn, control-frame corruption,
//! receiver clock drift — scaled by a single intensity knob and crossed
//! with the misbehavior coefficient. The `pm=0` rows are the
//! false-positive axis: every diagnosis there is a misdiagnosis by
//! construction, so `misdiag%` at `pm=0` *is* the false-positive
//! diagnosis rate per fault intensity.
//!
//! The `intensity=0` column builds a complete but all-zero `FaultPlan`:
//! [`FaultPlan::normalized`] collapses it to no plan at all, so those
//! cells share config digests (and cache entries, and bytes) with the
//! unfaulted baseline — the zero-cost guarantee of DESIGN.md §12.

use airguard_exp::{f2, kbps, metric, Axes, Experiment, ExperimentResult, Figure, Rendered, Table};
use airguard_net::{
    BurstLoss, ClockDrift, Corruption, CrashEvent, FaultPlan, Protocol, ScenarioConfig,
    StandardScenario,
};
use airguard_sim::SimDuration;

/// Fault intensity as a percentage of the full-chaos operating point.
const INTENSITIES: [u16; 4] = [0, 25, 50, 100];
const PMS: [f64; 3] = [0.0, 50.0, 90.0];

/// The composite fault plan at one intensity. All four injectors scale
/// together; at zero everything is a no-op and the plan normalizes
/// away entirely. Shared with the `detection_latency` grid so both
/// figures probe the same chaos operating points.
pub(crate) fn plan(intensity: u16) -> FaultPlan {
    let f = f64::from(intensity) / 100.0;
    let churn = if intensity == 0 {
        Vec::new()
    } else {
        vec![CrashEvent {
            // Node 1 is always a sender in the ZERO-FLOW circle; it
            // reboots mid-run with an outage that grows with intensity.
            node: 1,
            at: SimDuration::from_secs(1),
            down_for: SimDuration::from_micros(u64::from(intensity) * 20_000),
            // Full chaos also loses the stable storage holding the
            // monitor tables (a cold reboot).
            preserve_monitor: intensity < 100,
        }]
    };
    FaultPlan {
        burst_loss: Some(BurstLoss {
            p_enter: 0.02 * f,
            p_exit: 0.25,
            loss_good: 0.005 * f,
            loss_bad: 0.4 * f,
        }),
        churn,
        corruption: Some(Corruption {
            backoff_prob: 0.03 * f,
            backoff_max_delta: 8,
            attempt_prob: 0.03 * f,
            attempt_max_delta: 2,
        }),
        clock_drift: Some(ClockDrift {
            per_mille: i32::from(intensity) / 5,
            nodes: Vec::new(),
        }),
    }
}

fn axes(intensity: u16, pm: f64) -> Axes {
    Axes::new()
        .with("fault", intensity)
        .with("pm", format!("{pm:.0}"))
}

/// The chaos grid experiment.
#[must_use]
pub fn experiment() -> Experiment {
    let mut e = Experiment::new(
        "chaos",
        "Chaos grid: fault intensity x misbehavior (ZERO-FLOW)",
    );
    e.render = render;
    for intensity in INTENSITIES {
        for pm in PMS {
            let cfg = ScenarioConfig::new(StandardScenario::ZeroFlow)
                .protocol(Protocol::Correct)
                .misbehavior_percent(pm)
                .fault(plan(intensity))
                .expect("chaos plans target node 1 of the standard topology with in-range probabilities"); // lint:allow(panic-expect) — registration-time config bug, not a runtime path
            e.push(&axes(intensity, pm), cfg);
        }
    }
    e
}

fn render(r: &ExperimentResult) -> Rendered {
    let mut t = Table::new(
        "Chaos grid: fault intensity x misbehavior (ZERO-FLOW)",
        &["fault%", "PM%", "correct%", "misdiag%", "MSB Kbps"],
    );
    for intensity in INTENSITIES {
        for pm in PMS {
            let a = axes(intensity, pm);
            t.row(&[
                format!("{intensity}"),
                format!("{pm:.0}"),
                f2(r.mean(&a, metric::CORRECT_PCT)),
                f2(r.mean(&a, metric::MISDIAG_PCT)),
                kbps(r.mean(&a, metric::MSB_BPS)),
            ]);
        }
    }
    Rendered {
        figures: vec![Figure {
            name: "chaos".into(),
            table: t,
        }],
        notes: vec![
            "misdiag% on the PM=0 rows is the false-positive diagnosis rate: every \
             sender is honest there, so any flagged node was flagged by injected \
             faults alone."
                .to_owned(),
        ],
    }
}
