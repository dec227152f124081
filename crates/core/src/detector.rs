//! Pluggable receiver-side detection: the [`DeviationDetector`] trait
//! and its three implementations.
//!
//! The paper's diagnosis scheme — a sliding window of signed backoff
//! diffs crossing `THRESH` — is one point in a design space. ROADMAP
//! item 4 abstracts the per-sender verdict state behind a trait so
//! alternative detectors can be swapped in per scenario and compared
//! head-to-head (`airguard-bench --figure detector_duel`):
//!
//! * [`WindowDetector`] — the paper's §4 window diagnosis, byte-identical
//!   to the pre-trait monitor (including the adaptive `noise_ema`
//!   threshold, which stays monitor-global and is passed in as
//!   `effective_thresh`).
//! * [`SequentialDetector`] — CUSUM sequential hypothesis testing over
//!   per-exchange deviation slots (Cao et al., 802.11e): a one-sided
//!   cumulative score `S ← max(0, S + D − drift)` that crosses its
//!   threshold faster than a fixed window at the same false-positive
//!   rate, and resets on diagnosis.
//! * [`CwEstimationDetector`] — contention-window estimation: scale
//!   the protocol CWmin by the ratio of observed to expected idle
//!   slots to estimate the sender's *effective* CW, and flag senders
//!   whose estimate sits below a fraction of CWmin.
//!
//! Detector selection is a [`DetectorConfig`], carried by
//! `ScenarioConfig` (entering the config digest only when non-default,
//! so every historical cache key and golden digest is preserved) and
//! threaded through `CorrectPolicy` into each [`crate::Monitor`].

use airguard_mac::BackoffObservation;

use crate::diagnosis::{DiagnosisConfig, DiagnosisWindow};

/// One classification decision from a detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorVerdict {
    /// The detector's decision statistic at this packet: the window sum
    /// for [`WindowDetector`], the CUSUM score for
    /// [`SequentialDetector`] (pre-reset when it just flagged), the CW
    /// estimate for [`CwEstimationDetector`].
    pub statistic: f64,
    /// Whether this packet is classified as coming from a misbehaving
    /// sender.
    pub flagged: bool,
}

/// Per-sender deviation detection state.
///
/// One boxed detector lives inside each sender record of a
/// [`crate::Monitor`]; the monitor calls [`observe`] once per delivered
/// DATA packet, handing over the backoff measurement taken at that
/// exchange's RTS (or `None` when the exchange had no measurable
/// backoff — the sender's first-ever exchange, or a reboot-cleared
/// baseline).
///
/// `Send` is required because spatially-sharded runs move whole
/// `Simulation`s (and therefore monitors) across worker threads;
/// `Debug` keeps monitor state inspectable in test failures.
///
/// [`observe`]: DeviationDetector::observe
pub trait DeviationDetector: std::fmt::Debug + Send {
    /// Classifies one delivered packet.
    ///
    /// `effective_thresh` is the monitor's current diagnosis threshold
    /// — the static `THRESH`, or the adaptive noise-scaled maximum when
    /// the adaptive extension is on. Only [`WindowDetector`] consults
    /// it; the other detectors carry their own thresholds.
    fn observe(
        &mut self,
        obs: Option<&BackoffObservation>,
        effective_thresh: f64,
    ) -> DetectorVerdict;

    /// The current decision statistic, without consuming a packet
    /// (snapshot hook for reports and debugging).
    fn statistic(&self) -> f64;

    /// The detector's complete internal state as explicit data.
    ///
    /// Every field that influences future verdicts must be captured:
    /// [`DetectorConfig::build_from_state`] on the export must yield a
    /// detector indistinguishable from the original. This is the
    /// contract both crash-preservation (`preserve_monitor`) and the
    /// live service's checkpoints rest on.
    fn export_state(&self) -> DetectorState;
}

/// The serializable internal state of one per-sender detector.
///
/// One variant per implementation, carrying exactly the fields a
/// restart must not lose: the window's sliding diffs, the CUSUM score,
/// the CW-estimation ratio accumulators. Parameters are *not* included
/// — they come from the [`DetectorConfig`] the restored detector is
/// rebuilt under, so a state can never smuggle in foreign thresholds.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorState {
    /// [`WindowDetector`]: the held `B_exp − B_act` diffs, oldest first.
    Window {
        /// Sliding-window contents (≤ `W` entries).
        diffs: Vec<f64>,
    },
    /// [`SequentialDetector`]: the one-sided cumulative score.
    Cusum {
        /// The current CUSUM score `S`.
        score: f64,
    },
    /// [`CwEstimationDetector`]: the ratio-estimator accumulators.
    Cw {
        /// Accumulated expected idle slots `Σ B_exp`.
        assigned_sum: f64,
        /// Accumulated observed idle slots `Σ B_act`.
        observed_sum: f64,
        /// Observations folded into the sums.
        samples: u64,
    },
}

impl DetectorState {
    /// The detector kind this state belongs to (`window`/`cusum`/`cw`),
    /// matching [`DetectorConfig::kind`].
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            DetectorState::Window { .. } => "window",
            DetectorState::Cusum { .. } => "cusum",
            DetectorState::Cw { .. } => "cw",
        }
    }
}

/// Parameters of the [`SequentialDetector`] (CUSUM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialConfig {
    /// Per-packet drift subtracted from the score: the expected
    /// deviation under honest behavior plus a noise allowance, so the
    /// score only accumulates under sustained cheating.
    pub drift: f64,
    /// Score level that triggers a diagnosis (and resets the score).
    pub threshold: f64,
}

impl SequentialConfig {
    /// Defaults tuned against the paper's operating point: drift 2
    /// slots absorbs channel noise (the window scheme tolerates 4
    /// slots/packet = THRESH/W); threshold 30 puts the zero-deviation
    /// false-positive rate at the window scheme's level while a full
    /// cheater (D ≈ 15 slots/packet) crosses in ~3 packets.
    #[must_use]
    pub fn paper_default() -> Self {
        SequentialConfig {
            drift: 2.0,
            threshold: 30.0,
        }
    }

    /// The digest fragment naming every knob — any field added here
    /// must appear, or distinct configs alias the same cache cell
    /// (enforced by the `digest-completeness` lint).
    #[must_use]
    pub fn identity(&self) -> String {
        format!("cusum:drift={};threshold={}", self.drift, self.threshold)
    }
}

impl Default for SequentialConfig {
    fn default() -> Self {
        SequentialConfig::paper_default()
    }
}

/// Parameters of the [`CwEstimationDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CwEstimationConfig {
    /// Observations required before the estimate is trusted; below
    /// this the detector never flags.
    pub min_samples: u64,
    /// Flag when the CW estimate falls below `fraction · cw_min`.
    pub fraction: f64,
    /// The protocol CWmin the estimate is compared against, in slots.
    pub cw_min: u32,
}

impl CwEstimationConfig {
    /// Defaults for 802.11-1999 DSSS (CWmin = 31): 20 samples washes
    /// out per-exchange channel noise in the ratio estimator, and the
    /// 0.8 acceptance fraction leaves a wide margin against false
    /// positives (honest ratios sit at or above 1) while a PM ≥ 30
    /// cheater (estimate ≤ 0.7 · CWmin) stays below it.
    #[must_use]
    pub fn paper_default() -> Self {
        CwEstimationConfig {
            min_samples: 20,
            fraction: 0.8,
            cw_min: 31,
        }
    }

    /// The digest fragment naming every knob (see
    /// [`SequentialConfig::identity`]).
    #[must_use]
    pub fn identity(&self) -> String {
        format!(
            "cw:min_samples={};fraction={};cw_min={}",
            self.min_samples, self.fraction, self.cw_min
        )
    }
}

impl Default for CwEstimationConfig {
    fn default() -> Self {
        CwEstimationConfig::paper_default()
    }
}

/// Which detector a scenario's monitors run, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DetectorConfig {
    /// The paper's window diagnosis (parameters live in
    /// [`DiagnosisConfig`], as before the trait existed).
    #[default]
    Window,
    /// CUSUM sequential detection.
    Sequential(SequentialConfig),
    /// Contention-window estimation.
    CwEstimation(CwEstimationConfig),
}

impl DetectorConfig {
    /// Short stable name: `window`, `cusum`, or `cw`. Used for CLI
    /// selection, figure axes, and per-detector histogram names.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            DetectorConfig::Window => "window",
            DetectorConfig::Sequential(_) => "cusum",
            DetectorConfig::CwEstimation(_) => "cw",
        }
    }

    /// Parses a detector name into its default-parameter config.
    ///
    /// # Errors
    ///
    /// Rejects anything but the three known names, listing them — the
    /// CLI/env contract is "malformed values fail loudly, never
    /// silently default".
    pub fn from_kind(name: &str) -> Result<Self, String> {
        match name {
            "window" => Ok(DetectorConfig::Window),
            "cusum" => Ok(DetectorConfig::Sequential(SequentialConfig::default())),
            "cw" => Ok(DetectorConfig::CwEstimation(CwEstimationConfig::default())),
            other => Err(format!(
                "unknown detector `{other}` (expected window, cusum, or cw)"
            )),
        }
    }

    /// The scenario-identity fragment, or `None` for the default
    /// window detector.
    ///
    /// `None` keeps every pre-trait config digest byte-identical:
    /// the scenario layer appends `|detector=...` only when this is
    /// `Some`, mirroring the `observe_mask`/`spatial` pattern.
    #[must_use]
    pub fn identity_fragment(&self) -> Option<String> {
        match self {
            DetectorConfig::Window => None,
            DetectorConfig::Sequential(c) => Some(c.identity()),
            DetectorConfig::CwEstimation(c) => Some(c.identity()),
        }
    }

    /// Builds a fresh per-sender detector instance.
    #[must_use]
    pub fn build(&self, diagnosis: DiagnosisConfig) -> Box<dyn DeviationDetector> {
        match self {
            DetectorConfig::Window => Box::new(WindowDetector::new(diagnosis)),
            DetectorConfig::Sequential(c) => Box::new(SequentialDetector::new(*c)),
            DetectorConfig::CwEstimation(c) => Box::new(CwEstimationDetector::new(*c)),
        }
    }

    /// Rebuilds a detector from previously exported state, under this
    /// config's parameters.
    ///
    /// The restored instance is behaviorally indistinguishable from
    /// the one that exported the state (the golden-digest suite pins
    /// this: `preserve_monitor` crash resets round-trip every detector
    /// through its state).
    ///
    /// # Errors
    ///
    /// Rejects a state whose kind does not match this config — a
    /// checkpoint taken under one detector cannot silently seed
    /// another.
    pub fn build_from_state(
        &self,
        diagnosis: DiagnosisConfig,
        state: &DetectorState,
    ) -> Result<Box<dyn DeviationDetector>, String> {
        match (self, state) {
            (DetectorConfig::Window, DetectorState::Window { diffs }) => {
                Ok(Box::new(WindowDetector {
                    window: DiagnosisWindow::restore(diagnosis, diffs),
                }))
            }
            (DetectorConfig::Sequential(c), DetectorState::Cusum { score }) => {
                let mut det = SequentialDetector::new(*c);
                det.score = score.max(0.0);
                Ok(Box::new(det))
            }
            (
                DetectorConfig::CwEstimation(c),
                DetectorState::Cw {
                    assigned_sum,
                    observed_sum,
                    samples,
                },
            ) => {
                let mut det = CwEstimationDetector::new(*c);
                det.assigned_sum = *assigned_sum;
                det.observed_sum = *observed_sum;
                det.samples = *samples;
                Ok(Box::new(det))
            }
            (cfg, state) => Err(format!(
                "detector state kind `{}` does not match configured detector `{}`",
                state.kind(),
                cfg.kind()
            )),
        }
    }
}

/// The paper's §4 window diagnosis behind the trait: push each
/// measured `B_exp − B_act` diff, flag while the window sum exceeds
/// the effective threshold.
#[derive(Debug)]
pub struct WindowDetector {
    window: DiagnosisWindow,
}

impl WindowDetector {
    /// Creates a window detector with the given W/THRESH parameters.
    #[must_use]
    pub fn new(diagnosis: DiagnosisConfig) -> Self {
        WindowDetector {
            window: DiagnosisWindow::new(diagnosis),
        }
    }
}

impl DeviationDetector for WindowDetector {
    fn observe(
        &mut self,
        obs: Option<&BackoffObservation>,
        effective_thresh: f64,
    ) -> DetectorVerdict {
        if let Some(o) = obs {
            self.window.push(o.assigned_slots - o.observed_slots);
        }
        let statistic = self.window.sum();
        DetectorVerdict {
            statistic,
            flagged: statistic > effective_thresh,
        }
    }

    fn statistic(&self) -> f64 {
        self.window.sum()
    }

    fn export_state(&self) -> DetectorState {
        DetectorState::Window {
            diffs: self.window.diffs(),
        }
    }
}

/// CUSUM sequential detection over per-exchange deviation slots.
///
/// The one-sided cumulative score `S ← max(0, S + D − drift)` stays
/// near zero under honest behavior (D = 0 almost always, and `drift`
/// absorbs noise-induced deviations) and climbs at `≈ D − drift` per
/// packet under sustained cheating. Crossing `threshold` flags the
/// packet and resets the score — each diagnosis is a fresh detection,
/// so a sender that reforms stops being flagged after one window of
/// honest behavior rather than staying tainted by history.
#[derive(Debug)]
pub struct SequentialDetector {
    cfg: SequentialConfig,
    score: f64,
}

impl SequentialDetector {
    /// Creates a CUSUM detector with the given drift/threshold.
    #[must_use]
    pub fn new(cfg: SequentialConfig) -> Self {
        SequentialDetector { cfg, score: 0.0 }
    }
}

impl DeviationDetector for SequentialDetector {
    fn observe(
        &mut self,
        obs: Option<&BackoffObservation>,
        _effective_thresh: f64,
    ) -> DetectorVerdict {
        if let Some(o) = obs {
            self.score = (self.score + o.deviation_slots - self.cfg.drift).max(0.0);
        }
        let statistic = self.score;
        let flagged = statistic > self.cfg.threshold;
        if flagged {
            // Reset on diagnosis: the crossing is reported (statistic is
            // the pre-reset score) and the test restarts.
            self.score = 0.0;
        }
        DetectorVerdict { statistic, flagged }
    }

    fn statistic(&self) -> f64 {
        self.score
    }

    fn export_state(&self) -> DetectorState {
        DetectorState::Cusum { score: self.score }
    }
}

/// Contention-window estimation from observed idle-slot counts.
///
/// A sender honouring its backoff idles exactly as many slots as it
/// was expected to, so the ratio of accumulated observed to expected
/// idle slots scales the protocol CWmin into the sender's *effective*
/// contention window: `CW_eff = cw_min · Σ B_act / Σ B_exp`. A
/// PM-cheater waits only `(1 − PM)` of each wait it owes — including
/// any penalty inflation, which is why the estimate is normalized by
/// `B_exp` rather than read from absolute idle time (the correction
/// scheme's penalties would otherwise pull a punished cheater's idle
/// counts back up to honest levels and hide it). Once `min_samples`
/// observations are in, any estimate below `fraction · cw_min` flags
/// the sender. Retries and queue idle time only inflate observed
/// slots, so the bias runs *against* false positives.
#[derive(Debug)]
pub struct CwEstimationDetector {
    cfg: CwEstimationConfig,
    assigned_sum: f64,
    observed_sum: f64,
    samples: u64,
}

impl CwEstimationDetector {
    /// Creates a CW-estimation detector with the given parameters.
    #[must_use]
    pub fn new(cfg: CwEstimationConfig) -> Self {
        CwEstimationDetector {
            cfg,
            assigned_sum: 0.0,
            observed_sum: 0.0,
            samples: 0,
        }
    }

    /// The current effective-CW estimate
    /// (`cw_min · Σ observed / Σ expected`), or zero before any
    /// observation.
    #[must_use]
    pub fn cw_estimate(&self) -> f64 {
        if self.samples == 0 || self.assigned_sum <= 0.0 {
            0.0
        } else {
            f64::from(self.cfg.cw_min) * self.observed_sum / self.assigned_sum
        }
    }
}

impl DeviationDetector for CwEstimationDetector {
    fn observe(
        &mut self,
        obs: Option<&BackoffObservation>,
        _effective_thresh: f64,
    ) -> DetectorVerdict {
        if let Some(o) = obs {
            self.assigned_sum += o.assigned_slots;
            self.observed_sum += o.observed_slots;
            self.samples += 1;
        }
        let statistic = self.cw_estimate();
        let flagged = self.samples >= self.cfg.min_samples
            && statistic < self.cfg.fraction * f64::from(self.cfg.cw_min);
        DetectorVerdict { statistic, flagged }
    }

    fn statistic(&self) -> f64 {
        self.cw_estimate()
    }

    fn export_state(&self) -> DetectorState {
        DetectorState::Cw {
            assigned_sum: self.assigned_sum,
            observed_sum: self.observed_sum,
            samples: self.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(assigned: f64, observed: f64, deviation: f64) -> BackoffObservation {
        BackoffObservation {
            assigned_slots: assigned,
            observed_slots: observed,
            deviation_slots: deviation,
            penalty_slots: 0.0,
        }
    }

    #[test]
    fn window_detector_matches_the_raw_diagnosis_window() {
        let cfg = DiagnosisConfig::paper_default();
        let mut det = WindowDetector::new(cfg);
        let mut window = DiagnosisWindow::new(cfg);
        for (b_exp, b_act) in [(30.0, 5.0), (25.0, 0.0), (20.0, 20.0), (28.0, 3.0)] {
            let v = det.observe(Some(&obs(b_exp, b_act, 0.0)), cfg.thresh);
            window.push(b_exp - b_act);
            assert_eq!(v.statistic, window.sum());
            assert_eq!(v.flagged, window.is_flagged());
        }
        // Packets without a measurement re-evaluate the unchanged sum.
        let v = det.observe(None, cfg.thresh);
        assert_eq!(v.statistic, window.sum());
        assert_eq!(v.flagged, window.is_flagged());
    }

    #[test]
    fn cusum_accumulates_deviation_above_drift_and_resets_on_flag() {
        let cfg = SequentialConfig {
            drift: 2.0,
            threshold: 10.0,
        };
        let mut det = SequentialDetector::new(cfg);
        // Honest noise below the drift never accumulates.
        for _ in 0..10 {
            let v = det.observe(Some(&obs(30.0, 29.0, 1.0)), 0.0);
            assert!(!v.flagged);
            assert_eq!(v.statistic, 0.0);
        }
        // Sustained cheating at D = 7: score climbs 5/packet, crosses
        // 10 on the third packet, and the post-flag score restarts.
        let mut flagged_at = None;
        for i in 0..5 {
            let v = det.observe(Some(&obs(30.0, 5.0, 7.0)), 0.0);
            if v.flagged {
                flagged_at = Some((i, v.statistic));
                break;
            }
        }
        let (at, score) = flagged_at.expect("cusum must flag a sustained cheater");
        assert_eq!(at, 2, "score 5,10,15 crosses on the third packet");
        assert_eq!(score, 15.0, "the pre-reset score is reported");
        assert_eq!(det.statistic(), 0.0, "diagnosis resets the score");
    }

    #[test]
    fn cusum_ignores_packets_without_a_measurement() {
        let mut det = SequentialDetector::new(SequentialConfig::paper_default());
        det.observe(Some(&obs(30.0, 0.0, 10.0)), 0.0);
        let before = det.statistic();
        let v = det.observe(None, 0.0);
        assert_eq!(v.statistic, before);
        assert_eq!(det.statistic(), before);
    }

    #[test]
    fn cw_estimation_flags_a_shrunk_contention_window() {
        let cfg = CwEstimationConfig::paper_default();
        let mut det = CwEstimationDetector::new(cfg);
        // Honest sender: observed idle ≈ CWmin/2 per access.
        for _ in 0..40 {
            let v = det.observe(Some(&obs(15.5, 15.5, 0.0)), 0.0);
            assert!(!v.flagged, "honest estimate {} flagged", v.statistic);
        }
        assert!((det.cw_estimate() - 31.0).abs() < 1e-9);

        // PM=50 cheater: waits half the assignment.
        let mut det = CwEstimationDetector::new(cfg);
        for i in 0..40 {
            let v = det.observe(Some(&obs(15.5, 7.75, 7.75)), 0.0);
            assert_eq!(
                v.flagged,
                u64::try_from(i + 1).expect("small") >= cfg.min_samples,
                "flag exactly once min_samples is reached (i = {i})"
            );
        }
        assert!((det.cw_estimate() - 15.5).abs() < 1e-9);
    }

    #[test]
    fn cw_estimation_withholds_judgement_below_min_samples() {
        let cfg = CwEstimationConfig {
            min_samples: 5,
            fraction: 0.8,
            cw_min: 31,
        };
        let mut det = CwEstimationDetector::new(cfg);
        for i in 0..4 {
            let v = det.observe(Some(&obs(15.5, 0.0, 15.5)), 0.0);
            assert!(!v.flagged, "flagged at sample {i} before min_samples");
        }
        let v = det.observe(Some(&obs(15.5, 0.0, 15.5)), 0.0);
        assert!(v.flagged, "a zero-wait sender must flag at min_samples");
    }

    #[test]
    fn detector_config_kind_round_trips() {
        for kind in ["window", "cusum", "cw"] {
            let cfg = DetectorConfig::from_kind(kind).expect("known kind");
            assert_eq!(cfg.kind(), kind);
        }
        let err = DetectorConfig::from_kind("wnidow").expect_err("typo must be rejected");
        assert!(
            err.contains("window, cusum, or cw"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn only_the_default_detector_hides_from_the_identity() {
        assert_eq!(DetectorConfig::Window.identity_fragment(), None);
        let cusum = DetectorConfig::from_kind("cusum").expect("known");
        assert_eq!(
            cusum.identity_fragment().expect("non-default"),
            "cusum:drift=2;threshold=30"
        );
        let cw = DetectorConfig::from_kind("cw").expect("known");
        assert_eq!(
            cw.identity_fragment().expect("non-default"),
            "cw:min_samples=20;fraction=0.8;cw_min=31"
        );
    }

    #[test]
    fn exported_state_round_trips_every_detector() {
        let diag = DiagnosisConfig::paper_default();
        for kind in ["window", "cusum", "cw"] {
            let cfg = DetectorConfig::from_kind(kind).expect("known kind");
            let mut det = cfg.build(diag);
            for _ in 0..7 {
                det.observe(Some(&obs(30.0, 5.0, 7.0)), diag.thresh);
            }
            let state = det.export_state();
            assert_eq!(state.kind(), kind);
            let mut restored = cfg.build_from_state(diag, &state).expect("matching kind");
            assert_eq!(restored.statistic(), det.statistic());
            // Future verdicts agree too: the restored detector is
            // behaviorally the same machine, not just the same number.
            for measured in [Some(obs(30.0, 5.0, 7.0)), None, Some(obs(20.0, 20.0, 0.0))] {
                let a = det.observe(measured.as_ref(), diag.thresh);
                let b = restored.observe(measured.as_ref(), diag.thresh);
                assert_eq!(a, b, "{kind} diverged after restore");
            }
        }
    }

    #[test]
    fn mismatched_state_kinds_are_rejected() {
        let diag = DiagnosisConfig::paper_default();
        let cusum_state = DetectorState::Cusum { score: 3.0 };
        let err = DetectorConfig::Window
            .build_from_state(diag, &cusum_state)
            .expect_err("kind mismatch must fail");
        assert!(err.contains("cusum") && err.contains("window"), "{err}");
    }

    #[test]
    fn restored_cusum_score_is_clamped_non_negative() {
        let cfg = DetectorConfig::from_kind("cusum").expect("known");
        let diag = DiagnosisConfig::paper_default();
        let det = cfg
            .build_from_state(diag, &DetectorState::Cusum { score: -4.0 })
            .expect("matching kind");
        assert_eq!(det.statistic(), 0.0, "a corrupt negative score is clamped");
    }

    #[test]
    fn build_produces_the_matching_impl() {
        let diag = DiagnosisConfig::paper_default();
        for (kind, expect_fragment) in [("window", None), ("cusum", Some(())), ("cw", Some(()))] {
            let cfg = DetectorConfig::from_kind(kind).expect("known kind");
            let mut det = cfg.build(diag);
            // Smoke: a built detector classifies without panicking and
            // starts unflagged.
            let v = det.observe(None, diag.thresh);
            assert!(!v.flagged, "{kind} must start unflagged");
            assert_eq!(cfg.identity_fragment().map(|_| ()), expect_fragment);
        }
    }
}
