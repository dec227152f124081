//! The receiver-side monitor: per-sender bookkeeping for deviation
//! identification, correction, and diagnosis.
//!
//! One [`Monitor`] lives inside each node's [`crate::CorrectPolicy`] and
//! tracks every sender it receives from. The moving parts per sender:
//!
//! * `in_force` — the monitor's belief of the base backoff the sender is
//!   currently using. It is committed from `pending_in_force` when a
//!   *fresh* exchange (attempt 1) begins, because the sender latches
//!   assignments from ACK frames — the last ACK we transmitted is exactly
//!   what the sender is acting on.
//! * `snapshot` — the idle-slot counter reading at the end of our last
//!   ACK to the sender. `B_act` for the next exchange is the counter
//!   delta since then (§4.1's "idle slots between the sending of an ACK
//!   and the reception of the next RTS").
//! * `pending_obs` — the backoff measurement taken at the most recent
//!   RTS, handed to the sender's [`DeviationDetector`] when the
//!   exchange's DATA actually arrives (detection is defined over
//!   received *packets*).
//! * `probe_expect` — armed by the §4.1 attempt-verification probe: after
//!   intentionally dropping an RTS carrying attempt `a`, the next RTS
//!   must carry `a + 1`; anything else is proof of attempt-number
//!   spoofing.

use std::collections::BTreeMap;

use airguard_mac::policy::uniform_backoff;
use airguard_mac::{BackoffObservation, MacTiming, PacketVerdict, Slots};
use airguard_sim::{NodeId, RngStream};
use rand::RngExt;

use crate::correction::CorrectionConfig;
use crate::detector::{DetectorConfig, DetectorState, DeviationDetector};
use crate::diagnosis::DiagnosisConfig;
use crate::receiver_check::g_value;

/// How the monitor draws the base (pre-penalty) part of each assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignmentSource {
    /// Uniformly random from `[0, CWmin]` — the paper's main scheme.
    #[default]
    Random,
    /// From the public deterministic function `g` (§4.4 extension), so
    /// senders can verify the receiver is not favouring anyone.
    DeterministicG,
}

/// The adaptive-THRESH extension (the paper's deferred future work):
/// the monitor tracks an EMA of the per-packet |B_exp − B_act| noise of
/// senders it does not currently flag, and raises the effective
/// threshold to `factor · W · ema` when channel noise exceeds the static
/// setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Multiplier on the noise-scaled threshold.
    pub factor: f64,
    /// EMA smoothing weight for new observations.
    pub ema_alpha: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            factor: 2.0,
            ema_alpha: 0.05,
        }
    }
}

/// Monitor configuration: the correction and diagnosis parameters plus
/// the optional extensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Deviation/penalty parameters (α, extra penalty).
    pub correction: CorrectionConfig,
    /// Diagnosis parameters (W, THRESH).
    pub diagnosis: DiagnosisConfig,
    /// Probability of intentionally dropping a decoded RTS to verify the
    /// sender increments its attempt number (§4.1). Zero disables probing.
    pub probe_rate: f64,
    /// Where assignment bases come from.
    pub assignment_source: AssignmentSource,
    /// Adaptive threshold selection (§6 future work); `None` keeps the
    /// static `THRESH`.
    pub adaptive: Option<AdaptiveConfig>,
}

impl MonitorConfig {
    /// The paper's configuration: α = 0.9, W = 5, THRESH = 20, no
    /// probing, random assignments.
    #[must_use]
    pub fn paper_default() -> Self {
        MonitorConfig {
            correction: CorrectionConfig::paper_default(),
            diagnosis: DiagnosisConfig::paper_default(),
            probe_rate: 0.0,
            assignment_source: AssignmentSource::Random,
            adaptive: None,
        }
    }
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig::paper_default()
    }
}

#[derive(Debug)]
struct SenderRecord {
    in_force: Option<u32>,
    pending_in_force: Option<u32>,
    next_assign: u32,
    has_assignment: bool,
    snapshot: Option<u64>,
    pending_obs: Option<BackoffObservation>,
    last_seq: Option<u64>,
    detector: Box<dyn DeviationDetector>,
    /// A pending attempt-verification probe: (sequence number of the
    /// dropped RTS, attempt number it carried).
    probe_expect: Option<(u64, u8)>,
    stats: SenderStats,
}

impl SenderRecord {
    fn new(node: NodeId, diagnosis: DiagnosisConfig, detector: DetectorConfig) -> Self {
        SenderRecord {
            in_force: None,
            pending_in_force: None,
            next_assign: 0,
            has_assignment: false,
            snapshot: None,
            pending_obs: None,
            last_seq: None,
            detector: detector.build(diagnosis),
            probe_expect: None,
            stats: SenderStats::new(node),
        }
    }
}

/// Accumulated per-sender statistics, exported at end of run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenderStats {
    /// The sender these statistics describe.
    pub node: NodeId,
    /// Packets delivered from this sender.
    pub packets: u64,
    /// Packets classified as coming from a misbehaving sender.
    pub flagged_packets: u64,
    /// Exchanges designated as deviations by Eq. 1.
    pub deviations: u64,
    /// Attempt-verification probes issued.
    pub probes_sent: u64,
    /// Proven attempt-number cheats (retry after a probe did not
    /// increment the attempt field).
    pub attempt_cheats: u64,
}

impl SenderStats {
    fn new(node: NodeId) -> Self {
        SenderStats {
            node,
            packets: 0,
            flagged_packets: 0,
            deviations: 0,
            probes_sent: 0,
            attempt_cheats: 0,
        }
    }

    /// Fraction of this sender's packets that were flagged, as a
    /// percentage (0 if no packets were received).
    #[must_use]
    pub fn flagged_percent(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            100.0 * self.flagged_packets as f64 / self.packets as f64
        }
    }
}

/// End-of-run snapshot of everything a monitor concluded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MonitorReport {
    /// Per-sender statistics, sorted by node id.
    pub senders: Vec<SenderStats>,
}

impl MonitorReport {
    /// Statistics for one sender, if it was ever observed.
    #[must_use]
    pub fn sender(&self, node: NodeId) -> Option<&SenderStats> {
        self.senders.iter().find(|s| s.node == node)
    }
}

/// The per-receiver misbehavior monitor.
#[derive(Debug)]
pub struct Monitor {
    me: NodeId,
    cfg: MonitorConfig,
    detector: DetectorConfig,
    records: BTreeMap<NodeId, SenderRecord>,
    /// EMA of per-packet |diff| noise from currently-unflagged senders.
    noise_ema: f64,
}

impl Monitor {
    /// Creates a monitor for receiver node `me` running the default
    /// (window) detector.
    #[must_use]
    pub fn new(me: NodeId, cfg: MonitorConfig) -> Self {
        Monitor::with_detector(me, cfg, DetectorConfig::default())
    }

    /// Creates a monitor whose per-sender verdict state runs the given
    /// detector.
    #[must_use]
    pub fn with_detector(me: NodeId, cfg: MonitorConfig, detector: DetectorConfig) -> Self {
        Monitor {
            me,
            cfg,
            detector,
            records: BTreeMap::new(),
            noise_ema: 0.0,
        }
    }

    /// The detector configuration every sender record is built from.
    #[must_use]
    pub fn detector(&self) -> DetectorConfig {
        self.detector
    }

    /// The effective diagnosis threshold currently in force.
    #[must_use]
    pub fn effective_thresh(&self) -> f64 {
        match self.cfg.adaptive {
            None => self.cfg.diagnosis.thresh,
            Some(a) => self
                .cfg
                .diagnosis
                .thresh
                .max(a.factor * self.cfg.diagnosis.window as f64 * self.noise_ema),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    fn record(&mut self, src: NodeId) -> &mut SenderRecord {
        let diagnosis = self.cfg.diagnosis;
        let detector = self.detector;
        self.records
            .entry(src)
            .or_insert_with(|| SenderRecord::new(src, diagnosis, detector))
    }

    /// §4.1 probe decision: should the MAC respond to this RTS?
    pub fn should_respond(
        &mut self,
        src: NodeId,
        seq: u64,
        attempt: u8,
        rng: &mut RngStream,
    ) -> bool {
        if self.cfg.probe_rate <= 0.0 {
            return true;
        }
        let probe_rate = self.cfg.probe_rate;
        let rec = self.record(src);
        // Do not probe while the retry limit is near: a probe on the last
        // attempt makes the sender drop the packet and the verification
        // would be vacuous anyway.
        if rec.probe_expect.is_none() && attempt < 5 && rng.random_bool(probe_rate) {
            rec.probe_expect = Some((seq, attempt));
            rec.stats.probes_sent += 1;
            false
        } else {
            true
        }
    }

    /// Handles a decoded RTS: verifies pending probes, commits the
    /// in-force assignment on fresh exchanges, measures `B_act` against
    /// the reconstructed `B_exp`, and draws the next assignment
    /// (base + penalty).
    ///
    /// Returns the backoff measurement when one could be taken (both an
    /// in-force assignment and a `B_act` baseline existed); the
    /// first-ever exchange from a sender yields `None`.
    pub fn on_rts(
        &mut self,
        src: NodeId,
        seq: u64,
        attempt: u8,
        idle_reading: u64,
        timing: &MacTiming,
        rng: &mut RngStream,
    ) -> Option<BackoffObservation> {
        let correction = self.cfg.correction;
        let source = self.cfg.assignment_source;
        let me = self.me;
        let rec = self.record(src);

        // Probe verification: the retry after an intentionally dropped RTS
        // must carry a *larger* attempt number. It may be larger by more
        // than one (the retry itself can be lost to a genuine collision),
        // and a different sequence number makes the probe inconclusive
        // (the sender gave up on the probed packet).
        if let Some((probed_seq, probed_attempt)) = rec.probe_expect.take() {
            if seq == probed_seq && attempt <= probed_attempt {
                rec.stats.attempt_cheats += 1;
            }
        }

        // A new exchange (fresh sequence number) means the sender latched
        // whatever our last ACK carried. Keying on the sequence number
        // rather than `attempt == 1` matters: if the fresh exchange's
        // first RTS is lost in a collision, the first RTS we *observe*
        // already carries attempt ≥ 2, but the sender is nevertheless
        // acting on the new assignment.
        if rec.last_seq != Some(seq) {
            if let Some(p) = rec.pending_in_force {
                rec.in_force = Some(p);
            }
            rec.last_seq = Some(seq);
        }

        // Deviation measurement needs both a known assignment and a
        // measurement baseline; the first-ever exchange from a sender has
        // neither.
        let mut penalty = 0.0;
        let mut observation = None;
        if let (Some(base), Some(snap)) = (rec.in_force, rec.snapshot) {
            let b_exp =
                crate::retry_fn::expected_total_backoff(base, src, attempt.max(1), timing) as f64;
            let b_act = idle_reading.saturating_sub(snap) as f64;
            let deviation = correction.deviation(b_exp, b_act);
            if deviation > 0.0 {
                rec.stats.deviations += 1;
            }
            penalty = correction.penalty(deviation);
            let obs = BackoffObservation {
                assigned_slots: b_exp,
                observed_slots: b_act,
                deviation_slots: deviation,
                penalty_slots: penalty,
            };
            rec.pending_obs = Some(obs);
            observation = Some(obs);
        }

        let base = match source {
            AssignmentSource::Random => uniform_backoff(timing.cw_min, rng).count(),
            AssignmentSource::DeterministicG => g_value(me, src, seq + 1, timing),
        };
        rec.next_assign = (base + penalty.round() as u32).min(correction.max_assignment);
        rec.has_assignment = true;
        observation
    }

    /// The backoff value to embed in CTS/ACK frames to `dst`.
    #[must_use]
    pub fn assignment(&mut self, dst: NodeId, timing: &MacTiming) -> Slots {
        let fallback = timing.cw_min / 2;
        let rec = self.record(dst);
        if rec.has_assignment {
            Slots::new(rec.next_assign)
        } else {
            // Defensive: an exchange always starts with an observed RTS,
            // so this path is unreachable in practice.
            Slots::new(fallback)
        }
    }

    /// Marks the end of our ACK transmission to `dst`: snapshots the idle
    /// counter (the `B_act` baseline) and latches the assignment the ACK
    /// carried.
    pub fn on_ack_sent(&mut self, dst: NodeId, idle_reading: u64) {
        let rec = self.record(dst);
        rec.snapshot = Some(idle_reading);
        rec.pending_in_force = Some(rec.next_assign);
    }

    /// Records a delivered packet from `src` and classifies it through
    /// the sender's detector.
    pub fn on_data(&mut self, src: NodeId) -> PacketVerdict {
        let thresh = self.effective_thresh();
        let adaptive = self.cfg.adaptive;
        let deviation;
        let verdict;
        let mut measured_diff = None;
        {
            let rec = self.record(src);
            rec.stats.packets += 1;
            let obs = rec.pending_obs.take();
            deviation = match &obs {
                Some(o) => {
                    measured_diff = Some(o.assigned_slots - o.observed_slots);
                    o.deviation_slots
                }
                None => 0.0,
            };
            verdict = rec.detector.observe(obs.as_ref(), thresh);
            if verdict.flagged {
                rec.stats.flagged_packets += 1;
            }
        }
        if let (Some(a), Some(diff), false) = (adaptive, measured_diff, verdict.flagged) {
            // Only unflagged senders feed the noise estimate, so a cheater
            // cannot inflate the threshold that protects it.
            self.noise_ema = (1.0 - a.ema_alpha) * self.noise_ema + a.ema_alpha * diff.abs();
        }
        PacketVerdict {
            deviation_slots: deviation,
            window_sum: verdict.statistic,
            flagged: verdict.flagged,
        }
    }

    /// The serializable detector state of every observed sender,
    /// sorted by node id — what a preserving crash reset and the live
    /// service's checkpoints persist.
    #[must_use]
    pub fn export_detector_states(&self) -> Vec<(NodeId, DetectorState)> {
        self.records
            .iter()
            .map(|(node, rec)| (*node, rec.detector.export_state()))
            .collect()
    }

    /// Replaces every sender's detector with one rebuilt from its
    /// exported [`DetectorState`].
    ///
    /// Behaviorally a no-op — the restored detectors are
    /// indistinguishable from the originals — but it forces monitor
    /// preservation *through* the explicit serializable state: a field
    /// added to a detector without a matching [`DetectorState`] entry
    /// now breaks tests (and golden digests) immediately, instead of
    /// silently resetting mid-diagnosis on a real restart.
    ///
    /// # Panics
    ///
    /// Panics if a record's exported state does not match the
    /// monitor's configured detector kind — impossible by
    /// construction, since every record is built from that config.
    pub fn round_trip_detectors(&mut self) {
        let diagnosis = self.cfg.diagnosis;
        let detector = self.detector;
        for rec in self.records.values_mut() {
            let state = rec.detector.export_state();
            rec.detector = detector
                .build_from_state(diagnosis, &state)
                // lint:allow(panic-expect) — state was exported by a detector built from this same config, so the kinds always match
                .expect("monitor detectors always match their own config");
        }
    }

    /// End-of-run statistics for every observed sender.
    #[must_use]
    pub fn report(&self) -> MonitorReport {
        let mut senders: Vec<SenderStats> = self.records.values().map(|r| r.stats).collect();
        senders.sort_by_key(|s| s.node);
        MonitorReport { senders }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airguard_sim::MasterSeed;

    fn timing() -> MacTiming {
        MacTiming::dsss_2mbps()
    }

    fn rng() -> RngStream {
        MasterSeed::new(33).stream("monitor-test", 0)
    }

    fn monitor() -> Monitor {
        Monitor::new(NodeId::new(0), MonitorConfig::paper_default())
    }

    const S: NodeId = NodeId::new(3);

    /// Runs one full honest exchange: RTS observed with the exact expected
    /// idle count, then DATA, then ACK sent.
    fn honest_exchange(
        m: &mut Monitor,
        r: &mut RngStream,
        idle: &mut u64,
        seq: u64,
    ) -> PacketVerdict {
        let t = timing();
        m.on_rts(S, seq, 1, *idle, &t, r);
        let v = m.on_data(S);
        let assigned = m.assignment(S, &t).count();
        m.on_ack_sent(S, *idle);
        // The honest sender will wait exactly the assignment next time.
        *idle += u64::from(assigned);
        v
    }

    #[test]
    fn first_exchange_measures_nothing() {
        let mut m = monitor();
        let mut r = rng();
        let mut idle = 100;
        let v = honest_exchange(&mut m, &mut r, &mut idle, 0);
        assert_eq!(v.deviation_slots, 0.0);
        assert!(!v.flagged);
    }

    #[test]
    fn honest_sender_never_flagged() {
        let mut m = monitor();
        let mut r = rng();
        let mut idle = 0;
        for seq in 0..50 {
            let v = honest_exchange(&mut m, &mut r, &mut idle, seq);
            assert!(!v.flagged, "honest sender flagged at seq {seq}");
            assert_eq!(v.deviation_slots, 0.0);
        }
        let report = m.report();
        let stats = report.sender(S).unwrap();
        assert_eq!(stats.packets, 50);
        assert_eq!(stats.flagged_packets, 0);
        assert_eq!(stats.deviations, 0);
    }

    #[test]
    fn full_cheater_is_flagged_within_window() {
        // Sender that never waits: B_act stays at the snapshot.
        let t = timing();
        let mut m = monitor();
        let mut r = rng();
        let idle = 500u64;
        // Bootstrap: one exchange to establish assignment + snapshot.
        m.on_rts(S, 0, 1, idle, &t, &mut r);
        m.on_data(S);
        m.on_ack_sent(S, idle);
        let mut flagged_at = None;
        for seq in 1..20u64 {
            m.on_rts(S, seq, 1, idle, &t, &mut r); // zero idle slots elapsed
            let v = m.on_data(S);
            m.on_ack_sent(S, idle);
            if v.flagged {
                flagged_at = Some(seq);
                break;
            }
        }
        let at = flagged_at.expect("full cheater must be flagged");
        assert!(
            at <= 6,
            "flagging took {at} packets; W=5 should suffice quickly"
        );
        assert!(m.report().sender(S).unwrap().deviations > 0);
    }

    #[test]
    fn penalty_raises_the_next_assignment() {
        let t = timing();
        let mut m = monitor();
        let mut r = rng();
        m.on_rts(S, 0, 1, 0, &t, &mut r);
        m.on_data(S);
        m.on_ack_sent(S, 0);
        // Collect honest assignment magnitudes for reference.
        let honest = m.assignment(S, &t).count();
        // Cheat: arrive with zero idle progression.
        m.on_rts(S, 1, 1, 0, &t, &mut r);
        let punished = m.assignment(S, &t).count();
        // The punished assignment includes D + extra on top of a fresh
        // uniform draw; unless the in-force assignment was tiny this
        // exceeds CWmin.
        if honest > 5 {
            assert!(
                punished > t.cw_min / 2,
                "expected penalty-inflated assignment, got {punished} (honest was {honest})"
            );
        }
    }

    #[test]
    fn retries_extend_b_exp_via_f() {
        let t = timing();
        let mut m = monitor();
        let mut r = rng();
        // Bootstrap.
        m.on_rts(S, 0, 1, 0, &t, &mut r);
        m.on_data(S);
        let assigned = m.assignment(S, &t).count();
        m.on_ack_sent(S, 0);
        // The sender collides twice, so attempt 3 arrives; a compliant
        // sender would have waited base + f(2) + f(3).
        let expected = crate::retry_fn::expected_total_backoff(assigned, S, 3, &t);
        m.on_rts(S, 1, 3, expected, &t, &mut r);
        let v = m.on_data(S);
        assert_eq!(v.deviation_slots, 0.0, "compliant retry must not deviate");
        // Window diff should be ~0, not the large negative it would be if
        // retries were ignored.
        assert!(v.window_sum.abs() < 1.0);
    }

    #[test]
    fn waiting_longer_yields_negative_diffs_not_flags() {
        let t = timing();
        let mut m = monitor();
        let mut r = rng();
        m.on_rts(S, 0, 1, 0, &t, &mut r);
        m.on_data(S);
        let mut idle = 0u64;
        m.on_ack_sent(S, idle);
        for seq in 1..10 {
            let assigned = u64::from(m.assignment(S, &t).count());
            idle += assigned + 10; // waits 10 slots longer than told
            m.on_rts(S, seq, 1, idle, &t, &mut r);
            let v = m.on_data(S);
            m.on_ack_sent(S, idle);
            assert!(!v.flagged);
            assert!(v.window_sum <= 0.0);
        }
    }

    #[test]
    fn probe_catches_attempt_spoofing() {
        let t = timing();
        let mut cfg = MonitorConfig::paper_default();
        cfg.probe_rate = 1.0; // always probe
        let mut m = Monitor::new(NodeId::new(0), cfg);
        let mut r = rng();
        // First RTS: the monitor probes (drops) it.
        assert!(!m.should_respond(S, 0, 1, &mut r));
        // The spoofing sender retries still claiming attempt 1.
        // (probe_expect is armed, so no new probe is issued.)
        assert!(m.should_respond(S, 0, 1, &mut r));
        m.on_rts(S, 0, 1, 0, &t, &mut r);
        assert_eq!(m.report().sender(S).unwrap().attempt_cheats, 1);
    }

    #[test]
    fn probe_passes_honest_senders() {
        let t = timing();
        let mut cfg = MonitorConfig::paper_default();
        cfg.probe_rate = 1.0;
        let mut m = Monitor::new(NodeId::new(0), cfg);
        let mut r = rng();
        assert!(!m.should_respond(S, 0, 1, &mut r));
        assert!(m.should_respond(S, 0, 2, &mut r));
        m.on_rts(S, 0, 2, 0, &t, &mut r);
        assert_eq!(m.report().sender(S).unwrap().attempt_cheats, 0);
        assert_eq!(m.report().sender(S).unwrap().probes_sent, 1);
    }

    #[test]
    fn deterministic_assignment_uses_g() {
        let t = timing();
        let cfg = MonitorConfig {
            assignment_source: AssignmentSource::DeterministicG,
            ..MonitorConfig::paper_default()
        };
        let mut m = Monitor::new(NodeId::new(0), cfg);
        let mut r = rng();
        m.on_rts(S, 7, 1, 0, &t, &mut r);
        let a = m.assignment(S, &t).count();
        assert_eq!(
            a,
            g_value(NodeId::new(0), S, 8, &t),
            "base = g, no penalty yet"
        );
    }

    #[test]
    fn report_sorts_by_node() {
        let t = timing();
        let mut m = monitor();
        let mut r = rng();
        for id in [5u32, 1, 3] {
            m.on_rts(NodeId::new(id), 0, 1, 0, &t, &mut r);
            m.on_data(NodeId::new(id));
        }
        let report = m.report();
        let ids: Vec<u32> = report.senders.iter().map(|s| s.node.value()).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn cusum_monitor_flags_a_full_cheater_and_resets() {
        let t = timing();
        let det = crate::detector::DetectorConfig::from_kind("cusum").expect("known");
        let mut m = Monitor::with_detector(NodeId::new(0), MonitorConfig::paper_default(), det);
        assert_eq!(m.detector().kind(), "cusum");
        let mut r = rng();
        let idle = 500u64;
        m.on_rts(S, 0, 1, idle, &t, &mut r);
        m.on_data(S);
        m.on_ack_sent(S, idle);
        let mut flagged_at = None;
        for seq in 1..30u64 {
            m.on_rts(S, seq, 1, idle, &t, &mut r); // zero idle slots elapsed
            let v = m.on_data(S);
            m.on_ack_sent(S, idle);
            if v.flagged {
                flagged_at = Some((seq, v));
                break;
            }
        }
        let (_, v) = flagged_at.expect("cusum must flag a full cheater");
        assert!(
            v.window_sum > 30.0,
            "the verdict statistic is the crossing CUSUM score, got {}",
            v.window_sum
        );
    }

    #[test]
    fn cw_monitor_flags_a_half_waiting_cheater() {
        let t = timing();
        let det = crate::detector::DetectorConfig::from_kind("cw").expect("known");
        let mut m = Monitor::with_detector(NodeId::new(0), MonitorConfig::paper_default(), det);
        let mut r = rng();
        let mut idle = 0u64;
        m.on_rts(S, 0, 1, idle, &t, &mut r);
        m.on_data(S);
        m.on_ack_sent(S, idle);
        let mut flagged = false;
        for seq in 1..60u64 {
            // Waits only half of what it was told.
            idle += u64::from(m.assignment(S, &t).count()) / 2;
            m.on_rts(S, seq, 1, idle, &t, &mut r);
            let v = m.on_data(S);
            m.on_ack_sent(S, idle);
            flagged |= v.flagged;
        }
        assert!(flagged, "CW estimation must flag a PM=50 cheater");
    }

    #[test]
    fn detector_round_trip_preserves_mid_diagnosis_state() {
        // Round-trip one monitor through its serializable detector
        // state mid-diagnosis; a control monitor runs uninterrupted.
        // Every subsequent verdict (including CUSUM scores and CW
        // accumulators, not just the window sums) must agree.
        let t = timing();
        for kind in ["window", "cusum", "cw"] {
            let det = crate::detector::DetectorConfig::from_kind(kind).expect("known");
            let mut preserved =
                Monitor::with_detector(NodeId::new(0), MonitorConfig::paper_default(), det);
            let mut control =
                Monitor::with_detector(NodeId::new(0), MonitorConfig::paper_default(), det);
            let mut r1 = rng();
            let mut r2 = rng();
            let idle = 500u64; // full cheater: the idle counter never moves
            let drive = |m: &mut Monitor, r: &mut RngStream, seq: u64| {
                m.on_rts(S, seq, 1, idle, &t, r);
                let v = m.on_data(S);
                m.on_ack_sent(S, idle);
                v
            };
            for seq in 0..10 {
                drive(&mut preserved, &mut r1, seq);
                drive(&mut control, &mut r2, seq);
            }
            assert_eq!(
                preserved.export_detector_states(),
                control.export_detector_states()
            );
            preserved.round_trip_detectors();
            for seq in 10..40 {
                let a = drive(&mut preserved, &mut r1, seq);
                let b = drive(&mut control, &mut r2, seq);
                assert_eq!(
                    a, b,
                    "{kind} diverged after a mid-diagnosis round-trip (seq {seq})"
                );
            }
            assert_eq!(preserved.report(), control.report());
            assert!(
                preserved
                    .report()
                    .sender(S)
                    .expect("observed")
                    .flagged_packets
                    > 0,
                "{kind} must have been mid-diagnosis for the round-trip to matter"
            );
        }
    }

    #[test]
    fn default_monitor_runs_the_window_detector() {
        assert_eq!(monitor().detector().kind(), "window");
    }

    #[test]
    fn flagged_percent_arithmetic() {
        let mut s = SenderStats::new(S);
        assert_eq!(s.flagged_percent(), 0.0);
        s.packets = 8;
        s.flagged_packets = 2;
        assert!((s.flagged_percent() - 25.0).abs() < 1e-12);
    }
}
