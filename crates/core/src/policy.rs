//! [`CorrectPolicy`]: the paper's modified protocol as a
//! [`BackoffPolicy`].
//!
//! One policy instance serves both roles a node can play:
//!
//! * **as a sender**, it uses the backoff assigned by each receiver
//!   (latched from ACK frames), derives retry backoffs from the public
//!   function `f`, and — optionally — verifies the receiver's assignments
//!   against the deterministic lower bound `g` (§4.4);
//! * **as a receiver**, it delegates to the [`Monitor`]: measures
//!   `B_act` vs `B_exp`, applies the correction penalty, classifies
//!   packets with the diagnosis window, and optionally probes attempt
//!   numbers.

use std::collections::BTreeMap;

use airguard_mac::policy::uniform_backoff;
use airguard_mac::{BackoffObservation, BackoffPolicy, MacTiming, PacketVerdict, Slots};
use airguard_sim::{NodeId, RngStream};

use crate::detector::DetectorConfig;
use crate::monitor::{Monitor, MonitorConfig, MonitorReport};
use crate::observer::{PairStats, ThirdPartyObserver};
use crate::receiver_check::ReceiverCheck;

pub use crate::monitor::AssignmentSource;

/// Configuration of the full modified protocol for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrectConfig {
    /// Receiver-side monitor parameters.
    pub monitor: MonitorConfig,
    /// Sender-side verification of receiver assignments against `g`
    /// (§4.4). Only meaningful when the network's receivers use
    /// [`AssignmentSource::DeterministicG`]; enabling it against random
    /// assignments would flag honest receivers.
    pub verify_receiver: bool,
    /// Run a passive third-party observer over all overheard exchanges
    /// (§4.4/§6 collusion-watch extension).
    pub observe_third_party: bool,
}

impl CorrectConfig {
    /// The paper's configuration (no extensions enabled).
    #[must_use]
    pub fn paper_default() -> Self {
        CorrectConfig {
            monitor: MonitorConfig::paper_default(),
            verify_receiver: false,
            observe_third_party: false,
        }
    }
}

impl Default for CorrectConfig {
    fn default() -> Self {
        CorrectConfig::paper_default()
    }
}

/// The modified-protocol policy for one node.
///
/// ```
/// use airguard_core::{CorrectConfig, CorrectPolicy};
/// use airguard_mac::{BackoffPolicy, MacTiming, Slots};
/// use airguard_sim::{MasterSeed, NodeId};
///
/// let timing = MacTiming::dsss_2mbps();
/// let mut rng = MasterSeed::new(1).stream("node", 3);
/// let mut p = CorrectPolicy::new(NodeId::new(3), CorrectConfig::paper_default());
///
/// // Before any assignment: an arbitrary (random) initial backoff.
/// let b0 = p.fresh_backoff(NodeId::new(0), &timing, &mut rng);
/// assert!(b0.count() <= timing.cw_min);
///
/// // After an ACK assigns 12 slots, the next packet uses exactly that.
/// p.observe_assignment(NodeId::new(0), 0, Some(Slots::new(12)), &timing);
/// assert_eq!(p.fresh_backoff(NodeId::new(0), &timing, &mut rng), Slots::new(12));
/// ```
#[derive(Debug)]
pub struct CorrectPolicy {
    id: NodeId,
    cfg: CorrectConfig,
    /// Detector the monitor is (re)built with — kept so a cold crash
    /// reset restores the same detection scheme.
    detector: DetectorConfig,
    monitor: Monitor,
    /// Assignment latched from the most recent ACK per receiver; consumed
    /// by the next packet's fresh backoff.
    next_base: BTreeMap<NodeId, u32>,
    /// The base in force for the packet currently being transmitted
    /// (feeds the retry function `f`).
    current_base: BTreeMap<NodeId, u32>,
    receiver_check: ReceiverCheck,
    observer: Option<ThirdPartyObserver>,
}

impl CorrectPolicy {
    /// Creates the policy for node `id` with the default (window)
    /// detector.
    #[must_use]
    pub fn new(id: NodeId, cfg: CorrectConfig) -> Self {
        CorrectPolicy::with_detector(id, cfg, DetectorConfig::default())
    }

    /// Creates the policy with an explicit detector for its monitor.
    #[must_use]
    pub fn with_detector(id: NodeId, cfg: CorrectConfig, detector: DetectorConfig) -> Self {
        CorrectPolicy {
            id,
            cfg,
            detector,
            monitor: Monitor::with_detector(id, cfg.monitor, detector),
            next_base: BTreeMap::new(),
            current_base: BTreeMap::new(),
            receiver_check: ReceiverCheck::new(),
            observer: cfg
                .observe_third_party
                .then(|| ThirdPartyObserver::new(cfg.monitor.correction, cfg.monitor.diagnosis)),
        }
    }

    /// The detector this policy's monitor runs.
    #[must_use]
    pub fn detector(&self) -> DetectorConfig {
        self.detector
    }

    /// End-of-run monitor statistics (receiver role).
    #[must_use]
    pub fn monitor_report(&self) -> MonitorReport {
        self.monitor.report()
    }

    /// Number of receiver assignments that violated the `g` lower bound
    /// (sender role; only counts when `verify_receiver` is on).
    #[must_use]
    pub fn receiver_violations(&self) -> u64 {
        self.receiver_check.violations()
    }

    /// Third-party observation report, when the extension is enabled.
    #[must_use]
    pub fn observer_report(&self) -> Option<Vec<PairStats>> {
        self.observer.as_ref().map(ThirdPartyObserver::report)
    }

    /// Wipes state as an injected node crash would.
    ///
    /// The sender-side latches (`next_base`/`current_base`) always go:
    /// a rebooted node has no memory of past assignments. The
    /// receiver-side diagnosis state — monitor, receiver check, observer
    /// — survives when `preserve_monitor` is set (modelling misbehavior
    /// tables kept in stable storage) and is rebuilt from scratch
    /// otherwise (a cold reboot that forgets every sender's history).
    pub fn crash_reset(&mut self, preserve_monitor: bool) {
        self.next_base.clear();
        self.current_base.clear();
        if preserve_monitor {
            // Preservation models tables kept in stable storage, so it
            // must survive *through* that storage: every detector is
            // round-tripped through its serializable `DetectorState`
            // (window diffs, CUSUM score, CW accumulators alike). A
            // detector field missing from the state would surface here
            // as a behavior change — pinned by the golden-digest suite
            // — instead of silently resetting mid-diagnosis on a real
            // restart.
            self.monitor.round_trip_detectors();
        } else {
            self.monitor = Monitor::with_detector(self.id, self.cfg.monitor, self.detector);
            self.receiver_check = ReceiverCheck::new();
            self.observer = self.cfg.observe_third_party.then(|| {
                ThirdPartyObserver::new(self.cfg.monitor.correction, self.cfg.monitor.diagnosis)
            });
        }
    }
}

impl BackoffPolicy for CorrectPolicy {
    fn uses_protocol_extensions(&self) -> bool {
        true
    }

    fn fresh_backoff(&mut self, dst: NodeId, timing: &MacTiming, rng: &mut RngStream) -> Slots {
        // "The first time a sender S sends a packet to a receiver R, S may
        // use an arbitrarily selected backoff value. For all subsequent
        // transmissions, the sender has to use the backoff values provided
        // by the receiver." (§4.1)
        let base = self
            .next_base
            .get(&dst)
            .copied()
            .unwrap_or_else(|| uniform_backoff(timing.cw_min, rng).count());
        self.current_base.insert(dst, base);
        Slots::new(base)
    }

    fn retry_backoff(
        &mut self,
        dst: NodeId,
        attempt: u8,
        timing: &MacTiming,
        _rng: &mut RngStream,
    ) -> Slots {
        let base = self.current_base.get(&dst).copied().unwrap_or(0);
        crate::retry_fn::retry_backoff(base, self.id, attempt, timing)
    }

    fn observe_assignment(
        &mut self,
        from: NodeId,
        seq: u64,
        assigned: Option<Slots>,
        timing: &MacTiming,
    ) {
        let Some(assigned) = assigned else {
            return;
        };
        let mut value = assigned.count();
        if self.cfg.verify_receiver {
            value = self
                .receiver_check
                .verify(from, self.id, seq, value, timing);
        }
        self.next_base.insert(from, value);
    }

    fn observe_rts(
        &mut self,
        src: NodeId,
        seq: u64,
        attempt: u8,
        idle_reading: u64,
        timing: &MacTiming,
        rng: &mut RngStream,
    ) -> Option<BackoffObservation> {
        self.monitor
            .on_rts(src, seq, attempt, idle_reading, timing, rng)
    }

    fn assignment_for(&mut self, dst: NodeId, timing: &MacTiming) -> Option<Slots> {
        Some(self.monitor.assignment(dst, timing))
    }

    fn observe_ack_sent(&mut self, dst: NodeId, idle_reading: u64) {
        self.monitor.on_ack_sent(dst, idle_reading);
    }

    fn observe_data(&mut self, src: NodeId) -> Option<PacketVerdict> {
        Some(self.monitor.on_data(src))
    }

    fn should_respond_rts(
        &mut self,
        src: NodeId,
        seq: u64,
        attempt: u8,
        rng: &mut RngStream,
    ) -> bool {
        self.monitor.should_respond(src, seq, attempt, rng)
    }

    fn observe_overheard(
        &mut self,
        frame: &airguard_mac::frames::Frame,
        idle_reading: u64,
        timing: &MacTiming,
    ) {
        if let Some(obs) = &mut self.observer {
            obs.observe(frame, idle_reading, timing);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver_check::g_value;

    fn timing() -> MacTiming {
        MacTiming::dsss_2mbps()
    }

    fn rng() -> RngStream {
        airguard_sim::MasterSeed::new(21).stream("correct-policy-test", 0)
    }

    const R: NodeId = NodeId::new(0);

    #[test]
    fn extensions_are_on() {
        let p = CorrectPolicy::new(NodeId::new(1), CorrectConfig::paper_default());
        assert!(p.uses_protocol_extensions());
    }

    #[test]
    fn assignments_govern_fresh_backoff_per_receiver() {
        let t = timing();
        let mut r = rng();
        let mut p = CorrectPolicy::new(NodeId::new(1), CorrectConfig::paper_default());
        p.observe_assignment(R, 0, Some(Slots::new(7)), &t);
        p.observe_assignment(NodeId::new(9), 0, Some(Slots::new(29)), &t);
        assert_eq!(p.fresh_backoff(R, &t, &mut r), Slots::new(7));
        assert_eq!(p.fresh_backoff(NodeId::new(9), &t, &mut r), Slots::new(29));
    }

    #[test]
    fn assignment_persists_until_replaced() {
        // The same assignment governs subsequent packets until a new ACK
        // replaces it — penalties degrade gracefully even if an ACK is the
        // last frame a sender ever decodes.
        let t = timing();
        let mut r = rng();
        let mut p = CorrectPolicy::new(NodeId::new(1), CorrectConfig::paper_default());
        p.observe_assignment(R, 0, Some(Slots::new(13)), &t);
        assert_eq!(p.fresh_backoff(R, &t, &mut r), Slots::new(13));
        assert_eq!(p.fresh_backoff(R, &t, &mut r), Slots::new(13));
    }

    #[test]
    fn retry_backoff_matches_receiver_reconstruction() {
        let t = timing();
        let mut r = rng();
        let me = NodeId::new(4);
        let mut p = CorrectPolicy::new(me, CorrectConfig::paper_default());
        p.observe_assignment(R, 0, Some(Slots::new(11)), &t);
        let fresh = p.fresh_backoff(R, &t, &mut r);
        assert_eq!(fresh.count(), 11);
        let r2 = p.retry_backoff(R, 2, &t, &mut r);
        let r3 = p.retry_backoff(R, 3, &t, &mut r);
        assert_eq!(r2, crate::retry_fn::retry_backoff(11, me, 2, &t));
        assert_eq!(r3, crate::retry_fn::retry_backoff(11, me, 3, &t));
        let total = u64::from(fresh.count()) + u64::from(r2.count()) + u64::from(r3.count());
        assert_eq!(
            total,
            crate::retry_fn::expected_total_backoff(11, me, 3, &t)
        );
    }

    #[test]
    fn receiver_verification_counts_lowballs() {
        let t = timing();
        let cfg = CorrectConfig {
            verify_receiver: true,
            ..CorrectConfig::paper_default()
        };
        let me = NodeId::new(2);
        let mut p = CorrectPolicy::new(me, cfg);
        let g = g_value(R, me, 6, &t);
        // A selfish receiver assigns below the g bound for seq 5's ACK.
        p.observe_assignment(R, 5, Some(Slots::new(g.saturating_sub(1))), &t);
        if g > 0 {
            assert_eq!(p.receiver_violations(), 1);
            // And the sender substitutes the honest bound.
            let mut r = rng();
            assert_eq!(p.fresh_backoff(R, &t, &mut r).count(), g);
        }
    }

    #[test]
    fn crash_reset_forgets_assignments_but_can_keep_monitor() {
        let t = timing();
        let mut r = rng();
        let mut p = CorrectPolicy::new(NodeId::new(1), CorrectConfig::paper_default());
        p.observe_assignment(R, 0, Some(Slots::new(7)), &t);
        p.observe_ack_sent(R, 3);
        let warm_report = p.monitor_report();
        p.crash_reset(true);
        // Assignment latch gone: fresh backoff falls back to a random draw,
        // not the assigned 7 — but the monitor tables survive.
        let _ = p.fresh_backoff(R, &t, &mut r);
        assert!(p.next_base.is_empty() && p.monitor_report() == warm_report);
        p.observe_assignment(R, 1, Some(Slots::new(9)), &t);
        p.crash_reset(false);
        assert!(p.next_base.is_empty());
        assert_eq!(
            p.monitor_report(),
            CorrectPolicy::new(NodeId::new(1), CorrectConfig::paper_default()).monitor_report(),
            "cold reset rebuilds the monitor from scratch"
        );
    }

    #[test]
    fn cold_crash_reset_rebuilds_the_same_detector() {
        let det = DetectorConfig::from_kind("cusum").expect("known");
        let mut p =
            CorrectPolicy::with_detector(NodeId::new(1), CorrectConfig::paper_default(), det);
        assert_eq!(p.detector().kind(), "cusum");
        p.crash_reset(false);
        assert_eq!(
            p.detector().kind(),
            "cusum",
            "a cold reboot must not silently fall back to the window detector"
        );
    }

    #[test]
    fn preserving_crash_reset_keeps_non_window_detector_state() {
        // A crashed-and-restarted receiver with preserved tables must
        // continue each sender's diagnosis exactly where it left off —
        // for CUSUM scores and CW accumulators, not just the window
        // table. The control policy never crashes; both see the same
        // full-cheater feed with identical rng streams.
        let t = timing();
        for kind in ["cusum", "cw", "window"] {
            let det = DetectorConfig::from_kind(kind).expect("known");
            let mut crashed =
                CorrectPolicy::with_detector(NodeId::new(1), CorrectConfig::paper_default(), det);
            let mut control =
                CorrectPolicy::with_detector(NodeId::new(1), CorrectConfig::paper_default(), det);
            let mut r1 = rng();
            let mut r2 = rng();
            let idle = 500u64; // the cheater's idle counter never moves
            let drive = |p: &mut CorrectPolicy, r: &mut RngStream, seq: u64| {
                p.observe_rts(R, seq, 1, idle, &t, r);
                p.observe_data(R);
                p.observe_ack_sent(R, idle);
            };
            for seq in 0..8 {
                drive(&mut crashed, &mut r1, seq);
                drive(&mut control, &mut r2, seq);
            }
            crashed.crash_reset(true);
            for seq in 8..40 {
                drive(&mut crashed, &mut r1, seq);
                drive(&mut control, &mut r2, seq);
            }
            assert_eq!(
                crashed.monitor_report(),
                control.monitor_report(),
                "{kind} detector state must survive a preserving crash reset"
            );
            assert!(
                crashed
                    .monitor_report()
                    .sender(R)
                    .expect("observed")
                    .flagged_packets
                    > 0,
                "{kind} must reach a diagnosis for the preservation to matter"
            );
        }
    }

    #[test]
    fn missing_assignment_field_is_ignored() {
        let t = timing();
        let mut p = CorrectPolicy::new(NodeId::new(1), CorrectConfig::paper_default());
        p.observe_assignment(R, 0, None, &t);
        assert_eq!(p.receiver_violations(), 0);
    }
}
