//! Third-party observation (§4.4 / §6): the building block for collusion
//! detection.
//!
//! The paper notes that detecting *collusion* between a sender and a
//! receiver "will require a third party observer to monitor the behavior
//! of both the sender and the receiver". Everything such an observer
//! needs is already on the air in the modified protocol:
//!
//! * CTS/ACK frames carry the assigned backoff, so an observer within
//!   decode range learns exactly what the receiver told the sender;
//! * RTS frames carry the attempt number, so the observer can replay the
//!   deterministic retry schedule `f` and reconstruct `B_exp`;
//! * the idle-slot count between the overheard ACK and the next RTS is
//!   the observer's own `B_act` measurement.
//!
//! [`ThirdPartyObserver`] therefore runs the *same* deviation test and
//! diagnosis window as the receiver — from a third position, with no
//! cooperation from either endpoint. If its verdict disagrees
//! persistently with the traffic pattern (a flagrant sender that the
//! receiver keeps serving without penalty — visible as assignments that
//! never grow), the pair is colluding.

use std::collections::BTreeMap;

use airguard_mac::frames::{Frame, FrameKind};
use airguard_mac::MacTiming;
use airguard_sim::NodeId;

use crate::correction::CorrectionConfig;
use crate::diagnosis::{DiagnosisConfig, DiagnosisWindow};

/// Observer verdict about one (sender → receiver) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairStats {
    /// The observed sender.
    pub sender: NodeId,
    /// The observed receiver.
    pub receiver: NodeId,
    /// Exchanges the observer could measure.
    pub measured: u64,
    /// Measured deviations (Eq. 1 from the observer's vantage point).
    pub deviations: u64,
    /// Exchanges at which the diagnosis window was over threshold.
    pub flagged: u64,
    /// Exchanges where the sender deviated but the receiver's *next*
    /// assignment did not grow — the collusion signature (an honest
    /// receiver must penalize).
    pub unpunished_deviations: u64,
}

impl PairStats {
    fn new(sender: NodeId, receiver: NodeId) -> Self {
        PairStats {
            sender,
            receiver,
            measured: 0,
            deviations: 0,
            flagged: 0,
            unpunished_deviations: 0,
        }
    }

    /// Whether the observer considers this pair suspicious of collusion:
    /// a majority of measured deviations went unpunished.
    #[must_use]
    pub fn collusion_suspected(&self) -> bool {
        self.deviations >= 5 && self.unpunished_deviations * 2 > self.deviations
    }
}

#[derive(Debug)]
struct PairRecord {
    /// Last assignment overheard in a CTS/ACK to the sender.
    assigned: Option<u32>,
    /// Assignment in force for the sender's current exchange.
    in_force: Option<u32>,
    /// Observer's idle reading at the overheard ACK.
    snapshot: Option<u64>,
    /// Sequence number of the exchange in force.
    last_seq: Option<u64>,
    /// Magnitude of the most recently measured deviation (slots).
    last_deviation: f64,
    window: DiagnosisWindow,
    stats: PairStats,
}

impl PairRecord {
    fn new(sender: NodeId, receiver: NodeId, diagnosis: DiagnosisConfig) -> Self {
        PairRecord {
            assigned: None,
            in_force: None,
            snapshot: None,
            last_seq: None,
            last_deviation: 0.0,
            window: DiagnosisWindow::new(diagnosis),
            stats: PairStats::new(sender, receiver),
        }
    }
}

/// A passive monitor of overheard (sender, receiver) exchanges.
#[derive(Debug)]
pub struct ThirdPartyObserver {
    correction: CorrectionConfig,
    diagnosis: DiagnosisConfig,
    pairs: BTreeMap<(NodeId, NodeId), PairRecord>,
}

impl ThirdPartyObserver {
    /// Creates an observer with the paper's default parameters.
    #[must_use]
    pub fn new(correction: CorrectionConfig, diagnosis: DiagnosisConfig) -> Self {
        ThirdPartyObserver {
            correction,
            diagnosis,
            pairs: BTreeMap::new(),
        }
    }

    fn pair(&mut self, sender: NodeId, receiver: NodeId) -> &mut PairRecord {
        let diagnosis = self.diagnosis;
        self.pairs
            .entry((sender, receiver))
            .or_insert_with(|| PairRecord::new(sender, receiver, diagnosis))
    }

    /// Feeds one overheard frame plus the observer's own idle-slot
    /// reading at decode time.
    pub fn observe(&mut self, frame: &Frame, idle_reading: u64, timing: &MacTiming) {
        match frame.kind {
            FrameKind::Rts => self.on_rts(frame, idle_reading, timing),
            FrameKind::Cts | FrameKind::Ack => self.on_response(frame, idle_reading),
            FrameKind::Data => {}
        }
    }

    fn on_response(&mut self, frame: &Frame, idle_reading: u64) {
        // CTS/ACK from receiver (frame.src) to sender (frame.dst).
        let Some(assigned) = frame.assigned_backoff else {
            return;
        };
        let correction = self.correction;
        let rec = self.pair(frame.dst, frame.src);

        if frame.kind == FrameKind::Ack {
            // Collusion signature: after a deviation of magnitude D, an
            // honest receiver's next assignment is `base + penalty(D)`
            // with base ≥ 0, so anything below `penalty(D)` (plus a small
            // quantization margin) is a stripped penalty. Honest
            // receivers trip this only when their uniform base lands
            // within the margin (~6 % of draws), far below the majority
            // rule in [`PairStats::collusion_suspected`].
            if rec.last_deviation > 0.0
                && f64::from(assigned.count()) < correction.penalty(rec.last_deviation) + 2.0
            {
                rec.stats.unpunished_deviations += 1;
            }
            rec.last_deviation = 0.0;
            // The ACK both delivers the next assignment and marks the
            // measurement baseline.
            rec.assigned = Some(assigned.count());
            rec.snapshot = Some(idle_reading);
        } else {
            rec.assigned = Some(assigned.count());
        }
    }

    fn on_rts(&mut self, frame: &Frame, idle_reading: u64, timing: &MacTiming) {
        let correction = self.correction;
        // Find the pair record for this sender (any receiver it sends to).
        let receiver = frame.dst;
        let sender = frame.src;
        let rec = self.pair(sender, receiver);
        if rec.last_seq != Some(frame.seq) {
            rec.in_force = rec.assigned;
            rec.last_seq = Some(frame.seq);
        }
        let (Some(base), Some(snap)) = (rec.in_force, rec.snapshot) else {
            return;
        };
        let attempt = frame.attempt.max(1);
        let b_exp = crate::retry_fn::expected_total_backoff(base, sender, attempt, timing) as f64;
        let b_act = idle_reading.saturating_sub(snap) as f64;
        let deviation = correction.deviation(b_exp, b_act);
        rec.stats.measured += 1;
        if deviation > 0.0 {
            rec.stats.deviations += 1;
            rec.last_deviation = deviation;
        }
        rec.window.push(b_exp - b_act);
        if rec.window.is_flagged() {
            rec.stats.flagged += 1;
        }
    }

    /// All pair statistics, sorted by (sender, receiver).
    #[must_use]
    pub fn report(&self) -> Vec<PairStats> {
        let mut out: Vec<PairStats> = self.pairs.values().map(|r| r.stats).collect();
        out.sort_by_key(|s| (s.sender, s.receiver));
        out
    }

    /// Statistics for one pair, if observed.
    #[must_use]
    pub fn pair_stats(&self, sender: NodeId, receiver: NodeId) -> Option<PairStats> {
        self.pairs.get(&(sender, receiver)).map(|r| r.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airguard_mac::Slots;
    use airguard_sim::SimDuration;

    const S: NodeId = NodeId::new(1);
    const R: NodeId = NodeId::new(0);

    fn observer() -> ThirdPartyObserver {
        ThirdPartyObserver::new(
            CorrectionConfig::paper_default(),
            DiagnosisConfig::paper_default(),
        )
    }

    fn timing() -> MacTiming {
        MacTiming::dsss_2mbps()
    }

    fn frame(kind: FrameKind, src: NodeId, dst: NodeId, seq: u64) -> Frame {
        Frame {
            kind,
            src,
            dst,
            duration_field: SimDuration::ZERO,
            attempt: if kind == FrameKind::Rts { 1 } else { 0 },
            assigned_backoff: None,
            payload_bytes: 0,
            seq,
        }
    }

    fn ack_with(assign: u32, seq: u64) -> Frame {
        let mut f = frame(FrameKind::Ack, R, S, seq);
        f.assigned_backoff = Some(Slots::new(assign));
        f
    }

    /// One observed exchange: ACK carrying `assign`, then the next RTS
    /// after the sender waited `waited` slots.
    fn exchange(obs: &mut ThirdPartyObserver, idle: &mut u64, assign: u32, waited: u64, seq: u64) {
        let t = timing();
        obs.observe(&ack_with(assign, seq), *idle, &t);
        *idle += waited;
        obs.observe(&frame(FrameKind::Rts, S, R, seq + 1), *idle, &t);
    }

    #[test]
    fn compliant_pair_is_clean() {
        let mut obs = observer();
        let mut idle = 0u64;
        for seq in 0..30 {
            let assign = 10 + (seq as u32 % 8);
            exchange(&mut obs, &mut idle, assign, u64::from(assign), seq);
        }
        let stats = obs.pair_stats(S, R).expect("pair observed");
        assert_eq!(stats.deviations, 0);
        assert_eq!(stats.flagged, 0);
        assert!(!stats.collusion_suspected());
        assert!(stats.measured >= 29);
    }

    #[test]
    fn observer_flags_a_cheating_sender() {
        let mut obs = observer();
        let mut idle = 0u64;
        for seq in 0..30 {
            // Sender waits only 2 slots of a ~20-slot assignment.
            exchange(&mut obs, &mut idle, 20, 2, seq);
        }
        let stats = obs.pair_stats(S, R).expect("pair observed");
        assert!(stats.deviations > 20);
        assert!(stats.flagged > 15, "flagged {}", stats.flagged);
    }

    #[test]
    fn colluding_receiver_is_suspected() {
        // The sender cheats, and the receiver keeps assigning small
        // (penalty-free) backoffs anyway.
        let mut obs = observer();
        let mut idle = 0u64;
        for seq in 0..30 {
            exchange(&mut obs, &mut idle, 12, 1, seq);
        }
        let stats = obs.pair_stats(S, R).expect("pair observed");
        assert!(stats.collusion_suspected(), "stats: {stats:?}");
    }

    #[test]
    fn punishing_receiver_is_not_suspected() {
        // The sender cheats but the receiver reacts with growing,
        // penalty-bearing assignments — no collusion.
        let mut obs = observer();
        let mut idle = 0u64;
        for seq in 0..30 {
            // Waiting 5 of ~80 slots gives D ≈ 67, penalty ≈ 75; an honest
            // receiver's next assignment (base + penalty) is ≥ 75.
            let assign = 80 + (seq as u32 % 5);
            exchange(&mut obs, &mut idle, assign, 5, seq);
        }
        let stats = obs.pair_stats(S, R).expect("pair observed");
        assert!(stats.deviations > 20, "cheater still deviates");
        assert!(
            !stats.collusion_suspected(),
            "punishment visible: {stats:?}"
        );
    }

    #[test]
    fn frames_without_assignments_are_ignored() {
        let mut obs = observer();
        let t = timing();
        obs.observe(&frame(FrameKind::Ack, R, S, 0), 0, &t);
        obs.observe(&frame(FrameKind::Data, S, R, 0), 0, &t);
        assert!(obs.pair_stats(S, R).is_none());
    }
}
