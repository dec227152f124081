//! The pluggable backoff policy: the seam between plain IEEE 802.11 and
//! the paper's modified protocol.
//!
//! A [`BackoffPolicy`] answers every question the DCF engine has about
//! backoff values and protocol observations:
//!
//! * **sender side** — how many slots to back off before a fresh
//!   transmission and before each retry, and what to do with a backoff
//!   assignment arriving in an ACK;
//! * **receiver side** — what backoff value (if any) to embed in CTS/ACK
//!   frames, and what to record when an RTS arrives, when an ACK finishes
//!   transmitting, and when a data packet is delivered.
//!
//! [`Dcf80211`] implements the unmodified standard: uniform backoff from
//! the local contention window, no assignments, no observations. The
//! paper's receiver-assigned protocol is `airguard_core::CorrectPolicy`,
//! implemented against this same trait.

use airguard_sim::{NodeId, RngStream};
use rand::RngExt;

use crate::timing::{MacTiming, Slots};

/// The receiver-side conclusion about one delivered packet, produced by
/// the diagnosis scheme and forwarded to metrics collection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketVerdict {
    /// Measured deviation `D = max(α·B_exp − B_act, 0)` for this packet's
    /// exchange, in slots.
    pub deviation_slots: f64,
    /// The signed window statistic `Σ(B_exp − B_act)` at classification
    /// time, in slots.
    pub window_sum: f64,
    /// Whether the diagnosis scheme flags the sender as misbehaving at
    /// this packet.
    pub flagged: bool,
}

/// One receiver-side backoff measurement, produced when a policy's
/// monitor compares the backoff it assigned to a sender against the
/// idle time it actually observed before the sender's access.
///
/// All quantities are in slots. `deviation_slots` is the paper's
/// per-packet `D = max(α·B_exp − B_act, 0)`; `penalty_slots` is the
/// correction added to the sender's next assigned backoff (zero for a
/// well-behaved exchange).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffObservation {
    /// `B_exp`: the total backoff the receiver expected, in slots.
    pub assigned_slots: f64,
    /// `B_act`: the idle time the receiver observed, in slots.
    pub observed_slots: f64,
    /// Per-packet deviation `D = max(α·B_exp − B_act, 0)`.
    pub deviation_slots: f64,
    /// Penalty added to the sender's next assignment.
    pub penalty_slots: f64,
}

/// Strategy object deciding backoff behaviour and protocol observations.
///
/// All methods take the node's own [`MacTiming`] so policies never cache
/// timing state, and an [`RngStream`] so all randomness stays on the
/// node's deterministic stream.
pub trait BackoffPolicy {
    /// Whether frames should carry the modified protocol's extension
    /// fields (RTS attempt number; CTS/ACK assigned backoff).
    fn uses_protocol_extensions(&self) -> bool {
        false
    }

    /// Backoff before the first transmission attempt of a new packet to
    /// `dst`.
    fn fresh_backoff(&mut self, dst: NodeId, timing: &MacTiming, rng: &mut RngStream) -> Slots;

    /// Backoff before retry `attempt` (≥ 2) of the current packet to
    /// `dst`.
    fn retry_backoff(
        &mut self,
        dst: NodeId,
        attempt: u8,
        timing: &MacTiming,
        rng: &mut RngStream,
    ) -> Slots;

    /// Called when an ACK from `from` is decoded, with the backoff value
    /// it carried (if any) and the sequence number it acknowledged. Under
    /// the modified protocol the sender must use this value for its next
    /// packet to `from`.
    fn observe_assignment(
        &mut self,
        from: NodeId,
        seq: u64,
        assigned: Option<Slots>,
        timing: &MacTiming,
    ) {
        let _ = (from, seq, assigned, timing);
    }

    /// Called when an RTS from `src` is decoded at this node (as
    /// receiver). `idle_reading` is this node's cumulative post-DIFS
    /// idle-slot count at the moment of reception (see
    /// [`crate::IdleSlotCounter`]).
    ///
    /// Policies that monitor sender backoff return the measurement they
    /// took (expected vs. observed slots, resulting deviation and
    /// penalty), which the MAC forwards to telemetry. Policies without
    /// a monitor return `None`.
    fn observe_rts(
        &mut self,
        src: NodeId,
        seq: u64,
        attempt: u8,
        idle_reading: u64,
        timing: &MacTiming,
        rng: &mut RngStream,
    ) -> Option<BackoffObservation> {
        let _ = (src, seq, attempt, idle_reading, timing, rng);
        None
    }

    /// The backoff value to embed in CTS/ACK frames addressed to `dst`,
    /// or `None` under the unmodified protocol.
    fn assignment_for(&mut self, dst: NodeId, timing: &MacTiming) -> Option<Slots> {
        let _ = (dst, timing);
        None
    }

    /// Called when this node's ACK to `dst` has finished transmitting.
    /// `idle_reading` is the idle-slot counter at that instant — the
    /// `B_act` measurement baseline for `dst`'s next exchange.
    fn observe_ack_sent(&mut self, dst: NodeId, idle_reading: u64) {
        let _ = (dst, idle_reading);
    }

    /// Called when a non-duplicate DATA frame from `src` is delivered.
    /// Returns the diagnosis verdict for this packet, if the policy runs
    /// one.
    fn observe_data(&mut self, src: NodeId) -> Option<PacketVerdict> {
        let _ = src;
        None
    }

    /// Whether to respond to a decoded RTS from `src` with a CTS.
    ///
    /// The paper's attempt-verification probe (§4.1) intentionally drops
    /// an occasional RTS and checks that the sender's retry carries an
    /// incremented attempt number; a policy implements that by returning
    /// `false` here. The default always responds.
    fn should_respond_rts(
        &mut self,
        src: NodeId,
        seq: u64,
        attempt: u8,
        rng: &mut RngStream,
    ) -> bool {
        let _ = (src, seq, attempt, rng);
        true
    }

    /// The attempt number to serialize into an outgoing RTS, given the
    /// true attempt count. Honest policies return `actual`; the
    /// attempt-lying misbehavior reports a stale number to hide its
    /// retransmissions.
    fn report_attempt(&mut self, actual: u8) -> u8 {
        actual
    }

    /// Called for every decoded frame *not* addressed to this node.
    /// `idle_reading` is this node's cumulative post-DIFS idle-slot
    /// count. Third-party observers (the paper's §4.4 collusion-watch
    /// building block) live entirely on this hook; the default ignores
    /// overheard traffic.
    fn observe_overheard(
        &mut self,
        frame: &crate::frames::Frame,
        idle_reading: u64,
        timing: &MacTiming,
    ) {
        let _ = (frame, idle_reading, timing);
    }
}

/// Draws a uniform backoff from `[0, cw]` inclusive, as IEEE 802.11
/// specifies.
#[must_use]
pub fn uniform_backoff(cw: u32, rng: &mut RngStream) -> Slots {
    Slots::new(rng.random_range(0..=cw))
}

/// The unmodified IEEE 802.11 DCF backoff policy.
///
/// Fresh packets draw from `[0, CWmin]`; retry `i` draws from
/// `[0, CW_i]` with the standard doubling ladder. Nothing is assigned,
/// observed, or diagnosed.
///
/// ```
/// use airguard_mac::{BackoffPolicy, Dcf80211, MacTiming};
/// use airguard_sim::{MasterSeed, NodeId};
///
/// let timing = MacTiming::dsss_2mbps();
/// let mut rng = MasterSeed::new(1).stream("mac", 0);
/// let mut policy = Dcf80211::new();
/// let b = policy.fresh_backoff(NodeId::new(0), &timing, &mut rng);
/// assert!(b.count() <= timing.cw_min);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Dcf80211;

impl Dcf80211 {
    /// Creates the baseline policy.
    #[must_use]
    pub fn new() -> Self {
        Dcf80211
    }
}

impl BackoffPolicy for Dcf80211 {
    fn fresh_backoff(&mut self, _dst: NodeId, timing: &MacTiming, rng: &mut RngStream) -> Slots {
        uniform_backoff(timing.cw_min, rng)
    }

    fn retry_backoff(
        &mut self,
        _dst: NodeId,
        attempt: u8,
        timing: &MacTiming,
        rng: &mut RngStream,
    ) -> Slots {
        uniform_backoff(timing.cw_for_attempt(attempt), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airguard_sim::MasterSeed;

    fn rng() -> RngStream {
        MasterSeed::new(42).stream("policy-test", 0)
    }

    #[test]
    fn fresh_backoff_is_within_cwmin() {
        let timing = MacTiming::dsss_2mbps();
        let mut r = rng();
        let mut p = Dcf80211::new();
        for _ in 0..1_000 {
            let b = p.fresh_backoff(NodeId::new(0), &timing, &mut r);
            assert!(b.count() <= timing.cw_min);
        }
    }

    #[test]
    fn fresh_backoff_covers_the_range() {
        let timing = MacTiming::dsss_2mbps();
        let mut r = rng();
        let mut p = Dcf80211::new();
        let mut seen = vec![false; (timing.cw_min + 1) as usize];
        for _ in 0..5_000 {
            seen[p.fresh_backoff(NodeId::new(0), &timing, &mut r).count() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 32 values should occur");
    }

    #[test]
    fn fresh_backoff_mean_is_cw_half() {
        let timing = MacTiming::dsss_2mbps();
        let mut r = rng();
        let mut p = Dcf80211::new();
        let n = 20_000;
        let sum: u64 = (0..n)
            .map(|_| u64::from(p.fresh_backoff(NodeId::new(0), &timing, &mut r).count()))
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 15.5).abs() < 0.2, "mean backoff {mean}");
    }

    #[test]
    fn retry_backoff_uses_the_ladder() {
        let timing = MacTiming::dsss_2mbps();
        let mut r = rng();
        let mut p = Dcf80211::new();
        let mut max3 = 0;
        for _ in 0..5_000 {
            max3 = max3.max(p.retry_backoff(NodeId::new(0), 3, &timing, &mut r).count());
        }
        assert!(max3 > 63, "attempt 3 should exceed CW_2 range, saw {max3}");
        assert!(max3 <= 127);
    }

    #[test]
    fn baseline_has_no_extensions_or_assignments() {
        let timing = MacTiming::dsss_2mbps();
        let mut p = Dcf80211::new();
        assert!(!p.uses_protocol_extensions());
        assert_eq!(p.assignment_for(NodeId::new(1), &timing), None);
        assert_eq!(p.observe_data(NodeId::new(1)), None);
    }
}
