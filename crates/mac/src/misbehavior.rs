//! Selfish misbehavior strategies.
//!
//! The paper studies senders that gain bandwidth by shrinking their
//! backoff. Three concrete strategies appear in it:
//!
//! * the headline *Percentage of Misbehavior* model (§5): a node with
//!   `PM = x %` counts down only `(100 − x) %` of whatever backoff the
//!   protocol tells it to use;
//! * the introduction's example: drawing backoff from `[0, CW/4]`
//!   instead of `[0, CW]`;
//! * a retry cheat: never doubling the contention window after a
//!   collision.
//!
//! All three are implemented as a decorator, [`Misbehavior`], over any
//! inner [`BackoffPolicy`], so the same cheat applies identically to the
//! 802.11 baseline and to the paper's modified protocol (where the
//! misbehaving sender shortchanges the *receiver-assigned* value). The
//! receiver-side hooks pass through untouched: a selfish sender still
//! behaves as an honest receiver, which is the paper's threat model.

use airguard_sim::{NodeId, RngStream};

use crate::policy::{uniform_backoff, BackoffObservation, BackoffPolicy, PacketVerdict};
use crate::timing::{MacTiming, Slots};

/// A selfish sender strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Selfish {
    /// Fully protocol-compliant (identity decoration).
    None,
    /// Counts down only `(100 − pm) %` of every backoff. `pm` is the
    /// paper's *Percentage of Misbehavior*, in `[0, 100]`.
    BackoffScale {
        /// Percentage of misbehavior (PM).
        pm: f64,
    },
    /// Draws every backoff from a quarter of the window the protocol
    /// would use (the introduction's `[0, CW/4]` example).
    QuarterWindow,
    /// Ignores the binary-exponential ladder: every retry draws from
    /// `[0, CWmin]`.
    NoDoubling,
    /// Scales backoff like [`Selfish::BackoffScale`] *and* always reports
    /// attempt number 1 in the RTS, hiding retransmissions from the
    /// receiver's `B_exp` reconstruction (the misbehavior the §4.1
    /// attempt-verification probe exists to catch).
    AttemptSpoof {
        /// Percentage of misbehavior applied to backoff values.
        pm: f64,
    },
    /// *Receiver-side* misbehavior (§4.4): assign zero backoff to every
    /// sender, pulling data in faster than competing receivers. Only
    /// meaningful under the modified protocol; detected by the
    /// deterministic-`g` sender check.
    ZeroAssignment,
    /// *Receiver-side* collusion (§4.4): never add penalties — every
    /// assignment is clamped back into the base range `[0, CWmin]`, so a
    /// partnered cheating sender keeps its advantage. Invisible to the
    /// sender-side `g` check (the base is legitimate); caught by a
    /// third-party observer.
    NoPenalty,
}

impl Selfish {
    /// True for the compliant variant.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, Selfish::None)
    }

    /// The fraction of an assigned backoff this strategy actually waits,
    /// where meaningful (1.0 for strategies that do not scale).
    #[must_use]
    pub fn compliance_fraction(&self) -> f64 {
        match self {
            Selfish::BackoffScale { pm } | Selfish::AttemptSpoof { pm } => 1.0 - pm / 100.0,
            _ => 1.0,
        }
    }
}

/// Applies the PM scaling to a backoff value: a node at `PM = x %` counts
/// down to `(100 − x) %` of `slots`, rounding to the nearest slot.
#[must_use]
pub fn scale_backoff(slots: Slots, pm: f64) -> Slots {
    let fraction = (1.0 - pm / 100.0).clamp(0.0, 1.0);
    Slots::new((f64::from(slots.count()) * fraction).round() as u32)
}

/// Decorator wrapping an honest policy with a [`Selfish`] strategy.
///
/// ```
/// use airguard_mac::{BackoffPolicy, Dcf80211, MacTiming, Misbehavior, Selfish};
/// use airguard_sim::{MasterSeed, NodeId};
///
/// let timing = MacTiming::dsss_2mbps();
/// let mut rng = MasterSeed::new(1).stream("mac", 0);
/// // PM = 100 %: never backs off at all.
/// let mut cheat = Misbehavior::new(Dcf80211::new(), Selfish::BackoffScale { pm: 100.0 });
/// assert_eq!(cheat.fresh_backoff(NodeId::new(0), &timing, &mut rng).count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Misbehavior<P> {
    inner: P,
    strategy: Selfish,
}

impl<P: BackoffPolicy> Misbehavior<P> {
    /// Wraps `inner` with `strategy`.
    ///
    /// # Panics
    ///
    /// Panics if a [`Selfish::BackoffScale`] percentage is outside
    /// `[0, 100]`.
    #[must_use]
    pub fn new(inner: P, strategy: Selfish) -> Self {
        if let Selfish::BackoffScale { pm } | Selfish::AttemptSpoof { pm } = strategy {
            assert!(
                (0.0..=100.0).contains(&pm),
                "percentage of misbehavior must be in [0, 100], got {pm}"
            );
        }
        Misbehavior { inner, strategy }
    }

    /// The wrapped strategy.
    #[must_use]
    pub fn strategy(&self) -> Selfish {
        self.strategy
    }

    /// Access to the wrapped honest policy.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped honest policy (fault injection
    /// resets the inner state through this without disturbing the
    /// strategy decoration).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

impl<P: BackoffPolicy> BackoffPolicy for Misbehavior<P> {
    fn uses_protocol_extensions(&self) -> bool {
        self.inner.uses_protocol_extensions()
    }

    fn fresh_backoff(&mut self, dst: NodeId, timing: &MacTiming, rng: &mut RngStream) -> Slots {
        match self.strategy {
            Selfish::None | Selfish::NoDoubling | Selfish::ZeroAssignment | Selfish::NoPenalty => {
                self.inner.fresh_backoff(dst, timing, rng)
            }
            Selfish::BackoffScale { pm } | Selfish::AttemptSpoof { pm } => {
                // The honest draw still happens (and under the modified
                // protocol records the assignment as used); the cheat is in
                // how much of it the node actually waits.
                scale_backoff(self.inner.fresh_backoff(dst, timing, rng), pm)
            }
            Selfish::QuarterWindow => {
                let _ = self.inner.fresh_backoff(dst, timing, rng);
                uniform_backoff(timing.cw_min / 4, rng)
            }
        }
    }

    fn retry_backoff(
        &mut self,
        dst: NodeId,
        attempt: u8,
        timing: &MacTiming,
        rng: &mut RngStream,
    ) -> Slots {
        match self.strategy {
            Selfish::None | Selfish::ZeroAssignment | Selfish::NoPenalty => {
                self.inner.retry_backoff(dst, attempt, timing, rng)
            }
            Selfish::BackoffScale { pm } | Selfish::AttemptSpoof { pm } => {
                scale_backoff(self.inner.retry_backoff(dst, attempt, timing, rng), pm)
            }
            Selfish::QuarterWindow => {
                let _ = self.inner.retry_backoff(dst, attempt, timing, rng);
                uniform_backoff(timing.cw_for_attempt(attempt) / 4, rng)
            }
            Selfish::NoDoubling => {
                let _ = self.inner.retry_backoff(dst, attempt, timing, rng);
                uniform_backoff(timing.cw_min, rng)
            }
        }
    }

    fn observe_assignment(
        &mut self,
        from: NodeId,
        seq: u64,
        assigned: Option<Slots>,
        timing: &MacTiming,
    ) {
        self.inner.observe_assignment(from, seq, assigned, timing);
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
        self.inner
            .observe_rts(src, seq, attempt, idle_reading, timing, rng)
    }

    fn assignment_for(&mut self, dst: NodeId, timing: &MacTiming) -> Option<Slots> {
        let honest = self.inner.assignment_for(dst, timing);
        match self.strategy {
            // Lowball every assignment (but only where the protocol
            // carries one at all).
            Selfish::ZeroAssignment => honest.map(|_| Slots::ZERO),
            // Strip penalties: clamp back into the base range.
            Selfish::NoPenalty => honest.map(|s| Slots::new(s.count().min(timing.cw_min))),
            _ => honest,
        }
    }

    fn observe_ack_sent(&mut self, dst: NodeId, idle_reading: u64) {
        self.inner.observe_ack_sent(dst, idle_reading);
    }

    fn observe_data(&mut self, src: NodeId) -> Option<PacketVerdict> {
        self.inner.observe_data(src)
    }

    fn should_respond_rts(
        &mut self,
        src: NodeId,
        seq: u64,
        attempt: u8,
        rng: &mut RngStream,
    ) -> bool {
        self.inner.should_respond_rts(src, seq, attempt, rng)
    }

    fn report_attempt(&mut self, actual: u8) -> u8 {
        match self.strategy {
            Selfish::AttemptSpoof { .. } => 1,
            _ => self.inner.report_attempt(actual),
        }
    }

    fn observe_overheard(
        &mut self,
        frame: &crate::frames::Frame,
        idle_reading: u64,
        timing: &MacTiming,
    ) {
        self.inner.observe_overheard(frame, idle_reading, timing);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Dcf80211;
    use airguard_sim::MasterSeed;

    fn rng() -> RngStream {
        MasterSeed::new(7).stream("misbehavior-test", 0)
    }

    #[test]
    fn scale_backoff_reference_points() {
        assert_eq!(scale_backoff(Slots::new(20), 0.0), Slots::new(20));
        assert_eq!(scale_backoff(Slots::new(20), 50.0), Slots::new(10));
        assert_eq!(scale_backoff(Slots::new(20), 100.0), Slots::ZERO);
        assert_eq!(
            scale_backoff(Slots::new(21), 50.0),
            Slots::new(11),
            "rounds"
        );
        assert_eq!(scale_backoff(Slots::ZERO, 50.0), Slots::ZERO);
    }

    #[test]
    fn none_strategy_is_transparent() {
        let timing = MacTiming::dsss_2mbps();
        let mut honest_rng = MasterSeed::new(9).stream("x", 0);
        let mut wrapped_rng = MasterSeed::new(9).stream("x", 0);
        let mut honest = Dcf80211::new();
        let mut wrapped = Misbehavior::new(Dcf80211::new(), Selfish::None);
        for _ in 0..100 {
            assert_eq!(
                honest.fresh_backoff(NodeId::new(0), &timing, &mut honest_rng),
                wrapped.fresh_backoff(NodeId::new(0), &timing, &mut wrapped_rng)
            );
        }
    }

    #[test]
    fn pm_scaling_halves_the_mean() {
        let timing = MacTiming::dsss_2mbps();
        let mut r = rng();
        let mut cheat = Misbehavior::new(Dcf80211::new(), Selfish::BackoffScale { pm: 50.0 });
        let n = 20_000;
        let sum: u64 = (0..n)
            .map(|_| u64::from(cheat.fresh_backoff(NodeId::new(0), &timing, &mut r).count()))
            .sum();
        let mean = sum as f64 / n as f64;
        // round(b/2) over b ∈ [0, 31] averages exactly 8.0 (rounding half
        // away from zero makes odd values round up).
        assert!((mean - 8.0).abs() < 0.2, "mean {mean}, want ≈ 8.0");
    }

    #[test]
    fn quarter_window_bounds() {
        let timing = MacTiming::dsss_2mbps();
        let mut r = rng();
        let mut cheat = Misbehavior::new(Dcf80211::new(), Selfish::QuarterWindow);
        for _ in 0..2_000 {
            assert!(cheat.fresh_backoff(NodeId::new(0), &timing, &mut r).count() <= 7);
            assert!(
                cheat
                    .retry_backoff(NodeId::new(0), 3, &timing, &mut r)
                    .count()
                    <= 31
            );
        }
    }

    #[test]
    fn no_doubling_caps_retries_at_cwmin() {
        let timing = MacTiming::dsss_2mbps();
        let mut r = rng();
        let mut cheat = Misbehavior::new(Dcf80211::new(), Selfish::NoDoubling);
        for attempt in 2..=7u8 {
            for _ in 0..500 {
                assert!(
                    cheat
                        .retry_backoff(NodeId::new(0), attempt, &timing, &mut r)
                        .count()
                        <= timing.cw_min
                );
            }
        }
    }

    #[test]
    fn zero_assignment_lowballs_only_when_protocol_assigns() {
        struct Assigner;
        impl BackoffPolicy for Assigner {
            fn fresh_backoff(&mut self, _: NodeId, t: &MacTiming, r: &mut RngStream) -> Slots {
                uniform_backoff(t.cw_min, r)
            }
            fn retry_backoff(
                &mut self,
                _: NodeId,
                a: u8,
                t: &MacTiming,
                r: &mut RngStream,
            ) -> Slots {
                uniform_backoff(t.cw_for_attempt(a), r)
            }
            fn assignment_for(&mut self, _: NodeId, _: &MacTiming) -> Option<Slots> {
                Some(Slots::new(17))
            }
        }
        let timing = MacTiming::dsss_2mbps();
        let mut selfish = Misbehavior::new(Assigner, Selfish::ZeroAssignment);
        assert_eq!(
            selfish.assignment_for(NodeId::new(1), &timing),
            Some(Slots::ZERO)
        );
        let mut baseline = Misbehavior::new(Dcf80211::new(), Selfish::ZeroAssignment);
        assert_eq!(baseline.assignment_for(NodeId::new(1), &timing), None);
    }

    #[test]
    fn no_penalty_clamps_to_base_range() {
        struct Assigner;
        impl BackoffPolicy for Assigner {
            fn fresh_backoff(&mut self, _: NodeId, t: &MacTiming, r: &mut RngStream) -> Slots {
                uniform_backoff(t.cw_min, r)
            }
            fn retry_backoff(
                &mut self,
                _: NodeId,
                a: u8,
                t: &MacTiming,
                r: &mut RngStream,
            ) -> Slots {
                uniform_backoff(t.cw_for_attempt(a), r)
            }
            fn assignment_for(&mut self, _: NodeId, _: &MacTiming) -> Option<Slots> {
                Some(Slots::new(90)) // base + large penalty
            }
        }
        let timing = MacTiming::dsss_2mbps();
        let mut colluder = Misbehavior::new(Assigner, Selfish::NoPenalty);
        assert_eq!(
            colluder.assignment_for(NodeId::new(1), &timing),
            Some(Slots::new(31)),
            "penalty stripped, base range kept"
        );
    }

    #[test]
    fn compliance_fraction_reflects_pm() {
        assert_eq!(Selfish::None.compliance_fraction(), 1.0);
        assert_eq!(
            Selfish::BackoffScale { pm: 30.0 }.compliance_fraction(),
            0.7
        );
        assert_eq!(Selfish::QuarterWindow.compliance_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 100]")]
    fn rejects_out_of_range_pm() {
        let _ = Misbehavior::new(Dcf80211::new(), Selfish::BackoffScale { pm: 130.0 });
    }
}
