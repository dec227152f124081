//! Diagnosis-accuracy accounting.
//!
//! Every delivered packet is classified by the receiver's diagnosis
//! scheme ("from a misbehaving sender" or not). Crossing that with the
//! ground truth — which senders actually misbehave — yields the paper's
//! two accuracy metrics:
//!
//! * **correct diagnosis %** — flagged packets over all packets from
//!   *misbehaving* senders;
//! * **misdiagnosis %** — flagged packets over all packets from
//!   *well-behaved* senders.

use std::collections::{BTreeMap, BTreeSet};

use airguard_sim::NodeId;

/// Per-sender classification counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderTally {
    /// Packets delivered from this sender.
    pub packets: u64,
    /// Packets classified as misbehaving.
    pub flagged: u64,
}

/// Accumulates per-packet verdicts against ground truth.
///
/// ```
/// use airguard_metrics::DiagnosisTally;
/// use airguard_sim::NodeId;
///
/// let cheat = NodeId::new(3);
/// let honest = NodeId::new(4);
/// let mut tally = DiagnosisTally::new([cheat]);
/// tally.record(cheat, true);
/// tally.record(cheat, false);
/// tally.record(honest, false);
/// assert_eq!(tally.correct_diagnosis_percent(), 50.0);
/// assert_eq!(tally.misdiagnosis_percent(), 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiagnosisTally {
    misbehaving: BTreeSet<NodeId>,
    senders: BTreeMap<NodeId, SenderTally>,
}

impl DiagnosisTally {
    /// Creates a tally with the given ground-truth set of misbehaving
    /// senders.
    #[must_use]
    pub fn new(misbehaving: impl IntoIterator<Item = NodeId>) -> Self {
        DiagnosisTally {
            misbehaving: misbehaving.into_iter().collect(),
            senders: BTreeMap::new(),
        }
    }

    /// Whether `node` is in the ground-truth misbehaving set.
    #[must_use]
    pub fn is_misbehaving(&self, node: NodeId) -> bool {
        self.misbehaving.contains(&node)
    }

    /// Records the classification of one delivered packet.
    pub fn record(&mut self, src: NodeId, flagged: bool) {
        let tally = self.senders.entry(src).or_default();
        tally.packets += 1;
        if flagged {
            tally.flagged += 1;
        }
    }

    /// Counts for one sender.
    #[must_use]
    pub fn sender(&self, src: NodeId) -> SenderTally {
        self.senders.get(&src).copied().unwrap_or_default()
    }

    fn percent_over(&self, misbehaving: bool) -> f64 {
        let (mut packets, mut flagged) = (0u64, 0u64);
        for (&node, tally) in &self.senders {
            if self.misbehaving.contains(&node) == misbehaving {
                packets += tally.packets;
                flagged += tally.flagged;
            }
        }
        if packets == 0 {
            0.0
        } else {
            100.0 * flagged as f64 / packets as f64
        }
    }

    /// Percentage of packets from misbehaving senders that were flagged.
    #[must_use]
    pub fn correct_diagnosis_percent(&self) -> f64 {
        self.percent_over(true)
    }

    /// Percentage of packets from well-behaved senders that were flagged.
    #[must_use]
    pub fn misdiagnosis_percent(&self) -> f64 {
        self.percent_over(false)
    }

    /// Total packets recorded.
    #[must_use]
    pub fn total_packets(&self) -> u64 {
        self.senders.values().map(|t| t.packets).sum()
    }

    /// Folds `other` into `self`: ground-truth sets union, per-sender
    /// counts sum. Used to reassemble one tally from per-shard tallies.
    pub fn merge(&mut self, other: &DiagnosisTally) {
        self.misbehaving.extend(other.misbehaving.iter().copied());
        for (&node, tally) in &other.senders {
            let mine = self.senders.entry(node).or_default();
            mine.packets += tally.packets;
            mine.flagged += tally.flagged;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn separates_populations() {
        let mut t = DiagnosisTally::new([n(3)]);
        // Misbehaving sender: 3 of 4 packets flagged.
        for flagged in [true, true, true, false] {
            t.record(n(3), flagged);
        }
        // Honest sender: 1 of 5 flagged.
        for flagged in [false, false, true, false, false] {
            t.record(n(4), flagged);
        }
        assert_eq!(t.correct_diagnosis_percent(), 75.0);
        assert_eq!(t.misdiagnosis_percent(), 20.0);
        assert_eq!(t.total_packets(), 9);
    }

    #[test]
    fn empty_populations_report_zero() {
        let t = DiagnosisTally::new([n(3)]);
        assert_eq!(t.correct_diagnosis_percent(), 0.0);
        assert_eq!(t.misdiagnosis_percent(), 0.0);
    }

    #[test]
    fn multiple_misbehaving_senders_pool() {
        let mut t = DiagnosisTally::new([n(1), n(2)]);
        t.record(n(1), true);
        t.record(n(2), false);
        assert_eq!(t.correct_diagnosis_percent(), 50.0);
        assert!(t.is_misbehaving(n(1)));
        assert!(!t.is_misbehaving(n(9)));
    }

    #[test]
    fn sender_lookup_defaults_to_zero() {
        let t = DiagnosisTally::new([]);
        assert_eq!(t.sender(n(7)), SenderTally::default());
    }
}
