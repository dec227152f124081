//! Per-sender MAC-delay accounting.
//!
//! The paper defines selfish misbehavior as seeking "higher throughput
//! or *lower delay*" (§3.1). This module measures the second incentive:
//! the enqueue-to-ACK delay of every acknowledged packet, per sender, so
//! experiments can show a backoff cheater also steals latency — and that
//! the correction scheme takes it back.

use std::collections::BTreeMap;

use airguard_sim::{NodeId, SimDuration};

/// Accumulated delay statistics for one sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayStats {
    /// Acknowledged packets.
    pub packets: u64,
    /// Sum of delays (for the mean).
    pub total: SimDuration,
    /// Smallest observed delay.
    pub min: SimDuration,
    /// Largest observed delay.
    pub max: SimDuration,
}

impl DelayStats {
    fn new(first: SimDuration) -> Self {
        DelayStats {
            packets: 1,
            total: first,
            min: first,
            max: first,
        }
    }

    fn add(&mut self, delay: SimDuration) {
        self.packets += 1;
        self.total += delay;
        self.min = self.min.min(delay);
        self.max = self.max.max(delay);
    }

    fn combine(&mut self, other: &DelayStats) {
        self.packets += other.packets;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean MAC delay in milliseconds.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1000.0 / self.packets as f64
        }
    }
}

/// Per-sender delay accounting.
///
/// ```
/// use airguard_metrics::delay::DelayAccount;
/// use airguard_sim::{NodeId, SimDuration};
///
/// let mut acc = DelayAccount::new();
/// acc.record(NodeId::new(1), SimDuration::from_millis(4));
/// acc.record(NodeId::new(1), SimDuration::from_millis(6));
/// assert_eq!(acc.sender(NodeId::new(1)).unwrap().mean_ms(), 5.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DelayAccount {
    senders: BTreeMap<NodeId, DelayStats>,
}

impl DelayAccount {
    /// Creates an empty account.
    #[must_use]
    pub fn new() -> Self {
        DelayAccount::default()
    }

    /// Records one acknowledged packet's MAC delay.
    pub fn record(&mut self, sender: NodeId, delay: SimDuration) {
        self.senders
            .entry(sender)
            .and_modify(|s| s.add(delay))
            .or_insert_with(|| DelayStats::new(delay));
    }

    /// Statistics for one sender, if any packets were acknowledged.
    #[must_use]
    pub fn sender(&self, sender: NodeId) -> Option<DelayStats> {
        self.senders.get(&sender).copied()
    }

    /// Folds `other` into `self`, combining per-sender statistics.
    /// Senders partition across shards, but the combine is correct even
    /// when a sender appears on both sides.
    pub fn merge(&mut self, other: &DelayAccount) {
        for (&sender, stats) in &other.senders {
            self.senders
                .entry(sender)
                .and_modify(|s| s.combine(stats))
                .or_insert(*stats);
        }
    }

    /// Mean delay (ms) over a set of senders; senders without data are
    /// skipped. Returns 0 when none of them have data.
    #[must_use]
    pub fn mean_ms_over(&self, senders: &[NodeId]) -> f64 {
        let stats: Vec<DelayStats> = senders.iter().filter_map(|&s| self.sender(s)).collect();
        if stats.is_empty() {
            return 0.0;
        }
        stats.iter().map(DelayStats::mean_ms).sum::<f64>() / stats.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn stats_track_min_mean_max() {
        let mut acc = DelayAccount::new();
        for v in [5, 1, 9] {
            acc.record(n(1), ms(v));
        }
        let s = acc.sender(n(1)).unwrap();
        assert_eq!(s.packets, 3);
        assert_eq!(s.min, ms(1));
        assert_eq!(s.max, ms(9));
        assert_eq!(s.mean_ms(), 5.0);
    }

    #[test]
    fn unknown_sender_is_none() {
        let acc = DelayAccount::new();
        assert!(acc.sender(n(5)).is_none());
        assert_eq!(acc.mean_ms_over(&[n(5)]), 0.0);
    }

    #[test]
    fn mean_over_population() {
        let mut acc = DelayAccount::new();
        acc.record(n(1), ms(2));
        acc.record(n(2), ms(4));
        assert_eq!(acc.mean_ms_over(&[n(1), n(2)]), 3.0);
        assert_eq!(
            acc.mean_ms_over(&[n(1), n(2), n(9)]),
            3.0,
            "missing skipped"
        );
    }
}
