//! Per-flow delivery accounting.

use std::collections::BTreeMap;

use airguard_sim::{NodeId, SimDuration};

/// Delivery statistics for one sender→receiver flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowStats {
    /// Payload bytes delivered (duplicates excluded).
    pub bytes: u64,
    /// Packets delivered.
    pub packets: u64,
}

/// Accumulates deliveries per flow and answers the paper's throughput
/// questions.
///
/// ```
/// use airguard_metrics::ThroughputAccount;
/// use airguard_sim::{NodeId, SimDuration};
///
/// let mut acc = ThroughputAccount::new();
/// let (s, r) = (NodeId::new(3), NodeId::new(0));
/// acc.record(s, r, 512);
/// acc.record(s, r, 512);
/// // 1024 bytes over 1 s = 8192 bit/s.
/// let bps = acc.sender_throughput_bps(s, SimDuration::from_secs(1));
/// assert_eq!(bps, 8192.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThroughputAccount {
    flows: BTreeMap<(NodeId, NodeId), FlowStats>,
}

impl ThroughputAccount {
    /// Creates an empty account.
    #[must_use]
    pub fn new() -> Self {
        ThroughputAccount::default()
    }

    /// Records the delivery of `bytes` payload bytes from `src` to `dst`.
    pub fn record(&mut self, src: NodeId, dst: NodeId, bytes: u32) {
        let stats = self.flows.entry((src, dst)).or_default();
        stats.bytes += u64::from(bytes);
        stats.packets += 1;
    }

    /// Statistics for one flow, if any packets were delivered on it.
    #[must_use]
    pub fn flow(&self, src: NodeId, dst: NodeId) -> Option<FlowStats> {
        self.flows.get(&(src, dst)).copied()
    }

    /// All flows, ordered by (src, dst).
    pub fn flows(&self) -> impl Iterator<Item = ((NodeId, NodeId), FlowStats)> + '_ {
        self.flows.iter().map(|(&k, &v)| (k, v))
    }

    /// Total payload bytes delivered from `src` across all destinations.
    #[must_use]
    pub fn sender_bytes(&self, src: NodeId) -> u64 {
        self.flows
            .iter()
            .filter(|((s, _), _)| *s == src)
            .map(|(_, st)| st.bytes)
            .sum()
    }

    /// Throughput of `src` in bits per second over `elapsed`.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    #[must_use]
    pub fn sender_throughput_bps(&self, src: NodeId, elapsed: SimDuration) -> f64 {
        assert!(!elapsed.is_zero(), "throughput over zero elapsed time");
        self.sender_bytes(src) as f64 * 8.0 / elapsed.as_secs_f64()
    }

    /// Per-flow throughputs in bit/s, ordered by flow key — the input to
    /// Jain's fairness index. Flows listed in `expected` but absent from
    /// the account contribute 0 (a starved flow must drag fairness down).
    #[must_use]
    pub fn flow_throughputs_bps(
        &self,
        expected: &[(NodeId, NodeId)],
        elapsed: SimDuration,
    ) -> Vec<f64> {
        assert!(!elapsed.is_zero(), "throughput over zero elapsed time");
        expected
            .iter()
            .map(|&(s, d)| {
                self.flow(s, d)
                    .map_or(0.0, |st| st.bytes as f64 * 8.0 / elapsed.as_secs_f64())
            })
            .collect()
    }

    /// Mean per-sender throughput over a set of senders, in bit/s.
    /// Senders that delivered nothing count as zero. Returns 0 for an
    /// empty set.
    #[must_use]
    pub fn mean_sender_throughput_bps(&self, senders: &[NodeId], elapsed: SimDuration) -> f64 {
        if senders.is_empty() {
            return 0.0;
        }
        senders
            .iter()
            .map(|&s| self.sender_throughput_bps(s, elapsed))
            .sum::<f64>()
            / senders.len() as f64
    }

    /// Total delivered payload across all flows, in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.flows.values().map(|s| s.bytes).sum()
    }

    /// Folds `other` into `self`, summing per-flow bytes and packets.
    /// Shard merging relies on flows partitioning across components, but
    /// the sum is correct even if a flow appears on both sides.
    pub fn merge(&mut self, other: &ThroughputAccount) {
        for (&key, stats) in &other.flows {
            let mine = self.flows.entry(key).or_default();
            mine.bytes += stats.bytes;
            mine.packets += stats.packets;
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
    fn records_accumulate_per_flow() {
        let mut acc = ThroughputAccount::new();
        acc.record(n(1), n(0), 512);
        acc.record(n(1), n(0), 512);
        acc.record(n(2), n(0), 256);
        assert_eq!(
            acc.flow(n(1), n(0)),
            Some(FlowStats {
                bytes: 1024,
                packets: 2
            })
        );
        assert_eq!(acc.flow(n(2), n(0)).unwrap().packets, 1);
        assert_eq!(acc.flow(n(3), n(0)), None);
        assert_eq!(acc.total_bytes(), 1280);
    }

    #[test]
    fn sender_totals_span_destinations() {
        let mut acc = ThroughputAccount::new();
        acc.record(n(1), n(0), 100);
        acc.record(n(1), n(2), 50);
        assert_eq!(acc.sender_bytes(n(1)), 150);
    }

    #[test]
    fn throughput_scales_with_time() {
        let mut acc = ThroughputAccount::new();
        acc.record(n(1), n(0), 1000);
        assert_eq!(
            acc.sender_throughput_bps(n(1), SimDuration::from_secs(2)),
            4000.0
        );
    }

    #[test]
    fn starved_flows_report_zero() {
        let acc = ThroughputAccount::new();
        let t = acc.flow_throughputs_bps(&[(n(1), n(0)), (n(2), n(0))], SimDuration::from_secs(1));
        assert_eq!(t, vec![0.0, 0.0]);
    }

    #[test]
    fn mean_sender_throughput_averages() {
        let mut acc = ThroughputAccount::new();
        acc.record(n(1), n(0), 1000);
        acc.record(n(2), n(0), 3000);
        let mean = acc.mean_sender_throughput_bps(&[n(1), n(2)], SimDuration::from_secs(1));
        assert_eq!(mean, 16_000.0);
        assert_eq!(
            acc.mean_sender_throughput_bps(&[], SimDuration::from_secs(1)),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "zero elapsed")]
    fn zero_elapsed_panics() {
        let acc = ThroughputAccount::new();
        let _ = acc.sender_throughput_bps(n(1), SimDuration::ZERO);
    }
}
