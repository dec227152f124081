//! The diagnosis scheme (§4.3): flagging persistently misbehaving senders.
//!
//! The receiver keeps, per sender, the signed differences
//! `B_exp − B_act` of the last `W` received packets. Positive differences
//! mean the sender waited less than expected; negative mean it waited
//! more. Summing both lets occasional channel-induced over- and
//! under-counts cancel, while a persistent cheater accumulates positive
//! mass. When the sum exceeds `THRESH`, packets from that sender are
//! classified as coming from a misbehaving node.

use std::collections::VecDeque;

/// Diagnosis parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagnosisConfig {
    /// Window size `W` in packets. The paper uses 5.
    pub window: usize,
    /// Threshold `THRESH` in slots over the window. The paper uses 20
    /// (i.e. 4 slots per packet).
    pub thresh: f64,
}

impl DiagnosisConfig {
    /// The paper's configuration: `W = 5`, `THRESH = 20`.
    #[must_use]
    pub fn paper_default() -> Self {
        DiagnosisConfig {
            window: 5,
            thresh: 20.0,
        }
    }

    /// Custom parameters (used by the W/THRESH ablation).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: usize, thresh: f64) -> Self {
        assert!(window > 0, "diagnosis window must be non-empty");
        DiagnosisConfig { window, thresh }
    }
}

impl Default for DiagnosisConfig {
    fn default() -> Self {
        DiagnosisConfig::paper_default()
    }
}

/// The per-sender moving window of `B_exp − B_act` differences.
///
/// ```
/// use airguard_core::{DiagnosisConfig, DiagnosisWindow};
///
/// let mut w = DiagnosisWindow::new(DiagnosisConfig::paper_default());
/// for _ in 0..5 {
///     w.push(5.0); // five packets, each 5 slots short
/// }
/// assert_eq!(w.sum(), 25.0);
/// assert!(w.is_flagged()); // 25 > THRESH = 20
/// ```
#[derive(Debug, Clone)]
pub struct DiagnosisWindow {
    cfg: DiagnosisConfig,
    diffs: VecDeque<f64>,
}

impl DiagnosisWindow {
    /// Creates an empty window.
    #[must_use]
    pub fn new(cfg: DiagnosisConfig) -> Self {
        DiagnosisWindow {
            cfg,
            diffs: VecDeque::with_capacity(cfg.window),
        }
    }

    /// Records the difference for a newly received packet, evicting the
    /// oldest entry once `W` packets are held.
    pub fn push(&mut self, diff: f64) {
        if self.diffs.len() == self.cfg.window {
            self.diffs.pop_front();
        }
        self.diffs.push_back(diff);
    }

    /// The current window sum `Σ(B_exp − B_act)`.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.diffs.iter().sum()
    }

    /// Whether the window currently exceeds `THRESH` — the "Misbehaving"
    /// designation of §4.3.
    #[must_use]
    pub fn is_flagged(&self) -> bool {
        self.sum() > self.cfg.thresh
    }

    /// Number of differences currently held (≤ `W`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.diffs.len()
    }

    /// True when no packets have been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diffs.is_empty()
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> DiagnosisConfig {
        self.cfg
    }

    /// The held differences, oldest first — the window's complete
    /// serializable state (checkpointing and crash-preservation
    /// round-trip through this).
    #[must_use]
    pub fn diffs(&self) -> Vec<f64> {
        self.diffs.iter().copied().collect()
    }

    /// Rebuilds a window from previously exported [`diffs`]. Extra
    /// leading entries beyond `W` are evicted exactly as live pushes
    /// would have evicted them, so a restore can never hold more
    /// history than the running window did.
    ///
    /// [`diffs`]: DiagnosisWindow::diffs
    #[must_use]
    pub fn restore(cfg: DiagnosisConfig, diffs: &[f64]) -> Self {
        let mut w = DiagnosisWindow::new(cfg);
        for &d in diffs {
            w.push(d);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn window_evicts_oldest() {
        let mut w = DiagnosisWindow::new(DiagnosisConfig::new(3, 10.0));
        for d in [1.0, 2.0, 3.0, 4.0] {
            w.push(d);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.sum(), 9.0, "1.0 evicted");
    }

    #[test]
    fn threshold_is_strict() {
        let mut w = DiagnosisWindow::new(DiagnosisConfig::paper_default());
        for _ in 0..5 {
            w.push(4.0);
        }
        assert_eq!(w.sum(), 20.0);
        assert!(!w.is_flagged(), "sum must *exceed* THRESH");
        w.push(4.1);
        assert!(w.is_flagged());
    }

    #[test]
    fn negative_differences_offset_positive_ones() {
        // A well-behaved node seen 10 slots short once but 10 slots long
        // later nets out to zero — the reason the paper sums signed
        // differences.
        let mut w = DiagnosisWindow::new(DiagnosisConfig::paper_default());
        w.push(25.0);
        assert!(w.is_flagged());
        w.push(-25.0);
        assert!(!w.is_flagged());
    }

    #[test]
    fn empty_window_is_never_flagged() {
        let w = DiagnosisWindow::new(DiagnosisConfig::paper_default());
        assert!(w.is_empty());
        assert!(!w.is_flagged());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_window_rejected() {
        let _ = DiagnosisConfig::new(0, 20.0);
    }

    #[test]
    fn restore_round_trips_and_bounds_history() {
        let cfg = DiagnosisConfig::new(3, 10.0);
        let mut w = DiagnosisWindow::new(cfg);
        for d in [1.0, 2.0, 3.0, 4.0] {
            w.push(d);
        }
        let restored = DiagnosisWindow::restore(cfg, &w.diffs());
        assert_eq!(restored.diffs(), w.diffs());
        assert_eq!(restored.sum(), w.sum());
        // Oversized exports evict exactly like live pushes would.
        let over = DiagnosisWindow::restore(cfg, &[9.0, 1.0, 2.0, 3.0]);
        assert_eq!(over.diffs(), vec![1.0, 2.0, 3.0]);
    }

    proptest! {
        #[test]
        fn sum_equals_last_w_diffs(diffs in proptest::collection::vec(-100.0f64..100.0, 1..40)) {
            let cfg = DiagnosisConfig::paper_default();
            let mut w = DiagnosisWindow::new(cfg);
            for &d in &diffs {
                w.push(d);
            }
            let tail: f64 = diffs.iter().rev().take(cfg.window).sum();
            prop_assert!((w.sum() - tail).abs() < 1e-9);
            prop_assert!(w.len() <= cfg.window);
        }

        #[test]
        fn persistent_cheater_always_flagged(per_packet in 4.1f64..50.0) {
            // Any steady positive difference above THRESH/W slots flags
            // within W packets.
            let cfg = DiagnosisConfig::paper_default();
            let mut w = DiagnosisWindow::new(cfg);
            for _ in 0..cfg.window {
                w.push(per_packet);
            }
            prop_assert!(w.is_flagged());
        }
    }
}
