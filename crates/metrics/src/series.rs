//! Time-binned classification series (Fig. 8).
//!
//! Fig. 8 plots the correct-diagnosis percentage per one-second interval,
//! showing how quickly the scheme starts flagging after time zero.
//! [`TimeBinned`] buckets per-packet verdicts by arrival time.

use airguard_sim::{SimDuration, SimTime};

/// One bin's counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bin {
    /// Packets recorded in this bin.
    pub packets: u64,
    /// Flagged packets in this bin.
    pub flagged: u64,
}

impl Bin {
    /// Flagged percentage for this bin (0 when empty).
    #[must_use]
    pub fn percent(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            100.0 * self.flagged as f64 / self.packets as f64
        }
    }
}

/// Fixed-width time bins of classification outcomes.
///
/// ```
/// use airguard_metrics::TimeBinned;
/// use airguard_sim::{SimDuration, SimTime};
///
/// let mut s = TimeBinned::new(SimDuration::from_secs(1), SimDuration::from_secs(3));
/// s.record(SimTime::from_micros(1_500_000), true);
/// s.record(SimTime::from_micros(1_700_000), false);
/// assert_eq!(s.bins()[1].percent(), 50.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeBinned {
    width: SimDuration,
    bins: Vec<Bin>,
}

impl TimeBinned {
    /// Creates bins of `width` covering `[0, horizon)`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `horizon < width`.
    #[must_use]
    pub fn new(width: SimDuration, horizon: SimDuration) -> Self {
        assert!(!width.is_zero(), "bin width must be positive");
        let count = horizon / width;
        assert!(count > 0, "horizon must cover at least one bin");
        TimeBinned {
            width,
            bins: vec![Bin::default(); count as usize],
        }
    }

    /// Records a verdict at time `at`. Events at or beyond the horizon are
    /// folded into the last bin.
    pub fn record(&mut self, at: SimTime, flagged: bool) {
        let idx = (at.saturating_since(SimTime::ZERO) / self.width) as usize;
        let idx = idx.min(self.bins.len() - 1);
        self.bins[idx].packets += 1;
        if flagged {
            self.bins[idx].flagged += 1;
        }
    }

    /// The bins, in time order.
    #[must_use]
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// Bin width.
    #[must_use]
    pub fn width(&self) -> SimDuration {
        self.width
    }

    /// Merges another series with identical geometry into this one
    /// (used to pool the 30 runs of Fig. 8).
    ///
    /// # Panics
    ///
    /// Panics if the two series have different width or bin count.
    pub fn merge(&mut self, other: &TimeBinned) {
        assert_eq!(self.width, other.width, "mismatched bin widths");
        assert_eq!(self.bins.len(), other.bins.len(), "mismatched bin counts");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            a.packets += b.packets;
            a.flagged += b.flagged;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn events_land_in_their_bins() {
        let mut s = TimeBinned::new(secs(1), secs(5));
        s.record(SimTime::from_micros(0), true);
        s.record(SimTime::from_micros(999_999), false);
        s.record(SimTime::from_secs(3), true);
        assert_eq!(s.bins()[0].packets, 2);
        assert_eq!(s.bins()[0].flagged, 1);
        assert_eq!(s.bins()[3].packets, 1);
        assert_eq!(s.bins()[1].packets, 0);
    }

    #[test]
    fn overflow_folds_into_last_bin() {
        let mut s = TimeBinned::new(secs(1), secs(2));
        s.record(SimTime::from_secs(50), true);
        assert_eq!(s.bins()[1].packets, 1);
    }

    #[test]
    fn percent_handles_empty_bins() {
        let s = TimeBinned::new(secs(1), secs(2));
        assert_eq!(s.bins()[0].percent(), 0.0);
    }

    #[test]
    fn merge_pools_runs() {
        let mut a = TimeBinned::new(secs(1), secs(2));
        let mut b = TimeBinned::new(secs(1), secs(2));
        a.record(SimTime::from_micros(10), true);
        b.record(SimTime::from_micros(20), false);
        b.record(SimTime::from_micros(30), true);
        a.merge(&b);
        assert_eq!(a.bins()[0].packets, 3);
        assert_eq!(a.bins()[0].flagged, 2);
    }

    #[test]
    #[should_panic(expected = "mismatched bin widths")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = TimeBinned::new(secs(1), secs(2));
        let b = TimeBinned::new(secs(2), secs(4));
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        let _ = TimeBinned::new(SimDuration::ZERO, secs(1));
    }
}
