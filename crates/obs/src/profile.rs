//! Scoped phase timers for the simulation hot path.
//!
//! A [`PhaseProfiler`] accumulates wall-clock nanoseconds per
//! [`Phase`] behind the same mask discipline as
//! [`crate::EventSink`]: [`PhaseProfiler::scope`] loads one relaxed
//! atomic and, when the phase's bit is clear, returns an inert guard —
//! no clock read, no stores, nothing on drop. The hot loop can
//! therefore keep its guards in place permanently and pay only one
//! load per phase per event when profiling is off (BENCH_hotpath.json
//! gates the budget at ≤ 3%).
//!
//! Wall-clock time never enters any deterministic export: profiler
//! output goes to stderr reports and diagnostics only (DESIGN.md §9).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A named section of the per-event simulation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Popping the next event off the slab scheduler.
    SchedulerPop = 0,
    /// Sampling the medium and scheduling listener receptions.
    MediumPropagation = 1,
    /// Driving one MAC effect-machine step.
    MacStep = 2,
    /// Receiver-side monitor classification and policy observation.
    MonitorStep = 3,
    /// Building the shard plan: tile index, union-find, component
    /// sub-topology construction.
    ShardBuild = 4,
    /// Merging per-component reports back into one run report.
    ShardMerge = 5,
}

impl Phase {
    /// All phases, in bit order.
    pub const ALL: [Phase; 6] = [
        Phase::SchedulerPop,
        Phase::MediumPropagation,
        Phase::MacStep,
        Phase::MonitorStep,
        Phase::ShardBuild,
        Phase::ShardMerge,
    ];

    /// This phase's bit in the profiler enable mask.
    #[must_use]
    pub const fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Stable snake_case name (used in reports and CI greps).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Phase::SchedulerPop => "scheduler_pop",
            Phase::MediumPropagation => "medium_propagation",
            Phase::MacStep => "mac_step",
            Phase::MonitorStep => "monitor_step",
            Phase::ShardBuild => "shard_build",
            Phase::ShardMerge => "shard_merge",
        }
    }
}

/// Mask with every phase bit set.
const ALL_ON: u32 = {
    let mut mask = 0u32;
    let mut i = 0;
    while i < Phase::ALL.len() {
        mask |= Phase::ALL[i].bit();
        i += 1;
    }
    mask
};

#[derive(Debug)]
struct ProfilerInner {
    /// Per-phase enable bits; zero means fully disabled.
    mask: AtomicU32,
    /// Accumulated wall nanoseconds per phase.
    nanos: [AtomicU64; 6],
    /// Completed scopes per phase.
    calls: [AtomicU64; 6],
}

/// Shared, thread-safe accumulator of per-phase wall time.
///
/// Clones share the same accumulators and enable mask, mirroring
/// [`crate::EventSink`]'s sharing model.
#[derive(Debug, Clone)]
pub struct PhaseProfiler {
    inner: Arc<ProfilerInner>,
}

impl PhaseProfiler {
    /// A profiler with every phase disabled (scopes are no-ops).
    #[must_use]
    pub fn new() -> Self {
        Self::with_mask(0)
    }

    /// A profiler with every phase enabled.
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_mask(ALL_ON)
    }

    /// A profiler with exactly the given phase bits enabled.
    #[must_use]
    pub fn with_mask(mask: u32) -> Self {
        PhaseProfiler {
            inner: Arc::new(ProfilerInner {
                mask: AtomicU32::new(mask),
                nanos: [
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                ],
                calls: [
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                ],
            }),
        }
    }

    /// True when at least one phase is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.mask.load(Ordering::Relaxed) != 0
    }

    /// Enables (`true`) or disables (`false`) every phase.
    pub fn set_enabled(&self, on: bool) {
        self.inner
            .mask
            .store(if on { ALL_ON } else { 0 }, Ordering::Relaxed);
    }

    /// Starts timing `phase`; the returned guard adds the elapsed wall
    /// time on drop. When the phase is disabled this is one relaxed
    /// atomic load and the guard is inert.
    #[must_use]
    pub fn scope(&self, phase: Phase) -> PhaseGuard<'_> {
        let start = if self.inner.mask.load(Ordering::Relaxed) & phase.bit() == 0 {
            None
        } else {
            Some(Instant::now())
        };
        PhaseGuard {
            profiler: self,
            phase,
            start,
        }
    }

    /// Accumulated `(wall nanoseconds, completed scopes)` for `phase`.
    #[must_use]
    pub fn totals(&self, phase: Phase) -> (u64, u64) {
        let i = phase as usize;
        (
            self.inner.nanos[i].load(Ordering::Relaxed),
            self.inner.calls[i].load(Ordering::Relaxed),
        )
    }

    /// Resets every accumulator; the enable mask is unchanged.
    pub fn clear(&self) {
        for i in 0..Phase::ALL.len() {
            self.inner.nanos[i].store(0, Ordering::Relaxed);
            self.inner.calls[i].store(0, Ordering::Relaxed);
        }
    }

    /// Human-readable multi-line report, one line per phase:
    /// `profile scheduler_pop: 12.345ms over 678 calls`.
    ///
    /// Diagnostic output only — contains wall time, so it must never
    /// be written into a deterministic export.
    #[must_use]
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for phase in Phase::ALL {
            let (nanos, calls) = self.totals(phase);
            let _ = writeln!(
                out,
                "profile {}: {:.3}ms over {} calls",
                phase.name(),
                nanos as f64 / 1e6,
                calls
            );
        }
        out
    }
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        PhaseProfiler::new()
    }
}

/// Guard returned by [`PhaseProfiler::scope`]; accumulates on drop.
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    profiler: &'a PhaseProfiler,
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let i = self.phase as usize;
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.profiler.inner.nanos[i].fetch_add(nanos, Ordering::Relaxed);
            self.profiler.inner.calls[i].fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Phase, PhaseProfiler, ALL_ON};

    #[test]
    fn phase_bits_are_distinct() {
        let mut mask = 0u32;
        for phase in Phase::ALL {
            assert_eq!(mask & phase.bit(), 0, "{phase:?} bit collides");
            mask |= phase.bit();
        }
        assert_eq!(mask, ALL_ON);
    }

    #[test]
    fn disabled_scope_records_nothing() {
        let profiler = PhaseProfiler::new();
        for _ in 0..1000 {
            let _guard = profiler.scope(Phase::MacStep);
        }
        assert_eq!(profiler.totals(Phase::MacStep), (0, 0));
        assert!(!profiler.is_enabled());
    }

    #[test]
    fn enabled_scope_accumulates_time_and_calls() {
        let profiler = PhaseProfiler::enabled();
        for _ in 0..10 {
            let _guard = profiler.scope(Phase::SchedulerPop);
        }
        let (_nanos, calls) = profiler.totals(Phase::SchedulerPop);
        assert_eq!(calls, 10);
        assert_eq!(profiler.totals(Phase::MonitorStep).1, 0);
    }

    #[test]
    fn per_phase_mask_gates_individually() {
        let profiler = PhaseProfiler::with_mask(Phase::MacStep.bit());
        {
            let _a = profiler.scope(Phase::MacStep);
            let _b = profiler.scope(Phase::SchedulerPop);
        }
        assert_eq!(profiler.totals(Phase::MacStep).1, 1);
        assert_eq!(profiler.totals(Phase::SchedulerPop).1, 0);
    }

    #[test]
    fn clones_share_accumulators_and_clear_keeps_mask() {
        let profiler = PhaseProfiler::new();
        let clone = profiler.clone();
        clone.set_enabled(true);
        {
            let _guard = profiler.scope(Phase::MonitorStep);
        }
        assert_eq!(clone.totals(Phase::MonitorStep).1, 1);
        clone.clear();
        assert_eq!(profiler.totals(Phase::MonitorStep), (0, 0));
        assert!(profiler.is_enabled());
    }

    #[test]
    fn report_names_every_phase() {
        let report = PhaseProfiler::enabled().report();
        for phase in Phase::ALL {
            assert!(report.contains(phase.name()), "{} missing", phase.name());
        }
        assert_eq!(report.lines().count(), Phase::ALL.len());
    }
}
