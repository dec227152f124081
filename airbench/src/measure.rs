//! Measurement plumbing shared by every workload: the heap-peak
//! allocator, order statistics, clock and profiler calibration, and the
//! report a workload fills.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::time::{Duration, Instant};

use airguard_obs::{Phase, PhaseProfiler};

/// Heap accounting is on only inside [`heap_peak`]; elsewhere each
/// allocation pays one relaxed load.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Live heap bytes since accounting was switched on (frees of older
/// blocks drive it negative, which is growth semantics).
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Largest value `LIVE` reached since accounting was switched on.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator with optional live/peak byte accounting.
pub struct PeakAlloc;

fn account(delta: isize) {
    // Relaxed: the counters are statistics and publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the accounting touches only
// atomics and never the returned memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            account(signed(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            account(signed(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as `GlobalAlloc::dealloc` requires.
        unsafe { System.dealloc(ptr, layout) };
        account(-signed(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and `ptr` came from `System` with `layout`.
        let grown = unsafe { System.realloc(ptr, layout, new_size) };
        if !grown.is_null() {
            account(signed(new_size) - signed(layout.size()));
        }
        grown
    }
}

/// Runs `f` with heap accounting on; returns its result and the peak
/// growth of live heap bytes over the call, in megabytes (10^6 bytes).
pub fn heap_peak<T>(f: impl FnOnce() -> T) -> (T, f64) {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    let peak = PEAK.load(Ordering::SeqCst).max(0);
    (out, peak as f64 / 1e6)
}

/// Worker threads the machine offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `pct` (0–100) of an ascending sample.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99.99/p99.9/p99/p90/p50 that leaves at least ten
/// samples beyond it, for a sample of `n`.
pub fn tail_pct(n: usize) -> f64 {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Runs `rep` until `seconds` have passed and at least `min_reps`
/// repetitions are done; returns every repetition's result.
pub fn repeat_for<T>(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        out.push(rep()?);
    }
    Ok(out)
}

/// A note listing each repetition's wall seconds.
pub fn reps_note(workload: &str, walls: &[f64]) -> String {
    let walls: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    format!(
        "{workload}: {} timed repetitions, wall s: {}",
        walls.len(),
        walls.join(" ")
    )
}

/// Time one timed interval books when it encloses no work: the mean
/// gap between two back-to-back `Instant::now` reads, in nanoseconds.
pub fn clock_bias_ns() -> f64 {
    const N: u32 = 200_000;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut total = Duration::ZERO;
            for _ in 0..N {
                let a = Instant::now();
                let b = Instant::now();
                total += b - a;
            }
            total.as_nanos() as f64 / f64::from(N)
        })
        .collect();
    median(&samples)
}

/// Cost of one enabled, empty `PhaseProfiler::scope` guard.
#[derive(Debug, Clone, Copy)]
pub struct ScopeCost {
    /// Wall nanoseconds one scope adds to the run.
    pub wall_ns: f64,
    /// Nanoseconds one empty scope books to its phase; subtracted from
    /// every phase's raw per-call time.
    pub booked_ns: f64,
}

/// Times enabled, empty profiler scopes through the public API.
pub fn profiler_scope_cost() -> ScopeCost {
    const N: u64 = 200_000;
    let profiler = PhaseProfiler::enabled();
    let mut wall = Vec::new();
    let mut booked = Vec::new();
    for _ in 0..5 {
        profiler.clear();
        let started = Instant::now();
        for _ in 0..N {
            let guard = profiler.scope(Phase::MonitorStep);
            std::hint::black_box(&guard);
        }
        wall.push(started.elapsed().as_nanos() as f64 / N as f64);
        let (nanos, calls) = profiler.totals(Phase::MonitorStep);
        booked.push(nanos as f64 / calls.max(1) as f64);
    }
    ScopeCost {
        wall_ns: median(&wall),
        booked_ns: median(&booked),
    }
}

/// What one workload run produced: its metrics, its work count, and
/// every output check that failed.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name (units come from the declared lists).
    pub metrics: BTreeMap<String, f64>,
    /// Units of work attempted (cells, runs or feed records).
    pub attempted: u64,
    /// Units of work whose output failed a check or that the program
    /// failed unexpectedly.
    pub failed: u64,
    /// Descriptions of failed output checks.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Records the end-to-end figures that apply to only some
    /// workloads, as notes and as their per-layer entries.
    pub fn family_rate(&mut self, name: &str, unit: &str, value: f64) {
        self.notes.push(format!("{name}: {value:.1} {unit}"));
        self.set(name, value);
    }

    /// Records `failed_frac` with its base.
    pub fn failed_frac(&mut self, failed: u64, base: u64) {
        let frac = failed as f64 / base.max(1) as f64;
        self.notes
            .push(format!("failed_frac: {frac} ({failed} of {base})"));
        self.set("failed_frac", frac);
        self.set("failed_frac.base", base as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let ramp: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&ramp, 50.0), 50);
        assert_eq!(percentile(&ramp, 99.0), 99);
        assert_eq!(percentile(&ramp, 100.0), 100);
        assert_eq!(tail_pct(9_470), 99.0);
        assert_eq!(tail_pct(250_000), 99.99);
        assert_eq!(tail_pct(20), 50.0);
    }

    #[test]
    fn heap_peak_sees_a_live_allocation() {
        let (len, mb) = heap_peak(|| std::hint::black_box(vec![0u8; 3_000_000]).len());
        assert_eq!(len, 3_000_000);
        // Other test threads allocate and free meanwhile; allow for it.
        assert!(mb >= 2.5, "{mb}");
    }
}
