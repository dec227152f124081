//! Wall-clock comparison of the two fan-out shapes over a synthetic
//! sleep workload:
//!
//! * **chunked** — the old harness: each grid point fans its seeds out
//!   and *joins before the next point starts* (a barrier per point);
//! * **global queue** — the engine: every `(point, seed)` cell goes
//!   into one work-stealing queue with no barriers.
//!
//! Cells sleep instead of simulating, so the comparison measures pure
//! scheduling: sleeping threads do not contend for CPU, which makes the
//! numbers meaningful even on a single-core host. The grid is shaped
//! like a real sweep — per-cell cost grows with the point index (larger
//! networks simulate slower) and the seed count is not a multiple of
//! the worker count — which is exactly where per-point barriers idle
//! workers on every wave.
//!
//! Run with: `cargo run --release -p airguard-exp --example scaling_demo`

use std::time::{Duration, Instant};

use airguard_obs::pool::run_tasks;

const POINTS: usize = 6;
const SEEDS: usize = 5;
const WORKERS: usize = 4;

/// Per-cell cost of grid point `p`: 20 ms … 120 ms.
fn cell_duration(p: usize) -> Duration {
    Duration::from_millis(20 * (p as u64 + 1))
}

/// The old shape: one fan-out + join barrier per point.
fn chunked() -> Duration {
    let start = Instant::now();
    for p in 0..POINTS {
        let results = run_tasks((0..SEEDS).collect(), WORKERS, |_seed| {
            std::thread::sleep(cell_duration(p));
        });
        assert!(results.iter().all(Result::is_ok));
    }
    start.elapsed()
}

/// The engine's shape: every cell in one global queue.
fn global_queue() -> Duration {
    let start = Instant::now();
    let results = run_tasks((0..POINTS * SEEDS).collect(), WORKERS, |i| {
        std::thread::sleep(cell_duration(i / SEEDS));
    });
    assert!(results.iter().all(Result::is_ok));
    start.elapsed()
}

fn main() {
    let total: Duration = (0..POINTS).map(|p| cell_duration(p) * SEEDS as u32).sum();
    println!(
        "grid: {POINTS} points x {SEEDS} seeds, {WORKERS} workers, {:.2} s of cell work",
        total.as_secs_f64()
    );
    let chunked = chunked();
    let global = global_queue();
    println!(
        "chunked (barrier per point): {:.3} s",
        chunked.as_secs_f64()
    );
    println!("global work-stealing queue:  {:.3} s", global.as_secs_f64());
    println!(
        "speedup: {:.2}x (ideal floor {:.3} s)",
        chunked.as_secs_f64() / global.as_secs_f64(),
        total.as_secs_f64() / WORKERS as f64
    );
}
