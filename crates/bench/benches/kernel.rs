//! Micro-benchmarks of the simulator's hot paths: event queue churn,
//! per-listener channel sampling, reception tracking, the deterministic
//! retry function, monitor bookkeeping, and whole-simulation event rate.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::RngExt;

use airguard_core::retry_fn;
use airguard_mac::MacTiming;
use airguard_phy::{Medium, PhyConfig, Position};
use airguard_sim::{EventId, MasterSeed, NodeId, Scheduler, SimDuration};

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut s = Scheduler::new();
            for i in 0..10_000u64 {
                s.schedule_at(airguard_sim::SimTime::from_micros((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = s.pop() {
                acc = acc.wrapping_add(v);
            }
            acc
        });
    });
    g.bench_function("schedule_cancel_10k", |b| {
        b.iter(|| {
            let mut s = Scheduler::new();
            let ids: Vec<_> = (0..10_000u64)
                .map(|i| s.schedule_in(SimDuration::from_micros(i + 1), i))
                .collect();
            for id in ids {
                s.cancel(id);
            }
            s.len()
        });
    });
    bench_timer_churn(&mut g);
    g.finish();
}

/// Pops per `timer_churn` iteration.
const CHURN_POPS: usize = 10_000;
/// Events pending when `timer_churn` starts, and on average throughout.
const CHURN_PENDING: u64 = 40;

/// A timeout delay: 2–4 ms.
fn churn_timeout(rng: &mut impl RngExt) -> u64 {
    rng.random_range(2_000..4_000)
}

/// The delay of a popped event's successor. Together with the timeouts
/// (0.16 per pop) this gives the simulator's recorded schedule mix
/// (fig4): 21% at 1 µs, 11% at 2–3 µs, 36% at 256–511 µs (backoff and
/// frame airtime), 24% at 2–4 ms, the rest up to 16 ms.
fn churn_delay(rng: &mut impl RngExt) -> u64 {
    match rng.random_range(0..100u32) {
        0..24 => 1,
        24..37 => rng.random_range(2..4),
        37..79 => rng.random_range(256..512),
        79..91 => churn_timeout(rng),
        _ => rng.random_range(1..16_000),
    }
}

/// The scheduler under the simulator's real load rather than a deep
/// queue: ~40 events pending, and per pop ~1.16 schedules and ~0.16
/// cancels. Each popped event schedules its successor; on 16% of pops a
/// timeout is armed as well and the previously armed one is cancelled
/// (a timeout that fired first schedules no successor, so the pending
/// count holds steady either way).
fn bench_timer_churn(g: &mut criterion::BenchmarkGroup<'_>) {
    let mut stream = MasterSeed::new(1).stream("bench", 0);
    let rng = stream.rng();
    // Drawn once, outside the timed loop.
    let steps: Vec<(u64, Option<u64>)> = (0..CHURN_POPS)
        .map(|_| {
            let arm = rng.random_range(0..100u32) < 16;
            (churn_delay(rng), arm.then(|| churn_timeout(rng)))
        })
        .collect();
    let warm: Vec<u64> = (0..CHURN_PENDING).map(|_| churn_delay(rng)).collect();
    g.throughput(Throughput::Elements(CHURN_POPS as u64));
    g.bench_function("timer_churn", |b| {
        b.iter(|| {
            let mut s = Scheduler::new();
            for &delay in &warm {
                s.schedule_in(SimDuration::from_micros(delay), false);
            }
            let mut armed: Option<EventId> = None;
            let mut fired = 0u64;
            for &(delay, timeout) in &steps {
                let Some((_, was_timeout)) = s.pop() else {
                    break;
                };
                fired += 1;
                if !was_timeout {
                    s.schedule_in(SimDuration::from_micros(delay), false);
                }
                if let Some(timeout) = timeout {
                    if let Some(old) = armed {
                        s.cancel(old);
                    }
                    armed = Some(s.schedule_in(SimDuration::from_micros(timeout), true));
                }
            }
            (fired, s.len())
        });
    });
}

fn bench_medium(c: &mut Criterion) {
    let mut g = c.benchmark_group("medium");
    // 64 listeners scattered across sense range.
    let positions: Vec<Position> = (0..65)
        .map(|i| Position::new(f64::from(i) * 12.0, 0.0))
        .collect();
    let mut medium = Medium::new(
        PhyConfig::paper_default(),
        positions,
        MasterSeed::new(1).stream("bench", 0),
    );
    g.throughput(Throughput::Elements(64));
    g.bench_function("start_tx_64_listeners", |b| {
        b.iter(|| medium.start_tx(NodeId::new(0)).listeners.len());
    });
    g.finish();
}

fn bench_retry_fn(c: &mut Criterion) {
    let timing = MacTiming::dsss_2mbps();
    c.bench_function("retry_fn/expected_total_attempt7", |b| {
        b.iter(|| retry_fn::expected_total_backoff(17, NodeId::new(5), 7, &timing));
    });
}

fn bench_full_sim(c: &mut Criterion) {
    use airguard_net::{Protocol, ScenarioConfig, StandardScenario};
    let mut g = c.benchmark_group("full_sim");
    g.sample_size(10);
    // ~45k scheduler events per simulated second in this configuration.
    g.bench_function("two_flow_correct_1s", |b| {
        b.iter(|| {
            ScenarioConfig::new(StandardScenario::TwoFlow)
                .protocol(Protocol::Correct)
                .misbehavior_percent(50.0)
                .sim_time_secs(1)
                .seed(1)
                .run()
                .events
        });
    });
    g.finish();
}

criterion_group!(
    kernel,
    bench_scheduler,
    bench_medium,
    bench_retry_fn,
    bench_full_sim
);
criterion_main!(kernel);
