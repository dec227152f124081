//! One Criterion bench per table/figure of the paper, at reduced scale
//! (1 simulated second, 1 seed) so `cargo bench` exercises every
//! experiment's full code path. The full-scale numbers come from
//! `airguard-bench --figure <name>`
//! (`cargo run --release -p airguard-bench -- --figure fig4` etc.) and
//! are recorded in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};

use airguard_mac::Selfish;
use airguard_net::{Protocol, ScenarioConfig, StandardScenario};

fn quick(sc: StandardScenario, proto: Protocol, pm: f64) -> ScenarioConfig {
    ScenarioConfig::new(sc)
        .protocol(proto)
        .misbehavior_percent(pm)
        .sim_time_secs(1)
}

fn bench_intro_claim(c: &mut Criterion) {
    c.bench_function("intro_claim/quarter_window_802.11", |b| {
        b.iter(|| {
            ScenarioConfig::new(StandardScenario::ZeroFlow)
                .protocol(Protocol::Dot11)
                .strategy(Selfish::QuarterWindow)
                .sim_time_secs(1)
                .seed(1)
                .run()
        });
    });
}

fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_diagnosis_accuracy");
    g.sample_size(10);
    g.bench_function("zero_flow_pm50", |b| {
        b.iter(|| {
            quick(StandardScenario::ZeroFlow, Protocol::Correct, 50.0)
                .seed(1)
                .run()
        });
    });
    g.bench_function("two_flow_pm50", |b| {
        b.iter(|| {
            quick(StandardScenario::TwoFlow, Protocol::Correct, 50.0)
                .seed(1)
                .run()
        });
    });
    g.finish();
}

fn bench_fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_throughput_vs_pm");
    g.sample_size(10);
    g.bench_function("dot11_pm80", |b| {
        b.iter(|| {
            quick(StandardScenario::ZeroFlow, Protocol::Dot11, 80.0)
                .seed(1)
                .run()
        });
    });
    g.bench_function("correct_pm80", |b| {
        b.iter(|| {
            quick(StandardScenario::ZeroFlow, Protocol::Correct, 80.0)
                .seed(1)
                .run()
        });
    });
    g.finish();
}

fn bench_fig6_fig7(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_fig7_network_size");
    g.sample_size(10);
    for n in [1usize, 8, 32] {
        g.bench_function(format!("zero_flow_n{n}"), |b| {
            b.iter(|| {
                let r = quick(StandardScenario::ZeroFlow, Protocol::Correct, 0.0)
                    .n_senders(n)
                    .seed(1)
                    .run();
                (r.avg_throughput_bps(), r.fairness_index())
            });
        });
    }
    g.finish();
}

fn bench_fig8(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_responsiveness");
    g.sample_size(10);
    g.bench_function("two_flow_pm80_series", |b| {
        b.iter(|| {
            let r = quick(StandardScenario::TwoFlow, Protocol::Correct, 80.0)
                .seed(1)
                .run();
            r.series
                .bins()
                .iter()
                .map(airguard_metrics::series::Bin::percent)
                .sum::<f64>()
        });
    });
    g.finish();
}

fn bench_fig9(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_random_topology");
    g.sample_size(10);
    g.bench_function("correct_pm50", |b| {
        b.iter(|| {
            quick(StandardScenario::Random, Protocol::Correct, 50.0)
                .seed(1)
                .run()
        });
    });
    g.finish();
}

criterion_group!(
    figures,
    bench_intro_claim,
    bench_fig4,
    bench_fig5,
    bench_fig6_fig7,
    bench_fig8,
    bench_fig9
);
criterion_main!(figures);
