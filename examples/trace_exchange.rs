//! Watch the protocol breathe: a traced two-node exchange.
//!
//! Wires up one sender and one receiver by hand (no scenario presets),
//! attaches an event sink, runs a quarter of a second, and prints the
//! frame-by-frame timeline — RTS, CTS carrying the assigned backoff,
//! DATA, ACK — exactly the Fig. 1 interaction of the paper.
//!
//! Run with: `cargo run --release --example trace_exchange`
//!
//! Set `AIRGUARD_JSONL=<path>` to also export the typed event records
//! as JSON Lines (one event object per line), ready for `jq` or any
//! log pipeline.

use airguard::core::CorrectConfig;
use airguard::mac::Selfish;
use airguard::net::topology::Flow;
use airguard::net::{NodePolicy, Simulation, SimulationConfig, Topology};
use airguard::obs::{records_to_jsonl, EventSink};
use airguard::phy::{PhyConfig, Position};
use airguard::sim::{MasterSeed, NodeId, SimDuration};

fn main() {
    let topology = Topology {
        positions: vec![Position::new(0.0, 0.0), Position::new(150.0, 0.0)],
        flows: vec![Flow {
            src: NodeId::new(1),
            dst: NodeId::new(0),
            rate_bps: 2_000_000,
            payload: 512,
            measured: true,
        }],
    };
    let policies = vec![
        NodePolicy::correct(
            NodeId::new(0),
            CorrectConfig::paper_default(),
            Selfish::None,
        ),
        NodePolicy::correct(
            NodeId::new(1),
            CorrectConfig::paper_default(),
            Selfish::None,
        ),
    ];
    let cfg = SimulationConfig {
        phy: PhyConfig::deterministic(),
        horizon: SimDuration::from_millis(250),
        seed: MasterSeed::new(5),
        ..SimulationConfig::default()
    };
    let mut sim = Simulation::new(cfg, topology, policies, vec![]);
    let sink = EventSink::enabled();
    sim.set_sink(sink.clone());
    let report = sim.run();
    let records = sink.records();

    println!("frame-level timeline (first 30 events):\n");
    for r in records.iter().take(30) {
        let (t, cat, node) = (r.time_us, r.event.category().name(), r.node);
        println!("  [{t}us] {cat}: n{node}: {}", r.event);
    }
    println!(
        "\ndelivered {} packets in {} ms of virtual time",
        report.throughput.total_bytes() / 512,
        report.elapsed.as_micros() / 1000
    );

    if let Ok(path) = std::env::var("AIRGUARD_JSONL") {
        std::fs::write(&path, records_to_jsonl(&records)).expect("write JSONL export");
        println!("wrote {} typed events to {path}", records.len());
        println!("run summary: {}", report.summary.to_json());
    }
}
