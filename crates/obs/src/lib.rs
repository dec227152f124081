//! Typed telemetry for the airguard stack.
//!
//! The simulator's original instrumentation was a stringly-typed trace
//! bus: every call site formatted an ad-hoc `String` and pushed it
//! through a mutex, even when tracing was off. This crate replaces that
//! with three first-class pieces:
//!
//! * **Typed events** ([`ObsEvent`], [`Record`], [`Category`]) — MAC and
//!   PHY transitions carry structured fields (`assigned_slots`,
//!   `observed_slots`, sequence numbers, …) instead of prose, so they
//!   can be aggregated, filtered, and exported without parsing.
//! * **A lock-free fast path** ([`EventSink`]) — emission tests the
//!   handle's fixed category bitmask before any allocation or lock;
//!   when a category is disabled the cost is one mask test. MAC, PHY
//!   and the runner emit straight into it.
//! * **A metrics registry** ([`Registry`], [`Counter`], [`Histogram`])
//!   — named monotonic counters and fixed-bucket histograms,
//!   snapshotable as deterministic `BTreeMap`s and exportable as JSON
//!   via [`RunSummary`].
//!
//! The crate is a dependency leaf: it speaks raw scalars (`time_us`,
//! `node: u32`) so every layer of the stack — including `airguard-sim`
//! itself — can depend on it without cycles.
//!
//! On top of the flat stream sit the causal layers added for the
//! detection-latency work:
//!
//! * **Exchange ids** ([`exchange_id`]) — every handshake leg and
//!   monitor verdict carries a packed `(src, seq)` id, so the stream
//!   folds back into per-exchange/per-station spans ([`SpanSet`]) and
//!   onset→penalty→diagnosis latencies fall out in virtual time.
//! * **Phase profiling** ([`PhaseProfiler`], [`Phase`]) — scoped wall
//!   timers for the hot loop with the same mask-test zero-cost
//!   disabled path as [`EventSink`].
//! * **Timeline export** ([`records_to_chrome_trace`]) — the
//!   virtual-time stream as Chrome trace-event JSON for Perfetto.
//!
//! Being the base crate, it also holds the pieces every layer shares:
//! the one batch worker pool ([`pool::run_tasks`], behind the experiment
//! engine, the shard runner and the lint engine) and the one FNV-1a
//! ([`fnv1a`]).
//!
//! # Determinism
//!
//! Reports and JSONL export use virtual time only and `BTreeMap`
//! ordering throughout; two runs with the same seed produce
//! byte-identical output. See DESIGN.md §9.

#![forbid(unsafe_code)]

mod event;
mod json;
mod perfetto;
pub mod pool;
mod profile;
mod progress;
mod registry;
mod report;
mod sink;
mod span;

pub use event::{exchange_id, exchange_seq, exchange_src, Category, ObsEvent, Record, NO_NODE};
pub use json::{escape_into, u64_array, JsonObject};
pub use perfetto::records_to_chrome_trace;
pub use profile::{Phase, PhaseGuard, PhaseProfiler};
pub use progress::{Progress, ProgressSnapshot};
pub use registry::{Counter, Histogram, HistogramSnapshot, Registry, RegistrySnapshot};
pub use report::{
    aggregate_summaries, fnv1a, fnv1a_hex, record_to_json, records_to_jsonl, RunSummary,
};
pub use sink::EventSink;
pub use span::{
    detector_latency_hists, ExchangeSpan, SpanSet, StationSpan, DETECTION_LATENCY_BOUNDS_US,
    DETECTION_OBSERVE_MASK, DIAGNOSIS_LATENCY_HIST, PENALTY_LATENCY_HIST,
};
