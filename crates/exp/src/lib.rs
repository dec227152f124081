//! `airguard-exp` — the unified experiment engine.
//!
//! The paper's evaluation (§5) is a family of parameter sweeps averaged
//! over a common seed set. This crate owns that shape end to end:
//!
//! * [`sweep`] — the declarative model: an [`Experiment`] is a grid of
//!   [`Point`]s addressed by named [`Axes`], plus a render function;
//! * [`cache`] — a content-addressed result cache keyed by the
//!   scenario's FNV-1a config digest plus seed, so re-running a figure
//!   after an unrelated change reuses completed runs (bit-exactly);
//! * [`engine`] — ties the two together: load-balances the *entire*
//!   `(point, seed)` grid across cores on the workspace's one worker
//!   pool ([`airguard_obs::pool`]: per-task panic isolation,
//!   index-ordered and therefore deterministic collection) and produces
//!   tables, CSV, telemetry report lines, and per-cell failure
//!   accounting, with per-cell watchdog budgets and bounded
//!   retry-with-reseed;
//! * [`manifest`] — a crash-safe append-only progress journal so a
//!   killed sweep resumes instead of restarting;
//! * [`table`] — the console/CSV render target (moved from
//!   `airguard-bench`).
//!
//! The figure registrations themselves live in `airguard-bench`
//! (`figures/`), one layer above; this crate knows nothing about which
//! figures exist.

#![forbid(unsafe_code)]

pub mod cache;
pub mod cell;
pub mod engine;
pub mod manifest;
pub mod sweep;
pub mod table;

pub use cache::ResultCache;
pub use cell::{metric, CellMetrics};
pub use engine::{
    retry_seed, run_experiment, run_experiment_with, run_seeds, simulate_cell,
    simulate_cell_budgeted, CellFailure, ExperimentOutcome, RunOptions, ATTEMPTS_COUNTER,
};
pub use manifest::{ManifestEntry, SweepManifest};
pub use sweep::{Axes, Experiment, ExperimentResult, Figure, Point, PointResult, Rendered};
pub use table::{f2, kbps, write_report_jsonl, Table};
