//! # upp-tracetools — latency-attribution analysis toolchain
//!
//! Turns the simulator's raw telemetry (flight-recorder JSONL traces, or a
//! streaming in-process feed from `upp_noc::profile::SpanRecorder`) into
//! answers:
//!
//! * [`Histogram`] — mergeable log-bucketed latency histograms with
//!   exact-count merge and a documented 1/64 relative-error bound (the
//!   simulator's own `upp_noc::obs::ObsHistogram`, re-exported);
//! * [`summary::ProfileSummary`] — per-phase latency attribution
//!   (injection queueing, VC-allocation wait, switch-allocation wait,
//!   credit-blocked, UPP wait-ack/locate/pop, link serialization),
//!   per-router and per-link contention counters, and the slowest packets
//!   for critical-path analysis, with deterministic JSON round-tripping;
//! * [`render`] — analysis reports, contention heatmaps (CSV + SVG via
//!   `upp_noc::viz`), critical-path listings and run-vs-run diffs;
//! * [`obs`] — per-metric reports, time-series CSV and SVG over the
//!   protocol-state telemetry written by `simulate --obs`/`--obs-every`
//!   (`upp_noc::obs` summaries and epoch streams);
//! * [`alerts`] — tables, CSV timelines and SVG lane charts over the
//!   `upp-alerts/v1` health-monitor streams written by
//!   `simulate --watch-out` (`upp_noc::watch`);
//! * the `upp-trace` CLI (`analyze`, `heatmap`, `critical-path`, `diff`,
//!   `obs`, `alerts`, `live`) over all input shapes.
//!
//! The streaming path matters at scale: `simulate --profile` folds spans
//! into a [`summary::ProfileSummary`] as the run progresses, so a
//! million-packet run emits one small JSON document instead of a
//! multi-gigabyte trace file — and `upp-trace` consumes either
//! interchangeably.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alerts;
pub mod events;
pub mod obs;
pub mod render;
pub mod summary;

pub use alerts::AlertsReport;
pub use obs::ObsReport;
pub use summary::{PhaseTotals, ProfileSummary};
pub use upp_noc::obs::ObsHistogram as Histogram;
