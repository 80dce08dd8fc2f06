//! # upp-bench — the benchmark harness
//!
//! Regenerates every table and figure of the paper's evaluation section:
//!
//! | id | artifact |
//! |---|---|
//! | `table1` | qualitative scheme comparison |
//! | `table2` | simulation configuration |
//! | `fig7`   | synthetic latency curves, baseline system |
//! | `fig8`   | normalized full-system runtime |
//! | `fig9`   | 128-node system latency |
//! | `fig10`  | boundary-router sensitivity |
//! | `fig11`  | faulty systems |
//! | `fig12`  | upward packet counts |
//! | `fig13`  | detection-threshold sensitivity |
//! | `fig14`  | hardware overhead |
//! | `fig15`  | normalized energy |
//!
//! Run `cargo run --release -p upp-bench --bin repro -- all` for the full
//! reproduction, or pass individual ids (add `--quick` for a fast pass).
//! A library caller builds an [`experiments::Context`] (mode plus
//! [`sweep::SweepEngine`]) and hands it to [`run`]; nothing is configured
//! through process state. Wall-clock numbers come from the stand-alone
//! `benchmark/` package (`BENCHMARK.json`), not from this crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod report;
pub mod sweep;

pub use experiments::{run, Context, ALL_IDS};
pub use report::ExperimentResult;
