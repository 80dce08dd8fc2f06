//! Adversarial stress subsystem for the UPP simulator.
//!
//! `upp-verify` exists to catch recovery schemes *lying*: every deadlock
//! scheme in this workspace reports its own health (watchdogs, popup
//! counters, absorber stats), so a broken scheme could silently wedge or —
//! worse — drop, duplicate or misdeliver packets while its own telemetry
//! looks clean. This crate cross-checks the schemes with machinery that
//! shares none of their code paths:
//!
//! * [`oracle`] — a scheme-independent deadlock oracle that samples the
//!   network's true wait-for graph from buffer occupancy and flags any
//!   circular wait that persists beyond a threshold;
//! * [`traffic`] — deterministic pre-generated traffic traces, replayable
//!   packet-for-packet across schemes and runs;
//! * [`scenario`] — a self-contained JSON description of one adversarial
//!   run (system, scheme, traffic, dynamic fault plan) that can be saved,
//!   shipped in a bug report and replayed exactly;
//! * [`harness`] — runs a scenario to completion under the oracle and
//!   checks end-to-end delivery (multiset of delivered packets equals the
//!   multiset of accepted sends) plus conservation (nothing in flight at
//!   drain), and differentially compares schemes against each other;
//! * [`shrink`] — delta-debugging reduction of a failing scenario to a
//!   minimal replayable repro;
//! * [`bridge`] — replays `upp-check` model-checker counterexample
//!   artifacts through the concrete simulator and cross-validates the
//!   abstract verdict against the concrete outcome.
//!
//! The `verify` binary drives seeded randomized campaigns over all of the
//! above; see `verify --help`.

#![warn(missing_docs)]

pub mod bridge;
pub mod harness;
pub mod oracle;
pub mod scenario;
pub mod shrink;
pub mod traffic;

pub use bridge::{
    classify, replay_artifact, AbstractStep, BridgeReport, CheckArtifact, ExpectedOutcome,
    CHECK_ARTIFACT_VERSION,
};
pub use harness::{
    oracle_for, run_differential, run_scenario, run_scenario_watched, run_scenario_with,
    DiffReport, RunReport, Verdict,
};
pub use oracle::{DeadlockOracle, OracleConfig, OracleViolation};
pub use scenario::Scenario;
pub use shrink::shrink;
pub use traffic::{TrafficEntry, TrafficTrace};
