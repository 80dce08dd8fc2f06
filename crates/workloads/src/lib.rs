//! # upp-workloads — workloads, runner and models for the UPP reproduction
//!
//! * [`synthetic`] — the four synthetic traffic patterns of Fig. 7 with the
//!   Table II control/data packet mix;
//! * [`profiles`] + [`coherence`] — the MESI-style directory-coherence
//!   engine and the 18 PARSEC/SPLASH-2 benchmark profiles substituting for
//!   gem5 full-system runs (Figs. 8/12/15);
//! * [`runner`] — system construction for every scheme, the one-point
//!   measurement ([`runner::PointSpec::run`]; `upp_bench::sweep` fans it out)
//!   and saturation extraction;
//! * [`run`] — one whole run as a library call ([`run::RunConfig`] ->
//!   [`run::run`] -> [`run::RunReport`]; `simulate` is its argv shell) and
//!   [`run::Riders`], the one driver of telemetry epochs, the health
//!   monitor and profile streaming that every cycle loop shares;
//! * [`energy`] — the DSENT-substitute energy model (Fig. 15);
//! * [`area`] — the Design-Compiler-substitute area model (Fig. 14).
//!
//! # Example: one sweep point
//!
//! ```
//! use upp_workloads::runner::{PointSpec, SchemeKind, SweepWindows};
//! use upp_workloads::synthetic::Pattern;
//! use upp_core::UppConfig;
//! use upp_noc::config::NocConfig;
//! use upp_noc::topology::ChipletSystemSpec;
//!
//! let p = PointSpec {
//!     system: ChipletSystemSpec::baseline(),
//!     noc: NocConfig::default(),
//!     scheme: SchemeKind::Upp(UppConfig::default()),
//!     faults: 0,
//!     pattern: Pattern::UniformRandom,
//!     windows: SweepWindows::quick(),
//!     seed: 1,
//!     rate: 0.02,
//! }
//! .run();
//! assert!(p.packets_ejected > 0 && !p.deadlocked);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod area;
pub mod coherence;
pub mod energy;
pub mod profiles;
pub mod run;
pub mod runner;
pub mod synthetic;

pub use area::{AreaModel, AreaOverhead};
pub use coherence::{run_benchmark, CoherenceEngine, RuntimeResult};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use profiles::{all_benchmarks, benchmark, BenchmarkProfile};
pub use runner::{saturation_throughput, PointSpec, SchemeKind, SweepPoint, SweepWindows};
pub use synthetic::{Pattern, SyntheticTraffic};
