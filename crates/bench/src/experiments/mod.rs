//! One module per table/figure of the paper's evaluation section.

pub mod ablations;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fig_scaling;
pub mod tables;

use crate::report::ExperimentResult;
use crate::sweep::SweepEngine;
use std::sync::OnceLock;
use upp_noc::config::NocConfig;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{PointSpec, SchemeKind, SweepWindows};
use upp_workloads::synthetic::Pattern;

/// All experiment ids, in paper order.
pub const ALL_IDS: [&str; 13] = [
    "table1",
    "table2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig_scaling",
    "ablations",
];

/// Everything that configures a run of the experiments, built once by the
/// caller (`repro`, a test) and passed down by reference. Two contexts in
/// one process share nothing.
pub struct Context {
    /// Trades fidelity for speed (short windows, coarser grids).
    pub quick: bool,
    /// The worker pool, and the journal when there is one, that every sweep
    /// of the run fans out on.
    pub engine: SweepEngine,
    /// Fig. 8's coherence runs, computed at most once per context: Figs. 12
    /// and 15 are views over the same dataset (see [`fig8::data`]).
    fig8: OnceLock<fig8::Fig8Data>,
}

impl Context {
    /// A context over `engine` with an empty Fig. 8 memo.
    pub fn new(quick: bool, engine: SweepEngine) -> Context {
        Context {
            quick,
            engine,
            fig8: OnceLock::new(),
        }
    }
}

/// Runs one experiment by id.
pub fn run(id: &str, ctx: &Context) -> Option<ExperimentResult> {
    match id {
        "table1" => Some(tables::table1()),
        "table2" => Some(tables::table2()),
        "fig7" => Some(fig7::run(ctx)),
        "fig8" => Some(fig8::run(ctx)),
        "fig9" => Some(fig9::run(ctx)),
        "fig10" => Some(fig10::run(ctx)),
        "fig11" => Some(fig11::run(ctx)),
        "fig12" => Some(fig12::run(ctx)),
        "fig13" => Some(fig13::run(ctx)),
        "fig14" => Some(fig14::run()),
        "fig15" => Some(fig15::run(ctx)),
        "fig_scaling" => Some(fig_scaling::run(ctx)),
        "ablations" => Some(ablations::run(ctx)),
        _ => None,
    }
}

/// Measurement windows for the mode.
pub fn windows(quick: bool) -> SweepWindows {
    if quick {
        SweepWindows {
            warmup: 1_000,
            measure: 6_000,
        }
    } else {
        SweepWindows::default()
    }
}

/// Network config with the given VC count.
pub fn cfg(vcs: usize) -> NocConfig {
    NocConfig::default().with_vcs_per_vnet(vcs)
}

/// Injection-rate grid for 1 VC per VNet runs.
pub fn rates_1vc(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.02, 0.06, 0.09, 0.12]
    } else {
        vec![0.01, 0.02, 0.04, 0.06, 0.08, 0.09, 0.10, 0.11, 0.12, 0.14]
    }
}

/// Injection-rate grid for 4 VCs per VNet runs.
pub fn rates_4vc(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.04, 0.10, 0.16, 0.20]
    } else {
        vec![0.01, 0.04, 0.08, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22]
    }
}

/// The deterministic seed used for every experiment.
pub const SEED: u64 = 2022;

/// The point a figure's sweeps start from: `scheme` on `system` under
/// `noc`, fault-free, uniform random traffic, the mode's windows and
/// [`SEED`]. Each figure changes what it varies; the rate is set per point
/// by [`SweepEngine::sweep_rates`].
pub(crate) fn point(
    ctx: &Context,
    system: &ChipletSystemSpec,
    noc: NocConfig,
    scheme: SchemeKind,
) -> PointSpec {
    PointSpec {
        system: system.clone(),
        noc,
        scheme,
        faults: 0,
        pattern: Pattern::UniformRandom,
        windows: windows(ctx.quick),
        seed: SEED,
        rate: 0.0,
    }
}

/// A quick-mode context for the experiment unit tests.
#[cfg(test)]
pub(crate) fn quick_ctx() -> Context {
    let jobs = crate::sweep::default_jobs().expect("UPP_JOBS is a positive integer");
    Context::new(true, SweepEngine::new(jobs))
}
