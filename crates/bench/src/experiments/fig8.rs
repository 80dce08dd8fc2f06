//! Fig. 8: normalized full-system runtime over the 18 PARSEC/SPLASH-2
//! benchmark profiles, (a) 1 VC per VNet and (b) 4 VCs per VNet.
//!
//! The gem5 full-system runs are substituted by the MESI-style coherence
//! engine (see `upp-workloads`); runtimes are normalized to composable
//! routing, as in the paper.

use super::{cfg, Context, SEED};
use crate::report::{f3, ExperimentResult, MarkdownTable};
use serde::{Deserialize, Serialize};
use upp_noc::ni::ConsumePolicy;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::coherence::run_benchmark;
use upp_workloads::profiles::all_benchmarks;
use upp_workloads::runner::{build_system, SchemeKind};

/// Everything recorded about one coherence run (also feeds Figs. 12 and 15).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Run {
    /// Benchmark name.
    pub benchmark: String,
    /// Scheme label.
    pub scheme: String,
    /// VCs per VNet.
    pub vcs: usize,
    /// Runtime in cycles.
    pub cycles: u64,
    /// Packets delivered.
    pub packets: u64,
    /// Flits delivered.
    pub flits: u64,
    /// Buffered flit hops (energy input).
    pub flit_hops: u64,
    /// Bypass (upward flit) hops.
    pub bypass_hops: u64,
    /// Control-signal hops.
    pub control_hops: u64,
    /// Flits injected.
    pub flits_injected: u64,
    /// Upward packets detected (UPP runs; 0 otherwise).
    pub upward_packets: u64,
    /// True if the run failed to complete (must never happen).
    pub incomplete: bool,
}

/// The full Fig. 8 dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Data {
    /// All runs.
    pub runs: Vec<Fig8Run>,
    /// Routers in the system (energy input).
    pub routers: usize,
    /// Bidirectional links in the system (energy input).
    pub links: usize,
    /// Geometric-mean normalized runtime per `(scheme, vcs)`.
    pub geomean: Vec<(String, usize, f64)>,
}

fn transactions_scale(quick: bool) -> f64 {
    if quick {
        0.15
    } else {
        1.0
    }
}

/// The coherence runs, collected on first use and memoized in `ctx`, so
/// one `repro all` computes them once for Figs. 8, 12 and 15.
pub fn data(ctx: &Context) -> &Fig8Data {
    ctx.fig8.get_or_init(|| collect(ctx))
}

fn collect(ctx: &Context) -> Fig8Data {
    let spec = ChipletSystemSpec::baseline();
    let scale = transactions_scale(ctx.quick);
    let benchmarks = all_benchmarks();
    let benchmarks: Vec<_> = if ctx.quick {
        benchmarks[..4].to_vec()
    } else {
        benchmarks
    };
    // Every (vcs, scheme, profile, seed) run is an independent simulation;
    // fan them out on the sweep engine (results stay deterministic per run,
    // and each journals under its tuple, the scaled profile included).
    let mut jobs = Vec::new();
    for vcs in [1usize, 4] {
        for kind in SchemeKind::evaluated() {
            for bench in &benchmarks {
                let mut profile = *bench;
                profile.transactions = ((profile.transactions as f64 * scale) as u64).max(10);
                jobs.push((vcs, kind.clone(), profile, SEED));
            }
        }
    }
    let runs: Vec<Fig8Run> = ctx
        .engine
        .run_keyed(&jobs, |&(vcs, ref kind, profile, seed)| {
            let mut built = build_system(&spec, cfg(vcs), kind, 0, seed, ConsumePolicy::External);
            let r = run_benchmark(&mut built.sys, profile, seed, 20_000_000);
            let stats = built.sys.net().stats();
            let upward = built.upp_stats().map_or(0, |s| s.upward_packets);
            Fig8Run {
                benchmark: profile.name.to_string(),
                scheme: kind.label().to_string(),
                vcs,
                cycles: r.cycles,
                packets: r.packets,
                flits: r.flits,
                flit_hops: stats.flit_hops,
                bypass_hops: stats.bypass_hops,
                control_hops: stats.control_hops,
                flits_injected: stats.flits_injected,
                upward_packets: upward,
                incomplete: r.incomplete,
            }
        });
    let topo = spec.build(SEED).expect("baseline builds");
    let routers = topo.num_nodes();
    let links = topo
        .nodes()
        .iter()
        .map(|n| n.links().count())
        .sum::<usize>()
        / 2;
    let geomean = geomeans(&runs);
    Fig8Data {
        runs,
        routers,
        links,
        geomean,
    }
}

/// Runtime of `(benchmark, scheme, vcs)`.
fn runtime_of(runs: &[Fig8Run], bench: &str, scheme: &str, vcs: usize) -> Option<u64> {
    runs.iter()
        .find(|r| r.benchmark == bench && r.scheme == scheme && r.vcs == vcs)
        .map(|r| r.cycles)
}

fn geomeans(runs: &[Fig8Run]) -> Vec<(String, usize, f64)> {
    let mut out = Vec::new();
    for vcs in [1usize, 4] {
        for scheme in ["composable", "remote-control", "UPP"] {
            let mut log_sum = 0.0;
            let mut n = 0usize;
            for r in runs.iter().filter(|r| r.vcs == vcs && r.scheme == scheme) {
                let base = runtime_of(runs, &r.benchmark, "composable", vcs)
                    .expect("composable run exists");
                log_sum += (r.cycles as f64 / base as f64).ln();
                n += 1;
            }
            if n > 0 {
                out.push((scheme.to_string(), vcs, (log_sum / n as f64).exp()));
            }
        }
    }
    out
}

/// Runs Fig. 8 and renders it.
pub fn run(ctx: &Context) -> ExperimentResult {
    let d = data(ctx);
    let mut out = String::new();
    out.push_str(
        "### Fig. 8 — normalized full-system runtime (coherence engine, normalized to composable)\n\n",
    );
    for vcs in [1usize, 4] {
        out.push_str(&format!(
            "\n**({}) {} VC(s) per VNet**\n\n",
            if vcs == 1 { "a" } else { "b" },
            vcs
        ));
        let mut t = MarkdownTable::new(["benchmark", "composable", "remote-control", "UPP"]);
        let mut benches: Vec<String> = d
            .runs
            .iter()
            .filter(|r| r.vcs == vcs)
            .map(|r| r.benchmark.clone())
            .collect();
        benches.dedup();
        benches.sort();
        benches.dedup();
        for b in &benches {
            let base = runtime_of(&d.runs, b, "composable", vcs).expect("composable run");
            let norm = |s: &str| {
                runtime_of(&d.runs, b, s, vcs)
                    .map(|c| f3(c as f64 / base as f64))
                    .unwrap_or_else(|| "-".into())
            };
            t.row([
                b.clone(),
                norm("composable"),
                norm("remote-control"),
                norm("UPP"),
            ]);
        }
        let gm = |s: &str| {
            d.geomean
                .iter()
                .find(|(x, v, _)| x == s && *v == vcs)
                .map(|(_, _, g)| f3(*g))
                .unwrap_or_else(|| "-".into())
        };
        t.row([
            "**geomean**".to_string(),
            gm("composable"),
            gm("remote-control"),
            gm("UPP"),
        ]);
        out.push_str(&t.render());
    }
    out.push_str(
        "\nPaper: UPP cuts runtime by 5.7-10.3% (1 VC) and 3.1-4.6% (4 VCs) vs composable.\n",
    );
    ExperimentResult::new("fig8", "Fig. 8: normalized runtime", out, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_ctx;

    #[test]
    fn quick_fig8_completes_and_upp_beats_composable_on_geomean() {
        let ctx = quick_ctx();
        let d = data(&ctx);
        assert!(d.runs.iter().all(|r| !r.incomplete), "all runs must finish");
        let upp1 = d
            .geomean
            .iter()
            .find(|(s, v, _)| s == "UPP" && *v == 1)
            .map(|(_, _, g)| *g)
            .unwrap();
        assert!(
            upp1 < 1.02,
            "UPP normalized runtime should not exceed composable at 1 VC: {upp1}"
        );
        let comp = d
            .geomean
            .iter()
            .find(|(s, v, _)| s == "composable" && *v == 1)
            .map(|(_, _, g)| *g)
            .unwrap();
        assert!((comp - 1.0).abs() < 1e-9, "composable normalizes to itself");
    }
}
