//! Fig. 15: normalized network energy of the full-system runs, computed by
//! the DSENT-substitute model over the Fig. 8 statistics.

use super::{fig8, Context};
use crate::report::{f3, ExperimentResult, MarkdownTable};
use serde::Serialize;
use upp_noc::config::NocConfig;
use upp_noc::stats::NetStats;
use upp_workloads::energy::EnergyModel;

/// One benchmark's normalized energies.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Benchmark name.
    pub benchmark: String,
    /// VCs per VNet.
    pub vcs: usize,
    /// Energy normalized to composable.
    pub composable: f64,
    /// Remote control energy normalized to composable.
    pub remote: f64,
    /// UPP energy normalized to composable.
    pub upp: f64,
    /// Static share of UPP's energy (paper: static dominates).
    pub upp_static_share: f64,
}

fn stats_of(run: &fig8::Fig8Run) -> NetStats {
    let mut s = NetStats::new(3);
    s.flit_hops = run.flit_hops;
    s.bypass_hops = run.bypass_hops;
    s.control_hops = run.control_hops;
    s.flits_injected = run.flits_injected;
    s.flits_ejected = run.flits;
    s
}

/// Collects normalized energies from the Fig. 8 runs.
pub fn collect(ctx: &Context) -> Vec<Row> {
    let d = fig8::data(ctx);
    let model = EnergyModel::default();
    let mut rows = Vec::new();
    for vcs in [1usize, 4] {
        let cfg = NocConfig::default().with_vcs_per_vnet(vcs);
        let energy_of = |scheme: &str, bench: &str| {
            d.runs
                .iter()
                .find(|r| r.scheme == scheme && r.vcs == vcs && r.benchmark == bench)
                .map(|r| model.energy(&cfg, &stats_of(r), d.routers, d.links, r.cycles))
        };
        let mut benches: Vec<String> = d
            .runs
            .iter()
            .filter(|r| r.vcs == vcs)
            .map(|r| r.benchmark.clone())
            .collect();
        benches.sort();
        benches.dedup();
        for b in &benches {
            let Some(comp) = energy_of("composable", b) else {
                continue;
            };
            let Some(rem) = energy_of("remote-control", b) else {
                continue;
            };
            let Some(upp) = energy_of("UPP", b) else {
                continue;
            };
            rows.push(Row {
                benchmark: b.clone(),
                vcs,
                composable: 1.0,
                remote: rem.total_pj() / comp.total_pj(),
                upp: upp.total_pj() / comp.total_pj(),
                upp_static_share: upp.static_share(),
            });
        }
    }
    rows
}

/// Runs Fig. 15 and renders it.
pub fn run(ctx: &Context) -> ExperimentResult {
    let rows = collect(ctx);
    let mut out = String::new();
    out.push_str(
        "### Fig. 15 — normalized network energy (DSENT-substitute, normalized to composable)\n\n",
    );
    for vcs in [1usize, 4] {
        out.push_str(&format!(
            "\n**({}) {} VC(s) per VNet**\n\n",
            if vcs == 1 { "a" } else { "b" },
            vcs
        ));
        let mut t = MarkdownTable::new([
            "benchmark",
            "composable",
            "remote-control",
            "UPP",
            "UPP static share",
        ]);
        let mut geo = (0.0f64, 0usize);
        for r in rows.iter().filter(|r| r.vcs == vcs) {
            t.row([
                r.benchmark.clone(),
                f3(r.composable),
                f3(r.remote),
                f3(r.upp),
                format!("{:.0}%", r.upp_static_share * 100.0),
            ]);
            geo.0 += r.upp.ln();
            geo.1 += 1;
        }
        out.push_str(&t.render());
        if geo.1 > 0 {
            out.push_str(&format!(
                "\nUPP geomean: {} (paper: 0.913 at 1 VC, 0.953 at 4 VCs)\n",
                f3((geo.0 / geo.1 as f64).exp())
            ));
        }
    }
    out.push_str(
        "\nPaper: energy is static-dominated, so it tracks runtime and UPP consumes the least.\n",
    );
    ExperimentResult::new("fig15", "Fig. 15: normalized energy", out, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_ctx;

    #[test]
    fn energy_tracks_runtime_and_upp_wins_on_average() {
        let rows = collect(&quick_ctx());
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                r.upp_static_share > 0.5,
                "{}: static must dominate",
                r.benchmark
            );
            assert!(r.upp > 0.0 && r.remote > 0.0);
        }
        let geo: f64 = rows.iter().map(|r| r.upp.ln()).sum::<f64>() / rows.len() as f64;
        assert!(
            geo.exp() < 1.05,
            "UPP geomean energy must not exceed composable by >5%"
        );
    }
}
