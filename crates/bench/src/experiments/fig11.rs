//! Fig. 11: UPP in irregular (faulty) systems — latency curves for 0 to 20
//! faulty links, 1 and 4 VCs per VNet, averaged over random fault sets.
//!
//! Composable routing and remote control are excluded, as in the paper: the
//! restriction search is impractical online and the permission subnetwork is
//! hard-wired.

use super::{cfg, point, rates_1vc, rates_4vc, Context, SEED};
use crate::report::{f1, f3, ExperimentResult, MarkdownTable};
use serde::Serialize;
use upp_core::UppConfig;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{presaturation_latency, saturation_throughput, PointSpec, SchemeKind};

/// One (fault count, VC count) series, averaged over fault seeds.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Number of faulty links.
    pub faults: usize,
    /// VCs per VNet.
    pub vcs: usize,
    /// Injection rates measured.
    pub rates: Vec<f64>,
    /// Mean total latency per rate (averaged over fault seeds; capped at
    /// 999 for saturated points).
    pub latency: Vec<f64>,
    /// Mean saturation throughput over seeds.
    pub saturation: f64,
    /// Mean pre-saturation latency over seeds.
    pub presat_latency: f64,
    /// True if any run deadlocked (must stay false: UPP recovers).
    pub any_deadlock: bool,
}

/// Collects the faulty-system series.
pub fn collect(ctx: &Context) -> Vec<Series> {
    let spec = ChipletSystemSpec::baseline();
    let fault_counts: &[usize] = if ctx.quick {
        &[0, 5, 15]
    } else {
        &[0, 1, 5, 10, 15, 20]
    };
    let seeds: &[u64] = if ctx.quick {
        &[SEED]
    } else {
        &[SEED, SEED + 1, SEED + 2]
    };
    let kind = SchemeKind::Upp(UppConfig::default());
    let mut out = Vec::new();
    for vcs in [1usize, 4] {
        let rates = if vcs == 1 {
            rates_1vc(ctx.quick)
        } else {
            rates_4vc(ctx.quick)
        };
        for &faults in fault_counts {
            let mut latency = vec![0.0; rates.len()];
            let mut saturation = 0.0;
            let mut presat = 0.0;
            let mut any_deadlock = false;
            for &seed in seeds {
                let pts = ctx.engine.sweep_rates(
                    &PointSpec {
                        faults,
                        seed,
                        ..point(ctx, &spec, cfg(vcs), kind.clone())
                    },
                    &rates,
                );
                for (i, p) in pts.iter().enumerate() {
                    latency[i] += p.total_latency.min(999.0);
                    any_deadlock |= p.deadlocked;
                }
                saturation += saturation_throughput(&pts);
                presat += presaturation_latency(&pts);
            }
            let n = seeds.len() as f64;
            out.push(Series {
                faults,
                vcs,
                rates: rates.clone(),
                latency: latency.into_iter().map(|l| l / n).collect(),
                saturation: saturation / n,
                presat_latency: presat / n,
                any_deadlock,
            });
        }
    }
    out
}

/// Runs Fig. 11 and renders it.
pub fn run(ctx: &Context) -> ExperimentResult {
    let series = collect(ctx);
    let mut out = String::new();
    out.push_str(
        "### Fig. 11 — UPP in faulty systems (up*/down* local routing, random link faults)\n\n",
    );
    for vcs in [1usize, 4] {
        out.push_str(&format!(
            "\n**({}) {} VC(s) per VNet**\n\n",
            if vcs == 1 { "a" } else { "b" },
            vcs
        ));
        let mut t = MarkdownTable::new([
            "faulty links",
            "saturation",
            "pre-sat latency",
            "deadlock-free",
        ]);
        for s in series.iter().filter(|s| s.vcs == vcs) {
            t.row([
                s.faults.to_string(),
                f3(s.saturation),
                f1(s.presat_latency),
                (!s.any_deadlock).to_string(),
            ]);
        }
        out.push_str(&t.render());
    }
    out.push_str("\nPaper: saturation degrades gracefully and latency rises slightly as faults accumulate; UPP never deadlocks.\n");
    ExperimentResult::new("fig11", "Fig. 11: faulty systems", out, &series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_ctx;

    #[test]
    fn quick_fig11_degrades_gracefully_and_never_deadlocks() {
        let series = collect(&quick_ctx());
        for s in &series {
            assert!(
                !s.any_deadlock,
                "UPP must recover in faulty systems ({} faults)",
                s.faults
            );
            assert!(s.saturation > 0.0);
        }
        // Graceful degradation at 1 VC: heavy faults may cost throughput but
        // must not collapse it.
        let sat = |f: usize| {
            series
                .iter()
                .find(|s| s.vcs == 1 && s.faults == f)
                .unwrap()
                .saturation
        };
        // Our up*/down* fallback concentrates traffic near the spanning-tree
        // root, so it degrades harder than the paper's reconfiguration;
        // the requirement is graceful (non-collapsing) degradation.
        assert!(
            sat(15) > 0.15 * sat(0),
            "15 faults keep >15% of fault-free saturation"
        );
    }
}
