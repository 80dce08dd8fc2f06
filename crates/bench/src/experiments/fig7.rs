//! Fig. 7: latency vs injection rate under four synthetic traffic patterns,
//! baseline system, {composable, remote control, UPP} x {1, 4} VCs per VNet.

use super::{cfg, point, rates_1vc, rates_4vc, Context};
use crate::report::{f1, f3, spct, ExperimentResult, MarkdownTable};
use serde::Serialize;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{
    presaturation_latency, saturation_throughput, PointSpec, SchemeKind, SweepPoint,
};
use upp_workloads::synthetic::Pattern;

/// One latency curve.
#[derive(Debug, Clone, Serialize)]
pub struct Curve {
    /// Scheme label.
    pub scheme: String,
    /// VCs per VNet.
    pub vcs: usize,
    /// Traffic pattern label.
    pub pattern: String,
    /// Measured points.
    pub points: Vec<SweepPoint>,
    /// Extracted saturation throughput.
    pub saturation: f64,
    /// Mean pre-saturation latency.
    pub presat_latency: f64,
}

/// Per-pattern comparison summary.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    /// Pattern label.
    pub pattern: String,
    /// VCs per VNet.
    pub vcs: usize,
    /// UPP saturation / composable saturation - 1.
    pub upp_sat_gain_vs_composable: f64,
    /// 1 - UPP latency / composable latency.
    pub upp_latency_cut_vs_composable: f64,
    /// UPP saturation / remote saturation - 1.
    pub upp_sat_gain_vs_remote: f64,
    /// 1 - UPP latency / remote latency.
    pub upp_latency_cut_vs_remote: f64,
}

/// Full Fig. 7 dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7 {
    /// All measured curves.
    pub curves: Vec<Curve>,
    /// Per-pattern summaries.
    pub summaries: Vec<Summary>,
}

/// Collects all Fig. 7 curves.
pub fn collect(ctx: &Context) -> Fig7 {
    let spec = ChipletSystemSpec::baseline();
    let patterns: &[Pattern] = if ctx.quick {
        &[Pattern::UniformRandom, Pattern::Transpose]
    } else {
        &Pattern::ALL
    };
    let mut curves = Vec::new();
    for &pattern in patterns {
        for vcs in [1usize, 4] {
            let rates = if vcs == 1 {
                rates_1vc(ctx.quick)
            } else {
                rates_4vc(ctx.quick)
            };
            for kind in SchemeKind::evaluated() {
                let pts = ctx.engine.sweep_rates(
                    &PointSpec {
                        pattern,
                        ..point(ctx, &spec, cfg(vcs), kind.clone())
                    },
                    &rates,
                );
                curves.push(Curve {
                    scheme: kind.label().to_string(),
                    vcs,
                    pattern: pattern.label().to_string(),
                    saturation: saturation_throughput(&pts),
                    presat_latency: presaturation_latency(&pts),
                    points: pts,
                });
            }
        }
    }
    let mut summaries = Vec::new();
    for &pattern in patterns {
        for vcs in [1usize, 4] {
            let find = |scheme: &str| {
                curves
                    .iter()
                    .find(|c| c.scheme == scheme && c.vcs == vcs && c.pattern == pattern.label())
                    .expect("curve exists")
            };
            let (upp, comp, rem) = (find("UPP"), find("composable"), find("remote-control"));
            // Latency comparisons average over the *common* pre-saturation
            // rates so no scheme is penalised for surviving to higher loads.
            let [upp_lat, comp_lat, rem_lat] = common_presat_latency([upp, comp, rem]);
            summaries.push(Summary {
                pattern: pattern.label().to_string(),
                vcs,
                upp_sat_gain_vs_composable: upp.saturation / comp.saturation - 1.0,
                upp_latency_cut_vs_composable: 1.0 - upp_lat / comp_lat,
                upp_sat_gain_vs_remote: upp.saturation / rem.saturation - 1.0,
                upp_latency_cut_vs_remote: 1.0 - upp_lat / rem_lat,
            });
        }
    }
    Fig7 { curves, summaries }
}

/// Mean latency of each curve over the rates at which *every* curve stays
/// below the saturation ceiling.
fn common_presat_latency(curves: [&Curve; 3]) -> [f64; 3] {
    use upp_workloads::runner::SATURATION_LATENCY;
    let n = curves.iter().map(|c| c.points.len()).min().unwrap_or(0);
    let common: Vec<usize> = (0..n)
        .filter(|&i| {
            curves.iter().all(|c| {
                let p = &c.points[i];
                p.total_latency < SATURATION_LATENCY && p.packets_ejected > 0
            })
        })
        .collect();
    let mut out = [f64::NAN; 3];
    if common.is_empty() {
        return out;
    }
    for (k, c) in curves.iter().enumerate() {
        out[k] = common
            .iter()
            .map(|&i| c.points[i].total_latency)
            .sum::<f64>()
            / common.len() as f64;
    }
    out
}

/// Runs Fig. 7 and renders it.
pub fn run(ctx: &Context) -> ExperimentResult {
    let data = collect(ctx);
    let mut out = String::new();
    out.push_str("### Fig. 7 — latency vs injection rate, baseline system\n\n");
    let mut last_key = String::new();
    for c in &data.curves {
        let key = format!("{} / {} VC(s)", c.pattern, c.vcs);
        if key != last_key {
            out.push_str(&format!("\n**{key}**\n\n"));
            last_key = key;
        }
        let rates: Vec<String> = c.points.iter().map(|p| f3(p.rate)).collect();
        let lats: Vec<String> = c
            .points
            .iter()
            .map(|p| f1(p.total_latency.min(999.0)))
            .collect();
        let mut t = MarkdownTable::new(
            std::iter::once("rate ->".to_string())
                .chain(rates)
                .collect::<Vec<_>>(),
        );
        t.row(
            std::iter::once(format!("{} latency", c.scheme))
                .chain(lats)
                .collect::<Vec<_>>(),
        );
        out.push_str(&t.render());
    }
    out.push_str("\n**Summary (paper: UPP +18-72% saturation and -4.5-6.6% latency vs composable; -5.7-8.2% latency vs remote control)**\n\n");
    let mut t = MarkdownTable::new([
        "pattern",
        "VCs",
        "UPP sat vs composable",
        "UPP lat vs composable",
        "UPP sat vs remote",
        "UPP lat vs remote",
    ]);
    for s in &data.summaries {
        t.row([
            s.pattern.clone(),
            s.vcs.to_string(),
            spct(s.upp_sat_gain_vs_composable),
            spct(-s.upp_latency_cut_vs_composable),
            spct(s.upp_sat_gain_vs_remote),
            spct(-s.upp_latency_cut_vs_remote),
        ]);
    }
    out.push_str(&t.render());
    ExperimentResult::new("fig7", "Fig. 7: synthetic latency curves", out, &data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_ctx;

    #[test]
    fn quick_fig7_has_expected_shape() {
        let data = collect(&quick_ctx());
        assert_eq!(data.curves.len(), 2 * 2 * 3);
        for s in &data.summaries {
            // UPP must never lose on pre-saturation latency.
            assert!(
                s.upp_latency_cut_vs_composable > -0.02,
                "{} {}VC: UPP latency worse than composable by {}",
                s.pattern,
                s.vcs,
                s.upp_latency_cut_vs_composable
            );
            assert!(
                s.upp_latency_cut_vs_remote > 0.0,
                "{} {}VC: UPP latency must beat remote's injection control",
                s.pattern,
                s.vcs
            );
        }
        // Saturation ordering on uniform random: UPP >= composable.
        let ur: Vec<_> = data
            .summaries
            .iter()
            .filter(|s| s.pattern == "uniform_random")
            .collect();
        for s in ur {
            assert!(
                s.upp_sat_gain_vs_composable > -0.05,
                "UPP saturation must not trail composable ({} VC): {}",
                s.vcs,
                s.upp_sat_gain_vs_composable
            );
        }
    }
}
