//! Fig. 9: latency comparison in the 128-node system (4x8 interposer, 8
//! chiplets) under uniform random traffic.

use super::{cfg, point, rates_1vc, rates_4vc, Context};
use crate::report::{f1, f3, spct, ExperimentResult, MarkdownTable};
use serde::Serialize;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{presaturation_latency, saturation_throughput, SchemeKind, SweepPoint};

/// One Fig. 9 curve.
#[derive(Debug, Clone, Serialize)]
pub struct Curve {
    /// Scheme label.
    pub scheme: String,
    /// VCs per VNet.
    pub vcs: usize,
    /// Measured points.
    pub points: Vec<SweepPoint>,
    /// Saturation throughput.
    pub saturation: f64,
    /// Pre-saturation latency.
    pub presat_latency: f64,
}

/// Collects Fig. 9 curves.
pub fn collect(ctx: &Context) -> Vec<Curve> {
    let spec = ChipletSystemSpec::large();
    let mut curves = Vec::new();
    for vcs in [1usize, 4] {
        let rates = if vcs == 1 {
            rates_1vc(ctx.quick)
        } else {
            rates_4vc(ctx.quick)
        };
        for kind in SchemeKind::evaluated() {
            let pts = ctx
                .engine
                .sweep_rates(&point(ctx, &spec, cfg(vcs), kind.clone()), &rates);
            curves.push(Curve {
                scheme: kind.label().to_string(),
                vcs,
                saturation: saturation_throughput(&pts),
                presat_latency: presaturation_latency(&pts),
                points: pts,
            });
        }
    }
    curves
}

/// Runs Fig. 9 and renders it.
pub fn run(ctx: &Context) -> ExperimentResult {
    let curves = collect(ctx);
    let mut out = String::new();
    out.push_str("### Fig. 9 — 128-node system (4x8 interposer, 8 chiplets), uniform random\n\n");
    let mut t = MarkdownTable::new([
        "scheme",
        "VCs",
        "saturation (flits/cyc/node)",
        "pre-sat latency",
    ]);
    for c in &curves {
        t.row([
            c.scheme.clone(),
            c.vcs.to_string(),
            f3(c.saturation),
            f1(c.presat_latency),
        ]);
    }
    out.push_str(&t.render());
    let find = |s: &str, v: usize| {
        curves
            .iter()
            .find(|c| c.scheme == s && c.vcs == v)
            .expect("curve exists")
    };
    for vcs in [1usize, 4] {
        let (u, c) = (find("UPP", vcs), find("composable", vcs));
        out.push_str(&format!(
            "\n{} VC(s): UPP saturation {} vs composable (paper: +11-13%), latency {}\n",
            vcs,
            spct(u.saturation / c.saturation - 1.0),
            spct(u.presat_latency / c.presat_latency - 1.0),
        ));
    }
    out.push_str("\nPaper note: the throughput gap narrows vs Fig. 7 because the larger network is inherently less load-balanced.\n");
    ExperimentResult::new("fig9", "Fig. 9: 128-node system", out, &curves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_ctx;

    #[test]
    fn quick_fig9_runs_all_schemes() {
        let curves = collect(&quick_ctx());
        assert_eq!(curves.len(), 6);
        for c in &curves {
            assert!(
                c.saturation > 0.0,
                "{} {}VC saturates above zero",
                c.scheme,
                c.vcs
            );
            assert!(c.presat_latency.is_finite());
        }
    }
}
