//! Fig. 10: sensitivity to the number of boundary routers per chiplet
//! (2, 4, 8), normalized latency and saturation throughput.

use super::{cfg, point, rates_1vc, rates_4vc, Context};
use crate::report::{f3, ExperimentResult, MarkdownTable};
use serde::Serialize;
use upp_noc::topology::{ChipletSystemSpec, SystemKind};
use upp_workloads::runner::{presaturation_latency, saturation_throughput, SchemeKind};

/// One measured configuration.
#[derive(Debug, Clone, Serialize)]
pub struct Point {
    /// Boundary routers per chiplet.
    pub boundary_routers: u16,
    /// Scheme label.
    pub scheme: String,
    /// VCs per VNet.
    pub vcs: usize,
    /// Absolute saturation throughput.
    pub saturation: f64,
    /// Absolute pre-saturation latency.
    pub presat_latency: f64,
    /// Latency normalized to composable-1VC at 4 boundary routers.
    pub norm_latency: f64,
    /// Saturation normalized to composable-1VC at 4 boundary routers.
    pub norm_throughput: f64,
}

/// Collects the sensitivity grid.
pub fn collect(ctx: &Context) -> Vec<Point> {
    let counts: &[u16] = if ctx.quick { &[2, 4] } else { &[2, 4, 8] };
    let mut raw = Vec::new();
    for &n in counts {
        let spec = ChipletSystemSpec::of_kind(SystemKind::BoundaryCount(n));
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
                raw.push((
                    n,
                    kind.label().to_string(),
                    vcs,
                    saturation_throughput(&pts),
                    presaturation_latency(&pts),
                ));
            }
        }
    }
    // Normalize to composable, 1 VC, 4 boundary routers (the paper's
    // reference bar).
    let reference_n = if counts.contains(&4) { 4 } else { counts[0] };
    let (base_sat, base_lat) = raw
        .iter()
        .find(|(n, s, v, _, _)| *n == reference_n && s == "composable" && *v == 1)
        .map(|(_, _, _, sat, lat)| (*sat, *lat))
        .expect("reference configuration measured");
    raw.into_iter()
        .map(|(n, scheme, vcs, sat, lat)| Point {
            boundary_routers: n,
            scheme,
            vcs,
            saturation: sat,
            presat_latency: lat,
            norm_latency: lat / base_lat,
            norm_throughput: sat / base_sat,
        })
        .collect()
}

/// Runs Fig. 10 and renders it.
pub fn run(ctx: &Context) -> ExperimentResult {
    let points = collect(ctx);
    let mut out = String::new();
    out.push_str("### Fig. 10 — sensitivity to boundary routers per chiplet (normalized to composable-1VC @ 4)\n\n");
    let mut t = MarkdownTable::new([
        "boundary routers",
        "scheme",
        "VCs",
        "norm. latency",
        "norm. throughput",
    ]);
    for p in &points {
        t.row([
            p.boundary_routers.to_string(),
            p.scheme.clone(),
            p.vcs.to_string(),
            f3(p.norm_latency),
            f3(p.norm_throughput),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nPaper: more boundary routers raise throughput and cut latency for every scheme, \
         with UPP best throughout.\n",
    );
    ExperimentResult::new(
        "fig10",
        "Fig. 10: boundary-router sensitivity",
        out,
        &points,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_ctx;

    #[test]
    fn quick_fig10_normalizes_and_scales() {
        let pts = collect(&quick_ctx());
        // Reference bar normalizes to 1.
        let reference = pts
            .iter()
            .find(|p| p.boundary_routers == 4 && p.scheme == "composable" && p.vcs == 1)
            .unwrap();
        assert!((reference.norm_throughput - 1.0).abs() < 1e-9);
        // More boundary routers must not hurt UPP's saturation.
        let upp = |n: u16| {
            pts.iter()
                .find(|p| p.boundary_routers == n && p.scheme == "UPP" && p.vcs == 1)
                .unwrap()
                .saturation
        };
        assert!(
            upp(4) >= upp(2) * 0.95,
            "4 boundaries >= 2 boundaries: {} vs {}",
            upp(4),
            upp(2)
        );
    }
}
