//! Fig. 13: sensitivity of UPP to the detection-threshold value
//! (20 / 100 / 1000 cycles): impact on saturation throughput and the share
//! of packets selected as upward packets.

use super::{cfg, point, rates_1vc, rates_4vc, Context};
use crate::report::{f3, ExperimentResult, MarkdownTable};
use serde::Serialize;
use upp_core::UppConfig;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{saturation_throughput, SchemeKind, SweepPoint};

/// One threshold/VC series.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Detection threshold in cycles.
    pub threshold: u64,
    /// VCs per VNet.
    pub vcs: usize,
    /// Saturation throughput under uniform random traffic.
    pub saturation: f64,
    /// Per-rate share of ejected packets that were selected as upward
    /// packets.
    pub upward_share: Vec<(f64, f64)>,
    /// Raw points.
    pub points: Vec<SweepPoint>,
}

/// Collects the threshold sensitivity grid.
pub fn collect(ctx: &Context) -> Vec<Series> {
    let spec = ChipletSystemSpec::baseline();
    let thresholds: &[u64] = if ctx.quick {
        &[20, 1000]
    } else {
        &[20, 100, 1000]
    };
    let mut out = Vec::new();
    for vcs in [1usize, 4] {
        let rates = if vcs == 1 {
            rates_1vc(ctx.quick)
        } else {
            rates_4vc(ctx.quick)
        };
        for &th in thresholds {
            let kind = SchemeKind::Upp(UppConfig::with_threshold(th));
            let pts = ctx
                .engine
                .sweep_rates(&point(ctx, &spec, cfg(vcs), kind), &rates);
            let upward_share = pts
                .iter()
                .map(|p| {
                    let share = if p.packets_ejected == 0 {
                        0.0
                    } else {
                        p.upward_packets as f64 / p.packets_ejected as f64
                    };
                    (p.rate, share)
                })
                .collect();
            out.push(Series {
                threshold: th,
                vcs,
                saturation: saturation_throughput(&pts),
                upward_share,
                points: pts,
            });
        }
    }
    out
}

/// Runs Fig. 13 and renders it.
pub fn run(ctx: &Context) -> ExperimentResult {
    let series = collect(ctx);
    let mut out = String::new();
    out.push_str("### Fig. 13 — UPP detection-threshold sensitivity (uniform random)\n\n");
    out.push_str("**(a) saturation throughput**\n\n");
    let mut t = MarkdownTable::new(["threshold", "VCs", "saturation (flits/cyc/node)"]);
    for s in &series {
        t.row([s.threshold.to_string(), s.vcs.to_string(), f3(s.saturation)]);
    }
    out.push_str(&t.render());
    out.push_str("\n**(b) upward packets as a share of ejected packets**\n\n");
    for s in &series {
        let cells: Vec<String> = s
            .upward_share
            .iter()
            .map(|(r, sh)| format!("{}:{:.2}%", f3(*r), sh * 100.0))
            .collect();
        out.push_str(&format!(
            "* threshold {} / {} VC(s): {}\n",
            s.threshold,
            s.vcs,
            cells.join("  ")
        ));
    }
    out.push_str(
        "\nPaper: the threshold has little impact on saturation; at 4 VCs the upward share \
         never exceeds 0.4%.\n",
    );
    ExperimentResult::new("fig13", "Fig. 13: threshold sensitivity", out, &series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_ctx;

    /// Statistical and ~10 min in debug: quick-mode saturation estimates are
    /// RNG-stream-sensitive near the 1.5x band, so this only runs when the
    /// nightly CI job (or a developer) opts in with `UPP_NIGHTLY=1`.
    #[test]
    fn threshold_has_limited_impact_on_saturation() {
        if std::env::var_os("UPP_NIGHTLY").is_none_or(|v| v != "1") {
            eprintln!("skipping: set UPP_NIGHTLY=1 to run the full fig13 statistical test");
            return;
        }
        let series = collect(&quick_ctx());
        for vcs in [1usize, 4] {
            let sats: Vec<f64> = series
                .iter()
                .filter(|s| s.vcs == vcs)
                .map(|s| s.saturation)
                .collect();
            let (min, max) = sats
                .iter()
                .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
            assert!(
                max / min < 1.5,
                "{vcs} VC saturation too threshold-sensitive: {sats:?}"
            );
        }
    }

    /// Fast tier-1 smoke variant of `threshold_has_limited_impact_on_saturation`:
    /// a reduced grid (2 thresholds, 4 rates, short windows, 1 VC) with a
    /// loose bound, so gross threshold sensitivity regressions are caught on
    /// every run while the full statistical version stays nightly-only.
    #[test]
    fn threshold_smoke_saturation_within_loose_band() {
        use upp_workloads::runner::{PointSpec, SweepWindows};
        let spec = ChipletSystemSpec::baseline();
        let w = SweepWindows {
            warmup: 500,
            measure: 3_000,
        };
        let rates = [0.02, 0.05, 0.08, 0.11];
        let ctx = quick_ctx();
        let mut sats = Vec::new();
        for th in [20u64, 1000] {
            let kind = SchemeKind::Upp(UppConfig::with_threshold(th));
            let pts = ctx.engine.sweep_rates(
                &PointSpec {
                    windows: w,
                    ..point(&ctx, &spec, cfg(1), kind)
                },
                &rates,
            );
            let sat = saturation_throughput(&pts);
            assert!(sat > 0.0, "threshold {th} produced no throughput");
            sats.push(sat);
        }
        let (min, max) = sats
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        assert!(
            max / min < 2.0,
            "saturation grossly threshold-sensitive on the smoke grid: {sats:?}"
        );
    }

    #[test]
    fn four_vcs_keep_upward_share_small() {
        let series = collect(&quick_ctx());
        for s in series.iter().filter(|s| s.vcs == 4 && s.threshold == 20) {
            for (rate, share) in &s.upward_share {
                assert!(*share < 0.05, "4 VC upward share at rate {rate} is {share}");
            }
        }
    }
}
