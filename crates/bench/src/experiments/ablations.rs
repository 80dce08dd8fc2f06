//! Ablation studies of the design choices DESIGN.md calls out (not in the
//! paper, but quantifying its claims):
//!
//! 1. **Composable restriction structure** — the published funneled pattern
//!    vs the minimal CDG search: how much of composable's penalty is the
//!    structure rather than the acyclicity requirement itself?
//! 2. **UPP popup concurrency** — the destination-keyed circuit table vs the
//!    paper's per-chiplet serialization alternative (Sec. V-B5).
//! 3. **Flow control** — UPP under wormhole vs virtual cut-through
//!    (Table I's flow-control modularity column).

use super::{cfg, rates_1vc, windows, Context, SEED};
use crate::report::{f1, f3, ExperimentResult, MarkdownTable};
use crate::sweep::SweepEngine;
use serde::Serialize;
use std::sync::Arc;
use upp_baselines::composable::ComposableConfig;
use upp_core::{Upp, UppConfig};
use upp_noc::config::NocConfig;
use upp_noc::network::Network;
use upp_noc::ni::ConsumePolicy;
use upp_noc::sim::System;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{presaturation_latency, saturation_throughput, SchemeKind, SweepPoint};
use upp_workloads::synthetic::{Pattern, SyntheticTraffic};

/// One ablation row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Study this row belongs to.
    pub study: String,
    /// Variant label.
    pub variant: String,
    /// Saturation throughput.
    pub saturation: f64,
    /// Pre-saturation latency.
    pub presat_latency: f64,
}

fn measure_points(points: &[SweepPoint], study: &str, variant: &str) -> Row {
    Row {
        study: study.into(),
        variant: variant.into(),
        saturation: saturation_throughput(points),
        presat_latency: presaturation_latency(points),
    }
}

/// Sweeps a pre-built system constructor over the 1 VC rate grid.
fn sweep_custom(
    engine: &SweepEngine,
    build: impl Fn(u64) -> System + Sync,
    rates: &[f64],
    w: upp_workloads::runner::SweepWindows,
) -> Vec<SweepPoint> {
    let build = &build;
    engine.map(rates, |_, &rate| {
        let mut sys = build(SEED);
        let mut traffic =
            SyntheticTraffic::new(sys.net().topo(), Pattern::UniformRandom, rate, SEED);
        for _ in 0..w.warmup {
            traffic.tick(&mut sys);
            sys.step();
        }
        sys.net_mut().reset_stats();
        for _ in 0..w.measure {
            traffic.tick(&mut sys);
            sys.step();
        }
        let stats = sys.net().stats();
        SweepPoint {
            rate,
            net_latency: stats.avg_net_latency(),
            queue_latency: stats.avg_queue_latency(),
            total_latency: stats.avg_total_latency(),
            throughput: stats.throughput(w.measure, sys.net().topo().num_endpoints()),
            packets_ejected: stats.packets_ejected,
            upward_packets: 0,
            control_hops: stats.control_hops,
            p50: stats.latency_percentile(0.5),
            p95: stats.latency_percentile(0.95),
            p99: stats.latency_percentile(0.99),
            p999: stats.latency_percentile(0.999),
            deadlocked: stats.packets_ejected == 0,
            alerts: upp_workloads::runner::AlertCounts::default(),
        }
    })
}

/// Collects all three ablation studies.
pub fn collect(ctx: &Context) -> Vec<Row> {
    let spec = ChipletSystemSpec::baseline();
    let w = windows(ctx.quick);
    let rates = rates_1vc(ctx.quick);
    let mut rows = Vec::new();

    // --- Study 1: composable structure ---------------------------------
    let pts = ctx.engine.sweep_rates(
        "ablations",
        &spec,
        &cfg(1),
        &SchemeKind::Composable,
        0,
        Pattern::UniformRandom,
        &rates,
        w,
        SEED,
    );
    rows.push(measure_points(
        &pts,
        "composable-structure",
        "funneled (published)",
    ));
    {
        let topo = spec.build(SEED).expect("baseline builds");
        let balanced =
            Arc::new(ComposableConfig::build_balanced(&topo).expect("balanced search succeeds"));
        let routing = balanced.routing();
        let spec2 = spec.clone();
        let build = move |seed: u64| {
            let topo = spec2.build(SEED).expect("baseline builds");
            let net = Network::new(
                cfg(1),
                topo,
                Arc::new(routing.clone()),
                ConsumePolicy::Immediate { latency: 1 },
                seed,
            );
            // The balanced restriction set is still provably acyclic, so no
            // recovery scheme is needed.
            System::new(net, Box::new(upp_noc::NoScheme))
        };
        let pts = sweep_custom(&ctx.engine, build, &rates, w);
        rows.push(measure_points(
            &pts,
            "composable-structure",
            "balanced (minimal search)",
        ));
    }
    let pts = ctx.engine.sweep_rates(
        "ablations",
        &spec,
        &cfg(1),
        &SchemeKind::Upp(UppConfig::default()),
        0,
        Pattern::UniformRandom,
        &rates,
        w,
        SEED,
    );
    rows.push(measure_points(
        &pts,
        "composable-structure",
        "UPP (reference)",
    ));

    // --- Study 2: popup concurrency ------------------------------------
    for (label, ucfg) in [
        ("destination-keyed circuits (default)", UppConfig::default()),
        (
            "serialized per chiplet (Sec. V-B5 alternative)",
            UppConfig {
                serialize_per_chiplet: true,
                ..UppConfig::default()
            },
        ),
    ] {
        let pts = ctx.engine.sweep_rates(
            "ablations",
            &spec,
            &cfg(1),
            &SchemeKind::Upp(ucfg),
            0,
            Pattern::UniformRandom,
            &rates,
            w,
            SEED,
        );
        rows.push(measure_points(&pts, "popup-concurrency", label));
    }

    // --- Study 3: flow control -----------------------------------------
    for (label, base) in [
        (
            "wormhole (depth 5)",
            NocConfig::default().with_vc_buffer_depth(5),
        ),
        (
            "virtual cut-through (depth 5)",
            NocConfig::default().with_virtual_cut_through(),
        ),
    ] {
        let build = {
            let base = base.clone();
            let spec2 = spec.clone();
            move |seed: u64| {
                let topo = spec2.build(SEED).expect("baseline builds");
                let net = Network::new(
                    base.clone(),
                    topo,
                    Arc::new(upp_noc::routing::ChipletRouting::xy()),
                    ConsumePolicy::Immediate { latency: 1 },
                    seed,
                );
                System::new(net, Box::new(Upp::new(UppConfig::default())))
            }
        };
        let pts = sweep_custom(&ctx.engine, build, &rates, w);
        rows.push(measure_points(&pts, "flow-control", label));
    }
    rows
}

/// Runs the ablations and renders them.
pub fn run(ctx: &Context) -> ExperimentResult {
    let rows = collect(ctx);
    let mut out = String::new();
    out.push_str("### Ablations — quantifying the design choices (uniform random, 1 VC)\n\n");
    let mut t = MarkdownTable::new(["study", "variant", "saturation", "pre-sat latency"]);
    for r in &rows {
        t.row([
            r.study.clone(),
            r.variant.clone(),
            f3(r.saturation),
            f1(r.presat_latency),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nReadings: the balanced (minimal) composable search shows how much of the \
         published composable penalty comes from its funneled restriction structure; \
         per-chiplet popup serialization trades the destination-keyed circuit table for \
         less recovery concurrency; VCT behaves like wormhole at equal buffer depth.\n",
    );
    ExperimentResult::new("ablations", "Ablation studies", out, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_ctx;

    #[test]
    fn ablations_have_the_expected_ordering() {
        let rows = collect(&quick_ctx());
        let sat = |study: &str, variant_prefix: &str| {
            rows.iter()
                .find(|r| r.study == study && r.variant.starts_with(variant_prefix))
                .unwrap_or_else(|| panic!("{study}/{variant_prefix}"))
                .saturation
        };
        // The minimal restriction set must beat the published funneled one.
        assert!(
            sat("composable-structure", "balanced") >= sat("composable-structure", "funneled"),
            "minimal restrictions cannot be slower than funneled ones"
        );
        // Both flow controls must reach comparable saturation under UPP.
        let wh = sat("flow-control", "wormhole");
        let vct = sat("flow-control", "virtual");
        assert!(
            (vct / wh) > 0.7 && (vct / wh) < 1.4,
            "VCT and wormhole should be comparable: {vct} vs {wh}"
        );
    }
}
