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
use serde::Serialize;
use std::sync::Arc;
use upp_baselines::composable::ComposableConfig;
use upp_core::UppConfig;
use upp_noc::config::NocConfig;
use upp_noc::network::Network;
use upp_noc::ni::ConsumePolicy;
use upp_noc::sim::System;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{
    measure_point, presaturation_latency, saturation_throughput, BuiltSystem, SchemeKind,
    SweepPoint,
};
use upp_workloads::synthetic::Pattern;

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
        let routing = Arc::new(balanced.routing());
        let pts = ctx.engine.map(&rates, |_, &rate| {
            let net = Network::new(
                cfg(1),
                topo.clone(),
                routing.clone(),
                ConsumePolicy::Immediate { latency: 1 },
                SEED,
            );
            // The balanced restriction set is still provably acyclic, so no
            // recovery scheme is needed.
            let built = BuiltSystem {
                sys: System::new(net, Box::new(upp_noc::NoScheme)),
                upp_stats: None,
            };
            measure_point(built, Pattern::UniformRandom, rate, w, SEED)
        });
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
    for (label, tag, base) in [
        (
            "wormhole (depth 5)",
            "ablations/wormhole5",
            NocConfig::default().with_vc_buffer_depth(5),
        ),
        (
            "virtual cut-through (depth 5)",
            "ablations/vct5",
            NocConfig::default().with_virtual_cut_through(),
        ),
    ] {
        // The journal key carries only the VC count of a `NocConfig`, so
        // the flow-control variant goes into the tag.
        let pts = ctx.engine.sweep_rates(
            tag,
            &spec,
            &base,
            &SchemeKind::Upp(UppConfig::default()),
            0,
            Pattern::UniformRandom,
            &rates,
            w,
            SEED,
        );
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
