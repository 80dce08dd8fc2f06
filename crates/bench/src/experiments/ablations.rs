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

use super::{cfg, point, rates_1vc, Context};
use crate::report::{f1, f3, ExperimentResult, MarkdownTable};
use serde::Serialize;
use upp_core::UppConfig;
use upp_noc::config::NocConfig;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{presaturation_latency, saturation_throughput, SchemeKind};

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

/// Collects all three ablation studies.
pub fn collect(ctx: &Context) -> Vec<Row> {
    let spec = ChipletSystemSpec::baseline();
    let rates = rates_1vc(ctx.quick);
    let upp = SchemeKind::Upp(UppConfig::default());
    let serialized = SchemeKind::Upp(UppConfig {
        serialize_per_chiplet: true,
        ..UppConfig::default()
    });
    let studies = [
        (
            "composable-structure",
            "funneled (published)",
            cfg(1),
            SchemeKind::Composable,
        ),
        (
            "composable-structure",
            "balanced (minimal search)",
            cfg(1),
            SchemeKind::ComposableBalanced,
        ),
        (
            "composable-structure",
            "UPP (reference)",
            cfg(1),
            upp.clone(),
        ),
        (
            "popup-concurrency",
            "destination-keyed circuits (default)",
            cfg(1),
            upp.clone(),
        ),
        (
            "popup-concurrency",
            "serialized per chiplet (Sec. V-B5 alternative)",
            cfg(1),
            serialized,
        ),
        (
            "flow-control",
            "wormhole (depth 5)",
            NocConfig::default().with_vc_buffer_depth(5),
            upp.clone(),
        ),
        (
            "flow-control",
            "virtual cut-through (depth 5)",
            NocConfig::default().with_virtual_cut_through(),
            upp,
        ),
    ];
    studies
        .into_iter()
        .map(|(study, variant, noc, kind)| {
            let pts = ctx
                .engine
                .sweep_rates(&point(ctx, &spec, noc, kind), &rates);
            Row {
                study: study.into(),
                variant: variant.into(),
                saturation: saturation_throughput(&pts),
                presat_latency: presaturation_latency(&pts),
            }
        })
        .collect()
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
