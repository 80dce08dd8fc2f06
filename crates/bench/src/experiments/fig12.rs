//! Fig. 12: number of detected upward packets during full-system runs,
//! 1 VC vs 4 VCs per VNet. Reuses the Fig. 8 coherence runs.

use super::{fig8, Context};
use crate::report::{ExperimentResult, MarkdownTable};
use serde::Serialize;

/// Upward-packet counts for one benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Detected upward packets with 1 VC per VNet.
    pub upward_1vc: u64,
    /// Detected upward packets with 4 VCs per VNet.
    pub upward_4vc: u64,
    /// Total packets delivered (1 VC run), for the <0.01% comparison.
    pub total_packets_1vc: u64,
}

/// Collects the counts from the Fig. 8 UPP runs.
pub fn collect(ctx: &Context) -> Vec<Row> {
    let d = fig8::data(ctx);
    let mut rows: Vec<Row> = Vec::new();
    for r in d.runs.iter().filter(|r| r.scheme == "UPP" && r.vcs == 1) {
        let four = d
            .runs
            .iter()
            .find(|x| x.scheme == "UPP" && x.vcs == 4 && x.benchmark == r.benchmark)
            .map(|x| x.upward_packets)
            .unwrap_or(0);
        rows.push(Row {
            benchmark: r.benchmark.clone(),
            upward_1vc: r.upward_packets,
            upward_4vc: four,
            total_packets_1vc: r.packets,
        });
    }
    rows.sort_by(|a, b| a.benchmark.cmp(&b.benchmark));
    rows
}

/// Runs Fig. 12 and renders it.
pub fn run(ctx: &Context) -> ExperimentResult {
    let rows = collect(ctx);
    let mut out = String::new();
    out.push_str("### Fig. 12 — detected upward packets in full-system runs\n\n");
    let mut t = MarkdownTable::new([
        "benchmark",
        "upward packets (1 VC)",
        "upward packets (4 VCs)",
        "total packets (1 VC)",
        "share (1 VC)",
    ]);
    for r in &rows {
        let share = if r.total_packets_1vc == 0 {
            0.0
        } else {
            r.upward_1vc as f64 / r.total_packets_1vc as f64
        };
        t.row([
            r.benchmark.clone(),
            r.upward_1vc.to_string(),
            r.upward_4vc.to_string(),
            r.total_packets_1vc.to_string(),
            format!("{:.4}%", share * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nPaper: upward packets stay a vanishing share of total packets, and adding VCs \
         (1 -> 4 per VNet) sharply reduces them.\n",
    );
    ExperimentResult::new("fig12", "Fig. 12: upward packet counts", out, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_ctx;

    #[test]
    fn upward_packets_are_a_tiny_share_and_shrink_with_vcs() {
        let rows = collect(&quick_ctx());
        assert!(!rows.is_empty());
        let total_1: u64 = rows.iter().map(|r| r.upward_1vc).sum();
        let total_4: u64 = rows.iter().map(|r| r.upward_4vc).sum();
        assert!(
            total_4 <= total_1,
            "4 VCs must not detect more upward packets ({total_4} vs {total_1})"
        );
        for r in &rows {
            if r.total_packets_1vc > 0 {
                let share = r.upward_1vc as f64 / r.total_packets_1vc as f64;
                assert!(
                    share < 0.05,
                    "{}: upward share {share} too high",
                    r.benchmark
                );
            }
        }
    }
}
