//! A Fig. 7-style latency sweep printed as CSV: three schemes, uniform
//! random traffic, 1 VC per VNet on the baseline system. It asserts what
//! the curves show: no point deadlocks, every scheme delivers its offered
//! rate (within 2%) up to 0.08, and UPP has the lowest total latency of the
//! three up to 0.09.
//!
//! ```text
//! cargo run --release --example latency_sweep > sweep.csv
//! ```

use upp::noc::config::NocConfig;
use upp::noc::topology::ChipletSystemSpec;
use upp::workloads::runner::{PointSpec, SchemeKind, SweepWindows};
use upp::workloads::synthetic::Pattern;

fn main() {
    // Short-ish windows so the example finishes in seconds; the full
    // reproduction (`repro fig7`) uses the paper's 10K/100K windows.
    let windows = SweepWindows {
        warmup: 2_000,
        measure: 20_000,
    };
    let rates = [0.01, 0.02, 0.04, 0.06, 0.08, 0.09, 0.10, 0.11, 0.12];

    println!("scheme,rate,net_latency,queue_latency,total_latency,throughput,upward_packets");
    let mut totals = Vec::new();
    for kind in SchemeKind::evaluated() {
        let mut row = Vec::new();
        for &rate in &rates {
            let p = PointSpec {
                system: ChipletSystemSpec::baseline(),
                noc: NocConfig::default(),
                scheme: kind.clone(),
                faults: 0,
                pattern: Pattern::UniformRandom,
                windows,
                seed: 7,
                rate,
            }
            .run();
            println!(
                "{},{:.3},{:.2},{:.2},{:.2},{:.4},{}",
                kind.label(),
                p.rate,
                p.net_latency,
                p.queue_latency,
                p.total_latency,
                p.throughput,
                p.upward_packets
            );
            assert!(!p.deadlocked, "{} deadlocked at {rate}", kind.label());
            if rate <= 0.08 {
                assert!(
                    (p.throughput - rate).abs() <= 0.02 * rate,
                    "{} delivered {:.4} of {rate} offered",
                    kind.label(),
                    p.throughput
                );
            }
            row.push(p.total_latency);
        }
        eprintln!("{} swept", kind.label());
        totals.push((kind, row));
    }
    // Below saturation UPP has the lowest total latency of the three.
    let upp = &totals
        .iter()
        .find(|(kind, _)| matches!(kind, SchemeKind::Upp(_)))
        .expect("UPP is evaluated")
        .1;
    for (i, &rate) in rates.iter().enumerate().filter(|&(_, &r)| r <= 0.09) {
        for (kind, row) in &totals {
            assert!(
                upp[i] <= row[i],
                "at {rate}: UPP {:.2} cycles, {} {:.2}",
                upp[i],
                kind.label(),
                row[i]
            );
        }
    }
    eprintln!("done; pipe stdout into your plotter of choice.");
}
