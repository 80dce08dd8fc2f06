//! Full-system scenario (Fig. 8): run a MESI-style coherence benchmark on
//! all three schemes and compare runtimes — cores on every chiplet router,
//! eight directories on the interposer, three message classes over three
//! VNets.
//!
//! ```text
//! cargo run --release --example coherence_app [benchmark]
//! ```

use upp::noc::config::NocConfig;
use upp::noc::ni::ConsumePolicy;
use upp::noc::topology::ChipletSystemSpec;
use upp::workloads::coherence::run_benchmark;
use upp::workloads::profiles::{all_benchmarks, benchmark};
use upp::workloads::runner::{build_system, SchemeKind};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "canneal".to_string());
    let Some(profile) = benchmark(&name) else {
        eprintln!("unknown benchmark {name}; available:");
        for b in all_benchmarks() {
            eprintln!("  {}", b.name);
        }
        std::process::exit(2);
    };
    println!(
        "benchmark {name}: intensity {:.3}, window {}, {} transactions/core, \
         fwd {:.0}%, wb {:.0}%",
        profile.intensity,
        profile.window,
        profile.transactions,
        profile.fwd_prob * 100.0,
        profile.wb_prob * 100.0
    );

    let spec = ChipletSystemSpec::baseline();
    let mut baseline_cycles = None;
    for kind in SchemeKind::evaluated() {
        let mut built = build_system(
            &spec,
            NocConfig::default(),
            &kind,
            0,
            7,
            ConsumePolicy::External,
        );
        let r = run_benchmark(&mut built.sys, profile, 7, 50_000_000);
        assert!(!r.incomplete, "{} must complete", kind.label());
        let upward = built.upp_stats().map_or(0, |s| s.upward_packets);
        let norm = match baseline_cycles {
            None => {
                baseline_cycles = Some(r.cycles);
                1.0
            }
            Some(base) => r.cycles as f64 / base as f64,
        };
        println!(
            "{:<15} runtime {:>8} cycles (normalized {:.3}) | {:>7} packets | \
             net latency {:>5.1} | upward packets {}",
            kind.label(),
            r.cycles,
            norm,
            r.packets,
            r.avg_net_latency,
            upward
        );
    }
    println!(
        "\nExpected shape (paper Fig. 8): UPP fastest, composable slowest, remote \
         control in between (its injection control costs latency)."
    );
}
