//! Fig. 11 scenario: UPP on irregular topologies. Links fail at random, each
//! region falls back to up*/down* table routing, and UPP keeps the system
//! deadlock-free while throughput degrades gracefully.
//!
//! ```text
//! cargo run --release --example faulty_links
//! ```

use upp::workloads::run::{run, RunConfig};

fn main() {
    println!("faults | delivered | avg latency | upward packets | outcome");
    println!("-------+-----------+-------------+----------------+--------");
    for faults in [0usize, 1, 5, 10, 15, 20] {
        // The baseline system under UPP at 0.05 flits/cycle/node; `faults`
        // random mesh links fail, placed so every region stays connected.
        let cfg = RunConfig {
            cycles: 20_000,
            faults,
            seed: 3,
            ..RunConfig::default()
        };
        let built = cfg.build().expect("UPP builds on any connected topology");
        let report = run(built, &cfg, &mut |event| eprintln!("{event}"));
        let stats = report.sys.net().stats();
        println!(
            "{faults:>6} | {:>9} | {:>11.1} | {:>14} | {:?}",
            stats.packets_ejected,
            stats.avg_total_latency(),
            report.upp.map_or(0, |s| s.upward_packets),
            report.outcome,
        );
        assert_eq!(
            stats.packets_ejected, stats.packets_created,
            "UPP must deliver everything even on irregular topologies"
        );
    }
    println!("\nno run deadlocked; latency rises gracefully with the fault count (Fig. 11).");
}
