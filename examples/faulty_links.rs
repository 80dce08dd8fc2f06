//! Fig. 11 scenario: UPP on irregular topologies. Links fail at random, each
//! region falls back to up*/down* table routing, and UPP keeps the system
//! deadlock-free while throughput degrades gracefully.
//!
//! ```text
//! cargo run --release --example faulty_links
//! ```

use upp::core::UppConfig;
use upp::noc::config::NocConfig;
use upp::noc::ni::ConsumePolicy;
use upp::noc::topology::{chiplet::inject_random_faults, ChipletSystemSpec};
use upp::workloads::runner::{build_on_topology, SchemeKind};
use upp::workloads::synthetic::{Pattern, SyntheticTraffic};

fn main() {
    println!("faults | delivered | avg latency | upward packets | outcome");
    println!("-------+-----------+-------------+----------------+--------");
    for faults in [0usize, 1, 5, 10, 15, 20] {
        let mut topo = ChipletSystemSpec::baseline().build(0).expect("valid spec");
        if faults > 0 {
            let failed =
                inject_random_faults(&mut topo, faults, 99).expect("regions stay connected");
            assert_eq!(failed.len(), faults);
        }
        let built = build_on_topology(
            topo,
            NocConfig::default(),
            &SchemeKind::Upp(UppConfig::default()),
            3,
            ConsumePolicy::Immediate { latency: 1 },
        )
        .expect("UPP builds on any connected topology");
        let mut sys = built.sys;
        let mut traffic = SyntheticTraffic::new(sys.net().topo(), Pattern::UniformRandom, 0.05, 3);
        for _ in 0..20_000 {
            traffic.tick(&mut sys);
            sys.step();
        }
        let outcome = sys.run_until_drained(100_000);
        let upward = built
            .upp_stats
            .as_ref()
            .map(|h| h.lock().expect("single-threaded").upward_packets)
            .unwrap_or(0);
        let stats = sys.net().stats();
        println!(
            "{faults:>6} | {:>9} | {:>11.1} | {:>14} | {outcome:?}",
            stats.packets_ejected,
            stats.avg_total_latency(),
            upward,
        );
        assert_eq!(
            stats.packets_ejected, stats.packets_created,
            "UPP must deliver everything even on irregular topologies"
        );
    }
    println!("\nno run deadlocked; latency rises gracefully with the fault count (Fig. 11).");
}
