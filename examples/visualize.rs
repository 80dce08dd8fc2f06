//! Renders the baseline system as SVG — once idle, and once wedged in a
//! genuine integration-induced deadlock with occupancy heat showing where
//! the frozen dependency chains sit. Also prints the ASCII occupancy grids.
//!
//! ```text
//! cargo run --release --example visualize
//! # -> topology.svg, deadlock_heat.svg
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use upp::noc::config::NocConfig;
use upp::noc::ids::{NodeId, VnetId};
use upp::noc::ni::ConsumePolicy;
use upp::noc::topology::ChipletSystemSpec;
use upp::noc::viz::{occupancy_ascii, topology_svg};
use upp::workloads::runner::{build_system, SchemeKind};

fn main() -> std::io::Result<()> {
    let mut sys = build_system(
        &ChipletSystemSpec::baseline(),
        NocConfig::default(),
        &SchemeKind::None,
        0,
        7,
        ConsumePolicy::Immediate { latency: 1 },
    )
    .sys;
    std::fs::write("topology.svg", topology_svg(sys.net().topo(), &[]))?;
    println!("wrote topology.svg (idle system)");

    // Wedge the unprotected system.
    let cores: Vec<NodeId> = sys
        .net()
        .topo()
        .chiplets()
        .iter()
        .flat_map(|c| c.routers.iter().copied())
        .collect();
    let mut rng = SmallRng::seed_from_u64(1);
    for _ in 0..3_000 {
        for &src in &cores {
            if rng.gen::<f64>() >= 0.3 {
                continue;
            }
            let dest = cores[rng.gen_range(0..cores.len())];
            if dest == src {
                continue;
            }
            let vnet = VnetId(rng.gen_range(0..3u8));
            let len = if vnet.0 == 2 { 5 } else { 1 };
            let _ = sys.send(src, dest, vnet, len);
        }
        sys.step();
    }
    let _ = sys.run_until_drained(10_000);
    let occupancy = sys.net().occupancy();
    let frozen: usize = occupancy.iter().map(|&(_, f)| f).sum();
    println!(
        "network state after the load burst: {} packets in flight, {} flits buffered, stalled: {}",
        sys.net().in_flight(),
        frozen,
        sys.net().stalled()
    );
    assert!(
        sys.net().stalled() && sys.net().in_flight() > 0,
        "the burst must wedge the unprotected system"
    );
    std::fs::write(
        "deadlock_heat.svg",
        topology_svg(sys.net().topo(), &occupancy),
    )?;
    println!("wrote deadlock_heat.svg (occupancy heat; red = frozen dependency chains)");
    println!(
        "\nASCII occupancy (boundary routers starred, Up-linked interposer routers marked ^):\n"
    );
    println!("{}", occupancy_ascii(sys.net().topo(), &occupancy));
    Ok(())
}
