//! Quickstart: build the paper's baseline system (Fig. 1), protect it with
//! UPP, drive uniform-random traffic, and print the run's statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use upp::workloads::run::{run, RunConfig};

fn main() {
    // The baseline system under UPP with Table II's network (3 VNets, 1 VC
    // each, 4-flit buffers): every field not named here is `simulate`'s
    // default. The offered rate is beyond the unprotected network's
    // deadlock point.
    let cfg = RunConfig {
        rate: 0.10,
        cycles: 30_000,
        seed: 42,
        ..RunConfig::default()
    };
    let built = cfg.build().expect("the baseline system builds");

    // Four 4x4 chiplets on a 4x4 active interposer, four vertical links per
    // chiplet.
    let topo = built.sys.net().topo();
    println!(
        "system: {} chiplet routers + {} interposer routers, {} vertical links",
        topo.chiplets()
            .iter()
            .map(|c| c.routers.len())
            .sum::<usize>(),
        topo.interposer_routers().len(),
        topo.chiplets()
            .iter()
            .map(|c| c.boundary_routers.len())
            .sum::<usize>(),
    );
    println!("{cfg}");

    // Traffic for `cycles`, then a drain of at most as many again.
    let report = run(built, &cfg, &mut |event| eprintln!("{event}"));
    print!("{}", report.text());

    let stats = report.sys.net().stats();
    assert_eq!(
        stats.packets_ejected, stats.packets_created,
        "UPP delivers everything"
    );
    println!("every injected packet was delivered — no deadlock survived.");
}
