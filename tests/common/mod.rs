//! What the system-level tests share: the baseline system under a scheme,
//! built by the one builder, and the traffic that wedges it.

// Each test target compiles its own copy and uses part of it.
#![allow(dead_code)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use upp_noc::config::NocConfig;
use upp_noc::ids::{NodeId, VnetId};
use upp_noc::ni::ConsumePolicy;
use upp_noc::sim::System;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{build_system, BuiltSystem, SchemeKind};

/// The baseline system under `kind` and `cfg`, with fault-free routing and
/// endpoints that consume a packet a cycle after it completes.
pub fn build(kind: SchemeKind, cfg: NocConfig, seed: u64) -> BuiltSystem {
    build_system(
        &ChipletSystemSpec::baseline(),
        cfg,
        &kind,
        0,
        seed,
        ConsumePolicy::Immediate { latency: 1 },
    )
}

/// Uniform-random traffic between chiplet routers for `cycles` cycles: each
/// router offers a packet with probability `rate` per cycle, on a random
/// VNet with the Table II mix (1-flit control on VNets 0 and 1, 5-flit data
/// on VNet 2). Returns the accepted packets and flits.
pub fn drive(sys: &mut System, seed: u64, cycles: u64, rate: f64) -> (u64, u64) {
    let cores: Vec<NodeId> = sys
        .net()
        .topo()
        .chiplets()
        .iter()
        .flat_map(|c| c.routers.iter().copied())
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut packets, mut flits) = (0u64, 0u64);
    for _ in 0..cycles {
        for &src in &cores {
            if rng.gen::<f64>() >= rate {
                continue;
            }
            let dest = cores[rng.gen_range(0..cores.len())];
            if dest == src {
                continue;
            }
            let vnet = VnetId(rng.gen_range(0..3u8));
            let len = if vnet.0 == 2 { 5 } else { 1 };
            if sys.send(src, dest, vnet, len).is_some() {
                packets += 1;
                flits += u64::from(len);
            }
        }
        sys.step();
    }
    (packets, flits)
}

/// Compares `actual` against the committed golden `tests/goldens/<name>`,
/// or rewrites it when `UPP_UPDATE_GOLDENS=1`.
pub fn check_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    if std::env::var("UPP_UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed golden {}: {e}", path.display()));
    assert!(
        expected == actual,
        "{name}: the output differs from the committed golden.\n\
         If the change is intentional, refresh with UPP_UPDATE_GOLDENS=1.\n\
         --- golden ---\n{expected}\n--- actual ---\n{actual}"
    );
}
