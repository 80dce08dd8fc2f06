//! The flight recorder's zero-interference guarantee: attaching a tracer —
//! disabled or recording — must not change a single simulation outcome.
//! Two systems with identical seeds and traffic, one with
//! `Tracer::disabled()` (the default) and one with a recording ring sink,
//! must produce byte-identical statistics.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use upp_core::{Upp, UppConfig};
use upp_noc::config::NocConfig;
use upp_noc::ids::{NodeId, VnetId};
use upp_noc::network::Network;
use upp_noc::ni::ConsumePolicy;
use upp_noc::routing::ChipletRouting;
use upp_noc::scheme::NoScheme;
use upp_noc::sim::System;
use upp_noc::trace::Tracer;

fn build(scheme: &str, seed: u64) -> System {
    let topo = upp_noc::topology::ChipletSystemSpec::baseline()
        .build(0)
        .unwrap();
    let net = Network::new(
        NocConfig::default(),
        topo,
        Arc::new(ChipletRouting::xy()),
        ConsumePolicy::Immediate { latency: 1 },
        seed,
    );
    let scheme: Box<dyn upp_noc::scheme::Scheme> = match scheme {
        "none" => Box::new(NoScheme),
        "upp" => Box::new(Upp::new(UppConfig::with_threshold(5))),
        other => panic!("unknown scheme {other}"),
    };
    System::new(net, scheme)
}

/// Identical pseudo-random traffic for both systems.
fn drive(sys: &mut System, seed: u64, cycles: u64, rate: f64) {
    let nodes: Vec<NodeId> = sys
        .net()
        .topo()
        .chiplets()
        .iter()
        .flat_map(|c| c.routers.iter().copied())
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..cycles {
        for &src in &nodes {
            if rng.gen::<f64>() >= rate {
                continue;
            }
            let dest = nodes[rng.gen_range(0..nodes.len())];
            if dest == src {
                continue;
            }
            let vnet = VnetId(rng.gen_range(0..3u8));
            let len = if vnet.0 == 2 { 5 } else { 1 };
            let _ = sys.send(src, dest, vnet, len);
        }
        sys.step();
    }
}

fn run_pair(scheme: &str, seed: u64) {
    let mut plain = build(scheme, seed);
    let mut traced = build(scheme, seed);
    traced.net_mut().set_tracer(Tracer::ring(1 << 16));

    drive(&mut plain, seed, 2_000, 0.20);
    drive(&mut traced, seed, 2_000, 0.20);
    let _ = plain.run_until_drained(100_000);
    let _ = traced.run_until_drained(100_000);

    let tracer = traced.net_mut().set_tracer(Tracer::disabled());
    assert!(
        !tracer.is_empty(),
        "{scheme}: the recording run must actually have captured events"
    );
    // Byte-identical statistics: tracing observed the run without touching
    // RNG draws, arbitration order or timing.
    assert_eq!(
        format!("{:?}", plain.net().stats()),
        format!("{:?}", traced.net().stats()),
        "{scheme} seed {seed}: tracer perturbed the simulation"
    );
    assert_eq!(plain.net().cycle(), traced.net().cycle());
    assert_eq!(plain.net().in_flight(), traced.net().in_flight());
}

#[test]
fn disabled_and_recording_tracers_agree_without_scheme() {
    run_pair("none", 3);
}

#[test]
fn disabled_and_recording_tracers_agree_under_upp() {
    run_pair("upp", 3);
}
