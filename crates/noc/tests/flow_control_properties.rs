//! Flow-control invariants: after the network drains, every credit has
//! returned (all output-VC mirrors are back at full depth and unowned), and
//! the pipeline timing model delivers flits at the documented cadence.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use upp_noc::config::NocConfig;
use upp_noc::ids::{NodeId, Port, VnetId};
use upp_noc::network::Network;
use upp_noc::ni::ConsumePolicy;
use upp_noc::routing::ChipletRouting;
use upp_noc::scheme::NoScheme;
use upp_noc::sim::{RunOutcome, System};
use upp_noc::topology::ChipletSystemSpec;

fn sys(vcs: usize, depth: usize, seed: u64) -> System {
    let topo = ChipletSystemSpec::baseline().build(0).unwrap();
    let cfg = NocConfig::default()
        .with_vcs_per_vnet(vcs)
        .with_vc_buffer_depth(depth);
    let net = Network::new(
        cfg,
        topo,
        Arc::new(ChipletRouting::xy()),
        ConsumePolicy::Immediate { latency: 1 },
        seed,
    );
    System::new(net, Box::new(NoScheme))
}

/// Low-load random traffic (too light to deadlock even unprotected).
fn drive(sysm: &mut System, seed: u64, cycles: u64) -> u64 {
    let cores: Vec<NodeId> = sysm
        .net()
        .topo()
        .chiplets()
        .iter()
        .flat_map(|c| c.routers.iter().copied())
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sent = 0;
    for _ in 0..cycles {
        for &src in &cores {
            if rng.gen::<f64>() >= 0.02 {
                continue;
            }
            let dest = cores[rng.gen_range(0..cores.len())];
            if dest == src {
                continue;
            }
            let vnet = VnetId(rng.gen_range(0..3u8));
            let len = if vnet.0 == 2 { 5 } else { 1 };
            if sysm.send(src, dest, vnet, len).is_some() {
                sent += 1;
            }
        }
        sysm.step();
    }
    sent
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn credits_fully_return_after_drain(
        vcs in prop_oneof![Just(1usize), Just(2), Just(4)],
        depth in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let mut s = sys(vcs, depth, seed);
        let sent = drive(&mut s, seed, 800);
        let out = s.run_until_drained(100_000);
        prop_assert!(matches!(out, RunOutcome::Drained { .. }), "{out:?}");
        prop_assert_eq!(s.net().stats().packets_ejected, sent);
        let nodes: Vec<NodeId> = s.net().topo().nodes().iter().map(|n| n.id).collect();
        for n in nodes {
            let r = s.net().router(n);
            for p in Port::ALL {
                if !r.has_link(p) {
                    continue;
                }
                for f in 0..vcs * 3 {
                    let out_vc = r.output_vc(p, f);
                    prop_assert!(!out_vc.busy, "VC still owned at {n} {p}/{f}");
                    if p != Port::Local {
                        prop_assert_eq!(
                            usize::from(out_vc.credits), depth,
                            "credit leak at {} {}/{}: {} of {}",
                            n, p, f, out_vc.credits, depth
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn single_flit_hop_cadence_is_three_cycles() {
    // One-flit packet across exactly one link: inject link (1) + BW -> SA
    // (1) -> ST (1) -> LT (1) per router. Measures the documented pipeline
    // (Fig. 5) so regressions in stage accounting are caught precisely.
    let mut s = sys(1, 4, 0);
    let c = s.net().topo().chiplets()[0].clone();
    let (src, dest) = (c.routers[0], c.routers[1]);
    s.send(src, dest, VnetId(0), 1).unwrap();
    let out = s.run_until_drained(100);
    assert!(matches!(out, RunOutcome::Drained { .. }));
    let lat = s.net().stats().avg_net_latency();
    // 2 routers x 3 stages + injection/ejection links: small fixed constant.
    assert!((6.0..=10.0).contains(&lat), "unexpected hop cadence: {lat}");
}

#[test]
fn back_to_back_packets_on_one_vc_do_not_interleave() {
    // Two 5-flit packets from the same source to the same destination on the
    // same VNet: the second must wait for the first's VC to free, so their
    // ejection order matches injection order (NI assembly would panic on
    // interleaving).
    let mut s = sys(1, 4, 1);
    let c = s.net().topo().chiplets()[0].clone();
    let (src, dest) = (c.routers[0], c.routers[15]);
    let id1 = s.send(src, dest, VnetId(2), 5).unwrap();
    let id2 = s.send(src, dest, VnetId(2), 5).unwrap();
    assert!(id1 < id2);
    let out = s.run_until_drained(1_000);
    assert!(matches!(out, RunOutcome::Drained { .. }));
    assert_eq!(s.net().stats().packets_ejected, 2);
    assert_eq!(s.net().stats().flits_ejected, 10);
}

#[test]
fn saturating_one_link_bounds_throughput_at_one_flit_per_cycle() {
    // Hammer a single destination from its direct neighbour: the ejection
    // link is the bottleneck and delivered flits can never exceed 1/cycle.
    let mut s = sys(4, 4, 2);
    let c = s.net().topo().chiplets()[0].clone();
    let (src, dest) = (c.routers[0], c.routers[1]);
    for cycle in 0..4_000u64 {
        let _ = s.send(src, dest, VnetId((cycle % 3) as u8), 5);
        s.step();
    }
    let flits = s.net().stats().flits_ejected;
    assert!(flits <= 4_000, "ejection exceeded link bandwidth: {flits}");
    assert!(
        flits > 2_000,
        "pipelining should keep the link mostly busy: {flits}"
    );
}
