//! Network flexibility (Sec. VI-B): UPP adapts to dynamic topology changes —
//! links fail at runtime, the local routing tables are rebuilt in-place, and
//! traffic (including recovery) continues. Composable routing would need its
//! design-time restriction search; remote control's permission subnetwork is
//! hard-wired.

mod common;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use upp_core::UppConfig;
use upp_noc::config::NocConfig;
use upp_noc::ids::{NodeId, Port, VnetId};
use upp_noc::routing::{ChipletRouting, RouteTables};
use upp_noc::sim::{RunOutcome, System};
use upp_workloads::runner::SchemeKind;

fn upp_system(seed: u64) -> System {
    common::build(
        SchemeKind::Upp(UppConfig::default()),
        NocConfig::default(),
        seed,
    )
    .sys
}

#[test]
fn links_fail_at_runtime_and_traffic_continues() {
    let mut sys = upp_system(7);

    // Phase 1: healthy network under real load.
    let (sent1, _) = common::drive(&mut sys, 1, 2_000, 0.15);
    assert!(matches!(
        sys.run_until_drained(200_000),
        RunOutcome::Drained { .. }
    ));
    assert_eq!(sys.net().stats().packets_ejected, sent1);

    // Phase 2: two mesh links die; rebuild up*/down* tables online.
    let victims: Vec<(NodeId, Port)> = {
        let topo = sys.net().topo();
        let c0 = &topo.chiplets()[0];
        vec![
            (c0.routers[0], Port::East),
            (topo.interposer_routers()[5], Port::North),
        ]
    };
    // Reconfiguration is refused while packets are in flight.
    sys.net_mut()
        .try_send(victims[0].0, victims[0].0, VnetId(0), 1);
    {
        let topo = sys.net().topo().clone();
        let tables = Arc::new(RouteTables::build(&topo));
        // (network still has the probe packet queued)
        let err = sys
            .net_mut()
            .reconfigure(|_| {}, Arc::new(ChipletRouting::with_tables(tables)));
        assert!(err.is_err(), "reconfiguration must be refused mid-flight");
    }
    assert!(matches!(
        sys.run_until_drained(10_000),
        RunOutcome::Drained { .. }
    ));

    // Now drained: apply the faults and swap in table routing.
    {
        let mut planned = sys.net().topo().clone();
        for &(n, p) in &victims {
            planned.set_link_faulty(n, p);
        }
        let tables = Arc::new(RouteTables::build(&planned));
        sys.net_mut()
            .reconfigure(
                |topo| {
                    for &(n, p) in &victims {
                        topo.set_link_faulty(n, p);
                    }
                },
                Arc::new(ChipletRouting::with_tables(tables)),
            )
            .expect("drained network reconfigures");
    }
    assert_eq!(sys.net().topo().num_faulty_links(), 2);

    // Phase 3: same load on the degraded network; UPP still delivers all.
    let before = sys.net().stats().packets_ejected;
    let (sent2, _) = common::drive(&mut sys, 2, 2_000, 0.15);
    let out = sys.run_until_drained(200_000);
    assert!(matches!(out, RunOutcome::Drained { .. }), "{out:?}");
    assert_eq!(sys.net().stats().packets_ejected - before, sent2);
}

#[test]
fn repeated_reconfigurations_accumulate_faults_gracefully() {
    let mut sys = upp_system(11);
    let mut rng = SmallRng::seed_from_u64(77);
    let mut total_sent = 0;
    for round in 0..4u64 {
        total_sent += common::drive(&mut sys, round, 800, 0.06).0;
        assert!(matches!(
            sys.run_until_drained(100_000),
            RunOutcome::Drained { .. }
        ));
        // Fail one random surviving mesh link per round (keeping validity).
        let candidates: Vec<(NodeId, Port)> = {
            let topo = sys.net().topo();
            topo.nodes()
                .iter()
                .flat_map(|n| n.links().map(move |(p, _)| (n.id, p)))
                .filter(|&(n, p)| p.is_mesh() && !topo.is_link_faulty(n, p))
                .collect()
        };
        let pick = candidates[rng.gen_range(0..candidates.len())];
        let mut planned = sys.net().topo().clone();
        planned.set_link_faulty(pick.0, pick.1);
        if planned.validate().is_err() {
            continue; // would disconnect a region; skip this round's fault
        }
        let tables = Arc::new(RouteTables::build(&planned));
        sys.net_mut()
            .reconfigure(
                |topo| topo.set_link_faulty(pick.0, pick.1),
                Arc::new(ChipletRouting::with_tables(tables)),
            )
            .unwrap();
    }
    assert!(sys.net().topo().num_faulty_links() >= 1);
    assert_eq!(sys.net().stats().packets_ejected, total_sent);
}
