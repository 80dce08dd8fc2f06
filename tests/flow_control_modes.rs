//! Flow-control modularity (Table I): UPP must work unchanged under both
//! wormhole and virtual cut-through. Deadlocks still form under VCT — it
//! bounds where a blocked packet sits, not the cyclic dependencies — and UPP
//! recovers either way.

mod common;

use upp_core::UppConfig;
use upp_noc::config::{FlowControl, NocConfig};
use upp_noc::ids::VnetId;
use upp_noc::sim::RunOutcome;
use upp_workloads::runner::{BuiltSystem, SchemeKind};

fn build(fc: FlowControl, kind: SchemeKind, seed: u64) -> BuiltSystem {
    let cfg = match fc {
        FlowControl::Wormhole => NocConfig::default(),
        FlowControl::VirtualCutThrough => NocConfig::default().with_virtual_cut_through(),
    };
    common::build(kind, cfg, seed)
}

#[test]
fn vct_systems_also_deadlock_without_a_scheme() {
    let mut wedged = 0;
    for seed in 0..4u64 {
        let mut sys = build(FlowControl::VirtualCutThrough, SchemeKind::None, seed).sys;
        common::drive(&mut sys, seed, 3_000, 0.30);
        if matches!(sys.run_until_drained(30_000), RunOutcome::Deadlocked { .. }) {
            wedged += 1;
        }
    }
    assert!(
        wedged > 0,
        "VCT does not remove integration-induced deadlocks"
    );
}

#[test]
fn upp_recovers_under_virtual_cut_through() {
    for seed in 0..3u64 {
        let upp = SchemeKind::Upp(UppConfig::default());
        let mut built = build(FlowControl::VirtualCutThrough, upp, seed);
        let (sent, _) = common::drive(&mut built.sys, seed, 3_000, 0.30);
        let out = built.sys.run_until_drained(300_000);
        assert!(
            matches!(out, RunOutcome::Drained { .. }),
            "VCT seed {seed}: {out:?}"
        );
        assert_eq!(built.sys.net().stats().packets_ejected, sent);
        let s = built.upp_stats().expect("the scheme is UPP");
        assert!(
            s.upward_packets > 0,
            "VCT seed {seed}: recovery must have engaged"
        );
        // Under VCT a blocked packet is fully buffered at one router, so
        // mid-worm (partial) popups should be rarer than full popups.
        assert!(
            s.partial_popups <= s.popups_completed,
            "VCT seed {seed}: {s:?}"
        );
    }
}

#[test]
fn vct_zero_load_latency_matches_wormhole() {
    // At zero load the two disciplines behave identically per hop.
    for fc in [FlowControl::Wormhole, FlowControl::VirtualCutThrough] {
        let mut sys = build(fc, SchemeKind::None, 1).sys;
        let c = sys.net().topo().chiplets()[0].clone();
        sys.send(c.routers[0], c.routers[15], VnetId(2), 5).unwrap();
        let out = sys.run_until_drained(500);
        assert!(matches!(out, RunOutcome::Drained { .. }));
        let lat = sys.net().stats().avg_net_latency();
        assert!((15.0..=40.0).contains(&lat), "{fc:?}: {lat}");
    }
}

#[test]
fn vct_conserves_under_moderate_load() {
    let upp = SchemeKind::Upp(UppConfig::default());
    let mut sys = build(FlowControl::VirtualCutThrough, upp, 5).sys;
    let (sent, _) = common::drive(&mut sys, 5, 2_000, 0.10);
    let out = sys.run_until_drained(200_000);
    assert!(matches!(out, RunOutcome::Drained { .. }));
    assert_eq!(sys.net().stats().packets_ejected, sent);
    assert_eq!(
        sys.net().stats().flits_injected,
        sys.net().stats().flits_ejected
    );
}
