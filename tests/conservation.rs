//! Cross-crate conservation invariants, property-tested over random traffic:
//! whatever the scheme, every accepted packet is eventually delivered exactly
//! once, no flits are lost or duplicated, and UPP leaves no dangling protocol
//! state (reservations, frozen VCs) once the network drains.

mod common;

use proptest::prelude::*;
use upp_core::UppConfig;
use upp_noc::config::NocConfig;
use upp_noc::ids::{NodeId, VnetId};
use upp_noc::sim::RunOutcome;
use upp_workloads::runner::SchemeKind;

fn check_conservation(kind: SchemeKind, vcs: usize, seed: u64, rate: f64) {
    let label = kind.label();
    let mut built = common::build(kind, NocConfig::default().with_vcs_per_vnet(vcs), seed);
    let sys = &mut built.sys;
    let (packets, flits) = common::drive(sys, seed, 1_200, rate);
    let out = sys.run_until_drained(400_000);
    assert!(
        matches!(out, RunOutcome::Drained { .. }),
        "{label}/{vcs}VC/seed{seed}: {out:?}"
    );
    let stats = sys.net().stats();
    assert_eq!(stats.packets_ejected, packets, "packet conservation");
    assert_eq!(stats.flits_ejected, flits, "flit conservation");
    assert_eq!(
        stats.packets_injected, packets,
        "every accepted packet entered the network"
    );

    // No dangling UPP state after drain: reservations all released, no VC
    // left frozen anywhere.
    let nodes: Vec<NodeId> = sys.net().topo().nodes().iter().map(|n| n.id).collect();
    // A reservation may legitimately be in flight if a stop is still
    // travelling; give the protocol time to quiesce.
    sys.run(2_000);
    for n in nodes {
        for v in 0..3u8 {
            assert_eq!(
                sys.net().ni(n).reservations(VnetId(v)),
                0,
                "{label}: dangling reservation at {n} vnet {v}"
            );
        }
        let r = sys.net().router(n);
        for (p, f) in r.input_vcs() {
            let vc = r.input_vc(p, f);
            assert!(r.vc_buf_is_empty(p, f), "{label}: flit left in {n} {p}/{f}");
            assert!(vc.owner.is_none(), "{label}: VC still owned at {n} {p}/{f}");
        }
    }
    if let Some(s) = built.upp_stats() {
        assert!(
            s.acks_sent <= s.reqs_sent,
            "protocol conservation: acks {} > reqs {}",
            s.acks_sent,
            s.reqs_sent
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn upp_conserves_under_random_load(seed in 0u64..500, heavy in proptest::bool::ANY) {
        let rate = if heavy { 0.25 } else { 0.08 };
        check_conservation(SchemeKind::Upp(UppConfig::default()), 1, seed, rate);
    }

    #[test]
    fn upp_conserves_with_four_vcs(seed in 0u64..500) {
        check_conservation(SchemeKind::Upp(UppConfig::default()), 4, seed, 0.2);
    }

    #[test]
    fn composable_conserves_under_random_load(seed in 0u64..500) {
        check_conservation(SchemeKind::Composable, 1, seed, 0.15);
    }

    #[test]
    fn remote_conserves_under_random_load(seed in 0u64..500) {
        check_conservation(SchemeKind::RemoteControl, 1, seed, 0.15);
    }
}
