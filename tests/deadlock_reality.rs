//! The central honesty tests of the reproduction:
//!
//! 1. integration-induced deadlocks are *real* — the unprotected baseline
//!    system wedges under inter-chiplet load (watchdog: zero movement with
//!    packets in flight);
//! 2. UPP recovers from exactly those deadlocks — same traffic, same seeds,
//!    every packet delivered;
//! 3. the baselines (composable routing, remote control) avoid them.

mod common;

use upp_core::UppConfig;
use upp_noc::config::NocConfig;
use upp_noc::sim::{RunOutcome, System};
use upp_workloads::runner::SchemeKind;

fn build(kind: SchemeKind, seed: u64) -> System {
    common::build(kind, NocConfig::default(), seed).sys
}

#[test]
fn unprotected_system_deadlocks_under_load() {
    // At least one of a handful of seeds must wedge the unprotected network:
    // this is the paper's premise that integration induces real routing
    // deadlocks. (Higher rate -> denser cyclic waits.)
    let mut wedged = 0;
    for seed in 0..4u64 {
        let mut sys = build(SchemeKind::None, seed);
        common::drive(&mut sys, seed, 3_000, 0.30);
        let out = sys.run_until_drained(30_000);
        if matches!(out, RunOutcome::Deadlocked { .. }) {
            wedged += 1;
        }
    }
    assert!(
        wedged > 0,
        "the unprotected baseline system never deadlocked; the reproduction's \
         premise does not hold"
    );
}

#[test]
fn upp_recovers_from_the_same_load() {
    for seed in 0..4u64 {
        let mut sys = build(SchemeKind::Upp(UppConfig::default()), seed);
        let (sent, _) = common::drive(&mut sys, seed, 3_000, 0.30);
        let out = sys.run_until_drained(200_000);
        assert!(
            matches!(out, RunOutcome::Drained { .. }),
            "UPP seed {seed}: {out:?} after sending {sent}"
        );
        assert_eq!(
            sys.net().stats().packets_ejected,
            sent,
            "UPP must deliver everything"
        );
    }
}

#[test]
fn composable_routing_avoids_deadlock() {
    for seed in 0..2u64 {
        let mut sys = build(SchemeKind::Composable, seed);
        let (sent, _) = common::drive(&mut sys, seed, 3_000, 0.30);
        let out = sys.run_until_drained(200_000);
        assert!(
            matches!(out, RunOutcome::Drained { .. }),
            "composable seed {seed}: {out:?}"
        );
        assert_eq!(sys.net().stats().packets_ejected, sent);
    }
}

#[test]
fn remote_control_avoids_deadlock() {
    for seed in 0..2u64 {
        let mut sys = build(SchemeKind::RemoteControl, seed);
        let (sent, _) = common::drive(&mut sys, seed, 3_000, 0.30);
        let out = sys.run_until_drained(200_000);
        assert!(
            matches!(out, RunOutcome::Drained { .. }),
            "remote seed {seed}: {out:?}"
        );
        assert_eq!(sys.net().stats().packets_ejected, sent);
    }
}

#[test]
fn stall_report_names_the_wedged_dependency_cycle() {
    // Forensics on a real integration-induced deadlock: the report must
    // identify the participants and the circular wait, and its bookkeeping
    // must agree with the network's own occupancy counters.
    let mut examined = 0;
    for seed in 0..4u64 {
        let mut sys = build(SchemeKind::None, seed);
        common::drive(&mut sys, seed, 3_000, 0.30);
        if !matches!(sys.run_until_drained(30_000), RunOutcome::Deadlocked { .. }) {
            continue;
        }
        examined += 1;
        let report = sys.stall_report();
        assert!(
            report.wedged.len() >= 2,
            "a wormhole deadlock involves at least two packets, got {}",
            report.wedged.len()
        );
        assert!(
            report.is_deadlock() && !report.wait_cycle.is_empty(),
            "watchdog tripped but no circular wait was extracted"
        );
        assert_eq!(report.in_flight, sys.net().in_flight());
        // Occupancy agreement: every buffered flit belongs to some live
        // packet's held VC, so the holds must account for exactly the
        // network's buffered-flit population.
        let occupied: usize = sys.net().occupancy().iter().map(|&(_, f)| f).sum();
        assert_eq!(
            report.held_flits(),
            occupied,
            "holds must attribute every buffered flit (seed {seed})"
        );
        // The text rendering names every wedged packet and the cycle.
        let text = report.render_text();
        assert!(text.contains("DEADLOCK (circular wait found)"), "{text}");
        for w in &report.wedged {
            assert!(
                text.contains(&w.id.to_string()),
                "missing {} in:\n{text}",
                w.id
            );
        }
        assert!(text.contains("circular wait over"), "{text}");
    }
    assert!(
        examined > 0,
        "no seed deadlocked; cannot exercise the forensics path (see \
         unprotected_system_deadlocks_under_load)"
    );
}

#[test]
fn all_schemes_report_table_i_properties() {
    for kind in [
        SchemeKind::None,
        SchemeKind::Upp(UppConfig::default()),
        SchemeKind::Composable,
        SchemeKind::RemoteControl,
    ] {
        let p = build(kind, 0).parts_mut().1.properties();
        // Every modular scheme in Table I keeps the three modularity columns.
        assert!(p.topology_modularity && p.vc_modularity && p.flow_control_modularity);
    }
}
