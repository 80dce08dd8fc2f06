//! The flight recorder's zero-interference guarantee: attaching a tracer —
//! disabled or recording — must not change a single simulation outcome.
//! Two systems with identical seeds and traffic, one with
//! `Tracer::disabled()` (the default) and one with a recording ring sink,
//! must produce byte-identical statistics.
//!
//! The recording run is also the reference for the routers' parked VCs:
//! with a tracer armed, switch allocation evaluates every occupied VC to
//! record why it is blocked, while the plain run skips the parked ones. The
//! Fig. 3 recipe, where most routers hold flits that cannot move while UPP
//! pops packets up, is where parking has the most to get wrong.

mod common;

use upp_core::UppConfig;
use upp_noc::config::NocConfig;
use upp_noc::ni::ConsumePolicy;
use upp_noc::sim::System;
use upp_noc::topology::ChipletSystemSpec;
use upp_noc::trace::Tracer;
use upp_workloads::runner::{build_system, BuiltSystem, SchemeKind};
use upp_workloads::synthetic::{Pattern, SyntheticTraffic};

#[derive(Clone, Copy, PartialEq)]
enum Load {
    /// `common::drive`'s uniform VNet mix at 0.20 into endpoints that
    /// consume a packet a cycle after it completes.
    Mixed,
    /// The Fig. 3 deadlock recipe: hotspot traffic at 0.06 into endpoints
    /// that take 120 cycles to consume a packet.
    Fig3,
}

fn build(kind: SchemeKind, seed: u64, load: Load) -> BuiltSystem {
    match load {
        Load::Mixed => common::build(kind, NocConfig::default(), seed),
        Load::Fig3 => build_system(
            &ChipletSystemSpec::baseline(),
            NocConfig::default(),
            &kind,
            0,
            seed,
            ConsumePolicy::Immediate { latency: 120 },
        ),
    }
}

fn drive(sys: &mut System, seed: u64, load: Load) {
    match load {
        Load::Mixed => {
            common::drive(sys, seed, 2_000, 0.20);
        }
        Load::Fig3 => {
            let mut traffic = SyntheticTraffic::new(sys.net().topo(), Pattern::Hotspot, 0.06, seed);
            for _ in 0..2_500 {
                traffic.tick(sys);
                sys.step();
            }
        }
    }
}

fn run_pair(kind: SchemeKind, seed: u64, load: Load) {
    let scheme = kind.label();
    let mut plain = build(kind.clone(), seed, load);
    let mut traced = build(kind, seed, load);
    traced.sys.net_mut().set_tracer(Tracer::ring(1 << 16));

    // Identical pseudo-random traffic for both systems.
    drive(&mut plain.sys, seed, load);
    drive(&mut traced.sys, seed, load);
    let _ = plain.sys.run_until_drained(100_000);
    let _ = traced.sys.run_until_drained(100_000);

    let tracer = traced.sys.net_mut().set_tracer(Tracer::disabled());
    assert!(
        !tracer.is_empty(),
        "{scheme}: the recording run must actually have captured events"
    );
    if load == Load::Fig3 {
        let popups = plain.upp_stats().map_or(0, |s| s.popups_completed);
        assert!(
            popups > 0,
            "{scheme}: the recipe must pop packets up, or the comparison is vacuous"
        );
    }
    // Byte-identical statistics: tracing observed the run without touching
    // RNG draws, arbitration order or timing.
    let (plain, traced) = (plain.sys.net(), traced.sys.net());
    assert_eq!(
        format!("{:?}", plain.stats()),
        format!("{:?}", traced.stats()),
        "{scheme} seed {seed}: tracer perturbed the simulation"
    );
    assert_eq!(plain.cycle(), traced.cycle());
    assert_eq!(plain.in_flight(), traced.in_flight());
}

#[test]
fn disabled_and_recording_tracers_agree_without_scheme() {
    run_pair(SchemeKind::None, 3, Load::Mixed);
}

#[test]
fn disabled_and_recording_tracers_agree_under_upp() {
    run_pair(
        SchemeKind::Upp(UppConfig::with_threshold(5)),
        3,
        Load::Mixed,
    );
}

#[test]
fn disabled_and_recording_tracers_agree_under_upp_in_the_fig3_recipe() {
    run_pair(
        SchemeKind::Upp(UppConfig::with_threshold(20)),
        3,
        Load::Fig3,
    );
}
