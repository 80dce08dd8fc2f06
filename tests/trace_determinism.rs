//! The flight recorder's zero-interference guarantee: attaching a tracer —
//! disabled or recording — must not change a single simulation outcome.
//! Two systems with identical seeds and traffic, one with
//! `Tracer::disabled()` (the default) and one with a recording ring sink,
//! must produce byte-identical statistics.

mod common;

use upp_core::UppConfig;
use upp_noc::config::NocConfig;
use upp_noc::trace::Tracer;
use upp_workloads::runner::SchemeKind;

fn run_pair(kind: SchemeKind, seed: u64) {
    let scheme = kind.label();
    let mut plain = common::build(kind.clone(), NocConfig::default(), seed).sys;
    let mut traced = common::build(kind, NocConfig::default(), seed).sys;
    traced.net_mut().set_tracer(Tracer::ring(1 << 16));

    // Identical pseudo-random traffic for both systems.
    common::drive(&mut plain, seed, 2_000, 0.20);
    common::drive(&mut traced, seed, 2_000, 0.20);
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
    run_pair(SchemeKind::None, 3);
}

#[test]
fn disabled_and_recording_tracers_agree_under_upp() {
    run_pair(SchemeKind::Upp(UppConfig::with_threshold(5)), 3);
}
