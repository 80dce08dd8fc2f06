//! The flight recorder's zero-interference guarantee: attaching a tracer —
//! disabled or recording — must not change a single simulation outcome.
//! Two systems with identical seeds and traffic, one with
//! `Tracer::disabled()` (the default) and one with a recording ring sink,
//! must produce byte-identical statistics.
//!
//! Both runs take the same path through the kernel, and do the same work:
//! a parked VC stays parked and a blocked router sleeps under a tracer too,
//! which charges their blocked cycles as spans. Debug builds check each open
//! span against what its VC waits on, in every cycle; the Fig. 3 recipe,
//! where those spans have the most to get wrong, runs traced and plain in
//! `tests/kernel_reference.rs`.

mod common;

use upp_core::UppConfig;
use upp_noc::config::NocConfig;
use upp_noc::trace::Tracer;
use upp_workloads::runner::SchemeKind;

fn run_pair(kind: SchemeKind, seed: u64) {
    let scheme = kind.label();
    let mut plain = common::build(kind.clone(), NocConfig::default(), seed);
    let mut traced = common::build(kind, NocConfig::default(), seed);
    traced.sys.net_mut().set_tracer(Tracer::ring(1 << 16));

    // Identical pseudo-random traffic for both systems: `common::drive`'s
    // uniform VNet mix at 0.20 into endpoints that consume a packet a
    // cycle after it completes.
    common::drive(&mut plain.sys, seed, 2_000, 0.20);
    common::drive(&mut traced.sys, seed, 2_000, 0.20);
    let _ = plain.sys.run_until_drained(100_000);
    let _ = traced.sys.run_until_drained(100_000);

    let tracer = traced.sys.net_mut().set_tracer(Tracer::disabled());
    assert!(
        !tracer.is_empty(),
        "{scheme}: the recording run must actually have captured events"
    );
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
    assert_eq!(
        plain.work_counts(),
        traced.work_counts(),
        "{scheme}: kernel work"
    );
}

#[test]
fn disabled_and_recording_tracers_agree_without_scheme() {
    run_pair(SchemeKind::None, 3);
}

#[test]
fn disabled_and_recording_tracers_agree_under_upp() {
    run_pair(SchemeKind::Upp(UppConfig::with_threshold(5)), 3);
}
