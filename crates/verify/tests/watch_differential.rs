//! Watch differential assertions: every harness run arms the online
//! health monitor, so the verify suite can demand that *healthy* runs are
//! alert-free and that an unrecovered deadlock (`scheme = "none"`) fires
//! the deadlock-adjacent detectors — and that the same traffic under a
//! recovery scheme does not. The alert stream is part of [`RunReport`],
//! so these are pure-library tests: no binaries, no files.

use std::collections::BTreeSet;

use upp_noc::watch::{AlertKind, Detector, Severity, WatchConfig};
use upp_verify::scenario::{random_scenario, CampaignParams, Scenario};
use upp_verify::{oracle_for, run_scenario, run_scenario_watched, RunReport, Verdict};

/// Names of the detectors in a report's alert stream.
fn fired(r: &RunReport) -> BTreeSet<&'static str> {
    r.alerts.iter().map(|a| a.detector.name()).collect()
}

/// Deterministically finds a mini-system scenario that wedges without a
/// recovery scheme: scans a fixed seed range at a hot rate and returns the
/// first whose `"none"` run fails to drain. The scan is part of the test's
/// determinism story — no hand-picked seed can rot silently, because a
/// calibration change just selects the next wedging seed.
fn wedging_scenario() -> (Scenario, RunReport) {
    for seed in 0..40u64 {
        let params = CampaignParams {
            rate: 0.2,
            link_faults: 0,
            throttles: 0,
            ..CampaignParams::default()
        };
        let mut sc = random_scenario(&params, seed).expect("valid params");
        sc.scheme = "none".into();
        let report = run_scenario(&sc, oracle_for(&sc));
        if !matches!(report.verdict, Verdict::Drained { .. }) {
            return (sc, report);
        }
    }
    panic!("no seed in 0..40 wedges the mini system at rate 0.2 without recovery");
}

#[test]
fn clean_runs_are_alert_free() {
    for scheme in ["UPP", "remote-control", "composable"] {
        for seed in [1u64, 17, 42] {
            let mut sc = random_scenario(&CampaignParams::default(), seed).expect("valid params");
            sc.scheme = scheme.into();
            let report = run_scenario(&sc, oracle_for(&sc));
            assert!(
                report.failure().is_none(),
                "[{scheme} seed {seed}] unhealthy run: {:?}",
                report.failure()
            );
            assert!(
                report.alerts.is_empty(),
                "[{scheme} seed {seed}] healthy run raised alerts: {:?}",
                report.alerts
            );
        }
    }
}

#[test]
fn unrecovered_deadlock_fires_the_deadlock_detectors() {
    let (_, report) = wedging_scenario();
    let names = fired(&report);
    assert!(
        names.contains("injection_starvation"),
        "a wedged run must starve injection; fired: {names:?}\n{:?}",
        report.alerts
    );
    // The wedge persists well past raise_after + critical_after epochs, so
    // the starvation span escalates to critical before the oracle (or the
    // cycle bound) ends the run.
    assert!(
        report
            .alerts
            .iter()
            .any(|a| a.detector == Detector::InjectionStarvation
                && a.kind == AlertKind::Escalate
                && a.severity == Severity::Critical),
        "starvation should escalate to critical:\n{:?}",
        report.alerts
    );
}

#[test]
fn recovery_scheme_silences_the_deadlock_detectors() {
    let (sc, none_report) = wedging_scenario();
    let mut upp = sc.clone();
    upp.scheme = "UPP".into();
    let upp_report = run_scenario(&upp, oracle_for(&upp));
    assert!(
        upp_report.failure().is_none(),
        "UPP must recover the wedging scenario: {:?}",
        upp_report.failure()
    );
    let none_fired = fired(&none_report);
    let upp_fired = fired(&upp_report);
    assert!(
        none_fired.contains("injection_starvation") && !upp_fired.contains("injection_starvation"),
        "starvation should separate the schemes; none fired {none_fired:?}, UPP fired {upp_fired:?}"
    );
}

/// Scheme-specific detectors under sensitized thresholds: with the popup
/// trigger lowered to a single recovery per epoch, the wedging traffic
/// makes UPP's popup activity visible — while the same traffic without a
/// recovery scheme has no popups at all, so the detector stays silent even
/// at the lowered threshold.
#[test]
fn sensitized_popup_detector_separates_upp_from_none() {
    let (sc, _) = wedging_scenario();
    let sensitized = WatchConfig {
        raise_after: 1,
        popup_storm_rate: 1,
        ..WatchConfig::default()
    };
    let mut upp = sc.clone();
    upp.scheme = "UPP".into();
    let upp_report = run_scenario_watched(&upp, oracle_for(&upp), true, sensitized.clone());
    let none_report = run_scenario_watched(&sc, oracle_for(&sc), true, sensitized);
    assert!(
        fired(&upp_report).contains("popup_storm"),
        "UPP's recovery should trip the sensitized popup detector; fired: {:?}\n{:?}",
        fired(&upp_report),
        upp_report.alerts
    );
    assert!(
        !fired(&none_report).contains("popup_storm"),
        "no popups exist without UPP; fired: {:?}",
        fired(&none_report)
    );
}

/// The other scheme-specific detectors, sensitized the same way: UPP's
/// watchdog expiries and circuit-table entries, remote control's permit
/// queue. Each fires under the scheme that owns its metric, and none fires
/// on the same traffic without a recovery scheme, where the metric does not
/// exist.
#[test]
fn sensitized_scheme_detectors_fire_only_under_their_scheme() {
    let (sc, _) = wedging_scenario();
    let sensitized = WatchConfig {
        raise_after: 1,
        watchdog_rate: 1,
        circuit_entries: 1,
        permit_queue_depth: 1,
        ..WatchConfig::default()
    };
    let owned = [
        ("UPP", "watchdog_cascade"),
        ("UPP", "circuit_saturation"),
        ("remote-control", "permit_queue_runaway"),
    ];
    let none_fired = fired(&run_scenario_watched(
        &sc,
        oracle_for(&sc),
        true,
        sensitized.clone(),
    ));
    for (scheme, detector) in owned {
        let mut under = sc.clone();
        under.scheme = scheme.into();
        let report = run_scenario_watched(&under, oracle_for(&under), true, sensitized.clone());
        assert!(
            fired(&report).contains(detector),
            "{scheme} should trip the sensitized {detector}; fired: {:?}",
            fired(&report)
        );
        assert!(
            !none_fired.contains(detector),
            "{detector} fired without a recovery scheme: {none_fired:?}"
        );
    }
}
