//! The PR's acceptance campaign: differential cross-checking of all
//! recovery schemes over seeded random traffic and dynamic fault plans,
//! plus the "liar" check that an unprotected scheme is caught by the
//! scheme-independent oracle and shrunk to a replayable repro.

use upp_bench::sweep::SweepEngine;
use upp_verify::scenario::{random_scenario, CampaignParams};
use upp_verify::{oracle_for, run_differential, run_scenario, shrink, Scenario, Verdict};

const SCHEMES: [&str; 3] = ["UPP", "remote-control", "composable"];

/// CI-quick differential campaign: 100 seeded (traffic, fault-plan) points
/// on the 2-chiplet mini system, every recovery scheme, zero oracle
/// violations and byte-identical delivered multisets required.
#[test]
fn hundred_point_differential_campaign_is_clean() {
    let params = CampaignParams::default();
    let seeds: Vec<u64> = (0..100).collect();
    let engine =
        SweepEngine::new(upp_bench::sweep::default_jobs().expect("UPP_JOBS is a positive integer"));
    let failures: Vec<String> = engine
        .map(&seeds, |_, &seed| {
            let base = random_scenario(&params, seed).expect("valid params");
            let diff = run_differential(&base, &SCHEMES, oracle_for(&base));
            diff.failures
                .iter()
                .map(|f| format!("seed {seed}: {f}"))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
    assert!(
        failures.is_empty(),
        "campaign found {} failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

fn liar_scenario() -> Scenario {
    let params = CampaignParams {
        rate: 0.25,
        horizon: 500,
        max_cycles: 4_000,
        link_faults: 1,
        throttles: 1,
        ..CampaignParams::default()
    };
    let mut sc = random_scenario(&params, 0).expect("valid params");
    sc.scheme = "none".into();
    sc
}

/// An intentionally-broken scheme (no recovery at all) under adversarial
/// load must be caught by the oracle — not merely time out — and the
/// shrinker must reduce it to a smaller scenario that still reproduces
/// after a JSON round trip.
#[test]
fn no_recovery_mutant_is_caught_and_shrunk_to_replayable_repro() {
    let sc = liar_scenario();
    let report = run_scenario(&sc, oracle_for(&sc));
    let Verdict::OracleViolation(v) = &report.verdict else {
        panic!(
            "oracle must catch the unprotected scheme, got {:?}",
            report.verdict
        );
    };
    assert!(!v.channels.is_empty(), "violation names the wait cycle");

    let reduced = shrink(
        &sc,
        |cand| {
            matches!(
                run_scenario(cand, oracle_for(cand)).verdict,
                Verdict::OracleViolation(_)
            )
        },
        24,
    );
    assert!(
        reduced.scenario.traffic.len() < sc.traffic.len(),
        "shrinker should drop traffic ({} -> {})",
        sc.traffic.len(),
        reduced.scenario.traffic.len()
    );

    // The minimal repro survives a JSON round trip and still fails.
    let mut artifact = reduced.scenario.clone();
    artifact.failure = report.failure();
    let replayed = Scenario::from_json(&artifact.to_json()).expect("artifact parses");
    let verdict = run_scenario(&replayed, oracle_for(&replayed)).verdict;
    assert!(
        matches!(verdict, Verdict::OracleViolation(_)),
        "replayed artifact must reproduce the violation, got {verdict:?}"
    );
}

/// The same traffic without the broken scheme drains cleanly — the liar
/// test's failure is the scheme's fault, not the scenario's.
#[test]
fn liar_scenario_is_survivable_with_recovery() {
    let mut sc = liar_scenario();
    sc.scheme = "UPP".into();
    let report = run_scenario(&sc, oracle_for(&sc));
    assert!(
        report.failure().is_none(),
        "UPP must survive the liar scenario: {:?}",
        report.failure()
    );
}
