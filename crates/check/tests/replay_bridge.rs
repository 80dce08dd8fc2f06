//! Cross-validation: abstract verdicts must survive contact with the
//! concrete simulator.
//!
//! Every `upp-check` artifact embeds a concrete scenario and a predicted
//! outcome class; `upp-verify`'s bridge replays the scenario end to end
//! under the scheme-independent oracle. These tests generate the clean
//! flagship artifact and the watchdog-disabled counterexample, pin each
//! one's bytes by digest (guarding against silent drift in the model, the
//! trace rendering or the embedded scenario), and replay them — and
//! freshly emitted mutation artifacts — in their wire form.

use upp_check::explore::{explore, fnv1a64, Exploration};
use upp_check::model::{ModelCfg, Mutation};
use upp_check::props::{check_bounded_recovery, check_no_livelock};
use upp_check::{clean_artifact, livelock_artifact, recovery_artifact};
use upp_verify::bridge::{replay_artifact, CheckArtifact, ExpectedOutcome};

// FNV-1a 64 digests of the two artifacts' JSON: the bytes of the 297 KB
// fixture files they replaced, which were the generator's output.
const CLEAN_FLAGSHIP_DIGEST: u64 = 0x8c55_4273_19d0_0b89;
const NEVER_EXPIRE_WATCHDOG_DIGEST: u64 = 0xd69c_3fe5_6749_30db;

fn explored(mutation: Option<Mutation>) -> Exploration {
    let mut cfg = ModelCfg::flagship(2);
    cfg.mutation = mutation;
    explore(&cfg, true, 2_000_000).expect("explores")
}

/// `artifact` parsed back from its JSON, after checking the JSON's digest
/// when one is pinned: the replayed artifact is the wire form, exactly what
/// a bug report would carry.
fn wire_form(artifact: &CheckArtifact, digest: Option<u64>) -> CheckArtifact {
    let json = artifact.to_json();
    if let Some(digest) = digest {
        let got = fnv1a64(json.as_bytes());
        assert_eq!(
            got, digest,
            "{} artifact drifted: {got:016x}",
            artifact.property
        );
    }
    CheckArtifact::from_json(&json).expect("round-trips")
}

/// The clean verdict on the two-router flagship model.
fn clean_flagship() -> CheckArtifact {
    let ex = explored(None);
    check_bounded_recovery(&ex).expect("clean");
    check_no_livelock(&ex).expect("clean");
    wire_form(&clean_artifact(&ex), Some(CLEAN_FLAGSHIP_DIGEST))
}

/// The clean-verdict artifact replays through the full simulator and
/// drains under UPP, as the abstract proof predicted.
#[test]
fn clean_artifact_is_pinned_and_replays_and_recovers() {
    let artifact = clean_flagship();
    assert_eq!(artifact.expected, ExpectedOutcome::Recovers);
    assert_eq!(artifact.scenario.scheme, "UPP");
    let report = replay_artifact(&artifact);
    assert!(
        report.confirmed,
        "clean verdict contradicted concretely: {}",
        report.summary()
    );
}

/// The watchdog-disabled artifact replays and wedges — the oracle
/// convicts a persistent circular wait, not a mere timeout.
#[test]
fn never_expire_artifact_is_pinned_and_replays_and_wedges() {
    let ex = explored(Some(Mutation::NeverExpireWatchdog));
    let v = check_bounded_recovery(&ex).expect_err("convicted");
    let artifact = wire_form(
        &recovery_artifact(&ex, &v),
        Some(NEVER_EXPIRE_WATCHDOG_DIGEST),
    );
    assert_eq!(artifact.expected, ExpectedOutcome::Wedges);
    assert_eq!(artifact.scenario.scheme, "UPP@t=1000000");
    let report = replay_artifact(&artifact);
    assert!(
        report.confirmed,
        "wedge prediction contradicted concretely: {}",
        report.summary()
    );
    assert!(
        matches!(
            report.report.verdict,
            upp_verify::Verdict::OracleViolation(_)
        ),
        "expected an oracle conviction, got {:?}",
        report.report.verdict
    );
}

/// A freshly emitted weakened-variant artifact (circuit insertion
/// skipped, concretized to the recovery-free scheme) replays and wedges.
#[test]
fn fresh_skip_circuit_artifact_replays_and_wedges() {
    let ex = explored(Some(Mutation::SkipCircuitInsert));
    let v = check_bounded_recovery(&ex).expect_err("convicted");
    let artifact = wire_form(&recovery_artifact(&ex, &v), None);
    assert_eq!(artifact.scenario.scheme, "none");
    let report = replay_artifact(&artifact);
    assert!(report.confirmed, "{}", report.summary());
}

/// The livelock counterexample's artifact also carries a replayable
/// wedge prediction, and its trace ends in the cycle.
#[test]
fn fresh_bounce_ack_livelock_artifact_is_well_formed_and_replays() {
    let ex = explored(Some(Mutation::BounceAck));
    let v = check_no_livelock(&ex).expect_err("convicted");
    let artifact = wire_form(&livelock_artifact(&ex, &v), None);
    assert_eq!(artifact.property, "no-livelock");
    assert!(artifact.steps.len() > v.cycle.len());
    let report = replay_artifact(&artifact);
    assert!(report.confirmed, "{}", report.summary());
}

/// Negative control for the bridge itself: an artifact that predicts the
/// *wrong* outcome must be flagged as contradicted, proving the replay
/// check has teeth.
#[test]
fn bridge_flags_a_wrong_prediction() {
    let mut artifact = clean_flagship();
    artifact.expected = ExpectedOutcome::Wedges;
    let report = replay_artifact(&artifact);
    assert!(
        !report.confirmed,
        "a wrong prediction must not be confirmed"
    );
}
