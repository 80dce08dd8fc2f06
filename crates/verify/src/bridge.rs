//! Replay bridge between `upp-check` counterexample artifacts and the
//! concrete simulator.
//!
//! The model checker in `crates/check` explores an *abstracted* transition
//! system of the popup protocol. Its verdicts are only trustworthy if the
//! abstraction tracks the real implementation, so every artifact it emits
//! embeds a fully concrete [`Scenario`] — the same schema family as the
//! ddmin shrinker's repro artifacts — that sets up the analogous situation
//! in the full simulator, plus the outcome class the abstract verdict
//! predicts. [`replay_artifact`] runs the scenario end to end under the
//! scheme-independent oracle and checks the prediction:
//!
//! * an abstract *violation* (a deadlock the weakened protocol never
//!   recovers, a popup livelock) must wedge concretely — the oracle
//!   convicts a persistent circular wait or the run hits its cycle bound;
//! * an abstract *clean* verdict (bounded recovery proven) must drain
//!   concretely with the delivered multiset matching the offered one.
//!
//! A mismatch in either direction means the abstraction has drifted from
//! the implementation and the model checker's proof is void — which is
//! exactly what the cross-validation tests in `crates/check` exist to
//! catch.

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::harness::{oracle_for, run_scenario, RunReport, Verdict};
use crate::scenario::Scenario;

/// Current bridge artifact format version.
pub const CHECK_ARTIFACT_VERSION: u64 = 1;

/// The outcome class an abstract verdict predicts for its concrete replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedOutcome {
    /// The protocol recovers: the concrete run drains with delivery intact.
    Recovers,
    /// The (weakened) protocol wedges: the oracle convicts or the run is
    /// still stuck at its cycle bound.
    Wedges,
}

impl ExpectedOutcome {
    /// The artifact-format label.
    pub fn label(self) -> &'static str {
        match self {
            ExpectedOutcome::Recovers => "recovers",
            ExpectedOutcome::Wedges => "wedges",
        }
    }

    /// Parses an artifact-format label.
    ///
    /// # Errors
    ///
    /// Returns `Err` for unknown labels.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "recovers" => Ok(ExpectedOutcome::Recovers),
            "wedges" => Ok(ExpectedOutcome::Wedges),
            other => Err(format!("unknown expected outcome {other:?}")),
        }
    }
}

impl std::fmt::Display for ExpectedOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One step of the abstract counterexample trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbstractStep {
    /// The fired transition, e.g. `"WatchdogExpire(r1)"`.
    pub transition: String,
    /// Compact rendering of the post-state.
    pub state: String,
}

/// A replayable `upp-check` verdict artifact.
#[derive(Debug, Clone)]
pub struct CheckArtifact {
    /// Artifact format version ([`CHECK_ARTIFACT_VERSION`]).
    pub version: u64,
    /// The property the verdict concerns: `"bounded-recovery"`,
    /// `"no-livelock"` or `"clean"` (both properties verified).
    pub property: String,
    /// Human-readable summary of the abstract model configuration.
    pub model: String,
    /// The protocol mutation the model ran with, if any.
    pub mutation: Option<String>,
    /// The abstract trace: transitions from the initial state to the
    /// violating state (or cycle). Empty for clean verdicts.
    pub steps: Vec<AbstractStep>,
    /// The outcome class predicted for the concrete replay.
    pub expected: ExpectedOutcome,
    /// The concrete scenario that reproduces the abstract situation.
    pub scenario: Scenario,
}

impl CheckArtifact {
    /// Renders the artifact as a JSON document (the embedded scenario is a
    /// nested object in the scenario schema, not an escaped string).
    pub fn to_json(&self) -> String {
        let scenario: Value = serde_json::from_str(&self.scenario.to_json())
            .expect("Scenario::to_json emits valid JSON");
        let mut pairs = vec![
            ("version".into(), Value::U64(self.version)),
            ("kind".into(), Value::String("upp-check/artifact".into())),
            ("property".into(), Value::String(self.property.clone())),
            ("model".into(), Value::String(self.model.clone())),
        ];
        if let Some(m) = &self.mutation {
            pairs.push(("mutation".into(), Value::String(m.clone())));
        }
        pairs.push(("steps".into(), self.steps.ser_value()));
        pairs.push((
            "expected".into(),
            Value::String(self.expected.label().into()),
        ));
        pairs.push(("scenario".into(), scenario));
        let mut text =
            serde_json::to_string_pretty(&Value::Object(pairs)).expect("artifact serializes");
        text.push('\n');
        text
    }

    /// Parses an artifact from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns `Err` on malformed JSON, an unsupported version, or
    /// missing/ill-typed fields (including the embedded scenario's own
    /// validation).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
        let version = v
            .get("version")
            .and_then(Value::as_u64)
            .ok_or("missing \"version\"")?;
        if version != CHECK_ARTIFACT_VERSION {
            return Err(format!(
                "unsupported check artifact version {version} (this build reads {CHECK_ARTIFACT_VERSION})"
            ));
        }
        let field_str = |k: &str| -> Result<String, String> {
            Ok(v.get(k)
                .and_then(Value::as_str)
                .ok_or(format!("missing \"{k}\""))?
                .to_string())
        };
        let steps = Vec::<AbstractStep>::de_value(v.get("steps").ok_or("missing \"steps\"")?)
            .ok_or("a step lacks a \"transition\" or \"state\" string")?;
        let scenario_value = v.get("scenario").ok_or("missing \"scenario\"")?;
        let scenario_text =
            serde_json::to_string(scenario_value).map_err(|e| format!("scenario subtree: {e}"))?;
        let scenario = Scenario::from_json(&scenario_text)?;
        Ok(Self {
            version,
            property: field_str("property")?,
            model: field_str("model")?,
            mutation: v
                .get("mutation")
                .and_then(Value::as_str)
                .map(str::to_string),
            steps,
            expected: ExpectedOutcome::parse(&field_str("expected")?)?,
            scenario,
        })
    }
}

/// Outcome of replaying one artifact through the concrete simulator.
#[derive(Debug, Clone)]
pub struct BridgeReport {
    /// The full concrete run report.
    pub report: RunReport,
    /// The outcome class the concrete run actually landed in.
    pub concrete: ExpectedOutcome,
    /// True when the concrete outcome matches the abstract prediction.
    pub confirmed: bool,
}

impl BridgeReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        let verdict = match &self.report.verdict {
            Verdict::Drained { at } => format!("drained at cycle {at}"),
            Verdict::OracleViolation(v) => format!("oracle violation: {v}"),
            Verdict::Stuck {
                in_flight,
                last_progress,
            } => format!("stuck with {in_flight} in flight (last progress {last_progress})"),
        };
        format!(
            "{} — concrete outcome `{}` {} the abstract prediction",
            verdict,
            self.concrete,
            if self.confirmed {
                "confirms"
            } else {
                "CONTRADICTS"
            }
        )
    }
}

/// Classifies a concrete run report into the bridge's outcome classes.
///
/// `Recovers` requires a clean drain *and* intact end-to-end delivery; any
/// failure mode — oracle conviction, cycle-bound exhaustion, or a
/// delivered-multiset mismatch — counts as `Wedges`.
pub fn classify(report: &RunReport) -> ExpectedOutcome {
    match (&report.verdict, report.failure()) {
        (Verdict::Drained { .. }, None) => ExpectedOutcome::Recovers,
        _ => ExpectedOutcome::Wedges,
    }
}

/// Replays an artifact's embedded scenario through the concrete simulator
/// and checks the abstract prediction.
pub fn replay_artifact(artifact: &CheckArtifact) -> BridgeReport {
    let report = run_scenario(&artifact.scenario, oracle_for(&artifact.scenario));
    let concrete = classify(&report);
    BridgeReport {
        confirmed: concrete == artifact.expected,
        concrete,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{random_scenario, CampaignParams};

    fn sample_artifact() -> CheckArtifact {
        let mut sc = random_scenario(&CampaignParams::default(), 3).expect("valid");
        sc.scheme = "UPP".into();
        CheckArtifact {
            version: CHECK_ARTIFACT_VERSION,
            property: "bounded-recovery".into(),
            model: "routers=2 queue_depth=2".into(),
            mutation: Some("never-expire-watchdog".into()),
            steps: vec![
                AbstractStep {
                    transition: "Inject(r0, d1)".into(),
                    state: "q0=[1] q1=[]".into(),
                },
                AbstractStep {
                    transition: "Hop(r0)".into(),
                    state: "q0=[] q1=[1]".into(),
                },
            ],
            expected: ExpectedOutcome::Recovers,
            scenario: sc,
        }
    }

    #[test]
    fn artifact_json_round_trips() {
        let a = sample_artifact();
        let json = a.to_json();
        let back = CheckArtifact::from_json(&json).expect("parses");
        assert_eq!(back.version, a.version);
        assert_eq!(back.property, a.property);
        assert_eq!(back.model, a.model);
        assert_eq!(back.mutation, a.mutation);
        assert_eq!(back.steps, a.steps);
        assert_eq!(back.expected, a.expected);
        assert_eq!(back.scenario.scheme, a.scenario.scheme);
        assert_eq!(back.scenario.traffic, a.scenario.traffic);
        assert_eq!(back.scenario.faults, a.scenario.faults);
    }

    #[test]
    fn version_and_field_validation() {
        let a = sample_artifact();
        let json = a.to_json().replace("\"version\": 1", "\"version\": 99");
        assert!(CheckArtifact::from_json(&json)
            .unwrap_err()
            .contains("version"));
        assert!(CheckArtifact::from_json("{}").is_err());
        assert!(CheckArtifact::from_json("not json").is_err());
    }

    #[test]
    fn expected_outcome_labels_round_trip() {
        for e in [ExpectedOutcome::Recovers, ExpectedOutcome::Wedges] {
            assert_eq!(ExpectedOutcome::parse(e.label()), Ok(e));
        }
        assert!(ExpectedOutcome::parse("explodes").is_err());
    }
}
