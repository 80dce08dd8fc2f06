//! Self-contained, replayable descriptions of one adversarial run.
//!
//! A [`Scenario`] pins down everything the harness needs to reproduce a run
//! bit-for-bit: the system shape, the scheme under test, the build seed,
//! the full offered-traffic trace and the dynamic fault schedule. The JSON
//! form is what the shrinker dumps as a minimal repro artifact and what
//! `verify replay` consumes.

use upp_core::UppConfig;
use upp_noc::config::NocConfig;
use upp_noc::fault::{FaultAction, FaultEvent, FaultPlan};
use upp_noc::ids::{Cycle, NodeId, Port, VnetId};
use upp_noc::topology::{ChipletPlacement, ChipletSystemSpec, SystemKind};
use upp_workloads::runner::SchemeKind;

use serde_json::Value;

use crate::traffic::{TrafficEntry, TrafficTrace};

/// Current artifact format version.
pub const SCENARIO_VERSION: u64 = 1;

/// One fully-specified adversarial run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// System shape name: `"baseline"`, `"large"` or `"mini"`.
    pub system: String,
    /// Scheme label, as produced by `SchemeKind::label()`.
    pub scheme: String,
    /// Seed for topology binding and router RNGs.
    pub seed: u64,
    /// VCs per VNet.
    pub vcs_per_vnet: usize,
    /// Cycle bound on offered traffic and fault activity.
    pub horizon: Cycle,
    /// Absolute run bound (a run still undrained here is stuck).
    pub max_cycles: Cycle,
    /// Offered traffic, sorted by ready cycle.
    pub traffic: Vec<TrafficEntry>,
    /// Dynamic fault schedule.
    pub faults: Vec<FaultEvent>,
    /// Failure description attached by the harness/shrinker, if any.
    pub failure: Option<String>,
}

/// A 2-chiplet mini system (two 4x4 chiplets on a 4x2 interposer): the
/// smallest shape whose cross-chiplet traffic exercises the full
/// up-across-down dependency structure, used to keep randomized campaigns
/// cheap.
pub fn mini_spec() -> ChipletSystemSpec {
    ChipletSystemSpec {
        interposer_width: 4,
        interposer_height: 2,
        chiplets: vec![
            ChipletPlacement {
                width: 4,
                height: 4,
                vertical_links: vec![((2, 0), (1, 0)), ((1, 3), (0, 1))],
            },
            ChipletPlacement {
                width: 4,
                height: 4,
                vertical_links: vec![((2, 0), (3, 0)), ((1, 3), (2, 1))],
            },
        ],
    }
}

/// Resolves a system name to its spec: `mini`, or any name `simulate
/// --system` takes ([`SystemKind`]'s `FromStr`).
///
/// # Errors
///
/// Returns `Err` for unknown names and shapes that cannot be built.
pub fn system_spec(name: &str) -> Result<ChipletSystemSpec, String> {
    match name {
        "mini" => Ok(mini_spec()),
        other => ChipletSystemSpec::try_of_kind(other.parse::<SystemKind>()?),
    }
}

/// Knobs for one seeded randomized campaign point.
#[derive(Debug, Clone)]
pub struct CampaignParams {
    /// System shape name (see [`system_spec`]).
    pub system: String,
    /// VCs per VNet.
    pub vcs_per_vnet: usize,
    /// Cycle bound on offered traffic and fault activity.
    pub horizon: Cycle,
    /// Per-endpoint, per-cycle offer probability.
    pub rate: f64,
    /// Dynamic link fail/heal pairs to attempt.
    pub link_faults: usize,
    /// Endpoint pause/resume pairs to attempt.
    pub throttles: usize,
    /// Absolute run bound.
    pub max_cycles: Cycle,
}

impl Default for CampaignParams {
    fn default() -> Self {
        Self {
            system: "mini".into(),
            vcs_per_vnet: 2,
            horizon: 300,
            rate: 0.03,
            link_faults: 2,
            throttles: 1,
            max_cycles: 8_000,
        }
    }
}

/// Generates the fully-specified scenario for one campaign seed. The
/// scheme is left empty; the differential runner fills it per scheme.
///
/// # Errors
///
/// Returns `Err` for an unknown system name or a malformed spec.
pub fn random_scenario(p: &CampaignParams, seed: u64) -> Result<Scenario, String> {
    let spec = system_spec(&p.system)?;
    let topo = spec.build(seed)?;
    let trace = TrafficTrace::random(&topo, seed, p.horizon, p.rate);
    let plan = FaultPlan::random(&topo, seed, p.horizon, p.link_faults, p.throttles);
    Ok(Scenario {
        system: p.system.clone(),
        scheme: String::new(),
        seed,
        vcs_per_vnet: p.vcs_per_vnet,
        horizon: p.horizon,
        max_cycles: p.max_cycles,
        traffic: trace.entries,
        faults: plan.events().to_vec(),
        failure: None,
    })
}

/// Resolves a scheme label to its kind.
///
/// Beyond the plain labels, `UPP@t=<cycles>` selects UPP with a custom
/// detection threshold (Fig. 13's sweep axis). The `upp-check` bridge uses
/// a huge threshold to concretize its "watchdog never expires" mutation —
/// the machinery is all present but detection cannot fire within the run's
/// cycle bound.
///
/// # Errors
///
/// Returns `Err` for unknown labels.
pub fn scheme_kind(label: &str) -> Result<SchemeKind, String> {
    if let Some(t) = label.strip_prefix("UPP@t=") {
        let threshold: u64 = t
            .parse()
            .map_err(|e| format!("bad UPP threshold {t:?}: {e}"))?;
        if threshold == 0 {
            return Err("UPP threshold must be >= 1".into());
        }
        return Ok(SchemeKind::Upp(UppConfig::with_threshold(threshold)));
    }
    match label {
        "none" => Ok(SchemeKind::None),
        "UPP" => Ok(SchemeKind::Upp(UppConfig::default())),
        "composable" => Ok(SchemeKind::Composable),
        "remote-control" => Ok(SchemeKind::RemoteControl),
        other => Err(format!(
            "unknown scheme {other:?} (want none|UPP|UPP@t=<cycles>|composable|remote-control)"
        )),
    }
}

fn fault_json(ev: &FaultEvent) -> String {
    let (kind, node, port) = match ev.action {
        FaultAction::FailLink { node, port } => ("fail_link", node, Some(port)),
        FaultAction::HealLink { node, port } => ("heal_link", node, Some(port)),
        FaultAction::PauseInjection { node } => ("pause_injection", node, None),
        FaultAction::ResumeInjection { node } => ("resume_injection", node, None),
        FaultAction::PauseConsumption { node } => ("pause_consumption", node, None),
        FaultAction::ResumeConsumption { node } => ("resume_consumption", node, None),
    };
    match port {
        Some(p) => format!(
            "{{\"at\":{},\"kind\":\"{}\",\"node\":{},\"port\":\"{}\"}}",
            ev.at, kind, node.0, p
        ),
        None => format!(
            "{{\"at\":{},\"kind\":\"{}\",\"node\":{}}}",
            ev.at, kind, node.0
        ),
    }
}

/// Narrows traffic-row field `what` to its type, refusing a value that
/// does not fit instead of truncating it.
fn narrow<T: TryFrom<u64>>(v: u64, what: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("traffic row {what} {v} is out of range"))
}

fn parse_fault(v: &Value) -> Result<FaultEvent, String> {
    let at = v
        .get("at")
        .and_then(Value::as_u64)
        .ok_or("fault missing \"at\"")?;
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("fault missing \"kind\"")?;
    let node = NodeId(
        v.get("node")
            .and_then(Value::as_u64)
            .ok_or("fault missing \"node\"")? as u32,
    );
    let port = || -> Result<Port, String> {
        v.get("port")
            .and_then(Value::as_str)
            .ok_or("fault missing \"port\"")?
            .parse()
    };
    let action = match kind {
        "fail_link" => FaultAction::FailLink {
            node,
            port: port()?,
        },
        "heal_link" => FaultAction::HealLink {
            node,
            port: port()?,
        },
        "pause_injection" => FaultAction::PauseInjection { node },
        "resume_injection" => FaultAction::ResumeInjection { node },
        "pause_consumption" => FaultAction::PauseConsumption { node },
        "resume_consumption" => FaultAction::ResumeConsumption { node },
        other => return Err(format!("unknown fault kind {other:?}")),
    };
    Ok(FaultEvent { at, action })
}

impl Scenario {
    /// Renders the scenario as a pretty-stable JSON artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"version\": {SCENARIO_VERSION},\n"));
        s.push_str(&format!("  \"system\": \"{}\",\n", self.system));
        s.push_str(&format!("  \"scheme\": \"{}\",\n", self.scheme));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"vcs_per_vnet\": {},\n", self.vcs_per_vnet));
        s.push_str(&format!("  \"horizon\": {},\n", self.horizon));
        s.push_str(&format!("  \"max_cycles\": {},\n", self.max_cycles));
        if let Some(f) = &self.failure {
            let f = serde_json::to_string(f).expect("infallible");
            s.push_str(&format!("  \"failure\": {f},\n"));
        }
        s.push_str("  \"traffic\": [\n");
        for (i, e) in self.traffic.iter().enumerate() {
            let sep = if i + 1 == self.traffic.len() { "" } else { "," };
            s.push_str(&format!(
                "    [{},{},{},{},{}]{}\n",
                e.at, e.src.0, e.dest.0, e.vnet.0, e.len_flits, sep
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"faults\": [\n");
        for (i, ev) in self.faults.iter().enumerate() {
            let sep = if i + 1 == self.faults.len() { "" } else { "," };
            s.push_str(&format!("    {}{}\n", fault_json(ev), sep));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a scenario from its JSON artifact form.
    ///
    /// # Errors
    ///
    /// Returns `Err` on malformed JSON or missing/ill-typed fields.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
        let version = v
            .get("version")
            .and_then(Value::as_u64)
            .ok_or("missing \"version\"")?;
        if version != SCENARIO_VERSION {
            return Err(format!(
                "unsupported scenario version {version} (this build reads {SCENARIO_VERSION})"
            ));
        }
        let field_str = |k: &str| -> Result<String, String> {
            Ok(v.get(k)
                .and_then(Value::as_str)
                .ok_or(format!("missing \"{k}\""))?
                .to_string())
        };
        let field_u64 = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or(format!("missing \"{k}\""))
        };
        let traffic = v
            .get("traffic")
            .and_then(Value::as_array)
            .ok_or("missing \"traffic\"")?
            .iter()
            .map(|row| {
                let row = row.as_array().ok_or("traffic row is not an array")?;
                let n = |i: usize| -> Result<u64, String> {
                    row.get(i)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| "traffic row field is not a number".to_string())
                };
                let len_flits = narrow(n(4)?, "len_flits")?;
                if len_flits == 0 {
                    return Err("traffic row len_flits 0: a packet has at least one flit".into());
                }
                Ok(TrafficEntry {
                    at: n(0)?,
                    src: NodeId(narrow(n(1)?, "src")?),
                    dest: NodeId(narrow(n(2)?, "dest")?),
                    vnet: VnetId(narrow(n(3)?, "vnet")?),
                    len_flits,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let faults = v
            .get("faults")
            .and_then(Value::as_array)
            .ok_or("missing \"faults\"")?
            .iter()
            .map(parse_fault)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            system: field_str("system")?,
            scheme: field_str("scheme")?,
            seed: field_u64("seed")?,
            vcs_per_vnet: field_u64("vcs_per_vnet")? as usize,
            horizon: field_u64("horizon")?,
            max_cycles: field_u64("max_cycles")?,
            traffic,
            faults,
            failure: v.get("failure").and_then(Value::as_str).map(str::to_string),
        })
    }

    /// Checks every traffic row against the named system: its endpoints
    /// are nodes of the system and its VNet is one the harness's network
    /// has.
    ///
    /// # Errors
    ///
    /// Returns `Err` naming the first row the system cannot carry, or an
    /// unknown system name.
    pub fn check_traffic(&self) -> Result<(), String> {
        let nodes = system_spec(&self.system)?.num_routers();
        let vnets = NocConfig::default().num_vnets;
        for (i, e) in self.traffic.iter().enumerate() {
            for (what, node) in [("src", e.src), ("dest", e.dest)] {
                if node.index() >= nodes {
                    return Err(format!(
                        "traffic row {i}: {what} {} is not a node of {} ({nodes} nodes)",
                        node.0, self.system
                    ));
                }
            }
            if e.vnet.index() >= vnets {
                return Err(format!(
                    "traffic row {i}: vnet {} is not one of the {vnets} VNets",
                    e.vnet.0
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficTrace;
    use upp_noc::fault::FaultPlan;

    #[test]
    fn json_round_trips() {
        let topo = mini_spec().build(5).unwrap();
        let trace = TrafficTrace::random(&topo, 5, 100, 0.05);
        let plan = FaultPlan::random(&topo, 5, 100, 2, 2);
        let sc = Scenario {
            system: "mini".into(),
            scheme: "UPP".into(),
            seed: 5,
            vcs_per_vnet: 2,
            horizon: 100,
            max_cycles: 4_000,
            traffic: trace.entries,
            faults: plan.events().to_vec(),
            failure: Some("example \"failure\"\nwith escapes".into()),
        };
        let json = sc.to_json();
        let back = Scenario::from_json(&json).expect("parses");
        assert_eq!(back.system, sc.system);
        assert_eq!(back.scheme, sc.scheme);
        assert_eq!(back.seed, sc.seed);
        assert_eq!(back.vcs_per_vnet, sc.vcs_per_vnet);
        assert_eq!(back.horizon, sc.horizon);
        assert_eq!(back.max_cycles, sc.max_cycles);
        assert_eq!(back.traffic, sc.traffic);
        assert_eq!(back.faults, sc.faults);
        assert_eq!(back.failure, sc.failure);
    }

    #[test]
    fn mini_system_is_valid_and_small() {
        let topo = mini_spec().build(0).unwrap();
        assert_eq!(topo.chiplets().len(), 2);
        assert!(topo.nodes().len() < 48);
        topo.validate().expect("mini system validates");
    }
}
