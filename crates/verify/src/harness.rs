//! Runs scenarios under the oracle and differentially compares schemes.
//!
//! One [`run_scenario`] call executes a [`Scenario`] end to end: the fault
//! plan is applied between cycles, offered traffic is retried until the
//! source NI accepts it, delivered packets are drained every cycle
//! (respecting consumption pauses) and the deadlock oracle observes every
//! cycle. The report carries the *multiset* of accepted sends and of
//! delivered packets keyed by `(src, dest, vnet, len)` — a correct scheme
//! must drain with the two multisets equal (no loss, no duplication, no
//! misdelivery) and nothing left in flight.
//!
//! [`run_differential`] runs the same traffic and faults under several
//! schemes and cross-checks their delivered multisets against each other.

use std::collections::{BTreeMap, VecDeque};

use upp_noc::config::NocConfig;
use upp_noc::fault::FaultPlan;
use upp_noc::ids::Cycle;
use upp_noc::network::WorkCounts;
use upp_noc::ni::ConsumePolicy;
use upp_noc::watch::Alert;
use upp_tracetools::ProfileSummary;
use upp_workloads::run::{RiderConfig, Riders};
use upp_workloads::runner::build_system;

use crate::oracle::{DeadlockOracle, OracleConfig, OracleViolation};
use crate::scenario::{scheme_kind, system_spec, Scenario};

/// Multiset key for end-to-end delivery checks.
pub type DeliveryKey = (u32, u32, u8, u16);

/// How one scenario run ended.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// All accepted traffic delivered and nothing left in flight.
    Drained {
        /// Cycle the network emptied.
        at: Cycle,
    },
    /// The scheme-independent oracle confirmed a persistent circular wait.
    OracleViolation(OracleViolation),
    /// The run hit its cycle bound with packets still in flight.
    Stuck {
        /// Packets still in flight at the bound.
        in_flight: usize,
        /// Cycle of the last observed flit movement.
        last_progress: Cycle,
    },
}

/// Everything observed over one scenario run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scheme label the run used.
    pub scheme: String,
    /// Packets accepted into source NIs.
    pub created: usize,
    /// Multiset of accepted sends.
    pub sent: BTreeMap<DeliveryKey, usize>,
    /// Multiset of delivered packets.
    pub delivered: BTreeMap<DeliveryKey, usize>,
    /// How the run ended.
    pub verdict: Verdict,
    /// Cycle the run stopped.
    pub end_cycle: Cycle,
    /// Per-packet latency attribution for the run (phases, histograms,
    /// contention counters) — lets campaign reports explain *where* each
    /// scheme's cycles went, not just whether it drained.
    pub profile: ProfileSummary,
    /// Health-monitor alert stream of the run: one alert per hysteresis
    /// transition, in emission order. Every scenario
    /// run arms the watcher, so harness assertions can demand clean runs
    /// stay alert-free and wedged runs fire the deadlock-adjacent
    /// detectors. Byte-equality across kernels/schedulers is enforced by
    /// the equivalence suites.
    pub alerts: Vec<Alert>,
}

impl RunReport {
    /// A human-readable failure description, or `None` when the run is
    /// fully healthy (drained, conserved, delivery multiset matches sends).
    pub fn failure(&self) -> Option<String> {
        match &self.verdict {
            Verdict::OracleViolation(v) => Some(format!("oracle: {v}")),
            Verdict::Stuck {
                in_flight,
                last_progress,
            } => Some(format!(
                "stuck at cycle {}: {} packets in flight, no progress since {}",
                self.end_cycle, in_flight, last_progress
            )),
            Verdict::Drained { .. } => {
                if self.sent == self.delivered {
                    None
                } else {
                    Some(multiset_diff(
                        "sent",
                        &self.sent,
                        "delivered",
                        &self.delivered,
                    ))
                }
            }
        }
    }
}

fn multiset_diff(
    la: &str,
    a: &BTreeMap<DeliveryKey, usize>,
    lb: &str,
    b: &BTreeMap<DeliveryKey, usize>,
) -> String {
    let mut diffs = Vec::new();
    for (k, &n) in a {
        let m = b.get(k).copied().unwrap_or(0);
        if n != m {
            diffs.push(format!(
                "n{}->n{} vnet{} len{}: {la} {n} {lb} {m}",
                k.0, k.1, k.2, k.3
            ));
        }
    }
    for (k, &m) in b {
        if !a.contains_key(k) {
            diffs.push(format!(
                "n{}->n{} vnet{} len{}: {la} 0 {lb} {m}",
                k.0, k.1, k.2, k.3
            ));
        }
    }
    let shown = diffs.len().min(8);
    let mut msg = format!("multiset mismatch ({} keys differ): ", diffs.len());
    msg.push_str(&diffs[..shown].join("; "));
    if diffs.len() > shown {
        msg.push_str("; ...");
    }
    msg
}

/// Oracle parameters matched to a scenario's scale: sample densely, demand
/// persistence long enough that every correct scheme has recovered (UPP's
/// detection threshold plus popup drain fit comfortably), but short enough
/// to confirm within the scenario's cycle bound.
pub fn oracle_for(sc: &Scenario) -> OracleConfig {
    OracleConfig {
        sample_every: 25,
        persist_threshold: (sc.max_cycles / 4).clamp(600, 2_000),
    }
}

/// Runs one scenario to completion under the oracle.
///
/// # Panics
///
/// Panics when the scenario names an unknown system or scheme (use
/// [`Scenario::from_json`]'s validation for untrusted input).
pub fn run_scenario(sc: &Scenario, oracle_cfg: OracleConfig) -> RunReport {
    run_scenario_with(sc, oracle_cfg, true)
}

/// [`run_scenario`] with explicit control over the network's active-set
/// cycle scheduler — the handle equivalence tests use to run the same
/// scenario with and without idle-component skipping and demand identical
/// reports. No environment variables are involved, so concurrent test
/// threads can't race on the setting.
pub fn run_scenario_with(sc: &Scenario, oracle_cfg: OracleConfig, scheduler: bool) -> RunReport {
    run_scenario_watched(
        sc,
        oracle_cfg,
        scheduler,
        upp_noc::watch::WatchConfig::default(),
    )
}

/// [`run_scenario_with`] with explicit health-monitor tuning — the
/// watch differential tests lower thresholds to exercise scheme-specific
/// detectors (popup storms, permit runaway) on mini scenarios whose
/// absolute rates never reach the production defaults.
pub fn run_scenario_watched(
    sc: &Scenario,
    oracle_cfg: OracleConfig,
    scheduler: bool,
    watch_cfg: upp_noc::watch::WatchConfig,
) -> RunReport {
    run_ridden(sc, oracle_cfg, scheduler, riders_of(sc, watch_cfg)).0
}

/// The profiler and the health monitor ride every run (obs is
/// registry-only, the watcher reads cumulative values and the tracer only
/// records, so none perturbs the protocols, the delivered multisets or the
/// kernel's work).
fn riders_of(sc: &Scenario, watch_cfg: upp_noc::watch::WatchConfig) -> RiderConfig {
    RiderConfig {
        profile: Some(ProfileSummary::new(sc.system.clone(), sc.scheme.clone())),
        watch: Some((watch_cfg, None)),
        ..RiderConfig::default()
    }
}

/// [`run_scenario_watched`] with the riders `riders` asks for (the report's
/// profile and alerts stay empty without them), and the work the kernel
/// counted (in debug builds).
fn run_ridden(
    sc: &Scenario,
    oracle_cfg: OracleConfig,
    scheduler: bool,
    riders: RiderConfig,
) -> (RunReport, WorkCounts) {
    let spec = system_spec(&sc.system).expect("known system");
    let kind = scheme_kind(&sc.scheme).expect("known scheme");
    let cfg = NocConfig::default().with_vcs_per_vnet(sc.vcs_per_vnet);
    let mut built = build_system(&spec, cfg, &kind, 0, sc.seed, ConsumePolicy::External);
    built.sys.net_mut().set_active_scheduler(scheduler);
    let mut riders = Riders::arm(&mut built.sys, riders);

    let mut plan = FaultPlan::new(sc.faults.clone());
    let mut oracle = DeadlockOracle::new(oracle_cfg);
    let mut sent: BTreeMap<DeliveryKey, usize> = BTreeMap::new();
    let mut delivered: BTreeMap<DeliveryKey, usize> = BTreeMap::new();
    let mut created = 0usize;
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut next_entry = 0usize;

    let verdict = loop {
        let now = built.sys.net().cycle();
        plan.apply_due(built.sys.net_mut());
        while next_entry < sc.traffic.len() && sc.traffic[next_entry].at <= now {
            pending.push_back(next_entry);
            next_entry += 1;
        }
        // Offer pending sends in order; keep what the NIs reject for the
        // next cycle (offered traffic is delayed, never dropped).
        for _ in 0..pending.len() {
            let i = pending.pop_front().expect("non-empty");
            let e = &sc.traffic[i];
            if built.sys.send(e.src, e.dest, e.vnet, e.len_flits).is_some() {
                created += 1;
                *sent
                    .entry((e.src.0, e.dest.0, e.vnet.0, e.len_flits))
                    .or_default() += 1;
            } else {
                pending.push_back(i);
            }
        }
        built.sys.step();
        // `delivered` is a count, so the order the NIs hand packets over
        // in cannot show.
        built.sys.net_mut().pop_all_delivered(|d| {
            *delivered
                .entry((d.pkt.src.0, d.pkt.dest.0, d.pkt.vnet.0, d.pkt.len_flits))
                .or_default() += 1;
        });
        riders.after_step(&mut built.sys, &mut |_| {});
        oracle.observe(built.sys.net());
        if let Some(v) = oracle.violation() {
            break Verdict::OracleViolation(v.clone());
        }
        let net = built.sys.net();
        if next_entry == sc.traffic.len()
            && pending.is_empty()
            && plan.exhausted()
            && net.in_flight() == 0
        {
            break Verdict::Drained { at: net.cycle() };
        }
        if net.cycle() >= sc.max_cycles {
            break Verdict::Stuck {
                in_flight: net.in_flight(),
                last_progress: net.last_progress(),
            };
        }
    };

    let riders = riders.finish(&mut built.sys);
    let report = RunReport {
        scheme: sc.scheme.clone(),
        created,
        sent,
        delivered,
        verdict,
        end_cycle: built.sys.net().cycle(),
        profile: (riders.profile)
            .unwrap_or_else(|| ProfileSummary::new(sc.system.clone(), sc.scheme.clone())),
        alerts: riders
            .watcher
            .map_or_else(Vec::new, |w| w.alerts().to_vec()),
    };
    (report, built.sys.net().work_counts())
}

/// Differential comparison of several schemes over identical traffic and
/// faults.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// One report per scheme, in the order given.
    pub reports: Vec<RunReport>,
    /// Human-readable failures: per-run problems plus cross-scheme
    /// delivered-multiset mismatches. Empty means all schemes agree and
    /// are healthy.
    pub failures: Vec<String>,
}

impl DiffReport {
    /// True when every scheme drained, conserved and agreed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `base` under each scheme label and cross-checks the outcomes.
pub fn run_differential(base: &Scenario, schemes: &[&str], oracle_cfg: OracleConfig) -> DiffReport {
    let mut reports = Vec::new();
    let mut failures = Vec::new();
    for &label in schemes {
        let mut sc = base.clone();
        sc.scheme = label.to_string();
        let report = run_scenario(&sc, oracle_cfg);
        if let Some(f) = report.failure() {
            failures.push(format!("[{label}] {f}"));
        }
        reports.push(report);
    }
    for pair in reports.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a.delivered != b.delivered {
            failures.push(format!(
                "[{} vs {}] {}",
                a.scheme,
                b.scheme,
                multiset_diff(&a.scheme, &a.delivered, &b.scheme, &b.delivered)
            ));
        }
    }
    DiffReport { reports, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{random_scenario, CampaignParams};

    /// The riders every scenario carries — a profiler fed by the tracer,
    /// and the watcher — change neither what a run computes nor what the
    /// kernel does for it: the same verdict, the same deliveries and, in
    /// debug builds, the same work counts, through link faults and pauses.
    #[test]
    fn riders_change_neither_the_outcome_nor_the_kernel_work() {
        let mut sc = random_scenario(&CampaignParams::default(), 11).expect("valid params");
        sc.scheme = "UPP".into();
        assert!(!sc.faults.is_empty(), "the scenario fails and heals links");
        let oracle = oracle_for(&sc);
        let (plain, plain_work) = run_ridden(&sc, oracle, true, RiderConfig::default());
        let riders = riders_of(&sc, upp_noc::watch::WatchConfig::default());
        let (ridden, ridden_work) = run_ridden(&sc, oracle, true, riders);
        assert!(matches!(plain.verdict, Verdict::Drained { .. }));
        assert_eq!(
            format!("{:?}", plain.verdict),
            format!("{:?}", ridden.verdict)
        );
        assert_eq!(
            (plain.delivered, plain_work),
            (ridden.delivered, ridden_work)
        );
    }
}
