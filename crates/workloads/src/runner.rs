//! Experiment infrastructure: system construction for every scheme —
//! [`try_build_system`] is the one place a request is validated and built —
//! the one-point measurement sweeps are made of ([`run_point`], or
//! [`measure_point`] on a system the caller built), and saturation-point
//! extraction.

use crate::run::{RiderConfig, Riders};
use crate::synthetic::{Pattern, SyntheticTraffic};
use serde::Serialize;
use std::sync::Arc;
use upp_baselines::composable::Composable;
use upp_baselines::remote::{RemoteControl, RemoteControlConfig};
use upp_core::signal::SignalLayout;
use upp_core::{Upp, UppConfig, UppStats, UppStatsHandle};
use upp_noc::config::NocConfig;
use upp_noc::ni::ConsumePolicy;
use upp_noc::routing::{ChipletRouting, RouteTables};
use upp_noc::scheme::Scheme;
use upp_noc::sim::System;
use upp_noc::topology::{chiplet::inject_random_faults, ChipletSystemSpec};
use upp_noc::watch::WatchConfig;
use upp_noc::Network;

/// Which deadlock-freedom scheme to instantiate.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeKind {
    /// Unprotected reference (deadlocks under load).
    None,
    /// Upward Packet Popup.
    Upp(UppConfig),
    /// Composable routing (turn restrictions).
    Composable,
    /// Remote control (injection control).
    RemoteControl,
}

impl SchemeKind {
    /// The three schemes compared throughout the evaluation.
    pub fn evaluated() -> Vec<SchemeKind> {
        vec![
            SchemeKind::Composable,
            SchemeKind::RemoteControl,
            SchemeKind::Upp(UppConfig::default()),
        ]
    }

    /// Label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::None => "none",
            SchemeKind::Upp(_) => "UPP",
            SchemeKind::Composable => "composable",
            SchemeKind::RemoteControl => "remote-control",
        }
    }

    /// Checks a configuration that came from outside the program (CLI
    /// flags, replay files) for a run under this scheme on a system of
    /// `routers` routers, so a bad one is an error message instead of a
    /// panic mid-run ([`try_build_system`] checks it first):
    /// [`NocConfig::validate`], plus, for UPP, that its signals on that
    /// system fit the control buffers ([`SignalLayout::check`]).
    ///
    /// # Errors
    ///
    /// Returns the reason the configuration cannot run.
    pub fn check_config(&self, cfg: &NocConfig, routers: usize) -> Result<(), String> {
        cfg.validate()?;
        if let SchemeKind::Upp(_) = self {
            SignalLayout::for_system(routers, cfg.num_vnets, cfg.vcs_per_port()).check()?;
        }
        Ok(())
    }
}

/// A constructed system plus handles the harness needs.
pub struct BuiltSystem {
    /// The system.
    pub sys: System,
    /// UPP's recovery statistics, when the scheme is UPP.
    pub upp_stats: Option<UppStatsHandle>,
}

/// Builds a system from a request that came from outside the program (CLI
/// flags, replay files): `spec` under `kind`, with `faults` random mesh
/// links marked faulty (Fig. 11; faulty topologies switch region routing to
/// up*/down* tables). Validation and construction are one pass, so nothing
/// is built twice to find out whether it can be built.
///
/// # Errors
///
/// Returns the reason the system cannot be built: a configuration
/// [`SchemeKind::check_config`] rejects, a spec whose
/// [`ChipletSystemSpec::build`] fails, more faults than can be placed
/// without disconnecting a region, any faults under composable routing
/// (it has no faulty-system mode), or a failed composable search.
pub fn try_build_system(
    spec: &ChipletSystemSpec,
    cfg: NocConfig,
    kind: &SchemeKind,
    faults: usize,
    seed: u64,
    consume: ConsumePolicy,
) -> Result<BuiltSystem, String> {
    kind.check_config(&cfg, spec.num_routers())?;
    if faults > 0 && *kind == SchemeKind::Composable {
        return Err("composable routing does not support faulty systems (Sec. VI-B)".into());
    }
    let mut topo = spec.build(seed)?;
    let mut routing = if faults > 0 {
        inject_random_faults(&mut topo, faults, seed.wrapping_add(1))?;
        ChipletRouting::with_tables(Arc::new(RouteTables::build(&topo)))
    } else {
        ChipletRouting::xy()
    };
    let mut upp_stats = None;
    let scheme: Box<dyn Scheme> = match kind {
        SchemeKind::None => Box::new(upp_noc::NoScheme),
        SchemeKind::Upp(ucfg) => {
            let upp = Upp::new(*ucfg);
            upp_stats = Some(upp.stats_handle());
            Box::new(upp)
        }
        SchemeKind::Composable => {
            let (scheme, restricted) = Composable::build(&topo).map_err(|e| e.to_string())?;
            routing = restricted;
            Box::new(scheme)
        }
        SchemeKind::RemoteControl => Box::new(RemoteControl::new(RemoteControlConfig::default())),
    };
    let net = Network::new(cfg, topo, Arc::new(routing), consume, seed);
    Ok(BuiltSystem {
        sys: System::new(net, scheme),
        upp_stats,
    })
}

/// [`try_build_system`] for requests the program made itself.
///
/// # Panics
///
/// Panics on anything [`try_build_system`] rejects.
pub fn build_system(
    spec: &ChipletSystemSpec,
    cfg: NocConfig,
    kind: &SchemeKind,
    faults: usize,
    seed: u64,
    consume: ConsumePolicy,
) -> BuiltSystem {
    try_build_system(spec, cfg, kind, faults, seed, consume).expect("system can be built")
}

/// Warmup/measurement windows (Table II: 10K warmup, 100K measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SweepWindows {
    /// Warmup cycles (not measured).
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
}

impl Default for SweepWindows {
    fn default() -> Self {
        Self {
            warmup: 10_000,
            measure: 100_000,
        }
    }
}

impl SweepWindows {
    /// Short windows for tests.
    pub fn quick() -> Self {
        Self {
            warmup: 1_000,
            measure: 5_000,
        }
    }
}

/// Per-detector raised-alert counts for one run (watch health monitoring,
/// `upp-alerts/v1`), as named fields in [`upp_noc::watch::Detector::ALL`]
/// order so journal rows stay flat, diffable JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct AlertCounts {
    /// Raised `throughput_collapse` alerts.
    pub throughput_collapse: u64,
    /// Raised `injection_starvation` alerts.
    pub injection_starvation: u64,
    /// Raised `popup_storm` alerts.
    pub popup_storm: u64,
    /// Raised `watchdog_cascade` alerts.
    pub watchdog_cascade: u64,
    /// Raised `circuit_saturation` alerts.
    pub circuit_saturation: u64,
    /// Raised `permit_queue_runaway` alerts.
    pub permit_queue_runaway: u64,
}

impl AlertCounts {
    /// Folds a finished watcher's raised counts into named fields.
    pub fn from_watcher(w: &upp_noc::watch::Watcher) -> Self {
        let c = w.alert_counts();
        Self {
            throughput_collapse: c[0],
            injection_starvation: c[1],
            popup_storm: c[2],
            watchdog_cascade: c[3],
            circuit_saturation: c[4],
            permit_queue_runaway: c[5],
        }
    }

    /// Total raised alerts across all detectors.
    pub fn total(&self) -> u64 {
        self.throughput_collapse
            + self.injection_starvation
            + self.popup_storm
            + self.watchdog_cascade
            + self.circuit_saturation
            + self.permit_queue_runaway
    }
}

/// One measured sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SweepPoint {
    /// Offered load, flits/cycle/node.
    pub rate: f64,
    /// Mean network latency of packets finishing in the window.
    pub net_latency: f64,
    /// Mean source-queueing latency.
    pub queue_latency: f64,
    /// Mean total latency.
    pub total_latency: f64,
    /// Delivered throughput, flits/cycle/node.
    pub throughput: f64,
    /// Packets ejected in the window.
    pub packets_ejected: u64,
    /// Upward packets detected in the window (UPP only; 0 otherwise).
    pub upward_packets: u64,
    /// Control-signal link traversals in the window (popup bandwidth cost).
    pub control_hops: u64,
    /// Median network latency (cycles), interpolated from the latency
    /// histogram.
    pub p50: f64,
    /// 95th-percentile network latency (cycles).
    pub p95: f64,
    /// 99th-percentile network latency (cycles).
    pub p99: f64,
    /// 99.9th-percentile network latency (cycles).
    pub p999: f64,
    /// True if the watchdog fired during the run (possible only for
    /// `SchemeKind::None`).
    pub deadlocked: bool,
    /// Health-monitor alert counts over the measurement window: every
    /// point runs the default [`upp_noc::watch::Watcher`], so sweeps
    /// double as a fleet-wide anomaly scan.
    pub alerts: AlertCounts,
}

/// Runs one `(pattern, rate)` point: a pure function of its arguments
/// ([`build_system`], then [`measure_point`]). The row's [`AlertCounts`]
/// say whether the health monitor fired; to see the alert stream or capture
/// forensics for a point that did, re-run it under
/// `simulate --watch-out --watch-capture-dir` with the row's parameters.
#[allow(clippy::too_many_arguments)]
pub fn run_point(
    spec: &ChipletSystemSpec,
    cfg: &NocConfig,
    kind: &SchemeKind,
    faults: usize,
    pattern: Pattern,
    rate: f64,
    windows: SweepWindows,
    seed: u64,
) -> SweepPoint {
    let built = build_system(
        spec,
        cfg.clone(),
        kind,
        faults,
        seed,
        ConsumePolicy::Immediate { latency: 1 },
    );
    measure_point(built, pattern, rate, windows, seed)
}

/// Measures one `(pattern, rate)` point on a system the caller built (and
/// may have reshaped: custom routing, the always-tick reference kernel):
/// `windows.warmup` unmeasured cycles, a stats reset, then
/// `windows.measure` measured ones under the default health monitor.
pub fn measure_point(
    mut built: BuiltSystem,
    pattern: Pattern,
    rate: f64,
    windows: SweepWindows,
    seed: u64,
) -> SweepPoint {
    let mut traffic = {
        let topo = built.sys.net().topo();
        SyntheticTraffic::new(topo, pattern, rate, seed)
    };
    for _ in 0..windows.warmup {
        traffic.tick(&mut built.sys);
        built.sys.step();
    }
    built.sys.net_mut().reset_stats();
    let upward_before = built
        .upp_stats
        .as_ref()
        .map(|h| UppStats::snapshot(h).upward_packets)
        .unwrap_or(0);
    // The health monitor rides every point: obs must be live for the
    // gauge-reading detectors, and arming *after* the stats reset means
    // the first epoch differences against the window start. Obs and the
    // watcher are both strictly read-only, so measured values (and the
    // committed sweep goldens' non-alert columns) are untouched.
    let mut riders = Riders::arm(
        &mut built.sys,
        RiderConfig {
            watch: Some((WatchConfig::default(), None)),
            ..RiderConfig::default()
        },
    );
    let mut deadlocked = false;
    for _ in 0..windows.measure {
        traffic.tick(&mut built.sys);
        built.sys.step();
        riders.after_step(&mut built.sys, &mut |_| {});
        if built.sys.net().stalled() {
            deadlocked = true;
            break;
        }
    }
    let watcher = riders.finish(&mut built.sys).watcher;
    let stats = built.sys.net().stats();
    let nodes = built.sys.net().topo().num_endpoints();
    let upward_after = built
        .upp_stats
        .as_ref()
        .map(|h| UppStats::snapshot(h).upward_packets)
        .unwrap_or(0);
    SweepPoint {
        rate,
        net_latency: stats.avg_net_latency(),
        queue_latency: stats.avg_queue_latency(),
        total_latency: stats.avg_total_latency(),
        throughput: stats.throughput(windows.measure, nodes),
        packets_ejected: stats.packets_ejected,
        upward_packets: upward_after - upward_before,
        control_hops: stats.control_hops,
        p50: stats.latency_percentile(0.5),
        p95: stats.latency_percentile(0.95),
        p99: stats.latency_percentile(0.99),
        p999: stats.latency_percentile(0.999),
        deadlocked,
        alerts: AlertCounts::from_watcher(&watcher.expect("armed above")),
    }
}

/// Latency ceiling above which a point counts as saturated (the paper's
/// plots clip at 100 cycles).
pub const SATURATION_LATENCY: f64 = 100.0;

/// Extracts the saturation throughput from a sweep: the highest delivered
/// throughput among points whose total latency stays below
/// [`SATURATION_LATENCY`] (falling back to the overall max).
pub fn saturation_throughput(points: &[SweepPoint]) -> f64 {
    let below: Vec<&SweepPoint> = points
        .iter()
        .filter(|p| p.total_latency < SATURATION_LATENCY && p.packets_ejected > 0)
        .collect();
    let pool: Box<dyn Iterator<Item = &SweepPoint>> = if below.is_empty() {
        Box::new(points.iter())
    } else {
        Box::new(below.into_iter())
    };
    pool.map(|p| p.throughput).fold(0.0, f64::max)
}

/// Mean pre-saturation latency of a sweep (used for the paper's "reduces
/// latency by N%" comparisons).
pub fn presaturation_latency(points: &[SweepPoint]) -> f64 {
    let sel: Vec<f64> = points
        .iter()
        .filter(|p| p.total_latency < SATURATION_LATENCY && p.packets_ejected > 0)
        .map(|p| p.total_latency)
        .collect();
    if sel.is_empty() {
        f64::NAN
    } else {
        sel.iter().sum::<f64>() / sel.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ChipletSystemSpec {
        ChipletSystemSpec::baseline()
    }

    #[test]
    fn low_load_point_is_unsaturated_for_all_schemes() {
        for kind in SchemeKind::evaluated() {
            let p = run_point(
                &spec(),
                &NocConfig::default(),
                &kind,
                0,
                Pattern::UniformRandom,
                0.02,
                SweepWindows::quick(),
                1,
            );
            assert!(!p.deadlocked, "{}", kind.label());
            assert!(
                p.packets_ejected > 100,
                "{} ejected {}",
                kind.label(),
                p.packets_ejected
            );
            assert!(
                p.total_latency < SATURATION_LATENCY,
                "{} latency {}",
                kind.label(),
                p.total_latency
            );
        }
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let p = run_point(
            &spec(),
            &NocConfig::default(),
            &SchemeKind::Upp(UppConfig::default()),
            0,
            Pattern::UniformRandom,
            0.04,
            SweepWindows::quick(),
            2,
        );
        assert!(
            (p.throughput - 0.04).abs() < 0.012,
            "delivered {} vs offered 0.04",
            p.throughput
        );
    }

    #[test]
    fn saturation_extraction() {
        let mk = |rate, lat, thr| SweepPoint {
            rate,
            net_latency: lat,
            queue_latency: 0.0,
            total_latency: lat,
            throughput: thr,
            packets_ejected: 100,
            upward_packets: 0,
            control_hops: 0,
            p50: lat,
            p95: lat,
            p99: lat,
            p999: lat,
            deadlocked: false,
            alerts: AlertCounts::default(),
        };
        let pts = vec![
            mk(0.02, 30.0, 0.02),
            mk(0.06, 45.0, 0.06),
            mk(0.1, 250.0, 0.07),
        ];
        assert!((saturation_throughput(&pts) - 0.06).abs() < 1e-12);
        let lat = presaturation_latency(&pts);
        assert!((lat - 37.5).abs() < 1e-9);
    }

    /// Journal rows and `--json` payloads name the detectors through
    /// `AlertCounts`' fields, so they must be `Detector::ALL`, in order.
    #[test]
    fn alert_counts_serialise_the_detector_names_in_order() {
        let v = serde_json::to_value(AlertCounts::default()).expect("serialises");
        let keys: Vec<&str> = v
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let names: Vec<&str> = upp_noc::watch::Detector::ALL
            .iter()
            .map(|d| d.name())
            .collect();
        assert_eq!(keys, names);
    }

    /// No argv reaches a `spec.build` error any more, but a hand-made spec
    /// can: it is the caller's error to handle, not `build_system`'s panic.
    #[test]
    fn a_spec_that_cannot_be_built_is_an_error() {
        let mut bad = spec();
        let dup = bad.chiplets[0].vertical_links[0];
        bad.chiplets[0].vertical_links.push(dup);
        let err = try_build_system(
            &bad,
            NocConfig::default(),
            &SchemeKind::None,
            0,
            1,
            ConsumePolicy::Immediate { latency: 1 },
        )
        .err()
        .expect("a duplicated vertical link cannot be built");
        assert!(err.contains("duplicate boundary"), "{err}");
    }

    #[test]
    fn faulty_builds_use_table_routing_and_run() {
        let p = run_point(
            &spec(),
            &NocConfig::default(),
            &SchemeKind::Upp(UppConfig::default()),
            5,
            Pattern::UniformRandom,
            0.02,
            SweepWindows::quick(),
            3,
        );
        assert!(!p.deadlocked);
        assert!(p.packets_ejected > 50);
    }
}
