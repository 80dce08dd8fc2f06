//! A run as a library call: [`RunConfig`] in, [`RunReport`] out.
//!
//! `simulate` is this module behind an argv parser: [`RunConfig::build`]
//! validates and constructs the system in one pass, [`run`] drives
//! synthetic traffic for `cycles`, drains, and collects, and
//! [`RunReport::text`] / [`RunReport::json`] render what the binary prints
//! and writes. A caller that wants something the config does not say —
//! the always-tick reference kernel, a flight-recorder sink — does it to
//! the built system between the two calls
//! (`built.sys.net_mut().set_active_scheduler(false)`, `set_tracer(..)`).
//!
//! [`Riders`] is the one driver of everything that rides along with the
//! cycle loop without being part of the simulation: telemetry epochs, the
//! health monitor and its forensics capture, latency-profile streaming.
//! Every loop that steps a system — [`run`], [`crate::runner::measure_point`],
//! the verify harness, `fig_scaling` — calls [`Riders::after_step`] after
//! each cycle and [`Riders::finish`] at the end.

use crate::runner::{try_build_system, BuiltSystem, SchemeKind};
use crate::synthetic::{Pattern, SyntheticTraffic};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use upp_core::{UppConfig, UppStats};
use upp_noc::config::NocConfig;
use upp_noc::network::MemReport;
use upp_noc::ni::ConsumePolicy;
use upp_noc::obs::ObsSnapshot;
use upp_noc::profile::SpanRecorder;
use upp_noc::sim::{RunOutcome, System};
use upp_noc::topology::{ChipletSystemSpec, SystemKind};
use upp_noc::trace::Tracer;
use upp_noc::watch::{capture_forensics, Alert, Detector, WatchConfig, Watcher, NUM_DETECTORS};
use upp_tracetools::summary::SPAN_WINDOW;
use upp_tracetools::ProfileSummary;

/// What rides along with a run. The default is nothing.
#[derive(Debug, Clone, Default)]
pub struct RiderConfig {
    /// Attribute per-packet latency to phases: the labelled, still empty
    /// summary the run fills in.
    pub profile: Option<ProfileSummary>,
    /// Cut the end-of-run telemetry summary.
    pub obs: bool,
    /// Snapshot a telemetry epoch every this many cycles.
    pub obs_every: Option<u64>,
    /// Refresh the sampled telemetry gauges every this many cycles without
    /// cutting an epoch (for a caller that reads the registry itself).
    pub sample_every: Option<u64>,
    /// Online health monitoring under this tuning, and where to capture a
    /// forensics bundle on the first critical alert.
    pub watch: Option<(WatchConfig, Option<PathBuf>)>,
    /// Take the end-of-run memory-footprint report.
    pub mem: bool,
}

/// Something that happened during a run which the caller may want to show
/// or stream while it is still running. `Display` is the line `simulate`
/// prints on stderr.
#[derive(Debug)]
pub enum RunEvent<'a> {
    /// The health monitor emitted an alert.
    Alert(&'a Alert),
    /// A detector went critical for the first time this run; `captured` is
    /// the capture directory and the file count of the forensics bundle
    /// written there (or why it could not be), when one was configured.
    Critical {
        /// Outcome of the forensics capture, if one was armed.
        captured: Option<(&'a Path, std::io::Result<usize>)>,
    },
    /// The watchdog found the network stalled after this traffic cycle.
    Stalled {
        /// Traffic cycles completed before the stall.
        cycle: u64,
    },
}

impl std::fmt::Display for RunEvent<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunEvent::Alert(alert) => write!(f, "[watch] {}", alert.jsonl()),
            RunEvent::Critical {
                captured: Some((dir, Ok(files))),
            } => write!(
                f,
                "[watch] critical: captured forensics bundle ({files} files) in {}",
                dir.display()
            ),
            RunEvent::Critical {
                captured: Some((dir, Err(e))),
            } => write!(
                f,
                "[watch] could not capture forensics in {}: {e}",
                dir.display()
            ),
            RunEvent::Critical { captured: None } => f.write_str(
                "[watch] critical alert; pass --watch-capture-dir DIR to auto-capture forensics",
            ),
            RunEvent::Stalled { cycle } => {
                write!(f, "network stalled (deadlock) at cycle {cycle}")
            }
        }
    }
}

/// The armed riders of one run; see the module docs.
#[derive(Debug)]
pub struct Riders {
    cfg: RiderConfig,
    watcher: Option<Watcher>,
    obs_epochs: Vec<String>,
}

/// What the riders collected, handed back by [`Riders::finish`].
#[derive(Debug)]
pub struct RiderOutput {
    /// The system's tracer, taken out with everything it recorded.
    pub tracer: Tracer,
    /// The filled-in latency profile, when one was asked for.
    pub profile: Option<ProfileSummary>,
    /// The health monitor with its alert history, when one was armed.
    pub watcher: Option<Watcher>,
    /// One `upp-obs/v1` JSON line per epoch cut.
    pub obs_epochs: Vec<String>,
    /// The end-of-run telemetry summary JSON, when asked for.
    pub obs_summary: Option<String>,
    /// The end-of-run memory footprint, when asked for.
    pub mem: Option<MemReport>,
}

impl Riders {
    /// Arms what `cfg` asks for on `sys`. The latency profiler rides inside
    /// whatever tracer `sys` carries (so install a sink first, not after);
    /// the watcher's baselines are the
    /// network's counters as they stand, so arm after any stats reset.
    pub fn arm(sys: &mut System, cfg: RiderConfig) -> Riders {
        // The watcher reads cumulative telemetry, so the registry must be
        // live under it too — the summary stays keyed to `obs` alone.
        if cfg.obs || cfg.obs_every.is_some() || cfg.sample_every.is_some() || cfg.watch.is_some() {
            sys.net_mut().enable_obs();
        }
        // A forensics capture wants a trace tail even when the caller
        // armed no tracer: keep a small ring so the bundle has the last few
        // thousand events leading up to the critical alert.
        if matches!(cfg.watch, Some((_, Some(_)))) && !sys.net().tracer().enabled() {
            sys.net_mut().set_tracer(Tracer::ring(4096));
        }
        if cfg.profile.is_some() {
            sys.net_mut()
                .tracer_mut()
                .set_profiler(Some(Box::new(SpanRecorder::new())));
        }
        let watcher = cfg.watch.as_ref().map(|(tuning, _)| {
            let mut w = Watcher::new(tuning.clone());
            w.arm(sys.net());
            w
        });
        Riders {
            cfg,
            watcher,
            obs_epochs: Vec::new(),
        }
    }

    /// Call after every `System::step`. Telemetry epochs and the health
    /// monitor consume the same boundary: a due one calls `observe()`
    /// exactly once, so the sampled-gauge stream is byte-identical whether
    /// either, both or neither is on. `events` is invoked only when an
    /// alert fired.
    #[inline]
    pub fn after_step(&mut self, sys: &mut System, events: &mut dyn FnMut(RunEvent<'_>)) {
        let c = sys.net().cycle();
        let due = |every: Option<u64>| every.is_some_and(|e| c.is_multiple_of(e));
        let cut = due(self.cfg.obs_every);
        let feed = due(self.watcher.as_ref().map(|w| w.config().every));
        if cut || feed || due(self.cfg.sample_every) {
            self.epoch(sys, cut, feed, events);
        }
        if let Some(summary) = self.cfg.profile.as_mut() {
            if let Some(p) = sys.net_mut().tracer_mut().profiler_mut() {
                if p.finished().len() >= SPAN_WINDOW {
                    for span in p.drain_finished() {
                        summary.absorb_span(&span);
                    }
                }
            }
        }
    }

    fn epoch(
        &mut self,
        sys: &mut System,
        cut: bool,
        feed: bool,
        events: &mut dyn FnMut(RunEvent<'_>),
    ) {
        // Sampled gauges (queue depths, table occupancy) refresh at the
        // epoch boundary; exact counters have been accumulating all along.
        sys.observe();
        let c = sys.net().cycle();
        if cut {
            let snap = sys.net_mut().obs_mut().take_epoch(c);
            self.obs_epochs.push(snap.jsonl());
        }
        if !feed {
            return;
        }
        let watcher = self.watcher.as_mut().expect("a due feed has a watcher");
        let tick = watcher.feed(sys.net());
        for alert in &tick.alerts {
            events(RunEvent::Alert(alert));
        }
        if tick.capture {
            let dir = self.cfg.watch.as_ref().and_then(|(_, dir)| dir.as_deref());
            let captured = dir.map(|d| (d, capture_forensics(sys, d, c).map(|b| b.files.len())));
            events(RunEvent::Critical { captured });
        }
    }

    /// Closes the riders: the memory report (mirrored into `mem.*` gauges
    /// when telemetry is live), the final telemetry sample and summary, and
    /// the profile's per-router / per-link counters, which fold in exactly
    /// once, here. Takes the tracer out of `sys`.
    pub fn finish(self, sys: &mut System) -> RiderOutput {
        let mem = self.cfg.mem.then(|| sys.net().mem_report());
        if let Some(m) = mem.filter(|_| sys.net().obs().is_enabled()) {
            let obs = sys.net_mut().obs_mut();
            for (name, v) in [
                ("mem.routers_bytes", m.routers_bytes),
                ("mem.nis_bytes", m.nis_bytes),
                ("mem.arena_bytes", m.arena_bytes),
                ("mem.calendar_bytes", m.calendar_bytes),
                ("mem.total_bytes", m.total_bytes),
                ("mem.bytes_per_router", m.bytes_per_router),
                ("mem.arena_live", m.arena_live),
                ("mem.arena_high_water", m.arena_high_water),
                ("mem.arena_slots", m.arena_slots),
            ] {
                let g = obs.gauge(name);
                obs.gauge_set(g, v as u64);
            }
        }
        // Refresh the sampled gauges once so the summary reflects the end
        // state. Exact counters are unaffected (they accumulate at the
        // event sites).
        let obs_summary = self.cfg.obs.then(|| {
            sys.observe();
            sys.net().obs().summary(sys.net().cycle()).summary_json()
        });
        let mut tracer = sys.net_mut().set_tracer(Tracer::disabled());
        let mut profile = self.cfg.profile;
        if let (Some(summary), Some(mut rec)) = (profile.as_mut(), tracer.set_profiler(None)) {
            summary.absorb_recorder(&mut rec);
        }
        RiderOutput {
            tracer,
            profile,
            watcher: self.watcher,
            obs_epochs: self.obs_epochs,
            obs_summary,
            mem,
        }
    }
}

/// One single-run request: the system, the scheme, the synthetic traffic
/// and what rides along. The default is `simulate`'s with no flags.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which chiplet system.
    pub system: SystemKind,
    /// Which deadlock-freedom scheme.
    pub scheme: SchemeKind,
    /// Synthetic traffic pattern.
    pub pattern: Pattern,
    /// Offered load, flits/cycle/node.
    pub rate: f64,
    /// Traffic cycles; the drain afterwards gets the same budget again.
    pub cycles: u64,
    /// VCs per VNet.
    pub vcs: usize,
    /// Random faulty mesh links.
    pub faults: usize,
    /// Seed of the topology binding, the fault set, the routers and the
    /// traffic.
    pub seed: u64,
    /// What rides along.
    pub riders: RiderConfig,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            system: SystemKind::Baseline,
            scheme: SchemeKind::Upp(UppConfig::default()),
            pattern: Pattern::UniformRandom,
            rate: 0.05,
            cycles: 50_000,
            vcs: 1,
            faults: 0,
            seed: 1,
            riders: RiderConfig::default(),
        }
    }
}

/// The one-line summary `simulate` opens a run with.
impl std::fmt::Display for RunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "system {:?} | scheme {} | pattern {} | rate {} | {} cycles | {} VCs | {} faults",
            self.system,
            self.scheme.label(),
            self.pattern.label(),
            self.rate,
            self.cycles,
            self.vcs,
            self.faults
        )
    }
}

/// An offered rate the traffic generator can honour: an NI injects at most
/// one flit per cycle, and against a NaN the `>=` test in
/// `SyntheticTraffic::tick` never skips a core, so every one offers a
/// packet every cycle.
///
/// # Errors
///
/// Returns a message naming the range.
pub fn check_rate(rate: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&rate) {
        Ok(())
    } else {
        Err(format!("rate {rate} is outside 0.0..=1.0 flits/cycle/node"))
    }
}

impl RunConfig {
    /// The system spec `system` names.
    ///
    /// # Errors
    ///
    /// Returns the reason for a shape that cannot be built
    /// ([`ChipletSystemSpec::try_of_kind`]).
    pub fn spec(&self) -> Result<ChipletSystemSpec, String> {
        ChipletSystemSpec::try_of_kind(self.system)
    }

    /// The network configuration `vcs` asks for.
    pub fn noc_config(&self) -> NocConfig {
        NocConfig::default().with_vcs_per_vnet(self.vcs)
    }

    /// Validates the request and builds its system, once
    /// ([`try_build_system`]).
    ///
    /// # Errors
    ///
    /// Returns the reason the request cannot run: an offered rate out of
    /// range, or anything [`try_build_system`] rejects.
    pub fn build(&self) -> Result<BuiltSystem, String> {
        check_rate(self.rate)?;
        try_build_system(
            &self.spec()?,
            self.noc_config(),
            &self.scheme,
            self.faults,
            self.seed,
            ConsumePolicy::Immediate { latency: 1 },
        )
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunReport {
    /// How the drain ended.
    pub outcome: RunOutcome,
    /// UPP's recovery statistics, when the scheme is UPP.
    pub upp: Option<UppStats>,
    /// What the riders collected, the drained tracer included.
    pub riders: RiderOutput,
    /// The system in its final state (stall forensics, occupancy).
    pub sys: System,
}

/// Runs `cfg`'s traffic on `built` for `cfg.cycles`, drains for at most as
/// many again and collects the report.
pub fn run(
    mut built: BuiltSystem,
    cfg: &RunConfig,
    events: &mut dyn FnMut(RunEvent<'_>),
) -> RunReport {
    let sys = &mut built.sys;
    let mut riders = Riders::arm(sys, cfg.riders.clone());
    let mut traffic = SyntheticTraffic::new(sys.net().topo(), cfg.pattern, cfg.rate, cfg.seed);
    for cycle in 0..cfg.cycles {
        traffic.tick(sys);
        sys.step();
        riders.after_step(sys, events);
        if sys.net().stalled() {
            events(RunEvent::Stalled { cycle });
            break;
        }
    }
    let outcome = sys.drain(cfg.cycles, |sys| riders.after_step(sys, events));
    let riders = riders.finish(sys);
    RunReport {
        outcome,
        upp: built.upp_stats(),
        riders,
        sys: built.sys,
    }
}

impl RunReport {
    /// The human-readable statistics block.
    pub fn text(&self) -> String {
        let net = self.sys.net();
        let stats = net.stats();
        let mut out = String::new();
        let _ = writeln!(out, "outcome:            {:?}", self.outcome);
        let _ = writeln!(
            out,
            "packets delivered:  {} / {} created",
            stats.packets_ejected, stats.packets_created
        );
        let _ = writeln!(out, "flits delivered:    {}", stats.flits_ejected);
        let _ = writeln!(
            out,
            "network latency:    {:.2} cycles",
            stats.avg_net_latency()
        );
        let _ = writeln!(
            out,
            "queueing latency:   {:.2} cycles",
            stats.avg_queue_latency()
        );
        let _ = writeln!(out, "worst latency:      {} cycles", stats.max_latency);
        let _ = writeln!(
            out,
            "throughput:         {:.4} flits/cycle/node",
            stats.throughput(net.cycle(), net.topo().num_endpoints())
        );
        let _ = writeln!(out, "control-signal hops: {}", stats.control_hops);
        let _ = writeln!(out, "bypass (popup) hops: {}", stats.bypass_hops);
        if let Some(s) = &self.upp {
            let _ = writeln!(
                out,
                "UPP: {} upward packets, {} popups ({} partial), {} stops, {} acks dropped",
                s.upward_packets,
                s.popups_completed,
                s.partial_popups,
                s.stops_sent,
                s.acks_dropped
            );
            if s.popups_completed > 0 {
                let n = s.popups_completed as f64;
                let _ = writeln!(
                    out,
                    "UPP mean recovery:  {:.1} cycles (detection -> delivered)",
                    s.avg_recovery_latency()
                );
                let _ = writeln!(
                    out,
                    "UPP stage split:    wait-ack {:.1} | locate {:.1} | pop {:.1} cycles",
                    s.wait_ack_cycles as f64 / n,
                    s.locate_cycles as f64 / n,
                    s.pop_cycles as f64 / n
                );
            }
        }
        out
    }

    /// The memory-footprint line (routers + NIs + arena + calendar), when
    /// the report was asked for.
    pub fn mem_text(&self) -> Option<String> {
        let m = self.riders.mem?;
        Some(format!(
            "[mem] {} B total | {} B/router ({} routers {} B, NIs {} B) | \
             arena {} B ({} live / {} high-water / {} slots) | calendar {} B",
            m.total_bytes,
            m.bytes_per_router,
            self.sys.net().topo().num_nodes(),
            m.routers_bytes,
            m.nis_bytes,
            m.arena_bytes,
            m.arena_live,
            m.arena_high_water,
            m.arena_slots,
            m.calendar_bytes
        ))
    }

    /// The telemetry epochs as JSONL: the schema header line, then one line
    /// per epoch.
    pub fn obs_epochs_jsonl(&self) -> String {
        let mut out = ObsSnapshot::epochs_header();
        out.push('\n');
        for line in &self.riders.obs_epochs {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// The telemetry summary and the watch verdict, human-visible (empty
    /// when neither was asked for). The alert lines themselves left the run
    /// as [`RunEvent`]s while it ran.
    pub fn rider_text(&self) -> String {
        let mut out = String::new();
        if let Some(summary) = &self.riders.obs_summary {
            let _ = writeln!(out, "telemetry summary:\n{summary}");
        }
        if let Some(w) = &self.riders.watcher {
            if w.total_raised() == 0 {
                let _ = writeln!(out, "watch: healthy ({NUM_DETECTORS} detectors, 0 alerts)");
            } else {
                let _ = writeln!(out, "watch: {} alerts raised", w.total_raised());
                for (d, n) in Detector::ALL.iter().zip(w.alert_counts()) {
                    if n > 0 {
                        let _ = writeln!(out, "  {:<22} {n}", d.name());
                    }
                }
            }
        }
        out
    }

    /// The machine-readable final statistics. The `obs`, `mem` and `watch`
    /// keys appear only when the rider was asked for, so runs without them
    /// keep the exact historical payload (pinned by the determinism
    /// goldens).
    pub fn json(&self) -> String {
        let infallible = "stats serialization is infallible";
        let net = self.sys.net();
        let net_json = serde_json::to_string_pretty(net.stats()).expect(infallible);
        let upp_json = match &self.upp {
            Some(s) => serde_json::to_string_pretty(s).expect(infallible),
            None => "null".to_string(),
        };
        let mut riders = String::new();
        if let Some(s) = &self.riders.obs_summary {
            let _ = write!(riders, ",\n  \"obs\": {s}");
        }
        if let Some(m) = &self.riders.mem {
            let m = serde_json::to_string(m).expect(infallible);
            let _ = write!(riders, ",\n  \"mem\": {m}");
        }
        if let Some(w) = &self.riders.watcher {
            let _ = write!(riders, ",\n  \"watch\": {}", w.counts_json());
        }
        format!(
            "{{\n  \"outcome\": \"{:?}\",\n  \"cycles\": {},\n  \"endpoints\": {},\n  \
             \"trace_dropped\": {},\n  \"net\": {net_json},\n  \"upp\": {upp_json}{riders}\n}}\n",
            self.outcome,
            net.cycle(),
            net.topo().num_endpoints(),
            self.riders.tracer.dropped()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upp_noc::config::MAX_VCS_PER_PORT;

    /// A request that cannot run is an error naming the limit, never a
    /// panic in the builder.
    #[test]
    fn unbuildable_requests_are_errors() {
        type Edit = fn(&mut RunConfig);
        let cases: [(Edit, &str); 7] = [
            (|c| c.vcs = 0, "at least 1"),
            (|c| c.vcs = MAX_VCS_PER_PORT / 3 + 1, "limit of 64"),
            (|c| c.faults = 50, "only 45 of 50 links can fail"),
            (
                |c| (c.faults, c.scheme) = (3, SchemeKind::Composable),
                "does not support faulty systems",
            ),
            (
                |c| (c.faults, c.scheme) = (3, SchemeKind::ComposableBalanced),
                "does not support faulty systems",
            ),
            (|c| c.rate = f64::NAN, "outside 0.0..=1.0"),
            (
                |c| c.system = SystemKind::Grid { cols: 0, rows: 1 },
                "at least 1x1",
            ),
        ];
        for (unbuildable, needle) in cases {
            let mut cfg = RunConfig::default();
            unbuildable(&mut cfg);
            let err = cfg.build().err().unwrap_or_else(|| panic!("{cfg:?} built"));
            assert!(err.contains(needle), "{cfg:?}: {err}");
        }
    }
}
