//! Online health monitoring: typed anomaly detectors over the epoch
//! telemetry stream, evaluated in-process while a run executes.
//!
//! The repo can *record* everything (trace flight recorder, latency
//! attribution, the obs registry), but recording is post-mortem: a popup
//! storm or a permit-queue runaway is only discovered by a human reading
//! epoch JSONL after the fact. A [`Watcher`] closes that loop. The driver
//! feeds it at fixed cycle intervals; each feed reads the *cumulative*
//! counters of [`crate::stats::NetStats`] and the [`crate::obs`] registry
//! (never the epoch-delta machinery, so it composes with `--obs-every`
//! epoch cuts), differences them against the previous feed, and evaluates
//! one trigger predicate per [`Detector`]. A hysteresis state machine
//! turns raw per-epoch triggers into a small number of meaningful
//! transitions — raise to warning, escalate to critical, clear — emitted
//! as [`Alert`]s in the `upp-alerts/v1` JSONL schema.
//!
//! # Determinism
//!
//! Detectors are cycle-indexed and integer-valued: no wall clock, no
//! floats in the exported bytes. Every input the watcher reads (stats
//! counters, obs counters/gauges/histogram counts, `in_flight`) is proven
//! byte-identical across the active-set scheduler and the always-tick
//! reference kernel by the kernel equivalence suite — so the alert stream is
//! too (pinned by `watch_golden.rs` and the `scheduler_equiv` watch
//! properties).
//!
//! Like obs and trace, the watcher is strictly read-only and costs nothing
//! when absent: it is driver-owned state, not network state, and feeds
//! happen only at epoch boundaries.

use serde_json::Value;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::ids::Cycle;
use crate::network::Network;

/// Schema tag stamped into the alert-stream header and every reader's
/// validation check.
pub const ALERTS_SCHEMA: &str = "upp-alerts/v1";

/// Number of detectors (the length of [`Detector::ALL`]).
pub const NUM_DETECTORS: usize = 6;

/// The typed anomaly detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Detector {
    /// Delivered flits per epoch dropped far below the trailing-window
    /// mean while traffic is still in flight.
    ThroughputCollapse,
    /// Nothing entered and nothing left the network for a whole epoch
    /// while packets are stuck in flight.
    InjectionStarvation,
    /// Popup recoveries completing at an abnormal rate (UPP distress:
    /// the network keeps wedging and recovering).
    PopupStorm,
    /// Watchdog expiries growing epoch over epoch (detection churn).
    WatchdogCascade,
    /// The UPP circuit table holding an abnormal number of live entries.
    CircuitSaturation,
    /// The remote-control permit queue backing up.
    PermitQueueRunaway,
}

impl Detector {
    /// All detectors, in stable reporting order.
    pub const ALL: [Detector; NUM_DETECTORS] = [
        Detector::ThroughputCollapse,
        Detector::InjectionStarvation,
        Detector::PopupStorm,
        Detector::WatchdogCascade,
        Detector::CircuitSaturation,
        Detector::PermitQueueRunaway,
    ];

    /// Stable identifier used in the JSONL stream and journal keys.
    pub fn name(self) -> &'static str {
        match self {
            Detector::ThroughputCollapse => "throughput_collapse",
            Detector::InjectionStarvation => "injection_starvation",
            Detector::PopupStorm => "popup_storm",
            Detector::WatchdogCascade => "watchdog_cascade",
            Detector::CircuitSaturation => "circuit_saturation",
            Detector::PermitQueueRunaway => "permit_queue_runaway",
        }
    }

    /// The metric each detector triggers on, named in every alert line.
    pub fn metric(self) -> &'static str {
        match self {
            Detector::ThroughputCollapse => "flits_per_epoch",
            Detector::InjectionStarvation => "in_flight",
            Detector::PopupStorm => "popups_per_epoch",
            Detector::WatchdogCascade => "expiries_per_epoch",
            Detector::CircuitSaturation => "circuit_entries",
            Detector::PermitQueueRunaway => "permit_queue_depth",
        }
    }

    /// Position in [`Detector::ALL`].
    pub fn index(self) -> usize {
        Detector::ALL
            .iter()
            .position(|&d| d == self)
            .expect("detector in ALL")
    }
}

/// Alert severity. `Info` is used only for clear transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Recovery back to healthy.
    Info,
    /// Sustained trigger.
    Warning,
    /// Trigger sustained well past the warning point.
    Critical,
}

impl Severity {
    /// All severities, least severe first.
    pub const ALL: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Critical];

    /// Stable identifier used in the JSONL stream.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// Which hysteresis transition an alert reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// First crossing into warning.
    Raise,
    /// Escalation from warning to critical.
    Escalate,
    /// Return to healthy after a raised span.
    Clear,
}

impl AlertKind {
    /// All transitions.
    pub const ALL: [AlertKind; 3] = [AlertKind::Raise, AlertKind::Escalate, AlertKind::Clear];

    /// Stable identifier used in the JSONL stream.
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::Raise => "raise",
            AlertKind::Escalate => "escalate",
            AlertKind::Clear => "clear",
        }
    }
}

/// One emitted alert: a hysteresis transition with the triggering values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Which detector transitioned.
    pub detector: Detector,
    /// Which transition.
    pub kind: AlertKind,
    /// Severity after the transition.
    pub severity: Severity,
    /// Cycle of the first epoch of the triggering span.
    pub from_cycle: Cycle,
    /// Cycle of the epoch emitting the alert.
    pub at_cycle: Cycle,
    /// The metric value at the emitting epoch (integer by construction).
    pub value: u64,
    /// The threshold the value was compared against.
    pub threshold: u64,
}

impl Alert {
    /// Renders the alert as one deterministic `upp-alerts/v1` JSONL line
    /// (no trailing newline). All fields are integers or fixed strings, so
    /// the bytes are identical across platforms, kernels and schedulers.
    pub fn jsonl(&self) -> String {
        format!(
            "{{\"detector\":\"{}\",\"event\":\"{}\",\"severity\":\"{}\",\"metric\":\"{}\",\
             \"value\":{},\"threshold\":{},\"from_cycle\":{},\"at_cycle\":{}}}",
            self.detector.name(),
            self.kind.name(),
            self.severity.name(),
            self.detector.metric(),
            self.value,
            self.threshold,
            self.from_cycle,
            self.at_cycle
        )
    }

    /// Reads one [`Alert::jsonl`] line back, fields by key. `None` when the
    /// line is not JSON, a field is missing or ill-typed, a name is not one
    /// the watcher writes, or the `metric` is not its detector's.
    pub fn from_jsonl(line: &str) -> Option<Alert> {
        let v = serde_json::from_str(line).ok()?;
        let name = |key: &str| v.get(key).and_then(Value::as_str);
        let number = |key: &str| v.get(key).and_then(Value::as_u64);
        let detector = by_name(&Detector::ALL, Detector::name, name("detector"))?;
        if name("metric") != Some(detector.metric()) {
            return None;
        }
        Some(Alert {
            detector,
            kind: by_name(&AlertKind::ALL, AlertKind::name, name("event"))?,
            severity: by_name(&Severity::ALL, Severity::name, name("severity"))?,
            from_cycle: number("from_cycle")?,
            at_cycle: number("at_cycle")?,
            value: number("value")?,
            threshold: number("threshold")?,
        })
    }
}

/// The one of `all` whose `name` is `s`.
fn by_name<T: Copy>(all: &[T], name: fn(T) -> &'static str, s: Option<&str>) -> Option<T> {
    all.iter().copied().find(|&t| Some(name(t)) == s)
}

/// Marker key of the alert-stream header.
const ALERTS_MARKER: &str = "upp_alerts";

/// Header line for an `upp-alerts/v1` JSONL stream.
pub fn alerts_header_json(every: u64) -> String {
    format!("{{\"{ALERTS_MARKER}\":1,\"schema\":\"{ALERTS_SCHEMA}\",\"every\":{every}}}")
}

/// Reads an `upp-alerts/v1` stream back ([`alerts_header_json`], then one
/// [`Alert::jsonl`] line per alert): the header's epoch length and the
/// alerts in stream order.
///
/// # Errors
///
/// Rejects a missing or foreign header and malformed alert lines, naming
/// the offending line.
pub fn read_alerts(text: &str) -> Result<(u64, Vec<Alert>), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty input")?;
    let header =
        serde_json::from_str(header_line).map_err(|e| format!("header line is not JSON: {e}"))?;
    if !crate::obs::check_header(&header, ALERTS_MARKER, ALERTS_SCHEMA)? {
        return Err(format!(
            "not an upp-alerts stream (no \"{ALERTS_MARKER}\" header)"
        ));
    }
    let every = (header.get("every"))
        .and_then(Value::as_u64)
        .ok_or("header lacks \"every\"")?;
    let alerts = lines.enumerate().map(|(i, line)| {
        Alert::from_jsonl(line).ok_or_else(|| format!("alert line {}: malformed", i + 2))
    });
    Ok((every, alerts.collect::<Result<_, _>>()?))
}

/// Detector thresholds and hysteresis tuning. Everything is in cycles,
/// epochs or integer metric units — no wall clock, no floats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchConfig {
    /// Cycles between evaluations (the epoch length).
    pub every: u64,
    /// Trailing epochs forming the throughput baseline window.
    pub window: usize,
    /// Consecutive triggering epochs before a warning is raised.
    pub raise_after: u32,
    /// Further consecutive triggering epochs (past the raise point) before
    /// the warning escalates to critical.
    pub critical_after: u32,
    /// Consecutive clean epochs before a raised detector clears.
    pub clear_after: u32,
    /// Collapse triggers when delivered flits fall below this percentage
    /// of the trailing-window mean.
    pub collapse_pct: u64,
    /// ... and only when that mean is at least this many flits/epoch
    /// (an idle or draining network is not a collapse).
    pub collapse_min_mean: u64,
    /// Starvation triggers only with at least this many packets stuck.
    pub starvation_min_inflight: u64,
    /// Popup-storm trigger: popups completed per epoch.
    pub popup_storm_rate: u64,
    /// Watchdog-cascade trigger: expiries per epoch.
    pub watchdog_rate: u64,
    /// Circuit-saturation trigger: live circuit-table entries.
    pub circuit_entries: u64,
    /// Permit-runaway trigger: remote-control permit-queue depth.
    pub permit_queue_depth: u64,
}

impl Default for WatchConfig {
    fn default() -> Self {
        Self {
            every: 200,
            window: 8,
            raise_after: 2,
            critical_after: 2,
            clear_after: 4,
            collapse_pct: 25,
            collapse_min_mean: 64,
            starvation_min_inflight: 1,
            popup_storm_rate: 40,
            watchdog_rate: 25,
            circuit_entries: 4096,
            permit_queue_depth: 1024,
        }
    }
}

/// Per-detector hysteresis state.
#[derive(Debug, Clone, Copy)]
struct DetState {
    severity: Severity,
    hits: u32,
    clean: u32,
    span_start: Cycle,
}

impl DetState {
    fn new() -> Self {
        Self {
            severity: Severity::Info,
            hits: 0,
            clean: 0,
            span_start: 0,
        }
    }
}

/// What one feed produced.
#[derive(Debug, Clone, Default)]
pub struct WatchTick {
    /// Alerts emitted this epoch (hysteresis transitions only).
    pub alerts: Vec<Alert>,
    /// True when a detector crossed into critical this epoch and no
    /// forensics capture has been requested yet this run. The driver
    /// decides what capture means (see [`capture_forensics`]).
    pub capture: bool,
}

/// The online health monitor. Driver-owned; see the module docs.
#[derive(Debug)]
pub struct Watcher {
    cfg: WatchConfig,
    states: [DetState; NUM_DETECTORS],
    counts: [u64; NUM_DETECTORS],
    alerts: Vec<Alert>,
    captured: bool,
    armed: bool,
    // Cumulative baselines from the previous feed.
    last_flits_ejected: u64,
    last_packets_created: u64,
    last_popups: u64,
    last_watchdog: u64,
    // Trailing delivered-per-epoch window (baseline for collapse).
    delivered_window: VecDeque<u64>,
}

impl Watcher {
    /// Creates a watcher with the given tuning. Call [`Watcher::arm`]
    /// before the first feed.
    pub fn new(cfg: WatchConfig) -> Self {
        Self {
            cfg,
            states: [DetState::new(); NUM_DETECTORS],
            counts: [0; NUM_DETECTORS],
            alerts: Vec::new(),
            captured: false,
            armed: false,
            last_flits_ejected: 0,
            last_packets_created: 0,
            last_popups: 0,
            last_watchdog: 0,
            delivered_window: VecDeque::new(),
        }
    }

    /// The tuning in effect.
    pub fn config(&self) -> &WatchConfig {
        &self.cfg
    }

    /// Captures the cumulative baselines so the first feed differences
    /// against the current state rather than zero (important when the
    /// watcher is armed after a warmup window or a stats reset).
    pub fn arm(&mut self, net: &Network) {
        self.last_flits_ejected = net.stats().flits_ejected;
        self.last_packets_created = net.stats().packets_created;
        self.last_popups = popup_count(net);
        self.last_watchdog = net.obs().counter_value("upp.watchdog.expired_cycles");
        self.armed = true;
    }

    /// Evaluates one epoch. Call `System::observe()` first so sampled
    /// gauges (permit queues, circuit tables, stage occupancy) are fresh.
    pub fn feed(&mut self, net: &Network) -> WatchTick {
        if !self.armed {
            self.arm(net);
            return WatchTick::default();
        }
        let now = net.cycle();
        let stats = net.stats();
        let in_flight = net.in_flight() as u64;

        let delivered = stats.flits_ejected - self.last_flits_ejected;
        self.last_flits_ejected = stats.flits_ejected;
        let created = stats.packets_created - self.last_packets_created;
        self.last_packets_created = stats.packets_created;
        let popups_now = popup_count(net);
        let popups = popups_now - self.last_popups;
        self.last_popups = popups_now;
        let watchdog_now = net.obs().counter_value("upp.watchdog.expired_cycles");
        let expiries = watchdog_now - self.last_watchdog;
        self.last_watchdog = watchdog_now;
        let circuit = net.obs().gauge_value("circuit.entries").0;
        let permits = net.obs().gauge_value("rc.permit_queue.depth").0;

        // Trailing-window baseline for collapse: the mean of the window
        // *before* this epoch.
        let window_sum: u64 = self.delivered_window.iter().sum();
        let window_full = self.delivered_window.len() == self.cfg.window;
        let window_mean = if window_full {
            window_sum / self.cfg.window as u64
        } else {
            0
        };
        self.delivered_window.push_back(delivered);
        if self.delivered_window.len() > self.cfg.window {
            self.delivered_window.pop_front();
        }
        let collapse_threshold = window_mean * self.cfg.collapse_pct / 100;

        // (trigger, value, threshold) per detector, in ALL order.
        let evals: [(bool, u64, u64); NUM_DETECTORS] = [
            (
                window_full
                    && in_flight > 0
                    && window_mean >= self.cfg.collapse_min_mean
                    && delivered < collapse_threshold,
                delivered,
                collapse_threshold,
            ),
            (
                created == 0 && delivered == 0 && in_flight >= self.cfg.starvation_min_inflight,
                in_flight,
                self.cfg.starvation_min_inflight,
            ),
            (
                popups >= self.cfg.popup_storm_rate,
                popups,
                self.cfg.popup_storm_rate,
            ),
            (
                expiries >= self.cfg.watchdog_rate,
                expiries,
                self.cfg.watchdog_rate,
            ),
            (
                circuit >= self.cfg.circuit_entries,
                circuit,
                self.cfg.circuit_entries,
            ),
            (
                permits >= self.cfg.permit_queue_depth,
                permits,
                self.cfg.permit_queue_depth,
            ),
        ];

        let mut tick = WatchTick::default();
        for (i, &(trig, value, threshold)) in evals.iter().enumerate() {
            let st = &mut self.states[i];
            let detector = Detector::ALL[i];
            if trig {
                if st.hits == 0 {
                    st.span_start = now;
                }
                st.hits += 1;
                st.clean = 0;
                let transition = if st.severity == Severity::Info && st.hits >= self.cfg.raise_after
                {
                    st.severity = Severity::Warning;
                    Some((AlertKind::Raise, Severity::Warning))
                } else if st.severity == Severity::Warning
                    && st.hits >= self.cfg.raise_after + self.cfg.critical_after
                {
                    st.severity = Severity::Critical;
                    Some((AlertKind::Escalate, Severity::Critical))
                } else {
                    None
                };
                if let Some((kind, severity)) = transition {
                    tick.alerts.push(Alert {
                        detector,
                        kind,
                        severity,
                        from_cycle: st.span_start,
                        at_cycle: now,
                        value,
                        threshold,
                    });
                    self.counts[i] += 1;
                    if severity == Severity::Critical && !self.captured {
                        self.captured = true;
                        tick.capture = true;
                    }
                }
            } else {
                st.hits = 0;
                if st.severity > Severity::Info {
                    st.clean += 1;
                    if st.clean >= self.cfg.clear_after {
                        let alert = Alert {
                            detector,
                            kind: AlertKind::Clear,
                            severity: Severity::Info,
                            from_cycle: st.span_start,
                            at_cycle: now,
                            value,
                            threshold,
                        };
                        tick.alerts.push(alert);
                        *st = DetState::new();
                    }
                } else {
                    st.clean = 0;
                }
            }
        }
        self.alerts.extend(tick.alerts.iter().cloned());
        tick
    }

    /// Every alert emitted so far, in emission order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Raised-alert count (raise + escalate; clears excluded) per
    /// detector, in [`Detector::ALL`] order.
    pub fn alert_counts(&self) -> [u64; NUM_DETECTORS] {
        self.counts
    }

    /// Total raised alerts across all detectors.
    pub fn total_raised(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Raised counts as one deterministic JSON object: the total plus one
    /// key per detector, in [`Detector::ALL`] order (for embedding in
    /// driver `--json` payloads).
    pub fn counts_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("{{\"alerts_raised\": {}", self.total_raised());
        for (i, d) in Detector::ALL.iter().enumerate() {
            let _ = write!(s, ", \"{}\": {}", d.name(), self.counts[i]);
        }
        s.push('}');
        s
    }
}

/// Cumulative popup completions (the recovery-latency histogram's sample
/// count); 0 until UPP registers its metrics.
fn popup_count(net: &Network) -> u64 {
    net.obs()
        .histogram("upp.popup.recovery_cycles")
        .map_or(0, |h| h.count())
}

/// Files written by [`capture_forensics`].
#[derive(Debug, Clone)]
pub struct ForensicsBundle {
    /// Paths written, in order.
    pub files: Vec<PathBuf>,
}

/// Captures a forensics bundle into `dir` (created if needed): the stall
/// report, the buffered tail of the trace ring (empty when no in-memory
/// tracer is armed), the full obs summary (when enabled) and a small meta
/// file. Drivers call this when a [`WatchTick`] requests capture, so the
/// evidence exists even though the user never passed `--stall-report` or
/// `--trace`.
///
/// # Errors
///
/// Returns the first I/O error; earlier files may already be written.
pub fn capture_forensics(
    sys: &mut crate::sim::System,
    dir: &Path,
    at: Cycle,
) -> std::io::Result<ForensicsBundle> {
    std::fs::create_dir_all(dir)?;
    let mut files = Vec::new();
    let mut write = |name: &str, contents: String| -> std::io::Result<()> {
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path)?;
        f.write_all(contents.as_bytes())?;
        files.push(path);
        Ok(())
    };
    write(
        "meta.json",
        format!("{{\"upp_watch_capture\":1,\"schema\":\"{ALERTS_SCHEMA}\",\"cycle\":{at}}}\n"),
    )?;
    write("stall_report.txt", sys.stall_report().render_text())?;
    let mut tail = String::new();
    for ev in sys.net().tracer().events() {
        tail.push_str(&ev.jsonl());
        tail.push('\n');
    }
    write("trace_tail.jsonl", tail)?;
    if sys.net().obs().is_enabled() {
        let cycle = sys.net().cycle();
        let summary = sys.net().obs().summary(cycle).summary_json();
        write("obs_summary.json", summary + "\n")?;
    }
    Ok(ForensicsBundle { files })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WatchConfig {
        WatchConfig::default()
    }

    #[test]
    fn detector_names_and_metrics_are_stable() {
        let names: Vec<&str> = Detector::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            [
                "throughput_collapse",
                "injection_starvation",
                "popup_storm",
                "watchdog_cascade",
                "circuit_saturation",
                "permit_queue_runaway"
            ]
        );
        for (i, d) in Detector::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
            assert!(!d.metric().is_empty());
        }
    }

    #[test]
    fn alert_jsonl_is_flat_integer_json() {
        let a = Alert {
            detector: Detector::PopupStorm,
            kind: AlertKind::Raise,
            severity: Severity::Warning,
            from_cycle: 400,
            at_cycle: 600,
            value: 57,
            threshold: 40,
        };
        assert_eq!(
            a.jsonl(),
            "{\"detector\":\"popup_storm\",\"event\":\"raise\",\"severity\":\"warning\",\
             \"metric\":\"popups_per_epoch\",\"value\":57,\"threshold\":40,\
             \"from_cycle\":400,\"at_cycle\":600}"
        );
        assert!(alerts_header_json(cfg().every).contains(ALERTS_SCHEMA));
        assert_eq!(Alert::from_jsonl(&a.jsonl()), Some(a.clone()));
        let wrong_metric = a.jsonl().replace("popups_per_epoch", "in_flight");
        assert_eq!(
            Alert::from_jsonl(&wrong_metric),
            None,
            "metric is the detector's"
        );
    }
}
