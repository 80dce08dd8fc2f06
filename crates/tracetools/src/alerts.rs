//! Analysis over health-monitor alert streams (`upp_noc::watch`).
//!
//! Input is the `upp-alerts/v1` JSONL shape written by
//! `simulate --watch-out`: a marked header line followed by one alert
//! object per line, read back into typed [`Alert`]s by
//! [`upp_noc::watch::read_alerts`]. Files carrying a different schema tag
//! are rejected up front.
//!
//! The renderers mirror the `obs` module: a human table
//! ([`report_text`]), a flat CSV timeline ([`timeline_csv`]) and an SVG
//! lane chart ([`lanes_svg`]) with one horizontal lane per detector and
//! one mark per hysteresis transition. All output is deterministic —
//! fixed iteration order, integer-only values.

use std::fmt::Write as _;

use upp_noc::watch::{read_alerts, Alert, AlertKind, Detector, Severity};

/// One fixed-width human line of the [`report_text`] table.
fn render_line(a: &Alert) -> String {
    format!(
        "{:>10}  {:<8} {:<9} {:<21} {}={} (threshold {}, since cycle {})",
        a.at_cycle,
        a.kind.name(),
        a.severity.name(),
        a.detector.name(),
        a.detector.metric(),
        a.value,
        a.threshold,
        a.from_cycle
    )
}

/// A parsed `upp-alerts/v1` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertsReport {
    /// Watch epoch length recorded in the header.
    pub every: u64,
    /// Alerts, in stream (emission) order.
    pub alerts: Vec<Alert>,
}

impl AlertsReport {
    /// Parses a full alert JSONL document (header line plus alert lines)
    /// through [`read_alerts`], the reader beside the writer.
    ///
    /// # Errors
    ///
    /// Rejects missing/foreign headers, schema-tag mismatches and
    /// malformed alert lines, naming the offending line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (every, alerts) = read_alerts(text)?;
        Ok(Self { every, alerts })
    }
}

/// Human report: stream parameters, per-detector counts, then the
/// transition table in emission order.
pub fn report_text(r: &AlertsReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "upp-alerts stream: {} transitions, epoch {} cycles",
        r.alerts.len(),
        r.every
    );
    // Per-detector totals in the watch module's stable reporting order,
    // skipping detectors that never fired.
    for d in Detector::ALL {
        let of_d = || r.alerts.iter().filter(move |a| a.detector == d);
        let cleared = of_d().filter(|a| a.kind == AlertKind::Clear).count();
        let raised = of_d().count() - cleared;
        if raised + cleared > 0 {
            let _ = writeln!(out, "  {:<21} {raised} raised, {cleared} cleared", d.name());
        }
    }
    if r.alerts.is_empty() {
        let _ = writeln!(out, "  (healthy: no alerts)");
        return out;
    }
    let _ = writeln!(
        out,
        "{:>10}  {:<8} {:<9} {:<21} trigger",
        "cycle", "event", "severity", "detector"
    );
    for a in &r.alerts {
        let _ = writeln!(out, "{}", render_line(a));
    }
    out
}

/// Flat CSV timeline: one row per transition, emission order.
pub fn timeline_csv(r: &AlertsReport) -> String {
    let mut out =
        String::from("at_cycle,from_cycle,detector,event,severity,metric,value,threshold\n");
    for a in &r.alerts {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            a.at_cycle,
            a.from_cycle,
            a.detector.name(),
            a.kind.name(),
            a.severity.name(),
            a.detector.metric(),
            a.value,
            a.threshold
        );
    }
    out
}

fn severity_color(severity: Severity) -> &'static str {
    match severity {
        Severity::Critical => "#c0392b",
        Severity::Warning => "#e67e22",
        Severity::Info => "#27ae60",
    }
}

/// SVG lane chart: one horizontal lane per detector (in stable order,
/// only detectors that fired), a span bar from `from_cycle` to `at_cycle`
/// per transition and a severity-colored marker at the transition cycle.
pub fn lanes_svg(r: &AlertsReport) -> String {
    let lanes: Vec<Detector> = (Detector::ALL.into_iter())
        .filter(|&d| r.alerts.iter().any(|a| a.detector == d))
        .collect();
    let max_cycle = r
        .alerts
        .iter()
        .map(|a| a.at_cycle)
        .max()
        .unwrap_or(r.every)
        .max(1);
    let (left, lane_h, plot_w) = (170.0_f64, 26.0_f64, 640.0_f64);
    let width = left + plot_w + 20.0;
    let height = 40.0 + lanes.len().max(1) as f64 * lane_h + 20.0;
    let x = |c: u64| left + c as f64 / max_cycle as f64 * plot_w;
    let mut s = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\" font-family=\"monospace\" font-size=\"11\">\n\
         <text x=\"8\" y=\"16\">upp-alerts timeline (0..{max_cycle} cycles, epoch {})</text>\n",
        r.every
    );
    for (i, &d) in lanes.iter().enumerate() {
        let (name, y) = (d.name(), 40.0 + i as f64 * lane_h);
        let _ = writeln!(
            s,
            "<text x=\"8\" y=\"{:.1}\">{name}</text>\n\
             <line x1=\"{left:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" \
             stroke=\"#dddddd\" stroke-width=\"1\"/>",
            y + lane_h * 0.65,
            y + lane_h * 0.5,
            left + plot_w,
            y + lane_h * 0.5
        );
        for a in r.alerts.iter().filter(|a| a.detector == d) {
            let (x0, x1) = (x(a.from_cycle), x(a.at_cycle));
            let yc = y + lane_h * 0.5;
            let color = severity_color(a.severity);
            let _ = writeln!(
                s,
                "<line x1=\"{x0:.1}\" y1=\"{yc:.1}\" x2=\"{x1:.1}\" y2=\"{yc:.1}\" \
                 stroke=\"{color}\" stroke-width=\"4\" stroke-opacity=\"0.45\"/>\n\
                 <circle cx=\"{x1:.1}\" cy=\"{yc:.1}\" r=\"4\" fill=\"{color}\">\
                 <title>{} {} at {} ({}={} threshold {})</title></circle>",
                name,
                a.kind.name(),
                a.at_cycle,
                a.detector.metric(),
                a.value,
                a.threshold
            );
        }
    }
    if lanes.is_empty() {
        let _ = writeln!(
            s,
            "<text x=\"{left:.1}\" y=\"52\">healthy: no alerts</text>"
        );
    }
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut s = upp_noc::watch::alerts_header_json(100);
        s.push('\n');
        s.push_str(
            "{\"detector\":\"throughput_collapse\",\"event\":\"raise\",\
             \"severity\":\"warning\",\"metric\":\"flits_per_epoch\",\"value\":6,\
             \"threshold\":103,\"from_cycle\":900,\"at_cycle\":1000}\n\
             {\"detector\":\"throughput_collapse\",\"event\":\"escalate\",\
             \"severity\":\"critical\",\"metric\":\"flits_per_epoch\",\"value\":2,\
             \"threshold\":63,\"from_cycle\":900,\"at_cycle\":1200}\n",
        );
        s
    }

    #[test]
    fn parses_and_renders_a_stream() {
        let r = AlertsReport::parse(&sample()).unwrap();
        assert_eq!(r.every, 100);
        assert_eq!(r.alerts.len(), 2);
        assert_eq!(r.alerts[1].kind, AlertKind::Escalate);
        let text = report_text(&r);
        assert!(text.contains("2 transitions"), "{text}");
        assert!(text.contains("throughput_collapse"), "{text}");
        let csv = timeline_csv(&r);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(2).unwrap().starts_with("1200,900,"));
        let svg = lanes_svg(&r);
        assert!(svg.contains("<svg"), "{svg}");
        assert!(svg.contains("#c0392b"), "critical marker color: {svg}");
    }

    #[test]
    fn rejects_foreign_and_malformed_input() {
        assert!(AlertsReport::parse("").is_err());
        assert!(AlertsReport::parse("{\"upp_obs\":1}\n").is_err());
        let wrong_schema = "{\"upp_alerts\":1,\"schema\":\"upp-alerts/v9\",\"every\":10}\n";
        let err = AlertsReport::parse(wrong_schema).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        let bad_line = format!(
            "{}\n{{\"detector\":1}}\n",
            upp_noc::watch::alerts_header_json(5)
        );
        let err = AlertsReport::parse(&bad_line).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn empty_stream_reports_healthy() {
        let header = upp_noc::watch::alerts_header_json(200) + "\n";
        let r = AlertsReport::parse(&header).unwrap();
        assert!(r.alerts.is_empty());
        assert!(report_text(&r).contains("healthy"));
        assert!(lanes_svg(&r).contains("healthy"));
    }
}
