//! Analysis over protocol-state telemetry (`upp_noc::obs`) output.
//!
//! Two input shapes, auto-detected by their markers:
//!
//! * a **summary** JSON document from `simulate --obs` (or the `"obs"`
//!   field of a `--json` payload), marked `"upp_obs": 1` — final counter
//!   totals, gauge value/high-water pairs, and full histograms;
//! * an **epoch** JSONL stream from `simulate --obs-every N --obs-out F`,
//!   whose header line is marked `"upp_obs_epochs": 1` — one snapshot of
//!   per-epoch deltas per line.
//!
//! Both carry the schema tag [`upp_noc::obs::OBS_SCHEMA`]; files written by
//! a different schema version are rejected up front rather than misread.
//! Histograms use the exact [`crate::Histogram`] JSON shape, so quantiles
//! here are computed over the original buckets, never re-approximated.

use std::fmt::Write as _;

use serde::Deserialize;
use serde_json::Value;
use upp_noc::obs::OBS_SCHEMA;

use crate::Histogram;

/// One metric set: counter totals, gauge `(value, high)` pairs and
/// histograms, as parsed from either input shape. For epoch input the
/// counters are per-epoch deltas; for summary input they are run totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Cycle the snapshot was cut at.
    pub cycle: u64,
    /// `(name, total)` pairs, in file order (sorted by name at the source).
    pub counters: Vec<(String, u64)>,
    /// `(name, (value, high-water))` pairs.
    pub gauges: Vec<(String, (u64, u64))>,
    /// `(name, histogram)` pairs.
    pub histograms: Vec<(String, Histogram)>,
}

impl ObsSnapshot {
    fn from_value(v: &Value) -> Option<Self> {
        // Metric names are keys, so each set is an object read in file order.
        fn named<T: Deserialize>(v: &Value, key: &str) -> Option<Vec<(String, T)>> {
            let pairs = v.get(key)?.as_object()?.iter();
            pairs
                .map(|(name, val)| Some((name.clone(), T::de_value(val)?)))
                .collect()
        }
        Some(Self {
            cycle: v.get("cycle")?.as_u64()?,
            counters: named(v, "counters")?,
            gauges: named(v, "gauges")?,
            histograms: named(v, "histograms")?,
        })
    }
}

/// A parsed telemetry document: the final summary, plus the epoch time
/// series when the input was an epoch stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Run totals (summed across epochs for JSONL input).
    pub summary: ObsSnapshot,
    /// Per-epoch snapshots, oldest first; empty for summary input.
    pub epochs: Vec<ObsSnapshot>,
}

/// True when `v` is a telemetry summary document.
pub fn is_obs_summary(v: &Value) -> bool {
    v.get("upp_obs").and_then(Value::as_u64) == Some(1)
}

/// True when `line` is a telemetry epoch-stream header.
fn is_obs_epochs_header(v: &Value) -> bool {
    v.get("upp_obs_epochs").and_then(Value::as_u64) == Some(1)
}

fn check_schema(v: &Value) -> Result<(), String> {
    match v.get("schema").and_then(Value::as_str) {
        Some(s) if s == OBS_SCHEMA => Ok(()),
        Some(s) => Err(format!(
            "stale or foreign telemetry file: schema {s:?}, this tool reads {OBS_SCHEMA:?}"
        )),
        None => Err("telemetry file has no schema tag".into()),
    }
}

impl ObsReport {
    /// Parses a summary document (`simulate --obs`), or the `"obs"` field
    /// of a full `--json` payload.
    ///
    /// # Errors
    ///
    /// Returns a reason when the text is not valid JSON, carries no
    /// telemetry marker, or was written by a different schema version.
    pub fn from_summary_json(text: &str) -> Result<Self, String> {
        let v = serde_json::from_str(text).map_err(|e| format!("not JSON: {e:?}"))?;
        let v = if is_obs_summary(&v) {
            v
        } else if let Some(inner) = v.get("obs").filter(|o| is_obs_summary(o)) {
            inner.clone()
        } else {
            return Err("no \"upp_obs\" marker (not a telemetry summary)".into());
        };
        check_schema(&v)?;
        let summary = ObsSnapshot::from_value(&v).ok_or("malformed telemetry summary")?;
        Ok(Self {
            summary,
            epochs: Vec::new(),
        })
    }

    /// Parses an epoch JSONL stream (`simulate --obs-every`): a marked
    /// header line, then one snapshot per line. The run summary is rebuilt
    /// by summing counter deltas, merging histograms exactly, and joining
    /// gauge high-waters.
    ///
    /// # Errors
    ///
    /// Returns a reason on a missing/foreign header or a malformed line.
    pub fn from_epochs_jsonl(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty telemetry file")?;
        let hv = serde_json::from_str(header).map_err(|e| format!("bad header: {e:?}"))?;
        if !is_obs_epochs_header(&hv) {
            return Err("no \"upp_obs_epochs\" header (not an epoch stream)".into());
        }
        check_schema(&hv)?;
        let mut epochs = Vec::new();
        for (i, line) in lines.enumerate() {
            let v = serde_json::from_str(line).map_err(|e| format!("line {}: {e:?}", i + 2))?;
            epochs.push(
                ObsSnapshot::from_value(&v)
                    .ok_or_else(|| format!("line {}: malformed epoch", i + 2))?,
            );
        }
        let mut summary = ObsSnapshot::default();
        for e in &epochs {
            summary.cycle = summary.cycle.max(e.cycle);
            merge_counts(&mut summary.counters, &e.counters);
            for (name, (value, high)) in &e.gauges {
                match summary.gauges.iter_mut().find(|(n, _)| n == name) {
                    // Later epochs win the instantaneous value; highs join.
                    Some((_, g)) => *g = (*value, g.1.max(*high)),
                    None => summary.gauges.push((name.clone(), (*value, *high))),
                }
            }
            for (name, h) in &e.histograms {
                match summary.histograms.iter_mut().find(|(n, _)| n == name) {
                    Some((_, acc)) => acc.merge(h),
                    None => summary.histograms.push((name.clone(), h.clone())),
                }
            }
        }
        Ok(Self { summary, epochs })
    }

    /// Auto-detects the input shape and parses it.
    ///
    /// # Errors
    ///
    /// Returns the summary-parse reason when the text is neither shape.
    pub fn parse(text: &str) -> Result<Self, String> {
        let head = text.trim_start();
        if head.starts_with('{') {
            if let Ok(v) = serde_json::from_str(head.lines().next().unwrap_or("")) {
                if is_obs_epochs_header(&v) {
                    return Self::from_epochs_jsonl(head);
                }
            }
        }
        Self::from_summary_json(head)
    }
}

fn merge_counts(acc: &mut Vec<(String, u64)>, add: &[(String, u64)]) {
    for (name, n) in add {
        match acc.iter_mut().find(|(a, _)| a == name) {
            Some((_, total)) => *total += n,
            None => acc.push((name.clone(), *n)),
        }
    }
}

/// Renders the per-metric report: counter totals, gauge value/high pairs,
/// and histogram count/mean/median/p95/max lines.
pub fn report_text(r: &ObsReport) -> String {
    let s = &r.summary;
    let mut out = format!("== telemetry report @ cycle {} ==\n", s.cycle);
    if !r.epochs.is_empty() {
        let _ = writeln!(out, "{} epochs", r.epochs.len());
    }
    if !s.counters.is_empty() {
        out.push_str("\ncounters (run totals):\n");
        let w = s.counters.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, total) in &s.counters {
            let _ = writeln!(out, "  {name:<w$}  {total}");
        }
    }
    if !s.gauges.is_empty() {
        out.push_str("\ngauges (last sample / high-water):\n");
        let w = s.gauges.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, (value, high)) in &s.gauges {
            let _ = writeln!(out, "  {name:<w$}  {value} / {high}");
        }
    }
    if !s.histograms.is_empty() {
        out.push_str("\nhistograms:\n");
        let w = s.histograms.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, h) in &s.histograms {
            let _ = writeln!(
                out,
                "  {name:<w$}  n={} mean={:.1} p50={} p95={} max={}",
                h.count(),
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.max(),
            );
        }
    }
    out
}

/// Renders the epoch time series as CSV: one row per epoch, one column per
/// counter (per-epoch delta), per gauge (`<name>` sampled value and
/// `<name>.high` epoch high-water), and per histogram (`<name>.count` and
/// `<name>.mean`). Returns `None` for summary-only input.
pub fn timeseries_csv(r: &ObsReport) -> Option<String> {
    let first = r.epochs.first()?;
    let mut out = String::from("cycle");
    for (name, _) in &first.counters {
        let _ = write!(out, ",{name}");
    }
    for (name, _) in &first.gauges {
        let _ = write!(out, ",{name},{name}.high");
    }
    for (name, _) in &first.histograms {
        let _ = write!(out, ",{name}.count,{name}.mean");
    }
    out.push('\n');
    for e in &r.epochs {
        let _ = write!(out, "{}", e.cycle);
        for (_, total) in &e.counters {
            let _ = write!(out, ",{total}");
        }
        for (_, (value, high)) in &e.gauges {
            let _ = write!(out, ",{value},{high}");
        }
        for (_, h) in &e.histograms {
            let _ = write!(out, ",{},{:.3}", h.count(), h.mean());
        }
        out.push('\n');
    }
    Some(out)
}

/// All series names plottable by [`timeseries_svg`]: counters, gauge
/// high-waters, and histogram counts.
pub fn series_names(r: &ObsReport) -> Vec<String> {
    let Some(first) = r.epochs.first() else {
        return Vec::new();
    };
    first
        .counters
        .iter()
        .map(|(n, _)| n.clone())
        .chain(first.gauges.iter().map(|(n, _)| n.clone()))
        .chain(first.histograms.iter().map(|(n, _)| n.clone()))
        .collect()
}

fn series_values(r: &ObsReport, name: &str) -> Vec<(u64, f64)> {
    r.epochs
        .iter()
        .filter_map(|e| {
            if let Some((_, v)) = e.counters.iter().find(|(n, _)| n == name) {
                return Some((e.cycle, *v as f64));
            }
            if let Some((_, (_, high))) = e.gauges.iter().find(|(n, _)| n == name) {
                return Some((e.cycle, *high as f64));
            }
            e.histograms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| (e.cycle, h.count() as f64))
        })
        .collect()
}

/// Plots the named series (all series when `names` is empty) as an SVG of
/// per-epoch polylines with a shared linear scale and a legend. Returns
/// `None` when the input has no epochs.
pub fn timeseries_svg(r: &ObsReport, names: &[String]) -> Option<String> {
    const PALETTE: [&str; 8] = [
        "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
    ];
    let all = series_names(r);
    if all.is_empty() {
        return None;
    }
    let selected: Vec<&String> = if names.is_empty() {
        all.iter().collect()
    } else {
        all.iter().filter(|n| names.contains(n)).collect()
    };
    let series: Vec<(&String, Vec<(u64, f64)>)> = selected
        .into_iter()
        .map(|n| (n, series_values(r, n)))
        .collect();
    let max_cycle = r.epochs.last().map_or(1, |e| e.cycle).max(1);
    let max_v = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|&(_, v)| v))
        .fold(1.0_f64, f64::max);
    let (w, h, ml, mb) = (720.0, 320.0, 60.0, 40.0);
    let (pw, ph) = (w - ml - 20.0, h - mb - 20.0);
    let mut svg = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
         viewBox=\"0 0 {} {}\" font-family=\"monospace\" font-size=\"11\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n\
         <line x1=\"{ml}\" y1=\"20\" x2=\"{ml}\" y2=\"{}\" stroke=\"black\"/>\n\
         <line x1=\"{ml}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"black\"/>\n\
         <text x=\"{ml}\" y=\"14\">{max_v:.0}</text>\n\
         <text x=\"{}\" y=\"{}\">cycle {max_cycle}</text>\n",
        w,
        h + 14.0 * series.len() as f64,
        w,
        h + 14.0 * series.len() as f64,
        20.0 + ph,
        20.0 + ph,
        ml + pw,
        20.0 + ph,
        ml + pw - 80.0,
        20.0 + ph + 14.0,
    );
    for (i, (name, pts)) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let path: Vec<String> = pts
            .iter()
            .map(|&(c, v)| {
                let x = ml + pw * c as f64 / max_cycle as f64;
                let y = 20.0 + ph * (1.0 - v / max_v);
                format!("{x:.1},{y:.1}")
            })
            .collect();
        let _ = writeln!(
            svg,
            "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" points=\"{}\"/>",
            path.join(" ")
        );
        let ly = h + 14.0 * (i + 1) as f64 - 4.0;
        let _ = writeln!(
            svg,
            "<rect x=\"{ml}\" y=\"{}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\
             <text x=\"{}\" y=\"{ly}\">{name}</text>",
            ly - 9.0,
            ml + 16.0,
        );
    }
    svg.push_str("</svg>\n");
    Some(svg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_epochs() -> String {
        let mut s = String::from("{\"upp_obs_epochs\":1,\"schema\":\"upp-obs/v1\"}\n");
        s.push_str(
            "{\"cycle\":100,\"counters\":{\"a.x\":3,\"b.y\":0},\
             \"gauges\":{\"g.d\":[2,5]},\
             \"histograms\":{\"h.l\":{\"count\":2,\"sum\":10,\"min\":4,\"max\":6,\"buckets\":[[4,1],[6,1]]}}}\n",
        );
        s.push_str(
            "{\"cycle\":200,\"counters\":{\"a.x\":7,\"b.y\":1},\
             \"gauges\":{\"g.d\":[1,3]},\
             \"histograms\":{\"h.l\":{\"count\":1,\"sum\":8,\"min\":8,\"max\":8,\"buckets\":[[8,1]]}}}\n",
        );
        s
    }

    #[test]
    fn epoch_stream_rebuilds_the_run_summary() {
        let r = ObsReport::parse(&sample_epochs()).unwrap();
        assert_eq!(r.epochs.len(), 2);
        let s = &r.summary;
        assert_eq!(s.cycle, 200);
        assert_eq!(s.counters, vec![("a.x".into(), 10), ("b.y".into(), 1)]);
        // Last sampled value, joined high-water.
        assert_eq!(s.gauges, vec![("g.d".into(), (1, 5))]);
        let (_, h) = &s.histograms[0];
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 18);
        assert_eq!(h.max(), 8);
    }

    #[test]
    fn summary_document_parses_directly_and_via_json_payload() {
        let summary = "{\"upp_obs\":1,\"schema\":\"upp-obs/v1\",\"cycle\":42,\
             \"counters\":{\"a\":1},\"gauges\":{},\"histograms\":{}}";
        let r = ObsReport::parse(summary).unwrap();
        assert_eq!(r.summary.cycle, 42);
        assert!(r.epochs.is_empty());
        let wrapped = format!("{{\"outcome\":\"x\",\"obs\":{summary}}}");
        let r2 = ObsReport::parse(&wrapped).unwrap();
        assert_eq!(r2.summary, r.summary);
    }

    #[test]
    fn foreign_schema_versions_are_rejected() {
        let stale = "{\"upp_obs\":1,\"schema\":\"upp-obs/v0\",\"cycle\":1,\
             \"counters\":{},\"gauges\":{},\"histograms\":{}}";
        assert!(ObsReport::parse(stale)
            .unwrap_err()
            .contains("stale or foreign"));
        let stale_epochs = "{\"upp_obs_epochs\":1,\"schema\":\"upp-obs/v9\"}\n";
        assert!(ObsReport::parse(stale_epochs)
            .unwrap_err()
            .contains("stale or foreign"));
    }

    #[test]
    fn report_csv_and_svg_render() {
        let r = ObsReport::parse(&sample_epochs()).unwrap();
        let text = report_text(&r);
        assert!(text.contains("a.x"), "{text}");
        assert!(text.contains("2 epochs"), "{text}");
        let csv = timeseries_csv(&r).unwrap();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "cycle,a.x,b.y,g.d,g.d.high,h.l.count,h.l.mean"
        );
        assert_eq!(lines.next().unwrap(), "100,3,0,2,5,2,5.000");
        let svg = timeseries_svg(&r, &[]).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("polyline"));
        assert!(svg.contains("a.x"));
        let one = timeseries_svg(&r, &["a.x".to_string()]).unwrap();
        assert!(!one.contains("b.y"), "filtered series must be absent");
    }
}
