//! Analysis over protocol-state telemetry (`upp_noc::obs`) output.
//!
//! Two input shapes, auto-detected by their markers:
//!
//! * a **summary** JSON document from `simulate --obs` (or the `"obs"`
//!   field of a `--json` payload) — final counter totals, gauge
//!   value/high-water pairs, and full histograms;
//! * an **epoch** JSONL stream from `simulate --obs-every N --obs-out F`:
//!   a header line, then one snapshot of per-epoch deltas per line.
//!
//! Both are read by [`ObsSnapshot`], the type that writes them, and carry
//! the schema tag [`upp_noc::obs::OBS_SCHEMA`]; files written by a
//! different schema version are rejected up front rather than misread.
//! Histograms use the exact [`crate::Histogram`] JSON shape, so quantiles
//! here are computed over the original buckets, never re-approximated.

use std::fmt::Write as _;

use upp_noc::obs::ObsSnapshot;

/// A parsed telemetry document: the final summary, plus the epoch time
/// series when the input was an epoch stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Run totals (merged across epochs for JSONL input).
    pub summary: ObsSnapshot,
    /// Per-epoch snapshots, oldest first; empty for summary input.
    pub epochs: Vec<ObsSnapshot>,
}

impl ObsReport {
    /// Auto-detects the input shape and parses it. An epoch stream's run
    /// summary is the by-name [`ObsSnapshot::merge`] of its epochs:
    /// counter deltas add, histograms merge exactly, gauges keep the last
    /// sampled value and join their high-waters.
    ///
    /// # Errors
    ///
    /// Returns a reason when the text is neither shape, was written by a
    /// different schema version, or has a malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let head = text.trim_start();
        Ok(match ObsSnapshot::read_epochs(head)? {
            Some(epochs) => Self {
                summary: epochs.iter().fold(ObsSnapshot::default(), |mut acc, e| {
                    acc.merge(e);
                    acc
                }),
                epochs,
            },
            None => Self {
                summary: ObsSnapshot::read_summary(head)?,
                epochs: Vec::new(),
            },
        })
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
        let w = s.counters.keys().map(String::len).max().unwrap_or(0);
        for (name, total) in &s.counters {
            let _ = writeln!(out, "  {name:<w$}  {total}");
        }
    }
    if !s.gauges.is_empty() {
        out.push_str("\ngauges (last sample / high-water):\n");
        let w = s.gauges.keys().map(String::len).max().unwrap_or(0);
        for (name, g) in &s.gauges {
            let _ = writeln!(out, "  {name:<w$}  {} / {}", g.value, g.high);
        }
    }
    if !s.histograms.is_empty() {
        out.push_str("\nhistograms:\n");
        let w = s.histograms.keys().map(String::len).max().unwrap_or(0);
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
    for name in first.counters.keys() {
        let _ = write!(out, ",{name}");
    }
    for name in first.gauges.keys() {
        let _ = write!(out, ",{name},{name}.high");
    }
    for name in first.histograms.keys() {
        let _ = write!(out, ",{name}.count,{name}.mean");
    }
    out.push('\n');
    for e in &r.epochs {
        let _ = write!(out, "{}", e.cycle);
        for total in e.counters.values() {
            let _ = write!(out, ",{total}");
        }
        for g in e.gauges.values() {
            let _ = write!(out, ",{},{}", g.value, g.high);
        }
        for h in e.histograms.values() {
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
    (first.counters.keys())
        .chain(first.gauges.keys())
        .chain(first.histograms.keys())
        .cloned()
        .collect()
}

fn series_values(r: &ObsReport, name: &str) -> Vec<(u64, f64)> {
    r.epochs
        .iter()
        .filter_map(|e| {
            let v = (e.counters.get(name).copied())
                .or_else(|| e.gauges.get(name).map(|g| g.high))
                .or_else(|| e.histograms.get(name).map(|h| h.count()))?;
            Some((e.cycle, v as f64))
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
        let counters: Vec<(&str, u64)> = s.counters.iter().map(|(n, &v)| (n.as_str(), v)).collect();
        assert_eq!(counters, [("a.x", 10), ("b.y", 1)]);
        // Last sampled value, joined high-water.
        assert_eq!((s.gauges["g.d"].value, s.gauges["g.d"].high), (1, 5));
        let h = &s.histograms["h.l"];
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
