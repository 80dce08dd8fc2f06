//! End-to-end tests of the `upp-trace` binary: a synthetic JSONL trace is
//! analyzed into a profile document, the document re-analyzes to the same
//! bytes, and the heatmap/critical-path/diff subcommands all run over it;
//! `obs` and `alerts` render synthetic telemetry and alert streams.

use std::path::PathBuf;
use std::process::{Command, Output};

use upp_noc::ids::{NodeId, PacketId, Port, VnetId};
use upp_noc::trace::{BlockReason, TraceEvent};

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("upp-trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Runs `upp-trace` with the given args.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_upp-trace"))
        .args(args)
        .output()
        .expect("upp-trace binary runs")
}

/// Runs `upp-trace` with the given args, asserting success, and returns
/// captured stdout.
fn upp_trace(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "upp-trace {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// A small trace: two packets, one of which goes through a full popup.
fn sample_trace(latency_scale: u64) -> String {
    let events = vec![
        TraceEvent::PacketCreated {
            at: 0,
            packet: PacketId(1),
            src: NodeId(0),
            dest: NodeId(9),
            vnet: VnetId(0),
            len_flits: 4,
        },
        TraceEvent::PacketInjected {
            at: 3,
            packet: PacketId(1),
            node: NodeId(0),
        },
        TraceEvent::Blocked {
            at: 5,
            packet: PacketId(1),
            node: NodeId(4),
            in_port: Port::West,
            vc_flat: 0,
            out_port: Some(Port::East),
            reason: BlockReason::Credit,
        },
        TraceEvent::PacketEjected {
            at: 10 * latency_scale,
            packet: PacketId(1),
            node: NodeId(9),
            net_latency: 10 * latency_scale - 3,
            total_latency: 10 * latency_scale,
        },
        TraceEvent::PacketCreated {
            at: 2,
            packet: PacketId(2),
            src: NodeId(3),
            dest: NodeId(7),
            vnet: VnetId(1),
            len_flits: 2,
        },
        TraceEvent::PacketInjected {
            at: 4,
            packet: PacketId(2),
            node: NodeId(3),
        },
        TraceEvent::PopupSpan {
            node: NodeId(5),
            vnet: VnetId(1),
            packet: PacketId(2),
            detected_at: 6,
            completed_at: 6 + 4 * latency_scale,
            wait_ack: 2 * latency_scale,
            locate: latency_scale,
            pop: latency_scale,
        },
        TraceEvent::BypassHop {
            at: 8,
            packet: PacketId(2),
            node: NodeId(5),
            out_port: Port::Up,
        },
        TraceEvent::PacketEjected {
            at: 9 + 4 * latency_scale,
            packet: PacketId(2),
            node: NodeId(7),
            net_latency: 5 + 4 * latency_scale,
            total_latency: 7 + 4 * latency_scale,
        },
    ];
    events.iter().map(|e| e.jsonl() + "\n").collect()
}

#[test]
fn analyze_is_idempotent_across_input_shapes() {
    let trace = tmp_path("trace.jsonl");
    std::fs::write(&trace, sample_trace(2)).expect("write trace");
    let trace = trace.to_str().expect("utf-8 path");

    // JSONL -> profile document.
    let profile_path = tmp_path("profile.json");
    upp_trace(&[
        "analyze",
        trace,
        "--json",
        "--out",
        profile_path.to_str().expect("utf-8 path"),
        "--system",
        "baseline",
        "--scheme",
        "UPP",
    ]);
    let profile = std::fs::read_to_string(&profile_path).expect("profile written");
    assert!(profile.contains("\"upp_profile\":1"));

    // Re-analyzing the profile document gives the same bytes back.
    let again = upp_trace(&["analyze", profile_path.to_str().expect("utf-8"), "--json"]);
    assert_eq!(again, profile, "profile -> analyze --json is a fixed point");

    // The human report shows the popup attribution from the trace.
    let report = upp_trace(&["analyze", trace, "--system", "baseline", "--scheme", "UPP"]);
    assert!(report.contains("packets"), "report renders:\n{report}");
    assert!(report.contains("wait_ack"), "phases listed:\n{report}");
}

#[test]
fn heatmap_critical_path_and_diff_run_end_to_end() {
    let a = tmp_path("a.jsonl");
    let b = tmp_path("b.jsonl");
    std::fs::write(&a, sample_trace(2)).expect("write");
    std::fs::write(&b, sample_trace(5)).expect("write");
    let (a, b) = (a.to_str().expect("utf-8"), b.to_str().expect("utf-8"));

    let csv = tmp_path("heat.csv");
    let svg = tmp_path("heat.svg");
    upp_trace(&[
        "heatmap",
        a,
        "--system",
        "baseline",
        "--csv-out",
        csv.to_str().expect("utf-8"),
        "--svg-out",
        svg.to_str().expect("utf-8"),
    ]);
    let csv = std::fs::read_to_string(&csv).expect("csv written");
    assert!(csv.starts_with("node,blocked_cycles"), "csv header:\n{csv}");
    let svg = std::fs::read_to_string(&svg).expect("svg written");
    assert!(svg.starts_with("<svg"), "svg rendered");

    let crit = upp_trace(&["critical-path", a, "--top", "2"]);
    assert!(
        crit.contains("packet"),
        "critical path lists packets:\n{crit}"
    );

    let diff = upp_trace(&["diff", a, b]);
    assert!(
        diff.contains("wait_ack"),
        "diff shows phase deltas:\n{diff}"
    );
}

/// A small `upp-alerts/v1` stream: one collapse span that escalates and
/// clears, plus a starvation raise (the shape a wedged run produces).
fn sample_alerts() -> String {
    [
        r#"{"upp_alerts":1,"schema":"upp-alerts/v1","every":100}"#,
        r#"{"detector":"throughput_collapse","event":"raise","severity":"warning","metric":"flits_per_epoch","value":6,"threshold":103,"from_cycle":900,"at_cycle":1000}"#,
        r#"{"detector":"throughput_collapse","event":"escalate","severity":"critical","metric":"flits_per_epoch","value":2,"threshold":63,"from_cycle":900,"at_cycle":1200}"#,
        r#"{"detector":"throughput_collapse","event":"clear","severity":"info","metric":"flits_per_epoch","value":0,"threshold":0,"from_cycle":900,"at_cycle":1800}"#,
        r#"{"detector":"injection_starvation","event":"raise","severity":"warning","metric":"in_flight","value":3482,"threshold":1,"from_cycle":2100,"at_cycle":2200}"#,
    ]
    .map(|l| l.to_string() + "\n")
    .concat()
}

#[test]
fn alerts_renders_table_csv_and_svg() {
    let stream = tmp_path("alerts.jsonl");
    std::fs::write(&stream, sample_alerts()).expect("write alerts");
    let csv = tmp_path("alerts.csv");
    let svg = tmp_path("alerts.svg");
    let table = upp_trace(&[
        "alerts",
        stream.to_str().expect("utf-8"),
        "--csv-out",
        csv.to_str().expect("utf-8"),
        "--svg-out",
        svg.to_str().expect("utf-8"),
    ]);
    assert!(
        table.contains("throughput_collapse") && table.contains("injection_starvation"),
        "table lists both detectors:\n{table}"
    );
    assert!(table.contains("critical"), "severity shown:\n{table}");
    let csv = std::fs::read_to_string(&csv).expect("csv written");
    assert!(
        csv.starts_with("at_cycle,from_cycle,detector,event,severity,metric,value,threshold"),
        "csv header:\n{csv}"
    );
    assert_eq!(csv.lines().count(), 5, "header plus four alerts:\n{csv}");
    let svg = std::fs::read_to_string(&svg).expect("svg written");
    assert!(svg.starts_with("<svg"), "svg rendered");
    assert!(svg.contains("throughput_collapse"), "lane labelled:\n{svg}");
}

/// `live` and its polling flags are gone: `simulate --watch` streams
/// alerts to stderr as they fire. Asking for either is exit 2 with the
/// offending word named before the usage text.
#[test]
fn a_removed_subcommand_or_flag_is_rejected_by_name() {
    for (args, named) in [
        (&["live", "x"][..], "unknown subcommand live"),
        (&["alerts", "--follow", "x"][..], "unknown flag --follow"),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "upp-trace {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(named) && stderr.contains("usage:"),
            "upp-trace {args:?}:\n{stderr}"
        );
    }
}

/// An `upp-obs/v1` epoch stream as `simulate --obs-every` writes it: the
/// header line, then two epochs with two counters, a gauge and a histogram.
fn sample_obs_epochs() -> String {
    [
        r#"{"upp_obs_epochs":1,"schema":"upp-obs/v1"}"#,
        r#"{"cycle":100,"counters":{"a.x":3,"b.y":0},"gauges":{"g.d":[2,5]},"histograms":{"h.l":{"count":2,"sum":10,"min":4,"max":6,"buckets":[[4,1],[6,1]]}}}"#,
        r#"{"cycle":200,"counters":{"a.x":7,"b.y":1},"gauges":{"g.d":[1,3]},"histograms":{"h.l":{"count":1,"sum":8,"min":8,"max":8,"buckets":[[8,1]]}}}"#,
    ]
    .map(|l| l.to_string() + "\n")
    .concat()
}

#[test]
fn obs_renders_table_csv_and_a_metric_filtered_svg() {
    let stream = tmp_path("obs.jsonl");
    std::fs::write(&stream, sample_obs_epochs()).expect("write epochs");
    let csv = tmp_path("obs.csv");
    let svg = tmp_path("obs.svg");
    let table = upp_trace(&[
        "obs",
        stream.to_str().expect("utf-8"),
        "--csv-out",
        csv.to_str().expect("utf-8"),
        "--svg-out",
        svg.to_str().expect("utf-8"),
        "--metric",
        "a.x",
    ]);
    assert!(
        table.starts_with("== telemetry report @ cycle 200 ==") && table.contains("2 epochs"),
        "table:\n{table}"
    );
    assert!(table.contains("a.x") && table.contains("h.l"), "{table}");
    let csv = std::fs::read_to_string(&csv).expect("csv written");
    assert!(
        csv.starts_with("cycle,a.x,b.y,g.d,g.d.high,h.l.count,h.l.mean\n"),
        "csv header:\n{csv}"
    );
    assert_eq!(csv.lines().count(), 3, "header plus two epochs:\n{csv}");
    let svg = std::fs::read_to_string(&svg).expect("svg written");
    assert!(svg.starts_with("<svg"), "svg rendered");
    assert_eq!(
        svg.matches("<polyline").count(),
        1,
        "only a.x plotted:\n{svg}"
    );
    assert!(
        svg.contains(">a.x</text>") && !svg.contains(">b.y</text>"),
        "{svg}"
    );
}

#[test]
fn obs_names_a_foreign_schema_and_asks_for_epochs_for_csv() {
    let summary = |schema: &str| {
        format!(
            r#"{{"upp_obs":1,"schema":"{schema}","cycle":42,"counters":{{"a":1}},"gauges":{{}},"histograms":{{}}}}"#
        )
    };
    let stale = tmp_path("stale_obs.json");
    std::fs::write(&stale, summary("upp-obs/v0")).expect("write stale summary");
    let out = run(&["obs", stale.to_str().expect("utf-8")]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("schema \"upp-obs/v0\""), "{stderr}");

    // A summary has no epochs: the table prints, the CSV is refused and
    // the exit code says so.
    let current = tmp_path("summary_obs.json");
    std::fs::write(&current, summary("upp-obs/v1")).expect("write summary");
    let csv = tmp_path("summary_obs.csv");
    let (current, csv_arg) = (
        current.to_str().expect("utf-8"),
        csv.to_str().expect("utf-8"),
    );
    let out = run(&["obs", current, "--csv-out", csv_arg]);
    assert_eq!(out.status.code(), Some(1), "a refused CSV is a failed run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("== telemetry report @ cycle 42 =="),
        "{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--csv-out needs epoch input"), "{stderr}");
    assert!(!csv.exists(), "no CSV from summary-only input");
}

/// A file of 200,000 `[` gets the answer ordinary garbage gets: `analyze`
/// skips it as a malformed trace line, `obs` and `alerts` exit 1 naming the
/// depth — never a stack overflow.
#[test]
fn a_json_nesting_bomb_is_malformed_input() {
    let bomb = tmp_path("bomb.json");
    std::fs::write(&bomb, "[".repeat(200_000)).expect("write the bomb");
    let bomb = bomb.to_str().expect("utf-8");

    let out = run(&["analyze", bomb]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("skipped 1 malformed trace lines"),
        "{stderr}"
    );
    for sub in ["obs", "alerts"] {
        let out = run(&[sub, bomb]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "upp-trace {sub}: {stderr}");
        assert!(
            stderr.contains("nesting deeper than 128"),
            "{sub}: {stderr}"
        );
    }
}
