//! `upp-trace` — analysis CLI over flight-recorder traces and profiles.
//!
//! ```text
//! upp-trace analyze <input> [--json] [--out FILE]
//! upp-trace heatmap <input> [--csv-out FILE] [--svg-out FILE]
//! upp-trace critical-path <input> [--top N]
//! upp-trace diff <a> <b>
//! upp-trace obs <input> [--csv-out FILE] [--svg-out FILE] [--metric NAME]
//! upp-trace alerts <input> [--csv-out FILE] [--svg-out FILE]
//! ```
//!
//! `<input>` is either a profile summary JSON written by
//! `simulate --profile-out` (detected by its `"upp_profile": 1` marker) or
//! a raw JSONL flight-recorder trace from `simulate --trace`; both yield
//! the same `ProfileSummary`. Use `--system`/`--scheme` to label raw
//! traces (profiles carry their own labels).
//!
//! `obs` instead reads protocol-state telemetry: a summary JSON from
//! `simulate --obs` (also embedded as the `"obs"` field of `--json`
//! payloads) or an epoch JSONL stream from `--obs-every`/`--obs-out`,
//! auto-detected by their markers. `alerts` reads the `upp-alerts/v1`
//! stream of `simulate --watch-out`.
//!
//! An unknown subcommand or flag is named on stderr before the usage text,
//! and the exit code is 2.

use std::fs::File;
use std::io::{BufReader, Read};
use std::process::ExitCode;

use upp_tracetools::render;
use upp_tracetools::summary::ProfileSummary;

fn usage() -> ! {
    eprintln!(
        "usage:\n\
         upp-trace analyze <input> [--json] [--out FILE] [--system S] [--scheme S]\n\
         upp-trace heatmap <input> [--csv-out FILE] [--svg-out FILE] [--system S]\n\
         upp-trace critical-path <input> [--top N] [--system S] [--scheme S]\n\
         upp-trace diff <a> <b>\n\
         upp-trace obs <input> [--csv-out FILE] [--svg-out FILE] [--metric NAME]\n\
         upp-trace alerts <input> [--csv-out FILE] [--svg-out FILE]\n\
         \n\
         <input>: profile JSON from `simulate --profile-out` or JSONL from\n\
         `simulate --trace`; the kind is auto-detected. `obs` reads telemetry\n\
         summaries (`simulate --obs`, or `--json` payloads embedding one) and\n\
         epoch streams (`--obs-every`/`--obs-out`); repeat --metric to select\n\
         the series plotted by --svg-out (default: all). `alerts` renders an\n\
         upp-alerts/v1 stream (`simulate --watch-out`) as a table, CSV\n\
         timeline or SVG lane chart."
    );
    std::process::exit(2)
}

/// Loads either input shape into a summary; `system`/`scheme` label raw
/// JSONL traces and are ignored when the profile document carries its own.
fn load(path: &str, system: &str, scheme: &str) -> Result<ProfileSummary, String> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("{path}: {e}"))?;
    let head = text.trim_start();
    if head.starts_with('{') {
        if let Ok(v) = serde_json::from_str(head) {
            if ProfileSummary::is_profile_value(&v) {
                return ProfileSummary::from_json(head).map_err(|e| format!("{path}: {e}"));
            }
        }
    }
    let (summary, malformed) =
        ProfileSummary::from_jsonl(BufReader::new(text.as_bytes()), system, scheme)
            .map_err(|e| format!("{path}: {e}"))?;
    if malformed > 0 {
        eprintln!("warning: {path}: skipped {malformed} malformed trace lines");
    }
    Ok(summary)
}

fn write_or_die(path: &str, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };

    // Shared flag parsing: positional inputs plus `--flag value` pairs.
    let mut inputs: Vec<&str> = Vec::new();
    let mut json = false;
    let mut out: Option<&str> = None;
    let mut csv_out: Option<&str> = None;
    let mut svg_out: Option<&str> = None;
    let mut system = String::new();
    let mut scheme = String::new();
    let mut top = 10usize;
    let mut metrics: Vec<String> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match a.as_str() {
            "--json" => json = true,
            "--out" => out = Some(val()),
            "--csv-out" => csv_out = Some(val()),
            "--svg-out" => svg_out = Some(val()),
            "--system" => system = val().to_string(),
            "--scheme" => scheme = val().to_string(),
            "--top" => top = val().parse().unwrap_or_else(|_| usage()),
            "--metric" => metrics.push(val().to_string()),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                usage()
            }
            input => inputs.push(input),
        }
    }

    let one_input = || -> &str {
        if inputs.len() != 1 {
            usage()
        }
        inputs[0]
    };
    let load_or_die = |path: &str| -> ProfileSummary {
        match load(path, &system, &scheme) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    };

    match cmd.as_str() {
        "analyze" => {
            let p = load_or_die(one_input());
            let rendered = if json {
                p.to_json()
            } else {
                render::analyze_text(&p)
            };
            match out {
                Some(path) => write_or_die(path, &rendered),
                None => print!("{rendered}"),
            }
        }
        "heatmap" => {
            let p = load_or_die(one_input());
            let csv = format!("{}\n{}", render::router_csv(&p), render::link_csv(&p));
            match csv_out {
                Some(path) => write_or_die(path, &csv),
                None => print!("{csv}"),
            }
            if let Some(path) = svg_out {
                match render::heatmap_svg(&p) {
                    Some(svg) => write_or_die(path, &svg),
                    None => {
                        eprintln!(
                            "error: unknown system {:?}; pass --system \
                             baseline|large|b2|b8 for SVG layout",
                            p.system
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        "critical-path" => {
            let p = load_or_die(one_input());
            print!("{}", render::critical_path_text(&p, top));
        }
        "diff" => {
            if inputs.len() != 2 {
                usage()
            }
            let a = load_or_die(inputs[0]);
            let b = load_or_die(inputs[1]);
            print!("{}", render::diff_text(&a, &b));
        }
        "obs" => {
            let path = one_input();
            let mut text = String::new();
            if let Err(e) = File::open(path).and_then(|mut f| f.read_to_string(&mut text)) {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
            let report = match upp_tracetools::obs::ObsReport::parse(&text) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{}", upp_tracetools::obs::report_text(&report));
            // A summary has no time series: the table prints, and each
            // series file asked for is refused (exit 1, like an unwritable
            // path).
            let mut refused = false;
            let mut needs_epochs = |flag: &str| {
                eprintln!("error: {flag} needs epoch input (simulate --obs-every)");
                refused = true;
            };
            if let Some(p) = csv_out {
                match upp_tracetools::obs::timeseries_csv(&report) {
                    Some(csv) => write_or_die(p, &csv),
                    None => needs_epochs("--csv-out"),
                }
            }
            if let Some(p) = svg_out {
                match upp_tracetools::obs::timeseries_svg(&report, &metrics) {
                    Some(svg) => write_or_die(p, &svg),
                    None => needs_epochs("--svg-out"),
                }
            }
            if refused {
                return ExitCode::FAILURE;
            }
        }
        "alerts" => {
            let path = one_input();
            let mut text = String::new();
            if let Err(e) = File::open(path).and_then(|mut f| f.read_to_string(&mut text)) {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
            let report = match upp_tracetools::alerts::AlertsReport::parse(&text) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{}", upp_tracetools::alerts::report_text(&report));
            if let Some(p) = csv_out {
                write_or_die(p, &upp_tracetools::alerts::timeline_csv(&report));
            }
            if let Some(p) = svg_out {
                write_or_die(p, &upp_tracetools::alerts::lanes_svg(&report));
            }
        }
        other => {
            eprintln!("unknown subcommand {other}");
            usage()
        }
    }
    ExitCode::SUCCESS
}
