//! A generic command-line driver for the simulator: pick a system, scheme,
//! traffic pattern, load and duration; get latency/throughput/recovery
//! statistics (and optionally an occupancy SVG, a flight-recorder trace,
//! telemetry epochs, or post-mortem deadlock forensics). Exits 1 when a
//! requested output file could not be written.
//!
//! This file is argv -> [`RunConfig`] and [`RunReport`] -> artifacts; the
//! run itself is the library call [`upp_workloads::run::run`].
//!
//! ```text
//! simulate --scheme upp --pattern uniform_random --rate 0.08 --cycles 50000
//! simulate --scheme none --rate 0.2 --stall-report   # watch it deadlock
//! simulate --scheme upp --chrome-trace trace.json    # open in Perfetto
//! simulate --scheme upp --obs-every 500 --obs-out epochs.jsonl
//! simulate --system large --scheme composable --vcs 4 --json out.json
//! simulate --scheme upp --sweep 0.02,0.05,0.08 --jobs 4 --json pts.json
//! ```

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use upp_bench::sweep::{default_jobs, SweepEngine};
use upp_core::UppConfig;
use upp_noc::trace::Tracer;
use upp_noc::viz::{stall_svg, topology_svg};
use upp_noc::watch::{alerts_header_json, WatchConfig};
use upp_noc::Network;
use upp_tracetools::render::analyze_text;
use upp_tracetools::ProfileSummary;
use upp_workloads::run::{check_rate, run, RunConfig, RunEvent};
use upp_workloads::runner::{PointSpec, SchemeKind, SweepWindows};
use upp_workloads::synthetic::Pattern;

/// The run the flags describe, plus where its artifacts go.
#[derive(Default)]
struct Args {
    run: RunConfig,
    svg: Option<String>,
    trace: Option<String>,
    chrome_trace: Option<String>,
    trace_ring_cap: Option<usize>,
    profile_out: Option<String>,
    obs_out: Option<String>,
    watch_out: Option<String>,
    stall_report: bool,
    stall_svg_path: Option<String>,
    json: Option<String>,
    sweep: Option<Vec<f64>>,
    jobs: Option<usize>,
    journal: Option<String>,
    resume: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: simulate [options]\n\
         --system baseline|large|b2|b8|grid:CxR\n\
                                             (default baseline; grid:CxR is a\n\
                                             C-by-R-chiplet mesh system)\n\
         --scheme upp|composable|remote|none (default upp)\n\
         --pattern uniform_random|bit_complement|bit_rotation|transpose|hotspot|neighbor\n\
         --rate FLOAT                        offered flits/cycle/node, 0.0..=1.0\n\
                                             (default 0.05)\n\
         --cycles N                          traffic cycles (default 50000)\n\
         --vcs N                             VCs per VNet (default 1)\n\
         --faults N                          random faulty links (default 0)\n\
         --threshold N                       UPP detection threshold (default 20)\n\
         --seed N                            (default 1)\n\
         --svg PATH                          write final occupancy heat map\n\
         --trace PATH                        stream trace events as JSONL\n\
         --chrome-trace PATH                 write a Chrome/Perfetto trace JSON\n\
         --trace-ring-cap N                  keep only the last N events of an\n\
                                             in-memory trace (bounds --chrome-trace\n\
                                             memory; dropped events are reported)\n\
         --profile                           attribute per-packet latency to\n\
                                             phases and print the breakdown\n\
         --profile-out PATH                  write the profile summary JSON for\n\
                                             `upp-trace` (implies --profile)\n\
         --obs                               enable protocol-state telemetry and\n\
                                             print the final summary (merged into\n\
                                             --json as \"obs\" when given)\n\
         --obs-every N                       additionally snapshot telemetry\n\
                                             epochs every N cycles (implies --obs)\n\
         --obs-out PATH                      write the epoch snapshots as JSONL\n\
                                             (stdout when omitted; needs\n\
                                             --obs-every)\n\
         --watch                             online health monitoring: evaluate\n\
                                             anomaly detectors at every epoch and\n\
                                             report upp-alerts/v1 transitions\n\
         --watch-every N                     watch epoch length in cycles\n\
                                             (default 200; implies --watch)\n\
         --watch-out PATH                    stream the alert JSONL (header plus\n\
                                             one line per alert, flushed as they\n\
                                             fire, so `tail -f` follows it;\n\
                                             implies --watch)\n\
         --watch-capture-dir DIR             auto-capture a forensics bundle\n\
                                             (stall report, trace tail, obs\n\
                                             summary) on the first critical\n\
                                             alert (implies --watch)\n\
         --mem                               print the end-of-run memory-footprint\n\
                                             report (merged into --json as \"mem\"\n\
                                             and into --obs as mem.* gauges when\n\
                                             those are given)\n\
         --stall-report                      print deadlock forensics after the run\n\
         --stall-svg PATH                    write the annotated stall diagram\n\
         --json PATH                         dump final NetStats/UppStats as JSON\n\
         --sweep R1,R2,...                   run a parallel latency sweep over the\n\
                                             given injection rates instead of one\n\
                                             simulation (uses --cycles as the\n\
                                             measurement window)\n\
         --jobs N                            sweep worker threads (default: all\n\
                                             hardware threads; results identical\n\
                                             for every N)\n\
         --journal FILE                      stream finished sweep points to a\n\
                                             JSONL journal (sweep mode only)\n\
         --resume                            reopen the journal and serve every\n\
                                             point it records (a point is all of\n\
                                             its config, so changed flags run\n\
                                             afresh); errors out on a journal in\n\
                                             the old keyed format"
    );
    exit(2);
}

fn parse() -> Args {
    let mut a = Args::default();
    let mut scheme_name = "upp".to_string();
    let mut threshold = 20;
    let mut profile = false;
    let mut watch = false;
    let mut watch_every = 200;
    let mut watch_capture_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--system" => {
                a.run.system = val().parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(2)
                })
            }
            "--scheme" => scheme_name = val(),
            "--pattern" => {
                let v = val();
                a.run.pattern = Pattern::ALL
                    .into_iter()
                    .chain(Pattern::EXTRA)
                    .find(|p| p.label() == v)
                    .unwrap_or_else(|| usage());
            }
            "--rate" => a.run.rate = val().parse().unwrap_or_else(|_| usage()),
            "--cycles" => a.run.cycles = val().parse().unwrap_or_else(|_| usage()),
            "--vcs" => a.run.vcs = val().parse().unwrap_or_else(|_| usage()),
            "--faults" => a.run.faults = val().parse().unwrap_or_else(|_| usage()),
            "--threshold" => threshold = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => a.run.seed = val().parse().unwrap_or_else(|_| usage()),
            "--svg" => a.svg = Some(val()),
            "--trace" => a.trace = Some(val()),
            "--chrome-trace" => a.chrome_trace = Some(val()),
            "--trace-ring-cap" => a.trace_ring_cap = Some(positive(val())),
            "--profile" => profile = true,
            "--profile-out" => {
                profile = true;
                a.profile_out = Some(val());
            }
            "--obs" => a.run.riders.obs = true,
            "--obs-every" => {
                a.run.riders.obs = true;
                a.run.riders.obs_every = Some(epoch_length(
                    val(),
                    "--obs-every must be at least 1 cycle: 0 would never cut \
                     an epoch (use 1 to snapshot every cycle)",
                ));
            }
            "--obs-out" => a.obs_out = Some(val()),
            "--watch" => watch = true,
            "--watch-every" => {
                watch = true;
                watch_every = epoch_length(
                    val(),
                    "--watch-every must be at least 1 cycle: 0 would never \
                     evaluate the detectors",
                );
            }
            "--watch-out" => {
                watch = true;
                a.watch_out = Some(val());
            }
            "--watch-capture-dir" => {
                watch = true;
                watch_capture_dir = Some(PathBuf::from(val()));
            }
            "--mem" => a.run.riders.mem = true,
            "--stall-report" => a.stall_report = true,
            "--stall-svg" => a.stall_svg_path = Some(val()),
            "--json" => a.json = Some(val()),
            "--sweep" => {
                let rates: Vec<f64> = val()
                    .split(',')
                    .map(|r| r.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if rates.is_empty() {
                    usage();
                }
                a.sweep = Some(rates);
            }
            "--jobs" => a.jobs = Some(positive(val())),
            "--journal" => a.journal = Some(val()),
            "--resume" => a.resume = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    a.run.scheme = match scheme_name.as_str() {
        "upp" => SchemeKind::Upp(UppConfig::with_threshold(threshold)),
        "composable" => SchemeKind::Composable,
        "remote" => SchemeKind::RemoteControl,
        "none" => SchemeKind::None,
        _ => usage(),
    };
    if profile {
        let system = format!("{:?}", a.run.system);
        a.run.riders.profile = Some(ProfileSummary::new(system, a.run.scheme.label()));
    }
    a.run.riders.watch = watch.then(|| {
        let tuning = WatchConfig {
            every: watch_every,
            ..WatchConfig::default()
        };
        (tuning, watch_capture_dir)
    });
    a
}

/// A count that must be at least 1.
fn positive(v: String) -> usize {
    match v.parse() {
        Ok(n) if n > 0 => n,
        _ => usage(),
    }
}

/// An epoch length in cycles; a zero one exits 2 saying `why_not_zero`.
fn epoch_length(v: String, why_not_zero: &str) -> u64 {
    let n = v.parse().unwrap_or_else(|_| usage());
    if n == 0 {
        eprintln!("{why_not_zero}");
        exit(2);
    }
    n
}

/// Creates an output file that is written while the run goes on.
fn create(path: &str) -> std::fs::File {
    std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("could not create {path}: {e}");
        exit(1);
    })
}

/// Writes one requested output file and says so on stderr (`detail` is
/// appended to the success line). Returns whether the file was written: a
/// run whose artifact is missing has failed, so `main` exits 1 once every
/// remaining output has been attempted.
fn write_artifact(path: &str, bytes: &[u8], detail: &str) -> bool {
    match std::fs::write(path, bytes) {
        Ok(()) => {
            eprintln!("wrote {path}{detail}");
            true
        }
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            false
        }
    }
}

/// `--sweep` mode: fan the rate list over the sweep engine and print one
/// row per point. Stats come out bit-identical for any `--jobs` value.
fn run_sweep(args: &Args, rates: &[f64]) {
    let run = &args.run;
    let point = PointSpec {
        system: run.spec().expect("main built this configuration"),
        noc: run.noc_config(),
        scheme: run.scheme.clone(),
        faults: run.faults,
        pattern: run.pattern,
        windows: SweepWindows {
            warmup: (run.cycles / 10).max(1),
            measure: run.cycles,
        },
        seed: run.seed,
        rate: run.rate,
    };
    let jobs = args.jobs.map_or_else(default_jobs, Ok).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    let mut engine = SweepEngine::new(jobs);
    if let Some(path) = &args.journal {
        engine = engine
            .open_journal(Path::new(path), args.resume)
            .unwrap_or_else(|e| {
                eprintln!("cannot open journal: {e}");
                exit(2);
            });
    }
    eprintln!(
        "sweep: system {:?} | scheme {} | pattern {} | {} rates | {} workers",
        run.system,
        run.scheme.label(),
        run.pattern.label(),
        rates.len(),
        engine.jobs()
    );
    let points = engine.sweep_rates(&point, rates);
    println!(
        "{:>8} {:>10} {:>10} {:>9} {:>9} {:>12} {:>10} {:>9}",
        "rate", "latency", "queueing", "p95", "p99", "throughput", "ejected", "deadlock"
    );
    for p in &points {
        println!(
            "{:>8} {:>10.2} {:>10.2} {:>9.1} {:>9.1} {:>12.4} {:>10} {:>9}",
            p.rate,
            p.net_latency,
            p.queue_latency,
            p.p95,
            p.p99,
            p.throughput,
            p.packets_ejected,
            p.deadlocked
        );
    }
    if let Some(path) = &args.json {
        let payload =
            serde_json::to_string_pretty(&points).expect("stats serialization is infallible");
        if !write_artifact(path, (payload + "\n").as_bytes(), "") {
            exit(1);
        }
    }
}

/// Installs the flight recorder the flags ask for: a Chrome trace buffers
/// in memory (bounded by --trace-ring-cap when given); a JSONL trace
/// streams straight to disk; a bare --trace-ring-cap arms an in-memory ring
/// for post-mortems.
fn arm_tracer(args: &Args, net: &mut Network) {
    if args.chrome_trace.is_some() {
        if args.trace.is_some() {
            eprintln!("--chrome-trace takes precedence over --trace; JSONL output disabled");
        }
        net.set_tracer(match args.trace_ring_cap {
            Some(cap) => Tracer::ring(cap),
            None => Tracer::chrome(),
        });
    } else if let Some(path) = &args.trace {
        if args.trace_ring_cap.is_some() {
            eprintln!("--trace-ring-cap only bounds in-memory traces; ignored with --trace");
        }
        let file = std::io::BufWriter::new(create(path));
        net.set_tracer(Tracer::jsonl(Box::new(file)));
    } else if let Some(cap) = args.trace_ring_cap {
        net.set_tracer(Tracer::ring(cap));
    }
}

fn main() {
    let args = parse();
    let cfg = &args.run;
    if args.resume && args.journal.is_none() {
        eprintln!("--resume needs --journal FILE");
        exit(2);
    }
    if args.journal.is_some() && args.sweep.is_none() {
        eprintln!("--journal only applies to --sweep mode");
        exit(2);
    }
    if args.obs_out.is_some() && cfg.riders.obs_every.is_none() {
        eprintln!("--obs-out needs --obs-every N");
        exit(2);
    }
    if cfg.riders.watch.is_some() && args.sweep.is_some() {
        eprintln!(
            "--watch only applies to single runs; sweep points always carry \
             per-detector alert counts in their journal rows"
        );
        exit(2);
    }
    // One build validates either mode: a sweep throws it away, and every
    // point builds the same system again.
    let rates = args.sweep.as_deref().unwrap_or_default();
    let checked = rates.iter().try_for_each(|&r| check_rate(r));
    let mut built = checked.and_then(|()| cfg.build()).unwrap_or_else(|e| {
        eprintln!("invalid configuration: {e}");
        exit(2);
    });
    if args.sweep.is_some() {
        run_sweep(&args, rates);
        return;
    }
    arm_tracer(&args, built.sys.net_mut());
    let mut watch_file = args.watch_out.as_ref().map(|path| {
        let mut f = create(path);
        let every = cfg
            .riders
            .watch
            .as_ref()
            .map_or(0, |(tuning, _)| tuning.every);
        let header = alerts_header_json(every);
        if writeln!(f, "{header}").and_then(|()| f.flush()).is_err() {
            eprintln!("could not write {path}");
            exit(1);
        }
        f
    });
    eprintln!("{cfg}");
    let mut report = run(built, cfg, &mut |event| {
        eprintln!("{event}");
        if let (RunEvent::Alert(alert), Some(f)) = (event, watch_file.as_mut()) {
            // Flushed per line so a reader tailing the file, or a run
            // killed mid-way, has every alert that fired.
            let _ = writeln!(f, "{}", alert.jsonl());
            let _ = f.flush();
        }
    });
    if let Some(line) = report.mem_text() {
        eprintln!("{line}");
    }
    print!("{}", report.text());

    // Every requested output is attempted; one that cannot be written turns
    // the exit status to 1 at the end.
    let mut written = true;
    let net = report.sys.net();

    // Deadlock forensics.
    if args.stall_report || args.stall_svg_path.is_some() {
        let stall = net.stall_report();
        if args.stall_report {
            print!("{}", stall.render_text());
        }
        if let Some(path) = &args.stall_svg_path {
            written &= write_artifact(path, stall_svg(net.topo(), &stall).as_bytes(), "");
        }
    }

    // The drained tracer: render the buffered Chrome trace, or flush JSONL.
    let tracer = &mut report.riders.tracer;
    if let Some(path) = &args.chrome_trace {
        let detail = format!(" ({} events)", tracer.len());
        written &= write_artifact(path, tracer.chrome_trace_json().as_bytes(), &detail);
    } else if args.trace.is_some() {
        tracer.flush();
    }
    if tracer.dropped() > 0 && args.trace_ring_cap.is_some() {
        // The ring a forensics capture arms by itself is *meant* to
        // overflow (it keeps a tail), so the warning only fires for
        // user-armed rings.
        eprintln!(
            "warning: trace ring overflowed; {} oldest events \
             dropped (raise --trace-ring-cap)",
            tracer.dropped()
        );
    }

    if let Some(summary) = &report.riders.profile {
        match &args.profile_out {
            Some(path) => {
                let detail = format!(" ({} packets profiled)", summary.packets);
                written &= write_artifact(path, summary.to_json().as_bytes(), &detail);
            }
            None => print!("{}", analyze_text(summary)),
        }
    }
    if cfg.riders.obs_every.is_some() {
        let out = report.obs_epochs_jsonl();
        match &args.obs_out {
            Some(path) => {
                let detail = format!(" ({} epochs)", report.riders.obs_epochs.len());
                written &= write_artifact(path, out.as_bytes(), &detail);
            }
            None => {
                let _ = std::io::stdout().lock().write_all(out.as_bytes());
            }
        }
    }
    // Telemetry summary and watch verdict, human-visible. The same JSON is
    // embedded in --json output below for machine consumption.
    print!("{}", report.rider_text());
    if let (Some(path), Some(w)) = (&args.watch_out, &report.riders.watcher) {
        eprintln!("wrote {path} ({} alert lines)", w.alerts().len());
    }

    if let Some(path) = &args.json {
        written &= write_artifact(path, report.json().as_bytes(), "");
    }
    if let Some(path) = &args.svg {
        let occ = net.occupancy();
        written &= write_artifact(path, topology_svg(net.topo(), &occ).as_bytes(), "");
    }
    if !written {
        exit(1);
    }
}
