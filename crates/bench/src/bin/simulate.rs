//! A generic command-line driver for the simulator: pick a system, scheme,
//! traffic pattern, load and duration; get latency/throughput/recovery
//! statistics (and optionally an occupancy SVG, a flight-recorder trace,
//! telemetry epochs, or post-mortem deadlock forensics). Exits 1 when a
//! requested output file could not be written.
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
use std::path::Path;
use std::process::exit;
use upp_bench::sweep::{default_jobs, SweepEngine};
use upp_core::{UppConfig, UppStats};
use upp_noc::config::NocConfig;
use upp_noc::ni::ConsumePolicy;
use upp_noc::profile::SpanRecorder;
use upp_noc::topology::{ChipletSystemSpec, SystemKind};
use upp_noc::trace::Tracer;
use upp_noc::viz::{stall_svg, topology_svg};
use upp_tracetools::render::analyze_text;
use upp_tracetools::ProfileSummary;
use upp_workloads::runner::{build_system, SchemeKind, SweepWindows};
use upp_workloads::synthetic::{Pattern, SyntheticTraffic};

struct Args {
    system: SystemKind,
    scheme: SchemeKind,
    pattern: Pattern,
    rate: f64,
    cycles: u64,
    vcs: usize,
    faults: usize,
    seed: u64,
    threshold: u64,
    svg: Option<String>,
    trace: Option<String>,
    chrome_trace: Option<String>,
    trace_ring_cap: Option<usize>,
    profile: bool,
    profile_out: Option<String>,
    obs: bool,
    obs_every: Option<u64>,
    obs_out: Option<String>,
    watch: bool,
    watch_every: u64,
    watch_out: Option<String>,
    watch_capture_dir: Option<String>,
    mem: bool,
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
                                             fire — tailable with `upp-trace\n\
                                             live --follow`; implies --watch)\n\
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
         --resume                            reopen the journal and skip points\n\
                                             it already records; errors out if\n\
                                             the journal was recorded under a\n\
                                             different sweep config"
    );
    exit(2);
}

fn parse() -> Args {
    let mut a = Args {
        system: SystemKind::Baseline,
        scheme: SchemeKind::Upp(UppConfig::default()),
        pattern: Pattern::UniformRandom,
        rate: 0.05,
        cycles: 50_000,
        vcs: 1,
        faults: 0,
        seed: 1,
        threshold: 20,
        svg: None,
        trace: None,
        chrome_trace: None,
        trace_ring_cap: None,
        profile: false,
        profile_out: None,
        obs: false,
        obs_every: None,
        obs_out: None,
        watch: false,
        watch_every: 200,
        watch_out: None,
        watch_capture_dir: None,
        mem: false,
        stall_report: false,
        stall_svg_path: None,
        json: None,
        sweep: None,
        jobs: None,
        journal: None,
        resume: false,
    };
    let mut scheme_name = "upp".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--system" => {
                let v = val();
                a.system = match v.as_str() {
                    "baseline" => SystemKind::Baseline,
                    "large" => SystemKind::Large,
                    "b2" => SystemKind::BoundaryCount(2),
                    "b8" => SystemKind::BoundaryCount(8),
                    other => {
                        let Some(dims) = other.strip_prefix("grid:") else {
                            usage()
                        };
                        let Some((c, r)) = dims.split_once('x') else {
                            usage()
                        };
                        let (Ok(cols), Ok(rows)) = (c.parse::<u16>(), r.parse::<u16>()) else {
                            usage()
                        };
                        // Reject degenerate/overflowing grids now, with the
                        // spec's own message, rather than panicking later.
                        if let Err(e) = ChipletSystemSpec::grid(cols, rows) {
                            eprintln!("invalid --system {other}: {e}");
                            exit(2);
                        }
                        SystemKind::Grid { cols, rows }
                    }
                }
            }
            "--scheme" => scheme_name = val(),
            "--pattern" => {
                let v = val();
                a.pattern = Pattern::ALL
                    .into_iter()
                    .chain(Pattern::EXTRA)
                    .find(|p| p.label() == v)
                    .unwrap_or_else(|| usage());
            }
            "--rate" => a.rate = val().parse().unwrap_or_else(|_| usage()),
            "--cycles" => a.cycles = val().parse().unwrap_or_else(|_| usage()),
            "--vcs" => a.vcs = val().parse().unwrap_or_else(|_| usage()),
            "--faults" => a.faults = val().parse().unwrap_or_else(|_| usage()),
            "--threshold" => a.threshold = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage()),
            "--svg" => a.svg = Some(val()),
            "--trace" => a.trace = Some(val()),
            "--chrome-trace" => a.chrome_trace = Some(val()),
            "--trace-ring-cap" => {
                let n: usize = val().parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                a.trace_ring_cap = Some(n);
            }
            "--profile" => a.profile = true,
            "--profile-out" => {
                a.profile = true;
                a.profile_out = Some(val());
            }
            "--obs" => a.obs = true,
            "--obs-every" => {
                a.obs = true;
                let n: u64 = val().parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    eprintln!(
                        "--obs-every must be at least 1 cycle: 0 would never cut \
                         an epoch (use 1 to snapshot every cycle)"
                    );
                    exit(2);
                }
                a.obs_every = Some(n);
            }
            "--obs-out" => a.obs_out = Some(val()),
            "--watch" => a.watch = true,
            "--watch-every" => {
                a.watch = true;
                let n: u64 = val().parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    eprintln!(
                        "--watch-every must be at least 1 cycle: 0 would never \
                         evaluate the detectors"
                    );
                    exit(2);
                }
                a.watch_every = n;
            }
            "--watch-out" => {
                a.watch = true;
                a.watch_out = Some(val());
            }
            "--watch-capture-dir" => {
                a.watch = true;
                a.watch_capture_dir = Some(val());
            }
            "--mem" => a.mem = true,
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
            "--jobs" => {
                let n: usize = val().parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                a.jobs = Some(n);
            }
            "--journal" => a.journal = Some(val()),
            "--resume" => a.resume = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    a.scheme = match scheme_name.as_str() {
        "upp" => SchemeKind::Upp(UppConfig::with_threshold(a.threshold)),
        "composable" => SchemeKind::Composable,
        "remote" => SchemeKind::RemoteControl,
        "none" => SchemeKind::None,
        _ => usage(),
    };
    a
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

/// An offered rate the traffic generator can honour: an NI injects at most
/// one flit per cycle, and against a NaN the `>=` test in
/// `SyntheticTraffic::tick` never skips a core, so every one offers a
/// packet every cycle.
fn check_rate(rate: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&rate) {
        Ok(())
    } else {
        Err(format!("rate {rate} is outside 0.0..=1.0 flits/cycle/node"))
    }
}

/// The system and network configuration the flags ask for; exits 2 with
/// the reason when the chosen scheme cannot run them or an offered rate
/// (`--rate`, or any `--sweep` entry) is out of range.
fn system_config(args: &Args) -> (ChipletSystemSpec, NocConfig) {
    let spec = ChipletSystemSpec::of_kind(args.system);
    let cfg = NocConfig::default().with_vcs_per_vnet(args.vcs);
    let rates = args
        .sweep
        .as_deref()
        .unwrap_or(std::slice::from_ref(&args.rate));
    let checked = rates
        .iter()
        .try_for_each(|&r| check_rate(r))
        .and_then(|()| args.scheme.check_config(&cfg))
        .and_then(|()| args.scheme.check_system(&spec, args.faults, args.seed));
    if let Err(e) = checked {
        eprintln!("invalid configuration: {e}");
        exit(2);
    }
    (spec, cfg)
}

/// `--sweep` mode: fan the rate list over the sweep engine and print one
/// row per point. Stats come out bit-identical for any `--jobs` value.
fn run_sweep(args: &Args, rates: &[f64]) {
    let (spec, cfg) = system_config(args);
    let windows = SweepWindows {
        warmup: (args.cycles / 10).max(1),
        measure: args.cycles,
    };
    // Everything that determines a point's value goes into the journal's
    // config fingerprint (the rate list deliberately does not: extending a
    // sweep with more rates under --resume is the intended use). Notably the
    // system is *not* part of the per-point keys, so without this check a
    // resumed journal from a different --system would silently serve stale
    // points.
    // The trailing "|alerts1" is the point-schema version: sweep rows grew
    // the per-detector alert counts, so journals recorded before that are
    // rejected up front instead of silently mixing row shapes.
    let fingerprint = upp_bench::sweep::config_fingerprint(&format!(
        "simulate|{:?}|{:?}|{}|vcs{}|f{}|w{}+{}|s{}|alerts1",
        args.system,
        args.scheme,
        args.pattern.label(),
        args.vcs,
        args.faults,
        windows.warmup,
        windows.measure,
        args.seed
    ));
    let mut engine = SweepEngine::new(args.jobs.unwrap_or_else(default_jobs));
    if let Some(path) = &args.journal {
        engine = engine
            .open_journal(Path::new(path), args.resume, Some(&fingerprint))
            .unwrap_or_else(|e| {
                eprintln!("cannot open journal: {e}");
                exit(2);
            });
    }
    eprintln!(
        "sweep: system {:?} | scheme {} | pattern {} | {} rates | {} workers",
        args.system,
        args.scheme.label(),
        args.pattern.label(),
        rates.len(),
        engine.jobs()
    );
    let points = engine.sweep_rates(
        "cli",
        &spec,
        &cfg,
        &args.scheme,
        args.faults,
        args.pattern,
        rates,
        windows,
        args.seed,
    );
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

fn main() {
    let args = parse();
    if args.resume && args.journal.is_none() {
        eprintln!("--resume needs --journal FILE");
        exit(2);
    }
    if args.journal.is_some() && args.sweep.is_none() {
        eprintln!("--journal only applies to --sweep mode");
        exit(2);
    }
    if args.obs_out.is_some() && args.obs_every.is_none() {
        eprintln!("--obs-out needs --obs-every N");
        exit(2);
    }
    if args.watch && args.sweep.is_some() {
        eprintln!(
            "--watch only applies to single runs; sweep points always carry \
             per-detector alert counts in their journal rows"
        );
        exit(2);
    }
    if let Some(rates) = args.sweep.clone() {
        run_sweep(&args, &rates);
        return;
    }
    let (spec, cfg) = system_config(&args);
    let built = build_system(
        &spec,
        cfg,
        &args.scheme,
        args.faults,
        args.seed,
        ConsumePolicy::Immediate { latency: 1 },
    );
    let mut sys = built.sys;
    if args.obs || args.watch {
        // The watcher reads cumulative telemetry, so the registry must be
        // live under --watch too — but the "obs" summary and JSON field
        // stay keyed to --obs alone, keeping golden-pinned payloads
        // byte-identical.
        sys.net_mut().enable_obs();
    }

    // Flight recorder: a Chrome trace buffers in memory (bounded by
    // --trace-ring-cap when given); a JSONL trace streams straight to disk;
    // a bare --trace-ring-cap arms an in-memory ring for post-mortems.
    let mut auto_ring = false;
    if args.chrome_trace.is_some() {
        if args.trace.is_some() {
            eprintln!("--chrome-trace takes precedence over --trace; JSONL output disabled");
        }
        sys.net_mut().set_tracer(match args.trace_ring_cap {
            Some(cap) => Tracer::ring(cap),
            None => Tracer::chrome(),
        });
    } else if let Some(path) = &args.trace {
        if args.trace_ring_cap.is_some() {
            eprintln!("--trace-ring-cap only bounds in-memory traces; ignored with --trace");
        }
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("could not create {path}: {e}");
            exit(1);
        });
        sys.net_mut()
            .set_tracer(Tracer::jsonl(Box::new(std::io::BufWriter::new(file))));
    } else if let Some(cap) = args.trace_ring_cap {
        sys.net_mut().set_tracer(Tracer::ring(cap));
    } else if args.watch_capture_dir.is_some() {
        // A forensics capture wants a trace tail even though the user
        // armed no tracer: keep a small ring so the bundle has the last
        // few thousand events leading up to the critical alert.
        auto_ring = true;
        sys.net_mut().set_tracer(Tracer::ring(4096));
    }
    // The latency profiler rides inside the tracer alongside any sink.
    let mut profile = if args.profile {
        sys.net_mut()
            .tracer_mut()
            .set_profiler(Some(Box::new(SpanRecorder::new())));
        Some(ProfileSummary::new(
            format!("{:?}", args.system),
            args.scheme.label(),
        ))
    } else {
        None
    };
    // Folds finished spans into the summary as the run progresses, so long
    // profiled runs never hold more than a window of spans in memory.
    let drain_spans = |sys: &mut upp_noc::sim::System, summary: &mut Option<ProfileSummary>| {
        if let Some(s) = summary.as_mut() {
            if let Some(p) = sys.net_mut().tracer_mut().profiler_mut() {
                if p.finished().len() >= 4096 {
                    for span in p.drain_finished() {
                        s.absorb_span(&span);
                    }
                }
            }
        }
    };
    // Telemetry epochs, collected as deterministic single-line JSON, and
    // the online health monitor. Both consume the same epoch boundary: a
    // due boundary calls `observe()` exactly once, so the sampled-gauge
    // stream is byte-identical whether either, both or neither is on.
    let mut obs_lines: Vec<String> = Vec::new();
    let mut watch = args.watch.then(|| {
        let mut w = upp_noc::watch::Watcher::new(upp_noc::watch::WatchConfig {
            every: args.watch_every,
            ..upp_noc::watch::WatchConfig::default()
        });
        w.arm(sys.net());
        w
    });
    let mut watch_file = args.watch_out.as_ref().map(|path| {
        let mut f = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("could not create {path}: {e}");
            exit(1);
        });
        let header = upp_noc::watch::alerts_header_json(args.watch_every);
        if writeln!(f, "{header}").and_then(|()| f.flush()).is_err() {
            eprintln!("could not write {path}");
            exit(1);
        }
        f
    });
    let epoch_tick = |sys: &mut upp_noc::sim::System,
                      obs_lines: &mut Vec<String>,
                      watch: &mut Option<upp_noc::watch::Watcher>,
                      watch_file: &mut Option<std::fs::File>| {
        let c = sys.net().cycle();
        if c == 0 {
            return;
        }
        let obs_due = args.obs_every.is_some_and(|e| c.is_multiple_of(e));
        let watch_due = watch.is_some() && c.is_multiple_of(args.watch_every);
        if !obs_due && !watch_due {
            return;
        }
        // Sampled gauges (queue depths, table occupancy) refresh at the
        // epoch boundary; exact counters have been accumulating all along.
        sys.observe();
        if obs_due {
            let snap = sys.net_mut().obs_mut().take_epoch(c);
            obs_lines.push(sys.net().obs().epoch_json(&snap));
        }
        if !watch_due {
            return;
        }
        let w = watch.as_mut().expect("watch_due implies a watcher");
        let tick = w.feed(sys.net());
        for alert in &tick.alerts {
            let line = alert.jsonl();
            eprintln!("[watch] {line}");
            if let Some(f) = watch_file.as_mut() {
                // Flushed per line so `upp-trace live --follow` sees
                // alerts as they fire.
                let _ = writeln!(f, "{line}");
                let _ = f.flush();
            }
        }
        if tick.capture {
            match &args.watch_capture_dir {
                Some(dir) => {
                    match upp_noc::watch::capture_forensics(sys, std::path::Path::new(dir), c) {
                        Ok(b) => eprintln!(
                            "[watch] critical: captured forensics bundle \
                             ({} files) in {dir}",
                            b.files.len()
                        ),
                        Err(e) => {
                            eprintln!("[watch] could not capture forensics in {dir}: {e}")
                        }
                    }
                }
                None => eprintln!(
                    "[watch] critical alert; pass --watch-capture-dir DIR \
                     to auto-capture forensics"
                ),
            }
        }
    };

    let mut traffic = SyntheticTraffic::new(sys.net().topo(), args.pattern, args.rate, args.seed);
    eprintln!(
        "system {:?} | scheme {} | pattern {} | rate {} | {} cycles | {} VCs | {} faults",
        args.system,
        args.scheme.label(),
        args.pattern.label(),
        args.rate,
        args.cycles,
        args.vcs,
        args.faults
    );
    for cycle in 0..args.cycles {
        traffic.tick(&mut sys);
        sys.step();
        epoch_tick(&mut sys, &mut obs_lines, &mut watch, &mut watch_file);
        drain_spans(&mut sys, &mut profile);
        if sys.net().stalled() {
            eprintln!("network stalled (deadlock) at cycle {cycle}");
            break;
        }
    }
    let outcome = if profile.is_some() || args.obs_every.is_some() || watch.is_some() {
        // Manual drain loop so epoch cuts and span streaming continue
        // to the end; the zero-budget call afterwards just classifies the
        // final state. (Telemetry epochs in particular must land on exact
        // cycle boundaries, which fast-forwarding would step over.)
        for _ in 0..args.cycles {
            if sys.net().in_flight() == 0 || sys.net().stalled() {
                break;
            }
            sys.step();
            epoch_tick(&mut sys, &mut obs_lines, &mut watch, &mut watch_file);
            drain_spans(&mut sys, &mut profile);
        }
        sys.run_until_drained(0)
    } else {
        sys.run_until_drained(args.cycles)
    };
    // Memory-footprint report (routers + NIs + arena + calendar).
    // Gated on --mem so runs without it — including every golden-pinned
    // payload — keep their exact byte streams.
    let mem_report = args.mem.then(|| sys.net().mem_report());
    if let Some(m) = &mem_report {
        if sys.net().obs().is_enabled() {
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
        eprintln!(
            "[mem] {} B total | {} B/router ({} routers {} B, NIs {} B) | \
             arena {} B ({} live / {} high-water / {} slots) | calendar {} B",
            m.total_bytes,
            m.bytes_per_router,
            sys.net().topo().num_nodes(),
            m.routers_bytes,
            m.nis_bytes,
            m.arena_bytes,
            m.arena_live,
            m.arena_high_water,
            m.arena_slots,
            m.calendar_bytes
        );
    }
    // Final telemetry sample: refresh the sampled gauges once so the
    // summary reflects the end state, then cut the summary. Exact counters
    // are unaffected (they accumulate at the event sites, fast-forward or
    // not).
    let obs_summary = if args.obs {
        sys.observe();
        Some(sys.net().obs().summary_json(sys.net().cycle()))
    } else {
        None
    };

    let stats = sys.net().stats().clone();
    let nodes = sys.net().topo().num_endpoints();
    println!("outcome:            {outcome:?}");
    println!(
        "packets delivered:  {} / {} created",
        stats.packets_ejected, stats.packets_created
    );
    println!("flits delivered:    {}", stats.flits_ejected);
    println!("network latency:    {:.2} cycles", stats.avg_net_latency());
    println!(
        "queueing latency:   {:.2} cycles",
        stats.avg_queue_latency()
    );
    println!("worst latency:      {} cycles", stats.max_latency);
    println!(
        "throughput:         {:.4} flits/cycle/node",
        stats.throughput(sys.net().cycle(), nodes)
    );
    println!("control-signal hops: {}", stats.control_hops);
    println!("bypass (popup) hops: {}", stats.bypass_hops);
    let upp_stats = built.upp_stats.as_ref().map(UppStats::snapshot);
    if let Some(s) = upp_stats {
        println!(
            "UPP: {} upward packets, {} popups ({} partial), {} stops, {} acks dropped",
            s.upward_packets, s.popups_completed, s.partial_popups, s.stops_sent, s.acks_dropped
        );
        if s.popups_completed > 0 {
            let n = s.popups_completed as f64;
            println!(
                "UPP mean recovery:  {:.1} cycles (detection -> delivered)",
                s.avg_recovery_latency()
            );
            println!(
                "UPP stage split:    wait-ack {:.1} | locate {:.1} | pop {:.1} cycles",
                s.wait_ack_cycles as f64 / n,
                s.locate_cycles as f64 / n,
                s.pop_cycles as f64 / n
            );
        }
    }

    // Every requested output is attempted; one that cannot be written turns
    // the exit status to 1 at the end.
    let mut written = true;

    // Deadlock forensics.
    if args.stall_report || args.stall_svg_path.is_some() {
        let report = sys.stall_report();
        if args.stall_report {
            print!("{}", report.render_text());
        }
        if let Some(path) = &args.stall_svg_path {
            written &= write_artifact(path, stall_svg(sys.net().topo(), &report).as_bytes(), "");
        }
    }

    // Drain the tracer: flush JSONL, or render the buffered Chrome trace.
    let mut tracer = sys.net_mut().set_tracer(Tracer::disabled());
    if let Some(path) = &args.chrome_trace {
        written &= write_artifact(
            path,
            tracer.chrome_trace_json().as_bytes(),
            &format!(" ({} events)", tracer.len()),
        );
    } else if args.trace.is_some() {
        tracer.flush();
    }
    let trace_dropped = tracer.dropped();
    if trace_dropped > 0 && !auto_ring {
        // The watch auto-ring is *meant* to overflow (it keeps a tail for
        // forensics), so the warning only fires for user-armed rings.
        eprintln!(
            "warning: trace ring overflowed; {trace_dropped} oldest events \
             dropped (raise --trace-ring-cap)"
        );
    }

    // Finish the latency profile: the recorder's per-router/per-link
    // counters fold in exactly once, here.
    if let (Some(summary), Some(mut rec)) = (profile.as_mut(), tracer.set_profiler(None)) {
        summary.absorb_recorder(&mut rec);
    }
    if let Some(summary) = &profile {
        match &args.profile_out {
            Some(path) => {
                written &= write_artifact(
                    path,
                    summary.to_json().as_bytes(),
                    &format!(" ({} packets profiled)", summary.packets),
                );
            }
            None => print!("{}", analyze_text(summary)),
        }
    }

    // Telemetry epochs (JSONL: header line, then one line per epoch).
    if args.obs_every.is_some() {
        let mut out = sys.net().obs().epochs_header_json();
        out.push('\n');
        for line in &obs_lines {
            out.push_str(line);
            out.push('\n');
        }
        match &args.obs_out {
            Some(path) => {
                written &= write_artifact(
                    path,
                    out.as_bytes(),
                    &format!(" ({} epochs)", obs_lines.len()),
                );
            }
            None => {
                let mut stdout = std::io::stdout().lock();
                let _ = stdout.write_all(out.as_bytes());
            }
        }
    }
    // Telemetry summary, human-visible. The same JSON is embedded in
    // --json output below for machine consumption.
    if let Some(summary) = &obs_summary {
        println!("telemetry summary:");
        println!("{summary}");
    }
    // Watch verdict, human-visible; the alert lines themselves streamed
    // to stderr (and --watch-out) as they fired.
    if let Some(w) = &watch {
        if w.total_raised() == 0 {
            println!(
                "watch: healthy ({} detectors, 0 alerts)",
                upp_noc::watch::NUM_DETECTORS
            );
        } else {
            println!("watch: {} alerts raised", w.total_raised());
            for (d, n) in upp_noc::watch::Detector::ALL.iter().zip(w.alert_counts()) {
                if n > 0 {
                    println!("  {:<22} {n}", d.name());
                }
            }
        }
        if let Some(path) = &args.watch_out {
            eprintln!("wrote {path} ({} alert lines)", w.alerts().len());
        }
    }

    // Machine-readable final stats.
    if let Some(path) = &args.json {
        let net_json =
            serde_json::to_string_pretty(&stats).expect("stats serialization is infallible");
        let upp_json = match &upp_stats {
            Some(s) => serde_json::to_string_pretty(s).expect("stats serialization is infallible"),
            None => "null".to_string(),
        };
        // The "obs" key appears only when telemetry ran: runs without
        // --obs keep the exact historical payload (pinned by the
        // determinism goldens).
        let obs_field = match &obs_summary {
            Some(s) => format!(",\n  \"obs\": {s}"),
            None => String::new(),
        };
        // The "mem" key appears only under --mem, for the same
        // golden-compatibility reason.
        let mem_field = match &mem_report {
            Some(m) => format!(
                ",\n  \"mem\": {}",
                serde_json::to_string(m).expect("mem report serialization is infallible")
            ),
            None => String::new(),
        };
        // Same golden-compatibility rule for the "watch" key: absent
        // unless it was explicitly requested.
        let watch_field = match &watch {
            Some(w) => format!(",\n  \"watch\": {}", w.counts_json()),
            None => String::new(),
        };
        let payload = format!(
            "{{\n  \"outcome\": \"{outcome:?}\",\n  \"cycles\": {},\n  \"endpoints\": {nodes},\n  \"trace_dropped\": {trace_dropped},\n  \"net\": {net_json},\n  \"upp\": {upp_json}{obs_field}{mem_field}{watch_field}\n}}\n",
            sys.net().cycle()
        );
        written &= write_artifact(path, payload.as_bytes(), "");
    }

    if let Some(path) = &args.svg {
        let occ = sys.net().occupancy();
        written &= write_artifact(path, topology_svg(sys.net().topo(), &occ).as_bytes(), "");
    }
    if !written {
        exit(1);
    }
}
