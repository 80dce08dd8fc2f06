//! Adversarial verification CLI.
//!
//! ```text
//! verify campaign [--system mini|baseline|large|b2|b8|grid:CxR] [--points N]
//!                 [--seed-base S]
//!                 [--jobs J] [--horizon C] [--rate R] [--link-faults K]
//!                 [--throttles T] [--vcs V] [--max-cycles M]
//!                 [--schemes a,b,c] [--out DIR] [--shrink-evals E]
//! verify replay FILE
//! ```
//!
//! `campaign` sweeps seeded random (traffic, fault-plan) points, runs every
//! scheme differentially under the deadlock oracle, and — on failure —
//! shrinks the scenario to a minimal repro written as a JSON artifact that
//! `verify replay` re-executes exactly. An unknown subcommand or flag is
//! named on stderr before the usage text, and the exit code is 2.

use std::path::PathBuf;
use std::process::ExitCode;

use upp_bench::sweep::SweepEngine;
use upp_noc::config::NocConfig;
use upp_tracetools::{PhaseTotals, ProfileSummary};
use upp_verify::scenario::{random_scenario, scheme_kind, system_spec, CampaignParams};
use upp_verify::{oracle_for, run_differential, run_scenario, shrink, Scenario};
use upp_workloads::run::check_rate;

struct CampaignOpts {
    params: CampaignParams,
    points: usize,
    seed_base: u64,
    jobs: Option<usize>,
    schemes: Vec<String>,
    out: PathBuf,
    shrink_evals: usize,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        Self {
            params: CampaignParams::default(),
            points: 100,
            seed_base: 0,
            jobs: None,
            schemes: vec!["UPP".into(), "remote-control".into(), "composable".into()],
            out: PathBuf::from("verify-artifacts"),
            shrink_evals: 48,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: verify campaign [--system mini|baseline|large|b2|b8|grid:CxR] \
         [--points N] [--seed-base S] [--jobs J] [--horizon C] [--rate R] [--link-faults K] \
         [--throttles T] [--vcs V] [--max-cycles M] [--schemes a,b,c] \
         [--out DIR] [--shrink-evals E]\n       verify replay FILE"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("campaign") => campaign(parse_campaign(&args[1..])),
        Some("replay") => match args.get(1) {
            Some(path) => replay(path),
            None => usage(),
        },
        Some(other) => {
            eprintln!("unknown subcommand {other}");
            usage()
        }
        None => usage(),
    }
}

fn parse_campaign(args: &[String]) -> CampaignOpts {
    let mut o = CampaignOpts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage()).clone();
        match flag.as_str() {
            "--system" => o.params.system = val(),
            "--points" => o.points = val().parse().unwrap_or_else(|_| usage()),
            "--seed-base" => o.seed_base = val().parse().unwrap_or_else(|_| usage()),
            "--jobs" => o.jobs = Some(val().parse().unwrap_or_else(|_| usage())),
            "--horizon" => o.params.horizon = val().parse().unwrap_or_else(|_| usage()),
            "--rate" => o.params.rate = val().parse().unwrap_or_else(|_| usage()),
            "--link-faults" => o.params.link_faults = val().parse().unwrap_or_else(|_| usage()),
            "--throttles" => o.params.throttles = val().parse().unwrap_or_else(|_| usage()),
            "--vcs" => o.params.vcs_per_vnet = val().parse().unwrap_or_else(|_| usage()),
            "--max-cycles" => o.params.max_cycles = val().parse().unwrap_or_else(|_| usage()),
            "--schemes" => o.schemes = val().split(',').map(str::to_string).collect(),
            "--out" => o.out = PathBuf::from(val()),
            "--shrink-evals" => o.shrink_evals = val().parse().unwrap_or_else(|_| usage()),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    o
}

/// Exits 2 with the reason unless `system` names a system on which
/// `vcs_per_vnet` VCs per VNet can run under every scheme named in
/// `schemes` (the harness panics on what fails here).
fn check_config(system: &str, vcs_per_vnet: usize, schemes: &[&str]) {
    let cfg = NocConfig::default().with_vcs_per_vnet(vcs_per_vnet);
    let check = || -> Result<(), String> {
        let routers = system_spec(system)?.num_routers();
        for label in schemes {
            scheme_kind(label)
                .and_then(|kind| kind.check_config(&cfg, routers))
                .map_err(|e| format!("invalid configuration: {e}"))?;
        }
        Ok(())
    };
    if let Err(e) = check() {
        eprintln!("{e}");
        std::process::exit(2);
    }
}

/// Refuses a campaign no scheme can pass — the oracle would convict each
/// of them for the request: an offer probability that is not one
/// (`simulate` refuses the same rates in the same words), or a run bound
/// that ends before the traffic and the fault plan have.
fn check_params(p: &CampaignParams) -> Result<(), String> {
    check_rate(p.rate)?;
    if p.max_cycles <= p.horizon {
        return Err(format!(
            "--max-cycles {} must be greater than --horizon {}: traffic and faults \
             last until the horizon, and the run must outlive them to drain",
            p.max_cycles, p.horizon
        ));
    }
    Ok(())
}

/// Builds the seeded scenario for one campaign point (scheme left blank;
/// the differential runner fills it per scheme).
fn point_scenario(o: &CampaignOpts, seed: u64) -> Scenario {
    random_scenario(&o.params, seed).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn campaign(o: CampaignOpts) -> ExitCode {
    let engine = match o.jobs {
        Some(j) => SweepEngine::new(j),
        None => SweepEngine::new(upp_bench::sweep::default_jobs()),
    };
    let seeds: Vec<u64> = (0..o.points as u64).map(|i| o.seed_base + i).collect();
    let schemes: Vec<&str> = o.schemes.iter().map(String::as_str).collect();
    check_config(&o.params.system, o.params.vcs_per_vnet, &schemes);
    if let Err(e) = check_params(&o.params) {
        eprintln!("invalid campaign: {e}");
        return ExitCode::from(2);
    }
    eprintln!(
        "campaign: {} points on {} ({} schemes, {} jobs)",
        o.points,
        o.params.system,
        schemes.len(),
        engine.jobs()
    );
    let results = engine.map(&seeds, |_, &seed| {
        let base = point_scenario(&o, seed);
        let diff = run_differential(&base, &schemes, oracle_for(&base));
        (seed, base, diff)
    });

    // Aggregate latency attribution per scheme over the whole campaign:
    // even an all-green campaign should explain where each scheme's cycles
    // went (e.g. UPP's extra cycles sit in wait_ack/locate/pop, not in the
    // steady-state phases).
    let mut by_scheme: Vec<(String, ProfileSummary)> = Vec::new();
    for (_, _, diff) in &results {
        for report in &diff.reports {
            match by_scheme.iter_mut().find(|(s, _)| *s == report.scheme) {
                Some((_, agg)) => agg.merge(&report.profile),
                None => by_scheme.push((report.scheme.clone(), report.profile.clone())),
            }
        }
    }
    println!("latency attribution (cycles/packet over the campaign):");
    for (scheme, agg) in &by_scheme {
        let parts: Vec<String> = PhaseTotals::LABELS
            .iter()
            .zip(agg.phase_means())
            .map(|(l, m)| format!("{l} {m:.2}"))
            .collect();
        println!(
            "  {scheme:>14}: {} ({} packets, {} popups)",
            parts.join(" | "),
            agg.packets,
            agg.popups
        );
    }

    let mut failed_points = 0usize;
    let mut artifacts = Vec::new();
    for (seed, base, diff) in results {
        if diff.ok() {
            continue;
        }
        failed_points += 1;
        for f in &diff.failures {
            eprintln!("seed {seed}: {f}");
        }
        // Shrink per failing scheme and dump a replayable artifact.
        for report in &diff.reports {
            let Some(failure) = report.failure() else {
                continue;
            };
            let mut sc = base.clone();
            sc.scheme = report.scheme.clone();
            let reduced = shrink(
                &sc,
                |cand| run_scenario(cand, oracle_for(cand)).failure().is_some(),
                o.shrink_evals,
            );
            let mut minimal = reduced.scenario;
            minimal.failure = Some(failure);
            if let Err(e) = std::fs::create_dir_all(&o.out) {
                eprintln!("cannot create {}: {e}", o.out.display());
                return ExitCode::FAILURE;
            }
            let path = o.out.join(format!(
                "repro-{}-{}-s{seed}.json",
                minimal.system, minimal.scheme
            ));
            if let Err(e) = std::fs::write(&path, minimal.to_json()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "  shrunk {} traffic -> {}, {} fault events -> {} ({} evals): {}",
                reduced.traffic.0,
                reduced.traffic.1,
                reduced.faults.0,
                reduced.faults.1,
                reduced.evaluations,
                path.display()
            );
            artifacts.push(path);
        }
    }
    if failed_points == 0 {
        println!(
            "campaign OK: {} points x {} schemes, zero oracle violations, all multisets match",
            o.points,
            schemes.len()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "campaign FAILED: {failed_points}/{} points, {} repro artifact(s)",
            o.points,
            artifacts.len()
        );
        ExitCode::FAILURE
    }
}

fn replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sc = match Scenario::from_json(&text) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "replaying {}: system={} scheme={} seed={} traffic={} faults={}",
        path,
        sc.system,
        sc.scheme,
        sc.seed,
        sc.traffic.len(),
        sc.faults.len()
    );
    check_config(&sc.system, sc.vcs_per_vnet, &[&sc.scheme]);
    let report = run_scenario(&sc, oracle_for(&sc));
    let parts: Vec<String> = PhaseTotals::LABELS
        .iter()
        .zip(report.profile.phase_means())
        .map(|(l, m)| format!("{l} {m:.2}"))
        .collect();
    eprintln!(
        "latency attribution (cycles/packet): {} ({} packets profiled)",
        parts.join(" | "),
        report.profile.packets
    );
    match report.failure() {
        Some(f) => {
            println!("reproduced: {f}");
            ExitCode::SUCCESS
        }
        None => {
            println!(
                "did NOT reproduce: run drained healthily at cycle {}",
                report.end_cycle
            );
            ExitCode::FAILURE
        }
    }
}
