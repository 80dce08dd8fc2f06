//! Exhaustive model-checking CLI for the popup protocol.
//!
//! ```text
//! upp-check explore --routers N --queue-depth D --bound B
//!                   [--threshold T] [--ni-slots S] [--circuit-cap C]
//!                   [--chan-cap K] [--mutation M] [--no-symmetry]
//!                   [--max-states N] [--stats] [--dot FILE]
//!                   [--artifact FILE]
//! upp-check replay FILE
//! ```
//!
//! `explore` exhausts the reachable space of the abstract popup model and
//! checks bounded recovery and livelock freedom; on a violation it prints
//! (and with `--artifact`, writes) a counterexample artifact whose
//! embedded scenario `upp-check replay` — or `upp-verify`'s bridge —
//! re-executes in the full simulator. Exit codes: 0 both properties hold,
//! 3 violation found, 4 replay contradicts the artifact's prediction,
//! 2 usage error (an unknown subcommand or flag is named on stderr before
//! the usage text).

use std::process::ExitCode;

use upp_check::artifact::{clean_artifact, livelock_artifact, recovery_artifact};
use upp_check::explore::explore;
use upp_check::model::{ModelCfg, Mutation};
use upp_check::props::{check_bounded_recovery, check_no_livelock};
use upp_verify::bridge::{replay_artifact, CheckArtifact};

struct ExploreOpts {
    cfg: ModelCfg,
    symmetry: bool,
    max_states: usize,
    stats: bool,
    dot: Option<String>,
    artifact: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: upp-check explore --routers N --queue-depth D --bound B \
         [--threshold T] [--ni-slots S] [--circuit-cap C] [--chan-cap K] \
         [--mutation never-expire-watchdog|skip-circuit-insert|drop-absorber|bounce-ack] \
         [--no-symmetry] [--max-states N] [--stats] [--dot FILE] [--artifact FILE]\n       \
         upp-check replay FILE"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("explore") => run_explore(parse_explore(&args[1..])),
        Some("replay") => match args.get(1) {
            Some(path) => run_replay(path),
            None => usage(),
        },
        Some(other) => {
            eprintln!("unknown subcommand {other}");
            usage()
        }
        None => usage(),
    }
}

fn parse_explore(args: &[String]) -> ExploreOpts {
    let mut o = ExploreOpts {
        cfg: ModelCfg::flagship(2),
        symmetry: true,
        max_states: 5_000_000,
        stats: false,
        dot: None,
        artifact: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage()).clone();
        match flag.as_str() {
            "--routers" => {
                o.cfg.routers = val().parse().unwrap_or_else(|_| usage());
                o.cfg.circuit_cap =
                    upp_core::protocol::circuit_capacity(o.cfg.routers as usize) as u8;
                o.cfg.chan_cap = o.cfg.routers;
            }
            "--queue-depth" => o.cfg.queue_depth = val().parse().unwrap_or_else(|_| usage()),
            "--bound" => o.cfg.bound = val().parse().unwrap_or_else(|_| usage()),
            "--threshold" => o.cfg.threshold = val().parse().unwrap_or_else(|_| usage()),
            "--ni-slots" => o.cfg.ni_slots = val().parse().unwrap_or_else(|_| usage()),
            "--circuit-cap" => o.cfg.circuit_cap = val().parse().unwrap_or_else(|_| usage()),
            "--chan-cap" => o.cfg.chan_cap = val().parse().unwrap_or_else(|_| usage()),
            "--mutation" => {
                o.cfg.mutation = Some(Mutation::parse(&val()).unwrap_or_else(|| usage()))
            }
            "--no-symmetry" => o.symmetry = false,
            "--max-states" => o.max_states = val().parse().unwrap_or_else(|_| usage()),
            "--stats" => o.stats = true,
            "--dot" => o.dot = Some(val()),
            "--artifact" => o.artifact = Some(val()),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    o
}

fn write_artifact(path: &Option<String>, artifact: &CheckArtifact) {
    if let Some(path) = path {
        std::fs::write(path, artifact.to_json()).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("artifact written to {path}");
    }
}

fn run_explore(o: ExploreOpts) -> ExitCode {
    let ex = match explore(&o.cfg, o.symmetry, o.max_states) {
        Ok(ex) => ex,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("model: {}", o.cfg.describe());
    println!(
        "explored {} states, {} transitions (symmetry {})",
        ex.stats.states,
        ex.stats.transitions,
        if o.symmetry { "on" } else { "off" }
    );
    if o.stats {
        println!("  max depth            {}", ex.stats.max_depth);
        println!(
            "  dedup ratio          {:.3} ({} hits)",
            ex.stats.dedup_ratio(),
            ex.stats.dedup_hits
        );
        println!("  fingerprint clashes  {}", ex.stats.fingerprint_collisions);
        println!("  channel-bound clips  {}", ex.stats.bound_hits);
        println!("  deadlock states      {}", ex.stats.deadlock_states);
        println!("  drained states       {}", ex.stats.drained_states);
    }
    if ex.stats.bound_hits > 0 {
        println!(
            "note: {} transition(s) clipped by --chan-cap; exhaustive only up to that bound",
            ex.stats.bound_hits
        );
    }
    if let Some(path) = &o.dot {
        if let Err(e) = std::fs::write(path, ex.to_dot()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("state graph written to {path}");
    }

    // Both verdicts are printed; the counterexample is the first
    // violated property's.
    let recovery = check_bounded_recovery(&ex);
    match &recovery {
        Ok(proof) => println!(
            "P1 bounded recovery: HOLDS — every state drains within {} transitions \
             ({} deadlock states covered, {} drained states)",
            proof.bound, proof.deadlock_states, proof.drained_states
        ),
        Err(v) => println!(
            "P1 bounded recovery: VIOLATED — {} reachable state(s) can never drain",
            v.count
        ),
    }
    let livelock = check_no_livelock(&ex);
    match &livelock {
        Ok(()) => println!("P2 no popup livelock: HOLDS — no non-progress cycle is reachable"),
        Err(v) => println!(
            "P2 no popup livelock: VIOLATED — non-progress cycle of length {} reachable",
            v.cycle.len()
        ),
    }
    let artifact = match (&recovery, &livelock) {
        (Ok(_), Ok(())) => {
            write_artifact(&o.artifact, &clean_artifact(&ex));
            return ExitCode::SUCCESS;
        }
        (Err(v), _) => recovery_artifact(&ex, v),
        (Ok(_), Err(v)) => livelock_artifact(&ex, v),
    };
    print_trace(&artifact);
    write_artifact(&o.artifact, &artifact);
    ExitCode::from(3)
}

fn print_trace(artifact: &CheckArtifact) {
    println!("counterexample ({} steps):", artifact.steps.len());
    for (i, step) in artifact.steps.iter().enumerate() {
        println!("  {:>3}. {:<22} {}", i + 1, step.transition, step.state);
    }
    println!(
        "concrete replay: scheme {:?}, predicted outcome: {}",
        artifact.scenario.scheme, artifact.expected
    );
}

fn run_replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let artifact = match CheckArtifact::from_json(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {} artifact (model {}, mutation {}) through the concrete simulator...",
        artifact.property,
        artifact.model,
        artifact.mutation.as_deref().unwrap_or("none")
    );
    let report = replay_artifact(&artifact);
    println!("{}", report.summary());
    if report.confirmed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(4)
    }
}
