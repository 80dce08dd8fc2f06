//! CLI entry point regenerating the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--jobs N] [--journal FILE [--resume]] [--out DIR] <id>... | all | list
//! ```
//!
//! `--jobs N` bounds the sweep engine's worker pool (default: all hardware
//! threads); results are bit-identical for every N. `--journal FILE` streams
//! finished sweep points to a JSONL file as they complete; adding `--resume`
//! re-opens that journal and skips every already-recorded point, so an
//! interrupted `repro all` can pick up where it left off.
//!
//! Every sweep point runs the online health monitor and its journal row
//! carries per-detector alert counts. To see the alert stream of a point
//! that fired, or capture its forensics bundle, re-run that point under
//! `simulate --watch-out FILE --watch-capture-dir DIR` with the row's
//! parameters.
//!
//! Exits 1 when an experiment ran but its `results/` JSON could not be
//! written (the remaining ids are still attempted).

use std::path::PathBuf;
use std::time::Instant;
use upp_bench::sweep::{default_jobs, SweepEngine};

fn main() {
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut journal: Option<PathBuf> = None;
    let mut resume = false;
    let mut jobs: Option<usize> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--resume" => resume = true,
            "--jobs" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--jobs needs a positive integer");
                        std::process::exit(2);
                    });
                jobs = Some(n);
            }
            "--journal" => {
                journal = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--journal needs a file path");
                    std::process::exit(2);
                })));
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }));
            }
            "list" => {
                for id in upp_bench::ALL_IDS {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(upp_bench::ALL_IDS.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            other => ids.push(other.to_string()),
        }
    }
    if resume && journal.is_none() {
        eprintln!("--resume needs --journal FILE");
        std::process::exit(2);
    }
    let jobs = jobs.map_or_else(default_jobs, Ok).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let mut engine = SweepEngine::new(jobs);
    if let Some(path) = &journal {
        engine = engine.open_journal(path, resume).unwrap_or_else(|e| {
            eprintln!("cannot open journal: {e}");
            std::process::exit(2);
        });
    }
    if ids.is_empty() {
        eprintln!(
            "usage: repro [--quick] [--jobs N] [--journal FILE [--resume]] [--out DIR] <id>... | all | list\n  ids: {}",
            upp_bench::ALL_IDS.join(", ")
        );
        std::process::exit(2);
    }
    let ctx = upp_bench::Context::new(quick, engine);
    let mut failed = false;
    for id in ids {
        let t0 = Instant::now();
        match upp_bench::run(&id, &ctx) {
            Some(result) => {
                println!("\n{}", result.markdown);
                match result.write_json(&out_dir) {
                    Ok(path) => eprintln!(
                        "[{id}] done in {:.1?}; data -> {}",
                        t0.elapsed(),
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("[{id}] done, but writing JSON failed: {e}");
                        failed = true;
                    }
                }
            }
            None => {
                eprintln!("unknown experiment id {id}; try `repro list`");
                std::process::exit(2);
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
