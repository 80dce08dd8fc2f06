//! CLI entry point regenerating the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--jobs N] [--journal FILE [--resume]] [--out DIR] \
//!       [--watch] [--watch-out FILE] [--watch-capture-dir DIR] <id>... | all | list
//! ```
//!
//! `--jobs N` bounds the sweep engine's worker pool (default: all hardware
//! threads); results are bit-identical for every N. `--journal FILE` streams
//! finished sweep points to a JSONL file as they complete; adding `--resume`
//! re-opens that journal and skips every already-recorded point, so an
//! interrupted `repro all` can pick up where it left off.
//!
//! Every sweep point runs the online health monitor and its journal row
//! carries per-detector alert counts. `--watch` additionally echoes a
//! per-point summary to stderr as alerting points complete;
//! `--watch-out FILE` streams each point's `upp-alerts/v1` lines (grouped
//! under `{"upp_alerts_point":1,...}` context lines; group order follows
//! completion order, so it depends on `--jobs`); `--watch-capture-dir DIR`
//! auto-captures a forensics bundle into a per-point subdirectory when a
//! point crosses critical. Journal-resumed points are not re-run and thus
//! contribute no alert lines.

use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut journal: Option<PathBuf> = None;
    let mut resume = false;
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
                upp_bench::sweep::set_default_jobs(n);
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
            "--watch" => upp_workloads::runner::set_watch_echo(true),
            "--watch-out" => {
                let path = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--watch-out needs a file path");
                    std::process::exit(2);
                }));
                if let Err(e) = upp_workloads::runner::set_watch_out(&path) {
                    eprintln!("cannot open {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
            "--watch-capture-dir" => {
                let dir = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--watch-capture-dir needs a directory");
                    std::process::exit(2);
                }));
                upp_workloads::runner::set_watch_capture_dir(&dir);
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
    // No fingerprint: a repro journal is shared across experiments, whose
    // full config (windows, rates, scheme) is already baked into the point
    // keys — stale reuse is impossible there.
    match upp_bench::sweep::configure_journal(journal.clone(), resume, None) {
        Ok(n) => {
            if let Some(j) = &journal {
                if resume {
                    eprintln!(
                        "[journal] resuming from {} ({n} points recorded)",
                        j.display()
                    );
                } else {
                    eprintln!("[journal] streaming points to {}", j.display());
                }
            }
        }
        Err(e) => {
            eprintln!("cannot open journal: {e}");
            std::process::exit(2);
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: repro [--quick] [--jobs N] [--journal FILE [--resume]] [--out DIR] [--watch] [--watch-out FILE] [--watch-capture-dir DIR] <id>... | all | list\n  ids: {}",
            upp_bench::ALL_IDS.join(", ")
        );
        std::process::exit(2);
    }
    for id in ids {
        let t0 = Instant::now();
        match upp_bench::run(&id, quick) {
            Some(result) => {
                println!("\n{}", result.markdown);
                match result.write_json(&out_dir) {
                    Ok(path) => eprintln!(
                        "[{id}] done in {:.1?}; data -> {}",
                        t0.elapsed(),
                        path.display()
                    ),
                    Err(e) => eprintln!("[{id}] done, but writing JSON failed: {e}"),
                }
            }
            None => {
                eprintln!("unknown experiment id {id}; try `repro list`");
                std::process::exit(2);
            }
        }
    }
}
