//! End-to-end smoke tests for the `upp-check` binary: exploration,
//! verdict reporting, exit codes, artifact emission, DOT dumps, and the
//! replay subcommand driving the full concrete simulator.

use std::path::PathBuf;
use std::process::Command;

fn upp_check() -> Command {
    Command::new(env!("CARGO_BIN_EXE_upp-check"))
}

/// `upp-check explore` on `routers/queue-depth/bound` plus `extra` args.
fn explore(model: [&str; 3], extra: &[&str]) -> std::process::Output {
    upp_check()
        .args(["explore", "--routers", model[0], "--queue-depth", model[1]])
        .args(["--bound", model[2]])
        .args(extra)
        .output()
        .expect("runs")
}

const FLAGSHIP: [&str; 3] = ["2", "2", "2"];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("upp-check-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn flagship_explore_verifies_both_properties() {
    let out = explore(FLAGSHIP, &["--stats"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit: {:?}\n{stdout}", out.status);
    assert!(stdout.contains("P1 bounded recovery: HOLDS"), "{stdout}");
    assert!(stdout.contains("P2 no popup livelock: HOLDS"), "{stdout}");
    assert!(stdout.contains("dedup ratio"), "{stdout}");
    assert!(stdout.contains("channel-bound clips  0"), "{stdout}");
}

#[test]
fn mutation_explore_exits_3_with_counterexample() {
    let out = explore(FLAGSHIP, &["--mutation", "drop-absorber"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "{stdout}");
    assert!(stdout.contains("VIOLATED"), "{stdout}");
    assert!(stdout.contains("counterexample ("), "{stdout}");
}

/// Both verdicts are printed even when the first fails: `bounce-ack`
/// cannot drain (P1) *and* churns signals forever (P2).
#[test]
fn bounce_ack_explore_reports_both_violations() {
    let out = explore(FLAGSHIP, &["--mutation", "bounce-ack"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "{stdout}");
    assert!(stdout.contains("P1 bounded recovery: VIOLATED"), "{stdout}");
    assert!(
        stdout.contains("P2 no popup livelock: VIOLATED"),
        "{stdout}"
    );
}

#[test]
fn dot_dump_is_valid_digraph() {
    let dot_path = tmp("graph.dot");
    let out = explore(
        ["2", "1", "1"],
        &["--dot", dot_path.to_str().expect("utf-8")],
    );
    assert!(out.status.success());
    let dot = std::fs::read_to_string(&dot_path).expect("dot written");
    assert!(dot.starts_with("digraph upp_check {"));
    assert!(dot.trim_end().ends_with('}'));
    assert!(dot.contains("->"), "graph has edges");
}

#[test]
fn emitted_artifact_replays_end_to_end() {
    let artifact_path = tmp("never_expire.json");
    let artifact = artifact_path.to_str().expect("utf-8");
    let out = explore(
        FLAGSHIP,
        &[
            "--mutation",
            "never-expire-watchdog",
            "--artifact",
            artifact,
        ],
    );
    assert_eq!(out.status.code(), Some(3));

    let out = upp_check()
        .arg("replay")
        .arg(&artifact_path)
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "replay must confirm the prediction: {stdout}"
    );
    assert!(
        stdout.contains("confirms the abstract prediction"),
        "{stdout}"
    );
}

#[test]
fn bad_usage_exits_2() {
    // An unknown word is named on stderr before the usage text.
    for (bad, named) in [
        (&["explore", "--routers", "seven"][..], ""),
        (&["explore", "--mutation", "make-it-worse"][..], ""),
        (&["replay"][..], ""),
        (&["frobnicate"][..], "unknown subcommand frobnicate"),
        (
            &["explore", "--frobnicate"][..],
            "unknown flag --frobnicate",
        ),
    ] {
        let out = upp_check().args(bad).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(named) && stderr.contains("usage:"),
            "args {bad:?}:\n{stderr}"
        );
    }
}
