//! Alert-stream golden guard: the committed `upp-alerts/v1` fixture pins
//! the watcher's byte-exact output on a seeded deadlock run, across the
//! active-set scheduler and the `UPP_ALWAYS_TICK=1` reference kernel. Like
//! `scheduler_golden.rs`, this test deliberately has **no**
//! `UPP_UPDATE_GOLDENS` refresh path — a failure means the watcher (or the
//! simulation underneath it) changed behaviour, and the fix is in the code,
//! never in the golden.
//!
//! The fixture was recorded by:
//!
//! ```text
//! simulate --scheme none --pattern hotspot --rate 0.25 --cycles 6000 \
//!          --seed 7 --watch-every 100 --watch-out goldens/upp_alerts.jsonl
//! ```
//!
//! (`--watch-every 100` because the wedge-to-stall window on this run is
//! ~600 cycles: the escalate threshold needs 4 consecutive unhealthy
//! epochs, which the 200-cycle default cannot fit.)

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/upp_alerts.jsonl");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed golden {}: {e}", path.display()))
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("upp-watch-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Runs `simulate <args> --watch-every 100 --watch-out` and returns the
/// alert stream bytes. `always_tick` selects the reference scheduler in
/// the child's environment (never this process's).
fn watch_stream(args: &[&str], out_name: &str, always_tick: bool) -> String {
    let out = tmp_path(out_name);
    let _ = std::fs::remove_file(&out);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_simulate"));
    if always_tick {
        cmd.env("UPP_ALWAYS_TICK", "1");
    } else {
        cmd.env_remove("UPP_ALWAYS_TICK");
    }
    let status = cmd
        .args(args)
        .args(["--watch-every", "100", "--watch-out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("simulate binary runs");
    assert!(status.success(), "simulate {args:?} failed: {status}");
    std::fs::read_to_string(&out).expect("simulate wrote the alert stream")
}

const DEADLOCK: &[&str] = &[
    "--scheme",
    "none",
    "--pattern",
    "hotspot",
    "--rate",
    "0.25",
    "--cycles",
    "6000",
    "--seed",
    "7",
];

#[test]
fn alert_stream_matches_committed_golden() {
    let expected = golden();
    // The golden is a real stream: header plus at least one raise, one
    // critical escalate and one clear (guards against a truncated fixture
    // silently weakening this test).
    assert!(
        expected.contains("\"schema\":\"upp-alerts/v1\""),
        "{expected}"
    );
    for needle in [
        "\"event\":\"raise\"",
        "\"event\":\"escalate\"",
        "\"event\":\"clear\"",
    ] {
        assert!(
            expected.contains(needle),
            "fixture lost {needle}:\n{expected}"
        );
    }
    let got = watch_stream(DEADLOCK, "serial.jsonl", false);
    assert!(
        got == expected,
        "alert stream diverged from the committed golden (no refresh path — \
         fix the watcher).\n--- golden ---\n{expected}\n--- got ---\n{got}"
    );
}

#[test]
fn alert_stream_is_scheduler_invariant() {
    let expected = golden();
    let off = watch_stream(DEADLOCK, "always_tick.jsonl", true);
    assert!(
        off == expected,
        "UPP_ALWAYS_TICK=1 alert stream diverged from the committed \
         golden.\n--- golden ---\n{expected}\n--- always tick ---\n{off}"
    );
}

/// A healthy run's stream is exactly the header line: zero alert records,
/// byte-stable, so `--watch` can be left on in scripted pipelines without
/// polluting their output.
#[test]
fn clean_run_stream_is_header_only() {
    let clean: &[&str] = &[
        "--scheme",
        "upp",
        "--pattern",
        "transpose",
        "--rate",
        "0.10",
        "--cycles",
        "4000",
        "--seed",
        "7",
    ];
    let got = watch_stream(clean, "clean.jsonl", false);
    assert_eq!(
        got, "{\"upp_alerts\":1,\"schema\":\"upp-alerts/v1\",\"every\":100}\n",
        "clean run should emit the header and nothing else"
    );
}
