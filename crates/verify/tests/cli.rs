//! The `verify` binary's argument validation: a campaign whose parameters
//! no scheme could pass is refused (exit 2, the limit named) before any
//! scenario runs — not run, failed, shrunk and written out as a
//! "counterexample" to a request that was never valid.

use std::path::PathBuf;
use std::process::Command;

/// Runs `verify campaign --points 2 <args> --out DIR` and asserts exit 2,
/// every needle on stderr, and that `DIR` was not even created.
fn assert_campaign_rejected(case: &str, args: &[&str], needles: &[&str]) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("verify-cli-{case}"));
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_verify"))
        .args(["campaign", "--points", "2", "--jobs", "1"])
        .args(args)
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("verify binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "verify campaign {args:?} should exit 2, got {:?}:\n{stderr}",
        out.status
    );
    for n in needles {
        assert!(
            stderr.contains(n),
            "verify campaign {args:?} stderr should mention {n:?}:\n{stderr}"
        );
    }
    assert!(
        !out_dir.exists(),
        "verify campaign {args:?} wrote a repro artifact for an invalid request"
    );
}

#[test]
fn invalid_campaign_parameters_are_errors_naming_the_limit() {
    let range = "outside 0.0..=1.0 flits/cycle/node";
    // Used to run the network flat out and exit 0.
    assert_campaign_rejected("nan", &["--rate", "nan"], &["rate NaN", range]);
    // These two used to exit 1 with a shrunk repro per scheme.
    assert_campaign_rejected("two", &["--rate", "2"], &["rate 2", range]);
    assert_campaign_rejected(
        "short",
        &["--max-cycles", "0"],
        &["--max-cycles 0", "greater than --horizon 300"],
    );
    // A system `simulate --system` would refuse, in its words.
    assert_campaign_rejected(
        "grid0",
        &["--system", "grid:0x1"],
        &["invalid system \"grid:0x1\": grid must be at least 1x1"],
    );
    assert_campaign_rejected("name", &["--system", "mesh"], &["unknown system \"mesh\""]);
}

/// An unknown flag or subcommand is named on stderr before the usage text.
#[test]
fn unknown_flags_and_subcommands_are_rejected_by_name() {
    assert_campaign_rejected("flag", &["--frobnicate"], &["unknown flag --frobnicate"]);
    let out = Command::new(env!("CARGO_BIN_EXE_verify"))
        .arg("frobnicate")
        .output()
        .expect("verify binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("unknown subcommand frobnicate") && stderr.contains("usage:"),
        "{stderr}"
    );
}

/// `--system` takes every name `simulate --system` does: a grid runs all
/// three schemes differentially.
#[test]
fn a_campaign_on_a_grid_compares_all_three_schemes() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("verify-cli-grid3x2");
    let out = Command::new(env!("CARGO_BIN_EXE_verify"))
        .args(["campaign", "--system", "grid:3x2", "--points", "2", "--out"])
        .arg(&out_dir)
        .output()
        .expect("verify binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("campaign OK: 2 points x 3 schemes"),
        "{stdout}"
    );
}

/// A file of 200,000 `[` is malformed input: `verify replay` says it cannot
/// parse it and exits 1, as for any other garbage, instead of overflowing
/// the stack.
#[test]
fn a_json_nesting_bomb_is_a_parse_error() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("verify-cli-bomb.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write the bomb");
    let out = Command::new(env!("CARGO_BIN_EXE_verify"))
        .arg("replay")
        .arg(&path)
        .output()
        .expect("verify binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
}

/// Replays a `mini` UPP scenario whose one traffic row is `row` and asserts
/// the row is refused like a missing field: exit 1, `cannot parse` and
/// `needle` on stderr, and no run (nothing on stdout).
fn assert_replay_row_rejected(row: &str, needle: &str) {
    let path =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("verify-cli-row-{row}.json"));
    let scenario = format!(
        "{{\"version\":1,\"system\":\"mini\",\"scheme\":\"UPP\",\"seed\":1,\
         \"vcs_per_vnet\":2,\"horizon\":10,\"max_cycles\":2000,\
         \"traffic\":[[{row}]],\"faults\":[]}}"
    );
    std::fs::write(&path, scenario).expect("write the scenario");
    let out = Command::new(env!("CARGO_BIN_EXE_verify"))
        .arg("replay")
        .arg(&path)
        .output()
        .expect("verify binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "row [{row}]:\n{stderr}");
    assert!(
        stderr.contains("cannot parse") && stderr.contains(needle),
        "row [{row}] stderr should name {needle:?}:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "row [{row}] was run");
}

/// A replayed traffic row (`[at, src, dest, vnet, len_flits]`) the system
/// cannot carry is a parse error, checked against the named system.
#[test]
fn replayed_traffic_rows_the_system_cannot_carry_are_parse_errors() {
    // Used to replay as a fabricated deadlock and exit 0.
    assert_replay_row_rejected("0,0,5,0,0", "len_flits 0");
    // Used to be truncated to 4464 flits.
    assert_replay_row_rejected("0,0,5,0,70000", "len_flits 70000 is out of range");
    // These two used to panic (exit 101) in the NI's ring bank and the
    // topology.
    assert_replay_row_rejected("0,0,5,7,1", "vnet 7 is not one of the 3 VNets");
    assert_replay_row_rejected("0,0,999,0,1", "dest 999 is not a node of mini (40 nodes)");
}
