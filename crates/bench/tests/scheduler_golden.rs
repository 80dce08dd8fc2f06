//! Active-set-scheduler golden guard: the scheduler (on by default) must
//! reproduce the committed golden summaries byte for byte, and so must the
//! `UPP_ALWAYS_TICK=1` reference kernel. Unlike `determinism.rs`, this
//! test deliberately has **no** `UPP_UPDATE_GOLDENS` refresh path — if it
//! fails, the scheduler changed simulation behaviour, and the fix is in the
//! scheduler, never in the goldens.
//!
//! The kernel variant is selected per child process through the
//! environment, so concurrently running tests in this process can never
//! race on the setting.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed golden {}: {e}", path.display()))
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("upp-sched-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Runs `simulate` with an explicit kernel choice and returns the `--json`
/// summary bytes.
fn simulate_json(args: &[&str], out_name: &str, always_tick: bool) -> String {
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
        .arg("--json")
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("simulate binary runs");
    assert!(status.success(), "simulate {args:?} failed: {status}");
    std::fs::read_to_string(&out).expect("simulate wrote the JSON summary")
}

/// Every committed single-run and sweep golden, with the exact CLI that
/// recorded it (mirrors `determinism.rs`).
const CONFIGS: [(&str, &[&str]); 4] = [
    (
        "upp_single_run.json",
        &[
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
        ],
    ),
    (
        "composable_single_run.json",
        &[
            "--scheme",
            "composable",
            "--pattern",
            "uniform_random",
            "--rate",
            "0.08",
            "--cycles",
            "4000",
            "--seed",
            "11",
        ],
    ),
    (
        "faulty_upp_run.json",
        &[
            "--scheme",
            "upp",
            "--pattern",
            "uniform_random",
            "--rate",
            "0.06",
            "--cycles",
            "4000",
            "--faults",
            "3",
            "--seed",
            "5",
        ],
    ),
    (
        "upp_sweep.json",
        &[
            "--scheme",
            "upp",
            "--pattern",
            "uniform_random",
            "--sweep",
            "0.02,0.05,0.08",
            "--cycles",
            "1500",
            "--seed",
            "3",
            "--jobs",
            "1",
        ],
    ),
];

#[test]
fn scheduler_reproduces_every_committed_golden() {
    for (i, (name, args)) in CONFIGS.iter().enumerate() {
        let expected = golden(name);
        let on = simulate_json(args, &format!("sched_on_{i}.json"), false);
        assert!(
            on == expected,
            "{name}: active-set scheduler diverged from the committed golden \
             (no refresh path — fix the scheduler).\n\
             --- golden ---\n{expected}\n--- scheduler on ---\n{on}"
        );
        let off = simulate_json(args, &format!("sched_off_{i}.json"), true);
        assert!(
            off == expected,
            "{name}: UPP_ALWAYS_TICK=1 reference kernel diverged from the \
             committed golden.\n\
             --- golden ---\n{expected}\n--- always tick ---\n{off}"
        );
    }
}
