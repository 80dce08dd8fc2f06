//! What the golden tests share: where the committed goldens live, how an
//! output is compared with one (and, where a test allows it, refreshed),
//! and how the `simulate` binary is run for one output file.

#![allow(dead_code)] // each test crate uses its own subset

use std::path::PathBuf;
use std::process::{Command, Stdio};

pub fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// A scratch path private to this test process.
pub fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("upp-bench-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// The committed golden `name`; it must exist.
pub fn golden(name: &str) -> String {
    let path = goldens_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed golden {}: {e}", path.display()))
}

/// Compares `actual` against the committed golden `name`, or rewrites the
/// golden when `UPP_UPDATE_GOLDENS=1`.
pub fn check_golden(name: &str, actual: &str) {
    if std::env::var("UPP_UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(goldens_dir()).expect("goldens dir");
        std::fs::write(goldens_dir().join(name), actual).expect("write golden");
        return;
    }
    let expected = golden(name);
    assert!(
        expected == actual,
        "{name}: output differs from committed golden.\n\
         If the change is intentional, refresh with UPP_UPDATE_GOLDENS=1.\n\
         --- golden ---\n{expected}\n--- actual ---\n{actual}"
    );
}

/// Compares `actual` (produced by `what`) against the committed golden
/// `name`, with deliberately **no** refresh path: a failure means the
/// simulation changed behaviour, and the fix is in the code, never in the
/// golden.
pub fn assert_golden(name: &str, actual: &str, what: &str) {
    let expected = golden(name);
    assert!(
        expected == actual,
        "{name}: {what} diverged from the committed golden (no refresh path \
         — fix the code).\n--- golden ---\n{expected}\n--- {what} ---\n{actual}"
    );
}

/// Runs the `simulate` binary with the whitespace-separated `recipe` plus
/// `out_flag OUT` and returns what it wrote to OUT.
pub fn simulate_out(recipe: &str, out_flag: &str, out_name: &str) -> String {
    let out = tmp_path(out_name);
    let _ = std::fs::remove_file(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(recipe.split_whitespace())
        .arg(out_flag)
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("simulate binary runs");
    assert!(status.success(), "simulate {recipe} failed: {status}");
    std::fs::read_to_string(&out).unwrap_or_else(|e| panic!("simulate wrote {out_flag}: {e}"))
}
