//! Golden-stats regression tests of the real binary: fixed-seed runs must
//! produce byte-identical `--json` summaries (a) against the committed
//! goldens in `tests/goldens/`, (b) between serial and `--jobs N`
//! execution, and (c) between the binary and the library call it wraps.
//!
//! The goldens were recorded before the hot-path kernel optimisation pass
//! and are kept byte-for-byte, so they also prove the optimised simulator
//! produces exactly the output the allocation-heavy one did.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! UPP_UPDATE_GOLDENS=1 cargo test -p upp-bench --test determinism
//! ```

mod common;

use common::{check_golden, simulate_out};
use upp_noc::watch::WatchConfig;
use upp_workloads::run::{run, RiderConfig, RunConfig};
use upp_workloads::synthetic::Pattern;

/// A single UPP run at high load: exercises detection, popup bypass, and
/// the control plane. Must match the committed golden byte-for-byte.
#[test]
fn upp_single_run_matches_golden() {
    let json = simulate_out(
        "--scheme upp --pattern transpose --rate 0.10 --cycles 4000 --seed 7",
        "--json",
        "upp_single.json",
    );
    check_golden("upp_single_run.json", &json);
}

/// A composable-routing run (no recovery scheme): pins the baseline router
/// pipeline, VC allocation, and stat counters.
#[test]
fn composable_single_run_matches_golden() {
    let json = simulate_out(
        "--scheme composable --pattern uniform_random --rate 0.08 --cycles 4000 --seed 11",
        "--json",
        "composable_single.json",
    );
    check_golden("composable_single_run.json", &json);
}

/// A faulty-link UPP run: covers the fault-rerouting paths.
#[test]
fn faulty_upp_run_matches_golden() {
    let json = simulate_out(
        "--scheme upp --pattern uniform_random --rate 0.06 --cycles 4000 --faults 3 --seed 5",
        "--json",
        "faulty_upp.json",
    );
    check_golden("faulty_upp_run.json", &json);
}

/// The parallel sweep must be bit-identical serial vs `--jobs 4`, and match
/// the committed golden.
#[test]
fn sweep_is_jobs_invariant_and_matches_golden() {
    let sweep = |jobs: u32, out_name: &str| {
        let recipe = format!(
            "--scheme upp --pattern uniform_random --sweep 0.02,0.05,0.08 \
             --cycles 1500 --seed 3 --jobs {jobs}"
        );
        simulate_out(&recipe, "--json", out_name)
    };
    let serial = sweep(1, "sweep_serial.json");
    let parallel = sweep(4, "sweep_jobs4.json");
    assert!(
        serial == parallel,
        "per-point stats must be bit-identical for any --jobs value.\n\
         --- jobs 1 ---\n{serial}\n--- jobs 4 ---\n{parallel}"
    );
    check_golden("upp_sweep.json", &serial);
}

/// The binary is a shell around `upp_workloads::run`: the library call
/// renders the very bytes the binary writes, rider keys included.
#[test]
fn library_run_renders_the_bytes_the_binary_writes() {
    let from_binary = simulate_out(
        "--scheme upp --pattern hotspot --rate 0.06 --cycles 3000 --seed 9 --obs --mem --watch",
        "--json",
        "shell.json",
    );
    let cfg = RunConfig {
        pattern: Pattern::Hotspot,
        rate: 0.06,
        cycles: 3000,
        seed: 9,
        riders: RiderConfig {
            obs: true,
            mem: true,
            watch: Some((WatchConfig::default(), None)),
            ..RiderConfig::default()
        },
        ..RunConfig::default()
    };
    let report = run(cfg.build().expect("valid request"), &cfg, &mut |_| {});
    assert!(from_binary.contains("\"obs\": {") && from_binary.contains("\"mem\": {"));
    assert!(from_binary.contains("\"watch\": {"), "{from_binary}");
    assert_eq!(report.json(), from_binary);
}
