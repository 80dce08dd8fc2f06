//! Protocol-state telemetry goldens: a faulty `grid:3x3` UPP run with
//! `--obs` pins the full `--json` payload (including the embedded
//! telemetry summary) and the `--obs-every` epoch stream byte-for-byte,
//! and the same request on the always-tick reference kernel (in-process,
//! `set_active_scheduler(false)`) must reproduce both files exactly — the
//! active-set scheduler may not be visible through the telemetry.
//!
//! To regenerate the goldens after an *intentional* behaviour change:
//!
//! ```text
//! UPP_UPDATE_GOLDENS=1 cargo test -p upp-bench --test obs_golden
//! ```

mod common;

use common::{check_golden, simulate_out, tmp_path};
use upp_noc::topology::SystemKind;
use upp_workloads::run::{run, RiderConfig, RunConfig};

/// Faulty-link grid run: rerouting congests the interposer paths enough
/// that UPP pops packets, so the telemetry has non-trivial circuit-table,
/// watchdog and recovery-histogram content worth pinning.
const RUN: &str = "--system grid:3x3 --scheme upp --pattern uniform_random --rate 0.06 \
                   --cycles 3000 --faults 2 --seed 9 --obs --obs-every 500";

#[test]
fn obs_output_matches_golden_and_is_scheduler_invariant() {
    let json_path = tmp_path("obs_run.json");
    let recipe = format!("{RUN} --json {}", json_path.display());
    let epochs = simulate_out(&recipe, "--obs-out", "obs_run.obs.jsonl");
    let json = std::fs::read_to_string(&json_path).expect("simulate wrote the json payload");

    // Sanity before pinning: the run produced real protocol activity.
    assert!(json.contains("\"obs\""), "payload embeds the summary");
    assert!(
        json.contains("\"upp.watchdog.expired_cycles\""),
        "watchdog counters present"
    );
    assert!(
        epochs.starts_with("{\"upp_obs_epochs\":1"),
        "epoch stream leads with its schema header"
    );

    check_golden("grid_obs_run.json", &json);
    check_golden("grid_obs_epochs.jsonl", &epochs);

    // The always-tick reference kernel must reproduce both files exactly;
    // compared directly (never refreshed), like scheduler_golden.rs.
    let cfg = RunConfig {
        system: SystemKind::Grid { cols: 3, rows: 3 },
        rate: 0.06,
        cycles: 3000,
        faults: 2,
        seed: 9,
        riders: RiderConfig {
            obs: true,
            obs_every: Some(500),
            ..RiderConfig::default()
        },
        ..RunConfig::default()
    };
    let mut built = cfg.build().expect("valid request");
    built.sys.net_mut().set_active_scheduler(false);
    let reference = run(built, &cfg, &mut |_| {});
    let (json_ref, epochs_ref) = (reference.json(), reference.obs_epochs_jsonl());
    assert!(
        json == json_ref,
        "the always-tick reference diverged from the active-set kernel on the \
         --json payload:\n--- active-set ---\n{json}\n--- always-tick ---\n{json_ref}"
    );
    assert!(
        epochs == epochs_ref,
        "the always-tick reference diverged from the active-set kernel on the \
         epoch stream:\n--- active-set ---\n{epochs}\n--- always-tick ---\n{epochs_ref}"
    );
}
