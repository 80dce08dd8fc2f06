//! Active-set-scheduler golden guard: the scheduler (on by default) must
//! reproduce the committed golden summaries byte for byte, and so must the
//! always-tick reference kernel, reached in-process through
//! `set_active_scheduler(false)` on the built system. Unlike
//! `determinism.rs`, this test deliberately has **no** `UPP_UPDATE_GOLDENS`
//! refresh path — if it fails, the scheduler changed simulation behaviour,
//! and the fix is in the scheduler, never in the goldens.

mod common;

use common::assert_golden;
use upp_noc::ni::ConsumePolicy;
use upp_workloads::run::{run, RunConfig};
use upp_workloads::runner::{build_system, measure_point, SchemeKind, SweepWindows};
use upp_workloads::synthetic::Pattern;

const KERNELS: [(bool, &str); 2] = [
    (true, "the active-set scheduler"),
    (false, "the always-tick reference kernel"),
];

/// Every committed single-run golden, as the request that recorded it
/// (mirrors the command lines in `determinism.rs`).
#[test]
fn scheduler_reproduces_every_committed_golden() {
    let runs = [
        (
            "upp_single_run.json",
            RunConfig {
                pattern: Pattern::Transpose,
                rate: 0.10,
                cycles: 4000,
                seed: 7,
                ..RunConfig::default()
            },
        ),
        (
            "composable_single_run.json",
            RunConfig {
                scheme: SchemeKind::Composable,
                rate: 0.08,
                cycles: 4000,
                seed: 11,
                ..RunConfig::default()
            },
        ),
        (
            "faulty_upp_run.json",
            RunConfig {
                rate: 0.06,
                cycles: 4000,
                faults: 3,
                seed: 5,
                ..RunConfig::default()
            },
        ),
    ];
    for (name, cfg) in &runs {
        for (scheduler, kernel) in KERNELS {
            let mut built = cfg.build().expect("valid request");
            built.sys.net_mut().set_active_scheduler(scheduler);
            assert_golden(name, &run(built, cfg, &mut |_| {}).json(), kernel);
        }
    }
}

/// The sweep golden (`--sweep 0.02,0.05,0.08 --cycles 1500 --seed 3`), one
/// `measure_point` per rate on a system this test built and flipped.
#[test]
fn scheduler_reproduces_the_sweep_golden() {
    let cfg = RunConfig {
        cycles: 1500,
        seed: 3,
        ..RunConfig::default()
    };
    let windows = SweepWindows {
        warmup: cfg.cycles / 10,
        measure: cfg.cycles,
    };
    for (scheduler, kernel) in KERNELS {
        let points: Vec<_> = [0.02, 0.05, 0.08]
            .into_iter()
            .map(|rate| {
                let mut built = build_system(
                    &cfg.spec().expect("baseline"),
                    cfg.noc_config(),
                    &cfg.scheme,
                    cfg.faults,
                    cfg.seed,
                    ConsumePolicy::Immediate { latency: 1 },
                );
                built.sys.net_mut().set_active_scheduler(scheduler);
                measure_point(built, cfg.pattern, rate, windows, cfg.seed)
            })
            .collect();
        let json = serde_json::to_string_pretty(&points).expect("points serialize") + "\n";
        assert_golden("upp_sweep.json", &json, kernel);
    }
}
