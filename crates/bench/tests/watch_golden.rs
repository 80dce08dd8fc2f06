//! Alert-stream golden guard: the committed `upp-alerts/v1` fixture pins
//! the watcher's byte-exact output on a seeded deadlock run, across the
//! active-set scheduler (the real binary) and the always-tick reference
//! kernel (in-process, `set_active_scheduler(false)`). Like
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

mod common;

use common::{assert_golden, golden, simulate_out};
use upp_noc::watch::{alerts_header_json, WatchConfig};
use upp_workloads::run::{run, RiderConfig, RunConfig, RunEvent};
use upp_workloads::runner::SchemeKind;
use upp_workloads::synthetic::Pattern;

const GOLDEN: &str = "upp_alerts.jsonl";
const WATCH: &str = "--watch-every 100";

#[test]
fn alert_stream_matches_committed_golden() {
    let expected = golden(GOLDEN);
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
    let recipe =
        format!("--scheme none --pattern hotspot --rate 0.25 --cycles 6000 --seed 7 {WATCH}");
    let got = simulate_out(&recipe, "--watch-out", "serial.jsonl");
    assert_golden(GOLDEN, &got, "the alert stream");
}

#[test]
fn alert_stream_is_scheduler_invariant() {
    let tuning = WatchConfig {
        every: 100,
        ..WatchConfig::default()
    };
    let cfg = RunConfig {
        scheme: SchemeKind::None,
        pattern: Pattern::Hotspot,
        rate: 0.25,
        cycles: 6000,
        seed: 7,
        riders: RiderConfig {
            watch: Some((tuning, None)),
            ..RiderConfig::default()
        },
        ..RunConfig::default()
    };
    let mut built = cfg.build().expect("valid request");
    built.sys.net_mut().set_active_scheduler(false);
    // The stream as the binary writes it: header, then a line per alert.
    let mut stream = alerts_header_json(100) + "\n";
    run(built, &cfg, &mut |event| {
        if let RunEvent::Alert(alert) = event {
            stream += &(alert.jsonl() + "\n");
        }
    });
    assert_golden(GOLDEN, &stream, "the always-tick alert stream");
}

/// A healthy run's stream is exactly the header line: zero alert records,
/// byte-stable, so `--watch` can be left on in scripted pipelines without
/// polluting their output.
#[test]
fn clean_run_stream_is_header_only() {
    let recipe =
        format!("--scheme upp --pattern transpose --rate 0.10 --cycles 4000 --seed 7 {WATCH}");
    let got = simulate_out(&recipe, "--watch-out", "clean.jsonl");
    assert_eq!(
        got, "{\"upp_alerts\":1,\"schema\":\"upp-alerts/v1\",\"every\":100}\n",
        "clean run should emit the header and nothing else"
    );
}
