//! End-to-end smoke tests for the latency-profiling pipeline: `simulate
//! --profile-out` must emit a byte-identical profile document regardless of
//! `--jobs`, match the committed golden in `tests/goldens/`, and feed the
//! `upp-tracetools` analysis surface (report, heatmap, diff) without loss.
//!
//! To regenerate the golden after an *intentional* behaviour change:
//!
//! ```text
//! UPP_UPDATE_GOLDENS=1 cargo test -p upp-bench --test trace_smoke
//! ```

mod common;

use common::{check_golden, simulate_out};
use upp_tracetools::{render, ProfileSummary};

/// Runs `simulate` with `recipe` plus `--profile-out OUT` and returns the
/// profile document bytes.
fn simulate_profile(recipe: &str, out_name: &str) -> String {
    simulate_out(recipe, "--profile-out", out_name)
}

// The faulty-link run from the determinism goldens: rerouting around the
// faults congests the interposer paths enough that UPP actually detects
// upward packets and pops them, so the recovery phases are exercised.
const UPP_RUN: &str =
    "--scheme upp --pattern uniform_random --rate 0.06 --cycles 4000 --faults 3 --seed 5";

/// The profile document is deterministic (byte-identical for any `--jobs`
/// value), matches the committed golden, and drives every analysis surface.
#[test]
fn profile_matches_golden_and_is_jobs_invariant() {
    let serial = simulate_profile(&format!("{UPP_RUN} --jobs 1"), "prof_j1.json");
    let parallel = simulate_profile(&format!("{UPP_RUN} --jobs 4"), "prof_j4.json");
    assert!(
        serial == parallel,
        "profile must be bit-identical for any --jobs value.\n\
         --- jobs 1 ---\n{serial}\n--- jobs 4 ---\n{parallel}"
    );
    check_golden("upp_profile.json", &serial);

    let p = ProfileSummary::from_json(&serial).expect("profile parses");
    assert!(p.packets > 0, "profiled packets");
    assert_eq!(p.to_json(), serial, "document round-trips byte-identically");
    let report = render::analyze_text(&p);
    assert!(
        report.contains("wait_ack"),
        "report lists UPP phases:\n{report}"
    );
    assert!(
        render::heatmap_svg(&p).is_some(),
        "system label {:?} drives the SVG topology layout",
        p.system
    );
    assert!(
        !render::critical_path_text(&p, 3).is_empty(),
        "slowest packets render"
    );
}

/// Fig. 13's popup-overhead story, via the diff surface: UPP's extra
/// latency is attributed to its recovery phases (wait_ack/locate/pop plus
/// bypass hops), while remote-control pays at the source instead — its
/// injection control holds packets in the source NI (higher inj_queue),
/// buying lower in-network credit blocking and zero recovery cycles.
#[test]
fn diff_attributes_upp_recovery_vs_remote_throttling() {
    let upp = simulate_profile(UPP_RUN, "prof_upp.json");
    let remote = simulate_profile(
        &UPP_RUN.replace("--scheme upp", "--scheme remote"),
        "prof_remote.json",
    );

    let pu = ProfileSummary::from_json(&upp).expect("UPP profile parses");
    let pr = ProfileSummary::from_json(&remote).expect("remote profile parses");
    assert!(
        pu.phases.upp_recovery() > 0,
        "UPP at this load recovers popups, so recovery cycles are nonzero"
    );
    assert!(pu.popups > 0, "popups observed");
    assert_eq!(
        pr.phases.upp_recovery(),
        0,
        "remote-control never enters UPP recovery"
    );
    assert_eq!(pr.bypass_hops, 0, "no popup bypass under remote-control");
    assert!(pu.bypass_hops > 0, "UPP pops flits over the bypass path");
    let per_pkt = |total: u64, p: &ProfileSummary| total as f64 / p.packets.max(1) as f64;
    assert!(
        per_pkt(pr.phases.inj_queue, &pr) > per_pkt(pu.phases.inj_queue, &pu),
        "remote-control's injection control holds packets at the source: \
         {:.1} vs {:.1} inj_queue cycles/packet",
        per_pkt(pr.phases.inj_queue, &pr),
        per_pkt(pu.phases.inj_queue, &pu)
    );
    assert!(
        per_pkt(pr.phases.credit, &pr) < per_pkt(pu.phases.credit, &pu),
        "what remote-control buys with throttling is less in-network blocking: \
         {:.1} vs {:.1} credit cycles/packet",
        per_pkt(pr.phases.credit, &pr),
        per_pkt(pu.phases.credit, &pu)
    );
    let diff = render::diff_text(&pu, &pr);
    assert!(
        diff.contains("wait_ack"),
        "diff lists recovery phases:\n{diff}"
    );
    assert!(diff.contains("hops/packet"), "diff lists hop cost:\n{diff}");
}
