//! Bench-side acceptance smoke for the model checker: the flagship
//! configurations must stay exhaustively verified and honestly so (no
//! channel-bound clipping, no fingerprint luck), keeping the repo's
//! "checked, not just tested" claim pinned alongside the rest of the
//! acceptance suite.

use upp_check::explore::explore;
use upp_check::model::ModelCfg;
use upp_check::props::{check_bounded_recovery, check_no_livelock};

#[test]
fn flagship_two_router_model_stays_verified() {
    let cfg = ModelCfg::flagship(2);
    let ex = explore(&cfg, true, 2_000_000).expect("explores");
    assert!(ex.stats.states > 1_000, "non-trivial: {}", ex.stats.states);
    assert_eq!(ex.stats.bound_hits, 0, "exhaustive, not clipped");
    assert_eq!(ex.stats.fingerprint_collisions, 0);
    assert!(ex.stats.deadlock_states > 0, "deadlock reachable");

    let proof = check_bounded_recovery(&ex).expect("P1 holds");
    assert!(
        proof.bound <= 32,
        "recovery bound regressed: {} transitions",
        proof.bound
    );
    check_no_livelock(&ex).expect("P2 holds");
}

#[test]
fn wider_ring_with_unit_queues_stays_verified() {
    // 3 routers keeps this affordable in debug builds; the CI cli-e2e
    // job additionally exhausts the 4-router ring in release mode.
    let mut cfg = ModelCfg::flagship(3);
    cfg.queue_depth = 1;
    cfg.bound = 1;
    let ex = explore(&cfg, true, 2_000_000).expect("explores");
    assert!(ex.stats.deadlock_states > 0, "deadlock reachable");
    assert_eq!(ex.stats.bound_hits, 0);
    check_bounded_recovery(&ex).expect("P1 holds");
    check_no_livelock(&ex).expect("P2 holds");
}
