//! End-to-end exercises of UPP's protocol paths: full popups, mid-worm
//! (partial) popups, false-positive stops, the serialized-per-chiplet
//! variant, and extreme thresholds — all against genuinely deadlocking
//! traffic.

mod common;

use upp_core::{UppConfig, UppStats};
use upp_noc::config::NocConfig;
use upp_noc::sim::RunOutcome;
use upp_workloads::runner::{BuiltSystem, SchemeKind};

fn build(cfg: UppConfig, vcs: usize, seed: u64) -> BuiltSystem {
    common::build(
        SchemeKind::Upp(cfg),
        NocConfig::default().with_vcs_per_vnet(vcs),
        seed,
    )
}

fn recover_and_stats(cfg: UppConfig, vcs: usize, seed: u64) -> (u64, u64, UppStats, u64) {
    let mut built = build(cfg, vcs, seed);
    let (sent, _) = common::drive(&mut built.sys, seed, 2_500, 0.3);
    let out = built.sys.run_until_drained(400_000);
    assert!(
        matches!(out, RunOutcome::Drained { .. }),
        "seed {seed}: {out:?}"
    );
    // Let the last acks and stops still on the wire arrive.
    built.sys.run(1_000);
    let delivered = built.sys.net().stats().packets_ejected;
    let bypass = built.sys.net().stats().bypass_hops;
    let stats = built.upp_stats().expect("the scheme is UPP");
    // Protocol conservation: every req is answered by exactly one ack
    // (possibly dropped), and ends in exactly one stop or popup.
    assert_eq!(stats.acks_sent, stats.reqs_sent, "seed {seed}: {stats:?}");
    assert_eq!(
        stats.stops_sent + stats.popups_completed,
        stats.reqs_sent,
        "seed {seed}: {stats:?}"
    );
    (sent, delivered, stats, bypass)
}

#[test]
fn full_and_partial_popups_both_occur_and_recover() {
    let mut saw_partial = false;
    let mut saw_full = false;
    for seed in 0..3u64 {
        let (sent, delivered, stats, bypass) = recover_and_stats(UppConfig::default(), 1, seed);
        assert_eq!(sent, delivered, "seed {seed}: conservation");
        assert!(
            stats.upward_packets > 0,
            "seed {seed}: heavy load must trigger detection"
        );
        assert!(
            bypass > 0,
            "seed {seed}: popup transmission must use the bypass path"
        );
        saw_partial |= stats.partial_popups > 0;
        saw_full |= stats.popups_completed > stats.partial_popups;
    }
    assert!(
        saw_full,
        "some popups must start at the interposer (Sec. V-B)"
    );
    assert!(saw_partial, "some popups must start mid-worm (Sec. V-B3)");
}

#[test]
fn false_positives_are_stopped_and_acks_dropped() {
    let mut stops = 0;
    let mut drops = 0;
    for seed in 0..3u64 {
        let (_, _, stats, _) = recover_and_stats(UppConfig::default(), 1, seed);
        stops += stats.stops_sent;
        drops += stats.acks_dropped;
        // Every ack is answered by a req; reservations never exceed reqs.
        assert!(stats.acks_sent <= stats.reqs_sent, "seed {seed}");
    }
    assert!(
        stops > 0,
        "congestion must produce some false positives (Sec. V-A)"
    );
    assert!(
        drops > 0,
        "stops must lead to dropped acks (protocol rule 3)"
    );
}

#[test]
fn serialized_per_chiplet_variant_also_recovers() {
    let cfg = UppConfig {
        serialize_per_chiplet: true,
        ..UppConfig::default()
    };
    let (sent, delivered, stats, _) = recover_and_stats(cfg, 1, 0);
    assert_eq!(sent, delivered);
    assert!(stats.popups_completed > 0);
}

#[test]
fn extreme_thresholds_still_recover() {
    for threshold in [1u64, 500] {
        let (sent, delivered, stats, _) =
            recover_and_stats(UppConfig::with_threshold(threshold), 1, 1);
        assert_eq!(sent, delivered, "threshold {threshold}");
        assert!(stats.upward_packets > 0, "threshold {threshold}");
    }
}

#[test]
fn four_vcs_reduce_detections_for_identical_traffic() {
    let (_, _, one, _) = recover_and_stats(UppConfig::default(), 1, 2);
    let (_, _, four, _) = recover_and_stats(UppConfig::default(), 4, 2);
    assert!(
        four.upward_packets < one.upward_packets,
        "Fig. 12's VC effect: {} (4 VCs) must be below {} (1 VC)",
        four.upward_packets,
        one.upward_packets
    );
}

#[test]
fn signal_buffers_stay_tiny() {
    // The paper adds two 32-bit buffers per chiplet router; our dedicated
    // queues must stay near-empty even through heavy recovery activity.
    let mut sys = build(UppConfig::default(), 1, 3).sys;
    common::drive(&mut sys, 3, 2_500, 0.3);
    let out = sys.run_until_drained(400_000);
    assert!(matches!(out, RunOutcome::Drained { .. }));
    let stats = sys.net().stats();
    assert!(
        stats.max_req_buffer_occupancy <= 3,
        "req/stop buffer high-water {} exceeds the serialization bound",
        stats.max_req_buffer_occupancy
    );
    assert!(
        stats.max_ack_buffer_occupancy <= 3,
        "ack buffer high-water {} exceeds the merge bound",
        stats.max_ack_buffer_occupancy
    );
}
