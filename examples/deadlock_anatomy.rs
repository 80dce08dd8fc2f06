//! Anatomy of an integration-induced deadlock.
//!
//! Runs the *same* traffic twice: once on the unprotected baseline system —
//! which wedges — and once under UPP — which detects the upward packets and
//! recovers. This is the paper's Fig. 3 story told by the simulator itself.
//!
//! ```text
//! cargo run --release --example deadlock_anatomy
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use upp::core::UppConfig;
use upp::noc::config::NocConfig;
use upp::noc::ids::{NodeId, VnetId};
use upp::noc::ni::ConsumePolicy;
use upp::noc::sim::{RunOutcome, System};
use upp::noc::topology::ChipletSystemSpec;
use upp::workloads::runner::{build_system, BuiltSystem, SchemeKind};

fn build(kind: SchemeKind, seed: u64) -> BuiltSystem {
    build_system(
        &ChipletSystemSpec::baseline(),
        NocConfig::default(),
        &kind,
        0,
        seed,
        ConsumePolicy::Immediate { latency: 1 },
    )
}

/// Bursty inter-chiplet-heavy traffic that reliably closes dependency
/// cycles across the vertical links.
fn drive(sys: &mut System, seed: u64) -> u64 {
    let cores: Vec<NodeId> = sys
        .net()
        .topo()
        .chiplets()
        .iter()
        .flat_map(|c| c.routers.iter().copied())
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sent = 0;
    for _ in 0..3_000 {
        for &src in &cores {
            if rng.gen::<f64>() >= 0.30 {
                continue;
            }
            let dest = cores[rng.gen_range(0..cores.len())];
            if dest == src {
                continue;
            }
            let vnet = VnetId(rng.gen_range(0..3u8));
            let len = if vnet.0 == 2 { 5 } else { 1 };
            if sys.send(src, dest, vnet, len).is_some() {
                sent += 1;
            }
        }
        sys.step();
    }
    sent
}

fn main() {
    let seed = 1;

    println!("== run 1: no deadlock-freedom scheme ==");
    let mut unprotected = build(SchemeKind::None, seed).sys;
    let sent = drive(&mut unprotected, seed);
    let outcome = unprotected.run_until_drained(30_000);
    let RunOutcome::Deadlocked {
        last_progress,
        in_flight,
    } = outcome
    else {
        panic!("seed {seed} must wedge the unprotected system: {outcome:?}");
    };
    println!(
        "network WEDGED: {in_flight} packets frozen in flight, no flit has moved \
         since cycle {last_progress} (cycle now: {})",
        unprotected.net().cycle()
    );
    // Show where upward packets are stuck (the paper's key insight:
    // every integration-induced deadlock contains one).
    let ups: Vec<NodeId> = unprotected
        .net()
        .topo()
        .interposer_routers()
        .iter()
        .copied()
        .filter(|&n| unprotected.net().topo().above(n).is_some())
        .collect();
    let mut stalled = Vec::new();
    for n in ups {
        for v in 0..3u8 {
            unprotected
                .net()
                .upward_candidates_into(n, VnetId(v), &mut stalled);
        }
    }
    let stalled_upward = stalled.len();
    println!(
        "upward packets stalled at interposer routers: {stalled_upward} \
         (Sec. IV-A: a deadlock always involves at least one)"
    );
    assert!(
        stalled_upward > 0,
        "the insight must hold for this deadlock"
    );
    // Show where the frozen flits sit: the wedge concentrates along
    // the dependency chains crossing the vertical links.
    let mut occ = unprotected.net().occupancy();
    occ.sort_by_key(|&(_, flits)| std::cmp::Reverse(flits));
    println!("most congested routers (node: buffered flits):");
    for (n, flits) in occ.iter().take(8) {
        let kind = if unprotected.net().topo().is_interposer(*n) {
            "interposer"
        } else {
            "chiplet"
        };
        println!("  {n} ({kind}): {flits}");
    }

    println!("\n== run 2: same traffic, same seeds, UPP enabled ==");
    let mut protected = build(SchemeKind::Upp(UppConfig::default()), seed);
    let sent2 = drive(&mut protected.sys, seed);
    // The offered traffic is identical; the *accepted* counts differ because
    // the wedged network's injection queues back up and reject packets.
    println!("accepted packets: {sent} unprotected vs {sent2} under UPP");
    let outcome = protected.sys.run_until_drained(300_000);
    println!("outcome: {outcome:?}");
    let s = protected.upp_stats().expect("the scheme is UPP");
    println!(
        "UPP detected {} upward packets, completed {} popups ({} started mid-worm), \
         sent {} stops for false positives",
        s.upward_packets, s.popups_completed, s.partial_popups, s.stops_sent
    );
    assert!(matches!(outcome, RunOutcome::Drained { .. }));
    assert_eq!(protected.sys.net().stats().packets_ejected, sent2);
    println!(
        "all {} packets delivered — the deadlock chain was broken by upward packet popup.",
        sent2
    );
}
