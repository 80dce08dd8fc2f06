//! The one cycle kernel against its reference, and against itself.
//!
//! Both cases run the Fig. 3 deadlock recipe — hotspot traffic at 0.06 into
//! endpoints that take 120 cycles to consume a packet — on the baseline
//! system under UPP, then drain. That recipe keeps the popup datapath busy,
//! which is where the active-set scheduler has the most to get wrong
//! (wake-ups from bypass latches, control signals, reservations) and where
//! UPP's own bookkeeping order can leak into the simulation.

use upp_core::{UppConfig, UppStats};
use upp_noc::config::NocConfig;
use upp_noc::ni::ConsumePolicy;
use upp_noc::sim::RunOutcome;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{build_system, SchemeKind};
use upp_workloads::synthetic::{Pattern, SyntheticTraffic};

const SEED: u64 = 2022;
const TRAFFIC_CYCLES: u64 = 2_500;

/// Everything the run computed: end cycle, full network statistics, UPP's
/// recovery counters.
#[derive(Debug, PartialEq)]
struct Snapshot {
    end_cycle: u64,
    net: String,
    upp: UppStats,
}

fn run(active_scheduler: bool) -> Snapshot {
    let built = build_system(
        &ChipletSystemSpec::baseline(),
        NocConfig::default(),
        &SchemeKind::Upp(UppConfig::default()),
        0,
        SEED,
        ConsumePolicy::Immediate { latency: 120 },
    );
    let mut sys = built.sys;
    sys.net_mut().set_active_scheduler(active_scheduler);
    let mut traffic = SyntheticTraffic::new(sys.net().topo(), Pattern::Hotspot, 0.06, SEED);
    for _ in 0..TRAFFIC_CYCLES {
        traffic.tick(&mut sys);
        sys.step();
    }
    let outcome = sys.run_until_drained(200_000);
    assert!(
        matches!(outcome, RunOutcome::Drained { .. }),
        "UPP must drain the recipe: {outcome:?}"
    );
    let upp = UppStats::snapshot(&built.upp_stats.expect("scheme is UPP"));
    assert!(
        upp.popups_completed > 0,
        "the recipe must exercise recovery, or the comparison is vacuous: {upp:?}"
    );
    Snapshot {
        end_cycle: sys.net().cycle(),
        net: format!("{:?}", sys.net().stats()),
        upp,
    }
}

/// Skipping idle routers and NIs and fast-forwarding quiescent gaps must be
/// unobservable: the always-tick kernel is the reference.
#[test]
fn active_set_kernel_matches_the_always_tick_reference() {
    assert_eq!(run(true), run(false));
}

/// The same seed, built and run twice in one process, computes the same
/// thing (each `HashMap` in the second system hashes with different keys, so
/// any walk in map order that reaches simulated state shows up here).
#[test]
fn same_seed_reruns_identically() {
    assert_eq!(run(true), run(true));
}
