//! The one cycle kernel against its reference, and against itself.
//!
//! Three recipes on the baseline system under UPP, each run and then drained.
//! The Fig. 3 deadlock recipe — hotspot traffic at 0.06 into endpoints that
//! take 120 cycles to consume a packet — keeps the popup datapath busy,
//! which is where the active-set scheduler has the most to get wrong
//! (wake-ups from bypass latches, control signals, reservations) and where
//! UPP's own bookkeeping order can leak into the simulation. The idle recipe
//! — uniform random at 0.005 — is the opposite: most boundary routers are
//! quiet in most cycles, so UPP's tick skips them, wakes them when a flit
//! turns up, and the drain fast-forwards. The loaded recipe — uniform random
//! at 0.09 with 4 VCs per VNet — puts 12 VCs on every port under contention:
//! switch allocation walks occupancy words instead of polling all of them,
//! and routers woken by a credit alone are descheduled unstepped, while the
//! reference steps every router in every cycle, empty or not. These are
//! debug builds, so every skip is cross-checked on the way.

use upp_core::{UppConfig, UppStats};
use upp_noc::config::NocConfig;
use upp_noc::ni::ConsumePolicy;
use upp_noc::sim::RunOutcome;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{build_system, SchemeKind};
use upp_workloads::synthetic::{Pattern, SyntheticTraffic};

const SEED: u64 = 2022;

struct Recipe {
    pattern: Pattern,
    rate: f64,
    consume_latency: u64,
    traffic_cycles: u64,
    vcs_per_vnet: usize,
    /// The run is only a test of the recovery datapath if it recovers.
    must_pop_up: bool,
}

const FIG3: Recipe = Recipe {
    pattern: Pattern::Hotspot,
    rate: 0.06,
    consume_latency: 120,
    traffic_cycles: 2_500,
    vcs_per_vnet: 1,
    must_pop_up: true,
};

const fn idle(vcs_per_vnet: usize) -> Recipe {
    Recipe {
        pattern: Pattern::UniformRandom,
        rate: 0.005,
        consume_latency: 1,
        traffic_cycles: 20_000,
        vcs_per_vnet,
        must_pop_up: false,
    }
}

const LOADED_4VC: Recipe = Recipe {
    pattern: Pattern::UniformRandom,
    rate: 0.09,
    consume_latency: 1,
    traffic_cycles: 6_000,
    vcs_per_vnet: 4,
    must_pop_up: false,
};

/// Everything the run computed: end cycle, full network statistics, UPP's
/// recovery counters.
#[derive(Debug, PartialEq)]
struct Snapshot {
    end_cycle: u64,
    net: String,
    upp: UppStats,
}

fn run(recipe: &Recipe, active_scheduler: bool) -> Snapshot {
    let cfg = NocConfig {
        vcs_per_vnet: recipe.vcs_per_vnet,
        ..NocConfig::default()
    };
    let built = build_system(
        &ChipletSystemSpec::baseline(),
        cfg,
        &SchemeKind::Upp(UppConfig::default()),
        0,
        SEED,
        ConsumePolicy::Immediate {
            latency: recipe.consume_latency,
        },
    );
    let mut sys = built.sys;
    sys.net_mut().set_active_scheduler(active_scheduler);
    let mut traffic = SyntheticTraffic::new(sys.net().topo(), recipe.pattern, recipe.rate, SEED);
    for _ in 0..recipe.traffic_cycles {
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
        !recipe.must_pop_up || upp.popups_completed > 0,
        "the recipe must exercise recovery, or the comparison is vacuous: {upp:?}"
    );
    assert!(
        sys.net().stats().packets_ejected > 0,
        "the recipe carried no traffic"
    );
    assert!(
        active_scheduler || sys.net().active_router_fraction() == 1.0,
        "the reference kernel steps every router in every cycle"
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
    for recipe in [FIG3, idle(1), idle(4), LOADED_4VC] {
        assert_eq!(run(&recipe, true), run(&recipe, false));
    }
}

/// The same seed, built and run twice in one process, computes the same
/// thing (each `HashMap` in the second system hashes with different keys, so
/// any walk in map order that reaches simulated state shows up here).
#[test]
fn same_seed_reruns_identically() {
    assert_eq!(run(&FIG3, true), run(&FIG3, true));
}
