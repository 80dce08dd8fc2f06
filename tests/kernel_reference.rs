//! The one cycle kernel against its reference, and against itself.
//!
//! Eight recipes on the baseline system, each run and then drained (or run
//! into the watchdog). The Fig. 3 deadlock recipe — hotspot traffic at 0.06
//! into endpoints that take 120 cycles to consume a packet — keeps the popup
//! datapath busy, which is where the scheduler has the most to get wrong
//! (wake-ups from bypass latches, control signals, reservations) and where
//! UPP's own bookkeeping order can leak into the simulation. The idle recipe
//! — uniform random at 0.005 — is the opposite: most boundary routers are
//! quiet in most cycles, so UPP's tick skips them and wakes them when a
//! flit turns up. The loaded recipe — uniform random at 0.09 with 4 VCs per
//! VNet — puts 12 VCs on every port under contention:
//! switch allocation walks occupancy words instead of polling all of them,
//! and routers woken by a credit alone are descheduled unstepped, while the
//! reference steps every router in every cycle, empty or not.
//!
//! The next four are there for the progress-driven half of the scheduler,
//! which lets a router full of blocked flits sleep until something it waits
//! on changes; a wake-up it misses is a hang, not a wrong number. Remote control under the Fig. 3 recipe re-injects every
//! boundary crossing through an absorber whose flits are gated a cycle
//! longer than a buffer write. No scheme at all at 0.2 wedges: every router
//! ends up parked and the watchdog has to report the same last movement.
//! And a fault plan — two links failed and healed, one endpoint's injection
//! and another's consumption paused and resumed — runs over workload-driven
//! consumption, so heals, resumes and `pop_delivered` are what has to wake
//! the parked. The same plan runs again
//! under the Fig. 3 recipe with endpoints that consume 40 cycles after a
//! packet completes: an NI sleeps until its consumption timer fires, and
//! pausing and resuming injection and consumption is what has to wake it.
//!
//! Two more for the scheduler's wake sets, `u64` words over node indices:
//! the baseline's 80 routers are one word and a quarter of the next, so the
//! Fig. 3 recipe and the fault plan run again on the 3x3 grid — 180 routers,
//! two whole words and 52 bits of a third.
//!
//! And one past the paper's systems: uniform random into slow endpoints on
//! the 5x4 grid — 400 routers (six whole words and 16 bits), 320 chiplet
//! nodes — where UPP pops packets up to destinations above node 255, which
//! Fig. 4's 8-bit destination field cannot name.
//!
//! These are debug builds, so every skip is cross-checked on the way, and
//! the work the Fig. 3 recipe costs is counted and pinned per flit-hop —
//! the same with a tracer and a profiler armed as without.

mod common;

use upp_core::{UppConfig, UppStats};
use upp_noc::config::NocConfig;
use upp_noc::fault::{FaultAction, FaultEvent, FaultPlan};
use upp_noc::ids::{Port, VnetId};
use upp_noc::network::{Network, WorkCounts};
use upp_noc::ni::ConsumePolicy;
use upp_noc::profile::SpanRecorder;
use upp_noc::router::VcWords;
use upp_noc::sim::RunOutcome;
use upp_noc::topology::ChipletSystemSpec;
use upp_noc::trace::Tracer;
use upp_workloads::runner::{build_system, SchemeKind};
use upp_workloads::synthetic::{Pattern, SyntheticTraffic};

const SEED: u64 = 2022;

#[derive(Clone, Copy)]
enum Under {
    Upp,
    RemoteControl,
    Nothing,
}

struct Recipe {
    /// Chiplet columns and rows; 2x2 is the baseline.
    grid: (u16, u16),
    scheme: Under,
    pattern: Pattern,
    rate: f64,
    /// `None`: the test pops delivered packets itself, every cycle
    /// (`ConsumePolicy::External`).
    consume_latency: Option<u64>,
    traffic_cycles: u64,
    vcs_per_vnet: usize,
    /// The run is only a test of the recovery datapath if it recovers.
    must_pop_up: bool,
    /// Drive [`fault_plan`] through the run.
    faulted: bool,
    /// The run must end in the watchdog, not drained.
    must_wedge: bool,
    /// Arm a ring tracer and a profiler for the whole run.
    traced: bool,
}

const FIG3: Recipe = Recipe {
    grid: (2, 2),
    scheme: Under::Upp,
    pattern: Pattern::Hotspot,
    rate: 0.06,
    consume_latency: Some(120),
    traffic_cycles: 2_500,
    vcs_per_vnet: 1,
    must_pop_up: true,
    faulted: false,
    must_wedge: false,
    traced: false,
};

const fn idle(vcs_per_vnet: usize) -> Recipe {
    Recipe {
        pattern: Pattern::UniformRandom,
        rate: 0.005,
        consume_latency: Some(1),
        traffic_cycles: 20_000,
        vcs_per_vnet,
        must_pop_up: false,
        ..FIG3
    }
}

const LOADED_4VC: Recipe = Recipe {
    pattern: Pattern::UniformRandom,
    rate: 0.09,
    consume_latency: Some(1),
    traffic_cycles: 6_000,
    vcs_per_vnet: 4,
    must_pop_up: false,
    ..FIG3
};

const FIG3_REMOTE_CONTROL: Recipe = Recipe {
    scheme: Under::RemoteControl,
    must_pop_up: false,
    ..FIG3
};

const WEDGE: Recipe = Recipe {
    scheme: Under::Nothing,
    pattern: Pattern::UniformRandom,
    rate: 0.2,
    consume_latency: Some(1),
    traffic_cycles: 3_000,
    must_pop_up: false,
    must_wedge: true,
    ..FIG3
};

const FAULTED: Recipe = Recipe {
    pattern: Pattern::UniformRandom,
    rate: 0.05,
    consume_latency: None,
    traffic_cycles: 4_000,
    must_pop_up: false,
    faulted: true,
    ..FIG3
};

/// The same plan under the Fig. 3 hotspot recipe with consumers that take
/// 40 cycles (and still pop up): NIs sleep until the consumption timer
/// fires, and paused consumption lets it fire for nothing until the resume
/// wakes the NI.
const FAULTED_CONSUMING: Recipe = Recipe {
    consume_latency: Some(40),
    traffic_cycles: 4_000,
    faulted: true,
    ..FIG3
};

const FIG3_GRID3: Recipe = Recipe {
    grid: (3, 3),
    ..FIG3
};

const FAULTED_GRID3: Recipe = Recipe {
    grid: (3, 3),
    ..FAULTED
};

const SLOW_GRID5X4: Recipe = Recipe {
    grid: (5, 4),
    pattern: Pattern::UniformRandom,
    rate: 0.05,
    consume_latency: Some(40),
    traffic_cycles: 2_000,
    ..FIG3
};

/// Two mesh links (one inside a chiplet, one on the interposer) fail and
/// heal, one endpoint stops injecting and another stops consuming for a
/// while — all over well before the traffic stops.
fn fault_plan(topo: &upp_noc::topology::Topology) -> FaultPlan {
    let inside = topo.chiplets()[0].routers[5];
    let below = topo.interposer_routers()[5];
    let muted = topo.chiplets()[1].routers[2];
    let full = topo.chiplets()[2].routers[9];
    let at = |at, action| FaultEvent { at, action };
    let (fail, heal) = (
        |node, port| FaultAction::FailLink { node, port },
        |node, port| FaultAction::HealLink { node, port },
    );
    FaultPlan::new(vec![
        at(300, fail(inside, Port::East)),
        at(500, fail(below, Port::North)),
        at(600, FaultAction::PauseInjection { node: muted }),
        at(700, FaultAction::PauseConsumption { node: full }),
        at(1_400, heal(inside, Port::East)),
        at(1_700, FaultAction::ResumeInjection { node: muted }),
        at(1_900, heal(below, Port::North)),
        at(2_600, FaultAction::ResumeConsumption { node: full }),
    ])
}

/// Everything the run computed: how it ended and when, full network
/// statistics, UPP's recovery counters.
#[derive(Debug, PartialEq)]
struct Snapshot {
    outcome: RunOutcome,
    end_cycle: u64,
    net: String,
    upp: Option<UppStats>,
}

fn run(recipe: &Recipe, active_scheduler: bool) -> Snapshot {
    run_counted(recipe, active_scheduler).0
}

/// [`run`], with the work it counted and its flit-hops. The counts are not
/// part of the snapshot: the reference kernel steps routers the scheduler
/// lets sleep, so it evaluates more requests for the same outcome.
fn run_counted(recipe: &Recipe, active_scheduler: bool) -> (Snapshot, WorkCounts, u64) {
    let cfg = NocConfig {
        vcs_per_vnet: recipe.vcs_per_vnet,
        ..NocConfig::default()
    };
    let kind = match recipe.scheme {
        Under::Upp => SchemeKind::Upp(UppConfig::default()),
        Under::RemoteControl => SchemeKind::RemoteControl,
        Under::Nothing => SchemeKind::None,
    };
    let consume = match recipe.consume_latency {
        Some(latency) => ConsumePolicy::Immediate { latency },
        None => ConsumePolicy::External,
    };
    let (cols, rows) = recipe.grid;
    let spec = ChipletSystemSpec::grid(cols, rows).expect("the grid fits every id space");
    let mut built = build_system(&spec, cfg, &kind, 0, SEED, consume);
    let sys = &mut built.sys;
    sys.net_mut().set_active_scheduler(active_scheduler);
    if recipe.traced {
        sys.net_mut().set_tracer(Tracer::ring(1 << 12));
        let profiler = Box::new(SpanRecorder::new());
        sys.net_mut().tracer_mut().set_profiler(Some(profiler));
    }
    let mut traffic = SyntheticTraffic::new(sys.net().topo(), recipe.pattern, recipe.rate, SEED);
    let mut plan = if recipe.faulted {
        fault_plan(sys.net().topo())
    } else {
        FaultPlan::empty()
    };
    let endpoints: Vec<_> = sys
        .net()
        .topo()
        .chiplets()
        .iter()
        .flat_map(|c| c.routers.iter().copied())
        .collect();
    // One cycle the way a workload with its own consumers drives it: due
    // faults, then the step, then every unpaused endpoint takes what was
    // delivered to it.
    let external = recipe.consume_latency.is_none();
    let mut cycle = |sys: &mut upp_noc::sim::System| {
        plan.apply_due(sys.net_mut());
        sys.step();
        if !external {
            return;
        }
        for &node in &endpoints {
            if sys.net().ni(node).consumption_paused() {
                continue;
            }
            for v in 0..3 {
                while sys.net_mut().pop_delivered(node, VnetId(v)).is_some() {}
            }
        }
    };
    for _ in 0..recipe.traffic_cycles {
        traffic.tick(sys);
        cycle(sys);
    }
    let outcome = if external {
        let deadline = sys.net().cycle() + 200_000;
        while sys.net().in_flight() > 0 && sys.net().cycle() < deadline {
            cycle(sys);
        }
        match sys.net().in_flight() {
            0 => RunOutcome::Drained {
                at: sys.net().cycle(),
            },
            in_flight => RunOutcome::Timeout { in_flight },
        }
    } else {
        sys.run_until_drained(200_000)
    };
    assert!(plan.exhausted(), "the fault plan must have played out");
    if recipe.must_wedge {
        assert!(
            matches!(outcome, RunOutcome::Deadlocked { .. }),
            "the recipe must wedge, or no router ends up parked for good: {outcome:?}"
        );
    } else {
        assert!(
            matches!(outcome, RunOutcome::Drained { .. }),
            "the recipe must drain: {outcome:?}"
        );
    }
    let upp = built.upp_stats();
    let sys = &built.sys;
    assert!(
        !recipe.must_pop_up || upp.as_ref().is_some_and(|u| u.popups_completed > 0),
        "the recipe must exercise recovery, or the comparison is vacuous: {upp:?}"
    );
    assert!(
        sys.net().stats().packets_ejected > 0,
        "the recipe carried no traffic"
    );
    let stepped = sys.net().active_router_fraction();
    assert!(
        if active_scheduler {
            stepped < 1.0
        } else {
            stepped == 1.0
        },
        "the reference kernel steps every router in every cycle, the scheduler does not: {stepped}"
    );
    let snapshot = Snapshot {
        outcome,
        end_cycle: sys.net().cycle(),
        net: format!("{:?}", sys.net().stats()),
        upp,
    };
    let counted = (
        snapshot,
        sys.net().work_counts(),
        sys.net().stats().flit_hops,
    );
    if !recipe.must_wedge {
        assert_drained_clean(&mut built.sys, active_scheduler);
    }
    counted
}

/// What a drained network still holds. On every router no per-VC word is
/// set: nothing parked, routed `Up` or marked with popup priority outlives
/// its packet. And under the scheduler (the reference kernel keeps every
/// router on its schedule) the endpoints' last consumptions and the
/// protocol's last signals end within a consumption latency and a few
/// hops, after which no router and no NI is scheduled.
fn assert_drained_clean(sys: &mut upp_noc::sim::System, active_scheduler: bool) {
    assert_no_vc_words(sys.net());
    if !active_scheduler {
        return;
    }
    let deadline = sys.net().cycle() + 1_000;
    while !sys.net().is_quiescent() && sys.net().cycle() < deadline {
        sys.step();
    }
    assert!(
        sys.net().is_quiescent(),
        "a drained network is quiescent by cycle {}",
        sys.net().cycle()
    );
    assert_no_vc_words(sys.net());
}

fn assert_no_vc_words(net: &Network) {
    for node in net.topo().nodes() {
        for p in Port::ALL {
            let words = net.router(node.id).vc_words(p);
            assert_eq!(
                words,
                VcWords::default(),
                "{} {p} after the drain at cycle {}",
                node.id,
                net.cycle()
            );
        }
    }
}

/// Skipping idle and blocked routers and NIs must be unobservable: the
/// always-tick kernel is the reference.
#[test]
fn active_set_kernel_matches_the_always_tick_reference() {
    for recipe in [
        FIG3,
        idle(1),
        idle(4),
        LOADED_4VC,
        FIG3_REMOTE_CONTROL,
        WEDGE,
        FAULTED,
        FAULTED_CONSUMING,
        FIG3_GRID3,
        FAULTED_GRID3,
        SLOW_GRID5X4,
    ] {
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

/// Looking changes nothing: the Fig. 3 recipe with a tracer and a
/// profiler armed computes what the plain run computes, and costs the
/// kernel the same work, down to the last `vc_request` (debug builds count
/// them) — a parked VC stays parked, and its span is the tracer's to keep.
#[test]
fn a_traced_fig3_run_does_the_work_of_the_plain_one() {
    let traced = Recipe {
        traced: true,
        ..FIG3
    };
    assert_eq!(run_counted(&traced, true), run_counted(&FIG3, true));
}

/// What the Fig. 3 recipe costs the loops a stalled network spends its
/// time in — switch allocation's request predicate and UPP's tick — as
/// exact counts per flit-hop, under UPP, remote control and no scheme at
/// all (the last on the wedge recipe: the same traffic drains under
/// neither). A change to that work shows here as a diff to explain
/// (refresh with `UPP_UPDATE_GOLDENS=1`); a change that claims less work
/// states the old and new figures. Counted in debug builds only.
#[cfg(debug_assertions)]
#[test]
fn fig3_work_per_flit_hop_is_pinned() {
    let legs = [
        ("upp", FIG3),
        ("remote_control", FIG3_REMOTE_CONTROL),
        ("none", WEDGE),
    ];
    let mut golden = String::from("{\n");
    for (l, (leg, recipe)) in legs.iter().enumerate() {
        let (_, work, hops) = run_counted(recipe, true);
        let per_hop = |n: u64| format!("{:.4}", n as f64 / hops as f64);
        let rows = [
            ("vc_requests", work.vc_requests),
            ("vc_requests_failed", work.vc_requests_failed),
            ("vcs_rearmed", work.vcs_rearmed),
            ("upward_tests", work.upward_tests),
            ("candidate_lists", work.candidate_lists),
            ("scheme_visits", work.scheme_visits),
            ("scheme_slots_examined", work.scheme_slots_examined),
            ("mark_vcs_scanned", work.mark_vcs_scanned),
        ];
        golden += &format!("  \"{leg}\": {{\n    \"flit_hops\": {hops},\n");
        for (i, (name, n)) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            golden += &format!(
                "    \"{name}\": {{\"count\": {n}, \"per_flit_hop\": {}}}{sep}\n",
                per_hop(*n)
            );
        }
        golden += if l + 1 == legs.len() {
            "  }\n"
        } else {
            "  },\n"
        };
    }
    golden += "}\n";
    common::check_golden("work_counts_fig3.json", &golden);
}
