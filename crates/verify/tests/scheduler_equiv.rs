//! Scheduler-equivalence properties: the active-set cycle scheduler (skip
//! idle and blocked routers/NIs) must be unobservable.
//! For random scenarios across every recovery scheme, a run with the
//! scheduler on and the same run with it off must produce identical
//! delivered-packet multisets, identical verdicts at identical cycles,
//! identical latency-attribution profiles and identical health-monitor
//! alert streams — the scheduler may only change
//! how fast wall-clock time passes, never what the simulation computes.

use proptest::prelude::*;
use upp_core::UppConfig;
use upp_noc::config::NocConfig;
use upp_noc::ni::ConsumePolicy;
use upp_noc::sim::RunOutcome;
use upp_noc::topology::{ChipletSystemSpec, SystemKind};
use upp_verify::scenario::{random_scenario, CampaignParams};
use upp_verify::{oracle_for, run_scenario_with, RunReport};
use upp_workloads::runner::{build_system, SchemeKind};
use upp_workloads::synthetic::{Pattern, SyntheticTraffic};

const SCHEMES: [&str; 3] = ["UPP", "remote-control", "composable"];

/// Everything a run observably computed, with `Verdict` flattened to its
/// debug form (it carries no `PartialEq`).
fn observables(r: &RunReport) -> (usize, String, String) {
    (
        r.created,
        format!("{:?}", r.verdict),
        format!("{}", r.end_cycle),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Full-scenario equivalence on the mini system: traffic, dynamic
    /// faults and pauses, all three recovery schemes, per-cycle stepping
    /// harness (exercises idle-component skipping).
    #[test]
    fn scheduler_is_unobservable_in_scenario_runs(
        seed in 0u64..5_000,
        scheme_ix in 0usize..SCHEMES.len(),
        rate_milli in 15u64..60,
        faulty in any::<bool>(),
    ) {
        let label = SCHEMES[scheme_ix];
        // The composable search requires a fault-free system (Sec. VI-B).
        prop_assume!(!faulty || label != "composable");
        let params = CampaignParams {
            rate: rate_milli as f64 / 1000.0,
            link_faults: if faulty { 2 } else { 0 },
            throttles: if faulty { 1 } else { 0 },
            ..CampaignParams::default()
        };
        let mut sc = random_scenario(&params, seed).expect("valid params");
        sc.scheme = label.into();
        let oracle = oracle_for(&sc);
        let on = run_scenario_with(&sc, oracle, true);
        let off = run_scenario_with(&sc, oracle, false);
        prop_assert_eq!(observables(&on), observables(&off), "run shape diverged");
        prop_assert_eq!(&on.sent, &off.sent, "accepted-send multiset diverged");
        prop_assert_eq!(&on.delivered, &off.delivered, "delivered multiset diverged");
        prop_assert_eq!(&on.profile, &off.profile, "latency profile diverged");
        prop_assert_eq!(&on.alerts, &off.alerts, "alert stream diverged");
    }

    /// Kernel against the always-tick reference on the full baseline
    /// system, across a traffic burst and the `run_until_drained` after it,
    /// where the network empties and the wake sets with it. Outcomes
    /// (including the exact drain cycle) and the complete stats snapshot
    /// must match byte for byte.
    #[test]
    fn burst_and_drain_match_the_reference(
        kind_ix in 0usize..4,
        pattern_ix in 0usize..3,
        vcs in prop_oneof![Just(1usize), Just(2)],
        seed in 0u64..5_000,
        rate_milli in 10u64..70,
    ) {
        let kind = match kind_ix {
            0 => SchemeKind::Upp(UppConfig::default()),
            1 => SchemeKind::Upp(UppConfig::with_threshold(6)),
            2 => SchemeKind::Composable,
            _ => SchemeKind::RemoteControl,
        };
        let pattern = match pattern_ix {
            0 => Pattern::UniformRandom,
            1 => Pattern::Transpose,
            _ => Pattern::BitComplement,
        };
        let run = |scheduler: bool| -> (RunOutcome, u64, String) {
            let spec = ChipletSystemSpec::of_kind(SystemKind::Baseline);
            let cfg = NocConfig::default().with_vcs_per_vnet(vcs);
            let built = build_system(
                &spec,
                cfg,
                &kind,
                0,
                seed,
                ConsumePolicy::Immediate { latency: 1 },
            );
            let mut sys = built.sys;
            sys.net_mut().set_active_scheduler(scheduler);
            let rate = rate_milli as f64 / 1000.0;
            let mut traffic = SyntheticTraffic::new(sys.net().topo(), pattern, rate, seed);
            for _ in 0..300 {
                traffic.tick(&mut sys);
                sys.step();
            }
            let out = sys.run_until_drained(200_000);
            let stats = serde_json::to_string(sys.net().stats()).expect("serializable");
            (out, sys.net().cycle(), stats)
        };
        let on = run(true);
        let off = run(false);
        prop_assert_eq!(on.0, off.0, "drain outcome diverged");
        prop_assert_eq!(on.1, off.1, "final cycle diverged");
        prop_assert_eq!(on.2, off.2, "stats snapshot diverged");
    }

    /// Telemetry equivalence: the protocol-state registry (`--obs`) reads
    /// protocol structures the scheduler is allowed to skip over, so its
    /// exported bytes — the full summary *and* every epoch line — must be
    /// identical between the active-set and always-tick kernels. Hotspot
    /// traffic with slow consumption keeps the popup path busy, and the
    /// drain loop runs under manual stepping so epoch cuts land on the
    /// same cycles in both runs.
    #[test]
    fn telemetry_bytes_are_scheduler_invariant(
        kind_ix in 0usize..3,
        seed in 0u64..5_000,
        rate_milli in 20u64..70,
    ) {
        let kind = match kind_ix {
            0 => SchemeKind::Upp(UppConfig::default()),
            1 => SchemeKind::Composable,
            _ => SchemeKind::RemoteControl,
        };
        let run = |scheduler: bool| -> (String, Vec<String>) {
            let spec = ChipletSystemSpec::of_kind(SystemKind::Baseline);
            let built = build_system(
                &spec,
                NocConfig::default(),
                &kind,
                0,
                seed,
                ConsumePolicy::Immediate { latency: 40 },
            );
            let mut sys = built.sys;
            sys.net_mut().set_active_scheduler(scheduler);
            sys.net_mut().enable_obs();
            let rate = rate_milli as f64 / 1000.0;
            let mut traffic =
                SyntheticTraffic::new(sys.net().topo(), Pattern::Hotspot, rate, seed);
            let mut epochs = Vec::new();
            let cut = |sys: &mut upp_noc::sim::System| {
                sys.observe();
                let c = sys.net().cycle();
                sys.net_mut().obs_mut().take_epoch(c).jsonl()
            };
            for c in 0..600u64 {
                traffic.tick(&mut sys);
                sys.step();
                if c % 100 == 99 {
                    epochs.push(cut(&mut sys));
                }
            }
            let mut extra = 0u64;
            while sys.net().in_flight() > 0 && !sys.net().stalled() && extra < 100_000 {
                sys.step();
                extra += 1;
                if extra.is_multiple_of(100) {
                    epochs.push(cut(&mut sys));
                }
            }
            sys.observe();
            (sys.net().obs().summary(sys.net().cycle()).summary_json(), epochs)
        };
        let on = run(true);
        let off = run(false);
        prop_assert_eq!(on.0, off.0, "obs summary bytes diverged");
        prop_assert_eq!(on.1, off.1, "obs epoch stream diverged");
    }

    /// Descriptor-arena churn equivalence: sustained traffic long enough
    /// that the packet-descriptor slab recycles every handle many times
    /// over (created packets ≥ 2x the slab's peak footprint). Handle reuse
    /// must be unobservable to the active-set scheduler: full stats
    /// snapshots, the delivered multiset, latency-profile bytes, telemetry
    /// bytes and the memory report must be identical on/off.
    #[test]
    fn descriptor_churn_is_scheduler_invariant(
        kind_ix in 0usize..3,
        seed in 0u64..5_000,
        rate_milli in 25u64..60,
    ) {
        let kind = match kind_ix {
            0 => SchemeKind::Upp(UppConfig::default()),
            1 => SchemeKind::Composable,
            _ => SchemeKind::RemoteControl,
        };
        let run = |scheduler: bool| -> (String, String, String, upp_tracetools::ProfileSummary, String) {
            let spec = ChipletSystemSpec::of_kind(SystemKind::Baseline);
            let built = build_system(
                &spec,
                NocConfig::default(),
                &kind,
                0,
                seed,
                ConsumePolicy::External,
            );
            let mut sys = built.sys;
            sys.net_mut().set_active_scheduler(scheduler);
            sys.net_mut().enable_obs();
            sys.net_mut()
                .tracer_mut()
                .set_profiler(Some(Box::new(upp_noc::profile::SpanRecorder::new())));
            let endpoints: Vec<upp_noc::ids::NodeId> = {
                let topo = sys.net().topo();
                topo.chiplets()
                    .iter()
                    .flat_map(|c| c.routers.iter().copied())
                    .collect()
            };
            let num_vnets = sys.net().cfg().num_vnets;
            let rate = rate_milli as f64 / 1000.0;
            let mut traffic =
                SyntheticTraffic::new(sys.net().topo(), Pattern::UniformRandom, rate, seed);
            let mut delivered: std::collections::BTreeMap<(u32, u32, u8, u16), usize> =
                std::collections::BTreeMap::new();
            let mut pop_all = |sys: &mut upp_noc::sim::System| {
                for &node in &endpoints {
                    for v in 0..num_vnets {
                        while let Some(d) =
                            sys.net_mut().pop_delivered(node, upp_noc::ids::VnetId(v as u8))
                        {
                            *delivered
                                .entry((d.pkt.src.0, d.pkt.dest.0, d.pkt.vnet.0, d.pkt.len_flits))
                                .or_default() += 1;
                        }
                    }
                }
            };
            for _ in 0..1_500u64 {
                traffic.tick(&mut sys);
                sys.step();
                pop_all(&mut sys);
            }
            let mut extra = 0u64;
            while sys.net().in_flight() > 0 && !sys.net().stalled() && extra < 200_000 {
                sys.step();
                pop_all(&mut sys);
                extra += 1;
            }
            let mem = sys.net().mem_report();
            assert!(
                sys.net().stats().packets_created as usize >= 2 * mem.arena_slots,
                "churn too weak to exercise handle recycling: {} created vs {} slots",
                sys.net().stats().packets_created,
                mem.arena_slots
            );
            let mut profile = upp_tracetools::ProfileSummary::new("baseline", "churn");
            if let Some(mut rec) = sys.net_mut().tracer_mut().set_profiler(None) {
                profile.absorb_recorder(&mut rec);
            }
            sys.observe();
            let delivered_json = format!("{delivered:?}");
            (
                serde_json::to_string(sys.net().stats()).expect("serializable"),
                delivered_json,
                sys.net().obs().summary(sys.net().cycle()).summary_json(),
                profile,
                serde_json::to_string(&mem).expect("serializable"),
            )
        };
        let on = run(true);
        let off = run(false);
        prop_assert_eq!(&on.0, &off.0, "stats snapshot diverged under churn");
        prop_assert_eq!(&on.1, &off.1, "delivered multiset diverged under churn");
        prop_assert_eq!(&on.2, &off.2, "obs bytes diverged under churn");
        prop_assert_eq!(&on.3, &off.3, "profile diverged under churn");
        prop_assert_eq!(&on.4, &off.4, "memory report diverged under churn");
    }
}
