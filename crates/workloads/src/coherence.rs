//! A MESI-style directory-coherence traffic engine — the full-system
//! substitute for the gem5 PARSEC/SPLASH-2 runs of Figs. 8/12/15.
//!
//! Every chiplet router hosts a core; eight directories live on the
//! interposer (Table II). Three message classes map onto the three VNets of
//! the paper's configuration:
//!
//! * VNet 0 — requests (core → directory, 1-flit control);
//! * VNet 1 — forwards (directory → sharer core, 1-flit control);
//! * VNet 2 — data responses and writebacks (5-flit data).
//!
//! The message-dependency chain request → forward → response is acyclic, so
//! protocol deadlocks are excluded by the VNets (the paper's footnote 1);
//! what remains is exactly the routing-deadlock exposure UPP targets.
//! Consumption follows the rule of Sec. V-B4: responses are always consumed;
//! requests and forwards are consumed only when the reply they generate has
//! injection-queue space, so ejection queues drain and `UPP_req` reservations
//! eventually succeed.

use crate::profiles::BenchmarkProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::HashMap;
use upp_noc::ids::{Cycle, NodeId, PacketId, VnetId};
use upp_noc::sim::System;
use upp_noc::topology::Topology;

const VNET_REQ: VnetId = VnetId(0);
const VNET_FWD: VnetId = VnetId(1);
const VNET_RESP: VnetId = VnetId(2);

/// Why a packet was sent (tracked out of band; real hardware would carry it
/// in the packet payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MsgKind {
    /// Core -> directory request; the directory must answer `requester`.
    Request { requester: NodeId },
    /// Directory -> sharer forward; the sharer must send data to
    /// `requester`.
    Forward { requester: NodeId },
    /// Data to a core: completes that core's transaction.
    Response,
    /// Dirty data to a directory: terminating.
    Writeback,
}

#[derive(Debug, Clone, Copy, Default)]
struct CoreState {
    issued: u64,
    completed: u64,
    outstanding: usize,
}

/// Outcome of a full coherence run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RuntimeResult {
    /// Cycles until every core finished its transactions.
    pub cycles: Cycle,
    /// Total packets delivered.
    pub packets: u64,
    /// Total flits delivered.
    pub flits: u64,
    /// Mean packet network latency.
    pub avg_net_latency: f64,
    /// True if the run hit the cycle cap or wedged (never with a working
    /// scheme).
    pub incomplete: bool,
}

/// The coherence engine driving one [`System`].
pub struct CoherenceEngine {
    profile: BenchmarkProfile,
    cores: Vec<NodeId>,
    core_state: Vec<CoreState>,
    dirs: Vec<NodeId>,
    kinds: HashMap<PacketId, MsgKind>,
    rng: SmallRng,
    data_flits: u16,
    /// Packets the engine failed to enqueue and must retry.
    backlog: Vec<(NodeId, NodeId, VnetId, u16, MsgKind)>,
}

impl std::fmt::Debug for CoherenceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoherenceEngine")
            .field("benchmark", &self.profile.name)
            .field("cores", &self.cores.len())
            .field("dirs", &self.dirs.len())
            .finish_non_exhaustive()
    }
}

/// Picks the eight directory nodes: evenly spread interposer routers
/// (Table II: "8 directories on the interposer").
pub fn directory_nodes(topo: &Topology) -> Vec<NodeId> {
    let routers = topo.interposer_routers();
    let step = (routers.len() / 8).max(1);
    routers.iter().copied().step_by(step).take(8).collect()
}

impl CoherenceEngine {
    /// Creates an engine for `profile` over the system's topology.
    pub fn new(sys: &System, profile: BenchmarkProfile, seed: u64) -> Self {
        let topo = sys.net().topo();
        let cores: Vec<NodeId> = topo
            .chiplets()
            .iter()
            .flat_map(|c| c.routers.iter().copied())
            .collect();
        let dirs = directory_nodes(topo);
        let n = cores.len();
        Self {
            profile,
            cores,
            core_state: vec![CoreState::default(); n],
            dirs,
            kinds: HashMap::new(),
            rng: SmallRng::seed_from_u64(seed ^ 0x5a17_c0de_5eed_0001),
            data_flits: sys.net().cfg().data_packet_flits as u16,
            backlog: Vec::new(),
        }
    }

    /// True when every core has completed its transaction quota and the
    /// network has drained.
    pub fn done(&self, sys: &System) -> bool {
        self.backlog.is_empty()
            && sys.net().in_flight() == 0
            && self
                .core_state
                .iter()
                .all(|c| c.completed >= self.profile.transactions)
    }

    /// Total transactions completed so far.
    pub fn completed(&self) -> u64 {
        self.core_state.iter().map(|c| c.completed).sum()
    }

    fn send(
        &mut self,
        sys: &mut System,
        src: NodeId,
        dest: NodeId,
        vnet: VnetId,
        len: u16,
        kind: MsgKind,
    ) {
        match sys.send(src, dest, vnet, len) {
            Some(id) => {
                self.kinds.insert(id, kind);
            }
            None => self.backlog.push((src, dest, vnet, len, kind)),
        }
    }

    /// One engine cycle: consume deliveries per the Sec. V-B4 rule, then
    /// issue new requests. Call before `System::step`.
    pub fn tick(&mut self, sys: &mut System) {
        // Retry backlogged sends first (sources whose queues were full).
        let backlog = std::mem::take(&mut self.backlog);
        for (src, dest, vnet, len, kind) in backlog {
            self.send(sys, src, dest, vnet, len, kind);
        }

        // Directory-side consumption.
        for di in 0..self.dirs.len() {
            let d = self.dirs[di];
            // Writebacks (responses class) are terminating: always consume.
            while let Some(del) = sys.net_mut().pop_delivered(d, VNET_RESP) {
                let kind = self.kinds.remove(&del.pkt.id);
                debug_assert!(matches!(kind, Some(MsgKind::Writeback)));
            }
            // Requests: consume only when the reply can be buffered
            // (response or forward injection space), mirroring the paper's
            // PE rule so ejection entries always eventually free up.
            loop {
                let can_reply =
                    sys.net().ni(d).can_enqueue(VNET_RESP) && sys.net().ni(d).can_enqueue(VNET_FWD);
                if !can_reply {
                    break;
                }
                let Some(del) = sys.net_mut().pop_delivered(d, VNET_REQ) else {
                    break;
                };
                let Some(MsgKind::Request { requester }) = self.kinds.remove(&del.pkt.id) else {
                    debug_assert!(false, "directory got a non-request on VNet 0");
                    continue;
                };
                if self.rng.gen::<f64>() < self.profile.fwd_prob {
                    // 3-hop: forward to a sharer that owns the line.
                    let sharer = self.pick_sharer(sys, requester);
                    self.send(sys, d, sharer, VNET_FWD, 1, MsgKind::Forward { requester });
                } else {
                    self.send(
                        sys,
                        d,
                        requester,
                        VNET_RESP,
                        self.data_flits,
                        MsgKind::Response,
                    );
                }
            }
        }

        // Core-side consumption.
        for ci in 0..self.cores.len() {
            let c = self.cores[ci];
            // Responses terminate: always consume.
            while let Some(del) = sys.net_mut().pop_delivered(c, VNET_RESP) {
                let kind = self.kinds.remove(&del.pkt.id);
                debug_assert!(matches!(kind, Some(MsgKind::Response)));
                let st = &mut self.core_state[ci];
                st.outstanding = st.outstanding.saturating_sub(1);
                st.completed += 1;
                // Occasionally the line was dirty: emit a writeback.
                if self.rng.gen::<f64>() < self.profile.wb_prob {
                    let d = self.dirs[self.rng.gen_range(0..self.dirs.len())];
                    self.send(sys, c, d, VNET_RESP, self.data_flits, MsgKind::Writeback);
                }
            }
            // Forwards: consumed when the data response can be buffered.
            while sys.net().ni(c).can_enqueue(VNET_RESP) {
                let Some(del) = sys.net_mut().pop_delivered(c, VNET_FWD) else {
                    break;
                };
                let Some(MsgKind::Forward { requester }) = self.kinds.remove(&del.pkt.id) else {
                    debug_assert!(false, "core got a non-forward on VNet 1");
                    continue;
                };
                self.send(
                    sys,
                    c,
                    requester,
                    VNET_RESP,
                    self.data_flits,
                    MsgKind::Response,
                );
            }
        }

        // Issue new requests.
        let now = sys.net().cycle();
        let intensity = self.profile.intensity_at(now);
        for ci in 0..self.cores.len() {
            let st = self.core_state[ci];
            if st.outstanding >= self.profile.window
                || st.issued >= self.profile.transactions
                || self.rng.gen::<f64>() >= intensity
            {
                continue;
            }
            let c = self.cores[ci];
            let d = self.dirs[self.rng.gen_range(0..self.dirs.len())];
            self.core_state[ci].issued += 1;
            self.core_state[ci].outstanding += 1;
            self.send(sys, c, d, VNET_REQ, 1, MsgKind::Request { requester: c });
        }
    }

    fn pick_sharer(&mut self, sys: &System, requester: NodeId) -> NodeId {
        let topo = sys.net().topo();
        if self.rng.gen::<f64>() < self.profile.local_sharer {
            let c = topo.chiplet_of(requester).expect("cores live in chiplets");
            let routers = &topo.chiplet(c).routers;
            loop {
                let s = routers[self.rng.gen_range(0..routers.len())];
                if s != requester {
                    return s;
                }
            }
        }
        loop {
            let s = self.cores[self.rng.gen_range(0..self.cores.len())];
            if s != requester {
                return s;
            }
        }
    }
}

/// Runs `profile` to completion on `sys`, returning the runtime.
///
/// `cap` bounds the run; hitting it (or a watchdog stall) marks the result
/// incomplete.
pub fn run_benchmark(
    sys: &mut System,
    profile: BenchmarkProfile,
    seed: u64,
    cap: Cycle,
) -> RuntimeResult {
    let mut engine = CoherenceEngine::new(sys, profile, seed);
    let mut incomplete = false;
    while !engine.done(sys) {
        if sys.net().cycle() >= cap || sys.net().stalled() {
            incomplete = true;
            break;
        }
        engine.tick(sys);
        sys.step();
    }
    // Pop any terminating messages (writebacks) delivered by the final step.
    engine.tick(sys);
    let stats = sys.net().stats();
    RuntimeResult {
        cycles: sys.net().cycle(),
        packets: stats.packets_ejected,
        flits: stats.flits_ejected,
        avg_net_latency: stats.avg_net_latency(),
        incomplete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::benchmark;
    use crate::runner::{build_system, SchemeKind};
    use upp_core::UppConfig;
    use upp_noc::config::NocConfig;
    use upp_noc::ni::ConsumePolicy;
    use upp_noc::topology::ChipletSystemSpec;

    fn quick_profile() -> BenchmarkProfile {
        let mut b = benchmark("bodytrack").unwrap();
        b.transactions = 40;
        b
    }

    fn build(kind: &SchemeKind, seed: u64) -> System {
        build_system(
            &ChipletSystemSpec::baseline(),
            NocConfig::default(),
            kind,
            0,
            seed,
            ConsumePolicy::External,
        )
        .sys
    }

    #[test]
    fn benchmark_completes_under_upp() {
        let mut sys = build(&SchemeKind::Upp(UppConfig::default()), 1);
        let r = run_benchmark(&mut sys, quick_profile(), 1, 2_000_000);
        assert!(!r.incomplete, "run must finish: {r:?}");
        // Each transaction is >= 2 packets (request + response).
        assert!(r.packets >= 2 * 40 * 64, "packets {}", r.packets);
        assert!(r.avg_net_latency > 0.0);
    }

    #[test]
    fn benchmark_completes_under_all_schemes() {
        for kind in SchemeKind::evaluated() {
            let mut sys = build(&kind, 2);
            let r = run_benchmark(&mut sys, quick_profile(), 2, 2_000_000);
            assert!(!r.incomplete, "{}: {r:?}", kind.label());
        }
    }

    #[test]
    fn directories_are_on_the_interposer() {
        let sys = build(&SchemeKind::Upp(UppConfig::default()), 3);
        let dirs = directory_nodes(sys.net().topo());
        assert_eq!(dirs.len(), 8);
        for d in dirs {
            assert!(sys.net().topo().is_interposer(d));
        }
    }

    #[test]
    fn transaction_accounting_balances() {
        let mut sys = build(&SchemeKind::Upp(UppConfig::default()), 4);
        let profile = quick_profile();
        let mut engine = CoherenceEngine::new(&sys, profile, 4);
        let cap = 2_000_000;
        while !engine.done(&sys) && sys.net().cycle() < cap {
            engine.tick(&mut sys);
            sys.step();
        }
        assert!(engine.done(&sys), "engine must converge");
        engine.tick(&mut sys); // pop terminating messages from the last step
        assert_eq!(engine.completed(), 40 * 64);
        // All out-of-band metadata consumed: nothing leaked.
        assert!(
            engine.kinds.is_empty(),
            "{} stale packet kinds",
            engine.kinds.len()
        );
    }

    #[test]
    fn heavier_profiles_generate_more_packets() {
        let mut light = benchmark("blackscholes").unwrap();
        light.transactions = 30;
        let mut heavy = benchmark("canneal").unwrap();
        heavy.transactions = 30;
        let mut s1 = build(&SchemeKind::Upp(UppConfig::default()), 5);
        let r1 = run_benchmark(&mut s1, light, 5, 2_000_000);
        let mut s2 = build(&SchemeKind::Upp(UppConfig::default()), 5);
        let r2 = run_benchmark(&mut s2, heavy, 5, 2_000_000);
        assert!(!r1.incomplete && !r2.incomplete);
        assert!(
            r2.packets > r1.packets,
            "canneal ({}) must out-traffic blackscholes ({})",
            r2.packets,
            r1.packets
        );
        assert!(r1.cycles > 0 && r2.cycles > 0);
    }
}
