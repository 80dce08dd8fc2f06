//! Remote control (Majumder et al., IEEE TC 2021) — the injection-control
//! baseline.
//!
//! Deadlocks are avoided by *isolating* inter-chiplet packets from
//! intra-chiplet packets: every boundary router carries data-packet-sized
//! side buffers (four per VC per VNet; the paper's 1-VC configuration has
//! four) that absorb all traffic entering the chiplet, so a stalled
//! inter-chiplet packet can never hold chiplet VC buffers against
//! intra-chiplet traffic. Before an inter-chiplet packet injects, its NI
//! reserves a side-buffer slot over a hard-wired permission subnetwork —
//! a round trip of at least 2 cycles, plus queueing when slots are contended
//! (Sec. III-B of the UPP paper). Crossing the boundary costs one extra
//! pipeline cycle because VA and SA cannot run in parallel there.

use std::collections::VecDeque;
use upp_noc::ids::{Cycle, NodeId, PacketId, Port};
use upp_noc::network::Network;
use upp_noc::ni::PermitState;
use upp_noc::obs::{CounterId, GaugeId};
use upp_noc::scheme::{Scheme, SchemeProperties};

/// Remote-control tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteControlConfig {
    /// Side-buffer slots per boundary router *per VC per VNet* (the paper
    /// uses four data-packet buffers in its 1-VC configuration; the buffers
    /// "can store all inter-chiplet packets", so they scale with the VC
    /// resources feeding them — without scaling, remote control would
    /// starve at 4 VCs far below its published equal-to-UPP saturation).
    pub slots_per_boundary_per_vc: usize,
    /// Minimum permission round-trip in cycles (the paper says minimally 2).
    pub permission_rtt: u64,
}

impl Default for RemoteControlConfig {
    fn default() -> Self {
        Self {
            slots_per_boundary_per_vc: 4,
            permission_rtt: 2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PermitRequest {
    packet: PacketId,
    src: NodeId,
    requested_at: Cycle,
}

/// Per-run counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteControlStats {
    /// Permits requested.
    pub requests: u64,
    /// Permits granted.
    pub grants: u64,
    /// Total cycles packets waited beyond the fixed round trip.
    pub contention_wait_cycles: u64,
}

/// Pre-registered telemetry ids (`Some` only while the network's obs
/// registry is enabled). Permit-queue pressure and absorber occupancy are
/// remote control's analogue of UPP's circuit-table/watchdog pressure:
/// the boundary structures whose growth with system size decides
/// scalability.
#[derive(Debug, Clone, Copy)]
struct RcObs {
    /// Running totals mirrored from [`RemoteControlStats`].
    requests: CounterId,
    grants: CounterId,
    contention_wait: CounterId,
    /// Total queued permit requests across boundaries / deepest queue.
    queue_depth: GaugeId,
    queue_max: GaugeId,
    /// Occupied absorber slots / buffered absorber flits across boundaries.
    absorber_slots: GaugeId,
    absorber_flits: GaugeId,
}

/// The remote-control scheme.
pub struct RemoteControl {
    cfg: RemoteControlConfig,
    /// Ingress boundary routers in topology order, each with its FIFO
    /// permission queue.
    boundaries: Vec<(NodeId, VecDeque<PermitRequest>)>,
    /// `node.index()` to the router's slot in `boundaries`.
    slot_of: Vec<Option<u32>>,
    /// Requests queued over all boundaries.
    pending: usize,
    stats: RemoteControlStats,
    initialized: bool,
    obs: Option<RcObs>,
}

impl std::fmt::Debug for RemoteControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteControl")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl RemoteControl {
    /// Creates the scheme.
    pub fn new(cfg: RemoteControlConfig) -> Self {
        Self {
            cfg,
            boundaries: Vec::new(),
            slot_of: Vec::new(),
            pending: 0,
            stats: RemoteControlStats::default(),
            initialized: false,
            obs: None,
        }
    }

    /// Run counters.
    pub fn stats(&self) -> RemoteControlStats {
        self.stats
    }

    fn ensure_obs(&mut self, net: &mut Network) {
        if self.obs.is_some() || !net.obs().is_enabled() {
            return;
        }
        let o = net.obs_mut();
        self.obs = Some(RcObs {
            requests: o.counter("rc.permits.requested"),
            grants: o.counter("rc.permits.granted"),
            contention_wait: o.counter("rc.permits.contention_wait_cycles"),
            queue_depth: o.gauge("rc.permit_queue.depth"),
            queue_max: o.gauge("rc.permit_queue.max"),
            absorber_slots: o.gauge("rc.absorber.slots_occupied"),
            absorber_flits: o.gauge("rc.absorber.flits"),
        });
    }

    fn initialize(&mut self, net: &mut Network) {
        let boundaries: Vec<NodeId> = net
            .topo()
            .chiplets()
            .iter()
            .flat_map(|c| c.boundary_routers.iter().copied())
            .collect();
        let slots = self.cfg.slots_per_boundary_per_vc * net.cfg().vcs_per_vnet;
        self.slot_of = vec![None; net.topo().nodes().len()];
        for b in boundaries {
            net.router_mut(b).install_absorber(slots);
            self.slot_of[b.index()] = Some(self.boundaries.len() as u32);
            self.boundaries.push((b, VecDeque::new()));
        }
        // Interposer routers feeding an absorber never see Up-port VC
        // backpressure: the side buffer always has room for reserved packets.
        let ups: Vec<NodeId> = net
            .topo()
            .interposer_routers()
            .iter()
            .copied()
            .filter(|&n| net.topo().above(n).is_some())
            .collect();
        for n in ups {
            net.router_mut(n).set_infinite_sink(Port::Up);
        }
        self.initialized = true;
    }
}

impl Scheme for RemoteControl {
    fn name(&self) -> &'static str {
        "remote-control"
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            topology_modularity: true,
            vc_modularity: true,
            flow_control_modularity: true,
            full_path_diversity: true,
            no_injection_control: false,  // the whole point
            topology_independence: false, // hard-wired permission subnetwork
        }
    }

    fn pre_cycle(&mut self, net: &mut Network) {
        if !self.initialized {
            self.initialize(net);
        }
        self.ensure_obs(net);
        if self.pending == 0 {
            return;
        }
        let now = net.cycle();
        // The order across boundaries cannot matter: each grant touches its
        // own boundary's absorber and one packet's permit, and the stats
        // are sums.
        for (b, q) in &mut self.boundaries {
            // One grant per boundary per cycle, FIFO, honouring the fixed
            // round-trip latency and slot availability.
            let Some(req) = q.front().copied() else {
                continue;
            };
            net.count_work(|w| w.scheme_visits += 1);
            if now < req.requested_at + self.cfg.permission_rtt {
                continue;
            }
            let reserved = net
                .router_mut(*b)
                .absorber_mut()
                .expect("absorber installed at attach")
                .reserve(req.packet);
            if !reserved {
                self.stats.contention_wait_cycles += 1;
                continue;
            }
            net.set_injection_permit(req.src, req.packet, PermitState::Granted);
            q.pop_front();
            self.pending -= 1;
            self.stats.grants += 1;
        }
    }

    fn observe(&mut self, net: &mut Network) {
        if !net.obs().is_enabled() {
            return;
        }
        if !self.initialized {
            self.initialize(net);
        }
        self.ensure_obs(net);
        let Some(o) = self.obs else { return };
        // Permit-queue pressure: total backlog plus the deepest single
        // queue.
        let depth = self.pending as u64;
        let mut deepest = 0u64;
        let mut slots = 0u64;
        let mut flits = 0u64;
        for (b, q) in &self.boundaries {
            deepest = deepest.max(q.len() as u64);
            if let Some(abs) = net.router(*b).absorber() {
                let (occupied, buffered) = abs.occupancy();
                slots += occupied as u64;
                flits += buffered as u64;
            }
        }
        let obs = net.obs_mut();
        // The stats fields are monotonic running totals, so replaying them
        // through `counter_record_total` keeps epoch deltas exact.
        obs.counter_record_total(o.requests, self.stats.requests);
        obs.counter_record_total(o.grants, self.stats.grants);
        obs.counter_record_total(o.contention_wait, self.stats.contention_wait_cycles);
        obs.gauge_set(o.queue_depth, depth);
        obs.gauge_set(o.queue_max, deepest);
        obs.gauge_set(o.absorber_slots, slots);
        obs.gauge_set(o.absorber_flits, flits);
    }

    fn on_packet_created(&mut self, net: &mut Network, id: PacketId, src: NodeId, dest: NodeId) {
        if !self.initialized {
            self.initialize(net);
        }
        let plan = net.plan_route(src, dest);
        if !plan.class.ascends() {
            return;
        }
        let entry = plan
            .entry_interposer
            .expect("ascending packets have an entry");
        let boundary = net
            .topo()
            .above(entry)
            .expect("entry interposers sit below boundaries");
        net.set_injection_permit(src, id, PermitState::Waiting);
        let slot = self.slot_of[boundary.index()].expect("all boundaries have permission queues");
        self.boundaries[slot as usize].1.push_back(PermitRequest {
            packet: id,
            src,
            requested_at: net.cycle(),
        });
        self.pending += 1;
        self.stats.requests += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upp_noc::config::NocConfig;
    use upp_noc::ids::VnetId;
    use upp_noc::network::Network;
    use upp_noc::ni::ConsumePolicy;
    use upp_noc::routing::ChipletRouting;
    use upp_noc::sim::{RunOutcome, System};
    use upp_noc::topology::ChipletSystemSpec;

    fn system() -> System {
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let net = Network::new(
            NocConfig::default(),
            topo,
            Arc::new(ChipletRouting::xy()),
            ConsumePolicy::Immediate { latency: 1 },
            5,
        );
        System::new(
            net,
            Box::new(RemoteControl::new(RemoteControlConfig::default())),
        )
    }

    #[test]
    fn inter_chiplet_packets_wait_for_permission() {
        let mut sys = system();
        let src = sys.net().topo().chiplets()[0].routers[0];
        let dest = sys.net().topo().chiplets()[1].routers[9];
        sys.send(src, dest, VnetId(0), 5).unwrap();
        // For the first two cycles the permit is pending and nothing injects.
        sys.run(2);
        assert_eq!(
            sys.net().stats().packets_injected,
            0,
            "held by injection control"
        );
        assert!(matches!(
            sys.run_until_drained(2_000),
            RunOutcome::Drained { .. }
        ));
        assert_eq!(sys.net().stats().packets_ejected, 1);
    }

    #[test]
    fn intra_chiplet_packets_skip_injection_control() {
        let mut sys = system();
        let c = &sys.net().topo().chiplets()[0];
        let (src, dest) = (c.routers[0], c.routers[5]);
        sys.send(src, dest, VnetId(0), 1).unwrap();
        sys.run(3);
        assert_eq!(sys.net().stats().packets_injected, 1, "no permit needed");
        assert!(matches!(
            sys.run_until_drained(1_000),
            RunOutcome::Drained { .. }
        ));
    }

    #[test]
    fn slot_contention_serialises_heavy_ingress() {
        let mut sys = system();
        let dest = sys.net().topo().chiplets()[2].routers[10];
        let sources: Vec<NodeId> = sys.net().topo().chiplets()[0].routers.clone();
        let mut sent = 0;
        for &s in &sources {
            if sys.send(s, dest, VnetId(1), 5).is_some() {
                sent += 1;
            }
        }
        let out = sys.run_until_drained(20_000);
        assert!(matches!(out, RunOutcome::Drained { .. }), "got {out:?}");
        assert_eq!(sys.net().stats().packets_ejected, sent);
    }

    #[test]
    fn heavy_cross_traffic_never_deadlocks() {
        let mut sys = system();
        let nodes: Vec<NodeId> = sys
            .net()
            .topo()
            .chiplets()
            .iter()
            .flat_map(|c| c.routers.iter().copied())
            .collect();
        let n = nodes.len();
        let mut sent = 0u64;
        for round in 0..8 {
            for (i, &s) in nodes.iter().enumerate() {
                let d = nodes[(i + n / 2 + round) % n];
                if s == d {
                    continue;
                }
                if sys
                    .send(s, d, VnetId((i % 3) as u8), if i % 2 == 0 { 5 } else { 1 })
                    .is_some()
                {
                    sent += 1;
                }
            }
            sys.run(20);
        }
        let out = sys.run_until_drained(100_000);
        assert!(matches!(out, RunOutcome::Drained { .. }), "got {out:?}");
        assert_eq!(sys.net().stats().packets_ejected, sent);
    }

    #[test]
    fn telemetry_reports_permit_and_absorber_pressure() {
        let mut sys = system();
        sys.net_mut().enable_obs();
        let dest = sys.net().topo().chiplets()[2].routers[10];
        let sources: Vec<NodeId> = sys.net().topo().chiplets()[0].routers.clone();
        for &s in &sources {
            let _ = sys.send(s, dest, VnetId(1), 5);
        }
        // Mid-flight sample: permits are still queued behind the RTT and the
        // one-grant-per-boundary pacing.
        sys.run(2);
        sys.observe();
        let obs = sys.net().obs();
        assert!(obs.counter_value("rc.permits.requested") > 0);
        let (_, depth_high) = obs.gauge_value("rc.permit_queue.depth");
        assert!(depth_high > 0, "queued permits must register as depth");
        // Gauges are sampled, so observe periodically to catch the absorbers
        // while they hold packets.
        for _ in 0..2_000 {
            sys.run(10);
            sys.observe();
            if sys.net().in_flight() == 0 {
                break;
            }
        }
        assert_eq!(sys.net().in_flight(), 0, "run must drain");
        let obs = sys.net().obs();
        assert_eq!(
            obs.counter_value("rc.permits.granted"),
            obs.counter_value("rc.permits.requested"),
            "a drained run granted every permit"
        );
        let (depth_now, _) = obs.gauge_value("rc.permit_queue.depth");
        assert_eq!(depth_now, 0, "drained network has no queued permits");
        let (_, slots_high) = obs.gauge_value("rc.absorber.slots_occupied");
        assert!(slots_high > 0, "absorbers held packets during the run");
    }

    #[test]
    fn properties_match_table_i() {
        let rc = RemoteControl::new(RemoteControlConfig::default());
        let p = rc.properties();
        assert!(p.topology_modularity && p.vc_modularity && p.flow_control_modularity);
        assert!(p.full_path_diversity);
        assert!(!p.no_injection_control);
        assert!(!p.topology_independence);
    }
}
