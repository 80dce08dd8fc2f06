//! The UPP deadlock-recovery scheme (Secs. IV and V).
//!
//! UPP permits integration-induced deadlocks to form in the fully unrestricted
//! network, detects them with per-VNet timeout counters on the interposer
//! routers, and recovers by *popping up* the stalled upward packet: an
//! `UPP_req` reserves an ejection-queue entry at the destination NI and sets
//! up a buffer-bypass circuit on its way; the returning `UPP_ack` starts the
//! popup; upward flits then cross each chiplet router in a single
//! switch-traversal stage. False positives (congestion mistaken for
//! deadlock) cost only the signal bandwidth: if the packet proceeds normally
//! an `UPP_stop` recycles the reservation and the late ack is dropped.

use crate::detect::{up_sent_recently, UppCounter, UpwardArbiter};
use crate::protocol::{self, PopupStage};
use crate::signal::SignalKind;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use upp_noc::control::{ControlClass, ControlMsg, ControlRoute, DeliveredControl};
use upp_noc::ids::{ChipletId, Cycle, NodeId, PacketId, Port, VnetId};
use upp_noc::network::{Network, UpwardCandidate};
use upp_noc::obs::{CounterId, GaugeId, HistId};
use upp_noc::packet::RouteInfo;
use upp_noc::router::Router;
use upp_noc::scheme::{Scheme, SchemeProperties};
use upp_noc::trace::TraceEvent;

/// UPP tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct UppConfig {
    /// Deadlock-detection timeout in cycles (Table II uses 20).
    pub threshold: u64,
    /// Serialise popups per (chiplet, VNet) instead of relying on the
    /// destination-keyed circuit table (the paper's interposer-coordination
    /// alternative, Sec. V-B5).
    pub serialize_per_chiplet: bool,
}

impl Default for UppConfig {
    fn default() -> Self {
        Self {
            threshold: protocol::DEFAULT_DETECTION_THRESHOLD,
            serialize_per_chiplet: false,
        }
    }
}

impl UppConfig {
    /// Config with a custom detection threshold (Fig. 13 sweeps 20/100/1000).
    pub fn with_threshold(threshold: u64) -> Self {
        Self {
            threshold,
            ..Self::default()
        }
    }
}

/// Counters describing one run's recovery activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct UppStats {
    /// Upward packets selected by detection (the metric of Figs. 12/13).
    pub upward_packets: u64,
    /// Popups that transmitted a packet to its destination NI.
    pub popups_completed: u64,
    /// Popups that started mid-worm inside the chiplet (Sec. V-B3).
    pub partial_popups: u64,
    /// `UPP_req` signals emitted.
    pub reqs_sent: u64,
    /// `UPP_ack` signals emitted.
    pub acks_sent: u64,
    /// `UPP_stop` signals emitted (false positives that made progress).
    pub stops_sent: u64,
    /// Stale acks discarded at interposer routers.
    pub acks_dropped: u64,
    /// Cycles a reservation request waited for a free ejection entry.
    pub reservation_retries: u64,
    /// Total cycles between upward-packet selection and popup completion,
    /// summed over completed popups (divide by `popups_completed` for the
    /// mean recovery latency).
    pub recovery_cycles: u64,
    /// Cycles spent between selection and the `UPP_ack` arriving, summed
    /// over completed popups (the `WaitAck` stage of the recovery span).
    pub wait_ack_cycles: u64,
    /// Cycles spent searching for a partly-transmitted worm's head flit,
    /// summed over completed popups (zero for full popups).
    pub locate_cycles: u64,
    /// Cycles spent actually popping flits through the bypass path, summed
    /// over completed popups.
    pub pop_cycles: u64,
}

impl UppStats {
    /// Reads a consistent copy out of a shared handle. Tolerates a poisoned
    /// mutex (a panicked sweep worker must not cascade into every thread
    /// that later reads the same counters).
    pub fn snapshot(handle: &UppStatsHandle) -> UppStats {
        *handle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Mean cycles from detection to delivered popup.
    pub fn avg_recovery_latency(&self) -> f64 {
        if self.popups_completed == 0 {
            0.0
        } else {
            self.recovery_cycles as f64 / self.popups_completed as f64
        }
    }
}

/// Shared handle to a run's [`UppStats`].
pub type UppStatsHandle = Arc<Mutex<UppStats>>;

#[derive(Debug, Clone, Copy)]
enum Stage {
    Idle,
    /// Req queued/sent; waiting for the ack.
    WaitAck {
        cand: UpwardCandidate,
        selected_at: Cycle,
    },
    /// Ack received, head still at the interposer: popping flits up the
    /// bypass path.
    PopInterposer {
        cand: UpwardCandidate,
        selected_at: Cycle,
        acked_at: Cycle,
    },
    /// Ack received for a partly-transmitted worm: searching for the router
    /// currently holding the head flit.
    LocateHead {
        cand: UpwardCandidate,
        selected_at: Cycle,
        acked_at: Cycle,
    },
    /// Popping from the chiplet router that holds the head flit.
    PopChiplet {
        packet: PacketId,
        dest: NodeId,
        r_star: NodeId,
        in_port: Port,
        vc_flat: usize,
        selected_at: Cycle,
        acked_at: Cycle,
        located_at: Cycle,
    },
}

impl Stage {
    /// The shared-protocol stage this concrete (payload-carrying) stage
    /// corresponds to.
    fn kind(&self) -> PopupStage {
        match self {
            Stage::Idle => PopupStage::Idle,
            Stage::WaitAck { .. } => PopupStage::WaitAck,
            Stage::PopInterposer { .. } => PopupStage::PopInterposer,
            Stage::LocateHead { .. } => PopupStage::LocateHead,
            Stage::PopChiplet { .. } => PopupStage::PopChiplet,
        }
    }

    /// The packet the stage is bound to (`None` only for `Idle`).
    fn packet(&self) -> Option<PacketId> {
        match *self {
            Stage::Idle => None,
            Stage::WaitAck { cand, .. }
            | Stage::PopInterposer { cand, .. }
            | Stage::LocateHead { cand, .. } => Some(cand.packet),
            Stage::PopChiplet { packet, .. } => Some(packet),
        }
    }

    /// Index of a non-idle stage into [`UppObs`]' per-stage counters.
    fn obs_index(&self) -> Option<usize> {
        match self {
            Stage::Idle => None,
            Stage::WaitAck { .. } => Some(0),
            Stage::PopInterposer { .. } => Some(1),
            Stage::LocateHead { .. } => Some(2),
            Stage::PopChiplet { .. } => Some(3),
        }
    }
}

/// True when an input VC of `r` is owned by `packet`.
fn holds(r: &Router, packet: PacketId) -> bool {
    r.input_vcs()
        .any(|(p, f)| r.input_vc(p, f).owner == Some(packet))
}

struct VnetState {
    counter: UppCounter,
    arbiter: UpwardArbiter,
    stage: Stage,
    acks_to_drop: u32,
    /// In a pop stage: every router holding the popup packet carries its
    /// priority mark. Cleared by every stage change, set by the stage's
    /// first whole-worm mark (on entry to `PopChiplet`, in the first cycle
    /// of `PopInterposer`, whose entry marks the head's router only) and
    /// then kept: the head is frozen, so no router can newly own a VC of
    /// the packet until the stage ends.
    marked: bool,
}

impl VnetState {
    fn new() -> Self {
        Self {
            counter: UppCounter::new(),
            arbiter: UpwardArbiter::new(),
            stage: Stage::Idle,
            acks_to_drop: 0,
            marked: false,
        }
    }

    /// Marks the popup packet at every router holding it, once per pop
    /// stage; debug builds check on every later call that the marks still
    /// cover the worm.
    fn mark_worm(&mut self, net: &mut Network, packet: PacketId) {
        if !self.marked {
            Upp::mark_priority_everywhere(net, packet);
            self.marked = true;
        } else if cfg!(debug_assertions) {
            for node in net.topo().nodes() {
                let r = net.router(node.id);
                assert!(
                    !holds(r, packet) || r.is_priority_packet(packet),
                    "{} holds popup packet {packet} without its mark at cycle {}",
                    node.id,
                    net.cycle()
                );
            }
        }
    }
}

struct RouterState {
    node: NodeId,
    vnets: Vec<VnetState>,
    signal_q: VecDeque<ControlMsg>,
    last_signal: Option<Cycle>,
    chiplet: ChipletId,
}

impl RouterState {
    /// True when the scheme side owes this router nothing: every popup
    /// stage `Idle` and no signal queued. Both only change while the router
    /// is being visited, so a quiet router stays quiet until the network
    /// shows it something (see [`Router::has_scheme_input`]).
    ///
    /// [`Router::has_scheme_input`]: upp_noc::router::Router::has_scheme_input
    fn is_quiet(&self) -> bool {
        self.signal_q.is_empty() && self.vnets.iter().all(|vs| vs.stage.kind().is_idle())
    }

    /// What a cycle without upward candidates does to every watchdog
    /// (`tick(false, _)` is 0).
    fn reset_counters(&mut self) {
        for vs in &mut self.vnets {
            vs.counter.reset();
        }
    }
}

/// Pre-registered telemetry ids for UPP's protocol-state metrics
/// (`Some` only while the network's obs registry is enabled).
///
/// Counters are recorded event-by-event from the per-cycle hooks; every
/// recording site needs a non-`Idle` stage, a queued signal, or — for the
/// watchdog counter — an expiry, which requires upward candidates.
/// Distributions and queue depths are sampled in [`Scheme::observe`]
/// instead. The same three conditions are what makes `pre_cycle` visit a
/// boundary router at all, so a router the tick skips records nothing.
#[derive(Debug, Clone, Copy)]
struct UppObs {
    /// `(node, VNet)` pairs whose timeout watchdog sat expired this cycle.
    watchdog_expired: CounterId,
    /// Distribution of live watchdog counter values at epoch boundaries.
    watchdog_counter: HistId,
    /// Stage-transition counts (entries into each non-idle stage), indexed
    /// by [`Stage::obs_index`].
    enter: [CounterId; 4],
    /// Per-cycle dwell counts (cycles spent in each non-idle stage, summed
    /// over all `(node, VNet)` state machines), same index.
    dwell: [CounterId; 4],
    /// Per-popup latency decomposition (same quantities as [`UppStats`],
    /// but as distributions rather than sums).
    recovery: HistId,
    wait_ack: HistId,
    locate: HistId,
    pop: HistId,
    /// Chiplet-side circuit-table consultations during `PopChiplet`, and
    /// the defensive route-computation fallbacks among them.
    circuit_lookups: CounterId,
    circuit_fallbacks: CounterId,
    /// Non-idle popup state machines (sampled).
    stages_active: GaugeId,
    /// Total queued signals across serial signal units (sampled).
    signal_queue: GaugeId,
    /// Total queued NI-side protocol actions (sampled).
    ni_queue: GaugeId,
}

/// A queued NI-side protocol action. Requests and stops for one `(NI, VNet)`
/// always originate from the same interposer router (static binding) and are
/// processed in FIFO order, so a stop can never overtake its request.
#[derive(Debug, Clone, Copy)]
enum NiMsg {
    Req { origin: NodeId },
    Stop,
}

/// The UPP scheme.
///
/// # Examples
///
/// ```
/// use upp_core::{Upp, UppConfig, UppStats};
///
/// let upp = Upp::new(UppConfig::default());
/// let stats = upp.stats_handle();
/// // ... hand `upp` to a `upp_noc::sim::System`, run, then read `stats`.
/// assert_eq!(UppStats::snapshot(&stats).upward_packets, 0);
/// ```
pub struct Upp {
    cfg: UppConfig,
    gap: u64,
    num_vnets: usize,
    /// One entry per interposer router with an `Up` port, in scan order;
    /// the functions below name a router by its slot in here.
    routers: Vec<RouterState>,
    /// All chiplet routers (NI inbox scan list).
    chiplet_nodes: Vec<NodeId>,
    /// One FIFO per `(NI, VNet)`, at `node.index() * num_vnets + vnet`.
    ni_queues: Vec<VecDeque<NiMsg>>,
    /// Indices of the non-empty `ni_queues`, ascending — `(NI, VNet)`
    /// order, the order in which the NI side is processed.
    ni_busy: Vec<usize>,
    stats: UppStatsHandle,
    initialized: bool,
    /// Telemetry ids, registered lazily once the network's obs registry is
    /// enabled.
    obs: Option<UppObs>,
    /// Reusable buffer for draining router/NI control inboxes
    /// (allocation-free on the per-cycle path).
    inbox_scratch: Vec<DeliveredControl>,
    /// Reusable buffer for upward-candidate scans (allocation-free on the
    /// per-cycle path).
    cand_scratch: Vec<UpwardCandidate>,
}

impl std::fmt::Debug for Upp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Upp")
            .field("cfg", &self.cfg)
            .field("up_nodes", &self.routers.len())
            .finish_non_exhaustive()
    }
}

impl Upp {
    /// Creates the scheme.
    pub fn new(cfg: UppConfig) -> Self {
        Self {
            cfg,
            gap: 0,
            num_vnets: 0,
            routers: Vec::new(),
            chiplet_nodes: Vec::new(),
            ni_queues: Vec::new(),
            ni_busy: Vec::new(),
            stats: Arc::new(Mutex::new(UppStats::default())),
            initialized: false,
            obs: None,
            inbox_scratch: Vec::new(),
            cand_scratch: Vec::new(),
        }
    }

    /// Shared handle to the run's recovery statistics (clone before boxing
    /// the scheme into a `System`).
    pub fn stats_handle(&self) -> UppStatsHandle {
        Arc::clone(&self.stats)
    }

    fn initialize(&mut self, net: &Network) {
        self.gap = protocol::default_signal_gap(net.cfg().data_packet_flits);
        self.num_vnets = net.cfg().num_vnets;
        for &ir in net.topo().interposer_routers() {
            let Some(above) = net.topo().above(ir) else {
                continue;
            };
            let chiplet = net
                .topo()
                .chiplet_of(above)
                .expect("boundary routers sit in chiplets");
            self.routers.push(RouterState {
                node: ir,
                vnets: (0..self.num_vnets).map(|_| VnetState::new()).collect(),
                signal_q: VecDeque::new(),
                last_signal: None,
                chiplet,
            });
        }
        for c in net.topo().chiplets() {
            self.chiplet_nodes.extend(c.routers.iter().copied());
        }
        self.ni_queues
            .resize_with(net.topo().nodes().len() * self.num_vnets, VecDeque::new);
        self.initialized = true;
    }

    /// Registers UPP's telemetry metrics once the registry is enabled
    /// (idempotent; a no-op while telemetry is off).
    fn ensure_obs(&mut self, net: &mut Network) {
        if self.obs.is_some() || !net.obs().is_enabled() {
            return;
        }
        let r = net.obs_mut();
        self.obs = Some(UppObs {
            watchdog_expired: r.counter("upp.watchdog.expired_cycles"),
            watchdog_counter: r.hist("upp.watchdog.counter"),
            enter: [
                r.counter("upp.stage.enter.wait_ack"),
                r.counter("upp.stage.enter.pop_interposer"),
                r.counter("upp.stage.enter.locate_head"),
                r.counter("upp.stage.enter.pop_chiplet"),
            ],
            dwell: [
                r.counter("upp.stage.dwell.wait_ack"),
                r.counter("upp.stage.dwell.pop_interposer"),
                r.counter("upp.stage.dwell.locate_head"),
                r.counter("upp.stage.dwell.pop_chiplet"),
            ],
            recovery: r.hist("upp.popup.recovery_cycles"),
            wait_ack: r.hist("upp.popup.wait_ack_cycles"),
            locate: r.hist("upp.popup.locate_cycles"),
            pop: r.hist("upp.popup.pop_cycles"),
            circuit_lookups: r.counter("upp.circuit.lookups"),
            circuit_fallbacks: r.counter("upp.circuit.fallback_routes"),
            stages_active: r.gauge("upp.stages.active"),
            signal_queue: r.gauge("upp.signal_queue.depth"),
            ni_queue: r.gauge("upp.ni_queue.depth"),
        });
    }

    fn make_req(net: &Network, origin: NodeId, cand: &UpwardCandidate) -> ControlMsg {
        ControlMsg {
            class: ControlClass::ReqLike,
            bits: SignalKind::Req as u32,
            vnet: cand.vnet,
            routing: ControlRoute::Forward,
            route: net.plan_route(origin, cand.dest),
            origin,
            circuit_key: cand.dest,
            record_circuit: true,
            deliver_to_ni: true,
        }
    }

    fn make_stop(net: &Network, origin: NodeId, dest: NodeId, vnet: VnetId) -> ControlMsg {
        ControlMsg {
            class: ControlClass::ReqLike,
            bits: SignalKind::Stop as u32,
            vnet,
            routing: ControlRoute::Forward,
            route: net.plan_route(origin, dest),
            origin,
            circuit_key: dest,
            record_circuit: false,
            deliver_to_ni: true,
        }
    }

    fn make_ack(origin_interposer: NodeId, dest_router: NodeId, vnet: VnetId) -> ControlMsg {
        ControlMsg {
            class: ControlClass::AckLike,
            bits: SignalKind::Ack as u32,
            vnet,
            routing: ControlRoute::Reverse,
            route: RouteInfo::intra(origin_interposer),
            origin: dest_router,
            circuit_key: dest_router,
            record_circuit: false,
            deliver_to_ni: false,
        }
    }

    /// Moves one popup state machine to `to`: the only place a stage
    /// changes. Debug builds check the move against the shared protocol
    /// relation (the one the `upp-check` model checker explores) from the
    /// stage actually held; the move's counters and its trace event are
    /// derived from the `(from, to)` pair.
    fn enter(&mut self, net: &mut Network, slot: usize, vnet: VnetId, to: Stage) {
        use PopupStage::{Idle, LocateHead, PopChiplet, WaitAck};
        let st = &mut self.routers[slot];
        let node = st.node;
        let vs = &mut st.vnets[vnet.index()];
        let from = vs.stage;
        let (from_kind, to_kind) = (from.kind(), to.kind());
        debug_assert!(
            from_kind.can_transition_to(to_kind),
            "illegal popup stage transition {from_kind} -> {to_kind}"
        );
        vs.stage = to;
        vs.marked = false;
        if let (Some(o), Some(i)) = (&self.obs, to.obs_index()) {
            net.obs_mut().inc(o.enter[i]);
        }
        match (from_kind, to_kind) {
            (Idle, WaitAck) => {
                let mut s = self.stats.lock().unwrap();
                s.upward_packets += 1;
                s.reqs_sent += 1;
            }
            (WaitAck | LocateHead, Idle) => self.stats.lock().unwrap().stops_sent += 1,
            (_, PopChiplet) => self.stats.lock().unwrap().partial_popups += 1,
            _ => {}
        }
        if net.tracer().enabled() {
            let at = net.cycle();
            net.tracer_mut().record(TraceEvent::PopupStage {
                at,
                node,
                vnet,
                packet: to
                    .packet()
                    .or(from.packet())
                    .expect("a legal transition has a non-idle end"),
                from: from_kind.name(),
                to: to_kind.name(),
            });
        }
    }

    /// Ends a false positive: queues the `UPP_stop` that recycles `dest`'s
    /// reservation and returns to `Idle`. While the ack is still due the
    /// router owes one dropped ack.
    fn stop(&mut self, net: &mut Network, slot: usize, vnet: VnetId, dest: NodeId, ack_due: bool) {
        let st = &mut self.routers[slot];
        st.signal_q
            .push_back(Self::make_stop(net, st.node, dest, vnet));
        if ack_due {
            st.vnets[vnet.index()].acks_to_drop += 1;
        }
        self.enter(net, slot, vnet, Stage::Idle);
    }

    /// Starts a full popup of `cand` from this interposer router: freezes
    /// the input VC `vc` that holds its head and marks its priority
    /// here (the rest of the worm is marked in the stage's first cycle).
    #[allow(clippy::too_many_arguments)]
    fn start_pop_interposer(
        &mut self,
        net: &mut Network,
        slot: usize,
        vnet: VnetId,
        cand: UpwardCandidate,
        vc: (Port, usize),
        selected_at: Cycle,
        acked_at: Cycle,
    ) {
        let to = Stage::PopInterposer {
            cand,
            selected_at,
            acked_at,
        };
        self.enter(net, slot, vnet, to);
        let r = net.router_mut(self.routers[slot].node);
        r.set_vc_frozen(vc.0, vc.1, true);
        r.add_priority_packet(cand.packet);
    }

    /// The popup's tail left: back to `Idle`, then the recovery-latency
    /// stats, the per-stage latency decomposition and the tracer's popup
    /// span.
    fn complete_popup(&mut self, net: &mut Network, slot: usize, vnet: VnetId) {
        let (packet, selected_at, acked_at, located_at) =
            match self.routers[slot].vnets[vnet.index()].stage {
                Stage::PopInterposer {
                    cand,
                    selected_at,
                    acked_at,
                } => (cand.packet, selected_at, acked_at, acked_at),
                Stage::PopChiplet {
                    packet,
                    selected_at,
                    acked_at,
                    located_at,
                    ..
                } => (packet, selected_at, acked_at, located_at),
                other => unreachable!("popup completed in stage {}", other.kind()),
            };
        self.enter(net, slot, vnet, Stage::Idle);
        let now = net.cycle();
        let wait_ack = acked_at.saturating_sub(selected_at);
        let locate = located_at.saturating_sub(acked_at);
        let pop = now.saturating_sub(located_at);
        if let Some(o) = &self.obs {
            let r = net.obs_mut();
            r.record(o.recovery, now.saturating_sub(selected_at));
            r.record(o.wait_ack, wait_ack);
            r.record(o.locate, locate);
            r.record(o.pop, pop);
        }
        {
            let mut s = self.stats.lock().unwrap();
            s.popups_completed += 1;
            s.recovery_cycles += now.saturating_sub(selected_at);
            s.wait_ack_cycles += wait_ack;
            s.locate_cycles += locate;
            s.pop_cycles += pop;
        }
        if net.tracer().enabled() {
            net.tracer_mut().record(TraceEvent::PopupSpan {
                node: self.routers[slot].node,
                vnet,
                packet,
                detected_at: selected_at,
                completed_at: now,
                wait_ack,
                locate,
                pop,
            });
        }
    }

    /// Marks popup priority for `packet` at every router currently holding
    /// its flits, so the worm drains ahead of ordinary traffic.
    fn mark_priority_everywhere(net: &mut Network, packet: PacketId) {
        for i in 0..net.topo().nodes().len() {
            let n = net.topo().nodes()[i].id;
            if holds(net.router(n), packet) {
                net.router_mut(n).add_priority_packet(packet);
            }
        }
    }

    /// Finds the router whose input VC currently holds `packet`'s head flit.
    fn locate_head(net: &Network, packet: PacketId) -> Option<(NodeId, Port, usize)> {
        for node in net.topo().nodes() {
            let r = net.router(node.id);
            for (p, f) in r.input_vcs() {
                let vc = r.input_vc(p, f);
                if vc.owner == Some(packet) {
                    if let Some(front) = r.vc_front(p, f) {
                        if front.flit.kind.is_head() {
                            return Some((node.id, p, f));
                        }
                    }
                }
            }
        }
        None
    }

    /// True when no router holds any flit of `packet`.
    fn packet_gone(net: &Network, packet: PacketId) -> bool {
        net.topo()
            .nodes()
            .iter()
            .all(|n| !holds(net.router(n.id), packet))
    }

    /// Cross-check for a router `pre_cycle` is skipping, independent of the
    /// wake predicate: no upward candidate in any VNet and nothing in the
    /// inbox. On in every debug build (what `cargo test` runs), compiled out
    /// of release builds — like the scheduler's check in `finish_cycle`.
    fn assert_nothing_to_see(&mut self, net: &mut Network, slot: usize) {
        let node = self.routers[slot].node;
        let at = net.cycle();
        for v in 0..self.num_vnets {
            self.cand_scratch.clear();
            net.upward_candidates_into(node, VnetId(v as u8), &mut self.cand_scratch);
            assert!(
                self.cand_scratch.is_empty(),
                "UPP tick would skip {node} with an upward candidate in VNet {v} at cycle {at}"
            );
        }
        net.drain_router_inbox(node, &mut self.inbox_scratch);
        assert!(
            self.inbox_scratch.is_empty(),
            "UPP tick would skip {node} with an unread ack at cycle {at}"
        );
    }

    fn sibling_popup_active(&self, slot: usize, vnet: VnetId) -> bool {
        let chiplet = self.routers[slot].chiplet;
        self.routers.iter().enumerate().any(|(other, r)| {
            other != slot && r.chiplet == chiplet && !r.vnets[vnet.index()].stage.kind().is_idle()
        })
    }

    /// Appends to one `(NI, VNet)` FIFO, keeping `ni_busy` sorted.
    fn queue_ni_msg(&mut self, node: NodeId, vnet: VnetId, msg: NiMsg) {
        let key = node.index() * self.num_vnets + vnet.index();
        if self.ni_queues[key].is_empty() {
            let at = self.ni_busy.partition_point(|&k| k < key);
            self.ni_busy.insert(at, key);
        }
        self.ni_queues[key].push_back(msg);
    }

    /// Drains NI control inboxes into the per-(NI, VNet) FIFO queues; the
    /// network's count of undrained messages bounds the scan.
    fn collect_ni_messages(&mut self, net: &mut Network) {
        let mut inbox = std::mem::take(&mut self.inbox_scratch);
        for i in 0..self.chiplet_nodes.len() {
            if net.ni_control_pending() == 0 {
                break;
            }
            let node = self.chiplet_nodes[i];
            net.drain_ni_inbox(node, &mut inbox);
            for d in inbox.drain(..) {
                let vnet = d.msg.vnet;
                match SignalKind::from_bits(d.msg.bits) {
                    Some(SignalKind::Req) => {
                        let origin = d.msg.origin;
                        self.queue_ni_msg(node, vnet, NiMsg::Req { origin });
                    }
                    Some(SignalKind::Stop) => self.queue_ni_msg(node, vnet, NiMsg::Stop),
                    other => debug_assert!(false, "unexpected NI signal {other:?}"),
                }
            }
        }
        self.inbox_scratch = inbox;
    }

    /// Processes the NI-side protocol: reservations (retrying until an entry
    /// frees, which Sec. V-B4 proves always happens) and stops. One message
    /// per non-empty queue per cycle, in `(NI, VNet)` order: the order in
    /// which ACKs of different VNets enter one router's control buffer is
    /// simulated state.
    fn process_ni_queues(&mut self, net: &mut Network) {
        let mut busy = std::mem::take(&mut self.ni_busy);
        busy.retain(|&key| {
            let node = NodeId((key / self.num_vnets) as u32);
            let vnet = VnetId((key % self.num_vnets) as u8);
            let q = &mut self.ni_queues[key];
            match *q.front().expect("busy queues are non-empty") {
                NiMsg::Req { origin } => {
                    if net.try_reserve_ejection(node, vnet) {
                        net.send_control(node, Self::make_ack(origin, node, vnet));
                        self.stats.lock().unwrap().acks_sent += 1;
                        q.pop_front();
                    } else {
                        self.stats.lock().unwrap().reservation_retries += 1;
                    }
                }
                NiMsg::Stop => {
                    net.release_ejection_reservation(node, vnet);
                    q.pop_front();
                }
            }
            !q.is_empty()
        });
        self.ni_busy = busy;
    }

    /// Per-interposer-router detection, ack handling, stage machine and
    /// signal serialisation.
    fn process_router(&mut self, net: &mut Network, slot: usize) {
        let now = net.cycle();
        let node = self.routers[slot].node;

        // Ack arrivals first (terminated at this router by its step in the
        // previous `finish_cycle`). The scratch buffer is taken out of
        // `self` so `handle_ack` can borrow both `self` and `net` while
        // iterating.
        let mut acks = std::mem::take(&mut self.inbox_scratch);
        net.drain_router_inbox(node, &mut acks);
        for d in acks.drain(..) {
            if SignalKind::from_bits(d.msg.bits) != Some(SignalKind::Ack) {
                debug_assert!(false, "router inbox must only hold acks");
                continue;
            }
            self.handle_ack(net, slot, d.msg.vnet);
        }
        self.inbox_scratch = acks;

        for v in 0..self.num_vnets {
            let vnet = VnetId(v as u8);
            self.advance_stage(net, slot, vnet);
            self.detect(net, slot, vnet, now);
        }

        // Serial signal unit with the Size_of_Data_Packet + 1 gap.
        let st = &mut self.routers[slot];
        if let Some(msg) = st.signal_q.front().copied() {
            let ready = match st.last_signal {
                None => true,
                Some(t) => now >= t + self.gap,
            };
            if ready {
                st.signal_q.pop_front();
                st.last_signal = Some(now);
                net.send_control(node, msg);
            }
        }
    }

    fn handle_ack(&mut self, net: &mut Network, slot: usize, vnet: VnetId) {
        let st = &mut self.routers[slot];
        let node = st.node;
        let vs = &mut st.vnets[vnet.index()];
        // An ack owed to an earlier false positive, or a stale one with no
        // drop budget (protocol noise): discard it.
        let (Stage::WaitAck { cand, selected_at }, 0) = (vs.stage, vs.acks_to_drop) else {
            vs.acks_to_drop = vs.acks_to_drop.saturating_sub(1);
            self.stats.lock().unwrap().acks_dropped += 1;
            return;
        };
        // Re-examine the candidate VC at ack time.
        let r = net.router(node);
        let owned = r.input_vc(cand.in_port, cand.vc_flat).owner == Some(cand.packet);
        let partly = r.vc_partly_transmitted(cand.in_port, cand.vc_flat);
        let acked_at = net.cycle();
        if !owned {
            // The packet proceeded normally between req and ack: recycle
            // the reservation. The ack itself was just consumed, so no
            // drop budget is added.
            self.stop(net, slot, vnet, cand.dest, false);
        } else if partly {
            let to = Stage::LocateHead {
                cand,
                selected_at,
                acked_at,
            };
            self.enter(net, slot, vnet, to);
        } else {
            let vc = (cand.in_port, cand.vc_flat);
            self.start_pop_interposer(net, slot, vnet, cand, vc, selected_at, acked_at);
        }
    }

    fn advance_stage(&mut self, net: &mut Network, slot: usize, vnet: VnetId) {
        let node = self.routers[slot].node;
        let stage = self.routers[slot].vnets[vnet.index()].stage;
        // Dwell accounting: one count per cycle spent in a non-idle stage.
        if let (Some(o), Some(i)) = (&self.obs, stage.obs_index()) {
            net.obs_mut().inc(o.dwell[i]);
        }
        match stage {
            Stage::Idle => {}
            Stage::WaitAck { cand, .. } => {
                let owner = net.router(node).input_vc(cand.in_port, cand.vc_flat).owner;
                if owner != Some(cand.packet) {
                    // Normal progress before the ack: stop + drop the ack.
                    self.stop(net, slot, vnet, cand.dest, true);
                }
            }
            Stage::PopInterposer { cand, .. } => {
                self.routers[slot].vnets[vnet.index()].mark_worm(net, cand.packet);
                // Pops pipeline with bypass forwarding: one flit per cycle.
                if net.bypass_pending(node) <= 1 {
                    if let Some(flit) = net.pop_upward_flit(node, cand.in_port, cand.vc_flat) {
                        if flit.kind.is_tail() {
                            self.complete_popup(net, slot, vnet);
                        }
                    }
                }
            }
            Stage::LocateHead {
                cand,
                selected_at,
                acked_at,
            } => {
                match Self::locate_head(net, cand.packet) {
                    Some((r_star, in_port, vc_flat)) if r_star == node => {
                        // Head back in this router after all: full popup,
                        // freezing the VC the head was found in.
                        let vc = (in_port, vc_flat);
                        self.start_pop_interposer(net, slot, vnet, cand, vc, selected_at, acked_at);
                    }
                    Some((r_star, in_port, vc_flat)) => {
                        let to = Stage::PopChiplet {
                            packet: cand.packet,
                            dest: cand.dest,
                            r_star,
                            in_port,
                            vc_flat,
                            selected_at,
                            acked_at,
                            located_at: net.cycle(),
                        };
                        self.enter(net, slot, vnet, to);
                        net.router_mut(r_star).set_vc_frozen(in_port, vc_flat, true);
                        self.routers[slot].vnets[vnet.index()].mark_worm(net, cand.packet);
                    }
                    // Fully delivered through the normal path while we were
                    // looking: recycle the reservation.
                    None if Self::packet_gone(net, cand.packet) => {
                        self.stop(net, slot, vnet, cand.dest, false);
                    }
                    // Otherwise the head flit is on a link; retry next cycle.
                    None => {}
                }
            }
            Stage::PopChiplet {
                packet,
                dest,
                r_star,
                in_port,
                vc_flat,
                ..
            } => {
                self.routers[slot].vnets[vnet.index()].mark_worm(net, packet);
                if net.bypass_pending(r_star) <= 1 {
                    let hit = net.router(r_star).circuit(vnet, dest).map(|e| e.out_port);
                    if let Some(o) = &self.obs {
                        let r = net.obs_mut();
                        r.inc(o.circuit_lookups);
                        if hit.is_none() {
                            r.inc(o.circuit_fallbacks);
                        }
                    }
                    let out = hit.unwrap_or_else(|| {
                        // The req recorded circuits along this exact path;
                        // fall back to route computation defensively.
                        let route = net.plan_route(r_star, dest);
                        net.routing().route(net.topo(), r_star, in_port, &route)
                    });
                    if let Some(flit) = net.pop_bypass_flit(r_star, in_port, vc_flat, out) {
                        if flit.kind.is_tail() {
                            self.complete_popup(net, slot, vnet);
                        }
                    }
                }
            }
        }
    }

    fn detect(&mut self, net: &mut Network, slot: usize, vnet: VnetId, now: Cycle) {
        let st = &mut self.routers[slot];
        let node = st.node;
        let vs = &mut st.vnets[vnet.index()];
        if !vs.stage.kind().is_idle() {
            vs.counter.reset();
            return;
        }
        self.cand_scratch.clear();
        net.upward_candidates_into(node, vnet, &mut self.cand_scratch);
        let stalled = !self.cand_scratch.is_empty();
        let recent = up_sent_recently(net.up_last_sent(node, vnet), now);
        vs.counter.tick(stalled, recent);
        // Without a candidate nothing below may run, whatever the threshold
        // (0 would otherwise "expire" an empty router): a cycle without
        // candidates only zeroes the counter, which is what lets
        // `pre_cycle` skip such a router.
        if !stalled || !vs.counter.expired(self.cfg.threshold) {
            return;
        }
        // Watchdog pressure: one count per cycle a watchdog sits expired.
        if let Some(o) = &self.obs {
            net.obs_mut().inc(o.watchdog_expired);
        }
        if self.cfg.serialize_per_chiplet && self.sibling_popup_active(slot, vnet) {
            return;
        }
        let st = &mut self.routers[slot];
        let vs = &mut st.vnets[vnet.index()];
        let Some(cand) = vs.arbiter.pick(&self.cand_scratch) else {
            return;
        };
        vs.counter.reset();
        st.signal_q.push_back(Self::make_req(net, node, &cand));
        let to = Stage::WaitAck {
            cand,
            selected_at: now,
        };
        self.enter(net, slot, vnet, to);
    }
}

impl Scheme for Upp {
    fn name(&self) -> &'static str {
        "UPP"
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            topology_modularity: true,
            vc_modularity: true,
            flow_control_modularity: true,
            full_path_diversity: true,
            no_injection_control: true,
            topology_independence: true,
        }
    }

    fn pre_cycle(&mut self, net: &mut Network) {
        if !self.initialized {
            self.initialize(net);
        }
        self.ensure_obs(net);
        self.collect_ni_messages(net);
        self.process_ni_queues(net);
        // Level-triggered: a boundary router is visited only while the
        // scheme owes it something or the network can show it something.
        // Visiting a router that is quiet on both sides would drain an
        // empty inbox, find every stage `Idle`, find no upward candidate
        // (one needs a buffered flit) and so zero its counters; only that
        // last effect is applied here.
        for slot in 0..self.routers.len() {
            let st = &mut self.routers[slot];
            if !st.is_quiet() || net.router(st.node).has_scheme_input() {
                self.process_router(net, slot);
                continue;
            }
            st.reset_counters();
            if cfg!(debug_assertions) {
                self.assert_nothing_to_see(net, slot);
            }
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
        let mut active = 0u64;
        let mut signals = 0u64;
        for st in &self.routers {
            signals += st.signal_q.len() as u64;
            for vs in &st.vnets {
                if !vs.stage.kind().is_idle() {
                    active += 1;
                }
                // Distribution of live watchdog values: how close the
                // population of `(node, VNet)` watchdogs sits to the
                // threshold.
                net.obs_mut().record(o.watchdog_counter, vs.counter.value());
            }
        }
        let ni_pending: usize = self.ni_busy.iter().map(|&k| self.ni_queues[k].len()).sum();
        let r = net.obs_mut();
        r.gauge_set(o.stages_active, active);
        r.gauge_set(o.signal_queue, signals);
        r.gauge_set(o.ni_queue, ni_pending as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use upp_noc::config::NocConfig;
    use upp_noc::ni::ConsumePolicy;
    use upp_noc::routing::ChipletRouting;
    use upp_noc::sim::{RunOutcome, System};
    use upp_noc::topology::ChipletSystemSpec;

    fn system(threshold: u64, consume: ConsumePolicy) -> (System, UppStatsHandle) {
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let net = upp_noc::network::Network::new(
            NocConfig::default(),
            topo,
            StdArc::new(ChipletRouting::xy()),
            consume,
            11,
        );
        let upp = Upp::new(UppConfig::with_threshold(threshold));
        let stats = upp.stats_handle();
        (System::new(net, Box::new(upp)), stats)
    }

    #[test]
    fn quiet_network_never_detects() {
        let (mut sys, stats) = system(20, ConsumePolicy::Immediate { latency: 1 });
        let src = sys.net().topo().chiplets()[0].routers[0];
        let dest = sys.net().topo().chiplets()[1].routers[9];
        sys.send(src, dest, VnetId(0), 5).unwrap();
        assert!(matches!(
            sys.run_until_drained(2_000),
            RunOutcome::Drained { .. }
        ));
        assert_eq!(UppStats::snapshot(&stats).upward_packets, 0);
    }

    #[test]
    fn congestion_triggers_detection_and_everything_still_drains() {
        // Slow consumption at one hot destination: upward packets stall at
        // the interposer long enough to trip a tiny threshold. These are
        // false positives — and per Sec. V-A handling them is harmless.
        let (mut sys, stats) = system(3, ConsumePolicy::Immediate { latency: 40 });
        let dest = sys.net().topo().chiplets()[0].routers[5];
        let sources: Vec<NodeId> = sys.net().topo().chiplets()[3].routers.clone();
        let mut sent = 0u64;
        for round in 0..6 {
            for &s in &sources {
                if sys.send(s, dest, VnetId(0), 5).is_some() {
                    sent += 1;
                }
            }
            let _ = round;
            sys.run(10);
        }
        let out = sys.run_until_drained(60_000);
        assert!(matches!(out, RunOutcome::Drained { .. }), "got {out:?}");
        assert_eq!(sys.net().stats().packets_ejected, sent);
        // Let the last acks and stops still on the wire arrive.
        sys.run(1_000);
        let s = UppStats::snapshot(&stats);
        assert!(
            s.upward_packets > 0,
            "expected detections under hotspot congestion: {s:?}"
        );
        // Protocol conservation: every req is answered by exactly one ack
        // (possibly dropped), and ends in exactly one stop or popup.
        assert_eq!(s.acks_sent, s.reqs_sent, "{s:?}");
        assert_eq!(s.stops_sent + s.popups_completed, s.reqs_sent, "{s:?}");
    }

    #[test]
    fn popup_delivers_into_reserved_entry() {
        // Force popups by making consumption glacial; ensure at least one
        // packet completes via the bypass path and nothing is lost.
        let (mut sys, stats) = system(2, ConsumePolicy::Immediate { latency: 120 });
        let dest = sys.net().topo().chiplets()[1].routers[10];
        let mut sent = 0u64;
        let sources: Vec<NodeId> = sys
            .net()
            .topo()
            .chiplets()
            .iter()
            .flat_map(|c| c.routers.iter().copied())
            .filter(|&n| sys.net().topo().chiplet_of(n) != sys.net().topo().chiplet_of(dest))
            .take(24)
            .collect();
        for _ in 0..4 {
            for &s in &sources {
                if sys.send(s, dest, VnetId(1), 5).is_some() {
                    sent += 1;
                }
            }
            sys.run(5);
        }
        let out = sys.run_until_drained(120_000);
        assert!(matches!(out, RunOutcome::Drained { .. }), "got {out:?}");
        assert_eq!(sys.net().stats().packets_ejected, sent);
        let s = UppStats::snapshot(&stats);
        assert!(
            s.popups_completed + s.stops_sent > 0,
            "popup machinery must have engaged: {s:?}"
        );
    }

    #[test]
    fn a_completed_popup_leaves_no_priority_mark_behind() {
        // A popped packet's tail leaves the popping router through the
        // bypass latch, not switch allocation; its mark must go with it.
        // Packet ids are allocated from zero, so every mark ever set is
        // one of these.
        let (mut sys, stats) = system(2, ConsumePolicy::Immediate { latency: 120 });
        let dest = sys.net().topo().chiplets()[1].routers[10];
        let sources: Vec<NodeId> = sys
            .net()
            .topo()
            .chiplets()
            .iter()
            .flat_map(|c| c.routers.iter().copied())
            .filter(|&n| sys.net().topo().chiplet_of(n) != sys.net().topo().chiplet_of(dest))
            .collect();
        for _ in 0..4 {
            for &s in &sources {
                sys.send(s, dest, VnetId(1), 5);
            }
            sys.run(5);
        }
        let out = sys.run_until_drained(120_000);
        assert!(matches!(out, RunOutcome::Drained { .. }), "got {out:?}");
        let s = UppStats::snapshot(&stats);
        assert!(s.popups_completed > 0, "{s:?}");
        let created = sys.net().stats().packets_created;
        for node in sys.net().topo().nodes() {
            let r = sys.net().router(node.id);
            let marked: Vec<u64> = (0..created)
                .filter(|&id| r.is_priority_packet(PacketId(id)))
                .collect();
            assert!(marked.is_empty(), "{} still marks {marked:?}", node.id);
        }
    }

    #[test]
    fn telemetry_sees_watchdog_and_circuit_pressure() {
        // Same hotspot scenario that forces popups, with the obs registry
        // armed: the protocol's boundary structures must show up.
        let (mut sys, _stats) = system(2, ConsumePolicy::Immediate { latency: 120 });
        sys.net_mut().enable_obs();
        let dest = sys.net().topo().chiplets()[1].routers[10];
        let sources: Vec<NodeId> = sys
            .net()
            .topo()
            .chiplets()
            .iter()
            .flat_map(|c| c.routers.iter().copied())
            .filter(|&n| sys.net().topo().chiplet_of(n) != sys.net().topo().chiplet_of(dest))
            .take(24)
            .collect();
        for _ in 0..4 {
            for &s in &sources {
                sys.send(s, dest, VnetId(1), 5);
            }
            sys.run(5);
        }
        let out = sys.run_until_drained(120_000);
        assert!(matches!(out, RunOutcome::Drained { .. }), "got {out:?}");
        sys.observe();
        let obs = sys.net().obs();
        assert!(obs.counter_value("upp.watchdog.expired_cycles") > 0);
        assert!(obs.counter_value("upp.stage.enter.wait_ack") > 0);
        assert!(
            obs.counter_value("upp.stage.dwell.wait_ack")
                >= obs.counter_value("upp.stage.enter.wait_ack"),
            "every entered stage dwells at least one cycle"
        );
        assert!(obs.counter_value("circuit.inserts") > 0);
        assert!(obs.gauge_value("circuit.entries").1 > 0, "high-water mark");
        let wd = obs.histogram("upp.watchdog.counter").expect("registered");
        assert!(wd.count() > 0, "watchdog distribution sampled");
        let summary = obs.summary_json(sys.net().cycle());
        assert!(summary.contains("\"upp.popup.recovery_cycles\""));
        assert!(summary.contains("\"circuit.lookup_hits\""));
    }

    #[test]
    fn stale_ack_at_a_quiet_router_is_still_consumed() {
        // Network and scheme driven by hand, to reach the scheme's state.
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let mut net = upp_noc::network::Network::new(
            NocConfig::default(),
            topo,
            StdArc::new(ChipletRouting::xy()),
            ConsumePolicy::Immediate { latency: 1 },
            11,
        );
        let mut upp = Upp::new(UppConfig::default());
        let step = |net: &mut Network, upp: &mut Upp| {
            net.begin_cycle();
            upp.pre_cycle(net);
            net.finish_cycle();
        };
        step(&mut net, &mut upp);

        // The state a false positive leaves behind: the packet moved on
        // before the ack came back, so the stage is `Idle` again and the
        // router owes one dropped ack. Nothing but the ack's arrival in the
        // inbox can make the tick visit this router.
        let dest = net.topo().chiplets()[1].routers[10];
        let ir = net.topo().entry_interposer_for(dest).unwrap();
        let slot = upp.routers.iter().position(|st| st.node == ir).unwrap();
        let cand = UpwardCandidate {
            in_port: Port::West,
            vc_flat: 0,
            packet: PacketId(0),
            vnet: VnetId(0),
            dest,
            partly_transmitted: false,
        };
        let req = Upp::make_req(&net, ir, &cand);
        net.send_control(ir, req);
        upp.routers[slot].vnets[0].acks_to_drop = 1;

        for _ in 0..200 {
            step(&mut net, &mut upp);
        }
        let s = UppStats::snapshot(&upp.stats);
        assert_eq!(s.acks_sent, 1, "the NI answered the req: {s:?}");
        assert_eq!(s.acks_dropped, 1, "the stale ack was consumed: {s:?}");
        assert_eq!(upp.routers[slot].vnets[0].acks_to_drop, 0);
        assert!(upp.routers[slot].is_quiet());
        assert!(!net.router(ir).has_scheme_input(), "inbox drained");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "illegal popup stage transition")]
    fn entering_a_stage_checks_the_stage_actually_held() {
        let (mut sys, _stats) = system(20, ConsumePolicy::Immediate { latency: 1 });
        let mut upp = Upp::new(UppConfig::default());
        upp.initialize(sys.net());
        let node = upp.routers[0].node;
        let to = Stage::PopChiplet {
            packet: PacketId(0),
            dest: node,
            r_star: node,
            in_port: Port::West,
            vc_flat: 0,
            selected_at: 0,
            acked_at: 0,
            located_at: 0,
        };
        // Idle -> PopChiplet skips WaitAck and LocateHead.
        upp.enter(sys.net_mut(), 0, VnetId(0), to);
    }

    #[test]
    fn properties_match_table_i() {
        let upp = Upp::new(UppConfig::default());
        let p = upp.properties();
        assert!(p.topology_modularity);
        assert!(p.vc_modularity);
        assert!(p.flow_control_modularity);
        assert!(p.full_path_diversity);
        assert!(p.no_injection_control);
        assert!(p.topology_independence);
    }

    #[test]
    fn threshold_config_roundtrip() {
        let c = UppConfig::with_threshold(100);
        assert_eq!(c.threshold, 100);
        assert!(!c.serialize_per_chiplet);
    }
}
