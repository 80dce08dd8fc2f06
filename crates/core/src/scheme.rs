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
use upp_noc::scheme::{Scheme, SchemeProperties};
use upp_noc::trace::TraceEvent;
use upp_noc::wake_set::WakeSet;

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
    /// Cycles from the ack to the cycle the popping VC was found, summed
    /// over completed popups: zero when the head was at the boundary
    /// router at ack time, else the `LocateHead` search, also when it finds
    /// the head back in the boundary router.
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
    /// Ack received for a partly-transmitted worm: searching for the router
    /// currently holding the head flit.
    LocateHead {
        cand: UpwardCandidate,
        selected_at: Cycle,
        acked_at: Cycle,
    },
    /// Popping flits, one per cycle, from the frozen VC that holds the head.
    Pop(Pop),
}

/// A popup in its pop stage.
#[derive(Debug, Clone, Copy)]
struct Pop {
    packet: PacketId,
    dest: NodeId,
    /// The input VC popped, `(router, port, flat VC)`: frozen from the
    /// stage's entry until its tail leaves.
    vc: (NodeId, Port, usize),
    selected_at: Cycle,
    acked_at: Cycle,
    /// When the head was found: `acked_at` for a full popup.
    located_at: Cycle,
}

impl Stage {
    /// The shared-protocol stage this concrete (payload-carrying) stage
    /// corresponds to, for the state machine of boundary router `home`: a
    /// pop from `home` itself is `PopInterposer`, one from any other
    /// router `PopChiplet`.
    fn kind(&self, home: NodeId) -> PopupStage {
        match self {
            Stage::Idle => PopupStage::Idle,
            Stage::WaitAck { .. } => PopupStage::WaitAck,
            Stage::LocateHead { .. } => PopupStage::LocateHead,
            Stage::Pop(pop) if pop.vc.0 == home => PopupStage::PopInterposer,
            Stage::Pop(_) => PopupStage::PopChiplet,
        }
    }

    fn is_idle(&self) -> bool {
        matches!(self, Stage::Idle)
    }

    /// The packet the stage is bound to (`None` only for `Idle`).
    fn packet(&self) -> Option<PacketId> {
        match *self {
            Stage::Idle => None,
            Stage::WaitAck { cand, .. } | Stage::LocateHead { cand, .. } => Some(cand.packet),
            Stage::Pop(pop) => Some(pop.packet),
        }
    }
}

/// Where a partly-transmitted worm's head flit is.
enum Head {
    /// At the front of this input VC, `(router, port, flat VC)`.
    At((NodeId, Port, usize)),
    /// On a link: some router still holds a flit of the packet.
    InFlight,
    /// Nowhere: the packet left the network.
    Gone,
}

struct VnetState {
    counter: UppCounter,
    arbiter: UpwardArbiter,
    stage: Stage,
    acks_to_drop: u32,
}

impl VnetState {
    fn new() -> Self {
        Self {
            counter: UppCounter::new(),
            arbiter: UpwardArbiter::new(),
            stage: Stage::Idle,
            acks_to_drop: 0,
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
    /// shows it something: an `Up`-routed flit or an ack (see
    /// [`Router::has_scheme_input`]). `Upp::busy` holds the slots for which
    /// this is false.
    ///
    /// [`Router::has_scheme_input`]: upp_noc::router::Router::has_scheme_input
    fn is_quiet(&self) -> bool {
        self.signal_q.is_empty() && self.vnets.iter().all(|vs| vs.stage.is_idle())
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
    /// by [`PopupStage::index`] less one (`Idle` has none).
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
    /// The slot of each node's router, by node index (`None` off the
    /// boundary).
    slot_of: Vec<Option<u32>>,
    /// The slots that are not [`RouterState::is_quiet`], updated after
    /// every visit (the only time a slot's quietness changes). Kept here
    /// so what the scheme owes a router rests on its own state, not on a
    /// bit of [`Network::scheme_input`], whose contract covers only what
    /// the network shows.
    busy: WakeSet,
    /// Scratch for one tick: the slots of the routers in
    /// [`Network::scheme_input`], emptied by the walk that reads it.
    woken: WakeSet,
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
            slot_of: Vec::new(),
            busy: WakeSet::new(0),
            woken: WakeSet::new(0),
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
        self.slot_of = vec![None; net.topo().nodes().len()];
        for &ir in net.topo().interposer_routers() {
            let Some(above) = net.topo().above(ir) else {
                continue;
            };
            self.slot_of[ir.index()] = Some(self.routers.len() as u32);
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
        self.busy = WakeSet::new(self.routers.len());
        self.woken = WakeSet::new(self.routers.len());
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
        let (from_kind, to_kind) = (from.kind(node), to.kind(node));
        debug_assert!(
            from_kind.can_transition_to(to_kind),
            "illegal popup stage transition {from_kind} -> {to_kind}"
        );
        vs.stage = to;
        if let (Some(o), Some(i)) = (&self.obs, to_kind.index().checked_sub(1)) {
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
                from: from_kind.name().into(),
                to: to_kind.name().into(),
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

    /// Starts popping `pop.packet` from the VC that holds its head, for a
    /// full popup (the ack found the head here) and a partial one (the
    /// head was found at `r*`) alike: freezes the VC, enters the pop stage
    /// and marks the whole worm. The marks then hold until the tail leaves:
    /// with its head frozen, the worm owns no new VC.
    fn start_pop(&mut self, net: &mut Network, slot: usize, vnet: VnetId, pop: Pop) {
        let (node, in_port, vc_flat) = pop.vc;
        net.router_mut(node).set_vc_frozen(in_port, vc_flat, true);
        self.enter(net, slot, vnet, Stage::Pop(pop));
        Self::mark_priority_everywhere(net, pop.packet, vnet, node);
    }

    /// The popup's tail left: back to `Idle`, then the recovery-latency
    /// stats, the per-stage latency decomposition and the tracer's popup
    /// span.
    fn complete_popup(&mut self, net: &mut Network, slot: usize, vnet: VnetId, pop: Pop) {
        let Pop {
            packet,
            selected_at,
            acked_at,
            located_at,
            ..
        } = pop;
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

    /// Marks popup priority on every input VC `packet` owns, so the worm
    /// drains ahead of ordinary traffic. The walk starts at `from`, the
    /// popping router, which holds the worm's front; the VC a packet owns
    /// came in through a port whose raw neighbour holds the next VC back.
    /// It ends at the worm's source (`Local`) or at a router the tail has
    /// already left, which owns nothing: a worm has no gaps.
    fn mark_priority_everywhere(net: &mut Network, packet: PacketId, vnet: VnetId, from: NodeId) {
        let mut node = from;
        let mut scanned = 0;
        loop {
            let (owned, n) = net.router(node).owned_vc(packet, vnet);
            scanned += n;
            let Some((in_port, f)) = owned else { break };
            net.router_mut(node).mark_priority(in_port, f);
            if in_port == Port::Local {
                break;
            }
            node = net
                .topo()
                .raw_neighbor(node, in_port)
                .expect("a VC's flits arrive over a link");
        }
        net.count_work(|w| w.mark_vcs_scanned += scanned);
    }

    /// Debug builds: every input VC in the network that `packet`, the
    /// popup packet, owns carries its priority mark.
    fn assert_worm_marked(net: &Network, packet: PacketId) {
        if !cfg!(debug_assertions) {
            return;
        }
        for node in net.topo().nodes() {
            let r = net.router(node.id);
            for (p, f) in r.input_vcs() {
                assert!(
                    r.input_vc(p, f).owner() != Some(packet) || r.is_priority_vc(p, f),
                    "{} {p} VC {f} holds popup packet {packet} without its mark at cycle {}",
                    node.id,
                    net.cycle()
                );
            }
        }
    }

    /// One pass over the routers for `packet`'s head flit: the first VC, in
    /// node order, that `packet` owns with the head at its front, else
    /// whether any router still holds a flit of it.
    fn find_head(net: &Network, packet: PacketId, vnet: VnetId) -> Head {
        let mut held = false;
        for node in net.topo().nodes() {
            let r = net.router(node.id);
            let (Some((p, f)), _) = r.owned_vc(packet, vnet) else {
                continue;
            };
            if r.vc_front(p, f).is_some_and(|b| b.kind.is_head()) {
                return Head::At((node.id, p, f));
            }
            held = true;
        }
        if held {
            Head::InFlight
        } else {
            Head::Gone
        }
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

    /// Debug builds: a slot `pre_cycle`'s walk did not meet owes nothing,
    /// has nothing to show and keeps its watchdogs at zero, as the visit
    /// it was spared would have left them.
    fn assert_unwalked_slot(&mut self, net: &mut Network, slot: usize) {
        let st = &self.routers[slot];
        let at = net.cycle();
        assert!(
            st.is_quiet(),
            "UPP tick would skip busy {} at cycle {at}",
            st.node
        );
        assert!(
            st.vnets.iter().all(|vs| vs.counter.value() == 0),
            "UPP tick would skip {} with a running watchdog at cycle {at}",
            st.node
        );
        self.assert_nothing_to_see(net, slot);
    }

    fn sibling_popup_active(&self, slot: usize, vnet: VnetId) -> bool {
        let chiplet = self.routers[slot].chiplet;
        self.routers.iter().enumerate().any(|(other, r)| {
            other != slot && r.chiplet == chiplet && !r.vnets[vnet.index()].stage.is_idle()
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
        let owned = r.input_vc(cand.in_port, cand.vc_flat).owner() == Some(cand.packet);
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
            let pop = Pop {
                packet: cand.packet,
                dest: cand.dest,
                vc: (node, cand.in_port, cand.vc_flat),
                selected_at,
                acked_at,
                located_at: acked_at,
            };
            self.start_pop(net, slot, vnet, pop);
        }
    }

    fn advance_stage(&mut self, net: &mut Network, slot: usize, vnet: VnetId) {
        let node = self.routers[slot].node;
        let stage = self.routers[slot].vnets[vnet.index()].stage;
        // Dwell accounting: one count per cycle spent in a non-idle stage.
        if let (Some(o), Some(i)) = (&self.obs, stage.kind(node).index().checked_sub(1)) {
            net.obs_mut().inc(o.dwell[i]);
        }
        match stage {
            Stage::Idle => {}
            Stage::WaitAck { cand, .. } => {
                let owner = net
                    .router(node)
                    .input_vc(cand.in_port, cand.vc_flat)
                    .owner();
                if owner != Some(cand.packet) {
                    // Normal progress before the ack: stop + drop the ack.
                    self.stop(net, slot, vnet, cand.dest, true);
                }
            }
            Stage::LocateHead {
                cand,
                selected_at,
                acked_at,
            } => match Self::find_head(net, cand.packet, vnet) {
                Head::At(vc) => {
                    let pop = Pop {
                        packet: cand.packet,
                        dest: cand.dest,
                        vc,
                        selected_at,
                        acked_at,
                        located_at: net.cycle(),
                    };
                    self.start_pop(net, slot, vnet, pop);
                }
                // The head flit is on a link: look again next cycle.
                Head::InFlight => {}
                // Fully delivered through the normal path while we were
                // looking: recycle the reservation.
                Head::Gone => self.stop(net, slot, vnet, cand.dest, false),
            },
            Stage::Pop(pop) => {
                Self::assert_worm_marked(net, pop.packet);
                let (at, in_port, vc_flat) = pop.vc;
                debug_assert_eq!(
                    net.router(at).input_vc(in_port, vc_flat).owner(),
                    Some(pop.packet),
                    "{at} {in_port} VC {vc_flat} would pop a flit that is not the popup's"
                );
                // Pops pipeline with bypass forwarding: one flit per cycle.
                if net.bypass_pending(at) > 1 {
                    return;
                }
                let out = if at == node {
                    Port::Up
                } else {
                    let hit = net.router(at).circuit(vnet, pop.dest).map(|e| e.out_port);
                    if let Some(o) = &self.obs {
                        let r = net.obs_mut();
                        r.inc(o.circuit_lookups);
                        if hit.is_none() {
                            r.inc(o.circuit_fallbacks);
                        }
                    }
                    // The req recorded circuits along this exact path;
                    // fall back to route computation defensively.
                    hit.unwrap_or_else(|| {
                        let route = net.plan_route(at, pop.dest);
                        net.routing().route(net.topo(), at, in_port, &route)
                    })
                };
                if let Some(flit) = net.pop_bypass_flit(at, in_port, vc_flat, out) {
                    if flit.kind.is_tail() {
                        self.complete_popup(net, slot, vnet, pop);
                    }
                }
            }
        }
    }

    fn detect(&mut self, net: &mut Network, slot: usize, vnet: VnetId, now: Cycle) {
        let st = &mut self.routers[slot];
        let node = st.node;
        let vs = &mut st.vnets[vnet.index()];
        if !vs.stage.is_idle() {
            vs.counter.reset();
            return;
        }
        let stalled = net.has_upward_candidate(node, vnet);
        net.count_work(|w| w.upward_tests += 1);
        if cfg!(debug_assertions) {
            self.cand_scratch.clear();
            net.upward_candidates_into(node, vnet, &mut self.cand_scratch);
            assert_eq!(
                stalled,
                !self.cand_scratch.is_empty(),
                "the upward-candidate test of {node} VNet {vnet} disagrees with the list at cycle {now}"
            );
        }
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
        // The expiry is the list's only reader: it is built here, once per
        // expired watchdog, not in every cycle the counter runs.
        self.cand_scratch.clear();
        net.upward_candidates_into(node, vnet, &mut self.cand_scratch);
        net.count_work(|w| w.candidate_lists += 1);
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
        // scheme owes it something (`busy`) or the network can show it
        // something (its `scheme_input` bit). Visiting a router that is
        // quiet on both sides would drain an empty inbox, find every stage
        // `Idle`, find no upward candidate (one needs a buffered flit
        // routed `Up`) and so zero its counters; only that last effect is
        // applied here, to the walked slots. A slot the walk does not meet
        // has its counters at zero already: a non-zero watchdog ticked on
        // an `Up`-routed flit, which kept the router's bit until a walk
        // found it gone and zeroed them.
        for w in 0..net.scheme_input().word_count() {
            let word = net.scheme_input().word(w);
            for i in WakeSet::members(w, word) {
                match self.slot_of[i] {
                    Some(slot) => {
                        self.woken.insert(slot as usize);
                    }
                    // Off the boundary: nothing for UPP to walk.
                    None => net.clear_scheme_input(NodeId(i as u32)),
                }
            }
        }
        // Ascending slot order: a visit reads its siblings' stages and
        // records trace events, so the order is simulated state.
        for w in 0..self.busy.word_count() {
            let walk = self.woken.take_word(w) | self.busy.word(w);
            for slot in WakeSet::members(w, walk) {
                net.count_work(|c| c.scheme_slots_examined += 1);
                let st = &mut self.routers[slot];
                let node = st.node;
                if !st.is_quiet() || net.router(node).has_scheme_input() {
                    net.count_work(|c| c.scheme_visits += 1);
                    self.process_router(net, slot);
                    if self.routers[slot].is_quiet() {
                        self.busy.remove(slot);
                    } else {
                        self.busy.insert(slot);
                    }
                    continue;
                }
                st.reset_counters();
                net.clear_scheme_input(node);
            }
            if cfg!(debug_assertions) {
                for slot in WakeSet::members(w, !walk & self.busy.full_word(w)) {
                    self.assert_unwalked_slot(net, slot);
                }
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
                if !vs.stage.is_idle() {
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

    /// UPP's tick walks only the boundary routers that may need it: 1,000
    /// cycles on an empty baseline network examine no slot (the scan the
    /// walk replaced read all 16 in every cycle), and once a packet has
    /// crossed the interposer and drained, the walk has dropped every bit
    /// the crossing set and examines nothing again. Counted in debug
    /// builds only.
    #[cfg(debug_assertions)]
    #[test]
    fn an_empty_network_examines_no_slot() {
        let (mut sys, _) = system(20, ConsumePolicy::Immediate { latency: 1 });
        sys.run(1_000);
        let w = sys.net().work_counts();
        assert_eq!((w.scheme_slots_examined, w.scheme_visits), (0, 0));

        let src = sys.net().topo().chiplets()[0].routers[0];
        let dest = sys.net().topo().chiplets()[1].routers[9];
        sys.send(src, dest, VnetId(0), 5).unwrap();
        sys.run(200);
        assert_eq!(sys.net().in_flight(), 0);
        let examined = sys.net().work_counts().scheme_slots_examined;
        assert!(examined > 0, "the crossing is walked");
        assert!(sys.net().scheme_input().is_empty());
        sys.run(1_000);
        assert_eq!(sys.net().work_counts().scheme_slots_examined, examined);
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
        for node in sys.net().topo().nodes() {
            let r = sys.net().router(node.id);
            for p in Port::ALL {
                let prio = r.vc_words(p).prio;
                assert_eq!(prio, 0, "{} {p} still marks VCs {prio:#b}", node.id);
            }
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
        let summary = obs.summary(sys.net().cycle()).summary_json();
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

    #[test]
    fn a_head_found_back_in_the_popping_router_is_popped_from_where_it_was_found() {
        // Driven by hand: a packet waits at its entry interposer router
        // behind a failed `Up` link (fail-stop keeps its head at the front
        // of its VC), and its popup is in `LocateHead` with a candidate that
        // names another input VC. Its req went ahead before the link
        // failed and recorded the circuit the popped flit follows.
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let mut net = upp_noc::network::Network::new(
            NocConfig::default(),
            topo,
            StdArc::new(ChipletRouting::xy()),
            ConsumePolicy::Immediate { latency: 1 },
            11,
        );
        let src = net.topo().chiplets()[0].routers[0];
        let dest = net.topo().chiplets()[1].routers[10];
        let ir = net.topo().entry_interposer_for(dest).unwrap();
        let mut cand = UpwardCandidate {
            in_port: Port::West,
            vc_flat: 0,
            packet: PacketId(0),
            vnet: VnetId(0),
            dest,
        };
        net.send_control(ir, Upp::make_req(&net, ir, &cand));
        for _ in 0..50 {
            net.step();
        }
        net.inject_link_fault(ir, Port::Up);
        let packet = net.try_send(src, dest, VnetId(0), 1).unwrap();
        let (in_port, vc_flat) = (0..200)
            .find_map(|_| {
                net.step();
                let r = net.router(ir);
                r.input_vcs().find(|&(p, f)| {
                    r.input_vc(p, f).owner() == Some(packet)
                        && r.vc_front(p, f).is_some_and(|b| b.kind.is_head())
                })
            })
            .expect("the packet reaches its entry interposer router");
        let other = if in_port == Port::West {
            Port::East
        } else {
            Port::West
        };

        let mut upp = Upp::new(UppConfig::default());
        upp.initialize(&net);
        let slot = upp.routers.iter().position(|st| st.node == ir).unwrap();
        cand = UpwardCandidate {
            in_port: other,
            vc_flat,
            packet,
            ..cand
        };
        let at = net.cycle();
        let wait = Stage::WaitAck {
            cand,
            selected_at: at,
        };
        upp.enter(&mut net, slot, VnetId(0), wait);
        let locate = Stage::LocateHead {
            cand,
            selected_at: at,
            acked_at: at,
        };
        upp.enter(&mut net, slot, VnetId(0), locate);
        upp.advance_stage(&mut net, slot, VnetId(0));

        assert_eq!(
            upp.routers[slot].vnets[0].stage.kind(ir),
            PopupStage::PopInterposer
        );
        let r = net.router(ir);
        assert!(
            r.input_vc(in_port, vc_flat).frozen(),
            "the VC the head was found in is frozen"
        );
        assert!(
            !r.input_vc(other, vc_flat).frozen(),
            "the candidate's is not"
        );
        assert!(r.is_priority_vc(in_port, vc_flat));

        // Once the link heals, the popup pops the found VC and ends.
        net.heal_link_fault(ir, Port::Up);
        for _ in 0..300 {
            net.begin_cycle();
            upp.pre_cycle(&mut net);
            net.finish_cycle();
        }
        let stage = upp.routers[slot].vnets[0].stage.kind(ir);
        assert_eq!(stage, PopupStage::Idle, "stuck in {stage}");
        assert_eq!(UppStats::snapshot(&upp.stats).popups_completed, 1);
        assert_eq!(net.stats().packets_ejected, 1, "the popped packet arrived");
        assert!(!net.router(ir).input_vc(in_port, vc_flat).frozen());
        for node in net.topo().nodes() {
            for p in Port::ALL {
                let prio = net.router(node.id).vc_words(p).prio;
                assert_eq!(prio, 0, "{} {p} still marks VCs {prio:#b}", node.id);
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "illegal popup stage transition")]
    fn entering_a_stage_checks_the_stage_actually_held() {
        let (mut sys, _stats) = system(20, ConsumePolicy::Immediate { latency: 1 });
        let mut upp = Upp::new(UppConfig::default());
        upp.initialize(sys.net());
        let node = upp.routers[0].node;
        let to = Stage::Pop(Pop {
            packet: PacketId(0),
            dest: node,
            vc: (upp.routers[1].node, Port::West, 0),
            selected_at: 0,
            acked_at: 0,
            located_at: 0,
        });
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
