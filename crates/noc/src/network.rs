//! The network: routers, NIs, staged links and the per-cycle schedule.

use crate::config::NocConfig;
use crate::control::{ControlMsg, DeliveredControl};
use crate::event::{ControlSlab, Event, WakeTarget};
use crate::ids::{Cycle, NodeId, PacketId, Port, VnetId};
use crate::ni::{ConsumePolicy, Delivered, Ni, PermitState};
use crate::obs::ObsRegistry;
use crate::packet::{Flit, PacketArena, PacketDesc, RouteInfo};
use crate::router::{Router, RouterCtx};
use crate::routing::{GlobalCdg, GlobalChannel, RouteComputer};
use crate::stats::NetStats;
use crate::topology::Topology;
use crate::trace::{StallReport, TraceEvent, Tracer, VcHold, WedgedPacket};
use crate::wake_set::WakeSet;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::Arc;

/// A ring-buffer event calendar.
///
/// Every event is staged at most `lookahead = max(1 + link_latency,
/// credit_latency)` cycles into the future (and always strictly after
/// `now`), so `lookahead + 1` slots indexed by `cycle % slots.len()` can
/// never collide. Draining a cycle recycles its slot `Vec`, making the
/// steady-state schedule allocation-free where the former
/// `BTreeMap<Cycle, Vec<Event>>` allocated tree nodes and fresh vectors
/// every cycle on the hot path.
struct EventCalendar {
    slots: Vec<Vec<Event>>,
}

impl EventCalendar {
    fn new(cfg: &NocConfig) -> Self {
        let lookahead = (1 + cfg.link_latency).max(cfg.credit_latency);
        EventCalendar {
            slots: (0..=lookahead).map(|_| Vec::new()).collect(),
        }
    }

    #[inline]
    fn slot(&self, at: Cycle) -> usize {
        (at % self.slots.len() as Cycle) as usize
    }

    #[inline]
    fn push(&mut self, now: Cycle, at: Cycle, ev: Event) {
        debug_assert!(at > now, "events must be staged into the future");
        debug_assert!(
            at - now < self.slots.len() as Cycle,
            "event staged beyond the calendar horizon"
        );
        let idx = self.slot(at);
        self.slots[idx].push(ev);
    }

    /// Removes the events due at `now`; hand the drained `Vec` back through
    /// [`EventCalendar::recycle`] to reuse its capacity.
    fn take(&mut self, now: Cycle) -> Vec<Event> {
        let idx = self.slot(now);
        std::mem::take(&mut self.slots[idx])
    }

    fn recycle(&mut self, now: Cycle, mut events: Vec<Event>) {
        events.clear();
        let idx = self.slot(now);
        if self.slots[idx].is_empty() {
            self.slots[idx] = events;
        }
    }

    /// Exact heap bytes of the calendar ring (slot capacities; the slots
    /// grow once to the workload's staging peak and are then recycled).
    fn mem_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Vec<Event>>()
            + self
                .slots
                .iter()
                .map(|s| s.capacity() * std::mem::size_of::<Event>())
                .sum::<usize>()
    }
}

/// Exact memory footprint of the simulation state, measured by walking the
/// live structures (no allocator instrumentation). It covers routers, NIs,
/// the packet-descriptor arena (the only per-packet table) and the event
/// calendar. Kernel-invariant by construction: that state's layout is
/// byte-identical between the active-set and always-tick kernels, so the
/// same run reports the same bytes under both.
///
/// A router or an NI counts its inline bytes (`size_of::<Router>()`,
/// `size_of::<Ni>()`) beside its heap, so moving state between the two
/// reads as no saving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MemReport {
    /// Bytes across all routers, inline and heap (VC rings, state arrays,
    /// absorber).
    pub routers_bytes: usize,
    /// Bytes across all NIs, inline and heap (injection rings of
    /// descriptor handles, delivery rings, assembly).
    pub nis_bytes: usize,
    /// Heap bytes of the packet-descriptor arena: descriptor slab,
    /// liveness bits and free list.
    pub arena_bytes: usize,
    /// Heap bytes of the event-calendar ring and of the slab of control
    /// messages its events refer to.
    pub calendar_bytes: usize,
    /// Sum of the component fields.
    pub total_bytes: usize,
    /// `routers_bytes` averaged over the router count.
    pub bytes_per_router: usize,
    /// Descriptors live right now.
    pub arena_live: usize,
    /// Peak concurrently-live descriptors (arena occupancy high water).
    pub arena_high_water: usize,
    /// Arena slab length (peak footprint in slots; never shrinks).
    pub arena_slots: usize,
}

/// What `finish_cycle` looks at: the scheduler's whole state, as wake sets
/// over node indices. A site that changes what a component holds, or what
/// its blocked flits wait on, sets a bit; `finish_cycle` walks the bits that
/// are set, ascending, so a cycle costs what is awake and the calendar
/// receives events in the order the always-tick reference (which visits
/// `0..n`) emits them.
///
/// Two *level* sets say who holds anything: a router or an NI is a member
/// while `has_pending_work`, from the delivery or mutation that gave it
/// something until a look finds it empty. A component off its level set
/// would do nothing if stepped, and both sets empty is
/// [`Network::is_quiescent`].
///
/// Two *due* sets per kind say which components can make progress, because
/// a router full of blocked flits, or an NI whose backlog waits on credits
/// or whose delivered packets are not yet due, stays on the level set and
/// sleeps there. [`Router::step`] decides whether a router is worth another
/// look in the next cycle or parks until an input of its step changes, and
/// every such input is a wake site: a credit, a flit or control arrival,
/// scheme access to the router, a freed ejection entry at the node's NI, a
/// healed link. An NI that injected is worth a look in the next cycle; any
/// other parks until a credit, a delivery, a new packet, a permit, a pause
/// toggle or [`Network`]'s consumption timer wakes it. A wake is for this
/// cycle (`due`) or the next (`due_next`: a flit attends allocation the
/// cycle after its buffer write, and a step or a consumption enables the
/// *next* step); the two swap where `finish_cycle` advances the clock,
/// `due` having been emptied by the router loop (`ni_due` by the
/// consumption loop).
///
/// Extra bits cost a look, missing bits hang a flit. A due bit may be stale
/// — its component left the schedule, or never was on it — and is dropped
/// where it is visited or where the router is scheduled again. What debug
/// builds assert for every node in every cycle is the converse: *holds
/// anything* implies *on its level set*, and *can move a flit*
/// ([`Router::can_progress`], [`Ni::can_progress`]) implies *due now*.
struct Schedule {
    /// Routers holding anything.
    routers: WakeSet,
    /// NIs holding anything.
    nis: WakeSet,
    /// Routers to look at in this cycle's `finish_cycle`.
    due: WakeSet,
    /// Routers to look at in the next one.
    due_next: WakeSet,
    /// NIs to look at in this cycle's `finish_cycle`.
    ni_due: WakeSet,
    /// NIs to look at in the next one.
    ni_due_next: WakeSet,
}

impl Schedule {
    /// Everything scheduled and due: the conservative state of a network
    /// nobody has looked at yet.
    fn all_awake(nodes: usize) -> Self {
        let mut full = WakeSet::new(nodes);
        full.fill();
        Self {
            routers: full.clone(),
            nis: full.clone(),
            due: full.clone(),
            due_next: WakeSet::new(nodes),
            ni_due: full,
            ni_due_next: WakeSet::new(nodes),
        }
    }

    /// Puts `node`'s router on the schedule with something a step can use
    /// `delay` (0 or 1) cycles from now. The due bits of a router that was
    /// off the schedule are stale and are replaced, not added to.
    #[inline]
    fn schedule_router(&mut self, node: NodeId, delay: Cycle) {
        debug_assert!(delay <= 1, "no delivery is gated for {delay} cycles");
        let i = node.index();
        if self.routers.insert(i) {
            self.due.remove(i);
            self.due_next.remove(i);
        }
        if delay == 0 {
            self.due.insert(i);
        } else {
            self.due_next.insert(i);
        }
    }

    /// Lets `node`'s router look again this cycle if it is parked: an input
    /// its blocked flits wait on changed outside the router (the NI's free
    /// ejection entries). Unlike [`Schedule::schedule_router`] this gives an
    /// empty router nothing to do, so the level set stays as it is.
    #[inline]
    fn wake_router(&mut self, node: NodeId) {
        self.due.insert(node.index());
    }

    /// [`Schedule::wake_router`] for every router: a healed link or a new
    /// routing function may release any blocked flit.
    fn wake_all_routers(&mut self) {
        self.due.fill();
    }

    /// Puts `node`'s NI on the schedule and lets it look in this cycle.
    #[inline]
    fn wake_ni(&mut self, node: NodeId) {
        self.nis.insert(node.index());
        self.ni_due.insert(node.index());
    }
}

/// Exact counts of the work in the loops a stalled network spends its
/// time in: switch allocation's request predicate and UPP's interposer
/// tick. Counted only in debug builds (release builds read zeros), so
/// they cost a release run nothing; [`Network::work_counts`] sums them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct WorkCounts {
    /// `Router::vc_request` evaluations by switch allocation.
    pub vc_requests: u64,
    /// Those of them that did not bid.
    pub vc_requests_failed: u64,
    /// Input ports whose VCs switch allocation's first phase asked.
    pub sa_inputs_examined: u64,
    /// Output ports switch allocation's second phase arbitrated.
    pub sa_outputs_examined: u64,
    /// Parked input VCs re-armed by a credit, a new front flit or a freeze
    /// toggle.
    pub vcs_rearmed: u64,
    /// Watchdog ticks' [`Network::has_upward_candidate`] tests.
    pub upward_tests: u64,
    /// Upward-candidate lists a watchdog built
    /// ([`Network::upward_candidates_into`]).
    pub candidate_lists: u64,
    /// Boundary routers a scheme's per-cycle tick processed.
    pub scheme_visits: u64,
    /// Boundary routers whose visit predicate UPP's per-cycle tick read
    /// (those it walked, processed or not).
    pub scheme_slots_examined: u64,
    /// Input VCs examined while marking a popup's worm.
    pub mark_vcs_scanned: u64,
}

impl std::ops::Add for WorkCounts {
    type Output = Self;

    fn add(self, o: Self) -> Self {
        Self {
            vc_requests: self.vc_requests + o.vc_requests,
            vc_requests_failed: self.vc_requests_failed + o.vc_requests_failed,
            sa_inputs_examined: self.sa_inputs_examined + o.sa_inputs_examined,
            sa_outputs_examined: self.sa_outputs_examined + o.sa_outputs_examined,
            vcs_rearmed: self.vcs_rearmed + o.vcs_rearmed,
            upward_tests: self.upward_tests + o.upward_tests,
            candidate_lists: self.candidate_lists + o.candidate_lists,
            scheme_visits: self.scheme_visits + o.scheme_visits,
            scheme_slots_examined: self.scheme_slots_examined + o.scheme_slots_examined,
            mark_vcs_scanned: self.mark_vcs_scanned + o.mark_vcs_scanned,
        }
    }
}

/// A candidate *upward packet*: an input VC of an interposer router holding a
/// packet stalled while attempting to move up the vertical link (Sec. V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpwardCandidate {
    /// Input port of the stalled VC.
    pub in_port: Port,
    /// Flat VC index.
    pub vc_flat: usize,
    /// The stalled packet.
    pub packet: PacketId,
    /// Its VNet.
    pub vnet: VnetId,
    /// Destination router of the packet.
    pub dest: NodeId,
}

/// The simulated network.
///
/// Workloads enqueue packets with [`Network::try_send`]; schemes drive the
/// UPP/remote-control mechanisms through the `scheme API` methods; the
/// simulation loop alternates [`Network::begin_cycle`], scheme hooks, and
/// [`Network::finish_cycle`].
pub struct Network {
    cfg: NocConfig,
    topo: Topology,
    routing: Arc<dyn RouteComputer>,
    routers: Vec<Router>,
    nis: Vec<Ni>,
    cycle: Cycle,
    calendar: EventCalendar,
    /// Reusable staging buffer for `(arrival, event)` pairs emitted during a
    /// cycle phase; drained into the calendar at the end of each phase.
    emit_scratch: Vec<(Cycle, Event)>,
    /// The control messages the calendar's events refer to.
    controls: ControlSlab,
    stats: NetStats,
    /// The id the next `try_send` hands out (ids are sequential).
    next_packet_id: u64,
    /// Cycle of the last flit or control movement, or of a send into an
    /// empty network (the stall watchdog's input).
    last_progress: Cycle,
    /// Interned per-packet descriptors, the only per-packet record; wire
    /// flits and NI queues carry only a handle. Allocated by `try_send`,
    /// freed when the tail's `NiFlitArrive` is delivered, so its live count
    /// is the in-flight count.
    arena: PacketArena,
    tracer: Tracer,
    /// Protocol-state telemetry registry (disabled unless
    /// [`Network::enable_obs`] armed it).
    obs: ObsRegistry,
    /// Which routers and NIs the next `finish_cycle` looks at.
    schedule: Schedule,
    /// Runtime toggle, set only by [`Network::set_active_scheduler`]: when
    /// false, every component is stepped every cycle — the reference
    /// always-tick kernel. It reads no wake set (the sites that set bits
    /// still do, and nothing clears them).
    scheduler_enabled: bool,
    /// Router steps actually executed — under the scheduler, steps of
    /// routers that held work in a cycle in which it might move; neither a
    /// wake that found the router empty nor a cycle a parked router sleeps
    /// through is a step (the numerator of
    /// [`Network::active_router_fraction`]).
    router_ticks: u64,
    /// NI looks actually executed (one per NI per cycle it is visited in).
    ni_ticks: u64,
    /// The schemes' share of [`Network::work_counts`]; the routers keep
    /// theirs.
    work: WorkCounts,
    /// When each packet delivered under `ConsumePolicy::Immediate` becomes
    /// consumable, and at which NI: pushed where `begin_cycle` completes a
    /// tail, popped into `ni_due` where `finish_cycle` reaches that cycle.
    /// Sorted by construction — every NI has the same latency and tails
    /// complete in cycle order — and kept under both kernels, so it
    /// survives [`Network::set_active_scheduler`]. Never longer than the
    /// delivered packets, so pre-sized to every ejection entry there is.
    consume_timer: VecDeque<(Cycle, NodeId)>,
    /// Control messages sitting unread in NI inboxes: bumped where
    /// `begin_cycle` delivers one, dropped by [`Network::drain_ni_inbox`].
    ni_control_pending: usize,
    /// Routers that may hold scheme input (see [`Network::scheme_input`]).
    scheme_input: WakeSet,
    /// NIs that may hold delivered packets under `ConsumePolicy::External`:
    /// inserted where `begin_cycle` completes a tail there, dropped by
    /// [`Network::pop_all_delivered`] once the NI holds none.
    delivered: WakeSet,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("cycle", &self.cycle)
            .field("nodes", &self.routers.len())
            .field("in_flight", &self.in_flight())
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Builds a network over `topo` with the given routing and consumption
    /// policy. `seed` drives the routers' VC-selection randomness.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`NocConfig::validate`].
    pub fn new(
        cfg: NocConfig,
        topo: Topology,
        routing: Arc<dyn RouteComputer>,
        consume: ConsumePolicy,
        seed: u64,
    ) -> Self {
        cfg.validate().expect("invalid NocConfig");
        let routers: Vec<Router> = topo
            .nodes()
            .iter()
            .map(|n| Router::new(n.id, &cfg, &topo, seed))
            .collect();
        let nis: Vec<Ni> = topo
            .nodes()
            .iter()
            .map(|n| Ni::new(n.id, &cfg, consume))
            .collect();
        let stats = NetStats::new(cfg.num_vnets);
        let calendar = EventCalendar::new(&cfg);
        let n = routers.len();
        // Pre-size the descriptor arena to a practical in-flight ceiling
        // (every source can fill its injection queues) so steady-state
        // interning rarely — and below the ceiling never — reallocates; the
        // slab still grows transparently past it.
        let mut arena = PacketArena::new();
        arena.reserve(n * cfg.num_vnets * cfg.injection_queue_entries);
        let consume_timer = VecDeque::with_capacity(n * cfg.num_vnets * cfg.ejection_queue_entries);
        Self {
            cfg,
            topo,
            routing,
            routers,
            nis,
            cycle: 0,
            calendar,
            emit_scratch: Vec::new(),
            controls: ControlSlab::default(),
            stats,
            next_packet_id: 0,
            last_progress: 0,
            arena,
            tracer: Tracer::disabled(),
            obs: ObsRegistry::disabled(),
            schedule: Schedule::all_awake(n),
            scheduler_enabled: true,
            router_ticks: 0,
            ni_ticks: 0,
            work: WorkCounts::default(),
            consume_timer,
            ni_control_pending: 0,
            scheme_input: WakeSet::new(n),
            delivered: WakeSet::new(n),
        }
    }

    /// Enables or disables the active-set scheduler at runtime. Disabling
    /// restores the always-tick reference kernel; re-enabling marks every
    /// component active (conservative) so no pending work can be missed,
    /// and keeps the consumption timer, which both kernels maintain.
    pub fn set_active_scheduler(&mut self, enabled: bool) {
        self.scheduler_enabled = enabled;
        if enabled {
            self.schedule = Schedule::all_awake(self.routers.len());
        }
    }

    /// True while the active-set scheduler is on.
    pub fn active_scheduler(&self) -> bool {
        self.scheduler_enabled
    }

    /// Fraction of `cycle x routers` slots in which a router was actually
    /// stepped since construction: 1.0 for the always-tick kernel, which
    /// steps every router, empty or not; under the scheduler, the share of
    /// slots in which a router held something that could move — or had to
    /// look once to find that it could not (a fresh arrival, a credit that
    /// did not help). A router full of blocked flits contributes nothing
    /// while it sleeps, traced or not.
    pub fn active_router_fraction(&self) -> f64 {
        let total = self.cycle as f64 * self.routers.len() as f64;
        if total == 0.0 {
            1.0
        } else {
            self.router_ticks as f64 / total
        }
    }

    /// The work counted so far in debug builds, routers' and schemes'
    /// together (all zero in a release build).
    pub fn work_counts(&self) -> WorkCounts {
        self.routers
            .iter()
            .fold(self.work, |sum, r| sum + r.work_counts())
    }

    /// Lets a scheme count its own loops into [`Network::work_counts`];
    /// `count` runs in debug builds only.
    pub fn count_work(&mut self, count: impl FnOnce(&mut WorkCounts)) {
        if cfg!(debug_assertions) {
            count(&mut self.work);
        }
    }

    /// The flight recorder (disabled unless [`Network::set_tracer`] armed
    /// one).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access (schemes record popup spans through this).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Installs a tracer, returning the previous one with whatever it
    /// recorded so far, its open spans of blocked VCs closed at this cycle.
    pub fn set_tracer(&mut self, tracer: Tracer) -> Tracer {
        let mut old = std::mem::replace(&mut self.tracer, tracer);
        old.end_spans();
        old
    }

    /// The telemetry registry (disabled unless [`Network::enable_obs`]
    /// armed it).
    pub fn obs(&self) -> &ObsRegistry {
        &self.obs
    }

    /// Mutable registry access (schemes register and record their metrics
    /// through this).
    pub fn obs_mut(&mut self) -> &mut ObsRegistry {
        &mut self.obs
    }

    /// Arms protocol-state telemetry: the registry starts recording and the
    /// substrate's mechanism metrics (circuit table, absorber) register
    /// themselves. Schemes register their own metrics lazily on their next
    /// hook invocation. Idempotent.
    pub fn enable_obs(&mut self) {
        self.obs.enable();
    }

    /// The configuration.
    pub fn cfg(&self) -> &NocConfig {
        &self.cfg
    }

    /// The topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The route computer.
    pub fn routing(&self) -> &Arc<dyn RouteComputer> {
        &self.routing
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Resets the measurement counters (end of warmup). In-flight packets
    /// keep their descriptors so their latencies are attributed to the
    /// measurement window in which they finish.
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::new(self.cfg.num_vnets);
    }

    /// Packets created but not yet fully ejected.
    pub fn in_flight(&self) -> usize {
        self.arena.live_count()
    }

    /// True when in-flight packets exist but nothing has moved for the
    /// watchdog threshold — the network is wedged (only possible without a
    /// deadlock-freedom scheme, or with a broken one).
    pub fn stalled(&self) -> bool {
        self.in_flight() > 0
            && self.cycle.saturating_sub(self.last_progress) >= self.cfg.watchdog_threshold
    }

    /// Cycle of the last observed flit or control movement, or of the
    /// latest send into an empty network.
    pub fn last_progress(&self) -> Cycle {
        self.last_progress
    }

    /// Read access to one NI.
    pub fn ni(&self, node: NodeId) -> &Ni {
        &self.nis[node.index()]
    }

    /// Read access to one router.
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.index()]
    }

    /// Mutable access to one router (scheme-facing mechanisms).
    /// Conservatively wakes the router: the caller may mutate state the
    /// scheduler's wake points don't see.
    pub fn router_mut(&mut self, node: NodeId) -> &mut Router {
        self.schedule.schedule_router(node, 0);
        &mut self.routers[node.index()]
    }

    // ------------------------------------------------------------- workload

    /// Creates and enqueues a packet; returns its id, or `None` when the
    /// source injection queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `len_flits` is 0.
    pub fn try_send(
        &mut self,
        src: NodeId,
        dest: NodeId,
        vnet: VnetId,
        len_flits: u16,
    ) -> Option<PacketId> {
        assert!(len_flits > 0, "a packet has at least one flit");
        if !self.nis[src.index()].can_enqueue(vnet) {
            return None;
        }
        self.schedule.wake_ni(src);
        if self.in_flight() == 0 {
            // The watchdog measures how long packets in flight have not
            // moved; an idle stretch before this send is not such a time.
            self.last_progress = self.cycle;
        }
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        let route = self.routing.plan(&self.topo, src, dest);
        let desc = self.arena.alloc(PacketDesc {
            id,
            src,
            vnet,
            pkt_len: len_flits,
            route,
            created_at: self.cycle,
            injected_at: PacketDesc::NOT_INJECTED,
        });
        let queued = self.nis[src.index()].enqueue(desc, id, vnet, len_flits);
        assert!(queued, "can_enqueue checked");
        self.stats.packets_created += 1;
        if self.tracer.enabled() {
            self.tracer.record(TraceEvent::PacketCreated {
                at: self.cycle,
                packet: id,
                src,
                dest,
                vnet,
                len_flits,
            });
        }
        Some(id)
    }

    /// Route plan a packet from `src` to `dest` would take (for schemes that
    /// need to know boundary crossings before injection).
    pub fn plan_route(&self, src: NodeId, dest: NodeId) -> RouteInfo {
        self.routing.plan(&self.topo, src, dest)
    }

    // ----------------------------------------------------------- scheme API

    /// Sends a control message from `node` (enters that router's dedicated
    /// buffer, attends switch allocation from the next cycle).
    pub fn send_control(&mut self, node: NodeId, msg: ControlMsg) {
        let now = self.cycle;
        self.schedule.schedule_router(node, 0);
        self.routers[node.index()].send_control(msg, now);
    }

    /// Drains control messages that terminated at `node`'s router (acks)
    /// into `out`. Appends without clearing; both buffers keep their
    /// capacity, so a caller-held scratch makes the drain allocation-free.
    pub fn drain_router_inbox(&mut self, node: NodeId, out: &mut Vec<DeliveredControl>) {
        self.routers[node.index()].drain_control_inbox_into(out);
    }

    /// Drains control messages delivered to `node`'s NI (reqs/stops) into
    /// `out` (same reusable-scratch contract as
    /// [`Network::drain_router_inbox`]).
    pub fn drain_ni_inbox(&mut self, node: NodeId, out: &mut Vec<DeliveredControl>) {
        let before = out.len();
        self.nis[node.index()].drain_control_inbox_into(out);
        self.ni_control_pending -= out.len() - before;
    }

    /// Control messages delivered to NIs and not yet drained, over the
    /// whole network. Zero means every NI inbox is empty, so a scheme can
    /// skip its inbox scan.
    pub fn ni_control_pending(&self) -> usize {
        self.ni_control_pending
    }

    /// The routers, by node index, that may hold scheme input
    /// ([`Router::has_scheme_input`]): every router for which it is true
    /// is a member. A router joins where its predicate may turn true —
    /// the first flit of an `Up`-routed VC, a terminated ack — and leaves
    /// only through [`Network::clear_scheme_input`], so a member may hold
    /// nothing any more. A scheme's tick walks this set instead of every
    /// boundary router and tests the predicate of each member it meets.
    /// [`Network::reconfigure`] re-routes nothing: it runs on a drained
    /// network, where no VC holds a head to route `Up`.
    pub fn scheme_input(&self) -> &WakeSet {
        &self.scheme_input
    }

    /// Drops `node` from [`Network::scheme_input`]: for the scheme's walk,
    /// which has just found its predicate false.
    pub fn clear_scheme_input(&mut self, node: NodeId) {
        debug_assert!(
            !self.routers[node.index()].has_scheme_input(),
            "{node} leaves the scheme-input set holding scheme input"
        );
        self.scheme_input.remove(node.index());
    }

    /// True when an interposer router holds an upward-stalled packet of
    /// `vnet`: exactly when [`Network::upward_candidates_into`] would push
    /// one, but from occupancy words and routes alone, with no descriptor
    /// load and no list.
    pub fn has_upward_candidate(&self, node: NodeId, vnet: VnetId) -> bool {
        self.routers[node.index()].has_upward_candidate(vnet)
    }

    /// Scans an interposer router for upward-stalled packets of `vnet`,
    /// appending into a caller-held scratch (without clearing), so a
    /// per-scheme reusable buffer makes the per-cycle scan allocation-free.
    pub fn upward_candidates_into(
        &self,
        node: NodeId,
        vnet: VnetId,
        out: &mut Vec<UpwardCandidate>,
    ) {
        let r = &self.routers[node.index()];
        // Only this VNet's VCs, in `input_vcs` order: scanning every VNet
        // once visits each input VC once.
        let ports = Port::ALL.into_iter().filter(|&p| r.has_link(p));
        for (p, f) in ports.flat_map(|p| r.vnet_range(vnet).map(move |f| (p, f))) {
            let vc = r.input_vc(p, f);
            if vc.route_out() != Some(Port::Up) {
                continue;
            }
            let Some(owner) = vc.owner() else { continue };
            let Some(front) = r.vc_front(p, f) else {
                continue;
            };
            // Circuit keys are protocol state, legitimately read off any
            // flit of the worm (the head may already have departed).
            let dest = self.arena.desc(front).route.dest;
            out.push(UpwardCandidate {
                in_port: p,
                vc_flat: f,
                packet: owner,
                vnet,
                dest,
            });
        }
    }

    /// Last cycle a flit of `vnet` left `node` through the `Up` port.
    pub fn up_last_sent(&self, node: NodeId, vnet: VnetId) -> Cycle {
        self.routers[node.index()].up_last_sent(vnet)
    }

    /// Pops one flit of an input VC into the bypass latch toward `out_port`:
    /// `Port::Up` for a popup at the interposer router, the circuit's
    /// output for one that starts inside the chiplet (Sec. V-B3). Returns
    /// the flit if one was eligible.
    pub fn pop_bypass_flit(
        &mut self,
        node: NodeId,
        in_port: Port,
        vc_flat: usize,
        out_port: Port,
    ) -> Option<Flit> {
        // The popped flit lands in the bypass latch; the router must be
        // stepped to forward it.
        self.schedule.schedule_router(node, 0);
        let mut emit = std::mem::take(&mut self.emit_scratch);
        let (router, mut ctx) = self.router_ctx(node.index(), &mut emit);
        let flit = router.pop_bypass_flit(&mut ctx, in_port, vc_flat, out_port);
        for (at, ev) in emit.drain(..) {
            self.calendar.push(self.cycle, at, ev);
        }
        self.emit_scratch = emit;
        flit
    }

    /// Router `i` and the context it runs in this cycle, emitting into
    /// `emit`.
    fn router_ctx<'a>(
        &'a mut self,
        i: usize,
        emit: &'a mut Vec<(Cycle, Event)>,
    ) -> (&'a mut Router, RouterCtx<'a>) {
        let ctx = RouterCtx {
            cfg: &self.cfg,
            topo: &self.topo,
            routing: self.routing.as_ref(),
            now: self.cycle,
            ni: &mut self.nis[i],
            emit,
            stats: &mut self.stats,
            last_progress: &mut self.last_progress,
            tracer: &mut self.tracer,
            obs: &mut self.obs,
            arena: &self.arena,
            scheme_input: &mut self.scheme_input,
            controls: &mut self.controls,
        };
        (&mut self.routers[i], ctx)
    }

    /// Number of flits waiting in a router's bypass latch.
    pub fn bypass_pending(&self, node: NodeId) -> usize {
        self.routers[node.index()].bypass_pending()
    }

    /// NI-side ejection-entry reservation (UPP_req handling). An entry is
    /// what the router's step waits on, not the NI's, so nothing wakes.
    pub fn try_reserve_ejection(&mut self, node: NodeId, vnet: VnetId) -> bool {
        self.nis[node.index()].try_reserve_entry(vnet)
    }

    /// Releases an NI ejection reservation (UPP_stop handling).
    pub fn release_ejection_reservation(&mut self, node: NodeId, vnet: VnetId) {
        self.schedule.wake_router(node); // a head flit may be waiting for the entry
        self.nis[node.index()].release_reservation(vnet);
    }

    /// Sets an injection permit on a pending packet (remote control).
    pub fn set_injection_permit(&mut self, node: NodeId, id: PacketId, state: PermitState) -> bool {
        self.schedule.wake_ni(node);
        self.nis[node.index()].set_permit(id, state)
    }

    /// A per-node snapshot of buffered flits (router VC occupancy), useful
    /// for diagnosing where a deadlock chain sits.
    pub fn occupancy(&self) -> Vec<(NodeId, usize)> {
        self.routers
            .iter()
            .map(|r| {
                let n = r.node();
                let flits: usize = r.input_vcs().map(|(p, f)| r.vc_buf_len(p, f)).sum();
                (n, flits)
            })
            .collect()
    }

    /// Measures the exact footprint of the simulation state by walking
    /// routers, NIs, the descriptor arena and the event calendar (see
    /// [`MemReport`]).
    pub fn mem_report(&self) -> MemReport {
        use std::mem::size_of;
        let routers_bytes: usize = (self.routers.iter())
            .map(|r| size_of::<Router>() + r.mem_bytes())
            .sum();
        let nis_bytes: usize = (self.nis.iter())
            .map(|ni| size_of::<Ni>() + ni.mem_bytes())
            .sum();
        let arena_bytes = self.arena.mem_bytes();
        let calendar_bytes = self.calendar.mem_bytes() + self.controls.mem_bytes();
        MemReport {
            routers_bytes,
            nis_bytes,
            arena_bytes,
            calendar_bytes,
            total_bytes: routers_bytes + nis_bytes + arena_bytes + calendar_bytes,
            bytes_per_router: routers_bytes / self.routers.len().max(1),
            arena_live: self.arena.live_count(),
            arena_high_water: self.arena.high_water(),
            arena_slots: self.arena.slots_len(),
        }
    }

    /// Assembles a deadlock-forensics report for the current network state:
    /// every in-flight packet with the input VCs it holds, what each held VC
    /// waits on, and one circular wait over physical channels (extracted by
    /// running [`GlobalCdg::find_cycle`] on the runtime hold/wait graph).
    /// Meaningful any time, but intended for when [`Network::stalled`]
    /// trips.
    pub fn stall_report(&self) -> StallReport {
        let mut wedged: Vec<WedgedPacket> = self
            .arena
            .live()
            .map(|d| WedgedPacket {
                id: d.id,
                src: d.src,
                dest: d.route.dest,
                vnet: d.vnet,
                len_flits: d.pkt_len,
                age: self.cycle.saturating_sub(d.created_at),
                injected: d.injected().is_some(),
                holds: Vec::new(),
            })
            .collect();
        wedged.sort_by_key(|w| w.id);

        // One walk over every input VC, bucketing each held one by its
        // owner. Holds land in router then VC order per packet; the
        // wait-for edges are tagged with their packet and stably sorted
        // into packet order, which `find_cycle` depends on.
        let mut edges: Vec<(usize, (GlobalChannel, GlobalChannel))> = Vec::new();
        for r in &self.routers {
            let node = r.node();
            for (p, f) in r.input_vcs() {
                let vc = r.input_vc(p, f);
                let Some(i) = vc
                    .owner()
                    .and_then(|id| wedged.binary_search_by_key(&id, |w| w.id).ok())
                else {
                    continue;
                };
                let waits_out = vc.route_out();
                let waits_node = waits_out
                    .filter(|&out| out != Port::Local)
                    .and_then(|out| self.topo.neighbor(node, out));
                wedged[i].holds.push(VcHold {
                    node,
                    in_port: p,
                    vc_flat: f,
                    buffered: r.vc_buf_len(p, f),
                    head_of_line: r.vc_front(p, f).is_some_and(|b| b.kind.is_head()),
                    waits_out,
                    waits_node,
                });
                // Wait-for edge: the channel whose downstream buffer the
                // flits occupy depends on the channel the packet needs
                // next. Locally-injected flits hold no inter-router
                // channel; ejecting packets wait on none.
                if r.vc_buf_is_empty(p, f) || p == Port::Local {
                    continue;
                }
                let (Some(out), Some(upstream)) = (waits_out, self.topo.neighbor(node, p)) else {
                    continue;
                };
                if out == Port::Local {
                    continue;
                }
                let from = GlobalChannel {
                    from: upstream,
                    out: p.opposite(),
                };
                edges.push((i, (from, GlobalChannel { from: node, out })));
            }
        }
        edges.sort_by_key(|&(i, _)| i);
        let edges: Vec<_> = edges.into_iter().map(|(_, e)| e).collect();
        let wait_cycle = GlobalCdg::from_edges(&edges)
            .find_cycle()
            .unwrap_or_default();
        StallReport {
            cycle: self.cycle,
            last_progress: self.last_progress(),
            in_flight: self.in_flight(),
            wedged,
            wait_cycle,
            occupancy: self.occupancy(),
        }
    }

    // --------------------------------------------------------- dynamic faults

    /// Fails the bidirectional link leaving `node` through `port` *mid-run*
    /// (fail-stop: staged flits/credits still deliver, new traversals are
    /// gated; see [`crate::fault`] for the full semantics).
    ///
    /// # Panics
    ///
    /// Panics if no physical link exists there.
    pub fn inject_link_fault(&mut self, node: NodeId, port: Port) {
        self.topo.set_link_faulty(node, port);
        self.sync_link_ends(node, port);
    }

    /// Re-reads the link state of both routers a link joins. That re-arms
    /// their parked VCs, which each router looks at again in this cycle.
    fn sync_link_ends(&mut self, node: NodeId, port: Port) {
        let peer = self.topo.raw_neighbor(node, port);
        for n in std::iter::once(node).chain(peer) {
            self.routers[n.index()].sync_links(&self.topo);
            self.schedule.wake_router(n);
        }
    }

    /// Heals a link previously failed with [`Network::inject_link_fault`]
    /// (or at build time). Traffic blocked at the link resumes from the next
    /// cycle; credit state survived the outage, so no flit is lost.
    pub fn heal_link_fault(&mut self, node: NodeId, port: Port) {
        self.topo.clear_link_fault(node, port);
        self.sync_link_ends(node, port);
        self.schedule.wake_all_routers();
    }

    /// Pauses or resumes NI injection at `node` (endpoint throttling).
    pub fn set_injection_paused(&mut self, node: NodeId, paused: bool) {
        // Unpausing can surface a backlog the scheduler stopped watching.
        self.schedule.wake_ni(node);
        self.nis[node.index()].set_injection_paused(paused);
    }

    /// Pauses or resumes PE consumption at `node` (endpoint throttling).
    pub fn set_consumption_paused(&mut self, node: NodeId, paused: bool) {
        self.schedule.wake_ni(node);
        self.schedule.wake_router(node);
        self.nis[node.index()].set_consumption_paused(paused);
    }

    // ------------------------------------------------------- reconfiguration

    /// Dynamically reconfigures the topology (fault injection, power gating)
    /// and installs new routing — the network-flexibility scenario of
    /// Sec. VI-B that UPP supports and the baselines do not.
    ///
    /// The network must be drained: in-flight route headers reference the
    /// old topology.
    ///
    /// # Errors
    ///
    /// Returns `Err` when packets are still in flight or the mutated
    /// topology fails validation (the mutation is kept; callers decide how
    /// to repair).
    pub fn reconfigure<F>(
        &mut self,
        mutate: F,
        routing: Arc<dyn RouteComputer>,
    ) -> Result<(), String>
    where
        F: FnOnce(&mut Topology),
    {
        if self.in_flight() > 0 {
            return Err(format!(
                "cannot reconfigure with {} packets in flight",
                self.in_flight()
            ));
        }
        mutate(&mut self.topo);
        for r in &mut self.routers {
            r.sync_links(&self.topo);
        }
        self.schedule.wake_all_routers();
        self.topo.validate()?;
        self.routing = routing;
        Ok(())
    }

    // ------------------------------------------------------------ the clock

    /// Phase 1 of a cycle: delivers everything scheduled to arrive now.
    /// Schemes observe post-arrival state in their `pre_cycle` hook.
    pub fn begin_cycle(&mut self) {
        let now = self.cycle;
        let mut events = self.calendar.take(now);
        let mut emit = std::mem::take(&mut self.emit_scratch);
        for ev in events.drain(..) {
            // Every delivery schedules its target component, from the cycle
            // a step can use it (see `Event::wake_target`).
            match ev.wake_target() {
                WakeTarget::Router { node, delay } => self.schedule.schedule_router(node, delay),
                WakeTarget::Ni(node) => self.schedule.wake_ni(node),
            }
            match ev {
                Event::FlitArrive {
                    node,
                    in_port,
                    vc_flat,
                    flit,
                } => {
                    let (router, mut ctx) = self.router_ctx(node.index(), &mut emit);
                    router.deliver_flit(&mut ctx, in_port, usize::from(vc_flat), flit);
                }
                Event::CreditArrive {
                    node,
                    out_port,
                    vc_flat,
                    is_free,
                } => {
                    self.routers[node.index()].deliver_credit(
                        out_port,
                        usize::from(vc_flat),
                        is_free,
                    );
                }
                Event::NiCreditArrive {
                    node,
                    vc_flat,
                    is_free,
                } => {
                    self.nis[node.index()].on_credit(usize::from(vc_flat), is_free);
                }
                Event::NiFlitArrive { node, flit } => {
                    self.stats.flits_ejected += 1;
                    self.last_progress = now;
                    let ni = &mut self.nis[node.index()];
                    let done = ni.accept_flit(flit, now, flit.upward, &self.arena);
                    if let Some(d) = done {
                        if let Some(at) = ni.consumed_from(d.completed_at) {
                            debug_assert!(
                                self.consume_timer
                                    .back()
                                    .is_none_or(|&(last, _)| last <= at),
                                "consumption timer out of order"
                            );
                            self.consume_timer.push_back((at, node));
                        } else {
                            self.delivered.insert(node.index());
                        }
                        let desc = self.arena.get(flit.desc);
                        self.stats.record_ejection(desc, now);
                        if self.tracer.enabled() {
                            let injected = desc.injected().unwrap_or(desc.created_at);
                            self.tracer.record(TraceEvent::PacketEjected {
                                at: now,
                                packet: d.pkt.id,
                                node,
                                net_latency: now.saturating_sub(injected),
                                total_latency: now.saturating_sub(desc.created_at),
                            });
                        }
                        // The tail has ejected: the descriptor dies here.
                        self.arena.free(flit.desc);
                    }
                }
                Event::ControlArrive { node, in_port, msg } => {
                    let msg = self.controls.take(msg);
                    self.routers[node.index()].deliver_control(in_port, msg, now);
                }
                Event::NiControlArrive { node, in_port, msg } => {
                    self.ni_control_pending += 1;
                    self.nis[node.index()].deliver_control(DeliveredControl {
                        msg: self.controls.take(msg),
                        in_port,
                        at: now,
                    });
                }
            }
        }
        for (at, ev) in emit.drain(..) {
            self.calendar.push(now, at, ev);
        }
        self.emit_scratch = emit;
        self.calendar.recycle(now, events);
    }

    /// Phase 2 of a cycle: NI injection, router allocation/commit, PE
    /// consumption; then the clock advances.
    pub fn finish_cycle(&mut self) {
        let sched = self.scheduler_enabled;
        let mut emit = std::mem::take(&mut self.emit_scratch);
        let now = self.cycle;
        let vct = self.cfg.flow_control == crate::config::FlowControl::VirtualCutThrough;
        // Delivered packets that become consumable now wake their NIs.
        while let Some(&(at, node)) = self.consume_timer.front() {
            if at > now {
                break;
            }
            self.consume_timer.pop_front();
            self.schedule.ni_due.insert(node.index());
        }
        // A tracer armed since the last cycle starts charging what is
        // blocked already: the routers record it as they skip it from here.
        if self.tracer.enabled() && self.tracer.sync(now) {
            for i in 0..self.routers.len() {
                let (router, mut ctx) = self.router_ctx(i, &mut emit);
                router.open_spans(&mut ctx, true, now);
            }
        }

        // Cross-check: every component the scheduler is about to skip must
        // truly have nothing to do — nothing held if it is off the
        // schedule, nothing that can move if it is not due — and every
        // parked VC still parks, on the reason its open span records under
        // a tracer. On in every debug build (what `cargo test` runs),
        // traced or not; compiled out of release builds.
        if cfg!(debug_assertions) {
            for i in 0..self.routers.len() {
                let scheduled = !sched || self.schedule.routers.contains(i);
                let due = !sched || self.schedule.due.contains(i);
                let (r, ctx) = self.router_ctx(i, &mut emit);
                r.assert_parked_vcs(&ctx, due);
                assert!(
                    scheduled || !r.has_pending_work(),
                    "active-set scheduler would skip router {} with pending work at cycle {now}",
                    r.node()
                );
                assert!(
                    ctx.scheme_input.contains(i) || !r.has_scheme_input(),
                    "router {} holds scheme input outside the scheme-input set at cycle {now}",
                    r.node()
                );
                assert!(
                    due || !r.can_progress(&ctx),
                    "scheduler would leave router {} asleep but it can move a flit at cycle {now}",
                    r.node()
                );
            }
            for (i, ni) in self.nis.iter().enumerate().filter(|_| sched) {
                let schedule = &self.schedule;
                assert!(
                    schedule.nis.contains(i) || !ni.has_pending_work(),
                    "active-set scheduler would skip NI {} with pending work at cycle {now}",
                    ni.node()
                );
                assert!(
                    (schedule.nis.contains(i) && schedule.ni_due.contains(i))
                        || !ni.can_progress(now, self.cfg.vcs_per_vnet, vct),
                    "scheduler would leave NI {} asleep but it can inject or consume at cycle {now}",
                    ni.node()
                );
            }
        }

        // NI injection: one flit per NI per cycle onto the Local input port,
        // from the scheduled NIs that are due (the consumption loop below
        // spends the due bits).
        for w in 0..self.schedule.nis.word_count() {
            let visit = if sched {
                self.schedule.nis.word(w) & self.schedule.ni_due.word(w)
            } else {
                self.schedule.nis.full_word(w)
            };
            for i in WakeSet::members(w, visit) {
                self.ni_ticks += 1;
                let ni = &mut self.nis[i];
                if let Some((flit, vc_flat)) = ni.inject_step(now, self.cfg.vcs_per_vnet, vct) {
                    // The next flit, or the next packet's head, may go next.
                    self.schedule.ni_due_next.insert(i);
                    if flit.kind.is_head() {
                        let desc = self.arena.get_mut(flit.desc);
                        desc.injected_at = now;
                        self.stats.packets_injected += 1;
                        if self.tracer.enabled() {
                            self.tracer.record(TraceEvent::PacketInjected {
                                at: now,
                                packet: desc.id,
                                node: ni.node(),
                            });
                        }
                    }
                    self.stats.flits_injected += 1;
                    self.last_progress = now;
                    emit.push((
                        now + self.cfg.link_latency,
                        Event::FlitArrive {
                            node: ni.node(),
                            in_port: Port::Local,
                            vc_flat: vc_flat as u8, // below MAX_VCS_PER_PORT
                            flit,
                        },
                    ));
                }
            }
        }

        // Routers: bypass, control, switch allocation, for the scheduled
        // routers that are due, traced or not. The step of any other is
        // provably a no-op — no RNG draw, no arbiter update, and nothing to
        // record that the tracer's open spans do not charge. A due router
        // that holds nothing — woken by a credit, which only enables flits
        // it does not have — is idle in the same sense: it is descheduled
        // here instead of being stepped.
        for w in 0..self.schedule.routers.word_count() {
            let visit = if sched {
                // This look spends every due bit of the word: a step
                // decides again, and the bit of a router off the schedule
                // is stale.
                self.schedule.routers.word(w) & self.schedule.due.take_word(w)
            } else {
                self.schedule.routers.full_word(w)
            };
            for i in WakeSet::members(w, visit) {
                if sched && !self.routers[i].has_pending_work() {
                    self.schedule.routers.remove(i);
                    continue;
                }
                self.router_ticks += 1;
                let (router, mut ctx) = self.router_ctx(i, &mut emit);
                if router.step(&mut ctx) != Cycle::MAX {
                    self.schedule.due_next.insert(i);
                }
                if sched && !self.routers[i].has_pending_work() {
                    self.schedule.routers.remove(i);
                }
            }
        }

        // PE consumption (Immediate policy), then NI deactivation — decided
        // only here so injection-side work observed above is not forgotten.
        // The same NIs as the injection loop, and this look spends their due
        // bits: an NI that injected is due next cycle, any other parks.
        for w in 0..self.schedule.nis.word_count() {
            let visit = if sched {
                self.schedule.nis.word(w) & self.schedule.ni_due.take_word(w)
            } else {
                self.schedule.nis.full_word(w)
            };
            for i in WakeSet::members(w, visit) {
                let ni = &mut self.nis[i];
                if ni.consume_step(now) {
                    // The entry this freed is visible to the router's next step.
                    self.schedule.due_next.insert(i);
                }
                if sched && !ni.has_pending_work() {
                    self.schedule.nis.remove(i);
                }
            }
        }

        for (at, ev) in emit.drain(..) {
            self.calendar.push(now, at, ev);
        }
        self.emit_scratch = emit;
        self.cycle += 1;
        if sched {
            let schedule = &mut self.schedule;
            debug_assert!(
                schedule.due.is_empty() && schedule.ni_due.is_empty(),
                "the router and consumption loops spend every due bit"
            );
            std::mem::swap(&mut schedule.due, &mut schedule.due_next);
            std::mem::swap(&mut schedule.ni_due, &mut schedule.ni_due_next);
        }
    }

    /// True when no router and no NI is scheduled for the next
    /// `finish_cycle` — all remaining state (if any) sits in the calendar.
    pub fn is_quiescent(&self) -> bool {
        self.schedule.routers.is_empty() && self.schedule.nis.is_empty()
    }

    /// Runs a full cycle with no scheme hooks.
    pub fn step(&mut self) {
        self.begin_cycle();
        self.finish_cycle();
    }

    /// Convenience: pops the oldest delivered packet at an NI.
    pub fn pop_delivered(&mut self, node: NodeId, vnet: VnetId) -> Option<Delivered> {
        let delivered = self.nis[node.index()].pop_delivered(vnet)?;
        self.schedule.wake_router(node); // a head flit may be waiting for the entry
        Some(delivered)
    }

    /// Pops every packet delivered under `ConsumePolicy::External` at every
    /// NI whose consumption is not paused, handing each to `take`: NI by
    /// NI in node order, VNet by VNet, oldest first. It visits only the
    /// NIs that completed a packet since they were last found empty, not
    /// every endpoint; a paused NI keeps its packets and stays on the
    /// list.
    pub fn pop_all_delivered(&mut self, mut take: impl FnMut(Delivered)) {
        for w in 0..self.delivered.word_count() {
            for i in WakeSet::members(w, self.delivered.word(w)) {
                let ni = &mut self.nis[i];
                if ni.consumption_paused() {
                    continue;
                }
                for v in 0..self.cfg.num_vnets {
                    while let Some(d) = ni.pop_delivered(VnetId(v as u8)) {
                        // A head flit may be waiting for the entry.
                        self.schedule.wake_router(ni.node());
                        take(d);
                    }
                }
                self.delivered.remove(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ni::ConsumePolicy;
    use crate::routing::ChipletRouting;
    use crate::topology::ChipletSystemSpec;

    fn net() -> Network {
        net_consuming(ConsumePolicy::Immediate { latency: 1 })
    }

    fn net_consuming(consume: ConsumePolicy) -> Network {
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let routing = Arc::new(ChipletRouting::xy());
        Network::new(NocConfig::default(), topo, routing, consume, 42)
    }

    fn run_until_drained(net: &mut Network, max_cycles: u64) {
        let mut guard = 0;
        while net.in_flight() > 0 {
            net.step();
            guard += 1;
            assert!(
                guard < max_cycles,
                "packets did not drain within {max_cycles} cycles"
            );
        }
    }

    #[test]
    fn single_intra_chiplet_packet_arrives() {
        let mut net = net();
        let c = &net.topo().chiplets()[0];
        let (src, dest) = (c.routers[0], c.routers[15]);
        let id = net.try_send(src, dest, VnetId(0), 5).unwrap();
        run_until_drained(&mut net, 200);
        assert_eq!(net.stats().packets_ejected, 1);
        assert_eq!(net.stats().flits_ejected, 5);
        assert!(net.stats().avg_net_latency() > 0.0);
        let _ = id;
    }

    #[test]
    fn single_inter_chiplet_packet_arrives() {
        let mut net = net();
        let src = net.topo().chiplets()[0].routers[0];
        let dest = net.topo().chiplets()[3].routers[15];
        net.try_send(src, dest, VnetId(2), 5).unwrap();
        run_until_drained(&mut net, 400);
        assert_eq!(net.stats().packets_ejected, 1);
    }

    #[test]
    fn zero_load_latency_matches_pipeline_model() {
        // One-flit packet over a single hop: inject (1 cycle link) + BW ->
        // SA (1) -> ST (1) -> LT (1) per hop + final NI link.
        let mut net = net();
        let c = &net.topo().chiplets()[0];
        let (src, dest) = (c.routers[0], c.routers[1]);
        net.try_send(src, dest, VnetId(0), 1).unwrap();
        run_until_drained(&mut net, 100);
        // 2 routers, each 3 cycles (BW->SA->ST) + 1 cycle link after each +
        // injection link 1: measured as a small constant; assert a tight
        // window so pipeline regressions are caught.
        let lat = net.stats().avg_net_latency();
        assert!(
            (4.0..=12.0).contains(&lat),
            "unexpected zero-load latency {lat}"
        );
    }

    #[test]
    fn many_packets_all_drain_without_scheme_at_low_load() {
        let mut net = net();
        let nodes: Vec<NodeId> = net.topo().nodes().iter().map(|n| n.id).collect();
        let mut sent = 0;
        for (i, &s) in nodes.iter().enumerate() {
            let d = nodes[(i * 13 + 7) % nodes.len()];
            if s == d {
                continue;
            }
            if net
                .try_send(s, d, VnetId((i % 3) as u8), if i % 3 == 2 { 5 } else { 1 })
                .is_some()
            {
                sent += 1;
            }
        }
        run_until_drained(&mut net, 2_000);
        assert_eq!(net.stats().packets_ejected, sent);
        assert!(!net.stalled());
    }

    #[test]
    fn wormhole_keeps_flit_order() {
        // Flood one destination from many sources; NI assembly asserts
        // per-packet ordering internally (debug_assert), so simply running
        // in a debug test exercises the invariant.
        let mut net = net();
        let routers = net.topo().chiplets()[1].routers.clone();
        let dest = routers[5];
        for (i, &s) in routers.iter().enumerate() {
            if s == dest {
                continue;
            }
            net.try_send(s, dest, VnetId((i % 3) as u8), 5);
        }
        run_until_drained(&mut net, 5_000);
        assert!(net.stats().packets_ejected >= 10);
    }

    #[test]
    fn injection_queue_full_rejects() {
        let mut net = net();
        let c = &net.topo().chiplets()[0];
        let (src, dest) = (c.routers[0], c.routers[1]);
        let mut accepted = 0;
        for _ in 0..64 {
            if net.try_send(src, dest, VnetId(0), 5).is_some() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, net.cfg().injection_queue_entries as u64);
    }

    /// The stall report and the watchdog read the descriptor arena: a packet
    /// still in its injection queue is listed as not injected, the list is
    /// in id order whatever the slab order, and a drained network has
    /// nothing live.
    #[test]
    fn stall_report_and_watchdog_read_the_descriptor_arena() {
        let mut net = net();
        let c = &net.topo().chiplets()[0];
        let (src, dest) = (c.routers[0], c.routers[1]);
        let threshold = net.cfg().watchdog_threshold;
        // Packets 0 and 1 drain in order, leaving handles 0 and 1 on the LIFO
        // free list, so packets 2 and 3 take them in reverse.
        for _ in 0..2 {
            net.try_send(src, dest, VnetId(0), 5).unwrap();
        }
        run_until_drained(&mut net, 200);
        for _ in 0..threshold {
            net.step();
        }
        assert!(!net.stalled(), "an empty network is never stalled");
        let ids = [0, 1].map(|_| net.try_send(src, dest, VnetId(0), 5).unwrap());
        let slab: Vec<PacketId> = net.arena.live().map(|d| d.id).collect();
        assert_eq!(slab, [ids[1], ids[0]], "recycled handles reverse the slab");
        // Packet 2's head leaves the NI; packet 3 waits behind it.
        net.step();
        let report = net.stall_report();
        let listed: Vec<(PacketId, bool)> =
            report.wedged.iter().map(|w| (w.id, w.injected)).collect();
        assert_eq!(listed, [(ids[0], true), (ids[1], false)]);
        assert_eq!(report.in_flight, 2);
        // Nothing moves while the source is paused mid-worm.
        net.set_injection_paused(src, true);
        for _ in 0..threshold + 10 {
            net.step();
        }
        assert!(net.stalled());
        net.set_injection_paused(src, false);
        run_until_drained(&mut net, 200);
        assert!(!net.stalled());
        assert_eq!(net.mem_report().arena_live, 0);
    }

    // ------------------------------------------------ progress-driven wakes
    //
    // Each test blocks one packet behind one thing, checks that the
    // scheduler stops stepping (`router_ticks` stands still: everything
    // else in the network is empty), removes the obstacle through the
    // public API and compares what happens next with the always-tick
    // reference, which never sleeps and so cannot miss a wake-up.

    /// Runs `script` under the scheduler and under the always-tick
    /// reference and returns what both observed.
    fn on_both_kernels<T: PartialEq + std::fmt::Debug>(
        consume: ConsumePolicy,
        script: impl Fn(&mut Network) -> T,
    ) -> T {
        let observe = |scheduler: bool| {
            let mut net = net_consuming(consume);
            net.set_active_scheduler(scheduler);
            script(&mut net)
        };
        let (scheduled, reference) = (observe(true), observe(false));
        assert_eq!(scheduled, reference, "scheduler vs always-tick reference");
        scheduled
    }

    /// Steps `cycles` cycles in which, under the scheduler, no router may
    /// be stepped.
    fn sleep_through(net: &mut Network, cycles: u64) {
        let before = net.router_ticks;
        for _ in 0..cycles {
            net.step();
        }
        assert!(
            !net.active_scheduler() || net.router_ticks == before,
            "a router was stepped {} times while everything it holds is blocked",
            net.router_ticks - before
        );
    }

    /// Steps until `n` packets have been ejected; the cycle that happened.
    fn ejected_at(net: &mut Network, n: u64) -> Cycle {
        for _ in 0..200 {
            if net.stats().packets_ejected == n {
                return net.cycle();
            }
            net.step();
        }
        panic!("packet {n} was never ejected: a wake-up was missed");
    }

    /// Five one-flit packets to a neighbour that consumes nothing: four
    /// fill its ejection queue, the head of the fifth waits in its router.
    fn fill_ejection_queue(net: &mut Network) -> NodeId {
        let c = &net.topo().chiplets()[0];
        let (src, dest) = (c.routers[0], c.routers[1]);
        for _ in 0..5 {
            net.try_send(src, dest, VnetId(0), 1).unwrap();
        }
        for _ in 0..60 {
            net.step();
        }
        assert_eq!(net.stats().packets_ejected, 4);
        assert_eq!(net.ni(dest).free_entries(VnetId(0)), 0);
        dest
    }

    #[test]
    fn head_behind_a_full_ejection_queue_moves_after_pop_delivered() {
        on_both_kernels(ConsumePolicy::External, |net| {
            let dest = fill_ejection_queue(net);
            sleep_through(net, 30);
            let popped_at = net.cycle();
            net.pop_delivered(dest, VnetId(0)).unwrap();
            let ejected = ejected_at(net, 5);
            assert_eq!(
                ejected,
                popped_at + 3,
                "SA in the cycle of the pop, then ST and the NI link"
            );
            ejected
        });
    }

    /// `pop_all_delivered` hands over what the External NIs hold, passes a
    /// paused NI over without forgetting it, and frees the entries a
    /// waiting head needs, as `pop_delivered` does.
    #[test]
    fn pop_all_delivered_passes_a_paused_ni_over_and_frees_its_entries() {
        on_both_kernels(ConsumePolicy::External, |net| {
            let dest = fill_ejection_queue(net);
            let mut got = 0;
            net.set_consumption_paused(dest, true);
            net.pop_all_delivered(|_| got += 1);
            assert_eq!(got, 0, "a paused NI keeps its packets");
            net.set_consumption_paused(dest, false);
            net.pop_all_delivered(|d| {
                assert_eq!(d.pkt.dest, dest);
                got += 1;
            });
            assert_eq!(got, 4);
            let ejected = ejected_at(net, 5);
            net.pop_all_delivered(|_| got += 1);
            assert_eq!(got, 5, "the head that waited for an entry");
            net.pop_all_delivered(|_| got += 1);
            assert_eq!(got, 5);
            ejected
        });
    }

    #[test]
    fn worm_at_a_failed_link_moves_after_the_heal() {
        on_both_kernels(ConsumePolicy::Immediate { latency: 1 }, |net| {
            let c = net.topo().chiplets()[0].clone();
            // Along the bottom row; the link out of the second router is down.
            net.inject_link_fault(c.routers[1], Port::East);
            net.try_send(c.routers[0], c.routers[3], VnetId(2), 5)
                .unwrap();
            for _ in 0..40 {
                net.step();
            }
            assert_eq!(net.stats().flits_ejected, 0);
            sleep_through(net, 30);
            net.heal_link_fault(c.routers[1], Port::East);
            ejected_at(net, 1)
        });
    }

    #[test]
    fn frozen_vc_moves_after_it_is_unfrozen() {
        on_both_kernels(ConsumePolicy::Immediate { latency: 1 }, |net| {
            let c = &net.topo().chiplets()[0];
            let (src, dest) = (c.routers[0], c.routers[1]);
            net.router_mut(src).set_vc_frozen(Port::Local, 0, true);
            net.try_send(src, dest, VnetId(0), 1).unwrap();
            for _ in 0..10 {
                net.step();
            }
            assert_eq!(net.router(src).vc_buf_len(Port::Local, 0), 1);
            sleep_through(net, 30);
            net.router_mut(src).set_vc_frozen(Port::Local, 0, false);
            ejected_at(net, 1)
        });
    }

    #[test]
    fn a_profiler_armed_mid_run_charges_a_sleeping_router_without_waking_it() {
        use crate::profile::SpanRecorder;
        on_both_kernels(ConsumePolicy::External, |net| {
            let dest = fill_ejection_queue(net);
            sleep_through(net, 10);
            // The head waits on an ejection entry from before the profiler
            // was armed: it is charged from the first cycle armed to the
            // last, while its router sleeps on.
            let recorder = Box::new(SpanRecorder::new());
            net.tracer_mut().set_profiler(Some(recorder));
            sleep_through(net, 7);
            let recorder = net.tracer_mut().set_profiler(None).unwrap();
            assert_eq!(
                recorder.router_blocked()[dest.index()],
                7,
                "one blocked VC-cycle per cycle from the first one armed"
            );
            sleep_through(net, 10);
            net.pop_delivered(dest, VnetId(0)).unwrap();
            ejected_at(net, 5)
        });
    }

    #[test]
    fn a_profiler_charges_a_sleeping_router_what_the_reference_records() {
        use crate::profile::SpanRecorder;
        let blocked = on_both_kernels(ConsumePolicy::External, |net| {
            let recorder = Box::new(SpanRecorder::new());
            net.tracer_mut().set_profiler(Some(recorder));
            // The fifth head waits on an ejection entry, in a router that
            // sleeps under the scheduler and is stepped every cycle by the
            // reference, which records each of them.
            let dest = fill_ejection_queue(net);
            sleep_through(net, 10);
            let recorder = net.tracer_mut().set_profiler(None).unwrap();
            recorder.router_blocked()[dest.index()]
        });
        assert!(blocked > 10, "{blocked} blocked cycles");
    }

    // ------------------------------------------------------ NI wake sources
    //
    // The same pattern for NIs: one NI parks behind one thing, `ni_ticks`
    // stands still while it sleeps, the public API removes the obstacle,
    // and the always-tick reference says when the packet has to arrive.

    /// Steps `cycles` cycles in which, under the scheduler, no NI may be
    /// looked at.
    fn ni_sleeps_through(net: &mut Network, cycles: u64) {
        let before = net.ni_ticks;
        for _ in 0..cycles {
            net.step();
        }
        assert!(
            !net.active_scheduler() || net.ni_ticks == before,
            "an NI was looked at {} times while it can do nothing",
            net.ni_ticks - before
        );
    }

    /// A source and its east neighbour in the first chiplet.
    fn pair(net: &Network) -> (NodeId, NodeId) {
        let c = &net.topo().chiplets()[0];
        (c.routers[0], c.routers[1])
    }

    #[test]
    fn backlog_out_of_credits_injects_after_the_credit_returns() {
        on_both_kernels(ConsumePolicy::Immediate { latency: 1 }, |net| {
            let (src, dest) = pair(net);
            // The router keeps the first four flits: the NI has no credit
            // left for the fifth.
            net.router_mut(src).set_vc_frozen(Port::Local, 0, true);
            net.try_send(src, dest, VnetId(0), 5).unwrap();
            for _ in 0..10 {
                net.step();
            }
            assert_eq!(net.router(src).vc_buf_len(Port::Local, 0), 4);
            ni_sleeps_through(net, 30);
            net.router_mut(src).set_vc_frozen(Port::Local, 0, false);
            ejected_at(net, 1)
        });
    }

    #[test]
    fn packet_waiting_on_a_permit_injects_after_the_grant() {
        on_both_kernels(ConsumePolicy::Immediate { latency: 1 }, |net| {
            let (src, dest) = pair(net);
            let id = net.try_send(src, dest, VnetId(0), 1).unwrap();
            net.set_injection_permit(src, id, PermitState::Waiting);
            net.step(); // the look that finds it blocked
            ni_sleeps_through(net, 30);
            assert_eq!(net.stats().packets_injected, 0);
            net.set_injection_permit(src, id, PermitState::Granted);
            ejected_at(net, 1)
        });
    }

    #[test]
    fn a_packet_sent_to_a_parked_ni_is_injected() {
        on_both_kernels(ConsumePolicy::Immediate { latency: 1 }, |net| {
            let (src, dest) = pair(net);
            // Parked, and on the schedule: its backlog waits on a permit.
            let id = net.try_send(src, dest, VnetId(0), 1).unwrap();
            net.set_injection_permit(src, id, PermitState::Waiting);
            net.step();
            ni_sleeps_through(net, 30);
            net.try_send(src, dest, VnetId(1), 1).unwrap();
            ejected_at(net, 1)
        });
    }

    #[test]
    fn paused_injection_resumes() {
        on_both_kernels(ConsumePolicy::Immediate { latency: 1 }, |net| {
            let (src, dest) = pair(net);
            net.set_injection_paused(src, true);
            net.try_send(src, dest, VnetId(0), 1).unwrap();
            net.step(); // the look that takes it off the schedule
            ni_sleeps_through(net, 30);
            net.set_injection_paused(src, false);
            ejected_at(net, 1)
        });
    }

    #[test]
    fn paused_consumption_resumes_and_frees_the_entry_a_head_waits_for() {
        on_both_kernels(ConsumePolicy::Immediate { latency: 2 }, |net| {
            let (src, dest) = pair(net);
            net.set_consumption_paused(dest, true);
            for _ in 0..5 {
                net.try_send(src, dest, VnetId(0), 1).unwrap();
            }
            // Four fill the ejection queue, all of them due long before
            // the sleep; the head of the fifth waits in the router.
            for _ in 0..60 {
                net.step();
            }
            assert_eq!(net.stats().packets_ejected, 4);
            ni_sleeps_through(net, 30);
            net.set_consumption_paused(dest, false);
            ejected_at(net, 5)
        });
    }

    #[test]
    fn the_consumption_timer_fires_exactly_latency_cycles_after_completion() {
        const LATENCY: u64 = 40;
        on_both_kernels(ConsumePolicy::Immediate { latency: LATENCY }, |net| {
            let (src, dest) = pair(net);
            net.try_send(src, dest, VnetId(0), 1).unwrap();
            // The tail completed in the last cycle stepped.
            let completed_at = ejected_at(net, 1) - 1;
            ni_sleeps_through(net, LATENCY - 1);
            assert_eq!(net.ni(dest).free_entries(VnetId(0)), 3, "not due yet");
            net.step();
            assert_eq!(
                net.ni(dest).free_entries(VnetId(0)),
                4,
                "consumed in cycle {}",
                completed_at + LATENCY
            );
            completed_at
        });
    }

    #[test]
    fn switching_kernels_mid_run_keeps_the_packets_awaiting_consumption() {
        // Eight packets into a 4-entry queue that takes 40 cycles a packet:
        // the first four complete under the reference and become due after
        // the scheduler is back, which must still consume them on time.
        let observe = |flip: bool| {
            let mut net = net_consuming(ConsumePolicy::Immediate { latency: 40 });
            net.set_active_scheduler(flip);
            let (src, dest) = pair(&net);
            for _ in 0..8 {
                net.try_send(src, dest, VnetId(0), 1).unwrap();
            }
            let mut seen = Vec::new();
            for cycle in 0..400 {
                if flip && cycle == 4 {
                    net.set_active_scheduler(false);
                }
                if flip && cycle == 30 {
                    net.set_active_scheduler(true);
                }
                net.step();
                seen.push((
                    net.stats().packets_ejected,
                    net.ni(dest).free_entries(VnetId(0)),
                ));
            }
            assert_eq!(seen.last(), Some(&(8, 4)), "everything consumed");
            seen
        };
        assert_eq!(observe(true), observe(false));
    }

    #[test]
    fn stats_reset_keeps_in_flight_packets() {
        let mut net = net();
        let c = &net.topo().chiplets()[0];
        net.try_send(c.routers[0], c.routers[15], VnetId(0), 5)
            .unwrap();
        for _ in 0..3 {
            net.step();
        }
        net.reset_stats();
        run_until_drained(&mut net, 300);
        assert_eq!(
            net.stats().packets_ejected,
            1,
            "latency attributed to new window"
        );
    }
}
