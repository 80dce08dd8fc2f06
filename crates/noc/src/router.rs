//! The router microarchitecture.
//!
//! Implements the paper's 3-stage pipeline (Fig. 5): buffer write + route
//! computation on arrival, switch allocation + VC selection one cycle later,
//! then switch traversal and link traversal. Wormhole flow control with
//! credit-based backpressure; VCs are grouped into VNets.
//!
//! Beyond the vanilla datapath the router carries the *mechanisms* UPP's and
//! remote control's policies drive:
//!
//! * two dedicated control buffers (`UPP_req`/`UPP_stop` and `UPP_ack`,
//!   Fig. 6) whose messages traverse the pipeline like head flits but win
//!   switch allocation over normal flits;
//! * a circuit table `(VNet, popup destination) -> (in, out)` recorded by
//!   circuit-recording control messages and used by upward flits to bypass
//!   buffers entirely (one ST stage per hop, Sec. V-C);
//! * per-VC popup priority for draining partly-transmitted worms
//!   (Sec. V-B3);
//! * an optional packet-sized side-buffer *absorber* on boundary routers
//!   (remote control's isolation buffers).

use crate::config::NocConfig;
use crate::control::{CircuitEntry, ControlClass, ControlMsg, ControlRoute, DeliveredControl};
use crate::event::{ControlSlab, Event};
use crate::ids::{Cycle, NodeId, PacketId, Port, VnetId};
use crate::network::WorkCounts;
use crate::ni::{Ni, OutVcState};
use crate::obs::ObsRegistry;
use crate::packet::{Flit, PacketArena, PacketRef};
use crate::ring::RingBank;
use crate::routing::RouteComputer;
use crate::stats::NetStats;
use crate::topology::Topology;
use crate::trace::{BlockReason, OpenSpan, TraceEvent, Tracer};
use crate::wake_set::{SetBits, WakeSet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Control state of one input virtual channel, packed into 16 bytes: each
/// `Option` is a sentinel value of a narrow field, and the frozen flag is a
/// bit of the route byte. The buffered flits themselves live in the
/// router's contiguous [`RingBank`] (struct-of-arrays layout), accessed
/// through [`Router::vc_front`]/[`Router::vc_buf_len`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputVc {
    /// Id of the packet owning this VC (set by its head flit's buffer
    /// write, cleared when its tail departs), `u64::MAX` when none.
    owner: u64,
    /// The route computed for the owning packet as a `Port::index` in the
    /// low bits ([`InputVc::NO_ROUTE`] when none), plus [`InputVc::FROZEN`].
    route: u8,
    /// Downstream VC allocated on the route (flat index, below
    /// [`MAX_VCS_PER_PORT`](crate::config::MAX_VCS_PER_PORT)) once the
    /// head flit won switch allocation, `u8::MAX` when none.
    out_vc: u8,
    /// How many flits were written into the VC in the router's
    /// `last_flit_write` cycle; meaningful only while the VC's bit in the
    /// port's `fresh` word is set (see [`Router::front_is_new`]).
    fresh: u8,
}

impl Default for InputVc {
    fn default() -> Self {
        Self {
            owner: u64::MAX,
            route: Self::NO_ROUTE,
            out_vc: u8::MAX,
            fresh: 0,
        }
    }
}

impl InputVc {
    /// The route bits when no route is computed (no port has index 7).
    const NO_ROUTE: u8 = 0b111;
    /// The route byte's frozen bit.
    const FROZEN: u8 = 1 << 3;

    /// Packet currently owning this VC.
    pub fn owner(&self) -> Option<PacketId> {
        (self.owner != u64::MAX).then_some(PacketId(self.owner))
    }

    /// Route-computation result for the owning packet.
    pub fn route_out(&self) -> Option<Port> {
        let i = self.route & Self::NO_ROUTE;
        (i != Self::NO_ROUTE).then(|| Port::from_index(usize::from(i)))
    }

    /// Downstream VC allocated on [`InputVc::route_out`] (flat index), once
    /// the head flit won switch allocation.
    pub fn out_vc(&self) -> Option<usize> {
        (self.out_vc != u8::MAX).then_some(usize::from(self.out_vc))
    }

    /// Frozen VCs are skipped by switch allocation (set while UPP pops the
    /// VC's packet up through the bypass path).
    pub fn frozen(&self) -> bool {
        self.route & Self::FROZEN != 0
    }

    /// A head flit's buffer write: `owner` holds the VC, routed `out`, with
    /// no downstream VC yet. The frozen bit stays.
    fn claim(&mut self, owner: PacketId, out: Port) {
        debug_assert!(
            owner.0 != u64::MAX,
            "packet id {owner} is the no-owner sentinel"
        );
        self.owner = owner.0;
        self.route = self.route & Self::FROZEN | out.index() as u8;
        self.out_vc = u8::MAX;
        debug_assert_eq!((self.owner(), self.route_out()), (Some(owner), Some(out)));
    }

    fn set_out_vc(&mut self, ovc: usize) {
        self.out_vc = u8::try_from(ovc).expect("a flat VC index fits a byte");
        debug_assert_eq!(self.out_vc(), Some(ovc));
    }

    fn set_frozen(&mut self, frozen: bool) {
        self.route = self.route & !Self::FROZEN | if frozen { Self::FROZEN } else { 0 };
        debug_assert_eq!(self.frozen(), frozen);
    }
}

/// One input port's per-VC words ([`Router::vc_words`]): bit `f` of each
/// describes input VC `f`. All four are zero on a port none of whose VCs
/// a packet holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VcWords {
    /// The VC holds a flit.
    pub occ: u64,
    /// Occupied, and waiting on a credit or a downstream VC: switch
    /// allocation skips it until a re-arm.
    pub parked: u64,
    /// Owned by a packet routed `Up`.
    pub up: u64,
    /// Owned by a packet being popped up, whose flits win switch
    /// allocation.
    pub prio: u64,
}

/// What an occupied input VC that cannot bid waits on: the packet at its
/// front, the output it wants and why it cannot have it (what a
/// `Blocked` trace event reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    packet: PacketRef,
    out: Port,
    reason: BlockReason,
}

/// What switch allocation learns from one occupied input VC
/// ([`Router::vc_request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    /// The VC bids this cycle for this output.
    Bid(Port),
    /// It cannot bid now and is asked again in the next step: its flit is
    /// in its buffer-write cycle, it is frozen or its link is dead
    /// (`None`), or it waits on an ejection entry of the NI (`Local`),
    /// which frees without a credit.
    Wait(Option<Block>),
    /// It waits on a downstream VC or a credit of a non-`Local` output.
    /// Only a credit on that output, a new front flit, a freeze toggle or
    /// a link fault or heal can change that, so it is parked until one of
    /// them re-arms it.
    Park(Block),
}

/// An upward flit waiting in the bypass latch.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BypassFlit {
    flit: Flit,
    in_port: Port,
    out_port: Port,
    arrived: Cycle,
}

/// One packet-sized side-buffer slot of the remote-control absorber.
#[derive(Debug, Clone, Default)]
pub struct AbsorbSlot {
    /// Packet currently stored or streaming in.
    pub packet: Option<PacketId>,
    /// Reservation made by the permission subnetwork before injection.
    pub reserved_for: Option<PacketId>,
    /// Buffered flits, each with the cycle it was written.
    pub buf: VecDeque<(Flit, Cycle)>,
    /// Route computed from the head flit for re-injection into the chiplet.
    pub route_out: Option<Port>,
    /// Allocated downstream VC for re-injection (flat index).
    pub out_vc: Option<u8>,
}

/// Remote control's boundary-router side buffer: absorbs every packet
/// entering the chiplet so stalled inter-chiplet traffic can never block
/// intra-chiplet traffic.
#[derive(Debug, Clone)]
pub struct Absorber {
    /// The slots (the paper equips each boundary router with four
    /// data-packet-sized buffers).
    pub slots: Vec<AbsorbSlot>,
    rr: usize,
}

impl Absorber {
    /// Creates an absorber with `slots` slots, each sized up front for a
    /// packet of `packet_flits` flits (so filling one never allocates).
    pub fn new(slots: usize, packet_flits: usize) -> Self {
        let slot = |_| AbsorbSlot {
            buf: VecDeque::with_capacity(packet_flits),
            ..AbsorbSlot::default()
        };
        Self {
            slots: (0..slots).map(slot).collect(),
            rr: 0,
        }
    }

    /// Number of slots neither occupied nor reserved.
    pub fn free_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.packet.is_none() && s.reserved_for.is_none())
            .count()
    }

    /// `(occupied_slots, buffered_flits)` across all slots — the absorber's
    /// instantaneous occupancy, for telemetry.
    pub fn occupancy(&self) -> (usize, usize) {
        let occupied = self.slots.iter().filter(|s| s.packet.is_some()).count();
        let flits = self.slots.iter().map(|s| s.buf.len()).sum();
        (occupied, flits)
    }

    /// Reserves a slot for `packet`. Returns false when all slots are taken.
    pub fn reserve(&mut self, packet: PacketId) -> bool {
        if let Some(s) = self
            .slots
            .iter_mut()
            .find(|s| s.packet.is_none() && s.reserved_for.is_none())
        {
            s.reserved_for = Some(packet);
            true
        } else {
            false
        }
    }

    fn accept(&mut self, flit: Flit, id: PacketId, now: Cycle, route_out: Port) {
        if flit.kind.is_head() {
            let idx = self
                .slots
                .iter()
                .position(|s| s.reserved_for == Some(id))
                .or_else(|| {
                    // Unreserved arrivals (e.g. workloads driving the absorber
                    // without a permission scheme) fall back to any free slot.
                    self.slots
                        .iter()
                        .position(|s| s.packet.is_none() && s.reserved_for.is_none())
                })
                .unwrap_or_else(|| panic!("absorber overflow for {id}"));
            let slot = &mut self.slots[idx];
            slot.reserved_for = None;
            slot.packet = Some(id);
            slot.route_out = Some(route_out);
            slot.out_vc = None;
            slot.buf.push_back((flit, now));
        } else {
            let slot = self
                .slots
                .iter_mut()
                .find(|s| s.packet == Some(id))
                .unwrap_or_else(|| panic!("absorber body flit without slot for {id}"));
            slot.buf.push_back((flit, now));
        }
    }
}

/// External references a router needs while processing one cycle.
pub(crate) struct RouterCtx<'a> {
    pub cfg: &'a NocConfig,
    pub topo: &'a Topology,
    pub routing: &'a dyn RouteComputer,
    pub now: Cycle,
    pub ni: &'a mut Ni,
    pub emit: &'a mut Vec<(Cycle, Event)>,
    pub stats: &'a mut NetStats,
    /// The network's last-progress cycle (the stall watchdog's input):
    /// every flit or control movement sets it to `now`.
    pub last_progress: &'a mut Cycle,
    pub tracer: &'a mut Tracer,
    pub obs: &'a mut ObsRegistry,
    /// Shared packet-descriptor arena (read-only during router stepping;
    /// descriptors are interned by `try_send` and freed at ejection).
    pub arena: &'a PacketArena,
    /// The network's routers that may hold scheme input: a router inserts
    /// itself where [`Router::has_scheme_input`] may turn true (an
    /// `Up`-routed VC gains its first flit, an ack terminates here). Only
    /// the scheme's walk clears a bit.
    pub scheme_input: &'a mut WakeSet,
    /// Where emitted control messages wait for their `ControlArrive` /
    /// `NiControlArrive` delivery.
    pub controls: &'a mut ControlSlab,
}

/// One router.
pub struct Router {
    node: NodeId,
    /// VCs per VNet, VNets, and their product, VCs per port (at most
    /// [`MAX_VCS_PER_PORT`](crate::config::MAX_VCS_PER_PORT), so each fits
    /// a byte; read through the methods of the same names).
    vcs_per_vnet: u8,
    num_vnets: u8,
    vcs_per_port: u8,
    /// Flat `port x vc` input VCs, indexed `p.index() * vcs_per_port + vc`.
    /// Absent ports keep (never-touched) default slots: nothing is ever
    /// delivered to them, so their occupancy word stays zero and switch
    /// allocation never looks at them.
    in_vcs: Box<[InputVc]>,
    /// The buffered flits of every input VC, packed into one fixed-capacity
    /// ring bank (same flat indexing as `in_vcs`). Capacity covers the
    /// larger of the credit depth and one whole packet: a popup rejoin can
    /// legally re-buffer a worm past its credit-limited depth. A slot is
    /// the bare 8-byte flit: when it was written is kept only for the
    /// flits of the latest write cycle (`fresh`).
    bufs: RingBank<Flit>,
    /// Debug builds only: the cycle each buffered flit was written, a ring
    /// bank shadowing `bufs` slot for slot, which [`Router::front_is_new`]
    /// is asserted against.
    #[cfg(debug_assertions)]
    written_at: RingBank<Cycle>,
    /// One occupancy word per input port: bit `f` is set exactly while input
    /// VC `f` of that port holds a flit (maintained by [`Router::push_flit`]
    /// and [`Router::pop_flit`], the only writers of `bufs`). Switch
    /// allocation visits set bits only — an empty VC raises no request line
    /// — so a step costs what is buffered, not `ports x VCs`.
    /// [`NocConfig::validate`] bounds a port at 64 VCs so one word always
    /// suffices.
    occ: [u64; Port::COUNT],
    /// One parked word per input port, a subset of `occ`: bit `f` is set
    /// while input VC `f` waits on what only a re-arm changes
    /// ([`Request::Park`], [`Router::rearm`]). Switch allocation walks
    /// `occ & !parked`, traced or not: a tracer charges a parked VC's
    /// cycles as one span, which the step after its re-arm closes.
    parked: [u64; Port::COUNT],
    /// One `Up`-route word per input port: bit `f` is set while input VC
    /// `f` is owned by a packet whose route computation chose `Up`
    /// (written with `route_out` by [`Router::deliver_flit`], cleared with
    /// it where the tail leaves). `occ & up` are the VCs UPP's watchdog
    /// looks for.
    up: [u64; Port::COUNT],
    /// One popup-priority word per input port: bit `f` is set while input
    /// VC `f`'s packet is being popped up and its flits win switch
    /// allocation outright (Sec. V-B3). A mark goes with the VC: it is
    /// cleared where the packet's tail leaves, through switch allocation
    /// or through [`Router::pop_bypass_flit`].
    prio: [u64; Port::COUNT],
    /// One new-flit word per input port: bit `f` is set while input VC
    /// `f` has received a flit in cycle `last_flit_write` (its count of
    /// such flits is the VC's `fresh` byte). Cleared as a
    /// whole by the first write of a later cycle, so a flit's arrival
    /// cycle needs no field of its own: a front flit was written in the
    /// current cycle only if [`Router::front_is_new`] says so.
    fresh: [u64; Port::COUNT],
    /// This router's share of the network's [`WorkCounts`]; a debug-build
    /// field only, so a release router is no larger for it.
    #[cfg(debug_assertions)]
    work: WorkCounts,
    /// The cycle of the latest input-VC buffer write: a flit attends
    /// allocation from the cycle after it, so a step in that cycle asks to
    /// be repeated in the next (see [`Router::step`]).
    last_flit_write: Cycle,
    /// Flat `port x vc` downstream credit/ownership mirrors (same indexing).
    out_vcs: Box<[OutVcState]>,
    /// Ports with a link (failed or not), one bit per `Port::index`;
    /// `Local` always has one.
    links: u8,
    /// Output ports a flit may cross now, one bit per `Port::index`: the
    /// link exists and is not failed. `Local` is always live. Kept equal
    /// to the topology by [`Router::sync_links`], which the network calls
    /// wherever a fault is set or cleared.
    live: u8,
    /// Output ports, one bit per `Port::index`, whose sinks never exert VC
    /// backpressure: `Local`, and `Up` where the neighbour absorbs. Their
    /// output VCs count no credits (see [`OutVcState`]).
    sinks: u8,
    req_buf: VecDeque<(ControlMsg, Port, Cycle)>,
    ack_buf: VecDeque<(ControlMsg, Port, Cycle)>,
    /// The circuit table, keyed by `(VNet, popup destination)`. It holds one
    /// entry per popup in progress through this router — a handful — so a
    /// linear scan beats hashing.
    circuits: Vec<((VnetId, NodeId), CircuitEntry)>,
    bypass: VecDeque<BypassFlit>,
    absorber: Option<Absorber>,
    control_inbox: Vec<DeliveredControl>,
    /// Per input port: the VC switch allocation looks at first, advanced by
    /// one on every win and kept reduced into `0..vcs_per_port`.
    rr_in: [u8; Port::COUNT],
    /// Per output port: wins so far, reduced modulo [`Router::RR_OUT_PERIOD`];
    /// taken modulo the number of contenders (which varies step to step)
    /// to pick among them.
    rr_out: [u16; Port::COUNT],
    up_last_sent: Box<[Cycle]>,
    rng: SmallRng,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("node", &self.node)
            .field("bypass_pending", &self.bypass.len())
            .field("req_buf", &self.req_buf.len())
            .field("ack_buf", &self.ack_buf.len())
            .finish_non_exhaustive()
    }
}

/// The ports of a port word (one bit per `Port::index`), ascending.
fn ports(word: u8) -> impl Iterator<Item = Port> {
    SetBits(u64::from(word)).map(Port::from_index)
}

impl Router {
    /// The period `rr_out` is kept reduced to: 420 is the least common
    /// multiple of every contender count (1 to `Port::COUNT`), so the
    /// reduced counter picks the same contender as the unreduced one.
    const RR_OUT_PERIOD: u16 = 420;

    /// Builds the router for `node`.
    pub fn new(node: NodeId, cfg: &NocConfig, topo: &Topology, seed: u64) -> Self {
        let vcs = cfg.vcs_per_port();
        let narrow = |n: usize| u8::try_from(n).expect("NocConfig::validate bounds VC counts");
        let in_vcs = vec![InputVc::default(); Port::COUNT * vcs].into_boxed_slice();
        let ring_cap = cfg.vc_buffer_depth.max(cfg.max_packet_flits());
        let bufs = RingBank::new(
            Port::COUNT * vcs,
            ring_cap,
            Flit::new(PacketRef(u32::MAX), 0, 1),
        );
        let out_vcs = vec![OutVcState::new(cfg.vc_buffer_depth); Port::COUNT * vcs];
        let mut r = Self {
            node,
            vcs_per_vnet: narrow(cfg.vcs_per_vnet),
            num_vnets: narrow(cfg.num_vnets),
            vcs_per_port: narrow(vcs),
            in_vcs,
            bufs,
            #[cfg(debug_assertions)]
            written_at: RingBank::new(Port::COUNT * vcs, ring_cap, 0),
            occ: [0; Port::COUNT],
            parked: [0; Port::COUNT],
            up: [0; Port::COUNT],
            prio: [0; Port::COUNT],
            fresh: [0; Port::COUNT],
            #[cfg(debug_assertions)]
            work: WorkCounts::default(),
            last_flit_write: 0,
            out_vcs: out_vcs.into_boxed_slice(),
            links: 0,
            live: 0,
            // Local ejection never exerts VC backpressure.
            sinks: 1 << Port::Local.index(),
            req_buf: VecDeque::new(),
            ack_buf: VecDeque::new(),
            circuits: Vec::new(),
            bypass: VecDeque::new(),
            absorber: None,
            control_inbox: Vec::new(),
            rr_in: [0; Port::COUNT],
            rr_out: [0; Port::COUNT],
            up_last_sent: vec![0; cfg.num_vnets].into_boxed_slice(),
            rng: SmallRng::seed_from_u64(seed ^ node.0 as u64),
        };
        r.sync_links(topo);
        r
    }

    /// Reads this router's links off `topo`: which ports have one at all,
    /// and which of those are live (not failed). Called at build time and
    /// wherever the network sets or clears a fault on one of them, so it
    /// re-arms every parked VC: one may wait on the link that changed.
    pub(crate) fn sync_links(&mut self, topo: &Topology) {
        self.links = 0;
        self.live = 0;
        for p in Port::ALL {
            let local = p == Port::Local;
            if local || topo.raw_neighbor(self.node, p).is_some() {
                self.links |= 1 << p.index();
            }
            if local || topo.neighbor(self.node, p).is_some() {
                self.live |= 1 << p.index();
            }
        }
        for q in 0..Port::COUNT {
            self.rearm(q, u64::MAX);
        }
    }

    /// True when a flit may leave through `out` now: the link exists and
    /// has not failed (fail-stop: a flit bound over a failed link waits in
    /// place until the heal).
    fn is_live(&self, out: Port) -> bool {
        self.live >> out.index() & 1 == 1
    }

    /// True when `out`'s sink never exerts VC backpressure.
    fn is_sink(&self, out: Port) -> bool {
        self.sinks >> out.index() & 1 == 1
    }

    /// The router's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// VCs per input port (all VNets).
    fn vcs_per_port(&self) -> usize {
        usize::from(self.vcs_per_port)
    }

    /// VCs per VNet.
    fn vcs_per_vnet(&self) -> usize {
        usize::from(self.vcs_per_vnet)
    }

    /// Installs a remote-control absorber with `slots` packet slots.
    pub fn install_absorber(&mut self, slots: usize) {
        // An input-VC ring holds at least one whole packet; so does a slot.
        self.absorber = Some(Absorber::new(slots, self.bufs.capacity()));
    }

    /// Marks the output port `p` as an infinite sink (downstream absorbs
    /// without VC backpressure). Used on interposer routers whose `Up`
    /// neighbour runs an absorber.
    pub fn set_infinite_sink(&mut self, p: Port) {
        self.sinks |= 1 << p.index();
        let vcs = self.vcs_per_port();
        for s in &mut self.out_vcs[p.index() * vcs..(p.index() + 1) * vcs] {
            s.busy = false;
        }
        for q in 0..Port::COUNT {
            self.rearm(q, u64::MAX); // the sink's credits changed
        }
    }

    /// The absorber, if installed.
    pub fn absorber(&self) -> Option<&Absorber> {
        self.absorber.as_ref()
    }

    /// Mutable absorber access (permission-subnetwork reservations).
    pub fn absorber_mut(&mut self) -> Option<&mut Absorber> {
        self.absorber.as_mut()
    }

    /// Input VC state (read-only introspection for schemes and tests).
    ///
    /// # Panics
    ///
    /// Panics if the port has no link.
    pub fn input_vc(&self, p: Port, vc_flat: usize) -> &InputVc {
        &self.in_vcs[p.index() * self.vcs_per_port() + vc_flat]
    }

    /// Buffered-flit occupancy of an input VC.
    pub fn vc_buf_len(&self, p: Port, vc_flat: usize) -> usize {
        self.bufs.len(p.index() * self.vcs_per_port() + vc_flat)
    }

    /// True when an input VC holds no buffered flits.
    pub fn vc_buf_is_empty(&self, p: Port, vc_flat: usize) -> bool {
        self.bufs
            .is_empty(p.index() * self.vcs_per_port() + vc_flat)
    }

    /// Oldest buffered flit of an input VC, if any.
    pub fn vc_front(&self, p: Port, vc_flat: usize) -> Option<&Flit> {
        self.bufs.front(p.index() * self.vcs_per_port() + vc_flat)
    }

    /// True if the packet owning VC `(p, vc_flat)` has sent its head flit
    /// downstream but not yet its tail (the worm is partly transmitted).
    pub fn vc_partly_transmitted(&self, p: Port, vc_flat: usize) -> bool {
        let iv = p.index() * self.vcs_per_port() + vc_flat;
        let vc = &self.in_vcs[iv];
        vc.owner().is_some()
            && vc.out_vc().is_some()
            && self.bufs.front(iv).is_none_or(|b| !b.kind.is_head())
    }

    /// Downstream credit mirror for an output VC. A sink's output VCs
    /// (`Local`, and `Up` toward an absorber) count no credits: theirs stay
    /// at the buffer depth.
    pub fn output_vc(&self, p: Port, vc_flat: usize) -> &OutVcState {
        &self.out_vcs[p.index() * self.vcs_per_port() + vc_flat]
    }

    /// True when the router has a link on `p`.
    pub fn has_link(&self, p: Port) -> bool {
        self.links >> p.index() & 1 == 1
    }

    /// Last cycle any flit departed through the `Up` port for `vnet`.
    pub fn up_last_sent(&self, vnet: VnetId) -> Cycle {
        self.up_last_sent[vnet.index()]
    }

    /// Circuit entry for `(vnet, key)`, if recorded.
    pub fn circuit(&self, vnet: VnetId, key: NodeId) -> Option<CircuitEntry> {
        let entry = self.circuits.iter().find(|(k, _)| *k == (vnet, key));
        entry.map(|&(_, e)| e)
    }

    /// Records a circuit entry, returning the one it replaced.
    fn record_circuit(
        &mut self,
        key: (VnetId, NodeId),
        entry: CircuitEntry,
    ) -> Option<CircuitEntry> {
        match self.circuits.iter_mut().find(|(k, _)| *k == key) {
            Some((_, e)) => Some(std::mem::replace(e, entry)),
            None => {
                self.circuits.push((key, entry));
                None
            }
        }
    }

    /// Gives input VC `(p, vc_flat)` popup priority until its packet's
    /// tail leaves it.
    pub fn mark_priority(&mut self, p: Port, vc_flat: usize) {
        self.prio[p.index()] |= 1 << vc_flat;
    }

    /// True while input VC `(p, vc_flat)` holds popup priority.
    pub fn is_priority_vc(&self, p: Port, vc_flat: usize) -> bool {
        self.prio[p.index()] >> vc_flat & 1 == 1
    }

    /// The input VC of `vnet` that `packet` owns here, if any, and how
    /// many VCs were compared to find it: every VC of `vnet` on every port
    /// with a link, in [`Router::input_vcs`] order. A packet owns at most
    /// one VC per router, since no route visits a router twice.
    pub fn owned_vc(&self, packet: PacketId, vnet: VnetId) -> (Option<(Port, usize)>, u64) {
        let mut scanned = 0;
        for p in Port::ALL.into_iter().filter(|&p| self.has_link(p)) {
            for f in self.vnet_range(vnet) {
                scanned += 1;
                if self.in_vcs[p.index() * self.vcs_per_port() + f].owner() == Some(packet) {
                    return (Some((p, f)), scanned);
                }
            }
        }
        (None, scanned)
    }

    /// Port `p`'s per-VC words, one bit per VC each.
    pub fn vc_words(&self, p: Port) -> VcWords {
        let i = p.index();
        VcWords {
            occ: self.occ[i],
            parked: self.parked[i],
            up: self.up[i],
            prio: self.prio[i],
        }
    }

    /// Freezes or unfreezes an input VC (frozen VCs skip switch allocation;
    /// UPP freezes the VC it pops flits from).
    pub fn set_vc_frozen(&mut self, p: Port, vc_flat: usize, frozen: bool) {
        self.in_vcs[p.index() * self.vcs_per_port() + vc_flat].set_frozen(frozen);
        self.rearm(p.index(), 1 << vc_flat);
    }

    /// The bits of `vnet`'s VCs in a port word. A shift of `u64::MAX`, so
    /// that one VNet of 64 VCs still fits (`(1 << 64) - 1` overflows).
    fn vnet_mask(&self, vnet: usize) -> u64 {
        u64::MAX >> (64 - self.vcs_per_vnet()) << (vnet * self.vcs_per_vnet())
    }

    /// Clears `mask`'s bits of input port `p`'s parked word, so switch
    /// allocation evaluates those VCs again. Its callers — a credit, a new
    /// front flit, a freeze toggle, a new sink, a link fault or heal — each
    /// wake the router for the cycle they re-arm in.
    fn rearm(&mut self, p: usize, mask: u64) {
        #[cfg(debug_assertions)]
        {
            self.work.vcs_rearmed += u64::from((self.parked[p] & mask).count_ones());
        }
        self.parked[p] &= !mask;
    }

    /// Opens a span from `from` for every occupied VC that cannot bid
    /// (only the unparked ones unless `parked_too`): in the first cycle a
    /// tracer is armed, and, for the VCs waiting on an ejection entry, when
    /// a step leaves the router asleep. The router's next look closes the
    /// unparked ones' spans.
    pub(crate) fn open_spans(&self, ctx: &mut RouterCtx<'_>, parked_too: bool, from: Cycle) {
        for p in ports(self.crossbar_inputs()) {
            let skip = if parked_too {
                0
            } else {
                self.parked[p.index()]
            };
            for f in SetBits(self.occ[p.index()] & !skip) {
                if let Some(span) = Self::span(ctx, p, f, self.vc_request(p, f, ctx)) {
                    ctx.tracer.open_span(self.node, OpenSpan { from, ..span });
                }
            }
        }
    }

    /// The span a tracer charges VC `(p, f)` from this cycle, when
    /// `request` found it blocked.
    fn span(ctx: &RouterCtx<'_>, p: Port, f: usize, request: Request) -> Option<OpenSpan> {
        let (Request::Wait(Some(b)) | Request::Park(b)) = request else {
            return None;
        };
        Some(OpenSpan {
            in_port: p,
            vc_flat: f,
            packet: ctx.arena.get(b.packet).id,
            out_port: b.out,
            reason: b.reason,
            from: ctx.now,
        })
    }

    /// The input ports switch allocation takes bids from, one bit per
    /// `Port::index`: every port but `Down` where an absorber takes its
    /// arrivals.
    fn crossbar_inputs(&self) -> u8 {
        let absorbed = u8::from(self.absorber.is_some()) << Port::Down.index();
        ((1 << Port::COUNT) - 1) & !absorbed
    }

    /// This router's debug-build work counts.
    pub(crate) fn work_counts(&self) -> WorkCounts {
        #[cfg(debug_assertions)]
        return self.work;
        #[cfg(not(debug_assertions))]
        WorkCounts::default()
    }

    /// The input VCs, over all ports, that hold a flit routed `Up`.
    fn upward_vcs(&self) -> u64 {
        (0..Port::COUNT).fold(0, |any, p| any | self.occ[p] & self.up[p])
    }

    /// True when an input VC of `vnet` holds a flit routed `Up`: UPP's
    /// watchdog test, read off the occupancy and `Up`-route words. Equal to
    /// a non-empty
    /// [`Network::upward_candidates_into`](crate::network::Network::upward_candidates_into)
    /// list (debug-asserted by its caller).
    pub(crate) fn has_upward_candidate(&self, vnet: VnetId) -> bool {
        self.upward_vcs() & self.vnet_mask(vnet.index()) != 0
    }

    /// Upward flits currently waiting in the bypass latch.
    pub fn bypass_pending(&self) -> usize {
        self.bypass.len()
    }

    /// Drains the router-level control inbox (terminated acks) into `out`,
    /// reusing both buffers' capacity (no per-call allocation).
    pub fn drain_control_inbox_into(&mut self, out: &mut Vec<DeliveredControl>) {
        out.append(&mut self.control_inbox);
    }

    /// True when this router can show UPP's `pre_cycle` something: a
    /// buffered flit routed `Up` (an upward candidate) or an unread
    /// control-inbox entry (a terminated ack). A flit on any other route
    /// cannot start a watchdog, so a router holding only those shows
    /// nothing. Both reads are O(1).
    ///
    /// The scheme reads it only for the routers in
    /// [`Network::scheme_input`](crate::network::Network::scheme_input),
    /// a set a router joins where this may turn true — the first flit of
    /// an `Up`-routed VC (`push_flit`, in this cycle's `begin_cycle`) and
    /// a terminated ack (`step_control`, in the **previous** cycle's
    /// `finish_cycle`) — and leaves only where the scheme's walk finds it
    /// false. So a member may be stale (its flit left, its ack was read),
    /// and the predicate is exact only where the walk evaluates it, at
    /// `pre_cycle` time; a router for which it is true is always a member.
    pub fn has_scheme_input(&self) -> bool {
        self.upward_vcs() != 0 || !self.control_inbox.is_empty()
    }

    /// True while this router holds anything: a buffered input-VC flit, a
    /// latched bypass flit, a queued control message, a buffered absorber
    /// flit, or an unread control-inbox entry.
    ///
    /// This is the scheduler's *level* predicate: it decides whether the
    /// router is on the schedule at all (and so `Network::is_quiescent`),
    /// not whether it is stepped in a given cycle. A router that holds
    /// flits but can move none of them stays on the schedule and sleeps
    /// there until an input of its step changes (see
    /// `Router::step`'s return value). State that only *enables* progress
    /// for already-buffered flits (credits, circuit entries, priority
    /// marks, frozen bits) does not appear here because it can never create
    /// work in an empty router.
    pub fn has_pending_work(&self) -> bool {
        self.bufs.any_nonempty() || self.holds_polled_state()
    }

    /// True while the router holds something the scheduler steps it for in
    /// every cycle instead of working out when it can move: a latched
    /// bypass flit, a queued control message, an absorbed flit (each gated
    /// on its arrival cycle), or an unread control-inbox entry (drained by
    /// the scheme, not by a step, after which the router may have to leave
    /// the schedule).
    fn holds_polled_state(&self) -> bool {
        !self.bypass.is_empty()
            || !self.req_buf.is_empty()
            || !self.ack_buf.is_empty()
            || !self.control_inbox.is_empty()
            || self
                .absorber
                .as_ref()
                .is_some_and(|a| a.slots.iter().any(|s| !s.buf.is_empty()))
    }

    /// Whether a step in cycle `ctx.now` could move anything — the
    /// read-only reference the scheduler's skip is checked against in debug
    /// builds. Exact on every time gate; it only errs towards `true` (it
    /// ignores the crossbar claims of the same step and the liveness of a
    /// bypass or control message's output link).
    pub(crate) fn can_progress(&self, ctx: &RouterCtx<'_>) -> bool {
        let queued = |buf: &VecDeque<(ControlMsg, Port, Cycle)>| {
            buf.front()
                .is_some_and(|&(_, _, arrived)| arrived < ctx.now)
        };
        self.bypass.iter().any(|b| b.arrived < ctx.now)
            || queued(&self.req_buf)
            || queued(&self.ack_buf)
            || self.absorber_request(ctx).is_some()
            || ports(self.crossbar_inputs()).any(|p| {
                SetBits(self.occ[p.index()])
                    .any(|f| matches!(self.vc_request(p, f, ctx), Request::Bid(_)))
            })
    }

    /// Enqueues a locally-originated control message (it attends switch
    /// allocation from the next cycle, like an arriving head flit).
    pub fn send_control(&mut self, msg: ControlMsg, now: Cycle) {
        self.deliver_control(Port::Local, msg, now);
    }

    /// The dedicated buffer of a control class.
    fn control_buf(&mut self, class: ControlClass) -> &mut VecDeque<(ControlMsg, Port, Cycle)> {
        match class {
            ControlClass::ReqLike => &mut self.req_buf,
            ControlClass::AckLike => &mut self.ack_buf,
        }
    }

    // ------------------------------------------------------------ deliveries

    /// Handles an arriving flit (buffer write + route computation).
    pub(crate) fn deliver_flit(
        &mut self,
        ctx: &mut RouterCtx<'_>,
        in_port: Port,
        vc_flat: usize,
        flit: Flit,
    ) {
        if flit.upward {
            self.deliver_upward(ctx, in_port, flit);
            return;
        }
        if in_port == Port::Down {
            if let Some(abs) = &mut self.absorber {
                // Remote control: everything entering the chiplet is absorbed.
                let route_out = if flit.kind.is_head() {
                    let route = ctx.arena.head_desc(&flit).route;
                    ctx.routing.route(ctx.topo, self.node, in_port, &route)
                } else {
                    Port::Local // placeholder; body flits reuse the slot route
                };
                abs.accept(flit, ctx.arena.desc(&flit).id, ctx.now, route_out);
                if ctx.obs.is_enabled() {
                    ctx.obs.inc(ctx.obs.mech.absorber_flits);
                }
                return;
            }
        }
        let iv = in_port.index() * self.vcs_per_port() + vc_flat;
        if flit.kind.is_head() {
            let vc = &mut self.in_vcs[iv];
            debug_assert!(
                vc.owner().is_none(),
                "VC collision at {} {in_port}",
                self.node
            );
            let desc = ctx.arena.head_desc(&flit);
            let out = ctx.routing.route(ctx.topo, self.node, in_port, &desc.route);
            vc.claim(desc.id, out);
            self.up[in_port.index()] |= u64::from(out == Port::Up) << vc_flat;
        }
        if !self.push_flit(ctx, in_port, vc_flat, flit) {
            panic!(
                "input VC overflow at {} {in_port} vc {vc_flat} (credit protocol violation)",
                self.node
            );
        }
    }

    /// Appends a flit to input VC `(p, f)` and raises its occupancy bit;
    /// false when the ring is full. With [`Router::pop_flit`], the only
    /// writer of `bufs`. The first flit of an `Up`-routed VC is an upward
    /// candidate, so it puts the router in the scheme-input set. The flit
    /// counts as written this cycle in the port's `fresh` word and the
    /// VC's `fresh` byte; the first write of a cycle clears every port's
    /// word, so the bits of an earlier cycle never carry over.
    fn push_flit(&mut self, ctx: &mut RouterCtx<'_>, p: Port, f: usize, flit: Flit) -> bool {
        debug_assert!(f < self.vcs_per_port(), "VC {f} is past the port's last VC");
        let iv = p.index() * self.vcs_per_port() + f;
        if !self.occ[p.index()] & self.up[p.index()] & (1 << f) != 0 {
            ctx.scheme_input.insert(self.node.index());
        }
        if self.bufs.push_back(iv, flit).is_err() {
            return false;
        }
        #[cfg(debug_assertions)]
        self.written_at
            .push_back(iv, ctx.now)
            .expect("the shadow has the capacity of the ring it mirrors");
        self.occ[p.index()] |= 1 << f;
        if self.last_flit_write != ctx.now {
            self.fresh = [0; Port::COUNT];
            self.last_flit_write = ctx.now;
        }
        let vc = &mut self.in_vcs[iv];
        if self.fresh[p.index()] >> f & 1 == 0 {
            self.fresh[p.index()] |= 1 << f;
            vc.fresh = 0;
        }
        vc.fresh += 1;
        true
    }

    /// Removes the oldest flit of input VC `(p, f)`, dropping the VC's
    /// occupancy bit when that empties it. A new front flit (or none) is
    /// asked afresh, so the VC is re-armed.
    fn pop_flit(&mut self, p: Port, f: usize) -> Option<Flit> {
        let iv = p.index() * self.vcs_per_port() + f;
        let flit = self.bufs.pop_front(iv)?;
        #[cfg(debug_assertions)]
        self.written_at.pop_front(iv);
        if self.bufs.is_empty(iv) {
            self.occ[p.index()] &= !(1 << f);
        }
        self.rearm(p.index(), 1 << f);
        Some(flit)
    }

    /// True when the front flit of occupied input VC `(p, f)` was written in
    /// cycle `now`: it attends switch allocation from the next cycle. The
    /// flits written in cycle `last_flit_write` are the last `fresh` of
    /// the VC's buffer, so the front is one of them exactly when the
    /// buffer holds no more. The count needs no decrement where a flit
    /// leaves: [`Router::pop_flit`] runs only on a front this says is not
    /// new, so none of the counted flits leaves before `now` has passed
    /// `last_flit_write`, after which the count is not read. Debug builds
    /// assert the answer against the shadow cycle of the front slot.
    fn front_is_new(&self, p: Port, f: usize, now: Cycle) -> bool {
        let iv = p.index() * self.vcs_per_port() + f;
        debug_assert!(
            !self.bufs.is_empty(iv),
            "VC {f} of {} {p} holds no flit",
            self.node
        );
        let new = self.last_flit_write == now
            && self.fresh[p.index()] >> f & 1 == 1
            && self.bufs.len(iv) <= usize::from(self.in_vcs[iv].fresh);
        #[cfg(debug_assertions)]
        assert_eq!(
            new,
            self.written_at.front(iv).is_some_and(|&at| at >= now),
            "new-front word of {} {p} disagrees with VC {f}'s shadow at cycle {now}",
            self.node
        );
        new
    }

    /// Debug cross-check of the per-port words against the state they
    /// summarise (the reference for every skip they drive, like the
    /// scheduler's cross-check in `Network::finish_cycle`): occupancy
    /// against the buffers, `up` against `route_out`, `prio` only on owned
    /// VCs, and `live` against the topology.
    fn assert_words_match_state(&self, topo: &Topology) {
        for p in Port::ALL {
            for f in 0..self.vcs_per_port() {
                let vc = &self.in_vcs[p.index() * self.vcs_per_port() + f];
                assert_eq!(
                    self.occ[p.index()] >> f & 1 == 1,
                    !self.bufs.is_empty(p.index() * self.vcs_per_port() + f),
                    "occupancy word of {} {p} disagrees with VC {f}'s buffer",
                    self.node
                );
                assert_eq!(
                    self.up[p.index()] >> f & 1 == 1,
                    vc.route_out() == Some(Port::Up),
                    "Up-route word of {} {p} disagrees with VC {f}'s route",
                    self.node
                );
                assert!(
                    !self.is_priority_vc(p, f) || vc.owner().is_some(),
                    "{} {p} VC {f} holds a priority mark and no packet",
                    self.node
                );
            }
            assert_eq!(
                self.is_live(p),
                p == Port::Local || topo.neighbor(self.node, p).is_some(),
                "live word of {} disagrees with the topology on {p}",
                self.node
            );
        }
    }

    /// Debug cross-check of the parked words and, under a tracer, of the
    /// open spans — the reference for the parked skip and for what the
    /// tracer charges while nobody looks. A parked VC holds a flit and
    /// still parks, on the block its open span records. A router that is
    /// not `due` this cycle sleeps, so every span it has open must still
    /// record what its VC waits on (a due one's step re-records them).
    pub(crate) fn assert_parked_vcs(&self, ctx: &RouterCtx<'_>, due: bool) {
        let spans = ctx.tracer.spans(self.node);
        let records = |s: &OpenSpan| {
            let request = self.vc_request(s.in_port, s.vc_flat, ctx);
            Self::span(ctx, s.in_port, s.vc_flat, request).is_some_and(|now| {
                OpenSpan {
                    from: s.from,
                    ..now
                } == *s
            })
        };
        for p in Port::ALL {
            let parked = self.parked[p.index()];
            let holds = self.occ[p.index()];
            assert_eq!(
                parked & !holds,
                0,
                "{} {p} parks a VC that holds nothing",
                self.node
            );
            for f in SetBits(parked) {
                let request = self.vc_request(p, f, ctx);
                let span = spans.iter().find(|s| (s.in_port, s.vc_flat) == (p, f));
                assert!(
                    matches!(request, Request::Park(_))
                        && (!ctx.tracer.enabled() || span.is_some_and(records)),
                    "parked VC {f} of {} {p} at cycle {}: {request:?}, open span {span:?}",
                    self.node,
                    ctx.now
                );
            }
        }
        for s in spans.iter().filter(|_| !due) {
            assert!(
                records(s),
                "{} sleeps at cycle {} with {s:?} stale",
                self.node,
                ctx.now
            );
        }
    }

    /// Handles an arriving upward (bypass) flit: either it rejoins its worm
    /// (preserving flit order when popup started mid-packet) or it enters the
    /// bypass latch for single-stage forwarding.
    fn deliver_upward(&mut self, ctx: &mut RouterCtx<'_>, in_port: Port, flit: Flit) {
        // Protocol-state reads (identity, circuit key) are legitimate on any
        // flit of the packet, so this goes through the non-asserting accessor.
        let desc = ctx.arena.desc(&flit);
        let (id, vnet, dest) = (desc.id, desc.vnet, desc.route.dest);
        // Rejoin rule: if this packet still owns an input VC here with
        // buffered flits, append behind them so flits cannot overtake.
        for p in Port::ALL {
            for f in SetBits(self.occ[p.index()]) {
                if self.in_vcs[p.index() * self.vcs_per_port() + f].owner() != Some(id) {
                    continue;
                }
                let mut rejoined = flit;
                rejoined.upward = false;
                if !self.push_flit(ctx, p, f, rejoined) {
                    panic!("rejoin overflow at {} for {id}", self.node);
                }
                self.mark_priority(p, f);
                return;
            }
        }
        let out_port = match self.circuit(vnet, dest) {
            Some(e) => {
                if ctx.obs.is_enabled() {
                    ctx.obs.inc(ctx.obs.mech.circuit_lookup_hits);
                }
                e.out_port
            }
            None => {
                // No circuit: the req has not passed here. This can only be a
                // protocol bug; route it like a normal flit to stay live.
                debug_assert!(false, "upward flit without circuit at {}", self.node);
                if ctx.obs.is_enabled() {
                    ctx.obs.inc(ctx.obs.mech.circuit_lookup_misses);
                }
                let route = ctx.arena.desc(&flit).route;
                ctx.routing.route(ctx.topo, self.node, in_port, &route)
            }
        };
        self.bypass.push_back(BypassFlit {
            flit,
            in_port,
            out_port,
            arrived: ctx.now,
        });
    }

    /// Handles a returning credit, re-arming the parked VCs of the
    /// credited VNet: one that is parked on this output waits on one of its
    /// VCs. The VNet's VCs parked on other outputs re-arm too, at the cost
    /// of one evaluation each.
    pub(crate) fn deliver_credit(&mut self, out_port: Port, vc_flat: usize, is_free: bool) {
        let sink = self.is_sink(out_port);
        let vc = &mut self.out_vcs[out_port.index() * self.vcs_per_port() + vc_flat];
        if !sink {
            vc.credits += 1;
        }
        if is_free {
            vc.busy = false;
        }
        let mask = self.vnet_mask(vc_flat / self.vcs_per_vnet());
        for p in 0..Port::COUNT {
            self.rearm(p, mask);
        }
    }

    /// Handles an arriving control message (buffer write into the dedicated
    /// 32-bit buffer of its class).
    pub(crate) fn deliver_control(&mut self, in_port: Port, msg: ControlMsg, now: Cycle) {
        self.control_buf(msg.class).push_back((msg, in_port, now));
    }

    // ------------------------------------------------------------------ step

    /// Processes one cycle: bypass forwarding, control-signal switch
    /// allocation, then normal separable switch allocation and commit.
    ///
    /// Returns the next cycle in which a step can do anything if no input
    /// of the router changes before then. `ctx.now + 1` when this step
    /// moved something (it emitted an event or took a message off a control
    /// buffer — the flit behind the one that left, or a bid that lost, may
    /// go next) or when the router holds something that time alone
    /// releases. Otherwise `Cycle::MAX`: every flit it holds waits on a
    /// credit, a free output VC, an ejection entry, a frozen bit or a failed
    /// link, the step changed nothing (no RNG draw outside `pick_out_vc`, no
    /// arbiter update without a winner, and the two high-water marks below
    /// are maxima over unchanged buffers), and repeating it would change
    /// nothing either until one of those inputs does.
    pub(crate) fn step(&mut self, ctx: &mut RouterCtx<'_>) -> Cycle {
        if cfg!(debug_assertions) {
            self.assert_words_match_state(ctx.topo);
        }
        if ctx.tracer.enabled() {
            // This step looks at every VC that is not parked: the spans of
            // re-armed ones, and of ones that waited while it slept, end.
            ctx.tracer.close_spans(self.node, &self.parked, ctx.now);
        }
        let emitted = ctx.emit.len();
        let queued = self.req_buf.len() + self.ack_buf.len();
        // The ports each earlier stage of this step took, one bit per
        // `Port::index`.
        let mut claimed_out = 0u8;
        let mut claimed_in = 0u8;

        self.step_bypass(ctx, &mut claimed_out, &mut claimed_in);
        self.step_control(ctx, &mut claimed_out);
        self.step_normal(ctx, &mut claimed_out, &mut claimed_in);

        ctx.stats.max_req_buffer_occupancy =
            ctx.stats.max_req_buffer_occupancy.max(self.req_buf.len());
        ctx.stats.max_ack_buffer_occupancy =
            ctx.stats.max_ack_buffer_occupancy.max(self.ack_buf.len());

        let moved = ctx.emit.len() != emitted || self.req_buf.len() + self.ack_buf.len() != queued;
        if moved || self.holds_polled_state() || self.last_flit_write >= ctx.now {
            return ctx.now + 1;
        }
        if ctx.tracer.enabled() {
            // Asleep from the next cycle: what its waiting VCs wait on is
            // charged until the router looks again.
            self.open_spans(ctx, false, ctx.now + 1);
        }
        Cycle::MAX
    }

    /// Upward flits: absolute priority, single ST stage.
    fn step_bypass(&mut self, ctx: &mut RouterCtx<'_>, claimed_out: &mut u8, claimed_in: &mut u8) {
        if self.bypass.is_empty() {
            return;
        }
        // In-place retain (instead of draining into a fresh queue) keeps the
        // per-cycle hot path allocation-free; `self.bypass` is moved out so
        // the closure can borrow the rest of `self` mutably.
        let mut bypass = std::mem::take(&mut self.bypass);
        bypass.retain(|b| {
            let (out, inp) = (1 << b.out_port.index(), 1 << b.in_port.index());
            let eligible = b.arrived < ctx.now
                && *claimed_out & out == 0
                && *claimed_in & inp == 0
                // A dynamically-failed link retains the flit in the latch
                // until the heal (fail-stop; nothing in flight is dropped).
                && self.live & out != 0;
            if !eligible {
                return true;
            }
            *claimed_out |= out;
            *claimed_in |= inp;
            if ctx.tracer.enabled() && self.parked[b.in_port.index()] != 0 {
                // Switch allocation skips the claimed port: nothing on it
                // is blocked this cycle, parked or not.
                ctx.tracer
                    .skip_cycle(self.node, b.in_port, u64::MAX, ctx.now);
            }
            ctx.stats.bypass_hops += 1;
            ctx.stats.bump_link(self.node, b.out_port);
            *ctx.last_progress = ctx.now;
            if ctx.tracer.enabled() {
                ctx.tracer.record(TraceEvent::BypassHop {
                    at: ctx.now,
                    packet: ctx.arena.desc(&b.flit).id,
                    node: self.node,
                    out_port: b.out_port,
                });
            }
            if b.out_port == Port::Up {
                self.up_last_sent[ctx.arena.desc(&b.flit).vnet.index()] = ctx.now;
            }
            let arrival = ctx.now + ctx.cfg.link_latency;
            if b.out_port == Port::Local {
                ctx.emit.push((
                    arrival,
                    Event::NiFlitArrive {
                        node: self.node,
                        flit: b.flit,
                    },
                ));
            } else {
                let peer = ctx
                    .topo
                    .neighbor(self.node, b.out_port)
                    .unwrap_or_else(|| panic!("bypass over missing link at {}", self.node));
                ctx.emit.push((
                    arrival,
                    Event::FlitArrive {
                        node: peer,
                        in_port: b.out_port.opposite(),
                        vc_flat: 0,
                        flit: b.flit,
                    },
                ));
            }
            false
        });
        self.bypass = bypass;
    }

    /// Control messages: priority over normal flits, one req-like and one
    /// ack-like transfer per cycle at most.
    fn step_control(&mut self, ctx: &mut RouterCtx<'_>, claimed_out: &mut u8) {
        if self.req_buf.is_empty() && self.ack_buf.is_empty() {
            return;
        }
        // Alternate which buffer goes first for fairness. The order is
        // derived from the cycle parity rather than a toggled flag so an
        // idle step leaves the router bit-identical to one that was never
        // stepped — the active-set scheduler relies on this to skip empty
        // routers without perturbing control-message ordering.
        let order = if ctx.now & 1 == 1 {
            [ControlClass::AckLike, ControlClass::ReqLike]
        } else {
            [ControlClass::ReqLike, ControlClass::AckLike]
        };
        for class in order {
            let Some(&(msg, in_port, arrived)) = self.control_buf(class).front() else {
                continue;
            };
            if arrived >= ctx.now {
                continue;
            }
            // Route the message.
            let (out_port, terminate) = match msg.routing {
                ControlRoute::Forward => {
                    if self.node == msg.route.dest {
                        (Port::Local, msg.deliver_to_ni)
                    } else {
                        (
                            ctx.routing.route(ctx.topo, self.node, in_port, &msg.route),
                            false,
                        )
                    }
                }
                ControlRoute::Reverse => {
                    if self.node == msg.route.dest {
                        // Terminates at this router (interposer side).
                        self.control_buf(class).pop_front();
                        self.control_inbox.push(DeliveredControl {
                            msg,
                            in_port,
                            at: ctx.now,
                        });
                        ctx.scheme_input.insert(self.node.index());
                        continue;
                    }
                    match self.circuit(msg.vnet, msg.circuit_key) {
                        Some(e) => {
                            if ctx.obs.is_enabled() {
                                ctx.obs.inc(ctx.obs.mech.circuit_lookup_hits);
                            }
                            (e.in_port, false)
                        }
                        None => {
                            // Reverse path lost (stale protocol state): drop.
                            if ctx.obs.is_enabled() {
                                ctx.obs.inc(ctx.obs.mech.circuit_lookup_misses);
                            }
                            self.control_buf(class).pop_front();
                            continue;
                        }
                    }
                }
            };
            if *claimed_out >> out_port.index() & 1 == 1 {
                continue; // delayed one cycle (upward flits win, Sec. V-C1)
            }
            if !self.is_live(out_port) {
                continue; // dead link: the message stays queued until heal
            }
            self.control_buf(class).pop_front();
            *claimed_out |= 1 << out_port.index();
            ctx.stats.control_hops += 1;
            *ctx.last_progress = ctx.now;
            if ctx.tracer.enabled() {
                ctx.tracer.record(TraceEvent::ControlHop {
                    at: ctx.now,
                    node: self.node,
                    out_port,
                    class: msg.class,
                    bits: msg.bits,
                    vnet: msg.vnet,
                    origin: msg.origin,
                    routing: msg.routing,
                });
            }
            if msg.record_circuit {
                let prev = self.record_circuit(
                    (msg.vnet, msg.circuit_key),
                    CircuitEntry {
                        in_port,
                        out_port,
                        set_at: ctx.now,
                    },
                );
                if ctx.obs.is_enabled() {
                    if prev.is_some() {
                        // Destination-keyed table: a newer popup toward the
                        // same destination evicts the stale reverse path.
                        ctx.obs.inc(ctx.obs.mech.circuit_evictions);
                    } else {
                        ctx.obs.inc(ctx.obs.mech.circuit_inserts);
                        ctx.obs.gauge_add(ctx.obs.mech.circuit_entries, 1);
                    }
                }
            }
            let arrival = ctx.now + 1 + ctx.cfg.link_latency;
            if out_port == Port::Local {
                if terminate {
                    ctx.emit.push((
                        arrival,
                        Event::NiControlArrive {
                            node: self.node,
                            in_port,
                            msg: ctx.controls.put(msg),
                        },
                    ));
                } else {
                    // Forward message terminating at a router (not used by
                    // UPP, but keep the datapath total).
                    self.control_inbox.push(DeliveredControl {
                        msg,
                        in_port,
                        at: ctx.now,
                    });
                    ctx.scheme_input.insert(self.node.index());
                }
            } else {
                let peer = ctx
                    .topo
                    .neighbor(self.node, out_port)
                    .unwrap_or_else(|| panic!("control over missing link at {}", self.node));
                ctx.emit.push((
                    arrival,
                    Event::ControlArrive {
                        node: peer,
                        in_port: out_port.opposite(),
                        msg: ctx.controls.put(msg),
                    },
                ));
            }
        }
    }

    /// Separable two-phase switch allocation over normal input VCs plus the
    /// absorber's re-injection slots, then commit. Both phases walk port
    /// words in ascending `Port::index` order: phase 1 the inputs that can
    /// bid, phase 2 the outputs that drew a bid.
    fn step_normal(&mut self, ctx: &mut RouterCtx<'_>, claimed_out: &mut u8, claimed_in: &mut u8) {
        #[derive(Clone, Copy)]
        struct Bid {
            in_port: Port,
            /// VC index, or `usize::MAX - slot` for absorber slots.
            vc_flat: usize,
            out_port: Port,
        }

        // Phase 1: one candidate per input port. At most one bid can exist
        // per input (the absorber bids as `Down`, which is not a crossbar
        // input whenever an absorber is installed), so the bids sit in a
        // port-indexed array. `bidders[out]` collects the input ports
        // bidding for `out`, `priority_inputs` those whose bid carries popup
        // priority and `bid_outs` the outputs that drew a bid, all as
        // bitmasks over `Port::index`.
        let mut bids: [Option<Bid>; Port::COUNT] = [None; Port::COUNT];
        let mut bidders = [0u8; Port::COUNT];
        let mut priority_inputs = 0u8;
        let mut bid_outs = 0u8;
        // Only occupied VCs can request: an empty one has no head flit to
        // bid with and nothing to report as blocked. A parked one cannot bid
        // either, and its span charges why it is blocked. So a port bids
        // when it is a crossbar input, holds an occupied VC that is not
        // parked, and no earlier stage of this step claimed it.
        let mut armed_ports = 0u8;
        for p in 0..Port::COUNT {
            armed_ports |= u8::from(self.occ[p] & !self.parked[p] != 0) << p;
        }
        let bidding = armed_ports & self.crossbar_inputs() & !*claimed_in;
        #[cfg(debug_assertions)]
        {
            self.work.sa_inputs_examined += u64::from(bidding.count_ones());
        }
        for p in ports(bidding) {
            let i = p.index();
            let armed = self.occ[i] & !self.parked[i];
            // Round-robin order: VCs `rr_in..` first, then the wrap-around.
            let below_start = (1u64 << self.rr_in[i]) - 1;
            let mut chosen: Option<(usize, Port, bool)> = None;
            for f in SetBits(armed & !below_start).chain(SetBits(armed & below_start)) {
                let request = self.vc_request(p, f, ctx);
                #[cfg(debug_assertions)]
                {
                    self.work.vc_requests += 1;
                    self.work.vc_requests_failed += u64::from(!matches!(request, Request::Bid(_)));
                }
                let Request::Bid(out) = request else {
                    if let Request::Park(_) = request {
                        self.parked[i] |= 1 << f;
                    }
                    if ctx.tracer.enabled() {
                        if let Some(span) = Self::span(ctx, p, f, request) {
                            let parked = matches!(request, Request::Park(_));
                            ctx.tracer.blocked(self.node, span, parked);
                        }
                    }
                    continue;
                };
                let prio = self.is_priority_vc(p, f);
                match chosen {
                    None => chosen = Some((f, out, prio)),
                    Some((_, _, false)) if prio => chosen = Some((f, out, prio)),
                    _ => {}
                }
                if prio {
                    if ctx.tracer.enabled() {
                        // The VCs after `f` in round-robin order are not
                        // asked this cycle, so nothing on them is blocked.
                        let above = u64::MAX.checked_shl(f as u32 + 1).unwrap_or(0);
                        let later = if f >= usize::from(self.rr_in[i]) {
                            above | below_start
                        } else {
                            above & below_start
                        };
                        let skipped = self.parked[i] & later;
                        ctx.tracer.skip_cycle(self.node, p, skipped, ctx.now);
                    }
                    break;
                }
            }
            if let Some((f, out, prio)) = chosen {
                bids[i] = Some(Bid {
                    in_port: p,
                    vc_flat: f,
                    out_port: out,
                });
                bidders[out.index()] |= 1 << i;
                bid_outs |= 1 << out.index();
                priority_inputs |= u8::from(prio) << i;
            }
        }
        // Absorber re-injection bids on the Down "input".
        if self.absorber.is_some() && *claimed_in >> Port::Down.index() & 1 == 0 {
            if let Some((slot, out)) = self.absorber_request(ctx) {
                bids[Port::Down.index()] = Some(Bid {
                    in_port: Port::Down,
                    vc_flat: usize::MAX - slot,
                    out_port: out,
                });
                bidders[out.index()] |= 1 << Port::Down.index();
                bid_outs |= 1 << out.index();
            }
        }

        // Phase 2: one winner per output port that drew a bid and that no
        // earlier stage claimed. The set bits of `bidders[out]` are the
        // contenders in ascending input-port order: the first priority bid
        // wins outright, otherwise the `rr_out`-th contender does.
        let arbitrated = bid_outs & !*claimed_out;
        #[cfg(debug_assertions)]
        {
            self.work.sa_outputs_examined += u64::from(arbitrated.count_ones());
        }
        for o in SetBits(u64::from(arbitrated)) {
            let contenders = bidders[o];
            let with_priority = contenders & priority_inputs;
            let winner_in = if with_priority != 0 {
                with_priority.trailing_zeros() as usize
            } else {
                let n_cont = contenders.count_ones() as usize;
                let start = if n_cont == 1 {
                    0
                } else {
                    usize::from(self.rr_out[o]) % n_cont
                };
                SetBits(u64::from(contenders))
                    .nth(start)
                    .expect("start is below the contender count")
            };
            let winner = bids[winner_in].expect("a bidder bit marks a recorded bid");
            *claimed_out |= 1 << o;
            *claimed_in |= 1 << winner_in;
            self.rr_out[o] = (self.rr_out[o] + 1) % Self::RR_OUT_PERIOD;
            self.rr_in[winner_in] += 1;
            if self.rr_in[winner_in] == self.vcs_per_port {
                self.rr_in[winner_in] = 0;
            }
            if winner.vc_flat > usize::MAX / 2 {
                let slot = usize::MAX - winner.vc_flat;
                self.commit_absorber(ctx, slot, winner.out_port);
            } else {
                self.commit_normal(ctx, winner.in_port, winner.vc_flat, winner.out_port);
            }
        }
        // Input-VC bids that did not win this cycle (their input is not
        // claimed) stalled on switch allocation.
        if ctx.tracer.enabled() {
            let claimed = *claimed_in;
            let lost =
                |b: &&Bid| b.vc_flat <= usize::MAX / 2 && claimed >> b.in_port.index() & 1 == 0;
            for b in bids.iter().flatten().filter(lost) {
                let iv = b.in_port.index() * self.vcs_per_port() + b.vc_flat;
                let front = self
                    .bufs
                    .front(iv)
                    .expect("losing bid still holds its flit");
                let packet = ctx.arena.desc(front).id;
                ctx.tracer.record(TraceEvent::Blocked {
                    at: ctx.now,
                    packet,
                    node: self.node,
                    in_port: b.in_port,
                    vc_flat: b.vc_flat,
                    out_port: Some(b.out_port),
                    reason: BlockReason::SwitchAlloc,
                });
            }
        }
    }

    /// Whether occupied input VC `(p, f)` can bid this cycle, and if not,
    /// what it waits on and whether it parks (see [`Request`]).
    fn vc_request(&self, p: Port, f: usize, ctx: &RouterCtx<'_>) -> Request {
        let iv = p.index() * self.vcs_per_port() + f;
        let vc = &self.in_vcs[iv];
        let (Some(head), Some(out)) = (self.bufs.front(iv), vc.route_out()) else {
            return Request::Wait(None);
        };
        // A frozen VC and a flit in its buffer-write cycle do not bid, and
        // fail-stop never bids over a missing or failed link: the VC (and
        // its worm) waits in place until the link heals.
        if vc.frozen() || self.front_is_new(p, f, ctx.now) || !self.is_live(out) {
            return Request::Wait(None);
        }
        let reason = match vc.out_vc() {
            Some(ovc) if self.has_credit(out, ovc) => return Request::Bid(out),
            Some(_) => BlockReason::Credit,
            None => {
                debug_assert!(head.kind.is_head(), "body flit without allocated out VC");
                // A packet keeps its VNet, and an input VC carries only its
                // own VNet's packets, so the VC index names the VNet.
                let vnet = VnetId((f / self.vcs_per_vnet()) as u8);
                debug_assert_eq!(vnet, ctx.arena.head_desc(head).vnet);
                let need = Self::alloc_credits_needed(ctx, head);
                if self.free_out_vc_exists(out, vnet, need, ctx) {
                    return Request::Bid(out);
                }
                BlockReason::VcAlloc
            }
        };
        let block = Block {
            packet: head.desc,
            out,
            reason,
        };
        if out == Port::Local {
            Request::Wait(Some(block))
        } else {
            Request::Park(block)
        }
    }

    /// Credits a head flit needs to win VC allocation: one under wormhole,
    /// the whole packet under virtual cut-through. Every call site holds a
    /// head flit (VC allocation happens at heads only), so the route-header
    /// read goes through the asserting [`PacketArena::head_desc`].
    fn alloc_credits_needed(ctx: &RouterCtx<'_>, flit: &Flit) -> usize {
        match ctx.cfg.flow_control {
            crate::config::FlowControl::Wormhole => 1,
            crate::config::FlowControl::VirtualCutThrough => {
                ctx.arena.head_desc(flit).pkt_len as usize
            }
        }
    }

    /// True when output VC `ovc` of `out` can take one more flit: a sink
    /// always can, any other VC while it holds a credit.
    fn has_credit(&self, out: Port, ovc: usize) -> bool {
        self.is_sink(out) || self.out_vcs[out.index() * self.vcs_per_port() + ovc].credits > 0
    }

    /// Takes a credit of output VC `ovc` of `out` for a departing flit (a
    /// sink counts none).
    fn take_credit(&mut self, out: Port, ovc: usize) {
        if !self.is_sink(out) {
            self.out_vcs[out.index() * self.vcs_per_port() + ovc].credits -= 1;
        }
    }

    /// The VCs of `vnet` on output `out` that can take a packet needing
    /// `need` credits: on a sink that exerts no VC backpressure, all of
    /// them; elsewhere those not held by another packet and holding the
    /// credits.
    fn free_out_vcs(
        &self,
        out: Port,
        vnet: VnetId,
        need: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        let base = vnet.index() * self.vcs_per_vnet();
        let sink = self.is_sink(out);
        (base..base + self.vcs_per_vnet()).filter(move |&ovc| {
            let s = &self.out_vcs[out.index() * self.vcs_per_port() + ovc];
            sink || !s.busy && usize::from(s.credits) >= need
        })
    }

    fn free_out_vc_exists(
        &self,
        out: Port,
        vnet: VnetId,
        need: usize,
        ctx: &RouterCtx<'_>,
    ) -> bool {
        if out == Port::Local && ctx.ni.free_entries(vnet) == 0 {
            return false;
        }
        self.free_out_vcs(out, vnet, need).next().is_some()
    }

    fn pick_out_vc(&mut self, out: Port, vnet: VnetId, need: usize) -> usize {
        let n = self.free_out_vcs(out, vnet, need).count();
        debug_assert!(n > 0);
        // VC selection picks randomly among free VCs (Sec. V-B2 / Fig. 5).
        // Counting then re-scanning for the k-th candidate draws exactly the
        // same single `gen_range(0..n)` the collected-`Vec` version did, so
        // RNG streams (and therefore simulations) stay bit-identical.
        let k = self.rng.gen_range(0..n);
        self.free_out_vcs(out, vnet, need)
            .nth(k)
            .expect("k < candidate count")
    }

    fn commit_normal(&mut self, ctx: &mut RouterCtx<'_>, in_port: Port, f: usize, out: Port) {
        let flit = self.pop_flit(in_port, f).expect("winner has a head flit");
        let iv = in_port.index() * self.vcs_per_port() + f;
        let needs_alloc = self.in_vcs[iv].out_vc().is_none();
        let ovc = if needs_alloc {
            let desc = ctx.arena.head_desc(&flit);
            let (id, vnet) = (desc.id, desc.vnet);
            let need = Self::alloc_credits_needed(ctx, &flit);
            let ovc = self.pick_out_vc(out, vnet, need);
            self.out_vcs[out.index() * self.vcs_per_port() + ovc].busy = true;
            if out == Port::Local {
                ctx.ni.claim_entry(vnet);
            }
            self.in_vcs[iv].set_out_vc(ovc);
            if ctx.tracer.enabled() {
                ctx.tracer.record(TraceEvent::VcAllocated {
                    at: ctx.now,
                    packet: id,
                    node: self.node,
                    in_port,
                    vc_flat: f,
                    out_port: out,
                    out_vc: ovc,
                });
            }
            ovc
        } else {
            self.in_vcs[iv].out_vc().expect("allocated")
        };
        self.take_credit(out, ovc);

        let is_tail = flit.kind.is_tail();
        self.credit_upstream(ctx, in_port, f, is_tail);

        if is_tail {
            self.free_vc(in_port, f);
        }
        self.forward_flit(ctx, flit, out, ovc, is_tail);
    }

    /// Returns the credit of input VC `(in_port, vc_flat)`'s freed slot
    /// upstream (to the NI for `Local`), freeing the VC there with the tail.
    /// Credits travel the physical link even while it is marked faulty
    /// (dedicated reverse wires), so upstream counters stay consistent
    /// across a dynamic fail/heal pair.
    fn credit_upstream(
        &self,
        ctx: &mut RouterCtx<'_>,
        in_port: Port,
        vc_flat: usize,
        is_free: bool,
    ) {
        let vc_flat = vc_flat as u8; // below MAX_VCS_PER_PORT
        let event = match in_port {
            Port::Local => Event::NiCreditArrive {
                node: self.node,
                vc_flat,
                is_free,
            },
            _ => Event::CreditArrive {
                node: (ctx.topo.raw_neighbor(self.node, in_port))
                    .expect("input arrivals come over existing links"),
                out_port: in_port.opposite(),
                vc_flat,
                is_free,
            },
        };
        ctx.emit.push((ctx.now + ctx.cfg.credit_latency, event));
    }

    /// Deallocates input VC `(p, f)` as its packet's tail leaves: no
    /// owner, route, out VC, freeze, `Up`-route bit or priority mark.
    fn free_vc(&mut self, p: Port, f: usize) {
        self.in_vcs[p.index() * self.vcs_per_port() + f] = InputVc::default();
        self.up[p.index()] &= !(1 << f);
        self.prio[p.index()] &= !(1 << f);
    }

    fn absorber_request(&self, ctx: &RouterCtx<'_>) -> Option<(usize, Port)> {
        let abs = self.absorber.as_ref()?;
        let n = abs.slots.len();
        for off in 0..n {
            let s = (abs.rr + off) % n;
            let slot = &abs.slots[s];
            if slot.packet.is_none() {
                continue;
            }
            let Some(&(head, arrived)) = slot.buf.front() else {
                continue;
            };
            // Extra +1 cycle models remote control's serialized VA/SA stages
            // at boundary crossings (Sec. III-B).
            if arrived + 1 >= ctx.now {
                continue;
            }
            let out = slot.route_out.expect("absorbed head computed a route");
            if !self.is_live(out) {
                continue; // no link, or a failed one: re-inject after heal
            }
            let ok = match slot.out_vc {
                Some(ovc) => self.has_credit(out, usize::from(ovc)),
                None => {
                    head.kind.is_head()
                        && self.free_out_vc_exists(
                            out,
                            ctx.arena.head_desc(&head).vnet,
                            Self::alloc_credits_needed(ctx, &head),
                            ctx,
                        )
                }
            };
            if ok {
                return Some((s, out));
            }
        }
        None
    }

    fn commit_absorber(&mut self, ctx: &mut RouterCtx<'_>, slot: usize, out: Port) {
        let (flit, needs_alloc) = {
            let abs = self.absorber.as_mut().expect("absorber committed");
            abs.rr = (slot + 1) % abs.slots.len();
            let s = &mut abs.slots[slot];
            let (flit, _) = s.buf.pop_front().expect("winner has a flit");
            (flit, s.out_vc.is_none())
        };
        let ovc = if needs_alloc {
            let vnet = ctx.arena.head_desc(&flit).vnet;
            let need = Self::alloc_credits_needed(ctx, &flit);
            let ovc = self.pick_out_vc(out, vnet, need);
            self.out_vcs[out.index() * self.vcs_per_port() + ovc].busy = true;
            if out == Port::Local {
                ctx.ni.claim_entry(vnet);
            }
            let narrow = u8::try_from(ovc).expect("a flat VC index fits a byte");
            self.absorber.as_mut().expect("absorber").slots[slot].out_vc = Some(narrow);
            ovc
        } else {
            let ovc = self.absorber.as_ref().expect("absorber").slots[slot].out_vc;
            usize::from(ovc.expect("allocated"))
        };
        self.take_credit(out, ovc);
        let is_tail = flit.kind.is_tail();
        if is_tail {
            let s = &mut self.absorber.as_mut().expect("absorber").slots[slot];
            s.packet = None;
            s.route_out = None;
            s.out_vc = None;
        }
        self.forward_flit(ctx, flit, out, ovc, is_tail);
    }

    fn forward_flit(
        &mut self,
        ctx: &mut RouterCtx<'_>,
        flit: Flit,
        out: Port,
        ovc: usize,
        is_tail: bool,
    ) {
        ctx.stats.flit_hops += 1;
        ctx.stats.bump_link(self.node, out);
        *ctx.last_progress = ctx.now;
        if out == Port::Up {
            self.up_last_sent[ctx.arena.desc(&flit).vnet.index()] = ctx.now;
        }
        if self.is_sink(out) && is_tail {
            // The NI entry or the absorber slot holds the packet; free the
            // VC now.
            self.out_vcs[out.index() * self.vcs_per_port() + ovc].busy = false;
        }
        let arrival = ctx.now + 1 + ctx.cfg.link_latency;
        if out == Port::Local {
            ctx.emit.push((
                arrival,
                Event::NiFlitArrive {
                    node: self.node,
                    flit,
                },
            ));
        } else {
            let peer = ctx
                .topo
                .neighbor(self.node, out)
                .unwrap_or_else(|| panic!("forwarding over missing link at {}", self.node));
            ctx.emit.push((
                arrival,
                Event::FlitArrive {
                    node: peer,
                    in_port: out.opposite(),
                    vc_flat: ovc as u8, // below MAX_VCS_PER_PORT
                    flit,
                },
            ));
        }
    }

    // ------------------------------------------------------- popup mechanics

    /// Pops the head-of-buffer flit of an input VC into the bypass latch
    /// toward `out_port` (upward-packet popup and its chiplet-side variant
    /// for partly-transmitted worms).
    ///
    /// The flit is marked `upward`, its buffer credit returns upstream, and
    /// on tail the VC is deallocated. Returns the flit, or `None` when the VC
    /// has no eligible flit this cycle.
    pub(crate) fn pop_bypass_flit(
        &mut self,
        ctx: &mut RouterCtx<'_>,
        in_port: Port,
        vc_flat: usize,
        out_port: Port,
    ) -> Option<Flit> {
        if !self.is_live(out_port) {
            return None; // no link, or a failed one: popup resumes after heal
        }
        let iv = in_port.index() * self.vcs_per_port() + vc_flat;
        if self.bufs.is_empty(iv) || self.front_is_new(in_port, vc_flat, ctx.now) {
            return None;
        }
        let mut flit = self.pop_flit(in_port, vc_flat).expect("checked non-empty");
        flit.upward = true;
        if ctx.tracer.enabled() {
            ctx.tracer.record(TraceEvent::BypassPop {
                at: ctx.now,
                packet: ctx.arena.desc(&flit).id,
                node: self.node,
                in_port,
                vc_flat,
                out_port,
            });
        }
        let is_tail = flit.kind.is_tail();
        if is_tail {
            self.free_vc(in_port, vc_flat);
        }
        self.credit_upstream(ctx, in_port, vc_flat, is_tail);
        self.bypass.push_back(BypassFlit {
            flit,
            in_port,
            out_port,
            arrived: ctx.now, // forwarded from the next cycle
        });
        Some(flit)
    }

    /// Iterates `(port, vc_flat)` over all existing input VCs.
    pub fn input_vcs(&self) -> impl Iterator<Item = (Port, usize)> + '_ {
        Port::ALL
            .into_iter()
            .filter(move |&p| self.has_link(p))
            .flat_map(move |p| (0..self.vcs_per_port()).map(move |f| (p, f)))
    }

    /// Flat VC range of one VNet.
    pub fn vnet_range(&self, vnet: VnetId) -> std::ops::Range<usize> {
        let base = vnet.index() * self.vcs_per_vnet();
        base..base + self.vcs_per_vnet()
    }

    /// Number of VNets configured.
    pub fn num_vnets(&self) -> usize {
        usize::from(self.num_vnets)
    }

    /// Exact heap bytes of this router's steady-state storage: the input-VC
    /// ring bank, VC control state, credit mirrors, control buffers and the
    /// absorber's slots. Transient structures (bypass latch, circuit table)
    /// are counted at their current footprint.
    pub fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        self.bufs.mem_bytes()
            + self.in_vcs.len() * size_of::<InputVc>()
            + self.out_vcs.len() * size_of::<OutVcState>()
            + self.req_buf.capacity() * size_of::<(ControlMsg, Port, Cycle)>()
            + self.ack_buf.capacity() * size_of::<(ControlMsg, Port, Cycle)>()
            + self.bypass.capacity() * size_of::<BypassFlit>()
            + self.circuits.len() * size_of::<((VnetId, NodeId), CircuitEntry)>()
            + self.up_last_sent.len() * size_of::<Cycle>()
            + self.absorber.as_ref().map_or(0, |a| {
                a.slots.len() * size_of::<AbsorbSlot>()
                    + a.slots
                        .iter()
                        .map(|s| s.buf.capacity() * size_of::<(Flit, Cycle)>())
                        .sum::<usize>()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::ids::PacketId;
    use crate::ni::ConsumePolicy;
    use crate::packet::RouteInfo;
    use crate::routing::ChipletRouting;
    use crate::topology::ChipletSystemSpec;

    use crate::packet::{PacketArena, PacketDesc};
    use std::collections::BTreeMap;

    struct Harness {
        cfg: NocConfig,
        topo: Topology,
        routing: ChipletRouting,
        ni: Ni,
        emit: Vec<(Cycle, Event)>,
        stats: NetStats,
        last_progress: Cycle,
        tracer: Tracer,
        obs: ObsRegistry,
        arena: PacketArena,
        scheme_input: WakeSet,
        controls: ControlSlab,
    }

    impl Harness {
        fn new(cfg: NocConfig) -> Self {
            let topo = ChipletSystemSpec::baseline().build(0).unwrap();
            let ni = Ni::new(NodeId(0), &cfg, ConsumePolicy::Immediate { latency: 1 });
            let nodes = topo.nodes().len();
            Self {
                cfg,
                topo,
                routing: ChipletRouting::xy(),
                ni,
                emit: Vec::new(),
                stats: NetStats::new(3),
                last_progress: 0,
                tracer: Tracer::disabled(),
                obs: ObsRegistry::disabled(),
                arena: PacketArena::new(),
                scheme_input: WakeSet::new(nodes),
                controls: ControlSlab::default(),
            }
        }

        fn ctx(&mut self, now: Cycle) -> RouterCtx<'_> {
            RouterCtx {
                cfg: &self.cfg,
                topo: &self.topo,
                routing: &self.routing,
                now,
                ni: &mut self.ni,
                emit: &mut self.emit,
                stats: &mut self.stats,
                last_progress: &mut self.last_progress,
                tracer: &mut self.tracer,
                obs: &mut self.obs,
                arena: &self.arena,
                scheme_input: &mut self.scheme_input,
                controls: &mut self.controls,
            }
        }

        fn router(&self) -> Router {
            // Node 5 = (1,1) of chiplet 0: an interior router with N/E/S/W.
            Router::new(self.topo.chiplets()[0].routers[5], &self.cfg, &self.topo, 1)
        }

        /// Interns a descriptor for packet 1 of `len` flits toward `dest`.
        fn intern(&mut self, len: u16, dest: NodeId) -> PacketRef {
            self.intern_as(PacketId(1), len, dest)
        }

        fn intern_as(&mut self, id: PacketId, len: u16, dest: NodeId) -> PacketRef {
            self.intern_routed(id, VnetId(0), len, RouteInfo::intra(dest))
        }

        fn intern_routed(
            &mut self,
            id: PacketId,
            vnet: VnetId,
            len: u16,
            route: RouteInfo,
        ) -> PacketRef {
            self.arena.alloc(PacketDesc {
                id,
                src: NodeId(0),
                vnet,
                pkt_len: len,
                route,
                created_at: 0,
                injected_at: PacketDesc::NOT_INJECTED,
            })
        }
    }

    /// The per-VC and per-event records keep their sizes: a record that
    /// regrows fails here, not in a memory report nobody reads.
    #[test]
    fn per_vc_and_per_event_records_fit_their_budgets() {
        use std::mem::size_of;
        let budgets = [
            ("Event", size_of::<Event>(), 16),
            ("(Cycle, Event)", size_of::<(Cycle, Event)>(), 24),
            ("input-VC ring slot", size_of::<Flit>(), 8),
            ("InputVc", size_of::<InputVc>(), 16),
            ("OutVcState", size_of::<OutVcState>(), 4),
        ];
        for (record, bytes, budget) in budgets {
            assert!(
                bytes <= budget,
                "{record} grew to {bytes} bytes (budget {budget})"
            );
        }
    }

    #[test]
    fn head_flit_buffer_write_computes_route() {
        let mut h = Harness::new(NocConfig::default());
        let mut r = h.router();
        let dest = h.topo.chiplets()[0].routers[6]; // east neighbour of node 5
        let d = h.intern(2, dest);
        let mut ctx = h.ctx(0);
        r.deliver_flit(&mut ctx, Port::West, 0, Flit::new(d, 0, 2));
        let vc = r.input_vc(Port::West, 0);
        assert_eq!(vc.owner(), Some(PacketId(1)));
        assert_eq!(vc.route_out(), Some(Port::East));
        assert!(!r.vc_partly_transmitted(Port::West, 0));
        assert_eq!(r.vc_buf_len(Port::West, 0), 1);
    }

    /// A flit attends switch allocation from the cycle after its buffer
    /// write, also when more than one flit enters its VC in that cycle (the
    /// front is new while the buffer holds only flits of the write cycle).
    #[test]
    fn flit_is_not_eligible_in_its_arrival_cycle() {
        for len in [1, 2] {
            let mut h = Harness::new(NocConfig::default());
            let mut r = h.router();
            let dest = h.topo.chiplets()[0].routers[6];
            let d = h.intern(len, dest);
            for seq in 0..len {
                let mut ctx = h.ctx(5);
                r.deliver_flit(&mut ctx, Port::West, 0, Flit::new(d, seq, len));
            }
            {
                let mut ctx = h.ctx(5);
                r.step(&mut ctx); // same cycle: BW only
            }
            assert!(
                h.emit.is_empty(),
                "no flit may move in its buffer-write cycle ({len} written)"
            );
            {
                let mut ctx = h.ctx(6);
                r.step(&mut ctx); // SA one cycle later
            }
            assert_eq!(h.emit.len(), 2, "flit transfer + upstream credit");
        }
    }

    #[test]
    fn commit_emits_credit_and_downstream_arrival() {
        let mut h = Harness::new(NocConfig::default());
        let mut r = h.router();
        let node = r.node();
        let dest = h.topo.chiplets()[0].routers[6];
        let east = h.topo.neighbor(node, Port::East).unwrap();
        let west = h.topo.neighbor(node, Port::West).unwrap();
        let d = h.intern(1, dest);
        {
            let mut ctx = h.ctx(0);
            r.deliver_flit(&mut ctx, Port::West, 0, Flit::new(d, 0, 1));
        }
        {
            let mut ctx = h.ctx(1);
            r.step(&mut ctx);
        }
        let mut saw_flit = false;
        let mut saw_credit = false;
        for (at, ev) in &h.emit {
            match ev {
                Event::FlitArrive {
                    node: n, in_port, ..
                } => {
                    assert_eq!(*n, east);
                    assert_eq!(*in_port, Port::West);
                    assert_eq!(*at, 1 + 1 + 1, "ST + LT after the SA cycle");
                    saw_flit = true;
                }
                Event::CreditArrive {
                    node: n,
                    out_port,
                    is_free,
                    ..
                } => {
                    assert_eq!(*n, west);
                    assert_eq!(*out_port, Port::East);
                    assert!(*is_free, "single-flit packet frees the VC");
                    saw_credit = true;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(saw_flit && saw_credit);
        // Tail departure cleared the VC.
        assert!(r.input_vc(Port::West, 0).owner().is_none());
    }

    #[test]
    fn frozen_vc_is_skipped_by_allocation() {
        let mut h = Harness::new(NocConfig::default());
        let mut r = h.router();
        let dest = h.topo.chiplets()[0].routers[6];
        let d = h.intern(1, dest);
        {
            let mut ctx = h.ctx(0);
            r.deliver_flit(&mut ctx, Port::West, 0, Flit::new(d, 0, 1));
        }
        r.set_vc_frozen(Port::West, 0, true);
        {
            let mut ctx = h.ctx(1);
            r.step(&mut ctx);
        }
        assert!(h.emit.is_empty(), "frozen VCs must not move");
        r.set_vc_frozen(Port::West, 0, false);
        {
            let mut ctx = h.ctx(2);
            r.step(&mut ctx);
        }
        assert_eq!(h.emit.len(), 2);
    }

    /// Sends five flits of a six-flit worm of VNet `vc` (one VC per VNet)
    /// East through West VC `vc`, stepping cycles 0 to 6: four spend the
    /// out VC's credits, and the fifth parks in cycle 5.
    fn park_on_credits(h: &mut Harness, r: &mut Router, vc: usize) {
        let east = h.topo.chiplets()[0].routers[6];
        let d = h.intern_routed(PacketId(2), VnetId(vc as u8), 6, RouteInfo::intra(east));
        for now in 0..=6u16 {
            if now < 5 {
                r.deliver_flit(&mut h.ctx(now.into()), Port::West, vc, Flit::new(d, now, 6));
            }
            r.step(&mut h.ctx(now.into()));
        }
        assert_eq!(r.vc_words(Port::West).parked, 1 << vc);
    }

    /// Flits sent to a neighbour so far.
    fn sent(h: &Harness) -> usize {
        let hops = h.emit.iter();
        hops.filter(|(_, e)| matches!(e, Event::FlitArrive { .. }))
            .count()
    }

    /// The input VC whose flit left in the last step (its upstream credit
    /// names it).
    fn departed_vc(h: &Harness) -> usize {
        let credits: Vec<usize> = h
            .emit
            .iter()
            .filter_map(|(_, e)| match e {
                Event::CreditArrive { vc_flat, .. } => Some(usize::from(*vc_flat)),
                _ => None,
            })
            .collect();
        assert_eq!(credits.len(), 1, "one flit per input port per cycle");
        credits[0]
    }

    #[test]
    fn occupied_vcs_bid_in_round_robin_order_and_priority_overrides_it() {
        for priority_on_vc1 in [false, true] {
            let mut h = Harness::new(NocConfig::default().with_vcs_per_vnet(4));
            let mut r = h.router();
            let dest = h.topo.chiplets()[0].routers[6];
            // VCs 1 and 3 of the West port hold a packet each; 0 and 2 and
            // everything past 3 are empty and must not be looked at.
            for (id, vc) in [(PacketId(1), 1), (PacketId(2), 3)] {
                let d = h.intern_as(id, 1, dest);
                let mut ctx = h.ctx(0);
                r.deliver_flit(&mut ctx, Port::West, vc, Flit::new(d, 0, 1));
            }
            assert_eq!(r.occ[Port::West.index()], 0b1010);
            r.rr_in[Port::West.index()] = 2;
            if priority_on_vc1 {
                r.mark_priority(Port::West, 1);
            }
            let mut ctx = h.ctx(1);
            r.step(&mut ctx);
            // From VC 2 on, VC 3 is the first occupied one; the wrap-around
            // reaches VC 1 second — unless its packet holds popup priority.
            assert_eq!(departed_vc(&h), if priority_on_vc1 { 1 } else { 3 });
            assert_eq!(r.rr_in[Port::West.index()], 3, "one win, one advance");
        }
    }

    #[test]
    fn round_robin_pointer_wraps_at_the_vc_count() {
        let mut h = Harness::new(NocConfig::default());
        let mut r = h.router();
        let dest = h.topo.chiplets()[0].routers[6];
        r.rr_in[Port::West.index()] = 2; // last of the 3 VCs of a port
        let d = h.intern(1, dest);
        {
            let mut ctx = h.ctx(0);
            r.deliver_flit(&mut ctx, Port::West, 0, Flit::new(d, 0, 1));
        }
        let mut ctx = h.ctx(1);
        r.step(&mut ctx);
        assert_eq!(departed_vc(&h), 0);
        assert_eq!(r.rr_in[Port::West.index()], 0);
    }

    #[test]
    fn out_of_credit_vc_cannot_win_allocation() {
        let mut h = Harness::new(NocConfig::default());
        let mut r = h.router();
        // The fifth flit has no credit left: no switch traversal.
        park_on_credits(&mut h, &mut r, 0);
        assert_eq!(
            sent(&h),
            4,
            "exactly the downstream buffer depth may be in flight"
        );
        // A credit return unblocks it.
        r.deliver_credit(Port::East, 0, false);
        r.step(&mut h.ctx(7));
        assert_eq!(sent(&h), 5);
    }

    #[test]
    fn vc_63_parks_re_arms_and_routes_up_at_64_vcs_per_port() {
        // Two VNets of 32 VCs fill every port word. VC 63 is VNet 1's last,
        // where a VNet mask built from its end, `(1 << 64) - 1`, overflows.
        let cfg = NocConfig {
            num_vnets: 2,
            ..NocConfig::default().with_vcs_per_vnet(32)
        };
        let mut h = Harness::new(cfg);
        let mut r = h.router();
        let dest = h.topo.chiplets()[0].routers[6];
        let d = h.intern_routed(PacketId(1), VnetId(1), 1, RouteInfo::intra(dest));
        r.deliver_flit(&mut h.ctx(0), Port::West, 63, Flit::new(d, 0, 1));
        // Every East VC of VNet 1 is held: nothing to allocate.
        for f in r.vnet_range(VnetId(1)) {
            r.out_vcs[Port::East.index() * 64 + f].busy = true;
        }
        let west = Port::West.index();
        r.step(&mut h.ctx(1));
        assert!(h.emit.is_empty());
        assert_eq!(r.parked[west], 1 << 63);
        let asked = r.work_counts().vc_requests;
        r.step(&mut h.ctx(2));
        assert_eq!(
            r.work_counts().vc_requests,
            asked,
            "a parked VC is not asked"
        );
        r.deliver_credit(Port::East, 31, true);
        assert_eq!(r.parked[west], 1 << 63, "VNet 0's credit");
        r.set_vc_frozen(Port::West, 63, false);
        assert_eq!(r.parked[west], 0, "a freeze toggle re-arms");
        r.step(&mut h.ctx(3));
        assert_eq!(r.parked[west], 1 << 63, "and it parks again");
        r.deliver_credit(Port::East, 40, true);
        assert_eq!(r.parked[west], 0, "VNet 1's credit");
        r.step(&mut h.ctx(4));
        assert_eq!(departed_vc(&h), 63);
        // The next packet parks behind the VC that one took, and a pop
        // through the bypass latch re-arms it.
        let d = h.intern_routed(PacketId(2), VnetId(1), 1, RouteInfo::intra(dest));
        r.deliver_flit(&mut h.ctx(4), Port::West, 63, Flit::new(d, 0, 1));
        r.step(&mut h.ctx(5));
        assert_eq!(r.parked[west], 1 << 63);
        assert!(r
            .pop_bypass_flit(&mut h.ctx(6), Port::West, 63, Port::East)
            .is_some());
        assert_eq!(r.parked[west], 0, "a new front (here: none) re-arms");

        // The watchdog's test finds an `Up`-routed flit in bit 63 of an
        // interposer router, and only in its own VNet.
        let (ir, above) = h
            .topo
            .interposer_routers()
            .iter()
            .find_map(|&ir| Some((ir, h.topo.above(ir)?)))
            .expect("a boundary interposer router");
        let src = h.topo.chiplets()[3].routers[0];
        let route = h.routing.plan(&h.topo, src, above);
        let d = h.intern_routed(PacketId(3), VnetId(1), 1, route);
        let mut r = Router::new(ir, &h.cfg, &h.topo, 1);
        r.deliver_flit(&mut h.ctx(7), Port::Local, 63, Flit::new(d, 0, 1));
        assert_eq!(r.input_vc(Port::Local, 63).route_out(), Some(Port::Up));
        assert!(r.has_upward_candidate(VnetId(1)));
        assert!(!r.has_upward_candidate(VnetId(0)));
    }

    #[test]
    fn control_messages_win_allocation_over_normal_flits() {
        let mut h = Harness::new(NocConfig::default());
        let mut r = h.router();
        let dest = h.topo.chiplets()[0].routers[6];
        // A normal flit and a control message both want East.
        let d = h.intern(1, dest);
        {
            let mut ctx = h.ctx(0);
            r.deliver_flit(&mut ctx, Port::West, 0, Flit::new(d, 0, 1));
        }
        let msg = ControlMsg {
            class: ControlClass::ReqLike,
            bits: 1,
            vnet: VnetId(0),
            routing: ControlRoute::Forward,
            route: RouteInfo::intra(dest),
            origin: r.node(),
            circuit_key: dest,
            record_circuit: true,
            deliver_to_ni: true,
        };
        r.deliver_control(Port::North, msg, 0);
        {
            let mut ctx = h.ctx(1);
            r.step(&mut ctx);
        }
        // Only the control message may have used East this cycle.
        let flits: Vec<_> = h
            .emit
            .iter()
            .filter(|(_, e)| matches!(e, Event::FlitArrive { .. }))
            .collect();
        let ctrls: Vec<_> = h
            .emit
            .iter()
            .filter(|(_, e)| matches!(e, Event::ControlArrive { .. }))
            .collect();
        assert_eq!(ctrls.len(), 1, "signal goes first");
        assert!(flits.is_empty(), "the normal flit is delayed one cycle");
        // And the circuit was recorded with the observed ports.
        let entry = r.circuit(VnetId(0), dest).expect("req records a circuit");
        assert_eq!(entry.in_port, Port::North);
        assert_eq!(entry.out_port, Port::East);
        if cfg!(debug_assertions) {
            // East, the only output bid for, was claimed: phase 2 had
            // nothing to arbitrate.
            assert_eq!(r.work_counts().sa_outputs_examined, 0);
        }
        r.step(&mut h.ctx(2));
        assert_eq!(sent(&h), 1, "the normal flit takes East a cycle later");
    }

    /// An input port a bypass flit crosses takes no part in that cycle's
    /// switch allocation: its VCs are not asked, and its normal flit waits
    /// a cycle although the output it wants is free.
    #[test]
    fn an_input_claimed_by_a_bypass_flit_does_not_bid() {
        let mut h = Harness::new(NocConfig::default());
        let mut r = h.router();
        let dest = h.topo.chiplets()[0].routers[6];
        let d = h.intern(1, dest);
        r.deliver_flit(&mut h.ctx(0), Port::West, 0, Flit::new(d, 0, 1));
        // An upward flit latched from West, leaving North.
        let up = h.intern_as(PacketId(2), 1, dest);
        r.bypass.push_back(BypassFlit {
            flit: Flit::new(up, 0, 1),
            in_port: Port::West,
            out_port: Port::North,
            arrived: 0,
        });
        r.step(&mut h.ctx(1));
        assert_eq!(h.stats.bypass_hops, 1);
        assert_eq!(sent(&h), 1, "only the bypass flit crossed");
        if cfg!(debug_assertions) {
            assert_eq!(r.work_counts().sa_inputs_examined, 0);
            assert_eq!(r.work_counts().vc_requests, 0);
        }
        r.step(&mut h.ctx(2));
        assert_eq!(sent(&h), 2, "the normal flit goes a cycle later");
    }

    /// Where an absorber takes `Down`'s arrivals, `Down` is no crossbar
    /// input: even a flit in one of its VCs (written before the absorber
    /// was installed; every later arrival is absorbed) is never asked.
    #[test]
    fn an_absorber_routers_down_port_never_bids() {
        let mut h = Harness::new(NocConfig::default());
        // A boundary router of chiplet 0, where remote control installs
        // its absorbers: its `Down` link leads to the interposer.
        let chiplet = &h.topo.chiplets()[0].routers;
        let node = *chiplet
            .iter()
            .find(|&&n| h.topo.neighbor(n, Port::Down).is_some())
            .expect("a boundary router");
        let dest = chiplet[5];
        let mut r = Router::new(node, &h.cfg, &h.topo, 1);
        let d = h.intern(1, dest);
        r.deliver_flit(&mut h.ctx(0), Port::Down, 0, Flit::new(d, 0, 1));
        r.install_absorber(2);
        for now in 1..=3 {
            r.step(&mut h.ctx(now));
        }
        assert!(h.emit.is_empty(), "the Down VC's flit never moved");
        if cfg!(debug_assertions) {
            assert_eq!(r.work_counts().sa_inputs_examined, 0);
            assert_eq!(r.work_counts().vc_requests, 0);
        }
    }

    #[test]
    fn absorber_reserves_accepts_and_frees() {
        let mut a = Absorber::new(2, 5);
        assert_eq!(a.free_slots(), 2);
        assert!(a.reserve(PacketId(7)));
        assert!(a.reserve(PacketId(8)));
        assert!(!a.reserve(PacketId(9)), "no free slots left");
        assert_eq!(a.free_slots(), 0);
        let f = Flit::new(PacketRef(0), 0, 1);
        a.accept(f, PacketId(7), 0, Port::East);
        assert_eq!(a.free_slots(), 0, "occupied, not just reserved");
        assert_eq!(
            a.slots
                .iter()
                .filter(|s| s.packet == Some(PacketId(7)))
                .count(),
            1
        );
    }

    #[test]
    fn a_head_behind_a_failed_link_waits_unparked_and_bids_after_the_heal() {
        let mut h = Harness::new(NocConfig::default());
        let mut r = h.router();
        let node = r.node();
        let dest = h.topo.chiplets()[0].routers[6];
        let d = h.intern(1, dest);
        r.deliver_flit(&mut h.ctx(0), Port::West, 0, Flit::new(d, 0, 1));
        h.topo.set_link_faulty(node, Port::East);
        r.sync_links(&h.topo);
        for now in 1..=3 {
            r.step(&mut h.ctx(now));
            assert!(h.emit.is_empty(), "nothing crosses a failed link");
            assert_eq!(
                r.vc_words(Port::West).parked,
                0,
                "no credit announces a heal, so a VC behind a failed link waits"
            );
        }
        h.topo.clear_link_fault(node, Port::East);
        r.sync_links(&h.topo);
        r.step(&mut h.ctx(4));
        assert_eq!(
            departed_vc(&h),
            0,
            "it bids in the first step after the heal"
        );
    }

    #[test]
    fn a_link_fault_re_arms_a_vc_parked_on_credits_and_charges_nothing_while_down() {
        let mut h = Harness::new(NocConfig::default());
        h.tracer
            .set_profiler(Some(Box::new(crate::profile::SpanRecorder::new())));
        let mut r = h.router();
        let node = r.node();
        park_on_credits(&mut h, &mut r, 0);
        h.topo.set_link_faulty(node, Port::East);
        r.sync_links(&h.topo);
        assert_eq!(r.vc_words(Port::West).parked, 0, "the fault re-arms it");
        for now in 7..=20 {
            r.step(&mut h.ctx(now));
            assert_eq!(r.vc_words(Port::West).parked, 0, "it waits on the link");
        }
        let profile = h.tracer.set_profiler(None).expect("armed");
        assert_eq!(
            profile.router_blocked()[node.index()],
            2,
            "cycles 5 and 6 are blocked on credits, the dead link's none"
        );
    }

    #[test]
    fn a_priority_bid_that_ends_the_scan_leaves_a_later_parked_vc_uncharged() {
        let mut h = Harness::new(NocConfig::default());
        h.tracer = Tracer::ring(64);
        let mut r = h.router();
        // West VC 2 parks (its four wins turn the round robin to VC 1).
        park_on_credits(&mut h, &mut r, 2);
        // A popup's packet on West VC 1 bids with priority in cycle 7, and
        // the scan of the port ends there, before VC 2.
        let north = h.topo.chiplets()[0].routers[9];
        let popped = h.intern_routed(PacketId(1), VnetId(1), 1, RouteInfo::intra(north));
        r.deliver_flit(&mut h.ctx(6), Port::West, 1, Flit::new(popped, 0, 1));
        r.mark_priority(Port::West, 1);
        r.step(&mut h.ctx(7));
        r.deliver_credit(Port::East, 2, false);
        r.step(&mut h.ctx(8));
        let spans: Vec<_> = (h.tracer.events())
            .filter_map(|e| match *e {
                TraceEvent::BlockedSpan { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(spans, [(6, 7)], "cycle 7 is not charged");
    }

    #[test]
    fn a_build_time_fault_leaves_both_ends_dead() {
        let mut h = Harness::new(NocConfig::default());
        let node = h.topo.chiplets()[0].routers[5];
        let east = h.topo.neighbor(node, Port::East).unwrap();
        h.topo.set_link_faulty(node, Port::East);
        let (r, peer) = (
            Router::new(node, &h.cfg, &h.topo, 1),
            Router::new(east, &h.cfg, &h.topo, 1),
        );
        assert!(r.has_link(Port::East) && peer.has_link(Port::West));
        assert!(!r.is_live(Port::East) && !peer.is_live(Port::West));
        assert!(r.is_live(Port::West) && r.is_live(Port::Local));
        r.assert_words_match_state(&h.topo);
        peer.assert_words_match_state(&h.topo);
    }

    #[test]
    fn up_route_and_priority_bits_leave_with_the_tail_on_both_paths() {
        // VC 63 of 2 x 32, where a word's last bit is.
        let cfg = NocConfig {
            num_vnets: 2,
            ..NocConfig::default().with_vcs_per_vnet(32)
        };
        let mut h = Harness::new(cfg);
        let (ir, above) = h
            .topo
            .interposer_routers()
            .iter()
            .find_map(|&ir| Some((ir, h.topo.above(ir)?)))
            .expect("a boundary interposer router");
        let src = h.topo.chiplets()[3].routers[0];
        let route = h.routing.plan(&h.topo, src, above);
        let mut r = Router::new(ir, &h.cfg, &h.topo, 1);
        let bit = 1 << 63;
        for (id, now) in [(1, 0), (2, 10)] {
            let d = h.intern_routed(PacketId(id), VnetId(1), 2, route);
            r.deliver_flit(&mut h.ctx(now), Port::Local, 63, Flit::new(d, 0, 2));
            r.deliver_flit(&mut h.ctx(now), Port::Local, 63, Flit::new(d, 1, 2));
            r.mark_priority(Port::Local, 63);
            let words = r.vc_words(Port::Local);
            assert_eq!((words.up, words.prio), (bit, bit));
            if id == 1 {
                // Switch allocation: head, then tail.
                for at in now + 1..now + 3 {
                    r.step(&mut h.ctx(at));
                }
            } else {
                // The bypass latch, as a popup takes it.
                for at in now + 1..now + 3 {
                    assert!(r
                        .pop_bypass_flit(&mut h.ctx(at), Port::Local, 63, Port::Up)
                        .is_some());
                }
            }
            assert!(
                r.input_vc(Port::Local, 63).owner().is_none(),
                "the tail left"
            );
            assert_eq!(r.vc_words(Port::Local), VcWords::default());
            r.assert_words_match_state(&h.topo);
        }
    }

    /// One input VC's worm in the occupancy property test: the packet and
    /// how many of its flits have been delivered so far.
    #[derive(Clone, Copy)]
    struct Worm {
        desc: PacketRef,
        delivered: u16,
    }

    const WORM_FLITS: u16 = 3;

    proptest::proptest! {
        /// Whatever mix of buffer writes, switch-allocation commits, popup
        /// rejoins and bypass pops a router sees, every occupancy bit equals
        /// "this VC's ring is non-empty", and no parked VC could bid in the
        /// next cycle — after every single operation, and in release builds
        /// too (where `step` checks nothing itself).
        #[test]
        fn occupancy_words_track_buffer_emptiness(
            ops in proptest::collection::vec((0u8..4, 0usize..5, 0usize..12), 1..300),
        ) {
            let mut h = Harness::new(NocConfig::default().with_vcs_per_vnet(4));
            let mut r = h.router();
            // Every packet heads East, so the whole port x VC space contends
            // for one output and most VCs stay blocked-but-occupied.
            let dest = h.topo.chiplets()[0].routers[6];
            let ports = [Port::Local, Port::North, Port::East, Port::South, Port::West];
            let mut worms: BTreeMap<(Port, usize), Worm> = BTreeMap::new();
            let mut next_id = 0u64;
            for (now, (kind, pi, f)) in (1u64..).zip(ops) {
                let p = ports[pi];
                if r.input_vc(p, f).owner().is_none() {
                    worms.remove(&(p, f));
                }
                let room = r.vc_buf_len(p, f) < r.bufs.capacity();
                match kind {
                    // Buffer write: the next flit of this VC's worm, or the
                    // head of a new one when the VC is free.
                    0 => {
                        let w = *worms.entry((p, f)).or_insert_with(|| {
                            next_id += 1;
                            let desc = h.arena.alloc(PacketDesc {
                                id: PacketId(next_id),
                                src: NodeId(0),
                                vnet: VnetId((f / 4) as u8),
                                pkt_len: WORM_FLITS,
                                route: RouteInfo::intra(dest),
                                created_at: 0,
                                injected_at: PacketDesc::NOT_INJECTED,
                            });
                            Worm { desc, delivered: 0 }
                        });
                        if room && w.delivered < WORM_FLITS {
                            let flit = Flit::new(w.desc, w.delivered, WORM_FLITS);
                            r.deliver_flit(&mut h.ctx(now), p, f, flit);
                            worms.get_mut(&(p, f)).expect("just inserted").delivered += 1;
                        }
                    }
                    // A full step; every departed flit's credit comes back.
                    1 => {
                        h.emit.clear();
                        r.step(&mut h.ctx(now));
                        for (_, e) in &h.emit {
                            if let Event::FlitArrive { vc_flat, flit, .. } = e {
                                if !flit.upward {
                                    r.deliver_credit(Port::East, usize::from(*vc_flat), flit.kind.is_tail());
                                }
                            }
                        }
                    }
                    // Popup rejoin: an upward flit of a worm still buffered
                    // here is appended behind it.
                    2 => {
                        if let Some(w) = worms.get_mut(&(p, f)) {
                            if room && !r.vc_buf_is_empty(p, f) && w.delivered < WORM_FLITS {
                                let mut flit = Flit::new(w.desc, w.delivered, WORM_FLITS);
                                flit.upward = true;
                                r.deliver_flit(&mut h.ctx(now), Port::Down, 0, flit);
                                w.delivered += 1;
                            }
                        }
                    }
                    // Popup: the VC is frozen, as UPP does, and its
                    // head-of-buffer flit leaves through the bypass latch
                    // (a no-op on an empty VC).
                    _ => {
                        let out_vc = r.input_vc(p, f).out_vc();
                        if !r.vc_buf_is_empty(p, f) {
                            r.set_vc_frozen(p, f, true);
                        }
                        let popped = r.pop_bypass_flit(&mut h.ctx(now), p, f, Port::East);
                        if let (Some(flit), Some(ovc)) = (popped, out_vc) {
                            if flit.kind.is_tail() {
                                // Downstream would free the VC on this tail.
                                r.deliver_credit(Port::East, ovc, true);
                            }
                        }
                    }
                }
                r.assert_words_match_state(&h.topo);
                r.assert_parked_vcs(&h.ctx(now + 1), true);
            }
        }
    }

    #[test]
    fn vnet_ranges_partition_the_flat_vc_space() {
        let h = Harness::new(NocConfig::default().with_vcs_per_vnet(4));
        let r = Router::new(h.topo.chiplets()[0].routers[5], &h.cfg, &h.topo, 1);
        assert_eq!(r.num_vnets(), 3);
        let mut covered = vec![false; 12];
        for v in 0..3u8 {
            for f in r.vnet_range(VnetId(v)) {
                assert!(!covered[f], "flat VC {f} claimed twice");
                covered[f] = true;
            }
        }
        assert!(covered.into_iter().all(|c| c));
    }
}
