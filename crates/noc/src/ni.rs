//! Network interface (NI): injection and ejection queues, the PE-facing
//! message API, and the ejection-entry reservation mechanism UPP's protocol
//! uses (Sec. V-B).

use crate::config::NocConfig;
use crate::control::DeliveredControl;
use crate::ids::{Cycle, NodeId, PacketId, VnetId};
use crate::packet::{Flit, Packet, PacketArena, PacketRef};
use crate::ring::RingBank;
use serde::Serialize;

/// Injection-permit state of a pending packet (mechanism for remote
/// control's injection control; `NotNeeded` for every other scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PermitState {
    /// The packet may inject freely.
    NotNeeded,
    /// The packet must wait for a boundary-buffer reservation grant.
    Waiting,
    /// Reservation granted; the packet may inject.
    Granted,
}

/// A packet waiting in an NI injection queue: the handle of its arena
/// descriptor plus the two fields injection reads (the id, for permits, and
/// the length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PendingPacket {
    /// Arena handle of the packet's interned descriptor.
    pub desc: PacketRef,
    /// The packet's id.
    pub id: PacketId,
    /// Length in flits.
    pub len_flits: u16,
    /// Injection-control state.
    pub permit: PermitState,
}

/// A packet currently being streamed into the router, one flit per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ActiveInjection {
    desc: PacketRef,
    len_flits: u16,
    vc_flat: usize,
    next_seq: u16,
}

/// Per-output-VC state mirrored at the sender (credits + ownership), used by
/// both NIs (toward the router's Local input VCs) and routers (toward
/// downstream input VCs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct OutVcState {
    /// Free buffer slots at the downstream VC.
    pub credits: usize,
    /// True while a packet owns the downstream VC (head sent, tail not yet
    /// drained downstream).
    pub busy: bool,
}

impl OutVcState {
    /// Fresh state with `depth` credits.
    pub fn new(depth: usize) -> Self {
        Self {
            credits: depth,
            busy: false,
        }
    }
}

/// A fully-assembled packet awaiting PE consumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Delivered {
    /// Packet identity and metadata.
    pub pkt: Packet,
    /// Cycle the tail flit arrived.
    pub completed_at: Cycle,
    /// True if the packet arrived (at least partly) as popped-up upward
    /// flits.
    pub via_popup: bool,
}

/// How the PE consumes delivered packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ConsumePolicy {
    /// Consume every delivered packet `latency` cycles after completion
    /// (synthetic traffic; messages are always terminating).
    Immediate {
        /// Cycles between completion and consumption.
        latency: u64,
    },
    /// The workload pops delivered packets explicitly via
    /// [`Ni::pop_delivered`] and frees entries itself (coherence engine,
    /// which implements the request-consumption rule of Sec. V-B4).
    External,
}

/// In-progress reassembly of one packet, keyed by its descriptor handle in
/// the NI's bounded assembly table (at most one per claimed ejection entry).
#[derive(Debug, Clone, Copy)]
struct Assembly {
    desc: PacketRef,
    received: u16,
    via_popup: bool,
}

/// One network interface.
///
/// An NI owns per-VNet injection queues of whole packets and per-VNet
/// ejection queues of `ejection_queue_entries` packet-sized entries; entries
/// are claimed when the router allocates the Local output VC (or when UPP
/// pops a packet up) and released when the PE consumes the packet.
pub struct Ni {
    node: NodeId,
    num_vnets: usize,
    eq_capacity: usize,
    inj_capacity: usize,
    inj_queues: RingBank<PendingPacket>,
    active: Vec<Option<ActiveInjection>>,
    /// Queued packets plus in-flight injections across all VNets; lets
    /// `inject_step` skip the VNet scan entirely on idle NIs.
    backlog: usize,
    /// Credits/ownership toward the router's Local input VCs, flat-indexed.
    out_vcs: Vec<OutVcState>,
    rr_vnet: usize,
    /// Bounded reassembly table (each entry holds a claimed ejection entry,
    /// so occupancy never exceeds `num_vnets * eq_capacity`); linear scans
    /// over a handful of entries beat hashing here.
    assembly: Vec<Assembly>,
    delivered: RingBank<Delivered>,
    in_use: Vec<usize>,
    upp_reserved: Vec<usize>,
    consume: ConsumePolicy,
    control_inbox: Vec<DeliveredControl>,
    /// Dynamic-fault throttle: while set, `inject_step` emits nothing
    /// (queued packets stay queued).
    injection_paused: bool,
    /// Dynamic-fault throttle: while set, the Immediate consumption policy
    /// stops draining delivered packets (External workloads poll
    /// [`Ni::consumption_paused`] themselves).
    consumption_paused: bool,
}

impl std::fmt::Debug for Ni {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ni")
            .field("node", &self.node)
            .field("in_use", &self.in_use)
            .field("upp_reserved", &self.upp_reserved)
            .finish_non_exhaustive()
    }
}

impl Ni {
    /// Builds the NI for `node`.
    pub fn new(node: NodeId, cfg: &NocConfig, consume: ConsumePolicy) -> Self {
        let vcs = cfg.vcs_per_port();
        // Never-read ring fills.
        let pending_fill = PendingPacket {
            desc: PacketRef(u32::MAX),
            id: PacketId(u64::MAX),
            len_flits: 1,
            permit: PermitState::NotNeeded,
        };
        let delivered_fill = Delivered {
            pkt: Packet::new(PacketId(u64::MAX), node, node, VnetId(0), 1, 0),
            completed_at: 0,
            via_popup: false,
        };
        Self {
            node,
            num_vnets: cfg.num_vnets,
            eq_capacity: cfg.ejection_queue_entries,
            inj_capacity: cfg.injection_queue_entries,
            inj_queues: RingBank::new(cfg.num_vnets, cfg.injection_queue_entries, pending_fill),
            active: vec![None; cfg.num_vnets],
            backlog: 0,
            out_vcs: vec![OutVcState::new(cfg.vc_buffer_depth); vcs],
            rr_vnet: 0,
            assembly: Vec::with_capacity(cfg.num_vnets * cfg.ejection_queue_entries),
            delivered: RingBank::new(cfg.num_vnets, cfg.ejection_queue_entries, delivered_fill),
            in_use: vec![0; cfg.num_vnets],
            upp_reserved: vec![0; cfg.num_vnets],
            consume,
            control_inbox: Vec::new(),
            injection_paused: false,
            consumption_paused: false,
        }
    }

    /// The node this NI is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Pauses or resumes injection (dynamic-fault endpoint throttling).
    pub fn set_injection_paused(&mut self, paused: bool) {
        self.injection_paused = paused;
    }

    /// True while injection is paused.
    pub fn injection_paused(&self) -> bool {
        self.injection_paused
    }

    /// Pauses or resumes PE consumption (dynamic-fault endpoint throttling).
    pub fn set_consumption_paused(&mut self, paused: bool) {
        self.consumption_paused = paused;
    }

    /// True while consumption is paused. External-consumption workloads must
    /// check this themselves before popping delivered packets.
    pub fn consumption_paused(&self) -> bool {
        self.consumption_paused
    }

    // ---------------------------------------------------------------- inject

    /// True if the per-VNet injection queue can take another packet.
    pub fn can_enqueue(&self, vnet: VnetId) -> bool {
        self.inj_queues.len(vnet.index()) < self.inj_capacity
    }

    /// Enqueues packet `id` of `len_flits` flits on VNet `vnet` for
    /// injection. `desc` is its interned descriptor handle (the caller
    /// allocates it in the arena first). Returns false, queueing nothing,
    /// when the queue is full.
    pub fn enqueue(&mut self, desc: PacketRef, id: PacketId, vnet: VnetId, len_flits: u16) -> bool {
        let pending = PendingPacket {
            desc,
            id,
            len_flits,
            permit: PermitState::NotNeeded,
        };
        let queued = self.inj_queues.push_back(vnet.index(), pending).is_ok();
        self.backlog += usize::from(queued);
        queued
    }

    /// Sets the permit state of a specific pending packet.
    pub fn set_permit(&mut self, id: PacketId, state: PermitState) -> bool {
        for q in 0..self.num_vnets {
            for i in 0..self.inj_queues.len(q) {
                let p = self.inj_queues.get_mut(q, i).expect("index in range");
                if p.id == id {
                    p.permit = state;
                    return true;
                }
            }
        }
        false
    }

    /// Picks the flit (if any) this NI sends into the router this cycle.
    ///
    /// At most one flit per cycle leaves the NI. Returns the flit and the
    /// flat Local-input VC it travels on. The caller (the network) turns it
    /// into a staged link event and, for a head flit, stamps the injection
    /// cycle into the packet's arena descriptor.
    pub fn inject_step(
        &mut self,
        _now: Cycle,
        vcs_per_vnet: usize,
        vct: bool,
    ) -> Option<(Flit, usize)> {
        if self.backlog == 0 || self.injection_paused {
            return None;
        }
        // Round-robin across VNets: continue an active injection or start a
        // new one. `rr_vnet` stays below `num_vnets`, so the walk wraps with
        // a compare instead of a division per VNet per cycle.
        let mut next = self.rr_vnet;
        for _ in 0..self.num_vnets {
            let v = next;
            next = if v + 1 == self.num_vnets { 0 } else { v + 1 };
            let Some(vcf) = self.sendable_vc(v, vcs_per_vnet, vct) else {
                continue;
            };
            self.rr_vnet = next;
            self.out_vcs[vcf].credits -= 1;
            if let Some(act) = &mut self.active[v] {
                let flit = Flit::new(act.desc, act.next_seq, act.len_flits);
                act.next_seq += 1;
                if flit.kind.is_tail() {
                    self.active[v] = None;
                    self.backlog -= 1;
                }
                return Some((flit, vcf));
            }
            let pending = self.inj_queues.pop_front(v).expect("checked non-empty");
            self.out_vcs[vcf].busy = true;
            let flit = Flit::new(pending.desc, 0, pending.len_flits);
            if pending.len_flits > 1 {
                self.active[v] = Some(ActiveInjection {
                    desc: pending.desc,
                    len_flits: pending.len_flits,
                    vc_flat: vcf,
                    next_seq: 1,
                });
            } else {
                self.backlog -= 1;
            }
            return Some((flit, vcf));
        }
        None
    }

    /// The Local-input VC on which VNet `v` can send a flit this cycle, if
    /// it can: its active injection's VC while that has a credit, or else a
    /// free VC with room for its head-of-queue packet (virtual cut-through
    /// needs room for the whole packet) unless that packet awaits a permit.
    fn sendable_vc(&self, v: usize, vcs_per_vnet: usize, vct: bool) -> Option<usize> {
        if let Some(act) = &self.active[v] {
            return (self.out_vcs[act.vc_flat].credits > 0).then_some(act.vc_flat);
        }
        let head = self.inj_queues.front(v)?;
        if head.permit == PermitState::Waiting {
            return None;
        }
        let need = if vct { head.len_flits as usize } else { 1 };
        let base = v * vcs_per_vnet;
        (base..base + vcs_per_vnet)
            .find(|&f| !self.out_vcs[f].busy && self.out_vcs[f].credits >= need)
    }

    /// Credit return from the router's Local input VC.
    pub fn on_credit(&mut self, vc_flat: usize, is_free: bool) {
        self.out_vcs[vc_flat].credits += 1;
        if is_free {
            self.out_vcs[vc_flat].busy = false;
        }
    }

    // ----------------------------------------------------------------- eject

    /// Free (unclaimed, unreserved) ejection entries of a VNet.
    pub fn free_entries(&self, vnet: VnetId) -> usize {
        self.eq_capacity
            .saturating_sub(self.in_use[vnet.index()] + self.upp_reserved[vnet.index()])
    }

    /// Claims an ejection entry for a packet about to stream in through the
    /// router's Local output VC.
    ///
    /// # Panics
    ///
    /// Panics if no entry is free — the router must check
    /// [`Ni::free_entries`] before allocating the Local output VC.
    pub fn claim_entry(&mut self, vnet: VnetId) {
        assert!(
            self.free_entries(vnet) > 0,
            "ejection entry claimed without availability"
        );
        self.in_use[vnet.index()] += 1;
    }

    /// Reserves one ejection entry for an incoming popped-up packet
    /// (UPP_req handling). Returns false when no entry is currently free;
    /// the protocol retries until it succeeds (Sec. V-B4 proves it
    /// eventually does).
    pub fn try_reserve_entry(&mut self, vnet: VnetId) -> bool {
        if self.free_entries(vnet) == 0 {
            return false;
        }
        self.upp_reserved[vnet.index()] += 1;
        true
    }

    /// Releases a reservation (UPP_stop handling).
    ///
    /// # Panics
    ///
    /// Panics if no reservation is outstanding for `vnet`.
    pub fn release_reservation(&mut self, vnet: VnetId) {
        assert!(
            self.upp_reserved[vnet.index()] > 0,
            "releasing a reservation that was never made"
        );
        self.upp_reserved[vnet.index()] -= 1;
    }

    /// Outstanding UPP reservations for a VNet.
    pub fn reservations(&self, vnet: VnetId) -> usize {
        self.upp_reserved[vnet.index()]
    }

    /// Accepts a flit delivered through the router's Local output port.
    ///
    /// `via_popup` marks upward (bypassed) flits: the head of a popped-up
    /// packet converts an UPP reservation into a claimed entry.
    ///
    /// Returns the completed packet when this was the tail flit.
    pub fn accept_flit(
        &mut self,
        flit: Flit,
        now: Cycle,
        via_popup: bool,
        arena: &PacketArena,
    ) -> Option<Delivered> {
        let desc = *arena.desc(&flit);
        let v = desc.vnet.index();
        if flit.kind.is_head() {
            if via_popup {
                // Convert the reservation made by UPP_req into a claim.
                assert!(
                    self.upp_reserved[v] > 0,
                    "upward packet arrived without an ejection reservation at {}",
                    self.node
                );
                self.upp_reserved[v] -= 1;
                self.in_use[v] += 1;
            }
            debug_assert!(
                self.in_use[v] <= self.eq_capacity,
                "ejection over-subscription at {}",
                self.node
            );
            debug_assert!(
                !self.assembly.iter().any(|a| a.desc == flit.desc),
                "duplicate head flit for {}",
                desc.id
            );
            self.assembly.push(Assembly {
                desc: flit.desc,
                received: 0,
                via_popup,
            });
        }
        let ix = self
            .assembly
            .iter()
            .position(|a| a.desc == flit.desc)
            .unwrap_or_else(|| panic!("flit of unknown packet {} at NI {}", desc.id, self.node));
        let asm = &mut self.assembly[ix];
        debug_assert_eq!(
            asm.received, flit.seq,
            "out-of-order flit at NI {}",
            self.node
        );
        asm.received += 1;
        asm.via_popup |= via_popup;
        if flit.kind.is_tail() {
            let asm = self.assembly.swap_remove(ix);
            let len = flit.seq + 1;
            debug_assert_eq!(desc.pkt_len, len, "tail seq disagrees with descriptor");
            let pkt = Packet::new(
                desc.id,
                desc.src,
                desc.route.dest,
                desc.vnet,
                len,
                desc.created_at,
            );
            let d = Delivered {
                pkt,
                completed_at: now,
                via_popup: asm.via_popup,
            };
            if self.delivered.push_back(v, d).is_err() {
                panic!(
                    "delivered queue overflow at NI {} vnet {v} (more packets than ejection entries)",
                    self.node
                );
            }
            return Some(d);
        }
        None
    }

    /// PE-side: pops the oldest delivered packet of a VNet and frees its
    /// ejection entry (External consumption policy).
    pub fn pop_delivered(&mut self, vnet: VnetId) -> Option<Delivered> {
        let d = self.delivered.pop_front(vnet.index())?;
        self.in_use[vnet.index()] -= 1;
        Some(d)
    }

    /// The cycle from which the Immediate policy consumes a packet completed
    /// at `completed_at`; `None` under External, where the workload does.
    pub(crate) fn consumed_from(&self, completed_at: Cycle) -> Option<Cycle> {
        match self.consume {
            ConsumePolicy::Immediate { latency } => Some(completed_at + latency),
            ConsumePolicy::External => None,
        }
    }

    /// Whether the Immediate policy consumes VNet `v`'s oldest delivered
    /// packet in cycle `now` (pauses aside).
    fn front_due(&self, v: usize, now: Cycle) -> bool {
        self.delivered
            .front(v)
            .and_then(|d| self.consumed_from(d.completed_at))
            .is_some_and(|at| at <= now)
    }

    /// Runs the Immediate consumption policy; External is a no-op. Returns
    /// true when it consumed a packet, freeing an ejection entry.
    pub fn consume_step(&mut self, now: Cycle) -> bool {
        if self.consumption_paused || !self.delivered.any_nonempty() {
            return false;
        }
        let mut consumed = false;
        for v in 0..self.num_vnets {
            while self.front_due(v, now) {
                self.delivered.pop_front(v);
                self.in_use[v] -= 1;
                consumed = true;
            }
        }
        consumed
    }

    // --------------------------------------------------------------- control

    /// Delivers a control message to this NI's inbox. Crate-private along
    /// with the drain below: [`crate::network::Network`] counts what sits
    /// in the inboxes, so both ends go through it.
    pub(crate) fn deliver_control(&mut self, msg: DeliveredControl) {
        self.control_inbox.push(msg);
    }

    /// Drains the control inbox into `out` (called by the scheme each
    /// cycle), reusing both buffers' capacity (no per-call allocation).
    pub(crate) fn drain_control_inbox_into(&mut self, out: &mut Vec<DeliveredControl>) {
        out.append(&mut self.control_inbox);
    }

    /// True while this NI holds anything: an unpaused injection backlog, an
    /// Immediate-consumable delivered queue, or an unread control-inbox
    /// entry.
    ///
    /// This is the scheduler's *level* predicate, as for routers (see
    /// [`crate::router::Router::has_pending_work`]): it keeps the NI on the
    /// schedule, not in every cycle's loops. A backlog blocked on credits or
    /// a permit, and delivered packets not yet due, sleep there until a
    /// credit, a permit, a new packet, a resume or the consumption timer
    /// wakes the NI ([`Ni::can_progress`] is the reference).
    pub fn has_pending_work(&self) -> bool {
        (self.backlog > 0 && !self.injection_paused)
            || !self.control_inbox.is_empty()
            || (!self.consumption_paused
                && matches!(self.consume, ConsumePolicy::Immediate { .. })
                && self.delivered.any_nonempty())
    }

    /// Whether a step in cycle `now` could move anything — the read-only
    /// reference the scheduler's NI skip is checked against in debug builds,
    /// like [`crate::router::Router::can_progress`]: `inject_step` would send
    /// a flit, or `consume_step` would consume a packet. Exact.
    pub(crate) fn can_progress(&self, now: Cycle, vcs_per_vnet: usize, vct: bool) -> bool {
        let injects = self.backlog > 0
            && !self.injection_paused
            && (0..self.num_vnets).any(|v| self.sendable_vc(v, vcs_per_vnet, vct).is_some());
        let consumes =
            !self.consumption_paused && (0..self.num_vnets).any(|v| self.front_due(v, now));
        injects || consumes
    }

    /// Exact heap bytes of this NI's steady-state storage (injection and
    /// delivered rings, VC credit mirrors, assembly table at capacity,
    /// per-VNet counters).
    pub fn mem_bytes(&self) -> usize {
        self.inj_queues.mem_bytes()
            + self.delivered.mem_bytes()
            + self.out_vcs.len() * std::mem::size_of::<OutVcState>()
            + self.active.len() * std::mem::size_of::<Option<ActiveInjection>>()
            + self.assembly.capacity() * std::mem::size_of::<Assembly>()
            + (self.in_use.len() + self.upp_reserved.len()) * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, PacketId, VnetId};
    use crate::packet::{PacketDesc, RouteInfo};

    fn cfg() -> NocConfig {
        NocConfig::default()
    }

    fn ni() -> Ni {
        Ni::new(NodeId(0), &cfg(), ConsumePolicy::External)
    }

    /// Interns packet `id` from node 2 to node 0.
    fn intern(arena: &mut PacketArena, id: u64, vnet: u8, len: u16) -> PacketRef {
        arena.alloc(PacketDesc {
            id: PacketId(id),
            src: NodeId(2),
            vnet: VnetId(vnet),
            pkt_len: len,
            route: RouteInfo::intra(NodeId(0)),
            created_at: 0,
            injected_at: PacketDesc::NOT_INJECTED,
        })
    }

    fn enqueue(n: &mut Ni, arena: &mut PacketArena, id: u64, vnet: u8, len: u16) {
        let d = intern(arena, id, vnet, len);
        assert!(n.enqueue(d, PacketId(id), VnetId(vnet), len));
    }

    fn deliver(
        ni: &mut Ni,
        arena: &mut PacketArena,
        id: u64,
        vnet: u8,
        len: u16,
        popup: bool,
    ) -> Option<Delivered> {
        let d = intern(arena, id, vnet, len);
        let mut out = None;
        for seq in 0..len {
            let f = Flit::new(d, seq, len);
            out = ni.accept_flit(f, 10 + seq as u64, popup, arena);
        }
        out
    }

    #[test]
    fn injection_streams_one_flit_per_cycle() {
        let mut n = ni();
        let mut arena = PacketArena::new();
        enqueue(&mut n, &mut arena, 1, 0, 3);
        let (f0, vc0) = n.inject_step(0, 1, false).unwrap();
        assert_eq!(f0.seq, 0);
        let (f1, vc1) = n.inject_step(1, 1, false).unwrap();
        let (f2, _) = n.inject_step(2, 1, false).unwrap();
        assert_eq!((f1.seq, f2.seq), (1, 2));
        assert_eq!(vc0, vc1);
        assert!(f2.kind.is_tail());
        assert!(n.inject_step(3, 1, false).is_none(), "queue drained");
    }

    #[test]
    fn injection_respects_credits_and_busy() {
        let mut n = ni();
        let mut arena = PacketArena::new();
        enqueue(&mut n, &mut arena, 1, 0, 5);
        // Drain all 4 credits of the single VC.
        for _ in 0..4 {
            assert!(n.inject_step(0, 1, false).is_some());
        }
        assert!(n.inject_step(0, 1, false).is_none(), "out of credits");
        n.on_credit(0, false);
        assert!(n.inject_step(1, 1, false).is_some());
        // VC stays busy for a second packet of the same VNet until freed.
        enqueue(&mut n, &mut arena, 2, 0, 1);
        assert!(
            n.inject_step(2, 1, false).is_none(),
            "tail sent but VC not yet freed"
        );
        n.on_credit(0, true);
        for _ in 0..4 {
            n.on_credit(0, false);
        }
        let (f, _) = n.inject_step(3, 1, false).unwrap();
        assert_eq!(arena.desc(&f).id, PacketId(2));
    }

    #[test]
    fn waiting_permit_blocks_injection() {
        let mut n = ni();
        let mut arena = PacketArena::new();
        enqueue(&mut n, &mut arena, 7, 1, 1);
        assert!(n.set_permit(PacketId(7), PermitState::Waiting));
        assert!(n.inject_step(0, 1, false).is_none());
        assert!(n.set_permit(PacketId(7), PermitState::Granted));
        assert!(n.inject_step(1, 1, false).is_some());
        assert!(
            !n.set_permit(PacketId(7), PermitState::Granted),
            "no longer pending"
        );
    }

    #[test]
    fn round_robin_across_vnets() {
        let mut n = ni();
        let mut arena = PacketArena::new();
        for v in 0..3u8 {
            enqueue(&mut n, &mut arena, v as u64, v, 2);
        }
        let mut seen = Vec::new();
        for c in 0..6 {
            let (f, _) = n.inject_step(c, 1, false).unwrap();
            seen.push(arena.desc(&f).vnet.0);
        }
        // All three VNets interleave.
        assert_eq!(seen.iter().filter(|&&v| v == 0).count(), 2);
        assert_eq!(seen.iter().filter(|&&v| v == 1).count(), 2);
        assert_eq!(seen.iter().filter(|&&v| v == 2).count(), 2);
    }

    #[test]
    fn ejection_assembles_and_pops() {
        let mut n = ni();
        let mut arena = PacketArena::new();
        n.claim_entry(VnetId(0));
        let d = deliver(&mut n, &mut arena, 5, 0, 4, false).expect("tail completes");
        assert_eq!(d.pkt.len_flits, 4);
        assert!(!d.via_popup);
        assert_eq!(n.free_entries(VnetId(0)), 3);
        let popped = n.pop_delivered(VnetId(0)).unwrap();
        assert_eq!(popped.pkt.id, PacketId(5));
        assert_eq!(n.free_entries(VnetId(0)), 4);
    }

    #[test]
    fn reservation_lifecycle() {
        let mut n = ni();
        assert_eq!(n.free_entries(VnetId(1)), 4);
        assert!(n.try_reserve_entry(VnetId(1)));
        assert_eq!(n.free_entries(VnetId(1)), 3);
        assert_eq!(n.reservations(VnetId(1)), 1);
        n.release_reservation(VnetId(1));
        assert_eq!(n.free_entries(VnetId(1)), 4);
    }

    #[test]
    fn reservation_fails_when_full() {
        let mut n = ni();
        for _ in 0..4 {
            n.claim_entry(VnetId(0));
        }
        assert!(!n.try_reserve_entry(VnetId(0)));
    }

    #[test]
    fn popup_head_consumes_reservation() {
        let mut n = ni();
        let mut arena = PacketArena::new();
        assert!(n.try_reserve_entry(VnetId(2)));
        let d = deliver(&mut n, &mut arena, 9, 2, 5, true).unwrap();
        assert!(d.via_popup);
        assert_eq!(n.reservations(VnetId(2)), 0);
        assert_eq!(
            n.free_entries(VnetId(2)),
            3,
            "entry now claimed, not reserved"
        );
    }

    #[test]
    fn immediate_policy_consumes_after_latency() {
        let mut n = Ni::new(NodeId(0), &cfg(), ConsumePolicy::Immediate { latency: 2 });
        let mut arena = PacketArena::new();
        n.claim_entry(VnetId(0));
        deliver(&mut n, &mut arena, 1, 0, 1, false).unwrap();
        n.consume_step(10); // completed at 10
        assert_eq!(n.free_entries(VnetId(0)), 3);
        n.consume_step(12);
        assert_eq!(n.free_entries(VnetId(0)), 4);
    }

    #[test]
    fn enqueue_into_a_full_queue_is_refused() {
        let mut n = ni();
        let mut arena = PacketArena::new();
        for i in 0..16 {
            enqueue(&mut n, &mut arena, i, 0, 1);
        }
        assert!(!n.can_enqueue(VnetId(0)));
        let d = intern(&mut arena, 99, 0, 1);
        assert!(!n.enqueue(d, PacketId(99), VnetId(0), 1));
        assert!(n.mem_bytes() > 0);
    }

    #[test]
    fn control_inbox_drains() {
        use crate::control::{ControlClass, ControlMsg, ControlRoute, DeliveredControl};
        let mut n = ni();
        n.deliver_control(DeliveredControl {
            msg: ControlMsg {
                class: ControlClass::ReqLike,
                bits: 7,
                vnet: VnetId(0),
                routing: ControlRoute::Forward,
                route: RouteInfo::intra(NodeId(0)),
                origin: NodeId(3),
                circuit_key: NodeId(0),
                record_circuit: false,
                deliver_to_ni: true,
            },
            in_port: crate::ids::Port::West,
            at: 5,
        });
        assert!(n.has_pending_work(), "unread inbox keeps the NI scheduled");
        let mut out = Vec::new();
        n.drain_control_inbox_into(&mut out);
        assert_eq!(out.len(), 1);
        n.drain_control_inbox_into(&mut out);
        assert_eq!(out.len(), 1, "second drain adds nothing");
        assert!(!n.has_pending_work());
    }
}
