//! Packets, flits, route headers and the interned packet-descriptor arena.

use crate::ids::{Cycle, NodeId, PacketId, VnetId};
use serde::Serialize;
use std::fmt;

/// The class of a packet with respect to the chiplet/interposer boundary
/// (Sec. V-D of the paper distinguishes these three transmission cases; we
/// split the "crosses both ways" case out explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PacketClass {
    /// Source and destination in the same chiplet, or both on the interposer.
    Intra,
    /// From a chiplet router down to an interposer node.
    ChipletToInterposer,
    /// From an interposer node up into a chiplet.
    InterposerToChiplet,
    /// From one chiplet through the interposer into another chiplet.
    InterChiplet,
}

impl PacketClass {
    /// True if the packet's route ever ascends a vertical link (and can
    /// therefore be the paper's *upward packet*).
    #[inline]
    pub fn ascends(self) -> bool {
        matches!(
            self,
            PacketClass::InterposerToChiplet | PacketClass::InterChiplet
        )
    }

    /// True if the packet's route ever descends a vertical link.
    #[inline]
    pub fn descends(self) -> bool {
        matches!(
            self,
            PacketClass::ChipletToInterposer | PacketClass::InterChiplet
        )
    }
}

impl fmt::Display for PacketClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PacketClass::Intra => "intra",
            PacketClass::ChipletToInterposer => "c2i",
            PacketClass::InterposerToChiplet => "i2c",
            PacketClass::InterChiplet => "c2c",
        };
        f.write_str(s)
    }
}

/// The route header carried by a packet's head flit.
///
/// Routing in chiplet-based systems is three-legged (Sec. V-D): source
/// chiplet → exit boundary router → (down) → interposer → entry interposer
/// router → (up) → destination chiplet router. The intermediate targets are
/// chosen once, at injection time, by a [`crate::routing::RouteComputer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct RouteInfo {
    /// Final destination node.
    pub dest: NodeId,
    /// Packet class relative to the vertical boundary.
    pub class: PacketClass,
    /// The chiplet boundary router through which the packet leaves its source
    /// chiplet (descending classes only).
    pub exit_boundary: Option<NodeId>,
    /// The interposer router whose `Up` port leads into the destination
    /// chiplet (ascending classes only).
    pub entry_interposer: Option<NodeId>,
}

impl RouteInfo {
    /// A purely local route to `dest`.
    pub fn intra(dest: NodeId) -> Self {
        Self {
            dest,
            class: PacketClass::Intra,
            exit_boundary: None,
            entry_interposer: None,
        }
    }
}

/// Kind of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FlitKind {
    /// First flit: carries the route header.
    Head,
    /// Middle flit.
    Body,
    /// Last flit: releases the VCs it traversed.
    Tail,
    /// Single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// True for `Head` and `HeadTail`.
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True for `Tail` and `HeadTail`.
    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// Handle of an interned [`PacketDesc`] in the [`PacketArena`].
///
/// Handles are internal to one running network: they are recycled when the
/// packet fully ejects, and they never appear in any serialized output
/// (traces, stats and reports all speak [`PacketId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PacketRef(pub u32);

impl PacketRef {
    /// The slab index of this handle.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PacketRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// The per-packet metadata interned once per in-flight packet: identity, the
/// route header of the head flit, and injection bookkeeping. Hardware keeps
/// this on the head flit only; the simulator keeps it in the arena so wire
/// flits stay a compact POD. It is the only per-packet record: NI queues,
/// router VCs and the latency statistics all read it through its handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketDesc {
    /// Globally-unique packet id (what every serialized surface reports).
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Virtual network.
    pub vnet: VnetId,
    /// Total packet length in flits (virtual cut-through allocates whole
    /// packets at once).
    pub pkt_len: u16,
    /// Route header.
    pub route: RouteInfo,
    /// Cycle the packet was created (enqueued at the source NI); the
    /// destination NI reconstructs the delivered [`Packet`] from this.
    pub created_at: Cycle,
    /// Cycle the head flit left the source NI, or
    /// [`PacketDesc::NOT_INJECTED`] while the packet is still queued there.
    pub injected_at: Cycle,
}

impl PacketDesc {
    /// [`PacketDesc::injected_at`] of a packet whose head has not left the
    /// source NI yet.
    pub const NOT_INJECTED: Cycle = Cycle::MAX;

    /// The cycle the head flit left the source NI, if it has.
    #[inline]
    pub fn injected(&self) -> Option<Cycle> {
        (self.injected_at != Self::NOT_INJECTED).then_some(self.injected_at)
    }
}

/// Slab of in-flight [`PacketDesc`]s with free-list recycling.
///
/// One descriptor is allocated per packet at `try_send` time and freed when
/// the tail flit is accepted by the destination NI, so handle allocation
/// order (and therefore the whole arena state) is identical between the
/// active-set and always-tick kernels. The free list is LIFO, which keeps
/// recycling deterministic and cache-warm.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<PacketDesc>,
    /// Liveness bitmap, used by debug assertions and occupancy accounting.
    live: Vec<bool>,
    free: Vec<u32>,
    live_count: usize,
    high_water: usize,
    total_allocs: u64,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-reserves capacity for `n` concurrently-live descriptors so
    /// steady-state operation below that bound never reallocates.
    pub fn reserve(&mut self, n: usize) {
        if self.slots.capacity() < n {
            self.slots.reserve(n - self.slots.len());
            self.live.reserve(n - self.live.len());
        }
        if self.free.capacity() < n {
            self.free.reserve(n - self.free.len());
        }
    }

    /// Interns a descriptor, returning its handle.
    pub fn alloc(&mut self, desc: PacketDesc) -> PacketRef {
        self.total_allocs += 1;
        self.live_count += 1;
        self.high_water = self.high_water.max(self.live_count);
        if let Some(ix) = self.free.pop() {
            debug_assert!(!self.live[ix as usize], "free-list entry still live");
            self.slots[ix as usize] = desc;
            self.live[ix as usize] = true;
            PacketRef(ix)
        } else {
            let ix = u32::try_from(self.slots.len()).expect("more than 2^32 live packets");
            self.slots.push(desc);
            self.live.push(true);
            PacketRef(ix)
        }
    }

    /// Releases a descriptor; its handle may be recycled by a later
    /// [`PacketArena::alloc`].
    pub fn free(&mut self, h: PacketRef) {
        debug_assert!(self.live[h.index()], "double free of {h}");
        self.live[h.index()] = false;
        self.live_count -= 1;
        self.free.push(h.0);
    }

    /// The descriptor behind `h`.
    #[inline]
    pub fn get(&self, h: PacketRef) -> &PacketDesc {
        debug_assert!(self.live[h.index()], "read of freed descriptor {h}");
        &self.slots[h.index()]
    }

    /// Mutable access to the descriptor behind `h` (the network stamps the
    /// injection cycle through this).
    #[inline]
    pub fn get_mut(&mut self, h: PacketRef) -> &mut PacketDesc {
        debug_assert!(self.live[h.index()], "write to freed descriptor {h}");
        &mut self.slots[h.index()]
    }

    /// The live descriptors, in slab order (callers needing a stable order
    /// sort by id).
    pub fn live(&self) -> impl Iterator<Item = &PacketDesc> {
        self.slots
            .iter()
            .zip(&self.live)
            .filter_map(|(d, &live)| live.then_some(d))
    }

    /// The descriptor of a flit's packet (protocol-state reads that are
    /// legitimate on any flit: packet identity, VNet, circuit keys).
    #[inline]
    pub fn desc(&self, flit: &Flit) -> &PacketDesc {
        self.get(flit.desc)
    }

    /// The descriptor of a *head* flit, for route-header reads on the
    /// normal datapath (route computation, VCT whole-packet allocation).
    ///
    /// Backs the claim in the [`Flit`] doc comment: body flits never read
    /// the route header. Debug builds assert it.
    #[inline]
    pub fn head_desc(&self, flit: &Flit) -> &PacketDesc {
        debug_assert!(
            flit.kind.is_head(),
            "body flit {} read the route header",
            flit.seq
        );
        self.get(flit.desc)
    }

    /// Descriptors currently live.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Peak number of concurrently-live descriptors.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total descriptors ever interned (recycled handles count each time).
    pub fn total_allocs(&self) -> u64 {
        self.total_allocs
    }

    /// Slab length (peak footprint in slots; the slab never shrinks).
    pub fn slots_len(&self) -> usize {
        self.slots.len()
    }

    /// Exact heap bytes of the slab state at its current length (capacity
    /// headroom from [`PacketArena::reserve`] is deliberately excluded so
    /// the number is a function of the workload, not of tuning).
    pub fn mem_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<PacketDesc>()
            + self.live.len()
            + self.free.len() * std::mem::size_of::<u32>()
    }
}

/// A flow-control unit travelling through the network.
///
/// A flit is a compact POD: a descriptor handle, its sequence position and
/// the two per-flit popup bits. The route header and packet metadata live
/// in the [`PacketArena`] (as in hardware, where only the head flit carries
/// them); body flits never read the route header —
/// [`PacketArena::head_desc`] asserts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Arena handle of the owning packet's descriptor.
    pub desc: PacketRef,
    /// Sequence number within the packet (head is 0).
    pub seq: u16,
    /// Position of this flit in the packet.
    pub kind: FlitKind,
    /// Set while the flit travels as a popped-up *upward flit*: it bypasses
    /// VC buffers and crosses routers in a single switch-traversal stage
    /// (Sec. V-C).
    pub upward: bool,
}

impl Flit {
    /// Builds the `seq`-th flit (of `len`) of the packet behind `desc`.
    pub fn new(desc: PacketRef, seq: u16, len: u16) -> Self {
        debug_assert!(len > 0 && seq < len);
        let kind = match (seq, len) {
            (0, 1) => FlitKind::HeadTail,
            (0, _) => FlitKind::Head,
            (s, l) if s + 1 == l => FlitKind::Tail,
            _ => FlitKind::Body,
        };
        Self {
            desc,
            seq,
            kind,
            upward: false,
        }
    }
}

/// A whole packet, as seen by NIs and traffic generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Packet {
    /// Globally-unique id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Virtual network (message class).
    pub vnet: VnetId,
    /// Length in flits.
    pub len_flits: u16,
    /// Cycle the packet was created (enqueued at the source NI).
    pub created_at: Cycle,
}

impl Packet {
    /// Constructs a packet description.
    pub fn new(
        id: PacketId,
        src: NodeId,
        dest: NodeId,
        vnet: VnetId,
        len_flits: u16,
        created_at: Cycle,
    ) -> Self {
        debug_assert!(len_flits > 0);
        Self {
            id,
            src,
            dest,
            vnet,
            len_flits,
            created_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(arena: &mut PacketArena, id: u64, len: u16) -> PacketRef {
        arena.alloc(PacketDesc {
            id: PacketId(id),
            src: NodeId(0),
            vnet: VnetId(0),
            pkt_len: len,
            route: RouteInfo::intra(NodeId(5)),
            created_at: 0,
            injected_at: PacketDesc::NOT_INJECTED,
        })
    }

    #[test]
    fn flit_kinds_by_position() {
        let mut arena = PacketArena::new();
        let d = desc(&mut arena, 1, 5);
        let single = Flit::new(d, 0, 1);
        assert_eq!(single.kind, FlitKind::HeadTail);
        assert!(single.kind.is_head() && single.kind.is_tail());

        let head = Flit::new(d, 0, 5);
        let body = Flit::new(d, 2, 5);
        let tail = Flit::new(d, 4, 5);
        assert_eq!(head.kind, FlitKind::Head);
        assert_eq!(body.kind, FlitKind::Body);
        assert_eq!(tail.kind, FlitKind::Tail);
        assert!(!body.kind.is_head() && !body.kind.is_tail());
    }

    #[test]
    fn flit_is_a_compact_pod() {
        // The data-oriented layout exists to keep wire flits tiny; pin the
        // budget so a metadata field cannot silently creep back in.
        assert!(
            std::mem::size_of::<Flit>() <= 8,
            "Flit grew to {} bytes",
            std::mem::size_of::<Flit>()
        );
    }

    #[test]
    fn per_packet_state_is_one_descriptor_and_a_handle() {
        // The arena's descriptor is the only per-packet record; an NI's
        // injection queue holds its handle plus what injection reads.
        assert!(
            std::mem::size_of::<PacketDesc>() <= 56,
            "PacketDesc grew to {} bytes",
            std::mem::size_of::<PacketDesc>()
        );
        assert!(
            std::mem::size_of::<crate::ni::PendingPacket>() <= 16,
            "PendingPacket grew to {} bytes",
            std::mem::size_of::<crate::ni::PendingPacket>()
        );
    }

    #[test]
    fn arena_recycles_handles_lifo() {
        let mut arena = PacketArena::new();
        let a = desc(&mut arena, 1, 1);
        let b = desc(&mut arena, 2, 1);
        assert_ne!(a, b);
        assert_eq!(arena.live_count(), 2);
        assert_eq!(arena.high_water(), 2);
        arena.free(a);
        assert_eq!(arena.live_count(), 1);
        let c = desc(&mut arena, 3, 1);
        assert_eq!(c, a, "LIFO free list recycles the last-freed handle");
        assert_eq!(arena.get(c).id, PacketId(3));
        assert_eq!(arena.high_water(), 2, "recycling does not raise the peak");
        assert_eq!(arena.total_allocs(), 3);
        assert_eq!(arena.slots_len(), 2);
        let ids: Vec<_> = arena.live().map(|d| d.id).collect();
        assert_eq!(ids, [PacketId(3), PacketId(2)], "live walks slab order");
        assert!(arena.mem_bytes() > 0);
    }

    /// The misuse guard is a `debug_assert`, so the test only exists in
    /// debug builds — release builds compile the check away entirely.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "read the route header")]
    fn body_flits_must_not_read_the_route_header() {
        let mut arena = PacketArena::new();
        let d = desc(&mut arena, 1, 5);
        let body = Flit::new(d, 2, 5);
        let _ = arena.head_desc(&body);
    }

    #[test]
    fn class_ascent_descent() {
        assert!(!PacketClass::Intra.ascends());
        assert!(!PacketClass::Intra.descends());
        assert!(PacketClass::InterChiplet.ascends() && PacketClass::InterChiplet.descends());
        assert!(PacketClass::InterposerToChiplet.ascends());
        assert!(!PacketClass::InterposerToChiplet.descends());
        assert!(PacketClass::ChipletToInterposer.descends());
        assert!(!PacketClass::ChipletToInterposer.ascends());
    }

    #[test]
    fn intra_route_has_no_intermediates() {
        let r = RouteInfo::intra(NodeId(3));
        assert_eq!(r.dest, NodeId(3));
        assert!(r.exit_boundary.is_none() && r.entry_interposer.is_none());
    }
}
