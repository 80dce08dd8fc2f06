//! Per-packet latency attribution: the span recorder.
//!
//! A [`SpanRecorder`] rides along inside the [`crate::trace::Tracer`]
//! (see [`crate::trace::Tracer::set_profiler`]) and folds the flight
//! recorder's event stream into one [`PacketSpan`] per delivered packet,
//! decomposing its life into the phases the paper's Fig. 12/13 argue
//! about:
//!
//! * **injection queueing** — creation at the source NI until the head
//!   flit enters the network;
//! * **VC-allocation wait** — cycles a head-of-line flit sat blocked
//!   because no downstream VC of its VNet was free;
//! * **switch-allocation wait** — cycles a bidding flit lost the crossbar
//!   to another input;
//! * **credit-blocked** — cycles the allocated downstream VC had no
//!   credits left;
//! * **UPP recovery** — the wait-ack / locate / pop stage split of a
//!   completed popup, attributed to the recovered packet;
//! * **link serialization** — the residual: network latency not
//!   explained by any wait above (pipeline stages, link traversal,
//!   per-flit serialization).
//!
//! Blocked phases count *blocked VC-cycles*: a multi-flit worm stalled in
//! several routers at once accrues one count per stalled head-of-line VC
//! per cycle, so the blocked phases of one packet can legitimately exceed
//! its network latency. The residual is clamped at zero in that case. A
//! `blocked` event is one VC-cycle; a `blocked_span` is `to - from` of
//! them — the cycles a parked VC, or one waiting in a sleeping router,
//! stayed blocked while the kernel did not look at it.
//!
//! The recorder is as opt-in as the tracer itself, and neither changes
//! what the kernel runs: every instrumentation site only records, so a
//! profiled run takes the same path through switch allocation and the
//! router schedule as an unprofiled one and pays only for the recording.
//!
//! Finished spans are buffered until [`SpanRecorder::drain_finished`] is
//! called; long-running drivers drain periodically and fold the spans
//! into aggregate histograms (see the `upp-tracetools` crate) so
//! million-packet runs never hold more than one drain interval's worth of
//! spans in memory.

use crate::ids::{Cycle, NodeId, PacketId, Port, VnetId};
use crate::trace::{BlockReason, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One delivered packet's fully-attributed latency decomposition. The
/// field order is the order a profile document writes them in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketSpan {
    /// The packet.
    pub packet: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// VNet.
    pub vnet: VnetId,
    /// Length in flits.
    pub len_flits: u16,
    /// Cycle the packet was enqueued at its source NI.
    pub created_at: Cycle,
    /// Cycle the head flit entered the network.
    pub injected_at: Cycle,
    /// Cycle the tail flit completed at the destination NI.
    pub ejected_at: Cycle,
    /// Cycles queued at the source NI (create -> inject).
    pub inj_queue: u64,
    /// Blocked VC-cycles waiting for a free downstream VC.
    pub vc_alloc: u64,
    /// Blocked VC-cycles lost to switch allocation.
    pub sa_wait: u64,
    /// Blocked VC-cycles waiting for downstream credits.
    pub credit: u64,
    /// UPP recovery: cycles waiting for the `UPP_ack`.
    pub wait_ack: u64,
    /// UPP recovery: cycles locating a partly-transmitted head.
    pub locate: u64,
    /// UPP recovery: cycles popping flits through the bypass path.
    pub pop: u64,
    /// Residual network cycles: `net_latency` minus every attributed wait,
    /// clamped at zero (pipeline + link serialization).
    pub serialization: u64,
    /// Routers that granted this packet a VC (normal-path hop count).
    pub hops: u32,
    /// Routers crossed on the single-ST popup bypass path.
    pub bypass_hops: u32,
    /// Per-router blocked VC-cycles, in first-blocked order.
    pub waits: Vec<(NodeId, u64)>,
}

impl PacketSpan {
    /// Inject-to-eject latency in cycles.
    pub fn net_latency(&self) -> u64 {
        self.ejected_at - self.injected_at
    }

    /// Create-to-eject latency in cycles.
    pub fn total_latency(&self) -> u64 {
        self.ejected_at - self.created_at
    }

    /// Total UPP-recovery cycles attributed to this packet.
    pub fn upp_recovery(&self) -> u64 {
        self.wait_ack + self.locate + self.pop
    }
}

/// A packet whose creation has been observed but whose tail has not yet
/// ejected.
#[derive(Debug, Clone)]
struct LiveSpan {
    src: NodeId,
    dest: NodeId,
    vnet: VnetId,
    len_flits: u16,
    created_at: Cycle,
    injected_at: Option<Cycle>,
    vc_alloc: u64,
    sa_wait: u64,
    credit: u64,
    wait_ack: u64,
    locate: u64,
    pop: u64,
    hops: u32,
    bypass_hops: u32,
    waits: Vec<(NodeId, u64)>,
}

/// Live spans indexed densely by packet id.
///
/// [`crate::network::Network::try_send`] hands out packet ids sequentially, so
/// the live set at any instant occupies a narrow sliding id window: a ring
/// of `Option<LiveSpan>` slots addressed by `id - base` replaces the former
/// per-event `HashMap` hashing with one bounds check and an index. Ids
/// outside the window (packets in flight before the recorder was
/// installed, or non-sequential ids from a foreign source) are tolerated:
/// lookups miss, inserts below the window grow it frontward.
#[derive(Debug, Default)]
struct DenseSpanMap {
    /// Packet id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<LiveSpan>>,
    len: usize,
}

impl DenseSpanMap {
    fn insert(&mut self, id: PacketId, s: LiveSpan) {
        let k = id.0;
        if self.slots.is_empty() {
            self.base = k;
        } else if k < self.base {
            for _ in k..self.base {
                self.slots.push_front(None);
            }
            self.base = k;
        }
        let ix = (k - self.base) as usize;
        if ix >= self.slots.len() {
            self.slots.resize_with(ix + 1, || None);
        }
        if self.slots[ix].replace(s).is_none() {
            self.len += 1;
        }
    }

    fn get_mut(&mut self, id: PacketId) -> Option<&mut LiveSpan> {
        let ix = id.0.checked_sub(self.base)? as usize;
        self.slots.get_mut(ix)?.as_mut()
    }

    fn remove(&mut self, id: PacketId) -> Option<LiveSpan> {
        let ix = id.0.checked_sub(self.base)? as usize;
        let s = self.slots.get_mut(ix)?.take();
        if s.is_some() {
            self.len -= 1;
            // Slide the window past leading vacancies so it stays as narrow
            // as the live set (the ring keeps its capacity).
            while let Some(None) = self.slots.front() {
                self.slots.pop_front();
                self.base += 1;
            }
        }
        s
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Folds the flight-recorder event stream into per-packet latency spans
/// plus per-router / per-link contention counters.
///
/// Only packets whose `packet_created` event was observed are profiled;
/// events for packets already in flight when the recorder was installed
/// are ignored.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    live: DenseSpanMap,
    finished: Vec<PacketSpan>,
    router_blocked: Vec<u64>,
    link_blocked: Vec<u64>,
    popups: u64,
}

fn bump(v: &mut Vec<u64>, idx: usize, by: u64) {
    if v.len() <= idx {
        v.resize(idx + 1, 0);
    }
    v[idx] += by;
}

impl SpanRecorder {
    /// A fresh recorder with no observed packets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one flight-recorder event.
    pub fn observe(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::PacketCreated {
                at,
                packet,
                src,
                dest,
                vnet,
                len_flits,
            } => {
                self.live.insert(
                    packet,
                    LiveSpan {
                        src,
                        dest,
                        vnet,
                        len_flits,
                        created_at: at,
                        injected_at: None,
                        vc_alloc: 0,
                        sa_wait: 0,
                        credit: 0,
                        wait_ack: 0,
                        locate: 0,
                        pop: 0,
                        hops: 0,
                        bypass_hops: 0,
                        waits: Vec::new(),
                    },
                );
            }
            TraceEvent::PacketInjected { at, packet, .. } => {
                if let Some(s) = self.live.get_mut(packet) {
                    s.injected_at.get_or_insert(at);
                }
            }
            TraceEvent::Blocked {
                packet,
                node,
                out_port,
                reason,
                ..
            } => self.charge_blocked(packet, node, out_port, reason, 1),
            TraceEvent::BlockedSpan {
                from,
                to,
                packet,
                node,
                out_port,
                reason,
                ..
            } => self.charge_blocked(packet, node, Some(out_port), reason, to - from),
            TraceEvent::VcAllocated { packet, .. } => {
                if let Some(s) = self.live.get_mut(packet) {
                    s.hops += 1;
                }
            }
            TraceEvent::BypassHop { packet, .. } => {
                if let Some(s) = self.live.get_mut(packet) {
                    s.bypass_hops += 1;
                }
            }
            TraceEvent::PopupSpan {
                packet,
                wait_ack,
                locate,
                pop,
                ..
            } => {
                self.popups += 1;
                if let Some(s) = self.live.get_mut(packet) {
                    s.wait_ack += wait_ack;
                    s.locate += locate;
                    s.pop += pop;
                }
            }
            TraceEvent::PacketEjected {
                at,
                packet,
                net_latency,
                ..
            } => {
                let Some(s) = self.live.remove(packet) else {
                    return;
                };
                // Times that run backwards (only a foreign trace has them)
                // drop the span rather than wrap.
                let Some(injected_at) = s.injected_at.or(at.checked_sub(net_latency)) else {
                    return;
                };
                if !(s.created_at..=at).contains(&injected_at) {
                    return;
                }
                let attributed = s.vc_alloc + s.sa_wait + s.credit + s.wait_ack + s.locate + s.pop;
                self.finished.push(PacketSpan {
                    packet,
                    src: s.src,
                    dest: s.dest,
                    vnet: s.vnet,
                    len_flits: s.len_flits,
                    created_at: s.created_at,
                    injected_at,
                    ejected_at: at,
                    inj_queue: injected_at - s.created_at,
                    vc_alloc: s.vc_alloc,
                    sa_wait: s.sa_wait,
                    credit: s.credit,
                    wait_ack: s.wait_ack,
                    locate: s.locate,
                    pop: s.pop,
                    serialization: net_latency.saturating_sub(attributed),
                    hops: s.hops,
                    bypass_hops: s.bypass_hops,
                    waits: s.waits,
                });
            }
            TraceEvent::BypassPop { .. }
            | TraceEvent::ControlHop { .. }
            | TraceEvent::PopupStage { .. } => {}
        }
    }

    /// Charges `cycles` blocked VC-cycles at `node` to `packet`.
    fn charge_blocked(
        &mut self,
        packet: PacketId,
        node: NodeId,
        out_port: Option<Port>,
        reason: BlockReason,
        cycles: u64,
    ) {
        bump(&mut self.router_blocked, node.index(), cycles);
        if let Some(out) = out_port {
            bump(
                &mut self.link_blocked,
                node.index() * Port::COUNT + out.index(),
                cycles,
            );
        }
        if let Some(s) = self.live.get_mut(packet) {
            match reason {
                BlockReason::Credit => s.credit += cycles,
                BlockReason::VcAlloc => s.vc_alloc += cycles,
                BlockReason::SwitchAlloc => s.sa_wait += cycles,
            }
            match s.waits.iter_mut().find(|(n, _)| *n == node) {
                Some((_, c)) => *c += cycles,
                None => s.waits.push((node, cycles)),
            }
        }
    }

    /// Takes every span completed since the last drain (oldest first).
    pub fn drain_finished(&mut self) -> Vec<PacketSpan> {
        std::mem::take(&mut self.finished)
    }

    /// Spans completed since the last drain, without consuming them.
    pub fn finished(&self) -> &[PacketSpan] {
        &self.finished
    }

    /// Packets observed as created but not yet ejected.
    pub fn live_packets(&self) -> usize {
        self.live.len()
    }

    /// Completed popups observed.
    pub fn popups(&self) -> u64 {
        self.popups
    }

    /// Blocked VC-cycles per router, dense by node index (possibly shorter
    /// than the node count; missing tail entries are zero).
    pub fn router_blocked(&self) -> &[u64] {
        &self.router_blocked
    }

    /// Blocked VC-cycles per outgoing link, flat-indexed
    /// `node * Port::COUNT + port` (same layout as
    /// [`crate::stats::NetStats::link_flits`]).
    pub fn link_blocked(&self) -> &[u64] {
        &self.link_blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn created(packet: u64, at: Cycle) -> TraceEvent {
        TraceEvent::PacketCreated {
            at,
            packet: PacketId(packet),
            src: NodeId(0),
            dest: NodeId(9),
            vnet: VnetId(0),
            len_flits: 3,
        }
    }

    #[test]
    fn span_decomposes_phases_and_residual() {
        let mut r = SpanRecorder::new();
        r.observe(&created(1, 10));
        r.observe(&TraceEvent::PacketInjected {
            at: 14,
            packet: PacketId(1),
            node: NodeId(0),
        });
        for (at, reason) in [
            (15, BlockReason::VcAlloc),
            (16, BlockReason::VcAlloc),
            (17, BlockReason::Credit),
            (18, BlockReason::SwitchAlloc),
        ] {
            r.observe(&TraceEvent::Blocked {
                at,
                packet: PacketId(1),
                node: NodeId(4),
                in_port: Port::West,
                vc_flat: 0,
                out_port: Some(Port::East),
                reason,
            });
        }
        r.observe(&TraceEvent::VcAllocated {
            at: 19,
            packet: PacketId(1),
            node: NodeId(4),
            in_port: Port::West,
            vc_flat: 0,
            out_port: Port::East,
            out_vc: 0,
        });
        r.observe(&TraceEvent::PopupSpan {
            node: NodeId(4),
            vnet: VnetId(0),
            packet: PacketId(1),
            detected_at: 20,
            completed_at: 30,
            wait_ack: 6,
            locate: 1,
            pop: 3,
        });
        r.observe(&TraceEvent::PacketEjected {
            at: 40,
            packet: PacketId(1),
            node: NodeId(9),
            net_latency: 26,
            total_latency: 30,
        });

        let spans = r.drain_finished();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.inj_queue, 4);
        assert_eq!((s.vc_alloc, s.sa_wait, s.credit), (2, 1, 1));
        assert_eq!((s.wait_ack, s.locate, s.pop), (6, 1, 3));
        // 26 net - (2+1+1 blocked) - (6+1+3 upp) = 12 residual.
        assert_eq!(s.serialization, 12);
        assert_eq!(s.net_latency(), 26);
        assert_eq!(s.total_latency(), 30);
        assert_eq!(s.hops, 1);
        assert_eq!(s.waits, vec![(NodeId(4), 4)]);
        assert_eq!(r.popups(), 1);
        assert_eq!(r.router_blocked()[4], 4);
        assert_eq!(r.link_blocked()[4 * Port::COUNT + Port::East.index()], 4);
        assert!(r.drain_finished().is_empty(), "drain consumes");
    }

    #[test]
    fn a_blocked_span_charges_what_a_blocked_event_per_cycle_would() {
        let blocked = |at| TraceEvent::Blocked {
            at,
            packet: PacketId(1),
            node: NodeId(4),
            in_port: Port::West,
            vc_flat: 0,
            out_port: Some(Port::East),
            reason: BlockReason::Credit,
        };
        let span = TraceEvent::BlockedSpan {
            from: 6,
            to: 9,
            packet: PacketId(1),
            node: NodeId(4),
            in_port: Port::West,
            vc_flat: 0,
            out_port: Port::East,
            reason: BlockReason::Credit,
        };
        let profile = |events: &[TraceEvent]| {
            let mut r = SpanRecorder::new();
            r.observe(&created(1, 0));
            events.iter().for_each(|e| r.observe(e));
            r.observe(&TraceEvent::PacketEjected {
                at: 20,
                packet: PacketId(1),
                node: NodeId(9),
                net_latency: 20,
                total_latency: 20,
            });
            let blocked = (r.router_blocked().to_vec(), r.link_blocked().to_vec());
            (r.drain_finished(), blocked)
        };
        let per_cycle = profile(&[5, 6, 7, 8].map(blocked));
        assert_eq!(per_cycle.0[0].waits, vec![(NodeId(4), 4)]);
        assert_eq!(profile(&[blocked(5), span]), per_cycle);
    }

    #[test]
    fn residual_clamps_when_blocked_counts_exceed_net_latency() {
        let mut r = SpanRecorder::new();
        r.observe(&created(2, 0));
        // A worm stalled in two routers at once: 10 blocked VC-cycles
        // against a net latency of 6.
        for at in 0..5 {
            for node in [3u32, 4] {
                r.observe(&TraceEvent::Blocked {
                    at,
                    packet: PacketId(2),
                    node: NodeId(node),
                    in_port: Port::North,
                    vc_flat: 0,
                    out_port: None,
                    reason: BlockReason::Credit,
                });
            }
        }
        r.observe(&TraceEvent::PacketEjected {
            at: 6,
            packet: PacketId(2),
            node: NodeId(9),
            net_latency: 6,
            total_latency: 6,
        });
        let s = &r.drain_finished()[0];
        assert_eq!(s.credit, 10);
        assert_eq!(s.serialization, 0, "residual clamps at zero");
    }

    #[test]
    fn unobserved_packets_are_ignored() {
        let mut r = SpanRecorder::new();
        r.observe(&TraceEvent::PacketEjected {
            at: 5,
            packet: PacketId(99),
            node: NodeId(1),
            net_latency: 3,
            total_latency: 5,
        });
        assert!(r.finished().is_empty());
        assert_eq!(r.live_packets(), 0);
    }

    #[test]
    fn spans_whose_times_run_backwards_are_dropped() {
        let ejected = |packet, at, net_latency| TraceEvent::PacketEjected {
            at,
            packet: PacketId(packet),
            node: NodeId(9),
            net_latency,
            total_latency: 0,
        };
        let mut r = SpanRecorder::new();
        // Ejected before it was created.
        r.observe(&created(1, 100));
        r.observe(&ejected(1, 5, 3));
        // A network latency longer than the ejection cycle.
        r.observe(&created(2, 0));
        r.observe(&ejected(2, 5, 9));
        // Ejected before it was injected.
        r.observe(&created(3, 0));
        r.observe(&TraceEvent::PacketInjected {
            at: 8,
            packet: PacketId(3),
            node: NodeId(0),
        });
        r.observe(&ejected(3, 6, 1));
        assert!(r.finished().is_empty());
        assert_eq!(r.live_packets(), 0);
    }
}
