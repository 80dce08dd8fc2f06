//! Observability: flight-recorder tracing and deadlock forensics.
//!
//! Two pillars, both strictly opt-in:
//!
//! * **Flight recorder** — a [`Tracer`] attached to the network records
//!   typed [`TraceEvent`]s covering the full packet lifecycle (creation,
//!   injection, per-hop VC allocation, blocked-on-{credit, VC, switch}
//!   stalls, bypass pops, ejection), control-signal hops with their Fig. 4
//!   fields, and UPP popup spans from detection to completion. Sinks:
//!   nothing ([`Tracer::disabled`], the default), an in-memory ring buffer
//!   (bounded, or unbounded for a Chrome trace-event export loadable in
//!   `chrome://tracing` / Perfetto), or a JSONL stream. With the sink
//!   disabled every hook is a single branch on [`Tracer::enabled`] — the
//!   simulation stays cycle-for-cycle identical (see the
//!   `trace_determinism` integration test).
//! * **Deadlock forensics** — [`StallReport`]
//!   (built by [`crate::network::Network::stall_report`]) names every wedged
//!   packet, its per-VC "holds X, waits on Y" chain, and the circular wait
//!   extracted through the [`crate::routing::GlobalCdg`] machinery.
//!
//! Epoch time series live in [`crate::obs`] (`simulate --obs-every`).

use crate::control::{ControlClass, ControlRoute};
use crate::ids::{Cycle, NodeId, PacketId, Port, VnetId};
use crate::profile::SpanRecorder;
use crate::routing::GlobalChannel;
use serde::Serialize;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write;

// --------------------------------------------------------------- events

/// Renders a string as a JSON string literal (quotes included) through the
/// serde_json writer, so quotes, backslashes and control characters are
/// escaped exactly as a conforming serializer would.
fn json_str(s: &str) -> String {
    serde_json::to_string(&s).expect("string serialization is infallible")
}

/// Why a buffered head-of-line flit failed to advance this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BlockReason {
    /// The allocated downstream VC has no credits left.
    Credit,
    /// No free downstream VC exists in the packet's VNet.
    VcAlloc,
    /// The flit bid but lost switch allocation to another input.
    SwitchAlloc,
}

impl BlockReason {
    fn label(self) -> &'static str {
        match self {
            BlockReason::Credit => "credit",
            BlockReason::VcAlloc => "vc",
            BlockReason::SwitchAlloc => "sa",
        }
    }
}

/// One recorded observation. Every variant carries the cycle it happened at
/// and enough identity to reconstruct a packet's path after the fact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceEvent {
    /// A packet was enqueued at its source NI.
    PacketCreated {
        /// Cycle of the observation.
        at: Cycle,
        /// The packet.
        packet: PacketId,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dest: NodeId,
        /// VNet.
        vnet: VnetId,
        /// Length in flits.
        len_flits: u16,
    },
    /// A packet's head flit left its source NI into the network.
    PacketInjected {
        /// Cycle of the observation.
        at: Cycle,
        /// The packet.
        packet: PacketId,
        /// Injecting node.
        node: NodeId,
    },
    /// A packet was fully assembled at its destination NI.
    PacketEjected {
        /// Cycle of the observation.
        at: Cycle,
        /// The packet.
        packet: PacketId,
        /// Ejecting node.
        node: NodeId,
        /// Inject-to-eject latency in cycles.
        net_latency: u64,
        /// Create-to-eject latency in cycles.
        total_latency: u64,
    },
    /// A head flit won switch allocation and was assigned a downstream VC.
    VcAllocated {
        /// Cycle of the observation.
        at: Cycle,
        /// The packet.
        packet: PacketId,
        /// Router performing the allocation.
        node: NodeId,
        /// Input port the flit sits on.
        in_port: Port,
        /// Flat input VC index.
        vc_flat: usize,
        /// Output port granted.
        out_port: Port,
        /// Flat downstream VC index granted.
        out_vc: usize,
    },
    /// A buffered head-of-line flit could not advance this cycle.
    Blocked {
        /// Cycle of the observation.
        at: Cycle,
        /// The stalled packet.
        packet: PacketId,
        /// Router it is stalled at.
        node: NodeId,
        /// Input port of the stalled VC.
        in_port: Port,
        /// Flat input VC index.
        vc_flat: usize,
        /// Output port the flit wants (when route computation has run).
        out_port: Option<Port>,
        /// Why it could not advance.
        reason: BlockReason,
    },
    /// A flit was popped out of an input VC into the bypass latch (the
    /// popup transmission of Sec. V-C).
    BypassPop {
        /// Cycle of the observation.
        at: Cycle,
        /// The popped packet.
        packet: PacketId,
        /// Router popping the flit.
        node: NodeId,
        /// Input port the flit was buffered on.
        in_port: Port,
        /// Flat input VC index.
        vc_flat: usize,
        /// Output port of the bypass circuit.
        out_port: Port,
    },
    /// An upward flit crossed a router through the single-ST bypass path.
    BypassHop {
        /// Cycle of the observation.
        at: Cycle,
        /// The upward packet.
        packet: PacketId,
        /// Router traversed.
        node: NodeId,
        /// Port the flit left through.
        out_port: Port,
    },
    /// A control signal won switch allocation and traversed a link
    /// (Fig. 4 fields: class, raw 32-bit encoding, VNet, origin).
    ControlHop {
        /// Cycle of the observation.
        at: Cycle,
        /// Router the signal left.
        node: NodeId,
        /// Port it left through.
        out_port: Port,
        /// Req-like or ack-like buffer class.
        class: ControlClass,
        /// The signal's payload word (`ControlMsg::bits`; UPP's is its
        /// Fig. 4 type tag).
        bits: u32,
        /// VNet the signal serves.
        vnet: VnetId,
        /// Interposer router that originated the protocol exchange.
        origin: NodeId,
        /// Forward (routed) or reverse (circuit-following) traversal.
        routing: ControlRoute,
    },
    /// A UPP popup state machine changed stage at an interposer router.
    PopupStage {
        /// Cycle of the observation.
        at: Cycle,
        /// Interposer router owning the state machine.
        node: NodeId,
        /// VNet of the popup.
        vnet: VnetId,
        /// Selected upward packet, when one is bound.
        packet: Option<PacketId>,
        /// Stage left.
        from: &'static str,
        /// Stage entered.
        to: &'static str,
    },
    /// A completed popup, with its per-stage latency decomposition.
    PopupSpan {
        /// Interposer router that ran the popup.
        node: NodeId,
        /// VNet of the popup.
        vnet: VnetId,
        /// The recovered packet.
        packet: PacketId,
        /// Cycle detection selected the packet.
        detected_at: Cycle,
        /// Cycle the tail flit finished popping.
        completed_at: Cycle,
        /// Cycles spent waiting for the `UPP_ack`.
        wait_ack: u64,
        /// Cycles spent locating a partly-transmitted head (0 for full
        /// popups).
        locate: u64,
        /// Cycles spent popping flits through the bypass path.
        pop: u64,
    },
}

impl TraceEvent {
    /// Cycle the event was recorded at (span events report their start).
    pub fn at(&self) -> Cycle {
        match *self {
            TraceEvent::PacketCreated { at, .. }
            | TraceEvent::PacketInjected { at, .. }
            | TraceEvent::PacketEjected { at, .. }
            | TraceEvent::VcAllocated { at, .. }
            | TraceEvent::Blocked { at, .. }
            | TraceEvent::BypassPop { at, .. }
            | TraceEvent::BypassHop { at, .. }
            | TraceEvent::ControlHop { at, .. }
            | TraceEvent::PopupStage { at, .. } => at,
            TraceEvent::PopupSpan { detected_at, .. } => detected_at,
        }
    }

    /// Short event name (the Chrome trace `name` field).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::PacketCreated { .. } => "packet_created",
            TraceEvent::PacketInjected { .. } => "packet_injected",
            TraceEvent::PacketEjected { .. } => "packet_ejected",
            TraceEvent::VcAllocated { .. } => "vc_allocated",
            TraceEvent::Blocked { .. } => "blocked",
            TraceEvent::BypassPop { .. } => "bypass_pop",
            TraceEvent::BypassHop { .. } => "bypass_hop",
            TraceEvent::ControlHop { .. } => "control_hop",
            TraceEvent::PopupStage { .. } => "popup_stage",
            TraceEvent::PopupSpan { .. } => "popup_span",
        }
    }

    /// Node the event is attributed to (the Chrome trace `tid`), when any.
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            TraceEvent::PacketCreated { src, .. } => Some(src),
            TraceEvent::PacketInjected { node, .. }
            | TraceEvent::PacketEjected { node, .. }
            | TraceEvent::VcAllocated { node, .. }
            | TraceEvent::Blocked { node, .. }
            | TraceEvent::BypassPop { node, .. }
            | TraceEvent::BypassHop { node, .. }
            | TraceEvent::ControlHop { node, .. }
            | TraceEvent::PopupStage { node, .. }
            | TraceEvent::PopupSpan { node, .. } => Some(node),
        }
    }

    /// Renders the event's payload as a JSON object (the Chrome trace
    /// `args` field and the JSONL line body). Numbers are hand-rendered so
    /// the tracer needs no serializer in its hot path, but every string
    /// field goes through the serde_json writer's escaping
    /// ([`json_str`]) — stage labels and port names can never corrupt the
    /// output, however hostile their contents.
    pub fn args_json(&self) -> String {
        fn opt_port(p: Option<Port>) -> String {
            match p {
                Some(p) => json_str(&p.to_string()),
                None => "null".into(),
            }
        }
        fn port(p: Port) -> String {
            json_str(&p.to_string())
        }
        match *self {
            TraceEvent::PacketCreated { at, packet, src, dest, vnet, len_flits } => format!(
                "{{\"at\":{at},\"packet\":{},\"src\":{},\"dest\":{},\"vnet\":{},\"len_flits\":{len_flits}}}",
                packet.0, src.0, dest.0, vnet.0
            ),
            TraceEvent::PacketInjected { at, packet, node } => {
                format!("{{\"at\":{at},\"packet\":{},\"node\":{}}}", packet.0, node.0)
            }
            TraceEvent::PacketEjected { at, packet, node, net_latency, total_latency } => format!(
                "{{\"at\":{at},\"packet\":{},\"node\":{},\"net_latency\":{net_latency},\"total_latency\":{total_latency}}}",
                packet.0, node.0
            ),
            TraceEvent::VcAllocated { at, packet, node, in_port, vc_flat, out_port, out_vc } => format!(
                "{{\"at\":{at},\"packet\":{},\"node\":{},\"in_port\":{},\"vc_flat\":{vc_flat},\"out_port\":{},\"out_vc\":{out_vc}}}",
                packet.0, node.0, port(in_port), port(out_port)
            ),
            TraceEvent::Blocked { at, packet, node, in_port, vc_flat, out_port, reason } => format!(
                "{{\"at\":{at},\"packet\":{},\"node\":{},\"in_port\":{},\"vc_flat\":{vc_flat},\"out_port\":{},\"reason\":{}}}",
                packet.0, node.0, port(in_port), opt_port(out_port), json_str(reason.label())
            ),
            TraceEvent::BypassPop { at, packet, node, in_port, vc_flat, out_port } => format!(
                "{{\"at\":{at},\"packet\":{},\"node\":{},\"in_port\":{},\"vc_flat\":{vc_flat},\"out_port\":{}}}",
                packet.0, node.0, port(in_port), port(out_port)
            ),
            TraceEvent::BypassHop { at, packet, node, out_port } => format!(
                "{{\"at\":{at},\"packet\":{},\"node\":{},\"out_port\":{}}}",
                packet.0, node.0, port(out_port)
            ),
            TraceEvent::ControlHop { at, node, out_port, class, bits, vnet, origin, routing } => format!(
                "{{\"at\":{at},\"node\":{},\"out_port\":{},\"class\":{},\"bits\":{bits},\"vnet\":{},\"origin\":{},\"routing\":{}}}",
                node.0,
                port(out_port),
                json_str(match class {
                    ControlClass::ReqLike => "req",
                    ControlClass::AckLike => "ack",
                }),
                vnet.0,
                origin.0,
                json_str(match routing {
                    ControlRoute::Forward => "forward",
                    ControlRoute::Reverse => "reverse",
                }),
            ),
            TraceEvent::PopupStage { at, node, vnet, packet, from, to } => format!(
                "{{\"at\":{at},\"node\":{},\"vnet\":{},\"packet\":{},\"from\":{},\"to\":{}}}",
                node.0,
                vnet.0,
                match packet {
                    Some(p) => p.0.to_string(),
                    None => "null".into(),
                },
                json_str(from),
                json_str(to),
            ),
            TraceEvent::PopupSpan { node, vnet, packet, detected_at, completed_at, wait_ack, locate, pop } => format!(
                "{{\"node\":{},\"vnet\":{},\"packet\":{},\"detected_at\":{detected_at},\"completed_at\":{completed_at},\"wait_ack\":{wait_ack},\"locate\":{locate},\"pop\":{pop}}}",
                node.0, vnet.0, packet.0
            ),
        }
    }

    /// Renders the event as one self-contained JSONL line (no trailing
    /// newline).
    pub fn jsonl(&self) -> String {
        format!(
            "{{\"event\":{},\"args\":{}}}",
            json_str(self.name()),
            self.args_json()
        )
    }

    /// Renders the event as one Chrome trace-event object. Instant events
    /// use phase `"i"`; [`TraceEvent::PopupSpan`] becomes a complete
    /// (`"X"`) event with its duration. One simulated cycle maps to one
    /// microsecond of trace time.
    pub fn chrome_json(&self) -> String {
        let tid = self.node().map(|n| n.0).unwrap_or(0);
        match *self {
            TraceEvent::PopupSpan { detected_at, completed_at, .. } => format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{}}}",
                json_str(self.name()),
                detected_at,
                completed_at.saturating_sub(detected_at).max(1),
                self.args_json()
            ),
            _ => format!(
                "{{\"name\":{},\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{tid},\"s\":\"t\",\"args\":{}}}",
                json_str(self.name()),
                self.at(),
                self.args_json()
            ),
        }
    }
}

// --------------------------------------------------------------- tracer

/// Where recorded events go.
enum SinkState {
    /// Record nothing; every hook reduces to one predictable branch.
    Disabled,
    /// Keep the latest `capacity` events (oldest are dropped first).
    Ring {
        capacity: usize,
        buf: VecDeque<TraceEvent>,
        dropped: u64,
    },
    /// Stream each event as one JSON line to a writer.
    Jsonl {
        out: Box<dyn Write + Send>,
        written: u64,
    },
}

/// The flight recorder. Owned by [`crate::network::Network`]; disabled by
/// default.
///
/// Besides the event sink, a [`SpanRecorder`] can ride along (see
/// [`Tracer::set_profiler`]): it observes every recorded event and folds
/// the stream into per-packet latency spans. A profiler alone (sink
/// disabled) turns [`Tracer::enabled`] on, so the instrumentation sites
/// feed it without any extra branches.
pub struct Tracer {
    state: SinkState,
    profiler: Option<Box<SpanRecorder>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (kind, len) = match &self.state {
            SinkState::Disabled => ("disabled", 0),
            SinkState::Ring { buf, .. } => ("ring", buf.len()),
            SinkState::Jsonl { written, .. } => ("jsonl", *written as usize),
        };
        f.debug_struct("Tracer")
            .field("sink", &kind)
            .field("events", &len)
            .field("profiling", &self.profiler.is_some())
            .finish()
    }
}

impl Tracer {
    fn with_sink(state: SinkState) -> Self {
        Self {
            state,
            profiler: None,
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::with_sink(SinkState::Disabled)
    }

    /// A ring-buffer tracer holding the latest `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        Self::with_sink(SinkState::Ring {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        })
    }

    /// A streaming JSONL tracer.
    pub fn jsonl(out: Box<dyn Write + Send>) -> Self {
        Self::with_sink(SinkState::Jsonl { out, written: 0 })
    }

    /// A tracer that keeps every event, for a Chrome trace-event export
    /// ([`Tracer::chrome_trace_json`]): a ring with no bound.
    pub fn chrome() -> Self {
        Self::ring(usize::MAX)
    }

    /// True when events are being recorded (a sink is armed or a profiler
    /// is installed). Instrumentation sites branch on this before building
    /// event payloads, so a disabled tracer costs one predictable branch
    /// per site.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.profiler.is_some() || !matches!(self.state, SinkState::Disabled)
    }

    /// Installs (or removes) the per-packet span recorder, returning the
    /// previous one with whatever it has accumulated.
    pub fn set_profiler(
        &mut self,
        profiler: Option<Box<SpanRecorder>>,
    ) -> Option<Box<SpanRecorder>> {
        std::mem::replace(&mut self.profiler, profiler)
    }

    /// The installed span recorder, when any.
    pub fn profiler(&self) -> Option<&SpanRecorder> {
        self.profiler.as_deref()
    }

    /// Mutable access to the installed span recorder (drivers drain
    /// finished spans through this).
    pub fn profiler_mut(&mut self) -> Option<&mut SpanRecorder> {
        self.profiler.as_deref_mut()
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if let Some(p) = &mut self.profiler {
            p.observe(&ev);
        }
        match &mut self.state {
            SinkState::Disabled => {}
            SinkState::Ring {
                capacity,
                buf,
                dropped,
            } => {
                if buf.len() == *capacity {
                    buf.pop_front();
                    *dropped += 1;
                }
                buf.push_back(ev);
            }
            SinkState::Jsonl { out, written } => {
                let _ = writeln!(out, "{}", ev.jsonl());
                *written += 1;
            }
        }
    }

    /// Number of events currently retained (ring) or written so far
    /// (JSONL).
    pub fn len(&self) -> usize {
        match &self.state {
            SinkState::Disabled => 0,
            SinkState::Ring { buf, .. } => buf.len(),
            SinkState::Jsonl { written, .. } => *written as usize,
        }
    }

    /// True when no events have been retained or written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped from the ring buffer so far (0 for other sinks).
    pub fn dropped(&self) -> u64 {
        match &self.state {
            SinkState::Ring { dropped, .. } => *dropped,
            _ => 0,
        }
    }

    /// Iterates the retained events, oldest first (empty unless the sink is
    /// a ring).
    pub fn events(&self) -> Box<dyn Iterator<Item = &TraceEvent> + '_> {
        match &self.state {
            SinkState::Ring { buf, .. } => Box::new(buf.iter()),
            _ => Box::new(std::iter::empty()),
        }
    }

    /// Flushes a streaming sink.
    pub fn flush(&mut self) {
        if let SinkState::Jsonl { out, .. } = &mut self.state {
            let _ = out.flush();
        }
    }

    /// Renders the retained events as a complete Chrome trace-event JSON
    /// document (the `{"traceEvents": [...]}` object format understood by
    /// `chrome://tracing` and Perfetto). A disabled or streaming tracer
    /// yields an empty trace.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, ev) in self.events().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ev.chrome_json());
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

// ---------------------------------------------------- deadlock forensics

/// One input VC held by a wedged packet, with what it waits on.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VcHold {
    /// Router holding the flits.
    pub node: NodeId,
    /// Input port of the held VC.
    pub in_port: Port,
    /// Flat VC index.
    pub vc_flat: usize,
    /// Flits buffered in the VC.
    pub buffered: usize,
    /// True when the head-of-line flit is this packet's head flit.
    pub head_of_line: bool,
    /// Output port the packet needs next (route computation result).
    pub waits_out: Option<Port>,
    /// Downstream router on that output, when it exists.
    pub waits_node: Option<NodeId>,
}

/// One wedged packet and everything it holds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WedgedPacket {
    /// The packet.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// VNet.
    pub vnet: VnetId,
    /// Length in flits.
    pub len_flits: u16,
    /// Cycles since creation.
    pub age: u64,
    /// True when the head flit entered the network.
    pub injected: bool,
    /// Input VCs across the system currently owned by this packet.
    pub holds: Vec<VcHold>,
}

/// Forensic snapshot of a globally-stalled network: every wedged packet,
/// its hold/wait chains, and the circular wait over physical channels.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StallReport {
    /// Cycle the report was taken at.
    pub cycle: Cycle,
    /// Cycle of the last observed flit movement.
    pub last_progress: Cycle,
    /// Packets in flight.
    pub in_flight: usize,
    /// Wedged packets, ordered by id.
    pub wedged: Vec<WedgedPacket>,
    /// One circular wait over directed channels extracted from the runtime
    /// wait-for graph via [`crate::routing::GlobalCdg`]; empty when no
    /// cycle exists (e.g. starvation rather than deadlock).
    pub wait_cycle: Vec<GlobalChannel>,
    /// Per-node buffered-flit occupancy
    /// ([`crate::network::Network::occupancy`]) at the report cycle.
    pub occupancy: Vec<(NodeId, usize)>,
}

impl StallReport {
    /// True when a circular wait was found — the stall is a deadlock, not
    /// starvation.
    pub fn is_deadlock(&self) -> bool {
        !self.wait_cycle.is_empty()
    }

    /// Total flits held in router buffers by wedged packets.
    pub fn held_flits(&self) -> usize {
        self.wedged
            .iter()
            .flat_map(|w| w.holds.iter())
            .map(|h| h.buffered)
            .sum()
    }

    /// Renders the report as human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== stall report @ cycle {} (last progress {}, {} packets in flight) ===",
            self.cycle, self.last_progress, self.in_flight
        );
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.is_deadlock() {
                "DEADLOCK (circular wait found)"
            } else {
                "stall without a detected channel cycle"
            }
        );
        let _ = writeln!(out, "wedged packets ({}):", self.wedged.len());
        for w in &self.wedged {
            let _ = writeln!(
                out,
                "  {} {} {} -> {}, {} flits, age {}, {}",
                w.id,
                w.vnet,
                w.src,
                w.dest,
                w.len_flits,
                w.age,
                if w.injected {
                    "in network"
                } else {
                    "queued at source NI"
                }
            );
            for h in &w.holds {
                let wait = match (h.waits_out, h.waits_node) {
                    (Some(p), Some(n)) => format!("waits on {}:{} -> {}", h.node, p, n),
                    (Some(p), None) => format!("waits on {}:{} (NI)", h.node, p),
                    _ => "no route yet".to_string(),
                };
                let _ = writeln!(
                    out,
                    "    holds {}[{} vc{}] ({} flit{}{}), {}",
                    h.node,
                    h.in_port,
                    h.vc_flat,
                    h.buffered,
                    if h.buffered == 1 { "" } else { "s" },
                    if h.head_of_line { ", head-of-line" } else { "" },
                    wait
                );
            }
        }
        if self.is_deadlock() {
            let _ = writeln!(
                out,
                "circular wait over {} channels:",
                self.wait_cycle.len()
            );
            let chain = self
                .wait_cycle
                .iter()
                .map(|c| format!("{}:{}", c.from, c.out))
                .collect::<Vec<_>>()
                .join(" -> ");
            let first = self
                .wait_cycle
                .first()
                .map(|c| format!(" -> {}:{}", c.from, c.out))
                .unwrap_or_default();
            let _ = writeln!(out, "  {chain}{first}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal JSON well-formedness checker for exporter tests: validates
    /// bracket/brace balance, string escapes and bare-token shape without
    /// building a tree.
    fn json_is_wellformed(s: &str) -> bool {
        let b = s.as_bytes();
        let mut i = 0usize;
        let mut stack: Vec<u8> = Vec::new();
        let mut saw_value = false;
        while i < b.len() {
            match b[i] {
                b'{' | b'[' => {
                    stack.push(b[i]);
                    i += 1;
                }
                b'}' => {
                    if stack.pop() != Some(b'{') {
                        return false;
                    }
                    saw_value = true;
                    i += 1;
                }
                b']' => {
                    if stack.pop() != Some(b'[') {
                        return false;
                    }
                    saw_value = true;
                    i += 1;
                }
                b'"' => {
                    i += 1;
                    loop {
                        if i >= b.len() {
                            return false;
                        }
                        match b[i] {
                            b'\\' => {
                                if i + 1 >= b.len() {
                                    return false;
                                }
                                i += 2;
                            }
                            b'"' => {
                                i += 1;
                                break;
                            }
                            c if c < 0x20 => return false,
                            _ => i += 1,
                        }
                    }
                    saw_value = true;
                }
                b',' | b':' | b' ' | b'\n' | b'\t' | b'\r' => i += 1,
                c if c == b'-' || c.is_ascii_digit() => {
                    while i < b.len()
                        && (b[i].is_ascii_digit()
                            || matches!(b[i], b'-' | b'+' | b'.' | b'e' | b'E'))
                    {
                        i += 1;
                    }
                    saw_value = true;
                }
                b't' | b'f' | b'n' => {
                    let ok = s[i..].starts_with("true")
                        || s[i..].starts_with("false")
                        || s[i..].starts_with("null");
                    if !ok {
                        return false;
                    }
                    i += if s[i..].starts_with("false") { 5 } else { 4 };
                    saw_value = true;
                }
                _ => return false,
            }
        }
        stack.is_empty() && saw_value
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PacketCreated {
                at: 1,
                packet: PacketId(7),
                src: NodeId(0),
                dest: NodeId(9),
                vnet: VnetId(2),
                len_flits: 5,
            },
            TraceEvent::PacketInjected {
                at: 3,
                packet: PacketId(7),
                node: NodeId(0),
            },
            TraceEvent::VcAllocated {
                at: 5,
                packet: PacketId(7),
                node: NodeId(4),
                in_port: Port::West,
                vc_flat: 2,
                out_port: Port::Up,
                out_vc: 2,
            },
            TraceEvent::Blocked {
                at: 6,
                packet: PacketId(7),
                node: NodeId(4),
                in_port: Port::West,
                vc_flat: 2,
                out_port: Some(Port::Up),
                reason: BlockReason::Credit,
            },
            TraceEvent::Blocked {
                at: 6,
                packet: PacketId(8),
                node: NodeId(5),
                in_port: Port::Local,
                vc_flat: 0,
                out_port: None,
                reason: BlockReason::SwitchAlloc,
            },
            TraceEvent::BypassPop {
                at: 7,
                packet: PacketId(7),
                node: NodeId(4),
                in_port: Port::West,
                vc_flat: 2,
                out_port: Port::Up,
            },
            TraceEvent::BypassHop {
                at: 8,
                packet: PacketId(7),
                node: NodeId(9),
                out_port: Port::North,
            },
            TraceEvent::ControlHop {
                at: 9,
                node: NodeId(4),
                out_port: Port::Up,
                class: ControlClass::ReqLike,
                bits: 0xdead,
                vnet: VnetId(2),
                origin: NodeId(4),
                routing: ControlRoute::Forward,
            },
            TraceEvent::PopupStage {
                at: 10,
                node: NodeId(4),
                vnet: VnetId(2),
                packet: Some(PacketId(7)),
                from: "Idle",
                to: "WaitAck",
            },
            TraceEvent::PopupStage {
                at: 10,
                node: NodeId(4),
                vnet: VnetId(2),
                packet: None,
                from: "WaitAck",
                to: "Idle",
            },
            TraceEvent::PopupSpan {
                node: NodeId(4),
                vnet: VnetId(2),
                packet: PacketId(7),
                detected_at: 10,
                completed_at: 31,
                wait_ack: 12,
                locate: 0,
                pop: 9,
            },
            TraceEvent::PacketEjected {
                at: 31,
                packet: PacketId(7),
                node: NodeId(9),
                net_latency: 28,
                total_latency: 30,
            },
        ]
    }

    #[test]
    fn validator_rejects_malformed_json() {
        assert!(json_is_wellformed(r#"{"a":[1,2,{"b":"c\"d"}],"e":null}"#));
        assert!(!json_is_wellformed(r#"{"a":1"#));
        assert!(!json_is_wellformed(r#"{"a":}"#) || json_is_wellformed("{}"));
        assert!(!json_is_wellformed(r#"{"a":1]"#));
        assert!(!json_is_wellformed(r#"{"a":"unterminated}"#));
        assert!(!json_is_wellformed("garbage"));
    }

    #[test]
    fn every_event_renders_wellformed_jsonl() {
        for ev in sample_events() {
            let line = ev.jsonl();
            assert!(json_is_wellformed(&line), "malformed JSONL: {line}");
            assert!(line.contains(ev.name()), "name missing in {line}");
        }
    }

    #[test]
    fn chrome_trace_document_is_wellformed_and_complete() {
        let mut t = Tracer::chrome();
        let events = sample_events();
        for ev in events.clone() {
            t.record(ev);
        }
        let doc = t.chrome_trace_json();
        assert!(json_is_wellformed(&doc), "malformed Chrome trace: {doc}");
        assert!(doc.starts_with("{\"traceEvents\":["));
        for ev in &events {
            assert!(doc.contains(ev.name()));
        }
        // The popup span is the one complete ("X") event and carries a
        // positive duration.
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 1);
        assert!(doc.contains("\"dur\":21"));
        // Instant events mark thread scope.
        assert_eq!(doc.matches("\"ph\":\"i\"").count(), events.len() - 1);
    }

    #[test]
    fn empty_chrome_trace_is_valid() {
        let t = Tracer::chrome();
        let doc = t.chrome_trace_json();
        assert!(json_is_wellformed(&doc));
        assert!(doc.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn ring_buffer_bounds_retention_and_counts_drops() {
        let mut t = Tracer::ring(3);
        for i in 0..10u64 {
            t.record(TraceEvent::PacketInjected {
                at: i,
                packet: PacketId(i),
                node: NodeId(0),
            });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let ats: Vec<Cycle> = t.events().map(|e| e.at()).collect();
        assert_eq!(ats, vec![7, 8, 9], "oldest events are evicted first");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled());
        t.record(TraceEvent::PacketInjected {
            at: 0,
            packet: PacketId(0),
            node: NodeId(0),
        });
        assert!(t.is_empty());
        assert_eq!(t.events().count(), 0);
    }

    #[test]
    fn jsonl_sink_streams_one_line_per_event() {
        let buf: Vec<u8> = Vec::new();
        let shared = std::sync::Arc::new(std::sync::Mutex::new(buf));
        struct SharedWriter(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut t = Tracer::jsonl(Box::new(SharedWriter(std::sync::Arc::clone(&shared))));
        for ev in sample_events() {
            t.record(ev);
        }
        t.flush();
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for line in lines {
            assert!(json_is_wellformed(line), "malformed line: {line}");
        }
    }

    #[test]
    fn stall_report_text_names_packets_and_cycle() {
        let report = StallReport {
            cycle: 5_000,
            last_progress: 3_979,
            in_flight: 2,
            wedged: vec![
                WedgedPacket {
                    id: PacketId(3),
                    src: NodeId(0),
                    dest: NodeId(70),
                    vnet: VnetId(2),
                    len_flits: 5,
                    age: 4_000,
                    injected: true,
                    holds: vec![VcHold {
                        node: NodeId(64),
                        in_port: Port::West,
                        vc_flat: 2,
                        buffered: 3,
                        head_of_line: true,
                        waits_out: Some(Port::Up),
                        waits_node: Some(NodeId(12)),
                    }],
                },
                WedgedPacket {
                    id: PacketId(4),
                    src: NodeId(12),
                    dest: NodeId(1),
                    vnet: VnetId(2),
                    len_flits: 5,
                    age: 3_990,
                    injected: true,
                    holds: vec![],
                },
            ],
            wait_cycle: vec![
                GlobalChannel {
                    from: NodeId(64),
                    out: Port::Up,
                },
                GlobalChannel {
                    from: NodeId(12),
                    out: Port::South,
                },
            ],
            occupancy: vec![(NodeId(64), 3)],
        };
        assert!(report.is_deadlock());
        assert_eq!(report.held_flits(), 3);
        let text = report.render_text();
        assert!(text.contains("cycle 5000"));
        assert!(text.contains("p3"));
        assert!(text.contains("p4"));
        assert!(text.contains("DEADLOCK"));
        assert!(text.contains("holds n64[W vc2]"));
        assert!(text.contains("waits on n64:U -> n12"));
        assert!(
            text.contains("n64:U -> n12:S -> n64:U"),
            "cycle closes on itself:\n{text}"
        );
    }

    #[test]
    fn hostile_strings_round_trip_through_serde_json_escaping() {
        // &'static str fields can legally contain quotes, backslashes and
        // control characters; the renderers must escape them, not trust
        // them.
        let hostile = TraceEvent::PopupStage {
            at: 3,
            node: NodeId(1),
            vnet: VnetId(0),
            packet: None,
            from: "quo\"te\\back\nline\ttab",
            to: "}{\"pwn\":1,\"x\":\"",
        };
        for rendered in [hostile.jsonl(), hostile.chrome_json(), hostile.args_json()] {
            assert!(json_is_wellformed(&rendered), "malformed: {rendered}");
            let v = serde_json::from_str(&rendered).expect("parses back");
            let obj = if rendered == hostile.args_json() {
                v
            } else {
                v.get("args").cloned().expect("args object")
            };
            assert_eq!(
                obj.get("from").and_then(|s| s.as_str()),
                Some("quo\"te\\back\nline\ttab")
            );
            assert_eq!(
                obj.get("to").and_then(|s| s.as_str()),
                Some("}{\"pwn\":1,\"x\":\"")
            );
        }
    }

    #[test]
    fn profiling_tracer_feeds_spans_without_a_sink() {
        let mut t = Tracer::disabled();
        t.set_profiler(Some(Box::new(SpanRecorder::new())));
        assert!(t.enabled(), "profiler alone must light the hook sites");
        for ev in sample_events() {
            t.record(ev);
        }
        assert!(t.is_empty(), "no sink: no retained events");
        let spans = t
            .profiler_mut()
            .expect("profiler installed")
            .drain_finished();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.packet, PacketId(7));
        assert_eq!(s.net_latency(), 28);
        assert_eq!(s.total_latency(), 30);
        assert_eq!(s.wait_ack, 12);
        assert_eq!(s.pop, 9);
        // Moving the profiler out leaves a plain disabled tracer.
        let p = t.set_profiler(None);
        assert!(p.is_some());
        assert!(!t.enabled());
    }
}
