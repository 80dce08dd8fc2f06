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
//!   `chrome://tracing` / Perfetto), or a JSONL stream
//!   ([`TraceEvent::jsonl`] writes a line, [`TraceEvent::from_jsonl`]
//!   reads it back). Every hook is a recording site: the kernel runs the
//!   same path whether or not a tracer is armed (see the
//!   `trace_determinism` integration test). A blocked VC the kernel does
//!   not look at — parked until a re-arm, or waiting in a router that
//!   sleeps — is charged by the tracer instead, as one
//!   [`TraceEvent::BlockedSpan`] when the kernel looks again.
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
use serde_json::Value;
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

/// A field of a trace event as its JSONL line writes it and reads it back.
trait Arg: Sized {
    /// Appends the field's JSON value to `out`.
    fn write(&self, out: &mut String);
    /// Reads a value back; `None` when it is missing or not one.
    fn read(v: Option<&Value>) -> Option<Self>;
}

/// Numbers, and the id types that wrap one, are written bare.
macro_rules! number_arg {
    ($($t:ty),*) => {$(
        impl Arg for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(v: Option<&Value>) -> Option<Self> {
                v?.as_u64().map(|n| n as $t)
            }
        }
    )*};
}
number_arg!(u64, u32, u16, u8, usize);

macro_rules! id_arg {
    ($($id:ident),*) => {$(
        impl Arg for $id {
            fn write(&self, out: &mut String) {
                Arg::write(&self.0, out)
            }
            fn read(v: Option<&Value>) -> Option<Self> {
                Arg::read(v).map($id)
            }
        }
    )*};
}
id_arg!(NodeId, PacketId, VnetId);

/// Enums are written as one string label per value.
macro_rules! label_arg {
    ($($t:ty { $($v:path => $label:literal),* })*) => {$(
        impl Arg for $t {
            fn write(&self, out: &mut String) {
                out.push_str(&json_str(match self { $($v => $label),* }));
            }
            fn read(v: Option<&Value>) -> Option<Self> {
                match v?.as_str()? {
                    $($label => Some($v),)*
                    _ => None,
                }
            }
        }
    )*};
}
label_arg! {
    BlockReason {
        BlockReason::Credit => "credit",
        BlockReason::VcAlloc => "vc",
        BlockReason::SwitchAlloc => "sa"
    }
    ControlClass { ControlClass::ReqLike => "req", ControlClass::AckLike => "ack" }
    ControlRoute { ControlRoute::Forward => "forward", ControlRoute::Reverse => "reverse" }
}

impl Arg for Port {
    fn write(&self, out: &mut String) {
        out.push_str(&json_str(&self.to_string()));
    }
    fn read(v: Option<&Value>) -> Option<Self> {
        v?.as_str()?.parse().ok()
    }
}

/// `null` when absent; a missing or unreadable port reads as absent.
impl Arg for Option<Port> {
    fn write(&self, out: &mut String) {
        match self {
            Some(p) => p.write(out),
            None => out.push_str("null"),
        }
    }
    fn read(v: Option<&Value>) -> Option<Self> {
        Some(Port::read(v))
    }
}

impl Arg for String {
    fn write(&self, out: &mut String) {
        out.push_str(&json_str(self));
    }
    fn read(v: Option<&Value>) -> Option<Self> {
        v?.as_str().map(str::to_string)
    }
}

/// Declares [`TraceEvent`] and its JSONL codec from one list: each variant
/// with its event name and its fields, in the order a line writes them.
macro_rules! trace_events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $name:literal {
            $($(#[$field_doc:meta])* $field:ident: $ty:ty,)*
        }
    )*) => {
        /// One recorded observation. Every variant carries the cycle it
        /// happened at and enough identity to reconstruct a packet's path
        /// after the fact.
        #[derive(Debug, Clone, PartialEq, Serialize)]
        pub enum TraceEvent {
            $($(#[$doc])* $variant { $($(#[$field_doc])* $field: $ty,)* },)*
        }

        impl TraceEvent {
            /// Short event name (the JSONL `event` and the Chrome trace
            /// `name` field).
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $name,)*
                }
            }

            /// Renders the event's payload as a JSON object (the Chrome
            /// trace `args` field and the JSONL line body), one key per
            /// field. Numbers are written by hand, so the tracer needs no
            /// serializer in its hot path, but every string goes through
            /// the serde_json writer's escaping ([`json_str`]) — stage
            /// labels and port names can never corrupt the output.
            pub fn args_json(&self) -> String {
                let mut out = String::new();
                match self {
                    $(TraceEvent::$variant { $($field,)* } => {
                        $(
                            out.push(if out.is_empty() { '{' } else { ',' });
                            out.push_str(concat!("\"", stringify!($field), "\":"));
                            Arg::write($field, &mut out);
                        )*
                    })*
                }
                out.push('}');
                out
            }

            /// Parses one line [`TraceEvent::jsonl`] rendered back into the
            /// event; `None` when the line is not one.
            pub fn from_jsonl(line: &str) -> Option<TraceEvent> {
                let v = serde_json::from_str(line.trim()).ok()?;
                let args = v.get("args")?;
                Some(match v.get("event")?.as_str()? {
                    $($name => TraceEvent::$variant {
                        $($field: Arg::read(args.get(stringify!($field)))?,)*
                    },)*
                    _ => return None,
                })
            }
        }
    };
}

trace_events! {
    /// A packet was enqueued at its source NI.
    PacketCreated = "packet_created" {
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
    }
    /// A packet's head flit left its source NI into the network.
    PacketInjected = "packet_injected" {
        /// Cycle of the observation.
        at: Cycle,
        /// The packet.
        packet: PacketId,
        /// Injecting node.
        node: NodeId,
    }
    /// A packet was fully assembled at its destination NI.
    PacketEjected = "packet_ejected" {
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
    }
    /// A head flit won switch allocation and was assigned a downstream VC.
    VcAllocated = "vc_allocated" {
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
    }
    /// A buffered head-of-line flit could not advance this cycle. A VC
    /// that stays blocked without being looked at again is charged by the
    /// [`TraceEvent::BlockedSpan`] that follows.
    Blocked = "blocked" {
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
    }
    /// A run of cycles `from..to` in which an input VC stayed blocked, as a
    /// [`TraceEvent::Blocked`] in each of them would have reported it: the
    /// VC was parked, or waited in a router that slept, after the
    /// `Blocked` event of the evaluation that found it blocked.
    BlockedSpan = "blocked_span" {
        /// First blocked cycle.
        from: Cycle,
        /// First cycle past the span.
        to: Cycle,
        /// The stalled packet.
        packet: PacketId,
        /// Router it is stalled at.
        node: NodeId,
        /// Input port of the stalled VC.
        in_port: Port,
        /// Flat input VC index.
        vc_flat: usize,
        /// Output port the flit wants.
        out_port: Port,
        /// Why it could not advance.
        reason: BlockReason,
    }
    /// A flit was popped out of an input VC into the bypass latch (the
    /// popup transmission of Sec. V-C).
    BypassPop = "bypass_pop" {
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
    }
    /// An upward flit crossed a router through the single-ST bypass path.
    BypassHop = "bypass_hop" {
        /// Cycle of the observation.
        at: Cycle,
        /// The upward packet.
        packet: PacketId,
        /// Router traversed.
        node: NodeId,
        /// Port the flit left through.
        out_port: Port,
    }
    /// A control signal won switch allocation and traversed a link
    /// (Fig. 4 fields: class, raw 32-bit encoding, VNet, origin).
    ControlHop = "control_hop" {
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
    }
    /// A UPP popup state machine changed stage at an interposer router.
    PopupStage = "popup_stage" {
        /// Cycle of the observation.
        at: Cycle,
        /// Interposer router owning the state machine.
        node: NodeId,
        /// VNet of the popup.
        vnet: VnetId,
        /// The popup's upward packet.
        packet: PacketId,
        /// Stage left.
        from: String,
        /// Stage entered.
        to: String,
    }
    /// A completed popup, with its per-stage latency decomposition.
    PopupSpan = "popup_span" {
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
    }
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
            TraceEvent::BlockedSpan { from, .. } => from,
            TraceEvent::PopupSpan { detected_at, .. } => detected_at,
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
            | TraceEvent::BlockedSpan { node, .. }
            | TraceEvent::BypassPop { node, .. }
            | TraceEvent::BypassHop { node, .. }
            | TraceEvent::ControlHop { node, .. }
            | TraceEvent::PopupStage { node, .. }
            | TraceEvent::PopupSpan { node, .. } => Some(node),
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
    /// use phase `"i"`; the two span events ([`TraceEvent::BlockedSpan`],
    /// [`TraceEvent::PopupSpan`]) become complete (`"X"`) events with their
    /// duration. One simulated cycle maps to one microsecond of trace time.
    pub fn chrome_json(&self) -> String {
        let tid = self.node().map(|n| n.0).unwrap_or(0);
        let span = match *self {
            TraceEvent::BlockedSpan { from, to, .. } => Some((from, to)),
            TraceEvent::PopupSpan {
                detected_at,
                completed_at,
                ..
            } => Some((detected_at, completed_at)),
            _ => None,
        };
        match span {
            Some((from, to)) => format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{from},\"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{}}}",
                json_str(self.name()),
                to.saturating_sub(from).max(1),
                self.args_json()
            ),
            None => format!(
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

/// A blocked input VC the kernel is not looking at, and the cycles it has
/// been blocked since the tracer last charged it
/// ([`TraceEvent::BlockedSpan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OpenSpan {
    pub in_port: Port,
    pub vc_flat: usize,
    pub packet: PacketId,
    pub out_port: Port,
    pub reason: BlockReason,
    /// First cycle not charged yet.
    pub from: Cycle,
}

/// The flight recorder. Owned by [`crate::network::Network`]; disabled by
/// default.
///
/// Besides the event sink, a [`SpanRecorder`] can ride along (see
/// [`Tracer::set_profiler`]): it observes every recorded event and folds
/// the stream into per-packet latency spans. A profiler alone (sink
/// disabled) turns [`Tracer::enabled`] on, so the instrumentation sites
/// feed it without any extra branches.
///
/// The tracer also keeps the open spans of blocked VCs the kernel skips
/// (see [`TraceEvent::BlockedSpan`]), per router. The kernel opens one
/// where a VC parks and where a router goes to sleep with VCs waiting on
/// an ejection entry, and closes it at the step that looks at the VC
/// again; what is still open when tracing stops or changes hands closes at
/// that cycle.
pub struct Tracer {
    state: SinkState,
    profiler: Option<Box<SpanRecorder>>,
    /// Open spans by node index.
    open: Vec<Vec<OpenSpan>>,
    /// The cycle the network last stepped with this tracer armed; `None`
    /// until it first does.
    clock: Option<Cycle>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A tracer dropped while armed (say, with the network that owns it) closes
/// its open spans first, as [`crate::network::Network::set_tracer`] does,
/// so its sink and profiler see the blocked cycles up to the last one
/// stepped.
impl Drop for Tracer {
    fn drop(&mut self) {
        self.end_spans();
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
            .field("open_spans", &self.open.iter().map(Vec::len).sum::<usize>())
            .finish()
    }
}

impl Tracer {
    fn with_sink(state: SinkState) -> Self {
        Self {
            state,
            profiler: None,
            open: Vec::new(),
            clock: None,
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
    /// previous one with whatever it has accumulated: open spans are
    /// charged up to the current cycle first, so each recorder sees exactly
    /// the cycles it was installed for.
    pub fn set_profiler(
        &mut self,
        profiler: Option<Box<SpanRecorder>>,
    ) -> Option<Box<SpanRecorder>> {
        self.split_spans();
        let old = std::mem::replace(&mut self.profiler, profiler);
        if !self.enabled() {
            self.open.clear();
            self.clock = None;
        }
        old
    }

    /// Tells the tracer the cycle the network is about to step. True on the
    /// first call after arming: the caller then opens a span for every VC
    /// that is blocked already ([`Tracer::open_span`]).
    pub(crate) fn sync(&mut self, now: Cycle) -> bool {
        self.clock.replace(now).is_none()
    }

    /// Records that an evaluation in cycle `span.from` found one of
    /// `node`'s input VCs blocked. A `parked` one's span opens from the next
    /// cycle: the kernel does not look at the VC again until a re-arm.
    pub(crate) fn blocked(&mut self, node: NodeId, span: OpenSpan, parked: bool) {
        self.record(TraceEvent::Blocked {
            at: span.from,
            packet: span.packet,
            node,
            in_port: span.in_port,
            vc_flat: span.vc_flat,
            out_port: Some(span.out_port),
            reason: span.reason,
        });
        if parked {
            let from = span.from + 1;
            self.open_span(node, OpenSpan { from, ..span });
        }
    }

    /// Opens a span on one of `node`'s input VCs, which has none open.
    pub(crate) fn open_span(&mut self, node: NodeId, span: OpenSpan) {
        let i = node.index();
        if self.open.len() <= i {
            self.open.resize_with(i + 1, Vec::new);
        }
        debug_assert!(
            !self.open[i]
                .iter()
                .any(|s| (s.in_port, s.vc_flat) == (span.in_port, span.vc_flat)),
            "a second open span on {node} {} VC {}",
            span.in_port,
            span.vc_flat
        );
        self.open[i].push(span);
    }

    /// The open spans on `node`'s input VCs.
    pub(crate) fn spans(&self, node: NodeId) -> &[OpenSpan] {
        self.open.get(node.index()).map_or(&[], Vec::as_slice)
    }

    /// Closes at `to` the open spans on `node`'s input VCs that are not
    /// `parked` (one word per input port).
    pub(crate) fn close_spans(&mut self, node: NodeId, parked: &[u64; Port::COUNT], to: Cycle) {
        let unparked = |s: &OpenSpan| parked[s.in_port.index()] >> s.vc_flat & 1 == 0;
        self.charge_spans(node.index(), to, None, unparked);
    }

    /// Leaves cycle `at` out of the open spans on the VCs `vcs` (a bit per
    /// VC) of `node`'s input port `in_port`: switch allocation did not
    /// evaluate them in that cycle (a bypass flit claimed the port, or a
    /// priority bid ended the port's scan before them).
    pub(crate) fn skip_cycle(&mut self, node: NodeId, in_port: Port, vcs: u64, at: Cycle) {
        let skipped = |s: &OpenSpan| s.in_port == in_port && vcs >> s.vc_flat & 1 == 1;
        self.charge_spans(node.index(), at, Some(at + 1), skipped);
    }

    /// Closes every open span at the end of the cycle last stepped: the
    /// tracer is leaving the network.
    pub(crate) fn end_spans(&mut self) {
        self.split_spans();
        self.open.clear();
        self.clock = None;
    }

    /// Charges every open span up to the end of the cycle last stepped and
    /// restarts it there.
    fn split_spans(&mut self) {
        if let Some(clock) = self.clock {
            for i in 0..self.open.len() {
                self.charge_spans(i, clock + 1, Some(clock + 1), |_| true);
            }
        }
    }

    /// Charges the open spans of node `i` that `pick` selects up to `to`,
    /// then restarts them at `restart`, or closes them.
    fn charge_spans(
        &mut self,
        i: usize,
        to: Cycle,
        restart: Option<Cycle>,
        pick: impl Fn(&OpenSpan) -> bool,
    ) {
        let Some(spans) = self.open.get_mut(i).filter(|s| !s.is_empty()) else {
            return;
        };
        let mut spans = std::mem::take(spans);
        spans.retain_mut(|s| {
            if !pick(s) {
                return true;
            }
            self.charge(NodeId(i as u32), s, to);
            restart.map(|from| s.from = from).is_some()
        });
        self.open[i] = spans;
    }

    /// Records span `s`'s cycles before `to`, if it has any.
    fn charge(&mut self, node: NodeId, s: &OpenSpan, to: Cycle) {
        if to > s.from {
            self.record(TraceEvent::BlockedSpan {
                from: s.from,
                to,
                packet: s.packet,
                node,
                in_port: s.in_port,
                vc_flat: s.vc_flat,
                out_port: s.out_port,
                reason: s.reason,
            });
        }
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

    fn json_is_wellformed(s: &str) -> bool {
        serde_json::from_str(s).is_ok()
    }

    /// One packet's life: created, injected, blocked (one cycle, then a
    /// span of two), popped up and ejected.
    fn sample_events() -> Vec<TraceEvent> {
        let (packet, node) = (PacketId(7), NodeId(4));
        vec![
            TraceEvent::PacketCreated {
                at: 1,
                packet,
                src: NodeId(0),
                dest: NodeId(9),
                vnet: VnetId(2),
                len_flits: 5,
            },
            TraceEvent::PacketInjected {
                at: 3,
                packet,
                node: NodeId(0),
            },
            TraceEvent::Blocked {
                at: 6,
                packet,
                node,
                in_port: Port::West,
                vc_flat: 2,
                out_port: Some(Port::Up),
                reason: BlockReason::Credit,
            },
            TraceEvent::BlockedSpan {
                from: 7,
                to: 9,
                packet,
                node,
                in_port: Port::West,
                vc_flat: 2,
                out_port: Port::Up,
                reason: BlockReason::Credit,
            },
            TraceEvent::PopupSpan {
                node,
                vnet: VnetId(2),
                packet,
                detected_at: 10,
                completed_at: 31,
                wait_ack: 12,
                locate: 0,
                pop: 9,
            },
            TraceEvent::PacketEjected {
                at: 31,
                packet,
                node: NodeId(9),
                net_latency: 28,
                total_latency: 30,
            },
        ]
    }

    #[test]
    fn every_event_renders_wellformed_jsonl() {
        for ev in sample_events() {
            let line = ev.jsonl();
            assert!(json_is_wellformed(&line), "malformed JSONL: {line}");
            assert_eq!(TraceEvent::from_jsonl(&line), Some(ev), "{line}");
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
        // The blocked and popup spans are the complete ("X") events and
        // carry their durations.
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 2);
        assert!(doc.contains("\"dur\":2,"));
        assert!(doc.contains("\"dur\":21"));
        // Instant events mark thread scope.
        assert_eq!(doc.matches("\"ph\":\"i\"").count(), events.len() - 2);
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
        // String fields can legally contain quotes, backslashes and control
        // characters; the renderers must escape them, not trust them, and
        // the parser must read them back.
        let hostile = TraceEvent::PopupStage {
            at: 3,
            node: NodeId(1),
            vnet: VnetId(0),
            packet: PacketId(0),
            from: "quo\"te\\back\nline\ttab".into(),
            to: "}{\"pwn\":1,\"x\":\"".into(),
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
        assert_eq!(TraceEvent::from_jsonl(&hostile.jsonl()), Some(hostile));
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
