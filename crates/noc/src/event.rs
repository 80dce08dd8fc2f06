//! Staged link events.
//!
//! Every cross-component effect — flit transfers, credit returns, control
//! messages — is staged through a calendar keyed by arrival cycle, so the
//! order in which routers are processed within a cycle can never matter.

use crate::control::ControlMsg;
use crate::ids::{NodeId, Port};
use crate::packet::Flit;

/// A staged delivery.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A flit arrives at a router input port.
    FlitArrive {
        /// Receiving router.
        node: NodeId,
        /// Input port it arrives on.
        in_port: Port,
        /// Flat index of the input VC the sender allocated (ignored for
        /// upward bypass flits).
        vc_flat: usize,
        /// The flit.
        flit: Flit,
    },
    /// A credit returns to a router output VC.
    CreditArrive {
        /// Router receiving the credit.
        node: NodeId,
        /// Output port the credit belongs to.
        out_port: Port,
        /// Flat VC index.
        vc_flat: usize,
        /// True when the downstream VC was freed (tail drained).
        is_free: bool,
    },
    /// A credit returns to an NI injection VC.
    NiCreditArrive {
        /// The NI's node.
        node: NodeId,
        /// Flat VC index toward the router's Local input port.
        vc_flat: usize,
        /// True when the router's Local input VC was freed.
        is_free: bool,
    },
    /// A flit is delivered to an NI through the router's Local output port.
    NiFlitArrive {
        /// The NI's node.
        node: NodeId,
        /// The flit.
        flit: Flit,
    },
    /// A control message arrives at a router.
    ControlArrive {
        /// Receiving router.
        node: NodeId,
        /// Input port.
        in_port: Port,
        /// The message.
        msg: ControlMsg,
    },
    /// A control message is delivered to an NI inbox.
    NiControlArrive {
        /// The NI's node.
        node: NodeId,
        /// Port the message arrived on at the final router.
        in_port: Port,
        /// The message.
        msg: ControlMsg,
    },
}

/// The component an [`Event`] delivers into — what the active-set scheduler
/// must wake when the event arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeTarget {
    /// The event mutates a router.
    Router(NodeId),
    /// The event mutates an NI.
    Ni(NodeId),
}

impl Event {
    /// The component this event delivers into.
    ///
    /// Every delivery wakes its target, even credit returns that can never
    /// create work on their own: a uniform rule keeps the scheduler's
    /// conservative invariant ("anything an event touched is scheduled next
    /// cycle") trivially audit-able. It costs no step: `finish_cycle`
    /// deschedules a woken router that holds nothing instead of stepping
    /// it, and an NI's step returns at once on an empty backlog.
    pub fn wake_target(&self) -> WakeTarget {
        match *self {
            Event::FlitArrive { node, .. }
            | Event::CreditArrive { node, .. }
            | Event::ControlArrive { node, .. } => WakeTarget::Router(node),
            Event::NiCreditArrive { node, .. }
            | Event::NiFlitArrive { node, .. }
            | Event::NiControlArrive { node, .. } => WakeTarget::Ni(node),
        }
    }
}
