//! Staged link events.
//!
//! Every cross-component effect — flit transfers, credit returns, control
//! messages — is staged through a calendar keyed by arrival cycle, so the
//! order in which routers are processed within a cycle can never matter.

use crate::control::ControlMsg;
use crate::ids::{Cycle, NodeId, Port};
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

/// The component an [`Event`] delivers into — what the scheduler must wake
/// when the event arrives, and for a router, from when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeTarget {
    /// The event mutates a router. A step can act on what it wrote from
    /// `delay` cycles after the delivery cycle.
    Router {
        /// The router.
        node: NodeId,
        /// Cycles between delivery and the first step that can use it.
        delay: Cycle,
    },
    /// The event mutates an NI, whose step acts on it in the delivery cycle.
    Ni(NodeId),
}

impl Event {
    /// The component this event delivers into.
    ///
    /// Every delivery schedules its target, even a credit return that finds
    /// a router holding nothing (`finish_cycle` deschedules that one
    /// unstepped). What differs is the first cycle a step can use the
    /// delivery, which picks the scheduler's due-now or its due-next set:
    /// a credit counts in the step of its delivery cycle, while a flit
    /// attends allocation from the cycle after its buffer write, so a router
    /// that is otherwise asleep is not stepped in the write cycle. A control
    /// message is also gated for one cycle but wakes at once: the step of
    /// its arrival cycle samples the control-buffer high-water marks in
    /// [`crate::stats::NetStats`], which the always-tick reference takes
    /// with the message queued.
    pub fn wake_target(&self) -> WakeTarget {
        match *self {
            Event::FlitArrive { node, .. } => WakeTarget::Router { node, delay: 1 },
            Event::CreditArrive { node, .. } | Event::ControlArrive { node, .. } => {
                WakeTarget::Router { node, delay: 0 }
            }
            Event::NiCreditArrive { node, .. }
            | Event::NiFlitArrive { node, .. }
            | Event::NiControlArrive { node, .. } => WakeTarget::Ni(node),
        }
    }
}
