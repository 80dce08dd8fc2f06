//! Staged link events.
//!
//! Every cross-component effect — flit transfers, credit returns, control
//! messages — is staged through a calendar keyed by arrival cycle, so the
//! order in which routers are processed within a cycle can never matter.
//!
//! An [`Event`] is 16 bytes, so a staged `(Cycle, Event)` is 24: VC indices
//! are bytes (a port carries at most
//! [`MAX_VCS_PER_PORT`](crate::config::MAX_VCS_PER_PORT) VCs), and a
//! control message, more than five times the size of a flit, waits in the network's
//! slab of staged control messages while its event carries a
//! [`ControlRef`].

use crate::control::ControlMsg;
use crate::ids::{Cycle, NodeId, Port};
use crate::packet::Flit;

/// Handle of a control message staged in the network's slab of control
/// messages (the message itself is 44 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlRef(u32);

/// The control messages in flight between routers: a slab whose slots are
/// recycled through a free list, so it grows to the peak number of staged
/// messages and then allocates no more. A message enters where a router
/// emits it ([`ControlSlab::put`]) and leaves where its event is
/// delivered ([`ControlSlab::take`]).
#[derive(Debug, Default)]
pub(crate) struct ControlSlab {
    msgs: Vec<ControlMsg>,
    free: Vec<ControlRef>,
}

impl ControlSlab {
    /// Stages `msg`; its event carries the returned handle.
    pub(crate) fn put(&mut self, msg: ControlMsg) -> ControlRef {
        match self.free.pop() {
            Some(r) => {
                self.msgs[r.0 as usize] = msg;
                r
            }
            None => {
                let r = ControlRef(
                    u32::try_from(self.msgs.len()).expect("staged control messages fit u32"),
                );
                self.msgs.push(msg);
                r
            }
        }
    }

    /// Removes the message behind `r`, freeing its slot.
    pub(crate) fn take(&mut self, r: ControlRef) -> ControlMsg {
        debug_assert!(!self.free.contains(&r), "control slot {} taken twice", r.0);
        self.free.push(r);
        self.msgs[r.0 as usize]
    }

    /// Exact heap bytes of the slab and its free list.
    pub(crate) fn mem_bytes(&self) -> usize {
        self.msgs.capacity() * std::mem::size_of::<ControlMsg>()
            + self.free.capacity() * std::mem::size_of::<ControlRef>()
    }
}

/// A staged delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A flit arrives at a router input port.
    FlitArrive {
        /// Receiving router.
        node: NodeId,
        /// Input port it arrives on.
        in_port: Port,
        /// Flat index of the input VC the sender allocated (ignored for
        /// upward bypass flits).
        vc_flat: u8,
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
        vc_flat: u8,
        /// True when the downstream VC was freed (tail drained).
        is_free: bool,
    },
    /// A credit returns to an NI injection VC.
    NiCreditArrive {
        /// The NI's node.
        node: NodeId,
        /// Flat VC index toward the router's Local input port.
        vc_flat: u8,
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
        /// The message, staged in the network's slab.
        msg: ControlRef,
    },
    /// A control message is delivered to an NI inbox.
    NiControlArrive {
        /// The NI's node.
        node: NodeId,
        /// Port the message arrived on at the final router.
        in_port: Port,
        /// The message, staged in the network's slab.
        msg: ControlRef,
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
