//! Out-of-band control-plane messages.
//!
//! UPP's three protocol signals (`UPP_req`, `UPP_ack`, `UPP_stop`, Sec. V-B)
//! travel through the normal router datapath — same pipeline, crossbars and
//! links as head flits — but are stored in two dedicated 32-bit buffers per
//! chiplet router instead of VC buffers, and win switch allocation over
//! normal flits. This module provides the *mechanism*: an opaque payload, a
//! buffer class, and forward/reverse routing modes. The *policy* (encoding,
//! when to send what) lives in `upp-core`.

use crate::ids::{Cycle, NodeId, Port, VnetId};
use crate::packet::RouteInfo;
use serde::Serialize;

/// Which dedicated buffer a control message occupies in each router.
///
/// The paper adds one buffer shared by `UPP_req`/`UPP_stop` and one for
/// `UPP_ack` (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ControlClass {
    /// Forward-travelling request-like signals (`UPP_req`, `UPP_stop`).
    ReqLike,
    /// Backward-travelling acknowledge-like signals (`UPP_ack`).
    AckLike,
}

/// How a control message finds its next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ControlRoute {
    /// Attend normal route computation toward [`ControlMsg::route`]'s
    /// destination (like a head flit).
    Forward,
    /// Follow the reverse of the circuit recorded by the corresponding
    /// forward message (UPP_ack, Sec. V-B2: "does not attend the normal route
    /// computation but instead follows the reverse routing path of its
    /// corresponding UPP_req").
    Reverse,
}

/// An out-of-band control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ControlMsg {
    /// Buffer class used at each hop.
    pub class: ControlClass,
    /// Opaque encoded payload (the scheme encodes/decodes; the network never
    /// inspects it). Width-checked against the 32-bit hardware buffers by
    /// `upp-core`'s encoding tests.
    pub bits: u32,
    /// VNet the signal belongs to.
    pub vnet: VnetId,
    /// Next-hop discipline.
    pub routing: ControlRoute,
    /// Route header used in `Forward` mode; its `dest` is the node whose NI
    /// (or router, see `deliver_to_ni`) receives the message.
    pub route: RouteInfo,
    /// Node that emitted the message.
    pub origin: NodeId,
    /// Key under which circuits are recorded/looked up: the destination
    /// router of the popup this signal belongs to.
    pub circuit_key: NodeId,
    /// Record a circuit entry `(vnet, circuit_key) -> (in, out)` at every
    /// traversed router (UPP_req does; UPP_stop and UPP_ack do not).
    pub record_circuit: bool,
    /// Deliver into the destination node's NI inbox (requests/stops) rather
    /// than the destination router's inbox (acks terminate at the interposer
    /// router).
    pub deliver_to_ni: bool,
}

/// A circuit entry recorded in a chiplet router by a circuit-recording
/// control message (Fig. 6's per-VNet in/out connection table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CircuitEntry {
    /// Crossbar input side of the recorded connection.
    pub in_port: Port,
    /// Crossbar output side of the recorded connection.
    pub out_port: Port,
    /// Cycle the entry was recorded (diagnostics).
    pub set_at: Cycle,
}

/// A control message delivered to a node, together with its arrival port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DeliveredControl {
    /// The message.
    pub msg: ControlMsg,
    /// Port it arrived on (`Local` for messages that originated here).
    pub in_port: Port,
    /// Cycle of delivery.
    pub at: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn control_msg_is_compact_and_copyable() {
        let m = ControlMsg {
            class: ControlClass::ReqLike,
            bits: 0x1234,
            vnet: VnetId(1),
            routing: ControlRoute::Forward,
            route: RouteInfo::intra(NodeId(4)),
            origin: NodeId(9),
            circuit_key: NodeId(4),
            record_circuit: true,
            deliver_to_ni: true,
        };
        let copy = m;
        assert_eq!(copy, m);
        assert_eq!(copy.bits, 0x1234);
    }
}
