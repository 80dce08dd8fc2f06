//! Deadlock-freedom scheme interface.
//!
//! A [`Scheme`] is the *policy* layer driven around the network's per-cycle
//! schedule: UPP (in `upp-core`), composable routing and remote control (in
//! `upp-baselines`) all implement this trait against the mechanisms exposed
//! by [`crate::network::Network`].

use crate::ids::{NodeId, PacketId};
use crate::network::Network;
use serde::Serialize;

/// The qualitative attributes of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SchemeProperties {
    /// Design modularity: unaffected by the rest of the system's topology.
    pub topology_modularity: bool,
    /// Design modularity: works with 1 VC per VNet.
    pub vc_modularity: bool,
    /// Design modularity: supports wormhole and virtual cut-through.
    pub flow_control_modularity: bool,
    /// Performance: no turn/VC usage restrictions (full path diversity).
    pub full_path_diversity: bool,
    /// Performance: no injection control.
    pub no_injection_control: bool,
    /// Flexibility: independent of (and reconfigurable with) the topology.
    pub topology_independence: bool,
}

/// A deadlock-freedom (or recovery) scheme.
///
/// All hooks default to no-ops so purely routing-based schemes (composable
/// routing) only implement [`Scheme::properties`].
pub trait Scheme: Send {
    /// Short scheme name ("UPP", "composable", "remote-control", "none").
    fn name(&self) -> &'static str;

    /// Table I attributes.
    fn properties(&self) -> SchemeProperties;

    /// Runs after event delivery, before injection/allocation — the place to
    /// observe fresh arrivals, run detection and emit protocol actions.
    fn pre_cycle(&mut self, net: &mut Network) {
        let _ = net;
    }

    /// Runs after allocation/commit, before the next cycle.
    fn post_cycle(&mut self, net: &mut Network) {
        let _ = net;
    }

    /// Called right after a packet is enqueued at its source NI (injection
    /// control hooks in here).
    fn on_packet_created(&mut self, net: &mut Network, id: PacketId, src: NodeId, dest: NodeId) {
        let _ = (net, id, src, dest);
    }

    /// Telemetry sampling hook, called at epoch boundaries when the
    /// network's [`crate::obs::ObsRegistry`] is enabled (the driver decides
    /// the cadence; it is never called while telemetry is disabled). The
    /// place to register scheme-specific metrics (idempotent) and sample
    /// gauges/distributions that are not worth maintaining event-by-event —
    /// e.g. watchdog-counter distributions or permit-queue depths.
    fn observe(&mut self, net: &mut Network) {
        let _ = net;
    }
}

/// The unprotected reference scheme: fully permissive routing, no recovery.
/// Integration-induced deadlocks *will* wedge the network under load; used
/// to demonstrate that the deadlocks UPP recovers from are real.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoScheme;

impl Scheme for NoScheme {
    fn name(&self) -> &'static str {
        "none"
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            topology_modularity: true,
            vc_modularity: true,
            flow_control_modularity: true,
            full_path_diversity: true,
            no_injection_control: true,
            topology_independence: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_scheme_claims_everything_but_protects_nothing() {
        let s = NoScheme;
        assert_eq!(s.name(), "none");
        let p = s.properties();
        assert!(p.topology_modularity && p.full_path_diversity);
    }
}
