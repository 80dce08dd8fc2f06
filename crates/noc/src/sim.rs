//! The system wrapper: network + scheme, and simple run loops.

use crate::ids::{Cycle, NodeId, PacketId, VnetId};
use crate::network::Network;
use crate::scheme::Scheme;

/// Outcome of a bounded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All packets drained.
    Drained {
        /// Cycle at which the network emptied.
        at: Cycle,
    },
    /// The watchdog detected a global stall (deadlock) with packets in
    /// flight.
    Deadlocked {
        /// Cycle of the last flit movement.
        last_progress: Cycle,
        /// Packets still in flight.
        in_flight: usize,
    },
    /// The cycle budget ran out with packets still in flight.
    Timeout {
        /// Packets still in flight.
        in_flight: usize,
    },
}

/// A network paired with a deadlock-freedom scheme.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use upp_noc::config::NocConfig;
/// use upp_noc::ids::VnetId;
/// use upp_noc::network::Network;
/// use upp_noc::ni::ConsumePolicy;
/// use upp_noc::routing::ChipletRouting;
/// use upp_noc::scheme::NoScheme;
/// use upp_noc::sim::System;
/// use upp_noc::topology::ChipletSystemSpec;
///
/// let topo = ChipletSystemSpec::baseline().build(0).expect("valid spec");
/// let net = Network::new(
///     NocConfig::default(),
///     topo,
///     Arc::new(ChipletRouting::xy()),
///     ConsumePolicy::Immediate { latency: 1 },
///     1,
/// );
/// let mut sys = System::new(net, Box::new(NoScheme));
/// let src = sys.net().topo().chiplets()[0].routers[0];
/// let dest = sys.net().topo().chiplets()[0].routers[3];
/// sys.send(src, dest, VnetId(0), 1).expect("queue has space");
/// let outcome = sys.run_until_drained(1_000);
/// assert!(matches!(outcome, upp_noc::sim::RunOutcome::Drained { .. }));
/// ```
pub struct System {
    net: Network,
    scheme: Box<dyn Scheme>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("scheme", &self.scheme.name())
            .field("net", &self.net)
            .finish()
    }
}

impl System {
    /// Pairs a network with a scheme.
    pub fn new(net: Network, scheme: Box<dyn Scheme>) -> Self {
        Self { net, scheme }
    }

    /// The network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Mutable network access (workload-facing).
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// The scheme's name.
    pub fn scheme_name(&self) -> &'static str {
        self.scheme.name()
    }

    /// Scheme access for downcasting in experiment harnesses.
    pub fn scheme(&self) -> &dyn Scheme {
        self.scheme.as_ref()
    }

    /// Splits the system into the network and the scheme (for harnesses that
    /// need simultaneous mutable access).
    pub fn parts_mut(&mut self) -> (&mut Network, &mut dyn Scheme) {
        (&mut self.net, self.scheme.as_mut())
    }

    /// Deadlock forensics for the current network state (see
    /// [`Network::stall_report`]).
    pub fn stall_report(&self) -> crate::trace::StallReport {
        self.net.stall_report()
    }

    /// Enqueues a packet and runs the scheme's creation hook.
    pub fn send(
        &mut self,
        src: NodeId,
        dest: NodeId,
        vnet: VnetId,
        len_flits: u16,
    ) -> Option<PacketId> {
        let id = self.net.try_send(src, dest, vnet, len_flits)?;
        self.scheme.on_packet_created(&mut self.net, id, src, dest);
        Some(id)
    }

    /// Runs one full cycle with scheme hooks.
    pub fn step(&mut self) {
        self.net.begin_cycle();
        self.scheme.pre_cycle(&mut self.net);
        self.net.finish_cycle();
        self.scheme.post_cycle(&mut self.net);
    }

    /// Runs the scheme's telemetry-sampling hook (no-op while the
    /// network's obs registry is disabled). Drivers call this at epoch
    /// boundaries — and once before cutting the final summary — so
    /// sampled gauges/distributions are current.
    pub fn observe(&mut self) {
        if self.net.obs().is_enabled() {
            self.scheme.observe(&mut self.net);
        }
    }

    /// Runs exactly `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Steps until the network drains, deadlocks, or `max_cycles` elapse.
    pub fn run_until_drained(&mut self, max_cycles: u64) -> RunOutcome {
        self.drain(max_cycles, |_| {})
    }

    /// [`System::run_until_drained`] with `after_step` run after every
    /// cycle (telemetry epochs, the health monitor).
    pub fn drain(
        &mut self,
        max_cycles: u64,
        mut after_step: impl FnMut(&mut System),
    ) -> RunOutcome {
        let deadline = self.net.cycle().saturating_add(max_cycles);
        loop {
            if self.net.in_flight() == 0 {
                return RunOutcome::Drained {
                    at: self.net.cycle(),
                };
            }
            if self.net.stalled() {
                return RunOutcome::Deadlocked {
                    last_progress: self.net.last_progress(),
                    in_flight: self.net.in_flight(),
                };
            }
            if self.net.cycle() >= deadline {
                return RunOutcome::Timeout {
                    in_flight: self.net.in_flight(),
                };
            }
            self.step();
            after_step(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::network::Network;
    use crate::ni::ConsumePolicy;
    use crate::routing::ChipletRouting;
    use crate::scheme::NoScheme;
    use crate::topology::ChipletSystemSpec;
    use std::sync::Arc;

    fn sys() -> System {
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let net = Network::new(
            NocConfig::default(),
            topo,
            Arc::new(ChipletRouting::xy()),
            ConsumePolicy::Immediate { latency: 1 },
            3,
        );
        System::new(net, Box::new(NoScheme))
    }

    #[test]
    fn drain_outcome() {
        let mut s = sys();
        let src = s.net().topo().chiplets()[0].routers[0];
        let dest = s.net().topo().chiplets()[1].routers[9];
        s.send(src, dest, VnetId(0), 5).unwrap();
        match s.run_until_drained(1_000) {
            RunOutcome::Drained { at } => assert!(at > 0),
            other => panic!("expected drain, got {other:?}"),
        }
    }

    #[test]
    fn run_advances_clock() {
        let mut s = sys();
        s.run(10);
        assert_eq!(s.net().cycle(), 10);
    }
}
