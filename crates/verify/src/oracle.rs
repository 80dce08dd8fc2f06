//! A scheme-independent deadlock oracle.
//!
//! The oracle never asks a scheme whether the network is healthy. It
//! periodically rebuilds the *true* wait-for graph from router buffer
//! occupancy and routing state — the same ground truth the forensic
//! [`upp_noc::Network::stall_report`] uses — and flags a violation when the
//! same circular wait, held by the **same packets**, is still present after
//! a configurable number of cycles. A correct recovery scheme must break
//! every cycle well within the threshold; a broken one is caught here even
//! if its own telemetry stays green.
//!
//! Two deliberate design points:
//!
//! * The fingerprint pairs each cycle channel with the packet occupying it.
//!   Under sustained overload the same *channels* can stay saturated for
//!   thousands of cycles while packets flow through them — a stable
//!   congestion pattern is not a deadlock. Frozen owners are.
//! * Circular waits that include a dynamically-failed channel are excused:
//!   under the fail-stop link semantics of [`upp_noc::fault`], a packet
//!   blocked on a dead link is waiting for the heal, not for another
//!   packet, and every generated fault plan heals before the horizon.

use std::collections::BTreeSet;
use std::fmt;

use upp_noc::ids::{PacketId, Port};
use upp_noc::routing::{GlobalCdg, GlobalChannel};
use upp_noc::Network;

/// Oracle sampling parameters.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Cycles between wait-for-graph samples.
    pub sample_every: u64,
    /// A cycle must persist unchanged (same channels, same owning packets)
    /// for this many cycles to be flagged.
    pub persist_threshold: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            sample_every: 50,
            persist_threshold: 2_000,
        }
    }
}

/// A confirmed persistent circular wait.
#[derive(Debug, Clone)]
pub struct OracleViolation {
    /// Cycle the (eventually confirmed) wait cycle was first sampled.
    pub first_seen: u64,
    /// Cycle the persistence threshold was crossed.
    pub confirmed_at: u64,
    /// The channels of the circular wait, sorted.
    pub channels: Vec<GlobalChannel>,
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "circular wait persisted {} cycles (first seen @{}, confirmed @{}):",
            self.confirmed_at - self.first_seen,
            self.first_seen,
            self.confirmed_at
        )?;
        for ch in &self.channels {
            write!(f, " {}:{}", ch.from, ch.out)?;
        }
        Ok(())
    }
}

/// One buffer-occupancy wait dependency: `owner`'s flits sit in the
/// downstream buffers of `held` while the packet needs `wanted` next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    /// Channel whose downstream buffers the flits occupy.
    pub held: GlobalChannel,
    /// Channel the owning packet must acquire to make progress.
    pub wanted: GlobalChannel,
    /// The waiting packet.
    pub owner: PacketId,
}

/// Samples a network's wait-for graph and reports persistent cycles.
#[derive(Debug, Default)]
pub struct DeadlockOracle {
    cfg: OracleConfig,
    fingerprint: Vec<(GlobalChannel, PacketId)>,
    since: u64,
    violation: Option<OracleViolation>,
}

impl DeadlockOracle {
    /// Creates an oracle with the given sampling parameters.
    pub fn new(cfg: OracleConfig) -> Self {
        Self {
            cfg,
            fingerprint: Vec::new(),
            since: 0,
            violation: None,
        }
    }

    /// The first confirmed violation, if any.
    pub fn violation(&self) -> Option<&OracleViolation> {
        self.violation.as_ref()
    }

    /// Observes the network. Call once per cycle (after stepping); the
    /// oracle samples every [`OracleConfig::sample_every`] cycles.
    pub fn observe(&mut self, net: &Network) {
        if self.violation.is_some() {
            return;
        }
        let now = net.cycle();
        if !now.is_multiple_of(self.cfg.sample_every) {
            return;
        }
        let edges = wait_for_edges(net);
        let pairs: Vec<(GlobalChannel, GlobalChannel)> =
            edges.iter().map(|e| (e.held, e.wanted)).collect();
        let Some(channels) = GlobalCdg::from_edges(&pairs).find_cycle() else {
            self.fingerprint.clear();
            return;
        };
        // Excuse cycles blocked on a dynamically-failed link: the wait
        // resolves when the fault plan heals the link.
        if channels
            .iter()
            .any(|c| net.topo().neighbor(c.from, c.out).is_none())
        {
            self.fingerprint.clear();
            return;
        }
        // `find_cycle` returns the cycle in path order: its edges are the
        // consecutive channel pairs plus the closing wrap-around pair.
        let cycle_edges: BTreeSet<(GlobalChannel, GlobalChannel)> = channels
            .iter()
            .zip(channels.iter().cycle().skip(1))
            .map(|(&a, &b)| (a, b))
            .collect();
        let mut fp: Vec<(GlobalChannel, PacketId)> = edges
            .iter()
            .filter(|e| cycle_edges.contains(&(e.held, e.wanted)))
            .map(|e| (e.held, e.owner))
            .collect();
        fp.sort();
        if fp == self.fingerprint {
            if now.saturating_sub(self.since) >= self.cfg.persist_threshold {
                let mut sorted = channels;
                sorted.sort();
                self.violation = Some(OracleViolation {
                    first_seen: self.since,
                    confirmed_at: now,
                    channels: sorted,
                });
            }
        } else {
            self.fingerprint = fp;
            self.since = now;
        }
    }
}

/// Builds the true wait-for graph from buffer occupancy: for every occupied
/// input VC whose packet needs a non-local output, the channel its flits sit
/// on waits for the channel the packet needs next.
///
/// This duplicates the edge construction of
/// [`upp_noc::Network::stall_report`] on purpose — the oracle must not
/// depend on the forensics path it is meant to cross-check staying honest.
pub fn wait_for_edges(net: &Network) -> Vec<WaitEdge> {
    let topo = net.topo();
    let mut edges = Vec::new();
    for info in topo.nodes() {
        let r = net.router(info.id);
        let node = r.node();
        for (p, f) in r.input_vcs() {
            let vc = r.input_vc(p, f);
            let Some(owner) = vc.owner() else { continue };
            if r.vc_buf_is_empty(p, f) || p == Port::Local {
                continue;
            }
            let Some(out) = vc.route_out() else { continue };
            if out == Port::Local {
                continue;
            }
            let Some(upstream) = topo.neighbor(node, p) else {
                // The flits arrived over a link that has since failed; the
                // occupied channel cannot be named live, so it contributes
                // no wait-for edge until the heal.
                continue;
            };
            edges.push(WaitEdge {
                held: GlobalChannel {
                    from: upstream,
                    out: p.opposite(),
                },
                wanted: GlobalChannel { from: node, out },
                owner,
            });
        }
    }
    edges
}
