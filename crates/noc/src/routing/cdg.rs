//! Channel-dependency graphs (CDGs) and the one cycle search every deadlock
//! question in the simulator goes through.
//!
//! An edge `a -> b` means a packet holding channel `a` may request channel
//! `b` next; a routed system can deadlock exactly when its CDG has a cycle.
//! One graph type, [`Cdg`], carries two channel vocabularies:
//!
//! * [`ExtendedCdg`] analyses one chiplet against a conservative *virtual
//!   node* — the composable-routing design tool (Sec. III-B of the UPP
//!   paper): internal XY channels plus the vertical links into and out of
//!   each boundary router, with every `ExtOut -> ExtIn` pair joined;
//! * [`GlobalCdg`] is the *actual-use* CDG of the entire system under a
//!   concrete routing function (every directed link, vertical ones
//!   included), or a runtime wait-for graph given as an explicit edge list
//!   ([`Cdg::from_edges`], behind [`crate::network::Network::stall_report`]
//!   and the verify oracle).
//!
//! The global graph is the formal backbone of the reproduction's honesty
//! story:
//!
//! * under unrestricted three-leg routing the global CDG **is cyclic** —
//!   integration-induced deadlocks are reachable, which is why the
//!   unprotected system wedges and why UPP exists;
//! * under composable routing's restriction-respecting selections the global
//!   CDG **is acyclic** — the baseline's avoidance guarantee is structural,
//!   not an accident of the traffic we happened to run.

use crate::ids::{ChipletId, NodeId, Port};
use crate::routing::turns::TurnRestrictions;
use crate::routing::xy::xy_turn_legal;
use crate::routing::RouteComputer;
use crate::topology::Topology;
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// A directed physical channel: the link leaving `from` through `out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct GlobalChannel {
    /// Source node of the directed link.
    pub from: NodeId,
    /// Port the link leaves through.
    pub out: Port,
}

/// A channel of the extended per-chiplet dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Channel {
    /// An internal mesh channel: the directed link leaving `from` through
    /// `out`.
    Internal {
        /// Source router of the directed link.
        from: NodeId,
        /// Port the link leaves through.
        out: Port,
    },
    /// The upward vertical link into boundary router `boundary` (held by
    /// traffic entering the chiplet).
    ExtIn {
        /// The boundary router the link ascends into.
        boundary: NodeId,
    },
    /// The downward vertical link out of boundary router `boundary` (held by
    /// traffic leaving the chiplet).
    ExtOut {
        /// The boundary router the link descends from.
        boundary: NodeId,
    },
}

/// A channel dependency graph over channels of type `C`.
///
/// Channels keep their first-appearance order; each adjacency list is
/// sorted and deduplicated once, when the graph is built, so every search
/// visits successors in ascending channel order.
#[derive(Debug, Clone)]
pub struct Cdg<C> {
    channels: Vec<C>,
    index: HashMap<C, usize>,
    edges: Vec<Vec<usize>>,
}

/// The actual-use channel dependency graph of a routed system.
pub type GlobalCdg = Cdg<GlobalChannel>;

/// The extended channel dependency graph of one chiplet: virtual-node
/// edges `ExtOut(bi) -> ExtIn(bj)` conservatively model the unknown
/// external network for every ordered pair of boundary routers.
pub type ExtendedCdg = Cdg<Channel>;

impl<C: Copy + Eq + Hash> Cdg<C> {
    fn empty() -> Self {
        Self {
            channels: Vec::new(),
            index: HashMap::new(),
            edges: Vec::new(),
        }
    }

    /// The dense index of `ch`, registering it on first appearance.
    fn intern(&mut self, ch: C) -> usize {
        *self.index.entry(ch).or_insert_with(|| {
            self.channels.push(ch);
            self.edges.push(Vec::new());
            self.channels.len() - 1
        })
    }

    fn finish(mut self) -> Self {
        for succ in &mut self.edges {
            succ.sort_unstable();
            succ.dedup();
        }
        self
    }

    /// Builds a dependency graph from an explicit edge list (runtime
    /// wait-for graphs, e.g. the hold/wait chains a
    /// [`crate::trace::StallReport`] extracts from a wedged network).
    /// Channels are registered in first-appearance order.
    pub fn from_edges(pairs: &[(C, C)]) -> Self {
        let mut g = Self::empty();
        for &(a, b) in pairs {
            let ia = g.intern(a);
            let ib = g.intern(b);
            g.edges[ia].push(ib);
        }
        g.finish()
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// True if channel `ch` participates in the graph.
    pub fn contains(&self, ch: C) -> bool {
        self.index.contains_key(&ch)
    }

    /// Finds one dependency cycle, returned as a channel sequence
    /// (`c0 -> c1 -> ... -> c0` implied), or `None` if the graph is acyclic.
    pub fn find_cycle(&self) -> Option<Vec<C>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let n = self.channels.len();
        let mut color = vec![Color::White; n];
        let mut parent: Vec<Option<usize>> = vec![None; n];
        for start in 0..n {
            if color[start] != Color::White {
                continue;
            }
            // Iterative DFS keeping an explicit edge iterator per frame.
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = Color::Grey;
            while let Some(&(u, ei)) = stack.last() {
                if ei < self.edges[u].len() {
                    let v = self.edges[u][ei];
                    stack.last_mut().expect("stack is non-empty").1 += 1;
                    match color[v] {
                        Color::White => {
                            color[v] = Color::Grey;
                            parent[v] = Some(u);
                            stack.push((v, 0));
                        }
                        Color::Grey => {
                            // Found a cycle v -> ... -> u -> v.
                            let mut cycle = vec![self.channels[u]];
                            let mut cur = u;
                            while cur != v {
                                cur = parent[cur].expect("grey nodes form a parent chain");
                                cycle.push(self.channels[cur]);
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Color::Black => {}
                    }
                } else {
                    color[u] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }

    /// True when the graph has no dependency cycle (for an actual-use
    /// graph: the routed system cannot deadlock, whatever the traffic).
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// Channels reachable from `from` (inclusive).
    pub fn reachable(&self, from: C) -> HashSet<C> {
        let mut seen = HashSet::new();
        let Some(&start) = self.index.get(&from) else {
            return seen;
        };
        let mut stack = vec![start];
        let mut visited = vec![false; self.channels.len()];
        visited[start] = true;
        while let Some(u) = stack.pop() {
            seen.insert(self.channels[u]);
            for &v in &self.edges[u] {
                if !visited[v] {
                    visited[v] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }
}

impl GlobalCdg {
    /// Builds the CDG by tracing every ordered `(src, dest)` pair under
    /// `routing`.
    ///
    /// Cost is `O(n^2 * path length)` — fine for the paper's system sizes
    /// (80–192 nodes); intended for validation and tests, not inner loops.
    pub fn build(topo: &Topology, routing: &dyn RouteComputer) -> Self {
        let mut g = Self::empty();
        for n in topo.nodes() {
            for (p, _) in n.links() {
                if !topo.is_link_faulty(n.id, p) {
                    g.intern(GlobalChannel { from: n.id, out: p });
                }
            }
        }
        let nodes: Vec<NodeId> = topo.nodes().iter().map(|n| n.id).collect();
        for &src in &nodes {
            for &dest in &nodes {
                if src == dest {
                    continue;
                }
                let plan = routing.plan(topo, src, dest);
                let mut cur = src;
                let mut in_port = Port::Local;
                let mut prev: Option<usize> = None;
                let mut hops = 0;
                while cur != dest {
                    let p = routing.route(topo, cur, in_port, &plan);
                    debug_assert_ne!(p, Port::Local);
                    let ch = g.index[&GlobalChannel { from: cur, out: p }];
                    if let Some(prev) = prev {
                        g.edges[prev].push(ch);
                    }
                    prev = Some(ch);
                    cur = topo
                        .neighbor(cur, p)
                        .unwrap_or_else(|| panic!("route uses missing link {cur}:{p}"));
                    in_port = p.opposite();
                    hops += 1;
                    assert!(
                        hops <= 4 * topo.num_nodes(),
                        "routing livelock {src}->{dest}"
                    );
                }
            }
        }
        g.finish()
    }
}

impl ExtendedCdg {
    /// Builds the extended CDG of chiplet `c` under XY internal routing and
    /// the given vertical-turn restrictions.
    pub fn build(topo: &Topology, c: ChipletId, restrictions: &TurnRestrictions) -> Self {
        let info = topo.chiplet(c);
        let members: HashSet<NodeId> = info.routers.iter().copied().collect();
        let internal = |from: NodeId, out: Port| {
            topo.neighbor(from, out)
                .is_some_and(|peer| members.contains(&peer))
        };

        let mut g = Self::empty();
        for &r in &info.routers {
            for p in Port::ALL {
                if p.is_mesh() && internal(r, p) {
                    g.intern(Channel::Internal { from: r, out: p });
                }
            }
        }
        for &b in &info.boundary_routers {
            g.intern(Channel::ExtIn { boundary: b });
            g.intern(Channel::ExtOut { boundary: b });
        }

        let legal = |node: NodeId, inp: Port, outp: Port| {
            xy_turn_legal(inp, outp) && restrictions.allows(node, inp, outp)
        };
        for ci in 0..g.channels.len() {
            // The router a packet holding this channel arrives at, and the
            // port it arrives through.
            let (node, inp) = match g.channels[ci] {
                Channel::Internal { from, out } => (
                    topo.neighbor(from, out)
                        .expect("channel follows an existing link"),
                    out.opposite(),
                ),
                // Entering traffic turns from the vertical link into the mesh.
                Channel::ExtIn { boundary } => (boundary, Port::Down),
                Channel::ExtOut { .. } => {
                    // Virtual node: the external network may chain this
                    // channel to any upward link back into this chiplet.
                    for &b2 in &info.boundary_routers {
                        let to = g.index[&Channel::ExtIn { boundary: b2 }];
                        g.edges[ci].push(to);
                    }
                    continue;
                }
            };
            for q in Port::ALL {
                if q.is_mesh() && internal(node, q) && legal(node, inp, q) {
                    let to = g.index[&Channel::Internal { from: node, out: q }];
                    g.edges[ci].push(to);
                }
            }
            // Leave the chiplet. Entering traffic never exits again
            // (routing is three-legged): no ExtIn -> ExtOut edge.
            if matches!(g.channels[ci], Channel::Internal { .. })
                && topo.neighbor(node, Port::Down).is_some()
                && legal(node, inp, Port::Down)
            {
                let to = g.index[&Channel::ExtOut { boundary: node }];
                g.edges[ci].push(to);
            }
        }
        g.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::ChipletRouting;
    use crate::topology::ChipletSystemSpec;

    fn baseline() -> Topology {
        ChipletSystemSpec::baseline().build(0).unwrap()
    }

    #[test]
    fn unrestricted_three_leg_routing_is_globally_cyclic() {
        // The reproduction's premise, stated formally: the actually-used
        // dependency graph of XY + static binding over the baseline system
        // contains cycles, and every cycle crosses a vertical link.
        let topo = baseline();
        let cdg = GlobalCdg::build(&topo, &ChipletRouting::xy());
        let cycle = cdg.find_cycle().expect("integration must induce cycles");
        assert!(
            cycle.iter().any(|c| c.out.is_vertical()),
            "every integration-induced cycle crosses a vertical link: {cycle:?}"
        );
        // And specifically, some channel in the cycle is an upward link —
        // the upward-packet insight of Sec. IV-A.
        assert!(
            cycle.iter().any(|c| c.out == Port::Up),
            "the cycle must contain an upward vertical channel: {cycle:?}"
        );
    }

    #[test]
    fn large_system_is_also_cyclic() {
        let topo = ChipletSystemSpec::large().build(0).unwrap();
        let cdg = GlobalCdg::build(&topo, &ChipletRouting::xy());
        assert!(!cdg.is_acyclic());
    }

    #[test]
    fn from_edges_finds_planted_cycle() {
        let ch = |n, out| GlobalChannel {
            from: NodeId(n),
            out,
        };
        let [a, b, c, d] = [
            ch(0, Port::East),
            ch(1, Port::Up),
            ch(2, Port::South),
            ch(3, Port::West),
        ];
        let acyclic = GlobalCdg::from_edges(&[(a, b), (b, c), (a, c)]);
        assert!(acyclic.is_acyclic());
        let cyclic = GlobalCdg::from_edges(&[(a, b), (b, c), (c, a), (c, d)]);
        let cycle = cyclic.find_cycle().expect("planted cycle found");
        assert_eq!(cycle.len(), 3);
        for ch in [a, b, c] {
            assert!(cycle.contains(&ch), "{ch:?} missing from {cycle:?}");
        }
        // A repeated dependency is one edge.
        assert_eq!(GlobalCdg::from_edges(&[(a, b), (a, b)]).num_edges(), 1);
    }

    #[test]
    fn cdg_counts_are_sane() {
        let topo = baseline();
        let cdg = GlobalCdg::build(&topo, &ChipletRouting::xy());
        // 4 chiplets x 48 + interposer 48 internal mesh channels...
        // just sanity-bound the totals.
        assert!(cdg.num_channels() > 200);
        assert!(cdg.num_edges() > cdg.num_channels());
        let some = GlobalChannel {
            from: topo.chiplets()[0].boundary_routers[0],
            out: Port::Down,
        };
        assert!(cdg.contains(some));
    }

    #[test]
    fn unrestricted_extended_cdg_has_cycles() {
        // This is the paper's core premise: with all vertical turns allowed,
        // integration induces dependency cycles even though XY is locally
        // deadlock free.
        let t = baseline();
        let cdg = ExtendedCdg::build(&t, ChipletId(0), &TurnRestrictions::new());
        assert!(!cdg.is_acyclic(), "integration must induce CDG cycles");
        let cycle = cdg.find_cycle().unwrap();
        assert!(cycle.len() >= 2);
        // Every cycle must pass through the virtual node (internal XY alone
        // is acyclic), i.e. contain an ExtOut -> ExtIn hop.
        assert!(cycle.iter().any(|c| matches!(c, Channel::ExtOut { .. })));
        assert!(cycle.iter().any(|c| matches!(c, Channel::ExtIn { .. })));
    }

    #[test]
    fn internal_xy_alone_is_acyclic() {
        // Forbid every vertical turn: the extended CDG degenerates to the
        // internal XY CDG plus isolated external channels.
        let t = baseline();
        let c = ChipletId(0);
        let mut r = TurnRestrictions::new();
        for &b in &t.chiplet(c).boundary_routers {
            for p in Port::ALL {
                if p.is_mesh() {
                    r.forbid(b, Port::Down, p);
                    r.forbid(b, p, Port::Down);
                }
            }
        }
        let cdg = ExtendedCdg::build(&t, c, &r);
        assert!(cdg.is_acyclic());
    }

    #[test]
    fn reachability_includes_source() {
        let t = baseline();
        let cdg = ExtendedCdg::build(&t, ChipletId(0), &TurnRestrictions::new());
        let b = t.chiplet(ChipletId(0)).boundary_routers[0];
        let reach = cdg.reachable(Channel::ExtIn { boundary: b });
        assert!(reach.contains(&Channel::ExtIn { boundary: b }));
        assert!(
            reach.len() > 1,
            "entering traffic reaches internal channels"
        );
    }
}
