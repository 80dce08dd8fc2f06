//! System topology: chiplet meshes stacked on an interposer mesh.

pub mod chiplet;

pub use chiplet::{ChipletPlacement, ChipletSystemSpec, SystemKind};

use crate::ids::{ChipletId, NodeId, Port};
use serde::Serialize;
use std::collections::HashSet;

/// Which mesh layer a node lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Region {
    /// One of the chiplets.
    Chiplet(ChipletId),
    /// The (active) interposer.
    Interposer,
}

/// Static description of one node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct NodeInfo {
    /// This node's id (its index in [`Topology::nodes`]).
    pub id: NodeId,
    /// Layer the node belongs to.
    pub region: Region,
    /// X coordinate within its layer's mesh.
    pub x: u16,
    /// Y coordinate within its layer's mesh.
    pub y: u16,
    /// True for chiplet routers owning a `Down` vertical link, and for
    /// interposer routers owning an `Up` vertical link.
    pub boundary: bool,
    /// Neighbour on each port (indexed by [`Port::index`]); `None` where no
    /// link exists. `Local` is always `None` (the NI is implicit).
    pub neighbors: [Option<NodeId>; Port::COUNT],
}

impl NodeInfo {
    /// Iterates over `(port, neighbor)` pairs of existing links.
    pub fn links(&self) -> impl Iterator<Item = (Port, NodeId)> + '_ {
        Port::ALL
            .iter()
            .filter_map(move |&p| self.neighbors[p.index()].map(|n| (p, n)))
    }
}

/// Static description of one chiplet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ChipletInfo {
    /// The chiplet's id.
    pub id: ChipletId,
    /// Mesh width.
    pub width: u16,
    /// Mesh height.
    pub height: u16,
    /// All router ids of this chiplet, row-major (`y * width + x`).
    pub routers: Vec<NodeId>,
    /// The chiplet's boundary routers (each owns a `Down` link).
    pub boundary_routers: Vec<NodeId>,
}

/// The full system graph.
///
/// Build one with [`ChipletSystemSpec`]; the baseline system of Fig. 1 is
/// [`ChipletSystemSpec::baseline`].
///
/// # Examples
///
/// ```
/// use upp_noc::topology::ChipletSystemSpec;
///
/// let topo = ChipletSystemSpec::baseline().build(7).expect("valid spec");
/// assert_eq!(topo.chiplets().len(), 4);
/// assert_eq!(topo.num_nodes(), 4 * 16 + 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
    chiplets: Vec<ChipletInfo>,
    interposer_width: u16,
    interposer_height: u16,
    interposer_routers: Vec<NodeId>,
    /// For every chiplet router: the boundary router it is statically bound
    /// to (Sec. V-D). Boundary routers are bound to themselves. Interposer
    /// routers map to themselves (unused).
    binding: Vec<NodeId>,
    /// Faulty directed links, one port bitmask per node (bit
    /// [`Port::index`] set while the link leaving through that port is
    /// faulty); faults are symmetric (the peer's opposite port is set too).
    /// Dense because [`Topology::neighbor`] reads it for every bidding VC
    /// and every forwarded flit.
    faulty: Vec<u8>,
    /// Number of faulty bidirectional links (pairs of set bits).
    faulty_links: usize,
}

impl Topology {
    pub(crate) fn from_parts(
        nodes: Vec<NodeInfo>,
        chiplets: Vec<ChipletInfo>,
        interposer_width: u16,
        interposer_height: u16,
        interposer_routers: Vec<NodeId>,
        binding: Vec<NodeId>,
    ) -> Self {
        let faulty = vec![0; nodes.len()];
        Self {
            nodes,
            chiplets,
            interposer_width,
            interposer_height,
            interposer_routers,
            binding,
            faulty,
            faulty_links: 0,
        }
    }

    /// Total number of nodes (chiplet routers + interposer routers).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of traffic endpoints: the chiplet routers, whose NIs source
    /// and sink synthetic workloads. Interposer routers only forward. This
    /// is the canonical denominator for injection/throughput rates
    /// (flits/cycle/node) everywhere in the workspace.
    #[inline]
    pub fn num_endpoints(&self) -> usize {
        self.chiplets.iter().map(|c| c.routers.len()).sum()
    }

    /// All nodes.
    #[inline]
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// Looks up one node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &NodeInfo {
        &self.nodes[id.index()]
    }

    /// All chiplets.
    #[inline]
    pub fn chiplets(&self) -> &[ChipletInfo] {
        &self.chiplets
    }

    /// One chiplet.
    #[inline]
    pub fn chiplet(&self, id: ChipletId) -> &ChipletInfo {
        &self.chiplets[id.index()]
    }

    /// Interposer mesh dimensions `(width, height)`.
    #[inline]
    pub fn interposer_dims(&self) -> (u16, u16) {
        (self.interposer_width, self.interposer_height)
    }

    /// All interposer routers, row-major.
    #[inline]
    pub fn interposer_routers(&self) -> &[NodeId] {
        &self.interposer_routers
    }

    /// The layer a node lives on.
    #[inline]
    pub fn region(&self, id: NodeId) -> Region {
        self.node(id).region
    }

    /// The chiplet a node belongs to, if any.
    #[inline]
    pub fn chiplet_of(&self, id: NodeId) -> Option<ChipletId> {
        match self.node(id).region {
            Region::Chiplet(c) => Some(c),
            Region::Interposer => None,
        }
    }

    /// True if the node is an interposer router.
    #[inline]
    pub fn is_interposer(&self, id: NodeId) -> bool {
        matches!(self.node(id).region, Region::Interposer)
    }

    /// The neighbour reached through `port`, unless the link is absent or
    /// faulty.
    #[inline]
    pub fn neighbor(&self, id: NodeId, port: Port) -> Option<NodeId> {
        if self.is_link_faulty(id, port) {
            return None;
        }
        self.node(id).neighbors[port.index()]
    }

    /// The neighbour reached through `port` ignoring fault status.
    #[inline]
    pub fn raw_neighbor(&self, id: NodeId, port: Port) -> Option<NodeId> {
        self.node(id).neighbors[port.index()]
    }

    /// The boundary router a chiplet router is statically bound to.
    ///
    /// # Panics
    ///
    /// Panics if `id` is an interposer router.
    #[inline]
    pub fn bound_boundary(&self, id: NodeId) -> NodeId {
        assert!(
            !self.is_interposer(id),
            "bound_boundary is defined for chiplet routers only"
        );
        self.binding[id.index()]
    }

    /// The interposer router directly below a chiplet boundary router.
    pub fn below(&self, boundary: NodeId) -> Option<NodeId> {
        self.raw_neighbor(boundary, Port::Down)
    }

    /// The chiplet boundary router directly above an interposer router.
    pub fn above(&self, interposer: NodeId) -> Option<NodeId> {
        self.raw_neighbor(interposer, Port::Up)
    }

    /// The interposer router whose `Up` port leads toward chiplet router
    /// `dest` under the static binding.
    pub fn entry_interposer_for(&self, dest: NodeId) -> Option<NodeId> {
        if self.is_interposer(dest) {
            return None;
        }
        self.below(self.bound_boundary(dest))
    }

    /// Marks the (bidirectional) link leaving `node` through `port` faulty.
    ///
    /// # Panics
    ///
    /// Panics if no link exists there.
    pub fn set_link_faulty(&mut self, node: NodeId, port: Port) {
        let peer = self
            .raw_neighbor(node, port)
            .expect("cannot mark a non-existent link faulty");
        if !self.is_link_faulty(node, port) {
            self.faulty[node.index()] |= 1 << port.index();
            self.faulty[peer.index()] |= 1 << port.opposite().index();
            self.faulty_links += 1;
        }
    }

    /// Clears a fault previously set with [`Topology::set_link_faulty`].
    pub fn clear_link_fault(&mut self, node: NodeId, port: Port) {
        if !self.is_link_faulty(node, port) {
            return;
        }
        let peer = self
            .raw_neighbor(node, port)
            .expect("only existing links are ever marked faulty");
        self.faulty[node.index()] &= !(1 << port.index());
        self.faulty[peer.index()] &= !(1 << port.opposite().index());
        self.faulty_links -= 1;
    }

    /// True if the directed link `(node, port)` is faulty.
    #[inline]
    pub fn is_link_faulty(&self, node: NodeId, port: Port) -> bool {
        self.faulty[node.index()] & (1 << port.index()) != 0
    }

    /// Number of faulty bidirectional links.
    pub fn num_faulty_links(&self) -> usize {
        self.faulty_links
    }

    /// Nodes of the region `r`, in deterministic order.
    pub fn region_nodes(&self, r: Region) -> &[NodeId] {
        match r {
            Region::Chiplet(c) => &self.chiplet(c).routers,
            Region::Interposer => &self.interposer_routers,
        }
    }

    /// Manhattan distance between two nodes of the same region.
    ///
    /// # Panics
    ///
    /// Panics if the nodes live in different regions.
    pub fn manhattan(&self, a: NodeId, b: NodeId) -> u32 {
        let (na, nb) = (self.node(a), self.node(b));
        assert_eq!(
            na.region, nb.region,
            "manhattan distance requires one region"
        );
        (na.x as i32 - nb.x as i32).unsigned_abs() + (na.y as i32 - nb.y as i32).unsigned_abs()
    }

    /// Checks structural invariants; returns a description of the first
    /// violation found.
    ///
    /// # Errors
    ///
    /// Returns `Err` if link symmetry is broken, a region is disconnected
    /// (considering faults), or a chiplet has lost all vertical links.
    pub fn validate(&self) -> Result<(), String> {
        // Link symmetry.
        for n in &self.nodes {
            for (p, peer) in n.links() {
                let back = self.raw_neighbor(peer, p.opposite());
                if back != Some(n.id) {
                    return Err(format!("asymmetric link {}:{p} -> {peer}", n.id));
                }
                if self.is_link_faulty(n.id, p) != self.is_link_faulty(peer, p.opposite()) {
                    return Err(format!("asymmetric fault on {}:{p}", n.id));
                }
            }
        }
        // Region connectivity under faults.
        let mut regions: Vec<Region> = self
            .chiplets
            .iter()
            .map(|c| Region::Chiplet(c.id))
            .collect();
        regions.push(Region::Interposer);
        for r in regions {
            let members = self.region_nodes(r);
            if members.is_empty() {
                return Err(format!("region {r:?} has no nodes"));
            }
            let set: HashSet<NodeId> = members.iter().copied().collect();
            let mut seen = HashSet::new();
            let mut stack = vec![members[0]];
            seen.insert(members[0]);
            while let Some(n) = stack.pop() {
                for p in Port::ALL {
                    if !p.is_mesh() {
                        continue;
                    }
                    if let Some(peer) = self.neighbor(n, p) {
                        if set.contains(&peer) && seen.insert(peer) {
                            stack.push(peer);
                        }
                    }
                }
            }
            if seen.len() != members.len() {
                return Err(format!("region {r:?} is disconnected"));
            }
        }
        // Vertical links.
        for c in &self.chiplets {
            if c.boundary_routers.is_empty() {
                return Err(format!("chiplet {} has no boundary routers", c.id));
            }
            for &b in &c.boundary_routers {
                let below = self
                    .below(b)
                    .ok_or_else(|| format!("boundary router {b} lacks a Down link"))?;
                if self.above(below) != Some(b) {
                    return Err(format!("vertical link at {b} is asymmetric"));
                }
            }
        }
        // Binding sanity.
        for c in &self.chiplets {
            let bset: HashSet<NodeId> = c.boundary_routers.iter().copied().collect();
            for &r in &c.routers {
                if !bset.contains(&self.binding[r.index()]) {
                    return Err(format!(
                        "router {r} bound outside its chiplet's boundary set"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_bitmask_is_symmetric_idempotent_and_counted() {
        let mut topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let a = topo.chiplets()[0].routers[5];
        let east = topo.raw_neighbor(a, Port::East).expect("interior router");
        assert_eq!(topo.num_faulty_links(), 0);
        assert!(!topo.is_link_faulty(a, Port::East));

        topo.set_link_faulty(a, Port::East);
        // Both directions of the one link, and nothing else at either end.
        assert!(topo.is_link_faulty(a, Port::East));
        assert!(topo.is_link_faulty(east, Port::West));
        assert_eq!(topo.neighbor(a, Port::East), None);
        assert_eq!(topo.neighbor(east, Port::West), None);
        assert_eq!(topo.raw_neighbor(a, Port::East), Some(east));
        for p in [Port::North, Port::South, Port::West] {
            assert!(!topo.is_link_faulty(a, p));
            assert_eq!(topo.neighbor(a, p), topo.raw_neighbor(a, p));
        }
        assert_eq!(topo.num_faulty_links(), 1);

        // Setting it again — from either end — is the same fault.
        topo.set_link_faulty(a, Port::East);
        topo.set_link_faulty(east, Port::West);
        assert_eq!(topo.num_faulty_links(), 1);

        topo.set_link_faulty(a, Port::North);
        assert_eq!(topo.num_faulty_links(), 2);

        // Clearing from the far end heals both directions; clearing twice,
        // or clearing a healthy or absent link, changes nothing.
        topo.clear_link_fault(east, Port::West);
        assert_eq!(topo.neighbor(a, Port::East), Some(east));
        assert_eq!(topo.neighbor(east, Port::West), Some(a));
        assert_eq!(topo.num_faulty_links(), 1);
        topo.clear_link_fault(a, Port::East);
        topo.clear_link_fault(a, Port::South);
        topo.clear_link_fault(a, Port::Up);
        assert_eq!(topo.num_faulty_links(), 1);
        assert!(topo.is_link_faulty(a, Port::North));

        topo.clear_link_fault(a, Port::North);
        assert_eq!(topo.num_faulty_links(), 0);
        assert!(topo.validate().is_ok());
    }
}
