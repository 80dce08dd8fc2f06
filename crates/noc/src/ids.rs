//! Strongly-typed identifiers used throughout the simulator.
//!
//! Every index into a simulator table gets its own newtype so that node,
//! chiplet, VC and packet indices can never be confused ([C-NEWTYPE]).

use serde::Serialize;
use std::fmt;

/// A simulation cycle number.
pub type Cycle = u64;

/// Identifies one node (router + its network interface) in the topology.
///
/// Node ids are dense indices into [`crate::topology::Topology::nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies one chiplet in a chiplet-based system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct ChipletId(pub u16);

impl ChipletId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChipletId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A virtual network (message class) index.
///
/// The MESI-style coherence configuration of the paper uses three VNets
/// (request / forward / response); synthetic traffic uses them as independent
/// lanes for control and data packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct VnetId(pub u8);

impl VnetId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VnetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A virtual channel identified by its VNet and its index within that VNet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct VcId {
    /// The virtual network this VC belongs to.
    pub vnet: VnetId,
    /// Index of the VC within its VNet (`0..vcs_per_vnet`).
    pub index: u8,
}

impl VcId {
    /// Creates a VC id from a VNet and an index within the VNet.
    #[inline]
    pub fn new(vnet: VnetId, index: u8) -> Self {
        Self { vnet, index }
    }

    /// Flattens this VC id into a dense per-port index.
    #[inline]
    pub fn flat(self, vcs_per_vnet: usize) -> usize {
        self.vnet.index() * vcs_per_vnet + self.index as usize
    }

    /// Reconstructs a VC id from a dense per-port index.
    #[inline]
    pub fn from_flat(flat: usize, vcs_per_vnet: usize) -> Self {
        Self {
            vnet: VnetId((flat / vcs_per_vnet) as u8),
            index: (flat % vcs_per_vnet) as u8,
        }
    }
}

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.vnet, self.index)
    }
}

/// Globally-unique packet identifier, assigned at injection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A router port direction.
///
/// Chiplet and interposer routers are laid out on 2D meshes; in addition,
/// boundary chiplet routers own a `Down` port to the interposer and the
/// interposer routers beneath them own an `Up` port (the paper's *upward
/// vertical link* runs from an interposer `Up` output to a boundary router
/// `Down` input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Port {
    /// Connection to the local network interface.
    Local,
    /// +y neighbour within the same mesh layer.
    North,
    /// +x neighbour within the same mesh layer.
    East,
    /// -y neighbour within the same mesh layer.
    South,
    /// -x neighbour within the same mesh layer.
    West,
    /// Vertical link from an interposer router up to a chiplet boundary router.
    Up,
    /// Vertical link from a chiplet boundary router down to an interposer router.
    Down,
}

impl Port {
    /// All ports, in a fixed iteration order.
    pub const ALL: [Port; 7] = [
        Port::Local,
        Port::North,
        Port::East,
        Port::South,
        Port::West,
        Port::Up,
        Port::Down,
    ];

    /// Number of distinct port directions.
    pub const COUNT: usize = 7;

    /// Returns a dense index in `0..Port::COUNT`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Port::Local => 0,
            Port::North => 1,
            Port::East => 2,
            Port::South => 3,
            Port::West => 4,
            Port::Up => 5,
            Port::Down => 6,
        }
    }

    /// Reconstructs a port from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Port::COUNT`.
    #[inline]
    pub fn from_index(index: usize) -> Port {
        Port::ALL[index]
    }

    /// The port on the far side of a link leaving through `self`.
    ///
    /// Mesh directions pair N/S and E/W; the vertical link pairs `Up` (on the
    /// interposer router) with `Down` (on the boundary chiplet router).
    /// `Local` is its own opposite (NI links).
    #[inline]
    pub fn opposite(self) -> Port {
        match self {
            Port::Local => Port::Local,
            Port::North => Port::South,
            Port::East => Port::West,
            Port::South => Port::North,
            Port::West => Port::East,
            Port::Up => Port::Down,
            Port::Down => Port::Up,
        }
    }

    /// True for the four intra-mesh directions.
    #[inline]
    pub fn is_mesh(self) -> bool {
        matches!(self, Port::North | Port::East | Port::South | Port::West)
    }

    /// True for the two vertical-link directions.
    #[inline]
    pub fn is_vertical(self) -> bool {
        matches!(self, Port::Up | Port::Down)
    }

    /// True if this is an X-dimension mesh direction.
    #[inline]
    pub fn is_x(self) -> bool {
        matches!(self, Port::East | Port::West)
    }

    /// True if this is a Y-dimension mesh direction.
    #[inline]
    pub fn is_y(self) -> bool {
        matches!(self, Port::North | Port::South)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Port::Local => "L",
            Port::North => "N",
            Port::East => "E",
            Port::South => "S",
            Port::West => "W",
            Port::Up => "U",
            Port::Down => "D",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_index_roundtrip() {
        for p in Port::ALL {
            assert_eq!(Port::from_index(p.index()), p);
        }
    }

    #[test]
    fn port_opposites_are_involutive() {
        for p in Port::ALL {
            assert_eq!(p.opposite().opposite(), p);
        }
    }

    #[test]
    fn port_classes_are_disjoint() {
        for p in Port::ALL {
            let classes = [p.is_mesh(), p.is_vertical(), p == Port::Local]
                .iter()
                .filter(|&&b| b)
                .count();
            assert_eq!(classes, 1, "{p:?} must belong to exactly one class");
        }
        assert!(Port::East.is_x() && !Port::East.is_y());
        assert!(Port::North.is_y() && !Port::North.is_x());
    }

    #[test]
    fn vc_flat_roundtrip() {
        for vnet in 0..3u8 {
            for idx in 0..4u8 {
                let vc = VcId::new(VnetId(vnet), idx);
                assert_eq!(VcId::from_flat(vc.flat(4), 4), vc);
            }
        }
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(ChipletId(1).to_string(), "c1");
        assert_eq!(VcId::new(VnetId(2), 1).to_string(), "v2.1");
        assert_eq!(PacketId(9).to_string(), "p9");
        assert_eq!(Port::Up.to_string(), "U");
    }
}
