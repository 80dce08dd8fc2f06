//! Table-based routing for irregular (faulty) regions.
//!
//! When links fail (Fig. 11), XY no longer connects every pair. Each region
//! then falls back to shortest-path routing over the surviving links, made
//! locally deadlock-free with up*/down* turn legality derived from a BFS
//! spanning tree (the reconfiguration style of ARIADNE and up*/down*
//! routing, which the paper names as the locally-optimised routing of
//! irregular chiplets).

use crate::ids::{NodeId, Port};
use crate::topology::{Region, Topology};
use std::collections::VecDeque;

/// Direction of a directed link relative to the region's BFS spanning tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkDir {
    /// Toward the root (lower BFS level, ties broken by lower node id).
    Up,
    /// Away from the root.
    Down,
}

/// Table byte of a `(node, in_port, target)` triple with no legal route.
const UNREACHABLE: u8 = 0xFF;

/// Where a node's routes live: its region and its row in that region's
/// block of the table.
#[derive(Debug, Clone, Copy)]
struct NodeSlot {
    /// Ordinal of the node's region (chiplets in id order, then the
    /// interposer).
    region: u32,
    /// Index of the node within [`Topology::region_nodes`] of its region.
    local: u32,
    /// Number of nodes in the region.
    size: u32,
    /// Offset of the region's block in `RouteTables::next`.
    base: usize,
}

/// The regions tables are built for, in block order.
fn regions(topo: &Topology) -> impl Iterator<Item = Region> + '_ {
    topo.chiplets()
        .iter()
        .map(|c| Region::Chiplet(c.id))
        .chain([Region::Interposer])
}

/// Bytes of the table block of a region of `size` nodes.
///
/// # Panics
///
/// Panics if the block does not fit the address space.
fn block_bytes(size: usize) -> usize {
    size.checked_mul(size)
        .and_then(|pairs| pairs.checked_mul(Port::COUNT))
        .unwrap_or_else(|| panic!("route table of a {size}-router region overflows usize"))
}

/// Per-region routing tables with up*/down* legality.
///
/// Lookup is `next_port(node, in_port, target)` where `target` lies in the
/// same region as `node`. Tables are rebuilt whenever the fault set changes.
///
/// The table is one byte per `(node, target, in_port)` with `node` and
/// `target` in the same region: a region of `s` nodes owns a block of
/// `s * s * Port::COUNT` bytes, so the whole table is `7 * sum(s^2)` bytes
/// (9 KiB on the baseline system, 560 KiB at `grid:8x8`).
///
/// # Examples
///
/// ```
/// use upp_noc::topology::{ChipletSystemSpec, Region};
/// use upp_noc::routing::table::RouteTables;
/// use upp_noc::ids::Port;
///
/// let topo = ChipletSystemSpec::baseline().build(0).expect("valid spec");
/// let tables = RouteTables::build(&topo);
/// let c = &topo.chiplets()[0];
/// let port = tables
///     .next_port(c.routers[0], Port::Local, c.routers[15])
///     .expect("connected region");
/// assert!(port.is_mesh());
/// ```
#[derive(Debug, Clone)]
pub struct RouteTables {
    /// Output port index at `slot.base + (slot.local * slot.size +
    /// target.local) * Port::COUNT + in_port`, [`UNREACHABLE`] where no
    /// legal route exists.
    next: Vec<u8>,
    /// Block position of each node, indexed by node id.
    slots: Vec<NodeSlot>,
    /// BFS level of each node within its region (diagnostics / tests).
    level: Vec<u32>,
}

impl RouteTables {
    /// What [`RouteTables::mem_bytes`] counts per node besides the table
    /// blocks: the node's block position and its BFS level.
    pub const PER_NODE_BYTES: usize = std::mem::size_of::<NodeSlot>() + std::mem::size_of::<u32>();

    /// Builds tables for every region of `topo`, honouring its current fault
    /// set.
    ///
    /// # Panics
    ///
    /// Panics if the table does not fit the address space.
    pub fn build(topo: &Topology) -> Self {
        const UNSET: NodeSlot = NodeSlot {
            region: u32::MAX,
            local: 0,
            size: 0,
            base: 0,
        };
        let mut slots = vec![UNSET; topo.num_nodes()];
        let mut total = 0usize;
        for (ordinal, r) in regions(topo).enumerate() {
            let members = topo.region_nodes(r);
            // Node ids are u32, which bounds ordinals and local indices too.
            let size = u32::try_from(members.len()).expect("a region's nodes have u32 ids");
            for (local, &n) in members.iter().enumerate() {
                slots[n.index()] = NodeSlot {
                    region: ordinal as u32,
                    local: local as u32,
                    size,
                    base: total,
                };
            }
            total = total
                .checked_add(block_bytes(members.len()))
                .unwrap_or_else(|| panic!("route tables of {r:?} and below overflow usize"));
        }
        debug_assert!(
            slots.iter().all(|s| s.region != u32::MAX),
            "every node belongs to a region"
        );

        let mut tables = Self {
            next: vec![UNREACHABLE; total],
            slots,
            level: vec![u32::MAX; topo.num_nodes()],
        };
        for r in regions(topo) {
            tables.build_region(topo, topo.region_nodes(r));
        }
        tables
    }

    fn build_region(&mut self, topo: &Topology, members: &[NodeId]) {
        let Some(&first) = members.first() else {
            return;
        };
        let Self { next, slots, level } = self;
        let slots = &slots[..];
        let NodeSlot {
            region, size, base, ..
        } = slots[first.index()];
        let size = size as usize;
        let in_region = |n: NodeId| slots[n.index()].region == region;

        // BFS levels over surviving links, restarting from the lowest-id
        // unleveled member so that every connected component gets its own
        // root. Faults may split a region; pairs in different components
        // keep their `UNREACHABLE` bytes (explicit unreachability), while
        // routing within each component keeps working.
        let mut roots = members.to_vec();
        roots.sort_unstable();
        let mut q = VecDeque::new();
        for &root in &roots {
            if level[root.index()] != u32::MAX {
                continue;
            }
            level[root.index()] = 0;
            q.push_back(root);
            while let Some(n) = q.pop_front() {
                let l = level[n.index()];
                for p in Port::ALL {
                    if !p.is_mesh() {
                        continue;
                    }
                    if let Some(m) = topo.neighbor(n, p) {
                        if in_region(m) && level[m.index()] == u32::MAX {
                            level[m.index()] = l + 1;
                            q.push_back(m);
                        }
                    }
                }
            }
        }
        let level = &level[..];

        // Direction of a traversal n -> m.
        let dir = |n: NodeId, m: NodeId| -> LinkDir {
            let (ln, lm) = (level[n.index()], level[m.index()]);
            if lm < ln || (lm == ln && m < n) {
                LinkDir::Up
            } else {
                LinkDir::Down
            }
        };

        // A turn at node n (arrived via in_port, leaving via out) is legal if
        // it does not go Up after having gone Down. Arrivals from Local, Up
        // or Down ports (injection / vertical links) may depart anywhere.
        let turn_legal = |n: NodeId, in_port: Port, out: Port, m: NodeId| -> bool {
            if in_port == out {
                return false; // no U-turns
            }
            if !in_port.is_mesh() {
                return true;
            }
            let prev = topo
                .neighbor(n, in_port)
                .expect("in_port arrivals come over existing links");
            let d_in = dir(prev, n);
            let d_out = dir(n, m);
            !(d_in == LinkDir::Down && d_out == LinkDir::Up)
        };

        // Reverse BFS per target over (node, in_port) states; the first
        // visit of a state is its shortest legal continuation. `seen` holds,
        // per state, the stamp of the last target whose search reached it.
        let mut seen = vec![0u32; size * Port::COUNT];
        let mut q: VecDeque<(NodeId, Port)> = VecDeque::new();
        for (t_local, &target) in members.iter().enumerate() {
            let stamp = t_local as u32 + 1;
            for p in Port::ALL {
                seen[t_local * Port::COUNT + p.index()] = stamp;
                q.push_back((target, p));
            }
            while let Some((m, ip_m)) = q.pop_front() {
                // Predecessor n reaches (m, ip_m) by leaving through
                // p = ip_m.opposite().
                let p = ip_m.opposite();
                if !p.is_mesh() {
                    continue;
                }
                let Some(n) = topo.neighbor(m, ip_m) else {
                    continue;
                };
                if !in_region(n) {
                    continue;
                }
                let n_local = slots[n.index()].local as usize;
                let states = n_local * Port::COUNT;
                let row = base + (n_local * size + t_local) * Port::COUNT;
                for inp in Port::ALL {
                    if inp.is_mesh() && topo.neighbor(n, inp).is_none_or(|x| !in_region(x)) {
                        continue; // no such arrival possible
                    }
                    if !turn_legal(n, inp, p, m) {
                        continue;
                    }
                    let s = states + inp.index();
                    if seen[s] != stamp {
                        seen[s] = stamp;
                        next[row + inp.index()] = p.index() as u8;
                        q.push_back((n, inp));
                    }
                }
            }
        }
    }

    /// The next output port at `node` (arrived via `in_port`) toward
    /// `target`, or `None` if no legal path exists.
    #[inline]
    pub fn next_port(&self, node: NodeId, in_port: Port, target: NodeId) -> Option<Port> {
        if node == target {
            return Some(Port::Local);
        }
        let (from, to) = (
            self.slots.get(node.index())?,
            self.slots.get(target.index())?,
        );
        if from.region != to.region {
            return None;
        }
        let pair = from.local as usize * from.size as usize + to.local as usize;
        // `UNREACHABLE` is past `Port::ALL`.
        Port::ALL
            .get(self.next[from.base + pair * Port::COUNT + in_port.index()] as usize)
            .copied()
    }

    /// BFS level of a node within its region.
    pub fn level(&self, node: NodeId) -> Option<u32> {
        self.level.get(node.index()).copied()
    }

    /// Heap bytes the tables hold: `7 * sum(s^2)` over the region sizes `s`
    /// plus [`RouteTables::PER_NODE_BYTES`] per node.
    pub fn mem_bytes(&self) -> usize {
        self.next.len() + self.slots.len() * Self::PER_NODE_BYTES
    }

    /// Verifies that every ordered pair within every region is routable from
    /// every feasible arrival port.
    ///
    /// # Errors
    ///
    /// Returns the first unroutable `(node, in_port, target)` combination.
    pub fn verify_full_connectivity(&self, topo: &Topology) -> Result<(), String> {
        for r in regions(topo) {
            let members = topo.region_nodes(r);
            for &n in members {
                for &t in members {
                    if n == t {
                        continue;
                    }
                    for inp in [Port::Local, Port::Up, Port::Down] {
                        // Non-mesh arrivals are always feasible entry points
                        // (injection and vertical links).
                        if inp != Port::Local && topo.raw_neighbor(n, inp).is_none() {
                            continue;
                        }
                        if self.next_port(n, inp, t).is_none() {
                            return Err(format!("no legal route {n} (in {inp}) -> {t}"));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::chiplet::inject_random_faults;
    use crate::topology::ChipletSystemSpec;

    #[test]
    fn healthy_mesh_routes_everything() {
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let tables = RouteTables::build(&topo);
        tables.verify_full_connectivity(&topo).unwrap();
    }

    #[test]
    fn faulty_mesh_still_routes_everything() {
        for seed in 0..4 {
            let mut topo = ChipletSystemSpec::baseline().build(0).unwrap();
            inject_random_faults(&mut topo, 12, seed).unwrap();
            let tables = RouteTables::build(&topo);
            tables.verify_full_connectivity(&topo).unwrap();
        }
    }

    #[test]
    fn routes_avoid_faulty_links() {
        let mut topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let failed = inject_random_faults(&mut topo, 8, 5).unwrap();
        let tables = RouteTables::build(&topo);
        let c = &topo.chiplets()[0];
        for &src in &c.routers {
            for &dst in &c.routers {
                if src == dst {
                    continue;
                }
                // Walk the tables and assert no faulty link is used.
                let mut cur = src;
                let mut inp = Port::Local;
                let mut hops = 0;
                while cur != dst {
                    let p = tables.next_port(cur, inp, dst).unwrap();
                    assert!(
                        !topo.is_link_faulty(cur, p),
                        "route {src}->{dst} uses faulty link {cur}:{p} (failed: {failed:?})"
                    );
                    let nxt = topo.neighbor(cur, p).unwrap();
                    inp = p.opposite();
                    cur = nxt;
                    hops += 1;
                    assert!(hops < 64, "route {src}->{dst} does not terminate");
                }
            }
        }
    }

    #[test]
    fn updown_walks_terminate_from_vertical_arrivals() {
        let mut topo = ChipletSystemSpec::baseline().build(0).unwrap();
        inject_random_faults(&mut topo, 10, 11).unwrap();
        let tables = RouteTables::build(&topo);
        let c = &topo.chiplets()[1];
        for &b in &c.boundary_routers {
            for &dst in &c.routers {
                let mut cur = b;
                let mut inp = Port::Down; // entering from the vertical link
                let mut hops = 0;
                while cur != dst {
                    let p = tables.next_port(cur, inp, dst).unwrap();
                    cur = topo.neighbor(cur, p).unwrap();
                    inp = p.opposite();
                    hops += 1;
                    assert!(hops < 64);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn oversize_region_is_a_named_panic() {
        assert_eq!(block_bytes(16), 16 * 16 * 7);
        // The square fits, the seven in-ports do not.
        block_bytes(1 << (usize::BITS / 2 - 1));
    }

    #[test]
    fn levels_cover_all_nodes() {
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let tables = RouteTables::build(&topo);
        for n in topo.nodes() {
            assert!(tables.level(n.id).is_some());
        }
    }
}
