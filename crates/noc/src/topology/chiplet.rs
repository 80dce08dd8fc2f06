//! Builders for chiplet-on-interposer systems.
//!
//! The baseline system of Fig. 1 (four 4x4 chiplets on a 4x4 interposer),
//! the 128-node system of Fig. 9, the boundary-router sensitivity variants of
//! Fig. 10 and the faulty systems of Fig. 11 are all instances of
//! [`ChipletSystemSpec`].

use super::{ChipletInfo, NodeInfo, Region, Topology};
use crate::ids::{ChipletId, NodeId, Port};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Placement of one chiplet above the interposer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChipletPlacement {
    /// Chiplet mesh width.
    pub width: u16,
    /// Chiplet mesh height.
    pub height: u16,
    /// `(chiplet (x, y), interposer (x, y))` pairs: each names a boundary
    /// router position and the interposer router its vertical link lands on.
    pub vertical_links: Vec<((u16, u16), (u16, u16))>,
}

/// Convenient, named system shapes used by the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemKind {
    /// Fig. 1: 4 chiplets of 4x4 on a 4x4 interposer, 4 boundary routers per
    /// chiplet.
    Baseline,
    /// Fig. 9: 8 chiplets of 4x4 on a 4x8 interposer (128 chiplet nodes).
    Large,
    /// Fig. 10 variants: 4 chiplets with the given number of boundary routers
    /// per chiplet (2, 4 or 8).
    BoundaryCount(u16),
    /// A `cols x rows` grid of 4x4 chiplets on a `2*cols x 2*rows`
    /// interposer (the scaling study's generator; [`ChipletSystemSpec::grid`]
    /// validates the dimensions).
    Grid {
        /// Chiplet columns.
        cols: u16,
        /// Chiplet rows.
        rows: u16,
    },
}

impl std::str::FromStr for SystemKind {
    type Err = String;

    /// Parses `baseline`, `large`, `b2`, `b8` or `grid:CxR` — the one
    /// spelling every binary accepts — and checks the shape can be built
    /// ([`ChipletSystemSpec::try_of_kind`]).
    fn from_str(name: &str) -> Result<Self, String> {
        let grid = |dims: &str| {
            let (cols, rows) = dims.split_once('x')?;
            let (cols, rows) = (cols.parse().ok()?, rows.parse().ok()?);
            Some(Self::Grid { cols, rows })
        };
        let kind = match name {
            "baseline" => Some(Self::Baseline),
            "large" => Some(Self::Large),
            "b2" => Some(Self::BoundaryCount(2)),
            "b8" => Some(Self::BoundaryCount(8)),
            _ => name.strip_prefix("grid:").and_then(grid),
        };
        let kind = kind.ok_or_else(|| {
            format!("unknown system {name:?} (want baseline|large|b2|b8|grid:CxR)")
        })?;
        ChipletSystemSpec::try_of_kind(kind)
            .map(|_| kind)
            .map_err(|e| format!("invalid system {name:?}: {e}"))
    }
}

/// Specification from which a [`Topology`] is built.
///
/// # Examples
///
/// ```
/// use upp_noc::topology::ChipletSystemSpec;
///
/// let topo = ChipletSystemSpec::large().build(1).expect("valid spec");
/// assert_eq!(topo.chiplets().len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChipletSystemSpec {
    /// Interposer mesh width.
    pub interposer_width: u16,
    /// Interposer mesh height.
    pub interposer_height: u16,
    /// One placement per chiplet.
    pub chiplets: Vec<ChipletPlacement>,
}

impl ChipletSystemSpec {
    /// The paper's baseline system (Fig. 1).
    pub fn baseline() -> Self {
        Self::quadrant_system(4, 4, 2, 4)
    }

    /// The 128-node system of Fig. 9: a 4x8 interposer with 8 chiplets.
    pub fn large() -> Self {
        Self::quadrant_system(8, 4, 2, 4)
    }

    /// A named system shape.
    ///
    /// # Panics
    ///
    /// Panics on what [`ChipletSystemSpec::try_of_kind`] rejects.
    pub fn of_kind(kind: SystemKind) -> Self {
        Self::try_of_kind(kind).expect("valid system kind")
    }

    /// A named system shape that came from outside the program.
    ///
    /// # Errors
    ///
    /// Returns the reason for a `BoundaryCount` other than 2, 4 or 8, or
    /// `Grid` dimensions that fail [`ChipletSystemSpec::grid`] validation.
    pub fn try_of_kind(kind: SystemKind) -> Result<Self, String> {
        match kind {
            SystemKind::Baseline | SystemKind::BoundaryCount(4) => Ok(Self::baseline()),
            SystemKind::Large => Ok(Self::large()),
            SystemKind::BoundaryCount(2) => Ok(Self::quadrant_system(4, 4, 2, 2)),
            SystemKind::BoundaryCount(8) => Ok(Self::quadrant_system(8, 8, 4, 8)),
            SystemKind::BoundaryCount(n) => Err(format!(
                "unsupported boundary router count {n}; use 2, 4 or 8"
            )),
            SystemKind::Grid { cols, rows } => Self::grid(cols, rows),
        }
    }

    /// A `cols x rows` grid of the paper's 4x4 chiplets (Fig. 2(a) boundary
    /// pattern, 4 vertical links each) over a `2*cols x 2*rows` interposer —
    /// the generator for the scaling study. `grid(2, 2)` is exactly the
    /// paper's baseline; `grid(32, 32)` is a 20480-router system.
    ///
    /// # Errors
    ///
    /// Returns `Err` for degenerate or overflowing dimensions: either side
    /// zero, an interposer dimension that does not fit `u16`, or a total
    /// router count that does not fit `u32` (node ids are 32-bit).
    pub fn grid(cols: u16, rows: u16) -> Result<Self, String> {
        if cols == 0 || rows == 0 {
            return Err("grid must be at least 1x1 chiplets".into());
        }
        if 2 * cols as u32 > u16::MAX as u32 || 2 * rows as u32 > u16::MAX as u32 {
            return Err(format!(
                "grid {cols}x{rows} needs a {}x{} interposer, which exceeds the u16 mesh limit",
                2 * cols as u32,
                2 * rows as u32
            ));
        }
        // 16 chiplet routers + 4 interposer routers per chiplet tile.
        let routers = 20u64 * cols as u64 * rows as u64;
        if routers > u32::MAX as u64 {
            return Err(format!(
                "grid {cols}x{rows} has {routers} routers, which exceeds the u32 node-id limit"
            ));
        }
        Ok(Self::quadrant_system(2 * cols, 2 * rows, 2, 4))
    }

    /// Builds a system of 4x4 chiplets tiled over interposer quadrants of
    /// `quad` x `quad` routers, with `boundary_count` vertical links per
    /// chiplet.
    fn quadrant_system(
        interposer_width: u16,
        interposer_height: u16,
        quad: u16,
        boundary_count: u16,
    ) -> Self {
        let cols = interposer_width / quad;
        let rows = interposer_height / quad;
        let mut chiplets = Vec::new();
        for qy in 0..rows {
            for qx in 0..cols {
                let base = (qx * quad, qy * quad);
                chiplets.push(ChipletPlacement {
                    width: 4,
                    height: 4,
                    vertical_links: Self::vertical_links(quad, boundary_count, base),
                });
            }
        }
        Self {
            interposer_width,
            interposer_height,
            chiplets,
        }
    }

    /// Boundary-router positions inside a 4x4 chiplet and their interposer
    /// attach points for a quadrant based at `base`.
    fn vertical_links(
        quad: u16,
        boundary_count: u16,
        base: (u16, u16),
    ) -> Vec<((u16, u16), (u16, u16))> {
        let (bx, by) = base;
        // Boundary routers sit on the chiplet edges in the rotationally
        // symmetric pattern of the paper's Fig. 2(a) (mesh nodes 2, 4, 11,
        // 13 in row-major order). Edge placement matters: it is what makes
        // chiplet integration induce real dependency cycles that the
        // deadlock-freedom schemes must break.
        match (quad, boundary_count) {
            // Two verticals on opposite edges.
            (2, 2) => vec![((2, 0), (bx + 1, by)), ((1, 3), (bx, by + 1))],
            // Fig. 2(a): nodes 2 = (2,0), 4 = (0,1), 11 = (3,2), 13 = (1,3).
            (2, 4) => vec![
                ((2, 0), (bx + 1, by)),
                ((0, 1), (bx, by)),
                ((3, 2), (bx + 1, by + 1)),
                ((1, 3), (bx, by + 1)),
            ],
            // Eight verticals over a 4x4 quadrant (Fig. 10's densest point;
            // the interposer is scaled so that every vertical gets its own
            // interposer router), two per chiplet edge.
            (4, 8) => vec![
                ((1, 0), (bx + 1, by)),
                ((2, 0), (bx + 2, by)),
                ((0, 1), (bx, by + 1)),
                ((0, 2), (bx, by + 2)),
                ((3, 1), (bx + 3, by + 1)),
                ((3, 2), (bx + 3, by + 2)),
                ((1, 3), (bx + 1, by + 3)),
                ((2, 3), (bx + 2, by + 3)),
            ],
            _ => panic!("unsupported quadrant/boundary combination ({quad}, {boundary_count})"),
        }
    }

    /// Routers in the system [`ChipletSystemSpec::build`] makes: every
    /// chiplet's mesh plus the interposer's.
    pub fn num_routers(&self) -> usize {
        let mesh = |w: u16, h: u16| w as usize * h as usize;
        let chiplets: usize = self.chiplets.iter().map(|c| mesh(c.width, c.height)).sum();
        chiplets + mesh(self.interposer_width, self.interposer_height)
    }

    /// Builds the topology. The `seed` breaks ties in the static
    /// nearest-boundary binding (Sec. V-D: equidistant boundary routers are
    /// chosen randomly).
    ///
    /// # Errors
    ///
    /// Returns `Err` when the spec is malformed (out-of-range attach points,
    /// duplicate vertical links, or a chiplet without boundary routers).
    pub fn build(&self, seed: u64) -> Result<Topology, String> {
        if self.chiplets.is_empty() {
            return Err("a system needs at least one chiplet".into());
        }
        let mut nodes: Vec<NodeInfo> = Vec::new();
        let mut chiplets: Vec<ChipletInfo> = Vec::new();

        // Chiplet routers first, chiplet by chiplet, row-major.
        for (ci, cp) in self.chiplets.iter().enumerate() {
            if cp.vertical_links.is_empty() {
                return Err(format!("chiplet {ci} has no vertical links"));
            }
            let cid = ChipletId(ci as u16);
            let base = nodes.len();
            let mut routers = Vec::new();
            for y in 0..cp.height {
                for x in 0..cp.width {
                    let id = NodeId(nodes.len() as u32);
                    nodes.push(NodeInfo {
                        id,
                        region: Region::Chiplet(cid),
                        x,
                        y,
                        boundary: false,
                        neighbors: [None; Port::COUNT],
                    });
                    routers.push(id);
                }
            }
            // Mesh links.
            link_mesh(&mut nodes, base, cp.width, cp.height);
            chiplets.push(ChipletInfo {
                id: cid,
                width: cp.width,
                height: cp.height,
                routers,
                boundary_routers: Vec::new(),
            });
        }

        // Interposer routers.
        let ibase = nodes.len();
        let mut interposer_routers = Vec::new();
        for y in 0..self.interposer_height {
            for x in 0..self.interposer_width {
                let id = NodeId(nodes.len() as u32);
                nodes.push(NodeInfo {
                    id,
                    region: Region::Interposer,
                    x,
                    y,
                    boundary: false,
                    neighbors: [None; Port::COUNT],
                });
                interposer_routers.push(id);
            }
        }
        link_mesh(
            &mut nodes,
            ibase,
            self.interposer_width,
            self.interposer_height,
        );

        // Vertical links.
        for (ci, cp) in self.chiplets.iter().enumerate() {
            for &((cx, cy), (ix, iy)) in &cp.vertical_links {
                if cx >= cp.width || cy >= cp.height {
                    return Err(format!("chiplet {ci}: boundary ({cx},{cy}) out of range"));
                }
                if ix >= self.interposer_width || iy >= self.interposer_height {
                    return Err(format!("chiplet {ci}: attach ({ix},{iy}) out of range"));
                }
                let b = chiplets[ci].routers[cy as usize * cp.width as usize + cx as usize];
                let ir =
                    interposer_routers[iy as usize * self.interposer_width as usize + ix as usize];
                if nodes[b.index()].neighbors[Port::Down.index()].is_some() {
                    return Err(format!("chiplet {ci}: duplicate boundary at ({cx},{cy})"));
                }
                if nodes[ir.index()].neighbors[Port::Up.index()].is_some() {
                    return Err(format!(
                        "interposer router ({ix},{iy}) already has an Up link"
                    ));
                }
                nodes[b.index()].neighbors[Port::Down.index()] = Some(ir);
                nodes[b.index()].boundary = true;
                nodes[ir.index()].neighbors[Port::Up.index()] = Some(b);
                nodes[ir.index()].boundary = true;
                chiplets[ci].boundary_routers.push(b);
            }
        }

        // Static nearest-boundary binding with random tie-breaks.
        let mut rng = SmallRng::seed_from_u64(seed ^ BINDING_SEED_SALT);
        let mut binding = vec![NodeId(0); nodes.len()];
        for c in &chiplets {
            for &r in &c.routers {
                let rn = &nodes[r.index()];
                let best = c
                    .boundary_routers
                    .iter()
                    .map(|&b| {
                        let bn = &nodes[b.index()];
                        let d = (rn.x as i32 - bn.x as i32).unsigned_abs()
                            + (rn.y as i32 - bn.y as i32).unsigned_abs();
                        (d, b)
                    })
                    .collect::<Vec<_>>();
                let min = best
                    .iter()
                    .map(|&(d, _)| d)
                    .min()
                    .expect("non-empty boundary set");
                let ties: Vec<NodeId> = best
                    .into_iter()
                    .filter(|&(d, _)| d == min)
                    .map(|(_, b)| b)
                    .collect();
                binding[r.index()] = ties[rng.gen_range(0..ties.len())];
            }
        }
        for &ir in &interposer_routers {
            binding[ir.index()] = ir;
        }

        let topo = Topology::from_parts(
            nodes,
            chiplets,
            self.interposer_width,
            self.interposer_height,
            interposer_routers,
            binding,
        );
        topo.validate()?;
        Ok(topo)
    }
}

/// Salt mixed into the binding tie-break RNG so topology seeds and traffic
/// seeds draw from independent streams.
const BINDING_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

fn link_mesh(nodes: &mut [NodeInfo], base: usize, width: u16, height: u16) {
    let at = |x: u16, y: u16| base + y as usize * width as usize + x as usize;
    for y in 0..height {
        for x in 0..width {
            let i = at(x, y);
            if x + 1 < width {
                let e = nodes[at(x + 1, y)].id;
                nodes[i].neighbors[Port::East.index()] = Some(e);
            }
            if x > 0 {
                let w = nodes[at(x - 1, y)].id;
                nodes[i].neighbors[Port::West.index()] = Some(w);
            }
            if y + 1 < height {
                let n = nodes[at(x, y + 1)].id;
                nodes[i].neighbors[Port::North.index()] = Some(n);
            }
            if y > 0 {
                let s = nodes[at(x, y - 1)].id;
                nodes[i].neighbors[Port::South.index()] = Some(s);
            }
        }
    }
}

/// Marks `count` randomly-chosen mesh links faulty while keeping every
/// region connected (vertical links are never failed, matching Fig. 11's
/// methodology of degrading the meshes).
///
/// Returns the list of failed `(node, port)` links (one direction each).
///
/// # Errors
///
/// Returns `Err` if fewer than `count` links can be failed without
/// disconnecting a region.
pub fn inject_random_faults(
    topo: &mut Topology,
    count: usize,
    seed: u64,
) -> Result<Vec<(NodeId, Port)>, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut candidates: Vec<(NodeId, Port)> = Vec::new();
    for n in topo.nodes() {
        for (p, peer) in n.links() {
            if p.is_mesh() && n.id < peer {
                candidates.push((n.id, p));
            }
        }
    }
    candidates.shuffle(&mut rng);
    let mut failed = Vec::new();
    for (node, port) in candidates {
        if failed.len() == count {
            break;
        }
        if topo.is_link_faulty(node, port) {
            continue;
        }
        topo.set_link_faulty(node, port);
        if topo.validate().is_ok() {
            failed.push((node, port));
        } else {
            topo.clear_link_fault(node, port);
        }
    }
    if failed.len() < count {
        return Err(format!(
            "only {} of {count} links can fail without disconnecting a region",
            failed.len()
        ));
    }
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Region;

    #[test]
    fn baseline_shape_matches_fig1() {
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        assert_eq!(topo.chiplets().len(), 4);
        assert_eq!(topo.num_nodes(), 80);
        assert_eq!(topo.interposer_routers().len(), 16);
        for c in topo.chiplets() {
            assert_eq!(c.routers.len(), 16);
            assert_eq!(c.boundary_routers.len(), 4);
        }
        topo.validate().unwrap();
    }

    #[test]
    fn large_shape_matches_fig9() {
        let topo = ChipletSystemSpec::large().build(0).unwrap();
        assert_eq!(topo.chiplets().len(), 8);
        assert_eq!(topo.interposer_routers().len(), 32);
        let chiplet_nodes: usize = topo.chiplets().iter().map(|c| c.routers.len()).sum();
        assert_eq!(chiplet_nodes, 128);
    }

    #[test]
    fn boundary_count_variants() {
        for (n, expect_interposer) in [(2u16, 16), (4, 16), (8, 64)] {
            let topo = ChipletSystemSpec::of_kind(SystemKind::BoundaryCount(n))
                .build(0)
                .unwrap();
            for c in topo.chiplets() {
                assert_eq!(c.boundary_routers.len(), n as usize, "boundary count {n}");
            }
            assert_eq!(topo.interposer_routers().len(), expect_interposer);
        }
    }

    #[test]
    fn vertical_links_are_symmetric() {
        let topo = ChipletSystemSpec::baseline().build(3).unwrap();
        for c in topo.chiplets() {
            for &b in &c.boundary_routers {
                let below = topo.below(b).unwrap();
                assert!(topo.is_interposer(below));
                assert_eq!(topo.above(below), Some(b));
            }
        }
    }

    #[test]
    fn binding_is_nearest_boundary() {
        let topo = ChipletSystemSpec::baseline().build(42).unwrap();
        for c in topo.chiplets() {
            for &r in &c.routers {
                let bound = topo.bound_boundary(r);
                let d = topo.manhattan(r, bound);
                for &b in &c.boundary_routers {
                    assert!(
                        topo.manhattan(r, b) >= d,
                        "binding must be minimal-distance"
                    );
                }
            }
        }
        // Boundary routers bind to themselves (distance 0).
        for c in topo.chiplets() {
            for &b in &c.boundary_routers {
                assert_eq!(topo.bound_boundary(b), b);
            }
        }
    }

    #[test]
    fn binding_ties_depend_on_seed_only() {
        let a = ChipletSystemSpec::baseline().build(7).unwrap();
        let b = ChipletSystemSpec::baseline().build(7).unwrap();
        assert_eq!(a, b, "same seed must give identical topologies");
    }

    #[test]
    fn fault_injection_preserves_connectivity() {
        let mut topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let failed = inject_random_faults(&mut topo, 10, 123).unwrap();
        assert_eq!(failed.len(), 10);
        assert_eq!(topo.num_faulty_links(), 10);
        topo.validate().unwrap();
        for (n, p) in failed {
            assert!(topo.is_link_faulty(n, p));
            assert!(topo.neighbor(n, p).is_none());
            assert!(topo.raw_neighbor(n, p).is_some());
        }
    }

    #[test]
    fn fault_injection_never_touches_vertical_links() {
        let mut topo = ChipletSystemSpec::baseline().build(0).unwrap();
        inject_random_faults(&mut topo, 20, 9).unwrap();
        for c in topo.chiplets() {
            for &b in &c.boundary_routers {
                assert!(topo.neighbor(b, crate::ids::Port::Down).is_some());
            }
        }
    }

    #[test]
    fn regions_partition_nodes() {
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let mut count = 0;
        for c in topo.chiplets() {
            for &r in &c.routers {
                assert_eq!(topo.region(r), Region::Chiplet(c.id));
                count += 1;
            }
        }
        for &i in topo.interposer_routers() {
            assert!(topo.is_interposer(i));
            count += 1;
        }
        assert_eq!(count, topo.num_nodes());
    }

    #[test]
    fn grid_2x2_is_the_baseline() {
        let grid = ChipletSystemSpec::grid(2, 2).unwrap();
        assert_eq!(grid, ChipletSystemSpec::baseline());
        let topo = ChipletSystemSpec::of_kind(SystemKind::Grid { cols: 2, rows: 2 })
            .build(0)
            .unwrap();
        assert_eq!(topo.num_nodes(), 80);
    }

    #[test]
    fn grid_scales_router_count_linearly() {
        for (cols, rows) in [(1u16, 1u16), (3, 2), (4, 4), (8, 8)] {
            let spec = ChipletSystemSpec::grid(cols, rows).unwrap();
            let topo = spec.build(1).unwrap();
            let tiles = cols as usize * rows as usize;
            assert_eq!(topo.chiplets().len(), tiles);
            assert_eq!(topo.num_nodes(), 20 * tiles);
            assert_eq!(spec.num_routers(), 20 * tiles);
            assert_eq!(topo.interposer_routers().len(), 4 * tiles);
            for c in topo.chiplets() {
                assert_eq!(c.boundary_routers.len(), 4);
            }
            topo.validate().unwrap();
        }
    }

    /// A 258x258 interposer has more than `u16::MAX` routers, so a mesh
    /// index computed in `u16` wraps (release) or panics (debug).
    #[test]
    fn grid_past_the_u16_router_count_links_the_right_neighbours() {
        let topo = ChipletSystemSpec::grid(129, 129).unwrap().build(0).unwrap();
        let boundary: usize = topo
            .chiplets()
            .iter()
            .map(|c| c.boundary_routers.len())
            .sum();
        assert_eq!(boundary, 4 * 129 * 129);
        for &ir in topo.interposer_routers() {
            let n = topo.node(ir);
            for (port, dx, dy) in [
                (Port::East, 1, 0),
                (Port::West, -1, 0),
                (Port::North, 0, 1),
                (Port::South, 0, -1),
            ] {
                let (x, y) = (i32::from(n.x) + dx, i32::from(n.y) + dy);
                let expect = (0..258).contains(&x) && (0..258).contains(&y);
                let got = topo.neighbor(ir, port).map(|m| {
                    let m = topo.node(m);
                    (m.region, i32::from(m.x), i32::from(m.y))
                });
                assert_eq!(got, expect.then_some((Region::Interposer, x, y)));
            }
        }
    }

    #[test]
    fn grid_rejects_degenerate_and_overflowing_dimensions() {
        assert!(ChipletSystemSpec::grid(0, 4)
            .unwrap_err()
            .contains("at least 1x1"));
        assert!(ChipletSystemSpec::grid(4, 0)
            .unwrap_err()
            .contains("at least 1x1"));
        assert!(ChipletSystemSpec::grid(u16::MAX, 1)
            .unwrap_err()
            .contains("u16 mesh limit"));
        // 20 * 32768^2 = ~21.5e9 routers: each interposer side fits u16 but
        // the node-id space overflows u32.
        assert!(ChipletSystemSpec::grid(32_768 / 2, 32_768 / 2).is_err());
    }

    #[test]
    fn system_names_parse_to_buildable_kinds_or_say_why_not() {
        for (name, kind) in [
            ("baseline", SystemKind::Baseline),
            ("large", SystemKind::Large),
            ("b2", SystemKind::BoundaryCount(2)),
            ("b8", SystemKind::BoundaryCount(8)),
            ("grid:3x2", SystemKind::Grid { cols: 3, rows: 2 }),
        ] {
            assert_eq!(name.parse(), Ok(kind));
        }
        for (name, why) in [
            ("mesh", "unknown system \"mesh\" (want baseline|"),
            ("grid:3", "unknown system"),
            ("grid:ax2", "unknown system"),
            (
                "grid:0x1",
                "invalid system \"grid:0x1\": grid must be at least 1x1",
            ),
        ] {
            let err = name.parse::<SystemKind>().unwrap_err();
            assert!(err.contains(why), "{name}: {err}");
        }
        let err = ChipletSystemSpec::try_of_kind(SystemKind::BoundaryCount(3)).unwrap_err();
        assert!(err.contains("use 2, 4 or 8"), "{err}");
    }

    #[test]
    fn bad_specs_are_rejected() {
        let spec = ChipletSystemSpec {
            interposer_width: 2,
            interposer_height: 2,
            chiplets: vec![ChipletPlacement {
                width: 2,
                height: 2,
                vertical_links: vec![((0, 0), (5, 5))],
            }],
        };
        assert!(spec.build(0).is_err());

        let spec = ChipletSystemSpec {
            interposer_width: 2,
            interposer_height: 2,
            chiplets: vec![],
        };
        assert!(spec.build(0).is_err());

        let spec = ChipletSystemSpec {
            interposer_width: 2,
            interposer_height: 2,
            chiplets: vec![ChipletPlacement {
                width: 2,
                height: 2,
                vertical_links: vec![],
            }],
        };
        assert!(spec.build(0).is_err());
    }
}
