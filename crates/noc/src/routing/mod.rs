//! Routing: route planning and per-hop output-port computation.
//!
//! Chiplet-based routing is three-legged (Sec. V-D): a packet crossing the
//! vertical boundary first routes to an *exit boundary router*, descends,
//! crosses the interposer to an *entry interposer router*, ascends, and
//! finally routes to its destination. The intermediate targets are fixed at
//! injection time by a [`BoundarySelector`]; UPP's default is the static
//! nearest-boundary binding.

pub mod global_cdg;
pub mod table;
pub mod turns;
pub mod xy;

use crate::ids::{NodeId, Port};
use crate::packet::{PacketClass, RouteInfo};
use crate::topology::{Region, Topology};
use std::fmt;
use std::sync::Arc;

pub use global_cdg::{GlobalCdg, GlobalChannel};
pub use table::RouteTables;
pub use turns::{Channel, ExtendedCdg, TurnRestrictions};

/// Classifies a `(src, dest)` pair relative to the vertical boundary.
pub fn classify(topo: &Topology, src: NodeId, dest: NodeId) -> PacketClass {
    match (topo.region(src), topo.region(dest)) {
        (Region::Interposer, Region::Interposer) => PacketClass::Intra,
        (Region::Chiplet(a), Region::Chiplet(b)) if a == b => PacketClass::Intra,
        (Region::Chiplet(_), Region::Chiplet(_)) => PacketClass::InterChiplet,
        (Region::Chiplet(_), Region::Interposer) => PacketClass::ChipletToInterposer,
        (Region::Interposer, Region::Chiplet(_)) => PacketClass::InterposerToChiplet,
    }
}

/// Chooses the boundary routers a cross-boundary packet uses.
pub trait BoundarySelector: fmt::Debug + Send + Sync {
    /// The boundary router through which a packet injected at `src` leaves
    /// its source chiplet (only called when `src` is a chiplet router whose
    /// chiplet differs from `dest`'s region).
    fn exit_boundary(&self, topo: &Topology, src: NodeId, dest: NodeId) -> NodeId;

    /// The boundary router through which a packet enters `dest`'s chiplet
    /// (only called when `dest` is a chiplet router reached from outside).
    fn entry_boundary(&self, topo: &Topology, src: NodeId, dest: NodeId) -> NodeId;
}

/// Sec. V-D's static binding: every chiplet router is bound to its nearest
/// boundary router (ties pre-broken randomly at topology build time), both
/// for exiting and for entering traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticBindingSelector;

impl BoundarySelector for StaticBindingSelector {
    fn exit_boundary(&self, topo: &Topology, src: NodeId, _dest: NodeId) -> NodeId {
        topo.bound_boundary(src)
    }

    fn entry_boundary(&self, topo: &Topology, _src: NodeId, dest: NodeId) -> NodeId {
        topo.bound_boundary(dest)
    }
}

/// Computes routes for the whole system.
pub trait RouteComputer: fmt::Debug + Send + Sync {
    /// Plans a packet's route header at injection time.
    fn plan(&self, topo: &Topology, src: NodeId, dest: NodeId) -> RouteInfo;

    /// The output port taken at `node` by a head flit that arrived on
    /// `in_port` and carries header `route`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when the header is inconsistent with the
    /// topology (a planning bug), never on transient network state.
    fn route(&self, topo: &Topology, node: NodeId, in_port: Port, route: &RouteInfo) -> Port;
}

/// The standard three-leg chiplet routing (Sec. V-D).
///
/// Within each leg it uses XY on healthy meshes, or up*/down* tables when the
/// topology carries faults. The boundary selector decides the intermediate
/// targets; UPP and remote control use [`StaticBindingSelector`], composable
/// routing substitutes its own restricted selector.
///
/// # Examples
///
/// ```
/// use upp_noc::routing::{ChipletRouting, RouteComputer};
/// use upp_noc::topology::ChipletSystemSpec;
///
/// let topo = ChipletSystemSpec::baseline().build(0).expect("valid spec");
/// let routing = ChipletRouting::xy();
/// let src = topo.chiplets()[0].routers[0];
/// let dest = topo.chiplets()[3].routers[15];
/// let plan = routing.plan(&topo, src, dest);
/// assert!(plan.exit_boundary.is_some() && plan.entry_interposer.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct ChipletRouting {
    selector: Arc<dyn BoundarySelector>,
    tables: Option<Arc<RouteTables>>,
}

impl ChipletRouting {
    /// XY region routing with the static binding selector.
    pub fn xy() -> Self {
        Self {
            selector: Arc::new(StaticBindingSelector),
            tables: None,
        }
    }

    /// XY region routing with a custom boundary selector.
    pub fn with_selector(selector: Arc<dyn BoundarySelector>) -> Self {
        Self {
            selector,
            tables: None,
        }
    }

    /// Table-based (up*/down*) region routing for faulty topologies, with the
    /// static binding selector.
    pub fn with_tables(tables: Arc<RouteTables>) -> Self {
        Self {
            selector: Arc::new(StaticBindingSelector),
            tables: Some(tables),
        }
    }

    fn region_step(&self, topo: &Topology, node: NodeId, in_port: Port, target: NodeId) -> Port {
        match &self.tables {
            Some(t) => t.next_port(node, in_port, target).unwrap_or_else(|| {
                panic!("no legal table route {node} (in {in_port}) -> {target}")
            }),
            None => xy::xy_step(topo, node, target),
        }
    }
}

impl RouteComputer for ChipletRouting {
    fn plan(&self, topo: &Topology, src: NodeId, dest: NodeId) -> RouteInfo {
        let class = classify(topo, src, dest);
        let exit_boundary = if class.descends() {
            Some(self.selector.exit_boundary(topo, src, dest))
        } else {
            None
        };
        let entry_interposer = if class.ascends() {
            let b = self.selector.entry_boundary(topo, src, dest);
            Some(topo.below(b).expect("boundary routers own a Down link"))
        } else {
            None
        };
        RouteInfo {
            dest,
            class,
            exit_boundary,
            entry_interposer,
        }
    }

    fn route(&self, topo: &Topology, node: NodeId, in_port: Port, route: &RouteInfo) -> Port {
        if node == route.dest {
            return Port::Local;
        }
        match topo.region(node) {
            Region::Chiplet(c) => {
                let dest_here = topo.chiplet_of(route.dest) == Some(c);
                let target = if dest_here {
                    route.dest
                } else {
                    route
                        .exit_boundary
                        .expect("descending packets carry an exit boundary")
                };
                if !dest_here && node == target {
                    Port::Down
                } else {
                    self.region_step(topo, node, in_port, target)
                }
            }
            Region::Interposer => {
                if topo.is_interposer(route.dest) {
                    self.region_step(topo, node, in_port, route.dest)
                } else {
                    let target = route
                        .entry_interposer
                        .expect("ascending packets carry an entry interposer router");
                    if node == target {
                        Port::Up
                    } else {
                        self.region_step(topo, node, in_port, target)
                    }
                }
            }
        }
    }
}

/// Walks a full route from `src` to `dest`, returning the `(node, out_port)`
/// hops taken. Useful for tests and analyses; the simulator itself routes
/// hop by hop.
///
/// # Panics
///
/// Panics if the walk exceeds `4 * num_nodes` hops (a routing livelock).
pub fn trace_route(
    topo: &Topology,
    routing: &dyn RouteComputer,
    src: NodeId,
    dest: NodeId,
) -> Vec<(NodeId, Port)> {
    let plan = routing.plan(topo, src, dest);
    let mut hops = Vec::new();
    let mut cur = src;
    let mut in_port = Port::Local;
    while cur != dest {
        let p = routing.route(topo, cur, in_port, &plan);
        assert_ne!(p, Port::Local, "route reached Local before the destination");
        hops.push((cur, p));
        cur = topo
            .neighbor(cur, p)
            .unwrap_or_else(|| panic!("route uses missing link {cur}:{p}"));
        in_port = p.opposite();
        assert!(
            hops.len() <= 4 * topo.num_nodes(),
            "routing livelock {src}->{dest}"
        );
    }
    hops.push((dest, Port::Local));
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::chiplet::inject_random_faults;
    use crate::topology::ChipletSystemSpec;

    fn topo() -> Topology {
        ChipletSystemSpec::baseline().build(0).unwrap()
    }

    #[test]
    fn classify_all_cases() {
        let t = topo();
        let c0 = t.chiplets()[0].routers[0];
        let c0b = t.chiplets()[0].routers[5];
        let c1 = t.chiplets()[1].routers[0];
        let i0 = t.interposer_routers()[0];
        let i1 = t.interposer_routers()[5];
        assert_eq!(classify(&t, c0, c0b), PacketClass::Intra);
        assert_eq!(classify(&t, i0, i1), PacketClass::Intra);
        assert_eq!(classify(&t, c0, c1), PacketClass::InterChiplet);
        assert_eq!(classify(&t, c0, i0), PacketClass::ChipletToInterposer);
        assert_eq!(classify(&t, i0, c0), PacketClass::InterposerToChiplet);
    }

    #[test]
    fn inter_chiplet_routes_traverse_three_legs() {
        let t = topo();
        let r = ChipletRouting::xy();
        let src = t.chiplets()[0].routers[0];
        let dest = t.chiplets()[3].routers[10];
        let hops = trace_route(&t, &r, src, dest);
        let downs = hops.iter().filter(|&&(_, p)| p == Port::Down).count();
        let ups = hops.iter().filter(|&&(_, p)| p == Port::Up).count();
        assert_eq!(downs, 1, "exactly one descent");
        assert_eq!(ups, 1, "exactly one ascent");
        assert_eq!(hops.last().unwrap().0, dest);
    }

    #[test]
    fn all_pairs_route_in_baseline() {
        let t = topo();
        let r = ChipletRouting::xy();
        let nodes: Vec<NodeId> = t.nodes().iter().map(|n| n.id).collect();
        for &s in &nodes {
            for &d in &nodes {
                if s == d {
                    continue;
                }
                let hops = trace_route(&t, &r, s, d);
                assert!(!hops.is_empty());
            }
        }
    }

    #[test]
    fn entry_uses_destination_binding() {
        // Paper Sec. V-D: flits destined to one chiplet router always enter
        // the chiplet through the same boundary router.
        let t = topo();
        let r = ChipletRouting::xy();
        let dest = t.chiplets()[2].routers[7];
        let expected_entry = t.below(t.bound_boundary(dest)).unwrap();
        for c in t.chiplets() {
            if c.id == t.chiplet_of(dest).unwrap() {
                continue;
            }
            for &src in c.routers.iter().take(4) {
                let plan = r.plan(&t, src, dest);
                assert_eq!(plan.entry_interposer, Some(expected_entry));
            }
        }
        for &src in t.interposer_routers().iter().take(4) {
            let plan = r.plan(&t, src, dest);
            assert_eq!(plan.entry_interposer, Some(expected_entry));
        }
    }

    #[test]
    fn faulty_systems_route_with_tables() {
        let mut t = topo();
        inject_random_faults(&mut t, 10, 77).unwrap();
        let tables = Arc::new(RouteTables::build(&t));
        let r = ChipletRouting::with_tables(tables);
        let nodes: Vec<NodeId> = t.nodes().iter().map(|n| n.id).collect();
        for &s in nodes.iter().step_by(7) {
            for &d in nodes.iter().step_by(5) {
                if s == d {
                    continue;
                }
                let hops = trace_route(&t, &r, s, d);
                for &(n, p) in &hops {
                    if p != Port::Local {
                        assert!(!t.is_link_faulty(n, p));
                    }
                }
            }
        }
    }

    #[test]
    fn intra_routes_stay_in_region() {
        let t = topo();
        let r = ChipletRouting::xy();
        let c = &t.chiplets()[1];
        let hops = trace_route(&t, &r, c.routers[0], c.routers[15]);
        for &(n, _) in &hops {
            assert_eq!(t.chiplet_of(n), Some(c.id));
        }
    }
}
