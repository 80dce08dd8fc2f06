//! Composable routing (Yin et al., ISCA'18) — the turn-restriction baseline.
//!
//! Each chiplet abstracts the rest of the system into a *virtual node* and
//! places unidirectional turn restrictions on its boundary routers until the
//! extended channel dependency graph (internal XY channels + virtual-node
//! channels) is acyclic (Sec. III-B of the UPP paper). The restrictions
//! remove vertical-turn options, so inter-chiplet packets are funnelled
//! through a subset of boundary routers — the path-diversity and load-balance
//! loss the paper measures against.
//!
//! The published outcome (Fig. 2(a)) funnels inter-chiplet traffic through a
//! subset of boundary routers. [`ComposableConfig::build`] reproduces that
//! structure constructively: entering traffic is admitted at half of the
//! boundary routers, and exit turns are forbidden exactly where the
//! entering-traffic reachable channel set could close a cycle — which is
//! acyclic by construction and verified against the extended CDG. A
//! cycle-driven backtracking search ([`ComposableConfig::build_balanced`])
//! is kept as an ablation: it finds *minimal* restriction sets that cost
//! almost nothing, quantifying how much of composable's published penalty
//! comes from its restriction structure.

use std::collections::HashMap;
use std::sync::Arc;
use upp_noc::ids::{NodeId, Port};
use upp_noc::network::Network;
use upp_noc::obs::GaugeId;
use upp_noc::routing::xy::{xy_arrival_port, xy_departure_port};
use upp_noc::routing::{BoundarySelector, Channel, ChipletRouting, ExtendedCdg, TurnRestrictions};
use upp_noc::scheme::{Scheme, SchemeProperties};
use upp_noc::topology::Topology;

/// Errors from the restriction search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComposableError {
    /// No restriction set keeps the chiplet both acyclic and connected.
    NoSolution {
        /// Chiplet whose search failed.
        chiplet: usize,
    },
}

impl std::fmt::Display for ComposableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSolution { chiplet } => {
                write!(
                    f,
                    "no acyclic connected turn-restriction set for chiplet {chiplet}"
                )
            }
        }
    }
}

impl std::error::Error for ComposableError {}

/// The computed composable-routing configuration for one system.
#[derive(Debug, Clone)]
pub struct ComposableConfig {
    restrictions: TurnRestrictions,
    /// `(source, allowed exit boundary)` choices, precomputed per node.
    exit_of: HashMap<NodeId, NodeId>,
    /// `(destination, allowed entry boundary)` choices, precomputed.
    entry_of: HashMap<NodeId, NodeId>,
}

impl ComposableConfig {
    /// Builds the paper-style (funneled) restriction sets for every chiplet
    /// of `topo`, falling back to the backtracking search when the
    /// constructive pattern cannot keep a chiplet connected.
    ///
    /// # Errors
    ///
    /// Returns [`ComposableError`] when some chiplet admits no valid set —
    /// not observed for any of the paper's system shapes.
    pub fn build(topo: &Topology) -> Result<Self, ComposableError> {
        let mut restrictions = TurnRestrictions::new();
        for (ci, _) in topo.chiplets().iter().enumerate() {
            let local = funneled_restrictions(topo, ci).map_or_else(
                || {
                    let mut r = TurnRestrictions::new();
                    search(topo, ci, &mut r, 0).then_some(r)
                },
                Some,
            );
            let Some(local) = local else {
                return Err(ComposableError::NoSolution { chiplet: ci });
            };
            for (n, i, o) in local.iter() {
                restrictions.forbid(n, i, o);
            }
        }
        Self::finish(topo, restrictions)
    }

    /// Runs the minimal backtracking search over every chiplet (the
    /// ablation variant: provably acyclic but far less restrictive than the
    /// published structure).
    ///
    /// # Errors
    ///
    /// Returns [`ComposableError`] when some chiplet admits no valid set.
    pub fn build_balanced(topo: &Topology) -> Result<Self, ComposableError> {
        let mut restrictions = TurnRestrictions::new();
        for (ci, _) in topo.chiplets().iter().enumerate() {
            let mut local = TurnRestrictions::new();
            if !search(topo, ci, &mut local, 0) {
                return Err(ComposableError::NoSolution { chiplet: ci });
            }
            for (n, i, o) in local.iter() {
                restrictions.forbid(n, i, o);
            }
        }
        Self::finish(topo, restrictions)
    }

    fn finish(topo: &Topology, restrictions: TurnRestrictions) -> Result<Self, ComposableError> {
        // Verify acyclicity of every chiplet's extended CDG (defence in
        // depth: both constructions guarantee it).
        for c in topo.chiplets() {
            debug_assert!(
                ExtendedCdg::build(topo, c.id, &restrictions).is_acyclic(),
                "composable restriction set left a cycle in chiplet {}",
                c.id
            );
        }
        // Precompute selections under the final restriction set.
        let mut exit_of = HashMap::new();
        let mut entry_of = HashMap::new();
        for (ci, c) in topo.chiplets().iter().enumerate() {
            for &r in &c.routers {
                let Some(exit) = pick_boundary(topo, &restrictions, &c.boundary_routers, r, true)
                else {
                    return Err(ComposableError::NoSolution { chiplet: ci });
                };
                let Some(entry) = pick_boundary(topo, &restrictions, &c.boundary_routers, r, false)
                else {
                    return Err(ComposableError::NoSolution { chiplet: ci });
                };
                exit_of.insert(r, exit);
                entry_of.insert(r, entry);
            }
        }
        Ok(Self {
            restrictions,
            exit_of,
            entry_of,
        })
    }

    /// The restriction set (for analyses, Table I style reporting and
    /// tests).
    pub fn restrictions(&self) -> &TurnRestrictions {
        &self.restrictions
    }

    /// The chiplet routing object to install into the network.
    pub fn routing(self: &Arc<Self>) -> ChipletRouting {
        ChipletRouting::with_selector(Arc::new(ComposableSelector {
            cfg: Arc::clone(self),
        }))
    }

    /// The exit boundary chosen for packets injected at `src`.
    pub fn exit_boundary_of(&self, src: NodeId) -> Option<NodeId> {
        self.exit_of.get(&src).copied()
    }

    /// The entry boundary chosen for packets destined to `dest`.
    pub fn entry_boundary_of(&self, dest: NodeId) -> Option<NodeId> {
        self.entry_of.get(&dest).copied()
    }
}

/// Exit legality: an XY-routed packet from `s` may descend at `b`.
fn exit_allowed(topo: &Topology, r: &TurnRestrictions, s: NodeId, b: NodeId) -> bool {
    let arr = xy_arrival_port(topo, s, b);
    arr == Port::Local || r.allows(b, arr, Port::Down)
}

/// Entry legality: a packet ascending at `b` may XY-route to `d`.
fn entry_allowed(topo: &Topology, r: &TurnRestrictions, b: NodeId, d: NodeId) -> bool {
    let dep = xy_departure_port(topo, b, d);
    dep == Port::Local || r.allows(b, Port::Down, dep)
}

fn connectivity_ok(topo: &Topology, chiplet: usize, r: &TurnRestrictions) -> bool {
    let c = &topo.chiplets()[chiplet];
    c.routers.iter().all(|&s| {
        c.boundary_routers
            .iter()
            .any(|&b| exit_allowed(topo, r, s, b))
    }) && c.routers.iter().all(|&d| {
        c.boundary_routers
            .iter()
            .any(|&b| entry_allowed(topo, r, b, d))
    })
}

/// Boundary-turn edges of a CDG cycle, i.e. the restrictable turns.
fn cycle_turns(topo: &Topology, cycle: &[Channel]) -> Vec<(NodeId, Port, Port)> {
    let mut out = Vec::new();
    for i in 0..cycle.len() {
        let a = cycle[i];
        let b = cycle[(i + 1) % cycle.len()];
        match (a, b) {
            (Channel::ExtIn { boundary }, Channel::Internal { from, out: q })
                if from == boundary =>
            {
                out.push((boundary, Port::Down, q));
            }
            (Channel::Internal { from, out: p }, Channel::ExtOut { boundary })
                if topo.neighbor(from, p) == Some(boundary) =>
            {
                out.push((boundary, p.opposite(), Port::Down));
            }
            _ => {}
        }
    }
    // Prefer restricting exits (into Down) first: this funnels outgoing
    // traffic like the published algorithm does.
    out.sort_by_key(|&(_, _, o)| if o == Port::Down { 0 } else { 1 });
    out
}

/// Constructs the published funneled restriction structure for one chiplet:
/// entering traffic is admitted only at half of the boundary routers
/// (maximally separated, lowest-id first), and every exit turn whose arrival
/// channel is reachable from the admitted entry channels is forbidden. Any
/// remaining dependency path `ExtIn -> ... -> ExtOut` is impossible by
/// construction, so the extended CDG is acyclic. Returns `None` when the
/// pattern would disconnect some source from every exit (the caller then
/// falls back to the search).
fn funneled_restrictions(topo: &Topology, chiplet: usize) -> Option<TurnRestrictions> {
    let info = &topo.chiplets()[chiplet];
    let cid = info.id;
    let boundaries = &info.boundary_routers;
    let entry_count = (boundaries.len() / 2).max(1);

    // Pick maximally-separated entry boundaries greedily.
    let mut entries: Vec<NodeId> = Vec::new();
    let mut sorted = boundaries.clone();
    sorted.sort_unstable();
    entries.push(sorted[0]);
    while entries.len() < entry_count {
        let next = sorted
            .iter()
            .copied()
            .filter(|b| !entries.contains(b))
            .max_by_key(|&b| {
                (
                    entries
                        .iter()
                        .map(|&e| topo.manhattan(e, b))
                        .min()
                        .unwrap_or(0),
                    std::cmp::Reverse(b),
                )
            })?;
        entries.push(next);
    }

    let mut r = TurnRestrictions::new();
    // Non-entry boundaries admit nothing from below.
    for &b in boundaries {
        if entries.contains(&b) {
            continue;
        }
        for p in Port::ALL {
            if p.is_mesh() {
                r.forbid(b, Port::Down, p);
            }
        }
    }

    // Channels reachable from the admitted entry links under XY.
    let cdg = ExtendedCdg::build(topo, cid, &r);
    let mut reachable: std::collections::HashSet<Channel> = std::collections::HashSet::new();
    for &e in &entries {
        reachable.extend(cdg.reachable(Channel::ExtIn { boundary: e }));
    }

    // Forbid every exit turn whose arrival channel is reachable from an
    // entry: no ExtIn -> ExtOut path can survive.
    for &b in boundaries {
        for p in Port::ALL {
            if !p.is_mesh() {
                continue;
            }
            let Some(peer) = topo.neighbor(b, p) else {
                continue;
            };
            if topo.chiplet_of(peer) != Some(cid) {
                continue;
            }
            let arrival = Channel::Internal {
                from: peer,
                out: p.opposite(),
            };
            if reachable.contains(&arrival) {
                r.forbid(b, p, Port::Down);
            }
        }
    }

    if connectivity_ok(topo, chiplet, &r) && ExtendedCdg::build(topo, cid, &r).is_acyclic() {
        Some(r)
    } else {
        None
    }
}

fn search(topo: &Topology, chiplet: usize, r: &mut TurnRestrictions, depth: usize) -> bool {
    if depth > 64 {
        return false;
    }
    let cid = topo.chiplets()[chiplet].id;
    let cdg = ExtendedCdg::build(topo, cid, r);
    let Some(cycle) = cdg.find_cycle() else {
        return true;
    };
    for (n, i, o) in cycle_turns(topo, &cycle) {
        if !r.allows(n, i, o) {
            continue;
        }
        r.forbid(n, i, o);
        if connectivity_ok(topo, chiplet, r) && search(topo, chiplet, r, depth + 1) {
            return true;
        }
        r.allow(n, i, o);
    }
    false
}

fn pick_boundary(
    topo: &Topology,
    r: &TurnRestrictions,
    boundaries: &[NodeId],
    node: NodeId,
    exit: bool,
) -> Option<NodeId> {
    boundaries
        .iter()
        .copied()
        .filter(|&b| {
            if exit {
                exit_allowed(topo, r, node, b)
            } else {
                entry_allowed(topo, r, b, node)
            }
        })
        .min_by_key(|&b| (topo.manhattan(node, b), b))
}

#[derive(Debug)]
struct ComposableSelector {
    cfg: Arc<ComposableConfig>,
}

impl BoundarySelector for ComposableSelector {
    fn exit_boundary(&self, _topo: &Topology, src: NodeId, _dest: NodeId) -> NodeId {
        self.cfg
            .exit_of
            .get(&src)
            .copied()
            .unwrap_or_else(|| panic!("no exit boundary precomputed for {src}"))
    }

    fn entry_boundary(&self, _topo: &Topology, _src: NodeId, dest: NodeId) -> NodeId {
        self.cfg
            .entry_of
            .get(&dest)
            .copied()
            .unwrap_or_else(|| panic!("no entry boundary precomputed for {dest}"))
    }
}

/// Pre-registered telemetry ids (`Some` only while the network's obs
/// registry is enabled).
#[derive(Debug, Clone, Copy)]
struct ComposableObs {
    /// Total flits queued in Down-port input VCs at boundary routers.
    dateline_flits: GaugeId,
    /// Deepest single Down-port input VC among those.
    dateline_max: GaugeId,
}

/// The composable-routing scheme object (routing does all the work; the
/// scheme itself is pure metadata).
#[derive(Debug, Clone)]
pub struct Composable {
    cfg: Arc<ComposableConfig>,
    obs: Option<ComposableObs>,
}

impl Composable {
    /// Builds the scheme and its routing for `topo`.
    ///
    /// # Errors
    ///
    /// See [`ComposableConfig::build`].
    pub fn build(topo: &Topology) -> Result<(Self, ChipletRouting), ComposableError> {
        Ok(Self::with_config(ComposableConfig::build(topo)?))
    }

    /// Builds the scheme and its routing for `topo` from the minimal
    /// restriction search (the ablation variant).
    ///
    /// # Errors
    ///
    /// See [`ComposableConfig::build_balanced`].
    pub fn build_balanced(topo: &Topology) -> Result<(Self, ChipletRouting), ComposableError> {
        Ok(Self::with_config(ComposableConfig::build_balanced(topo)?))
    }

    fn with_config(cfg: ComposableConfig) -> (Self, ChipletRouting) {
        let cfg = Arc::new(cfg);
        let routing = cfg.routing();
        (Self { cfg, obs: None }, routing)
    }

    /// The underlying configuration.
    pub fn config(&self) -> &Arc<ComposableConfig> {
        &self.cfg
    }
}

impl Scheme for Composable {
    fn name(&self) -> &'static str {
        "composable"
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            topology_modularity: true,
            vc_modularity: true,
            flow_control_modularity: true,
            full_path_diversity: false, // excessive boundary turn restrictions
            no_injection_control: true,
            topology_independence: false, // design-time exponential search
        }
    }

    fn observe(&mut self, net: &mut Network) {
        if !net.obs().is_enabled() {
            return;
        }
        if self.obs.is_none() {
            let o = net.obs_mut();
            self.obs = Some(ComposableObs {
                dateline_flits: o.gauge("composable.dateline_vc.flits"),
                dateline_max: o.gauge("composable.dateline_vc.max"),
            });
        }
        let Some(o) = self.obs else { return };
        // Composable has no dateline VCs in the literal (torus) sense; its
        // pressure point is the boundary funnel: the turn restrictions
        // concentrate inter-chiplet traffic through a subset of boundary
        // routers, so the Down-port input VCs there — where ascending
        // packets land — are the structure whose occupancy grows with
        // system size. Sampled on the same axes as UPP's circuit table and
        // remote control's permit queues so `fig_scaling` can compare the
        // three schemes directly.
        let mut flits = 0u64;
        let mut deepest = 0u64;
        let boundaries: Vec<NodeId> = net
            .topo()
            .chiplets()
            .iter()
            .flat_map(|c| c.boundary_routers.iter().copied())
            .collect();
        for b in boundaries {
            let r = net.router(b);
            for (p, f) in r.input_vcs() {
                if p != Port::Down {
                    continue;
                }
                let len = r.vc_buf_len(p, f) as u64;
                flits += len;
                deepest = deepest.max(len);
            }
        }
        let obs = net.obs_mut();
        obs.gauge_set(o.dateline_flits, flits);
        obs.gauge_set(o.dateline_max, deepest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upp_noc::ids::ChipletId;
    use upp_noc::topology::{ChipletSystemSpec, SystemKind};

    #[test]
    fn baseline_search_succeeds_and_is_acyclic() {
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let cfg = ComposableConfig::build(&topo).unwrap();
        for c in topo.chiplets() {
            let cdg = ExtendedCdg::build(&topo, c.id, cfg.restrictions());
            assert!(
                cdg.is_acyclic(),
                "chiplet {} extended CDG must be acyclic",
                c.id
            );
        }
        assert!(
            !cfg.restrictions().is_empty(),
            "some turns must be restricted"
        );
    }

    #[test]
    fn all_system_kinds_admit_solutions() {
        for kind in [
            SystemKind::Baseline,
            SystemKind::Large,
            SystemKind::BoundaryCount(2),
            SystemKind::BoundaryCount(8),
        ] {
            let topo = ChipletSystemSpec::of_kind(kind).build(0).unwrap();
            let cfg = ComposableConfig::build(&topo).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            for c in topo.chiplets() {
                assert!(ExtendedCdg::build(&topo, c.id, cfg.restrictions()).is_acyclic());
            }
        }
    }

    /// FNV-1a 64 over the sorted forbidden turns (node id as 4 LE bytes,
    /// then the two port indices) and their count.
    fn restrictions_digest(r: &TurnRestrictions) -> (u64, usize) {
        let mut turns: Vec<_> = r.iter().collect();
        turns.sort_unstable();
        let bytes: Vec<u8> = turns
            .iter()
            .flat_map(|(n, i, o)| {
                let [a, b, c, d] = n.0.to_le_bytes();
                [a, b, c, d, i.index() as u8, o.index() as u8]
            })
            .collect();
        (upp_noc::fnv1a64(&bytes), turns.len())
    }

    /// Both constructions pinned turn for turn. The balanced search (and
    /// `build` on b8, where the funneled pattern falls back to it) follows
    /// the first cycle the CDG search finds, so these digests also pin the
    /// search's visit order. Derived at commit d0260a1, where the extended and
    /// global CDGs were still two types with two cycle searches.
    #[test]
    fn restriction_sets_are_pinned() {
        for (kind, want) in [
            (SystemKind::Baseline, (0xd000_1639_d608_e895, 56)),
            (SystemKind::Large, (0xae5a_32ad_26cc_3c05, 112)),
            (SystemKind::BoundaryCount(2), (0x57e9_d2d4_e583_8965, 20)),
            (SystemKind::BoundaryCount(8), (0x615d_417d_7a2a_ead5, 80)),
        ] {
            let topo = ChipletSystemSpec::of_kind(kind).build(0).unwrap();
            let (scheme, _) = Composable::build(&topo).unwrap();
            let got = restrictions_digest(scheme.config().restrictions());
            assert_eq!(got, want, "build on {kind:?}: {:016x}", got.0);
        }
        for (kind, want) in [
            (SystemKind::Baseline, (0x48b0_9e3e_fbb3_39b5, 24)),
            (SystemKind::Large, (0x79f9_d1d5_63e4_2585, 48)),
            (SystemKind::BoundaryCount(2), (0x5a28_7964_7a10_7245, 8)),
        ] {
            let topo = ChipletSystemSpec::of_kind(kind).build(0).unwrap();
            let cfg = ComposableConfig::build_balanced(&topo).unwrap();
            let got = restrictions_digest(cfg.restrictions());
            assert_eq!(got, want, "build_balanced on {kind:?}: {:016x}", got.0);
        }
    }

    #[test]
    fn selections_are_legal_and_total() {
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let cfg = ComposableConfig::build(&topo).unwrap();
        for c in topo.chiplets() {
            for &n in &c.routers {
                let e = cfg.exit_boundary_of(n).unwrap();
                assert!(exit_allowed(&topo, cfg.restrictions(), n, e));
                let i = cfg.entry_boundary_of(n).unwrap();
                assert!(entry_allowed(&topo, cfg.restrictions(), i, n));
            }
        }
    }

    #[test]
    fn restrictions_lengthen_routes() {
        // The paper's motivation: restricted vertical turns force some
        // packets onto longer paths than the static nearest-boundary
        // binding would give them. Compare total (src -> exit) + (entry ->
        // dest) distance against the unrestricted binding.
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let cfg = ComposableConfig::build(&topo).unwrap();
        let mut composable_hops = 0u32;
        let mut binding_hops = 0u32;
        for c in topo.chiplets() {
            for &n in &c.routers {
                composable_hops += topo.manhattan(n, cfg.exit_boundary_of(n).unwrap());
                composable_hops += topo.manhattan(n, cfg.entry_boundary_of(n).unwrap());
                binding_hops += 2 * topo.manhattan(n, topo.bound_boundary(n));
            }
        }
        assert!(
            composable_hops > binding_hops,
            "restrictions must cost hops: composable {composable_hops} vs binding {binding_hops}"
        );
        // And some vertical-turn freedom must be lost on every chiplet.
        for c in topo.chiplets() {
            let lost = cfg
                .restrictions()
                .iter()
                .filter(|&(n, _, _)| c.boundary_routers.contains(&n))
                .count();
            assert!(lost > 0, "chiplet {} lost no turns", c.id);
        }
    }

    #[test]
    fn routing_traces_avoid_restricted_vertical_turns() {
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let (scheme, routing) = Composable::build(&topo).unwrap();
        let r = scheme.config().restrictions().clone();
        use upp_noc::routing::{trace_route, RouteComputer};
        let _: &dyn RouteComputer = &routing;
        let srcs = topo.chiplet(ChipletId(0)).routers.clone();
        let dsts = topo.chiplet(ChipletId(3)).routers.clone();
        for &s in &srcs {
            for &d in dsts.iter().step_by(3) {
                let hops = trace_route(&topo, &routing, s, d);
                let mut in_port = Port::Local;
                for &(n, p) in &hops {
                    if p != Port::Local {
                        assert!(
                            r.allows(n, in_port, p),
                            "route {s}->{d} violates restriction at {n}: {in_port}->{p}"
                        );
                        in_port = p.opposite();
                    }
                }
            }
        }
    }

    #[test]
    fn composable_is_not_fully_path_diverse() {
        let topo = ChipletSystemSpec::baseline().build(0).unwrap();
        let (scheme, _) = Composable::build(&topo).unwrap();
        let p = scheme.properties();
        assert!(!p.full_path_diversity);
        assert!(!p.topology_independence);
        assert!(p.topology_modularity && p.vc_modularity && p.flow_control_modularity);
    }
}
